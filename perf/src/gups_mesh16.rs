//! `gups_mesh16` — RandomAccess `XOR16` updates on a 4×4 mesh of
//! 4Link-4GB cubes, one update stream per cube, 5 % of the updates
//! routed to another cube's table.
//!
//! Why: 2-FLIT atomics make per-packet and per-device fixed costs
//! dominate, and this is the only workload that exercises topology
//! routing, per-edge transit queues and the 16-device walks of the
//! cycle loop. Payload handling barely matters — the opposite of
//! `stream_sat`.

use crate::looped::{Req, Traffic};
use crate::util::Rng;
use hmc_sim::{DeviceConfig, HmcSim, SimConfig, TrackedResponse};
use hmc_types::HmcRqst;

const CUBES: usize = 16;
/// 16-byte table entries per cube.
const ENTRIES: usize = 65_536;
const TABLE_BASE: u64 = 0x0400_0000;
const REMOTE_PERCENT: u64 = 5;
/// Updates per timed round at scale 1.0 (25,000 per cube).
const ROUND_REQS: f64 = (CUBES * 25_000) as f64;

pub struct GupsMesh16 {
    /// Host-side oracle: what each cube's table must hold once every
    /// generated update has executed (XOR commutes, so order is free).
    tables: Vec<Vec<[u64; 2]>>,
    /// The memory image written at set-up (the oracle's starting point).
    initial: Vec<Vec<[u64; 2]>>,
    streams: Vec<Rng>,
    issued: Vec<u64>,
    round_reqs: u64,
}

impl GupsMesh16 {
    /// Input generation: seeded initial tables and one update stream
    /// per cube.
    pub fn generate(seed: u64, scale: f64) -> Self {
        let mut rng = Rng::new(seed, 2);
        let initial: Vec<Vec<[u64; 2]>> = (0..CUBES)
            .map(|_| {
                (0..ENTRIES)
                    .map(|_| [rng.next_u64(), rng.next_u64()])
                    .collect()
            })
            .collect();
        GupsMesh16 {
            tables: initial.clone(),
            initial,
            streams: (0..CUBES).map(|d| Rng::new(seed, 100 + d as u64)).collect(),
            issued: vec![0; CUBES],
            round_reqs: ((ROUND_REQS * scale) as u64).max(CUBES as u64 * 64),
        }
    }
}

impl Traffic for GupsMesh16 {
    fn config(&self) -> SimConfig {
        SimConfig::mesh(DeviceConfig::gen2_4link_4gb(), 4, 4)
    }

    fn window(&self) -> usize {
        64
    }

    fn round_reqs(&self) -> u64 {
        self.round_reqs
    }

    fn prefill(&self, sim: &mut HmcSim) {
        let mut bytes = [0u8; 4096];
        for (cube, table) in self.initial.iter().enumerate() {
            for (page, entries) in table.chunks_exact(256).enumerate() {
                for (dst, w) in bytes.chunks_exact_mut(8).zip(entries.iter().flatten()) {
                    dst.copy_from_slice(&w.to_le_bytes());
                }
                sim.mem_write(cube, TABLE_BASE + (page * 4096) as u64, &bytes)
                    .expect("tables fit the cube");
            }
        }
    }

    fn next(&mut self, dev: usize) -> Req {
        let rng = &mut self.streams[dev];
        let r = rng.next_u64();
        let operand = [rng.next_u64(), rng.next_u64()];
        let entry = (r as usize) & (ENTRIES - 1);
        let cub = if (r >> 32) % 100 < REMOTE_PERCENT {
            // One of the other fifteen cubes.
            (dev + 1 + ((r >> 48) as usize % (CUBES - 1))) % CUBES
        } else {
            dev
        };
        let slot = &mut self.tables[cub][entry];
        slot[0] ^= operand[0];
        slot[1] ^= operand[1];
        let link = (self.issued[dev] % 4) as usize;
        self.issued[dev] += 1;
        Req {
            link,
            cub,
            cmd: HmcRqst::Xor16,
            addr: TABLE_BASE + (entry * 16) as u64,
            id: 0,
            operand,
        }
    }

    fn payload(&self, req: &Req) -> Vec<u64> {
        req.operand.to_vec()
    }

    fn response_ok(&self, _id: u32, _rsp: &TrackedResponse) -> bool {
        // XOR16 acknowledges without data; the tables are compared in
        // full at the end.
        true
    }

    fn verify(&self, sim: &HmcSim) -> (u64, u64) {
        let mut bytes = [0u8; 16];
        let (mut checked, mut failed) = (0, 0);
        for (cube, table) in self.tables.iter().enumerate() {
            for (entry, want) in table.iter().enumerate() {
                sim.mem_read(cube, TABLE_BASE + (entry * 16) as u64, &mut bytes)
                    .expect("tables fit the cube");
                let got = [
                    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")),
                    u64::from_le_bytes(bytes[8..].try_into().expect("8 bytes")),
                ];
                checked += 1;
                failed += u64::from(got != *want);
            }
        }
        (checked, failed)
    }
}
