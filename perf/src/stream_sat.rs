//! `stream_sat` — a saturated Triad-shaped stream on one 4Link-4GB
//! cube with wide links and wide vault controllers.
//!
//! Why: 17-FLIT packets saturate vault execution and packet build/CRC;
//! every cycle is busy, so the skip engine and the fabric do nothing
//! here. It is the payload-heavy opposite of `gups_mesh16`.

use crate::looped::{Req, Traffic};
use crate::util::Rng;
use hmc_sim::{DeviceConfig, HmcSim, SimConfig, TrackedResponse};
use hmc_types::HmcRqst;

/// 256-byte chunks per array before the stream wraps (16 MiB each).
const CHUNKS: usize = 65_536;
const WORDS: usize = 32;
const A_BASE: u64 = 0x1000_0000;
const B_BASE: u64 = 0x2000_0000;
const C_BASE: u64 = 0x3000_0000;
/// Reads of one chunk in this many are compared word for word.
const SAMPLE_EVERY: usize = 64;
/// Requests per timed round at scale 1.0: four passes over the arrays.
const ROUND_REQS: f64 = (3 * 4 * CHUNKS) as f64;

pub struct StreamSat {
    b: Vec<u64>,
    c: Vec<u64>,
    /// Requests generated so far; request `seq` is `RD b`, `RD c` or
    /// `WR a` (`seq % 3`) of triple `seq / 3`, which covers chunk
    /// `triple % CHUNKS` on pass `triple / CHUNKS`.
    seq: u64,
    round_reqs: u64,
}

impl StreamSat {
    /// Input generation: the two source arrays, from the seed.
    pub fn generate(seed: u64, scale: f64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let b = (0..CHUNKS * WORDS).map(|_| rng.next_u64()).collect();
        let c = (0..CHUNKS * WORDS).map(|_| rng.next_u64()).collect();
        StreamSat {
            b,
            c,
            seq: 0,
            round_reqs: ((ROUND_REQS * scale) as u64).max(3 * 1024),
        }
    }

    /// `a = b + scalar·c` with a scalar that changes every pass, so a
    /// dropped late write cannot hide behind an earlier identical one.
    fn triad(&self, chunk: usize, pass: u64) -> impl Iterator<Item = u64> + '_ {
        let at = chunk * WORDS;
        let scalar = 3 + pass;
        (at..at + WORDS).map(move |i| self.b[i].wrapping_add(scalar.wrapping_mul(self.c[i])))
    }
}

impl Traffic for StreamSat {
    fn config(&self) -> SimConfig {
        let mut device = DeviceConfig::gen2_4link_4gb();
        device.link_bandwidth = 8;
        device.vault_bandwidth = 4;
        SimConfig::single(device)
    }

    fn window(&self) -> usize {
        512
    }

    fn round_reqs(&self) -> u64 {
        self.round_reqs
    }

    fn prefill(&self, sim: &mut HmcSim) {
        let mut bytes = [0u8; WORDS * 8];
        for (base, array) in [(B_BASE, &self.b), (C_BASE, &self.c)] {
            for (chunk, words) in array.chunks_exact(WORDS).enumerate() {
                for (dst, w) in bytes.chunks_exact_mut(8).zip(words) {
                    dst.copy_from_slice(&w.to_le_bytes());
                }
                sim.mem_write(0, base + (chunk * WORDS * 8) as u64, &bytes)
                    .expect("arrays fit the cube");
            }
        }
    }

    fn next(&mut self, _dev: usize) -> Req {
        let seq = self.seq;
        self.seq += 1;
        let triple = seq / 3;
        let (chunk, pass) = (triple % CHUNKS as u64, triple / CHUNKS as u64);
        let (cmd, base) = match seq % 3 {
            0 => (HmcRqst::Rd256, B_BASE),
            1 => (HmcRqst::Rd256, C_BASE),
            _ => (HmcRqst::Wr256, A_BASE),
        };
        Req {
            link: (seq % 4) as usize,
            cub: 0,
            cmd,
            addr: base + chunk * (WORDS * 8) as u64,
            id: (chunk * 3 + seq % 3) as u32,
            operand: [chunk, pass],
        }
    }

    fn payload(&self, req: &Req) -> Vec<u64> {
        if req.cmd != HmcRqst::Wr256 {
            return Vec::new();
        }
        self.triad(req.operand[0] as usize, req.operand[1])
            .collect()
    }

    fn response_ok(&self, id: u32, rsp: &TrackedResponse) -> bool {
        let (chunk, kind) = (id as usize / 3, id % 3);
        if kind == 2 || chunk % SAMPLE_EVERY != 0 {
            return true;
        }
        let source = if kind == 0 { &self.b } else { &self.c };
        rsp.rsp.payload.as_slice() == &source[chunk * WORDS..(chunk + 1) * WORDS]
    }

    fn verify(&self, sim: &HmcSim) -> (u64, u64) {
        let writes = self.seq / 3;
        let mut bytes = [0u8; WORDS * 8];
        let (mut checked, mut failed) = (0, 0);
        for chunk in 0..CHUNKS.min(writes as usize) {
            // Every generated request was sent, so the last write of
            // this chunk belongs to the last pass that reached it.
            let pass = (writes - 1 - chunk as u64) / CHUNKS as u64;
            sim.mem_read(0, A_BASE + (chunk * WORDS * 8) as u64, &mut bytes)
                .expect("array a fits the cube");
            let ok = bytes
                .chunks_exact(8)
                .zip(self.triad(chunk, pass))
                .all(|(got, want)| u64::from_le_bytes(got.try_into().expect("8 bytes")) == want);
            checked += 1;
            failed += u64::from(!ok);
        }
        (checked, failed)
    }
}
