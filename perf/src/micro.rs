//! Layer micro-replays for the traced repetition: the workload's own
//! request prefix pushed through one layer in isolation, so a layer's
//! cost can be set against the span it should move.
//!
//! Requests are produced in untimed batches and only the calls into
//! the layer are timed.

use hmc_mem::SparseMemory;
use hmc_types::{CmdKind, Cub, Flit, HmcRqst, Request, Tag, MAX_PACKET_FLITS};
use std::hint::black_box;
use std::time::Instant;

/// One request as the layers below the simulator see it.
pub struct Wire {
    pub cmd: HmcRqst,
    pub addr: u64,
    pub cub: usize,
    pub payload: Vec<u64>,
}

const BATCH: usize = 1024;

/// Pulls `n` requests from `source` in batches and returns the host
/// nanoseconds per request `layer` took on them.
fn replay(n: u64, mut source: impl FnMut() -> Wire, mut layer: impl FnMut(Wire)) -> f64 {
    let mut batch = Vec::with_capacity(BATCH);
    let (mut done, mut ns) = (0u64, 0u128);
    while done < n {
        batch.extend((0..BATCH.min((n - done) as usize)).map(|_| source()));
        done += batch.len() as u64;
        let t = Instant::now();
        for wire in batch.drain(..) {
            layer(wire);
        }
        ns += t.elapsed().as_nanos();
    }
    ns as f64 / n.max(1) as f64
}

/// `types`: `Request::new` + `pack_into` + `unpack` (CRC included).
pub fn pack_unpack_ns_per_req(n: u64, source: impl FnMut() -> Wire) -> f64 {
    let mut flits = [Flit::ZERO; MAX_PACKET_FLITS];
    let tag = Tag::new(5).expect("tag 5 is valid");
    replay(n, source, |w| {
        let cub = Cub::new(w.cub as u8).expect("cube id in range");
        let req = Request::new(w.cmd, tag, w.addr, cub, w.payload).expect("well-formed request");
        let len = req.pack_into(&mut flits);
        black_box(Request::unpack(&flits[..len]).expect("own packet unpacks"));
    })
}

/// `mem`: the vault's data path on a standalone store — `read_words`,
/// `write_words` or `amo::execute`, as the device calls them.
pub fn mem_exec_ns_per_req(n: u64, source: impl FnMut() -> Wire) -> f64 {
    let mem = SparseMemory::new(4 << 30);
    replay(n, source, |w| {
        let info = w.cmd.fixed_info().expect("standard command");
        match info.kind {
            CmdKind::Read => {
                black_box(
                    mem.read_words(w.addr, info.data_bytes as usize / 8)
                        .expect("read in range"),
                );
            }
            CmdKind::Write | CmdKind::PostedWrite => {
                mem.write_words(w.addr, &w.payload).expect("write in range");
            }
            _ => {
                black_box(
                    hmc_mem::amo::execute(w.cmd, &mem, w.addr, &w.payload).expect("atomic runs"),
                );
            }
        }
    })
}
