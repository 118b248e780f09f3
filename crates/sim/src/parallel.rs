//! Device-sharded stage 3 for [`crate::ExecMode::Parallel`].
//!
//! A cube owns everything its vault stage touches — queues, banks,
//! memory, register file, CMC table, fault PRNG, statistics — and cubes
//! interact only through the transit queues the coordinating thread
//! commits. So the device is the unit that can run elsewhere: each lane
//! is handed a contiguous run of whole devices, calls the same
//! [`Device::execute_vaults`] the sequential loop calls, and hands them
//! back. Results are taken back in lane order, which is device order, so
//! the state after the stage does not depend on scheduling; nothing is
//! planned, merged or replayed.
//!
//! Lanes other than the caller have no tracer to write to, so
//! [`crate::HmcSim`] only comes here when its tracer captures nothing
//! (every `emit` is then a no-op on either side).
//!
//! The pool is plain `std::thread` + mpsc channels (the crate forbids
//! `unsafe`): lane 0 is the coordinating thread, the others are
//! persistent named workers.

use crate::device::{Device, EnvelopePool};
use crate::trace::Tracer;
use std::sync::mpsc;
use std::thread::JoinHandle;

/// A lane is handed whole devices by value and nothing by reference, so
/// what a device owns has to be `Send` and nothing more. Its backing
/// store is the one part that is deliberately not `Sync` (the page table
/// sits in a `RefCell`); this names it, should it ever stop being `Send`,
/// ahead of the error `WorkerPool::new`'s `spawn` would give.
const _: fn() = || {
    fn moves_between_lanes<T: Send>() {}
    moves_between_lanes::<hmc_mem::SparseMemory>();
};

/// Stage 3 for `devices`, in order, on the calling thread — what the
/// sequential engine does with all of them and a lane with its range.
/// Returns the number of requests absorbed without a response.
///
/// Execution is preceded by one read-only pass over every ready vault
/// head of the whole range ([`Device::warm_vault_heads`]): a request's
/// bank record and memory line are rarely in the host cache, and asked
/// for together the misses overlap instead of being taken one per
/// request.
pub(crate) fn execute_vaults(
    devices: &mut [Device],
    cycle: u64,
    tracer: &mut Tracer,
    envelopes: &mut EnvelopePool,
) -> u64 {
    for dev in devices.iter() {
        dev.warm_vault_heads(cycle);
    }
    devices.iter_mut().map(|dev| dev.execute_vaults(cycle, tracer, envelopes)).sum()
}

/// What a worker lane is handed for one cycle and hands back: its
/// devices, a share of the envelope free lists and, on the way back,
/// the absorbed-request tally. Between cycles it holds only spare
/// capacity.
#[derive(Debug, Default)]
struct Shard {
    cycle: u64,
    devices: Vec<Device>,
    envelopes: EnvelopePool,
    absorbed: u64,
}

struct Worker {
    tx: mpsc::Sender<Shard>,
    rx: mpsc::Receiver<Shard>,
    handle: Option<JoinHandle<()>>,
    shard: Shard,
}

/// The persistent worker lanes of one simulation context.
pub(crate) struct WorkerPool {
    workers: Vec<Worker>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("lanes", &(self.workers.len() + 1)).finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `lanes` total lanes: the caller plus
    /// `lanes - 1` spawned workers.
    pub(crate) fn new(lanes: usize) -> Self {
        let workers = (1..lanes)
            .map(|i| {
                let (tx, work_rx) = mpsc::channel::<Shard>();
                let (result_tx, rx) = mpsc::channel::<Shard>();
                let handle = std::thread::Builder::new()
                    .name(format!("hmcsim-lane-{i}"))
                    .spawn(move || {
                        let mut tracer = Tracer::disabled();
                        while let Ok(mut shard) = work_rx.recv() {
                            let Shard { cycle, devices, envelopes, absorbed } = &mut shard;
                            *absorbed = execute_vaults(devices, *cycle, &mut tracer, envelopes);
                            if result_tx.send(shard).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn stage-3 lane");
                Worker { tx, rx, handle: Some(handle), shard: Shard::default() }
            })
            .collect();
        WorkerPool { workers }
    }

    /// Envelopes lanes hold between cycles.
    #[cfg(test)]
    pub(crate) fn retired_envelopes(&self) -> usize {
        let held = |w: &Worker| w.shard.envelopes.rqst.len() + w.shard.envelopes.rsp.len();
        self.workers.iter().map(held).sum()
    }

    /// Runs stage 3 of `cycle` for every device, lane `i` of `n` taking
    /// devices `[i * len / n, (i + 1) * len / n)`, and returns the
    /// number of requests absorbed without a response. `devices` and
    /// `envelopes` come back complete and in device order.
    ///
    /// A lane that panics (a CMC operation can) re-raises its panic
    /// here; the devices it held are lost with it.
    pub(crate) fn execute_vaults(
        &mut self,
        devices: &mut Vec<Device>,
        cycle: u64,
        tracer: &mut Tracer,
        envelopes: &mut EnvelopePool,
    ) -> u64 {
        let lanes = self.workers.len() + 1;
        let len = devices.len();
        // Lanes only draw response envelopes; each gets an even share
        // of the free ones and allocates past it.
        let share = envelopes.rsp.len() / lanes;
        for (i, w) in self.workers.iter_mut().enumerate().rev() {
            let mut shard = std::mem::take(&mut w.shard);
            shard.cycle = cycle;
            shard.devices.extend(devices.drain((i + 1) * len / lanes..));
            envelopes.rsp.lend(&mut shard.envelopes.rsp, share);
            w.tx.send(shard).expect("stage-3 lane exited: an earlier lane panic was caught");
        }
        let mut absorbed = execute_vaults(devices, cycle, tracer, envelopes);
        for w in &mut self.workers {
            let Ok(mut shard) = w.rx.recv() else {
                // The lane dropped its end without answering.
                match w.handle.take().expect("a dead lane is joined once").join() {
                    Err(panic) => std::panic::resume_unwind(panic),
                    Ok(()) => unreachable!("a lane only exits early by panicking"),
                }
            };
            devices.append(&mut shard.devices);
            envelopes.rqst.absorb(&mut shard.envelopes.rqst);
            envelopes.rsp.absorb(&mut shard.envelopes.rsp);
            absorbed += shard.absorbed;
            w.shard = shard;
        }
        absorbed
    }
}

/// Ends and joins every lane. A lane's panic was either re-raised by
/// [`WorkerPool::execute_vaults`] already or belongs to a cycle whose
/// caller is itself unwinding; it is not raised again from a drop.
impl Drop for WorkerPool {
    fn drop(&mut self) {
        for Worker { tx, handle, .. } in self.workers.drain(..) {
            drop(tx);
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
    }
}
