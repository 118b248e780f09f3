//! Deterministic parallel vault execution.
//!
//! Stage 3 of the clock (vault execution) dominates cycle cost on
//! saturated workloads, and it is the only stage whose work items are
//! independent: once the per-vault execution *windows* are fixed,
//! each vault's requests touch disjoint device state (its own queues
//! and banks) and — after the planner's conflict sweep — disjoint
//! memory ranges. The engine exploits that with a three-phase split:
//!
//! 1. **Plan** ([`Device::plan_vault_stage`]): a pure pass replays
//!    the sequential head-of-line decision sequence against virtual
//!    bank/queue state, fixing exactly which requests retire this
//!    cycle. Anything order-sensitive (fault RNG draws, mode/CMC
//!    commands, cross-vault overlapping footprints) aborts the plan
//!    and the cycle runs on the sequential reference path instead.
//! 2. **Compute**: the planned [`VaultWork`] units execute on a fixed
//!    worker pool. Each lane runs the same single execution core the
//!    sequential path uses ([`execute_data_request`]), against the
//!    shared sparse store (interior-mutable, sharded locks), building
//!    each response in place in the envelope the take stage paired
//!    with its request, and records stat/power deltas and trace
//!    events into shard-local accumulators — no shared counters, no
//!    atomics.
//! 3. **Commit** ([`Device::commit_parallel_vaults`]): the
//!    coordinating thread folds every lane's buffered effects back in
//!    fixed device/vault order. Because merge operands are additive
//!    and the application order is fixed, the committed state is
//!    bit-identical to the sequential path for every thread count —
//!    the property `tests/parallel_determinism.rs` checks
//!    fingerprint-by-fingerprint.
//!
//! The pool itself is plain `std::thread` + mpsc channels (the crate
//! forbids `unsafe`): lane 0 is the coordinating thread, lanes 1..n
//! are persistent named workers that receive whole batches and send
//! back results. Determinism never depends on scheduling — results
//! are re-sorted by `(device, vault)` before commit.

use crate::config::SpecRevision;
use crate::device::{execute_data_request, Device, EnvelopePool, VaultWork, WorkItem};
use crate::power::PowerModel;
use crate::stats::DeviceStats;
use crate::trace::{EventBuffer, TraceKind, TraceLane, TraceLevel, TraceRecord, Tracer};
use hmc_mem::SparseMemory;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

/// One vault's worth of planned work, packaged with everything a
/// worker lane needs to execute it without touching the device.
#[derive(Debug)]
pub(crate) struct WorkUnit {
    pub(crate) dev: usize,
    pub(crate) vault: usize,
    pub(crate) revision: SpecRevision,
    pub(crate) cycle: u64,
    /// Whether trace events must be captured for replay (tracing or
    /// the forensic ring is active).
    pub(crate) capture: bool,
    pub(crate) mem: Arc<SparseMemory>,
    pub(crate) items: Vec<WorkItem>,
}

/// Everything a lane produced for one vault, buffered for ordered
/// commit on the coordinating thread.
#[derive(Debug)]
pub(crate) struct VaultResult {
    pub(crate) dev: usize,
    pub(crate) vault: usize,
    /// The unit's items, in queue order, each response envelope
    /// filled where `responded` is set.
    pub(crate) items: Vec<WorkItem>,
    /// Shard-local stat delta (kind counters, error responses).
    pub(crate) stats: DeviceStats,
    /// Shard-local power delta (logic ops).
    pub(crate) power: PowerModel,
    /// Deferred trace records, in execution order.
    pub(crate) events: Vec<TraceRecord>,
}

/// Executes one unit on the calling thread. This is the entire
/// compute phase for a vault: the same core as the sequential path,
/// writing into lane-local accumulators.
fn execute_unit(mut unit: WorkUnit) -> VaultResult {
    let mut stats = DeviceStats::default();
    let mut power = PowerModel::default();
    let mut buffer = EventBuffer::new(unit.capture);
    for item in &mut unit.items {
        let mut lane = TraceLane::Deferred(&mut buffer);
        item.responded = execute_data_request(
            unit.dev,
            unit.revision,
            &item.rqst,
            &item.loc,
            &unit.mem,
            &mut stats,
            &mut power,
            unit.cycle,
            &mut lane,
            &mut item.rsp,
        );
    }
    VaultResult {
        dev: unit.dev,
        vault: unit.vault,
        items: unit.items,
        stats,
        power,
        events: buffer.into_records(),
    }
}

struct Worker {
    tx: mpsc::Sender<Vec<WorkUnit>>,
    rx: mpsc::Receiver<Vec<VaultResult>>,
    handle: Option<JoinHandle<()>>,
}

/// A fixed pool of persistent compute lanes. Lane 0 is the calling
/// thread; lanes `1..threads` are OS threads that live for the pool's
/// lifetime, so per-cycle dispatch costs two channel sends per busy
/// lane and no thread spawns.
pub(crate) struct WorkerPool {
    lanes: usize,
    workers: Vec<Worker>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("lanes", &self.lanes).finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` total lanes (minimum 1; lane 0
    /// is the caller).
    pub(crate) fn new(threads: usize) -> Self {
        let lanes = threads.max(1);
        let workers = (1..lanes)
            .map(|i| {
                let (tx, work_rx) = mpsc::channel::<Vec<WorkUnit>>();
                let (result_tx, rx) = mpsc::channel::<Vec<VaultResult>>();
                let handle = std::thread::Builder::new()
                    .name(format!("hmcsim-vault-{i}"))
                    .spawn(move || {
                        while let Ok(batch) = work_rx.recv() {
                            let results: Vec<VaultResult> =
                                batch.into_iter().map(execute_unit).collect();
                            if result_tx.send(results).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn vault worker");
                Worker { tx, rx, handle: Some(handle) }
            })
            .collect();
        WorkerPool { lanes, workers }
    }

    /// Total lanes, including the coordinating thread.
    #[cfg(test)]
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// Runs a batch of units across the lanes and returns the results
    /// sorted by `(device, vault)` — the order the commit phase
    /// consumes them in, independent of thread scheduling.
    pub(crate) fn run(&mut self, units: Vec<WorkUnit>) -> Vec<VaultResult> {
        let mut results: Vec<VaultResult>;
        if self.workers.is_empty() || units.len() <= 1 {
            results = units.into_iter().map(execute_unit).collect();
        } else {
            // Round-robin units across lanes; lane 0 (this thread)
            // executes its own share while the workers run theirs.
            let mut batches: Vec<Vec<WorkUnit>> = (0..self.lanes).map(|_| Vec::new()).collect();
            for (i, unit) in units.into_iter().enumerate() {
                batches[i % self.lanes].push(unit);
            }
            let mut own = Vec::new();
            std::mem::swap(&mut own, &mut batches[0]);
            let mut busy = Vec::new();
            for (w, batch) in self.workers.iter().zip(batches.into_iter().skip(1)) {
                if batch.is_empty() {
                    continue;
                }
                w.tx.send(batch).expect("worker alive");
                busy.push(w);
            }
            results = own.into_iter().map(execute_unit).collect();
            for w in busy {
                results.extend(w.rx.recv().expect("worker alive"));
            }
        }
        results.sort_by_key(|r| (r.dev, r.vault));
        results
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for w in &mut self.workers {
            // Replacing the sender with a dead channel drops the
            // original, ending the worker's recv loop.
            w.tx = mpsc::channel().0;
        }
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Runs stage 3 for every device through the pool. Devices whose plan
/// aborts (fault injection armed, mode/CMC traffic, conflicting
/// footprints) run the sequential `execute_vaults` at their device
/// position, preserving the global commit order. Returns the absorbed
/// tally per device, in device order.
pub(crate) fn execute_vaults_parallel(
    devices: &mut [Device],
    pool: &mut WorkerPool,
    cycle: u64,
    tracer: &mut Tracer,
    envelopes: &mut EnvelopePool,
) -> Vec<u64> {
    let capture = tracer.captures(TraceLevel::CMD);
    let plans: Vec<_> = devices.iter().map(|d| d.plan_vault_stage(cycle)).collect();
    let mut units = Vec::new();
    for (dev, plan) in devices.iter_mut().zip(&plans) {
        let Some(plan) = plan else { continue };
        let revision = dev.config().revision;
        let id = dev.id();
        let mem = dev.mem_arc();
        for VaultWork { vault, items } in dev.take_parallel_work(cycle, plan, envelopes) {
            if items.is_empty() {
                continue;
            }
            units.push(WorkUnit {
                dev: id,
                vault,
                revision,
                cycle,
                capture,
                mem: Arc::clone(&mem),
                items,
            });
        }
    }
    let mut results = pool.run(units).into_iter().peekable();
    let mut absorbed = Vec::with_capacity(devices.len());
    // Engine-phase spans are pure observation: they depend only on
    // the per-device plan (never on thread count or scheduling), so
    // the structured stream stays byte-identical across pool widths.
    let engine = tracer.captures(TraceLevel::ENGINE);
    for (idx, dev) in devices.iter_mut().enumerate() {
        match &plans[idx] {
            None => {
                if engine && dev.pending_work() > 0 {
                    tracer.emit(TraceRecord {
                        dev: dev.id() as u16,
                        ..TraceRecord::new(cycle, TraceKind::SerialFallback)
                    });
                }
                absorbed.push(dev.execute_vaults(cycle, tracer, envelopes));
            }
            Some(plan) => {
                let mut own = Vec::new();
                while results.peek().is_some_and(|r| r.dev == dev.id()) {
                    own.push(results.next().expect("peeked"));
                }
                let committed = own.len() as u64;
                let items: u64 = plan.iter().map(|p| p.take as u64).sum();
                if engine && items > 0 {
                    let vaults = plan.iter().filter(|p| p.take > 0).count() as u64;
                    tracer.emit(TraceRecord {
                        dev: dev.id() as u16,
                        a: vaults,
                        b: items,
                        ..TraceRecord::new(cycle, TraceKind::PlanStage)
                    });
                }
                absorbed.push(dev.commit_parallel_vaults(cycle, plan, own, tracer, envelopes));
                if engine && items > 0 {
                    tracer.emit(TraceRecord {
                        dev: dev.id() as u16,
                        a: committed,
                        ..TraceRecord::new(cycle, TraceKind::CommitStage)
                    });
                }
            }
        }
    }
    absorbed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_survives_empty_and_unbalanced_batches() {
        let mut pool = WorkerPool::new(4);
        assert_eq!(pool.lanes(), 4);
        assert!(pool.run(Vec::new()).is_empty());
        // Dropping the pool joins the workers without deadlock.
        drop(pool);
    }

    #[test]
    fn single_lane_pool_runs_inline() {
        let mut pool = WorkerPool::new(1);
        assert_eq!(pool.lanes(), 1);
        assert!(pool.run(Vec::new()).is_empty());
    }
}
