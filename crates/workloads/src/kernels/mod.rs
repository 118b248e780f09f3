//! Workload kernels.
//!
//! * [`mutex`] — the paper's CMC mutex kernel (Algorithm 1).
//! * [`rwlock`] — readers/writers over the CMC rwlock suite.
//! * [`counter`] — shared-counter increments: HMC `INC8` vs the
//!   cache-based read-modify-write baseline (Table II's workload).
//! * [`triad`] — STREAM Triad (prior-work kernel \[11\]).
//! * [`gups`] — HPCC RandomAccess / GUPS (prior-work kernel \[12\]),
//!   on one cube or injected at every cube of a fabric.
//! * [`bfs`] — BFS check-and-update with CAS offload (related work
//!   \[10\]), its level array sharded across a fabric's cubes.
//! * [`barrier`] — centralized sense-reversing barrier over `CASEQ8`.
//! * [`histogram`] — posted vs acked vs RMW increments.
//! * [`pchase`] — dependent-load pointer chasing (latency probe).

pub mod barrier;
pub mod bfs;
pub mod counter;
pub mod gups;
pub mod histogram;
pub mod mutex;
pub mod pchase;
pub mod rwlock;
pub mod triad;
