//! The repo's host-time benchmark: four named workloads, end-to-end
//! metrics with regression bounds, and a per-layer span profile taken
//! from outside the simulator. See `README.md` for the method and
//! `../BENCHMARK.json` for the published contract.

pub mod gups_mesh16;
pub mod looped;
pub mod metrics;
pub mod micro;
pub mod mutex_sweep;
pub mod replay_audit;
pub mod single;
pub mod spans;
pub mod stream_sat;
pub mod suite;
pub mod util;

/// What one run of one workload is asked to do.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Reaches the benchmark's input generator only.
    pub seed: u64,
    /// How long the timed region lasts (it ends with the round in
    /// which this is reached).
    pub seconds: f64,
    /// Multiplies every workload size; 1.0 is the published benchmark.
    pub scale: f64,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
}
