//! Shared workloads for the idle-skip (event-horizon) benchmarks.
//!
//! Three shapes, chosen to bracket the skip engine's envelope:
//!
//! * mutex spin — the 100-thread `UntilOwned` CMC mutex. Contention
//!   forces long truncated-exponential backoff windows in which every
//!   host thread is parked and the fabric is drained — the driver +
//!   event-horizon engine should compress nearly the whole run.
//! * sparse GUPS — RandomAccess updates separated by a long host
//!   "think time". Each update is a short busy burst followed by
//!   thousands of compressible idle cycles.
//! * saturated Triad — the stage-3-saturating STREAM Triad. The
//!   device is busy every single cycle, so skipping can never engage;
//!   this is the regression control for the fast-path check the skip
//!   engine adds to `clock()`.
//!
//! Each workload is split into a `*_sim` constructor and a `*_run`
//! body so the measurement harness can keep device construction
//! (memory arena, vault state — milliseconds of allocator work that
//! is identical under both skip settings) outside the timed region.
//! Every run returns `(simulated cycles, state fingerprint)` so callers
//! can gate speedup numbers on bit-identical final state.

use hmc_sim::{DeviceConfig, HmcSim, SkipMode};
use hmc_types::HmcRqst;
use hmc_workloads::kernels::gups::HpccStream;
use hmc_workloads::kernels::triad::{TriadConfig, TriadKernel};
use hmc_workloads::{MutexKernel, MutexKernelConfig, SpinPolicy};

/// Device for the mutex-spin workload, CMC mutex library loaded.
pub fn mutex_spin_sim(skip: SkipMode) -> HmcSim {
    hmc_cmc::ops::register_builtin_libraries();
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).expect("valid config");
    sim.set_skip_mode(skip);
    sim.load_cmc_library(0, hmc_cmc::ops::MUTEX_LIBRARY).expect("mutex library loads");
    sim
}

/// The 100-thread literal-semantics mutex spin. The backoff window
/// is widened to the aggressive setting a 100-way hotspot calls for
/// (a tight 256-cycle cap would keep re-saturating the hot vault);
/// the wide windows also mean most of the run is spent with every
/// thread parked — exactly what the event-horizon engine compresses.
pub fn mutex_spin_run(sim: &mut HmcSim) -> (u64, u64) {
    let result = MutexKernel::new(MutexKernelConfig {
        threads: 100,
        spin: SpinPolicy::UntilOwned { initial_backoff: 1_024, max_backoff: 65_536 },
        ..Default::default()
    })
    .run(sim)
    .expect("mutex kernel runs");
    assert_eq!(result.metrics.unfinished, 0, "every thread must finish");
    (sim.cycle(), sim.state_fingerprint())
}

/// Device for the sparse-GUPS workload.
pub fn gups_sparse_sim(skip: SkipMode) -> HmcSim {
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).expect("valid config");
    sim.set_skip_mode(skip);
    sim
}

/// Sparse RandomAccess: one XOR16 update, then `think` idle cycles.
pub fn gups_sparse_run(sim: &mut HmcSim, updates: usize, think: u64) -> (u64, u64) {
    let mask = (1u64 << 12) - 1;
    let base = 0x0400_0000u64;
    let mut stream = HpccStream::new(0x1234_5678_9ABC_DEF0);
    for _ in 0..updates {
        let v = stream.next().expect("infinite stream");
        let addr = base + (v & mask) * 16;
        let tag = sim
            .send_simple(0, 0, HmcRqst::Xor16, addr, vec![v, 0])
            .expect("send accepted")
            .expect("XOR16 is tagged");
        sim.run_until_response(0, 0, tag, 1_000).expect("update completes");
        sim.clock_n(think);
    }
    (sim.cycle(), sim.state_fingerprint())
}

/// The wide-link, wide-vault device the saturating Triad targets.
pub fn triad_saturated_sim(skip: SkipMode) -> HmcSim {
    let mut config = DeviceConfig::gen2_4link_4gb();
    config.link_bandwidth = 8;
    config.vault_bandwidth = 4;
    let mut sim = HmcSim::new(config).expect("valid config");
    sim.set_skip_mode(skip);
    sim
}

/// The saturating Triad (never idle: the skip control). Narrow
/// 16-byte chunks multiply the request count so the busy region runs
/// for thousands of cycles — long enough to resolve a small per-cycle
/// overhead against timer noise.
pub fn triad_saturated_run(sim: &mut HmcSim) -> (u64, u64) {
    let result = TriadKernel::new(TriadConfig {
        elements: 65_536,
        chunk_bytes: 16,
        window: 256,
        ..Default::default()
    })
    .run(sim)
    .expect("triad runs");
    assert_eq!(result.errors, 0, "triad verification");
    (sim.cycle(), sim.state_fingerprint())
}

/// Construction + run in one call (Criterion's whole-run timing).
pub fn mutex_spin_cycles(skip: SkipMode) -> (u64, u64) {
    mutex_spin_run(&mut mutex_spin_sim(skip))
}

/// Construction + run in one call (Criterion's whole-run timing).
pub fn gups_sparse_cycles(skip: SkipMode, updates: usize, think: u64) -> (u64, u64) {
    gups_sparse_run(&mut gups_sparse_sim(skip), updates, think)
}

/// Construction + run in one call (Criterion's whole-run timing).
pub fn triad_saturated_cycles(skip: SkipMode) -> (u64, u64) {
    triad_saturated_run(&mut triad_saturated_sim(skip))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_is_fingerprint_stable_under_skip() {
        let sparse_off = gups_sparse_cycles(SkipMode::Off, 16, 500);
        let sparse_on = gups_sparse_cycles(SkipMode::On, 16, 500);
        assert_eq!(sparse_off, sparse_on, "sparse GUPS diverged");
        let mutex_off = mutex_spin_cycles(SkipMode::Off);
        let mutex_on = mutex_spin_cycles(SkipMode::On);
        assert_eq!(mutex_off, mutex_on, "mutex spin diverged");
    }
}
