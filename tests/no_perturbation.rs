//! The paper's "No Simulation Perturbation" requirement (§IV-A) as a
//! regression test: every optional extension this repository adds
//! (link protocol, DRAM timing, refresh, quad affinity, arbitration,
//! revision gate) is inert at its default, so the evaluation numbers
//! are pinned. If a change moves these values, it perturbed the
//! baseline model and must be gated behind configuration instead.

use hmcsim::cmc::ops;
use hmcsim::prelude::*;
use hmcsim::workloads::{MutexKernel, MutexKernelConfig};

fn metrics(threads: usize) -> hmcsim::workloads::RunMetrics {
    ops::register_builtin_libraries();
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();
    MutexKernel::new(MutexKernelConfig { threads, ..Default::default() })
        .run(&mut sim)
        .unwrap()
        .metrics
}

#[test]
fn pinned_mutex_results_at_sixteen_threads() {
    let m = metrics(16);
    assert_eq!(m.min_cycle(), 19);
    assert_eq!(m.max_cycle(), 49);
    assert!((m.avg_cycle() - 40.56).abs() < 0.3, "avg {:.2}", m.avg_cycle());
}

#[test]
fn pinned_uncontended_round_trip() {
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    let tag = sim.send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![]).unwrap().unwrap();
    assert_eq!(sim.run_until_response(0, 0, tag, 100).unwrap().latency, 3);
}

#[test]
fn pinned_two_thread_algorithm_floor() {
    let m = metrics(2);
    assert_eq!(m.min_cycle(), 6, "the paper's Table VI anchor");
}

#[test]
fn sanitizer_report_mode_is_zero_perturbation() {
    // The sanitizer only observes: a run under `Report` must be
    // bit-identical to an unsanitized run — same pinned metrics, same
    // cycle count, same full device-state fingerprint.
    ops::register_builtin_libraries();
    let run = |sanitize: bool| {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        if sanitize {
            sim.enable_sanitizer(SanitizerConfig::report());
        }
        sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();
        let m = MutexKernel::new(MutexKernelConfig { threads: 16, ..Default::default() })
            .run(&mut sim)
            .unwrap()
            .metrics;
        let violations = sim.sanitizer_report().map(|r| r.total_violations);
        (m.min_cycle(), m.max_cycle(), m.avg_cycle(), sim.cycle(), sim.state_fingerprint(), violations)
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off.0, on.0, "min latency unchanged");
    assert_eq!(off.1, on.1, "max latency unchanged");
    assert_eq!(off.2, on.2, "avg latency unchanged");
    assert_eq!(off.3, on.3, "cycle count unchanged");
    assert_eq!(off.4, on.4, "device state bit-identical under the sanitizer");
    assert_eq!(off.5, None);
    assert_eq!(on.5, Some(0), "and the audited run is invariant-clean");
}

#[test]
fn telemetry_full_mode_is_zero_perturbation() {
    // Telemetry is a pure observer, even in full span + time-series
    // mode: a run with it enabled must be bit-identical to a bare
    // run — same pinned metrics, same cycle count, same full
    // device-state fingerprint.
    ops::register_builtin_libraries();
    let run = |telemetry: bool| {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        if telemetry {
            sim.enable_telemetry(TelemetryConfig::full());
        }
        sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();
        let m = MutexKernel::new(MutexKernelConfig { threads: 16, ..Default::default() })
            .run(&mut sim)
            .unwrap()
            .metrics;
        (m.min_cycle(), m.max_cycle(), m.avg_cycle(), sim.cycle(), sim.state_fingerprint())
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off, on, "device state bit-identical under full telemetry");
}

/// A context on the stock part that records `mode`.
fn recording(mode: ExecMode) -> HmcSim {
    let mut config = hmcsim::sim::SimConfig::single(DeviceConfig::gen2_4link_4gb());
    config.exec_mode = mode;
    HmcSim::with_config(config).unwrap()
}

/// `ExecMode` is a record the engine never reads: the mutex evaluation
/// (CMC traffic) and a pure data-path Triad run configured
/// `Parallel { threads: 2 }` (what `perf/` records) reproduce the
/// sequential pinned numbers and fingerprints.
#[test]
fn parallel_mode_is_zero_perturbation() {
    use hmcsim::workloads::kernels::triad::{TriadConfig, TriadKernel};
    ops::register_builtin_libraries();
    let mutex_run = |mode: ExecMode| {
        let mut sim = recording(mode);
        sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();
        let m = MutexKernel::new(MutexKernelConfig { threads: 16, ..Default::default() })
            .run(&mut sim)
            .unwrap()
            .metrics;
        (m.min_cycle(), m.max_cycle(), m.avg_cycle(), sim.cycle(), sim.state_fingerprint())
    };
    let triad_run = |mode: ExecMode| {
        let mut sim = recording(mode);
        let out = TriadKernel::new(TriadConfig { elements: 1024, ..Default::default() })
            .run(&mut sim)
            .unwrap();
        (out.cycles, sim.cycle(), sim.state_fingerprint())
    };
    let mutex_ref = mutex_run(ExecMode::Sequential);
    assert_eq!(mutex_ref.0, 19, "pinned mutex minimum");
    assert_eq!(mutex_ref.1, 49, "pinned mutex maximum");
    let triad_ref = triad_run(ExecMode::Sequential);
    let recorded = ExecMode::Parallel { threads: 2 };
    assert_eq!(mutex_run(recorded), mutex_ref, "mutex diverged");
    assert_eq!(triad_run(recorded), triad_ref, "triad diverged");
}

/// The event-horizon engine is a zero-perturbation feature: the
/// pinned mutex evaluation and a pure data-path Triad run must
/// reproduce the full-execution numbers and fingerprints with idle
/// skipping enabled.
#[test]
fn skip_mode_is_zero_perturbation() {
    use hmcsim::workloads::kernels::triad::{TriadConfig, TriadKernel};
    ops::register_builtin_libraries();
    let mutex_run = |skip: SkipMode| {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        sim.set_skip_mode(skip);
        sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();
        let m = MutexKernel::new(MutexKernelConfig { threads: 16, ..Default::default() })
            .run(&mut sim)
            .unwrap()
            .metrics;
        let stats = sim.stats(0).unwrap().clone();
        (m.min_cycle(), m.max_cycle(), m.avg_cycle(), sim.cycle(), sim.state_fingerprint(), stats)
    };
    let triad_run = |skip: SkipMode| {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        sim.set_skip_mode(skip);
        let out = TriadKernel::new(TriadConfig { elements: 1024, ..Default::default() })
            .run(&mut sim)
            .unwrap();
        (out.cycles, sim.cycle(), sim.state_fingerprint())
    };
    let mutex_ref = mutex_run(SkipMode::Off);
    assert_eq!(mutex_ref.0, 19, "pinned mutex minimum");
    assert_eq!(mutex_ref.1, 49, "pinned mutex maximum");
    let mutex = mutex_run(SkipMode::On);
    assert_eq!(mutex, mutex_ref, "mutex diverged with skipping");
    assert_eq!(mutex.5.latency, mutex_ref.5.latency, "latency histogram diverged with skipping");
    assert_eq!(triad_run(SkipMode::On), triad_run(SkipMode::Off), "triad diverged with skipping");
}

/// The flight recorder is a pure observer: attaching it must leave
/// the pinned mutex evaluation bit-identical — same metrics, same
/// cycle count, same device-state fingerprint — with skipping off
/// and on, while still retaining a non-empty structured timeline.
#[test]
fn flight_recorder_is_zero_perturbation() {
    ops::register_builtin_libraries();
    let run = |skip: SkipMode, record: bool| {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        sim.set_skip_mode(skip);
        if record {
            sim.enable_flight_recorder(1024);
        }
        sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();
        let m = MutexKernel::new(MutexKernelConfig { threads: 16, ..Default::default() })
            .run(&mut sim)
            .unwrap()
            .metrics;
        let retained = sim.flight_snapshot().map(|snap| snap.len());
        (m.min_cycle(), m.max_cycle(), m.avg_cycle(), sim.cycle(), sim.state_fingerprint(), retained)
    };
    for skip in [SkipMode::Off, SkipMode::On] {
        let off = run(skip, false);
        let on = run(skip, true);
        assert_eq!(off.0, on.0, "min latency unchanged: {skip:?}");
        assert_eq!(off.1, on.1, "max latency unchanged: {skip:?}");
        assert_eq!(off.2, on.2, "avg latency unchanged: {skip:?}");
        assert_eq!(off.3, on.3, "cycle count unchanged: {skip:?}");
        assert_eq!(off.4, on.4, "device state bit-identical: {skip:?}");
        assert_eq!(off.5, None);
        assert!(on.5.unwrap() > 0, "recorder retained a timeline: {skip:?}");
    }
}

/// The timing-model seam is itself zero-perturbation: on the stock
/// configuration (flat `bank_latency`, row knobs zero, refresh off)
/// both backends collapse to the paper's model, so swapping them
/// must leave the pinned mutex evaluation bit-identical. The backends
/// are only allowed to differ once row timing or refresh is
/// configured — see `tests/timing_determinism.rs` for that matrix.
#[test]
fn timing_backends_are_inert_on_the_default_config() {
    ops::register_builtin_libraries();
    let run = |timing: TimingSelect| {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        sim.set_timing_model(timing);
        sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();
        let m = MutexKernel::new(MutexKernelConfig { threads: 16, ..Default::default() })
            .run(&mut sim)
            .unwrap()
            .metrics;
        (m.min_cycle(), m.max_cycle(), m.avg_cycle(), sim.cycle(), sim.state_fingerprint())
    };
    let fixed = run(TimingSelect::FixedLatency);
    assert_eq!(fixed.0, 19, "pinned mutex minimum");
    assert_eq!(fixed.1, 49, "pinned mutex maximum");
    assert_eq!(run(TimingSelect::RowBuffer), fixed, "row_buffer perturbed the stock model");
}

/// Sanitizer report mode stays zero-perturbation on a context that
/// records `Parallel` and skips idle cycles: same fingerprint as the
/// unsanitized run, and the packet-conservation audit stays clean.
#[test]
fn sanitizer_under_parallel_engine_is_zero_perturbation() {
    ops::register_builtin_libraries();
    let run = |sanitize: bool| {
        let mut sim = recording(ExecMode::Parallel { threads: 2 });
        sim.set_skip_mode(SkipMode::On);
        sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();
        if sanitize {
            sim.enable_sanitizer(SanitizerConfig::report());
        }
        let m = MutexKernel::new(MutexKernelConfig { threads: 16, ..Default::default() })
            .run(&mut sim)
            .unwrap()
            .metrics;
        let violations = sim.sanitizer_report().map(|r| r.total_violations);
        (m.min_cycle(), m.max_cycle(), m.avg_cycle(), sim.cycle(), sim.state_fingerprint(), violations)
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off.4, on.4, "state bit-identical under the sanitizer");
    assert_eq!((off.0, off.1, off.2, off.3), (on.0, on.1, on.2, on.3));
    assert_eq!(off.5, None);
    assert_eq!(on.5, Some(0), "conservation audit clean");
}
