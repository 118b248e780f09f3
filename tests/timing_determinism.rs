//! Cross-backend timing determinism matrix.
//!
//! Every timing backend must uphold the engine determinism contracts
//! that `tests/no_perturbation.rs` pins for the default model: for a
//! fixed backend selection, full execution and idle-cycle skipping
//! produce bit-identical cycle counts, device-state fingerprints and
//! stats. The backends are allowed to differ *from each other* (that
//! is the point of swappable timing); they are never allowed to differ
//! from themselves across engine configurations.
//!
//! Backend selection is always made with an explicit
//! `set_timing_model` call, so this suite keeps its meaning even when
//! CI drives the rest of the test suite through `HMCSIM_TIMING`.

use hmcsim::cmc::ops;
use hmcsim::prelude::*;
use hmcsim::sim::{RefreshConfig, RowPolicy};
use hmcsim::workloads::kernels::triad::{TriadConfig, TriadKernel};
use hmcsim::workloads::{MutexKernel, MutexKernelConfig};

const BACKENDS: [TimingSelect; 2] = [TimingSelect::FixedLatency, TimingSelect::RowBuffer];

/// A configuration where every backend has something to do: live
/// row-buffer knobs and a staggered refresh plan. (Fault injection is
/// deliberately absent — poison and vault ERRSTATs hand the evaluation
/// kernels error payloads they do not retry. The faults × timing
/// pairing is anchored by `corpus/seed-07-*.json`, which replays the
/// row-buffer backend under poison and vault errors through the
/// fault-tolerant raw-ops differential runner.)
fn row_heavy_config() -> DeviceConfig {
    let mut d = DeviceConfig::gen2_4link_4gb();
    d.bank_latency = 2;
    d.bank_timing.policy = RowPolicy::OpenPage;
    d.bank_timing.row_hit = 1;
    d.bank_timing.row_miss = 6;
    d.refresh = Some(RefreshConfig { interval: 96, duration: 4 });
    d
}

type Observation = (u64, u64, u64, hmcsim::sim::DeviceStats);

/// Pure data path: saturating traffic plus the event-horizon clamp.
fn triad_obs(config: &DeviceConfig, timing: TimingSelect, skip: SkipMode) -> Observation {
    let mut sim = HmcSim::new(config.clone()).unwrap();
    sim.set_skip_mode(skip);
    sim.set_timing_model(timing);
    let out = TriadKernel::new(TriadConfig { elements: 512, ..Default::default() })
        .run(&mut sim)
        .unwrap();
    (out.cycles, sim.cycle(), sim.state_fingerprint(), sim.stats(0).unwrap().clone())
}

/// CMC traffic: sparse, contended, through the CMC registry.
fn mutex_obs(config: &DeviceConfig, timing: TimingSelect, skip: SkipMode) -> Observation {
    ops::register_builtin_libraries();
    let mut sim = HmcSim::new(config.clone()).unwrap();
    sim.set_skip_mode(skip);
    sim.set_timing_model(timing);
    sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();
    let m = MutexKernel::new(MutexKernelConfig { threads: 8, ..Default::default() })
        .run(&mut sim)
        .unwrap()
        .metrics;
    (m.max_cycle(), sim.cycle(), sim.state_fingerprint(), sim.stats(0).unwrap().clone())
}

/// The full differential matrix: backend × skip, on both the default
/// device and the row-heavy one. Every cell must match its backend's
/// no-skip reference bit for bit — cycles, fingerprint, and the whole
/// stats block (latency histogram included).
#[test]
fn every_backend_is_bit_identical_across_the_engine_matrix() {
    for config in [DeviceConfig::gen2_4link_4gb(), row_heavy_config()] {
        for timing in BACKENDS {
            assert_eq!(
                triad_obs(&config, timing, SkipMode::On),
                triad_obs(&config, timing, SkipMode::Off),
                "triad diverged: {timing:?}"
            );
            assert_eq!(
                mutex_obs(&config, timing, SkipMode::On),
                mutex_obs(&config, timing, SkipMode::Off),
                "mutex diverged: {timing:?}"
            );
        }
    }
}

/// The fixed-latency backend IS the pre-trait engine: selecting it
/// explicitly must reproduce the `tests/no_perturbation.rs` pins
/// exactly (mutex Table VI anchors and the uncontended round-trip).
#[test]
fn fixed_latency_reproduces_the_pre_refactor_pins() {
    ops::register_builtin_libraries();
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    sim.set_timing_model(TimingSelect::FixedLatency);
    sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();
    let m = MutexKernel::new(MutexKernelConfig { threads: 16, ..Default::default() })
        .run(&mut sim)
        .unwrap()
        .metrics;
    assert_eq!(m.min_cycle(), 19, "pinned mutex minimum");
    assert_eq!(m.max_cycle(), 49, "pinned mutex maximum");
    assert!((m.avg_cycle() - 40.56).abs() < 0.3, "avg {:.2}", m.avg_cycle());

    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    sim.set_timing_model(TimingSelect::FixedLatency);
    let tag = sim.send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![]).unwrap().unwrap();
    assert_eq!(sim.run_until_response(0, 0, tag, 100).unwrap().latency, 3);
}

/// On the stock configuration every row knob is zero and refresh is
/// off, so both backends collapse to the same model: equivalent
/// by construction, proven bit-identical.
#[test]
fn backends_agree_exactly_on_the_default_config() {
    let config = DeviceConfig::gen2_4link_4gb();
    let reference = triad_obs(&config, TimingSelect::FixedLatency, SkipMode::Off);
    let got = triad_obs(&config, TimingSelect::RowBuffer, SkipMode::Off);
    assert_eq!(
        (got.0, got.1, got.2),
        (reference.0, reference.1, reference.2),
        "default-config run diverged under row_buffer"
    );
}

/// The row-buffer backend must actually be live when its knobs are —
/// otherwise the matrix equality above would be vacuous.
#[test]
fn row_buffer_departs_from_fixed_when_row_knobs_are_live() {
    let config = row_heavy_config();
    let fixed = triad_obs(&config, TimingSelect::FixedLatency, SkipMode::Off);
    let row = triad_obs(&config, TimingSelect::RowBuffer, SkipMode::Off);
    assert_ne!(
        (fixed.0, fixed.2),
        (row.0, row.2),
        "row-buffer backend had no observable effect on a row-heavy config"
    );
}
