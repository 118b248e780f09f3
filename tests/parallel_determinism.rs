//! Differential determinism harness for the parallel tick engine.
//!
//! The contract under test: for any workload, any device
//! configuration and any thread count, a simulation run in
//! `ExecMode::Parallel` produces **bit-identical** state to the
//! sequential reference path — checked cycle by cycle through the
//! full device-state fingerprint (queues, banks, memory digest,
//! stats, power, RNG state), not just at the end of the run.
//!
//! Both sims are driven in lockstep: the same injection attempt on
//! the same cycle, the same host-side drains. Because the fingerprint
//! is compared after every cycle, the first divergent cycle is
//! reported directly.

use hmcsim::prelude::*;
use hmcsim::sim::{FaultPlan, SimConfig};
use proptest::prelude::*;

/// One host action per simulated cycle.
#[derive(Debug, Clone)]
enum Op {
    Read { slot: u16 },
    Write { slot: u16, value: u64 },
    PostedWrite { slot: u16, value: u64 },
    Atomic { slot: u16, value: u64 },
    PostedAtomic { slot: u16 },
    Idle,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let slot = 0u16..2048;
    prop_oneof![
        slot.clone().prop_map(|slot| Op::Read { slot }),
        (slot.clone(), any::<u64>()).prop_map(|(slot, value)| Op::Write { slot, value }),
        (slot.clone(), any::<u64>()).prop_map(|(slot, value)| Op::PostedWrite { slot, value }),
        (slot.clone(), any::<u64>()).prop_map(|(slot, value)| Op::Atomic { slot, value }),
        slot.prop_map(|slot| Op::PostedAtomic { slot }),
        Just(Op::Idle),
    ]
}

fn slot_addr(slot: u16) -> u64 {
    (slot as u64) * 16
}

/// Injects one op (ignoring deterministic back-pressure failures),
/// clocks one cycle, drains every host link, and records the
/// post-cycle fingerprint.
fn drive(sim: &mut HmcSim, ops: &[Op], drain_cycles: u64) -> Vec<u64> {
    let links = sim.device_config(0).unwrap().links;
    let mut fingerprints = Vec::with_capacity(ops.len() + drain_cycles as usize);
    let mut step = |sim: &mut HmcSim, op: Option<(&Op, usize)>| {
        if let Some((op, link)) = op {
            let sent = match *op {
                Op::Read { slot } => {
                    sim.send_simple(0, link, HmcRqst::Rd16, slot_addr(slot), vec![])
                }
                Op::Write { slot, value } => {
                    sim.send_simple(0, link, HmcRqst::Wr16, slot_addr(slot), vec![value, !value])
                }
                Op::PostedWrite { slot, value } => {
                    sim.send_simple(0, link, HmcRqst::PWr16, slot_addr(slot), vec![value, value])
                }
                Op::Atomic { slot, value } => {
                    sim.send_simple(0, link, HmcRqst::Xor16, slot_addr(slot), vec![value, 0])
                }
                Op::PostedAtomic { slot } => {
                    sim.send_simple(0, link, HmcRqst::P2Add8, slot_addr(slot), vec![1, 1])
                }
                Op::Idle => Ok(None),
            };
            // Back-pressure (stalls, exhausted tags) is part of the
            // deterministic behaviour under test; only real protocol
            // errors would indicate a broken driver.
            match sent {
                Ok(_) | Err(HmcError::Stall) | Err(HmcError::TagsExhausted) => {}
                Err(e) => panic!("unexpected send error: {e}"),
            }
        }
        sim.clock();
        fingerprints.push(sim.state_fingerprint());
        for l in 0..links {
            while sim.recv(0, l).is_some() {}
        }
    };
    for (i, op) in ops.iter().enumerate() {
        step(sim, Some((op, i % links)));
    }
    for _ in 0..drain_cycles {
        step(sim, None);
    }
    fingerprints
}

/// Builds a sim pinned to an explicit execution mode.
fn sim_with_mode(config: DeviceConfig, mode: ExecMode) -> HmcSim {
    let mut sim = HmcSim::new(config).unwrap();
    sim.set_exec_mode(mode);
    sim
}

/// Like [`drive`], but with a bulk idle gap after every op — the
/// shape that exercises the event-horizon engine's multi-cycle skips
/// (per-cycle `clock()` only ever compresses one cycle at a time).
/// Returns the fingerprint trace plus the final device stats, so
/// callers can also assert the latency histograms are untouched.
fn drive_bursty(
    sim: &mut HmcSim,
    ops: &[Op],
    gap: u64,
    drain_cycles: u64,
) -> (Vec<u64>, hmcsim::sim::DeviceStats) {
    let links = sim.device_config(0).unwrap().links;
    let mut fingerprints = Vec::with_capacity(ops.len() + 1);
    for (i, op) in ops.iter().enumerate() {
        let link = i % links;
        let sent = match *op {
            Op::Read { slot } => {
                sim.send_simple(0, link, HmcRqst::Rd16, slot_addr(slot), vec![])
            }
            Op::Write { slot, value } => {
                sim.send_simple(0, link, HmcRqst::Wr16, slot_addr(slot), vec![value, !value])
            }
            Op::PostedWrite { slot, value } => {
                sim.send_simple(0, link, HmcRqst::PWr16, slot_addr(slot), vec![value, value])
            }
            Op::Atomic { slot, value } => {
                sim.send_simple(0, link, HmcRqst::Xor16, slot_addr(slot), vec![value, 0])
            }
            Op::PostedAtomic { slot } => {
                sim.send_simple(0, link, HmcRqst::P2Add8, slot_addr(slot), vec![1, 1])
            }
            Op::Idle => Ok(None),
        };
        // Back-pressure and scheduled link outages are deterministic
        // and identical across the compared runs; only other protocol
        // errors would indicate a broken harness.
        match sent {
            Ok(_)
            | Err(HmcError::Stall)
            | Err(HmcError::TagsExhausted)
            | Err(HmcError::LinkDown(_)) => {}
            Err(e) => panic!("unexpected send error: {e}"),
        }
        sim.clock();
        sim.clock_n(gap);
        fingerprints.push(sim.state_fingerprint());
        for l in 0..links {
            while sim.recv(0, l).is_some() {}
        }
    }
    sim.clock_n(drain_cycles);
    fingerprints.push(sim.state_fingerprint());
    for l in 0..links {
        while sim.recv(0, l).is_some() {}
    }
    (fingerprints, sim.stats(0).unwrap().clone())
}

fn assert_lockstep_equal(config_name: &str, threads: usize, reference: &[u64], parallel: &[u64]) {
    assert_eq!(reference.len(), parallel.len());
    for (cycle, (r, p)) in reference.iter().zip(parallel).enumerate() {
        assert_eq!(
            r, p,
            "fingerprint diverged: config={config_name} threads={threads} cycle={cycle}"
        );
    }
}

fn configs() -> [(&'static str, DeviceConfig); 2] {
    [
        ("gen2_4link_4gb", DeviceConfig::gen2_4link_4gb()),
        ("gen2_8link_8gb", DeviceConfig::gen2_8link_8gb()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The core differential property: random traffic, both reference
    /// configurations, thread counts 1/2/4/8 — per-cycle fingerprint
    /// equality against the sequential reference.
    #[test]
    fn parallel_is_bit_identical_to_sequential(
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        for (name, config) in configs() {
            let reference = drive(
                &mut sim_with_mode(config.clone(), ExecMode::Sequential),
                &ops,
                60,
            );
            for threads in [1usize, 2, 4, 8] {
                let parallel = drive(
                    &mut sim_with_mode(config.clone(), ExecMode::Parallel { threads }),
                    &ops,
                    60,
                );
                assert_lockstep_equal(name, threads, &reference, &parallel);
            }
        }
    }

    /// Probabilistic fault injection draws from a per-device PRNG at
    /// stage 3; parallel mode must stay bit-identical, RNG stream
    /// included.
    #[test]
    fn parallel_with_fault_injection_is_bit_identical(
        ops in prop::collection::vec(arb_op(), 1..60),
        seed in any::<u64>(),
    ) {
        let mut config = DeviceConfig::gen2_4link_4gb();
        config.fault = FaultPlan::seeded(seed)
            .with_vault_errors(100_000)
            .with_poison(50_000);
        let reference = drive(
            &mut sim_with_mode(config.clone(), ExecMode::Sequential),
            &ops,
            60,
        );
        for threads in [2usize, 8] {
            let parallel = drive(
                &mut sim_with_mode(config.clone(), ExecMode::Parallel { threads }),
                &ops,
                60,
            );
            assert_lockstep_equal("gen2_4link_4gb+faults", threads, &reference, &parallel);
        }
    }

    /// Random traffic with random idle gaps: a run with idle-cycle
    /// skipping is bit-identical to the full-execution reference on
    /// both engines — fingerprints and device stats alike.
    #[test]
    fn skip_mode_random_traffic_is_bit_identical(
        ops in prop::collection::vec(arb_op(), 1..40),
        gap in 0u64..1500,
    ) {
        let run = |mode: ExecMode, skip: SkipMode| {
            let mut sim = sim_with_mode(DeviceConfig::gen2_4link_4gb(), mode);
            sim.set_skip_mode(skip);
            drive_bursty(&mut sim, &ops, gap, 1_000)
        };
        let reference = run(ExecMode::Sequential, SkipMode::Off);
        let seq_on = run(ExecMode::Sequential, SkipMode::On);
        prop_assert_eq!(&reference, &seq_on);
        let par_on = run(ExecMode::Parallel { threads: 2 }, SkipMode::On);
        prop_assert_eq!(&reference, &par_on);
    }

    /// The sanitizer observes the same invariants whichever engine
    /// runs stage 3: zero violations, identical fingerprints.
    #[test]
    fn parallel_under_sanitizer_is_bit_identical_and_clean(
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        let run = |mode: ExecMode| {
            let mut sim = sim_with_mode(DeviceConfig::gen2_4link_4gb(), mode);
            sim.enable_sanitizer(SanitizerConfig::report());
            let fingerprints = drive(&mut sim, &ops, 60);
            let violations = sim.sanitizer_report().map(|r| r.total_violations);
            (fingerprints, violations)
        };
        let (reference, ref_violations) = run(ExecMode::Sequential);
        prop_assert_eq!(ref_violations, Some(0));
        for threads in [2usize, 4] {
            let (parallel, par_violations) = run(ExecMode::Parallel { threads });
            assert_lockstep_equal("gen2_4link_4gb+sanitizer", threads, &reference, &parallel);
            prop_assert_eq!(par_violations, Some(0));
        }
    }
}

/// Non-random anchor: a saturating posted+acknowledged mix long
/// enough to trigger refresh windows, bank-busy stalls and
/// response-queue back-pressure, compared at every cycle across the
/// full thread matrix.
#[test]
fn saturating_mix_is_bit_identical_across_thread_matrix() {
    let ops: Vec<Op> = (0..600)
        .map(|i| match i % 5 {
            0 => Op::Write { slot: (i % 97) as u16, value: i as u64 },
            1 => Op::Read { slot: (i % 89) as u16 },
            2 => Op::PostedWrite { slot: (i % 83) as u16, value: !(i as u64) },
            3 => Op::Atomic { slot: (i % 79) as u16, value: i as u64 ^ 0xffff },
            _ => Op::PostedAtomic { slot: (i % 73) as u16 },
        })
        .collect();
    for (name, config) in configs() {
        let reference = drive(
            &mut sim_with_mode(config.clone(), ExecMode::Sequential),
            &ops,
            120,
        );
        for threads in [1usize, 2, 4, 8] {
            let parallel = drive(
                &mut sim_with_mode(config.clone(), ExecMode::Parallel { threads }),
                &ops,
                120,
            );
            assert_lockstep_equal(name, threads, &reference, &parallel);
        }
    }
}

/// The SkipMode axis of the differential matrix: for both reference
/// configurations and both engines (sequential and parallel), a run
/// with idle-cycle skipping enabled must be bit-identical to the
/// [`SkipMode::Off`] reference — fingerprint trace, device stats and
/// latency histograms — across idle-gap widths from "no gap" to
/// "thousands of compressible cycles".
#[test]
fn skip_mode_matrix_is_bit_identical() {
    let ops: Vec<Op> = (0..60)
        .map(|i| match i % 6 {
            0 => Op::Write { slot: (i % 67) as u16, value: i as u64 },
            1 => Op::Read { slot: (i % 59) as u16 },
            2 => Op::PostedWrite { slot: (i % 53) as u16, value: !(i as u64) },
            3 => Op::Atomic { slot: (i % 47) as u16, value: i as u64 ^ 0xaaaa },
            4 => Op::PostedAtomic { slot: (i % 43) as u16 },
            _ => Op::Idle,
        })
        .collect();
    for (name, config) in configs() {
        for gap in [0u64, 7, 4_096] {
            let run = |mode: ExecMode, skip: SkipMode| {
                let mut sim = sim_with_mode(config.clone(), mode);
                sim.set_skip_mode(skip);
                drive_bursty(&mut sim, &ops, gap, 2_000)
            };
            let (ref_fp, ref_stats) = run(ExecMode::Sequential, SkipMode::Off);
            for mode in [ExecMode::Sequential, ExecMode::Parallel { threads: 4 }] {
                let (fp, stats) = run(mode, SkipMode::On);
                assert_eq!(
                    ref_fp, fp,
                    "fingerprints diverged: config={name} gap={gap} mode={mode:?}"
                );
                assert_eq!(
                    ref_stats, stats,
                    "device stats diverged: config={name} gap={gap} mode={mode:?}"
                );
                assert_eq!(ref_stats.latency, stats.latency, "latency histogram diverged");
            }
        }
    }
}

/// Skipping must stop at *scheduled* fault-plan link transitions: a
/// link that goes down and comes back in the middle of a long idle
/// gap has to flip on exactly the configured cycles, and link-layer
/// retries stranded by the outage must replay identically.
#[test]
fn skip_mode_with_fault_schedule_is_bit_identical() {
    let ops: Vec<Op> = (0..40)
        .map(|i| match i % 3 {
            0 => Op::Write { slot: (i % 37) as u16, value: i as u64 },
            1 => Op::Read { slot: (i % 31) as u16 },
            _ => Op::Atomic { slot: (i % 29) as u16, value: i as u64 },
        })
        .collect();
    let mut config = DeviceConfig::gen2_4link_4gb();
    // Transitions land mid-gap (op cadence is 1 + 1000 cycles), so a
    // careless skip would sail straight past them.
    config.fault = FaultPlan::seeded(11)
        .with_vault_errors(80_000)
        .with_poison(40_000)
        .with_link_event(2_500, 1, false)
        .with_link_event(9_777, 1, true)
        .with_link_event(17_003, 2, false)
        .with_link_event(17_500, 2, true);
    let run = |mode: ExecMode, skip: SkipMode| {
        let mut sim = sim_with_mode(config.clone(), mode);
        sim.set_skip_mode(skip);
        drive_bursty(&mut sim, &ops, 1_000, 5_000)
    };
    let (ref_fp, ref_stats) = run(ExecMode::Sequential, SkipMode::Off);
    for mode in [ExecMode::Sequential, ExecMode::Parallel { threads: 2 }] {
        let (fp, stats) = run(mode, SkipMode::On);
        assert_eq!(ref_fp, fp, "fingerprints diverged under fault schedule: mode={mode:?}");
        assert_eq!(ref_stats, stats, "stats diverged under fault schedule: mode={mode:?}");
    }
}

/// Skipping under the full observer stack: sanitizer report mode
/// (watchdog + periodic checkpoints) and full telemetry must see the
/// exact same history whether the idle cycles were executed or
/// compressed — same fingerprints, same stats, a clean audit, and a
/// bit-identical telemetry export.
#[test]
fn skip_mode_under_sanitizer_and_telemetry_is_bit_identical_and_clean() {
    let ops: Vec<Op> = (0..48)
        .map(|i| match i % 4 {
            0 => Op::Write { slot: (i % 41) as u16, value: i as u64 },
            1 => Op::Read { slot: (i % 23) as u16 },
            2 => Op::PostedAtomic { slot: (i % 19) as u16 },
            _ => Op::Idle,
        })
        .collect();
    let run = |mode: ExecMode, skip: SkipMode| {
        let mut sim = sim_with_mode(DeviceConfig::gen2_4link_4gb(), mode);
        sim.set_skip_mode(skip);
        sim.enable_sanitizer(SanitizerConfig::report());
        sim.enable_telemetry(TelemetryConfig::full());
        let (fp, stats) = drive_bursty(&mut sim, &ops, 700, 3_000);
        let violations = sim.sanitizer_report().map(|r| r.total_violations);
        let telemetry = sim.telemetry_report().map(|r| r.to_json());
        (fp, stats, violations, telemetry)
    };
    let reference = run(ExecMode::Sequential, SkipMode::Off);
    assert_eq!(reference.2, Some(0), "reference run is invariant-clean");
    for mode in [ExecMode::Sequential, ExecMode::Parallel { threads: 4 }] {
        let skipped = run(mode, SkipMode::On);
        assert_eq!(reference.0, skipped.0, "fingerprints diverged under observers: {mode:?}");
        assert_eq!(reference.1, skipped.1, "stats diverged under observers: {mode:?}");
        assert_eq!(skipped.2, Some(0), "audit stays clean with skipping: {mode:?}");
        assert_eq!(reference.3, skipped.3, "telemetry export diverged: {mode:?}");
    }
}

/// Switching modes mid-run re-synchronizes on the very next cycle:
/// a run that flips sequential → parallel → sequential matches a
/// pure sequential run fingerprint for fingerprint.
#[test]
fn mode_switch_mid_run_is_seamless() {
    let ops: Vec<Op> = (0..240)
        .map(|i| match i % 3 {
            0 => Op::Write { slot: (i % 61) as u16, value: i as u64 },
            1 => Op::Read { slot: (i % 53) as u16 },
            _ => Op::Atomic { slot: (i % 47) as u16, value: i as u64 },
        })
        .collect();
    let reference = drive(
        &mut sim_with_mode(DeviceConfig::gen2_4link_4gb(), ExecMode::Sequential),
        &ops,
        60,
    );
    let mut sim = sim_with_mode(DeviceConfig::gen2_4link_4gb(), ExecMode::Sequential);
    let links = sim.device_config(0).unwrap().links;
    let mut fingerprints = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match i {
            80 => sim.set_exec_mode(ExecMode::Parallel { threads: 4 }),
            160 => sim.set_exec_mode(ExecMode::Sequential),
            _ => {}
        }
        let _ = match *op {
            Op::Read { slot } => sim.send_simple(0, i % links, HmcRqst::Rd16, slot_addr(slot), vec![]),
            Op::Write { slot, value } => {
                sim.send_simple(0, i % links, HmcRqst::Wr16, slot_addr(slot), vec![value, !value])
            }
            Op::Atomic { slot, value } => {
                sim.send_simple(0, i % links, HmcRqst::Xor16, slot_addr(slot), vec![value, 0])
            }
            _ => unreachable!(),
        };
        sim.clock();
        fingerprints.push(sim.state_fingerprint());
        for l in 0..links {
            while sim.recv(0, l).is_some() {}
        }
    }
    for _ in 0..60 {
        sim.clock();
        fingerprints.push(sim.state_fingerprint());
        for l in 0..links {
            while sim.recv(0, l).is_some() {}
        }
    }
    assert_lockstep_equal("mode-switch", 4, &reference, &fingerprints);
}

// ---------------------------------------------------------------------------
// Multi-cube fabric axis: the same lockstep contract, but across
// chain / ring / mesh topologies, with traffic entering at every cube
// and routed to remote cubes through the fabric.
// ---------------------------------------------------------------------------

/// The fabric topology matrix for the multi-cube anchors.
fn fabric_configs() -> [(&'static str, SimConfig); 3] {
    let d = DeviceConfig::gen2_4link_4gb;
    [
        ("chain4", SimConfig::chain(d(), 4)),
        ("ring5", SimConfig::ring(d(), 5)),
        ("mesh4x2", SimConfig::mesh(d(), 4, 2)),
    ]
}

fn fabric_sim(config: &SimConfig, mode: ExecMode, skip: SkipMode) -> HmcSim {
    let mut sim = HmcSim::with_config(config.clone()).unwrap();
    sim.set_exec_mode(mode);
    sim.set_skip_mode(skip);
    sim
}

/// Like [`drive`], but fabric-aware: op `i` enters at cube `i % n` and
/// targets cube `(i * 7 + 3) % n` via [`HmcSim::send_to_cube`], so the
/// stream mixes local traffic with multi-hop routes in every
/// direction. After each op an optional idle `gap` runs (to engage the
/// per-cube event horizons), then responses are drained from every
/// host-facing link of every cube.
fn drive_fabric(sim: &mut HmcSim, ops: &[Op], gap: u64, drain_cycles: u64) -> Vec<u64> {
    let n = sim.device_count();
    let links = sim.device_config(0).unwrap().links;
    let mut fingerprints = Vec::with_capacity(ops.len() + 1);
    let drain = |sim: &mut HmcSim| {
        for d in 0..n {
            for l in 0..links {
                while sim.recv(d, l).is_some() {}
            }
        }
    };
    for (i, op) in ops.iter().enumerate() {
        let entry = i % n;
        let link = i % links;
        let cub = Cub::new(((i * 7 + 3) % n) as u8).unwrap();
        let sent = match *op {
            Op::Read { slot } => {
                sim.send_to_cube(entry, link, cub, HmcRqst::Rd16, slot_addr(slot), vec![])
            }
            Op::Write { slot, value } => sim.send_to_cube(
                entry,
                link,
                cub,
                HmcRqst::Wr16,
                slot_addr(slot),
                vec![value, !value],
            ),
            Op::PostedWrite { slot, value } => sim.send_to_cube(
                entry,
                link,
                cub,
                HmcRqst::PWr16,
                slot_addr(slot),
                vec![value, value],
            ),
            Op::Atomic { slot, value } => sim.send_to_cube(
                entry,
                link,
                cub,
                HmcRqst::Xor16,
                slot_addr(slot),
                vec![value, 0],
            ),
            Op::PostedAtomic { slot } => {
                sim.send_to_cube(entry, link, cub, HmcRqst::P2Add8, slot_addr(slot), vec![1, 1])
            }
            Op::Idle => Ok(None),
        };
        // Back-pressure and scheduled link outages are deterministic
        // and identical across the compared runs.
        match sent {
            Ok(_)
            | Err(HmcError::Stall)
            | Err(HmcError::TagsExhausted)
            | Err(HmcError::LinkDown(_)) => {}
            Err(e) => panic!("unexpected fabric send error: {e}"),
        }
        sim.clock();
        if gap > 0 {
            sim.clock_n(gap);
        }
        fingerprints.push(sim.state_fingerprint());
        drain(sim);
    }
    sim.clock_n(drain_cycles);
    fingerprints.push(sim.state_fingerprint());
    drain(sim);
    fingerprints
}

/// The headline fabric anchor demanded by the engine contract: for
/// every topology in the matrix, state fingerprints are identical
/// across Sequential/Parallel{1,2,8} × Skip Off/On, checked after
/// every injection cycle.
#[test]
fn fabric_matrix_is_bit_identical_across_engines_and_skip() {
    let ops: Vec<Op> = (0..180)
        .map(|i| match i % 6 {
            0 => Op::Write { slot: (i % 97) as u16, value: i as u64 },
            1 => Op::Read { slot: (i % 89) as u16 },
            2 => Op::PostedWrite { slot: (i % 83) as u16, value: !(i as u64) },
            3 => Op::Atomic { slot: (i % 79) as u16, value: i as u64 ^ 0xbeef },
            4 => Op::PostedAtomic { slot: (i % 73) as u16 },
            _ => Op::Idle,
        })
        .collect();
    for (name, config) in fabric_configs() {
        let reference =
            drive_fabric(&mut fabric_sim(&config, ExecMode::Sequential, SkipMode::Off), &ops, 0, 300);
        for mode in [
            ExecMode::Sequential,
            ExecMode::Parallel { threads: 1 },
            ExecMode::Parallel { threads: 2 },
            ExecMode::Parallel { threads: 8 },
        ] {
            for skip in [SkipMode::Off, SkipMode::On] {
                let run = drive_fabric(&mut fabric_sim(&config, mode, skip), &ops, 0, 300);
                assert_eq!(reference.len(), run.len());
                for (cycle, (r, p)) in reference.iter().zip(&run).enumerate() {
                    assert_eq!(
                        r, p,
                        "fabric fingerprint diverged: topology={name} mode={mode:?} \
                         skip={skip:?} step={cycle}"
                    );
                }
            }
        }
    }
}

/// Idle cubes under long gaps: traffic enters only at cube 0 and
/// targets the far end of a chain, so the middle cubes spend most of
/// the run idle. With a scheduled link outage landing mid-gap, the
/// per-cube event horizons must still stop exactly at the fault-plan
/// transitions, on both engines.
#[test]
fn fabric_skip_with_idle_cubes_and_link_outage_is_bit_identical() {
    let ops: Vec<Op> = (0..24)
        .map(|i| match i % 3 {
            0 => Op::Write { slot: (i % 37) as u16, value: i as u64 },
            1 => Op::Read { slot: (i % 31) as u16 },
            _ => Op::Atomic { slot: (i % 29) as u16, value: i as u64 },
        })
        .collect();
    let mut device = DeviceConfig::gen2_4link_4gb();
    device.fault = FaultPlan::seeded(23)
        .with_poison(30_000)
        .with_link_event(1_700, 1, false)
        .with_link_event(4_300, 1, true);
    let config = SimConfig::chain(device, 4);
    let far = Cub::new(3).unwrap();
    let run = |mode: ExecMode, skip: SkipMode| {
        let mut sim = fabric_sim(&config, mode, skip);
        let links = sim.device_config(0).unwrap().links;
        let mut fingerprints = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let link = i % links;
            let sent = match *op {
                Op::Write { slot, value } => sim.send_to_cube(
                    0,
                    link,
                    far,
                    HmcRqst::Wr16,
                    slot_addr(slot),
                    vec![value, !value],
                ),
                Op::Read { slot } => {
                    sim.send_to_cube(0, link, far, HmcRqst::Rd16, slot_addr(slot), vec![])
                }
                Op::Atomic { slot, value } => sim.send_to_cube(
                    0,
                    link,
                    far,
                    HmcRqst::Xor16,
                    slot_addr(slot),
                    vec![value, 0],
                ),
                _ => unreachable!(),
            };
            match sent {
                Ok(_)
                | Err(HmcError::Stall)
                | Err(HmcError::TagsExhausted)
                | Err(HmcError::LinkDown(_)) => {}
                Err(e) => panic!("unexpected fabric send error: {e}"),
            }
            sim.clock();
            sim.clock_n(800);
            fingerprints.push(sim.state_fingerprint());
            for l in 0..links {
                while sim.recv(0, l).is_some() {}
            }
        }
        sim.clock_n(4_000);
        fingerprints.push(sim.state_fingerprint());
        (fingerprints, sim.stats(0).unwrap().clone())
    };
    let reference = run(ExecMode::Sequential, SkipMode::Off);
    for mode in [ExecMode::Sequential, ExecMode::Parallel { threads: 2 }, ExecMode::Parallel { threads: 8 }] {
        let skipped = run(mode, SkipMode::On);
        assert_eq!(reference.0, skipped.0, "fabric fingerprints diverged: mode={mode:?}");
        assert_eq!(reference.1, skipped.1, "fabric stats diverged: mode={mode:?}");
    }
}

/// Stage-3 traffic that reads or writes per-device state beyond the
/// memory array — the fault PRNG (vault errors, poisoned reads), the
/// CMC registry (mutex lock/unlock) and the register file (MD_RD /
/// MD_WR) — on every cube of a ring and a 2x2 mesh, sharded by device
/// at lane counts below, equal to and above the cube count. Lockstep
/// fingerprints against the sequential engine: the devices a lane
/// hands back must land where they came from, in device order.
#[test]
fn fabric_fault_cmc_and_mode_traffic_is_bit_identical_when_sharded() {
    use hmcsim::sim::regs::{REG_EDR0, REG_GC};
    hmcsim::cmc::ops::register_builtin_libraries();
    let mut device = DeviceConfig::gen2_4link_4gb();
    device.fault = FaultPlan::seeded(41).with_vault_errors(60_000).with_poison(40_000);
    let run = |config: &SimConfig, mode: ExecMode| {
        let mut sim = fabric_sim(config, mode, SkipMode::Off);
        let n = sim.device_count();
        let links = sim.device_config(0).unwrap().links;
        for d in 0..n {
            sim.load_cmc_library(d, hmcsim::cmc::ops::MUTEX_LIBRARY).unwrap();
        }
        let mut fingerprints = Vec::new();
        for i in 0..300usize {
            let entry = i % n;
            let link = i % links;
            let remote = Cub::new(((i * 3 + 1) % n) as u8).unwrap();
            let word = i as u64;
            let sent = match i % 6 {
                0 => sim.send_cmc(entry, link, 125, 0x4000, vec![word % 7 + 1, 0]),
                1 => sim.send_cmc(entry, link, 127, 0x4000, vec![word % 7 + 1, 0]),
                2 => sim.send_to_cube(entry, link, remote, HmcRqst::MdWr, REG_GC as u64, vec![word, 0]),
                3 => sim.send_to_cube(entry, link, remote, HmcRqst::MdRd, REG_EDR0 as u64, vec![]),
                4 => sim.send_to_cube(entry, link, remote, HmcRqst::Rd16, word % 512 * 16, vec![]),
                _ => sim.send_to_cube(entry, link, remote, HmcRqst::PWr16, word % 512 * 16, vec![word, !word]),
            };
            match sent {
                Ok(_) | Err(HmcError::Stall) | Err(HmcError::TagsExhausted) => {}
                Err(e) => panic!("unexpected fabric send error: {e}"),
            }
            sim.clock();
            fingerprints.push(sim.state_fingerprint());
            for d in 0..n {
                for l in 0..links {
                    while sim.recv(d, l).is_some() {}
                }
            }
        }
        sim.clock_n(300);
        fingerprints.push(sim.state_fingerprint());
        let stats: Vec<_> = (0..n).map(|d| sim.stats(d).unwrap().clone()).collect();
        (fingerprints, stats)
    };
    for (name, config) in [
        ("ring5", SimConfig::ring(device.clone(), 5)),
        ("mesh2x2", SimConfig::mesh(device.clone(), 2, 2)),
    ] {
        let (reference, stats) = run(&config, ExecMode::Sequential);
        let cubes_with = |f: fn(&hmcsim::sim::DeviceStats) -> u64| {
            stats.iter().filter(|s| f(s) > 0).count()
        };
        assert!(cubes_with(|s| s.cmc_ops) >= 2, "{name}: CMC ops ran on several cubes");
        assert!(cubes_with(|s| s.mode_ops) >= 2, "{name}: mode ops ran on several cubes");
        assert!(cubes_with(|s| s.vault_faults) >= 2, "{name}: vault faults were drawn");
        assert!(cubes_with(|s| s.poisoned_responses) >= 1, "{name}: reads were poisoned");
        for threads in [2usize, 3, 16, 64] {
            let (sharded, _) = run(&config, ExecMode::Parallel { threads });
            assert_lockstep_equal(name, threads, &reference, &sharded);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random traffic over a ring fabric: parallel engines (with and
    /// without idle-cycle skipping) stay bit-identical to the
    /// sequential reference when every op crosses cube boundaries.
    #[test]
    fn fabric_random_traffic_is_bit_identical(
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        let config = SimConfig::ring(DeviceConfig::gen2_4link_4gb(), 4);
        let reference =
            drive_fabric(&mut fabric_sim(&config, ExecMode::Sequential, SkipMode::Off), &ops, 0, 200);
        let par = drive_fabric(
            &mut fabric_sim(&config, ExecMode::Parallel { threads: 2 }, SkipMode::Off),
            &ops,
            0,
            200,
        );
        prop_assert_eq!(&reference, &par);
        let par_skip = drive_fabric(
            &mut fabric_sim(&config, ExecMode::Parallel { threads: 4 }, SkipMode::On),
            &ops,
            0,
            200,
        );
        prop_assert_eq!(&reference, &par_skip);
    }
}
