//! Differential determinism harness for the engine's variants.
//!
//! The contract under test: for any workload and any device or fabric
//! configuration, a run with idle-cycle skipping ([`SkipMode::On`])
//! produces **bit-identical** state to the full-execution reference
//! ([`SkipMode::Off`]) — checked through the full device-state
//! fingerprint (queues, banks, memory digest, stats, power, RNG
//! state), not just at the end of the run. [`ExecMode`] is a record the
//! engine never reads, so a context configured
//! `ExecMode::Parallel { threads: 2 }` (what the `perf/` harness still
//! configures) must run the same cycles as a sequential one.
//!
//! Both sims are driven in lockstep: the same injection attempt on
//! the same cycle, the same host-side drains. Because the fingerprint
//! is compared after every step, the first divergent step is reported
//! directly.

use hmcsim::prelude::*;
use hmcsim::sim::{FaultPlan, SimConfig, TraceKind};
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

/// Sends `op` into cube `entry`'s host link `link`, addressed to `cub`.
/// Back-pressure (stalls, exhausted tags) and scheduled link outages
/// are deterministic and identical across the compared runs; any other
/// send error means a broken harness.
fn send_op(sim: &mut HmcSim, entry: usize, link: usize, cub: Cub, op: &Op) {
    let (cmd, slot, payload) = match *op {
        Op::Read { slot } => (HmcRqst::Rd16, slot, vec![]),
        Op::Write { slot, value } => (HmcRqst::Wr16, slot, vec![value, !value]),
        Op::PostedWrite { slot, value } => (HmcRqst::PWr16, slot, vec![value, value]),
        Op::Atomic { slot, value } => (HmcRqst::Xor16, slot, vec![value, 0]),
        Op::PostedAtomic { slot } => (HmcRqst::P2Add8, slot, vec![1, 1]),
        Op::Idle => return,
    };
    match sim.send_to_cube(entry, link, cub, cmd, slot_addr(slot), payload) {
        Ok(_)
        | Err(HmcError::Stall)
        | Err(HmcError::TagsExhausted)
        | Err(HmcError::LinkDown(_)) => {}
        Err(e) => panic!("unexpected send error: {e}"),
    }
}

fn cube(i: usize) -> Cub {
    Cub::new(i as u8).unwrap()
}

/// Injects one op (ignoring deterministic back-pressure failures),
/// clocks one cycle, drains every host link, and records the
/// post-cycle fingerprint.
fn drive(sim: &mut HmcSim, ops: &[Op], drain_cycles: u64) -> Vec<u64> {
    let links = sim.device_config(0).unwrap().links;
    let mut fingerprints = Vec::with_capacity(ops.len() + drain_cycles as usize);
    let mut step = |sim: &mut HmcSim, op: Option<(&Op, usize)>| {
        if let Some((op, link)) = op {
            send_op(sim, 0, link, cube(0), op);
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

/// The mode `perf/` records for its `sim.parallel.t2_speedup` prefix.
const RECORDED: ExecMode = ExecMode::Parallel { threads: 2 };

/// Builds a single-cube sim that records `mode` and skips per `skip`.
fn sim_with(config: DeviceConfig, mode: ExecMode, skip: SkipMode) -> HmcSim {
    let mut sim_config = SimConfig::single(config);
    sim_config.exec_mode = mode;
    sim_config.skip_mode = skip;
    let sim = HmcSim::with_config(sim_config).unwrap();
    assert_eq!(sim.exec_mode(), mode, "the mode is recorded as configured");
    sim
}

/// The reference: sequential, every cycle executed.
fn plain(config: DeviceConfig) -> HmcSim {
    sim_with(config, ExecMode::Sequential, SkipMode::Off)
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
        send_op(sim, 0, i % links, cube(0), op);
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

/// Attaches a flight recorder, the observer that leaves skipping on,
/// so [`idle_skips`] can prove a run compressed cycles.
fn recorded_skipping(config: DeviceConfig, mode: ExecMode) -> HmcSim {
    let mut sim = sim_with(config, mode, SkipMode::On);
    sim.enable_flight_recorder(256);
    sim
}

/// How many idle runs the engine compressed, as the flight recorder
/// saw them.
fn idle_skips(sim: &HmcSim) -> usize {
    let records = sim.flight_snapshot().unwrap().merged();
    records.iter().filter(|r| r.kind == TraceKind::IdleSkip).count()
}

fn assert_lockstep_equal(config_name: &str, reference: &[u64], variant: &[u64]) {
    assert_eq!(reference.len(), variant.len());
    for (step, (r, v)) in reference.iter().zip(variant).enumerate() {
        assert_eq!(r, v, "fingerprint diverged: config={config_name} step={step}");
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

    /// The recorded mode is inert: random traffic on both reference
    /// configurations, per-cycle fingerprint equality between a
    /// sequential context and one configured `Parallel { threads: 2 }`.
    #[test]
    fn recorded_exec_mode_is_inert(
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        for (name, config) in configs() {
            let reference = drive(&mut plain(config.clone()), &ops, 60);
            let recorded = drive(&mut sim_with(config, RECORDED, SkipMode::Off), &ops, 60);
            assert_lockstep_equal(name, &reference, &recorded);
        }
    }

    /// Probabilistic fault injection draws from a per-device PRNG at
    /// stage 3; a skipping run that records `Parallel` must stay
    /// bit-identical, RNG stream included.
    #[test]
    fn fault_injection_is_bit_identical_under_skip(
        ops in prop::collection::vec(arb_op(), 1..60),
        seed in any::<u64>(),
    ) {
        let mut config = DeviceConfig::gen2_4link_4gb();
        config.fault = FaultPlan::seeded(seed)
            .with_vault_errors(100_000)
            .with_poison(50_000);
        let reference = drive(&mut plain(config.clone()), &ops, 60);
        let variant = drive(&mut sim_with(config, RECORDED, SkipMode::On), &ops, 60);
        assert_lockstep_equal("gen2_4link_4gb+faults", &reference, &variant);
    }

    /// Random traffic with random idle gaps: a run with idle-cycle
    /// skipping is bit-identical to the full-execution reference —
    /// fingerprints and device stats alike.
    #[test]
    fn skip_mode_random_traffic_is_bit_identical(
        ops in prop::collection::vec(arb_op(), 1..40),
        gap in 0u64..1500,
    ) {
        let run = |skip: SkipMode| {
            let mut sim = sim_with(DeviceConfig::gen2_4link_4gb(), ExecMode::Sequential, skip);
            drive_bursty(&mut sim, &ops, gap, 1_000)
        };
        prop_assert_eq!(run(SkipMode::Off), run(SkipMode::On));
    }

    /// The sanitizer audits the reference clean, and a skipping run
    /// that records `Parallel` matches it fingerprint for fingerprint
    /// and in its stats. A per-cycle observer turns skipping off, so
    /// the skipping side carries only a flight recorder, which must
    /// see at least one compressed idle run.
    #[test]
    fn sanitizer_is_bit_identical_and_clean_under_skip(
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        let mut reference = plain(DeviceConfig::gen2_4link_4gb());
        reference.enable_sanitizer(SanitizerConfig::report());
        let expected = drive(&mut reference, &ops, 60);
        prop_assert_eq!(reference.sanitizer_report().map(|r| r.total_violations), Some(0));
        let mut skipped = recorded_skipping(DeviceConfig::gen2_4link_4gb(), RECORDED);
        let fingerprints = drive(&mut skipped, &ops, 60);
        assert_lockstep_equal("gen2_4link_4gb+sanitizer", &expected, &fingerprints);
        prop_assert_eq!(reference.stats(0).unwrap(), skipped.stats(0).unwrap());
        prop_assert!(idle_skips(&skipped) > 0, "the skipping run compressed no cycle");
    }
}

/// The SkipMode axis of the differential matrix: for both reference
/// configurations, a run with idle-cycle skipping enabled must be
/// bit-identical to the
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
            let run = |skip: SkipMode| {
                let mut sim = sim_with(config.clone(), ExecMode::Sequential, skip);
                drive_bursty(&mut sim, &ops, gap, 2_000)
            };
            let (ref_fp, ref_stats) = run(SkipMode::Off);
            let (fp, stats) = run(SkipMode::On);
            assert_eq!(ref_fp, fp, "fingerprints diverged: config={name} gap={gap}");
            assert_eq!(ref_stats, stats, "device stats diverged: config={name} gap={gap}");
            assert_eq!(ref_stats.latency, stats.latency, "latency histogram diverged");
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
    let run = |skip: SkipMode| {
        let mut sim = sim_with(config.clone(), ExecMode::Sequential, skip);
        drive_bursty(&mut sim, &ops, 1_000, 5_000)
    };
    let (ref_fp, ref_stats) = run(SkipMode::Off);
    let (fp, stats) = run(SkipMode::On);
    assert_eq!(ref_fp, fp, "fingerprints diverged under fault schedule");
    assert_eq!(ref_stats, stats, "stats diverged under fault schedule");
}

/// The reference under the full observer stack, sanitizer report mode
/// (its watchdog armed) and full telemetry, audits clean, and a run
/// that compresses the idle gaps matches it: same fingerprints, same
/// stats. A per-cycle observer turns skipping off, so the skipping
/// side carries only a flight recorder, which must see the gaps
/// compressed.
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
    let mut reference = plain(DeviceConfig::gen2_4link_4gb());
    reference.enable_sanitizer(SanitizerConfig::report());
    reference.enable_telemetry(TelemetryConfig::full());
    let (ref_fp, ref_stats) = drive_bursty(&mut reference, &ops, 700, 3_000);
    let violations = reference.sanitizer_report().map(|r| r.total_violations);
    assert_eq!(violations, Some(0), "reference run is invariant-clean");
    assert!(reference.telemetry_report().is_some(), "reference run is sampled");
    let mut skipped = recorded_skipping(DeviceConfig::gen2_4link_4gb(), ExecMode::Sequential);
    let (fp, stats) = drive_bursty(&mut skipped, &ops, 700, 3_000);
    assert_eq!(ref_fp, fp, "fingerprints diverged from the observed reference");
    assert_eq!(ref_stats, stats, "stats diverged from the observed reference");
    assert!(idle_skips(&skipped) > 0, "the skipping run compressed no gap");
}

/// Switching the skip mode mid-run re-synchronizes on the very next
/// cycle: a run that flips off → on → off, with idle gaps for the
/// skip to compress, matches a run that never skipped, fingerprint for
/// fingerprint.
#[test]
fn skip_switch_mid_run_is_seamless() {
    let ops: Vec<Op> = (0..240)
        .map(|i| match i % 3 {
            0 => Op::Write { slot: (i % 61) as u16, value: i as u64 },
            1 => Op::Read { slot: (i % 53) as u16 },
            _ => Op::Atomic { slot: (i % 47) as u16, value: i as u64 },
        })
        .collect();
    let run = |switch: bool| {
        let mut sim = plain(DeviceConfig::gen2_4link_4gb());
        let links = sim.device_config(0).unwrap().links;
        let mut fingerprints = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match i {
                80 if switch => sim.set_skip_mode(SkipMode::On),
                160 if switch => sim.set_skip_mode(SkipMode::Off),
                _ => {}
            }
            send_op(&mut sim, 0, i % links, cube(0), op);
            sim.clock();
            sim.clock_n(i as u64 % 40);
            fingerprints.push(sim.state_fingerprint());
            for l in 0..links {
                while sim.recv(0, l).is_some() {}
            }
        }
        sim.clock_n(60);
        fingerprints.push(sim.state_fingerprint());
        fingerprints
    };
    assert_lockstep_equal("skip-switch", &run(false), &run(true));
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

fn fabric_sim(config: &SimConfig, skip: SkipMode) -> HmcSim {
    let mut sim = HmcSim::with_config(config.clone()).unwrap();
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
        send_op(sim, i % n, i % links, cube((i * 7 + 3) % n), op);
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
/// with skipping off and on, checked after every injection cycle.
#[test]
fn fabric_matrix_is_bit_identical_under_skip() {
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
        let reference = drive_fabric(&mut fabric_sim(&config, SkipMode::Off), &ops, 0, 300);
        let skipped = drive_fabric(&mut fabric_sim(&config, SkipMode::On), &ops, 0, 300);
        assert_lockstep_equal(name, &reference, &skipped);
    }
}

/// Idle cubes under long gaps: traffic enters only at cube 0 and
/// targets the far end of a chain, so the middle cubes spend most of
/// the run idle. With a scheduled link outage landing mid-gap, the
/// per-cube event horizons must still stop exactly at the fault-plan
/// transitions.
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
    let far = cube(3);
    let run = |skip: SkipMode| {
        let mut sim = fabric_sim(&config, skip);
        let links = sim.device_config(0).unwrap().links;
        let mut fingerprints = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            send_op(&mut sim, 0, i % links, far, op);
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
    let reference = run(SkipMode::Off);
    let skipped = run(SkipMode::On);
    assert_eq!(reference.0, skipped.0, "fabric fingerprints diverged");
    assert_eq!(reference.1, skipped.1, "fabric stats diverged");
}

/// Stage-3 traffic that reads or writes per-device state beyond the
/// memory array — the fault PRNG (vault errors, poisoned reads), the
/// CMC registry (mutex lock/unlock) and the register file (MD_RD /
/// MD_WR) — on every cube of a ring and a 2x2 mesh. Lockstep
/// fingerprints with skipping off and on: a cube that is skipped must
/// leave all of that state exactly where executing its cycles would.
#[test]
fn fabric_fault_cmc_and_mode_traffic_is_bit_identical_under_skip() {
    use hmcsim::sim::regs::{REG_EDR0, REG_GC};
    hmcsim::cmc::ops::register_builtin_libraries();
    let mut device = DeviceConfig::gen2_4link_4gb();
    device.fault = FaultPlan::seeded(41).with_vault_errors(60_000).with_poison(40_000);
    let run = |config: &SimConfig, skip: SkipMode| {
        let mut sim = fabric_sim(config, skip);
        let n = sim.device_count();
        let links = sim.device_config(0).unwrap().links;
        for d in 0..n {
            sim.load_cmc_library(d, hmcsim::cmc::ops::MUTEX_LIBRARY).unwrap();
        }
        let mut fingerprints = Vec::new();
        for i in 0..300usize {
            let entry = i % n;
            let link = i % links;
            let remote = cube((i * 3 + 1) % n);
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
        let (reference, stats) = run(&config, SkipMode::Off);
        let cubes_with = |f: fn(&hmcsim::sim::DeviceStats) -> u64| {
            stats.iter().filter(|s| f(s) > 0).count()
        };
        assert!(cubes_with(|s| s.cmc_ops) >= 2, "{name}: CMC ops ran on several cubes");
        assert!(cubes_with(|s| s.mode_ops) >= 2, "{name}: mode ops ran on several cubes");
        assert!(cubes_with(|s| s.vault_faults) >= 2, "{name}: vault faults were drawn");
        assert!(cubes_with(|s| s.poisoned_responses) >= 1, "{name}: reads were poisoned");
        let (skipped, _) = run(&config, SkipMode::On);
        assert_lockstep_equal(name, &reference, &skipped);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random traffic over a ring fabric: idle-cycle skipping stays
    /// bit-identical to the reference when every op crosses cube
    /// boundaries.
    #[test]
    fn fabric_random_traffic_is_bit_identical(
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        let config = SimConfig::ring(DeviceConfig::gen2_4link_4gb(), 4);
        let reference = drive_fabric(&mut fabric_sim(&config, SkipMode::Off), &ops, 0, 200);
        let skipped = drive_fabric(&mut fabric_sim(&config, SkipMode::On), &ops, 0, 200);
        prop_assert_eq!(&reference, &skipped);
    }
}
