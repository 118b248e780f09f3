//! Lossless snapshot↔JSON round-trip properties across the full
//! configuration matrix (fault plans × sanitizer × telemetry × skip
//! mode), with live mid-flight traffic in every structure.
//!
//! The contract under test: for ANY reachable machine state `s`,
//! `SimSnapshot::from_json(s.to_json_full())` reproduces `s`
//! **bit-identically** — same fingerprint, same re-rendered bytes, and
//! a device restored from the parsed snapshot continues from exactly
//! the captured state.

use hmc_sim::{
    DeviceConfig, FaultPlan, HmcSim, LinkErrorMode, SanitizerConfig, SimSnapshot, SkipMode,
    TelemetryConfig,
};
use hmc_types::{HmcError, HmcRqst};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct MatrixPoint {
    faults: bool,
    sanitizer: bool,
    telemetry: bool,
    skip: bool,
}

fn arb_point() -> impl Strategy<Value = MatrixPoint> {
    (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
        |(faults, sanitizer, telemetry, skip)| MatrixPoint { faults, sanitizer, telemetry, skip },
    )
}

fn build_sim(point: &MatrixPoint, seed: u64) -> HmcSim {
    let mut config = DeviceConfig::gen2_4link_4gb();
    if point.faults {
        config.fault = FaultPlan {
            seed,
            link_error: LinkErrorMode::EveryNth(7),
            poison_per_million: 200_000,
            vault_error_per_million: 100_000,
            link_schedule: Vec::new(),
        };
    }
    let mut sim = HmcSim::new(config).expect("valid config");
    if point.skip {
        sim.set_skip_mode(SkipMode::On);
    }
    if point.sanitizer {
        sim.enable_sanitizer(SanitizerConfig::report());
    }
    if point.telemetry {
        sim.enable_telemetry(TelemetryConfig::with_window(64));
    }
    sim
}

/// Drives mixed traffic and stops mid-flight, so queues, tag pools,
/// in-transit packets and host_rx are all populated when snapshotted.
fn drive(sim: &mut HmcSim, addrs: &[u64]) {
    for (i, &a) in addrs.iter().enumerate() {
        let link = i % 4;
        let cmd = match i % 4 {
            0 => HmcRqst::Rd64,
            1 => HmcRqst::Wr16,
            2 => HmcRqst::Inc8,
            _ => HmcRqst::Rd16,
        };
        let payload: Vec<u64> = match cmd {
            HmcRqst::Wr16 => vec![a ^ 0xDEAD, a],
            _ => vec![],
        };
        match sim.send_simple(0, link, cmd, (a * 16) & !15, payload) {
            Ok(_) => {}
            Err(HmcError::Stall) | Err(HmcError::TagsExhausted) => {}
            Err(e) => panic!("unexpected send error: {e}"),
        }
        sim.clock();
    }
    // A couple more cycles so responses are in flight / parked in
    // host_rx, but deliberately NOT drained to quiescence.
    sim.clock();
    sim.clock();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot → JSON → parse is lossless at every matrix point:
    /// identical fingerprint AND byte-identical re-rendered JSON
    /// (the latter also covers sanitizer shadow state, which the
    /// fingerprint deliberately excludes).
    #[test]
    fn json_round_trip_is_lossless(
        point in arb_point(),
        seed in 1u64..u64::MAX,
        addrs in prop::collection::vec(0u64..2048, 8..48),
    ) {
        let mut sim = build_sim(&point, seed);
        drive(&mut sim, &addrs);

        let snap = sim.snapshot();
        let text = snap.to_json_full();
        let parsed = SimSnapshot::from_json(&text)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?;
        prop_assert_eq!(parsed.fingerprint(), snap.fingerprint(), "fingerprint drift");
        prop_assert_eq!(parsed.to_json_full(), text, "re-render is not byte-identical");
    }

    /// A device restored from the *parsed* snapshot is
    /// indistinguishable from the original: same state fingerprint at
    /// the restore point, and bit-identical after running the same
    /// traffic forward on both.
    #[test]
    fn restore_from_parsed_snapshot_continues_identically(
        point in arb_point(),
        seed in 1u64..u64::MAX,
        addrs in prop::collection::vec(0u64..2048, 8..32),
        tail in prop::collection::vec(0u64..2048, 4..16),
    ) {
        let mut sim = build_sim(&point, seed);
        drive(&mut sim, &addrs);

        let snap = sim.snapshot();
        let live_fp = sim.state_fingerprint();
        let parsed = SimSnapshot::from_json(&snap.to_json_full())
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?;

        // Perturb the original, then rewind it from the parsed copy.
        drive(&mut sim, &tail);
        sim.restore(&parsed).map_err(|e| TestCaseError::fail(format!("restore: {e}")))?;
        prop_assert_eq!(sim.state_fingerprint(), live_fp, "restore point drifted");

        // Both timelines replay the same tail and must stay identical.
        let mut twin = HmcSim::from_snapshot(&parsed)
            .map_err(|e| TestCaseError::fail(format!("from_snapshot: {e}")))?;
        drive(&mut sim, &tail);
        drive(&mut twin, &tail);
        prop_assert_eq!(sim.state_fingerprint(), twin.state_fingerprint());
    }
}

/// The deterministic corner the fuzz matrix rarely hits: a completely
/// fresh device (no traffic at all) round-trips too.
#[test]
fn pristine_device_round_trips() {
    let sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    let snap = sim.snapshot();
    let parsed = SimSnapshot::from_json(&snap.to_json_full()).unwrap();
    assert_eq!(parsed.fingerprint(), snap.fingerprint());
    assert_eq!(parsed.to_json_full(), snap.to_json_full());
}

/// Quiescent-after-drain state (empty queues but populated stats,
/// memory and histograms) round-trips.
#[test]
fn drained_device_round_trips() {
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    drive(&mut sim, &[1, 2, 3, 5, 8, 13, 21, 34]);
    sim.drain(1_000_000);
    let snap = sim.snapshot();
    let parsed = SimSnapshot::from_json(&snap.to_json_full()).unwrap();
    assert_eq!(parsed.fingerprint(), snap.fingerprint());
    assert_eq!(parsed.to_json_full(), snap.to_json_full());
}

/// A snapshot carries state, not what the engine derives from it: the
/// per-vault occupancy hints that steer the vault walks are rebuilt by
/// `restore`. A *fresh* context — every hint clear — restored from a
/// snapshot with packets waiting in a vault's queues must walk that
/// vault at once: original and twin clock to quiescence in lockstep,
/// and the twin's sanitizer (which checks every hint against its queue
/// every cycle) stays silent.
#[test]
fn a_fresh_context_restored_mid_flight_runs_in_lockstep_to_quiescence() {
    for skip in [false, true] {
        let point = MatrixPoint { faults: false, sanitizer: true, telemetry: false, skip };
        let mut sim = build_sim(&point, 1);
        // Four reads a cycle at one vault, which serves one: its
        // request queue backs up, with a response on its way out.
        for _ in 0..12 {
            for link in 0..4 {
                sim.send_simple(0, link, HmcRqst::Rd16, 0x40, vec![]).unwrap();
            }
            sim.clock();
        }
        assert!(sim.vault_queue_high_water(0).unwrap() > 8, "the vault queue backed up");
        let parsed = SimSnapshot::from_json(&sim.snapshot().to_json_full()).unwrap();

        let mut twin = HmcSim::from_snapshot(&parsed).unwrap();
        let mut cycles = 0;
        while !sim.is_quiescent() {
            assert_eq!(sim.clock(), twin.clock());
            assert_eq!(
                sim.state_fingerprint(),
                twin.state_fingerprint(),
                "diverged {cycles} cycles after the restore (skip {skip})"
            );
            cycles += 1;
            assert!(cycles < 1_000, "the backlog drains");
        }
        assert!(cycles > 30, "the snapshot was taken with work in the vault ({cycles} cycles)");
        assert!(twin.is_quiescent());
        assert_eq!(twin.sanitizer_report().unwrap().total_violations, 0);
        assert_eq!(sim.sanitizer_report().unwrap().total_violations, 0);
    }
}
