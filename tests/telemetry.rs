//! Telemetry integration tests: histogram algebra under proptest,
//! golden-file Prometheus/JSON exports of a small deterministic run,
//! request lifecycle span accounting, and the agreement between the
//! exported fault counters and the `REG_LRLL`/`REG_GRLL` registers.
//!
//! The golden files live in `tests/golden/`; regenerate them after an
//! intentional export-format change with `BLESS=1 cargo test --test
//! telemetry` and review the diff like any other code change.

use hmcsim::cmc::ops;
use hmcsim::prelude::*;
use hmcsim::sim::{
    BankTiming, FaultPlan, Hist, LinkErrorMode, MetricValue, RefreshConfig, RowPolicy,
    SanitizerConfig, SimConfig, Stage,
};
use proptest::prelude::*;

fn hist_of(values: &[u64]) -> Hist {
    let mut h = Hist::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_commutative(
        a in proptest::collection::vec(any::<u64>(), 0..64),
        b in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha;
        ab.merge(&hb);
        let mut ba = hb;
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(
        a in proptest::collection::vec(any::<u64>(), 0..48),
        b in proptest::collection::vec(any::<u64>(), 0..48),
        c in proptest::collection::vec(any::<u64>(), 0..48),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha; // (a ⊕ b) ⊕ c
        left.merge(&hb);
        left.merge(&hc);
        let mut right = hb; // a ⊕ (b ⊕ c)
        right.merge(&hc);
        let mut a_first = ha;
        a_first.merge(&right);
        prop_assert_eq!(left, a_first);
    }

    #[test]
    fn merge_equals_recording_the_concatenation(
        a in proptest::collection::vec(any::<u64>(), 0..64),
        b in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let mut together: Vec<u64> = a.clone();
        together.extend_from_slice(&b);
        prop_assert_eq!(merged, hist_of(&together));
    }

    #[test]
    fn quantile_is_monotone_and_bounded(
        values in proptest::collection::vec(0u64..1 << 40, 1..128),
    ) {
        let h = hist_of(&values);
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        let mut prev = 0u64;
        for p in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let q = h.quantile(p);
            prop_assert!(q >= prev, "quantile({p}) = {q} < quantile at lower p = {prev}");
            prop_assert!(q >= lo, "quantile({p}) = {q} below recorded min {lo}");
            prop_assert!(q <= hi, "quantile({p}) = {q} above recorded max {hi}");
            prev = q;
        }
    }
}

// ---------------------------------------------------------------------
// golden exports
// ---------------------------------------------------------------------

/// A small fully deterministic run exercising every command class:
/// reads, a write, an ADD16 atomic and a CMC lock/unlock pair, with
/// full telemetry (spans + a short time-series window) attached.
fn deterministic_run() -> HmcSim {
    ops::register_builtin_libraries();
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    // The golden exports include the timing backend's metrics; pin the
    // backend so an `HMCSIM_TIMING` override (the CI timing matrix)
    // cannot drift the golden files.
    sim.set_timing_model(TimingSelect::FixedLatency);
    sim.enable_telemetry(TelemetryConfig::with_window(16));
    sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();

    for (link, addr) in [(0usize, 0x40u64), (1, 0x140), (2, 0x240)] {
        let tag = sim.send_simple(0, link, HmcRqst::Rd16, addr, vec![]).unwrap().unwrap();
        sim.run_until_response(0, link, tag, 100).unwrap();
    }
    let tag = sim.send_simple(0, 1, HmcRqst::Wr16, 0x1000, vec![7, 9]).unwrap().unwrap();
    sim.run_until_response(0, 1, tag, 100).unwrap();
    let tag = sim.send_simple(0, 2, HmcRqst::Add16, 0x2000, vec![5, 0]).unwrap().unwrap();
    sim.run_until_response(0, 2, tag, 100).unwrap();
    let tag = sim.send_cmc(0, 3, ops::mutex::LOCK_CMD, 0x4000, vec![1, 0]).unwrap().unwrap();
    sim.run_until_response(0, 3, tag, 100).unwrap();
    let tag = sim.send_cmc(0, 3, ops::mutex::UNLOCK_CMD, 0x4000, vec![1, 0]).unwrap().unwrap();
    sim.run_until_response(0, 3, tag, 100).unwrap();

    // Run out the clock to a round cycle count so the last time-series
    // window closes deterministically.
    while !sim.cycle().is_multiple_of(32) {
        sim.clock();
    }
    sim
}

/// Compares `rendered` against the golden file, or rewrites the golden
/// file when `BLESS` is set in the environment.
fn check_golden(rendered: &str, name: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); run with BLESS=1", path.display()));
    assert_eq!(
        rendered,
        golden,
        "{name} drifted from the golden export; if intentional, regenerate with \
         BLESS=1 cargo test --test telemetry and review the diff"
    );
}

#[test]
fn golden_prometheus_export() {
    let sim = deterministic_run();
    let report = sim.telemetry_report().expect("telemetry enabled");
    check_golden(&report.to_prometheus(), "telemetry.prom");
}

#[test]
fn golden_json_export() {
    let sim = deterministic_run();
    let report = sim.telemetry_report().expect("telemetry enabled");
    check_golden(&report.to_json().render(), "telemetry.json");
}

#[test]
fn report_is_reproducible_and_classified() {
    let a = deterministic_run().telemetry_report().unwrap();
    let b = deterministic_run().telemetry_report().unwrap();
    assert_eq!(a, b, "identical runs export identical registries");

    // Every command class the run exercised shows up in its own
    // histogram, and they sum to the total.
    let class_count = |name: &str| {
        a.get(&format!("dev0/latency/{name}")).and_then(|m| m.as_hist()).map_or(0, Hist::count)
    };
    assert_eq!(class_count("read"), 3);
    assert_eq!(class_count("write"), 1);
    assert_eq!(class_count("atomic"), 1);
    assert_eq!(class_count("cmc"), 2);
    let total = a.get("dev0/latency/total").and_then(|m| m.as_hist()).unwrap();
    assert_eq!(total.count(), 7, "class histograms partition the total");
}

// ---------------------------------------------------------------------
// lifecycle spans
// ---------------------------------------------------------------------

#[test]
fn stage_durations_partition_the_round_trip() {
    // An uncontended Rd16 takes exactly 3 cycles; the five per-stage
    // histograms must partition that round trip with no gap and no
    // overlap.
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    sim.enable_telemetry(TelemetryConfig::full());
    let tag = sim.send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![]).unwrap().unwrap();
    let rsp = sim.run_until_response(0, 0, tag, 100).unwrap();
    assert_eq!(rsp.latency, 3, "pinned uncontended round trip");

    let report = sim.telemetry_report().unwrap();
    let mut stage_sum = 0;
    for stage in Stage::ALL {
        let h = report
            .get(&format!("dev0/stage/{}", stage.name()))
            .and_then(|m| m.as_hist())
            .unwrap_or_else(|| panic!("stage histogram {} exported", stage.name()));
        assert_eq!(h.count(), 1, "one sample per stage for one request");
        stage_sum += h.sum();
    }
    assert_eq!(stage_sum, rsp.latency, "stages partition the measured latency");
}

#[test]
fn windowed_series_track_link_traffic() {
    let sim = deterministic_run();
    let report = sim.telemetry_report().unwrap();
    let Some(MetricValue::Series { window, points }) = report.get("dev0/link0/series/flits")
    else {
        panic!("link flit series exported");
    };
    assert_eq!(*window, 16);
    assert!(!points.is_empty());
    let series_total: u64 = points.iter().map(|&(_, sum, _)| sum).sum();
    let counter = report.get("dev0/link0/flits").and_then(|m| m.as_scalar()).unwrap();
    assert_eq!(series_total, counter, "series windows sum to the flit counter");
    // Window start cycles are strictly increasing multiples of the
    // window length.
    for pair in points.windows(2) {
        assert!(pair[0].0 < pair[1].0);
    }
}

// ---------------------------------------------------------------------
// stage ledger
// ---------------------------------------------------------------------

/// Sends mixed RD16/WR16/INC8/RD64 traffic from every cube's host
/// links to cubes across the fabric and checks every response the host
/// receives: its stamps are in pipeline order and its latency is
/// `complete − issue`. In order, the five stage durations telescope to
/// the latency; `Telemetry::record_response` takes each duration with
/// `saturating_sub`, so there a missing or out-of-order stamp would
/// read as a 0-cycle stage instead of failing. Returns the number of
/// responses checked and the context.
fn check_stage_ledger(name: &str, config: SimConfig) -> (usize, HmcSim) {
    let mut sim = HmcSim::with_config(config).unwrap();
    let (cubes, links) = (sim.device_count(), sim.device_config(0).unwrap().links);
    let mut checked = 0;
    let mut drain = |sim: &mut HmcSim| {
        for d in 0..cubes {
            for l in 0..links {
                while let Some(rsp) = sim.recv(d, l) {
                    let (s, issue, complete) = (rsp.stages, rsp.issue_cycle, rsp.complete_cycle);
                    let ledger = [issue, s.vault_enq, s.exec, s.rsp_route, s.egress, complete];
                    assert!(
                        ledger.windows(2).all(|w| w[0] <= w[1]),
                        "{name}: issue/vault_enq/exec/rsp_route/egress/complete out of order: \
                         {ledger:?} ({:?} tag {})",
                        rsp.rsp.head.cmd,
                        rsp.rsp.head.tag.value()
                    );
                    assert_eq!(rsp.latency, complete - issue, "{name}");
                    checked += 1;
                }
            }
        }
    };
    for i in 0..1200usize {
        let (entry, link, target) = (i % cubes, i / cubes % links, (i * 7 + 3) % cubes);
        let addr = (i as u64 * 0x1c0) % (1 << 22);
        let (cmd, payload) = match i % 4 {
            0 => (HmcRqst::Rd16, vec![]),
            1 => (HmcRqst::Wr16, vec![i as u64, 0]),
            2 => (HmcRqst::Inc8, vec![]),
            _ => (HmcRqst::Rd64, vec![]),
        };
        let cub = Cub::new(target as u8).unwrap();
        match sim.send_to_cube(entry, link, cub, cmd, addr, payload) {
            Ok(_) | Err(HmcError::Stall | HmcError::TagsExhausted | HmcError::LinkDown(_)) => {}
            Err(e) => panic!("{name}: unexpected send error: {e}"),
        }
        sim.clock();
        drain(&mut sim);
    }
    for _ in 0..2000 {
        sim.clock();
        drain(&mut sim);
    }
    (checked, sim)
}

#[test]
fn stage_stamps_are_ordered_and_close_the_latency() {
    let faults = FaultPlan::seeded(0x1ed9e5)
        .with_vault_errors(20_000)
        .with_poison(20_000)
        .with_link_errors(LinkErrorMode::Random { per_million: 20_000 });
    let mut cube = DeviceConfig::gen2_4link_4gb();
    cube.bank_timing = BankTiming { row_hit: 2, row_miss: 9, policy: RowPolicy::OpenPage };
    cube.refresh = Some(RefreshConfig { interval: 300, duration: 12 });
    cube.remote_quad_penalty = 2;
    cube.fault = faults.clone().with_link_event(150, 1, false).with_link_event(700, 1, true);
    let mut ring_cube = DeviceConfig::gen2_4link_4gb();
    ring_cube.fault = faults;
    let fabrics = [
        ("cube", SimConfig { timing: TimingSelect::RowBuffer, ..SimConfig::single(cube) }),
        ("faulty ring3", SimConfig::ring(ring_cube, 3)),
        ("mesh4x4", SimConfig::mesh(DeviceConfig::gen2_4link_4gb(), 4, 4)),
    ];
    for (name, config) in fabrics {
        let (checked, sim) = check_stage_ledger(name, config);
        assert!(checked >= 1000, "{name}: only {checked} responses reached the host");
        let stats = sim.stats(0).unwrap();
        if name != "mesh4x4" {
            assert!(stats.vault_faults > 0 && stats.poisoned_responses > 0, "{name}: no faults");
        }
    }
}

// ---------------------------------------------------------------------
// fault / register agreement
// ---------------------------------------------------------------------

#[test]
fn exported_retries_agree_with_retry_registers() {
    // Deterministic link errors on every 3rd packet: the telemetry
    // export, the per-link stats and the device's REG_GRLL register
    // must all report the same retry count — they are pulled from the
    // same canonical sources, never double-counted.
    let mut cfg = DeviceConfig::gen2_4link_4gb();
    cfg.fault = FaultPlan::none().with_link_errors(LinkErrorMode::EveryNth(3));
    let mut sim = HmcSim::new(cfg).unwrap();
    sim.enable_telemetry(TelemetryConfig::full());
    for i in 0..12u64 {
        let link = (i % 4) as usize;
        let tag = sim.send_simple(0, link, HmcRqst::Rd16, 0x40 + i * 0x100, vec![]).unwrap().unwrap();
        sim.run_until_response(0, link, tag, 200).unwrap();
    }

    let report = sim.telemetry_report().unwrap();
    let retries_metric =
        report.get("dev0/faults/retries").and_then(|m| m.as_scalar()).unwrap();
    let grll = report.get("dev0/regs/grll").and_then(|m| m.as_scalar()).unwrap();
    let stats_total: u64 =
        (0..4).map(|l| sim.link_stats(0, l).unwrap().retries).sum();
    assert!(retries_metric > 0, "the fault plan injected link errors");
    assert_eq!(retries_metric, stats_total, "export matches LinkStats");
    assert_eq!(retries_metric, grll, "export matches REG_GRLL");

    // Per-link counters decompose the total.
    let per_link: u64 = (0..4)
        .filter_map(|l| report.get(&format!("dev0/link{l}/retries")))
        .filter_map(MetricValue::as_scalar)
        .sum();
    assert_eq!(per_link, retries_metric);
}

#[test]
fn forensic_dump_embeds_the_telemetry_report() {
    // When both observers are attached, the sanitizer's forensic dump
    // carries the full telemetry JSON so a post-mortem sees the
    // metrics at the violating cycle.
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    sim.enable_sanitizer(SanitizerConfig::report());
    sim.enable_telemetry(TelemetryConfig::full());
    let tag = sim.send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![]).unwrap().unwrap();
    sim.run_until_response(0, 0, tag, 100).unwrap();

    let phantom = Response::new(
        HmcResponse::RdRs,
        Tag::new(9).unwrap(),
        Slid::new(0).unwrap(),
        Cub::new(0).unwrap(),
        vec![0, 0],
    )
    .unwrap();
    sim.debug_inject_phantom_response(0, 0, phantom);
    sim.clock_n(4);
    let dump = sim.take_forensic_dump().expect("violation produced a dump");
    let telemetry = dump.telemetry.as_ref().expect("telemetry embedded in dump");
    assert!(telemetry.get("dev0/latency/total").is_some());
    assert!(dump.to_json().contains("\"telemetry\":{"), "dump JSON carries the report");
}
