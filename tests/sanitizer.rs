//! SimSanitizer integration tests: invariant detection, forensic
//! dumps, checkpoint/replay, recovery, and the stall watchdog.
//!
//! The acceptance scenario from the robustness issue is pinned here:
//! a deliberately injected violation (a double token return through
//! the test backdoor) is caught within one cycle, produces a
//! parseable JSON forensic dump carrying a full snapshot and the
//! recent trace ring, and `HmcSim::from_snapshot()` of the snapshot
//! read back from that file — the file alone, with no configuration or
//! sanitizer set up by hand — deterministically reproduces the
//! violating cycle.

use hmcsim::cmc::ops;
use hmcsim::prelude::*;
use hmcsim::sim::sanitizer::ViolationKind;
use hmcsim::sim::{
    FaultPlan, Json, LinkConfig, LinkErrorMode, SanitizerReport, SimSnapshot, TraceBuffer,
    TraceLevel, Tracer,
};
use hmcsim::workloads::{
    MutexKernel, MutexKernelConfig, MutexMechanism, ResilienceConfig, SpinPolicy, ThreadDriver,
};

fn report(sim: &HmcSim) -> &SanitizerReport {
    sim.sanitizer_report().expect("sanitizer enabled")
}

/// A minimal structural JSON check: balanced braces/brackets outside
/// string literals, no trailing garbage. Enough to guarantee the dump
/// loads in any real JSON parser without hand-rolling one here.
fn assert_parseable_json(text: &str) {
    let mut depth: i64 = 0;
    let mut in_string = false;
    let mut escaped = false;
    let mut closed_at = None;
    for (i, c) in text.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close at byte {i}");
                if depth == 0 {
                    closed_at = Some(i);
                }
            }
            _ => {}
        }
    }
    assert!(!in_string, "unterminated string literal");
    assert_eq!(depth, 0, "unbalanced braces");
    let end = closed_at.expect("a top-level value");
    assert!(
        text[end + 1..].trim().is_empty(),
        "trailing garbage after the top-level value"
    );
}

#[test]
fn injected_violation_dump_and_deterministic_replay() {
    let dump_dir = std::env::temp_dir().join(format!("hmcsim-forensics-{}", std::process::id()));
    let mut cfg = DeviceConfig::gen2_4link_4gb();
    cfg.link_config = LinkConfig { tokens: Some(64), ..Default::default() };
    let mut sim = HmcSim::new(cfg).unwrap();
    let dumps = Some(dump_dir.clone());
    sim.enable_sanitizer(SanitizerConfig { dump_dir: dumps, ..SanitizerConfig::report() });

    // Real traffic first, so the trace ring has content and the
    // shadow accounting is exercised before the fault.
    for i in 0..4u64 {
        let tag = sim
            .send_simple(0, (i % 4) as usize, HmcRqst::Rd16, i * 0x100, vec![])
            .unwrap()
            .unwrap();
        let rsp = sim.run_until_response(0, (i % 4) as usize, tag, 100).unwrap();
        assert_eq!(rsp.rsp.head.cmd, HmcResponse::RdRs);
    }
    assert_eq!(report(&sim).total_violations, 0, "healthy run is clean");

    // The deliberate bug: a double token return at quiescence.
    let violating_cycle = sim.cycle();
    sim.debug_force_return_tokens(0, 0, 2);
    sim.clock();

    // Caught within one cycle.
    let rep = report(&sim);
    assert!(rep.total_violations >= 1, "violation detected the same cycle");
    assert!(
        rep.violations.iter().any(|v| v.kind == ViolationKind::TokenOverReturn),
        "over-return surfaced: {:?}",
        rep.violations
    );
    assert!(
        rep.violations.iter().all(|v| v.cycle == violating_cycle),
        "flagged at the violating cycle"
    );

    // The forensic dump: present in memory, written as parseable
    // JSON, and carrying snapshot + trace ring.
    let dump = sim.take_forensic_dump().expect("dump captured");
    assert_eq!(dump.cycle, violating_cycle);
    // The ring's tail, line for line as the ring that rendered every
    // event eagerly wrote it: four round trips, then the audit.
    assert_eq!(
        dump.trace,
        [
            "HMCSIM_TRACE : 0 : SEND : send: dev=0 link=0 tag=0 flits=1",
            "HMCSIM_TRACE : 0 : QUEUE : xbar->vault: link=0 vault=0 occ=1",
            "HMCSIM_TRACE : 1 : RQST : CMD=RD16 CUB=0 QUAD=0 VAULT=0 BANK=0 ADDR=0x0 TAG=0",
            "HMCSIM_TRACE : 2 : LATENCY : tag=0 lat=3 link=0",
            "HMCSIM_TRACE : 3 : SEND : send: dev=0 link=1 tag=0 flits=1",
            "HMCSIM_TRACE : 3 : QUEUE : xbar->vault: link=1 vault=4 occ=1",
            "HMCSIM_TRACE : 4 : RQST : CMD=RD16 CUB=0 QUAD=0 VAULT=4 BANK=0 ADDR=0x100 TAG=0",
            "HMCSIM_TRACE : 5 : LATENCY : tag=0 lat=3 link=1",
            "HMCSIM_TRACE : 6 : SEND : send: dev=0 link=2 tag=0 flits=1",
            "HMCSIM_TRACE : 6 : QUEUE : xbar->vault: link=2 vault=8 occ=1",
            "HMCSIM_TRACE : 7 : RQST : CMD=RD16 CUB=0 QUAD=1 VAULT=8 BANK=0 ADDR=0x200 TAG=0",
            "HMCSIM_TRACE : 8 : LATENCY : tag=0 lat=3 link=2",
            "HMCSIM_TRACE : 9 : SEND : send: dev=0 link=3 tag=0 flits=1",
            "HMCSIM_TRACE : 9 : QUEUE : xbar->vault: link=3 vault=12 occ=1",
            "HMCSIM_TRACE : 10 : RQST : CMD=RD16 CUB=0 QUAD=1 VAULT=12 BANK=0 ADDR=0x300 TAG=0",
            "HMCSIM_TRACE : 11 : LATENCY : tag=0 lat=3 link=3",
            "HMCSIM_TRACE : 12 : ENGINE : sanitizer: violations=1",
        ]
    );
    let json = dump.to_json();
    assert_parseable_json(&json);
    for needle in ["\"cycle\"", "\"violations\"", "\"snapshot\"", "\"trace\"", "token-over-return"]
    {
        assert!(json.contains(needle), "dump JSON is missing {needle}");
    }
    let path = dump_dir.join(format!("forensic-c{violating_cycle}.json"));
    let on_disk = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("dump file {} missing: {e}", path.display()));
    assert_eq!(on_disk, json, "on-disk dump matches the in-memory one");
    let _ = std::fs::remove_dir_all(&dump_dir);

    // Replay from the file alone: its `snapshot` member rebuilds the
    // context it names, clocked once — the same violation fires at the
    // same cycle.
    let doc = Json::parse(&on_disk).expect("the dump is strict JSON");
    let member = doc.get("snapshot").expect("snapshot member").clone();
    let snapshot =
        SimSnapshot::from_json_value(member).expect("the dump's snapshot is the restorable form");
    assert_eq!(snapshot.to_json_full(), dump.snapshot.to_json_full());
    let mut replayed = HmcSim::from_snapshot(&snapshot).unwrap();
    assert_eq!(replayed.config(), &{
        let mut live = sim.config().clone();
        live.sanitizer.dump_dir = None;
        live
    });
    assert_eq!(replayed.cycle(), violating_cycle);
    assert_eq!(
        replayed.state_fingerprint(),
        dump.snapshot.fingerprint(),
        "restore reproduces the snapshot state exactly"
    );
    replayed.clock();
    let rep = report(&replayed);
    assert!(
        rep.violations.iter().any(|v| {
            v.kind == ViolationKind::TokenOverReturn && v.cycle == violating_cycle
        }),
        "replay re-detects the violation at the violating cycle: {:?}",
        rep.violations
    );
}

/// A cube with a token pool (for the over-return backdoor), wire
/// errors whose texts are interned per event, vault faults, poison and
/// a link outage — every cold trace path, beside the mutex CMC ops.
fn faulted_cmc_sim() -> HmcSim {
    let mut cfg = DeviceConfig::gen2_4link_4gb();
    cfg.link_config = LinkConfig { tokens: Some(64), ..Default::default() };
    cfg.fault = FaultPlan::seeded(11)
        .with_link_errors(LinkErrorMode::Random { per_million: 150_000 })
        .with_vault_errors(60_000)
        .with_poison(60_000)
        .with_link_event(30, 2, false)
        .with_link_event(70, 2, true);
    let mut sim = HmcSim::new(cfg).unwrap();
    ops::register_builtin_libraries();
    sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();
    sim
}

/// `cycles` cycles of reads, writes and `hmc_lock`/`hmc_unlock` pairs
/// on every link that will take them; responses are drained unchecked
/// (the plan injects errors on purpose).
fn drive_faulted(sim: &mut HmcSim, cycles: u64) {
    for _ in 0..cycles {
        let i = sim.cycle();
        for link in 0..4 {
            while sim.recv(0, link).is_some() {}
            let addr = (i * 4 + link as u64) * 0x40;
            let me = vec![link as u64 + 1, 0];
            // Stalls and down links are part of the scenario.
            let _ = match (i + link as u64) % 4 {
                0 => sim.send_simple(0, link, HmcRqst::Rd64, addr, vec![]),
                1 => sim.send_simple(0, link, HmcRqst::Wr64, addr, vec![i; 8]),
                2 => sim.send_cmc(0, link, ops::mutex::LOCK_CMD, addr, me),
                _ => sim.send_cmc(0, link, ops::mutex::UNLOCK_CMD, addr, me),
            };
        }
        sim.clock();
    }
}

/// Cuts a forensic dump now (a double token return through the test
/// backdoor) and returns its `trace`: what the ring renders.
fn dump_trace_now(sim: &mut HmcSim) -> Vec<String> {
    sim.debug_force_return_tokens(0, 0, 64);
    sim.clock();
    sim.take_forensic_dump().expect("the over-return cut a dump").trace
}

#[test]
fn forensic_trace_is_the_tail_of_the_text_trace() {
    // The ring keeps raw records and renders them when a dump is cut;
    // a level-ALL text sink renders every event as it happens. Same
    // events, same name table: the dump's trace is the sink's tail,
    // byte for byte, whatever happened to the tracer in between.
    const RING: usize = hmcsim::sim::trace::TRACE_RING;
    let san = SanitizerConfig::report();
    let text = TraceBuffer::new();
    let tail = |text: &TraceBuffer| {
        let lines = text.lines();
        lines[lines.len().saturating_sub(RING)..].to_vec()
    };

    // The sink is attached first, the ring adopts its name table.
    let mut sim = faulted_cmc_sim();
    sim.set_tracer(Tracer::to_buffer(TraceLevel::ALL, text.clone()));
    sim.enable_sanitizer(san.clone());
    sim.enable_flight_recorder(64);
    drive_faulted(&mut sim, 60);
    let trace = dump_trace_now(&mut sim);
    assert_eq!(trace.len(), RING);
    assert_eq!(trace, tail(&text));
    for needle in ["op=hmc_lock", "kind=CRC", "kind=VAULT", "kind=LINKDOWN", "sanitizer: violations="] {
        assert!(!text.grep(needle).is_empty(), "the run never traced {needle}");
    }
    assert!(trace.iter().any(|l| l.contains("op=hmc_")), "the tail names a CMC op");
    assert!(trace.iter().any(|l| l.contains("kind=CRC")), "the tail carries an interned text");

    // A replaced tracer keeps the ring and the names its records use.
    let snapshot = sim.snapshot();
    sim.set_tracer(Tracer::to_buffer(TraceLevel::ALL, text.clone()));
    drive_faulted(&mut sim, 7);
    assert_eq!(dump_trace_now(&mut sim), tail(&text), "tail straddling set_tracer");

    // Restore rewinds the simulation, not the observers: the ring
    // still holds what led up to the restore, then what followed.
    sim.restore(&snapshot).unwrap();
    drive_faulted(&mut sim, 3);
    assert_eq!(dump_trace_now(&mut sim), tail(&text), "tail straddling restore");
    drive_faulted(&mut sim, 40);
    assert_eq!(dump_trace_now(&mut sim), tail(&text), "tail after the replay");

    // A quiet sink changes nothing the ring keeps.
    let mut quiet = faulted_cmc_sim();
    quiet.enable_sanitizer(san);
    drive_faulted(&mut quiet, 60);
    assert_eq!(dump_trace_now(&mut quiet), trace, "the ring does not depend on the sink");
}

#[test]
fn tag_reclamation_race_with_failover_and_reuse() {
    // A 1-tag pool makes reuse immediate, so any reclamation bug
    // (releasing while a stale response is in flight, or never
    // releasing after a zombie drop) is observable. Link 1 dies while
    // the response is in flight, forcing a failover delivery.
    let mut cfg = DeviceConfig::gen2_4link_4gb();
    cfg.fault = FaultPlan::seeded(3)
        .with_link_event(2, 1, false)
        .with_link_event(20, 1, true);
    let mut sim = HmcSim::new(cfg).unwrap();
    sim.enable_sanitizer(SanitizerConfig::report());
    sim.configure_tag_pool(0, 1, 1).unwrap();

    let tag = sim.send_simple(0, 1, HmcRqst::Rd16, 0x40, vec![]).unwrap().unwrap();
    sim.clock();
    // Host-side timeout: abandon while the response is still in
    // flight. The tag must NOT return to the pool yet (ABA hazard).
    sim.abandon_tag(0, 1, tag).unwrap();
    assert!(
        matches!(
            sim.send_simple(0, 1, HmcRqst::Rd16, 0x80, vec![]),
            Err(HmcError::TagsExhausted)
        ),
        "zombie tag is not reusable while its response is in flight"
    );

    // The stale response fails over (entry link 1 is down) and dies
    // as a zombie at delivery; the tag is reclaimed then.
    sim.drain(1_000);
    assert_eq!(sim.stats(0).unwrap().abandoned_responses, 1, "zombie dropped");
    while sim.cycle() < 21 {
        sim.clock();
    }
    assert!(sim.link_is_up(0, 1));
    let reused = sim.send_simple(0, 1, HmcRqst::Rd16, 0x80, vec![]).unwrap().unwrap();
    assert_eq!(reused, tag, "the 1-tag pool recycles the reclaimed tag");
    let rsp = sim.run_until_response(0, 1, reused, 100).unwrap();
    assert_eq!(rsp.rsp.head.cmd, HmcResponse::RdRs);

    let rep = report(&sim);
    assert_eq!(
        rep.total_violations, 0,
        "reclamation under failover is invariant-clean: {:?}",
        rep.violations
    );
    assert_eq!(rep.cycles_checked, sim.cycle());
}

#[test]
fn stall_watchdog_fires_when_nothing_moves() {
    // Kill every link while a response is in flight: it can neither
    // deliver nor fail over, so the fabric wedges with one resident
    // packet — exactly what the watchdog exists to catch.
    let mut cfg = DeviceConfig::gen2_4link_4gb();
    cfg.fault = FaultPlan::seeded(1)
        .with_link_event(1, 0, false)
        .with_link_event(1, 1, false)
        .with_link_event(1, 2, false)
        .with_link_event(1, 3, false);
    let mut sim = HmcSim::new(cfg).unwrap();
    let mut san = SanitizerConfig::report();
    san.watchdog_cycles = 50;
    sim.enable_sanitizer(san);

    sim.send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![]).unwrap().unwrap();
    sim.clock_n(200);

    let rep = report(&sim);
    let fired: Vec<_> = rep
        .violations
        .iter()
        .filter(|v| v.kind == ViolationKind::StallWatchdog)
        .collect();
    assert!(!fired.is_empty(), "watchdog fired: {:?}", rep.violations);
    assert!(
        fired[0].cycle >= 50 && fired[0].cycle <= 60,
        "first firing ~50 stalled cycles in, got cycle {}",
        fired[0].cycle
    );
    assert!(fired.len() >= 2, "watchdog re-arms instead of firing once");
    assert!(sim.forensic_dump().is_some(), "stall captured a forensic dump");
}

#[test]
fn phantom_response_detected_and_recoverable() {
    // Report mode: the phantom is flagged but still delivered.
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    sim.enable_sanitizer(SanitizerConfig::report());
    let rsp = Response::new(
        HmcResponse::RdRs,
        Tag::new(9).unwrap(),
        Slid::new(0).unwrap(),
        Cub::new(0).unwrap(),
        vec![0, 0],
    )
    .unwrap();
    sim.debug_inject_phantom_response(0, 0, rsp.clone());
    sim.clock_n(4);
    assert!(
        report(&sim).violations.iter().any(|v| v.kind == ViolationKind::PhantomResponse),
        "phantom flagged: {:?}",
        report(&sim).violations
    );
    assert!(sim.recv(0, 0).is_some(), "report mode only observes");

    // Recover mode: the phantom is dropped before the host sees it.
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    sim.enable_sanitizer(SanitizerConfig::recovering());
    sim.debug_inject_phantom_response(0, 0, rsp);
    sim.clock_n(4);
    let rep = report(&sim);
    assert!(rep.recovered >= 1, "phantom recovered");
    assert!(sim.recv(0, 0).is_none(), "recover mode drops the phantom");
}

#[test]
fn recover_policy_repairs_token_pools() {
    let mut cfg = DeviceConfig::gen2_4link_4gb();
    cfg.link_config = LinkConfig { tokens: Some(8), ..Default::default() };
    let mut sim = HmcSim::new(cfg).unwrap();
    sim.enable_sanitizer(SanitizerConfig::recovering());

    sim.debug_force_return_tokens(0, 0, 4);
    sim.clock();
    let after_fault = report(&sim).total_violations;
    assert!(after_fault >= 1, "over-return detected");
    assert!(report(&sim).recovered >= 1, "and repaired");

    // The repaired pool checks clean from here on, and traffic flows.
    sim.clock_n(10);
    assert_eq!(report(&sim).total_violations, after_fault, "no re-fire after repair");
    let tag = sim.send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![]).unwrap().unwrap();
    let rsp = sim.run_until_response(0, 0, tag, 100).unwrap();
    assert_eq!(rsp.rsp.head.cmd, HmcResponse::RdRs);
}

#[test]
fn snapshot_restore_is_deterministic_mid_flight() {
    let make = || {
        let mut cfg = DeviceConfig::gen2_4link_4gb();
        cfg.fault = FaultPlan::seeded(7).with_vault_errors(30_000).with_poison(10_000);
        let mut sim = HmcSim::new(cfg).unwrap();
        sim.enable_sanitizer(SanitizerConfig::report());
        sim
    };
    let mut original = make();
    for i in 0..16u64 {
        original
            .send_simple(0, (i % 4) as usize, HmcRqst::Wr32, i * 0x400, vec![0; 4])
            .unwrap();
    }
    original.clock_n(2);
    let snap = original.snapshot();
    assert!(snap.packets_in_fabric() > 0, "snapshot taken mid-flight");

    let mut restored = HmcSim::from_snapshot(&snap).unwrap();
    assert_eq!(restored.state_fingerprint(), original.state_fingerprint());

    original.drain(10_000);
    restored.drain(10_000);
    assert_eq!(
        restored.state_fingerprint(),
        original.state_fingerprint(),
        "restored run evolves bit-identically (same faults, same cycles)"
    );
    assert_eq!(report(&original).total_violations, 0);
    assert_eq!(report(&restored).total_violations, 0);
}

#[test]
fn restore_rejects_mismatched_geometry() {
    let sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    let snap = sim.snapshot();
    let mut other = HmcSim::new(DeviceConfig::gen2_8link_8gb()).unwrap();
    assert!(other.restore(&snap).is_err(), "8-link device rejects a 4-link snapshot");
}

#[test]
fn periodic_checkpoints_bound_the_replay_window() {
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    let mut san = SanitizerConfig::report();
    san.checkpoint_every = 16;
    sim.enable_sanitizer(san);
    for i in 0..8u64 {
        let tag = sim
            .send_simple(0, (i % 4) as usize, HmcRqst::Rd16, i * 0x100, vec![])
            .unwrap()
            .unwrap();
        sim.run_until_response(0, (i % 4) as usize, tag, 100).unwrap();
    }
    sim.clock_n(40);
    let rep = report(&sim);
    assert!(rep.checkpoints_taken >= 2, "checkpoints at the configured cadence");
    let ckpt = sim.sanitizer_checkpoint().expect("latest checkpoint retained").clone();
    assert!(ckpt.cycle().is_multiple_of(16));

    // A checkpoint is restorable like any snapshot.
    let mut resumed = HmcSim::from_snapshot(&ckpt).unwrap();
    assert_eq!(resumed.cycle(), ckpt.cycle());
    resumed.clock_n(8);
    assert_eq!(report(&resumed).total_violations, 0);
}

/// Every dump a chaos run left in `target/forensics` (none, after a
/// clean run) must be replayable evidence: strict JSON whose
/// `snapshot` member loads, re-renders to the same bytes, rebuilds its
/// context from the file alone and, clocked through its violating
/// cycle, reports the dump's violations at that cycle again. The CI
/// chaos job runs this filter after the suite, before it uploads the
/// dumps.
#[test]
fn forensic_dumps_on_disk_are_restorable() {
    let Ok(dir) = std::fs::read_dir("target/forensics") else { return };
    ops::register_builtin_libraries();
    for entry in dir {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let check = || -> Result<(), String> {
            let doc = Json::parse(&text).map_err(|e| e.to_string())?;
            let member = doc.get("snapshot").ok_or("no `snapshot` member")?;
            let snapshot =
                SimSnapshot::from_json_value(member.clone()).map_err(|e| e.to_string())?;
            if snapshot.to_json_value() != *member {
                return Err("re-renders differently".into());
            }
            let mut sim = HmcSim::from_snapshot(&snapshot).map_err(|e| e.to_string())?;
            // A panicking policy re-raises what it detects; the report
            // survives the unwind.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.clock()));
            let cycle = snapshot.cycle();
            let found: Vec<&str> = report(&sim)
                .violations
                .iter()
                .filter(|v| v.cycle == cycle)
                .map(|v| v.kind.name())
                .collect();
            let dumped = doc.get("violations").and_then(Json::as_arr).ok_or("no `violations`")?;
            for kind in dumped.iter().filter_map(|v| v.get("kind").and_then(Json::as_str)) {
                if !found.contains(&kind) {
                    return Err(format!("replaying cycle {cycle} did not report `{kind}`"));
                }
            }
            Ok(())
        };
        if let Err(why) = check() {
            panic!("{} is not a restorable forensic dump: {why}", path.display());
        }
    }
}

/// The CI chaos gate: an aggressive seeded fault plan (vault errors,
/// poison, wire corruption, a link outage) under the *panicking*
/// sanitizer with dumps pointed at `target/forensics`. If any
/// invariant breaks, this test panics and CI uploads the dump
/// artifacts for offline replay.
#[test]
fn chaos_run_survives_the_panicking_sanitizer() {
    ops::register_builtin_libraries();
    let mut config = DeviceConfig::gen2_4link_4gb();
    config.fault = FaultPlan::seeded(99)
        .with_vault_errors(40_000)
        .with_poison(20_000)
        .with_link_errors(hmcsim::sim::LinkErrorMode::Random { per_million: 5_000 })
        .with_link_event(200, 1, false)
        .with_link_event(600, 1, true);
    let mut sim = HmcSim::new(config).unwrap();
    let mut san = SanitizerConfig::panicking();
    san.dump_dir = Some(std::path::PathBuf::from("target/forensics"));
    san.watchdog_cycles = 100_000;
    sim.enable_sanitizer(san);
    sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();

    let kernel = MutexKernel::new(MutexKernelConfig {
        threads: 16,
        spin: SpinPolicy::until_owned(),
        mechanism: MutexMechanism::Cmc,
        ..Default::default()
    });
    let driver = ThreadDriver {
        dev: 0,
        max_cycles: 500_000,
        resilience: Some(ResilienceConfig {
            request_timeout: 3_000,
            max_retries: 8,
            backoff_base: 8,
        }),
    };
    let result = kernel.run_with_driver(&mut sim, &driver).unwrap();
    assert_eq!(result.acquisitions, 16, "liveness under chaos");
    let rep = sim.disable_sanitizer().unwrap();
    assert_eq!(rep.total_violations, 0);
    assert!(rep.cycles_checked > 0);
}
