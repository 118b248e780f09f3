//! Perfetto export integration tests: a golden-file pin of the
//! trace-event JSON, the byte-identity contract across skip modes,
//! and the forensic-dump embedding of the flight
//! recorder timeline.
//!
//! The golden file lives in `tests/golden/`; regenerate it after an
//! intentional export-format change with `BLESS=1 cargo test --test
//! perfetto` and review the diff like any other code change.

use hmcsim::cmc::ops;
use hmcsim::prelude::*;
use hmcsim::sim::perfetto::{self, PerfettoOptions};
use hmcsim::sim::{FlightSnapshot, SimConfig, TraceBuffer, Tracer};
use hmcsim::workloads::{MutexKernel, MutexKernelConfig};

/// The pinned mutex evaluation (16 threads) with the flight recorder
/// attached, under the given skip mode.
fn traced_run(skip: SkipMode) -> FlightSnapshot {
    ops::register_builtin_libraries();
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    sim.set_skip_mode(skip);
    sim.enable_flight_recorder(4096);
    sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();
    MutexKernel::new(MutexKernelConfig { threads: 16, ..Default::default() })
        .run(&mut sim)
        .unwrap();
    sim.flight_snapshot().expect("recorder attached")
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
         BLESS=1 cargo test --test perfetto and review the diff"
    );
}

#[test]
fn golden_perfetto_export() {
    let snap = traced_run(SkipMode::Off);
    check_golden(&perfetto::export(&snap, &PerfettoOptions::default()), "perfetto.json");
}

#[test]
fn export_has_all_event_phases_and_no_drops() {
    let snap = traced_run(SkipMode::On);
    assert!(!snap.is_empty(), "timeline retained");
    assert_eq!(snap.lanes.iter().map(|l| l.dropped).sum::<u64>(), 0, "capacity ample");
    let doc = perfetto::export(&snap, &PerfettoOptions::default());
    for phase in ["\"ph\":\"M\"", "\"ph\":\"X\"", "\"ph\":\"s\"", "\"ph\":\"f\""] {
        assert!(doc.contains(phase), "export missing {phase}");
    }
    assert!(doc.contains("\"displayTimeUnit\""), "Chrome trace envelope present");
}

/// Engine spans legitimately differ with the skip mode (the skipping
/// engine jumps). The packet timeline does not: with engine spans
/// filtered out, the export is byte-identical with skipping off and
/// on.
#[test]
fn packet_timeline_is_invariant_across_engines() {
    let packets_only = PerfettoOptions { engine: false };
    let reference = perfetto::export(&traced_run(SkipMode::Off), &packets_only);
    assert!(reference.contains("\"ph\":\"X\""), "non-empty packet timeline");
    let skipped = perfetto::export(&traced_run(SkipMode::On), &packets_only);
    assert_eq!(reference, skipped, "packet timeline diverged under skipping");
}

/// A traced multi-cube run observes the same packets whether idle
/// cycles are executed or skipped: the text trace without its ENGINE
/// lines, and the packets-only Perfetto export, are byte-identical.
#[test]
fn traced_fabric_run_is_byte_identical_across_engines() {
    let run = |skip: SkipMode| {
        let mut sim =
            HmcSim::with_config(SimConfig::mesh(DeviceConfig::gen2_4link_4gb(), 2, 2)).unwrap();
        sim.set_skip_mode(skip);
        let text = TraceBuffer::new();
        sim.set_tracer(Tracer::to_buffer(TraceLevel::ALL, text.clone()));
        sim.enable_flight_recorder(8192);
        for i in 0..96usize {
            let (entry, target) = (i % 4, Cub::new(((i * 3 + 1) % 4) as u8).unwrap());
            let addr = (i as u64 % 64) * 16;
            let (cmd, payload) = match i % 3 {
                0 => (HmcRqst::Wr16, vec![i as u64, 0]),
                1 => (HmcRqst::Rd16, vec![]),
                _ => (HmcRqst::Xor16, vec![i as u64, 0]),
            };
            sim.send_to_cube(entry, i % 4, target, cmd, addr, payload).unwrap();
            sim.clock();
            if i % 8 == 7 {
                sim.clock_n(200);
            }
            for d in 0..4 {
                for l in 0..4 {
                    while sim.recv(d, l).is_some() {}
                }
            }
        }
        sim.clock_n(300);
        let snap = sim.flight_snapshot().expect("recorder attached");
        assert_eq!(snap.lanes.iter().map(|l| l.dropped).sum::<u64>(), 0, "capacity ample");
        (text.lines(), perfetto::export(&snap, &PerfettoOptions { engine: false }))
    };
    let packets = |lines: Vec<String>| -> Vec<String> {
        lines.into_iter().filter(|l| !l.contains(": ENGINE :")).collect()
    };
    let (text, export) = run(SkipMode::Off);
    let (skipped_text, skipped_export) = run(SkipMode::On);
    assert!(text.iter().any(|l| l.contains(": HOP :")), "traffic crossed cubes");
    assert!(
        skipped_text.iter().any(|l| l.contains(": ENGINE : idle skip")),
        "engine spans traced"
    );
    assert_eq!(packets(text), packets(skipped_text), "text trace diverged under skipping");
    assert_eq!(export, skipped_export, "export diverged under skipping");
}

#[test]
fn forensic_dump_embeds_the_flight_timeline() {
    // With the recorder attached, a sanitizer forensic dump carries
    // the structured timeline as a top-level `traceEvents` key — the
    // dump file itself opens in ui.perfetto.dev.
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    sim.enable_sanitizer(SanitizerConfig::report());
    sim.enable_flight_recorder(1024);
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
    let flight = dump.flight.as_ref().expect("flight timeline embedded in dump");
    assert!(!flight.is_empty(), "timeline is non-empty");
    let json = dump.to_json();
    assert!(json.contains("\"traceEvents\":["), "dump JSON carries the timeline");
    assert!(json.contains("\"ph\":\"X\""), "timeline has slices");
}

#[test]
fn flight_snapshot_survives_checkpoint_restore() {
    // The recorder rides along in snapshots: a restored run resumes
    // with the pre-checkpoint timeline intact (forensics across a
    // crash), while the fingerprint stays observer-blind.
    ops::register_builtin_libraries();
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    sim.enable_flight_recorder(1024);
    sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();
    MutexKernel::new(MutexKernelConfig { threads: 4, ..Default::default() })
        .run(&mut sim)
        .unwrap();
    let before = sim.flight_snapshot().unwrap();
    assert!(!before.is_empty());

    let snap = sim.snapshot();
    let restored = HmcSim::from_snapshot(&snap).unwrap();
    let after = restored.flight_snapshot().unwrap();
    assert_eq!(
        perfetto::export(&before, &PerfettoOptions::default()),
        perfetto::export(&after, &PerfettoOptions::default()),
        "restored timeline renders identically"
    );
    assert_eq!(sim.state_fingerprint(), restored.state_fingerprint());
}
