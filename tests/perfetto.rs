//! Perfetto export integration tests: a golden-file pin of the
//! trace-event JSON, the byte-identity contract across engine
//! configurations, and the forensic-dump embedding of the flight
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
/// attached, under the given engine configuration.
fn traced_run(mode: ExecMode, skip: SkipMode) -> FlightSnapshot {
    ops::register_builtin_libraries();
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    sim.set_exec_mode(mode);
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
    let snap = traced_run(ExecMode::Sequential, SkipMode::Off);
    check_golden(&perfetto::export(&snap, &PerfettoOptions::default()), "perfetto.json");
}

#[test]
fn export_has_all_event_phases_and_no_drops() {
    let snap = traced_run(ExecMode::Parallel { threads: 4 }, SkipMode::On);
    assert!(!snap.is_empty(), "timeline retained");
    assert_eq!(snap.lanes.iter().map(|l| l.dropped).sum::<u64>(), 0, "capacity ample");
    let doc = perfetto::export(&snap, &PerfettoOptions::default());
    for phase in ["\"ph\":\"M\"", "\"ph\":\"X\"", "\"ph\":\"s\"", "\"ph\":\"f\""] {
        assert!(doc.contains(phase), "export missing {phase}");
    }
    assert!(doc.contains("\"displayTimeUnit\""), "Chrome trace envelope present");
}

/// The flight recorder observes the cycle domain, not the worker
/// threads: the full export (engine spans included) must be
/// byte-identical at every lane count, for both skip modes.
#[test]
fn export_is_byte_identical_across_thread_counts() {
    for skip in [SkipMode::Off, SkipMode::On] {
        let reference =
            perfetto::export(&traced_run(ExecMode::Parallel { threads: 1 }, skip), &PerfettoOptions::default());
        assert!(reference.contains("\"ph\""), "non-empty export");
        for threads in [2usize, 8] {
            let other = perfetto::export(
                &traced_run(ExecMode::Parallel { threads }, skip),
                &PerfettoOptions::default(),
            );
            assert_eq!(reference, other, "export diverged at {threads} threads ({skip:?})");
        }
    }
}

/// Engine spans legitimately differ with the skip mode (the skipping
/// engine jumps). The packet timeline does not: with engine spans
/// filtered out, the export is byte-identical across every engine
/// combination.
#[test]
fn packet_timeline_is_invariant_across_engines() {
    let packets_only = PerfettoOptions { engine: false };
    let reference = perfetto::export(
        &traced_run(ExecMode::Sequential, SkipMode::Off),
        &packets_only,
    );
    assert!(reference.contains("\"ph\":\"X\""), "non-empty packet timeline");
    for mode in [ExecMode::Sequential, ExecMode::Parallel { threads: 8 }] {
        for skip in [SkipMode::Off, SkipMode::On] {
            let other = perfetto::export(&traced_run(mode, skip), &packets_only);
            assert_eq!(reference, other, "packet timeline diverged: {mode:?} {skip:?}");
        }
    }
}

/// A multi-cube context under `Parallel` with a capturing tracer runs
/// stage 3 on the calling thread, so the observation stream — the text
/// trace and the full Perfetto export, engine spans included — is the
/// sequential engine's, byte for byte.
#[test]
fn traced_fabric_run_is_byte_identical_across_engines() {
    let run = |mode: ExecMode| {
        let mut sim =
            HmcSim::with_config(SimConfig::mesh(DeviceConfig::gen2_4link_4gb(), 2, 2)).unwrap();
        sim.set_exec_mode(mode);
        sim.set_skip_mode(SkipMode::On);
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
        (text.lines(), perfetto::export(&snap, &PerfettoOptions::default()))
    };
    let (text, export) = run(ExecMode::Sequential);
    assert!(text.iter().any(|l| l.contains(": HOP :")), "traffic crossed cubes");
    assert!(text.iter().any(|l| l.contains(": ENGINE : idle skip")), "engine spans traced");
    for threads in [2usize, 3] {
        let (par_text, par_export) = run(ExecMode::Parallel { threads });
        assert_eq!(text, par_text, "text trace diverged at {threads} threads");
        assert_eq!(export, par_export, "export diverged at {threads} threads");
    }
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
    let mut restored = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    restored.enable_flight_recorder(1024);
    restored.restore(&snap).unwrap();
    let after = restored.flight_snapshot().unwrap();
    assert_eq!(
        perfetto::export(&before, &PerfettoOptions::default()),
        perfetto::export(&after, &PerfettoOptions::default()),
        "restored timeline renders identically"
    );
    assert_eq!(sim.state_fingerprint(), restored.state_fingerprint());
}
