//! Tier-1 replay of the checked-in fuzz reproducer corpus.
//!
//! Every file in `corpus/` is a versioned, self-contained scenario
//! that once exposed a defect (or anchors a kernel/engine pairing as
//! a standing regression). This suite replays the whole directory
//! under `cargo test`, and locks down the loader's strictness: a file
//! with an unknown schema version or an unknown field must be
//! rejected loudly, with the file path and version in the message.

use hmc_fuzz::corpus::{load_corpus_dir, load_scenario_file};
use hmc_fuzz::runner::{run_scenario, RunnerConfig};
use hmc_fuzz::scenario::Scenario;
use hmc_fuzz::shrink::shrink;
use hmc_fuzz::{ScenarioGenerator, SCHEMA_VERSION};
use hmc_sim::{DeviceConfig, FaultPlan, LinkTopology, SimConfig, SkipMode, TelemetryConfig};
use hmc_workloads::KernelDescriptor;
use std::path::PathBuf;
use std::time::Duration;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hmcfuzz-tier1-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn corpus_is_present_and_replays_clean() {
    let corpus = load_corpus_dir(&corpus_dir()).expect("corpus must load");
    assert!(
        corpus.len() >= 8,
        "expected the seeded corpus (>= 8 scenarios), found {}",
        corpus.len()
    );
    let config = RunnerConfig { timeout: Duration::from_secs(120), canary: false };
    for (path, scenario) in corpus {
        let outcome = run_scenario(&scenario, &config);
        assert!(
            !outcome.is_failure(),
            "{}: corpus replay failed with {:?}",
            path.display(),
            outcome
        );
    }
}

#[test]
fn corpus_covers_every_kernel_kind() {
    let corpus = load_corpus_dir(&corpus_dir()).unwrap();
    let kernels: std::collections::BTreeSet<&str> =
        corpus.iter().map(|(_, s)| s.kernel.name()).collect();
    for expected in ["raw_ops", "counter", "gups", "triad", "mutex", "barrier"] {
        assert!(kernels.contains(expected), "no corpus scenario exercises `{expected}`");
    }
}

/// The timing axis must stay anchored in the corpus: at least one
/// checked-in seed replays the row-buffer backend with a refresh plan
/// under a live fault plan, so refresh-aware bank timing keeps its
/// standing differential regression.
#[test]
fn corpus_anchors_row_buffer_timing_under_faults() {
    let corpus = load_corpus_dir(&corpus_dir()).unwrap();
    assert!(
        corpus.iter().any(|(_, s)| s.sim.timing == hmc_sim::TimingSelect::RowBuffer
            && s.sim.devices[0].refresh.is_some()
            && !s.sim.devices[0].fault.is_none()),
        "no corpus scenario pairs RowBuffer timing with refresh and faults"
    );
}

#[test]
fn unknown_schema_version_is_rejected_with_path_and_version() {
    let dir = scratch_dir("badversion");
    let path = dir.join("future.json");
    let mut text = std::fs::read_to_string(
        corpus_dir().join("seed-05-counter.json"),
    )
    .unwrap();
    text = text.replace("\"schema_version\":1", "\"schema_version\":99");
    std::fs::write(&path, text).unwrap();
    let err = load_scenario_file(&path).unwrap_err();
    assert!(err.message.contains("future.json"), "no file path in: {}", err.message);
    assert!(err.message.contains("schema_version 99"), "no version in: {}", err.message);
    assert!(
        err.message.contains("versions 1 to 3"),
        "message should state the supported versions: {}",
        err.message
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_field_is_rejected_with_path() {
    let dir = scratch_dir("badfield");
    let path = dir.join("extra.json");
    let mut text = std::fs::read_to_string(
        corpus_dir().join("seed-05-counter.json"),
    )
    .unwrap();
    text = text.replace("\"schema_version\":1", "\"schema_version\":1,\"surprise\":true");
    std::fs::write(&path, text).unwrap();
    let err = load_scenario_file(&path).unwrap_err();
    assert!(err.message.contains("extra.json"), "no file path in: {}", err.message);
    assert!(err.message.contains("surprise"), "no field name in: {}", err.message);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The checked-in files are schema 1, kept byte for byte as the
/// legacy-load coverage: each loads, re-renders as the current schema
/// (its machine one `sim` configuration), and reloads to the same
/// scenario. The same bytes relabelled are refused: as schema 2
/// `exec_threads` is an unknown field, and the current schema wants
/// the machine under `sim`.
#[test]
fn version_1_corpus_files_re_render_as_the_current_schema() {
    let corpus = load_corpus_dir(&corpus_dir()).unwrap();
    for (path, scenario) in &corpus {
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("\"schema_version\":1,"), "{}", path.display());
        assert!(text.contains("\"exec_threads\":"), "{}", path.display());
        let rendered = scenario.to_json().render();
        let current = format!("\"schema_version\":{SCHEMA_VERSION},");
        assert!(rendered.starts_with(&format!("{{{current}")), "{rendered}");
        assert!(!rendered.contains("exec_threads"), "{rendered}");
        assert_eq!(&Scenario::from_json_str(&rendered).unwrap(), scenario, "{}", path.display());
        for (version, want) in [
            ("\"schema_version\":2,", "unknown field(s): exec_threads"),
            (current.as_str(), "missing field `sim`"),
        ] {
            let relabelled = text.replace("\"schema_version\":1,", version);
            let err = Scenario::from_json_str(&relabelled).unwrap_err();
            assert!(err.message.contains(want), "{}: {}", path.display(), err.message);
        }
    }
}

#[test]
fn truncated_file_is_rejected_with_path() {
    let dir = scratch_dir("truncated");
    let path = dir.join("cut.json");
    std::fs::write(&path, "{\"schema_version\":1,").unwrap();
    let err = load_scenario_file(&path).unwrap_err();
    assert!(err.message.contains("cut.json"), "no file path in: {}", err.message);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn generator_stream_is_reproducible_across_calls() {
    let take = |seed: u64| {
        let mut g = ScenarioGenerator::new(seed);
        (0..16).map(|_| g.next_scenario()).collect::<Vec<_>>()
    };
    assert_eq!(take(0xFEED), take(0xFEED));
}

/// The fabric axis must stay anchored in the corpus: at least one
/// checked-in seed replays a multi-cube ring under a live fault plan
/// (scheduled link outage included) with idle-cycle skipping on — the
/// corner where per-cube event horizons, fault delivery on idle cubes
/// and the skip engine all interact.
#[test]
fn corpus_anchors_ring_fabric_under_faults_and_skip() {
    let corpus = load_corpus_dir(&corpus_dir()).unwrap();
    assert!(
        corpus.iter().any(|(_, s)| s.sim.topology == LinkTopology::Ring
            && s.sim.skip_mode == SkipMode::On
            && !s.sim.devices[0].fault.link_schedule.is_empty()),
        "no corpus scenario pairs a ring fabric with link outages and skip mode"
    );
}

/// A legacy `fabric` count above the 16 cubes a CUB addresses is
/// refused: read through a `u8` it used to wrap (`"cubes": 259` loaded
/// as a 3-cube ring, `"cols": 258` as 2).
#[test]
fn legacy_fabric_counts_beyond_the_cube_space_are_refused() {
    let text = std::fs::read_to_string(corpus_dir().join("seed-08-fabric_ring.json")).unwrap();
    let ring = r#""fabric":{"kind":"ring","cubes":4}"#;
    assert!(text.contains(ring));
    for (fabric, key) in [
        (r#""fabric":{"kind":"ring","cubes":259}"#, "cubes"),
        (r#""fabric":{"kind":"chain","cubes":258}"#, "cubes"),
        (r#""fabric":{"kind":"mesh","cols":258,"rows":2}"#, "cols"),
        (r#""fabric":{"kind":"mesh","cols":2,"rows":257}"#, "rows"),
    ] {
        let err = Scenario::from_json_str(&text.replace(ring, fabric)).unwrap_err();
        let want = format!("fabric: `{key}` is 2");
        assert!(err.message.contains(&want), "{fabric}: {}", err.message);
    }
}

/// Satellite 1 end-to-end: with the canary enabled, a scenario running
/// under skip mode must diverge on the stats axis, and the shrinker
/// must reduce it to a bounded-size reproducer.
#[test]
fn canary_divergence_is_found_and_shrunk() {
    let mut d = DeviceConfig::gen2_8link_8gb();
    d.fault = FaultPlan::seeded(3).with_poison(8_000);
    let fat = Scenario {
        seed: 0xBADC0DE,
        kernel: KernelDescriptor::RawOps { ops: 80, seed: 13, gap: 6, drain: 256 },
        sim: SimConfig {
            skip_mode: SkipMode::On,
            telemetry: TelemetryConfig::full(),
            timing: hmc_sim::TimingSelect::RowBuffer,
            ..SimConfig::chain(d, 3)
        },
        trace: true,
    };
    let config = RunnerConfig { canary: true, ..Default::default() };
    let outcome = run_scenario(&fat, &config);
    assert_eq!(outcome.class(), "mismatch-stats", "canary must fire under skip mode");
    let report = shrink(&fat, &outcome, &config, 400);
    assert_eq!(report.outcome.class(), "mismatch-stats");
    assert!(
        report.scenario.weight() <= 24,
        "canary reproducer not minimal (weight {}): {:?}",
        report.scenario.weight(),
        report.scenario
    );
}
