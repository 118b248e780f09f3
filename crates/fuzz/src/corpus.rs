//! Reproducer corpus: versioned, self-contained scenario files.
//!
//! Every failure the fuzzer shrinks is serialized to
//! `repro-<class>-<digest>.json`. Checked into `corpus/`, such a file
//! becomes a permanent regression test: `tests/fuzz_corpus.rs` replays
//! the whole directory under `cargo test`. Loading is strict — a file
//! with an unknown schema version or an unknown field is rejected with
//! the **file path and version** in the message, never silently
//! reinterpreted.

use crate::runner::Outcome;
use crate::scenario::Scenario;
use hmc_sim::{Fnv, JsonError};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Loads one scenario file, prefixing every error with the file path.
pub fn load_scenario_file(path: &Path) -> Result<Scenario, JsonError> {
    let at = |message: String| JsonError { message: format!("{}: {message}", path.display()) };
    let text = fs::read_to_string(path).map_err(|e| at(format!("cannot read file: {e}")))?;
    Scenario::from_json_str(&text).map_err(|e| at(e.message))
}

/// Loads every `.json` file in a corpus directory, sorted by file name
/// for deterministic replay order. A missing directory is an empty
/// corpus; an unreadable or invalid file is an error.
pub fn load_corpus_dir(dir: &Path) -> Result<Vec<(PathBuf, Scenario)>, JsonError> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let entries = fs::read_dir(dir).map_err(|e| JsonError {
        message: format!("{}: cannot read corpus directory: {e}", dir.display()),
    })?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut corpus = Vec::with_capacity(paths.len());
    for path in paths {
        let scenario = load_scenario_file(&path)?;
        corpus.push((path, scenario));
    }
    Ok(corpus)
}

/// Stable content digest used in reproducer file names, so the same
/// minimal scenario always lands in the same file (no duplicates).
pub fn scenario_digest(scenario: &Scenario) -> u64 {
    let mut fnv = Fnv::new();
    for byte in scenario.to_json().render().into_bytes() {
        fnv.u64(byte as u64);
    }
    fnv.finish()
}

/// Writes a shrunk reproducer into `dir` as
/// `repro-<class>-<digest>.json` and returns the path. The write is
/// atomic (tmp → fsync → rename), so a crash mid-save can never leave
/// a torn reproducer for corpus replay to choke on.
///
/// When `trace_events` is given (a Perfetto trace-event JSON array
/// from [`capture_trace_events`](crate::runner::capture_trace_events)),
/// it is embedded under a top-level `traceEvents` key: the reproducer
/// file then opens directly in <https://ui.perfetto.dev> as a timeline
/// of the failing run. The loader ignores the key, and the file name
/// digest covers the scenario alone, so embedding never forks
/// reproducer identity.
pub fn save_reproducer(
    dir: &Path,
    scenario: &Scenario,
    outcome: &Outcome,
    trace_events: Option<&str>,
) -> io::Result<PathBuf> {
    let name = format!("repro-{}-{:016x}.json", outcome.class(), scenario_digest(scenario));
    let path = dir.join(name);
    let mut doc = scenario.to_json();
    if let Some(events) = trace_events {
        let parsed = hmc_sim::Json::parse(events).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad trace events: {}", e.message))
        })?;
        if let hmc_sim::Json::Obj(fields) = &mut doc {
            fields.push(("traceEvents".into(), parsed));
        }
    }
    let mut text = doc.render();
    text.push('\n');
    hmc_sim::atomic_write(&path, text.as_bytes())?;
    Ok(path)
}

/// Renders a scenario with a trailing newline (stable bytes; friendly
/// to check in).
pub fn pretty_render(scenario: &Scenario) -> String {
    let mut text = scenario.to_json().render();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::{DeviceConfig, SimConfig, TelemetryConfig};
    use hmc_workloads::KernelDescriptor;

    fn sample() -> Scenario {
        Scenario {
            seed: 5,
            kernel: KernelDescriptor::Counter { threads: 2, increments: 3, cache_rmw: false },
            sim: SimConfig::single(DeviceConfig::gen2_4link_4gb()),
            trace: false,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("hmcfuzz-corpus-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let s = sample();
        let path = save_reproducer(&dir, &s, &Outcome::Pass, None).unwrap();
        assert_eq!(load_scenario_file(&path).unwrap(), s);
        let corpus = load_corpus_dir(&dir).unwrap();
        assert_eq!(corpus.len(), 1);
        assert_eq!(corpus[0].1, s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn embedded_trace_events_survive_save_and_are_ignored_on_load() {
        let dir = temp_dir("traced");
        let s = sample();
        let events = r#"[{"name":"send","ph":"X","ts":1,"dur":1,"pid":0,"tid":0}]"#;
        let path = save_reproducer(&dir, &s, &Outcome::Pass, Some(events)).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("traceEvents"), "{text}");
        assert!(text.contains("\"ph\""), "{text}");
        assert_eq!(load_scenario_file(&path).unwrap(), s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_errors_carry_the_file_path() {
        let dir = temp_dir("patherr");
        let path = dir.join("bad.json");
        fs::write(&path, "{\"schema_version\": 77}").unwrap();
        let e = load_scenario_file(&path).unwrap_err();
        assert!(e.message.contains("bad.json"), "{}", e.message);
        assert!(e.message.contains("schema_version 77"), "{}", e.message);
        let e = load_corpus_dir(&dir).unwrap_err();
        assert!(e.message.contains("bad.json"), "{}", e.message);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_an_empty_corpus() {
        let dir = temp_dir("gone").join("nope");
        assert!(load_corpus_dir(&dir).unwrap().is_empty());
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let a = scenario_digest(&sample());
        assert_eq!(a, scenario_digest(&sample()));
        let mut other = sample();
        other.sim.telemetry = TelemetryConfig::full();
        assert_ne!(a, scenario_digest(&other));
    }
}
