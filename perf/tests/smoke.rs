//! Smoke test: the whole benchmark at 1 % size. Every metric that
//! `BENCHMARK.json` names must be printed with its unit for every
//! workload, and every output check must pass.

use hmc_perf::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

#[test]
fn benchmark_json_publishes_exactly_the_metric_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repo root");
    for workload in WORKLOADS {
        assert!(
            text.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")),
            "{workload} missing"
        );
    }
    for (def, bound) in &END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
            def.name, def.unit, def.better
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for def in &PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            def.name, def.unit, def.better
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let named = text.matches("{\"name\": ").count();
    assert_eq!(
        named,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
        "extra entries in BENCHMARK.json"
    );
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--seed", "7", "--seconds", "0.3", "--scale", "0.01"])
        // The benchmark pins its engine settings; a stray (even
        // malformed) override in the caller's environment must not
        // reach the simulator.
        .env("HMCSIM_THREADS", "banana")
        .env("HMCSIM_SKIP", "1")
        .env("HMCSIM_TIMING", "row_buffer")
        .output()
        .expect("perf binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "perf failed\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("benchmark checks passed"));

    // Child output is echoed as `    | metric <name> <value> <unit>`
    // under a `== <workload>` heading.
    let mut printed: BTreeMap<String, BTreeSet<(String, String)>> = BTreeMap::new();
    let mut workload = String::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("== ") {
            workload = rest
                .split_whitespace()
                .next()
                .expect("workload name")
                .to_string();
        } else if let Some(rest) = line.strip_prefix("    | metric ") {
            let words: Vec<&str> = rest.split_whitespace().collect();
            assert!(
                words[1].parse::<f64>().is_ok_and(f64::is_finite),
                "not a number: {line}"
            );
            printed
                .entry(workload.clone())
                .or_default()
                .insert((words[0].into(), words[2].into()));
        }
    }
    for workload in WORKLOADS {
        let seen = printed
            .get(workload)
            .unwrap_or_else(|| panic!("{workload} did not run"));
        let names = END_TO_END.iter().map(|(d, _)| d).chain(&PER_LAYER);
        for def in names {
            assert!(
                seen.contains(&(def.name.to_string(), def.unit.to_string())),
                "{workload} did not print {} in {}",
                def.name,
                def.unit
            );
        }
    }

    let results =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("out/results.json"))
            .expect("the suite writes out/results.json");
    assert_eq!(results.matches("\"passed\": true").count(), WORKLOADS.len());
    for key in [
        "\"nproc\"",
        "\"rustc\"",
        "\"git_commit\"",
        "\"seed\": 7",
        "\"scale\": 0.01",
        "round_walls_s",
    ] {
        assert!(results.contains(key), "results.json lacks {key}");
    }
}
