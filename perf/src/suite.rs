//! Every workload in one command: each run is a child process of this
//! binary (so `peak_rss_mb` is per workload), three untraced
//! repetitions plus one traced, medians with their spread, the
//! cross-repetition simulated-domain check, and `out/results.json`.
//!
//! `--check-repeat` runs two full sets on one seed and one on the next
//! seed, and fails unless the two agree: host-domain metrics within
//! their bounds, simulated-domain values exactly.

use crate::metrics::{END_TO_END, WORKLOADS};
use crate::single::{out_dir, NOT_DRIVEN};
use crate::util::{median, spread};
use crate::Opts;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// Untraced repetitions per workload; each end-to-end value is their
/// median.
const REPS: usize = 3;

/// What one child run printed.
struct Child {
    /// `metric <name> <value> <unit>` lines; the flag is false for a
    /// layer the workload does not drive (reported as 0).
    metrics: BTreeMap<String, (f64, String, bool)>,
    /// The `check ...` line: simulated-domain state of the first round.
    check: String,
    /// The `raw ...` line: per-round walls and set-up samples.
    raw: String,
    passed: bool,
}

fn child(workload: &str, opts: &Opts, trace: bool) -> Child {
    // The child inherits this process's environment, from which `main`
    // already removed the `HMCSIM_*` overrides.
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args(["--seed", &opts.seed.to_string()])
    .args(["--seconds", &opts.seconds.to_string()])
    .args(["--scale", &opts.scale.to_string()]);
    let output = cmd.output().expect("child process starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut out = Child {
        metrics: BTreeMap::new(),
        check: String::new(),
        raw: String::new(),
        passed: output.status.success(),
    };
    for line in stdout.lines() {
        println!("    | {line}");
        let mut words = line.split_whitespace();
        match words.next() {
            Some("metric") => {
                if let (Some(name), Some(value), Some(unit)) =
                    (words.next(), words.next(), words.next())
                {
                    let value = value.parse().expect("metric value is a number");
                    let driven = !line.ends_with(NOT_DRIVEN);
                    out.metrics
                        .insert(name.to_string(), (value, unit.to_string(), driven));
                }
            }
            Some("check") => out.check = line.to_string(),
            Some("raw") => out.raw = line.to_string(),
            _ => {}
        }
    }
    if !output.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&output.stderr));
    }
    out
}

/// One workload of one set.
struct Measured {
    /// Per end-to-end metric: the repetitions' values.
    end_to_end: BTreeMap<&'static str, Vec<f64>>,
    per_layer: BTreeMap<String, (f64, String, bool)>,
    check: String,
    raws: Vec<String>,
    passed: bool,
}

type Set = BTreeMap<&'static str, Measured>;

fn run_set(opts: &Opts) -> Set {
    let mut set = Set::new();
    for workload in WORKLOADS {
        println!("== {workload} (seed {})", opts.seed);
        let untraced: Vec<Child> = (0..REPS).map(|_| child(workload, opts, false)).collect();
        let traced = child(workload, opts, true);
        let check = untraced[0].check.clone();
        let same_state = untraced
            .iter()
            .chain([&traced])
            .all(|c| c.check == check && !c.check.is_empty());
        if !same_state {
            println!(
                "  FAILED: repetitions disagree on sim_cycles / state_fingerprint / sim.stats"
            );
        }
        let mut m = Measured {
            end_to_end: BTreeMap::new(),
            per_layer: traced.metrics.clone(),
            check,
            raws: untraced
                .iter()
                .chain([&traced])
                .map(|c| c.raw.clone())
                .collect(),
            passed: same_state && untraced.iter().chain([&traced]).all(|c| c.passed),
        };
        for (def, _) in &END_TO_END {
            let values: Vec<f64> = untraced
                .iter()
                .filter_map(|c| c.metrics.get(def.name).map(|(v, ..)| *v))
                .collect();
            if values.len() == REPS {
                println!(
                    "  {:<18} {:>16.4} {:<7} median of {REPS}, (max-min)/median {:.2}%",
                    def.name,
                    median(&values),
                    def.unit,
                    100.0 * spread(&values)
                );
                m.end_to_end.insert(def.name, values);
            } else {
                println!("  FAILED: {} missing from a repetition", def.name);
                m.passed = false;
            }
        }
        for (name, (value, unit, _)) in m.per_layer.iter().filter(|(_, v)| v.2) {
            println!("  {name:<38} {value:>18.4} {unit}");
        }
        println!(
            "  {}",
            if m.passed {
                "checks passed"
            } else {
                "CHECKS FAILED"
            }
        );
        set.insert(workload, m);
    }
    set
}

/// Compares two sets of one build and seed; prints each disagreement.
fn sets_agree(a: &Set, b: &Set) -> bool {
    let mut ok = true;
    for workload in WORKLOADS {
        let (ma, mb) = (&a[workload], &b[workload]);
        if ma.check != mb.check {
            println!("  {workload}: simulated-domain state differs between the sets");
            ok = false;
        }
        for (def, bound) in &END_TO_END {
            let (Some(va), Some(vb)) = (ma.end_to_end.get(def.name), mb.end_to_end.get(def.name))
            else {
                ok = false;
                continue;
            };
            let (x, y) = (median(va), median(vb));
            let apart = (x - y).abs() / x.min(y);
            // The one end-to-end metric in the simulated-time domain repeats
            // exactly for one seed.
            let exact = def.name == "sim_cycles";
            let agree = if exact { x == y } else { apart <= *bound };
            println!(
                "  {workload:<13} {:<18} {x:>16.4} vs {y:>16.4}  {:.2}% apart ({}) {}",
                def.name,
                100.0 * apart,
                if exact {
                    "must be equal".to_string()
                } else {
                    format!("bound {:.0}%", 100.0 * bound)
                },
                if agree { "ok" } else { "DISAGREE" }
            );
            ok &= agree;
        }
    }
    ok
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn results_json(opts: &Opts, sets: &[(u64, &Set)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\n  \"host\": {{\"nproc\": {nproc}, \"rustc\": {}, \"git_commit\": {}}},",
        quoted(&command_line("rustc", &["-V"])),
        quoted(&command_line("git", &["rev-parse", "HEAD"]))
    );
    let _ = writeln!(
        out,
        "  \"seconds\": {}, \"scale\": {}, \"repetitions\": {REPS},\n  \"sets\": [",
        opts.seconds, opts.scale
    );
    for (i, (seed, set)) in sets.iter().enumerate() {
        let _ = writeln!(out, "    {{\"seed\": {seed}, \"workloads\": {{");
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let m = &set[workload];
            let _ = writeln!(out, "      {}: {{", quoted(workload));
            let _ = writeln!(out, "        \"passed\": {},", m.passed);
            let _ = writeln!(out, "        \"check\": {},", quoted(&m.check));
            let raws: Vec<String> = m.raws.iter().map(|r| quoted(r)).collect();
            let _ = writeln!(out, "        \"raw\": [{}],", raws.join(", "));
            let e2e: Vec<String> = END_TO_END
                .iter()
                .filter_map(|(def, _)| m.end_to_end.get(def.name).map(|v| (def, v)))
                .map(|(def, v)| {
                    let reps: Vec<String> = v.iter().map(|x| x.to_string()).collect();
                    format!(
                        "{}: {{\"unit\": {}, \"median\": {}, \"spread\": {}, \"repetitions\": [{}]}}",
                        quoted(def.name),
                        quoted(def.unit),
                        median(v),
                        spread(v),
                        reps.join(", ")
                    )
                })
                .collect();
            let _ = writeln!(out, "        \"end_to_end\": {{{}}},", e2e.join(", "));
            let layers: Vec<String> = m
                .per_layer
                .iter()
                .map(|(name, (v, unit, driven))| {
                    format!(
                        "{}: {{\"value\": {v}, \"unit\": {}, \"driven\": {driven}}}",
                        quoted(name),
                        quoted(unit)
                    )
                })
                .collect();
            let _ = writeln!(out, "        \"per_layer\": {{{}}}", layers.join(", "));
            let _ = writeln!(
                out,
                "      }}{}",
                if w + 1 == WORKLOADS.len() { "" } else { "," }
            );
        }
        let _ = writeln!(
            out,
            "    }}}}{}",
            if i + 1 == sets.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the whole benchmark; true when every check of every set held
/// (and, with `check_repeat`, the two same-seed sets agreed).
pub fn run(opts: &Opts, check_repeat: bool) -> bool {
    let first = run_set(opts);
    let mut passed = first.values().all(|m| m.passed);
    let mut sets = vec![(opts.seed, first)];
    if check_repeat {
        sets.push((opts.seed, run_set(opts)));
        // A second seed shows the checks are not seed-specific.
        let other = Opts {
            seed: opts.seed + 1,
            ..opts.clone()
        };
        sets.push((other.seed, run_set(&other)));
        passed &= sets.iter().all(|(_, s)| s.values().all(|m| m.passed));
        println!("== same build, same seed, run twice");
        let agree = sets_agree(&sets[0].1, &sets[1].1);
        println!(
            "  {}",
            if agree {
                "the two sets agree"
            } else {
                "THE TWO SETS DISAGREE"
            }
        );
        passed &= agree;
    }
    let path = out_dir().join("results.json");
    let sets: Vec<(u64, &Set)> = sets.iter().map(|(seed, s)| (*seed, s)).collect();
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, results_json(opts, &sets)));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            passed = false;
        }
    }
    println!(
        "{}",
        if passed {
            "benchmark checks passed"
        } else {
            "BENCHMARK CHECKS FAILED"
        }
    );
    passed
}
