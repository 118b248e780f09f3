//! `hmcfuzz` — the scenario fuzz farm CLI.
//!
//! ```text
//! hmcfuzz run --seed S [--seconds N | --count N] [--canary] [--out DIR]
//! hmcfuzz replay FILE... | --corpus DIR
//! hmcfuzz seed-corpus DIR
//! ```

use hmc_fuzz::corpus::{load_corpus_dir, load_scenario_file, pretty_render, save_reproducer};
use hmc_fuzz::runner::{capture_trace_events, run_scenario, RunnerConfig};
use hmc_fuzz::scenario::Scenario;
use hmc_fuzz::shrink::shrink;
use hmc_fuzz::{RunJournal, ScenarioGenerator};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
hmcfuzz — differential scenario fuzzer for hmcsim-rs

USAGE:
    hmcfuzz run --seed S [--seconds N | --count N] [--canary]
                [--out DIR] [--timeout SECS] [--shrink-runs N] [--resume]
        Generate scenarios from seed S and run each under the paired
        engine configurations. Failures are shrunk and written to
        --out (default `corpus-new/`). With --count the scenario
        stream is a fixed length (fully deterministic, CI-friendly);
        with --seconds it is time-boxed. --canary injects a known
        seeded divergence (a stats increment dropped under skip mode,
        seen as a fingerprint mismatch) and asserts the farm finds
        and shrinks it. Progress is journaled to `<out>/run.journal`
        after every scenario; --resume continues a killed campaign
        from that journal (same seed required) without skipping or
        repeating scenarios.

    hmcfuzz replay [--timeout SECS] FILE... | --corpus DIR
        Replay reproducer files (or a whole corpus directory); exits
        nonzero if any scenario fails.

    hmcfuzz seed-corpus DIR
        Write the canonical seed scenarios into DIR (used to refresh
        the checked-in corpus).
";

fn fail(message: String) -> ExitCode {
    eprintln!("hmcfuzz: {message}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("seed-corpus") => cmd_seed_corpus(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => fail(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

struct RunArgs {
    seed: u64,
    seconds: Option<u64>,
    count: Option<u64>,
    canary: bool,
    out: PathBuf,
    timeout: u64,
    shrink_runs: usize,
    resume: bool,
}

fn parse_value<T: std::str::FromStr>(
    args: &[String],
    i: &mut usize,
    flag: &str,
) -> Result<T, String> {
    *i += 1;
    let raw = args.get(*i).ok_or(format!("{flag} needs a value"))?;
    raw.parse().map_err(|_| format!("invalid value for {flag}: `{raw}`"))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut parsed = RunArgs {
        seed: 1,
        seconds: None,
        count: None,
        canary: false,
        out: PathBuf::from("corpus-new"),
        timeout: 30,
        shrink_runs: 400,
        resume: false,
    };
    let mut i = 0;
    while i < args.len() {
        let result = match args[i].as_str() {
            "--seed" => parse_value(args, &mut i, "--seed").map(|v| parsed.seed = v),
            "--seconds" => {
                parse_value(args, &mut i, "--seconds").map(|v| parsed.seconds = Some(v))
            }
            "--count" => parse_value(args, &mut i, "--count").map(|v| parsed.count = Some(v)),
            "--timeout" => parse_value(args, &mut i, "--timeout").map(|v| parsed.timeout = v),
            "--shrink-runs" => {
                parse_value(args, &mut i, "--shrink-runs").map(|v| parsed.shrink_runs = v)
            }
            "--out" => {
                parse_value::<String>(args, &mut i, "--out").map(|v| parsed.out = PathBuf::from(v))
            }
            "--canary" => {
                parsed.canary = true;
                Ok(())
            }
            "--resume" => {
                parsed.resume = true;
                Ok(())
            }
            other => Err(format!("unknown flag `{other}` for run")),
        };
        if let Err(message) = result {
            return fail(message);
        }
        i += 1;
    }
    if parsed.seconds.is_none() && parsed.count.is_none() {
        parsed.seconds = Some(60);
    }
    let config = RunnerConfig {
        timeout: Duration::from_secs(parsed.timeout),
        canary: parsed.canary,
    };
    let mut generator = ScenarioGenerator::new(parsed.seed);
    let started = Instant::now();
    let deadline = parsed.seconds.map(Duration::from_secs);
    let mut executed = 0u64;
    let mut failures = 0u64;
    let mut canary_found = false;
    if parsed.resume {
        match RunJournal::load(&parsed.out) {
            Ok(Some(journal)) => {
                if journal.seed != parsed.seed {
                    return fail(format!(
                        "--resume: journal in {} was written by seed {} but this \
                         run uses seed {} — refusing to mix scenario streams",
                        parsed.out.display(),
                        journal.seed,
                        parsed.seed
                    ));
                }
                // The stream is a pure function of the seed: replaying
                // the generator to the journaled index reproduces the
                // exact position of the killed campaign.
                while generator.position() < journal.next_index {
                    let _ = generator.next_scenario();
                }
                executed = journal.executed;
                failures = journal.failures;
                canary_found = journal.canary_found;
                println!(
                    "hmcfuzz run: resuming at scenario {} ({} executed, {} failures)",
                    journal.next_index, journal.executed, journal.failures
                );
            }
            Ok(None) => println!(
                "hmcfuzz run: no journal in {}: starting fresh",
                parsed.out.display()
            ),
            Err(e) => return fail(e.message),
        }
    }
    println!(
        "hmcfuzz run: seed={} {} canary={}",
        parsed.seed,
        match (parsed.count, parsed.seconds) {
            (Some(n), _) => format!("count={n}"),
            (None, Some(s)) => format!("seconds={s}"),
            (None, None) => unreachable!("defaulted above"),
        },
        parsed.canary
    );
    loop {
        if let Some(count) = parsed.count {
            if executed >= count {
                break;
            }
        }
        if let Some(budget) = deadline {
            if started.elapsed() >= budget {
                break;
            }
        }
        let index = generator.position();
        let scenario = generator.next_scenario();
        let outcome = run_scenario(&scenario, &config);
        executed += 1;
        println!(
            "[{index:>6}] {:<22} kernel={:<8} skip={:?} weight={}",
            outcome.class(),
            scenario.kernel.name(),
            scenario.sim.skip_mode,
            scenario.weight()
        );
        if let hmc_fuzz::runner::Outcome::SetupError { message } = &outcome {
            println!("    setup error: {message}");
        }
        if outcome.is_failure() {
            failures += 1;
            let report = shrink(&scenario, &outcome, &config, parsed.shrink_runs);
            println!(
                "    shrunk weight {} -> {} in {} runs",
                scenario.weight(),
                report.scenario.weight(),
                report.runs
            );
            // Attach a flight-recorder timeline to the reproducer so
            // the failing run can be inspected in ui.perfetto.dev;
            // sides that cannot finish simply carry no timeline.
            let trace_events = capture_trace_events(&report.scenario, config.timeout);
            match save_reproducer(
                &parsed.out,
                &report.scenario,
                &report.outcome,
                trace_events,
            ) {
                Ok(path) => println!("    reproducer: {}", path.display()),
                Err(e) => return fail(format!("cannot save reproducer: {e}")),
            }
            if parsed.canary
                && report.outcome.class() == "mismatch-fingerprint"
                && report.scenario.weight() <= 24
            {
                canary_found = true;
            }
        }
        let journal = RunJournal {
            seed: parsed.seed,
            next_index: generator.position(),
            executed,
            failures,
            canary_found,
        };
        if let Err(e) = journal.save(&parsed.out) {
            return fail(format!("cannot write journal: {e}"));
        }
    }
    println!("hmcfuzz run: {executed} scenarios, {failures} failures");
    if parsed.canary {
        if canary_found {
            println!("canary: found and shrunk to a minimal reproducer (self-test OK)");
            // The canary is an injected defect, not a real failure.
            return ExitCode::SUCCESS;
        }
        return fail(
            "canary divergence was NOT found+shrunk — the fuzz farm itself is broken".into(),
        );
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut timeout = 60u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--corpus" => match parse_value::<String>(args, &mut i, "--corpus") {
                Ok(dir) => match load_corpus_dir(&PathBuf::from(&dir)) {
                    Ok(corpus) => files.extend(corpus.into_iter().map(|(p, _)| p)),
                    Err(e) => return fail(e.message),
                },
                Err(message) => return fail(message),
            },
            "--timeout" => {
                if let Err(message) = parse_value(args, &mut i, "--timeout").map(|v| timeout = v) {
                    return fail(message);
                }
            }
            flag if flag.starts_with("--") => {
                return fail(format!("unknown flag `{flag}` for replay"))
            }
            file => files.push(PathBuf::from(file)),
        }
        i += 1;
    }
    if files.is_empty() {
        return fail("replay needs FILE arguments or --corpus DIR".into());
    }
    let config = RunnerConfig { timeout: Duration::from_secs(timeout), canary: false };
    let mut failed = false;
    for path in files {
        let scenario = match load_scenario_file(&path) {
            Ok(s) => s,
            Err(e) => return fail(e.message),
        };
        let outcome = run_scenario(&scenario, &config);
        println!("{}: {}", path.display(), outcome.class());
        if outcome.is_failure() {
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The canonical seed corpus: deterministic scenarios covering every
/// kernel and every engine axis, kept green in tier-1 CI as standing
/// regression anchors.
fn seed_scenarios() -> Vec<Scenario> {
    let mut generator = ScenarioGenerator::new(0xC0FFEE);
    let mut picked: Vec<Scenario> = Vec::new();
    let mut kernels_seen: Vec<&'static str> = Vec::new();
    // Walk the deterministic stream and keep the first scenario of
    // each kernel kind — a stable, diverse sample.
    while kernels_seen.len() < 6 && generator.position() < 500 {
        let scenario = generator.next_scenario();
        if !kernels_seen.contains(&scenario.kernel.name()) {
            kernels_seen.push(scenario.kernel.name());
            picked.push(scenario);
        }
    }
    // Plus one standing anchor for the tracing axis: the first
    // scenario that attaches the flight recorder to its variant,
    // pinning the recorder's zero-perturbation contract in corpus
    // replay.
    let mut generator = ScenarioGenerator::new(0xC0FFEE);
    while generator.position() < 500 {
        let scenario = generator.next_scenario();
        if scenario.trace {
            picked.push(scenario);
            break;
        }
    }
    // And one for the timing axis: the first scenario that pairs the
    // row-buffer backend with a refresh plan AND a live fault plan,
    // pinning refresh-aware bank timing under fault injection in
    // corpus replay.
    let mut generator = ScenarioGenerator::new(0xC0FFEE);
    while generator.position() < 500 {
        let scenario = generator.next_scenario();
        let cube = &scenario.sim.devices[0];
        if scenario.sim.timing == hmc_sim::TimingSelect::RowBuffer
            && cube.refresh.is_some()
            && !cube.fault.is_none()
        {
            picked.push(scenario);
            break;
        }
    }
    picked
}

fn cmd_seed_corpus(args: &[String]) -> ExitCode {
    let Some(dir) = args.first() else {
        return fail("seed-corpus needs a target directory".into());
    };
    let dir = PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return fail(format!("cannot create {}: {e}", dir.display()));
    }
    for (i, scenario) in seed_scenarios().into_iter().enumerate() {
        let path = dir.join(format!("seed-{:02}-{}.json", i, scenario.kernel.name()));
        // Atomic write: a kill mid-refresh never leaves a torn seed
        // file in the checked-in corpus.
        if let Err(e) = hmc_sim::atomic_write(&path, pretty_render(&scenario).as_bytes()) {
            return fail(format!("cannot write {}: {e}", path.display()));
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
