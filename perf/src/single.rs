//! One run of one workload: what `BENCHMARK.json`'s command executes.
//!
//! Prints every metric by name with its unit (`metric <name> <value>
//! <unit>`), the simulated-domain check line, the raw samples, and —
//! as the last line — the result object the benchmark driver reads.

use crate::metrics::{Report, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::{
    gups_mesh16::GupsMesh16, looped, mutex_sweep, replay_audit, stream_sat::StreamSat, Opts,
};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Marks the `metric` line of a layer the workload does not drive (its
/// value is a placeholder 0); the suite reads it back.
pub const NOT_DRIVEN: &str = "  # layer not driven by this workload";

/// Where run artefacts go: `perf/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn measure(workload: &str, opts: &Opts) -> (Report, Spans) {
    let (seed, scale) = (opts.seed, opts.scale);
    match workload {
        "stream_sat" => looped::run(opts, || StreamSat::generate(seed, scale)),
        "gups_mesh16" => looped::run(opts, || GupsMesh16::generate(seed, scale)),
        "mutex_sweep" => mutex_sweep::run(opts),
        "replay_audit" => replay_audit::run(opts),
        other => unreachable!("main rejects unknown workload {other}"),
    }
}

/// JSON has no NaN or infinity; a ratio over zero calls reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Runs `workload` and prints its results; true when every check held.
pub fn run(workload: &str, opts: &Opts) -> bool {
    println!(
        "perf workload={workload} seed={} seconds={} scale={} trace={}",
        opts.seed,
        opts.seconds,
        opts.scale,
        u8::from(opts.trace)
    );
    let (report, spans) = measure(workload, opts);
    let mut json = String::new();
    let mut emit = |name: &str, value: f64, unit: &str, note: &str| {
        let value = finite(value);
        println!("metric {name} {value} {unit}{note}");
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    };

    if opts.trace {
        spans.print_summary();
        for def in &PER_LAYER {
            match report.layers.get(def.name) {
                Some(&v) => emit(def.name, v, def.unit, ""),
                None => emit(def.name, 0.0, def.unit, NOT_DRIVEN),
            }
        }
        let path = out_dir().join(format!("trace-{workload}.json"));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, spans.chrome_trace()));
        match written {
            Ok(()) => println!("spans of the first iterations: {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    } else {
        for ((def, _), (value, samples)) in END_TO_END.iter().zip(report.end_to_end()) {
            let note = match samples {
                Some((n, spread)) => {
                    format!("  # median of {n}, (max-min)/median {:.1}%", 100.0 * spread)
                }
                None => String::new(),
            };
            emit(def.name, value, def.unit, &note);
        }
        println!(
            "failed_share {} share  # {} failed of {} attempted",
            report.failed as f64 / report.attempted.max(1) as f64,
            report.failed,
            report.attempted
        );
        match report.paper_err_pct {
            Some(e) => println!("paper_err_pct {e} %  # worst-avg vs Table VI 226.48 / 221.48"),
            None => println!(
                "paper_err_pct unvalidated  # no hardware or paper reference for this workload"
            ),
        }
    }

    let s = &report.sim;
    println!(
        "check sim_cycles={} fingerprint={:#018x} rqst_flits={} rsp_flits={} send_stalls={} \
         xbar_stalls={} vault_stalls={} forwarded={} lat_p50_cycles={} lat_p99_cycles={}",
        s.sim_cycles,
        s.fingerprint,
        s.rqst_flits,
        s.rsp_flits,
        s.send_stalls,
        s.xbar_stalls,
        s.vault_stalls,
        s.forwarded,
        s.lat_p50_cycles,
        s.lat_p99_cycles
    );
    let walls: Vec<String> = report.rounds.iter().map(|r| r.wall_s.to_string()).collect();
    let setups: Vec<String> = report
        .setup_samples_s
        .iter()
        .map(|s| s.to_string())
        .collect();
    println!(
        "raw round_walls_s=[{}] setup_samples_s=[{}]",
        walls.join(","),
        setups.join(",")
    );

    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        report.attempted.max(1),
        report.failed
    );
    correct
}
