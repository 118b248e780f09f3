//! Observability CLI (paper §IV-A): runs workloads in one 4Link-4GB
//! context with every observer attached — a text trace, the flight
//! recorder and full telemetry — and prints one view of the run, or
//! summarizes a text trace file.
//!
//! ```text
//! cargo run --release -p hmc-bench --bin explain                  # tables + trace summary
//! cargo run --release -p hmc-bench --bin explain -- --workload triad,mutex --format prom
//! cargo run --release -p hmc-bench --bin explain -- --format json --out report.json
//! cargo run --release -p hmc-bench --bin explain -- --format perfetto \
//!     --capacity 4096 --packets-only --out trace.json           # open at ui.perfetto.dev
//! cargo run --release -p hmc-bench --bin explain -- trace.log     # `-` reads stdin
//! ```
//!
//! `--workload` is a comma list of `mutex|gups|triad`, run in order
//! (default `mutex`, 16 threads). The same arguments print the same
//! bytes.

use hmc_sim::perfetto::{self, PerfettoOptions};
use hmc_sim::trace_analysis::TraceSummary;
use hmc_sim::{DeviceConfig, HmcSim, Stage, TelemetryConfig};
use hmc_sim::{TelemetryReport, TraceBuffer, TraceLevel, Tracer};
use hmc_workloads::kernels::gups::{GupsConfig, GupsKernel};
use hmc_workloads::kernels::triad::{TriadConfig, TriadKernel};
use hmc_workloads::{MutexKernel, MutexKernelConfig};
use std::fmt::{Display, Write};
use std::io::Read;

fn fail(msg: impl Display) -> ! {
    eprintln!("explain: {msg}");
    std::process::exit(2);
}

fn or_fail<T>(what: &str, result: Result<T, impl Display>) -> T {
    result.unwrap_or_else(|e| fail(format!("{what}: {e}")))
}

fn main() {
    let args = hmc_bench::Args::from_env(&[
        "--format", "--out", "--threads", "--capacity", "--workload", "--packets-only",
    ]);
    let format = args.get("--format").unwrap_or("table");
    if !matches!(format, "table" | "prom" | "json" | "perfetto") {
        fail(format!("unknown --format '{format}' (expected table|prom|json|perfetto)"));
    }
    let out = args.get("--out");
    let rendered = match args.first().filter(|a| !a.starts_with("--")) {
        Some(path) => summarize(&read_lines(path)),
        None => run(&args, format),
    };
    match out {
        Some(path) => {
            if let Some(parent) = std::path::Path::new(path).parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            or_fail(&format!("cannot write {path}"), std::fs::write(path, &rendered));
            eprintln!("wrote {} bytes to {path}", rendered.len());
        }
        // A Perfetto file carries no trailing newline; stdout gets one.
        None if format == "perfetto" => println!("{rendered}"),
        None => print!("{rendered}"),
    }
}

fn read_lines(path: &str) -> Vec<String> {
    let mut text = String::new();
    let read = match path {
        "-" => std::io::stdin().read_to_string(&mut text).map(drop),
        _ => std::fs::read_to_string(path).map(|s| text = s),
    };
    or_fail(&format!("cannot read {path}"), read);
    text.lines().map(str::to_string).collect()
}

/// The trace report: `TraceSummary::render`, the latency quantiles and
/// log2 buckets, and the count of non-trace lines.
fn summarize(lines: &[String]) -> String {
    let summary = TraceSummary::from_lines(lines.iter().map(String::as_str));
    let mut s = summary.render();
    let h = &summary.latency;
    if !h.is_empty() {
        let (p50, p90, p99, p999) = (h.p50(), h.p90(), h.p99(), h.p999());
        let _ = writeln!(s, "latency quantiles: p50 {p50} / p90 {p90} / p99 {p99} / p999 {p999}");
        s.push_str("latency buckets (<= bound: count):\n");
        for (upper, count) in h.nonzero_buckets() {
            let bar = "#".repeat(((count * 40).div_ceil(h.count())) as usize);
            let _ = writeln!(s, "  <= {upper:>8} : {count:>6} {bar}");
        }
    }
    if summary.skipped_lines > 0 {
        let _ = writeln!(s, "({} non-trace lines skipped)", summary.skipped_lines);
    }
    s
}

/// Runs the `--workload` list with a text trace, the flight recorder
/// and full telemetry attached, in that order, and renders `format`.
/// One line per workload heads the table, or goes to stderr.
fn run(args: &hmc_bench::Args, format: &str) -> String {
    let threads: usize = args.num("--threads", 16);
    let capacity: usize = args.num("--capacity", 4096);
    let workloads = args.get("--workload").unwrap_or("mutex").split(',');
    if let Some(w) = workloads.clone().find(|w| !matches!(*w, "mutex" | "gups" | "triad")) {
        fail(format!("unknown --workload '{w}' (expected mutex|gups|triad)"));
    }

    hmc_cmc::ops::register_builtin_libraries();
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).expect("valid config");
    let text = TraceBuffer::new();
    sim.set_tracer(Tracer::to_buffer(TraceLevel::ALL, text.clone()));
    sim.enable_flight_recorder(capacity);
    sim.enable_telemetry(TelemetryConfig::full());

    let mut head = String::new();
    for workload in workloads {
        let _ = match workload {
            "mutex" => {
                or_fail("mutex", sim.load_cmc_library(0, hmc_cmc::ops::MUTEX_LIBRARY));
                let kernel = MutexKernel::new(MutexKernelConfig { threads, ..Default::default() });
                let m = or_fail("mutex", kernel.run(&mut sim)).metrics;
                let (min, max, avg) = (m.min_cycle(), m.max_cycle(), m.avg_cycle());
                writeln!(
                    head,
                    "mutex: {threads} threads, min/max/avg acquire = {min}/{max}/{avg:.2}"
                )
            }
            "gups" => {
                let r = or_fail("gups", GupsKernel::new(GupsConfig::default()).run(&mut sim));
                writeln!(head, "gups: {} updates in {} cycles", r.updates, r.cycles)
            }
            _ => {
                let r = or_fail("triad", TriadKernel::new(TriadConfig::default()).run(&mut sim));
                assert_eq!(r.errors, 0, "triad verification");
                writeln!(head, "triad: {} cycles, {:.2} bytes/cycle", r.cycles, r.bytes_per_cycle)
            }
        };
    }

    let report = sim.telemetry_report().expect("telemetry enabled");
    if format == "table" {
        let summary = summarize(&text.lines());
        return format!("{head}\n{}\ntrace summary:\n{summary}", tables(&report));
    }
    eprint!("{head}");
    match format {
        "prom" => report.to_prometheus(),
        "json" => report.to_json().render(),
        _ => {
            let snap = sim.flight_snapshot().expect("recorder attached");
            let dropped: u64 = snap.lanes.iter().map(|l| l.dropped).sum();
            eprintln!(
                "flight recorder: {} records retained, {dropped} dropped (per-lane capacity {})",
                snap.len(),
                snap.capacity
            );
            perfetto::export(&snap, &PerfettoOptions { engine: !args.has("--packets-only") })
        }
    }
}

/// The per-stage and per-class latency tables of the telemetry report.
fn tables(report: &TelemetryReport) -> String {
    let hist = |path: String| report.get(&path).and_then(|m| m.as_hist()).filter(|h| !h.is_empty());
    let mut s = String::from("per-stage latency breakdown (cycles):\n");
    s.push_str("  stage         count    p50    p90    p99   p999\n");
    for stage in Stage::ALL.iter().map(Stage::name) {
        if let Some(h) = hist(format!("dev0/stage/{stage}")) {
            let (n, p50, p90, p99, p999) = (h.count(), h.p50(), h.p90(), h.p99(), h.p999());
            let _ = writeln!(s, "  {stage:<10} {n:>8} {p50:>6} {p90:>6} {p99:>6} {p999:>6}");
        }
    }
    s.push_str("\nper-class round-trip latency (cycles):\n");
    s.push_str("  class         count    p50    p99\n");
    for class in ["read", "write", "atomic", "cmc", "other"] {
        if let Some(h) = hist(format!("dev0/latency/{class}")) {
            let (n, p50, p99) = (h.count(), h.p50(), h.p99());
            let _ = writeln!(s, "  {class:<10} {n:>8} {p50:>6} {p99:>6}");
        }
    }
    s
}
