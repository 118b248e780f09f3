//! Telemetry exporter CLI: runs a Triad bandwidth pass followed by a
//! CMC mutex contention pass with full telemetry attached, then emits
//! the metrics registry.
//!
//! ```text
//! cargo run --release -p hmc-bench --bin metrics                    # human-readable table
//! cargo run --release -p hmc-bench --bin metrics -- --format prom   # Prometheus exposition
//! cargo run --release -p hmc-bench --bin metrics -- --format json --out report.json
//! cargo run --release -p hmc-bench --bin metrics -- --threads 32
//! ```

use hmc_sim::{DeviceConfig, HmcSim, Stage, TelemetryConfig};
use hmc_workloads::kernels::triad::{TriadConfig, TriadKernel};
use hmc_workloads::{MutexKernel, MutexKernelConfig, SpinPolicy};

fn main() {
    let args = hmc_bench::Args::from_env();
    let format = args.get("--format").unwrap_or("table");
    if !matches!(format, "table" | "prom" | "json") {
        eprintln!("error: unknown --format '{format}' (expected table|prom|json)");
        std::process::exit(2);
    }
    let out_path = args.get("--out");
    let threads: usize = args.num("--threads", 16);

    // One context for both workloads so the registry aggregates the
    // full run: a Triad bandwidth pass, then mutex contention.
    hmc_cmc::ops::register_builtin_libraries();
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).expect("valid config");
    sim.enable_telemetry(TelemetryConfig::full());
    sim.load_cmc_library(0, hmc_cmc::ops::MUTEX_LIBRARY)
        .expect("mutex library loads");

    let triad = TriadKernel::new(TriadConfig::default())
        .run(&mut sim)
        .expect("triad runs");
    assert_eq!(triad.errors, 0, "triad verification");
    let mutex = MutexKernel::new(MutexKernelConfig {
        threads,
        spin: SpinPolicy::PaperBounded,
        ..Default::default()
    })
    .run(&mut sim)
    .expect("mutex kernel runs");

    let report = sim.telemetry_report().expect("telemetry enabled");
    let rendered = match format {
        "prom" => report.to_prometheus(),
        "json" => report.to_json(),
        _ => {
            let mut s = String::new();
            s.push_str(&format!(
                "Triad: {} cycles, {:.2} bytes/cycle; mutex ({threads} threads): \
                 min/max/avg = {}/{}/{:.2}\n\n",
                triad.cycles,
                triad.bytes_per_cycle,
                mutex.metrics.min_cycle(),
                mutex.metrics.max_cycle(),
                mutex.metrics.avg_cycle()
            ));
            s.push_str("per-stage latency breakdown (cycles):\n");
            s.push_str(&format!(
                "  {:<10} {:>8} {:>6} {:>6} {:>6} {:>6}\n",
                "stage", "count", "p50", "p90", "p99", "p999"
            ));
            let tel_path = |stage: Stage| format!("dev0/stage/{}", stage.name());
            for stage in Stage::ALL {
                if let Some(h) = report.get(&tel_path(stage)).and_then(|m| m.as_hist()) {
                    s.push_str(&format!(
                        "  {:<10} {:>8} {:>6} {:>6} {:>6} {:>6}\n",
                        stage.name(),
                        h.count(),
                        h.p50(),
                        h.p90(),
                        h.p99(),
                        h.p999()
                    ));
                }
            }
            s.push_str("\nper-class round-trip latency (cycles):\n");
            s.push_str(&format!(
                "  {:<10} {:>8} {:>6} {:>6}\n",
                "class", "count", "p50", "p99"
            ));
            for class in ["read", "write", "atomic", "cmc", "other"] {
                if let Some(h) = report
                    .get(&format!("dev0/latency/{class}"))
                    .and_then(|m| m.as_hist())
                {
                    if !h.is_empty() {
                        s.push_str(&format!(
                            "  {:<10} {:>8} {:>6} {:>6}\n",
                            class,
                            h.count(),
                            h.p50(),
                            h.p99()
                        ));
                    }
                }
            }
            s
        }
    };

    match out_path {
        Some(path) => {
            if let Some(parent) = std::path::Path::new(path).parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            std::fs::write(path, &rendered).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {} bytes to {path}", rendered.len());
        }
        None => print!("{rendered}"),
    }
}
