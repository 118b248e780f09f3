//! Structured-trace CLI: runs a workload with the flight recorder
//! attached and exports the timeline as Perfetto/Chrome trace-event
//! JSON (open the output at <https://ui.perfetto.dev>).
//!
//! ```text
//! cargo run --release -p hmc-bench --bin trace -- export
//! cargo run --release -p hmc-bench --bin trace -- export --workload mutex --threads 16
//! cargo run --release -p hmc-bench --bin trace -- export --skip on --capacity 4096 \
//!     --out trace.json
//! cargo run --release -p hmc-bench --bin trace -- export --packets-only
//! ```
//!
//! The export is deterministic: the same workload and configuration
//! render byte-identical JSON.

use hmc_sim::perfetto::{self, PerfettoOptions};
use hmc_sim::{DeviceConfig, HmcSim, SimConfig, SkipMode};
use hmc_workloads::kernels::gups::{GupsConfig, GupsKernel};
use hmc_workloads::kernels::triad::{TriadConfig, TriadKernel};
use hmc_workloads::{MutexKernel, MutexKernelConfig, SpinPolicy};

fn usage() -> ! {
    eprintln!(
        "usage: trace export [--workload mutex|gups|triad] [--threads N] \
         [--skip on|off] [--capacity N] [--packets-only] [--out PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let args = hmc_bench::Args::from_env();
    if args.has("--exec") {
        eprintln!("error: --exec was removed: there is one engine, and every run uses it");
        std::process::exit(2);
    }
    if args.first() != Some("export") {
        usage();
    }
    let workload = args.get("--workload").unwrap_or("mutex");
    let threads: usize = args.num("--threads", 16);
    let capacity: usize = args.num("--capacity", 4096);
    let skip = match args.get("--skip") {
        None | Some("off") => SkipMode::Off,
        Some("on") => SkipMode::On,
        Some(_) => usage(),
    };
    let packets_only = args.has("--packets-only");
    let out_path = args.get("--out");

    hmc_cmc::ops::register_builtin_libraries();
    let mut cfg = SimConfig::single(DeviceConfig::gen2_4link_4gb());
    cfg.skip_mode = skip;
    let mut sim = HmcSim::with_config(cfg).expect("valid config");
    sim.enable_flight_recorder(capacity);

    match workload {
        "mutex" => {
            sim.load_cmc_library(0, hmc_cmc::ops::MUTEX_LIBRARY)
                .expect("mutex library loads");
            let result = MutexKernel::new(MutexKernelConfig {
                threads,
                spin: SpinPolicy::PaperBounded,
                ..Default::default()
            })
            .run(&mut sim)
            .expect("mutex kernel runs");
            eprintln!(
                "mutex: {threads} threads, min/max acquire = {}/{}",
                result.metrics.min_cycle(),
                result.metrics.max_cycle()
            );
        }
        "gups" => {
            let result = GupsKernel::new(GupsConfig::default())
                .run(&mut sim)
                .expect("gups runs");
            eprintln!("gups: {} updates in {} cycles", result.updates, result.cycles);
        }
        "triad" => {
            let result = TriadKernel::new(TriadConfig::default())
                .run(&mut sim)
                .expect("triad runs");
            assert_eq!(result.errors, 0, "triad verification");
            eprintln!(
                "triad: {} cycles, {:.2} bytes/cycle",
                result.cycles, result.bytes_per_cycle
            );
        }
        _ => usage(),
    }

    let snap = sim.flight_snapshot().expect("recorder attached");
    eprintln!(
        "flight recorder: {} records retained, {} dropped (per-lane capacity {})",
        snap.len(),
        snap.lanes.iter().map(|l| l.dropped).sum::<u64>(),
        snap.capacity
    );
    let doc = perfetto::export(&snap, &PerfettoOptions { engine: !packets_only });

    match out_path {
        Some(path) => {
            if let Some(parent) = std::path::Path::new(path).parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            std::fs::write(path, &doc).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {} bytes to {path} (open at ui.perfetto.dev)", doc.len());
        }
        None => println!("{doc}"),
    }
}
