//! Multi-cube fabric scaling measurement.
//!
//! Runs the fabric GUPS kernel (per-cube random XOR update streams,
//! ~10% of traffic routed to a remote cube) across the topology
//! matrix — chain / ring / mesh from 1 to 16 cubes — under every
//! engine combination (sequential and parallel tick engines, with and
//! without idle-cycle skipping), then emits `BENCH_fabric.json`.
//!
//! ```text
//! cargo run --release -p hmc-bench --bin fabric
//! cargo run --release -p hmc-bench --bin fabric -- --out BENCH_fabric.json
//! cargo run --release -p hmc-bench --bin fabric -- --reps 3
//! ```
//!
//! The headline metric is **aggregate simulated throughput**: total
//! committed updates divided by simulated cycles. Unlike wall-clock
//! speedup it is a pure function of the simulation, so the scaling
//! gate is deterministic and host-independent. The exit code enforces
//! two contracts:
//!
//! * every engine combination of a topology lands on the same state
//!   fingerprint (the fabric determinism contract), and
//! * the best 16-cube topology sustains at least 12x the aggregate
//!   updates-per-cycle of a single cube under the parallel engine
//!   with skipping on (near-linear multi-cube scaling).

use hmc_sim::{DeviceConfig, ExecMode, HmcSim, SimConfig, SkipMode};
use hmc_workloads::{FabricGupsConfig, FabricGupsKernel};
use std::time::Instant;

/// The benchmark workload: a fixed per-cube update budget so aggregate
/// work grows linearly with the cube count. The budget is large enough
/// that steady-state injection dominates the multi-hop completion tail
/// of the last remote updates.
fn gups_config() -> FabricGupsConfig {
    FabricGupsConfig { updates_per_cube: 2048, remote_permille: 50, ..Default::default() }
}

/// The topology matrix: one single-cube baseline plus chain / ring /
/// mesh fabrics up to the 16-cube architectural maximum.
fn topologies() -> Vec<(&'static str, usize, SimConfig)> {
    let d = DeviceConfig::gen2_4link_4gb;
    vec![
        ("single1", 1, SimConfig::single(d())),
        ("chain2", 2, SimConfig::chain(d(), 2)),
        ("chain4", 4, SimConfig::chain(d(), 4)),
        ("chain8", 8, SimConfig::chain(d(), 8)),
        ("chain16", 16, SimConfig::chain(d(), 16)),
        ("ring4", 4, SimConfig::ring(d(), 4)),
        ("ring8", 8, SimConfig::ring(d(), 8)),
        ("ring16", 16, SimConfig::ring(d(), 16)),
        ("mesh2x2", 4, SimConfig::mesh(d(), 2, 2)),
        ("mesh4x2", 8, SimConfig::mesh(d(), 4, 2)),
        ("mesh4x4", 16, SimConfig::mesh(d(), 4, 4)),
    ]
}

struct Sample {
    topology: &'static str,
    cubes: usize,
    mode: String,
    threads: usize,
    skip: &'static str,
    sim_cycles: u64,
    updates: u64,
    remote_updates: u64,
    best_wall_s: f64,
    fingerprint: u64,
}

impl Sample {
    fn updates_per_cycle(&self) -> f64 {
        self.updates as f64 / self.sim_cycles as f64
    }
}

/// Runs one topology under one engine combination `reps` times,
/// keeping the best wall time (minimum-of-N noise filter). Simulated
/// cycles, update counts and the fingerprint are identical across
/// reps by the determinism contract.
fn measure(
    topology: &'static str,
    cubes: usize,
    config: &SimConfig,
    mode: ExecMode,
    skip: SkipMode,
    reps: usize,
) -> Sample {
    let mut best_wall_s = f64::INFINITY;
    let mut sim_cycles = 0;
    let mut updates = 0;
    let mut remote_updates = 0;
    let mut fingerprint = 0;
    for _ in 0..reps {
        let mut sim = HmcSim::with_config(config.clone()).expect("valid fabric config");
        sim.set_exec_mode(mode);
        sim.set_skip_mode(skip);
        let start = Instant::now();
        let result = FabricGupsKernel::new(gups_config()).run(&mut sim).expect("gups runs");
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(result.errors, 0, "fabric gups verification ({topology})");
        best_wall_s = best_wall_s.min(wall);
        sim_cycles = result.cycles;
        updates = result.updates;
        remote_updates = result.remote_updates;
        fingerprint = sim.state_fingerprint();
    }
    let (mode_name, threads) = match mode {
        ExecMode::Sequential => ("sequential".to_string(), 1),
        ExecMode::Parallel { threads } => ("parallel".to_string(), threads),
    };
    Sample {
        topology,
        cubes,
        mode: mode_name,
        threads,
        skip: if skip == SkipMode::On { "on" } else { "off" },
        sim_cycles,
        updates,
        remote_updates,
        best_wall_s,
        fingerprint,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |name: &str| -> Option<String> {
        args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
    };
    let out_path = arg("--out").unwrap_or_else(|| "BENCH_fabric.json".into());
    let reps: usize = arg("--reps").and_then(|s| s.parse().ok()).unwrap_or(2);

    hmc_cmc::ops::register_builtin_libraries();
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let engine_matrix = [
        (ExecMode::Sequential, SkipMode::Off),
        (ExecMode::Sequential, SkipMode::On),
        (ExecMode::Parallel { threads: 2 }, SkipMode::Off),
        (ExecMode::Parallel { threads: 2 }, SkipMode::On),
        (ExecMode::Parallel { threads: 8 }, SkipMode::Off),
        (ExecMode::Parallel { threads: 8 }, SkipMode::On),
    ];

    let mut samples = Vec::new();
    for (name, cubes, config) in topologies() {
        for (mode, skip) in engine_matrix {
            samples.push(measure(name, cubes, &config, mode, skip, reps));
        }
    }

    // Determinism gate: every engine combination of a topology must
    // land on the same state fingerprint.
    let mut fingerprints_match = true;
    for (name, _, _) in topologies() {
        let expect = samples
            .iter()
            .find(|s| s.topology == name)
            .map(|s| s.fingerprint)
            .expect("sample exists");
        for s in samples.iter().filter(|s| s.topology == name) {
            if s.fingerprint != expect {
                fingerprints_match = false;
                eprintln!(
                    "FINGERPRINT MISMATCH: {} {}x{} skip={} {:#018x} != {:#018x}",
                    s.topology, s.mode, s.threads, s.skip, s.fingerprint, expect
                );
            }
        }
    }

    // Scaling gate: the best 16-cube topology must sustain >= 12x the
    // single-cube aggregate updates-per-cycle (parallel 8, skip on).
    let gate = |pred: &dyn Fn(&&Sample) -> bool| -> f64 {
        samples
            .iter()
            .filter(|s| s.mode == "parallel" && s.threads == 8 && s.skip == "on")
            .filter(pred)
            .map(|s| s.updates_per_cycle())
            .fold(0.0, f64::max)
    };
    let base = gate(&|s| s.cubes == 1);
    let peak16 = gate(&|s| s.cubes == 16);
    let scaling_16x = peak16 / base;
    let scaling_ok = scaling_16x >= 12.0;

    let mut entries = Vec::new();
    for s in &samples {
        println!(
            "{:<8} cubes={:<2} {:<10} threads={} skip={:<3} : {:>7} updates ({:>5} remote) \
             in {:>8} cycles -> {:>6.3} upd/cycle [{:>7.2} ms wall]",
            s.topology,
            s.cubes,
            s.mode,
            s.threads,
            s.skip,
            s.updates,
            s.remote_updates,
            s.sim_cycles,
            s.updates_per_cycle(),
            s.best_wall_s * 1e3,
        );
        entries.push(format!(
            "    {{\"topology\": \"{}\", \"cubes\": {}, \"mode\": \"{}\", \"threads\": {}, \
             \"skip\": \"{}\", \"sim_cycles\": {}, \"updates\": {}, \"remote_updates\": {}, \
             \"updates_per_cycle\": {:.6}, \"best_wall_s\": {:.6}, \"fingerprint\": \"{:#018x}\"}}",
            s.topology,
            s.cubes,
            s.mode,
            s.threads,
            s.skip,
            s.sim_cycles,
            s.updates,
            s.remote_updates,
            s.updates_per_cycle(),
            s.best_wall_s,
            s.fingerprint
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"fabric\",\n  \"host_cpus\": {host_cpus},\n  \"reps\": {reps},\n  \
         \"fingerprints_match\": {fingerprints_match},\n  \
         \"scaling_16_vs_1\": {scaling_16x:.3},\n  \"scaling_ok\": {scaling_ok},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write JSON");
    println!(
        "wrote {out_path} (host_cpus={host_cpus}, 16-cube aggregate scaling {scaling_16x:.2}x)"
    );

    if !fingerprints_match || !scaling_ok {
        std::process::exit(1);
    }
}
