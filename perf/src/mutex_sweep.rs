//! `mutex_sweep` — the paper's §V experiment through product code:
//! {4Link-4GB, 8Link-8GB} × {`PaperBounded`, `until_owned()`} × threads
//! 2..=100 via `MutexKernel::run`, a fresh `HmcSim` with the mutex CMC
//! library per point, idle-cycle skipping on.
//!
//! Why: sparse single-bank CMC traffic with host-side backoff — the
//! `workloads` thread driver, `cmc` dispatch, construction cost and
//! the skip scan carry it; vault throughput does not. One round is one
//! full sweep (396 points); construction is timed apart and reported
//! as `setup_s`.

use crate::metrics::Report;
use crate::spans::{SpanKind, Spans};
use crate::util::{median, Rng, Round, SimDomain};
use crate::Opts;
use hmc_cmc::ops::mutex::{LOCK_CMD, TRYLOCK_CMD, UNLOCK_CMD};
use hmc_cmc::{CmcContext, CmcRegistry};
use hmc_mem::SparseMemory;
use hmc_sim::{DeviceConfig, ExecMode, HmcSim, SimConfig, SkipMode, TimingSelect};
use hmc_workloads::{MutexKernel, MutexKernelConfig, SpinPolicy};
use std::hint::black_box;
use std::time::Instant;

/// Table VI "Avg Cycle Count" (worst per-run average over the sweep)
/// for 4Link-4GB and 8Link-8GB.
const PAPER_WORST_AVG: [f64; 2] = [226.48, 221.48];
/// Table VI "Min Cycle Count" on both devices.
const PAPER_MIN: u64 = 6;

const SPAN_POINT: usize = 0;
const SPAN_NEW: usize = 1;
const SPAN_LOAD: usize = 2;
const SPAN_KERNEL: usize = 3;
const SPANS: [SpanKind; 4] = [
    SpanKind {
        layer: "perf",
        name: "point",
    },
    SpanKind {
        layer: "sim",
        name: "new",
    },
    SpanKind {
        layer: "cmc",
        name: "load_library",
    },
    SpanKind {
        layer: "workloads",
        name: "mutex_kernel",
    },
];

/// One full sweep.
#[derive(Default)]
struct Sweep {
    reqs: u64,
    wall_s: f64,
    setup_s: f64,
    attempted: u64,
    failed: u64,
    sim: SimDomain,
    /// Per device, over the `PaperBounded` points: smallest MIN_CYCLE
    /// and largest AVG_CYCLE.
    table6: [(u64, f64); 2],
}

/// `fingerprints` folds every point's `state_fingerprint()` into the
/// result — the dearest part of a point, so only the sweeps that are
/// compared state for state ask for it.
fn sweep(
    lock_addr: u64,
    skip: SkipMode,
    fingerprints: bool,
    spans: &mut Spans,
    point_id: &mut u64,
) -> Sweep {
    let mut out = Sweep {
        table6: [(u64::MAX, 0.0); 2],
        ..Default::default()
    };
    let devices = [
        DeviceConfig::gen2_4link_4gb(),
        DeviceConfig::gen2_8link_8gb(),
    ];
    for (d, device) in devices.iter().enumerate() {
        for spin in [SpinPolicy::PaperBounded, SpinPolicy::until_owned()] {
            for threads in 2..=100usize {
                let mut config = SimConfig::single(device.clone());
                config.exec_mode = ExecMode::Sequential;
                config.skip_mode = skip;
                config.timing = TimingSelect::FixedLatency;
                let t0 = Instant::now();
                let mut sim = HmcSim::with_config(config).expect("paper device is valid");
                let t1 = Instant::now();
                sim.load_cmc_library(0, hmc_cmc::ops::MUTEX_LIBRARY)
                    .expect("mutex library loads");
                let t2 = Instant::now();
                let kernel = MutexKernel::new(MutexKernelConfig {
                    threads,
                    lock_addr,
                    spin,
                    ..Default::default()
                });
                let result = kernel.run(&mut sim).expect("mutex kernel runs");
                let t3 = Instant::now();

                let (n0, n1, n2, n3) = (spans.at(t0), spans.at(t1), spans.at(t2), spans.at(t3));
                spans.record(SPAN_NEW, *point_id, n0, n1);
                spans.record(SPAN_LOAD, *point_id, n1, n2);
                spans.record(SPAN_KERNEL, *point_id, n2, n3);
                spans.record(SPAN_POINT, *point_id, n0, n3);
                *point_id += 1;

                assert_eq!(
                    sim.skip_mode(),
                    skip,
                    "skip mode must not come from the environment"
                );
                let stats = sim.stats(0).expect("device 0 exists");
                out.reqs += stats.cmc_ops;
                out.setup_s += (t2 - t0).as_secs_f64();
                out.wall_s += (t3 - t2).as_secs_f64();
                let owned_once = match spin {
                    SpinPolicy::PaperBounded => result.acquisitions >= 1,
                    SpinPolicy::UntilOwned { .. } => result.acquisitions as usize == threads,
                };
                out.attempted += stats.cmc_ops + 3;
                out.failed += stats.error_responses
                    + result.metrics.unfinished as u64
                    + u64::from(result.final_lock_word != 0)
                    + u64::from(!owned_once);
                if spin == SpinPolicy::PaperBounded {
                    let row = &mut out.table6[d];
                    row.0 = row.0.min(result.metrics.min_cycle());
                    row.1 = row.1.max(result.metrics.avg_cycle());
                }
                let mut point = SimDomain::read_stats(&sim);
                point.sim_cycles = sim.cycle();
                if fingerprints {
                    point.fingerprint = sim.state_fingerprint();
                }
                out.sim.absorb(&point);
            }
        }
    }
    for (min, _) in out.table6 {
        out.attempted += 1;
        out.failed += u64::from(min != PAPER_MIN);
    }
    out
}

/// `cmc`: lock / trylock / unlock dispatched through a standalone
/// registry onto a standalone store, as the vault does it.
fn cmc_execute_ns_per_op(n: u64, lock_addr: u64) -> f64 {
    let mut registry = CmcRegistry::new();
    for op in
        hmc_cmc::open_library(hmc_cmc::ops::MUTEX_LIBRARY).expect("mutex library is registered")
    {
        registry.register(op).expect("mutex ops register");
    }
    let mem = SparseMemory::new(4 << 30);
    let mut rsp = [0u64; 2];
    let t = Instant::now();
    for i in 0..n {
        let code = [LOCK_CMD, TRYLOCK_CMD, UNLOCK_CMD][(i % 3) as usize];
        let payload = [1 + i / 3 % 100, 0];
        let op = registry.lookup(code).expect("mutex op is active");
        let mut ctx = CmcContext {
            dev: 0,
            quad: 0,
            vault: 0,
            bank: 0,
            addr: lock_addr,
            length: 2,
            head: 0,
            tail: 0,
            cycle: i,
            rqst_payload: &payload,
            rsp_payload: &mut rsp,
            mem: &mem,
        };
        black_box(op.execute(&mut ctx).expect("mutex op executes"));
    }
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

pub fn run(opts: &Opts) -> (Report, Spans) {
    hmc_cmc::ops::register_builtin_libraries();
    // The seed picks the 16-byte-aligned lock address inside the
    // smaller (4 GiB) cube.
    let lock_addr = (Rng::new(opts.seed, 3).next_u64() % (4 << 30)) & !0xF;
    let mut spans = Spans::new(&SPANS);
    let mut report = Report::default();
    let (mut timed_s, mut point_id) = (0.0, 0);
    let mut first: Option<Sweep> = None;
    while timed_s < opts.seconds || (opts.trace && report.rounds.len() < 2) {
        let traced = opts.trace && report.rounds.len() % 2 == 0;
        spans.enabled = traced;
        let s = sweep(
            lock_addr,
            SkipMode::On,
            first.is_none(),
            &mut spans,
            &mut point_id,
        );
        spans.enabled = false;
        timed_s += s.wall_s;
        report.rounds.push(Round {
            reqs: s.reqs,
            cycles: s.sim.sim_cycles,
            wall_s: s.wall_s,
            traced,
        });
        report.setup_samples_s.push(s.setup_s);
        report.attempted += s.attempted;
        report.failed += s.failed;
        match &first {
            // Every sweep repeats the first one exactly.
            Some(f) => {
                report.attempted += 1;
                let same = SimDomain {
                    fingerprint: f.sim.fingerprint,
                    ..s.sim.clone()
                } == f.sim;
                report.failed += u64::from(!same);
            }
            None => first = Some(s),
        }
    }
    let first = first.expect("at least one sweep ran");
    report.sim = first.sim.clone();
    let err: Vec<f64> = first
        .table6
        .iter()
        .zip(PAPER_WORST_AVG)
        .map(|((_, worst_avg), paper)| 100.0 * (worst_avg - paper).abs() / paper)
        .collect();
    report.paper_err_pct = Some(err.iter().sum::<f64>() / err.len() as f64);

    if opts.trace {
        let traced: Vec<&Round> = report.rounds.iter().filter(|r| r.traced).collect();
        let cycles: u64 = traced.iter().map(|r| r.cycles).sum();
        let (new, load, kernel, point) = (
            spans.agg(SPAN_NEW),
            spans.agg(SPAN_LOAD),
            spans.agg(SPAN_KERNEL),
            spans.agg(SPAN_POINT),
        );
        report.set("sim.new.ns_per_sim", new.ns.mean());
        report.set("cmc.load_library.ns_per_sim", load.ns.mean());
        report.set(
            "workloads.mutex_kernel.ns_per_cycle",
            kernel.ns.sum() as f64 / cycles as f64,
        );
        report.set(
            "workloads.mutex_kernel.wall_share",
            100.0 * kernel.ns.sum() as f64 / point.ns.sum() as f64,
        );
        report.set(
            "workloads.mutex_kernel.paper_err_pct",
            report.paper_err_pct.expect("set above"),
        );
        report.set(
            "cmc.execute.ns_per_op",
            cmc_execute_ns_per_op((1_000_000.0 * opts.scale) as u64 + 3, lock_addr),
        );
        // Skip Off against the median Skip On sweep; the state reached
        // must be the same either way.
        let off = sweep(lock_addr, SkipMode::Off, true, &mut spans, &mut point_id);
        let on: Vec<f64> = report
            .rounds
            .iter()
            .filter(|r| !r.traced)
            .map(|r| r.wall_s)
            .collect();
        report.set("sim.skip.speedup", off.wall_s / median(&on));
        report.attempted += 1;
        report.failed += u64::from(off.sim != first.sim);
        report.finish_traced();
    }
    (report, spans)
}
