//! The benchmark's metric names, units and regression bounds — the
//! same table `BENCHMARK.json` publishes (the smoke test compares the
//! two) — and the report every workload fills in.

use crate::util::{median, peak_rss_mb, spread, Round, SimDomain};
use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 4] = ["stream_sat", "gups_mesh16", "mutex_sweep", "replay_audit"];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> (MetricDef, f64) {
    (MetricDef { name, unit, better }, bound)
}

/// End-to-end metrics, measured with tracing off, with the share of
/// the parent's median by which each may worsen.
pub const END_TO_END: [(MetricDef, f64); 5] = [
    end_to_end("reqs_per_s", "1/s", "higher", 0.25),
    end_to_end("sim_cycles_per_s", "1/s", "higher", 0.25),
    end_to_end("setup_s", "s", "lower", 0.25),
    end_to_end("peak_rss_mb", "MiB", "lower", 0.1),
    end_to_end("sim_cycles", "cycles", "lower", 0.02),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Per-layer metrics of the traced repetition. A layer a workload does
/// not drive from the benchmark's own files reports 0 there.
pub const PER_LAYER: [MetricDef; 42] = [
    layer("sim.clock.ns_per_cycle", "ns", "lower"),
    layer("sim.clock.calls", "count", "higher"),
    layer("sim.clock.wall_share", "%", "lower"),
    layer("sim.send.ns_per_call", "ns", "lower"),
    layer("sim.send.calls", "count", "higher"),
    layer("sim.send.stalls", "count", "lower"),
    layer("sim.send.accept_ratio", "ratio", "higher"),
    layer("sim.recv.ns_per_rsp", "ns", "lower"),
    layer("sim.recv.polls", "count", "higher"),
    layer("sim.recv.empty_polls", "count", "lower"),
    layer("perf.driver.self_ns_per_req", "ns", "lower"),
    layer("perf.driver.unattributed_pct", "%", "lower"),
    layer("types.pack_unpack.ns_per_req", "ns", "lower"),
    layer("mem.exec.ns_per_req", "ns", "lower"),
    layer("cmc.execute.ns_per_op", "ns", "lower"),
    layer("cmc.load_library.ns_per_sim", "ns", "lower"),
    layer("sim.new.ns_per_sim", "ns", "lower"),
    layer("workloads.mutex_kernel.ns_per_cycle", "ns", "lower"),
    layer("workloads.mutex_kernel.wall_share", "%", "lower"),
    layer("workloads.mutex_kernel.paper_err_pct", "%", "lower"),
    layer("sim.skip.speedup", "ratio", "higher"),
    layer("sim.parallel.t2_speedup", "ratio", "higher"),
    layer("workloads.parse_trace.ns_per_op", "ns", "lower"),
    layer("workloads.replay.self_ns_per_req", "ns", "lower"),
    layer("sim.snapjson.encode_ns_per_ckpt", "ns", "lower"),
    layer("sim.snapjson.decode_ns_per_ckpt", "ns", "lower"),
    layer("sim.snapjson.bytes_per_ckpt", "bytes", "lower"),
    layer("sim.fingerprint.ns_per_call", "ns", "lower"),
    layer("sim.restore.ns_per_call", "ns", "lower"),
    layer("sim.sanitizer.ns_per_cycle", "ns", "lower"),
    layer("sim.telemetry.ns_per_cycle", "ns", "lower"),
    layer("sim.trace.ns_per_cycle", "ns", "lower"),
    layer("sim.telemetry_report.ns", "ns", "lower"),
    layer("sim.stats.rqst_flits", "count", "lower"),
    layer("sim.stats.rsp_flits", "count", "lower"),
    layer("sim.stats.send_stalls", "count", "lower"),
    layer("sim.stats.xbar_stalls", "count", "lower"),
    layer("sim.stats.vault_stalls", "count", "lower"),
    layer("sim.stats.forwarded", "count", "lower"),
    layer("sim.stats.lat_p50_cycles", "cycles", "lower"),
    layer("sim.stats.lat_p99_cycles", "cycles", "lower"),
    layer("perf.trace_overhead_pct", "%", "lower"),
];

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: requests retired plus oracle comparisons.
    pub attempted: u64,
    /// Error/ERRSTAT/DINV responses, oracle mismatches, unfinished
    /// threads, failed fingerprint round trips.
    pub failed: u64,
    pub rounds: Vec<Round>,
    /// One entry per set-up performed in this run.
    pub setup_samples_s: Vec<f64>,
    /// Simulated-domain state of the first round.
    pub sim: SimDomain,
    /// Per-layer values measured by the traced repetition.
    pub layers: BTreeMap<&'static str, f64>,
    /// `mutex_sweep` only; the other workloads have no reference.
    pub paper_err_pct: Option<f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Per-round rates of the rounds with spans off (all of them in an
    /// untraced run).
    fn rates(&self, traced: bool) -> (Vec<f64>, Vec<f64>) {
        let rounds = self.rounds.iter().filter(|r| r.traced == traced);
        (
            rounds.clone().map(|r| r.reqs as f64 / r.wall_s).collect(),
            rounds.map(|r| r.cycles as f64 / r.wall_s).collect(),
        )
    }

    /// The end-to-end values, in [`END_TO_END`] order, each with the
    /// `(max − min) / median` of the samples behind it where it has
    /// more than one.
    pub fn end_to_end(&self) -> Vec<(f64, Option<(usize, f64)>)> {
        let (reqs, cycles) = self.rates(false);
        let many = |v: &[f64]| Some((v.len(), spread(v)));
        vec![
            (median(&reqs), many(&reqs)),
            (median(&cycles), many(&cycles)),
            (median(&self.setup_samples_s), many(&self.setup_samples_s)),
            (peak_rss_mb(), None),
            (self.sim.sim_cycles as f64, None),
        ]
    }

    /// Fills the metrics every traced run derives the same way: the
    /// simulated-domain counters and the tracing overhead (traced
    /// rounds against the untraced rounds they alternate with).
    pub fn finish_traced(&mut self) {
        let s = self.sim.clone();
        for (name, v) in [
            ("sim.stats.rqst_flits", s.rqst_flits),
            ("sim.stats.rsp_flits", s.rsp_flits),
            ("sim.stats.send_stalls", s.send_stalls),
            ("sim.stats.xbar_stalls", s.xbar_stalls),
            ("sim.stats.vault_stalls", s.vault_stalls),
            ("sim.stats.forwarded", s.forwarded),
            ("sim.stats.lat_p50_cycles", s.lat_p50_cycles),
            ("sim.stats.lat_p99_cycles", s.lat_p99_cycles),
        ] {
            self.set(name, v as f64);
        }
        let (on, _) = self.rates(true);
        let (off, _) = self.rates(false);
        // Rates are requests per second, so overhead is the drop in rate.
        self.set(
            "perf.trace_overhead_pct",
            100.0 * (median(&off) / median(&on) - 1.0),
        );
    }
}
