//! Cycle-accurate telemetry: request lifecycle spans, per-stage
//! latency histograms and windowed time series.
//!
//! Telemetry is an optional observer, exactly like the sanitizer: a
//! context without one pays a single `Option` check per cycle, and an
//! attached telemetry collector never influences simulation state —
//! `tests/no_perturbation.rs` pins a bit-identical state fingerprint
//! with it enabled.
//!
//! Two kinds of data feed the exported registry
//! ([`crate::export::TelemetryReport`]):
//!
//! * **Always-on aggregates** — counters and per-class latency
//!   histograms in [`crate::stats::DeviceStats`] and
//!   [`crate::link::LinkStats`]. These are part of the core model and
//!   are recorded unconditionally (they are deterministic, so they
//!   cannot perturb anything).
//! * **Telemetry-only data** — per-stage span histograms and windowed
//!   time series, recorded only while a collector is attached.
//!
//! # Request lifecycle spans
//!
//! Every packet carries [`StageStamps`]: the pipeline stages stamp
//! cycle numbers as the packet moves (crossbar → vault queue at
//! routing, vault execution, vault → crossbar on the return path,
//! response egress). At host delivery the stamps resolve into
//! per-stage durations recorded under [`Stage`]:
//!
//! ```text
//! host inject ──xbar_rqst──▶ vault queue ──vault_wait──▶ execute
//!      ──bank──▶ leaves vault ──xbar_rsp──▶ egress ──delivery──▶ host
//! ```

use crate::device::TrackedResponse;
use crate::hist::Hist;
use crate::sim::HmcSim;

/// Telemetry collector configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch: `false` (the default) attaches nothing and
    /// guarantees zero perturbation and zero overhead beyond one
    /// `Option` check per cycle.
    pub enabled: bool,
    /// Record request lifecycle spans into per-stage histograms.
    pub spans: bool,
    /// Time-series window length in cycles (`0` disables the windowed
    /// series).
    pub window: u64,
    /// Maximum windows retained per series; when exceeded, adjacent
    /// windows merge pairwise and the window length doubles, so memory
    /// stays bounded on arbitrarily long runs.
    pub max_windows: usize,
}

impl TelemetryConfig {
    /// Telemetry off (the default).
    pub fn disabled() -> Self {
        TelemetryConfig { enabled: false, spans: true, window: 1024, max_windows: 256 }
    }

    /// Counters and per-class histograms only: no span recording, no
    /// time series — the cheapest attached mode.
    pub fn counters_only() -> Self {
        TelemetryConfig { enabled: true, spans: false, window: 0, ..Self::disabled() }
    }

    /// Everything on: spans plus windowed time series.
    pub fn full() -> Self {
        TelemetryConfig { enabled: true, ..Self::disabled() }
    }

    /// Full collection with a specific time-series window.
    pub fn with_window(window: u64) -> Self {
        TelemetryConfig { window, ..Self::full() }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Pipeline stage cycle stamps carried by every tracked packet.
///
/// The stamps are written unconditionally by the pipeline stages —
/// they are deterministic annotations, identical whether or not a
/// telemetry collector is attached, so they cannot perturb the
/// simulation. They only *cost* anything (histogram recording) when
/// spans are enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStamps {
    /// Cycle the request left the crossbar for its vault queue.
    pub vault_enq: u64,
    /// Cycle the vault executed the request.
    pub exec: u64,
    /// Cycle the response left the vault for the crossbar.
    pub rsp_route: u64,
    /// Cycle the response drained from the crossbar toward the host.
    pub egress: u64,
}

/// One stage of the request lifecycle (see the module docs for the
/// timeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Host inject → request leaves the crossbar (link ingress plus
    /// crossbar residency).
    XbarRqst,
    /// Crossbar → vault execution starts (vault-queue wait, including
    /// any remote-quad crossing penalty).
    VaultWait,
    /// Execution → response leaves the vault (bank service plus vault
    /// response-queue residency).
    Bank,
    /// Vault → response egress (crossbar response-queue residency).
    XbarRsp,
    /// Egress → host delivery.
    Delivery,
}

impl Stage {
    /// Every stage in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::XbarRqst,
        Stage::VaultWait,
        Stage::Bank,
        Stage::XbarRsp,
        Stage::Delivery,
    ];

    /// Metric-path label.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::XbarRqst => "xbar_rqst",
            Stage::VaultWait => "vault_wait",
            Stage::Bank => "bank",
            Stage::XbarRsp => "xbar_rsp",
            Stage::Delivery => "delivery",
        }
    }
}

/// A fixed-window time series with bounded memory.
///
/// Samples accumulate into `(sum, count)` windows of `window` cycles.
/// When a sample lands past `max_windows`, adjacent windows merge
/// pairwise and the window doubles — deterministic coarsening, so two
/// identical runs always produce identical series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    window: u64,
    max_windows: usize,
    points: Vec<(u64, u64)>,
}

impl TimeSeries {
    /// Creates a series with the given window length and retention.
    pub fn new(window: u64, max_windows: usize) -> Self {
        TimeSeries { window, max_windows: max_windows.max(2), points: Vec::new() }
    }

    /// Records `value` at `cycle`.
    pub fn record(&mut self, cycle: u64, value: u64) {
        if self.window == 0 {
            return;
        }
        let mut idx = (cycle / self.window) as usize;
        while idx >= self.max_windows {
            self.coarsen();
            idx = (cycle / self.window) as usize;
        }
        if self.points.len() <= idx {
            self.points.resize(idx + 1, (0, 0));
        }
        self.points[idx].0 += value;
        self.points[idx].1 += 1;
    }

    /// Records `value` at each of the `n` consecutive cycles starting
    /// at `start` — bit-identical to `n` calls of [`TimeSeries::record`]
    /// but O(windows touched), not O(n). The event-horizon engine uses
    /// this to append a whole skipped idle region (value 0) at once.
    pub fn record_n(&mut self, start: u64, n: u64, value: u64) {
        if self.window == 0 {
            return;
        }
        let mut cycle = start;
        let mut remaining = n;
        while remaining > 0 {
            let mut idx = (cycle / self.window) as usize;
            while idx >= self.max_windows {
                self.coarsen();
                idx = (cycle / self.window) as usize;
            }
            // Stay inside the current window; coarsening cannot occur
            // mid-run because `idx` only grows at window boundaries.
            let run = remaining.min((idx as u64 + 1) * self.window - cycle);
            if self.points.len() <= idx {
                self.points.resize(idx + 1, (0, 0));
            }
            self.points[idx].0 += value * run;
            self.points[idx].1 += run;
            cycle += run;
            remaining -= run;
        }
    }

    fn coarsen(&mut self) {
        let merged: Vec<(u64, u64)> = self
            .points
            .chunks(2)
            .map(|pair| {
                let (s0, c0) = pair[0];
                let (s1, c1) = pair.get(1).copied().unwrap_or((0, 0));
                (s0 + s1, c0 + c1)
            })
            .collect();
        self.points = merged;
        self.window *= 2;
    }

    /// The current window length in cycles (grows under coarsening).
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The series as `(window start cycle, sum, sample count)` rows.
    pub fn points(&self) -> Vec<(u64, u64, u64)> {
        self.points
            .iter()
            .enumerate()
            .map(|(i, &(sum, count))| (i as u64 * self.window, sum, count))
            .collect()
    }

    /// Sum over the whole series.
    pub fn total(&self) -> u64 {
        self.points.iter().map(|&(s, _)| s).sum()
    }
}

/// Per-device telemetry state.
#[derive(Debug, Clone)]
pub(crate) struct DeviceTelemetry {
    /// Per-stage span histograms, indexed in [`Stage::ALL`] order.
    pub(crate) stages: [Hist; 5],
    /// Per-link FLITs sent per window (link bandwidth).
    pub(crate) link_flits: Vec<TimeSeries>,
    /// Vault request-queue occupancy, sampled each cycle.
    pub(crate) vault_occupancy: TimeSeries,
    /// DRAM bank accesses per window (bank utilization).
    pub(crate) bank_accesses: TimeSeries,
    last_link_flits: Vec<u64>,
    last_bank_accesses: u64,
}

/// The attached telemetry collector (see [`TelemetryConfig`]).
#[derive(Debug, Clone)]
pub struct Telemetry {
    pub(crate) config: TelemetryConfig,
    pub(crate) devices: Vec<DeviceTelemetry>,
}

impl Telemetry {
    pub(crate) fn new(config: TelemetryConfig, sim: &HmcSim) -> Self {
        let devices = sim
            .devices
            .iter()
            .map(|d| {
                let links = d.config().links;
                DeviceTelemetry {
                    stages: [Hist::new(); 5],
                    link_flits: (0..links)
                        .map(|_| TimeSeries::new(config.window, config.max_windows))
                        .collect(),
                    vault_occupancy: TimeSeries::new(config.window, config.max_windows),
                    bank_accesses: TimeSeries::new(config.window, config.max_windows),
                    last_link_flits: vec![0; links],
                    last_bank_accesses: 0,
                }
            })
            .collect();
        Telemetry { config, devices }
    }

    /// Resolves a delivered response's stage stamps into per-stage
    /// durations. Called from the delivery path in `clock()`.
    pub(crate) fn record_response(&mut self, dev: usize, rsp: &TrackedResponse) {
        if !self.config.spans {
            return;
        }
        let Some(d) = self.devices.get_mut(dev) else { return };
        let s = rsp.stages;
        let durations = [
            s.vault_enq.saturating_sub(rsp.issue_cycle),
            s.exec.saturating_sub(s.vault_enq),
            s.rsp_route.saturating_sub(s.exec),
            s.egress.saturating_sub(s.rsp_route),
            rsp.complete_cycle.saturating_sub(s.egress),
        ];
        for (h, v) in d.stages.iter_mut().zip(durations) {
            h.record(v);
        }
    }

    /// The span histogram for one stage of one device.
    pub fn stage_hist(&self, dev: usize, stage: Stage) -> Option<&Hist> {
        let idx = Stage::ALL.iter().position(|s| *s == stage)?;
        self.devices.get(dev).map(|d| &d.stages[idx])
    }

    /// Re-bases the delta baselines (the `last_*` counters) on `sim`'s
    /// current state. Called by [`HmcSim::restore`]: the restored
    /// device counters may be *behind* the collector's recorded
    /// baselines, and without a rebase the next [`Telemetry::sample`]
    /// delta would underflow.
    pub(crate) fn rebase(&mut self, sim: &HmcSim) {
        for (dev, t) in self.devices.iter_mut().enumerate() {
            for link in 0..t.last_link_flits.len() {
                t.last_link_flits[link] = sim.links[dev][link].stats.flits_sent;
            }
            let (hits, misses) = sim.devices[dev].row_buffer_stats();
            t.last_bank_accesses = hits + misses;
        }
    }

    /// Samples the `k` cycles from `start` (1 for a full cycle; a
    /// skipped idle run's length). Read-only over the simulation state;
    /// called via take/put from the clock. The first cycle reads the
    /// state (a collector attached mid-run may still hold stale
    /// `last_*` counters whose first delta is nonzero); the other
    /// `k - 1` of an idle run are zero-delta, zero-occupancy samples,
    /// appended in closed form via [`TimeSeries::record_n`].
    pub(crate) fn sample(&mut self, sim: &HmcSim, start: u64, k: u64) {
        if self.config.window == 0 {
            return;
        }
        for (dev, t) in self.devices.iter_mut().enumerate() {
            for link in 0..t.last_link_flits.len() {
                let now = sim.links[dev][link].stats.flits_sent;
                let delta = now - t.last_link_flits[link];
                t.link_flits[link].record(start, delta);
                t.last_link_flits[link] = now;
            }
            t.vault_occupancy
                .record(start, sim.devices[dev].vault_rqst_occupancy());
            let (hits, misses) = sim.devices[dev].row_buffer_stats();
            let accesses = hits + misses;
            t.bank_accesses
                .record(start, accesses - t.last_bank_accesses);
            t.last_bank_accesses = accesses;
            if k > 1 {
                for series in t.link_flits.iter_mut() {
                    series.record_n(start + 1, k - 1, 0);
                }
                t.vault_occupancy.record_n(start + 1, k - 1, 0);
                t.bank_accesses.record_n(start + 1, k - 1, 0);
            }
        }
    }
}

impl HmcSim {
    /// Attaches a telemetry collector. Enabling mid-run is legal: the
    /// series and span histograms start from the current cycle, while
    /// the always-on aggregates already cover the whole run.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        let config = TelemetryConfig { enabled: true, ..config };
        self.config.telemetry = config.clone();
        let tel = Box::new(Telemetry::new(config, self));
        self.telemetry = Some(tel);
    }

    /// Detaches the telemetry collector, returning the final report.
    pub fn disable_telemetry(&mut self) -> Option<crate::export::TelemetryReport> {
        let report = self.telemetry_report();
        self.config.telemetry.enabled = false;
        self.telemetry = None;
        report
    }

    /// True when a telemetry collector is attached.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// End-of-cycle sampling hook for the `k` cycles from `start`. The
    /// collector is taken out of the context for the call (the same
    /// take/put dance as the sanitizer) so it can read the whole
    /// simulation state.
    pub(crate) fn run_telemetry(&mut self, start: u64, k: u64) {
        let Some(mut tel) = self.telemetry.take() else { return };
        tel.sample(self, start, k);
        self.telemetry = Some(tel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_disabled() {
        assert!(!TelemetryConfig::default().enabled);
        assert!(TelemetryConfig::full().enabled);
        assert!(TelemetryConfig::counters_only().enabled);
        assert!(!TelemetryConfig::counters_only().spans);
    }

    #[test]
    fn time_series_windows_accumulate() {
        let mut ts = TimeSeries::new(10, 8);
        ts.record(0, 5);
        ts.record(9, 3);
        ts.record(10, 7);
        let points = ts.points();
        assert_eq!(points[0], (0, 8, 2));
        assert_eq!(points[1], (10, 7, 1));
        assert_eq!(ts.total(), 15);
    }

    #[test]
    fn time_series_coarsens_deterministically() {
        let mut ts = TimeSeries::new(1, 4);
        for cycle in 0..16u64 {
            ts.record(cycle, 1);
        }
        assert!(ts.points().len() <= 4);
        assert_eq!(ts.total(), 16, "coarsening loses no mass");
        assert!(ts.window() > 1);

        let mut again = TimeSeries::new(1, 4);
        for cycle in 0..16u64 {
            again.record(cycle, 1);
        }
        assert_eq!(ts, again, "deterministic");
    }

    #[test]
    fn zero_window_series_is_inert() {
        let mut ts = TimeSeries::new(0, 4);
        ts.record(100, 42);
        assert!(ts.points().is_empty());
        ts.record_n(100, 50, 42);
        assert!(ts.points().is_empty());
    }

    #[test]
    fn record_n_matches_repeated_record() {
        // Differential check across window boundaries, coarsening and
        // nonzero values: one bulk append must be bit-identical to the
        // per-cycle loop.
        for (window, max_windows, start, n, value) in [
            (10, 8, 0, 25, 0u64),
            (10, 8, 7, 25, 3),
            (1, 4, 0, 64, 1),   // forces repeated coarsening
            (5, 2, 12, 33, 2),  // tiny retention, offset start
            (10, 8, 95, 1, 9),  // single-cycle run
            (10, 8, 42, 0, 9),  // empty run is a no-op
        ] {
            let mut bulk = TimeSeries::new(window, max_windows);
            bulk.record_n(start, n, value);
            let mut scalar = TimeSeries::new(window, max_windows);
            for cycle in start..start + n {
                scalar.record(cycle, value);
            }
            assert_eq!(bulk, scalar, "window={window} start={start} n={n}");
        }
    }

    #[test]
    fn record_n_composes_with_record() {
        // Interleaving bulk and scalar appends behaves like one scalar
        // stream (the skip engine alternates idle runs with real
        // samples).
        let mut mixed = TimeSeries::new(10, 8);
        mixed.record(0, 4);
        mixed.record_n(1, 30, 0);
        mixed.record(31, 6);
        let mut scalar = TimeSeries::new(10, 8);
        scalar.record(0, 4);
        for cycle in 1..31 {
            scalar.record(cycle, 0);
        }
        scalar.record(31, 6);
        assert_eq!(mixed, scalar);
    }
}
