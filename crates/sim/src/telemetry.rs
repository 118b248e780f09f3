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

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

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
    /// Time-series window length in cycles (`0` disables the windowed
    /// series).
    pub window: u64,
}

/// Windows a [`TimeSeries`] retains: past it, adjacent windows merge
/// pairwise and the window length doubles, so memory stays bounded on
/// arbitrarily long runs.
pub const MAX_WINDOWS: usize = 256;

impl TelemetryConfig {
    /// Telemetry off (the default).
    pub fn disabled() -> Self {
        TelemetryConfig { enabled: false, window: 1024 }
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
/// simulation. They only *cost* anything (histogram recording) while a
/// collector is attached.
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
/// When a sample lands past [`MAX_WINDOWS`], adjacent windows merge
/// pairwise and the window doubles — deterministic coarsening, so two
/// identical runs always produce identical series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    window: u64,
    points: Vec<(u64, u64)>,
}

impl TimeSeries {
    /// Creates a series with the given window length.
    pub fn new(window: u64) -> Self {
        TimeSeries { window, points: Vec::new() }
    }

    /// Records `value` as the sample of `cycle`.
    pub fn record(&mut self, cycle: u64, value: u64) {
        if self.window == 0 {
            return;
        }
        let mut idx = (cycle / self.window) as usize;
        while idx >= MAX_WINDOWS {
            self.coarsen();
            idx = (cycle / self.window) as usize;
        }
        if self.points.len() <= idx {
            self.points.resize(idx + 1, (0, 0));
        }
        self.points[idx].0 += value;
        self.points[idx].1 += 1;
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
                        .map(|_| TimeSeries::new(config.window))
                        .collect(),
                    vault_occupancy: TimeSeries::new(config.window),
                    bank_accesses: TimeSeries::new(config.window),
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
            t.last_bank_accesses = dram_accesses(sim, dev);
        }
    }

    /// Samples `cycle`. Read-only over the simulation state; called
    /// via take/put from the clock.
    pub(crate) fn sample(&mut self, sim: &HmcSim, cycle: u64) {
        if self.config.window == 0 {
            return;
        }
        for (dev, t) in self.devices.iter_mut().enumerate() {
            for link in 0..t.last_link_flits.len() {
                let now = sim.links[dev][link].stats.flits_sent;
                let delta = now - t.last_link_flits[link];
                t.link_flits[link].record(cycle, delta);
                t.last_link_flits[link] = now;
            }
            t.vault_occupancy.record(cycle, sim.devices[dev].vault_rqst_occupancy());
            let accesses = dram_accesses(sim, dev);
            t.bank_accesses.record(cycle, accesses - t.last_bank_accesses);
            t.last_bank_accesses = accesses;
        }
    }
}

/// Bank accesses of device `dev` so far: the power model counts one per
/// bank served, so the banks' hit and miss counters need no walk.
fn dram_accesses(sim: &HmcSim, dev: usize) -> u64 {
    sim.devices[dev].power().dram_accesses
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

    /// End-of-cycle sampling hook for `cycle`. The collector is taken
    /// out of the context for the call (the same take/put dance as the
    /// sanitizer) so it can read the whole simulation state.
    pub(crate) fn run_telemetry(&mut self, cycle: u64) {
        let Some(mut tel) = self.telemetry.take() else { return };
        tel.sample(self, cycle);
        self.telemetry = Some(tel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The series' bank accesses come from the power model: every bank
    /// served is one DRAM access, with refresh closing rows, injected
    /// vault faults serving none, and across a restore.
    #[test]
    fn bank_hits_and_misses_sum_to_the_power_models_dram_accesses() {
        use crate::dram::{BankTiming, RefreshConfig, RowPolicy};
        use crate::{DeviceConfig, FaultPlan, SimConfig, TimingSelect};
        use hmc_types::HmcRqst;
        let mut cube = DeviceConfig::gen2_4link_4gb();
        cube.bank_timing = BankTiming { row_hit: 2, row_miss: 9, policy: RowPolicy::OpenPage };
        cube.refresh = Some(RefreshConfig { interval: 300, duration: 12 });
        cube.fault = FaultPlan::seeded(0x5eed).with_vault_errors(20_000);
        let config = SimConfig {
            timing: TimingSelect::RowBuffer,
            telemetry: TelemetryConfig::full(),
            ..SimConfig::single(cube)
        };
        let mut sim = HmcSim::with_config(config).unwrap();
        let run = |sim: &mut HmcSim, cycles: u64| {
            for i in 0..cycles {
                for link in 0..4 {
                    while sim.recv(0, link).is_some() {}
                    let addr = (i * 4 + link as u64).wrapping_mul(0x9E37_79B9) % (1 << 10) * 64;
                    let cmd = if i % 3 == 0 { HmcRqst::Wr16 } else { HmcRqst::Rd64 };
                    let payload: &[u64] = if cmd == HmcRqst::Wr16 { &[1, 2] } else { &[] };
                    let _ = sim.send_simple(0, link, cmd, addr, payload);
                }
                sim.clock();
            }
        };
        let agree = |sim: &HmcSim, at: &str| {
            let (hits, misses) = sim.row_buffer_stats(0).unwrap();
            assert!(hits > 0 && misses > 0, "{at}: {hits} hits, {misses} misses");
            assert_eq!(hits + misses, dram_accesses(sim, 0), "{at}");
        };
        run(&mut sim, 2_000);
        assert!(sim.stats(0).unwrap().vault_faults > 0, "faults served no bank");
        agree(&sim, "after the run");
        let snap = sim.snapshot();
        run(&mut sim, 500);
        sim.restore(&snap).unwrap();
        agree(&sim, "after the restore");
        run(&mut sim, 500);
        agree(&sim, "after running on from the restore");
    }

    #[test]
    fn default_config_is_disabled() {
        assert!(!TelemetryConfig::default().enabled);
        assert!(TelemetryConfig::full().enabled);
    }

    #[test]
    fn time_series_windows_accumulate() {
        let mut ts = TimeSeries::new(10);
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
        // 1,024 one-cycle windows: past 256 the series coarsens to 2,
        // past 512 to 4 cycles a window.
        let mut ts = TimeSeries::new(1);
        for cycle in 0..4 * MAX_WINDOWS as u64 {
            ts.record(cycle, 1);
        }
        assert_eq!(ts.points().len(), MAX_WINDOWS);
        assert_eq!(ts.total(), 4 * MAX_WINDOWS as u64, "coarsening loses no mass");
        assert_eq!(ts.window(), 4);
        assert!(ts.points().iter().all(|&(_, sum, count)| (sum, count) == (4, 4)));

        let mut again = TimeSeries::new(1);
        for cycle in 0..4 * MAX_WINDOWS as u64 {
            again.record(cycle, 1);
        }
        assert_eq!(ts, again, "deterministic");
    }

    #[test]
    fn zero_window_series_is_inert() {
        let mut ts = TimeSeries::new(0);
        ts.record(100, 42);
        assert!(ts.points().is_empty());
    }
}
