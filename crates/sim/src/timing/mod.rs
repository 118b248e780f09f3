//! Composable DRAM bank-service timing backends.
//!
//! The paper's core model is deliberately cycle-abstract: a bank access
//! costs a flat `bank_latency` and the interesting behaviour is
//! structural (queues, crossbars, bandwidth). ROADMAP open item #2 asks
//! for a Ramulator-2.1-style split so bank service becomes a swappable
//! *timing model* instead of a hard-coded latency. This module is that
//! seam: the [`TimingModel`] trait captures every point where the vault
//! execute stage consults bank timing, and [`TimingEngine`] statically
//! dispatches over the three shipped backends:
//!
//! * [`FixedLatency`] — the paper's model. Every access occupies the
//!   bank for exactly `bank_latency` cycles regardless of row locality;
//!   the per-config row-hit/row-miss knobs are inert. Bit-identical to
//!   the pre-trait engine for every pinned fingerprint.
//! * [`RowBuffer`] — the open/closed-page model from [`crate::dram`]
//!   promoted to a first-class backend: hits cost
//!   `bank_latency + row_hit`, misses `bank_latency + row_miss`, and a
//!   staggered refresh window (tRFC) additionally *closes* the open row
//!   of the bank it refreshed.
//! * [`Validated`] — the accuracy-validation mode motivated by the
//!   Ramulator 2.0 re-evaluation study: a primary [`FixedLatency`]
//!   model drives every simulation decision (so all determinism
//!   contracts keep holding), while a shadow [`RowBuffer`] bank array
//!   is served with the same access stream and the per-access
//!   completion-time divergence is recorded into a histogram surfaced
//!   through telemetry.
//!
//! ## Contracts
//!
//! * **Determinism** — a backend's bank-state evolution is a pure
//!   function of the access stream.
//! * **Horizon** — [`TimingModel::next_event_cycle`] returns the
//!   earliest cycle (strictly after `cycle`) at which any bank the
//!   backend tracks changes availability. The event-horizon engine
//!   never skips past it, so idle-cycle compression stays conservative
//!   for every backend (see DESIGN.md §18).
//! * **Observation only** — the latency-class histograms and the
//!   validated divergence metrics live outside the fingerprint: they
//!   ride through snapshots (so checkpoints round-trip byte-exactly)
//!   but never influence simulation state.

mod fixed;
mod row_buffer;
mod validated;

pub use fixed::FixedLatency;
pub use row_buffer::RowBuffer;
pub use validated::Validated;

use crate::config::{env_override, DeviceConfig};
use crate::dram::Bank;
use crate::hist::Hist;
use hmc_types::HmcError;

/// Which bank-service timing backend a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingSelect {
    /// Flat `bank_latency` per access (the paper's model; the default).
    #[default]
    FixedLatency,
    /// Open/closed-page row-buffer timing with refresh-closed rows.
    RowBuffer,
    /// `FixedLatency` primary plus a shadow `RowBuffer` run in
    /// lockstep, reporting per-access divergence through telemetry.
    Validated,
}

/// Environment variable consulted by [`TimingSelect::resolve_env`]; set
/// to `fixed`, `row_buffer` or `validated` to opt unconfigured
/// simulations into a non-default timing backend.
pub const TIMING_ENV: &str = "HMCSIM_TIMING";

impl TimingSelect {
    /// The stable lowercase name used in JSON codecs, env values and
    /// telemetry paths.
    pub fn name(self) -> &'static str {
        match self {
            TimingSelect::FixedLatency => "fixed",
            TimingSelect::RowBuffer => "row_buffer",
            TimingSelect::Validated => "validated",
        }
    }

    /// Parses a backend name (the inverse of [`TimingSelect::name`],
    /// plus a few forgiving aliases). Unknown names are rejected loudly
    /// with the full list of accepted values.
    pub fn from_name(raw: &str) -> Result<Self, HmcError> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "fixed" | "fixed_latency" | "fixed-latency" => Ok(TimingSelect::FixedLatency),
            "row_buffer" | "row-buffer" | "rowbuffer" | "row" => Ok(TimingSelect::RowBuffer),
            "validated" => Ok(TimingSelect::Validated),
            other => Err(HmcError::MalformedPacket(format!(
                "unknown timing backend {other:?} (expected fixed, row_buffer or validated)"
            ))),
        }
    }

    /// Parses an explicit `HMCSIM_TIMING` value. Anything but a known
    /// backend name — including an empty string — is rejected with a
    /// descriptive error naming the variable: a typo in a CI matrix
    /// must fail the job, not quietly run the wrong model.
    pub fn parse_env_value(raw: &str) -> Result<Self, HmcError> {
        Self::from_name(raw).map_err(|e| {
            HmcError::MalformedPacket(format!("{TIMING_ENV}: {e}"))
        })
    }

    /// Resolves the effective backend, letting the `HMCSIM_TIMING`
    /// environment variable upgrade an unconfigured
    /// ([`TimingSelect::FixedLatency`]) selection — mirroring
    /// [`crate::SkipMode::resolve_env`], this is how the CI timing
    /// matrix drives the whole test suite through each backend without
    /// touching call sites. An explicit non-default setting always
    /// wins; an invalid value is an error — see
    /// [`TimingSelect::parse_env_value`].
    pub fn resolve_env(self) -> Result<Self, HmcError> {
        env_override(self, TIMING_ENV, Self::parse_env_value)
    }
}

/// Per-backend observation counters: latency-class histograms for
/// every served access, plus the validated mode's divergence record.
/// Fingerprint-blind — these are exported through telemetry and carried
/// through snapshots, but the simulation never reads them back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimingStats {
    /// Service latencies of accesses that hit the open row (under
    /// [`FixedLatency`] every access with an open-row match counts
    /// here even though the latency is flat).
    pub hit_latency: Hist,
    /// Service latencies of accesses that opened (or re-opened) a row.
    pub miss_latency: Hist,
    /// `|shadow completion − primary completion|` per access
    /// ([`Validated`] only).
    pub divergence: Hist,
    /// Accesses whose shadow model finished later than the primary.
    pub shadow_late: u64,
    /// Accesses whose shadow model finished earlier than the primary.
    pub shadow_early: u64,
    /// Accesses where both models finished on the same cycle.
    pub shadow_agree: u64,
}

impl TimingStats {
    /// Records one served access into the latency-class histograms.
    #[inline]
    pub(crate) fn record_access(&mut self, hit: bool, latency: u64) {
        if hit {
            self.hit_latency.record(latency);
        } else {
            self.miss_latency.record(latency);
        }
    }

    /// Records one primary/shadow completion pair ([`Validated`]).
    #[inline]
    pub(crate) fn record_divergence(&mut self, primary_end: u64, shadow_end: u64) {
        self.divergence.record(primary_end.abs_diff(shadow_end));
        if shadow_end > primary_end {
            self.shadow_late += 1;
        } else if shadow_end < primary_end {
            self.shadow_early += 1;
        } else {
            self.shadow_agree += 1;
        }
    }
}

/// Everything a timing backend serializes through the snapshot codecs:
/// which backend was running, its observation counters and (for
/// [`Validated`]) the shadow bank array. Excluded from
/// [`crate::snapshot::SimSnapshot::fingerprint`] — restoring it makes a
/// resumed run's *telemetry* continue seamlessly, while the simulation
/// state proper is already covered by the fingerprinted fields.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimingSnapshot {
    /// Backend selection at snapshot time (adopted on restore so a
    /// resumed run replays under the model that produced it).
    pub select: TimingSelect,
    /// Observation counters.
    pub stats: TimingStats,
    /// Shadow bank array, one per global bank (empty unless
    /// [`TimingSelect::Validated`]).
    pub shadow: Vec<Bank>,
}

/// The seam between the vault execute stage and bank timing. One
/// implementation per backend; [`TimingEngine`] statically dispatches.
pub trait TimingModel {
    /// Which backend this is.
    fn select(&self) -> TimingSelect;

    /// Serves one access on the live `bank` at `cycle`: advances the
    /// bank (busy window, row state, hit/miss counters), records the
    /// latency class, and feeds the shadow model if there is one.
    /// Returns the service latency in cycles.
    fn serve(&mut self, bank: &mut Bank, cycle: u64, row: u64, global_bank: u64) -> u64;

    /// The earliest cycle strictly after `cycle` at which any bank this
    /// backend tracks changes availability, or `None` when every
    /// tracked bank is already settled. The event-horizon engine never
    /// skips past this cycle, which keeps idle-cycle compression
    /// conservative for every backend.
    fn next_event_cycle(
        &self,
        banks: &mut dyn Iterator<Item = &Bank>,
        cycle: u64,
    ) -> Option<u64>;

    /// The observation counters.
    fn stats(&self) -> &TimingStats;
}

/// The earliest `busy_until` strictly after `cycle` across `banks` —
/// the shared live-bank part of every backend's horizon.
pub(crate) fn banks_horizon(
    banks: &mut dyn Iterator<Item = &Bank>,
    cycle: u64,
) -> Option<u64> {
    banks
        .map(|b| b.busy_horizon())
        .filter(|&t| t > cycle)
        .min()
}

/// Static dispatch over the shipped backends, stored per device.
#[derive(Debug, Clone)]
pub(crate) enum TimingEngine {
    Fixed(FixedLatency),
    Row(RowBuffer),
    Validated(Box<Validated>),
}

impl TimingEngine {
    /// Builds the engine for `select` against a validated device
    /// configuration.
    pub(crate) fn new(select: TimingSelect, config: &DeviceConfig) -> Self {
        match select {
            TimingSelect::FixedLatency => TimingEngine::Fixed(FixedLatency::new(config)),
            TimingSelect::RowBuffer => TimingEngine::Row(RowBuffer::new(config)),
            TimingSelect::Validated => TimingEngine::Validated(Box::new(Validated::new(config))),
        }
    }

    /// Rebuilds an engine from checkpointed state, adopting the
    /// snapshot's backend selection so a resumed run continues under
    /// the model that produced it.
    pub(crate) fn from_snapshot(snap: &TimingSnapshot, config: &DeviceConfig) -> Self {
        let mut engine = Self::new(snap.select, config);
        match &mut engine {
            TimingEngine::Fixed(m) => m.stats = snap.stats,
            TimingEngine::Row(m) => m.stats = snap.stats,
            TimingEngine::Validated(m) => {
                m.stats = snap.stats;
                if snap.shadow.len() == m.shadow.len() {
                    m.shadow = snap.shadow.clone();
                }
            }
        }
        engine
    }

    /// Deep-copies the engine's serializable state.
    pub(crate) fn snapshot(&self) -> TimingSnapshot {
        TimingSnapshot {
            select: self.model().select(),
            stats: *self.model().stats(),
            shadow: match self {
                TimingEngine::Validated(m) => m.shadow.clone(),
                _ => Vec::new(),
            },
        }
    }

    #[inline]
    fn model(&self) -> &dyn TimingModel {
        match self {
            TimingEngine::Fixed(m) => m,
            TimingEngine::Row(m) => m,
            TimingEngine::Validated(m) => m.as_ref(),
        }
    }

    #[inline]
    pub(crate) fn select(&self) -> TimingSelect {
        self.model().select()
    }

    #[inline]
    pub(crate) fn stats(&self) -> &TimingStats {
        self.model().stats()
    }

    #[inline]
    pub(crate) fn serve(
        &mut self,
        bank: &mut Bank,
        cycle: u64,
        row: u64,
        global_bank: u64,
    ) -> u64 {
        match self {
            TimingEngine::Fixed(m) => m.serve(bank, cycle, row, global_bank),
            TimingEngine::Row(m) => m.serve(bank, cycle, row, global_bank),
            TimingEngine::Validated(m) => m.serve(bank, cycle, row, global_bank),
        }
    }

    #[inline]
    pub(crate) fn next_event_cycle(
        &self,
        banks: &mut dyn Iterator<Item = &Bank>,
        cycle: u64,
    ) -> Option<u64> {
        self.model().next_event_cycle(banks, cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::{BankTiming, RefreshConfig, RowPolicy};

    fn config() -> DeviceConfig {
        let mut c = DeviceConfig::gen2_4link_4gb();
        c.bank_latency = 2;
        c.bank_timing = BankTiming { row_hit: 1, row_miss: 6, policy: RowPolicy::OpenPage };
        c
    }

    #[test]
    fn names_round_trip_and_unknowns_reject_loudly() {
        for select in
            [TimingSelect::FixedLatency, TimingSelect::RowBuffer, TimingSelect::Validated]
        {
            assert_eq!(TimingSelect::from_name(select.name()).unwrap(), select);
        }
        for alias in ["FIXED", " fixed_latency ", "fixed-latency"] {
            assert_eq!(TimingSelect::from_name(alias).unwrap(), TimingSelect::FixedLatency);
        }
        for alias in ["row", "ROW-BUFFER", "rowbuffer"] {
            assert_eq!(TimingSelect::from_name(alias).unwrap(), TimingSelect::RowBuffer);
        }
        for bad in ["", "warp_drive", "2", "rowbufer"] {
            let msg = TimingSelect::from_name(bad).unwrap_err().to_string();
            assert!(msg.contains("unknown timing backend"), "{msg}");
            let msg = TimingSelect::parse_env_value(bad).unwrap_err().to_string();
            assert!(msg.contains(TIMING_ENV), "error names the variable: {msg}");
        }
    }

    #[test]
    fn explicit_selection_is_never_downgraded_by_env() {
        assert_eq!(TimingSelect::default(), TimingSelect::FixedLatency);
        assert_eq!(
            TimingSelect::RowBuffer.resolve_env().unwrap(),
            TimingSelect::RowBuffer
        );
        assert_eq!(
            TimingSelect::Validated.resolve_env().unwrap(),
            TimingSelect::Validated
        );
    }

    #[test]
    fn fixed_latency_flattens_row_knobs() {
        let mut engine = TimingEngine::new(TimingSelect::FixedLatency, &config());
        let mut bank = Bank::default();
        // Miss then hit: both cost exactly bank_latency.
        assert_eq!(engine.serve(&mut bank, 0, 5, 0), 2);
        assert_eq!(engine.serve(&mut bank, 2, 5, 0), 2);
        assert_eq!(engine.stats().hit_latency.count(), 1);
        assert_eq!(engine.stats().miss_latency.count(), 1);
        assert_eq!(bank.row_hits, 1);
        assert_eq!(bank.row_misses, 1);
    }

    #[test]
    fn row_buffer_honours_hit_and_miss_latencies() {
        let mut engine = TimingEngine::new(TimingSelect::RowBuffer, &config());
        let mut bank = Bank::default();
        assert_eq!(engine.serve(&mut bank, 0, 5, 0), 8, "miss: bank_latency + row_miss");
        assert_eq!(engine.serve(&mut bank, 8, 5, 0), 3, "hit: bank_latency + row_hit");
        assert_eq!(engine.serve(&mut bank, 11, 6, 0), 8, "row change misses");
    }

    #[test]
    fn row_buffer_refresh_closes_the_open_row() {
        let mut c = config();
        c.refresh = Some(RefreshConfig { interval: 100, duration: 10 });
        let mut engine = TimingEngine::new(TimingSelect::RowBuffer, &c);
        let mut bank = Bank::default();
        // Bank 0's refresh windows start at 0, 100, 200, ... Open row 5
        // after the first window, then access it again after cycle 100:
        // the second window closed the row, so the access misses.
        assert_eq!(engine.serve(&mut bank, 20, 5, 0), 8, "first access misses");
        assert_eq!(engine.serve(&mut bank, 50, 5, 0), 3, "row still open: hit");
        assert_eq!(engine.serve(&mut bank, 120, 5, 0), 8, "refresh closed the row");
        // A bank whose offset window has not yet recurred keeps its row.
        let mut far_bank = Bank::default();
        let total = (c.total_vaults() * c.banks_per_vault) as u64;
        engine.serve(&mut far_bank, 20, 5, total - 1);
        assert_eq!(engine.serve(&mut far_bank, 50, 5, total - 1), 3, "no window crossed: hit");
    }

    #[test]
    fn validated_drives_with_fixed_and_records_divergence() {
        let mut engine = TimingEngine::new(TimingSelect::Validated, &config());
        let mut primary_twin = TimingEngine::new(TimingSelect::FixedLatency, &config());
        let mut bank = Bank::default();
        let mut twin = Bank::default();
        let mut cycle = 0;
        for row in [4u64, 4, 9, 4] {
            assert_eq!(
                engine.serve(&mut bank, cycle, row, 0),
                primary_twin.serve(&mut twin, cycle, row, 0),
                "validated primary must be bit-identical to FixedLatency"
            );
            assert_eq!(format!("{bank:?}"), format!("{twin:?}"));
            cycle += 10;
        }
        let s = engine.stats();
        assert_eq!(s.divergence.count(), 4, "one divergence sample per access");
        assert_eq!(s.shadow_late + s.shadow_early + s.shadow_agree, 4);
        assert!(s.divergence.max() > 0, "row-miss shadow must diverge from flat latency");
    }

    #[test]
    fn horizon_covers_busy_banks_and_validated_shadow() {
        let mut engine = TimingEngine::new(TimingSelect::Validated, &config());
        let mut bank = Bank::default();
        engine.serve(&mut bank, 10, 5, 0);
        let banks = [bank];
        // Primary busy until 12, shadow until 18 (miss: 2 + 6 extra).
        let h = engine
            .next_event_cycle(&mut banks.iter(), 10)
            .expect("busy banks imply a horizon");
        assert_eq!(h, 12, "earliest event is the primary bank release");
        let h = engine.next_event_cycle(&mut banks.iter(), 13).expect("shadow still busy");
        assert_eq!(h, 18, "shadow release is a horizon event too");
        assert_eq!(engine.next_event_cycle(&mut banks.iter(), 18), None);
    }

    #[test]
    fn snapshot_round_trips_every_backend() {
        for select in
            [TimingSelect::FixedLatency, TimingSelect::RowBuffer, TimingSelect::Validated]
        {
            let c = config();
            let mut engine = TimingEngine::new(select, &c);
            let mut bank = Bank::default();
            let mut cycle = 0;
            for row in [1u64, 2, 2, 3] {
                engine.serve(&mut bank, cycle, row, 7);
                cycle += 20;
            }
            let snap = engine.snapshot();
            assert_eq!(snap.select, select);
            let restored = TimingEngine::from_snapshot(&snap, &c);
            assert_eq!(snap, restored.snapshot(), "snapshot must round-trip");
        }
    }
}
