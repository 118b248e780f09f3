//! DRAM bank-service timing.
//!
//! The paper's core model is deliberately cycle-abstract: a bank access
//! costs a flat `bank_latency` and the interesting behaviour is
//! structural (queues, crossbars, bandwidth). Richer DRAM timing is the
//! paper's §VII future work; three backends ship, and they are data in
//! one [`TimingEngine`], not three types:
//!
//! * `fixed` — the paper's model and the default. Every access occupies
//!   the bank for exactly `bank_latency` cycles; the row-hit/row-miss
//!   knobs are inert.
//! * `row_buffer` — hits cost `bank_latency + row_hit`, misses
//!   `bank_latency + row_miss`, and a refresh window (tRFC) also closes
//!   the open row of the bank it refreshed.
//! * `validated` — `fixed` drives every simulation decision, while a
//!   shadow bank array is served the same accesses under `row_buffer`
//!   rules; the per-access completion-time divergence is recorded (the
//!   question the Ramulator 2.0 re-evaluation study asks of an abstract
//!   model).
//!
//! They differ in the live bank's [`BankTiming`], in whether a refresh
//! closes the live row, and in whether the shadow array exists.
//!
//! ## Contracts
//!
//! * **Determinism** — bank-state evolution is a pure function of the
//!   access stream.
//! * **Absolute time** — a bank holds the cycle it is busy until, not
//!   a countdown, so its state needs no clock while its device is idle
//!   and an idle-cycle jump passes a busy bank safely (DESIGN.md §18).
//! * **Observation only** — the latency-class histograms, the divergence
//!   record and the shadow banks live outside the fingerprint: they ride
//!   through snapshots but never influence simulation state.

use crate::config::{env_override, DeviceConfig};
use crate::dram::{Bank, BankTiming, RefreshConfig};
use crate::hist::Hist;
use crate::jsonv::{from_name, name_of};
use hmc_types::HmcError;

/// Which bank-service timing backend a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingSelect {
    /// Flat `bank_latency` per access (the paper's model; the default).
    #[default]
    FixedLatency,
    /// Open/closed-page row-buffer timing with refresh-closed rows.
    RowBuffer,
    /// `FixedLatency` timing plus a shadow `RowBuffer` bank array run
    /// in lockstep, reporting per-access divergence through telemetry.
    Validated,
}

/// Environment variable consulted by [`TimingSelect::resolve_env`]; set
/// to `fixed`, `row_buffer` or `validated` to opt unconfigured
/// simulations into a non-default timing backend.
pub const TIMING_ENV: &str = "HMCSIM_TIMING";

impl TimingSelect {
    /// The backend names used in JSON codecs, env values and telemetry
    /// paths.
    pub const NAMES: [(&'static str, TimingSelect); 3] = [
        ("fixed", TimingSelect::FixedLatency),
        ("row_buffer", TimingSelect::RowBuffer),
        ("validated", TimingSelect::Validated),
    ];

    /// The backend's name in [`TimingSelect::NAMES`].
    pub fn name(self) -> &'static str {
        name_of(&Self::NAMES, self)
    }

    /// Parses an explicit `HMCSIM_TIMING` value. Anything but a name in
    /// [`TimingSelect::NAMES`] — including an empty string — is rejected
    /// with an error naming the variable and the accepted values: a
    /// typo in a CI matrix must fail the job, not quietly run the wrong
    /// model.
    pub fn parse_env_value(raw: &str) -> Result<Self, HmcError> {
        from_name(&Self::NAMES, "timing backend", raw).map_err(|e| {
            let names = Self::NAMES.map(|(name, _)| name).join(", ");
            HmcError::MalformedPacket(format!("{TIMING_ENV}: {} (expected {names})", e.message))
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
    /// `fixed` every access with an open-row match counts here even
    /// though the latency is flat).
    pub hit_latency: Hist,
    /// Service latencies of accesses that opened (or re-opened) a row.
    pub miss_latency: Hist,
    /// `|shadow completion − live completion|` per access (`validated`
    /// only).
    pub divergence: Hist,
    /// Accesses whose shadow bank finished later than the live one.
    pub shadow_late: u64,
    /// Accesses whose shadow bank finished earlier than the live one.
    pub shadow_early: u64,
    /// Accesses where both banks finished on the same cycle.
    pub shadow_agree: u64,
}

impl TimingStats {
    /// Records one served access into the latency-class histograms.
    #[inline]
    fn record_access(&mut self, hit: bool, latency: u64) {
        if hit {
            self.hit_latency.record(latency);
        } else {
            self.miss_latency.record(latency);
        }
    }

    /// Records one live/shadow completion pair (`validated`).
    #[inline]
    fn record_divergence(&mut self, live_end: u64, shadow_end: u64) {
        self.divergence.record(live_end.abs_diff(shadow_end));
        if shadow_end > live_end {
            self.shadow_late += 1;
        } else if shadow_end < live_end {
            self.shadow_early += 1;
        } else {
            self.shadow_agree += 1;
        }
    }
}

/// Everything the timing backend serializes through the snapshot
/// codecs: which backend was running, its observation counters and (for
/// `validated`) the shadow bank array. Excluded from
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

/// A device's bank timing: the backend's settings as data, its
/// observation counters and the `validated` shadow banks.
#[derive(Debug, Clone)]
pub(crate) struct TimingEngine {
    select: TimingSelect,
    /// What the live banks are served with: a flat `bank_latency` in
    /// both classes, or `row` under `row_buffer`. The row policy is
    /// the configured one either way, so open-row bookkeeping and the
    /// fingerprinted hit/miss counters evolve alike.
    live: BankTiming,
    /// The row-aware timing: `bank_latency` folded into `row_hit` and
    /// `row_miss`.
    row: BankTiming,
    refresh: Option<RefreshConfig>,
    total_banks: u64,
    pub(crate) stats: TimingStats,
    /// One bank per global bank under `validated`, empty otherwise.
    shadow: Vec<Bank>,
}

impl TimingEngine {
    /// The engine for `select` on a validated device configuration.
    pub(crate) fn new(select: TimingSelect, config: &DeviceConfig) -> Self {
        let total_banks = config.total_vaults() * config.banks_per_vault;
        let (latency, t) = (config.bank_latency, config.bank_timing);
        let row = BankTiming { row_hit: t.row_hit + latency, row_miss: t.row_miss + latency, ..t };
        let flat = BankTiming { row_hit: latency, row_miss: latency, ..t };
        let validated = select == TimingSelect::Validated;
        TimingEngine {
            select,
            live: if select == TimingSelect::RowBuffer { row } else { flat },
            row,
            refresh: config.refresh,
            total_banks: total_banks as u64,
            stats: TimingStats::default(),
            shadow: vec![Bank::default(); if validated { total_banks } else { 0 }],
        }
    }

    /// Rebuilds an engine from checkpointed state, adopting the
    /// snapshot's backend. A shadow array that does not fit — any
    /// shadow outside `validated`, or one of the wrong length under it
    /// — is an error, not a fresh start.
    pub(crate) fn from_snapshot(
        snap: &TimingSnapshot,
        config: &DeviceConfig,
    ) -> Result<Self, HmcError> {
        let mut engine = Self::new(snap.select, config);
        let (len, want) = (snap.shadow.len(), engine.shadow.len());
        if len != want {
            return Err(HmcError::MalformedPacket(format!(
                "snapshot timing `shadow` holds {len} banks; the {} backend keeps {want}",
                snap.select.name()
            )));
        }
        engine.stats = snap.stats;
        engine.shadow.clone_from(&snap.shadow);
        Ok(engine)
    }

    /// Which backend this is.
    pub(crate) fn select(&self) -> TimingSelect {
        self.select
    }

    /// Deep-copies the engine's serializable state.
    pub(crate) fn snapshot(&self) -> TimingSnapshot {
        TimingSnapshot { select: self.select, stats: self.stats, shadow: self.shadow.clone() }
    }

    /// True when `global_bank` is inside its refresh window at `cycle`
    /// (a refreshing bank accepts no access, under every backend).
    #[inline]
    pub(crate) fn refreshing(&self, cycle: u64, global_bank: u64) -> bool {
        self.refresh.is_some_and(|r| r.blocks(cycle, global_bank, self.total_banks))
    }

    /// True when a refresh window for `global_bank` started in
    /// `[from, to]`: a bank whose previous access ended at `from` had
    /// its open row closed by `to`. Decided from the stagger schedule
    /// alone, so banks carry no extra state.
    #[inline]
    fn refreshed(&self, from: u64, to: u64, global_bank: u64) -> bool {
        self.refresh.is_some_and(|r| r.starts_in(from, to, global_bank, self.total_banks))
    }

    /// Serves one access on the live `bank` at `cycle` and returns its
    /// latency: closes a refreshed row (`row_buffer` only), advances
    /// the bank, records the latency class, then serves the shadow bank
    /// when there is one.
    #[inline]
    pub(crate) fn serve(&mut self, bank: &mut Bank, cycle: u64, row: u64, global_bank: u64) -> u64 {
        if self.select == TimingSelect::RowBuffer
            && self.refreshed(bank.busy_horizon(), cycle, global_bank)
        {
            bank.close_row();
        }
        let hit = bank.would_hit(row, &self.live);
        let latency = bank.access(cycle, row, &self.live);
        self.stats.record_access(hit, latency);
        let g = global_bank as usize;
        if let Some(free) = self.shadow.get(g).map(Bank::busy_horizon) {
            // The earliest cycle legal under the detailed model: no
            // earlier than the live issue, the shadow bank's own busy
            // window and the end of any refresh window in force.
            let from = cycle.max(free);
            let start = self.refresh.map_or(from, |r| {
                r.next_unblocked(from, global_bank, self.total_banks)
            });
            let closed = self.refreshed(free, start, global_bank);
            let shadow = &mut self.shadow[g];
            if closed {
                shadow.close_row();
            }
            let shadow_latency = shadow.access(start, row, &self.row);
            self.stats.record_divergence(cycle + latency, start + shadow_latency);
        }
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::{RefreshConfig, RowPolicy};

    fn config() -> DeviceConfig {
        let mut c = DeviceConfig::gen2_4link_4gb();
        c.bank_latency = 2;
        c.bank_timing = BankTiming { row_hit: 1, row_miss: 6, policy: RowPolicy::OpenPage };
        c
    }

    #[test]
    fn names_round_trip_and_unknowns_reject_loudly() {
        for (name, select) in TimingSelect::NAMES {
            assert_eq!(select.name(), name);
            assert_eq!(TimingSelect::parse_env_value(name).unwrap(), select);
        }
        // Exactly the table's names: no case folding, trimming or aliases.
        for bad in ["", "warp_drive", "2", "rowbufer", "FIXED", " fixed", "fixed_latency", "row"] {
            let msg = TimingSelect::parse_env_value(bad).unwrap_err().to_string();
            assert!(msg.contains("unknown timing backend"), "{msg}");
            assert!(msg.contains(TIMING_ENV), "error names the variable: {msg}");
            assert!(msg.contains("fixed, row_buffer, validated"), "lists the values: {msg}");
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
        assert_eq!(engine.stats.hit_latency.count(), 1);
        assert_eq!(engine.stats.miss_latency.count(), 1);
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
        assert!(engine.refreshing(105, 0) && !engine.refreshing(110, 0));
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
        let s = engine.stats;
        assert_eq!(s.divergence.count(), 4, "one divergence sample per access");
        assert_eq!(s.shadow_late + s.shadow_early + s.shadow_agree, 4);
        assert!(s.divergence.max() > 0, "row-miss shadow must diverge from flat latency");
    }

    #[test]
    fn snapshot_round_trips_every_backend() {
        for (_, select) in TimingSelect::NAMES {
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
            let restored = TimingEngine::from_snapshot(&snap, &c).unwrap();
            assert_eq!(snap, restored.snapshot(), "snapshot must round-trip");
        }
    }

    #[test]
    fn a_shadow_that_does_not_fit_is_rejected() {
        let c = config();
        let total = c.total_vaults() * c.banks_per_vault;
        for (select, len) in [
            (TimingSelect::FixedLatency, 1),
            (TimingSelect::RowBuffer, total),
            (TimingSelect::Validated, total - 1),
            (TimingSelect::Validated, total + 1),
            (TimingSelect::Validated, 0),
        ] {
            let shadow = vec![Bank::default(); len];
            let snap = TimingSnapshot { select, shadow, ..Default::default() };
            let err = TimingEngine::from_snapshot(&snap, &c).unwrap_err().to_string();
            assert!(err.contains(&format!("`shadow` holds {len} banks")), "{err}");
        }
    }
}
