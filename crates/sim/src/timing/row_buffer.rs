//! The open/closed-page row-buffer model as a first-class backend.

use crate::config::DeviceConfig;
use crate::dram::{Bank, BankTiming, RefreshConfig};
use crate::timing::{banks_horizon, TimingModel, TimingSelect, TimingStats};

/// Row-buffer timing: hits cost `bank_latency + row_hit` cycles, misses
/// `bank_latency + row_miss`, governed by the configured page policy.
///
/// The staggered refresh model is promoted with it: besides the stall
/// window the execute stage already enforces (a bank in its tRFC window
/// accepts no access — identical across backends), a refresh *closes
/// the open row* of the bank it refreshed. Whether a refresh happened
/// between two accesses is decided arithmetically: the bank's previous
/// busy window ended at `busy_until`, so the row is closed iff any
/// refresh window for that bank starts in `[busy_until, cycle]` (see
/// [`RefreshConfig::starts_in`]). No extra per-bank state is needed,
/// which keeps the fingerprinted bank layout unchanged.
#[derive(Debug, Clone)]
pub struct RowBuffer {
    timing: BankTiming,
    refresh: Option<RefreshConfig>,
    total_banks: u64,
    pub(crate) stats: TimingStats,
}

impl RowBuffer {
    /// Builds the backend from a device configuration, folding the flat
    /// `bank_latency` into both latency classes (exactly the fold the
    /// pre-trait engine applied).
    pub(crate) fn new(config: &DeviceConfig) -> Self {
        RowBuffer {
            timing: BankTiming {
                row_hit: config.bank_timing.row_hit + config.bank_latency,
                row_miss: config.bank_timing.row_miss + config.bank_latency,
                policy: config.bank_timing.policy,
            },
            refresh: config.refresh,
            total_banks: (config.total_vaults() * config.banks_per_vault) as u64,
            stats: TimingStats::default(),
        }
    }

    /// Closes `bank`'s open row when a refresh window for `global_bank`
    /// started since the bank's previous busy window ended.
    #[inline]
    fn apply_refresh(&self, bank: &mut Bank, cycle: u64, global_bank: u64) {
        if let Some(refresh) = &self.refresh {
            if refresh.starts_in(bank.busy_horizon(), cycle, global_bank, self.total_banks) {
                bank.close_row();
            }
        }
    }

    /// The earliest cycle at or after `from` where `global_bank` is not
    /// inside a refresh window (the shadow-service start used by the
    /// [`Validated`] backend).
    ///
    /// [`Validated`]: crate::timing::Validated
    pub(crate) fn earliest_start(&self, from: u64, global_bank: u64) -> u64 {
        match &self.refresh {
            None => from,
            Some(r) => r.next_unblocked(from, global_bank, self.total_banks),
        }
    }

    /// Serves one access on a shadow bank at `start` (which the caller
    /// has already legalised via [`RowBuffer::earliest_start`]) and
    /// returns the latency. Identical bank evolution to
    /// [`TimingModel::serve`], but records nothing — the [`Validated`]
    /// wrapper owns the bookkeeping.
    ///
    /// [`Validated`]: crate::timing::Validated
    pub(crate) fn serve_shadow(
        &self,
        bank: &mut Bank,
        start: u64,
        row: u64,
        global_bank: u64,
    ) -> u64 {
        self.apply_refresh(bank, start, global_bank);
        bank.access(start, row, &self.timing)
    }
}

impl TimingModel for RowBuffer {
    fn select(&self) -> TimingSelect {
        TimingSelect::RowBuffer
    }

    fn serve(&mut self, bank: &mut Bank, cycle: u64, row: u64, global_bank: u64) -> u64 {
        self.apply_refresh(bank, cycle, global_bank);
        let hit = bank.would_hit(row, &self.timing);
        let latency = bank.access(cycle, row, &self.timing);
        self.stats.record_access(hit, latency);
        latency
    }

    fn next_event_cycle(
        &self,
        banks: &mut dyn Iterator<Item = &Bank>,
        cycle: u64,
    ) -> Option<u64> {
        banks_horizon(banks, cycle)
    }

    fn stats(&self) -> &TimingStats {
        &self.stats
    }
}
