//! The paper's flat-latency bank model as a timing backend.

use crate::config::DeviceConfig;
use crate::dram::{Bank, BankTiming};
use crate::timing::{banks_horizon, TimingModel, TimingSelect, TimingStats};

/// Every access occupies the bank for exactly `bank_latency` cycles.
///
/// The per-config row-hit/row-miss knobs are deliberately inert here:
/// both latency classes collapse to the flat `bank_latency`, which is
/// precisely the pre-trait engine's behaviour for every configuration
/// the fingerprint pins cover (their row knobs are zero). The row
/// *policy* is kept, so the bank's open-row bookkeeping and hit/miss
/// counters — which the state fingerprint observes — evolve exactly as
/// they always did.
#[derive(Debug, Clone)]
pub struct FixedLatency {
    timing: BankTiming,
    pub(crate) stats: TimingStats,
}

impl FixedLatency {
    /// Builds the backend from a device configuration.
    pub(crate) fn new(config: &DeviceConfig) -> Self {
        FixedLatency {
            timing: BankTiming {
                row_hit: config.bank_latency,
                row_miss: config.bank_latency,
                policy: config.bank_timing.policy,
            },
            stats: TimingStats::default(),
        }
    }

    /// The effective (flattened) bank timing — the [`Validated`]
    /// backend drives its primary through this directly.
    ///
    /// [`Validated`]: crate::timing::Validated
    pub(crate) fn timing(&self) -> &BankTiming {
        &self.timing
    }
}

impl TimingModel for FixedLatency {
    fn select(&self) -> TimingSelect {
        TimingSelect::FixedLatency
    }

    fn serve(&mut self, bank: &mut Bank, cycle: u64, row: u64, _global_bank: u64) -> u64 {
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
