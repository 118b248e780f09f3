//! The accuracy-validation backend: two models in lockstep.

use crate::config::DeviceConfig;
use crate::dram::Bank;
use crate::timing::{
    banks_horizon, FixedLatency, RowBuffer, TimingModel, TimingSelect, TimingStats,
};

/// Runs a primary [`FixedLatency`] model and a shadow [`RowBuffer`]
/// model over the same access stream.
///
/// The primary drives *every* simulation decision — bank availability,
/// stall choices, busy windows — so a `Validated` run is bit-identical
/// to a `FixedLatency` run and passes every determinism matrix
/// unchanged. The shadow maintains its own bank array (one [`Bank`]
/// per global bank, fingerprint-blind) and answers the question the
/// Ramulator 2.0 re-evaluation study asks of every abstract model:
/// *when would this access have completed under the detailed timing?*
/// Each access is served on the shadow at the earliest legal cycle —
/// no earlier than the primary issued it, the shadow bank's own busy
/// window, and the end of any refresh window in force — and the
/// completion-time divergence is recorded into
/// [`TimingStats::divergence`].
#[derive(Debug, Clone)]
pub struct Validated {
    primary: FixedLatency,
    shadow_model: RowBuffer,
    /// Shadow bank state, indexed by global bank id.
    pub(crate) shadow: Vec<Bank>,
    pub(crate) stats: TimingStats,
}

impl Validated {
    /// Builds the backend from a device configuration.
    pub(crate) fn new(config: &DeviceConfig) -> Self {
        let total_banks = config.total_vaults() * config.banks_per_vault;
        Validated {
            primary: FixedLatency::new(config),
            shadow_model: RowBuffer::new(config),
            shadow: vec![Bank::default(); total_banks],
            stats: TimingStats::default(),
        }
    }
}

impl TimingModel for Validated {
    fn select(&self) -> TimingSelect {
        TimingSelect::Validated
    }

    fn serve(&mut self, bank: &mut Bank, cycle: u64, row: u64, global_bank: u64) -> u64 {
        let hit = bank.would_hit(row, self.primary.timing());
        let latency = bank.access(cycle, row, self.primary.timing());
        self.stats.record_access(hit, latency);
        // Shadow service: start at the earliest cycle that is legal
        // under the detailed model, then serve through the row-buffer
        // timing (including refresh-closed rows).
        let shadow_bank = &mut self.shadow[global_bank as usize];
        let start = self
            .shadow_model
            .earliest_start(cycle.max(shadow_bank.busy_horizon()), global_bank);
        let shadow_latency = self.shadow_model.serve_shadow(shadow_bank, start, row, global_bank);
        self.stats.record_divergence(cycle + latency, start + shadow_latency);
        latency
    }

    fn next_event_cycle(
        &self,
        banks: &mut dyn Iterator<Item = &Bank>,
        cycle: u64,
    ) -> Option<u64> {
        // Conservative: fold the shadow banks' busy windows in, so a
        // skip never jumps a shadow release either.
        let live = banks_horizon(banks, cycle);
        let shadow = banks_horizon(&mut self.shadow.iter(), cycle);
        match (live, shadow) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn stats(&self) -> &TimingStats {
        &self.stats
    }
}
