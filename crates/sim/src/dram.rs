//! Bank-level DRAM timing: row buffers and busy windows.
//!
//! HMC-Sim's core model is deliberately timing-agnostic (paper §VII),
//! but its structure exposes banks; this module adds an optional
//! row-buffer model on top so users can study open-row locality —
//! part of the "more accurate timing resolution" the paper names as
//! future work. With all latencies at their zero defaults the model
//! degenerates to the paper's pure queue-structural behaviour.

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowPolicy {
    /// Keep the row open after an access (open-page): subsequent
    /// accesses to the same row pay the hit latency, a different row
    /// pays the miss latency.
    #[default]
    OpenPage,
    /// Precharge after every access (closed-page): every access pays
    /// the miss latency, but there is no worst-case conflict penalty.
    ClosedPage,
}

impl RowPolicy {
    /// The policy names scenario files use.
    pub const NAMES: [(&'static str, RowPolicy); 2] =
        [("open_page", RowPolicy::OpenPage), ("closed_page", RowPolicy::ClosedPage)];
}

/// Bank timing parameters, all in device cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BankTiming {
    /// Extra busy cycles for an access that hits the open row.
    pub row_hit: u64,
    /// Extra busy cycles for an access that opens a new row
    /// (precharge + activate).
    pub row_miss: u64,
    /// Row-buffer policy.
    pub policy: RowPolicy,
}

/// Periodic DRAM refresh parameters.
///
/// Every `interval` cycles each bank is unavailable for `duration`
/// cycles (tRFC). Banks refresh staggered: bank *k* of *n* begins its
/// window at `k * interval / n`, the usual per-bank refresh rollout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshConfig {
    /// Cycles between refreshes of one bank (tREFI analogue).
    pub interval: u64,
    /// Cycles a refresh blocks the bank (tRFC analogue).
    pub duration: u64,
}

impl RefreshConfig {
    /// True when `bank_index` (of `total_banks` in the device) is in
    /// its refresh window at `cycle`.
    ///
    /// Degenerate parameters are *defined*, not undefined behaviour:
    ///
    /// * `interval == 0` or `duration == 0` never blocks (a zero-period
    ///   or zero-width refresh is "no refresh") — though note that
    ///   [`crate::DeviceConfig::validate`] rejects such configurations
    ///   outright, so they only arise through direct use of this type;
    /// * `total_banks == 0` staggers as if there were one bank (every
    ///   bank shares offset 0) rather than dividing by zero.
    pub fn blocks(&self, cycle: u64, bank_index: u64, total_banks: u64) -> bool {
        if self.interval == 0 || self.duration == 0 {
            return false;
        }
        (cycle + self.interval - self.offset(bank_index, total_banks)) % self.interval
            < self.duration
    }

    /// The stagger offset of `bank_index`: bank *k* of *n* starts its
    /// windows at cycles `k * interval / n (mod interval)`.
    #[inline]
    fn offset(&self, bank_index: u64, total_banks: u64) -> u64 {
        (bank_index * self.interval / total_banks.max(1)) % self.interval
    }

    /// Number of refresh-window *starts* for `bank_index` strictly
    /// before `cycle`.
    #[inline]
    fn starts_before(&self, cycle: u64, bank_index: u64, total_banks: u64) -> u64 {
        let offset = self.offset(bank_index, total_banks);
        if cycle > offset {
            (cycle - 1 - offset) / self.interval + 1
        } else {
            0
        }
    }

    /// True when a refresh window for `bank_index` starts anywhere in
    /// the inclusive cycle range `[from, to]`. This is how the
    /// row-buffer backend decides whether a refresh closed a bank's
    /// open row between two accesses, using only the bank's previous
    /// `busy_until` — no extra per-bank state. Degenerate parameters
    /// follow [`RefreshConfig::blocks`]: a non-refreshing configuration
    /// never starts a window.
    pub fn starts_in(&self, from: u64, to: u64, bank_index: u64, total_banks: u64) -> bool {
        if self.interval == 0 || self.duration == 0 || from > to {
            return false;
        }
        self.starts_before(to.saturating_add(1), bank_index, total_banks)
            > self.starts_before(from, bank_index, total_banks)
    }
}

/// One DRAM bank's dynamic state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bank {
    busy_until: u64,
    open_row: Option<u64>,
    /// Accesses that hit the open row.
    pub row_hits: u64,
    /// Accesses that required an activate.
    pub row_misses: u64,
}

impl Bank {
    /// True when the bank cannot accept an access at `cycle`.
    #[inline]
    pub fn is_busy(&self, cycle: u64) -> bool {
        self.busy_until > cycle
    }

    /// The first cycle at which the bank is free again (equivalently:
    /// the end of its current busy window, which doubles as the cycle
    /// of its previous access plus that access's latency). The timing
    /// backends use this as the left edge of the "has a refresh started
    /// since?" test.
    #[inline]
    pub fn busy_horizon(&self) -> u64 {
        self.busy_until
    }

    /// True when an access to `row` right now would hit the open row
    /// under `timing`'s policy (the classification [`Bank::access`]
    /// applies, exposed so callers can record latency classes without
    /// duplicating the policy logic).
    #[inline]
    pub fn would_hit(&self, row: u64, timing: &BankTiming) -> bool {
        self.open_row == Some(row) && timing.policy == RowPolicy::OpenPage
    }

    /// Forces the open row closed (a refresh precharges the bank).
    #[inline]
    pub(crate) fn close_row(&mut self) {
        self.open_row = None;
    }

    /// The private dynamic state `(busy_until, open_row)` for
    /// checkpoint serialization (the hit/miss counters are public).
    pub(crate) fn dynamic_state(&self) -> (u64, Option<u64>) {
        (self.busy_until, self.open_row)
    }

    /// Rebuilds a bank from checkpointed state.
    pub(crate) fn from_parts(
        busy_until: u64,
        open_row: Option<u64>,
        row_hits: u64,
        row_misses: u64,
    ) -> Self {
        Bank { busy_until, open_row, row_hits, row_misses }
    }

    /// Performs an access to `row` at `cycle`, updating the row
    /// buffer and the busy window, and returns the access latency in
    /// cycles.
    pub fn access(&mut self, cycle: u64, row: u64, timing: &BankTiming) -> u64 {
        debug_assert!(!self.is_busy(cycle), "caller checks is_busy first");
        let hit = self.would_hit(row, timing);
        let latency = if hit {
            self.row_hits += 1;
            timing.row_hit
        } else {
            self.row_misses += 1;
            timing.row_miss
        };
        self.open_row = match timing.policy {
            RowPolicy::OpenPage => Some(row),
            RowPolicy::ClosedPage => None,
        };
        self.busy_until = cycle + latency;
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(hit: u64, miss: u64, policy: RowPolicy) -> BankTiming {
        BankTiming { row_hit: hit, row_miss: miss, policy }
    }

    #[test]
    fn zero_timing_is_the_paper_model() {
        let mut bank = Bank::default();
        let t = BankTiming::default();
        assert_eq!(bank.access(0, 5, &t), 0);
        assert!(!bank.is_busy(0), "zero latency never blocks");
        assert_eq!(bank.access(0, 9, &t), 0);
    }

    #[test]
    fn open_page_hits_and_misses() {
        let mut bank = Bank::default();
        let t = timing(2, 10, RowPolicy::OpenPage);
        assert_eq!(bank.access(0, 5, &t), 10, "first access activates");
        assert!(bank.is_busy(9));
        assert!(!bank.is_busy(10));
        assert_eq!(bank.access(10, 5, &t), 2, "same row hits");
        assert_eq!(bank.access(20, 6, &t), 10, "row change misses");
        assert_eq!(bank.row_hits, 1);
        assert_eq!(bank.row_misses, 2);
    }

    #[test]
    fn closed_page_always_misses() {
        let mut bank = Bank::default();
        let t = timing(2, 10, RowPolicy::ClosedPage);
        assert_eq!(bank.access(0, 5, &t), 10);
        assert_eq!(bank.access(20, 5, &t), 10, "row not kept open");
        assert_eq!(bank.row_hits, 0);
        assert_eq!(bank.row_misses, 2);
    }

    #[test]
    fn refresh_windows_are_periodic_and_staggered() {
        let r = RefreshConfig { interval: 100, duration: 10 };
        // Bank 0 of 4 refreshes at cycles [0,10), [100,110), ...
        assert!(r.blocks(0, 0, 4));
        assert!(r.blocks(9, 0, 4));
        assert!(!r.blocks(10, 0, 4));
        assert!(r.blocks(105, 0, 4));
        // Bank 1 of 4 is offset by 25 cycles.
        assert!(!r.blocks(0, 1, 4));
        assert!(r.blocks(25, 1, 4));
        assert!(r.blocks(34, 1, 4));
        assert!(!r.blocks(35, 1, 4));
        // Degenerate configs never block.
        assert!(!RefreshConfig { interval: 0, duration: 5 }.blocks(3, 0, 4));
        assert!(!RefreshConfig { interval: 100, duration: 0 }.blocks(0, 0, 4));
    }

    /// Satellite: refresh-window *edge* alignment. The window of bank
    /// `k` of `n` covers exactly `[offset + j*interval,
    /// offset + j*interval + duration)` — closed on the left, open on
    /// the right — for `offset = k * interval / n`.
    #[test]
    fn refresh_window_edges_are_half_open() {
        let r = RefreshConfig { interval: 100, duration: 10 };
        for (bank, offset) in [(0u64, 0u64), (1, 25), (2, 50), (3, 75)] {
            for period in [0u64, 1, 7] {
                let start = offset + period * 100;
                if start > 0 {
                    assert!(!r.blocks(start - 1, bank, 4), "cycle before the window is free");
                }
                assert!(r.blocks(start, bank, 4), "left edge is inside the window");
                assert!(r.blocks(start + 9, bank, 4), "last covered cycle is inside");
                assert!(!r.blocks(start + 10, bank, 4), "right edge is outside (half-open)");
            }
        }
        // A one-cycle window blocks exactly one cycle.
        let narrow = RefreshConfig { interval: 64, duration: 1 };
        assert!(narrow.blocks(64, 0, 4));
        assert!(!narrow.blocks(63, 0, 4));
        assert!(!narrow.blocks(65, 0, 4));
    }

    #[test]
    fn starts_in_counts_window_starts_on_an_inclusive_range() {
        let r = RefreshConfig { interval: 100, duration: 10 };
        // Bank 1 of 4: windows start at 25, 125, 225, ...
        assert!(r.starts_in(25, 25, 1, 4), "left edge of the range is inclusive");
        assert!(r.starts_in(0, 25, 1, 4));
        assert!(r.starts_in(20, 30, 1, 4));
        assert!(!r.starts_in(26, 124, 1, 4), "no start strictly between windows");
        assert!(r.starts_in(26, 125, 1, 4), "right edge of the range is inclusive");
        assert!(r.starts_in(0, 1_000, 1, 4), "many windows count as at least one");
        assert!(!r.starts_in(30, 20, 1, 4), "empty range has no starts");
        // Bank 0's window starts at cycle 0 itself.
        assert!(r.starts_in(0, 0, 0, 4));
        assert!(!r.starts_in(1, 99, 0, 4));
        // Degenerate configs never start a window.
        assert!(!RefreshConfig { interval: 0, duration: 5 }.starts_in(0, 1_000, 0, 4));
        assert!(!RefreshConfig { interval: 100, duration: 0 }.starts_in(0, 1_000, 0, 4));
    }

    /// Satellite: the `total_banks == 0` degenerate stagger is defined
    /// (every bank behaves like bank 0 of 1) instead of dividing by
    /// zero.
    #[test]
    fn zero_total_banks_stagger_is_defined() {
        let r = RefreshConfig { interval: 100, duration: 10 };
        for bank in [0u64, 1, 3, 1_000] {
            assert_eq!(r.blocks(5, bank, 0), r.blocks(5, 0, 1), "bank {bank}");
            assert!(r.blocks(5, bank, 0), "all banks share offset 0");
            assert!(!r.blocks(15, bank, 0));
            assert!(r.starts_in(0, 0, bank, 0));
        }
    }

    #[test]
    fn busy_window_tracks_latency() {
        let mut bank = Bank::default();
        let t = timing(0, 4, RowPolicy::OpenPage);
        bank.access(100, 1, &t);
        assert!(bank.is_busy(101));
        assert!(bank.is_busy(103));
        assert!(!bank.is_busy(104));
    }
}
