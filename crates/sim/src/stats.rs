//! Per-device simulation statistics.

use crate::hist::Hist;
use hmc_types::{CmdKind, FLIT_BYTES};

/// Coarse command classification for per-class latency accounting
/// (the paper's read / write / atomic / CMC operational split).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CmdClass {
    /// Read commands.
    Read,
    /// Writes (acknowledged and posted).
    Write,
    /// Atomics (including posted atomics).
    Atomic,
    /// Custom Memory Cube operations.
    Cmc,
    /// Everything else: mode commands, flow packets, synthesized
    /// error responses.
    #[default]
    Other,
}

impl CmdClass {
    /// Every class, in display order.
    pub const ALL: [CmdClass; 5] = [
        CmdClass::Read,
        CmdClass::Write,
        CmdClass::Atomic,
        CmdClass::Cmc,
        CmdClass::Other,
    ];

    /// Classifies a command kind.
    pub fn of(kind: CmdKind) -> CmdClass {
        match kind {
            CmdKind::Read => CmdClass::Read,
            CmdKind::Write | CmdKind::PostedWrite => CmdClass::Write,
            CmdKind::Atomic | CmdKind::PostedAtomic => CmdClass::Atomic,
            CmdKind::Cmc => CmdClass::Cmc,
            CmdKind::ModeRead | CmdKind::ModeWrite | CmdKind::Flow => CmdClass::Other,
        }
    }

    /// The lower-case label of every class (reports, metric paths,
    /// snapshots).
    pub const NAMES: [(&'static str, CmdClass); 5] = [
        ("read", CmdClass::Read),
        ("write", CmdClass::Write),
        ("atomic", CmdClass::Atomic),
        ("cmc", CmdClass::Cmc),
        ("other", CmdClass::Other),
    ];

    /// Lower-case label used in reports and metric paths.
    pub fn name(&self) -> &'static str {
        crate::jsonv::name_of(&Self::NAMES, *self)
    }
}

/// Round-trip latency histograms split by command class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassLatency {
    /// Read round trips.
    pub read: Hist,
    /// Write round trips (acknowledged writes only — posted writes
    /// produce no response to time).
    pub write: Hist,
    /// Atomic round trips.
    pub atomic: Hist,
    /// CMC round trips.
    pub cmc: Hist,
    /// Mode commands and synthesized responses.
    pub other: Hist,
}

impl ClassLatency {
    /// The histogram for one class.
    pub fn get(&self, class: CmdClass) -> &Hist {
        match class {
            CmdClass::Read => &self.read,
            CmdClass::Write => &self.write,
            CmdClass::Atomic => &self.atomic,
            CmdClass::Cmc => &self.cmc,
            CmdClass::Other => &self.other,
        }
    }

    /// The histogram for one class, mutably.
    pub(crate) fn get_mut(&mut self, class: CmdClass) -> &mut Hist {
        match class {
            CmdClass::Read => &mut self.read,
            CmdClass::Write => &mut self.write,
            CmdClass::Atomic => &mut self.atomic,
            CmdClass::Cmc => &mut self.cmc,
            CmdClass::Other => &mut self.other,
        }
    }

    /// Records one round trip under its class.
    pub(crate) fn record(&mut self, class: CmdClass, latency: u64) {
        self.get_mut(class).record(latency);
    }

    /// Iterates `(class, histogram)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (CmdClass, &Hist)> {
        CmdClass::ALL.iter().map(move |&c| (c, self.get(c)))
    }
}

/// Counters for one device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Requests executed, by operational class.
    pub reads: u64,
    /// Writes executed (acknowledged).
    pub writes: u64,
    /// Posted writes executed.
    pub posted_writes: u64,
    /// Atomics executed (including posted atomics).
    pub atomics: u64,
    /// CMC operations executed.
    pub cmc_ops: u64,
    /// Mode (register) commands executed.
    pub mode_ops: u64,
    /// Flow packets absorbed.
    pub flow_packets: u64,
    /// Responses generated.
    pub responses: u64,
    /// Error responses generated.
    pub error_responses: u64,
    /// Requests forwarded to a chained neighbour.
    pub forwarded: u64,
    /// Requests that crossed into a remote quad (nonzero only with a
    /// configured `remote_quad_penalty`).
    pub remote_quad_requests: u64,
    /// Send-side stalls surfaced to the host.
    pub send_stalls: u64,
    /// Crossbar → vault routing stalls.
    pub xbar_stalls: u64,
    /// Vault execution stalls (full response queue or busy bank).
    pub vault_stalls: u64,
    /// Request FLITs that entered the device over its links.
    pub rqst_flits: u64,
    /// Response FLITs that left the device over its links.
    pub rsp_flits: u64,
    /// Injected vault internal errors (ERROR responses with
    /// `ERRSTAT` = `ERRSTAT_VAULT_FAULT` that replaced execution).
    pub vault_faults: u64,
    /// Read responses delivered with the poison (`DINV`) bit set.
    pub poisoned_responses: u64,
    /// Responses re-routed through a surviving link because their
    /// entry link was down.
    pub failover_responses: u64,
    /// Responses dropped at delivery because the host had abandoned
    /// the tag (timeout reclamation).
    pub abandoned_responses: u64,
    /// Round-trip latency distribution (entry to response delivery).
    pub latency: Hist,
    /// Round-trip latency split by command class.
    pub class_latency: ClassLatency,
}

/// Lists the `u64` counters of a statistics struct once, in persisted
/// order, for everything that walks them by name: the snapshot
/// encoder and the state fingerprint read `counters()`, the strict
/// snapshot decoder fills `counters_mut()`. A counter added to the
/// struct is added here and nowhere else.
macro_rules! counter_table {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $ty {
            /// Every counter as `(name, value)`, in persisted order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field)),*].into_iter()
            }

            /// Every counter as `(name, slot)`, in persisted order.
            pub(crate) fn counters_mut(
                &mut self,
            ) -> impl Iterator<Item = (&'static str, &mut u64)> {
                [$((stringify!($field), &mut self.$field)),*].into_iter()
            }
        }
    };
}
pub(crate) use counter_table;

counter_table!(DeviceStats {
    reads,
    writes,
    posted_writes,
    atomics,
    cmc_ops,
    mode_ops,
    flow_packets,
    responses,
    error_responses,
    forwarded,
    remote_quad_requests,
    send_stalls,
    xbar_stalls,
    vault_stalls,
    rqst_flits,
    rsp_flits,
    vault_faults,
    poisoned_responses,
    failover_responses,
    abandoned_responses,
});

impl DeviceStats {
    /// Tallies one executed request of the given class.
    pub fn count_kind(&mut self, kind: CmdKind) {
        match kind {
            CmdKind::Read => self.reads += 1,
            CmdKind::Write => self.writes += 1,
            CmdKind::PostedWrite => self.posted_writes += 1,
            CmdKind::Atomic | CmdKind::PostedAtomic => self.atomics += 1,
            CmdKind::Cmc => self.cmc_ops += 1,
            CmdKind::ModeRead | CmdKind::ModeWrite => self.mode_ops += 1,
            CmdKind::Flow => self.flow_packets += 1,
        }
    }

    /// Records one completed round trip in the overall and the
    /// per-class latency histograms.
    pub fn record_latency(&mut self, class: CmdClass, latency: u64) {
        self.latency.record(latency);
        self.class_latency.record(class, latency);
    }

    /// Total requests executed.
    pub fn total_requests(&self) -> u64 {
        self.reads
            + self.writes
            + self.posted_writes
            + self.atomics
            + self.cmc_ops
            + self.mode_ops
            + self.flow_packets
    }

    /// Total link traffic in bytes (requests in + responses out).
    pub fn link_bytes(&self) -> u64 {
        (self.rqst_flits + self.rsp_flits) * FLIT_BYTES as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_aggregation() {
        let mut s = DeviceStats::default();
        assert_eq!(s.latency.mean(), 0.0);
        s.record_latency(CmdClass::Read, 6);
        s.record_latency(CmdClass::Atomic, 10);
        s.record_latency(CmdClass::Read, 2);
        assert_eq!(s.latency.min(), 2);
        assert_eq!(s.latency.max(), 10);
        assert_eq!(s.latency.count(), 3);
        assert!((s.latency.mean() - 6.0).abs() < 1e-9);
        assert_eq!(s.class_latency.read.count(), 2);
        assert_eq!(s.class_latency.atomic.count(), 1);
        assert_eq!(s.class_latency.write.count(), 0);
    }

    #[test]
    fn class_split_merges_back_to_total() {
        let mut s = DeviceStats::default();
        for (class, lat) in [
            (CmdClass::Read, 3),
            (CmdClass::Write, 4),
            (CmdClass::Cmc, 9),
            (CmdClass::Other, 6),
        ] {
            s.record_latency(class, lat);
        }
        let mut merged = Hist::new();
        for (_, h) in s.class_latency.iter() {
            merged.merge(h);
        }
        assert_eq!(merged, s.latency, "per-class hists partition the total");
    }

    #[test]
    fn kind_classification() {
        use hmc_types::CmdKind;
        assert_eq!(CmdClass::of(CmdKind::Read), CmdClass::Read);
        assert_eq!(CmdClass::of(CmdKind::PostedWrite), CmdClass::Write);
        assert_eq!(CmdClass::of(CmdKind::PostedAtomic), CmdClass::Atomic);
        assert_eq!(CmdClass::of(CmdKind::Cmc), CmdClass::Cmc);
        assert_eq!(CmdClass::of(CmdKind::ModeRead), CmdClass::Other);
        assert_eq!(CmdClass::of(CmdKind::Flow), CmdClass::Other);
    }

    #[test]
    fn kind_counting() {
        let mut s = DeviceStats::default();
        s.count_kind(CmdKind::Read);
        s.count_kind(CmdKind::Atomic);
        s.count_kind(CmdKind::PostedAtomic);
        s.count_kind(CmdKind::Cmc);
        assert_eq!(s.reads, 1);
        assert_eq!(s.atomics, 2);
        assert_eq!(s.cmc_ops, 1);
        assert_eq!(s.total_requests(), 4);
    }

    #[test]
    fn link_byte_accounting() {
        let s = DeviceStats { rqst_flits: 1, rsp_flits: 1, ..Default::default() };
        assert_eq!(s.link_bytes(), 32);
    }
}
