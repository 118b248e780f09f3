//! Trace-file parsing and analysis.
//!
//! HMC-Sim trace output is line-oriented text; users post-process it
//! to study where operations spent their time (paper §IV-A's
//! "powerful tracing capability"). This module parses trace lines
//! back into structured [`TraceEvent`]s and aggregates them into a
//! [`TraceSummary`] (per-command counts, per-vault load histogram,
//! latency distribution, stall census).

use crate::hist::Hist;
use std::collections::BTreeMap;

/// One parsed trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation cycle.
    pub cycle: u64,
    /// Event class tag (`RQST`, `STALL`, `LATENCY`, `CMC`, ...).
    pub class: String,
    /// The free-form detail text.
    pub detail: String,
}

impl TraceEvent {
    /// Parses one `HMCSIM_TRACE : <cycle> : <CLASS> : <detail>` line;
    /// returns `None` for non-trace lines.
    pub fn parse(line: &str) -> Option<TraceEvent> {
        let mut parts = line.splitn(4, " : ");
        if parts.next()?.trim() != "HMCSIM_TRACE" {
            return None;
        }
        let cycle = parts.next()?.trim().parse().ok()?;
        let class = parts.next()?.trim().to_string();
        let detail = parts.next()?.trim().to_string();
        Some(TraceEvent { cycle, class, detail })
    }

    /// Extracts a `KEY=value` field from the detail text.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.detail
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
    }

    /// Extracts a numeric `KEY=value` field (decimal or `0x` hex).
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        let raw = self.field(key)?;
        if let Some(hex) = raw.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).ok()
        } else {
            raw.parse().ok()
        }
    }
}

/// Aggregated view of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Executed requests per command mnemonic (CMC ops appear under
    /// their `cmc_str` names).
    pub commands: BTreeMap<String, u64>,
    /// Executed requests per vault.
    pub vault_load: BTreeMap<u64, u64>,
    /// Stall events per stall reason text.
    pub stalls: BTreeMap<String, u64>,
    /// Fault events per kind (`CRC`, `VAULT`, `POISON`, `LINKDOWN`,
    /// `LINKUP`, `FAILOVER`, `ZOMBIE`).
    pub faults: BTreeMap<String, u64>,
    /// Completed-request latency distribution (from LATENCY events) —
    /// a [`Hist`], so quantiles come from the shared telemetry
    /// machinery instead of a sorted sample vector.
    pub latency: Hist,
    /// First and last event cycles seen.
    pub cycle_span: Option<(u64, u64)>,
    /// Lines that did not parse as trace events.
    pub skipped_lines: u64,
}

impl TraceSummary {
    /// Builds a summary from trace lines.
    pub fn from_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> TraceSummary {
        let mut summary = TraceSummary::default();
        for line in lines {
            let Some(event) = TraceEvent::parse(line) else {
                if !line.trim().is_empty() {
                    summary.skipped_lines += 1;
                }
                continue;
            };
            summary.cycle_span = Some(match summary.cycle_span {
                None => (event.cycle, event.cycle),
                Some((lo, hi)) => (lo.min(event.cycle), hi.max(event.cycle)),
            });
            match event.class.as_str() {
                "RQST" => {
                    if let Some(cmd) = event.field("CMD") {
                        *summary.commands.entry(cmd.to_string()).or_default() += 1;
                    }
                    if let Some(vault) = event.field_u64("VAULT") {
                        *summary.vault_load.entry(vault).or_default() += 1;
                    }
                }
                "STALL" | "BANK" | "RETRY" => {
                    *summary.stalls.entry(event.detail.clone()).or_default() += 1;
                }
                "FAULT" => {
                    let kind = event.field("kind").unwrap_or("UNKNOWN").to_string();
                    *summary.faults.entry(kind).or_default() += 1;
                }
                "LATENCY" => {
                    if let Some(lat) = event.field_u64("lat") {
                        summary.latency.record(lat);
                    }
                }
                _ => {}
            }
        }
        summary
    }

    /// Total executed requests.
    pub fn total_requests(&self) -> u64 {
        self.commands.values().sum()
    }

    /// Mean of the recorded latencies.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// The hottest vault and its request count.
    pub fn hottest_vault(&self) -> Option<(u64, u64)> {
        self.vault_load.iter().max_by_key(|(_, &n)| n).map(|(&v, &n)| (v, n))
    }

    /// Renders the summary as a human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if let Some((lo, hi)) = self.cycle_span {
            let _ = writeln!(out, "cycles {lo}..{hi} ({} requests)", self.total_requests());
        }
        let _ = writeln!(out, "commands:");
        for (cmd, n) in &self.commands {
            let _ = writeln!(out, "  {cmd:<16} {n}");
        }
        if let Some((vault, n)) = self.hottest_vault() {
            let _ = writeln!(
                out,
                "hottest vault: {vault} ({n} of {} requests)",
                self.total_requests()
            );
        }
        if !self.latency.is_empty() {
            let _ = writeln!(
                out,
                "latency: mean {:.2}, p50 {}, p99 {}, max {}",
                self.latency.mean(),
                self.latency.p50(),
                self.latency.p99(),
                self.latency.max()
            );
        }
        if !self.stalls.is_empty() {
            let total: u64 = self.stalls.values().sum();
            let _ = writeln!(out, "stalls: {total}");
        }
        if !self.faults.is_empty() {
            let _ = writeln!(out, "faults:");
            for (kind, n) in &self.faults {
                let _ = writeln!(out, "  {kind:<16} {n}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_well_formed_line() {
        let e = TraceEvent::parse(
            "HMCSIM_TRACE : 42 : RQST : CMD=INC8 CUB=0 QUAD=1 VAULT=9 BANK=2 ADDR=0x4000 TAG=7",
        )
        .unwrap();
        assert_eq!(e.cycle, 42);
        assert_eq!(e.class, "RQST");
        assert_eq!(e.field("CMD"), Some("INC8"));
        assert_eq!(e.field_u64("VAULT"), Some(9));
        assert_eq!(e.field_u64("ADDR"), Some(0x4000));
        assert_eq!(e.field("MISSING"), None);
    }

    #[test]
    fn non_trace_lines_rejected() {
        assert!(TraceEvent::parse("").is_none());
        assert!(TraceEvent::parse("random noise").is_none());
        assert!(TraceEvent::parse("HMCSIM_TRACE : notanumber : RQST : x").is_none());
    }

    #[test]
    fn summary_aggregates() {
        let lines = [
            "HMCSIM_TRACE : 1 : RQST : CMD=WR16 CUB=0 QUAD=0 VAULT=4 BANK=0 ADDR=0x0 TAG=0",
            "HMCSIM_TRACE : 2 : RQST : CMD=INC8 CUB=0 QUAD=0 VAULT=4 BANK=0 ADDR=0x0 TAG=1",
            "HMCSIM_TRACE : 3 : RQST : CMD=hmc_lock CUB=0 QUAD=1 VAULT=9 BANK=0 ADDR=0x40 TAG=2",
            "HMCSIM_TRACE : 4 : LATENCY : tag=0 lat=3 link=0",
            "HMCSIM_TRACE : 6 : LATENCY : tag=2 lat=5 link=1",
            "HMCSIM_TRACE : 7 : STALL : vault rqst queue full: link=0 vault=4",
            "HMCSIM_TRACE : 8 : FAULT : kind=CRC dev=0 link=1 bit=17 replay at 16 (CRC mismatch)",
            "HMCSIM_TRACE : 9 : FAULT : kind=VAULT vault=3 tag=9 errstat=0x30",
            "HMCSIM_TRACE : 10 : FAULT : kind=VAULT vault=5 tag=2 errstat=0x30",
            "garbage line",
        ];
        let s = TraceSummary::from_lines(lines);
        assert_eq!(s.total_requests(), 3);
        assert_eq!(s.commands["hmc_lock"], 1);
        assert_eq!(s.vault_load[&4], 2);
        assert_eq!(s.hottest_vault(), Some((4, 2)));
        assert_eq!(s.latency.count(), 2);
        assert_eq!(s.latency.p50(), 3);
        assert_eq!(s.latency.p99(), 5);
        assert_eq!(s.mean_latency(), 4.0);
        assert_eq!(s.skipped_lines, 1);
        assert_eq!(s.cycle_span, Some((1, 10)));
        assert_eq!(s.faults["CRC"], 1);
        assert_eq!(s.faults["VAULT"], 2);
        let report = s.render();
        assert!(report.starts_with("cycles 1..10 (3 requests)\n"), "{report}");
        assert!(report.contains("hottest vault: 4"));
        assert!(report.contains("hmc_lock"));
        assert!(report.contains("faults:"));
        assert!(report.contains("VAULT"));
    }

    #[test]
    fn empty_summary() {
        let s = TraceSummary::from_lines([]);
        assert_eq!(s.total_requests(), 0);
        assert_eq!(s.mean_latency(), 0.0);
        assert!(s.hottest_vault().is_none());
    }
}
