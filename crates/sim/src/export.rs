//! Telemetry export: the hierarchical metrics registry, the
//! Prometheus text exposition and the JSON report.
//!
//! [`HmcSim::telemetry_report`] snapshots every metric source into a
//! single [`TelemetryReport`] keyed by component path
//! (`dev0/latency/read`, `dev0/link2/retries`,
//! `dev0/stage/vault_wait`, …). The registry is *pull-based*: fault
//! and protocol counters are read from their canonical homes
//! ([`crate::stats::DeviceStats`], [`crate::link::LinkStats`], the
//! `REG_LRLL`/`REG_GRLL` registers, the sanitizer report) at export
//! time, so the exported numbers agree with the registers and the
//! forensic dumps by construction — nothing is double-counted on the
//! hot path.

use crate::hist::Hist;
use crate::regs::{REG_GRLL, REG_LRLL};
use crate::sim::HmcSim;
use crate::jsonv::json_escape;
use crate::telemetry::Stage;
use std::collections::BTreeMap;

/// One registry entry.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time value (register contents, occupancies).
    Gauge(u64),
    /// A log2-bucketed latency histogram (boxed: a [`Hist`] is two
    /// orders of magnitude larger than the scalar variants).
    Histogram(Box<Hist>),
    /// A windowed time series: fixed `window` length plus
    /// `(window start cycle, sum, sample count)` rows.
    Series {
        /// Window length in cycles.
        window: u64,
        /// `(start cycle, sum, samples)` per window.
        points: Vec<(u64, u64, u64)>,
    },
}

impl MetricValue {
    /// The histogram behind this entry, if it is one.
    pub fn as_hist(&self) -> Option<&Hist> {
        match self {
            MetricValue::Histogram(h) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// The scalar behind a counter or gauge entry.
    pub fn as_scalar(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }
}

/// A point-in-time export of the whole metrics registry.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Cycle the report was taken at.
    pub cycle: u64,
    /// Metrics keyed by hierarchical component path.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl TelemetryReport {
    /// Looks up one metric by its path.
    pub fn get(&self, path: &str) -> Option<&MetricValue> {
        self.metrics.get(path)
    }

    /// Renders the registry in the Prometheus text exposition format.
    ///
    /// Path segments with a numeric suffix (`dev0`, `link2`, `vault3`)
    /// become labels; the remaining segments join into the metric name
    /// under the `hmcsim_` prefix, so `dev0/link2/retries` exports as
    /// `hmcsim_link_retries{dev="0",link="2"}`. Histograms use the
    /// native histogram exposition (`_bucket{le=…}` cumulative rows
    /// plus `_sum` and `_count`). Time series have no Prometheus
    /// equivalent (a scraper builds its own) and export their running
    /// total as a counter; the full windows live in the JSON report.
    pub fn to_prometheus(&self) -> String {
        // Group into families first: every sample of one metric name
        // must sit under a single # TYPE header to be valid exposition.
        type Family<'a> = (&'static str, Vec<(String, &'a MetricValue)>);
        let mut families: BTreeMap<String, Family> = BTreeMap::new();
        for (path, value) in &self.metrics {
            let (mut name, labels) = prom_name(path);
            let kind = match value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
                MetricValue::Series { .. } => {
                    name.push_str("_total");
                    "counter"
                }
            };
            families
                .entry(name)
                .or_insert_with(|| (kind, Vec::new()))
                .1
                .push((labels, value));
        }
        let mut out = String::with_capacity(4096);
        for (name, (kind, samples)) in &families {
            let help = name.trim_start_matches("hmcsim_").replace('_', " ");
            out.push_str(&format!("# HELP {name} hmcsim {help}\n"));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for (labels, value) in samples {
                match value {
                    MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                        out.push_str(&format!("{name}{} {v}\n", braced(labels)));
                    }
                    MetricValue::Series { points, .. } => {
                        let total: u64 = points.iter().map(|&(_, s, _)| s).sum();
                        out.push_str(&format!("{name}{} {total}\n", braced(labels)));
                    }
                    MetricValue::Histogram(h) => {
                        let mut cum = 0u64;
                        for (le, count) in h.nonzero_buckets() {
                            cum += count;
                            out.push_str(&format!(
                                "{name}_bucket{} {cum}\n",
                                braced(&join_labels(labels, &format!("le=\"{le}\"")))
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_bucket{} {}\n",
                            braced(&join_labels(labels, "le=\"+Inf\"")),
                            h.count()
                        ));
                        out.push_str(&format!("{name}_sum{} {}\n", braced(labels), h.sum()));
                        out.push_str(&format!("{name}_count{} {}\n", braced(labels), h.count()));
                    }
                }
            }
        }
        out
    }

    /// Renders the registry as a deterministic JSON object (metrics
    /// sorted by path; histograms carry count/sum/min/max, the
    /// standard quantiles and the non-empty buckets).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(8192);
        s.push_str(&format!("{{\"cycle\":{},\"metrics\":{{", self.cycle));
        for (i, (path, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":", json_escape(path)));
            match value {
                MetricValue::Counter(v) => {
                    s.push_str(&format!("{{\"type\":\"counter\",\"value\":{v}}}"));
                }
                MetricValue::Gauge(v) => {
                    s.push_str(&format!("{{\"type\":\"gauge\",\"value\":{v}}}"));
                }
                MetricValue::Histogram(h) => {
                    s.push_str(&format!(
                        "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\
                         \"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"buckets\":[",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max(),
                        h.p50(),
                        h.p90(),
                        h.p99(),
                        h.p999()
                    ));
                    for (j, (le, count)) in h.nonzero_buckets().iter().enumerate() {
                        if j > 0 {
                            s.push(',');
                        }
                        s.push_str(&format!("[{le},{count}]"));
                    }
                    s.push_str("]}");
                }
                MetricValue::Series { window, points } => {
                    s.push_str(&format!(
                        "{{\"type\":\"series\",\"window\":{window},\"points\":["
                    ));
                    for (j, (start, sum, count)) in points.iter().enumerate() {
                        if j > 0 {
                            s.push(',');
                        }
                        s.push_str(&format!("[{start},{sum},{count}]"));
                    }
                    s.push_str("]}");
                }
            }
        }
        s.push_str("}}");
        s
    }
}

/// Splits a registry path into a Prometheus metric name and labels:
/// segments shaped `<alpha><digits>` become `alpha="digits"` labels.
/// The leading device segment is a pure label; deeper indexed
/// segments also keep their prefix in the metric name so families
/// stay distinguishable (`dev0/link2/retries` →
/// `hmcsim_link_retries{dev="0",link="2"}`).
fn prom_name(path: &str) -> (String, String) {
    let mut parts: Vec<&str> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for (pos, seg) in path.split('/').enumerate() {
        let split = seg.find(|c: char| c.is_ascii_digit());
        match split {
            Some(i)
                if i > 0
                    && seg[i..].chars().all(|c| c.is_ascii_digit())
                    && seg[..i].chars().all(|c| c.is_ascii_alphabetic()) =>
            {
                labels.push(format!("{}=\"{}\"", &seg[..i], &seg[i..]));
                if pos > 0 {
                    parts.push(&seg[..i]);
                }
            }
            _ => parts.push(seg),
        }
    }
    (format!("hmcsim_{}", parts.join("_")), labels.join(","))
}

fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

fn join_labels(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        extra.to_string()
    } else {
        format!("{labels},{extra}")
    }
}

impl HmcSim {
    /// Builds the metrics registry snapshot, or `None` while telemetry
    /// is disabled (the default — see
    /// [`HmcSim::enable_telemetry`]).
    pub fn telemetry_report(&self) -> Option<TelemetryReport> {
        let tel = self.telemetry.as_deref()?;
        let mut metrics: BTreeMap<String, MetricValue> = BTreeMap::new();
        let mut add = |path: String, v: MetricValue| {
            metrics.insert(path, v);
        };
        for (d, dev) in self.devices.iter().enumerate() {
            let s = dev.stats();
            let p = format!("dev{d}");
            for (name, v) in [
                ("requests/read", s.reads),
                ("requests/write", s.writes),
                ("requests/posted_write", s.posted_writes),
                ("requests/atomic", s.atomics),
                ("requests/cmc", s.cmc_ops),
                ("requests/mode", s.mode_ops),
                ("requests/flow", s.flow_packets),
                ("responses", s.responses),
                ("error_responses", s.error_responses),
                ("forwarded", s.forwarded),
                ("stalls/send", s.send_stalls),
                ("stalls/xbar", s.xbar_stalls),
                ("stalls/vault", s.vault_stalls),
                ("flits/rqst", s.rqst_flits),
                ("flits/rsp", s.rsp_flits),
                ("faults/vault", s.vault_faults),
                ("faults/poisoned", s.poisoned_responses),
                ("faults/failover", s.failover_responses),
                ("faults/abandoned", s.abandoned_responses),
            ] {
                add(format!("{p}/{name}"), MetricValue::Counter(v));
            }
            add(
                format!("{p}/queues/vault_pushes"),
                MetricValue::Counter(dev.vault_rqst_pushes()),
            );
            add(
                format!("{p}/queues/vault_occupancy"),
                MetricValue::Gauge(dev.vault_rqst_occupancy()),
            );
            add(
                format!("{p}/latency/total"),
                MetricValue::Histogram(Box::new(s.latency)),
            );
            for (class, h) in s.class_latency.iter() {
                add(
                    format!("{p}/latency/{}", class.name()),
                    MetricValue::Histogram(Box::new(*h)),
                );
            }
            // Link-protocol counters plus the retry registers they
            // must agree with (REG_LRLL/REG_GRLL — pulled from the
            // same canonical sources the retry path writes).
            let mut crc_total = 0;
            let mut retries_total = 0;
            for (l, link) in self.links[d].iter().enumerate() {
                let ls = &link.stats;
                crc_total += ls.crc_errors;
                retries_total += ls.retries;
                for (name, v) in [
                    ("packets", ls.packets_sent),
                    ("flits", ls.flits_sent),
                    ("token_stalls", ls.token_stalls),
                    ("retries", ls.retries),
                    ("crc_errors", ls.crc_errors),
                ] {
                    add(format!("{p}/link{l}/{name}"), MetricValue::Counter(v));
                }
            }
            add(format!("{p}/faults/crc"), MetricValue::Counter(crc_total));
            add(format!("{p}/faults/retries"), MetricValue::Counter(retries_total));
            add(
                format!("{p}/regs/lrll"),
                MetricValue::Gauge(dev.regs().read(REG_LRLL).unwrap_or(0)),
            );
            add(
                format!("{p}/regs/grll"),
                MetricValue::Gauge(dev.regs().read(REG_GRLL).unwrap_or(0)),
            );
            // Timing-backend observations: per-latency-class service
            // histograms, plus the validated mode's divergence record.
            let ts = dev.timing_stats();
            add(
                format!("{p}/timing/backend/{}", dev.timing_select().name()),
                MetricValue::Gauge(1),
            );
            add(
                format!("{p}/timing/hit_latency"),
                MetricValue::Histogram(Box::new(ts.hit_latency)),
            );
            add(
                format!("{p}/timing/miss_latency"),
                MetricValue::Histogram(Box::new(ts.miss_latency)),
            );
            if dev.timing_select() == crate::timing::TimingSelect::Validated {
                add(
                    format!("{p}/timing/divergence"),
                    MetricValue::Histogram(Box::new(ts.divergence)),
                );
                for (name, v) in [
                    ("shadow_late", ts.shadow_late),
                    ("shadow_early", ts.shadow_early),
                    ("shadow_agree", ts.shadow_agree),
                ] {
                    add(format!("{p}/timing/{name}"), MetricValue::Counter(v));
                }
            }
            // Telemetry-only data: spans and windowed series.
            if let Some(t) = tel.devices.get(d) {
                if tel.config.spans {
                    for (i, stage) in Stage::ALL.iter().enumerate() {
                        add(
                            format!("{p}/stage/{}", stage.name()),
                            MetricValue::Histogram(Box::new(t.stages[i])),
                        );
                    }
                }
                if tel.config.window > 0 {
                    for (l, series) in t.link_flits.iter().enumerate() {
                        add(
                            format!("{p}/link{l}/series/flits"),
                            MetricValue::Series {
                                window: series.window(),
                                points: series.points(),
                            },
                        );
                    }
                    add(
                        format!("{p}/series/vault_occupancy"),
                        MetricValue::Series {
                            window: t.vault_occupancy.window(),
                            points: t.vault_occupancy.points(),
                        },
                    );
                    add(
                        format!("{p}/series/bank_accesses"),
                        MetricValue::Series {
                            window: t.bank_accesses.window(),
                            points: t.bank_accesses.points(),
                        },
                    );
                }
            }
        }
        // Trace-sink health: lines the bounded text buffer dropped at
        // capacity and records evicted from the flight recorder (both
        // 0 when the corresponding sink is not attached).
        add(
            "trace/buffer_dropped".into(),
            MetricValue::Counter(self.tracer.sink_dropped()),
        );
        add(
            "trace/flight_dropped".into(),
            MetricValue::Counter(self.tracer.flight().map_or(0, |f| f.dropped())),
        );
        if let Some(report) = self.sanitizer_report() {
            add(
                "sanitizer/violations".into(),
                MetricValue::Counter(report.total_violations),
            );
            add("sanitizer/recovered".into(), MetricValue::Counter(report.recovered));
            let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
            for v in &report.violations {
                *by_kind.entry(v.kind.name()).or_default() += 1;
            }
            for (kind, n) in by_kind {
                add(format!("sanitizer/violations/{kind}"), MetricValue::Counter(n));
            }
        }
        Some(TelemetryReport { cycle: self.cycle, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CmdClass;

    #[test]
    fn prom_name_splits_indexed_segments_into_labels() {
        let (name, labels) = prom_name("dev0/link2/retries");
        assert_eq!(name, "hmcsim_link_retries");
        assert_eq!(labels, "dev=\"0\",link=\"2\"");
        let (name, labels) = prom_name("dev1/latency/read");
        assert_eq!(name, "hmcsim_latency_read");
        assert_eq!(labels, "dev=\"1\"");
        let (name, labels) = prom_name("sanitizer/violations");
        assert_eq!(name, "hmcsim_sanitizer_violations");
        assert_eq!(labels, "");
    }

    #[test]
    fn histogram_exposition_is_cumulative() {
        let mut h = Hist::new();
        h.record(3);
        h.record(3);
        h.record(5);
        let report = TelemetryReport {
            cycle: 7,
            metrics: [("dev0/latency/total".to_string(), MetricValue::Histogram(Box::new(h)))]
                .into_iter()
                .collect(),
        };
        let text = report.to_prometheus();
        assert!(text.contains("# TYPE hmcsim_latency_total histogram"));
        assert!(text.contains("hmcsim_latency_total_bucket{dev=\"0\",le=\"3\"} 2"));
        assert!(text.contains("hmcsim_latency_total_bucket{dev=\"0\",le=\"7\"} 3"));
        assert!(text.contains("hmcsim_latency_total_bucket{dev=\"0\",le=\"+Inf\"} 3"));
        assert!(text.contains("hmcsim_latency_total_sum{dev=\"0\"} 11"));
        assert!(text.contains("hmcsim_latency_total_count{dev=\"0\"} 3"));
    }

    #[test]
    fn json_is_deterministic_and_typed() {
        let report = TelemetryReport {
            cycle: 3,
            metrics: [
                ("dev0/responses".to_string(), MetricValue::Counter(4)),
                ("dev0/regs/grll".to_string(), MetricValue::Gauge(1)),
                (
                    "dev0/series/vault_occupancy".to_string(),
                    MetricValue::Series { window: 16, points: vec![(0, 12, 16)] },
                ),
            ]
            .into_iter()
            .collect(),
        };
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"cycle\":3,"));
        assert!(a.contains("\"dev0/responses\":{\"type\":\"counter\",\"value\":4}"));
        assert!(a.contains("\"type\":\"series\",\"window\":16,\"points\":[[0,12,16]]"));
    }

    #[test]
    fn class_name_paths_cover_all_classes() {
        for class in CmdClass::ALL {
            assert!(!class.name().is_empty());
        }
    }
}
