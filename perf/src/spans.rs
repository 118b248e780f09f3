//! In-memory span recorder for the traced repetition.
//!
//! Spans are taken from the benchmark's own files, around the calls
//! into each layer — one parent span per loop iteration with one child
//! span per phase, so the cost stays at a few timer pairs per
//! iteration. Each span name aggregates into a count, a total and a
//! log2 histogram; the raw spans of the first [`RAW_ITERATIONS`]
//! iterations are kept and written as a Chrome trace when the run
//! ends. Nothing is written while a round is being timed.

use hmc_sim::Hist;
use std::fmt::Write as _;
use std::time::Instant;

/// Iterations whose raw spans are kept for the Chrome trace.
pub const RAW_ITERATIONS: u64 = 10_000;

/// A span name known at compile time: `layer` becomes the trace's
/// thread, `name` the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanKind {
    pub layer: &'static str,
    pub name: &'static str,
}

/// One span name's durations in nanoseconds: count, total and the
/// simulator's own log2 histogram.
#[derive(Debug, Clone)]
pub struct Agg {
    pub kind: SpanKind,
    pub ns: Hist,
}

impl Agg {
    /// The median and the highest of p90/p99/p99.9/... that still has
    /// at least ten samples beyond it, as `(p50_ns, Some((p, p_ns)))`;
    /// `None` for the tail when even p90 has fewer than ten above it.
    pub fn percentiles(&self) -> (u64, Option<(f64, u64)>) {
        let mut tail = None;
        let mut beyond = 0.1;
        while (self.ns.count() as f64) * beyond >= 10.0 {
            let p = 1.0 - beyond;
            tail = Some((p, self.ns.quantile(p)));
            beyond /= 10.0;
        }
        (self.ns.p50(), tail)
    }
}

#[derive(Debug, Clone, Copy)]
struct RawSpan {
    kind: usize,
    iter: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// The recorder. Disabled (untraced rounds) it costs one branch per
/// call and never reads the clock.
#[derive(Debug)]
pub struct Spans {
    pub enabled: bool,
    epoch: Instant,
    aggs: Vec<Agg>,
    raw: Vec<RawSpan>,
}

impl Spans {
    pub fn new(kinds: &[SpanKind]) -> Self {
        Spans {
            enabled: false,
            epoch: Instant::now(),
            aggs: kinds
                .iter()
                .map(|&kind| Agg {
                    kind,
                    ns: Hist::new(),
                })
                .collect(),
            raw: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created; 0 when disabled.
    #[inline]
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Nanoseconds from the recorder's creation to `t`, for callers
    /// that read the clock whether or not spans are on.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records one span of kind index `kind` (its position in the list
    /// given to [`Spans::new`]) belonging to loop iteration `iter`.
    #[inline]
    pub fn record(&mut self, kind: usize, iter: u64, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let dur_ns = end_ns.saturating_sub(start_ns);
        self.aggs[kind].ns.record(dur_ns);
        if iter < RAW_ITERATIONS {
            self.raw.push(RawSpan {
                kind,
                iter,
                start_ns,
                dur_ns,
            });
        }
    }

    pub fn agg(&self, kind: usize) -> &Agg {
        &self.aggs[kind]
    }

    /// One line per span name: count, total, mean, median and tail.
    pub fn print_summary(&self) {
        println!("  spans (traced rounds only; percentiles are log2-bucket upper bounds):");
        for agg in self.aggs.iter().filter(|a| !a.ns.is_empty()) {
            let (p50, tail) = agg.percentiles();
            let tail = match tail {
                Some((p, ns)) => format!("p{} <= {} ns", p * 100.0, ns),
                None => "tail n/a (<100 samples)".to_string(),
            };
            println!(
                "    {:<34} n={:<10} total={:>10.3} ms mean={:>10.1} ns p50 <= {} ns {}",
                format!("{}/{}", agg.kind.layer, agg.kind.name),
                agg.ns.count(),
                agg.ns.sum() as f64 / 1e6,
                agg.ns.mean(),
                p50,
                tail
            );
        }
    }

    /// Renders the kept raw spans in Chrome trace-event format (one
    /// thread per layer).
    pub fn chrome_trace(&self) -> String {
        let mut layers: Vec<&'static str> = Vec::new();
        for agg in &self.aggs {
            if !layers.contains(&agg.kind.layer) {
                layers.push(agg.kind.layer);
            }
        }
        let tid = |layer: &str| {
            layers
                .iter()
                .position(|l| *l == layer)
                .expect("known layer")
                + 1
        };
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, layer) in layers.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}},",
                i + 1,
                layer
            );
        }
        for (i, s) in self.raw.iter().enumerate() {
            let kind = self.aggs[s.kind].kind;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"iter\":{}}}}}",
                kind.name,
                tid(kind.layer),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.iter
            );
            out.push_str(if i + 1 == self.raw.len() { "\n" } else { ",\n" });
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: SpanKind = SpanKind {
        layer: "sim",
        name: "clock",
    };

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut s = Spans::new(&[K]);
        s.record(0, 0, 10, 20);
        assert!(s.agg(0).ns.is_empty());
        assert_eq!(s.now(), 0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let mut s = Spans::new(&[K]);
        s.enabled = true;
        for i in 0..99 {
            s.record(0, i, 0, 100);
        }
        assert_eq!(s.agg(0).percentiles().1, None);
        for i in 0..901 {
            s.record(0, i, 0, 100);
        }
        // 1000 samples: p99 has exactly ten beyond it, p99.9 only one.
        let (p50, tail) = s.agg(0).percentiles();
        assert_eq!(p50, 100); // bucket bound clamped into [min, max]
        assert_eq!(tail.map(|(p, _)| (p * 1000.0).round() as u64), Some(990));
    }

    #[test]
    fn raw_spans_stop_after_the_iteration_cap() {
        let mut s = Spans::new(&[K]);
        s.enabled = true;
        s.record(0, RAW_ITERATIONS - 1, 0, 5);
        s.record(0, RAW_ITERATIONS, 0, 5);
        assert_eq!(s.agg(0).ns.count(), 2);
        assert_eq!(s.chrome_trace().matches("\"ph\":\"X\"").count(), 1);
    }
}
