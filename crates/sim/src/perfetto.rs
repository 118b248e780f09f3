//! Perfetto / Chrome trace-event JSON export of the structured
//! trace stream.
//!
//! [`export`] renders a [`FlightSnapshot`] as a Chrome trace-event
//! JSON document (`{"traceEvents":[...]}`) that opens directly in
//! `ui.perfetto.dev` or `chrome://tracing`. The mapping is:
//!
//! * **process (`pid`)** — the device id;
//! * **track (`tid`)** — the logical [`FlightLane`] (host, link,
//!   vault, bank, engine). Tracks are *cycle-domain* lanes, not OS
//!   threads: the whole cycle runs on the calling thread;
//! * **slice (`ph:"X"`)** — one record, `ts` = cycle, `dur` = 1
//!   (idle-skip spans stretch over their compressed extent);
//! * **flows (`ph:"s"/"t"/"f"`)** — packet lifecycles: a host send
//!   starts a flow on its `(device, tag)`, bank service steps it,
//!   delivery (or a zombie drop) finishes it, so clicking a packet in
//!   the UI draws its whole path through the fabric.
//!
//! The exporter is pure over the snapshot: no clocks, no maps with
//! nondeterministic iteration order — identical snapshots render
//! byte-identical JSON.

use crate::jsonv::{obj, Json};
use crate::trace::{FlightLane, FlightSnapshot, TraceKind, TraceRecord};

/// Options controlling what [`export`] renders.
#[derive(Debug, Clone, Copy)]
pub struct PerfettoOptions {
    /// Include the [`FlightLane::Engine`] track: idle skips, sanitizer
    /// audits and checkpoints ([`crate::TraceLevel::ENGINE`]). Packet
    /// lifecycle events are always included. Disable to compare packet
    /// timelines of runs whose engine spans legitimately differ: skip
    /// on vs off, or with and without a sanitizer or checkpoints.
    pub engine: bool,
}

impl Default for PerfettoOptions {
    fn default() -> Self {
        PerfettoOptions { engine: true }
    }
}

/// True when the record passes the option filter.
fn included(rec: &TraceRecord, opts: &PerfettoOptions) -> bool {
    opts.engine || !matches!(rec.kind.lane(), FlightLane::Engine)
}

/// A packet-flow phase for a record, if it participates in one.
fn flow_phase(kind: TraceKind) -> Option<&'static str> {
    match kind {
        TraceKind::HostSend => Some("s"),
        TraceKind::Cmd
        | TraceKind::CmcOp
        | TraceKind::XbarToVault
        | TraceKind::Failover
        | TraceKind::HopRqst
        | TraceKind::HopRsp => Some("t"),
        TraceKind::Deliver | TraceKind::Zombie => Some("f"),
        _ => None,
    }
}

/// A metadata event naming a process or track.
fn metadata(dev: u16, lane: usize, name: &str, args: Json) -> Json {
    obj([
        ("ph", "M".into()),
        ("pid", dev.into()),
        ("tid", lane.into()),
        ("name", name.into()),
        ("args", args),
    ])
}

/// The `traceEvents` array for a snapshot. [`crate::ForensicDump`] and
/// the fuzzer's reproducers embed it as it is, so those files open in
/// the Perfetto UI unmodified.
pub fn trace_events(snap: &FlightSnapshot, opts: &PerfettoOptions) -> Json {
    let records: Vec<TraceRecord> =
        snap.merged().into_iter().filter(|r| included(r, opts)).collect();

    // Metadata first: name every process (device) and track (lane)
    // the records touch, in sorted order.
    let mut tracks: Vec<(u16, usize)> = Vec::new();
    for r in &records {
        let key = (r.dev, r.kind.lane().index());
        if !tracks.contains(&key) {
            tracks.push(key);
        }
    }
    tracks.sort_unstable();

    let mut events = Vec::with_capacity(3 * tracks.len() + 2 * records.len());
    let mut last_dev = None;
    for &(dev, lane) in &tracks {
        if last_dev != Some(dev) {
            last_dev = Some(dev);
            let name = Json::Str(format!("device {dev}"));
            events.push(metadata(dev, 0, "process_name", obj([("name", name)])));
        }
        let name = FlightLane::ALL[lane].name().into();
        events.push(metadata(dev, lane, "thread_name", obj([("name", name)])));
        events.push(metadata(dev, lane, "thread_sort_index", obj([("sort_index", lane.into())])));
    }

    // Flow ids must be unique per packet *instance*: tags recycle, so
    // each host send opens a new generation for its (device, tag).
    // The generation table is keyed by dense (dev, tag) and scanned
    // in record order — fully deterministic.
    let mut generations: std::collections::BTreeMap<(u16, u16), u64> =
        std::collections::BTreeMap::new();

    for r in &records {
        let lane = r.kind.lane().index();
        let dur = match r.kind {
            TraceKind::IdleSkip => r.b.max(1),
            _ => 1,
        };
        let detail = Json::Str(r.render_detail(|idx| snap.resolve(idx)));
        events.push(obj([
            ("ph", "X".into()),
            ("pid", r.dev.into()),
            ("tid", lane.into()),
            ("ts", r.cycle.into()),
            ("dur", dur.into()),
            ("name", r.kind.name().into()),
            ("args", obj([("detail", detail), ("tag", r.tag.into())])),
        ]));
        if let Some(ph) = flow_phase(r.kind) {
            let key = (r.dev, r.tag);
            if ph == "s" {
                *generations.entry(key).or_insert(0) += 1;
            }
            // A step/finish before any recorded send (ring overflow
            // evicted it) still joins generation 0 consistently.
            let generation = generations.get(&key).copied().unwrap_or(0);
            let id = (generation << 32) | ((r.dev as u64) << 16) | r.tag as u64;
            let mut flow = vec![
                ("ph", ph.into()),
                ("pid", r.dev.into()),
                ("tid", lane.into()),
                ("ts", r.cycle.into()),
                ("name", "packet".into()),
                ("cat", "packet".into()),
                ("id", id.into()),
            ];
            if ph == "f" {
                flow.push(("bp", "e".into()));
            }
            events.push(obj(flow));
        }
    }
    Json::Arr(events)
}

/// Renders a complete Perfetto/Chrome trace JSON document for a
/// snapshot: `{"traceEvents":[...],"displayTimeUnit":"ms"}`.
pub fn export(snap: &FlightSnapshot, opts: &PerfettoOptions) -> String {
    obj([("traceEvents", trace_events(snap, opts)), ("displayTimeUnit", "ms".into())]).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FlightRecorder, Tracer};

    fn sample_snapshot() -> FlightSnapshot {
        let mut t = Tracer::disabled();
        t.attach_flight(FlightRecorder::new(16));
        t.emit(TraceRecord {
            dev: 0,
            link: 1,
            tag: 7,
            a: 1,
            ..TraceRecord::new(3, TraceKind::HostSend)
        });
        t.emit(TraceRecord {
            dev: 0,
            vault: 5,
            bank: 2,
            tag: 7,
            cmd: crate::trace::CmdRef::Rqst(hmc_types::HmcRqst::Rd16),
            a: 0x40,
            ..TraceRecord::new(4, TraceKind::Cmd)
        });
        t.emit(TraceRecord {
            dev: 0,
            link: 1,
            tag: 7,
            a: 3,
            ..TraceRecord::new(5, TraceKind::Deliver)
        });
        t.emit(TraceRecord { a: 6, b: 40, ..TraceRecord::new(6, TraceKind::IdleSkip) });
        t.flight_snapshot().expect("flight attached")
    }

    #[test]
    fn export_is_valid_flow_connected_json() {
        let doc = export(&sample_snapshot(), &PerfettoOptions::default());
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"s\""), "send starts a flow");
        assert!(doc.contains("\"ph\":\"t\""), "command steps the flow");
        assert!(doc.contains("\"ph\":\"f\""), "delivery finishes the flow");
        assert!(doc.contains("\"name\":\"idle_skip\""));
        assert!(doc.contains("\"dur\":40"), "idle skip spans its extent");
        assert!(doc.contains("\"thread_name\""));
        // Balanced quotes and braces — cheap structural sanity.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn engine_filter_drops_engine_lane_only() {
        let snap = sample_snapshot();
        let full = export(&snap, &PerfettoOptions { engine: true });
        let packets = export(&snap, &PerfettoOptions { engine: false });
        assert!(full.contains("idle_skip"));
        assert!(!packets.contains("idle_skip"));
        assert!(packets.contains("\"name\":\"send\""));
    }

    #[test]
    fn tag_reuse_opens_a_fresh_flow_generation() {
        let mut t = Tracer::disabled();
        t.attach_flight(FlightRecorder::new(16));
        for cycle in [1u64, 10] {
            t.emit(TraceRecord {
                tag: 9,
                a: 1,
                ..TraceRecord::new(cycle, TraceKind::HostSend)
            });
            t.emit(TraceRecord {
                tag: 9,
                a: 3,
                ..TraceRecord::new(cycle + 3, TraceKind::Deliver)
            });
        }
        let doc = export(&t.flight_snapshot().unwrap(), &PerfettoOptions::default());
        let id1 = (1u64 << 32) | 9;
        let id2 = (2u64 << 32) | 9;
        assert!(doc.contains(&format!("\"id\":{id1}")));
        assert!(doc.contains(&format!("\"id\":{id2}")), "second send gets a new flow id");
    }

    #[test]
    fn identical_snapshots_render_identical_bytes() {
        let a = export(&sample_snapshot(), &PerfettoOptions::default());
        let b = export(&sample_snapshot(), &PerfettoOptions::default());
        assert_eq!(a, b);
    }
}
