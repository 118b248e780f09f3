//! Checkpoint snapshots and forensic dumps.
//!
//! A [`SimSnapshot`] deep-copies every piece of dynamic simulation
//! state — device queues, vault contents, memory pages, registers,
//! link-layer flow control, tag pools, in-transit and retry-buffer
//! packets — so that [`HmcSim::restore`] reproduces the exact machine
//! state and re-clocking replays deterministically. Snapshots serve
//! two roles:
//!
//! * **Checkpoints** — taken periodically (the sanitizer's
//!   `checkpoint_every` knob or an explicit [`HmcSim::snapshot`]
//!   call), they bound the replay window after a crash.
//! * **Crash forensics** — on an invariant violation the sanitizer
//!   wraps the end-of-cycle snapshot, the violation list and a
//!   bounded ring of recent trace events into a [`ForensicDump`],
//!   serialized as JSON by a dependency-free writer. The snapshot
//!   carries the sanitizer's *pre-acknowledgement* shadow state, so
//!   restoring it and clocking once re-detects the same violation.
//!
//! Static state (configuration, CMC registrations, the tracer) is not
//! captured: `restore` requires a context with the same geometry and
//! keeps those parts from the live context.

use crate::device::{Device, RqstEnvelope, RspEnvelope, Vault};
use crate::link::LinkControl;
use crate::queue::BoundedQueue;
use crate::sanitizer::{SanitizerShadow, Violation};
use crate::sim::{HmcSim, RetryEntry, Transit};
use crate::trace::FlightSnapshot;
use hmc_types::{HmcError, Tag, TagPool, TagSet};
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};

/// Dynamic state of one device (crate-internal payload of
/// [`SimSnapshot`]).
#[derive(Debug, Clone)]
pub struct DeviceSnapshot {
    pub(crate) xbar_rqst: Vec<BoundedQueue<RqstEnvelope>>,
    pub(crate) xbar_rsp: Vec<BoundedQueue<RspEnvelope>>,
    pub(crate) vaults: Vec<Vault>,
    pub(crate) mem: hmc_mem::SparseMemory,
    pub(crate) regs: crate::regs::RegisterFile,
    pub(crate) stats: crate::stats::DeviceStats,
    pub(crate) power: crate::power::PowerModel,
    pub(crate) fault_rng: crate::fault::FaultRng,
    pub(crate) link_up: Vec<bool>,
    pub(crate) fault_idx: usize,
    /// Timing-backend state: selection, observation counters and (for
    /// the validated backend) the shadow bank array. Pure observation
    /// apart from `select` — excluded from
    /// [`SimSnapshot::fingerprint`], restored so a resumed run keeps
    /// its backend and its telemetry continues seamlessly.
    pub(crate) timing: crate::timing::TimingSnapshot,
}

/// A deep copy of all dynamic simulation state at one cycle boundary.
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    pub(crate) cycle: u64,
    pub(crate) devices: Vec<DeviceSnapshot>,
    pub(crate) host_rx: Vec<Vec<VecDeque<RspEnvelope>>>,
    pub(crate) tag_pools: Vec<Vec<TagPool>>,
    pub(crate) pool_tags: Vec<Vec<TagSet>>,
    pub(crate) in_transit: Vec<Transit>,
    pub(crate) links: Vec<Vec<LinkControl>>,
    pub(crate) retry_pending: Vec<RetryEntry>,
    pub(crate) zombie_tags: Vec<HashSet<(usize, u16)>>,
    /// Sanitizer shadow accounting at snapshot time, when a sanitizer
    /// was attached. Restored alongside the machine state so the
    /// conservation counters stay consistent across a replay.
    pub(crate) shadow: Option<SanitizerShadow>,
    /// Flight-recorder timeline at snapshot time, when a recorder was
    /// attached. Pure observation: excluded from [`fingerprint`]
    /// (like the shadow), restored into an attached recorder so a
    /// resumed run carries its pre-crash timeline.
    ///
    /// [`fingerprint`]: SimSnapshot::fingerprint
    pub(crate) flight: Option<FlightSnapshot>,
}

impl SimSnapshot {
    /// The cycle the snapshot was taken at. A snapshot is taken at the
    /// *end* of this cycle's clock (before the cycle counter
    /// advances): restoring it and calling `clock()` re-executes that
    /// boundary, which is what lets a forensic snapshot re-detect its
    /// violation at the same cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// All `(tag, tail-SEQ)` pairs of request packets resident
    /// anywhere for device `dev`: crossbar and vault request queues,
    /// the link-layer retry buffer and inter-device transit. Sorted
    /// for deterministic comparison.
    pub fn request_seqs(&self, dev: usize) -> Vec<(u16, u8)> {
        let mut out = Vec::new();
        if let Some(d) = self.devices.get(dev) {
            for q in &d.xbar_rqst {
                out.extend(q.iter().map(|i| (i.req.head.tag.value(), i.req.tail.seq)));
            }
            for v in &d.vaults {
                out.extend(v.rqst.iter().map(|i| (i.req.head.tag.value(), i.req.tail.seq)));
            }
        }
        out.extend(self.retry_seqs(dev));
        for t in &self.in_transit {
            if let Transit::Rqst { to_dev, item, .. } = t {
                if *to_dev == dev {
                    out.push((item.req.head.tag.value(), item.req.tail.seq));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// `(tag, tail-SEQ)` pairs of packets waiting in device `dev`'s
    /// link-layer retry buffer, sorted.
    pub fn retry_seqs(&self, dev: usize) -> Vec<(u16, u8)> {
        let mut out: Vec<(u16, u8)> = self
            .retry_pending
            .iter()
            .filter(|e| e.dev == dev)
            .map(|e| (e.item.req.head.tag.value(), e.item.req.tail.seq))
            .collect();
        out.sort_unstable();
        out
    }

    /// Packets resident in the fabric (device queues, transit and
    /// retry buffers) across all devices.
    pub fn packets_in_fabric(&self) -> usize {
        let queued: usize = self
            .devices
            .iter()
            .map(|d| {
                d.xbar_rqst.iter().map(BoundedQueue::len).sum::<usize>()
                    + d.xbar_rsp.iter().map(BoundedQueue::len).sum::<usize>()
                    + d.vaults.iter().map(|v| v.rqst.len() + v.rsp.len()).sum::<usize>()
            })
            .sum();
        queued + self.in_transit.len() + self.retry_pending.len()
    }

    /// Serializes the snapshot as a JSON object. Queue listings are
    /// bounded (64 packets per queue, with a `truncated` marker) so a
    /// congested dump stays readable.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\"cycle\":");
        s.push_str(&self.cycle.to_string());
        s.push_str(",\"devices\":[");
        for (i, d) in self.devices.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            device_json(&mut s, i, d);
        }
        s.push_str("],\"links\":[");
        for (i, dev_links) in self.links.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('[');
            for (j, l) in dev_links.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let st = l.stats;
                s.push_str(&format!(
                    "{{\"tokens\":{},\"seq\":{},\"packets_sent\":{},\"token_stalls\":{},\
                     \"retries\":{},\"crc_errors\":{},\"token_overflows\":{}}}",
                    l.tokens_available(),
                    l.seq(),
                    st.packets_sent,
                    st.token_stalls,
                    st.retries,
                    st.crc_errors,
                    st.token_overflows
                ));
            }
            s.push(']');
        }
        s.push_str("],\"tag_pools\":[");
        for (i, dev_pools) in self.tag_pools.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('[');
            for (j, p) in dev_pools.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"capacity\":{},\"in_flight\":{},\"available\":{}}}",
                    p.capacity(),
                    p.in_flight(),
                    p.available()
                ));
            }
            s.push(']');
        }
        s.push_str("],\"pool_tags\":[");
        for (i, dev_sets) in self.pool_tags.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('[');
            for (j, set) in dev_sets.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                bounded_u16_set(&mut s, set.iter().map(Tag::value));
            }
            s.push(']');
        }
        s.push_str("],\"zombie_tags\":[");
        for (i, set) in self.zombie_tags.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let mut v: Vec<_> = set.iter().copied().collect();
            v.sort_unstable();
            s.push('[');
            for (j, (link, tag)) in v.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("[{link},{tag}]"));
            }
            s.push(']');
        }
        s.push_str("],\"retry_pending\":[");
        for (i, e) in self.retry_pending.iter().take(64).enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"dev\":{},\"link\":{},\"ready\":{},\"tag\":{},\"seq\":{}}}",
                e.dev,
                e.link,
                e.ready,
                e.item.req.head.tag.value(),
                e.item.req.tail.seq
            ));
        }
        s.push_str("],\"in_transit\":[");
        for (i, t) in self.in_transit.iter().take(64).enumerate() {
            if i > 0 {
                s.push(',');
            }
            match t {
                Transit::Rqst { from_dev, to_dev, link, item, ready } => s.push_str(&format!(
                    "{{\"kind\":\"rqst\",\"from_dev\":{from_dev},\"to_dev\":{to_dev},\
                     \"link\":{link},\"ready\":{ready},\"tag\":{}}}",
                    item.req.head.tag.value()
                )),
                Transit::Rsp { from_dev, to_dev, link, item, ready } => s.push_str(&format!(
                    "{{\"kind\":\"rsp\",\"from_dev\":{from_dev},\"to_dev\":{to_dev},\
                     \"link\":{link},\"ready\":{ready},\"tag\":{}}}",
                    item.rsp.head.tag.value()
                )),
            }
        }
        s.push_str("],\"host_rx\":[");
        for (i, dev_queues) in self.host_rx.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('[');
            for (j, q) in dev_queues.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                bounded_u16_set(&mut s, q.iter().map(|r| r.rsp.head.tag.value()));
            }
            s.push(']');
        }
        s.push(']');
        if let Some(shadow) = &self.shadow {
            s.push_str(",\"shadow\":");
            shadow_json(&mut s, shadow);
        }
        if let Some(flight) = &self.flight {
            s.push_str(&format!(
                ",\"flight\":{{\"capacity\":{},\"records\":{},\"dropped\":{}}}",
                flight.capacity,
                flight.len(),
                flight.lanes.iter().map(|l| l.dropped).sum::<u64>()
            ));
        }
        s.push('}');
        s
    }

    /// Deterministic deep fingerprint of the captured state. Two
    /// snapshots of identical machine states — even taken by
    /// different simulation contexts in the same process — produce
    /// identical fingerprints. The sanitizer shadow is excluded so a
    /// sanitizer-on run fingerprints identically to a sanitizer-off
    /// run of the same machine state.
    ///
    /// Queues, transits and receive buffers are hashed through their
    /// `Debug` text, so the text must not depend on where a packet is
    /// stored: the envelopes are `Box<T>`, which prints exactly as
    /// `T` does (pinned by `envelopes_print_like_the_packets_they_hold`
    /// in `device.rs`).
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.cycle.hash(&mut h);
        for d in &self.devices {
            format!("{:?}", d.xbar_rqst).hash(&mut h);
            format!("{:?}", d.xbar_rsp).hash(&mut h);
            format!("{:?}", d.vaults).hash(&mut h);
            d.mem.content_digest().hash(&mut h);
            format!("{:?}", d.regs).hash(&mut h);
            format!("{:?}", d.stats).hash(&mut h);
            format!("{:?}", d.power).hash(&mut h);
            format!("{:?}", d.fault_rng).hash(&mut h);
            d.link_up.hash(&mut h);
            d.fault_idx.hash(&mut h);
        }
        for dev_queues in &self.host_rx {
            for q in dev_queues {
                format!("{q:?}").hash(&mut h);
            }
        }
        for dev_pools in &self.tag_pools {
            for p in dev_pools {
                format!("{p:?}").hash(&mut h);
            }
        }
        for dev_sets in &self.pool_tags {
            for set in dev_sets {
                // Ascending by construction — the sorted tag list the
                // fingerprint has always hashed.
                let v: Vec<u16> = set.iter().map(Tag::value).collect();
                v.hash(&mut h);
            }
        }
        for set in &self.zombie_tags {
            let mut v: Vec<_> = set.iter().copied().collect();
            v.sort_unstable();
            v.hash(&mut h);
        }
        format!("{:?}", self.in_transit).hash(&mut h);
        format!("{:?}", self.retry_pending).hash(&mut h);
        for dev_links in &self.links {
            for l in dev_links {
                format!("{l:?}").hash(&mut h);
            }
        }
        h.finish()
    }
}

/// Escapes a string for embedding in JSON.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Writes a bounded sorted JSON array of small integers.
fn bounded_u16_set(s: &mut String, items: impl Iterator<Item = u16>) {
    let mut v: Vec<u16> = items.collect();
    v.sort_unstable();
    let truncated = v.len() > 64;
    v.truncate(64);
    s.push('[');
    for (i, t) in v.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&t.to_string());
    }
    if truncated {
        s.push_str(",\"...\"");
    }
    s.push(']');
}

fn rqst_queue_json(s: &mut String, q: &BoundedQueue<RqstEnvelope>) {
    s.push_str(&format!("{{\"len\":{},\"depth\":{},\"packets\":[", q.len(), q.depth()));
    for (i, item) in q.iter().take(64).enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"tag\":{},\"cmd\":\"{}\",\"addr\":\"{:#x}\",\"seq\":{},\"issue\":{}}}",
            item.req.head.tag.value(),
            json_escape(&item.req.head.cmd.mnemonic()),
            item.req.head.addr,
            item.req.tail.seq,
            item.issue_cycle
        ));
    }
    if q.len() > 64 {
        s.push_str(",\"...\"");
    }
    s.push_str("]}");
}

fn rsp_queue_json(s: &mut String, q: &BoundedQueue<RspEnvelope>) {
    s.push_str(&format!("{{\"len\":{},\"depth\":{},\"packets\":[", q.len(), q.depth()));
    for (i, item) in q.iter().take(64).enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"tag\":{},\"cmd\":\"{:?}\",\"errstat\":{},\"entry_link\":{}}}",
            item.rsp.head.tag.value(),
            item.rsp.head.cmd,
            item.rsp.tail.errstat,
            item.entry_link
        ));
    }
    if q.len() > 64 {
        s.push_str(",\"...\"");
    }
    s.push_str("]}");
}

fn device_json(s: &mut String, id: usize, d: &DeviceSnapshot) {
    s.push_str(&format!("{{\"id\":{id},\"link_up\":["));
    for (i, up) in d.link_up.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(if *up { "true" } else { "false" });
    }
    s.push_str("],\"xbar_rqst\":[");
    for (i, q) in d.xbar_rqst.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        rqst_queue_json(s, q);
    }
    s.push_str("],\"xbar_rsp\":[");
    for (i, q) in d.xbar_rsp.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        rsp_queue_json(s, q);
    }
    // Only occupied vaults: 32 empty entries per device are noise.
    s.push_str("],\"vaults\":[");
    let mut first = true;
    for (v, vault) in d.vaults.iter().enumerate() {
        if vault.rqst.is_empty() && vault.rsp.is_empty() {
            continue;
        }
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!(
            "{{\"vault\":{v},\"rqst\":{},\"rsp\":{}}}",
            vault.rqst.len(),
            vault.rsp.len()
        ));
    }
    let st = &d.stats;
    s.push_str(&format!(
        "],\"stats\":{{\"responses\":{},\"error_responses\":{},\"send_stalls\":{},\
         \"xbar_stalls\":{},\"vault_stalls\":{},\"vault_faults\":{},\"abandoned\":{},\
         \"failover\":{}}},\"resident_pages\":{},\"fault_idx\":{}}}",
        st.responses,
        st.error_responses,
        st.send_stalls,
        st.xbar_stalls,
        st.vault_stalls,
        st.vault_faults,
        st.abandoned_responses,
        st.failover_responses,
        d.mem.resident_pages(),
        d.fault_idx
    ));
}

fn shadow_json(s: &mut String, shadow: &SanitizerShadow) {
    s.push_str(&format!(
        "{{\"injected\":{},\"delivered\":{},\"absorbed\":{},\"zombie_dropped\":{},\
         \"live_tags\":",
        shadow.injected, shadow.delivered, shadow.absorbed, shadow.zombie_dropped
    ));
    let mut v: Vec<_> = shadow.live_tags.iter().copied().collect();
    v.sort_unstable();
    let truncated = v.len() > 64;
    v.truncate(64);
    s.push('[');
    for (i, (dev, link, tag)) in v.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("[{dev},{link},{tag}]"));
    }
    if truncated {
        s.push_str(",\"...\"");
    }
    s.push_str("]}");
}

/// The sanitizer's crash-forensics payload: everything needed to
/// understand and deterministically replay an invariant violation.
#[derive(Debug, Clone)]
pub struct ForensicDump {
    /// Cycle the violations were detected at.
    pub cycle: u64,
    /// The violations detected this cycle.
    pub violations: Vec<Violation>,
    /// End-of-cycle snapshot carrying the sanitizer's
    /// pre-acknowledgement shadow state: `HmcSim::restore` followed by
    /// one `clock()` re-detects the same violations.
    pub snapshot: SimSnapshot,
    /// Recent trace events leading up to the violation, oldest first
    /// (captured by the sanitizer's [`crate::trace::TraceRing`]).
    pub trace: Vec<String>,
    /// Cycle of the last periodic checkpoint, when one exists — the
    /// replay window is `checkpoint_cycle ..= cycle`.
    pub checkpoint_cycle: Option<u64>,
    /// Telemetry registry at violation time, pre-rendered as the JSON
    /// report (`None` when telemetry is disabled).
    pub telemetry_json: Option<String>,
    /// Flight-recorder timeline at violation time (`None` when no
    /// recorder is attached). Serialized as a top-level `traceEvents`
    /// array so the dump file opens directly in `ui.perfetto.dev`.
    pub flight: Option<FlightSnapshot>,
}

impl ForensicDump {
    /// Serializes the dump as a JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(8192);
        s.push_str("{\"cycle\":");
        s.push_str(&self.cycle.to_string());
        s.push_str(",\"checkpoint_cycle\":");
        match self.checkpoint_cycle {
            Some(c) => s.push_str(&c.to_string()),
            None => s.push_str("null"),
        }
        s.push_str(",\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"cycle\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
                v.cycle,
                v.kind.name(),
                json_escape(&v.detail)
            ));
        }
        s.push_str("],\"trace\":[");
        for (i, line) in self.trace.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            s.push_str(&json_escape(line));
            s.push('"');
        }
        s.push_str("],\"telemetry\":");
        match &self.telemetry_json {
            Some(t) => s.push_str(t),
            None => s.push_str("null"),
        }
        // Top-level traceEvents: trace viewers accept extra keys, so
        // the forensic dump itself is a loadable Perfetto trace.
        s.push_str(",\"traceEvents\":");
        match &self.flight {
            Some(f) => s.push_str(&crate::perfetto::trace_events(
                f,
                &crate::perfetto::PerfettoOptions::default(),
            )),
            None => s.push_str("[]"),
        }
        s.push_str(",\"snapshot\":");
        s.push_str(&self.snapshot.to_json());
        s.push('}');
        s
    }

    /// Writes the JSON dump to `path`, creating parent directories.
    /// The write is atomic (tmp → fsync → rename → directory fsync, via
    /// [`crate::ckpt::atomic_write`]) — a crash mid-dump never leaves a
    /// torn forensic file — and every error names the offending path.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        crate::ckpt::atomic_write(path, self.to_json().as_bytes())
    }
}

impl HmcSim {
    /// Captures all dynamic state, pairing it with the given sanitizer
    /// shadow (the public [`HmcSim::snapshot`] passes the live shadow;
    /// the sanitizer passes its pre-acknowledgement copy).
    pub(crate) fn snapshot_with_shadow(&self, shadow: Option<SanitizerShadow>) -> SimSnapshot {
        SimSnapshot {
            cycle: self.cycle,
            devices: self.devices.iter().map(Device::snapshot_state).collect(),
            host_rx: self.host_rx.clone(),
            tag_pools: self.tag_pools.clone(),
            pool_tags: self.pool_tags.clone(),
            // The event heaps flatten to their deterministic
            // `(ready, insertion)` order; concatenating the per-edge
            // queues in commit (edge-id) order keeps the flat form a
            // pure function of simulation state, so two identical
            // states always snapshot (and fingerprint) identically.
            in_transit: self
                .transit_queues
                .iter()
                .flat_map(|q| q.to_sorted_items())
                .collect(),
            links: self.links.clone(),
            retry_pending: self.retry_pending.to_sorted_items(),
            zombie_tags: self.zombie_tags.clone(),
            shadow,
            flight: self.tracer.flight_snapshot(),
        }
    }

    /// Captures a checkpoint of all dynamic simulation state. Restore
    /// it with [`HmcSim::restore`] to replay deterministically from
    /// this point.
    pub fn snapshot(&self) -> SimSnapshot {
        self.snapshot_with_shadow(self.sanitizer.as_ref().map(|s| s.shadow.clone()))
    }

    /// Restores all dynamic state from a snapshot taken on a context
    /// with the same geometry (device count, links, vaults). The
    /// static parts — configuration, CMC registrations, the tracer
    /// and the sanitizer policy — are kept from the live context.
    /// Returns [`HmcError::MalformedPacket`] on a geometry mismatch.
    pub fn restore(&mut self, snap: &SimSnapshot) -> Result<(), HmcError> {
        if snap.devices.len() != self.devices.len() {
            return Err(HmcError::MalformedPacket(format!(
                "snapshot has {} devices, context has {}",
                snap.devices.len(),
                self.devices.len()
            )));
        }
        for (i, (d, s)) in self.devices.iter().zip(&snap.devices).enumerate() {
            if d.config().links != s.link_up.len()
                || d.config().total_vaults() != s.vaults.len()
            {
                return Err(HmcError::MalformedPacket(format!(
                    "snapshot geometry mismatch on device {i}"
                )));
            }
        }
        self.cycle = snap.cycle;
        for (dev, s) in self.devices.iter_mut().zip(&snap.devices) {
            dev.restore_state(s);
        }
        self.host_rx = snap.host_rx.clone();
        self.tag_pools = snap.tag_pools.clone();
        self.pool_tags = snap.pool_tags.clone();
        // Rebuild the per-edge transit heaps from the snapshot's flat
        // form; the renumbered insertion sequence preserves the
        // recorded per-edge order. Pre-fabric snapshots carry no
        // sender (`from_dev == usize::MAX`) — those packets are
        // re-homed onto the lowest-numbered in-edge of their target,
        // which is deterministic and, on a chain, the legacy hop.
        let mut per_edge: Vec<Vec<Transit>> = vec![Vec::new(); self.topology.edge_count()];
        for t in &snap.in_transit {
            let (from, to) = t.edge();
            let edge = self.topology.edge_id(from, to).or_else(|| {
                self.topology
                    .edges()
                    .iter()
                    .position(|&(_, e_to)| e_to as usize == to)
            });
            let Some(edge) = edge else {
                return Err(HmcError::MalformedPacket(format!(
                    "snapshot transit targets device {to}, which has no in-edge \
                     in this topology"
                )));
            };
            let (rehomed_from, _) = self.topology.edges()[edge];
            let mut t = t.clone();
            t.set_from_dev(rehomed_from as usize);
            per_edge[edge].push(t);
        }
        self.transit_queues = per_edge
            .into_iter()
            .map(|v| crate::events::EventHeap::from_ordered(v, Transit::ready))
            .collect();
        self.links = snap.links.clone();
        self.retry_pending = crate::events::EventHeap::from_ordered(
            snap.retry_pending.iter().cloned(),
            |e: &RetryEntry| e.ready,
        );
        self.zombie_tags = snap.zombie_tags.clone();
        // Restored queues may hold packets: force the skip engine to
        // re-scan before compressing.
        self.mark_fabric_busy();
        if let Some(mut san) = self.sanitizer.take() {
            match &snap.shadow {
                Some(shadow) => san.shadow = shadow.clone(),
                // Snapshot from a sanitizer-off run: rebase the shadow
                // accounting to the restored state.
                None => san.rebase(self),
            }
            san.reset_watchdog();
            self.sanitizer = Some(san);
        }
        // An attached telemetry collector keeps running across the
        // restore; its delta baselines must follow the state backwards
        // or the next sample underflows.
        if let Some(mut tel) = self.telemetry.take() {
            tel.rebase(self);
            self.telemetry = Some(tel);
        }
        // An attached flight recorder resumes the snapshot's timeline
        // (no-op when the snapshot carried none or no recorder is
        // attached — the recorder is an observer, never state).
        if let Some(flight) = &snap.flight {
            self.tracer.restore_flight(flight);
        }
        Ok(())
    }

    /// Deterministic deep fingerprint of all dynamic state (see
    /// [`SimSnapshot::fingerprint`]). Intended for replay-equality
    /// assertions, not per-cycle use — it walks every queue and
    /// resident memory page.
    pub fn state_fingerprint(&self) -> u64 {
        self.snapshot_with_shadow(None).fingerprint()
    }
}
