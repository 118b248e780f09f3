//! Checkpoint snapshots and forensic dumps.
//!
//! A [`SimSnapshot`] copies every piece of dynamic simulation state —
//! device queues, vault contents, memory pages, registers, link-layer
//! flow control, tag pools, in-transit and retry-buffer packets — so
//! that [`HmcSim::restore`] reproduces the exact machine state and
//! re-clocking replays deterministically. Memory pages are shared
//! with the live store, not copied: whichever side writes a shared page
//! first takes its own copy of it (`hmc_mem::store`), so taking or
//! restoring a snapshot copies no page bytes. Snapshots serve two
//! roles:
//!
//! * **Checkpoints** — taken periodically (the sanitizer's
//!   `checkpoint_every` knob or an explicit [`HmcSim::snapshot`]
//!   call), they bound the replay window after a crash.
//! * **Crash forensics** — on an invariant violation the sanitizer
//!   wraps the end-of-cycle snapshot, the violation list and a
//!   bounded ring of recent trace events into a [`ForensicDump`]. The
//!   snapshot carries the sanitizer's *pre-acknowledgement* shadow
//!   state, so restoring it and clocking once re-detects the same
//!   violation — from the in-memory dump or from its JSON file, which
//!   embeds the snapshot in its lossless form
//!   ([`SimSnapshot::to_json_value`]).
//!
//! A snapshot also names its machine (schema 3): the live
//! [`crate::SimConfig`] and, per device, the CMC libraries it loaded by
//! name and the CMC codes active. [`HmcSim::from_snapshot`] builds the
//! context from that alone and restores into it. [`HmcSim::restore`]
//! into a context the caller built keeps that context's configuration,
//! CMC registrations and tracer: it needs the same geometry, and
//! rewinding a live context is what it is for.
//!
//! # The state fingerprint
//!
//! [`SimSnapshot::fingerprint`] and [`HmcSim::state_fingerprint`] are
//! one walk (`StateView::fingerprint`) over borrowed state, feeding
//! every persisted field to [`hmc_types::Fnv`] (`Fnv::word` per
//! scalar, `Fnv::bytes` per memory page; the function is specified in
//! that module and does not depend on the toolchain). Every sequence is
//! followed by its length. The walk is
//!
//! * **observer-blind** — the sanitizer shadow, the flight recorder
//!   and the timing backend's observation record are not visited, so
//!   attaching an observer never moves a fingerprint;
//! * **representation-independent** — event heaps are visited in
//!   `(ready, insertion)` order without their sequence numbers, tag
//!   sets ascending, zombie sets sorted, memory pages by ascending
//!   page id, payloads as word slices;
//! * **equal to the persisted state** — it covers exactly the leaves
//!   of [`SimSnapshot::to_json_value`] outside `shadow`, `flight`,
//!   `timing` and the machine (`config`, `cmc_libraries`, `cmc_codes`),
//!   which is configuration, not state (`tests/snapshot_codec.rs`
//!   perturbs each leaf).

use crate::config::{DeviceShape, SimConfig};
use crate::device::{
    Device, DeviceView, RqstEnvelope, RspEnvelope, TrackedRequest, TrackedResponse, Vault,
};
use crate::export::TelemetryReport;
use crate::hist::Hist;
use crate::jsonv::{obj, Json};
use crate::link::LinkControl;
use crate::power::{CLOCK_HZ, DRAM_ACCESS_PJ, IDLE_CYCLE_PJ, LINK_FLIT_PJ, LOGIC_OP_PJ};
use crate::queue::BoundedQueue;
use crate::sanitizer::{SanitizerShadow, Violation};
use crate::sim::{HmcSim, RetryEntry, Transit};
use crate::trace::FlightSnapshot;
use hmc_types::{Fnv, HmcError, HmcResponse, HmcRqst, TagPool, TagSet};
use std::collections::{HashSet, VecDeque};

/// Dynamic state of one device (crate-internal payload of
/// [`SimSnapshot`]).
#[derive(Debug, Clone)]
pub struct DeviceSnapshot {
    pub(crate) xbar_rqst: Vec<BoundedQueue<RqstEnvelope>>,
    pub(crate) xbar_rsp: Vec<BoundedQueue<RspEnvelope>>,
    pub(crate) vaults: Vec<Vault>,
    /// Every vault's banks, vault after vault, as the device holds them.
    pub(crate) banks: Vec<crate::dram::Bank>,
    /// How many of `banks` each vault holds: `banks_per_vault` each when
    /// taken from a device, as listed when decoded (a document may not
    /// fit its context, and [`HmcSim::restore`] names the vault).
    pub(crate) vault_banks: Vec<usize>,
    pub(crate) mem: hmc_mem::SparseMemory,
    pub(crate) regs: crate::regs::RegisterFile,
    pub(crate) stats: crate::stats::DeviceStats,
    pub(crate) power: crate::power::PowerModel,
    pub(crate) fault_rng: crate::fault::FaultRng,
    pub(crate) link_up: Vec<bool>,
    pub(crate) fault_idx: usize,
    /// Timing-backend state: selection and observation counters. Pure
    /// observation apart from `select` — excluded from
    /// [`SimSnapshot::fingerprint`], restored so a resumed run keeps
    /// its backend and its telemetry continues seamlessly.
    pub(crate) timing: crate::timing::TimingSnapshot,
    /// The CMC libraries the device loaded by name, in load order, and
    /// the CMC codes active: what [`HmcSim::from_snapshot`] loads again
    /// and checks. Configuration, so the fingerprint does not visit
    /// them; empty in a schema-1 or -2 document.
    pub(crate) cmc_libraries: Vec<String>,
    pub(crate) cmc_codes: Vec<u8>,
}

/// A copy of all dynamic simulation state at one cycle boundary, its
/// memory pages shared copy-on-write with the store it was taken from.
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    /// The live configuration the snapshot was taken under (`None`
    /// for a schema-1 or -2 document). Not visited by the fingerprint:
    /// it is what the state runs on, not state.
    pub(crate) config: Option<SimConfig>,
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

// A context and its checkpoints must stay `Send`: each may be handed to
// another thread to run, persist or replay, and the memory pages they
// share are reference-counted atomically.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<SimSnapshot>();
    send::<HmcSim>();
};

impl SimSnapshot {
    /// The cycle the snapshot was taken at. A snapshot is taken at the
    /// *end* of this cycle's clock (before the cycle counter
    /// advances): restoring it and calling `clock()` re-executes that
    /// boundary, which is what lets a forensic snapshot re-detect its
    /// violation at the same cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The configuration the snapshot was taken under, when it names
    /// one (schema 3).
    pub fn config(&self) -> Option<&SimConfig> {
        self.config.as_ref()
    }

    /// The flight-recorder timeline the snapshot carries, when a
    /// recorder was attached.
    pub fn flight(&self) -> Option<&FlightSnapshot> {
        self.flight.as_ref()
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

    /// Deterministic deep fingerprint of the captured state (see the
    /// module docs). Two snapshots of identical machine states — taken
    /// by different contexts, processes or toolchains — produce
    /// identical fingerprints, and a sanitizer-, recorder- or
    /// telemetry-on run fingerprints identically to a bare run of the
    /// same machine state.
    pub fn fingerprint(&self) -> u64 {
        StateView {
            cycle: self.cycle,
            devices: self.devices.iter().map(DeviceSnapshot::view).collect(),
            host_rx: &self.host_rx,
            tag_pools: &self.tag_pools,
            pool_tags: &self.pool_tags,
            in_transit: self.in_transit.iter().collect(),
            links: &self.links,
            retry_pending: self.retry_pending.iter().collect(),
            zombie_tags: &self.zombie_tags,
        }
        .fingerprint()
    }
}

impl DeviceSnapshot {
    pub(crate) fn view(&self) -> DeviceView<'_> {
        DeviceView {
            xbar_rqst: &self.xbar_rqst,
            xbar_rsp: &self.xbar_rsp,
            vaults: &self.vaults,
            banks: &self.banks,
            vault_banks: Some(&self.vault_banks),
            mem: &self.mem,
            regs: &self.regs,
            stats: &self.stats,
            power: &self.power,
            fault_rng: &self.fault_rng,
            link_up: &self.link_up,
            fault_idx: self.fault_idx,
        }
    }
}

/// Everything the fingerprint covers, borrowed from a [`SimSnapshot`]
/// or straight from a live [`HmcSim`]; the event lists are already in
/// `(ready, insertion)` order.
struct StateView<'a> {
    cycle: u64,
    devices: Vec<DeviceView<'a>>,
    host_rx: &'a [Vec<VecDeque<RspEnvelope>>],
    tag_pools: &'a [Vec<TagPool>],
    pool_tags: &'a [Vec<TagSet>],
    in_transit: Vec<&'a Transit>,
    links: &'a [Vec<LinkControl>],
    retry_pending: Vec<&'a RetryEntry>,
    zombie_tags: &'a [HashSet<(usize, u16)>],
}

/// Folds a sequence: every item through `item`, then the count.
fn hash_seq<T>(h: &mut Fnv, items: impl Iterator<Item = T>, mut item: impl FnMut(&mut Fnv, T)) {
    let mut count = 0u64;
    for it in items {
        item(h, it);
        count += 1;
    }
    h.word(count);
}

fn hash_request(h: &mut Fnv, t: &TrackedRequest) {
    let (head, tail) = (&t.req.head, &t.req.tail);
    h.words([
        matches!(head.cmd, HmcRqst::Cmc(_)) as u64,
        head.cmd.code() as u64,
        head.lng as u64,
        head.tag.value() as u64,
        head.addr,
        head.cub.value() as u64,
        tail.rrp as u64,
        tail.frp as u64,
        tail.seq as u64,
        tail.pb as u64,
        tail.slid.value() as u64,
        tail.rtc as u64,
        tail.crc as u64,
        t.entry_device as u64,
        t.entry_link as u64,
        t.issue_cycle,
        t.hops as u64,
        t.ready_cycle,
        t.vault_enq_cycle,
    ]);
    hash_seq(h, t.req.payload.iter(), |h, &w| h.word(w));
}

fn hash_response(h: &mut Fnv, t: &TrackedResponse) {
    let (head, tail) = (&t.rsp.head, &t.rsp.tail);
    h.words([
        matches!(head.cmd, HmcResponse::RspCmc(_)) as u64,
        head.cmd.code() as u64,
        head.lng as u64,
        head.tag.value() as u64,
        head.af as u64,
        head.slid.value() as u64,
        head.cub.value() as u64,
        tail.rrp as u64,
        tail.frp as u64,
        tail.seq as u64,
        tail.dinv as u64,
        tail.errstat as u64,
        tail.rtc as u64,
        tail.crc as u64,
        t.issue_cycle,
        t.complete_cycle,
        t.latency,
        t.entry_device as u64,
        t.entry_link as u64,
        t.class as u64,
        t.stages.vault_enq,
        t.stages.exec,
        t.stages.rsp_route,
        t.stages.egress,
    ]);
    hash_seq(h, t.rsp.payload.iter(), |h, &w| h.word(w));
}

fn hash_queue<T>(h: &mut Fnv, q: &BoundedQueue<Box<T>>, item: fn(&mut Fnv, &T)) {
    h.words([q.depth() as u64, q.high_water() as u64, q.stalls(), q.pushes()]);
    hash_seq(h, q.iter(), |h, envelope| item(h, envelope));
}

fn hash_vault(h: &mut Fnv, (v, banks): (&Vault, &[crate::dram::Bank])) {
    hash_queue(h, &v.rqst, hash_request);
    hash_queue(h, &v.rsp, hash_response);
    hash_seq(h, banks.iter(), |h, bank| {
        let (busy_until, open_row) = bank.dynamic_state();
        // `Some(row)` and `None` never fold alike: the flag goes first.
        h.words([busy_until, open_row.is_some() as u64, open_row.unwrap_or(0)]);
        h.words([bank.row_hits, bank.row_misses]);
    });
}

/// Folds a histogram's exact state (also the fuzz oracle's latency
/// digest).
fn hash_hist(h: &mut Fnv, hist: &Hist) {
    let (count, sum, min, max, buckets) = hist.raw_parts();
    h.words([count, sum, min, max]);
    h.words(buckets.iter().copied());
}

pub(crate) fn hash_device(h: &mut Fnv, d: &DeviceView<'_>) {
    hash_seq(h, d.xbar_rqst.iter(), |h, q| hash_queue(h, q, hash_request));
    hash_seq(h, d.xbar_rsp.iter(), |h, q| hash_queue(h, q, hash_response));
    hash_seq(h, d.vaults_with_banks(), hash_vault);
    h.word(d.mem.content_digest());
    let regs = d.regs.entries();
    hash_seq(h, regs, |h, (id, value)| h.words([id as u64, value]));
    h.words(d.stats.counters().map(|(_, v)| v));
    hash_hist(h, &d.stats.latency);
    for (_, hist) in d.stats.class_latency.iter() {
        hash_hist(h, hist);
    }
    // The constant power coefficients are hashed as when snapshots
    // carried them, so every fingerprint stands.
    h.words([LINK_FLIT_PJ, DRAM_ACCESS_PJ, LOGIC_OP_PJ, IDLE_CYCLE_PJ, CLOCK_HZ].map(f64::to_bits));
    h.words(d.power.counters().map(|(_, v)| v));
    h.word(d.fault_rng.raw_state());
    hash_seq(h, d.link_up.iter(), |h, &up| h.word(up as u64));
    h.word(d.fault_idx as u64);
}

fn hash_link(h: &mut Fnv, l: &LinkControl) {
    let c = l.config();
    h.words([c.tokens.is_some() as u64, c.tokens.unwrap_or(0) as u64]);
    let period = l.error_period();
    h.words([period.is_some() as u64, period.unwrap_or(0), c.retry_latency]);
    // `packets_sent` stands where the error phase's own counter did
    // (always equal to it), so every fingerprint stands.
    h.words([l.tokens_available() as u64, l.stats.packets_sent, l.seq() as u64]);
    h.words(l.stats.counters().map(|(_, v)| v));
}

impl StateView<'_> {
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        let h = &mut h;
        h.word(self.cycle);
        hash_seq(h, self.devices.iter(), hash_device);
        for queue in self.host_rx.iter().flatten() {
            hash_seq(h, queue.iter(), |h, r| hash_response(h, r));
        }
        for pool in self.tag_pools.iter().flatten() {
            h.word(pool.capacity() as u64);
            hash_seq(h, pool.free_tags(), |h, t| h.word(t.value() as u64));
        }
        for set in self.pool_tags.iter().flatten() {
            hash_seq(h, set.iter(), |h, t| h.word(t.value() as u64));
        }
        for set in self.zombie_tags {
            let mut pairs: Vec<(usize, u16)> = set.iter().copied().collect();
            pairs.sort_unstable();
            hash_seq(h, pairs.into_iter(), |h, (link, tag)| h.words([link as u64, tag as u64]));
        }
        hash_seq(h, self.in_transit.iter(), |h, t| match t {
            Transit::Rqst { from_dev, to_dev, link, item, ready } => {
                h.words([0, *from_dev as u64, *to_dev as u64, *link as u64, *ready]);
                hash_request(h, item);
            }
            Transit::Rsp { from_dev, to_dev, link, item, ready } => {
                h.words([1, *from_dev as u64, *to_dev as u64, *link as u64, *ready]);
                hash_response(h, item);
            }
        });
        hash_seq(h, self.retry_pending.iter(), |h, e| {
            h.words([e.dev as u64, e.link as u64, e.ready]);
            hash_request(h, &e.item);
        });
        for link in self.links.iter().flatten() {
            hash_link(h, link);
        }
        h.finish()
    }
}

/// Compact end-of-run digest used as the differential-fuzzing oracle:
/// the observable end-of-run state (cycle, deep state fingerprint,
/// stats counters, latency histograms). Two runs of the same scenario
/// under different engine configurations must produce equal digests.
///
/// Fields are kept separate (rather than folded into one hash) so the
/// fuzzer can classify *which* observable diverged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleDigest {
    /// Simulation cycle at digest time.
    pub cycle: u64,
    /// Deep state fingerprint ([`HmcSim::state_fingerprint`]): queues,
    /// banks, memory digest, RNG state, registers.
    pub fingerprint: u64,
    /// FNV-1a hash over every [`crate::DeviceStats`] counter of every device,
    /// in device order.
    pub stats: u64,
    /// Hash over the overall and per-class latency histograms of every
    /// device.
    pub latency: u64,
}

impl HmcSim {
    /// Computes the differential-fuzzing oracle digest of the current
    /// state. See [`OracleDigest`].
    pub fn oracle_digest(&self) -> OracleDigest {
        let mut stats = Fnv::new();
        let mut latency = Fnv::new();
        for dev in 0..self.device_count() {
            let s = self.stats(dev).expect("device index in range");
            for (_, counter) in s.counters() {
                stats.u64(counter);
            }
            hash_hist(&mut latency, &s.latency);
            for (_, hist) in s.class_latency.iter() {
                hash_hist(&mut latency, hist);
            }
        }
        OracleDigest {
            cycle: self.cycle(),
            fingerprint: self.state_fingerprint(),
            stats: stats.finish(),
            latency: latency.finish(),
        }
    }
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
    /// Recent trace events leading up to the violation, oldest first:
    /// the forensic ring the sanitizer attaches to the tracer (the last
    /// [`crate::trace::TRACE_RING`] events), rendered
    /// by [`crate::Tracer::ring_lines`].
    pub trace: Vec<String>,
    /// Cycle of the last periodic checkpoint, when one exists — the
    /// replay window is `checkpoint_cycle ..= cycle`.
    pub checkpoint_cycle: Option<u64>,
    /// Telemetry registry at violation time (`None` when telemetry is
    /// disabled).
    pub telemetry: Option<TelemetryReport>,
    /// Flight-recorder timeline at violation time (`None` when no
    /// recorder is attached). Serialized as a top-level `traceEvents`
    /// array so the dump file opens directly in `ui.perfetto.dev`.
    pub flight: Option<FlightSnapshot>,
}

impl ForensicDump {
    /// Serializes the dump as a JSON object. Its `snapshot` member is
    /// the lossless [`SimSnapshot::to_json_value`] form — resident
    /// memory pages included, so a dump can run to megabytes — which
    /// [`SimSnapshot::from_json_value`] loads back for a replay from
    /// the file alone.
    pub fn to_json(&self) -> String {
        // Top-level traceEvents: trace viewers accept extra keys, so
        // the forensic dump itself is a loadable Perfetto trace.
        let events = self.flight.as_ref().map_or(Json::Arr(Vec::new()), |f| {
            crate::perfetto::trace_events(f, &crate::perfetto::PerfettoOptions::default())
        });
        obj([
            ("cycle", self.cycle.into()),
            ("checkpoint_cycle", self.checkpoint_cycle.into()),
            ("violations", Json::list(&self.violations, crate::snapjson::violation_json)),
            ("trace", Json::list(&self.trace, |line| line.as_str().into())),
            ("telemetry", self.telemetry.as_ref().map(TelemetryReport::to_json).into()),
            ("traceEvents", events),
            ("snapshot", self.snapshot.to_json_value()),
        ])
        .render()
    }

    /// Writes the JSON dump to `path`, creating parent directories.
    /// The write is atomic (tmp → fsync → rename → directory fsync, via
    /// [`crate::ckpt::atomic_write`]) — a crash mid-dump never leaves a
    /// torn forensic file — and every error names the offending path.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        crate::ckpt::atomic_write(path, self.to_json().as_bytes())
    }
}

/// `Ok` when the snapshot's `what` holds `len` entries where the context
/// holds `want`; otherwise the error naming it.
pub(crate) fn fits(what: std::fmt::Arguments<'_>, len: usize, want: usize) -> Result<(), HmcError> {
    if len == want {
        return Ok(());
    }
    Err(HmcError::MalformedPacket(format!("snapshot {what} has {len} entries, the context {want}")))
}

/// `Ok` when the snapshot's leaf at `path` holds what the context's
/// configuration fixes there; otherwise the error naming it.
fn fixed<T: PartialEq + std::fmt::Debug>(
    path: std::fmt::Arguments<'_>,
    got: T,
    want: T,
) -> Result<(), HmcError> {
    if got == want {
        return Ok(());
    }
    Err(HmcError::MalformedPacket(format!(
        "snapshot `{path}` is {got:?}; the configuration fixes {want:?}"
    )))
}

/// `Ok` when every part of `snap` that belongs to device `d` has what
/// `shape` fixes: one entry per link in each per-link array, one per
/// vault, each vault's banks, every queue depth, the memory capacity
/// and each link's configuration.
fn fits_shape(d: usize, shape: &DeviceShape, snap: &SimSnapshot) -> Result<(), HmcError> {
    let s = &snap.devices[d];
    let per_link = [
        ("host_rx", snap.host_rx[d].len()),
        ("tag_pools", snap.tag_pools[d].len()),
        ("pool_tags", snap.pool_tags[d].len()),
        ("links", snap.links[d].len()),
        ("xbar_rqst", s.xbar_rqst.len()),
        ("xbar_rsp", s.xbar_rsp.len()),
        ("link_up", s.link_up.len()),
    ];
    for (what, len) in per_link {
        fits(format_args!("`{what}` of device {d}"), len, shape.links)?;
    }
    fits(format_args!("`vaults` of device {d}"), s.vaults.len(), shape.vaults)?;
    for (v, &held) in s.vault_banks.iter().enumerate() {
        fits(format_args!("`banks` of device {d} vault {v}"), held, shape.banks_per_vault)?;
    }
    // Every array indexed below holds what `shape` fixes, checked above.
    for l in 0..shape.links {
        let depth = shape.xbar_queue_depth;
        fixed(format_args!("devices/{d}/xbar_rqst/{l}/depth"), s.xbar_rqst[l].depth(), depth)?;
        fixed(format_args!("devices/{d}/xbar_rsp/{l}/depth"), s.xbar_rsp[l].depth(), depth)?;
        let (got, want) = (snap.links[d][l].config(), shape.link);
        fixed(format_args!("links/{d}/{l}/tokens"), got.tokens, want.tokens)?;
        let period = snap.links[d][l].error_period();
        fixed(format_args!("links/{d}/{l}/error_period"), period, shape.error_period)?;
        fixed(format_args!("links/{d}/{l}/retry_latency"), got.retry_latency, want.retry_latency)?;
    }
    for (v, vault) in s.vaults.iter().enumerate() {
        let depth = shape.vault_queue_depth;
        fixed(format_args!("devices/{d}/vaults/{v}/rqst/depth"), vault.rqst.depth(), depth)?;
        fixed(format_args!("devices/{d}/vaults/{v}/rsp/depth"), vault.rsp.depth(), depth)?;
    }
    fixed(format_args!("devices/{d}/mem/capacity"), s.mem.capacity(), shape.capacity)
}

impl HmcSim {
    /// Captures all dynamic state, pairing it with the given sanitizer
    /// shadow (the public [`HmcSim::snapshot`] passes the live shadow;
    /// the sanitizer passes its pre-acknowledgement copy).
    pub(crate) fn snapshot_with_shadow(&self, shadow: Option<SanitizerShadow>) -> SimSnapshot {
        SimSnapshot {
            config: Some(self.config.clone()),
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
            in_transit: self.transit_queues.iter().flat_map(|q| q.sorted()).cloned().collect(),
            links: self.links.clone(),
            retry_pending: self.retry_pending.sorted().into_iter().cloned().collect(),
            zombie_tags: self.zombie_tags.clone(),
            shadow,
            flight: self.tracer.flight_snapshot(),
        }
    }

    /// Captures a checkpoint of all dynamic simulation state. Restore
    /// it with [`HmcSim::restore`] to replay deterministically from
    /// this point. Memory pages are shared with the live store, not
    /// copied: each side copies a page when it first writes it.
    pub fn snapshot(&self) -> SimSnapshot {
        self.snapshot_with_shadow(self.sanitizer.as_ref().map(|s| s.shadow.clone()))
    }

    /// Builds the context `snap` was taken from and restores it:
    /// [`HmcSim::with_config`] on the snapshot's configuration, its
    /// skip mode and timing backend pinned over any `HMCSIM_SKIP` /
    /// `HMCSIM_TIMING` upgrade, each device's CMC libraries loaded
    /// again in order, and a flight recorder of the recorded capacity
    /// attached when the snapshot carries a timeline.
    ///
    /// Typed errors: a snapshot that names no configuration (schema 1
    /// or 2: restore those into a context built by hand), a device
    /// whose timing section names another backend than the
    /// configuration's, a library this process cannot load, a device
    /// whose libraries do not yield the recorded CMC codes (an
    /// operation added with [`HmcSim::load_cmc`] or removed with
    /// [`HmcSim::unload_cmc`]), and everything [`HmcSim::restore`]
    /// refuses.
    pub fn from_snapshot(snap: &SimSnapshot) -> Result<HmcSim, HmcError> {
        let config = snap.config.clone().ok_or_else(|| {
            HmcError::MalformedPacket(
                "snapshot names no configuration (schema 1 and 2 restore into a context \
                 built by hand)"
                    .into(),
            )
        })?;
        let (skip, timing) = (config.skip_mode, config.timing);
        let mut sim = HmcSim::with_config(config)?;
        sim.set_skip_mode(skip);
        sim.set_timing_model(timing);
        fits(format_args!("`devices`"), snap.devices.len(), sim.devices.len())?;
        for (dev, s) in snap.devices.iter().enumerate() {
            fixed(format_args!("devices/{dev}/timing/select"), s.timing.select, timing)?;
            for library in &s.cmc_libraries {
                sim.load_cmc_library(dev, library)?;
            }
            let codes = sim.devices[dev].cmc_codes();
            if codes != s.cmc_codes {
                return Err(HmcError::MalformedPacket(format!(
                    "snapshot device {dev} records CMC codes {:?}, its libraries load {codes:?}",
                    s.cmc_codes
                )));
            }
        }
        if let Some(flight) = &snap.flight {
            sim.enable_flight_recorder(flight.capacity);
        }
        sim.restore(snap)?;
        Ok(sim)
    }

    /// Restores all dynamic state from a snapshot taken on a context
    /// of the same configuration. The static parts — configuration,
    /// CMC registrations, the tracer and the sanitizer policy — are
    /// kept from the live context. Returns
    /// [`HmcError::MalformedPacket`] when the snapshot does not fit the
    /// context — a per-device, per-link or per-vault array of another
    /// length, or a queue depth, memory capacity or link configuration
    /// other than the configuration fixes (see `fits_shape`), each
    /// named — when it holds a packet this context cannot route, or a
    /// transit between devices no edge joins; the context is then
    /// unchanged.
    pub fn restore(&mut self, snap: &SimSnapshot) -> Result<(), HmcError> {
        let devices = &self.devices;
        let per_device = [
            ("devices", snap.devices.len()),
            ("host_rx", snap.host_rx.len()),
            ("tag_pools", snap.tag_pools.len()),
            ("pool_tags", snap.pool_tags.len()),
            ("links", snap.links.len()),
            ("zombie_tags", snap.zombie_tags.len()),
        ];
        for (what, len) in per_device {
            fits(format_args!("`{what}`"), len, devices.len())?;
        }
        for (d, dev) in devices.iter().enumerate() {
            fits_shape(d, &dev.config().shape(), snap)?;
        }
        self.check_routes(snap)?;
        // Rebuild the per-edge transit heaps from the snapshot's flat
        // form; the renumbered insertion sequence preserves the
        // recorded per-edge order. Pre-fabric snapshots carry no
        // sender (`from_dev == usize::MAX`) — those packets are
        // re-homed onto the lowest-numbered in-edge of their target,
        // which is deterministic and, on a chain, the legacy hop. Any
        // other sender must name an edge into the target.
        let mut per_edge: Vec<Vec<Transit>> = vec![Vec::new(); self.topology.edge_count()];
        for (i, t) in snap.in_transit.iter().enumerate() {
            let (from, to) = t.edge();
            let edge = match from {
                usize::MAX => self.topology.edges().iter().position(|&(_, e)| e as usize == to),
                _ => self.topology.edge_id(from, to),
            };
            let Some(edge) = edge else {
                let from = match from {
                    usize::MAX => "an unrecorded sender".to_string(),
                    _ => format!("device {from}"),
                };
                return Err(HmcError::MalformedPacket(format!(
                    "snapshot `in_transit/{i}` runs from {from} to device {to}, which no edge \
                     of this topology joins"
                )));
            };
            let mut t = t.clone();
            t.set_from_dev(self.topology.edges()[edge].0 as usize);
            per_edge[edge].push(t);
        }
        self.cycle = snap.cycle;
        for (dev, s) in self.devices.iter_mut().zip(&snap.devices) {
            dev.restore_state(s);
        }
        self.host_rx = snap.host_rx.clone();
        self.tag_pools = snap.tag_pools.clone();
        self.pool_tags = snap.pool_tags.clone();
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
        self.config.timing = self.timing_select();
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

    /// `Ok` when this context can carry every packet `snap` holds: a
    /// request must reach its cube from the device holding it, and
    /// every packet's answer must reach its entry device, over a link
    /// that device has. What `admit` checks of a sent packet, checked
    /// of a restored one: together they keep the routing `expect`s of
    /// the clock from firing.
    fn check_routes(&self, snap: &SimSnapshot) -> Result<(), HmcError> {
        let request = |what: &str, holder: usize, t: &TrackedRequest| {
            let cub = t.req.head.cub.value() as usize;
            self.check_route(what, holder, Some(cub), (t.entry_device, t.entry_link))
        };
        let response = |what: &str, holder: usize, t: &TrackedResponse| {
            self.check_route(what, holder, None, (t.entry_device, t.entry_link))
        };
        for (d, s) in snap.devices.iter().enumerate() {
            for t in s.xbar_rqst.iter().flat_map(BoundedQueue::iter) {
                request("xbar_rqst", d, t)?;
            }
            for t in s.xbar_rsp.iter().flat_map(BoundedQueue::iter) {
                response("xbar_rsp", d, t)?;
            }
            for v in &s.vaults {
                v.rqst.iter().try_for_each(|t| request("vaults", d, t))?;
                v.rsp.iter().try_for_each(|t| response("vaults", d, t))?;
            }
        }
        for (d, queues) in snap.host_rx.iter().enumerate() {
            queues.iter().flatten().try_for_each(|t| response("host_rx", d, t))?;
        }
        for t in &snap.in_transit {
            match t {
                Transit::Rqst { to_dev, item, .. } => request("in_transit", *to_dev, item)?,
                Transit::Rsp { to_dev, item, .. } => response("in_transit", *to_dev, item)?,
            }
        }
        for e in &snap.retry_pending {
            request("retry_pending", e.dev, &e.item)?;
            if e.link >= self.devices[e.dev].config().links {
                return Err(HmcError::MalformedPacket(format!(
                    "snapshot `retry_pending` holds a packet for link {} of device {}, which \
                     lacks it",
                    e.link, e.dev
                )));
            }
        }
        Ok(())
    }

    /// [`HmcSim::check_routes`] for one packet held by `holder`: a
    /// request for cube `target` (`None` for a response, which is at
    /// its target already) whose answer returns to `(device, link)`.
    fn check_route(
        &self,
        what: &str,
        holder: usize,
        target: Option<usize>,
        (entry_device, entry_link): (usize, usize),
    ) -> Result<(), HmcError> {
        let refuse = |why: String| {
            Err(HmcError::MalformedPacket(format!(
                "snapshot `{what}` of device {holder} holds a packet {why}"
            )))
        };
        let from = match target {
            Some(cub) if self.topology.next_hop(holder, cub).is_none() => {
                return refuse(format!("for cube {cub}, which device {holder} cannot route to"))
            }
            Some(cub) => cub,
            None => holder,
        };
        let links = match self.topology.next_hop(from, entry_device) {
            Some(_) => self.devices[entry_device].config().links,
            None => 0,
        };
        if entry_link >= links {
            return refuse(format!(
                "answering to device {entry_device} link {entry_link}, which device {from} \
                 cannot reach"
            ));
        }
        Ok(())
    }

    /// Deterministic deep fingerprint of all dynamic state: the walk of
    /// [`SimSnapshot::fingerprint`] over the live context, borrowing
    /// it (nothing is cloned). Intended for replay-equality
    /// assertions, not per-cycle use — it visits every queue and
    /// resident memory page.
    pub fn state_fingerprint(&self) -> u64 {
        StateView {
            cycle: self.cycle,
            devices: self.devices.iter().map(Device::state_view).collect(),
            host_rx: &self.host_rx,
            tag_pools: &self.tag_pools,
            pool_tags: &self.pool_tags,
            // The per-edge heaps in commit (edge-id) order, each in
            // `(ready, insertion)` order: the snapshot's flat form.
            in_transit: self.transit_queues.iter().flat_map(|q| q.sorted()).collect(),
            links: &self.links,
            retry_pending: self.retry_pending.sorted(),
            zombie_tags: &self.zombie_tags,
        }
        .fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceConfig;

    #[test]
    fn oracle_digest_distinguishes_axes() {
        let mut a = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let mut b = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        assert_eq!(a.oracle_digest(), b.oracle_digest());
        // Advance only `a`: cycle and fingerprint move, stats do not.
        a.clock();
        let da = a.oracle_digest();
        let db = b.oracle_digest();
        assert_ne!(da.cycle, db.cycle);
        assert_eq!(da.stats, db.stats, "idle cycle leaves counters untouched");
        // Traffic moves stats and latency.
        let tag = a
            .send_simple(0, 0, hmc_types::HmcRqst::Rd16, 0x100, vec![])
            .unwrap()
            .unwrap();
        let _ = a.run_until_response(0, 0, tag, 100).unwrap();
        b.clock_n(a.cycle() - b.cycle());
        let da = a.oracle_digest();
        let db = b.oracle_digest();
        assert_eq!(da.cycle, db.cycle);
        assert_ne!(da.stats, db.stats);
        assert_ne!(da.latency, db.latency);
        assert_ne!(da.fingerprint, db.fingerprint);
    }
}
