//! The simulation context — the `hmc_sim_t` equivalent.
//!
//! [`HmcSim`] owns the devices, the global cycle counter, the host
//! receive buffers, per-link tag pools and the tracer, and exposes the
//! HMC-Sim user API: `send`, `recv`, `clock`, `load_cmc`, the JTAG
//! register access path and statistics.

use crate::config::{DeviceConfig, ExecMode, LinkTopology, SimConfig, SkipMode};
use crate::device::{
    Device, Egress, EnvelopePool, RouteOutcome, RqstEnvelope, RspEnvelope, TrackedRequest,
    TrackedResponse,
};
use crate::events::EventHeap;
use crate::fault::LinkErrorMode;
use crate::link::{LinkConfig, LinkControl, LinkStats, SendGrant};
use crate::power::PowerReport;
use crate::regs::{REG_GRLL, REG_LRLL};
use crate::stats::DeviceStats;
use crate::timing::{TimingSelect, TimingStats};
use crate::topology::Topology;
use crate::trace::{FlightRecorder, FlightSnapshot, TraceKind, TraceLevel, TraceRecord, Tracer};
use hmc_cmc::{CmcOp, CmcRegistration};
use hmc_types::{
    Cub, Flit, HmcError, HmcRqst, PayloadSource, Request, Response, Tag, TagPool, TagSet,
};
use std::cell::Cell;
use std::collections::{HashSet, VecDeque};

/// A packet crossing a fabric edge between devices.
#[derive(Debug, Clone)]
pub(crate) enum Transit {
    Rqst { from_dev: usize, to_dev: usize, link: usize, item: RqstEnvelope, ready: u64 },
    Rsp { from_dev: usize, to_dev: usize, link: usize, item: RspEnvelope, ready: u64 },
}

impl Transit {
    /// The cycle this transit's hop latency elapses.
    pub(crate) fn ready(&self) -> u64 {
        match self {
            Transit::Rqst { ready, .. } | Transit::Rsp { ready, .. } => *ready,
        }
    }

    /// The directed fabric edge this transit travels.
    pub(crate) fn edge(&self) -> (usize, usize) {
        match self {
            Transit::Rqst { from_dev, to_dev, .. } | Transit::Rsp { from_dev, to_dev, .. } => {
                (*from_dev, *to_dev)
            }
        }
    }

    /// Rewrites the sender (used when restoring pre-fabric snapshots
    /// whose transits carried no sender).
    pub(crate) fn set_from_dev(&mut self, dev: usize) {
        match self {
            Transit::Rqst { from_dev, .. } | Transit::Rsp { from_dev, .. } => *from_dev = dev,
        }
    }
}

/// A packet held in the link-layer retry buffer after an injected
/// transmission error.
#[derive(Debug, Clone)]
pub(crate) struct RetryEntry {
    pub(crate) dev: usize,
    pub(crate) link: usize,
    pub(crate) item: RqstEnvelope,
    pub(crate) ready: u64,
}

/// Buffers `clock_full` refills every cycle, kept between cycles so
/// the steady-state cycle allocates nothing. Always empty at a cycle
/// boundary; not simulation state.
#[derive(Debug, Default)]
struct CycleScratch {
    /// One device's stage-2 egress.
    egress: Vec<Egress>,
    /// One device's stage-4 routing outcome.
    route: RouteOutcome,
}

/// The HMC-Sim simulation context.
#[derive(Debug)]
pub struct HmcSim {
    /// The live configuration: what [`HmcSim::with_config`] was given,
    /// with the skip mode and timing backend the environment resolved,
    /// kept current by the setters that change what it describes.
    pub(crate) config: SimConfig,
    pub(crate) devices: Vec<Device>,
    pub(crate) cycle: u64,
    pub(crate) host_rx: Vec<Vec<VecDeque<RspEnvelope>>>,
    pub(crate) tag_pools: Vec<Vec<TagPool>>,
    /// Tags `send_pooled` handed out per entry link, released back
    /// to [`HmcSim::tag_pools`] automatically at `recv`.
    pub(crate) pool_tags: Vec<Vec<TagSet>>,
    /// The fabric wiring: routing tables and the directed edge list.
    pub(crate) topology: Topology,
    /// Inter-device transits, one queue per directed fabric edge (in
    /// [`Topology::edges`] order), each ordered by `(ready cycle,
    /// insertion)`. Committing edges in list order gives cross-device
    /// delivery a total order independent of execution mode, and the
    /// event-horizon engine reads each queue's earliest due cycle in
    /// O(1).
    pub(crate) transit_queues: Vec<EventHeap<Transit>>,
    pub(crate) links: Vec<Vec<LinkControl>>,
    /// Link-layer retry replays, ordered like [`HmcSim::in_transit`].
    pub(crate) retry_pending: EventHeap<RetryEntry>,
    /// Tags the host abandoned (timeout reclamation), keyed per
    /// device by `(entry_link, tag)`. The tag returns to its pool
    /// only when the stale response finally arrives, so a reused tag
    /// can never match a zombie response.
    pub(crate) zombie_tags: Vec<HashSet<(usize, u16)>>,
    pub(crate) tracer: Tracer,
    /// Attached sanitizer (`None` = zero overhead beyond this check).
    pub(crate) sanitizer: Option<Box<crate::sanitizer::Sanitizer>>,
    /// Attached telemetry (`None` = off, the default: zero overhead
    /// beyond this check, and no telemetry state exists to perturb
    /// snapshots or fingerprints).
    pub(crate) telemetry: Option<Box<crate::telemetry::Telemetry>>,
    /// Whether `clock()` may compress provably-idle cycle runs.
    pub(crate) skip_mode: SkipMode,
    /// Per-cube cache for the skip engine's device-queue scan: `true`
    /// means that device's queues *may* hold packets and must be
    /// re-scanned before skipping. Set on injection into the device
    /// and on every full clock where the device ends with pending
    /// work; cleared when a scan proves its queues empty. A fully
    /// idle cube therefore contributes O(1) to the global horizon —
    /// idle-skip jumps never rescan quiet devices. Not simulation
    /// state — not snapshotted, never observable in results — so
    /// [`HmcSim::next_event_cycle`] refreshes it through a shared
    /// reference.
    dev_maybe_busy: Vec<Cell<bool>>,
    /// Free lists of retired packet envelopes, lent to the device
    /// stages the way the tracer is. Grown lazily (construction
    /// allocates nothing for them). Not simulation state.
    envelopes: EnvelopePool,
    scratch: CycleScratch,
}

impl HmcSim {
    /// Creates a single-device context.
    pub fn new(device: DeviceConfig) -> Result<Self, HmcError> {
        Self::with_config(SimConfig::single(device))
    }

    /// Creates a context from a full simulation configuration.
    pub fn with_config(config: SimConfig) -> Result<Self, HmcError> {
        config.validate()?;
        let topology = Topology::new(config.topology, config.devices.len())?;
        let timing = config.timing.resolve_env()?;
        let devices = config
            .devices
            .iter()
            .enumerate()
            .map(|(i, c)| Device::with_timing(i, c.clone(), timing))
            .collect::<Result<Vec<_>, _>>()?;
        let host_rx = config
            .devices
            .iter()
            .map(|c| (0..c.links).map(|_| VecDeque::new()).collect())
            .collect();
        let tag_pools = config
            .devices
            .iter()
            .map(|c| (0..c.links).map(|_| TagPool::full()).collect())
            .collect();
        let pool_tags = config
            .devices
            .iter()
            .map(|c| (0..c.links).map(|_| TagSet::new()).collect())
            .collect();
        let links = config
            .devices
            .iter()
            .map(|c| {
                // The fault plan's deterministic mode absorbs the
                // legacy `error_period` knob: an explicit EveryNth
                // plan overrides the link configuration.
                let link_config = match c.fault.link_error {
                    LinkErrorMode::EveryNth(n) => {
                        LinkConfig { error_period: Some(n), ..c.link_config }
                    }
                    _ => c.link_config,
                };
                (0..c.links).map(|_| LinkControl::new(link_config)).collect()
            })
            .collect();
        let zombie_tags = config.devices.iter().map(|_| HashSet::new()).collect();
        let skip_mode = config.skip_mode.resolve_env()?;
        let n = devices.len();
        let transit_queues = (0..topology.edge_count()).map(|_| EventHeap::new()).collect();
        let mut sim = HmcSim {
            config: SimConfig { skip_mode, timing, ..config },
            devices,
            cycle: 0,
            host_rx,
            tag_pools,
            pool_tags,
            topology,
            transit_queues,
            links,
            retry_pending: EventHeap::new(),
            zombie_tags,
            tracer: Tracer::disabled(),
            sanitizer: None,
            telemetry: None,
            skip_mode,
            dev_maybe_busy: vec![Cell::new(true); n],
            envelopes: EnvelopePool::default(),
            scratch: CycleScratch::default(),
        };
        if sim.config.sanitizer.enabled {
            sim.enable_sanitizer(sim.config.sanitizer.clone());
        }
        if sim.config.telemetry.enabled {
            sim.enable_telemetry(sim.config.telemetry.clone());
        }
        Ok(sim)
    }

    /// The live configuration (see [`SimConfig::to_json`] for what a
    /// snapshot records of it).
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of devices in the context.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// A device's configuration.
    pub fn device_config(&self, dev: usize) -> Result<&DeviceConfig, HmcError> {
        Ok(self.device(dev)?.config())
    }

    fn device(&self, dev: usize) -> Result<&Device, HmcError> {
        self.devices.get(dev).ok_or(HmcError::InvalidDevice(dev))
    }

    fn device_mut(&mut self, dev: usize) -> Result<&mut Device, HmcError> {
        self.devices.get_mut(dev).ok_or(HmcError::InvalidDevice(dev))
    }

    /// Attaches a tracer. An active sanitizer's forensic trace ring,
    /// an attached flight recorder and the interned-name table all
    /// carry over to the new tracer, so swapping the text sink never
    /// truncates the structured observation stream. The sanitizer's
    /// ring outranks one the new tracer brings.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        let mut old = std::mem::replace(&mut self.tracer, tracer);
        let sanitizer_ring = self.sanitizer.as_ref().is_some_and(|s| s.config.trace_ring > 0);
        self.tracer.adopt_stream(&mut old, sanitizer_ring);
    }

    /// Enables the flight recorder: a fixed-capacity, per-lane ring of
    /// structured [`TraceRecord`]s that captures every packet
    /// lifecycle edge and engine span regardless of the trace level;
    /// [`HmcSim::flight_snapshot`] reads it. Zero observable
    /// perturbation: the recorder never changes `state_fingerprint()`.
    pub fn enable_flight_recorder(&mut self, per_lane_capacity: usize) {
        self.tracer.attach_flight(FlightRecorder::new(per_lane_capacity));
    }

    /// Detaches the flight recorder, if any.
    pub fn disable_flight_recorder(&mut self) {
        self.tracer.detach_flight();
    }

    /// A point-in-time copy of the flight recorder's timeline, or
    /// `None` when no recorder is attached.
    pub fn flight_snapshot(&self) -> Option<FlightSnapshot> {
        self.tracer.flight_snapshot()
    }

    /// Adjusts the trace level of the attached tracer.
    pub fn set_trace_level(&mut self, level: TraceLevel) {
        self.tracer.set_level(level);
    }

    /// The [`ExecMode`] this context was configured with. It is
    /// recorded and never read by the engine: every cycle runs the one
    /// sequential stage 3. ROADMAP item 4 removes it together with the
    /// `sim.parallel.t2_speedup` metric.
    pub fn exec_mode(&self) -> ExecMode {
        self.config.exec_mode
    }

    /// The effective skip mode (after environment resolution).
    pub fn skip_mode(&self) -> SkipMode {
        self.skip_mode
    }

    /// Switches idle-cycle skipping. Takes effect on the next
    /// `clock()`; both settings produce bit-identical simulation
    /// state, so switching mid-run is safe.
    pub fn set_skip_mode(&mut self, mode: SkipMode) {
        self.skip_mode = mode;
        self.config.skip_mode = mode;
        self.mark_fabric_busy();
    }

    /// The effective bank-timing backend (after environment
    /// resolution; uniform across devices unless set per device).
    pub fn timing_select(&self) -> TimingSelect {
        self.devices.first().map(|d| d.timing_select()).unwrap_or_default()
    }

    /// A device's timing-backend observation counters (latency-class
    /// histograms; divergence record under
    /// [`TimingSelect::Validated`]).
    pub fn timing_stats(&self, dev: usize) -> Result<&TimingStats, HmcError> {
        Ok(self.device(dev)?.timing_stats())
    }

    /// Switches every device's bank-timing backend, resetting the
    /// backends' observation counters (bank state proper, and thus the
    /// state fingerprint, is untouched). Takes effect on the next
    /// `clock()`.
    pub fn set_timing_model(&mut self, select: TimingSelect) {
        for dev in &mut self.devices {
            dev.set_timing_model(select);
        }
        self.config.timing = select;
        self.mark_fabric_busy();
    }

    /// Invalidates every device's skip-engine cache (state was
    /// mutated outside the clock, e.g. a snapshot restore).
    pub(crate) fn mark_fabric_busy(&mut self) {
        self.dev_maybe_busy.fill(Cell::new(true));
    }

    /// Invalidates one device's skip-engine cache (a packet entered
    /// that device's queues outside the full clock).
    fn mark_device_busy(&mut self, dev: usize) {
        self.dev_maybe_busy[dev].set(true);
    }

    /// The fabric's routing tables and edge list.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    // ------------------------------------------------------------------
    // packet API
    // ------------------------------------------------------------------

    /// Injects a raw request on a device link (`hmc_send_packet`).
    /// Returns [`HmcError::Stall`] when the link's crossbar queue is
    /// full — retry next cycle.
    pub fn send(&mut self, dev: usize, link: usize, req: Request) -> Result<(), HmcError> {
        let grant = self.admit(dev, link, &req)?;
        // The packet's one by-value move: into its envelope.
        let mut item = self.envelopes.request();
        item.req = req;
        self.launch(dev, link, item, grant)
    }

    /// Every check between a request and the link, in the order the
    /// host API has always reported them, ending with the link layer's
    /// grant. A refusal moves nothing but the stall counters.
    fn admit(&mut self, dev: usize, link: usize, req: &Request) -> Result<SendGrant, HmcError> {
        if req.head.cub.value() as usize >= self.devices.len() {
            return Err(HmcError::InvalidCube(req.head.cub.value()));
        }
        if matches!(self.config.topology, LinkTopology::HostOnly)
            && req.head.cub.value() as usize != dev
        {
            return Err(HmcError::InvalidCube(req.head.cub.value()));
        }
        if dev >= self.devices.len() {
            return Err(HmcError::InvalidDevice(dev));
        }
        if link >= self.devices[dev].config().links {
            return Err(HmcError::InvalidLink(link));
        }
        if !self.devices[dev].link_is_up(link) {
            return Err(HmcError::LinkDown(link));
        }
        // Link layer first: the crossbar input buffer must have room
        // and the transmitter must hold enough tokens.
        if !self.devices[dev].link_can_accept(link) {
            self.devices[dev].count_send_stall();
            return Err(HmcError::Stall);
        }
        self.links[dev][link].send(req.flits() as u32).map_err(|()| {
            self.devices[dev].count_send_stall();
            HmcError::Stall
        })
    }

    /// Sends an admitted packet on its way: `item.req` is the packet —
    /// already written where it will travel, every later hop moves the
    /// pointer — and the rest of the (possibly recycled) envelope is
    /// overwritten here.
    fn launch(
        &mut self,
        dev: usize,
        link: usize,
        mut item: RqstEnvelope,
        grant: SendGrant,
    ) -> Result<(), HmcError> {
        let cycle = self.cycle;
        let TrackedRequest {
            req,
            entry_device,
            entry_link,
            issue_cycle,
            hops,
            ready_cycle,
            vault_enq_cycle,
        } = &mut *item;
        *entry_device = dev;
        *entry_link = link;
        *issue_cycle = cycle;
        *hops = 0;
        *ready_cycle = 0;
        *vault_enq_cycle = 0;
        // The link layer owns the SEQ sequence: stamp the granted value
        // into the packet tail. A retry replays this packet with the
        // SEQ intact — the retry path never consumes a fresh sequence
        // number.
        req.tail.seq = grant.seq;
        let flits = req.flits() as u32;
        // Shadow-accounting inputs, captured before the packet moves
        // (only consulted when a sanitizer is attached).
        let tag = req.head.tag;
        let tracked = self.sanitizer.is_some() && request_expects_response(&self.devices, req);
        let result = if grant.errored {
            // Injected transmission error: the packet sits in the retry
            // buffer and replays after the retry exchange.
            let ready = cycle + self.links[dev][link].retry_latency();
            self.tracer.emit(TraceRecord {
                dev: dev as u16,
                link: link as u8,
                a: ready,
                ..TraceRecord::new(cycle, TraceKind::LinkRetry)
            });
            self.update_retry_regs(dev, link);
            self.retry_pending.push(ready, RetryEntry { dev, link, item, ready });
            Ok(())
        } else if let LinkErrorMode::Random { per_million } =
            self.devices[dev].config().fault.link_error
        {
            if self.devices[dev].fault_rng_mut().chance(per_million) {
                self.transmit_corrupted(dev, link, item)
            } else {
                self.inject(dev, link, item)
            }
        } else {
            self.inject(dev, link, item)
        };
        if result.is_ok() {
            self.tracer.emit(TraceRecord {
                dev: dev as u16,
                link: link as u8,
                tag: tag.value(),
                a: flits as u64,
                ..TraceRecord::new(cycle, TraceKind::HostSend)
            });
            // A packet entered this device: the skip engine must
            // re-scan its queues before compressing again.
            self.mark_device_busy(dev);
            if let Some(san) = self.sanitizer.as_deref_mut() {
                san.note_injected(dev, link, tag, tracked, cycle);
            }
        }
        result
    }

    /// Hands an accepted packet to the device's crossbar queue. The
    /// caller has checked the queue has room, so a rejection is not
    /// expected; if one happens the envelope is recycled, not leaked.
    fn inject(&mut self, dev: usize, link: usize, item: RqstEnvelope) -> Result<(), HmcError> {
        self.devices[dev].send(link, item).map_err(|(item, e)| {
            self.envelopes.rqst.give(item);
            e
        })
    }

    /// Models a random transmission error: one wire bit of the packet
    /// flips and the receive path verifies the CRC. A detected
    /// corruption keeps the original packet in the transmitter's
    /// retry buffer for replay after the retry exchange; in the
    /// (impossible-for-single-bit-flips) case CRC-32K misses, the
    /// corrupted packet is delivered as decoded.
    fn transmit_corrupted(
        &mut self,
        dev: usize,
        link: usize,
        item: RqstEnvelope,
    ) -> Result<(), HmcError> {
        let cycle = self.cycle;
        let mut flits = item.req.pack();
        let bits = (flits.len() * 128) as u64;
        let bit = self.devices[dev].fault_rng_mut().below(bits) as usize;
        flits[bit / 128].words[(bit / 64) % 2] ^= 1u64 << (bit % 64);
        match Request::unpack(&flits) {
            Err(e) => {
                self.links[dev][link].stats.crc_errors += 1;
                self.links[dev][link].stats.retries += 1;
                let ready = cycle + self.links[dev][link].retry_latency();
                if self.tracer.captures(TraceLevel::FAULT) {
                    // Interning the error text allocates; this path is
                    // already cold (an injected wire fault) and only
                    // pays when something observes the stream.
                    let name = self.tracer.intern(&format!("{e}"));
                    self.tracer.emit(TraceRecord {
                        dev: dev as u16,
                        link: link as u8,
                        a: bit as u64,
                        b: ready,
                        cmd: crate::trace::CmdRef::Name(name),
                        ..TraceRecord::new(cycle, TraceKind::LinkCrc)
                    });
                }
                self.update_retry_regs(dev, link);
                self.retry_pending.push(ready, RetryEntry { dev, link, item, ready });
                Ok(())
            }
            Ok(req) => {
                let mut item = item;
                item.req = req;
                self.inject(dev, link, item)
            }
        }
    }

    /// Surfaces link retry counters through the register file:
    /// `REG_LRLL` holds the retry count of the last erroring link,
    /// `REG_GRLL` the device-wide total.
    fn update_retry_regs(&mut self, dev: usize, link: usize) {
        let local = self.links[dev][link].stats.retries;
        let global: u64 = self.links[dev].iter().map(|l| l.stats.retries).sum();
        let regs = self.devices[dev].regs_mut();
        let _ = regs.write(REG_LRLL, local);
        let _ = regs.write(REG_GRLL, global);
    }

    /// Injects a raw FLIT stream on a device link — the receive-path
    /// ingress used by hosts that serialize packets themselves. The
    /// stream is decoded and its CRC-32K verified; corrupted packets
    /// are rejected with [`HmcError::CrcMismatch`] and counted in the
    /// link statistics.
    pub fn send_flits(&mut self, dev: usize, link: usize, flits: &[Flit]) -> Result<(), HmcError> {
        if dev >= self.devices.len() {
            return Err(HmcError::InvalidDevice(dev));
        }
        if link >= self.devices[dev].config().links {
            return Err(HmcError::InvalidLink(link));
        }
        match Request::unpack(flits) {
            Ok(req) => self.send(dev, link, req),
            Err(e) => {
                if matches!(e, HmcError::CrcMismatch { .. }) {
                    self.links[dev][link].stats.crc_errors += 1;
                }
                if self.tracer.captures(TraceLevel::FAULT) {
                    let name = self.tracer.intern(&format!("{e}"));
                    self.tracer.emit(TraceRecord {
                        dev: dev as u16,
                        link: link as u8,
                        cmd: crate::trace::CmdRef::Name(name),
                        ..TraceRecord::new(self.cycle, TraceKind::IngressCrc)
                    });
                }
                Err(e)
            }
        }
    }

    /// Link-layer protocol statistics for one link.
    pub fn link_stats(&self, dev: usize, link: usize) -> Result<LinkStats, HmcError> {
        self.links
            .get(dev)
            .and_then(|d| d.get(link))
            .map(|l| l.stats)
            .ok_or(HmcError::InvalidLink(link))
    }

    /// Pops the next delivered response on a host link
    /// (`hmc_recv_packet`).
    pub fn recv(&mut self, dev: usize, link: usize) -> Option<TrackedResponse> {
        let envelope = self.host_rx.get_mut(dev)?.get_mut(link)?.pop_front()?;
        // Failover may deliver on a different physical link than the
        // request entered on; the tag belongs to the entry link's pool.
        self.release_pool_tag(dev, envelope.entry_link, envelope.rsp.head.tag);
        Some(self.copy_out(envelope))
    }

    /// Pops the delivered response carrying `tag`, if present,
    /// leaving other responses queued.
    pub fn recv_tag(&mut self, dev: usize, link: usize, tag: Tag) -> Option<TrackedResponse> {
        let queue = self.host_rx.get_mut(dev)?.get_mut(link)?;
        let idx = queue.iter().position(|r| r.rsp.head.tag == tag)?;
        let envelope = queue.remove(idx)?;
        self.release_pool_tag(dev, envelope.entry_link, tag);
        Some(self.copy_out(envelope))
    }

    /// The one by-value move of a response: the host API hands
    /// responses out by value (callers own them for as long as they
    /// like), so the packet is copied out of its envelope here, built
    /// in the caller's return slot — an inline payload is copied, a
    /// spilled one hands over its block, either way nothing is left
    /// behind to free — and the envelope retires to the free list.
    fn copy_out(&mut self, mut envelope: RspEnvelope) -> TrackedResponse {
        let rsp = TrackedResponse {
            rsp: Response { payload: envelope.rsp.payload.take(), ..envelope.rsp },
            ..*envelope
        };
        self.envelopes.rsp.give(envelope);
        rsp
    }

    /// Abandons an in-flight request (host-side timeout reclamation).
    ///
    /// If the response is already waiting in a receive buffer it is
    /// dropped and the tag released immediately; otherwise the tag is
    /// marked as a zombie and released only when the stale response
    /// finally arrives — so the tag can never be reallocated while a
    /// response bearing it is still in flight (no ABA hazard).
    pub fn abandon_tag(&mut self, dev: usize, link: usize, tag: Tag) -> Result<(), HmcError> {
        if dev >= self.devices.len() {
            return Err(HmcError::InvalidDevice(dev));
        }
        if link >= self.devices[dev].config().links {
            return Err(HmcError::InvalidLink(link));
        }
        // Already delivered (possibly failed over to another physical
        // link): drop it from whichever receive buffer holds it.
        for queue in self.host_rx[dev].iter_mut() {
            if let Some(idx) = queue
                .iter()
                .position(|r| r.entry_link == link && r.rsp.head.tag == tag)
            {
                if let Some(envelope) = queue.remove(idx) {
                    self.envelopes.rsp.give(envelope);
                }
                self.devices[dev].count_abandoned();
                self.release_pool_tag(dev, link, tag);
                return Ok(());
            }
        }
        self.zombie_tags[dev].insert((link, tag.value()));
        Ok(())
    }

    /// True when a device link is currently operational (not taken
    /// down by its fault plan's schedule).
    pub fn link_is_up(&self, dev: usize, link: usize) -> bool {
        self.devices.get(dev).is_some_and(|d| d.link_is_up(link))
    }

    /// Number of responses waiting on a host link.
    pub fn pending_responses(&self, dev: usize, link: usize) -> usize {
        self.host_rx
            .get(dev)
            .and_then(|d| d.get(link))
            .map_or(0, |q| q.len())
    }

    fn release_pool_tag(&mut self, dev: usize, link: usize, tag: Tag) {
        if let Some(set) = self.pool_tags.get_mut(dev).and_then(|d| d.get_mut(link)) {
            if set.remove(tag) {
                let _ = self.tag_pools[dev][link].release(tag);
            }
        }
    }

    /// Builds a request in a recycled envelope and sends it through the
    /// entry link's tag pool: acquires a tag for response-bearing
    /// commands, has `fill` write the packet into the envelope, rolls
    /// the tag back and retires the envelope on any failure, and
    /// registers the tag for automatic release at `recv`.
    fn send_pooled(
        &mut self,
        dev: usize,
        link: usize,
        posted: bool,
        fill: impl FnOnce(&mut Request, Tag) -> Result<(), HmcError>,
    ) -> Result<Option<Tag>, HmcError> {
        // Reject out-of-range device indices up front: the old code
        // built the CUB as `dev % 8`, silently aliasing device 9 onto
        // cube 1. Validation caps contexts at `Cub::MAX_CUBES`
        // devices, so any in-range index is addressable exactly.
        if dev >= self.devices.len() {
            return Err(HmcError::InvalidDevice(dev));
        }
        let tag = if posted {
            Tag::new(0).expect("tag 0")
        } else {
            self.tag_pools
                .get_mut(dev)
                .and_then(|d| d.get_mut(link))
                .ok_or(HmcError::InvalidLink(link))?
                .acquire()?
        };
        let mut item = self.envelopes.request();
        let sent = match fill(&mut item.req, tag).and_then(|()| self.admit(dev, link, &item.req)) {
            Ok(grant) => self.launch(dev, link, item, grant),
            Err(e) => {
                self.envelopes.rqst.give(item);
                Err(e)
            }
        };
        match sent {
            Ok(()) => {
                if posted {
                    Ok(None)
                } else {
                    self.pool_tags[dev][link].insert(tag);
                    Ok(Some(tag))
                }
            }
            Err(e) => {
                if !posted {
                    let _ = self.tag_pools[dev][link].release(tag);
                }
                Err(e)
            }
        }
    }

    /// Builds and sends a standard-command request, allocating a tag
    /// from the link's pool. Returns the tag for non-posted commands,
    /// `None` for posted commands and flow packets (which never
    /// generate a response).
    pub fn send_simple(
        &mut self,
        dev: usize,
        link: usize,
        cmd: HmcRqst,
        addr: u64,
        payload: impl PayloadSource,
    ) -> Result<Option<Tag>, HmcError> {
        if dev >= self.devices.len() {
            return Err(HmcError::InvalidDevice(dev));
        }
        let cub = Cub::new(dev as u8).expect("validated contexts hold at most 16 devices");
        self.send_to_cube(dev, link, cub, cmd, addr, payload)
    }

    /// Builds and sends a standard-command request addressed to an
    /// arbitrary cube, entering the fabric on `dev`'s host link
    /// `link`. The packet hops along the topology's routing tables to
    /// `cub`, executes there, and the response returns to the entry
    /// link. Returns the tag for non-posted commands.
    pub fn send_to_cube(
        &mut self,
        dev: usize,
        link: usize,
        cub: Cub,
        cmd: HmcRqst,
        addr: u64,
        payload: impl PayloadSource,
    ) -> Result<Option<Tag>, HmcError> {
        // Flow packets are absorbed by the link layer and answer
        // nothing, so they must not hold a tag.
        let posted = cmd.is_posted() || cmd.kind() == hmc_types::CmdKind::Flow;
        self.send_pooled(dev, link, posted, |req, tag| req.fill(cmd, tag, addr, cub, payload))
    }

    /// Builds and sends a CMC request, reading the registered request
    /// length from the device's CMC table. Returns the tag for
    /// non-posted operations.
    pub fn send_cmc(
        &mut self,
        dev: usize,
        link: usize,
        code: u8,
        addr: u64,
        payload: impl PayloadSource,
    ) -> Result<Option<Tag>, HmcError> {
        let reg = self.device(dev)?.cmc().lookup(code)?.registration();
        let (rqst_len, posted) = (reg.rqst_len, reg.is_posted());
        let cub = Cub::new(dev as u8).expect("validated contexts hold at most 16 devices");
        self.send_pooled(dev, link, posted, |req, tag| {
            req.fill_cmc(code, rqst_len, tag, addr, cub, payload)
        })
    }

    /// Clocks the simulation until the response for `tag` arrives on
    /// the given link, up to `max_cycles`. Convenience wrapper for
    /// simple hosts.
    pub fn run_until_response(
        &mut self,
        dev: usize,
        link: usize,
        tag: Tag,
        max_cycles: u64,
    ) -> Result<TrackedResponse, HmcError> {
        for _ in 0..max_cycles {
            if let Some(rsp) = self.recv_tag(dev, link, tag) {
                return Ok(rsp);
            }
            self.clock();
        }
        self.recv_tag(dev, link, tag)
            .ok_or(HmcError::InvalidTag(tag.value() as u32))
    }

    // ------------------------------------------------------------------
    // clock
    // ------------------------------------------------------------------

    /// Advances the simulation by one device cycle (`hmcsim_clock`).
    ///
    /// With [`SkipMode::On`], a cycle the event horizon proves idle
    /// takes the O(1) bulk path instead of the full pipeline — the
    /// resulting state is bit-identical either way.
    pub fn clock(&mut self) -> u64 {
        self.advance(self.cycle + 1, true);
        self.cycle
    }

    /// Clocks the simulation `n` times (idle runs compress under
    /// [`SkipMode::On`]; the observable state is identical either
    /// way).
    pub fn clock_n(&mut self, n: u64) -> u64 {
        self.advance(self.cycle + n, false);
        self.cycle
    }

    /// Advances up to `max_cycles`, compressing the idle prefix and
    /// stopping after the first full (potentially eventful) cycle
    /// executes. Returns the number of cycles advanced. With
    /// [`SkipMode::Off`] this executes exactly one full cycle per
    /// call, so drivers can use it unconditionally.
    pub fn clock_until_event(&mut self, max_cycles: u64) -> u64 {
        let start = self.cycle;
        self.advance(start + max_cycles, true);
        self.cycle - start
    }

    /// The one advance loop: compresses each idle run the skip engine
    /// approves and executes every other cycle in full, until the
    /// counter reaches `target` or, with `stop_at_full`, a full cycle
    /// has run.
    fn advance(&mut self, target: u64, stop_at_full: bool) {
        while self.cycle < target {
            match self.skippable(target - self.cycle) {
                Some(k) => self.advance_idle(k),
                None => {
                    self.clock_full();
                    if stop_at_full {
                        return;
                    }
                }
            }
        }
    }

    /// One full cycle: the pipeline's phases in order (DESIGN §13),
    /// one call each.
    fn clock_full(&mut self) {
        let cycle = self.cycle;
        self.fault_schedule(cycle);
        self.retries(cycle);
        self.transit(cycle);
        self.responses(cycle);
        self.warm_pass(cycle);
        self.vaults(cycle);
        self.requests(cycle);
        // The tail `advance_idle` runs too, for one cycle; only the
        // sanitizer's call and the skip caches are a full cycle's own.
        self.power(1);
        if self.telemetry.is_some() {
            self.run_telemetry(cycle, 1);
        }
        if self.sanitizer.is_some() {
            self.run_sanitizer(cycle);
        }
        self.skip_caches();
        self.cycle += 1;
    }

    /// Fault schedule: each device applies the fault-plan link events
    /// due this cycle (a no-op for empty schedules).
    fn fault_schedule(&mut self, cycle: u64) {
        for dev in &mut self.devices {
            dev.apply_fault_schedule(cycle, &mut self.tracer);
        }
    }

    /// Retries: link-layer retries whose retry exchange completed
    /// replay into their crossbar queue. One whose link is down (it
    /// waits for the scheduled link-up) or whose queue is full keeps
    /// its place for a later cycle.
    fn retries(&mut self, cycle: u64) {
        let devices = &mut self.devices;
        self.retry_pending.deliver_ready(cycle, |entry| {
            let dev = &mut devices[entry.dev];
            if !(dev.link_is_up(entry.link) && dev.link_can_accept(entry.link)) {
                return Err(entry);
            }
            dev.send(entry.link, entry.item).unwrap_or_else(|_| unreachable!("accept checked"));
            Ok(())
        });
    }

    /// Transit: inter-device transits whose hop latency elapsed enter
    /// their destination, edge by edge in the topology's fixed edge
    /// order (then `(ready, insertion)` order within an edge) — a
    /// total delivery order fixed by the wiring alone. One whose
    /// destination queue is full keeps its place for a later cycle.
    fn transit(&mut self, cycle: u64) {
        let devices = &mut self.devices;
        for queue in &mut self.transit_queues {
            queue.deliver_ready(cycle, |t| match t {
                Transit::Rqst { from_dev, to_dev, link, item, ready } => devices[to_dev]
                    .accept_forward(link, item)
                    .map_err(|(item, _)| Transit::Rqst { from_dev, to_dev, link, item, ready }),
                Transit::Rsp { from_dev, to_dev, link, item, ready } => devices[to_dev]
                    .accept_return(link, item)
                    .map_err(|(item, _)| Transit::Rsp { from_dev, to_dev, link, item, ready }),
            });
        }
    }

    /// Stages 1–2 (responses): vault responses move to the crossbar
    /// response queues, which then drain to the host or one hop back
    /// toward the cube the request entered at.
    fn responses(&mut self, cycle: u64) {
        for dev in &mut self.devices {
            dev.route_responses(cycle, &mut self.tracer);
        }
        let mut drained = std::mem::take(&mut self.scratch.egress);
        for d in 0..self.devices.len() {
            self.devices[d].drain_responses(cycle, &mut drained);
            for egress in drained.drain(..) {
                match egress {
                    Egress::Deliver(rsp, egress_link) => self.deliver(d, rsp, egress_link),
                    Egress::Forward(rsp) => {
                        let (entry, link) = (rsp.entry_device, rsp.entry_link);
                        let tag = rsp.rsp.head.tag.value();
                        self.hop(d, entry, link, tag, TraceKind::HopRsp, |to_dev, ready| {
                            Transit::Rsp { from_dev: d, to_dev, link, item: rsp, ready }
                        });
                    }
                }
            }
        }
        self.scratch.egress = drained;
    }

    /// Hands a drained response to the host on `egress_link`, unless
    /// its tag was abandoned or the sanitizer drops it as a phantom.
    fn deliver(&mut self, d: usize, mut rsp: RspEnvelope, egress_link: usize) {
        let cycle = self.cycle;
        let key = (rsp.entry_link, rsp.rsp.head.tag.value());
        // The set is empty outside timeout reclamation: skip hashing
        // the key then.
        if !self.zombie_tags[d].is_empty() && self.zombie_tags[d].remove(&key) {
            // The host abandoned this tag; the stale response dies here
            // and the tag finally returns to its pool.
            self.devices[d].count_abandoned();
            self.release_pool_tag(d, rsp.entry_link, rsp.rsp.head.tag);
            self.tracer.emit(TraceRecord {
                dev: d as u16,
                tag: rsp.rsp.head.tag.value(),
                link: rsp.entry_link as u8,
                ..TraceRecord::new(cycle, TraceKind::Zombie)
            });
            if let Some(san) = self.sanitizer.as_deref_mut() {
                san.note_zombie(d, rsp.entry_link, rsp.rsp.head.tag, cycle);
            }
            self.envelopes.rsp.give(rsp);
            return;
        }
        if let Some(san) = self.sanitizer.as_deref_mut() {
            if !san.note_delivered(d, rsp.entry_link, rsp.rsp.head.tag, cycle) {
                // Phantom response dropped under the Recover policy.
                self.envelopes.rsp.give(rsp);
                return;
            }
        }
        rsp.complete_cycle = cycle + 1;
        rsp.latency = (cycle + 1).saturating_sub(rsp.issue_cycle);
        self.devices[d].record_latency(rsp.class, rsp.latency);
        if let Some(tel) = self.telemetry.as_deref_mut() {
            tel.record_response(d, &rsp);
        }
        self.tracer.emit(TraceRecord {
            dev: d as u16,
            tag: rsp.rsp.head.tag.value(),
            a: rsp.latency,
            link: rsp.entry_link as u8,
            ..TraceRecord::new(cycle, TraceKind::Deliver)
        });
        self.host_rx[d][egress_link].push_back(rsp);
    }

    /// Sends a packet from device `from` one fabric hop toward cube
    /// `toward`, due after `from`'s hop latency, and records the hop
    /// as `kind`. `transit` wraps the packet for the next-hop device
    /// and the arrival cycle.
    fn hop(
        &mut self,
        from: usize,
        toward: usize,
        link: usize,
        tag: u16,
        kind: TraceKind,
        transit: impl FnOnce(usize, u64) -> Transit,
    ) {
        let cycle = self.cycle;
        // `admit` lets a request in only toward a cube routable from its
        // entry device, each hop follows the routing table toward it,
        // fabrics are symmetric (a response retraces the way back), and
        // `restore` checks every restored packet alike. The next hop is
        // a neighbour of `from`, so the edge exists.
        let to_dev = self
            .topology
            .next_hop(from, toward)
            .expect("a forwarded packet has a route toward its cube");
        let edge = self
            .topology
            .edge_id(from, to_dev)
            .expect("transits only travel along fabric edges");
        let ready = cycle + self.devices[from].config().hop_latency;
        self.tracer.emit(TraceRecord {
            dev: from as u16,
            link: link as u8,
            tag,
            a: to_dev as u64,
            b: ready,
            ..TraceRecord::new(cycle, kind)
        });
        self.transit_queues[edge].push(ready, transit(to_dev, ready));
    }

    /// Warm pass: one read-only pass over every ready vault head of
    /// every device (`Device::warm_vault_heads`) before stage 3. A
    /// request's bank record and memory line are rarely in the host
    /// cache, and asked for together the misses overlap instead of
    /// being taken one per request.
    fn warm_pass(&self, cycle: u64) {
        for dev in &self.devices {
            dev.warm_vault_heads(cycle);
        }
    }

    /// Stage 3 (vaults): vault execution, device by device.
    fn vaults(&mut self, cycle: u64) {
        let mut absorbed = 0;
        for dev in &mut self.devices {
            absorbed += dev.execute_vaults(cycle, &mut self.tracer, &mut self.envelopes);
        }
        if absorbed > 0 {
            if let Some(san) = self.sanitizer.as_deref_mut() {
                san.note_absorbed(absorbed);
            }
        }
    }

    /// Stage 4 (requests): crossbar request routing. The FLITs it
    /// frees from the input buffers return as link tokens, and a
    /// request bound for another cube goes one hop toward it.
    fn requests(&mut self, cycle: u64) {
        let mut outcome = std::mem::take(&mut self.scratch.route);
        for d in 0..self.devices.len() {
            self.devices[d].route_requests(cycle, &mut self.tracer, &mut outcome);
            for (link, &flits) in outcome.freed_flits.iter().enumerate() {
                if flits > 0 {
                    self.links[d][link].return_tokens(flits as u32);
                }
            }
            for fwd in outcome.forwards.drain(..) {
                let (link, mut item) = (fwd.from_link, fwd.item);
                item.hops += 1;
                let (target, tag) = (item.req.head.cub.value() as usize, item.req.head.tag.value());
                self.hop(d, target, link, tag, TraceKind::HopRqst, |to_dev, ready| {
                    Transit::Rqst { from_dev: d, to_dev, link, item, ready }
                });
            }
        }
        self.scratch.route = outcome;
    }

    /// Power: `k` cycles of leakage on every device.
    fn power(&mut self, k: u64) {
        for dev in &mut self.devices {
            dev.power_mut().add_cycles(k);
        }
    }

    /// Skip caches: an exact end-of-cycle scan (cheap relative to the
    /// pipeline that just ran) of which devices still hold work.
    fn skip_caches(&mut self) {
        for (dev, busy) in self.devices.iter().zip(&self.dev_maybe_busy) {
            busy.set(dev.has_work());
        }
    }

    /// How many of the next `max` cycles are provably idle: every one
    /// before [`HmcSim::next_event_cycle`]'s horizon, as far as the
    /// attached sanitizer (if any) guarantees its per-cycle audit is a
    /// no-op across the whole region. `None` when skipping is off or
    /// the current cycle must execute the full pipeline.
    fn skippable(&mut self, max: u64) -> Option<u64> {
        if !self.skip_mode.is_on() || max == 0 {
            return None;
        }
        let cycle = self.cycle;
        let mut k = match self.next_event_cycle() {
            // A maybe-busy device has work (the horizon scan stops at
            // the first one), or an event is due now.
            Some(h) if h <= cycle => return None,
            Some(h) => max.min(h - cycle),
            None => max,
        };
        if self.sanitizer.is_some() {
            k = self.sanitizer_skip_allowance(cycle, k);
        }
        (k > 0).then_some(k)
    }

    /// Applies `k` compressed idle cycles in closed form: the tail a
    /// full cycle ends with, called with `k` — leakage, then telemetry
    /// samples — except that the sanitizer folds the run into its
    /// bookkeeping instead of auditing it, and the skip caches stand
    /// (nothing moved). Only legal for a region approved by
    /// [`HmcSim::skippable`].
    fn advance_idle(&mut self, k: u64) {
        let cycle = self.cycle;
        if self.tracer.captures(TraceLevel::ENGINE) {
            self.tracer.emit(TraceRecord {
                a: cycle,
                b: k,
                ..TraceRecord::new(cycle, TraceKind::IdleSkip)
            });
        }
        self.power(k);
        if self.telemetry.is_some() {
            self.run_telemetry(cycle, k);
        }
        if self.sanitizer.is_some() {
            self.run_sanitizer_idle(k);
        }
        self.cycle += k;
    }

    /// The earliest cycle at which the fabric could act: now if any
    /// device queue holds a packet, otherwise the earliest due
    /// transit, link-layer retry or scheduled fault event. `None`
    /// means the simulation is idle forever absent new injections.
    /// Bank availability is no source: a bank is only read while its
    /// device holds work, and then the answer is already now.
    /// Conservative — the fabric may still do nothing at the returned
    /// cycle (e.g. a retry finds its link down) — and independent of
    /// [`SkipMode`]. It is the one horizon scan: the skip engine jumps
    /// to it and no further.
    pub fn next_event_cycle(&self) -> Option<u64> {
        let cycle = self.cycle;
        // Only devices flagged maybe-busy are scanned; a cleared flag
        // is a proof the device's queues are empty (it stays cleared
        // until an injection or a full clock that leaves work behind
        // re-sets it), so quiet cubes cost nothing here.
        for (dev, busy) in self.devices.iter().zip(&self.dev_maybe_busy) {
            if busy.get() {
                if dev.has_work() {
                    return Some(cycle);
                }
                busy.set(false);
            }
        }
        self.transit_queues
            .iter()
            .filter_map(|q| q.peek_ready())
            .chain(self.retry_pending.peek_ready())
            .chain(self.devices.iter().filter_map(|d| d.next_fault_event()))
            .min()
            .map(|c| c.max(cycle))
    }

    /// True when no packet is resident in any device queue,
    /// inter-device transit or link-layer retry buffer (delivered
    /// host responses may still be waiting in the receive buffers).
    pub fn is_quiescent(&self) -> bool {
        self.transit_queues.iter().all(|q| q.is_empty())
            && self.retry_pending.is_empty()
            && !self.devices.iter().any(|d| d.has_work())
    }

    /// Clocks until the fabric is quiescent (posted traffic fully
    /// retired), up to `max_cycles` extra cycles.
    pub fn drain(&mut self, max_cycles: u64) -> u64 {
        let mut spent = 0;
        while !self.is_quiescent() && spent < max_cycles {
            self.clock();
            spent += 1;
        }
        spent
    }

    /// Packets currently resident anywhere in the fabric: device
    /// queues, inter-device transit and link-layer retry buffers
    /// (delivered host responses excluded).
    pub(crate) fn live_packets(&self) -> u64 {
        self.devices.iter().map(|d| d.pending_work() as u64).sum::<u64>()
            + self.transit_queues.iter().map(|q| q.len() as u64).sum::<u64>()
            + self.retry_pending.len() as u64
    }

    /// Replaces a link's tag pool with one of the given capacity.
    /// Only legal while the pool has no tags in flight (shrinking a
    /// pool under live tags would corrupt response matching).
    pub fn configure_tag_pool(
        &mut self,
        dev: usize,
        link: usize,
        capacity: u32,
    ) -> Result<(), HmcError> {
        let pool = self
            .tag_pools
            .get_mut(dev)
            .ok_or(HmcError::InvalidDevice(dev))?
            .get_mut(link)
            .ok_or(HmcError::InvalidLink(link))?;
        if pool.in_flight() != 0 {
            return Err(HmcError::MalformedPacket(format!(
                "tag pool dev {dev} link {link} has {} tags in flight",
                pool.in_flight()
            )));
        }
        *pool = TagPool::with_capacity(capacity);
        Ok(())
    }

    /// Test backdoor: returns tokens to a link's pool outside the
    /// normal drain path — a deliberate protocol violation used to
    /// exercise the sanitizer's token checks.
    #[doc(hidden)]
    pub fn debug_force_return_tokens(&mut self, dev: usize, link: usize, flits: u32) {
        self.links[dev][link].return_tokens(flits);
    }

    /// Test backdoor: a link's tag pool, to corrupt behind the
    /// simulator's back (the sanitizer's tag checks).
    #[doc(hidden)]
    pub fn debug_tag_pool(&mut self, dev: usize, link: usize) -> &mut TagPool {
        &mut self.tag_pools[dev][link]
    }

    /// Test backdoor: plants a response in a device's crossbar
    /// response queue that no request ever generated — a phantom, for
    /// exercising the sanitizer's causality check.
    #[doc(hidden)]
    pub fn debug_inject_phantom_response(&mut self, dev: usize, link: usize, rsp: Response) {
        let item = TrackedResponse {
            rsp,
            issue_cycle: self.cycle,
            complete_cycle: 0,
            latency: 0,
            entry_device: dev,
            entry_link: link,
            class: crate::stats::CmdClass::Other,
            stages: Default::default(),
        };
        self.devices[dev].debug_inject_response(link, item);
        // The planted response sits in a device queue: the skip
        // engine must re-scan that device before compressing.
        self.mark_device_busy(dev);
    }

    // ------------------------------------------------------------------
    // CMC API
    // ------------------------------------------------------------------

    /// Registers a CMC operation object on a device (`hmc_load_cmc`
    /// with an in-process operation). Returns the command code.
    pub fn load_cmc(&mut self, dev: usize, op: Box<dyn CmcOp>) -> Result<u8, HmcError> {
        self.device_mut(dev)?.cmc_mut().register(op)
    }

    /// Loads every operation from a CMC shared library by path
    /// (`hmc_load_cmc`): the library is resolved through the simulated
    /// dynamic loader, its entry points bound, and each operation
    /// registered. Returns the registered command codes. The device
    /// records the name, so a snapshot names the libraries that
    /// [`HmcSim::from_snapshot`] loads again.
    pub fn load_cmc_library(&mut self, dev: usize, path: &str) -> Result<Vec<u8>, HmcError> {
        let ops = hmc_cmc::open_library(path)?;
        let device = self.device_mut(dev)?;
        let mut codes = Vec::with_capacity(ops.len());
        for op in ops {
            match device.cmc_mut().register(op) {
                Ok(code) => codes.push(code),
                Err(e) => {
                    // Atomic load: roll back the operations this call
                    // registered so a failed library leaves no
                    // partial state.
                    for &code in &codes {
                        let _ = device.cmc_mut().unregister(code);
                    }
                    return Err(e);
                }
            }
        }
        device.record_cmc_library(path);
        Ok(codes)
    }

    /// Unregisters the CMC operation on `code`.
    pub fn unload_cmc(&mut self, dev: usize, code: u8) -> Result<(), HmcError> {
        self.device_mut(dev)?.cmc_mut().unregister(code)
    }

    /// Active CMC registrations on a device.
    pub fn cmc_registrations(&self, dev: usize) -> Result<Vec<CmcRegistration>, HmcError> {
        Ok(self.device(dev)?.cmc().active().cloned().collect())
    }

    // ------------------------------------------------------------------
    // JTAG + memory backdoor
    // ------------------------------------------------------------------

    /// Reads a device register over the simulated JTAG interface.
    pub fn jtag_reg_read(&self, dev: usize, reg: u32) -> Result<u64, HmcError> {
        self.device(dev)?.regs().read(reg)
    }

    /// Writes a device register over the simulated JTAG interface.
    pub fn jtag_reg_write(&mut self, dev: usize, reg: u32, value: u64) -> Result<(), HmcError> {
        self.device_mut(dev)?.regs_mut().write(reg, value)
    }

    /// Host backdoor: reads device memory directly (simulation setup
    /// and verification).
    pub fn mem_read(&self, dev: usize, addr: u64, buf: &mut [u8]) -> Result<(), HmcError> {
        self.device(dev)?.mem().read(addr, buf)
    }

    /// Host backdoor: writes device memory directly.
    pub fn mem_write(&mut self, dev: usize, addr: u64, buf: &[u8]) -> Result<(), HmcError> {
        self.device_mut(dev)?.mem_mut().write(addr, buf)
    }

    /// Host backdoor: reads one 64-bit word.
    pub fn mem_read_u64(&self, dev: usize, addr: u64) -> Result<u64, HmcError> {
        self.device(dev)?.mem().read_u64(addr)
    }

    /// Host backdoor: writes one 64-bit word.
    pub fn mem_write_u64(&mut self, dev: usize, addr: u64, value: u64) -> Result<(), HmcError> {
        self.device_mut(dev)?.mem_mut().write_u64(addr, value)
    }

    // ------------------------------------------------------------------
    // statistics
    // ------------------------------------------------------------------

    /// A device's statistics.
    pub fn stats(&self, dev: usize) -> Result<&DeviceStats, HmcError> {
        Ok(self.device(dev)?.stats())
    }

    /// A device's power report.
    pub fn power_report(&self, dev: usize) -> Result<PowerReport, HmcError> {
        Ok(self.device(dev)?.power().report())
    }

    /// Highest vault request-queue occupancy observed on a device.
    pub fn vault_queue_high_water(&self, dev: usize) -> Result<usize, HmcError> {
        Ok(self.device(dev)?.vault_queue_high_water())
    }

    /// Aggregate DRAM row-buffer statistics for a device:
    /// `(row_hits, row_misses)`.
    pub fn row_buffer_stats(&self, dev: usize) -> Result<(u64, u64), HmcError> {
        Ok(self.device(dev)?.row_buffer_stats())
    }
}

/// Tears the devices down newest first. Sweeps build, run and drop a
/// context per point (the paper's section V evaluation does), and a
/// device's allocations sit in the heap in construction order: freeing
/// from the high end first leaves the allocator's small-chunk caches
/// holding chunks at the top of the heap, which keeps glibc from
/// trimming the heap on every teardown and faulting every page of the
/// next context in again. Oldest-first teardown of a 16-cube mesh with
/// prefilled memory re-faulted ~30 MiB per construction on the
/// benchmark host; this order re-faults none.
impl Drop for HmcSim {
    fn drop(&mut self) {
        while self.devices.pop().is_some() {}
    }
}

/// Whether a request will eventually generate a response the host
/// must receive (sanitizer shadow accounting): posted commands and
/// flow packets never answer; CMC postedness comes from the target
/// device's registry, with unknown codes treated as non-posted (the
/// device answers them with an error response).
fn request_expects_response(devices: &[Device], req: &Request) -> bool {
    match req.head.cmd {
        HmcRqst::Cmc(code) => devices
            .get(req.head.cub.value() as usize)
            .map(|d| {
                d.cmc()
                    .lookup(code)
                    .map(|op| !op.registration().is_posted())
                    .unwrap_or(true)
            })
            .unwrap_or(true),
        cmd => !cmd.is_posted() && cmd.kind() != hmc_types::CmdKind::Flow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::HmcResponse;

    #[test]
    fn uncontended_round_trip_is_three_cycles() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        sim.mem_write_u64(0, 0x40, 0x1234).unwrap();
        let tag = sim
            .send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![])
            .unwrap()
            .unwrap();
        let rsp = sim.run_until_response(0, 0, tag, 100).unwrap();
        assert_eq!(rsp.latency, 3, "uncontended RT is 3 cycles");
        assert_eq!(rsp.rsp.payload[0], 0x1234);
        assert_eq!(rsp.rsp.head.cmd, HmcResponse::RdRs);
    }

    #[test]
    fn write_then_read_through_pipeline() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let tag = sim
            .send_simple(0, 1, HmcRqst::Wr16, 0x100, vec![0xAA, 0xBB])
            .unwrap()
            .unwrap();
        let rsp = sim.run_until_response(0, 1, tag, 100).unwrap();
        assert_eq!(rsp.rsp.head.cmd, HmcResponse::WrRs);
        let tag = sim
            .send_simple(0, 1, HmcRqst::Rd16, 0x100, vec![])
            .unwrap()
            .unwrap();
        let rsp = sim.run_until_response(0, 1, tag, 100).unwrap();
        assert_eq!(rsp.rsp.payload, vec![0xAA, 0xBB]);
    }

    #[test]
    fn posted_sends_return_no_tag_and_complete_silently() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let tag = sim
            .send_simple(0, 0, HmcRqst::PWr16, 0x200, vec![1, 2])
            .unwrap();
        assert!(tag.is_none());
        sim.clock_n(10);
        assert_eq!(sim.pending_responses(0, 0), 0);
        assert_eq!(sim.mem_read_u64(0, 0x200).unwrap(), 1);
    }

    #[test]
    fn atomic_inc_through_pipeline() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        sim.mem_write_u64(0, 0x40, 41).unwrap();
        let tag = sim
            .send_simple(0, 0, HmcRqst::Inc8, 0x40, vec![])
            .unwrap()
            .unwrap();
        let rsp = sim.run_until_response(0, 0, tag, 100).unwrap();
        assert_eq!(rsp.rsp.head.cmd, HmcResponse::WrRs);
        assert_eq!(sim.mem_read_u64(0, 0x40).unwrap(), 42);
        assert_eq!(sim.stats(0).unwrap().atomics, 1);
    }

    #[test]
    fn cub_validation_in_host_only_topology() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let req = Request::new(
            HmcRqst::Rd16,
            Tag::new(0).unwrap(),
            0,
            Cub::new(1).unwrap(),
            vec![],
        )
        .unwrap();
        assert!(matches!(sim.send(0, 0, req), Err(HmcError::InvalidCube(1))));
    }

    #[test]
    fn chained_device_round_trip() {
        let mut sim =
            HmcSim::with_config(SimConfig::chain(DeviceConfig::gen2_4link_4gb(), 3)).unwrap();
        sim.mem_write_u64(2, 0x40, 0x77).unwrap();
        // Host attaches at device 0, target is cube 2 (two hops away).
        let req = Request::new(
            HmcRqst::Rd16,
            Tag::new(11).unwrap(),
            0x40,
            Cub::new(2).unwrap(),
            vec![],
        )
        .unwrap();
        sim.send(0, 0, req).unwrap();
        let mut got = None;
        for _ in 0..200 {
            sim.clock();
            if let Some(rsp) = sim.recv(0, 0) {
                got = Some(rsp);
                break;
            }
        }
        let rsp = got.expect("chained response arrives");
        assert_eq!(rsp.rsp.payload[0], 0x77);
        assert!(rsp.latency > 3, "chained access is slower than local");
        assert_eq!(sim.stats(0).unwrap().forwarded, 1);
    }

    #[test]
    fn send_simple_does_not_alias_cube_ids_past_eight() {
        // Regression: send_with_pool used to build the CUB as
        // `dev % 8`, silently aliasing device 9 onto cube 1.
        let mut sim =
            HmcSim::with_config(SimConfig::chain(DeviceConfig::gen2_4link_4gb(), 10)).unwrap();
        sim.mem_write_u64(9, 0x40, 0x99).unwrap();
        sim.mem_write_u64(1, 0x40, 0x11).unwrap();
        let tag = sim
            .send_simple(9, 0, HmcRqst::Rd16, 0x40, vec![])
            .unwrap()
            .unwrap();
        let rsp = sim.run_until_response(9, 0, tag, 100).unwrap();
        assert_eq!(rsp.rsp.payload[0], 0x99, "request executed on device 9, not cube 1");
        assert_eq!(rsp.rsp.head.cub.value(), 9);
        // Out-of-range device indices are rejected, not wrapped.
        assert!(matches!(
            sim.send_simple(10, 0, HmcRqst::Rd16, 0x40, vec![]),
            Err(HmcError::InvalidDevice(10))
        ));
    }

    #[test]
    fn ring_routes_the_short_way_and_round_trips() {
        let mut sim =
            HmcSim::with_config(SimConfig::ring(DeviceConfig::gen2_4link_4gb(), 6)).unwrap();
        sim.mem_write_u64(5, 0x40, 0xAB).unwrap();
        // Cube 5 is one hop backwards from cube 0 on the ring; the
        // chain walk would have taken five hops forward.
        let tag = sim
            .send_to_cube(0, 0, Cub::new(5).unwrap(), HmcRqst::Rd16, 0x40, vec![])
            .unwrap()
            .unwrap();
        let rsp = sim.run_until_response(0, 0, tag, 50).unwrap();
        assert_eq!(rsp.rsp.payload[0], 0xAB);
        // One hop out, one hop back: far cheaper than the five-hops-
        // each-way walk the chain routing would have taken (≥ 20
        // cycles of hop+crossbar latency alone).
        assert!(rsp.latency > 3, "remote access is slower than local");
        assert!(rsp.latency <= 12, "ring takes the short way round, got {}", rsp.latency);
    }

    #[test]
    fn mesh_round_trip_across_sixteen_cubes() {
        let mut sim =
            HmcSim::with_config(SimConfig::mesh(DeviceConfig::gen2_4link_4gb(), 4, 4)).unwrap();
        sim.mem_write_u64(15, 0x80, 0xF0F0).unwrap();
        let tag = sim
            .send_to_cube(0, 1, Cub::new(15).unwrap(), HmcRqst::Rd16, 0x80, vec![])
            .unwrap()
            .unwrap();
        let rsp = sim.run_until_response(0, 1, tag, 200).unwrap();
        assert_eq!(rsp.rsp.payload[0], 0xF0F0);
        assert_eq!(rsp.rsp.head.cub.value(), 15, "executed on the far corner");
        assert!(rsp.latency > 3, "six hops each way cost real cycles");
        assert!(sim.stats(0).unwrap().forwarded >= 1);
    }

    #[test]
    fn jtag_and_mode_paths_agree() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_8link_8gb()).unwrap();
        assert_eq!(sim.jtag_reg_read(0, crate::regs::REG_FEAT).unwrap(), 0x88);
        sim.jtag_reg_write(0, crate::regs::REG_EDR0, 0xCAFE).unwrap();
        let tag = sim
            .send_simple(0, 0, HmcRqst::MdRd, crate::regs::REG_EDR0 as u64, vec![])
            .unwrap()
            .unwrap();
        let rsp = sim.run_until_response(0, 0, tag, 100).unwrap();
        assert_eq!(rsp.rsp.payload[0], 0xCAFE);
    }

    #[test]
    fn tag_pool_recycles_through_recv() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        for _ in 0..3000 {
            // More iterations than the 2048-tag space: only recycling
            // makes this pass.
            let tag = sim
                .send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![])
                .unwrap()
                .unwrap();
            let _ = sim.run_until_response(0, 0, tag, 100).unwrap();
        }
    }

    #[test]
    fn a_refused_send_retires_its_envelope_and_queues_nothing() {
        let mut cfg = DeviceConfig::gen2_4link_4gb();
        cfg.xbar_queue_depth = 1;
        cfg.fault = crate::fault::FaultPlan::seeded(1).with_link_event(0, 3, false);
        let mut sim = HmcSim::new(cfg).unwrap();
        sim.configure_tag_pool(0, 1, 1).unwrap();
        sim.clock(); // link 3 goes down
        // Link 0's crossbar queue and link 1's tag pool are now full.
        sim.send_simple(0, 0, HmcRqst::Wr256, 0x40, vec![7; 32]).unwrap();
        sim.send_simple(0, 1, HmcRqst::Rd16, 0x40, []).unwrap();
        assert_eq!((sim.live_packets(), sim.envelopes.rqst.len()), (2, 0));
        let wide = Request::new_cmc(99, 17, Tag::default(), 0, Cub::default(), vec![1; 32]).unwrap();
        let short = Request::new(HmcRqst::Rd16, Tag::default(), 0, Cub::new(3).unwrap(), []).unwrap();
        type Refused<'a> = &'a dyn Fn(&mut HmcSim) -> Result<(), HmcError>;
        let refusals: [(&str, Refused); 9] = [
            ("Stall", &|sim| sim.send_simple(0, 0, HmcRqst::Wr256, 0x80, vec![1; 32]).map(drop)),
            ("Stall", &|sim| sim.send(0, 0, wide.clone())),
            ("TagsExhausted", &|sim| sim.send_simple(0, 1, HmcRqst::Rd16, 0, []).map(drop)),
            ("LinkDown(3)", &|sim| sim.send_simple(0, 3, HmcRqst::PWr256, 0, &[2; 32][..]).map(drop)),
            ("InvalidCube(3)", &|sim| sim.send(0, 2, short.clone())),
            ("InvalidLink(4)", &|sim| sim.send_simple(0, 4, HmcRqst::Null, 0, []).map(drop)),
            ("AddressOutOfRange(17179869184)", &|sim| {
                sim.send_simple(0, 2, HmcRqst::Rd16, 1 << 34, []).map(drop)
            }),
            ("MalformedPacket(\"WR16 expects 2 payload words, got 0\")", &|sim| {
                sim.send_simple(0, 2, HmcRqst::Wr16, 0, []).map(drop)
            }),
            ("CmcNotActive(99)", &|sim| sim.send_cmc(0, 2, 99, 0, [1, 2]).map(drop)),
        ];
        let stalls = |sim: &HmcSim| sim.stats(0).unwrap().send_stalls;
        for (text, refused) in refusals {
            let stalled = stalls(&sim);
            let free_tags: Vec<_> = sim.tag_pools[0].iter().map(|p| p.available()).collect();
            assert_eq!(format!("{:?}", refused(&mut sim).unwrap_err()), text);
            assert_eq!(sim.live_packets(), 2, "{text} queued something");
            assert_eq!(sim.pool_tags[0].iter().map(|set| set.iter().count()).sum::<usize>(), 2);
            let now: Vec<_> = sim.tag_pools[0].iter().map(|p| p.available()).collect();
            assert_eq!(now, free_tags, "{text} kept a tag");
            // One envelope serves every refusal: drawn, given back.
            assert!(sim.envelopes.rqst.len() <= 1, "{text} leaked an envelope");
            assert_eq!(stalls(&sim) - stalled, (text == "Stall") as u64);
        }
        assert_eq!(sim.envelopes.rqst.len(), 1);
        // The two accepted packets still complete.
        sim.set_skip_mode(SkipMode::Off);
        sim.clock_n(8);
        assert!(sim.recv(0, 0).is_some() && sim.recv(0, 1).is_some());
        assert_eq!(sim.live_packets(), 0);
        // Three retired envelopes, two of which last carried 32 words:
        // a short packet written over one keeps nothing of them.
        assert_eq!(sim.envelopes.rqst.len(), 3);
        for link in 0..3 {
            sim.send_simple(0, link, HmcRqst::Rd16, 0x40, []).unwrap();
            let view = sim.devices[0].state_view();
            let queued = &view.xbar_rqst[link].peek().unwrap().req;
            assert!(queued.payload.is_inline() && queued.payload.is_empty());
        }
        assert_eq!(sim.envelopes.rqst.len(), 0);
    }

    #[test]
    fn skip_mode_is_bit_identical_to_full_execution() {
        let run = |skip: SkipMode| {
            let mut cfg = SimConfig::single(DeviceConfig::gen2_4link_4gb());
            cfg.skip_mode = skip;
            let mut sim = HmcSim::with_config(cfg).unwrap();
            sim.mem_write_u64(0, 0x40, 7).unwrap();
            // Bursts of traffic separated by long idle gaps — the
            // shape the event-horizon engine compresses.
            for burst in 0..3u64 {
                let tag = sim
                    .send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![])
                    .unwrap()
                    .unwrap();
                let rsp = sim.run_until_response(0, 0, tag, 100).unwrap();
                assert_eq!(rsp.rsp.payload[0], 7, "burst {burst}");
                sim.clock_n(5_000);
            }
            (sim.cycle(), sim.state_fingerprint(), sim.stats(0).unwrap().clone())
        };
        let off = run(SkipMode::Off);
        let on = run(SkipMode::On);
        assert_eq!(off.0, on.0, "cycle counts agree");
        assert_eq!(off.1, on.1, "fingerprints agree");
        assert_eq!(off.2, on.2, "device stats agree");
    }

    #[test]
    fn clock_until_event_compresses_idle_and_steps_busy() {
        let mut cfg = SimConfig::single(DeviceConfig::gen2_4link_4gb());
        cfg.skip_mode = SkipMode::On;
        let mut sim = HmcSim::with_config(cfg).unwrap();
        // Fully idle: the entire budget compresses in one call.
        assert_eq!(sim.clock_until_event(10_000), 10_000);
        assert_eq!(sim.cycle(), 10_000);
        assert_eq!(sim.next_event_cycle(), None, "idle forever absent injections");
        // With traffic in flight the clock executes full cycles.
        let tag = sim
            .send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![])
            .unwrap()
            .unwrap();
        assert_eq!(sim.next_event_cycle(), Some(sim.cycle()));
        let mut advanced = 0;
        while sim.recv_tag(0, 0, tag).is_none() {
            advanced += sim.clock_until_event(100);
            assert!(advanced <= 10, "response retires in a few full cycles");
        }
        assert_eq!(sim.cycle(), 10_000 + advanced);
    }

    #[test]
    fn clock_until_event_without_skip_steps_one_cycle() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        // Pinned: `HMCSIM_SKIP=1` upgrades an unconfigured context.
        sim.set_skip_mode(SkipMode::Off);
        assert_eq!(sim.clock_until_event(10_000), 1, "Off mode: one full cycle per call");
        assert_eq!(sim.cycle(), 1);
    }

    #[test]
    fn the_public_horizon_is_the_skip_engines_horizon() {
        // A 2x2 mesh under row-buffer timing: remote traffic (transits),
        // every fifth FLIT packet errored (retries) and a link outage
        // on a schedule (fault events), so every horizon source comes up.
        let mut dev = DeviceConfig::gen2_4link_4gb();
        dev.fault = crate::fault::FaultPlan::seeded(7)
            .with_link_errors(LinkErrorMode::EveryNth(5))
            .with_link_event(5, 0, false)
            .with_link_event(3_000, 0, true);
        let mut cfg = SimConfig::mesh(dev, 2, 2);
        cfg.timing = TimingSelect::RowBuffer;
        let mut on = HmcSim::with_config(cfg.clone()).unwrap();
        on.set_skip_mode(SkipMode::On);
        // The reference clocks every cycle through the same script.
        let mut off = HmcSim::with_config(cfg).unwrap();
        off.set_skip_mode(SkipMode::Off);
        const M: u64 = 5_000;
        let (mut jumps, mut idle) = (0, 0);
        for round in 0..24u64 {
            for sim in [&mut on, &mut off] {
                for dev in 0..4 {
                    let cub = Cub::new(((dev as u64 + round) % 4) as u8).unwrap();
                    let addr = 0x40 * (round % 8) + 0x1000 * dev as u64;
                    let link = (round % 2) as usize;
                    let _ = sim.send_to_cube(dev, link, cub, HmcRqst::Rd64, addr, []);
                }
            }
            loop {
                for sim in [&mut on, &mut off] {
                    for (dev, link) in (0..4).flat_map(|d| (0..4).map(move |l| (d, l))) {
                        while sim.recv(dev, link).is_some() {}
                    }
                }
                let (start, horizon) = (on.cycle(), on.next_event_cycle());
                assert_eq!(horizon, off.next_event_cycle(), "cycle {start}");
                let advanced = on.clock_until_event(M);
                off.clock_n(advanced);
                assert_eq!(on.state_fingerprint(), off.state_fingerprint(), "from cycle {start}");
                match horizon {
                    Some(h) => {
                        assert_eq!(on.cycle(), h + 1, "from cycle {start}");
                        jumps += (h > start) as u32;
                    }
                    None => {
                        assert_eq!(advanced, M, "from cycle {start}");
                        idle += 1;
                        break;
                    }
                }
            }
        }
        assert_eq!(idle, 24);
        assert!(jumps > 0, "some horizons lay ahead of the clock");
        assert!(on.stats(0).unwrap().forwarded > 0, "remote traffic crossed the fabric");
        assert!((0..4).any(|d| on.link_stats(d, 0).unwrap().retries > 0), "retries happened");
        assert!(on.link_is_up(0, 3), "the outage began and ended");
    }

    #[test]
    fn a_busy_bank_in_an_idle_cube_needs_no_horizon() {
        // A read leaves its bank busy for 20 cycles (40 on a row-buffer
        // miss) after the response is home and the cube has drained.
        // Bank releases are no horizon source, so under skipping the
        // wait is one jump; a second read to the same bank, injected
        // while the bank is still busy, must still stall to the cycle
        // it would have had.
        let mut dev = DeviceConfig::gen2_4link_4gb();
        dev.bank_latency = 20;
        dev.bank_timing = crate::dram::BankTiming {
            row_hit: 1,
            row_miss: 20,
            policy: crate::dram::RowPolicy::OpenPage,
        };
        let map = crate::addr::AddressMap::new(&dev);
        let loc = |addr| map.decompose(addr).unwrap();
        let first = 0x40;
        let same_bank = |a| (loc(a).vault, loc(a).bank) == (loc(first).vault, loc(first).bank);
        let second = (1..)
            .map(|i| first + i * 0x1000)
            .find(|&a| same_bank(a) && loc(a).row != loc(first).row)
            .unwrap();
        for timing in [TimingSelect::RowBuffer, TimingSelect::Validated] {
            let run = |skip| {
                let config = SimConfig { timing, ..SimConfig::single(dev.clone()) };
                let mut sim = HmcSim::with_config(config).unwrap();
                sim.set_skip_mode(skip);
                let mut done = Vec::new();
                for addr in [first, second] {
                    sim.send_simple(0, 0, HmcRqst::Rd16, addr, []).unwrap();
                    let rsp = loop {
                        if let Some(rsp) = sim.recv(0, 0) {
                            break rsp;
                        }
                        sim.clock_until_event(1_000);
                    };
                    done.push(rsp.complete_cycle);
                    assert!(sim.is_quiescent(), "{timing:?}: the cube drained");
                    sim.clock_n(5);
                }
                (done, sim.cycle(), sim.stats(0).unwrap().clone(), sim.state_fingerprint())
            };
            let (on, off) = (run(SkipMode::On), run(SkipMode::Off));
            assert_eq!(on, off, "{timing:?}");
            let [a, b] = on.0[..] else { unreachable!() };
            assert!(b > a + 15, "{timing:?}: the second read waited for the bank ({a}, {b})");
            assert!(on.2.vault_stalls > 0, "{timing:?}");
        }
    }

    #[test]
    fn set_skip_mode_mid_run_is_safe() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        sim.clock_n(100);
        sim.set_skip_mode(SkipMode::On);
        sim.clock_n(1_000);
        sim.set_skip_mode(SkipMode::Off);
        sim.clock_n(17);
        assert_eq!(sim.cycle(), 1_117);
        // A reference run that never skipped lands on the same state.
        let mut reference = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        reference.clock_n(1_117);
        assert_eq!(sim.state_fingerprint(), reference.state_fingerprint());
    }

    #[test]
    fn latency_stats_accumulate() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        for _ in 0..4 {
            let tag = sim
                .send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![])
                .unwrap()
                .unwrap();
            sim.run_until_response(0, 0, tag, 100).unwrap();
        }
        let stats = sim.stats(0).unwrap();
        assert_eq!(stats.latency.count(), 4);
        assert_eq!(stats.latency.min(), 3);
        assert_eq!(stats.class_latency.read.count(), 4, "Rd16 round trips are class read");
    }

    /// A CMC operation that panics when executed.
    struct Bomb;

    impl CmcOp for Bomb {
        fn register(&self) -> hmc_cmc::CmcRegistration {
            hmc_cmc::CmcRegistration::new("hmc_bomb", 125, 1, 1, HmcResponse::WrRs)
        }
        fn execute(
            &self,
            _: &mut hmc_cmc::CmcContext<'_>,
        ) -> Result<hmc_cmc::CmcResult, HmcError> {
            panic!("bomb went off")
        }
        fn name(&self) -> &str {
            "hmc_bomb"
        }
    }

    #[test]
    fn a_cmc_panic_surfaces_from_clock_and_the_context_still_drops() {
        // Whichever cube the panicking operation runs on, the panic must
        // come out of `clock()`, and dropping the context afterwards must
        // not panic again.
        for armed in [1usize, 0] {
            let config = SimConfig::chain(DeviceConfig::gen2_4link_4gb(), 2);
            let mut sim = HmcSim::with_config(config).unwrap();
            sim.load_cmc(armed, Box::new(Bomb)).unwrap();
            sim.send_cmc(armed, 0, 125, 0x40, vec![]).unwrap();
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.clock_n(10)))
                .expect_err("the operation's panic reaches the caller");
            assert_eq!(panic.downcast_ref::<&str>(), Some(&"bomb went off"), "cube {armed}");
            drop(sim);
        }
    }
}
