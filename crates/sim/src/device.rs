//! The single-cube device model.
//!
//! A [`Device`] mirrors the Gen2 hardware structure HMC-Sim models:
//! per-link crossbar request/response queues, 32 vaults each with a
//! bounded request queue and response queue fronting its DRAM banks,
//! the backing memory, the CMC registration table, the register file
//! and the statistics/power accounting.
//!
//! The clock advances in four stages per cycle, executed in reverse
//! pipeline order so a packet moves through at most one stage per
//! cycle:
//!
//! 1. vault response queues → crossbar response queues
//! 2. crossbar response queues → host delivery (handled by the
//!    simulation context, same cycle as stage 1 — the response path
//!    costs one cycle end-to-end)
//! 3. vault execution (the `hmcsim_process_rqst` equivalent)
//! 4. crossbar request queues → vault request queues
//!
//! giving an uncontended request a three-cycle round trip.

use crate::addr::AddressMap;
use crate::config::{DeviceConfig, SpecRevision};
use crate::dram::Bank;
use crate::fault::{FaultRng, ERRSTAT_VAULT_FAULT};
use crate::timing::{TimingEngine, TimingSelect, TimingStats};
use crate::power::PowerModel;
use crate::queue::{BoundedQueue, FreeList};
use crate::regs::RegisterFile;
use crate::snapshot::DeviceSnapshot;
use crate::stats::DeviceStats;
use crate::trace::{CmdRef, TraceKind, TraceLevel, TraceRecord, Tracer};
use hmc_cmc::{CmcContext, CmcRegistry};
use hmc_mem::SparseMemory;
use hmc_types::packet::payload_words;
use hmc_types::rsp::HmcResponse;
use hmc_types::{
    CmdKind, Cub, HmcError, HmcRqst, PayloadBuf, ReqHead, ReqTail, Request, Response, RspHead,
    RspTail, Slid, Tag,
};

/// A request in flight inside the simulator, carrying the host-side
/// bookkeeping the C implementation keeps in its packet envelopes.
#[derive(Debug, Clone)]
pub struct TrackedRequest {
    /// The wire packet.
    pub req: Request,
    /// The device index the host injected the packet into.
    pub entry_device: usize,
    /// The link the packet entered on.
    pub entry_link: usize,
    /// Simulation cycle at injection.
    pub issue_cycle: u64,
    /// Chained-device hops traversed so far.
    pub hops: u32,
    /// Earliest cycle the vault may execute this request (set by the
    /// crossbar when the target quad is remote to the entry link).
    pub ready_cycle: u64,
    /// Cycle the crossbar handed the request to its vault queue
    /// (lifecycle span stamp; written unconditionally so telemetry
    /// state never influences simulation state).
    pub vault_enq_cycle: u64,
}

impl TrackedRequest {
    /// Placeholder contents of a freshly allocated request envelope;
    /// `HmcSim`'s send paths overwrite every field before it is queued.
    fn blank() -> Self {
        TrackedRequest {
            req: Request {
                head: ReqHead::new(HmcRqst::Null, Tag::default(), 0, Cub::default()),
                payload: PayloadBuf::new(),
                tail: ReqTail::default(),
            },
            entry_device: 0,
            entry_link: 0,
            issue_cycle: 0,
            hops: 0,
            ready_cycle: 0,
            vault_enq_cycle: 0,
        }
    }
}

/// A response in flight, annotated with completion data.
#[derive(Debug, Clone)]
pub struct TrackedResponse {
    /// The wire packet.
    pub rsp: Response,
    /// Cycle the originating request was injected.
    pub issue_cycle: u64,
    /// Cycle the response became visible to the host (set at
    /// delivery).
    pub complete_cycle: u64,
    /// Round-trip latency in cycles (set at delivery).
    pub latency: u64,
    /// The device the originating request entered through.
    pub entry_device: usize,
    /// The link the response must be delivered on.
    pub entry_link: usize,
    /// Command class of the originating request (per-class latency
    /// accounting).
    pub class: crate::stats::CmdClass,
    /// Pipeline-stage timestamps for the lifecycle span (written
    /// unconditionally; only *recorded* into histograms when telemetry
    /// is enabled).
    pub stages: crate::telemetry::StageStamps,
}

impl TrackedResponse {
    /// Placeholder contents of a freshly allocated response envelope;
    /// stage 3 overwrites every field before the envelope is queued.
    fn blank() -> Self {
        TrackedResponse {
            rsp: Response {
                head: RspHead {
                    cmd: HmcResponse::RspNone,
                    lng: 1,
                    tag: Tag::default(),
                    af: false,
                    slid: Slid::default(),
                    cub: Cub::default(),
                },
                payload: PayloadBuf::new(),
                tail: RspTail::default(),
            },
            issue_cycle: 0,
            complete_cycle: 0,
            latency: 0,
            entry_device: 0,
            entry_link: 0,
            class: crate::stats::CmdClass::Other,
            stages: Default::default(),
        }
    }
}

/// A request's heap envelope: drawn and written in place by the send
/// paths of `HmcSim`, moved as a pointer through every queue, retired
/// after stage 3.
pub(crate) type RqstEnvelope = Box<TrackedRequest>;

/// A response's heap envelope: filled in place at stage 3, moved as a
/// pointer to the host receive buffer, copied out and retired at
/// `HmcSim::recv`.
pub(crate) type RspEnvelope = Box<TrackedResponse>;

/// The free lists retired envelopes return to. Owned by the
/// simulation context and lent to the device stages that create or
/// retire envelopes, the way the tracer is. Not simulation state:
/// never snapshotted, never fingerprinted.
#[derive(Debug, Default)]
pub(crate) struct EnvelopePool {
    pub(crate) rqst: FreeList<TrackedRequest>,
    pub(crate) rsp: FreeList<TrackedResponse>,
}

impl EnvelopePool {
    /// A request envelope for a send path to fill in place.
    pub(crate) fn request(&mut self) -> RqstEnvelope {
        self.rqst.stale_or(TrackedRequest::blank)
    }

    /// A response envelope for stage 3 to fill in place.
    pub(crate) fn response(&mut self) -> RspEnvelope {
        self.rsp.stale_or(TrackedResponse::blank)
    }
}

/// One vault: its request and response queues. Its banks are a run of
/// the device's one bank array (see [`Device`]).
#[derive(Debug, Clone)]
pub(crate) struct Vault {
    pub(crate) rqst: BoundedQueue<RqstEnvelope>,
    pub(crate) rsp: BoundedQueue<RspEnvelope>,
}

impl Vault {
    fn new(depth: usize) -> Self {
        Vault { rqst: BoundedQueue::new(depth), rsp: BoundedQueue::new(depth) }
    }
}

/// Which of a device's vaults have a non-empty queue in one direction,
/// one bit per vault. A hint for the per-cycle vault walks, derived
/// from the queues and never the other way round: not snapshotted, not
/// fingerprinted, rebuilt by [`Device::restore_state`] and checked
/// against the queues by [`Device::audit_queues`].
#[derive(Debug, Clone)]
struct VaultSet(Vec<u64>);

impl VaultSet {
    fn new(vaults: usize) -> Self {
        VaultSet(vec![0; vaults.div_ceil(64)])
    }

    fn set(&mut self, vault: usize, on: bool) {
        let bit = 1u64 << (vault % 64);
        if on {
            self.0[vault / 64] |= bit;
        } else {
            self.0[vault / 64] &= !bit;
        }
    }

    fn contains(&self, vault: usize) -> bool {
        self.0[vault / 64] & (1 << (vault % 64)) != 0
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&word| word == 0)
    }

    /// The lowest member at or above `from`. Walking a set with this
    /// (rather than an iterator borrowing it) lets the loop body update
    /// the set; each visit sees the members as they are then.
    fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = *self.0.get(w)? & (!0 << (from % 64));
        while word == 0 {
            w += 1;
            word = *self.0.get(w)?;
        }
        Some(w * 64 + word.trailing_zeros() as usize)
    }

    /// The members in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut from = 0;
        std::iter::from_fn(move || {
            let vault = self.next_from(from)?;
            from = vault + 1;
            Some(vault)
        })
    }
}

/// One device's fingerprinted state, borrowed from a live [`Device`]
/// or from a [`crate::snapshot::DeviceSnapshot`]: everything dynamic
/// except the timing backend's observation record.
pub(crate) struct DeviceView<'a> {
    pub(crate) xbar_rqst: &'a [BoundedQueue<RqstEnvelope>],
    pub(crate) xbar_rsp: &'a [BoundedQueue<RspEnvelope>],
    pub(crate) vaults: &'a [Vault],
    /// Every vault's banks, vault after vault.
    pub(crate) banks: &'a [Bank],
    /// How many of `banks` each vault holds, when listed (a snapshot,
    /// which may not fit its context); `None` splits them evenly, as a
    /// live device holds them.
    pub(crate) vault_banks: Option<&'a [usize]>,
    pub(crate) mem: &'a SparseMemory,
    pub(crate) regs: &'a RegisterFile,
    pub(crate) stats: &'a DeviceStats,
    pub(crate) power: &'a PowerModel,
    pub(crate) fault_rng: &'a FaultRng,
    pub(crate) link_up: &'a [bool],
    pub(crate) fault_idx: usize,
}

impl<'a> DeviceView<'a> {
    /// Each vault beside its banks, in vault order.
    pub(crate) fn vaults_with_banks(&self) -> impl Iterator<Item = (&'a Vault, &'a [Bank])> {
        let even = self.banks.len() / self.vaults.len().max(1);
        let (counts, mut rest) = (self.vault_banks, self.banks);
        self.vaults.iter().enumerate().map(move |(v, vault)| {
            let n = counts.map_or(even, |counts| counts[v]);
            let (banks, tail) = rest.split_at(n);
            rest = tail;
            (vault, banks)
        })
    }
}

/// What the request-routing stage asks the simulation context to do
/// with a packet destined for another cube.
#[derive(Debug)]
pub(crate) struct ForwardRequest {
    pub(crate) item: RqstEnvelope,
    pub(crate) from_link: usize,
}

/// The result of one request-routing stage. Caller-owned and refilled
/// by every [`Device::route_requests`] call, so the per-device,
/// per-cycle stage allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct RouteOutcome {
    /// Packets destined for other cubes.
    pub(crate) forwards: Vec<ForwardRequest>,
    /// FLITs freed from each link's crossbar input buffer this cycle
    /// (the token-return path).
    pub(crate) freed_flits: Vec<u64>,
}

/// A response leaving the device: either for the local host or for a
/// chained neighbour. Delivery carries the physical egress link,
/// which differs from `entry_link` when link failover re-routed the
/// response through a surviving link.
#[derive(Debug)]
pub(crate) enum Egress {
    Deliver(RspEnvelope, usize),
    Forward(RspEnvelope),
}

/// A single simulated HMC device.
#[derive(Debug)]
pub struct Device {
    id: usize,
    config: DeviceConfig,
    map: AddressMap,
    xbar_rqst: Vec<BoundedQueue<RqstEnvelope>>,
    xbar_rsp: Vec<BoundedQueue<RspEnvelope>>,
    vaults: Vec<Vault>,
    /// Every bank of the device, indexed by global bank number
    /// `vault * banks_per_vault + bank` (the number refresh staggers
    /// by).
    banks: Vec<Bank>,
    /// Vaults with a queued request; stages 3 and 4 keep it.
    rqst_waiting: VaultSet,
    /// Vaults with a queued response; stages 1 and 3 keep it.
    rsp_waiting: VaultSet,
    mem: SparseMemory,
    cmc: CmcRegistry,
    regs: RegisterFile,
    stats: DeviceStats,
    power: PowerModel,
    /// The bank-service timing backend (see [`crate::timing`]).
    timing: TimingEngine,
    /// Seeded PRNG for the fault plan's probabilistic draws.
    fault_rng: FaultRng,
    /// Current link state driven by the fault plan's schedule.
    link_up: Vec<bool>,
    /// Next unapplied index into the fault plan's link schedule.
    fault_idx: usize,
    /// The CMC libraries loaded by name, in load order. Last, so the
    /// clock's fields keep their places.
    cmc_libraries: Vec<String>,
}

impl Device {
    /// Builds a device with the given cube id and configuration, using
    /// the default [`TimingSelect::FixedLatency`] backend.
    pub fn new(id: usize, config: DeviceConfig) -> Result<Self, HmcError> {
        Self::with_timing(id, config, TimingSelect::FixedLatency)
    }

    /// Builds a device with an explicit bank-timing backend.
    pub fn with_timing(
        id: usize,
        config: DeviceConfig,
        select: TimingSelect,
    ) -> Result<Self, HmcError> {
        config.validate()?;
        let timing = TimingEngine::new(select, &config);
        let shape = config.shape();
        let xbar_depth = shape.xbar_queue_depth;
        Ok(Device {
            id,
            map: AddressMap::new(&config),
            xbar_rqst: (0..shape.links).map(|_| BoundedQueue::new(xbar_depth)).collect(),
            xbar_rsp: (0..shape.links).map(|_| BoundedQueue::new(xbar_depth)).collect(),
            vaults: (0..shape.vaults).map(|_| Vault::new(shape.vault_queue_depth)).collect(),
            banks: vec![Bank::default(); shape.vaults * shape.banks_per_vault],
            rqst_waiting: VaultSet::new(shape.vaults),
            rsp_waiting: VaultSet::new(shape.vaults),
            mem: SparseMemory::new(shape.capacity),
            cmc: CmcRegistry::new(),
            cmc_libraries: Vec::new(),
            regs: RegisterFile::new(shape.capacity, shape.links),
            stats: DeviceStats::default(),
            power: PowerModel::default(),
            timing,
            fault_rng: FaultRng::new(config.fault.seed.wrapping_add(id as u64)),
            link_up: vec![true; shape.links],
            fault_idx: 0,
            config,
        })
    }

    /// The cube id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The address map.
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Read-only statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// The accumulated power model.
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// The power model, for the clock's leakage phase.
    pub(crate) fn power_mut(&mut self) -> &mut PowerModel {
        &mut self.power
    }

    /// The active bank-timing backend.
    pub fn timing_select(&self) -> TimingSelect {
        self.timing.select()
    }

    /// The timing backend's observation counters (latency-class
    /// histograms).
    pub fn timing_stats(&self) -> &TimingStats {
        &self.timing.stats
    }

    /// Swaps the bank-timing backend, resetting its observation
    /// counters. Bank state proper is untouched.
    pub fn set_timing_model(&mut self, select: TimingSelect) {
        self.timing = TimingEngine::new(select, &self.config);
    }

    /// The CMC registration table.
    pub fn cmc(&self) -> &CmcRegistry {
        &self.cmc
    }

    /// Mutable CMC registration table (used by `hmc_load_cmc`).
    pub fn cmc_mut(&mut self) -> &mut CmcRegistry {
        &mut self.cmc
    }

    /// Records a CMC library loaded by name.
    pub(crate) fn record_cmc_library(&mut self, name: &str) {
        self.cmc_libraries.push(name.to_string());
    }

    /// The active CMC command codes, ascending.
    pub(crate) fn cmc_codes(&self) -> Vec<u8> {
        self.cmc.active().map(|reg| reg.cmd).collect()
    }

    /// The register file (JTAG access path).
    pub fn regs(&self) -> &RegisterFile {
        &self.regs
    }

    /// Mutable register file (JTAG write path).
    pub fn regs_mut(&mut self) -> &mut RegisterFile {
        &mut self.regs
    }

    /// Host backdoor: direct memory read (simulation setup /
    /// verification, like HMC-Sim's direct memory initialization).
    pub fn mem(&self) -> &SparseMemory {
        &self.mem
    }

    /// Host backdoor: direct memory write. The store's mutation
    /// methods take `&self` (interior mutability); the backdoor asks
    /// for `&mut Device` all the same, as a write path should.
    pub fn mem_mut(&mut self) -> &SparseMemory {
        &self.mem
    }

    /// Counts a host-visible send stall (link layer rejected the
    /// packet before it reached the crossbar queue).
    pub(crate) fn count_send_stall(&mut self) {
        self.stats.send_stalls += 1;
    }

    /// True when `link` is currently operational (not taken down by
    /// the fault plan's schedule).
    pub fn link_is_up(&self, link: usize) -> bool {
        self.link_up.get(link).copied().unwrap_or(false)
    }

    /// The fault plan's PRNG (transmission-error draws happen at the
    /// context layer where the link machinery lives).
    pub(crate) fn fault_rng_mut(&mut self) -> &mut FaultRng {
        &mut self.fault_rng
    }

    /// Counts a response dropped at delivery because the host
    /// abandoned its tag.
    pub(crate) fn count_abandoned(&mut self) {
        self.stats.abandoned_responses += 1;
    }

    /// Applies all fault-plan link events scheduled at or before
    /// `cycle`. Called once at the top of every clock.
    pub(crate) fn apply_fault_schedule(&mut self, cycle: u64, tracer: &mut Tracer) {
        while let Some(ev) = self.config.fault.link_schedule.get(self.fault_idx) {
            if ev.cycle > cycle {
                break;
            }
            if self.link_up[ev.link] != ev.up {
                self.link_up[ev.link] = ev.up;
                let kind = if ev.up { TraceKind::LinkUp } else { TraceKind::LinkDown };
                tracer.emit(TraceRecord {
                    dev: self.id as u16,
                    link: ev.link as u8,
                    ..TraceRecord::new(cycle, kind)
                });
            }
            self.fault_idx += 1;
        }
    }

    /// Cycle of the next not-yet-applied fault-plan link event, if
    /// any. The event-horizon engine may not skip past this cycle —
    /// a scheduled link transition must be applied by the full clock
    /// path on time.
    pub(crate) fn next_fault_event(&self) -> Option<u64> {
        self.config.fault.link_schedule.get(self.fault_idx).map(|ev| ev.cycle)
    }

    /// True when `link`'s crossbar request queue can accept a packet.
    pub(crate) fn link_can_accept(&self, link: usize) -> bool {
        link < self.config.links && !self.xbar_rqst[link].is_full()
    }

    /// Injects a packet into a link's crossbar request queue
    /// (`hmc_send_packet`). Returns the envelope on stall so the host
    /// can retry.
    pub(crate) fn send(
        &mut self,
        link: usize,
        item: RqstEnvelope,
    ) -> Result<(), (RqstEnvelope, HmcError)> {
        if link >= self.config.links {
            return Err((item, HmcError::InvalidLink(link)));
        }
        let flits = item.req.flits() as u64;
        match self.xbar_rqst[link].push(item) {
            Ok(()) => {
                self.stats.rqst_flits += flits;
                self.power.add_link_flits(flits);
                Ok(())
            }
            Err((item, e)) => {
                self.stats.send_stalls += 1;
                Err((item, e))
            }
        }
    }

    /// Accepts a packet forwarded from a chained neighbour.
    pub(crate) fn accept_forward(
        &mut self,
        link: usize,
        item: RqstEnvelope,
    ) -> Result<(), (RqstEnvelope, HmcError)> {
        let link = link % self.config.links;
        self.xbar_rqst[link].push(item)
    }

    /// Accepts a response travelling back toward its entry device.
    pub(crate) fn accept_return(
        &mut self,
        link: usize,
        item: RspEnvelope,
    ) -> Result<(), (RspEnvelope, HmcError)> {
        let link = link % self.config.links;
        self.xbar_rsp[link].push(item)
    }

    /// Stage 1: vault response queues → crossbar response queues.
    /// Responses whose entry link is down fail over to the first
    /// surviving up link.
    pub(crate) fn route_responses(&mut self, cycle: u64, tracer: &mut Tracer) {
        // Only vaults holding a response, in vault order: an empty
        // vault's visit does nothing.
        let mut from = 0;
        while let Some(v) = self.rsp_waiting.next_from(from) {
            from = v + 1;
            let vault = &mut self.vaults[v];
            for _ in 0..self.config.vault_bandwidth {
                let Some(rsp) = vault.rsp.peek() else { break };
                let preferred = rsp.entry_link % self.config.links;
                let link = if self.link_up[preferred] {
                    preferred
                } else {
                    // Crossbar failover: first up link after the
                    // preferred one (wrapping); if every link is down
                    // the response keeps its lane and waits there.
                    (1..self.config.links)
                        .map(|i| (preferred + i) % self.config.links)
                        .find(|&l| self.link_up[l])
                        .unwrap_or(preferred)
                };
                if self.xbar_rsp[link].is_full() {
                    self.stats.vault_stalls += 1;
                    tracer.emit(TraceRecord {
                        dev: self.id as u16,
                        vault: v as u16,
                        link: link as u8,
                        ..TraceRecord::new(cycle, TraceKind::XbarRspFull)
                    });
                    break;
                }
                if link != preferred {
                    self.stats.failover_responses += 1;
                    tracer.emit(TraceRecord {
                        dev: self.id as u16,
                        vault: v as u16,
                        link: link as u8,
                        a: preferred as u64,
                        tag: rsp.rsp.head.tag.value(),
                        ..TraceRecord::new(cycle, TraceKind::Failover)
                    });
                }
                let mut rsp = vault.rsp.pop().expect("peeked");
                rsp.stages.rsp_route = cycle;
                self.xbar_rsp[link]
                    .push(rsp)
                    .unwrap_or_else(|_| unreachable!("checked not full"));
            }
            self.rsp_waiting.set(v, !vault.rsp.is_empty());
        }
    }

    /// Stage 2: crossbar response queues → egress (host delivery or
    /// chained return), appended to the caller's buffer. The
    /// simulation context completes delivery.
    pub(crate) fn drain_responses(&mut self, cycle: u64, out: &mut Vec<Egress>) {
        for link in 0..self.config.links {
            if !self.link_up[link] {
                // A downed link transmits nothing; queued responses
                // wait for link-up (or for failover of new traffic).
                continue;
            }
            for _ in 0..self.config.link_bandwidth {
                let Some(mut rsp) = self.xbar_rsp[link].pop() else { break };
                rsp.stages.egress = cycle;
                let flits = rsp.rsp.flits() as u64;
                if rsp.entry_device == self.id {
                    self.stats.rsp_flits += flits;
                    self.power.add_link_flits(flits);
                    out.push(Egress::Deliver(rsp, link));
                } else {
                    out.push(Egress::Forward(rsp));
                }
            }
        }
    }

    /// Pulls toward the host cache what stage 3 of `cycle` is about to
    /// wait for: for every request [`Device::execute_vaults`] may run —
    /// the ready ones among each vault's first `vault_bandwidth` — the
    /// bank record it tests first and every host line of the memory the
    /// request addresses (its command's `data_bytes`). The loads of all
    /// of them are issued back to back, so their misses overlap instead
    /// of each stalling the execution of its own request.
    ///
    /// Purely a hint, like the [`VaultSet`]s: it reads through `&self`
    /// and discards what it read, materializes no page and moves no
    /// queue statistic, so the state after stage 3 is the same however
    /// often — or never — it ran. It may warm a request stage 3 then
    /// leaves queued (a busy bank, a full response queue) and skips the
    /// far page of a span that straddles two.
    pub(crate) fn warm_vault_heads(&self, cycle: u64) {
        for v in self.rqst_waiting.iter() {
            let vault = &self.vaults[v];
            for head in vault.rqst.iter().take(self.config.vault_bandwidth) {
                if head.ready_cycle > cycle {
                    break;
                }
                let addr = head.req.head.addr;
                if let Ok(loc) = self.map.decompose(addr) {
                    let per_vault = self.config.banks_per_vault;
                    let bank = v * per_vault + loc.bank as usize % per_vault;
                    std::hint::black_box(self.banks[bank].is_busy(cycle));
                }
                let bytes = head.req.head.cmd.fixed_info().map_or(0, |i| i.data_bytes);
                self.mem.touch(addr, bytes as usize);
            }
        }
    }

    /// Stage 3: vault execution — the `hmcsim_process_rqst`
    /// equivalent. Returns the number of requests retired *without* a
    /// response (posted writes, flow packets, posted vault faults) —
    /// the sanitizer's "absorbed" tally for packet conservation.
    ///
    /// Envelopes change hands here: each executed request's envelope
    /// retires to `pool`, and its response is built in place in an
    /// envelope drawn from `pool`.
    pub(crate) fn execute_vaults(
        &mut self,
        cycle: u64,
        tracer: &mut Tracer,
        pool: &mut EnvelopePool,
    ) -> u64 {
        let mut absorbed = 0u64;
        let Device {
            id,
            config,
            map,
            vaults,
            banks,
            rqst_waiting,
            rsp_waiting,
            mem,
            cmc,
            regs,
            stats,
            power,
            timing,
            fault_rng,
            ..
        } = self;
        // Only vaults holding a request, in vault order: an empty
        // vault's visit does nothing.
        let mut from = 0;
        while let Some(vidx) = rqst_waiting.next_from(from) {
            from = vidx + 1;
            let vault = &mut vaults[vidx];
            for _ in 0..config.vault_bandwidth {
                let Some(head) = vault.rqst.peek() else { break };
                if head.ready_cycle > cycle {
                    // Still crossing the quad fabric.
                    break;
                }
                let addr = head.req.head.addr;
                let loc = match map.decompose(addr) {
                    Ok(loc) => loc,
                    Err(_) => {
                        // Out-of-range addresses produce error
                        // responses; fabricate a location for
                        // bookkeeping.
                        crate::addr::Location { quad: 0, vault: vidx as u32, bank: 0, row: 0, offset: 0 }
                    }
                };
                let bank = loc.bank as usize % config.banks_per_vault;
                let global_bank = vidx * config.banks_per_vault + bank;
                if timing.refreshing(cycle, global_bank as u64) {
                    stats.vault_stalls += 1;
                    tracer.emit(TraceRecord {
                        dev: *id as u16,
                        vault: vidx as u16,
                        bank: bank as u16,
                        ..TraceRecord::new(cycle, TraceKind::Refresh)
                    });
                    break;
                }
                if banks[global_bank].is_busy(cycle) {
                    stats.vault_stalls += 1;
                    tracer.emit(TraceRecord {
                        dev: *id as u16,
                        vault: vidx as u16,
                        bank: bank as u16,
                        ..TraceRecord::new(cycle, TraceKind::BankBusy)
                    });
                    break;
                }
                let posted = is_posted(&head.req, cmc);
                if !posted && vault.rsp.is_full() {
                    stats.vault_stalls += 1;
                    tracer.emit(TraceRecord {
                        dev: *id as u16,
                        vault: vidx as u16,
                        ..TraceRecord::new(cycle, TraceKind::VaultRspFull)
                    });
                    break;
                }
                let item = vault.rqst.pop().expect("peeked");
                let mut out = pool.response();
                // Injected vault internal error: the controller
                // answers with ERRSTAT before touching DRAM, so the
                // request has no side effects and a host retry is
                // always safe.
                if fault_rng.chance(config.fault.vault_error_per_million) {
                    stats.vault_faults += 1;
                    stats.error_responses += 1;
                    tracer.emit(TraceRecord {
                        dev: *id as u16,
                        vault: vidx as u16,
                        tag: item.req.head.tag.value(),
                        a: ERRSTAT_VAULT_FAULT as u64,
                        ..TraceRecord::new(cycle, TraceKind::VaultFault)
                    });
                    if !posted {
                        stats.responses += 1;
                        error_response(&mut out, *id, &item, cycle, ERRSTAT_VAULT_FAULT);
                        vault
                            .rsp
                            .push(out)
                            .unwrap_or_else(|_| unreachable!("rsp queue checked above"));
                    } else {
                        absorbed += 1;
                        pool.rsp.give(out);
                    }
                    pool.rqst.give(item);
                    continue;
                }
                timing.serve(&mut banks[global_bank], cycle, loc.row, global_bank as u64);
                power.add_dram_access();
                let responded = execute_request(
                    *id, config, &item, &loc, mem, cmc, regs, stats, power, cycle, tracer,
                    &mut out,
                );
                if responded {
                    // Poison: a read response may be delivered with
                    // the data-invalid bit set. Reads are idempotent,
                    // so the host can safely re-issue.
                    if matches!(out.rsp.head.cmd, HmcResponse::RdRs | HmcResponse::MdRdRs)
                        && fault_rng.chance(config.fault.poison_per_million)
                    {
                        out.rsp.tail.dinv = true;
                        stats.poisoned_responses += 1;
                        tracer.emit(TraceRecord {
                            dev: *id as u16,
                            vault: vidx as u16,
                            tag: item.req.head.tag.value(),
                            ..TraceRecord::new(cycle, TraceKind::Poison)
                        });
                    }
                    stats.responses += 1;
                    vault
                        .rsp
                        .push(out)
                        .unwrap_or_else(|_| unreachable!("rsp queue checked above"));
                } else {
                    absorbed += 1;
                    pool.rsp.give(out);
                }
                pool.rqst.give(item);
            }
            rqst_waiting.set(vidx, !vault.rqst.is_empty());
            rsp_waiting.set(vidx, !vault.rsp.is_empty());
        }
        absorbed
    }

    /// Stage 4: crossbar request queues → vault request queues, or
    /// hand packets for other cubes back to the simulation context.
    /// `out` is reset and refilled.
    pub(crate) fn route_requests(
        &mut self,
        cycle: u64,
        tracer: &mut Tracer,
        out: &mut RouteOutcome,
    ) {
        out.forwards.clear();
        out.freed_flits.clear();
        out.freed_flits.resize(self.config.links, 0);
        // Arbitration: fixed priority serves links in index order;
        // round-robin rotates the first-served link each cycle.
        let start = match self.config.arbitration {
            crate::config::Arbitration::FixedPriority => 0,
            crate::config::Arbitration::RoundRobin => (cycle as usize) % self.config.links,
        };
        for i in 0..self.config.links {
            let link = (start + i) % self.config.links;
            for _ in 0..self.config.link_bandwidth {
                let Some(head) = self.xbar_rqst[link].peek() else { break };
                if head.req.head.cub.value() as usize != self.id {
                    let item = self.xbar_rqst[link].pop().expect("peeked");
                    self.stats.forwarded += 1;
                    out.freed_flits[link] += item.req.flits() as u64;
                    out.forwards.push(ForwardRequest { item, from_link: link });
                    continue;
                }
                let vault = match self.map.decompose(head.req.head.addr) {
                    Ok(loc) => loc.vault as usize,
                    Err(_) => 0, // error surfaces at execution
                };
                if self.vaults[vault].rqst.is_full() {
                    self.stats.xbar_stalls += 1;
                    tracer.emit(TraceRecord {
                        dev: self.id as u16,
                        link: link as u8,
                        vault: vault as u16,
                        ..TraceRecord::new(cycle, TraceKind::VaultRqstFull)
                    });
                    break;
                }
                let mut item = self.xbar_rqst[link].pop().expect("peeked");
                item.vault_enq_cycle = cycle;
                out.freed_flits[link] += item.req.flits() as u64;
                // Quad affinity: link i is local to quad i % QUADS;
                // requests for other quads pay the crossing penalty.
                if self.config.remote_quad_penalty > 0 {
                    let target_quad = vault / self.config.vaults_per_quad;
                    if target_quad != link % DeviceConfig::QUADS {
                        // Execution normally starts next cycle; the
                        // penalty delays it by that many extra cycles.
                        item.ready_cycle = cycle + 1 + self.config.remote_quad_penalty;
                        self.stats.remote_quad_requests += 1;
                    }
                }
                tracer.emit(TraceRecord {
                    dev: self.id as u16,
                    link: link as u8,
                    vault: vault as u16,
                    a: (self.vaults[vault].rqst.len() + 1) as u64,
                    ..TraceRecord::new(cycle, TraceKind::XbarToVault)
                });
                self.vaults[vault]
                    .rqst
                    .push(item)
                    .unwrap_or_else(|_| unreachable!("checked not full"));
                self.rqst_waiting.set(vault, true);
            }
        }
    }

    /// Aggregate row-buffer statistics across all banks:
    /// `(row_hits, row_misses)`.
    pub fn row_buffer_stats(&self) -> (u64, u64) {
        self.banks.iter().fold((0, 0), |(h, m), b| (h + b.row_hits, m + b.row_misses))
    }

    /// Packets currently resident in any device queue (crossbar or
    /// vault, either direction). Zero means the device is quiescent.
    pub fn pending_work(&self) -> usize {
        self.xbar_rqst.iter().map(|q| q.len()).sum::<usize>()
            + self.xbar_rsp.iter().map(|q| q.len()).sum::<usize>()
            + self.rqst_waiting.iter().map(|v| self.vaults[v].rqst.len()).sum::<usize>()
            + self.rsp_waiting.iter().map(|v| self.vaults[v].rsp.len()).sum::<usize>()
    }

    /// True when any device queue holds a packet:
    /// `pending_work() != 0`, decided at the first packet found rather
    /// than by counting them all.
    pub(crate) fn has_work(&self) -> bool {
        !self.rqst_waiting.is_empty()
            || !self.rsp_waiting.is_empty()
            || self.xbar_rqst.iter().any(|q| !q.is_empty())
            || self.xbar_rsp.iter().any(|q| !q.is_empty())
    }

    /// FLITs currently held in one link's crossbar request queue (the
    /// sanitizer's token-conservation check: these FLITs back the
    /// link's outstanding tokens).
    pub(crate) fn xbar_rqst_flits(&self, link: usize) -> u64 {
        self.xbar_rqst
            .get(link)
            .map_or(0, |q| q.iter().map(|i| i.req.flits() as u64).sum())
    }

    /// First queue whose occupancy exceeds its configured depth, or
    /// first vault queue whose occupancy bit disagrees with it, if any
    /// (sanitizer structural check; the first is unreachable through
    /// [`BoundedQueue`]'s own API, so a hit means memory corruption or
    /// a restore from a mismatched snapshot; the second means a stage
    /// moved a packet without keeping its [`VaultSet`], and the vault
    /// walks would skip — or needlessly visit — that vault). The
    /// sanitizer asks only once [`Device::audit_queues`] has found one.
    #[cold]
    pub(crate) fn queue_bound_violation(&self) -> Option<String> {
        for (link, q) in self.xbar_rqst.iter().enumerate() {
            if q.len() > q.depth() {
                return Some(format!("xbar rqst link {link}: {} > depth {}", q.len(), q.depth()));
            }
        }
        for (link, q) in self.xbar_rsp.iter().enumerate() {
            if q.len() > q.depth() {
                return Some(format!("xbar rsp link {link}: {} > depth {}", q.len(), q.depth()));
            }
        }
        for (v, vault) in self.vaults.iter().enumerate() {
            if vault.rqst.len() > vault.rqst.depth() {
                return Some(format!(
                    "vault {v} rqst: {} > depth {}",
                    vault.rqst.len(),
                    vault.rqst.depth()
                ));
            }
            if vault.rsp.len() > vault.rsp.depth() {
                return Some(format!(
                    "vault {v} rsp: {} > depth {}",
                    vault.rsp.len(),
                    vault.rsp.depth()
                ));
            }
            for (dir, marked, len) in [
                ("rqst", self.rqst_waiting.contains(v), vault.rqst.len()),
                ("rsp", self.rsp_waiting.contains(v), vault.rsp.len()),
            ] {
                if marked != (len != 0) {
                    return Some(format!(
                        "vault {v} {dir}: occupancy bit {marked} but {len} queued"
                    ));
                }
            }
        }
        None
    }

    /// The sanitizer's one walk of the queues: appends every queue's
    /// occupancy to `sig` in a fixed order (the stall watchdog's
    /// progress signature) and returns [`Device::pending_work`], or
    /// `None` when [`Device::queue_bound_violation`] would name a
    /// fault. The occupancy bits are compared a [`VaultSet`] word at a
    /// time; bits that agree with the queues make the sum over every
    /// vault the sum over the marked ones.
    pub(crate) fn audit_queues(&self, sig: &mut Vec<u64>) -> Option<usize> {
        let (mut pending, mut over) = (0, false);
        let mut note = |len: usize, depth: usize| {
            sig.push(len as u64);
            pending += len;
            over |= len > depth;
        };
        self.xbar_rqst.iter().for_each(|q| note(q.len(), q.depth()));
        self.xbar_rsp.iter().for_each(|q| note(q.len(), q.depth()));
        let mut drift = false;
        for (word, vaults) in self.vaults.chunks(64).enumerate() {
            let mut occupied = [0u64; 2];
            for (bit, v) in vaults.iter().enumerate() {
                note(v.rqst.len(), v.rqst.depth());
                note(v.rsp.len(), v.rsp.depth());
                occupied[0] |= u64::from(!v.rqst.is_empty()) << bit;
                occupied[1] |= u64::from(!v.rsp.is_empty()) << bit;
            }
            drift |= occupied != [self.rqst_waiting.0[word], self.rsp_waiting.0[word]];
        }
        (!over && !drift).then_some(pending)
    }

    /// Borrows the state the fingerprint covers.
    pub(crate) fn state_view(&self) -> DeviceView<'_> {
        DeviceView {
            xbar_rqst: &self.xbar_rqst,
            xbar_rsp: &self.xbar_rsp,
            vaults: &self.vaults,
            banks: &self.banks,
            vault_banks: None,
            mem: &self.mem,
            regs: &self.regs,
            stats: &self.stats,
            power: &self.power,
            fault_rng: &self.fault_rng,
            link_up: &self.link_up,
            fault_idx: self.fault_idx,
        }
    }

    /// Copies the device's dynamic state into a snapshot; memory pages
    /// are shared with it copy-on-write.
    pub(crate) fn snapshot_state(&self) -> DeviceSnapshot {
        DeviceSnapshot {
            xbar_rqst: self.xbar_rqst.clone(),
            xbar_rsp: self.xbar_rsp.clone(),
            vaults: self.vaults.clone(),
            banks: self.banks.clone(),
            vault_banks: vec![self.config.banks_per_vault; self.vaults.len()],
            mem: self.mem.clone(),
            regs: self.regs.clone(),
            stats: self.stats.clone(),
            power: self.power.clone(),
            fault_rng: self.fault_rng.clone(),
            link_up: self.link_up.clone(),
            fault_idx: self.fault_idx,
            timing: self.timing.snapshot(),
            cmc_libraries: self.cmc_libraries.clone(),
            cmc_codes: self.cmc_codes(),
        }
    }

    /// Restores the device's dynamic state from a snapshot that fits
    /// its configuration's shape (static parts — configuration, address
    /// map, CMC registry — are kept).
    pub(crate) fn restore_state(&mut self, s: &DeviceSnapshot) {
        self.xbar_rqst = s.xbar_rqst.clone();
        self.xbar_rsp = s.xbar_rsp.clone();
        self.vaults = s.vaults.clone();
        self.banks.clone_from(&s.banks);
        for (v, vault) in self.vaults.iter().enumerate() {
            self.rqst_waiting.set(v, !vault.rqst.is_empty());
            self.rsp_waiting.set(v, !vault.rsp.is_empty());
        }
        self.mem = s.mem.clone();
        self.regs = s.regs.clone();
        self.stats = s.stats.clone();
        self.power = s.power.clone();
        self.fault_rng = s.fault_rng.clone();
        self.link_up = s.link_up.clone();
        self.fault_idx = s.fault_idx;
        self.timing = TimingEngine::from_snapshot(&s.timing, &self.config);
    }

    /// Test backdoor: pushes a response directly into a crossbar
    /// response queue, bypassing injection accounting — used to
    /// exercise the sanitizer's phantom-response detection.
    #[doc(hidden)]
    pub fn debug_inject_response(&mut self, link: usize, item: TrackedResponse) {
        let link = link % self.config.links;
        let _ = self.xbar_rsp[link].push(Box::new(item));
    }

    /// Total crossbar-queue stall count (for diagnostics).
    pub fn xbar_queue_stalls(&self) -> u64 {
        self.xbar_rqst.iter().map(|q| q.stalls()).sum()
    }

    /// Highest vault request-queue occupancy observed.
    pub fn vault_queue_high_water(&self) -> usize {
        self.vaults.iter().map(|v| v.rqst.high_water()).max().unwrap_or(0)
    }

    /// Records a completed-request latency under its command class
    /// (delivery happens at the context level, but the counter belongs
    /// to the entry device).
    pub(crate) fn record_latency(&mut self, class: crate::stats::CmdClass, latency: u64) {
        self.stats.record_latency(class, latency);
    }

    /// Total occupancy of all vault request queues (the telemetry
    /// queue-occupancy time series samples this once per window).
    pub fn vault_rqst_occupancy(&self) -> u64 {
        self.vaults.iter().map(|v| v.rqst.len() as u64).sum()
    }

    /// Cumulative requests accepted into vault request queues (queue
    /// throughput for the telemetry registry).
    pub fn vault_rqst_pushes(&self) -> u64 {
        self.vaults.iter().map(|v| v.rqst.pushes()).sum()
    }
}

/// Postedness of a request: fixed for standard commands, registry-
/// defined for CMC commands (unknown CMC commands are treated as
/// non-posted so the host receives the error response).
fn is_posted(req: &Request, cmc: &CmcRegistry) -> bool {
    match req.head.cmd {
        HmcRqst::Cmc(code) => cmc
            .lookup(code)
            .map(|op| op.registration().is_posted())
            .unwrap_or(false),
        cmd => cmd.is_posted(),
    }
}

/// Completes `out` as the response to `item`: the header (LNG follows
/// from the payload already in `out`), a clean tail and the in-flight
/// bookkeeping copied from the request. This is the single
/// construction point for stage-3 responses, and it overwrites every
/// field of a recycled envelope except the payload — the exhaustive
/// destructuring makes a newly added field a compile error here rather
/// than stale data in a fingerprint.
fn finish_response(
    out: &mut TrackedResponse,
    dev: usize,
    item: &TrackedRequest,
    cycle: u64,
    cmd: HmcResponse,
    af: bool,
) {
    let TrackedResponse {
        rsp: Response { head, payload, tail },
        issue_cycle,
        complete_cycle,
        latency,
        entry_device,
        entry_link,
        class,
        stages,
    } = out;
    *head = RspHead {
        cmd,
        lng: (1 + payload.len() / 2) as u8,
        tag: item.req.head.tag,
        af,
        slid: Slid::new((item.entry_link % 8) as u8).expect("link < 8"),
        cub: Cub::new(dev as u8).expect("contexts hold at most Cub::MAX_CUBES devices"),
    };
    *tail = RspTail::default();
    *issue_cycle = item.issue_cycle;
    *complete_cycle = 0;
    *latency = 0;
    *entry_device = item.entry_device;
    *entry_link = item.entry_link;
    *class = crate::stats::CmdClass::of(item.req.head.cmd.kind());
    *stages = crate::telemetry::StageStamps {
        vault_enq: item.vault_enq_cycle,
        exec: cycle,
        ..Default::default()
    };
}

/// Fills `out` with a data-less success response (write and mode-write
/// acknowledgements, ack-only atomics).
fn ack_response(
    out: &mut TrackedResponse,
    dev: usize,
    item: &TrackedRequest,
    cycle: u64,
    cmd: HmcResponse,
    af: bool,
) {
    out.rsp.payload.clear();
    finish_response(out, dev, item, cycle, cmd, af);
}

/// Fills `out` with the error response for a failed request.
fn error_response(
    out: &mut TrackedResponse,
    dev: usize,
    item: &TrackedRequest,
    cycle: u64,
    errstat: u8,
) {
    ack_response(out, dev, item, cycle, HmcResponse::Error, false);
    out.rsp.tail.errstat = errstat;
}

/// Books a failed request: counts the error and, unless the command
/// was posted, answers it with `errstat`. Returns whether `out` holds
/// a response.
fn reject(
    stats: &mut DeviceStats,
    out: &mut TrackedResponse,
    dev: usize,
    item: &TrackedRequest,
    cycle: u64,
    errstat: u8,
    posted: bool,
) -> bool {
    stats.error_responses += 1;
    if !posted {
        error_response(out, dev, item, cycle, errstat);
    }
    !posted
}

/// Executes one request against the device state — the single stage-3
/// execution core. The response is built in place in `out`, a
/// (possibly recycled) envelope: read data lands directly in its
/// payload. Returns whether `out` now holds a response; `false` (posted
/// and flow commands) leaves it unspecified and the caller recycles it.
#[allow(clippy::too_many_arguments)]
fn execute_request(
    dev: usize,
    config: &DeviceConfig,
    item: &TrackedRequest,
    loc: &crate::addr::Location,
    mem: &SparseMemory,
    cmc: &CmcRegistry,
    regs: &mut RegisterFile,
    stats: &mut DeviceStats,
    power: &mut PowerModel,
    cycle: u64,
    tracer: &mut Tracer,
    out: &mut TrackedResponse,
) -> bool {
    let cmd = item.req.head.cmd;
    let addr = item.req.head.addr;
    let kind = cmd.kind();
    stats.count_kind(kind);

    // One record template covers every command: the mnemonic is
    // derived from the command code at render time, so nothing is
    // formatted or allocated here.
    let cmd_rec = TraceRecord {
        dev: dev as u16,
        quad: loc.quad as u8,
        vault: loc.vault as u16,
        bank: loc.bank as u16,
        tag: item.req.head.tag.value(),
        cmd: CmdRef::Rqst(cmd),
        a: addr,
        ..TraceRecord::new(cycle, TraceKind::Cmd)
    };

    let fail = |stats: &mut DeviceStats, out: &mut TrackedResponse, errstat: u8, posted: bool| {
        reject(stats, out, dev, item, cycle, errstat, posted)
    };

    // Revision gate: a Gen1 part rejects Gen2-only commands with an
    // error response (HMC-Sim 1.0 never accepted them).
    if !config.revision.supports(cmd) {
        tracer.emit(TraceRecord {
            b: matches!(config.revision, SpecRevision::Gen2) as u64,
            ..TraceRecord { kind: TraceKind::CmdReject, ..cmd_rec }
        });
        return fail(stats, out, 0x20, cmd.is_posted());
    }

    match kind {
        CmdKind::Flow => {
            tracer.emit(cmd_rec);
            false
        }
        CmdKind::Read => {
            tracer.emit(cmd_rec);
            let bytes = cmd.fixed_info().expect("standard").data_bytes as usize;
            // Sized, not zeroed: a successful read writes every word,
            // a failed one is answered with a cleared payload.
            out.rsp.payload.resize_for_overwrite(bytes / 8);
            match mem.read_words_into(addr, &mut out.rsp.payload) {
                Ok(()) => {
                    finish_response(out, dev, item, cycle, HmcResponse::RdRs, false);
                    true
                }
                Err(_) => fail(stats, out, 0x01, false),
            }
        }
        CmdKind::Write | CmdKind::PostedWrite => {
            tracer.emit(cmd_rec);
            let posted = kind == CmdKind::PostedWrite;
            match mem.write_words(addr, &item.req.payload) {
                Ok(()) => {
                    if !posted {
                        ack_response(out, dev, item, cycle, HmcResponse::WrRs, false);
                    }
                    !posted
                }
                Err(_) => fail(stats, out, 0x01, posted),
            }
        }
        CmdKind::Atomic | CmdKind::PostedAtomic => {
            tracer.emit(cmd_rec);
            power.add_logic_op();
            let posted = kind == CmdKind::PostedAtomic;
            // The atomic's return words land in the response payload.
            let payload = &mut out.rsp.payload;
            match hmc_mem::amo::execute_into(cmd, mem, addr, &item.req.payload, payload) {
                Ok(af) => {
                    let rsp_flits = cmd.fixed_info().expect("standard").rsp_flits;
                    if rsp_flits == 0 {
                        false
                    } else if rsp_flits == 1 {
                        ack_response(out, dev, item, cycle, HmcResponse::WrRs, af);
                        true
                    } else {
                        out.rsp.payload.resize(payload_words(rsp_flits), 0);
                        finish_response(out, dev, item, cycle, HmcResponse::RdRs, af);
                        true
                    }
                }
                Err(_) => fail(stats, out, 0x03, posted),
            }
        }
        CmdKind::ModeRead => {
            tracer.emit(cmd_rec);
            match regs.read(addr as u32) {
                Ok(v) => {
                    out.rsp.payload.copy_from(&[v, 0]);
                    finish_response(out, dev, item, cycle, HmcResponse::MdRdRs, false);
                    true
                }
                Err(_) => fail(stats, out, 0x02, false),
            }
        }
        CmdKind::ModeWrite => {
            tracer.emit(cmd_rec);
            let value = item.req.payload.first().copied().unwrap_or(0);
            match regs.write(addr as u32, value) {
                Ok(()) => {
                    ack_response(out, dev, item, cycle, HmcResponse::MdWrRs, false);
                    true
                }
                Err(_) => fail(stats, out, 0x02, false),
            }
        }
        CmdKind::Cmc => {
            let HmcRqst::Cmc(code) = cmd else { unreachable!("kind Cmc") };
            // Interning only happens when some destination captures
            // command traffic — a quiet tracer keeps the hot CMC path
            // allocation-free.
            let named = |tracer: &Tracer, name: &str| TraceRecord {
                cmd: if tracer.captures(TraceLevel::CMD.with(TraceLevel::CMC)) {
                    CmdRef::Name(tracer.intern(name))
                } else {
                    CmdRef::None
                },
                ..cmd_rec
            };
            let loaded = match cmc.lookup(code) {
                Ok(loaded) => loaded,
                Err(_) => {
                    // Paper §IV-C2: packets for a command not marked
                    // active return an error.
                    tracer.emit(TraceRecord { cmd: CmdRef::Inactive(code), ..cmd_rec });
                    return fail(stats, out, 0x10, false);
                }
            };
            let reg = loaded.registration();
            if item.req.head.lng != reg.rqst_len {
                let rec = named(tracer, loaded.trace_name());
                tracer.emit(rec);
                return fail(stats, out, 0x11, reg.is_posted());
            }
            power.add_logic_op();
            // The operation writes its response words straight into
            // the envelope (zeroed first, as the C plugin ABI hands
            // over a cleared buffer).
            out.rsp.payload.clear();
            out.rsp.payload.resize(reg.rsp_payload_words(), 0);
            let mut ctx = CmcContext {
                dev: dev as u32,
                quad: loc.quad,
                vault: loc.vault,
                bank: loc.bank,
                addr,
                length: item.req.head.lng as u32,
                head: item.req.head.encode(),
                tail: item.req.tail.encode(),
                cycle,
                rqst_payload: &item.req.payload,
                rsp_payload: &mut out.rsp.payload,
                mem,
            };
            match loaded.execute(&mut ctx) {
                Ok(result) => {
                    // Discrete tracing: the CMC op resolves in the
                    // trace under its cmc_str name like any command.
                    let rec = named(tracer, loaded.trace_name());
                    tracer.emit(rec);
                    tracer.emit(TraceRecord {
                        kind: TraceKind::CmcOp,
                        quad: result.af as u8,
                        a: code as u64,
                        b: reg.rsp_len as u64,
                        ..rec
                    });
                    if !reg.is_posted() {
                        finish_response(out, dev, item, cycle, reg.rsp_cmd, result.af);
                    }
                    !reg.is_posted()
                }
                Err(_) => {
                    let rec = named(tracer, loaded.trace_name());
                    tracer.emit(rec);
                    fail(stats, out, 0x12, reg.is_posted())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::Tag;

    fn tracked(req: Request) -> RqstEnvelope {
        Box::new(TrackedRequest {
            req,
            entry_device: 0,
            entry_link: 0,
            issue_cycle: 0,
            hops: 0,
            ready_cycle: 0,
            vault_enq_cycle: 0,
        })
    }

    fn route(dev: &mut Device, cycle: u64, tracer: &mut Tracer) -> RouteOutcome {
        let mut out = RouteOutcome::default();
        dev.route_requests(cycle, tracer, &mut out);
        out
    }

    fn execute(dev: &mut Device, cycle: u64, tracer: &mut Tracer) -> u64 {
        dev.execute_vaults(cycle, tracer, &mut EnvelopePool::default())
    }

    fn drain(dev: &mut Device, cycle: u64) -> Vec<Egress> {
        let mut out = Vec::new();
        dev.drain_responses(cycle, &mut out);
        out
    }

    fn device() -> Device {
        Device::new(0, DeviceConfig::gen2_4link_4gb()).unwrap()
    }

    #[test]
    fn queue_elements_are_pointer_sized() {
        // A hop between queues moves one element; a stalled push hands
        // one back. Both must stay a pointer, whatever the packets grow to.
        assert!(std::mem::size_of::<RqstEnvelope>() <= 8);
        assert!(std::mem::size_of::<RspEnvelope>() <= 8);
        assert!(std::mem::size_of::<TrackedRequest>() > 64, "the packet itself is not small");
    }

    #[test]
    fn a_recycled_response_envelope_carries_nothing_over() {
        // Stage 3 fills retired envelopes in place; whatever the last
        // packet left behind must not survive into the next one.
        let read = tracked(
            Request::new(HmcRqst::Rd64, Tag::new(5).unwrap(), 0, Cub::new(0).unwrap(), vec![])
                .unwrap(),
        );
        let mut stale = TrackedResponse::blank();
        stale.rsp.payload = [1, 2, 3, 4].into();
        finish_response(&mut stale, 3, &read, 99, HmcResponse::RdRs, true);
        stale.rsp.tail = RspTail { dinv: true, errstat: 0x7f, seq: 5, ..RspTail::default() };
        stale.complete_cycle = 120;
        stale.latency = 21;
        stale.stages.rsp_route = 100;
        stale.stages.egress = 101;

        let write = TrackedRequest {
            entry_link: 2,
            issue_cycle: 200,
            vault_enq_cycle: 201,
            ..*tracked(
                Request::new(
                    HmcRqst::Wr16,
                    Tag::new(6).unwrap(),
                    0x80,
                    Cub::new(0).unwrap(),
                    vec![1, 2],
                )
                .unwrap(),
            )
        };
        let mut fresh = TrackedResponse::blank();
        ack_response(&mut stale, 0, &write, 202, HmcResponse::WrRs, false);
        ack_response(&mut fresh, 0, &write, 202, HmcResponse::WrRs, false);
        assert_eq!(format!("{stale:?}"), format!("{fresh:?}"));
        assert_eq!(stale.rsp.head.lng, 1);
    }

    #[test]
    fn send_counts_flits() {
        let mut dev = device();
        let req = Request::new(
            HmcRqst::Wr64,
            Tag::new(1).unwrap(),
            0x1000,
            Cub::new(0).unwrap(),
            vec![0; 8],
        )
        .unwrap();
        dev.send(0, tracked(req)).unwrap();
        assert_eq!(dev.stats().rqst_flits, 5);
    }

    #[test]
    fn send_invalid_link_rejected() {
        let mut dev = device();
        let req = Request::new(
            HmcRqst::Rd16,
            Tag::new(0).unwrap(),
            0,
            Cub::new(0).unwrap(),
            vec![],
        )
        .unwrap();
        let (_, err) = dev.send(4, tracked(req)).unwrap_err();
        assert!(matches!(err, HmcError::InvalidLink(4)));
    }

    #[test]
    fn full_xbar_queue_stalls_send() {
        let mut cfg = DeviceConfig::gen2_4link_4gb();
        cfg.xbar_queue_depth = 1;
        let mut dev = Device::new(0, cfg).unwrap();
        let mk = || {
            tracked(
                Request::new(
                    HmcRqst::Rd16,
                    Tag::new(0).unwrap(),
                    0,
                    Cub::new(0).unwrap(),
                    vec![],
                )
                .unwrap(),
            )
        };
        dev.send(0, mk()).unwrap();
        let (_, err) = dev.send(0, mk()).unwrap_err();
        assert!(err.is_stall());
        assert_eq!(dev.stats().send_stalls, 1);
    }

    #[test]
    fn full_pipeline_read_round_trip() {
        let mut dev = device();
        dev.mem_mut().write_u64(0x40, 0xABCD).unwrap();
        let req = Request::new(
            HmcRqst::Rd16,
            Tag::new(5).unwrap(),
            0x40,
            Cub::new(0).unwrap(),
            vec![],
        )
        .unwrap();
        dev.send(1, tracked(req)).unwrap();
        let mut tracer = Tracer::disabled();

        // Cycle 0: request routes to its vault.
        route(&mut dev, 0, &mut tracer);
        // Cycle 1: vault executes.
        execute(&mut dev, 1, &mut tracer);
        // Cycle 2: response routes and drains.
        dev.route_responses(2, &mut tracer);
        let egress = drain(&mut dev, 2);
        assert_eq!(egress.len(), 1);
        match &egress[0] {
            Egress::Deliver(rsp, _) => {
                assert_eq!(rsp.rsp.head.cmd, HmcResponse::RdRs);
                assert_eq!(rsp.rsp.head.tag.value(), 5);
                assert_eq!(rsp.rsp.payload[0], 0xABCD);
                assert_eq!(rsp.entry_link, 0);
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        assert_eq!(dev.stats().reads, 1);
        assert_eq!(dev.stats().responses, 1);
    }

    #[test]
    fn occupancy_hints_follow_the_vault_queues_and_drift_is_reported() {
        let mut dev = device();
        let mut tracer = Tracer::disabled();
        let vault = dev.address_map().decompose(0x40).unwrap().vault as usize;
        let hints = |dev: &Device| {
            assert_eq!(dev.queue_bound_violation(), None);
            (dev.rqst_waiting.iter().collect::<Vec<_>>(), dev.rsp_waiting.iter().collect::<Vec<_>>())
        };
        let read = Request::new(HmcRqst::Rd16, Tag::new(5).unwrap(), 0x40, Cub::new(0).unwrap(), [])
            .unwrap();
        dev.send(1, tracked(read)).unwrap();
        assert_eq!(hints(&dev), (vec![], vec![]), "crossbar queues are not vault queues");
        route(&mut dev, 0, &mut tracer);
        assert_eq!(hints(&dev), (vec![vault], vec![]));
        assert_eq!(dev.pending_work(), 1);
        execute(&mut dev, 1, &mut tracer);
        assert_eq!(hints(&dev), (vec![], vec![vault]));
        assert_eq!(dev.pending_work(), 1);
        dev.route_responses(2, &mut tracer);
        assert_eq!(hints(&dev), (vec![], vec![]));

        // A hint without a packet costs a visit; a packet without a
        // hint is never served. Either way the sanitizer's walk says so.
        dev.rsp_waiting.set(vault, true);
        let found = dev.queue_bound_violation().expect("stale hint");
        assert_eq!(found, format!("vault {vault} rsp: occupancy bit true but 0 queued"));
        dev.rsp_waiting.set(vault, false);
        dev.vaults[7].rqst.push(tracked(Request::new(
            HmcRqst::Rd16,
            Tag::new(6).unwrap(),
            0x40,
            Cub::new(0).unwrap(),
            [],
        ).unwrap())).unwrap();
        let found = dev.queue_bound_violation().expect("missing hint");
        assert_eq!(found, "vault 7 rqst: occupancy bit false but 1 queued");
    }

    #[test]
    fn the_sanitizer_reports_a_packet_queued_without_its_occupancy_bit() {
        use crate::sanitizer::{SanitizerConfig, ViolationKind};
        // A stale bit is cleared by the next vault walk, so the drift
        // that lasts is a packet the walks never visit. It is not in
        // the fabric by `pending_work`'s count either, so conservation
        // holds and the queue bound is the only thing to fire.
        let mut sim = crate::sim::HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        sim.enable_sanitizer(SanitizerConfig::report());
        sim.send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![]).unwrap().unwrap();
        sim.clock_n(3);
        let req = Request::new(HmcRqst::Rd16, Tag::new(6).unwrap(), 0x40, Cub::new(0).unwrap(), [])
            .unwrap();
        sim.devices[0].vaults[7].rqst.push(tracked(req)).unwrap();
        sim.clock_n(2);
        let report = sim.sanitizer_report().unwrap();
        let found: Vec<_> =
            report.violations.iter().map(|v| (v.cycle, v.kind, v.detail.as_str())).collect();
        let detail = "dev 0: vault 7 rqst: occupancy bit false but 1 queued";
        assert_eq!(
            found,
            [(3, ViolationKind::QueueOverflow, detail), (4, ViolationKind::QueueOverflow, detail)]
        );
    }

    #[test]
    fn warming_the_vault_heads_changes_nothing() {
        // Queued atomics, reads and writes over resident and absent
        // pages, one address past the capacity, 256-byte requests that
        // straddle a page, vaults several deep: stage 3 ends in the
        // same state however often it was warmed, one request per vault
        // and cycle or four.
        let run = |vault_bandwidth: usize, warms: usize| {
            let mut cfg = DeviceConfig::gen2_4link_4gb();
            cfg.bank_latency = 3;
            cfg.remote_quad_penalty = 2;
            cfg.vault_bandwidth = vault_bandwidth;
            let mut dev = Device::new(0, cfg).unwrap();
            dev.mem_mut().write_u64(0x1040, 0xABCD).unwrap();
            dev.mem_mut().write_u64(0x5_1000, 0x1234).unwrap();
            let mut tracer = Tracer::disabled();
            let block = [0x0101u64; 32];
            let traffic: [(HmcRqst, u64, &[u64]); 12] = [
                (HmcRqst::Xor16, 0x1040, &[1, 2]),
                (HmcRqst::CasEq8, 0x9_0080, &[5, 6]),
                (HmcRqst::Rd64, 0x20_00c0, &[]),
                (HmcRqst::Wr16, 0x100, &[3, 4]),
                (HmcRqst::Inc8, 0x1040, &[]),
                (HmcRqst::Rd16, 4 << 30, &[]),
                (HmcRqst::Swap16, 0x7_7740, &[7, 8]),
                // 256 bytes from 128 below a page boundary: the far
                // page resident, absent, and both absent (a read).
                (HmcRqst::Rd256, 0x5_0f80, &[]),
                (HmcRqst::Wr256, 0x6_0f80, &block),
                (HmcRqst::Rd256, 0x8_0f80, &[]),
                (HmcRqst::Rd256, 0x1000, &[]),
                (HmcRqst::Wr256, (4 << 30) - 128, &block),
            ];
            for (i, (cmd, addr, payload)) in traffic.into_iter().enumerate() {
                let tag = Tag::new(i as u32).unwrap();
                let req = Request::new(cmd, tag, addr, Cub::new(0).unwrap(), payload).unwrap();
                dev.send(i % 4, tracked(req)).unwrap();
            }
            let mut pool = EnvelopePool::default();
            for cycle in 0..10 {
                for _ in 0..warms {
                    dev.warm_vault_heads(cycle);
                }
                dev.execute_vaults(cycle, &mut tracer, &mut pool);
                route(&mut dev, cycle, &mut tracer);
                assert_eq!(dev.queue_bound_violation(), None);
            }
            assert_eq!(dev.stats().responses, 12, "everything queued was executed");
            assert_eq!(dev.stats().error_responses, 2, "both ranges past the capacity");
            let mut h = hmc_types::Fnv::new();
            crate::snapshot::hash_device(&mut h, &dev.state_view());
            let queues =
                (dev.vault_queue_high_water(), dev.vault_rqst_pushes(), dev.xbar_queue_stalls());
            (h.finish(), queues, dev.mem().resident_pages(), dev.stats().vault_stalls)
        };
        for vault_bandwidth in [1, 4] {
            let cold = run(vault_bandwidth, 0);
            assert_eq!(cold.2, 6, "reads, rejected ranges and the CAS miss made no page");
            assert!(cold.3 > 0, "the warm pass met a busy bank");
            assert_eq!(run(vault_bandwidth, 1), cold);
            assert_eq!(run(vault_bandwidth, 100), cold);
        }
    }

    #[test]
    fn has_work_is_pending_work_nonzero_at_every_step() {
        let mut dev = device();
        let mut tracer = Tracer::disabled();
        let agree = |dev: &Device, at: &str| {
            assert_eq!(dev.has_work(), dev.pending_work() != 0, "{at}");
            dev.has_work()
        };
        assert!(!agree(&dev, "new"));
        let mk = |cmd, tag, cub, payload: &[u64]| {
            let (tag, cub) = (Tag::new(tag).unwrap(), Cub::new(cub).unwrap());
            tracked(Request::new(cmd, tag, 0x40, cub, payload).unwrap())
        };
        dev.send(3, mk(HmcRqst::Rd16, 1, 0, &[])).unwrap();
        assert!(agree(&dev, "one packet in the last crossbar request queue"));
        let parked = dev.snapshot_state();
        route(&mut dev, 0, &mut tracer);
        assert!(agree(&dev, "in a vault request queue"));
        execute(&mut dev, 1, &mut tracer);
        assert!(agree(&dev, "in a vault response queue"));
        dev.route_responses(2, &mut tracer);
        assert!(agree(&dev, "in a crossbar response queue"));
        let answered = dev.snapshot_state();
        assert_eq!(drain(&mut dev, 2).len(), 1);
        assert!(!agree(&dev, "delivered"));

        // Posted and forwarded packets leave without a response.
        dev.send(0, mk(HmcRqst::PWr16, 2, 0, &[1, 2])).unwrap();
        dev.send(1, mk(HmcRqst::Rd16, 3, 5, &[])).unwrap();
        assert!(agree(&dev, "two crossbar queues"));
        assert_eq!(route(&mut dev, 3, &mut tracer).forwards.len(), 1);
        assert!(agree(&dev, "the posted write waits in its vault"));
        execute(&mut dev, 4, &mut tracer);
        assert!(!agree(&dev, "absorbed"));

        // A restore rebuilds the vault hints the test reads.
        dev.restore_state(&answered);
        assert!(agree(&dev, "restored with a response in the crossbar"));
        dev.restore_state(&parked);
        assert!(agree(&dev, "restored with a request in the crossbar"));
        route(&mut dev, 5, &mut tracer);
        let queued = dev.snapshot_state();
        let mut idle = device();
        assert!(!agree(&idle, "another new device"));
        idle.restore_state(&queued);
        assert!(agree(&idle, "restored with a request in a vault"));
        execute(&mut idle, 6, &mut tracer);
        idle.route_responses(7, &mut tracer);
        assert_eq!(drain(&mut idle, 7).len(), 1);
        assert!(!agree(&idle, "drained after the restore"));
    }

    #[test]
    fn vault_sets_walk_in_ascending_order_across_words() {
        let mut set = VaultSet::new(130);
        for v in [129, 0, 64, 63, 5] {
            set.set(v, true);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 5, 63, 64, 129]);
        assert_eq!(set.next_from(6), Some(63));
        assert_eq!(set.next_from(130), None);
        set.set(63, false);
        assert!(!set.contains(63) && set.contains(64));
        assert_eq!(set.next_from(6), Some(64));
    }

    #[test]
    fn posted_write_generates_no_response() {
        let mut dev = device();
        let req = Request::new(
            HmcRqst::PWr16,
            Tag::new(0).unwrap(),
            0x80,
            Cub::new(0).unwrap(),
            vec![0x11, 0x22],
        )
        .unwrap();
        dev.send(0, tracked(req)).unwrap();
        let mut tracer = Tracer::disabled();
        route(&mut dev, 0, &mut tracer);
        execute(&mut dev, 1, &mut tracer);
        dev.route_responses(2, &mut tracer);
        assert!(drain(&mut dev, 2).is_empty());
        assert_eq!(dev.mem().read_u64(0x80).unwrap(), 0x11);
        assert_eq!(dev.stats().posted_writes, 1);
        assert_eq!(dev.stats().responses, 0);
    }

    #[test]
    fn inactive_cmc_returns_error_response() {
        let mut dev = device();
        let req = Request::new_cmc(
            125,
            2,
            Tag::new(3).unwrap(),
            0x40,
            Cub::new(0).unwrap(),
            vec![7, 0],
        )
        .unwrap();
        dev.send(0, tracked(req)).unwrap();
        let mut tracer = Tracer::disabled();
        route(&mut dev, 0, &mut tracer);
        execute(&mut dev, 1, &mut tracer);
        dev.route_responses(2, &mut tracer);
        let egress = drain(&mut dev, 2);
        match &egress[0] {
            Egress::Deliver(rsp, _) => {
                assert_eq!(rsp.rsp.head.cmd, HmcResponse::Error);
                assert_eq!(rsp.rsp.tail.errstat, 0x10);
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        assert_eq!(dev.stats().error_responses, 1);
    }

    #[test]
    fn foreign_cub_is_forwarded() {
        let mut dev = device();
        let req = Request::new(
            HmcRqst::Rd16,
            Tag::new(0).unwrap(),
            0,
            Cub::new(3).unwrap(),
            vec![],
        )
        .unwrap();
        dev.send(0, tracked(req)).unwrap();
        let mut tracer = Tracer::disabled();
        let outcome = route(&mut dev, 0, &mut tracer);
        assert_eq!(outcome.forwards.len(), 1);
        assert_eq!(outcome.forwards[0].from_link, 0);
        assert_eq!(outcome.freed_flits[0], 1, "forwarded packet freed its flit");
        assert_eq!(dev.stats().forwarded, 1);
    }

    #[test]
    fn mode_read_reaches_register_file() {
        let mut dev = device();
        let req = Request::new(
            HmcRqst::MdRd,
            Tag::new(2).unwrap(),
            crate::regs::REG_FEAT as u64,
            Cub::new(0).unwrap(),
            vec![],
        )
        .unwrap();
        dev.send(0, tracked(req)).unwrap();
        let mut tracer = Tracer::disabled();
        route(&mut dev, 0, &mut tracer);
        execute(&mut dev, 1, &mut tracer);
        dev.route_responses(2, &mut tracer);
        match &drain(&mut dev, 2)[0] {
            Egress::Deliver(rsp, _) => {
                assert_eq!(rsp.rsp.head.cmd, HmcResponse::MdRdRs);
                assert_eq!(rsp.rsp.payload[0], 0x44);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bank_latency_stalls_back_to_back_same_bank() {
        let mut cfg = DeviceConfig::gen2_4link_4gb();
        cfg.bank_latency = 4;
        let mut dev = Device::new(0, cfg).unwrap();
        let mk = |tag: u32| {
            tracked(
                Request::new(
                    HmcRqst::Rd16,
                    Tag::new(tag).unwrap(),
                    0x40, // same block -> same bank
                    Cub::new(0).unwrap(),
                    vec![],
                )
                .unwrap(),
            )
        };
        dev.send(0, mk(1)).unwrap();
        dev.send(0, mk(2)).unwrap();
        let mut tracer = Tracer::disabled();
        route(&mut dev, 0, &mut tracer);
        route(&mut dev, 1, &mut tracer);
        execute(&mut dev, 2, &mut tracer); // first executes, bank busy until 6
        execute(&mut dev, 3, &mut tracer); // second stalls
        assert_eq!(dev.stats().reads, 1);
        assert!(dev.stats().vault_stalls >= 1);
        execute(&mut dev, 7, &mut tracer); // bank free again
        assert_eq!(dev.stats().reads, 2);
    }

    #[test]
    fn trace_records_cmd_events() {
        let mut dev = device();
        let buf = crate::trace::TraceBuffer::new();
        let mut tracer = Tracer::to_buffer(TraceLevel::CMD, buf.clone());
        let req = Request::new(
            HmcRqst::Inc8,
            Tag::new(9).unwrap(),
            0x40,
            Cub::new(0).unwrap(),
            vec![],
        )
        .unwrap();
        dev.send(0, tracked(req)).unwrap();
        route(&mut dev, 0, &mut tracer);
        execute(&mut dev, 1, &mut tracer);
        let cmds = buf.grep("CMD=INC8");
        assert_eq!(cmds.len(), 1);
        assert!(cmds[0].contains("TAG=9"));
    }
}
