//! The trace subsystem.
//!
//! HMC-Sim's tracing lets users "see exactly how and where memory
//! operations progressed through the device" (paper §IV-A). Since the
//! flight-recorder rework the subsystem is *structured first*: every
//! instrumentation point emits one compact, `Copy`-able
//! [`TraceRecord`] (cycle, lane coordinates, tag, a [`TraceKind`] and
//! two small payload words — never a `String` on the hot path). The
//! classic line-oriented text trace is a pure formatting view over
//! that stream: [`TraceRecord::render_line`] reproduces the historic
//! `HMCSIM_TRACE : <cycle> : <CLASS> : <detail>` format byte for
//! byte, so `grep`-based analyses and the [`crate::trace_analysis`]
//! parser keep working unchanged. CMC operations trace under their
//! registered `cmc_str` name exactly like standard commands — the
//! paper's *Discrete Tracing* requirement.
//!
//! Destinations:
//!
//! - a level-masked text [`Sink`] (buffer or writer) — the user-facing
//!   trace, unchanged semantics;
//! - an optional forensic ring — the sanitizer's bounded tail, plain
//!   data inside the [`Tracer`] (captures every class as raw records,
//!   rendered when a dump asks: [`Tracer::ring_lines`]);
//! - an optional [`FlightRecorder`] — per-lane, drop-counting rings of
//!   raw [`TraceRecord`]s, cheap enough to leave on for a whole run,
//!   snapshot-included and exportable to Perfetto
//!   (see [`crate::perfetto`]).

use crate::config::SpecRevision;
use hmc_types::HmcRqst;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A bitmask of trace event classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceLevel(u32);

impl TraceLevel {
    /// No tracing.
    pub const NONE: TraceLevel = TraceLevel(0);
    /// Bank-level activity (conflicts, busy cycles).
    pub const BANK: TraceLevel = TraceLevel(1 << 0);
    /// Queue occupancy transitions.
    pub const QUEUE: TraceLevel = TraceLevel(1 << 1);
    /// Command execution (including CMC operations by name).
    pub const CMD: TraceLevel = TraceLevel(1 << 2);
    /// Stall events (full queues, busy banks).
    pub const STALL: TraceLevel = TraceLevel(1 << 3);
    /// End-to-end request latencies.
    pub const LATENCY: TraceLevel = TraceLevel(1 << 4);
    /// CMC registration and execution detail.
    pub const CMC: TraceLevel = TraceLevel(1 << 5);
    /// Power accounting events.
    pub const POWER: TraceLevel = TraceLevel(1 << 6);
    /// Fault injection and recovery events (CRC errors, vault
    /// faults, poisoned responses, link state changes, failover).
    pub const FAULT: TraceLevel = TraceLevel(1 << 7);
    /// Spans of the clock's own machinery rather than of a packet:
    /// idle-skip horizon jumps, sanitizer audits, checkpoint commits.
    /// They land on the flight recorder's engine lane, which
    /// [`crate::perfetto::PerfettoOptions::engine`] can leave out.
    pub const ENGINE: TraceLevel = TraceLevel(1 << 8);
    /// Everything.
    pub const ALL: TraceLevel = TraceLevel(u32::MAX);

    /// Union of two masks.
    #[inline]
    pub const fn with(self, other: TraceLevel) -> TraceLevel {
        TraceLevel(self.0 | other.0)
    }

    /// True when any bit of `class` is enabled.
    #[inline]
    pub const fn contains(self, class: TraceLevel) -> bool {
        self.0 & class.0 != 0
    }
}

impl std::ops::BitOr for TraceLevel {
    type Output = TraceLevel;
    fn bitor(self, rhs: TraceLevel) -> TraceLevel {
        self.with(rhs)
    }
}

/// A flight-recorder lane: which logical component timeline a record
/// belongs to. Lanes have independent ring capacity so chatty bank
/// traffic can never evict the link-fault tail (or vice versa).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightLane {
    /// Host-edge events: sends, deliveries, zombies.
    Host,
    /// Link-protocol events: retries, CRC faults, link state.
    Link,
    /// Crossbar/vault-queue events: routing, queue-full, failover,
    /// vault faults, CMC execution.
    Vault,
    /// Bank-service events: command execution, refresh, bank-busy.
    Bank,
    /// Engine-internal spans: idle skips, sanitizer audits,
    /// checkpoints.
    Engine,
}

impl FlightLane {
    /// All lanes, in ring order.
    pub const ALL: [FlightLane; 5] = [
        FlightLane::Host,
        FlightLane::Link,
        FlightLane::Vault,
        FlightLane::Bank,
        FlightLane::Engine,
    ];

    /// Stable lane name (used in snapshots and Perfetto tracks).
    pub const fn name(self) -> &'static str {
        match self {
            FlightLane::Host => "host",
            FlightLane::Link => "link",
            FlightLane::Vault => "vault",
            FlightLane::Bank => "bank",
            FlightLane::Engine => "engine",
        }
    }

    #[inline]
    pub(crate) const fn index(self) -> usize {
        self as usize
    }
}

/// The command behind a [`TraceKind::Cmd`]-family record: enough to
/// recover the traced mnemonic without storing a string per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdRef {
    /// No command attached.
    None,
    /// A standard (or CMC-coded) request; the mnemonic is derived
    /// from the command code at render time.
    Rqst(HmcRqst),
    /// An interned name in the tracer's [name table] — used for the
    /// registered `cmc_str` of loaded CMC operations and for
    /// link-error texts, which only exist on cold paths.
    ///
    /// [name table]: FlightSnapshot::names
    Name(u16),
    /// A CMC request whose command slot has no operation loaded;
    /// renders as `CMC<code>(inactive)`.
    Inactive(u8),
}

/// The event kind: one variant per instrumentation point. The kind
/// determines the trace class (level-mask bit), the text class tag
/// and the flight-recorder lane, plus how the payload words `a`/`b`
/// are rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Host accepted a request onto a link (`a` = FLIT count).
    HostSend,
    /// Response delivered to the host (`a` = end-to-end latency).
    Deliver,
    /// Response abandoned after link failover exhaustion.
    Zombie,
    /// Injected link error: packet parked for retry (`a` = replay
    /// cycle).
    LinkRetry,
    /// Wire corruption caught by packet CRC (`a` = flipped bit, `b` =
    /// replay cycle, `cmd` = interned error text).
    LinkCrc,
    /// Corrupted packet rejected at device ingress (`cmd` = interned
    /// error text).
    IngressCrc,
    /// Scheduled link outage began.
    LinkDown,
    /// Scheduled link outage ended.
    LinkUp,
    /// Crossbar response queue full (response stalls in vault).
    XbarRspFull,
    /// Response re-routed around a dead link (`a` = preferred link).
    Failover,
    /// Request routed crossbar → vault queue (`a` = new occupancy).
    XbarToVault,
    /// Vault request queue full (request stalls in crossbar).
    VaultRqstFull,
    /// Vault response queue full (bank service stalls).
    VaultRspFull,
    /// Injected vault fault (`a` = ERRSTAT code).
    VaultFault,
    /// Response payload poisoned by the fault plan.
    Poison,
    /// Bank refresh window closed the bank this cycle.
    Refresh,
    /// Bank busy: head-of-line request waits.
    BankBusy,
    /// A command executed at a bank (`a` = address; `cmd` carries the
    /// mnemonic source).
    Cmd,
    /// A command rejected by the revision gate (`b` = spec revision
    /// discriminant).
    CmdReject,
    /// A loaded CMC operation executed (`a` = command code, `quad` =
    /// active flag, `b` = response length).
    CmcOp,
    /// Idle-skip horizon jump (`a` = first skipped cycle, `b` =
    /// skipped-cycle extent).
    IdleSkip,
    /// Sanitizer audit flagged violations this cycle (`a` = count).
    SanitizerAudit,
    /// Sanitizer captured a periodic recovery checkpoint.
    Checkpoint,
    /// Request forwarded one fabric hop toward its target cube
    /// (`dev` = sender, `a` = next-hop device, `b` = arrival cycle).
    HopRqst,
    /// Response forwarded one fabric hop toward its entry cube
    /// (`dev` = sender, `a` = next-hop device, `b` = arrival cycle).
    HopRsp,
}

impl TraceKind {
    /// The level-mask class this kind traces under.
    pub const fn class(self) -> TraceLevel {
        match self {
            TraceKind::HostSend
            | TraceKind::XbarToVault
            | TraceKind::HopRqst
            | TraceKind::HopRsp => TraceLevel::QUEUE,
            TraceKind::Deliver => TraceLevel::LATENCY,
            TraceKind::LinkRetry
            | TraceKind::XbarRspFull
            | TraceKind::VaultRqstFull
            | TraceKind::VaultRspFull => TraceLevel::STALL,
            TraceKind::Zombie
            | TraceKind::LinkCrc
            | TraceKind::IngressCrc
            | TraceKind::LinkDown
            | TraceKind::LinkUp
            | TraceKind::Failover
            | TraceKind::VaultFault
            | TraceKind::Poison => TraceLevel::FAULT,
            TraceKind::Refresh | TraceKind::BankBusy => TraceLevel::BANK,
            TraceKind::Cmd | TraceKind::CmdReject => TraceLevel::CMD,
            TraceKind::CmcOp => TraceLevel::CMC,
            TraceKind::IdleSkip
            | TraceKind::SanitizerAudit
            | TraceKind::Checkpoint => TraceLevel::ENGINE,
        }
    }

    /// The text-format class tag (third column of a trace line).
    pub const fn class_tag(self) -> &'static str {
        match self {
            TraceKind::HostSend => "SEND",
            TraceKind::Deliver => "LATENCY",
            TraceKind::LinkRetry => "RETRY",
            TraceKind::Zombie
            | TraceKind::LinkCrc
            | TraceKind::IngressCrc
            | TraceKind::LinkDown
            | TraceKind::LinkUp
            | TraceKind::Failover
            | TraceKind::VaultFault
            | TraceKind::Poison => "FAULT",
            TraceKind::XbarRspFull | TraceKind::VaultRqstFull | TraceKind::VaultRspFull => "STALL",
            TraceKind::XbarToVault => "QUEUE",
            TraceKind::HopRqst | TraceKind::HopRsp => "HOP",
            TraceKind::Refresh | TraceKind::BankBusy => "BANK",
            TraceKind::Cmd | TraceKind::CmdReject => "RQST",
            TraceKind::CmcOp => "CMC",
            TraceKind::IdleSkip
            | TraceKind::SanitizerAudit
            | TraceKind::Checkpoint => "ENGINE",
        }
    }

    /// The flight-recorder lane this kind records into.
    pub const fn lane(self) -> FlightLane {
        match self {
            TraceKind::HostSend | TraceKind::Deliver | TraceKind::Zombie => FlightLane::Host,
            TraceKind::LinkRetry
            | TraceKind::LinkCrc
            | TraceKind::IngressCrc
            | TraceKind::LinkDown
            | TraceKind::LinkUp
            | TraceKind::HopRqst
            | TraceKind::HopRsp => FlightLane::Link,
            TraceKind::XbarRspFull
            | TraceKind::Failover
            | TraceKind::XbarToVault
            | TraceKind::VaultRqstFull
            | TraceKind::VaultRspFull
            | TraceKind::VaultFault
            | TraceKind::Poison
            | TraceKind::CmcOp => FlightLane::Vault,
            TraceKind::Refresh | TraceKind::BankBusy | TraceKind::Cmd | TraceKind::CmdReject => {
                FlightLane::Bank
            }
            TraceKind::IdleSkip
            | TraceKind::SanitizerAudit
            | TraceKind::Checkpoint => FlightLane::Engine,
        }
    }

    /// Stable short name (Perfetto slice names, snapshot debugging).
    pub const fn name(self) -> &'static str {
        match self {
            TraceKind::HostSend => "send",
            TraceKind::Deliver => "deliver",
            TraceKind::Zombie => "zombie",
            TraceKind::LinkRetry => "link_retry",
            TraceKind::LinkCrc => "link_crc",
            TraceKind::IngressCrc => "ingress_crc",
            TraceKind::LinkDown => "link_down",
            TraceKind::LinkUp => "link_up",
            TraceKind::XbarRspFull => "xbar_rsp_full",
            TraceKind::Failover => "failover",
            TraceKind::XbarToVault => "xbar_to_vault",
            TraceKind::VaultRqstFull => "vault_rqst_full",
            TraceKind::VaultRspFull => "vault_rsp_full",
            TraceKind::VaultFault => "vault_fault",
            TraceKind::Poison => "poison",
            TraceKind::Refresh => "refresh",
            TraceKind::BankBusy => "bank_busy",
            TraceKind::Cmd => "cmd",
            TraceKind::CmdReject => "cmd_reject",
            TraceKind::CmcOp => "cmc_op",
            TraceKind::IdleSkip => "idle_skip",
            TraceKind::SanitizerAudit => "sanitizer_audit",
            TraceKind::Checkpoint => "checkpoint",
            TraceKind::HopRqst => "hop_rqst",
            TraceKind::HopRsp => "hop_rsp",
        }
    }

    /// Every kind at its stable wire code — the snapshot codec encodes
    /// a kind as its index here, so the order must never change
    /// (append new kinds at the end). Codes 20–22 were the vault-level
    /// parallel engine's plan/fallback/commit spans: retired, decoded
    /// as unknown, never reused.
    const WIRE: [Option<TraceKind>; 28] = [
        Some(TraceKind::HostSend),
        Some(TraceKind::Deliver),
        Some(TraceKind::Zombie),
        Some(TraceKind::LinkRetry),
        Some(TraceKind::LinkCrc),
        Some(TraceKind::IngressCrc),
        Some(TraceKind::LinkDown),
        Some(TraceKind::LinkUp),
        Some(TraceKind::XbarRspFull),
        Some(TraceKind::Failover),
        Some(TraceKind::XbarToVault),
        Some(TraceKind::VaultRqstFull),
        Some(TraceKind::VaultRspFull),
        Some(TraceKind::VaultFault),
        Some(TraceKind::Poison),
        Some(TraceKind::Refresh),
        Some(TraceKind::BankBusy),
        Some(TraceKind::Cmd),
        Some(TraceKind::CmdReject),
        Some(TraceKind::CmcOp),
        None,
        None,
        None,
        Some(TraceKind::IdleSkip),
        Some(TraceKind::SanitizerAudit),
        Some(TraceKind::Checkpoint),
        Some(TraceKind::HopRqst),
        Some(TraceKind::HopRsp),
    ];

    /// The stable wire code (index in the wire table).
    pub fn code(self) -> u8 {
        Self::WIRE.iter().position(|k| *k == Some(self)).expect("kind in the wire table") as u8
    }

    /// The kind for a wire code, `None` for retired and out-of-range
    /// codes.
    pub fn from_code(code: u8) -> Option<TraceKind> {
        Self::WIRE.get(code as usize).copied().flatten()
    }
}

/// One structured trace event: a compact, `Copy`-able record emitted
/// at every packet lifecycle edge and engine phase. Unused coordinate
/// fields are zero; `a`/`b` are kind-specific payload words (see the
/// [`TraceKind`] variant docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation cycle the event occurred at.
    pub cycle: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Device (cube) index.
    pub dev: u16,
    /// Link index.
    pub link: u8,
    /// Quadrant index (also carries the CMC active flag for
    /// [`TraceKind::CmcOp`]).
    pub quad: u8,
    /// Vault index.
    pub vault: u16,
    /// Bank index.
    pub bank: u16,
    /// Packet tag.
    pub tag: u16,
    /// Command reference for command-shaped kinds.
    pub cmd: CmdRef,
    /// First payload word (kind-specific).
    pub a: u64,
    /// Second payload word (kind-specific).
    pub b: u64,
}

impl TraceRecord {
    /// A zeroed record of `kind` at `cycle`; fill the relevant fields
    /// with struct-update syntax.
    pub const fn new(cycle: u64, kind: TraceKind) -> Self {
        TraceRecord {
            cycle,
            kind,
            dev: 0,
            link: 0,
            quad: 0,
            vault: 0,
            bank: 0,
            tag: 0,
            cmd: CmdRef::None,
            a: 0,
            b: 0,
        }
    }

    /// The mnemonic this record traces under, resolving interned
    /// names through `resolve`.
    pub fn mnemonic<F: Fn(u16) -> String>(&self, resolve: F) -> String {
        match self.cmd {
            CmdRef::None => String::new(),
            CmdRef::Rqst(r) => r.mnemonic(),
            CmdRef::Name(idx) => resolve(idx),
            CmdRef::Inactive(code) => format!("CMC{code}(inactive)"),
        }
    }

    /// Renders the detail column of the historic text format,
    /// byte-identical to the strings the pre-structured tracer
    /// emitted. `resolve` maps interned name indices to strings.
    pub fn render_detail<F: Fn(u16) -> String>(&self, resolve: F) -> String {
        let r = self;
        match r.kind {
            TraceKind::HostSend => {
                format!("send: dev={} link={} tag={} flits={}", r.dev, r.link, r.tag, r.a)
            }
            TraceKind::Deliver => format!("tag={} lat={} link={}", r.tag, r.a, r.link),
            TraceKind::Zombie => format!("kind=ZOMBIE tag={} link={}", r.tag, r.link),
            TraceKind::LinkRetry => format!(
                "link error injected: dev={} link={}, replay at {}",
                r.dev, r.link, r.a
            ),
            TraceKind::LinkCrc => format!(
                "kind=CRC dev={} link={} bit={} replay at {} ({})",
                r.dev,
                r.link,
                r.a,
                r.b,
                resolve(match r.cmd {
                    CmdRef::Name(idx) => idx,
                    _ => u16::MAX,
                })
            ),
            TraceKind::IngressCrc => format!(
                "kind=CRC dev={} link={} rejected at ingress ({})",
                r.dev,
                r.link,
                resolve(match r.cmd {
                    CmdRef::Name(idx) => idx,
                    _ => u16::MAX,
                })
            ),
            TraceKind::LinkDown => format!("kind=LINKDOWN link={}", r.link),
            TraceKind::LinkUp => format!("kind=LINKUP link={}", r.link),
            TraceKind::XbarRspFull => {
                format!("xbar rsp queue full: vault={} link={}", r.vault, r.link)
            }
            TraceKind::Failover => format!(
                "kind=FAILOVER vault={} from={} to={} tag={}",
                r.vault, r.a, r.link, r.tag
            ),
            TraceKind::XbarToVault => {
                format!("xbar->vault: link={} vault={} occ={}", r.link, r.vault, r.a)
            }
            TraceKind::VaultRqstFull => {
                format!("vault rqst queue full: link={} vault={}", r.link, r.vault)
            }
            TraceKind::VaultRspFull => format!("vault rsp queue full: vault={}", r.vault),
            TraceKind::VaultFault => format!(
                "kind=VAULT vault={} tag={} errstat={:#x}",
                r.vault, r.tag, r.a
            ),
            TraceKind::Poison => format!("kind=POISON vault={} tag={}", r.vault, r.tag),
            TraceKind::Refresh => format!("refresh: vault={} bank={}", r.vault, r.bank),
            TraceKind::BankBusy => format!("bank busy: vault={} bank={}", r.vault, r.bank),
            TraceKind::Cmd => format!(
                "CMD={} CUB={} QUAD={} VAULT={} BANK={} ADDR={:#x} TAG={}",
                self.mnemonic(resolve),
                r.dev,
                r.quad,
                r.vault,
                r.bank,
                r.a,
                r.tag
            ),
            TraceKind::CmdReject => {
                let rev = if r.b == 0 { SpecRevision::Gen1 } else { SpecRevision::Gen2 };
                format!("CMD={} rejected: not in {:?}", self.mnemonic(resolve), rev)
            }
            TraceKind::CmcOp => format!(
                "op={} cmd={} af={} rsp_len={}",
                self.mnemonic(resolve),
                r.a,
                r.quad != 0,
                r.b
            ),
            TraceKind::IdleSkip => format!("idle skip: from={} len={}", r.a, r.b),
            TraceKind::SanitizerAudit => format!("sanitizer: violations={}", r.a),
            TraceKind::Checkpoint => format!("checkpoint: cycle={}", r.a),
            TraceKind::HopRqst => format!(
                "hop rqst: dev={} -> dev={} link={} tag={} arrives={}",
                r.dev, r.a, r.link, r.tag, r.b
            ),
            TraceKind::HopRsp => format!(
                "hop rsp: dev={} -> dev={} link={} tag={} arrives={}",
                r.dev, r.a, r.link, r.tag, r.b
            ),
        }
    }

    /// Renders the full historic trace line for this record.
    pub fn render_line<F: Fn(u16) -> String>(&self, resolve: F) -> String {
        format!(
            "HMCSIM_TRACE : {} : {} : {}",
            self.cycle,
            self.kind.class_tag(),
            self.render_detail(resolve)
        )
    }
}

/// A shared, deduplicating table of dynamic strings referenced by
/// [`CmdRef::Name`]: registered CMC operation names and link-error
/// texts. All producers are cold paths; the hot data path never
/// interns.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameTable {
    inner: Arc<Mutex<NameInner>>,
}

#[derive(Debug, Default)]
struct NameInner {
    /// `names[..live]` is the table. Slots past it are what a
    /// [`NameTable::replace`] with a shorter table left behind: the
    /// forensic ring may still hold records captured before the
    /// restore that name them, so they stay resolvable until a newly
    /// interned name takes the slot (the same string, when the run
    /// replays what it did before).
    names: Vec<String>,
    live: usize,
    index: std::collections::HashMap<String, u16>,
}

impl NameTable {
    /// Interns `name`, returning its stable index. A full table (more
    /// than `u16::MAX - 1` distinct names — never in practice)
    /// returns the `u16::MAX` sentinel, which resolves to `"?"`.
    pub(crate) fn intern(&self, name: &str) -> u16 {
        let mut inner = self.inner.lock().expect("name table lock");
        if let Some(&idx) = inner.index.get(name) {
            return idx;
        }
        let idx = inner.live;
        if idx >= u16::MAX as usize {
            return u16::MAX;
        }
        match inner.names.get_mut(idx) {
            Some(slot) => *slot = name.to_owned(),
            None => inner.names.push(name.to_owned()),
        }
        inner.live += 1;
        inner.index.insert(name.to_owned(), idx as u16);
        idx as u16
    }

    /// The string behind `idx` (`"?"` for unknown indices).
    pub(crate) fn resolve(&self, idx: u16) -> String {
        self.inner
            .lock()
            .expect("name table lock")
            .names
            .get(idx as usize)
            .cloned()
            .unwrap_or_else(|| "?".to_owned())
    }

    /// All interned names, in index order.
    pub(crate) fn snapshot(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("name table lock");
        inner.names[..inner.live].to_vec()
    }

    /// Replaces the table contents (snapshot restore).
    pub(crate) fn replace(&self, names: Vec<String>) {
        let mut inner = self.inner.lock().expect("name table lock");
        inner.index = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u16))
            .collect();
        inner.live = names.len();
        let kept = names.len().min(inner.names.len());
        let left_over = inner.names.split_off(kept);
        inner.names = names;
        inner.names.extend(left_over);
    }
}

/// Default per-lane flight-recorder capacity.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

#[derive(Debug, Clone, Default)]
struct LaneBuf {
    records: VecDeque<TraceRecord>,
    dropped: u64,
}

/// The always-on causal flight recorder: one fixed-capacity ring of
/// raw [`TraceRecord`]s per [`FlightLane`], with a drop counter per
/// lane. Attached to a [`Tracer`] it captures every event class
/// regardless of the level mask — no text is formatted, so it is
/// cheap enough to leave on for whole runs. Plain data owned by that
/// tracer, so recording an event is a record copy, not a lock; read
/// the timeline through [`Tracer::flight_snapshot`].
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    lanes: [LaneBuf; 5],
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining the most recent `per_lane_capacity`
    /// records in each lane.
    pub fn new(per_lane_capacity: usize) -> Self {
        FlightRecorder { capacity: per_lane_capacity.max(1), lanes: Default::default() }
    }

    /// Per-lane ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total records currently retained across all lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.records.len()).sum()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records dropped (evicted) across all lanes.
    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }

    fn record(&mut self, rec: TraceRecord) {
        let lane = &mut self.lanes[rec.kind.lane().index()];
        if lane.records.len() >= self.capacity {
            lane.records.pop_front();
            lane.dropped += 1;
        }
        lane.records.push_back(rec);
    }

    /// Point-in-time copy of the retained timeline; `names` is the
    /// matching name table (use [`Tracer::flight_snapshot`], which
    /// pairs them for you).
    fn snapshot_with_names(&self, names: Vec<String>) -> FlightSnapshot {
        FlightSnapshot {
            capacity: self.capacity,
            lanes: FlightLane::ALL
                .iter()
                .map(|&lane| {
                    let buf = &self.lanes[lane.index()];
                    FlightLaneSnapshot {
                        name: lane.name().to_owned(),
                        records: buf.records.iter().copied().collect(),
                        dropped: buf.dropped,
                    }
                })
                .collect(),
            names,
        }
    }

    /// Replaces the retained timeline with a snapshot's (checkpoint
    /// restore). Lanes the snapshot lacks are cleared; only a
    /// hand-built snapshot lacks any, since the codec requires all
    /// five within capacity.
    fn restore(&mut self, snap: &FlightSnapshot) {
        self.capacity = snap.capacity.max(1);
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            match snap.lanes.get(i) {
                Some(s) => {
                    lane.records = s.records.iter().copied().collect();
                    lane.dropped = s.dropped;
                }
                None => {
                    lane.records.clear();
                    lane.dropped = 0;
                }
            }
        }
    }
}

/// One lane of a [`FlightSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightLaneSnapshot {
    /// Lane name (see [`FlightLane::name`]).
    pub name: String,
    /// Retained records, oldest first.
    pub records: Vec<TraceRecord>,
    /// Records evicted from this lane before the snapshot.
    pub dropped: u64,
}

/// A point-in-time copy of a [`FlightRecorder`]'s retained timeline
/// plus the name table its records reference. Embedded in
/// [`crate::SimSnapshot`]s (excluded from the fingerprint — the
/// recorder is an observer), in sanitizer forensic dumps and in
/// hmcfuzz reproducers; exportable to Perfetto via
/// [`crate::perfetto`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlightSnapshot {
    /// Per-lane ring capacity at capture time.
    pub capacity: usize,
    /// The lanes, in [`FlightLane::ALL`] order.
    pub lanes: Vec<FlightLaneSnapshot>,
    /// Interned-name table referenced by [`CmdRef::Name`] records.
    pub names: Vec<String>,
}

impl FlightSnapshot {
    /// Total records across all lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.records.len()).sum()
    }

    /// True when the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All records merged across lanes, sorted by cycle (stable: lane
    /// order breaks ties), with the resolver needed to render them.
    pub fn merged(&self) -> Vec<TraceRecord> {
        let mut all: Vec<TraceRecord> =
            self.lanes.iter().flat_map(|l| l.records.iter().copied()).collect();
        all.sort_by_key(|r| r.cycle);
        all
    }

    /// Resolves an interned name index against this snapshot's table.
    pub fn resolve(&self, idx: u16) -> String {
        self.names.get(idx as usize).cloned().unwrap_or_else(|| "?".to_owned())
    }

    /// The retained timeline rendered as historic text trace lines,
    /// merged across lanes in cycle order.
    pub fn lines(&self) -> Vec<String> {
        self.merged().iter().map(|r| r.render_line(|i| self.resolve(i))).collect()
    }
}

/// Default [`TraceBuffer`] capacity (lines retained before dropping).
pub const DEFAULT_TRACE_BUFFER_CAPACITY: usize = 1 << 20;

#[derive(Debug)]
struct BufferInner {
    lines: Vec<String>,
    capacity: usize,
    dropped: u64,
}

/// A shared in-memory trace sink, handy for tests and analysis.
///
/// The buffer is bounded: once `capacity` lines are retained, further
/// lines are counted in [`TraceBuffer::dropped`] instead of growing
/// the buffer without limit (long traced runs used to OOM here). The
/// default capacity keeps every line of any test-sized run.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    inner: Arc<Mutex<BufferInner>>,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::with_capacity(DEFAULT_TRACE_BUFFER_CAPACITY)
    }
}

impl TraceBuffer {
    /// Creates an empty buffer with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer retaining at most `capacity` lines.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceBuffer {
            inner: Arc::new(Mutex::new(BufferInner {
                lines: Vec::new(),
                capacity: capacity.max(1),
                dropped: 0,
            })),
        }
    }

    /// Snapshot of all recorded lines.
    pub fn lines(&self) -> Vec<String> {
        self.inner.lock().expect("trace buffer lock").lines.clone()
    }

    /// Number of recorded lines.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace buffer lock").lines.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lines dropped because the buffer was at capacity.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace buffer lock").dropped
    }

    /// Lines containing `needle`.
    pub fn grep(&self, needle: &str) -> Vec<String> {
        self.lines()
            .into_iter()
            .filter(|l| l.contains(needle))
            .collect()
    }

    fn record(&self, line: String) {
        let mut inner = self.inner.lock().expect("trace buffer lock");
        if inner.lines.len() >= inner.capacity {
            inner.dropped += 1;
        } else {
            inner.lines.push(line);
        }
    }
}

/// The forensic ring: the most recent `capacity` records of every
/// class, kept raw in emission order. Plain data owned by the
/// [`Tracer`], so capturing an event is a record copy, not a lock.
#[derive(Debug)]
struct TraceRing {
    records: VecDeque<TraceRecord>,
    capacity: usize,
}

impl TraceRing {
    fn record(&mut self, rec: TraceRecord) {
        if self.records.len() >= self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(rec);
    }
}

enum Sink {
    Null,
    Buffer(TraceBuffer),
    Writer(Box<dyn Write + Send>),
}

impl fmt::Debug for Sink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sink::Null => f.write_str("Sink::Null"),
            Sink::Buffer(_) => f.write_str("Sink::Buffer"),
            Sink::Writer(_) => f.write_str("Sink::Writer"),
        }
    }
}

/// The trace recorder attached to a simulation context.
///
/// [`Tracer::emit`] is the single emission path: every structured
/// [`TraceRecord`] lands unformatted in the attached [`FlightRecorder`]
/// and forensic ring (if any, every class), and is rendered to text
/// only for the level-masked sink.
#[derive(Debug)]
pub struct Tracer {
    level: TraceLevel,
    sink: Sink,
    /// Optional forensic ring; captures all classes when attached.
    ring: Option<TraceRing>,
    /// Optional structured flight recorder; captures all classes.
    flight: Option<FlightRecorder>,
    names: NameTable,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            level: TraceLevel::NONE,
            sink: Sink::Null,
            ring: None,
            flight: None,
            names: NameTable::default(),
        }
    }

    /// Traces into a shared in-memory buffer.
    pub fn to_buffer(level: TraceLevel, buffer: TraceBuffer) -> Self {
        Tracer { sink: Sink::Buffer(buffer), level, ..Tracer::disabled() }
    }

    /// Traces into any writer (e.g. a file), one line per event.
    pub fn to_writer(level: TraceLevel, writer: Box<dyn Write + Send>) -> Self {
        Tracer { sink: Sink::Writer(writer), level, ..Tracer::disabled() }
    }

    /// Attaches an empty forensic ring keeping the most recent
    /// `capacity` events of every class, independently of the level
    /// mask (replacing any ring attached before).
    pub fn attach_ring(&mut self, capacity: usize) {
        // A capacity read from a file is not trusted with an up-front
        // reservation: a ring larger than `RING_RESERVE` grows as it
        // fills.
        const RING_RESERVE: usize = 1 << 16;
        let capacity = capacity.max(1);
        let records = VecDeque::with_capacity(capacity.min(RING_RESERVE));
        self.ring = Some(TraceRing { records, capacity });
    }

    /// Detaches the forensic ring, if any.
    pub fn detach_ring(&mut self) {
        self.ring = None;
    }

    /// The forensic ring's events as historic text trace lines, oldest
    /// first, rendered against this tracer's name table — one render
    /// per retained event, on the caller's time (empty without a
    /// ring).
    pub fn ring_lines(&self) -> Vec<String> {
        let Some(ring) = &self.ring else { return Vec::new() };
        ring.records.iter().map(|r| r.render_line(|idx| self.names.resolve(idx))).collect()
    }

    /// Attaches a flight recorder that captures every event class as
    /// raw structured records, independently of the level mask.
    pub fn attach_flight(&mut self, flight: FlightRecorder) {
        self.flight = Some(flight);
    }

    /// Detaches the flight recorder, if any.
    pub fn detach_flight(&mut self) {
        self.flight = None;
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Adopts the observation stream of `other`: its name table, its
    /// flight recorder unless this tracer has one, and its forensic
    /// ring when `their_ring_first` or this tracer has none.
    /// [`crate::HmcSim::set_tracer`] uses this so replacing the tracer
    /// never silently drops the sanitizer's ring or the flight
    /// recorder's timeline (whose records reference the old name
    /// table).
    pub(crate) fn adopt_stream(&mut self, other: &mut Tracer, their_ring_first: bool) {
        self.names = other.names.clone();
        let (mine, theirs) = (self.ring.take(), other.ring.take());
        self.ring = if their_ring_first { theirs.or(mine) } else { mine.or(theirs) };
        if self.flight.is_none() {
            self.flight = other.flight.take();
        }
    }

    /// The active level mask.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Replaces the level mask.
    pub fn set_level(&mut self, level: TraceLevel) {
        self.level = level;
    }

    /// Interns a dynamic string (CMC names, link-error texts) for
    /// [`CmdRef::Name`] records. Cold paths only.
    pub(crate) fn intern(&self, name: &str) -> u16 {
        self.names.intern(name)
    }

    /// A point-in-time copy of the flight recorder's timeline, paired
    /// with the name table its records reference; `None` when no
    /// recorder is attached.
    pub fn flight_snapshot(&self) -> Option<FlightSnapshot> {
        self.flight
            .as_ref()
            .map(|f| f.snapshot_with_names(self.names.snapshot()))
    }

    /// Restores a flight snapshot into the attached recorder (no-op
    /// without one) and rebases the name table to match its records.
    pub(crate) fn restore_flight(&mut self, snap: &FlightSnapshot) {
        if let Some(f) = &mut self.flight {
            f.restore(snap);
            self.names.replace(snap.names.clone());
        }
    }

    /// True when events of `class` would be recorded.
    #[inline]
    pub fn enabled(&self, class: TraceLevel) -> bool {
        self.level.contains(class) && !matches!(self.sink, Sink::Null)
    }

    /// True when events of `class` reach *any* destination — the sink
    /// (level permitting), an attached forensic ring or an attached
    /// flight recorder (both capture every class). When it is false
    /// for a class, building that class's records can be skipped.
    #[inline]
    pub fn captures(&self, class: TraceLevel) -> bool {
        self.enabled(class) || self.ring.is_some() || self.flight.is_some()
    }

    /// Emits one structured record — the single emission path.
    ///
    /// The flight recorder and the forensic ring receive the raw
    /// record (no formatting); the text line is rendered only when the
    /// sink's level asks for this class.
    ///
    /// With no recorder, no ring and a null sink there is nowhere for
    /// the record to go; that test is inlined into every call site, so
    /// an unobserved run neither makes the call nor builds the record.
    #[inline]
    pub fn emit(&mut self, rec: TraceRecord) {
        if self.flight.is_none() && self.ring.is_none() && matches!(self.sink, Sink::Null) {
            return;
        }
        self.deliver(rec);
    }

    fn deliver(&mut self, rec: TraceRecord) {
        if let Some(flight) = &mut self.flight {
            flight.record(rec);
        }
        if let Some(ring) = &mut self.ring {
            ring.record(rec);
        }
        if !self.enabled(rec.kind.class()) {
            return;
        }
        let names = &self.names;
        let line = rec.render_line(|idx| names.resolve(idx));
        match &mut self.sink {
            Sink::Null => {}
            Sink::Buffer(buf) => buf.record(line),
            Sink::Writer(w) => {
                let _ = writeln!(w, "{line}");
            }
        }
    }

    /// Lines the buffer sink dropped at capacity (0 for other sinks).
    pub fn sink_dropped(&self) -> u64 {
        match &self.sink {
            Sink::Buffer(buf) => buf.dropped(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd_record(cycle: u64) -> TraceRecord {
        TraceRecord {
            dev: 0,
            quad: 1,
            vault: 5,
            bank: 2,
            tag: 7,
            cmd: CmdRef::Rqst(HmcRqst::Rd16),
            a: 0x1000,
            ..TraceRecord::new(cycle, TraceKind::Cmd)
        }
    }

    #[test]
    fn captures_tracks_sink_ring_and_flight() {
        let mut t = Tracer::disabled();
        assert!(!t.captures(TraceLevel::CMD));
        t.attach_ring(4);
        assert!(t.captures(TraceLevel::CMD), "ring captures every class");
        t.detach_ring();
        assert!(!t.captures(TraceLevel::CMD));
        t.attach_flight(FlightRecorder::new(4));
        assert!(t.captures(TraceLevel::CMD), "flight captures every class");
        let t2 = Tracer::to_buffer(TraceLevel::CMD, TraceBuffer::new());
        assert!(t2.captures(TraceLevel::CMD));
        assert!(!t2.captures(TraceLevel::BANK));
    }

    #[test]
    fn level_mask_algebra() {
        let m = TraceLevel::CMD | TraceLevel::STALL;
        assert!(m.contains(TraceLevel::CMD));
        assert!(m.contains(TraceLevel::STALL));
        assert!(!m.contains(TraceLevel::BANK));
        assert!(TraceLevel::ALL.contains(TraceLevel::POWER));
        assert!(TraceLevel::ALL.contains(TraceLevel::ENGINE));
        assert!(!TraceLevel::NONE.contains(TraceLevel::CMD));
    }

    #[test]
    fn buffer_records_enabled_events_only() {
        let buf = TraceBuffer::new();
        let mut t = Tracer::to_buffer(TraceLevel::CMD, buf.clone());
        t.emit(TraceRecord {
            cmd: CmdRef::Name(t.intern("INC8")),
            vault: 3,
            ..TraceRecord::new(10, TraceKind::Cmd)
        });
        t.emit(TraceRecord { vault: 1, link: 0, ..TraceRecord::new(11, TraceKind::XbarRspFull) });
        assert_eq!(buf.len(), 1);
        assert_eq!(
            buf.lines()[0],
            "HMCSIM_TRACE : 10 : RQST : CMD=INC8 CUB=0 QUAD=0 VAULT=3 BANK=0 ADDR=0x0 TAG=0"
        );
        assert_eq!(buf.grep("INC8").len(), 1);
        assert!(!buf.is_empty());
    }

    #[test]
    fn bounded_buffer_counts_drops() {
        let buf = TraceBuffer::with_capacity(2);
        let mut t = Tracer::to_buffer(TraceLevel::ALL, buf.clone());
        for i in 0..5 {
            t.emit(cmd_record(i));
        }
        assert_eq!(buf.len(), 2, "capacity bounds retained lines");
        assert_eq!(buf.dropped(), 3, "overflow is counted, not stored");
        assert_eq!(t.sink_dropped(), 3);
        assert!(buf.lines()[0].contains(" 0 "), "oldest lines are kept");
    }

    #[test]
    fn disabled_tracer_is_silent() {
        let mut t = Tracer::disabled();
        assert!(!t.enabled(TraceLevel::CMD));
        t.emit(cmd_record(0));
    }

    #[test]
    fn ring_captures_all_classes_and_bounds_length() {
        let mut t = Tracer::disabled();
        t.attach_ring(3);
        // The level mask is NONE, but the ring still captures events.
        for i in 0..5 {
            t.emit(TraceRecord { vault: i as u16, tag: i as u16, ..TraceRecord::new(i, TraceKind::Poison) });
        }
        let lines = t.ring_lines();
        assert_eq!(lines.len(), 3, "ring retains only the newest lines");
        assert!(lines[0].contains("vault=2"));
        assert!(lines[2].contains("vault=4"));
        t.detach_ring();
        t.emit(TraceRecord::new(9, TraceKind::Poison));
        assert!(t.ring_lines().is_empty());
    }

    #[test]
    fn flight_recorder_captures_raw_records_per_lane() {
        let mut t = Tracer::disabled();
        t.attach_flight(FlightRecorder::new(2));
        // Bank lane: three Cmd records into a 2-slot ring.
        for i in 0..3 {
            t.emit(cmd_record(i));
        }
        // Host lane: one delivery.
        t.emit(TraceRecord { tag: 7, a: 3, link: 2, ..TraceRecord::new(9, TraceKind::Deliver) });
        let flight = t.flight().unwrap();
        assert_eq!(flight.len(), 3);
        assert_eq!(flight.dropped(), 1, "bank lane evicted one record");
        let snap = t.flight_snapshot().unwrap();
        assert_eq!(snap.capacity, 2);
        assert_eq!(snap.lanes.len(), 5);
        let bank = snap.lanes.iter().find(|l| l.name == "bank").unwrap();
        assert_eq!(bank.records.len(), 2);
        assert_eq!(bank.records[0].cycle, 1, "oldest retained after eviction");
        assert_eq!(bank.dropped, 1);
        let lines = snap.lines();
        assert_eq!(lines.last().unwrap(), "HMCSIM_TRACE : 9 : LATENCY : tag=7 lat=3 link=2");
        t.detach_flight();
        t.emit(cmd_record(10));
        assert!(t.flight_snapshot().is_none(), "a detached recorder is gone");
    }

    #[test]
    fn flight_snapshot_restores_byte_identically() {
        let mut t = Tracer::disabled();
        t.attach_flight(FlightRecorder::new(4));
        let name = t.intern("hmc_lock");
        t.emit(TraceRecord {
            cmd: CmdRef::Name(name),
            a: 20,
            b: 1,
            quad: 1,
            ..TraceRecord::new(3, TraceKind::CmcOp)
        });
        let snap = t.flight_snapshot().unwrap();
        assert_eq!(
            snap.lines(),
            vec!["HMCSIM_TRACE : 3 : CMC : op=hmc_lock cmd=20 af=true rsp_len=1".to_string()]
        );
        t.attach_flight(FlightRecorder::new(1));
        assert!(t.flight().unwrap().is_empty());
        t.restore_flight(&snap);
        assert_eq!(t.flight_snapshot().unwrap(), snap);
    }

    #[test]
    fn renders_match_legacy_formats() {
        let cases: Vec<(TraceRecord, &str)> = vec![
            (
                TraceRecord { dev: 0, link: 2, a: 17, ..TraceRecord::new(4, TraceKind::LinkRetry) },
                "HMCSIM_TRACE : 4 : RETRY : link error injected: dev=0 link=2, replay at 17",
            ),
            (
                TraceRecord { link: 1, ..TraceRecord::new(8, TraceKind::LinkDown) },
                "HMCSIM_TRACE : 8 : FAULT : kind=LINKDOWN link=1",
            ),
            (
                TraceRecord { vault: 9, tag: 3, a: 0x0b, ..TraceRecord::new(2, TraceKind::VaultFault) },
                "HMCSIM_TRACE : 2 : FAULT : kind=VAULT vault=9 tag=3 errstat=0xb",
            ),
            (
                TraceRecord { link: 0, vault: 12, a: 4, ..TraceRecord::new(6, TraceKind::XbarToVault) },
                "HMCSIM_TRACE : 6 : QUEUE : xbar->vault: link=0 vault=12 occ=4",
            ),
            (
                TraceRecord { vault: 7, bank: 3, ..TraceRecord::new(1, TraceKind::BankBusy) },
                "HMCSIM_TRACE : 1 : BANK : bank busy: vault=7 bank=3",
            ),
            (
                TraceRecord {
                    cmd: CmdRef::Rqst(HmcRqst::Cmc(20)),
                    b: 1,
                    ..TraceRecord::new(5, TraceKind::CmdReject)
                },
                "HMCSIM_TRACE : 5 : RQST : CMD=CMC20 rejected: not in Gen2",
            ),
            (
                TraceRecord { cmd: CmdRef::Inactive(33), ..TraceRecord::new(5, TraceKind::Cmd) },
                "HMCSIM_TRACE : 5 : RQST : CMD=CMC33(inactive) CUB=0 QUAD=0 VAULT=0 BANK=0 ADDR=0x0 TAG=0",
            ),
            (
                TraceRecord { a: 100, b: 40, ..TraceRecord::new(100, TraceKind::IdleSkip) },
                "HMCSIM_TRACE : 100 : ENGINE : idle skip: from=100 len=40",
            ),
        ];
        for (rec, want) in cases {
            assert_eq!(rec.render_line(|_| "?".into()), want);
            assert_eq!(rec.kind.lane().name(), rec.kind.lane().name());
        }
    }

    #[test]
    fn writer_sink_emits_lines() {
        let cursor: Vec<u8> = Vec::new();
        let shared = Arc::new(Mutex::new(cursor));
        struct SharedWriter(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut t = Tracer::to_writer(
            TraceLevel::LATENCY,
            Box::new(SharedWriter(shared.clone())),
        );
        t.emit(TraceRecord { tag: 7, a: 3, link: 0, ..TraceRecord::new(99, TraceKind::Deliver) });
        let out = String::from_utf8(shared.lock().unwrap().clone()).unwrap();
        assert_eq!(out, "HMCSIM_TRACE : 99 : LATENCY : tag=7 lat=3 link=0\n");
    }

    #[test]
    fn name_table_interns_and_round_trips() {
        let names = NameTable::default();
        let a = names.intern("hmc_lock");
        let b = names.intern("hmc_unlock");
        assert_eq!(names.intern("hmc_lock"), a, "dedup");
        assert_ne!(a, b);
        assert_eq!(names.resolve(a), "hmc_lock");
        assert_eq!(names.resolve(999), "?");
        let snap = names.snapshot();
        let other = NameTable::default();
        other.replace(snap);
        assert_eq!(other.resolve(b), "hmc_unlock");
        assert_eq!(other.intern("hmc_lock"), a, "index survives replace");
    }

    #[test]
    fn replaced_names_stay_resolvable_until_their_slot_is_reused() {
        // A restore rewinds the table to the snapshot's; records the
        // forensic ring captured since then still name later slots.
        let names = NameTable::default();
        let ids: Vec<u16> = ["a", "b", "c"].iter().map(|n| names.intern(n)).collect();
        names.replace(vec!["a".to_owned()]);
        assert_eq!(names.snapshot(), ["a"], "the table is the snapshot's");
        assert_eq!(names.resolve(ids[2]), "c", "older records still render");
        assert_eq!(names.intern("b2"), ids[1], "interning resumes after the snapshot's names");
        assert_eq!(names.resolve(ids[1]), "b2");
        assert_eq!(names.resolve(ids[2]), "c");
        assert_eq!(names.snapshot(), ["a", "b2"]);
        names.replace(vec!["x".to_owned(), "y".to_owned(), "z".to_owned(), "w".to_owned()]);
        assert_eq!(names.snapshot(), ["x", "y", "z", "w"], "a longer table replaces every slot");
    }
}
