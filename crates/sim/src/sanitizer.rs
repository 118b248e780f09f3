//! SimSanitizer — cycle-level invariant checking, stall watchdog and
//! crash forensics.
//!
//! When enabled on a [`crate::config::SimConfig`] (or via
//! [`HmcSim::enable_sanitizer`]), the sanitizer audits conservation
//! invariants at every `clock()` boundary:
//!
//! * **packet conservation** — packets injected = packets still in
//!   the fabric + delivered + absorbed (posted/flow, no response) +
//!   dropped as zombies;
//! * **token conservation** — a link's outstanding tokens exactly
//!   cover the FLITs held in its crossbar input queue and retry
//!   buffer (host-only topologies), the pool never exceeds its
//!   configured size, and over-returns counted by
//!   [`crate::link::LinkStats::token_overflows`] are surfaced;
//! * **tag consistency** — no tag simultaneously live and free
//!   ([`hmc_types::TagPool::audit`]), every pool-registered tag live,
//!   no zombie entry left behind after its response died;
//! * **queue bounds** — no queue above its configured depth;
//! * **response causality** — no response delivered for a tag that
//!   was never injected (phantom detection);
//!
//! plus a **stall watchdog** that fires when packets are resident in
//! the fabric yet nothing has moved for `watchdog_cycles` cycles.
//!
//! On violation the configured [`SanitizerPolicy`] drives the
//! reaction; `Report` and `Panic` capture a [`ForensicDump`] (full
//! [`SimSnapshot`] + recent trace ring) first, so the crash state is
//! always inspectable. The sanitizer is **default-off and
//! zero-perturbation**: with no sanitizer attached the clock path
//! pays one `Option` check, and an attached sanitizer in `Report`
//! mode only observes (`tests/no_perturbation.rs` pins this).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::config::LinkTopology;
use crate::sim::HmcSim;
use crate::snapshot::{ForensicDump, SimSnapshot};
use crate::trace::{TraceKind, TraceLevel, TraceRecord};
use hmc_types::{Tag, TagSet};
use std::path::PathBuf;

/// What the sanitizer does when an invariant violation is detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanitizerPolicy {
    /// Capture a forensic dump, then panic with the first violation.
    Panic,
    /// Capture a forensic dump and keep simulating (default).
    #[default]
    Report,
    /// Repair the inconsistent state (token pools, tag registries,
    /// conservation counters) and keep simulating.
    Recover,
}

impl SanitizerPolicy {
    /// The policy names configuration files use.
    pub const NAMES: [(&'static str, SanitizerPolicy); 3] = [
        ("panic", SanitizerPolicy::Panic),
        ("report", SanitizerPolicy::Report),
        ("recover", SanitizerPolicy::Recover),
    ];
}

/// Violations a [`SanitizerReport`] retains (the total is still counted
/// past this bound).
pub const MAX_VIOLATIONS: usize = 64;

/// Sanitizer configuration, carried on
/// [`crate::config::SimConfig::sanitizer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizerConfig {
    /// Master switch; `false` keeps the simulator bit-identical to an
    /// unsanitized run.
    pub enabled: bool,
    /// Reaction to a detected violation.
    pub policy: SanitizerPolicy,
    /// Cycles of zero progress (with packets resident) before the
    /// stall watchdog fires. 0 disables the watchdog.
    pub watchdog_cycles: u64,
    /// Take a checkpoint snapshot every N cycles (0 = never); the
    /// latest is available via [`HmcSim::sanitizer_checkpoint`] and
    /// bounds the replay window after a violation. Only the latest is
    /// held: the previous one is released before the next is taken.
    /// Taking one copies no memory page (it shares them with the live
    /// store); what it holds is a copy of each page written since.
    pub checkpoint_every: u64,
    /// When set, forensic dumps are written as
    /// `<dir>/forensic-c<cycle>.json`.
    pub dump_dir: Option<PathBuf>,
}

impl SanitizerConfig {
    /// The default-off configuration (no sanitizer attached).
    pub fn disabled() -> Self {
        SanitizerConfig {
            enabled: false,
            policy: SanitizerPolicy::Report,
            watchdog_cycles: 10_000,
            checkpoint_every: 0,
            dump_dir: None,
        }
    }

    /// Enabled, report-only (capture dumps, keep simulating).
    pub fn report() -> Self {
        SanitizerConfig { enabled: true, ..Self::disabled() }
    }

    /// Enabled, panicking on the first violation (CI chaos mode).
    pub fn panicking() -> Self {
        SanitizerConfig { policy: SanitizerPolicy::Panic, ..Self::report() }
    }

    /// Enabled, repairing violations in place.
    pub fn recovering() -> Self {
        SanitizerConfig { policy: SanitizerPolicy::Recover, ..Self::report() }
    }
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// The class of a detected invariant violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ViolationKind {
    /// A token return pushed a pool past its configured size.
    TokenOverReturn,
    /// A token pool holds more tokens than its configured size.
    TokenPoolOverflow,
    /// Outstanding tokens do not match the FLITs actually held in the
    /// link's queues (host-only topology).
    TokenConservation,
    /// A tag pool failed its internal audit (tag both live and free,
    /// duplicate free entry, count mismatch).
    TagPoolCorrupt,
    /// A pool-registered in-flight tag is not live in its pool.
    TagLiveAndFree,
    /// A zombie entry exists for a tag with no in-flight response.
    ZombieTagLeak,
    /// Packets injected ≠ in fabric + delivered + absorbed + zombies.
    PacketConservation,
    /// A response was delivered for a tag that was never injected.
    PhantomResponse,
    /// A second in-flight request reused a live (device, link, tag).
    DuplicateLiveTag,
    /// A queue's occupancy exceeds its configured depth.
    QueueOverflow,
    /// Packets are resident but nothing has moved for the configured
    /// number of cycles.
    StallWatchdog,
}

impl ViolationKind {
    /// The stable kebab-case name of every kind (forensic dumps,
    /// snapshots).
    pub const NAMES: [(&'static str, ViolationKind); 11] = [
        ("token-over-return", ViolationKind::TokenOverReturn),
        ("token-pool-overflow", ViolationKind::TokenPoolOverflow),
        ("token-conservation", ViolationKind::TokenConservation),
        ("tag-pool-corrupt", ViolationKind::TagPoolCorrupt),
        ("tag-live-and-free", ViolationKind::TagLiveAndFree),
        ("zombie-tag-leak", ViolationKind::ZombieTagLeak),
        ("packet-conservation", ViolationKind::PacketConservation),
        ("phantom-response", ViolationKind::PhantomResponse),
        ("duplicate-live-tag", ViolationKind::DuplicateLiveTag),
        ("queue-overflow", ViolationKind::QueueOverflow),
        ("stall-watchdog", ViolationKind::StallWatchdog),
    ];

    /// Stable kebab-case name (used in forensic-dump JSON).
    pub fn name(&self) -> &'static str {
        crate::jsonv::name_of(&Self::NAMES, *self)
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Cycle the check ran at.
    pub cycle: u64,
    /// Violation class.
    pub kind: ViolationKind,
    /// Human-readable description with the offending values.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] cycle {}: {}", self.kind.name(), self.cycle, self.detail)
    }
}

/// Cumulative sanitizer results, readable any time via
/// [`HmcSim::sanitizer_report`].
#[derive(Debug, Clone, Default)]
pub struct SanitizerReport {
    /// Retained violations (at most [`MAX_VIOLATIONS`]).
    pub violations: Vec<Violation>,
    /// Every violation ever detected, including those past the bound.
    pub total_violations: u64,
    /// Violations repaired under [`SanitizerPolicy::Recover`].
    pub recovered: u64,
    /// Clock boundaries audited.
    pub cycles_checked: u64,
    /// Periodic checkpoints taken.
    pub checkpoints_taken: u64,
}

/// The sanitizer's shadow accounting: an independent tally of packet
/// and tag flow, updated by clock-path hooks and reconciled against
/// the structural state at every cycle boundary.
#[derive(Debug, Clone, Default)]
pub struct SanitizerShadow {
    /// Packets accepted into the fabric by `send`.
    pub injected: u64,
    /// Responses delivered to a host receive buffer.
    pub delivered: u64,
    /// Requests retired without a response (posted/flow/faulted).
    pub absorbed: u64,
    /// Stale responses dropped because the host abandoned the tag.
    pub zombie_dropped: u64,
    /// Tags with an expected in-flight response, per
    /// `[device][entry link]`; a place the lists do not reach holds
    /// none.
    pub live_tags: Vec<Vec<TagSet>>,
    /// Per-`[dev][link]` token-overflow counts already reported (for
    /// delta detection).
    pub seen_token_overflows: Vec<Vec<u64>>,
    /// Violations recorded by mid-cycle hooks, drained at the next
    /// boundary check.
    pub pending: Vec<Violation>,
}

impl SanitizerShadow {
    /// Marks `tag` live on `(dev, link)`, growing the lists to reach
    /// the place; false when it was live already.
    pub(crate) fn insert_live(&mut self, dev: usize, link: usize, tag: Tag) -> bool {
        if self.live_tags.len() <= dev {
            self.live_tags.resize_with(dev + 1, Vec::new);
        }
        let links = &mut self.live_tags[dev];
        if links.len() <= link {
            links.resize_with(link + 1, TagSet::new);
        }
        links[link].insert(tag)
    }

    /// Clears `tag` on `(dev, link)`; false when it was not live.
    fn remove_live(&mut self, dev: usize, link: usize, tag: Tag) -> bool {
        let place = self.live_tags.get_mut(dev).and_then(|links| links.get_mut(link));
        place.is_some_and(|tags| tags.remove(tag))
    }

    /// True when `tag` (any 16-bit value) is live on `(dev, link)`.
    fn is_live(&self, dev: usize, link: usize, tag: u16) -> bool {
        let place = self.live_tags.get(dev).and_then(|links| links.get(link));
        place.zip(Tag::new(tag as u32).ok()).is_some_and(|(tags, tag)| tags.contains(tag))
    }
}

/// The attached sanitizer (one per [`HmcSim`], behind
/// `Option<Box<_>>` so the disabled path costs a single branch).
#[derive(Debug)]
pub struct Sanitizer {
    pub(crate) config: SanitizerConfig,
    pub(crate) shadow: SanitizerShadow,
    report: SanitizerReport,
    /// Watchdog: the values [`Sanitizer::for_each_progress_value`]
    /// last handed out (empty = nothing observed yet; a real
    /// signature never is).
    watch_sig: Vec<u64>,
    stalled_cycles: u64,
    last_checkpoint: Option<SimSnapshot>,
    last_dump: Option<ForensicDump>,
}

impl Sanitizer {
    pub(crate) fn new(config: SanitizerConfig) -> Self {
        Sanitizer {
            config,
            shadow: SanitizerShadow::default(),
            report: SanitizerReport::default(),
            watch_sig: Vec::new(),
            stalled_cycles: 0,
            last_checkpoint: None,
            last_dump: None,
        }
    }

    /// Rebases the shadow accounting to the simulator's current
    /// structural state: used at enable time and when restoring a
    /// snapshot that carries no shadow. Raw-injected tags already in
    /// flight at enable time are reconstructed from the pool
    /// registries; tags injected via raw `send` before enabling are
    /// unknowable and will surface as phantom responses.
    pub(crate) fn rebase(&mut self, sim: &HmcSim) {
        self.shadow.delivered = 0;
        self.shadow.absorbed = 0;
        self.shadow.zombie_dropped = 0;
        self.shadow.injected = sim.live_packets();
        self.shadow.live_tags = sim.pool_tags.clone();
        for (dev, set) in sim.zombie_tags.iter().enumerate() {
            for &(link, tag) in set {
                // A restored zombie that no link could carry stays
                // out, and is reported as the leak it is.
                if let (true, Ok(tag)) = (link < sim.links[dev].len(), Tag::new(tag as u32)) {
                    self.shadow.insert_live(dev, link, tag);
                }
            }
        }
        self.shadow.seen_token_overflows = sim
            .links
            .iter()
            .map(|d| d.iter().map(|l| l.stats.token_overflows).collect())
            .collect();
        self.shadow.pending.clear();
    }

    /// Clears the stall watchdog (after a restore, where the
    /// signature would compare states across a discontinuity).
    pub(crate) fn reset_watchdog(&mut self) {
        self.watch_sig.clear();
        self.stalled_cycles = 0;
    }

    /// Hook: a packet was accepted into the fabric. `tracked` marks
    /// requests that will produce a response (their tag goes live).
    pub(crate) fn note_injected(
        &mut self,
        dev: usize,
        link: usize,
        tag: Tag,
        tracked: bool,
        cycle: u64,
    ) {
        self.shadow.injected += 1;
        if tracked && !self.shadow.insert_live(dev, link, tag) {
            let tag = tag.value();
            self.shadow.pending.push(Violation {
                cycle,
                kind: ViolationKind::DuplicateLiveTag,
                detail: format!(
                    "tag {tag} on dev {dev} link {link} reused while its response is in flight"
                ),
            });
        }
    }

    /// Hook: a response is about to be delivered to a host receive
    /// buffer. Returns `false` when the response is a phantom (never
    /// injected) and the policy is `Recover` — the caller drops it.
    pub(crate) fn note_delivered(
        &mut self,
        dev: usize,
        entry_link: usize,
        tag: Tag,
        cycle: u64,
    ) -> bool {
        if self.shadow.remove_live(dev, entry_link, tag) {
            self.shadow.delivered += 1;
            return true;
        }
        let tag = tag.value();
        self.shadow.pending.push(Violation {
            cycle,
            kind: ViolationKind::PhantomResponse,
            detail: format!(
                "response for tag {tag} on dev {dev} link {entry_link} was never injected"
            ),
        });
        if self.config.policy == SanitizerPolicy::Recover {
            self.report.recovered += 1;
            return false;
        }
        true
    }

    /// Hook: a stale response died at delivery because the host had
    /// abandoned its tag.
    pub(crate) fn note_zombie(&mut self, dev: usize, entry_link: usize, tag: Tag, cycle: u64) {
        if self.shadow.remove_live(dev, entry_link, tag) {
            self.shadow.zombie_dropped += 1;
        } else {
            let tag = tag.value();
            self.shadow.pending.push(Violation {
                cycle,
                kind: ViolationKind::PhantomResponse,
                detail: format!(
                    "zombie response for tag {tag} on dev {dev} link {entry_link} was never \
                     injected"
                ),
            });
        }
    }

    /// Hook: `n` requests retired without generating a response
    /// (posted writes, flow packets, posted vault faults).
    pub(crate) fn note_absorbed(&mut self, n: u64) {
        self.shadow.absorbed += n;
    }

    /// The cumulative report.
    pub(crate) fn report(&self) -> &SanitizerReport {
        &self.report
    }

    pub(crate) fn last_dump(&self) -> Option<&ForensicDump> {
        self.last_dump.as_ref()
    }

    pub(crate) fn take_last_dump(&mut self) -> Option<ForensicDump> {
        self.last_dump.take()
    }

    pub(crate) fn last_checkpoint(&self) -> Option<&SimSnapshot> {
        self.last_checkpoint.as_ref()
    }

    /// Runs every boundary check against `sim`'s structural state.
    /// Returns the fatal panic message under [`SanitizerPolicy::Panic`]
    /// (the caller panics after re-attaching the sanitizer, so the
    /// forensic dump survives `catch_unwind`).
    pub(crate) fn end_of_cycle(&mut self, sim: &mut HmcSim, cycle: u64) -> Option<String> {
        self.report.cycles_checked += 1;
        let mut violations = std::mem::take(&mut self.shadow.pending);
        // One walk of the queues serves conservation and the watchdog.
        // The structural checks are pure reads of `sim` and the shadow;
        // a clean state formats and allocates nothing.
        let live = sim.live_packets();
        self.check_tokens(sim, cycle, &mut violations);
        self.check_tags(sim, cycle, &mut violations);
        self.check_queues(sim, cycle, &mut violations);
        self.check_conservation(live, cycle, &mut violations);
        self.check_watchdog(sim, cycle, live, &mut violations);

        let mut fatal = None;
        if !violations.is_empty() {
            // Stamp the audit into the structured stream *before* the
            // dump snapshots the flight recorder, so the dump's own
            // timeline ends with the audit that produced it.
            if sim.tracer.captures(TraceLevel::ENGINE) {
                sim.tracer.emit(TraceRecord {
                    a: violations.len() as u64,
                    ..TraceRecord::new(cycle, TraceKind::SanitizerAudit)
                });
            }
            self.report.total_violations += violations.len() as u64;
            for v in &violations {
                if self.report.violations.len() < MAX_VIOLATIONS {
                    self.report.violations.push(v.clone());
                }
            }
            // The dump's snapshot carries the *pre-acknowledgement*
            // shadow, so restoring it and clocking once re-detects the
            // same violation at the same cycle.
            if self.config.policy != SanitizerPolicy::Recover {
                let dump = ForensicDump {
                    cycle,
                    violations: violations.clone(),
                    snapshot: sim.snapshot_with_shadow(Some(self.shadow.clone())),
                    trace: sim.tracer.ring_lines(),
                    checkpoint_cycle: self.last_checkpoint.as_ref().map(SimSnapshot::cycle),
                    telemetry: sim.telemetry_report(),
                    flight: sim.flight_snapshot(),
                };
                if let Some(dir) = &self.config.dump_dir {
                    let path = dir.join(format!("forensic-c{cycle}.json"));
                    let _ = dump.write_to(&path);
                }
                self.last_dump = Some(dump);
            }
            if self.config.policy == SanitizerPolicy::Panic {
                fatal = Some(format!(
                    "sanitizer: {} violation(s) at cycle {cycle}; first: {}",
                    violations.len(),
                    violations[0]
                ));
            }
        }

        // Acknowledge over-return deltas (after the dump captured the
        // pre-ack state) so each event reports exactly once.
        for (dev, links) in sim.links.iter().enumerate() {
            for (link, lc) in links.iter().enumerate() {
                self.shadow.seen_token_overflows[dev][link] = lc.stats.token_overflows;
            }
        }

        if !violations.is_empty() && self.config.policy == SanitizerPolicy::Recover {
            self.recover(sim);
            self.report.recovered += violations.len() as u64;
        }

        // Periodic checkpoint, taken last so it carries a clean
        // (acknowledged) shadow that will not re-fire old violations.
        // The previous one goes first: it frees the pages written since
        // it was taken, which it alone still holds.
        if self.config.checkpoint_every > 0 && cycle.is_multiple_of(self.config.checkpoint_every)
        {
            drop(self.last_checkpoint.take());
            self.last_checkpoint = Some(sim.snapshot_with_shadow(Some(self.shadow.clone())));
            self.report.checkpoints_taken += 1;
            if sim.tracer.captures(TraceLevel::ENGINE) {
                sim.tracer.emit(TraceRecord {
                    a: cycle,
                    ..TraceRecord::new(cycle, TraceKind::Checkpoint)
                });
            }
        }

        fatal
    }

    fn check_tokens(&self, sim: &HmcSim, cycle: u64, out: &mut Vec<Violation>) {
        for (dev, links) in sim.links.iter().enumerate() {
            for (link, lc) in links.iter().enumerate() {
                if let Some(cap) = sim.config.devices[dev].link_config.tokens {
                    if lc.tokens_available() > cap {
                        out.push(Violation {
                            cycle,
                            kind: ViolationKind::TokenPoolOverflow,
                            detail: format!(
                                "dev {dev} link {link}: {} tokens exceed pool size {cap}",
                                lc.tokens_available()
                            ),
                        });
                    }
                    // FLIT conservation: tokens outstanding must equal
                    // the FLITs physically held on the link's behalf.
                    // Chained topologies forward packets without
                    // consuming tokens, so the equality only holds
                    // host-only.
                    if matches!(sim.config.topology, LinkTopology::HostOnly) {
                        let held = held_flits(sim, dev, link);
                        let outstanding = cap.saturating_sub(lc.tokens_available()) as u64;
                        if outstanding != held {
                            out.push(Violation {
                                cycle,
                                kind: ViolationKind::TokenConservation,
                                detail: format!(
                                    "dev {dev} link {link}: {outstanding} tokens outstanding \
                                     but {held} FLITs held"
                                ),
                            });
                        }
                    }
                }
                let seen = self.shadow.seen_token_overflows[dev][link];
                if lc.stats.token_overflows > seen {
                    out.push(Violation {
                        cycle,
                        kind: ViolationKind::TokenOverReturn,
                        detail: format!(
                            "dev {dev} link {link}: {} token over-return(s) this cycle \
                             ({} total)",
                            lc.stats.token_overflows - seen,
                            lc.stats.token_overflows
                        ),
                    });
                }
            }
        }
    }

    fn check_tags(&self, sim: &HmcSim, cycle: u64, out: &mut Vec<Violation>) {
        for (dev, pools) in sim.tag_pools.iter().enumerate() {
            for (link, pool) in pools.iter().enumerate() {
                if let Err(e) = pool.audit() {
                    out.push(Violation {
                        cycle,
                        kind: ViolationKind::TagPoolCorrupt,
                        detail: format!("dev {dev} link {link}: {e}"),
                    });
                }
                // One AND per word says every registered tag is live;
                // the walk is for naming the ones that are not.
                let registered = &sim.pool_tags[dev][link];
                if pool.first_not_live(registered).is_none() {
                    continue;
                }
                for tag in registered.iter().filter(|&tag| !pool.is_live(tag)) {
                    out.push(Violation {
                        cycle,
                        kind: ViolationKind::TagLiveAndFree,
                        detail: format!(
                            "dev {dev} link {link}: registered in-flight tag {} is \
                             free in its pool",
                            tag.value()
                        ),
                    });
                }
            }
        }
        for (dev, set) in sim.zombie_tags.iter().enumerate() {
            // Almost always empty; the sorted view is for the report.
            if set.is_empty() {
                continue;
            }
            let mut zombies: Vec<(usize, u16)> = set.iter().copied().collect();
            zombies.sort_unstable();
            for (link, tag) in zombies {
                if !self.shadow.is_live(dev, link, tag) {
                    out.push(Violation {
                        cycle,
                        kind: ViolationKind::ZombieTagLeak,
                        detail: format!(
                            "dev {dev} link {link}: zombie tag {tag} has no in-flight \
                             response and can never be reclaimed"
                        ),
                    });
                }
            }
        }
    }

    fn check_queues(&self, sim: &HmcSim, cycle: u64, out: &mut Vec<Violation>) {
        for (dev, d) in sim.devices.iter().enumerate() {
            if let Some(msg) = d.queue_bound_violation() {
                out.push(Violation {
                    cycle,
                    kind: ViolationKind::QueueOverflow,
                    detail: format!("dev {dev}: {msg}"),
                });
            }
        }
    }

    fn check_conservation(&self, live: u64, cycle: u64, out: &mut Vec<Violation>) {
        let accounted =
            live + self.shadow.delivered + self.shadow.absorbed + self.shadow.zombie_dropped;
        if self.shadow.injected != accounted {
            out.push(Violation {
                cycle,
                kind: ViolationKind::PacketConservation,
                detail: format!(
                    "{} injected != {live} in fabric + {} delivered + {} absorbed + {} \
                     zombie-dropped",
                    self.shadow.injected,
                    self.shadow.delivered,
                    self.shadow.absorbed,
                    self.shadow.zombie_dropped
                ),
            });
        }
    }

    fn check_watchdog(&mut self, sim: &HmcSim, cycle: u64, live: u64, out: &mut Vec<Violation>) {
        if self.config.watchdog_cycles == 0 {
            return;
        }
        self.observe_progress(sim, live);
        if self.stalled_cycles >= self.config.watchdog_cycles {
            out.push(Violation {
                cycle,
                kind: ViolationKind::StallWatchdog,
                detail: format!(
                    "{live} packet(s) resident but nothing moved for {} cycles",
                    self.stalled_cycles
                ),
            });
            // Re-arm instead of firing every subsequent cycle.
            self.stalled_cycles = 0;
        }
    }

    /// Folds one observation of the state into the stall count: an
    /// empty fabric clears the watchdog, a changed signature restarts
    /// the count. One walk of the state compares it with the signature
    /// last observed and leaves its own in that place.
    fn observe_progress(&mut self, sim: &HmcSim, live: u64) {
        if live == 0 {
            return self.reset_watchdog();
        }
        let (mut at, mut unchanged) = (0, true);
        let seen = &mut self.watch_sig;
        Self::for_each_progress_value(&self.shadow, sim, |value| {
            match seen.get_mut(at) {
                Some(slot) => {
                    unchanged &= *slot == value;
                    *slot = value;
                }
                None => {
                    unchanged = false;
                    seen.push(value);
                }
            }
            at += 1;
        });
        debug_assert_eq!(at, seen.len(), "a context's signature has one length");
        self.stalled_cycles = if unchanged { self.stalled_cycles + 1 } else { 0 };
    }

    /// Everything that changes when the simulation makes progress, in
    /// a fixed order: queue occupancies, transit/retry population,
    /// shadow counters and link packet counts. Deliberately excludes
    /// the cycle counter. Compared value by value, so no two states
    /// alias.
    fn for_each_progress_value(shadow: &SanitizerShadow, sim: &HmcSim, mut f: impl FnMut(u64)) {
        for d in &sim.devices {
            d.for_each_occupancy(&mut f);
        }
        for q in &sim.transit_queues {
            f(q.len() as u64);
        }
        for q in sim.host_rx.iter().flatten() {
            f(q.len() as u64);
        }
        f(sim.retry_pending.len() as u64);
        f(shadow.injected);
        f(shadow.delivered);
        f(shadow.absorbed);
        f(shadow.zombie_dropped);
        for l in sim.links.iter().flatten() {
            f(l.stats.packets_sent);
        }
    }

    /// [`SanitizerPolicy::Recover`]: repairs token pools to match the
    /// FLITs actually held, drops tag-registry entries and zombie
    /// records with no backing state, and rebases the conservation
    /// counters so subsequent cycles check cleanly.
    fn recover(&mut self, sim: &mut HmcSim) {
        for dev in 0..sim.devices.len() {
            for link in 0..sim.links[dev].len() {
                if let Some(cap) = sim.config.devices[dev].link_config.tokens {
                    if matches!(sim.config.topology, LinkTopology::HostOnly) {
                        let held = held_flits(sim, dev, link);
                        let avail = cap.saturating_sub(held.min(cap as u64) as u32);
                        sim.links[dev][link].force_tokens(avail);
                    } else if sim.links[dev][link].tokens_available() > cap {
                        sim.links[dev][link].force_tokens(cap);
                    }
                }
            }
        }
        for dev in 0..sim.tag_pools.len() {
            for link in 0..sim.tag_pools[dev].len() {
                let pool = &sim.tag_pools[dev][link];
                sim.pool_tags[dev][link].retain(|tag| pool.is_live(tag));
            }
        }
        for (dev, set) in sim.zombie_tags.iter_mut().enumerate() {
            set.retain(|&(link, tag)| self.shadow.is_live(dev, link, tag));
        }
        // Rebase the conservation tally, preserving history counters.
        self.shadow.injected = sim.live_packets()
            + self.shadow.delivered
            + self.shadow.absorbed
            + self.shadow.zombie_dropped;
    }
}

/// The FLITs physically held on a link's behalf: its crossbar request
/// queue plus its packets waiting in the retry buffer. In a host-only
/// context that is what its outstanding tokens must equal, so the
/// conservation check and `recover`'s repair share this definition.
fn held_flits(sim: &HmcSim, dev: usize, link: usize) -> u64 {
    sim.devices[dev].xbar_rqst_flits(link)
        + sim
            .retry_pending
            .iter()
            .filter(|e| e.dev == dev && e.link == link)
            .map(|e| e.item.req.flits() as u64)
            .sum::<u64>()
}

impl HmcSim {
    /// Attaches a sanitizer. The shadow accounting is rebased to the
    /// current structural state, so enabling mid-run is legal (tags
    /// injected via raw `send` before this point will surface as
    /// phantom responses when they deliver).
    pub fn enable_sanitizer(&mut self, config: SanitizerConfig) {
        self.config.sanitizer = SanitizerConfig { enabled: true, ..config.clone() };
        let mut san = Box::new(Sanitizer::new(config));
        san.rebase(self);
        self.tracer.attach_ring();
        self.sanitizer = Some(san);
    }

    /// Detaches the sanitizer, returning its final report.
    pub fn disable_sanitizer(&mut self) -> Option<SanitizerReport> {
        self.config.sanitizer.enabled = false;
        self.tracer.detach_ring();
        self.sanitizer.take().map(|s| s.report)
    }

    /// True when a sanitizer is attached.
    pub fn sanitizer_enabled(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// The attached sanitizer's cumulative report.
    pub fn sanitizer_report(&self) -> Option<&SanitizerReport> {
        self.sanitizer.as_ref().map(|s| s.report())
    }

    /// The most recent forensic dump, if a violation has been
    /// captured.
    pub fn forensic_dump(&self) -> Option<&ForensicDump> {
        self.sanitizer.as_ref().and_then(|s| s.last_dump())
    }

    /// Takes ownership of the most recent forensic dump.
    pub fn take_forensic_dump(&mut self) -> Option<ForensicDump> {
        self.sanitizer.as_mut().and_then(|s| s.take_last_dump())
    }

    /// The most recent periodic checkpoint (see
    /// [`SanitizerConfig::checkpoint_every`]).
    pub fn sanitizer_checkpoint(&self) -> Option<&SimSnapshot> {
        self.sanitizer.as_ref().and_then(|s| s.last_checkpoint())
    }

    /// Runs the sanitizer's end-of-cycle audit. Called from `clock()`
    /// before the cycle counter advances; panics (after re-attaching
    /// the sanitizer, so the dump survives `catch_unwind`) under
    /// [`SanitizerPolicy::Panic`].
    #[allow(clippy::panic)] // the `Panic` policy's reaction, which its caller chose
    pub(crate) fn run_sanitizer(&mut self, cycle: u64) {
        let Some(mut san) = self.sanitizer.take() else { return };
        let fatal = san.end_of_cycle(self, cycle);
        self.sanitizer = Some(san);
        if let Some(msg) = fatal {
            panic!("{msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_disabled() {
        let c = SanitizerConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.policy, SanitizerPolicy::Report);
        assert!(c.watchdog_cycles > 0);
        assert_eq!(c.checkpoint_every, 0);
        assert!(c.dump_dir.is_none());
    }

    #[test]
    fn config_presets_pick_policies() {
        assert!(SanitizerConfig::report().enabled);
        assert_eq!(SanitizerConfig::report().policy, SanitizerPolicy::Report);
        assert_eq!(SanitizerConfig::panicking().policy, SanitizerPolicy::Panic);
        assert_eq!(SanitizerConfig::recovering().policy, SanitizerPolicy::Recover);
    }

    #[test]
    fn violation_kind_names_are_stable() {
        assert_eq!(ViolationKind::TokenOverReturn.name(), "token-over-return");
        assert_eq!(ViolationKind::PacketConservation.name(), "packet-conservation");
        assert_eq!(ViolationKind::StallWatchdog.name(), "stall-watchdog");
        let v = Violation {
            cycle: 7,
            kind: ViolationKind::PhantomResponse,
            detail: "x".into(),
        };
        assert_eq!(v.to_string(), "[phantom-response] cycle 7: x");
    }
}
