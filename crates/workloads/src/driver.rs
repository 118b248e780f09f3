//! The simulated-thread driver.
//!
//! The paper's evaluation drives the device with N host threads, each
//! issuing HMC packets and waiting for responses (§V-B). This module
//! provides the deterministic equivalent: every simulated thread is a
//! state machine ticked once per device cycle; the driver routes
//! delivered responses back to the thread that issued the matching
//! tag and records per-thread completion cycles.
//!
//! With a [`ResilienceConfig`] installed the driver also plays the
//! role of a fault-tolerant host controller: it records every tracked
//! request, re-sends requests whose responses time out or come back
//! with a nonzero `ERRSTAT` (bounded retries with exponential
//! backoff), reclaims tags abandoned to the device via
//! `HmcSim::abandon_tag`, redirects sends away from downed links, and
//! reports what happened per thread in [`ThreadFaultStats`]. Threads
//! stay oblivious: a request either eventually succeeds or surfaces
//! as a synthesized error response carrying
//! [`ERRSTAT_HOST_GIVEUP`](hmc_sim::fault::ERRSTAT_HOST_GIVEUP).

use hmc_sim::fault::ERRSTAT_HOST_GIVEUP;
use hmc_sim::{HmcSim, TrackedResponse};
use hmc_types::{Cub, HmcError, HmcResponse, HmcRqst, PayloadBuf, Response, RspHead, RspTail, Slid, Tag};
use std::collections::{BTreeMap, VecDeque};

/// Whether a thread has finished its kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadStatus {
    /// The thread still has work.
    Running,
    /// The thread completed its kernel this cycle.
    Done,
}

/// The body of a tracked request, kept so the driver can replay it.
#[derive(Debug, Clone)]
enum SentKind {
    Std { cmd: HmcRqst, addr: u64, payload: PayloadBuf },
    Cmc { code: u8, addr: u64, payload: PayloadBuf },
}

impl SentKind {
    /// Issues the request on `link`. The payload is copied into the
    /// packet (inline, no allocation): the body may be needed again for
    /// a replay.
    fn send(&self, sim: &mut HmcSim, dev: usize, link: usize) -> Result<Option<Tag>, HmcError> {
        match self {
            SentKind::Std { cmd, addr, payload } => {
                sim.send_simple(dev, link, *cmd, *addr, payload.as_slice())
            }
            SentKind::Cmc { code, addr, payload } => {
                sim.send_cmc(dev, link, *code, *addr, payload.as_slice())
            }
        }
    }
}

/// A tracked request awaiting its response.
struct Inflight {
    tid: usize,
    issued: u64,
    attempts: u32,
    kind: SentKind,
}

/// [`Ledger::owner`]'s "nothing in flight under this tag".
const NO_OWNER: u32 = u32::MAX;

/// The driver's record of the tagged requests in flight.
struct Ledger {
    /// The issuing thread of each, indexed `[entry link][tag]`: one row
    /// per link, grown to the highest tag the link has carried.
    owner: Vec<Vec<u32>>,
    /// Their issue cycles and replayable bodies — kept only under a
    /// resilience policy (without one nothing is ever replayed), in a
    /// `BTreeMap` so the timeout scan is deterministic across runs.
    inflight: Option<BTreeMap<(usize, u16), Inflight>>,
}

impl Ledger {
    fn record(&mut self, link: usize, tag: Tag, entry: Inflight) {
        let row = &mut self.owner[link];
        let slot = tag.value() as usize;
        if row.len() <= slot {
            row.resize(slot + 1, NO_OWNER);
        }
        row[slot] = entry.tid as u32;
        if let Some(inflight) = &mut self.inflight {
            inflight.insert((link, tag.value()), entry);
        }
    }

    /// Forgets the request in flight under `(entry link, tag)`, if any,
    /// returning its thread and — under a resilience policy — the rest
    /// of its record.
    fn retire(&mut self, key: (usize, u16)) -> Option<(usize, Option<Inflight>)> {
        let slot = self.owner.get_mut(key.0)?.get_mut(key.1 as usize)?;
        let tid = std::mem::replace(slot, NO_OWNER);
        if tid == NO_OWNER {
            return None;
        }
        Some((tid as usize, self.inflight.as_mut().and_then(|m| m.remove(&key))))
    }
}

/// Per-tick I/O window a thread uses to talk to the device.
pub struct ThreadIo<'a> {
    sim: &'a mut HmcSim,
    /// Target device index.
    pub dev: usize,
    /// The link this thread is pinned to.
    pub link: usize,
    /// Current simulation cycle.
    pub cycle: u64,
    tid: usize,
    inbox: &'a mut VecDeque<TrackedResponse>,
    /// Where tagged sends are booked. A ledger that keeps bodies means
    /// the driver runs with a resilience policy, and sends fail over to
    /// surviving links.
    ledger: &'a mut Ledger,
    link_failovers: &'a mut u64,
}

impl<'a> ThreadIo<'a> {
    /// Takes the next response delivered to this thread, if any.
    pub fn response(&mut self) -> Option<TrackedResponse> {
        self.inbox.pop_front()
    }

    /// The link to issue on: the pinned link, or (under a resilience
    /// policy) the nearest surviving link when the pinned one is down.
    fn pick_link(&self) -> Result<usize, HmcError> {
        if self.ledger.inflight.is_none() || self.sim.link_is_up(self.dev, self.link) {
            return Ok(self.link);
        }
        let links = self.sim.device_config(self.dev)?.links;
        (0..links)
            .map(|i| (self.link + i) % links)
            .find(|&l| self.sim.link_is_up(self.dev, l))
            .ok_or(HmcError::LinkDown(self.link))
    }

    fn issue(&mut self, kind: SentKind) -> Result<Option<Tag>, HmcError> {
        let link = self.pick_link()?;
        let tag = kind.send(self.sim, self.dev, link)?;
        if link != self.link {
            *self.link_failovers += 1;
        }
        if let Some(tag) = tag {
            let entry = Inflight { tid: self.tid, issued: self.cycle, attempts: 0, kind };
            self.ledger.record(link, tag, entry);
        }
        Ok(tag)
    }

    /// Sends a standard command on the thread's link. Stalls
    /// ([`HmcError::Stall`]) mean "retry next cycle".
    pub fn send(
        &mut self,
        cmd: HmcRqst,
        addr: u64,
        payload: impl Into<PayloadBuf>,
    ) -> Result<Option<Tag>, HmcError> {
        self.issue(SentKind::Std { cmd, addr, payload: payload.into() })
    }

    /// Sends a CMC command on the thread's link.
    pub fn send_cmc(
        &mut self,
        code: u8,
        addr: u64,
        payload: impl Into<PayloadBuf>,
    ) -> Result<Option<Tag>, HmcError> {
        self.issue(SentKind::Cmc { code, addr, payload: payload.into() })
    }
}

/// A simulated host thread.
pub trait HostThread {
    /// The device link this thread issues on.
    fn link(&self) -> usize;

    /// Advances the thread by one cycle.
    fn tick(&mut self, io: &mut ThreadIo<'_>) -> ThreadStatus;

    /// The cycle before which this thread has nothing to do unless a
    /// response reaches it first. `None` (the default) means "tick me
    /// every cycle". Returning `Some(wake)` is a promise that `tick` is
    /// a pure no-op — no send attempt, no state change — on every cycle
    /// before `wake` on which [`ThreadIo::response`] would return
    /// `None`: a thread backing off on the host side returns its wake-up
    /// cycle, a thread waiting for a response returns `Some(u64::MAX)`.
    /// A thread about to send must return `None`, however often its
    /// send stalls: a stalled send moves the device's stall counters.
    ///
    /// [`ThreadDriver`] spends the promise twice. It does not tick the
    /// thread until `wake` or a delivery, and when every unfinished
    /// thread has made one it compresses the wait through the
    /// simulator's event-horizon engine ([`HmcSim::clock_until_event`]).
    /// Results are identical with and without the hint.
    fn parked_until(&self) -> Option<u64> {
        None
    }
}

/// Host-side fault-tolerance policy for [`ThreadDriver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Cycles to wait for a response before abandoning the tag and
    /// retrying. Must comfortably exceed the worst-case round trip or
    /// retries will double-execute requests that merely ran late.
    pub request_timeout: u64,
    /// Transparent re-sends per request before giving up.
    pub max_retries: u32,
    /// Base backoff: the i-th retry waits `backoff_base << i` cycles.
    pub backoff_base: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig { request_timeout: 200, max_retries: 3, backoff_base: 4 }
    }
}

/// What the driver's resilience layer did on behalf of one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadFaultStats {
    /// Requests abandoned after `request_timeout` cycles in flight.
    pub timeouts: u64,
    /// Transparent re-sends issued on the thread's behalf.
    pub retries: u64,
    /// Nonzero-`ERRSTAT` error responses intercepted by the driver.
    pub error_responses: u64,
    /// Poisoned (DINV) read responses intercepted by the driver.
    pub poisoned: u64,
    /// Sends redirected to a surviving link because the target link
    /// was down.
    pub link_failovers: u64,
    /// Requests surrendered after exhausting retries; the thread saw
    /// an error response (synthesized with `ERRSTAT_HOST_GIVEUP` when
    /// the last attempt timed out).
    pub give_ups: u64,
}

impl ThreadFaultStats {
    /// True when the resilience layer never had to intervene.
    pub fn is_clean(&self) -> bool {
        *self == ThreadFaultStats::default()
    }
}

/// Completion metrics for one driver run — the values the paper
/// records per simulation (§V-B): MIN_CYCLE, MAX_CYCLE, AVG_CYCLE.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Completion cycle of each thread, indexed by thread id.
    pub per_thread_cycles: Vec<u64>,
    /// Cycles the whole run consumed.
    pub total_cycles: u64,
    /// Threads that did not finish within the cycle budget.
    pub unfinished: usize,
    /// Per-thread fault/recovery accounting (all-zero entries when no
    /// resilience policy was installed or no faults occurred).
    pub fault_stats: Vec<ThreadFaultStats>,
}

impl RunMetrics {
    /// MIN_CYCLE — fastest thread's completion cycle.
    pub fn min_cycle(&self) -> u64 {
        self.per_thread_cycles.iter().copied().min().unwrap_or(0)
    }

    /// MAX_CYCLE — slowest thread's completion cycle.
    pub fn max_cycle(&self) -> u64 {
        self.per_thread_cycles.iter().copied().max().unwrap_or(0)
    }

    /// AVG_CYCLE — mean completion cycle across threads.
    pub fn avg_cycle(&self) -> f64 {
        if self.per_thread_cycles.is_empty() {
            0.0
        } else {
            self.per_thread_cycles.iter().sum::<u64>() as f64
                / self.per_thread_cycles.len() as f64
        }
    }

    /// Fault counters summed across all threads.
    pub fn total_faults(&self) -> ThreadFaultStats {
        let mut t = ThreadFaultStats::default();
        for s in &self.fault_stats {
            t.timeouts += s.timeouts;
            t.retries += s.retries;
            t.error_responses += s.error_responses;
            t.poisoned += s.poisoned;
            t.link_failovers += s.link_failovers;
            t.give_ups += s.give_ups;
        }
        t
    }
}

/// A request scheduled for re-send after backoff.
struct PendingRetry {
    tid: usize,
    ready: u64,
    attempts: u32,
    kind: SentKind,
}

/// Drives a set of threads against a device until every thread
/// finishes or `max_cycles` elapses.
pub struct ThreadDriver {
    /// Target device.
    pub dev: usize,
    /// Cycle budget.
    pub max_cycles: u64,
    /// Optional host-side timeout/retry policy. `None` preserves the
    /// classic fire-and-wait behavior exactly.
    pub resilience: Option<ResilienceConfig>,
}

impl Default for ThreadDriver {
    fn default() -> Self {
        ThreadDriver { dev: 0, max_cycles: 2_000_000, resilience: None }
    }
}

impl ThreadDriver {
    /// Synthesizes the error response a thread sees when the driver
    /// gives up on a request (all retries timed out).
    fn give_up_response(dev: usize, key: (usize, u16)) -> TrackedResponse {
        let (link, tag) = key;
        TrackedResponse {
            rsp: Response {
                head: RspHead {
                    cmd: HmcResponse::Error,
                    lng: 1,
                    tag: Tag::new(tag as u32).expect("tag came from a valid request"),
                    af: false,
                    slid: Slid::new((link % 8) as u8).expect("link < 8"),
                    cub: Cub::new(dev as u8)
                        .expect("contexts hold at most Cub::MAX_CUBES devices"),
                },
                payload: PayloadBuf::new(),
                tail: RspTail { errstat: ERRSTAT_HOST_GIVEUP, ..RspTail::default() },
            },
            issue_cycle: 0,
            complete_cycle: 0,
            latency: 0,
            entry_device: dev,
            entry_link: link,
            class: hmc_sim::CmdClass::Other,
            stages: Default::default(),
        }
    }

    /// Runs the threads to completion, routing responses by tag.
    pub fn run<T: HostThread>(&self, sim: &mut HmcSim, threads: &mut [T]) -> RunMetrics {
        let total_links = sim.device_config(self.dev).map(|c| c.links).unwrap_or(1);
        let mut ledger = Ledger {
            owner: vec![Vec::new(); total_links],
            inflight: self.resilience.map(|_| BTreeMap::new()),
        };
        let mut retries: VecDeque<PendingRetry> = VecDeque::new();
        let mut mailboxes: Vec<VecDeque<TrackedResponse>> =
            (0..threads.len()).map(|_| VecDeque::new()).collect();
        let mut finish: Vec<Option<u64>> = vec![None; threads.len()];
        let mut fault_stats: Vec<ThreadFaultStats> =
            vec![ThreadFaultStats::default(); threads.len()];
        // The cycle each thread is next due a tick, which is all the
        // tick loop reads of a thread that is not due: its
        // `parked_until()` as of its last tick (only a tick changes
        // it), 0 — now — once it has made no promise or has mail, and
        // `u64::MAX` — never — once it has finished.
        let mut due: Vec<u64> = vec![0; threads.len()];
        let mut unfinished = threads.len();

        let mut cycle = 0u64;
        while cycle < self.max_cycles {
            // Deliver responses to their issuing threads. After a link
            // failover a response can surface on any link, so scan all
            // of them and route by the link the request entered on.
            for link in 0..total_links {
                while let Some(rsp) = sim.recv(self.dev, link) {
                    let key = (rsp.entry_link, rsp.rsp.head.tag.value());
                    let Some((tid, entry)) = ledger.retire(key) else { continue };
                    if let (Some(cfg), Some(entry)) = (self.resilience, entry) {
                        // A fault the resilience layer hides from the
                        // thread: not executed, or poisoned data.
                        if rsp.rsp.not_executed() || rsp.rsp.poisoned() {
                            if rsp.rsp.poisoned() {
                                fault_stats[tid].poisoned += 1;
                            } else {
                                fault_stats[tid].error_responses += 1;
                            }
                            if entry.attempts < cfg.max_retries {
                                fault_stats[tid].retries += 1;
                                retries.push_back(PendingRetry {
                                    tid,
                                    ready: cycle + (cfg.backoff_base << entry.attempts),
                                    attempts: entry.attempts + 1,
                                    kind: entry.kind,
                                });
                                continue; // hidden from the thread
                            }
                            fault_stats[tid].give_ups += 1;
                        }
                    }
                    mailboxes[tid].push_back(rsp);
                    due[tid] = 0;
                }
            }

            if let Some(cfg) = self.resilience {
                // Abandon requests that have been in flight too long.
                let expired: Vec<(usize, u16)> = ledger
                    .inflight
                    .iter()
                    .flatten()
                    .filter(|(_, e)| cycle.saturating_sub(e.issued) >= cfg.request_timeout)
                    .map(|(&k, _)| k)
                    .collect();
                for key in expired {
                    let (_, entry) = ledger.retire(key).expect("key from scan");
                    let entry = entry.expect("resilient ledgers keep every record");
                    if let Ok(tag) = Tag::new(key.1 as u32) {
                        let _ = sim.abandon_tag(self.dev, key.0, tag);
                    }
                    fault_stats[entry.tid].timeouts += 1;
                    if entry.attempts < cfg.max_retries {
                        fault_stats[entry.tid].retries += 1;
                        retries.push_back(PendingRetry {
                            tid: entry.tid,
                            ready: cycle + (cfg.backoff_base << entry.attempts),
                            attempts: entry.attempts + 1,
                            kind: entry.kind,
                        });
                    } else {
                        fault_stats[entry.tid].give_ups += 1;
                        mailboxes[entry.tid].push_back(Self::give_up_response(self.dev, key));
                        due[entry.tid] = 0;
                    }
                }

                // Replay due retries, falling over to a surviving link
                // when the thread's pinned link is down.
                let mut deferred = VecDeque::new();
                while let Some(r) = retries.pop_front() {
                    if r.ready > cycle {
                        deferred.push_back(r);
                        continue;
                    }
                    let pinned = threads[r.tid].link();
                    let link = (0..total_links)
                        .map(|i| (pinned + i) % total_links)
                        .find(|&l| sim.link_is_up(self.dev, l));
                    let Some(link) = link else {
                        deferred.push_back(r); // all links down: wait
                        continue;
                    };
                    match r.kind.send(sim, self.dev, link) {
                        Ok(Some(tag)) => {
                            if link != pinned {
                                fault_stats[r.tid].link_failovers += 1;
                            }
                            let PendingRetry { tid, attempts, kind, .. } = r;
                            ledger.record(link, tag, Inflight { tid, issued: cycle, attempts, kind });
                        }
                        Ok(None) => {} // posted: nothing to track
                        Err(_) => deferred.push_back(r), // stall: next cycle
                    }
                }
                retries = deferred;
            }

            if unfinished == 0 {
                break;
            }
            // The earliest cycle at which a thread may do something, as
            // far as the threads have promised.
            let mut horizon = self.max_cycles;
            for (tid, thread) in threads.iter_mut().enumerate() {
                if cycle < due[tid] {
                    horizon = horizon.min(due[tid]);
                    continue;
                }
                if finish[tid].is_some() {
                    due[tid] = u64::MAX; // mail for a finished thread
                    continue;
                }
                let mut io = ThreadIo {
                    dev: self.dev,
                    link: thread.link(),
                    cycle,
                    tid,
                    inbox: &mut mailboxes[tid],
                    ledger: &mut ledger,
                    link_failovers: &mut fault_stats[tid].link_failovers,
                    sim,
                };
                if thread.tick(&mut io) == ThreadStatus::Done {
                    finish[tid] = Some(cycle);
                    due[tid] = u64::MAX;
                    unfinished -= 1;
                    continue;
                }
                due[tid] = match thread.parked_until() {
                    Some(wake) if mailboxes[tid].is_empty() => wake,
                    _ => 0,
                };
                horizon = horizon.min(due[tid]);
            }
            if unfinished == 0 {
                // The last thread finished this cycle: one plain clock,
                // and the loop ends at the top of the next iteration.
                horizon = 0;
            }

            // When no thread is due before a known cycle, let the
            // event-horizon engine compress the wait instead of
            // clocking one cycle at a time. The jump never crosses a
            // driver-side event: an idle thread's wake, a pending
            // retry's replay cycle, or an in-flight request's timeout
            // due; and it ends with the first cycle the fabric does
            // anything in, so a response is delivered on time. With
            // skipping disabled `clock_until_event` executes exactly
            // one full cycle, so this degenerates to the classic
            // per-cycle loop.
            if horizon > cycle + 1 {
                for r in &retries {
                    horizon = horizon.min(r.ready);
                }
                if let Some(cfg) = self.resilience {
                    for e in ledger.inflight.iter().flat_map(|m| m.values()) {
                        horizon = horizon.min(e.issued + cfg.request_timeout);
                    }
                }
            }
            if horizon > cycle + 1 {
                cycle += sim.clock_until_event(horizon - cycle);
            } else {
                sim.clock();
                cycle += 1;
            }
        }

        RunMetrics {
            per_thread_cycles: finish
                .into_iter()
                .map(|f| f.unwrap_or(self.max_cycles))
                .collect(),
            total_cycles: cycle,
            unfinished,
            fault_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::{DeviceConfig, FaultPlan};

    /// A thread that writes one value then reads it back.
    struct WriteRead {
        link: usize,
        addr: u64,
        state: u8,
        tag: Option<Tag>,
        read_value: Option<u64>,
    }

    impl HostThread for WriteRead {
        fn link(&self) -> usize {
            self.link
        }

        fn tick(&mut self, io: &mut ThreadIo<'_>) -> ThreadStatus {
            match self.state {
                0 => {
                    if let Ok(tag) = io.send(HmcRqst::Wr16, self.addr, vec![self.addr, 0]) {
                        self.tag = tag;
                        self.state = 1;
                    }
                    ThreadStatus::Running
                }
                1 => {
                    if io.response().is_some() {
                        self.state = 2;
                    }
                    ThreadStatus::Running
                }
                2 => {
                    if let Ok(tag) = io.send(HmcRqst::Rd16, self.addr, vec![]) {
                        self.tag = tag;
                        self.state = 3;
                    }
                    ThreadStatus::Running
                }
                _ => match io.response() {
                    Some(rsp) => {
                        self.read_value = Some(rsp.rsp.payload[0]);
                        ThreadStatus::Done
                    }
                    None => ThreadStatus::Running,
                },
            }
        }
    }

    fn write_read_threads(n: usize) -> Vec<WriteRead> {
        (0..n)
            .map(|i| WriteRead {
                link: i % 4,
                addr: 0x1000 + (i as u64) * 16,
                state: 0,
                tag: None,
                read_value: None,
            })
            .collect()
    }

    #[test]
    fn driver_routes_responses_to_issuing_threads() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let mut threads = write_read_threads(8);
        let driver = ThreadDriver { dev: 0, max_cycles: 10_000, resilience: None };
        let metrics = driver.run(&mut sim, &mut threads);
        assert_eq!(metrics.unfinished, 0);
        for t in &threads {
            assert_eq!(t.read_value, Some(t.addr), "thread read its own value");
        }
        assert!(metrics.min_cycle() >= 6, "two round trips minimum");
        assert!(metrics.max_cycle() < 100);
        assert!(metrics.avg_cycle() >= metrics.min_cycle() as f64);
        assert!(metrics.avg_cycle() <= metrics.max_cycle() as f64);
        assert!(metrics.total_faults().is_clean());
    }

    #[test]
    fn unfinished_threads_reported() {
        /// Never finishes.
        struct Stuck;
        impl HostThread for Stuck {
            fn link(&self) -> usize {
                0
            }
            fn tick(&mut self, _io: &mut ThreadIo<'_>) -> ThreadStatus {
                ThreadStatus::Running
            }
        }
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let driver = ThreadDriver { dev: 0, max_cycles: 50, resilience: None };
        let metrics = driver.run(&mut sim, &mut [Stuck]);
        assert_eq!(metrics.unfinished, 1);
        assert_eq!(metrics.per_thread_cycles[0], 50);
    }

    #[test]
    fn resilience_is_invisible_without_faults() {
        let baseline = {
            let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
            let mut threads = write_read_threads(8);
            ThreadDriver { dev: 0, max_cycles: 10_000, resilience: None }
                .run(&mut sim, &mut threads)
        };
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let mut threads = write_read_threads(8);
        let resilient = ThreadDriver {
            dev: 0,
            max_cycles: 10_000,
            resilience: Some(ResilienceConfig::default()),
        }
        .run(&mut sim, &mut threads);
        assert_eq!(baseline.per_thread_cycles, resilient.per_thread_cycles);
        assert_eq!(baseline.total_cycles, resilient.total_cycles);
        assert!(resilient.total_faults().is_clean());
    }

    #[test]
    fn vault_errors_are_retried_transparently() {
        // Every vault access errors with probability ~30%; with six
        // retries per request the WriteRead threads should still all
        // finish with correct data, and the driver should report the
        // error responses it absorbed.
        let mut config = DeviceConfig::gen2_4link_4gb();
        config.fault = FaultPlan::seeded(7).with_vault_errors(300_000);
        let mut sim = HmcSim::new(config).unwrap();
        let mut threads = write_read_threads(8);
        let driver = ThreadDriver {
            dev: 0,
            max_cycles: 50_000,
            resilience: Some(ResilienceConfig {
                request_timeout: 500,
                max_retries: 6,
                backoff_base: 2,
            }),
        };
        let metrics = driver.run(&mut sim, &mut threads);
        assert_eq!(metrics.unfinished, 0, "all threads finish despite vault faults");
        for t in &threads {
            assert_eq!(t.read_value, Some(t.addr));
        }
        let totals = metrics.total_faults();
        assert!(totals.error_responses > 0, "faults were actually injected");
        assert_eq!(totals.retries, totals.error_responses + totals.timeouts);
        assert_eq!(totals.give_ups, 0);
    }

    #[test]
    fn give_up_response_carries_host_errstat() {
        // Device 9 of a 16-cube fabric answers as cube 9, not as the
        // cube 1 that `dev % 8` used to name.
        for dev in [0, 9] {
            let rsp = ThreadDriver::give_up_response(dev, (2, 17));
            assert!(matches!(rsp.rsp.head.cmd, HmcResponse::Error));
            assert_eq!(rsp.rsp.tail.errstat, ERRSTAT_HOST_GIVEUP);
            assert_eq!(rsp.rsp.head.tag.value(), 17);
            assert_eq!(rsp.rsp.head.cub.value() as usize, dev);
            assert_eq!(rsp.entry_device, dev);
            assert_eq!(rsp.entry_link, 2);
        }
    }

    #[test]
    fn a_delivery_wakes_a_parked_thread_before_its_wake_cycle() {
        /// Reads once, then claims to be parked until cycle 1000 — but
        /// takes its response whenever it is ticked.
        struct Napper {
            sent: bool,
            ticks: u32,
        }
        impl HostThread for Napper {
            fn link(&self) -> usize {
                0
            }
            fn parked_until(&self) -> Option<u64> {
                self.sent.then_some(1_000)
            }
            fn tick(&mut self, io: &mut ThreadIo<'_>) -> ThreadStatus {
                self.ticks += 1;
                if !self.sent {
                    self.sent = io.send(HmcRqst::Rd16, 0x40, []).is_ok();
                    ThreadStatus::Running
                } else if io.response().is_some() {
                    ThreadStatus::Done
                } else {
                    ThreadStatus::Running
                }
            }
        }
        for skip in [hmc_sim::SkipMode::Off, hmc_sim::SkipMode::On] {
            let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
            sim.set_skip_mode(skip);
            let mut threads = [Napper { sent: false, ticks: 0 }];
            let metrics = ThreadDriver { dev: 0, max_cycles: 5_000, resilience: None }
                .run(&mut sim, &mut threads);
            assert_eq!(metrics.per_thread_cycles, [3], "the round trip, not the nap ({skip:?})");
            assert_eq!(threads[0].ticks, 2, "one tick to send, one for the delivery");
        }
    }
}
