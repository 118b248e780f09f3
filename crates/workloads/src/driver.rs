//! The simulated-thread driver.
//!
//! The paper's evaluation drives the device with N host threads, each
//! issuing one HMC packet and waiting for its response (§V-B,
//! Algorithm 1). This module provides the deterministic equivalent: a
//! simulated thread is a step function ([`HostThread::step`]) that
//! returns its next request, a wake-up cycle or "done", and is called
//! again with the response to that request or when the sleep ends.
//! The driver owns everything in between: it sends the request on the
//! thread's link, retries a stalled send every cycle, routes the
//! response back by tag and records per-thread completion cycles.
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
//! [`ERRSTAT_HOST_GIVEUP`].

use hmc_sim::fault::ERRSTAT_HOST_GIVEUP;
use hmc_sim::{HmcSim, TrackedResponse};
use hmc_types::{Cub, HmcError, HmcResponse, HmcRqst, PayloadBuf, Response, RspHead, RspTail, Slid, Tag};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// One request: a command, its address and its payload — what a
/// thread hands the driver to send, kept so a stalled send can be
/// retried and a failed one replayed.
#[derive(Debug, Clone)]
pub struct Op {
    cmd: OpCmd,
    addr: u64,
    payload: PayloadBuf,
}

#[derive(Debug, Clone, Copy)]
enum OpCmd {
    Std(HmcRqst),
    Cmc(u8),
}

impl Op {
    /// A standard command.
    pub fn new(cmd: HmcRqst, addr: u64, payload: impl Into<PayloadBuf>) -> Op {
        Op { cmd: OpCmd::Std(cmd), addr, payload: payload.into() }
    }

    /// A CMC command, by its opcode.
    pub fn cmc(code: u8, addr: u64, payload: impl Into<PayloadBuf>) -> Op {
        Op { cmd: OpCmd::Cmc(code), addr, payload: payload.into() }
    }

    /// Issues the request on `link`. The payload is copied into the
    /// packet (inline, no allocation): the body may be needed again.
    pub(crate) fn send(
        &self,
        sim: &mut HmcSim,
        dev: usize,
        link: usize,
    ) -> Result<Option<Tag>, HmcError> {
        match self.cmd {
            OpCmd::Std(cmd) => sim.send_simple(dev, link, cmd, self.addr, self.payload.as_slice()),
            OpCmd::Cmc(code) => sim.send_cmc(dev, link, code, self.addr, self.payload.as_slice()),
        }
    }
}

/// What a thread does next.
#[derive(Debug)]
pub enum Step {
    /// Issue this request. The thread's next step gets its response —
    /// or, for a posted request, which has none, comes on the next
    /// cycle with `None`.
    Send(Op),
    /// Do nothing until this cycle (at the earliest the next one), then
    /// step again with `None`.
    Sleep(u64),
    /// The thread has finished its kernel.
    Done,
}

/// A tracked request awaiting its response.
struct Inflight {
    tid: usize,
    issued: u64,
    attempts: u32,
    op: Op,
}

/// [`Ledger::owner`]'s "nothing in flight under this tag".
const NO_OWNER: u32 = u32::MAX;

/// A driver event due at a known cycle. The wake queue hands events
/// out by cycle, then in this declaration order: within a cycle, wakes
/// by thread, timeouts by `(entry link, tag)` and replays in the order
/// they were parked in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// A sleep ends, or the step after a posted send is due.
    Wake(usize),
    /// The request issued at this cycle under this `(entry link, tag)`
    /// times out — unless it has retired since: a stale entry.
    Timeout((usize, u16), u64),
    /// The parked replay with this number is ready.
    Replay(u64),
}

/// Every driver event at a known cycle, earliest first.
type WakeQueue = BinaryHeap<Reverse<(u64, Event)>>;

/// The driver's record of the tagged requests in flight.
struct Ledger {
    /// The issuing thread of each, indexed `[entry link][tag]`: one row
    /// per link, grown to the highest tag the link has carried.
    owner: Vec<Vec<u32>>,
    /// Their issue cycles and replayable bodies — kept only under a
    /// resilience policy (without one nothing is ever replayed).
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

    /// Whether the request issued at `issued` is still in flight under
    /// `key` (a timeout entry for it is not stale).
    fn in_flight(&self, key: (usize, u16), issued: u64) -> bool {
        let entry = self.inflight.as_ref().and_then(|m| m.get(&key));
        entry.is_some_and(|e| e.issued == issued)
    }
}

/// A simulated host thread.
pub trait HostThread {
    /// The device link this thread issues on.
    fn link(&self) -> usize;

    /// Advances the thread at `cycle`. The driver calls it at the start
    /// of the run, with the response to the thread's last
    /// [`Step::Send`], and when a [`Step::Sleep`] ends (with `None`) —
    /// never while the thread's request is in flight or it sleeps.
    fn step(&mut self, rsp: Option<TrackedResponse>, cycle: u64) -> Step;
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

impl ResilienceConfig {
    /// The backoff before the replay that follows `attempts` attempts:
    /// `backoff_base << attempts`, saturating at `u64::MAX` (never).
    fn backoff(&self, attempts: u32) -> u64 {
        u64::try_from(u128::from(self.backoff_base) << attempts.min(64)).unwrap_or(u64::MAX)
    }

    /// Parks `entry` for a replay once its backoff has passed —
    /// numbered past every replay still parked, so replays due together
    /// go out in the order they were parked in — and counts the retry;
    /// or, with its retries spent, counts a give-up and returns false.
    fn park(
        &self,
        cycle: u64,
        queue: &mut WakeQueue,
        parked: &mut BTreeMap<u64, Inflight>,
        stats: &mut ThreadFaultStats,
        entry: Inflight,
    ) -> bool {
        if entry.attempts >= self.max_retries {
            stats.give_ups += 1;
            return false;
        }
        stats.retries += 1;
        let seq = parked.last_key_value().map_or(0, |(&seq, _)| seq + 1);
        let ready = cycle.saturating_add(self.backoff(entry.attempts));
        parked.insert(seq, Inflight { attempts: entry.attempts + 1, ..entry });
        queue.push(Reverse((ready, Event::Replay(seq))));
        true
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

    /// Sends `request` on its thread's `pinned` link or — under a
    /// resilience policy — on the nearest surviving link, counting the
    /// failover, and books a tagged send in the ledger (and, under the
    /// policy, its timeout in the wake queue). A request that
    /// cannot go out this cycle comes back with the reason: a stall, or
    /// (reported as one) every link down.
    #[allow(clippy::result_large_err)] // boxing the refused request would allocate per stall
    fn issue(
        &self,
        sim: &mut HmcSim,
        ledger: &mut Ledger,
        queue: &mut WakeQueue,
        fault_stats: &mut [ThreadFaultStats],
        pinned: usize,
        request: Inflight,
    ) -> Result<Option<Tag>, (Inflight, HmcError)> {
        let links = ledger.owner.len();
        let link = match ledger.inflight {
            None => Some(pinned),
            Some(_) => {
                (0..links).map(|i| (pinned + i) % links).find(|&l| sim.link_is_up(self.dev, l))
            }
        };
        let Some(link) = link else { return Err((request, HmcError::Stall)) };
        match request.op.send(sim, self.dev, link) {
            Ok(tag) => {
                if link != pinned {
                    fault_stats[request.tid].link_failovers += 1;
                }
                if let Some(tag) = tag {
                    if let Some(cfg) = self.resilience {
                        // Due on the next cycle at the earliest: a cycle
                        // handles its timeouts before its sends.
                        let (issued, key) = (request.issued, (link, tag.value()));
                        let at = issued.saturating_add(cfg.request_timeout.max(1));
                        queue.push(Reverse((at, Event::Timeout(key, issued))));
                    }
                    ledger.record(link, tag, request);
                }
                Ok(tag)
            }
            Err(e) => Err((request, e)),
        }
    }

    /// Runs the threads to completion, routing responses by tag.
    ///
    /// # Panics
    ///
    /// When a thread's send fails with anything but a stall — a command
    /// the device rejects is a bug in the thread.
    pub fn run<T: HostThread>(&self, sim: &mut HmcSim, threads: &mut [T]) -> RunMetrics {
        let total_links = sim.device_config(self.dev).map(|c| c.links).unwrap_or(1);
        let mut ledger = Ledger {
            owner: vec![Vec::new(); total_links],
            inflight: self.resilience.map(|_| BTreeMap::new()),
        };
        // Replays waiting for their `Event::Replay`, by number.
        let mut parked: BTreeMap<u64, Inflight> = BTreeMap::new();
        // What the driver holds for a thread between its steps: the
        // response to its last request, or the request a stalled send
        // left unsent.
        let mut inbox: Vec<Option<TrackedResponse>> = (0..threads.len()).map(|_| None).collect();
        let mut unsent: Vec<Option<Op>> = (0..threads.len()).map(|_| None).collect();
        let mut finish: Vec<Option<u64>> = vec![None; threads.len()];
        let mut fault_stats: Vec<ThreadFaultStats> =
            vec![ThreadFaultStats::default(); threads.len()];
        // A thread is due now (`ready`: its inbox holds a response or a
        // give-up, or its unsent request must be retried) or at its wake
        // in `queue`; the driver touches only due threads.
        let mut queue = WakeQueue::new();
        let mut ready: Vec<usize> = (0..threads.len()).collect();
        let mut stepping: Vec<usize> = Vec::new();
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
                            let stats = &mut fault_stats[tid];
                            if rsp.rsp.poisoned() {
                                stats.poisoned += 1;
                            } else {
                                stats.error_responses += 1;
                            }
                            if cfg.park(cycle, &mut queue, &mut parked, stats, entry) {
                                continue; // hidden from the thread
                            }
                        }
                    }
                    inbox[tid] = Some(rsp);
                    ready.push(tid);
                }
            }

            // The driver events due now. Each is queued for a later cycle
            // than the one that queues it (but a replay without backoff,
            // which sorts after this cycle's timeouts) and the clock never
            // jumps past one, so all are due exactly now and the queue's
            // order is the phase order: wakes, timeouts, replays.
            while let Some(&Reverse((at, event))) = queue.peek() {
                if at > cycle {
                    break;
                }
                queue.pop();
                match (event, self.resilience) {
                    (Event::Wake(tid), _) => ready.push(tid),
                    (Event::Timeout(key, issued), Some(cfg)) if ledger.in_flight(key, issued) => {
                        // Abandon a request in flight too long.
                        let (tid, entry) = ledger.retire(key).expect("a request in flight");
                        let entry = entry.expect("resilient ledgers keep every record");
                        if let Ok(tag) = Tag::new(key.1 as u32) {
                            let _ = sim.abandon_tag(self.dev, key.0, tag);
                        }
                        let stats = &mut fault_stats[tid];
                        stats.timeouts += 1;
                        if !cfg.park(cycle, &mut queue, &mut parked, stats, entry) {
                            inbox[tid] = Some(Self::give_up_response(self.dev, key));
                            ready.push(tid);
                        }
                    }
                    (Event::Timeout(..), _) => {} // stale: the request retired
                    (Event::Replay(seq), _) => {
                        // A replay that cannot go out keeps its number
                        // and tries again on the next cycle.
                        let r = parked.remove(&seq).expect("a replay event's request is parked");
                        let (link, r) = (threads[r.tid].link(), Inflight { issued: cycle, ..r });
                        if let Err((r, _)) =
                            self.issue(sim, &mut ledger, &mut queue, &mut fault_stats, link, r)
                        {
                            parked.insert(seq, r);
                            queue.push(Reverse((cycle + 1, Event::Replay(seq))));
                        }
                    }
                }
            }

            if unfinished == 0 {
                break;
            }
            // Step the due threads in ascending tid order.
            std::mem::swap(&mut ready, &mut stepping);
            stepping.sort_unstable();
            for &tid in &stepping {
                let thread = &mut threads[tid];
                let op = match unsent[tid].take() {
                    Some(op) => op,
                    None => match thread.step(inbox[tid].take(), cycle) {
                        Step::Send(op) => op,
                        Step::Sleep(until) => {
                            queue.push(Reverse((until.max(cycle + 1), Event::Wake(tid))));
                            continue;
                        }
                        Step::Done => {
                            finish[tid] = Some(cycle);
                            unfinished -= 1;
                            continue;
                        }
                    },
                };
                let request = Inflight { tid, issued: cycle, attempts: 0, op };
                let link = thread.link();
                match self.issue(sim, &mut ledger, &mut queue, &mut fault_stats, link, request) {
                    Ok(Some(_)) => {}
                    Ok(None) => queue.push(Reverse((cycle + 1, Event::Wake(tid)))),
                    Err((request, HmcError::Stall)) => {
                        unsent[tid] = Some(request.op);
                        ready.push(tid);
                    }
                    Err((_, e)) => panic!("thread {tid}'s send failed: {e}"),
                }
            }
            stepping.clear();

            // The next cycle the driver acts in: now while a thread is due
            // or once the last one has finished (the loop then ends at the
            // top of the next iteration), else the earliest live event.
            // `clock_until_event` jumps the idle wait up to it (at least
            // one cycle) and stops after the first cycle the fabric acts
            // in, so a response is delivered on time; with skipping
            // disabled it clocks exactly one cycle.
            let horizon = loop {
                match queue.peek() {
                    _ if unfinished == 0 || !ready.is_empty() => break cycle,
                    Some(&Reverse((_, Event::Timeout(key, issued))))
                        if !ledger.in_flight(key, issued) =>
                    {
                        queue.pop(); // stale
                    }
                    Some(&Reverse((at, _))) => break at.min(self.max_cycles),
                    None => break self.max_cycles,
                }
            };
            cycle += sim.clock_until_event(horizon.max(cycle + 1) - cycle);
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
        wrote: bool,
        read_value: Option<u64>,
    }

    impl HostThread for WriteRead {
        fn link(&self) -> usize {
            self.link
        }

        fn step(&mut self, rsp: Option<TrackedResponse>, _cycle: u64) -> Step {
            match (rsp, self.wrote) {
                (None, _) => Step::Send(Op::new(HmcRqst::Wr16, self.addr, [self.addr, 0])),
                (Some(_), false) => {
                    self.wrote = true;
                    Step::Send(Op::new(HmcRqst::Rd16, self.addr, []))
                }
                (Some(rsp), true) => {
                    self.read_value = Some(rsp.rsp.payload[0]);
                    Step::Done
                }
            }
        }
    }

    fn write_read_threads(n: usize) -> Vec<WriteRead> {
        (0..n)
            .map(|i| WriteRead {
                link: i % 4,
                addr: 0x1000 + (i as u64) * 16,
                wrote: false,
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
            fn step(&mut self, _rsp: Option<TrackedResponse>, cycle: u64) -> Step {
                Step::Sleep(cycle + 1)
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
    fn backoff_saturates_past_the_shift_width() {
        let policy =
            |backoff_base| ResilienceConfig { request_timeout: 1, max_retries: 70, backoff_base };
        assert_eq!(policy(4).backoff(61), 4 << 61);
        assert_eq!(policy(4).backoff(62), u64::MAX, "4 << 62 wraps to 0, an immediate replay");
        assert_eq!(policy(1).backoff(64), u64::MAX);
        assert_eq!(policy(0).backoff(70), 0);

        /// Reads once and finishes on whatever comes back.
        struct Once;
        impl HostThread for Once {
            fn link(&self) -> usize {
                0
            }
            fn step(&mut self, rsp: Option<TrackedResponse>, _cycle: u64) -> Step {
                match rsp {
                    None => Step::Send(Op::new(HmcRqst::Rd16, 0x40, [])),
                    Some(_) => Step::Done,
                }
            }
        }
        // A one-cycle timeout undercuts every 3-cycle round trip, and
        // with no backoff each replay goes out at once: the request
        // runs through all 71 attempts, past a 64-bit shift, and is
        // given up on.
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let driver = ThreadDriver { dev: 0, max_cycles: 10_000, resilience: Some(policy(0)) };
        let metrics = driver.run(&mut sim, &mut [Once]);
        assert_eq!(metrics.unfinished, 0);
        let faults = metrics.total_faults();
        assert_eq!((faults.timeouts, faults.retries, faults.give_ups), (71, 70, 1), "{faults:?}");
    }

    #[test]
    fn a_stale_timeout_spares_the_request_that_reuses_its_tag() {
        /// Reads — or, as a ticker, sleeps one cycle — `left` times.
        struct Reader {
            left: u32,
            ticker: bool,
        }
        impl HostThread for Reader {
            fn link(&self) -> usize {
                0
            }
            fn step(&mut self, _rsp: Option<TrackedResponse>, cycle: u64) -> Step {
                match self.left.checked_sub(1) {
                    None => Step::Done,
                    Some(left) => {
                        self.left = left;
                        match self.ticker {
                            true => Step::Sleep(cycle + 1),
                            false => Step::Send(Op::new(HmcRqst::Rd16, 0x40, [])),
                        }
                    }
                }
            }
        }
        // Four tags recycle every 12 cycles of 3-cycle round trips, so a
        // finished read's deadline falls while a later read holds its
        // tag; the ticker's wakes keep that deadline off the top of the
        // queue until it is due.
        for request_timeout in 10..=16 {
            let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
            sim.configure_tag_pool(0, 0, 4).unwrap();
            let policy = ResilienceConfig { request_timeout, ..ResilienceConfig::default() };
            let driver = ThreadDriver { dev: 0, max_cycles: 1_000, resilience: Some(policy) };
            let mut threads =
                [Reader { left: 40, ticker: false }, Reader { left: 200, ticker: true }];
            let metrics = driver.run(&mut sim, &mut threads);
            assert_eq!(metrics.unfinished, 0);
            let faults = metrics.total_faults();
            assert!(faults.is_clean(), "timeout {request_timeout}: {faults:?}");
        }
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
    fn a_thread_steps_at_its_start_its_responses_and_its_wake_ups() {
        /// Reads, sleeps 100 cycles, sleeps until a cycle already
        /// past, reads again, and records every step.
        struct Sleeper {
            steps: Vec<(u64, bool)>,
        }
        impl HostThread for Sleeper {
            fn link(&self) -> usize {
                0
            }
            fn step(&mut self, rsp: Option<TrackedResponse>, cycle: u64) -> Step {
                self.steps.push((cycle, rsp.is_some()));
                match self.steps.len() {
                    1 | 4 => Step::Send(Op::new(HmcRqst::Rd16, 0x40, [])),
                    2 => Step::Sleep(cycle + 100),
                    3 => Step::Sleep(cycle),
                    _ => Step::Done,
                }
            }
        }
        for skip in [hmc_sim::SkipMode::Off, hmc_sim::SkipMode::On] {
            let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
            sim.set_skip_mode(skip);
            let mut threads = [Sleeper { steps: Vec::new() }];
            let metrics = ThreadDriver { dev: 0, max_cycles: 5_000, resilience: None }
                .run(&mut sim, &mut threads);
            // A 3-cycle round trip; a sleep that is already over ends
            // on the next cycle.
            let steps = [(0, false), (3, true), (103, false), (104, false), (107, true)];
            assert_eq!(threads[0].steps, steps, "{skip:?}");
            assert_eq!(metrics.per_thread_cycles, [107], "{skip:?}");
        }
    }
}
