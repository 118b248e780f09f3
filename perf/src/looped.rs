//! The benchmark-owned closed loop shared by `stream_sat` and
//! `gups_mesh16`: every iteration polls every host link, hands the
//! responses to the workload, tops each cube's window up with freshly
//! generated requests, sends them, and clocks the simulator once.
//!
//! The four phases are separate so the traced repetition can span them
//! from outside the simulator: `sim.recv`, the driver's own work,
//! `sim.send` and `sim.clock`. Request generation and payload building
//! happen before the send phase, which therefore times the calls into
//! the simulator and nothing else.

use crate::metrics::Report;
use crate::micro::{mem_exec_ns_per_req, pack_unpack_ns_per_req, Wire};
use crate::spans::{SpanKind, Spans};
use crate::util::{response_failed, Round, SimDomain};
use crate::Opts;
use hmc_sim::{ExecMode, HmcSim, SimConfig, SkipMode, TimingSelect, TrackedResponse};
use hmc_types::{Cub, HmcError, HmcRqst, TAG_SPACE};
use std::collections::VecDeque;
use std::time::Instant;

/// One generated request. `id` and `operand` are the workload's own
/// cookie: they come back with the response and feed the oracle.
#[derive(Debug, Clone)]
pub struct Req {
    pub link: usize,
    /// Target cube; equal to the entry device for local requests.
    pub cub: usize,
    pub cmd: HmcRqst,
    pub addr: u64,
    pub id: u32,
    pub operand: [u64; 2],
}

/// What a loop workload supplies: a configuration, a seeded request
/// generator per entry device, and a host-side oracle.
pub trait Traffic {
    fn config(&self) -> SimConfig;
    /// Outstanding requests allowed per entry device.
    fn window(&self) -> usize;
    /// Requests retired per timed round.
    fn round_reqs(&self) -> u64;
    /// Writes the initial memory image through `mem_write` (set-up).
    fn prefill(&self, sim: &mut HmcSim);
    /// The next request entering at device `dev`; also advances the
    /// oracle, so every generated request must eventually be sent.
    fn next(&mut self, dev: usize) -> Req;
    fn payload(&self, req: &Req) -> Vec<u64>;
    /// Checks a response against the oracle (sampled as the workload
    /// sees fit); `false` counts one failed operation.
    fn response_ok(&self, id: u32, rsp: &TrackedResponse) -> bool;
    /// Final memory check after the fabric drained: `(checked, failed)`.
    fn verify(&self, sim: &HmcSim) -> (u64, u64);
}

pub const SPAN_ITER: usize = 0;
pub const SPAN_RECV: usize = 1;
pub const SPAN_DRIVER: usize = 2;
pub const SPAN_SEND: usize = 3;
pub const SPAN_CLOCK: usize = 4;

/// Span kinds of the loop, in `SPAN_*` order.
pub const LOOP_SPANS: [SpanKind; 5] = [
    SpanKind {
        layer: "perf",
        name: "iteration",
    },
    SpanKind {
        layer: "sim",
        name: "recv",
    },
    SpanKind {
        layer: "perf",
        name: "driver",
    },
    SpanKind {
        layer: "sim",
        name: "send",
    },
    SpanKind {
        layer: "sim",
        name: "clock",
    },
];

/// Call counters at the layer boundaries (restarted every round,
/// summed over the traced ones).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub send_calls: u64,
    pub send_stalls: u64,
    pub polls: u64,
    pub empty_polls: u64,
    pub responses: u64,
    pub clocks: u64,
}

impl Counts {
    fn add(&mut self, d: Counts) {
        self.send_calls += d.send_calls;
        self.send_stalls += d.send_stalls;
        self.polls += d.polls;
        self.empty_polls += d.empty_polls;
        self.responses += d.responses;
        self.clocks += d.clocks;
    }
}

struct Pending {
    req: Req,
    /// `None` only after a stalled send consumed it; the next driver
    /// phase rebuilds it.
    payload: Option<Vec<u64>>,
}

/// When a timed region ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After the round in which the summed round walls reach this many
    /// seconds.
    Seconds(f64),
    /// After exactly this many rounds.
    Rounds(usize),
}

/// What a timed region produced.
#[derive(Debug, Default)]
pub struct Timed {
    pub rounds: Vec<Round>,
    /// Counters of the traced rounds.
    pub traced_counts: Counts,
    /// Simulated-domain state at the first round boundary.
    pub first: SimDomain,
}

pub struct Loop<T: Traffic> {
    pub sim: HmcSim,
    pub traffic: T,
    devs: usize,
    links: usize,
    window: usize,
    pending: Vec<VecDeque<Pending>>,
    inflight: Vec<usize>,
    /// Request id by `(entry device, entry link, tag)`.
    tags: Vec<u32>,
    rx: Vec<TrackedResponse>,
    counts: Counts,
    iter: u64,
    pub retired: u64,
    pub failed: u64,
    /// Host nanoseconds `HmcSim::with_config` took.
    pub sim_new_ns: u64,
}

impl<T: Traffic> Loop<T> {
    /// Set-up: constructs the simulator with the engine axes pinned
    /// and writes the workload's memory image.
    pub fn build(traffic: T, exec: ExecMode, skip: SkipMode) -> Self {
        let mut config = traffic.config();
        config.exec_mode = exec;
        config.skip_mode = skip;
        config.timing = TimingSelect::FixedLatency;
        let t = Instant::now();
        let mut sim = HmcSim::with_config(config).expect("workload configuration is valid");
        let sim_new_ns = t.elapsed().as_nanos() as u64;
        assert_eq!(
            sim.exec_mode(),
            exec,
            "engine mode must not come from the environment"
        );
        assert_eq!(
            sim.skip_mode(),
            skip,
            "skip mode must not come from the environment"
        );
        assert_eq!(sim.timing_select(), TimingSelect::FixedLatency);
        traffic.prefill(&mut sim);
        let devs = sim.device_count();
        let links = sim.device_config(0).expect("device 0 exists").links;
        Loop {
            devs,
            links,
            window: traffic.window(),
            pending: (0..devs).map(|_| VecDeque::new()).collect(),
            inflight: vec![0; devs],
            tags: vec![0; devs * links * TAG_SPACE as usize],
            rx: Vec::new(),
            counts: Counts::default(),
            iter: 0,
            retired: 0,
            failed: 0,
            sim_new_ns,
            sim,
            traffic,
        }
    }

    fn tag_slot(&self, dev: usize, link: usize, tag: u16) -> usize {
        (dev * self.links + link) * TAG_SPACE as usize + tag as usize
    }

    /// One loop iteration; `generate` is false while draining.
    fn step(&mut self, spans: &mut Spans, generate: bool) {
        let t0 = spans.now();
        for dev in 0..self.devs {
            for link in 0..self.links {
                self.counts.polls += 1;
                let before = self.rx.len();
                while let Some(rsp) = self.sim.recv(dev, link) {
                    self.rx.push(rsp);
                }
                if self.rx.len() == before {
                    self.counts.empty_polls += 1;
                }
            }
        }
        let t1 = spans.now();

        self.counts.responses += self.rx.len() as u64;
        let mut rx = std::mem::take(&mut self.rx);
        for rsp in rx.drain(..) {
            let dev = rsp.entry_device;
            let id = self.tags[self.tag_slot(dev, rsp.entry_link, rsp.rsp.head.tag.value())];
            self.inflight[dev] -= 1;
            self.retired += 1;
            if response_failed(&rsp) || !self.traffic.response_ok(id, &rsp) {
                self.failed += 1;
            }
        }
        self.rx = rx;
        for dev in 0..self.devs {
            if let Some(front) = self.pending[dev].front_mut() {
                if front.payload.is_none() {
                    front.payload = Some(self.traffic.payload(&front.req));
                }
            }
            while generate && self.inflight[dev] + self.pending[dev].len() < self.window {
                let req = self.traffic.next(dev);
                let payload = Some(self.traffic.payload(&req));
                self.pending[dev].push_back(Pending { req, payload });
            }
        }
        let t2 = spans.now();

        for dev in 0..self.devs {
            while let Some(front) = self.pending[dev].front_mut() {
                let payload = front
                    .payload
                    .take()
                    .expect("driver phase built the payload");
                let (link, id) = (front.req.link, front.req.id);
                let req = &front.req;
                self.counts.send_calls += 1;
                let sent = if req.cub == dev {
                    self.sim
                        .send_simple(dev, req.link, req.cmd, req.addr, payload)
                } else {
                    let cub = Cub::new(req.cub as u8).expect("target cube is in the fabric");
                    self.sim
                        .send_to_cube(dev, req.link, cub, req.cmd, req.addr, payload)
                };
                match sent {
                    Ok(Some(tag)) => {
                        let slot = self.tag_slot(dev, link, tag.value());
                        self.tags[slot] = id;
                        self.inflight[dev] += 1;
                        self.pending[dev].pop_front();
                    }
                    Ok(None) => unreachable!("loop workloads issue acknowledged commands only"),
                    Err(HmcError::Stall) | Err(HmcError::TagsExhausted) => {
                        self.counts.send_stalls += 1;
                        break;
                    }
                    Err(e) => panic!("send failed: {e}"),
                }
            }
        }
        let t3 = spans.now();

        self.sim.clock();
        self.counts.clocks += 1;
        let t4 = spans.now();

        let iter = self.iter;
        spans.record(SPAN_RECV, iter, t0, t1);
        spans.record(SPAN_DRIVER, iter, t1, t2);
        spans.record(SPAN_SEND, iter, t2, t3);
        spans.record(SPAN_CLOCK, iter, t3, t4);
        spans.record(SPAN_ITER, iter, t0, t4);
        self.iter += 1;
    }

    /// Runs timed rounds until `stop`. With `trace`, rounds alternate
    /// between spans on and off (starting with on). The first round
    /// boundary captures the simulated-domain state; that bookkeeping
    /// happens between rounds, outside every timed interval.
    pub fn run(&mut self, spans: &mut Spans, trace: bool, stop: Stop) -> Timed {
        let round_reqs = self.traffic.round_reqs();
        let mut out = Timed::default();
        let mut timed_s = 0.0;
        loop {
            let done = match stop {
                Stop::Seconds(s) => timed_s >= s && (!trace || out.rounds.len() >= 2),
                Stop::Rounds(n) => out.rounds.len() >= n,
            };
            if done {
                break;
            }
            let traced = trace && out.rounds.len() % 2 == 0;
            spans.enabled = traced;
            let (retired0, cycle0) = (self.retired, self.sim.cycle());
            self.counts = Counts::default();
            let boundary = retired0 + round_reqs;
            let start = Instant::now();
            while self.retired < boundary {
                self.step(spans, true);
            }
            let wall_s = start.elapsed().as_secs_f64();
            spans.enabled = false;
            timed_s += wall_s;
            out.rounds.push(Round {
                reqs: self.retired - retired0,
                cycles: self.sim.cycle() - cycle0,
                wall_s,
                traced,
            });
            if traced {
                out.traced_counts.add(self.counts);
            }
            if out.rounds.len() == 1 {
                out.first = SimDomain::read_stats(&self.sim);
                out.first.sim_cycles = self.sim.cycle();
                out.first.fingerprint = self.sim.state_fingerprint();
            }
        }
        out
    }

    /// Sends what was generated, waits for every response and lets the
    /// fabric settle. Untimed.
    pub fn drain(&mut self) {
        let mut idle = Spans::new(&LOOP_SPANS);
        while self.inflight.iter().any(|&n| n > 0) || self.pending.iter().any(|q| !q.is_empty()) {
            self.step(&mut idle, false);
        }
        self.sim.drain(1_000_000);
    }
}

/// Set-ups performed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Rounds of the engine-comparison replays of the traced repetition.
const COMPARE_ROUNDS: usize = 2;

/// A fixed prefix of the workload on a fresh simulator under one
/// engine setting: `(wall seconds of the rounds, final fingerprint)`.
fn prefix<T: Traffic>(traffic: T, exec: ExecMode, skip: SkipMode) -> (f64, u64) {
    let mut lp = Loop::build(traffic, exec, skip);
    let timed = lp.run(
        &mut Spans::new(&LOOP_SPANS),
        false,
        Stop::Rounds(COMPARE_ROUNDS),
    );
    lp.drain();
    (
        timed.rounds.iter().map(|r| r.wall_s).sum(),
        lp.sim.state_fingerprint(),
    )
}

/// Runs a loop workload end to end: set-up (several times), the timed
/// region, the drain, the oracle, and — traced — the per-layer profile.
pub fn run<T: Traffic>(opts: &Opts, generate: impl Fn() -> T) -> (Report, Spans) {
    let mut report = Report::default();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // One resident instance at a time keeps peak RSS a property of
        // the workload, not of the repetition count.
        drop(built.take());
        let t = Instant::now();
        built = Some(Loop::build(generate(), ExecMode::Sequential, SkipMode::Off));
        report.setup_samples_s.push(t.elapsed().as_secs_f64());
    }
    let mut lp = built.expect("SETUP_REPS is at least one");
    let mut spans = Spans::new(&LOOP_SPANS);
    let timed = lp.run(&mut spans, opts.trace, Stop::Seconds(opts.seconds));
    lp.drain();
    let (checked, mismatched) = lp.traffic.verify(&lp.sim);
    report.attempted = lp.retired + checked;
    report.failed = lp.failed + mismatched;
    report.rounds = timed.rounds;
    report.sim = timed.first;
    if !opts.trace {
        return (report, spans);
    }

    let traced: Vec<&Round> = report.rounds.iter().filter(|r| r.traced).collect();
    let wall_ns = traced.iter().map(|r| r.wall_s).sum::<f64>() * 1e9;
    let reqs = traced.iter().map(|r| r.reqs).sum::<u64>() as f64;
    let counts = timed.traced_counts;
    let total = |kind: usize| spans.agg(kind).ns.sum() as f64;
    let layers = [
        (
            "sim.clock.ns_per_cycle",
            total(SPAN_CLOCK) / counts.clocks as f64,
        ),
        ("sim.clock.calls", counts.clocks as f64),
        ("sim.clock.wall_share", 100.0 * total(SPAN_CLOCK) / wall_ns),
        (
            "sim.send.ns_per_call",
            total(SPAN_SEND) / counts.send_calls as f64,
        ),
        ("sim.send.calls", counts.send_calls as f64),
        ("sim.send.stalls", counts.send_stalls as f64),
        (
            "sim.send.accept_ratio",
            1.0 - counts.send_stalls as f64 / counts.send_calls as f64,
        ),
        (
            "sim.recv.ns_per_rsp",
            total(SPAN_RECV) / counts.responses as f64,
        ),
        ("sim.recv.polls", counts.polls as f64),
        ("sim.recv.empty_polls", counts.empty_polls as f64),
        ("perf.driver.self_ns_per_req", total(SPAN_DRIVER) / reqs),
        (
            "perf.driver.unattributed_pct",
            100.0
                * (wall_ns
                    - total(SPAN_RECV)
                    - total(SPAN_DRIVER)
                    - total(SPAN_SEND)
                    - total(SPAN_CLOCK))
                / wall_ns,
        ),
        ("sim.new.ns_per_sim", lp.sim_new_ns as f64),
    ];
    for (name, value) in layers {
        report.set(name, value);
    }
    let devs = lp.devs;
    drop(lp);

    let n = (1_000_000.0 * opts.scale) as u64 + 1;
    let wires = || {
        let (mut traffic, mut i) = (generate(), 0);
        move || {
            let req = traffic.next(i % devs);
            i += 1;
            Wire {
                cmd: req.cmd,
                addr: req.addr,
                cub: req.cub,
                payload: traffic.payload(&req),
            }
        }
    };
    report.set(
        "types.pack_unpack.ns_per_req",
        pack_unpack_ns_per_req(n, wires()),
    );
    report.set("mem.exec.ns_per_req", mem_exec_ns_per_req(n, wires()));

    // The same prefix under each engine setting; all must reach the
    // same state. Every cycle is busy here, so skip should read 1.00.
    let (base_s, base_fp) = prefix(generate(), ExecMode::Sequential, SkipMode::Off);
    let (skip_s, skip_fp) = prefix(generate(), ExecMode::Sequential, SkipMode::On);
    let (par_s, par_fp) = prefix(generate(), ExecMode::Parallel { threads: 2 }, SkipMode::Off);
    report.set("sim.skip.speedup", base_s / skip_s);
    report.set("sim.parallel.t2_speedup", base_s / par_s);
    report.attempted += 2;
    report.failed += u64::from(skip_fp != base_fp) + u64::from(par_fp != base_fp);
    report.finish_traced();
    (report, spans)
}
