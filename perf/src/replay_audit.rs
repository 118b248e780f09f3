//! `replay_audit` — a seeded text trace parsed by `parse_trace` and
//! replayed by `replay_with_sink` on one 4Link-4GB cube with every
//! observer attached (full telemetry, panicking sanitizer, a flight
//! recorder) and periodic checkpoints that the sink round-trips
//! through the snapshot JSON codec.
//!
//! Why: the same `clock` path used differently — observers on and
//! snapshots taken — so a cycle-loop or codec change that pays for its
//! gain in the sanitizer, telemetry, recorder or `snapjson` shows here
//! and nowhere else. One round is one replay of the trace on a fresh
//! simulator; its parse and construction are that round's set-up.

use crate::metrics::Report;
use crate::micro::{mem_exec_ns_per_req, pack_unpack_ns_per_req, Wire};
use crate::spans::{SpanKind, Spans};
use crate::util::{Rng, Round, SimDomain};
use crate::Opts;
use hmc_sim::{
    DeviceConfig, ExecMode, HmcSim, SanitizerConfig, SimConfig, SkipMode, TelemetryConfig,
    TimingSelect,
};
use hmc_types::packet::payload_words;
use hmc_workloads::tracefile::{
    parse_trace, replay_with_sink, ReplayCheckpoint, ReplayConfig, TraceOp,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Trace operations per round at scale 1.0.
const ROUND_OPS: f64 = 125_000.0;
/// Device cycles between checkpoints at scale 1.0.
const CHECKPOINT_EVERY: f64 = 10_000.0;
const THREADS: u64 = 8;
/// 4 MiB working set of 64-byte lines.
const LINES: u64 = 65_536;
const BASE: u64 = 0x0010_0000;
const RECORDER_LANE: usize = 4096;

const SPAN_ROUND: usize = 0;
const SPAN_PARSE: usize = 1;
const SPAN_NEW: usize = 2;
const SPAN_REPLAY: usize = 3;
const SPAN_ENCODE: usize = 4;
const SPAN_DECODE: usize = 5;
const SPAN_FINGERPRINT: usize = 6;
const SPANS: [SpanKind; 7] = [
    SpanKind {
        layer: "perf",
        name: "round",
    },
    SpanKind {
        layer: "workloads",
        name: "parse_trace",
    },
    SpanKind {
        layer: "sim",
        name: "new",
    },
    SpanKind {
        layer: "workloads",
        name: "replay",
    },
    SpanKind {
        layer: "sim",
        name: "snapjson.encode",
    },
    SpanKind {
        layer: "sim",
        name: "snapjson.decode",
    },
    SpanKind {
        layer: "sim",
        name: "fingerprint",
    },
];

/// Input generation: the trace text (3/8 RD64, 2/8 WR64, 1/8 RD16,
/// 1/8 INC8, 1/8 posted WR64 over eight threads).
fn trace_text(seed: u64, ops: usize) -> String {
    let mut rng = Rng::new(seed, 4);
    let mut text = String::with_capacity(ops * 20);
    for i in 0..ops {
        let r = rng.next_u64();
        let addr = BASE + (r % LINES) * 64;
        let tid = i as u64 % THREADS;
        let _ = match (r >> 32) % 8 {
            0..=2 => writeln!(text, "R 0x{addr:x} 64 {tid}"),
            3 | 4 => writeln!(text, "W 0x{addr:x} 64 {tid}"),
            5 => writeln!(text, "R 0x{addr:x} 16 {tid}"),
            6 => writeln!(text, "A INC8 0x{addr:x} {tid}"),
            _ => writeln!(text, "P 0x{addr:x} 64 {tid}"),
        };
    }
    text
}

/// Which observers a simulator carries.
#[derive(Clone, Copy)]
struct Observers {
    sanitizer: bool,
    telemetry: bool,
    recorder: bool,
}

const ALL: Observers = Observers {
    sanitizer: true,
    telemetry: true,
    recorder: true,
};
const NONE: Observers = Observers {
    sanitizer: false,
    telemetry: false,
    recorder: false,
};

fn new_sim(obs: Observers) -> HmcSim {
    let mut config = SimConfig::single(DeviceConfig::gen2_4link_4gb());
    config.exec_mode = ExecMode::Sequential;
    config.skip_mode = SkipMode::Off;
    config.timing = TimingSelect::FixedLatency;
    if obs.sanitizer {
        config.sanitizer = SanitizerConfig::panicking();
    }
    if obs.telemetry {
        config.telemetry = TelemetryConfig::full();
    }
    let mut sim = HmcSim::with_config(config).expect("paper device is valid");
    assert_eq!(
        sim.exec_mode(),
        ExecMode::Sequential,
        "engine must not come from the environment"
    );
    assert_eq!(
        sim.skip_mode(),
        SkipMode::Off,
        "skip mode must not come from the environment"
    );
    assert_eq!(sim.timing_select(), TimingSelect::FixedLatency);
    if obs.recorder {
        sim.enable_flight_recorder(RECORDER_LANE);
    }
    sim
}

/// One round's results beyond its [`Round`].
struct Replayed {
    round: Round,
    setup_s: f64,
    attempted: u64,
    failed: u64,
    sim: SimDomain,
    last_checkpoint: Option<ReplayCheckpoint>,
    checkpoints: u64,
    checkpoint_bytes: u64,
    ops: Vec<TraceOp>,
}

fn round(text: &str, config: &ReplayConfig, spans: &mut Spans, id: u64, traced: bool) -> Replayed {
    let t0 = Instant::now();
    let ops = parse_trace(text).expect("generated trace parses");
    let t1 = Instant::now();
    let mut sim = new_sim(ALL);
    let t2 = Instant::now();

    let (mut checkpoints, mut checkpoint_bytes, mut bad_round_trips) = (0u64, 0u64, 0u64);
    let (result, last_checkpoint) = replay_with_sink(&mut sim, &ops, config, None, |ckpt| {
        let e0 = Instant::now();
        let json = ckpt.to_json();
        let e1 = Instant::now();
        let back = ReplayCheckpoint::from_json(&json);
        let e2 = Instant::now();
        let want = ckpt.snapshot.fingerprint();
        let e3 = Instant::now();
        let same = back.is_ok_and(|b| {
            b.snapshot.fingerprint() == want
                && b.cursor == ckpt.cursor
                && b.inflight == ckpt.inflight
        });
        checkpoints += 1;
        checkpoint_bytes += json.len() as u64;
        bad_round_trips += u64::from(!same);
        spans.record(SPAN_ENCODE, id, spans.at(e0), spans.at(e1));
        spans.record(SPAN_DECODE, id, spans.at(e1), spans.at(e2));
        spans.record(SPAN_FINGERPRINT, id, spans.at(e2), spans.at(e3));
        Ok(())
    })
    .expect("replay runs");
    let t3 = Instant::now();

    let (n0, n1, n2, n3) = (spans.at(t0), spans.at(t1), spans.at(t2), spans.at(t3));
    spans.record(SPAN_PARSE, id, n0, n1);
    spans.record(SPAN_NEW, id, n1, n2);
    spans.record(SPAN_REPLAY, id, n2, n3);
    spans.record(SPAN_ROUND, id, n0, n3);

    let stats = sim.stats(0).expect("device 0 exists");
    // Every non-posted request must have been answered, cleanly.
    let unanswered = result.issued - stats.posted_writes - result.completed;
    let mut domain = SimDomain::read_stats(&sim);
    domain.sim_cycles = result.cycles;
    domain.fingerprint = sim.state_fingerprint();
    Replayed {
        round: Round {
            reqs: result.issued,
            cycles: result.cycles,
            wall_s: (t3 - t2).as_secs_f64(),
            traced,
        },
        setup_s: (t2 - t0).as_secs_f64(),
        attempted: result.issued + checkpoints,
        failed: (ops.len() as u64 - result.issued)
            + unanswered
            + stats.error_responses
            + stats.poisoned_responses
            + bad_round_trips,
        sim: domain,
        last_checkpoint,
        checkpoints,
        checkpoint_bytes,
        ops,
    }
}

/// Replays `ops` once without checkpoints and returns
/// `(wall seconds, cycles, simulator)`.
fn plain_replay(ops: &[TraceOp], obs: Observers) -> (f64, u64, HmcSim) {
    let mut sim = new_sim(obs);
    let config = ReplayConfig {
        window: 64,
        ..Default::default()
    };
    let t = Instant::now();
    let (result, _) =
        replay_with_sink(&mut sim, ops, &config, None, |_| Ok(())).expect("replay runs");
    (t.elapsed().as_secs_f64(), result.cycles, sim)
}

/// The replayer's own payload rule (`addr ^ word index`).
fn wire(op: &TraceOp) -> Wire {
    let info = op
        .cmd
        .fixed_info()
        .expect("trace ops are standard commands");
    let payload = (0..payload_words(info.rqst_flits) as u64)
        .map(|w| op.addr ^ w)
        .collect();
    Wire {
        cmd: op.cmd,
        addr: op.addr,
        cub: 0,
        payload,
    }
}

pub fn run(opts: &Opts) -> (Report, Spans) {
    let n_ops = ((ROUND_OPS * opts.scale) as usize).max(2_000);
    let config = ReplayConfig {
        window: 64,
        checkpoint_every: ((CHECKPOINT_EVERY * opts.scale) as u64).max(50),
        ..Default::default()
    };
    let text = trace_text(opts.seed, n_ops);
    let mut spans = Spans::new(&SPANS);
    let mut report = Report::default();
    let mut timed_s = 0.0;
    let mut first: Option<Replayed> = None;
    let (mut traced_reqs, mut traced_ckpts, mut traced_bytes) = (0u64, 0u64, 0u64);
    while timed_s < opts.seconds || (opts.trace && report.rounds.len() < 2) {
        let traced = opts.trace && report.rounds.len() % 2 == 0;
        spans.enabled = traced;
        let r = round(
            &text,
            &config,
            &mut spans,
            report.rounds.len() as u64,
            traced,
        );
        spans.enabled = false;
        timed_s += r.round.wall_s;
        report.rounds.push(r.round);
        report.setup_samples_s.push(r.setup_s);
        report.attempted += r.attempted;
        report.failed += r.failed;
        if traced {
            traced_reqs += r.round.reqs;
            traced_ckpts += r.checkpoints;
            traced_bytes += r.checkpoint_bytes;
        }
        match &first {
            // Same trace, fresh simulator: every round repeats the first.
            Some(f) => {
                report.attempted += 1;
                report.failed += u64::from(f.sim != r.sim);
            }
            None => first = Some(r),
        }
    }
    let first = first.expect("at least one round ran");
    report.sim = first.sim.clone();

    // Crash-recovery audit: the last checkpoint, restored into a fresh
    // simulator and replayed to the end, must land on the state of the
    // uninterrupted run.
    report.attempted += 1;
    let mut restore_ns = 0;
    match first.last_checkpoint {
        Some(ckpt) => {
            let mut fresh = new_sim(ALL);
            let t = Instant::now();
            fresh
                .restore(&ckpt.snapshot)
                .expect("same geometry restores");
            restore_ns = t.elapsed().as_nanos();
            replay_with_sink(&mut fresh, &first.ops, &config, Some(ckpt), |_| Ok(()))
                .expect("resumed replay runs");
            report.failed += u64::from(fresh.state_fingerprint() != first.sim.fingerprint);
        }
        // A round without a checkpoint audits nothing.
        None => report.failed += 1,
    }

    if opts.trace {
        let (parse, new, replay) = (
            spans.agg(SPAN_PARSE),
            spans.agg(SPAN_NEW),
            spans.agg(SPAN_REPLAY),
        );
        let (encode, decode, fingerprint) = (
            spans.agg(SPAN_ENCODE),
            spans.agg(SPAN_DECODE),
            spans.agg(SPAN_FINGERPRINT),
        );
        let ckpts = traced_ckpts.max(1) as f64;
        report.set(
            "workloads.parse_trace.ns_per_op",
            parse.ns.sum() as f64 / (parse.ns.count() * n_ops as u64) as f64,
        );
        report.set("sim.new.ns_per_sim", new.ns.mean());
        report.set(
            "workloads.replay.self_ns_per_req",
            (replay.ns.sum() - encode.ns.sum() - decode.ns.sum() - fingerprint.ns.sum()) as f64
                / traced_reqs as f64,
        );
        report.set(
            "sim.snapjson.encode_ns_per_ckpt",
            encode.ns.sum() as f64 / ckpts,
        );
        report.set(
            "sim.snapjson.decode_ns_per_ckpt",
            decode.ns.sum() as f64 / ckpts,
        );
        report.set("sim.snapjson.bytes_per_ckpt", traced_bytes as f64 / ckpts);
        report.set(
            "sim.fingerprint.ns_per_call",
            fingerprint.ns.sum() as f64 / ckpts,
        );
        report.set("sim.restore.ns_per_call", restore_ns as f64);

        // One observer at a time against the bare replay of the same
        // trace; none of them may change the state reached.
        let (bare_s, cycles, bare) = plain_replay(&first.ops, NONE);
        let bare_fp = bare.state_fingerprint();
        for (name, obs) in [
            (
                "sim.sanitizer.ns_per_cycle",
                Observers {
                    sanitizer: true,
                    ..NONE
                },
            ),
            (
                "sim.telemetry.ns_per_cycle",
                Observers {
                    telemetry: true,
                    ..NONE
                },
            ),
            (
                "sim.trace.ns_per_cycle",
                Observers {
                    recorder: true,
                    ..NONE
                },
            ),
        ] {
            let (wall_s, _, sim) = plain_replay(&first.ops, obs);
            report.set(name, (wall_s - bare_s) * 1e9 / cycles as f64);
            report.attempted += 1;
            report.failed += u64::from(sim.state_fingerprint() != bare_fp);
            if obs.telemetry {
                let t = Instant::now();
                std::hint::black_box(sim.telemetry_report());
                report.set("sim.telemetry_report.ns", t.elapsed().as_nanos() as f64);
            }
        }

        let n = n_ops as u64;
        let mut cursor = first.ops.iter().cycle();
        report.set(
            "types.pack_unpack.ns_per_req",
            pack_unpack_ns_per_req(n, || wire(cursor.next().expect("trace is not empty"))),
        );
        report.set(
            "mem.exec.ns_per_req",
            mem_exec_ns_per_req(n, || wire(cursor.next().expect("trace is not empty"))),
        );
        report.finish_traced();
    }
    (report, spans)
}
