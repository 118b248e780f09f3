//! The trace-file format and the replay checkpoint, from outside.
//!
//! * **Byte stability** — `tests/golden/replay_ckpt_v5.json` is a short
//!   sanitized, recorded replay's `ReplayCheckpoint::to_json()` as this
//!   build renders it (`BLESS=1 cargo test --test trace_replay golden`
//!   regenerates it after an intentional format change; review the
//!   diff and bump `REPLAY_CKPT_SCHEMA_VERSION`, or
//!   `SNAPSHOT_SCHEMA_VERSION` when the embedded snapshot moved — the
//!   file name's `v5` is the snapshot schema, whose packed flight lanes,
//!   named machine, line-masked pages and three-field timing sections
//!   left the checkpoint's own layout at version 1). It must load and
//!   re-render byte for byte, the same replay must still render to it,
//!   and resuming from the file must reach the state of the
//!   uninterrupted run. `tests/golden/replay_ckpt_v4.json`, rendered
//!   while timing sections carried the retired `validated` backend's
//!   record, `replay_ckpt_v3.json`, rendered before pages held only
//!   their nonzero lines, `replay_ckpt_v2.json`, rendered before
//!   snapshots named their machine, and `replay_ckpt_v1.json`, rendered
//!   before flight lanes were packed, must load to the same state and
//!   flight records, re-render as the v5 bytes (v2 and v1 with no
//!   `config`), and resume alike.
//! * **The parser never panics** — seeded mutations of a generated
//!   trace end in `Ok` or a typed error, and whatever parses survives a
//!   render → parse round trip.

use hmcsim::prelude::*;
use hmcsim::sim::{Json, LinkConfig};
use hmcsim::workloads::tracefile::{
    parse_line, parse_trace, render_trace, replay_resumable, ReplayCheckpoint, ReplayConfig,
    TraceOp,
};

/// The 8-vault, 2-bank cube of `tests/snapshot_codec.rs`, with the
/// sanitizer reporting and a 4-record flight recorder. Engine, skip and
/// timing modes are pinned, whatever the CI matrix's environment says.
fn small_observed_cube() -> HmcSim {
    let mut d = DeviceConfig::gen2_4link_4gb();
    d.vaults_per_quad = 2;
    d.banks_per_vault = 2;
    d.bank_latency = 2;
    d.link_config = LinkConfig { tokens: Some(96), error_period: None, retry_latency: 6 };
    let mut sim = HmcSim::new(d).unwrap();
    sim.set_skip_mode(SkipMode::Off);
    sim.set_timing_model(TimingSelect::FixedLatency);
    sim.enable_sanitizer(SanitizerConfig::report());
    sim.enable_flight_recorder(4);
    sim
}

/// Reads, writes, posted writes and atomics from four threads, all
/// inside the first memory page so the golden holds one page of hex.
fn short_trace() -> Vec<TraceOp> {
    let mut text = String::new();
    for i in 0..48u64 {
        let (addr, tid) = ((i * 0x90) % 0x1800, i % 4);
        text += &match i % 6 {
            0 | 3 => format!("R 0x{addr:x} 64 {tid}\n"),
            1 => format!("W 0x{addr:x} 32 {tid}\n"),
            2 => format!("A INC8 0x{addr:x} {tid}\n"),
            4 => format!("P 0x{addr:x} 16 {tid}\n"),
            _ => format!("A XOR16 0x{addr:x} {tid}\n"),
        };
    }
    parse_trace(&text).unwrap()
}

const CONFIG: ReplayConfig = ReplayConfig { window: 6, max_cycles: 100_000, checkpoint_every: 12 };

#[test]
fn golden_replay_checkpoint_loads_re_renders_and_resumes() {
    let ops = short_trace();
    let mut full = small_observed_cube();
    let (result, ckpt) = replay_resumable(&mut full, &ops, &CONFIG, None).unwrap();
    let ckpt = ckpt.expect("the replay took a checkpoint");
    assert!(!ckpt.inflight.is_empty() && ckpt.cursor < ops.len(), "cut mid-flight");
    let rendered = ckpt.to_json();

    let golden_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let path = |name: &str| golden_dir.join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path("replay_ckpt_v5.json"), format!("{rendered}\n")).unwrap();
    }
    let read = |name: &str| {
        let text = std::fs::read_to_string(path(name)).unwrap_or_else(|e| {
            panic!("missing golden file {name} ({e}); run with BLESS=1")
        });
        text.trim_end().to_string()
    };
    let golden = read("replay_ckpt_v5.json");
    assert!(
        rendered == golden,
        "replay_ckpt_v5.json drifted from the checked-in bytes; if intentional, bump the schema \
         version that moved, regenerate with BLESS=1 cargo test --test trace_replay golden and \
         review the diff"
    );
    // What a legacy file re-renders as: the snapshot names no machine
    // (and this cube loads no CMC library).
    let mut machineless = Json::parse(&golden).unwrap();
    if let Json::Obj(top) = &mut machineless {
        if let Some((_, Json::Obj(snapshot))) = top.iter_mut().find(|(k, _)| k == "snapshot") {
            snapshot.iter_mut().find(|(k, _)| k == "config").unwrap().1 = Json::Null;
        }
    }
    let machineless = machineless.render();

    // The files on disk through the decoder and back, then onwards.
    let files = [
        ("replay_ckpt_v5.json", &golden, "re-renders byte for byte"),
        ("replay_ckpt_v4.json", &golden, "re-renders as v5"),
        ("replay_ckpt_v3.json", &golden, "re-renders as v5"),
        ("replay_ckpt_v2.json", &machineless, "re-renders as v5 without a machine"),
        ("replay_ckpt_v1.json", &machineless, "re-renders as v5 without a machine"),
    ];
    for (name, bytes, want) in files {
        let loaded = ReplayCheckpoint::from_json(&read(name)).expect("the golden loads");
        assert!(loaded.to_json() == *bytes, "{name} {want}");
        assert_eq!(loaded.snapshot.fingerprint(), ckpt.snapshot.fingerprint(), "{name}");
        assert_eq!(loaded.snapshot.flight(), ckpt.snapshot.flight(), "{name}");
        let mut resumed = small_observed_cube();
        let (resumed_result, _) =
            replay_resumable(&mut resumed, &ops, &CONFIG, Some(loaded)).unwrap();
        assert_eq!(resumed_result, result, "{name}");
        assert_eq!(resumed.state_fingerprint(), full.state_fingerprint(), "{name}");
        assert_eq!(resumed.sanitizer_report().unwrap().total_violations, 0, "{name}");
    }
    let recorded = ckpt.snapshot.flight().is_some_and(|f| !f.is_empty());
    assert!(recorded, "the checkpoint carries records");
}

/// xorshift64*: the seeded stream the mutation loop draws from.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n.max(1) as u64) as usize
    }
}

/// One mutation of a trace line: flipped bits, a truncation, two tokens
/// swapped, or a token spliced in from elsewhere in the line.
fn mutate(line: &str, rng: &mut Rng) -> String {
    let mut bytes = line.as_bytes().to_vec();
    let mut tokens: Vec<String> = line.split(' ').map(str::to_string).collect();
    match rng.below(4) {
        0 => {
            for _ in 0..=rng.below(2) {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
        }
        1 => bytes.truncate(rng.below(bytes.len())),
        2 => {
            let (a, b) = (rng.below(tokens.len()), rng.below(tokens.len()));
            tokens.swap(a, b);
            bytes = tokens.join(" ").into_bytes();
        }
        _ => {
            let extra = tokens[rng.below(tokens.len())].clone();
            tokens.insert(rng.below(tokens.len() + 1), extra);
            bytes = tokens.join(" ").into_bytes();
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_trace_lines_parse_or_fail_typed_and_what_parses_round_trips() {
    // Every record kind, size and atomic the format has, rendered.
    let mut ops = Vec::new();
    for (i, &cmd) in HmcRqst::STANDARD.iter().enumerate() {
        use hmcsim::types::CmdKind::*;
        let info = cmd.fixed_info().unwrap();
        if matches!(info.kind, Read | Write | PostedWrite | Atomic | PostedAtomic) {
            ops.push(TraceOp { cmd, addr: 0x10_0000 + 0x1f40 * i as u64, tid: i as u64 % 9 });
        }
    }
    let text = render_trace(&ops);
    assert_eq!(parse_trace(&text).unwrap(), ops, "the unmutated trace round-trips");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 30);

    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let (mut parsed, mut rejected) = (0, 0);
    for round in 0..12_000 {
        let mutant = mutate(lines[round % lines.len()], &mut rng);
        // Returning at all is the property; an `Err` is typed.
        match parse_line(&mutant) {
            Ok(Some(op)) => {
                parsed += 1;
                let again = parse_trace(&render_trace(std::slice::from_ref(&op)));
                assert_eq!(again, Ok(vec![op]), "`{mutant}` does not survive re-rendering");
            }
            Ok(None) => parsed += 1,
            Err(_) => rejected += 1,
        }
        // A whole trace with the mutant in it fails or parses with it.
        if round % 16 == 0 && !mutant.contains(['\n', '\r']) {
            let whole = format!("{}\n{mutant}\n{}", lines[0], lines[1]);
            assert_eq!(parse_trace(&whole).is_ok(), parse_line(&mutant).is_ok());
        }
    }
    assert!(parsed > 500 && rejected > 500, "the loop saw both outcomes ({parsed} / {rejected})");

    // The integer parsers' `+` is no part of the format.
    for signed in ["R 0x+1f00 64 3", "R +1f00 64 3", "R 0x1f00 +64 3", "R 0x1f00 64 +3", "A INC8 0x40 +1"] {
        assert!(parse_line(signed).is_err(), "`{signed}` parses");
    }
}
