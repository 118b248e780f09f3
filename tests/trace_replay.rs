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
//! * **Two readers, one answer** — `parse_line` reads a canonical line
//!   straight from its bytes and hands every other line to the general
//!   reader. Every line above, every mutant, and generated canonical
//!   lines and their near misses (other whitespace, `0X`, upper-case
//!   digits, signs, overflow, CRLF) get the same `Ok` value or the same
//!   error from it as from [`reference_parse_line`], the general reader
//!   as it stood alone.

use hmcsim::prelude::*;
use hmcsim::sim::{Json, LinkConfig};
use hmcsim::types as hmc_types;
use hmcsim::workloads::tracefile::{
    parse_line, parse_trace, render_trace, replay_resumable, ReplayCheckpoint, ReplayConfig,
    TraceOp,
};
use std::num::ParseIntError;

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

/// The trace-line reader as it stood before the canonical one joined
/// it, kept verbatim: the oracle both readers together must match.
fn reference_parse_line(line: &str) -> Result<Option<TraceOp>, HmcError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut tok = line.split_whitespace();
    let kind = tok.next().expect("nonempty line");
    let bad = |why: String| HmcError::MalformedPacket(format!("trace line '{line}': {why}"));
    // A trace number is digits only; the integer parsers take a `+`,
    // so a signed token is parsed as the sign alone, which fails as
    // the digit it is not.
    fn unsigned<T>(
        s: &str,
        parse: impl Fn(&str) -> Result<T, ParseIntError>,
    ) -> Result<T, ParseIntError> {
        parse(if s.starts_with('+') { "+" } else { s })
    }
    let parse_addr = |s: Option<&str>| -> Result<u64, HmcError> {
        let s = s.ok_or_else(|| bad("missing address".into()))?;
        let s = s.strip_prefix("0x").unwrap_or(s);
        unsigned(s, |s| u64::from_str_radix(s, 16)).map_err(|e| bad(format!("bad address: {e}")))
    };
    let parse_tid = |s: Option<&str>| -> Result<u64, HmcError> {
        match s {
            None => Ok(0),
            Some(s) => unsigned(s, str::parse).map_err(|e| bad(format!("bad tid: {e}"))),
        }
    };
    let op = match kind {
        "R" | "W" | "P" => {
            let addr = parse_addr(tok.next())?;
            let bytes = tok.next().ok_or_else(|| bad("missing size".into()))?;
            let bytes: usize =
                unsigned(bytes, str::parse).map_err(|e| bad(format!("bad size: {e}")))?;
            let cmd = match kind {
                "R" => HmcRqst::read_for_bytes(bytes),
                "W" => HmcRqst::write_for_bytes(bytes),
                _ => HmcRqst::posted_write_for_bytes(bytes),
            }
            .map_err(|_| bad(format!("no Gen2 command for {bytes} bytes")))?;
            TraceOp { cmd, addr, tid: parse_tid(tok.next())? }
        }
        "A" => {
            let mnemonic = tok.next().ok_or_else(|| bad("missing mnemonic".into()))?;
            let cmd = HmcRqst::STANDARD
                .iter()
                .copied()
                .find(|c| c.fixed_info().is_some_and(|info| info.name == mnemonic))
                .ok_or_else(|| bad(format!("unknown mnemonic {mnemonic}")))?;
            if !matches!(
                cmd.kind(),
                hmc_types::CmdKind::Atomic | hmc_types::CmdKind::PostedAtomic
            ) {
                return Err(bad(format!("{mnemonic} is not an atomic")));
            }
            let addr = parse_addr(tok.next())?;
            TraceOp { cmd, addr, tid: parse_tid(tok.next())? }
        }
        other => return Err(bad(format!("unknown record kind '{other}'"))),
    };
    if tok.next().is_some() {
        return Err(bad("trailing tokens".into()));
    }
    Ok(Some(op))
}

/// `parse_line` and the reference give `line` the same op or error.
fn agrees(line: &str) -> Result<Option<TraceOp>, HmcError> {
    let got = parse_line(line);
    assert_eq!(got, reference_parse_line(line), "`{}`", line.escape_debug());
    got
}

/// `parse_trace` gives `text` what the reference gives its lines.
fn trace_agrees(text: &str) {
    let reference: Result<Vec<TraceOp>, HmcError> =
        text.lines().filter_map(|l| reference_parse_line(l).transpose()).collect();
    assert_eq!(parse_trace(text), reference, "`{}`", text.escape_debug());
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
    let text = render_trace(&ops).unwrap();
    assert_eq!(parse_trace(&text).unwrap(), ops, "the unmutated trace round-trips");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 30);
    for line in &lines {
        assert!(matches!(agrees(line), Ok(Some(_))), "`{line}`");
    }

    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let (mut parsed, mut rejected) = (0, 0);
    for round in 0..12_000 {
        let mutant = mutate(lines[round % lines.len()], &mut rng);
        // Returning at all is the property; an `Err` is typed.
        match agrees(&mutant) {
            Ok(Some(op)) => {
                parsed += 1;
                let again = parse_trace(&render_trace(std::slice::from_ref(&op)).unwrap());
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
        // Line breaks and all, a trace reads as the reference reads it,
        // the mutant first, in the middle or last.
        let next = lines[(round + 1) % lines.len()];
        trace_agrees(&format!("{mutant}\n{next}\n"));
        trace_agrees(&format!("{next}\n{mutant}\n{next}"));
        trace_agrees(&format!("{next}\r\n{mutant}"));
    }
    assert!(parsed > 500 && rejected > 500, "the loop saw both outcomes ({parsed} / {rejected})");

    // The integer parsers' `+` is no part of the format.
    for signed in ["R 0x+1f00 64 3", "R +1f00 64 3", "R 0x1f00 +64 3", "R 0x1f00 64 +3", "A INC8 0x40 +1"] {
        assert!(parse_line(signed).is_err(), "`{signed}` parses");
    }

    // Generated canonical lines: every record kind at every size a
    // command has and some none has, addresses of no to 17 hex digits
    // (leading zeros, and past `u64`), tids to `u64::MAX` and one past
    // it, and every Table I mnemonic, atomic or not.
    let mut addrs = vec![String::new(), "00000000000000000".into(), "00000000000000001".into()];
    addrs.extend((1..=17).map(|n| "f3a9c0b71e2d5648a"[..n].to_string()));
    addrs.extend((1..=17).map(|n| format!("{:0>n$}", "1c0")));
    let tids = ["", " 0", " 7", " 00012", " 18446744073709551615", " 18446744073709551616"];
    let mut canonical = Vec::new();
    for (i, addr) in addrs.iter().enumerate() {
        let tid = tids[i % tids.len()];
        for kind in ["R", "W", "P"] {
            for size in [0, 8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 192, 256, 512] {
                canonical.push(format!("{kind} 0x{addr} {size}{tid}"));
            }
        }
        for &cmd in HmcRqst::STANDARD {
            let name = cmd.fixed_info().unwrap().name;
            canonical.push(format!("A {name} 0x{addr}{tid}"));
        }
    }
    for tid in tids {
        canonical.push(format!("R 0x40 64{tid}"));
        canonical.push(format!("A INC8 0x40{tid}"));
    }
    let (mut ok, mut err) = (0, 0);
    for line in &canonical {
        match agrees(line) {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    assert!(ok > 1_000 && err > 1_000, "both outcomes ({ok} / {err})");

    // Their near misses, which the general reader decides: another
    // separator, a trailing space or token, `0X`, upper-case digits and
    // signs, each line alone and a trace of them with CRLF endings.
    let mut near = Vec::new();
    for line in canonical.iter().step_by(7) {
        for sep in ["\t", "\x0b", "\u{85}", "\u{a0}", "\u{3000}", "  "] {
            near.push(line.replacen(' ', sep, 1));
            near.push(line.replace(' ', sep));
        }
        near.push(format!("{line} "));
        near.push(format!(" {line}"));
        near.push(format!("{line} 7"));
        near.push(format!("{line} #"));
        near.push(line.replace("0x", "0X"));
        near.push(line.replace("0x", ""));
        near.push(line.replace("0x", "0x+"));
        near.push(line.replace("0x", "+0x"));
        near.push(line.replace(" 0", " +0").replace(" 1", " +1"));
        near.push(line.to_uppercase().replacen("0X", "0x", 1));
    }
    for line in &near {
        let _ = agrees(line);
    }
    let crlf: String = canonical.iter().chain(&near).map(|l| format!("{l}\r\n")).collect();
    for chunk in crlf.split_inclusive("\r\n").collect::<Vec<_>>().chunks(64) {
        trace_agrees(&chunk.concat());
    }
    // Where lines end: not at all, twice, with a bare or a final `\r`.
    for text in [
        "", "\n", "\n\n", "\r\n", "\r", "R 0x40 64 1", "R 0x40 64 1\r", "R 0x40 64 1\r\n",
        "R 0x40 64 1\n\nA INC8 0x80\n", "R 0x40 64 1\rW 0x80 16\n", "# c\nR 0x40 64\n# d",
        "A INC8 0x40\nA INC8 0x40 ", "W 0x40 16 2\n\r\nP 0x80 32\r\r\n",
    ] {
        trace_agrees(text);
    }
}
