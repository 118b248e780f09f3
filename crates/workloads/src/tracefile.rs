//! Trace-driven simulation.
//!
//! Full-system frontends (MARSSx86 in Rosenfeld's related work \[8\],
//! or any core model) drive memory simulators with request traces.
//! This module defines a small line-oriented trace format, a parser
//! and a windowed replayer so captured or synthetic traces run
//! against the device without writing host code:
//!
//! ```text
//! # comment / blank lines ignored
//! R <hex-addr> <bytes> [tid]     # read (16..256 bytes)
//! W <hex-addr> <bytes> [tid]     # write (payload is synthetic)
//! P <hex-addr> <bytes> [tid]     # posted write
//! A <MNEMONIC> <hex-addr> [tid]  # atomic by Table-I mnemonic (INC8, XOR16, ...)
//! ```
//!
//! Two readers share the format. A line in the canonical form — what
//! [`render_trace`] writes: `R|W|P 0x<lower-case hex> <size> [tid]` or
//! `A <MNEMONIC> 0x<lower-case hex> [tid]`, fields one space apart and
//! nothing else — is read straight from its bytes. Every other line
//! (comments, blanks, other whitespace, upper-case digits, no `0x`,
//! overflow, any error) goes to the general reader, which alone decides
//! what it holds and words every error; the canonical reader only ever
//! yields what the general one would.
//!
//! The replayer issues each thread's requests on link `tid % links`
//! with a bounded global window, and reports cycles, FLITs and
//! bandwidth.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use hmc_sim::jsonv::obj;
use hmc_sim::{HmcSim, Json, JsonError, ObjReader, SimSnapshot};
use hmc_types::packet::payload_words;
use hmc_types::{HmcError, HmcRqst, PayloadBuf, Tag, TagSet};
use std::num::ParseIntError;

/// One parsed trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOp {
    /// The request command.
    pub cmd: HmcRqst,
    /// Target address.
    pub addr: u64,
    /// Issuing thread id (drives link assignment).
    pub tid: u64,
}

/// Parses one trace line; `Ok(None)` for blanks and comments.
pub fn parse_line(line: &str) -> Result<Option<TraceOp>, HmcError> {
    match canonical_record(line.as_bytes()) {
        Some((op, [])) => Ok(Some(op)),
        _ => parse_general(line),
    }
}

/// The op of the record in the canonical form [`render_trace`] writes
/// at the start of `s`, read from its bytes, and the bytes after it;
/// `None` if `s` starts with anything else, valid or not.
fn canonical_record(s: &[u8]) -> Option<(TraceOp, &[u8])> {
    let (&kind, rest) = s.split_first()?;
    let rest = rest.strip_prefix(b" ")?;
    let (cmd, addr, rest) = match kind {
        b'R' | b'W' | b'P' => {
            let (addr, rest) = canonical_number::<16>(rest.strip_prefix(b"0x")?)?;
            let (bytes, rest) = canonical_number::<10>(rest.strip_prefix(b" ")?)?;
            let bytes = usize::try_from(bytes).ok()?;
            let cmd = match kind {
                b'R' => HmcRqst::read_for_bytes(bytes),
                b'W' => HmcRqst::write_for_bytes(bytes),
                _ => HmcRqst::posted_write_for_bytes(bytes),
            };
            (cmd.ok()?, addr, rest)
        }
        b'A' => {
            let end = rest.iter().position(|&b| b == b' ')?;
            let (mnemonic, rest) = (std::str::from_utf8(&rest[..end]).ok()?, &rest[end + 1..]);
            let cmd = HmcRqst::from_name(mnemonic)?;
            if !matches!(
                cmd.kind(),
                hmc_types::CmdKind::Atomic | hmc_types::CmdKind::PostedAtomic
            ) {
                return None;
            }
            let (addr, rest) = canonical_number::<16>(rest.strip_prefix(b"0x")?)?;
            (cmd, addr, rest)
        }
        _ => return None,
    };
    let (tid, rest) = match rest {
        [b' ', digits @ ..] => canonical_number::<10>(digits)?,
        _ => (0, rest),
    };
    Some((TraceOp { cmd, addr, tid }, rest))
}

/// Each byte's value as a lower-case hex digit; 16 for any other byte.
/// A table, so that a mix of digits and letters costs no branch.
const DIGIT: [u8; 256] = {
    let mut table = [16; 256];
    let mut i = 0;
    while i < 16 {
        table[b"0123456789abcdef"[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// One or more digits in `RADIX` (10, or 16 in lower case) whose value
/// fits a `u64`, and the bytes after them.
fn canonical_number<const RADIX: u64>(s: &[u8]) -> Option<(u64, &[u8])> {
    let mut value = 0u64;
    let mut len = 0;
    while let Some(&b) = s.get(len) {
        let digit = u64::from(DIGIT[usize::from(b)]);
        if digit >= RADIX {
            break;
        }
        value = value.checked_mul(RADIX)?.checked_add(digit)?;
        len += 1;
    }
    (len > 0).then(|| (value, &s[len..]))
}

/// The reader of every line: blanks, comments, any whitespace between
/// fields, and the error of a line that does not parse.
fn parse_general(line: &str) -> Result<Option<TraceOp>, HmcError> {
    let line = line.trim();
    let mut tok = line.split_whitespace();
    let Some(kind) = tok.next().filter(|kind| !kind.starts_with('#')) else {
        return Ok(None);
    };
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
            let cmd = HmcRqst::from_name(mnemonic)
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

/// Parses a whole trace: the ops of its lines ([`str::lines`]) in
/// order, or the first line's error.
///
/// A canonical record that ends its line is read in place; any other
/// line goes through [`parse_line`]. The op vector is sized once, to
/// the text's line count, rather than grown by doubling.
pub fn parse_trace(text: &str) -> Result<Vec<TraceOp>, HmcError> {
    let bytes = text.as_bytes();
    let mut ops = Vec::with_capacity(line_count(bytes));
    let mut at = 0;
    while at < bytes.len() {
        let end = match canonical_record(&bytes[at..]) {
            Some((op, rest @ ([] | [b'\n', ..]))) => {
                ops.push(op);
                bytes.len() - rest.len()
            }
            _ => {
                let end =
                    bytes[at..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |n| at + n);
                let line = text[at..].lines().next().unwrap_or_default();
                ops.extend(parse_line(line)?);
                end
            }
        };
        at = end + 1;
    }
    Ok(ops)
}

/// How many lines [`str::lines`] finds in `bytes`.
fn line_count(bytes: &[u8]) -> usize {
    // Newlines counted in byte-wide lanes, 255 bytes at a time.
    let newlines: usize = bytes
        .chunks(255)
        .map(|chunk| chunk.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n')) as usize)
        .sum();
    newlines + usize::from(bytes.last().is_some_and(|&b| b != b'\n'))
}

/// Renders ops back to the trace format (inverse of [`parse_trace`]
/// for supported commands). An op whose command is a CMC code is
/// refused as [`replay_with_sink`] refuses it.
pub fn render_trace(ops: &[TraceOp]) -> Result<String, HmcError> {
    use std::fmt::Write;
    let mut out = String::new();
    for (index, op) in ops.iter().enumerate() {
        let info = standard_info(index, op)?;
        let _ = match info.kind {
            hmc_types::CmdKind::Read => {
                writeln!(out, "R 0x{:x} {} {}", op.addr, info.data_bytes, op.tid)
            }
            hmc_types::CmdKind::Write => {
                writeln!(out, "W 0x{:x} {} {}", op.addr, info.data_bytes, op.tid)
            }
            hmc_types::CmdKind::PostedWrite => {
                writeln!(out, "P 0x{:x} {} {}", op.addr, info.data_bytes, op.tid)
            }
            _ => writeln!(out, "A {} 0x{:x} {}", info.name, op.addr, op.tid),
        };
    }
    Ok(out)
}

/// The Table I entry of op `index`'s command; a CMC code is
/// [`HmcError::MalformedPacket`] naming the op's index and command.
fn standard_info(index: usize, op: &TraceOp) -> Result<hmc_types::CmdInfo, HmcError> {
    op.cmd.fixed_info().ok_or_else(|| {
        HmcError::MalformedPacket(format!(
            "trace op {index}: {} is no Table I command; a trace holds standard commands only",
            op.cmd
        ))
    })
}

/// Replay configuration.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Maximum non-posted requests in flight.
    pub window: usize,
    /// Cycle budget.
    pub max_cycles: u64,
    /// Take a [`ReplayCheckpoint`] every this many device cycles
    /// (`0` disables checkpointing).
    pub checkpoint_every: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig { window: 64, max_cycles: 50_000_000, checkpoint_every: 0 }
    }
}

/// A resumable mid-replay checkpoint: the device snapshot plus the
/// replayer's own cursor state. Feed it back to [`replay_resumable`]
/// (on the same or a freshly constructed identical device) to
/// continue the run deterministically — the crash-forensics workflow
/// from the sanitizer (§IV robustness extension) applied to
/// trace-driven simulation.
#[derive(Debug, Clone)]
pub struct ReplayCheckpoint {
    /// Device cycle at which the checkpoint was taken.
    pub cycle: u64,
    /// Index of the next trace op to issue.
    pub cursor: usize,
    /// Requests issued so far.
    pub issued: u64,
    /// Responses received so far.
    pub completed: u64,
    /// Data bytes moved so far.
    pub data_bytes: u64,
    /// Outstanding `(link, tag)` pairs awaiting responses.
    pub inflight: Vec<(usize, u16)>,
    /// Device cycle when the replay originally started.
    pub start_cycle: u64,
    /// Link FLIT counter baseline at replay start.
    pub flits_base: u64,
    /// Full device snapshot.
    pub snapshot: hmc_sim::SimSnapshot,
}

/// Schema version written into serialized [`ReplayCheckpoint`]s. Bump
/// on any incompatible change to the checkpoint layout.
pub const REPLAY_CKPT_SCHEMA_VERSION: u64 = 1;

impl ReplayCheckpoint {
    /// Serializes the checkpoint (cursor state + device snapshot) to a
    /// JSON value. Inverse of [`ReplayCheckpoint::from_json_value`].
    pub fn to_json_value(&self) -> Json {
        obj(vec![
            ("schema_version", REPLAY_CKPT_SCHEMA_VERSION.into()),
            ("cycle", self.cycle.into()),
            ("cursor", self.cursor.into()),
            ("issued", self.issued.into()),
            ("completed", self.completed.into()),
            ("data_bytes", self.data_bytes.into()),
            (
                "inflight",
                Json::list(&self.inflight, |&(link, tag)| Json::Arr(vec![link.into(), tag.into()])),
            ),
            ("start_cycle", self.start_cycle.into()),
            ("flits_base", self.flits_base.into()),
            ("snapshot", self.snapshot.to_json_value()),
        ])
    }

    /// Renders the checkpoint as a JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Parses a [`ReplayCheckpoint::to_json_value`] document. Strict:
    /// unknown fields, missing fields and schema mismatches are errors,
    /// and so is a `cycle` other than the snapshot's or a `start_cycle`
    /// past it. The snapshot is moved out of the tree and decoded by
    /// [`SimSnapshot::from_json_value`], in the order the fields are.
    pub fn from_json_value(mut v: Json) -> Result<ReplayCheckpoint, JsonError> {
        let snapshot = v.take("snapshot");
        let mut r = ObjReader::new("replay checkpoint", &v)?;
        let version = r.u64("schema_version")?;
        if version != REPLAY_CKPT_SCHEMA_VERSION {
            return Err(JsonError::new(format!(
                "replay checkpoint: unsupported schema_version {version} \
                 (this build reads {REPLAY_CKPT_SCHEMA_VERSION})"
            )));
        }
        let out = ReplayCheckpoint {
            cycle: r.u64("cycle")?,
            cursor: r.usize("cursor")?,
            issued: r.u64("issued")?,
            completed: r.u64("completed")?,
            data_bytes: r.u64("data_bytes")?,
            inflight: r.vec("inflight", |pair| {
                let [link, tag] = pair.tuple("replay checkpoint: inflight entry [link, tag]")?;
                Ok((
                    link.int("replay checkpoint: inflight link")?,
                    tag.int("replay checkpoint: inflight tag")?,
                ))
            })?,
            start_cycle: r.u64("start_cycle")?,
            flits_base: r.u64("flits_base")?,
            snapshot: {
                r.required("snapshot")?;
                SimSnapshot::from_json_value(snapshot)?
            },
        };
        r.finish()?;
        let at = out.snapshot.cycle();
        if out.cycle != at {
            return Err(JsonError::new(format!(
                "replay checkpoint: field `cycle` is {} but its snapshot was taken at cycle {at}",
                out.cycle
            )));
        }
        if out.start_cycle > at {
            return Err(JsonError::new(format!(
                "replay checkpoint: field `start_cycle` {} lies past its snapshot's cycle {at}",
                out.start_cycle
            )));
        }
        Ok(out)
    }

    /// Parses a JSON string produced by [`ReplayCheckpoint::to_json`]
    /// (see [`ReplayCheckpoint::from_json_value`]).
    pub fn from_json(text: &str) -> Result<ReplayCheckpoint, JsonError> {
        Self::from_json_value(Json::parse(text)?)
    }
}

/// Outcome of a trace replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayResult {
    /// Requests issued (all of the trace unless the budget ran out).
    pub issued: u64,
    /// Responses received (non-posted requests).
    pub completed: u64,
    /// Device cycles consumed (including the posted drain).
    pub cycles: u64,
    /// Link FLITs consumed.
    pub link_flits: u64,
    /// Data bytes the trace moved.
    pub data_bytes: u64,
    /// Data bytes per cycle.
    pub bytes_per_cycle: f64,
}

/// Replays a trace against device 0, preserving per-thread ordering
/// is *not* guaranteed (requests from one thread may overlap — the
/// usual memory-trace replay semantics for independent accesses).
pub fn replay(
    sim: &mut HmcSim,
    ops: &[TraceOp],
    config: &ReplayConfig,
) -> Result<ReplayResult, HmcError> {
    replay_resumable(sim, ops, config, None).map(|(result, _)| result)
}

/// [`replay`] with checkpoint/resume support.
///
/// When `config.checkpoint_every > 0` a [`ReplayCheckpoint`] is taken
/// at that cycle cadence and the most recent one is returned. Passing
/// a checkpoint back as `resume` restores the device ([`HmcSim::restore`])
/// and the replay cursor, and continues the run; a resumed run produces
/// the same final device state as an uninterrupted one.
pub fn replay_resumable(
    sim: &mut HmcSim,
    ops: &[TraceOp],
    config: &ReplayConfig,
    resume: Option<ReplayCheckpoint>,
) -> Result<(ReplayResult, Option<ReplayCheckpoint>), HmcError> {
    replay_with_sink(sim, ops, config, resume, |_| Ok(()))
}

/// [`replay_resumable`] with a durability hook: `sink` is called with
/// every checkpoint as it is taken, before the replay continues. A
/// sink that persists the checkpoint (e.g. through
/// [`hmc_sim::CheckpointStore`]) makes the replay crash-safe — after a
/// kill, the last persisted checkpoint resumes the run. A sink error
/// aborts the replay so a failing disk is never mistaken for coverage.
///
/// Checkpoint cadence: the first checkpoint fires once the replay has
/// advanced at least `checkpoint_every` cycles past its start (never
/// at the zero-delta start cycle, even when resuming with
/// `start_cycle != 0`), and subsequent ones at each later multiple of
/// `checkpoint_every` — stable under multi-cycle clock jumps.
///
/// No copy of memory outlives its use: a snapshot shares its pages with
/// the live store, which copies a page when it first writes it, and the
/// previous checkpoint is released before the next snapshot is taken,
/// so a checkpointed replay holds one checkpoint's written pages at a
/// time. The newest is returned; a sink error returns `Err` and no
/// checkpoint.
///
/// An op whose command is a CMC code ([`HmcRqst::Cmc`]), which no
/// trace line can name but a hand-built [`TraceOp`] can, ends the
/// replay with [`HmcError::MalformedPacket`] naming its index and
/// command when the replay reaches it, as a failed send does.
pub fn replay_with_sink(
    sim: &mut HmcSim,
    ops: &[TraceOp],
    config: &ReplayConfig,
    resume: Option<ReplayCheckpoint>,
    mut sink: impl FnMut(&ReplayCheckpoint) -> Result<(), HmcError>,
) -> Result<(ReplayResult, Option<ReplayCheckpoint>), HmcError> {
    let links = sim.device_config(0)?.links;
    if config.window == 0 {
        // Nothing could ever be issued: the loop would only burn the
        // cycle budget.
        return Err(HmcError::MalformedPacket("replay window must be at least 1".into()));
    }

    let mut cursor;
    // The tags awaiting a response on each link, and how many in all.
    let mut inflight = vec![TagSet::new(); links];
    let mut outstanding = 0;
    let mut issued;
    let mut completed;
    let mut data_bytes;
    let start_cycle;
    let flits_before;
    match resume {
        Some(ckpt) => {
            if ckpt.start_cycle > ckpt.snapshot.cycle() {
                return Err(HmcError::MalformedPacket(format!(
                    "replay checkpoint start_cycle {} lies past its snapshot's cycle {}",
                    ckpt.start_cycle,
                    ckpt.snapshot.cycle()
                )));
            }
            sim.restore(&ckpt.snapshot)?;
            cursor = ckpt.cursor;
            for (link, tag) in ckpt.inflight {
                let tags = inflight.get_mut(link).ok_or(HmcError::InvalidLink(link))?;
                outstanding += tags.insert(Tag::new(tag as u32)?) as usize;
            }
            issued = ckpt.issued;
            completed = ckpt.completed;
            data_bytes = ckpt.data_bytes;
            start_cycle = ckpt.start_cycle;
            flits_before = ckpt.flits_base;
        }
        None => {
            cursor = 0;
            issued = 0;
            completed = 0;
            data_bytes = 0;
            start_cycle = sim.cycle();
            flits_before = {
                let s = sim.stats(0)?;
                s.rqst_flits + s.rsp_flits
            };
        }
    }
    let mut last_checkpoint = None;
    // Next relative cycle at which to checkpoint: strictly after the
    // (possibly resumed, possibly nonzero-delta) starting point, so a
    // zero-progress checkpoint is never taken.
    let mut next_checkpoint = match (sim.cycle() - start_cycle).checked_div(config.checkpoint_every)
    {
        Some(periods) => (periods + 1) * config.checkpoint_every,
        None => u64::MAX, // checkpointing disabled
    };

    while cursor < ops.len() || outstanding != 0 {
        if sim.cycle() - start_cycle > config.max_cycles {
            break;
        }
        for (link, tags) in inflight.iter_mut().enumerate() {
            while let Some(rsp) = sim.recv(0, link) {
                if tags.remove(rsp.rsp.head.tag) {
                    outstanding -= 1;
                    completed += 1;
                }
            }
        }
        while outstanding < config.window && cursor < ops.len() {
            let op = &ops[cursor];
            let link = (op.tid as usize) % links;
            let info = standard_info(cursor, op)?;
            let payload_len = payload_words(info.rqst_flits);
            let payload: PayloadBuf = (0..payload_len as u64).map(|w| op.addr ^ w).collect();
            match sim.send_simple(0, link, op.cmd, op.addr, payload) {
                Ok(Some(tag)) => {
                    outstanding += inflight[link].insert(tag) as usize;
                    issued += 1;
                    data_bytes += info.data_bytes as u64;
                    cursor += 1;
                }
                Ok(None) => {
                    issued += 1;
                    data_bytes += info.data_bytes as u64;
                    cursor += 1;
                }
                Err(HmcError::Stall) | Err(HmcError::TagsExhausted) => break,
                Err(e) => return Err(e),
            }
        }
        sim.clock();
        let delta = sim.cycle() - start_cycle;
        if delta >= next_checkpoint {
            next_checkpoint =
                (delta / config.checkpoint_every + 1) * config.checkpoint_every;
            // Ascending `(link, tag)` pairs.
            let pending = inflight.iter().enumerate();
            let pending = pending.flat_map(|(link, tags)| tags.iter().map(move |t| (link, t.value())));
            drop(last_checkpoint.take());
            let ckpt = ReplayCheckpoint {
                cycle: sim.cycle(),
                cursor,
                issued,
                completed,
                data_bytes,
                inflight: pending.collect(),
                start_cycle,
                flits_base: flits_before,
                snapshot: sim.snapshot(),
            };
            sink(&ckpt)?;
            last_checkpoint = Some(ckpt);
        }
    }
    sim.drain(1_000_000);

    let cycles = sim.cycle() - start_cycle;
    let flits_after = {
        let s = sim.stats(0)?;
        s.rqst_flits + s.rsp_flits
    };
    Ok((
        ReplayResult {
            issued,
            completed,
            cycles,
            link_flits: flits_after - flits_before,
            data_bytes,
            bytes_per_cycle: data_bytes as f64 / cycles.max(1) as f64,
        },
        last_checkpoint,
    ))
}

/// Generates a synthetic trace: `threads` interleaved streams, each
/// alternating strided reads and writes with occasional atomics —
/// a stand-in for a captured multi-core trace.
pub fn synthetic_trace(threads: u64, ops_per_thread: u64, stride: u64) -> Vec<TraceOp> {
    let mut ops = Vec::new();
    for i in 0..ops_per_thread {
        for tid in 0..threads {
            let addr = 0x10_0000 + tid * 0x10_000 + i * stride;
            let cmd = match i % 4 {
                0 => HmcRqst::Rd64,
                1 => HmcRqst::Wr64,
                2 => HmcRqst::Rd16,
                _ => HmcRqst::Inc8,
            };
            ops.push(TraceOp { cmd, addr: addr & !15, tid });
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::DeviceConfig;

    #[test]
    fn parse_all_record_kinds() {
        let trace = "\
# a comment

R 0x1000 64 3
W 2000 16
P 0x3000 128 1
A INC8 0x40 2
A XOR16 0x80
";
        let ops = parse_trace(trace).unwrap();
        assert_eq!(ops.len(), 5);
        assert_eq!(ops[0], TraceOp { cmd: HmcRqst::Rd64, addr: 0x1000, tid: 3 });
        assert_eq!(ops[1], TraceOp { cmd: HmcRqst::Wr16, addr: 0x2000, tid: 0 });
        assert_eq!(ops[2].cmd, HmcRqst::PWr128);
        assert_eq!(ops[3].cmd, HmcRqst::Inc8);
        assert_eq!(ops[4].cmd, HmcRqst::Xor16);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_line("R").is_err());
        assert!(parse_line("R zz 64").is_err());
        assert!(parse_line("R 0x10 24").is_err(), "no Gen2 command for 24 bytes");
        assert!(parse_line("A RD64 0x10").is_err(), "RD64 is not an atomic");
        assert!(parse_line("A NOPE 0x10").is_err());
        assert!(parse_line("X 0x10 64").is_err());
        assert!(parse_line("R 0x10 64 1 extra").is_err());
    }

    #[test]
    fn parse_rejects_signed_numbers() {
        // `u64::from_str_radix` and `str::parse` would take the `+`.
        for (line, why) in [
            ("R 0x+1f00 64 3", "bad address"),
            ("R +1f00 64 3", "bad address"),
            ("A INC8 +40 1", "bad address"),
            ("W 0x1f00 +64 3", "bad size"),
            ("R 0x1f00 64 +3", "bad tid"),
            ("A INC8 0x40 +1", "bad tid"),
            ("R -1f00 64", "bad address"),
        ] {
            let e = parse_line(line).unwrap_err().to_string();
            assert!(e.contains(why) && e.contains("invalid digit"), "`{line}`: {e}");
        }
    }

    #[test]
    fn every_atomic_round_trips_and_other_mnemonics_fail_as_before() {
        let atomics: Vec<TraceOp> = HmcRqst::STANDARD
            .iter()
            .filter(|c| {
                matches!(c.kind(), hmc_types::CmdKind::Atomic | hmc_types::CmdKind::PostedAtomic)
            })
            .enumerate()
            .map(|(i, &cmd)| TraceOp { cmd, addr: 0x40 * i as u64, tid: i as u64 % 5 })
            .collect();
        assert!(atomics.len() > 20, "Table I's atomics ({})", atomics.len());
        assert_eq!(parse_trace(&render_trace(&atomics).unwrap()).unwrap(), atomics);
        for (line, why) in [
            ("A NOPE 0x10", "unknown mnemonic NOPE"),
            ("A inc8 0x10", "unknown mnemonic inc8"),
            ("A CMC125 0x10", "unknown mnemonic CMC125"),
            ("A RD64 0x10", "RD64 is not an atomic"),
            ("A WR16 0x10", "WR16 is not an atomic"),
        ] {
            let e = parse_line(line).unwrap_err().to_string();
            assert!(e.ends_with(&format!("trace line '{line}': {why}")), "`{line}`: {e}");
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let ops = synthetic_trace(3, 8, 64);
        let text = render_trace(&ops).unwrap();
        let back = parse_trace(&text).unwrap();
        assert_eq!(back, ops);
    }

    #[test]
    fn replay_moves_the_data() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let ops = parse_trace("W 0x1000 16 0\nR 0x1000 16 0\nA INC8 0x2000 1\n").unwrap();
        let result = replay(&mut sim, &ops, &ReplayConfig::default()).unwrap();
        assert_eq!(result.issued, 3);
        assert_eq!(result.completed, 3);
        // The synthetic write payload at 0x1000 is addr ^ word.
        assert_eq!(sim.mem_read_u64(0, 0x1000).unwrap(), 0x1000);
        assert_eq!(sim.mem_read_u64(0, 0x2000).unwrap(), 1);
    }

    #[test]
    fn replay_synthetic_trace_to_completion() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let ops = synthetic_trace(8, 32, 64);
        let result = replay(&mut sim, &ops, &ReplayConfig::default()).unwrap();
        assert_eq!(result.issued, 8 * 32);
        assert_eq!(result.completed, 8 * 32, "no posted ops in this pattern");
        assert!(result.bytes_per_cycle > 0.0);
        assert!(sim.is_quiescent());
    }

    #[test]
    fn checkpoint_resume_reproduces_the_run() {
        let config = ReplayConfig { checkpoint_every: 20, ..Default::default() };
        let ops = synthetic_trace(4, 32, 64);

        // Uninterrupted run, collecting the last mid-run checkpoint.
        let mut full = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let (full_result, ckpt) = replay_resumable(&mut full, &ops, &config, None).unwrap();
        let ckpt = ckpt.expect("checkpoints were taken");
        assert!(ckpt.cursor > 0 && ckpt.cursor <= ops.len());
        assert!(ckpt.cycle > 0 && ckpt.cycle.is_multiple_of(20));

        // "Crash": a brand-new device resumes from the checkpoint and
        // must converge to the same final state and totals.
        let mut resumed = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let (resumed_result, _) =
            replay_resumable(&mut resumed, &ops, &config, Some(ckpt)).unwrap();
        assert_eq!(resumed_result.issued, full_result.issued);
        assert_eq!(resumed_result.completed, full_result.completed);
        assert_eq!(resumed_result.data_bytes, full_result.data_bytes);
        assert_eq!(resumed_result.cycles, full_result.cycles);
        assert_eq!(resumed_result.link_flits, full_result.link_flits);
        assert_eq!(
            resumed.state_fingerprint(),
            full.state_fingerprint(),
            "resumed replay is bit-identical to the uninterrupted one"
        );
    }

    #[test]
    fn checkpoint_json_round_trips_and_resumes_identically() {
        let config = ReplayConfig { checkpoint_every: 25, ..Default::default() };
        let ops = synthetic_trace(4, 24, 64);

        let mut full = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let (_, ckpt) = replay_resumable(&mut full, &ops, &config, None).unwrap();
        let ckpt = ckpt.expect("checkpoints were taken");

        let text = ckpt.to_json();
        let parsed = ReplayCheckpoint::from_json(&text).unwrap();
        assert_eq!(parsed.cycle, ckpt.cycle);
        assert_eq!(parsed.cursor, ckpt.cursor);
        assert_eq!(parsed.inflight, ckpt.inflight);
        assert_eq!(
            parsed.snapshot.fingerprint(),
            ckpt.snapshot.fingerprint(),
            "snapshot survives the JSON round trip bit-identically"
        );

        let mut resumed = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let (_, _) = replay_resumable(&mut resumed, &ops, &config, Some(parsed)).unwrap();
        assert_eq!(resumed.state_fingerprint(), full.state_fingerprint());
    }

    #[test]
    fn checkpoint_cadence_skips_start_and_is_stable_off_zero() {
        // Pre-age the device so the replay starts at a nonzero cycle
        // that is NOT a multiple of the cadence.
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        for _ in 0..7 {
            sim.clock();
        }
        let start = sim.cycle();
        let config = ReplayConfig { checkpoint_every: 20, ..Default::default() };
        let ops = synthetic_trace(4, 24, 64);
        let mut taken = Vec::new();
        let (_, last) = replay_with_sink(&mut sim, &ops, &config, None, |c| {
            taken.push(c.cycle);
            Ok(())
        })
        .unwrap();
        assert!(!taken.is_empty());
        assert_eq!(taken.last().copied(), last.map(|c| c.cycle));
        for (i, cycle) in taken.iter().enumerate() {
            let delta = cycle - start;
            assert!(delta > 0, "no checkpoint at the zero-delta start cycle");
            assert_eq!(delta, 20 * (i as u64 + 1), "cadence is relative to start");
        }
    }

    #[test]
    fn checkpoint_sink_error_aborts_the_replay() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let config = ReplayConfig { checkpoint_every: 10, ..Default::default() };
        let ops = synthetic_trace(4, 24, 64);
        let err = replay_with_sink(&mut sim, &ops, &config, None, |_| {
            Err(HmcError::MalformedPacket("disk full".into()))
        });
        assert!(err.is_err(), "a failing sink must abort, not be ignored");
    }

    #[test]
    fn zero_window_is_refused_before_the_loop() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let config = ReplayConfig { window: 0, ..Default::default() };
        let e = replay(&mut sim, &synthetic_trace(2, 4, 64), &config).unwrap_err();
        assert!(e.to_string().contains("window"), "{e}");
        assert_eq!(sim.cycle(), 0, "no cycle of the budget was spent");
    }

    #[test]
    fn resume_refuses_inflight_entries_no_link_could_carry() {
        let config = ReplayConfig { checkpoint_every: 20, ..Default::default() };
        let ops = synthetic_trace(4, 32, 64);
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let (_, ckpt) = replay_resumable(&mut sim, &ops, &config, None).unwrap();
        let ckpt = ckpt.expect("checkpoints were taken");
        for (entry, want) in
            [((4, 0), HmcError::InvalidLink(4)), ((0, 2048), HmcError::InvalidTag(2048))]
        {
            let mut bad = ckpt.clone();
            bad.inflight.push(entry);
            assert_eq!(replay_resumable(&mut sim, &ops, &config, Some(bad)).unwrap_err(), want);
        }
    }

    #[test]
    fn a_cmc_op_ends_the_replay_with_an_error_naming_it() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let mut ops = synthetic_trace(2, 4, 64);
        ops.insert(5, TraceOp { cmd: HmcRqst::Cmc(125), addr: 0x40, tid: 1 });
        let e = replay(&mut sim, &ops, &ReplayConfig::default()).unwrap_err().to_string();
        assert!(e.contains("trace op 5: CMC125"), "{e}");
    }

    #[test]
    fn a_cmc_op_is_refused_by_render_trace_as_the_replay_refuses_it() {
        let mut ops = synthetic_trace(2, 4, 64);
        ops.insert(5, TraceOp { cmd: HmcRqst::Cmc(125), addr: 0x40, tid: 1 });
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let refused = replay(&mut sim, &ops, &ReplayConfig::default()).unwrap_err();
        assert!(matches!(refused, HmcError::MalformedPacket(_)), "{refused}");
        assert_eq!(render_trace(&ops), Err(refused));
        assert!(render_trace(&ops[..5]).is_ok(), "the ops before it render");
    }

    #[test]
    fn window_one_serializes() {
        let run = |window: usize| {
            let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
            let ops = synthetic_trace(4, 16, 64);
            replay(&mut sim, &ops, &ReplayConfig { window, ..Default::default() })
                .unwrap()
                .cycles
        };
        assert!(run(1) > run(64), "a wider window exploits MLP");
    }
}
