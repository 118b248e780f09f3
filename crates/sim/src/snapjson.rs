//! Lossless, versioned JSON serialization for [`SimSnapshot`] — the
//! only way simulator state becomes JSON. Checkpoints, replay
//! checkpoints and forensic dumps all embed
//! [`SimSnapshot::to_json_value`]; every field that
//! [`SimSnapshot::fingerprint`] observes is serialized exactly, so
//!
//! ```text
//! snapshot → to_json_full → from_json → restore → state_fingerprint
//! ```
//!
//! round-trips **bit-identically**. That property is what lets the
//! [`crate::ckpt::CheckpointStore`] verify a restored checkpoint
//! against the fingerprint recorded in its header.
//!
//! The schema is versioned (`schema_version`, currently
//! [`SNAPSHOT_SCHEMA_VERSION`]): a parser never guesses at a future
//! layout, it rejects it loudly, and it still reads versions 1 and 2,
//! which name no machine (no `config`, no CMC fields). Parsing
//! is strict throughout — every object goes through [`ObjReader`] and
//! unknown or missing fields are errors, never silently dropped.
//!
//! Notable encoding choices:
//!
//! * integers only (the `jsonv` contract): `f64` power coefficients
//!   are stored as [`f64::to_bits`] so they restore bit-exactly;
//! * memory pages are hex strings keyed by page id, covering **every**
//!   resident page (even all-zero ones — residency itself is part of
//!   the fingerprint);
//! * a flight-recorder lane is one hex string of fixed-width packed
//!   records (the same hex kernel as pages);
//! * packet command codes carry an explicit `cmc` flag, because the
//!   wire code alone cannot distinguish `HmcRqst::Cmc(code)` from the
//!   standard command sharing that code (and response code 0 means
//!   [`hmc_types::HmcResponse::RspNone`], which `from_code` rejects);
//! * ordered collections (queue contents, tag-pool free lists, event
//!   lists) keep their order; unordered sets are sorted on write and
//!   rebuilt on read.

use crate::config::SimConfig;
use crate::device::{RqstEnvelope, RspEnvelope, TrackedRequest, TrackedResponse, Vault};
use crate::dram::Bank;
use crate::fault::FaultRng;
use crate::hist::{Hist, BUCKETS};
use crate::jsonv::{obj, Json, JsonError, ObjReader};
use crate::link::{LinkConfig, LinkControl, LinkStats};
use crate::power::{PowerConfig, PowerModel};
use crate::queue::BoundedQueue;
use crate::regs::RegisterFile;
use crate::sanitizer::{SanitizerShadow, Violation, ViolationKind};
use crate::sim::{RetryEntry, Transit};
use crate::snapshot::{DeviceSnapshot, SimSnapshot};
use crate::stats::{CmdClass, DeviceStats};
use crate::telemetry::StageStamps;
use crate::timing::{TimingSelect, TimingSnapshot, TimingStats};
use crate::trace::{
    CmdRef, FlightLane, FlightLaneSnapshot, FlightSnapshot, TraceKind, TraceRecord,
};
use hmc_mem::store::PAGE_BYTES;
use hmc_mem::SparseMemory;
use hmc_types::{
    Cub, HmcResponse, HmcRqst, ReqHead, ReqTail, Request, Response, RspHead, RspTail, Slid, Tag,
    TagPool, TagSet,
};
use std::collections::VecDeque;

/// Version number written into the durable snapshot schema. Bump on
/// any incompatible layout change. Version 3 names the machine: a
/// top-level `config` ([`SimConfig::to_json`]) and each device's
/// `cmc_libraries` and `cmc_codes`. Version 2 packs each flight lane
/// into one hex string. Documents of version 2 and of version 1 (a
/// lane as arrays of twelve integers) still load, naming no machine.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 3;

/// Wraps a domain error (`bad tag`, `bad cub`, …) as a [`JsonError`]
/// prefixed with `what`.
fn bad<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> JsonError {
    move |e| JsonError::new(format!("{what}: {e}"))
}

fn tag_from(value: u32, what: &'static str) -> Result<Tag, JsonError> {
    Tag::new(value).map_err(bad(what))
}

/// `[[T]]` (per device, per link) as nested arrays.
fn nested_json<T>(outer: &[Vec<T>], item: impl Fn(&T) -> Json) -> Json {
    Json::list(outer, |inner| Json::list(inner, &item))
}

fn nested_from_json<T>(
    v: &Json,
    what: &str,
    item: impl Fn(&Json) -> Result<T, JsonError>,
) -> Result<Vec<Vec<T>>, JsonError> {
    v.vec(what, |inner| inner.vec(what, &item))
}

// ---------------------------------------------------------------------------
// Hex page encoding
// ---------------------------------------------------------------------------

/// The two lower-case hex digits of every byte value.
const HEX_PAIRS: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut pairs = [[0u8; 2]; 256];
    let mut b = 0;
    while b < 256 {
        pairs[b] = [DIGITS[b >> 4], DIGITS[b & 0xF]];
        b += 1;
    }
    pairs
};

/// What [`HEX_VALUES`] holds for a byte that is not a hex digit: a
/// value no digit has in its high nibble.
const NOT_HEX: u8 = 0xFF;

/// The value of every hex digit, either case.
const HEX_VALUES: [u8; 256] = {
    let mut values = [NOT_HEX; 256];
    let mut v = 0;
    while v < 16 {
        values[HEX_PAIRS[v as usize][1] as usize] = v;
        values[HEX_PAIRS[v as usize][1].to_ascii_uppercase() as usize] = v;
        v += 1;
    }
    values
};

fn hex_encode(bytes: &[u8]) -> String {
    let mut digits = vec![0u8; bytes.len() * 2];
    for (pair, &b) in digits.chunks_exact_mut(2).zip(bytes) {
        pair.copy_from_slice(&HEX_PAIRS[b as usize]);
    }
    String::from_utf8(digits).expect("hex digits are ASCII")
}

/// Decodes `2 * out.len()` hex digits into `out` (which holds garbage
/// after an error).
fn hex_decode(s: &str, out: &mut [u8], ctx: &str) -> Result<(), JsonError> {
    if s.len() != 2 * out.len() {
        return Err(JsonError::new(format!(
            "{ctx}: {} hex digits where {} bytes are expected",
            s.len(),
            out.len()
        )));
    }
    // A page is kilobytes of digits and a bad one is a corrupt file:
    // decode it all, test once.
    let mut seen = 0;
    for (byte, pair) in out.iter_mut().zip(s.as_bytes().chunks_exact(2)) {
        let (hi, lo) = (HEX_VALUES[pair[0] as usize], HEX_VALUES[pair[1] as usize]);
        seen |= hi | lo;
        *byte = (hi << 4) | lo;
    }
    if seen & 0xF0 != 0 {
        return Err(JsonError::new(format!("{ctx}: invalid hex digit")));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Packets
// ---------------------------------------------------------------------------

fn request_json(req: &Request) -> Json {
    let (h, t) = (&req.head, &req.tail);
    obj(vec![
        ("cmd", h.cmd.code().into()),
        ("cmc", matches!(h.cmd, HmcRqst::Cmc(_)).into()),
        ("lng", h.lng.into()),
        ("tag", h.tag.value().into()),
        ("addr", h.addr.into()),
        ("cub", h.cub.value().into()),
        ("payload", Json::list(req.payload.iter().copied(), Json::from)),
        ("rrp", t.rrp.into()),
        ("frp", t.frp.into()),
        ("seq", t.seq.into()),
        ("pb", t.pb.into()),
        ("slid", t.slid.value().into()),
        ("rtc", t.rtc.into()),
        ("crc", t.crc.into()),
    ])
}

fn request_from_json(v: &Json) -> Result<Request, JsonError> {
    let mut r = ObjReader::new("request", v)?;
    let (code, cmc) = (r.u8("cmd")?, r.bool("cmc")?);
    let cmd = if cmc {
        HmcRqst::Cmc(code)
    } else {
        HmcRqst::from_code(code).map_err(bad("request: bad command code"))?
    };
    let head = ReqHead {
        cmd,
        lng: r.u8("lng")?,
        tag: tag_from(r.u32("tag")?, "request: bad tag")?,
        addr: r.u64("addr")?,
        cub: Cub::new(r.u8("cub")?).map_err(bad("request: bad cub"))?,
    };
    let payload = r.vec("payload", |w| w.int::<u64>("request: payload word"))?;
    let tail = ReqTail {
        rrp: r.u8("rrp")?,
        frp: r.u8("frp")?,
        seq: r.u8("seq")?,
        pb: r.bool("pb")?,
        slid: Slid::new(r.u8("slid")?).map_err(bad("request: bad slid"))?,
        rtc: r.u8("rtc")?,
        crc: r.u32("crc")?,
    };
    r.finish()?;
    Ok(Request { head, payload: payload.into(), tail })
}

fn response_json(rsp: &Response) -> Json {
    let (h, t) = (&rsp.head, &rsp.tail);
    obj(vec![
        ("cmd", h.cmd.code().into()),
        ("cmc", matches!(h.cmd, HmcResponse::RspCmc(_)).into()),
        ("lng", h.lng.into()),
        ("tag", h.tag.value().into()),
        ("af", h.af.into()),
        ("slid", h.slid.value().into()),
        ("cub", h.cub.value().into()),
        ("payload", Json::list(rsp.payload.iter().copied(), Json::from)),
        ("rrp", t.rrp.into()),
        ("frp", t.frp.into()),
        ("seq", t.seq.into()),
        ("dinv", t.dinv.into()),
        ("errstat", t.errstat.into()),
        ("rtc", t.rtc.into()),
        ("crc", t.crc.into()),
    ])
}

fn response_from_json(v: &Json) -> Result<Response, JsonError> {
    let mut r = ObjReader::new("response", v)?;
    let cmd = match (r.u8("cmd")?, r.bool("cmc")?) {
        (code, true) => HmcResponse::RspCmc(code),
        (0, false) => HmcResponse::RspNone,
        (code, false) => {
            HmcResponse::from_code(code).map_err(bad("response: bad response code"))?
        }
    };
    let head = RspHead {
        cmd,
        lng: r.u8("lng")?,
        tag: tag_from(r.u32("tag")?, "response: bad tag")?,
        af: r.bool("af")?,
        slid: Slid::new(r.u8("slid")?).map_err(bad("response: bad slid"))?,
        cub: Cub::new(r.u8("cub")?).map_err(bad("response: bad cub"))?,
    };
    let payload = r.vec("payload", |w| w.int::<u64>("response: payload word"))?;
    let tail = RspTail {
        rrp: r.u8("rrp")?,
        frp: r.u8("frp")?,
        seq: r.u8("seq")?,
        dinv: r.bool("dinv")?,
        errstat: r.u8("errstat")?,
        rtc: r.u8("rtc")?,
        crc: r.u32("crc")?,
    };
    r.finish()?;
    Ok(Response { head, payload: payload.into(), tail })
}

fn tracked_request_json(t: &TrackedRequest) -> Json {
    obj(vec![
        ("req", request_json(&t.req)),
        ("entry_device", t.entry_device.into()),
        ("entry_link", t.entry_link.into()),
        ("issue_cycle", t.issue_cycle.into()),
        ("hops", t.hops.into()),
        ("ready_cycle", t.ready_cycle.into()),
        ("vault_enq_cycle", t.vault_enq_cycle.into()),
    ])
}

fn tracked_request_from_json(v: &Json) -> Result<RqstEnvelope, JsonError> {
    let mut r = ObjReader::new("tracked_request", v)?;
    let out = TrackedRequest {
        req: request_from_json(r.required("req")?)?,
        entry_device: r.usize("entry_device")?,
        entry_link: r.usize("entry_link")?,
        issue_cycle: r.u64("issue_cycle")?,
        hops: r.u32("hops")?,
        ready_cycle: r.u64("ready_cycle")?,
        vault_enq_cycle: r.u64("vault_enq_cycle")?,
    };
    r.finish()?;
    Ok(Box::new(out))
}

fn tracked_response_json(t: &TrackedResponse) -> Json {
    obj(vec![
        ("rsp", response_json(&t.rsp)),
        ("issue_cycle", t.issue_cycle.into()),
        ("complete_cycle", t.complete_cycle.into()),
        ("latency", t.latency.into()),
        ("entry_device", t.entry_device.into()),
        ("entry_link", t.entry_link.into()),
        ("class", t.class.name().into()),
        ("vault_enq", t.stages.vault_enq.into()),
        ("exec", t.stages.exec.into()),
        ("rsp_route", t.stages.rsp_route.into()),
        ("egress", t.stages.egress.into()),
    ])
}

fn tracked_response_from_json(v: &Json) -> Result<RspEnvelope, JsonError> {
    let mut r = ObjReader::new("tracked_response", v)?;
    let out = TrackedResponse {
        rsp: response_from_json(r.required("rsp")?)?,
        issue_cycle: r.u64("issue_cycle")?,
        complete_cycle: r.u64("complete_cycle")?,
        latency: r.u64("latency")?,
        entry_device: r.usize("entry_device")?,
        entry_link: r.usize("entry_link")?,
        class: r.named("class", &CmdClass::NAMES)?,
        stages: StageStamps {
            vault_enq: r.u64("vault_enq")?,
            exec: r.u64("exec")?,
            rsp_route: r.u64("rsp_route")?,
            egress: r.u64("egress")?,
        },
    };
    r.finish()?;
    Ok(Box::new(out))
}

// ---------------------------------------------------------------------------
// Queues
// ---------------------------------------------------------------------------

/// Serializes a queue of envelopes; `item` sees the packets.
fn queue_json<T>(q: &BoundedQueue<Box<T>>, item: impl Fn(&T) -> Json) -> Json {
    obj(vec![
        ("depth", q.depth().into()),
        ("high_water", q.high_water().into()),
        ("stalls", q.stalls().into()),
        ("pushes", q.pushes().into()),
        ("items", Json::list(q.iter(), |envelope| item(envelope))),
    ])
}

fn queue_from_json<T>(
    v: &Json,
    ctx: &str,
    item: impl Fn(&Json) -> Result<T, JsonError>,
) -> Result<BoundedQueue<T>, JsonError> {
    let mut r = ObjReader::new("queue", v)?;
    let depth = r.usize("depth")?;
    let high_water = r.usize("high_water")?;
    let stalls = r.u64("stalls")?;
    let pushes = r.u64("pushes")?;
    let items: VecDeque<T> = r.vec("items", item)?.into();
    r.finish()?;
    if depth == 0 {
        return Err(JsonError::new(format!("{ctx}: queue depth must be nonzero")));
    }
    if items.len() > depth {
        return Err(JsonError::new(format!(
            "{ctx}: queue holds {} items but depth is {depth}",
            items.len()
        )));
    }
    Ok(BoundedQueue::from_parts(items, depth, high_water, stalls, pushes))
}

// ---------------------------------------------------------------------------
// Histograms and statistics
// ---------------------------------------------------------------------------

fn hist_json(h: &Hist) -> Json {
    let (count, sum, min, max, buckets) = h.raw_parts();
    let occupied = buckets.iter().enumerate().filter(|(_, &n)| n > 0);
    obj(vec![
        ("count", count.into()),
        ("sum", sum.into()),
        ("min", min.into()),
        ("max", max.into()),
        ("buckets", Json::list(occupied, |(i, &n)| Json::Arr(vec![i.into(), n.into()]))),
    ])
}

fn hist_from_json(v: &Json) -> Result<Hist, JsonError> {
    let mut r = ObjReader::new("hist", v)?;
    let (count, sum, min, max) = (r.u64("count")?, r.u64("sum")?, r.u64("min")?, r.u64("max")?);
    let mut buckets = [0u64; BUCKETS];
    for entry in r.arr("buckets")? {
        let [idx, n] = entry.tuple("hist: bucket entry [idx, n]")?;
        let idx = idx
            .int::<usize>("hist: bucket index")
            .ok()
            .filter(|&i| i < BUCKETS)
            .ok_or_else(|| JsonError::new("hist: bucket index out of range"))?;
        buckets[idx] = n.int("hist: bucket count")?;
    }
    r.finish()?;
    Ok(Hist::from_raw_parts(count, sum, min, max, buckets))
}

fn class_key(class: CmdClass) -> String {
    format!("class_{}", class.name())
}

fn stats_json(s: &DeviceStats) -> Json {
    let mut fields: Vec<(String, Json)> =
        s.counters().map(|(name, v)| (name.to_string(), v.into())).collect();
    fields.push(("latency".into(), hist_json(&s.latency)));
    fields.extend(s.class_latency.iter().map(|(class, h)| (class_key(class), hist_json(h))));
    Json::Obj(fields)
}

fn stats_from_json(v: &Json) -> Result<DeviceStats, JsonError> {
    let mut r = ObjReader::new("stats", v)?;
    let mut out = DeviceStats::default();
    for (name, slot) in out.counters_mut() {
        *slot = r.u64(name)?;
    }
    out.latency = hist_from_json(r.required("latency")?)?;
    for class in CmdClass::ALL {
        *out.class_latency.get_mut(class) = hist_from_json(r.required(&class_key(class))?)?;
    }
    r.finish()?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Power, memory, registers, banks
// ---------------------------------------------------------------------------

fn power_json(p: &PowerModel) -> Json {
    let c = p.config();
    let (link_flits, dram_accesses, logic_ops, cycles) = p.counters();
    obj(vec![
        ("link_flit_pj_bits", c.link_flit_pj.to_bits().into()),
        ("dram_access_pj_bits", c.dram_access_pj.to_bits().into()),
        ("logic_op_pj_bits", c.logic_op_pj.to_bits().into()),
        ("idle_cycle_pj_bits", c.idle_cycle_pj.to_bits().into()),
        ("clock_hz_bits", c.clock_hz.to_bits().into()),
        ("link_flits", link_flits.into()),
        ("dram_accesses", dram_accesses.into()),
        ("logic_ops", logic_ops.into()),
        ("cycles", cycles.into()),
    ])
}

fn power_from_json(v: &Json) -> Result<PowerModel, JsonError> {
    let mut r = ObjReader::new("power", v)?;
    let config = PowerConfig {
        link_flit_pj: f64::from_bits(r.u64("link_flit_pj_bits")?),
        dram_access_pj: f64::from_bits(r.u64("dram_access_pj_bits")?),
        logic_op_pj: f64::from_bits(r.u64("logic_op_pj_bits")?),
        idle_cycle_pj: f64::from_bits(r.u64("idle_cycle_pj_bits")?),
        clock_hz: f64::from_bits(r.u64("clock_hz_bits")?),
    };
    let out = PowerModel::from_parts(
        config,
        r.u64("link_flits")?,
        r.u64("dram_accesses")?,
        r.u64("logic_ops")?,
        r.u64("cycles")?,
    );
    r.finish()?;
    Ok(out)
}

fn mem_json(mem: &SparseMemory) -> Json {
    let mut pages = Vec::with_capacity(mem.resident_pages());
    mem.for_each_page(|id, bytes| {
        pages.push(Json::Arr(vec![id.into(), Json::Str(hex_encode(bytes))]));
    });
    obj(vec![("capacity", mem.capacity().into()), ("pages", Json::Arr(pages))])
}

fn mem_from_json(v: &Json) -> Result<SparseMemory, JsonError> {
    let mut r = ObjReader::new("mem", v)?;
    let mem = SparseMemory::new(r.u64("capacity")?);
    let mut bytes = [0u8; PAGE_BYTES];
    for page in r.arr("pages")? {
        let [id, hex] = page.tuple("mem: page entry [id, hex]")?;
        let id: u64 = id.int("mem: page id")?;
        let hex =
            hex.as_str().ok_or_else(|| JsonError::new("mem: page bytes must be a hex string"))?;
        hex_decode(hex, &mut bytes, "mem page")?;
        mem.insert_page(id, &bytes)
            .map_err(|e| JsonError::new(format!("mem: page {id} rejected: {e}")))?;
    }
    r.finish()?;
    Ok(mem)
}

fn regs_json(regs: &RegisterFile) -> Json {
    Json::list(regs.entries(), |(id, value)| Json::Arr(vec![id.into(), value.into()]))
}

fn regs_from_json(v: &Json) -> Result<RegisterFile, JsonError> {
    let entries = v.vec("regs", |entry| {
        let [id, value] = entry.tuple("regs: entry [id, value]")?;
        Ok((id.int::<u32>("regs: id")?, value.int::<u64>("regs: value")?))
    })?;
    Ok(RegisterFile::from_entries(entries))
}

fn bank_json(bank: &Bank) -> Json {
    let (busy_until, open_row) = bank.dynamic_state();
    obj(vec![
        ("busy_until", busy_until.into()),
        ("open_row", open_row.into()),
        ("row_hits", bank.row_hits.into()),
        ("row_misses", bank.row_misses.into()),
    ])
}

fn bank_from_json(v: &Json) -> Result<Bank, JsonError> {
    let mut r = ObjReader::new("bank", v)?;
    let out = Bank::from_parts(
        r.u64("busy_until")?,
        r.opt_u64("open_row")?,
        r.u64("row_hits")?,
        r.u64("row_misses")?,
    );
    r.finish()?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Links and tag pools
// ---------------------------------------------------------------------------

fn link_json(l: &LinkControl) -> Json {
    let c = l.config();
    let mut fields = vec![
        ("tokens".to_string(), c.tokens.into()),
        ("error_period".to_string(), c.error_period.into()),
        ("retry_latency".to_string(), c.retry_latency.into()),
        ("tokens_available".to_string(), l.tokens_available().into()),
        ("packet_counter".to_string(), l.packet_counter().into()),
        ("seq".to_string(), l.seq().into()),
    ];
    fields.extend(l.stats.counters().map(|(name, v)| (name.to_string(), v.into())));
    Json::Obj(fields)
}

fn link_from_json(v: &Json) -> Result<LinkControl, JsonError> {
    let mut r = ObjReader::new("link", v)?;
    let config = LinkConfig {
        tokens: r.opt_u32("tokens")?,
        error_period: r.opt_u64("error_period")?,
        retry_latency: r.u64("retry_latency")?,
    };
    let (tokens_available, packet_counter, seq) =
        (r.u32("tokens_available")?, r.u64("packet_counter")?, r.u8("seq")?);
    let mut stats = LinkStats::default();
    for (name, slot) in stats.counters_mut() {
        *slot = r.u64(name)?;
    }
    r.finish()?;
    Ok(LinkControl::from_parts(config, tokens_available, packet_counter, seq, stats))
}

fn tag_pool_json(p: &TagPool) -> Json {
    obj(vec![
        ("capacity", p.capacity().into()),
        ("free", Json::list(p.free_tags(), |t| t.value().into())),
    ])
}

fn tag_pool_from_json(v: &Json) -> Result<TagPool, JsonError> {
    let mut r = ObjReader::new("tag_pool", v)?;
    let capacity = r.u32("capacity")?;
    let free = r.vec("free", |t| tag_from(t.int("tag_pool: free entry")?, "tag_pool: bad tag"))?;
    r.finish()?;
    TagPool::from_free_list(capacity, free).map_err(bad("tag_pool"))
}

fn tag_set_json(set: &TagSet) -> Json {
    Json::list(set.iter(), |t| t.value().into())
}

fn tag_set_from_json(v: &Json) -> Result<TagSet, JsonError> {
    let mut out = TagSet::new();
    for t in v.arr("pool_tags")? {
        out.insert(tag_from(t.int("pool_tags: entry")?, "pool_tags: entries must be 11-bit tags")?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Transit, retry, shadow
// ---------------------------------------------------------------------------

fn transit_json(t: &Transit) -> Json {
    let (kind, from_dev, to_dev, link, ready, item) = match t {
        Transit::Rqst { from_dev, to_dev, link, item, ready } => {
            ("rqst", from_dev, to_dev, link, ready, tracked_request_json(item))
        }
        Transit::Rsp { from_dev, to_dev, link, item, ready } => {
            ("rsp", from_dev, to_dev, link, ready, tracked_response_json(item))
        }
    };
    obj(vec![
        ("kind", kind.into()),
        ("from_dev", (*from_dev).into()),
        ("to_dev", (*to_dev).into()),
        ("link", (*link).into()),
        ("ready", (*ready).into()),
        ("item", item),
    ])
}

fn transit_from_json(v: &Json) -> Result<Transit, JsonError> {
    let mut r = ObjReader::new("transit", v)?;
    let kind = r.str("kind")?;
    let to_dev = r.usize("to_dev")?;
    // Pre-fabric snapshots carry no sender; restore() re-derives the
    // edge deterministically when the field is absent.
    let from_dev = match r.optional("from_dev") {
        Some(v) => v.int("transit: field `from_dev`")?,
        None => usize::MAX,
    };
    let (link, ready, item) = (r.usize("link")?, r.u64("ready")?, r.required("item")?);
    r.finish()?;
    Ok(match kind {
        "rqst" => {
            Transit::Rqst { from_dev, to_dev, link, item: tracked_request_from_json(item)?, ready }
        }
        "rsp" => {
            Transit::Rsp { from_dev, to_dev, link, item: tracked_response_from_json(item)?, ready }
        }
        other => return Err(JsonError::new(format!("transit: unknown kind `{other}`"))),
    })
}

fn retry_json(e: &RetryEntry) -> Json {
    obj(vec![
        ("dev", e.dev.into()),
        ("link", e.link.into()),
        ("ready", e.ready.into()),
        ("item", tracked_request_json(&e.item)),
    ])
}

fn retry_from_json(v: &Json) -> Result<RetryEntry, JsonError> {
    let mut r = ObjReader::new("retry_entry", v)?;
    let out = RetryEntry {
        dev: r.usize("dev")?,
        link: r.usize("link")?,
        ready: r.u64("ready")?,
        item: tracked_request_from_json(r.required("item")?)?,
    };
    r.finish()?;
    Ok(out)
}

/// A set of `(link, tag)` pairs as a sorted array of `[link, tag]`.
fn zombies_json(set: &std::collections::HashSet<(usize, u16)>) -> Json {
    let mut pairs: Vec<(usize, u16)> = set.iter().copied().collect();
    pairs.sort_unstable();
    Json::list(pairs, |(link, tag)| Json::Arr(vec![link.into(), tag.into()]))
}

fn zombies_from_json(v: &Json) -> Result<std::collections::HashSet<(usize, u16)>, JsonError> {
    let pairs = v.vec("zombie_tags", |entry| {
        let [link, tag] = entry.tuple("zombie_tags: entry [link, tag]")?;
        Ok((link.int("zombie_tags: link")?, tag.int("zombie_tags: tag")?))
    })?;
    Ok(pairs.into_iter().collect())
}

/// One [`Violation`] as `{cycle, kind, detail}` (shadow `pending`
/// entries and a forensic dump's `violations`).
pub(crate) fn violation_json(v: &Violation) -> Json {
    obj(vec![
        ("cycle", v.cycle.into()),
        ("kind", v.kind.name().into()),
        ("detail", v.detail.as_str().into()),
    ])
}

fn violation_from_json(v: &Json) -> Result<Violation, JsonError> {
    let mut r = ObjReader::new("violation", v)?;
    let out = Violation {
        cycle: r.u64("cycle")?,
        kind: r.named("kind", &ViolationKind::NAMES)?,
        detail: r.str("detail")?.to_string(),
    };
    r.finish()?;
    Ok(out)
}

fn shadow_json(s: &SanitizerShadow) -> Json {
    // Ascending `[dev, link, tag]` triples.
    let mut live = Vec::new();
    for (dev, links) in s.live_tags.iter().enumerate() {
        for (link, tags) in links.iter().enumerate() {
            let triple = |t: Tag| Json::Arr(vec![dev.into(), link.into(), t.value().into()]);
            live.extend(tags.iter().map(triple));
        }
    }
    obj(vec![
        ("injected", s.injected.into()),
        ("delivered", s.delivered.into()),
        ("absorbed", s.absorbed.into()),
        ("zombie_dropped", s.zombie_dropped.into()),
        ("live_tags", Json::Arr(live)),
        ("seen_token_overflows", nested_json(&s.seen_token_overflows, |&n| n.into())),
        ("pending", Json::list(&s.pending, violation_json)),
    ])
}

fn shadow_from_json(v: &Json) -> Result<SanitizerShadow, JsonError> {
    let mut r = ObjReader::new("shadow", v)?;
    let mut out = SanitizerShadow {
        injected: r.u64("injected")?,
        delivered: r.u64("delivered")?,
        absorbed: r.u64("absorbed")?,
        zombie_dropped: r.u64("zombie_dropped")?,
        ..Default::default()
    };
    // A place is any cube and link a packet can name, whatever the
    // context the snapshot is restored into has.
    for entry in r.arr("live_tags")? {
        let [dev, link, tag] = entry.tuple("shadow: live_tags entry [dev, link, tag]")?;
        let dev = Cub::new(dev.int("shadow: live tag dev")?).map_err(bad("shadow: live tag dev"))?;
        let link =
            Slid::new(link.int("shadow: live tag link")?).map_err(bad("shadow: live tag link"))?;
        let tag = tag_from(tag.int("shadow: live tag value")?, "shadow: live tag value")?;
        out.insert_live(dev.value() as usize, link.value() as usize, tag);
    }
    out.seen_token_overflows = nested_from_json(
        r.required("seen_token_overflows")?,
        "shadow: seen_token_overflows",
        |n| n.int("shadow: seen_token_overflows entry"),
    )?;
    out.pending = r.vec("pending", violation_from_json)?;
    r.finish()?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// The byte width of each field of a packed [`TraceRecord`], in order:
/// `cycle`, kind wire code, `dev`, `link`, `quad`, `vault`, `bank`,
/// `tag`, `cmd_kind`, `cmd_value`, `a`, `b` — each at the full width of
/// its field, so every record round-trips. `cmd_kind` disambiguates the
/// [`CmdRef`] variants (0 none, 1 standard request, 2 CMC request,
/// 3 interned name, 4 inactive CMC) because the wire code alone cannot
/// (mirroring the request codec's `cmc` flag).
const RECORD_FIELDS: [usize; 12] = [8, 1, 2, 1, 1, 2, 2, 2, 1, 2, 8, 8];

/// Bytes of one packed record (the sum of [`RECORD_FIELDS`]): a
/// schema-v2 lane is `records` of these, little-endian, as one hex
/// string.
const RECORD_BYTES: usize = 38;

/// A record's twelve fields as words, in [`RECORD_FIELDS`] order.
fn record_words(t: &TraceRecord) -> [u64; 12] {
    let (cmd_kind, cmd_value) = match t.cmd {
        CmdRef::None => (0, 0),
        CmdRef::Rqst(HmcRqst::Cmc(code)) => (2, code as u64),
        CmdRef::Rqst(cmd) => (1, cmd.code() as u64),
        CmdRef::Name(idx) => (3, idx as u64),
        CmdRef::Inactive(code) => (4, code as u64),
    };
    [
        t.cycle,
        t.kind.code() as u64,
        t.dev as u64,
        t.link as u64,
        t.quad as u64,
        t.vault as u64,
        t.bank as u64,
        t.tag as u64,
        cmd_kind,
        cmd_value,
        t.a,
        t.b,
    ]
}

/// A lane's records as one hex string of packed records.
fn lane_records_json(records: &[TraceRecord]) -> Json {
    let mut bytes = vec![0u8; records.len() * RECORD_BYTES];
    for (packed, t) in bytes.chunks_exact_mut(RECORD_BYTES).zip(records) {
        let mut at = 0;
        for (word, width) in record_words(t).into_iter().zip(RECORD_FIELDS) {
            packed[at..at + width].copy_from_slice(&word.to_le_bytes()[..width]);
            at += width;
        }
    }
    Json::Str(hex_encode(&bytes))
}

fn lane_records_from_hex(hex: &str) -> Result<Vec<TraceRecord>, JsonError> {
    const CTX: &str = "flight records";
    if !hex.len().is_multiple_of(2 * RECORD_BYTES) {
        return Err(JsonError::new(format!(
            "{CTX}: {} hex digits are not a whole number of records",
            hex.len()
        )));
    }
    let mut bytes = vec![0u8; hex.len() / 2];
    hex_decode(hex, &mut bytes, CTX)?;
    let mut out = Vec::with_capacity(bytes.len() / RECORD_BYTES);
    for packed in bytes.chunks_exact(RECORD_BYTES) {
        let mut words = [0u64; 12];
        let mut at = 0;
        for (word, width) in words.iter_mut().zip(RECORD_FIELDS) {
            let mut le = [0u8; 8];
            le[..width].copy_from_slice(&packed[at..at + width]);
            *word = u64::from_le_bytes(le);
            at += width;
        }
        out.push(record_from_words(words)?);
    }
    Ok(out)
}

/// A schema-v1 record: an array of the twelve words.
fn trace_record_from_json(v: &Json) -> Result<TraceRecord, JsonError> {
    let mut w = [0u64; 12];
    for (slot, item) in w.iter_mut().zip(v.tuple::<12>("flight record")?) {
        *slot = item.int("flight record")?;
    }
    record_from_words(w)
}

/// The record behind its twelve words, whichever form carried them.
fn record_from_words(w: [u64; 12]) -> Result<TraceRecord, JsonError> {
    const CTX: &str = "flight record";
    fn narrow<T: TryFrom<u64>>(word: u64, i: usize) -> Result<T, JsonError> {
        T::try_from(word).map_err(|_| JsonError::new(format!("{CTX}: element {i} out of range")))
    }
    let kind = TraceKind::from_code(narrow(w[1], 1)?)
        .ok_or_else(|| JsonError::new(format!("{CTX}: unknown kind code")))?;
    let cmd = match w[8] {
        0 => CmdRef::None,
        1 => CmdRef::Rqst(
            HmcRqst::from_code(narrow(w[9], 9)?).map_err(bad("flight record: bad command code"))?,
        ),
        2 => CmdRef::Rqst(HmcRqst::Cmc(narrow(w[9], 9)?)),
        3 => CmdRef::Name(narrow(w[9], 9)?),
        4 => CmdRef::Inactive(narrow(w[9], 9)?),
        k => return Err(JsonError::new(format!("{CTX}: unknown cmd kind {k}"))),
    };
    Ok(TraceRecord {
        cycle: w[0],
        kind,
        dev: narrow(w[2], 2)?,
        link: narrow(w[3], 3)?,
        quad: narrow(w[4], 4)?,
        vault: narrow(w[5], 5)?,
        bank: narrow(w[6], 6)?,
        tag: narrow(w[7], 7)?,
        cmd,
        a: w[10],
        b: w[11],
    })
}

fn flight_json(f: &FlightSnapshot) -> Json {
    obj(vec![
        ("capacity", f.capacity.into()),
        ("names", Json::list(&f.names, |n| n.as_str().into())),
        (
            "lanes",
            Json::list(&f.lanes, |l| {
                obj(vec![
                    ("name", l.name.as_str().into()),
                    ("dropped", l.dropped.into()),
                    ("records", lane_records_json(&l.records)),
                ])
            }),
        ),
    ])
}

/// Decodes a flight section of schema `version` (1: records as arrays
/// of twelve integers; 2: packed). Only a timeline a recorder can
/// resume is accepted: a nonzero capacity, the five lanes in
/// [`FlightLane::ALL`] order, none holding more than the capacity.
fn flight_from_json(v: &Json, version: u64) -> Result<FlightSnapshot, JsonError> {
    let mut r = ObjReader::new("flight", v)?;
    let out = FlightSnapshot {
        capacity: r.usize("capacity")?,
        names: r.vec("names", |n| {
            let name = n.as_str().ok_or_else(|| JsonError::new("flight: name must be a string"))?;
            Ok(name.to_string())
        })?,
        lanes: r.vec("lanes", |lane| {
            let mut lr = ObjReader::new("flight lane", lane)?;
            let out = FlightLaneSnapshot {
                name: lr.str("name")?.to_string(),
                dropped: lr.u64("dropped")?,
                records: match version {
                    1 => lr.vec("records", trace_record_from_json)?,
                    _ => lane_records_from_hex(lr.str("records")?)?,
                },
            };
            lr.finish()?;
            Ok(out)
        })?,
    };
    r.finish()?;
    if out.capacity == 0 {
        return Err(JsonError::new("flight: capacity must be nonzero"));
    }
    if !out.lanes.iter().map(|l| l.name.as_str()).eq(FlightLane::ALL.map(FlightLane::name)) {
        return Err(JsonError::new(
            "flight: lanes must be host, link, vault, bank, engine, in order",
        ));
    }
    if let Some(lane) = out.lanes.iter().find(|l| l.records.len() > out.capacity) {
        return Err(JsonError::new(format!(
            "flight: lane `{}` holds {} records but capacity is {}",
            lane.name,
            lane.records.len(),
            out.capacity
        )));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Timing backend
// ---------------------------------------------------------------------------

fn timing_json(t: &TimingSnapshot) -> Json {
    obj(vec![
        ("select", t.select.name().into()),
        ("hit_latency", hist_json(&t.stats.hit_latency)),
        ("miss_latency", hist_json(&t.stats.miss_latency)),
        ("divergence", hist_json(&t.stats.divergence)),
        ("shadow_late", t.stats.shadow_late.into()),
        ("shadow_early", t.stats.shadow_early.into()),
        ("shadow_agree", t.stats.shadow_agree.into()),
        ("shadow", Json::list(&t.shadow, bank_json)),
    ])
}

fn timing_from_json(v: &Json) -> Result<TimingSnapshot, JsonError> {
    let mut r = ObjReader::new("timing", v)?;
    let out = TimingSnapshot {
        select: r.named("select", &TimingSelect::NAMES)?,
        stats: TimingStats {
            hit_latency: hist_from_json(r.required("hit_latency")?)?,
            miss_latency: hist_from_json(r.required("miss_latency")?)?,
            divergence: hist_from_json(r.required("divergence")?)?,
            shadow_late: r.u64("shadow_late")?,
            shadow_early: r.u64("shadow_early")?,
            shadow_agree: r.u64("shadow_agree")?,
        },
        shadow: r.vec("shadow", bank_from_json)?,
    };
    r.finish()?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Device and top level
// ---------------------------------------------------------------------------

fn device_json(d: &DeviceSnapshot) -> Json {
    let vault = |v: &Vault| {
        obj(vec![
            ("rqst", queue_json(&v.rqst, tracked_request_json)),
            ("rsp", queue_json(&v.rsp, tracked_response_json)),
            ("banks", Json::list(&v.banks, bank_json)),
        ])
    };
    obj(vec![
        ("xbar_rqst", Json::list(&d.xbar_rqst, |q| queue_json(q, tracked_request_json))),
        ("xbar_rsp", Json::list(&d.xbar_rsp, |q| queue_json(q, tracked_response_json))),
        ("vaults", Json::list(&d.vaults, vault)),
        ("mem", mem_json(&d.mem)),
        ("regs", regs_json(&d.regs)),
        ("stats", stats_json(&d.stats)),
        ("power", power_json(&d.power)),
        ("fault_rng", d.fault_rng.raw_state().into()),
        ("link_up", Json::list(&d.link_up, |&up| up.into())),
        ("fault_idx", d.fault_idx.into()),
        ("timing", timing_json(&d.timing)),
        ("cmc_libraries", Json::list(&d.cmc_libraries, |name| name.as_str().into())),
        ("cmc_codes", Json::list(&d.cmc_codes, |&code| code.into())),
    ])
}

/// A device entry of schema `version` (the CMC fields arrived in 3).
fn device_from_json(v: &Json, version: u64) -> Result<DeviceSnapshot, JsonError> {
    let mut r = ObjReader::new("device", v)?;
    let out = DeviceSnapshot {
        xbar_rqst: r
            .vec("xbar_rqst", |q| queue_from_json(q, "xbar_rqst", tracked_request_from_json))?,
        xbar_rsp: r
            .vec("xbar_rsp", |q| queue_from_json(q, "xbar_rsp", tracked_response_from_json))?,
        vaults: r.vec("vaults", |v| {
            let mut vr = ObjReader::new("vault", v)?;
            let out = Vault {
                rqst: queue_from_json(
                    vr.required("rqst")?,
                    "vault rqst",
                    tracked_request_from_json,
                )?,
                rsp: queue_from_json(vr.required("rsp")?, "vault rsp", tracked_response_from_json)?,
                banks: vr.vec("banks", bank_from_json)?,
            };
            vr.finish()?;
            Ok(out)
        })?,
        mem: mem_from_json(r.required("mem")?)?,
        regs: regs_from_json(r.required("regs")?)?,
        stats: stats_from_json(r.required("stats")?)?,
        power: power_from_json(r.required("power")?)?,
        fault_rng: FaultRng::from_raw_state(r.u64("fault_rng")?),
        link_up: r.vec("link_up", |b| {
            b.as_bool().ok_or_else(|| JsonError::new("device: link_up entries must be bools"))
        })?,
        fault_idx: r.usize("fault_idx")?,
        // Legacy snapshots (schema ≤ the pre-timing-backend era) carry no
        // "timing" field: default to a fresh FixedLatency record, matching
        // the behaviour those snapshots were produced under.
        timing: r.optional("timing").map(timing_from_json).transpose()?.unwrap_or_default(),
        cmc_libraries: match version {
            1 | 2 => Vec::new(),
            _ => r.vec("cmc_libraries", |name| {
                let name = name.as_str().map(str::to_string);
                name.ok_or_else(|| JsonError::new("device: cmc_libraries entries must be strings"))
            })?,
        },
        cmc_codes: match version {
            1 | 2 => Vec::new(),
            _ => r.vec("cmc_codes", |code| code.int("device: cmc code"))?,
        },
    };
    r.finish()?;
    Ok(out)
}

impl SimSnapshot {
    /// Serializes the snapshot into a lossless, versioned [`Json`]
    /// value.
    pub fn to_json_value(&self) -> Json {
        let host_queue = |q: &VecDeque<RspEnvelope>| Json::list(q, |r| tracked_response_json(r));
        obj(vec![
            ("schema_version", SNAPSHOT_SCHEMA_VERSION.into()),
            ("config", self.config.as_ref().map(SimConfig::to_json).into()),
            ("cycle", self.cycle.into()),
            ("devices", Json::list(&self.devices, device_json)),
            ("host_rx", nested_json(&self.host_rx, host_queue)),
            ("tag_pools", nested_json(&self.tag_pools, tag_pool_json)),
            ("pool_tags", nested_json(&self.pool_tags, tag_set_json)),
            ("in_transit", Json::list(&self.in_transit, transit_json)),
            ("links", nested_json(&self.links, link_json)),
            ("retry_pending", Json::list(&self.retry_pending, retry_json)),
            ("zombie_tags", Json::list(&self.zombie_tags, zombies_json)),
            ("shadow", self.shadow.as_ref().map(shadow_json).into()),
            ("flight", self.flight.as_ref().map(flight_json).into()),
        ])
    }

    /// Renders the lossless durable form as a JSON string.
    pub fn to_json_full(&self) -> String {
        self.to_json_value().render()
    }

    /// Parses a [`SimSnapshot::to_json_value`] document back into a
    /// snapshot. Strict: unknown fields, missing fields, out-of-range
    /// values and unsupported schema versions are all errors.
    pub fn from_json_value(v: &Json) -> Result<SimSnapshot, JsonError> {
        let mut r = ObjReader::new("snapshot", v)?;
        let version = r.u64("schema_version")?;
        if !(1..=SNAPSHOT_SCHEMA_VERSION).contains(&version) {
            return Err(JsonError::new(format!(
                "snapshot: unsupported schema version {version} (this build reads 1 to \
                 {SNAPSHOT_SCHEMA_VERSION})"
            )));
        }
        let host_queue = |q: &Json| -> Result<VecDeque<RspEnvelope>, JsonError> {
            Ok(q.vec("host_rx queue", tracked_response_from_json)?.into())
        };
        let non_null = |v: &'_ Json| !matches!(v, Json::Null);
        let out = SimSnapshot {
            config: match version {
                1 | 2 => None,
                _ => Some(r.required("config")?)
                    .filter(|v| non_null(v))
                    .map(SimConfig::from_json)
                    .transpose()?,
            },
            cycle: r.u64("cycle")?,
            devices: r.vec("devices", |d| device_from_json(d, version))?,
            host_rx: nested_from_json(r.required("host_rx")?, "snapshot host_rx", host_queue)?,
            tag_pools: nested_from_json(
                r.required("tag_pools")?,
                "snapshot tag_pools",
                tag_pool_from_json,
            )?,
            pool_tags: nested_from_json(
                r.required("pool_tags")?,
                "snapshot pool_tags",
                tag_set_from_json,
            )?,
            in_transit: r.vec("in_transit", transit_from_json)?,
            links: nested_from_json(r.required("links")?, "snapshot links", link_from_json)?,
            retry_pending: r.vec("retry_pending", retry_from_json)?,
            zombie_tags: r.vec("zombie_tags", zombies_from_json)?,
            shadow: Some(r.required("shadow")?)
                .filter(|v| non_null(v))
                .map(shadow_from_json)
                .transpose()?,
            // Optional for compatibility: schema-v1 snapshots written
            // before the flight recorder existed have no `flight` key.
            flight: r
                .optional("flight")
                .filter(|v| non_null(v))
                .map(|v| flight_from_json(v, version))
                .transpose()?,
        };
        r.finish()?;
        Ok(out)
    }

    /// Parses a [`SimSnapshot::to_json_full`] string back into a
    /// snapshot (see [`SimSnapshot::from_json_value`]).
    pub fn from_json(text: &str) -> Result<SimSnapshot, JsonError> {
        Self::from_json_value(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        let hex = hex_encode(&bytes);
        let mut back = [0u8; 256];
        hex_decode(&hex, &mut back, "t").unwrap();
        assert_eq!(back[..], bytes[..]);
        hex_decode(&hex.to_uppercase(), &mut back, "t").unwrap();
        assert_eq!(back[..], bytes[..]);
        assert!(hex_decode("0", &mut back[..1], "t").is_err(), "odd length");
        assert!(hex_decode(&hex[2..], &mut back, "t").is_err(), "short");
        assert!(hex_decode("zz", &mut back[..1], "t").is_err(), "bad digit");
        assert!(hex_decode("+1", &mut back[..1], "t").is_err(), "a sign is not a digit");
        assert_eq!(
            hex_decode("0", &mut back[..1], "mem page").unwrap_err().message,
            "mem page: 1 hex digits where 1 bytes are expected"
        );
        // One bad digit anywhere spoils the page: first and last byte,
        // high and low nibble, and every neighbour of the digit ranges.
        for at in [0, 1, hex.len() - 2, hex.len() - 1] {
            for bad in ["/", ":", "@", "G", "`", "g", " ", "\u{7f}"] {
                let mut spoiled = hex.clone();
                spoiled.replace_range(at..at + 1, bad);
                let e = hex_decode(&spoiled, &mut back, "mem page").unwrap_err();
                assert_eq!(e.message, "mem page: invalid hex digit", "{bad:?} at {at}");
            }
        }
        // A multibyte character keeps the length and is no digit.
        let spoiled = format!("\u{e9}{}", &hex[2..]);
        assert!(hex_decode(&spoiled, &mut back, "t").is_err());
    }

    #[test]
    fn hist_codec_keeps_empty_sentinel() {
        let empty = Hist::new();
        let back = hist_from_json(&hist_json(&empty)).unwrap();
        assert_eq!(back, empty, "u64::MAX min sentinel survives");
        let mut h = Hist::new();
        h.record(0);
        h.record(77);
        h.record(u64::MAX);
        assert_eq!(hist_from_json(&hist_json(&h)).unwrap(), h);
    }

    #[test]
    fn cmc_request_with_standard_code_round_trips() {
        // HmcRqst::from_code maps standard codes to standard variants;
        // only the explicit cmc flag can reconstruct Cmc(standard).
        let req = Request::new_cmc(
            hmc_types::HmcRqst::Rd16.code(),
            2,
            Tag::new(5).unwrap(),
            0x40,
            Cub::new(0).unwrap(),
            vec![1, 2],
        )
        .unwrap();
        let back = request_from_json(&request_json(&req)).unwrap();
        assert_eq!(format!("{back:?}"), format!("{req:?}"));
        assert!(matches!(back.head.cmd, HmcRqst::Cmc(_)));
    }

    #[test]
    fn rsp_none_round_trips() {
        let rsp = Response {
            head: RspHead {
                cmd: HmcResponse::RspNone,
                lng: 1,
                tag: Tag::new(0).unwrap(),
                af: false,
                slid: Slid::new(0).unwrap(),
                cub: Cub::new(0).unwrap(),
            },
            payload: hmc_types::PayloadBuf::new(),
            tail: RspTail::default(),
        };
        let back = response_from_json(&response_json(&rsp)).unwrap();
        assert_eq!(back.head.cmd, HmcResponse::RspNone);
        assert_eq!(format!("{back:?}"), format!("{rsp:?}"));
    }

    #[test]
    fn packed_records_round_trip_at_full_width() {
        let cmds = [
            CmdRef::None,
            CmdRef::Rqst(HmcRqst::Rd16),
            CmdRef::Rqst(HmcRqst::Cmc(HmcRqst::Rd16.code())),
            CmdRef::Name(u16::MAX),
            CmdRef::Inactive(u8::MAX),
        ];
        let kinds = (0..=u8::MAX).filter_map(TraceKind::from_code);
        let records: Vec<TraceRecord> = kinds
            .zip(cmds.iter().cycle())
            .enumerate()
            .map(|(i, (kind, &cmd))| TraceRecord {
                dev: u16::MAX,
                link: u8::MAX,
                quad: u8::MAX - i as u8,
                vault: u16::MAX,
                bank: u16::MAX,
                tag: u16::MAX,
                cmd,
                a: u64::MAX,
                b: i as u64,
                ..TraceRecord::new(u64::MAX - i as u64, kind)
            })
            .collect();
        assert_eq!(records.len(), 25, "every kind");
        assert_eq!(RECORD_FIELDS.iter().sum::<usize>(), RECORD_BYTES);
        let packed = lane_records_json(&records);
        let hex = packed.as_str().unwrap();
        assert_eq!(hex.len(), 2 * RECORD_BYTES * records.len());
        assert_eq!(lane_records_from_hex(hex).unwrap(), records);
        assert_eq!(lane_records_from_hex("").unwrap(), []);
    }

    #[test]
    fn packed_records_reject_what_no_record_is() {
        let packed = lane_records_json(&[TraceRecord::new(1, TraceKind::Cmd)]);
        let hex = packed.as_str().unwrap();
        let err = |s: &str| lane_records_from_hex(s).unwrap_err().message;
        assert_eq!(
            err(&hex[1..]),
            "flight records: 75 hex digits are not a whole number of records"
        );
        assert_eq!(
            err(&format!("{hex}{}", &hex[..2])),
            "flight records: 78 hex digits are not a whole number of records"
        );
        assert_eq!(err(&hex.replace('0', "g")), "flight records: invalid hex digit");
        // Byte 8 is the kind: 20 is a retired code.
        let bad_kind = format!("{}14{}", &hex[..16], &hex[18..]);
        assert_eq!(err(&bad_kind), "flight record: unknown kind code");
        // Byte 19 is the command kind, bytes 20-21 its value.
        let bad_cmd_kind = format!("{}05{}", &hex[..38], &hex[40..]);
        assert_eq!(err(&bad_cmd_kind), "flight record: unknown cmd kind 5");
        assert_eq!(
            err(&format!("{}010001{}", &hex[..38], &hex[44..])),
            "flight record: element 9 out of range"
        );
        assert_eq!(
            err(&format!("{}01ff00{}", &hex[..38], &hex[44..])),
            "flight record: bad command code: invalid 7-bit command code 0xff"
        );
    }

    #[test]
    fn unsupported_schema_version_rejected() {
        let text = r#"{"schema_version":999,"cycle":0}"#;
        let err = SimSnapshot::from_json(text).unwrap_err();
        assert!(err.message.contains("unsupported schema version"), "{}", err.message);
    }
}
