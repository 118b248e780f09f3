//! Lossless, versioned JSON serialization for [`SimSnapshot`].
//!
//! The original [`SimSnapshot::to_json`] writer is a *forensic* view:
//! bounded queue listings, digests instead of memory pages — readable,
//! but not restorable. This module is the *durable* codec: every field
//! that [`SimSnapshot::fingerprint`] observes is serialized exactly, so
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
//! layout, it rejects it loudly. Parsing is strict throughout — every
//! object goes through [`ObjReader`] and unknown or missing fields are
//! errors, never silently dropped.
//!
//! Notable encoding choices:
//!
//! * integers only (the `jsonv` contract): `f64` power coefficients
//!   are stored as [`f64::to_bits`] so they restore bit-exactly;
//! * memory pages are hex strings keyed by page id, covering **every**
//!   resident page (even all-zero ones — residency itself is part of
//!   the fingerprint);
//! * packet command codes carry an explicit `cmc` flag, because the
//!   wire code alone cannot distinguish `HmcRqst::Cmc(code)` from the
//!   standard command sharing that code (and response code 0 means
//!   [`hmc_types::HmcResponse::RspNone`], which `from_code` rejects);
//! * ordered collections (queue contents, tag-pool free lists, event
//!   lists) keep their order; unordered sets are sorted on write and
//!   rebuilt on read.

use crate::device::{RqstEnvelope, RspEnvelope, TrackedRequest, TrackedResponse, Vault};
use crate::trace::{CmdRef, FlightLaneSnapshot, FlightSnapshot, TraceKind, TraceRecord};
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
use crate::stats::{ClassLatency, DeviceStats};
use crate::telemetry::StageStamps;
use hmc_mem::store::PAGE_BYTES;
use hmc_mem::SparseMemory;
use hmc_types::{
    Cub, HmcResponse, HmcRqst, ReqHead, ReqTail, Request, Response, RspHead, RspTail, Slid, Tag,
    TagPool, TagSet,
};
use std::collections::{HashSet, VecDeque};

/// Version number written into (and required from) the durable
/// snapshot schema. Bump on any incompatible layout change.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 1;

fn jerr<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError { message: message.into() })
}

fn int(v: u64) -> Json {
    Json::Int(v as i128)
}

fn int_usize(v: usize) -> Json {
    Json::Int(v as i128)
}

fn opt_u64_json(v: Option<u64>) -> Json {
    match v {
        Some(v) => int(v),
        None => Json::Null,
    }
}

fn opt_u32_json(v: Option<u32>) -> Json {
    match v {
        Some(v) => Json::Int(v as i128),
        None => Json::Null,
    }
}

fn read_opt_u64(r: &mut ObjReader<'_>, key: &str, ctx: &str) -> Result<Option<u64>, JsonError> {
    match r.required(key)? {
        Json::Null => Ok(None),
        v => match v.as_u64() {
            Some(n) => Ok(Some(n)),
            None => jerr(format!("{ctx}: field `{key}` must be a u64 or null")),
        },
    }
}

fn read_opt_u32(r: &mut ObjReader<'_>, key: &str, ctx: &str) -> Result<Option<u32>, JsonError> {
    match r.required(key)? {
        Json::Null => Ok(None),
        v => match v.as_u32() {
            Some(n) => Ok(Some(n)),
            None => jerr(format!("{ctx}: field `{key}` must be a u32 or null")),
        },
    }
}

fn read_u8(r: &mut ObjReader<'_>, key: &str, ctx: &str) -> Result<u8, JsonError> {
    let v = r.u32(key)?;
    u8::try_from(v).map_err(|_| JsonError {
        message: format!("{ctx}: field `{key}` value {v} exceeds u8"),
    })
}

fn u64_list(values: impl Iterator<Item = u64>) -> Json {
    Json::Arr(values.map(int).collect())
}

fn read_u64_list(v: &Json, ctx: &str) -> Result<Vec<u64>, JsonError> {
    let arr = v
        .as_arr()
        .ok_or_else(|| JsonError { message: format!("{ctx}: expected an array") })?;
    arr.iter()
        .map(|item| {
            item.as_u64()
                .ok_or_else(|| JsonError { message: format!("{ctx}: expected u64 entries") })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Hex page encoding
// ---------------------------------------------------------------------------

fn hex_encode(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(HEX[(b >> 4) as usize] as char);
        s.push(HEX[(b & 0xF) as usize] as char);
    }
    s
}

fn hex_decode(s: &str, ctx: &str) -> Result<Vec<u8>, JsonError> {
    if !s.len().is_multiple_of(2) {
        return jerr(format!("{ctx}: odd-length hex string"));
    }
    let digit = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        match (digit(pair[0]), digit(pair[1])) {
            (Some(hi), Some(lo)) => out.push((hi << 4) | lo),
            _ => return jerr(format!("{ctx}: invalid hex digit")),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Packets
// ---------------------------------------------------------------------------

fn request_json(req: &Request) -> Json {
    obj(vec![
        ("cmd", Json::Int(req.head.cmd.code() as i128)),
        ("cmc", Json::Bool(matches!(req.head.cmd, HmcRqst::Cmc(_)))),
        ("lng", Json::Int(req.head.lng as i128)),
        ("tag", Json::Int(req.head.tag.value() as i128)),
        ("addr", int(req.head.addr)),
        ("cub", Json::Int(req.head.cub.value() as i128)),
        ("payload", u64_list(req.payload.as_slice().iter().copied())),
        ("rrp", Json::Int(req.tail.rrp as i128)),
        ("frp", Json::Int(req.tail.frp as i128)),
        ("seq", Json::Int(req.tail.seq as i128)),
        ("pb", Json::Bool(req.tail.pb)),
        ("slid", Json::Int(req.tail.slid.value() as i128)),
        ("rtc", Json::Int(req.tail.rtc as i128)),
        ("crc", Json::Int(req.tail.crc as i128)),
    ])
}

fn request_from_json(v: &Json) -> Result<Request, JsonError> {
    const CTX: &str = "request";
    let mut r = ObjReader::new(CTX, v)?;
    let code = read_u8(&mut r, "cmd", CTX)?;
    let cmc = r.bool("cmc")?;
    let cmd = if cmc {
        HmcRqst::Cmc(code)
    } else {
        HmcRqst::from_code(code)
            .map_err(|e| JsonError { message: format!("{CTX}: bad command code {code}: {e}") })?
    };
    let lng = read_u8(&mut r, "lng", CTX)?;
    let tag = Tag::new(r.u32("tag")?)
        .map_err(|e| JsonError { message: format!("{CTX}: bad tag: {e}") })?;
    let addr = r.u64("addr")?;
    let cub = Cub::new(read_u8(&mut r, "cub", CTX)?)
        .map_err(|e| JsonError { message: format!("{CTX}: bad cub: {e}") })?;
    let payload = read_u64_list(r.required("payload")?, "request payload")?;
    let rrp = read_u8(&mut r, "rrp", CTX)?;
    let frp = read_u8(&mut r, "frp", CTX)?;
    let seq = read_u8(&mut r, "seq", CTX)?;
    let pb = r.bool("pb")?;
    let slid = Slid::new(read_u8(&mut r, "slid", CTX)?)
        .map_err(|e| JsonError { message: format!("{CTX}: bad slid: {e}") })?;
    let rtc = read_u8(&mut r, "rtc", CTX)?;
    let crc = r.u32("crc")?;
    r.finish()?;
    Ok(Request {
        head: ReqHead { cmd, lng, tag, addr, cub },
        payload: hmc_types::PayloadBuf::from_slice(&payload),
        tail: ReqTail { rrp, frp, seq, pb, slid, rtc, crc },
    })
}

fn response_json(rsp: &Response) -> Json {
    obj(vec![
        ("cmd", Json::Int(rsp.head.cmd.code() as i128)),
        ("cmc", Json::Bool(matches!(rsp.head.cmd, HmcResponse::RspCmc(_)))),
        ("lng", Json::Int(rsp.head.lng as i128)),
        ("tag", Json::Int(rsp.head.tag.value() as i128)),
        ("af", Json::Bool(rsp.head.af)),
        ("slid", Json::Int(rsp.head.slid.value() as i128)),
        ("cub", Json::Int(rsp.head.cub.value() as i128)),
        ("payload", u64_list(rsp.payload.as_slice().iter().copied())),
        ("rrp", Json::Int(rsp.tail.rrp as i128)),
        ("frp", Json::Int(rsp.tail.frp as i128)),
        ("seq", Json::Int(rsp.tail.seq as i128)),
        ("dinv", Json::Bool(rsp.tail.dinv)),
        ("errstat", Json::Int(rsp.tail.errstat as i128)),
        ("rtc", Json::Int(rsp.tail.rtc as i128)),
        ("crc", Json::Int(rsp.tail.crc as i128)),
    ])
}

fn response_from_json(v: &Json) -> Result<Response, JsonError> {
    const CTX: &str = "response";
    let mut r = ObjReader::new(CTX, v)?;
    let code = read_u8(&mut r, "cmd", CTX)?;
    let cmc = r.bool("cmc")?;
    let cmd = if cmc {
        HmcResponse::RspCmc(code)
    } else if code == 0 {
        HmcResponse::RspNone
    } else {
        HmcResponse::from_code(code)
            .map_err(|e| JsonError { message: format!("{CTX}: bad response code {code}: {e}") })?
    };
    let lng = read_u8(&mut r, "lng", CTX)?;
    let tag = Tag::new(r.u32("tag")?)
        .map_err(|e| JsonError { message: format!("{CTX}: bad tag: {e}") })?;
    let af = r.bool("af")?;
    let slid = Slid::new(read_u8(&mut r, "slid", CTX)?)
        .map_err(|e| JsonError { message: format!("{CTX}: bad slid: {e}") })?;
    let cub = Cub::new(read_u8(&mut r, "cub", CTX)?)
        .map_err(|e| JsonError { message: format!("{CTX}: bad cub: {e}") })?;
    let payload = read_u64_list(r.required("payload")?, "response payload")?;
    let rrp = read_u8(&mut r, "rrp", CTX)?;
    let frp = read_u8(&mut r, "frp", CTX)?;
    let seq = read_u8(&mut r, "seq", CTX)?;
    let dinv = r.bool("dinv")?;
    let errstat = read_u8(&mut r, "errstat", CTX)?;
    let rtc = read_u8(&mut r, "rtc", CTX)?;
    let crc = r.u32("crc")?;
    r.finish()?;
    Ok(Response {
        head: RspHead { cmd, lng, tag, af, slid, cub },
        payload: hmc_types::PayloadBuf::from_slice(&payload),
        tail: RspTail { rrp, frp, seq, dinv, errstat, rtc, crc },
    })
}

// ---------------------------------------------------------------------------
// Tracked packets
// ---------------------------------------------------------------------------

fn tracked_request_json(t: &TrackedRequest) -> Json {
    obj(vec![
        ("req", request_json(&t.req)),
        ("entry_device", int_usize(t.entry_device)),
        ("entry_link", int_usize(t.entry_link)),
        ("issue_cycle", int(t.issue_cycle)),
        ("hops", Json::Int(t.hops as i128)),
        ("ready_cycle", int(t.ready_cycle)),
        ("vault_enq_cycle", int(t.vault_enq_cycle)),
    ])
}

fn tracked_request_from_json(v: &Json) -> Result<RqstEnvelope, JsonError> {
    let mut r = ObjReader::new("tracked_request", v)?;
    let req = request_from_json(r.required("req")?)?;
    let out = TrackedRequest {
        req,
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

fn class_name(class: crate::stats::CmdClass) -> &'static str {
    class.name()
}

fn class_from_name(name: &str) -> Result<crate::stats::CmdClass, JsonError> {
    use crate::stats::CmdClass;
    Ok(match name {
        "read" => CmdClass::Read,
        "write" => CmdClass::Write,
        "atomic" => CmdClass::Atomic,
        "cmc" => CmdClass::Cmc,
        "other" => CmdClass::Other,
        other => return jerr(format!("unknown command class `{other}`")),
    })
}

fn tracked_response_json(t: &TrackedResponse) -> Json {
    obj(vec![
        ("rsp", response_json(&t.rsp)),
        ("issue_cycle", int(t.issue_cycle)),
        ("complete_cycle", int(t.complete_cycle)),
        ("latency", int(t.latency)),
        ("entry_device", int_usize(t.entry_device)),
        ("entry_link", int_usize(t.entry_link)),
        ("class", Json::Str(class_name(t.class).to_string())),
        ("vault_enq", int(t.stages.vault_enq)),
        ("exec", int(t.stages.exec)),
        ("rsp_route", int(t.stages.rsp_route)),
        ("egress", int(t.stages.egress)),
    ])
}

fn tracked_response_from_json(v: &Json) -> Result<RspEnvelope, JsonError> {
    let mut r = ObjReader::new("tracked_response", v)?;
    let rsp = response_from_json(r.required("rsp")?)?;
    let out = TrackedResponse {
        rsp,
        issue_cycle: r.u64("issue_cycle")?,
        complete_cycle: r.u64("complete_cycle")?,
        latency: r.u64("latency")?,
        entry_device: r.usize("entry_device")?,
        entry_link: r.usize("entry_link")?,
        class: class_from_name(r.str("class")?)?,
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
        ("depth", int_usize(q.depth())),
        ("high_water", int_usize(q.high_water())),
        ("stalls", int(q.stalls())),
        ("pushes", int(q.pushes())),
        ("items", Json::Arr(q.iter().map(|envelope| item(envelope)).collect())),
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
    let raw = r
        .required("items")?
        .as_arr()
        .ok_or_else(|| JsonError { message: format!("{ctx}: queue items must be an array") })?;
    r.finish()?;
    if depth == 0 {
        return jerr(format!("{ctx}: queue depth must be nonzero"));
    }
    let mut items = VecDeque::with_capacity(raw.len());
    for entry in raw {
        items.push_back(item(entry)?);
    }
    if items.len() > depth {
        return jerr(format!(
            "{ctx}: queue holds {} items but depth is {depth}",
            items.len()
        ));
    }
    Ok(BoundedQueue::from_parts(items, depth, high_water, stalls, pushes))
}

// ---------------------------------------------------------------------------
// Histograms and statistics
// ---------------------------------------------------------------------------

fn hist_json(h: &Hist) -> Json {
    let (count, sum, min, max, buckets) = h.raw_parts();
    let sparse: Vec<Json> = buckets
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, &n)| Json::Arr(vec![int_usize(i), int(n)]))
        .collect();
    obj(vec![
        ("count", int(count)),
        ("sum", int(sum)),
        ("min", int(min)),
        ("max", int(max)),
        ("buckets", Json::Arr(sparse)),
    ])
}

fn hist_from_json(v: &Json) -> Result<Hist, JsonError> {
    let mut r = ObjReader::new("hist", v)?;
    let count = r.u64("count")?;
    let sum = r.u64("sum")?;
    let min = r.u64("min")?;
    let max = r.u64("max")?;
    let sparse = r
        .required("buckets")?
        .as_arr()
        .ok_or_else(|| JsonError { message: "hist: buckets must be an array".into() })?;
    r.finish()?;
    let mut buckets = [0u64; BUCKETS];
    for pair in sparse {
        let pair = pair
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| JsonError { message: "hist: bucket entry must be [idx, n]".into() })?;
        let idx = pair[0]
            .as_usize()
            .filter(|&i| i < BUCKETS)
            .ok_or_else(|| JsonError { message: "hist: bucket index out of range".into() })?;
        let n = pair[1]
            .as_u64()
            .ok_or_else(|| JsonError { message: "hist: bucket count must be a u64".into() })?;
        buckets[idx] = n;
    }
    Ok(Hist::from_raw_parts(count, sum, min, max, buckets))
}

fn stats_json(s: &DeviceStats) -> Json {
    obj(vec![
        ("reads", int(s.reads)),
        ("writes", int(s.writes)),
        ("posted_writes", int(s.posted_writes)),
        ("atomics", int(s.atomics)),
        ("cmc_ops", int(s.cmc_ops)),
        ("mode_ops", int(s.mode_ops)),
        ("flow_packets", int(s.flow_packets)),
        ("responses", int(s.responses)),
        ("error_responses", int(s.error_responses)),
        ("forwarded", int(s.forwarded)),
        ("remote_quad_requests", int(s.remote_quad_requests)),
        ("send_stalls", int(s.send_stalls)),
        ("xbar_stalls", int(s.xbar_stalls)),
        ("vault_stalls", int(s.vault_stalls)),
        ("rqst_flits", int(s.rqst_flits)),
        ("rsp_flits", int(s.rsp_flits)),
        ("vault_faults", int(s.vault_faults)),
        ("poisoned_responses", int(s.poisoned_responses)),
        ("failover_responses", int(s.failover_responses)),
        ("abandoned_responses", int(s.abandoned_responses)),
        ("latency", hist_json(&s.latency)),
        ("class_read", hist_json(&s.class_latency.read)),
        ("class_write", hist_json(&s.class_latency.write)),
        ("class_atomic", hist_json(&s.class_latency.atomic)),
        ("class_cmc", hist_json(&s.class_latency.cmc)),
        ("class_other", hist_json(&s.class_latency.other)),
    ])
}

fn stats_from_json(v: &Json) -> Result<DeviceStats, JsonError> {
    let mut r = ObjReader::new("stats", v)?;
    let out = DeviceStats {
        reads: r.u64("reads")?,
        writes: r.u64("writes")?,
        posted_writes: r.u64("posted_writes")?,
        atomics: r.u64("atomics")?,
        cmc_ops: r.u64("cmc_ops")?,
        mode_ops: r.u64("mode_ops")?,
        flow_packets: r.u64("flow_packets")?,
        responses: r.u64("responses")?,
        error_responses: r.u64("error_responses")?,
        forwarded: r.u64("forwarded")?,
        remote_quad_requests: r.u64("remote_quad_requests")?,
        send_stalls: r.u64("send_stalls")?,
        xbar_stalls: r.u64("xbar_stalls")?,
        vault_stalls: r.u64("vault_stalls")?,
        rqst_flits: r.u64("rqst_flits")?,
        rsp_flits: r.u64("rsp_flits")?,
        vault_faults: r.u64("vault_faults")?,
        poisoned_responses: r.u64("poisoned_responses")?,
        failover_responses: r.u64("failover_responses")?,
        abandoned_responses: r.u64("abandoned_responses")?,
        latency: hist_from_json(r.required("latency")?)?,
        class_latency: ClassLatency {
            read: hist_from_json(r.required("class_read")?)?,
            write: hist_from_json(r.required("class_write")?)?,
            atomic: hist_from_json(r.required("class_atomic")?)?,
            cmc: hist_from_json(r.required("class_cmc")?)?,
            other: hist_from_json(r.required("class_other")?)?,
        },
    };
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
        ("link_flit_pj_bits", int(c.link_flit_pj.to_bits())),
        ("dram_access_pj_bits", int(c.dram_access_pj.to_bits())),
        ("logic_op_pj_bits", int(c.logic_op_pj.to_bits())),
        ("idle_cycle_pj_bits", int(c.idle_cycle_pj.to_bits())),
        ("clock_hz_bits", int(c.clock_hz.to_bits())),
        ("link_flits", int(link_flits)),
        ("dram_accesses", int(dram_accesses)),
        ("logic_ops", int(logic_ops)),
        ("cycles", int(cycles)),
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
    let link_flits = r.u64("link_flits")?;
    let dram_accesses = r.u64("dram_accesses")?;
    let logic_ops = r.u64("logic_ops")?;
    let cycles = r.u64("cycles")?;
    r.finish()?;
    Ok(PowerModel::from_parts(config, link_flits, dram_accesses, logic_ops, cycles))
}

fn mem_json(mem: &SparseMemory) -> Json {
    let pages: Vec<Json> = mem
        .export_pages()
        .into_iter()
        .map(|(id, bytes)| Json::Arr(vec![int(id), Json::Str(hex_encode(&bytes[..]))]))
        .collect();
    obj(vec![("capacity", int(mem.capacity())), ("pages", Json::Arr(pages))])
}

fn mem_from_json(v: &Json) -> Result<SparseMemory, JsonError> {
    let mut r = ObjReader::new("mem", v)?;
    let capacity = r.u64("capacity")?;
    let pages = r
        .required("pages")?
        .as_arr()
        .ok_or_else(|| JsonError { message: "mem: pages must be an array".into() })?;
    r.finish()?;
    let mem = SparseMemory::new(capacity);
    for page in pages {
        let pair = page
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| JsonError { message: "mem: page entry must be [id, hex]".into() })?;
        let id = pair[0]
            .as_u64()
            .ok_or_else(|| JsonError { message: "mem: page id must be a u64".into() })?;
        let hex = pair[1]
            .as_str()
            .ok_or_else(|| JsonError { message: "mem: page bytes must be a hex string".into() })?;
        let bytes = hex_decode(hex, "mem page")?;
        let arr: &[u8; PAGE_BYTES] = bytes.as_slice().try_into().map_err(|_| JsonError {
            message: format!("mem: page {id} holds {} bytes, expected {PAGE_BYTES}", bytes.len()),
        })?;
        mem.insert_page(id, arr)
            .map_err(|e| JsonError { message: format!("mem: page {id} rejected: {e}") })?;
    }
    Ok(mem)
}

fn regs_json(regs: &RegisterFile) -> Json {
    let entries: Vec<Json> = regs
        .ids()
        .into_iter()
        .map(|id| {
            let value = regs.read(id).expect("id came from ids()");
            Json::Arr(vec![Json::Int(id as i128), int(value)])
        })
        .collect();
    Json::Arr(entries)
}

fn regs_from_json(v: &Json) -> Result<RegisterFile, JsonError> {
    let arr = v
        .as_arr()
        .ok_or_else(|| JsonError { message: "regs: expected an array".into() })?;
    let mut entries = Vec::with_capacity(arr.len());
    for entry in arr {
        let pair = entry
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| JsonError { message: "regs: entry must be [id, value]".into() })?;
        let id = pair[0]
            .as_u32()
            .ok_or_else(|| JsonError { message: "regs: id must be a u32".into() })?;
        let value = pair[1]
            .as_u64()
            .ok_or_else(|| JsonError { message: "regs: value must be a u64".into() })?;
        entries.push((id, value));
    }
    Ok(RegisterFile::from_entries(entries))
}

fn bank_json(bank: &Bank) -> Json {
    let (busy_until, open_row) = bank.dynamic_state();
    obj(vec![
        ("busy_until", int(busy_until)),
        ("open_row", opt_u64_json(open_row)),
        ("row_hits", int(bank.row_hits)),
        ("row_misses", int(bank.row_misses)),
    ])
}

fn bank_from_json(v: &Json) -> Result<Bank, JsonError> {
    let mut r = ObjReader::new("bank", v)?;
    let busy_until = r.u64("busy_until")?;
    let open_row = read_opt_u64(&mut r, "open_row", "bank")?;
    let row_hits = r.u64("row_hits")?;
    let row_misses = r.u64("row_misses")?;
    r.finish()?;
    Ok(Bank::from_parts(busy_until, open_row, row_hits, row_misses))
}

// ---------------------------------------------------------------------------
// Links and tag pools
// ---------------------------------------------------------------------------

fn link_json(l: &LinkControl) -> Json {
    let c = l.config();
    let st = l.stats;
    obj(vec![
        ("tokens", opt_u32_json(c.tokens)),
        ("error_period", opt_u64_json(c.error_period)),
        ("retry_latency", int(c.retry_latency)),
        ("tokens_available", Json::Int(l.tokens_available() as i128)),
        ("packet_counter", int(l.packet_counter())),
        ("seq", Json::Int(l.seq() as i128)),
        ("packets_sent", int(st.packets_sent)),
        ("flits_sent", int(st.flits_sent)),
        ("token_stalls", int(st.token_stalls)),
        ("retries", int(st.retries)),
        ("crc_errors", int(st.crc_errors)),
        ("token_overflows", int(st.token_overflows)),
    ])
}

fn link_from_json(v: &Json) -> Result<LinkControl, JsonError> {
    const CTX: &str = "link";
    let mut r = ObjReader::new(CTX, v)?;
    let config = LinkConfig {
        tokens: read_opt_u32(&mut r, "tokens", CTX)?,
        error_period: read_opt_u64(&mut r, "error_period", CTX)?,
        retry_latency: r.u64("retry_latency")?,
    };
    let tokens_available = r.u32("tokens_available")?;
    let packet_counter = r.u64("packet_counter")?;
    let seq = read_u8(&mut r, "seq", CTX)?;
    let stats = LinkStats {
        packets_sent: r.u64("packets_sent")?,
        flits_sent: r.u64("flits_sent")?,
        token_stalls: r.u64("token_stalls")?,
        retries: r.u64("retries")?,
        crc_errors: r.u64("crc_errors")?,
        token_overflows: r.u64("token_overflows")?,
    };
    r.finish()?;
    Ok(LinkControl::from_parts(config, tokens_available, packet_counter, seq, stats))
}

fn tag_pool_json(p: &TagPool) -> Json {
    obj(vec![
        ("capacity", Json::Int(p.capacity() as i128)),
        ("free", Json::Arr(p.free_tags().map(|t| Json::Int(t.value() as i128)).collect())),
    ])
}

fn tag_pool_from_json(v: &Json) -> Result<TagPool, JsonError> {
    let mut r = ObjReader::new("tag_pool", v)?;
    let capacity = r.u32("capacity")?;
    let raw = r
        .required("free")?
        .as_arr()
        .ok_or_else(|| JsonError { message: "tag_pool: free must be an array".into() })?;
    r.finish()?;
    let mut free = Vec::with_capacity(raw.len());
    for t in raw {
        let value = t
            .as_u32()
            .ok_or_else(|| JsonError { message: "tag_pool: free entries must be u32".into() })?;
        free.push(
            Tag::new(value)
                .map_err(|e| JsonError { message: format!("tag_pool: bad tag: {e}") })?,
        );
    }
    TagPool::from_free_list(capacity, free)
        .map_err(|e| JsonError { message: format!("tag_pool: {e}") })
}

// ---------------------------------------------------------------------------
// Transit, retry, shadow
// ---------------------------------------------------------------------------

fn transit_json(t: &Transit) -> Json {
    match t {
        Transit::Rqst { from_dev, to_dev, link, item, ready } => obj(vec![
            ("kind", Json::Str("rqst".into())),
            ("from_dev", int_usize(*from_dev)),
            ("to_dev", int_usize(*to_dev)),
            ("link", int_usize(*link)),
            ("ready", int(*ready)),
            ("item", tracked_request_json(item)),
        ]),
        Transit::Rsp { from_dev, to_dev, link, item, ready } => obj(vec![
            ("kind", Json::Str("rsp".into())),
            ("from_dev", int_usize(*from_dev)),
            ("to_dev", int_usize(*to_dev)),
            ("link", int_usize(*link)),
            ("ready", int(*ready)),
            ("item", tracked_response_json(item)),
        ]),
    }
}

fn transit_from_json(v: &Json) -> Result<Transit, JsonError> {
    let mut r = ObjReader::new("transit", v)?;
    let kind = r.str("kind")?.to_string();
    let to_dev = r.usize("to_dev")?;
    // Pre-fabric snapshots carry no sender; restore() re-derives the
    // edge deterministically when the field is absent.
    let from_dev = match r.optional("from_dev") {
        Some(v) => v
            .as_usize()
            .ok_or_else(|| JsonError { message: "transit: field `from_dev` must be a usize".into() })?,
        None => usize::MAX,
    };
    let link = r.usize("link")?;
    let ready = r.u64("ready")?;
    let item = r.required("item")?;
    let out = match kind.as_str() {
        "rqst" => {
            Transit::Rqst { from_dev, to_dev, link, item: tracked_request_from_json(item)?, ready }
        }
        "rsp" => {
            Transit::Rsp { from_dev, to_dev, link, item: tracked_response_from_json(item)?, ready }
        }
        other => return jerr(format!("transit: unknown kind `{other}`")),
    };
    r.finish()?;
    Ok(out)
}

fn retry_json(e: &RetryEntry) -> Json {
    obj(vec![
        ("dev", int_usize(e.dev)),
        ("link", int_usize(e.link)),
        ("ready", int(e.ready)),
        ("item", tracked_request_json(&e.item)),
    ])
}

fn retry_from_json(v: &Json) -> Result<RetryEntry, JsonError> {
    let mut r = ObjReader::new("retry_entry", v)?;
    let dev = r.usize("dev")?;
    let link = r.usize("link")?;
    let ready = r.u64("ready")?;
    let item = tracked_request_from_json(r.required("item")?)?;
    r.finish()?;
    Ok(RetryEntry { dev, link, item, ready })
}

fn shadow_json(s: &SanitizerShadow) -> Json {
    let mut live: Vec<(usize, usize, u16)> = s.live_tags.iter().copied().collect();
    live.sort_unstable();
    obj(vec![
        ("injected", int(s.injected)),
        ("delivered", int(s.delivered)),
        ("absorbed", int(s.absorbed)),
        ("zombie_dropped", int(s.zombie_dropped)),
        (
            "live_tags",
            Json::Arr(
                live.into_iter()
                    .map(|(d, l, t)| {
                        Json::Arr(vec![int_usize(d), int_usize(l), Json::Int(t as i128)])
                    })
                    .collect(),
            ),
        ),
        (
            "seen_token_overflows",
            Json::Arr(
                s.seen_token_overflows
                    .iter()
                    .map(|dev| u64_list(dev.iter().copied()))
                    .collect(),
            ),
        ),
        (
            "pending",
            Json::Arr(
                s.pending
                    .iter()
                    .map(|v| {
                        obj(vec![
                            ("cycle", int(v.cycle)),
                            ("kind", Json::Str(v.kind.name().to_string())),
                            ("detail", Json::Str(v.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn shadow_from_json(v: &Json) -> Result<SanitizerShadow, JsonError> {
    let mut r = ObjReader::new("shadow", v)?;
    let injected = r.u64("injected")?;
    let delivered = r.u64("delivered")?;
    let absorbed = r.u64("absorbed")?;
    let zombie_dropped = r.u64("zombie_dropped")?;
    let mut live_tags = HashSet::new();
    for entry in r
        .required("live_tags")?
        .as_arr()
        .ok_or_else(|| JsonError { message: "shadow: live_tags must be an array".into() })?
    {
        let triple = entry
            .as_arr()
            .filter(|t| t.len() == 3)
            .ok_or_else(|| JsonError {
                message: "shadow: live_tags entry must be [dev, link, tag]".into(),
            })?;
        let dev = triple[0]
            .as_usize()
            .ok_or_else(|| JsonError { message: "shadow: live tag dev must be usize".into() })?;
        let link = triple[1]
            .as_usize()
            .ok_or_else(|| JsonError { message: "shadow: live tag link must be usize".into() })?;
        let tag = triple[2]
            .as_u32()
            .and_then(|t| u16::try_from(t).ok())
            .ok_or_else(|| JsonError { message: "shadow: live tag value must be u16".into() })?;
        live_tags.insert((dev, link, tag));
    }
    let mut seen_token_overflows = Vec::new();
    for dev in r
        .required("seen_token_overflows")?
        .as_arr()
        .ok_or_else(|| JsonError {
            message: "shadow: seen_token_overflows must be an array".into(),
        })?
    {
        seen_token_overflows.push(read_u64_list(dev, "shadow seen_token_overflows")?);
    }
    let mut pending = Vec::new();
    for entry in r
        .required("pending")?
        .as_arr()
        .ok_or_else(|| JsonError { message: "shadow: pending must be an array".into() })?
    {
        let mut vr = ObjReader::new("violation", entry)?;
        let cycle = vr.u64("cycle")?;
        let kind_name = vr.str("kind")?;
        let kind = ViolationKind::from_name(kind_name).ok_or_else(|| JsonError {
            message: format!("violation: unknown kind `{kind_name}`"),
        })?;
        let detail = vr.str("detail")?.to_string();
        vr.finish()?;
        pending.push(Violation { cycle, kind, detail });
    }
    r.finish()?;
    Ok(SanitizerShadow {
        injected,
        delivered,
        absorbed,
        zombie_dropped,
        live_tags,
        seen_token_overflows,
        pending,
    })
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// One [`TraceRecord`] as a 12-element integer array:
/// `[cycle, kind, dev, link, quad, vault, bank, tag, cmd_kind,
/// cmd_value, a, b]` — compact enough that a full flight ring stays a
/// small fraction of the snapshot. `cmd_kind` disambiguates the
/// [`CmdRef`] variants (0 none, 1 standard request, 2 CMC request,
/// 3 interned name, 4 inactive CMC) because the wire code alone
/// cannot (mirroring the request codec's `cmc` flag).
fn trace_record_json(t: &TraceRecord) -> Json {
    let (cmd_kind, cmd_value): (u64, u64) = match t.cmd {
        CmdRef::None => (0, 0),
        CmdRef::Rqst(HmcRqst::Cmc(code)) => (2, code as u64),
        CmdRef::Rqst(cmd) => (1, cmd.code() as u64),
        CmdRef::Name(idx) => (3, idx as u64),
        CmdRef::Inactive(code) => (4, code as u64),
    };
    Json::Arr(vec![
        int(t.cycle),
        int(t.kind.code() as u64),
        int(t.dev as u64),
        int(t.link as u64),
        int(t.quad as u64),
        int(t.vault as u64),
        int(t.bank as u64),
        int(t.tag as u64),
        int(cmd_kind),
        int(cmd_value),
        int(t.a),
        int(t.b),
    ])
}

fn trace_record_from_json(v: &Json) -> Result<TraceRecord, JsonError> {
    const CTX: &str = "flight record";
    let arr = v
        .as_arr()
        .filter(|a| a.len() == 12)
        .ok_or_else(|| JsonError { message: format!("{CTX}: expected a 12-element array") })?;
    let word = |i: usize| -> Result<u64, JsonError> {
        arr[i]
            .as_u64()
            .ok_or_else(|| JsonError { message: format!("{CTX}: element {i} must be a u64") })
    };
    let narrow = |i: usize, max: u64| -> Result<u64, JsonError> {
        let v = word(i)?;
        if v > max {
            return Err(JsonError { message: format!("{CTX}: element {i} out of range") });
        }
        Ok(v)
    };
    let kind = TraceKind::from_code(narrow(1, u8::MAX as u64)? as u8)
        .ok_or_else(|| JsonError { message: format!("{CTX}: unknown kind code") })?;
    let cmd_value = word(9)?;
    let cmd = match word(8)? {
        0 => CmdRef::None,
        1 => CmdRef::Rqst(
            HmcRqst::from_code(u8::try_from(cmd_value).map_err(|_| JsonError {
                message: format!("{CTX}: command code out of range"),
            })?)
            .map_err(|e| JsonError { message: format!("{CTX}: bad command code: {e}") })?,
        ),
        2 => CmdRef::Rqst(HmcRqst::Cmc(u8::try_from(cmd_value).map_err(|_| JsonError {
            message: format!("{CTX}: cmc code out of range"),
        })?)),
        3 => CmdRef::Name(u16::try_from(cmd_value).map_err(|_| JsonError {
            message: format!("{CTX}: name index out of range"),
        })?),
        4 => CmdRef::Inactive(u8::try_from(cmd_value).map_err(|_| JsonError {
            message: format!("{CTX}: inactive code out of range"),
        })?),
        k => return Err(JsonError { message: format!("{CTX}: unknown cmd kind {k}") }),
    };
    Ok(TraceRecord {
        cycle: word(0)?,
        kind,
        dev: narrow(2, u16::MAX as u64)? as u16,
        link: narrow(3, u8::MAX as u64)? as u8,
        quad: narrow(4, u8::MAX as u64)? as u8,
        vault: narrow(5, u16::MAX as u64)? as u16,
        bank: narrow(6, u16::MAX as u64)? as u16,
        tag: narrow(7, u16::MAX as u64)? as u16,
        cmd,
        a: word(10)?,
        b: word(11)?,
    })
}

fn flight_json(f: &FlightSnapshot) -> Json {
    obj(vec![
        ("capacity", int_usize(f.capacity)),
        ("names", Json::Arr(f.names.iter().map(|n| Json::Str(n.clone())).collect())),
        (
            "lanes",
            Json::Arr(
                f.lanes
                    .iter()
                    .map(|l| {
                        obj(vec![
                            ("name", Json::Str(l.name.clone())),
                            ("dropped", int(l.dropped)),
                            (
                                "records",
                                Json::Arr(l.records.iter().map(trace_record_json).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn flight_from_json(v: &Json) -> Result<FlightSnapshot, JsonError> {
    let mut r = ObjReader::new("flight", v)?;
    let capacity = r.usize("capacity")?;
    let mut names = Vec::new();
    for n in r
        .required("names")?
        .as_arr()
        .ok_or_else(|| JsonError { message: "flight: names must be an array".into() })?
    {
        names.push(
            n.as_str()
                .ok_or_else(|| JsonError { message: "flight: name must be a string".into() })?
                .to_string(),
        );
    }
    let mut lanes = Vec::new();
    for lane in r
        .required("lanes")?
        .as_arr()
        .ok_or_else(|| JsonError { message: "flight: lanes must be an array".into() })?
    {
        let mut lr = ObjReader::new("flight lane", lane)?;
        let name = lr.str("name")?.to_string();
        let dropped = lr.u64("dropped")?;
        let mut records = Vec::new();
        for rec in lr
            .required("records")?
            .as_arr()
            .ok_or_else(|| JsonError { message: "flight lane: records must be an array".into() })?
        {
            records.push(trace_record_from_json(rec)?);
        }
        lr.finish()?;
        lanes.push(FlightLaneSnapshot { name, records, dropped });
    }
    r.finish()?;
    Ok(FlightSnapshot { capacity, lanes, names })
}

// ---------------------------------------------------------------------------
// Timing backend
// ---------------------------------------------------------------------------

fn timing_json(t: &crate::timing::TimingSnapshot) -> Json {
    obj(vec![
        ("select", Json::Str(t.select.name().to_string())),
        ("hit_latency", hist_json(&t.stats.hit_latency)),
        ("miss_latency", hist_json(&t.stats.miss_latency)),
        ("divergence", hist_json(&t.stats.divergence)),
        ("shadow_late", int(t.stats.shadow_late)),
        ("shadow_early", int(t.stats.shadow_early)),
        ("shadow_agree", int(t.stats.shadow_agree)),
        ("shadow", Json::Arr(t.shadow.iter().map(bank_json).collect())),
    ])
}

fn timing_from_json(v: &Json) -> Result<crate::timing::TimingSnapshot, JsonError> {
    let mut r = ObjReader::new("timing", v)?;
    let select = crate::timing::TimingSelect::from_name(r.str("select")?)
        .map_err(|e| JsonError { message: format!("timing: {e}") })?;
    let stats = crate::timing::TimingStats {
        hit_latency: hist_from_json(r.required("hit_latency")?)?,
        miss_latency: hist_from_json(r.required("miss_latency")?)?,
        divergence: hist_from_json(r.required("divergence")?)?,
        shadow_late: r.u64("shadow_late")?,
        shadow_early: r.u64("shadow_early")?,
        shadow_agree: r.u64("shadow_agree")?,
    };
    let shadow = json_vec(r.required("shadow")?, "timing shadow", bank_from_json)?;
    r.finish()?;
    Ok(crate::timing::TimingSnapshot { select, stats, shadow })
}

// ---------------------------------------------------------------------------
// Device and top level
// ---------------------------------------------------------------------------

fn device_json(d: &DeviceSnapshot) -> Json {
    obj(vec![
        (
            "xbar_rqst",
            Json::Arr(d.xbar_rqst.iter().map(|q| queue_json(q, tracked_request_json)).collect()),
        ),
        (
            "xbar_rsp",
            Json::Arr(d.xbar_rsp.iter().map(|q| queue_json(q, tracked_response_json)).collect()),
        ),
        (
            "vaults",
            Json::Arr(
                d.vaults
                    .iter()
                    .map(|v| {
                        obj(vec![
                            ("rqst", queue_json(&v.rqst, tracked_request_json)),
                            ("rsp", queue_json(&v.rsp, tracked_response_json)),
                            ("banks", Json::Arr(v.banks.iter().map(bank_json).collect())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("mem", mem_json(&d.mem)),
        ("regs", regs_json(&d.regs)),
        ("stats", stats_json(&d.stats)),
        ("power", power_json(&d.power)),
        ("fault_rng", int(d.fault_rng.raw_state())),
        ("link_up", Json::Arr(d.link_up.iter().map(|&b| Json::Bool(b)).collect())),
        ("fault_idx", int_usize(d.fault_idx)),
        ("timing", timing_json(&d.timing)),
    ])
}

fn device_from_json(v: &Json) -> Result<DeviceSnapshot, JsonError> {
    let mut r = ObjReader::new("device", v)?;
    let xbar_rqst = json_vec(r.required("xbar_rqst")?, "device xbar_rqst", |q| {
        queue_from_json(q, "xbar_rqst", tracked_request_from_json)
    })?;
    let xbar_rsp = json_vec(r.required("xbar_rsp")?, "device xbar_rsp", |q| {
        queue_from_json(q, "xbar_rsp", tracked_response_from_json)
    })?;
    let vaults = json_vec(r.required("vaults")?, "device vaults", |v| {
        let mut vr = ObjReader::new("vault", v)?;
        let rqst = queue_from_json(vr.required("rqst")?, "vault rqst", tracked_request_from_json)?;
        let rsp = queue_from_json(vr.required("rsp")?, "vault rsp", tracked_response_from_json)?;
        let banks = json_vec(vr.required("banks")?, "vault banks", bank_from_json)?;
        vr.finish()?;
        Ok(Vault { rqst, rsp, banks })
    })?;
    let mem = mem_from_json(r.required("mem")?)?;
    let regs = regs_from_json(r.required("regs")?)?;
    let stats = stats_from_json(r.required("stats")?)?;
    let power = power_from_json(r.required("power")?)?;
    let fault_rng = FaultRng::from_raw_state(r.u64("fault_rng")?);
    let link_up = r
        .required("link_up")?
        .as_arr()
        .ok_or_else(|| JsonError { message: "device: link_up must be an array".into() })?
        .iter()
        .map(|b| {
            b.as_bool()
                .ok_or_else(|| JsonError { message: "device: link_up entries must be bools".into() })
        })
        .collect::<Result<Vec<bool>, _>>()?;
    let fault_idx = r.usize("fault_idx")?;
    // Legacy snapshots (schema ≤ the pre-timing-backend era) carry no
    // "timing" field: default to a fresh FixedLatency record, matching
    // the behaviour those snapshots were produced under.
    let timing = match r.optional("timing") {
        Some(v) => timing_from_json(v)?,
        None => crate::timing::TimingSnapshot::default(),
    };
    r.finish()?;
    Ok(DeviceSnapshot {
        xbar_rqst,
        xbar_rsp,
        vaults,
        mem,
        regs,
        stats,
        power,
        fault_rng,
        link_up,
        fault_idx,
        timing,
    })
}

fn json_vec<T>(
    v: &Json,
    ctx: &str,
    item: impl Fn(&Json) -> Result<T, JsonError>,
) -> Result<Vec<T>, JsonError> {
    let arr = v
        .as_arr()
        .ok_or_else(|| JsonError { message: format!("{ctx}: expected an array") })?;
    arr.iter().map(&item).collect()
}

impl SimSnapshot {
    /// Serializes the snapshot into a lossless, versioned [`Json`]
    /// value (the durable form; contrast [`SimSnapshot::to_json`],
    /// the bounded forensic view).
    pub fn to_json_value(&self) -> Json {
        obj(vec![
            ("schema_version", int(SNAPSHOT_SCHEMA_VERSION)),
            ("cycle", int(self.cycle)),
            ("devices", Json::Arr(self.devices.iter().map(device_json).collect())),
            (
                "host_rx",
                Json::Arr(
                    self.host_rx
                        .iter()
                        .map(|dev| {
                            Json::Arr(
                                dev.iter()
                                    .map(|q| {
                                        Json::Arr(
                                            q.iter().map(|r| tracked_response_json(r)).collect(),
                                        )
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "tag_pools",
                Json::Arr(
                    self.tag_pools
                        .iter()
                        .map(|dev| Json::Arr(dev.iter().map(tag_pool_json).collect()))
                        .collect(),
                ),
            ),
            (
                "pool_tags",
                Json::Arr(
                    self.pool_tags
                        .iter()
                        .map(|dev| {
                            Json::Arr(
                                dev.iter()
                                    .map(|set| {
                                        Json::Arr(
                                            set.iter()
                                                .map(|t| Json::Int(t.value() as i128))
                                                .collect(),
                                        )
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
            ("in_transit", Json::Arr(self.in_transit.iter().map(transit_json).collect())),
            (
                "links",
                Json::Arr(
                    self.links
                        .iter()
                        .map(|dev| Json::Arr(dev.iter().map(link_json).collect()))
                        .collect(),
                ),
            ),
            (
                "retry_pending",
                Json::Arr(self.retry_pending.iter().map(retry_json).collect()),
            ),
            (
                "zombie_tags",
                Json::Arr(
                    self.zombie_tags
                        .iter()
                        .map(|set| {
                            let mut v: Vec<(usize, u16)> = set.iter().copied().collect();
                            v.sort_unstable();
                            Json::Arr(
                                v.into_iter()
                                    .map(|(l, t)| {
                                        Json::Arr(vec![int_usize(l), Json::Int(t as i128)])
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "shadow",
                match &self.shadow {
                    Some(s) => shadow_json(s),
                    None => Json::Null,
                },
            ),
            (
                "flight",
                match &self.flight {
                    Some(f) => flight_json(f),
                    None => Json::Null,
                },
            ),
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
        if version != SNAPSHOT_SCHEMA_VERSION {
            return jerr(format!(
                "snapshot: unsupported schema version {version} (expected \
                 {SNAPSHOT_SCHEMA_VERSION})"
            ));
        }
        let cycle = r.u64("cycle")?;
        let devices = json_vec(r.required("devices")?, "snapshot devices", device_from_json)?;
        let host_rx = json_vec(r.required("host_rx")?, "snapshot host_rx", |dev| {
            json_vec(dev, "host_rx device", |q| {
                Ok(json_vec(q, "host_rx queue", tracked_response_from_json)?
                    .into_iter()
                    .collect::<VecDeque<_>>())
            })
        })?;
        let tag_pools = json_vec(r.required("tag_pools")?, "snapshot tag_pools", |dev| {
            json_vec(dev, "tag_pools device", tag_pool_from_json)
        })?;
        let pool_tags = json_vec(r.required("pool_tags")?, "snapshot pool_tags", |dev| {
            json_vec(dev, "pool_tags device", |set| {
                let mut out = TagSet::new();
                for t in set
                    .as_arr()
                    .ok_or_else(|| JsonError { message: "pool_tags: expected an array".into() })?
                {
                    let tag = t.as_u32().and_then(|v| Tag::new(v).ok()).ok_or_else(|| {
                        JsonError { message: "pool_tags: entries must be 11-bit tags".into() }
                    })?;
                    out.insert(tag);
                }
                Ok(out)
            })
        })?;
        let in_transit =
            json_vec(r.required("in_transit")?, "snapshot in_transit", transit_from_json)?;
        let links = json_vec(r.required("links")?, "snapshot links", |dev| {
            json_vec(dev, "links device", link_from_json)
        })?;
        let retry_pending =
            json_vec(r.required("retry_pending")?, "snapshot retry_pending", retry_from_json)?;
        let zombie_tags = json_vec(r.required("zombie_tags")?, "snapshot zombie_tags", |set| {
            let mut out = HashSet::new();
            for entry in set
                .as_arr()
                .ok_or_else(|| JsonError { message: "zombie_tags: expected an array".into() })?
            {
                let pair = entry.as_arr().filter(|p| p.len() == 2).ok_or_else(|| JsonError {
                    message: "zombie_tags: entry must be [link, tag]".into(),
                })?;
                let link = pair[0].as_usize().ok_or_else(|| JsonError {
                    message: "zombie_tags: link must be usize".into(),
                })?;
                let tag = pair[1].as_u32().and_then(|v| u16::try_from(v).ok()).ok_or_else(
                    || JsonError { message: "zombie_tags: tag must be u16".into() },
                )?;
                out.insert((link, tag));
            }
            Ok(out)
        })?;
        let shadow = match r.required("shadow")? {
            Json::Null => None,
            v => Some(shadow_from_json(v)?),
        };
        // Optional for compatibility: schema-v1 snapshots written
        // before the flight recorder existed have no `flight` key.
        let flight = match r.optional("flight") {
            None | Some(Json::Null) => None,
            Some(v) => Some(flight_from_json(v)?),
        };
        r.finish()?;
        Ok(SimSnapshot {
            cycle,
            devices,
            host_rx,
            tag_pools,
            pool_tags,
            in_transit,
            links,
            retry_pending,
            zombie_tags,
            shadow,
            flight,
        })
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
        assert_eq!(hex_decode(&hex, "t").unwrap(), bytes);
        assert!(hex_decode("0", "t").is_err(), "odd length");
        assert!(hex_decode("zz", "t").is_err(), "bad digit");
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
    fn unsupported_schema_version_rejected() {
        let text = r#"{"schema_version":999,"cycle":0}"#;
        let err = SimSnapshot::from_json(text).unwrap_err();
        assert!(err.message.contains("unsupported schema version"), "{}", err.message);
    }
}
