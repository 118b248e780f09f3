//! The snapshot codec and the state fingerprint describe the same
//! state.
//!
//! * **Byte stability** — `tests/golden/snapshot_v3.json` is the busy
//!   mesh's snapshot as this schema renders it (`BLESS=1 cargo test
//!   --test snapshot_codec golden` regenerates it after an intentional
//!   format change; review the diff and bump `SNAPSHOT_SCHEMA_VERSION`).
//!   It must load and re-render byte for byte, and the same scenario
//!   must still render to it. `tests/golden/snapshot_v2.json`, rendered
//!   before snapshots named their machine, and `snapshot_v1.json`,
//!   rendered before flight lanes were packed, are the legacy loads:
//!   each decodes to the same fingerprint and flight records and
//!   re-renders as v3 with no `config` and no CMC fields.
//! * **Coverage** — every persisted leaf outside the sections the
//!   fingerprint does not visit (the observers `shadow`, `flight`,
//!   `timing` and the machine: `config`, `cmc_libraries`, `cmc_codes`)
//!   moves the fingerprint, no leaf inside one does, and a live context
//!   fingerprints like its snapshot. A packed flight lane is perturbed
//!   digit by digit: each either decodes, fingerprint unmoved, or is a
//!   typed error. Together with `snapshot_roundtrip.rs` (decode∘encode
//!   keeps the fingerprint) this pins *fingerprint ≡ persisted state
//!   modulo observers and machine*.
//! * **A snapshot names its machine** — `HmcSim::from_snapshot`
//!   rebuilds the busy mesh, CMC libraries included, from the snapshot
//!   alone; an operation added with `load_cmc`, one removed with
//!   `unload_cmc` and a v2 snapshot are typed errors.
//! * **Restorable geometry and routes only** — `restore` refuses an
//!   array that does not fit, and a packet the context cannot route,
//!   before it changes anything.
//! * **Restorable timelines only** — a flight section with capacity 0,
//!   a lane over capacity or any lane list but the five lanes in order
//!   is rejected, from either schema.
//! * **Parsers never panic** — seeded mutations of a snapshot (decoded
//!   and rebuilt with `from_snapshot`, and once more with only its
//!   machine mutated), a configuration, a replay checkpoint, a
//!   checkpoint header, a forensic dump, a fuzz scenario, a kernel
//!   descriptor and a fuzz journal end in `Ok` or a typed error, and
//!   every packed lane cut short or given a bad kind or command kind is
//!   rejected.

use hmcsim::cmc::ops;
use hmcsim::prelude::*;
use hmcsim::sim::{
    FaultPlan, Json, LinkConfig, LinkErrorMode, SimConfig, SimSnapshot, TelemetryConfig,
};

/// A cube small enough that a whole snapshot is a reviewable golden:
/// 8 vaults of 2 banks instead of 32 of 16.
fn small_cube() -> DeviceConfig {
    let mut d = DeviceConfig::gen2_4link_4gb();
    d.vaults_per_quad = 2;
    d.banks_per_vault = 2;
    d.bank_latency = 2;
    d.link_config = LinkConfig { tokens: Some(96), error_period: None, retry_latency: 6 };
    d.hop_latency = 3;
    d
}

/// A 2x2 mesh stopped mid-flight with every structure populated:
/// packets in crossbar and vault queues, on fabric edges (`in_transit`),
/// in the link-layer retry buffer, parked in host receive buffers, an
/// abandoned (zombie) tag, pool-registered tags, a downed link, touched
/// memory, registers and statistics — plus all three observers
/// (sanitizer shadow, flight recorder, validated-timing shadow banks).
fn busy_mesh() -> HmcSim {
    let mut cube = small_cube();
    cube.fault = FaultPlan::seeded(5)
        .with_link_errors(LinkErrorMode::EveryNth(3))
        .with_vault_errors(80_000)
        .with_poison(80_000)
        .with_link_event(6, 3, false);
    let mut config = SimConfig::mesh(cube, 2, 2);
    config.timing = TimingSelect::Validated;
    let mut sim = HmcSim::with_config(config).unwrap();
    // The golden renders the live configuration: pinned, whatever
    // HMCSIM_SKIP says.
    sim.set_skip_mode(SkipMode::Off);
    ops::register_builtin_libraries();
    for dev in 0..4 {
        sim.load_cmc_library(dev, ops::MUTEX_LIBRARY).unwrap();
        for link in 0..4 {
            sim.configure_tag_pool(dev, link, 12).unwrap();
        }
    }
    sim.enable_sanitizer(SanitizerConfig::report());
    sim.enable_flight_recorder(4);
    sim.enable_telemetry(TelemetryConfig::with_window(8));
    sim.jtag_reg_write(2, hmcsim::sim::regs::REG_GC, 0xA5).unwrap();

    let mut abandoned = false;
    for i in 0..10u64 {
        for dev in 0..4usize {
            let link = (i as usize + dev) % 4; // link 3 goes down at cycle 6
            let target = Cub::new(((dev as u64 + i) % 4) as u8).unwrap();
            let addr = ((i * 4 + dev as u64) * 0x40) % 0x1000;
            // Stalls, exhausted pools, token shortages and the dead
            // link are part of the scenario.
            let sent = match i % 4 {
                0 => sim.send_to_cube(dev, link, target, HmcRqst::Rd64, addr, vec![]),
                1 => sim.send_to_cube(dev, link, target, HmcRqst::Wr32, addr, vec![i, addr, 3, 4]),
                2 => sim.send_to_cube(dev, link, target, HmcRqst::Inc8, addr, vec![]),
                _ => sim.send_cmc(dev, link, ops::mutex::LOCK_CMD, addr, vec![dev as u64 + 1, 0]),
            };
            if let (Ok(Some(tag)), false, 8..) = (sent, abandoned, i) {
                // The host gives up on one late request: its response
                // is still in flight when the snapshot is taken.
                sim.abandon_tag(dev, link, tag).unwrap();
                abandoned = true;
            }
        }
        sim.clock();
    }
    sim
}

/// The faulted single cube of `crates/sim/tests/snapshot_roundtrip.rs`
/// (same plan and traffic, on the small geometry), with the sanitizer
/// and telemetry on, no flight recorder and the default timing backend.
fn faulted_cube() -> HmcSim {
    let mut config = small_cube();
    config.fault = FaultPlan {
        seed: 77,
        link_error: LinkErrorMode::EveryNth(7),
        poison_per_million: 200_000,
        vault_error_per_million: 100_000,
        link_schedule: Vec::new(),
    };
    let mut sim = HmcSim::new(config).unwrap();
    sim.enable_sanitizer(SanitizerConfig::report());
    sim.enable_telemetry(TelemetryConfig::with_window(64));
    for link in 0..4 {
        sim.configure_tag_pool(0, link, 24).unwrap();
    }
    for i in 0..40u64 {
        let a = (i * 37) % 2048;
        let cmd = [HmcRqst::Rd64, HmcRqst::Wr16, HmcRqst::Inc8, HmcRqst::Rd16][i as usize % 4];
        let payload = if cmd == HmcRqst::Wr16 { vec![a ^ 0xDEAD, a] } else { vec![] };
        // Stalls and exhausted pools are part of the scenario.
        let _ = sim.send_simple(0, i as usize % 4, cmd, (a * 16) & !15, payload);
        sim.clock();
    }
    sim.clock_n(2);
    sim
}

/// Scalar values under `v` (empty containers hold none).
fn count_leaves(v: &Json) -> usize {
    match v {
        Json::Arr(items) => items.iter().map(count_leaves).sum(),
        Json::Obj(fields) => fields.iter().map(|(_, v)| count_leaves(v)).sum(),
        _ => 1,
    }
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// A golden file's text without its trailing newline.
fn read_golden(name: &str) -> String {
    let path = golden_path(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run with BLESS=1", path.display())
    });
    text.trim_end().to_string()
}

/// A schema-3 document with its machine taken out — `config` null and
/// every device's CMC fields empty — which is how a v1 or v2 document
/// re-renders.
fn without_machine(mut doc: Json) -> Json {
    let Json::Obj(top) = &mut doc else { panic!("a snapshot is an object") };
    set_field(top, "config", Json::Null);
    for device in array_at(&mut doc, "devices") {
        let Json::Obj(fields) = device else { panic!("a device is an object") };
        set_field(fields, "cmc_libraries", Json::Arr(vec![]));
        set_field(fields, "cmc_codes", Json::Arr(vec![]));
    }
    doc
}

#[test]
fn golden_snapshot_loads_and_re_renders_byte_identically() {
    let snap = busy_mesh().snapshot();
    let rendered = snap.to_json_full();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(golden_path("snapshot_v3.json"), format!("{rendered}\n")).unwrap();
    }
    let golden = read_golden("snapshot_v3.json");
    assert!(
        rendered == golden,
        "snapshot_v3.json drifted from the checked-in snapshot bytes; if intentional, bump \
         SNAPSHOT_SCHEMA_VERSION, regenerate with BLESS=1 cargo test --test snapshot_codec golden \
         and review the diff"
    );

    // The files on disk — not what this build just rendered — through
    // the decoder and back.
    let loaded = SimSnapshot::from_json(&golden).expect("the v3 golden loads");
    assert!(loaded.to_json_full() == golden, "the v3 golden re-renders byte for byte");
    assert_eq!(loaded.fingerprint(), snap.fingerprint());
    let machineless = without_machine(Json::parse(&golden).unwrap()).render();
    for name in ["snapshot_v2.json", "snapshot_v1.json"] {
        let legacy = SimSnapshot::from_json(&read_golden(name)).expect(name);
        assert_eq!(legacy.fingerprint(), snap.fingerprint(), "{name}");
        assert_eq!(legacy.flight(), snap.flight(), "{name}");
        assert!(legacy.config().is_none(), "{name} names no machine");
        assert!(legacy.to_json_full() == machineless, "{name} re-renders as v3 without a machine");
    }
    assert!(snap.flight().is_some_and(|f| f.len() == 20), "every lane holds records");

    // The scenario is what its doc comment says it is.
    let doc = Json::parse(&golden).unwrap();
    for section in ["in_transit", "retry_pending", "host_rx", "pool_tags", "zombie_tags"] {
        assert!(count_leaves(doc.get(section).unwrap()) > 0, "`{section}` holds nothing");
    }
}

// ---------------------------------------------------------------------------
// Restorable timelines only
// ---------------------------------------------------------------------------

/// An edit of a flight section's fields.
type FlightEdit = dyn Fn(&mut Vec<(String, Json)>);

/// The error decoding `doc` meets once `edit` has rewritten its
/// `flight` section's fields.
fn flight_rejection(mut doc: Json, edit: &FlightEdit) -> String {
    let Json::Obj(fields) = &mut doc else { panic!("a snapshot is an object") };
    let Some((_, Json::Obj(flight))) = fields.iter_mut().find(|(k, _)| k == "flight") else {
        panic!("the snapshot carries a flight section")
    };
    edit(flight);
    match SimSnapshot::from_json_value(&doc) {
        Ok(_) => panic!("a flight section no recorder can resume decoded"),
        Err(e) => e.message,
    }
}

/// `edit` applied to the busy mesh's snapshot, as this build writes it
/// and as the v1 golden has it: both must fail with `want`.
fn check_flight_rejected(want: &str, edit: &FlightEdit) {
    let current = busy_mesh().snapshot().to_json_value();
    let legacy = Json::parse(&read_golden("snapshot_v1.json")).unwrap();
    for (schema, doc) in [("v3", current), ("v1", legacy)] {
        assert_eq!(flight_rejection(doc, edit), want, "schema {schema}");
    }
}

fn set_field(fields: &mut [(String, Json)], key: &str, value: Json) {
    fields.iter_mut().find(|(k, _)| k == key).expect("the field exists").1 = value;
}

fn lanes(fields: &mut [(String, Json)]) -> &mut Vec<Json> {
    match &mut fields.iter_mut().find(|(k, _)| k == "lanes").expect("lanes").1 {
        Json::Arr(lanes) => lanes,
        _ => panic!("lanes are an array"),
    }
}

#[test]
fn a_flight_section_of_capacity_zero_is_rejected() {
    check_flight_rejected("flight: capacity must be nonzero", &|f| {
        set_field(f, "capacity", Json::Int(0))
    });
}

#[test]
fn a_flight_lane_holding_more_records_than_the_capacity_is_rejected() {
    // Every lane of the busy mesh holds its capacity of 4.
    check_flight_rejected("flight: lane `host` holds 4 records but capacity is 3", &|f| {
        set_field(f, "capacity", Json::Int(3))
    });
}

#[test]
fn a_flight_section_without_the_five_lanes_in_order_is_rejected() {
    const WANT: &str = "flight: lanes must be host, link, vault, bank, engine, in order";
    check_flight_rejected(WANT, &|f| lanes(f).swap(1, 2));
    check_flight_rejected(WANT, &|f| drop(lanes(f).pop()));
    check_flight_rejected(WANT, &|f| {
        let lanes = lanes(f);
        lanes.push(lanes[4].clone());
    });
    check_flight_rejected(WANT, &|f| {
        let Json::Obj(lane) = &mut lanes(f)[0] else { panic!("a lane is an object") };
        set_field(lane, "name", Json::Str("hosts".into()));
    });
}

// ---------------------------------------------------------------------------
// Restorable geometry only
// ---------------------------------------------------------------------------

/// The node at `path` (object keys and array indices, `/`-separated).
fn node_at_path<'a>(doc: &'a mut Json, path: &str) -> &'a mut Json {
    let mut node = doc;
    for step in path.split('/') {
        node = match node {
            Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == step).expect(path).1,
            Json::Arr(items) => &mut items[step.parse::<usize>().expect(path)],
            _ => panic!("{path} runs into a leaf"),
        };
    }
    node
}

/// The array at `path`.
fn array_at<'a>(doc: &'a mut Json, path: &str) -> &'a mut Vec<Json> {
    match node_at_path(doc, path) {
        Json::Arr(items) => items,
        _ => panic!("{path} is not an array"),
    }
}

/// Every per-device, per-link and per-vault array of the busy mesh's
/// snapshot, one element cut or duplicated, still decodes — and
/// `restore` refuses it with an error naming the array, before
/// changing anything.
#[test]
fn restore_refuses_an_array_that_does_not_fit_and_changes_nothing() {
    let mut sim = busy_mesh();
    let base = sim.state_fingerprint();
    let doc = sim.snapshot().to_json_value();
    for path in [
        "devices",
        "host_rx",
        "host_rx/0",
        "tag_pools",
        "tag_pools/0",
        "pool_tags",
        "pool_tags/0",
        "links",
        "links/0",
        "zombie_tags",
        "devices/1/xbar_rqst",
        "devices/1/xbar_rsp",
        "devices/1/link_up",
        "devices/1/vaults",
        "devices/1/vaults/3/banks",
        "devices/1/timing/shadow",
    ] {
        let name = path.rsplit('/').find(|step| step.parse::<usize>().is_err()).unwrap();
        for cut in [true, false] {
            let mut mutant = doc.clone();
            let items = array_at(&mut mutant, path);
            match cut {
                true => drop(items.pop()),
                false => items.push(items[0].clone()),
            }
            let snap = SimSnapshot::from_json_value(&mutant)
                .unwrap_or_else(|e| panic!("{path}: the codec leaves fit to restore: {e}"));
            let err = sim.restore(&snap).expect_err(path).to_string();
            assert!(err.contains(&format!("`{name}`")), "{path}: `{err}` does not name it");
            assert_eq!(sim.state_fingerprint(), base, "{path}: a refused restore moved state");
        }
    }
    sim.restore(&SimSnapshot::from_json_value(&doc).unwrap()).unwrap();
    assert_eq!(sim.state_fingerprint(), base);
}

/// A packet the context cannot carry — a request for a cube its
/// holder cannot route to, an answer owed to a device or link the
/// context lacks — decodes, and `restore` refuses it, naming the
/// array, before changing anything: clocking it would panic on a
/// route that does not exist.
#[test]
fn restore_refuses_a_packet_the_context_cannot_route() {
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    sim.send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![]).unwrap();
    let queued = sim.snapshot().to_json_value();
    sim.clock_n(3);
    let answered = sim.snapshot().to_json_value();
    let base = sim.state_fingerprint();
    for (doc, path, value, array) in [
        (&queued, "devices/0/xbar_rqst/0/items/0/req/cub", 1, "xbar_rqst"),
        (&queued, "devices/0/xbar_rqst/0/items/0/entry_device", 1, "xbar_rqst"),
        (&queued, "devices/0/xbar_rqst/0/items/0/entry_link", 4, "xbar_rqst"),
        (&answered, "host_rx/0/0/0/entry_device", 1, "host_rx"),
        (&answered, "host_rx/0/0/0/entry_link", 4, "host_rx"),
    ] {
        let mut mutant = doc.clone();
        *node_at_path(&mut mutant, path) = Json::Int(value);
        let snap = SimSnapshot::from_json_value(&mutant).expect(path);
        let err = sim.restore(&snap).expect_err(path).to_string();
        assert!(err.contains(&format!("`{array}`")), "{path}: `{err}` does not name it");
        assert_eq!(sim.state_fingerprint(), base, "{path}: a refused restore moved state");
    }
    sim.restore(&SimSnapshot::from_json_value(&queued).unwrap()).unwrap();
    sim.clock_n(3);
    assert_eq!(sim.state_fingerprint(), base, "the unedited snapshot replays");
}

// ---------------------------------------------------------------------------
// A snapshot names its machine
// ---------------------------------------------------------------------------

#[test]
fn from_snapshot_rebuilds_the_busy_mesh_cmc_libraries_included() {
    let mut sim = busy_mesh();
    let text = sim.snapshot().to_json_full();
    let mut rebuilt = HmcSim::from_snapshot(&SimSnapshot::from_json(&text).unwrap()).unwrap();
    assert_eq!(rebuilt.config(), sim.config());
    assert!(rebuilt.snapshot().to_json_full() == text, "the rebuilt context snapshots alike");
    for dev in 0..4 {
        let names = |s: &HmcSim| -> Vec<String> {
            s.cmc_registrations(dev).unwrap().into_iter().map(|r| r.op_name).collect()
        };
        assert_eq!(names(&rebuilt), names(&sim), "device {dev}");
    }
    let violations = |s: &HmcSim| s.sanitizer_report().unwrap().total_violations;
    // A report counts from its sanitizer's start, which the snapshot is
    // not: only what follows it is compared.
    let before = violations(&sim);
    let mut sent = Vec::new();
    for s in [&mut sim, &mut rebuilt] {
        let lock = s.send_cmc(0, 0, ops::mutex::LOCK_CMD, 0x800, vec![7, 0]);
        sent.push(lock.map_err(|e| e.to_string()));
        s.clock_n(40);
    }
    assert_eq!(sent[0], sent[1]);
    assert_eq!(rebuilt.state_fingerprint(), sim.state_fingerprint(), "lockstep");
    assert_eq!(violations(&rebuilt), violations(&sim) - before);
}

#[test]
fn from_snapshot_refuses_a_machine_it_cannot_rebuild() {
    ops::register_builtin_libraries();
    let mutex_cube = || {
        let mut sim = HmcSim::new(small_cube()).unwrap();
        sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();
        sim
    };
    HmcSim::from_snapshot(&mutex_cube().snapshot()).expect("the library loads again");
    let mut added = mutex_cube();
    added.load_cmc(0, Box::new(ops::ticket::TicketTake)).unwrap();
    let mut removed = mutex_cube();
    removed.unload_cmc(0, ops::mutex::TRYLOCK_CMD).unwrap();
    for (what, sim) in [("an op loaded by hand", added), ("an op unloaded", removed)] {
        let err = HmcSim::from_snapshot(&sim.snapshot()).expect_err(what).to_string();
        assert!(err.contains("device 0 records CMC codes"), "{what}: {err}");
    }
    let legacy = SimSnapshot::from_json(&read_golden("snapshot_v2.json")).unwrap();
    let err = HmcSim::from_snapshot(&legacy).expect_err("a v2 snapshot").to_string();
    assert!(err.contains("names no configuration"), "{err}");
}

// ---------------------------------------------------------------------------
// Coverage: fingerprint ≡ persisted state modulo observers
// ---------------------------------------------------------------------------

/// Paths (child indices from the root) of every scalar leaf under
/// `v` — and of every container too, when `containers` is set.
fn paths(v: &Json, containers: bool, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<&Json> = match v {
        Json::Arr(items) => items.iter().collect(),
        Json::Obj(fields) => fields.iter().map(|(_, v)| v).collect(),
        _ => return out.push(prefix.clone()),
    };
    if containers {
        out.push(prefix.clone());
    }
    for (i, child) in children.into_iter().enumerate() {
        prefix.push(i);
        paths(child, containers, prefix, out);
        prefix.pop();
    }
}

/// The node at `path`, and the object keys met on the way down.
fn node_at<'a>(root: &'a mut Json, path: &[usize]) -> (&'a mut Json, Vec<String>) {
    let mut keys = Vec::new();
    let mut node = root;
    for &i in path {
        node = match node {
            Json::Arr(items) => &mut items[i],
            Json::Obj(fields) => {
                keys.push(fields[i].0.clone());
                &mut fields[i].1
            }
            _ => unreachable!("paths end at leaves"),
        };
    }
    (node, keys)
}

/// Other values a leaf could hold, nearest first. Most are rejected
/// by the strict decoder (a duplicate free tag, an unknown command
/// code, a `rqst` transit holding a response); the first accepted one
/// is the perturbation.
fn candidates(leaf: &Json) -> Vec<Json> {
    match leaf {
        Json::Bool(b) => vec![Json::Bool(!b)],
        Json::Null => vec![Json::Int(1)],
        Json::Int(v) => (1..=16).flat_map(|d| [Json::Int(v + d), Json::Int(v - d)]).collect(),
        Json::Str(s) if s.len() > 64 => {
            // A page: flip one hex digit.
            let digit = if s.starts_with('0') { "1" } else { "0" };
            vec![Json::Str(format!("{digit}{}", &s[1..]))]
        }
        Json::Str(s) => ["read", "write", "atomic", "cmc", "other", "rqst", "rsp"]
            .into_iter()
            .filter(|name| name != s)
            .map(|name| Json::Str(name.to_string()))
            .collect(),
        Json::Arr(_) | Json::Obj(_) => unreachable!("not a leaf"),
    }
}

/// The sections the fingerprint does not visit: the observers and the
/// machine the state runs on.
const UNVISITED: [&str; 6] = ["shadow", "flight", "timing", "config", "cmc_libraries", "cmc_codes"];

/// Hex digits of one packed flight record.
const RECORD_DIGITS: usize = 76;

/// Sets each digit of the first record of the packed flight lane at
/// `path` to `f` (`0` where it is `f` already), one at a time: the
/// result either decodes, leaving the fingerprint at `base` (the
/// recorder is an observer), or is a typed error — a kind or command
/// kind no record has. Returns how many decoded; both outcomes must
/// occur in a lane that holds a record.
fn perturb_packed_lane(doc: &mut Json, path: &[usize], base: u64) -> usize {
    let original = node_at(doc, path).0.clone();
    let hex = original.as_str().expect("a packed lane is a string").to_string();
    let (mut decoded, mut rejected) = (0, 0);
    for at in 0..hex.len().min(RECORD_DIGITS) {
        let digit = if hex.as_bytes()[at] == b'f' { "0" } else { "f" };
        let mut perturbed = hex.clone();
        perturbed.replace_range(at..at + 1, digit);
        *node_at(doc, path).0 = Json::Str(perturbed);
        match SimSnapshot::from_json_value(doc) {
            Ok(snap) => {
                assert_eq!(snap.fingerprint(), base, "digit {at} of packed lane {path:?}");
                decoded += 1;
            }
            Err(e) => {
                assert!(e.message.starts_with("flight record: "), "{}", e.message);
                rejected += 1;
            }
        }
    }
    *node_at(doc, path).0 = original;
    assert!(hex.is_empty() || (decoded > 0 && rejected > 0), "lane {path:?}: {decoded}/{rejected}");
    decoded
}

/// Perturbs every leaf of `snap`'s JSON form, one at a time: a leaf
/// outside the [`UNVISITED`] sections must move the fingerprint, a leaf
/// inside one must not. Returns the accepted perturbations per
/// top-level section (unvisited leaves count under their section).
fn check_every_leaf(snap: &SimSnapshot) -> std::collections::BTreeMap<String, usize> {
    let base = snap.fingerprint();
    let mut doc = snap.to_json_value();
    let mut leaves = Vec::new();
    paths(&doc, false, &mut Vec::new(), &mut leaves);
    let mut accepted = std::collections::BTreeMap::new();
    for path in leaves {
        let (leaf, keys) = node_at(&mut doc, &path);
        let original = leaf.clone();
        if keys.last().is_some_and(|k| k == "records") {
            let decoded = perturb_packed_lane(&mut doc, &path, base);
            *accepted.entry("flight".to_string()).or_insert(0) += decoded;
            continue;
        }
        // The schema version names a layout, not state: version 1 still
        // reads a document without recorded lanes, to the same state.
        let observer = keys
            .iter()
            .find(|k| UNVISITED.contains(&k.as_str()) || *k == "schema_version")
            .cloned();
        let decoded = candidates(&original).into_iter().find_map(|candidate| {
            *node_at(&mut doc, &path).0 = candidate;
            SimSnapshot::from_json_value(&doc).ok()
        });
        *node_at(&mut doc, &path).0 = original;
        let Some(perturbed) = decoded else {
            // Only a closed vocabulary (or an absent observer's `null`)
            // may reject every candidate — and a configuration, which
            // must stay valid.
            let leaf_key = keys.last().unwrap().as_str();
            assert!(
                ["schema_version", "kind", "select", "name", "names", "shadow", "flight"]
                    .contains(&leaf_key)
                    || keys[0] == "config",
                "no perturbation of {keys:?} (path {path:?}) decodes: the leaf is not covered"
            );
            continue;
        };
        match &observer {
            None => assert_ne!(
                perturbed.fingerprint(),
                base,
                "{keys:?} (path {path:?}) is persisted but does not move the fingerprint"
            ),
            Some(observer) => assert_eq!(
                perturbed.fingerprint(),
                base,
                "{keys:?} (path {path:?}) is under `{observer}` and moves the fingerprint"
            ),
        }
        *accepted.entry(observer.unwrap_or_else(|| keys[0].clone())).or_insert(0) += 1;
    }
    assert_eq!(doc, snap.to_json_value(), "every perturbation was undone");
    accepted
}

/// `check_every_leaf`, which must have perturbed every listed section.
fn check_sections(snap: &SimSnapshot, sections: &[&str]) {
    let accepted = check_every_leaf(snap);
    for section in sections {
        assert!(
            accepted.get(*section).is_some_and(|&n| n > 0),
            "`{section}` was never perturbed: {accepted:?}"
        );
    }
}

#[test]
fn every_leaf_of_the_busy_mesh_moves_the_fingerprint_unless_an_observer_owns_it() {
    check_sections(
        &busy_mesh().snapshot(),
        &[
            "cycle",
            "devices",
            "host_rx",
            "tag_pools",
            "pool_tags",
            "in_transit",
            "links",
            "retry_pending",
            "zombie_tags",
            "shadow",
            "flight",
            "timing",
            "config",
            "cmc_libraries",
            "cmc_codes",
        ],
    );
}

#[test]
fn every_leaf_of_the_faulted_cube_moves_the_fingerprint_unless_an_observer_owns_it() {
    check_sections(
        &faulted_cube().snapshot(),
        &[
            "cycle", "devices", "host_rx", "tag_pools", "pool_tags", "links", "shadow", "timing",
            "config",
        ],
    );
}

#[test]
fn a_live_context_fingerprints_like_its_snapshot() {
    let mut drained = faulted_cube();
    drained.drain(1_000_000);
    let pristine = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    for (name, sim) in [
        ("busy mesh", busy_mesh()),
        ("faulted cube", faulted_cube()),
        ("drained cube", drained),
        ("pristine cube", pristine),
    ] {
        let snap = sim.snapshot();
        assert_eq!(sim.state_fingerprint(), snap.fingerprint(), "{name}");
        let reloaded = SimSnapshot::from_json(&snap.to_json_full()).unwrap();
        assert_eq!(reloaded.fingerprint(), snap.fingerprint(), "{name} through JSON");
    }
    assert_ne!(busy_mesh().state_fingerprint(), faulted_cube().state_fingerprint());
}

// ---------------------------------------------------------------------------
// Parsers never panic
// ---------------------------------------------------------------------------

/// xorshift64*: the seeded stream the mutation loops draw from.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One structural mutation of `doc`: a key or item removed or
/// duplicated, or a node replaced by an out-of-range integer or a
/// value of another shape.
fn mutate_tree(doc: &mut Json, nodes: &[Vec<usize>], rng: &mut Rng) {
    let path = &nodes[rng.below(nodes.len())];
    let Some((&last, parent_path)) = path.split_last() else { return };
    let parent = node_at(doc, parent_path).0;
    let replacement = [
        Json::Int(-1),
        Json::Int(u64::MAX as i128 + 1),
        Json::Int(i128::MAX),
        Json::Int(1 << 40),
        Json::Null,
        Json::Str("zz".into()),
        Json::Arr(vec![]),
        Json::Obj(vec![]),
    ][rng.below(8)]
    .clone();
    match (parent, rng.below(3)) {
        (Json::Arr(items), 0) => drop(items.remove(last)),
        (Json::Arr(items), 1) => items.insert(last, items[last].clone()),
        (Json::Arr(items), _) => items[last] = replacement,
        (Json::Obj(fields), 0) => drop(fields.remove(last)),
        (Json::Obj(fields), 1) => fields.insert(last, fields[last].clone()),
        (Json::Obj(fields), _) => fields[last].1 = replacement,
        _ => unreachable!("a parent is a container"),
    }
}

/// One textual mutation: flipped bits, a truncation, or a spliced
/// fragment of the text itself.
fn mutate_text(text: &str, rng: &mut Rng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match rng.below(3) {
        0 => {
            for _ in 0..=rng.below(3) {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
        }
        1 => bytes.truncate(rng.below(bytes.len())),
        _ => {
            let (from, at) = (rng.below(bytes.len()), rng.below(bytes.len()));
            let fragment = bytes[from..(from + 1 + rng.below(24)).min(bytes.len())].to_vec();
            bytes.splice(at..at, fragment);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Every packed flight lane of `doc` that holds a record, broken four
/// ways, each rendered back to text beside the error it must meet: one
/// digit short (odd length), one byte short (a partial record), the
/// last record's kind byte set to a retired code (20), its command
/// kind set to one no record has (5).
fn packed_lane_mutants(doc: &Json) -> Vec<(String, &'static str)> {
    let mut tree = doc.clone();
    let mut leaves = Vec::new();
    paths(doc, false, &mut Vec::new(), &mut leaves);
    let mut out = Vec::new();
    for path in leaves {
        let (leaf, keys) = node_at(&mut tree, &path);
        let hex = match leaf {
            Json::Str(hex) if keys.last().is_some_and(|k| k == "records") && !hex.is_empty() => {
                hex.clone()
            }
            _ => continue,
        };
        let last = hex.len() - RECORD_DIGITS;
        for (mutant, error) in [
            (hex[1..].to_string(), "not a whole number of records"),
            (hex[2..].to_string(), "not a whole number of records"),
            (format!("{}14{}", &hex[..last + 16], &hex[last + 18..]), "unknown kind code"),
            (format!("{}05{}", &hex[..last + 38], &hex[last + 40..]), "unknown cmd kind 5"),
        ] {
            *node_at(&mut tree, &path).0 = Json::Str(mutant);
            out.push((tree.render(), error));
        }
        *node_at(&mut tree, &path).0 = Json::Str(hex);
    }
    out
}

/// Feeds `parse` seeded mutations of `text`: half textual, half
/// structural (rendered back to text, so a duplicated key reaches the
/// parser as one). `parse` returning at all is the property — an `Err`
/// is a typed error by construction, a panic fails the test. At least
/// one mutant of each kind must have been rejected, or the loop proved
/// nothing. Then every [`packed_lane_mutants`] case must be rejected
/// with its error; returns how many there were.
fn never_panics(
    name: &str,
    text: &str,
    rounds: usize,
    parse: impl Fn(&str) -> Result<(), String>,
) -> usize {
    parse(text).unwrap_or_else(|e| panic!("{name}: the unmutated text is rejected: {e}"));
    let doc = Json::parse(text).unwrap();
    let mut nodes = Vec::new();
    paths(&doc, true, &mut Vec::new(), &mut nodes);
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ text.len() as u64);
    let mut rejected = [0usize; 2];
    for round in 0..rounds {
        let mutant = if round % 2 == 0 {
            mutate_text(text, &mut rng)
        } else {
            let mut tree = doc.clone();
            mutate_tree(&mut tree, &nodes, &mut rng);
            tree.render()
        };
        rejected[round % 2] += parse(&mutant).is_err() as usize;
    }
    assert!(rejected[0] > 0 && rejected[1] > 0, "{name}: no mutant was rejected ({rejected:?})");
    let packed = packed_lane_mutants(&doc);
    for (mutant, want) in &packed {
        match parse(mutant) {
            Ok(()) => panic!("{name}: a broken packed lane decoded (want `{want}`)"),
            Err(e) => assert!(e.contains(want), "{name}: `{e}` is not `{want}`"),
        }
    }
    packed.len()
}

#[test]
fn mutated_documents_are_rejected_with_typed_errors_never_a_panic() {
    use hmcsim::workloads::tracefile::{
        replay_resumable, synthetic_trace, ReplayCheckpoint, ReplayConfig,
    };

    // A snapshot with every section populated: five recorded lanes.
    // What decodes is rebuilt from the file alone.
    let busy = busy_mesh();
    let snapshot = busy.snapshot().to_json_full();
    let rebuild = |text: &str| {
        let snap = SimSnapshot::from_json(text).map_err(|e| e.to_string())?;
        HmcSim::from_snapshot(&snap).map(drop).map_err(|e| e.to_string())
    };
    let packed = never_panics("snapshot", &snapshot, 300, rebuild);
    assert_eq!(packed, 5 * 4, "every lane of the busy mesh was broken four ways");

    // The machine alone: its configuration, and the snapshot with only
    // `config` and the devices' CMC fields mutated.
    let config = busy.config().to_json().render();
    never_panics("configuration", &config, 300, |text| {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        SimConfig::from_json(&doc).map(drop).map_err(|e| e.to_string())
    });
    let doc = Json::parse(&snapshot).unwrap();
    let mut machine = Vec::new();
    paths(&doc, true, &mut Vec::new(), &mut machine);
    machine.retain(|path| {
        let mut keys = Vec::new();
        path.iter().try_fold(&doc, |node, &i| match node {
            Json::Arr(items) => items.get(i),
            Json::Obj(fields) => fields.get(i).map(|(k, v)| {
                keys.push(k.as_str());
                v
            }),
            _ => None,
        });
        keys.first() == Some(&"config") || keys.iter().any(|k| k.starts_with("cmc_"))
    });
    let mut rng = Rng(0x5EED);
    let mut outcomes = [0usize; 2];
    for _ in 0..200 {
        let mut tree = doc.clone();
        mutate_tree(&mut tree, &machine, &mut rng);
        outcomes[rebuild(&tree.render()).is_ok() as usize] += 1;
    }
    assert!(outcomes[0] > 0 && outcomes[1] > 0, "machine mutants rejected, rebuilt: {outcomes:?}");

    // A replay checkpoint (cursor state around a recorded snapshot).
    let mut sim = HmcSim::new(small_cube()).unwrap();
    sim.enable_flight_recorder(8);
    let config = ReplayConfig { checkpoint_every: 16, ..Default::default() };
    let (_, ckpt) = replay_resumable(&mut sim, &synthetic_trace(4, 16, 64), &config, None).unwrap();
    let ckpt = ckpt.expect("the replay took a checkpoint").to_json();
    let packed = never_panics("replay checkpoint", &ckpt, 300, |text| {
        ReplayCheckpoint::from_json(text).map(drop).map_err(|e| e.to_string())
    });
    assert!(packed > 0, "the replay checkpoint carries recorded lanes");

    // A forensic dump, read the way a replay reads it from disk.
    let mut sim = HmcSim::new(small_cube()).unwrap();
    sim.enable_sanitizer(SanitizerConfig::report());
    sim.enable_flight_recorder(8);
    sim.send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![]).unwrap();
    sim.debug_force_return_tokens(0, 0, 200);
    sim.clock();
    let dump = sim.take_forensic_dump().expect("the over-return cut a dump").to_json();
    let packed = never_panics("forensic dump", &dump, 300, |text| {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let member = doc.get("snapshot").ok_or("no snapshot member")?;
        SimSnapshot::from_json_value(member).map(drop).map_err(|e| e.to_string())
    });
    assert!(packed > 0, "the forensic dump carries recorded lanes");

    // A checkpoint file's header line, through the store that reads it:
    // a mutant is either quarantined or (a harmless flip) still valid.
    let dir = std::env::temp_dir().join(format!("hmcsim-header-mutants-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = hmcsim::sim::CheckpointStore::open(&dir, 1).unwrap().store;
    store.commit(7, 0xF1F1, b"body").unwrap();
    let file = std::fs::read_to_string(store.path_of(1)).unwrap();
    let (header, body) = file.split_once('\n').unwrap();
    never_panics("checkpoint header", header, 200, |line| {
        let line = line.replace('\n', " ");
        std::fs::write(store.path_of(1), format!("{line}\n{body}")).unwrap();
        let report = hmcsim::sim::CheckpointStore::open(&dir, 1).map_err(|e| e.to_string())?;
        match report.quarantined.first() {
            Some(q) => Err(q.reason.clone()),
            None => Ok(()),
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mutated_scenarios_kernels_and_journals_are_rejected_with_typed_errors_never_a_panic() {
    use hmc_fuzz::{RunJournal, Scenario};
    use hmcsim::workloads::KernelDescriptor;

    // Every seed scenario of the corpus (one per kernel and fabric),
    // whole and as its kernel descriptor alone.
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut files: Vec<_> = std::fs::read_dir(&corpus)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("seed-"))
        .collect();
    files.sort();
    assert!(files.len() >= 6, "the corpus holds its seed scenarios");
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        never_panics(&name, text.trim_end(), 100, |text| {
            Scenario::from_json_str(text).map(drop).map_err(|e| e.to_string())
        });
        let kernel = Scenario::from_json_str(&text).unwrap().kernel.to_json().render();
        never_panics(&format!("{name} kernel"), &kernel, 100, |text| {
            let doc = Json::parse(text).map_err(|e| e.to_string())?;
            KernelDescriptor::from_json(&doc).map(drop).map_err(|e| e.to_string())
        });
    }

    let journal =
        RunJournal { seed: 42, next_index: 17, executed: 17, failures: 2, canary_found: true };
    never_panics("fuzz journal", &journal.to_json(), 300, |text| {
        RunJournal::from_json(text).map(drop).map_err(|e| e.to_string())
    });
}
