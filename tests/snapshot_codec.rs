//! The snapshot codec and the state fingerprint describe the same
//! state.
//!
//! * **Byte stability** — `tests/golden/snapshot_v8.json` is the busy
//!   mesh's snapshot as this schema renders it (`BLESS=1 cargo test
//!   --test snapshot_codec golden` regenerates it after an intentional
//!   format change; review the diff and bump `SNAPSHOT_SCHEMA_VERSION`).
//!   It must load and re-render byte for byte, and the same scenario
//!   must still render to it; its packed lanes are RFC 4648 base64 as
//!   this file's own encoder writes it. `tests/golden/snapshot_v7.json`,
//!   rendered while the configuration carried `quads`, `trace_ring`,
//!   `max_violations`, `spans` and `max_windows`,
//!   `tests/golden/snapshot_v6.json`,
//!   rendered while pages and flight lanes were hex and each link wrote
//!   a `packet_counter`, `snapshot_v5.json`, rendered
//!   while each device carried its power coefficients and each
//!   configured device a `link_error_period`, `snapshot_v4.json`,
//!   rendered under the retired `validated` timing backend with its
//!   record, `snapshot_v3.json`, rendered before pages held only their
//!   nonzero lines, `snapshot_v2.json`, rendered before snapshots named
//!   their machine, and `snapshot_v1.json`, rendered before flight
//!   lanes were packed, are the legacy loads: each decodes to the same
//!   fingerprint and flight records and re-renders as v8 — v2 and v1
//!   with no `config` and no CMC fields. Relabelled as another schema,
//!   a golden is a typed error naming the first field the label
//!   disagrees with.
//! * **Coverage** — every persisted leaf outside the sections the
//!   fingerprint does not visit (the observers `shadow`, `flight`,
//!   `timing` and the machine: `config`, `cmc_libraries`, `cmc_codes`)
//!   moves the fingerprint, no leaf inside one does, every leaf the
//!   configuration fixes (a queue depth, the memory capacity, a link's
//!   configuration, and their sources in `config`) makes
//!   `HmcSim::from_snapshot` a typed error, and a live context
//!   fingerprints like its snapshot. A packed flight lane is perturbed
//!   byte by byte: each either decodes, fingerprint unmoved, or is a
//!   typed error. A page's line mask is perturbed bit by bit and
//!   rotated: a flipped bit is a typed error, a rotation moves the lines
//!   and the fingerprint. Together with `snapshot_roundtrip.rs` (decode∘encode
//!   keeps the fingerprint) this pins *fingerprint ≡ persisted state
//!   modulo observers and machine*.
//! * **A snapshot names its machine** — `HmcSim::from_snapshot`
//!   rebuilds the busy mesh, CMC libraries included, from the snapshot
//!   alone; an operation added with `load_cmc`, one removed with
//!   `unload_cmc`, a device timed by another backend than the
//!   configuration names and a v2 snapshot are typed errors. A v5
//!   document holds one machine: a power coefficient other than the
//!   model's constant is a typed error naming the leaf, and a
//!   `link_error_period` loads as the `every_nth` plan it ran, or, at 0
//!   or beside another plan, is a typed error. A v6 link's
//!   `packet_counter` other than its `packets_sent` is a typed error
//!   naming the leaf.
//! * **A checkpoint costs a third more than memory holds** — a snapshot
//!   of dense pages renders to at most 4/3 of their bytes plus a fixed
//!   allowance.
//! * **Restorable geometry and routes only** — `restore` refuses an
//!   array that does not fit, a size the configuration fixes otherwise,
//!   a packet the context cannot route and a transit between devices no
//!   edge joins, before it changes anything.
//! * **Restorable timelines only** — a flight section with capacity 0,
//!   a lane over capacity or any lane list but the five lanes in order
//!   is rejected, from either schema.
//! * **Parsers never panic** — seeded mutations of a snapshot (decoded
//!   and rebuilt with `from_snapshot`, and once more with only its
//!   machine mutated), a configuration, a replay checkpoint, a
//!   checkpoint header, a forensic dump, a fuzz scenario, a kernel
//!   descriptor and a fuzz journal end in `Ok` or a typed error (the
//!   snapshot as written now and as the v7, v6, v5, v4, v3 and v1
//!   goldens, and the replay checkpoint as written now and as its v7
//!   golden), and
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
    d.link_config = LinkConfig { tokens: Some(96), retry_latency: 6 };
    d.hop_latency = 3;
    d
}

/// A 2x2 mesh stopped mid-flight with every structure populated:
/// packets in crossbar and vault queues, on fabric edges (`in_transit`),
/// in the link-layer retry buffer, parked in host receive buffers, an
/// abandoned (zombie) tag, pool-registered tags, a downed link, touched
/// memory, registers and statistics — plus both observers (sanitizer
/// shadow, flight recorder) and the timing backend's latency classes.
fn busy_mesh() -> HmcSim {
    let mut cube = small_cube();
    cube.fault = FaultPlan::seeded(5)
        .with_link_errors(LinkErrorMode::EveryNth(3))
        .with_vault_errors(80_000)
        .with_poison(80_000)
        .with_link_event(6, 3, false);
    let mut sim = HmcSim::with_config(SimConfig::mesh(cube, 2, 2)).unwrap();
    // The golden renders the live configuration: pinned, whatever
    // HMCSIM_SKIP and HMCSIM_TIMING say.
    sim.set_skip_mode(SkipMode::Off);
    sim.set_timing_model(TimingSelect::FixedLatency);
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

/// A schema-6 document with its machine taken out — `config` null and
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
        std::fs::write(golden_path("snapshot_v8.json"), format!("{rendered}\n")).unwrap();
    }
    let golden = read_golden("snapshot_v8.json");
    assert!(
        rendered == golden,
        "snapshot_v8.json drifted from the checked-in snapshot bytes; if intentional, bump \
         SNAPSHOT_SCHEMA_VERSION, regenerate with BLESS=1 cargo test --test snapshot_codec golden \
         and review the diff"
    );

    // The files on disk — not what this build just rendered — through
    // the decoder and back.
    let loaded = SimSnapshot::from_json(&golden).expect("the v8 golden loads");
    assert!(loaded.to_json_full() == golden, "the v8 golden re-renders byte for byte");
    assert_eq!(loaded.fingerprint(), snap.fingerprint());
    let machineless = without_machine(Json::parse(&golden).unwrap()).render();
    for (name, renders_as) in [
        ("snapshot_v7.json", &golden),
        ("snapshot_v6.json", &golden),
        ("snapshot_v5.json", &golden),
        ("snapshot_v4.json", &golden),
        ("snapshot_v3.json", &golden),
        ("snapshot_v2.json", &machineless),
        ("snapshot_v1.json", &machineless),
    ] {
        let legacy = SimSnapshot::from_json(&read_golden(name)).expect(name);
        assert_eq!(legacy.fingerprint(), snap.fingerprint(), "{name}");
        assert_eq!(legacy.flight(), snap.flight(), "{name}");
        let named = !["snapshot_v2.json", "snapshot_v1.json"].contains(&name);
        assert_eq!(legacy.config().is_some(), named, "{name}: its machine");
        assert!(legacy.to_json_full() == *renders_as, "{name} re-renders as v8");
    }
    assert!(snap.flight().is_some_and(|f| f.len() == 20), "every lane holds records");
    // Each lane is the standard base64 of its packed records, as an
    // encoder written from RFC 4648 alone writes it.
    let doc = Json::parse(&golden).unwrap();
    for lane in doc.get("flight").unwrap().get("lanes").unwrap().as_arr().unwrap() {
        let text = lane.get("records").unwrap().as_str().unwrap();
        assert_eq!(unbase64(text).len(), 4 * RECORD_BYTES, "{text}");
        assert_eq!(base64(&unbase64(text)), text);
    }

    // The scenario is what its doc comment says it is.
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
    match SimSnapshot::from_json_value(doc) {
        Ok(_) => panic!("a flight section no recorder can resume decoded"),
        Err(e) => e.message,
    }
}

/// `edit` applied to the busy mesh's snapshot, as this build writes it
/// and as the v1 golden has it: both must fail with `want`.
fn check_flight_rejected(want: &str, edit: &FlightEdit) {
    let current = busy_mesh().snapshot().to_json_value();
    let legacy = Json::parse(&read_golden("snapshot_v1.json")).unwrap();
    for (schema, doc) in [("v7", current), ("v1", legacy)] {
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
    ] {
        let name = path.rsplit('/').find(|step| step.parse::<usize>().is_err()).unwrap();
        for cut in [true, false] {
            let mut mutant = doc.clone();
            let items = array_at(&mut mutant, path);
            match cut {
                true => drop(items.pop()),
                false => items.push(items[0].clone()),
            }
            let snap = SimSnapshot::from_json_value(mutant)
                .unwrap_or_else(|e| panic!("{path}: the codec leaves fit to restore: {e}"));
            let err = sim.restore(&snap).expect_err(path).to_string();
            assert!(err.contains(&format!("`{name}`")), "{path}: `{err}` does not name it");
            assert_eq!(sim.state_fingerprint(), base, "{path}: a refused restore moved state");
        }
    }
    sim.restore(&SimSnapshot::from_json_value(doc).unwrap()).unwrap();
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
        let snap = SimSnapshot::from_json_value(mutant).expect(path);
        let err = sim.restore(&snap).expect_err(path).to_string();
        assert!(err.contains(&format!("`{array}`")), "{path}: `{err}` does not name it");
        assert_eq!(sim.state_fingerprint(), base, "{path}: a refused restore moved state");
    }
    sim.restore(&SimSnapshot::from_json_value(queued).unwrap()).unwrap();
    sim.clock_n(3);
    assert_eq!(sim.state_fingerprint(), base, "the unedited snapshot replays");
}

/// A two-cube 4Link-4GB chain after eight WR16 sends, half of them to
/// the far cube, and one clock: a transit is on the fabric edge.
fn sent_chain() -> HmcSim {
    let mut sim = HmcSim::with_config(SimConfig::chain(DeviceConfig::gen2_4link_4gb(), 2)).unwrap();
    sim.set_skip_mode(SkipMode::Off);
    sim.set_timing_model(TimingSelect::FixedLatency);
    for i in 0..8u64 {
        let cube = Cub::new((i % 2) as u8).unwrap();
        sim.send_to_cube(0, i as usize % 4, cube, HmcRqst::Wr16, i * 0x40, vec![i, !i]).unwrap();
    }
    sim.clock();
    sim
}

/// A size the configuration fixes, edited in a snapshot, is a typed
/// error naming it: `restore` into a twin refuses it and leaves the twin
/// as it was, and so does `from_snapshot`. An embedded configuration
/// whose capacity disagrees with the memory section is refused by
/// `from_snapshot`, whose context the configuration builds.
#[test]
fn a_snapshot_that_disagrees_with_the_configuration_is_refused() {
    let doc = sent_chain().snapshot().to_json_value();
    for (path, value) in [
        ("devices/0/xbar_rqst/0/depth", Json::Int(100)),
        ("devices/0/vaults/0/rqst/depth", Json::Int(1)),
        ("devices/0/mem/capacity", Json::Int(1 << 30)),
        ("links/0/0/retry_latency", Json::Int(3)),
        ("links/0/0/tokens", Json::Int(7)),
        ("config/devices/0/capacity", Json::Int(1 << 30)),
    ] {
        let mut mutant = doc.clone();
        assert_ne!(*node_at_path(&mut mutant, path), value, "{path} is edited");
        *node_at_path(&mut mutant, path) = value;
        let snap = SimSnapshot::from_json_value(mutant).expect(path);
        let err = HmcSim::from_snapshot(&snap).expect_err(path).to_string();
        let field = path.strip_prefix("config/").map_or(path, |_| "devices/0/mem/capacity");
        assert!(err.contains(&format!("`{field}`")), "{path}: `{err}` does not name {field}");
        let mut twin = sent_chain();
        let base = twin.state_fingerprint();
        match path.starts_with("config/") {
            // `restore` keeps the live configuration.
            true => twin.restore(&snap).expect(path),
            false => {
                let err = twin.restore(&snap).expect_err(path).to_string();
                assert!(err.contains(&format!("`{path}`")), "{path}: `{err}`");
                assert_eq!(twin.state_fingerprint(), base, "{path}: a refused restore moved state");
            }
        }
    }
}

/// A transit's sender is restored as recorded: a `from_dev` that no
/// edge joins to its `to_dev` is a typed error naming the transit, not
/// a packet silently moved onto another edge. Only a transit with no
/// sender at all (schema 1, before the fabric) is re-homed.
#[test]
fn a_transit_from_a_device_no_edge_joins_is_refused() {
    let mut sim = sent_chain();
    let base = sim.state_fingerprint();
    let doc = sim.snapshot().to_json_value();
    assert_eq!(*node_at_path(&mut doc.clone(), "in_transit/0/from_dev"), Json::Int(0));
    for from in [5, 1] {
        let mut mutant = doc.clone();
        *node_at_path(&mut mutant, "in_transit/0/from_dev") = Json::Int(from);
        let snap = SimSnapshot::from_json_value(mutant).unwrap();
        let err = sim.restore(&snap).expect_err("a transit no edge carries").to_string();
        assert!(err.contains("`in_transit/0`"), "from {from}: `{err}`");
        assert_eq!(sim.state_fingerprint(), base, "from {from}: a refused restore moved state");
        HmcSim::from_snapshot(&snap).expect_err("a transit no edge carries");
    }
    let mut senderless = doc.clone();
    let Json::Obj(transit) = node_at_path(&mut senderless, "in_transit/0") else {
        panic!("a transit is an object")
    };
    transit.retain(|(k, _)| k != "from_dev");
    sim.restore(&SimSnapshot::from_json_value(senderless).unwrap()).unwrap();
    assert_eq!(sim.state_fingerprint(), base, "the senderless transit is re-homed onto its edge");
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

/// A device's timing section names the backend that timed it, and the
/// configuration names one for every device: `from_snapshot` refuses a
/// document in which they differ, naming the leaf. `restore` into a
/// context built by hand takes the snapshot's backend, as it always
/// has.
#[test]
fn from_snapshot_refuses_a_device_timed_by_another_backend() {
    let mut doc = busy_mesh().snapshot().to_json_value();
    assert_eq!(*node_at_path(&mut doc, "config/timing"), Json::from("fixed"));
    *node_at_path(&mut doc, "devices/0/timing/select") = "row_buffer".into();
    let snap = SimSnapshot::from_json_value(doc).unwrap();
    let err = HmcSim::from_snapshot(&snap).map(drop).unwrap_err().to_string();
    assert!(err.contains("`devices/0/timing/select`"), "{err}");
    let mut twin = busy_mesh();
    twin.restore(&snap).unwrap();
    assert_eq!(twin.timing_select(), TimingSelect::RowBuffer);
}

/// `tests/golden/snapshot_v5.json` with `edit` applied, rendered.
fn edited_v5(edit: impl FnOnce(&mut Json)) -> String {
    let mut doc = Json::parse(&read_golden("snapshot_v5.json")).unwrap();
    edit(&mut doc);
    doc.render()
}

/// A v5 document carries each device's power coefficients, which no
/// writer set to anything but the model's: one set otherwise is a typed
/// error naming the leaf, where it used to load and move the power
/// report and the fingerprint.
#[test]
fn a_v5_power_coefficient_other_than_the_constant_is_refused() {
    let keys = ["link_flit", "dram_access", "logic_op", "idle_cycle", "clock_hz"];
    for (d, key) in keys.iter().enumerate() {
        let leaf = match *key {
            "clock_hz" => format!("devices/{}/power/clock_hz_bits", d % 4),
            key => format!("devices/{}/power/{key}_pj_bits", d % 4),
        };
        let text = edited_v5(|doc| *node_at_path(doc, &leaf) = Json::from(1.0f64.to_bits()));
        let err = SimSnapshot::from_json(&text).map(drop).unwrap_err().message;
        assert!(err.contains(&format!("`{leaf}`")), "{leaf}: {err}");
    }
}

/// The machine `busy_mesh` runs, written as a v5 document could write
/// it: every device's `link_error_period` set to `period` beside the
/// `link_error` plan `plan` (the golden's own, `every_nth` 3, when
/// `None`).
fn v5_with_link_error_period(period: i128, plan: Option<&str>) -> String {
    edited_v5(|doc| {
        for device in array_at(doc, "config/devices") {
            *node_at_path(device, "link_error_period") = Json::Int(period);
            if let Some(plan) = plan {
                *node_at_path(device, "fault/link_error") = Json::parse(plan).unwrap();
            }
        }
    })
}

/// A v5 document's `link_error_period` is the fault plan's `every_nth`
/// mode written another way: beside mode `none` it loads as that plan,
/// and the context it rebuilds runs on to the state the previous build
/// reached from the same document (the pin). A period of 0, which used
/// to load as an error-free link that fingerprinted apart, and a period
/// beside another plan are typed errors naming the field.
#[test]
fn a_v5_link_error_period_loads_as_the_every_nth_plan_it_ran() {
    ops::register_builtin_libraries();
    let none = Some(r#"{"mode":"none"}"#);
    let text = v5_with_link_error_period(3, none);
    assert!(text.contains(r#""link_error_period":3"#), "the period is written");
    let snap = SimSnapshot::from_json(&text).unwrap();
    let config = snap.config().unwrap();
    assert!(config.devices.iter().all(|d| d.fault.link_error == LinkErrorMode::EveryNth(3)));
    assert!(!snap.to_json_full().contains("link_error_period"), "v6 writes no period");
    let mut sim = HmcSim::from_snapshot(&snap).unwrap();
    let retries = sim.link_stats(0, 0).unwrap().retries;
    for i in 0..12u64 {
        let _ = sim.send_simple(0, (i % 3) as usize, HmcRqst::Rd64, i * 0x40, vec![]);
        sim.clock();
    }
    sim.clock_n(40);
    assert!(sim.link_stats(0, 0).unwrap().retries > retries, "the period still injects");
    assert_eq!((sim.cycle(), sim.state_fingerprint()), (62, 0x797a_f5b1_a565_26e7));

    let random = Some(r#"{"mode":"random","per_million":9}"#);
    for (period, plan) in [(0, none), (5, None), (3, random)] {
        let text = v5_with_link_error_period(period, plan);
        assert!(text.contains(&format!(r#""link_error_period":{period}"#)), "{period}");
        let err = SimSnapshot::from_json(&text).map(drop).unwrap_err().message;
        assert!(err.contains("`link_error_period`"), "{period} beside {plan:?}: {err}");
    }
}

/// A v6 document writes each link's `packet_counter` beside its
/// `packets_sent`, and every send moved both: the step out of schema 6
/// drops the counter, and one that differs from its link's count is a
/// typed error naming the leaf, where it used to load with the link's
/// error phase apart from its statistics.
#[test]
fn a_v6_packet_counter_other_than_packets_sent_is_refused() {
    let golden = Json::parse(&read_golden("snapshot_v6.json")).unwrap();
    for link in ["links/1/2", "links/3/0"] {
        let mut doc = golden.clone();
        let sent = node_at_path(&mut doc, &format!("{link}/packets_sent")).as_u64().unwrap();
        let counter = node_at_path(&mut doc, &format!("{link}/packet_counter"));
        assert_eq!(counter.as_u64(), Some(sent), "{link}: the golden wrote the same count twice");
        *counter = Json::from(sent + 1);
        let err = SimSnapshot::from_json(&doc.render()).map(drop).unwrap_err().message;
        assert!(err.contains(&format!("`{link}/packet_counter`")), "{link}: {err}");
        let Json::Obj(fields) = node_at_path(&mut doc, link) else { panic!("a link is an object") };
        fields.retain(|(k, _)| k != "packet_counter");
        let err = SimSnapshot::from_json(&doc.render()).map(drop).unwrap_err().message;
        assert_eq!(err, "link: missing field `packet_counter`", "{link}");
    }
}

/// A v7 document's configuration writes five settings that no writer
/// set to anything but their constants: the step out of schema 7 drops
/// them, and one set otherwise is a typed error naming the leaf, where
/// it used to load as another ring, bound, series or quad count.
#[test]
fn a_v7_setting_other_than_its_constant_is_refused() {
    let golden = Json::parse(&read_golden("snapshot_v7.json")).unwrap();
    for (leaf, other) in [
        ("devices/1/quads", Json::Int(8)),
        ("sanitizer/trace_ring", Json::Int(9)),
        ("sanitizer/max_violations", Json::Int(13)),
        ("telemetry/spans", Json::Bool(false)),
        ("telemetry/max_windows", Json::Int(5)),
    ] {
        let mut doc = golden.clone();
        *node_at_path(&mut doc, &format!("config/{leaf}")) = other;
        let err = SimSnapshot::from_json(&doc.render()).map(drop).unwrap_err().message;
        assert!(err.contains(&format!("`{leaf}`")), "{leaf}: {err}");
    }
}

// ---------------------------------------------------------------------------
// A checkpoint costs a third more than memory holds
// ---------------------------------------------------------------------------

/// A snapshot of dense memory renders to at most 4/3 of the bytes its
/// pages hold, plus a fixed allowance for the rest of the document and
/// each page's `[id, mask, ...]`: base64, where hex took twice the
/// bytes.
#[test]
fn a_snapshot_of_dense_pages_renders_to_four_thirds_of_its_bytes() {
    const PAGES: u64 = 256;
    const PAGE: usize = 4096;
    const ALLOWANCE: usize = 128 << 10;
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    let bare = sim.snapshot().to_json_full().len();
    let mut rng = Rng(0xD15E_A5E5);
    let mut page = vec![0u8; PAGE];
    for p in 0..PAGES {
        for word in page.chunks_mut(8) {
            word.copy_from_slice(&(rng.next() | 0x0101_0101_0101_0101).to_le_bytes());
        }
        sim.mem_write(0, p * 3 * PAGE as u64, &page).unwrap();
    }
    let held = PAGES as usize * PAGE;
    let rendered = sim.snapshot().to_json_full().len();
    let entries = 64 * PAGES as usize;
    assert!(bare + entries <= ALLOWANCE, "the allowance covers {bare} bytes and the entries");
    assert!(
        rendered <= held / 3 * 4 + ALLOWANCE,
        "{rendered} bytes rendered for {held} bytes held ({:.3} per byte)",
        rendered as f64 / held as f64
    );
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
            // A page: its first character changed (still base64).
            let first = if s.starts_with('0') { "1" } else { "0" };
            vec![Json::Str(format!("{first}{}", &s[1..]))]
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

/// The leaves the configuration fixes, by the object keys down to them:
/// in the state, each queue's depth, the memory capacity and each
/// link's configuration; in `config`, what sets them.
fn fixed_by_config(keys: &[String]) -> bool {
    let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
    match keys.as_slice() {
        ["devices", "xbar_rqst" | "xbar_rsp", "depth"]
        | ["devices", "vaults", "rqst" | "rsp", "depth"]
        | ["devices", "mem", "capacity"]
        | ["links", "tokens" | "error_period" | "retry_latency"]
        | ["config", "devices", "fault", "link_error", "n"] => true,
        ["config", "devices", key] => [
            "links",
            "capacity",
            "vaults_per_quad",
            "banks_per_vault",
            "vault_queue_depth",
            "xbar_queue_depth",
            "link_tokens",
            "link_retry_latency",
        ]
        .contains(key),
        _ => false,
    }
}

/// The [`check_every_leaf`] count of leaves [`fixed_by_config`].
const FIXED: &str = "fixed by the configuration";

/// The `/`-separated path of the node at `path` (object keys and array
/// indices), as a typed error names it.
fn path_text(doc: &Json, path: &[usize]) -> String {
    let mut node = doc;
    let mut steps = Vec::new();
    for &i in path {
        node = match node {
            Json::Arr(items) => {
                steps.push(i.to_string());
                &items[i]
            }
            Json::Obj(fields) => {
                steps.push(fields[i].0.clone());
                &fields[i].1
            }
            _ => unreachable!("paths end at leaves"),
        };
    }
    steps.join("/")
}

/// Bytes of one packed flight record.
const RECORD_BYTES: usize = 38;

/// The RFC 4648 base64 alphabet. This file's encoder and decoder are
/// written from the standard, not taken from the codec: the oracle the
/// goldens' lanes are read, broken and rewritten by.
const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// The padded base64 of `bytes`.
fn base64(bytes: &[u8]) -> String {
    let mut out = String::new();
    for group in bytes.chunks(3) {
        let n = group.iter().enumerate().fold(0u32, |n, (i, &b)| n | (b as u32) << (16 - 8 * i));
        for i in 0..4 {
            let six = (n >> (18 - 6 * i)) & 63;
            out.push(if i <= group.len() { BASE64[six as usize] as char } else { '=' });
        }
    }
    out
}

/// The bytes of well-formed padded base64.
fn unbase64(text: &str) -> Vec<u8> {
    let six = |c: &u8| BASE64.iter().position(|b| b == c).expect("a base64 character") as u32;
    let mut out = Vec::new();
    for group in text.as_bytes().chunks(4) {
        let held: Vec<u32> = group.iter().take_while(|&&c| c != b'=').map(six).collect();
        let n = held.iter().enumerate().fold(0u32, |n, (i, &v)| n | v << (18 - 6 * i));
        out.extend_from_slice(&n.to_be_bytes()[1..held.len()]);
    }
    out
}

/// Sets each byte of the first record of the packed flight lane at
/// `path` to `0xff` (`0` where it is `0xff` already), one at a time: the
/// result either decodes, leaving the fingerprint at `base` (the
/// recorder is an observer), or is a typed error — a kind or command
/// kind no record has. Returns how many decoded; both outcomes must
/// occur in a lane that holds a record.
fn perturb_packed_lane(doc: &mut Json, path: &[usize], base: u64) -> usize {
    let original = node_at(doc, path).0.clone();
    let text = original.as_str().expect("a packed lane is a string");
    let bytes = unbase64(text);
    assert_eq!(base64(&bytes), text, "lane {path:?} is RFC 4648 base64");
    let (mut decoded, mut rejected) = (0, 0);
    for at in 0..bytes.len().min(RECORD_BYTES) {
        let mut perturbed = bytes.clone();
        perturbed[at] = if bytes[at] == 0xff { 0 } else { 0xff };
        *node_at(doc, path).0 = Json::Str(base64(&perturbed));
        match SimSnapshot::from_json_value(doc.clone()) {
            Ok(snap) => {
                assert_eq!(snap.fingerprint(), base, "byte {at} of packed lane {path:?}");
                decoded += 1;
            }
            Err(e) => {
                assert!(e.message.starts_with("flight record: "), "{}", e.message);
                rejected += 1;
            }
        }
    }
    *node_at(doc, path).0 = original;
    let both = decoded > 0 && rejected > 0;
    assert!(bytes.is_empty() || both, "lane {path:?}: {decoded}/{rejected}");
    decoded
}

/// Perturbs the line mask of the page entry `[id, mask, base64]` whose
/// mask is at `path`, the way [`perturb_packed_lane`] perturbs a lane:
/// each of its 64 bits flipped alone must be a typed error (the base64
/// then holds too few or too many lines), and the mask rotated by a line
/// either way — the same lines, moved — must decode to a state that
/// fingerprints apart from `base`. Returns how many decoded: both
/// rotations, unless no line or every line is held.
fn perturb_page_mask(doc: &mut Json, path: &[usize], base: u64) -> usize {
    let original = node_at(doc, path).0.clone();
    let mask = original.as_u64().expect("a page mask is a u64");
    let flips = (0..64).map(|k| mask ^ 1 << k);
    let rotations = [mask.rotate_left(1), mask.rotate_right(1)].into_iter().filter(|&m| m != mask);
    let mut decoded = 0;
    for candidate in flips.chain(rotations) {
        *node_at(doc, path).0 = Json::Int(candidate.into());
        match SimSnapshot::from_json_value(doc.clone()) {
            Ok(snap) => {
                assert_eq!(
                    candidate.count_ones(),
                    mask.count_ones(),
                    "mask {candidate:#x} at {path:?}"
                );
                assert_ne!(
                    snap.fingerprint(),
                    base,
                    "mask {candidate:#x} at {path:?} moved no line"
                );
                decoded += 1;
            }
            Err(e) => assert!(e.message.contains("base64 characters where"), "{}", e.message),
        }
    }
    *node_at(doc, path).0 = original;
    assert_eq!(decoded, if mask == 0 || mask == u64::MAX { 0 } else { 2 }, "mask at {path:?}");
    decoded
}

/// Whether the page id at `path` (of an entry `[id, mask, base64]`) is
/// hemmed in by its neighbours: page ids ascend, so an id whose
/// neighbours are one below it (or that is 0) and one above it has no
/// other value to take.
fn hemmed_page_id(doc: &mut Json, path: &[usize]) -> bool {
    let (list, at) = (&path[..path.len() - 2], path[path.len() - 2]);
    let pages = node_at(doc, list).0.as_arr().expect("a page list");
    let id = |i: usize| pages.get(i)?.as_arr()?.first()?.as_u64();
    let v = id(at).expect("a page id");
    let below = match at {
        0 => v == 0,
        _ => id(at - 1) == v.checked_sub(1),
    };
    below && id(at + 1) == Some(v + 1)
}

/// Perturbs every leaf of `snap`'s JSON form, one at a time: a leaf
/// outside the [`UNVISITED`] sections must move the fingerprint, a leaf
/// inside one must not, and a leaf [`fixed_by_config`] must make
/// `HmcSim::from_snapshot` a typed error — one naming the leaf, when
/// it is state. Returns the accepted perturbations per top-level
/// section (unvisited leaves count under their section).
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
        if keys.last().is_some_and(|k| k == "pages") && path.last() == Some(&1) {
            let decoded = perturb_page_mask(&mut doc, &path, base);
            *accepted.entry(keys[0].clone()).or_insert(0) += decoded;
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
            SimSnapshot::from_json_value(doc.clone()).ok()
        });
        *node_at(&mut doc, &path).0 = original;
        let Some(perturbed) = decoded else {
            // Only a closed vocabulary (or an absent observer's `null`)
            // may reject every candidate — and a configuration, which
            // must stay valid, a page id its neighbours hem in and the
            // empty lines of an all-zero page, `[id, 0, ""]`.
            let leaf_key = keys.last().unwrap().as_str();
            let page_leaf = |doc: &mut Json| match path.last() {
                Some(0) => hemmed_page_id(doc, &path),
                _ => *node_at(doc, &path).0 == Json::Str(String::new()),
            };
            assert!(
                ["schema_version", "kind", "select", "name", "names", "shadow", "flight"]
                    .contains(&leaf_key)
                    || keys[0] == "config"
                    || (leaf_key == "pages" && page_leaf(&mut doc)),
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
        if fixed_by_config(&keys) {
            let err = HmcSim::from_snapshot(&perturbed).map(drop).map_err(|e| e.to_string());
            let at = path_text(&doc, &path);
            let err = err.expect_err(&format!("{at} is fixed by the configuration"));
            assert!(keys[0] == "config" || err.contains(&format!("`{at}`")), "{at}: `{err}`");
            *accepted.entry(FIXED.to_string()).or_insert(0) += 1;
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
            FIXED,
        ],
    );
}

#[test]
fn every_leaf_of_the_faulted_cube_moves_the_fingerprint_unless_an_observer_owns_it() {
    check_sections(
        &faulted_cube().snapshot(),
        &[
            "cycle", "devices", "host_rx", "tag_pools", "pool_tags", "links", "shadow", "timing",
            "config", FIXED,
        ],
    );
}

/// A page list as the writer lists it, ids ascending, is the only one
/// that loads: a page listed again with other bytes, or two pages
/// swapped, would otherwise decode to a state no snapshot holds.
#[test]
fn a_page_listed_twice_or_out_of_order_is_a_typed_error() {
    let doc = faulted_cube().snapshot().to_json_value();
    let id = |page: &Json| page.as_arr().unwrap()[0].as_u64().unwrap();
    let mut twice = doc.clone();
    let pages = array_at(&mut twice, "devices/0/mem/pages");
    let (first, second, last) = (id(&pages[0]), id(&pages[1]), id(pages.last().unwrap()));
    let mut again = pages.last().unwrap().clone();
    let Json::Arr(entry) = &mut again else { panic!("a page is an array") };
    let Some(Json::Str(text)) = entry.last_mut() else { panic!("a page ends in its bytes") };
    text.replace_range(0..1, if text.starts_with('0') { "1" } else { "0" });
    pages.push(again);
    let mut swapped = doc.clone();
    array_at(&mut swapped, "devices/0/mem/pages").swap(0, 1);
    for (mutant, want) in [
        (twice, format!("mem: page {last} is listed twice (after page {last})")),
        (swapped, format!("mem: page {first} is out of order (after page {second})")),
    ] {
        match SimSnapshot::from_json(&mutant.render()) {
            Ok(snap) => panic!("`{want}` loaded, fingerprint {:#x}", snap.fingerprint()),
            Err(e) => assert_eq!(e.message, want),
        }
    }
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

/// A document holds its own schema's layout, which no upgrade step
/// takes for another's: each snapshot golden up to v7 relabelled one
/// version up, and v6 and v7 relabelled down, is a typed error naming
/// the first field the label disagrees with. (v8 relabelled 7 loads: the
/// step out of schema 7 accepts a configuration without the settings it
/// drops, as a scenario upgraded from version 2 lacks the sanitizer's
/// and the telemetry's.)
#[test]
fn a_golden_relabelled_as_another_schema_is_refused() {
    for (version, label, want) in [
        (1, 2, "flight lane: field `records` must be a string"),
        (2, 3, "snapshot: missing field `config`"),
        (3, 4, "mem: page entry [id, mask, hex] must be an array of 3"),
        (
            4,
            5,
            "timing: unknown field(s): divergence, shadow_late, shadow_early, shadow_agree, shadow",
        ),
        (5, 6, "device_config: unknown field(s): link_error_period"),
        (6, 7, "mem: page 0 holds 384 base64 characters where 3 lines need 256"),
        (6, 5, "power: missing field `link_flit_pj_bits`"),
        (7, 6, "mem: page 0 holds 256 hex digits where 3 lines need 384"),
        (7, 8, "device_config: unknown field(s): quads"),
    ] {
        let name = format!("snapshot_v{version}.json");
        let text = read_golden(&name);
        let relabelled = text.replacen(
            &format!("{{\"schema_version\":{version},"),
            &format!("{{\"schema_version\":{label},"),
            1,
        );
        assert_ne!(relabelled, text, "{name} opens with its version");
        match SimSnapshot::from_json(&relabelled) {
            Ok(_) => panic!("{name} loaded as schema {label}"),
            Err(e) => assert_eq!(e.message, want, "{name} as schema {label}"),
        }
    }
}

/// The schema of the snapshot holding the node at `path`: the innermost
/// `schema_version` on the way down (a replay checkpoint's own is
/// outside its snapshot's).
fn schema_at(doc: &Json, path: &[usize]) -> u64 {
    let mut node = doc;
    let mut version = 0;
    for &i in path {
        version = node.get("schema_version").and_then(Json::as_u64).unwrap_or(version);
        node = match node {
            Json::Arr(items) => &items[i],
            Json::Obj(fields) => &fields[i].1,
            _ => unreachable!("paths end at leaves"),
        };
    }
    version
}

/// Every packed flight lane of `doc` that holds a record, broken four
/// ways, each rendered back to text beside the error it must meet: one
/// character short, one byte short (a partial record), the last
/// record's kind byte set to a retired code (20), its command kind set
/// to one no record has (5). A lane is base64 from schema 7 on, hex
/// before.
fn packed_lane_mutants(doc: &Json) -> Vec<(String, &'static str)> {
    let mut tree = doc.clone();
    let mut leaves = Vec::new();
    paths(doc, false, &mut Vec::new(), &mut leaves);
    let mut out = Vec::new();
    for path in leaves {
        let (leaf, keys) = node_at(&mut tree, &path);
        let text = match leaf {
            Json::Str(text) if keys.last().is_some_and(|k| k == "records") && !text.is_empty() => {
                text.clone()
            }
            _ => continue,
        };
        let mutants = if schema_at(doc, &path) >= 7 {
            let bytes = unbase64(&text);
            let last = bytes.len() - RECORD_BYTES;
            let with = |at: usize, value: u8| {
                let mut bytes = bytes.clone();
                bytes[last + at] = value;
                base64(&bytes)
            };
            [
                (text[1..].to_string(), "not a whole number of records"),
                (base64(&bytes[1..]), "not a whole number of records"),
                (with(8, 20), "unknown kind code"),
                (with(19, 5), "unknown cmd kind 5"),
            ]
        } else {
            let last = text.len() - 2 * RECORD_BYTES;
            [
                (text[1..].to_string(), "not a whole number of records"),
                (text[2..].to_string(), "not a whole number of records"),
                (format!("{}14{}", &text[..last + 16], &text[last + 18..]), "unknown kind code"),
                (format!("{}05{}", &text[..last + 38], &text[last + 40..]), "unknown cmd kind 5"),
            ]
        };
        for (mutant, error) in mutants {
            *node_at(&mut tree, &path).0 = Json::Str(mutant);
            out.push((tree.render(), error));
        }
        *node_at(&mut tree, &path).0 = Json::Str(text);
    }
    out
}

/// Feeds `parse` seeded mutations of `text`: textual, and structural
/// (rendered back to text, so a duplicated key reaches the parser as
/// one) anywhere in the document and — when it holds memory pages or
/// flight lanes — within them, where the decoder takes each page and
/// lane out of the tree as it reads it: half textual and half
/// structural, or a third of each when there are pages or lanes.
/// `parse` returning at all is the property — an `Err` is a typed error
/// by construction, a panic fails the test. At least one mutant of each
/// kind must have been rejected, or the loop proved nothing. Then every
/// [`packed_lane_mutants`] case must be rejected with its error;
/// returns how many there were.
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
    let bytes: Vec<Vec<usize>> = nodes
        .iter()
        .filter(|path| {
            let at = path_text(&doc, path);
            at.contains("mem/pages") || at.contains("flight/lanes")
        })
        .cloned()
        .collect();
    let kinds = if bytes.is_empty() { 2 } else { 3 };
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ text.len() as u64);
    let mut rejected = [0usize; 3];
    for round in 0..rounds {
        let kind = round % kinds;
        let mutant = match kind {
            0 => mutate_text(text, &mut rng),
            _ => {
                let mut tree = doc.clone();
                mutate_tree(&mut tree, if kind == 1 { &nodes } else { &bytes }, &mut rng);
                tree.render()
            }
        };
        rejected[kind] += parse(&mutant).is_err() as usize;
    }
    assert!(
        rejected[..kinds].iter().all(|&n| n > 0),
        "{name}: no mutant of some kind was rejected ({rejected:?})"
    );
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
    // The same snapshot as older schemas wrote it: their upgrade steps
    // meet the same mutations. A schema-1 document names no machine to
    // rebuild, and its lanes are arrays, which no packed-lane case
    // breaks.
    let decode = |text: &str| SimSnapshot::from_json(text).map(drop).map_err(|e| e.to_string());
    for (name, packed_lanes) in
    [
        ("snapshot_v8.json", 5 * 4),
        ("snapshot_v7.json", 5 * 4),
        ("snapshot_v6.json", 5 * 4),
        ("snapshot_v5.json", 5 * 4),
        ("snapshot_v4.json", 5 * 4),
        ("snapshot_v3.json", 5 * 4),
        ("snapshot_v1.json", 0),
    ]
    {
        let parse: &dyn Fn(&str) -> Result<(), String> =
            if packed_lanes == 0 { &decode } else { &rebuild };
        let packed = never_panics(name, &read_golden(name), 300, parse);
        assert_eq!(packed, packed_lanes, "{name}: every packed lane was broken four ways");
    }

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
    let decode =
        |text: &str| ReplayCheckpoint::from_json(text).map(drop).map_err(|e| e.to_string());
    let packed = never_panics("replay checkpoint", &ckpt, 300, decode);
    assert!(packed > 0, "the replay checkpoint carries recorded lanes");
    for name in ["replay_ckpt_v8.json", "replay_ckpt_v7.json"] {
        let packed = never_panics(name, &read_golden(name), 300, decode);
        assert!(packed > 0, "{name} carries recorded lanes");
    }

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
        SimSnapshot::from_json_value(member.clone()).map(drop).map_err(|e| e.to_string())
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
