//! Timing-backend selection through the configuration and snapshot
//! codecs.
//!
//! Locks down three properties of the `TimingSelect` seam:
//!
//! 1. **Golden shape** — the JSON the codecs emit for each backend
//!    (selection strings and the per-device snapshot `timing` section)
//!    is pinned in `tests/golden/timing_codec.json`; regenerate after
//!    an intentional format change with `BLESS=1 cargo test --test
//!    timing_config` and review the diff.
//! 2. **Round-trip fidelity** — a snapshot taken under either backend
//!    (latency-class stats included) reparses to the same JSON byte
//!    for byte, and a restored simulation resumes bit-identically to
//!    the uninterrupted one.
//! 3. **Strict-but-compatible parsing** — a snapshot written before
//!    the timing seam (no `timing` key) loads as the fixed backend, a
//!    document naming the retired `validated` backend loads as the
//!    `fixed` machine it ran, while a present-but-unknown backend name
//!    is rejected loudly, and so is a timing section that does not
//!    hold its schema's fields.

use hmcsim::prelude::*;
use hmcsim::sim::jsonv::name_of;
use hmcsim::sim::{Json, RefreshConfig, RowPolicy, SimSnapshot};

fn row_heavy_config() -> DeviceConfig {
    let mut d = DeviceConfig::gen2_4link_4gb();
    d.bank_latency = 2;
    d.bank_timing.policy = RowPolicy::OpenPage;
    d.bank_timing.row_hit = 1;
    d.bank_timing.row_miss = 6;
    d.refresh = Some(RefreshConfig { interval: 96, duration: 4 });
    d
}

/// A short deterministic traffic burst that touches several banks, so
/// every backend accumulates latency-class stats.
fn run_burst(timing: TimingSelect) -> HmcSim {
    let mut sim = HmcSim::new(row_heavy_config()).unwrap();
    sim.set_timing_model(timing);
    for i in 0..12u64 {
        let tag = sim
            .send_simple(0, 0, HmcRqst::Rd16, 0x40 + i * 0x1000, vec![])
            .unwrap()
            .unwrap();
        sim.run_until_response(0, 0, tag, 200).unwrap();
    }
    sim
}

/// Extracts the `timing` section of device 0 from a snapshot's JSON.
fn timing_section(snap: &SimSnapshot) -> Json {
    let json = snap.to_json_value();
    let devices = json
        .as_obj()
        .unwrap()
        .iter()
        .find(|(k, _)| k == "devices")
        .map(|(_, v)| v.as_arr().unwrap())
        .unwrap();
    devices[0]
        .as_obj()
        .unwrap()
        .iter()
        .find(|(k, _)| k == "timing")
        .map(|(_, v)| v.clone())
        .expect("device snapshot carries a timing section")
}

fn check_golden(rendered: &str, name: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); run with BLESS=1", path.display()));
    assert_eq!(
        rendered,
        golden,
        "{name} drifted from the golden codec shape; if intentional, regenerate with \
         BLESS=1 cargo test --test timing_config and review the diff"
    );
}

#[test]
fn golden_timing_codec_shapes() {
    let backends = TimingSelect::NAMES.map(|(_, timing)| timing);
    let mut doc: Vec<(String, Json)> = vec![(
        "select_names".into(),
        Json::Arr(backends.iter().map(|&b| name_of(&TimingSelect::NAMES, b).into()).collect()),
    )];
    for timing in backends {
        let sim = run_burst(timing);
        doc.push((format!("snapshot_{}", timing.name()), timing_section(&sim.snapshot())));
    }
    let mut rendered = Json::Obj(doc).render();
    rendered.push('\n');
    check_golden(&rendered, "timing_codec.json");
}

/// Full-fidelity round trip: for every backend, snapshot → JSON →
/// parse → JSON must be byte-identical (stats histograms included),
/// and restoring the parsed snapshot must resume bit-identically to
/// the uninterrupted run.
#[test]
fn snapshot_json_round_trips_every_backend() {
    for (_, timing) in TimingSelect::NAMES {
        let mut original = run_burst(timing);
        let snap = original.snapshot();
        let text = snap.to_json_value().render();
        let reparsed = SimSnapshot::from_json_value(Json::parse(&text).unwrap()).unwrap();
        assert_eq!(
            reparsed.to_json_value().render(),
            text,
            "{timing:?}: snapshot JSON drifted across a parse round trip"
        );

        let mut restored = HmcSim::from_snapshot(&reparsed).unwrap();
        assert_eq!(restored.timing_select(), timing, "restored backend selection");
        assert_eq!(restored.timing_stats(0).unwrap(), original.timing_stats(0).unwrap());
        // Resume both sides with identical traffic: still lockstep.
        for sim in [&mut original, &mut restored] {
            let tag = sim.send_simple(0, 0, HmcRqst::Rd16, 0x9000, vec![]).unwrap().unwrap();
            sim.run_until_response(0, 0, tag, 200).unwrap();
        }
        assert_eq!(
            original.state_fingerprint(),
            restored.state_fingerprint(),
            "{timing:?}: restored run diverged from the uninterrupted one"
        );
        assert_eq!(restored.timing_stats(0).unwrap(), original.timing_stats(0).unwrap());
    }
}

/// A checkpoint written before the timing seam has no `timing` key:
/// it must load as the fixed backend (the pre-trait model), not fail.
#[test]
fn legacy_snapshot_without_timing_key_loads_as_fixed() {
    let sim = run_burst(TimingSelect::FixedLatency);
    let mut json = sim.snapshot().to_json_value();
    if let Json::Obj(top) = &mut json {
        for (k, v) in top.iter_mut() {
            if k == "devices" {
                if let Json::Arr(devices) = v {
                    for dev in devices {
                        if let Json::Obj(fields) = dev {
                            fields.retain(|(k, _)| k != "timing");
                        }
                    }
                }
            }
        }
    }
    let snap = SimSnapshot::from_json_value(json).expect("legacy snapshot must load");
    let restored = HmcSim::from_snapshot(&snap).unwrap();
    assert_eq!(restored.timing_select(), TimingSelect::FixedLatency);
}

/// An unknown backend name in a snapshot is a corruption, not a
/// default: the parse must fail and name the bad value.
#[test]
fn unknown_backend_name_is_rejected_loudly() {
    let text = run_burst(TimingSelect::RowBuffer).snapshot().to_json_value().render();
    // The devices' timing sections and the configuration's backend.
    for (field, want) in [
        ("\"select\":", "timing: unknown select `quantum_foam`"),
        ("\"timing\":", "sim_config: unknown timing `quantum_foam`"),
    ] {
        let (from, to) = (format!("{field}\"row_buffer\""), format!("{field}\"quantum_foam\""));
        let text = text.replace(&from, &to);
        let err = SimSnapshot::from_json_value(Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.message.contains(want), "bad value not named: {}", err.message);
    }
}

/// The node at `path` (object keys and array indices).
fn node<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Json {
    path.iter().fold(doc, |node, key| match node {
        Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
        Json::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
        _ => unreachable!("the path runs through containers"),
    })
}

/// A document naming the retired `validated` backend describes the
/// `fixed` machine it ran: a fuzz scenario (the corpus's refreshing
/// Triad seed) and a `SimConfig` naming it load as `fixed` and run to
/// exactly the digests of the same document naming `fixed`.
#[test]
fn documents_naming_validated_load_and_run_as_fixed() {
    use hmc_fuzz::Scenario;
    use hmcsim::sim::SimConfig;

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/seed-03-triad.json");
    let seed = std::fs::read_to_string(path).unwrap();
    let [retired, fixed] = ["validated", "fixed"].map(|name| {
        let text = seed.replace(r#""timing":"row_buffer""#, &format!(r#""timing":"{name}""#));
        assert_ne!(text, seed, "the seed names its backend");
        Scenario::from_json_str(&text).unwrap()
    });
    assert_eq!(retired.sim.timing, TimingSelect::FixedLatency);
    assert!(retired.sim.devices[0].refresh.is_some(), "the seed refreshes");
    let run = |s: &Scenario| {
        let mut sim = HmcSim::with_config(s.sim.clone()).unwrap();
        sim.set_skip_mode(s.sim.skip_mode);
        sim.set_timing_model(s.sim.timing);
        let workload = s.kernel.run(&mut sim).unwrap();
        (sim.oracle_digest(), workload)
    };
    assert_eq!(run(&retired), run(&fixed), "the fuzz scenario");

    let mut config = SimConfig::single(row_heavy_config());
    config.skip_mode = SkipMode::Off;
    let text = config.to_json().render();
    let [retired, fixed] = ["validated", "fixed"].map(|name| {
        let text = text.replace(r#""timing":"fixed""#, &format!(r#""timing":"{name}""#));
        SimConfig::from_json(&Json::parse(&text).unwrap()).unwrap()
    });
    assert_eq!(retired, config);
    let run = |config: &SimConfig| {
        let mut sim = HmcSim::with_config(config.clone()).unwrap();
        sim.set_timing_model(config.timing);
        for i in 0..12u64 {
            let tag = sim.send_simple(0, 0, HmcRqst::Rd16, i * 0x1000, vec![]).unwrap().unwrap();
            sim.run_until_response(0, 0, tag, 200).unwrap();
        }
        (sim.cycle(), sim.state_fingerprint(), *sim.timing_stats(0).unwrap())
    };
    assert_eq!(run(&retired), run(&fixed), "the configuration");
}

/// Adds to a current document what schemas 5 and older wrote besides:
/// each device's power coefficients (the model's constants), each
/// configured device's `link_error_period` (`null`) and each link's
/// `packet_counter` (its `packets_sent`). The burst only reads, so every
/// page is `[id, 0, ""]`, the same in the hex of schema 6 and older.
fn with_schema_5_settings(doc: &mut Json) {
    use hmcsim::sim::power::{CLOCK_HZ, DRAM_ACCESS_PJ, IDLE_CYCLE_PJ, LINK_FLIT_PJ, LOGIC_OP_PJ};
    let coefficients = [
        ("link_flit_pj_bits", LINK_FLIT_PJ),
        ("dram_access_pj_bits", DRAM_ACCESS_PJ),
        ("logic_op_pj_bits", LOGIC_OP_PJ),
        ("idle_cycle_pj_bits", IDLE_CYCLE_PJ),
        ("clock_hz_bits", CLOCK_HZ),
    ];
    let Json::Arr(devices) = node(doc, &["devices"]) else { panic!("a device list") };
    for device in devices {
        let Json::Obj(power) = node(device, &["power"]) else { panic!("a power object") };
        power.extend(coefficients.map(|(k, c)| (k.to_string(), Json::from(c.to_bits()))));
    }
    let Json::Arr(devices) = node(doc, &["config", "devices"]) else { panic!("a device list") };
    for device in devices {
        let Json::Obj(fields) = device else { panic!("a device object") };
        fields.push(("link_error_period".into(), Json::Null));
    }
    let Json::Arr(pages) = node(doc, &["devices", "0", "mem", "pages"]) else { panic!("pages") };
    assert!(pages.iter().all(|p| p.as_arr().unwrap()[2] == Json::from("")), "no page holds bytes");
    let Json::Arr(links) = node(doc, &["links", "0"]) else { panic!("a link list") };
    for link in links {
        let sent = node(link, &["packets_sent"]).clone();
        let Json::Obj(fields) = link else { panic!("a link object") };
        fields.push(("packet_counter".into(), sent));
    }
}

/// A timing section that does not hold its schema's fields is a typed
/// error: a schema-5 section carrying any field of the retired
/// `validated` record, and a schema-4 section missing one, holding
/// one of the wrong kind or a shadow bank that is not a bank. The
/// schema-4 record, well formed, loads and is dropped.
#[test]
fn a_timing_section_that_does_not_fit_is_rejected() {
    let mut doc = run_burst(TimingSelect::RowBuffer).snapshot().to_json_value();
    let timing = ["devices", "0", "timing"];
    let bank = r#"{"busy_until":0,"open_row":null,"row_hits":0,"row_misses":0}"#;
    let hist = r#"{"count":0,"sum":0,"min":18446744073709551615,"max":0,"buckets":[]}"#;
    let record = [
        ("divergence", Json::parse(hist).unwrap()),
        ("shadow_late", Json::Int(0)),
        ("shadow_early", Json::Int(0)),
        ("shadow_agree", Json::Int(0)),
        ("shadow", Json::parse(&format!("[{bank}]")).unwrap()),
    ];
    let decode = |doc: &Json| SimSnapshot::from_json_value(doc.clone()).map_err(|e| e.message);
    let want = decode(&doc).unwrap().to_json_value();
    for (key, value) in &record {
        let mut v5 = doc.clone();
        let Json::Obj(fields) = node(&mut v5, &timing) else { panic!("a timing object") };
        fields.push((key.to_string(), value.clone()));
        assert_eq!(decode(&v5).unwrap_err(), format!("timing: unknown field(s): {key}"));
    }

    // The same section at schema 4, with the record it carried then
    // (and the fields schema 6 dropped: the power coefficients and each
    // configured device's `link_error_period`).
    *node(&mut doc, &["schema_version"]) = Json::Int(4);
    with_schema_5_settings(&mut doc);
    let Json::Obj(fields) = node(&mut doc, &timing) else { panic!("a timing object") };
    fields.extend(record.iter().map(|(k, v)| (k.to_string(), v.clone())));
    let v4 = decode(&doc).expect("a schema-4 timing record loads");
    assert!(v4.to_json_value() == want, "the record is dropped, the rest kept");
    for (key, _) in &record {
        let mut missing = doc.clone();
        let Json::Obj(fields) = node(&mut missing, &timing) else { panic!("a timing object") };
        fields.retain(|(k, _)| k != key);
        assert!(decode(&missing).unwrap_err().contains(key), "{key} missing");
        let mut wrong = doc.clone();
        *node(&mut wrong, &[&timing[..], &[key]].concat()) = Json::Str("zz".into());
        assert!(decode(&wrong).is_err(), "{key} of the wrong kind");
    }
    *node(&mut doc, &[&timing[..], &["shadow", "0", "row_hits"]].concat()) = Json::Null;
    assert!(decode(&doc).is_err(), "a shadow bank that is not a bank");
}

/// The `HMCSIM_TIMING` parser (used by the CI matrix) accepts exactly
/// the two backend names, and rejects anything else — the retired
/// `validated` included — with the variable and the accepted values
/// named in the error: a typo in a CI matrix must fail the job, not
/// silently run the wrong model.
#[test]
fn env_value_parser_is_strict() {
    for (raw, want) in
        [("fixed", TimingSelect::FixedLatency), ("row_buffer", TimingSelect::RowBuffer)]
    {
        assert_eq!(TimingSelect::parse_env_value(raw).unwrap(), want, "{raw:?}");
    }
    for raw in [
        "",
        "quick",
        "rowbufferx",
        "fixed_latency",
        "row-buffer",
        "Fixed",
        " validated",
        "validated",
    ] {
        let err = TimingSelect::parse_env_value(raw).unwrap_err().to_string();
        assert!(err.contains("HMCSIM_TIMING"), "variable not named for {raw:?}: {err}");
        assert!(err.contains("(expected fixed, row_buffer)"), "values not listed: {err}");
    }
}
