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
//! 2. **Round-trip fidelity** — a snapshot taken under any backend
//!    (shadow banks and divergence stats included) reparses to the
//!    same JSON byte for byte, and a restored simulation resumes
//!    bit-identically to the uninterrupted one.
//! 3. **Strict-but-compatible parsing** — a snapshot written before
//!    the timing seam (no `timing` key) loads as the fixed backend,
//!    while a present-but-unknown backend name is rejected loudly, and
//!    so is a shadow bank array the backend does not keep.

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
/// every backend accumulates latency-class stats (and Validated a
/// shadow divergence record).
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
    let backends =
        [TimingSelect::FixedLatency, TimingSelect::RowBuffer, TimingSelect::Validated];
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
/// parse → JSON must be byte-identical (stats histograms and the
/// validated shadow bank array included), and restoring the parsed
/// snapshot must resume bit-identically to the uninterrupted run.
#[test]
fn snapshot_json_round_trips_every_backend() {
    for timing in
        [TimingSelect::FixedLatency, TimingSelect::RowBuffer, TimingSelect::Validated]
    {
        let mut original = run_burst(timing);
        let snap = original.snapshot();
        let text = snap.to_json_value().render();
        let reparsed = SimSnapshot::from_json_value(&Json::parse(&text).unwrap()).unwrap();
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
    let snap = SimSnapshot::from_json_value(&json).expect("legacy snapshot must load");
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
        let err = SimSnapshot::from_json_value(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.message.contains(want), "bad value not named: {}", err.message);
    }
}

/// A shadow bank array the snapshot's backend does not keep — any
/// shadow outside `validated`, one bank short or over under it — is
/// refused by `restore`, which then leaves the context as it was.
#[test]
fn a_timing_section_that_does_not_fit_is_rejected() {
    let mut sim = run_burst(TimingSelect::FixedLatency);
    let base = sim.state_fingerprint();
    let stats = *sim.timing_stats(0).unwrap();
    let bank = r#"{"busy_until":0,"open_row":null,"row_hits":0,"row_misses":0}"#;
    let bank = Json::parse(bank).unwrap();
    for (timing, grow) in [
        (TimingSelect::FixedLatency, true),
        (TimingSelect::RowBuffer, true),
        (TimingSelect::Validated, false),
        (TimingSelect::Validated, true),
    ] {
        let mut doc = run_burst(timing).snapshot().to_json_value();
        let mut node = &mut doc;
        for key in ["devices", "0", "timing", "shadow"] {
            node = match node {
                Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
                Json::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
                _ => unreachable!("the path runs through containers"),
            };
        }
        let Json::Arr(shadow) = node else { panic!("the shadow is an array") };
        match grow {
            true => shadow.push(bank.clone()),
            false => drop(shadow.pop()),
        }
        let held = shadow.len();
        let snap = SimSnapshot::from_json_value(&doc).expect("the codec leaves fit to restore");
        let err = sim.restore(&snap).expect_err("a timing section that does not fit");
        assert!(err.to_string().contains(&format!("`shadow` holds {held} banks")), "{err}");
        assert_eq!(sim.state_fingerprint(), base, "{timing:?}: a refused restore moved state");
        assert_eq!(sim.timing_select(), TimingSelect::FixedLatency);
        assert_eq!(*sim.timing_stats(0).unwrap(), stats);
    }
}

/// The `HMCSIM_TIMING` parser (used by the CI matrix) accepts exactly
/// the three backend names, and rejects anything else with the
/// variable and the accepted values named in the error — a typo in a
/// CI matrix must fail the job, not silently run the wrong model.
#[test]
fn env_value_parser_is_strict() {
    for (raw, want) in [
        ("fixed", TimingSelect::FixedLatency),
        ("row_buffer", TimingSelect::RowBuffer),
        ("validated", TimingSelect::Validated),
    ] {
        assert_eq!(TimingSelect::parse_env_value(raw).unwrap(), want, "{raw:?}");
    }
    for raw in ["", "quick", "rowbufferx", "fixed_latency", "row-buffer", " Validated "] {
        let err = TimingSelect::parse_env_value(raw).unwrap_err().to_string();
        assert!(err.contains("HMCSIM_TIMING"), "variable not named for {raw:?}: {err}");
        assert!(err.contains("fixed, row_buffer, validated"), "values not listed: {err}");
    }
}
