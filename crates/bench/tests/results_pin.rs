//! Pins `results/`: every file a `hmc-bench` binary owns regenerates
//! byte for byte from the command listed here, so the checked-in raw
//! outputs cannot drift from what the binaries print.
//!
//! ```text
//! BLESS=1 cargo test --release -p hmc-bench --test results_pin   # rewrite results/
//! ```

use hmc_sim::Json;
use std::path::Path;
use std::process::{Command, Output};

/// `(file under results/, binary, arguments)`.
const OWNED: [(&str, &str, &[&str]); 9] = [
    ("table1.txt", env!("CARGO_BIN_EXE_table1"), &[]),
    ("table2.txt", env!("CARGO_BIN_EXE_table2"), &[]),
    ("table5.txt", env!("CARGO_BIN_EXE_table5"), &[]),
    ("table6.txt", env!("CARGO_BIN_EXE_table6"), &[]),
    ("table6_honest.txt", env!("CARGO_BIN_EXE_table6"), &["--spin", "honest"]),
    ("figures.csv", env!("CARGO_BIN_EXE_figures"), &[]),
    ("figures_honest.csv", env!("CARGO_BIN_EXE_figures"), &["--spin", "honest", "--max-threads", "50"]),
    ("replay.txt", env!("CARGO_BIN_EXE_replay"), &[]),
    ("ablations.txt", env!("CARGO_BIN_EXE_ablations"), &[]),
];

/// The checked-in files are the default engine's output, whatever the
/// CI matrix exported into this process.
fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .env_remove("HMCSIM_SKIP")
        .env_remove("HMCSIM_TIMING")
        .output()
        .expect("binary runs")
}

#[test]
fn every_owned_results_file_regenerates_byte_identically() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let bless = std::env::var_os("BLESS").is_some();
    let mut stale = Vec::new();
    for (file, exe, args) in OWNED {
        let out = run(exe, args);
        assert!(out.status.success(), "{file}: {}", String::from_utf8_lossy(&out.stderr));
        let path = results.join(file);
        if bless {
            std::fs::write(&path, &out.stdout).expect("results/ is writable");
        } else if std::fs::read(&path).ok().as_deref() != Some(&out.stdout[..]) {
            stale.push(file);
        }
    }
    assert!(stale.is_empty(), "results/ differs from what its binaries print: {stale:?} (BLESS=1 rewrites)");

    // Near-linear multi-cube scaling: the 16-cube mesh sustains at
    // least 12x a single cube's aggregate updates per simulated cycle
    // (the last column of its row, e.g. `12.80x`).
    let table = std::fs::read_to_string(results.join("ablations.txt")).expect("pinned above");
    let mesh = table.lines().find(|l| l.starts_with("| mesh4x4 ")).expect("mesh4x4 row");
    let ratio = mesh.trim_end_matches([' ', '|', 'x']).rsplit(' ').next().expect("vs single1 cell");
    assert!(ratio.parse::<f64>().expect("a ratio") >= 12.0, "mesh4x4 vs single1: {ratio}x < 12.0x");
}

/// A mistyped flag or value, a flag the binary does not read, or an
/// unreadable input must not quietly regenerate the default table,
/// fall back to another device or panic.
#[test]
fn unusable_flag_values_exit_2_and_print_nothing() {
    let malformed =
        std::env::temp_dir().join(format!("malformed-trace-{}.txt", std::process::id()));
    std::fs::write(&malformed, "not a trace line\n").expect("temp dir is writable");
    let malformed = malformed.to_str().expect("UTF-8 temp path");
    let cases: [(&str, &[&str], &str); 19] = [
        (env!("CARGO_BIN_EXE_table6"), &["--spin", "hones"], "--spin 'hones'"),
        (env!("CARGO_BIN_EXE_figures"), &["--spin", "hones"], "--spin 'hones'"),
        (env!("CARGO_BIN_EXE_table6"), &["--max-threads", "x"], "--max-threads 'x'"),
        (env!("CARGO_BIN_EXE_figures"), &["--max-threads", "x"], "--max-threads 'x'"),
        (env!("CARGO_BIN_EXE_explain"), &["--workload", "mutx"], "--workload 'mutx'"),
        (env!("CARGO_BIN_EXE_figures"), &["--links", "3"], "--links '3'"),
        (env!("CARGO_BIN_EXE_figures"), &["--links", "x"], "--links 'x'"),
        (env!("CARGO_BIN_EXE_figures"), &["--links", "4,"], "--links '4,'"),
        (env!("CARGO_BIN_EXE_replay"), &["--links", "2"], "--links '2'"),
        (env!("CARGO_BIN_EXE_replay"), &["/nonexistent"], "/nonexistent"),
        (env!("CARGO_BIN_EXE_replay"), &[malformed], malformed),
        (env!("CARGO_BIN_EXE_table1"), &["--links", "8"], "unknown flag --links"),
        (env!("CARGO_BIN_EXE_table2"), &["--spin", "honest"], "unknown flag --spin"),
        (env!("CARGO_BIN_EXE_table5"), &["--threads", "4"], "unknown flag --threads"),
        (env!("CARGO_BIN_EXE_ablations"), &["--quick"], "unknown flag --quick"),
        (env!("CARGO_BIN_EXE_table6"), &["--max-thread", "20"], "unknown flag --max-thread"),
        (env!("CARGO_BIN_EXE_figures"), &["--spin", "honest", "--metrc", "x"], "unknown flag --metrc"),
        (env!("CARGO_BIN_EXE_explain"), &["--skip", "on"], "unknown flag --skip"),
        (env!("CARGO_BIN_EXE_replay"), &["--checkpoint-evry", "9"], "unknown flag --checkpoint-evry"),
    ];
    for (exe, args, names) in cases {
        let out = run(exe, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} still printed a table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(names), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(malformed);
}

/// Runs `replay` into a checkpoint directory, whose run manifest is
/// version 4 and whose recorded configuration names none of `gone`,
/// rewrites the manifest as the build of manifest `version` wrote it for
/// the same run (`edit` applied to its configuration), and checks that a
/// rerun refuses it by its version, not as a configuration the machine
/// does not have.
fn legacy_run_manifest_is_refused(version: u64, gone: &[&str], edit: impl FnOnce(&mut Json)) {
    let dir = std::env::temp_dir()
        .join(format!("replay-manifest-v{version}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let trace = dir.join("trace.txt");
    std::fs::write(&trace, "R 0x0 64 0\nW 0x40 32 1\n").expect("temp dir is writable");
    let ckpts = dir.join("ckpts");
    let args = [trace.to_str().expect("UTF-8 temp path"), "--checkpoint-dir"];
    let args = [&args[..], &[ckpts.to_str().expect("UTF-8 temp path")]].concat();
    let out = run(env!("CARGO_BIN_EXE_replay"), &args);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let manifest = ckpts.join("manifest.json");
    let written = std::fs::read_to_string(&manifest).expect("the run wrote a manifest");
    assert!(written.contains(r#""schema_version":4,"#), "{written}");
    for key in gone {
        assert!(!written.contains(&format!("\"{key}\"")), "{key}: {written}");
    }

    let mut legacy = Json::parse(&written).expect("the manifest is JSON");
    *legacy.get_mut("schema_version").expect("a version") = Json::Int(version.into());
    edit(legacy.get_mut("config").expect("a configuration"));
    std::fs::write(&manifest, legacy.render()).expect("temp dir is writable");
    let out = run(env!("CARGO_BIN_EXE_replay"), &args);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("unsupported manifest schema_version {version}")), "{stderr}");
    assert!(!stderr.contains("config"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Adds `key: value` to the object `v`.
fn add(v: &mut Json, key: &str, value: Json) {
    match v {
        Json::Obj(fields) => fields.push((key.into(), value)),
        _ => panic!("`{key}` belongs to an object"),
    }
}

/// The device list of the configuration `config`.
fn devices(config: &mut Json) -> &mut Vec<Json> {
    match config.get_mut("devices") {
        Some(Json::Arr(devices)) => devices,
        _ => panic!("a configuration lists its devices"),
    }
}

/// The settings a version-3 manifest's configuration also wrote, at
/// the constants they are now.
fn add_constant_settings(config: &mut Json) {
    for device in devices(config) {
        add(device, "quads", Json::Int(4));
    }
    let sanitizer = config.get_mut("sanitizer").expect("a sanitizer section");
    add(sanitizer, "trace_ring", Json::Int(256));
    add(sanitizer, "max_violations", Json::Int(64));
    let telemetry = config.get_mut("telemetry").expect("a telemetry section");
    add(telemetry, "spans", Json::Bool(true));
    add(telemetry, "max_windows", Json::Int(256));
}

/// A version-2 manifest's configuration also names each device's
/// `link_error_period`.
#[test]
fn a_version_2_run_manifest_is_refused_by_its_version() {
    legacy_run_manifest_is_refused(2, &["link_error_period"], |config| {
        add_constant_settings(config);
        for device in devices(config) {
            add(device, "link_error_period", Json::Null);
        }
    });
}

/// A version-3 manifest's configuration names the five settings that
/// are constants now.
#[test]
fn a_version_3_run_manifest_is_refused_by_its_version() {
    let gone = ["quads", "trace_ring", "max_violations", "spans", "max_windows"];
    legacy_run_manifest_is_refused(3, &gone, add_constant_settings);
}
