//! Pins `results/`: every file a `hmc-bench` binary owns regenerates
//! byte for byte from the command listed here, so the checked-in raw
//! outputs cannot drift from what the binaries print.
//!
//! ```text
//! BLESS=1 cargo test --release -p hmc-bench --test results_pin   # rewrite results/
//! ```

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

/// A mistyped value or an unreadable input must not quietly
/// regenerate the default table, fall back to another device or panic.
#[test]
fn unusable_flag_values_exit_2_and_print_nothing() {
    let malformed =
        std::env::temp_dir().join(format!("malformed-trace-{}.txt", std::process::id()));
    std::fs::write(&malformed, "not a trace line\n").expect("temp dir is writable");
    let malformed = malformed.to_str().expect("UTF-8 temp path");
    let cases: [(&str, &[&str], &str); 11] = [
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
