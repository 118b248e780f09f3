//! `explain` refuses bad inputs with exit 2 and a message instead of a
//! panic, and summarizes a text trace read from stdin.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn explain(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_explain"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("explain starts");
    child.stdin.take().expect("piped").write_all(stdin.as_bytes()).expect("stdin open");
    child.wait_with_output().expect("explain exits")
}

#[test]
fn missing_trace_file_exits_2_naming_the_path() {
    let out = explain(&["/nonexistent/trace.log"], "");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("explain: cannot read /nonexistent/trace.log"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn a_flag_is_not_the_value_of_the_flag_before_it() {
    let out = explain(&["--out", "--packets-only"], "");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--out needs a value"), "{stderr}");
    let stray = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("--packets-only");
    assert!(!stray.exists(), "wrote a file named after the next flag");
}

#[test]
fn a_mistyped_flag_exits_2_naming_it() {
    let out = explain(&["--wrokload", "gups"], "");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --wrokload"), "{stderr}");
    assert!(out.stdout.is_empty(), "ran the default workload instead");
}

#[test]
fn trace_on_stdin_is_summarized() {
    let trace = "\
run log header
HMCSIM_TRACE : 5 : RQST : CMD=WR16 CUB=0 QUAD=0 VAULT=3 BANK=0 ADDR=0x0 TAG=0
HMCSIM_TRACE : 6 : RQST : CMD=INC8 CUB=0 QUAD=1 VAULT=7 BANK=1 ADDR=0x40 TAG=1
HMCSIM_TRACE : 7 : RQST : CMD=INC8 CUB=0 QUAD=1 VAULT=7 BANK=1 ADDR=0x40 TAG=2
HMCSIM_TRACE : 9 : LATENCY : tag=0 lat=4 link=0
not a trace line either
";
    let out = explain(&["-"], trace);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let report = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(report.starts_with("cycles 5..9 (3 requests)\n"), "{report}");
    assert!(report.contains("hottest vault: 7 (2 of 3 requests)"), "{report}");
    assert!(report.contains("(2 non-trace lines skipped)"), "{report}");
}
