//! `perf` — run one workload (`--workload`, the form `BENCHMARK.json`
//! names) or, without it, every workload in child processes.

use hmc_perf::metrics::WORKLOADS;
use hmc_perf::{single, suite, Opts};
use std::process::ExitCode;

const USAGE: &str = "usage: perf [--workload <name>] [--seed <u64>] [--seconds <s>] \
[--trace <0|1>] [--scale <f>] [--check-repeat]";

fn main() -> ExitCode {
    // Engine, skip and timing modes are set explicitly by every
    // workload; the variables that could upgrade a default must not
    // reach this process or its children.
    for var in [
        "HMCSIM_THREADS",
        "HMCSIM_SKIP",
        "HMCSIM_TIMING",
        "HMCSIM_TRACE",
    ] {
        std::env::remove_var(var);
    }
    let mut opts = Opts {
        seed: 1,
        seconds: 15.0,
        scale: 1.0,
        trace: false,
    };
    let (mut workload, mut check_repeat) = (None, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--check-repeat" {
            check_repeat = true;
            continue;
        }
        let Some(value) = args.next() else {
            eprintln!("{flag} needs a value\n{USAGE}");
            return ExitCode::from(2);
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                WORKLOADS.contains(&value.as_str())
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| opts.seconds = v).is_ok() && opts.seconds > 0.0,
            "--scale" => value.parse().map(|v| opts.scale = v).is_ok() && opts.scale > 0.0,
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!("bad argument: {flag} {value}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let passed = match workload {
        Some(name) if !check_repeat => single::run(&name, &opts),
        Some(_) => {
            eprintln!("--check-repeat runs every workload; drop --workload\n{USAGE}");
            return ExitCode::from(2);
        }
        None => suite::run(&opts, check_repeat),
    };
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
