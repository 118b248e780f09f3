//! Every thread kernel, run end to end and pinned against a golden.
//!
//! The four kernels that run on `ThreadDriver` — the mutex (both spin
//! policies, all three mechanisms), rwlock, barrier and counter (both
//! modes) — run on the stock cube and, for the mutex, on one whose
//! crossbar queues hold two packets, so sends stall and are retried.
//! The mutex also runs under two resilience policies: one tight enough
//! that requests time out and are given up on amid vault errors and
//! poison, and `fault_injection.rs`'s chaos plan, whose link-1 outage
//! makes sends fail over to surviving links.
//!
//! Each run becomes one line: cycle, state fingerprint, send stalls,
//! responses, error responses, the driver's `RunMetrics` and the
//! kernel's result. Both skip modes run and must agree, and the lines
//! must match `tests/golden/thread_kernels.txt`. Rewrite that file with
//! `BLESS=1 cargo test --test thread_kernels` only when moving a
//! simulated result is the point of a change.

use hmcsim::cmc::ops;
use hmcsim::prelude::*;
use hmcsim::sim::{FaultPlan, LinkErrorMode};
use hmcsim::workloads::kernels::counter::{CounterKernel, CounterKernelConfig, CounterMode};
use hmcsim::workloads::kernels::rwlock::{RwLockKernel, RwLockKernelConfig};
use hmcsim::workloads::{
    BarrierKernel, BarrierKernelConfig, MutexKernel, MutexKernelConfig, MutexMechanism,
    ResilienceConfig, RunMetrics, SpinPolicy, ThreadDriver, ThreadFaultStats,
};

const MAX_CYCLES: u64 = 400_000;

/// One compact field per thread: timeouts, retries, error responses,
/// poisoned responses, link failovers and give-ups.
fn render_metrics(m: &RunMetrics) -> String {
    let faults: Vec<String> = m
        .fault_stats
        .iter()
        .map(|f| {
            let ThreadFaultStats {
                timeouts,
                retries,
                error_responses,
                poisoned,
                link_failovers,
                give_ups,
            } = f;
            format!("{timeouts}/{retries}/{error_responses}/{poisoned}/{link_failovers}/{give_ups}")
        })
        .collect();
    format!(
        "total_cycles={} unfinished={} per_thread={:?} faults(t/r/e/p/f/g)=[{}]",
        m.total_cycles,
        m.unfinished,
        m.per_thread_cycles,
        faults.join(" ")
    )
}

/// Runs `kernel` on a fresh `device` (with `library` loaded) under
/// both skip modes, appends one line per run to `lines`, checks that
/// the two agree and every thread finished, and returns the run's send
/// stalls and summed fault counters.
fn run(
    lines: &mut Vec<String>,
    name: &str,
    device: &DeviceConfig,
    library: Option<&str>,
    kernel: impl Fn(&mut HmcSim) -> (RunMetrics, String),
) -> (u64, ThreadFaultStats) {
    let mut reference: Option<String> = None;
    let mut seen = (0, ThreadFaultStats::default());
    for skip in [SkipMode::Off, SkipMode::On] {
        ops::register_builtin_libraries();
        let mut sim = HmcSim::new(device.clone()).unwrap();
        sim.set_skip_mode(skip);
        // Pinned to the default backend, so an `HMCSIM_TIMING` override
        // (the CI timing matrix) cannot move the golden.
        sim.set_timing_model(TimingSelect::FixedLatency);
        if let Some(library) = library {
            sim.load_cmc_library(0, library).unwrap();
        }
        let (metrics, result) = kernel(&mut sim);
        assert_eq!(metrics.unfinished, 0, "{name} under {skip:?}");
        let stats = sim.stats(0).unwrap();
        let line = format!(
            "cycle={} fp={:016x} send_stalls={} responses={} error_responses={} {} {result}",
            sim.cycle(),
            sim.state_fingerprint(),
            stats.send_stalls,
            stats.responses,
            stats.error_responses,
            render_metrics(&metrics),
        );
        match &reference {
            Some(off) => assert_eq!(&line, off, "{name}: the skip modes disagree"),
            None => {
                seen = (stats.send_stalls, metrics.total_faults());
                reference = Some(line.clone());
            }
        }
        lines.push(format!("{name} skip={skip:?} {line}"));
    }
    seen
}

fn mutex(
    config: MutexKernelConfig,
    resilience: Option<ResilienceConfig>,
) -> impl Fn(&mut HmcSim) -> (RunMetrics, String) {
    move |sim| {
        let driver = ThreadDriver {
            dev: 0,
            max_cycles: config.max_cycles,
            resilience,
        };
        let r = MutexKernel::new(config.clone())
            .run_with_driver(sim, &driver)
            .unwrap();
        (
            r.metrics,
            format!(
                "acquisitions={} lock_word={}",
                r.acquisitions, r.final_lock_word
            ),
        )
    }
}

fn mutex_library(mechanism: MutexMechanism) -> Option<&'static str> {
    match mechanism {
        MutexMechanism::Cmc => Some(ops::MUTEX_LIBRARY),
        MutexMechanism::Ticket => Some(ops::TICKET_LIBRARY),
        MutexMechanism::CasEq8 => None,
    }
}

#[test]
fn thread_kernel_runs_match_the_golden() {
    let mut lines = Vec::new();

    // A 4-link cube whose crossbar queues hold two packets: with a few
    // threads per link, sends stall and the driver retries them.
    let tight = DeviceConfig {
        xbar_queue_depth: 2,
        ..DeviceConfig::gen2_4link_4gb()
    };
    for (spin_name, spin) in [
        ("bounded", SpinPolicy::PaperBounded),
        ("until_owned", SpinPolicy::until_owned()),
    ] {
        for mechanism in [
            MutexMechanism::Cmc,
            MutexMechanism::CasEq8,
            MutexMechanism::Ticket,
        ] {
            for device in [DeviceConfig::gen2_4link_4gb(), tight.clone()] {
                let stalls = device.xbar_queue_depth == 2;
                let name = format!(
                    "mutex/{spin_name}/{mechanism:?}/xbar_depth={}",
                    device.xbar_queue_depth
                );
                let config = MutexKernelConfig {
                    threads: 24,
                    spin,
                    mechanism,
                    max_cycles: MAX_CYCLES,
                    ..Default::default()
                };
                let (send_stalls, _) = run(
                    &mut lines,
                    &name,
                    &device,
                    mutex_library(mechanism),
                    mutex(config, None),
                );
                assert_eq!(send_stalls > 0, stalls, "{name}: {send_stalls} send stalls");
            }
        }
    }

    run(
        &mut lines,
        "rwlock",
        &DeviceConfig::gen2_4link_4gb(),
        Some(ops::RWLOCK_LIBRARY),
        |sim| {
            let config = RwLockKernelConfig {
                max_cycles: MAX_CYCLES,
                ..Default::default()
            };
            let r = RwLockKernel::new(config).run(sim).unwrap();
            let result = format!(
                "value={}/{} torn={} lock_state={}",
                r.final_value, r.expected_value, r.torn_reads, r.final_lock_state
            );
            (r.metrics, result)
        },
    );

    run(
        &mut lines,
        "barrier",
        &DeviceConfig::gen2_8link_8gb(),
        None,
        |sim| {
            let config = BarrierKernelConfig {
                threads: 12,
                rounds: 4,
                max_cycles: MAX_CYCLES,
                ..Default::default()
            };
            let r = BarrierKernel::new(config).run(sim).unwrap();
            let result = format!(
                "count={} sense={} arrivals={:?} releases={:?}",
                r.final_count, r.final_sense, r.arrivals, r.releases
            );
            (r.metrics, result)
        },
    );

    for mode in [CounterMode::HmcInc8, CounterMode::CacheRmw] {
        run(
            &mut lines,
            &format!("counter/{mode:?}"),
            &DeviceConfig::gen2_4link_4gb(),
            None,
            |sim| {
                let config = CounterKernelConfig {
                    threads: 12,
                    increments_per_thread: 8,
                    mode,
                    max_cycles: MAX_CYCLES,
                    ..Default::default()
                };
                let r = CounterKernel::new(config).run(sim).unwrap();
                let result = format!(
                    "value={}/{} link_flits={}",
                    r.final_value, r.requested, r.link_flits
                );
                (r.metrics, result)
            },
        );
    }

    // Twenty-four threads on one bank queue up just past a 22-cycle
    // timeout, and one retry does not always get through: the driver
    // abandons tags, replays requests and hands threads the give-up
    // response. Vault errors and poison add faulty responses the driver
    // intercepts. (The long backoff keeps the replays from overloading
    // the bank for good.)
    let mut faulty = DeviceConfig::gen2_4link_4gb();
    faulty.fault = FaultPlan::seeded(23)
        .with_vault_errors(60_000)
        .with_poison(40_000);
    let config = MutexKernelConfig {
        threads: 24,
        spin: SpinPolicy::until_owned(),
        max_cycles: MAX_CYCLES,
        ..Default::default()
    };
    let policy = ResilienceConfig {
        request_timeout: 22,
        max_retries: 1,
        backoff_base: 32,
    };
    let (_, faults) = run(
        &mut lines,
        "mutex/resilient",
        &faulty,
        Some(ops::MUTEX_LIBRARY),
        mutex(config, Some(policy)),
    );
    assert!(faults.timeouts > 0, "no request timed out: {faults:?}");
    assert!(
        faults.give_ups > 0,
        "no thread was handed a give-up: {faults:?}"
    );
    assert!(
        faults.error_responses > 0,
        "no vault error was intercepted: {faults:?}"
    );

    // `fault_injection.rs`'s chaos plan: vault errors, poison, wire
    // corruption and link 1 down from cycle 200 to 600.
    let mut failovers = 0;
    for seed in [0xC0FFEE, 42] {
        let mut chaos = DeviceConfig::gen2_4link_4gb();
        chaos.fault = FaultPlan::seeded(seed)
            .with_vault_errors(40_000)
            .with_poison(20_000)
            .with_link_errors(LinkErrorMode::Random { per_million: 5_000 })
            .with_link_event(200, 1, false)
            .with_link_event(600, 1, true);
        let config = MutexKernelConfig {
            threads: 16,
            spin: SpinPolicy::until_owned(),
            max_cycles: 500_000,
            ..Default::default()
        };
        let policy = ResilienceConfig {
            request_timeout: 3_000,
            max_retries: 8,
            backoff_base: 8,
        };
        let (_, faults) = run(
            &mut lines,
            &format!("mutex/chaos/seed={seed:#x}"),
            &chaos,
            Some(ops::MUTEX_LIBRARY),
            mutex(config, Some(policy)),
        );
        failovers += faults.link_failovers;
    }
    assert!(failovers > 0, "no send failed over to a surviving link");

    let rendered = lines.join("\n") + "\n";
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/thread_kernels.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with BLESS=1",
            path.display()
        )
    });
    for (i, (now, pinned)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(now, pinned, "line {} of thread_kernels.txt moved", i + 1);
    }
    assert_eq!(rendered, golden, "thread_kernels.txt gained or lost lines");
}
