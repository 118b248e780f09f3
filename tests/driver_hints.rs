//! The thread driver's idle hints are its own, so prove them harmless.
//!
//! A `HostThread` makes no promise about when it is idle: the driver
//! works out each thread's next due cycle from what it holds for it — a
//! request a stalled send left unsent (due now), a request in flight
//! (due never, until its response or the resilience layer's give-up
//! arrives) or a sleep (due at its wake-up). Under `SkipMode::On` those
//! due cycles, with the driver's retry queue and timeout deadlines, are
//! the horizon `clock_until_event` jumps to; under `SkipMode::Off` the
//! driver clocks every cycle. For every kernel that runs on the driver —
//! the mutex (both spin policies, all three mechanisms, with and without
//! stalling sends), rwlock, barrier and counter — and under a resilience
//! policy whose timeouts and give-ups reach threads the driver leaves
//! un-stepped, the two must leave the same kernel result, metrics,
//! device statistics, cycle count and state fingerprint.

use hmcsim::cmc::ops;
use hmcsim::prelude::*;
use hmcsim::sim::{DeviceStats, FaultPlan};
use hmcsim::workloads::kernels::counter::{CounterKernel, CounterKernelConfig, CounterMode};
use hmcsim::workloads::kernels::rwlock::{RwLockKernel, RwLockKernelConfig};
use hmcsim::workloads::{
    BarrierKernel, BarrierKernelConfig, MutexKernel, MutexKernelConfig, MutexMechanism,
    ResilienceConfig, SpinPolicy, ThreadDriver,
};
use std::fmt::Debug;

const MAX_CYCLES: u64 = 400_000;

/// Everything a run leaves behind that a wrong due cycle could have
/// perturbed.
#[derive(Debug, PartialEq)]
struct Observed<R> {
    result: R,
    stats: DeviceStats,
    cycle: u64,
    fingerprint: u64,
}

/// Runs `kernel` on a fresh `device` (with `library` loaded) under
/// `skip` and returns what the run left behind.
fn observe<R>(
    device: &DeviceConfig,
    library: Option<&str>,
    skip: SkipMode,
    kernel: &impl Fn(&mut HmcSim) -> R,
) -> Observed<R> {
    ops::register_builtin_libraries();
    let mut sim = HmcSim::new(device.clone()).unwrap();
    sim.set_skip_mode(skip);
    if let Some(library) = library {
        sim.load_cmc_library(0, library).unwrap();
    }
    let result = kernel(&mut sim);
    Observed {
        result,
        stats: sim.stats(0).unwrap().clone(),
        cycle: sim.cycle(),
        fingerprint: sim.state_fingerprint(),
    }
}

/// The equivalence itself: the run that jumps to the driver's horizon
/// and the run that clocks every cycle agree. Returns the common
/// observation.
fn assert_hints_change_nothing<R: Debug + PartialEq>(
    name: &str,
    device: &DeviceConfig,
    library: Option<&str>,
    kernel: impl Fn(&mut HmcSim) -> R,
) -> Observed<R> {
    let every_cycle = observe(device, library, SkipMode::Off, &kernel);
    let skipping = observe(device, library, SkipMode::On, &kernel);
    assert_eq!(skipping, every_cycle, "{name}: SkipMode::On against SkipMode::Off");
    every_cycle
}

/// A 4-link cube whose crossbar queues hold two packets: with a few
/// threads per link, sends stall, and the driver holds a thread's
/// request from one cycle to the next (on the stock device a send
/// never stalls).
fn tight_device() -> DeviceConfig {
    DeviceConfig { xbar_queue_depth: 2, ..DeviceConfig::gen2_4link_4gb() }
}

fn mutex_library(mechanism: MutexMechanism) -> Option<&'static str> {
    match mechanism {
        MutexMechanism::Cmc => Some(ops::MUTEX_LIBRARY),
        MutexMechanism::Ticket => Some(ops::TICKET_LIBRARY),
        MutexMechanism::CasEq8 => None,
    }
}

#[test]
fn mutex_kernel_hints_change_nothing() {
    for spin in [SpinPolicy::PaperBounded, SpinPolicy::until_owned()] {
        for mechanism in [MutexMechanism::Cmc, MutexMechanism::CasEq8, MutexMechanism::Ticket] {
            let kernel = MutexKernel::new(MutexKernelConfig {
                threads: 24,
                spin,
                mechanism,
                max_cycles: MAX_CYCLES,
                ..Default::default()
            });
            for device in [DeviceConfig::gen2_4link_4gb(), tight_device()] {
                let stalls = device.xbar_queue_depth == 2;
                let name = format!("mutex {spin:?} {mechanism:?} stalls={stalls}");
                let seen = assert_hints_change_nothing(
                    &name,
                    &device,
                    mutex_library(mechanism),
                    |sim| kernel.run(sim).unwrap(),
                );
                assert_eq!(seen.result.metrics.unfinished, 0, "{name}");
                assert_eq!(seen.stats.send_stalls > 0, stalls, "{name}");
            }
        }
    }
}

#[test]
fn rwlock_barrier_and_counter_hints_change_nothing() {
    let rwlock = RwLockKernel::new(RwLockKernelConfig { max_cycles: MAX_CYCLES, ..Default::default() });
    let seen = assert_hints_change_nothing(
        "rwlock",
        &DeviceConfig::gen2_4link_4gb(),
        Some(ops::RWLOCK_LIBRARY),
        |sim| rwlock.run(sim).unwrap(),
    );
    assert_eq!(seen.result.metrics.unfinished, 0);
    assert_eq!(seen.result.final_value, seen.result.expected_value);

    let barrier = BarrierKernel::new(BarrierKernelConfig {
        threads: 12,
        rounds: 4,
        max_cycles: MAX_CYCLES,
        ..Default::default()
    });
    let seen =
        assert_hints_change_nothing("barrier", &DeviceConfig::gen2_8link_8gb(), None, |sim| {
            barrier.run(sim).unwrap()
        });
    assert_eq!(seen.result.metrics.unfinished, 0);
    assert_eq!(seen.result.ordering_violation(), None);

    for mode in [CounterMode::HmcInc8, CounterMode::CacheRmw] {
        let counter = CounterKernel::new(CounterKernelConfig {
            threads: 12,
            increments_per_thread: 8,
            mode,
            max_cycles: MAX_CYCLES,
            ..Default::default()
        });
        let name = format!("counter {mode:?}");
        let seen =
            assert_hints_change_nothing(&name, &DeviceConfig::gen2_4link_4gb(), None, |sim| {
                counter.run(sim).unwrap()
            });
        assert_eq!(seen.result.metrics.unfinished, 0, "{name}");
    }
}

#[test]
fn timeouts_and_give_ups_reach_threads_that_were_being_skipped() {
    // Twenty-four threads on one bank queue up just past a 22-cycle
    // timeout, and one retry does not always get through: the driver
    // abandons tags, replays requests and hands threads the give-up
    // response — all while those threads are not due, their requests
    // in flight. Vault errors and poison add faulty responses the
    // driver intercepts on the same path. (The long backoff keeps the
    // replays from overloading the bank for good.)
    let mut device = DeviceConfig::gen2_4link_4gb();
    device.fault = FaultPlan::seeded(23).with_vault_errors(60_000).with_poison(40_000);
    let policy = ResilienceConfig { request_timeout: 22, max_retries: 1, backoff_base: 32 };
    let kernel = MutexKernel::new(MutexKernelConfig {
        threads: 24,
        spin: SpinPolicy::until_owned(),
        max_cycles: MAX_CYCLES,
        ..Default::default()
    });
    let driver = ThreadDriver { dev: 0, max_cycles: MAX_CYCLES, resilience: Some(policy) };
    let seen = assert_hints_change_nothing(
        "resilient mutex",
        &device,
        Some(ops::MUTEX_LIBRARY),
        |sim| kernel.run_with_driver(sim, &driver).unwrap(),
    );
    let faults = seen.result.metrics.total_faults();
    assert!(faults.timeouts > 0, "no request timed out: {faults:?}");
    assert!(faults.give_ups > 0, "no thread was handed a give-up: {faults:?}");
    assert!(faults.error_responses > 0, "no vault error was intercepted: {faults:?}");
    assert_eq!(seen.result.metrics.unfinished, 0, "every thread finished all the same");
}
