//! The thread driver's idle hints are promises, so prove them.
//!
//! `HostThread::parked_until` lets `ThreadDriver::run` leave a thread
//! un-ticked while it backs off or waits for a response, and compress
//! the wait when every thread is idle. The promise is that the skipped
//! ticks would have done nothing. For every kernel that makes it — the
//! mutex kernel (both spin policies, all three mechanisms), rwlock,
//! barrier and counter — a run whose threads withhold the hint (so the
//! driver ticks each on every cycle, as it did before the hint existed)
//! must leave the same metrics, device statistics, cycle count and
//! state fingerprint as the hinted run, with idle-cycle skipping off
//! and on, and under a resilience policy whose timeouts and give-ups
//! have to reach threads the driver was skipping.

use hmcsim::cmc::ops;
use hmcsim::prelude::*;
use hmcsim::sim::{DeviceStats, FaultPlan};
use hmcsim::workloads::driver::{HostThread, ThreadIo, ThreadStatus};
use hmcsim::workloads::kernels::counter::{CounterKernel, CounterKernelConfig, CounterMode};
use hmcsim::workloads::kernels::rwlock::{RwLockKernel, RwLockKernelConfig};
use hmcsim::workloads::{
    BarrierKernel, BarrierKernelConfig, MutexKernel, MutexKernelConfig, MutexMechanism,
    ResilienceConfig, RunMetrics, SpinPolicy, ThreadDriver,
};

/// What a [`Probe`] tells the driver about the thread it wraps.
#[derive(Clone, Copy)]
enum Hints {
    /// The thread's own `parked_until`.
    Forward,
    /// Nothing: "tick me every cycle".
    Withhold,
    /// A lie. The kernels make no promise exactly when they are about
    /// to send; this reports those states idle too.
    SendIsIdle,
}

/// Forwards `link` and `tick`, counts the ticks, and answers
/// `parked_until` as told.
struct Probe<T> {
    thread: T,
    hints: Hints,
    ticks: u64,
}

impl<T: HostThread> HostThread for Probe<T> {
    fn link(&self) -> usize {
        self.thread.link()
    }

    fn tick(&mut self, io: &mut ThreadIo<'_>) -> ThreadStatus {
        self.ticks += 1;
        self.thread.tick(io)
    }

    fn parked_until(&self) -> Option<u64> {
        match self.hints {
            Hints::Forward => self.thread.parked_until(),
            Hints::Withhold => None,
            Hints::SendIsIdle => self.thread.parked_until().or(Some(u64::MAX)),
        }
    }
}

/// Everything a run leaves behind that a hint could have perturbed.
#[derive(Debug, PartialEq)]
struct Observed {
    metrics: RunMetrics,
    stats: DeviceStats,
    cycle: u64,
    fingerprint: u64,
}

/// Drives `threads` on `sim` with their hints treated as `hints`;
/// returns what the run left behind and how many ticks it took.
fn observe<T: HostThread>(
    (mut sim, threads): (HmcSim, Vec<T>),
    driver: &ThreadDriver,
    hints: Hints,
) -> (Observed, u64) {
    let mut probes: Vec<Probe<T>> =
        threads.into_iter().map(|thread| Probe { thread, hints, ticks: 0 }).collect();
    let metrics = driver.run(&mut sim, &mut probes);
    let observed = Observed {
        metrics,
        stats: sim.stats(0).unwrap().clone(),
        cycle: sim.cycle(),
        fingerprint: sim.state_fingerprint(),
    };
    (observed, probes.iter().map(|p| p.ticks).sum())
}

/// The equivalence itself: hinted and un-hinted runs of the scenario
/// `build` sets up agree, under both skip modes (and the skip modes
/// with each other), and the hinted run really skipped ticks. Returns
/// the common observation.
fn assert_hints_change_nothing<T: HostThread>(
    name: &str,
    driver: &ThreadDriver,
    build: impl Fn(SkipMode) -> (HmcSim, Vec<T>),
) -> Observed {
    let (reference, every_tick) = observe(build(SkipMode::Off), driver, Hints::Withhold);
    for skip in [SkipMode::Off, SkipMode::On] {
        let (hinted, ticks) = observe(build(skip), driver, Hints::Forward);
        assert_eq!(hinted, reference, "{name}: hinted run under {skip:?}");
        assert!(
            ticks < every_tick,
            "{name}: the hinted run took {ticks} ticks of {every_tick}; nothing was skipped"
        );
    }
    let (unhinted_skip, _) = observe(build(SkipMode::On), driver, Hints::Withhold);
    assert_eq!(unhinted_skip, reference, "{name}: un-hinted run under SkipMode::On");
    reference
}

fn driver(resilience: Option<ResilienceConfig>) -> ThreadDriver {
    ThreadDriver { dev: 0, max_cycles: 400_000, resilience }
}

fn sim_with(device: DeviceConfig, library: Option<&str>, skip: SkipMode) -> HmcSim {
    ops::register_builtin_libraries();
    let mut sim = HmcSim::new(device).unwrap();
    sim.set_skip_mode(skip);
    if let Some(library) = library {
        sim.load_cmc_library(0, library).unwrap();
    }
    sim
}

/// A 4-link cube whose crossbar queues hold two packets: with a few
/// threads per link, sends stall, and a thread stays in a send state
/// from one tick to the next (on the stock device a wait state that
/// gets its response sends in the same tick, and never stalls).
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
                ..Default::default()
            });
            for device in [DeviceConfig::gen2_4link_4gb(), tight_device()] {
                let stalls = device.xbar_queue_depth == 2;
                let name = format!("mutex {spin:?} {mechanism:?} stalls={stalls}");
                let seen = assert_hints_change_nothing(&name, &driver(None), |skip| {
                    let mut sim = sim_with(device.clone(), mutex_library(mechanism), skip);
                    let threads = kernel.threads(&mut sim).unwrap();
                    (sim, threads)
                });
                assert_eq!(seen.metrics.unfinished, 0, "{name}");
                assert_eq!(seen.stats.send_stalls > 0, stalls, "{name}");
            }
        }
    }
}

#[test]
fn rwlock_barrier_and_counter_hints_change_nothing() {
    let rwlock = RwLockKernel::new(RwLockKernelConfig::default());
    let seen = assert_hints_change_nothing("rwlock", &driver(None), |skip| {
        let mut sim = sim_with(DeviceConfig::gen2_4link_4gb(), Some(ops::RWLOCK_LIBRARY), skip);
        let threads = rwlock.threads(&mut sim).unwrap();
        (sim, threads)
    });
    assert_eq!(seen.metrics.unfinished, 0);

    let barrier =
        BarrierKernel::new(BarrierKernelConfig { threads: 12, rounds: 4, ..Default::default() });
    let seen = assert_hints_change_nothing("barrier", &driver(None), |skip| {
        let mut sim = sim_with(DeviceConfig::gen2_8link_8gb(), None, skip);
        let threads = barrier.threads(&mut sim).unwrap();
        (sim, threads)
    });
    assert_eq!(seen.metrics.unfinished, 0);

    for mode in [CounterMode::HmcInc8, CounterMode::CacheRmw] {
        let counter = CounterKernel::new(CounterKernelConfig {
            threads: 12,
            increments_per_thread: 8,
            mode,
            ..Default::default()
        });
        let name = format!("counter {mode:?}");
        let seen = assert_hints_change_nothing(&name, &driver(None), |skip| {
            let mut sim = sim_with(DeviceConfig::gen2_4link_4gb(), None, skip);
            let threads = counter.threads(&mut sim).unwrap();
            (sim, threads)
        });
        assert_eq!(seen.metrics.unfinished, 0, "{name}");
    }
}

#[test]
fn timeouts_and_give_ups_reach_threads_that_were_being_skipped() {
    // Twenty-four threads on one bank queue up just past a 22-cycle
    // timeout, and one retry does not always get through: the driver
    // abandons tags, replays requests and hands threads the give-up
    // response — all while those threads sit in a wait state the
    // driver is not ticking. Vault errors and poison add faulty
    // responses the driver intercepts on the same path. (The long
    // backoff keeps the replays from overloading the bank for good.)
    let mut device = DeviceConfig::gen2_4link_4gb();
    device.fault = FaultPlan::seeded(23).with_vault_errors(60_000).with_poison(40_000);
    let policy = ResilienceConfig { request_timeout: 22, max_retries: 1, backoff_base: 32 };
    let kernel = MutexKernel::new(MutexKernelConfig {
        threads: 24,
        spin: SpinPolicy::until_owned(),
        ..Default::default()
    });
    let seen = assert_hints_change_nothing("resilient mutex", &driver(Some(policy)), |skip| {
        let mut sim = sim_with(device.clone(), Some(ops::MUTEX_LIBRARY), skip);
        let threads = kernel.threads(&mut sim).unwrap();
        (sim, threads)
    });
    let faults = seen.metrics.total_faults();
    assert!(faults.timeouts > 0, "no request timed out: {faults:?}");
    assert!(faults.give_ups > 0, "no thread was handed a give-up: {faults:?}");
    assert!(faults.error_responses > 0, "no vault error was intercepted: {faults:?}");
    assert_eq!(seen.metrics.unfinished, 0, "every thread finished all the same");
}

#[test]
fn a_send_state_reported_idle_is_caught() {
    // The check has teeth: a thread whose send stalled and that claims
    // to be idle all the same is never ticked again — its retries, and
    // the stalls they would have counted, are missing from the run.
    let kernel = MutexKernel::new(MutexKernelConfig { threads: 24, ..Default::default() });
    let build = || {
        let mut sim = sim_with(tight_device(), Some(ops::MUTEX_LIBRARY), SkipMode::Off);
        let threads = kernel.threads(&mut sim).unwrap();
        (sim, threads)
    };
    let driver = ThreadDriver { dev: 0, max_cycles: 2_000, resilience: None };
    let (honest, _) = observe(build(), &driver, Hints::Forward);
    let (lying, _) = observe(build(), &driver, Hints::SendIsIdle);
    assert_eq!(honest.metrics.unfinished, 0);
    assert!(honest.stats.send_stalls > 0, "the scenario stalls sends");
    assert_ne!(lying, honest, "a wrongly idle send state went unnoticed");
    assert!(lying.stats.send_stalls < honest.stats.send_stalls);
    assert!(lying.metrics.unfinished > 0, "a thread that stops sending cannot finish");
}
