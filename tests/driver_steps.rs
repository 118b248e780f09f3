//! The thread driver's step order, pinned line by line.
//!
//! Forty-eight scripted threads share a 4-link cube whose crossbar
//! queues hold two packets. Each runs a fixed pseudo-random script of
//! reads (tagged), posted writes (stepped again on the next cycle),
//! sleeps into the future and sleeps to a cycle already past (stepped
//! again on the next cycle), so sends stall and are retried. Every
//! `step` call becomes one line: the cycle, the thread, what the step
//! was handed (nothing, a response, or an error response with its
//! `ERRSTAT`) and what it returned.
//!
//! A second scenario adds a resilience policy whose timeout is shorter
//! than the queueing delay on one hot bank, and vault errors: requests
//! time out, are abandoned and replayed after a backoff, and threads
//! are handed give-ups.
//!
//! Both skip modes run each scenario and must produce the same log, and
//! the logs must match `tests/golden/driver_steps.txt`. Rewrite that
//! file with `BLESS=1 cargo test --test driver_steps` only when moving
//! the driver's schedule is the point of a change.

use hmcsim::prelude::*;
use hmcsim::sim::{FaultPlan, TrackedResponse};
use hmcsim::workloads::driver::{HostThread, Op, Step};
use hmcsim::workloads::{ResilienceConfig, RunMetrics, ThreadDriver};
use std::cell::RefCell;

const THREADS: usize = 48;
const STEPS: u32 = 10;

/// One scripted thread: its next action is drawn from a per-thread
/// linear congruential sequence, and every step is appended to the
/// shared log.
struct Scripted<'a> {
    tid: usize,
    state: u64,
    steps: u32,
    /// Whether all threads hammer one bank (to make requests late).
    hot: bool,
    log: &'a RefCell<Vec<String>>,
}

impl Scripted<'_> {
    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 33
    }

    fn addr(&self) -> u64 {
        if self.hot {
            0x4000
        } else {
            0x4000 + (self.tid as u64) * 0x40
        }
    }
}

impl HostThread for Scripted<'_> {
    fn link(&self) -> usize {
        self.tid % 4
    }

    fn step(&mut self, rsp: Option<TrackedResponse>, cycle: u64) -> Step {
        let handed = match &rsp {
            None => "-".to_string(),
            Some(r) if r.rsp.tail.errstat != 0 => format!("err{:#x}", r.rsp.tail.errstat),
            Some(_) => "rsp".to_string(),
        };
        self.steps += 1;
        let (did, step) = if self.steps > STEPS {
            ("Done".to_string(), Step::Done)
        } else {
            let (addr, roll) = (self.addr(), self.next() % 6);
            match roll {
                0 | 1 => (
                    "Send RD16".to_string(),
                    Step::Send(Op::new(HmcRqst::Rd16, addr, [])),
                ),
                2 => (
                    "Send P_WR16".to_string(),
                    Step::Send(Op::new(HmcRqst::PWr16, addr, [cycle, 0])),
                ),
                3 | 4 => {
                    // Into the future, or to a cycle already past.
                    let until = match roll {
                        3 => cycle + 1 + self.next() % 40,
                        _ => cycle.saturating_sub(self.next() % 3),
                    };
                    (format!("Sleep {until}"), Step::Sleep(until))
                }
                _ => (
                    "Send WR16".to_string(),
                    Step::Send(Op::new(HmcRqst::Wr16, addr, [cycle, 1])),
                ),
            }
        };
        self.log
            .borrow_mut()
            .push(format!("{cycle} t{} {handed} {did}", self.tid));
        step
    }
}

/// Runs the 48 threads on a fresh `device` under `skip` and returns the
/// step log followed by a summary line.
fn run(
    device: &DeviceConfig,
    skip: SkipMode,
    resilience: Option<ResilienceConfig>,
) -> (Vec<String>, RunMetrics) {
    let mut sim = HmcSim::new(device.clone()).unwrap();
    sim.set_skip_mode(skip);
    // Pinned to the default backend, so an `HMCSIM_TIMING` override
    // cannot move the golden.
    sim.set_timing_model(TimingSelect::FixedLatency);
    let log = RefCell::new(Vec::new());
    let hot = resilience.is_some();
    let mut threads: Vec<Scripted> = (0..THREADS)
        .map(|tid| Scripted {
            tid,
            state: tid as u64 * 0x9E37_79B9 + 1,
            steps: 0,
            hot,
            log: &log,
        })
        .collect();
    let driver = ThreadDriver {
        dev: 0,
        max_cycles: 100_000,
        resilience,
    };
    let metrics = driver.run(&mut sim, &mut threads);
    let stats = sim.stats(0).unwrap();
    let mut lines = log.into_inner();
    lines.push(format!(
        "end cycle={} fp={:016x} send_stalls={} total_cycles={} unfinished={} per_thread={:?} \
         faults={:?}",
        sim.cycle(),
        sim.state_fingerprint(),
        stats.send_stalls,
        metrics.total_cycles,
        metrics.unfinished,
        metrics.per_thread_cycles,
        metrics.total_faults(),
    ));
    (lines, metrics)
}

#[test]
fn driver_step_order_matches_the_golden() {
    let tight = DeviceConfig {
        xbar_queue_depth: 2,
        ..DeviceConfig::gen2_4link_4gb()
    };
    let mut faulty = tight.clone();
    faulty.fault = FaultPlan::seeded(11).with_vault_errors(150_000);
    let policy = ResilienceConfig {
        request_timeout: 12,
        max_retries: 1,
        backoff_base: 3,
    };
    let mut rendered = String::new();
    for (name, device, resilience) in [
        ("stalls", &tight, None),
        ("resilient", &faulty, Some(policy)),
    ] {
        let (off, metrics) = run(device, SkipMode::Off, resilience);
        let (on, _) = run(device, SkipMode::On, resilience);
        assert_eq!(off, on, "{name}: the skip modes disagree");
        assert_eq!(metrics.unfinished, 0, "{name}");
        assert!(
            off.iter().any(|l| l.contains("Sleep")),
            "{name}: no thread slept"
        );
        let stalls: u64 = off
            .last()
            .and_then(|l| l.split("send_stalls=").nth(1))
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(stalls > 0, "{name}: no send stalled");
        if resilience.is_some() {
            let faults = metrics.total_faults();
            assert!(
                faults.timeouts > 0,
                "{name}: no request timed out: {faults:?}"
            );
            assert!(
                faults.retries > 0,
                "{name}: nothing was replayed: {faults:?}"
            );
            assert!(
                faults.give_ups > 0,
                "{name}: no thread was handed a give-up: {faults:?}"
            );
            assert!(
                faults.error_responses > 0,
                "{name}: no vault error: {faults:?}"
            );
        }
        rendered.push_str(&format!("# {name}\n"));
        for line in off {
            rendered.push_str(&line);
            rendered.push('\n');
        }
    }

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/driver_steps.txt");
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
        assert_eq!(now, pinned, "line {} of driver_steps.txt moved", i + 1);
    }
    assert_eq!(rendered, golden, "driver_steps.txt gained or lost lines");
}
