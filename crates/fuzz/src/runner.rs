//! The differential runner: execute one scenario under the paired
//! engine configurations and classify what happened.
//!
//! Every scenario runs twice:
//!
//! * **reference** — idle-cycle skipping off, no observers: the
//!   configuration every variant is contracted to be bit-identical to;
//! * **variant** — the scenario's sampled engine axes (skip mode,
//!   sanitizer, telemetry, flight recorder).
//!
//! Each side runs behind `catch_unwind` on a watchdog thread with a
//! wall-clock budget, so a panicking or runaway engine is classified
//! instead of killing the fuzzer. The comparison is the pair of
//! digests: the device-side [`OracleDigest`] (cycle and fingerprint
//! axes, kept apart so the mismatch names its axis) plus the workload
//! digest from
//! [`KernelDescriptor::run`](hmc_workloads::KernelDescriptor::run).

use crate::scenario::Scenario;
use hmc_sim::sanitizer::ViolationKind;
use hmc_sim::{HmcSim, Json, OracleDigest, SimConfig, SkipMode};
use hmc_types::HmcError;
use hmc_workloads::KernelDescriptor;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Runner policy knobs.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Wall-clock budget per side per scenario.
    pub timeout: Duration,
    /// Canary mode: inject a known divergence (a stats increment
    /// dropped when the variant runs with [`SkipMode::On`]) into the
    /// variant's observation, to self-test the find-and-shrink loop.
    pub canary: bool,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig { timeout: Duration::from_secs(30), canary: false }
    }
}

/// Everything observable from one side of the differential pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// Device-side oracle digest.
    pub oracle: OracleDigest,
    /// Workload digest (host-visible results).
    pub workload: u64,
    /// Sanitizer violations (variant side only; 0 when not attached).
    pub violations: u64,
    /// Violations of kind [`ViolationKind::StallWatchdog`] among those
    /// retained.
    pub watchdog: u64,
}

/// Classified result of one differential run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Both sides agree on every axis.
    Pass,
    /// A digest axis diverged between reference and variant.
    Mismatch {
        /// Which axis: `cycle`, `fingerprint` or `workload`.
        axis: &'static str,
        /// Reference-side value of the axis.
        reference: u64,
        /// Variant-side value of the axis.
        variant: u64,
    },
    /// One side panicked.
    Panic {
        /// `reference` or `variant`.
        side: &'static str,
        /// Panic payload, when it carried a message.
        message: String,
    },
    /// The variant's sanitizer reported invariant violations.
    SanitizerViolation {
        /// Total violations detected.
        total: u64,
    },
    /// The variant's sanitizer stall watchdog fired.
    WatchdogStall {
        /// Total violations detected (watchdog included).
        total: u64,
    },
    /// One side blew the wall-clock budget.
    Timeout {
        /// `reference` or `variant`.
        side: &'static str,
    },
    /// Scenario setup or the kernel run returned an error. The
    /// generator only emits scenarios that pass
    /// [`Scenario::validate`], so this is a finding too: some layer
    /// rejected work it is contracted to handle.
    SetupError {
        /// The error message (shared by both sides, or annotated when
        /// they disagree).
        message: String,
    },
}

impl Outcome {
    /// Stable class label: equal labels mean "the same kind of
    /// failure" for shrinking and corpus file naming.
    pub fn class(&self) -> String {
        match self {
            Outcome::Pass => "pass".into(),
            Outcome::Mismatch { axis, .. } => format!("mismatch-{axis}"),
            Outcome::Panic { side, .. } => format!("panic-{side}"),
            Outcome::SanitizerViolation { .. } => "sanitizer".into(),
            Outcome::WatchdogStall { .. } => "watchdog-stall".into(),
            Outcome::Timeout { side } => format!("timeout-{side}"),
            Outcome::SetupError { .. } => "setup-error".into(),
        }
    }

    /// True for outcomes that should produce a reproducer —
    /// everything except [`Outcome::Pass`].
    pub fn is_failure(&self) -> bool {
        !matches!(self, Outcome::Pass)
    }
}

enum SideFailure {
    Panic(String),
    Error(String),
    Timeout,
}

/// Per-lane flight-recorder capacity used for the fuzzed tracing axis
/// and for reproducer timeline capture.
const FLIGHT_CAPACITY: usize = 2048;

/// A context for `config` with its skip mode and timing backend
/// pinned: an `HMCSIM_SKIP` or `HMCSIM_TIMING` set in the fuzzing
/// environment upgrades a default one in [`HmcSim::with_config`], and
/// must not skew one side.
fn build(config: &SimConfig) -> Result<HmcSim, HmcError> {
    let mut sim = HmcSim::with_config(config.clone())?;
    sim.set_skip_mode(config.skip_mode);
    sim.set_timing_model(config.timing);
    Ok(sim)
}

/// Runs `kernel` on a context for `config` to completion on a
/// watchdog thread, with the flight recorder attached when `trace`.
fn observe(
    kernel: &KernelDescriptor,
    config: SimConfig,
    trace: bool,
    timeout: Duration,
) -> Result<Observation, SideFailure> {
    let kernel = kernel.clone();
    let (tx, rx) = mpsc::channel();
    // The worker is detached on timeout; the fuzzer process carries on
    // and the stuck thread dies with the process.
    thread::spawn(move || {
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut sim = build(&config).map_err(|e| format!("device setup failed: {e}"))?;
            if trace {
                sim.enable_flight_recorder(FLIGHT_CAPACITY);
            }
            let workload = kernel.run(&mut sim).map_err(|e| format!("kernel run failed: {e}"))?;
            let report = sim.sanitizer_report();
            let violations = report.map(|r| r.total_violations).unwrap_or(0);
            let watchdog = report
                .map(|r| {
                    r.violations
                        .iter()
                        .filter(|v| v.kind == ViolationKind::StallWatchdog)
                        .count() as u64
                })
                .unwrap_or(0);
            Ok(Observation { oracle: sim.oracle_digest(), workload, violations, watchdog })
        }));
        let _ = tx.send(result);
    });
    match rx.recv_timeout(timeout) {
        Ok(Ok(Ok(obs))) => Ok(obs),
        Ok(Ok(Err(message))) => Err(SideFailure::Error(message)),
        Ok(Err(payload)) => Err(SideFailure::Panic(panic_message(payload.as_ref()))),
        Err(_) => Err(SideFailure::Timeout),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".into()
    }
}

/// Runs the full differential pair for one scenario and classifies
/// the outcome.
pub fn run_scenario(scenario: &Scenario, config: &RunnerConfig) -> Outcome {
    // Both sides instantiate the scenario's devices, fabric and timing
    // backend, so a divergence they cause shows up on the digest axes,
    // never as a setup asymmetry.
    let variant =
        || observe(&scenario.kernel, scenario.sim.clone(), scenario.trace, config.timeout);
    let reference = match observe(&scenario.kernel, scenario.reference(), false, config.timeout) {
        Ok(obs) => obs,
        Err(SideFailure::Panic(message)) => {
            return Outcome::Panic { side: "reference", message }
        }
        Err(SideFailure::Timeout) => return Outcome::Timeout { side: "reference" },
        Err(SideFailure::Error(message)) => {
            // The reference could not even set the scenario up. If the
            // variant fails the same way it is a scenario problem; if
            // the variant *succeeds*, the engines disagree about
            // validity — that is a finding.
            return match variant() {
                Err(SideFailure::Error(v_message)) if v_message == message => {
                    Outcome::SetupError { message }
                }
                Err(SideFailure::Error(v_message)) => Outcome::SetupError {
                    message: format!(
                        "sides disagree: reference `{message}` vs variant `{v_message}`"
                    ),
                },
                Err(SideFailure::Panic(message)) => Outcome::Panic { side: "variant", message },
                Err(SideFailure::Timeout) => Outcome::Timeout { side: "variant" },
                Ok(_) => Outcome::Mismatch { axis: "workload", reference: 0, variant: 1 },
            };
        }
    };
    let mut variant = match variant() {
        Ok(obs) => obs,
        Err(SideFailure::Panic(message)) => return Outcome::Panic { side: "variant", message },
        Err(SideFailure::Timeout) => return Outcome::Timeout { side: "variant" },
        Err(SideFailure::Error(message)) => {
            return Outcome::SetupError {
                message: format!("variant-only setup failure: {message}"),
            }
        }
    };
    if config.canary && scenario.sim.skip_mode == SkipMode::On {
        // The seeded defect: pretend the skipping engine dropped one
        // stats increment. The fingerprint hashes every stats counter,
        // so a correct fuzzer must flag this as a fingerprint-axis
        // mismatch and shrink it.
        variant.oracle.fingerprint = variant.oracle.fingerprint.wrapping_add(1);
    }
    if variant.watchdog > 0 {
        return Outcome::WatchdogStall { total: variant.violations };
    }
    if variant.violations > 0 {
        return Outcome::SanitizerViolation { total: variant.violations };
    }
    let axes: [(&'static str, u64, u64); 3] = [
        ("cycle", reference.oracle.cycle, variant.oracle.cycle),
        ("fingerprint", reference.oracle.fingerprint, variant.oracle.fingerprint),
        ("workload", reference.workload, variant.workload),
    ];
    for (axis, r, v) in axes {
        if r != v {
            return Outcome::Mismatch { axis, reference: r, variant: v };
        }
    }
    Outcome::Pass
}

/// Replays the scenario's variant side with the flight recorder
/// attached and returns the timeline as the Perfetto `traceEvents`
/// array, for embedding into reproducer files. The recorder is
/// zero-perturbation, so this replay exercises the same execution the
/// reproducer pins. Returns `None` when the variant cannot finish
/// (panic, timeout, setup error) — a reproducer is still written, it
/// just carries no timeline.
pub fn capture_trace_events(scenario: &Scenario, timeout: Duration) -> Option<Json> {
    let scenario = scenario.clone();
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut sim = build(&scenario.sim).ok()?;
            sim.enable_flight_recorder(FLIGHT_CAPACITY);
            scenario.kernel.run(&mut sim).ok()?;
            let snap = sim.flight_snapshot()?;
            Some(hmc_sim::perfetto::trace_events(
                &snap,
                &hmc_sim::perfetto::PerfettoOptions::default(),
            ))
        }));
        let _ = tx.send(result);
    });
    match rx.recv_timeout(timeout) {
        Ok(Ok(events)) => events,
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::{DeviceConfig, SanitizerConfig};

    fn scenario(skip_mode: SkipMode) -> Scenario {
        Scenario {
            seed: 1,
            kernel: KernelDescriptor::RawOps { ops: 24, seed: 5, gap: 2, drain: 64 },
            sim: SimConfig {
                skip_mode,
                sanitizer: SanitizerConfig::report(),
                timing: hmc_sim::TimingSelect::RowBuffer,
                ..SimConfig::ring(DeviceConfig::gen2_4link_4gb(), 4)
            },
            trace: true,
        }
    }

    #[test]
    fn clean_scenario_passes() {
        assert_eq!(run_scenario(&scenario(SkipMode::On), &RunnerConfig::default()), Outcome::Pass);
    }

    #[test]
    fn canary_fires_only_under_skip_mode() {
        let config = RunnerConfig { canary: true, ..Default::default() };
        match run_scenario(&scenario(SkipMode::On), &config) {
            Outcome::Mismatch { axis: "fingerprint", .. } => {}
            other => panic!("canary should be a fingerprint mismatch, got {other:?}"),
        }
        assert_eq!(run_scenario(&scenario(SkipMode::Off), &config), Outcome::Pass);
    }

    #[test]
    fn trace_capture_returns_a_nonempty_timeline() {
        let events = capture_trace_events(&scenario(SkipMode::Off), Duration::from_secs(30))
            .expect("clean scenario yields a timeline")
            .render();
        assert!(events.starts_with('['), "{events}");
        assert!(events.contains("\"ph\""), "no trace events captured: {events}");
    }

    #[test]
    fn outcome_is_deterministic_across_repeat_runs() {
        let s = scenario(SkipMode::On);
        let config = RunnerConfig::default();
        let first = run_scenario(&s, &config);
        let second = run_scenario(&s, &config);
        assert_eq!(first, second);
    }
}
