//! Delta-debugging shrinker: reduce a failing scenario along every
//! axis while the same failure class keeps reproducing.
//!
//! The algorithm is greedy fixpoint iteration. Each pass proposes a
//! list of candidate reductions ordered from most to least aggressive
//! — swap the kernel for a minimal raw-ops stream, zero the fault
//! plan, drop observers, then walk each numeric knob down by halving
//! and decrementing. A candidate is adopted only if re-running it
//! still produces the *same class* of failure (per
//! [`Outcome::class`]); adoption restarts the pass. The loop ends at
//! a fixpoint or after `max_runs` scenario executions, whichever is
//! first, so shrinking is always bounded.

use crate::runner::{run_scenario, Outcome, RunnerConfig};
use crate::scenario::Scenario;
use hmc_sim::{
    DeviceConfig, FaultPlan, LinkErrorMode, LinkTopology, SanitizerConfig, SkipMode,
    TelemetryConfig, TimingSelect,
};
use hmc_workloads::KernelDescriptor;

/// Result of a shrink session.
#[derive(Debug, Clone)]
pub struct ShrinkReport {
    /// The smallest scenario that still fails with the original class.
    pub scenario: Scenario,
    /// The outcome of the minimal scenario's final run.
    pub outcome: Outcome,
    /// Scenario executions spent shrinking.
    pub runs: usize,
}

fn half_down(v: u32, floor: u32) -> Option<u32> {
    let halved = (v / 2).max(floor);
    (halved < v).then_some(halved)
}

fn dec(v: u32, floor: u32) -> Option<u32> {
    (v > floor).then(|| v - 1)
}

/// Candidate kernel reductions, most aggressive first.
fn kernel_candidates(kernel: &KernelDescriptor) -> Vec<KernelDescriptor> {
    let mut out = Vec::new();
    let minimal = KernelDescriptor::RawOps { ops: 1, seed: 1, gap: 0, drain: 16 };
    if kernel != &minimal {
        out.push(minimal);
    }
    match *kernel {
        KernelDescriptor::RawOps { ops, seed, gap, drain } => {
            for smaller in [half_down(ops, 1), dec(ops, 1)].into_iter().flatten() {
                out.push(KernelDescriptor::RawOps { ops: smaller, seed, gap, drain });
            }
            if gap > 0 {
                out.push(KernelDescriptor::RawOps { ops, seed, gap: 0, drain });
            }
            for smaller in [half_down(drain, 16), dec(drain, 16)].into_iter().flatten() {
                out.push(KernelDescriptor::RawOps { ops, seed, gap, drain: smaller });
            }
            if seed != 1 {
                out.push(KernelDescriptor::RawOps { ops, seed: 1, gap, drain });
            }
        }
        KernelDescriptor::Counter { threads, increments, cache_rmw } => {
            for t in [half_down(threads, 1), dec(threads, 1)].into_iter().flatten() {
                out.push(KernelDescriptor::Counter { threads: t, increments, cache_rmw });
            }
            for i in [half_down(increments, 1), dec(increments, 1)].into_iter().flatten() {
                out.push(KernelDescriptor::Counter { threads, increments: i, cache_rmw });
            }
            if cache_rmw {
                out.push(KernelDescriptor::Counter { threads, increments, cache_rmw: false });
            }
        }
        KernelDescriptor::Gups { entries_log2, updates, window, rmw, seed } => {
            for u in [half_down(updates, 1), dec(updates, 1)].into_iter().flatten() {
                out.push(KernelDescriptor::Gups { entries_log2, updates: u, window, rmw, seed });
            }
            for w in [half_down(window, 1)].into_iter().flatten() {
                out.push(KernelDescriptor::Gups { entries_log2, updates, window: w, rmw, seed });
            }
            if entries_log2 > 4 {
                out.push(KernelDescriptor::Gups {
                    entries_log2: entries_log2 - 1,
                    updates,
                    window,
                    rmw,
                    seed,
                });
            }
            if seed != 1 {
                out.push(KernelDescriptor::Gups { entries_log2, updates, window, rmw, seed: 1 });
            }
        }
        KernelDescriptor::Triad { elements, chunk_bytes, window, posted_writes } => {
            for e in [half_down(elements, 1), dec(elements, 1)].into_iter().flatten() {
                out.push(KernelDescriptor::Triad {
                    elements: e,
                    chunk_bytes,
                    window,
                    posted_writes,
                });
            }
            for w in [half_down(window, 1)].into_iter().flatten() {
                out.push(KernelDescriptor::Triad {
                    elements,
                    chunk_bytes,
                    window: w,
                    posted_writes,
                });
            }
        }
        KernelDescriptor::Mutex { threads, mechanism } => {
            for t in [half_down(threads, 1), dec(threads, 1)].into_iter().flatten() {
                out.push(KernelDescriptor::Mutex { threads: t, mechanism });
            }
        }
        KernelDescriptor::Barrier { threads, rounds } => {
            for t in [half_down(threads, 1), dec(threads, 1)].into_iter().flatten() {
                out.push(KernelDescriptor::Barrier { threads: t, rounds });
            }
            for r in [half_down(rounds, 1), dec(rounds, 1)].into_iter().flatten() {
                out.push(KernelDescriptor::Barrier { threads, rounds: r });
            }
        }
    }
    out
}

/// Candidate reductions of a full scenario, most aggressive first.
fn candidates(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    // An axis already at its floor proposes `s` itself: dropped here.
    let mut push = |candidate: Scenario| {
        if candidate != *s && candidate.validate().is_ok() {
            out.push(candidate);
        }
    };
    // `s` with `edit` applied to every cube.
    let each_device = |edit: &dyn Fn(&mut DeviceConfig)| {
        let mut c = s.clone();
        c.sim.devices.iter_mut().for_each(edit);
        c
    };
    // Device axis: collapse to the stock evaluation part (fault plan
    // cleared with it), or clear just the fault plan / its components.
    push(each_device(&|d| *d = DeviceConfig::gen2_4link_4gb()));
    // Fabric axis: collapse to a single cube early — most findings
    // won't need the fabric, and one cube removes whole subsystems
    // (routing, transit queues, per-cube horizons) from the repro.
    let mut c = s.clone();
    c.sim.devices.truncate(1);
    c.sim.topology = LinkTopology::HostOnly;
    push(c);
    push(each_device(&|d| d.fault = FaultPlan::none()));
    push(each_device(&|d| d.fault.link_schedule.clear()));
    push(each_device(&|d| d.fault.link_error = LinkErrorMode::None));
    push(each_device(&|d| d.fault.poison_per_million = 0));
    push(each_device(&|d| d.fault.vault_error_per_million = 0));
    // Observer axes.
    push(Scenario { trace: false, ..s.clone() });
    let mut c = s.clone();
    c.sim.telemetry = TelemetryConfig::disabled();
    push(c);
    let mut c = s.clone();
    c.sim.sanitizer = SanitizerConfig::disabled();
    push(c);
    // Timing axis: fall back to the paper's model — the fixed backend
    // without refresh — or clear just the refresh plan, which holds
    // banks under every backend.
    let mut c = each_device(&|d| d.refresh = None);
    c.sim.timing = TimingSelect::FixedLatency;
    push(c);
    push(each_device(&|d| d.refresh = None));
    // Engine axis.
    let mut c = s.clone();
    c.sim.skip_mode = SkipMode::Off;
    push(c);
    // Kernel axis.
    for kernel in kernel_candidates(&s.kernel) {
        let mut c = s.clone();
        c.kernel = kernel;
        push(c);
    }
    out
}

/// Shrinks `scenario` (whose current outcome must be a failure) to a
/// minimal scenario with the same failure class. Runs at most
/// `max_runs` scenario executions.
pub fn shrink(
    scenario: &Scenario,
    outcome: &Outcome,
    config: &RunnerConfig,
    max_runs: usize,
) -> ShrinkReport {
    let class = outcome.class();
    let mut best = scenario.clone();
    let mut best_outcome = outcome.clone();
    let mut runs = 0;
    'outer: loop {
        for candidate in candidates(&best) {
            if runs >= max_runs {
                break 'outer;
            }
            runs += 1;
            let candidate_outcome = run_scenario(&candidate, config);
            if candidate_outcome.class() == class {
                best = candidate;
                best_outcome = candidate_outcome;
                continue 'outer;
            }
        }
        break;
    }
    ShrinkReport { scenario: best, outcome: best_outcome, runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::SimConfig;

    #[test]
    fn candidates_only_propose_valid_smaller_scenarios() {
        let mut d = DeviceConfig::gen2_8link_8gb();
        d.fault = FaultPlan::seeded(4)
            .with_poison(10_000)
            .with_vault_errors(20_000)
            .with_link_event(100, 1, false)
            .with_link_event(200, 1, true);
        d.refresh = Some(hmc_sim::RefreshConfig { interval: 128, duration: 4 });
        let s = Scenario {
            seed: 3,
            kernel: KernelDescriptor::RawOps { ops: 64, seed: 9, gap: 8, drain: 256 },
            sim: SimConfig {
                skip_mode: SkipMode::On,
                sanitizer: SanitizerConfig::report(),
                telemetry: TelemetryConfig::full(),
                timing: TimingSelect::RowBuffer,
                ..SimConfig::mesh(d, 2, 2)
            },
            trace: true,
        };
        let cs = candidates(&s);
        assert_eq!(cs.len(), 12 + kernel_candidates(&s.kernel).len(), "every axis proposes");
        for c in &cs {
            c.validate().unwrap();
            assert_ne!(c, &s);
        }
        // The most aggressive candidates must be near the front.
        assert!(cs[0].sim.devices.iter().all(|d| d.fault.is_none()));
    }

    /// The canary divergence only needs `skip == On` plus any traffic,
    /// so the shrinker must reduce a fat scenario to a near-minimal
    /// one (bounded weight), keeping the stats-mismatch class alive.
    #[test]
    fn canary_shrinks_to_minimal_scenario() {
        let mut d = DeviceConfig::gen2_8link_8gb();
        d.fault = FaultPlan::seeded(21).with_poison(9_000).with_vault_errors(11_000);
        let fat = Scenario {
            seed: 11,
            kernel: KernelDescriptor::RawOps { ops: 96, seed: 17, gap: 12, drain: 300 },
            sim: SimConfig {
                skip_mode: SkipMode::On,
                sanitizer: SanitizerConfig::report(),
                telemetry: TelemetryConfig::full(),
                timing: TimingSelect::RowBuffer,
                ..SimConfig::ring(d, 4)
            },
            trace: true,
        };
        let config = RunnerConfig { canary: true, ..Default::default() };
        let outcome = run_scenario(&fat, &config);
        assert_eq!(outcome.class(), "mismatch-stats");
        let report = shrink(&fat, &outcome, &config, 400);
        assert_eq!(report.outcome.class(), "mismatch-stats");
        assert_eq!(report.scenario.sim.skip_mode, SkipMode::On, "canary requires skip mode");
        assert_eq!(
            report.scenario.sim.devices.len(),
            1,
            "the canary does not need the fabric, so shrinking must collapse it"
        );
        assert!(
            report.scenario.weight() <= 24,
            "shrunk scenario still fat (weight {}): {:?}",
            report.scenario.weight(),
            report.scenario
        );
        assert!(report.scenario.weight() < fat.weight());
    }
}
