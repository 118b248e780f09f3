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
use crate::scenario::{FabricTopology, Scenario};
use hmc_sim::{FaultPlan, LinkErrorMode, SkipMode, TimingSelect};
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
    let mut push = |candidate: Scenario| {
        if candidate != *s && candidate.validate().is_ok() {
            out.push(candidate);
        }
    };
    // Device axis: collapse to the stock evaluation part (fault plan
    // cleared with it), or clear just the fault plan / its components.
    let mut stock = s.clone();
    stock.device = hmc_sim::DeviceConfig::gen2_4link_4gb();
    push(stock);
    // Fabric axis: collapse to a single cube early — most findings
    // won't need the fabric, and one cube removes whole subsystems
    // (routing, transit queues, per-cube horizons) from the repro.
    if s.fabric != FabricTopology::Single {
        let mut c = s.clone();
        c.fabric = FabricTopology::Single;
        push(c);
    }
    if !s.device.fault.is_none() {
        let mut no_fault = s.clone();
        no_fault.device.fault = FaultPlan::none();
        push(no_fault);
        if !s.device.fault.link_schedule.is_empty() {
            let mut c = s.clone();
            c.device.fault.link_schedule.clear();
            push(c);
        }
        if s.device.fault.link_error != LinkErrorMode::None {
            let mut c = s.clone();
            c.device.fault.link_error = LinkErrorMode::None;
            push(c);
        }
        for (clear_poison, clear_vault) in [(true, false), (false, true)] {
            let mut c = s.clone();
            if clear_poison {
                c.device.fault.poison_per_million = 0;
            }
            if clear_vault {
                c.device.fault.vault_error_per_million = 0;
            }
            push(c);
        }
    }
    // Observer axes.
    if s.trace {
        let mut c = s.clone();
        c.trace = false;
        push(c);
    }
    if s.telemetry {
        let mut c = s.clone();
        c.telemetry = false;
        push(c);
    }
    if s.sanitizer {
        let mut c = s.clone();
        c.sanitizer = false;
        push(c);
    }
    // Timing axis: fall back to the fixed backend (clearing refresh
    // with it, since only the row-aware backends react to refresh), or
    // clear just the refresh plan.
    if s.timing != TimingSelect::FixedLatency {
        let mut c = s.clone();
        c.timing = TimingSelect::FixedLatency;
        c.device.refresh = None;
        push(c);
    }
    if s.device.refresh.is_some() {
        let mut c = s.clone();
        c.device.refresh = None;
        push(c);
    }
    // Engine axis.
    if s.skip == SkipMode::On {
        let mut c = s.clone();
        c.skip = SkipMode::Off;
        push(c);
    }
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
    use hmc_sim::DeviceConfig;

    #[test]
    fn candidates_only_propose_valid_smaller_scenarios() {
        let s = Scenario {
            seed: 3,
            device: {
                let mut d = DeviceConfig::gen2_8link_8gb();
                d.fault = FaultPlan::seeded(4)
                    .with_poison(10_000)
                    .with_vault_errors(20_000)
                    .with_link_event(100, 1, false)
                    .with_link_event(200, 1, true);
                d.refresh = Some(hmc_sim::RefreshConfig { interval: 128, duration: 4 });
                d
            },
            kernel: KernelDescriptor::RawOps { ops: 64, seed: 9, gap: 8, drain: 256 },
            skip: SkipMode::On,
            sanitizer: true,
            telemetry: true,
            trace: true,
            timing: TimingSelect::Validated,
            fabric: FabricTopology::Mesh { cols: 2, rows: 2 },
        };
        let cs = candidates(&s);
        assert!(!cs.is_empty());
        for c in &cs {
            c.validate().unwrap();
            assert_ne!(c, &s);
        }
        // The most aggressive candidates must be near the front.
        assert!(cs[0].device.fault.is_none());
    }

    /// The canary divergence only needs `skip == On` plus any traffic,
    /// so the shrinker must reduce a fat scenario to a near-minimal
    /// one (bounded weight), keeping the stats-mismatch class alive.
    #[test]
    fn canary_shrinks_to_minimal_scenario() {
        let fat = Scenario {
            seed: 11,
            device: {
                let mut d = DeviceConfig::gen2_8link_8gb();
                d.fault = FaultPlan::seeded(21).with_poison(9_000).with_vault_errors(11_000);
                d
            },
            kernel: KernelDescriptor::RawOps { ops: 96, seed: 17, gap: 12, drain: 300 },
            skip: SkipMode::On,
            sanitizer: true,
            telemetry: true,
            trace: true,
            timing: TimingSelect::RowBuffer,
            fabric: FabricTopology::Ring { cubes: 4 },
        };
        let config = RunnerConfig { canary: true, ..Default::default() };
        let outcome = run_scenario(&fat, &config);
        assert_eq!(outcome.class(), "mismatch-stats");
        let report = shrink(&fat, &outcome, &config, 400);
        assert_eq!(report.outcome.class(), "mismatch-stats");
        assert_eq!(report.scenario.skip, SkipMode::On, "canary requires skip mode");
        assert_eq!(
            report.scenario.fabric,
            FabricTopology::Single,
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
