//! Reproduction smoke tests for the paper's evaluation (§V-C):
//! Table VI and the qualitative claims behind Figures 5–7, at reduced
//! thread counts so they run quickly in CI.

use hmcsim::cmc::ops;
use hmcsim::prelude::*;
use hmcsim::workloads::{MutexKernel, MutexKernelConfig, RunMetrics, SpinPolicy};

fn sim_with_mutex(config: DeviceConfig) -> HmcSim {
    ops::register_builtin_libraries();
    let mut sim = HmcSim::new(config).unwrap();
    sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();
    sim
}

fn run(config: DeviceConfig, threads: usize, spin: SpinPolicy) -> hmcsim::workloads::RunMetrics {
    let mut sim = sim_with_mutex(config);
    MutexKernel::new(MutexKernelConfig { threads, spin, ..Default::default() })
        .run(&mut sim)
        .unwrap()
        .metrics
}

#[test]
fn table_vi_min_cycle_is_six_on_both_devices() {
    for config in [DeviceConfig::gen2_4link_4gb(), DeviceConfig::gen2_8link_8gb()] {
        let metrics = run(config.clone(), 2, SpinPolicy::PaperBounded);
        assert_eq!(metrics.min_cycle(), 6, "{}", config.label());
    }
}

#[test]
fn devices_identical_at_low_thread_counts() {
    // Paper: "minimum, maximum and average cycle counts are actually
    // identical between both configurations for thread counts from
    // two to fifty" — spot-check a few low counts.
    for threads in [2, 8, 16, 24] {
        let four = run(DeviceConfig::gen2_4link_4gb(), threads, SpinPolicy::PaperBounded);
        let eight = run(DeviceConfig::gen2_8link_8gb(), threads, SpinPolicy::PaperBounded);
        assert_eq!(four.min_cycle(), eight.min_cycle(), "{threads} threads min");
        assert_eq!(four.max_cycle(), eight.max_cycle(), "{threads} threads max");
        assert_eq!(four.avg_cycle(), eight.avg_cycle(), "{threads} threads avg");
    }
}

#[test]
fn max_and_avg_grow_with_thread_count() {
    let points: Vec<_> = [4usize, 16, 64]
        .iter()
        .map(|&t| run(DeviceConfig::gen2_4link_4gb(), t, SpinPolicy::PaperBounded))
        .collect();
    assert!(points[0].max_cycle() < points[1].max_cycle());
    assert!(points[1].max_cycle() < points[2].max_cycle());
    assert!(points[0].avg_cycle() < points[1].avg_cycle());
    assert!(points[1].avg_cycle() < points[2].avg_cycle());
}

#[test]
fn eight_link_wins_on_average_at_high_thread_counts() {
    // Paper: the 8-link device's extra queueing capacity gives it a
    // small (≈2%) advantage in worst-case average cycles.
    let four = run(DeviceConfig::gen2_4link_4gb(), 100, SpinPolicy::PaperBounded);
    let eight = run(DeviceConfig::gen2_8link_8gb(), 100, SpinPolicy::PaperBounded);
    assert!(
        eight.avg_cycle() < four.avg_cycle(),
        "8-link avg {:.2} must beat 4-link avg {:.2}",
        eight.avg_cycle(),
        four.avg_cycle()
    );
    let gain = 100.0 * (four.avg_cycle() - eight.avg_cycle()) / four.avg_cycle();
    assert!(gain < 10.0, "the advantage is small (paper: 2.2%), got {gain:.1}%");
}

#[test]
fn honest_spin_mode_serializes_the_critical_section() {
    // UntilOwned gives every thread the lock exactly once, so the
    // makespan is bounded below by #threads sequential handoffs.
    let threads = 12;
    let mut sim = sim_with_mutex(DeviceConfig::gen2_4link_4gb());
    let result = MutexKernel::new(MutexKernelConfig {
        threads,
        spin: SpinPolicy::until_owned(),
        ..Default::default()
    })
    .run(&mut sim)
    .unwrap();
    assert_eq!(result.acquisitions, threads as u32);
    assert!(
        result.metrics.max_cycle() >= 6 * threads as u64,
        "strict handoffs cannot beat two round trips each"
    );
    assert_eq!(result.final_lock_word, 0);
}

#[test]
fn mutual_exclusion_holds_under_honest_spin() {
    // The lock word and owner field are consistent after every run,
    // and the device-side op count matches the protocol: each thread
    // issued at least lock + unlock.
    let mut sim = sim_with_mutex(DeviceConfig::gen2_4link_4gb());
    let threads = 20;
    let result = MutexKernel::new(MutexKernelConfig {
        threads,
        spin: SpinPolicy::until_owned(),
        ..Default::default()
    })
    .run(&mut sim)
    .unwrap();
    assert_eq!(result.metrics.unfinished, 0);
    let stats = sim.stats(0).unwrap();
    assert!(stats.cmc_ops >= 2 * threads as u64);
    assert_eq!(stats.error_responses, 0, "no malformed CMC traffic");
}

#[test]
fn hot_spot_concentrates_on_one_vault() {
    // All threads target one lock address: the paper's deliberate
    // memory hot spot (§V-B).
    let mut sim = sim_with_mutex(DeviceConfig::gen2_4link_4gb());
    MutexKernel::new(MutexKernelConfig { threads: 64, ..Default::default() })
        .run(&mut sim)
        .unwrap();
    assert!(
        sim.vault_queue_high_water(0).unwrap() >= 16,
        "the lock vault must queue deeply"
    );
}

/// The thread counts of the paper's sweep.
const SWEEP: std::ops::RangeInclusive<usize> = 2..=100;

/// A device's Table VI row over the paper's full 2..=100 thread sweep
/// under `PaperBounded` spinning, one fresh simulation per point:
/// `(min, worst max, worst average)`, and the points it was taken from.
fn table_vi_row(config: DeviceConfig) -> ((u64, u64, f64), Vec<RunMetrics>) {
    let points: Vec<_> = SWEEP.map(|t| run(config.clone(), t, SpinPolicy::PaperBounded)).collect();
    let min = points.iter().map(|m| m.min_cycle()).min().expect("a sweep has points");
    let max = points.iter().map(|m| m.max_cycle()).max().expect("a sweep has points");
    let avg = points.iter().map(|m| m.avg_cycle()).fold(f64::MIN, f64::max);
    ((min, max, avg), points)
}

/// A gap to the paper that is known and still open. It fails when the
/// gap closes, so a change that closes it is noticed and the
/// expectation becomes a gate.
fn known_gap(name: &str, still_open: bool, detail: String) {
    assert!(still_open, "known gap `{name}` closed ({detail}): make it a paper gate");
}

/// Table VI as a gate: the paper reads 6 / 392 / 226.48 (4Link-4GB)
/// and 6 / 387 / 221.48 (8Link-8GB) for min / worst max / worst
/// average over 2..=100 threads.
#[test]
fn table_vi_paper_gates() {
    let (four, four_points) = table_vi_row(DeviceConfig::gen2_4link_4gb());
    let (eight, eight_points) = table_vi_row(DeviceConfig::gen2_8link_8gb());
    let err_pct = |ours: f64, paper: f64| 100.0 * (ours - paper).abs() / paper;
    for ((min, max, avg), (paper_max, paper_avg), label) in
        [(four, (392, 226.48), "4Link-4GB"), (eight, (387, 221.48), "8Link-8GB")]
    {
        assert_eq!(min, 6, "{label}: min cycle");
        let err = err_pct(avg, paper_avg);
        assert!(err <= 1.5, "{label}: worst avg {avg:.2} is {err:.2} % off {paper_avg}");
        // Worst max runs near 3 cycles a thread where the paper's runs
        // near 4.
        let err = err_pct(max as f64, paper_max as f64);
        known_gap("worst max", err > 1.5, format!("{label}: {max} against {paper_max}"));
    }
    assert!(eight.2 < four.2, "8Link-8GB ahead on worst avg: {:.2} vs {:.2}", eight.2, four.2);
    // The paper's 8Link-8GB is ahead at worst max too (387 vs 392);
    // here it trails by a cycle.
    known_gap(
        "device order at worst max",
        eight.1 > four.1,
        format!("8Link-8GB {} against 4Link-4GB {}", eight.1, four.1),
    );
    // The paper's min / max / avg are identical on both devices "for
    // thread counts from two to fifty"; here they first part at 17
    // threads, on min and avg.
    let cycles = |m: &RunMetrics| (m.min_cycle(), m.max_cycle(), m.avg_cycle());
    let first = SWEEP
        .zip(four_points.iter().zip(&eight_points))
        .find(|(_, (a, b))| cycles(a) != cycles(b))
        .map(|(threads, (a, b))| (threads, cycles(a), cycles(b)));
    known_gap(
        "devices identical through 50 threads",
        first.is_some_and(|(threads, ..)| threads <= 50),
        format!("first difference (threads, 4Link-4GB, 8Link-8GB): {first:?}"),
    );
}
