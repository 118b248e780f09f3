//! Seeded scenario generation.
//!
//! The generator is a pure function of its seed: scenario `i` of seed
//! `s` is identical on every machine and every run, which is what
//! makes `hmcfuzz run --seed S` reproducible end to end. Internally
//! each scenario gets its own [`FaultRng`] stream keyed by
//! `(seed, index)`, so shrinking or replaying scenario `i` never
//! perturbs scenario `i + 1`.

use crate::scenario::{FabricTopology, Scenario};
use hmc_sim::{
    Arbitration, DeviceConfig, FaultPlan, FaultRng, LinkErrorMode, RefreshConfig,
    RowPolicy, SkipMode, TimingSelect,
};
use hmc_workloads::{KernelDescriptor, MutexMechanism};

/// The seeded scenario stream.
#[derive(Debug)]
pub struct ScenarioGenerator {
    seed: u64,
    index: u64,
}

impl ScenarioGenerator {
    /// Creates the stream for `seed`, positioned at scenario 0.
    pub fn new(seed: u64) -> Self {
        ScenarioGenerator { seed, index: 0 }
    }

    /// Index of the next scenario to be generated.
    pub fn position(&self) -> u64 {
        self.index
    }

    /// Samples the next scenario.
    pub fn next_scenario(&mut self) -> Scenario {
        let index = self.index;
        self.index += 1;
        // Key the per-scenario stream by (seed, index); FaultRng
        // scrambles the seed through SplitMix64 so adjacent keys give
        // unrelated streams.
        let scenario_seed = self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = FaultRng::new(scenario_seed);
        let kernel = sample_kernel(&mut rng);
        let device = sample_device(&mut rng, &kernel);
        // The deleted exec axis's draw, kept so every later axis of
        // every seeded scenario is what it was.
        let _ = rng.below(5);
        let skip = if rng.below(2) == 0 { SkipMode::Off } else { SkipMode::On };
        let mut scenario = Scenario {
            seed: scenario_seed,
            device,
            kernel,
            skip,
            sanitizer: rng.below(2) == 0,
            telemetry: rng.below(4) == 0,
            // Drawn last so adding this axis left every older axis's
            // per-scenario stream untouched.
            trace: rng.below(4) == 0,
            // Timing axis drawn after `trace` (same stream-stability
            // argument). Half the stream stays on the pre-trait fixed
            // backend; the rest splits between the new ones.
            timing: match rng.below(4) {
                0 => TimingSelect::RowBuffer,
                1 => TimingSelect::Validated,
                _ => TimingSelect::FixedLatency,
            },
            fabric: FabricTopology::Single,
        };
        // Refresh only matters to the row-buffer model, so its draw is
        // gated on (and sampled after) the timing axis — older streams
        // never drew it and keep their exact device configs.
        if scenario.timing != TimingSelect::FixedLatency && rng.below(2) == 0 {
            let interval = 64 + rng.below(448);
            let duration = 1 + rng.below(interval.min(32) - 1);
            scenario.device.refresh = Some(RefreshConfig { interval, duration });
        }
        // Fabric axis drawn last (same stream-stability argument as
        // `trace`). Half the stream keeps the historic single cube;
        // the rest splits across small chains, rings and a 2×2 mesh —
        // kernels inject at cube 0 only, so the extra cubes fuzz the
        // idle-cube horizon and fault machinery.
        scenario.fabric = match rng.below(6) {
            0..=2 => FabricTopology::Single,
            3 => FabricTopology::Chain { cubes: 2 + rng.below(3) as u8 },
            4 => FabricTopology::Ring { cubes: 3 + rng.below(3) as u8 },
            _ => FabricTopology::Mesh { cols: 2, rows: 2 },
        };
        scenario.validate().expect("generator produced an invalid scenario");
        scenario
            .device
            .validate()
            .expect("generator produced an invalid device config");
        scenario
    }
}

fn sample_kernel(rng: &mut FaultRng) -> KernelDescriptor {
    match rng.below(7) {
        0 | 1 => KernelDescriptor::RawOps {
            // Weighted double: raw ops cover the widest packet mix and
            // are the only kernel allowed under link outages.
            ops: 16 + rng.below(240) as u32,
            seed: rng.next_u64(),
            gap: rng.below(64) as u32,
            drain: 64 + rng.below(512) as u32,
        },
        2 => KernelDescriptor::Counter {
            threads: 1 + rng.below(8) as u32,
            increments: 1 + rng.below(24) as u32,
            cache_rmw: rng.below(4) == 0,
        },
        3 => KernelDescriptor::Gups {
            entries_log2: 6 + rng.below(5) as u32,
            updates: 16 + rng.below(240) as u32,
            window: 1 + rng.below(32) as u32,
            rmw: rng.below(2) == 0,
            seed: rng.next_u64(),
        },
        4 => {
            let chunk_bytes =
                hmc_workloads::scenario::TRIAD_CHUNK_SIZES[rng.below(9) as usize];
            // One chunk covers chunk_bytes/8 elements; sampling whole
            // chunks keeps the array divisible by the request size.
            let elements_per_chunk = chunk_bytes / 8;
            KernelDescriptor::Triad {
                elements: elements_per_chunk * (1 + rng.below(96) as u32),
                chunk_bytes,
                window: 1 + rng.below(24) as u32,
                posted_writes: rng.below(2) == 0,
            }
        }
        5 => KernelDescriptor::Mutex {
            threads: 1 + rng.below(6) as u32,
            mechanism: match rng.below(3) {
                0 => MutexMechanism::Cmc,
                1 => MutexMechanism::CasEq8,
                _ => MutexMechanism::Ticket,
            },
        },
        _ => KernelDescriptor::Barrier {
            threads: 1 + rng.below(8) as u32,
            rounds: 1 + rng.below(6) as u32,
        },
    }
}

fn sample_device(rng: &mut FaultRng, kernel: &KernelDescriptor) -> DeviceConfig {
    let mut device = if rng.below(2) == 0 {
        DeviceConfig::gen2_4link_4gb()
    } else {
        DeviceConfig::gen2_8link_8gb()
    };
    device.arbitration = if rng.below(2) == 0 {
        Arbitration::FixedPriority
    } else {
        Arbitration::RoundRobin
    };
    if rng.below(3) == 0 {
        device.bank_latency = rng.below(9);
    }
    if rng.below(4) == 0 {
        device.bank_timing.policy = RowPolicy::OpenPage;
        device.bank_timing.row_hit = 1 + rng.below(3);
        device.bank_timing.row_miss = 4 + rng.below(8);
    }
    if rng.below(4) == 0 {
        device.vault_queue_depth = 16;
    }
    device.fault = sample_fault_plan(rng, kernel, device.links);
    device
}

fn sample_fault_plan(rng: &mut FaultRng, kernel: &KernelDescriptor, links: usize) -> FaultPlan {
    let mut plan = FaultPlan::seeded(rng.next_u64());
    match rng.below(4) {
        0 => {}
        1 => plan = plan.with_vault_errors(1_000 * (1 + rng.below(100)) as u32),
        2 => plan = plan.with_poison(1_000 * (1 + rng.below(60)) as u32),
        _ => {
            plan = plan
                .with_vault_errors(1_000 * (1 + rng.below(60)) as u32)
                .with_poison(1_000 * (1 + rng.below(40)) as u32);
        }
    }
    if rng.below(3) == 0 {
        plan = plan.with_link_errors(match rng.below(2) {
            0 => LinkErrorMode::EveryNth(50 + rng.below(500)),
            _ => LinkErrorMode::Random { per_million: 1_000 * (1 + rng.below(50)) as u32 },
        });
    }
    // Scheduled outages only pair with kernels that survive LinkDown
    // on send (see `Scenario::validate`). Never cut link 0 so the
    // stream retains at least one working link.
    if kernel.tolerates_link_outage() && rng.below(3) == 0 && links > 1 {
        let link = 1 + rng.below(links as u64 - 1) as usize;
        let down = 50 + rng.below(400);
        let up = down + 50 + rng.below(400);
        plan = plan.with_link_event(down, link, false).with_link_event(up, link, true);
    }
    plan.validate(links).expect("generator produced an invalid fault plan");
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic() {
        let take = |seed: u64, n: usize| {
            let mut g = ScenarioGenerator::new(seed);
            (0..n).map(|_| g.next_scenario()).collect::<Vec<_>>()
        };
        assert_eq!(take(7, 40), take(7, 40));
        assert_ne!(take(7, 40), take(8, 40), "different seeds, different streams");
    }

    /// Scenario `index` of `seed`, rendered, digested with FNV-1a.
    fn digest(seed: u64, index: u64) -> u64 {
        let mut g = ScenarioGenerator::new(seed);
        let scenario = (0..=index).map(|_| g.next_scenario()).last().unwrap();
        scenario.to_json().render().bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Dropping the exec axis moved no other axis: these digests were
    /// taken of the schema-1 generator's scenarios with `exec_threads`
    /// removed and `schema_version` set to 2.
    #[test]
    fn every_other_axis_is_what_the_schema_1_generator_drew() {
        for (seed, index, want) in [
            (0x0, 0, 0xd7b9_36ef_8540_c310),
            (0x1, 3, 0xbf0a_8d46_5858_653f),
            (0x7, 11, 0xe033_7746_456f_8b02),
            (0xc0_ffee, 40, 0x74e1_c3db_1b06_e846),
            (0xc0_ffee, 1, 0xf823_24a5_7279_72d2),
        ] {
            assert_eq!(digest(seed, index), want, "seed {seed:#x} scenario {index}");
        }
    }

    #[test]
    fn scenarios_are_valid_and_diverse() {
        let mut g = ScenarioGenerator::new(1);
        let scenarios: Vec<Scenario> = (0..200).map(|_| g.next_scenario()).collect();
        for s in &scenarios {
            s.validate().unwrap();
        }
        let kernels: std::collections::BTreeSet<&str> =
            scenarios.iter().map(|s| s.kernel.name()).collect();
        assert!(kernels.len() >= 5, "kernel diversity: {kernels:?}");
        assert!(scenarios.iter().any(|s| s.skip == SkipMode::On));
        assert!(scenarios.iter().any(|s| !s.device.fault.link_schedule.is_empty()));
        assert!(scenarios.iter().any(|s| s.sanitizer));
        assert!(scenarios.iter().any(|s| s.trace));
        assert!(scenarios.iter().any(|s| !s.trace));
        for timing in
            [TimingSelect::FixedLatency, TimingSelect::RowBuffer, TimingSelect::Validated]
        {
            assert!(
                scenarios.iter().any(|s| s.timing == timing),
                "timing axis diversity: no {timing:?} scenario in 200 draws"
            );
        }
        assert!(
            scenarios
                .iter()
                .any(|s| s.timing != TimingSelect::FixedLatency && s.device.refresh.is_some()),
            "refresh must appear alongside the row-aware backends"
        );
        assert!(
            scenarios
                .iter()
                .filter(|s| s.timing == TimingSelect::FixedLatency)
                .all(|s| s.device.refresh.is_none()),
            "fixed-backend scenarios never draw refresh"
        );
        assert!(scenarios.iter().any(|s| s.fabric == FabricTopology::Single));
        assert!(scenarios.iter().any(|s| matches!(s.fabric, FabricTopology::Chain { .. })));
        assert!(scenarios.iter().any(|s| matches!(s.fabric, FabricTopology::Ring { .. })));
        assert!(scenarios.iter().any(|s| matches!(s.fabric, FabricTopology::Mesh { .. })));
        assert!(
            scenarios
                .iter()
                .any(|s| s.fabric != FabricTopology::Single && s.skip == SkipMode::On),
            "fabric × skip must co-occur: idle remote cubes under skip is the risky corner"
        );
    }

    #[test]
    fn scenario_round_trips_from_every_seed() {
        let mut g = ScenarioGenerator::new(99);
        for _ in 0..50 {
            let s = g.next_scenario();
            let text = s.to_json().render();
            assert_eq!(Scenario::from_json_str(&text).unwrap(), s, "{text}");
        }
    }
}
