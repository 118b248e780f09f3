//! Seeded scenario generation.
//!
//! The generator is a pure function of its seed: scenario `i` of seed
//! `s` is identical on every machine and every run, which is what
//! makes `hmcfuzz run --seed S` reproducible end to end. Internally
//! each scenario gets its own [`FaultRng`] stream keyed by
//! `(seed, index)`, so shrinking or replaying scenario `i` never
//! perturbs scenario `i + 1`.

use crate::scenario::Scenario;
use hmc_sim::{
    Arbitration, DeviceConfig, FaultPlan, FaultRng, LinkErrorMode, LinkTopology, RefreshConfig,
    RowPolicy, SanitizerConfig, SimConfig, SkipMode, TelemetryConfig, TimingSelect,
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
        let mut device = sample_device(&mut rng, &kernel);
        // The deleted exec axis's draw, kept so every later axis of
        // every seeded scenario is what it was.
        let _ = rng.below(5);
        let skip_mode = if rng.below(2) == 0 { SkipMode::Off } else { SkipMode::On };
        let sanitizer = rng.below(2) == 0;
        let telemetry = rng.below(4) == 0;
        // Drawn last so adding this axis left every older axis's
        // per-scenario stream untouched.
        let trace = rng.below(4) == 0;
        // Timing axis drawn after `trace` (same stream-stability
        // argument): a quarter of the stream runs `row_buffer`. Draw 1
        // chose a retired backend whose banks ran `fixed` timing; it now
        // yields `fixed` and keeps its refresh draw, so each such
        // scenario runs the machine it always ran.
        let draw = rng.below(4);
        let timing = if draw == 0 { TimingSelect::RowBuffer } else { TimingSelect::FixedLatency };
        // The refresh draw is gated on (and sampled after) the timing
        // draw — older streams never drew it and keep their exact
        // device configs.
        if draw < 2 && rng.below(2) == 0 {
            let interval = 64 + rng.below(448);
            let duration = 1 + rng.below(interval.min(32) - 1);
            device.refresh = Some(RefreshConfig { interval, duration });
        }
        // Fabric axis drawn last (same stream-stability argument as
        // `trace`). Half the stream keeps the historic single cube;
        // the rest splits across small chains, rings and a 2×2 mesh —
        // kernels inject at cube 0 only, so the extra cubes fuzz the
        // idle-cube horizon and fault machinery.
        let (cubes, topology) = match rng.below(6) {
            0..=2 => (1, LinkTopology::HostOnly),
            3 => (2 + rng.below(3) as usize, LinkTopology::Chain),
            4 => (3 + rng.below(3) as usize, LinkTopology::Ring),
            _ => (4, LinkTopology::Mesh { cols: 2 }),
        };
        let sim = SimConfig {
            skip_mode,
            timing,
            sanitizer: if sanitizer { SanitizerConfig::report() } else { Default::default() },
            telemetry: if telemetry { TelemetryConfig::full() } else { Default::default() },
            ..SimConfig::fabric(device, cubes, topology)
        };
        let scenario = Scenario { seed: scenario_seed, kernel, sim, trace };
        scenario.validate().expect("generator produced an invalid scenario");
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

    /// Scenario `index` of `seed`.
    fn scenario_at(seed: u64, index: u64) -> Scenario {
        let mut g = ScenarioGenerator::new(seed);
        (0..=index).map(|_| g.next_scenario()).last().unwrap()
    }

    /// The pinned `(seed, index)` points of the stream.
    const PINS: [(u64, u64); 5] = [(0x0, 0), (0x1, 3), (0x7, 11), (0xc0_ffee, 40), (0xc0_ffee, 1)];

    /// Neither dropping the exec axis nor storing the machine as one
    /// `SimConfig` moved anything the generator draws.
    /// `tests/golden/generator_v2.txt` holds the scenarios at [`PINS`]
    /// as the schema-2 generator rendered them (digests of that text
    /// were those of the schema-1 generator's scenarios with
    /// `exec_threads` removed); each loads, through the legacy path, as
    /// what the generator draws now. No schema-2 writer remains, so the
    /// file is never regenerated.
    #[test]
    fn every_other_axis_is_what_the_schema_1_generator_drew() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/generator_v2.txt");
        let golden = std::fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = golden.lines().collect();
        assert_eq!(lines.len(), PINS.len());
        for ((seed, index), line) in PINS.into_iter().zip(lines) {
            assert!(line.starts_with(r#"{"schema_version":2,"#), "{line}");
            let loaded = Scenario::from_json_str(line).unwrap();
            assert_eq!(loaded, scenario_at(seed, index), "seed {seed:#x} scenario {index}");
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
        assert!(scenarios.iter().any(|s| s.sim.skip_mode == SkipMode::On));
        assert!(scenarios.iter().any(|s| !s.sim.devices[0].fault.link_schedule.is_empty()));
        assert!(scenarios.iter().any(|s| s.sim.sanitizer.enabled));
        assert!(scenarios.iter().any(|s| s.sim.telemetry.enabled));
        assert!(scenarios.iter().any(|s| s.trace));
        assert!(scenarios.iter().any(|s| !s.trace));
        for timing in TimingSelect::NAMES.map(|(_, timing)| timing) {
            assert!(
                scenarios.iter().any(|s| s.sim.timing == timing),
                "timing axis diversity: no {timing:?} scenario in 200 draws"
            );
        }
        // Refresh rides with timing draws 0 (`row_buffer`) and 1 (now
        // `fixed`): both keep their plans.
        let refreshing = |s: &&Scenario| s.sim.devices[0].refresh.is_some();
        for timing in TimingSelect::NAMES.map(|(_, timing)| timing) {
            assert!(
                scenarios.iter().filter(refreshing).any(|s| s.sim.timing == timing),
                "no {timing:?} scenario with a refresh plan in 200 draws"
            );
        }
        for topology in [LinkTopology::HostOnly, LinkTopology::Chain, LinkTopology::Ring] {
            assert!(scenarios.iter().any(|s| s.sim.topology == topology), "no {topology:?}");
        }
        assert!(scenarios.iter().any(|s| matches!(s.sim.topology, LinkTopology::Mesh { .. })));
        assert!(
            scenarios
                .iter()
                .any(|s| s.sim.devices.len() > 1 && s.sim.skip_mode == SkipMode::On),
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
