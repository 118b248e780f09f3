//! Pointer chasing — the latency-bound antithesis of STREAM Triad.
//!
//! A random permutation cycle of 16-byte nodes lives in the cube;
//! each node's first word holds the address of the next node. The
//! host performs dependent RD16 loads (window = 1 by construction),
//! so the kernel measures pure round-trip latency: with the default
//! untimed banks every hop costs exactly the 3-cycle pipeline round
//! trip, and row-buffer/bank timing stretches it accordingly.

use crate::driver::Op;
use crate::HostRuntime;
use hmc_sim::HmcSim;
use hmc_types::{HmcError, HmcRqst};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

/// Configuration of a pointer-chase run.
#[derive(Debug, Clone)]
pub struct PointerChaseConfig {
    /// Nodes in the permutation cycle.
    pub nodes: usize,
    /// Dependent loads to perform.
    pub steps: usize,
    /// Node-array base address (16-byte aligned).
    pub base: u64,
    /// Permutation seed.
    pub seed: u64,
    /// Cycle budget.
    pub max_cycles: u64,
}

impl Default for PointerChaseConfig {
    fn default() -> Self {
        PointerChaseConfig {
            nodes: 1024,
            steps: 512,
            base: 0x0D00_0000,
            seed: 0xC4A5E,
            max_cycles: 10_000_000,
        }
    }
}

/// Outcome of a pointer-chase run.
#[derive(Debug, Clone, PartialEq)]
pub struct PointerChaseResult {
    /// Device cycles consumed.
    pub cycles: u64,
    /// Dependent loads completed.
    pub steps: u64,
    /// Average cycles per dependent load.
    pub cycles_per_step: f64,
    /// Whether the traversal visited the expected chain (host
    /// verification).
    pub verified: bool,
}

/// The pointer-chase kernel runner.
#[derive(Debug, Clone)]
pub struct PointerChaseKernel {
    /// Kernel configuration.
    pub config: PointerChaseConfig,
}

impl PointerChaseKernel {
    /// Creates a runner.
    pub fn new(config: PointerChaseConfig) -> Self {
        PointerChaseKernel { config }
    }

    fn node_addr(&self, node: usize) -> u64 {
        self.config.base + (node as u64) * 16
    }

    /// Builds the permutation cycle: node i points at successor(i).
    fn permutation(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (1..self.config.nodes).collect();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        order.shuffle(&mut rng);
        // A single cycle through all nodes starting at 0.
        let mut next = vec![0usize; self.config.nodes];
        let mut prev = 0usize;
        for &n in &order {
            next[prev] = n;
            prev = n;
        }
        next[prev] = 0;
        next
    }

    /// Runs the chase on device 0.
    pub fn run(&self, sim: &mut HmcSim) -> Result<PointerChaseResult, HmcError> {
        let cfg = &self.config;
        if cfg.nodes < 2 {
            return Err(HmcError::InvalidRequestSize(cfg.nodes));
        }
        let next = self.permutation();
        for (node, &succ) in next.iter().enumerate() {
            sim.mem_write_u64(0, self.node_addr(node), self.node_addr(succ))?;
            sim.mem_write_u64(0, self.node_addr(node) + 8, node as u64)?;
        }

        let host = HostRuntime::new(0, 0, 1);
        let start_cycle = sim.cycle();
        let mut addr = self.node_addr(0);
        let mut expected = 0usize;
        let mut verified = true;
        let mut steps_done = 0u64;
        for _ in 0..cfg.steps {
            if sim.cycle() - start_cycle > cfg.max_cycles {
                break;
            }
            // Dependent load: nothing else can be in flight.
            let rsp = host.call(sim, Op::new(HmcRqst::Rd16, addr, []), 100_000)?;
            verified &= rsp.rsp.payload[1] == expected as u64;
            expected = next[expected];
            addr = rsp.rsp.payload[0];
            steps_done += 1;
        }
        let cycles = sim.cycle() - start_cycle;
        Ok(PointerChaseResult {
            cycles,
            steps: steps_done,
            cycles_per_step: cycles as f64 / steps_done.max(1) as f64,
            verified,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::{BankTiming, DeviceConfig, RowPolicy, TimingSelect};

    #[test]
    fn chase_visits_the_chain() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let result = PointerChaseKernel::new(PointerChaseConfig {
            nodes: 128,
            steps: 256, // wraps the cycle twice
            ..Default::default()
        })
        .run(&mut sim)
        .unwrap();
        assert!(result.verified, "every hop returned the expected node");
        assert_eq!(result.steps, 256);
    }

    #[test]
    fn untimed_banks_give_exactly_three_cycles_per_hop() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let result = PointerChaseKernel::new(PointerChaseConfig {
            nodes: 64,
            steps: 64,
            ..Default::default()
        })
        .run(&mut sim)
        .unwrap();
        assert_eq!(result.cycles_per_step, 3.0, "pure pipeline latency");
    }

    #[test]
    fn bank_timing_stretches_the_chase() {
        let mut cfg = DeviceConfig::gen2_4link_4gb();
        cfg.bank_timing = BankTiming { row_hit: 1, row_miss: 6, policy: RowPolicy::OpenPage };
        let mut sim = HmcSim::new(cfg).unwrap();
        // The row knobs only bite under the row-buffer backend.
        sim.set_timing_model(TimingSelect::RowBuffer);
        let timed = PointerChaseKernel::new(PointerChaseConfig {
            nodes: 64,
            steps: 64,
            ..Default::default()
        })
        .run(&mut sim)
        .unwrap();
        assert!(timed.verified);
        // Random hops mostly miss the row buffer, but the dependent
        // chain leaves banks idle between hops, so only the hop that
        // reuses a still-busy bank pays; latency must strictly exceed
        // the untimed floor.
        assert!(timed.cycles_per_step > 3.0, "{}", timed.cycles_per_step);
    }

    #[test]
    fn permutation_is_a_single_cycle() {
        let kernel = PointerChaseKernel::new(PointerChaseConfig {
            nodes: 257,
            ..Default::default()
        });
        let next = kernel.permutation();
        let mut seen = vec![false; 257];
        let mut node = 0usize;
        for _ in 0..257 {
            assert!(!seen[node], "revisited {node} early");
            seen[node] = true;
            node = next[node];
        }
        assert_eq!(node, 0, "cycle closes");
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn degenerate_sizes_rejected() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let kernel = PointerChaseKernel::new(PointerChaseConfig { nodes: 1, ..Default::default() });
        assert!(kernel.run(&mut sim).is_err());
    }
}
