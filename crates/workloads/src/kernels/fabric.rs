//! Multi-cube fabric kernels: GUPS and BFS spanning every cube of a
//! chained/ringed/meshed context.
//!
//! * [`FabricGupsKernel`] — per-cube HPCC RandomAccess streams. Each
//!   cube receives its own host-injected update stream against its
//!   own table; a configurable fraction of updates target another
//!   cube's table instead and ride the fabric as `XOR16` atomics
//!   (`CUB` ≠ entry cube, routed hop by hop). The aggregate
//!   updates-per-cycle figure is the multi-cube scaling metric
//!   in the "fabric GUPS scaling" table of `results/ablations.txt`.
//! * [`FabricBfsKernel`] — BFS check-and-update with the level array
//!   sharded across all cubes (`owner = vertex mod cubes`). Every
//!   `CASEQ8` enters the fabric at cube 0 and is routed to the owning
//!   cube, so a traversal sweeps traffic across the whole fabric.
//!
//! Both kernels verify against host-side oracles, so they double as
//! end-to-end routing correctness checks: a misrouted or lost packet
//! shows up as a table/level mismatch, not just a latency blip.

use super::bfs::Graph;
use super::gups::HpccStream;
use hmc_sim::HmcSim;
use hmc_types::{Cub, HmcError, HmcRqst};
use std::collections::{HashMap, VecDeque};

/// Configuration of a fabric-wide RandomAccess run.
#[derive(Debug, Clone)]
pub struct FabricGupsConfig {
    /// Table entries per cube (16 bytes each); must be a power of two.
    pub table_entries: usize,
    /// Updates injected per cube.
    pub updates_per_cube: usize,
    /// Outstanding-update window per cube.
    pub window: usize,
    /// Per-mille of updates that target a remote cube's table
    /// (0 = all-local, 1000 = all-remote).
    pub remote_permille: u32,
    /// Table base address (16-byte aligned, same on every cube).
    pub table_base: u64,
    /// RNG seed; each cube derives its own stream from it.
    pub seed: u64,
    /// Cycle budget.
    pub max_cycles: u64,
}

impl Default for FabricGupsConfig {
    fn default() -> Self {
        FabricGupsConfig {
            table_entries: 1 << 10,
            updates_per_cube: 512,
            window: 32,
            remote_permille: 100,
            table_base: 0x0400_0000,
            seed: 0xFAB0_1234_5678_9ABC,
            max_cycles: 10_000_000,
        }
    }
}

/// Outcome of a fabric-wide RandomAccess run.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricGupsResult {
    /// Device cycles consumed.
    pub cycles: u64,
    /// Updates completed across all cubes.
    pub updates: u64,
    /// Updates that crossed at least one fabric edge.
    pub remote_updates: u64,
    /// Aggregate updates per cycle across the whole fabric (the
    /// multi-cube GUPS figure, per device clock).
    pub updates_per_cycle: f64,
    /// Table entries (across every cube) that disagree with the
    /// sequential oracle.
    pub errors: usize,
}

/// The fabric RandomAccess kernel runner.
#[derive(Debug, Clone)]
pub struct FabricGupsKernel {
    /// Kernel configuration.
    pub config: FabricGupsConfig,
}

impl FabricGupsKernel {
    /// Creates a runner.
    pub fn new(config: FabricGupsConfig) -> Self {
        FabricGupsKernel { config }
    }

    fn entry_addr(&self, entry: usize) -> u64 {
        self.config.table_base + (entry as u64) * 16
    }

    /// The (target cube, table entry) of update value `v` injected at
    /// cube `d` — a pure function, so retries and the oracle agree.
    fn target_of(&self, d: usize, n: usize, v: u64) -> (usize, usize) {
        let entry = (v & (self.config.table_entries - 1) as u64) as usize;
        let remote = n > 1 && (v >> 32) % 1000 < self.config.remote_permille as u64;
        let target = if remote {
            (d + 1 + ((v >> 16) as usize % (n - 1))) % n
        } else {
            d
        };
        (target, entry)
    }

    /// Runs per-cube update streams across every device of the
    /// context and verifies every cube's table against a sequential
    /// oracle.
    pub fn run(&self, sim: &mut HmcSim) -> Result<FabricGupsResult, HmcError> {
        let cfg = &self.config;
        if !cfg.table_entries.is_power_of_two() {
            return Err(HmcError::InvalidRequestSize(cfg.table_entries));
        }
        let n = sim.device_count();
        let links = sim.device_config(0)?.links;

        // Zero-initialized tables; build the oracle host-side. XOR
        // commutes, so completion order never changes the result.
        let mut oracle = vec![vec![0u64; cfg.table_entries]; n];
        for d in 0..n {
            for v in HpccStream::new(cfg.seed ^ (d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .take(cfg.updates_per_cube)
            {
                let (target, entry) = self.target_of(d, n, v);
                oracle[target][entry] ^= v;
            }
        }

        let start_cycle = sim.cycle();
        let total = cfg.updates_per_cube * n;
        let mut streams: Vec<HpccStream> = (0..n)
            .map(|d| HpccStream::new(cfg.seed ^ (d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let mut issued = vec![0usize; n];
        let mut inflight = vec![0usize; n];
        let mut carry: Vec<Option<u64>> = vec![None; n];
        let mut retry: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
        let mut rr_link = vec![0usize; n];
        // In-flight updates key on (entry cube, entry link, tag) and
        // remember their value so faulted sends can replay.
        let mut owner: HashMap<(usize, usize, u16), u64> = HashMap::new();
        let mut completed = 0usize;
        let mut remote_updates = 0u64;

        while completed < total {
            if sim.cycle() - start_cycle > cfg.max_cycles {
                break;
            }
            for d in 0..n {
                for link in 0..links {
                    while let Some(rsp) = sim.recv(d, link) {
                        let Some(v) = owner.remove(&(d, link, rsp.rsp.head.tag.value())) else {
                            continue;
                        };
                        inflight[d] -= 1;
                        if matches!(rsp.rsp.head.cmd, hmc_types::HmcResponse::Error)
                            || rsp.rsp.tail.errstat != 0
                        {
                            // The vault refused the atomic: nothing
                            // executed, so replay it verbatim.
                            retry[d].push_back(v);
                        } else {
                            completed += 1;
                        }
                    }
                }
            }

            for d in 0..n {
                while inflight[d] < cfg.window {
                    let from_retry = !retry[d].is_empty();
                    let v = match carry[d].take() {
                        Some(v) => v,
                        None if from_retry => retry[d][0],
                        None if issued[d] < cfg.updates_per_cube => {
                            streams[d].next().expect("infinite")
                        }
                        None => break,
                    };
                    let (target, entry) = self.target_of(d, n, v);
                    let addr = self.entry_addr(entry);
                    let link = rr_link[d] % links;
                    let send = if target == d {
                        sim.send_simple(d, link, HmcRqst::Xor16, addr, vec![v, 0])
                    } else {
                        let cub = Cub::new(target as u8).expect("cube count validated");
                        sim.send_to_cube(d, link, cub, HmcRqst::Xor16, addr, vec![v, 0])
                    };
                    match send {
                        Ok(Some(tag)) => {
                            rr_link[d] += 1;
                            owner.insert((d, link, tag.value()), v);
                            inflight[d] += 1;
                            if from_retry && carry[d].is_none() {
                                retry[d].pop_front();
                            } else {
                                issued[d] += 1;
                                if target != d {
                                    remote_updates += 1;
                                }
                            }
                        }
                        Ok(None) => unreachable!("XOR16 is acknowledged"),
                        Err(HmcError::Stall) | Err(HmcError::TagsExhausted) => {
                            if !from_retry {
                                carry[d] = Some(v);
                            }
                            break;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }

            sim.clock();
        }

        // Verify every cube's table against the oracle.
        let mut errors = 0usize;
        for (d, table) in oracle.iter().enumerate() {
            for (entry, &want) in table.iter().enumerate() {
                if sim.mem_read_u64(d, self.entry_addr(entry))? != want {
                    errors += 1;
                }
            }
        }

        let cycles = sim.cycle() - start_cycle;
        Ok(FabricGupsResult {
            cycles,
            updates: completed as u64,
            remote_updates,
            updates_per_cycle: completed as f64 / cycles.max(1) as f64,
            errors,
        })
    }
}

/// Configuration of a fabric-sharded BFS run.
#[derive(Debug, Clone)]
pub struct FabricBfsConfig {
    /// BFS root vertex.
    pub root: u32,
    /// Outstanding-edge window.
    pub window: usize,
    /// Level-array base address (16-byte aligned, same on every cube).
    pub levels_base: u64,
    /// Cycle budget.
    pub max_cycles: u64,
}

impl Default for FabricBfsConfig {
    fn default() -> Self {
        FabricBfsConfig {
            root: 0,
            window: 64,
            levels_base: 0x0800_0000,
            max_cycles: 40_000_000,
        }
    }
}

/// Outcome of a fabric-sharded BFS run.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricBfsResult {
    /// Device cycles consumed.
    pub cycles: u64,
    /// Directed edges relaxed.
    pub edges_relaxed: u64,
    /// Vertices whose computed level disagrees with the host
    /// reference BFS.
    pub errors: usize,
    /// Vertices reached.
    pub reached: usize,
}

/// The fabric BFS kernel runner: level array sharded across cubes,
/// every `CASEQ8` injected at cube 0 and routed to the vertex owner.
#[derive(Debug, Clone)]
pub struct FabricBfsKernel {
    /// Kernel configuration.
    pub config: FabricBfsConfig,
}

impl FabricBfsKernel {
    /// Creates a runner.
    pub fn new(config: FabricBfsConfig) -> Self {
        FabricBfsKernel { config }
    }

    /// The cube owning vertex `v` in an `n`-cube fabric.
    fn owner_of(v: u32, n: usize) -> usize {
        v as usize % n
    }

    /// The address of vertex `v`'s level entry on its owning cube
    /// (vertices stripe round-robin, so each cube stores its share
    /// contiguously).
    fn level_addr(&self, v: u32, n: usize) -> u64 {
        self.config.levels_base + (v as u64 / n as u64) * 16
    }

    /// Runs BFS over `graph` with the level array sharded across all
    /// cubes and verifies it against the host reference.
    pub fn run(&self, sim: &mut HmcSim, graph: &Graph) -> Result<FabricBfsResult, HmcError> {
        let cfg = &self.config;
        let n = sim.device_count();
        let links = sim.device_config(0)?.links;

        // Clear the sharded level array and mark the root at level 1.
        for v in 0..graph.vertices() as u32 {
            let (dev, addr) = (Self::owner_of(v, n), self.level_addr(v, n));
            sim.mem_write_u64(dev, addr, 0)?;
            sim.mem_write_u64(dev, addr + 8, 0)?;
        }
        sim.mem_write_u64(
            Self::owner_of(cfg.root, n),
            self.level_addr(cfg.root, n),
            1,
        )?;

        let start_cycle = sim.cycle();
        let mut frontier = vec![cfg.root];
        let mut depth = 1u64;
        let mut edges_relaxed = 0u64;
        let mut rr_link = 0usize;

        'levels: while !frontier.is_empty() {
            let mut edges: Vec<u32> = Vec::new();
            for &u in &frontier {
                edges.extend_from_slice(graph.neighbors(u));
            }
            let new_level = depth + 1;
            let mut next: Vec<u32> = Vec::new();
            let mut discovered = vec![false; graph.vertices()];
            // All probes enter at cube 0, so tags key on (link, tag).
            let mut owner: HashMap<(usize, u16), u32> = HashMap::new();
            let mut cursor = 0usize;

            while cursor < edges.len() || !owner.is_empty() {
                if sim.cycle() - start_cycle > cfg.max_cycles {
                    break 'levels;
                }
                for link in 0..links {
                    while let Some(rsp) = sim.recv(0, link) {
                        let Some(vertex) = owner.remove(&(link, rsp.rsp.head.tag.value()))
                        else {
                            continue;
                        };
                        // The atomic flag reports a successful swap:
                        // this probe discovered the vertex.
                        if rsp.rsp.head.af && !discovered[vertex as usize] {
                            discovered[vertex as usize] = true;
                            next.push(vertex);
                        }
                    }
                }

                while owner.len() < cfg.window && cursor < edges.len() {
                    let vertex = edges[cursor];
                    if discovered[vertex as usize] {
                        cursor += 1;
                        continue;
                    }
                    let dev = Self::owner_of(vertex, n);
                    let addr = self.level_addr(vertex, n);
                    let link = rr_link % links;
                    let send = if dev == 0 {
                        sim.send_simple(0, link, HmcRqst::CasEq8, addr, vec![new_level, 0])
                    } else {
                        let cub = Cub::new(dev as u8).expect("cube count validated");
                        sim.send_to_cube(0, link, cub, HmcRqst::CasEq8, addr, vec![new_level, 0])
                    };
                    match send {
                        Ok(Some(tag)) => {
                            rr_link += 1;
                            edges_relaxed += 1;
                            owner.insert((link, tag.value()), vertex);
                            cursor += 1;
                        }
                        Ok(None) => unreachable!("CASEQ8 responds"),
                        Err(HmcError::Stall) | Err(HmcError::TagsExhausted) => break,
                        Err(e) => return Err(e),
                    }
                }

                sim.clock();
            }

            frontier = next;
            depth += 1;
        }

        // Verify the sharded array against the host reference.
        let reference = graph.reference_levels(cfg.root);
        let mut errors = 0usize;
        let mut reached = 0usize;
        for v in 0..graph.vertices() as u32 {
            let got = sim.mem_read_u64(Self::owner_of(v, n), self.level_addr(v, n))?;
            if got != 0 {
                reached += 1;
            }
            if got != reference[v as usize] {
                errors += 1;
            }
        }

        Ok(FabricBfsResult {
            cycles: sim.cycle() - start_cycle,
            edges_relaxed,
            errors,
            reached,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::{DeviceConfig, SimConfig};

    #[test]
    fn fabric_gups_is_exact_across_a_chain() {
        let mut sim =
            HmcSim::with_config(SimConfig::chain(DeviceConfig::gen2_4link_4gb(), 4)).unwrap();
        let kernel = FabricGupsKernel::new(FabricGupsConfig {
            table_entries: 1 << 8,
            updates_per_cube: 128,
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        assert_eq!(result.updates, 4 * 128);
        assert!(result.remote_updates > 0, "remote fraction must cross edges");
        assert_eq!(result.errors, 0, "remote XOR16s land on the right cube");
    }

    #[test]
    fn fabric_gups_single_cube_degenerates_to_local() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let kernel = FabricGupsKernel::new(FabricGupsConfig {
            table_entries: 1 << 8,
            updates_per_cube: 128,
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        assert_eq!(result.updates, 128);
        assert_eq!(result.remote_updates, 0);
        assert_eq!(result.errors, 0);
    }

    #[test]
    fn fabric_bfs_matches_reference_on_a_mesh() {
        let g = Graph::random(96, 192, 7);
        let mut sim =
            HmcSim::with_config(SimConfig::mesh(DeviceConfig::gen2_4link_4gb(), 2, 2)).unwrap();
        let result = FabricBfsKernel::new(FabricBfsConfig::default())
            .run(&mut sim, &g)
            .unwrap();
        assert_eq!(result.errors, 0);
        assert_eq!(result.reached, 96, "ring chords guarantee connectivity");
        assert!(result.edges_relaxed > 0);
    }

    #[test]
    fn fabric_bfs_matches_reference_on_a_ring() {
        let g = Graph::random(60, 120, 11);
        let mut sim =
            HmcSim::with_config(SimConfig::ring(DeviceConfig::gen2_4link_4gb(), 3)).unwrap();
        let result = FabricBfsKernel::new(FabricBfsConfig::default())
            .run(&mut sim, &g)
            .unwrap();
        assert_eq!(result.errors, 0);
        assert_eq!(result.reached, 60);
    }
}
