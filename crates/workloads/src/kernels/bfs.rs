//! BFS with check-and-update offload — the related-work kernel the
//! paper cites (Nai & Kim \[10\]): replacing the visit test of a
//! breadth-first traversal with HMC compare-and-swap operations so the
//! check-and-update happens in the cube.
//!
//! The level array lives in device memory, one 16-byte entry per
//! vertex holding `level + 1` (0 = unvisited). Two frontier-expansion
//! mechanisms are provided:
//!
//! * [`BfsMode::CasOffload`] — one `CASEQ8` per edge: compare 0, swap
//!   the new level; the response's atomic flag reports discovery.
//!   4 FLITs and one round trip per edge.
//! * [`BfsMode::ReadCheckWrite`] — the conventional cache-based
//!   pattern: fetch the 64-byte line holding the entry (RD64, 1+5
//!   FLITs), test host-side, write the dirty 16-byte sector back on
//!   discovery (WR16, 2+1 FLITs). 6 FLITs per probe plus 3 per
//!   discovery, and two round trips — the traffic the related work
//!   shows CAS offload saving.
//!
//! On a multi-cube fabric the level array is sharded across every cube
//! (vertex `v` lives on cube `v mod cubes`, and each cube stores its
//! share contiguously). Every probe enters at cube 0 and is routed to
//! the owning cube, so a traversal sweeps traffic across the whole
//! fabric, and a misrouted or lost packet shows up as a level mismatch.

use crate::window::{Sent, Window};
use hmc_sim::HmcSim;
use hmc_types::{Cub, HmcError, HmcRqst, PayloadBuf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The frontier-expansion mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BfsMode {
    /// `CASEQ8` check-and-update in the logic layer.
    CasOffload,
    /// RD64 cache-line fill + host-side test + WR16 on discovery.
    ReadCheckWrite,
}

/// A synthetic undirected graph.
#[derive(Debug, Clone)]
pub struct Graph {
    adjacency: Vec<Vec<u32>>,
}

impl Graph {
    /// A connected random graph: a ring (guaranteeing connectivity)
    /// plus `extra_edges` random chords, deterministic in `seed`.
    pub fn random(vertices: usize, extra_edges: usize, seed: u64) -> Self {
        assert!(vertices >= 2, "graph needs at least two vertices");
        let mut adjacency = vec![Vec::new(); vertices];
        let add = |adj: &mut Vec<Vec<u32>>, u: usize, v: usize| {
            if u != v && !adj[u].contains(&(v as u32)) {
                adj[u].push(v as u32);
                adj[v].push(u as u32);
            }
        };
        for v in 0..vertices {
            add(&mut adjacency, v, (v + 1) % vertices);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..extra_edges {
            let u = rng.gen_range(0..vertices);
            let v = rng.gen_range(0..vertices);
            add(&mut adjacency, u, v);
        }
        Graph { adjacency }
    }

    /// Vertex count.
    pub fn vertices(&self) -> usize {
        self.adjacency.len()
    }

    /// Total directed edge count (each undirected edge counted twice).
    pub fn directed_edges(&self) -> usize {
        self.adjacency.iter().map(|a| a.len()).sum()
    }

    /// Neighbours of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adjacency[v as usize]
    }

    /// Host-side reference BFS, returning `level + 1` per vertex
    /// (0 = unreachable).
    pub fn reference_levels(&self, root: u32) -> Vec<u64> {
        let mut levels = vec![0u64; self.vertices()];
        let mut frontier = vec![root];
        levels[root as usize] = 1;
        let mut depth = 1u64;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in self.neighbors(u) {
                    if levels[v as usize] == 0 {
                        levels[v as usize] = depth + 1;
                        next.push(v);
                    }
                }
            }
            frontier = next;
            depth += 1;
        }
        levels
    }
}

/// Configuration of a BFS run.
#[derive(Debug, Clone)]
pub struct BfsConfig {
    /// BFS root vertex.
    pub root: u32,
    /// Expansion mechanism.
    pub mode: BfsMode,
    /// Outstanding-edge window.
    pub window: usize,
    /// Level-array base address (16-byte aligned, the same on every
    /// cube).
    pub levels_base: u64,
    /// Cycle budget.
    pub max_cycles: u64,
}

impl Default for BfsConfig {
    fn default() -> Self {
        BfsConfig {
            root: 0,
            mode: BfsMode::CasOffload,
            window: 64,
            levels_base: 0x0800_0000,
            max_cycles: 20_000_000,
        }
    }
}

/// Outcome of a BFS run.
#[derive(Debug, Clone, PartialEq)]
pub struct BfsResult {
    /// Device cycles consumed.
    pub cycles: u64,
    /// Directed edges relaxed.
    pub edges_relaxed: u64,
    /// Host-link FLITs consumed (at cube 0, where every probe enters).
    pub link_flits: u64,
    /// Vertices whose computed level disagrees with the host
    /// reference BFS.
    pub errors: usize,
    /// Vertices reached.
    pub reached: usize,
}

/// A probe in flight, by the vertex it checks.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Cas { vertex: u32 },
    Read { vertex: u32 },
    Write { vertex: u32 },
}

/// The BFS kernel runner.
#[derive(Debug, Clone)]
pub struct BfsKernel {
    /// Kernel configuration.
    pub config: BfsConfig,
}

impl BfsKernel {
    /// Creates a runner.
    pub fn new(config: BfsConfig) -> Self {
        BfsKernel { config }
    }

    /// The cube owning vertex `v` of a fabric of `n` cubes, and the
    /// address of `v`'s level entry there.
    fn place(&self, v: u32, n: usize) -> (usize, u64) {
        (v as usize % n, self.config.levels_base + (v as u64 / n as u64) * 16)
    }

    /// Sends the request `pending` stands for, entering at cube 0, to
    /// the cube owning its vertex.
    fn send(
        &self,
        sim: &mut HmcSim,
        window: &mut Window<Pending>,
        n: usize,
        new_level: u64,
        pending: Pending,
    ) -> Result<Sent, HmcError> {
        let (Pending::Cas { vertex } | Pending::Read { vertex } | Pending::Write { vertex }) =
            pending;
        let (cube, addr) = self.place(vertex, n);
        let (cmd, addr, payload) = match pending {
            // swap = new level, compare = 0
            Pending::Cas { .. } => (HmcRqst::CasEq8, addr, PayloadBuf::from([new_level, 0])),
            // The whole 64-byte cache line.
            Pending::Read { .. } => (HmcRqst::Rd64, addr & !63, PayloadBuf::new()),
            Pending::Write { .. } => (HmcRqst::Wr16, addr, PayloadBuf::from([new_level, 0])),
        };
        let cub = Cub::new(cube as u8).expect("cube count validated");
        window.send(sim, 0, pending, |sim, link| sim.send_to_cube(0, link, cub, cmd, addr, payload))
    }

    /// Runs BFS over `graph`, with the level array sharded across every
    /// cube of the context, and verifies it against the host reference.
    pub fn run(&self, sim: &mut HmcSim, graph: &Graph) -> Result<BfsResult, HmcError> {
        let cfg = &self.config;
        let n = sim.device_count();
        // Every probe enters at cube 0.
        let mut window = Window::new(sim, 1)?;

        // Clear the level array and mark the root at level 1.
        for v in 0..graph.vertices() as u32 {
            let (cube, addr) = self.place(v, n);
            sim.mem_write_u64(cube, addr, 0)?;
            sim.mem_write_u64(cube, addr + 8, 0)?;
        }
        let (cube, addr) = self.place(cfg.root, n);
        sim.mem_write_u64(cube, addr, 1)?;

        let flits_before = window.host_flits(sim)?;
        let start_cycle = sim.cycle();

        let mut frontier = vec![cfg.root];
        let mut depth = 1u64;
        let mut edges_relaxed = 0u64;

        'levels: while !frontier.is_empty() {
            // Edge list of this level.
            let mut edges: Vec<u32> = Vec::new();
            for &u in &frontier {
                edges.extend_from_slice(graph.neighbors(u));
            }
            let new_level = depth + 1;
            let mut next: Vec<u32> = Vec::new();
            let mut discovered = vec![false; graph.vertices()];
            let mut cursor = 0usize;

            while cursor < edges.len() || !window.is_empty() {
                if sim.cycle() - start_cycle > cfg.max_cycles {
                    break 'levels;
                }
                while let Some((pending, rsp)) = window.recv(sim, 0) {
                    match pending {
                        // The atomic flag reports a successful swap:
                        // this probe discovered the vertex.
                        Pending::Cas { vertex } => {
                            if rsp.rsp.head.af && !discovered[vertex as usize] {
                                discovered[vertex as usize] = true;
                                next.push(vertex);
                            }
                        }
                        Pending::Read { vertex } => {
                            // The RD64 line holds four 16-byte entries;
                            // pick this vertex's word.
                            let word = ((self.place(vertex, n).1 & 63) / 8) as usize;
                            if rsp.rsp.payload[word] == 0 && !discovered[vertex as usize] {
                                discovered[vertex as usize] = true;
                                // Write the level back now, clocking
                                // until a link takes it.
                                let write = Pending::Write { vertex };
                                while self.send(sim, &mut window, n, new_level, write)?
                                    == Sent::Full
                                {
                                    sim.clock();
                                }
                            }
                        }
                        Pending::Write { vertex } => next.push(vertex),
                    }
                }

                while window.in_flight(0) < cfg.window && cursor < edges.len() {
                    let vertex = edges[cursor];
                    if discovered[vertex as usize] {
                        cursor += 1;
                        continue;
                    }
                    let probe = match cfg.mode {
                        BfsMode::CasOffload => Pending::Cas { vertex },
                        BfsMode::ReadCheckWrite => Pending::Read { vertex },
                    };
                    if self.send(sim, &mut window, n, new_level, probe)? == Sent::Full {
                        break;
                    }
                    edges_relaxed += 1;
                    cursor += 1;
                }

                sim.clock();
            }

            frontier = next;
            depth += 1;
        }

        // Verify against the host reference.
        let reference = graph.reference_levels(cfg.root);
        let mut errors = 0usize;
        let mut reached = 0usize;
        for v in 0..graph.vertices() as u32 {
            let (cube, addr) = self.place(v, n);
            let got = sim.mem_read_u64(cube, addr)?;
            if got != 0 {
                reached += 1;
            }
            if got != reference[v as usize] {
                errors += 1;
            }
        }

        Ok(BfsResult {
            cycles: sim.cycle() - start_cycle,
            edges_relaxed,
            link_flits: window.host_flits(sim)? - flits_before,
            errors,
            reached,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::{DeviceConfig, SimConfig};

    fn fabric(config: SimConfig) -> HmcSim {
        HmcSim::with_config(config).unwrap()
    }

    #[test]
    fn cas_offload_matches_reference_on_a_mesh() {
        let g = Graph::random(96, 192, 7);
        let mut sim = fabric(SimConfig::mesh(DeviceConfig::gen2_4link_4gb(), 2, 2));
        let result = BfsKernel::new(BfsConfig::default()).run(&mut sim, &g).unwrap();
        assert_eq!(result.errors, 0);
        assert_eq!(result.reached, 96, "ring chords guarantee connectivity");
        assert!(result.edges_relaxed > 0);
    }

    #[test]
    fn cas_offload_matches_reference_on_a_ring() {
        let g = Graph::random(60, 120, 11);
        let mut sim = fabric(SimConfig::ring(DeviceConfig::gen2_4link_4gb(), 3));
        let result = BfsKernel::new(BfsConfig::default()).run(&mut sim, &g).unwrap();
        assert_eq!(result.errors, 0);
        assert_eq!(result.reached, 60);
    }

    #[test]
    fn read_check_write_shards_levels_across_a_mesh() {
        let g = Graph::random(96, 192, 7);
        let mut sim = fabric(SimConfig::mesh(DeviceConfig::gen2_4link_4gb(), 2, 2));
        let config = BfsConfig { mode: BfsMode::ReadCheckWrite, root: 5, ..Default::default() };
        let result = BfsKernel::new(config.clone()).run(&mut sim, &g).unwrap();
        assert_eq!((result.errors, result.reached), (0, 96));
        // Vertex v's level sits on cube v mod 4, entry v / 4.
        for (v, &want) in g.reference_levels(5).iter().enumerate() {
            let addr = config.levels_base + (v as u64 / 4) * 16;
            assert_eq!(sim.mem_read_u64(v % 4, addr).unwrap(), want, "vertex {v}");
        }
    }

    #[test]
    fn reference_bfs_levels_ring() {
        let g = Graph::random(8, 0, 1);
        let levels = g.reference_levels(0);
        assert_eq!(levels[0], 1);
        assert_eq!(levels[1], 2);
        assert_eq!(levels[7], 2);
        assert_eq!(levels[4], 5, "antipode of an 8-ring");
    }

    #[test]
    fn cas_offload_matches_reference() {
        let g = Graph::random(128, 256, 7);
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let result = BfsKernel::new(BfsConfig::default()).run(&mut sim, &g).unwrap();
        assert_eq!(result.errors, 0);
        assert_eq!(result.reached, 128, "ring guarantees connectivity");
        assert!(result.edges_relaxed > 0);
    }

    #[test]
    fn read_check_write_matches_reference() {
        let g = Graph::random(128, 256, 7);
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let result = BfsKernel::new(BfsConfig {
            mode: BfsMode::ReadCheckWrite,
            ..Default::default()
        })
        .run(&mut sim, &g)
        .unwrap();
        assert_eq!(result.errors, 0);
        assert_eq!(result.reached, 128);
    }

    #[test]
    fn cas_offload_saves_bandwidth() {
        // Related work [10]: CAS offload reduces kernel bandwidth.
        let g = Graph::random(256, 1024, 11);
        let run = |mode: BfsMode| {
            let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
            BfsKernel::new(BfsConfig { mode, ..Default::default() })
                .run(&mut sim, &g)
                .unwrap()
        };
        let cas = run(BfsMode::CasOffload);
        let rmw = run(BfsMode::ReadCheckWrite);
        assert_eq!(cas.errors, 0);
        assert_eq!(rmw.errors, 0);
        assert!(
            cas.link_flits < rmw.link_flits,
            "CAS offload: {} FLITs vs RMW {} FLITs",
            cas.link_flits,
            rmw.link_flits
        );
    }

    #[test]
    fn graph_generator_is_deterministic() {
        let a = Graph::random(64, 128, 3);
        let b = Graph::random(64, 128, 3);
        assert_eq!(a.directed_edges(), b.directed_edges());
        assert_eq!(a.neighbors(10), b.neighbors(10));
    }
}
