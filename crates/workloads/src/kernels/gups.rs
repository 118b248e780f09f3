//! HPCC RandomAccess (GUPS) — the random-update kernel from the
//! original HMC-Sim evaluations (prior work \[4\]\[5\], Luszczek et
//! al. \[12\]).
//!
//! Random 16-byte table entries are updated with XOR. Two mechanisms
//! are provided:
//!
//! * [`GupsMode::ReadModifyWrite`] — the conventional host-side
//!   pattern: RD16, XOR in the core, WR16 (6 FLITs per update, two
//!   round trips, and lost updates under concurrency).
//! * [`GupsMode::Xor16Amo`] — the Gen2 `XOR16` atomic performs the
//!   update in the logic layer (4 FLITs, one round trip, exact).
//!
//! On a multi-cube fabric each of the first [`GupsConfig::cubes`] cubes
//! injects its own update stream against its own table, and
//! [`GupsConfig::remote_permille`] of the updates target another cube's
//! table instead, routed hop by hop (`CUB` ≠ entry cube). Every cube's
//! table is checked against a host-side oracle, so a misrouted or lost
//! packet shows up as a table mismatch. The aggregate updates per cycle
//! is the "fabric GUPS scaling" table of `results/ablations.txt`.

use crate::window::{Sent, Window};
use hmc_sim::HmcSim;
use hmc_types::{Cub, HmcError, HmcRqst, PayloadBuf};
use std::collections::VecDeque;

/// The update mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GupsMode {
    /// RD16 + host XOR + WR16.
    ReadModifyWrite,
    /// One `XOR16` atomic per update.
    Xor16Amo,
}

/// Configuration of a RandomAccess run.
#[derive(Debug, Clone)]
pub struct GupsConfig {
    /// Table entries per cube (16 bytes each); must be a power of two.
    pub table_entries: usize,
    /// Updates each injecting cube performs.
    pub updates: usize,
    /// Outstanding-update window of each injecting cube.
    pub window: usize,
    /// Update mechanism.
    pub mode: GupsMode,
    /// Table base address (16-byte aligned, the same on every cube).
    pub table_base: u64,
    /// RNG seed for the update stream; injecting cube `d` runs the
    /// stream of `seed ^ d·φ`, so cube 0 runs `seed`'s own.
    pub seed: u64,
    /// Cycle budget.
    pub max_cycles: u64,
    /// Per-mille of updates that target another cube's table
    /// (0 = all local, 1000 = all remote; moot on a single cube).
    pub remote_permille: u32,
    /// Cubes that inject an update stream: cubes `0..cubes`, each
    /// through its own host links.
    pub cubes: usize,
}

impl Default for GupsConfig {
    fn default() -> Self {
        GupsConfig {
            table_entries: 1 << 12,
            updates: 2048,
            window: 64,
            mode: GupsMode::Xor16Amo,
            table_base: 0x0400_0000,
            seed: 0x1234_5678_9ABC_DEF0,
            max_cycles: 10_000_000,
            remote_permille: 0,
            cubes: 1,
        }
    }
}

/// Outcome of a RandomAccess run.
#[derive(Debug, Clone, PartialEq)]
pub struct GupsResult {
    /// Device cycles consumed.
    pub cycles: u64,
    /// Updates performed, across every injecting cube.
    pub updates: u64,
    /// Updates that crossed at least one fabric edge.
    pub remote_updates: u64,
    /// Host-link FLITs consumed at the injecting cubes.
    pub link_flits: u64,
    /// Updates per cycle (the GUPS figure, per device clock).
    pub updates_per_cycle: f64,
    /// Table entries, across every cube, that disagree with the
    /// sequential oracle.
    pub errors: usize,
}

/// The HPCC RandomAccess polynomial stream (x^63 + x^2 + x + 1 LFSR,
/// as in the reference implementation).
#[derive(Debug, Clone, Copy)]
pub struct HpccStream(u64);

impl HpccStream {
    /// Seeds the stream.
    pub fn new(seed: u64) -> Self {
        HpccStream(if seed == 0 { 1 } else { seed })
    }
}

impl Iterator for HpccStream {
    type Item = u64;
    fn next(&mut self) -> Option<u64> {
        let v = self.0;
        self.0 = (v << 1) ^ (if (v as i64) < 0 { 7 } else { 0 });
        Some(self.0)
    }
}

/// An update in flight, by its value: the target cube and entry are a
/// function of it.
#[derive(Debug, Clone, Copy)]
enum Pending {
    /// Awaiting the XOR16 response.
    Amo { value: u64 },
    /// Awaiting the RD16 of an RMW update.
    RmwRead { value: u64 },
    /// Awaiting the WR16 ack of an RMW update; line kept for retries.
    RmwWrite { value: u64, new: [u64; 2] },
}

/// One injecting cube's share of the run.
struct Injector {
    stream: HpccStream,
    /// Fresh updates issued.
    issued: usize,
    /// A fresh update the link refused; it goes before the next one.
    carry: Option<u64>,
    /// Updates (XOR16 or RD16 phase) to re-issue after the vault
    /// refused them.
    retries: VecDeque<u64>,
    /// RMW write-backs waiting to be issued.
    writes: VecDeque<(u64, [u64; 2])>,
}

/// The RandomAccess kernel runner.
#[derive(Debug, Clone)]
pub struct GupsKernel {
    /// Kernel configuration.
    pub config: GupsConfig,
}

impl GupsKernel {
    /// Creates a runner.
    pub fn new(config: GupsConfig) -> Self {
        GupsKernel { config }
    }

    fn entry_addr(&self, entry: usize) -> u64 {
        self.config.table_base + (entry as u64) * 16
    }

    /// The update stream cube `d` injects.
    fn stream(&self, d: usize) -> HpccStream {
        HpccStream::new(self.config.seed ^ (d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The (target cube, table entry) of update value `v` injected at
    /// cube `d` of `n` — a pure function, so retries and the oracle
    /// agree.
    fn target_of(&self, d: usize, n: usize, v: u64) -> (usize, usize) {
        let entry = (v & (self.config.table_entries - 1) as u64) as usize;
        let remote = n > 1 && (v >> 32) % 1000 < self.config.remote_permille as u64;
        let target = if remote { (d + 1 + ((v >> 16) as usize % (n - 1))) % n } else { d };
        (target, entry)
    }

    /// Sends the request `pending` stands for from cube `d` (of `n`) to
    /// the table entry its update value targets.
    fn send(
        &self,
        sim: &mut HmcSim,
        window: &mut Window<Pending>,
        d: usize,
        n: usize,
        pending: Pending,
    ) -> Result<Sent, HmcError> {
        let (value, cmd, payload) = match pending {
            Pending::Amo { value } => (value, HmcRqst::Xor16, PayloadBuf::from([value, 0])),
            Pending::RmwRead { value } => (value, HmcRqst::Rd16, PayloadBuf::new()),
            Pending::RmwWrite { value, new } => (value, HmcRqst::Wr16, PayloadBuf::from(new)),
        };
        let (target, entry) = self.target_of(d, n, value);
        let cub = Cub::new(target as u8).expect("cube count validated");
        let addr = self.entry_addr(entry);
        window.send(sim, d, pending, |sim, link| sim.send_to_cube(d, link, cub, cmd, addr, payload))
    }

    /// Runs an update stream at each of the first `cubes` cubes and
    /// verifies every cube's table against a sequential oracle.
    pub fn run(&self, sim: &mut HmcSim) -> Result<GupsResult, HmcError> {
        let cfg = &self.config;
        if !cfg.table_entries.is_power_of_two() {
            return Err(HmcError::InvalidRequestSize(cfg.table_entries));
        }
        let n = sim.device_count();
        let mut window = Window::new(sim, cfg.cubes)?;

        // Zero-initialized tables; build the oracle host-side. XOR
        // commutes, so completion order never changes the result. A cube
        // that injects nothing is only reached by remote updates.
        let tables = if cfg.remote_permille == 0 { cfg.cubes } else { n };
        let mut oracle = vec![vec![0u64; cfg.table_entries]; tables];
        for d in 0..cfg.cubes {
            for v in self.stream(d).take(cfg.updates) {
                let (target, entry) = self.target_of(d, n, v);
                oracle[target][entry] ^= v;
            }
        }

        let flits_before = window.host_flits(sim)?;
        let start_cycle = sim.cycle();
        let mut injectors: Vec<Injector> = (0..cfg.cubes)
            .map(|d| Injector {
                stream: self.stream(d),
                issued: 0,
                carry: None,
                retries: VecDeque::new(),
                writes: VecDeque::new(),
            })
            .collect();
        let mut completed = 0usize;
        let mut remote_updates = 0u64;
        // An update's first request: the XOR16 itself, or the RD16 of a
        // read-modify-write.
        let first = |value| match cfg.mode {
            GupsMode::Xor16Amo => Pending::Amo { value },
            GupsMode::ReadModifyWrite => Pending::RmwRead { value },
        };

        while completed < cfg.updates * cfg.cubes {
            if sim.cycle() - start_cycle > cfg.max_cycles {
                break;
            }
            for (d, inj) in injectors.iter_mut().enumerate() {
                while let Some((pending, rsp)) = window.recv(sim, d) {
                    let rsp = rsp.rsp;
                    match pending {
                        // The vault refused the request: nothing
                        // happened, so replay it from scratch.
                        Pending::Amo { value } | Pending::RmwRead { value }
                            if rsp.not_executed() =>
                        {
                            inj.retries.push_back(value)
                        }
                        Pending::RmwWrite { value, new } if rsp.not_executed() => {
                            inj.writes.push_back((value, new))
                        }
                        // AMO and write acks carry no payload we
                        // consume, so poison cannot corrupt them.
                        Pending::Amo { .. } | Pending::RmwWrite { .. } => completed += 1,
                        // Reads are idempotent: re-fetch when the
                        // payload is poisoned or truncated.
                        Pending::RmwRead { value } if rsp.poisoned() || rsp.payload.len() < 2 => {
                            inj.retries.push_back(value)
                        }
                        Pending::RmwRead { value } => {
                            inj.writes.push_back((value, [rsp.payload[0] ^ value, rsp.payload[1]]))
                        }
                    }
                }
            }

            for (d, inj) in injectors.iter_mut().enumerate() {
                // Flush pending RMW write-backs first (they hold window
                // slots until acknowledged).
                while let Some(&(value, new)) = inj.writes.front() {
                    let write = Pending::RmwWrite { value, new };
                    if self.send(sim, &mut window, d, n, write)? == Sent::Full {
                        break;
                    }
                    inj.writes.pop_front();
                }

                // Re-issue refused updates next: they already count
                // toward `issued`, so they bypass that gate but still
                // respect the window.
                while window.in_flight(d) + inj.writes.len() < cfg.window {
                    let Some(&v) = inj.retries.front() else { break };
                    if self.send(sim, &mut window, d, n, first(v))? == Sent::Full {
                        break;
                    }
                    inj.retries.pop_front();
                }

                // Issue fresh updates while the window has room.
                while window.in_flight(d) + inj.writes.len() < cfg.window
                    && inj.issued < cfg.updates
                {
                    let v = inj.carry.take().or_else(|| inj.stream.next()).expect("infinite");
                    if self.send(sim, &mut window, d, n, first(v))? == Sent::Full {
                        inj.carry = Some(v);
                        break;
                    }
                    inj.issued += 1;
                    if self.target_of(d, n, v).0 != d {
                        remote_updates += 1;
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
        Ok(GupsResult {
            cycles,
            updates: completed as u64,
            remote_updates,
            link_flits: window.host_flits(sim)? - flits_before,
            updates_per_cycle: completed as f64 / cycles.max(1) as f64,
            errors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::{DeviceConfig, SimConfig};

    #[test]
    fn hpcc_stream_is_deterministic_and_nonrepeating_shortterm() {
        let a: Vec<u64> = HpccStream::new(42).take(16).collect();
        let b: Vec<u64> = HpccStream::new(42).take(16).collect();
        assert_eq!(a, b);
        let unique: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(unique.len(), 16);
    }

    /// Regression for a fuzz-farm find: a fault-injected (empty
    /// payload) RD16 response used to panic the RMW recv loop.
    /// Faulted updates must be retried; with retries, even the AMO
    /// oracle stays exact under heavy vault errors.
    #[test]
    fn amo_mode_survives_injected_faults_exactly() {
        let mut config = DeviceConfig::gen2_4link_4gb();
        config.fault = hmc_sim::FaultPlan::seeded(9)
            .with_vault_errors(70_000)
            .with_poison(30_000);
        let mut sim = HmcSim::new(config).unwrap();
        let kernel = GupsKernel::new(GupsConfig {
            table_entries: 1 << 8,
            updates: 256,
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        assert_eq!(result.updates, 256);
        assert_eq!(result.errors, 0, "faulted XOR16s are retried, not lost");
    }

    #[test]
    fn rmw_mode_survives_injected_faults() {
        let mut config = DeviceConfig::gen2_4link_4gb();
        config.fault = hmc_sim::FaultPlan::seeded(13)
            .with_vault_errors(50_000)
            .with_poison(50_000);
        let mut sim = HmcSim::new(config).unwrap();
        let kernel = GupsKernel::new(GupsConfig {
            table_entries: 1 << 8,
            updates: 256,
            mode: GupsMode::ReadModifyWrite,
            window: 1,
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        assert_eq!(result.updates, 256);
        assert_eq!(result.errors, 0, "window 1 has no concurrency: exact despite faults");
    }

    #[test]
    fn amo_mode_matches_oracle_exactly() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let kernel = GupsKernel::new(GupsConfig {
            table_entries: 1 << 8,
            updates: 512,
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        assert_eq!(result.updates, 512);
        assert_eq!(result.errors, 0, "XOR16 atomics commute: exact result");
        assert!(result.updates_per_cycle > 0.0);
    }

    #[test]
    fn rmw_mode_completes_and_counts_traffic() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let kernel = GupsKernel::new(GupsConfig {
            table_entries: 1 << 8,
            updates: 256,
            mode: GupsMode::ReadModifyWrite,
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        assert_eq!(result.updates, 256);
        // RMW moves RD16 (1+2) + WR16 (2+1) = 6 FLITs per update vs
        // XOR16's (2+2) = 4.
        assert!(result.link_flits >= 6 * 256);
    }

    #[test]
    fn amo_uses_fewer_flits_than_rmw() {
        let run = |mode: GupsMode| {
            let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
            GupsKernel::new(GupsConfig {
                table_entries: 1 << 8,
                updates: 256,
                mode,
                ..Default::default()
            })
            .run(&mut sim)
            .unwrap()
        };
        let amo = run(GupsMode::Xor16Amo);
        let rmw = run(GupsMode::ReadModifyWrite);
        assert!(
            amo.link_flits < rmw.link_flits,
            "AMO offload saves link bandwidth: {} vs {}",
            amo.link_flits,
            rmw.link_flits
        );
        assert!(amo.cycles <= rmw.cycles, "one round trip beats two");
    }

    #[test]
    fn remote_updates_are_exact_across_a_chain() {
        let mut sim =
            HmcSim::with_config(SimConfig::chain(DeviceConfig::gen2_4link_4gb(), 4)).unwrap();
        let kernel = GupsKernel::new(GupsConfig {
            table_entries: 1 << 8,
            updates: 128,
            remote_permille: 100,
            cubes: 4,
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        assert_eq!(result.updates, 4 * 128);
        assert!(result.remote_updates > 0, "remote fraction must cross edges");
        assert_eq!(result.errors, 0, "remote XOR16s land on the right cube");
    }

    #[test]
    fn a_single_cube_keeps_every_update_local() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let kernel = GupsKernel::new(GupsConfig {
            table_entries: 1 << 8,
            updates: 128,
            remote_permille: 100,
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        assert_eq!(result.updates, 128);
        assert_eq!(result.remote_updates, 0);
        assert_eq!(result.errors, 0);
    }

    #[test]
    fn non_power_of_two_table_rejected() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let kernel = GupsKernel::new(GupsConfig { table_entries: 1000, ..Default::default() });
        assert!(kernel.run(&mut sim).is_err());
    }
}
