//! A reader-writer workload over the CMC rwlock suite
//! (`libhmc_rwlock.so`).
//!
//! Writers increment a two-word protected value (both words must stay
//! equal) under the exclusive lock with plain RD16 + WR16 — so any
//! exclusion failure shows up as a lost update or a torn read.
//! Readers take the shared lock and check the two words match.
//! Because the rwlock serializes writers, the final counter must
//! equal exactly `writers × sections`, unlike the unprotected RMW of
//! the counter kernel.

use crate::driver::{HostThread, Op, RunMetrics, Step, ThreadDriver};
use hmc_cmc::ops::rwlock::{RDLOCK_CMD, RDUNLOCK_CMD, WRLOCK_CMD, WRUNLOCK_CMD};
use hmc_sim::{HmcSim, TrackedResponse};
use hmc_types::{HmcError, HmcRqst};

/// Configuration of one reader-writer run.
#[derive(Debug, Clone)]
pub struct RwLockKernelConfig {
    /// Reader thread count.
    pub readers: usize,
    /// Writer thread count.
    pub writers: usize,
    /// Critical sections each thread performs.
    pub sections: usize,
    /// Address of the 16-byte lock structure.
    pub lock_addr: u64,
    /// Address of the 16-byte protected data block.
    pub data_addr: u64,
    /// Backoff after a failed acquisition, in cycles.
    pub backoff: u64,
    /// Cycle budget.
    pub max_cycles: u64,
}

impl Default for RwLockKernelConfig {
    fn default() -> Self {
        RwLockKernelConfig {
            readers: 6,
            writers: 2,
            sections: 8,
            lock_addr: 0x6000,
            data_addr: 0x6010,
            backoff: 8,
            max_cycles: 4_000_000,
        }
    }
}

/// The request a thread has in flight, or sends next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Acquire,
    /// RD16 of the protected block.
    Data,
    /// A writer's WR16 of the incremented block.
    WriteBack { value: u64 },
    Release,
}

/// One reader or writer.
struct RwThread {
    tid: u64,
    link: usize,
    writer: bool,
    remaining: usize,
    state: State,
    torn_reads: u32,
    cfg: RwLockKernelConfig,
}

impl RwThread {
    fn op(&self) -> Op {
        let (lock, data, tid) = (self.cfg.lock_addr, self.cfg.data_addr, self.tid + 1);
        match self.state {
            State::Acquire => {
                Op::cmc(if self.writer { WRLOCK_CMD } else { RDLOCK_CMD }, lock, [tid, 0])
            }
            State::Data => Op::new(HmcRqst::Rd16, data, []),
            State::WriteBack { value } => Op::new(HmcRqst::Wr16, data, [value, value]),
            State::Release => {
                Op::cmc(if self.writer { WRUNLOCK_CMD } else { RDUNLOCK_CMD }, lock, [tid, 0])
            }
        }
    }
}

impl HostThread for RwThread {
    fn link(&self) -> usize {
        self.link
    }

    fn step(&mut self, rsp: Option<TrackedResponse>, cycle: u64) -> Step {
        let Some(rsp) = rsp.map(|r| r.rsp) else {
            // The run's start, or the end of a backoff.
            if self.remaining == 0 {
                return Step::Done;
            }
            return Step::Send(self.op());
        };
        if rsp.not_executed() {
            // A vault error: nothing happened, so re-issue the request
            // verbatim — a write-back re-sends the value it wrote.
            return Step::Send(self.op());
        }
        match self.state {
            State::Acquire if rsp.payload[0] == 1 => self.state = State::Data,
            State::Acquire => return Step::Sleep(cycle + self.cfg.backoff),
            State::Data => {
                let (a, b) = (rsp.payload[0], rsp.payload[1]);
                if a != b {
                    self.torn_reads += 1;
                }
                self.state =
                    if self.writer { State::WriteBack { value: a + 1 } } else { State::Release };
            }
            State::WriteBack { .. } => self.state = State::Release,
            State::Release => {
                assert_eq!(rsp.payload[0], 1, "release of a held lock succeeds");
                self.remaining -= 1;
                if self.remaining == 0 {
                    return Step::Done;
                }
                self.state = State::Acquire;
            }
        }
        Step::Send(self.op())
    }
}

/// Outcome of a reader-writer run.
#[derive(Debug, Clone, PartialEq)]
pub struct RwLockKernelResult {
    /// Driver metrics.
    pub metrics: RunMetrics,
    /// Final protected counter value.
    pub final_value: u64,
    /// Increments the writers performed (`writers × sections`).
    pub expected_value: u64,
    /// Torn reads observed (must be zero under correct exclusion).
    pub torn_reads: u32,
    /// Final lock state word (must be zero: fully released).
    pub final_lock_state: u64,
}

/// The reader-writer kernel runner.
#[derive(Debug, Clone)]
pub struct RwLockKernel {
    /// Kernel configuration.
    pub config: RwLockKernelConfig,
}

impl RwLockKernel {
    /// Creates a runner.
    pub fn new(config: RwLockKernelConfig) -> Self {
        RwLockKernel { config }
    }

    /// Runs the kernel; `libhmc_rwlock.so` must be loaded on device 0.
    pub fn run(&self, sim: &mut HmcSim) -> Result<RwLockKernelResult, HmcError> {
        let links = sim.device_config(0)?.links;
        let active: Vec<u8> = sim.cmc_registrations(0)?.iter().map(|r| r.cmd).collect();
        for code in [RDLOCK_CMD, RDUNLOCK_CMD, WRLOCK_CMD, WRUNLOCK_CMD] {
            if !active.contains(&code) {
                return Err(HmcError::CmcNotActive(code));
            }
        }
        sim.mem_write_u64(0, self.config.lock_addr, 0)?;
        sim.mem_write_u64(0, self.config.lock_addr + 8, 0)?;
        sim.mem_write_u64(0, self.config.data_addr, 0)?;
        sim.mem_write_u64(0, self.config.data_addr + 8, 0)?;

        let total = self.config.readers + self.config.writers;
        let mut threads: Vec<RwThread> = (0..total)
            .map(|tid| RwThread {
                tid: tid as u64,
                link: tid % links,
                writer: tid < self.config.writers,
                remaining: self.config.sections,
                state: State::Acquire,
                torn_reads: 0,
                cfg: self.config.clone(),
            })
            .collect();
        let driver =
            ThreadDriver { dev: 0, max_cycles: self.config.max_cycles, resilience: None };
        let metrics = driver.run(sim, &mut threads);
        Ok(RwLockKernelResult {
            metrics,
            final_value: sim.mem_read_u64(0, self.config.data_addr)?,
            expected_value: (self.config.writers * self.config.sections) as u64,
            torn_reads: threads.iter().map(|t| t.torn_reads).sum(),
            final_lock_state: sim.mem_read_u64(0, self.config.lock_addr)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::DeviceConfig;

    fn sim_with_rwlock() -> HmcSim {
        hmc_cmc::ops::register_builtin_libraries();
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        sim.load_cmc_library(0, hmc_cmc::ops::RWLOCK_LIBRARY).unwrap();
        sim
    }

    #[test]
    fn writers_never_lose_updates() {
        let mut sim = sim_with_rwlock();
        let result = RwLockKernel::new(RwLockKernelConfig {
            readers: 8,
            writers: 4,
            sections: 6,
            ..Default::default()
        })
        .run(&mut sim)
        .unwrap();
        assert_eq!(result.metrics.unfinished, 0);
        assert_eq!(result.final_value, result.expected_value, "exclusion holds");
        assert_eq!(result.torn_reads, 0);
        assert_eq!(result.final_lock_state, 0, "all holds released");
    }

    #[test]
    fn read_only_run_completes_quickly() {
        let mut sim = sim_with_rwlock();
        let result = RwLockKernel::new(RwLockKernelConfig {
            readers: 16,
            writers: 0,
            sections: 4,
            ..Default::default()
        })
        .run(&mut sim)
        .unwrap();
        assert_eq!(result.metrics.unfinished, 0);
        assert_eq!(result.final_value, 0);
        // Readers share: no acquisition ever fails, so the makespan
        // stays near the uncontended floor (3 ops x 3 cycles x 4
        // sections plus queueing).
        assert!(result.metrics.max_cycle() < 600, "got {}", result.metrics.max_cycle());
    }

    /// A vault error used to panic the acquire and the data read on an
    /// empty payload: every request the vault did not execute is now
    /// re-issued as it was.
    #[test]
    fn survives_injected_vault_errors() {
        for seed in [1, 5, 23, 42] {
            let mut config = DeviceConfig::gen2_4link_4gb();
            config.fault =
                hmc_sim::FaultPlan::seeded(seed).with_vault_errors(60_000).with_poison(40_000);
            hmc_cmc::ops::register_builtin_libraries();
            let mut sim = HmcSim::new(config).unwrap();
            sim.load_cmc_library(0, hmc_cmc::ops::RWLOCK_LIBRARY).unwrap();
            let result = RwLockKernel::new(RwLockKernelConfig::default()).run(&mut sim).unwrap();
            assert_eq!(result.metrics.unfinished, 0, "seed {seed}");
            assert_eq!(result.final_value, result.expected_value, "seed {seed}");
            assert_eq!(result.torn_reads, 0, "seed {seed}");
            assert_eq!(result.final_lock_state, 0, "seed {seed}: lock released");
            assert!(sim.stats(0).unwrap().vault_faults > 0, "seed {seed}: no vault error");
        }
    }

    #[test]
    fn kernel_requires_rwlock_library() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let kernel = RwLockKernel::new(RwLockKernelConfig::default());
        assert!(matches!(kernel.run(&mut sim), Err(HmcError::CmcNotActive(_))));
    }
}
