//! Shared-counter increments — the workload behind the paper's
//! Table II AMO-efficiency comparison (§III).
//!
//! N threads each perform M atomic increments of one shared 8-byte
//! counter, either with the HMC `INC8` atomic (2 FLITs of link
//! traffic per increment) or with the cache-based read-modify-write
//! pattern (RD64 + WR64: 12 FLITs per increment).
//!
//! The cache-based mode is a *traffic* model: the simulated host
//! performs the read-modify-write non-coherently, so concurrent
//! threads can lose updates — exactly the hazard a real cache
//! hierarchy spends coherency traffic to prevent, and a useful
//! denominator for the Table II comparison.

use crate::driver::{HostThread, Op, RunMetrics, Step, ThreadDriver};
use hmc_sim::{HmcSim, TrackedResponse};
use hmc_types::{HmcError, HmcRqst, PayloadBuf};

/// How increments are performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterMode {
    /// HMC `INC8` atomic (1 request FLIT + 1 response FLIT).
    HmcInc8,
    /// Cache-line read-modify-write: RD64 (1+5 FLITs) followed by
    /// WR64 (5+1 FLITs).
    CacheRmw,
}

/// Configuration of a shared-counter run.
#[derive(Debug, Clone)]
pub struct CounterKernelConfig {
    /// Number of threads.
    pub threads: usize,
    /// Increments per thread.
    pub increments_per_thread: usize,
    /// Address of the shared counter (its cache line for RMW mode).
    pub counter_addr: u64,
    /// Increment mechanism.
    pub mode: CounterMode,
    /// Cycle budget.
    pub max_cycles: u64,
}

impl Default for CounterKernelConfig {
    fn default() -> Self {
        CounterKernelConfig {
            threads: 4,
            increments_per_thread: 16,
            counter_addr: 0x8000,
            mode: CounterMode::HmcInc8,
            max_cycles: 2_000_000,
        }
    }
}

/// The request a thread has in flight, or sends next.
#[derive(Debug, Clone, PartialEq, Eq)]
enum State {
    Inc,
    /// Fetch the 64-byte cache line containing the counter.
    Read,
    /// Flush the modified cache line back.
    Write { line: PayloadBuf },
}

/// One incrementing thread.
struct CounterThread {
    link: usize,
    remaining: usize,
    addr: u64,
    state: State,
}

impl CounterThread {
    fn op(&self) -> Op {
        match &self.state {
            State::Inc => Op::new(HmcRqst::Inc8, self.addr, []),
            State::Read => Op::new(HmcRqst::Rd64, self.addr & !63, []),
            State::Write { line } => Op::new(HmcRqst::Wr64, self.addr & !63, line.clone()),
        }
    }
}

impl HostThread for CounterThread {
    fn link(&self) -> usize {
        self.link
    }

    fn step(&mut self, rsp: Option<TrackedResponse>, _cycle: u64) -> Step {
        let word = ((self.addr & 63) / 8) as usize;
        match (rsp.map(|r| r.rsp), &self.state) {
            (None, _) if self.remaining == 0 => return Step::Done,
            (None, _) => {}
            // Not executed: the increment, read or flush did not
            // happen, so re-issue it. Reads are idempotent, so a read
            // is also re-fetched when its data is poisoned or too short
            // to contain the counter word.
            (Some(rsp), _) if rsp.not_executed() => {}
            (Some(rsp), State::Read) if rsp.poisoned() || rsp.payload.len() <= word => {}
            (Some(rsp), State::Read) => {
                // Modify the counter word within the fetched line, as a
                // cache would.
                let mut line = rsp.payload;
                line[word] = line[word].wrapping_add(1);
                self.state = State::Write { line };
            }
            // A poisoned INC8 ack is fine: the atomic executed and its
            // payload is never read. Write acks carry no payload, so
            // DINV is moot.
            (Some(_), State::Inc | State::Write { .. }) => {
                self.remaining -= 1;
                if self.remaining == 0 {
                    return Step::Done;
                }
                if self.state != State::Inc {
                    self.state = State::Read;
                }
            }
        }
        Step::Send(self.op())
    }
}

/// Outcome of a shared-counter run.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterKernelResult {
    /// Driver metrics.
    pub metrics: RunMetrics,
    /// Final counter value.
    pub final_value: u64,
    /// Increments requested (threads × increments/thread).
    pub requested: u64,
    /// Link FLITs consumed by the run (requests in + responses out).
    pub link_flits: u64,
    /// Link bytes consumed by the run.
    pub link_bytes: u64,
}

/// The shared-counter kernel runner.
#[derive(Debug, Clone)]
pub struct CounterKernel {
    /// Kernel configuration.
    pub config: CounterKernelConfig,
}

impl CounterKernel {
    /// Creates a runner.
    pub fn new(config: CounterKernelConfig) -> Self {
        CounterKernel { config }
    }

    /// Runs the kernel.
    pub fn run(&self, sim: &mut HmcSim) -> Result<CounterKernelResult, HmcError> {
        let flits_before = {
            let s = sim.stats(0)?;
            s.rqst_flits + s.rsp_flits
        };

        let links = sim.device_config(0)?.links;
        sim.mem_write_u64(0, self.config.counter_addr, 0)?;
        let start_state = match self.config.mode {
            CounterMode::HmcInc8 => State::Inc,
            CounterMode::CacheRmw => State::Read,
        };
        let mut threads: Vec<CounterThread> = (0..self.config.threads)
            .map(|tid| CounterThread {
                link: tid % links,
                remaining: self.config.increments_per_thread,
                addr: self.config.counter_addr,
                state: start_state.clone(),
            })
            .collect();
        let driver =
            ThreadDriver { dev: 0, max_cycles: self.config.max_cycles, resilience: None };
        let metrics = driver.run(sim, &mut threads);

        let flits_after = {
            let s = sim.stats(0)?;
            s.rqst_flits + s.rsp_flits
        };
        let link_flits = flits_after - flits_before;
        Ok(CounterKernelResult {
            metrics,
            final_value: sim.mem_read_u64(0, self.config.counter_addr)?,
            requested: (self.config.threads * self.config.increments_per_thread) as u64,
            link_flits,
            link_bytes: link_flits * 16,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::DeviceConfig;

    #[test]
    fn inc8_counts_exactly() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let kernel = CounterKernel::new(CounterKernelConfig {
            threads: 8,
            increments_per_thread: 10,
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        assert_eq!(result.metrics.unfinished, 0);
        assert_eq!(result.final_value, 80, "INC8 is atomic: no lost updates");
    }

    #[test]
    fn inc8_traffic_matches_table_two() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let kernel = CounterKernel::new(CounterKernelConfig {
            threads: 1,
            increments_per_thread: 1,
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        // Table II counts INC8 as 1 request FLIT + 1 response FLIT.
        // (The paper's byte column uses a 128-byte-per-FLIT
        // convention; the wire FLIT is 16 bytes.)
        assert_eq!(result.link_flits, 2);
        assert_eq!(result.link_bytes, 32);
    }

    #[test]
    fn cache_rmw_traffic_matches_table_two() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let kernel = CounterKernel::new(CounterKernelConfig {
            threads: 1,
            increments_per_thread: 1,
            mode: CounterMode::CacheRmw,
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        // Table II: RD64 (1+5) + WR64 (5+1) = 12 FLITs.
        assert_eq!(result.link_flits, 12);
        assert_eq!(result.final_value, 1);
    }

    /// Regression for a fuzz-farm find: a fault-injected (empty
    /// payload) read response used to panic the RMW path with an
    /// index out of bounds. Faulted requests must be retried instead.
    #[test]
    fn cache_rmw_survives_injected_faults() {
        let mut config = DeviceConfig::gen2_4link_4gb();
        config.fault = hmc_sim::FaultPlan::seeded(42)
            .with_vault_errors(60_000)
            .with_poison(40_000);
        let mut sim = HmcSim::new(config).unwrap();
        let kernel = CounterKernel::new(CounterKernelConfig {
            threads: 5,
            increments_per_thread: 4,
            mode: CounterMode::CacheRmw,
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        assert_eq!(result.metrics.unfinished, 0);
        assert!(result.final_value >= 1);
        assert!(result.final_value <= result.requested);
    }

    #[test]
    fn inc8_survives_injected_faults_without_losing_increments() {
        let mut config = DeviceConfig::gen2_4link_4gb();
        config.fault = hmc_sim::FaultPlan::seeded(7)
            .with_vault_errors(80_000)
            .with_poison(30_000);
        let mut sim = HmcSim::new(config).unwrap();
        let kernel = CounterKernel::new(CounterKernelConfig {
            threads: 4,
            increments_per_thread: 8,
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        assert_eq!(result.metrics.unfinished, 0);
        assert_eq!(result.final_value, 32, "errored INC8s are retried, not dropped");
    }

    #[test]
    fn cache_rmw_can_lose_updates_under_contention() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let kernel = CounterKernel::new(CounterKernelConfig {
            threads: 16,
            increments_per_thread: 8,
            mode: CounterMode::CacheRmw,
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        assert_eq!(result.metrics.unfinished, 0);
        assert!(
            result.final_value <= result.requested,
            "non-coherent RMW never overcounts"
        );
        assert!(
            result.final_value < result.requested,
            "concurrent non-coherent RMW loses updates ({} of {})",
            result.final_value,
            result.requested
        );
    }
}
