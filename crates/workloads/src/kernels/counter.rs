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

use crate::driver::{HostThread, RunMetrics, ThreadDriver, ThreadIo, ThreadStatus};
use hmc_sim::HmcSim;
use hmc_types::{HmcError, HmcRqst};

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

#[derive(Debug, Clone, PartialEq, Eq)]
enum State {
    SendInc,
    WaitInc,
    SendRead,
    WaitRead,
    SendWrite { line: Vec<u64> },
    WaitWrite { line: Vec<u64> },
}

/// One incrementing thread, built by [`CounterKernel::threads`].
pub struct CounterThread {
    link: usize,
    remaining: usize,
    addr: u64,
    state: State,
}

impl HostThread for CounterThread {
    fn link(&self) -> usize {
        self.link
    }

    fn parked_until(&self) -> Option<u64> {
        match self.state {
            State::WaitInc | State::WaitRead | State::WaitWrite { .. } => Some(u64::MAX),
            State::SendInc | State::SendRead | State::SendWrite { .. } => None,
        }
    }

    fn tick(&mut self, io: &mut ThreadIo<'_>) -> ThreadStatus {
        if self.remaining == 0 {
            return ThreadStatus::Done;
        }
        // Wait-states fall through to the next send within one tick.
        loop {
            match self.state {
                State::SendInc => {
                    match io.send(HmcRqst::Inc8, self.addr, []) {
                        Ok(_) => self.state = State::WaitInc,
                        Err(HmcError::Stall) => {}
                        Err(e) => panic!("counter kernel send failed: {e}"),
                    }
                    return ThreadStatus::Running;
                }
                State::WaitInc => {
                    let Some(rsp) = io.response() else { return ThreadStatus::Running };
                    if rsp.rsp.not_executed() {
                        // The increment did not happen; retry it.
                        self.state = State::SendInc;
                        continue;
                    }
                    // A poisoned INC8 ack is fine: the atomic executed
                    // and we never consume its payload.
                    self.remaining -= 1;
                    if self.remaining == 0 {
                        return ThreadStatus::Done;
                    }
                    self.state = State::SendInc;
                }
                State::SendRead => {
                    // Fetch the 64-byte cache line containing the
                    // counter.
                    match io.send(HmcRqst::Rd64, self.addr & !63, []) {
                        Ok(_) => self.state = State::WaitRead,
                        Err(HmcError::Stall) => {}
                        Err(e) => panic!("counter kernel send failed: {e}"),
                    }
                    return ThreadStatus::Running;
                }
                State::WaitRead => {
                    let Some(rsp) = io.response().map(|r| r.rsp) else {
                        return ThreadStatus::Running;
                    };
                    let word = ((self.addr & 63) / 8) as usize;
                    // Reads are idempotent: re-fetch on any fault —
                    // not executed, poisoned data, or a payload too
                    // short to contain the counter word.
                    if rsp.not_executed() || rsp.poisoned() || rsp.payload.len() <= word {
                        self.state = State::SendRead;
                        continue;
                    }
                    // Modify the counter word within the fetched line,
                    // as a cache would.
                    let mut line = rsp.payload.to_vec();
                    line[word] = line[word].wrapping_add(1);
                    self.state = State::SendWrite { line };
                }
                State::SendWrite { ref line } => {
                    // Flush the modified cache line back.
                    match io.send(HmcRqst::Wr64, self.addr & !63, line.clone()) {
                        Ok(_) => self.state = State::WaitWrite { line: line.clone() },
                        Err(HmcError::Stall) => {}
                        Err(e) => panic!("counter kernel send failed: {e}"),
                    }
                    return ThreadStatus::Running;
                }
                State::WaitWrite { ref line } => {
                    let Some(rsp) = io.response() else { return ThreadStatus::Running };
                    if rsp.rsp.not_executed() {
                        // The flush was dropped; re-issue the same line.
                        self.state = State::SendWrite { line: line.clone() };
                        continue;
                    }
                    // Write acks carry no payload, so DINV is moot.
                    self.remaining -= 1;
                    if self.remaining == 0 {
                        return ThreadStatus::Done;
                    }
                    self.state = State::SendRead;
                }
            }
        }
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

        let mut threads = self.threads(sim)?;
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

    /// Zeroes the counter and builds the kernel's threads — what
    /// [`CounterKernel::run`] hands its driver.
    pub fn threads(&self, sim: &mut HmcSim) -> Result<Vec<CounterThread>, HmcError> {
        let links = sim.device_config(0)?.links;
        sim.mem_write_u64(0, self.config.counter_addr, 0)?;
        let start_state = match self.config.mode {
            CounterMode::HmcInc8 => State::SendInc,
            CounterMode::CacheRmw => State::SendRead,
        };
        Ok((0..self.config.threads)
            .map(|tid| CounterThread {
                link: tid % links,
                remaining: self.config.increments_per_thread,
                addr: self.config.counter_addr,
                state: start_state.clone(),
            })
            .collect())
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
