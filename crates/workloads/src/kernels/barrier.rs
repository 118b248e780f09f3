//! Centralized sense-reversing barrier built from the Gen2
//! compare-and-swap offload (ROADMAP "CMC ecosystem expansion":
//! barriers as the next synchronization primitive after the paper's
//! mutex).
//!
//! The barrier is a 16-byte in-cube structure at a 16-byte-aligned
//! address:
//!
//! * word 0 — **arrival count** for the current round;
//! * word 1 — **rounds completed** (a monotonically increasing
//!   "sense" word).
//!
//! Arrival is a `CASEQ8` loop on the count word: a thread guesses the
//! current count (starting at 0, correcting from the original value
//! every miss returns) and swaps in `count + 1`. The last arriver of
//! a round publishes the new round in a single atomic `WR16` that
//! resets the count *and* advances the sense word together; everyone
//! else spins on `RD16` with truncated exponential backoff until the
//! sense word reaches the round number. Because the sense word is
//! monotonic (it counts rounds rather than flipping a bit), a slow
//! waiter can never confuse two adjacent rounds even while faster
//! threads race ahead into the next arrival phase.
//!
//! The kernel tolerates the fuzz farm's fault plans: vault errors
//! (`ERRSTAT` set, request not executed) trigger a verbatim re-issue,
//! while poisoned responses (`DINV` set, payload invalid but header
//! fields — including the atomic flag — still valid) are handled per
//! state: a poisoned CAS *hit* still counts as an arrival (re-issuing
//! it would double-count and strand the round's publisher), a
//! poisoned CAS miss retries with its stale guess, and a poisoned
//! spin read is simply retried.

use crate::driver::{HostThread, RunMetrics, ThreadDriver, ThreadIo, ThreadStatus};
use hmc_sim::HmcSim;
use hmc_types::{HmcError, HmcRqst};

/// Configuration of a barrier-kernel run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarrierKernelConfig {
    /// Number of participating threads.
    pub threads: usize,
    /// Barrier episodes each thread passes through.
    pub rounds: usize,
    /// Address of the 16-byte barrier structure (16-byte aligned).
    pub barrier_addr: u64,
    /// Initial spin backoff after an unsatisfied sense read, in
    /// cycles.
    pub initial_backoff: u64,
    /// Spin backoff cap in cycles.
    pub max_backoff: u64,
    /// Cycle budget.
    pub max_cycles: u64,
}

impl Default for BarrierKernelConfig {
    fn default() -> Self {
        BarrierKernelConfig {
            threads: 4,
            rounds: 4,
            barrier_addr: 0x9000,
            initial_backoff: 8,
            max_backoff: 128,
            max_cycles: 2_000_000,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// CASEQ8(count: expected -> expected + 1).
    SendArrive { expected: u64 },
    WaitArrive { expected: u64 },
    /// Last arriver: WR16([0, round + 1]) resets count and publishes
    /// the new sense in one atomic block write.
    SendPublish,
    WaitPublish,
    /// Waiter: RD16 of the barrier block, checking the sense word.
    SendSpin,
    WaitSpin,
    Backoff { until: u64 },
}

/// One barrier participant, built by [`BarrierKernel::threads`].
pub struct BarrierThread {
    link: usize,
    nthreads: u64,
    rounds: usize,
    addr: u64,
    initial_backoff: u64,
    max_backoff: u64,
    state: State,
    round: usize,
    backoff: u64,
    /// Cycle each round's arrival CAS succeeded, indexed by round.
    arrivals: Vec<u64>,
    /// Cycle each round's release was observed, indexed by round.
    releases: Vec<u64>,
}

impl BarrierThread {
    fn finish_round(&mut self, cycle: u64) -> ThreadStatus {
        self.releases.push(cycle);
        self.round += 1;
        self.backoff = 0;
        if self.round == self.rounds {
            ThreadStatus::Done
        } else {
            self.state = State::SendArrive { expected: 0 };
            ThreadStatus::Running
        }
    }
}

impl HostThread for BarrierThread {
    fn link(&self) -> usize {
        self.link
    }

    fn parked_until(&self) -> Option<u64> {
        match self.state {
            State::Backoff { until } => Some(until),
            State::WaitArrive { .. } | State::WaitPublish | State::WaitSpin => Some(u64::MAX),
            State::SendArrive { .. } | State::SendPublish | State::SendSpin => None,
        }
    }

    fn tick(&mut self, io: &mut ThreadIo<'_>) -> ThreadStatus {
        loop {
            match self.state {
                State::SendArrive { expected } => {
                    // swap = expected + 1, compare = expected.
                    match io.send(HmcRqst::CasEq8, self.addr, [expected + 1, expected]) {
                        Ok(_) => self.state = State::WaitArrive { expected },
                        Err(HmcError::Stall) => {}
                        Err(e) => panic!("barrier kernel send failed: {e}"),
                    }
                    return ThreadStatus::Running;
                }
                State::WaitArrive { expected } => {
                    let Some(rsp) = io.response() else { return ThreadStatus::Running };
                    if rsp.rsp.not_executed() {
                        // Injected vault error: the CAS never ran, so
                        // it is safe to re-issue as-is.
                        self.state = State::SendArrive { expected };
                        continue;
                    }
                    if rsp.rsp.head.af {
                        // Arrived: we swapped expected -> expected + 1.
                        // The atomic flag is a header field, so this
                        // holds even for a poisoned response — and it
                        // must: blindly re-issuing a CAS that already
                        // hit would double-count the arrival and the
                        // round's publisher would never see the count
                        // land exactly on `nthreads`.
                        self.arrivals.push(io.cycle);
                        if expected + 1 == self.nthreads {
                            self.state = State::SendPublish;
                        } else {
                            self.state = State::SendSpin;
                        }
                    } else if rsp.rsp.poisoned() {
                        // Missed, but the returned original count is
                        // poisoned: retry with the stale guess rather
                        // than trust invalid data.
                        self.state = State::SendArrive { expected };
                    } else {
                        // Missed: the response carries the original
                        // count — retry with the corrected guess.
                        let observed = rsp.rsp.payload.first().copied().unwrap_or(0);
                        self.state = State::SendArrive { expected: observed };
                    }
                }
                State::SendPublish => {
                    let published = (self.round + 1) as u64;
                    match io.send(HmcRqst::Wr16, self.addr, [0, published]) {
                        Ok(_) => self.state = State::WaitPublish,
                        Err(HmcError::Stall) => {}
                        Err(e) => panic!("barrier kernel send failed: {e}"),
                    }
                    return ThreadStatus::Running;
                }
                State::WaitPublish => {
                    let Some(rsp) = io.response() else { return ThreadStatus::Running };
                    if rsp.rsp.not_executed() {
                        // The publish write is idempotent ([0, round +
                        // 1] every time), so re-issuing is safe.
                        self.state = State::SendPublish;
                        continue;
                    }
                    return self.finish_round(io.cycle);
                }
                State::SendSpin => {
                    match io.send(HmcRqst::Rd16, self.addr, []) {
                        Ok(_) => self.state = State::WaitSpin,
                        Err(HmcError::Stall) => {}
                        Err(e) => panic!("barrier kernel send failed: {e}"),
                    }
                    return ThreadStatus::Running;
                }
                State::WaitSpin => {
                    let Some(rsp) = io.response() else { return ThreadStatus::Running };
                    let sense = rsp.rsp.payload.get(1).copied();
                    let clean = !rsp.rsp.not_executed() && !rsp.rsp.poisoned();
                    match sense {
                        Some(s) if clean && s >= (self.round + 1) as u64 => {
                            return self.finish_round(io.cycle);
                        }
                        _ => {
                            let wait = self.backoff.max(self.initial_backoff);
                            self.backoff = (wait * 2).min(self.max_backoff);
                            self.state = State::Backoff { until: io.cycle + wait };
                            return ThreadStatus::Running;
                        }
                    }
                }
                State::Backoff { until } => {
                    if io.cycle < until {
                        return ThreadStatus::Running;
                    }
                    self.state = State::SendSpin;
                }
            }
        }
    }
}

/// Outcome of a barrier run.
#[derive(Debug, Clone, PartialEq)]
pub struct BarrierKernelResult {
    /// Driver metrics.
    pub metrics: RunMetrics,
    /// Per-thread arrival cycles, `[thread][round]`.
    pub arrivals: Vec<Vec<u64>>,
    /// Per-thread release cycles, `[thread][round]`.
    pub releases: Vec<Vec<u64>>,
    /// Final arrival-count word (0 after a clean run).
    pub final_count: u64,
    /// Final sense word (equals `rounds` after a clean run).
    pub final_sense: u64,
}

impl BarrierKernelResult {
    /// Checks the barrier ordering invariant: within every round, no
    /// thread was released before every thread had arrived. Returns
    /// the first `(round, releaser, arriver)` violation.
    pub fn ordering_violation(&self) -> Option<(usize, usize, usize)> {
        let rounds = self.releases.iter().map(Vec::len).min().unwrap_or(0);
        for round in 0..rounds {
            for (releaser, rel) in self.releases.iter().enumerate() {
                for (arriver, arr) in self.arrivals.iter().enumerate() {
                    if rel[round] < arr[round] {
                        return Some((round, releaser, arriver));
                    }
                }
            }
        }
        None
    }
}

/// The barrier kernel runner.
#[derive(Debug, Clone)]
pub struct BarrierKernel {
    /// Kernel configuration.
    pub config: BarrierKernelConfig,
}

impl BarrierKernel {
    /// Creates a runner.
    pub fn new(config: BarrierKernelConfig) -> Self {
        BarrierKernel { config }
    }

    /// Runs the kernel.
    pub fn run(&self, sim: &mut HmcSim) -> Result<BarrierKernelResult, HmcError> {
        let mut threads = self.threads(sim)?;
        let driver =
            ThreadDriver { dev: 0, max_cycles: self.config.max_cycles, resilience: None };
        let metrics = driver.run(sim, &mut threads);
        Ok(BarrierKernelResult {
            metrics,
            arrivals: threads.iter().map(|t| t.arrivals.clone()).collect(),
            releases: threads.iter().map(|t| t.releases.clone()).collect(),
            final_count: sim.mem_read_u64(0, self.config.barrier_addr)?,
            final_sense: sim.mem_read_u64(0, self.config.barrier_addr + 8)?,
        })
    }

    /// Zeroes the barrier structure and builds the kernel's threads —
    /// what [`BarrierKernel::run`] hands its driver.
    pub fn threads(&self, sim: &mut HmcSim) -> Result<Vec<BarrierThread>, HmcError> {
        assert!(self.config.threads > 0, "barrier needs at least one thread");
        let links = sim.device_config(0)?.links;
        sim.mem_write_u64(0, self.config.barrier_addr, 0)?;
        sim.mem_write_u64(0, self.config.barrier_addr + 8, 0)?;
        Ok((0..self.config.threads)
            .map(|tid| BarrierThread {
                link: tid % links,
                nthreads: self.config.threads as u64,
                rounds: self.config.rounds,
                addr: self.config.barrier_addr,
                initial_backoff: self.config.initial_backoff,
                max_backoff: self.config.max_backoff,
                state: State::SendArrive { expected: 0 },
                round: 0,
                backoff: 0,
                arrivals: Vec::with_capacity(self.config.rounds),
                releases: Vec::with_capacity(self.config.rounds),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::{DeviceConfig, FaultPlan};

    fn run_with(config: BarrierKernelConfig, device: DeviceConfig) -> BarrierKernelResult {
        let mut sim = HmcSim::new(device).unwrap();
        BarrierKernel::new(config).run(&mut sim).unwrap()
    }

    #[test]
    fn all_threads_pass_every_round() {
        let result = run_with(
            BarrierKernelConfig { threads: 8, rounds: 5, ..Default::default() },
            DeviceConfig::gen2_4link_4gb(),
        );
        assert_eq!(result.metrics.unfinished, 0);
        assert_eq!(result.final_count, 0);
        assert_eq!(result.final_sense, 5);
        for t in 0..8 {
            assert_eq!(result.arrivals[t].len(), 5);
            assert_eq!(result.releases[t].len(), 5);
        }
    }

    #[test]
    fn no_release_before_last_arrival() {
        let result = run_with(
            BarrierKernelConfig { threads: 16, rounds: 4, ..Default::default() },
            DeviceConfig::gen2_4link_4gb(),
        );
        assert_eq!(result.metrics.unfinished, 0);
        assert_eq!(
            result.ordering_violation(),
            None,
            "a thread left a barrier round before everyone arrived"
        );
    }

    #[test]
    fn single_thread_degenerates_cleanly() {
        let result = run_with(
            BarrierKernelConfig { threads: 1, rounds: 3, ..Default::default() },
            DeviceConfig::gen2_4link_4gb(),
        );
        assert_eq!(result.metrics.unfinished, 0);
        assert_eq!(result.final_sense, 3);
        assert_eq!(result.ordering_violation(), None);
    }

    #[test]
    fn survives_injected_vault_errors() {
        let mut device = DeviceConfig::gen2_4link_4gb();
        device.fault = FaultPlan::seeded(5).with_vault_errors(150_000).with_poison(80_000);
        let result = run_with(
            BarrierKernelConfig { threads: 6, rounds: 3, ..Default::default() },
            device,
        );
        assert_eq!(result.metrics.unfinished, 0, "barrier completes despite faults");
        assert_eq!(result.final_sense, 3);
        assert_eq!(result.ordering_violation(), None);
    }

    #[test]
    fn run_is_deterministic() {
        let a = run_with(BarrierKernelConfig::default(), DeviceConfig::gen2_4link_4gb());
        let b = run_with(BarrierKernelConfig::default(), DeviceConfig::gen2_4link_4gb());
        assert_eq!(a, b);
    }
}
