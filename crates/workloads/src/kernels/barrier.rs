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

use crate::driver::{HostThread, Op, RunMetrics, Step, ThreadDriver};
use hmc_sim::{HmcSim, TrackedResponse};
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

/// The request a thread has in flight, or sends next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// CASEQ8(count: expected -> expected + 1).
    Arrive { expected: u64 },
    /// Last arriver: WR16([0, round + 1]) resets count and publishes
    /// the new sense in one atomic block write.
    Publish,
    /// Waiter: RD16 of the barrier block, checking the sense word.
    Spin,
}

/// One barrier participant.
struct BarrierThread {
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
    fn op(&self) -> Op {
        match self.state {
            // swap = expected + 1, compare = expected.
            State::Arrive { expected } => {
                Op::new(HmcRqst::CasEq8, self.addr, [expected + 1, expected])
            }
            State::Publish => Op::new(HmcRqst::Wr16, self.addr, [0, (self.round + 1) as u64]),
            State::Spin => Op::new(HmcRqst::Rd16, self.addr, []),
        }
    }

    fn finish_round(&mut self, cycle: u64) -> Step {
        self.releases.push(cycle);
        self.round += 1;
        self.backoff = 0;
        if self.round == self.rounds {
            return Step::Done;
        }
        self.state = State::Arrive { expected: 0 };
        // The next round's arrival goes out one cycle after the release
        // is seen: `results/` and the fuzz corpus pin that timing.
        Step::Sleep(cycle + 1)
    }
}

impl HostThread for BarrierThread {
    fn link(&self) -> usize {
        self.link
    }

    fn step(&mut self, rsp: Option<TrackedResponse>, cycle: u64) -> Step {
        let Some(rsp) = rsp.map(|r| r.rsp) else {
            // The run's start, a new round, or the end of a backoff.
            return Step::Send(self.op());
        };
        match self.state {
            // Injected vault error: the CAS never ran, and the publish
            // write is idempotent ([0, round + 1] every time), so either
            // is re-issued as is.
            State::Arrive { .. } | State::Publish if rsp.not_executed() => {}
            State::Arrive { expected } => {
                if rsp.head.af {
                    // Arrived: we swapped expected -> expected + 1.
                    // The atomic flag is a header field, so this
                    // holds even for a poisoned response — and it
                    // must: blindly re-issuing a CAS that already
                    // hit would double-count the arrival and the
                    // round's publisher would never see the count
                    // land exactly on `nthreads`.
                    self.arrivals.push(cycle);
                    self.state =
                        if expected + 1 == self.nthreads { State::Publish } else { State::Spin };
                } else if !rsp.poisoned() {
                    // Missed: the response carries the original count
                    // — retry with the corrected guess. (A poisoned
                    // miss retries with the stale guess rather than
                    // trust invalid data.)
                    let observed = rsp.payload.first().copied().unwrap_or(0);
                    self.state = State::Arrive { expected: observed };
                }
            }
            State::Publish => return self.finish_round(cycle),
            State::Spin => {
                let clean = !rsp.not_executed() && !rsp.poisoned();
                match rsp.payload.get(1) {
                    Some(&sense) if clean && sense >= (self.round + 1) as u64 => {
                        return self.finish_round(cycle);
                    }
                    _ => {
                        let wait = self.backoff.max(self.initial_backoff);
                        self.backoff = (wait * 2).min(self.max_backoff);
                        return Step::Sleep(cycle + wait);
                    }
                }
            }
        }
        Step::Send(self.op())
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
        assert!(self.config.threads > 0, "barrier needs at least one thread");
        let links = sim.device_config(0)?.links;
        sim.mem_write_u64(0, self.config.barrier_addr, 0)?;
        sim.mem_write_u64(0, self.config.barrier_addr + 8, 0)?;
        let mut threads: Vec<BarrierThread> = (0..self.config.threads)
            .map(|tid| BarrierThread {
                link: tid % links,
                nthreads: self.config.threads as u64,
                rounds: self.config.rounds,
                addr: self.config.barrier_addr,
                initial_backoff: self.config.initial_backoff,
                max_backoff: self.config.max_backoff,
                state: State::Arrive { expected: 0 },
                round: 0,
                backoff: 0,
                arrivals: Vec::with_capacity(self.config.rounds),
                releases: Vec::with_capacity(self.config.rounds),
            })
            .collect();
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
