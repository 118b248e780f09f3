//! The CMC mutex kernel — Algorithm 1 of the paper.
//!
//! Every thread executes:
//!
//! ```text
//! HMC_LOCK(ADDR)
//! if LOCK_SUCCESS then
//!     HMC_UNLOCK(ADDR)
//! else
//!     HMC_TRYLOCK(ADDR)
//!     while LOCK_FAILED do
//!         HMC_TRYLOCK(ADDR)
//!     end while
//!     HMC_UNLOCK(ADDR)
//! end if
//! ```
//!
//! All threads target the same lock structure, deliberately inducing
//! a memory hot spot to exercise the device queueing (§V-B).
//!
//! The `while LOCK_FAILED` spin is governed by a [`SpinPolicy`]:
//!
//! * [`SpinPolicy::UntilOwned`] — the literal semantics: a thread
//!   retries `hmc_trylock` (with truncated exponential backoff so the
//!   hot vault queue is not saturated by stale spin traffic) until the
//!   returned owner id is its own. Every thread holds the lock exactly
//!   once; mutual exclusion is exercised end to end.
//! * [`SpinPolicy::PaperBounded`] — the behaviour the paper's
//!   reported magnitudes imply (max 392 cycles ≈ 4 cycles/thread at
//!   99 threads, which is below the floor of a strict 99-handoff
//!   serialization at a 3-cycle round trip): the spin exits after the
//!   first `hmc_trylock` response and the final `hmc_unlock` is
//!   issued unconditionally (it no-ops in the device unless the
//!   caller owns the lock). Each thread thus issues a bounded ~3
//!   requests. See EXPERIMENTS.md for the calibration discussion.

use crate::driver::{HostThread, Op, RunMetrics, Step, ThreadDriver};
use hmc_cmc::ops::mutex::{LOCK_CMD, TRYLOCK_CMD, UNLOCK_CMD};
use hmc_cmc::ops::ticket::{TICKET_POLL_CMD, TICKET_RELEASE_CMD, TICKET_TAKE_CMD};
use hmc_sim::{HmcSim, TrackedResponse};
use hmc_types::{HmcError, HmcRqst};

/// How the trylock spin loop terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpinPolicy {
    /// Spin (with truncated exponential backoff) until this thread
    /// owns the lock — the literal Algorithm 1.
    UntilOwned {
        /// Initial backoff after a failed trylock, in cycles.
        initial_backoff: u64,
        /// Backoff cap in cycles.
        max_backoff: u64,
    },
    /// Exit the spin after the first trylock response (the bounded
    /// per-thread behaviour matching the paper's reported numbers).
    PaperBounded,
}

impl SpinPolicy {
    /// The literal-semantics default (16..256-cycle backoff).
    pub fn until_owned() -> Self {
        SpinPolicy::UntilOwned { initial_backoff: 16, max_backoff: 256 }
    }
}

/// Which device operations implement the mutex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutexMechanism {
    /// The paper's CMC operations (CMC125/126/127); requires
    /// `libhmc_mutex.so` loaded on the device.
    Cmc,
    /// A mutex built from the stock Gen2 `CASEQ8` atomic: acquire =
    /// `CASEQ8(swap=tid, cmp=0)`, release = `CASEQ8(swap=0, cmp=tid)`.
    /// The ablation baseline showing CMC ops ride the same packet
    /// economics as standard atomics.
    CasEq8,
    /// The fair CMC ticket lock (`libhmc_ticket.so`). A ticket holder
    /// must be served before it may finish, so this mechanism always
    /// spins until owned regardless of the configured [`SpinPolicy`].
    Ticket,
}

/// Configuration of one mutex-kernel run.
#[derive(Debug, Clone)]
pub struct MutexKernelConfig {
    /// Number of simulated threads (the paper sweeps 2..=100).
    pub threads: usize,
    /// Address of the 16-byte lock structure.
    pub lock_addr: u64,
    /// Spin policy.
    pub spin: SpinPolicy,
    /// Lock implementation.
    pub mechanism: MutexMechanism,
    /// Cycle budget.
    pub max_cycles: u64,
}

impl Default for MutexKernelConfig {
    fn default() -> Self {
        MutexKernelConfig {
            threads: 2,
            lock_addr: 0x4000,
            spin: SpinPolicy::PaperBounded,
            mechanism: MutexMechanism::Cmc,
            max_cycles: 2_000_000,
        }
    }
}

/// The request a thread has in flight, or sends next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Lock,
    Trylock,
    Unlock,
}

/// One thread of Algorithm 1.
struct MutexThread {
    tid: u64,
    link: usize,
    lock_addr: u64,
    spin: SpinPolicy,
    mechanism: MutexMechanism,
    state: State,
    backoff: u64,
    acquisitions: u32,
    my_ticket: Option<u64>,
}

impl MutexThread {
    /// The wire thread id: paper threads carry a nonzero TID so an
    /// owner id of zero always means "free".
    fn wire_tid(&self) -> u64 {
        self.tid + 1
    }

    /// The current state's request in the configured mechanism.
    fn op(&self) -> Op {
        let (addr, tid) = (self.lock_addr, self.wire_tid());
        match (self.mechanism, self.state) {
            (MutexMechanism::Cmc, State::Lock) => Op::cmc(LOCK_CMD, addr, [tid, 0]),
            (MutexMechanism::Cmc, State::Trylock) => Op::cmc(TRYLOCK_CMD, addr, [tid, 0]),
            (MutexMechanism::Cmc, State::Unlock) => Op::cmc(UNLOCK_CMD, addr, [tid, 0]),
            // Acquire: swap = tid, compare = 0. Release: swap = 0,
            // compare = tid.
            (MutexMechanism::CasEq8, State::Lock | State::Trylock) => {
                Op::new(HmcRqst::CasEq8, addr, [tid, 0])
            }
            (MutexMechanism::CasEq8, State::Unlock) => Op::new(HmcRqst::CasEq8, addr, [0, tid]),
            (MutexMechanism::Ticket, State::Lock) => Op::cmc(TICKET_TAKE_CMD, addr, []),
            (MutexMechanism::Ticket, State::Trylock) => {
                let ticket = self.my_ticket.expect("ticket drawn before polling");
                Op::cmc(TICKET_POLL_CMD, addr, [ticket, 0])
            }
            (MutexMechanism::Ticket, State::Unlock) => Op::cmc(TICKET_RELEASE_CMD, addr, []),
        }
    }
}

impl HostThread for MutexThread {
    fn link(&self) -> usize {
        self.link
    }

    fn step(&mut self, rsp: Option<TrackedResponse>, cycle: u64) -> Step {
        // A response is answered with the next request in the same
        // step, so a lock+unlock pair completes in exactly two round
        // trips (the paper's 6-cycle minimum).
        let Some(rsp) = rsp.map(|r| r.rsp) else {
            // The run's start, or the end of a backoff.
            return Step::Send(self.op());
        };
        if rsp.not_executed() {
            // The vault rejected the request: no side effects (no lock
            // taken, no ticket drawn), so re-issuing it verbatim is
            // safe — and a dropped release would leave the lock held
            // forever.
            return Step::Send(self.op());
        }
        let acquired = match (self.state, self.mechanism) {
            (State::Unlock, _) => return Step::Done,
            (State::Lock, MutexMechanism::Cmc) => rsp.payload.first().copied().unwrap_or(0) == 1,
            (State::Trylock, MutexMechanism::Cmc) => {
                rsp.payload.first().copied().unwrap_or(0) == self.wire_tid()
            }
            (State::Lock, MutexMechanism::Ticket) => {
                // The take executed, so the ticket MUST be kept even if
                // the response is poisoned — abandoning a drawn ticket
                // deadlocks every later one. (The simulator delivers
                // DINV-flagged payloads intact.)
                self.my_ticket = Some(rsp.payload.first().copied().unwrap_or(0));
                rsp.head.af
            }
            (_, MutexMechanism::CasEq8 | MutexMechanism::Ticket) => rsp.head.af,
        };
        if acquired {
            self.acquisitions += 1;
            self.state = State::Unlock;
        } else if self.state == State::Lock {
            self.state = State::Trylock;
        } else {
            // A drawn ticket must be served (skipping would deadlock
            // every later ticket), so the ticket mechanism always keeps
            // spinning.
            let spin = if self.mechanism == MutexMechanism::Ticket {
                SpinPolicy::until_owned()
            } else {
                self.spin
            };
            match spin {
                SpinPolicy::PaperBounded => self.state = State::Unlock,
                SpinPolicy::UntilOwned { initial_backoff, max_backoff } => {
                    let wait = self.backoff.max(initial_backoff);
                    self.backoff = (wait * 2).min(max_backoff);
                    return Step::Sleep(cycle + wait);
                }
            }
        }
        Step::Send(self.op())
    }
}

/// Outcome of one mutex-kernel run.
#[derive(Debug, Clone, PartialEq)]
pub struct MutexKernelResult {
    /// Driver metrics (MIN/MAX/AVG cycle data).
    pub metrics: RunMetrics,
    /// Total lock acquisitions observed across threads.
    pub acquisitions: u32,
    /// Final lock word (must be zero: released).
    pub final_lock_word: u64,
}

/// The mutex kernel runner.
#[derive(Debug, Clone)]
pub struct MutexKernel {
    /// Kernel configuration.
    pub config: MutexKernelConfig,
}

impl MutexKernel {
    /// Creates a runner.
    pub fn new(config: MutexKernelConfig) -> Self {
        MutexKernel { config }
    }

    /// Runs Algorithm 1 on the given simulation context. The CMC
    /// mutex library must already be loaded on device 0.
    pub fn run(&self, sim: &mut HmcSim) -> Result<MutexKernelResult, HmcError> {
        let driver =
            ThreadDriver { dev: 0, max_cycles: self.config.max_cycles, resilience: None };
        self.run_with_driver(sim, &driver)
    }

    /// Runs Algorithm 1 with a caller-supplied driver — e.g. one with
    /// a resilience policy for fault-injection runs. The driver's
    /// `max_cycles` takes precedence over the kernel config's.
    pub fn run_with_driver(
        &self,
        sim: &mut HmcSim,
        driver: &ThreadDriver,
    ) -> Result<MutexKernelResult, HmcError> {
        let links = sim.device_config(0)?.links;
        // Fail fast when the needed CMC library is not loaded rather
        // than flooding the device with inactive-command errors.
        let needed: &[u8] = match self.config.mechanism {
            MutexMechanism::Cmc => &[LOCK_CMD, TRYLOCK_CMD, UNLOCK_CMD],
            MutexMechanism::Ticket => &[TICKET_TAKE_CMD, TICKET_POLL_CMD, TICKET_RELEASE_CMD],
            MutexMechanism::CasEq8 => &[],
        };
        let active: Vec<u8> = sim.cmc_registrations(0)?.iter().map(|r| r.cmd).collect();
        for &code in needed {
            if !active.contains(&code) {
                return Err(HmcError::CmcNotActive(code));
            }
        }
        // The lock structure starts in the known-free state (§V-A
        // "Initial State").
        sim.mem_write_u64(0, self.config.lock_addr, 0)?;
        sim.mem_write_u64(0, self.config.lock_addr + 8, 0)?;

        let mut threads: Vec<MutexThread> = (0..self.config.threads)
            .map(|tid| MutexThread {
                tid: tid as u64,
                link: tid % links,
                lock_addr: self.config.lock_addr,
                spin: self.config.spin,
                mechanism: self.config.mechanism,
                state: State::Lock,
                backoff: 0,
                acquisitions: 0,
                my_ticket: None,
            })
            .collect();
        let metrics = driver.run(sim, &mut threads);
        Ok(MutexKernelResult {
            metrics,
            acquisitions: threads.iter().map(|t| t.acquisitions).sum(),
            final_lock_word: sim.mem_read_u64(0, self.config.lock_addr)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::DeviceConfig;

    fn sim_with_mutex(config: DeviceConfig) -> HmcSim {
        hmc_cmc::ops::register_builtin_libraries();
        let mut sim = HmcSim::new(config).unwrap();
        sim.load_cmc_library(0, hmc_cmc::ops::MUTEX_LIBRARY).unwrap();
        sim
    }

    /// Regression for two fuzz-farm finds: a vault-errored (empty
    /// payload) response used to panic the ticket take, and an errored
    /// unlock was silently treated as delivered, leaving the lock held
    /// forever. Faulted requests must be retried until they land.
    #[test]
    fn all_mechanisms_survive_injected_vault_errors() {
        for mechanism in [MutexMechanism::Cmc, MutexMechanism::Ticket, MutexMechanism::CasEq8] {
            let mut config = DeviceConfig::gen2_4link_4gb();
            config.fault =
                hmc_sim::FaultPlan::seeded(31).with_vault_errors(100_000).with_poison(50_000);
            hmc_cmc::ops::register_builtin_libraries();
            let mut sim = HmcSim::new(config).unwrap();
            let library = match mechanism {
                MutexMechanism::Ticket => hmc_cmc::ops::TICKET_LIBRARY,
                _ => hmc_cmc::ops::MUTEX_LIBRARY,
            };
            sim.load_cmc_library(0, library).unwrap();
            let kernel = MutexKernel::new(MutexKernelConfig {
                threads: 5,
                mechanism,
                spin: SpinPolicy::until_owned(),
                max_cycles: 500_000,
                ..Default::default()
            });
            let result = kernel.run(&mut sim).unwrap();
            assert_eq!(result.metrics.unfinished, 0, "{mechanism:?} wedged under faults");
            assert_eq!(result.acquisitions, 5, "{mechanism:?} lost acquisitions");
            // Cmc/CasEq8 store the owner id (0 = free); Ticket stores
            // the next-ticket counter, which ends at one per thread.
            let expected_word = if mechanism == MutexMechanism::Ticket { 5 } else { 0 };
            assert_eq!(result.final_lock_word, expected_word, "{mechanism:?} lock word");
        }
    }

    #[test]
    fn two_threads_min_is_six_cycles() {
        let mut sim = sim_with_mutex(DeviceConfig::gen2_4link_4gb());
        let kernel = MutexKernel::new(MutexKernelConfig {
            threads: 2,
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        assert_eq!(result.metrics.unfinished, 0);
        // Paper Table VI: minimum cycle count is 6 (lock RT + unlock RT).
        assert_eq!(result.metrics.min_cycle(), 6);
        assert_eq!(result.final_lock_word, 0, "lock released at end");
        assert!(result.acquisitions >= 1);
    }

    #[test]
    fn until_owned_gives_every_thread_the_lock_once() {
        let mut sim = sim_with_mutex(DeviceConfig::gen2_4link_4gb());
        let kernel = MutexKernel::new(MutexKernelConfig {
            threads: 10,
            spin: SpinPolicy::until_owned(),
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        assert_eq!(result.metrics.unfinished, 0);
        assert_eq!(result.acquisitions, 10, "each thread acquired exactly once");
        assert_eq!(result.final_lock_word, 0);
    }

    #[test]
    fn paper_bounded_mode_is_linear_in_threads() {
        let mut sim = sim_with_mutex(DeviceConfig::gen2_4link_4gb());
        let kernel = MutexKernel::new(MutexKernelConfig {
            threads: 50,
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        assert_eq!(result.metrics.unfinished, 0);
        let max = result.metrics.max_cycle();
        assert!(max < 50 * 12, "bounded mode stays roughly linear, got {max}");
        assert!(result.metrics.min_cycle() >= 6);
    }

    #[test]
    fn four_and_eight_link_agree_at_low_thread_counts() {
        // Paper §V-C: identical cycle counts for 2..=50 threads.
        let run = |cfg: DeviceConfig| {
            let mut sim = sim_with_mutex(cfg);
            MutexKernel::new(MutexKernelConfig { threads: 8, ..Default::default() })
                .run(&mut sim)
                .unwrap()
        };
        let four = run(DeviceConfig::gen2_4link_4gb());
        let eight = run(DeviceConfig::gen2_8link_8gb());
        assert_eq!(four.metrics.min_cycle(), eight.metrics.min_cycle());
    }

    #[test]
    fn cas_mechanism_needs_no_cmc_library() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let kernel = MutexKernel::new(MutexKernelConfig {
            threads: 10,
            spin: SpinPolicy::until_owned(),
            mechanism: MutexMechanism::CasEq8,
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        assert_eq!(result.metrics.unfinished, 0);
        assert_eq!(result.acquisitions, 10);
        assert_eq!(result.final_lock_word, 0);
        // With two uncontended threads the CAS lock+unlock pair is
        // also exactly two round trips.
        let mut sim2 = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let two = MutexKernel::new(MutexKernelConfig {
            threads: 2,
            mechanism: MutexMechanism::CasEq8,
            ..Default::default()
        })
        .run(&mut sim2)
        .unwrap();
        assert_eq!(two.metrics.min_cycle(), 6);
    }

    #[test]
    fn cmc_and_cas_mechanisms_cost_the_same_cycles() {
        // The ablation claim: CMC mutex ops ride the same packet
        // economics as the stock CASEQ8 atomic (2-FLIT rqst, 2-FLIT
        // rsp, one vault operation).
        let mut cmc_sim = sim_with_mutex(DeviceConfig::gen2_4link_4gb());
        let cmc = MutexKernel::new(MutexKernelConfig { threads: 16, ..Default::default() })
            .run(&mut cmc_sim)
            .unwrap();
        let mut cas_sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let cas = MutexKernel::new(MutexKernelConfig {
            threads: 16,
            mechanism: MutexMechanism::CasEq8,
            ..Default::default()
        })
        .run(&mut cas_sim)
        .unwrap();
        assert_eq!(cmc.metrics.min_cycle(), cas.metrics.min_cycle());
        assert_eq!(cmc.metrics.max_cycle(), cas.metrics.max_cycle());
    }

    #[test]
    fn until_owned_is_identical_with_idle_skip() {
        // The driver's jump over sleeping and waiting threads plus the
        // simulator's event-horizon engine must not perturb the
        // workload: same completion cycles, same acquisitions, same
        // device state.
        use hmc_sim::SkipMode;
        let run = |mode: SkipMode| {
            let mut sim = sim_with_mutex(DeviceConfig::gen2_4link_4gb());
            sim.set_skip_mode(mode);
            let result = MutexKernel::new(MutexKernelConfig {
                threads: 32,
                spin: SpinPolicy::until_owned(),
                ..Default::default()
            })
            .run(&mut sim)
            .unwrap();
            (result, sim.state_fingerprint())
        };
        let (off, fp_off) = run(SkipMode::Off);
        let (on, fp_on) = run(SkipMode::On);
        assert_eq!(off.metrics.per_thread_cycles, on.metrics.per_thread_cycles);
        assert_eq!(off.metrics.total_cycles, on.metrics.total_cycles);
        assert_eq!(off.acquisitions, on.acquisitions);
        assert_eq!(fp_off, fp_on, "skip-mode runs end in identical device state");
    }

    #[test]
    fn ticket_mechanism_is_fair_and_live() {
        hmc_cmc::ops::register_builtin_libraries();
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        sim.load_cmc_library(0, hmc_cmc::ops::TICKET_LIBRARY).unwrap();
        let threads = 12;
        let result = MutexKernel::new(MutexKernelConfig {
            threads,
            mechanism: MutexMechanism::Ticket,
            ..Default::default()
        })
        .run(&mut sim)
        .unwrap();
        assert_eq!(result.metrics.unfinished, 0);
        assert_eq!(result.acquisitions, threads as u32, "every ticket served");
        // next_ticket == now_serving == threads: the lock is clean.
        assert_eq!(sim.mem_read_u64(0, 0x4000).unwrap(), threads as u64);
        assert_eq!(sim.mem_read_u64(0, 0x4008).unwrap(), threads as u64);
    }

    #[test]
    fn ticket_mechanism_requires_its_library() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let kernel = MutexKernel::new(MutexKernelConfig {
            threads: 2,
            mechanism: MutexMechanism::Ticket,
            ..Default::default()
        });
        assert!(matches!(kernel.run(&mut sim), Err(HmcError::CmcNotActive(_))));
    }

    #[test]
    fn kernel_requires_loaded_cmc_library() {
        // Without loading the library the device returns error
        // responses; the kernel still terminates (threads observe
        // responses) but acquires nothing.
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let kernel = MutexKernel::new(MutexKernelConfig { threads: 2, ..Default::default() });
        // send_cmc fails to resolve the registration up front.
        assert!(kernel.run(&mut sim).is_err());
    }
}
