//! The host-side user API the paper assumes (§V-A, "User API"): a
//! synchronous veneer over the packet interface with
//! pthread-flavoured lock calls, standing in for the "user API and/or
//! compiler intrinsic" that would induce CMC operations from
//! high-level code.
//!
//! A [`HostRuntime`] represents one unit of parallelism (a thread id
//! pinned to a link); its methods issue the packet, clock the
//! simulation until the response arrives, and return the decoded
//! outcome — blocking semantics, like calling `pthread_mutex_lock`.
//!
//! ```
//! use hmc_sim::{DeviceConfig, HmcSim};
//! use hmc_workloads::runtime::HostRuntime;
//!
//! hmc_cmc::ops::register_builtin_libraries();
//! let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
//! sim.load_cmc_library(0, hmc_cmc::ops::MUTEX_LIBRARY).unwrap();
//!
//! let rt = HostRuntime::new(0, 0, 1);
//! rt.mutex_init(&mut sim, 0x4000).unwrap();
//! rt.mutex_lock(&mut sim, 0x4000).unwrap();   // blocking, like pthread_mutex_lock
//! assert!(rt.mutex_unlock(&mut sim, 0x4000).unwrap());
//! ```

use crate::driver::Op;
use hmc_cmc::ops::mutex::{LOCK_CMD, TRYLOCK_CMD, UNLOCK_CMD};
use hmc_sim::{HmcSim, TrackedResponse};
use hmc_types::{HmcError, HmcRqst};

/// One host unit of parallelism: a thread/task id pinned to a device
/// link.
#[derive(Debug, Clone, Copy)]
pub struct HostRuntime {
    /// Target device.
    pub dev: usize,
    /// The link this unit issues on.
    pub link: usize,
    /// The (nonzero) thread/task id carried in CMC lock payloads.
    pub tid: u64,
}

/// Cycles after which a blocking runtime call gives up.
const BLOCK_BUDGET: u64 = 1_000_000;

impl HostRuntime {
    /// Creates a runtime handle. `tid` must be nonzero (a zero owner
    /// id means "free" in the lock structure).
    pub fn new(dev: usize, link: usize, tid: u64) -> Self {
        assert!(tid != 0, "thread id 0 is reserved for the free state");
        HostRuntime { dev, link, tid }
    }

    /// Issues one request synchronously, retrying on stall, and
    /// clocks until its response arrives.
    fn call(&self, sim: &mut HmcSim, op: Op) -> Result<TrackedResponse, HmcError> {
        let tag = loop {
            match op.send(sim, self.dev, self.link) {
                Ok(Some(tag)) => break tag,
                Ok(None) => {
                    return Err(HmcError::MalformedPacket(
                        "synchronous call on a posted command".into(),
                    ))
                }
                Err(HmcError::Stall) | Err(HmcError::TagsExhausted) => {
                    sim.clock();
                }
                Err(e) => return Err(e),
            }
        };
        sim.run_until_response(self.dev, self.link, tag, BLOCK_BUDGET)
    }

    // ------------------------------------------------------------------
    // plain memory
    // ------------------------------------------------------------------

    /// Reads the 8-byte word at `addr` (16-byte aligned block fetch).
    pub fn read_u64(&self, sim: &mut HmcSim, addr: u64) -> Result<u64, HmcError> {
        let block = addr & !15;
        let rsp = self.call(sim, Op::new(HmcRqst::Rd16, block, []))?;
        Ok(rsp.rsp.payload[((addr & 15) / 8) as usize])
    }

    /// Writes a 16-byte block `[lo, hi]` at a 16-byte aligned `addr`.
    pub fn write_block(&self, sim: &mut HmcSim, addr: u64, lo: u64, hi: u64) -> Result<(), HmcError> {
        if !addr.is_multiple_of(16) {
            return Err(HmcError::UnalignedAddress { addr, align: 16 });
        }
        self.call(sim, Op::new(HmcRqst::Wr16, addr, [lo, hi])).map(|_| ())
    }

    /// Atomically increments the 8-byte counter at `addr`.
    pub fn fetch_inc(&self, sim: &mut HmcSim, addr: u64) -> Result<(), HmcError> {
        self.call(sim, Op::new(HmcRqst::Inc8, addr, [])).map(|_| ())
    }

    // ------------------------------------------------------------------
    // the pthread-flavoured CMC mutex API (paper §V-A)
    // ------------------------------------------------------------------

    /// Initializes the 16-byte lock structure at `addr` to the known
    /// free state (§V-A "Initial State").
    pub fn mutex_init(&self, sim: &mut HmcSim, addr: u64) -> Result<(), HmcError> {
        self.write_block(sim, addr, 0, 0)
    }

    /// `pthread_mutex_trylock` analogue: one `hmc_trylock`; returns
    /// whether this unit now owns the lock.
    pub fn mutex_try_lock(&self, sim: &mut HmcSim, addr: u64) -> Result<bool, HmcError> {
        let rsp = self.call(sim, Op::cmc(TRYLOCK_CMD, addr, [self.tid, 0]))?;
        Ok(rsp.rsp.payload[0] == self.tid)
    }

    /// `pthread_mutex_lock` analogue: `hmc_lock`, then `hmc_trylock`
    /// with truncated exponential backoff until owned (Algorithm 1's
    /// spin, blocking the caller).
    pub fn mutex_lock(&self, sim: &mut HmcSim, addr: u64) -> Result<(), HmcError> {
        let rsp = self.call(sim, Op::cmc(LOCK_CMD, addr, [self.tid, 0]))?;
        if rsp.rsp.payload[0] == 1 {
            return Ok(());
        }
        let mut backoff = 4u64;
        let deadline = sim.cycle() + BLOCK_BUDGET;
        loop {
            if self.mutex_try_lock(sim, addr)? {
                return Ok(());
            }
            if sim.cycle() > deadline {
                return Err(HmcError::Stall);
            }
            sim.clock_n(backoff);
            backoff = (backoff * 2).min(256);
        }
    }

    /// `pthread_mutex_unlock` analogue: returns whether the unlock
    /// took effect (false when this unit does not own the lock).
    pub fn mutex_unlock(&self, sim: &mut HmcSim, addr: u64) -> Result<bool, HmcError> {
        let rsp = self.call(sim, Op::cmc(UNLOCK_CMD, addr, [self.tid, 0]))?;
        Ok(rsp.rsp.payload[0] == 1)
    }

    /// Runs `body` under the lock (the guard pattern).
    pub fn with_mutex<T>(
        &self,
        sim: &mut HmcSim,
        addr: u64,
        body: impl FnOnce(&mut HmcSim) -> Result<T, HmcError>,
    ) -> Result<T, HmcError> {
        self.mutex_lock(sim, addr)?;
        let result = body(sim);
        let released = self.mutex_unlock(sim, addr)?;
        debug_assert!(released, "guard held the lock");
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::DeviceConfig;

    fn sim() -> HmcSim {
        hmc_cmc::ops::register_builtin_libraries();
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        sim.load_cmc_library(0, hmc_cmc::ops::MUTEX_LIBRARY).unwrap();
        sim
    }

    #[test]
    fn lock_unlock_round_trip() {
        let mut sim = sim();
        let rt = HostRuntime::new(0, 0, 7);
        rt.mutex_init(&mut sim, 0x4000).unwrap();
        rt.mutex_lock(&mut sim, 0x4000).unwrap();
        assert_eq!(sim.mem_read_u64(0, 0x4000).unwrap(), 1);
        assert_eq!(sim.mem_read_u64(0, 0x4008).unwrap(), 7);
        assert!(rt.mutex_unlock(&mut sim, 0x4000).unwrap());
        assert_eq!(sim.mem_read_u64(0, 0x4000).unwrap(), 0);
    }

    #[test]
    fn try_lock_respects_a_holder() {
        let mut sim = sim();
        let a = HostRuntime::new(0, 0, 1);
        let b = HostRuntime::new(0, 1, 2);
        a.mutex_init(&mut sim, 0x4000).unwrap();
        assert!(a.mutex_try_lock(&mut sim, 0x4000).unwrap());
        assert!(!b.mutex_try_lock(&mut sim, 0x4000).unwrap(), "b cannot steal");
        assert!(!b.mutex_unlock(&mut sim, 0x4000).unwrap(), "b cannot unlock");
        assert!(a.mutex_unlock(&mut sim, 0x4000).unwrap());
        assert!(b.mutex_try_lock(&mut sim, 0x4000).unwrap(), "b acquires after release");
    }

    #[test]
    fn blocking_lock_waits_for_release() {
        // Sequential interleaving: a holds, b's lock() spins; since
        // our runtime is synchronous we emulate the schedule by hand:
        // b uses try_lock until a releases.
        let mut sim = sim();
        let a = HostRuntime::new(0, 0, 1);
        let b = HostRuntime::new(0, 1, 2);
        a.mutex_init(&mut sim, 0x4000).unwrap();
        a.mutex_lock(&mut sim, 0x4000).unwrap();
        assert!(!b.mutex_try_lock(&mut sim, 0x4000).unwrap());
        a.mutex_unlock(&mut sim, 0x4000).unwrap();
        b.mutex_lock(&mut sim, 0x4000).unwrap();
        assert_eq!(sim.mem_read_u64(0, 0x4008).unwrap(), 2);
    }

    #[test]
    fn guard_pattern_releases_on_success() {
        let mut sim = sim();
        let rt = HostRuntime::new(0, 0, 3);
        rt.mutex_init(&mut sim, 0x4000).unwrap();
        let value = rt
            .with_mutex(&mut sim, 0x4000, |sim| {
                sim.mem_write_u64(0, 0x5000, 99)?;
                Ok(123)
            })
            .unwrap();
        assert_eq!(value, 123);
        assert_eq!(sim.mem_read_u64(0, 0x4000).unwrap(), 0, "released");
        assert_eq!(sim.mem_read_u64(0, 0x5000).unwrap(), 99);
    }

    #[test]
    fn plain_memory_helpers() {
        let mut sim = sim();
        let rt = HostRuntime::new(0, 2, 5);
        rt.write_block(&mut sim, 0x6000, 0xAB, 0xCD).unwrap();
        assert_eq!(rt.read_u64(&mut sim, 0x6000).unwrap(), 0xAB);
        assert_eq!(rt.read_u64(&mut sim, 0x6008).unwrap(), 0xCD);
        rt.fetch_inc(&mut sim, 0x6000).unwrap();
        assert_eq!(rt.read_u64(&mut sim, 0x6000).unwrap(), 0xAC);
        assert!(rt.write_block(&mut sim, 0x6004, 0, 0).is_err(), "alignment");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn tid_zero_rejected() {
        let _ = HostRuntime::new(0, 0, 0);
    }
}
