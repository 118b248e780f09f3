//! Histogram binning — the posted-atomic showcase.
//!
//! N keys hash into B 8-byte bins resident in the cube. Three
//! mechanisms, in decreasing link cost:
//!
//! * [`HistogramMode::ReadModifyWrite`] — RD16 + host add + WR16
//!   (6 FLITs, two round trips, lossy under concurrency);
//! * [`HistogramMode::AckedInc`] — `INC8` (2 FLITs, one round trip,
//!   exact);
//! * [`HistogramMode::PostedInc`] — `P_INC8` (1 FLIT, **no response
//!   at all**, exact) — the extreme of the paper's §III bandwidth
//!   argument.

use crate::window::{Sent, Window};
use hmc_sim::HmcSim;
use hmc_types::{HmcError, HmcRqst};
use std::collections::VecDeque;

/// The increment mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramMode {
    /// RD16 + host add + WR16.
    ReadModifyWrite,
    /// `INC8` with a write acknowledgement.
    AckedInc,
    /// `P_INC8`, fire-and-forget.
    PostedInc,
}

/// Configuration of a histogram run.
#[derive(Debug, Clone)]
pub struct HistogramConfig {
    /// Number of bins (power of two).
    pub bins: usize,
    /// Number of keys to bin.
    pub keys: usize,
    /// Outstanding-update window (posted mode is limited by link
    /// acceptance only).
    pub window: usize,
    /// Increment mechanism.
    pub mode: HistogramMode,
    /// Bin-array base address (16-byte aligned; bins sit on 16-byte
    /// pitch so every bin is atomically addressable).
    pub base: u64,
    /// Key-stream seed.
    pub seed: u64,
    /// Cycle budget.
    pub max_cycles: u64,
}

impl Default for HistogramConfig {
    fn default() -> Self {
        HistogramConfig {
            bins: 256,
            keys: 2048,
            window: 64,
            mode: HistogramMode::PostedInc,
            base: 0x0C00_0000,
            seed: 0x5EED,
            max_cycles: 10_000_000,
        }
    }
}

/// Outcome of a histogram run.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramResult {
    /// Device cycles consumed (including the posted-traffic drain).
    pub cycles: u64,
    /// Link FLITs consumed.
    pub link_flits: u64,
    /// Bins whose final count disagrees with the host oracle.
    pub errors: usize,
    /// Total increments lost (oracle minus device, summed over bins).
    pub lost_updates: u64,
}

#[derive(Debug, Clone, Copy)]
enum Pending {
    Ack,
    Read { bin: usize },
    Write,
}

/// The histogram kernel runner.
#[derive(Debug, Clone)]
pub struct HistogramKernel {
    /// Kernel configuration.
    pub config: HistogramConfig,
}

impl HistogramKernel {
    /// Creates a runner.
    pub fn new(config: HistogramConfig) -> Self {
        HistogramKernel { config }
    }

    fn bin_addr(&self, bin: usize) -> u64 {
        self.config.base + (bin as u64) * 16
    }

    /// A splitmix64 key stream.
    fn keys(&self) -> impl Iterator<Item = u64> {
        let mut state = self.config.seed;
        std::iter::from_fn(move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            Some(z ^ (z >> 31))
        })
    }

    /// Runs the kernel on device 0 and verifies against a host oracle.
    pub fn run(&self, sim: &mut HmcSim) -> Result<HistogramResult, HmcError> {
        let cfg = &self.config;
        if !cfg.bins.is_power_of_two() {
            return Err(HmcError::InvalidRequestSize(cfg.bins));
        }
        let mask = (cfg.bins - 1) as u64;

        let mut oracle = vec![0u64; cfg.bins];
        for key in self.keys().take(cfg.keys) {
            oracle[(key & mask) as usize] += 1;
        }
        for bin in 0..cfg.bins {
            sim.mem_write_u64(0, self.bin_addr(bin), 0)?;
        }

        let mut window = Window::new(sim, 1)?;
        let flits_before = window.host_flits(sim)?;
        let start_cycle = sim.cycle();

        let mut stream = self.keys().take(cfg.keys);
        let mut write_queue: VecDeque<(usize, u64)> = VecDeque::new();
        let mut issued = 0usize;
        let mut completed = 0usize;
        let mut carry: Option<u64> = None;

        while completed < cfg.keys {
            if sim.cycle() - start_cycle > cfg.max_cycles {
                break;
            }
            while let Some((pending, rsp)) = window.recv(sim, 0) {
                match pending {
                    Pending::Ack | Pending::Write => completed += 1,
                    Pending::Read { bin } => write_queue.push_back((bin, rsp.rsp.payload[0] + 1)),
                }
            }

            while let Some(&(bin, value)) = write_queue.front() {
                let addr = self.bin_addr(bin);
                let sent = window.send(sim, 0, Pending::Write, |sim, link| {
                    sim.send_simple(0, link, HmcRqst::Wr16, addr, [value, 0])
                })?;
                if sent == Sent::Full {
                    break;
                }
                write_queue.pop_front();
            }

            while window.in_flight(0) + write_queue.len() < cfg.window && issued < cfg.keys {
                let key = carry.take().unwrap_or_else(|| stream.next().expect("sized"));
                let bin = (key & mask) as usize;
                let addr = self.bin_addr(bin);
                let (cmd, pending) = match cfg.mode {
                    HistogramMode::PostedInc => (HmcRqst::PInc8, Pending::Ack),
                    HistogramMode::AckedInc => (HmcRqst::Inc8, Pending::Ack),
                    HistogramMode::ReadModifyWrite => (HmcRqst::Rd16, Pending::Read { bin }),
                };
                let send = |sim: &mut HmcSim, link| sim.send_simple(0, link, cmd, addr, []);
                match window.send(sim, 0, pending, send)? {
                    Sent::Tracked => issued += 1,
                    // Posted: done at issue (no response).
                    Sent::Posted => {
                        issued += 1;
                        completed += 1;
                    }
                    Sent::Full => {
                        carry = Some(key);
                        break;
                    }
                }
            }

            sim.clock();
        }
        // Posted traffic may still be in flight.
        sim.drain(1_000_000);

        let mut errors = 0usize;
        let mut lost = 0u64;
        for (bin, &want) in oracle.iter().enumerate() {
            let got = sim.mem_read_u64(0, self.bin_addr(bin))?;
            if got != want {
                errors += 1;
                lost += want.saturating_sub(got);
            }
        }

        Ok(HistogramResult {
            cycles: sim.cycle() - start_cycle,
            link_flits: window.host_flits(sim)? - flits_before,
            errors,
            lost_updates: lost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::DeviceConfig;

    fn run(mode: HistogramMode) -> HistogramResult {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        HistogramKernel::new(HistogramConfig {
            bins: 64,
            keys: 512,
            mode,
            ..Default::default()
        })
        .run(&mut sim)
        .unwrap()
    }

    #[test]
    fn posted_increments_are_exact() {
        let r = run(HistogramMode::PostedInc);
        assert_eq!(r.errors, 0, "P_INC8 is atomic in the vault");
        assert_eq!(r.lost_updates, 0);
    }

    #[test]
    fn acked_increments_are_exact() {
        let r = run(HistogramMode::AckedInc);
        assert_eq!(r.errors, 0);
    }

    #[test]
    fn rmw_loses_updates_under_overlap() {
        let r = run(HistogramMode::ReadModifyWrite);
        assert!(r.lost_updates > 0, "overlapping RMW on hot bins loses updates");
    }

    #[test]
    fn flit_cost_ordering() {
        let posted = run(HistogramMode::PostedInc);
        let acked = run(HistogramMode::AckedInc);
        let rmw = run(HistogramMode::ReadModifyWrite);
        // P_INC8 = 1 FLIT, INC8 = 2 FLITs, RMW = 6 FLITs per key.
        assert_eq!(posted.link_flits, 512);
        assert_eq!(acked.link_flits, 2 * 512);
        assert_eq!(rmw.link_flits, 6 * 512);
        assert!(posted.cycles <= acked.cycles);
    }

    #[test]
    fn bins_must_be_power_of_two() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let kernel = HistogramKernel::new(HistogramConfig { bins: 100, ..Default::default() });
        assert!(kernel.run(&mut sim).is_err());
    }
}
