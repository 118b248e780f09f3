//! STREAM Triad — the bandwidth kernel from the original HMC-Sim
//! evaluations (prior work \[4\]\[5\], McCalpin \[11\]).
//!
//! `a[i] = b[i] + scalar * c[i]` over three dense `f64` arrays
//! resident in the cube. The host streams the arrays in block-sized
//! chunks with a bounded window of outstanding requests, modelling a
//! core's memory-level parallelism; the stride-1 pattern interleaves
//! across all 32 vaults, so bandwidth scales with the device's
//! queueing capacity.

use crate::driver::ResilienceConfig;
use crate::window::{Sent, Window};
use hmc_sim::HmcSim;
use hmc_types::{HmcError, HmcRqst};
use std::collections::VecDeque;

/// Configuration of a Triad run.
#[derive(Debug, Clone)]
pub struct TriadConfig {
    /// Elements per array (each element is an `f64`).
    pub elements: usize,
    /// Bytes per memory request (16..=256, a Gen2 request size).
    pub chunk_bytes: usize,
    /// Maximum outstanding chunks (memory-level parallelism).
    pub window: usize,
    /// The Triad scalar.
    pub scalar: f64,
    /// Base address of `a`.
    pub a_base: u64,
    /// Base address of `b`.
    pub b_base: u64,
    /// Base address of `c`.
    pub c_base: u64,
    /// Use posted writes for the `a` stream.
    pub posted_writes: bool,
    /// Cycle budget.
    pub max_cycles: u64,
    /// Optional host-side timeout/retry policy for fault-injection
    /// runs: faulty responses (ERRSTAT/DINV) re-enqueue their chunk,
    /// overdue requests are abandoned and re-issued, and sends fall
    /// over when a link is down. Retries are bounded only by
    /// `max_cycles` (Triad requests are idempotent). `None` preserves
    /// the classic behavior exactly.
    pub resilience: Option<ResilienceConfig>,
}

impl Default for TriadConfig {
    fn default() -> Self {
        TriadConfig {
            elements: 4096,
            chunk_bytes: 64,
            window: 32,
            scalar: 3.0,
            a_base: 0x0100_0000,
            b_base: 0x0200_0000,
            c_base: 0x0300_0000,
            posted_writes: false,
            max_cycles: 10_000_000,
            resilience: None,
        }
    }
}

/// Outcome of a Triad run.
#[derive(Debug, Clone, PartialEq)]
pub struct TriadResult {
    /// Device cycles consumed.
    pub cycles: u64,
    /// Bytes of array data moved (3 arrays × elements × 8).
    pub data_bytes: u64,
    /// Link FLITs consumed.
    pub link_flits: u64,
    /// Achieved bandwidth in array bytes per cycle.
    pub bytes_per_cycle: f64,
    /// Elements whose result failed verification.
    pub errors: usize,
    /// Requests re-issued after a faulty (ERRSTAT/DINV) response.
    pub fault_retries: u64,
    /// Requests abandoned after `request_timeout` cycles in flight.
    pub timeouts: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamKind {
    B,
    C,
    AWrite,
}

#[derive(Debug, Default)]
struct ChunkState {
    b: Option<hmc_types::PayloadBuf>,
    c: Option<hmc_types::PayloadBuf>,
    write_issued: bool,
}

/// The STREAM Triad kernel runner.
#[derive(Debug, Clone)]
pub struct TriadKernel {
    /// Kernel configuration.
    pub config: TriadConfig,
}

impl TriadKernel {
    /// Creates a runner.
    pub fn new(config: TriadConfig) -> Self {
        TriadKernel { config }
    }

    /// Runs Triad on device 0, initializing `b` and `c` through the
    /// host backdoor and verifying `a` afterwards.
    pub fn run(&self, sim: &mut HmcSim) -> Result<TriadResult, HmcError> {
        let cfg = &self.config;
        if !cfg.chunk_bytes.is_multiple_of(8) || !(cfg.elements * 8).is_multiple_of(cfg.chunk_bytes) {
            return Err(HmcError::InvalidRequestSize(cfg.chunk_bytes));
        }
        let read_cmd = HmcRqst::read_for_bytes(cfg.chunk_bytes)?;
        let write_cmd = if cfg.posted_writes {
            HmcRqst::posted_write_for_bytes(cfg.chunk_bytes)?
        } else {
            HmcRqst::write_for_bytes(cfg.chunk_bytes)?
        };
        let mut window = Window::new(sim, 1)?;

        // Initialize source arrays.
        for i in 0..cfg.elements {
            let b = (i as f64) * 0.5;
            let c = (i as f64) * 0.25 + 1.0;
            sim.mem_write_u64(0, cfg.b_base + (i * 8) as u64, b.to_bits())?;
            sim.mem_write_u64(0, cfg.c_base + (i * 8) as u64, c.to_bits())?;
        }

        let flits_before = window.host_flits(sim)?;
        let start_cycle = sim.cycle();

        let chunks = cfg.elements * 8 / cfg.chunk_bytes;
        let mut states: Vec<ChunkState> = (0..chunks).map(|_| ChunkState::default()).collect();
        let mut read_queue: VecDeque<(usize, StreamKind)> = (0..chunks)
            .flat_map(|c| [(c, StreamKind::B), (c, StreamKind::C)])
            .collect();
        let mut done_chunks = 0usize;
        let mut fault_retries = 0u64;
        let mut timeouts = 0u64;

        // Puts a faulted or abandoned request's work back on the
        // queue; a failed write re-reads its operands (they were
        // dropped at issue), which is safe because Triad requests are
        // idempotent.
        fn requeue(
            states: &mut [ChunkState],
            read_queue: &mut VecDeque<(usize, StreamKind)>,
            (chunk, kind): (usize, StreamKind),
        ) {
            match kind {
                StreamKind::B | StreamKind::C => read_queue.push_back((chunk, kind)),
                StreamKind::AWrite => {
                    states[chunk].write_issued = false;
                    read_queue.push_back((chunk, StreamKind::B));
                    read_queue.push_back((chunk, StreamKind::C));
                }
            }
        }

        while done_chunks < chunks {
            if sim.cycle() - start_cycle > cfg.max_cycles {
                break;
            }
            while let Some(((chunk, kind), rsp)) = window.recv(sim, 0) {
                if cfg.resilience.is_some() && (rsp.rsp.not_executed() || rsp.rsp.poisoned()) {
                    fault_retries += 1;
                    requeue(&mut states, &mut read_queue, (chunk, kind));
                    continue;
                }
                match kind {
                    StreamKind::B => states[chunk].b = Some(rsp.rsp.payload),
                    StreamKind::C => states[chunk].c = Some(rsp.rsp.payload),
                    StreamKind::AWrite => done_chunks += 1,
                }
            }

            // Abandon requests that have been in flight too long (stuck
            // behind a downed link).
            if let Some(res) = cfg.resilience {
                for work in window.abandon_overdue(sim, res.request_timeout) {
                    timeouts += 1;
                    requeue(&mut states, &mut read_queue, work);
                }
            }

            // Issue writes for chunks whose operands arrived.
            #[allow(clippy::needless_range_loop)] // split borrows of states[chunk]
            for chunk in 0..chunks {
                let ready = states[chunk].b.is_some()
                    && states[chunk].c.is_some()
                    && !states[chunk].write_issued;
                if !ready {
                    continue;
                }
                let (b, c) = (
                    states[chunk].b.as_ref().expect("checked"),
                    states[chunk].c.as_ref().expect("checked"),
                );
                let a: Vec<u64> = b
                    .iter()
                    .zip(c)
                    .map(|(&b, &c)| {
                        (f64::from_bits(b) + cfg.scalar * f64::from_bits(c)).to_bits()
                    })
                    .collect();
                let addr = cfg.a_base + (chunk * cfg.chunk_bytes) as u64;
                let send = |sim: &mut HmcSim, link| sim.send_simple(0, link, write_cmd, addr, a);
                match window.send(sim, 0, (chunk, StreamKind::AWrite), send) {
                    Ok(Sent::Full) => break,
                    Ok(sent) => {
                        states[chunk].write_issued = true;
                        states[chunk].b = None;
                        states[chunk].c = None;
                        // A posted write completes without a response.
                        if sent == Sent::Posted {
                            done_chunks += 1;
                        }
                    }
                    Err(HmcError::LinkDown(_)) if cfg.resilience.is_some() => {
                        // Skip the downed link; this chunk stays ready
                        // and is retried on the next round-robin link.
                        window.skip_link(0);
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }

            // Issue new reads while the window has room.
            while window.in_flight(0) < cfg.window * 2 {
                let Some((chunk, kind)) = read_queue.pop_front() else { break };
                let base = match kind {
                    StreamKind::B => cfg.b_base,
                    StreamKind::C => cfg.c_base,
                    StreamKind::AWrite => unreachable!("read queue holds reads"),
                };
                let addr = base + (chunk * cfg.chunk_bytes) as u64;
                let send = |sim: &mut HmcSim, link| sim.send_simple(0, link, read_cmd, addr, []);
                match window.send(sim, 0, (chunk, kind), send) {
                    Ok(Sent::Full) => {
                        read_queue.push_front((chunk, kind));
                        break;
                    }
                    Ok(_) => {}
                    Err(HmcError::LinkDown(_)) if cfg.resilience.is_some() => {
                        // Skip the downed link; retry next cycle.
                        read_queue.push_front((chunk, kind));
                        window.skip_link(0);
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }

            sim.clock();
        }
        // Posted writes may still be in flight: retire them before
        // verifying.
        sim.drain(100_000);

        // Verify.
        let mut errors = 0usize;
        for i in 0..cfg.elements {
            let got = f64::from_bits(sim.mem_read_u64(0, cfg.a_base + (i * 8) as u64)?);
            let b = (i as f64) * 0.5;
            let c = (i as f64) * 0.25 + 1.0;
            let want = b + cfg.scalar * c;
            if (got - want).abs() > 1e-12 * want.abs().max(1.0) {
                errors += 1;
            }
        }

        let cycles = sim.cycle() - start_cycle;
        let data_bytes = (3 * cfg.elements * 8) as u64;
        Ok(TriadResult {
            cycles,
            data_bytes,
            link_flits: window.host_flits(sim)? - flits_before,
            bytes_per_cycle: data_bytes as f64 / cycles.max(1) as f64,
            errors,
            fault_retries,
            timeouts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::DeviceConfig;

    #[test]
    fn triad_computes_correctly() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let kernel = TriadKernel::new(TriadConfig {
            elements: 512,
            ..Default::default()
        });
        let result = kernel.run(&mut sim).unwrap();
        assert_eq!(result.errors, 0);
        assert!(result.cycles > 0);
        assert!(result.bytes_per_cycle > 0.0);
    }

    #[test]
    fn posted_writes_reduce_flits() {
        let run = |posted: bool| {
            let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
            TriadKernel::new(TriadConfig {
                elements: 512,
                posted_writes: posted,
                ..Default::default()
            })
            .run(&mut sim)
            .unwrap()
        };
        let acked = run(false);
        let posted = run(true);
        assert_eq!(posted.errors, 0);
        assert!(
            posted.link_flits < acked.link_flits,
            "posted writes save the write-ack FLITs"
        );
    }

    #[test]
    fn wider_window_is_not_slower() {
        let run = |window: usize| {
            let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
            TriadKernel::new(TriadConfig {
                elements: 1024,
                window,
                ..Default::default()
            })
            .run(&mut sim)
            .unwrap()
        };
        let narrow = run(1);
        let wide = run(64);
        assert_eq!(narrow.errors, 0);
        assert_eq!(wide.errors, 0);
        assert!(wide.cycles <= narrow.cycles, "MLP helps stride-1 streams");
    }

    #[test]
    fn bad_chunk_size_rejected() {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let kernel = TriadKernel::new(TriadConfig {
            chunk_bytes: 24,
            ..Default::default()
        });
        assert!(kernel.run(&mut sim).is_err());
    }
}
