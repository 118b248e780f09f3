//! # hmc-workloads
//!
//! Host-side workload drivers for hmcsim-rs: deterministic simulated
//! threads that issue HMC packets over the device links, plus the
//! kernels evaluated in the HMC-Sim papers — the CMC mutex kernel
//! (Algorithm 1), STREAM Triad, HPCC RandomAccess (GUPS) and a
//! BFS check-and-update kernel using Gen2 CAS offload; GUPS and BFS
//! also span multi-cube fabrics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod kernels;
pub mod runtime;
pub mod scenario;
pub mod tracefile;
mod window;

pub use driver::{ResilienceConfig, RunMetrics, ThreadDriver, ThreadFaultStats};
pub use kernels::barrier::{BarrierKernel, BarrierKernelConfig, BarrierKernelResult};
pub use kernels::mutex::{MutexKernel, MutexKernelConfig, MutexMechanism, SpinPolicy};
pub use runtime::HostRuntime;
pub use scenario::KernelDescriptor;
