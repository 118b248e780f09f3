//! # hmc-mem
//!
//! The memory substrate for hmcsim-rs: a sparse byte-addressable
//! backing store sized to a cube's capacity ([`SparseMemory`]) and the
//! read-modify-write semantics of every Gen2 atomic memory operation
//! ([`amo`]), executed "in the logic layer" exactly as the vault
//! controllers of HMC-Sim do.
//!
//! ```
//! use hmc_mem::SparseMemory;
//! use hmc_types::HmcRqst;
//!
//! let mem = SparseMemory::new(4 << 30); // a 4 GiB cube
//! mem.write_u64(0x100, 41).unwrap();
//! let out = hmc_mem::amo::execute(HmcRqst::Inc8, &mem, 0x100, &[]).unwrap();
//! assert_eq!(mem.read_u64(0x100).unwrap(), 42);
//! assert!(out.payload.is_empty()); // INC8 acks with a bare WR_RS
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod amo;
pub mod store;

pub use amo::{execute, execute_into, AmoResult};
pub use store::SparseMemory;
