//! # hmc-types
//!
//! Foundational types for the hmcsim-rs Hybrid Memory Cube (HMC) Gen2
//! simulator: FLIT geometry, the complete Gen2 request/response command
//! set (including the 70 Custom Memory Cube command slots), packet
//! head/tail encode/decode, CRC-32K link protection, tag allocation and
//! the common error type.
//!
//! The bit layouts follow the HMC 2.0/2.1 specification shape used by
//! HMC-Sim 2.0: 128-bit FLITs, a 64-bit request header carrying
//! `CMD[6:0] | LNG[11:7] | TAG[22:12] | ADRS[57:24] | CUB[63:61]` and a
//! 64-bit tail carrying retry pointers, sequence numbers, the source
//! link identifier and a CRC-32K over the packet body.
//!
//! ```
//! use hmc_types::{HmcRqst, ReqHead, Cub, Tag};
//!
//! let head = ReqHead::new(HmcRqst::Inc8, Tag::new(7).unwrap(), 0x4000, Cub::new(0).unwrap());
//! let raw = head.encode();
//! assert_eq!(ReqHead::decode(raw).unwrap(), head);
//! assert_eq!(head.cmd, HmcRqst::Inc8);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cmd;
pub mod crc;
pub mod error;
pub mod flit;
pub mod fnv;
pub mod packet;
pub mod payload;
pub mod rsp;
pub mod tag;

pub use cmd::{CmdInfo, CmdKind, HmcRqst, CMC_CODE_COUNT};
pub use crc::crc32k;
pub use error::HmcError;
pub use fnv::Fnv;
pub use flit::{Flit, FLIT_BITS, FLIT_BYTES, FLIT_WORDS, MAX_PACKET_FLITS};
pub use packet::{Cub, ReqHead, ReqTail, Request, Response, RspHead, RspTail, Slid};
pub use payload::{PayloadBuf, PayloadSource, PAYLOAD_INLINE_WORDS};
pub use rsp::HmcResponse;
pub use tag::{Tag, TagPool, TagSet, TAG_BITS, TAG_SPACE};

/// Result alias used across all hmcsim-rs crates.
pub type Result<T> = std::result::Result<T, HmcError>;
