//! The common error type for hmcsim-rs.

use std::fmt;

/// Errors surfaced by the simulator and its substrates.
///
/// Mirrors the negative return codes of the C HMC-Sim API
/// (`HMC_STALL`, `HMC_ERROR`, ...) as a structured enum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HmcError {
    /// A queue (link, crossbar or vault) was full; the caller must
    /// retry on a later cycle. Equivalent to C `HMC_STALL`.
    Stall,
    /// A command code outside the 7-bit space.
    InvalidCommandCode(u8),
    /// A response command code with no wire meaning.
    InvalidResponseCode(u8),
    /// A request size with no matching Gen2 command.
    InvalidRequestSize(usize),
    /// A packet length field outside 1..=17 FLITs.
    InvalidPacketLength(usize),
    /// A tag outside the tag space.
    InvalidTag(u32),
    /// The tag pool is exhausted (all tags in flight).
    TagsExhausted,
    /// A cube (device) id outside the configured topology.
    InvalidCube(u8),
    /// A link id outside the device configuration.
    InvalidLink(usize),
    /// A device id outside the simulation context.
    InvalidDevice(usize),
    /// An address beyond the device capacity.
    AddressOutOfRange(u64),
    /// An unaligned address for a command requiring alignment.
    UnalignedAddress {
        /// The offending address.
        addr: u64,
        /// The required alignment in bytes.
        align: u64,
    },
    /// CRC mismatch while decoding a packet.
    CrcMismatch {
        /// CRC carried in the packet tail.
        expected: u32,
        /// CRC recomputed over the packet.
        computed: u32,
    },
    /// A CMC command code that has no registered (active) operation.
    /// Equivalent to HMC-Sim's "command not marked active" error.
    CmcNotActive(u8),
    /// Attempt to register a CMC operation on a code already in use.
    CmcSlotBusy(u8),
    /// Attempt to register a CMC operation on a standard command code.
    CmcCodeReserved(u8),
    /// A CMC registration with inconsistent metadata (e.g. lengths
    /// out of range, enum/code mismatch).
    CmcBadRegistration(String),
    /// A simulated CMC shared library could not be found by name.
    CmcLibraryNotFound(String),
    /// A simulated CMC shared library is missing a required symbol.
    CmcSymbolMissing {
        /// Library name.
        library: String,
        /// Missing symbol name.
        symbol: String,
    },
    /// The simulation context was used before initialization or after
    /// shutdown.
    NotInitialized,
    /// A device register that does not exist.
    InvalidRegister(u32),
    /// The target link is down (fault-plan schedule); retry on a
    /// surviving link or after the scheduled link-up.
    LinkDown(usize),
    /// Malformed packet contents (payload/declared-length mismatch...).
    MalformedPacket(String),
    /// Trace subsystem I/O failure.
    TraceIo(String),
}

impl fmt::Display for HmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HmcError::Stall => write!(f, "queue full: request stalled (HMC_STALL)"),
            HmcError::InvalidCommandCode(c) => write!(f, "invalid 7-bit command code {c:#x}"),
            HmcError::InvalidResponseCode(c) => write!(f, "invalid response command code {c:#x}"),
            HmcError::InvalidRequestSize(s) => write!(f, "no Gen2 command for request size {s} bytes"),
            HmcError::InvalidPacketLength(l) => write!(f, "packet length {l} FLITs outside 1..=17"),
            HmcError::InvalidTag(t) => write!(f, "tag {t} outside tag space"),
            HmcError::TagsExhausted => write!(f, "tag pool exhausted: too many requests in flight"),
            HmcError::InvalidCube(c) => write!(f, "cube id {c} outside topology"),
            HmcError::InvalidLink(l) => write!(f, "link id {l} outside device configuration"),
            HmcError::InvalidDevice(d) => write!(f, "device id {d} outside simulation context"),
            HmcError::AddressOutOfRange(a) => write!(f, "address {a:#x} beyond device capacity"),
            HmcError::UnalignedAddress { addr, align } => {
                write!(f, "address {addr:#x} not aligned to {align} bytes")
            }
            HmcError::CrcMismatch { expected, computed } => {
                write!(f, "CRC mismatch: packet carries {expected:#010x}, computed {computed:#010x}")
            }
            HmcError::CmcNotActive(c) => write!(f, "CMC command code {c} not active (no operation loaded)"),
            HmcError::CmcSlotBusy(c) => write!(f, "CMC command code {c} already registered"),
            HmcError::CmcCodeReserved(c) => {
                write!(f, "command code {c} is reserved by the Gen2 specification")
            }
            HmcError::CmcBadRegistration(why) => write!(f, "invalid CMC registration: {why}"),
            HmcError::CmcLibraryNotFound(path) => {
                write!(f, "CMC library '{path}' not found (dlopen failed)")
            }
            HmcError::CmcSymbolMissing { library, symbol } => {
                write!(f, "CMC library '{library}' missing symbol '{symbol}' (dlsym failed)")
            }
            HmcError::NotInitialized => write!(f, "simulation context not initialized"),
            HmcError::InvalidRegister(r) => write!(f, "no device register at {r:#x}"),
            HmcError::LinkDown(l) => write!(f, "link {l} is down"),
            HmcError::MalformedPacket(why) => write!(f, "malformed packet: {why}"),
            HmcError::TraceIo(why) => write!(f, "trace I/O failure: {why}"),
        }
    }
}

impl std::error::Error for HmcError {}

impl HmcError {
    /// True when the error is a transient stall the caller should
    /// retry rather than a hard failure.
    #[inline]
    pub fn is_stall(&self) -> bool {
        matches!(self, HmcError::Stall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_is_transient() {
        assert!(HmcError::Stall.is_stall());
        assert!(!HmcError::TagsExhausted.is_stall());
    }

    #[test]
    fn display_is_informative() {
        let msg = HmcError::CmcSymbolMissing {
            library: "libhmc_mutex.so".into(),
            symbol: "hmcsim_execute_cmc".into(),
        }
        .to_string();
        assert!(msg.contains("libhmc_mutex.so"));
        assert!(msg.contains("hmcsim_execute_cmc"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(HmcError::Stall);
        assert!(e.to_string().contains("STALL"));
    }
}
