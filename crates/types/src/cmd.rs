//! The HMC Gen2 request command set.
//!
//! The Gen2 packet header carries a 7-bit command field, giving 128
//! command codes. The 2.0/2.1 specification assigns 58 of them to flow
//! control, read, write, posted write, mode and atomic commands; the
//! remaining **70 codes are unused** and are exactly the slots HMC-Sim
//! 2.0 exposes as Custom Memory Cube (CMC) operations (paper §IV-A).
//!
//! Every standard command carries static metadata ([`CmdInfo`]): its
//! command code, the request and response lengths in FLITs (paper
//! Table I) and its operational class. CMC commands have no static
//! metadata — their lengths are defined at registration time by the
//! loaded CMC library.

use crate::error::HmcError;

/// Number of distinct command codes (7-bit field).
pub const CMD_CODE_SPACE: usize = 128;

/// Number of command codes left unassigned by the Gen2 specification
/// and therefore available to CMC operations.
pub const CMC_CODE_COUNT: usize = 70;

/// Operational class of a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmdKind {
    /// Link flow-control packets (NULL, PRET, TRET, IRTRY).
    Flow,
    /// Memory read returning data.
    Read,
    /// Memory write returning a write acknowledgement.
    Write,
    /// Memory write with no response packet.
    PostedWrite,
    /// Mode (device register) read.
    ModeRead,
    /// Mode (device register) write.
    ModeWrite,
    /// Atomic read-modify-write executed in the logic layer.
    Atomic,
    /// Atomic read-modify-write with no response packet.
    PostedAtomic,
    /// Custom Memory Cube operation (user defined).
    Cmc,
}

impl CmdKind {
    /// True for posted classes (no response packet is generated).
    #[inline]
    pub fn is_posted(self) -> bool {
        matches!(self, CmdKind::PostedWrite | CmdKind::PostedAtomic)
    }
}

/// Static metadata for one standard Gen2 command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmdInfo {
    /// The 7-bit command code carried in the packet header.
    pub code: u8,
    /// Total request packet length in FLITs (header/tail included).
    pub rqst_flits: u8,
    /// Total response packet length in FLITs (0 for posted commands).
    pub rsp_flits: u8,
    /// Operational class.
    pub kind: CmdKind,
    /// Bytes of memory touched by the command (read or write size;
    /// 8 or 16 for atomics, 0 for flow commands).
    pub data_bytes: u16,
    /// Canonical mnemonic, as printed in trace files.
    pub name: &'static str,
}

macro_rules! hmc_commands {
    ($( $variant:ident { code: $code:expr, rqst: $rq:expr, rsp: $rs:expr,
         kind: $kind:ident, bytes: $bytes:expr, name: $name:expr } ),+ $(,)?) => {
        /// An HMC Gen2 request command.
        ///
        /// All 58 standard commands are explicit variants; the 70 free
        /// command codes are represented by [`HmcRqst::Cmc`] carrying
        /// the raw code, mirroring HMC-Sim's `CMCnn` enumeration.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum HmcRqst {
            $(#[doc = $name] $variant,)+
            /// A Custom Memory Cube command occupying one of the 70
            /// unused Gen2 command codes.
            Cmc(u8),
        }

        /// Static metadata by command code: `Some` at the 58 codes the
        /// specification assigns, `None` at the 70 it leaves to CMC
        /// operations — and in one more row past the code space, the
        /// row of every [`HmcRqst::Cmc`] whatever byte it carries. A
        /// `static`, so every inlined [`HmcRqst::fixed_info`] indexes
        /// the same 3 KiB.
        static CMD_INFO: [Option<CmdInfo>; CMD_CODE_SPACE + 1] = {
            let mut table = [None; CMD_CODE_SPACE + 1];
            $(table[$code] = Some(CmdInfo {
                code: $code,
                rqst_flits: $rq,
                rsp_flits: $rs,
                kind: CmdKind::$kind,
                data_bytes: $bytes,
                name: $name,
            });)+
            table
        };

        impl HmcRqst {
            /// Every standard (non-CMC) command.
            pub const STANDARD: &'static [HmcRqst] = &[ $(HmcRqst::$variant,)+ ];

            /// Static metadata for a standard command; `None` for CMC
            /// commands, whose lengths live in the CMC registry.
            #[inline]
            pub fn fixed_info(self) -> Option<CmdInfo> {
                // Every arm is a constant, so the match compiles to a
                // byte table, not to a jump: two loads and no branch
                // on the command.
                let row = match self {
                    $(HmcRqst::$variant => $code,)+
                    HmcRqst::Cmc(_) => CMD_CODE_SPACE,
                };
                CMD_INFO[row]
            }

            /// The 7-bit command code for this command.
            pub fn code(self) -> u8 {
                match self {
                    $(HmcRqst::$variant => $code,)+
                    HmcRqst::Cmc(code) => code,
                }
            }
        }
    };
}

hmc_commands! {
    // -------- flow control --------
    Null      { code: 0x00, rqst: 1, rsp: 0, kind: Flow, bytes: 0, name: "NULL" },
    Pret      { code: 0x01, rqst: 1, rsp: 0, kind: Flow, bytes: 0, name: "PRET" },
    Tret      { code: 0x02, rqst: 1, rsp: 0, kind: Flow, bytes: 0, name: "TRET" },
    Irtry     { code: 0x03, rqst: 1, rsp: 0, kind: Flow, bytes: 0, name: "IRTRY" },
    // -------- writes (ack'd) --------
    Wr16      { code: 0x08, rqst: 2,  rsp: 1, kind: Write, bytes: 16,  name: "WR16" },
    Wr32      { code: 0x09, rqst: 3,  rsp: 1, kind: Write, bytes: 32,  name: "WR32" },
    Wr48      { code: 0x0A, rqst: 4,  rsp: 1, kind: Write, bytes: 48,  name: "WR48" },
    Wr64      { code: 0x0B, rqst: 5,  rsp: 1, kind: Write, bytes: 64,  name: "WR64" },
    Wr80      { code: 0x0C, rqst: 6,  rsp: 1, kind: Write, bytes: 80,  name: "WR80" },
    Wr96      { code: 0x0D, rqst: 7,  rsp: 1, kind: Write, bytes: 96,  name: "WR96" },
    Wr112     { code: 0x0E, rqst: 8,  rsp: 1, kind: Write, bytes: 112, name: "WR112" },
    Wr128     { code: 0x0F, rqst: 9,  rsp: 1, kind: Write, bytes: 128, name: "WR128" },
    Wr256     { code: 0x4F, rqst: 17, rsp: 1, kind: Write, bytes: 256, name: "WR256" },
    // -------- mode & bit-write & add immediates (write-class atomics) --------
    MdWr      { code: 0x10, rqst: 2, rsp: 1, kind: ModeWrite, bytes: 4, name: "MD_WR" },
    Bwr       { code: 0x11, rqst: 2, rsp: 1, kind: Atomic, bytes: 8,  name: "BWR" },
    TwoAdd8   { code: 0x12, rqst: 2, rsp: 1, kind: Atomic, bytes: 16, name: "2ADD8" },
    Add16     { code: 0x13, rqst: 2, rsp: 1, kind: Atomic, bytes: 16, name: "ADD16" },
    // -------- posted writes --------
    PWr16     { code: 0x18, rqst: 2,  rsp: 0, kind: PostedWrite, bytes: 16,  name: "P_WR16" },
    PWr32     { code: 0x19, rqst: 3,  rsp: 0, kind: PostedWrite, bytes: 32,  name: "P_WR32" },
    PWr48     { code: 0x1A, rqst: 4,  rsp: 0, kind: PostedWrite, bytes: 48,  name: "P_WR48" },
    PWr64     { code: 0x1B, rqst: 5,  rsp: 0, kind: PostedWrite, bytes: 64,  name: "P_WR64" },
    PWr80     { code: 0x1C, rqst: 6,  rsp: 0, kind: PostedWrite, bytes: 80,  name: "P_WR80" },
    PWr96     { code: 0x1D, rqst: 7,  rsp: 0, kind: PostedWrite, bytes: 96,  name: "P_WR96" },
    PWr112    { code: 0x1E, rqst: 8,  rsp: 0, kind: PostedWrite, bytes: 112, name: "P_WR112" },
    PWr128    { code: 0x1F, rqst: 9,  rsp: 0, kind: PostedWrite, bytes: 128, name: "P_WR128" },
    PWr256    { code: 0x5F, rqst: 17, rsp: 0, kind: PostedWrite, bytes: 256, name: "P_WR256" },
    // -------- posted bit-write & posted add immediates --------
    PBwr      { code: 0x21, rqst: 2, rsp: 0, kind: PostedAtomic, bytes: 8,  name: "P_BWR" },
    P2Add8    { code: 0x22, rqst: 2, rsp: 0, kind: PostedAtomic, bytes: 16, name: "P_2ADD8" },
    PAdd16    { code: 0x23, rqst: 2, rsp: 0, kind: PostedAtomic, bytes: 16, name: "P_ADD16" },
    // -------- mode read --------
    MdRd      { code: 0x28, rqst: 1, rsp: 2, kind: ModeRead, bytes: 4, name: "MD_RD" },
    // -------- reads --------
    Rd16      { code: 0x30, rqst: 1, rsp: 2,  kind: Read, bytes: 16,  name: "RD16" },
    Rd32      { code: 0x31, rqst: 1, rsp: 3,  kind: Read, bytes: 32,  name: "RD32" },
    Rd48      { code: 0x32, rqst: 1, rsp: 4,  kind: Read, bytes: 48,  name: "RD48" },
    Rd64      { code: 0x33, rqst: 1, rsp: 5,  kind: Read, bytes: 64,  name: "RD64" },
    Rd80      { code: 0x34, rqst: 1, rsp: 6,  kind: Read, bytes: 80,  name: "RD80" },
    Rd96      { code: 0x35, rqst: 1, rsp: 7,  kind: Read, bytes: 96,  name: "RD96" },
    Rd112     { code: 0x36, rqst: 1, rsp: 8,  kind: Read, bytes: 112, name: "RD112" },
    Rd128     { code: 0x37, rqst: 1, rsp: 9,  kind: Read, bytes: 128, name: "RD128" },
    Rd256     { code: 0x77, rqst: 1, rsp: 17, kind: Read, bytes: 256, name: "RD256" },
    // -------- boolean atomics --------
    Xor16     { code: 0x40, rqst: 2, rsp: 2, kind: Atomic, bytes: 16, name: "XOR16" },
    Or16      { code: 0x41, rqst: 2, rsp: 2, kind: Atomic, bytes: 16, name: "OR16" },
    Nor16     { code: 0x42, rqst: 2, rsp: 2, kind: Atomic, bytes: 16, name: "NOR16" },
    And16     { code: 0x43, rqst: 2, rsp: 2, kind: Atomic, bytes: 16, name: "AND16" },
    Nand16    { code: 0x44, rqst: 2, rsp: 2, kind: Atomic, bytes: 16, name: "NAND16" },
    // -------- arithmetic atomics with return --------
    Inc8      { code: 0x50, rqst: 1, rsp: 1, kind: Atomic, bytes: 8,  name: "INC8" },
    Bwr8R     { code: 0x51, rqst: 2, rsp: 2, kind: Atomic, bytes: 8,  name: "BWR8R" },
    TwoAddS8R { code: 0x52, rqst: 2, rsp: 2, kind: Atomic, bytes: 16, name: "2ADDS8R" },
    AddS16R   { code: 0x53, rqst: 2, rsp: 2, kind: Atomic, bytes: 16, name: "ADDS16R" },
    PInc8     { code: 0x54, rqst: 1, rsp: 0, kind: PostedAtomic, bytes: 8, name: "P_INC8" },
    // -------- comparison atomics --------
    CasGt8    { code: 0x60, rqst: 2, rsp: 2, kind: Atomic, bytes: 8,  name: "CASGT8" },
    CasLt8    { code: 0x61, rqst: 2, rsp: 2, kind: Atomic, bytes: 8,  name: "CASLT8" },
    CasGt16   { code: 0x62, rqst: 2, rsp: 2, kind: Atomic, bytes: 16, name: "CASGT16" },
    CasLt16   { code: 0x63, rqst: 2, rsp: 2, kind: Atomic, bytes: 16, name: "CASLT16" },
    CasEq8    { code: 0x64, rqst: 2, rsp: 2, kind: Atomic, bytes: 8,  name: "CASEQ8" },
    CasZero16 { code: 0x65, rqst: 2, rsp: 2, kind: Atomic, bytes: 16, name: "CASZERO16" },
    Eq16      { code: 0x68, rqst: 2, rsp: 1, kind: Atomic, bytes: 16, name: "EQ16" },
    Eq8       { code: 0x69, rqst: 2, rsp: 1, kind: Atomic, bytes: 8,  name: "EQ8" },
    Swap16    { code: 0x6A, rqst: 2, rsp: 2, kind: Atomic, bytes: 16, name: "SWAP16" },
}

impl HmcRqst {
    /// Decodes a 7-bit command code into a command. Codes assigned by
    /// the Gen2 specification map to their standard variant; every
    /// unassigned code maps to [`HmcRqst::Cmc`].
    ///
    /// Returns an error if the code does not fit in 7 bits.
    pub fn from_code(code: u8) -> Result<Self, HmcError> {
        if code as usize >= CMD_CODE_SPACE {
            return Err(HmcError::InvalidCommandCode(code));
        }
        Ok(Self::decode_table()[code as usize])
    }

    /// The decode table indexed by command code.
    fn decode_table() -> &'static [HmcRqst; CMD_CODE_SPACE] {
        use std::sync::OnceLock;
        static TABLE: OnceLock<[HmcRqst; CMD_CODE_SPACE]> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut table = [HmcRqst::Cmc(0); CMD_CODE_SPACE];
            for (code, slot) in table.iter_mut().enumerate() {
                *slot = HmcRqst::Cmc(code as u8);
            }
            for &cmd in HmcRqst::STANDARD {
                table[cmd.code() as usize] = cmd;
            }
            table
        })
    }

    /// The operational class of this command (CMC commands report
    /// [`CmdKind::Cmc`]).
    pub fn kind(self) -> CmdKind {
        self.fixed_info().map_or(CmdKind::Cmc, |i| i.kind)
    }

    /// True if this is a CMC (user-defined) command.
    #[inline]
    pub fn is_cmc(self) -> bool {
        matches!(self, HmcRqst::Cmc(_))
    }

    /// True if the command never generates a response packet.
    ///
    /// For CMC commands postedness is registry-defined, so this returns
    /// `false`; the simulator consults the CMC registry instead.
    pub fn is_posted(self) -> bool {
        self.fixed_info().is_some_and(|i| i.kind.is_posted())
    }

    /// Canonical mnemonic. CMC commands render as `CMCnn` with the
    /// decimal command code, matching HMC-Sim's enumeration.
    pub fn mnemonic(self) -> String {
        match self.fixed_info() {
            Some(info) => info.name.to_string(),
            None => format!("CMC{}", self.code()),
        }
    }

    /// Iterator over the 70 command codes available to CMC operations,
    /// in ascending order.
    pub fn cmc_codes() -> impl Iterator<Item = u8> {
        (0..CMD_CODE_SPACE as u8)
            .filter(|&c| matches!(Self::decode_table()[c as usize], HmcRqst::Cmc(_)))
    }

    /// Selects the read command for a given transfer size in bytes.
    ///
    /// Sizes must be a multiple of 16 between 16 and 256 with a single
    /// command mapping (16..=128 in steps of 16, or 256).
    pub fn read_for_bytes(bytes: usize) -> Result<Self, HmcError> {
        Ok(match bytes {
            16 => HmcRqst::Rd16,
            32 => HmcRqst::Rd32,
            48 => HmcRqst::Rd48,
            64 => HmcRqst::Rd64,
            80 => HmcRqst::Rd80,
            96 => HmcRqst::Rd96,
            112 => HmcRqst::Rd112,
            128 => HmcRqst::Rd128,
            256 => HmcRqst::Rd256,
            _ => return Err(HmcError::InvalidRequestSize(bytes)),
        })
    }

    /// Selects the (acknowledged) write command for a transfer size.
    pub fn write_for_bytes(bytes: usize) -> Result<Self, HmcError> {
        Ok(match bytes {
            16 => HmcRqst::Wr16,
            32 => HmcRqst::Wr32,
            48 => HmcRqst::Wr48,
            64 => HmcRqst::Wr64,
            80 => HmcRqst::Wr80,
            96 => HmcRqst::Wr96,
            112 => HmcRqst::Wr112,
            128 => HmcRqst::Wr128,
            256 => HmcRqst::Wr256,
            _ => return Err(HmcError::InvalidRequestSize(bytes)),
        })
    }

    /// Selects the posted write command for a transfer size.
    pub fn posted_write_for_bytes(bytes: usize) -> Result<Self, HmcError> {
        Ok(match bytes {
            16 => HmcRqst::PWr16,
            32 => HmcRqst::PWr32,
            48 => HmcRqst::PWr48,
            64 => HmcRqst::PWr64,
            80 => HmcRqst::PWr80,
            96 => HmcRqst::PWr96,
            112 => HmcRqst::PWr112,
            128 => HmcRqst::PWr128,
            256 => HmcRqst::PWr256,
            _ => return Err(HmcError::InvalidRequestSize(bytes)),
        })
    }
}

impl std::fmt::Display for HmcRqst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.fixed_info() {
            Some(info) => f.write_str(info.name),
            None => write!(f, "CMC{}", self.code()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::packet_flits_for_bytes;
    use std::collections::HashSet;

    #[test]
    fn exactly_58_standard_commands() {
        assert_eq!(HmcRqst::STANDARD.len(), 58);
    }

    #[test]
    fn exactly_70_cmc_codes() {
        // Paper §IV-A: "room for an additional 70 unused command codes".
        assert_eq!(HmcRqst::cmc_codes().count(), CMC_CODE_COUNT);
    }

    #[test]
    fn command_codes_are_unique_and_seven_bit() {
        let mut seen = HashSet::new();
        for &cmd in HmcRqst::STANDARD {
            let code = cmd.code();
            assert!(code < 128, "{cmd} code {code} exceeds 7 bits");
            assert!(seen.insert(code), "duplicate code {code} for {cmd}");
        }
    }

    #[test]
    fn code_round_trips_through_from_code() {
        for &cmd in HmcRqst::STANDARD {
            assert_eq!(HmcRqst::from_code(cmd.code()).unwrap(), cmd);
        }
        for code in HmcRqst::cmc_codes() {
            assert_eq!(HmcRqst::from_code(code).unwrap(), HmcRqst::Cmc(code));
        }
        assert!(HmcRqst::from_code(0x80).is_err());
    }

    #[test]
    fn mutex_codes_from_the_paper_are_free() {
        // Table V uses CMC125, CMC126, CMC127.
        let free: HashSet<u8> = HmcRqst::cmc_codes().collect();
        assert!(free.contains(&125));
        assert!(free.contains(&126));
        assert!(free.contains(&127));
    }

    #[test]
    fn table_one_request_flit_counts() {
        // Spot checks against paper Table I.
        let cases = [
            (HmcRqst::Rd256, 1, 17),
            (HmcRqst::Wr256, 17, 1),
            (HmcRqst::PWr256, 17, 0),
            (HmcRqst::TwoAdd8, 2, 1),
            (HmcRqst::Add16, 2, 1),
            (HmcRqst::P2Add8, 2, 0),
            (HmcRqst::PAdd16, 2, 0),
            (HmcRqst::TwoAddS8R, 2, 2),
            (HmcRqst::AddS16R, 2, 2),
            (HmcRqst::Inc8, 1, 1),
            (HmcRqst::PInc8, 1, 0),
            (HmcRqst::Xor16, 2, 2),
            (HmcRqst::Or16, 2, 2),
            (HmcRqst::Nor16, 2, 2),
            (HmcRqst::And16, 2, 2),
            (HmcRqst::Nand16, 2, 2),
            (HmcRqst::CasGt8, 2, 2),
            (HmcRqst::CasGt16, 2, 2),
            (HmcRqst::CasLt8, 2, 2),
            (HmcRqst::CasLt16, 2, 2),
            (HmcRqst::CasEq8, 2, 2),
            (HmcRqst::CasZero16, 2, 2),
            (HmcRqst::Eq8, 2, 1),
            (HmcRqst::Eq16, 2, 1),
            (HmcRqst::Bwr, 2, 1),
            (HmcRqst::PBwr, 2, 0),
            (HmcRqst::Bwr8R, 2, 2),
            (HmcRqst::Swap16, 2, 2),
        ];
        for (cmd, rqst, rsp) in cases {
            let info = cmd.fixed_info().unwrap();
            assert_eq!(info.rqst_flits, rqst, "{cmd} request flits");
            assert_eq!(info.rsp_flits, rsp, "{cmd} response flits");
        }
    }

    #[test]
    fn fixed_info_is_the_command_table_by_code() {
        for &cmd in HmcRqst::STANDARD {
            let info = cmd.fixed_info().expect("standard command");
            assert_eq!(info.code, cmd.code(), "{cmd}");
            assert_eq!(info.name, cmd.to_string());
            // The row a received code decodes to is the sender's row.
            assert_eq!(HmcRqst::from_code(info.code).unwrap().fixed_info(), Some(info));
        }
        let row = |code, rqst_flits, rsp_flits, kind, data_bytes, name| {
            Some(CmdInfo { code, rqst_flits, rsp_flits, kind, data_bytes, name })
        };
        use CmdKind::{Atomic, ModeRead, PostedAtomic, PostedWrite, Read};
        assert_eq!(HmcRqst::Rd256.fixed_info(), row(0x77, 1, 17, Read, 256, "RD256"));
        assert_eq!(HmcRqst::PWr64.fixed_info(), row(0x1B, 5, 0, PostedWrite, 64, "P_WR64"));
        assert_eq!(HmcRqst::Xor16.fixed_info(), row(0x40, 2, 2, Atomic, 16, "XOR16"));
        assert_eq!(HmcRqst::PInc8.fixed_info(), row(0x54, 1, 0, PostedAtomic, 8, "P_INC8"));
        assert_eq!(HmcRqst::MdRd.fixed_info(), row(0x28, 1, 2, ModeRead, 4, "MD_RD"));
        let free = HmcRqst::cmc_codes().filter(|&c| HmcRqst::Cmc(c).fixed_info().is_none());
        assert_eq!(free.count(), CMC_CODE_COUNT);
        // A CMC variant has no row whatever byte it carries.
        assert_eq!(HmcRqst::Cmc(0x30).fixed_info(), None);
        assert_eq!(HmcRqst::Cmc(0xFF).fixed_info(), None);
    }

    #[test]
    fn write_request_lengths_match_payload_math() {
        for &cmd in HmcRqst::STANDARD {
            let info = cmd.fixed_info().unwrap();
            if matches!(info.kind, CmdKind::Write | CmdKind::PostedWrite) {
                assert_eq!(
                    info.rqst_flits as usize,
                    packet_flits_for_bytes(info.data_bytes as usize),
                    "{cmd}"
                );
            }
            if matches!(info.kind, CmdKind::Read) {
                assert_eq!(info.rqst_flits, 1, "{cmd}");
                assert_eq!(
                    info.rsp_flits as usize,
                    packet_flits_for_bytes(info.data_bytes as usize),
                    "{cmd}"
                );
            }
        }
    }

    #[test]
    fn size_selectors() {
        assert_eq!(HmcRqst::read_for_bytes(64).unwrap(), HmcRqst::Rd64);
        assert_eq!(HmcRqst::write_for_bytes(256).unwrap(), HmcRqst::Wr256);
        assert_eq!(HmcRqst::posted_write_for_bytes(16).unwrap(), HmcRqst::PWr16);
        assert!(HmcRqst::read_for_bytes(24).is_err());
        assert!(HmcRqst::write_for_bytes(0).is_err());
        assert!(HmcRqst::posted_write_for_bytes(192).is_err());
    }

    #[test]
    fn mnemonics_and_display() {
        assert_eq!(HmcRqst::Inc8.mnemonic(), "INC8");
        assert_eq!(HmcRqst::Cmc(125).mnemonic(), "CMC125");
        assert_eq!(format!("{}", HmcRqst::CasZero16), "CASZERO16");
        assert_eq!(format!("{}", HmcRqst::Cmc(4)), "CMC4");
    }

    #[test]
    fn posted_classification() {
        assert!(HmcRqst::PWr64.is_posted());
        assert!(HmcRqst::PInc8.is_posted());
        assert!(!HmcRqst::Inc8.is_posted());
        assert!(!HmcRqst::Cmc(125).is_posted());
        assert_eq!(HmcRqst::Cmc(99).kind(), CmdKind::Cmc);
    }
}
