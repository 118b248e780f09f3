//! Gen2 request and response packets.
//!
//! A packet is 1..=17 FLITs. The first FLIT's low 64 bits carry the
//! packet *header* and the last FLIT's high 64 bits carry the packet
//! *tail*; everything between is data payload. A one-FLIT packet is
//! just `header | tail`. An `n`-FLIT packet therefore carries
//! `2n - 2` payload words (16(n-1) bytes).
//!
//! ## Request header layout (64 bits)
//!
//! | bits    | field | meaning                         |
//! |---------|-------|---------------------------------|
//! | 6:0     | CMD   | 7-bit command code              |
//! | 11:7    | LNG   | packet length in FLITs (1..=17) |
//! | 22:12   | TAG   | 11-bit request tag              |
//! | 57:24   | ADRS  | 34-bit byte address             |
//! | 59:58   | —     | reserved                        |
//! | 60      | CUB\[3\]| cube id bit 3 (fabric extension)|
//! | 63:61   | CUB   | cube (device) id bits 2:0       |
//!
//! The spec's CUB field is 3 bits (\[63:61\]); this simulator extends it
//! with one formerly-reserved bit (60, in both the request and the
//! response header) so fabrics of up to 16 cubes stay addressable.
//! Packets addressing cubes 0..=7 are bit-identical to the spec
//! layout.
//!
//! ## Request tail layout (64 bits)
//!
//! | bits    | field | meaning                          |
//! |---------|-------|----------------------------------|
//! | 7:0     | RRP   | return retry pointer             |
//! | 15:8    | FRP   | forward retry pointer            |
//! | 18:16   | SEQ   | 3-bit sequence number            |
//! | 19      | Pb    | poison bit                       |
//! | 22:20   | SLID  | source link id                   |
//! | 26:23   | —     | reserved                         |
//! | 31:27   | RTC   | return token count               |
//! | 63:32   | CRC   | CRC-32K over the packet          |
//!
//! Response header: `CMD[7:0]` (8-bit — see paper §IV-C1),
//! `LNG[12:8]`, `TAG[23:13]`, `AF[24]`, `SLID[34:32]`, `CUB[63:61]`
//! with the same `CUB[3]` extension at bit 60.
//! Response tail mirrors the request tail with `DINV[19]` and
//! `ERRSTAT[26:20]` in place of Pb/SLID.

use crate::cmd::HmcRqst;
use crate::crc::packet_crc_with_tail;
use crate::error::HmcError;
use crate::flit::{Flit, MAX_PACKET_FLITS};
use crate::payload::{PayloadBuf, PayloadSource};
use crate::rsp::HmcResponse;
use crate::tag::Tag;

/// A validated cube (device) identifier.
///
/// The HMC spec's CUB field is 3 bits; the simulator's fabric
/// extension widens it to 4 (see the header-layout note above), so
/// valid cube ids are `0..=15`. Ids `0..=7` encode exactly as the
/// spec lays them out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Cub(u8);

impl Cub {
    /// Number of addressable cubes (4-bit extended CUB field).
    pub const MAX_CUBES: usize = 16;

    /// Creates a cube id, validating the 4-bit range.
    pub fn new(value: u8) -> Result<Self, HmcError> {
        if (value as usize) < Self::MAX_CUBES {
            Ok(Cub(value))
        } else {
            Err(HmcError::InvalidCube(value))
        }
    }

    /// The raw cube id.
    #[inline]
    pub fn value(self) -> u8 {
        self.0
    }
}

/// A validated 3-bit source link identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Slid(u8);

impl Slid {
    /// Creates a source link id, validating the 3-bit range.
    pub fn new(value: u8) -> Result<Self, HmcError> {
        if value < 8 {
            Ok(Slid(value))
        } else {
            Err(HmcError::InvalidLink(value as usize))
        }
    }

    /// The raw link id.
    #[inline]
    pub fn value(self) -> u8 {
        self.0
    }
}

/// Maximum byte address representable in the 34-bit ADRS field.
pub const MAX_ADDR: u64 = (1 << 34) - 1;

#[inline]
fn field(word: u64, lo: u32, bits: u32) -> u64 {
    (word >> lo) & ((1u64 << bits) - 1)
}

#[inline]
fn place(value: u64, lo: u32, bits: u32) -> u64 {
    debug_assert!(value < (1u64 << bits), "field value {value} overflows {bits} bits");
    (value & ((1u64 << bits) - 1)) << lo
}

/// A decoded request packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqHead {
    /// The request command.
    pub cmd: HmcRqst,
    /// Total packet length in FLITs (1..=17).
    pub lng: u8,
    /// Request tag (ignored on the wire for posted commands, but
    /// carried anyway as the spec does).
    pub tag: Tag,
    /// Target byte address (34 bits).
    pub addr: u64,
    /// Target cube.
    pub cub: Cub,
}

impl ReqHead {
    /// Builds a header for a standard command, deriving LNG from the
    /// command's fixed metadata. For CMC commands use
    /// [`ReqHead::new_cmc`], which takes the registered length.
    pub fn new(cmd: HmcRqst, tag: Tag, addr: u64, cub: Cub) -> Self {
        let lng = cmd.fixed_info().map_or(1, |i| i.rqst_flits);
        ReqHead { cmd, lng, tag, addr, cub }
    }

    /// Builds a header for a CMC command with an explicit FLIT length
    /// (as registered by the CMC library).
    pub fn new_cmc(code: u8, lng: u8, tag: Tag, addr: u64, cub: Cub) -> Self {
        ReqHead { cmd: HmcRqst::Cmc(code), lng, tag, addr, cub }
    }

    /// Encodes the header to its 64-bit wire form. CUB bits 2:0 land
    /// in the spec position \[63:61\]; CUB\[3\] in the reserved bit 60.
    pub fn encode(&self) -> u64 {
        place(self.cmd.code() as u64, 0, 7)
            | place(self.lng as u64, 7, 5)
            | place(self.tag.value() as u64, 12, 11)
            | place(self.addr & MAX_ADDR, 24, 34)
            | place((self.cub.value() >> 3) as u64, 60, 1)
            | place((self.cub.value() & 0x7) as u64, 61, 3)
    }

    /// Decodes a 64-bit wire header.
    pub fn decode(raw: u64) -> Result<Self, HmcError> {
        let cmd = HmcRqst::from_code(field(raw, 0, 7) as u8)?;
        let lng = field(raw, 7, 5) as u8;
        if lng == 0 || lng as usize > MAX_PACKET_FLITS {
            return Err(HmcError::InvalidPacketLength(lng as usize));
        }
        Ok(ReqHead {
            cmd,
            lng,
            tag: Tag::new(field(raw, 12, 11) as u32)?,
            addr: field(raw, 24, 34),
            cub: Cub::new((field(raw, 61, 3) | (field(raw, 60, 1) << 3)) as u8)?,
        })
    }
}

/// A decoded request packet tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReqTail {
    /// Return retry pointer.
    pub rrp: u8,
    /// Forward retry pointer.
    pub frp: u8,
    /// 3-bit sequence number.
    pub seq: u8,
    /// Poison bit.
    pub pb: bool,
    /// Source link id (which host link the request entered on).
    pub slid: Slid,
    /// 5-bit return token count.
    pub rtc: u8,
    /// CRC-32K over the packet (filled by [`Request::pack`]).
    pub crc: u32,
}

impl ReqTail {
    /// Encodes the tail to its 64-bit wire form.
    pub fn encode(&self) -> u64 {
        place(self.rrp as u64, 0, 8)
            | place(self.frp as u64, 8, 8)
            | place((self.seq & 0x7) as u64, 16, 3)
            | place(self.pb as u64, 19, 1)
            | place(self.slid.value() as u64, 20, 3)
            | place((self.rtc & 0x1F) as u64, 27, 5)
            | place(self.crc as u64, 32, 32)
    }

    /// Decodes a 64-bit wire tail.
    pub fn decode(raw: u64) -> Result<Self, HmcError> {
        Ok(ReqTail {
            rrp: field(raw, 0, 8) as u8,
            frp: field(raw, 8, 8) as u8,
            seq: field(raw, 16, 3) as u8,
            pb: field(raw, 19, 1) != 0,
            slid: Slid::new(field(raw, 20, 3) as u8)?,
            rtc: field(raw, 27, 5) as u8,
            crc: field(raw, 32, 32) as u32,
        })
    }
}

/// A decoded response packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RspHead {
    /// The response command (8-bit space; CMC libraries may define
    /// custom codes via [`HmcResponse::RspCmc`]).
    pub cmd: HmcResponse,
    /// Total packet length in FLITs (1..=17).
    pub lng: u8,
    /// Tag echoed from the originating request.
    pub tag: Tag,
    /// Atomic-flag bit (set by comparison atomics that report
    /// success/failure, e.g. EQ8/EQ16).
    pub af: bool,
    /// Link the response is returned on.
    pub slid: Slid,
    /// Originating cube.
    pub cub: Cub,
}

impl RspHead {
    /// Encodes the header to its 64-bit wire form. CUB bits 2:0 land
    /// in the spec position \[63:61\]; CUB\[3\] in the reserved bit 60.
    pub fn encode(&self) -> u64 {
        place(self.cmd.code() as u64, 0, 8)
            | place(self.lng as u64, 8, 5)
            | place(self.tag.value() as u64, 13, 11)
            | place(self.af as u64, 24, 1)
            | place(self.slid.value() as u64, 32, 3)
            | place((self.cub.value() >> 3) as u64, 60, 1)
            | place((self.cub.value() & 0x7) as u64, 61, 3)
    }

    /// Decodes a 64-bit wire header.
    pub fn decode(raw: u64) -> Result<Self, HmcError> {
        let lng = field(raw, 8, 5) as u8;
        if lng == 0 || lng as usize > MAX_PACKET_FLITS {
            return Err(HmcError::InvalidPacketLength(lng as usize));
        }
        Ok(RspHead {
            cmd: HmcResponse::from_code(field(raw, 0, 8) as u8)?,
            lng,
            tag: Tag::new(field(raw, 13, 11) as u32)?,
            af: field(raw, 24, 1) != 0,
            slid: Slid::new(field(raw, 32, 3) as u8)?,
            cub: Cub::new((field(raw, 61, 3) | (field(raw, 60, 1) << 3)) as u8)?,
        })
    }
}

/// A decoded response packet tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RspTail {
    /// Return retry pointer.
    pub rrp: u8,
    /// Forward retry pointer.
    pub frp: u8,
    /// 3-bit sequence number.
    pub seq: u8,
    /// Data-invalid bit.
    pub dinv: bool,
    /// 7-bit error status.
    pub errstat: u8,
    /// 5-bit return token count.
    pub rtc: u8,
    /// CRC-32K over the packet (filled by [`Response::pack`]).
    pub crc: u32,
}

impl RspTail {
    /// Encodes the tail to its 64-bit wire form.
    pub fn encode(&self) -> u64 {
        place(self.rrp as u64, 0, 8)
            | place(self.frp as u64, 8, 8)
            | place((self.seq & 0x7) as u64, 16, 3)
            | place(self.dinv as u64, 19, 1)
            | place((self.errstat & 0x7F) as u64, 20, 7)
            | place((self.rtc & 0x1F) as u64, 27, 5)
            | place(self.crc as u64, 32, 32)
    }

    /// Decodes a 64-bit wire tail.
    pub fn decode(raw: u64) -> Self {
        RspTail {
            rrp: field(raw, 0, 8) as u8,
            frp: field(raw, 8, 8) as u8,
            seq: field(raw, 16, 3) as u8,
            dinv: field(raw, 19, 1) != 0,
            errstat: field(raw, 20, 7) as u8,
            rtc: field(raw, 27, 5) as u8,
            crc: field(raw, 32, 32) as u32,
        }
    }
}

/// Number of payload words an `lng`-FLIT packet carries.
#[inline]
pub const fn payload_words(lng: u8) -> usize {
    2 * (lng as usize) - 2
}

/// A complete request packet: header, payload words and tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Packet header.
    pub head: ReqHead,
    /// Data payload (`2*lng - 2` 64-bit words), stored inline up to
    /// 16 words.
    pub payload: PayloadBuf,
    /// Packet tail.
    pub tail: ReqTail,
}

/// What [`Request::new`] and [`Request::fill`] check: a standard
/// command, carrying exactly its fixed payload, at a 34-bit address.
fn check_standard(cmd: HmcRqst, words: usize, addr: u64) -> Result<(), HmcError> {
    let info = cmd
        .fixed_info()
        .ok_or_else(|| HmcError::MalformedPacket("use Request::new_cmc for CMC commands".into()))?;
    let expect = payload_words(info.rqst_flits);
    if words != expect {
        return Err(HmcError::MalformedPacket(format!(
            "{cmd} expects {expect} payload words, got {words}"
        )));
    }
    if addr > MAX_ADDR {
        return Err(HmcError::AddressOutOfRange(addr));
    }
    Ok(())
}

/// What [`Request::new_cmc`] and [`Request::fill_cmc`] check: a legal
/// FLIT length, the payload that length carries, a 34-bit address.
fn check_cmc(code: u8, lng: u8, words: usize, addr: u64) -> Result<(), HmcError> {
    if lng == 0 || lng as usize > MAX_PACKET_FLITS {
        return Err(HmcError::InvalidPacketLength(lng as usize));
    }
    let expect = payload_words(lng);
    if words != expect {
        return Err(HmcError::MalformedPacket(format!(
            "CMC{code} with LNG={lng} expects {expect} payload words, got {words}"
        )));
    }
    if addr > MAX_ADDR {
        return Err(HmcError::AddressOutOfRange(addr));
    }
    Ok(())
}

impl Request {
    /// Builds a request for a standard command, validating that the
    /// payload length matches the command's fixed FLIT count.
    pub fn new(
        cmd: HmcRqst,
        tag: Tag,
        addr: u64,
        cub: Cub,
        payload: impl Into<PayloadBuf>,
    ) -> Result<Self, HmcError> {
        let payload = payload.into();
        check_standard(cmd, payload.len(), addr)?;
        Ok(Request {
            head: ReqHead::new(cmd, tag, addr, cub),
            payload,
            tail: ReqTail::default(),
        })
    }

    /// Builds a CMC request with an explicit registered FLIT length.
    pub fn new_cmc(
        code: u8,
        lng: u8,
        tag: Tag,
        addr: u64,
        cub: Cub,
        payload: impl Into<PayloadBuf>,
    ) -> Result<Self, HmcError> {
        let payload = payload.into();
        check_cmc(code, lng, payload.len(), addr)?;
        Ok(Request {
            head: ReqHead::new_cmc(code, lng, tag, addr, cub),
            payload,
            tail: ReqTail::default(),
        })
    }

    /// [`Request::new`] in place: overwrites `self` — header, payload
    /// and a default tail — with the packet `new` would build from the
    /// same arguments, after the same checks. A rejected packet leaves
    /// `self` as it was.
    pub fn fill(
        &mut self,
        cmd: HmcRqst,
        tag: Tag,
        addr: u64,
        cub: Cub,
        payload: impl PayloadSource,
    ) -> Result<(), HmcError> {
        check_standard(cmd, payload.words(), addr)?;
        self.head = ReqHead::new(cmd, tag, addr, cub);
        payload.overwrite(&mut self.payload);
        self.tail = ReqTail::default();
        Ok(())
    }

    /// [`Request::new_cmc`] in place; see [`Request::fill`].
    pub fn fill_cmc(
        &mut self,
        code: u8,
        lng: u8,
        tag: Tag,
        addr: u64,
        cub: Cub,
        payload: impl PayloadSource,
    ) -> Result<(), HmcError> {
        check_cmc(code, lng, payload.words(), addr)?;
        self.head = ReqHead::new_cmc(code, lng, tag, addr, cub);
        payload.overwrite(&mut self.payload);
        self.tail = ReqTail::default();
        Ok(())
    }

    /// Total packet length in FLITs.
    #[inline]
    pub fn flits(&self) -> u8 {
        self.head.lng
    }

    /// Serializes the packet to FLITs, computing and embedding the CRC.
    pub fn pack(&self) -> Vec<Flit> {
        let mut out = [Flit::ZERO; MAX_PACKET_FLITS];
        let n = self.pack_into(&mut out);
        out[..n].to_vec()
    }

    /// Serializes the packet into a caller-provided FLIT buffer and
    /// returns the packet length in FLITs. Allocation-free.
    pub fn pack_into(&self, out: &mut [Flit; MAX_PACKET_FLITS]) -> usize {
        pack_words_into(self.head.encode(), &self.payload, |crc| {
            let mut tail = self.tail;
            tail.crc = crc;
            tail.encode()
        }, out)
    }

    /// Deserializes a packet from FLITs, verifying LNG and CRC.
    pub fn unpack(flits: &[Flit]) -> Result<Self, HmcError> {
        let (head_raw, payload, tail_raw, crc) = unpack_words(flits)?;
        let head = ReqHead::decode(head_raw)?;
        if head.lng as usize != flits.len() {
            return Err(HmcError::MalformedPacket(format!(
                "header LNG {} != wire length {}",
                head.lng,
                flits.len()
            )));
        }
        let tail = ReqTail::decode(tail_raw)?;
        if tail.crc != crc {
            return Err(HmcError::CrcMismatch { expected: tail.crc, computed: crc });
        }
        Ok(Request { head, payload, tail })
    }
}

/// A complete response packet: header, payload words and tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Packet header.
    pub head: RspHead,
    /// Data payload (`2*lng - 2` 64-bit words), stored inline up to
    /// 16 words.
    pub payload: PayloadBuf,
    /// Packet tail.
    pub tail: RspTail,
}

impl Response {
    /// Builds a response packet; LNG is derived from the payload.
    pub fn new(
        cmd: HmcResponse,
        tag: Tag,
        slid: Slid,
        cub: Cub,
        payload: impl Into<PayloadBuf>,
    ) -> Result<Self, HmcError> {
        let payload = payload.into();
        if !payload.len().is_multiple_of(2) || payload.len() > 2 * (MAX_PACKET_FLITS - 1) {
            return Err(HmcError::MalformedPacket(format!(
                "response payload of {} words is not a whole number of FLITs",
                payload.len()
            )));
        }
        let lng = (1 + payload.len() / 2) as u8;
        Ok(Response {
            head: RspHead { cmd, lng, tag, af: false, slid, cub },
            payload,
            tail: RspTail::default(),
        })
    }

    /// Total packet length in FLITs.
    #[inline]
    pub fn flits(&self) -> u8 {
        self.head.lng
    }

    /// True when the vault answered with an error instead of executing
    /// the request (an ERROR packet or a nonzero `ERRSTAT`): nothing
    /// happened, so re-issuing the request verbatim is safe.
    #[inline]
    pub fn not_executed(&self) -> bool {
        self.head.cmd == HmcResponse::Error || self.tail.errstat != 0
    }

    /// True when the request executed but its payload is poisoned
    /// (DINV): the data FLITs cannot be trusted, while the header — the
    /// atomic flag included — stays valid.
    #[inline]
    pub fn poisoned(&self) -> bool {
        self.tail.dinv
    }

    /// Serializes the packet to FLITs, computing and embedding the CRC.
    pub fn pack(&self) -> Vec<Flit> {
        let mut out = [Flit::ZERO; MAX_PACKET_FLITS];
        let n = self.pack_into(&mut out);
        out[..n].to_vec()
    }

    /// Serializes the packet into a caller-provided FLIT buffer and
    /// returns the packet length in FLITs. Allocation-free.
    pub fn pack_into(&self, out: &mut [Flit; MAX_PACKET_FLITS]) -> usize {
        pack_words_into(self.head.encode(), &self.payload, |crc| {
            let mut tail = self.tail;
            tail.crc = crc;
            tail.encode()
        }, out)
    }

    /// Deserializes a packet from FLITs, verifying LNG and CRC.
    pub fn unpack(flits: &[Flit]) -> Result<Self, HmcError> {
        let (head_raw, payload, tail_raw, crc) = unpack_words(flits)?;
        let head = RspHead::decode(head_raw)?;
        if head.lng as usize != flits.len() {
            return Err(HmcError::MalformedPacket(format!(
                "header LNG {} != wire length {}",
                head.lng,
                flits.len()
            )));
        }
        let tail = RspTail::decode(tail_raw);
        if tail.crc != crc {
            return Err(HmcError::CrcMismatch { expected: tail.crc, computed: crc });
        }
        Ok(Response { head, payload, tail })
    }
}

impl Request {
    /// Serializes the packet to its byte-level wire image
    /// (little-endian FLITs, CRC embedded).
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        self.pack().iter().flat_map(|f| f.to_bytes()).collect()
    }

    /// Deserializes a packet from its byte-level wire image.
    pub fn from_wire_bytes(bytes: &[u8]) -> Result<Self, HmcError> {
        Self::unpack(&flits_from_bytes(bytes)?)
    }
}

impl Response {
    /// Serializes the packet to its byte-level wire image.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        self.pack().iter().flat_map(|f| f.to_bytes()).collect()
    }

    /// Deserializes a packet from its byte-level wire image.
    pub fn from_wire_bytes(bytes: &[u8]) -> Result<Self, HmcError> {
        Self::unpack(&flits_from_bytes(bytes)?)
    }
}

/// Splits a byte stream into whole FLITs.
fn flits_from_bytes(bytes: &[u8]) -> Result<Vec<Flit>, HmcError> {
    use crate::flit::FLIT_BYTES;
    if bytes.is_empty() || !bytes.len().is_multiple_of(FLIT_BYTES) {
        return Err(HmcError::MalformedPacket(format!(
            "wire image of {} bytes is not a whole number of FLITs",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(FLIT_BYTES)
        .map(|c| Flit::from_bytes(c.try_into().expect("16-byte chunk")))
        .collect())
}

/// Lays out `[head, payload..., tail]` words into the FLIT buffer,
/// invoking `finish_tail` with the computed CRC (tail word hashed as
/// zero) to produce the final tail word. Returns the FLIT count;
/// allocation-free.
fn pack_words_into(
    head: u64,
    payload: &[u64],
    finish_tail: impl FnOnce(u32) -> u64,
    out: &mut [Flit; MAX_PACKET_FLITS],
) -> usize {
    let crc = packet_crc_with_tail(head, payload, 0);
    let tail = finish_tail(crc);
    // Payloads are always a whole number of FLITs (2*lng - 2 words),
    // so head + payload + tail is exactly 2 words per FLIT.
    debug_assert!(payload.len().is_multiple_of(2));
    let n_words = payload.len() + 2;
    let word = |i: usize| -> u64 {
        if i == 0 {
            head
        } else if i == n_words - 1 {
            tail
        } else {
            payload[i - 1]
        }
    };
    let flits = n_words / 2;
    for (fi, slot) in out[..flits].iter_mut().enumerate() {
        *slot = Flit::new(word(2 * fi), word(2 * fi + 1));
    }
    flits
}

/// Splits FLITs back into `(head, payload, tail, computed_crc)`.
/// Allocation-free for payloads within the inline capacity.
fn unpack_words(flits: &[Flit]) -> Result<(u64, PayloadBuf, u64, u32), HmcError> {
    if flits.is_empty() || flits.len() > MAX_PACKET_FLITS {
        return Err(HmcError::InvalidPacketLength(flits.len()));
    }
    // Flat word layout: [f0.lo, f0.hi, f1.lo, f1.hi, ...]; the head
    // is the first word, the tail the last, payload everything
    // between.
    let head = flits[0].lo();
    let tail = flits[flits.len() - 1].hi();
    let n_words = 2 * flits.len();
    let mut payload = PayloadBuf::new();
    for i in 1..n_words - 1 {
        payload.push(flits[i / 2].words[i % 2]);
    }
    let crc = packet_crc_with_tail(head, &payload, tail);
    Ok((head, payload, tail, crc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(v: u32) -> Tag {
        Tag::new(v).unwrap()
    }

    #[test]
    fn req_head_round_trip() {
        let head = ReqHead::new(HmcRqst::Wr64, tag(513), 0x3_1234_5678, Cub::new(5).unwrap());
        assert_eq!(head.lng, 5);
        let decoded = ReqHead::decode(head.encode()).unwrap();
        assert_eq!(decoded, head);
    }

    #[test]
    fn wide_cub_round_trips_and_bounds_enforced() {
        // Cubes 8..=15 use the formerly-reserved bit 60 in both
        // headers; ids 0..=7 must keep the exact spec encoding.
        for v in 0..16u8 {
            let cub = Cub::new(v).unwrap();
            let head = ReqHead::new(HmcRqst::Rd16, tag(9), 0x80, cub);
            let decoded = ReqHead::decode(head.encode()).unwrap();
            assert_eq!(decoded.cub.value(), v, "request CUB {v}");
            if v < 8 {
                assert_eq!(field(head.encode(), 60, 1), 0, "bit 60 clear for spec cubes");
            }
            let rsp = RspHead {
                cmd: HmcResponse::RdRs,
                lng: 1,
                tag: tag(9),
                af: false,
                slid: Slid::new(0).unwrap(),
                cub,
            };
            assert_eq!(RspHead::decode(rsp.encode()).unwrap().cub.value(), v, "response CUB {v}");
        }
        assert!(matches!(Cub::new(16), Err(HmcError::InvalidCube(16))));
        assert!(matches!(Cub::new(255), Err(HmcError::InvalidCube(255))));
    }

    #[test]
    fn wide_cub_survives_full_packet_round_trip() {
        let req = Request::new(HmcRqst::Wr16, tag(40), 0x40, Cub::new(13).unwrap(), vec![1, 2])
            .unwrap();
        let back = Request::unpack(&req.pack()).unwrap();
        assert_eq!(back.head.cub.value(), 13);
    }

    #[test]
    fn req_head_cmc_round_trip() {
        let head = ReqHead::new_cmc(125, 2, tag(7), 0x40, Cub::new(0).unwrap());
        let decoded = ReqHead::decode(head.encode()).unwrap();
        assert_eq!(decoded.cmd, HmcRqst::Cmc(125));
        assert_eq!(decoded.lng, 2);
    }

    #[test]
    fn req_tail_round_trip() {
        let tail = ReqTail {
            rrp: 0xAB,
            frp: 0xCD,
            seq: 5,
            pb: true,
            slid: Slid::new(3).unwrap(),
            rtc: 17,
            crc: 0xDEAD_BEEF,
        };
        assert_eq!(ReqTail::decode(tail.encode()).unwrap(), tail);
    }

    #[test]
    fn rsp_head_round_trip() {
        let head = RspHead {
            cmd: HmcResponse::RdRs,
            lng: 2,
            tag: tag(2047),
            af: true,
            slid: Slid::new(7).unwrap(),
            cub: Cub::new(1).unwrap(),
        };
        assert_eq!(RspHead::decode(head.encode()).unwrap(), head);
    }

    #[test]
    fn rsp_tail_round_trip() {
        let tail = RspTail {
            rrp: 1,
            frp: 2,
            seq: 7,
            dinv: true,
            errstat: 0x55,
            rtc: 31,
            crc: 0x1234_5678,
        };
        assert_eq!(RspTail::decode(tail.encode()), tail);
    }

    #[test]
    fn zero_lng_rejected() {
        // A zeroed header decodes cmd NULL but LNG 0 must be rejected.
        assert!(matches!(
            ReqHead::decode(0),
            Err(HmcError::InvalidPacketLength(0))
        ));
    }

    #[test]
    fn request_payload_length_enforced() {
        assert!(Request::new(HmcRqst::Wr16, tag(0), 0, Cub::new(0).unwrap(), vec![]).is_err());
        assert!(Request::new(HmcRqst::Wr16, tag(0), 0, Cub::new(0).unwrap(), vec![1, 2]).is_ok());
        assert!(Request::new(HmcRqst::Rd64, tag(0), 0, Cub::new(0).unwrap(), vec![]).is_ok());
        assert!(Request::new(HmcRqst::Rd64, tag(0), 0, Cub::new(0).unwrap(), vec![9]).is_err());
    }

    #[test]
    fn request_rejects_cmc_without_length() {
        assert!(Request::new(HmcRqst::Cmc(125), tag(0), 0, Cub::new(0).unwrap(), vec![]).is_err());
        assert!(Request::new_cmc(125, 2, tag(0), 0, Cub::new(0).unwrap(), vec![1, 2]).is_ok());
        assert!(Request::new_cmc(125, 2, tag(0), 0, Cub::new(0).unwrap(), vec![1]).is_err());
        assert!(Request::new_cmc(125, 0, tag(0), 0, Cub::new(0).unwrap(), vec![]).is_err());
        assert!(Request::new_cmc(125, 18, tag(0), 0, Cub::new(0).unwrap(), vec![0; 34]).is_err());
    }

    #[test]
    fn fill_builds_what_new_builds_and_rejects_what_new_rejects() {
        let cub = Cub::new(3).unwrap();
        // A recycled envelope: a 17-FLIT packet with a used tail.
        let mut stale = Request::new(HmcRqst::Wr256, tag(1), 0x40, cub, vec![9; 32]).unwrap();
        stale.tail = ReqTail { seq: 5, rtc: 3, crc: 77, ..ReqTail::default() };
        let big: Vec<u64> = (0..32).collect();
        let standard: [(HmcRqst, &[u64]); 6] = [
            (HmcRqst::Rd16, &[]),
            (HmcRqst::Wr16, &[1, 2]),
            (HmcRqst::Wr16, &[1]),
            (HmcRqst::PWr256, &big),
            (HmcRqst::Rd256, &[1, 2]),
            (HmcRqst::Cmc(125), &[1, 2]),
        ];
        for (cmd, payload) in standard {
            for addr in [0x80, MAX_ADDR, MAX_ADDR + 1] {
                let mut filled = stale.clone();
                let got = filled.fill(cmd, tag(7), addr, cub, payload);
                match Request::new(cmd, tag(7), addr, cub, payload) {
                    Ok(want) => {
                        got.unwrap();
                        assert_eq!(filled, want);
                        assert_eq!(filled.payload.is_inline(), want.payload.is_inline());
                    }
                    Err(want) => {
                        assert_eq!(format!("{:?}", got.unwrap_err()), format!("{want:?}"));
                        assert_eq!(filled, stale, "a rejected fill writes nothing");
                    }
                }
            }
        }
        for (lng, words) in [(2, 2), (2, 1), (0, 0), (17, 32), (18, 34), (1, 0)] {
            for addr in [0x80, MAX_ADDR + 1] {
                let payload = &big.repeat(2)[..words];
                let mut filled = stale.clone();
                let got = filled.fill_cmc(126, lng, tag(7), addr, cub, payload);
                match Request::new_cmc(126, lng, tag(7), addr, cub, payload) {
                    Ok(want) => {
                        got.unwrap();
                        assert_eq!(filled, want);
                    }
                    Err(want) => {
                        assert_eq!(format!("{:?}", got.unwrap_err()), format!("{want:?}"));
                        assert_eq!(filled, stale, "a rejected fill writes nothing");
                    }
                }
            }
        }
    }

    #[test]
    fn request_pack_unpack_round_trip() {
        let req = Request::new(
            HmcRqst::Wr64,
            tag(99),
            0x1000,
            Cub::new(2).unwrap(),
            (0..8u64).map(|i| i * 0x1111).collect::<PayloadBuf>(),
        )
        .unwrap();
        let flits = req.pack();
        assert_eq!(flits.len(), 5);
        let back = Request::unpack(&flits).unwrap();
        assert_eq!(back.head, req.head);
        assert_eq!(back.payload, req.payload);
        assert_ne!(back.tail.crc, 0, "CRC was embedded");
    }

    #[test]
    fn corrupted_packet_fails_crc() {
        let req = Request::new(HmcRqst::Wr16, tag(3), 0x40, Cub::new(0).unwrap(), vec![7, 8])
            .unwrap();
        let mut flits = req.pack();
        flits[1].words[0] ^= 1;
        assert!(matches!(
            Request::unpack(&flits),
            Err(HmcError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn lng_wire_mismatch_detected() {
        let req = Request::new(HmcRqst::Rd16, tag(0), 0, Cub::new(0).unwrap(), vec![]).unwrap();
        let mut flits = req.pack();
        flits.push(Flit::ZERO);
        assert!(Request::unpack(&flits).is_err());
    }

    #[test]
    fn response_round_trip() {
        let rsp = Response::new(
            HmcResponse::RdRs,
            tag(1),
            Slid::new(2).unwrap(),
            Cub::new(0).unwrap(),
            vec![0xAA, 0xBB],
        )
        .unwrap();
        assert_eq!(rsp.flits(), 2);
        let flits = rsp.pack();
        let back = Response::unpack(&flits).unwrap();
        assert_eq!(back.head, rsp.head);
        assert_eq!(back.payload, rsp.payload);
    }

    #[test]
    fn execution_and_poison_predicates() {
        let rsp = |cmd, errstat, dinv| Response {
            tail: RspTail { errstat, dinv, ..RspTail::default() },
            ..Response::new(cmd, tag(1), Slid::default(), Cub::default(), PayloadBuf::new())
                .unwrap()
        };
        let clean = rsp(HmcResponse::RdRs, 0, false);
        assert!(!clean.not_executed() && !clean.poisoned());
        assert!(rsp(HmcResponse::Error, 0, false).not_executed());
        assert!(rsp(HmcResponse::WrRs, 0x10, false).not_executed());
        let poisoned = rsp(HmcResponse::RdRs, 0, true);
        assert!(poisoned.poisoned() && !poisoned.not_executed());
    }

    #[test]
    fn response_odd_payload_rejected() {
        assert!(Response::new(
            HmcResponse::RdRs,
            tag(0),
            Slid::new(0).unwrap(),
            Cub::new(0).unwrap(),
            vec![1],
        )
        .is_err());
    }

    #[test]
    fn response_oversize_payload_rejected() {
        assert!(Response::new(
            HmcResponse::RdRs,
            tag(0),
            Slid::new(0).unwrap(),
            Cub::new(0).unwrap(),
            vec![0; 34],
        )
        .is_err());
    }

    #[test]
    fn cmc_response_code_round_trips_on_wire() {
        let rsp = Response::new(
            HmcResponse::RspCmc(0x42),
            tag(12),
            Slid::new(1).unwrap(),
            Cub::new(0).unwrap(),
            vec![1, 2],
        )
        .unwrap();
        let back = Response::unpack(&rsp.pack()).unwrap();
        assert_eq!(back.head.cmd, HmcResponse::RspCmc(0x42));
    }

    #[test]
    fn wire_bytes_round_trip() {
        let req = Request::new(
            HmcRqst::Wr32,
            tag(17),
            0x2040,
            Cub::new(1).unwrap(),
            vec![1, 2, 3, 4],
        )
        .unwrap();
        let bytes = req.to_wire_bytes();
        assert_eq!(bytes.len(), 3 * 16, "3 FLITs on the wire");
        let back = Request::from_wire_bytes(&bytes).unwrap();
        assert_eq!(back.head, req.head);
        assert_eq!(back.payload, req.payload);

        let rsp = Response::new(
            HmcResponse::RdRs,
            tag(3),
            Slid::new(1).unwrap(),
            Cub::new(0).unwrap(),
            vec![9, 10],
        )
        .unwrap();
        let back = Response::from_wire_bytes(&rsp.to_wire_bytes()).unwrap();
        assert_eq!(back.head, rsp.head);
        assert_eq!(back.payload, rsp.payload);
    }

    #[test]
    fn wire_bytes_reject_partial_flits() {
        assert!(Request::from_wire_bytes(&[]).is_err());
        assert!(Request::from_wire_bytes(&[0u8; 17]).is_err());
        let req = Request::new(HmcRqst::Rd16, tag(0), 0, Cub::new(0).unwrap(), vec![]).unwrap();
        let mut bytes = req.to_wire_bytes();
        bytes[3] ^= 0x10;
        assert!(Request::from_wire_bytes(&bytes).is_err(), "CRC catches the flip");
    }

    #[test]
    fn payload_words_math() {
        assert_eq!(payload_words(1), 0);
        assert_eq!(payload_words(2), 2);
        assert_eq!(payload_words(17), 32);
    }

    #[test]
    fn address_out_of_range_rejected() {
        let too_big = MAX_ADDR + 1;
        assert!(Request::new(HmcRqst::Rd16, tag(0), too_big, Cub::new(0).unwrap(), vec![]).is_err());
    }
}
