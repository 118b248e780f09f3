//! HMC-Sim C API compatibility layer.
//!
//! The paper's first requirement is API compatibility with HMC-Sim
//! 1.0 (§IV-A): existing infrastructures drive the simulator through
//! a small set of C functions that traffic in raw `uint64_t` packet
//! buffers. This module mirrors that surface over [`HmcSim`] so
//! ports of existing HMC-Sim 1.0/2.0 harnesses map line by line:
//!
//! | C API | here |
//! |---|---|
//! | `hmcsim_init(...)` | [`hmcsim_init`] |
//! | `hmcsim_build_memrequest(...)` | [`hmcsim_build_memrequest`] |
//! | `hmcsim_send(hmc, packet)` | [`hmcsim_send`] |
//! | `hmcsim_recv(hmc, dev, link, packet)` | [`hmcsim_recv`] |
//! | `hmcsim_decode_memresponse(...)` | [`hmcsim_decode_memresponse`] |
//! | `hmcsim_clock(hmc)` | [`hmcsim_clock`] |
//! | `hmcsim_load_cmc(hmc, path)` | [`hmcsim_load_cmc`] |
//! | `hmcsim_jtag_reg_read/write` | [`hmcsim_jtag_reg_read`] / [`hmcsim_jtag_reg_write`] |
//!
//! Like the C API, packets are flat little-endian `u64` buffers laid
//! out `[head, data..., tail]`, and completion codes are integers:
//! `0` success, [`HMC_STALL`] for back-pressure, [`HMC_ERROR`] for
//! hard failures.

use crate::config::DeviceConfig;
use crate::sim::HmcSim;
use hmc_types::packet::payload_words;
use hmc_types::{Cub, HmcError, HmcRqst, PayloadBuf, ReqHead, ReqTail, Request, Slid, Tag};

/// Success return code.
pub const HMC_OK: i32 = 0;
/// Transient stall: retry next cycle (C `HMC_STALL`).
pub const HMC_STALL: i32 = 2;
/// Hard error (C `-1`).
pub const HMC_ERROR: i32 = -1;

/// `hmcsim_init` — builds a simulation context from the discrete
/// geometry arguments of the C API. `capacity` is in GB.
#[allow(clippy::too_many_arguments)]
pub fn hmcsim_init(
    num_devs: usize,
    num_links: usize,
    num_vaults: usize,
    queue_depth: usize,
    num_banks: usize,
    capacity_gb: u64,
    xbar_depth: usize,
) -> Result<HmcSim, HmcError> {
    let quads = DeviceConfig::QUADS;
    if !num_vaults.is_multiple_of(quads) {
        return Err(HmcError::MalformedPacket(format!(
            "vault count {num_vaults} not divisible into {quads} quads"
        )));
    }
    let capacity = capacity_gb.checked_mul(1 << 30).ok_or_else(|| {
        HmcError::MalformedPacket(format!("capacity {capacity_gb} GB does not fit in 64 bits"))
    })?;
    let device = DeviceConfig {
        links: num_links,
        capacity,
        vaults_per_quad: num_vaults / quads,
        banks_per_vault: num_banks,
        vault_queue_depth: queue_depth,
        xbar_queue_depth: xbar_depth,
        ..DeviceConfig::gen2_4link_4gb()
    };
    if num_devs == 1 {
        HmcSim::new(device)
    } else {
        HmcSim::with_config(crate::config::SimConfig::chain(device, num_devs))
    }
}

/// `hmcsim_build_memrequest` — encodes a request into the caller's
/// flat packet buffer (`[head, payload..., tail]`), returning the
/// number of `u64` words written. The tail is finalized (CRC and
/// SLID) by [`hmcsim_send`], matching the C flow where the library
/// owns those fields.
pub fn hmcsim_build_memrequest(
    dev: u8,
    addr: u64,
    tag: u16,
    rqst: HmcRqst,
    link: u8,
    payload: &[u64],
    packet: &mut [u64],
) -> Result<usize, HmcError> {
    let info = rqst
        .fixed_info()
        .ok_or_else(|| HmcError::MalformedPacket("use send_cmc paths for CMC requests".into()))?;
    let words = payload_words(info.rqst_flits);
    if payload.len() != words {
        return Err(HmcError::MalformedPacket(format!(
            "{rqst} expects {words} payload words, got {}",
            payload.len()
        )));
    }
    let total = words + 2;
    if packet.len() < total {
        return Err(HmcError::MalformedPacket(format!(
            "packet buffer of {} words too small for {total}",
            packet.len()
        )));
    }
    let head = ReqHead::new(rqst, Tag::new(tag as u32)?, addr, Cub::new(dev)?);
    packet[0] = head.encode();
    packet[1..1 + words].copy_from_slice(payload);
    packet[1 + words] = ReqTail { slid: Slid::new(link % 8)?, ..ReqTail::default() }.encode();
    Ok(total)
}

/// `hmcsim_send` — decodes the caller's packet buffer and injects it
/// on the given device link. Returns [`HMC_OK`], [`HMC_STALL`] or
/// [`HMC_ERROR`].
pub fn hmcsim_send(hmc: &mut HmcSim, dev: usize, link: usize, packet: &[u64]) -> i32 {
    if packet.len() < 2 {
        return HMC_ERROR;
    }
    let Ok(head) = ReqHead::decode(packet[0]) else {
        return HMC_ERROR;
    };
    let words = payload_words(head.lng);
    if packet.len() < words + 2 {
        return HMC_ERROR;
    }
    let Ok(tail) = ReqTail::decode(packet[words + 1]) else {
        return HMC_ERROR;
    };
    let req = Request { head, payload: PayloadBuf::from_slice(&packet[1..1 + words]), tail };
    match hmc.send(dev, link, req) {
        Ok(()) => HMC_OK,
        Err(HmcError::Stall) => HMC_STALL,
        Err(_) => HMC_ERROR,
    }
}

/// `hmcsim_recv` — pops the next response on a host link into the
/// caller's flat buffer (`[head, payload..., tail]`). Returns the
/// word count via `out_len`. [`HMC_STALL`] means nothing is waiting.
pub fn hmcsim_recv(
    hmc: &mut HmcSim,
    dev: usize,
    link: usize,
    packet: &mut [u64],
    out_len: &mut usize,
) -> i32 {
    let Some(rsp) = hmc.recv(dev, link) else {
        return HMC_STALL;
    };
    let words = rsp.rsp.payload.len();
    let total = words + 2;
    if packet.len() < total {
        return HMC_ERROR;
    }
    packet[0] = rsp.rsp.head.encode();
    packet[1..1 + words].copy_from_slice(&rsp.rsp.payload);
    packet[1 + words] = rsp.rsp.tail.encode();
    *out_len = total;
    HMC_OK
}

/// Decoded response fields, as `hmcsim_decode_memresponse` returns
/// them through out-parameters in C.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedResponse {
    /// Response command.
    pub rsp_cmd: hmc_types::HmcResponse,
    /// Echoed tag.
    pub tag: u16,
    /// Packet length in FLITs.
    pub lng: u8,
    /// Source link id.
    pub slid: u8,
    /// Originating cube.
    pub cub: u8,
    /// Atomic flag.
    pub af: bool,
    /// Error status from the tail.
    pub errstat: u8,
    /// Data-invalid (poison) bit from the tail.
    pub dinv: bool,
    /// Data payload words.
    pub payload: Vec<u64>,
}

impl DecodedResponse {
    /// True when the response reports a failed request: an ERROR
    /// packet, a nonzero `ERRSTAT`, or poisoned (DINV) data.
    pub fn failed(&self) -> bool {
        let mut rsp = hmc_types::Response::new(
            self.rsp_cmd,
            Tag::default(),
            Slid::default(),
            Cub::default(),
            PayloadBuf::new(),
        )
        .expect("an empty payload is a whole packet");
        (rsp.tail.errstat, rsp.tail.dinv) = (self.errstat, self.dinv);
        rsp.not_executed() || rsp.poisoned()
    }
}

/// `hmcsim_decode_memresponse` — decodes a flat response buffer.
pub fn hmcsim_decode_memresponse(packet: &[u64]) -> Result<DecodedResponse, HmcError> {
    if packet.len() < 2 {
        return Err(HmcError::InvalidPacketLength(packet.len()));
    }
    let head = hmc_types::RspHead::decode(packet[0])?;
    let words = payload_words(head.lng);
    if packet.len() < words + 2 {
        return Err(HmcError::InvalidPacketLength(packet.len()));
    }
    let tail = hmc_types::RspTail::decode(packet[words + 1]);
    Ok(DecodedResponse {
        rsp_cmd: head.cmd,
        tag: head.tag.value(),
        lng: head.lng,
        slid: head.slid.value(),
        cub: head.cub.value(),
        af: head.af,
        errstat: tail.errstat,
        dinv: tail.dinv,
        payload: packet[1..1 + words].to_vec(),
    })
}

/// `hmcsim_util_get_errstat` — extracts the 7-bit `ERRSTAT` field and
/// the DINV poison bit from a flat response buffer so C-style callers
/// can detect failed requests without a full decode. Returns
/// [`HMC_OK`] or [`HMC_ERROR`] (malformed buffer).
pub fn hmcsim_util_get_errstat(packet: &[u64], errstat: &mut u8, dinv: &mut bool) -> i32 {
    if packet.len() < 2 {
        return HMC_ERROR;
    }
    let Ok(head) = hmc_types::RspHead::decode(packet[0]) else {
        return HMC_ERROR;
    };
    let words = payload_words(head.lng);
    if packet.len() < words + 2 {
        return HMC_ERROR;
    }
    let tail = hmc_types::RspTail::decode(packet[words + 1]);
    *errstat = tail.errstat;
    *dinv = tail.dinv;
    HMC_OK
}

/// `hmcsim_clock` — advances the context one cycle.
pub fn hmcsim_clock(hmc: &mut HmcSim) -> u64 {
    hmc.clock()
}

/// `hmcsim_load_cmc` — loads a CMC shared library by path onto device
/// 0, the C signature's behaviour. Returns [`HMC_OK`] or
/// [`HMC_ERROR`].
pub fn hmcsim_load_cmc(hmc: &mut HmcSim, path: &str) -> i32 {
    match hmc.load_cmc_library(0, path) {
        Ok(_) => HMC_OK,
        Err(_) => HMC_ERROR,
    }
}

/// `hmcsim_util_decode_qv` — decomposes a physical address into
/// `(quad, vault)` under a device's address map, as the C utility
/// functions do for request steering.
pub fn hmcsim_util_decode_qv(
    hmc: &HmcSim,
    dev: usize,
    addr: u64,
    quad: &mut u32,
    vault: &mut u32,
) -> i32 {
    let Ok(config) = hmc.device_config(dev) else {
        return HMC_ERROR;
    };
    let map = crate::addr::AddressMap::new(config);
    match map.decompose(addr) {
        Ok(loc) => {
            *quad = loc.quad;
            *vault = loc.vault;
            HMC_OK
        }
        Err(_) => HMC_ERROR,
    }
}

/// `hmcsim_util_decode_bank` — the bank within the vault.
pub fn hmcsim_util_decode_bank(hmc: &HmcSim, dev: usize, addr: u64, bank: &mut u32) -> i32 {
    let Ok(config) = hmc.device_config(dev) else {
        return HMC_ERROR;
    };
    match crate::addr::AddressMap::new(config).decompose(addr) {
        Ok(loc) => {
            *bank = loc.bank;
            HMC_OK
        }
        Err(_) => HMC_ERROR,
    }
}

/// `hmcsim_util_set_max_blocksize` analogue: the block size is fixed
/// at construction here, so this validates the request instead.
pub fn hmcsim_util_is_legal_blocksize(size: usize) -> bool {
    matches!(size, 32 | 64 | 128 | 256)
}

/// `hmcsim_jtag_reg_read`.
pub fn hmcsim_jtag_reg_read(hmc: &HmcSim, dev: usize, reg: u32, result: &mut u64) -> i32 {
    match hmc.jtag_reg_read(dev, reg) {
        Ok(v) => {
            *result = v;
            HMC_OK
        }
        Err(_) => HMC_ERROR,
    }
}

/// `hmcsim_jtag_reg_write`.
pub fn hmcsim_jtag_reg_write(hmc: &mut HmcSim, dev: usize, reg: u32, value: u64) -> i32 {
    match hmc.jtag_reg_write(dev, reg, value) {
        Ok(()) => HMC_OK,
        Err(_) => HMC_ERROR,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::HmcResponse;

    #[test]
    fn c_style_write_read_flow() {
        let mut hmc = hmcsim_init(1, 4, 32, 64, 16, 4, 128).unwrap();
        let mut packet = [0u64; 34];

        // Build and send a WR16 exactly as a C harness would.
        let len =
            hmcsim_build_memrequest(0, 0x1000, 7, HmcRqst::Wr16, 0, &[0xAA, 0xBB], &mut packet)
                .unwrap();
        assert_eq!(len, 4);
        assert_eq!(hmcsim_send(&mut hmc, 0, 0, &packet[..len]), HMC_OK);

        // Nothing back yet.
        let mut out = [0u64; 34];
        let mut out_len = 0usize;
        assert_eq!(hmcsim_recv(&mut hmc, 0, 0, &mut out, &mut out_len), HMC_STALL);

        // Clock until the ack arrives.
        for _ in 0..10 {
            hmcsim_clock(&mut hmc);
        }
        assert_eq!(hmcsim_recv(&mut hmc, 0, 0, &mut out, &mut out_len), HMC_OK);
        let decoded = hmcsim_decode_memresponse(&out[..out_len]).unwrap();
        assert_eq!(decoded.rsp_cmd, HmcResponse::WrRs);
        assert_eq!(decoded.tag, 7);

        // Read it back.
        let len = hmcsim_build_memrequest(0, 0x1000, 8, HmcRqst::Rd16, 1, &[], &mut packet)
            .unwrap();
        assert_eq!(hmcsim_send(&mut hmc, 0, 1, &packet[..len]), HMC_OK);
        for _ in 0..10 {
            hmcsim_clock(&mut hmc);
        }
        assert_eq!(hmcsim_recv(&mut hmc, 0, 1, &mut out, &mut out_len), HMC_OK);
        let decoded = hmcsim_decode_memresponse(&out[..out_len]).unwrap();
        assert_eq!(decoded.payload, vec![0xAA, 0xBB]);
    }

    #[test]
    fn build_validates_payload_and_buffer() {
        let mut packet = [0u64; 4];
        assert!(hmcsim_build_memrequest(0, 0, 0, HmcRqst::Wr16, 0, &[1], &mut packet).is_err());
        let mut tiny = [0u64; 2];
        assert!(hmcsim_build_memrequest(0, 0, 0, HmcRqst::Wr16, 0, &[1, 2], &mut tiny).is_err());
        assert!(
            hmcsim_build_memrequest(0, 0, 0, HmcRqst::Cmc(125), 0, &[], &mut packet).is_err(),
            "CMC requests go through the registry-aware path"
        );
    }

    #[test]
    fn send_rejects_garbage() {
        let mut hmc = hmcsim_init(1, 4, 32, 64, 16, 4, 128).unwrap();
        assert_eq!(hmcsim_send(&mut hmc, 0, 0, &[]), HMC_ERROR);
        // LNG=0 header.
        assert_eq!(hmcsim_send(&mut hmc, 0, 0, &[0, 0]), HMC_ERROR);
    }

    #[test]
    fn jtag_compat_paths() {
        let mut hmc = hmcsim_init(1, 8, 32, 64, 32, 8, 128).unwrap();
        let mut value = 0u64;
        assert_eq!(
            hmcsim_jtag_reg_read(&hmc, 0, crate::regs::REG_FEAT, &mut value),
            HMC_OK
        );
        assert_eq!(value, 0x88);
        assert_eq!(hmcsim_jtag_reg_write(&mut hmc, 0, crate::regs::REG_EDR0, 9), HMC_OK);
        assert_eq!(hmcsim_jtag_reg_write(&mut hmc, 0, 0x999, 9), HMC_ERROR);
    }

    #[test]
    fn load_cmc_compat() {
        hmc_cmc::ops::register_builtin_libraries();
        let mut hmc = hmcsim_init(1, 4, 32, 64, 16, 4, 128).unwrap();
        assert_eq!(hmcsim_load_cmc(&mut hmc, "libhmc_mutex.so"), HMC_OK);
        assert_eq!(hmcsim_load_cmc(&mut hmc, "libmissing.so"), HMC_ERROR);
    }

    #[test]
    fn util_decoders() {
        let hmc = hmcsim_init(1, 4, 32, 64, 16, 4, 128).unwrap();
        let (mut quad, mut vault, mut bank) = (0u32, 0u32, 0u32);
        assert_eq!(hmcsim_util_decode_qv(&hmc, 0, 9 * 64, &mut quad, &mut vault), HMC_OK);
        assert_eq!(vault, 9);
        assert_eq!(quad, 1);
        assert_eq!(hmcsim_util_decode_bank(&hmc, 0, 9 * 64, &mut bank), HMC_OK);
        assert_eq!(bank, 0);
        assert_eq!(
            hmcsim_util_decode_qv(&hmc, 0, u64::MAX, &mut quad, &mut vault),
            HMC_ERROR
        );
        assert!(hmcsim_util_is_legal_blocksize(64));
        assert!(!hmcsim_util_is_legal_blocksize(48));
    }

    #[test]
    fn errstat_round_trip_through_flat_buffers() {
        // A device whose every vault access faults: the ERRSTAT set
        // by the device must survive encode → flat buffer → accessor.
        let mut config = crate::config::DeviceConfig::gen2_4link_4gb();
        config.fault = crate::fault::FaultPlan::seeded(3).with_vault_errors(1_000_000);
        let mut hmc = HmcSim::new(config).unwrap();
        let mut packet = [0u64; 34];
        let len =
            hmcsim_build_memrequest(0, 0x40, 1, HmcRqst::Rd16, 0, &[], &mut packet).unwrap();
        assert_eq!(hmcsim_send(&mut hmc, 0, 0, &packet[..len]), HMC_OK);
        for _ in 0..10 {
            hmcsim_clock(&mut hmc);
        }
        let mut out = [0u64; 34];
        let mut out_len = 0usize;
        assert_eq!(hmcsim_recv(&mut hmc, 0, 0, &mut out, &mut out_len), HMC_OK);

        let (mut errstat, mut dinv) = (0u8, true);
        assert_eq!(
            hmcsim_util_get_errstat(&out[..out_len], &mut errstat, &mut dinv),
            HMC_OK
        );
        assert_eq!(errstat, crate::fault::ERRSTAT_VAULT_FAULT);
        assert!(!dinv);
        let decoded = hmcsim_decode_memresponse(&out[..out_len]).unwrap();
        assert_eq!(decoded.errstat, errstat);
        assert_eq!(decoded.rsp_cmd, HmcResponse::Error);
        assert!(decoded.failed());

        // A fault-free device reports a clean response.
        let mut hmc = hmcsim_init(1, 4, 32, 64, 16, 4, 128).unwrap();
        let len =
            hmcsim_build_memrequest(0, 0x40, 2, HmcRqst::Rd16, 0, &[], &mut packet).unwrap();
        assert_eq!(hmcsim_send(&mut hmc, 0, 0, &packet[..len]), HMC_OK);
        for _ in 0..10 {
            hmcsim_clock(&mut hmc);
        }
        assert_eq!(hmcsim_recv(&mut hmc, 0, 0, &mut out, &mut out_len), HMC_OK);
        let (mut errstat, mut dinv) = (0xFFu8, true);
        assert_eq!(
            hmcsim_util_get_errstat(&out[..out_len], &mut errstat, &mut dinv),
            HMC_OK
        );
        assert_eq!(errstat, 0);
        assert!(!dinv);
        assert!(!hmcsim_decode_memresponse(&out[..out_len]).unwrap().failed());
        // Malformed buffers are rejected.
        assert_eq!(hmcsim_util_get_errstat(&[], &mut errstat, &mut dinv), HMC_ERROR);
        assert_eq!(hmcsim_util_get_errstat(&[0, 0], &mut errstat, &mut dinv), HMC_ERROR);
    }

    #[test]
    fn init_validates_geometry() {
        assert!(hmcsim_init(1, 3, 32, 64, 16, 4, 128).is_err(), "3 links invalid");
        assert!(hmcsim_init(1, 4, 30, 64, 16, 4, 128).is_err(), "30 vaults not quad-divisible");
        assert!(hmcsim_init(2, 4, 32, 64, 16, 4, 128).is_ok(), "chained init");
    }

    /// A capacity whose bytes pass 64 bits is refused, not wrapped into
    /// a smaller device.
    #[test]
    fn init_refuses_a_capacity_past_64_bits() {
        for gb in [(1 << 34) + 4, 1 << 34, u64::MAX] {
            let e = hmcsim_init(1, 4, 32, 64, 16, gb, 128).map(drop).unwrap_err();
            assert!(e.to_string().contains("does not fit in 64 bits"), "{gb} GB: {e}");
        }
    }
}
