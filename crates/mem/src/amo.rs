//! Gen2 atomic memory operation (AMO) semantics.
//!
//! Each AMO is a read-modify-write performed by the vault controller
//! in the cube's logic layer (paper §III). [`execute`] applies one AMO
//! to the backing store and produces the response payload and the
//! atomic flag (AF) bit.
//!
//! Operand conventions (all little-endian):
//!
//! * `2ADD8` family — payload = two 8-byte signed immediates, added to
//!   the two 8-byte values at `addr` and `addr+8`. The `R` variant
//!   returns the two *original* values (fetch-and-add).
//! * `ADD16` family — payload = one 16-byte signed immediate added to
//!   the 16-byte value at `addr`; `R` variant returns the original.
//! * `INC8` — no payload; increments the 8-byte value at `addr`.
//! * Boolean 16-byte ops — payload = one 16-byte operand; the response
//!   carries the original 16 bytes.
//! * CAS family — payload word 0 = swap value, word 1 = compare value
//!   (8-byte ops) or words 0..2 = 16-byte swap value (`CASZERO16`).
//!   The response carries the original memory value; AF is set when
//!   the swap occurred.
//! * `EQ8`/`EQ16` — payload = comparand; 1-FLIT response with AF set
//!   on equality.
//! * `BWR` family — payload word 0 = data, word 1 = bit mask;
//!   `mem = (mem & !mask) | (data & mask)`. `BWR8R` returns the
//!   original 8 bytes.
//! * `SWAP16` — payload = 16-byte new value; returns the original.

use crate::store::SparseMemory;
use hmc_types::{HmcError, HmcRqst, PayloadBuf};

/// Result of executing an AMO: the response data payload (already in
/// 64-bit words, padded to whole FLITs by the caller's packetizer) and
/// the atomic flag.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AmoResult {
    /// Response data words (empty for ack-only AMOs such as INC8/EQ8),
    /// in the packet payload representation so the vault moves them
    /// into the response without a heap round trip.
    pub payload: PayloadBuf,
    /// The AF (atomic flag) bit: comparison outcome for CAS/EQ ops.
    pub af: bool,
}

fn check_align(addr: u64, align: u64) -> Result<(), HmcError> {
    if !addr.is_multiple_of(align) {
        return Err(HmcError::UnalignedAddress { addr, align });
    }
    Ok(())
}

fn want_operands(cmd: HmcRqst, got: usize, want: usize) -> Result<(), HmcError> {
    if got != want {
        return Err(HmcError::MalformedPacket(format!(
            "{cmd} expects {want} operand words, got {got}"
        )));
    }
    Ok(())
}

/// The 16-byte operand of a 2-FLIT atomic: payload word 0 is the low
/// half.
fn operand16(operand: &[u64]) -> u128 {
    (operand[0] as u128) | ((operand[1] as u128) << 64)
}

/// Writes a 16-byte original value over `out` as return words, low half
/// first.
fn return16(out: &mut PayloadBuf, old: u128) {
    out.copy_from(&[old as u64, (old >> 64) as u64]);
}

/// Executes one atomic memory operation against `mem`.
///
/// `operand` is the request's data payload in 64-bit words (2 words
/// for 2-FLIT atomics, empty for INC8). Returns the response payload
/// and AF bit; rejects non-atomic commands, misaligned addresses and
/// malformed operand lengths. [`execute_into`] with a payload of its
/// own to write to.
pub fn execute(
    cmd: HmcRqst,
    mem: &SparseMemory,
    addr: u64,
    operand: &[u64],
) -> Result<AmoResult, HmcError> {
    let mut payload = PayloadBuf::new();
    let af = execute_into(cmd, mem, addr, operand, &mut payload)?;
    Ok(AmoResult { payload, af })
}

/// Executes one atomic memory operation against `mem`, writing its
/// return words over `out` — the vault hands in the response envelope's
/// payload, so they are written once, where they travel. `out` ends up
/// empty for ack-only atomics and after an error.
/// Returns the AF bit.
///
/// Every read-modify-write resolves its page once, through the store's
/// `update_u64`/`update_u128`; a compare-and-swap that misses writes
/// nothing, so it never materializes a page.
pub fn execute_into(
    cmd: HmcRqst,
    mem: &SparseMemory,
    addr: u64,
    operand: &[u64],
    out: &mut PayloadBuf,
) -> Result<bool, HmcError> {
    // Ack-only unless an arm below writes return words.
    out.clear();
    match cmd {
        // ---- dual 8-byte signed add immediate ----
        HmcRqst::TwoAdd8 | HmcRqst::P2Add8 | HmcRqst::TwoAddS8R => {
            check_align(addr, 16)?;
            want_operands(cmd, operand.len(), 2)?;
            // Both lanes live in one aligned 16-byte block.
            let old = mem.update_u128(addr, |old| {
                let lo = (old as u64 as i64).wrapping_add(operand[0] as i64) as u64;
                let hi = ((old >> 64) as u64 as i64).wrapping_add(operand[1] as i64) as u64;
                Some((lo as u128) | ((hi as u128) << 64))
            })?;
            if cmd == HmcRqst::TwoAddS8R {
                return16(out, old);
            }
            Ok(false)
        }
        // ---- single 16-byte signed add immediate ----
        HmcRqst::Add16 | HmcRqst::PAdd16 | HmcRqst::AddS16R => {
            check_align(addr, 16)?;
            want_operands(cmd, operand.len(), 2)?;
            let imm = operand16(operand);
            let old = mem
                .update_u128(addr, |old| Some((old as i128).wrapping_add(imm as i128) as u128))?;
            if cmd == HmcRqst::AddS16R {
                return16(out, old);
            }
            Ok(false)
        }
        // ---- 8-byte increment ----
        HmcRqst::Inc8 | HmcRqst::PInc8 => {
            check_align(addr, 8)?;
            want_operands(cmd, operand.len(), 0)?;
            mem.update_u64(addr, |old| Some(old.wrapping_add(1)))?;
            Ok(false)
        }
        // ---- 16-byte boolean ops (return original data) ----
        HmcRqst::Xor16 | HmcRqst::Or16 | HmcRqst::Nor16 | HmcRqst::And16 | HmcRqst::Nand16 => {
            check_align(addr, 16)?;
            want_operands(cmd, operand.len(), 2)?;
            let op = operand16(operand);
            let old = mem.update_u128(addr, |old| {
                Some(match cmd {
                    HmcRqst::Xor16 => old ^ op,
                    HmcRqst::Or16 => old | op,
                    HmcRqst::Nor16 => !(old | op),
                    HmcRqst::And16 => old & op,
                    HmcRqst::Nand16 => !(old & op),
                    _ => unreachable!("boolean arm"),
                })
            })?;
            return16(out, old);
            Ok(false)
        }
        // ---- 8-byte compare-and-swap family ----
        HmcRqst::CasGt8 | HmcRqst::CasLt8 | HmcRqst::CasEq8 => {
            check_align(addr, 8)?;
            want_operands(cmd, operand.len(), 2)?;
            let (swap, cmp) = (operand[0], operand[1]);
            let mut hit = false;
            let old = mem.update_u64(addr, |old| {
                hit = match cmd {
                    HmcRqst::CasGt8 => (old as i64) > (cmp as i64),
                    HmcRqst::CasLt8 => (old as i64) < (cmp as i64),
                    HmcRqst::CasEq8 => old == cmp,
                    _ => unreachable!("cas8 arm"),
                };
                hit.then_some(swap)
            })?;
            out.copy_from(&[old, 0]);
            Ok(hit)
        }
        // ---- 16-byte compare-and-swap family ----
        HmcRqst::CasGt16 | HmcRqst::CasLt16 | HmcRqst::CasZero16 => {
            check_align(addr, 16)?;
            want_operands(cmd, operand.len(), 2)?;
            let swap = operand16(operand);
            let mut hit = false;
            let old = mem.update_u128(addr, |old| {
                hit = match cmd {
                    // 16-byte comparisons are against the swap operand
                    // itself (the spec's "CAS if greater/less than").
                    HmcRqst::CasGt16 => (old as i128) > (swap as i128),
                    HmcRqst::CasLt16 => (old as i128) < (swap as i128),
                    HmcRqst::CasZero16 => old == 0,
                    _ => unreachable!("cas16 arm"),
                };
                hit.then_some(swap)
            })?;
            return16(out, old);
            Ok(hit)
        }
        // ---- equality probes (ack-only responses, AF = outcome) ----
        HmcRqst::Eq8 => {
            check_align(addr, 8)?;
            want_operands(cmd, operand.len(), 2)?;
            let old = mem.read_u64(addr)?;
            Ok(old == operand[0])
        }
        HmcRqst::Eq16 => {
            check_align(addr, 16)?;
            want_operands(cmd, operand.len(), 2)?;
            let old = mem.read_u128(addr)?;
            Ok(old == operand16(operand))
        }
        // ---- 8-byte bit write ----
        HmcRqst::Bwr | HmcRqst::PBwr | HmcRqst::Bwr8R => {
            check_align(addr, 8)?;
            want_operands(cmd, operand.len(), 2)?;
            let (data, mask) = (operand[0], operand[1]);
            let old = mem.update_u64(addr, |old| Some((old & !mask) | (data & mask)))?;
            if cmd == HmcRqst::Bwr8R {
                out.copy_from(&[old, 0]);
            }
            Ok(false)
        }
        // ---- 16-byte swap/exchange ----
        HmcRqst::Swap16 => {
            check_align(addr, 16)?;
            want_operands(cmd, operand.len(), 2)?;
            let new = operand16(operand);
            let old = mem.update_u128(addr, |_| Some(new))?;
            return16(out, old);
            Ok(false)
        }
        other => Err(HmcError::MalformedPacket(format!(
            "{other} is not an atomic memory operation"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> SparseMemory {
        SparseMemory::new(1 << 20)
    }

    #[test]
    fn two_add8_adds_both_lanes() {
        let m = mem();
        m.write_u64(0x40, 100).unwrap();
        m.write_u64(0x48, u64::MAX).unwrap(); // -1 as i64
        let r = execute(HmcRqst::TwoAdd8, &m, 0x40, &[5, 2]).unwrap();
        assert!(r.payload.is_empty());
        assert_eq!(m.read_u64(0x40).unwrap(), 105);
        assert_eq!(m.read_u64(0x48).unwrap(), 1);
    }

    #[test]
    fn two_adds8r_returns_originals() {
        let m = mem();
        m.write_u64(0x40, 7).unwrap();
        m.write_u64(0x48, 9).unwrap();
        let r = execute(HmcRqst::TwoAddS8R, &m, 0x40, &[1, 1]).unwrap();
        assert_eq!(r.payload, vec![7, 9]);
        assert_eq!(m.read_u64(0x40).unwrap(), 8);
    }

    #[test]
    fn two_add8_negative_immediate() {
        let m = mem();
        m.write_u64(0x40, 10).unwrap();
        let minus_three = (-3i64) as u64;
        execute(HmcRqst::P2Add8, &m, 0x40, &[minus_three, 0]).unwrap();
        assert_eq!(m.read_u64(0x40).unwrap(), 7);
    }

    #[test]
    fn add16_full_width_carry() {
        let m = mem();
        m.write_u128(0x40, u64::MAX as u128).unwrap();
        execute(HmcRqst::Add16, &m, 0x40, &[1, 0]).unwrap();
        assert_eq!(m.read_u128(0x40).unwrap(), (u64::MAX as u128) + 1);
    }

    #[test]
    fn adds16r_returns_original() {
        let m = mem();
        m.write_u128(0x40, 0xAAAA_0000_BBBBu128).unwrap();
        let r = execute(HmcRqst::AddS16R, &m, 0x40, &[1, 0]).unwrap();
        assert_eq!(r.payload, vec![0xAAAA_0000_BBBB, 0]);
    }

    #[test]
    fn inc8_wraps() {
        let m = mem();
        m.write_u64(0x8, u64::MAX).unwrap();
        execute(HmcRqst::Inc8, &m, 0x8, &[]).unwrap();
        assert_eq!(m.read_u64(0x8).unwrap(), 0);
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn boolean_ops_semantics() {
        let cases: [(HmcRqst, fn(u128, u128) -> u128); 5] = [
            (HmcRqst::Xor16, |a, b| a ^ b),
            (HmcRqst::Or16, |a, b| a | b),
            (HmcRqst::Nor16, |a, b| !(a | b)),
            (HmcRqst::And16, |a, b| a & b),
            (HmcRqst::Nand16, |a, b| !(a & b)),
        ];
        for (cmd, f) in cases {
            let m = mem();
            let init = 0xF0F0_F0F0_F0F0_F0F0_0F0F_0F0F_0F0F_0F0Fu128;
            let op = 0x00FF_00FF_00FF_00FF_FF00_FF00_FF00_FF00u128;
            m.write_u128(0x40, init).unwrap();
            let r = execute(cmd, &m, 0x40, &[op as u64, (op >> 64) as u64]).unwrap();
            assert_eq!(m.read_u128(0x40).unwrap(), f(init, op), "{cmd}");
            assert_eq!(r.payload, vec![init as u64, (init >> 64) as u64], "{cmd} returns old");
        }
    }

    #[test]
    fn caseq8_swaps_only_on_equality() {
        let m = mem();
        m.write_u64(0x40, 5).unwrap();
        let miss = execute(HmcRqst::CasEq8, &m, 0x40, &[99, 4]).unwrap();
        assert!(!miss.af);
        assert_eq!(m.read_u64(0x40).unwrap(), 5);
        let hit = execute(HmcRqst::CasEq8, &m, 0x40, &[99, 5]).unwrap();
        assert!(hit.af);
        assert_eq!(hit.payload[0], 5);
        assert_eq!(m.read_u64(0x40).unwrap(), 99);
    }

    #[test]
    fn casgt8_signed_comparison() {
        let m = mem();
        m.write_u64(0x40, (-2i64) as u64).unwrap();
        // mem (-2) > cmp (-5) -> swap
        let r = execute(HmcRqst::CasGt8, &m, 0x40, &[1, (-5i64) as u64]).unwrap();
        assert!(r.af);
        assert_eq!(m.read_u64(0x40).unwrap(), 1);
        // mem (1) > cmp (3)? no
        let r = execute(HmcRqst::CasGt8, &m, 0x40, &[7, 3]).unwrap();
        assert!(!r.af);
        assert_eq!(m.read_u64(0x40).unwrap(), 1);
    }

    #[test]
    fn caslt8() {
        let m = mem();
        m.write_u64(0x40, 3).unwrap();
        let r = execute(HmcRqst::CasLt8, &m, 0x40, &[10, 5]).unwrap();
        assert!(r.af, "3 < 5 swaps");
        assert_eq!(m.read_u64(0x40).unwrap(), 10);
    }

    #[test]
    fn caszero16() {
        let m = mem();
        let r = execute(HmcRqst::CasZero16, &m, 0x40, &[0xAB, 0xCD]).unwrap();
        assert!(r.af, "zero memory swaps");
        assert_eq!(m.read_u64(0x40).unwrap(), 0xAB);
        assert_eq!(m.read_u64(0x48).unwrap(), 0xCD);
        let r = execute(HmcRqst::CasZero16, &m, 0x40, &[1, 1]).unwrap();
        assert!(!r.af, "nonzero memory does not swap");
        assert_eq!(r.payload, vec![0xAB, 0xCD], "returns original");
    }

    #[test]
    fn cas16_signed_comparisons() {
        let m = mem();
        m.write_u128(0x40, (-4i128) as u128).unwrap();
        // mem (-4) < swap (10) -> CASLT16 swaps
        let r = execute(HmcRqst::CasLt16, &m, 0x40, &[10, 0]).unwrap();
        assert!(r.af);
        assert_eq!(m.read_u128(0x40).unwrap(), 10);
        // mem (10) > swap (3) -> CASGT16 swaps
        let r = execute(HmcRqst::CasGt16, &m, 0x40, &[3, 0]).unwrap();
        assert!(r.af);
        assert_eq!(m.read_u128(0x40).unwrap(), 3);
    }

    #[test]
    fn eq_probes() {
        let m = mem();
        m.write_u64(0x40, 0x77).unwrap();
        assert!(execute(HmcRqst::Eq8, &m, 0x40, &[0x77, 0]).unwrap().af);
        assert!(!execute(HmcRqst::Eq8, &m, 0x40, &[0x78, 0]).unwrap().af);
        m.write_u128(0x80, 0x1234_0000_5678u128).unwrap();
        assert!(execute(HmcRqst::Eq16, &m, 0x80, &[0x1234_0000_5678, 0]).unwrap().af);
        assert!(!execute(HmcRqst::Eq16, &m, 0x80, &[0, 1]).unwrap().af);
    }

    #[test]
    fn bit_write_masks() {
        let m = mem();
        m.write_u64(0x40, 0xFFFF_FFFF_FFFF_FFFF).unwrap();
        execute(HmcRqst::Bwr, &m, 0x40, &[0x0000_0000_AAAA_0000, 0x0000_0000_FFFF_0000])
            .unwrap();
        assert_eq!(m.read_u64(0x40).unwrap(), 0xFFFF_FFFF_AAAA_FFFF);
    }

    #[test]
    fn bwr8r_returns_original() {
        let m = mem();
        m.write_u64(0x40, 0x1111).unwrap();
        let r = execute(HmcRqst::Bwr8R, &m, 0x40, &[0xFF, 0xFF]).unwrap();
        assert_eq!(r.payload[0], 0x1111);
        assert_eq!(m.read_u64(0x40).unwrap(), 0x11FF);
    }

    #[test]
    fn swap16_exchanges() {
        let m = mem();
        m.write_u128(0x40, 111).unwrap();
        let r = execute(HmcRqst::Swap16, &m, 0x40, &[222, 0]).unwrap();
        assert_eq!(r.payload, vec![111, 0]);
        assert_eq!(m.read_u128(0x40).unwrap(), 222);
    }

    #[test]
    fn alignment_enforced() {
        let m = mem();
        assert!(matches!(
            execute(HmcRqst::Inc8, &m, 0x41, &[]),
            Err(HmcError::UnalignedAddress { align: 8, .. })
        ));
        assert!(matches!(
            execute(HmcRqst::Add16, &m, 0x48, &[0, 0]),
            Err(HmcError::UnalignedAddress { align: 16, .. })
        ));
    }

    #[test]
    fn operand_arity_enforced() {
        let m = mem();
        assert!(execute(HmcRqst::Inc8, &m, 0x40, &[1]).is_err());
        assert!(execute(HmcRqst::Add16, &m, 0x40, &[1]).is_err());
        assert!(execute(HmcRqst::CasEq8, &m, 0x40, &[1, 2, 3]).is_err());
    }

    #[test]
    fn non_atomic_command_rejected() {
        let m = mem();
        assert!(execute(HmcRqst::Rd64, &m, 0x40, &[]).is_err());
        assert!(execute(HmcRqst::Cmc(125), &m, 0x40, &[]).is_err());
    }

    #[test]
    fn posted_variants_mutate_without_payload() {
        let m = mem();
        for cmd in [HmcRqst::P2Add8, HmcRqst::PAdd16, HmcRqst::PBwr] {
            let r = execute(cmd, &m, 0x40, &[1, 1]).unwrap();
            assert!(r.payload.is_empty(), "{cmd}");
        }
        let r = execute(HmcRqst::PInc8, &m, 0x40, &[]).unwrap();
        assert!(r.payload.is_empty());
    }

    /// The atomics as they were before the store could update a cell in
    /// place: every operation a read followed by a write, each
    /// resolving its page. Kept as the oracle for
    /// `execute_matches_the_read_then_write_reference`.
    mod reference {
        use super::super::{check_align, want_operands, AmoResult};
        use crate::store::SparseMemory;
        use hmc_types::{HmcError, HmcRqst, PayloadBuf};

        pub(super) fn execute(
            cmd: HmcRqst,
            mem: &SparseMemory,
            addr: u64,
            operand: &[u64],
        ) -> Result<AmoResult, HmcError> {
            match cmd {
                // ---- dual 8-byte signed add immediate ----
                HmcRqst::TwoAdd8 | HmcRqst::P2Add8 | HmcRqst::TwoAddS8R => {
                    check_align(addr, 16)?;
                    want_operands(cmd, operand.len(), 2)?;
                    let old0 = mem.read_u64(addr)?;
                    let old1 = mem.read_u64(addr + 8)?;
                    mem.write_u64(addr, (old0 as i64).wrapping_add(operand[0] as i64) as u64)?;
                    mem.write_u64(addr + 8, (old1 as i64).wrapping_add(operand[1] as i64) as u64)?;
                    let payload = if cmd == HmcRqst::TwoAddS8R {
                        [old0, old1].into()
                    } else {
                        PayloadBuf::new()
                    };
                    Ok(AmoResult { payload, af: false })
                }
                // ---- single 16-byte signed add immediate ----
                HmcRqst::Add16 | HmcRqst::PAdd16 | HmcRqst::AddS16R => {
                    check_align(addr, 16)?;
                    want_operands(cmd, operand.len(), 2)?;
                    let old = mem.read_u128(addr)?;
                    let imm = (operand[0] as u128) | ((operand[1] as u128) << 64);
                    mem.write_u128(addr, (old as i128).wrapping_add(imm as i128) as u128)?;
                    let payload = if cmd == HmcRqst::AddS16R {
                        [old as u64, (old >> 64) as u64].into()
                    } else {
                        PayloadBuf::new()
                    };
                    Ok(AmoResult { payload, af: false })
                }
                // ---- 8-byte increment ----
                HmcRqst::Inc8 | HmcRqst::PInc8 => {
                    check_align(addr, 8)?;
                    want_operands(cmd, operand.len(), 0)?;
                    let old = mem.read_u64(addr)?;
                    mem.write_u64(addr, old.wrapping_add(1))?;
                    Ok(AmoResult::default())
                }
                // ---- 16-byte boolean ops (return original data) ----
                HmcRqst::Xor16 | HmcRqst::Or16 | HmcRqst::Nor16 | HmcRqst::And16 | HmcRqst::Nand16 => {
                    check_align(addr, 16)?;
                    want_operands(cmd, operand.len(), 2)?;
                    let old = mem.read_u128(addr)?;
                    let op = (operand[0] as u128) | ((operand[1] as u128) << 64);
                    let new = match cmd {
                        HmcRqst::Xor16 => old ^ op,
                        HmcRqst::Or16 => old | op,
                        HmcRqst::Nor16 => !(old | op),
                        HmcRqst::And16 => old & op,
                        HmcRqst::Nand16 => !(old & op),
                        _ => unreachable!("boolean arm"),
                    };
                    mem.write_u128(addr, new)?;
                    Ok(AmoResult { payload: [old as u64, (old >> 64) as u64].into(), af: false })
                }
                // ---- 8-byte compare-and-swap family ----
                HmcRqst::CasGt8 | HmcRqst::CasLt8 | HmcRqst::CasEq8 => {
                    check_align(addr, 8)?;
                    want_operands(cmd, operand.len(), 2)?;
                    let (swap, cmp) = (operand[0], operand[1]);
                    let old = mem.read_u64(addr)?;
                    let hit = match cmd {
                        HmcRqst::CasGt8 => (old as i64) > (cmp as i64),
                        HmcRqst::CasLt8 => (old as i64) < (cmp as i64),
                        HmcRqst::CasEq8 => old == cmp,
                        _ => unreachable!("cas8 arm"),
                    };
                    if hit {
                        mem.write_u64(addr, swap)?;
                    }
                    Ok(AmoResult { payload: [old, 0].into(), af: hit })
                }
                // ---- 16-byte compare-and-swap family ----
                HmcRqst::CasGt16 | HmcRqst::CasLt16 | HmcRqst::CasZero16 => {
                    check_align(addr, 16)?;
                    want_operands(cmd, operand.len(), 2)?;
                    let swap = (operand[0] as u128) | ((operand[1] as u128) << 64);
                    let old = mem.read_u128(addr)?;
                    let hit = match cmd {
                        // 16-byte comparisons are against the swap operand
                        // itself (the spec's "CAS if greater/less than").
                        HmcRqst::CasGt16 => (old as i128) > (swap as i128),
                        HmcRqst::CasLt16 => (old as i128) < (swap as i128),
                        HmcRqst::CasZero16 => old == 0,
                        _ => unreachable!("cas16 arm"),
                    };
                    if hit {
                        mem.write_u128(addr, swap)?;
                    }
                    Ok(AmoResult { payload: [old as u64, (old >> 64) as u64].into(), af: hit })
                }
                // ---- equality probes (ack-only responses, AF = outcome) ----
                HmcRqst::Eq8 => {
                    check_align(addr, 8)?;
                    want_operands(cmd, operand.len(), 2)?;
                    let old = mem.read_u64(addr)?;
                    Ok(AmoResult { payload: PayloadBuf::new(), af: old == operand[0] })
                }
                HmcRqst::Eq16 => {
                    check_align(addr, 16)?;
                    want_operands(cmd, operand.len(), 2)?;
                    let old = mem.read_u128(addr)?;
                    let cmp = (operand[0] as u128) | ((operand[1] as u128) << 64);
                    Ok(AmoResult { payload: PayloadBuf::new(), af: old == cmp })
                }
                // ---- 8-byte bit write ----
                HmcRqst::Bwr | HmcRqst::PBwr | HmcRqst::Bwr8R => {
                    check_align(addr, 8)?;
                    want_operands(cmd, operand.len(), 2)?;
                    let (data, mask) = (operand[0], operand[1]);
                    let old = mem.read_u64(addr)?;
                    mem.write_u64(addr, (old & !mask) | (data & mask))?;
                    let payload = if cmd == HmcRqst::Bwr8R {
                        [old, 0].into()
                    } else {
                        PayloadBuf::new()
                    };
                    Ok(AmoResult { payload, af: false })
                }
                // ---- 16-byte swap/exchange ----
                HmcRqst::Swap16 => {
                    check_align(addr, 16)?;
                    want_operands(cmd, operand.len(), 2)?;
                    let new = (operand[0] as u128) | ((operand[1] as u128) << 64);
                    let old = mem.read_u128(addr)?;
                    mem.write_u128(addr, new)?;
                    Ok(AmoResult { payload: [old as u64, (old >> 64) as u64].into(), af: false })
                }
                other => Err(HmcError::MalformedPacket(format!(
                    "{other} is not an atomic memory operation"
                ))),
            }
        }
    }

    proptest::proptest! {
        /// Every atomic command, on an untouched store, on a resident
        /// page and on the last cell of a page, leaves the result, the
        /// memory content and the set of resident pages the reference
        /// leaves — so a compare-and-swap that misses on untouched
        /// memory still materializes nothing.
        #[test]
        fn execute_matches_the_read_then_write_reference(
            init in (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
            drawn in (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
            relate in 0u8..5,
        ) {
            use crate::store::PAGE_BYTES;
            // Unrelated operands rarely satisfy a comparison: tie them
            // to memory, or memory to zero, in most cases.
            let (init, operand) = match relate {
                0 => (init, [drawn.0, init.0]),          // CASEQ8 / EQ8 hit
                1 => (init, [init.0, init.1]),           // EQ16 hits
                2 => ((0, 0), [drawn.0, drawn.1]),       // CASZERO16 hits
                3 => (init, [drawn.0 >> 1, drawn.1 >> 1]), // positive swap value
                _ => (init, [drawn.0, drawn.1]),
            };
            let atomics = HmcRqst::STANDARD.iter().copied().filter(|cmd| {
                matches!(cmd.kind(), hmc_types::CmdKind::Atomic | hmc_types::CmdKind::PostedAtomic)
            });
            let page = PAGE_BYTES as u64;
            let mut seen = 0;
            for cmd in atomics {
                seen += 1;
                let bytes = cmd.fixed_info().expect("standard").data_bytes as u64;
                let operand = if matches!(cmd, HmcRqst::Inc8 | HmcRqst::PInc8) {
                    &[][..]
                } else {
                    &operand[..]
                };
                // (address, whether the surrounding pages are written first)
                for (addr, resident) in [(0x40, false), (0x40, true), (2 * page - bytes, true)] {
                    let (got, want) = (SparseMemory::new(1 << 16), SparseMemory::new(1 << 16));
                    for mem in [&got, &want] {
                        if resident {
                            mem.write_words(addr & !15, &[init.0, init.1]).unwrap();
                            mem.write_u64(2 * page, !init.0).unwrap();
                        }
                    }
                    let got_r = execute(cmd, &got, addr, operand);
                    let want_r = reference::execute(cmd, &want, addr, operand);
                    proptest::prop_assert!(want_r.is_ok(), "{cmd} at {addr:#x}: {want_r:?}");
                    proptest::prop_assert_eq!(&got_r, &want_r, "{} at {:#x}", cmd, addr);
                    proptest::prop_assert_eq!(
                        (got.resident_pages(), got.content_digest()),
                        (want.resident_pages(), want.content_digest()),
                        "{} at {:#x}, resident {}", cmd, addr, resident
                    );
                }
            }
            proptest::prop_assert_eq!(seen, 25, "every atomic row of the command table");
        }
    }
}
