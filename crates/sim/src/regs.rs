//! The device register file and simulated JTAG access.
//!
//! HMC-Sim 1.0 exposed internal device registers both through the
//! in-band mode commands (`MD_RD`/`MD_WR`) and through an out-of-band
//! simulated JTAG API (paper §II); both paths are carried forward
//! here. Register identifiers follow the HMC-Sim convention.

use hmc_types::HmcError;

/// External data register 0.
pub const REG_EDR0: u32 = 0x2B0;
/// External data register 1.
pub const REG_EDR1: u32 = 0x2B1;
/// External data register 2.
pub const REG_EDR2: u32 = 0x2B2;
/// External data register 3.
pub const REG_EDR3: u32 = 0x2B3;
/// External request register.
pub const REG_ERR: u32 = 0x2B4;
/// Global configuration register.
pub const REG_GC: u32 = 0x280;
/// Link configuration register (per-device aggregate).
pub const REG_LC: u32 = 0x240;
/// Link retry register.
pub const REG_LRLL: u32 = 0x2C0;
/// Global retry register.
pub const REG_GRLL: u32 = 0x2C4;
/// Vault control register.
pub const REG_VCR: u32 = 0x108;
/// Features register (read-only: capacity and link count).
pub const REG_FEAT: u32 = 0x2C8;
/// Revisions and vendor ID register (read-only).
pub const REG_RVID: u32 = 0x2CC;

/// Revision/vendor value reported by [`REG_RVID`]: HMC spec 2.1,
/// vendor field set to the simulator's id.
pub const RVID_VALUE: u64 = 0x0000_0000_0021_0051;

const WRITABLE: &[u32] = &[
    REG_EDR0, REG_EDR1, REG_EDR2, REG_EDR3, REG_ERR, REG_GC, REG_LC, REG_LRLL, REG_GRLL, REG_VCR,
];
const READ_ONLY: &[u32] = &[REG_FEAT, REG_RVID];

/// One device's register file.
#[derive(Debug, Clone)]
pub struct RegisterFile {
    regs: std::collections::BTreeMap<u32, u64>,
}

impl RegisterFile {
    /// Creates the register file with reset values derived from the
    /// device geometry: `FEAT[3:0]` = capacity in GB, `FEAT[7:4]` =
    /// link count.
    pub fn new(capacity_bytes: u64, links: usize) -> Self {
        let mut regs = std::collections::BTreeMap::new();
        for &r in WRITABLE {
            regs.insert(r, 0);
        }
        let feat = (capacity_bytes >> 30) & 0xF | (((links as u64) & 0xF) << 4);
        regs.insert(REG_FEAT, feat);
        regs.insert(REG_RVID, RVID_VALUE);
        RegisterFile { regs }
    }

    /// Reads a register (JTAG or `MD_RD` path).
    pub fn read(&self, reg: u32) -> Result<u64, HmcError> {
        self.regs
            .get(&reg)
            .copied()
            .ok_or(HmcError::InvalidRegister(reg))
    }

    /// Writes a register (JTAG or `MD_WR` path). Read-only registers
    /// reject writes.
    pub fn write(&mut self, reg: u32, value: u64) -> Result<(), HmcError> {
        if READ_ONLY.contains(&reg) {
            return Err(HmcError::InvalidRegister(reg));
        }
        let slot = self
            .regs
            .get_mut(&reg)
            .ok_or(HmcError::InvalidRegister(reg))?;
        *slot = value;
        Ok(())
    }

    /// Every register as `(id, value)`, in ascending id order.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.regs.iter().map(|(&id, &value)| (id, value))
    }

    /// Rebuilds a register file from checkpointed `(id, value)`
    /// entries verbatim — bypasses the read-only write guard, which
    /// would otherwise reject restoring `FEAT`/`RVID`.
    pub(crate) fn from_entries(entries: impl IntoIterator<Item = (u32, u64)>) -> Self {
        RegisterFile { regs: entries.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_values_encode_geometry() {
        let rf = RegisterFile::new(4 << 30, 4);
        assert_eq!(rf.read(REG_FEAT).unwrap(), 0x44);
        let rf8 = RegisterFile::new(8 << 30, 8);
        assert_eq!(rf8.read(REG_FEAT).unwrap(), 0x88);
        assert_eq!(rf8.read(REG_RVID).unwrap(), RVID_VALUE);
    }

    #[test]
    fn write_read_cycle() {
        let mut rf = RegisterFile::new(4 << 30, 4);
        rf.write(REG_EDR0, 0xDEAD).unwrap();
        assert_eq!(rf.read(REG_EDR0).unwrap(), 0xDEAD);
    }

    #[test]
    fn read_only_registers_reject_writes() {
        let mut rf = RegisterFile::new(4 << 30, 4);
        assert!(rf.write(REG_FEAT, 0).is_err());
        assert!(rf.write(REG_RVID, 0).is_err());
    }

    #[test]
    fn unknown_register_rejected() {
        let mut rf = RegisterFile::new(4 << 30, 4);
        assert!(rf.read(0x999).is_err());
        assert!(rf.write(0x999, 1).is_err());
    }

    #[test]
    fn register_inventory() {
        let rf = RegisterFile::new(4 << 30, 4);
        let ids: Vec<u32> = rf.entries().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), 12);
        assert!(ids.contains(&REG_VCR));
    }
}
