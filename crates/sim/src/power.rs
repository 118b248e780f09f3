//! Per-event energy accounting.
//!
//! The paper's §VII names timing/power resolution as the main future
//! work for HMC-Sim; this module implements it as an extension. The
//! model is deliberately simple: each link FLIT, DRAM access,
//! logic-layer operation and idle cycle contributes a fixed energy, and
//! [`PowerReport`] converts the total into average power at a fixed
//! clock.
//!
//! The coefficients follow the published HMC energy envelope
//! (~10.48 pJ/bit link+DRAM energy split across SerDes and vault
//! access, Rosenfeld's dissertation figures) but are intentionally
//! round numbers — the model is for *relative* comparisons between
//! command mixes, not absolute silicon validation. They are constants:
//! no configuration or snapshot sets them.

/// Energy to move one FLIT across a link (SerDes + transport), in pJ:
/// 128 bits at ~10.48 pJ/bit.
pub const LINK_FLIT_PJ: f64 = 1340.0;
/// Energy of one DRAM bank access (activate + column access for a
/// 16-byte block), in pJ.
pub const DRAM_ACCESS_PJ: f64 = 2200.0;
/// Energy of one logic-layer ALU operation (atomics, CMC), in pJ.
pub const LOGIC_OP_PJ: f64 = 150.0;
/// Static leakage per device cycle, in pJ.
pub const IDLE_CYCLE_PJ: f64 = 50.0;
/// Device clock frequency in Hz (for average-power reporting).
pub const CLOCK_HZ: f64 = 1.25e9;

/// Accumulated energy events for one device.
#[derive(Debug, Clone, Default)]
pub struct PowerModel {
    link_flits: u64,
    pub(crate) dram_accesses: u64,
    logic_ops: u64,
    cycles: u64,
}

crate::stats::counter_table!(PowerModel { link_flits, dram_accesses, logic_ops, cycles });

impl PowerModel {
    /// Records link FLIT transfers.
    pub fn add_link_flits(&mut self, flits: u64) {
        self.link_flits += flits;
    }

    /// Records DRAM bank accesses.
    pub fn add_dram_access(&mut self) {
        self.dram_accesses += 1;
    }

    /// Records a logic-layer operation (atomic or CMC execute).
    pub fn add_logic_op(&mut self) {
        self.logic_ops += 1;
    }

    /// Records elapsed cycles (leakage, linear in them: one call for a
    /// skipped idle run is `cycles` calls for one cycle each).
    pub fn add_cycles(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Produces the report.
    pub fn report(&self) -> PowerReport {
        let link = self.link_flits as f64 * LINK_FLIT_PJ;
        let dram = self.dram_accesses as f64 * DRAM_ACCESS_PJ;
        let logic = self.logic_ops as f64 * LOGIC_OP_PJ;
        let idle = self.cycles as f64 * IDLE_CYCLE_PJ;
        let total = link + dram + logic + idle;
        let seconds = self.cycles as f64 / CLOCK_HZ;
        PowerReport {
            link_pj: link,
            dram_pj: dram,
            logic_pj: logic,
            idle_pj: idle,
            total_pj: total,
            avg_watts: if seconds > 0.0 { total * 1e-12 / seconds } else { 0.0 },
            cycles: self.cycles,
        }
    }
}

/// The energy breakdown for one device over a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerReport {
    /// Link transport energy (pJ).
    pub link_pj: f64,
    /// DRAM access energy (pJ).
    pub dram_pj: f64,
    /// Logic-layer operation energy (pJ).
    pub logic_pj: f64,
    /// Leakage energy (pJ).
    pub idle_pj: f64,
    /// Total energy (pJ).
    pub total_pj: f64,
    /// Average power over the simulated interval (W).
    pub avg_watts: f64,
    /// Simulated cycles covered by the report.
    pub cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_accumulates_by_class() {
        let mut p = PowerModel::default();
        p.add_link_flits(4);
        p.add_dram_access();
        p.add_logic_op();
        p.add_cycles(10);
        let r = p.report();
        assert_eq!(r.link_pj, 5360.0);
        assert_eq!(r.dram_pj, 2200.0);
        assert_eq!(r.logic_pj, 150.0);
        assert_eq!(r.idle_pj, 500.0);
        assert_eq!(r.total_pj, 8210.0);
        assert_eq!(r.cycles, 10);
        // 8210 pJ over 10 cycles at 1.25 GHz (8 ns) = 1.02625 W
        assert!((r.avg_watts - 1.02625).abs() < 1e-9);
    }

    #[test]
    fn empty_model_reports_zero() {
        let r = PowerModel::default().report();
        assert_eq!(r.total_pj, 0.0);
        assert_eq!(r.avg_watts, 0.0);
    }

    #[test]
    fn amo_beats_cache_rmw_in_link_energy() {
        // Table II in energy form: 12 FLITs vs 2 FLITs.
        let mut cache = PowerModel::default();
        cache.add_link_flits(12);
        let mut hmc = PowerModel::default();
        hmc.add_link_flits(2);
        assert!(cache.report().link_pj / hmc.report().link_pj > 5.9);
    }
}
