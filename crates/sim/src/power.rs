//! Per-event energy accounting.
//!
//! The paper's §VII names timing/power resolution as the main future
//! work for HMC-Sim; this module implements it as an extension. The
//! model is deliberately simple and fully parameterized: each link
//! FLIT, DRAM access, logic-layer operation and idle cycle contributes
//! a configurable energy, and [`PowerReport`] converts the total into
//! average power at a configured clock.
//!
//! Default coefficients follow the published HMC energy envelope
//! (~10.48 pJ/bit link+DRAM energy split across SerDes and vault
//! access, Rosenfeld's dissertation figures) but are intentionally
//! round numbers — the model is for *relative* comparisons between
//! command mixes, not absolute silicon validation.

/// Energy coefficients in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerConfig {
    /// Energy to move one FLIT across a link (SerDes + transport).
    pub link_flit_pj: f64,
    /// Energy of one DRAM bank access (activate + column access for a
    /// 16-byte block).
    pub dram_access_pj: f64,
    /// Energy of one logic-layer ALU operation (atomics, CMC).
    pub logic_op_pj: f64,
    /// Static leakage per device cycle.
    pub idle_cycle_pj: f64,
    /// Device clock frequency in Hz (for average-power reporting).
    pub clock_hz: f64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            link_flit_pj: 1340.0, // 128 bits * ~10.48 pJ/bit
            dram_access_pj: 2200.0,
            logic_op_pj: 150.0,
            idle_cycle_pj: 50.0,
            clock_hz: 1.25e9,
        }
    }
}

/// Accumulated energy for one device.
#[derive(Debug, Clone, Default)]
pub struct PowerModel {
    config: PowerConfig,
    link_flits: u64,
    dram_accesses: u64,
    logic_ops: u64,
    cycles: u64,
}

impl PowerModel {
    /// Creates a model with the given coefficients.
    pub fn new(config: PowerConfig) -> Self {
        PowerModel { config, ..Default::default() }
    }

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

    /// The model's coefficients.
    pub fn config(&self) -> PowerConfig {
        self.config
    }

    /// The raw event counters `(link_flits, dram_accesses, logic_ops,
    /// cycles)` for checkpoint serialization.
    pub(crate) fn counters(&self) -> (u64, u64, u64, u64) {
        (self.link_flits, self.dram_accesses, self.logic_ops, self.cycles)
    }

    /// Rebuilds a model from checkpointed coefficients and counters.
    pub(crate) fn from_parts(
        config: PowerConfig,
        link_flits: u64,
        dram_accesses: u64,
        logic_ops: u64,
        cycles: u64,
    ) -> Self {
        PowerModel { config, link_flits, dram_accesses, logic_ops, cycles }
    }

    /// Produces the report.
    pub fn report(&self) -> PowerReport {
        let c = &self.config;
        let link = self.link_flits as f64 * c.link_flit_pj;
        let dram = self.dram_accesses as f64 * c.dram_access_pj;
        let logic = self.logic_ops as f64 * c.logic_op_pj;
        let idle = self.cycles as f64 * c.idle_cycle_pj;
        let total = link + dram + logic + idle;
        let seconds = if c.clock_hz > 0.0 { self.cycles as f64 / c.clock_hz } else { 0.0 };
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
        let mut p = PowerModel::new(PowerConfig {
            link_flit_pj: 10.0,
            dram_access_pj: 100.0,
            logic_op_pj: 1.0,
            idle_cycle_pj: 0.5,
            clock_hz: 1e9,
        });
        p.add_link_flits(4);
        p.add_dram_access();
        p.add_logic_op();
        p.add_cycles(10);
        let r = p.report();
        assert_eq!(r.link_pj, 40.0);
        assert_eq!(r.dram_pj, 100.0);
        assert_eq!(r.logic_pj, 1.0);
        assert_eq!(r.idle_pj, 5.0);
        assert_eq!(r.total_pj, 146.0);
        assert_eq!(r.cycles, 10);
        // 146 pJ over 10 ns = 14.6 mW
        assert!((r.avg_watts - 0.0146).abs() < 1e-9);
    }

    #[test]
    fn empty_model_reports_zero() {
        let r = PowerModel::new(PowerConfig::default()).report();
        assert_eq!(r.total_pj, 0.0);
        assert_eq!(r.avg_watts, 0.0);
    }

    #[test]
    fn amo_beats_cache_rmw_in_link_energy() {
        // Table II in energy form: 12 FLITs vs 2 FLITs.
        let mut cache = PowerModel::new(PowerConfig::default());
        cache.add_link_flits(12);
        let mut hmc = PowerModel::new(PowerConfig::default());
        hmc.add_link_flits(2);
        assert!(cache.report().link_pj / hmc.report().link_pj > 5.9);
    }
}
