//! Spec-revision gating: a Gen1 part (HMC-Sim 1.0's model) rejects
//! Gen2-only traffic with error responses while serving the 1.0
//! command set normally.

use hmcsim::prelude::*;
use hmcsim::sim::SpecRevision;

fn gen1_sim() -> HmcSim {
    HmcSim::new(DeviceConfig::gen1_4link_2gb()).unwrap()
}

#[test]
fn revision_support_matrix() {
    let gen1 = SpecRevision::Gen1;
    // 1.0 commands.
    for cmd in [
        HmcRqst::Rd16,
        HmcRqst::Rd128,
        HmcRqst::Wr64,
        HmcRqst::PWr128,
        HmcRqst::MdRd,
        HmcRqst::MdWr,
        HmcRqst::Null,
        HmcRqst::Pret,
    ] {
        assert!(gen1.supports(cmd), "{cmd} is a 1.0 command");
    }
    // Gen2-only commands.
    for cmd in [
        HmcRqst::Rd256,
        HmcRqst::Wr256,
        HmcRqst::PWr256,
        HmcRqst::Inc8,
        HmcRqst::CasEq8,
        HmcRqst::Xor16,
        HmcRqst::Swap16,
        HmcRqst::Cmc(125),
    ] {
        assert!(!gen1.supports(cmd), "{cmd} is Gen2-only");
        assert!(SpecRevision::Gen2.supports(cmd), "{cmd} works on Gen2");
    }
}

#[test]
fn gen1_device_serves_the_one_dot_zero_set() {
    let mut sim = gen1_sim();
    let tag = sim
        .send_simple(0, 0, HmcRqst::Wr64, 0x1000, (0..8).collect::<Vec<u64>>())
        .unwrap()
        .unwrap();
    let rsp = sim.run_until_response(0, 0, tag, 100).unwrap();
    assert_eq!(rsp.rsp.head.cmd, HmcResponse::WrRs);
    let tag = sim.send_simple(0, 0, HmcRqst::Rd64, 0x1000, vec![]).unwrap().unwrap();
    let rsp = sim.run_until_response(0, 0, tag, 100).unwrap();
    assert_eq!(rsp.rsp.payload[0], 0);
    assert_eq!(rsp.rsp.payload[1], 1);
}

#[test]
fn gen1_device_errors_on_atomics() {
    let mut sim = gen1_sim();
    let tag = sim.send_simple(0, 0, HmcRqst::Inc8, 0x40, vec![]).unwrap().unwrap();
    let rsp = sim.run_until_response(0, 0, tag, 100).unwrap();
    assert_eq!(rsp.rsp.head.cmd, HmcResponse::Error);
    assert_eq!(rsp.rsp.tail.errstat, 0x20);
    assert_eq!(sim.mem_read_u64(0, 0x40).unwrap(), 0, "no side effect");
    assert_eq!(sim.stats(0).unwrap().error_responses, 1);
}

#[test]
fn gen1_device_errors_on_256_byte_transfers() {
    let mut sim = gen1_sim();
    let tag = sim.send_simple(0, 0, HmcRqst::Rd256, 0x0, vec![]).unwrap().unwrap();
    let rsp = sim.run_until_response(0, 0, tag, 100).unwrap();
    assert_eq!(rsp.rsp.head.cmd, HmcResponse::Error);
}

#[test]
fn gen1_device_errors_on_cmc_even_when_loaded() {
    // The registry is per-context software state; the revision gate
    // sits in front of it, exactly as a 1.0 part has no CMC logic.
    hmcsim::cmc::ops::register_builtin_libraries();
    let mut sim = gen1_sim();
    sim.load_cmc_library(0, hmcsim::cmc::ops::MUTEX_LIBRARY).unwrap();
    let tag = sim.send_cmc(0, 0, 125, 0x4000, vec![1, 0]).unwrap().unwrap();
    let rsp = sim.run_until_response(0, 0, tag, 100).unwrap();
    assert_eq!(rsp.rsp.head.cmd, HmcResponse::Error);
    assert_eq!(sim.mem_read_u64(0, 0x4000).unwrap(), 0, "lock untouched");
}

#[test]
fn gen2_default_accepts_everything() {
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    let tag = sim.send_simple(0, 0, HmcRqst::Rd256, 0x0, vec![]).unwrap().unwrap();
    let rsp = sim.run_until_response(0, 0, tag, 100).unwrap();
    assert_eq!(rsp.rsp.head.cmd, HmcResponse::RdRs);
    assert_eq!(rsp.rsp.flits(), 17);
}
