//! Link-layer protocol integration: token flow control and
//! transmission-error retry recovery. Link errors come from the fault
//! plan's deterministic `EveryNth` mode.

use hmcsim::prelude::*;
use hmcsim::sim::{FaultPlan, LinkConfig, LinkErrorMode};

/// A 4Link-4GB device whose links error every `n`-th packet and replay
/// after `retry_latency` cycles.
fn every_nth(n: u64, retry_latency: u64) -> DeviceConfig {
    let mut cfg = DeviceConfig::gen2_4link_4gb();
    cfg.link_config = LinkConfig { retry_latency, ..Default::default() };
    cfg.fault = FaultPlan::none().with_link_errors(LinkErrorMode::EveryNth(n));
    cfg
}

#[test]
fn default_link_layer_is_inert() {
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    for _ in 0..50 {
        let tag = sim.send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![]).unwrap().unwrap();
        let rsp = sim.run_until_response(0, 0, tag, 100).unwrap();
        assert_eq!(rsp.latency, 3, "no protocol perturbation by default");
    }
    let stats = sim.link_stats(0, 0).unwrap();
    assert_eq!(stats.token_stalls, 0);
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.packets_sent, 50);
}

#[test]
fn token_exhaustion_stalls_the_transmitter() {
    let mut cfg = DeviceConfig::gen2_4link_4gb();
    cfg.link_config = LinkConfig { tokens: Some(4), ..Default::default() };
    let mut sim = HmcSim::new(cfg).unwrap();
    // Each RD16 is 1 FLIT: four fit, the fifth stalls on tokens.
    for _ in 0..4 {
        assert!(sim.send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![]).unwrap().is_some());
    }
    assert!(matches!(
        sim.send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![]),
        Err(HmcError::Stall)
    ));
    assert_eq!(sim.link_stats(0, 0).unwrap().token_stalls, 1);

    // The crossbar drains into the vaults, returning tokens.
    sim.clock_n(8);
    assert!(sim.send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![]).unwrap().is_some());
}

#[test]
fn tokens_account_flits_not_packets() {
    let mut cfg = DeviceConfig::gen2_4link_4gb();
    cfg.link_config = LinkConfig { tokens: Some(6), ..Default::default() };
    let mut sim = HmcSim::new(cfg).unwrap();
    // A WR64 is 5 FLITs: one fits, a second (5 more FLITs) does not,
    // but a 1-FLIT read still squeezes in.
    assert!(sim
        .send_simple(0, 0, HmcRqst::Wr64, 0x40, vec![0; 8])
        .unwrap()
        .is_some());
    assert!(sim.send_simple(0, 0, HmcRqst::Wr64, 0x80, vec![0; 8]).is_err());
    assert!(sim.send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![]).unwrap().is_some());
}

#[test]
fn injected_errors_recover_with_added_latency() {
    let mut sim = HmcSim::new(every_nth(3, 8)).unwrap();
    let mut latencies = Vec::new();
    for i in 0..9 {
        let tag = sim
            .send_simple(0, 0, HmcRqst::Rd16, (i % 4) * 0x100, vec![])
            .unwrap()
            .unwrap();
        let rsp = sim.run_until_response(0, 0, tag, 1000).unwrap();
        latencies.push(rsp.latency);
    }
    // Every third packet pays the retry exchange on top of the
    // 3-cycle round trip; everything still completes correctly.
    assert_eq!(latencies[0], 3);
    assert_eq!(latencies[1], 3);
    assert!(latencies[2] > 8, "errored packet pays retry latency, got {}", latencies[2]);
    assert_eq!(latencies[3], 3);
    assert!(latencies[5] > 8);
    assert_eq!(sim.link_stats(0, 0).unwrap().retries, 3);
}

#[test]
fn retries_do_not_lose_packets_under_load() {
    let mut sim = HmcSim::new(every_nth(5, 4)).unwrap();
    let mut sent = 0u64;
    for i in 0..300u64 {
        match sim.send_simple(0, (i % 4) as usize, HmcRqst::Inc8, 0x40, vec![]) {
            Ok(_) => sent += 1,
            Err(HmcError::Stall) | Err(HmcError::TagsExhausted) => {}
            Err(e) => panic!("unexpected: {e}"),
        }
        sim.clock();
    }
    sim.drain(100_000);
    let mut received = 0u64;
    for link in 0..4 {
        while sim.recv(0, link).is_some() {
            received += 1;
        }
    }
    assert_eq!(received, sent, "every packet survives the retry path");
    assert_eq!(sim.mem_read_u64(0, 0x40).unwrap(), sent, "all increments applied");
    let total_retries: u64 = (0..4)
        .map(|l| sim.link_stats(0, l).unwrap().retries)
        .sum();
    assert!(total_retries > 0, "errors were actually injected");
}

#[test]
fn retry_trace_events_recorded() {
    use hmcsim::sim::{TraceBuffer, TraceLevel, Tracer};
    let mut sim = HmcSim::new(every_nth(1, LinkConfig::default().retry_latency)).unwrap();
    let buf = TraceBuffer::new();
    sim.set_tracer(Tracer::to_buffer(TraceLevel::STALL, buf.clone()));
    let tag = sim.send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![]).unwrap().unwrap();
    sim.run_until_response(0, 0, tag, 1000).unwrap();
    assert_eq!(buf.grep("link error injected").len(), 1);
}

#[test]
fn retries_replay_with_their_original_seq() {
    // An errored transmission waits in the retry buffer carrying the
    // SEQ it was first assigned; the replay must reuse it rather than
    // burn a fresh one, or the receiver-side sequence would gap.
    let mut sim = HmcSim::new(every_nth(3, 8)).unwrap();
    let mut tags = Vec::new();
    for i in 0..3u64 {
        tags.push(
            sim.send_simple(0, 0, HmcRqst::Rd16, i * 0x100, vec![])
                .unwrap()
                .unwrap(),
        );
    }
    // SEQ numbering starts at 1; the third packet (SEQ 3) hit the
    // scheduled wire error and is parked for retry.
    let snap = sim.snapshot();
    let retries = snap.retry_seqs(0);
    assert_eq!(retries.len(), 1, "one packet parked for retry");
    assert_eq!(retries[0].1, 3, "the retry keeps its original SEQ");

    for (i, tag) in tags.into_iter().enumerate() {
        let rsp = sim.run_until_response(0, 0, tag, 1000).unwrap();
        assert_eq!(rsp.rsp.head.cmd, HmcResponse::RdRs, "packet {i} completes");
    }
    assert_eq!(sim.link_stats(0, 0).unwrap().retries, 1);
    // The next wire packet continues the sequence with no gap: SEQ 4
    // (not 5, which a fresh-SEQ replay would have produced).
    sim.send_simple(0, 0, HmcRqst::Rd16, 0x40, vec![]).unwrap().unwrap();
    let seqs = sim.snapshot().request_seqs(0);
    assert_eq!(seqs.len(), 1);
    assert_eq!(seqs[0].1, 4, "sequence continues without a burned SEQ");
}
