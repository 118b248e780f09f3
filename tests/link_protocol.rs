//! Link-layer protocol integration: token flow control and
//! transmission-error retry recovery.

use hmcsim::prelude::*;
use hmcsim::sim::LinkConfig;

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
    let mut cfg = DeviceConfig::gen2_4link_4gb();
    cfg.link_config = LinkConfig {
        error_period: Some(3),
        retry_latency: 8,
        ..Default::default()
    };
    let mut sim = HmcSim::new(cfg).unwrap();
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
    let mut cfg = DeviceConfig::gen2_4link_4gb();
    cfg.link_config = LinkConfig {
        error_period: Some(5),
        retry_latency: 4,
        ..Default::default()
    };
    let mut sim = HmcSim::new(cfg).unwrap();
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
    let mut cfg = DeviceConfig::gen2_4link_4gb();
    cfg.link_config = LinkConfig { error_period: Some(1), ..Default::default() };
    let mut sim = HmcSim::new(cfg).unwrap();
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
    let mut cfg = DeviceConfig::gen2_4link_4gb();
    cfg.link_config = LinkConfig {
        error_period: Some(3),
        retry_latency: 8,
        ..Default::default()
    };
    let mut sim = HmcSim::new(cfg).unwrap();
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

/// An EveryNth fault plan sets the links' error period itself, so a
/// device that also sets `link_config.error_period` would carry a knob
/// with no effect: the configuration is refused, naming both fields,
/// whether it is built directly or read from a document.
#[test]
fn an_error_period_beside_an_every_nth_plan_is_refused() {
    use hmcsim::sim::{FaultPlan, Json, LinkErrorMode, SimConfig};
    let conflict = HmcError::ConflictingConfig {
        field: "link_config.error_period",
        overridden_by: "fault.link_error (EveryNth)",
    };
    let mut both = DeviceConfig::gen2_4link_4gb();
    both.link_config = LinkConfig { error_period: Some(5), ..Default::default() };
    both.fault = FaultPlan::none().with_link_errors(LinkErrorMode::EveryNth(3));
    assert_eq!(both.validate(), Err(conflict.clone()));
    let err = HmcSim::with_config(SimConfig::single(both.clone())).err();
    assert_eq!(err, Some(conflict.clone()));
    let text = conflict.to_string();
    assert!(text.contains("link_config.error_period") && text.contains("fault.link_error"), "{text}");

    // Either one alone is a valid machine, and its document loads.
    let mut period_only = both.clone();
    period_only.fault = FaultPlan::none();
    let mut plan_only = both.clone();
    plan_only.link_config = LinkConfig::default();
    let random = FaultPlan::none().with_link_errors(LinkErrorMode::Random { per_million: 10 });
    let period_and_random = DeviceConfig { fault: random, ..period_only.clone() };
    for device in [period_only, plan_only, period_and_random] {
        let config = SimConfig::single(device);
        assert_eq!(SimConfig::from_json(&config.to_json()), Ok(config.clone()));
        HmcSim::with_config(config).unwrap();
    }

    // The document of the conflicting machine (the writer still renders
    // it) is refused by the reader with the same error.
    let doc = SimConfig::single(both).to_json();
    let rendered = doc.render();
    assert!(rendered.contains(r#""link_error_period":5"#), "{rendered}");
    let err = SimConfig::from_json(&Json::parse(&rendered).unwrap()).unwrap_err();
    assert_eq!(err.message, format!("sim_config: invalid configuration: {conflict}"));
}
