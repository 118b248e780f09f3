//! End-to-end durability: a trace replay journaled through the
//! [`hmc_sim::CheckpointStore`] survives a kill at any checkpoint and
//! resumes to a final state **bit-identical** to an uninterrupted run,
//! and a run directory written by an older snapshot schema resumes
//! under this one.

use hmc_sim::{
    CheckpointStore, DeviceConfig, HmcSim, LinkConfig, SanitizerConfig, SkipMode, TimingSelect,
};
use hmc_types::HmcError;
use hmc_workloads::tracefile::{
    parse_trace, replay_resumable, replay_with_sink, synthetic_trace, ReplayCheckpoint,
    ReplayConfig, TraceOp,
};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("hmc-durable-replay-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn commit(store: &mut CheckpointStore, ckpt: &ReplayCheckpoint) -> Result<(), HmcError> {
    store
        .commit(ckpt.cycle, ckpt.snapshot.fingerprint(), ckpt.to_json().as_bytes())
        .map(|_| ())
        .map_err(|e| HmcError::MalformedPacket(format!("commit: {e}")))
}

/// Recovers the newest good checkpoint from `dir`, re-verifying the
/// restored snapshot's fingerprint against the one recorded in the
/// header at commit time (the trust chain the replay CLI enforces).
fn recover(dir: &std::path::Path) -> (CheckpointStore, Option<ReplayCheckpoint>) {
    let report = CheckpointStore::open(dir, 8).unwrap();
    let ckpt = report.latest.map(|record| {
        let ckpt =
            ReplayCheckpoint::from_json(std::str::from_utf8(&record.body).unwrap()).unwrap();
        assert_eq!(
            ckpt.snapshot.fingerprint(),
            record.fingerprint,
            "restored fingerprint must match the recorded one"
        );
        ckpt
    });
    (report.store, ckpt)
}

#[test]
fn kill_at_any_checkpoint_resumes_bit_identically() {
    let ops = synthetic_trace(4, 64, 64);
    let config = ReplayConfig { checkpoint_every: 10, window: 16, ..Default::default() };

    // Ground truth: an uninterrupted run.
    let mut full = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    let (full_result, last) = replay_resumable(&mut full, &ops, &config, None).unwrap();
    let checkpoints_taken = {
        // Count checkpoints by re-running with a counting sink.
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let mut n = 0usize;
        replay_with_sink(&mut sim, &ops, &config, None, |_| {
            n += 1;
            Ok(())
        })
        .unwrap();
        n
    };
    assert!(last.is_some() && checkpoints_taken >= 3, "test needs several checkpoints");

    // Kill the run after each k-th durable commit in turn; resume from
    // disk; the final state must always match the uninterrupted run.
    for kill_after in 1..=checkpoints_taken {
        let dir = tmpdir(&format!("kill-{kill_after}"));
        let mut store = CheckpointStore::open(&dir, 8).unwrap().store;
        let mut committed = 0usize;
        let mut crashed = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let killed = replay_with_sink(&mut crashed, &ops, &config, None, |ckpt| {
            commit(&mut store, ckpt)?;
            committed += 1;
            if committed == kill_after {
                // Simulated kill: abort the replay mid-flight. The
                // in-memory sim is now garbage, as after SIGKILL.
                return Err(HmcError::MalformedPacket("simulated kill".into()));
            }
            Ok(())
        });
        assert!(killed.is_err(), "the kill aborts the replay");
        drop(crashed);
        drop(store);

        let (_, resume) = recover(&dir);
        let resume = resume.expect("a committed checkpoint exists");
        let mut resumed = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let (resumed_result, _) =
            replay_resumable(&mut resumed, &ops, &config, Some(resume)).unwrap();
        assert_eq!(resumed_result, full_result, "kill after commit {kill_after}");
        assert_eq!(
            resumed.state_fingerprint(),
            full.state_fingerprint(),
            "kill after commit {kill_after}: resumed run diverged"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn corrupt_newest_checkpoint_falls_back_and_still_converges() {
    let ops = synthetic_trace(4, 64, 64);
    let config = ReplayConfig { checkpoint_every: 10, window: 16, ..Default::default() };

    let mut full = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    replay_resumable(&mut full, &ops, &config, None).unwrap();

    let dir = tmpdir("corrupt-fallback");
    let mut store = CheckpointStore::open(&dir, 8).unwrap().store;
    let mut crashed = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    let mut committed = 0usize;
    let _ = replay_with_sink(&mut crashed, &ops, &config, None, |ckpt| {
        commit(&mut store, ckpt)?;
        committed += 1;
        if committed == 3 {
            return Err(HmcError::MalformedPacket("simulated kill".into()));
        }
        Ok(())
    });
    assert_eq!(committed, 3);

    // The kill also tore the newest checkpoint file.
    let newest = store.generations().last().copied().unwrap();
    let victim = store.path_of(newest);
    let data = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &data[..data.len() / 2]).unwrap();
    drop(store);

    let (store, resume) = recover(&dir);
    assert_eq!(
        store.generations().last().copied().unwrap(),
        newest - 1,
        "recovery falls back to the previous generation"
    );
    assert!(victim.with_extension("json.corrupt").exists() || !victim.exists());
    let mut resumed = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    replay_resumable(&mut resumed, &ops, &config, Some(resume.unwrap())).unwrap();
    assert_eq!(
        resumed.state_fingerprint(),
        full.state_fingerprint(),
        "fallback generation still converges to the uninterrupted final state"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The sanitized, recorded 8-vault cube of `tests/trace_replay.rs`, whose
/// replay of [`short_trace`] wrote the replay-checkpoint goldens.
fn small_observed_cube() -> HmcSim {
    let mut d = DeviceConfig::gen2_4link_4gb();
    d.vaults_per_quad = 2;
    d.banks_per_vault = 2;
    d.bank_latency = 2;
    d.link_config = LinkConfig { tokens: Some(96), retry_latency: 6 };
    let mut sim = HmcSim::new(d).unwrap();
    sim.set_skip_mode(SkipMode::Off);
    sim.set_timing_model(TimingSelect::FixedLatency);
    sim.enable_sanitizer(SanitizerConfig::report());
    sim.enable_flight_recorder(4);
    sim
}

/// The golden replay's trace, as `tests/trace_replay.rs` writes it.
fn short_trace() -> Vec<TraceOp> {
    let mut text = String::new();
    for i in 0..48u64 {
        let (addr, tid) = ((i * 0x90) % 0x1800, i % 4);
        text += &match i % 6 {
            0 | 3 => format!("R 0x{addr:x} 64 {tid}\n"),
            1 => format!("W 0x{addr:x} 32 {tid}\n"),
            2 => format!("A INC8 0x{addr:x} {tid}\n"),
            4 => format!("P 0x{addr:x} 16 {tid}\n"),
            _ => format!("A XOR16 0x{addr:x} {tid}\n"),
        };
    }
    parse_trace(&text).unwrap()
}

/// `tests/golden/replay_ckpt_v6.json` — the golden replay's last
/// checkpoint as snapshot schema 6 wrote it, hex pages and lanes and a
/// `packet_counter` per link — committed through a store the way that
/// build committed it (the header's fingerprint is the live state's,
/// which no schema moves), is recovered, verified against its header
/// and resumed by this build to the uninterrupted run's final state.
#[test]
fn a_checkpoint_committed_under_schema_6_resumes_under_this_schema() {
    let ops = short_trace();
    let config = ReplayConfig { window: 6, max_cycles: 100_000, checkpoint_every: 12 };
    let mut full = small_observed_cube();
    let (full_result, last) = replay_resumable(&mut full, &ops, &config, None).unwrap();
    let last = last.expect("the replay took a checkpoint");

    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/replay_ckpt_v6.json");
    let body = std::fs::read_to_string(&golden).unwrap();
    let body = body.trim_end();
    assert!(body.contains("\"schema_version\":6,"), "the golden is a schema-6 snapshot");
    assert!(body.contains("\"packet_counter\":"), "the golden is in the old layout");
    assert_ne!(body, last.to_json(), "this build writes another layout");

    let dir = tmpdir("schema-6");
    let mut store = CheckpointStore::open(&dir, 8).unwrap().store;
    store.commit(last.cycle, last.snapshot.fingerprint(), body.as_bytes()).unwrap();
    drop(store);

    let (_, resume) = recover(&dir);
    let resume = resume.expect("the committed checkpoint is recovered");
    assert_eq!(resume.to_json(), last.to_json(), "it decodes to the checkpoint this build takes");
    let mut resumed = small_observed_cube();
    let (resumed_result, _) = replay_resumable(&mut resumed, &ops, &config, Some(resume)).unwrap();
    assert_eq!(resumed_result, full_result);
    assert_eq!(resumed.state_fingerprint(), full.state_fingerprint());
    std::fs::remove_dir_all(&dir).unwrap();
}
