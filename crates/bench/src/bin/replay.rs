//! Trace replay tool: runs a memory trace (the `hmc-workloads`
//! trace format) against a configurable device and prints the replay
//! metrics plus the device report.
//!
//! ```text
//! cargo run --release -p hmc-bench --bin replay -- trace.txt [--links 8] [--window 128]
//! cargo run --release -p hmc-bench --bin replay            # synthetic demo trace
//! ```
//!
//! `--checkpoint-every N` snapshots the device every `N` cycles and
//! reports the final checkpoint, `--sanitize` replays under the
//! invariant sanitizer (report policy) and prints its findings.
//!
//! Durable, crash-safe operation:
//!
//! ```text
//! replay trace.txt --checkpoint-dir ckpts            # persist checkpoints
//! replay trace.txt --checkpoint-dir ckpts --resume   # continue after a kill
//! ```
//!
//! `--checkpoint-dir` commits every checkpoint to a
//! [`hmc_sim::CheckpointStore`] (atomic tmp+fsync+rename files, CRC'd,
//! last `--retain K` generations kept) and records a run manifest — the
//! trace digest, the context's [`hmc_sim::SimConfig`] and the cadence —
//! so a resume against a different trace or configuration is refused.
//! `--resume` rebuilds the context from the newest good checkpoint
//! ([`HmcSim::from_snapshot`]) — corrupt ones are quarantined as
//! `.corrupt`, never used — after re-deriving the restored state's
//! fingerprint and refusing to continue if it does not match the one
//! recorded at commit time.

use hmc_sim::jsonv::obj;
use hmc_sim::{
    atomic_write, report, CheckpointStore, DeviceConfig, Fnv, HmcSim, Json, ObjReader,
    SanitizerConfig,
};
use hmc_workloads::tracefile::{
    parse_trace, render_trace, replay_with_sink, synthetic_trace, ReplayCheckpoint,
    ReplayConfig,
};
use std::path::Path;

const MANIFEST_MAGIC: &str = "hmc-replay-manifest";
const MANIFEST_VERSION: u64 = 2;

fn die(msg: String) -> ! {
    eprintln!("replay: ERROR: {msg}");
    std::process::exit(2);
}

/// FNV over the canonical trace text, so a manifest can detect a
/// resume against a different trace.
fn trace_digest(text: &str) -> u64 {
    let mut h = Fnv::new();
    for chunk in text.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.u64(u64::from_le_bytes(word));
    }
    h.u64(text.len() as u64);
    h.finish()
}

struct Manifest {
    trace_digest: u64,
    /// The context's configuration, as `SimConfig::to_json` renders it.
    config: Json,
    window: usize,
    checkpoint_every: u64,
}

impl Manifest {
    fn to_json(&self) -> String {
        obj(vec![
            ("magic", Json::Str(MANIFEST_MAGIC.into())),
            ("schema_version", Json::Int(MANIFEST_VERSION as i128)),
            ("trace_digest", Json::Int(self.trace_digest as i128)),
            ("config", self.config.clone()),
            ("window", Json::Int(self.window as i128)),
            ("checkpoint_every", Json::Int(self.checkpoint_every as i128)),
        ])
        .render()
    }

    fn from_json(text: &str) -> Result<Manifest, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let mut r = ObjReader::new("manifest", &v).map_err(|e| e.to_string())?;
        let magic = r.str("magic").map_err(|e| e.to_string())?;
        if magic != MANIFEST_MAGIC {
            return Err(format!("bad manifest magic `{magic}`"));
        }
        let version = r.u64("schema_version").map_err(|e| e.to_string())?;
        if version != MANIFEST_VERSION {
            return Err(format!("unsupported manifest schema_version {version}"));
        }
        let m = Manifest {
            trace_digest: r.u64("trace_digest").map_err(|e| e.to_string())?,
            config: r.required("config").map_err(|e| e.to_string())?.clone(),
            window: r.usize("window").map_err(|e| e.to_string())?,
            checkpoint_every: r.u64("checkpoint_every").map_err(|e| e.to_string())?,
        };
        r.finish().map_err(|e| e.to_string())?;
        Ok(m)
    }
}

/// Loads or creates `<dir>/manifest.json`; refuses a mismatched resume.
fn reconcile_manifest(dir: &Path, current: &Manifest) {
    let path = dir.join("manifest.json");
    match std::fs::read_to_string(&path) {
        Ok(text) => {
            let prior = Manifest::from_json(&text)
                .unwrap_or_else(|e| die(format!("unreadable manifest {}: {e}", path.display())));
            let mut mismatches = Vec::new();
            if prior.trace_digest != current.trace_digest {
                mismatches.push(format!(
                    "trace digest {:#018x} != recorded {:#018x}",
                    current.trace_digest, prior.trace_digest
                ));
            }
            let (config, recorded) = (current.config.render(), prior.config.render());
            if config != recorded {
                mismatches.push(format!("config {config} != recorded {recorded}"));
            }
            if prior.window != current.window {
                mismatches
                    .push(format!("window {} != recorded {}", current.window, prior.window));
            }
            if prior.checkpoint_every != current.checkpoint_every {
                mismatches.push(format!(
                    "checkpoint cadence {} != recorded {}",
                    current.checkpoint_every, prior.checkpoint_every
                ));
            }
            if !mismatches.is_empty() {
                die(format!(
                    "run manifest {} does not match this invocation:\n  {}\n\
                     refusing to mix checkpoints across runs (delete the \
                     checkpoint directory to start over)",
                    path.display(),
                    mismatches.join("\n  ")
                ));
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            atomic_write(&path, current.to_json().as_bytes())
                .unwrap_or_else(|e| die(format!("cannot write manifest: {e}")));
        }
        Err(e) => die(format!("cannot read manifest {}: {e}", path.display())),
    }
}

fn main() {
    let args = hmc_bench::Args::from_env();
    let links: usize = args.num("--links", 4);
    let window: usize = args.num("--window", 64);
    let checkpoint_dir = args.get("--checkpoint-dir");
    let retain: usize = args.num("--retain", 4);
    let resume_requested = args.has("--resume");
    let checkpoint_every: u64 =
        args.num("--checkpoint-every", if checkpoint_dir.is_some() { 5000 } else { 0 });
    let sanitize = args.has("--sanitize");
    let path = args.first().filter(|a| !a.starts_with("--"));

    if resume_requested && checkpoint_dir.is_none() {
        die("--resume requires --checkpoint-dir".into());
    }

    let ops = match path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            parse_trace(&text).unwrap_or_else(|e| panic!("parse failure: {e}"))
        }
        None => {
            println!("(no trace given: replaying a synthetic 8-thread trace)\n");
            synthetic_trace(8, 256, 64)
        }
    };

    let config = if links == 8 {
        DeviceConfig::gen2_8link_8gb()
    } else {
        DeviceConfig::gen2_4link_4gb()
    };
    let mut sim = HmcSim::new(config).expect("valid device config");
    if sanitize {
        sim.enable_sanitizer(SanitizerConfig::report());
    }
    let config = sim.config().to_json();
    let replay_config = ReplayConfig { window, checkpoint_every, ..Default::default() };

    // Durable mode: open the store, reconcile the manifest, and (on
    // --resume) restore the newest good checkpoint with its
    // fingerprint re-verified against the one recorded at commit time.
    let mut store = None;
    let mut resume_from = None;
    if let Some(dir) = checkpoint_dir {
        let dir = Path::new(dir);
        let open = CheckpointStore::open(dir, retain)
            .unwrap_or_else(|e| die(format!("cannot open checkpoint dir: {e}")));
        for q in &open.quarantined {
            println!("quarantined checkpoint: {} ({})", q.path.display(), q.reason);
        }
        reconcile_manifest(dir, &Manifest {
            trace_digest: trace_digest(&render_trace(&ops)),
            config,
            window,
            checkpoint_every,
        });
        if resume_requested {
            match open.latest {
                Some(record) => {
                    let body = std::str::from_utf8(&record.body)
                        .unwrap_or_else(|_| die("checkpoint body is not UTF-8".into()));
                    let ckpt = ReplayCheckpoint::from_json(body)
                        .unwrap_or_else(|e| die(format!("checkpoint does not parse: {e}")));
                    let restored = ckpt.snapshot.fingerprint();
                    if restored != record.fingerprint {
                        die(format!(
                            "fingerprint mismatch in generation {} (cycle {}): \
                             recorded {:#018x}, restored state hashes to {:#018x} — \
                             refusing to resume from inconsistent state",
                            record.generation, record.cycle, record.fingerprint, restored
                        ));
                    }
                    sim = HmcSim::from_snapshot(&ckpt.snapshot)
                        .unwrap_or_else(|e| die(format!("checkpoint does not rebuild: {e}")));
                    println!(
                        "resuming from generation {} (cycle {}, op cursor {}/{}, \
                         fingerprint {:#018x} verified)\n",
                        record.generation,
                        record.cycle,
                        ckpt.cursor,
                        ops.len(),
                        restored
                    );
                    resume_from = Some(ckpt);
                }
                None => println!("no usable checkpoint found: starting fresh\n"),
            }
        }
        store = Some(open.store);
    }

    let sink = |ckpt: &ReplayCheckpoint| {
        if let Some(store) = store.as_mut() {
            store
                .commit(ckpt.cycle, ckpt.snapshot.fingerprint(), ckpt.to_json().as_bytes())
                .map_err(|e| {
                    hmc_types::HmcError::MalformedPacket(format!("checkpoint commit failed: {e}"))
                })?;
        }
        Ok(())
    };
    let (result, checkpoint) =
        replay_with_sink(&mut sim, &ops, &replay_config, resume_from, sink)
            .expect("replay runs");

    println!(
        "replayed {} ops ({} completed) in {} cycles: {} FLITs, {:.2} data B/cycle\n",
        result.issued, result.completed, result.cycles, result.link_flits, result.bytes_per_cycle
    );
    if let Some(ckpt) = checkpoint {
        println!(
            "last checkpoint: cycle {} (op cursor {}/{}, {} in flight)\n",
            ckpt.cycle,
            ckpt.cursor,
            ops.len(),
            ckpt.inflight.len()
        );
    }
    if sanitize {
        let report = sim.disable_sanitizer().expect("sanitizer was enabled");
        println!(
            "sanitizer: {} cycles checked, {} violations\n",
            report.cycles_checked, report.total_violations
        );
        for v in &report.violations {
            println!("  {v}");
        }
    }
    println!("final state fingerprint: {:#018x}\n", sim.state_fingerprint());
    print!("{}", report::text_report(&sim, 0).expect("report"));
}
