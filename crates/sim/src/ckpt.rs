//! Durable, crash-safe checkpoint store.
//!
//! A [`CheckpointStore`] owns a directory of generation-numbered
//! checkpoint files (`ckpt-<generation>.json`). Each commit follows
//! the classic atomic protocol:
//!
//! 1. write the full file to `ckpt-<g>.json.tmp`,
//! 2. `fsync` the file,
//! 3. `rename` it to its final name (atomic on POSIX),
//! 4. `fsync` the directory so the rename itself is durable.
//!
//! A crash at any point leaves either the previous generation intact
//! (steps 1–3 incomplete: at worst a stale `.tmp` remains) or the new
//! generation complete. There is no window in which a reader can see
//! a half-written final file.
//!
//! Every file carries a one-line JSON header followed by the body:
//!
//! ```text
//! {"magic":"hmc-ckpt","version":2,"cycle":C,"fingerprint":F,
//!  "body_len":N,"body_crc32":X}\n<body bytes...>
//! ```
//!
//! `fingerprint` is the simulator's
//! [`state_fingerprint`](crate::HmcSim::state_fingerprint) at commit
//! time; recovery code re-derives the fingerprint from the restored
//! state and refuses to resume on a mismatch. `body_crc32` is the
//! CRC-32K of the body bytes, so torn or bit-flipped files are caught
//! before any parse is attempted.
//!
//! [`CheckpointStore::open`] validates **every** generation present.
//! Anything invalid — truncated, CRC mismatch, bad magic, unsupported
//! version, stale `.tmp` — is *quarantined*: renamed to `<name>.corrupt`
//! and reported loudly (stderr and the returned [`OpenReport`]), never
//! silently used or deleted. Recovery proceeds from the newest
//! generation that validates.

use crate::jsonv::{obj, Json, JsonError, ObjReader};
use hmc_types::crc32k;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Magic string identifying a checkpoint file header.
pub const CKPT_MAGIC: &str = "hmc-ckpt";

/// Checkpoint container-format version (independent of the snapshot
/// body's own `schema_version`). Version 1 headers carry fingerprints
/// of the retired `{:?}`-text hash, which no build can re-derive:
/// they are quarantined as an unsupported version, not reported as
/// state corruption.
pub const CKPT_VERSION: u64 = 2;

fn with_path(e: io::Error, action: &str, path: &Path) -> io::Error {
    io::Error::new(e.kind(), format!("{action} {}: {e}", path.display()))
}

/// Writes `bytes` to `path` atomically: tmp file → fsync → rename →
/// directory fsync. Either the old content (or absence) survives or
/// the new content is complete — a crash can never leave a torn file
/// at `path`. Parent directories are created as needed and every error
/// carries the offending path in its message.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => {
            fs::create_dir_all(p).map_err(|e| with_path(e, "create directory", p))?;
            Some(p)
        }
        _ => None,
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut f = fs::File::create(&tmp).map_err(|e| with_path(e, "create", &tmp))?;
    f.write_all(bytes).map_err(|e| with_path(e, "write", &tmp))?;
    f.sync_all().map_err(|e| with_path(e, "fsync", &tmp))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| with_path(e, "rename into place", path))?;
    #[cfg(unix)]
    if let Some(parent) = parent {
        fs::File::open(parent)
            .and_then(|d| d.sync_all())
            .map_err(|e| with_path(e, "fsync directory", parent))?;
    }
    #[cfg(not(unix))]
    let _ = parent;
    Ok(())
}

/// One validated checkpoint, as returned by [`CheckpointStore::open`].
#[derive(Debug, Clone)]
pub struct CheckpointRecord {
    /// Generation number (monotonically increasing per store).
    pub generation: u64,
    /// Simulation cycle recorded in the header.
    pub cycle: u64,
    /// State fingerprint recorded in the header at commit time.
    pub fingerprint: u64,
    /// The checkpoint body (CRC-verified).
    pub body: Vec<u8>,
}

/// A file [`CheckpointStore::open`] refused to use, renamed to
/// `<name>.corrupt` in place.
#[derive(Debug, Clone)]
pub struct QuarantinedFile {
    /// The file's post-quarantine path (`...corrupt`).
    pub path: PathBuf,
    /// Why it was rejected.
    pub reason: String,
}

/// The result of opening (and validating) a checkpoint directory.
#[derive(Debug)]
pub struct OpenReport {
    /// The opened store, ready for [`CheckpointStore::commit`].
    pub store: CheckpointStore,
    /// The newest checkpoint that validated, if any.
    pub latest: Option<CheckpointRecord>,
    /// Every file that failed validation, already quarantined.
    pub quarantined: Vec<QuarantinedFile>,
}

/// A directory of generation-numbered, CRC-protected checkpoint files
/// with bounded retention. See the module docs for the commit
/// protocol and recovery rules.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
    next_gen: u64,
    /// Good generations currently on disk, ascending.
    gens: Vec<u64>,
}

fn header_json(cycle: u64, fingerprint: u64, body: &[u8]) -> String {
    let mut line = obj(vec![
        ("magic", CKPT_MAGIC.into()),
        ("version", CKPT_VERSION.into()),
        ("cycle", cycle.into()),
        ("fingerprint", fingerprint.into()),
        ("body_len", body.len().into()),
        ("body_crc32", crc32k(body).into()),
    ])
    .render();
    line.push('\n');
    line
}

struct Header {
    cycle: u64,
    fingerprint: u64,
    body_len: usize,
    body_crc32: u32,
}

fn parse_header(line: &str) -> Result<Header, JsonError> {
    let v = Json::parse(line)?;
    let mut r = ObjReader::new("checkpoint header", &v)?;
    let magic = r.str("magic")?;
    if magic != CKPT_MAGIC {
        return Err(JsonError::new(format!("bad magic `{magic}`")));
    }
    let version = r.u64("version")?;
    if version != CKPT_VERSION {
        return Err(JsonError::new(format!(
            "unsupported checkpoint version {version} (expected {CKPT_VERSION})"
        )));
    }
    let header = Header {
        cycle: r.u64("cycle")?,
        fingerprint: r.u64("fingerprint")?,
        body_len: r.usize("body_len")?,
        body_crc32: r.u32("body_crc32")?,
    };
    r.finish()?;
    Ok(header)
}

/// Parses `ckpt-<gen>.json` out of a file name.
fn generation_of(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?.strip_suffix(".json")?.parse().ok()
}

fn validate_file(path: &Path) -> Result<(Header, Vec<u8>), String> {
    let data = fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
    let nl = data
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| "truncated: no header line".to_string())?;
    let line = std::str::from_utf8(&data[..nl]).map_err(|_| "header is not UTF-8".to_string())?;
    let header = parse_header(line).map_err(|e| format!("bad header: {e}"))?;
    let body = &data[nl + 1..];
    if body.len() != header.body_len {
        return Err(format!(
            "truncated body: header says {} bytes, file holds {}",
            header.body_len,
            body.len()
        ));
    }
    let crc = crc32k(body);
    if crc != header.body_crc32 {
        return Err(format!(
            "body CRC mismatch: header says {:#010x}, body hashes to {crc:#010x}",
            header.body_crc32
        ));
    }
    Ok((header, body.to_vec()))
}

fn quarantine(path: &Path, reason: &str) -> QuarantinedFile {
    let mut target = path.as_os_str().to_owned();
    target.push(".corrupt");
    let target = PathBuf::from(target);
    let final_path = match fs::rename(path, &target) {
        Ok(()) => target,
        // Rename failure must not abort recovery; report the original
        // path and keep going.
        Err(_) => path.to_path_buf(),
    };
    eprintln!(
        "hmc-ckpt: QUARANTINED {}: {reason} (kept as {})",
        path.display(),
        final_path.display()
    );
    QuarantinedFile { path: final_path, reason: reason.to_string() }
}

impl CheckpointStore {
    /// Opens (creating if absent) the checkpoint directory `dir`,
    /// validating every generation present. Invalid files — torn,
    /// truncated, bit-flipped, wrong version, stale `.tmp` from a
    /// kill-before-rename — are quarantined as `.corrupt`, loudly.
    /// `retain` bounds how many good generations [`Self::commit`]
    /// keeps (minimum 1).
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> io::Result<OpenReport> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| with_path(e, "create directory", &dir))?;
        let mut quarantined = Vec::new();
        let mut good: Vec<(u64, Header, Vec<u8>)> = Vec::new();
        let mut max_seen = 0u64;
        let entries = fs::read_dir(&dir).map_err(|e| with_path(e, "read directory", &dir))?;
        for entry in entries {
            let entry = entry.map_err(|e| with_path(e, "read directory", &dir))?;
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
                continue;
            };
            if name.ends_with(".corrupt") {
                continue; // already quarantined by an earlier open
            }
            if name.ends_with(".tmp") {
                quarantined
                    .push(quarantine(&path, "stale temporary file (crash before rename)"));
                continue;
            }
            let Some(gen) = generation_of(&name) else {
                continue; // foreign file (manifest, journal, ...)
            };
            max_seen = max_seen.max(gen);
            match validate_file(&path) {
                Ok((header, body)) => good.push((gen, header, body)),
                Err(reason) => quarantined.push(quarantine(&path, &reason)),
            }
        }
        good.sort_unstable_by_key(|(gen, _, _)| *gen);
        let gens: Vec<u64> = good.iter().map(|(gen, _, _)| *gen).collect();
        let latest = good.pop().map(|(generation, header, body)| CheckpointRecord {
            generation,
            cycle: header.cycle,
            fingerprint: header.fingerprint,
            body,
        });
        let store = CheckpointStore { dir, retain: retain.max(1), next_gen: max_seen + 1, gens };
        Ok(OpenReport { store, latest, quarantined })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Good generations currently on disk, ascending.
    pub fn generations(&self) -> &[u64] {
        &self.gens
    }

    /// The path of generation `gen`.
    pub fn path_of(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{gen}.json"))
    }

    /// Commits `body` as the next generation under the atomic
    /// protocol, then prunes generations beyond the retention bound
    /// (oldest first). Returns the committed generation number.
    pub fn commit(&mut self, cycle: u64, fingerprint: u64, body: &[u8]) -> io::Result<u64> {
        let gen = self.next_gen;
        let mut data = header_json(cycle, fingerprint, body).into_bytes();
        data.extend_from_slice(body);
        atomic_write(&self.path_of(gen), &data)?;
        self.next_gen += 1;
        self.gens.push(gen);
        while self.gens.len() > self.retain {
            let old = self.gens.remove(0);
            let path = self.path_of(old);
            // Retention pruning is best-effort: a failed unlink leaves
            // an extra old generation behind, which open() will simply
            // validate again.
            let _ = fs::remove_file(&path);
        }
        Ok(gen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hmc-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn commit_and_reopen_returns_latest() {
        let dir = tmpdir("basic");
        let mut store = CheckpointStore::open(&dir, 3).unwrap().store;
        store.commit(10, 111, b"alpha").unwrap();
        store.commit(20, 222, b"beta").unwrap();
        let report = CheckpointStore::open(&dir, 3).unwrap();
        assert!(report.quarantined.is_empty());
        let latest = report.latest.unwrap();
        assert_eq!(latest.generation, 2);
        assert_eq!(latest.cycle, 20);
        assert_eq!(latest.fingerprint, 222);
        assert_eq!(latest.body, b"beta");
        assert_eq!(report.store.generations(), &[1, 2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_prunes_oldest() {
        let dir = tmpdir("retain");
        let mut store = CheckpointStore::open(&dir, 2).unwrap().store;
        for i in 1..=5u64 {
            store.commit(i * 10, i, format!("body-{i}").as_bytes()).unwrap();
        }
        assert_eq!(store.generations(), &[4, 5]);
        assert!(!store.path_of(1).exists());
        assert!(!store.path_of(3).exists());
        assert!(store.path_of(4).exists());
        let report = CheckpointStore::open(&dir, 2).unwrap();
        assert_eq!(report.latest.unwrap().generation, 5);
        // Generation numbers never restart, even after pruning.
        assert_eq!(report.store.next_gen, 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_replaces_content_and_cleans_tmp() {
        let dir = tmpdir("atomic");
        let path = dir.join("file.json");
        atomic_write(&path, b"one").unwrap();
        atomic_write(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert!(!dir.join("file.json.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_errors_carry_the_path() {
        let path = Path::new("/proc/definitely-not-writable/x.json");
        let err = atomic_write(path, b"x").unwrap_err();
        assert!(err.to_string().contains("definitely-not-writable"), "{err}");
    }

    #[test]
    fn foreign_files_are_ignored() {
        let dir = tmpdir("foreign");
        fs::write(dir.join("manifest.json"), b"{}").unwrap();
        let mut store = CheckpointStore::open(&dir, 2).unwrap().store;
        store.commit(1, 1, b"x").unwrap();
        let report = CheckpointStore::open(&dir, 2).unwrap();
        assert!(report.quarantined.is_empty(), "manifest.json must not be quarantined");
        assert_eq!(report.latest.unwrap().generation, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
