//! Crash-injection tests for the durable checkpoint store.
//!
//! Every failure mode a kill can leave behind — truncation at each
//! byte-boundary class, bit flips in header and body, a stale `.tmp`
//! from a crash before the rename — must be quarantined loudly
//! (renamed `.corrupt`, reported in the [`OpenReport`]) and recovery
//! must always land on the newest generation that still validates.

use hmc_sim::{CheckpointStore, OpenReport};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("hmc-ckpt-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A store with generations 1..=n, each with a distinct body.
fn seeded_store(dir: &Path, n: u64) -> CheckpointStore {
    let mut store = CheckpointStore::open(dir, usize::MAX).unwrap().store;
    for g in 1..=n {
        store.commit(g * 100, g ^ 0xF00D, format!("body of generation {g}").as_bytes()).unwrap();
    }
    store
}

fn open(dir: &Path) -> OpenReport {
    CheckpointStore::open(dir, usize::MAX).unwrap()
}

/// Byte-boundary classes for truncation of a header+body file.
fn truncation_points(data: &[u8]) -> Vec<(usize, &'static str)> {
    let nl = data.iter().position(|&b| b == b'\n').expect("header line");
    vec![
        (0, "empty file"),
        (nl / 2, "mid-header"),
        (nl, "end of header, newline lost"),
        (nl + 1, "header intact, body entirely lost"),
        (nl + 1 + (data.len() - nl - 1) / 2, "mid-body"),
        (data.len() - 1, "final byte lost"),
    ]
}

#[test]
fn truncation_at_every_byte_class_is_quarantined() {
    for class in 0..6 {
        let dir = tmpdir(&format!("trunc-{class}"));
        let store = seeded_store(&dir, 3);
        let victim = store.path_of(3);
        let data = fs::read(&victim).unwrap();
        let (cut, label) = truncation_points(&data)[class];
        fs::write(&victim, &data[..cut]).unwrap();

        let report = open(&dir);
        assert_eq!(
            report.quarantined.len(),
            1,
            "truncation class `{label}` must quarantine exactly the victim"
        );
        assert!(
            report.quarantined[0].path.to_string_lossy().ends_with(".corrupt"),
            "victim must be renamed .corrupt"
        );
        assert!(!victim.exists(), "original victim path must be vacated");
        let latest = report.latest.expect("older generations survive");
        assert_eq!(latest.generation, 2, "recovery lands on the last good generation");
        assert_eq!(latest.body, b"body of generation 2");
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn body_bit_flip_is_a_crc_quarantine() {
    let dir = tmpdir("bitflip-body");
    let store = seeded_store(&dir, 2);
    let victim = store.path_of(2);
    let mut data = fs::read(&victim).unwrap();
    let last = data.len() - 1;
    data[last] ^= 0x01;
    fs::write(&victim, &data).unwrap();

    let report = open(&dir);
    assert_eq!(report.quarantined.len(), 1);
    assert!(
        report.quarantined[0].reason.contains("CRC"),
        "reason names the CRC mismatch: {}",
        report.quarantined[0].reason
    );
    assert_eq!(report.latest.unwrap().generation, 1);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn header_bit_flip_is_quarantined() {
    let dir = tmpdir("bitflip-header");
    let store = seeded_store(&dir, 2);
    let victim = store.path_of(2);
    let mut data = fs::read(&victim).unwrap();
    data[1] ^= 0x04; // inside the first header key
    fs::write(&victim, &data).unwrap();

    let report = open(&dir);
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.latest.unwrap().generation, 1);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_magic_and_bad_version_are_quarantined() {
    let dir = tmpdir("magic-version");
    let store = seeded_store(&dir, 1);
    // Hand-craft invalid generation files alongside the good one.
    fs::write(
        store.path_of(2),
        b"{\"magic\":\"not-a-ckpt\",\"version\":2,\"cycle\":1,\"fingerprint\":1,\
          \"body_len\":1,\"body_crc32\":0}\nX",
    )
    .unwrap();
    fs::write(
        store.path_of(3),
        b"{\"magic\":\"hmc-ckpt\",\"version\":99,\"cycle\":1,\"fingerprint\":1,\
          \"body_len\":1,\"body_crc32\":0}\nX",
    )
    .unwrap();

    // A well-formed version-1 file (length and CRC right): its header
    // carries a fingerprint of the retired hash function, so it is
    // refused as an old version, never verified and found "corrupt".
    let good = fs::read(store.path_of(1)).unwrap();
    let text = String::from_utf8(good).unwrap();
    assert!(text.contains("\"version\":2"), "this build writes version 2: {text}");
    fs::write(store.path_of(4), text.replace("\"version\":2", "\"version\":1")).unwrap();

    let report = open(&dir);
    assert_eq!(report.quarantined.len(), 3);
    let reasons: Vec<&str> = report.quarantined.iter().map(|q| q.reason.as_str()).collect();
    assert!(reasons.iter().any(|r| r.contains("magic")), "{reasons:?}");
    assert!(reasons.iter().any(|r| r.contains("unsupported checkpoint version 99")), "{reasons:?}");
    assert!(reasons.iter().any(|r| r.contains("unsupported checkpoint version 1 ")), "{reasons:?}");
    assert_eq!(report.latest.unwrap().generation, 1, "only the genuine file is used");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn body_len_mismatch_is_quarantined() {
    let dir = tmpdir("bodylen");
    let store = seeded_store(&dir, 2);
    let victim = store.path_of(2);
    let data = fs::read(&victim).unwrap();
    let mut extended = data.clone();
    extended.extend_from_slice(b"trailing garbage after the declared body");
    fs::write(&victim, &extended).unwrap();

    let report = open(&dir);
    assert_eq!(report.quarantined.len(), 1);
    assert!(
        report.quarantined[0].reason.contains("truncated body")
            || report.quarantined[0].reason.contains("bytes"),
        "{}",
        report.quarantined[0].reason
    );
    assert_eq!(report.latest.unwrap().generation, 1);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_tmp_from_kill_before_rename_is_quarantined() {
    let dir = tmpdir("staletmp");
    let store = seeded_store(&dir, 2);
    // Simulate a kill between the tmp write and the rename: a partial
    // next-generation file with the tmp suffix.
    let tmp = dir.join("ckpt-3.json.tmp");
    fs::write(&tmp, b"{\"magic\":\"hmc-ckpt\",\"ver").unwrap();

    let report = open(&dir);
    assert_eq!(report.quarantined.len(), 1);
    assert!(
        report.quarantined[0].reason.contains("crash before rename"),
        "{}",
        report.quarantined[0].reason
    );
    assert!(!tmp.exists(), "tmp must be renamed aside");
    assert!(dir.join("ckpt-3.json.tmp.corrupt").exists());
    // The good generations are untouched and the newest one wins.
    assert_eq!(report.latest.unwrap().generation, 2);
    // A committed generation after recovery does not collide with
    // anything the crash left behind.
    let mut store2 = CheckpointStore::open(&dir, usize::MAX).unwrap().store;
    store2.commit(300, 3, b"post-recovery").unwrap();
    assert_eq!(open(&dir).latest.unwrap().body, b"post-recovery");
    let _ = store;
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn quarantined_files_are_never_rescanned_or_deleted() {
    let dir = tmpdir("idempotent");
    let store = seeded_store(&dir, 2);
    let victim = store.path_of(2);
    let data = fs::read(&victim).unwrap();
    fs::write(&victim, &data[..data.len() / 2]).unwrap();

    let first = open(&dir);
    assert_eq!(first.quarantined.len(), 1);
    let corrupt_path = first.quarantined[0].path.clone();
    // A second open reports nothing new but keeps the evidence.
    let second = open(&dir);
    assert!(second.quarantined.is_empty(), "already-quarantined files are not re-reported");
    assert!(corrupt_path.exists(), "quarantined evidence is preserved, never deleted");
    assert_eq!(second.latest.unwrap().generation, 1);
    fs::remove_dir_all(&dir).unwrap();
}

#[derive(Debug, Clone)]
enum Damage {
    Truncate(usize),
    FlipBit { offset: usize, bit: u8 },
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0usize..10_000).prop_map(Damage::Truncate),
        ((0usize..10_000), (0u8..8)).prop_map(|(offset, bit)| Damage::FlipBit { offset, bit }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever damage a crash inflicts on any suffix of the
    /// generation chain, `open` always recovers the newest UNDAMAGED
    /// generation with its exact body, and quarantines every damaged
    /// file it inspected.
    #[test]
    fn recovery_always_lands_on_the_last_good_generation(
        total in 2u64..6,
        damaged_suffix in 1u64..5,
        damages in prop::collection::vec(arb_damage(), 1..5),
        case in 0u32..1_000_000,
    ) {
        let dir = tmpdir(&format!("prop-{case}-{total}-{damaged_suffix}"));
        let store = seeded_store(&dir, total);
        let first_damaged = total.saturating_sub(damaged_suffix.min(total - 1)) + 1;
        let mut expected_quarantines = 0usize;
        for (i, gen) in (first_damaged..=total).enumerate() {
            let path = store.path_of(gen);
            let mut data = fs::read(&path).unwrap();
            let damage = &damages[i % damages.len()];
            match damage {
                // Any proper-prefix truncation invalidates the file:
                // either the header line is gone or the body is short.
                Damage::Truncate(at) => {
                    let at = *at % data.len();
                    data.truncate(at);
                }
                // Bit flips target the body, where the CRC catches
                // every single-bit error. (A flip inside a header
                // *digit* could yield a different-but-valid header,
                // which is exactly why the fingerprint is re-verified
                // at resume time — see the replay CLI.)
                Damage::FlipBit { offset, bit } => {
                    let nl = data.iter().position(|&b| b == b'\n').unwrap();
                    let body_len = data.len() - nl - 1;
                    let at = nl + 1 + (*offset % body_len);
                    data[at] ^= 1 << bit;
                }
            }
            fs::write(&path, &data).unwrap();
            expected_quarantines += 1;
        }

        let report = open(&dir);
        let last_good = first_damaged - 1;
        prop_assert_eq!(report.quarantined.len(), expected_quarantines,
            "every damaged file is quarantined");
        let latest = report.latest.expect("an undamaged generation remains");
        prop_assert_eq!(latest.generation, last_good);
        prop_assert_eq!(latest.body, format!("body of generation {last_good}").into_bytes());
        fs::remove_dir_all(&dir).unwrap();
    }
}
