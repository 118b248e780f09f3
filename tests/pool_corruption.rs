//! A tag pool corrupted each way `TagPool::audit` names, under the
//! sanitizer: the audit proves a sound pool sound a word at a time and
//! leaves the naming to the check-by-check path, so every report must
//! still carry the first offender and the wording it always had. The
//! detail strings are pinned as the audit worded them before it took
//! the short path.

use hmcsim::prelude::*;
use hmcsim::sim::ViolationKind;
use hmcsim::types::Tag;

const CAPACITY: u32 = 65;

/// One cube, a 65-tag pool on link 0 with tags 0 and 1 in flight,
/// sanitizer reporting; `corrupt` then has its way with the pool, one
/// cycle is audited, and the tag violations come back in report order.
fn tag_violations(corrupt: impl FnOnce(&mut hmcsim::types::TagPool)) -> Vec<(ViolationKind, String)> {
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    sim.configure_tag_pool(0, 0, CAPACITY).unwrap();
    sim.enable_sanitizer(SanitizerConfig::report());
    for addr in [0x40, 0x80] {
        sim.send_simple(0, 0, HmcRqst::Rd64, addr, vec![]).unwrap();
    }
    sim.clock();
    assert_eq!(sim.sanitizer_report().unwrap().total_violations, 0, "sound before the damage");
    corrupt(sim.debug_tag_pool(0, 0));
    sim.clock();
    let report = sim.sanitizer_report().unwrap();
    let tag_kinds = [ViolationKind::TagPoolCorrupt, ViolationKind::TagLiveAndFree];
    assert!(report.violations.iter().all(|v| tag_kinds.contains(&v.kind)), "{report:?}");
    report.violations.iter().map(|v| (v.kind, v.detail.clone())).collect()
}

fn tag(value: u32) -> Tag {
    Tag::new(value).unwrap()
}

const CORRUPT: ViolationKind = ViolationKind::TagPoolCorrupt;
const STRAY: ViolationKind = ViolationKind::TagLiveAndFree;
/// What the registered-tags check says once tag 0 has stopped being
/// live behind the registry's back.
const TAG_0_STRAY: &str = "dev 0 link 0: registered in-flight tag 0 is free in its pool";

#[test]
fn every_way_a_pool_breaks_is_named_as_before() {
    // A live tag pushed onto the free list as well: the counts no
    // longer add up, which is what the audit looks at first.
    assert_eq!(
        tag_violations(|pool| pool.debug_push_free(tag(0))),
        [(CORRUPT, "dev 0 link 0: free (64) + live (2) != capacity (65)".to_string())]
    );

    // A free tag marked live while a live one is unmarked: the counts
    // add up, the maps overlap.
    assert_eq!(
        tag_violations(|pool| {
            pool.debug_set_live(tag(5), true);
            pool.debug_set_live(tag(0), false);
        }),
        [
            (CORRUPT, "dev 0 link 0: tag 5 is both free and in flight".to_string()),
            (STRAY, TAG_0_STRAY.to_string()),
        ]
    );

    // A tag past the capacity freed in a live tag's place.
    assert_eq!(
        tag_violations(|pool| {
            pool.debug_push_free(tag(70));
            pool.debug_set_live(tag(0), false);
        }),
        [
            (CORRUPT, "dev 0 link 0: free tag 70 outside capacity 65".to_string()),
            (STRAY, TAG_0_STRAY.to_string()),
        ]
    );

    // A free tag freed twice in a live tag's place: counts and maps
    // agree, only the list is longer than its membership map.
    assert_eq!(
        tag_violations(|pool| {
            pool.debug_push_free(tag(7));
            pool.debug_set_live(tag(0), false);
        }),
        [
            (CORRUPT, "dev 0 link 0: tag 7 duplicated on the free list".to_string()),
            (STRAY, TAG_0_STRAY.to_string()),
        ]
    );

    // A sound pool whose registry still lists a tag it took back.
    assert_eq!(
        tag_violations(|pool| pool.release(tag(0)).unwrap()),
        [(STRAY, TAG_0_STRAY.to_string())]
    );

    // Two registered tags gone: both are named, lowest first.
    assert_eq!(
        tag_violations(|pool| {
            pool.release(tag(1)).unwrap();
            pool.release(tag(0)).unwrap();
        }),
        [
            (STRAY, TAG_0_STRAY.to_string()),
            (STRAY, TAG_0_STRAY.replace("tag 0", "tag 1")),
        ]
    );
}
