//! A faulted verdict computation is never memoized: a single-flight
//! leader that unwinds leaves no entry behind, so the next lookup of its
//! key recomputes the true verdict, and only that one is cached.
//!
//! Armed failpoints are process-global, so this test owns its binary.

use std::panic::{catch_unwind, AssertUnwindSafe};
use subsub_failpoint::{self as failpoint, Arm, FailPlan, Fire};
use subsub_rtcheck::{inspect_serial, Provenance, ValidatedIndexArray};
use subsub_service::{InspectorKind, Lookup, ShardedVerdictCache, VerdictKey};

#[test]
fn unwinding_leader_is_never_memoized() {
    failpoint::silence_injected_panics();
    let cache = ShardedVerdictCache::new(2, 16);
    let mut data: Vec<usize> = (0..100).collect();
    data[50] = 0;
    let a = ValidatedIndexArray::ingest(
        "b",
        data,
        usize::MAX,
        Provenance::Untrusted {
            source: "flight-fault".into(),
        },
    )
    .expect("in-domain");
    let key = VerdictKey::of(&a, InspectorKind::Monotone);
    let truth = inspect_serial(a.data());
    assert!(!truth.nonstrict, "the verdict under test is a denial");

    let armed =
        failpoint::arm(FailPlan::new().with("service.flight.leader", Arm::Panic, Fire::nth(0)));
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        cache.get_or_compute(key, || a.summary_verdict())
    }));
    assert!(unwound.is_err(), "the armed leader must unwind");
    assert_eq!(failpoint::fired("service.flight.leader"), 1);
    drop(armed);

    assert_eq!(
        cache.get_or_compute(key, || a.summary_verdict()),
        (truth, Lookup::Miss),
        "the faulted computation left no entry"
    );
    assert_eq!(
        cache.get_or_compute(key, || panic!("a hit must not recompute")),
        (truth, Lookup::Hit)
    );
    let s = cache.stats();
    assert_eq!((s.misses, s.hits, s.entries), (2, 1, 1), "{s:?}");
}
