//! Workspace-level adversarial integration test: drives the whole
//! inspect/guard/dispatch trust boundary end-to-end with hostile input
//! and cross-checks it through the differential oracle.
//!
//! Unit tests in `rtcheck` and `oracle` cover each layer in isolation;
//! this test asserts the layers compose — raw bytes cannot reach the
//! parser's stack, raw indices cannot reach the inspector without
//! ingestion, overflowing predicates cannot reach the parallel path,
//! and a pinned fuzz campaign over every kernel stays divergence-free.

use subsub::rtcheck::{Provenance, ValidatedIndexArray, ValidationError};
use subsub_oracle::{check_kernel, gen_array, run_campaign, ArrayShape, FuzzConfig, ALL_SHAPES};

#[test]
fn ingestion_is_the_only_gate_and_it_holds() {
    // Every generated out-of-domain array must be rejected with a
    // structured error naming the offending entry; every in-domain array
    // must be accepted whatever its monotonicity.
    let mut rejected = 0;
    for seed in [7u64, 31337, 271828] {
        let mut rng = subsub::sparse::Rng64::seed_from_u64(seed);
        for shape in ALL_SHAPES {
            let g = gen_array(&mut rng, shape);
            let r = ValidatedIndexArray::ingest(
                "adv",
                g.data.clone(),
                g.domain,
                Provenance::Untrusted {
                    source: "fuzz".into(),
                },
            );
            if g.expect_reject {
                let Err(ValidationError::OutOfDomain {
                    index,
                    value,
                    domain,
                    ..
                }) = r
                else {
                    panic!("{shape}: out-of-domain input ingested: {:?}", g.data);
                };
                assert!(value >= domain);
                assert_eq!(g.data[index], value);
                rejected += 1;
            } else {
                let v = r.unwrap_or_else(|e| panic!("{shape}: spurious reject: {e}"));
                assert_eq!(v.data(), &g.data[..]);
                assert!(v.verify().is_ok());
            }
        }
    }
    assert!(rejected >= 3, "generator produced no out-of-domain cases");
}

#[test]
fn tampering_after_ingestion_is_caught() {
    let mut v = ValidatedIndexArray::ingest(
        "t",
        vec![0, 1, 2, 3],
        8,
        Provenance::Dataset {
            name: "unit".into(),
        },
    )
    .unwrap();
    // A writer that bypasses the boundary breaks the checksum.
    v.bypass_validation_mut()[2] = 99;
    match v.verify() {
        Err(ValidationError::ChecksumMismatch { array, block }) => {
            assert_eq!((array.as_str(), block), ("t", Some(0)))
        }
        other => panic!("tamper not detected: {other:?}"),
    }
}

#[test]
fn pinned_campaigns_stay_clean_across_the_stack() {
    // A reduced-size campaign per pinned seed (CI runs the full ones via
    // ci.sh): arrays through ingestion+inspection, predicates through
    // compile-vs-reference, mutated sources through the frontend
    // contract, no kernels here to keep the test fast.
    for seed in [7u64, 31337, 271828] {
        let report = run_campaign(&FuzzConfig {
            seed,
            arrays_per_shape: 4,
            predicates: 60,
            sources: 24,
            kernels: false,
        });
        assert!(report.is_clean(), "seed {seed} diverged:\n{report}");
        assert_eq!(report.source_cases, 24, "source leg did not run");
    }
}

#[test]
fn one_guarded_kernel_survives_an_adversarial_seed_end_to_end() {
    // Full dispatch path on a real kernel: serial golden, guarded
    // parallel run, output comparison, and the tamper leg proving a
    // monotonicity-breaking mutation is denied the parallel path.
    let k = subsub::kernels::kernel_by_name("CG").expect("CG registered");
    let divergences = check_kernel(k.as_ref(), 7);
    assert!(divergences.is_empty(), "{divergences:?}");
}

#[test]
fn adversarial_shapes_cover_the_threat_model() {
    // Keep the generator honest: the shape list must retain the classes
    // the threat model names (degenerate, boundary, near-max, OOB).
    for name in [
        "empty",
        "single",
        "plateau",
        "duplicate-at-boundary",
        "near-max",
        "out-of-domain",
        "almost-monotone",
        "sawtooth",
    ] {
        assert!(
            ArrayShape::parse(name).is_some(),
            "shape `{name}` missing from ALL_SHAPES"
        );
    }
}
