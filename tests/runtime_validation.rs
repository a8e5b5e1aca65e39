//! End-to-end runtime validation: for every benchmark and every algorithm
//! level, execute the variant the analysis selected on the real `omprt`
//! thread pool and require bit-level agreement (up to floating-point
//! reassociation) with the serial reference. This is the safety property
//! the whole system rests on — a wrong parallelization decision would
//! corrupt results, not just performance.

use subsub::core::AlgorithmLevel;
use subsub::kernels::{all_kernels, common::close};
use subsub::omprt::{Schedule, ThreadPool};
use subsub::rtcheck::{parse_check, GuardPath};
use subsub_bench::{variant_for, GuardedHarness};

#[test]
fn every_selected_variant_matches_serial() {
    let pool = ThreadPool::new(4);
    for k in all_kernels() {
        let mut inst = k.prepare("test");
        inst.run_serial();
        let reference = inst.checksum();
        for level in [
            AlgorithmLevel::Classic,
            AlgorithmLevel::Base,
            AlgorithmLevel::New,
        ] {
            let variant = variant_for(k.as_ref(), level);
            for sched in [Schedule::static_default(), Schedule::dynamic_default()] {
                inst.reset();
                inst.run(variant, &pool, sched);
                let got = inst.checksum();
                assert!(
                    close(reference, got),
                    "{} @ {level} ({variant}, {sched}): {got} != {reference}",
                    k.name()
                );
            }
        }
    }
}

/// The paper's runtime check is part of the emitted pragma exactly for
/// the benchmarks whose analysis bound is a post-loop value (AMGmk,
/// SDDMM, and the two-level CSRoCSR composition) or whose recurrence is
/// only conditionally monotone (GuardedPrefix's step guard) — and absent
/// where the bound is compile-time (UA) or no property is needed.
#[test]
fn runtime_checks_present_exactly_where_expected() {
    use subsub::core::analyze_program;
    for k in all_kernels() {
        let report = analyze_program(k.source(), AlgorithmLevel::New).unwrap();
        let f = report.function(k.func_name()).unwrap();
        let check = f
            .last_nest_parallel()
            .and_then(|l| l.decision.plan())
            .and_then(|p| p.runtime_check.clone());
        match k.name() {
            "AMGmk" | "SDDMM" | "CSRoCSR" | "GuardedPrefix" => {
                assert!(check.is_some(), "{} should carry a runtime check", k.name())
            }
            _ => assert!(
                check.is_none(),
                "{} should not need a runtime check (got {check:?})",
                k.name()
            ),
        }
    }
}

/// Larger-than-test datasets also validate (one spot check per headline
/// benchmark, outer variant, both schedules).
#[test]
fn headline_benchmarks_validate_on_real_datasets() {
    let pool = ThreadPool::new(4);
    for (name, ds) in [
        ("AMGmk", "MATRIX1"),
        ("SDDMM", "gsm_106857"),
        ("UA(transf)", "CLASS A"),
    ] {
        let k = subsub::kernels::kernel_by_name(name).unwrap();
        let mut inst = k.prepare(ds);
        inst.run_serial();
        let reference = inst.checksum();
        inst.reset();
        inst.run(
            subsub::kernels::Variant::OuterParallel,
            &pool,
            Schedule::dynamic_default(),
        );
        assert!(close(reference, inst.checksum()), "{name} [{ds}]");
    }
}

/// The emitted checks are executable: they round-trip through the display
/// form (`CheckExpr → string → parse → CheckExpr`) without losing the
/// structure the compiler and the dedup rely on.
#[test]
fn emitted_checks_round_trip_through_text() {
    use subsub::core::analyze_program;
    for name in ["AMGmk", "SDDMM"] {
        let k = subsub::kernels::kernel_by_name(name).unwrap();
        let report = analyze_program(k.source(), AlgorithmLevel::New).unwrap();
        let f = report.function(k.func_name()).unwrap();
        let check = f
            .last_nest_parallel()
            .and_then(|l| l.decision.plan())
            .and_then(|p| p.runtime_check.clone())
            .unwrap_or_else(|| panic!("{name} should carry a runtime check"));
        let reparsed = parse_check(&check.to_string()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(reparsed, check, "{name}: round-trip changed the check");
    }
}

/// The guarded executor admits the parallel variant on healthy inputs and
/// produces results matching a plain serial run.
#[test]
fn guarded_execution_admits_parallel_and_matches_serial() {
    let pool = ThreadPool::new(4);
    for name in ["AMGmk", "SDDMM"] {
        let k = subsub::kernels::kernel_by_name(name).unwrap();
        let mut inst = k.prepare("test");
        inst.run_serial();
        let reference = inst.checksum();
        inst.reset();
        let harness = GuardedHarness::new(k.as_ref(), AlgorithmLevel::New);
        let out = harness.run(inst.as_mut(), &pool, Schedule::static_default());
        assert_eq!(out.path, GuardPath::Parallel, "{name}: {:?}", out.reason);
        assert!(close(reference, out.checksum), "{name}");
        assert_eq!(harness.stats().parallel_runs, 1);
    }
}

/// Corrupting an index array flips the guarded executor to the serial
/// path, and the result is bit-identical to a plain serial run on the
/// same corrupted instance (no parallel reassociation: exact equality).
#[test]
fn tampered_index_array_degrades_to_serial_bit_identical() {
    let pool = ThreadPool::new(4);
    for name in ["AMGmk", "SDDMM"] {
        let k = subsub::kernels::kernel_by_name(name).unwrap();

        // Serial reference on an identically tampered instance.
        let mut serial_inst = k.prepare("test");
        assert!(
            serial_inst.tamper_index_arrays(),
            "{name}: nothing tampered"
        );
        serial_inst.run_serial();
        let reference = serial_inst.checksum();

        let mut inst = k.prepare("test");
        assert!(inst.tamper_index_arrays());
        let harness = GuardedHarness::new(k.as_ref(), AlgorithmLevel::New);
        let out = harness.run(inst.as_mut(), &pool, Schedule::static_default());
        assert_eq!(out.path, GuardPath::Serial, "{name}: guard must reject");
        let reason = out.reason.expect("fallback reason");
        assert!(
            matches!(reason, subsub::rtcheck::ExecError::NotMonotone { .. }),
            "{name}: {reason}"
        );
        assert_eq!(out.executed, subsub::kernels::Variant::Serial);
        // Same serial code on same input: exactly equal, not just close.
        assert_eq!(out.checksum.to_bits(), reference.to_bits(), "{name}");
        assert_eq!(harness.stats().inspection_failures, 1, "{name}");
    }
}

/// Re-running an unchanged instance is admitted again; tampering bumps
/// the version and refreshes the summaries, so the next decision denies
/// the array as not monotone.
#[test]
fn rerun_admits_and_tampered_array_is_denied() {
    let pool = ThreadPool::new(2);
    let k = subsub::kernels::kernel_by_name("AMGmk").unwrap();
    let harness = GuardedHarness::new(k.as_ref(), AlgorithmLevel::New);
    let mut inst = k.prepare("test");

    for _ in 0..2 {
        let out = harness.run(inst.as_mut(), &pool, Schedule::static_default());
        assert_eq!(out.path, GuardPath::Parallel, "{:?}", out.reason);
        inst.reset();
    }

    assert!(inst.tamper_index_arrays());
    let out = harness.run(inst.as_mut(), &pool, Schedule::static_default());
    assert_eq!(out.path, GuardPath::Serial);
    assert!(
        matches!(
            out.reason,
            Some(subsub::rtcheck::ExecError::NotMonotone { .. })
        ),
        "{:?}",
        out.reason
    );
}

/// Kernels whose decision carries no check get a pass-through guard: the
/// parallel path is admitted unconditionally (UA), and analysis-serial
/// kernels never consult the guard at all (IS).
#[test]
fn no_check_kernels_keep_their_decision() {
    let pool = ThreadPool::new(2);

    let ua = subsub::kernels::kernel_by_name("UA(transf)").unwrap();
    let harness = GuardedHarness::new(ua.as_ref(), AlgorithmLevel::New);
    assert!(harness.check().is_none());
    let mut inst = ua.prepare("test");
    let out = harness.run(inst.as_mut(), &pool, Schedule::static_default());
    assert_eq!(out.path, GuardPath::Parallel);
    assert_eq!(out.executed, subsub::kernels::Variant::OuterParallel);

    let is = subsub::kernels::kernel_by_name("IS").unwrap();
    let harness = GuardedHarness::new(is.as_ref(), AlgorithmLevel::New);
    assert!(harness.check().is_none());
    let mut inst = is.prepare(is.datasets()[0]);
    let out = harness.run(inst.as_mut(), &pool, Schedule::static_default());
    assert_eq!(out.executed, subsub::kernels::Variant::Serial);
    assert_eq!(out.reason, Some(subsub::rtcheck::ExecError::AnalysisSerial));
}
