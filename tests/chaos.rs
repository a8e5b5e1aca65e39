//! Chaos integration suite: seeded fault-injection sweeps over the full
//! kernel registry, plus an end-to-end circuit-breaker scenario and the
//! inspection→dispatch tamper-gate regression.
//!
//! Armed failpoints are process-global, so this suite owns its test
//! binary and serializes its tests through one lock — a sweep arming a
//! panic schedule must not inject into another test's "clean" phase.

use std::sync::Mutex;
use subsub::core::AlgorithmLevel;
use subsub::kernels::{common::close, kernel_by_name, Variant};
use subsub::omprt::{Schedule, ThreadPool};
use subsub::rtcheck::{BreakerState, ExecError, GuardPath, GuardedExecutor};
use subsub_bench::{chaos_sweep, GuardedHarness, DEFAULT_SEEDS};
use subsub_failpoint::{self as failpoint, Arm, FailPlan, Fire};

static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The acceptance sweep: every pinned CI seed over every kernel, with
/// seeded schedules armed over all failpoint sites. Each run must either
/// complete parallel (matching the serial golden) or degrade serially
/// with a classified error and bit-identical output — never abort, hang,
/// or corrupt.
#[test]
fn pinned_seed_sweeps_uphold_the_robustness_invariant() {
    let _t = serialize();
    let mut any_fired = false;
    for &seed in DEFAULT_SEEDS {
        let report = chaos_sweep(seed);
        assert!(
            report.ok(),
            "seed {seed} violations:\n{}",
            report.violations.join("\n")
        );
        assert_eq!(
            report.results.len(),
            subsub::kernels::all_kernels().len(),
            "the sweep must cover the whole registry"
        );
        any_fired |= report.results.iter().any(|r| !r.fired_sites.is_empty());
    }
    assert!(
        any_fired,
        "across the pinned seeds at least one injection must actually fire"
    );
}

/// End-to-end breaker scenario on a real kernel: a persistently faulting
/// parallel path trips the breaker after two invocations (attempt +
/// retry each), the kernel is pinned to serial for the whole cooldown
/// with bit-identical output, and a clean half-open trial re-admits and
/// closes the breaker.
#[test]
fn breaker_pins_faulting_kernel_and_readmits_after_cooldown() {
    let _t = serialize();
    failpoint::silence_injected_panics();
    let k = kernel_by_name("AMGmk").unwrap();
    let harness = GuardedHarness::new(k.as_ref(), AlgorithmLevel::New);
    let pool = ThreadPool::new(4);

    let mut golden_inst = k.prepare("test");
    golden_inst.run_serial();
    let golden = golden_inst.checksum();

    let mut inst = k.prepare("test");
    {
        let _armed = failpoint::arm(FailPlan::new().with(
            "bench.kernel.parallel",
            Arm::Panic,
            Fire::always(),
        ));
        // Each invocation: faulting attempt + faulting retry = 2
        // consecutive faults. The default threshold (3) is crossed on
        // the second invocation's first fault.
        for i in 0..2 {
            inst.reset();
            let out = harness.run(inst.as_mut(), &pool, Schedule::dynamic_default());
            assert!(
                matches!(out.reason, Some(ExecError::ParallelFault { .. })),
                "invocation {i}: {:?}",
                out.reason
            );
            assert_eq!(out.executed, Variant::Serial);
            assert_eq!(
                out.checksum.to_bits(),
                golden.to_bits(),
                "serial rescue must be bit-identical"
            );
        }
    }
    assert_eq!(harness.breaker_state(), BreakerState::Open { remaining: 8 });
    let s = harness.stats();
    assert_eq!(s.breaker_trips, 1, "{s:?}");
    assert_eq!(s.retries, 2, "{s:?}");

    // Cooldown: 8 admissions denied up front — no parallel attempt, no
    // fault-recovery cost, output still bit-identical serial.
    for i in 0..8 {
        inst.reset();
        let out = harness.run(inst.as_mut(), &pool, Schedule::dynamic_default());
        assert!(
            matches!(out.reason, Some(ExecError::BreakerOpen { .. })),
            "denial {i}: {:?}",
            out.reason
        );
        assert_eq!(out.executed, Variant::Serial);
        assert_eq!(out.checksum.to_bits(), golden.to_bits());
    }
    assert_eq!(harness.breaker_state(), BreakerState::HalfOpen);
    assert_eq!(harness.stats().breaker_short_circuits, 8);

    // The failpoint is disarmed: the half-open trial runs parallel,
    // succeeds, and the breaker closes.
    inst.reset();
    let out = harness.run(inst.as_mut(), &pool, Schedule::dynamic_default());
    assert!(
        out.reason.is_none(),
        "trial must be admitted: {:?}",
        out.reason
    );
    assert_eq!(out.path, GuardPath::Parallel);
    assert!(close(golden, out.checksum));
    assert_eq!(harness.breaker_state(), BreakerState::Closed { faults: 0 });
}

/// Satellite regression: a concurrent tamper *between* inspection
/// (phase 1) and dispatch (phase 2) bumps the array's write-version, and
/// the dispatch-time gate catches it — the stale inspection evidence is
/// not trusted and the run finishes serial.
#[test]
fn tamper_between_inspection_and_dispatch_is_caught() {
    let _t = serialize();
    let k = kernel_by_name("AMGmk").unwrap();
    let harness = GuardedHarness::new(k.as_ref(), AlgorithmLevel::New);
    let exec = GuardedExecutor::new(harness.check()).unwrap();
    let pool = ThreadPool::new(2);
    let mut inst = k.prepare("test");

    let bindings = inst.runtime_bindings();
    let decision = {
        let arrays = inst.index_arrays();
        exec.decide_recoverable("AMGmk", &bindings, &arrays, Some(&pool))
    };
    assert_eq!(
        decision.verdict.path,
        GuardPath::Parallel,
        "healthy instance must be admitted: {:?}",
        decision.verdict.reason
    );
    assert!(!decision.inspected.is_empty(), "AMGmk has index arrays");

    // A "concurrent writer" strikes between the phases: the existing
    // tamper hook corrupts the index arrays and bumps their versions.
    assert!(inst.tamper_index_arrays());

    let versions_owned: Vec<(String, u64)> = inst
        .index_arrays()
        .iter()
        .map(|v| (v.name.to_string(), v.version()))
        .collect();
    let versions: Vec<(&str, u64)> = versions_owned
        .iter()
        .map(|(n, v)| (n.as_str(), *v))
        .collect();
    let (out, reason) = exec.execute_admitted(
        "AMGmk",
        &decision,
        &versions,
        || Ok("parallel"),
        || {},
        || "serial",
    );
    assert_eq!(out, "serial", "stale evidence must not admit parallel");
    assert!(
        matches!(reason, Some(ExecError::TamperDetected { .. })),
        "{reason:?}"
    );
    assert_eq!(exec.stats().tamper_detections, 1);
}
