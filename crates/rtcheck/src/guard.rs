//! Guarded execution: run parallel when the evidence admits it, degrade
//! to serial otherwise — and degrade *gracefully* when the parallel
//! machinery itself faults.
//!
//! A [`GuardedExecutor`] bundles the compiled scalar check emitted by the
//! dependence test with a [`VerdictSource`] and a per-kernel
//! [`CircuitBreaker`]. [`GuardedExecutor::decide_recoverable`] is the one
//! route from index arrays to a [`Decision`]; it walks a fixed ladder:
//!
//! 1. **breaker** — a kernel with too many recent parallel-path faults
//!    is pinned to serial for a cooldown ([`ExecError::BreakerOpen`]);
//! 2. **scalar check** — evaluated against the kernel's [`Bindings`];
//!    false or unevaluable denies ([`ExecError::CheckFailed`] /
//!    [`ExecError::CheckUnevaluable`]);
//! 3. **per index array** — the source verifies the array against its
//!    last validated state (a bypassing writer denies with
//!    [`ExecError::InvalidIndexArray`] before any verdict is read), then
//!    serves its verdict; a verdict that does not satisfy the array's
//!    requirement denies with [`ExecError::NotMonotone`].
//!
//! [`GuardedExecutor::execute_admitted`] then runs the decision:
//!
//! 4. **tamper gate** — any index array whose write-version moved since
//!    the decision denies ([`ExecError::TamperDetected`]);
//! 5. **parallel attempt** — a faulting parallel variant gets one retry
//!    after the caller's `recover` hook (transient faults only), then
//!    the invocation finishes on the recovered serial path
//!    ([`ExecError::ParallelFault`]), feeding the breaker.
//!
//! Every decision and recovery action is counted in [`GuardStats`], so a
//! harness can assert that both paths were actually taken and that the
//! breaker tripped when it should.

use crate::bindings::Bindings;
use crate::breaker::{BreakerState, CircuitBreaker};
use crate::compile::{CompileError, CompiledCheck};
use crate::error::ExecError;
use crate::expr::CheckExpr;
use crate::inspect::MonotoneVerdict;
use crate::validate::{IndexArrayView, ValidatedIndexArray, ValidationError};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use subsub_failpoint::{self as failpoint, Action};
use subsub_omprt::{CancelToken, ThreadPool};
use subsub_telemetry as telemetry;
use subsub_telemetry::{verdict_code, EventKind, Phase};

/// Which variant a guarded invocation ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardPath {
    /// All guards passed; the parallel variant ran.
    Parallel,
    /// At least one guard failed; the serial variant ran.
    Serial,
}

/// The decision for one invocation, with the classified reason it fell
/// back (if it did).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardVerdict {
    /// The variant to run.
    pub path: GuardPath,
    /// Why the serial path was chosen, when it was. `None` on the
    /// parallel path.
    pub reason: Option<ExecError>,
}

/// Emits the `guard_verdict` flight-recorder instant for one decision.
fn record_verdict(kernel: &str, verdict: &GuardVerdict) {
    telemetry::instant_labeled(
        EventKind::GuardVerdict,
        Phase::GuardDecide,
        kernel,
        verdict_code(
            verdict.path == GuardPath::Parallel,
            verdict.reason.as_ref().map_or(0, ExecError::reason_class),
        ),
    );
}

impl GuardVerdict {
    fn parallel() -> GuardVerdict {
        GuardVerdict {
            path: GuardPath::Parallel,
            reason: None,
        }
    }

    fn serial(reason: ExecError) -> GuardVerdict {
        GuardVerdict {
            path: GuardPath::Serial,
            reason: Some(reason),
        }
    }
}

/// How a verdict cache answered one lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Served from a live entry this process computed.
    Hit,
    /// Served from a warm-started (snapshot-loaded) entry.
    WarmHit,
    /// Waited for a concurrent leader's in-flight computation.
    Coalesced,
    /// This lookup computed the verdict.
    Miss,
}

/// Where one array's verdict came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictOrigin {
    /// Read off the array's block summaries by this decision.
    Summary,
    /// Answered by a verdict cache.
    Cache(Lookup),
}

/// The one place a [`GuardedExecutor`] gets an index array's verdict.
pub trait VerdictSource: fmt::Debug + Send + Sync {
    /// Vouches for `array` and returns its monotonicity verdict. An array
    /// that fails verification is an error, never a verdict.
    fn verdict(
        &self,
        array: &ValidatedIndexArray,
    ) -> Result<(MonotoneVerdict, VerdictOrigin), ValidationError>;
}

/// The default [`VerdictSource`]: [`ValidatedIndexArray::verify`] from
/// the raw bytes (Θ(n)), then
/// [`ValidatedIndexArray::summary_verdict`] off the block summaries
/// (Θ(n / [`crate::BLOCK_LEN`])). The passing `verify()` proves the
/// contents are the last validated state, which is exactly the state the
/// summaries describe.
#[derive(Debug, Clone, Copy, Default)]
pub struct SummarySource;

impl VerdictSource for SummarySource {
    fn verdict(
        &self,
        array: &ValidatedIndexArray,
    ) -> Result<(MonotoneVerdict, VerdictOrigin), ValidationError> {
        array.verify()?;
        let _inspect_span = telemetry::span_labeled(Phase::Inspect, array.name());
        Ok((array.summary_verdict(), VerdictOrigin::Summary))
    }
}

/// One index array a decision consulted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inspected {
    /// The array's name.
    pub array: String,
    /// Its write-version at decision time (the tamper gate's baseline).
    pub version: u64,
    /// Where its verdict came from.
    pub origin: VerdictOrigin,
}

/// A phase-1 decision ([`GuardedExecutor::decide_recoverable`]) carrying
/// what phase 2 ([`GuardedExecutor::execute_admitted`]) needs: the
/// verdict plus the write-versions the verdicts were based on, for the
/// dispatch-time tamper gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// The guard verdict (no path counters recorded yet — phase 2 counts
    /// what actually ran).
    pub verdict: GuardVerdict,
    /// Every index array whose verdict was read, in order.
    pub inspected: Vec<Inspected>,
}

/// Cumulative decision counters for one executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardStats {
    /// Invocations dispatched to the parallel variant.
    pub parallel_runs: u64,
    /// Invocations that fell back to serial.
    pub serial_fallbacks: u64,
    /// Scalar check failures among the fallbacks.
    pub check_failures: u64,
    /// Inspection failures (array not monotone enough) among the
    /// fallbacks.
    pub inspection_failures: u64,
    /// Faulted parallel attempts observed (including faults that a
    /// retry then recovered).
    pub region_faults: u64,
    /// Bounded retries attempted after a transient fault.
    pub retries: u64,
    /// Retries whose second attempt succeeded.
    pub retry_successes: u64,
    /// Index arrays whose version drifted between inspection and
    /// dispatch (each denied the parallel path).
    pub tamper_detections: u64,
    /// Index arrays the verdict source refused to vouch for (failed
    /// re-verification at the ingestion trust boundary).
    pub validation_rejections: u64,
    /// Times a fault opened a kernel's circuit breaker.
    pub breaker_trips: u64,
    /// Invocations denied up front by an open breaker.
    pub breaker_short_circuits: u64,
    /// Invocations abandoned mid-ladder because their cancel token
    /// tripped (expired deadline or abandoned waiter).
    pub cancelled_invocations: u64,
}

/// Runs a kernel under its runtime guards.
#[derive(Debug)]
pub struct GuardedExecutor {
    check: Option<CompiledCheck>,
    source: Box<dyn VerdictSource>,
    breaker: CircuitBreaker,
    parallel_runs: AtomicU64,
    serial_fallbacks: AtomicU64,
    check_failures: AtomicU64,
    inspection_failures: AtomicU64,
    region_faults: AtomicU64,
    retries: AtomicU64,
    retry_successes: AtomicU64,
    tamper_detections: AtomicU64,
    validation_rejections: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_short_circuits: AtomicU64,
    cancelled_invocations: AtomicU64,
}

impl GuardedExecutor {
    /// Builds an executor for a plan's (optional) scalar check, reading
    /// verdicts through [`SummarySource`]. A plan without a check admits
    /// the parallel path unconditionally — exactly like a pragma without
    /// an `if (...)` clause.
    pub fn new(check: Option<&CheckExpr>) -> Result<GuardedExecutor, CompileError> {
        GuardedExecutor::with_source(check, Box::new(SummarySource))
    }

    /// [`GuardedExecutor::new`] reading verdicts through `source`.
    pub fn with_source(
        check: Option<&CheckExpr>,
        source: Box<dyn VerdictSource>,
    ) -> Result<GuardedExecutor, CompileError> {
        let compiled = check.map(CompiledCheck::compile).transpose()?;
        Ok(GuardedExecutor {
            check: compiled,
            source,
            breaker: CircuitBreaker::default(),
            parallel_runs: AtomicU64::new(0),
            serial_fallbacks: AtomicU64::new(0),
            check_failures: AtomicU64::new(0),
            inspection_failures: AtomicU64::new(0),
            region_faults: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            retry_successes: AtomicU64::new(0),
            tamper_detections: AtomicU64::new(0),
            validation_rejections: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            breaker_short_circuits: AtomicU64::new(0),
            cancelled_invocations: AtomicU64::new(0),
        })
    }

    /// Replaces the default circuit breaker (threshold 3, cooldown 8)
    /// with a custom-tuned one.
    pub fn with_breaker(mut self, breaker: CircuitBreaker) -> GuardedExecutor {
        self.breaker = breaker;
        self
    }

    /// The per-kernel circuit breaker position (for harness assertions).
    pub fn breaker_state(&self, kernel: &str) -> BreakerState {
        self.breaker.state(kernel)
    }

    /// Phase 1 of guarded execution: the ladder of the module docs
    /// (breaker → scalar check → per array verify → verdict →
    /// requirement). Path counters are *not* recorded here — phase 2
    /// records what actually ran, which can differ (tamper, faults).
    ///
    /// `pool` is unused: no verdict needs a scan to parallelize. It stays
    /// because perfbench's replay calls this with an empty `arrays` and a
    /// pool, to time the breaker and the check alone.
    pub fn decide_recoverable(
        &self,
        kernel: &str,
        bindings: &Bindings,
        arrays: &[IndexArrayView<'_>],
        _pool: Option<&ThreadPool>,
    ) -> Decision {
        let _decide_span = telemetry::span_labeled(Phase::GuardDecide, kernel);
        let mut inspected = Vec::with_capacity(arrays.len());
        let verdict = self.evaluate(kernel, bindings, arrays, &mut inspected);
        record_verdict(kernel, &verdict);
        Decision { verdict, inspected }
    }

    fn evaluate(
        &self,
        kernel: &str,
        bindings: &Bindings,
        arrays: &[IndexArrayView<'_>],
        inspected: &mut Vec<Inspected>,
    ) -> GuardVerdict {
        if let Err(remaining) = self.breaker.admit(kernel) {
            self.breaker_short_circuits.fetch_add(1, Ordering::Relaxed);
            return GuardVerdict::serial(ExecError::BreakerOpen { remaining });
        }
        if let Some(denied) = self.eval_check(bindings) {
            return denied;
        }
        for view in arrays {
            let (verdict, origin) = match self.source.verdict(view.array) {
                Ok(found) => found,
                Err(e) => {
                    self.validation_rejections.fetch_add(1, Ordering::Relaxed);
                    return GuardVerdict::serial(e.into());
                }
            };
            inspected.push(Inspected {
                array: view.name.to_string(),
                version: view.version(),
                origin,
            });
            if !verdict.satisfies(view.required) {
                self.inspection_failures.fetch_add(1, Ordering::Relaxed);
                return GuardVerdict::serial(ExecError::NotMonotone {
                    array: view.name.to_string(),
                    required: view.required,
                    first_violation: verdict.first_violation,
                });
            }
        }
        GuardVerdict::parallel()
    }

    /// Phase 2: runs the variant phase 1 admitted, surviving parallel
    /// faults. `current_versions` re-reads each index array's
    /// write-version at dispatch time (tamper gate); `parallel` attempts
    /// the parallel variant, classifying its own faults; `recover`
    /// restores kernel state after a faulted attempt (it runs before any
    /// retry and before the serial rescue); `serial` is the infallible
    /// last rung.
    ///
    /// Returns the output plus the classified reason the invocation did
    /// not finish parallel (`None` when it did).
    pub fn execute_admitted<T>(
        &self,
        kernel: &str,
        decision: &Decision,
        current_versions: &[(&str, u64)],
        parallel: impl FnMut() -> Result<T, ExecError>,
        recover: impl FnMut(),
        serial: impl FnOnce() -> T,
    ) -> (T, Option<ExecError>) {
        match self.execute_admitted_cancellable(
            kernel,
            decision,
            current_versions,
            None,
            parallel,
            recover,
            serial,
        ) {
            Ok(out) => out,
            // Without a token, cancellation is unobservable; the ladder
            // always bottoms out in the infallible serial rung.
            Err(_) => unreachable!("uncancellable invocation reported Cancelled"),
        }
    }

    /// [`GuardedExecutor::execute_admitted`] with a cooperative cancel
    /// token checked at every rung boundary: before the serial-decision
    /// short-circuit, before the parallel attempt, before any retry, and
    /// before the serial rescue. A tripped token abandons the whole
    /// invocation with [`ExecError::Cancelled`] — including the serial
    /// rung, which plain `execute_admitted` treats as infallible — so a
    /// request whose waiter is gone stops consuming pool time at the
    /// next boundary. `recover` still runs before the abort, leaving the
    /// kernel instance reusable.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_admitted_cancellable<T>(
        &self,
        kernel: &str,
        decision: &Decision,
        current_versions: &[(&str, u64)],
        cancel: Option<&CancelToken>,
        mut parallel: impl FnMut() -> Result<T, ExecError>,
        mut recover: impl FnMut(),
        serial: impl FnOnce() -> T,
    ) -> Result<(T, Option<ExecError>), ExecError> {
        let _dispatch_span = telemetry::span_labeled(Phase::Dispatch, kernel);
        let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
        let abort = || {
            self.cancelled_invocations.fetch_add(1, Ordering::Relaxed);
            ExecError::Cancelled
        };
        if cancelled() {
            return Err(abort());
        }
        if decision.verdict.path == GuardPath::Serial {
            self.serial_fallbacks.fetch_add(1, Ordering::Relaxed);
            return Ok((serial(), decision.verdict.reason.clone()));
        }
        // Tamper gate: the verdicts are only as good as the versions
        // they were read at. Any drift since phase 1 means a concurrent
        // writer touched an index array — deny.
        for seen in &decision.inspected {
            let current = current_versions
                .iter()
                .find(|(n, _)| *n == seen.array)
                .map(|(_, v)| *v);
            if current != Some(seen.version) {
                self.tamper_detections.fetch_add(1, Ordering::Relaxed);
                self.serial_fallbacks.fetch_add(1, Ordering::Relaxed);
                let reason = ExecError::TamperDetected {
                    array: seen.array.clone(),
                };
                return Ok((serial(), Some(reason)));
            }
        }
        // Chaos site: an Error arm models a fault detected at the
        // dispatch boundary itself (before the kernel runs).
        let mut fault = match failpoint::hit("rtcheck.guard.dispatch") {
            Action::Error | Action::Corrupt => Some(ExecError::ParallelFault {
                detail: "injected dispatch fault".into(),
            }),
            Action::Proceed => None,
        };
        if fault.is_none() {
            if cancelled() {
                return Err(abort());
            }
            match parallel() {
                Ok(out) if !cancelled() => {
                    self.parallel_runs.fetch_add(1, Ordering::Relaxed);
                    self.breaker.record_success(kernel);
                    return Ok((out, None));
                }
                // A cancelled run that "succeeded" only stopped claiming
                // iterations early — the output is partial. Restore the
                // instance and abandon; never surface partial work.
                Ok(_) => {
                    recover();
                    return Err(abort());
                }
                Err(e) => fault = Some(e),
            }
        }
        // `fault` is always `Some` here; the loop shape keeps the
        // borrow-checker happy without unwraps.
        if let Some(first) = fault.take() {
            if matches!(first, ExecError::Cancelled) || cancelled() {
                recover();
                return Err(abort());
            }
            self.note_fault(kernel);
            if first.transient() {
                self.retries.fetch_add(1, Ordering::Relaxed);
                recover();
                match parallel() {
                    Ok(out) if !cancelled() => {
                        self.retry_successes.fetch_add(1, Ordering::Relaxed);
                        self.parallel_runs.fetch_add(1, Ordering::Relaxed);
                        self.breaker.record_success(kernel);
                        return Ok((out, None));
                    }
                    Ok(_) => {
                        recover();
                        return Err(abort());
                    }
                    Err(second) => {
                        self.note_fault(kernel);
                        fault = Some(second);
                    }
                }
            } else {
                fault = Some(first);
            }
        }
        // Final rung: restore state and finish serially. The serial
        // variant is the semantics-defining golden path, so the output
        // is bit-identical to a never-parallelized run.
        recover();
        if cancelled() {
            return Err(abort());
        }
        self.serial_fallbacks.fetch_add(1, Ordering::Relaxed);
        Ok((serial(), fault))
    }

    fn note_fault(&self, kernel: &str) {
        self.region_faults.fetch_add(1, Ordering::Relaxed);
        if self.breaker.record_fault(kernel) {
            self.breaker_trips.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Evaluates the compiled scalar check (if any); `Some(verdict)` is
    /// a denial with the classified reason, `None` admits.
    fn eval_check(&self, bindings: &Bindings) -> Option<GuardVerdict> {
        let check = self.check.as_ref()?;
        // Chaos site: Corrupt flips the evaluation toward the
        // conservative answer (deny); Error makes it unevaluable.
        // Neither can ever admit a run the real check would deny.
        let injected = match failpoint::hit("rtcheck.check.eval") {
            Action::Corrupt => Some(Err("injected corrupt evaluation (conservative deny)")),
            Action::Error => Some(Ok("injected evaluation fault")),
            Action::Proceed => None,
        };
        if let Some(inj) = injected {
            self.check_failures.fetch_add(1, Ordering::Relaxed);
            let reason = match inj {
                Err(d) => ExecError::CheckFailed { detail: d.into() },
                Ok(d) => ExecError::CheckUnevaluable { detail: d.into() },
            };
            return Some(GuardVerdict::serial(reason));
        }
        match check.eval(bindings) {
            Ok(true) => None,
            Ok(false) => {
                self.check_failures.fetch_add(1, Ordering::Relaxed);
                Some(GuardVerdict::serial(ExecError::CheckFailed {
                    detail: "parallelization precondition does not hold".into(),
                }))
            }
            Err(e) => {
                self.check_failures.fetch_add(1, Ordering::Relaxed);
                Some(GuardVerdict::serial(ExecError::CheckUnevaluable {
                    detail: e.to_string(),
                }))
            }
        }
    }

    /// Snapshot of the decision counters.
    pub fn stats(&self) -> GuardStats {
        GuardStats {
            parallel_runs: self.parallel_runs.load(Ordering::Relaxed),
            serial_fallbacks: self.serial_fallbacks.load(Ordering::Relaxed),
            check_failures: self.check_failures.load(Ordering::Relaxed),
            inspection_failures: self.inspection_failures.load(Ordering::Relaxed),
            region_faults: self.region_faults.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            retry_successes: self.retry_successes.load(Ordering::Relaxed),
            tamper_detections: self.tamper_detections.load(Ordering::Relaxed),
            validation_rejections: self.validation_rejections.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_short_circuits: self.breaker_short_circuits.load(Ordering::Relaxed),
            cancelled_invocations: self.cancelled_invocations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::parse_check;
    use crate::inspect::MonotoneReq;
    use crate::validate::Provenance;

    fn amgmk_bindings(num_rownnz: i64, irownnz_max: i64) -> Bindings {
        let mut b = Bindings::new();
        b.set_var("num_rownnz", num_rownnz)
            .set_post_max("irownnz", irownnz_max);
        b
    }

    fn ingest(data: Vec<usize>) -> ValidatedIndexArray {
        ValidatedIndexArray::ingest(
            "b",
            data,
            10,
            Provenance::Untrusted {
                source: "test".into(),
            },
        )
        .unwrap()
    }

    fn decision(e: &GuardedExecutor, b: &Bindings, arrays: &[IndexArrayView<'_>]) -> Decision {
        e.decide_recoverable("k", b, arrays, None)
    }

    fn summary_of(version: u64) -> Inspected {
        Inspected {
            array: "b".into(),
            version,
            origin: VerdictOrigin::Summary,
        }
    }

    #[test]
    fn no_check_admits_parallel() {
        let e = GuardedExecutor::new(None).unwrap();
        let d = decision(&e, &Bindings::new(), &[]);
        assert_eq!(d.verdict.path, GuardPath::Parallel);
        let (out, _) = e.execute_admitted("k", &d, &[], || Ok("par"), || {}, || "ser");
        assert_eq!(out, "par");
        assert_eq!(e.stats().parallel_runs, 1);
    }

    #[test]
    fn failing_check_falls_back() {
        let c = parse_check("num_rownnz - 1 <= irownnz_max").unwrap();
        let e = GuardedExecutor::new(Some(&c)).unwrap();
        let d = decision(&e, &amgmk_bindings(200, 100), &[]);
        assert_eq!(d.verdict.path, GuardPath::Serial);
        assert!(matches!(
            d.verdict.reason,
            Some(ExecError::CheckFailed { .. })
        ));
        let (out, _) = e.execute_admitted("k", &d, &[], || Ok("par"), || {}, || "ser");
        assert_eq!(out, "ser");
        let s = e.stats();
        assert_eq!((s.serial_fallbacks, s.check_failures), (1, 1));
    }

    #[test]
    fn unbound_symbol_falls_back_instead_of_panicking() {
        let c = parse_check("num_rownnz - 1 <= irownnz_max").unwrap();
        let e = GuardedExecutor::new(Some(&c)).unwrap();
        let v = decision(&e, &Bindings::new(), &[]).verdict;
        assert_eq!(v.path, GuardPath::Serial);
        assert!(matches!(v.reason, Some(ExecError::CheckUnevaluable { .. })));
        assert!(v.reason.unwrap().to_string().contains("not evaluable"));
    }

    #[test]
    fn overflowing_check_denies_at_guard_level() {
        // a*b wraps past i64::MAX: the hardened evaluator reports
        // Overflow, which the guard classifies as CheckUnevaluable —
        // conservative serial fallback, never a wrongly-admitted
        // parallel run.
        let c = parse_check("a*b <= c").unwrap();
        let e = GuardedExecutor::new(Some(&c)).unwrap();
        let mut b = Bindings::new();
        b.set_var("a", 3_037_000_500)
            .set_var("b", 3_037_000_500)
            .set_var("c", 0);
        let v = decision(&e, &b, &[]).verdict;
        assert_eq!(v.path, GuardPath::Serial);
        match v.reason {
            Some(ExecError::CheckUnevaluable { detail }) => {
                assert!(detail.contains("overflow"), "{detail}");
            }
            other => panic!("wrong reason: {other:?}"),
        }
        assert_eq!(e.stats().check_failures, 1);
    }

    #[test]
    fn ingested_arrays_admit_through_the_boundary() {
        let e = GuardedExecutor::new(None).unwrap();
        let a = ingest(vec![0, 1, 2, 3]);
        let d = decision(&e, &Bindings::new(), &[a.view(MonotoneReq::Strict)]);
        assert_eq!(d.verdict.path, GuardPath::Parallel);
        assert_eq!(d.inspected, vec![summary_of(0)]);
        assert_eq!(e.stats().validation_rejections, 0);
    }

    #[test]
    fn bypassing_writer_denies_before_inspection() {
        let e = GuardedExecutor::new(None).unwrap();
        let mut a = ingest(vec![0, 1, 2, 3]);
        // A hostile writer mutates the data without announcing it: the
        // contents are still in domain (and still monotone), but the
        // checksum no longer matches the validated state.
        a.bypass_validation_mut()[1] = 2;
        let d = decision(&e, &Bindings::new(), &[a.view(MonotoneReq::NonStrict)]);
        assert_eq!(d.verdict.path, GuardPath::Serial);
        match d.verdict.reason {
            Some(ExecError::InvalidIndexArray { array, detail }) => {
                assert_eq!(array, "b");
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("wrong reason: {other:?}"),
        }
        assert!(d.inspected.is_empty(), "rejected before inspection");
        assert_eq!(e.stats().validation_rejections, 1);
    }

    #[test]
    fn failing_inspection_falls_back_with_location() {
        let e = GuardedExecutor::new(None).unwrap();
        let a = ingest(vec![0, 5, 3]);
        let d = decision(&e, &Bindings::new(), &[a.view(MonotoneReq::NonStrict)]);
        assert_eq!(d.verdict.path, GuardPath::Serial);
        match d.verdict.reason {
            Some(ExecError::NotMonotone {
                first_violation, ..
            }) => assert_eq!(first_violation, Some(2)),
            other => panic!("wrong reason: {other:?}"),
        }
        assert_eq!(e.stats().inspection_failures, 1);
    }

    #[test]
    fn repeated_decisions_admit_from_the_summaries() {
        let c = parse_check("num_rownnz - 1 <= irownnz_max").unwrap();
        let e = GuardedExecutor::new(Some(&c)).unwrap();
        let a = ingest(vec![0, 1, 2, 3]);
        let b = amgmk_bindings(4, 4);
        for _ in 0..2 {
            let d = decision(&e, &b, &[a.view(MonotoneReq::Strict)]);
            assert_eq!(d.inspected, vec![summary_of(0)]);
            let (out, _) = e.execute_admitted("k", &d, &[("b", 0)], || Ok("par"), || {}, || "ser");
            assert_eq!(out, "par");
        }
        assert_eq!(e.stats().parallel_runs, 2);
    }

    #[test]
    fn strict_requirement_rejects_plateau() {
        let e = GuardedExecutor::new(None).unwrap();
        let a = ingest(vec![0, 1, 1, 2]);
        let strict = decision(&e, &Bindings::new(), &[a.view(MonotoneReq::Strict)]);
        assert_eq!(strict.verdict.path, GuardPath::Serial);
        let nonstrict = decision(&e, &Bindings::new(), &[a.view(MonotoneReq::NonStrict)]);
        assert_eq!(nonstrict.verdict.path, GuardPath::Parallel);
    }

    #[test]
    fn sanctioned_write_that_breaks_monotonicity_denies() {
        let e = GuardedExecutor::new(None).unwrap();
        let mut a = ingest(vec![0, 1, 2, 3]);
        a.mutate_range(2..3, |w| w[0] = 0).unwrap();
        let d = decision(&e, &Bindings::new(), &[a.view(MonotoneReq::NonStrict)]);
        assert!(matches!(
            d.verdict.reason,
            Some(ExecError::NotMonotone {
                first_violation: Some(2),
                ..
            })
        ));
        assert_eq!(d.inspected, vec![summary_of(1)]);
    }

    #[test]
    fn two_phase_happy_path_runs_parallel_once() {
        let e = GuardedExecutor::new(None).unwrap();
        let a = ingest(vec![0, 1, 2, 3]);
        let d = decision(&e, &Bindings::new(), &[a.view(MonotoneReq::Strict)]);
        assert_eq!(d.verdict.path, GuardPath::Parallel);
        assert_eq!(d.inspected, vec![summary_of(0)]);
        let (out, reason) = e.execute_admitted("k", &d, &[("b", 0)], || Ok("par"), || {}, || "ser");
        assert_eq!((out, reason), ("par", None));
        let s = e.stats();
        assert_eq!((s.parallel_runs, s.serial_fallbacks), (1, 0));
    }

    #[test]
    fn version_drift_at_dispatch_is_tamper() {
        let e = GuardedExecutor::new(None).unwrap();
        let mut a = ingest(vec![0, 1, 2, 3]);
        let d = decision(&e, &Bindings::new(), &[a.view(MonotoneReq::Strict)]);
        assert_eq!(d.verdict.path, GuardPath::Parallel);
        // A sanctioned writer bumps the version between phases.
        a.mutate_range(3..4, |w| w[0] = 4).unwrap();
        let current = [("b", a.version())];
        let (out, reason) = e.execute_admitted("k", &d, &current, || Ok("par"), || {}, || "ser");
        assert_eq!(out, "ser");
        assert_eq!(
            reason,
            Some(ExecError::TamperDetected { array: "b".into() })
        );
        let s = e.stats();
        assert_eq!((s.tamper_detections, s.serial_fallbacks), (1, 1));
        assert_eq!(s.parallel_runs, 0, "parallel must not have run");
    }

    #[test]
    fn transient_fault_retries_once_then_falls_back() {
        let e = GuardedExecutor::new(None).unwrap();
        let d = e.decide_recoverable("k", &Bindings::new(), &[], None);
        let recovered = AtomicU64::new(0);
        let (out, reason) = e.execute_admitted(
            "k",
            &d,
            &[],
            || {
                Err::<&str, _>(ExecError::ParallelFault {
                    detail: "worker died".into(),
                })
            },
            || {
                recovered.fetch_add(1, Ordering::Relaxed);
            },
            || "ser",
        );
        assert_eq!(out, "ser");
        assert!(matches!(reason, Some(ExecError::ParallelFault { .. })));
        assert_eq!(
            recovered.load(Ordering::Relaxed),
            2,
            "recover before the retry and before the serial rescue"
        );
        let s = e.stats();
        assert_eq!(s.retries, 1);
        assert_eq!(s.retry_successes, 0);
        assert_eq!(s.region_faults, 2);
        assert_eq!(s.serial_fallbacks, 1);
    }

    #[test]
    fn retry_can_rescue_the_parallel_path() {
        let e = GuardedExecutor::new(None).unwrap();
        let d = e.decide_recoverable("k", &Bindings::new(), &[], None);
        let attempts = AtomicU64::new(0);
        let (out, reason) = e.execute_admitted(
            "k",
            &d,
            &[],
            || {
                if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                    Err(ExecError::ParallelFault {
                        detail: "transient".into(),
                    })
                } else {
                    Ok("par")
                }
            },
            || {},
            || "ser",
        );
        assert_eq!((out, reason), ("par", None));
        let s = e.stats();
        assert_eq!((s.retries, s.retry_successes, s.parallel_runs), (1, 1, 1));
    }

    #[test]
    fn breaker_pins_to_serial_and_readmits_after_cooldown() {
        let e = GuardedExecutor::new(None)
            .unwrap()
            .with_breaker(CircuitBreaker::new(2, 3));
        let faulty = || {
            Err::<&str, _>(ExecError::ParallelFault {
                detail: "boom".into(),
            })
        };
        // One faulting invocation = first attempt + failed retry = 2
        // consecutive faults = the threshold: the breaker opens.
        let d = e.decide_recoverable("k", &Bindings::new(), &[], None);
        let _ = e.execute_admitted("k", &d, &[], faulty, || {}, || "ser");
        assert_eq!(e.breaker_state("k"), BreakerState::Open { remaining: 3 });
        assert_eq!(e.stats().breaker_trips, 1);
        // Cooldown: three denied admissions, classified as BreakerOpen.
        for _ in 0..3 {
            let d = e.decide_recoverable("k", &Bindings::new(), &[], None);
            assert!(matches!(
                d.verdict.reason,
                Some(ExecError::BreakerOpen { .. })
            ));
            let (out, _) = e.execute_admitted("k", &d, &[], || Ok("par"), || {}, || "ser");
            assert_eq!(out, "ser", "pinned to serial while open");
        }
        assert_eq!(e.stats().breaker_short_circuits, 3);
        // Cooldown spent: the half-open trial is admitted, succeeds, and
        // the breaker closes again.
        let d = e.decide_recoverable("k", &Bindings::new(), &[], None);
        assert_eq!(d.verdict.path, GuardPath::Parallel);
        let (out, reason) = e.execute_admitted("k", &d, &[], || Ok("par"), || {}, || "ser");
        assert_eq!((out, reason), ("par", None));
        assert_eq!(e.breaker_state("k"), BreakerState::Closed { faults: 0 });
    }
}
