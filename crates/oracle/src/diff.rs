//! The differential checks: each cross-examines one leg of the trust
//! boundary against an independent ground truth.
//!
//! * [`check_index_array`] — inspector verdicts (the serial reference
//!   scan and the block-summary verdict production uses) against the
//!   definitional brute-force scan, plus the ingestion accept/reject
//!   expectation.
//! * [`check_predicate`] — the compiled `i64` predicate against the
//!   checked-`i128` reference evaluator, under the conservative-deny
//!   trust rule ([`crate::refeval::compare`]).
//! * [`check_kernel`] — a guarded parallel kernel execution against the
//!   serial golden output, and (when the kernel can be tampered) that a
//!   monotonicity-breaking mutation is *denied*, not admitted.
//! * [`check_reinspect`] — the O(Δ) incremental re-inspection state
//!   (block summaries refreshed by `mutate_range`) against a full-scan
//!   reference after every step of a seeded mutation plan, plus the
//!   tampered-instance leg: a write that bypasses the boundary must be
//!   flagged by `verify()`.
//!
//! Every violation is a structured [`Divergence`]; an empty result is
//! the oracle's "no divergence" verdict.

use crate::gen::{brute_force_block_monotone, brute_force_monotone, GeneratedArray, MutationStep};
use crate::refeval::{compare, ref_eval, PredicateAgreement, RefEvalError};
use std::fmt;
use subsub_kernels::common::close;
use subsub_kernels::Kernel;
use subsub_omprt::{Schedule, ThreadPool};
use subsub_rtcheck::{
    composed_verdict, inspect_block_monotone, inspect_serial, Bindings, BlockSummaries, CheckExpr,
    CompiledCheck, EvalError, GuardPath, GuardedExecutor, MonotoneVerdict, Provenance,
    ValidatedIndexArray, BLOCK_LEN,
};
use subsub_sparse::Rng64;

/// One verdict/output divergence found by the oracle. Each variant
/// carries enough to reproduce the failure without the campaign state.
#[derive(Debug, Clone)]
pub enum Divergence {
    /// The serial scan or the block-summary verdict disagrees with the
    /// brute-force definition of monotonicity (or with each other).
    InspectorMismatch {
        /// Shape label (or corpus id) of the offending array.
        label: String,
        /// The array, possibly shrunk to a minimal reproducer.
        data: Vec<usize>,
        /// Brute-force ground truth `(nonstrict, strict)`.
        expected: (bool, bool),
        /// The serial inspector's verdict.
        serial: MonotoneVerdict,
        /// The block-summary verdict.
        summary: MonotoneVerdict,
    },
    /// Ingestion accepted an array it must reject, or vice versa.
    IngestionMismatch {
        /// Shape label of the offending array.
        label: String,
        /// The array.
        data: Vec<usize>,
        /// The domain it was validated against.
        domain: usize,
        /// Whether rejection was expected.
        expect_reject: bool,
        /// What ingestion actually said.
        got: String,
    },
    /// Compiled predicate and reference evaluator disagree in a
    /// direction the trust model forbids.
    PredicateMismatch {
        /// Pretty-printed check.
        check: String,
        /// Pretty-printed bindings (sym=value pairs).
        bindings: String,
        /// The compiled evaluator's result.
        compiled: String,
        /// The reference evaluator's result.
        reference: String,
    },
    /// An admitted parallel kernel run produced output diverging from
    /// the serial golden run.
    KernelChecksumMismatch {
        /// Kernel name.
        kernel: String,
        /// Campaign seed that selected pool size and schedule.
        seed: u64,
        /// Parallel checksum.
        parallel: f64,
        /// Serial golden checksum.
        serial: f64,
    },
    /// The guard admitted the parallel path on a tampered index array
    /// whose required monotonicity is broken.
    KernelWronglyAdmitted {
        /// Kernel name.
        kernel: String,
        /// Campaign seed.
        seed: u64,
    },
    /// A panic escaped the C frontend (lex, parse, diagnostic render or
    /// canonical print) on some input — the one failure hardening must
    /// categorically prevent.
    FrontendPanic {
        /// Mutation label (or corpus id) of the offending source.
        label: String,
    },
    /// The frontend broke one of its differential invariants: replay
    /// determinism, span-correct rejection, or round-trip identity on
    /// an accepted source.
    FrontendMismatch {
        /// Mutation label (or corpus id) of the offending source.
        label: String,
        /// Which invariant broke, and how.
        detail: String,
    },
    /// The block-monotone inspector (ground-truth scan or O(blocks)
    /// summary recombination) disagrees with the definitional per-block
    /// scan for some block size.
    BlockVerdictMismatch {
        /// Shape label (or corpus id) of the offending array.
        label: String,
        /// The block size diffed.
        block: usize,
        /// What diverged.
        detail: String,
    },
    /// The composed (two-level) verdict claimed a monotonicity flavour
    /// the materialized composition `outer[inner[j]]` does not have —
    /// the unsound direction the trust model forbids (conservative
    /// refusals are permitted).
    ComposedMismatch {
        /// Case label (or corpus id).
        label: String,
        /// What diverged.
        detail: String,
    },
    /// The incremental (block-summary) re-inspection state diverged
    /// from the full-scan reference after a `mutate_range` plan, or the
    /// tamper gate failed to flag a write that bypassed the boundary.
    ReinspectMismatch {
        /// Shape label (or corpus id) of the offending array.
        label: String,
        /// Which step of the plan diverged (array length for the
        /// post-plan tamper leg).
        step: usize,
        /// What diverged.
        detail: String,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::InspectorMismatch {
                label,
                data,
                expected,
                serial,
                summary,
            } => write!(
                f,
                "inspector mismatch [{label}] on {data:?}: brute force (nonstrict, strict) = \
                 {expected:?}, serial = ({}, {}), summary = ({}, {})",
                serial.nonstrict, serial.strict, summary.nonstrict, summary.strict
            ),
            Divergence::IngestionMismatch {
                label,
                data,
                domain,
                expect_reject,
                got,
            } => write!(
                f,
                "ingestion mismatch [{label}] domain {domain}, expect_reject = {expect_reject}, \
                 got {got}; data = {data:?}"
            ),
            Divergence::PredicateMismatch {
                check,
                bindings,
                compiled,
                reference,
            } => write!(
                f,
                "predicate mismatch: `{check}` with [{bindings}]: compiled = {compiled}, \
                 reference = {reference}"
            ),
            Divergence::KernelChecksumMismatch {
                kernel,
                seed,
                parallel,
                serial,
            } => write!(
                f,
                "kernel {kernel} (seed {seed}): parallel checksum {parallel} diverges from \
                 serial golden {serial}"
            ),
            Divergence::KernelWronglyAdmitted { kernel, seed } => write!(
                f,
                "kernel {kernel} (seed {seed}): tampered index array was ADMITTED to the \
                 parallel path"
            ),
            Divergence::FrontendPanic { label } => {
                write!(f, "frontend PANICKED on [{label}]")
            }
            Divergence::FrontendMismatch { label, detail } => {
                write!(f, "frontend mismatch [{label}]: {detail}")
            }
            Divergence::BlockVerdictMismatch {
                label,
                block,
                detail,
            } => write!(f, "block verdict mismatch [{label}] b={block}: {detail}"),
            Divergence::ComposedMismatch { label, detail } => {
                write!(f, "composed verdict mismatch [{label}]: {detail}")
            }
            Divergence::ReinspectMismatch {
                label,
                step,
                detail,
            } => write!(f, "reinspect mismatch [{label}] at step {step}: {detail}"),
        }
    }
}

/// Cross-checks the inspectors against brute force on one array, and
/// ingestion against the array's accept/reject expectation.
pub fn check_index_array(g: &GeneratedArray) -> Vec<Divergence> {
    let mut out = Vec::new();
    let expected = brute_force_monotone(&g.data);
    let serial = inspect_serial(&g.data);
    let summary = BlockSummaries::build_unchecked(&g.data).verdict();
    let serial_pair = (serial.nonstrict, serial.strict);
    let summary_pair = (summary.nonstrict, summary.strict);
    if serial_pair != expected || summary_pair != expected {
        out.push(Divergence::InspectorMismatch {
            label: g.shape.to_string(),
            data: g.data.clone(),
            expected,
            serial,
            summary,
        });
    }
    // A reported violation index must point at a real violating pair.
    for (v, which) in [(&serial, "serial"), (&summary, "summary")] {
        if let Some(i) = v.first_violation {
            let real = i > 0 && i < g.data.len() && g.data[i - 1] > g.data[i];
            if !real {
                out.push(Divergence::InspectorMismatch {
                    label: format!("{} ({which} violation index {i} not real)", g.shape),
                    data: g.data.clone(),
                    expected,
                    serial,
                    summary,
                });
            }
        }
    }
    // Block-monotone inspector against the definitional per-block scan,
    // for a spread of block sizes including the degenerate b = 0 (whole
    // array) and the summary block length.
    for b in [0usize, 1, 3, 8, BLOCK_LEN] {
        let v = inspect_block_monotone(&g.data, b);
        let want = brute_force_block_monotone(&g.data, b);
        if (v.nonstrict, v.strict) != want {
            out.push(Divergence::BlockVerdictMismatch {
                label: g.shape.to_string(),
                block: b,
                detail: format!(
                    "inspect_block_monotone = ({}, {}), brute force = {want:?}",
                    v.nonstrict, v.strict
                ),
            });
        }
    }
    let ingested = ValidatedIndexArray::ingest(
        "fuzz",
        g.data.clone(),
        g.domain,
        Provenance::Generated { seed: 0 },
    );
    let rejected = ingested.is_err();
    if rejected != g.expect_reject {
        out.push(Divergence::IngestionMismatch {
            label: g.shape.to_string(),
            data: g.data.clone(),
            domain: g.domain,
            expect_reject: g.expect_reject,
            got: match &ingested {
                Ok(_) => "accepted".to_string(),
                Err(e) => format!("rejected ({e})"),
            },
        });
    }
    // For accepted arrays the O(blocks) summary recombination must agree
    // with the O(n) ground-truth scan at the aligned block size.
    if let Ok(a) = &ingested {
        if let Some(v) = a.summaries().block_verdict(BLOCK_LEN) {
            let truth = inspect_block_monotone(&g.data, BLOCK_LEN);
            if (v.nonstrict, v.strict) != (truth.nonstrict, truth.strict) {
                out.push(Divergence::BlockVerdictMismatch {
                    label: g.shape.to_string(),
                    block: BLOCK_LEN,
                    detail: format!(
                        "summary recombination = ({}, {}), ground truth = ({}, {})",
                        v.nonstrict, v.strict, truth.nonstrict, truth.strict
                    ),
                });
            }
        }
    }
    out
}

/// Cross-checks the composed (two-level) verdict against the
/// materialized composition `outer[inner[j]]`.
///
/// Ingests both levels (inner validated against the *outer's length*, so
/// the chain is in-domain by construction), computes
/// [`composed_verdict`], and requires the soundness direction: any
/// monotonicity flavour the composed verdict *claims* must hold on the
/// brute-force scan of the materialized array. Conservative refusals
/// (chain provable by materialization but not claimed) are permitted —
/// the composition rule only multiplies per-level verdicts.
pub fn check_composed(
    label: &str,
    outer: &[usize],
    outer_domain: usize,
    inner: &[usize],
) -> Vec<Divergence> {
    let mismatch = |detail: String| Divergence::ComposedMismatch {
        label: label.to_string(),
        detail,
    };
    let outer_arr = match ValidatedIndexArray::ingest(
        "composed-outer",
        outer.to_vec(),
        outer_domain,
        Provenance::Generated { seed: 0 },
    ) {
        Ok(a) => a,
        Err(e) => return vec![mismatch(format!("outer rejected at ingestion: {e}"))],
    };
    let inner_arr = match ValidatedIndexArray::ingest(
        "composed-inner",
        inner.to_vec(),
        outer.len(),
        Provenance::Generated { seed: 0 },
    ) {
        Ok(a) => a,
        Err(e) => return vec![mismatch(format!("inner rejected at ingestion: {e}"))],
    };
    let v = composed_verdict(&outer_arr, &inner_arr);
    let mut out = Vec::new();
    if !v.domain_chained {
        out.push(mismatch(
            "domain_chained false for an inner validated against outer.len()".to_string(),
        ));
    }
    let materialized: Vec<usize> = inner.iter().map(|&j| outer[j]).collect();
    let (nonstrict, strict) = brute_force_monotone(&materialized);
    if v.nonstrict && !nonstrict {
        out.push(mismatch(format!(
            "claimed nonstrict, materialized composition is not: {materialized:?}"
        )));
    }
    if v.strict && !strict {
        out.push(mismatch(format!(
            "claimed strict, materialized composition is not: {materialized:?}"
        )));
    }
    out
}

/// Cross-checks the incremental re-inspection path against a full-scan
/// reference.
///
/// Applies `plan` step by step through `mutate_range` while maintaining
/// an independent mirror `Vec` of what the contents must be (writes the
/// boundary rejects leave the mirror untouched). After every step the
/// incremental state — contents, `summary_verdict()`, `checksum()` —
/// must match the mirror as seen by `inspect_serial` and a from-scratch
/// `BlockSummaries` build, and `verify()` must pass. Finally a write is
/// smuggled past the boundary with `bypass_validation_mut`; `verify()`
/// flagging it is the tamper gate the summaries must never weaken.
pub fn check_reinspect(
    label: &str,
    data: &[usize],
    domain: usize,
    plan: &[MutationStep],
) -> Vec<Divergence> {
    let mismatch = |step: usize, detail: String| Divergence::ReinspectMismatch {
        label: label.to_string(),
        step,
        detail,
    };
    let mut array = match ValidatedIndexArray::ingest(
        "reinspect-fuzz",
        data.to_vec(),
        domain,
        Provenance::Generated { seed: 0 },
    ) {
        Ok(a) => a,
        // Only accepted arrays have a boundary to mutate through; a
        // rejected seed array means the case itself is malformed.
        Err(e) => {
            return vec![mismatch(
                0,
                format!("seed array rejected at ingestion: {e}"),
            )]
        }
    };
    let mut mirror = data.to_vec();

    let mut out = Vec::new();
    for (step, m) in plan.iter().enumerate() {
        if m.at >= mirror.len() {
            out.push(mismatch(
                step,
                format!("mutation index {} out of bounds", m.at),
            ));
            return out;
        }
        let want_ok = m.value < domain;
        match array.mutate_range(m.at..m.at + 1, |w| w[0] = m.value) {
            Ok(()) => {
                if !want_ok {
                    out.push(mismatch(
                        step,
                        format!("out-of-domain write {} accepted at {}", m.value, m.at),
                    ));
                }
                mirror[m.at] = m.value;
            }
            Err(e) => {
                if want_ok {
                    out.push(mismatch(
                        step,
                        format!("in-domain write {} at {} rejected: {e}", m.value, m.at),
                    ));
                }
            }
        }
        // Diff the incremental state against the full-scan reference.
        if array.data() != &mirror[..] {
            out.push(mismatch(step, "contents diverged from mirror".to_string()));
            return out; // everything downstream would re-report this
        }
        let incremental = array.summary_verdict();
        let full = inspect_serial(&mirror);
        if incremental != full {
            out.push(mismatch(
                step,
                format!("summary verdict {incremental:?} != full scan {full:?}"),
            ));
        }
        let fresh = BlockSummaries::build_unchecked(&mirror).checksum();
        if array.checksum() != fresh {
            out.push(mismatch(
                step,
                format!(
                    "incremental checksum {:016x} != full rebuild {fresh:016x}",
                    array.checksum()
                ),
            ));
        }
        if let Err(e) = array.verify() {
            out.push(mismatch(
                step,
                format!("verify() failed on untampered state: {e}"),
            ));
        }
    }

    // Tamper leg: a write that bypasses the boundary leaves the
    // summaries stale; verify() must catch it from the raw bytes.
    if !mirror.is_empty() {
        let at = mirror.len() / 2;
        // Accepted arrays have every value < domain <= usize::MAX, so
        // +1 cannot wrap and is guaranteed to change the contents.
        array.bypass_validation_mut()[at] += 1;
        if array.verify().is_ok() {
            out.push(mismatch(
                plan.len(),
                format!("bypassing write at {at} escaped verify()"),
            ));
        }
    }
    out
}

fn show_compiled(r: &Result<bool, EvalError>) -> String {
    match r {
        Ok(v) => format!("Ok({v})"),
        Err(e) => format!("Err({e})"),
    }
}

fn show_reference(r: &Result<bool, RefEvalError>) -> String {
    match r {
        Ok(v) => format!("Ok({v})"),
        Err(e) => format!("Err({e})"),
    }
}

fn show_bindings(check: &CheckExpr, b: &Bindings) -> String {
    check
        .free_syms()
        .iter()
        .map(|s| match b.get(s) {
            Some(v) => format!("{s}={v}"),
            None => format!("{s}=<unbound>"),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Cross-checks the compiled predicate against the reference evaluator
/// on one (check, bindings) pair.
pub fn check_predicate(check: &CheckExpr, b: &Bindings) -> Vec<Divergence> {
    let compiled = match CompiledCheck::compile(check) {
        Ok(c) => c,
        // Scalar-only restriction: nothing to cross-check.
        Err(_) => return Vec::new(),
    };
    let got = compiled.eval(b);
    let want = ref_eval(check, b);
    if compare(&got, &want) == PredicateAgreement::Diverged {
        vec![Divergence::PredicateMismatch {
            check: check.to_string(),
            bindings: show_bindings(check, b),
            compiled: show_compiled(&got),
            reference: show_reference(&want),
        }]
    } else {
        Vec::new()
    }
}

/// Derives the pool size and schedule a campaign seed exercises for a
/// kernel, so repeated seeds replay identically.
fn execution_params(kernel: &str, seed: u64) -> (usize, Schedule) {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in kernel.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut rng = Rng64::seed_from_u64(h);
    let threads = rng.gen_usize(2, 4);
    let sched = match rng.gen_usize(0, 2) {
        0 => Schedule::static_default(),
        1 => Schedule::dynamic_default(),
        _ => Schedule::Guided { min_chunk: 2 },
    };
    (threads, sched)
}

/// Runs one kernel differentially under a campaign seed:
///
/// 1. serial golden run;
/// 2. guarded execution (inspection-admitted) of the outer-parallel
///    variant on a seed-derived pool/schedule — its checksum must match
///    the golden within [`close`];
/// 3. if the kernel supports tampering, the tampered instance must be
///    *denied* the parallel path and still complete (serially) with
///    output matching its own serial golden.
pub fn check_kernel(kernel: &dyn Kernel, seed: u64) -> Vec<Divergence> {
    let mut out = Vec::new();
    let name = kernel.name();
    let (threads, sched) = execution_params(name, seed);
    let pool = ThreadPool::new(threads);

    // Leg 1 + 2: admitted parallel output vs serial golden.
    let mut inst = kernel.prepare("test");
    inst.run_serial();
    let golden = inst.checksum();
    inst.reset();
    let executor = GuardedExecutor::new(None).expect("no check always compiles");
    let bindings = inst.runtime_bindings();
    let decision = {
        let arrays = inst.index_arrays();
        executor.decide_recoverable(name, &bindings, &arrays, Some(&pool))
    };
    let versions: Vec<(String, u64)> = inst
        .index_arrays()
        .iter()
        .map(|v| (v.name.to_string(), v.version()))
        .collect();
    let versions_ref: Vec<(&str, u64)> = versions.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let cell = std::cell::RefCell::new(inst.as_mut());
    let (checksum, _reason) = executor.execute_admitted(
        name,
        &decision,
        &versions_ref,
        || {
            let mut i = cell.borrow_mut();
            i.run_outer(&pool, sched);
            Ok(i.checksum())
        },
        || cell.borrow_mut().reset(),
        || {
            let mut i = cell.borrow_mut();
            i.run_serial();
            i.checksum()
        },
    );
    if !close(checksum, golden) {
        out.push(Divergence::KernelChecksumMismatch {
            kernel: name.to_string(),
            seed,
            parallel: checksum,
            serial: golden,
        });
    }

    // Leg 3: a tampered index array must be denied, and the degraded
    // run must still match the tampered instance's own serial output.
    let mut tampered = kernel.prepare("test");
    if tampered.tamper_index_arrays() {
        tampered.run_serial();
        let tampered_golden = tampered.checksum();
        tampered.reset();
        let executor = GuardedExecutor::new(None).expect("no check always compiles");
        let decision = {
            let arrays = tampered.index_arrays();
            executor.decide_recoverable(name, &bindings, &arrays, Some(&pool))
        };
        if decision.verdict.path == GuardPath::Parallel {
            if tampered.index_arrays().is_empty() {
                // Self-guarded kernel (e.g. the block-monotone
                // histogram): the guard has nothing to inspect, so the
                // kernel's own dispatch must detect the broken license
                // and produce the serial result.
                tampered.run_outer(&pool, sched);
                if !close(tampered.checksum(), tampered_golden) {
                    out.push(Divergence::KernelChecksumMismatch {
                        kernel: format!("{name} (self-guarded demotion)"),
                        seed,
                        parallel: tampered.checksum(),
                        serial: tampered_golden,
                    });
                }
            } else {
                out.push(Divergence::KernelWronglyAdmitted {
                    kernel: name.to_string(),
                    seed,
                });
            }
        } else {
            tampered.run_serial();
            if !close(tampered.checksum(), tampered_golden) {
                out.push(Divergence::KernelChecksumMismatch {
                    kernel: format!("{name} (tampered serial)"),
                    seed,
                    parallel: tampered.checksum(),
                    serial: tampered_golden,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::ArrayShape;
    use subsub_kernels::kernel_by_name;

    #[test]
    fn clean_arrays_have_no_divergence() {
        let g = GeneratedArray {
            shape: ArrayShape::StrictRamp,
            data: (0..100).collect(),
            domain: 100,
            expect_reject: false,
        };
        assert!(check_index_array(&g).is_empty());
    }

    #[test]
    fn oob_array_must_reject() {
        // expect_reject = false on data that IS out of domain: ingestion
        // rejects it, which the oracle reports as an expectation miss.
        let g = GeneratedArray {
            shape: ArrayShape::OutOfDomain,
            data: vec![0, 1, 99],
            domain: 10,
            expect_reject: false,
        };
        let d = check_index_array(&g);
        assert!(matches!(d[0], Divergence::IngestionMismatch { .. }));
    }

    #[test]
    fn predicate_overflow_is_not_a_divergence() {
        let c = subsub_rtcheck::parse_check("a*b <= c").unwrap();
        let mut b = Bindings::new();
        b.set_var("a", 3_037_000_500)
            .set_var("b", 3_037_000_500)
            .set_var("c", 0);
        assert!(
            check_predicate(&c, &b).is_empty(),
            "conservative deny is permitted"
        );
    }

    #[test]
    fn amgmk_runs_clean_under_a_seed() {
        let k = kernel_by_name("AMGmk").unwrap();
        let d = check_kernel(k.as_ref(), 7);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn reinspect_plan_with_rollback_is_clean() {
        let data: Vec<usize> = (0..5000).collect();
        let plan = [
            MutationStep { at: 0, value: 4999 }, // break monotonicity
            MutationStep {
                at: 4096,
                value: 9999,
            }, // out of domain: rolls back
            MutationStep { at: 0, value: 0 },    // heal
            MutationStep {
                at: 4999,
                value: 4999,
            }, // rewrite last in place
        ];
        let d = check_reinspect("test-ramp", &data, 5000, &plan);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn reinspect_rejects_malformed_cases_with_context() {
        // Seed array out of domain: no boundary to mutate through.
        let d = check_reinspect("oob-seed", &[0, 99], 10, &[]);
        assert!(
            matches!(&d[0], Divergence::ReinspectMismatch { .. }),
            "{d:?}"
        );
        // Mutation index past the end.
        let d = check_reinspect(
            "oob-index",
            &[0, 1],
            10,
            &[MutationStep { at: 7, value: 1 }],
        );
        assert!(d[0].to_string().contains("out of bounds"), "{d:?}");
    }

    #[test]
    fn reinspect_empty_array_has_no_tamper_leg() {
        assert!(check_reinspect("empty", &[], 10, &[]).is_empty());
    }
}
