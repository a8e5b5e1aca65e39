//! The extended data-dependence test: consumes subscript-array properties
//! to disprove cross-iteration dependences that classical analysis cannot,
//! inserting runtime checks where the analysis bound is a post-loop value
//! (paper Sections 3.1–3.2; the "forthcoming contribution" dependence test
//! whose effect the evaluation measures).
//!
//! Two access patterns are resolved:
//!
//! * **Gather/scatter** (`y[ind[i]]`, AMGmk / UA): every conflicting access
//!   goes through the same subscript-array read whose monotone dimension is
//!   indexed by the parallel loop variable. *Strict* monotonicity
//!   (injectivity) makes the touched elements pairwise distinct. A runtime
//!   check `-1 + N <= counter_max` guards symbolic analysis bounds.
//! * **Segments** (`p[col_ptr[r] + ind]`, SDDMM / CHOLMOD): the inner loop
//!   runs exactly from `B[r]` to `B[r+1]`; *non-strict* monotonicity of `B`
//!   makes per-iteration segments disjoint.

use crate::classic::{classic_analyze_loop, Access, ArrayDep, ClassicAnalysis};
use crate::properties::{AlgorithmLevel, ArrayProperty, PropertyDb, PropertyKind};
use std::fmt;
use subsub_ir::{CondTable, IrStmt, LoopIr, TypeEnv};
use subsub_rtcheck::CheckExpr;
use subsub_symbolic::{Atom, Expr, RangeEnv, Symbol, SymbolKind};

/// The plan for a parallelizable loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelPlan {
    /// The full OpenMP-style pragma, e.g.
    /// `omp parallel for if(-1+num_rownnz <= irownnz_max) private(…)`.
    pub pragma: String,
    /// Privatized scalars.
    pub private: Vec<String>,
    /// Reduction clauses (`+:tempx`).
    pub reductions: Vec<String>,
    /// Runtime check guarding the parallel execution, if any — a
    /// structured expression (see [`subsub_rtcheck::CheckExpr`]) that both
    /// pretty-prints into the pragma and compiles to an executable
    /// predicate.
    pub runtime_check: Option<CheckExpr>,
    /// Array properties the decision relied on (display form).
    pub properties_used: Vec<String>,
}

/// Outcome of the (extended) dependence test for one loop.
#[derive(Debug, Clone, PartialEq)]
pub enum LoopDecision {
    /// The loop can be executed as an OpenMP-style parallel for.
    Parallel(ParallelPlan),
    /// The loop must stay serial.
    Serial {
        /// Why parallelization failed.
        reason: String,
    },
}

impl LoopDecision {
    /// True for parallel decisions.
    pub fn is_parallel(&self) -> bool {
        matches!(self, LoopDecision::Parallel(_))
    }

    /// The plan, if parallel.
    pub fn plan(&self) -> Option<&ParallelPlan> {
        match self {
            LoopDecision::Parallel(p) => Some(p),
            LoopDecision::Serial { .. } => None,
        }
    }
}

impl fmt::Display for LoopDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoopDecision::Parallel(p) => write!(f, "#pragma {}", p.pragma),
            LoopDecision::Serial { reason } => write!(f, "serial ({reason})"),
        }
    }
}

/// Decides parallelizability of one loop at the given algorithm level.
pub fn decide_loop(
    l: &LoopIr,
    types: &TypeEnv,
    conds: &CondTable,
    props: &PropertyDb,
    level: AlgorithmLevel,
    env: &RangeEnv,
) -> LoopDecision {
    let classic: ClassicAnalysis = classic_analyze_loop(l, types, conds, env);
    if !classic.scalar_ok {
        return LoopDecision::Serial {
            reason: format!(
                "loop-carried scalar dependence on {}",
                classic.scalar_blockers.join(", ")
            ),
        };
    }
    let mut checks: Vec<CheckExpr> = Vec::new();
    let mut used: Vec<String> = Vec::new();
    for dep in &classic.array_blockers {
        if !level.analyzes_arrays() {
            return LoopDecision::Serial {
                reason: format!("cross-iteration dependence on array {}", dep.array),
            };
        }
        match resolve_array_dep(dep, l, props, env) {
            Some(res) => {
                for c in res.runtime_checks {
                    // Structural (canonical) equality, so algebraically
                    // equal checks like `-1 + N <= m` and `N - 1 <= m`
                    // collapse to one conjunct.
                    if !checks.contains(&c) {
                        checks.push(c);
                    }
                }
                for p in res.properties {
                    if !used.contains(&p) {
                        used.push(p);
                    }
                }
            }
            None => {
                return LoopDecision::Serial {
                    reason: format!("cross-iteration dependence on array {}", dep.array),
                };
            }
        }
    }
    let runtime_check = if checks.is_empty() {
        None
    } else {
        Some(CheckExpr::and(checks))
    };
    let mut pragma = String::from("omp parallel for");
    if let Some(c) = &runtime_check {
        pragma.push_str(&format!(" if({c})"));
    }
    if !classic.private.is_empty() {
        pragma.push_str(&format!(" private({})", classic.private.join(", ")));
    }
    for r in &classic.reductions {
        pragma.push_str(&format!(" reduction({r})"));
    }
    LoopDecision::Parallel(ParallelPlan {
        pragma,
        private: classic.private,
        reductions: classic.reductions,
        runtime_check,
        properties_used: used,
    })
}

struct Resolution {
    /// Display form of every property the discharge relied on (the outer
    /// *and* inner array for composed two-level indirection).
    properties: Vec<String>,
    /// Runtime conjuncts guarding the discharge (containment checks plus
    /// the validity guards of any conditionally-proven property).
    runtime_checks: Vec<CheckExpr>,
}

/// A [`PropertyKind::Guarded`] property is only valid under its predicate;
/// every use site must re-establish it at runtime.
fn push_guard(prop: &ArrayProperty, checks: &mut Vec<CheckExpr>) {
    if let PropertyKind::Guarded { guard } = &prop.kind {
        push_unique(checks, (**guard).clone());
    }
}

fn push_unique(checks: &mut Vec<CheckExpr>, c: CheckExpr) {
    if !checks.contains(&c) {
        checks.push(c);
    }
}

/// Attempts to discharge all conflicting accesses of one array using a
/// subscript-array property.
fn resolve_array_dep(
    dep: &ArrayDep,
    l: &LoopIr,
    props: &PropertyDb,
    env: &RangeEnv,
) -> Option<Resolution> {
    if dep.accesses.iter().any(|a| !a.exact) {
        return None;
    }
    try_gather_scatter(dep, l, props, env).or_else(|| try_segments(dep, l, props, env))
}

/// Pattern 1: all accesses are `host[S[ρ…] + c]` through one monotone
/// subscript array `S` whose monotone dimension is indexed by the loop
/// variable. Requires strict monotonicity (injectivity).
fn try_gather_scatter(
    dep: &ArrayDep,
    l: &LoopIr,
    props: &PropertyDb,
    env: &RangeEnv,
) -> Option<Resolution> {
    let idx = &l.index;
    // Decompose the first access; all others must agree.
    let first = decompose_indirect(&dep.accesses[0])?;
    for a in &dep.accesses[1..] {
        let d = decompose_indirect(a)?;
        if d.sub_array != first.sub_array || d.offset != first.offset || d.rho != first.rho {
            return None;
        }
    }
    let prop = props.get(&first.sub_array)?;
    if !prop.is_injective() {
        return None;
    }
    if prop.defined_in >= l.id {
        return None; // property established only after this loop
    }
    let mut checks: Vec<CheckExpr> = Vec::new();
    let mut used = vec![prop.to_string()];
    push_guard(prop, &mut checks);
    // The property's monotone dimension must be indexed by the loop
    // variable (same offset across accesses ensures consistency).
    for a in &dep.accesses {
        let d = decompose_indirect(a)?;
        if prop.dim >= d.rho.len() {
            return None;
        }
        // Non-monotone dimensions may hold any legal value (Definition 1),
        // but they must not depend on the outer loop index (two iterations
        // picking the same slice would alias).
        for (p, r) in d.rho.iter().enumerate() {
            if p != prop.dim && r.contains_sym(idx) {
                return None;
            }
        }
        let rho = &d.rho[prop.dim];
        if let Some(k) = simple_offset(rho, idx) {
            if let Some(c) = range_containment_check(k, l, prop, env)? {
                push_unique(&mut checks, c);
            }
        } else {
            // Multi-level indirection: the monotone dimension is itself a
            // subscript-array read, `S[T[i + k2]]`. Injective ∘ injective
            // is injective, so distinct iterations still touch pairwise
            // distinct elements — provided the composition stays within
            // the domains both properties cover:
            //   (a) the loop range [k2 : N-1+k2] lies in T's index range;
            //   (b) T's value range lies in S's monotone index range.
            let (inner_name, inner_indices, rest) = split_single_read(rho)?;
            if !rest.is_zero() {
                return None;
            }
            let [inner_idx] = inner_indices.as_slice() else {
                return None;
            };
            let k2 = simple_offset(inner_idx, idx)?;
            let inner = props.get(&inner_name)?;
            if !inner.is_injective() || inner.dim != 0 || inner.defined_in >= l.id {
                return None;
            }
            push_guard(inner, &mut checks);
            if let Some(c) = range_containment_check(k2, l, inner, env)? {
                push_unique(&mut checks, c);
            }
            let iv = inner.value_range.as_ref()?;
            if !env.proves_le(&prop.index_range.lo, &iv.lo) {
                return None;
            }
            if let Some(c) = containment_upper(iv.hi.clone(), prop, env)? {
                push_unique(&mut checks, c);
            }
            let shown = inner.to_string();
            if !used.contains(&shown) {
                used.push(shown);
            }
        }
    }
    Some(Resolution {
        properties: used,
        runtime_checks: checks,
    })
}

/// Pattern 2: all accesses are `host[B[i + k] + jv]` where `jv` is the
/// index of an inner loop running exactly `B[i+k+1] - B[i+k]` iterations.
/// Non-strict monotonicity of `B` suffices.
fn try_segments(
    dep: &ArrayDep,
    l: &LoopIr,
    props: &PropertyDb,
    env: &RangeEnv,
) -> Option<Resolution> {
    let idx = &l.index;
    let inner = collect_inner_loops(&l.body);
    let mut checks: Vec<CheckExpr> = Vec::new();
    let mut prop_used = None;
    for a in &dep.accesses {
        if a.subs.len() != 1 {
            return None;
        }
        // subs = Read(B, [i + k]) + jv  (coefficient 1 on both parts).
        let s = &a.subs[0];
        let (b_array, b_indices, rest) = split_single_read(s)?;
        let [b_index] = b_indices.as_slice() else {
            return None;
        };
        let k = simple_offset(b_index, idx)?;
        // rest must be exactly one inner loop's index variable.
        let jv = rest.as_sym()?.clone();
        if jv.kind != SymbolKind::Var {
            return None;
        }
        let (_, n_iters) = inner.iter().find(|(name, _)| *name == jv.name.as_ref())?;
        // The inner trip count must be B[i+k+1] - B[i+k].
        let expected = Expr::read(&b_array, vec![Expr::sym(idx.clone()) + Expr::int(k + 1)])
            - Expr::read(&b_array, vec![Expr::sym(idx.clone()) + Expr::int(k)]);
        if *n_iters != expected {
            return None;
        }
        let prop = props.get(&b_array)?;
        if prop.dim != 0 || prop.defined_in >= l.id {
            return None;
        }
        // Segments [B[i] : B[i+1]-1] are disjoint under (non-strict)
        // monotonicity. The property must cover subscripts up to N + k.
        push_guard(prop, &mut checks);
        if let Some(c) = segment_containment_check(k, l, prop, env)? {
            push_unique(&mut checks, c);
        }
        prop_used = Some(prop.to_string());
    }
    Some(Resolution {
        properties: vec![prop_used?],
        runtime_checks: checks,
    })
}

struct Indirect {
    sub_array: String,
    rho: Vec<Expr>,
    offset: i64,
}

/// `host_sub = Read(S, ρ) + c` with integer `c`.
fn decompose_indirect(a: &Access) -> Option<Indirect> {
    if a.subs.len() != 1 {
        return None;
    }
    let (array, rho, rest) = split_single_read(&a.subs[0])?;
    let offset = rest_to_int(&rest)?;
    Some(Indirect {
        sub_array: array,
        rho,
        offset,
    })
}

fn rest_to_int(e: &Expr) -> Option<i64> {
    e.as_int()
}

/// Splits `e = Read(A, ρ) + rest` where the read occurs exactly once with
/// coefficient 1. For multi-index reads, returns all indices.
fn split_single_read(e: &Expr) -> Option<(String, Vec<Expr>, Expr)> {
    let mut found: Option<(String, Vec<Expr>)> = None;
    let mut rest_terms = Vec::new();
    for t in e.terms() {
        let reads: Vec<&Atom> = t
            .atoms
            .iter()
            .filter(|a| matches!(a, Atom::Read { .. }))
            .collect();
        match reads.len() {
            0 => rest_terms.push(t.clone()),
            1 if t.atoms.len() == 1 && t.coeff == 1 => {
                if found.is_some() {
                    return None; // more than one read
                }
                let Atom::Read { array, indices } = reads[0] else {
                    unreachable!()
                };
                found = Some((array.to_string(), indices.clone()));
            }
            _ => return None,
        }
    }
    let (array, rho) = found?;
    Some((array, rho, Expr::from_terms(rest_terms)))
}

/// `e = idx + k` → `k`.
fn simple_offset(e: &Expr, idx: &Symbol) -> Option<i64> {
    let (coef, rest) = e.split_linear(idx)?;
    if coef.as_int() != Some(1) {
        return None;
    }
    rest.as_int()
}

/// Checks that `[k : N-1+k]` lies inside the property's index range,
/// returning the runtime check when the upper bound is a post-loop value.
/// Result is `Some(check)` on success (check may be `None` when provable
/// at compile time); `None` when containment fails outright.
fn range_containment_check(
    k: i64,
    l: &LoopIr,
    prop: &ArrayProperty,
    env: &RangeEnv,
) -> Option<Option<CheckExpr>> {
    // Lower end.
    if !env.proves_le(&prop.index_range.lo, &Expr::int(k)) {
        return None;
    }
    let hi_access = l.n_iters.clone() - Expr::int(1) + Expr::int(k);
    containment_upper(hi_access, prop, env)
}

/// Segment accesses reach `B[N + k]`, one past the last segment start.
fn segment_containment_check(
    k: i64,
    l: &LoopIr,
    prop: &ArrayProperty,
    env: &RangeEnv,
) -> Option<Option<CheckExpr>> {
    if !env.proves_le(&prop.index_range.lo, &Expr::int(k)) {
        return None;
    }
    // The paper's runtime check compares the last segment *start* index
    // (`-1 + n_cols <= holder_max`); we follow that form.
    let hi_access = l.n_iters.clone() - Expr::int(1) + Expr::int(k);
    containment_upper(hi_access, prop, env)
}

fn containment_upper(
    hi_access: Expr,
    prop: &ArrayProperty,
    env: &RangeEnv,
) -> Option<Option<CheckExpr>> {
    let hi = &prop.index_range.hi;
    let has_postmax = hi.free_syms().iter().any(|s| s.kind == SymbolKind::PostMax);
    if has_postmax {
        Some(Some(CheckExpr::le(hi_access, hi.clone())))
    } else if env.proves_le(&hi_access, hi) {
        Some(None)
    } else {
        // Not provable at compile time: still emit a runtime check on the
        // symbolic bound.
        Some(Some(CheckExpr::le(hi_access, hi.clone())))
    }
}

fn collect_inner_loops(body: &[IrStmt]) -> Vec<(String, Expr)> {
    let mut out = Vec::new();
    fn walk(body: &[IrStmt], out: &mut Vec<(String, Expr)>) {
        for s in body {
            match s {
                IrStmt::Loop(l) => {
                    out.push((l.index.name.to_string(), l.n_iters.clone()));
                    walk(&l.body, out);
                }
                IrStmt::If { then_s, else_s, .. } => {
                    walk(then_s, out);
                    walk(else_s, out);
                }
                _ => {}
            }
        }
    }
    walk(body, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::analyze_function;
    use subsub_cfront::parse_program;
    use subsub_ir::lower_function;

    /// Analyzes a whole function and returns the decision for the loop at
    /// pre-order position `nth` under `level`.
    fn decide_nth(src: &str, nth: usize, level: AlgorithmLevel) -> LoopDecision {
        let p = parse_program(src).unwrap();
        let f = lower_function(&p.funcs[0], &p.globals).unwrap();
        let env = RangeEnv::new();
        let fa = analyze_function(&f, level, &env);
        let loops = f.loops();
        decide_loop(loops[nth], &f.types, &f.conds, &fa.properties, level, &env)
    }

    /// Inline-expanded AMGmk: fill loop then the SpMV use loop (Figures 8+9).
    const AMGMK: &str = r#"
        void amgmk(int num_rows, int num_rownnz, int *A_i, int *A_j,
                   double *A_data, double *x_data, double *y_data, int *A_rownnz) {
            int i; int adiag; int irownnz; int jj; int m; double tempx;
            irownnz = 0;
            for (i = 0; i < num_rows; i++) {
                adiag = A_i[i+1] - A_i[i];
                if (adiag > 0)
                    A_rownnz[irownnz++] = i;
            }
            for (i = 0; i < num_rownnz; i++) {
                m = A_rownnz[i];
                tempx = y_data[m];
                for (jj = A_i[m]; jj < A_i[m+1]; jj++)
                    tempx += A_data[jj] * x_data[A_j[jj]];
                y_data[m] = tempx;
            }
        }
    "#;

    /// The paper's headline result (Section 3.1): the outer SpMV loop is
    /// parallel under the new algorithm, with the runtime check
    /// `-1 + num_rownnz <= irownnz_max`.
    #[test]
    fn amgmk_use_loop_parallel_under_new() {
        let d = decide_nth(AMGMK, 1, AlgorithmLevel::New);
        let plan = d.plan().unwrap_or_else(|| panic!("expected parallel: {d}"));
        let check = plan.runtime_check.as_ref().expect("runtime check");
        assert_eq!(check.to_string(), "num_rownnz - 1 <= irownnz_max");
        assert!(plan.private.contains(&"jj".to_string()));
        assert!(plan.private.contains(&"m".to_string()));
        assert!(plan.private.contains(&"tempx".to_string()));
    }

    /// Classical analysis and the base algorithm keep the loop serial.
    #[test]
    fn amgmk_use_loop_serial_under_classic_and_base() {
        assert!(!decide_nth(AMGMK, 1, AlgorithmLevel::Classic).is_parallel());
        assert!(!decide_nth(AMGMK, 1, AlgorithmLevel::Base).is_parallel());
    }

    /// The fill loop itself stays serial at every level (carried scalar
    /// recurrence on irownnz).
    #[test]
    fn amgmk_fill_loop_serial() {
        for level in [
            AlgorithmLevel::Classic,
            AlgorithmLevel::Base,
            AlgorithmLevel::New,
        ] {
            assert!(!decide_nth(AMGMK, 0, level).is_parallel());
        }
    }

    /// The inner jj-loop is parallel even classically (reduction).
    #[test]
    fn amgmk_inner_loop_parallel_classically() {
        let d = decide_nth(AMGMK, 2, AlgorithmLevel::Classic);
        let plan = d.plan().unwrap_or_else(|| panic!("expected parallel: {d}"));
        assert!(plan.reductions.contains(&"+:tempx".to_string()));
    }

    /// Inline-expanded SDDMM (Figures 10+11): segment pattern.
    const SDDMM: &str = r#"
        void sddmm(int n_cols, int nonzeros, int k, int *col_val, int *col_ptr,
                   int *row_ind, double *W, double *H, double *nnz_val, double *p) {
            int i; int holder; int r; int ind; int t; double sm;
            holder = 1; col_ptr[0] = 0; r = col_val[0];
            for (i = 0; i < nonzeros; i++) {
                if (col_val[i] != r) {
                    col_ptr[holder++] = i;
                    r = col_val[i];
                }
            }
            for (r = 0; r < n_cols; r++) {
                for (ind = col_ptr[r]; ind < col_ptr[r+1]; ind++) {
                    sm = 0.0;
                    for (t = 0; t < k; t++) {
                        sm += W[r*k + t] * H[row_ind[ind]*k + t];
                    }
                    p[ind] = sm * nnz_val[ind];
                }
            }
        }
    "#;

    /// Section 3.2: the outer r-loop parallelizes under the new algorithm
    /// with the check `-1 + n_cols <= holder_max`.
    #[test]
    fn sddmm_outer_parallel_under_new() {
        let d = decide_nth(SDDMM, 1, AlgorithmLevel::New);
        let plan = d.plan().unwrap_or_else(|| panic!("expected parallel: {d}"));
        assert_eq!(
            plan.runtime_check
                .as_ref()
                .map(|c| c.to_string())
                .as_deref(),
            Some("n_cols - 1 <= holder_max")
        );
    }

    #[test]
    fn sddmm_outer_serial_under_classic_and_base() {
        assert!(!decide_nth(SDDMM, 1, AlgorithmLevel::Classic).is_parallel());
        assert!(!decide_nth(SDDMM, 1, AlgorithmLevel::Base).is_parallel());
    }

    /// The inner ind-loop is classically parallel (affine write p[ind],
    /// reduction sm).
    #[test]
    fn sddmm_inner_parallel_classically() {
        let d = decide_nth(SDDMM, 2, AlgorithmLevel::Classic);
        assert!(d.is_parallel(), "{d}");
    }

    /// CHOLMOD-style supernodal pattern: the column pointer is a prefix sum
    /// (unconditional SRA) — the BASE algorithm already parallelizes the
    /// use loop; classical does not.
    const CHOLMOD: &str = r#"
        void cholmod(int n, int *colptr, int *cnt, double *L_x, double *work) {
            int j; int p;
            colptr[0] = 0;
            for (j = 0; j < n; j++) {
                colptr[j+1] = colptr[j] + 7;
            }
            for (j = 0; j < n; j++) {
                for (p = colptr[j]; p < colptr[j+1]; p++) {
                    L_x[p] = L_x[p] * work[j];
                }
            }
        }
    "#;

    #[test]
    fn cholmod_use_loop_parallel_under_base_and_new() {
        for level in [AlgorithmLevel::Base, AlgorithmLevel::New] {
            let d = decide_nth(CHOLMOD, 1, level);
            assert!(d.is_parallel(), "level {level}: {d}");
        }
        assert!(!decide_nth(CHOLMOD, 1, AlgorithmLevel::Classic).is_parallel());
    }

    /// IS-style key histogram: the subscript array values come from input
    /// data — no property, serial at every level.
    const IS: &str = r#"
        void rank(int n, int *key, int *count) {
            int i;
            for (i = 0; i < n; i++) {
                count[key[i]] = count[key[i]] + 1;
            }
        }
    "#;

    #[test]
    fn is_histogram_serial_everywhere() {
        for level in [
            AlgorithmLevel::Classic,
            AlgorithmLevel::Base,
            AlgorithmLevel::New,
        ] {
            assert!(!decide_nth(IS, 0, level).is_parallel());
        }
    }

    /// UA-style gather through a multi-dimensional subscript array proven
    /// range-monotone w.r.t. dimension 0 (its slices are disjoint).
    const UA: &str = r#"
        void transf(int LELT, int idel[64][6][5][5], double *tx, double *tmort) {
            int iel; int j; int i; int ntemp; int il;
            for (iel = 0; iel < LELT; iel++) {
                ntemp = 125 * iel;
                for (j = 0; j < 5; j++) {
                    for (i = 0; i < 5; i++) {
                        idel[iel][0][j][i] = ntemp + i*5 + j*25 + 4;
                        idel[iel][1][j][i] = ntemp + i*5 + j*25;
                        idel[iel][2][j][i] = ntemp + i + j*25 + 20;
                        idel[iel][3][j][i] = ntemp + i + j*25;
                        idel[iel][4][j][i] = ntemp + i + j*5 + 100;
                        idel[iel][5][j][i] = ntemp + i + j*5;
                    }
                }
            }
            for (iel = 0; iel < LELT; iel++) {
                for (j = 0; j < 5; j++) {
                    for (i = 0; i < 5; i++) {
                        il = idel[iel][0][j][i];
                        tx[il] = tx[il] + tmort[il];
                    }
                }
            }
        }
    "#;

    #[test]
    fn ua_use_loop_parallel_under_new_only() {
        let d = decide_nth(UA, 3, AlgorithmLevel::New);
        assert!(d.is_parallel(), "{d}");
        assert!(!decide_nth(UA, 3, AlgorithmLevel::Base).is_parallel());
        assert!(!decide_nth(UA, 3, AlgorithmLevel::Classic).is_parallel());
    }

    /// CSR-of-CSR two-level gather: the scatter target is `row_start[act[i]]`
    /// — a strided-monotone outer array composed with an intermittent inner
    /// array. Injective ∘ injective is injective, so the use loop
    /// parallelizes under the new algorithm, with containment of the loop
    /// range in the inner array's (post-max-bounded) domain as the check.
    const CSROCSR: &str = r#"
        void csrocsr(int num_rows, int num_act, int *row_start, int *act,
                     double *y, double *g) {
            int i; int m; int p;
            p = 0;
            for (i = 0; i < num_rows; i++) {
                row_start[i] = p;
                p = p + 2;
            }
            m = 0;
            for (i = 0; i < num_rows; i++) {
                if (g[i] > 0.0) {
                    act[m++] = i;
                }
            }
            for (i = 0; i < num_act; i++) {
                y[row_start[act[i]]] = y[row_start[act[i]]] + g[i];
            }
        }
    "#;

    #[test]
    fn two_level_gather_parallel_under_new() {
        let d = decide_nth(CSROCSR, 2, AlgorithmLevel::New);
        let plan = d.plan().unwrap_or_else(|| panic!("expected parallel: {d}"));
        let check = plan.runtime_check.as_ref().expect("runtime check");
        assert_eq!(check.to_string(), "num_act - 1 <= m_max");
        // Both levels' properties justify the decision.
        assert_eq!(plan.properties_used.len(), 2, "{:?}", plan.properties_used);
        assert!(plan
            .properties_used
            .iter()
            .any(|p| p.starts_with("row_start[")));
        assert!(plan.properties_used.iter().any(|p| p.starts_with("act[")));
    }

    /// The inner level of the composition is an intermittent property —
    /// Base lacks LEMMA 1, so the composition is only provable under New.
    #[test]
    fn two_level_gather_serial_under_classic_and_base() {
        assert!(!decide_nth(CSROCSR, 2, AlgorithmLevel::Classic).is_parallel());
        assert!(!decide_nth(CSROCSR, 2, AlgorithmLevel::Base).is_parallel());
    }

    /// If the inner array of a composition has no injectivity property,
    /// the composed access cannot be discharged.
    #[test]
    fn two_level_requires_inner_injectivity() {
        let src = r#"
            void f(int n, int *row_start, int *act, double *y, double *g) {
                int i; int p;
                p = 0;
                for (i = 0; i < n; i++) {
                    row_start[i] = p;
                    p = p + 2;
                }
                for (i = 0; i < n; i++) {
                    y[row_start[act[i]]] = y[row_start[act[i]]] + g[i];
                }
            }
        "#;
        assert!(!decide_nth(src, 1, AlgorithmLevel::New).is_parallel());
    }

    /// Strided SRA fill (`p = p + 2`) proves `off` strided-monotone; the
    /// scatter loop is already parallel under Base (SRA is a base-algorithm
    /// concept), with no runtime check needed.
    const SSCATTER: &str = r#"
        void sscatter(int n, int *off, double *y, double *g) {
            int i; int p;
            p = 0;
            for (i = 0; i < n; i++) {
                off[i] = p;
                p = p + 2;
            }
            for (i = 0; i < n; i++) {
                y[off[i]] = y[off[i]] + g[i];
            }
        }
    "#;

    #[test]
    fn strided_scatter_parallel_under_base_and_new() {
        for level in [AlgorithmLevel::Base, AlgorithmLevel::New] {
            let d = decide_nth(SSCATTER, 1, level);
            let plan = d.plan().unwrap_or_else(|| panic!("level {level}: {d}"));
            assert!(plan.runtime_check.is_none(), "{:?}", plan.runtime_check);
            assert!(
                plan.properties_used.iter().any(|p| p.contains("#SMA+2")),
                "strided gap bound not recorded: {:?}",
                plan.properties_used
            );
        }
        assert!(!decide_nth(SSCATTER, 1, AlgorithmLevel::Classic).is_parallel());
    }

    /// Conditionally-monotone prefix sum: the step `gstep` has unknown
    /// sign, so the property holds only under the guard `1 <= gstep`,
    /// which must surface as the segment loop's runtime check.
    const GPREFIX: &str = r#"
        void gprefix(int n, int gstep, int *off, double *vals) {
            int i; int j;
            off[0] = 0;
            for (i = 0; i < n; i++) {
                off[i+1] = off[i] + gstep;
            }
            for (i = 0; i < n; i++) {
                for (j = off[i]; j < off[i+1]; j++) {
                    vals[j] = vals[j] * 2.0;
                }
            }
        }
    "#;

    #[test]
    fn guarded_prefix_parallel_under_new_with_guard_check() {
        let d = decide_nth(GPREFIX, 1, AlgorithmLevel::New);
        let plan = d.plan().unwrap_or_else(|| panic!("expected parallel: {d}"));
        let check = plan.runtime_check.as_ref().expect("guard check");
        assert_eq!(check.to_string(), "1 <= gstep");
    }

    /// Symbolic-step recurrences need the guarded-recurrence concept —
    /// Base keeps the loop serial.
    #[test]
    fn guarded_prefix_serial_under_classic_and_base() {
        assert!(!decide_nth(GPREFIX, 1, AlgorithmLevel::Classic).is_parallel());
        assert!(!decide_nth(GPREFIX, 1, AlgorithmLevel::Base).is_parallel());
    }

    /// Accesses through two *different* subscript arrays cannot be
    /// discharged even if both are injective (values may collide).
    #[test]
    fn different_subscript_arrays_not_resolved() {
        let src = r#"
            void f(int n, double *y, int *p, int *q, int *flag) {
                int i; int m;
                m = 0;
                for (i = 0; i < n; i++) {
                    if (flag[i] > 0) { p[m] = i; m = m + 1; }
                }
                m = 0;
                for (i = 0; i < n; i++) {
                    if (flag[i] > 0) { q[m] = i; m = m + 1; }
                }
                for (i = 0; i < n; i++) {
                    y[p[i]] = y[q[i]] + 1.0;
                }
            }
        "#;
        assert!(!decide_nth(src, 2, AlgorithmLevel::New).is_parallel());
    }

    /// A constant offset between the write and the read through the same
    /// injective array breaks the same-element argument.
    #[test]
    fn offset_access_not_resolved() {
        let src = r#"
            void f(int n, double *y, int *ind, int *flag) {
                int i; int m;
                m = 0;
                for (i = 0; i < n; i++) {
                    if (flag[i] > 0) { ind[m] = i; m = m + 1; }
                }
                for (i = 0; i < n; i++) {
                    y[ind[i]] = y[ind[i] + 1] * 0.5;
                }
            }
        "#;
        assert!(!decide_nth(src, 1, AlgorithmLevel::New).is_parallel());
    }

    /// Non-strict monotonicity is NOT enough for the gather/scatter
    /// pattern (duplicate values alias); it IS enough for segments.
    #[test]
    fn gather_scatter_requires_strictness() {
        // p fills with a conditional SSR of step 0-or-1 twice — the value
        // itself is only monotone. Simplest: use an MA-only property via a
        // value that repeats: a[m] = holder-style value. Here we reuse a
        // prefix-sum with k = 0 (monotone, not strict).
        let src = r#"
            void f(int n, double *y, int *ind) {
                int i;
                for (i = 0; i < n; i++) {
                    ind[i+1] = ind[i] + 0;
                }
                for (i = 0; i < n; i++) {
                    y[ind[i]] = y[ind[i]] + 1.0;
                }
            }
        "#;
        assert!(!decide_nth(src, 1, AlgorithmLevel::New).is_parallel());
    }

    /// A segment loop whose inner trip count does NOT match `B[i+1]-B[i]`
    /// is not the segment pattern.
    #[test]
    fn segment_requires_matching_bounds() {
        let src = r#"
            void f(int n, int *colptr, double *x, int *w) {
                int j; int p;
                colptr[0] = 0;
                for (j = 0; j < n; j++) {
                    colptr[j+1] = colptr[j] + 7;
                }
                for (j = 0; j < n; j++) {
                    for (p = colptr[j]; p < colptr[j+1] + 1; p++) {
                        x[p] = x[p] * 2.0;
                    }
                }
            }
        "#;
        assert!(!decide_nth(src, 1, AlgorithmLevel::Base).is_parallel());
    }

    /// Two host arrays gathered through the same subscript array generate
    /// the containment check twice; structural dedup must collapse the
    /// conjunction to a single conjunct appearing once in the pragma.
    #[test]
    fn equal_checks_dedup_to_one_conjunct() {
        let src = r#"
            void f(int num_rows, int num_rownnz, int *A_i, double *y_data,
                   double *z_data, int *A_rownnz) {
                int i; int adiag; int irownnz; int m;
                irownnz = 0;
                for (i = 0; i < num_rows; i++) {
                    adiag = A_i[i+1] - A_i[i];
                    if (adiag > 0)
                        A_rownnz[irownnz++] = i;
                }
                for (i = 0; i < num_rownnz; i++) {
                    m = A_rownnz[i];
                    y_data[m] = y_data[m] + 1.0;
                    z_data[m] = z_data[m] * 2.0;
                }
            }
        "#;
        let d = decide_nth(src, 1, AlgorithmLevel::New);
        let plan = d.plan().unwrap_or_else(|| panic!("expected parallel: {d}"));
        let check = plan.runtime_check.as_ref().expect("runtime check");
        assert_eq!(check.conjuncts().len(), 1, "dedup failed: {check}");
        assert_eq!(plan.pragma.matches("irownnz_max").count(), 1);
    }

    /// The dedup is canonical, not textual: operand order and constant
    /// placement don't defeat it.
    #[test]
    fn dedup_is_structural_not_textual() {
        use subsub_rtcheck::parse_check;
        let a = parse_check("-1 + num_rownnz <= irownnz_max").unwrap();
        let b = parse_check("num_rownnz - 1 <= irownnz_max").unwrap();
        assert_eq!(a, b);
        let mut checks = vec![a];
        if !checks.contains(&b) {
            checks.push(b);
        }
        assert_eq!(CheckExpr::and(checks).conjuncts().len(), 1);
    }

    /// The property must not be used by a loop that precedes its
    /// definition in program order.
    #[test]
    fn property_not_used_before_definition() {
        let src = r#"
            void f(int n, double *y, int *ind, double *g, int *flag) {
                int i; int m;
                for (i = 0; i < n; i++) {
                    y[ind[i]] = y[ind[i]] + g[i];
                }
                m = 0;
                for (i = 0; i < n; i++) {
                    if (flag[i] > 0)
                        ind[m++] = i;
                }
            }
        "#;
        assert!(!decide_nth(src, 0, AlgorithmLevel::New).is_parallel());
    }
}
