//! The reference index-array scans.
//!
//! When compile-time analysis is inconclusive, the monotonicity property
//! the dependence test relies on is established from the *actual index
//! array* at runtime — the inspector half of classic inspector–executor
//! parallelization. One scan establishes both non-strict and strict
//! monotonicity (strict ⇒ injectivity, the gather/scatter requirement),
//! so one verdict serves either requirement.
//!
//! Production never rescans an array per decision: the ingestion trust
//! boundary keeps per-block summaries ([`crate::block::BlockSummaries`])
//! that yield the same verdict in O(n / [`crate::BLOCK_LEN`]). The scans
//! here are the O(n) ground truth those summaries are built from and
//! checked against: [`scan_pairs`] (the wide adjacent-pair primitive),
//! [`inspect_serial`] (the whole-array verdict) and
//! [`inspect_block_monotone`] (the within-block verdict).

/// Monotonicity flavour a dependence-test pattern requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MonotoneReq {
    /// Non-decreasing (segment patterns: disjoint `[B[i] : B[i+1])`).
    NonStrict,
    /// Strictly increasing, hence injective (gather/scatter patterns).
    Strict,
}

impl std::fmt::Display for MonotoneReq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonotoneReq::NonStrict => write!(f, "monotone"),
            MonotoneReq::Strict => write!(f, "strictly monotone"),
        }
    }
}

/// Result of inspecting one index array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonotoneVerdict {
    /// Adjacent pairs never decrease.
    pub nonstrict: bool,
    /// Adjacent pairs strictly increase.
    pub strict: bool,
    /// The globally first index `i` with `data[i-1] > data[i]` (a
    /// violation of the *non-strict* requirement), if any.
    pub first_violation: Option<usize>,
    /// Number of elements inspected.
    pub len: usize,
}

impl MonotoneVerdict {
    /// Does the verdict satisfy a requirement?
    pub fn satisfies(&self, req: MonotoneReq) -> bool {
        match req {
            MonotoneReq::NonStrict => self.nonstrict,
            MonotoneReq::Strict => self.strict,
        }
    }
}

/// Pairs examined between early-exit checks of the wide scan. The inner
/// fold stays branch-free across one stride; a tripped stride triggers
/// a positioned second pass over at most this many pairs.
const SCAN_STRIDE: usize = 512;

/// Raw result of [`scan_pairs`]: the monotonicity flags of one slice's
/// adjacent pairs plus the slice-relative index of the first decrease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairScan {
    /// No adjacent pair decreases.
    pub nonstrict: bool,
    /// Every adjacent pair strictly increases.
    pub strict: bool,
    /// Smallest `i` with `data[i - 1] > data[i]`, if any.
    pub first_violation: Option<usize>,
}

/// The wide adjacent-pair scan every inspection path is built on.
///
/// The scan walks the slice in strides of [`SCAN_STRIDE`] pairs. Within
/// a stride a *single* comparison per pair is OR-accumulated branch-free
/// over the two offset views of the slice (`data[i-1]` vs `data[i]`) —
/// a clean zip-fold the loop vectorizer turns into packed unsigned
/// 64-bit compares (one `vpcmp` per lane-group, no nightly
/// `std::simd`). While no equality has been seen the fold asks
/// `x >= y`, which trips on a plateau *or* a decrease; a tripped stride
/// pays one positioned scalar pass that either returns the globally
/// first decrease or records the equality. Once an equality is known,
/// `strict` is settled and the fold degenerates to `x > y` — so even
/// plateau-heavy arrays run one vector compare per pair. The result is
/// identical to the naive early-exit loop: the *globally first*
/// decrease, and `strict` iff no pair was equal before it.
pub fn scan_pairs(data: &[usize]) -> PairScan {
    let n = data.len();
    let mut eq_seen = false;
    let mut pos = 1usize;
    while pos < n {
        let end = (pos + SCAN_STRIDE).min(n);
        let a = &data[pos - 1..end - 1];
        let b = &data[pos..end];
        if eq_seen {
            // Strictness already settled: only a decrease matters.
            let mut dec = false;
            for (x, y) in a.iter().zip(b) {
                dec |= x > y;
            }
            if !dec {
                pos = end;
                continue;
            }
        } else {
            // `x >= y` catches a decrease or an equality with one
            // compare; strictly increasing strides stay on this path.
            let mut ge = false;
            for (x, y) in a.iter().zip(b) {
                ge |= x >= y;
            }
            if !ge {
                pos = end;
                continue;
            }
        }
        // Positioned second pass: the stride tripped, classify it.
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            if x > y {
                return PairScan {
                    nonstrict: false,
                    strict: false,
                    first_violation: Some(pos + k),
                };
            }
            eq_seen |= x == y;
        }
        pos = end;
    }
    PairScan {
        nonstrict: true,
        strict: !eq_seen,
        first_violation: None,
    }
}

/// The whole-array reference scan. Built on the wide [`scan_pairs`]
/// primitive, so it runs at autovectorized throughput while reporting
/// the same globally-first violation index as the one-pair-per-iteration
/// loop it replaced.
pub fn inspect_serial(data: &[usize]) -> MonotoneVerdict {
    let ps = scan_pairs(data);
    MonotoneVerdict {
        nonstrict: ps.nonstrict,
        strict: ps.strict,
        first_violation: ps.first_violation,
        len: data.len(),
    }
}

/// Block-monotone inspection: verdict for "monotone *within* blocks of
/// `b` elements", the periodic/block-monotone pattern of *Inductive Loop
/// Analysis* (arXiv 2511.06052). Pairs straddling a block boundary
/// (those at indices that are multiples of `b`) are exempt — a
/// block-periodic histogram restarts its key ramp at every block, and
/// within-block strictness is what licenses within-block parallelism
/// (distinct scatter targets inside each block).
///
/// `b == 0` (or `b >= data.len()`) degenerates to a single block —
/// identical to [`inspect_serial`]. For `b` a multiple of
/// [`crate::block::BLOCK_LEN`], the same verdict recombines in O(blocks)
/// from maintained summaries via
/// [`crate::block::BlockSummaries::block_verdict`]; this function is the
/// O(n) ground truth the summaries are checked against.
pub fn inspect_block_monotone(data: &[usize], b: usize) -> MonotoneVerdict {
    if b == 0 {
        return inspect_serial(data);
    }
    let mut eq = false;
    let mut first_violation = None;
    for (k, chunk) in data.chunks(b).enumerate() {
        let ps = scan_pairs(chunk);
        if !ps.nonstrict {
            first_violation = ps.first_violation.map(|i| k * b + i);
            break;
        }
        if !ps.strict {
            eq = true;
        }
    }
    MonotoneVerdict {
        nonstrict: first_violation.is_none(),
        strict: first_violation.is_none() && !eq,
        first_violation,
        len: data.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockSummaries, BLOCK_LEN};

    #[test]
    fn serial_verdicts() {
        let v = inspect_serial(&[0, 1, 2, 5, 9]);
        assert!(v.strict && v.nonstrict && v.first_violation.is_none());
        let v = inspect_serial(&[0, 1, 1, 2]);
        assert!(!v.strict && v.nonstrict);
        let v = inspect_serial(&[0, 3, 2]);
        assert!(!v.strict && !v.nonstrict);
        assert_eq!(v.first_violation, Some(2));
        // Trivial arrays are vacuously strict.
        assert!(inspect_serial(&[]).strict);
        assert!(inspect_serial(&[7]).strict);
    }

    #[test]
    fn satisfies_maps_requirements() {
        let v = inspect_serial(&[0, 1, 1, 2]);
        assert!(v.satisfies(MonotoneReq::NonStrict));
        assert!(!v.satisfies(MonotoneReq::Strict));
    }

    #[test]
    fn degenerate_inputs_serial_and_summaries_agree() {
        // Adversarial degenerate shapes: the reference scan and the
        // block-summary verdict production uses must agree on the whole
        // verdict, and any reported index must point at a real
        // violating pair.
        let n = 2 * BLOCK_LEN;
        let near_max = |len: usize| (0..len).map(|i| usize::MAX - len + i).collect::<Vec<_>>();
        let mut max_then_drop = near_max(BLOCK_LEN + 1);
        max_then_drop[BLOCK_LEN / 2] = usize::MAX;
        let mut join_drop: Vec<usize> = (0..n).map(|i| i * 2).collect();
        join_drop[BLOCK_LEN] = join_drop[BLOCK_LEN - 1] - 1;
        let cases: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            vec![usize::MAX],
            vec![usize::MAX, usize::MAX],
            vec![usize::MAX - 1, usize::MAX],
            vec![usize::MAX, 0],
            vec![0, usize::MAX],
            vec![3, 1, 2],
            vec![7; 17],
            vec![7; BLOCK_LEN + 5],
            vec![3; n],
            (0..BLOCK_LEN + 9).map(|i| i / 2).collect(),
            near_max(BLOCK_LEN + 9),
            max_then_drop,
            join_drop,
        ];
        for data in &cases {
            let serial = inspect_serial(data);
            let summary = BlockSummaries::build_unchecked(data).verdict();
            assert_eq!(serial, summary, "{:?}…", &data[..data.len().min(4)]);
            if let Some(i) = serial.first_violation {
                assert!(i > 0 && i < data.len() && data[i - 1] > data[i]);
            }
        }
    }

    #[test]
    fn vacuous_inputs_are_strict_for_both_verdicts() {
        for data in [vec![], vec![42]] {
            for v in [
                inspect_serial(&data),
                BlockSummaries::build_unchecked(&data).verdict(),
            ] {
                assert!(v.strict && v.nonstrict && v.first_violation.is_none());
                assert_eq!(v.len, data.len());
            }
        }
    }
}
