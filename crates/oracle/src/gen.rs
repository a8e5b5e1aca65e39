//! Seeded generators for adversarial inputs.
//!
//! Everything here is driven by the workspace's deterministic
//! [`Rng64`], so a seed fully reproduces a campaign. The generators
//! deliberately over-sample the shapes that break naive inspectors and
//! evaluators: degenerate lengths, plateaus, violations planted exactly
//! at the parallel scan's chunk joins, values at the `usize` ceiling,
//! out-of-domain subscripts, and scalar bindings at the `i64` edges
//! where wrapping arithmetic flips comparisons.

use subsub_rtcheck::{parse_check, Bindings, CheckExpr, BLOCK_LEN};
use subsub_sparse::Rng64;
use subsub_symbolic::Symbol;

/// The adversarial index-array shapes the campaign cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayShape {
    /// No entries (vacuously strict).
    Empty,
    /// One entry (vacuously strict).
    Single,
    /// All entries equal (non-strict only).
    Plateau,
    /// Strictly increasing ramp.
    StrictRamp,
    /// Repeated up-then-down teeth (neither flavour).
    Sawtooth,
    /// A strict ramp with exactly one planted violation.
    AlmostMonotone,
    /// A long strict ramp (≥ the parallel-scan threshold) whose only
    /// defect is a duplicate planted on a chunk-join pair — the pair the
    /// interior scans skip and only the boundary fixup sees.
    DuplicateAtBoundary,
    /// Entries pushed against `usize::MAX` (overflow bait for any scan
    /// arithmetic; also out of any realistic domain).
    NearMax,
    /// In-domain ramp with one entry planted past the domain bound.
    OutOfDomain,
    /// Independent uniform entries.
    RandomUniform,
    /// Strictly increasing with a constant gap ≥ 2 (the strided-SRA
    /// pattern: `#SMA+gap`).
    StridedRamp,
    /// Strict ramp restarting every `p` elements: block-monotone for
    /// block size `p`, globally non-monotone.
    BlockPeriodic,
    /// Block-periodic with one within-block duplicate planted, so even
    /// the block-monotone (strict) verdict must fail.
    BlockAlmostMonotone,
}

/// All shapes, in campaign order.
pub const ALL_SHAPES: [ArrayShape; 13] = [
    ArrayShape::Empty,
    ArrayShape::Single,
    ArrayShape::Plateau,
    ArrayShape::StrictRamp,
    ArrayShape::Sawtooth,
    ArrayShape::AlmostMonotone,
    ArrayShape::DuplicateAtBoundary,
    ArrayShape::NearMax,
    ArrayShape::OutOfDomain,
    ArrayShape::RandomUniform,
    ArrayShape::StridedRamp,
    ArrayShape::BlockPeriodic,
    ArrayShape::BlockAlmostMonotone,
];

impl std::fmt::Display for ArrayShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ArrayShape::Empty => "empty",
            ArrayShape::Single => "single",
            ArrayShape::Plateau => "plateau",
            ArrayShape::StrictRamp => "strict-ramp",
            ArrayShape::Sawtooth => "sawtooth",
            ArrayShape::AlmostMonotone => "almost-monotone",
            ArrayShape::DuplicateAtBoundary => "duplicate-at-boundary",
            ArrayShape::NearMax => "near-max",
            ArrayShape::OutOfDomain => "out-of-domain",
            ArrayShape::RandomUniform => "random-uniform",
            ArrayShape::StridedRamp => "strided-ramp",
            ArrayShape::BlockPeriodic => "block-periodic",
            ArrayShape::BlockAlmostMonotone => "block-almost-monotone",
        };
        write!(f, "{s}")
    }
}

impl ArrayShape {
    /// Inverse of the `Display` form; used by the corpus loader.
    pub fn parse(s: &str) -> Option<ArrayShape> {
        ALL_SHAPES.iter().copied().find(|sh| sh.to_string() == s)
    }
}

/// One generated index array plus the domain it claims to index into.
#[derive(Debug, Clone)]
pub struct GeneratedArray {
    /// The shape that produced it.
    pub shape: ArrayShape,
    /// The subscript values.
    pub data: Vec<usize>,
    /// Exclusive domain bound ingestion must validate against.
    pub domain: usize,
    /// Whether ingestion is expected to reject this array.
    pub expect_reject: bool,
}

/// Generates one index array of the given shape.
pub fn gen_array(rng: &mut Rng64, shape: ArrayShape) -> GeneratedArray {
    // Rng64 ranges are inclusive `[lo, hi]`.
    let small_len = rng.gen_usize(2, 64);
    // Long enough to span several summary blocks.
    let long_len = 2 * BLOCK_LEN + rng.gen_usize(0, 2 * BLOCK_LEN);
    let (data, domain, expect_reject) = match shape {
        ArrayShape::Empty => (Vec::new(), rng.gen_usize(0, 100), false),
        ArrayShape::Single => {
            let domain = rng.gen_usize(1, 1000);
            (vec![rng.gen_usize(0, domain - 1)], domain, false)
        }
        ArrayShape::Plateau => {
            let domain = rng.gen_usize(1, 1000);
            let v = rng.gen_usize(0, domain - 1);
            (vec![v; small_len], domain, false)
        }
        ArrayShape::StrictRamp => {
            let len = if rng.gen_usize(0, 3) == 0 {
                long_len
            } else {
                small_len
            };
            let step = rng.gen_usize(1, 4);
            let data: Vec<usize> = (0..len).map(|i| i * step).collect();
            let domain = data.last().map_or(1, |&l| l + 1);
            (data, domain, false)
        }
        ArrayShape::Sawtooth => {
            let tooth = rng.gen_usize(2, 9);
            // At least one wrap so the array is genuinely non-monotone.
            let len = small_len.max(tooth + 1);
            let data: Vec<usize> = (0..len).map(|i| i % tooth).collect();
            (data, tooth, false)
        }
        ArrayShape::AlmostMonotone => {
            // Base values start above zero so the planted dip is a real
            // non-strict violation even at index 1.
            let mut data: Vec<usize> = (0..small_len).map(|i| (i + 1) * 2).collect();
            let at = rng.gen_usize(1, data.len() - 1);
            data[at] = data[at - 1] - rng.gen_usize(1, 2);
            let domain = 2 * small_len + 1;
            (data, domain, false)
        }
        ArrayShape::DuplicateAtBoundary => {
            let mut data: Vec<usize> = (0..long_len).map(|i| i * 2).collect();
            // The parallel scan cuts into threads*4 chunks; plant the
            // defect on a join pair for a plausible thread count so
            // neither interior scan sees it.
            let chunks = rng.gen_usize(2, 5) * 4;
            let join = (long_len.div_ceil(chunks)) * rng.gen_usize(1, chunks - 1);
            let at = join.clamp(1, long_len - 1);
            data[at] = data[at - 1];
            let domain = 2 * long_len;
            (data, domain, false)
        }
        ArrayShape::NearMax => {
            let data: Vec<usize> = (0..small_len)
                .map(|i| usize::MAX - (small_len - i) + 1 - rng.gen_usize(0, 2))
                .collect();
            // Claims a modest domain: every entry is far outside it.
            (data, rng.gen_usize(1, 1000), true)
        }
        ArrayShape::OutOfDomain => {
            let domain = small_len;
            let mut data: Vec<usize> = (0..small_len).collect();
            let at = rng.gen_usize(0, data.len() - 1);
            data[at] = domain + rng.gen_usize(0, 100);
            (data, domain, true)
        }
        ArrayShape::RandomUniform => {
            let domain = rng.gen_usize(1, 500);
            let data: Vec<usize> = (0..small_len)
                .map(|_| rng.gen_usize(0, domain - 1))
                .collect();
            (data, domain, false)
        }
        ArrayShape::StridedRamp => {
            let gap = rng.gen_usize(2, 7);
            let data: Vec<usize> = (0..small_len).map(|i| i * gap).collect();
            let domain = data.last().map_or(1, |&l| l + 1);
            (data, domain, false)
        }
        ArrayShape::BlockPeriodic => {
            let p = rng.gen_usize(4, 32);
            let blocks = rng.gen_usize(2, 5);
            let data: Vec<usize> = (0..p * blocks).map(|i| i % p).collect();
            (data, p, false)
        }
        ArrayShape::BlockAlmostMonotone => {
            let p = rng.gen_usize(4, 32);
            let blocks = rng.gen_usize(2, 5);
            let mut data: Vec<usize> = (0..p * blocks).map(|i| i % p).collect();
            // Duplicate a within-block pair (never the block's first
            // element, so the defect cannot alias a block join).
            let block = rng.gen_usize(0, blocks - 1);
            let at = block * p + rng.gen_usize(1, p - 1);
            data[at] = data[at - 1];
            (data, p, false)
        }
    };
    GeneratedArray {
        shape,
        data,
        domain,
        expect_reject,
    }
}

/// One step of a mutate-then-reinspect plan: write `value` at index
/// `at` through the validated boundary (`mutate_range`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationStep {
    /// Index written.
    pub at: usize,
    /// Value written (may be out of domain — then the write must be
    /// rejected and rolled back).
    pub value: usize,
}

/// Generates a mutate-then-reinspect plan for an array ingestion will
/// accept. Targets are biased toward the indices incremental block
/// summaries get wrong first — index 0, the last index, and 4 Ki block
/// joins — and roughly one write in six is out of domain, so the
/// reject-and-rollback path is exercised alongside the happy path.
/// Empty for arrays ingestion rejects (there is no boundary to mutate
/// through).
pub fn gen_mutation_plan(rng: &mut Rng64, g: &GeneratedArray) -> Vec<MutationStep> {
    if g.expect_reject || g.data.is_empty() {
        return Vec::new();
    }
    let n = g.data.len();
    let steps = rng.gen_usize(1, 6);
    let mut plan = Vec::with_capacity(steps);
    for _ in 0..steps {
        let at = match rng.gen_usize(0, 5) {
            0 => 0,
            1 => n - 1,
            2 if n > 4096 => (rng.gen_usize(1, n / 4096) * 4096).min(n - 1),
            _ => rng.gen_usize(0, n - 1),
        };
        let value = if rng.gen_usize(0, 5) == 0 {
            g.domain + rng.gen_usize(0, 100)
        } else {
            // Accepted non-empty arrays always have domain >= 1.
            rng.gen_usize(0, g.domain - 1)
        };
        plan.push(MutationStep { at, value });
    }
    plan
}

/// Ground truth the inspector is checked against: the O(n) definitional
/// scan of both monotonicity flavours, written independently of
/// `inspect_serial` (windows + iterator combinators, no early exit).
pub fn brute_force_monotone(data: &[usize]) -> (bool, bool) {
    let nonstrict = data.windows(2).all(|w| w[0] <= w[1]);
    let strict = data.windows(2).all(|w| w[0] < w[1]);
    (nonstrict, strict)
}

/// Definitional block-monotone scan, written independently of
/// `inspect_block_monotone`: every aligned block of `b` elements must be
/// monotone on its own; pairs straddling block boundaries are exempt.
/// `b == 0` degenerates to whole-array monotonicity.
pub fn brute_force_block_monotone(data: &[usize], b: usize) -> (bool, bool) {
    if b == 0 {
        return brute_force_monotone(data);
    }
    let nonstrict = data.chunks(b).all(|c| c.windows(2).all(|w| w[0] <= w[1]));
    let strict = data.chunks(b).all(|c| c.windows(2).all(|w| w[0] < w[1]));
    (nonstrict, strict)
}

/// Generates an inner index array for the composed (two-level) leg:
/// entries index into an outer array of `outer_len` elements, sampled
/// from monotone ramps, plateaus, and uniform noise so the composed
/// verdict sees both provable and refutable chains.
pub fn gen_inner_index(rng: &mut Rng64, outer_len: usize) -> Vec<usize> {
    if outer_len == 0 {
        return Vec::new();
    }
    let len = rng.gen_usize(1, (2 * outer_len).min(48));
    match rng.gen_usize(0, 2) {
        0 => {
            // Nondecreasing (sometimes strict) walk clamped into domain.
            let mut v = 0usize;
            (0..len)
                .map(|_| {
                    let cur = v.min(outer_len - 1);
                    v += rng.gen_usize(0, 2);
                    cur
                })
                .collect()
        }
        1 => vec![rng.gen_usize(0, outer_len - 1); len],
        _ => (0..len).map(|_| rng.gen_usize(0, outer_len - 1)).collect(),
    }
}

/// The scalar symbols generated predicates draw from.
const SYM_NAMES: [&str; 4] = ["a", "b", "c", "d"];

/// Adversarial binding values: zero, units, the `i64` edges (where
/// wrapping evaluation flips comparisons), and √MAX-adjacent values whose
/// products overflow.
fn adversarial_value(rng: &mut Rng64) -> i64 {
    match rng.gen_usize(0, 9) {
        0 => 0,
        1 => 1,
        2 => -1,
        3 => i64::MAX,
        4 => i64::MIN + 1,
        5 => i64::MAX - rng.gen_i64(0, 3),
        6 => 3_037_000_500 + rng.gen_i64(-2, 3), // ~ √(i64::MAX)
        7 => -3_037_000_500 + rng.gen_i64(-2, 3),
        8 => rng.gen_i64(-1_000_000, 1_000_000),
        _ => rng.gen_i64(-100, 100),
    }
}

/// Generates a random scalar runtime check: a conjunction of 1–3
/// comparisons over small polynomial sides. Coefficients stay small so
/// *construction* (the symbolic algebra canonicalizing `lhs - rhs`)
/// cannot overflow — the adversarial pressure comes from the bindings.
pub fn gen_check(rng: &mut Rng64) -> CheckExpr {
    let n_conj = rng.gen_usize(1, 3);
    let mut conj = Vec::with_capacity(n_conj);
    for _ in 0..n_conj {
        let lhs = gen_side(rng);
        let rhs = gen_side(rng);
        let op = ["<=", "<", ">=", ">", "==", "!="][rng.gen_usize(0, 5)];
        conj.push(format!("{lhs} {op} {rhs}"));
    }
    let text = conj.join(" && ");
    parse_check(&text).unwrap_or_else(|e| panic!("generated check {text:?} must parse: {e}"))
}

fn gen_side(rng: &mut Rng64) -> String {
    let terms = rng.gen_usize(1, 3);
    let last = SYM_NAMES.len() - 1;
    let mut side = String::new();
    for t in 0..terms {
        let coeff = rng.gen_i64(-8, 8);
        let part = match rng.gen_usize(0, 2) {
            0 => format!("{coeff}"),
            1 => format!("{coeff}*{}", SYM_NAMES[rng.gen_usize(0, last)]),
            _ => format!(
                "{coeff}*{}*{}",
                SYM_NAMES[rng.gen_usize(0, last)],
                SYM_NAMES[rng.gen_usize(0, last)]
            ),
        };
        if t == 0 {
            side = part;
        } else {
            side = format!("{side} + {part}");
        }
    }
    side
}

/// Generates bindings for a check's free symbols from the adversarial
/// value pool. With probability ~1/8 one symbol is left unbound, so the
/// unbound-symbol paths of both evaluators are exercised too.
pub fn gen_bindings(rng: &mut Rng64, check: &CheckExpr) -> Bindings {
    let syms: Vec<Symbol> = check.free_syms();
    let skip = if !syms.is_empty() && rng.gen_usize(0, 7) == 0 {
        Some(rng.gen_usize(0, syms.len() - 1))
    } else {
        None
    };
    let mut b = Bindings::new();
    for (i, s) in syms.iter().enumerate() {
        if Some(i) == skip {
            continue;
        }
        b.set(s.clone(), adversarial_value(rng));
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_have_advertised_properties() {
        let mut rng = Rng64::seed_from_u64(42);
        for _ in 0..50 {
            for shape in ALL_SHAPES {
                let g = gen_array(&mut rng, shape);
                let (nonstrict, strict) = brute_force_monotone(&g.data);
                match shape {
                    ArrayShape::Empty => assert!(g.data.is_empty() && strict),
                    ArrayShape::Single => assert!(g.data.len() == 1 && strict),
                    ArrayShape::Plateau => assert!(nonstrict && !strict),
                    ArrayShape::StrictRamp => assert!(strict),
                    ArrayShape::AlmostMonotone => assert!(!nonstrict),
                    ArrayShape::DuplicateAtBoundary => {
                        assert!(g.data.len() >= 2 * BLOCK_LEN);
                        assert!(nonstrict && !strict);
                    }
                    ArrayShape::StridedRamp => {
                        assert!(strict);
                        assert!(g.data.windows(2).all(|w| w[1] - w[0] >= 2));
                    }
                    ArrayShape::BlockPeriodic | ArrayShape::BlockAlmostMonotone => {
                        // The ramp restarts at least once: globally
                        // non-monotone. Block-strictness for the period
                        // is diffed by the oracle's block-inspector leg.
                        assert!(!nonstrict);
                    }
                    _ => {}
                }
                if g.expect_reject {
                    assert!(
                        g.data.iter().any(|&v| v >= g.domain),
                        "{shape}: reject expectation needs an OOB entry"
                    );
                } else {
                    assert!(g.data.iter().all(|&v| v < g.domain), "{shape}");
                }
            }
        }
    }

    #[test]
    fn generated_checks_parse_and_bind() {
        let mut rng = Rng64::seed_from_u64(7);
        for _ in 0..200 {
            let c = gen_check(&mut rng);
            let b = gen_bindings(&mut rng, &c);
            // Not all symbols need be bound, but the environment never
            // binds symbols the check does not mention.
            assert!(b.len() <= c.free_syms().len());
        }
    }

    #[test]
    fn mutation_plans_target_valid_indices_only() {
        let mut rng = Rng64::seed_from_u64(99);
        for _ in 0..50 {
            for shape in ALL_SHAPES {
                let g = gen_array(&mut rng, shape);
                let plan = gen_mutation_plan(&mut rng, &g);
                if g.expect_reject || g.data.is_empty() {
                    assert!(plan.is_empty(), "{shape}: no plan for unmutable arrays");
                    continue;
                }
                assert!(!plan.is_empty());
                for step in &plan {
                    assert!(step.at < g.data.len(), "{shape}: index in bounds");
                }
            }
        }
    }

    #[test]
    fn brute_force_agrees_with_definitions() {
        assert_eq!(brute_force_monotone(&[]), (true, true));
        assert_eq!(brute_force_monotone(&[5]), (true, true));
        assert_eq!(brute_force_monotone(&[1, 2, 3]), (true, true));
        assert_eq!(brute_force_monotone(&[1, 1, 3]), (true, false));
        assert_eq!(brute_force_monotone(&[2, 1]), (false, false));
    }
}
