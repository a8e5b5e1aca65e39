//! Common kernel abstractions shared by the benchmark harnesses.

use subsub_omprt::{Schedule, ThreadPool};
use subsub_rtcheck::{Bindings, IndexArrayView};

/// Which implementation strategy a parallelizer's decision selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// No parallel loop found: run the serial implementation.
    Serial,
    /// Parallelism only at inner-loop level (classical decision on the
    /// subscripted-subscript benchmarks): fork a team per outer iteration.
    InnerParallel,
    /// The outermost loop is parallel (the paper's analysis, or classical
    /// analysis on regular benchmarks).
    OuterParallel,
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variant::Serial => write!(f, "serial"),
            Variant::InnerParallel => write!(f, "inner-parallel"),
            Variant::OuterParallel => write!(f, "outer-parallel"),
        }
    }
}

/// The inner-parallel work structure of one outer iteration: a serial
/// prologue cost plus the per-iteration costs of the inner parallel loop.
#[derive(Debug, Clone)]
pub struct InnerGroup {
    /// Work outside the inner parallel loop (always serial).
    pub serial: f64,
    /// Per-iteration costs of the inner loop.
    pub inner: Vec<f64>,
}

/// A benchmark: metadata plus an instance factory.
pub trait Kernel: Sync {
    /// Benchmark name as in the paper's Table 1.
    fn name(&self) -> &'static str;

    /// The inline-expanded C-subset source the analysis pipeline consumes.
    fn source(&self) -> &'static str;

    /// The function within [`Kernel::source`] to analyze.
    fn func_name(&self) -> &'static str;

    /// Available dataset names (first is the Experiment-2 default).
    fn datasets(&self) -> Vec<&'static str>;

    /// Builds a concrete problem instance for a dataset. Panics on an
    /// unknown dataset name.
    fn prepare(&self, dataset: &str) -> Box<dyn KernelInstance>;
}

/// One materialized problem instance.
pub trait KernelInstance: Send {
    /// Runs the serial reference implementation.
    fn run_serial(&mut self);

    /// Runs the outer-parallel implementation. Implementations without
    /// outer parallelism fall back to serial.
    fn run_outer(&mut self, pool: &ThreadPool, sched: Schedule);

    /// Runs the inner-parallel implementation. Implementations without an
    /// inner strategy fall back to serial.
    fn run_inner(&mut self, pool: &ThreadPool, sched: Schedule);

    /// Work model for the outer-parallel strategy: one abstract cost per
    /// outer-loop iteration (units are calibrated by the harness against a
    /// serial run).
    fn outer_costs(&self) -> Vec<f64>;

    /// Work model for the inner-parallel strategy.
    fn inner_groups(&self) -> Vec<InnerGroup>;

    /// Fraction of the kernel's work bound by shared memory bandwidth
    /// (feeds the simulator's roofline; 0.0 = compute-bound). Defaults to
    /// a middle-of-the-road 0.5.
    fn mem_bound_fraction(&self) -> f64 {
        0.5
    }

    /// Scalar values for the symbols of the kernel's runtime check
    /// (loop bounds, post-loop counter values). Kernels whose decision
    /// carries no check return an empty environment.
    fn runtime_bindings(&self) -> Bindings {
        Bindings::new()
    }

    /// The runtime index arrays whose monotonicity the outer-parallel
    /// variant relies on, for inspection by a guarded executor. Empty for
    /// kernels without subscripted subscripts.
    fn index_arrays(&self) -> Vec<IndexArrayView<'_>> {
        Vec::new()
    }

    /// Corrupts one index array in a way that breaks its required
    /// monotonicity through the trust boundary, bumping its version.
    /// Returns `false` when the kernel has nothing to tamper with. The
    /// serial variant must stay deterministic on the tampered instance.
    fn tamper_index_arrays(&mut self) -> bool {
        false
    }

    /// A value derived from the output, for cross-variant validation.
    fn checksum(&self) -> f64;

    /// Restores the instance to its initial state so another variant can
    /// run on identical input.
    fn reset(&mut self);

    /// Runs the chosen variant.
    fn run(&mut self, variant: Variant, pool: &ThreadPool, sched: Schedule) {
        let label = match variant {
            Variant::Serial => "serial",
            Variant::InnerParallel => "inner-parallel",
            Variant::OuterParallel => "outer-parallel",
        };
        let _run_span = subsub_telemetry::span_labeled(subsub_telemetry::Phase::KernelRun, label);
        match variant {
            Variant::Serial => self.run_serial(),
            Variant::InnerParallel => self.run_inner(pool, sched),
            Variant::OuterParallel => self.run_outer(pool, sched),
        }
    }
}

/// Total work of the serial execution under the cost model.
pub fn serial_cost(groups: &[InnerGroup]) -> f64 {
    groups
        .iter()
        .map(|g| g.serial + g.inner.iter().sum::<f64>())
        .sum()
}

/// Relative checksum agreement for cross-variant validation (parallel
/// reductions reorder floating-point sums).
pub fn close(a: f64, b: f64) -> bool {
    let denom = a.abs().max(b.abs()).max(1e-12);
    ((a - b) / denom).abs() < 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_cost_sums_groups() {
        let gs = vec![
            InnerGroup {
                serial: 1.0,
                inner: vec![2.0, 3.0],
            },
            InnerGroup {
                serial: 0.5,
                inner: vec![],
            },
        ];
        assert!((serial_cost(&gs) - 6.5).abs() < 1e-12);
    }

    #[test]
    fn close_tolerates_reordering_noise() {
        assert!(close(1.0, 1.0 + 1e-9));
        assert!(!close(1.0, 1.1));
        assert!(close(0.0, 0.0));
    }
}
