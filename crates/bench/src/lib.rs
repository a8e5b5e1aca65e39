//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (Section 4).
//!
//! Methodology. For each benchmark and algorithm level the pipeline is:
//!
//! 1. run the real compile-time analysis on the kernel's C source and map
//!    the decision to an execution [`Variant`] (serial / inner-parallel /
//!    outer-parallel);
//! 2. execute the selected variant through the `omprt` runtime on the
//!    available cores and validate checksums against the serial run;
//! 3. time the serial run to *calibrate* the abstract work model, measure
//!    the real fork-join overhead of the thread pool, and replay the
//!    schedule in the deterministic `omprt::sim` cost model for the
//!    paper's 4-, 8- and 16-core series (the CI container has one core, so
//!    multi-core numbers are simulated; see DESIGN.md).

pub mod calibration;
pub mod chaos;
pub mod chaos_serve;
pub mod cli;
pub mod conform;
pub mod decide;
pub mod guarded;
pub mod harness;
pub mod microbench;
pub mod perfgate;
pub mod reinspect;
pub mod serve;
pub mod table;
pub mod trace;

pub use calibration::{validate_calibration_doc, CalibrationSummary};
pub use chaos::{chaos_sweep, ChaosReport, CHAOS_SITES, DEFAULT_SEEDS};
pub use chaos_serve::{
    chaos_serve_storm, ChaosServeConfig, ChaosServeReport, CHAOS_SERVE_SEEDS, CHAOS_SERVE_SITES,
};
pub use conform::{
    check_source, kernel_cases, load_corpus_dir, run_conformance, ConformCase, ConformFailure,
    ConformReport,
};
pub use decide::{decision_report, variant_for};
pub use guarded::{guarded_run, GuardedHarness, GuardedOutcome};
pub use harness::{calibrate, run_config, Config, Outcome};
pub use microbench::bench;
pub use perfgate::{GateRow, GateStatus};
pub use reinspect::{run_reinspect_workload, ReinspectReport, MIN_SPEEDUP};
pub use serve::{
    run_serve_workload, snapshot_roundtrip_drill, ServeConfig, ServeReport, SERVE_MIX,
};
pub use table::Table;
pub use trace::{capture_trace, validate_trace_file, TraceArtifacts};
