//! Executable runtime checks and index-array inspection — the execution
//! side of the paper's "runtime verification" story.
//!
//! The compile-time analysis (subsub-core) sometimes parallelizes a loop
//! *conditionally*: the emitted pragma carries a check such as
//! `-1 + num_rownnz <= irownnz_max` comparing a loop bound against a
//! post-loop value that only exists at runtime. This crate makes those
//! checks executable instead of purely textual:
//!
//! * [`CheckExpr`] — a structured IR for runtime checks (comparisons over
//!   symbolic scalar expressions, conjunctions), with canonicalization so
//!   algebraically equal checks compare equal, a pretty-printer matching
//!   the paper's pragma syntax, and a parser for round-tripping.
//! * [`CompiledCheck`] — a compiled predicate: symbols are resolved to
//!   slots once, each comparison is flattened into difference form, and
//!   evaluation against a [`Bindings`] environment is allocation-free.
//! * [`ValidatedIndexArray`] — the ingestion trust boundary: the one
//!   sanctioned path from raw subscript data into the guard and
//!   dispatch, validating every entry against the target array's domain
//!   and tracking mutations (version + checksum + per-block summaries)
//!   so out-of-band writers are caught before the `unsafe`
//!   gather/scatter ever sees them. Its block summaries give the
//!   whole-array monotonicity verdict in O(n / [`BLOCK_LEN`]).
//! * [`GuardedExecutor`] — the one decision path from index arrays to a
//!   guard verdict: breaker, scalar check, then per array verify →
//!   verdict (from a [`VerdictSource`]) → requirement; it runs the
//!   parallel variant when every rung passes and degrades gracefully to
//!   the serial variant otherwise, counting each outcome.
//! * [`ExecError`] + [`CircuitBreaker`] — the degradation policy: every
//!   fallback is a classified error, transient machinery faults get one
//!   bounded retry, and a kernel whose parallel path keeps faulting is
//!   pinned to serial for a cooldown before a half-open re-trial.
//! * [`inspect`] — the O(n) reference scans ([`inspect_serial`],
//!   [`inspect_block_monotone`]) the block summaries are checked
//!   against.

pub mod bindings;
pub mod block;
pub mod breaker;
pub mod cache;
pub mod compile;
pub mod error;
pub mod expr;
pub mod guard;
pub mod inspect;
pub mod validate;

pub use bindings::Bindings;
pub use block::{BlockSummaries, BlockSummary, BLOCK_LEN, FINGERPRINT_VERSION};
pub use breaker::{BreakerState, CircuitBreaker};
pub use cache::VerdictCache;
pub use compile::{CompileError, CompiledCheck, EvalError};
pub use error::ExecError;
pub use expr::{parse_check, CheckExpr, CmpOp, ParseError};
pub use guard::{
    Decision, GuardPath, GuardStats, GuardVerdict, GuardedExecutor, Inspected, Lookup,
    SummarySource, VerdictOrigin, VerdictSource,
};
pub use inspect::{
    inspect_block_monotone, inspect_serial, scan_pairs, MonotoneReq, MonotoneVerdict, PairScan,
};
pub use validate::{
    composed_verdict, ComposedVerdict, IndexArrayView, Provenance, ValidatedIndexArray,
    ValidationError,
};
