//! Kernel execution behind the service front door.
//!
//! A [`KernelRegistry`] lazily builds one [`KernelEntry`] per
//! (kernel, dataset) pair: the compile-time analysis runs once, the
//! plan's scalar check is compiled once, and prepared problem instances
//! are pooled so the hot path of a repeated request skips both
//! `prepare()` and analysis entirely — all that remains is the guard
//! ladder, [`GuardedExecutor::decide_recoverable`] over the instance's
//! own validated index arrays, with verdicts served by the service's
//! sharded, content-addressed verdict cache ([`ShardSource`]).
//!
//! The executor's dispatch-time tamper gate re-reads the live
//! write-versions, so a writer racing between decision and dispatch
//! forces the serial golden path rather than a stale parallel
//! admission.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use subsub_core::{analyze_program, AlgorithmLevel, CheckExpr};
use subsub_failpoint as failpoint;
use subsub_kernels::{kernel_by_name, KernelInstance, Variant};
use subsub_omprt::{cancel::with_ambient_cancel, CancelToken, RegionError, Schedule, ThreadPool};
use subsub_rtcheck::{ExecError, GuardPath, GuardStats, GuardedExecutor, VerdictOrigin};

use crate::request::{Outcome, ServiceError};
use crate::shard::{Lookup, ShardSource};

/// How many reset instances an entry keeps pooled. More than the worker
/// count is never useful; beyond this, checked-in instances are dropped.
const INSTANCE_POOL_CAP: usize = 8;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One (kernel, dataset) pair: analysis decision, compiled check,
/// guarded executor, and an instance pool.
pub struct KernelEntry {
    kernel_name: String,
    dataset: String,
    variant: Variant,
    executor: GuardedExecutor,
    pool_of_instances: Mutex<Vec<Box<dyn KernelInstance>>>,
    golden: Mutex<Option<f64>>,
}

/// What one guarded service execution produced, before it is folded
/// into a [`crate::Response`].
pub struct ExecReport {
    /// The outcome (always [`Outcome::Executed`]).
    pub outcome: Outcome,
    /// The verdict-cache lookup classification, when a verdict was read
    /// (the costliest across the kernel's index arrays).
    pub cache: Option<Lookup>,
}

impl KernelEntry {
    /// Runs the compile-time pipeline for `kernel_name` and binds the
    /// decision for `dataset`; the guard reads verdicts through `source`.
    pub fn new(
        kernel_name: &str,
        dataset: &str,
        level: AlgorithmLevel,
        source: ShardSource,
    ) -> Result<KernelEntry, ServiceError> {
        let kernel = kernel_by_name(kernel_name).ok_or_else(|| ServiceError::UnknownKernel {
            name: kernel_name.to_string(),
        })?;
        // Dataset names are validated by `prepare` (which panics on an
        // unknown one — kernels also accept a small "test" dataset not
        // listed in `datasets()`). Probe it once here, eagerly, so a bad
        // name surfaces as a structured error and a good one pre-warms
        // the instance pool.
        let probe = catch_unwind(AssertUnwindSafe(|| kernel.prepare(dataset))).map_err(|_| {
            ServiceError::UnknownKernel {
                name: format!("{kernel_name}:{dataset}"),
            }
        })?;
        let report =
            analyze_program(kernel.source(), level).map_err(|e| ServiceError::Rejected {
                code: e.code().to_string(),
                detail: e.to_string(),
            })?;
        let func = report
            .function(kernel.func_name())
            .ok_or_else(|| ServiceError::Rejected {
                code: "missing-function".to_string(),
                detail: format!("{kernel_name}: function {} missing", kernel.func_name()),
            })?;
        let (variant, check): (Variant, Option<CheckExpr>) = match func.last_nest_parallel() {
            None => (Variant::Serial, None),
            Some(l) => (
                if l.depth == 0 {
                    Variant::OuterParallel
                } else {
                    Variant::InnerParallel
                },
                l.decision.plan().and_then(|p| p.runtime_check.clone()),
            ),
        };
        let executor =
            GuardedExecutor::with_source(check.as_ref(), Box::new(source)).map_err(|e| {
                ServiceError::Rejected {
                    code: "check-not-executable".to_string(),
                    detail: format!("{kernel_name}: check not executable: {e}"),
                }
            })?;
        Ok(KernelEntry {
            kernel_name: kernel_name.to_string(),
            dataset: dataset.to_string(),
            variant,
            executor,
            pool_of_instances: Mutex::new(vec![probe]),
            golden: Mutex::new(None),
        })
    }

    /// The compile-time variant decision.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Guard decision counters for this entry.
    pub fn guard_stats(&self) -> GuardStats {
        self.executor.stats()
    }

    fn checkout(&self) -> Box<dyn KernelInstance> {
        if let Some(inst) = lock(&self.pool_of_instances).pop() {
            return inst;
        }
        let kernel = kernel_by_name(&self.kernel_name).expect("entry validated at construction");
        kernel.prepare(&self.dataset)
    }

    fn restore(&self, mut inst: Box<dyn KernelInstance>) {
        inst.reset();
        let mut pool = lock(&self.pool_of_instances);
        if pool.len() < INSTANCE_POOL_CAP {
            pool.push(inst);
        }
    }

    /// The serial reference checksum for divergence checking, computed
    /// once per entry.
    pub fn golden_checksum(&self) -> f64 {
        if let Some(g) = *lock(&self.golden) {
            return g;
        }
        let mut inst = self.checkout();
        inst.run_serial();
        let g = inst.checksum();
        self.restore(inst);
        *lock(&self.golden) = Some(g);
        g
    }

    /// One guarded execution through the service's sharded verdict
    /// cache. `serialized` forces the serial path (degraded-mode
    /// admission); `cancel` (the per-job token) is installed as the
    /// ambient token around every kernel region and checked at each rung
    /// boundary — a tripped token abandons the invocation with
    /// [`ServiceError::Canceled`], discarding partial work.
    pub fn execute(
        &self,
        pool: &ThreadPool,
        serialized: bool,
        cancel: Option<&Arc<CancelToken>>,
    ) -> Result<ExecReport, ServiceError> {
        let mut inst = self.checkout();
        let report = self.execute_prepared(inst.as_mut(), pool, serialized, cancel);
        self.restore(inst);
        report
    }

    fn execute_prepared(
        &self,
        inst: &mut dyn KernelInstance,
        pool: &ThreadPool,
        serialized: bool,
        cancel: Option<&Arc<CancelToken>>,
    ) -> Result<ExecReport, ServiceError> {
        let _kernel_span =
            subsub_telemetry::span_labeled(subsub_telemetry::Phase::KernelRun, &self.kernel_name);
        let cancelled = || cancel.is_some_and(|c| c.is_cancelled());
        if cancelled() {
            return Err(ServiceError::Canceled);
        }
        if self.variant == Variant::Serial || serialized {
            inst.run_serial();
            if cancelled() {
                return Err(ServiceError::Canceled);
            }
            return Ok(ExecReport {
                outcome: Outcome::Executed {
                    path: GuardPath::Serial,
                    checksum: inst.checksum(),
                    degraded: (self.variant == Variant::Serial)
                        .then_some(ExecError::AnalysisSerial),
                },
                cache: None,
            });
        }
        let bindings = inst.runtime_bindings();
        let decision = self.executor.decide_recoverable(
            &self.kernel_name,
            &bindings,
            &inst.index_arrays(),
            Some(pool),
        );
        let cache_lookup = decision
            .inspected
            .iter()
            .filter_map(|seen| match seen.origin {
                VerdictOrigin::Cache(lookup) => Some(lookup),
                VerdictOrigin::Summary => None,
            })
            .reduce(combine);
        // Dispatch-time tamper gate: re-read the live versions.
        let versions_owned: Vec<(String, u64)> = inst
            .index_arrays()
            .iter()
            .map(|v| (v.name.to_string(), v.version()))
            .collect();
        let versions: Vec<(&str, u64)> = versions_owned
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        let variant = self.variant;
        let cell = RefCell::new(inst);
        let (checksum, reason) = match self.executor.execute_admitted_cancellable(
            &self.kernel_name,
            &decision,
            &versions,
            cancel.map(Arc::as_ref),
            || {
                let mut inst = cell.borrow_mut();
                let mut run = || {
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        failpoint::hit("service.kernel.parallel");
                        inst.run(variant, pool, Schedule::Static { chunk: None });
                    }));
                    match r {
                        Ok(()) => Ok(inst.checksum()),
                        Err(panic) => Err(classify_panic(panic.as_ref())),
                    }
                };
                // The ambient scope makes the per-job token visible to
                // every region the kernel opens on the shared pool, so
                // a janitor-tripped deadline stops the run between
                // chunk claims instead of after the kernel finishes.
                match cancel {
                    Some(token) => with_ambient_cancel(token, run),
                    None => run(),
                }
            },
            || {
                cell.borrow_mut().reset();
            },
            || {
                let mut inst = cell.borrow_mut();
                inst.run_serial();
                inst.checksum()
            },
        ) {
            Ok(out) => out,
            Err(_) => return Err(ServiceError::Canceled),
        };
        let path = if reason.is_none() {
            GuardPath::Parallel
        } else {
            GuardPath::Serial
        };
        Ok(ExecReport {
            outcome: Outcome::Executed {
                path,
                checksum,
                degraded: reason,
            },
            cache: cache_lookup,
        })
    }
}

/// Misses dominate (a verdict was computed); then coalesced waits; warm
/// and live hits are cheapest.
fn combine(a: Lookup, b: Lookup) -> Lookup {
    fn rank(l: Lookup) -> u8 {
        match l {
            Lookup::Miss => 3,
            Lookup::Coalesced => 2,
            Lookup::WarmHit => 1,
            Lookup::Hit => 0,
        }
    }
    if rank(b) > rank(a) {
        b
    } else {
        a
    }
}

/// Maps a caught panic payload from a parallel kernel run onto the
/// [`ExecError`] taxonomy.
fn classify_panic(p: &(dyn std::any::Any + Send)) -> ExecError {
    if let Some(e) = p.downcast_ref::<RegionError>() {
        return match e {
            RegionError::DeadlineExceeded => ExecError::Timeout,
            other => ExecError::ParallelFault {
                detail: other.to_string(),
            },
        };
    }
    if let Some(inj) = p.downcast_ref::<failpoint::InjectedPanic>() {
        return ExecError::ParallelFault {
            detail: inj.to_string(),
        };
    }
    if let Some(s) = p.downcast_ref::<&str>() {
        return ExecError::ParallelFault {
            detail: (*s).to_string(),
        };
    }
    if let Some(s) = p.downcast_ref::<String>() {
        return ExecError::ParallelFault { detail: s.clone() };
    }
    ExecError::ParallelFault {
        detail: "non-string panic payload".into(),
    }
}

/// Lazily-built map of (kernel, dataset) → [`KernelEntry`], shared by
/// every worker.
pub struct KernelRegistry {
    level: AlgorithmLevel,
    source: ShardSource,
    entries: Mutex<HashMap<(String, String), Arc<KernelEntry>>>,
}

impl KernelRegistry {
    /// An empty registry analyzing at `level`, whose entries read
    /// verdicts through `source`.
    pub fn new(level: AlgorithmLevel, source: ShardSource) -> KernelRegistry {
        KernelRegistry {
            level,
            source,
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// The entry for a (kernel, dataset) pair, building it on first use.
    pub fn entry(&self, kernel: &str, dataset: &str) -> Result<Arc<KernelEntry>, ServiceError> {
        let key = (kernel.to_string(), dataset.to_string());
        if let Some(e) = lock(&self.entries).get(&key) {
            return Ok(Arc::clone(e));
        }
        // Built outside the lock: analysis takes milliseconds and other
        // requests should not stall behind it. A racing builder is
        // harmless — last writer wins, both entries are equivalent.
        let built = Arc::new(KernelEntry::new(
            kernel,
            dataset,
            self.level,
            self.source.clone(),
        )?);
        let mut entries = lock(&self.entries);
        Ok(Arc::clone(entries.entry(key).or_insert(built)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedVerdictCache;

    fn source(shards: usize, cap: usize) -> ShardSource {
        ShardSource {
            cache: Arc::new(ShardedVerdictCache::new(shards, cap)),
            paranoid: true,
        }
    }

    fn amgmk(source: ShardSource) -> KernelEntry {
        KernelEntry::new("AMGmk", "test", AlgorithmLevel::New, source).unwrap()
    }

    #[test]
    fn unknown_kernel_and_dataset_are_rejected() {
        assert!(matches!(
            KernelEntry::new("NoSuchKernel", "test", AlgorithmLevel::New, source(1, 1)),
            Err(ServiceError::UnknownKernel { .. })
        ));
        assert!(matches!(
            KernelEntry::new(
                "AMGmk",
                "no-such-dataset",
                AlgorithmLevel::New,
                source(1, 1)
            ),
            Err(ServiceError::UnknownKernel { .. })
        ));
    }

    #[test]
    fn repeated_execution_hits_the_shard_cache() {
        let pool = ThreadPool::new(2);
        let entry = amgmk(source(4, 64));
        assert_eq!(entry.variant(), Variant::OuterParallel);
        let first = entry.execute(&pool, false, None).unwrap();
        assert_eq!(first.cache, Some(Lookup::Miss));
        let second = entry.execute(&pool, false, None).unwrap();
        assert_eq!(second.cache, Some(Lookup::Hit));
        let (Outcome::Executed { checksum: a, .. }, Outcome::Executed { checksum: b, .. }) =
            (&first.outcome, &second.outcome)
        else {
            panic!("expected executed outcomes");
        };
        assert!(subsub_kernels::common::close(*a, *b));
        assert!(subsub_kernels::common::close(*a, entry.golden_checksum()));
    }

    #[test]
    fn serialized_mode_forces_the_serial_path() {
        let pool = ThreadPool::new(2);
        let entry = amgmk(source(2, 16));
        let r = entry.execute(&pool, true, None).unwrap();
        let Outcome::Executed { path, checksum, .. } = r.outcome else {
            panic!("expected executed outcome");
        };
        assert_eq!(path, GuardPath::Serial);
        assert!(r.cache.is_none(), "serialized mode skips inspection");
        assert!(subsub_kernels::common::close(
            checksum,
            entry.golden_checksum()
        ));
    }
}
