//! A persistent worker thread pool with OpenMP-style `parallel for`,
//! self-healing against worker faults.
//!
//! Workers are spawned once and wait between parallel regions on a
//! lock-free [`EpochGate`]; a region is one epoch. The fork-join hot
//! path takes no locks:
//!
//! * **fork** — the coordinator writes the job as a *single erased
//!   pointer* into a plain slot (no per-worker `Arc` clones, no job
//!   mutex), opens the [`ClaimCursor`] for the new epoch, and bumps the
//!   gate; the cursor's `SeqCst` transition publishes the slot;
//! * **execute** — every team member, *the coordinating caller
//!   included*, claims tids from the cursor with one CAS each and calls
//!   the borrowed closure directly through the pointer. The coordinator
//!   claims whatever tids no worker has taken yet: on an oversubscribed
//!   machine (or a 1-thread pool) it absorbs the whole region with zero
//!   context switches, while on a multicore machine the spinning workers
//!   win the claims and the region runs in parallel — fork-join overhead
//!   adapts to what the hardware can actually overlap;
//! * **join** — whoever executed a tid stores the finished epoch into
//!   that tid's cache-line-padded [`JoinLatch`] slot; the coordinator
//!   scans the slots, and only the region's last completion wakes a
//!   parked coordinator.
//!
//! All waits are spin-then-park ([`crate::barrier`]): bounded spinning
//! keeps back-to-back regions syscall-free, parking keeps an idle pool
//! off the CPU. Measured fork-join latency is reported by the
//! `forkjoin_calibrate` binary and committed in `BENCH_forkjoin.json`.
//!
//! Because tids may execute on fewer OS threads than `threads()`, jobs
//! must not synchronize *between* tids (no intra-region barriers) — the
//! same restriction the rest of this crate's `parallel for` API already
//! satisfies by construction.
//!
//! **Nested/concurrent regions.** A `run` (or `parallel_for`) issued
//! while another region is active on the same pool — from inside a
//! worker's job or from a second coordinating thread — degrades to
//! inline serial execution of the job on the calling thread (`job(tid)`
//! for every tid), preserving the exactly-once iteration contract. This
//! mirrors OpenMP's behaviour with nested parallelism disabled.
//!
//! # Fault model and self-healing
//!
//! Each claim is *attributed*: the claimer records `(epoch, who,
//! claimed|started)` in a cache-padded per-tid slot before and after the
//! instant it begins the job. While the coordinator waits for the join
//! it runs a **watchdog** every [`WATCHDOG_TICK`]: if a worker thread
//! has died (detected with `JoinHandle::is_finished`) the watchdog
//! consults the records for every unjoined tid the dead worker claimed —
//!
//! * **claimed but never started** → the tid's job has had no effect, so
//!   the coordinator *reclaims* it: it executes the job itself and marks
//!   the join, and the region completes normally (counted in
//!   [`PoolHealth::reclaimed_tids`]);
//! * **started** → exactly-once execution can no longer be guaranteed,
//!   so the region *aborts cleanly*: the orphaned slot is force-marked
//!   (so the join terminates, never deadlocks) and the region returns
//!   [`RegionError::WorkerLost`].
//!
//! Dead workers are respawned before the next region
//! ([`PoolHealth::respawned_workers`]); the team never shrinks
//! permanently. Join marks use `fetch_max`, so a straggler finishing an
//! abandoned tid later cannot corrupt a newer region's join.
//!
//! **Panics.** A panicking job does not deadlock the pool: the claimer
//! catches the unwind, records the first payload, reports completion,
//! and the region returns [`RegionError::Panicked`] (the `run` wrapper
//! re-raises it). The pool stays usable afterwards.
//!
//! **Deadlines.** [`ThreadPool::run_with_deadline`] and
//! [`ThreadPool::parallel_for_deadline`] trip the caller's
//! [`CancelToken`] once the deadline passes, drain cooperatively, and
//! return [`RegionError::DeadlineExceeded`]. Cancellation is
//! cooperative: a job that never polls the token is waited for (the
//! region borrows the caller's frame, so abandoning it would dangle).
//!
//! Chaos tests drive these paths deterministically through the
//! `subsub-failpoint` sites `omprt.worker.wake`, `omprt.worker.claim`,
//! `omprt.region.fork`, `omprt.region.join` and `omprt.reduce.slot`.

use crate::barrier::{CachePadded, ClaimCursor, EpochGate, JoinLatch, EPOCH_MASK};
use crate::cancel::CancelToken;
use crate::schedule::{dynamic_batch, guided_claim, static_chunks, Schedule};
use crate::sendptr::SendPtr;
use std::cell::UnsafeCell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use subsub_failpoint as failpoint;
use subsub_telemetry as telemetry;
use subsub_telemetry::{EventKind, Phase};

/// The erased fork-join job: a pointer to a closure borrowed for the
/// duration of exactly one region.
type RawJob = *const (dyn Fn(usize) + Sync);

/// How often the joining coordinator interleaves a watchdog scan with
/// its park. Healthy regions never reach the first tick: the join
/// completes inside the spin budget.
pub const WATCHDOG_TICK: Duration = Duration::from_millis(2);

/// Claimer id of the coordinating caller in a claim record.
const COORD: u16 = u16::MAX;

/// Claim-record states (low two bits of the record word).
const REC_CLAIMED: u64 = 1;
const REC_STARTED: u64 = 2;
const REC_WHO_SHIFT: u32 = 2;
const REC_WHO_MASK: u64 = 0xFFFF;
const REC_EPOCH_SHIFT: u32 = 18;

fn record(epoch: u64, who: u16, state: u64) -> u64 {
    (epoch << REC_EPOCH_SHIFT) | (u64::from(who) << REC_WHO_SHIFT) | state
}

fn record_matches_epoch(rec: u64, epoch: u64) -> bool {
    rec >> REC_EPOCH_SHIFT == (epoch << REC_EPOCH_SHIFT) >> REC_EPOCH_SHIFT
}

fn record_who(rec: u64) -> u16 {
    ((rec >> REC_WHO_SHIFT) & REC_WHO_MASK) as u16
}

fn record_state(rec: u64) -> u64 {
    rec & 0b11
}

/// Why a fork-join region could not complete normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionError {
    /// At least one tid's job panicked; `detail` carries the first
    /// payload (injected failpoint panics keep their site name).
    Panicked {
        /// Rendering of the first panic payload observed.
        detail: String,
    },
    /// A worker thread died after *starting* a job, so exactly-once
    /// execution cannot be guaranteed; the region was aborted cleanly.
    WorkerLost {
        /// The orphaned tid.
        tid: usize,
    },
    /// The region's deadline elapsed; remaining work was cancelled
    /// cooperatively. Side effects of completed iterations remain.
    DeadlineExceeded,
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::Panicked { detail } => {
                write!(f, "a job panicked inside a parallel region: {detail}")
            }
            RegionError::WorkerLost { tid } => {
                write!(f, "worker executing tid {tid} died mid-job; region aborted")
            }
            RegionError::DeadlineExceeded => write!(f, "region deadline exceeded"),
        }
    }
}

impl std::error::Error for RegionError {}

/// Recovery work one region performed (all zero on the healthy path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionReport {
    /// Tids reclaimed from dead workers and executed by the coordinator.
    pub reclaimed_tids: u32,
    /// Dead worker threads replaced around this region.
    pub respawned_workers: u32,
}

/// Cumulative self-healing counters for one pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolHealth {
    /// Fork-join regions coordinated (inline-degraded ones included).
    pub regions: u64,
    /// Regions in which at least one job panicked (and was contained).
    pub job_panics: u64,
    /// Tids reclaimed from dead workers by the coordinator.
    pub reclaimed_tids: u64,
    /// Worker threads respawned after dying.
    pub respawned_workers: u64,
    /// Regions aborted because a worker died mid-job.
    pub aborted_regions: u64,
    /// Regions whose deadline tripped the cancel token.
    pub deadline_cancels: u64,
}

impl PoolHealth {
    /// Total degradation events recorded: everything except the plain
    /// region count. Monotone, so a consumer polling for "did anything
    /// go wrong since last time" can diff two snapshots.
    pub fn degradation_events(&self) -> u64 {
        self.job_panics
            + self.reclaimed_tids
            + self.respawned_workers
            + self.aborted_regions
            + self.deadline_cancels
    }

    /// Degradation events in `self` that were not yet present in the
    /// earlier snapshot `prev` (saturating; snapshots are cumulative).
    pub fn degradation_since(&self, prev: &PoolHealth) -> u64 {
        self.degradation_events()
            .saturating_sub(prev.degradation_events())
    }
}

#[derive(Debug, Default)]
struct HealthCounters {
    regions: AtomicU64,
    job_panics: AtomicU64,
    reclaimed_tids: AtomicU64,
    respawned_workers: AtomicU64,
    aborted_regions: AtomicU64,
    deadline_cancels: AtomicU64,
}

struct Shared {
    /// Job slot for the current region. Written by the coordinator
    /// *before* opening the claim cursor and read only between a
    /// successful claim and that claim's join mark, so the cursor's
    /// `SeqCst` transition orders every access (see `execute_claims`).
    job: UnsafeCell<Option<RawJob>>,
    gate: EpochGate,
    claim: ClaimCursor,
    join: JoinLatch,
    /// Team size; a claim word's tid field is 16 bits, so this is capped
    /// at 65534 in `ThreadPool::new` (65535 is the coordinator's id).
    threads: usize,
    shutdown: AtomicBool,
    /// Some claimed tid's job panicked during the current region.
    panicked: AtomicBool,
    /// Rendering of the first panic payload of the current region.
    panic_detail: Mutex<Option<String>>,
    /// Per-worker liveness heartbeat, bumped on every wake and claim.
    beats: Vec<CachePadded<AtomicU64>>,
    /// Per-tid claim attribution: `(epoch, who, claimed|started)`,
    /// written by the claimer, read by the watchdog.
    records: Vec<CachePadded<AtomicU64>>,
}

impl Shared {
    fn note_panic(&self, detail: String) {
        self.panicked.store(true, Ordering::SeqCst);
        let mut slot = lock(&self.panic_detail);
        slot.get_or_insert(detail);
    }
}

// SAFETY: `job` is written only by the single coordinator while no
// region is open (the cursor is exhausted and every claimed tid is
// marked, so no thread can reach the slot) and read only under a live
// claim; the `SeqCst` claim-open / CAS pair orders the write before
// every read.
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

/// A fixed-size team of worker threads executing fork-join parallel
/// regions, with watchdog-based recovery from dead workers.
pub struct ThreadPool {
    shared: Arc<Shared>,
    /// `None` marks a slot whose respawn failed; retried each region.
    /// Locked only by the coordinator (under `region_active`) and `drop`.
    workers: Mutex<Vec<Option<JoinHandle<()>>>>,
    threads: usize,
    /// Guards against nested/concurrent `run` on the same pool.
    region_active: AtomicBool,
    /// Set when a worker death was observed; makes the next region scan
    /// and respawn eagerly instead of waiting for the periodic sweep.
    suspect: AtomicBool,
    health: HealthCounters,
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers (the calling thread is not
    /// part of the team; it coordinates).
    pub fn new(threads: usize) -> ThreadPool {
        // tid and claimer ids must fit their 16-bit fields, with
        // `u16::MAX` reserved for the coordinator.
        let threads = threads.clamp(1, 65_534);
        let shared = Arc::new(Shared {
            job: UnsafeCell::new(None),
            gate: EpochGate::new(),
            claim: ClaimCursor::new(),
            join: JoinLatch::new(threads),
            threads,
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            panic_detail: Mutex::new(None),
            beats: (0..threads).map(|_| CachePadded::default()).collect(),
            records: (0..threads).map(|_| CachePadded::default()).collect(),
        });
        let workers = (0..threads).map(|w| spawn_worker(&shared, w, 0)).collect();
        ThreadPool {
            shared,
            workers: Mutex::new(workers),
            threads,
            region_active: AtomicBool::new(false),
            suspect: AtomicBool::new(false),
            health: HealthCounters::default(),
        }
    }

    /// Spawns a pool wrapped for sharing across threads — the handle a
    /// long-lived service hands to every worker so concurrent requests
    /// multiplex over one team (concurrent coordinators degrade inline
    /// per the module docs; the pool stays correct, the losers just run
    /// their regions serially).
    pub fn shared(threads: usize) -> Arc<ThreadPool> {
        Arc::new(ThreadPool::new(threads))
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the pool's self-healing counters.
    pub fn health(&self) -> PoolHealth {
        PoolHealth {
            regions: self.health.regions.load(Ordering::Relaxed),
            job_panics: self.health.job_panics.load(Ordering::Relaxed),
            reclaimed_tids: self.health.reclaimed_tids.load(Ordering::Relaxed),
            respawned_workers: self.health.respawned_workers.load(Ordering::Relaxed),
            aborted_regions: self.health.aborted_regions.load(Ordering::Relaxed),
            deadline_cancels: self.health.deadline_cancels.load(Ordering::Relaxed),
        }
    }

    /// Runs `job(tid)` on every worker and waits for all to finish —
    /// one fork-join region. Nested or concurrent calls degrade to
    /// inline serial execution (see the module docs). Panics (with a
    /// [`RegionError`] payload) if the region faulted; use
    /// [`ThreadPool::try_run`] to handle faults as values.
    pub fn run<F>(&self, job: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        if let Err(e) = self.try_run(job) {
            std::panic::panic_any(e);
        }
    }

    /// Runs one fork-join region, reporting faults (job panics, lost
    /// workers) as a [`RegionError`] instead of panicking. The pool
    /// remains usable after any error.
    pub fn try_run<F>(&self, job: F) -> Result<RegionReport, RegionError>
    where
        F: Fn(usize) + Send + Sync,
    {
        self.region(&job, None, None)
    }

    /// Runs one fork-join region with a deadline: once `deadline`
    /// elapses, `cancel` is tripped so cooperative jobs drain, and the
    /// region returns [`RegionError::DeadlineExceeded`]. Jobs must poll
    /// the token (as every `parallel_for` body does) for the deadline to
    /// take effect.
    pub fn run_with_deadline<F>(
        &self,
        cancel: &CancelToken,
        deadline: Duration,
        job: F,
    ) -> Result<RegionReport, RegionError>
    where
        F: Fn(usize) + Send + Sync,
    {
        self.region(&job, Some(cancel), Some(Instant::now() + deadline))
    }

    /// OpenMP-style `parallel for` over `0..n` with the given schedule.
    pub fn parallel_for<F>(&self, n: usize, sched: Schedule, body: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        if let Err(e) = self.parallel_for_impl(n, sched, None, None, &body) {
            std::panic::panic_any(e);
        }
    }

    /// [`ThreadPool::parallel_for`] reporting region faults as values.
    pub fn try_parallel_for<F>(
        &self,
        n: usize,
        sched: Schedule,
        body: F,
    ) -> Result<RegionReport, RegionError>
    where
        F: Fn(usize) + Send + Sync,
    {
        self.parallel_for_impl(n, sched, None, None, &body)
    }

    /// [`ThreadPool::parallel_for`] with cooperative cancellation: once
    /// any thread calls `cancel.cancel()` (typically from inside `body`),
    /// no further iteration starts on any thread. Iterations already in
    /// flight finish; every executed iteration runs at most once.
    pub fn parallel_for_cancel<F>(&self, n: usize, sched: Schedule, cancel: &CancelToken, body: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        if let Err(e) = self.parallel_for_impl(n, sched, Some(cancel), None, &body) {
            std::panic::panic_any(e);
        }
    }

    /// [`ThreadPool::parallel_for_cancel`] reporting region faults as
    /// values instead of panicking — the form fault-tolerant callers
    /// (the rtcheck inspector) build on.
    pub fn try_parallel_for_cancel<F>(
        &self,
        n: usize,
        sched: Schedule,
        cancel: &CancelToken,
        body: F,
    ) -> Result<RegionReport, RegionError>
    where
        F: Fn(usize) + Send + Sync,
    {
        self.parallel_for_impl(n, sched, Some(cancel), None, &body)
    }

    /// [`ThreadPool::parallel_for_cancel`] with a deadline: iterations
    /// stop starting once `deadline` elapses (the token is tripped) and
    /// the call reports [`RegionError::DeadlineExceeded`]. Side effects
    /// of iterations that completed before the trip remain.
    pub fn parallel_for_deadline<F>(
        &self,
        n: usize,
        sched: Schedule,
        cancel: &CancelToken,
        deadline: Duration,
        body: F,
    ) -> Result<RegionReport, RegionError>
    where
        F: Fn(usize) + Send + Sync,
    {
        let dl = Instant::now() + deadline;
        let report = self.parallel_for_impl(n, sched, Some(cancel), Some(dl), &body)?;
        if cancel.is_cancelled() && Instant::now() >= dl {
            self.health.deadline_cancels.fetch_add(1, Ordering::Relaxed);
            return Err(RegionError::DeadlineExceeded);
        }
        Ok(report)
    }

    fn parallel_for_impl<F>(
        &self,
        n: usize,
        sched: Schedule,
        cancel: Option<&CancelToken>,
        deadline: Option<Instant>,
        body: &F,
    ) -> Result<RegionReport, RegionError>
    where
        F: Fn(usize) + Send + Sync,
    {
        // An explicit token always wins; otherwise the coordinating
        // thread's ambient scope (installed by a host via
        // `cancel::with_ambient_cancel`) supplies one, so cancellation
        // reaches regions opened by code that never learned about
        // tokens (kernel bodies calling plain `parallel_for`).
        let ambient = if cancel.is_none() {
            crate::cancel::ambient_cancel()
        } else {
            None
        };
        let cancel = cancel.or(ambient.as_deref());
        // Padded so the shared cursor never false-shares with the
        // coordinator's stack around it.
        let cursor = CachePadded::new(AtomicUsize::new(0));
        let threads = self.threads;
        let deadline_hit = AtomicBool::new(false);
        let check_deadline = || {
            if let Some(dl) = deadline {
                if Instant::now() >= dl {
                    deadline_hit.store(true, Ordering::Relaxed);
                    if let Some(c) = cancel {
                        c.cancel();
                    }
                }
            }
        };
        let report = self.region(
            &|tid| {
                drive(sched, n, threads, tid, &cursor, cancel, |s, e| {
                    check_deadline();
                    for i in s..e {
                        if cancel.is_some_and(CancelToken::is_cancelled) {
                            return false;
                        }
                        // Deadlines are polled between claimed ranges and
                        // every 128 iterations within one, so one huge
                        // static chunk cannot overshoot unboundedly.
                        if deadline.is_some() && (i - s) % 128 == 127 {
                            check_deadline();
                        }
                        body(i);
                    }
                    true
                });
            },
            cancel,
            deadline,
        )?;
        if deadline_hit.load(Ordering::Relaxed) {
            self.health.deadline_cancels.fetch_add(1, Ordering::Relaxed);
            return Err(RegionError::DeadlineExceeded);
        }
        Ok(report)
    }

    /// `parallel for` with a `+`-style reduction: each thread folds its
    /// iterations locally with `fold` into a cache-line-padded private
    /// slot (no locks anywhere), and partials are combined with
    /// `combine` in tid order after the join.
    pub fn parallel_for_reduce<T, F, C>(
        &self,
        n: usize,
        sched: Schedule,
        identity: T,
        fold: F,
        combine: C,
    ) -> T
    where
        T: Clone + Send + Sync,
        F: Fn(T, usize) -> T + Send + Sync,
        C: Fn(T, T) -> T,
    {
        let mut partials: Vec<CachePadded<Option<T>>> =
            (0..self.threads).map(|_| CachePadded::new(None)).collect();
        let slots = SendPtr::new(partials.as_mut_ptr());
        let cursor = CachePadded::new(AtomicUsize::new(0));
        let threads = self.threads;
        // Reductions honour the coordinator's ambient cancel scope the
        // same way `parallel_for` does: a cancelled reduction stops
        // claiming and folds only the iterations that already ran (the
        // host discards the partial result).
        let ambient = crate::cancel::ambient_cancel();
        let cancel = ambient.as_deref();
        self.run(|tid| {
            let mut acc = Some(identity.clone());
            drive(sched, n, threads, tid, &cursor, cancel, |s, e| {
                for i in s..e {
                    if cancel.is_some_and(CancelToken::is_cancelled) {
                        return false;
                    }
                    // The accumulator is always re-seated below; if it
                    // ever were empty, restarting from the identity is
                    // the only sound continuation (never panic here).
                    let cur = acc.take().unwrap_or_else(|| identity.clone());
                    acc = Some(fold(cur, i));
                }
                true
            });
            failpoint::hit("omprt.reduce.slot");
            // SAFETY: slot `tid` is written by exactly one claimer (and by
            // the inline-serial fallback strictly sequentially), and the
            // coordinator reads only after the region's join.
            unsafe { *slots.get().add(tid) = CachePadded::new(acc) };
        });
        partials
            .into_iter()
            .fold(identity, |a, slot| match slot.into_inner() {
                Some(p) => combine(a, p),
                None => a,
            })
    }

    /// The region engine behind every public entry point: fork, claim
    /// participation, watchdog-interleaved join, recovery, respawn.
    fn region(
        &self,
        job: &(dyn Fn(usize) + Sync),
        cancel: Option<&CancelToken>,
        deadline: Option<Instant>,
    ) -> Result<RegionReport, RegionError> {
        if self.region_active.swap(true, Ordering::Acquire) {
            // Another region is in flight on this pool: run the job
            // inline, serialized, preserving the per-tid contract.
            return self.inline_region(job, cancel, deadline);
        }
        let mut report = RegionReport::default();
        let _region_span = telemetry::span(Phase::Region, 0);
        self.health.regions.fetch_add(1, Ordering::Relaxed);
        report.respawned_workers += self.ensure_workers(false);
        // Erase the borrow: the closure lives on (or below) this frame
        // and the region cannot outlive this call because we block until
        // every tid's join slot reaches the region's epoch.
        let raw: RawJob = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), RawJob>(
                job as *const (dyn Fn(usize) + Sync),
            )
        };
        self.shared.panicked.store(false, Ordering::SeqCst);
        *lock(&self.shared.panic_detail) = None;
        unsafe { *self.shared.job.get() = Some(raw) };
        failpoint::hit("omprt.region.fork");
        telemetry::instant(EventKind::RegionFork, Phase::Region, 0, self.threads as u64);
        // Publish order: job slot, then the claim cursor (`SeqCst`), then
        // the gate wake-up. Only the coordinator bumps the gate, so the
        // next epoch is `current + 1`.
        let epoch = self.shared.gate.current() + 1;
        self.shared.claim.open(epoch);
        self.shared.gate.open_next();
        // Participate: claim and execute whatever tids no worker has
        // taken yet, instead of blocking while workers wake up.
        execute_claims(&self.shared, COORD, false);
        failpoint::hit("omprt.region.join");
        let masked = epoch & EPOCH_MASK;
        let mut lost: Vec<usize> = Vec::new();
        let mut stale_strikes = 0u32;
        let mut deadline_tripped = false;
        loop {
            if self.shared.join.wait_all_for(masked, WATCHDOG_TICK) {
                break;
            }
            if !deadline_tripped {
                if let Some(dl) = deadline {
                    if Instant::now() >= dl {
                        deadline_tripped = true;
                        if let Some(c) = cancel {
                            c.cancel();
                        }
                    }
                }
            }
            self.watchdog(masked, raw, &mut report, &mut lost, &mut stale_strikes);
        }
        // Clear the slot while the borrow is still alive (hygiene: the
        // pointer must never dangle into a dead frame).
        unsafe { *self.shared.job.get() = None };
        telemetry::instant(
            EventKind::RegionJoin,
            Phase::Region,
            0,
            u64::from(report.reclaimed_tids),
        );
        let panicked = self.shared.panicked.load(Ordering::SeqCst);
        let detail = lock(&self.shared.panic_detail).take();
        report.respawned_workers += self.ensure_workers(false);
        self.health
            .reclaimed_tids
            .fetch_add(u64::from(report.reclaimed_tids), Ordering::Relaxed);
        self.region_active.store(false, Ordering::Release);
        if let Some(&tid) = lost.first() {
            self.health.aborted_regions.fetch_add(1, Ordering::Relaxed);
            return Err(RegionError::WorkerLost { tid });
        }
        if panicked {
            self.health.job_panics.fetch_add(1, Ordering::Relaxed);
            return Err(RegionError::Panicked {
                detail: detail.unwrap_or_else(|| "unknown panic payload".into()),
            });
        }
        Ok(report)
    }

    /// The nested/concurrent fallback: every tid inline on this thread.
    fn inline_region(
        &self,
        job: &(dyn Fn(usize) + Sync),
        cancel: Option<&CancelToken>,
        deadline: Option<Instant>,
    ) -> Result<RegionReport, RegionError> {
        let mut first_panic: Option<String> = None;
        for tid in 0..self.threads {
            if let (Some(dl), Some(c)) = (deadline, cancel) {
                if Instant::now() >= dl {
                    c.cancel();
                }
            }
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| job(tid)));
            if let Err(p) = r {
                first_panic.get_or_insert_with(|| payload_detail(p.as_ref()));
            }
        }
        if let Some(detail) = first_panic {
            return Err(RegionError::Panicked { detail });
        }
        Ok(RegionReport::default())
    }

    /// Reaps dead worker threads and respawns replacements. Cheap
    /// (per-slot `is_finished` loads under an uncontended, coordinator-
    /// only mutex), but still gated: a full sweep runs when a death was
    /// observed (`suspect`), every 64th region, or when `force`d —
    /// so back-to-back microscopic regions pay one flag load.
    fn ensure_workers(&self, force: bool) -> u32 {
        let periodic = self.health.regions.load(Ordering::Relaxed) % 64 == 1;
        if !force && !periodic && !self.suspect.swap(false, Ordering::Relaxed) {
            return 0;
        }
        let mut respawned = 0;
        let mut workers = lock(&self.workers);
        for (w, slot) in workers.iter_mut().enumerate() {
            let dead = match slot {
                Some(h) => h.is_finished(),
                None => true,
            };
            if !dead {
                continue;
            }
            if let Some(h) = slot.take() {
                let _ = h.join(); // reap; a panicked worker is expected here
            }
            *slot = spawn_worker(&self.shared, w, respawned + 1);
            if slot.is_some() {
                respawned += 1;
            }
        }
        self.health
            .respawned_workers
            .fetch_add(u64::from(respawned), Ordering::Relaxed);
        respawned
    }

    /// One watchdog pass over an incomplete join: recover every tid a
    /// dead worker left behind. See the module docs for the policy.
    fn watchdog(
        &self,
        masked_epoch: u64,
        raw: RawJob,
        report: &mut RegionReport,
        lost: &mut Vec<usize>,
        stale_strikes: &mut u32,
    ) {
        let sh = &self.shared;
        // Which workers are dead right now? (Coordinator-only lock.)
        let dead: Vec<bool> = {
            let workers = lock(&self.workers);
            workers
                .iter()
                .map(|slot| slot.as_ref().is_none_or(JoinHandle::is_finished))
                .collect()
        };
        if !dead.iter().any(|&d| d) {
            return;
        }
        self.suspect.store(true, Ordering::Relaxed);
        let dead_count = dead.iter().filter(|&&d| d).count();
        telemetry::instant(EventKind::WatchdogScan, Phase::Region, 0, dead_count as u64);
        let claimed = sh.claim.claimed(masked_epoch, sh.threads);
        for tid in 0..sh.threads {
            if sh.join.is_marked(tid, masked_epoch) {
                continue;
            }
            let rec = sh.records[tid].load(Ordering::SeqCst);
            if !record_matches_epoch(rec, masked_epoch) {
                // Claimed (the coordinator drains the cursor before
                // joining, so every tid is) but never attributed: the
                // claimer died between its CAS and its record store, or
                // is nanoseconds away from storing. Give it a few ticks
                // before declaring the tid lost — never reclaim it, the
                // ambiguity means it may have started.
                if tid < claimed {
                    *stale_strikes += 1;
                    if *stale_strikes >= 3 && !lost.contains(&tid) {
                        lost.push(tid);
                        sh.join.mark(tid, masked_epoch);
                    }
                }
                continue;
            }
            let who = record_who(rec);
            if who == COORD || !dead.get(who as usize).copied().unwrap_or(false) {
                continue; // ours, or a live worker still executing
            }
            match record_state(rec) {
                REC_CLAIMED => {
                    // Dead before starting: the job has had no effect on
                    // this tid, so the coordinator reclaims it. The job
                    // pointer is valid — we are inside `region`'s frame.
                    sh.records[tid]
                        .store(record(masked_epoch, COORD, REC_STARTED), Ordering::SeqCst);
                    let r = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*raw)(tid) }));
                    if let Err(p) = r {
                        sh.note_panic(payload_detail(p.as_ref()));
                    }
                    sh.join.mark(tid, masked_epoch);
                    report.reclaimed_tids += 1;
                }
                _ => {
                    // Started and the executor died: exactly-once is
                    // unrecoverable. Force-complete the slot so the join
                    // terminates, and abort the region.
                    if !lost.contains(&tid) {
                        lost.push(tid);
                    }
                    sh.join.mark(tid, masked_epoch);
                }
            }
        }
    }
}

fn spawn_worker(shared: &Arc<Shared>, w: usize, generation: u32) -> Option<JoinHandle<()>> {
    let sh = Arc::clone(shared);
    let name = if generation == 0 {
        format!("omprt-{w}")
    } else {
        format!("omprt-{w}-r{generation}")
    };
    std::thread::Builder::new()
        .name(name)
        .spawn(move || worker_loop(sh, w))
        .ok()
}

/// One worker's share of a scheduled loop: claims ranges according to
/// `sched` and feeds them to `on_range` until the space is exhausted,
/// `on_range` returns `false`, or the cancel token trips. All three
/// schedules go through here, so `parallel_for` and
/// `parallel_for_reduce` have identical scheduling behaviour by
/// construction.
fn drive(
    sched: Schedule,
    n: usize,
    threads: usize,
    tid: usize,
    cursor: &AtomicUsize,
    cancel: Option<&CancelToken>,
    mut on_range: impl FnMut(usize, usize) -> bool,
) {
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    match sched {
        Schedule::Static { chunk } => {
            for (s, e) in static_chunks(n, threads, chunk, tid) {
                if cancelled() || !on_range(s, e) {
                    return;
                }
            }
        }
        Schedule::Dynamic { chunk } => {
            // Batched claiming: one fetch_add grabs up to 64 chunks so
            // `chunk: 1` no longer serializes the team on one RMW per
            // iteration.
            let claim = dynamic_batch(n, threads, chunk);
            loop {
                if cancelled() {
                    return;
                }
                let s = cursor.fetch_add(claim, Ordering::Relaxed);
                if s >= n {
                    return;
                }
                if !on_range(s, (s + claim).min(n)) {
                    return;
                }
            }
        }
        Schedule::Guided { min_chunk } => loop {
            if cancelled() {
                return;
            }
            let s = cursor.load(Ordering::Relaxed);
            if s >= n {
                return;
            }
            let c = guided_claim(n - s, threads, min_chunk);
            if cursor
                .compare_exchange(s, s + c, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            if !on_range(s, s + c) {
                return;
            }
        },
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.gate.open_next();
        let mut workers = lock(&self.workers);
        for w in workers.drain(..).flatten() {
            let _ = w.join();
        }
    }
}

/// Renders a panic payload for [`RegionError::Panicked`], keeping
/// injected-failpoint panics identifiable by their site name.
fn payload_detail(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(inj) = p.downcast_ref::<failpoint::InjectedPanic>() {
        return inj.to_string();
    }
    if let Some(s) = p.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = p.downcast_ref::<String>() {
        return s.clone();
    }
    "non-string panic payload".to_string()
}

/// Locks a mutex, ignoring poisoning (every guarded value here is
/// recovery metadata that stays consistent across an unwinding writer).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Claims and executes tids until the current region's cursor is
/// exhausted. Run by workers after each gate release *and* by the
/// coordinator between fork and join.
///
/// A successful claim pins the region open: `region` cannot pass its
/// join (and therefore cannot clear or rewrite the job slot) until the
/// claimed tid's latch slot reaches the region's epoch, which happens
/// only in the `mark` below — so the pointer read between claim and
/// mark can never dangle or observe a torn rewrite.
fn execute_claims(sh: &Shared, who: u16, is_worker: bool) {
    while let Some((epoch, tid)) = sh.claim.try_claim(sh.threads) {
        sh.records[tid].store(record(epoch, who, REC_CLAIMED), Ordering::SeqCst);
        telemetry::instant(EventKind::ClaimBatch, Phase::Claim, 0, tid as u64);
        if is_worker {
            // Worker-death window (claimed, not yet started): an
            // injected panic here escapes `worker_loop`, kills the
            // thread, and exercises the watchdog's reclaim path.
            failpoint::hit("omprt.worker.claim");
        }
        sh.records[tid].store(record(epoch, who, REC_STARTED), Ordering::SeqCst);
        if is_worker {
            // Worker-death window (started): an injected panic here kills
            // the thread after the tid is attributed as running, so the
            // watchdog cannot reclaim it — this exercises the clean-abort
            // (`RegionError::WorkerLost`) path instead.
            failpoint::hit("omprt.worker.job");
        }
        // SAFETY: claim-pinned as described above; the `SeqCst` CAS that
        // won the claim observed the cursor open, which the coordinator
        // stored after writing the slot.
        let Some(job) = (unsafe { *sh.job.get() }) else {
            // Defensive: a claimable region always carries a job. Were
            // the slot ever empty, completing the tid (instead of
            // unwinding) keeps the join from hanging.
            sh.join.mark(tid, epoch);
            continue;
        };
        // SAFETY: the pointee lives on the coordinator's `region` frame,
        // which is blocked until our mark.
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job)(tid) }));
        if let Err(p) = r {
            sh.note_panic(payload_detail(p.as_ref()));
        }
        if is_worker {
            sh.beats[who as usize].fetch_add(1, Ordering::Relaxed);
        }
        sh.join.mark(tid, epoch);
    }
}

fn worker_loop(sh: Arc<Shared>, w: usize) {
    let mut seen = 0u64;
    loop {
        seen = sh.gate.wait_past(seen);
        sh.beats[w].fetch_add(1, Ordering::Relaxed);
        if sh.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Idle-death window (no claim held): an injected panic here
        // kills the worker without stranding any tid; the periodic sweep
        // respawns it.
        failpoint::hit("omprt.worker.wake");
        // The claim may already be drained (the coordinator absorbs tids
        // while workers wake), in which case this is a no-op and we go
        // straight back to waiting.
        execute_claims(&sh, w as u16, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    fn all_schedules() -> Vec<Schedule> {
        vec![
            Schedule::static_default(),
            Schedule::Static { chunk: Some(3) },
            Schedule::dynamic_default(),
            Schedule::Dynamic { chunk: 8 },
            Schedule::Guided { min_chunk: 2 },
        ]
    }

    #[test]
    fn every_iteration_exactly_once() {
        let pool = ThreadPool::new(4);
        for sched in all_schedules() {
            for n in [0usize, 1, 17, 256] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                pool.parallel_for(n, sched, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "{sched} n={n}"
                );
            }
        }
    }

    #[test]
    fn reduction_matches_serial() {
        let pool = ThreadPool::new(3);
        let n = 1000usize;
        for sched in all_schedules() {
            let sum = pool.parallel_for_reduce(n, sched, 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(sum, (n as u64 - 1) * n as u64 / 2, "{sched}");
        }
    }

    #[test]
    fn pool_reusable_across_regions() {
        let pool = ThreadPool::new(2);
        let total = AtomicU64::new(0);
        for _ in 0..50 {
            pool.parallel_for(10, Schedule::dynamic_default(), |i| {
                total.fetch_add(i as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 50 * 45);
    }

    #[test]
    fn run_gives_each_thread_its_id() {
        let pool = ThreadPool::new(4);
        let seen: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.run(|tid| {
            seen[tid].fetch_add(1, Ordering::Relaxed);
        });
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::new(1);
        let mut out = vec![0u32; 8];
        let ptr = crate::sendptr::SendPtr::new(out.as_mut_ptr());
        pool.parallel_for(8, Schedule::static_default(), |i| unsafe {
            *ptr.get().add(i) = i as u32;
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    /// `parallel_for` and `parallel_for_reduce` share `drive`, so their
    /// schedule behaviour is identical by construction; this pins the
    /// guided path specifically (it used to silently degrade to
    /// `Dynamic { chunk: min_chunk }` in the reduce).
    #[test]
    fn reduce_and_for_share_guided_claims() {
        // Single worker: the claim sequence is deterministic. Record the
        // ranges `drive` hands out and check they shrink geometrically.
        let n = 1024usize;
        let cursor = AtomicUsize::new(0);
        let mut ranges = Vec::new();
        drive(
            Schedule::Guided { min_chunk: 2 },
            n,
            4,
            0,
            &cursor,
            None,
            |s, e| {
                ranges.push((s, e));
                true
            },
        );
        assert!(ranges.len() > 4, "guided must issue many shrinking claims");
        let first = ranges[0].1 - ranges[0].0;
        assert_eq!(first, guided_claim(n, 4, 2), "first claim is remaining/2t");
        assert!(first > 2, "first claim is far above min_chunk");
        let mut last = usize::MAX;
        let mut covered = 0;
        for &(s, e) in &ranges {
            assert_eq!(s, covered, "claims are contiguous");
            assert!(e - s <= last);
            last = e - s;
            covered = e;
        }
        assert_eq!(covered, n);
        // And the public reduce over guided still folds every index once.
        let pool = ThreadPool::new(4);
        let sum = pool.parallel_for_reduce(
            n,
            Schedule::Guided { min_chunk: 2 },
            0u64,
            |a, i| a + i as u64,
            |a, b| a + b,
        );
        assert_eq!(sum, (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn dynamic_batching_still_covers_exactly_once() {
        // Large n with chunk 1 exercises the batched-claim path.
        let pool = ThreadPool::new(4);
        let n = 100_000usize;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(n, Schedule::dynamic_default(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn try_run_reports_job_panics_as_values() {
        let pool = ThreadPool::new(2);
        let err = pool
            .try_run(|tid| {
                if tid == 1 {
                    panic!("kaboom {tid}");
                }
            })
            .expect_err("must report the panic");
        match err {
            RegionError::Panicked { detail } => assert!(detail.contains("kaboom"), "{detail}"),
            other => panic!("wrong error: {other:?}"),
        }
        assert_eq!(pool.health().job_panics, 1);
        // Still healthy afterwards.
        assert!(pool.try_run(|_| {}).is_ok());
    }

    #[test]
    fn deadline_cancels_cooperative_loops() {
        let pool = ThreadPool::new(2);
        let cancel = CancelToken::new();
        let done = AtomicUsize::new(0);
        let err = pool.parallel_for_deadline(
            1_000_000,
            Schedule::Dynamic { chunk: 1 },
            &cancel,
            Duration::from_millis(5),
            |_| {
                done.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(50));
            },
        );
        assert_eq!(err, Err(RegionError::DeadlineExceeded));
        assert!(cancel.is_cancelled());
        let ran = done.load(Ordering::Relaxed);
        assert!(ran > 0, "some iterations ran before the trip");
        assert!(ran < 1_000_000, "the deadline pruned the space");
        assert_eq!(pool.health().deadline_cancels, 1);
    }

    #[test]
    fn generous_deadline_is_not_an_error() {
        let pool = ThreadPool::new(2);
        let cancel = CancelToken::new();
        let r = pool.parallel_for_deadline(
            100,
            Schedule::static_default(),
            &cancel,
            Duration::from_secs(60),
            |_| {},
        );
        assert!(r.is_ok(), "{r:?}");
        assert!(!cancel.is_cancelled());
    }

    #[test]
    fn claim_records_round_trip() {
        for (epoch, who, state) in [
            (0u64, 0u16, REC_CLAIMED),
            (7, 3, REC_STARTED),
            (EPOCH_MASK, COORD, REC_STARTED),
            ((1 << 46) - 1, 65_000, REC_CLAIMED),
        ] {
            let r = record(epoch, who, state);
            assert!(record_matches_epoch(r, epoch));
            assert_eq!(record_who(r), who);
            assert_eq!(record_state(r), state);
        }
        assert!(!record_matches_epoch(record(5, 1, REC_CLAIMED), 6));
    }
}
