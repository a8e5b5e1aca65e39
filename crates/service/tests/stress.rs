//! Concurrency and tamper stress tests for the analysis service.
//!
//! The three properties the service's soundness rests on:
//! * racing requests on the same content coalesce to exactly one
//!   inspection (single-flight);
//! * a tampered array (bumped write-version, changed content) never
//!   serves a stale parallel verdict — neither from live shards nor
//!   from a warm-start snapshot;
//! * an injected worker death degrades the service without wedging the
//!   queue.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use subsub_failpoint::{self as failpoint, Arm, FailPlan, Fire};
use subsub_rtcheck::{Provenance, ValidatedIndexArray};
use subsub_service::{
    write_snapshot, AnalysisService, InspectorKind, Lookup, Outcome, Payload, QuarantineConfig,
    Request, ServiceConfig, ServiceError, ShardedVerdictCache, ShedReason, VerdictKey,
};

fn ingest(name: &str, data: Vec<usize>) -> ValidatedIndexArray {
    ValidatedIndexArray::ingest(
        name,
        data,
        usize::MAX,
        Provenance::Untrusted {
            source: "stress".into(),
        },
    )
    .expect("in-domain")
}

fn execute_request(client: &str) -> Request {
    Request::new(
        client,
        Payload::Execute {
            kernel: "AMGmk".into(),
            dataset: "test".into(),
        },
    )
}

fn small_config() -> ServiceConfig {
    ServiceConfig {
        workers: 4,
        pool_threads: 2,
        ..ServiceConfig::default()
    }
}

/// Eight threads race the same key: the leader inspects once, everyone
/// else parks on the shard condvar and is served the same verdict.
#[test]
fn racing_lookups_run_exactly_one_inspection() {
    let cache = Arc::new(ShardedVerdictCache::new(8, 64));
    let a = Arc::new(ingest("hot", (0..4096).collect()));
    let key = VerdictKey::of(&a, InspectorKind::Monotone);
    let computes = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let (cache, a, computes, barrier) = (
                Arc::clone(&cache),
                Arc::clone(&a),
                Arc::clone(&computes),
                Arc::clone(&barrier),
            );
            std::thread::spawn(move || {
                barrier.wait();
                let (verdict, _) = cache.get_or_compute(key, || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    // Widen the race window so every follower arrives
                    // while the leader is still inspecting.
                    std::thread::sleep(Duration::from_millis(30));
                    subsub_rtcheck::inspect_serial(a.data())
                });
                assert!(verdict.strict);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no raced panic");
    }
    assert_eq!(computes.load(Ordering::SeqCst), 1, "single-flight violated");
    let s = cache.stats();
    assert_eq!(s.misses, 1);
    assert_eq!(s.coalesced, 7, "followers must coalesce, not re-inspect");
}

/// The same race end-to-end through the service: eight clients request
/// the same kernel/dataset concurrently; AMGmk has one index array, so
/// exactly one shard-cache inspection may run.
#[test]
fn racing_service_requests_share_one_inspection() {
    let service = AnalysisService::start(small_config());
    let golden = service.golden_checksum("AMGmk", "test").expect("golden");
    let tickets: Vec<_> = (0..8)
        .map(|i| {
            service
                .submit(execute_request(&format!("client-{i}")))
                .expect("admitted")
        })
        .collect();
    for t in tickets {
        let response = t.wait_timeout(Duration::from_secs(60)).expect("no wedge");
        let outcome = response.result.expect("request succeeded");
        let Outcome::Executed { checksum, .. } = outcome else {
            panic!("expected an execution outcome");
        };
        assert!(
            subsub_kernels::common::close(checksum, golden),
            "divergence from the serial golden path: {checksum} vs {golden}"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.completed, 8);
    assert_eq!(
        stats.cache.misses, 1,
        "AMGmk:test has one index array; racing requests must share its inspection"
    );
    assert_eq!(
        stats.cache.hits + stats.cache.coalesced,
        7,
        "the other seven lookups must be hits or coalesced waits"
    );
    assert!(stats.max_inflight >= 2, "requests must overlap");
    service.shutdown();
}

/// Live-shard tamper: once content changes through the trust boundary
/// (version bump + checksum refresh), the old verdict is unreachable —
/// the new key misses and the fresh inspection reports the violation.
#[test]
fn tampered_array_never_serves_stale_verdict_from_live_shards() {
    let cache = ShardedVerdictCache::new(4, 64);
    let mut a = ingest("t", (0..256).collect());
    let (v, lookup) = cache.verdict_for(&a, true).unwrap();
    assert!(v.strict);
    assert_eq!(lookup, Lookup::Miss);
    // Hot: second lookup hits.
    assert_eq!(cache.verdict_for(&a, true).unwrap().1, Lookup::Hit);
    // Tamper through the boundary: break monotonicity.
    a.mutate(|d| d[100] = 0).unwrap();
    let (v2, lookup2) = cache.verdict_for(&a, true).unwrap();
    assert_eq!(lookup2, Lookup::Miss, "stale verdict served after tamper");
    assert!(!v2.nonstrict, "fresh inspection must see the violation");
    assert_eq!(v2.first_violation, Some(100));
}

/// Warm-start tamper: a snapshot taken before the tamper keys the old
/// content. After the tamper, the loaded entry can never match — the
/// lookup misses and re-inspects; the untampered twin still warm-hits.
#[test]
fn tampered_array_never_serves_stale_verdict_from_snapshot() {
    let live = ShardedVerdictCache::new(4, 64);
    let mut a = ingest("w", (0..256).collect());
    let twin = ingest("w", (0..256).collect());
    live.verdict_for(&a, true).unwrap();
    let snapshot = write_snapshot(&live);

    a.mutate(|d| d[7] = 0).unwrap();

    let fresh = ShardedVerdictCache::new(4, 64);
    subsub_service::load_snapshot(&fresh, &snapshot).expect("valid snapshot");
    let (v, lookup) = fresh.verdict_for(&a, true).unwrap();
    assert_eq!(
        lookup,
        Lookup::Miss,
        "snapshot must not answer for tampered content"
    );
    assert!(!v.nonstrict);
    // The untampered twin is exactly what the snapshot described.
    let (tv, tlookup) = fresh.verdict_for(&twin, true).unwrap();
    assert_eq!(tlookup, Lookup::WarmHit);
    assert!(tv.strict);
}

/// Same property end-to-end: a service warm-started from another
/// service's snapshot answers its first repeated request from the
/// cache, and its results still match the serial golden path.
#[test]
fn warm_started_service_hits_on_first_request() {
    let first = AnalysisService::start(small_config());
    first
        .submit(execute_request("warmup"))
        .expect("admitted")
        .wait()
        .result
        .expect("executed");
    let snapshot = first.snapshot();
    first.shutdown();

    let second = AnalysisService::start(small_config());
    let loaded = second.warm_start(&snapshot).expect("snapshot accepted");
    assert!(loaded >= 1);
    let golden = second.golden_checksum("AMGmk", "test").expect("golden");
    let response = second
        .submit(execute_request("warm-client"))
        .expect("admitted")
        .wait();
    let telemetry = response.telemetry.clone();
    let Ok(Outcome::Executed { checksum, .. }) = response.result else {
        panic!("expected an execution outcome");
    };
    assert!(subsub_kernels::common::close(checksum, golden));
    assert_eq!(
        telemetry.cache,
        Some(Lookup::WarmHit),
        "first repeated request must be served from the warm-start snapshot"
    );
    assert_eq!(second.stats().cache.misses, 0);
    second.shutdown();
}

/// A poisoned (corrupted) snapshot is rejected wholesale and the
/// service rebuilds from cold without serving anything from it.
#[test]
fn corrupt_snapshot_is_rejected_and_rebuilt() {
    let service = AnalysisService::start(small_config());
    service
        .submit(execute_request("seed"))
        .expect("admitted")
        .wait()
        .result
        .expect("executed");
    let mut snapshot = service.snapshot().into_bytes();
    // Flip one content byte inside the digested region.
    let pos = snapshot
        .windows(8)
        .position(|w| w == b"checksum")
        .expect("has an entry")
        + 12;
    snapshot[pos] ^= 0x01;
    let corrupt = String::from_utf8(snapshot).unwrap();
    service.shutdown();

    let fresh = AnalysisService::start(small_config());
    assert!(fresh.warm_start(&corrupt).is_err(), "corruption accepted");
    assert_eq!(fresh.stats().cache.entries, 0, "no partial load");
    // Rebuild: the same request now runs a fresh inspection and still
    // matches the golden path.
    let golden = fresh.golden_checksum("AMGmk", "test").expect("golden");
    let response = fresh
        .submit(execute_request("rebuild"))
        .expect("admitted")
        .wait();
    let Ok(Outcome::Executed { checksum, .. }) = response.result else {
        panic!("expected an execution outcome");
    };
    assert!(subsub_kernels::common::close(checksum, golden));
    assert_eq!(fresh.stats().cache.misses, 1);
    fresh.shutdown();
}

/// Kill-a-worker chaos: an injected panic in an omprt pool worker while
/// requests are in flight must degrade (serial rescue, self-healed
/// pool) without wedging the queue — every ticket completes, and every
/// completed execution still matches the golden checksum.
#[test]
fn worker_death_degrades_without_wedging_the_queue() {
    failpoint::silence_injected_panics();
    let _chaos =
        failpoint::arm(FailPlan::new().with("omprt.worker.wake", Arm::Panic, Fire::nth(5)));
    let service = AnalysisService::start(small_config());
    let golden = service.golden_checksum("AMGmk", "test").expect("golden");
    let tickets: Vec<_> = (0..12)
        .map(|i| {
            service
                .submit(execute_request(&format!("chaos-{i}")))
                .expect("admitted")
        })
        .collect();
    let mut completed = 0;
    for t in tickets {
        let response = t
            .wait_timeout(Duration::from_secs(120))
            .expect("queue wedged under worker death");
        let Ok(Outcome::Executed { checksum, .. }) = response.result else {
            panic!("request failed terminally under a recoverable fault");
        };
        assert!(
            subsub_kernels::common::close(checksum, golden),
            "divergence under chaos: {checksum} vs {golden}"
        );
        completed += 1;
    }
    assert_eq!(completed, 12);
    assert_eq!(service.stats().completed, 12);
    service.shutdown();
}

/// One heavy caller cannot starve the queue: submissions beyond the
/// fairness cap shed `FairnessCap` while another client stays admitted.
#[test]
fn fairness_cap_sheds_the_heavy_caller_only() {
    let service = AnalysisService::start(ServiceConfig {
        workers: 1,
        fairness_cap: 2,
        pool_threads: 2,
        ..ServiceConfig::default()
    });
    let mut hog_tickets = Vec::new();
    let mut hog_sheds = 0;
    for _ in 0..6 {
        match service.submit(execute_request("hog")) {
            Ok(t) => hog_tickets.push(t),
            Err(ShedReason::FairnessCap) => hog_sheds += 1,
            Err(other) => panic!("unexpected shed reason {other:?}"),
        }
    }
    // The worker may drain a slot mid-loop, so the exact split varies,
    // but the cap must have bitten at least once and at most two of the
    // six can ever be in flight together.
    assert_eq!(hog_tickets.len() + hog_sheds, 6);
    assert!(hog_sheds >= 1, "cap never enforced");
    // The queue still has room for a polite client.
    let polite = service.submit(execute_request("mouse")).expect("starved");
    for t in hog_tickets {
        t.wait().result.expect("executed");
    }
    polite.wait().result.expect("executed");
    let stats = service.stats();
    assert!(stats.shed[1] >= 1, "fairness sheds must be counted");
    service.shutdown();
}

/// Regression for the abandoned-ticket leak: a client whose tickets are
/// dropped (or time out) without ever receiving their responses must
/// not hold its fairness slots forever. Each round saturates the cap
/// and abandons everything; with the old accounting (slot released only
/// by a worker completing the job it still thinks someone wants) the
/// client's budget would be exhausted after one round and every later
/// submission would shed `FairnessCap`.
#[test]
fn abandoned_tickets_free_their_fairness_slots() {
    // Best-effort wedge: the first dispatch sleeps so the early rounds
    // abandon *queued* jobs (exercising the reap path, not just
    // completion). The property below holds regardless of timing.
    let _chaos = failpoint::arm(FailPlan::new().with(
        "service.worker.dispatch",
        Arm::Delay(300),
        Fire::nth(0),
    ));
    let service = AnalysisService::start(ServiceConfig {
        workers: 1,
        fairness_cap: 2,
        pool_threads: 2,
        ..ServiceConfig::default()
    });
    let slow = service
        .submit(execute_request("slowpoke"))
        .expect("admitted");
    for round in 0..5 {
        let mut held = Vec::new();
        for _ in 0..64 {
            match service.submit(execute_request("gone")) {
                Ok(t) => held.push(t),
                Err(ShedReason::FairnessCap) => break,
                Err(other) => panic!("unexpected shed reason {other:?}"),
            }
            if held.len() >= 8 {
                break; // worker draining faster than we fill; enough held
            }
        }
        assert!(!held.is_empty(), "round {round} admitted nothing");
        // A timed-out wait abandons exactly like a drop.
        if let Some(t) = held.pop() {
            if t.wait_timeout(Duration::ZERO).is_some() {
                // Already completed — fine, slot released by the worker.
            }
        }
        drop(held);
    }
    // After five rounds of abandoned tickets, the client's budget must
    // be whole again.
    let fresh = service
        .submit(execute_request("gone"))
        .expect("abandoned tickets leaked fairness slots");
    drop(fresh);
    drop(slow);
    let stats = service.stats();
    assert!(
        stats.abandoned + stats.completed > 0,
        "lifecycle accounting recorded nothing"
    );
    service.shutdown();
}

/// Deadlines are enforced server-side: an already-expired request is
/// answered with a typed `Expired` error (never executed, never
/// wedged), and a deadline that trips mid-run cancels the kernel at a
/// cooperative boundary within a bounded interval.
#[test]
fn expired_requests_resolve_typed_and_bounded() {
    let service = AnalysisService::start(ServiceConfig {
        workers: 2,
        pool_threads: 2,
        ..ServiceConfig::default()
    });
    // (a) Expired before any worker touches it.
    let t = service
        .submit(execute_request("doomed").with_deadline(Duration::ZERO))
        .expect("admitted");
    let started = std::time::Instant::now();
    let response = t.wait_timeout(Duration::from_secs(30)).expect("wedged");
    assert!(
        matches!(response.result, Err(ServiceError::Expired)),
        "zero-deadline request must expire, got {:?}",
        response.result.map(|_| ())
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "expiry must resolve promptly"
    );
    // (b) Expired mid-run: the dispatch stalls past the deadline; the
    // janitor trips the job's token and the guard layer discards the
    // partial run instead of serving it.
    let _chaos = failpoint::arm(FailPlan::new().with(
        "service.kernel.parallel",
        Arm::Delay(150),
        Fire::always(),
    ));
    let t = service
        .submit(execute_request("mid-run").with_deadline(Duration::from_millis(15)))
        .expect("admitted");
    let started = std::time::Instant::now();
    let response = t.wait_timeout(Duration::from_secs(30)).expect("wedged");
    assert!(
        matches!(response.result, Err(ServiceError::Expired)),
        "mid-run deadline must surface as Expired"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "cancellation must stop the run within a bounded interval"
    );
    let stats = service.stats();
    assert!(stats.expired >= 2, "expired responses must be counted");
    // A deadline-free request on the same service still succeeds.
    let ok = service
        .submit(execute_request("healthy"))
        .expect("admitted")
        .wait();
    assert!(ok.result.is_ok(), "service wedged after expiries");
    service.shutdown();
}

/// Poison quarantine end-to-end: a payload identity that keeps faulting
/// workers is quarantined (shed with a typed reason while its backoff
/// runs), re-admitted only as a serial single-flight probe, and fully
/// released after the probe completes clean.
#[test]
fn quarantine_isolates_poison_payload_and_releases_on_clean_probe() {
    failpoint::silence_injected_panics();
    let service = AnalysisService::start(ServiceConfig {
        workers: 2,
        pool_threads: 2,
        // One serialized request per degradation so the second strike
        // runs the parallel path again instead of hiding behind the
        // cooldown.
        serialized_cooldown: 1,
        quarantine: QuarantineConfig {
            strikes: 2,
            window: Duration::from_secs(30),
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(2),
        },
        ..ServiceConfig::default()
    });
    let poison = Payload::Execute {
        kernel: "AMGmk".into(),
        dataset: "test".into(),
    };
    let burn = || {
        Request::new(
            "bystander",
            Payload::Execute {
                kernel: "CG".into(),
                dataset: "test".into(),
            },
        )
    };
    let _chaos =
        failpoint::arm(FailPlan::new().with("service.kernel.parallel", Arm::Panic, Fire::always()));
    // Two faulting completions of the same identity = two strikes. The
    // guard rescues each serially, so the responses still execute — but
    // the fault class is recorded against the payload.
    for strike in 0..2 {
        let r = service
            .submit(execute_request(&format!("striker-{strike}")))
            .expect("admitted")
            .wait();
        assert!(
            matches!(
                r.result,
                Ok(Outcome::Executed {
                    degraded: Some(_),
                    ..
                })
            ),
            "strike run must degrade, not fail terminally"
        );
        // Burn the serialized-cooldown token so the next strike run
        // takes the parallel path again.
        service
            .submit(burn())
            .expect("admitted")
            .wait()
            .result
            .expect("burn");
    }
    assert!(
        service.is_quarantined(&poison),
        "two strikes must quarantine the identity"
    );
    // Inside the backoff window the identity is refused outright.
    match service.submit(execute_request("victim")) {
        Err(ShedReason::Quarantined) => {}
        Err(other) => panic!("expected a quarantine shed, got {other:?}"),
        Ok(_) => panic!("quarantined identity admitted inside its backoff"),
    }
    // Past the backoff, exactly one serial probe is admitted. Serial
    // execution never touches the armed parallel site, so the probe
    // completes clean and releases the identity — even though the
    // chaos plan is still armed.
    std::thread::sleep(Duration::from_millis(150));
    let probe = service
        .submit(execute_request("prober"))
        .expect("probe must be admitted after backoff")
        .wait();
    assert!(
        matches!(probe.result, Ok(Outcome::Executed { .. })),
        "serial probe must complete"
    );
    assert!(
        !service.is_quarantined(&poison),
        "a clean probe must release the quarantine"
    );
    let r = service
        .submit(execute_request("released"))
        .expect("released identity must admit normally")
        .wait();
    assert!(r.result.is_ok());
    let q = service.stats().quarantine;
    assert!(q.strikes >= 2 && q.quarantined >= 1 && q.probes >= 1 && q.released >= 1);
    assert!(
        service.stats().shed[4] >= 1,
        "quarantine sheds must be counted"
    );
    service.shutdown();
}

/// Shutdown drains queued requests as structured shed responses instead
/// of leaving callers blocked forever.
#[test]
fn shutdown_fulfills_pending_tickets() {
    let service = AnalysisService::start(ServiceConfig {
        workers: 1,
        pool_threads: 2,
        ..ServiceConfig::default()
    });
    let tickets: Vec<_> = (0..4)
        .filter_map(|i| service.submit(execute_request(&format!("c{i}"))).ok())
        .collect();
    service.shutdown();
    for t in tickets {
        // Completed or shed-at-shutdown — but never wedged.
        let response = t.wait_timeout(Duration::from_secs(30)).expect("wedged");
        if let Err(e) = response.result {
            assert!(
                matches!(e, subsub_service::ServiceError::Shed(ShedReason::Shutdown)),
                "unexpected terminal error: {e}"
            );
        }
    }
    assert!(service.submit(execute_request("late")).is_err());
}

/// Malformed source is the client's own bad input: every submission
/// resolves to a typed `Rejected` (stable code + diagnostic), the worker
/// never faults, and the payload identity never accrues quarantine
/// strikes no matter how many times it is resubmitted.
#[test]
fn malformed_source_rejects_typed_without_quarantine() {
    let service = AnalysisService::start(small_config());
    let payload = Payload::AnalyzeSource {
        source: "void f( {".into(),
        level: subsub_core::AlgorithmLevel::New,
    };
    for round in 0..4 {
        let r = service
            .submit(Request::new(format!("mal-{round}"), payload.clone()))
            .expect("malformed source must be admitted, not shed")
            .wait();
        match r.result {
            Err(ServiceError::Rejected { code, detail }) => {
                assert!(!code.is_empty(), "rejection must carry a stable code");
                assert!(!detail.is_empty());
            }
            other => panic!("expected a typed rejection, got {other:?}"),
        }
    }
    assert!(
        !service.is_quarantined(&payload),
        "client-side bad input must never strike the quarantine ladder"
    );
    // A well-formed source on the same connection still analyzes.
    let ok = service
        .submit(Request::new(
            "mal-ok",
            Payload::AnalyzeSource {
                source: "void f(int n, double *x) { int i; for (i = 0; i < n; i++) x[i] = 0.0; }"
                    .into(),
                level: subsub_core::AlgorithmLevel::New,
            },
        ))
        .expect("admitted")
        .wait();
    assert!(matches!(ok.result, Ok(Outcome::Analyzed(_))));
    service.shutdown();
}

/// Oversized sources shed `OverBudget` at admission (before queueing);
/// in-budget sources that exceed structural limits reject deterministically
/// with the typed `budget-*` diagnostic.
#[test]
fn over_budget_sources_shed_or_reject_deterministically() {
    let mut cfg = small_config();
    cfg.parse_budget.max_input_bytes = 1024;
    cfg.parse_budget.max_depth = 16;
    let service = AnalysisService::start(cfg);
    // Admission rung: too many bytes → typed shed, counted.
    let huge = Payload::AnalyzeSource {
        source: "x".repeat(4096),
        level: subsub_core::AlgorithmLevel::New,
    };
    match service.submit(Request::new("big", huge)) {
        Err(ShedReason::OverBudget) => {}
        Err(other) => panic!("expected an over-budget shed, got {other:?}"),
        Ok(_) => panic!("oversized source must not be admitted"),
    }
    assert!(
        service.stats().shed[(ShedReason::OverBudget.code() - 1) as usize] >= 1,
        "over-budget sheds must be counted"
    );
    // Worker rung: within byte budget but hostile nesting → the same
    // typed diagnostic on every resubmission.
    let deep = format!("void f() {{ x = {}1{}; }}", "(".repeat(64), ")".repeat(64));
    let mut details = Vec::new();
    for round in 0..2 {
        let r = service
            .submit(Request::new(
                format!("deep-{round}"),
                Payload::AnalyzeSource {
                    source: deep.clone(),
                    level: subsub_core::AlgorithmLevel::New,
                },
            ))
            .expect("admitted")
            .wait();
        match r.result {
            Err(ServiceError::Rejected { code, detail }) => {
                assert_eq!(code, "budget-depth");
                details.push(detail);
            }
            other => panic!("expected a budget rejection, got {other:?}"),
        }
    }
    assert_eq!(
        details[0], details[1],
        "budget rejections must be deterministic"
    );
    service.shutdown();
}
