//! The sharded, content-addressed verdict cache at the heart of the
//! service — production's one verdict cache.
//!
//! Verdicts are keyed on *content*: the [`ValidatedIndexArray`]
//! checksum, its provenance tag, and the inspector kind
//! ([`VerdictKey`]). Two requests carrying bit-identical arrays share
//! one verdict no matter where the bytes live — and, because the key is
//! position-independent, verdicts survive across processes via the
//! `subsub-cache/v2` snapshot ([`crate::snapshot`]). [`ShardSource`]
//! plugs the cache into the guard as its [`VerdictSource`], so the
//! service decides through the same
//! [`GuardedExecutor::decide_recoverable`] ladder as every other
//! caller.
//!
//! [`GuardedExecutor::decide_recoverable`]: subsub_rtcheck::GuardedExecutor::decide_recoverable
//!
//! Three properties the service relies on:
//!
//! * **sharding** — the key space is split over N independently-locked
//!   shards (shard = key hash modulo N), so concurrent requests on
//!   different arrays never contend on one global lock;
//! * **single-flight** — racing lookups of the *same* key coalesce:
//!   the first becomes the leader and computes, the rest park on the
//!   shard condvar and are served the leader's verdict. An N-way race
//!   costs exactly one verdict computation;
//! * **bounded memory** — each shard holds a capacity-bounded
//!   [`VerdictCache`] with LRU-ish eviction, so an adversarial client
//!   streaming novel arrays cannot grow the cache without bound.
//!
//! Soundness: a cached verdict describes exactly the content its key's
//! checksum fingerprints. [`ShardedVerdictCache::verdict_for`] accepts
//! only a [`ValidatedIndexArray`] and (optionally, see
//! [`crate::ServiceConfig::paranoid_verify`]) re-verifies it first, so
//! an array mutated through the trust boundary (version bump →
//! checksum refresh) computes a *different key* and misses, while a
//! bypassing writer (stale checksum) is rejected outright. Dispatch
//! additionally re-validates write-versions (the executor's tamper
//! gate), so a verdict — live or warm-started — is never trusted for
//! dispatch on content that drifted after the decision.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use subsub_failpoint as failpoint;
use subsub_rtcheck::{
    MonotoneVerdict, ValidatedIndexArray, ValidationError, VerdictCache, VerdictOrigin,
    VerdictSource, FINGERPRINT_VERSION,
};
use subsub_telemetry as telemetry;
use subsub_telemetry::{EventKind, Phase};

/// Which inspector produced a verdict. One monotonicity scan proves
/// both the strict and non-strict flavours, so the requirement is *not*
/// part of the key — the kind names the inspector algorithm, leaving
/// room for the wider pattern language on the roadmap (periodic,
/// block-monotone, injectivity-only inspectors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum InspectorKind {
    /// The adjacent-pair monotonicity scan.
    Monotone = 0,
}

impl InspectorKind {
    /// Stable numeric code (snapshot wire form).
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`InspectorKind::code`].
    pub fn from_code(code: u8) -> Option<InspectorKind> {
        match code {
            0 => Some(InspectorKind::Monotone),
            _ => None,
        }
    }
}

/// Content-addressed cache key: checksum, fingerprint scheme, length,
/// provenance tag, and inspector kind. Length rides along so two arrays
/// whose FNV checksums collide across different lengths still key
/// apart; the fingerprint version rides along so a checksum computed
/// under one scheme (the byte-wise v1, the block-folded v2, ...) is
/// never matched against one computed under another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerdictKey {
    /// Content fingerprint from the ingestion trust boundary
    /// (`subsub-fingerprint/v{fp}`).
    pub checksum: u64,
    /// Element count of the fingerprinted content.
    pub len: usize,
    /// Stable tag of where the bytes came from
    /// ([`ValidatedIndexArray::provenance_tag`]).
    pub provenance: u64,
    /// Which inspector the verdict belongs to.
    pub kind: InspectorKind,
    /// Which fingerprint scheme produced `checksum`
    /// ([`FINGERPRINT_VERSION`] for everything this build computes).
    pub fp: u8,
}

impl VerdictKey {
    /// The key for `array` under `kind`. The caller is responsible for
    /// the array being in a verified state (see the module docs).
    pub fn of(array: &ValidatedIndexArray, kind: InspectorKind) -> VerdictKey {
        VerdictKey {
            checksum: array.checksum(),
            len: array.len(),
            provenance: array.provenance_tag(),
            kind,
            fp: FINGERPRINT_VERSION,
        }
    }
}

/// A cached verdict plus where it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedVerdict {
    /// The inspection result.
    pub verdict: MonotoneVerdict,
    /// True when the entry was warm-started from a snapshot rather than
    /// inspected by this process.
    pub warm: bool,
}

pub use subsub_rtcheck::Lookup;

/// Cumulative counters for one sharded cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookups served from a live entry.
    pub hits: u64,
    /// Lookups served from a warm-started snapshot entry.
    pub warm_hits: u64,
    /// Lookups that coalesced onto a concurrent leader's inspection.
    pub coalesced: u64,
    /// Lookups that ran an inspection.
    pub misses: u64,
    /// Entries evicted under capacity pressure.
    pub evictions: u64,
    /// Entries currently resident across all shards.
    pub entries: u64,
}

impl ShardStats {
    /// Fraction of lookups that did not inspect (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let reused = self.hits + self.warm_hits + self.coalesced;
        let total = reused + self.misses;
        if total == 0 {
            0.0
        } else {
            reused as f64 / total as f64
        }
    }
}

struct ShardState {
    cache: VerdictCache<VerdictKey, CachedVerdict>,
    inflight: HashSet<VerdictKey>,
}

struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
}

/// Removes the in-flight marker and wakes waiters even if the leader's
/// compute unwinds — a leaked marker would park every later lookup of
/// the key forever.
struct FlightGuard<'a> {
    shard: &'a Shard,
    key: VerdictKey,
    done: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            let mut st = lock(&self.shard.state);
            st.inflight.remove(&self.key);
            self.shard.cv.notify_all();
        }
    }
}

/// N independently-locked shards of content-keyed verdicts with
/// single-flight inspection. See the module docs.
pub struct ShardedVerdictCache {
    shards: Vec<Shard>,
    hits: AtomicU64,
    warm_hits: AtomicU64,
    coalesced: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for ShardedVerdictCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedVerdictCache")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

fn lock<'a>(m: &'a Mutex<ShardState>) -> MutexGuard<'a, ShardState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ShardedVerdictCache {
    /// A cache of `shards` shards (clamped to at least 1), each bounded
    /// at `per_shard_capacity` entries.
    pub fn new(shards: usize, per_shard_capacity: usize) -> ShardedVerdictCache {
        let shards = shards.max(1);
        ShardedVerdictCache {
            shards: (0..shards)
                .map(|_| Shard {
                    state: Mutex::new(ShardState {
                        cache: VerdictCache::with_capacity(per_shard_capacity),
                        inflight: HashSet::new(),
                    }),
                    cv: Condvar::new(),
                })
                .collect(),
            hits: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: &VerdictKey) -> &Shard {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// The verdict for `array` under `required`-agnostic inspection:
    /// verifies the array first when `paranoid` is set (catching
    /// bypassing writers), then serves the content-keyed verdict,
    /// coalescing concurrent misses on the same key into one verdict
    /// computation.
    ///
    /// A miss is served from the array's block summaries in O(blocks) —
    /// the trust boundary already paid the O(n) scan at ingestion (and
    /// O(Δ) per ranged mutation), and its dirty-window bookkeeping
    /// keeps the summaries current through every sanctioned write.
    /// That summary-derived verdict and the key's checksum describe the
    /// same validated state by construction; `paranoid` mode
    /// additionally proves (by recomputing the fingerprint from raw
    /// data in `verify()`) that the *bytes* still match that state, so
    /// a bypassing writer is rejected before the summaries are
    /// consulted.
    pub fn verdict_for(
        &self,
        array: &ValidatedIndexArray,
        paranoid: bool,
    ) -> Result<(MonotoneVerdict, Lookup), ValidationError> {
        if paranoid {
            array.verify()?;
        }
        let key = VerdictKey::of(array, InspectorKind::Monotone);
        Ok(self.get_or_compute(key, || array.summary_verdict()))
    }

    /// Core single-flight lookup: returns the cached verdict for `key`
    /// or runs `compute` exactly once across every concurrent caller of
    /// the same key. `compute` runs outside the shard lock.
    pub fn get_or_compute(
        &self,
        key: VerdictKey,
        compute: impl FnOnce() -> MonotoneVerdict,
    ) -> (MonotoneVerdict, Lookup) {
        let shard = self.shard_of(&key);
        let mut waited = false;
        let mut st = lock(&shard.state);
        loop {
            if let Some(entry) = st.cache.get(&key) {
                let (lookup, counter) = if waited {
                    (Lookup::Coalesced, &self.coalesced)
                } else if entry.warm {
                    (Lookup::WarmHit, &self.warm_hits)
                } else {
                    (Lookup::Hit, &self.hits)
                };
                counter.fetch_add(1, Ordering::Relaxed);
                telemetry::instant(EventKind::CacheHit, Phase::Service, 0, key.len as u64);
                return (entry.verdict, lookup);
            }
            if !st.inflight.contains(&key) {
                st.inflight.insert(key);
                break;
            }
            waited = true;
            st = shard.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        drop(st);
        // Leader: inspect outside the lock. The guard guarantees the
        // in-flight marker is cleared even if `compute` unwinds.
        let mut guard = FlightGuard {
            shard,
            key,
            done: false,
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        telemetry::instant(EventKind::CacheMiss, Phase::Service, 0, key.len as u64);
        // Chaos site: a panicking or stalled single-flight leader. The
        // FlightGuard above guarantees an unwinding leader clears the
        // in-flight marker and wakes waiters (who elect a new leader),
        // so an injected panic here must never wedge coalesced lookups.
        failpoint::hit("service.flight.leader");
        let verdict = {
            let _span = telemetry::span(Phase::Inspect, 0);
            compute()
        };
        let mut st = lock(&shard.state);
        st.inflight.remove(&key);
        let evicted = st.cache.insert(
            key,
            CachedVerdict {
                verdict,
                warm: false,
            },
        );
        if evicted.is_some() {
            telemetry::instant(EventKind::CacheEvict, Phase::Service, 0, key.len as u64);
        }
        guard.done = true;
        shard.cv.notify_all();
        drop(st);
        (verdict, Lookup::Miss)
    }

    /// Inserts a warm-started entry (snapshot load). Never overwrites a
    /// live entry this process inspected itself.
    pub fn insert_warm(&self, key: VerdictKey, verdict: MonotoneVerdict) {
        let shard = self.shard_of(&key);
        let mut st = lock(&shard.state);
        if st.cache.get(&key).is_none() {
            st.cache.insert(
                key,
                CachedVerdict {
                    verdict,
                    warm: true,
                },
            );
        }
    }

    /// Every resident entry, for snapshotting. Order is unspecified.
    pub fn entries(&self) -> Vec<(VerdictKey, CachedVerdict)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let st = lock(&shard.state);
            out.extend(st.cache.iter().map(|(k, v)| (*k, *v)));
        }
        out
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            lock(&shard.state).cache.clear();
        }
    }

    /// Counter snapshot across all shards.
    pub fn stats(&self) -> ShardStats {
        let mut evictions = 0;
        let mut entries = 0;
        for shard in &self.shards {
            let st = lock(&shard.state);
            evictions += st.cache.evictions();
            entries += st.cache.len() as u64;
        }
        ShardStats {
            hits: self.hits.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions,
            entries,
        }
    }
}

/// The guard's [`VerdictSource`] inside the service: the shared cache,
/// with `verify()` gated by [`crate::ServiceConfig::paranoid_verify`].
#[derive(Debug, Clone)]
pub struct ShardSource {
    /// The service-wide cache.
    pub cache: Arc<ShardedVerdictCache>,
    /// Re-verify each array from its raw bytes before the lookup.
    pub paranoid: bool,
}

impl VerdictSource for ShardSource {
    fn verdict(
        &self,
        array: &ValidatedIndexArray,
    ) -> Result<(MonotoneVerdict, VerdictOrigin), ValidationError> {
        let (verdict, lookup) = self.cache.verdict_for(array, self.paranoid)?;
        Ok((verdict, VerdictOrigin::Cache(lookup)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsub_rtcheck::{Bindings, ExecError, GuardedExecutor, MonotoneReq, Provenance};

    fn ingest(name: &str, data: Vec<usize>) -> ValidatedIndexArray {
        ValidatedIndexArray::ingest(
            name,
            data,
            usize::MAX,
            Provenance::Untrusted {
                source: "shard-test".into(),
            },
        )
        .expect("in-domain")
    }

    #[test]
    fn same_content_different_identity_shares_one_verdict() {
        let cache = ShardedVerdictCache::new(4, 64);
        let a = ingest("a", vec![0, 1, 2, 3]);
        let b = ingest("a", vec![0, 1, 2, 3]); // separate allocation
        let (va, la) = cache.verdict_for(&a, true).unwrap();
        let (vb, lb) = cache.verdict_for(&b, true).unwrap();
        assert_eq!((la, lb), (Lookup::Miss, Lookup::Hit));
        assert_eq!(va, vb);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn mutation_through_the_boundary_changes_the_key() {
        let cache = ShardedVerdictCache::new(4, 64);
        let mut a = ingest("a", vec![0, 1, 2, 3]);
        let (v, _) = cache.verdict_for(&a, true).unwrap();
        assert!(v.strict);
        a.mutate(|d| d[2] = 0).unwrap();
        // Version bumped, checksum refreshed: new key, fresh inspection.
        let (v2, lookup) = cache.verdict_for(&a, true).unwrap();
        assert_eq!(lookup, Lookup::Miss);
        assert!(!v2.nonstrict);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn bypassing_writer_is_rejected_in_paranoid_mode() {
        let cache = ShardedVerdictCache::new(2, 64);
        let mut a = ingest("a", vec![0, 1, 2, 3]);
        cache.verdict_for(&a, true).unwrap();
        a.bypass_validation_mut()[1] = 3; // unannounced write
        let err = cache.verdict_for(&a, true).unwrap_err();
        assert!(matches!(err, ValidationError::ChecksumMismatch { .. }));
    }

    #[test]
    fn provenance_is_part_of_the_key() {
        let cache = ShardedVerdictCache::new(2, 64);
        let a = ingest("a", vec![0, 1, 2]);
        let b = ValidatedIndexArray::ingest(
            "a",
            vec![0, 1, 2],
            usize::MAX,
            Provenance::Generated { seed: 7 },
        )
        .unwrap();
        cache.verdict_for(&a, true).unwrap();
        let (_, lookup) = cache.verdict_for(&b, true).unwrap();
        assert_eq!(lookup, Lookup::Miss, "different provenance, different key");
    }

    #[test]
    fn warm_entries_serve_and_are_counted_separately() {
        let cache = ShardedVerdictCache::new(2, 64);
        let a = ingest("a", vec![0, 1, 2]);
        let key = VerdictKey::of(&a, InspectorKind::Monotone);
        cache.insert_warm(
            key,
            MonotoneVerdict {
                nonstrict: true,
                strict: true,
                first_violation: None,
                len: 3,
            },
        );
        let (v, lookup) = cache.verdict_for(&a, true).unwrap();
        assert_eq!(lookup, Lookup::WarmHit);
        assert!(v.strict);
        let s = cache.stats();
        assert_eq!((s.warm_hits, s.misses), (1, 0));
    }

    #[test]
    fn eviction_pressure_is_bounded_per_shard() {
        let cache = ShardedVerdictCache::new(1, 4);
        for i in 0..32usize {
            let a = ingest("a", vec![i, i + 1, i + 2]);
            cache.verdict_for(&a, true).unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.entries, 4);
        assert_eq!(s.evictions, 28);
        assert_eq!(s.misses, 32);
    }

    #[test]
    fn guard_over_the_shard_source_reports_origins_and_denies_bypass() {
        let source = ShardSource {
            cache: Arc::new(ShardedVerdictCache::new(2, 16)),
            paranoid: true,
        };
        let exec = GuardedExecutor::with_source(None, Box::new(source.clone())).unwrap();
        let mut a = ingest("a", vec![0, 1, 2, 3]);
        for want in [Lookup::Miss, Lookup::Hit] {
            let d = exec.decide_recoverable(
                "k",
                &Bindings::new(),
                &[a.view(MonotoneReq::Strict)],
                None,
            );
            assert_eq!(d.inspected[0].origin, VerdictOrigin::Cache(want));
        }
        // An unannounced write is denied before any cache lookup.
        a.bypass_validation_mut()[1] = 2;
        let d =
            exec.decide_recoverable("k", &Bindings::new(), &[a.view(MonotoneReq::Strict)], None);
        assert!(matches!(
            d.verdict.reason,
            Some(ExecError::InvalidIndexArray { .. })
        ));
        assert!(d.inspected.is_empty());
        let s = source.cache.stats();
        assert_eq!((s.misses, s.hits), (1, 1), "{s:?}");
    }
}
