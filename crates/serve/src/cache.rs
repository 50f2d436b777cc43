//! Quantized LRU result cache.
//!
//! Keys are the solve kind plus the operating point and workload scale
//! rounded onto a configurable grid, so requests that differ by less
//! than the grid pitch share one entry (a control loop dithering around
//! 3000.2/2999.8 RPM hits the same cached solve). Values are the
//! serialized result payloads verbatim — a hit replays the exact bytes
//! of the original response, keeping repeats bit-identical.
//!
//! A payload is a pure function of its key for the server's lifetime
//! (the package and controller settings are fixed at bind), so entries
//! never go stale and eviction is by capacity alone: exact LRU over one
//! store behind one lock, implemented with a lazy recency queue. Each
//! touch appends a `(seq, key)` marker and only the newest marker per key
//! is live, so `get`/`insert` stay O(1) amortized without an intrusive
//! list. Hit/miss/eviction counts feed the telemetry registry.

use crate::protocol::{SolveKind, SolveSpec};
use oftec_power::Benchmark;
use oftec_telemetry::Counter;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, PoisonError};

pub static CACHE_HITS: Counter = Counter::new("serve.cache.hits");
pub static CACHE_MISSES: Counter = Counter::new("serve.cache.misses");
pub static CACHE_EVICTIONS: Counter = Counter::new("serve.cache.evictions");

/// Quantization grids and eviction limits.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum live entries; 0 disables the cache entirely.
    pub capacity: usize,
    /// Fan-speed grid pitch in RPM.
    pub rpm_grid: f64,
    /// TEC-current grid pitch in amperes.
    pub amps_grid: f64,
    /// Workload-scale grid pitch.
    pub scale_grid: f64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 1024,
            rpm_grid: 1.0,
            amps_grid: 0.01,
            scale_grid: 1e-3,
        }
    }
}

/// Index of the grid cell holding `v` (its raw bits when `grid` is 0).
pub(crate) fn quantize(v: f64, grid: f64) -> i64 {
    if grid > 0.0 {
        (v / grid).round() as i64
    } else {
        v.to_bits() as i64
    }
}

/// The canonical value of grid cell `q`, inverse to [`quantize`].
pub(crate) fn dequantize(q: i64, grid: f64) -> f64 {
    if grid > 0.0 {
        q as f64 * grid
    } else {
        f64::from_bits(q as u64)
    }
}

/// A fully quantized lookup key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    kind: SolveKind,
    benchmark: Benchmark,
    scale_q: i64,
    rpm_q: i64,
    amps_q: i64,
    omega_points: usize,
    current_points: usize,
}

impl CacheKey {
    /// Quantizes a solve spec onto the cache grid.
    pub fn for_spec(spec: &SolveSpec, cfg: &CacheConfig) -> Self {
        Self {
            kind: spec.kind,
            benchmark: spec.benchmark,
            scale_q: quantize(spec.scale, cfg.scale_grid),
            rpm_q: quantize(spec.rpm, cfg.rpm_grid),
            amps_q: quantize(spec.amps, cfg.amps_grid),
            omega_points: spec.omega_points,
            current_points: spec.current_points,
        }
    }

    /// The canonical (de-quantized) workload scale this key represents.
    /// Solving at the canonical scale — not the request's raw scale —
    /// makes every request that maps to this key receive bit-identical
    /// results whether it hit the cache or triggered the solve.
    pub fn canonical_scale(&self, cfg: &CacheConfig) -> f64 {
        dequantize(self.scale_q, cfg.scale_grid)
    }

    /// Canonical fan speed in RPM (see [`CacheKey::canonical_scale`]).
    pub fn canonical_rpm(&self, cfg: &CacheConfig) -> f64 {
        dequantize(self.rpm_q, cfg.rpm_grid)
    }

    /// Canonical TEC current in amperes.
    pub fn canonical_amps(&self, cfg: &CacheConfig) -> f64 {
        dequantize(self.amps_q, cfg.amps_grid)
    }
}

struct Entry {
    payload: String,
    /// Sequence number of this key's newest recency marker.
    touched: u64,
}

struct Inner {
    /// Ordered map: iteration order is the key order, not hasher state,
    /// keeping every walk over the store deterministic.
    map: BTreeMap<CacheKey, Entry>,
    /// Recency markers, oldest first. Stale markers (seq != entry.touched)
    /// are skipped during eviction and compaction.
    order: VecDeque<(u64, CacheKey)>,
    seq: u64,
}

/// The shared cache. All methods take `&self`; a poisoned lock is
/// recovered (cache state is a plain map — no invariant outlives a
/// panicking accessor).
pub struct QuantizedCache {
    cfg: CacheConfig,
    store: Mutex<Inner>,
}

impl QuantizedCache {
    pub fn new(cfg: CacheConfig) -> Self {
        Self {
            cfg,
            store: Mutex::new(Inner {
                map: BTreeMap::new(),
                order: VecDeque::new(),
                seq: 0,
            }),
        }
    }

    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The cache key `spec` maps to. Allocation-free: checked by
    /// `tests/hot_paths_alloc_free.rs`.
    pub fn key_for(&self, spec: &SolveSpec) -> CacheKey {
        CacheKey::for_spec(spec, &self.cfg)
    }

    /// Looks `key` up, refreshing its recency on a hit. Returns the
    /// payload JSON.
    pub fn get(&self, key: &CacheKey) -> Option<String> {
        self.lookup(key, true)
    }

    /// [`QuantizedCache::get`] without touching the hit/miss counters —
    /// the dispatcher's re-check after dequeue uses this so the
    /// request-level hit rate reflects connection-thread lookups only.
    pub fn peek(&self, key: &CacheKey) -> Option<String> {
        self.lookup(key, false)
    }

    fn lookup(&self, key: &CacheKey, count: bool) -> Option<String> {
        if self.cfg.capacity == 0 {
            if count {
                CACHE_MISSES.add(1);
            }
            return None;
        }
        let mut inner = self.store.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = inner.seq;
        let Some(entry) = inner.map.get_mut(key) else {
            if count {
                CACHE_MISSES.add(1);
            }
            return None;
        };
        entry.touched = seq;
        let payload = entry.payload.clone();
        inner.seq += 1;
        inner.order.push_back((seq, *key));
        if count {
            CACHE_HITS.add(1);
        }
        Self::maybe_compact(&mut inner);
        Some(payload)
    }

    /// Inserts (or refreshes) `key`, evicting least-recently-used entries
    /// beyond capacity.
    pub fn insert(&self, key: CacheKey, payload: String) {
        if self.cfg.capacity == 0 {
            return;
        }
        let mut inner = self.store.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = inner.seq;
        inner.seq += 1;
        inner.order.push_back((seq, key));
        inner.map.insert(
            key,
            Entry {
                payload,
                touched: seq,
            },
        );
        while inner.map.len() > self.cfg.capacity {
            match inner.order.pop_front() {
                Some((marker_seq, old_key)) => {
                    // Only a key's newest marker is live; skip stale ones.
                    if inner
                        .map
                        .get(&old_key)
                        .is_some_and(|e| e.touched == marker_seq)
                    {
                        inner.map.remove(&old_key);
                        CACHE_EVICTIONS.add(1);
                    }
                }
                None => break,
            }
        }
        Self::maybe_compact(&mut inner);
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.store
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops stale recency markers once they dominate the queue.
    fn maybe_compact(inner: &mut Inner) {
        if inner.order.len() > 2 * inner.map.len() + 16 {
            let map = &inner.map;
            inner
                .order
                .retain(|(seq, key)| map.get(key).is_some_and(|e| e.touched == *seq));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SolveKind;

    fn spec(rpm: f64, amps: f64) -> SolveSpec {
        SolveSpec {
            kind: SolveKind::Steady,
            benchmark: Benchmark::Quicksort,
            scale: 1.0,
            rpm,
            amps,
            omega_points: 0,
            current_points: 0,
            no_cache: false,
            deadline_ms: None,
        }
    }

    /// Serializes the tests that move the global cache counters, so the
    /// ones asserting counter deltas never see a sibling's lookups.
    fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn cache(capacity: usize) -> QuantizedCache {
        QuantizedCache::new(CacheConfig {
            capacity,
            ..CacheConfig::default()
        })
    }

    #[test]
    fn quantization_collides_nearby_points() {
        let c = cache(8);
        // Sub-grid perturbations share a key...
        assert_eq!(
            c.key_for(&spec(3000.2, 1.5)),
            c.key_for(&spec(2999.8, 1.502))
        );
        // ...while distinct grid cells do not.
        assert_ne!(c.key_for(&spec(3000.0, 1.5)), c.key_for(&spec(3001.0, 1.5)));
        assert_ne!(
            c.key_for(&spec(3000.0, 1.5)),
            c.key_for(&spec(3000.0, 1.51))
        );
        // Kind separates otherwise identical specs.
        let mut opt = spec(0.0, 0.0);
        opt.kind = SolveKind::Optimize;
        assert_ne!(c.key_for(&opt), c.key_for(&spec(0.0, 0.0)));
        // Canonical coordinates land on the grid.
        let k = c.key_for(&spec(3000.2, 1.502));
        assert_eq!(k.canonical_rpm(c.config()), 3000.0);
        assert!((k.canonical_amps(c.config()) - 1.5).abs() < 1e-12);
        assert_eq!(k.canonical_scale(c.config()), 1.0);
    }

    #[test]
    fn hit_returns_exact_payload() {
        let _serial = counter_lock();
        let c = cache(8);
        let k = c.key_for(&spec(3000.0, 1.5));
        assert_eq!(c.get(&k), None);
        c.insert(k, "{\"t\":42.5}".into());
        assert_eq!(c.get(&k).as_deref(), Some("{\"t\":42.5}"));
        // The colliding key hits the same entry.
        let k2 = c.key_for(&spec(2999.9, 1.501));
        assert_eq!(c.get(&k2).as_deref(), Some("{\"t\":42.5}"));
    }

    #[test]
    fn evicts_in_lru_order() {
        let _serial = counter_lock();
        let c = cache(2);
        let (ka, kb, kc) = (
            c.key_for(&spec(1000.0, 0.0)),
            c.key_for(&spec(2000.0, 0.0)),
            c.key_for(&spec(3000.0, 0.0)),
        );
        c.insert(ka, "a".into());
        c.insert(kb, "b".into());
        // Touch `a` so `b` is now least-recently-used.
        assert_eq!(c.get(&ka).as_deref(), Some("a"));
        let before = CACHE_EVICTIONS.get();
        c.insert(kc, "c".into());
        assert_eq!(CACHE_EVICTIONS.get(), before + 1);
        assert_eq!(c.get(&kb), None, "LRU entry must be the one evicted");
        assert_eq!(c.get(&ka).as_deref(), Some("a"));
        assert_eq!(c.get(&kc).as_deref(), Some("c"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let _serial = counter_lock();
        let c = cache(8);
        let k = c.key_for(&spec(4000.0, 2.0));
        let (h0, m0) = (CACHE_HITS.get(), CACHE_MISSES.get());
        c.get(&k);
        c.insert(k, "v".into());
        c.get(&k);
        c.get(&k);
        assert_eq!(CACHE_HITS.get() - h0, 2);
        assert_eq!(CACHE_MISSES.get() - m0, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let _serial = counter_lock();
        let c = cache(0);
        let k = c.key_for(&spec(3000.0, 1.5));
        c.insert(k, "v".into());
        assert_eq!(c.get(&k), None);
        assert!(c.is_empty());
    }

    #[test]
    fn recency_queue_compacts_under_churn() {
        let _serial = counter_lock();
        let c = cache(2);
        let k = c.key_for(&spec(1000.0, 0.0));
        c.insert(k, "v".into());
        for _ in 0..1000 {
            c.get(&k);
        }
        let inner = c.store.lock().unwrap();
        assert!(
            inner.order.len() <= 2 * inner.map.len() + 17,
            "recency queue must stay bounded, got {}",
            inner.order.len()
        );
    }
}
