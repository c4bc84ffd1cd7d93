//! Shared caches for repeat inference over identical sources.
//!
//! The service scenario (`gcln serve`) submits the same `.loop` source
//! many times — interactive users iterate, suites re-run, and load
//! generators hammer one program. Two layers of reuse exist:
//!
//! - **Spec caching** (owned by the front end, e.g. `gcln-serve`):
//!   `ProblemSpec::from_source_str` re-parses and re-derives
//!   configuration on every call; hashing the source bytes memoizes
//!   that work.
//! - **Trace caching** (owned by the engine, this module): the Trace
//!   stage re-runs the program interpreter over the sampled input grid
//!   on every job. Trace collection is a pure function of the problem
//!   (source, input ranges, extended terms) and the trace-relevant
//!   pipeline settings, so a [`TraceCache`] keyed by that tuple returns
//!   bit-identical training data without re-execution.
//!
//! Keys are FNV-1a 64-bit content hashes ([`fnv1a64`]). The cache is
//! `Mutex`-guarded and shared across worker threads via `Arc`; entries
//! are `Arc`ed so a hit is one clone of three `Vec`s, not a re-run of
//! the interpreter.

use crate::run::PipelineConfig;
use gcln_problems::Problem;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// FNV-1a 64-bit hash — the workspace's standard content hash (the
/// vendored proptest shim uses the same constants for test seeding).
/// Stable across runs, platforms, and compilers, so hashes are safe to
/// persist in journals and compare across processes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The cached products of one Trace stage: training points, widened
/// validation points, and widened check tuples — everything
/// `Engine::run_with_events` derives before the first Train stage.
#[derive(Clone, Debug)]
pub struct TraceData {
    /// Per-loop training points over the extended variable space.
    pub points: Vec<Vec<Vec<f64>>>,
    /// Per-loop validation points collected over widened input ranges.
    pub validation_points: Vec<Vec<Vec<f64>>>,
    /// Widened input tuples handed to the checker.
    pub widened: Vec<Vec<i128>>,
}

/// Hit/miss/entry counters for a cache, for `/stats`-style reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// A shared memo of Trace-stage results keyed by
/// `(source, input ranges, extended terms, trace config)`.
///
/// Trace collection is deterministic (seeded interpreter runs over a
/// deterministic input grid), so serving a cached entry is guaranteed
/// bit-identical to re-collecting — the engine's determinism contract
/// is unaffected by cache hits.
///
/// Capacity is bounded (insertion-order eviction): entries retain full
/// training/validation point sets, and a long-lived server sees a new
/// key for every edit of an iterated source — an uncapped map would
/// grow with distinct submissions forever.
#[derive(Debug)]
pub struct TraceCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// Entries keep their full pre-hash tag: FNV-1a is not collision
    /// resistant, and in a multi-user service a crafted collision must
    /// read as a miss, never as another program's trace data.
    map: HashMap<u64, (String, Arc<TraceData>)>,
    /// Keys in insertion order (eviction order).
    order: std::collections::VecDeque<u64>,
}

/// Default [`TraceCache`] capacity; entries are large (full point
/// sets), so the default stays modest.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

impl Default for TraceCache {
    fn default() -> TraceCache {
        TraceCache::new()
    }
}

impl TraceCache {
    /// A fresh cache with the default capacity.
    pub fn new() -> TraceCache {
        TraceCache::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A fresh cache holding at most `capacity` entries (min 1); the
    /// oldest entry is evicted beyond that.
    pub fn with_capacity(capacity: usize) -> TraceCache {
        TraceCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cache tag for a problem/config pair — the full identity the
    /// cache verifies on every hit. Only trace-relevant inputs
    /// contribute: the source text, the (possibly overridden) input
    /// ranges, the extended terms, and the four pipeline settings the
    /// Trace stage reads. Settings that only affect later stages
    /// (epochs, attempts, CEGIS rounds, …) are deliberately excluded so
    /// e.g. `--fast` and default jobs share trace entries.
    pub fn tag(problem: &Problem, config: &PipelineConfig) -> String {
        let mut tag = String::new();
        tag.push_str(&problem.source);
        tag.push('\u{1}');
        for (lo, hi) in &problem.input_ranges {
            tag.push_str(&format!("{lo}:{hi};"));
        }
        tag.push('\u{1}');
        for t in &problem.ext_terms {
            tag.push_str(&t.name());
            tag.push(';');
        }
        tag.push_str(&format!(
            "\u{1}{}|{}|{}|{}",
            config.max_inputs, config.trace_seeds, config.max_samples_per_loop, config.widen_factor
        ));
        tag
    }

    /// The hashed form of [`TraceCache::tag`] (the map key).
    pub fn key(problem: &Problem, config: &PipelineConfig) -> u64 {
        fnv1a64(TraceCache::tag(problem, config).as_bytes())
    }

    /// Looks up a tag, counting the hit or miss. A slot whose stored
    /// tag differs (an FNV collision) reads as a miss.
    pub fn lookup(&self, tag: &str) -> Option<Arc<TraceData>> {
        let key = fnv1a64(tag.as_bytes());
        let found = match self.inner.lock().unwrap().map.get(&key) {
            Some((stored, data)) if stored == tag => Some(data.clone()),
            _ => None,
        };
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts a completed trace under a tag, evicting the oldest
    /// entries beyond capacity. First write wins — for an identical
    /// tag the data is a pure function of the tag, so concurrent
    /// inserts carry identical payloads; a colliding *different* tag
    /// simply never caches.
    pub fn insert(&self, tag: String, data: TraceData) {
        let key = fnv1a64(tag.as_bytes());
        let mut inner = self.inner.lock().unwrap();
        if inner.map.contains_key(&key) {
            return;
        }
        while inner.map.len() >= self.capacity {
            let Some(oldest) = inner.order.pop_front() else { break };
            inner.map.remove(&oldest);
        }
        inner.map.insert(key, (tag, Arc::new(data)));
        inner.order.push_back(key);
    }

    /// Current hit/miss/entry counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.inner.lock().unwrap().map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProblemSpec;

    const SRC: &str = "inputs n; pre n >= 0; post x == n * n;
        x = 0; i = 0; while (i < n) { i = i + 1; x = x + 2 * i - 1; }";

    #[test]
    fn fnv_is_stable_and_content_sensitive() {
        // Reference vectors for the standard FNV-1a 64 parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn key_ignores_stage_settings_but_not_trace_settings() {
        let spec = ProblemSpec::from_source_str("s", SRC).unwrap();
        let base = PipelineConfig::default();
        let k0 = TraceCache::key(&spec.problem, &base);
        // Training-only knobs share the trace entry.
        let fast = PipelineConfig::fast();
        assert_eq!(k0, TraceCache::key(&spec.problem, &fast));
        // Trace knobs split it.
        let mut t = base.clone();
        t.max_inputs += 1;
        assert_ne!(k0, TraceCache::key(&spec.problem, &t));
        let mut w = base.clone();
        w.widen_factor += 1;
        assert_ne!(k0, TraceCache::key(&spec.problem, &w));
        // Overridden input ranges split it too.
        let mut spec2 = ProblemSpec::from_source_str("s", SRC).unwrap();
        spec2.apply_overrides(None, &[(0, 5)]).unwrap();
        assert_ne!(k0, TraceCache::key(&spec2.problem, &base));
    }

    #[test]
    fn lookup_and_insert_count_stats() {
        let cache = TraceCache::new();
        assert!(cache.lookup("t").is_none());
        cache.insert(
            "t".into(),
            TraceData { points: vec![], validation_points: vec![], widened: vec![] },
        );
        assert!(cache.lookup("t").is_some());
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, entries: 1 });
    }

    #[test]
    fn capacity_evicts_oldest_entries() {
        let empty =
            || TraceData { points: vec![], validation_points: vec![], widened: vec![] };
        let cache = TraceCache::with_capacity(2);
        for tag in ["a", "b", "c"] {
            cache.insert(tag.into(), empty());
        }
        assert_eq!(cache.stats().entries, 2);
        assert!(cache.lookup("a").is_none(), "oldest entry must be evicted");
        assert!(cache.lookup("b").is_some() && cache.lookup("c").is_some());
        // Re-inserting an existing tag neither duplicates nor evicts.
        cache.insert("c".into(), empty());
        assert_eq!(cache.stats().entries, 2);
    }
}
