//! The spec cache: content-hashed memoization of
//! [`ProblemSpec::from_source_str`].
//!
//! Parsing a `.loop` source and auto-deriving its configuration (term
//! degree, input ranges, extended terms) is pure in the source bytes,
//! so the cache key is simply [`fnv1a64`] over the source. Keys are
//! *byte*-sensitive: any mutation — whitespace, comments, reordering —
//! misses, which keeps the cache trivially sound (a hit can never serve
//! a spec derived from different bytes).
//!
//! Submissions may name their program via the API while sharing source
//! bytes, so cached specs are stored under the parser's fallback name
//! and [`SpecCache::fetch`] re-applies the caller's name on each hit.

use gcln_engine::cache::{fnv1a64, CacheStats, ContentCache};
use gcln_engine::{ProblemSpec, SpecError};

/// A shared memo of parsed [`ProblemSpec`]s keyed by source bytes: a
/// [`ContentCache`] whose tag is the source itself, so a hash collision
/// re-parses as a miss and never serves another program's spec.
#[derive(Debug)]
pub struct SpecCache {
    cache: ContentCache<ProblemSpec>,
}

/// Default [`SpecCache`] capacity; specs are much smaller than trace
/// entries, so the default is roomier.
pub const DEFAULT_SPEC_CAPACITY: usize = 1024;

impl Default for SpecCache {
    fn default() -> SpecCache {
        SpecCache::new()
    }
}

impl SpecCache {
    /// A fresh cache with the default capacity.
    pub fn new() -> SpecCache {
        SpecCache::with_capacity(DEFAULT_SPEC_CAPACITY)
    }

    /// A fresh cache holding at most `capacity` entries (min 1); the
    /// oldest entry is evicted beyond that.
    pub fn with_capacity(capacity: usize) -> SpecCache {
        SpecCache { cache: ContentCache::with_capacity(capacity) }
    }

    /// The cache key for a source: FNV-1a 64 over its bytes.
    pub fn key(source: &str) -> u64 {
        fnv1a64(source.as_bytes())
    }

    /// Returns the spec for a source, parsing and deriving configuration
    /// only on the first sighting of these exact bytes. `name` is the
    /// submission's program name, applied to the returned copy when the
    /// source has no explicit `program <name>;` header (the cached entry
    /// itself stays name-neutral).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when the source fails to parse or resolve
    /// (parse failures are not cached — they are cheap to re-diagnose
    /// and should not occupy memory).
    pub fn fetch(&self, source: &str, name: Option<&str>) -> Result<(u64, ProblemSpec), SpecError> {
        let entry = match self.cache.lookup(source) {
            Some(entry) => entry,
            None => self.cache.insert(
                source.to_string(),
                ProblemSpec::from_source_str(gcln_lang::Program::DEFAULT_NAME, source)?,
            ),
        };
        let mut spec = (*entry).clone();
        if let Some(name) = name {
            if !spec.problem.program.has_explicit_name() {
                spec.problem.name = name.to_string();
            }
        }
        Ok((SpecCache::key(source), spec))
    }

    /// Current hit/miss/entry counters.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "inputs n; pre n >= 0; post x == n * n;
        x = 0; i = 0; while (i < n) { i = i + 1; x = x + 2 * i - 1; }";

    #[test]
    fn identical_bytes_hit_and_mutations_miss() {
        let cache = SpecCache::new();
        let (k1, _) = cache.fetch(SRC, None).unwrap();
        let (k2, _) = cache.fetch(SRC, None).unwrap();
        assert_eq!(k1, k2);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        // One extra space is a different submission.
        let mutated = SRC.replacen(';', " ;", 1);
        let (k3, _) = cache.fetch(&mutated, None).unwrap();
        assert_ne!(k1, k3);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn caller_names_apply_per_fetch_without_poisoning_the_entry() {
        let cache = SpecCache::new();
        let (_, a) = cache.fetch(SRC, Some("alpha")).unwrap();
        let (_, b) = cache.fetch(SRC, Some("beta")).unwrap();
        assert_eq!(a.problem.name, "alpha");
        assert_eq!(b.problem.name, "beta");
        assert_eq!(cache.stats().hits, 1, "the rename must not defeat the cache");
        // Explicit program headers win over the caller's name.
        let named = format!("program fixed;\n{SRC}");
        let (_, c) = cache.fetch(&named, Some("ignored")).unwrap();
        assert_eq!(c.problem.name, "fixed");
    }

    #[test]
    fn capacity_evicts_oldest_entries() {
        let cache = SpecCache::with_capacity(2);
        let src = |i: usize| format!("inputs n; pre n >= {i}; x = n;");
        for i in 0..3 {
            cache.fetch(&src(i), None).unwrap();
        }
        assert_eq!(cache.stats().entries, 2);
        // The oldest source re-parses (miss), the newest still hits.
        cache.fetch(&src(0), None).unwrap();
        assert_eq!(cache.stats().hits, 0);
        cache.fetch(&src(2), None).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let cache = SpecCache::new();
        assert!(cache.fetch("while (", None).is_err());
        assert!(cache.fetch("while (", None).is_err());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 2);
    }
}
