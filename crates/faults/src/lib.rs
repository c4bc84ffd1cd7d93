//! # gcln-faults — deterministic fault injection
//!
//! A seeded [`FaultPlan`] decides, at named *sites* threaded through the
//! scheduler and the HTTP service, whether the nth query at that site
//! fires a fault. Decisions are a pure function of `(seed, site, n)`:
//! replaying the same plan against the same query sequence reproduces
//! the same faults, which is what lets the chaos suite in CI assert
//! recovery behaviour instead of hoping to stumble over it.
//!
//! The handle everything carries is [`Faults`] — a cloneable
//! `Option<Arc<…>>`. When no plan is configured the option is `None`
//! and every query is a single branch on a niche-packed pointer: the
//! production fast path pays nothing.
//!
//! ## Plan specs
//!
//! Plans parse from a compact spec string (CLI `--faults`, env
//! `GCLN_FAULTS`):
//!
//! ```text
//! seed=42,sched.task_panic=0.25,journal.torn_write=1.0:2
//! ```
//!
//! Each site entry is `<site>=<probability>` with an optional `:<limit>`
//! capping how many times the site may fire over the process lifetime
//! (`1.0:2` = the first two queries fire, the rest never do — handy for
//! "panic exactly twice then recover" tests).
//!
//! ## Sites
//!
//! | Site | Effect when fired |
//! |---|---|
//! | `sched.task_panic` | A stage task panics *before* its closure is consumed (transient: the scheduler may retry it) |
//! | `journal.torn_write` | A journal append persists only a prefix of the record and reports an error |
//! | `journal.bit_flip` | A journal append silently persists one flipped bit (detected by CRC at replay) |
//! | `serve.conn_reset` | An accepted connection is dropped before reading the request |
//! | `serve.conn_stall` | Request handling stalls for a bounded, roll-derived duration |

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The named injection sites. Plans reject unknown site names so a
/// typo'd spec fails loudly instead of silently injecting nothing.
pub mod site {
    /// A stage task panics before execution (transient, retryable).
    pub const SCHED_TASK_PANIC: &str = "sched.task_panic";
    /// A journal append writes a prefix of the frame, then errors.
    pub const JOURNAL_TORN_WRITE: &str = "journal.torn_write";
    /// A journal append silently persists a single flipped bit.
    pub const JOURNAL_BIT_FLIP: &str = "journal.bit_flip";
    /// An accepted connection is dropped before the request is read.
    pub const SERVE_CONN_RESET: &str = "serve.conn_reset";
    /// Request handling sleeps for a bounded roll-derived duration.
    pub const SERVE_CONN_STALL: &str = "serve.conn_stall";

    /// Every site a plan may name.
    pub const ALL: [&str; 5] = [
        SCHED_TASK_PANIC,
        JOURNAL_TORN_WRITE,
        JOURNAL_BIT_FLIP,
        SERVE_CONN_RESET,
        SERVE_CONN_STALL,
    ];
}

/// The panic payload used by [`Faults::maybe_panic`], so `catch_unwind`
/// sites can tell an injected fault from a genuine bug if they care to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedPanic(pub &'static str);

#[derive(Debug)]
struct SiteState {
    name: &'static str,
    /// Probability scaled to a u64 threshold: fire iff `draw < threshold`
    /// (saturated to `u64::MAX` so probability 1.0 always fires).
    threshold: u64,
    /// Cap on lifetime fires; `u64::MAX` = unlimited.
    limit: u64,
    fired: AtomicU64,
    queries: AtomicU64,
}

/// A parsed, seeded fault plan. Shared via [`Faults`].
pub struct FaultPlan {
    seed: u64,
    sites: Vec<SiteState>,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("sites", &self.sites.iter().map(|s| s.name).collect::<Vec<_>>())
            .finish()
    }
}

/// SplitMix64: the standard 64-bit finalizing mixer. Deterministic,
/// dependency-free, and more than uniform enough for fault coin-flips.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the site name, to fold it into the seed.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl FaultPlan {
    /// The plan's seed, echoed in diagnostics so a failing chaos run can
    /// be replayed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn site(&self, name: &str) -> Option<&SiteState> {
        self.sites.iter().find(|s| s.name == name)
    }

    /// Queries the site: `Some(roll)` when the fault fires (the roll is
    /// a deterministic 64-bit value sites use to derive cut positions,
    /// bit indexes, stall durations), `None` otherwise.
    fn fire(&self, name: &str) -> Option<u64> {
        let site = self.site(name)?;
        let n = site.queries.fetch_add(1, Ordering::Relaxed);
        let draw = splitmix64(self.seed ^ fnv1a(site.name) ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // `u64::MAX` means probability 1.0: fire unconditionally.
        if site.threshold != u64::MAX && draw >= site.threshold {
            return None;
        }
        // Enforce the lifetime fire cap without a lock: claim a slot,
        // give it back (harmlessly — the cap stays crossed) if over.
        if site.fired.fetch_add(1, Ordering::Relaxed) >= site.limit {
            return None;
        }
        Some(splitmix64(draw))
    }

    fn fired_total(&self) -> u64 {
        self.sites.iter().map(|s| s.fired.load(Ordering::Relaxed).min(s.limit)).sum()
    }
}

/// The cloneable handle: `Faults::disabled()` everywhere by default, a
/// parsed plan under chaos testing.
#[derive(Clone, Debug, Default)]
pub struct Faults(Option<Arc<FaultPlan>>);

impl Faults {
    /// The no-op handle: every query returns "no fault" after one branch.
    pub fn disabled() -> Faults {
        Faults(None)
    }

    /// True when a plan is loaded.
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// The plan's seed, if one is loaded.
    pub fn seed(&self) -> Option<u64> {
        self.0.as_ref().map(|p| p.seed)
    }

    /// Total faults fired so far across all sites (0 when disabled).
    pub fn fired_total(&self) -> u64 {
        self.0.as_ref().map_or(0, |p| p.fired_total())
    }

    /// Parses a plan spec: comma-separated `seed=N` and
    /// `<site>=<prob>[:<limit>]` entries. `seed` defaults to 0; at least
    /// one site entry is required (an empty plan is a spec typo, not a
    /// useful object).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry: unknown site,
    /// probability outside `[0, 1]`, or unparseable number.
    pub fn parse(spec: &str) -> Result<Faults, String> {
        let mut seed = 0u64;
        let mut sites: Vec<SiteState> = Vec::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry `{entry}` is not key=value"))?;
            if key == "seed" {
                seed = value.parse().map_err(|_| format!("bad fault seed `{value}`"))?;
                continue;
            }
            let name = *site::ALL
                .iter()
                .find(|s| **s == key)
                .ok_or_else(|| format!("unknown fault site `{key}`"))?;
            let (prob_str, limit) = match value.split_once(':') {
                Some((p, l)) => {
                    (p, l.parse().map_err(|_| format!("bad fire limit `{l}` for `{key}`"))?)
                }
                None => (value, u64::MAX),
            };
            let prob: f64 = prob_str
                .parse()
                .map_err(|_| format!("bad probability `{prob_str}` for `{key}`"))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!("probability for `{key}` must be in [0,1], got {prob}"));
            }
            let threshold = if prob >= 1.0 { u64::MAX } else { (prob * u64::MAX as f64) as u64 };
            if sites.iter().any(|s| s.name == name) {
                return Err(format!("duplicate fault site `{key}`"));
            }
            sites.push(SiteState {
                name,
                threshold,
                limit,
                fired: AtomicU64::new(0),
                queries: AtomicU64::new(0),
            });
        }
        if sites.is_empty() {
            return Err("fault spec names no sites".into());
        }
        Ok(Faults(Some(Arc::new(FaultPlan { seed, sites }))))
    }

    /// Loads a plan from an environment variable, or the disabled handle
    /// when unset/empty.
    ///
    /// # Errors
    ///
    /// Propagates [`Faults::parse`] errors for a set-but-malformed value.
    pub fn from_env(var: &str) -> Result<Faults, String> {
        match std::env::var(var) {
            Ok(spec) if !spec.trim().is_empty() => Self::parse(&spec),
            _ => Ok(Faults::disabled()),
        }
    }

    /// Queries `site`; `Some(roll)` when a fault fires.
    #[inline]
    pub fn fire(&self, site: &str) -> Option<u64> {
        let plan = self.0.as_ref()?;
        plan.fire(site)
    }

    /// Boolean form of [`Faults::fire`].
    #[inline]
    pub fn should_fire(&self, site: &str) -> bool {
        self.fire(site).is_some()
    }

    /// Panics with an [`InjectedPanic`] payload when the site fires.
    /// Callers wrap the query + the guarded work in one `catch_unwind`.
    #[inline]
    pub fn maybe_panic(&self, site: &'static str) {
        if self.should_fire(site) {
            std::panic::panic_any(InjectedPanic(site));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_fires() {
        let f = Faults::disabled();
        assert!(!f.is_active());
        for _ in 0..1000 {
            assert!(f.fire(site::SCHED_TASK_PANIC).is_none());
        }
    }

    #[test]
    fn decisions_replay_bit_identically_from_the_seed() {
        let spec = "seed=42,sched.task_panic=0.3,journal.bit_flip=0.7";
        let a = Faults::parse(spec).unwrap();
        let b = Faults::parse(spec).unwrap();
        let run = |f: &Faults| -> Vec<Option<u64>> {
            (0..200)
                .map(|i| {
                    if i % 2 == 0 {
                        f.fire(site::SCHED_TASK_PANIC)
                    } else {
                        f.fire(site::JOURNAL_BIT_FLIP)
                    }
                })
                .collect()
        };
        assert_eq!(run(&a), run(&b));
        // A different seed produces a different decision stream.
        let c = Faults::parse("seed=43,sched.task_panic=0.3,journal.bit_flip=0.7").unwrap();
        assert_ne!(run(&a), run(&c));
    }

    #[test]
    fn probability_bounds_fire_always_and_never() {
        let f = Faults::parse("seed=7,sched.task_panic=1.0,journal.bit_flip=0.0").unwrap();
        for _ in 0..100 {
            assert!(f.should_fire(site::SCHED_TASK_PANIC));
            assert!(!f.should_fire(site::JOURNAL_BIT_FLIP));
        }
        // Unlisted sites never fire even on an active plan.
        assert!(!f.should_fire(site::SERVE_CONN_RESET));
    }

    #[test]
    fn fire_limit_caps_lifetime_fires() {
        let f = Faults::parse("seed=1,sched.task_panic=1.0:3").unwrap();
        let fired: usize = (0..50).filter(|_| f.should_fire(site::SCHED_TASK_PANIC)).count();
        assert_eq!(fired, 3);
        assert_eq!(f.fired_total(), 3);
    }

    #[test]
    fn intermediate_probability_fires_at_roughly_its_rate() {
        let f = Faults::parse("seed=99,sched.task_panic=0.25").unwrap();
        let fired: usize = (0..4000).filter(|_| f.should_fire(site::SCHED_TASK_PANIC)).count();
        let rate = fired as f64 / 4000.0;
        assert!((0.2..0.3).contains(&rate), "rate {rate} too far from 0.25");
    }

    #[test]
    fn maybe_panic_throws_a_typed_payload() {
        let f = Faults::parse("seed=1,sched.task_panic=1.0").unwrap();
        let err = std::panic::catch_unwind(|| f.maybe_panic(site::SCHED_TASK_PANIC)).unwrap_err();
        let payload = err.downcast_ref::<InjectedPanic>().expect("typed payload");
        assert_eq!(payload.0, site::SCHED_TASK_PANIC);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "seed=42",                      // no sites
            "sched.task_panic",             // not key=value
            "bogus.site=0.5",               // unknown site
            "sched.task_panic=1.5",         // probability out of range
            "sched.task_panic=x",           // unparseable probability
            "sched.task_panic=0.5:x",       // unparseable limit
            "seed=nope,sched.task_panic=1", // unparseable seed
        ] {
            assert!(Faults::parse(bad).is_err(), "spec `{bad}` should be rejected");
        }
        // A valid spec round-trips its seed.
        let f = Faults::parse("seed=77,serve.conn_reset=0.5").unwrap();
        assert_eq!(f.seed(), Some(77));
    }

    #[test]
    fn from_env_handles_unset_and_malformed() {
        assert!(!Faults::from_env("GCLN_FAULTS_TEST_UNSET_VAR").unwrap().is_active());
        std::env::set_var("GCLN_FAULTS_TEST_BAD", "bogus.site=1");
        assert!(Faults::from_env("GCLN_FAULTS_TEST_BAD").is_err());
        std::env::set_var("GCLN_FAULTS_TEST_OK", "seed=5,serve.conn_stall=0.1");
        let f = Faults::from_env("GCLN_FAULTS_TEST_OK").unwrap();
        assert!(f.is_active());
        assert_eq!(f.seed(), Some(5));
    }
}
