//! Scheduler metrics: task latency histograms per stage kind, queue
//! wait, worker busy time, and job counters.
//!
//! The histograms use fixed second-scale bucket bounds so snapshots can
//! be rendered directly in Prometheus exposition format (`gcln-serve`'s
//! `GET /metrics` does exactly that — Prometheus histograms want
//! cumulative bucket counts, which [`HistogramSnapshot::cumulative`]
//! provides).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Histogram bucket upper bounds, in seconds. The last implicit bucket
/// is `+Inf`.
pub const BUCKET_BOUNDS: [f64; 14] =
    [0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0];

/// A fixed-bucket latency histogram.
#[derive(Clone, Debug, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts; one per [`BUCKET_BOUNDS`]
    /// entry plus a final overflow (`+Inf`) bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values, seconds.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Cumulative counts per bound (Prometheus `le` semantics),
    /// including the final `+Inf` entry (== `count`).
    pub fn cumulative(&self) -> Vec<u64> {
        let mut total = 0;
        self.counts
            .iter()
            .map(|c| {
                total += c;
                total
            })
            .collect()
    }
}

#[derive(Debug, Default)]
struct Histogram {
    counts: [u64; BUCKET_BOUNDS.len() + 1],
    sum: f64,
    count: u64,
}

impl Histogram {
    fn observe(&mut self, secs: f64) {
        let idx = BUCKET_BOUNDS.iter().position(|&b| secs <= b).unwrap_or(BUCKET_BOUNDS.len());
        self.counts[idx] += 1;
        self.sum += secs;
        self.count += 1;
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot { counts: self.counts.to_vec(), sum: self.sum, count: self.count }
    }
}

/// Shared scheduler metrics. All methods are thread-safe; workers call
/// the `observe_*` family, consumers call [`Metrics::snapshot`].
#[derive(Debug)]
pub struct Metrics {
    started_at: Instant,
    workers: usize,
    busy_ns: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    tasks_executed: AtomicU64,
    tasks_retried: AtomicU64,
    tasks_panicked: AtomicU64,
    jobs_quarantined: AtomicU64,
    queue_wait: Mutex<Histogram>,
    /// Task execution latency per stage kind (label = `TaskKind::as_str`).
    tasks: Mutex<HashMap<&'static str, Histogram>>,
}

impl Metrics {
    pub(crate) fn new(workers: usize) -> Metrics {
        Metrics {
            started_at: Instant::now(),
            workers,
            busy_ns: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            tasks_executed: AtomicU64::new(0),
            tasks_retried: AtomicU64::new(0),
            tasks_panicked: AtomicU64::new(0),
            jobs_quarantined: AtomicU64::new(0),
            queue_wait: Mutex::new(Histogram::default()),
            tasks: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn job_submitted(&self) {
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn job_completed(&self) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn task_retried(&self) {
        self.tasks_retried.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn task_panicked(&self) {
        self.tasks_panicked.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn job_quarantined(&self) {
        self.jobs_quarantined.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn observe_queue_wait(&self, wait: Duration) {
        self.queue_wait.lock().unwrap().observe(wait.as_secs_f64());
    }

    pub(crate) fn observe_task(&self, kind: &'static str, took: Duration) {
        self.tasks_executed.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(took.as_nanos().min(u128::from(u64::MAX)) as u64, Ordering::Relaxed);
        self.tasks.lock().unwrap().entry(kind).or_default().observe(took.as_secs_f64());
    }

    /// A point-in-time copy of every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut tasks: Vec<(String, HistogramSnapshot)> =
            self.tasks.lock().unwrap().iter().map(|(k, h)| (k.to_string(), h.snapshot())).collect();
        tasks.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            workers: self.workers,
            uptime: self.started_at.elapsed(),
            busy: Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            tasks_retried: self.tasks_retried.load(Ordering::Relaxed),
            tasks_panicked: self.tasks_panicked.load(Ordering::Relaxed),
            jobs_quarantined: self.jobs_quarantined.load(Ordering::Relaxed),
            queue_wait: self.queue_wait.lock().unwrap().snapshot(),
            tasks,
        }
    }
}

/// Everything [`Metrics`] tracks, frozen at one instant.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Worker-pool width.
    pub workers: usize,
    /// Time since the scheduler started.
    pub uptime: Duration,
    /// Total task execution time across all workers.
    pub busy: Duration,
    /// Jobs ever submitted.
    pub jobs_submitted: u64,
    /// Jobs that produced an outcome.
    pub jobs_completed: u64,
    /// Stage tasks executed (all kinds).
    pub tasks_executed: u64,
    /// Stage tasks re-enqueued after a transient (injected) fault.
    pub tasks_retried: u64,
    /// Stage tasks that failed their job permanently by panicking
    /// (genuine panics, plus injected panics past the retry budget).
    pub tasks_panicked: u64,
    /// Jobs failed fast by the spec-hash circuit breaker.
    pub jobs_quarantined: u64,
    /// Time tasks spent in the ready queue before a worker picked them.
    pub queue_wait: HistogramSnapshot,
    /// Execution latency per task kind, sorted by kind label.
    pub tasks: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Fraction of the pool's total capacity spent executing tasks
    /// (`busy / (uptime × workers)`), clamped to `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let denom = self.uptime.as_secs_f64() * self.workers.max(1) as f64;
        if denom <= 0.0 {
            return 0.0;
        }
        (self.busy.as_secs_f64() / denom).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_cumulative_counts() {
        let mut h = Histogram::default();
        h.observe(0.0001); // bucket 0 (<= 0.0005)
        h.observe(0.003); // <= 0.005
        h.observe(99.0); // +Inf overflow
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.counts.len(), BUCKET_BOUNDS.len() + 1);
        assert_eq!(snap.counts[0], 1);
        assert_eq!(snap.counts[BUCKET_BOUNDS.len()], 1);
        let cum = snap.cumulative();
        assert_eq!(*cum.last().unwrap(), 3);
        assert!(cum.windows(2).all(|w| w[0] <= w[1]), "cumulative must be monotone");
    }

    #[test]
    fn utilization_is_bounded() {
        let m = Metrics::new(2);
        m.observe_task("train", Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(2));
        let snap = m.snapshot();
        assert!(snap.utilization() >= 0.0 && snap.utilization() <= 1.0);
        assert_eq!(snap.tasks_executed, 1);
        assert_eq!(snap.tasks[0].0, "train");
    }
}
