//! `GET /metrics`: Prometheus text exposition (format 0.0.4) over the
//! scheduler's task timings plus the server's own counters.
//!
//! Series:
//!
//! - `gcln_sched_task_duration_seconds{kind=…}` — histogram of task
//!   execution latency per stage kind (trace/setup/train/extract/
//!   kernel/bounds/fractional/check).
//! - `gcln_sched_queue_wait_seconds` — histogram of ready-queue wait.
//! - `gcln_sched_worker_utilization` — gauge, busy ÷ (uptime × workers).
//! - `gcln_sched_workers`, `gcln_sched_jobs_total{state=…}`,
//!   `gcln_sched_tasks_executed_total` — pool shape and volume.
//! - `gcln_sched_task_retries_total`, `gcln_sched_task_panics_total`,
//!   `gcln_sched_jobs_quarantined_total` — fault-tolerance volume:
//!   transient faults retried, permanent task panics, and jobs failed
//!   fast by the circuit breaker.
//! - `gcln_serve_cache_requests_total{cache=…,result=…}` and
//!   `gcln_serve_cache_entries{cache=…}` — spec/trace cache hit ratios.
//! - `gcln_serve_jobs_admitted_total`, `gcln_serve_rate_limited_total`,
//!   `gcln_serve_journal_compactions_total` — service counters.
//! - `gcln_serve_journal_skipped_lines_total`,
//!   `gcln_serve_journal_resubmitted_total` — journal recovery: corrupt
//!   records dropped at open, and admitted-but-incomplete jobs
//!   resubmitted after a restart.

use gcln_engine::cache::CacheStats;
use gcln_sched::metrics::{HistogramSnapshot, MetricsSnapshot, BUCKET_BOUNDS};
use std::fmt::Write;

/// Server-side counter values rendered next to the scheduler snapshot.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeCounters {
    /// `POST /jobs` requests rejected with 429.
    pub rate_limited: u64,
    /// Journal rewrite passes performed.
    pub journal_compactions: u64,
    /// Jobs admitted by this process.
    pub jobs_admitted: u64,
    /// Corrupt journal records dropped at open (torn tails, checksum
    /// mismatches, unparseable payloads).
    pub journal_skipped_lines: u64,
    /// Admitted-but-incomplete journal records resubmitted at startup.
    pub journal_resubmitted: u64,
}

fn render_histogram(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    let cumulative = h.cumulative();
    for (i, bound) in BUCKET_BOUNDS.iter().enumerate() {
        let count = cumulative.get(i).copied().unwrap_or(0);
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{bound}\"}} {count}");
    }
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{name}_sum{{{labels}}} {:.6}", h.sum);
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count);
}

/// Renders the full exposition document.
pub fn render(
    sched: &MetricsSnapshot,
    spec_cache: CacheStats,
    trace_cache: CacheStats,
    counters: ServeCounters,
) -> String {
    let mut out = String::with_capacity(4096);
    let o = &mut out;

    let _ = writeln!(o, "# HELP gcln_sched_task_duration_seconds Task execution latency by stage kind.");
    let _ = writeln!(o, "# TYPE gcln_sched_task_duration_seconds histogram");
    for (kind, histogram) in &sched.tasks {
        render_histogram(
            o,
            "gcln_sched_task_duration_seconds",
            &format!("kind=\"{kind}\""),
            histogram,
        );
    }

    let _ = writeln!(o, "# HELP gcln_sched_queue_wait_seconds Ready-queue wait before a worker picked a task.");
    let _ = writeln!(o, "# TYPE gcln_sched_queue_wait_seconds histogram");
    render_histogram(o, "gcln_sched_queue_wait_seconds", "", &sched.queue_wait);

    let _ = writeln!(o, "# HELP gcln_sched_worker_utilization Busy fraction of the worker pool since start.");
    let _ = writeln!(o, "# TYPE gcln_sched_worker_utilization gauge");
    let _ = writeln!(o, "gcln_sched_worker_utilization {:.6}", sched.utilization());
    let _ = writeln!(o, "# TYPE gcln_sched_workers gauge");
    let _ = writeln!(o, "gcln_sched_workers {}", sched.workers);
    let _ = writeln!(o, "# TYPE gcln_sched_uptime_seconds gauge");
    let _ = writeln!(o, "gcln_sched_uptime_seconds {:.3}", sched.uptime.as_secs_f64());

    let _ = writeln!(o, "# TYPE gcln_sched_jobs_total counter");
    let _ = writeln!(o, "gcln_sched_jobs_total{{state=\"submitted\"}} {}", sched.jobs_submitted);
    let _ = writeln!(o, "gcln_sched_jobs_total{{state=\"completed\"}} {}", sched.jobs_completed);
    let _ = writeln!(o, "# TYPE gcln_sched_tasks_executed_total counter");
    let _ = writeln!(o, "gcln_sched_tasks_executed_total {}", sched.tasks_executed);
    let _ = writeln!(o, "# HELP gcln_sched_task_retries_total Stage tasks re-enqueued after a transient fault.");
    let _ = writeln!(o, "# TYPE gcln_sched_task_retries_total counter");
    let _ = writeln!(o, "gcln_sched_task_retries_total {}", sched.tasks_retried);
    let _ = writeln!(o, "# HELP gcln_sched_task_panics_total Stage tasks that failed their job permanently by panicking.");
    let _ = writeln!(o, "# TYPE gcln_sched_task_panics_total counter");
    let _ = writeln!(o, "gcln_sched_task_panics_total {}", sched.tasks_panicked);
    let _ = writeln!(o, "# HELP gcln_sched_jobs_quarantined_total Jobs failed fast by the spec-hash circuit breaker.");
    let _ = writeln!(o, "# TYPE gcln_sched_jobs_quarantined_total counter");
    let _ = writeln!(o, "gcln_sched_jobs_quarantined_total {}", sched.jobs_quarantined);

    let _ = writeln!(o, "# HELP gcln_serve_cache_requests_total Spec/trace cache lookups by result.");
    let _ = writeln!(o, "# TYPE gcln_serve_cache_requests_total counter");
    let _ = writeln!(o, "# TYPE gcln_serve_cache_entries gauge");
    for (label, stats) in [("spec", spec_cache), ("trace", trace_cache)] {
        let _ = writeln!(
            o,
            "gcln_serve_cache_requests_total{{cache=\"{label}\",result=\"hit\"}} {}",
            stats.hits
        );
        let _ = writeln!(
            o,
            "gcln_serve_cache_requests_total{{cache=\"{label}\",result=\"miss\"}} {}",
            stats.misses
        );
        let _ = writeln!(o, "gcln_serve_cache_entries{{cache=\"{label}\"}} {}", stats.entries);
    }

    let _ = writeln!(o, "# TYPE gcln_serve_jobs_admitted_total counter");
    let _ = writeln!(o, "gcln_serve_jobs_admitted_total {}", counters.jobs_admitted);
    let _ = writeln!(o, "# TYPE gcln_serve_rate_limited_total counter");
    let _ = writeln!(o, "gcln_serve_rate_limited_total {}", counters.rate_limited);
    let _ = writeln!(o, "# TYPE gcln_serve_journal_compactions_total counter");
    let _ = writeln!(o, "gcln_serve_journal_compactions_total {}", counters.journal_compactions);
    let _ = writeln!(o, "# TYPE gcln_serve_journal_skipped_lines_total counter");
    let _ = writeln!(o, "gcln_serve_journal_skipped_lines_total {}", counters.journal_skipped_lines);
    let _ = writeln!(o, "# TYPE gcln_serve_journal_resubmitted_total counter");
    let _ = writeln!(o, "gcln_serve_journal_resubmitted_total {}", counters.journal_resubmitted);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcln_sched::{SchedConfig, Scheduler};

    #[test]
    fn exposition_is_well_formed() {
        let sched = Scheduler::new(SchedConfig::with_workers(1));
        let snapshot = sched.metrics();
        sched.shutdown();
        let text = render(
            &snapshot,
            CacheStats { hits: 3, misses: 1, entries: 1 },
            CacheStats { hits: 0, misses: 2, entries: 2 },
            ServeCounters {
                rate_limited: 5,
                journal_compactions: 1,
                jobs_admitted: 9,
                journal_skipped_lines: 2,
                journal_resubmitted: 1,
            },
        );
        // Histogram invariants: a +Inf bucket per histogram, sum/count
        // lines, and every sample line is `name{labels} value`.
        assert!(text.contains("gcln_sched_queue_wait_seconds_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("gcln_sched_worker_utilization "));
        assert!(text.contains("gcln_serve_cache_requests_total{cache=\"spec\",result=\"hit\"} 3"));
        assert!(text.contains("gcln_serve_rate_limited_total 5"));
        assert!(text.contains("gcln_serve_journal_compactions_total 1"));
        assert!(text.contains("gcln_sched_task_retries_total 0"));
        assert!(text.contains("gcln_sched_task_panics_total 0"));
        assert!(text.contains("gcln_sched_jobs_quarantined_total 0"));
        assert!(text.contains("gcln_serve_journal_skipped_lines_total 2"));
        assert!(text.contains("gcln_serve_journal_resubmitted_total 1"));
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!series.is_empty());
            assert!(value.parse::<f64>().is_ok(), "non-numeric sample: {line}");
        }
    }
}
