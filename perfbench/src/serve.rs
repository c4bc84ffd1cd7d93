//! The `serve_open` workload: an open loop of `POST /jobs` requests from
//! one generator thread, on the seeded schedule of [`crate::schedule`],
//! against an in-process `gcln_serve` server with a journal. A poller
//! thread reads each job back with `GET /jobs/{id}` at a fixed interval.
//! Latency runs from when a request was *due*, so a stalled generator
//! shows as latency, not as a lighter load.

use crate::report::Report;
use crate::schedule::{open_loop, SourceChoice};
use crate::solo::{scheduler_metrics, Counts, KindTrace};
use crate::stats::{max, median, percentile};
use gcln_engine::{Engine, Job, PipelineConfig, ProblemSpec, TaskKind};
use gcln_sched::metrics::{HistogramSnapshot, MetricsSnapshot, BUCKET_BOUNDS};
use gcln_serve::client::request;
use gcln_serve::json::Json;
use gcln_serve::{start, ServeConfig};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load, requests per second. A burst of these sources drains
/// at about 8 jobs/s on two workers; at 2.5/s the workers are busy about
/// a third of the time and 40 s give the 100 jobs a p90 needs.
const RATE: f64 = 2.5;

/// Latency limit of `within_limit_share`, seconds from due to result.
const LIMIT_S: f64 = 1.0;

/// Scheduler workers of the server.
const WORKERS: usize = 2;

/// Sources re-sent verbatim.
const POOL: usize = 4;

/// Interval between two reads of one job. A job is read at
/// `due + phase + k·POLL`, with its phase spread evenly over `[0, POLL)`
/// by request index, so latencies do not all fall on one grid: on a
/// common grid a run's p90 moves only in whole steps, and a 20 ms step
/// is a tenth of it.
const POLL: Duration = Duration::from_millis(10);

/// The offset into `[0, POLL)` of request `index`'s reads: the
/// golden-ratio sequence, evenly spread over any run of indices.
fn poll_phase(index: usize) -> Duration {
    POLL.mul_f64((index as f64 * 0.618_033_988_749_895).fract())
}

/// How long after its due time a job may take before it counts as lost.
const GIVE_UP: Duration = Duration::from_secs(60);

/// A ps2-sized program that the fast configuration solves; only the
/// program name differs between the sources the workload sends.
const BASE: &str = "inputs m;\n\
    pre m >= 0;\n\
    post 2 * acc == j * j + j;\n\
    acc = 0; j = 0;\n\
    while (j < m) { j = j + 1; acc = acc + j; }\n";

/// The program text a request carries.
fn source(choice: SourceChoice) -> String {
    match choice {
        SourceChoice::Pool(i) => format!("program pool{i};\n{BASE}"),
        SourceChoice::Fresh(tag) => format!("program fresh{tag:016x};\n{BASE}"),
    }
}

/// One job as the client saw it.
struct Seen {
    /// Result seen minus due time.
    latency_s: f64,
    /// The result's `seconds`.
    busy_s: f64,
    /// Reads of the job.
    polls: u64,
    /// Whether it ended `done`, `valid`, and with the reference
    /// invariants.
    ok: bool,
    /// Why not, when not.
    why: String,
}

/// Waits at most `timeout` for `f` to hold, polling every 10 ms.
fn wait_until(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    f()
}

/// The invariants the solo engine learns for the workload's sources.
fn reference() -> (Vec<String>, Counts) {
    let spec = ProblemSpec::from_source_str("reference", &source(SourceChoice::Pool(0)))
        .expect("the base source parses");
    let names = spec.problem.extended_names();
    let outcome = Engine::new().run(&Job::new(spec).with_config(PipelineConfig::fast()));
    let formulas = outcome.loops.iter().map(|l| l.formula.display(&names).to_string()).collect();
    (formulas, Counts::of(&outcome))
}

fn invariants(job: &Json) -> Vec<String> {
    job.get("invariants")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|inv| inv.get("formula").and_then(Json::as_str).map(str::to_string))
        .collect()
}

/// Times one server set-up: start until it answers its first request.
/// It has no journal, so the samples never touch the disk the run's
/// journal is on. The server stops outside the timing.
fn time_setup(config: &ServeConfig) -> f64 {
    let config = ServeConfig { journal: None, ..config.clone() };
    let t0 = Instant::now();
    let server = start(config).expect("start a set-up server");
    let ready =
        request(server.local_addr(), "GET", "/healthz", None).is_ok_and(|r| r.status == 200);
    let elapsed = t0.elapsed().as_secs_f64();
    server.shutdown();
    assert!(ready, "a set-up server answers /healthz");
    elapsed
}

/// Runs the open loop for `seconds` and reports it.
pub fn run(seed: u64, seconds: f64, trace: bool, state_dir: &Path, report: &mut Report) {
    let dir = state_dir.join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the journal directory");
    let config = ServeConfig {
        workers: WORKERS,
        queue_cap: 256,
        journal: Some(dir.join("journal.log")),
        ..ServeConfig::default()
    };
    let server = start(config.clone()).expect("start the server");
    let addr = server.local_addr();
    let healthy = wait_until(Duration::from_secs(10), || {
        request(addr, "GET", "/healthz", None).is_ok_and(|r| r.status == 200)
    });
    assert!(healthy, "the server answers /healthz");

    let schedule = open_loop(seed, RATE, seconds, POOL);
    let (expected, ref_counts) = reference();
    let (tx, rx) = mpsc::channel::<(usize, String, Instant)>();
    let mut lags = Vec::new();
    let mut posts = Vec::new();
    let mut refused: Vec<String> = Vec::new();
    let t_start = Instant::now() + Duration::from_millis(100);
    let Polled { seen, gets, mut setups } = std::thread::scope(|s| {
        let (expected, config) = (&expected, &config);
        let poller = s.spawn(move || poll_jobs(addr, rx, expected, config));
        for (i, arrival) in schedule.iter().enumerate() {
            let due = t_start + Duration::from_secs_f64(arrival.due_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            lags.push(sent.duration_since(due).as_secs_f64());
            let body = format!(
                r#"{{"source":{},"fast":true}}"#,
                Json::Str(source(arrival.source)).render()
            );
            let response = request(addr, "POST", "/jobs", Some(&body));
            posts.push(sent.elapsed().as_secs_f64());
            match response {
                Ok(r) if r.status == 202 => {
                    let id = r.json().ok().and_then(|j| j.get("id")?.as_str().map(str::to_string));
                    match id {
                        Some(id) => tx.send((i, id, due)).expect("the poller is running"),
                        None => refused.push(format!("request {i}: 202 without an id")),
                    }
                }
                Ok(r) => refused.push(format!("request {i}: HTTP {} {}", r.status, r.body)),
                Err(e) => refused.push(format!("request {i}: {e}")),
            }
        }
        drop(tx);
        poller.join().expect("the poller thread finished")
    });

    let metrics_text = request(addr, "GET", "/metrics", None).map(|r| r.body).unwrap_or_default();
    let stats = request(addr, "GET", "/stats", None).ok().and_then(|r| r.json().ok());
    server.shutdown();
    if setups.is_empty() {
        setups.push(time_setup(&config));
    }
    report.metric("setup_s", median(&setups));
    let _ = std::fs::remove_dir_all(&dir);

    for why in refused {
        report.attempt(false, || why);
    }
    for job in seen.values() {
        report.attempt(job.ok, || job.why.clone());
    }
    let done: Vec<&Seen> = seen.values().filter(|j| j.ok).collect();
    let latencies: Vec<f64> = done.iter().map(|j| j.latency_s).collect();
    if latencies.is_empty() {
        report.error("no served job completed".to_string());
        return;
    }
    let attempted = schedule.len();
    report.note(format!(
        "serve_open: {attempted} requests at {RATE}/s over {seconds} s, {} valid; \
         setup_s median of {} idle-time starts, job percentiles over {} jobs",
        done.len(),
        setups.len(),
        latencies.len()
    ));
    // The arrival window fixes the run's own length, so wall_s is the
    // time users waited: due to result, summed over the valid jobs.
    report.metric("wall_s", latencies.iter().sum());
    report.metric("job_p50_s", median(&latencies));
    let p90 = percentile(&latencies, 0.9).unwrap_or_else(|why| {
        report.note(format!("serve_open: {why}; job_p90_s reports the slowest job"));
        max(&latencies)
    });
    report.metric("job_p90_s", p90);
    let within = latencies.iter().filter(|&&l| l <= LIMIT_S).count();
    report.metric("within_limit_share", within as f64 / attempted as f64);
    if !trace {
        return;
    }

    let busy: Vec<f64> = done.iter().map(|j| j.busy_s).collect();
    let overhead: Vec<f64> = done.iter().map(|j| j.latency_s - j.busy_s).collect();
    let polls: u64 = seen.values().map(|j| j.polls).sum();
    report.metric("http.post_p50_s", median(&posts));
    report.metric("http.get_p50_s", if gets.is_empty() { 0.0 } else { median(&gets) });
    report.metric("serve.polls_per_job", polls as f64 / seen.len().max(1) as f64);
    report.metric("engine.job_busy_p50_s", median(&busy));
    report.metric("serve.overhead_p50_s", median(&overhead));
    report.metric("gen.lag_p90_s", percentile(&lags, 0.9).unwrap_or_else(|_| max(&lags)));
    // Served results equal the reference (checked above), so the
    // deterministic counts are the reference's, once per served job.
    let mut counts = Counts::default();
    for _ in &done {
        counts.add(&ref_counts);
    }
    report.counts(&counts);
    let snapshot = parse_metrics(&metrics_text);
    let mut trace = KindTrace::default();
    for (i, (kind, h)) in snapshot.tasks.iter().enumerate() {
        report.metric(&format!("{kind}.busy_s"), h.sum);
        report.metric(&format!("{kind}.tasks"), h.count as f64);
        trace.busy_s[i] = h.sum;
        trace.tasks[i] = h.count;
    }
    // Tasks run on the server's workers, so shares are of task time.
    report.kind_table(&trace, trace.busy_s.iter().sum());
    scheduler_metrics(&snapshot, report);
    if let Some(stats) = stats {
        for cache in ["spec_cache", "trace_cache"] {
            let field = |f: &str| {
                stats.get(cache).and_then(|c| c.get(f)).and_then(Json::as_f64).unwrap_or(0.0)
            };
            let lookups = field("hits") + field("misses");
            let ratio = if lookups > 0.0 { field("hits") / lookups } else { 0.0 };
            report.metric(&format!("{cache}.hit_ratio"), ratio);
        }
        let bytes = stats.get("journal").and_then(|j| j.get("size_bytes")).and_then(Json::as_f64);
        report.metric("journal.bytes", bytes.unwrap_or(0.0));
    }
}

/// What the poller saw.
struct Polled {
    /// Every admitted job, by request index.
    seen: HashMap<usize, Seen>,
    /// Every `GET` duration.
    gets: Vec<f64>,
    /// Set-up samples, one each time the server fell idle.
    setups: Vec<f64>,
}

/// The poller: reads every admitted job every [`POLL`], from its due time
/// plus its [`poll_phase`], until it is done.
/// Each time a result leaves no job pending it times one set-up: the
/// samples span the run and the machine states its jobs saw, and no job
/// of the run waits behind them for a core.
fn poll_jobs(
    addr: SocketAddr,
    admitted: mpsc::Receiver<(usize, String, Instant)>,
    expected: &[String],
    config: &ServeConfig,
) -> Polled {
    struct Pending {
        index: usize,
        id: String,
        due: Instant,
        next: Instant,
        polls: u64,
    }
    let mut pending: Vec<Pending> = Vec::new();
    let mut seen = HashMap::new();
    let mut gets = Vec::new();
    let mut setups = Vec::new();
    let mut open = true;
    while open || !pending.is_empty() {
        let wake = pending.iter().map(|p| p.next).min();
        let timeout = wake.map_or(POLL, |w| w.saturating_duration_since(Instant::now()));
        match admitted.recv_timeout(timeout) {
            Ok((index, id, due)) => {
                let next = due + poll_phase(index);
                pending.push(Pending { index, id, due, next, polls: 0 });
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
        let now = Instant::now();
        let mut finished = false;
        let mut still = Vec::new();
        for mut p in pending.drain(..) {
            if p.next > now {
                still.push(p);
                continue;
            }
            p.polls += 1;
            let t0 = Instant::now();
            let response = request(addr, "GET", &format!("/jobs/{}", p.id), None);
            let at = Instant::now();
            gets.push(at.duration_since(t0).as_secs_f64());
            let job = response.ok().filter(|r| r.status == 200).and_then(|r| r.json().ok());
            let done =
                job.as_ref().filter(|j| j.get("status").and_then(Json::as_str) == Some("done"));
            if let Some(job) = done {
                let valid = job.get("valid").and_then(Json::as_bool) == Some(true);
                let got = invariants(job);
                let ok = valid && got == expected;
                let why =
                    format!("{}: valid={valid}, invariants {got:?} vs solo {expected:?}", p.id);
                let busy_s = job.get("seconds").and_then(Json::as_f64).unwrap_or(0.0);
                let latency_s = at.duration_since(p.due).as_secs_f64();
                seen.insert(p.index, Seen { latency_s, busy_s, polls: p.polls, ok, why });
                finished = true;
            } else if at.duration_since(p.due) > GIVE_UP {
                let why = format!("{}: no result {} s after it was due", p.id, GIVE_UP.as_secs());
                seen.insert(
                    p.index,
                    Seen { latency_s: 0.0, busy_s: 0.0, polls: p.polls, ok: false, why },
                );
            } else {
                // The next read on the job's own grid (a late admission
                // skips the slots already past).
                while p.next <= at {
                    p.next += POLL;
                }
                still.push(p);
            }
        }
        pending = still;
        if finished && pending.is_empty() {
            setups.push(time_setup(config));
        }
    }
    Polled { seen, gets, setups }
}

/// The scheduler part of a `/metrics` scrape, as a snapshot.
fn parse_metrics(text: &str) -> MetricsSnapshot {
    let values: HashMap<&str, f64> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key, value.parse().ok()?))
        })
        .collect();
    let get = |key: &str| values.get(key).copied().unwrap_or(0.0);
    let histogram = |name: &str, labels: &str| {
        let sep = if labels.is_empty() { "" } else { "," };
        let cumulative: Vec<u64> = BUCKET_BOUNDS
            .iter()
            .map(|b| get(&format!("{name}_bucket{{{labels}{sep}le=\"{b}\"}}")) as u64)
            .collect();
        // Back to per-bucket counts, the snapshot's representation.
        let counts = cumulative
            .iter()
            .scan(0, |prev, &c| {
                let n = c.saturating_sub(*prev);
                *prev = c;
                Some(n)
            })
            .collect();
        HistogramSnapshot {
            counts,
            sum: get(&format!("{name}_sum{{{labels}}}")),
            count: get(&format!("{name}_count{{{labels}}}")) as u64,
        }
    };
    let uptime = get("gcln_sched_uptime_seconds");
    let utilization = get("gcln_sched_worker_utilization");
    MetricsSnapshot {
        workers: WORKERS,
        uptime: Duration::from_secs_f64(uptime),
        busy: Duration::from_secs_f64(utilization * uptime * WORKERS as f64),
        queue_wait: histogram("gcln_sched_queue_wait_seconds", ""),
        tasks: TaskKind::ALL
            .iter()
            .map(|k| {
                let labels = format!("kind=\"{k}\"");
                (k.as_str().to_string(), histogram("gcln_sched_task_duration_seconds", &labels))
            })
            .collect(),
        jobs_submitted: 0,
        jobs_completed: 0,
        tasks_executed: 0,
        tasks_retried: 0,
        tasks_panicked: 0,
        jobs_quarantined: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::histogram_quantile;

    /// Renaming the program changes the source (so caches miss) but not
    /// what the engine learns: the reference invariants stand for every
    /// source the workload sends.
    #[test]
    fn renamed_sources_learn_the_reference_invariants() {
        let (expected, _) = reference();
        assert!(expected.iter().any(|f| f.contains("==")), "an equality is learned");
        let spec = ProblemSpec::from_source_str("x", &source(SourceChoice::Fresh(42))).unwrap();
        let names = spec.problem.extended_names();
        let outcome = Engine::new().run(&Job::new(spec).with_config(PipelineConfig::fast()));
        assert!(outcome.valid);
        let got: Vec<String> =
            outcome.loops.iter().map(|l| l.formula.display(&names).to_string()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn metrics_scrape_round_trips_a_histogram() {
        let text = "gcln_sched_queue_wait_seconds_bucket{le=\"0.0005\"} 3\n\
            gcln_sched_queue_wait_seconds_bucket{le=\"0.001\"} 4\n\
            gcln_sched_queue_wait_seconds_sum{} 0.002\n\
            gcln_sched_queue_wait_seconds_count{} 4\n\
            gcln_sched_task_duration_seconds_sum{kind=\"train\"} 1.5\n\
            gcln_sched_task_duration_seconds_count{kind=\"train\"} 6\n";
        let snapshot = parse_metrics(text);
        assert_eq!(snapshot.queue_wait.count, 4);
        assert_eq!(&snapshot.queue_wait.counts[..2], &[3, 1]);
        let p50 = histogram_quantile(&BUCKET_BOUNDS, &snapshot.queue_wait.cumulative(), 4, 0.5);
        assert!(p50 > 0.0 && p50 <= 0.0005);
        let train = snapshot.tasks.iter().find(|(k, _)| k == "train").unwrap();
        assert_eq!((train.1.sum, train.1.count), (1.5, 6));
    }
}
