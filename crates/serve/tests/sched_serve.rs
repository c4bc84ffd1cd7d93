//! E2E tests for the scheduler-era service features: per-client rate
//! limiting (429 + Retry-After, allowance → priority), the Prometheus
//! `/metrics` endpoint, and journal compaction with restart replay.

use gcln_serve::client::{request, request_with_headers, ClientResponse};
use gcln_serve::{start, Json, RateLimit, ServeConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const JOB_TIMEOUT: Duration = Duration::from_secs(120);

fn src_json() -> String {
    // Tiny degree-2 single-loop program; solves in well under a second
    // with `fast`.
    gcln_engine::events::json_string(
        "program tiny;\ninputs n;\npre n >= 0;\npost 2 * x == n * n + n;\n\
         x = 0; i = 0;\nwhile (i < n) { i = i + 1; x = x + i; }",
    )
}

fn submit_as(addr: SocketAddr, client: Option<&str>, body: &str) -> ClientResponse {
    let headers: Vec<(&str, &str)> = client.map(|c| ("x-client-id", c)).into_iter().collect();
    request_with_headers(addr, "POST", "/jobs", &headers, Some(body)).expect("submit")
}

fn poll_done(addr: SocketAddr, id: &str) -> Json {
    let deadline = Instant::now() + JOB_TIMEOUT;
    loop {
        let resp = request(addr, "GET", &format!("/jobs/{id}"), None).expect("poll");
        let job = resp.json().expect("job json");
        if job.get("status").and_then(Json::as_str) == Some("done") {
            return job;
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcln-sched-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn rate_limit_answers_429_and_wires_allowance_into_priority() {
    let handle = start(ServeConfig {
        workers: 2,
        queue_cap: 16,
        // 0.1 tokens/sec: no measurable refill within the test window.
        rate_limit: Some(RateLimit { rate_per_sec: 0.1, burst: 2.0 }),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();
    let body = format!(r#"{{"source":{},"fast":true}}"#, src_json());

    // Client A burns its burst of 2; the 202 bodies expose the
    // remaining allowance as the admitted job's scheduler priority.
    let first = submit_as(addr, Some("client-a"), &body);
    assert_eq!(first.status, 202, "{}", first.body);
    assert!(first.body.contains(r#""priority":1"#), "{}", first.body);
    let second = submit_as(addr, Some("client-a"), &body);
    assert_eq!(second.status, 202, "{}", second.body);
    assert!(second.body.contains(r#""priority":0"#), "{}", second.body);

    let rejected = submit_as(addr, Some("client-a"), &body);
    assert_eq!(rejected.status, 429, "{}", rejected.body);
    let retry_after: u64 =
        rejected.header("retry-after").expect("retry-after header").parse().unwrap();
    assert!(retry_after >= 1, "retry-after must be at least a second");
    assert!(rejected.body.contains("rate limit"), "{}", rejected.body);

    // A different client id is unaffected; so is an id-less request
    // (keyed by peer IP — a distinct bucket from the named clients).
    let other = submit_as(addr, Some("client-b"), &body);
    assert_eq!(other.status, 202, "{}", other.body);
    let anon = submit_as(addr, None, &body);
    assert_eq!(anon.status, 202, "{}", anon.body);

    // The stats counter saw exactly one rejection.
    let stats = request(addr, "GET", "/stats", None).unwrap().json().unwrap();
    assert_eq!(stats.get("rate_limited").and_then(Json::as_u64), Some(1));

    // Drain before shutdown so the journal-less server exits quickly.
    for resp in [&first, &second, &other, &anon] {
        let id = resp.json().unwrap().get("id").and_then(Json::as_str).unwrap().to_string();
        poll_done(addr, &id);
    }
    handle.shutdown();
}

#[test]
fn metrics_endpoint_exposes_stage_histograms_and_cache_ratios() {
    let handle = start(ServeConfig { workers: 2, ..ServeConfig::default() }).unwrap();
    let addr = handle.local_addr();
    let body = format!(r#"{{"source":{},"fast":true}}"#, src_json());
    let resp = submit_as(addr, None, &body);
    assert_eq!(resp.status, 202, "{}", resp.body);
    let id = resp.json().unwrap().get("id").and_then(Json::as_str).unwrap().to_string();
    poll_done(addr, &id);

    let metrics = request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    assert_eq!(metrics.header("content-type"), Some("text/plain; version=0.0.4"));
    let text = &metrics.body;
    // Stage latency histograms, sourced from scheduler task timings.
    for kind in ["trace", "train", "extract", "check"] {
        assert!(
            text.contains(&format!("gcln_sched_task_duration_seconds_count{{kind=\"{kind}\"}}")),
            "missing task histogram for {kind}:\n{text}"
        );
    }
    assert!(text.contains("gcln_sched_queue_wait_seconds_bucket"));
    assert!(text.contains("gcln_sched_worker_utilization "));
    assert!(text.contains("gcln_serve_cache_requests_total{cache=\"spec\",result=\"miss\"} 1"));
    assert!(text.contains("gcln_serve_cache_requests_total{cache=\"trace\",result=\"miss\"} 1"));
    assert!(text.contains("gcln_sched_jobs_total{state=\"completed\"} 1"));
    // Histogram sanity: the train count is a positive integer sample.
    let train_count = text
        .lines()
        .find(|l| l.starts_with("gcln_sched_task_duration_seconds_count{kind=\"train\"}"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<u64>().ok())
        .expect("train count sample");
    assert!(train_count >= 1, "at least one training attempt ran");
    handle.shutdown();
}

#[test]
fn journal_compaction_bounds_the_file_and_replay_survives_restart() {
    let path = temp_path("compact.jsonl");
    let _ = std::fs::remove_file(&path);
    let cfg = || ServeConfig {
        workers: 2,
        journal: Some(path.clone()),
        // Retain only 2 completed records; compact on every append.
        max_retained_jobs: 2,
        journal_compact_bytes: 1,
        ..ServeConfig::default()
    };

    let body = format!(r#"{{"source":{},"fast":true}}"#, src_json());
    let ids: Vec<String> = {
        let handle = start(cfg()).unwrap();
        let addr = handle.local_addr();
        let ids: Vec<String> = (0..5)
            .map(|_| {
                let resp = submit_as(addr, None, &body);
                assert_eq!(resp.status, 202, "{}", resp.body);
                let id = resp.json().unwrap().get("id").and_then(Json::as_str).unwrap().to_string();
                poll_done(addr, &id);
                id
            })
            .collect();
        let stats = request(addr, "GET", "/stats", None).unwrap().json().unwrap();
        let journal = stats.get("journal").expect("journal stats");
        assert!(
            journal.get("compactions").and_then(Json::as_u64).unwrap_or(0) >= 1,
            "compaction must have run: {}",
            stats.render()
        );
        handle.shutdown();
        ids
    };

    // The journal on disk holds at most the retained window.
    let contents = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = contents.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(lines.len() <= 2, "compacted journal must hold <= 2 records, got {}", lines.len());

    // Restart: the retained jobs replay, the compacted-away ones 404.
    let handle = start(cfg()).unwrap();
    let addr = handle.local_addr();
    let stats = request(addr, "GET", "/stats", None).unwrap().json().unwrap();
    let replayed =
        stats.get("journal").and_then(|j| j.get("jobs_replayed")).and_then(Json::as_u64).unwrap();
    assert_eq!(replayed, lines.len() as u64, "stats: {}", stats.render());
    let last = request(addr, "GET", &format!("/jobs/{}", ids[4]), None).unwrap();
    assert_eq!(last.status, 200, "most recent job must replay");
    assert!(last.body.contains(r#""status":"done""#));
    let first = request(addr, "GET", &format!("/jobs/{}", ids[0]), None).unwrap();
    assert_eq!(first.status, 404, "compacted-away job must be gone");

    // New submissions mint fresh ids past the replayed ones.
    let resp = submit_as(addr, None, &body);
    assert_eq!(resp.status, 202);
    let new_id = resp.json().unwrap().get("id").and_then(Json::as_str).unwrap().to_string();
    assert!(!ids.contains(&new_id), "id {new_id} must be fresh");
    poll_done(addr, &new_id);
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}
