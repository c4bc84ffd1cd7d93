//! End-to-end tests of the HTTP batch service: a real server on an
//! ephemeral port, driven over real sockets by [`gcln_serve::client`].
//!
//! The determinism-sensitive assertions compare *parsed* event objects
//! with the wall-clock `ms` members removed — everything else in the
//! stream (ordering, stages, attempts, formulas, counterexamples) must
//! be bit-identical between an HTTP submission and a direct
//! [`Engine`] run.

use gcln_engine::{Engine, Job, PipelineConfig, ProblemSpec};
use gcln_serve::client::{request, ClientResponse};
use gcln_serve::json::Json;
use gcln_serve::{start, ServeConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A ps2 variant absent from the registries (renamed variables, shifted
/// precondition). Ground truth: `2*acc == j^2 + j`.
const PS2VAR: &str = "program ps2var;\n\
    inputs m;\n\
    pre m >= 2;\n\
    post 2 * acc == j * j + j;\n\
    acc = 0; j = 0;\n\
    while (j < m) { j = j + 1; acc = acc + j; }\n";

/// Generous bound for engine work: debug builds run the pipeline an
/// order of magnitude slower than release.
const JOB_TIMEOUT: Duration = Duration::from_secs(300);

fn serve(workers: usize, queue_cap: usize, journal: Option<PathBuf>) -> ServerHandle {
    start(ServeConfig { workers, queue_cap, journal, ..ServeConfig::default() })
        .expect("server starts")
}

fn get(addr: SocketAddr, path: &str) -> ClientResponse {
    request(addr, "GET", path, None).expect("GET succeeds")
}

fn post(addr: SocketAddr, path: &str, body: &str) -> ClientResponse {
    request(addr, "POST", path, Some(body)).expect("POST succeeds")
}

/// Submits a job body and returns its id.
fn submit(addr: SocketAddr, body: &str) -> String {
    let resp = post(addr, "/jobs", body);
    assert_eq!(resp.status, 202, "submit failed: {}", resp.body);
    resp.json().unwrap().get("id").and_then(Json::as_str).unwrap().to_string()
}

/// Polls `GET /jobs/{id}` until `status == "done"`.
fn poll_done(addr: SocketAddr, id: &str) -> Json {
    let deadline = Instant::now() + JOB_TIMEOUT;
    loop {
        let resp = get(addr, &format!("/jobs/{id}"));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let job = resp.json().unwrap();
        if job.get("status").and_then(Json::as_str) == Some("done") {
            return job;
        }
        assert!(Instant::now() < deadline, "job {id} never completed: {}", resp.body);
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Polls `GET /stats` until `cond` holds, returning the stats object.
fn poll_stats(addr: SocketAddr, what: &str, cond: impl Fn(&Json) -> bool) -> Json {
    let deadline = Instant::now() + JOB_TIMEOUT;
    loop {
        let stats = get(addr, "/stats").json().unwrap();
        if cond(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "stats never reached `{what}`: {}", stats.render());
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The job's event stream as parsed objects with the nondeterministic
/// wall-clock `ms` members removed.
fn served_events(job: &Json) -> Vec<Json> {
    job.get("events")
        .and_then(Json::as_array)
        .expect("events array")
        .iter()
        .cloned()
        .map(strip_ms)
        .collect()
}

fn strip_ms(v: Json) -> Json {
    match v {
        Json::Obj(members) => Json::Obj(members.into_iter().filter(|(k, _)| k != "ms").collect()),
        other => other,
    }
}

/// Formulas learned per loop, as `(loop, formula)` pairs.
fn served_invariants(job: &Json) -> Vec<(u64, String)> {
    job.get("invariants")
        .and_then(Json::as_array)
        .expect("invariants array")
        .iter()
        .map(|inv| {
            (
                inv.get("loop").and_then(Json::as_u64).unwrap(),
                inv.get("formula").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn e2e_round_trip_matches_direct_engine_run() {
    let handle = serve(2, 8, None);
    let addr = handle.local_addr();

    assert_eq!(get(addr, "/healthz").status, 200);

    let id = submit(addr, &format!(r#"{{"source":{},"fast":true}}"#, src_json()));
    assert_eq!(id, "job-1");
    let job = poll_done(addr, &id);
    assert_eq!(job.get("valid").and_then(Json::as_bool), Some(true));
    assert!(job.get("stopped").unwrap().is_null());

    // The same spec and config through the engine directly: the learned
    // invariant must be identical and the event stream bit-for-bit
    // equal modulo `ms` timings.
    let spec = ProblemSpec::from_source_str("fallback-unused", PS2VAR).unwrap();
    let names = spec.problem.extended_names();
    let outcome = Engine::new().run(&Job::new(spec).with_config(PipelineConfig::fast()));
    assert!(outcome.valid, "direct run must be checker-valid");
    assert!(outcome.report.is_valid(), "checker report must accept");

    let direct_events: Vec<Json> = outcome
        .events
        .iter()
        .map(|e| strip_ms(Json::parse(&e.to_json()).expect("event line parses as JSON")))
        .collect();
    assert_eq!(served_events(&job), direct_events, "served event stream diverged");

    let direct_invariants: Vec<(u64, String)> = outcome
        .loops
        .iter()
        .map(|li| (li.loop_id as u64, li.formula.display(&names).to_string()))
        .collect();
    assert_eq!(served_invariants(&job), direct_invariants);
    // The served formula is the one the (real) checker validated above.
    assert!(served_invariants(&job)[0].1.contains("=="), "expected an equality invariant");

    handle.shutdown();
}

#[test]
fn repeat_submission_hits_spec_and_trace_caches() {
    let handle = serve(1, 8, None);
    let addr = handle.local_addr();
    let body = format!(r#"{{"source":{},"fast":true}}"#, src_json());

    let first = poll_done(addr, &submit(addr, &body));
    let second = poll_done(addr, &submit(addr, &body));

    // Identical results, straight from the caches.
    assert_eq!(served_events(&first), served_events(&second));
    assert_eq!(served_invariants(&first), served_invariants(&second));
    assert_eq!(
        first.get("source_hash").and_then(Json::as_str),
        second.get("source_hash").and_then(Json::as_str)
    );

    let stats = get(addr, "/stats").json().unwrap();
    let cache_stat = |cache: &str, field: &str| {
        stats.get(cache).and_then(|c| c.get(field)).and_then(Json::as_u64).unwrap()
    };
    assert_eq!(cache_stat("spec_cache", "misses"), 1, "stats: {}", stats.render());
    assert_eq!(cache_stat("spec_cache", "hits"), 1, "stats: {}", stats.render());
    assert_eq!(cache_stat("spec_cache", "entries"), 1);
    assert_eq!(cache_stat("trace_cache", "misses"), 1, "stats: {}", stats.render());
    assert_eq!(cache_stat("trace_cache", "hits"), 1, "stats: {}", stats.render());

    handle.shutdown();
}

#[test]
fn concurrent_submissions_complete_deterministically() {
    let handle = serve(2, 16, None);
    let addr = handle.local_addr();
    let body = format!(r#"{{"source":{},"fast":true}}"#, src_json());

    // Race N submissions through a 2-worker pool.
    let ids: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6).map(|_| scope.spawn(|| submit(addr, &body))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(ids.len(), 6);
    let mut unique = ids.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), 6, "ids must be distinct: {ids:?}");

    let jobs: Vec<Json> = ids.iter().map(|id| poll_done(addr, id)).collect();
    let reference_events = served_events(&jobs[0]);
    let reference_invariants = served_invariants(&jobs[0]);
    for job in &jobs {
        assert_eq!(job.get("valid").and_then(Json::as_bool), Some(true));
        assert_eq!(served_events(job), reference_events, "nondeterministic event stream");
        assert_eq!(served_invariants(job), reference_invariants);
    }
    handle.shutdown();
}

#[test]
fn queue_full_returns_503_with_retry_after() {
    let handle = serve(1, 1, None);
    let addr = handle.local_addr();
    // `max_degree: 4` stretches training to a fat window (hundreds of
    // ms in release, seconds in debug) so the worker stays busy while
    // we fill and overflow the queue.
    let slow = format!(r#"{{"source":{},"fast":true,"max_degree":4}}"#, src_json());

    let first = submit(addr, &slow);
    poll_stats(addr, "worker busy", |s| {
        s.get("busy_workers").and_then(Json::as_u64) == Some(1)
            && s.get("queue_depth").and_then(Json::as_u64) == Some(0)
    });
    let second = submit(addr, &slow);
    poll_stats(addr, "queue full", |s| s.get("queue_depth").and_then(Json::as_u64) == Some(1));

    let rejected = post(addr, "/jobs", &slow);
    assert_eq!(rejected.status, 503, "expected backpressure: {}", rejected.body);
    assert_eq!(rejected.header("retry-after"), Some("1"));
    assert!(rejected.body.contains("queue is full"), "{}", rejected.body);

    // Drain quickly: cancel both, then wait for completion.
    for id in [&first, &second] {
        let resp = request(addr, "DELETE", &format!("/jobs/{id}"), None).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        poll_done(addr, id);
    }
    handle.shutdown();
}

#[test]
fn delete_mid_train_yields_cancelled_partial_outcome() {
    let handle = serve(1, 4, None);
    let addr = handle.local_addr();
    let slow = format!(r#"{{"source":{},"fast":true,"max_degree":4}}"#, src_json());

    // Wait until a job's Train stage has started (and not yet finished)
    // and cancel inside that window. The window is hundreds of ms wide,
    // but a brutally contended machine could still blow past it — in
    // that case retry with a fresh submission rather than flaking.
    let mut caught = None;
    for _attempt in 0..3 {
        let id = submit(addr, &slow);
        let deadline = Instant::now() + JOB_TIMEOUT;
        loop {
            let job = get(addr, &format!("/jobs/{id}")).json().unwrap();
            let events = served_events(&job);
            let in_stage = |kind: &str| {
                events.iter().any(|e| {
                    e.get("event").and_then(Json::as_str) == Some(kind)
                        && e.get("stage").and_then(Json::as_str) == Some("train")
                })
            };
            if in_stage("stage_finished")
                || job.get("status").and_then(Json::as_str) == Some("done")
            {
                break; // window missed; retry with a fresh job
            }
            if in_stage("stage_started") {
                caught = Some(id.clone());
                break;
            }
            assert!(Instant::now() < deadline, "train never started");
            std::thread::sleep(Duration::from_millis(2));
        }
        if caught.is_some() {
            break;
        }
    }
    let id = caught.expect("could not catch any job mid-train in 3 attempts");
    let resp = request(addr, "DELETE", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains(r#""cancelled":true"#), "{}", resp.body);

    let job = poll_done(addr, &id);
    assert_eq!(job.get("stopped").and_then(Json::as_str), Some("cancelled"));
    assert_eq!(job.get("valid").and_then(Json::as_bool), Some(false));

    // Partial outcome with the event log intact: job_started first,
    // a job_stopped with reason cancelled, job_finished last, and the
    // stream is still there after cancellation.
    let events = served_events(&job);
    let kind = |e: &Json| e.get("event").and_then(Json::as_str).unwrap_or("?").to_string();
    assert_eq!(kind(&events[0]), "job_started");
    assert_eq!(kind(events.last().unwrap()), "job_finished");
    assert!(
        events.iter().any(|e| kind(e) == "job_stopped"
            && e.get("reason").and_then(Json::as_str) == Some("cancelled")),
        "missing job_stopped: {:?}",
        events.iter().map(|e| e.render()).collect::<Vec<_>>()
    );
    handle.shutdown();
}

#[test]
fn journal_replay_serves_completed_jobs_across_restart() {
    let journal = temp_journal("replay.jsonl");
    let _ = std::fs::remove_file(&journal);

    // First server lifetime: run one job to completion.
    let handle = serve(1, 4, Some(journal.clone()));
    let addr = handle.local_addr();
    let id = submit(addr, &format!(r#"{{"source":{},"fast":true}}"#, src_json()));
    let before = poll_done(addr, &id);
    assert_eq!(before.get("valid").and_then(Json::as_bool), Some(true));
    handle.shutdown();

    // Second lifetime: the completed job is served from the journal —
    // same id, same result, same events — without re-running inference.
    let handle = serve(1, 4, Some(journal.clone()));
    let addr = handle.local_addr();
    let resp = get(addr, &format!("/jobs/{id}"));
    assert_eq!(resp.status, 200, "replayed job missing: {}", resp.body);
    let after = resp.json().unwrap();
    assert_eq!(after, before, "replayed record diverged from the original");

    let stats = get(addr, "/stats").json().unwrap();
    let replayed = stats.get("journal").and_then(|j| j.get("jobs_replayed")).and_then(Json::as_u64);
    assert_eq!(replayed, Some(1), "stats: {}", stats.render());

    // New submissions get fresh ids past the replayed ones and are
    // appended to the same journal.
    let id2 = submit(addr, &format!(r#"{{"source":{},"fast":true}}"#, src_json()));
    assert_ne!(id2, id);
    poll_done(addr, &id2);
    handle.shutdown();

    // Third lifetime sees both.
    let handle = serve(1, 4, Some(journal.clone()));
    let addr = handle.local_addr();
    assert_eq!(get(addr, &format!("/jobs/{id}")).status, 200);
    assert_eq!(get(addr, &format!("/jobs/{id2}")).status, 200);
    handle.shutdown();
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn api_surface_rejects_malformed_traffic() {
    let handle = serve(1, 4, None);
    let addr = handle.local_addr();

    // Unknown resources and wrong methods.
    assert_eq!(get(addr, "/nope").status, 404);
    assert_eq!(get(addr, "/jobs/job-999").status, 404);
    assert_eq!(get(addr, "/jobs/weird-id").status, 404);
    let resp = get(addr, "/jobs");
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("POST"));
    assert_eq!(post(addr, "/healthz", "").status, 405);

    // Malformed bodies are 400 with a diagnostic, never a crash.
    for (body, needle) in [
        ("", "not valid JSON"),
        ("[]", "must be a JSON object"),
        ("{\"nope\":1}", "unknown key"),
        ("{}", "missing required string field"),
        (r#"{"source":"while (("}"#, "does not parse"),
        (r#"{"source":"inputs n; x = n;","deadline_secs":-1}"#, "deadline_secs"),
        (r#"{"source":"inputs n; x = n;","step_budget":1.5}"#, "step_budget"),
        (r#"{"source":"inputs n; x = n;","fast":"yes"}"#, "fast"),
        (r#"{"source":"inputs n; x = n;","max_degree":0}"#, "max_degree"),
        (r#"{"source":"inputs n; x = n;","max_degree":9}"#, "max_degree"),
    ] {
        let resp = post(addr, "/jobs", body);
        assert_eq!(resp.status, 400, "{body} -> {}", resp.body);
        assert!(resp.body.contains(needle), "{body} -> {}", resp.body);
    }

    // The server is still healthy after all of that.
    assert_eq!(get(addr, "/healthz").status, 200);
    handle.shutdown();
}

#[test]
fn deadline_and_budget_limits_flow_through_the_api() {
    let handle = serve(1, 4, None);
    let addr = handle.local_addr();

    // A zero deadline stops before training; the partial outcome is
    // still a complete API object.
    let id = submit(addr, &format!(r#"{{"source":{},"fast":true,"deadline_secs":0}}"#, src_json()));
    let job = poll_done(addr, &id);
    assert_eq!(job.get("stopped").and_then(Json::as_str), Some("deadline_exceeded"));
    assert_eq!(job.get("valid").and_then(Json::as_bool), Some(false));

    // A one-step budget runs exactly one training attempt.
    let id = submit(addr, &format!(r#"{{"source":{},"fast":true,"step_budget":1}}"#, src_json()));
    let job = poll_done(addr, &id);
    assert_eq!(job.get("stopped").and_then(Json::as_str), Some("budget_exhausted"));
    let ran: Vec<bool> = served_events(&job)
        .iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("attempt_result"))
        .map(|e| !e.get("skipped").and_then(Json::as_bool).unwrap())
        .collect();
    assert_eq!(ran, vec![true, false], "budget must grant exactly one attempt");
    handle.shutdown();
}

/// The shared source, JSON-encoded for request bodies.
fn src_json() -> String {
    gcln_engine::events::json_string(PS2VAR)
}

fn temp_journal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcln-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}
