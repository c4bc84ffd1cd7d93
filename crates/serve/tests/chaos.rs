//! In-process chaos tests: the service under a deterministic
//! [`gcln_serve::Faults`] plan. Each test arms one fault site and
//! asserts the documented containment boundary — a panicking stage task
//! fails only its own job, repeated panics trip the spec-hash
//! quarantine breaker, a failed journal append rolls the admission
//! back, admitted-but-incomplete journal records are resubmitted (and
//! recomputed bit-identically) after a restart, and admit records that
//! admission would reject are skipped there and compacted away.
//!
//! The out-of-process kill -9 variant lives in
//! `scripts/chaos_smoke.sh`.

use gcln_serve::client::request;
use gcln_serve::{start, Faults, Journal, Json, ServeConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const JOB_TIMEOUT: Duration = Duration::from_secs(120);

fn src_json() -> String {
    gcln_engine::events::json_string(
        "program tiny;\ninputs n;\npre n >= 0;\npost 2 * x == n * n + n;\n\
         x = 0; i = 0;\nwhile (i < n) { i = i + 1; x = x + i; }",
    )
}

fn submit(addr: SocketAddr, body: &str) -> Json {
    let resp = request(addr, "POST", "/jobs", Some(body)).expect("submit");
    assert_eq!(resp.status, 202, "{}", resp.body);
    resp.json().expect("submit json")
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

fn formulas(job: &Json) -> Vec<String> {
    job.get("invariants")
        .and_then(Json::as_array)
        .map(|invs| {
            invs.iter()
                .filter_map(|inv| inv.get("formula").and_then(Json::as_str))
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcln-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn a_panicking_task_fails_only_its_own_job() {
    // Reference: the same source on a fault-free server.
    let clean = start(ServeConfig { workers: 2, ..ServeConfig::default() }).unwrap();
    let body = format!(r#"{{"source":{},"fast":true}}"#, src_json());
    let id =
        submit(clean.local_addr(), &body).get("id").and_then(Json::as_str).unwrap().to_string();
    let reference = poll_done(clean.local_addr(), &id);
    clean.shutdown();
    assert_eq!(reference.get("valid").and_then(Json::as_bool), Some(true));
    let reference_formulas = formulas(&reference);
    assert!(!reference_formulas.is_empty());

    // Chaos: the first 3 stage-task executions panic — exactly one
    // attempt plus the default 2 retries, so the first job fails
    // permanently and exhausts the fire budget.
    let handle = start(ServeConfig {
        workers: 2,
        faults: Faults::parse("seed=1,sched.task_panic=1.0:3").unwrap(),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();
    let doomed = submit(addr, &body).get("id").and_then(Json::as_str).unwrap().to_string();
    let failed = poll_done(addr, &doomed);
    assert_eq!(failed.get("valid").and_then(Json::as_bool), Some(false));
    assert_eq!(
        failed.get("stopped").and_then(Json::as_str),
        Some("task_panicked"),
        "{}",
        failed.render()
    );

    // The neighbor, submitted into the same (now-exhausted-fault) pool,
    // is untouched: byte-identical invariants to the clean run.
    let neighbor = submit(addr, &body).get("id").and_then(Json::as_str).unwrap().to_string();
    let ok = poll_done(addr, &neighbor);
    assert_eq!(ok.get("valid").and_then(Json::as_bool), Some(true));
    assert_eq!(formulas(&ok), reference_formulas);

    // The fault-tolerance counters saw the panics (3 fires = 2 retries
    // then 1 permanent failure).
    let stats = request(addr, "GET", "/stats", None).unwrap().json().unwrap();
    let sched = stats.get("scheduler").expect("scheduler stats");
    assert_eq!(sched.get("tasks_retried").and_then(Json::as_u64), Some(2));
    assert_eq!(sched.get("tasks_panicked").and_then(Json::as_u64), Some(1));
    handle.shutdown();
}

#[test]
fn repeated_panics_on_one_spec_trip_the_quarantine_breaker() {
    // Every stage task panics, forever. Two jobs on the same source
    // burn through retries and fail as task_panicked; the third hits
    // the spec-hash circuit breaker and fails fast as quarantined
    // without ever reaching a worker.
    let handle = start(ServeConfig {
        workers: 2,
        faults: Faults::parse("seed=3,sched.task_panic=1.0").unwrap(),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();
    let body = format!(r#"{{"source":{},"fast":true}}"#, src_json());
    for expected in ["task_panicked", "task_panicked", "quarantined"] {
        let id = submit(addr, &body).get("id").and_then(Json::as_str).unwrap().to_string();
        let job = poll_done(addr, &id);
        assert_eq!(job.get("stopped").and_then(Json::as_str), Some(expected), "{}", job.render());
        assert_eq!(job.get("valid").and_then(Json::as_bool), Some(false));
    }
    let stats = request(addr, "GET", "/stats", None).unwrap().json().unwrap();
    let sched = stats.get("scheduler").expect("scheduler stats");
    assert_eq!(sched.get("jobs_quarantined").and_then(Json::as_u64), Some(1));
    // The breaker is keyed by spec hash: a *different* source is
    // served normally (the fault plan still panics its tasks, but it
    // is admitted and scheduled rather than failed fast).
    let other = gcln_engine::events::json_string(
        "inputs n; pre n >= 0; post x == 3 * n;\n\
         x = 0; i = 0;\nwhile (i < n) { i = i + 1; x = x + 3; }",
    );
    let id = submit(addr, &format!(r#"{{"source":{other},"fast":true}}"#))
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let job = poll_done(addr, &id);
    assert_eq!(job.get("stopped").and_then(Json::as_str), Some("task_panicked"));
    handle.shutdown();
}

#[test]
fn admitted_but_incomplete_jobs_are_resubmitted_on_restart() {
    let path = temp_path("resubmit.jsonl");
    let _ = std::fs::remove_file(&path);
    // Handcraft the journal a crashed server would leave behind: an
    // admission record with no matching completion.
    {
        let journal = Journal::open(&path).unwrap();
        journal
            .append(&format!(
                r#"{{"type":"admitted","id":"job-1","source":{},"fast":true}}"#,
                src_json()
            ))
            .unwrap();
    }
    let handle =
        start(ServeConfig { workers: 2, journal: Some(path.clone()), ..ServeConfig::default() })
            .unwrap();
    let addr = handle.local_addr();
    let stats = request(addr, "GET", "/stats", None).unwrap().json().unwrap();
    let journal_stats = stats.get("journal").expect("journal stats");
    assert_eq!(
        journal_stats.get("jobs_resubmitted").and_then(Json::as_u64),
        Some(1),
        "{}",
        stats.render()
    );
    // The orphaned admission runs to completion under its original id;
    // inference is deterministic, so this IS the result the crashed
    // process would have produced.
    let job = poll_done(addr, "job-1");
    assert_eq!(job.get("valid").and_then(Json::as_bool), Some(true));
    assert!(!formulas(&job).is_empty());
    handle.shutdown();

    // The completion journaled; a second restart replays it as done
    // instead of resubmitting.
    let handle =
        start(ServeConfig { workers: 2, journal: Some(path.clone()), ..ServeConfig::default() })
            .unwrap();
    let addr = handle.local_addr();
    let stats = request(addr, "GET", "/stats", None).unwrap().json().unwrap();
    let journal_stats = stats.get("journal").expect("journal stats");
    assert_eq!(journal_stats.get("jobs_resubmitted").and_then(Json::as_u64), Some(0));
    assert_eq!(journal_stats.get("jobs_replayed").and_then(Json::as_u64), Some(1));
    let replayed = request(addr, "GET", "/jobs/job-1", None).unwrap();
    assert_eq!(replayed.status, 200);
    assert!(replayed.body.contains(r#""status":"done""#));
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn admit_records_that_admission_would_reject_are_skipped_on_restart() {
    let path = temp_path("unadmittable.jsonl");
    let _ = std::fs::remove_file(&path);
    // CRC-valid admit records whose submissions `POST /jobs` answers
    // with 400: each is counted as skipped once, none is resubmitted,
    // and none stops the server from starting.
    let cases = [
        (1, r#""max_degree":0"#, "degree below the range"),
        (2, r#""max_degree":4294967299"#, "degree beyond u32"),
        (3, r#""deadline_secs":-1"#, "negative deadline"),
        (4, r#""colour":"red""#, "unknown key"),
    ];
    {
        let journal = Journal::open(&path).unwrap();
        for (id, member, why) in cases {
            let record = format!(
                r#"{{"type":"admitted","id":"job-{id}","source":{},"fast":true,{member}}}"#,
                src_json()
            );
            journal.append(&record).unwrap_or_else(|e| panic!("{why}: {e}"));
        }
    }
    let handle =
        start(ServeConfig { workers: 2, journal: Some(path.clone()), ..ServeConfig::default() })
            .expect("start survives unadmittable admit records");
    let addr = handle.local_addr();
    let stats = request(addr, "GET", "/stats", None).unwrap().json().unwrap();
    let journal_stats = stats.get("journal").expect("journal stats");
    assert_eq!(
        journal_stats.get("lines_skipped").and_then(Json::as_u64),
        Some(cases.len() as u64),
        "{}",
        stats.render()
    );
    assert_eq!(journal_stats.get("jobs_resubmitted").and_then(Json::as_u64), Some(0));
    for (id, _, why) in cases {
        let resp = request(addr, "GET", &format!("/jobs/job-{id}"), None).unwrap();
        assert_eq!(resp.status, 404, "{why}: {}", resp.body);
    }
    handle.shutdown();
    // The first restart compacted the skipped records away, so the next
    // one does not count them again.
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(!text.contains("admitted"), "skipped records stay on disk: {text}");
    let handle =
        start(ServeConfig { journal: Some(path.clone()), ..ServeConfig::default() }).unwrap();
    let stats = request(handle.local_addr(), "GET", "/stats", None).unwrap().json().unwrap();
    let skipped = stats.get("journal").and_then(|j| j.get("lines_skipped")).and_then(Json::as_u64);
    assert_eq!(skipped, Some(0), "{}", stats.render());
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_failed_journal_append_rolls_the_admission_back() {
    let path = temp_path("rollback.jsonl");
    let _ = std::fs::remove_file(&path);
    // The first journal append tears (crash mid-write); admission must
    // not be reported when the durable record is not.
    let handle = start(ServeConfig {
        workers: 2,
        journal: Some(path.clone()),
        faults: Faults::parse("seed=5,journal.torn_write=1.0:1").unwrap(),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();
    let body = format!(r#"{{"source":{},"fast":true}}"#, src_json());
    let rejected = request(addr, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(rejected.status, 503, "{}", rejected.body);
    assert!(rejected.body.contains("not admitted"), "{}", rejected.body);

    // The fault budget is spent: the retry succeeds end-to-end.
    let id = submit(addr, &body).get("id").and_then(Json::as_str).unwrap().to_string();
    poll_done(addr, &id);
    let stats = request(addr, "GET", "/stats", None).unwrap().json().unwrap();
    let done = stats.get("jobs").and_then(|j| j.get("done")).and_then(Json::as_u64);
    assert_eq!(done, Some(1), "exactly one job was ever admitted: {}", stats.render());
    handle.shutdown();

    // Restart: the torn admission must not resurrect as a ghost job.
    let handle =
        start(ServeConfig { workers: 2, journal: Some(path.clone()), ..ServeConfig::default() })
            .unwrap();
    let addr = handle.local_addr();
    let stats = request(addr, "GET", "/stats", None).unwrap().json().unwrap();
    let journal_stats = stats.get("journal").expect("journal stats");
    assert_eq!(journal_stats.get("jobs_resubmitted").and_then(Json::as_u64), Some(0));
    let replayed = request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(replayed.status, 200, "the completed job replays");
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn connection_faults_reset_or_stall_without_wedging_the_server() {
    // Every other connection is reset at accept; the survivors are
    // stalled briefly. The server must keep answering on the
    // connections the plan lets through — no wedge, no corruption.
    let handle = start(ServeConfig {
        workers: 1,
        faults: Faults::parse("seed=9,serve.conn_reset=0.5,serve.conn_stall=0.5").unwrap(),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();
    let mut answered = 0;
    for _ in 0..20 {
        if let Ok(resp) = request(addr, "GET", "/healthz", None) {
            assert_eq!(resp.status, 200);
            answered += 1;
        }
    }
    assert!(answered >= 3, "some connections must get through, saw {answered}/20");
    handle.shutdown();
}
