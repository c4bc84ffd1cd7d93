//! The batch inference server: admission control and job records over
//! the `gcln-sched` stage-graph scheduler, fronted by the hand-rolled
//! HTTP layer ([`crate::http`]).
//!
//! Life of a job:
//!
//! 1. `POST /jobs` passes the per-client rate limiter (token bucket
//!    keyed by `x-client-id` or peer IP → `429` + `Retry-After`),
//!    parses the body, resolves the spec through the [`SpecCache`]
//!    (content-hash memoized), and submits to the scheduler — or
//!    answers `503` + `Retry-After` when the server is at capacity
//!    (backpressure instead of latency collapse). The client's
//!    remaining rate allowance becomes the job's scheduler priority,
//!    so a burst-heavy client degrades its own latency first.
//! 2. The scheduler interleaves the job's stage tasks (trace, training
//!    attempts, extraction, checking) with every other job's across one
//!    shared worker pool; each event is appended to the record as a
//!    pre-serialized JSON line, in per-job order.
//! 3. On completion the record flips to `done` and — when a journal is
//!    configured — one JSON line is appended (and the journal is
//!    compacted once it outgrows its size threshold), so a restarted
//!    server replays results without re-running inference.
//!
//! `DELETE /jobs/{id}` trips the token; the engine stops cooperatively
//! at the next task boundary and the record keeps its partial events
//! and invariants (`"stopped":"cancelled"`). `GET /metrics` exposes
//! the scheduler's stage-latency histograms, queue wait, worker
//! utilization, and cache hit ratios in Prometheus text format.
//!
//! Determinism: the scheduler drives the same stage machine as a solo
//! `Engine::run` and both caches are keyed purely by content, so
//! concurrent submissions of the same source produce bit-identical
//! results and event streams (modulo the wall-clock `ms` fields) at any
//! worker count.

use crate::cache::SpecCache;
use crate::http::{read_request, Limits, Request, Response};
use crate::journal::{FsyncPolicy, Journal};
use crate::json::Json;
use gcln_faults::{site, Faults};
use crate::limiter::{Admission, RateLimit, RateLimiter};
use gcln_engine::cache::TraceCache;
use gcln_engine::events::json_string;
use gcln_engine::{CancelToken, Engine, Event, Job, PipelineConfig};
use gcln_sched::{JobEvent, SchedConfig, Scheduler, SubmitOptions};
use std::collections::HashMap;
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration; see `gcln serve` for the CLI spelling.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind host (loopback by default — put a real proxy in front for
    /// anything public).
    pub host: String,
    /// Bind port; `0` picks an ephemeral port (reported by
    /// [`ServerHandle::local_addr`] and the CLI's `listening on` line).
    pub port: u16,
    /// Scheduler worker threads (the HTTP layer has its own
    /// thread-per-connection accept loop).
    pub workers: usize,
    /// Admission bound: submissions are rejected with `503` once more
    /// than `queue_cap` jobs are waiting beyond the pool width (i.e. at
    /// most `workers + queue_cap` unfinished jobs are admitted).
    pub queue_cap: usize,
    /// JSON-lines job journal path (`None` = no persistence).
    pub journal: Option<PathBuf>,
    /// Compact the journal (rewrite it with only the retained job
    /// records) when it exceeds this many bytes. `None` disables
    /// compaction.
    pub journal_compact_bytes: Option<u64>,
    /// Per-client rate limit on `POST /jobs` (`None` = unlimited).
    pub rate_limit: Option<RateLimit>,
    /// Completed-job records retained in memory (oldest evicted
    /// beyond this; queued/running jobs are never evicted). Evicted
    /// results remain in the journal until compaction, which caps it
    /// the same way. Bounds a long-lived server's memory.
    pub max_retained_jobs: usize,
    /// Ceiling on every job's wall-clock deadline (`None` = unlimited).
    /// Submissions without `deadline_secs` get exactly this deadline;
    /// requested deadlines are clamped to it. Keeps one pathological
    /// job from pinning a worker forever.
    pub max_job_time: Option<Duration>,
    /// HTTP parser limits.
    pub limits: Limits,
    /// Socket read timeout per connection (slowloris guard — a peer
    /// dribbling a request slower than this gets a 408).
    /// `Duration::ZERO` disables the timeout.
    pub read_timeout: Duration,
    /// Socket write timeout per connection. `Duration::ZERO` disables.
    pub write_timeout: Duration,
    /// Whether `append`ed journal records are fsynced individually.
    pub journal_fsync: FsyncPolicy,
    /// Deterministic fault injection plan, threaded into the scheduler
    /// (task panics), the journal (torn writes, bit flips), and the
    /// connection path (resets, stalls). Disabled by default.
    pub faults: Faults,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            workers: 2,
            queue_cap: 16,
            journal: None,
            journal_compact_bytes: Some(4 * 1024 * 1024),
            rate_limit: None,
            max_retained_jobs: 4096,
            max_job_time: Some(Duration::from_secs(600)),
            limits: Limits::default(),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            journal_fsync: FsyncPolicy::Never,
            faults: Faults::disabled(),
        }
    }
}

/// Job lifecycle states exposed by the API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobStatus {
    Queued,
    Running,
    Done,
}

impl JobStatus {
    fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
        }
    }
}

/// One learned invariant in API form.
struct InvariantOut {
    loop_id: u64,
    formula: String,
    attempts: u64,
}

/// Mutable job state behind the record's lock.
struct JobState {
    status: JobStatus,
    valid: bool,
    stopped: Option<String>,
    cegis_rounds: u64,
    seconds: f64,
    invariants: Vec<InvariantOut>,
    /// Event lines, each a complete JSON object, in emission order.
    events: Vec<String>,
}

impl JobState {
    /// A freshly admitted job's state.
    fn queued() -> JobState {
        JobState {
            status: JobStatus::Queued,
            valid: false,
            stopped: None,
            cegis_rounds: 0,
            seconds: 0.0,
            invariants: Vec::new(),
            events: Vec::new(),
        }
    }
}

struct JobRecord {
    id: u64,
    name: String,
    source_hash: u64,
    /// Scheduler priority the job was admitted with (rate-limit
    /// headroom; 0 when rate limiting is off or after replay).
    priority: i32,
    /// The `{"type":"admitted"}` journal payload this job was admitted
    /// with — compaction retains it while the job is incomplete, so a
    /// crash after compaction still resubmits the job on restart.
    /// `None` for journal-replayed completed records.
    admit_line: Option<String>,
    cancel: CancelToken,
    state: Mutex<JobState>,
}

impl JobRecord {
    /// The API id (`job-<n>`).
    fn api_id(&self) -> String {
        format!("job-{}", self.id)
    }

    /// The record's fields as the members of a JSON object (no braces)
    /// — shared verbatim by `GET /jobs/{id}` and the journal format.
    fn body_json(&self) -> String {
        let st = self.state.lock().unwrap();
        let stopped = match &st.stopped {
            None => "null".to_string(),
            Some(reason) => json_string(reason),
        };
        let invariants: Vec<String> = st
            .invariants
            .iter()
            .map(|inv| {
                format!(
                    r#"{{"loop":{},"formula":{},"attempts":{}}}"#,
                    inv.loop_id,
                    json_string(&inv.formula),
                    inv.attempts
                )
            })
            .collect();
        format!(
            r#""id":{},"name":{},"source_hash":"{:016x}","status":"{}","priority":{},"valid":{},"stopped":{},"cegis_rounds":{},"seconds":{:.3},"invariants":[{}],"events":[{}]"#,
            json_string(&self.api_id()),
            json_string(&self.name),
            self.source_hash,
            st.status.as_str(),
            self.priority,
            st.valid,
            stopped,
            st.cegis_rounds,
            st.seconds,
            invariants.join(","),
            st.events.join(",")
        )
    }
}

/// Admission state: flips under one lock so a submission either sees
/// shutdown/capacity truthfully or is fully admitted (record inserted
/// and scheduler-submitted) before anyone else can observe it.
struct AdmissionState {
    active: usize,
    shutdown: bool,
}

struct Shared {
    cfg: ServeConfig,
    local_addr: SocketAddr,
    sched: Scheduler,
    spec_cache: SpecCache,
    trace_cache: Arc<TraceCache>,
    limiter: Option<RateLimiter>,
    journal: Option<Journal>,
    /// Serializes journal append + compaction across completions: a
    /// rewrite snapshot and a concurrent append may not interleave, or
    /// the appended record would be erased from disk (records flip to
    /// `Done` *before* this gate, so a rewrite's snapshot always sees
    /// any record whose append preceded the rewrite).
    journal_gate: Mutex<()>,
    journal_rejected: usize,
    /// Records successfully replayed at startup (fixed; `/stats` must
    /// not re-derive this from the evictable jobs map).
    journal_replayed: usize,
    /// Admitted-but-incomplete records resubmitted at startup (fixed).
    journal_resubmitted: usize,
    jobs: Mutex<HashMap<u64, Arc<JobRecord>>>,
    admission: Mutex<AdmissionState>,
    next_id: AtomicU64,
    completed: AtomicU64,
    rate_limited: AtomicU64,
    compactions: AtomicU64,
    admitted: AtomicU64,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.admission.lock().unwrap().shutdown
    }

    fn trigger_shutdown(&self) {
        {
            // The flag flips under the admission lock — the same lock
            // job admission checks it under — so a submission either
            // sees shutdown (503) or lands in the jobs map *before* the
            // flag is set, where the cancel sweep below reaches it.
            let mut admission = self.admission.lock().unwrap();
            if admission.shutdown {
                return;
            }
            admission.shutdown = true;
            // Cancel everything queued or running so the scheduler
            // drains promptly; cancelled jobs still complete with
            // partial outcomes and reach the journal.
            for record in self.jobs.lock().unwrap().values() {
                record.cancel.cancel();
            }
        }
        // Wake the acceptor out of its blocking `accept`.
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// A running server: the bound address plus the thread handles needed
/// for a clean shutdown.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound socket address (resolves `port: 0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.shared.local_addr.port()
    }

    /// Triggers shutdown and joins every server thread. Running jobs
    /// are cancelled (they finish as `stopped: cancelled` partial
    /// outcomes and are journaled).
    pub fn shutdown(mut self) {
        self.shared.trigger_shutdown();
        self.join();
    }

    /// Blocks until the server shuts down (e.g. via `POST /shutdown`).
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // The acceptor is down and the admission flag is set, so no new
        // jobs can arrive: draining the scheduler is race-free (every
        // admitted job completes — and is journaled — before this
        // returns).
        self.shared.sched.shutdown();
        let conns: Vec<JoinHandle<()>> =
            self.shared.conn_threads.lock().unwrap().drain(..).collect();
        for conn in conns {
            let _ = conn.join();
        }
    }
}

/// Starts the server: binds, replays the journal (if any), and spawns
/// the scheduler pool and the acceptor thread.
///
/// # Errors
///
/// Returns an I/O error when the bind fails, the journal cannot be
/// opened, or the configuration is degenerate (zero workers/queue).
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    use std::io::{Error, ErrorKind};
    if cfg.workers == 0 || cfg.queue_cap == 0 || cfg.max_retained_jobs == 0 {
        return Err(Error::new(
            ErrorKind::InvalidInput,
            "workers, queue-cap, and max_retained_jobs must be >= 1",
        ));
    }
    let listener = TcpListener::bind((cfg.host.as_str(), cfg.port))?;
    let local_addr = listener.local_addr()?;

    let mut journal = match &cfg.journal {
        Some(path) => {
            let mut j = Journal::open(path)?;
            j.set_fsync(cfg.journal_fsync);
            j.set_faults(cfg.faults.clone());
            Some(j)
        }
        None => None,
    };
    let spec_cache = SpecCache::new();
    let mut jobs = HashMap::new();
    let mut next_id = 1;
    let mut journal_rejected = 0;
    let mut journal_replayed = 0;
    let mut admits: Vec<Json> = Vec::new();
    if let Some(journal) = &mut journal {
        // Drain (not borrow) the parsed records so they drop here —
        // a long journal must not stay resident beyond startup.
        for record in journal.take_replayed() {
            match record.get("type").and_then(Json::as_str) {
                Some("job") => match replay_record(&record) {
                    Some(r) => {
                        journal_replayed += 1;
                        next_id = next_id.max(r.id + 1);
                        jobs.insert(r.id, Arc::new(r));
                    }
                    None => journal_rejected += 1,
                },
                Some("admitted") => admits.push(record),
                _ => journal_rejected += 1,
            }
        }
        evict_completed(&mut jobs, cfg.max_retained_jobs);
    }
    // Admitted-but-incomplete jobs: the server answered 202 (the admit
    // record is durable) but crashed before journaling a completion.
    // Re-derive each submission from its admit record and recompute —
    // inference is deterministic, so the client reads the same result
    // it would have gotten. Unusable admit records count as rejected.
    let mut resubmits = Vec::new();
    let mut resubmit_ids = std::collections::HashSet::new();
    for admit in &admits {
        let Some(p) = parse_admit(admit) else {
            journal_rejected += 1;
            continue;
        };
        if jobs.contains_key(&p.id) || !resubmit_ids.insert(p.id) {
            continue; // completed (or already queued for resubmission)
        }
        match spec_cache.fetch(&p.source, p.name.as_deref()) {
            Ok((source_hash, mut spec)) => {
                spec.apply_overrides(p.max_degree, &[]).expect("a degree override always applies");
                next_id = next_id.max(p.id + 1);
                resubmits.push((p, source_hash, spec, admit.render()));
            }
            Err(_) => journal_rejected += 1,
        }
    }
    let journal_resubmitted = resubmits.len();

    let trace_cache = Arc::new(TraceCache::new());
    let engine = Engine::new().with_trace_cache(trace_cache.clone());
    let sched_cfg = SchedConfig::with_workers(cfg.workers).with_faults(cfg.faults.clone());
    let sched = Scheduler::with_engine(sched_cfg, engine);
    let shared = Arc::new(Shared {
        sched,
        spec_cache,
        trace_cache,
        limiter: cfg.rate_limit.map(RateLimiter::new),
        journal,
        journal_gate: Mutex::new(()),
        journal_rejected,
        journal_replayed,
        journal_resubmitted,
        jobs: Mutex::new(jobs),
        admission: Mutex::new(AdmissionState { active: journal_resubmitted, shutdown: false }),
        next_id: AtomicU64::new(next_id),
        completed: AtomicU64::new(0),
        rate_limited: AtomicU64::new(0),
        compactions: AtomicU64::new(0),
        admitted: AtomicU64::new(journal_resubmitted as u64),
        conn_threads: Mutex::new(Vec::new()),
        local_addr,
        cfg,
    });

    for (p, source_hash, spec, admit_line) in resubmits {
        let record = Arc::new(JobRecord {
            id: p.id,
            name: spec.problem.name.clone(),
            source_hash,
            priority: p.priority,
            admit_line: Some(admit_line),
            cancel: CancelToken::new(),
            state: Mutex::new(JobState::queued()),
        });
        shared.jobs.lock().unwrap().insert(p.id, record.clone());
        launch_job(&shared, &record, spec, p.fast, p.deadline, p.step_budget);
    }

    let acceptor = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("gcln-serve-accept".to_string())
            .spawn(move || accept_loop(&shared, listener))
            .expect("spawn acceptor")
    };
    Ok(ServerHandle { shared, acceptor: Some(acceptor) })
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if shared.is_shutdown() {
            break;
        }
        let stream = match accepted {
            Ok((stream, _)) => stream,
            Err(_) => {
                // Persistent accept errors (fd exhaustion, interrupts)
                // must not busy-spin the acceptor.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        let conn_shared = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("gcln-serve-conn".to_string())
            .spawn(move || handle_connection(&conn_shared, stream));
        match spawned {
            Ok(handle) => {
                let mut conns = shared.conn_threads.lock().unwrap();
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
            // Thread exhaustion: the failed spawn consumed (and closed)
            // the stream, so this connection is shed — the client sees a
            // reset and retries. What matters is that the acceptor
            // survives: a panic here would drop the listener and wedge
            // the whole process with workers still joined on.
            Err(e) => {
                eprintln!("[gcln-serve] connection thread spawn failed (shedding): {e}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let faults = &shared.cfg.faults;
    if faults.should_fire(site::SERVE_CONN_RESET) {
        // Injected peer reset: drop the connection unanswered — the
        // client sees a reset mid-exchange and must retry.
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return;
    }
    if let Some(roll) = faults.fire(site::SERVE_CONN_STALL) {
        // Injected stall: sit on the accepted connection for a bounded,
        // seed-derived interval before serving it.
        std::thread::sleep(Duration::from_millis(roll % 250));
    }
    // Bounded patience per connection: a stalled peer must not pin the
    // thread (or delay shutdown joins) forever. Zero disables.
    let timeout = |d: Duration| (!d.is_zero()).then_some(d);
    let _ = stream.set_read_timeout(timeout(shared.cfg.read_timeout));
    let _ = stream.set_write_timeout(timeout(shared.cfg.write_timeout));
    let peer = stream.peer_addr().ok().map(|a| a.ip());
    let response = match read_request(&mut stream, &shared.cfg.limits) {
        Ok(None) => return,
        Ok(Some(request)) => route(shared, &request, peer),
        Err(e) => Response::from(e),
    };
    let _ = response.write_to(&mut stream);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn route(shared: &Arc<Shared>, request: &Request, peer: Option<IpAddr>) -> Response {
    let path = request.path();
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => Response::json(200, r#"{"ok":true}"#),
        ("GET", "/stats") => stats(shared),
        ("GET", "/metrics") => metrics(shared),
        ("POST", "/jobs") => post_job(shared, request, peer),
        ("POST", "/shutdown") => {
            shared.trigger_shutdown();
            Response::json(200, r#"{"ok":true,"shutting_down":true}"#)
        }
        (method, path) if path.strip_prefix("/jobs/").is_some() => {
            let id = path.strip_prefix("/jobs/").unwrap_or_default();
            match method {
                "GET" => get_job(shared, id),
                "DELETE" => delete_job(shared, id),
                _ => Response::error(405, "use GET or DELETE on /jobs/{id}")
                    .with_header("allow", "GET, DELETE"),
            }
        }
        (_, "/jobs") => Response::error(405, "use POST on /jobs").with_header("allow", "POST"),
        (_, "/healthz" | "/stats" | "/metrics") => {
            Response::error(405, "use GET here").with_header("allow", "GET")
        }
        (_, "/shutdown") => {
            Response::error(405, "use POST on /shutdown").with_header("allow", "POST")
        }
        _ => Response::error(404, "no such resource"),
    }
}

/// Allowed `POST /jobs` body keys — anything else is a 400 so typos
/// (`"deadline"` for `"deadline_secs"`) fail loudly instead of being
/// silently ignored.
const JOB_KEYS: [&str; 6] = ["source", "name", "fast", "deadline_secs", "step_budget", "max_degree"];

/// Largest accepted `max_degree` override — above the auto-derivation
/// clamp (6) for headroom, but bounded.
const MAX_DEGREE_OVERRIDE: u64 = 8;

fn post_job(shared: &Arc<Shared>, request: &Request, peer: Option<IpAddr>) -> Response {
    if shared.is_shutdown() {
        return Response::error(503, "server is shutting down").with_header("retry-after", "1");
    }
    // Per-client rate limit, before any parsing work: the limiter is
    // the cheap shield in front of the parser, and the remaining
    // allowance becomes the job's scheduler priority.
    let mut priority = 0;
    if let Some(limiter) = &shared.limiter {
        let key = match request.header("x-client-id") {
            Some(id) => id.to_string(),
            None => peer.map_or_else(|| "unknown".to_string(), |ip| ip.to_string()),
        };
        match limiter.admit(&key, Instant::now()) {
            Admission::Granted { priority: p } => priority = p,
            Admission::Rejected { retry_after_secs } => {
                shared.rate_limited.fetch_add(1, Ordering::Relaxed);
                let secs = retry_after_secs.ceil().max(1.0) as u64;
                return Response::error(429, "rate limit exceeded for this client")
                    .with_header("retry-after", &secs.to_string());
            }
        }
    }
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "body is not UTF-8");
    };
    let body = match Json::parse(text) {
        Ok(v @ Json::Obj(_)) => v,
        Ok(_) => return Response::error(400, "body must be a JSON object"),
        Err(e) => return Response::error(400, &format!("body is not valid JSON: {e}")),
    };
    if let Json::Obj(members) = &body {
        for (key, _) in members {
            if !JOB_KEYS.contains(&key.as_str()) {
                return Response::error(
                    400,
                    &format!("unknown key {key:?} (allowed: {})", JOB_KEYS.join(", ")),
                );
            }
        }
    }
    let Some(source) = body.get("source").and_then(Json::as_str) else {
        return Response::error(400, "missing required string field \"source\"");
    };
    let name = match body.get("name") {
        None => None,
        Some(v) => match v.as_str() {
            Some(s) => Some(s),
            None => return Response::error(400, "\"name\" must be a string"),
        },
    };
    let fast = match body.get("fast") {
        None => false,
        Some(v) => match v.as_bool() {
            Some(b) => b,
            None => return Response::error(400, "\"fast\" must be a boolean"),
        },
    };
    let deadline = match body.get("deadline_secs") {
        None => None,
        Some(v) => match v.as_f64().filter(|s| s.is_finite() && *s >= 0.0) {
            Some(secs) => match Duration::try_from_secs_f64(secs) {
                Ok(d) => Some(d),
                Err(_) => return Response::error(400, "\"deadline_secs\" out of range"),
            },
            None => {
                return Response::error(400, "\"deadline_secs\" must be a non-negative number")
            }
        },
    };
    let step_budget = match body.get("step_budget") {
        None => None,
        Some(v) => match v.as_u64() {
            Some(steps) => Some(steps),
            None => return Response::error(400, "\"step_budget\" must be a non-negative integer"),
        },
    };
    // Term enumeration explodes combinatorially with degree (the
    // auto-derivation clamp is [2,6]); an unbounded override would let
    // one request pin a worker indefinitely.
    let max_degree = match body.get("max_degree") {
        None => None,
        Some(v) => match v.as_u64().filter(|d| (1..=MAX_DEGREE_OVERRIDE).contains(d)) {
            Some(d) => Some(d as u32),
            None => {
                return Response::error(
                    400,
                    &format!("\"max_degree\" must be an integer in 1..={MAX_DEGREE_OVERRIDE}"),
                )
            }
        },
    };

    let (source_hash, mut spec) = match shared.spec_cache.fetch(source, name) {
        Ok(hit) => hit,
        Err(e) => return Response::error(400, &format!("source does not parse: {e}")),
    };
    spec.apply_overrides(max_degree, &[]).expect("a degree override always applies");

    // Admission: the lock covers the capacity check and the record
    // insert, so two racing submissions cannot both squeeze past the
    // cap — and a shutdown (which flips the flag under the same lock)
    // always finds the admitted record in the jobs map and cancels its
    // token. The scheduler submit happens *after* the lock is released:
    // a quarantined submission completes synchronously on this thread,
    // re-entering `finish_record`, which takes this lock (and the jobs
    // lock and journal gate) itself.
    let record = {
        let mut admission = shared.admission.lock().unwrap();
        if admission.shutdown {
            return Response::error(503, "server is shutting down")
                .with_header("retry-after", "1");
        }
        if admission.active >= shared.cfg.queue_cap + shared.cfg.workers {
            return Response::error(503, "job queue is full").with_header("retry-after", "1");
        }
        admission.active += 1;
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let admit_line =
            admit_json(id, source, name, fast, deadline, step_budget, max_degree, priority);
        let record = Arc::new(JobRecord {
            id,
            name: spec.problem.name.clone(),
            source_hash,
            priority,
            admit_line: Some(admit_line),
            cancel: CancelToken::new(),
            state: Mutex::new(JobState::queued()),
        });
        shared.jobs.lock().unwrap().insert(id, record.clone());
        record
    };

    // Durable admission: the admit record reaches the journal before
    // the 202, so "admitted" means "a restart will recover this job".
    // An append failure rolls the admission back — the client gets a
    // 503 and retries; nothing half-admitted survives.
    if let Some(journal) = &shared.journal {
        let gate = shared.journal_gate.lock().unwrap();
        let appended = journal.append(record.admit_line.as_deref().unwrap_or_default());
        drop(gate);
        if let Err(e) = appended {
            eprintln!("[gcln-serve] admit journal append failed for {}: {e}", record.api_id());
            shared.jobs.lock().unwrap().remove(&record.id);
            shared.admission.lock().unwrap().active -= 1;
            return Response::error(503, "journal append failed; job not admitted")
                .with_header("retry-after", "1");
        }
    }
    shared.admitted.fetch_add(1, Ordering::Relaxed);

    launch_job(shared, &record, spec, fast, deadline, step_budget);
    Response::json(
        202,
        format!(
            r#"{{"id":{},"status":"queued","name":{},"source_hash":"{:016x}","priority":{}}}"#,
            json_string(&record.api_id()),
            json_string(&record.name),
            source_hash,
            priority
        ),
    )
}

/// Builds the engine job for an admitted record and submits it to the
/// scheduler, wiring the event sink and the completion hook. Must be
/// called *without* the admission lock (or any other server lock)
/// held: a quarantined submission completes synchronously on the
/// calling thread, running [`finish_record`] re-entrantly.
fn launch_job(
    shared: &Arc<Shared>,
    record: &Arc<JobRecord>,
    spec: gcln_engine::ProblemSpec,
    fast: bool,
    deadline: Option<Duration>,
    step_budget: Option<u64>,
) {
    let config = if fast { PipelineConfig::fast() } else { PipelineConfig::default() };
    let ext_names = spec.problem.extended_names();
    let mut job = Job::new(spec).with_config(config);
    job.cancel = record.cancel.clone();
    // The server-wide job-time ceiling applies even when the submission
    // asked for no deadline at all.
    let deadline = match (deadline, shared.cfg.max_job_time) {
        (Some(requested), Some(cap)) => Some(requested.min(cap)),
        (None, cap) => cap,
        (requested, None) => requested,
    };
    if let Some(deadline) = deadline {
        job = job.with_deadline(deadline);
    }
    if let Some(steps) = step_budget {
        job = job.with_step_budget(steps);
    }
    let sink_record = record.clone();
    let done_shared = shared.clone();
    let done_record = record.clone();
    shared.sched.submit_with(
        job,
        SubmitOptions {
            priority: record.priority,
            // Keyed by source hash: repeated panics on the same spec
            // trip the scheduler's circuit breaker, and later
            // submissions of that spec fail fast as `quarantined`.
            fault_key: Some(record.source_hash),
        },
        Some(Box::new(move |ev: &JobEvent| {
            let mut st = sink_record.state.lock().unwrap();
            if matches!(ev.event, Event::JobStarted { .. }) {
                st.status = JobStatus::Running;
            }
            st.events.push(ev.event.to_json());
        })),
        Some(Box::new(move |outcome, _stats| {
            finish_record(&done_shared, &done_record, outcome, &ext_names);
        })),
    );
}

/// Renders the `{"type":"admitted"}` journal payload for a submission —
/// everything needed to re-derive and resubmit the job after a crash.
#[allow(clippy::too_many_arguments)]
fn admit_json(
    id: u64,
    source: &str,
    name: Option<&str>,
    fast: bool,
    deadline: Option<Duration>,
    step_budget: Option<u64>,
    max_degree: Option<u32>,
    priority: i32,
) -> String {
    format!(
        r#"{{"type":"admitted","id":{},"source":{},"name":{},"fast":{},"deadline_secs":{},"step_budget":{},"max_degree":{},"priority":{}}}"#,
        json_string(&format!("job-{id}")),
        json_string(source),
        name.map_or_else(|| "null".to_string(), json_string),
        fast,
        deadline.map_or_else(|| "null".to_string(), |d| format!("{}", d.as_secs_f64())),
        step_budget.map_or_else(|| "null".to_string(), |s| s.to_string()),
        max_degree.map_or_else(|| "null".to_string(), |d| d.to_string()),
        priority,
    )
}

/// The submission parameters recovered from one admit record.
struct AdmitParams {
    id: u64,
    source: String,
    name: Option<String>,
    fast: bool,
    deadline: Option<Duration>,
    step_budget: Option<u64>,
    max_degree: Option<u32>,
    priority: i32,
}

/// Parses an admit record; `None` rejects records missing the id or
/// source (nothing to resubmit without them).
fn parse_admit(v: &Json) -> Option<AdmitParams> {
    Some(AdmitParams {
        id: parse_job_id(v.get("id")?.as_str()?)?,
        source: v.get("source")?.as_str()?.to_string(),
        name: v
            .get("name")
            .filter(|n| !n.is_null())
            .and_then(Json::as_str)
            .map(str::to_string),
        fast: v.get("fast").and_then(Json::as_bool).unwrap_or(false),
        deadline: v
            .get("deadline_secs")
            .filter(|d| !d.is_null())
            .and_then(Json::as_f64)
            .and_then(|s| Duration::try_from_secs_f64(s).ok()),
        step_budget: v.get("step_budget").filter(|s| !s.is_null()).and_then(Json::as_u64),
        max_degree: v
            .get("max_degree")
            .filter(|d| !d.is_null())
            .and_then(Json::as_u64)
            .map(|d| d as u32),
        priority: v.get("priority").and_then(Json::as_f64).map_or(0, |p| p as i32),
    })
}

/// Completion hook, invoked by the scheduler worker that finished the
/// job: publishes the outcome on the record, journals it, and applies
/// retention (in-memory eviction + on-disk compaction).
fn finish_record(
    shared: &Arc<Shared>,
    record: &Arc<JobRecord>,
    outcome: &gcln_engine::InferenceOutcome,
    ext_names: &[String],
) {
    {
        let mut st = record.state.lock().unwrap();
        st.status = JobStatus::Done;
        st.valid = outcome.valid;
        st.stopped = outcome.stopped.map(|r| r.as_str().to_string());
        st.cegis_rounds = outcome.cegis_rounds_used as u64;
        st.seconds = outcome.runtime.as_secs_f64();
        st.invariants = outcome
            .loops
            .iter()
            .map(|li| InvariantOut {
                loop_id: li.loop_id as u64,
                formula: li.formula.display(ext_names).to_string(),
                attempts: li.attempts as u64,
            })
            .collect();
    }
    {
        let mut jobs = shared.jobs.lock().unwrap();
        evict_completed(&mut jobs, shared.cfg.max_retained_jobs);
    }
    if let Some(journal) = &shared.journal {
        // The gate serializes append + compaction across completions
        // (never endpoint reads): without it, a rewrite built from a
        // snapshot taken before a neighbor's append would erase that
        // neighbor's record from disk. The jobs lock is only held for
        // the snapshot; serializing ~max_retained records and fsyncing
        // the rewrite happen outside it.
        let _gate = shared.journal_gate.lock().unwrap();
        let line = format!(r#"{{"type":"job",{}}}"#, record.body_json());
        if let Err(e) = journal.append(&line) {
            eprintln!("[gcln-serve] journal append failed for {}: {e}", record.api_id());
        }
        let compact: Option<Vec<Arc<JobRecord>>> = match shared.cfg.journal_compact_bytes {
            Some(threshold) if journal.size_bytes() > threshold => {
                let jobs = shared.jobs.lock().unwrap();
                let mut all: Vec<Arc<JobRecord>> = jobs.values().cloned().collect();
                all.sort_unstable_by_key(|r| r.id);
                Some(all)
            }
            _ => None,
        };
        if let Some(records) = compact {
            // Done jobs keep their result line; incomplete jobs keep
            // their admit line, so a crash after this rewrite still
            // resubmits them on restart.
            let lines: Vec<String> = records
                .iter()
                .filter_map(|r| {
                    if r.state.lock().unwrap().status == JobStatus::Done {
                        Some(format!(r#"{{"type":"job",{}}}"#, r.body_json()))
                    } else {
                        r.admit_line.clone()
                    }
                })
                .collect();
            match journal.rewrite(&lines) {
                Ok(()) => {
                    shared.compactions.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => eprintln!("[gcln-serve] journal compaction failed: {e}"),
            }
        }
    }
    shared.completed.fetch_add(1, Ordering::Relaxed);
    shared.admission.lock().unwrap().active -= 1;
}

/// Parses `job-<n>` into the numeric id.
fn parse_job_id(id: &str) -> Option<u64> {
    id.strip_prefix("job-")?.parse().ok()
}

fn lookup(shared: &Arc<Shared>, id: &str) -> Option<Arc<JobRecord>> {
    let id = parse_job_id(id)?;
    shared.jobs.lock().unwrap().get(&id).cloned()
}

fn get_job(shared: &Arc<Shared>, id: &str) -> Response {
    match lookup(shared, id) {
        Some(record) => Response::json(200, format!("{{{}}}", record.body_json())),
        None => Response::error(404, "no such job"),
    }
}

fn delete_job(shared: &Arc<Shared>, id: &str) -> Response {
    match lookup(shared, id) {
        Some(record) => {
            record.cancel.cancel();
            let status = record.state.lock().unwrap().status;
            Response::json(
                200,
                format!(
                    r#"{{"id":{},"status":"{}","cancelled":true}}"#,
                    json_string(&record.api_id()),
                    status.as_str()
                ),
            )
        }
        None => Response::error(404, "no such job"),
    }
}

fn stats(shared: &Arc<Shared>) -> Response {
    let active = shared.admission.lock().unwrap().active;
    // The scheduler interleaves jobs rather than pinning them to
    // workers, so the legacy queue/busy figures are derived: jobs
    // beyond the pool width are "queued", the rest keep workers busy.
    let queue_depth = active.saturating_sub(shared.cfg.workers);
    let busy_workers = active.min(shared.cfg.workers);
    let (mut queued, mut running, mut done) = (0u64, 0u64, 0u64);
    let total = {
        let jobs = shared.jobs.lock().unwrap();
        for record in jobs.values() {
            match record.state.lock().unwrap().status {
                JobStatus::Queued => queued += 1,
                JobStatus::Running => running += 1,
                JobStatus::Done => done += 1,
            }
        }
        jobs.len()
    };
    let cache_json = |s: gcln_engine::cache::CacheStats| {
        format!(r#"{{"hits":{},"misses":{},"entries":{}}}"#, s.hits, s.misses, s.entries)
    };
    let journal = match &shared.journal {
        None => "null".to_string(),
        Some(j) => format!(
            r#"{{"path":{},"jobs_replayed":{},"jobs_resubmitted":{},"lines_skipped":{},"repaired":{},"size_bytes":{},"compactions":{}}}"#,
            json_string(&j.path().display().to_string()),
            shared.journal_replayed,
            shared.journal_resubmitted,
            j.skipped_lines() + shared.journal_rejected,
            j.recovery().repaired,
            j.size_bytes(),
            shared.compactions.load(Ordering::Relaxed)
        ),
    };
    let sched = shared.sched.metrics();
    Response::json(
        200,
        format!(
            r#"{{"queue_depth":{},"queue_cap":{},"workers":{},"busy_workers":{},"jobs":{{"total":{},"queued":{},"running":{},"done":{},"completed_this_process":{}}},"scheduler":{{"active_jobs":{},"tasks_executed":{},"tasks_retried":{},"tasks_panicked":{},"jobs_quarantined":{},"utilization":{:.3}}},"rate_limited":{},"spec_cache":{},"trace_cache":{},"journal":{}}}"#,
            queue_depth,
            shared.cfg.queue_cap,
            shared.cfg.workers,
            busy_workers,
            total,
            queued,
            running,
            done,
            shared.completed.load(Ordering::Relaxed),
            shared.sched.active_jobs(),
            sched.tasks_executed,
            sched.tasks_retried,
            sched.tasks_panicked,
            sched.jobs_quarantined,
            sched.utilization(),
            shared.rate_limited.load(Ordering::Relaxed),
            cache_json(shared.spec_cache.stats()),
            cache_json(shared.trace_cache.stats()),
            journal
        ),
    )
}

/// `GET /metrics`: Prometheus text exposition (see [`crate::metrics`]).
fn metrics(shared: &Arc<Shared>) -> Response {
    let text = crate::metrics::render(
        &shared.sched.metrics(),
        shared.spec_cache.stats(),
        shared.trace_cache.stats(),
        crate::metrics::ServeCounters {
            rate_limited: shared.rate_limited.load(Ordering::Relaxed),
            journal_compactions: shared.compactions.load(Ordering::Relaxed),
            jobs_admitted: shared.admitted.load(Ordering::Relaxed),
            journal_skipped_lines: shared
                .journal
                .as_ref()
                .map_or(0, |j| (j.skipped_lines() + shared.journal_rejected) as u64),
            journal_resubmitted: shared.journal_resubmitted as u64,
        },
    );
    Response::text(200, text)
}

/// Drops the oldest completed records beyond `max_retained` — each
/// retains its full event stream, so an unbounded map would grow with
/// total submissions forever. Queued/running jobs are never evicted.
fn evict_completed(jobs: &mut HashMap<u64, Arc<JobRecord>>, max_retained: usize) {
    let mut done: Vec<u64> = jobs
        .iter()
        .filter(|(_, r)| r.state.lock().unwrap().status == JobStatus::Done)
        .map(|(&id, _)| id)
        .collect();
    let excess = done.len().saturating_sub(max_retained);
    if excess == 0 {
        return;
    }
    done.sort_unstable();
    for id in done.into_iter().take(excess) {
        jobs.remove(&id);
    }
}

/// Rebuilds a completed job record from one journal object; `None`
/// rejects structurally unusable records (missing id/status).
fn replay_record(v: &Json) -> Option<JobRecord> {
    let id = parse_job_id(v.get("id")?.as_str()?)?;
    let status = v.get("status")?.as_str()?;
    if status != "done" {
        return None;
    }
    let invariants = v
        .get("invariants")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|inv| {
            Some(InvariantOut {
                loop_id: inv.get("loop")?.as_u64()?,
                formula: inv.get("formula")?.as_str()?.to_string(),
                attempts: inv.get("attempts")?.as_u64()?,
            })
        })
        .collect();
    let events = v
        .get("events")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(Json::render)
        .collect();
    Some(JobRecord {
        id,
        name: v.get("name").and_then(Json::as_str).unwrap_or("?").to_string(),
        source_hash: v
            .get("source_hash")
            .and_then(Json::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .unwrap_or(0),
        priority: v.get("priority").and_then(Json::as_f64).map_or(0, |p| p as i32),
        admit_line: None,
        cancel: CancelToken::new(),
        state: Mutex::new(JobState {
            status: JobStatus::Done,
            valid: v.get("valid").and_then(Json::as_bool).unwrap_or(false),
            stopped: v
                .get("stopped")
                .filter(|s| !s.is_null())
                .and_then(Json::as_str)
                .map(str::to_string),
            cegis_rounds: v.get("cegis_rounds").and_then(Json::as_u64).unwrap_or(0),
            seconds: v.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
            invariants,
            events,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_records_roundtrip() {
        let line = admit_json(
            7,
            "inputs n; while (i < n) { i = i + 1; }",
            Some("count"),
            true,
            Some(Duration::from_secs_f64(2.5)),
            Some(3),
            Some(4),
            -2,
        );
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("admitted"));
        let p = parse_admit(&v).unwrap();
        assert_eq!(p.id, 7);
        assert_eq!(p.name.as_deref(), Some("count"));
        assert!(p.fast);
        assert_eq!(p.deadline, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(p.step_budget, Some(3));
        assert_eq!(p.max_degree, Some(4));
        assert_eq!(p.priority, -2);
        // Null optionals survive the roundtrip as None.
        let line = admit_json(8, "x", None, false, None, None, None, 0);
        let p = parse_admit(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(p.name, None);
        assert_eq!(p.deadline, None);
        assert_eq!(p.step_budget, None);
        assert_eq!(p.max_degree, None);
        // Structurally unusable records are rejected.
        assert!(parse_admit(&Json::parse(r#"{"type":"admitted","id":"job-1"}"#).unwrap())
            .is_none());
        assert!(parse_admit(&Json::parse(r#"{"type":"admitted","source":"x"}"#).unwrap())
            .is_none());
    }

    #[test]
    fn job_ids_parse_strictly() {
        assert_eq!(parse_job_id("job-12"), Some(12));
        assert_eq!(parse_job_id("job-"), None);
        assert_eq!(parse_job_id("12"), None);
        assert_eq!(parse_job_id("job-x"), None);
    }

    #[test]
    fn replay_rejects_unusable_records() {
        let good = Json::parse(
            r#"{"type":"job","id":"job-4","status":"done","valid":true,
                "invariants":[{"loop":0,"formula":"x == 0","attempts":2}],
                "events":[{"event":"job_finished","valid":true,"cegis_rounds":0,"ms":1.0}]}"#,
        )
        .unwrap();
        let record = replay_record(&good).unwrap();
        assert_eq!(record.id, 4);
        let st = record.state.lock().unwrap();
        assert!(st.valid);
        assert_eq!(st.invariants.len(), 1);
        assert_eq!(st.events.len(), 1);
        drop(st);
        for bad in [
            r#"{"type":"job","status":"done"}"#,
            r#"{"type":"job","id":"job-1"}"#,
            r#"{"type":"job","id":"nope","status":"done"}"#,
        ] {
            assert!(replay_record(&Json::parse(bad).unwrap()).is_none(), "{bad}");
        }
    }

    #[test]
    fn eviction_drops_oldest_done_only() {
        let record = |id: u64, status: JobStatus| {
            Arc::new(JobRecord {
                id,
                name: "x".into(),
                source_hash: 0,
                priority: 0,
                admit_line: None,
                cancel: CancelToken::new(),
                state: Mutex::new(JobState {
                    status,
                    valid: false,
                    stopped: None,
                    cegis_rounds: 0,
                    seconds: 0.0,
                    invariants: Vec::new(),
                    events: Vec::new(),
                }),
            })
        };
        let mut jobs = HashMap::new();
        jobs.insert(1, record(1, JobStatus::Done));
        jobs.insert(2, record(2, JobStatus::Queued));
        jobs.insert(3, record(3, JobStatus::Done));
        jobs.insert(4, record(4, JobStatus::Running));
        jobs.insert(5, record(5, JobStatus::Done));
        evict_completed(&mut jobs, 2);
        // Oldest done (id 1) evicted; queued/running untouched.
        let mut ids: Vec<u64> = jobs.keys().copied().collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3, 4, 5]);
        evict_completed(&mut jobs, 2);
        assert_eq!(jobs.len(), 4, "at cap: nothing more to evict");
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let cfg = ServeConfig { workers: 0, ..ServeConfig::default() };
        assert!(start(cfg).is_err());
        let cfg = ServeConfig { queue_cap: 0, ..ServeConfig::default() };
        assert!(start(cfg).is_err());
    }
}
