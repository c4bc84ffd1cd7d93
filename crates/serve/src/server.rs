//! The batch inference server: admission control and job records over
//! the `gcln-sched` stage-graph scheduler, fronted by the hand-rolled
//! HTTP layer ([`crate::http`]).
//!
//! Life of a job:
//!
//! 1. `POST /jobs` passes the per-client rate limiter (token bucket
//!    keyed by `x-client-id` or peer IP → `429` + `Retry-After`),
//!    parses the body into a `Submission` (the parser restart replay
//!    uses on admit records), resolves the spec through the
//!    [`SpecCache`] (content-hash memoized), and submits to the
//!    scheduler — or answers `503` + `Retry-After` when the server is
//!    at capacity (backpressure instead of latency collapse). The client's
//!    remaining rate allowance becomes the job's scheduler priority,
//!    so a burst-heavy client degrades its own latency first.
//! 2. The scheduler interleaves the job's stage tasks (trace, training
//!    attempts, extraction, checking) with every other job's across one
//!    shared worker pool; each event is appended to the record as a
//!    pre-serialized JSON line, in per-job order.
//! 3. On completion the record keeps the outcome's result members as
//!    rendered text ([`result_members`]) and flips to `done`, and —
//!    when a journal is configured — one JSON line is appended (and the
//!    journal is compacted once it outgrows its size threshold), so a
//!    restarted server replays results without re-running inference.
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
use crate::limiter::{Admission, RateLimit, RateLimiter};
use gcln_engine::cache::TraceCache;
use gcln_engine::events::{json_string, result_members, RESULT_KEYS};
use gcln_engine::{CancelToken, Engine, Event, Job, PipelineConfig, ProblemSpec};
use gcln_faults::{site, Faults};
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
    /// records) when it exceeds this many bytes.
    pub journal_compact_bytes: u64,
    /// Per-client rate limit on `POST /jobs` (`None` = unlimited).
    pub rate_limit: Option<RateLimit>,
    /// Completed-job records retained in memory (oldest evicted
    /// beyond this; queued/running jobs are never evicted). Evicted
    /// results remain in the journal until compaction, which caps it
    /// the same way. Bounds a long-lived server's memory.
    pub max_retained_jobs: usize,
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
            journal_compact_bytes: 4 * 1024 * 1024,
            rate_limit: None,
            max_retained_jobs: 4096,
            journal_fsync: FsyncPolicy::Never,
            faults: Faults::disabled(),
        }
    }
}

/// Ceiling on every job's wall-clock deadline: submissions without
/// `deadline_secs` get exactly this deadline, and requested deadlines
/// are clamped to it, so one pathological job cannot pin a worker
/// forever.
const MAX_JOB_TIME: Duration = Duration::from_secs(600);

/// Socket read and write timeout per connection (slowloris guard: a
/// peer dribbling a request slower than this gets a 408).
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

/// The result members of a job that has not finished: what
/// [`result_members`] renders for an empty outcome.
const PENDING_RESULT: &str =
    r#""valid":false,"stopped":null,"cegis_rounds":0,"seconds":0.000,"invariants":[]"#;

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

/// Mutable job state behind the record's lock.
struct JobState {
    status: JobStatus,
    /// The result members: [`PENDING_RESULT`] until the job is done,
    /// then the outcome's [`result_members`] text.
    result: String,
    /// Event lines, each a complete JSON object, in emission order.
    events: Vec<String>,
}

impl JobState {
    /// A freshly admitted job's state.
    fn queued() -> JobState {
        JobState {
            status: JobStatus::Queued,
            result: PENDING_RESULT.to_string(),
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
    /// The `{"type":"admitted"}` journal record this job was admitted
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
        format!(
            r#""id":{},"name":{},"source_hash":"{:016x}","status":"{}","priority":{},{},"events":[{}]"#,
            json_string(&self.api_id()),
            json_string(&self.name),
            self.source_hash,
            st.status.as_str(),
            self.priority,
            st.result,
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
    let mut admits: Vec<(Json, String)> = Vec::new();
    if let Some(journal) = &mut journal {
        // Drain (not borrow) the records so they drop here — a long
        // journal must not stay resident beyond startup.
        for payload in journal.take_replayed() {
            let Ok((record, spans)) = Json::parse_with_spans(&payload) else {
                journal_rejected += 1;
                continue;
            };
            match record.get("type").and_then(Json::as_str) {
                Some("job") => match replay_record(&record, &spans) {
                    Some(r) => {
                        journal_replayed += 1;
                        next_id = next_id.max(r.id + 1);
                        jobs.insert(r.id, Arc::new(r));
                    }
                    None => journal_rejected += 1,
                },
                Some("admitted") => admits.push((record, payload)),
                _ => journal_rejected += 1,
            }
        }
        evict_completed(&mut jobs, cfg.max_retained_jobs);
    }
    // Admitted-but-incomplete jobs: the server answered 202 (the admit
    // record is durable) but crashed before journaling a completion.
    // Re-admit each submission from its admit record and recompute —
    // inference is deterministic, so the client reads the same result
    // it would have gotten. A record that `POST /jobs` would reject
    // counts as skipped.
    let mut resubmits = Vec::new();
    let mut resubmit_ids = std::collections::HashSet::new();
    for (admit, admit_line) in admits {
        let Some((id, priority, submission)) = parse_admit(&admit) else {
            journal_rejected += 1;
            continue;
        };
        if jobs.contains_key(&id) || !resubmit_ids.insert(id) {
            continue; // completed (or already queued for resubmission)
        }
        match submission.spec(&spec_cache) {
            Ok((source_hash, spec)) => {
                next_id = next_id.max(id + 1);
                let record = JobRecord {
                    id,
                    name: spec.problem.name.clone(),
                    source_hash,
                    priority,
                    admit_line: Some(admit_line),
                    cancel: CancelToken::new(),
                    state: Mutex::new(JobState::queued()),
                };
                resubmits.push((Arc::new(record), spec, submission));
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

    shared.jobs.lock().unwrap().extend(resubmits.iter().map(|(r, _, _)| (r.id, r.clone())));
    // A rejected record would otherwise stay on disk and be counted
    // again at every later restart.
    if journal_rejected > 0 {
        if let Some(journal) = &shared.journal {
            compact_journal(&shared, journal);
        }
    }
    for (record, spec, submission) in resubmits {
        launch_job(&shared, &record, spec, &submission);
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
    // thread (or delay shutdown joins) forever.
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let peer = stream.peer_addr().ok().map(|a| a.ip());
    let response = match read_request(&mut stream, &Limits::default()) {
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

/// The submission keys. Any other key is an error, so a typo
/// (`"deadline"` for `"deadline_secs"`) fails loudly instead of being
/// silently ignored.
const JOB_KEYS: [&str; 6] =
    ["source", "name", "fast", "deadline_secs", "step_budget", "max_degree"];

/// The keys an admit record adds to its submission's.
const ADMIT_KEYS: [&str; 3] = ["type", "id", "priority"];

/// One job submission: a `POST /jobs` body, or the submission part of
/// an admit record (the same members plus [`ADMIT_KEYS`]). Admission
/// and restart replay parse it with the same [`Submission::parse`], so
/// a restart resubmits exactly what `POST /jobs` would admit.
struct Submission {
    source: String,
    name: Option<String>,
    fast: bool,
    deadline: Option<Duration>,
    step_budget: Option<u64>,
    max_degree: Option<u32>,
}

impl Submission {
    /// Parses a submission object; `envelope` names further keys the
    /// caller reads itself. A `null` member reads as an absent one.
    fn parse(v: &Json, envelope: &[&str]) -> Result<Submission, String> {
        let Json::Obj(members) = v else {
            return Err("body must be a JSON object".to_string());
        };
        for (key, _) in members {
            if !JOB_KEYS.contains(&key.as_str()) && !envelope.contains(&key.as_str()) {
                return Err(format!("unknown key {key:?} (allowed: {})", JOB_KEYS.join(", ")));
            }
        }
        let Some(source) = v.get("source").and_then(Json::as_str) else {
            return Err("missing required string field \"source\"".to_string());
        };
        Ok(Submission {
            source: source.to_string(),
            name: optional(v, "name", "a string", |n| n.as_str().map(str::to_string))?,
            fast: optional(v, "fast", "a boolean", Json::as_bool)?.unwrap_or(false),
            deadline: optional(v, "deadline_secs", "a non-negative number of seconds", |d| {
                Duration::try_from_secs_f64(d.as_f64()?).ok()
            })?,
            step_budget: optional(v, "step_budget", "a non-negative integer", Json::as_u64)?,
            // The degree's range is checked with the override itself.
            max_degree: optional(v, "max_degree", "a non-negative integer", |d| {
                u32::try_from(d.as_u64()?).ok()
            })?,
        })
    }

    /// Resolves the source through the spec cache and applies the
    /// degree override: the source hash and the spec to run.
    fn spec(&self, cache: &SpecCache) -> Result<(u64, ProblemSpec), String> {
        let (source_hash, mut spec) = cache
            .fetch(&self.source, self.name.as_deref())
            .map_err(|e| format!("source does not parse: {e}"))?;
        spec.apply_overrides(self.max_degree, &[]).map_err(|e| e.to_string())?;
        Ok((source_hash, spec))
    }
}

/// Reads the optional member `key` of `v` with `read`; a member that
/// is present, not `null`, and unreadable is an error naming `what` it
/// must be.
fn optional<T>(
    v: &Json,
    key: &str,
    what: &str,
    read: impl Fn(&Json) -> Option<T>,
) -> Result<Option<T>, String> {
    match v.get(key).filter(|m| !m.is_null()) {
        None => Ok(None),
        Some(m) => read(m).map(Some).ok_or_else(|| format!("{key:?} must be {what}")),
    }
}

/// The `{"type":"admitted"}` journal record for a submission body: its
/// members as submitted, plus the [`ADMIT_KEYS`] a restart needs to
/// re-admit the job.
fn admit_record(id: u64, body: Json, priority: i32) -> String {
    let mut admit = vec![
        ("type".to_string(), Json::Str("admitted".to_string())),
        ("id".to_string(), Json::Str(format!("job-{id}"))),
    ];
    if let Json::Obj(submitted) = body {
        admit.extend(submitted);
    }
    admit.push(("priority".to_string(), Json::Num(f64::from(priority))));
    Json::Obj(admit).render()
}

/// Parses an admit record into its job id, priority and submission;
/// `None` for any record `POST /jobs` would not have admitted.
fn parse_admit(v: &Json) -> Option<(u64, i32, Submission)> {
    let id = parse_job_id(v.get("id")?.as_str()?)?;
    let priority = match v.get("priority") {
        None => 0,
        Some(p) => json_i32(p)?,
    };
    Some((id, priority, Submission::parse(v, &ADMIT_KEYS).ok()?))
}

/// A JSON number that is exactly an `i32`.
fn json_i32(v: &Json) -> Option<i32> {
    let n = v.as_f64()?;
    let i = n as i32;
    (f64::from(i) == n).then_some(i)
}

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
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("body is not valid JSON: {e}")),
    };
    let submission = match Submission::parse(&body, &[]) {
        Ok(s) => s,
        Err(e) => return Response::error(400, &e),
    };
    let (source_hash, spec) = match submission.spec(&shared.spec_cache) {
        Ok(resolved) => resolved,
        Err(e) => return Response::error(400, &e),
    };

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
            return Response::error(503, "server is shutting down").with_header("retry-after", "1");
        }
        if admission.active >= shared.cfg.queue_cap + shared.cfg.workers {
            return Response::error(503, "job queue is full").with_header("retry-after", "1");
        }
        admission.active += 1;
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let record = Arc::new(JobRecord {
            id,
            name: spec.problem.name.clone(),
            source_hash,
            priority,
            admit_line: Some(admit_record(id, body, priority)),
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

    launch_job(shared, &record, spec, &submission);
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
    spec: ProblemSpec,
    submission: &Submission,
) {
    let config = if submission.fast { PipelineConfig::fast() } else { PipelineConfig::default() };
    let ext_names = spec.problem.extended_names();
    let mut job = Job::new(spec).with_config(config);
    job.cancel = record.cancel.clone();
    // The server-wide job-time ceiling applies even when the submission
    // asked for no deadline at all.
    job = job.with_deadline(submission.deadline.map_or(MAX_JOB_TIME, |d| d.min(MAX_JOB_TIME)));
    if let Some(steps) = submission.step_budget {
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

/// Completion hook, invoked by the scheduler worker that finished the
/// job: publishes the outcome on the record, journals it, and applies
/// retention (in-memory eviction + on-disk compaction).
fn finish_record(
    shared: &Arc<Shared>,
    record: &Arc<JobRecord>,
    outcome: &gcln_engine::InferenceOutcome,
    ext_names: &[String],
) {
    let result = result_members(outcome, ext_names);
    {
        let mut st = record.state.lock().unwrap();
        st.status = JobStatus::Done;
        st.result = result;
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
        if journal.size_bytes() > shared.cfg.journal_compact_bytes {
            compact_journal(shared, journal);
        }
    }
    shared.completed.fetch_add(1, Ordering::Relaxed);
    shared.admission.lock().unwrap().active -= 1;
}

/// Rewrites the journal from the retained job records. Done jobs keep
/// their result line; incomplete jobs keep their admit line, so a crash
/// after this rewrite still resubmits them on restart. Callers hold the
/// journal gate, or run before any job can complete.
fn compact_journal(shared: &Shared, journal: &Journal) {
    let mut records: Vec<Arc<JobRecord>> = shared.jobs.lock().unwrap().values().cloned().collect();
    records.sort_unstable_by_key(|r| r.id);
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

/// Restores a completed job record from one journal object and the
/// source text of its members ([`Json::parse_with_spans`]). The result
/// members and events are kept as journaled, so a replayed job's body
/// is byte-identical to the one served before the restart. `None`
/// rejects a record that is not done or lacks a member.
fn replay_record(v: &Json, spans: &[&str]) -> Option<JobRecord> {
    let Json::Obj(members) = v else { return None };
    let raw = |key: &str| members.iter().position(|(k, _)| k == key).map(|i| spans[i]);
    if v.get("status")?.as_str()? != "done" {
        return None;
    }
    let result: Option<Vec<String>> =
        RESULT_KEYS.iter().map(|key| Some(format!("{}:{}", json_string(key), raw(key)?))).collect();
    v.get("events")?.as_array()?;
    let (_, events) = Json::parse_with_spans(raw("events")?).ok()?;
    Some(JobRecord {
        id: parse_job_id(v.get("id")?.as_str()?)?,
        name: v.get("name")?.as_str()?.to_string(),
        source_hash: u64::from_str_radix(v.get("source_hash")?.as_str()?, 16).ok()?,
        priority: json_i32(v.get("priority")?)?,
        admit_line: None,
        cancel: CancelToken::new(),
        state: Mutex::new(JobState {
            status: JobStatus::Done,
            result: result?.join(","),
            events: events.into_iter().map(str::to_string).collect(),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_records_roundtrip() {
        // What admission journals parses back to the submitted values.
        let body = Json::parse(
            r#"{"source":"inputs n; while (i < n) { i = i + 1; }","name":"count","fast":true,
                "deadline_secs":2.5,"step_budget":3,"max_degree":4}"#,
        )
        .unwrap();
        let line = admit_record(7, body, -2);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("admitted"));
        let (id, priority, sub) = parse_admit(&v).unwrap();
        assert_eq!((id, priority), (7, -2));
        assert_eq!(sub.source, "inputs n; while (i < n) { i = i + 1; }");
        assert_eq!(sub.name.as_deref(), Some("count"));
        assert!(sub.fast);
        assert_eq!(sub.deadline, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(sub.step_budget, Some(3));
        assert_eq!(sub.max_degree, Some(4));
        // Earlier admit records spelled absent members `null`: they
        // still replay, with those members absent.
        let old = r#"{"type":"admitted","id":"job-8","source":"x","name":null,"fast":false,
            "deadline_secs":null,"step_budget":null,"max_degree":null,"priority":0}"#;
        let (id, priority, sub) = parse_admit(&Json::parse(old).unwrap()).unwrap();
        assert_eq!((id, priority), (8, 0));
        assert_eq!(sub.name, None);
        assert_eq!(sub.deadline, None);
        assert_eq!(sub.step_budget, None);
        assert_eq!(sub.max_degree, None);
        // No id, or a submission `POST /jobs` would reject: not re-admitted.
        for bad in [
            r#"{"type":"admitted","id":"job-1"}"#,
            r#"{"type":"admitted","source":"x"}"#,
            r#"{"type":"admitted","id":"job-1","source":"x","max_degree":4294967299}"#,
            r#"{"type":"admitted","id":"job-1","source":"x","deadline_secs":-1}"#,
            r#"{"type":"admitted","id":"job-1","source":"x","colour":"red"}"#,
            r#"{"type":"admitted","id":"job-1","source":"x","priority":1.5}"#,
        ] {
            assert!(parse_admit(&Json::parse(bad).unwrap()).is_none(), "{bad}");
        }
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
        let body = r#""id":"job-4","name":"ps2","source_hash":"00000000000000ff","status":"done","priority":0,"valid":true,"stopped":null,"cegis_rounds":0,"seconds":0.120,"invariants":[{"loop":0,"formula":"x == 0","attempts":2}],"events":[{"event":"stage_finished","round":0,"stage":"check","ms":12.500},{"event":"job_finished","valid":true,"cegis_rounds":0,"ms":13.000}]"#;
        let replay = |body: &str| {
            let line = format!(r#"{{"type":"job",{body}}}"#);
            let (v, spans) = Json::parse_with_spans(&line).unwrap();
            replay_record(&v, &spans)
        };
        let record = replay(body).unwrap();
        assert_eq!(record.id, 4);
        // Served back byte for byte, number formatting included.
        assert_eq!(record.body_json(), body);
        // Not done, a malformed id, or any member missing: rejected.
        let mut bad = vec![
            body.replace(r#""status":"done""#, r#""status":"running""#),
            body.replace("job-4", "nope"),
        ];
        let Json::Obj(members) = Json::parse(&format!("{{{body}}}")).unwrap() else { panic!() };
        for (key, _) in members {
            bad.push(body.replacen(&format!("\"{key}\":"), &format!("\"x{key}\":"), 1));
        }
        for b in &bad {
            assert!(replay(b).is_none(), "{b}");
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
                state: Mutex::new(JobState { status, ..JobState::queued() }),
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
