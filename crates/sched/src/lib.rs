//! # gcln-sched — the stage-graph scheduler
//!
//! One shared worker pool interleaving many inference jobs at *stage
//! task* granularity: while one job trains, its neighbors' trace,
//! check, and extraction tasks fill the idle workers. This is the
//! engine-level parallel suite scheduling the ROADMAP called for —
//! whole-job fan-out (one worker pinned per problem) leaves workers
//! idle whenever the workload mixes long trainings with short bursty
//! stages.
//!
//! ## Architecture
//!
//! Each submitted [`Job`] is unfolded into a
//! [`StagedJob`] — the engine's stage-graph
//! state machine. The scheduler keeps one ready queue per job plus a
//! priority-ordered ring of jobs with ready tasks:
//!
//! ```text
//!   submit ─▶ StagedJob ─ advance() ─▶ [task, task, …] ─▶ per-job queue
//!                 ▲                                            │
//!                 │           ring: prio -1 ▶ (job A, job C)   │ pop (round-robin
//!                 │                 prio  0 ▶ (job B)          ▼  across jobs)
//!              complete() ◀────────── workers (shared pool) ───┘
//! ```
//!
//! Workers pop one task at a time, highest priority first and
//! round-robin across jobs within a priority, so no job monopolizes the
//! pool and short jobs flow past long ones. When a job's last
//! outstanding task completes, the completing worker advances the state
//! machine, which emits events and produces the next batch.
//!
//! ## Determinism
//!
//! Per-job results and event streams are **bit-identical to a solo
//! [`Engine::run`]** at any worker count, any priority assignment, and
//! any interleaving: tasks are pure, merges key on `(loop, attempt)`,
//! and each job's events are emitted serially by its own state machine.
//! Events are delivered as [`JobEvent`]s carrying a per-job sequence
//! number, so multiplexed streams reassemble deterministically.
//!
//! Cancel/deadline/budget checks stay cooperative at task boundaries,
//! exactly like the solo engine: a cancelled job drains its in-flight
//! tasks and completes with a partial outcome; other jobs are
//! unaffected.
//!
//! ## Fault tolerance
//!
//! Every job runs as stage tasks, and each task executes under
//! `catch_unwind`: a panicking task fails *only its own job*, which
//! ends through [`StagedJob::abort`] with a partial outcome
//! (`stopped: task_panicked`, events up to the panic intact) — the
//! ticket always resolves and neighbor jobs stay bit-identical.
//! Transient faults injected by a [`gcln_faults::Faults`] plan at the
//! `sched.task_panic` site are retried up to two times per job on a
//! deterministic exponential backoff schedule (1 ms × 2^(retry−1), no
//! wall-clock randomness in the decision). A spec-hash-keyed circuit breaker
//! quarantines specs whose jobs died panicking twice: further
//! submissions carrying that [`SubmitOptions::fault_key`] fail fast with
//! `stopped: quarantined` before any task runs; that outcome is the
//! only one the scheduler builds itself rather than taking from the
//! state machine.
//!
//! ## Priority aging
//!
//! Starvation guard: a job waiting in the ready ring has its effective
//! priority raised one level every [`SchedConfig::aging_interval`] task
//! pops it sits through without being served, so a stream of
//! high-priority submissions cannot park a low-priority job forever.
//! Reaching the served level alone would leave the job behind: the jobs
//! it joins in round-robin were served all the while it climbed. So each
//! level climbed also earns one task of credit, and a job holding credit
//! is served ahead of its level's round-robin, one credit per task.
//! Aging is keyed to pop counts, not wall clock, and only reorders
//! *scheduling*; per-job outcomes remain bit-identical at any worker
//! count.

pub mod metrics;

use gcln_engine::staged::{Step, Task};
use gcln_engine::{
    CancelToken, CheckReport, Engine, Event, InferenceOutcome, Job, StagedJob, StopReason,
};
use gcln_faults::{site, Faults};
use metrics::{Metrics, MetricsSnapshot};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Worker threads in the shared pool.
    pub workers: usize,
    /// Fault-injection plan (disabled by default; see [`gcln_faults`]).
    pub faults: Faults,
    /// Pops a ring-resident job waits through before its effective
    /// priority rises one level. `None` disables aging.
    pub aging_interval: Option<u64>,
}

/// Transient-fault retries granted per job before the job fails with
/// `task_panicked`. Only faults injected *before* a task's closure runs
/// are retryable; a genuine panic consumes the task.
const MAX_TASK_RETRIES: u32 = 2;

/// Base of the deterministic retry backoff schedule: retry `n`
/// (1-based) sleeps `RETRY_BACKOFF × 2^(n-1)`.
const RETRY_BACKOFF: Duration = Duration::from_millis(1);

/// Panicked-job count per spec hash at which the circuit breaker opens
/// and further submissions with that fault key fail fast.
const QUARANTINE_THRESHOLD: u32 = 2;

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            workers: rayon::current_num_threads(),
            faults: Faults::disabled(),
            aging_interval: Some(64),
        }
    }
}

impl SchedConfig {
    /// A config with the given pool width (min 1).
    pub fn with_workers(workers: usize) -> SchedConfig {
        SchedConfig { workers: workers.max(1), ..SchedConfig::default() }
    }

    /// Same config with a fault plan attached.
    pub fn with_faults(mut self, faults: Faults) -> SchedConfig {
        self.faults = faults;
        self
    }
}

/// Per-submission options.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubmitOptions {
    /// Higher runs first; jobs of equal priority round-robin.
    pub priority: i32,
    /// Circuit-breaker key — typically the spec's content hash, so
    /// resubmissions of the same poisoned spec trip the breaker
    /// together. `None` opts the job out of quarantine tracking.
    pub fault_key: Option<u64>,
}

impl SubmitOptions {
    /// Options with the given priority.
    pub fn priority(priority: i32) -> SubmitOptions {
        SubmitOptions { priority, ..SubmitOptions::default() }
    }
}

/// One engine event, enveloped with the job id and a per-job sequence
/// number (0-based, dense) so interleaved streams reassemble.
#[derive(Clone, Debug)]
pub struct JobEvent {
    /// Scheduler-assigned job id.
    pub job: u64,
    /// Per-job emission index.
    pub seq: u64,
    /// The engine event.
    pub event: Event,
}

impl JobEvent {
    /// One JSON line: `{"job":…,"seq":…,"event":{…}}`.
    pub fn to_json(&self) -> String {
        format!(r#"{{"job":{},"seq":{},"event":{}}}"#, self.job, self.seq, self.event.to_json())
    }
}

/// Callback receiving a job's events in order (seq is strictly
/// increasing per job). Invoked from worker threads.
pub type EventSink = Box<dyn Fn(&JobEvent) + Send + Sync>;
/// Callback invoked exactly once when a job's outcome is ready, from
/// the worker thread that finished it (completion order, not submit
/// order — useful for progress reporting).
pub type DoneHook = Box<dyn FnOnce(&InferenceOutcome, &JobStats) + Send>;

/// Per-job scheduler accounting, delivered with the done hook.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobStats {
    /// Total worker time spent executing this job's tasks — the job's
    /// *exclusive* compute cost, excluding ready-queue wait and other
    /// jobs' interleaved tasks (unlike `InferenceOutcome::runtime`,
    /// which spans first dispatch to completion).
    pub busy: std::time::Duration,
    /// Stage tasks executed for this job.
    pub tasks: u64,
}

/// Work a worker can pick up for a job.
enum WorkItem {
    /// Run the job's initial `advance` (deferred from `submit` so
    /// admission stays cheap and ordering respects priority).
    Start(Instant),
    /// Execute one stage task.
    Stage(Task, Instant),
}

#[derive(Default)]
struct JobQueue {
    items: VecDeque<WorkItem>,
    in_ring: bool,
    /// Current ring key (`-priority - boost`). Only meaningful while
    /// `in_ring`.
    ring_key: i64,
    /// Aging boost in priority levels. Persists across ring
    /// residencies — a stage job re-enters the ring for every task
    /// batch, and resetting here would make it re-age from scratch
    /// each task, defeating the starvation guard. The boost stops
    /// growing once the job is being served regularly (service resets
    /// the aging *clock*, not the earned level).
    boost: u64,
    /// Tasks still owed for the waiting that earned the boost: one per
    /// level climbed, spent one per task popped. While it is positive
    /// the job sits at the front of its ring rather than the back.
    credit: u64,
    /// Pop tick at which the job entered the ring or was last served;
    /// aging measures waiting time from here.
    served_tick: u64,
}

struct JobInner {
    /// The job as submitted; consumed when a worker first picks it up
    /// (deadlines are measured from that pickup, not from admission —
    /// queue wait must not eat a job's time budget).
    pending: Option<Job>,
    staged: Option<StagedJob>,
    outstanding: usize,
    stats: JobStats,
    seq: u64,
    sink: Option<EventSink>,
    on_done: Option<DoneHook>,
    outcome: Option<Arc<InferenceOutcome>>,
    /// Set on the first permanent task failure; later task results for
    /// this job are drained (dropped) instead of fed to the machine,
    /// and the job finalizes once the last in-flight task is accounted.
    failed: Option<StopReason>,
    /// Transient-fault retries consumed so far.
    retries: u32,
}

struct JobRun {
    id: u64,
    priority: i32,
    fault_key: Option<u64>,
    cancel: CancelToken,
    inner: Mutex<JobInner>,
    done_cv: Condvar,
}

struct PoolState {
    /// Jobs with ready work, ordered by `-priority` (BTreeMap ascending
    /// ⇒ highest priority first); round-robin within a key.
    ring: BTreeMap<i64, VecDeque<u64>>,
    queues: HashMap<u64, JobQueue>,
    jobs: HashMap<u64, Arc<JobRun>>,
    /// Monotone pop counter; the clock priority aging runs on.
    tick: u64,
    shutdown: bool,
}

/// The spec-hash circuit breaker: counts jobs that died panicking, per
/// fault key. Once a key's count reaches the threshold, submissions
/// carrying it fail fast with `stopped: quarantined`.
#[derive(Default)]
struct Breaker {
    panics: Mutex<HashMap<u64, u32>>,
}

impl Breaker {
    fn record_panic(&self, key: Option<u64>) {
        if let Some(key) = key {
            *self.panics.lock().unwrap().entry(key).or_insert(0) += 1;
        }
    }

    fn is_open(&self, key: u64, threshold: u32) -> bool {
        threshold > 0 && self.panics.lock().unwrap().get(&key).is_some_and(|&n| n >= threshold)
    }
}

struct Shared {
    engine: Engine,
    cfg: SchedConfig,
    state: Mutex<PoolState>,
    cv: Condvar,
    metrics: Metrics,
    breaker: Breaker,
    next_id: AtomicU64,
}

/// The stage-graph scheduler: a fixed worker pool plus the ready-queue
/// machinery. See the module docs.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// A handle to one submitted job.
pub struct JobTicket {
    job: Arc<JobRun>,
}

impl JobTicket {
    /// Scheduler-assigned job id (matches [`JobEvent::job`]).
    pub fn id(&self) -> u64 {
        self.job.id
    }

    /// The priority the job was admitted with.
    pub fn priority(&self) -> i32 {
        self.job.priority
    }

    /// Trips the job's cancel token; the engine stops cooperatively at
    /// the next task boundary and the outcome arrives as a partial
    /// result (`stopped: cancelled`).
    pub fn cancel(&self) {
        self.job.cancel.cancel();
    }

    /// The outcome, if the job has finished.
    pub fn try_outcome(&self) -> Option<Arc<InferenceOutcome>> {
        self.job.inner.lock().unwrap().outcome.clone()
    }

    /// Blocks until the job finishes and returns its outcome.
    pub fn wait(&self) -> Arc<InferenceOutcome> {
        let mut inner = self.job.inner.lock().unwrap();
        loop {
            if let Some(outcome) = &inner.outcome {
                return outcome.clone();
            }
            inner = self.job.done_cv.wait(inner).unwrap();
        }
    }

    /// Blocks until the job finishes or `timeout` elapses. `None` means
    /// the job is still running — the chaos suite's "no hang exceeds
    /// the deadline ceiling" assertions are built on this.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Arc<InferenceOutcome>> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.job.inner.lock().unwrap();
        loop {
            if let Some(outcome) = &inner.outcome {
                return Some(outcome.clone());
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            inner = self.job.done_cv.wait_timeout(inner, left).unwrap().0;
        }
    }
}

impl Scheduler {
    /// A scheduler with a fresh (cache-less) engine.
    pub fn new(config: SchedConfig) -> Scheduler {
        Scheduler::with_engine(config, Engine::new())
    }

    /// A scheduler driving jobs through the given engine (share an
    /// engine to share its trace cache across jobs).
    pub fn with_engine(config: SchedConfig, engine: Engine) -> Scheduler {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            engine,
            state: Mutex::new(PoolState {
                ring: BTreeMap::new(),
                queues: HashMap::new(),
                jobs: HashMap::new(),
                tick: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            metrics: Metrics::new(workers),
            breaker: Breaker::default(),
            next_id: AtomicU64::new(1),
            cfg: config,
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("gcln-sched-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler { shared, workers: Mutex::new(workers) }
    }

    /// Submits a job with default options and no callbacks.
    pub fn submit(&self, job: Job) -> JobTicket {
        self.submit_with(job, SubmitOptions::default(), None, None)
    }

    /// Submits a job. `sink` receives the job's [`JobEvent`]s in order;
    /// `on_done` fires once when the outcome is ready. Jobs submitted
    /// after [`Scheduler::shutdown`] began are still executed (shutdown
    /// drains everything admitted); gate admission externally if you
    /// need to refuse work.
    pub fn submit_with(
        &self,
        job: Job,
        opts: SubmitOptions,
        sink: Option<EventSink>,
        on_done: Option<DoneHook>,
    ) -> JobTicket {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let cancel = job.cancel_token();
        let run = Arc::new(JobRun {
            id,
            priority: opts.priority,
            fault_key: opts.fault_key,
            cancel,
            inner: Mutex::new(JobInner {
                pending: Some(job),
                staged: None,
                outstanding: 0,
                stats: JobStats::default(),
                seq: 0,
                sink,
                on_done,
                outcome: None,
                failed: None,
                retries: 0,
            }),
            done_cv: Condvar::new(),
        });
        self.shared.metrics.job_submitted();
        // Circuit breaker: a spec whose jobs keep dying panicking fails
        // fast — the ticket resolves immediately with a structured
        // `quarantined` outcome and no task ever runs.
        if let Some(key) = opts.fault_key {
            if self.shared.breaker.is_open(key, QUARANTINE_THRESHOLD) {
                self.shared.metrics.job_quarantined();
                let mut inner = run.inner.lock().unwrap();
                inner.pending = None;
                let events = vec![
                    Event::JobStopped { reason: StopReason::Quarantined },
                    Event::JobFinished { valid: false, cegis_rounds: 0, ms: 0.0 },
                ];
                for event in events.clone() {
                    emit(&run, &mut inner, event);
                }
                let outcome = InferenceOutcome {
                    loops: Vec::new(),
                    valid: false,
                    cegis_rounds_used: 0,
                    runtime: Duration::ZERO,
                    report: CheckReport::default(),
                    stopped: Some(StopReason::Quarantined),
                    events,
                };
                store_outcome(&self.shared, &run, &mut inner, outcome);
                drop(inner);
                return JobTicket { job: run };
            }
        }
        let mut st = self.shared.state.lock().unwrap();
        st.jobs.insert(id, run.clone());
        enqueue(&self.shared, &mut st, id, run.priority, vec![WorkItem::Start(Instant::now())]);
        drop(st);
        JobTicket { job: run }
    }

    /// Whether the circuit breaker is currently open for `fault_key`
    /// (submissions carrying it would fail fast).
    pub fn is_quarantined(&self, fault_key: u64) -> bool {
        self.shared.breaker.is_open(fault_key, QUARANTINE_THRESHOLD)
    }

    /// Jobs admitted but not yet finished.
    pub fn active_jobs(&self) -> usize {
        self.shared.state.lock().unwrap().jobs.len()
    }

    /// A point-in-time copy of the scheduler's metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Drains every admitted job, then stops and joins the workers.
    /// Idempotent. Cancel jobs first (e.g. via their tickets) for a
    /// fast shutdown.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.cv.notify_all();
        }
        for w in self.workers.lock().unwrap().drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Adds work items for a job and registers the job in the ready ring
/// at its base priority plus any earned aging boost. Caller holds the
/// state lock.
fn enqueue(shared: &Shared, st: &mut PoolState, job_id: u64, priority: i32, items: Vec<WorkItem>) {
    let tick = st.tick;
    let q = st.queues.entry(job_id).or_default();
    for item in items {
        q.items.push_back(item);
    }
    if !q.in_ring && !q.items.is_empty() {
        q.in_ring = true;
        q.ring_key = -i64::from(priority) - q.boost as i64;
        q.served_tick = tick;
        join_ring(st.ring.entry(q.ring_key).or_default(), job_id, q.credit);
    }
    shared.cv.notify_all();
}

/// Queues a job in its level's ring: ahead of the round-robin while it
/// holds aging credit, behind it otherwise.
fn join_ring(ring: &mut VecDeque<u64>, job_id: u64, credit: u64) {
    if credit > 0 {
        ring.push_front(job_id);
    } else {
        ring.push_back(job_id);
    }
}

/// Priority aging: every ring-resident job that has sat through
/// `interval` pops while *strictly higher-priority* work was being
/// served climbs one level. Jobs at the currently-served level are
/// getting round-robin service, not starving — aging them too would
/// inflate every contending job in lockstep and never close a relative
/// gap. Each climb earns the job one task of credit (see
/// [`JobQueue::credit`]), and the promoted job enters its new level at the
/// front. Driven by the pop tick — a deterministic function of scheduler
/// activity, not wall clock — so starvation relief does not depend on
/// timing. Caller holds the state lock.
fn age_ring(st: &mut PoolState, interval: u64, served_key: i64) {
    let tick = st.tick;
    let mut moves: Vec<(u64, i64, i64)> = Vec::new();
    for (&job_id, q) in &mut st.queues {
        if q.in_ring && q.ring_key > served_key {
            if tick.saturating_sub(q.served_tick) >= interval {
                let from = q.ring_key;
                q.boost += 1;
                q.credit += 1;
                q.ring_key -= 1; // BTreeMap keys are -priority: smaller = higher
                q.served_tick = tick;
                moves.push((job_id, from, q.ring_key));
            }
        } else if q.in_ring {
            // At (or above) the service level: round-robin is reaching
            // this job, so its starvation clock stays reset.
            q.served_tick = tick;
        }
    }
    for (job_id, from, to) in moves {
        if let Some(ring) = st.ring.get_mut(&from) {
            ring.retain(|&j| j != job_id);
            if ring.is_empty() {
                st.ring.remove(&from);
            }
        }
        st.ring.entry(to).or_default().push_front(job_id);
    }
}

/// Pops the next ready task: highest priority first, round-robin across
/// jobs within a priority (a job with more ready tasks goes to the back
/// of its priority's ring after yielding one task).
fn pop_ready(st: &mut PoolState, aging: Option<u64>) -> Option<(Arc<JobRun>, WorkItem)> {
    st.tick += 1;
    if let Some(interval) = aging {
        if let Some((&served_key, _)) = st.ring.iter().find(|(_, ring)| !ring.is_empty()) {
            age_ring(st, interval, served_key);
        }
    }
    let (&key, _) = st.ring.iter().find(|(_, ring)| !ring.is_empty())?;
    let ring = st.ring.get_mut(&key).expect("ring key");
    let job_id = ring.pop_front().expect("nonempty ring");
    if ring.is_empty() {
        st.ring.remove(&key);
    }
    let tick = st.tick;
    let q = st.queues.get_mut(&job_id).expect("queued job");
    let item = q.items.pop_front().expect("job in ring has work");
    q.served_tick = tick; // being popped is service: the aging clock resets
    q.credit = q.credit.saturating_sub(1);
    if q.items.is_empty() {
        q.in_ring = false;
    } else {
        join_ring(st.ring.entry(key).or_default(), job_id, q.credit);
    }
    let job = st.jobs.get(&job_id).expect("live job").clone();
    Some((job, item))
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let picked = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(found) = pop_ready(&mut st, shared.cfg.aging_interval) {
                    break Some(found);
                }
                if st.shutdown && st.jobs.is_empty() {
                    break None;
                }
                st = shared.cv.wait(st).unwrap();
            }
        };
        let Some((job, item)) = picked else { return };
        match item {
            WorkItem::Start(enqueued) => {
                shared.metrics.observe_queue_wait(enqueued.elapsed());
                let mut inner = job.inner.lock().unwrap();
                // Unfold here, not at submit: the job's wall clock (and
                // with it any deadline) starts when a worker first
                // picks it up, exactly like the solo `Engine::run`.
                let spec = inner.pending.take().expect("pending job");
                inner.staged = Some(StagedJob::new(&shared.engine, &spec));
                advance_and_dispatch(shared, &job, &mut inner);
            }
            WorkItem::Stage(task, enqueued) => run_stage_task(shared, &job, task, enqueued),
        }
    }
}

/// Executes one stage task under `catch_unwind`, with the transient
/// retry and permanent-failure paths.
fn run_stage_task(shared: &Arc<Shared>, job: &Arc<JobRun>, task: Task, enqueued: Instant) {
    shared.metrics.observe_queue_wait(enqueued.elapsed());
    {
        // The job already failed permanently (a sibling panicked):
        // account this task off without executing — its result could
        // never be used — and finalize once the last one drains.
        let mut inner = job.inner.lock().unwrap();
        if inner.failed.is_some() {
            inner.outstanding -= 1;
            if inner.outstanding == 0 {
                fail_job(shared, job, &mut inner);
            }
            return;
        }
    }
    let kind = task.kind();
    // Hold a slot of the rayon budget while executing, so task-internal
    // fan-outs (checker, bounds) don't stack a second full thread pool
    // on top of this one.
    let slot = rayon::reserve_external_worker();
    let t0 = Instant::now();
    // The fault query runs *inside* the unwind guard but *before* the
    // task closure is consumed: an injected panic exercises the real
    // unwind path, yet leaves the task intact in `task_slot` so it can
    // be retried. A genuine panic from `execute` consumes the task —
    // there is nothing left to retry, the job fails.
    let mut task_slot = Some(task);
    let result = catch_unwind(AssertUnwindSafe(|| {
        shared.cfg.faults.maybe_panic(site::SCHED_TASK_PANIC);
        task_slot.take().expect("task present").execute()
    }));
    drop(slot);
    let took = t0.elapsed();
    match result {
        Ok(done) => {
            shared.metrics.observe_task(kind.as_str(), took);
            let mut inner = job.inner.lock().unwrap();
            inner.stats.busy += took;
            inner.stats.tasks += 1;
            inner.outstanding -= 1;
            if inner.failed.is_some() {
                // A sibling failed the job while we were executing.
                if inner.outstanding == 0 {
                    fail_job(shared, job, &mut inner);
                }
            } else {
                inner.staged.as_mut().expect("staged job").complete(done);
                if inner.outstanding == 0 {
                    advance_and_dispatch(shared, job, &mut inner);
                }
            }
        }
        Err(_) => {
            if let Some(task) = task_slot.take() {
                // Transient injected fault: retry on the deterministic
                // exponential backoff schedule while budget remains.
                let attempt = {
                    let mut inner = job.inner.lock().unwrap();
                    (inner.failed.is_none() && inner.retries < MAX_TASK_RETRIES).then(|| {
                        inner.retries += 1;
                        inner.retries
                    })
                };
                if let Some(attempt) = attempt {
                    shared.metrics.task_retried();
                    std::thread::sleep(RETRY_BACKOFF * 2u32.pow(attempt.saturating_sub(1)));
                    let mut st = shared.state.lock().unwrap();
                    if st.jobs.contains_key(&job.id) {
                        let item = WorkItem::Stage(task, Instant::now());
                        enqueue(shared, &mut st, job.id, job.priority, vec![item]);
                    }
                    return;
                }
            }
            // Permanent failure: a genuine panic, or retries exhausted.
            shared.metrics.task_panicked();
            shared.breaker.record_panic(job.fault_key);
            let mut inner = job.inner.lock().unwrap();
            inner.stats.tasks += 1;
            inner.outstanding -= 1;
            if inner.failed.is_none() {
                inner.failed = Some(StopReason::TaskPanicked);
                // Purge the job's still-queued tasks: they would only
                // be drained one by one, and the queue slots are better
                // spent on healthy neighbors.
                let mut st = shared.state.lock().unwrap();
                if let Some(q) = st.queues.get_mut(&job.id) {
                    let purged = q.items.len();
                    q.items.clear();
                    if q.in_ring {
                        q.in_ring = false;
                        let key = q.ring_key;
                        if let Some(ring) = st.ring.get_mut(&key) {
                            ring.retain(|&j| j != job.id);
                            if ring.is_empty() {
                                st.ring.remove(&key);
                            }
                        }
                    }
                    inner.outstanding -= purged;
                }
            }
            if inner.outstanding == 0 {
                fail_job(shared, job, &mut inner);
            }
        }
    }
}

/// Finalizes a permanently failed job: aborts the state machine for a
/// structured partial outcome (`JobStopped` + `JobFinished` appended,
/// events so far intact) and publishes it. Caller holds the inner lock.
fn fail_job(shared: &Arc<Shared>, job: &Arc<JobRun>, inner: &mut JobInner) {
    let reason = inner.failed.expect("failure reason set");
    // Stage tasks exist only once `WorkItem::Start` has unfolded the
    // machine, and it stays in place until the job finishes.
    let mut staged = inner.staged.take().expect("a failing job has a staged machine");
    let outcome = staged.abort(reason);
    for event in staged.take_events() {
        emit(job, inner, event);
    }
    store_outcome(shared, job, inner, *outcome);
}

/// Advances a job's state machine, streams the fresh events, and either
/// enqueues the next task batch or finalizes the job. Caller holds the
/// job's inner lock (passed by guard where finalization may consume it).
fn advance_and_dispatch(shared: &Arc<Shared>, job: &Arc<JobRun>, inner: &mut JobInner) {
    let staged = inner.staged.as_mut().expect("staged job");
    let step = staged.advance();
    let events = staged.take_events();
    for event in events {
        emit(job, inner, event);
    }
    match step {
        Step::Run(tasks) => {
            inner.outstanding = tasks.len();
            let now = Instant::now();
            let items: Vec<WorkItem> = tasks.into_iter().map(|t| WorkItem::Stage(t, now)).collect();
            let mut st = shared.state.lock().unwrap();
            enqueue(shared, &mut st, job.id, job.priority, items);
        }
        Step::Done(outcome) => {
            inner.staged = None;
            store_outcome(shared, job, inner, *outcome);
        }
    }
}

/// Publishes a finished outcome: wakes waiters, runs the done hook, and
/// retires the job from the pool. The done hook runs on this worker
/// thread with no scheduler locks held beyond the job's own (callers
/// must not re-enter the scheduler from it with the same job).
fn store_outcome(
    shared: &Arc<Shared>,
    job: &Arc<JobRun>,
    inner: &mut JobInner,
    outcome: InferenceOutcome,
) {
    let outcome = Arc::new(outcome);
    let stats = inner.stats;
    inner.outcome = Some(outcome.clone());
    let hook = inner.on_done.take();
    inner.sink = None;
    job.done_cv.notify_all();
    if let Some(hook) = hook {
        hook(&outcome, &stats);
    }
    shared.metrics.job_completed();
    let mut st = shared.state.lock().unwrap();
    st.jobs.remove(&job.id);
    st.queues.remove(&job.id);
    // Wake idle workers so the shutdown condition is re-evaluated.
    shared.cv.notify_all();
}

/// Streams one event to the job's sink with the next sequence number.
fn emit(job: &Arc<JobRun>, inner: &mut JobInner, event: Event) {
    let seq = inner.seq;
    inner.seq += 1;
    if let Some(sink) = &inner.sink {
        sink(&JobEvent { job: job.id, seq, event });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcln_engine::{GclnConfig, PipelineConfig, ProblemSpec};
    use std::sync::Mutex as StdMutex;

    fn quick_job(name: &str) -> Job {
        let spec = ProblemSpec::from_registry(name).unwrap();
        Job::new(spec).with_config(PipelineConfig {
            gcln: GclnConfig { max_epochs: 600, ..GclnConfig::default() },
            max_inputs: 40,
            max_attempts: 2,
            cegis_rounds: 1,
            ..PipelineConfig::default()
        })
    }

    fn strip_ms(events: &[Event]) -> Vec<String> {
        events
            .iter()
            .map(|e| {
                let j = e.to_json();
                match j.find("\"ms\":") {
                    Some(i) => j[..i].to_string(),
                    None => j,
                }
            })
            .collect()
    }

    #[test]
    fn scheduled_job_matches_solo_engine_bit_for_bit() {
        let solo = Engine::new().run(&quick_job("ps2"));
        let sched = Scheduler::new(SchedConfig::with_workers(3));
        let ticket = sched.submit(quick_job("ps2"));
        let outcome = ticket.wait();
        assert_eq!(outcome.valid, solo.valid);
        assert_eq!(strip_ms(&outcome.events), strip_ms(&solo.events));
        for (a, b) in outcome.loops.iter().zip(&solo.loops) {
            assert_eq!(a.formula, b.formula);
            assert_eq!(a.attempts, b.attempts);
        }
        sched.shutdown();
    }

    #[test]
    fn event_sink_receives_dense_per_job_sequence_numbers() {
        let sched = Scheduler::new(SchedConfig::with_workers(2));
        let seen: Arc<StdMutex<Vec<(u64, u64, String)>>> = Arc::new(StdMutex::new(Vec::new()));
        let sink_seen = seen.clone();
        let ticket = sched.submit_with(
            quick_job("ps2"),
            SubmitOptions::default(),
            Some(Box::new(move |ev: &JobEvent| {
                sink_seen.lock().unwrap().push((ev.job, ev.seq, ev.event.to_json()));
            })),
            None,
        );
        let outcome = ticket.wait();
        sched.shutdown();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), outcome.events.len(), "sink must see every event");
        for (i, (job, seq, json)) in seen.iter().enumerate() {
            assert_eq!(*job, ticket.id());
            assert_eq!(*seq, i as u64, "seq numbers must be dense and ordered");
            assert_eq!(*json, outcome.events[i].to_json());
        }
    }

    #[test]
    fn priorities_order_work_on_a_single_worker() {
        // One worker: the high-priority job's tasks must be picked
        // before the low-priority job's, so it finishes first.
        let sched = Scheduler::new(SchedConfig::with_workers(1));
        let order: Arc<StdMutex<Vec<&'static str>>> = Arc::new(StdMutex::new(Vec::new()));
        let lo_order = order.clone();
        let hi_order = order.clone();
        let lo = sched.submit_with(
            quick_job("ps2"),
            SubmitOptions::priority(-5),
            None,
            Some(Box::new(move |_, _| lo_order.lock().unwrap().push("lo"))),
        );
        let hi = sched.submit_with(
            quick_job("ps3"),
            SubmitOptions::priority(5),
            None,
            Some(Box::new(move |_, _| hi_order.lock().unwrap().push("hi"))),
        );
        lo.wait();
        hi.wait();
        sched.shutdown();
        // The low-priority job was submitted first, but with one worker
        // the high-priority job must still overtake it.
        assert_eq!(order.lock().unwrap().as_slice(), ["hi", "lo"]);
    }

    #[test]
    fn cancelled_job_completes_partially_and_neighbors_are_unaffected() {
        let solo = Engine::new().run(&quick_job("ps3"));
        let sched = Scheduler::new(SchedConfig::with_workers(2));
        let doomed = sched.submit(quick_job("ps2"));
        let healthy = sched.submit(quick_job("ps3"));
        doomed.cancel();
        let d = doomed.wait();
        let h = healthy.wait();
        sched.shutdown();
        assert_eq!(d.stopped, Some(gcln_engine::StopReason::Cancelled));
        assert_eq!(strip_ms(&h.events), strip_ms(&solo.events), "neighbor must be untouched");
        assert!(h.valid);
    }

    /// Five injected panics (probability 1.0, fire limit 5) against two
    /// jobs with two retries each: while the plan fires no task
    /// succeeds, so each job holds just its trace task, and exactly one
    /// job takes a third panic. It fails with a structured
    /// `task_panicked` partial outcome, every ticket resolves, and the
    /// surviving job (at most two retries) is bit-identical to its solo
    /// run.
    #[test]
    fn injected_task_panic_fails_only_its_job_and_neighbors_match_solo() {
        let solo_ps2 = Engine::new().run(&quick_job("ps2"));
        let solo_ps3 = Engine::new().run(&quick_job("ps3"));
        let cfg = SchedConfig {
            faults: Faults::parse("seed=1,sched.task_panic=1.0:5").unwrap(),
            ..SchedConfig::with_workers(2)
        };
        let sched = Scheduler::new(cfg);
        let tickets = [sched.submit(quick_job("ps2")), sched.submit(quick_job("ps3"))];
        let outcomes: Vec<_> = tickets
            .iter()
            .map(|t| t.wait_timeout(Duration::from_secs(120)).expect("ticket must resolve"))
            .collect();
        let m = sched.metrics();
        sched.shutdown();
        assert_eq!(m.tasks_panicked, 1);
        assert_eq!(m.tasks_retried, 4);
        let failed: Vec<usize> =
            (0..2).filter(|&i| outcomes[i].stopped == Some(StopReason::TaskPanicked)).collect();
        assert_eq!(failed.len(), 1, "exactly one job exhausts its retries");
        for (i, outcome) in outcomes.iter().enumerate() {
            let solo = if i == 0 { &solo_ps2 } else { &solo_ps3 };
            if failed[0] == i {
                assert!(!outcome.valid);
                assert!(outcome
                    .events
                    .iter()
                    .any(|e| matches!(e, Event::JobStopped { reason: StopReason::TaskPanicked })));
                assert!(matches!(outcome.events.last(), Some(Event::JobFinished { .. })));
            } else {
                assert_eq!(outcome.valid, solo.valid, "job#{i}");
                assert_eq!(
                    strip_ms(&outcome.events),
                    strip_ms(&solo.events),
                    "neighbor job#{i} was perturbed by the panic"
                );
            }
        }
    }

    /// Transient faults inside the retry budget are invisible: the
    /// first two task pickups panic (injected), both are retried on
    /// the deterministic backoff schedule, and the final outcome is
    /// bit-identical to a fault-free solo run.
    #[test]
    fn transient_faults_are_retried_and_leave_the_outcome_bit_identical() {
        let solo = Engine::new().run(&quick_job("ps2"));
        let cfg = SchedConfig {
            faults: Faults::parse("seed=9,sched.task_panic=1.0:2").unwrap(),
            ..SchedConfig::with_workers(1)
        };
        let sched = Scheduler::new(cfg);
        let outcome = sched.submit(quick_job("ps2")).wait();
        let m = sched.metrics();
        sched.shutdown();
        assert_eq!(m.tasks_retried, 2);
        assert_eq!(m.tasks_panicked, 0);
        assert_eq!(outcome.stopped, None);
        assert_eq!(outcome.valid, solo.valid);
        assert_eq!(strip_ms(&outcome.events), strip_ms(&solo.events));
    }

    /// The circuit breaker: two jobs sharing a fault key die panicking
    /// (three injected panics each, one past the retry budget), the
    /// third submission with that key fails fast with
    /// `stopped: quarantined` (no task runs), while a different key
    /// still executes normally.
    #[test]
    fn quarantine_trips_after_two_panicked_jobs_on_the_same_key() {
        let cfg = SchedConfig {
            faults: Faults::parse("seed=3,sched.task_panic=1.0:6").unwrap(),
            ..SchedConfig::with_workers(1)
        };
        let sched = Scheduler::new(cfg);
        let opts = SubmitOptions { fault_key: Some(42), ..SubmitOptions::default() };
        for round in 0..2 {
            let outcome = sched
                .submit_with(quick_job("ps2"), opts, None, None)
                .wait_timeout(Duration::from_secs(120))
                .expect("ticket must resolve");
            assert_eq!(outcome.stopped, Some(StopReason::TaskPanicked), "round {round}");
            assert_eq!(sched.is_quarantined(42), round == 1);
        }
        let quarantined = sched
            .submit_with(quick_job("ps2"), opts, None, None)
            .wait_timeout(Duration::from_secs(10))
            .expect("fail-fast outcome must be immediate");
        assert_eq!(quarantined.stopped, Some(StopReason::Quarantined));
        assert!(!quarantined.valid);
        // A different key is unaffected — and the fire limit is spent,
        // so the job runs clean.
        let opts = SubmitOptions { fault_key: Some(7), ..SubmitOptions::default() };
        let healthy = sched.submit_with(quick_job("ps2"), opts, None, None).wait();
        let m = sched.metrics();
        sched.shutdown();
        assert_eq!(healthy.stopped, None);
        assert!(healthy.valid);
        assert_eq!(m.jobs_quarantined, 1);
        assert_eq!(m.tasks_panicked, 2);
    }

    /// Priority aging at the ring level, driven single-threaded so the
    /// pop sequence is exactly reproducible: a starved low-priority
    /// job climbs one level per interval and overtakes the
    /// high-priority job's queue before it drains; with aging disabled
    /// it is served dead last.
    #[test]
    fn aging_promotes_a_starved_job_deterministically() {
        let pop_sequence = |aging: Option<u64>| -> Vec<u64> {
            let shared = Shared {
                engine: Engine::new(),
                cfg: SchedConfig::with_workers(1),
                state: Mutex::new(PoolState {
                    ring: BTreeMap::new(),
                    queues: HashMap::new(),
                    jobs: HashMap::new(),
                    tick: 0,
                    shutdown: false,
                }),
                cv: Condvar::new(),
                metrics: Metrics::new(1),
                breaker: Breaker::default(),
                next_id: AtomicU64::new(1),
            };
            let mk_job = |id: u64, priority: i32| {
                Arc::new(JobRun {
                    id,
                    priority,
                    fault_key: None,
                    cancel: quick_job("ps2").cancel_token(),
                    inner: Mutex::new(JobInner {
                        pending: None,
                        staged: None,
                        outstanding: 0,
                        stats: JobStats::default(),
                        seq: 0,
                        sink: None,
                        on_done: None,
                        outcome: None,
                        failed: None,
                        retries: 0,
                    }),
                    done_cv: Condvar::new(),
                })
            };
            let mut st = shared.state.lock().unwrap();
            // Low-priority job with one item, high-priority with 30:
            // without aging the low item is always sorted last.
            for (id, priority, items) in [(1u64, -2, 1usize), (2, 2, 30)] {
                st.jobs.insert(id, mk_job(id, priority));
                let items = (0..items).map(|_| WorkItem::Start(Instant::now())).collect();
                enqueue(&shared, &mut st, id, priority, items);
            }
            let mut order = Vec::new();
            while let Some((job, _item)) = pop_ready(&mut st, aging) {
                order.push(job.id);
            }
            order
        };

        let with_aging = pop_sequence(Some(3));
        let lo_at = with_aging.iter().position(|&id| id == 1).unwrap();
        assert!(
            lo_at < with_aging.len() - 1,
            "aging must serve the starved job before the high-priority queue drains \
             (served at {lo_at}/{})",
            with_aging.len()
        );
        // Reproducible: the same pop sequence every time.
        assert_eq!(with_aging, pop_sequence(Some(3)));
        // Without aging, strict priority order: the low job is last.
        let without = pop_sequence(None);
        assert_eq!(without.iter().position(|&id| id == 1), Some(without.len() - 1));
    }

    /// End-to-end starvation guard: one worker, an aggressive aging
    /// interval, and a burst of high-priority jobs behind one
    /// low-priority job — the low job must not finish last.
    #[test]
    fn aging_prevents_starvation_under_a_high_priority_burst() {
        let cfg = SchedConfig { aging_interval: Some(2), ..SchedConfig::with_workers(1) };
        let sched = Scheduler::new(cfg);
        // A gate job holds the single worker in its first event until the
        // low-priority job and the whole burst are queued, so the pop
        // sequence no longer depends on how the host schedules threads.
        // It is cancelled before release, so it leaves one task behind.
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let gate_hold = StdMutex::new(Some((entered_tx, release_rx)));
        let gate_job = quick_job("ps2");
        let gate_cancel = gate_job.cancel_token();
        let gate = sched.submit_with(
            gate_job,
            SubmitOptions::default(),
            Some(Box::new(move |_| {
                if let Some((entered, release)) = gate_hold.lock().unwrap().take() {
                    entered.send(()).unwrap();
                    release.recv().unwrap();
                }
            })),
            None,
        );
        entered_rx.recv().unwrap();
        let order: Arc<StdMutex<Vec<String>>> = Arc::new(StdMutex::new(Vec::new()));
        let mut tickets = Vec::new();
        let lo_order = order.clone();
        tickets.push(sched.submit_with(
            quick_job("ps2"),
            SubmitOptions::priority(-5),
            None,
            Some(Box::new(move |_, _| lo_order.lock().unwrap().push("lo".into()))),
        ));
        for i in 0..5 {
            let hi_order = order.clone();
            tickets.push(sched.submit_with(
                quick_job("ps3"),
                SubmitOptions::priority(5),
                None,
                Some(Box::new(move |_, _| hi_order.lock().unwrap().push(format!("hi{i}")))),
            ));
        }
        gate_cancel.cancel();
        release_tx.send(()).unwrap();
        gate.wait();
        for t in &tickets {
            t.wait();
        }
        sched.shutdown();
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 6);
        assert_ne!(order.last().unwrap(), "lo", "aging must keep the low-priority job moving");
    }

    #[test]
    fn metrics_count_tasks_and_queue_wait() {
        let sched = Scheduler::new(SchedConfig::with_workers(2));
        sched.submit(quick_job("ps2")).wait();
        let m = sched.metrics();
        sched.shutdown();
        assert_eq!(m.jobs_submitted, 1);
        assert_eq!(m.jobs_completed, 1);
        assert!(m.tasks_executed >= 4, "trace+setup+train+extract+check at least");
        assert!(m.queue_wait.count >= 1);
        let kinds: Vec<&str> = m.tasks.iter().map(|(k, _)| k.as_str()).collect();
        assert!(kinds.contains(&"train") && kinds.contains(&"check"), "kinds: {kinds:?}");
        assert!(m.utilization() > 0.0);
    }
}
