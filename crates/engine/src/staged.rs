//! The stage-task extraction API: a [`Job`] decomposed into an explicit
//! stage graph that external schedulers can interleave.
//!
//! [`StagedJob`] is a pull-based state machine over the pipeline's
//! stage graph:
//!
//! ```text
//!            ┌──────────────────── per CEGIS round ───────────────────┐
//!   Trace ─▶ Setup(loop ℓ) ─▶ Train(ℓ, attempt a) ─▶ ┬ Extract(ℓ, a) ┐
//!                                                    ├ Kernel(ℓ)     ├─▶ merge(ℓ) ─▶ [Fractional(ℓ)] ─▶ Check ─▶ Cegis ─▶ …
//!                                                    └ Bounds(ℓ)     ┘
//! ```
//!
//! [`StagedJob::advance`] returns either a batch of independent
//! [`Task`]s (run them on any threads, in any order, feed each result
//! back via [`StagedJob::complete`]) or the finished
//! [`InferenceOutcome`]. All sequencing, merging, budget accounting,
//! and event emission happen inside `advance`, on whichever thread
//! drives the machine — tasks are pure functions of their captured
//! inputs.
//!
//! **Determinism.** Task results are merged by `(loop, attempt)` key in
//! a fixed order and every training attempt's seed is a pure function
//! of `(master seed, attempt, loop, round)`, so the outcome and the
//! event stream are bit-identical (modulo wall-clock `ms` fields) no
//! matter how many workers execute the tasks or how they interleave —
//! including interleaving with *other jobs'* tasks, which is exactly
//! what `gcln-sched` does. [`Engine::run_with_events`] itself is a
//! trivial driver over this machine, so the solo path and the scheduled
//! path cannot drift apart.
//!
//! **Stop conditions.** Cancel/deadline/budget are checked at task
//! boundaries: between stages (inside `advance`) and at the start of
//! each training attempt (inside the task). A stopped job still drains
//! its in-flight batch — tasks are never abandoned mid-run — and then
//! finishes with a partial outcome, exactly like the solo engine.

use crate::bounds::learn_bounds;
use crate::data::Dataset;
use crate::events::{Event, Stage, StopReason};
use crate::extract::extract_formula;
use crate::fractional::INTERVAL;
use crate::kernel::kernel_equalities;
use crate::model::{train_equality_gcln, TermTiles, TrainedGcln};
use crate::run::{
    absorb, bound_direction, collect_trace, learn_fractional, prune_falsified_conjuncts,
    CancelToken, Engine, InferenceOutcome, Job, LoopInference, PipelineConfig, TraceCollection,
    MAGNITUDE_CAP,
};
use crate::terms::{growth_filter_with_duplicates, TermSpace};
use gcln_checker::{check, Candidate, CheckReport};
use gcln_logic::{Atom, Formula, Pred};
use gcln_numeric::{Poly, Rat};
use gcln_problems::Problem;
use std::sync::Arc;
use std::time::Instant;

/// What a [`Task`] computes; used for scheduler metrics and display.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Trace collection (training + validation points, widened tuples).
    Trace,
    /// Per-loop term-space enumeration, growth filter, dataset build.
    Setup,
    /// One equality-model training attempt for one loop.
    Train,
    /// One attempt's formula extraction for one loop.
    Extract,
    /// Exact kernel completion of one loop's equalities.
    Kernel,
    /// Inequality-bound learning for one loop.
    Bounds,
    /// One fractional-sampling fallback run for one loop.
    Fractional,
    /// The invariant checker over all loops' candidates.
    Check,
}

impl TaskKind {
    /// Stable lower-case identifier (metrics label).
    pub fn as_str(self) -> &'static str {
        match self {
            TaskKind::Trace => "trace",
            TaskKind::Setup => "setup",
            TaskKind::Train => "train",
            TaskKind::Extract => "extract",
            TaskKind::Kernel => "kernel",
            TaskKind::Bounds => "bounds",
            TaskKind::Fractional => "fractional",
            TaskKind::Check => "check",
        }
    }

    /// Every kind, in stage order (for metrics enumeration).
    pub const ALL: [TaskKind; 8] = [
        TaskKind::Trace,
        TaskKind::Setup,
        TaskKind::Train,
        TaskKind::Extract,
        TaskKind::Kernel,
        TaskKind::Bounds,
        TaskKind::Fractional,
        TaskKind::Check,
    ];
}

impl std::fmt::Display for TaskKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One independent unit of work produced by [`StagedJob::advance`].
/// Pure: the closure owns (shared, immutable) copies of everything it
/// reads, so tasks of one job — and of different jobs — can run on any
/// threads in any order.
pub struct Task {
    id: u64,
    kind: TaskKind,
    run: Box<dyn FnOnce() -> TaskOutput + Send>,
}

impl Task {
    /// What this task computes.
    pub fn kind(&self) -> TaskKind {
        self.kind
    }

    /// Executes the task, producing the result to feed back into
    /// [`StagedJob::complete`].
    pub fn execute(self) -> CompletedTask {
        CompletedTask { id: self.id, kind: self.kind, output: (self.run)() }
    }
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task").field("id", &self.id).field("kind", &self.kind).finish()
    }
}

/// A finished task: pass back to the [`StagedJob`] that produced it.
pub struct CompletedTask {
    id: u64,
    kind: TaskKind,
    output: TaskOutput,
}

impl CompletedTask {
    /// What the task computed.
    pub fn kind(&self) -> TaskKind {
        self.kind
    }
}

impl std::fmt::Debug for CompletedTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletedTask").field("id", &self.id).field("kind", &self.kind).finish()
    }
}

/// Opaque task result; the payload vocabulary is an engine-internal
/// detail (schedulers just shuttle it back).
pub struct TaskOutput(Out);

enum Out {
    Trace(TraceCollection),
    Setup {
        loop_id: usize,
        setup: LoopSetup,
    },
    /// One attempt's model (`None` if stopped before training). Merged
    /// by `attempt`, so arrival order never affects the outcome.
    Train {
        loop_id: usize,
        attempt: usize,
        model: Option<Arc<TrainedGcln>>,
    },
    Extract {
        attempt: usize,
        formula: Formula,
    },
    Kernel {
        atoms: Vec<Atom>,
    },
    Bounds {
        atoms: Vec<Atom>,
    },
    Fractional {
        atoms: Option<Vec<Atom>>,
    },
    Check(CheckReport),
}

/// What [`StagedJob::advance`] asks the driver to do next.
pub enum Step {
    /// Run every task (any threads, any order), feed each result back
    /// via [`StagedJob::complete`], then call `advance` again.
    Run(Vec<Task>),
    /// The job is finished; the machine must not be advanced again.
    Done(Box<InferenceOutcome>),
}

/// Products of the Setup task for one loop, shared (via `Arc`) by that
/// loop's train/extract/kernel/bounds tasks.
struct LoopSetup {
    /// Full (unfiltered) term space; needed to reconstruct equalities
    /// from duplicate columns.
    space_all: TermSpace,
    /// `(dropped, kept)` duplicate column pairs from the growth filter.
    duplicates: Vec<(usize, usize)>,
    /// Growth-filtered term space the models train over.
    space: Arc<TermSpace>,
    /// Term values over the training points (empty iff `ds_empty`).
    data: Arc<TermTiles>,
    /// Whether the dataset came out empty (degenerate term space).
    ds_empty: bool,
}

/// Per-loop, per-round training state.
struct LoopRound {
    setup: LoopSetup,
    /// Attempts scheduled by the config (may exceed `models.len()` when
    /// the step budget trimmed the grant).
    scheduled: usize,
    /// One slot per *granted* attempt; `None` when a deadline/cancel
    /// poll skipped the attempt.
    models: Vec<Option<Arc<TrainedGcln>>>,
}

/// Merge scratch for the loop currently in its Extract stage.
struct ExtractScratch {
    formulas: Vec<Option<Formula>>,
    kernel_atoms: Vec<Atom>,
    bound_atoms: Vec<Atom>,
    best_eq: Vec<Formula>,
    used_fractional: bool,
}

#[derive(Clone, Copy, Debug)]
enum Phase {
    Start,
    TraceWait,
    RoundStart(usize),
    SetupWait(usize),
    TrainWait(usize),
    ExtractLoop(usize, usize),
    ExtractMerge(usize, usize),
    FractionalWait { round: usize, loop_id: usize, second: bool },
    PostExtract(usize),
    CheckWait(usize),
    Finish,
    Done,
}

/// A [`Job`] unfolded into its stage graph. See the module docs for the
/// driving contract.
pub struct StagedJob {
    problem: Arc<Problem>,
    config: Arc<PipelineConfig>,
    ext_names: Arc<Vec<String>>,
    num_loops: usize,
    trace_cache: Option<Arc<crate::cache::TraceCache>>,
    start: Instant,

    // Stop-condition state (the old JobCtx).
    deadline_at: Option<Instant>,
    budget: Option<u64>,
    used: u64,
    cancel: CancelToken,
    stopped: Option<StopReason>,

    // Event log; `drained` marks how far `take_events` has read.
    events: Vec<Event>,
    drained: usize,

    // Data evolving across rounds.
    points: Vec<Arc<Vec<Vec<f64>>>>,
    validation_points: Vec<Vec<Vec<f64>>>,
    widened: Arc<Vec<Vec<i128>>>,
    loops: Vec<LoopInference>,
    needs_learning: Vec<bool>,
    report: CheckReport,
    checked: bool,
    rounds_used: usize,
    banned: Vec<Vec<Poly>>,

    // Per-round scratch.
    train: Vec<Option<LoopRound>>,
    cur: Option<(LoopRound, ExtractScratch)>,

    // Task bookkeeping.
    next_task_id: u64,
    outstanding: usize,
    inbox: Vec<CompletedTask>,
    phase: Phase,
    stage_started_at: Instant,
}

impl StagedJob {
    /// Unfolds a job. The job's wall clock starts here (deadlines are
    /// measured from creation, matching `Engine::run`).
    pub fn new(engine: &Engine, job: &Job) -> StagedJob {
        let start = Instant::now();
        let problem = Arc::new(job.spec.problem.clone());
        let num_loops = problem.program.num_loops;
        let ext_names = Arc::new(problem.extended_names());
        StagedJob {
            config: Arc::new(job.config.clone()),
            trace_cache: engine.trace_cache().cloned(),
            deadline_at: job.deadline.map(|d| start + d),
            budget: job.step_budget,
            used: 0,
            cancel: job.cancel.clone(),
            stopped: None,
            events: Vec::new(),
            drained: 0,
            points: (0..num_loops).map(|_| Arc::new(Vec::new())).collect(),
            validation_points: vec![Vec::new(); num_loops],
            widened: Arc::new(Vec::new()),
            loops: (0..num_loops)
                .map(|l| LoopInference {
                    loop_id: l,
                    formula: Formula::True,
                    attempts: 0,
                    used_fractional: false,
                })
                .collect(),
            needs_learning: vec![false; num_loops],
            report: CheckReport::default(),
            checked: false,
            rounds_used: 0,
            banned: vec![Vec::new(); num_loops],
            train: Vec::new(),
            cur: None,
            next_task_id: 0,
            outstanding: 0,
            inbox: Vec::new(),
            phase: Phase::Start,
            stage_started_at: start,
            problem,
            ext_names,
            num_loops,
            start,
        }
    }

    /// Tasks handed out by the last `advance` that have not been
    /// completed yet. `advance` may only be called when this is zero.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Feeds one finished task back into the machine.
    pub fn complete(&mut self, done: CompletedTask) {
        assert!(self.outstanding > 0, "complete() with no tasks outstanding");
        self.outstanding -= 1;
        self.inbox.push(done);
    }

    /// Drains the events emitted since the last call (in emission
    /// order). Events also accumulate on the final outcome.
    pub fn take_events(&mut self) -> Vec<Event> {
        let fresh = self.events[self.drained..].to_vec();
        self.drained = self.events.len();
        fresh
    }

    /// Advances the machine: ingests completed tasks, emits events, and
    /// returns the next batch of tasks or the finished outcome.
    ///
    /// # Panics
    ///
    /// Panics if called with tasks still outstanding, or again after
    /// [`Step::Done`] was returned.
    pub fn advance(&mut self) -> Step {
        assert_eq!(self.outstanding, 0, "advance() called with tasks outstanding");
        loop {
            match self.phase {
                Phase::Start => {
                    self.emit(Event::JobStarted {
                        problem: self.problem.name.clone(),
                        loops: self.num_loops,
                    });
                    if self.check_stop() {
                        self.phase = Phase::RoundStart(0);
                        continue;
                    }
                    self.stage_begin(0, Stage::Trace);
                    let task = self.trace_task();
                    self.phase = Phase::TraceWait;
                    return self.run(vec![task]);
                }
                Phase::TraceWait => {
                    let Out::Trace(out) = self.take_single() else { unreachable!("trace result") };
                    self.points = out.points.into_iter().map(Arc::new).collect();
                    self.validation_points = out.validation_points;
                    self.widened = Arc::new(out.widened);
                    if let Some(reason) = out.stopped {
                        self.flag(reason);
                    }
                    self.stage_end(0, Stage::Trace);
                    self.needs_learning =
                        (0..self.num_loops).map(|l| !self.points[l].is_empty()).collect();
                    self.phase = Phase::RoundStart(0);
                }
                Phase::RoundStart(round) => {
                    if round > self.config.cegis_rounds || self.check_stop() {
                        self.phase = Phase::Finish;
                        continue;
                    }
                    self.stage_begin(round, Stage::Train);
                    self.train = (0..self.num_loops).map(|_| None).collect();
                    let learn: Vec<usize> =
                        (0..self.num_loops).filter(|&l| self.needs_learning[l]).collect();
                    let tasks: Vec<Task> = learn.into_iter().map(|l| self.setup_task(l)).collect();
                    if tasks.is_empty() {
                        self.stage_end(round, Stage::Train);
                        self.stage_begin(round, Stage::Extract);
                        self.phase = Phase::ExtractLoop(round, 0);
                        continue;
                    }
                    self.phase = Phase::SetupWait(round);
                    return self.run(tasks);
                }
                Phase::SetupWait(round) => {
                    for done in std::mem::take(&mut self.inbox) {
                        let Out::Setup { loop_id, setup } = done.output.0 else {
                            unreachable!("setup result")
                        };
                        self.train[loop_id] =
                            Some(LoopRound { setup, scheduled: 0, models: Vec::new() });
                    }
                    // Budget pre-charge in loop order: the set of granted
                    // attempts stays a deterministic function of the
                    // budget, independent of setup completion order.
                    let mut tasks = Vec::new();
                    for l in 0..self.num_loops {
                        let Some(lr) = &self.train[l] else { continue };
                        if lr.setup.ds_empty {
                            continue;
                        }
                        let want = self.config.max_attempts.max(1);
                        let granted = self.take_steps(want as u64) as usize;
                        let lr = self.train[l].as_mut().expect("loop round present");
                        lr.scheduled = want;
                        lr.models = (0..granted).map(|_| None).collect();
                        for attempt in 0..granted {
                            tasks.push(self.train_task(l, attempt, round));
                        }
                    }
                    if tasks.is_empty() {
                        self.stage_end(round, Stage::Train);
                        self.stage_begin(round, Stage::Extract);
                        self.phase = Phase::ExtractLoop(round, 0);
                        continue;
                    }
                    self.phase = Phase::TrainWait(round);
                    return self.run(tasks);
                }
                Phase::TrainWait(round) => {
                    for done in std::mem::take(&mut self.inbox) {
                        let Out::Train { loop_id, attempt, model } = done.output.0 else {
                            unreachable!("train result")
                        };
                        self.train[loop_id].as_mut().expect("trained loop").models[attempt] = model;
                    }
                    self.stage_end(round, Stage::Train);
                    self.stage_begin(round, Stage::Extract);
                    self.phase = Phase::ExtractLoop(round, 0);
                }
                Phase::ExtractLoop(round, l) => {
                    if l == self.num_loops {
                        self.phase = Phase::PostExtract(round);
                        continue;
                    }
                    let Some(lr) = self.train[l].take() else {
                        self.phase = Phase::ExtractLoop(round, l + 1);
                        continue;
                    };
                    // Duplicate columns are equality invariants in their
                    // own right (e.g. `A == r` when two columns coincide
                    // on every sample).
                    let mut best_eq: Vec<Formula> = Vec::new();
                    for &(dropped, kept) in &lr.setup.duplicates {
                        let poly = (&Poly::from_monomial(
                            lr.setup.space_all.monomials[dropped].clone(),
                            Rat::ONE,
                        ) - &Poly::from_monomial(
                            lr.setup.space_all.monomials[kept].clone(),
                            Rat::ONE,
                        ))
                            .normalize_content();
                        if !poly.is_zero() {
                            let f = Formula::atom(poly, Pred::Eq);
                            if !best_eq.contains(&f) {
                                best_eq.push(f);
                            }
                        }
                    }
                    let mut tasks = Vec::new();
                    for attempt in 0..lr.models.len() {
                        if let Some(model) = &lr.models[attempt] {
                            tasks.push(self.extract_task(l, attempt, model.clone(), &lr.setup));
                        }
                    }
                    if self.config.kernel_completion {
                        tasks.push(self.kernel_task(l, &lr.setup));
                    }
                    if !lr.setup.ds_empty {
                        tasks.push(self.bounds_task(l, &lr.setup));
                    }
                    let scratch = ExtractScratch {
                        formulas: vec![None; lr.models.len()],
                        kernel_atoms: Vec::new(),
                        bound_atoms: Vec::new(),
                        best_eq,
                        used_fractional: false,
                    };
                    self.cur = Some((lr, scratch));
                    self.phase = Phase::ExtractMerge(round, l);
                    if tasks.is_empty() {
                        continue;
                    }
                    return self.run(tasks);
                }
                Phase::ExtractMerge(round, l) => {
                    for done in std::mem::take(&mut self.inbox) {
                        let (_, scratch) = self.cur.as_mut().expect("extract scratch");
                        match done.output.0 {
                            Out::Extract { attempt, formula } => {
                                scratch.formulas[attempt] = Some(formula);
                            }
                            Out::Kernel { atoms } => scratch.kernel_atoms = atoms,
                            Out::Bounds { atoms } => scratch.bound_atoms = atoms,
                            _ => unreachable!("extract-stage result"),
                        }
                    }
                    // Merge in attempt order — determinism is preserved.
                    // Attempts the step budget trimmed
                    // (`models.len()..scheduled`) still emit a skipped
                    // AttemptResult so event consumers can tell
                    // "scheduled but unrun" from "never scheduled".
                    let (lr, mut scratch) = self.cur.take().expect("extract scratch");
                    for (attempt, formula) in scratch.formulas.iter().enumerate() {
                        self.emit(Event::AttemptResult {
                            round,
                            loop_id: l,
                            attempt,
                            conjuncts: formula.as_ref().map_or(0, |f| f.conjuncts().len()),
                            skipped: formula.is_none(),
                        });
                        if let Some(formula) = formula {
                            for conjunct in formula.conjuncts() {
                                if !scratch.best_eq.contains(conjunct) {
                                    scratch.best_eq.push(conjunct.clone());
                                }
                            }
                        }
                    }
                    for attempt in lr.models.len()..lr.scheduled {
                        self.emit(Event::AttemptResult {
                            round,
                            loop_id: l,
                            attempt,
                            conjuncts: 0,
                            skipped: true,
                        });
                    }
                    for atom in std::mem::take(&mut scratch.kernel_atoms) {
                        let f = Formula::Atom(atom);
                        if !scratch.best_eq.contains(&f) {
                            scratch.best_eq.push(f);
                        }
                    }
                    let want_fractional = self.config.enable_fractional
                        && (scratch.best_eq.is_empty() || self.problem.max_degree >= 5);
                    self.cur = Some((lr, scratch));
                    // Each fallback run is a full equality-training pass,
                    // so it is charged against the step budget like a
                    // restart attempt.
                    if want_fractional && self.take_steps(1) == 1 {
                        let task = self.fractional_task(l, INTERVAL);
                        self.phase = Phase::FractionalWait { round, loop_id: l, second: false };
                        return self.run(vec![task]);
                    }
                    self.finalize_loop(round, l);
                    self.phase = Phase::ExtractLoop(round, l + 1);
                }
                Phase::FractionalWait { round, loop_id: l, second } => {
                    let Out::Fractional { atoms } = self.take_single() else {
                        unreachable!("fractional result")
                    };
                    let (_, scratch) = self.cur.as_mut().expect("extract scratch");
                    if let Some(extra) = atoms {
                        for atom in extra {
                            let f = Formula::Atom(atom);
                            if !scratch.best_eq.contains(&f) {
                                scratch.best_eq.push(f);
                                scratch.used_fractional = true;
                            }
                        }
                    }
                    let retry = !self.cur.as_ref().expect("scratch").1.used_fractional && !second;
                    if retry && self.take_steps(1) == 1 {
                        let task = self.fractional_task(l, INTERVAL / 2.0);
                        self.phase = Phase::FractionalWait { round, loop_id: l, second: true };
                        return self.run(vec![task]);
                    }
                    self.finalize_loop(round, l);
                    self.phase = Phase::ExtractLoop(round, l + 1);
                }
                Phase::PostExtract(round) => {
                    self.stage_end(round, Stage::Extract);
                    if self.check_stop() {
                        self.phase = Phase::Finish;
                        continue;
                    }
                    // The budget step is taken before the stage events so
                    // an exhausted budget leaves no phantom check stage in
                    // the stream.
                    if self.take_steps(1) == 0 {
                        self.phase = Phase::Finish;
                        continue;
                    }
                    self.stage_begin(round, Stage::Check);
                    let task = self.check_task();
                    self.phase = Phase::CheckWait(round);
                    return self.run(vec![task]);
                }
                Phase::CheckWait(round) => {
                    let Out::Check(report) = self.take_single() else {
                        unreachable!("check result")
                    };
                    self.report = report;
                    self.checked = true;
                    for cex in self.report.counterexamples.clone() {
                        self.emit(Event::Counterexample {
                            round,
                            loop_id: cex.loop_id,
                            kind: cex.kind,
                            state: cex.state,
                            reachable: cex.reachable,
                        });
                    }
                    self.stage_end(round, Stage::Check);
                    if self.report.is_valid() || round == self.config.cegis_rounds {
                        self.phase = Phase::Finish;
                        continue;
                    }
                    self.rounds_used = round + 1;
                    if self.check_stop() {
                        self.phase = Phase::Finish;
                        continue;
                    }
                    self.cegis(round);
                    self.phase = Phase::RoundStart(round + 1);
                }
                Phase::Finish => {
                    let valid = self.checked && self.report.is_valid();
                    self.emit(Event::JobFinished {
                        valid,
                        cegis_rounds: self.rounds_used,
                        ms: self.start.elapsed().as_secs_f64() * 1e3,
                    });
                    self.phase = Phase::Done;
                    return Step::Done(Box::new(InferenceOutcome {
                        loops: self.loops.clone(),
                        valid,
                        cegis_rounds_used: self.rounds_used,
                        runtime: self.start.elapsed(),
                        report: self.report.clone(),
                        stopped: self.stopped,
                        events: self.events.clone(),
                    }));
                }
                Phase::Done => panic!("advance() called after Step::Done"),
            }
        }
    }

    /// Terminates the job immediately with `reason`, regardless of
    /// outstanding tasks: the driver calls this when a stage task
    /// panicked (its result can never arrive, so the normal
    /// `complete`/`advance` cycle would deadlock). Emits `JobStopped` +
    /// `JobFinished` and returns the partial outcome — loops, report,
    /// and events as of the last completed stage. The machine lands in
    /// `Done`; results of still-running sibling tasks must be dropped,
    /// not fed back.
    ///
    /// If a stop reason was already flagged (e.g. the job was cancelled
    /// before the panic), the earlier reason wins — same first-cause
    /// rule as the cooperative stop path.
    pub fn abort(&mut self, reason: StopReason) -> Box<InferenceOutcome> {
        self.flag(reason);
        self.emit(Event::JobFinished {
            valid: false,
            cegis_rounds: self.rounds_used,
            ms: self.start.elapsed().as_secs_f64() * 1e3,
        });
        self.phase = Phase::Done;
        self.outstanding = 0;
        self.inbox.clear();
        Box::new(InferenceOutcome {
            loops: self.loops.clone(),
            valid: false,
            cegis_rounds_used: self.rounds_used,
            runtime: self.start.elapsed(),
            report: self.report.clone(),
            stopped: self.stopped,
            events: self.events.clone(),
        })
    }

    // --- stage transitions ---

    /// Cegis stage: counterexample feedback — add reachable
    /// counterexample states to the training data, prune conjuncts they
    /// falsify, and mark the affected loops for retraining.
    fn cegis(&mut self, round: usize) {
        self.stage_begin(round, Stage::Cegis);
        for cex in self.report.counterexamples.clone() {
            let ext_state: Vec<f64> =
                self.problem.extend_state(&cex.state).iter().map(|&v| v as f64).collect();
            let l = cex.loop_id;
            if cex.reachable && !self.points[l].contains(&ext_state) {
                Arc::make_mut(&mut self.points[l]).push(ext_state);
            }
            self.needs_learning[l] = true;
        }
        for l in 0..self.num_loops {
            let (pruned, dropped) =
                prune_falsified_conjuncts(&self.loops[l].formula, &self.points[l]);
            for atom in dropped {
                // Bound directions refuted in a previous round are
                // banned: re-learning them with a shifted bias would
                // loop forever on non-invariant directions.
                let dir = bound_direction(&atom.poly);
                if !self.banned[l].contains(&dir) {
                    self.banned[l].push(dir);
                }
            }
            self.loops[l].formula = pruned;
        }
        self.stage_end(round, Stage::Cegis);
    }

    /// Assembles the current loop's invariant: bounds (minus banned
    /// directions), absorption, validation pruning, the
    /// `InvariantLearned` event.
    fn finalize_loop(&mut self, round: usize, l: usize) {
        let (lr, scratch) = self.cur.take().expect("extract scratch");
        let mut parts = scratch.best_eq;
        for atom in scratch.bound_atoms {
            if !self.banned[l].contains(&bound_direction(&atom.poly)) {
                parts.push(Formula::Atom(atom));
            }
        }
        let formula = absorb(&Formula::and(parts).simplify());
        // "Consumed" means a model actually trained: attempts a
        // deadline/cancel poll skipped do not count. An empty dataset
        // historically reports one consumed attempt.
        let attempts =
            if lr.setup.ds_empty { 1 } else { lr.models.iter().filter(|m| m.is_some()).count() };
        let (validated, _) = prune_falsified_conjuncts(&formula, &self.validation_points[l]);
        let formula_text = validated.display(&self.ext_names).to_string();
        self.emit(Event::InvariantLearned {
            round,
            loop_id: l,
            conjuncts: validated.conjuncts().len(),
            formula: formula_text,
        });
        self.loops[l] = LoopInference {
            loop_id: l,
            formula: validated,
            attempts,
            used_fractional: scratch.used_fractional,
        };
        self.needs_learning[l] = false;
    }

    // --- task constructors ---

    fn trace_task(&mut self) -> Task {
        let problem = self.problem.clone();
        let config = self.config.clone();
        let cancel = self.cancel.clone();
        let deadline_at = self.deadline_at;
        let cache = self.trace_cache.clone();
        self.task(TaskKind::Trace, move || {
            Out::Trace(collect_trace(&problem, &config, cache.as_deref(), &cancel, deadline_at))
        })
    }

    fn setup_task(&mut self, loop_id: usize) -> Task {
        let problem = self.problem.clone();
        let config = self.config.clone();
        let ext_names = self.ext_names.clone();
        let points = self.points[loop_id].clone();
        self.task(TaskKind::Setup, move || {
            let space_all = TermSpace::enumerate(ext_names.to_vec(), problem.max_degree);
            let filtered = growth_filter_with_duplicates(&space_all, &points, MAGNITUDE_CAP);
            let space = space_all.select(&filtered.keep);
            let ds = Dataset::from_points((*points).clone(), &space, config.normalize);
            let ds_empty = ds.is_empty();
            let data = TermTiles::from_rows(&ds.rows);
            Out::Setup {
                loop_id,
                setup: LoopSetup {
                    space_all,
                    duplicates: filtered.duplicates,
                    space: Arc::new(space),
                    data: Arc::new(data),
                    ds_empty,
                },
            }
        })
    }

    /// One Train task: trains `attempt` with its own seed and dropout
    /// rate, derived from the attempt, loop and CEGIS round.
    fn train_task(&mut self, loop_id: usize, attempt: usize, round: usize) -> Task {
        let config = self.config.clone();
        let cancel = self.cancel.clone();
        let deadline_at = self.deadline_at;
        let data = self.train[loop_id].as_ref().expect("loop round present").setup.data.clone();
        self.task(TaskKind::Train, move || {
            // Cooperative stop at the task boundary: already-running
            // attempts finish, pending ones are skipped.
            if cancel.is_cancelled() || deadline_at.is_some_and(|at| Instant::now() >= at) {
                return Out::Train { loop_id, attempt, model: None };
            }
            let dropout =
                if config.enable_dropout { (0.3 - 0.1 * attempt as f64).max(0.0) } else { 0.0 };
            let seed = config
                .seed
                .wrapping_add((attempt as u64) * 7919)
                .wrapping_add((loop_id as u64) * 104_729)
                .wrapping_add((round as u64) * 15_485_863);
            let model =
                train_equality_gcln(&data, &config.gcln, dropout, config.enable_weight_reg, seed);
            let model = Some(Arc::new(model));
            Out::Train { loop_id, attempt, model }
        })
    }

    fn extract_task(
        &mut self,
        loop_id: usize,
        attempt: usize,
        model: Arc<TrainedGcln>,
        setup: &LoopSetup,
    ) -> Task {
        let space = setup.space.clone();
        let points = self.points[loop_id].clone();
        self.task(TaskKind::Extract, move || Out::Extract {
            attempt,
            formula: extract_formula(&model, &space, &points),
        })
    }

    fn kernel_task(&mut self, loop_id: usize, setup: &LoopSetup) -> Task {
        let space = setup.space.clone();
        let points = self.points[loop_id].clone();
        self.task(TaskKind::Kernel, move || Out::Kernel {
            atoms: kernel_equalities(&space, &points, 250, 1_000_000),
        })
    }

    fn bounds_task(&mut self, loop_id: usize, setup: &LoopSetup) -> Task {
        let space = setup.space.clone();
        let points = self.points[loop_id].clone();
        self.task(TaskKind::Bounds, move || Out::Bounds { atoms: learn_bounds(&space, &points) })
    }

    fn fractional_task(&mut self, loop_id: usize, interval: f64) -> Task {
        let problem = self.problem.clone();
        let config = self.config.clone();
        let ext_names = self.ext_names.clone();
        let points = self.points[loop_id].clone();
        self.task(TaskKind::Fractional, move || Out::Fractional {
            atoms: learn_fractional(&problem, loop_id, &ext_names, &points, &config, interval),
        })
    }

    fn check_task(&mut self) -> Task {
        let problem = self.problem.clone();
        let widened = self.widened.clone();
        let candidates: Vec<Candidate> = self
            .loops
            .iter()
            .map(|li| Candidate { loop_id: li.loop_id, formula: li.formula.clone() })
            .collect();
        self.task(TaskKind::Check, move || {
            let extend = |s: &[i128]| problem.extend_state(s);
            Out::Check(check(&problem.program, &widened, &extend, &candidates))
        })
    }

    fn task(&mut self, kind: TaskKind, run: impl FnOnce() -> Out + Send + 'static) -> Task {
        let id = self.next_task_id;
        self.next_task_id += 1;
        Task { id, kind, run: Box::new(move || TaskOutput(run())) }
    }

    fn run(&mut self, tasks: Vec<Task>) -> Step {
        self.outstanding = tasks.len();
        Step::Run(tasks)
    }

    fn take_single(&mut self) -> Out {
        assert_eq!(self.inbox.len(), 1, "expected exactly one task result");
        self.inbox.pop().expect("one result").output.0
    }

    // --- events and stop conditions (the old JobCtx) ---

    fn emit(&mut self, event: Event) {
        self.events.push(event);
    }

    fn stage_begin(&mut self, round: usize, stage: Stage) {
        self.stage_started_at = Instant::now();
        self.emit(Event::StageStarted { round, stage });
    }

    fn stage_end(&mut self, round: usize, stage: Stage) {
        let ms = self.stage_started_at.elapsed().as_secs_f64() * 1e3;
        self.emit(Event::StageFinished { round, stage, ms });
    }

    fn flag(&mut self, reason: StopReason) {
        if self.stopped.is_none() {
            self.stopped = Some(reason);
            self.emit(Event::JobStopped { reason });
        }
    }

    /// Polls the stop conditions at a stage boundary.
    fn check_stop(&mut self) -> bool {
        if self.stopped.is_some() {
            return true;
        }
        if self.cancel.is_cancelled() {
            self.flag(StopReason::Cancelled);
        } else if self.deadline_at.is_some_and(|at| Instant::now() >= at) {
            self.flag(StopReason::DeadlineExceeded);
        } else if self.budget.is_some_and(|b| self.used >= b) {
            self.flag(StopReason::BudgetExhausted);
        }
        self.stopped.is_some()
    }

    /// Pre-charges `want` steps against the budget and returns how many
    /// were granted. Granting fewer than requested flags
    /// [`StopReason::BudgetExhausted`]. Pre-charging (rather than
    /// counting inside the fan-out) keeps the set of attempts that run
    /// a deterministic function of the budget.
    fn take_steps(&mut self, want: u64) -> u64 {
        let granted = match self.budget {
            None => want,
            Some(b) => want.min(b.saturating_sub(self.used)),
        };
        self.used += granted;
        if granted < want {
            self.flag(StopReason::BudgetExhausted);
        }
        granted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GclnConfig;
    use crate::spec::ProblemSpec;

    fn quick_job() -> Job {
        let spec = ProblemSpec::from_registry("ps2").unwrap();
        Job::new(spec).with_config(PipelineConfig {
            gcln: GclnConfig { max_epochs: 800 },
            max_inputs: 40,
            max_attempts: 2,
            cegis_rounds: 1,
            ..PipelineConfig::default()
        })
    }

    /// Driving the machine with task results fed back in *reverse*
    /// completion order must give exactly the solo outcome: merges key
    /// on (loop, attempt), not arrival order.
    #[test]
    fn out_of_order_completion_is_bit_identical_to_solo() {
        let engine = Engine::new();
        let job = quick_job();
        let solo = engine.run(&job);

        let mut staged = StagedJob::new(&engine, &job);
        let outcome = loop {
            match staged.advance() {
                Step::Run(tasks) => {
                    let mut done: Vec<CompletedTask> =
                        tasks.into_iter().map(Task::execute).collect();
                    done.reverse();
                    for d in done {
                        staged.complete(d);
                    }
                }
                Step::Done(outcome) => break *outcome,
            }
        };
        assert_eq!(outcome.valid, solo.valid);
        let strip_ms = |events: &[Event]| -> Vec<String> {
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
        };
        assert_eq!(strip_ms(&outcome.events), strip_ms(&solo.events));
        for (a, b) in outcome.loops.iter().zip(&solo.loops) {
            assert_eq!(a.formula, b.formula);
            assert_eq!(a.attempts, b.attempts);
        }
    }

    /// The events drained incrementally across the run equal the full
    /// log on the outcome.
    #[test]
    fn take_events_streams_the_full_log_in_order() {
        let engine = Engine::new();
        let job = quick_job();
        let mut staged = StagedJob::new(&engine, &job);
        let mut streamed: Vec<String> = Vec::new();
        let outcome = loop {
            let step = staged.advance();
            streamed.extend(staged.take_events().iter().map(Event::to_json));
            match step {
                Step::Run(tasks) => {
                    for t in tasks {
                        let kind = t.kind();
                        let done = t.execute();
                        assert_eq!(done.kind(), kind);
                        staged.complete(done);
                    }
                }
                Step::Done(outcome) => break *outcome,
            }
        };
        let full: Vec<String> = outcome.events.iter().map(Event::to_json).collect();
        assert_eq!(streamed, full);
    }

    #[test]
    #[should_panic(expected = "outstanding")]
    fn advance_with_outstanding_tasks_panics() {
        let engine = Engine::new();
        let job = quick_job();
        let mut staged = StagedJob::new(&engine, &job);
        let Step::Run(_tasks) = staged.advance() else { panic!("expected tasks") };
        let _ = staged.advance();
    }

    /// `abort` mid-flight — tasks outstanding, results never coming —
    /// still yields a structured partial outcome: `task_panicked`
    /// reason, events up to the abort plus `JobStopped`/`JobFinished`,
    /// and a machine parked in `Done`.
    #[test]
    fn abort_with_outstanding_tasks_yields_partial_outcome() {
        let engine = Engine::new();
        let job = quick_job();
        let mut staged = StagedJob::new(&engine, &job);
        let Step::Run(tasks) = staged.advance() else { panic!("expected tasks") };
        // Simulate a panicked batch: drop the tasks without completing.
        let n = tasks.len();
        drop(tasks);
        assert_eq!(staged.outstanding(), n);
        let outcome = staged.abort(StopReason::TaskPanicked);
        assert_eq!(outcome.stopped, Some(StopReason::TaskPanicked));
        assert!(!outcome.valid);
        assert!(outcome
            .events
            .iter()
            .any(|e| matches!(e, Event::JobStopped { reason: StopReason::TaskPanicked })));
        assert!(matches!(outcome.events.last(), Some(Event::JobFinished { .. })));
        assert_eq!(staged.outstanding(), 0);
        // An earlier flagged reason wins over the abort reason.
        let mut staged = StagedJob::new(&engine, &job);
        staged.flag(StopReason::Cancelled);
        let outcome = staged.abort(StopReason::TaskPanicked);
        assert_eq!(outcome.stopped, Some(StopReason::Cancelled));
    }
}
