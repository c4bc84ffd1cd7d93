//! The staged inference engine: explicit `Trace → Train → Extract →
//! Check → Cegis` stages behind an [`Engine`]/[`Job`] API.
//!
//! A [`Job`] carries a wall-clock deadline, a step budget (training
//! attempts + checker invocations), and a cooperative [`CancelToken`]
//! checked between stages and between training attempts. Jobs emit
//! structured [`Event`]s (see [`crate::events`]) that serialize to JSON
//! lines, and always return an [`InferenceOutcome`] — partial when a
//! stop condition fires, with the events emitted so far attached.
//!
//! Determinism: every training attempt's seed is a pure function of
//! `(master seed, attempt, loop, round)` and stage results merge in
//! attempt order, so outcomes are bit-identical at any
//! `RAYON_NUM_THREADS`. [`Engine::run`] is also the reference the
//! scheduler's determinism tests compare scheduled runs against.

use crate::data::{collect_loop_states, Dataset};
use crate::events::{Event, StopReason};
use crate::extract::{extract_formula, FitPoints};
use crate::fractional::{fractional_points, FractionalConfig};
use crate::model::{train_equality_gcln, GclnConfig};
use crate::spec::ProblemSpec;
use crate::terms::{growth_filter, TermSpace};
use gcln_checker::CheckReport;
use gcln_logic::{Formula, Pred};
use gcln_numeric::{Poly, Rat};
use gcln_problems::Problem;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pipeline settings; the defaults mirror the paper's §6 configuration
/// with the ablation switches of Table 3.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Equality-model hyperparameters.
    pub gcln: GclnConfig,
    /// Inequality-bound hyperparameters.
    pub bounds: crate::bounds::BoundsConfig,
    /// Extraction settings (denominators 10/15/30).
    pub extract: crate::extract::ExtractConfig,
    /// Fractional-sampling settings.
    pub fractional: FractionalConfig,
    /// Checker settings.
    pub checker: gcln_checker::CheckerConfig,
    /// Input tuples sampled for trace collection.
    pub max_inputs: usize,
    /// `nondet` seeds per input during trace collection.
    pub trace_seeds: u64,
    /// Row normalization target (`None` ablates data normalization).
    pub normalize: Option<f64>,
    /// Term dropout (Table 3 ablation switch).
    pub enable_dropout: bool,
    /// Unit-L2 weight projection (Table 3 ablation switch).
    pub enable_weight_reg: bool,
    /// Fractional sampling (Table 3 ablation switch).
    pub enable_fractional: bool,
    /// Whether to learn PBQU inequality bounds.
    pub learn_inequalities: bool,
    /// Exact kernel completion of the equality conjunction after
    /// training (see [`crate::kernel`]); disabled for the pure-model
    /// stability study.
    pub kernel_completion: bool,
    /// Growth-filter magnitude cap.
    pub magnitude_cap: f64,
    /// Training attempts per loop; dropout decays 0.3 → 0 across them
    /// (§6: "decrease by 0.1 after each failed attempt").
    pub max_attempts: usize,
    /// CEGIS rounds (counterexample feedback) after the first check.
    pub cegis_rounds: usize,
    /// Input-range widening factor for checking, so bounds overfitted to
    /// the training range are refuted.
    pub widen_factor: i128,
    /// Cap on training samples per loop.
    pub max_samples_per_loop: usize,
    /// Master seed.
    pub seed: u64,
}

impl PipelineConfig {
    /// The quick single-program profile (`gcln run --fast`, and served
    /// jobs that ask for `fast`): fewer epochs, two restart attempts,
    /// one CEGIS round.
    pub fn fast() -> PipelineConfig {
        PipelineConfig {
            gcln: GclnConfig { max_epochs: 800, ..GclnConfig::default() },
            max_attempts: 2,
            cegis_rounds: 1,
            ..PipelineConfig::default()
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            gcln: GclnConfig::default(),
            bounds: crate::bounds::BoundsConfig::default(),
            extract: crate::extract::ExtractConfig::default(),
            fractional: FractionalConfig::default(),
            checker: gcln_checker::CheckerConfig::default(),
            max_inputs: 120,
            trace_seeds: 2,
            normalize: Some(10.0),
            enable_dropout: true,
            enable_weight_reg: true,
            enable_fractional: true,
            learn_inequalities: true,
            kernel_completion: true,
            magnitude_cap: 1e10,
            max_attempts: 4,
            cegis_rounds: 2,
            widen_factor: 2,
            max_samples_per_loop: 400,
            seed: 20,
        }
    }
}

/// A cooperative cancellation token. Cloning shares the flag; any clone
/// can cancel, and the engine polls it between stages and training
/// attempts.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untriggered token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// One unit of inference work: a problem spec plus run limits.
#[derive(Clone, Debug)]
pub struct Job {
    /// The inference target.
    pub spec: ProblemSpec,
    /// Pipeline hyperparameters.
    pub config: PipelineConfig,
    /// Wall-clock deadline, measured from job start.
    pub deadline: Option<Duration>,
    /// Step budget: one step per equality-model training run (restart
    /// attempts and fractional-fallback runs) and per checker
    /// invocation. `None` = unlimited.
    pub step_budget: Option<u64>,
    /// Cooperative cancellation flag.
    pub cancel: CancelToken,
}

impl Job {
    /// A job with default configuration and no limits.
    pub fn new(spec: impl Into<ProblemSpec>) -> Job {
        Job {
            spec: spec.into(),
            config: PipelineConfig::default(),
            deadline: None,
            step_budget: None,
            cancel: CancelToken::new(),
        }
    }

    /// Replaces the pipeline configuration.
    pub fn with_config(mut self, config: PipelineConfig) -> Job {
        self.config = config;
        self
    }

    /// Sets a wall-clock deadline measured from job start.
    pub fn with_deadline(mut self, deadline: Duration) -> Job {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the step budget (training attempts + checker calls).
    pub fn with_step_budget(mut self, steps: u64) -> Job {
        self.step_budget = Some(steps);
        self
    }

    /// A clone of the job's cancellation token, for triggering
    /// cancellation from another thread.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }
}

/// The inferred invariant for one loop.
#[derive(Clone, Debug)]
pub struct LoopInference {
    /// Dense loop id.
    pub loop_id: usize,
    /// Invariant over the problem's extended variable space.
    pub formula: Formula,
    /// Training attempts consumed.
    pub attempts: usize,
    /// Whether fractional sampling contributed.
    pub used_fractional: bool,
}

/// The engine's result for a job.
#[derive(Clone, Debug)]
pub struct InferenceOutcome {
    /// Per-loop invariants.
    pub loops: Vec<LoopInference>,
    /// Whether the final candidates passed the checker.
    pub valid: bool,
    /// CEGIS rounds consumed (0 = first check passed).
    pub cegis_rounds_used: usize,
    /// Wall-clock inference time.
    pub runtime: Duration,
    /// Final checker report.
    pub report: CheckReport,
    /// Why the job stopped early, if it did. `None` = ran to completion.
    pub stopped: Option<StopReason>,
    /// Every event emitted during the run, in order.
    pub events: Vec<Event>,
}

impl InferenceOutcome {
    /// The invariant learned for a loop, if any.
    pub fn formula_for(&self, loop_id: usize) -> Option<&Formula> {
        self.loops.iter().find(|l| l.loop_id == loop_id).map(|l| &l.formula)
    }
}

/// The staged inference engine. The handle owns shared state that
/// spans jobs: today an optional [`crate::cache::TraceCache`],
/// tomorrow worker pools and batch scheduling.
#[derive(Clone, Debug, Default)]
pub struct Engine {
    trace_cache: Option<Arc<crate::cache::TraceCache>>,
}

impl Engine {
    /// A new engine handle with no shared caches.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Attaches a shared Trace-stage cache: jobs whose
    /// `(source, input ranges, extended terms, trace config)` tuple has
    /// been seen before reuse the collected training data instead of
    /// re-running the interpreter. Trace collection is deterministic,
    /// so cached runs stay bit-identical to cold runs.
    pub fn with_trace_cache(mut self, cache: Arc<crate::cache::TraceCache>) -> Engine {
        self.trace_cache = Some(cache);
        self
    }

    /// The shared trace cache, if one was attached.
    pub(crate) fn trace_cache(&self) -> Option<&Arc<crate::cache::TraceCache>> {
        self.trace_cache.as_ref()
    }

    /// Runs a job to completion (or to its first stop condition),
    /// discarding streamed events (they remain available on the
    /// returned outcome).
    pub fn run(&self, job: &Job) -> InferenceOutcome {
        self.run_with_events(job, &mut |_| {})
    }

    /// Runs a job, streaming each [`Event`] to `sink` as it is emitted.
    ///
    /// This is a thin driver over the stage-task machine
    /// ([`crate::staged::StagedJob`]): each batch of ready tasks fans
    /// out across rayon workers and the results are fed back in. The
    /// scheduled path (`gcln-sched`) drives the *same* machine, which is
    /// what makes its per-job outcomes and event streams bit-identical
    /// to this solo path at any worker count.
    pub fn run_with_events(&self, job: &Job, sink: &mut dyn FnMut(&Event)) -> InferenceOutcome {
        let mut staged = crate::staged::StagedJob::new(self, job);
        loop {
            let step = staged.advance();
            for event in staged.take_events() {
                sink(&event);
            }
            match step {
                crate::staged::Step::Run(tasks) => {
                    // Each task runs under `catch_unwind`: a panicking
                    // stage must fail *this job* with a structured
                    // `task_panicked` outcome, not unwind through the
                    // rayon pool and poison unrelated callers.
                    let done: Vec<_> = tasks
                        .into_par_iter()
                        .map(|t| {
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.execute()))
                        })
                        .collect();
                    let mut panicked = false;
                    for d in done {
                        match d {
                            Ok(c) => staged.complete(c),
                            Err(_) => panicked = true,
                        }
                    }
                    if panicked {
                        let outcome = staged.abort(StopReason::TaskPanicked);
                        for event in staged.take_events() {
                            sink(&event);
                        }
                        return *outcome;
                    }
                }
                crate::staged::Step::Done(outcome) => return *outcome,
            }
        }
    }
}

/// Everything the Trace stage produces, in one bundle (the unit the
/// trace cache stores and the Trace task returns).
pub(crate) struct TraceCollection {
    /// Per-loop training points over the extended variable space.
    pub(crate) points: Vec<Vec<Vec<f64>>>,
    /// Per-loop validation points over the widened input range.
    pub(crate) validation_points: Vec<Vec<Vec<f64>>>,
    /// Widened input tuples for the checker.
    pub(crate) widened: Vec<Vec<i128>>,
    /// Stop condition observed between the two collection passes, if
    /// any (the validation set is partial in that case).
    pub(crate) stopped: Option<StopReason>,
}

/// The Trace stage: training points, widened check tuples, and
/// widened-range validation points. Polls cancel/deadline between the
/// two collection passes (budget cannot newly trip here: no steps are
/// charged before training). Only complete traces are cached — a stop
/// that fires between the passes leaves the validation set partial, and
/// caching it would poison every later job with the same key.
pub(crate) fn collect_trace(
    problem: &Problem,
    config: &PipelineConfig,
    cache: Option<&crate::cache::TraceCache>,
    cancel: &CancelToken,
    deadline_at: Option<Instant>,
) -> TraceCollection {
    let num_loops = problem.program.num_loops;
    let cache_tag = cache.map(|c| (c, crate::cache::TraceCache::tag(problem, config)));
    if let Some(data) = cache_tag.as_ref().and_then(|(c, t)| c.lookup(t)) {
        return TraceCollection {
            points: data.points.clone(),
            validation_points: data.validation_points.clone(),
            widened: data.widened.clone(),
            stopped: None,
        };
    }
    let points: Vec<Vec<Vec<f64>>> = (0..num_loops)
        .map(|l| {
            let pts = collect_loop_states(problem, l, config.max_inputs, config.trace_seeds);
            evenly_subsample(pts, config.max_samples_per_loop)
        })
        .collect();
    let widened = widened_input_tuples(problem, config);
    let stopped = if cancel.is_cancelled() {
        Some(StopReason::Cancelled)
    } else if deadline_at.is_some_and(|at| Instant::now() >= at) {
        Some(StopReason::DeadlineExceeded)
    } else {
        None
    };
    let mut validation_points: Vec<Vec<Vec<f64>>> = vec![Vec::new(); num_loops];
    if stopped.is_none() {
        // Loop-head states over the widened input range: every learned
        // conjunct must fit these before it reaches the checker, which
        // kills bounds overfitted to the training range (our substitute
        // for Z3's unbounded refutation).
        let widened_problem = widen_ranges(problem, config);
        validation_points = (0..num_loops)
            .map(|l| {
                let pts =
                    collect_loop_states(&widened_problem, l, config.max_inputs, config.trace_seeds);
                evenly_subsample(pts, config.max_samples_per_loop * 2)
            })
            .collect();
        if let Some((c, t)) = cache_tag {
            c.insert(
                t,
                crate::cache::TraceData {
                    points: points.clone(),
                    validation_points: validation_points.clone(),
                    widened: widened.clone(),
                },
            );
        }
    }
    TraceCollection { points, validation_points, widened, stopped }
}

/// Absorption: `A ∧ (A ∨ B) ≡ A` — drops disjunctive conjuncts that
/// contain another conjunct as a disjunct (they carry no information and
/// clutter the output).
pub(crate) fn absorb(formula: &Formula) -> Formula {
    let conjuncts: Vec<Formula> = formula.conjuncts().into_iter().cloned().collect();
    let kept: Vec<Formula> = conjuncts
        .iter()
        .filter(|c| match c {
            Formula::Or(parts) => !parts.iter().any(|p| conjuncts.contains(p)),
            _ => true,
        })
        .cloned()
        .collect();
    Formula::and(kept).simplify()
}

/// Fractional-sampling equality learning: train on relaxed samples over
/// `V ∪ V0`, pin `V0` to the true initial values, validate on the integer
/// data, and return the surviving equality atoms (over the extended
/// space).
pub(crate) fn learn_fractional(
    problem: &Problem,
    loop_id: usize,
    ext_names: &[String],
    integer_points: &[Vec<f64>],
    config: &PipelineConfig,
    frac_cfg: &FractionalConfig,
) -> Option<Vec<gcln_logic::Atom>> {
    let data = fractional_points(problem, loop_id, frac_cfg)?;
    let space = TermSpace::enumerate(data.names.clone(), problem.max_degree);
    let keep = growth_filter(&space, &data.points, config.magnitude_cap);
    let space = space.select(&keep);
    let ds = Dataset::from_points(data.points.clone(), &space, config.normalize);
    if ds.is_empty() {
        return None;
    }
    let gcln_cfg = GclnConfig {
        dropout_rate: if config.enable_dropout { 0.2 } else { 0.0 },
        weight_reg: config.enable_weight_reg,
        seed: config.seed.wrapping_add(0xF4AC ^ loop_id as u64),
        ..config.gcln.clone()
    };
    let model = train_equality_gcln(&ds.columns(), &gcln_cfg);
    let relaxed = extract_formula(&model, &space, &data.points, &config.extract);

    // Pin V0: substitution mapping [V..., V0...] into the extended space.
    let ext_arity = ext_names.len();
    let k = data.var_indices.len();
    let mut subs: Vec<Poly> = Vec::with_capacity(2 * k);
    for &v in &data.var_indices {
        subs.push(Poly::var(v, ext_arity));
    }
    for &init in &data.init_values {
        let c = Rat::approximate(init, 1 << 20)?;
        subs.push(Poly::constant(c, ext_arity));
    }
    let pinned = relaxed.subst(&subs).simplify();
    let fit = FitPoints::new(integer_points);
    let mut out = Vec::new();
    for atom in pinned.atoms() {
        if atom.pred == Pred::Eq
            && !atom.poly.is_zero()
            && fit.fits(&atom.poly, Pred::Eq, config.extract.fit_tol)
        {
            let mut a = atom.clone();
            a.poly = a.poly.normalize_content();
            out.push(a);
        }
    }
    (!out.is_empty()).then_some(out)
}

/// Keeps at most `max` points, evenly spaced across the collection order
/// (so the cap does not bias the data toward small inputs).
fn evenly_subsample<T>(items: Vec<T>, max: usize) -> Vec<T> {
    let n = items.len();
    if n <= max || max == 0 {
        return items;
    }
    let mut out = Vec::with_capacity(max);
    let mut next_pick = 0usize;
    for (i, item) in items.into_iter().enumerate() {
        if i * max >= next_pick * n {
            out.push(item);
            next_pick += 1;
        }
    }
    out
}

/// Removes conjuncts falsified by any training point (used after CEGIS
/// adds counterexample states). Returns the surviving formula and the
/// dropped atoms.
pub(crate) fn prune_falsified_conjuncts(
    formula: &Formula,
    points: &[Vec<f64>],
) -> (Formula, Vec<gcln_logic::Atom>) {
    let mut kept = Vec::new();
    let mut dropped = Vec::new();
    for c in formula.conjuncts() {
        if points.iter().all(|p| c.eval_f64(p, 1e-6)) {
            kept.push(c.clone());
        } else if let Formula::Atom(a) = c {
            dropped.push(a.clone());
        }
    }
    (Formula::and(kept).simplify(), dropped)
}

/// The constant-free, content-normalized direction of a bound polynomial
/// (what gets banned when a bound is refuted — any bias of the same
/// direction would fail again eventually).
pub(crate) fn bound_direction(poly: &Poly) -> Poly {
    let arity = poly.arity();
    let constant = poly.coeff(&gcln_numeric::Monomial::one(arity));
    let shifted = poly - &Poly::constant(constant, arity);
    shifted.normalize_content()
}

/// The problem with the upper end of every input range widened by
/// `widen_factor` (shared by validation-point collection and checker
/// tuple sampling — the two must never diverge).
fn widen_ranges(problem: &Problem, config: &PipelineConfig) -> Problem {
    let mut widened = problem.clone();
    for (lo, hi) in &mut widened.input_ranges {
        let span = (*hi - *lo).max(1);
        *hi += span * (config.widen_factor - 1).max(0);
    }
    widened
}

/// Input tuples for checking: the training ranges widened by
/// `widen_factor` so range-overfitted bounds get refuted.
fn widened_input_tuples(problem: &Problem, config: &PipelineConfig) -> Vec<Vec<i128>> {
    gcln_problems::sample_inputs(&widen_ranges(problem, config), config.max_inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Stage;
    use gcln_checker::{equalities_imply, equality_polys};
    use gcln_numeric::groebner::GroebnerLimits;
    use gcln_problems::nla::nla_problem;

    fn quick_job(name: &str) -> Job {
        let spec = ProblemSpec::from_registry(name).unwrap();
        Job::new(spec).with_config(PipelineConfig {
            gcln: GclnConfig { max_epochs: 1000, ..GclnConfig::default() },
            max_inputs: 60,
            max_attempts: 2,
            cegis_rounds: 1,
            ..PipelineConfig::default()
        })
    }

    /// A registry problem at the default attempt count, with smaller
    /// training and sampling budgets than the defaults.
    fn solve(name: &str) -> InferenceOutcome {
        let spec = ProblemSpec::from_registry(name).unwrap();
        Engine::new().run(&Job::new(spec).with_config(PipelineConfig {
            gcln: GclnConfig { max_epochs: 1200, ..GclnConfig::default() },
            max_inputs: 60,
            cegis_rounds: 1,
            ..PipelineConfig::default()
        }))
    }

    #[test]
    fn widened_tuples_exceed_training_range() {
        let problem = nla_problem("cohencu").unwrap(); // range 0..12
        let tuples = widened_input_tuples(&problem, &PipelineConfig::default());
        let max_a = tuples.iter().map(|t| t[0]).max().unwrap();
        assert!(max_a > 12, "widened max {max_a}");
    }

    #[test]
    fn prune_drops_falsified_conjuncts() {
        let names: Vec<String> = ["x"].iter().map(|s| s.to_string()).collect();
        let f = gcln_logic::parse_formula("x >= 0 && x <= 5", &names).unwrap();
        let (pruned, dropped) = prune_falsified_conjuncts(&f, &[vec![7.0]]);
        assert_eq!(dropped.len(), 1);
        let text = pruned.display(&names).to_string();
        assert!(text.contains(">= 0") && !text.contains("5"), "pruned: {text}");
    }

    #[test]
    fn cancelled_job_returns_partial_outcome_with_events() {
        let job = quick_job("ps2");
        job.cancel_token().cancel();
        let outcome = Engine::new().run(&job);
        assert_eq!(outcome.stopped, Some(StopReason::Cancelled));
        assert!(!outcome.valid, "a cancelled job must not claim validity");
        // An already-cancelled job pays for nothing: not even trace
        // collection runs.
        assert!(!outcome
            .events
            .iter()
            .any(|e| matches!(e, Event::StageStarted { stage: Stage::Trace, .. })));
        assert!(outcome
            .events
            .iter()
            .any(|e| matches!(e, Event::JobStopped { reason: StopReason::Cancelled })));
        assert!(outcome
            .events
            .iter()
            .any(|e| matches!(e, Event::JobFinished { valid: false, .. })));
        // No training ran: loop 0's placeholder invariant is untouched.
        assert_eq!(outcome.loops[0].attempts, 0);
    }

    #[test]
    fn cancellation_mid_run_stops_between_stages() {
        let job = quick_job("ps2");
        let token = job.cancel_token();
        // Cancel as soon as the first Train stage completes: the job
        // must still finish Extract (partial invariants are useful) but
        // never reach the checker.
        let outcome = Engine::new().run_with_events(&job, &mut |e| {
            if matches!(e, Event::StageFinished { stage: Stage::Train, .. }) {
                token.cancel();
            }
        });
        assert_eq!(outcome.stopped, Some(StopReason::Cancelled));
        assert!(outcome
            .events
            .iter()
            .any(|e| matches!(e, Event::StageFinished { stage: Stage::Extract, .. })));
        assert!(!outcome
            .events
            .iter()
            .any(|e| matches!(e, Event::StageStarted { stage: Stage::Check, .. })));
        // Training completed before the cancel, so the partial outcome
        // carries a learned (if unchecked) invariant.
        assert!(outcome.loops[0].attempts > 0);
    }

    #[test]
    fn zero_deadline_stops_before_training() {
        let job = quick_job("ps2").with_deadline(Duration::ZERO);
        let outcome = Engine::new().run(&job);
        assert_eq!(outcome.stopped, Some(StopReason::DeadlineExceeded));
        assert!(!outcome
            .events
            .iter()
            .any(|e| matches!(e, Event::StageStarted { stage: Stage::Train, .. })));
    }

    #[test]
    fn step_budget_grants_partial_attempts_deterministically() {
        // Budget 1: one of the two training attempts runs, then the job
        // stops at the checker boundary with a partial outcome.
        let job = quick_job("ps2").with_step_budget(1);
        let outcome = Engine::new().run(&job);
        assert_eq!(outcome.stopped, Some(StopReason::BudgetExhausted));
        let ran: Vec<bool> = outcome
            .events
            .iter()
            .filter_map(|e| match e {
                Event::AttemptResult { skipped, .. } => Some(!*skipped),
                _ => None,
            })
            .collect();
        assert_eq!(
            ran,
            vec![true, false],
            "attempt 0 runs, attempt 1 is reported as budget-skipped"
        );
        assert_eq!(outcome.loops[0].attempts, 1, "attempts reports the consumed count");
        assert!(!outcome.events.iter().any(|e| matches!(e, Event::Counterexample { .. })));
    }

    #[test]
    fn trace_cache_hit_is_bit_identical_to_cold_run() {
        let cache = Arc::new(crate::cache::TraceCache::new());
        let engine = Engine::new().with_trace_cache(cache.clone());
        let cold = engine.run(&quick_job("ps2"));
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().entries, 1);
        let warm = engine.run(&quick_job("ps2"));
        assert!(cache.stats().hits >= 1, "second run must hit: {:?}", cache.stats());
        // Identical invariants and identical event streams modulo
        // wall-clock timings (the only nondeterministic field).
        assert_eq!(cold.valid, warm.valid);
        for (a, b) in cold.loops.iter().zip(&warm.loops) {
            assert_eq!(a.formula, b.formula);
            assert_eq!(a.attempts, b.attempts);
        }
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
        assert_eq!(strip_ms(&cold.events), strip_ms(&warm.events));
        // An uncached engine produces the same result as both.
        let plain = Engine::new().run(&quick_job("ps2"));
        assert_eq!(strip_ms(&plain.events), strip_ms(&warm.events));
    }

    #[test]
    fn stopped_trace_stage_is_not_cached() {
        let cache = Arc::new(crate::cache::TraceCache::new());
        let engine = Engine::new().with_trace_cache(cache.clone());
        // Cancel as soon as trace collection starts: the partial trace
        // must not be inserted.
        let job = quick_job("ps2");
        let token = job.cancel_token();
        let _ = engine.run_with_events(&job, &mut |e| {
            if matches!(e, Event::StageStarted { stage: Stage::Trace, .. }) {
                token.cancel();
            }
        });
        assert_eq!(cache.stats().entries, 0, "partial traces must not be cached");
    }

    #[test]
    fn unlimited_job_completes_and_reports_stages() {
        let outcome = Engine::new().run(&quick_job("ps2"));
        assert_eq!(outcome.stopped, None);
        assert!(outcome.valid);
        for stage in [Stage::Trace, Stage::Train, Stage::Extract, Stage::Check] {
            assert!(
                outcome
                    .events
                    .iter()
                    .any(|e| matches!(e, Event::StageFinished { stage: s, .. } if *s == stage)),
                "missing stage {stage}"
            );
        }
        assert!(outcome
            .events
            .iter()
            .any(|e| matches!(e, Event::InvariantLearned { loop_id: 0, .. })));
        // Events must serialize to single JSON lines.
        for e in &outcome.events {
            assert!(!e.to_json().contains('\n'));
        }
    }

    #[test]
    fn infers_ps2_invariant() {
        let outcome = solve("ps2");
        assert!(outcome.valid, "checker rejected: {:?}", outcome.report.counterexamples.first());
        // The learned equalities must imply 2x == y^2 + y.
        let names = nla_problem("ps2").unwrap().extended_names();
        let formula = outcome.formula_for(0).unwrap();
        let gt = gcln_logic::parse_formula("2 * x == y^2 + y", &names).unwrap();
        assert_eq!(
            equalities_imply(formula, &equality_polys(&gt), GroebnerLimits::default()),
            Some(true),
            "learned {} does not imply ground truth",
            formula.display(&names)
        );
        // A job without limits must not stop early.
        assert_eq!(outcome.stopped, None);
        assert!(!outcome.events.is_empty(), "engine events must be recorded");
    }

    #[test]
    fn infers_sqrt1_tight_bound() {
        let outcome = solve("sqrt1");
        assert!(outcome.valid, "checker rejected: {:?}", outcome.report.counterexamples.first());
        let names = nla_problem("sqrt1").unwrap().extended_names();
        let formula = outcome.formula_for(0).unwrap();
        let text = formula.display(&names).to_string();
        // Equalities t = 2a+1, s = (a+1)^2 implied; bound n >= a^2 present.
        let gt_eq =
            gcln_logic::parse_formula("t == 2 * a + 1 && s == a^2 + 2 * a + 1", &names).unwrap();
        assert_eq!(
            equalities_imply(formula, &equality_polys(&gt_eq), GroebnerLimits::default()),
            Some(true),
            "equalities missing from {text}"
        );
        let target = gcln_logic::parse_poly("n - a^2", &names).unwrap().normalize_content();
        let has_bound = formula
            .atoms()
            .iter()
            .any(|a| a.pred == Pred::Ge && a.poly.normalize_content() == target);
        assert!(has_bound, "tight bound n - a^2 >= 0 missing from {text}");
    }

    #[test]
    fn infers_linear_problem() {
        let outcome = solve("lin-rel-03");
        assert!(outcome.valid, "checker rejected: {:?}", outcome.report.counterexamples.first());
        let names = gcln_problems::find_problem("lin-rel-03").unwrap().extended_names();
        let gt = gcln_logic::parse_formula("y == 2 * x", &names).unwrap();
        let formula = outcome.formula_for(0).unwrap();
        assert_eq!(
            equalities_imply(formula, &equality_polys(&gt), GroebnerLimits::default()),
            Some(true),
            "learned {}",
            formula.display(&names)
        );
    }

    /// The parallel attempt fan-out must not perturb results: seeds are
    /// split per attempt and merges happen in attempt order, so two runs
    /// (at any `RAYON_NUM_THREADS`) produce identical formulas.
    #[test]
    fn parallel_attempts_are_deterministic() {
        let problem = nla_problem("ps2").unwrap();
        let job = Job::new(problem.clone()).with_config(PipelineConfig {
            gcln: GclnConfig { max_epochs: 800, ..GclnConfig::default() },
            max_inputs: 40,
            cegis_rounds: 1,
            ..PipelineConfig::default()
        });
        let names = problem.extended_names();
        // One serial run, one run at the ambient (usually parallel)
        // width: the comparison fails if results ever depend on the
        // worker count. The vendored rayon shim reads the env var per
        // fan-out, so the override takes effect immediately.
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let a = Engine::new().run(&job);
        std::env::remove_var("RAYON_NUM_THREADS");
        let b = Engine::new().run(&job);
        assert_eq!(
            a.formula_for(0).unwrap().display(&names).to_string(),
            b.formula_for(0).unwrap().display(&names).to_string(),
            "serial and parallel runs of the same master seed must give identical invariants"
        );
    }
}
