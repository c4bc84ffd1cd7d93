//! The closed-loop solo workloads, `nla_heavy` and `linear_suite`: a
//! fixed problem set at the `gcln suite --fast` configuration, one job
//! at a time. The untraced pass goes through the scheduler the suite
//! command uses (one worker); the traced pass drives
//! [`StagedJob::advance`] itself and times every [`Task::execute`] by
//! its kind.

use crate::report::Report;
use crate::schedule::Rng;
use crate::stats::{geomean, histogram_quantile, max, median, percentile};
use gcln_bench::solve_status;
use gcln_engine::{Engine, Event, GclnConfig, InferenceOutcome, Job, PipelineConfig, ProblemSpec};
use gcln_engine::{StagedJob, Step, Task, TaskKind};
use gcln_logic::{Formula, Pred};
use gcln_problems::Problem;
use gcln_sched::metrics::{MetricsSnapshot, BUCKET_BOUNDS};
use gcln_sched::{JobStats, SchedConfig, Scheduler, SubmitOptions};
use std::sync::mpsc;
use std::time::Instant;

/// The NLA problems of `nla_heavy`: the bounds learner and fractional
/// sampling do most of their work (egcd3 alone would take ~21 s).
const NLA_HEAVY: [&str; 8] = ["egcd", "egcd2", "lcm1", "lcm2", "cohendiv", "hard", "ps5", "ps6"];

/// Set-ups measured per run, at least: spread over the pass, a few after
/// each job, so that their median sees the machine in the states the jobs
/// saw rather than in the one state of a burst at the start.
const SETUP_SAMPLES: usize = 32;

/// Seconds a traced solo run aims to end within (a run may take 180).
/// Each job is also run through the scheduler for comparison only while
/// the traced pass, at its pace so far, still ends inside it; a build
/// several times slower then drops comparisons instead of overrunning.
const TRACED_BUDGET_S: f64 = 150.0;

/// The problem set of a solo workload, or `None` for another name.
fn problems(workload: &str) -> Option<Vec<Problem>> {
    match workload {
        "nla_heavy" => Some(
            gcln_problems::suite_by_name("nla")?
                .into_iter()
                .filter(|p| NLA_HEAVY.contains(&p.name.as_str()))
                .collect(),
        ),
        "linear_suite" => gcln_problems::suite_by_name("linear"),
        _ => None,
    }
}

/// The configuration `gcln suite --fast` runs.
fn suite_config() -> PipelineConfig {
    PipelineConfig {
        gcln: GclnConfig { max_epochs: 1200, ..GclnConfig::default() },
        max_attempts: 2,
        ..PipelineConfig::default()
    }
}

/// What one job produced, from either driver.
#[derive(Clone, Debug)]
struct JobResult {
    /// Problem name.
    name: String,
    /// Untraced: the scheduler's busy time for the job. Traced: the
    /// job's wall time under the harness driver.
    busy_s: f64,
    /// Stage tasks executed.
    tasks: u64,
    /// Table 2 solved criterion.
    solved: bool,
    /// Learned invariants, rendered, one per loop.
    formulas: Vec<String>,
    /// The exactly repeatable counts of the job.
    counts: Counts,
}

/// Counts that are a deterministic function of the problem and config.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Training attempts run (not skipped).
    pub attempts: u64,
    /// Attempts whose extracted formula had at least one conjunct.
    pub productive: u64,
    /// The final check's bounded checks.
    pub bounded_checks: u64,
    /// The final check's symbolically proved conjuncts.
    pub symbolic_proofs: u64,
    /// The final check's mutation warnings.
    pub warnings: u64,
    /// Equality conjuncts in the result.
    pub eq_conjuncts: u64,
    /// Inequality conjuncts in the result.
    pub bound_conjuncts: u64,
    /// CEGIS rounds used.
    pub cegis_rounds: u64,
}

impl Counts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counts) {
        self.attempts += other.attempts;
        self.productive += other.productive;
        self.bounded_checks += other.bounded_checks;
        self.symbolic_proofs += other.symbolic_proofs;
        self.warnings += other.warnings;
        self.eq_conjuncts += other.eq_conjuncts;
        self.bound_conjuncts += other.bound_conjuncts;
        self.cegis_rounds += other.cegis_rounds;
    }

    /// The counts an outcome reports.
    pub fn of(outcome: &InferenceOutcome) -> Counts {
        let mut c = Counts {
            bounded_checks: outcome.report.bounded_checks as u64,
            symbolic_proofs: outcome.report.symbolically_proved as u64,
            warnings: outcome.report.warnings.len() as u64,
            cegis_rounds: outcome.cegis_rounds_used as u64,
            ..Counts::default()
        };
        for event in &outcome.events {
            if let Event::AttemptResult { conjuncts, skipped: false, .. } = event {
                c.attempts += 1;
                c.productive += u64::from(*conjuncts > 0);
            }
        }
        for conjunct in outcome.loops.iter().flat_map(|l| l.formula.conjuncts()) {
            match conjunct {
                Formula::Atom(a) if a.pred == Pred::Eq => c.eq_conjuncts += 1,
                _ => c.bound_conjuncts += 1,
            }
        }
        c
    }
}

fn job_result(problem: &Problem, outcome: &InferenceOutcome, busy_s: f64, tasks: u64) -> JobResult {
    let names = problem.extended_names();
    JobResult {
        name: problem.name.clone(),
        busy_s,
        tasks,
        solved: solve_status(problem, outcome).is_ok(),
        formulas: outcome.loops.iter().map(|l| l.formula.display(&names).to_string()).collect(),
        counts: Counts::of(outcome),
    }
}

/// Per-kind task time and count from the harness driver.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindTrace {
    /// Seconds spent in `Task::execute`, per [`TaskKind::ALL`] index.
    pub busy_s: [f64; 8],
    /// Tasks executed, per [`TaskKind::ALL`] index.
    pub tasks: [u64; 8],
}

fn kind_index(kind: TaskKind) -> usize {
    TaskKind::ALL.iter().position(|&k| k == kind).expect("every kind is in ALL")
}

/// Runs one job through the staged machine on this thread, timing each
/// task by kind into `trace`.
fn run_traced(engine: &Engine, problem: &Problem, job: &Job, trace: &mut KindTrace) -> JobResult {
    let start = Instant::now();
    let mut staged = StagedJob::new(engine, job);
    let mut tasks = 0;
    let outcome = loop {
        match staged.advance() {
            Step::Run(batch) => {
                for task in batch {
                    let i = kind_index(task.kind());
                    let t0 = Instant::now();
                    let done = Task::execute(task);
                    trace.busy_s[i] += t0.elapsed().as_secs_f64();
                    trace.tasks[i] += 1;
                    tasks += 1;
                    staged.complete(done);
                }
            }
            Step::Done(outcome) => break *outcome,
        }
    };
    job_result(problem, &outcome, start.elapsed().as_secs_f64(), tasks)
}

/// Runs one job through the scheduler and waits for it.
fn run_scheduled(sched: &Scheduler, problem: &Problem, job: Job) -> JobResult {
    let (tx, rx) = mpsc::channel::<JobStats>();
    let ticket = sched.submit_with(
        job,
        SubmitOptions::default(),
        None,
        Some(Box::new(move |_: &InferenceOutcome, stats: &JobStats| {
            let _ = tx.send(*stats);
        })),
    );
    let outcome = ticket.wait();
    let stats = rx.recv().expect("the done hook reports the job's stats");
    job_result(problem, &outcome, stats.busy.as_secs_f64(), stats.tasks)
}

/// A prepared solo workload: jobs in seed order and a one-worker
/// scheduler.
struct Prepared {
    jobs: Vec<(Problem, Job)>,
    sched: Scheduler,
}

fn prepare(workload: &str, seed: u64) -> Prepared {
    let mut problems = problems(workload).expect("a solo workload");
    let mut rng = Rng::new(seed);
    for i in (1..problems.len()).rev() {
        problems.swap(i, rng.below(i + 1));
    }
    let config = suite_config();
    let jobs = problems
        .into_iter()
        .map(|p| {
            let job = Job::new(ProblemSpec::from(p.clone())).with_config(config.clone());
            (p, job)
        })
        .collect();
    Prepared { jobs, sched: Scheduler::new(SchedConfig::with_workers(1)) }
}

/// Times one set-up of the workload; the scheduler it started stops
/// outside the timing.
fn time_setup(workload: &str, seed: u64) -> f64 {
    let t0 = Instant::now();
    let prepared = prepare(workload, seed);
    let elapsed = t0.elapsed().as_secs_f64();
    prepared.sched.shutdown();
    elapsed
}

/// Runs a solo workload. With `trace`, one traced pass; without, as many
/// untraced passes as fit in `seconds` (at least one).
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let Prepared { jobs, sched } = prepare(workload, seed);
    if trace {
        traced_pass(&jobs, &sched, report);
    } else {
        timed_passes(workload, seed, seconds, &jobs, &sched, report);
    }
    sched.shutdown();
}

fn timed_passes(
    workload: &str,
    seed: u64,
    seconds: f64,
    jobs: &[(Problem, Job)],
    sched: &Scheduler,
    report: &mut Report,
) {
    let setups_per_job = SETUP_SAMPLES.div_ceil(jobs.len());
    let mut setups = Vec::new();
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut results: Vec<JobResult> = Vec::new();
    loop {
        // A pass's wall time is the sum of its jobs' submit-to-result
        // times, so the set-up samples between jobs stay out of it.
        let mut wall = 0.0;
        for (problem, job) in jobs {
            let t0 = Instant::now();
            results.push(run_scheduled(sched, problem, job.clone()));
            wall += t0.elapsed().as_secs_f64();
            setups.extend((0..setups_per_job).map(|_| time_setup(workload, seed)));
        }
        walls.push(wall);
        let used = started.elapsed().as_secs_f64();
        if used + used / walls.len() as f64 > seconds {
            break;
        }
    }
    for r in &results {
        report.attempt(r.solved, || format!("{}: not solved (Table 2 criterion)", r.name));
    }

    let limit = limit_s(workload);
    let busy: Vec<f64> = results.iter().map(|r| r.busy_s).collect();
    report.metric("setup_s", median(&setups));
    report.metric("wall_s", median(&walls));
    // Eight jobs leave four beyond the median, too few for the rule of
    // `stats`; their geometric mean stands in, as the typical job over
    // all of them (the median of eight is the mean of two jobs' times,
    // and moves several times more from run to run than the pass does).
    let p50 = percentile(&busy, 0.5).unwrap_or_else(|why| {
        report.note(format!("{workload}: {why}; job_p50_s reports the jobs' geometric mean"));
        geomean(&busy)
    });
    report.metric("job_p50_s", p50);
    let p90 = percentile(&busy, 0.9).unwrap_or_else(|why| {
        report.note(format!("{workload}: {why}; job_p90_s reports the slowest job"));
        max(&busy)
    });
    report.metric("job_p90_s", p90);
    let within = results.iter().filter(|r| r.solved && r.busy_s <= limit).count();
    report.metric("within_limit_share", within as f64 / results.len() as f64);
    report.note(format!(
        "{workload}: setup_s median of {}, wall_s median of {} pass(es), job percentiles over {} jobs",
        setups.len(),
        walls.len(),
        results.len()
    ));
}

/// Per-job time limit of a solo workload's `within_limit_share`,
/// seconds: a few times its slowest job.
fn limit_s(workload: &str) -> f64 {
    if workload == "nla_heavy" {
        30.0
    } else {
        5.0
    }
}

/// One traced pass over the set. While [`TRACED_BUDGET_S`] allows, each
/// job also runs through the scheduler, and the two drivers must agree on it;
/// `trace.overhead_s` sums the traced minus the scheduled job wall over
/// those jobs, each pair run back to back on the same machine state. The
/// driver that goes first alternates, so the second run's warm caches
/// favour neither.
fn traced_pass(jobs: &[(Problem, Job)], sched: &Scheduler, report: &mut Report) {
    let engine = Engine::new();
    let mut trace = KindTrace::default();
    let mut counts = Counts::default();
    let mut job_walls = Vec::new();
    let mut overhead = 0.0;
    let mut compared = 0;
    let started = Instant::now();
    for (i, (problem, job)) in jobs.iter().enumerate() {
        // Seconds per run of one job so far; this job's comparison costs
        // one more run.
        let pace = if i == 0 { 0.0 } else { job_walls.iter().sum::<f64>() / i as f64 };
        let projected = started.elapsed().as_secs_f64() + pace * (jobs.len() - i + 1) as f64;
        let compare = projected < TRACED_BUDGET_S;
        let scheduled = || {
            let t0 = Instant::now();
            let plain = run_scheduled(sched, problem, job.clone());
            (plain, t0.elapsed().as_secs_f64())
        };
        let (plain, traced) = if compare && i % 2 == 0 {
            let plain = scheduled();
            (Some(plain), run_traced(&engine, problem, job, &mut trace))
        } else {
            let traced = run_traced(&engine, problem, job, &mut trace);
            (compare.then(scheduled), traced)
        };
        report
            .attempt(traced.solved, || format!("{}: not solved (Table 2 criterion)", traced.name));
        if let Some((plain, plain_wall)) = plain {
            // Both drivers run the same deterministic machine: any
            // difference is a bug, not noise.
            if traced.formulas != plain.formulas
                || traced.counts != plain.counts
                || traced.tasks != plain.tasks
            {
                report.error(format!(
                    "{}: traced and untraced drivers disagree ({} vs {} tasks, {:?} vs {:?})",
                    problem.name, traced.tasks, plain.tasks, traced.counts, plain.counts
                ));
            }
            overhead += traced.busy_s - plain_wall;
            compared += 1;
        }
        counts.add(&traced.counts);
        job_walls.push(traced.busy_s);
    }
    let traced_wall: f64 = job_walls.iter().sum();
    let task_s: f64 = trace.busy_s.iter().sum();
    for (i, kind) in TaskKind::ALL.iter().enumerate() {
        report.metric(&format!("{kind}.busy_s"), trace.busy_s[i]);
        report.metric(&format!("{kind}.tasks"), trace.tasks[i] as f64);
    }
    report.metric("driver.self_s", traced_wall - task_s);
    report.metric("trace.overhead_s", overhead);
    report.metric("engine.job_busy_p50_s", median(&job_walls));
    report.counts(&counts);
    report.repeatable(format!("{counts:?} tasks={:?}", trace.tasks));
    scheduler_metrics(&sched.metrics(), report);
    report.kind_table(&trace, traced_wall);
    report.note(format!("{:<12} {:>10.3}", "trace.overhead", overhead));
    report.note(format!("{compared} of {} jobs compared against the scheduler", jobs.len()));
}

/// The `sched.*` layer metrics of a scheduler snapshot.
pub fn scheduler_metrics(snapshot: &MetricsSnapshot, report: &mut Report) {
    for kind in TaskKind::ALL {
        let busy =
            snapshot.tasks.iter().find(|(k, _)| k == kind.as_str()).map_or(0.0, |(_, h)| h.sum);
        report.metric(&format!("sched.{kind}.busy_s"), busy);
    }
    let wait = &snapshot.queue_wait;
    report.metric(
        "sched.queue_wait_p50_s",
        histogram_quantile(&BUCKET_BOUNDS, &wait.cumulative(), wait.count, 0.5),
    );
    report.metric("sched.utilization", snapshot.utilization());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn untraced_and_traced(problem: &Problem) -> (JobResult, JobResult) {
        let job = Job::new(ProblemSpec::from(problem.clone())).with_config(suite_config());
        let sched = Scheduler::new(SchedConfig::with_workers(1));
        let plain = run_scheduled(&sched, problem, job.clone());
        sched.shutdown();
        let mut trace = KindTrace::default();
        let traced = run_traced(&Engine::new(), problem, &job, &mut trace);
        assert_eq!(trace.tasks.iter().sum::<u64>(), traced.tasks);
        assert!(trace.tasks[kind_index(TaskKind::Train)] > 0, "a job trains");
        (plain, traced)
    }

    /// The harness driver and the scheduler path solve the same
    /// problems with the same conjuncts, on ps2 and on a linear problem.
    #[test]
    fn traced_driver_matches_the_untraced_entry_point() {
        let ps2 = gcln_problems::find_problem("ps2").expect("ps2 is registered");
        let linear = problems("linear_suite").expect("linear suite")[0].clone();
        for problem in [ps2, linear] {
            let (plain, traced) = untraced_and_traced(&problem);
            assert!(plain.solved, "{} solved untraced", problem.name);
            assert_eq!(traced.solved, plain.solved);
            assert_eq!(traced.formulas, plain.formulas);
            assert_eq!(traced.counts, plain.counts);
            assert_eq!(traced.tasks, plain.tasks);
            let c = traced.counts;
            assert!(c.eq_conjuncts + c.bound_conjuncts > 0, "{} learns conjuncts", problem.name);
        }
    }

    #[test]
    fn workloads_have_their_problem_counts() {
        assert_eq!(problems("nla_heavy").map(|p| p.len()), Some(8));
        assert_eq!(problems("linear_suite").map(|p| p.len()), Some(124));
        assert!(problems("serve_open").is_none());
    }
}
