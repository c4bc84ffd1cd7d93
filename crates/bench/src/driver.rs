//! The shared suite driver: every multi-problem experiment (Table 2,
//! the linear/Code2Inv suite, ad-hoc `gcln suite` runs) goes through
//! [`run_suite`], which owns the scheduler fan-out, completion-order
//! progress reporting, solved-criterion tallying, and JSON output —
//! logic that used to be copy-pasted across the per-table binaries.
//!
//! Problems run through the `gcln-sched` stage-graph scheduler (one
//! shared worker pool, stage-task granularity) rather than a
//! rayon-per-problem fan-out: a worker finishing one problem's short
//! check immediately helps another's training attempts, which is where
//! the mixed-workload wall-clock win comes from (see EXPERIMENTS.md).
//!
//! Solve *results* are worker-count independent — the scheduler drives
//! the same deterministic stage machine as a solo `Engine::run`; all
//! timing figures vary with contention across workers.

use crate::{secs, solve_status, SolveFailure};
use gcln_engine::events::json_string;
use gcln_engine::{InferenceOutcome, Job, PipelineConfig, ProblemSpec};
use gcln_problems::Problem;
use gcln_sched::{JobStats, SchedConfig, Scheduler, SubmitOptions};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One problem's outcome under the Table 2 "solved" criterion.
#[derive(Clone, Debug)]
pub struct ProblemRow {
    /// Problem name.
    pub name: String,
    /// Whether the solved criterion held (checker valid + ground truth
    /// implied).
    pub solved: bool,
    /// Whether the checker accepted the final candidates.
    pub valid: bool,
    /// Why the solved criterion failed, if it did.
    pub failure: Option<SolveFailure>,
    /// Per-problem wall-clock seconds (contended).
    pub seconds: f64,
    /// CEGIS rounds consumed.
    pub cegis_rounds: usize,
    /// Paper-reported degree (NLA only; 0 otherwise).
    pub table_degree: u32,
    /// Paper-reported variable count (NLA only; 0 otherwise).
    pub table_vars: usize,
}

impl ProblemRow {
    /// A short diagnostic note for table output (empty when solved).
    pub fn note(&self) -> String {
        match &self.failure {
            None => String::new(),
            Some(e) => format!("{e:?}").chars().take(60).collect(),
        }
    }

    /// The row as one JSON object (the `--json` per-problem record).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"type":"problem","name":{},"solved":{},"valid":{},"seconds":{:.3},"cegis_rounds":{},"note":{}}}"#,
            json_string(&self.name),
            self.solved,
            self.valid,
            self.seconds,
            self.cegis_rounds,
            json_string(&self.note()),
        )
    }
}

/// Aggregate result of a suite run, rows in input (suite) order.
#[derive(Clone, Debug)]
pub struct SuiteSummary {
    /// Suite label used in output (`nla`, `linear`, …).
    pub suite: String,
    /// Per-problem rows in input order.
    pub rows: Vec<ProblemRow>,
    /// Problems meeting the solved criterion.
    pub solved: usize,
    /// Problems attempted.
    pub attempted: usize,
    /// Sum of per-problem times (contended).
    pub total_seconds: f64,
    /// Maximum per-problem time.
    pub max_seconds: f64,
    /// Wall-clock time for the whole fan-out.
    pub wall_seconds: f64,
    /// Scheduler worker-pool width the suite ran on.
    pub workers: usize,
}

impl SuiteSummary {
    /// The summary as one JSON object (the `--json` trailer record).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"type":"summary","suite":{},"solved":{},"attempted":{},"wall_seconds":{:.3},"avg_seconds":{:.3},"max_seconds":{:.3},"workers":{}}}"#,
            json_string(&self.suite),
            self.solved,
            self.attempted,
            self.wall_seconds,
            self.total_seconds / self.attempted.max(1) as f64,
            self.max_seconds,
            self.workers,
        )
    }

    /// Whether the run meets an `--expect N` threshold.
    pub fn meets(&self, expect: Option<usize>) -> bool {
        expect.is_none_or(|n| self.solved >= n)
    }
}

/// Runs every problem through the stage-graph scheduler on a pool of
/// `workers` (default: [`rayon::current_num_threads`]) and applies the
/// solved criterion. Progress lines stream to stderr in completion
/// order (so long runs are watchable); the returned rows are in input
/// order, so tabular output stays deterministic.
pub fn run_suite(suite: &str, problems: &[Problem], config: &PipelineConfig) -> SuiteSummary {
    run_suite_with(suite, problems, config, None)
}

/// [`run_suite`] with an explicit scheduler worker count.
pub fn run_suite_with(
    suite: &str,
    problems: &[Problem],
    config: &PipelineConfig,
    workers: Option<usize>,
) -> SuiteSummary {
    let wall = Instant::now();
    let workers = workers.unwrap_or_else(rayon::current_num_threads).max(1);
    let sched = Scheduler::new(SchedConfig::with_workers(workers));
    // Rows land in submission slots from completion-order done hooks;
    // reading them back by index restores input order.
    let slots: Arc<Mutex<Vec<Option<ProblemRow>>>> =
        Arc::new(Mutex::new(problems.iter().map(|_| None).collect()));
    let tickets: Vec<_> = problems
        .iter()
        .enumerate()
        .map(|(i, problem)| {
            let job = Job::new(ProblemSpec::from(problem.clone())).with_config(config.clone());
            let problem = problem.clone();
            let slots = slots.clone();
            sched.submit_with(
                job,
                SubmitOptions::default(),
                None,
                Some(Box::new(move |outcome: &InferenceOutcome, stats: &JobStats| {
                    let failure = solve_status(&problem, outcome).err();
                    // `stats.busy` is the problem's exclusive task time
                    // on the pool — unlike `outcome.runtime`, it does
                    // not count other jobs' interleaved tasks, so the
                    // per-problem figure stays comparable at any worker
                    // count (CPU contention aside).
                    let row = ProblemRow {
                        name: problem.name.clone(),
                        solved: failure.is_none(),
                        valid: outcome.valid,
                        failure,
                        seconds: stats.busy.as_secs_f64(),
                        cegis_rounds: outcome.cegis_rounds_used,
                        table_degree: problem.table_degree,
                        table_vars: problem.table_vars,
                    };
                    eprintln!(
                        "[done] {:<14} {:>8} {:>9}s",
                        row.name,
                        if row.solved { "solved" } else { "FAILED" },
                        secs(stats.busy),
                    );
                    slots.lock().unwrap()[i] = Some(row);
                })),
            )
        })
        .collect();
    for ticket in &tickets {
        ticket.wait();
    }
    sched.shutdown();
    let rows: Vec<ProblemRow> = slots
        .lock()
        .unwrap()
        .iter_mut()
        .map(|slot| slot.take().expect("every job ran its done hook"))
        .collect();
    let solved = rows.iter().filter(|r| r.solved).count();
    let total_seconds: f64 = rows.iter().map(|r| r.seconds).sum();
    let max_seconds = rows.iter().map(|r| r.seconds).fold(0.0, f64::max);
    SuiteSummary {
        suite: suite.to_string(),
        solved,
        attempted: rows.len(),
        rows,
        total_seconds,
        max_seconds,
        wall_seconds: wall.elapsed().as_secs_f64(),
        workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, solved: bool) -> ProblemRow {
        ProblemRow {
            name: name.into(),
            solved,
            valid: solved,
            failure: (!solved).then_some(SolveFailure::InvalidInvariant),
            seconds: 1.5,
            cegis_rounds: 0,
            table_degree: 2,
            table_vars: 3,
        }
    }

    fn summary(solved: usize, attempted: usize) -> SuiteSummary {
        SuiteSummary {
            suite: "nla".into(),
            rows: (0..attempted).map(|i| row(&format!("p{i}"), i < solved)).collect(),
            solved,
            attempted,
            total_seconds: 3.0,
            max_seconds: 2.0,
            wall_seconds: 2.5,
            workers: 4,
        }
    }

    #[test]
    fn json_records_are_single_objects() {
        let s = summary(1, 2);
        for r in &s.rows {
            let j = r.to_json();
            assert!(j.starts_with(r#"{"type":"problem""#), "{j}");
            assert!(!j.contains('\n'));
        }
        let j = s.to_json();
        assert!(j.starts_with(r#"{"type":"summary""#), "{j}");
        assert!(j.contains(r#""solved":1"#) && j.contains(r#""attempted":2"#), "{j}");
    }

    #[test]
    fn expect_threshold() {
        let s = summary(3, 5);
        assert!(s.meets(None));
        assert!(s.meets(Some(3)));
        assert!(!s.meets(Some(4)));
    }

    #[test]
    fn failure_note_is_truncated() {
        let mut r = row("x", false);
        r.failure = Some(SolveFailure::MissingEquality("e".repeat(200)));
        assert!(r.note().len() <= 60);
    }
}
