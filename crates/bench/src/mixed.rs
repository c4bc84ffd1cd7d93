//! The mixed-workload scheduling experiment: many small problems plus a
//! few large ones, stage-graph scheduling vs. job granularity.
//!
//! Two complementary measurements (both appear in the bench snapshot;
//! see EXPERIMENTS.md "Mixed-workload scheduling"):
//!
//! 1. **Measured wall clock** — the real batch through the real
//!    [`Scheduler`](gcln_sched::Scheduler), which always schedules at
//!    stage-task granularity. On a single-core CI container every
//!    CPU-bound schedule costs total work, so this row alone cannot
//!    show the utilization win.
//! 2. **Makespan replay** — each job is profiled once (solo, serial,
//!    uncontended) to get its true per-task durations and barrier
//!    structure, then a deterministic discrete-event replay of the
//!    scheduler's policy (greedy worker assignment, round-robin across
//!    jobs) computes the 4-worker makespan for stage-task vs whole-job
//!    granularity. The replay is exact arithmetic over measured
//!    durations — no load-dependent noise — and reproduces what the
//!    wall clock shows on a ≥ 4-core machine.
//!
//! The headline claim (stage graph ≥ 1.3× faster than job granularity
//! at 4 workers on 8 small + 2 large problems) is asserted by
//! `makespan_replay_shows_the_stage_graph_win` below, so CI gates it.

use gcln_engine::staged::{StagedJob, Step, Task};
use gcln_engine::{Engine, GclnConfig, Job, PipelineConfig, ProblemSpec};
use std::collections::VecDeque;
use std::time::Instant;

/// One job's measured stage structure: per-barrier batches of task
/// durations, in seconds.
#[derive(Clone, Debug)]
pub struct JobProfile {
    /// Problem name (diagnostics).
    pub name: String,
    /// Task durations per dependency batch: batch `i+1` only becomes
    /// ready once every task of batch `i` has finished.
    pub batches: Vec<Vec<f64>>,
}

impl JobProfile {
    /// Total serial work, seconds.
    pub fn total(&self) -> f64 {
        self.batches.iter().flatten().sum()
    }

    /// Critical path (longest task per batch), seconds — the job's
    /// floor runtime with unlimited workers.
    pub fn critical_path(&self) -> f64 {
        self.batches.iter().map(|b| b.iter().copied().fold(0.0, f64::max)).sum()
    }
}

/// The benchmark workload: 8 small problems plus 2 large ones, smalls
/// first (the realistic worst case for job granularity — the late large
/// jobs dominate the tail with idle neighbors).
pub fn mixed_jobs() -> Vec<Job> {
    // Small: one quick attempt. Large: the full 4-attempt restart
    // fan-out with a deep epoch budget on a *low-degree* problem, so
    // the parallelizable training batch (not the serial checker)
    // dominates — the workload shape the scheduler exists for.
    let small = PipelineConfig {
        gcln: GclnConfig { max_epochs: 100, ..GclnConfig::default() },
        max_inputs: 30,
        max_attempts: 1,
        cegis_rounds: 0,
        ..PipelineConfig::default()
    };
    let large = PipelineConfig {
        gcln: GclnConfig { max_epochs: 2500, ..GclnConfig::default() },
        max_inputs: 30,
        max_attempts: 4,
        cegis_rounds: 0,
        ..PipelineConfig::default()
    };
    let mut jobs = Vec::new();
    for name in ["ps2", "ps3", "sqrt1", "cohencu", "ps2", "ps3", "sqrt1", "cohencu"] {
        let spec = ProblemSpec::from_registry(name).expect("registry problem");
        jobs.push(Job::new(spec).with_config(small.clone()));
    }
    for name in ["ps2", "ps3"] {
        let spec = ProblemSpec::from_registry(name).expect("registry problem");
        jobs.push(Job::new(spec).with_config(large.clone()));
    }
    jobs
}

/// Runs one job solo — tasks executed serially on this thread — timing
/// every task and recording the barrier structure.
pub fn profile_job(engine: &Engine, job: &Job) -> JobProfile {
    let name = job.spec.problem.name.clone();
    let mut staged = StagedJob::new(engine, job);
    let mut batches = Vec::new();
    loop {
        match staged.advance() {
            Step::Run(tasks) => {
                let mut durations = Vec::with_capacity(tasks.len());
                for task in tasks {
                    let t0 = Instant::now();
                    let done = Task::execute(task);
                    durations.push(t0.elapsed().as_secs_f64());
                    staged.complete(done);
                }
                batches.push(durations);
            }
            Step::Done(_) => return JobProfile { name, batches },
        }
    }
}

/// Deterministic replay of whole-job scheduling: jobs are monolithic
/// work items assigned FIFO to the earliest-free of `workers` workers.
/// Returns the makespan in seconds.
pub fn replay_job_granularity(profiles: &[JobProfile], workers: usize) -> f64 {
    let mut free = vec![0.0f64; workers.max(1)];
    let mut makespan = 0.0f64;
    for profile in profiles {
        let w = earliest(&free);
        free[w] += profile.total();
        makespan = makespan.max(free[w]);
    }
    makespan
}

struct SimJob {
    queued: VecDeque<f64>,
    remaining_batches: VecDeque<Vec<f64>>,
    /// Tasks of the current batch assigned but conceptually unfinished
    /// (barrier accounting).
    outstanding: usize,
    /// When the current batch's tasks became ready.
    ready_at: f64,
    /// Max finish time across the current batch (the barrier time).
    batch_finish: f64,
}

/// Deterministic replay of the stage-graph policy: per-job FIFO task
/// queues, round-robin across jobs (the scheduler's single-priority
/// ring), each task assigned to the earliest-free worker and starting
/// no earlier than its batch became ready. Returns the makespan in
/// seconds.
pub fn replay_stage_graph(profiles: &[JobProfile], workers: usize) -> f64 {
    let mut jobs: Vec<SimJob> = profiles
        .iter()
        .map(|p| {
            // Empty batches impose no timing constraint (their barrier
            // passes through at the previous batch's finish), so the
            // replay drops them up front.
            let mut remaining: VecDeque<Vec<f64>> =
                p.batches.iter().filter(|b| !b.is_empty()).cloned().collect();
            let first = remaining.pop_front().unwrap_or_default();
            SimJob {
                outstanding: first.len(),
                queued: first.into(),
                remaining_batches: remaining,
                ready_at: 0.0,
                batch_finish: 0.0,
            }
        })
        .collect();
    let mut ring: VecDeque<usize> =
        (0..jobs.len()).filter(|&j| !jobs[j].queued.is_empty()).collect();
    // Jobs whose next batch becomes ready at a future instant.
    let mut arrivals: Vec<(f64, usize)> = Vec::new();
    let mut free = vec![0.0f64; workers.max(1)];
    let mut makespan = 0.0f64;

    loop {
        if ring.is_empty() {
            // No task is ready: admit the earliest pending barrier.
            if arrivals.is_empty() {
                break;
            }
            let i = arrivals
                .iter()
                .enumerate()
                .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
                .map(|(i, _)| i)
                .expect("nonempty arrivals");
            let (_, job) = arrivals.swap_remove(i);
            ring.push_back(job);
            continue;
        }
        let j = ring.pop_front().expect("nonempty ring");
        let duration = jobs[j].queued.pop_front().expect("job in ring has work");
        let w = earliest(&free);
        let start = free[w].max(jobs[j].ready_at);
        let finish = start + duration;
        free[w] = finish;
        makespan = makespan.max(finish);
        let job = &mut jobs[j];
        job.batch_finish = job.batch_finish.max(finish);
        job.outstanding -= 1;
        if !job.queued.is_empty() {
            ring.push_back(j); // round-robin: yield after one task
        } else if job.outstanding == 0 {
            if let Some(next) = job.remaining_batches.pop_front() {
                job.ready_at = job.batch_finish;
                job.outstanding = next.len();
                job.queued = next.into();
                arrivals.push((job.ready_at, j));
            }
        }
    }
    makespan
}

fn earliest(free: &[f64]) -> usize {
    let mut best = 0;
    for (i, &t) in free.iter().enumerate() {
        if t < free[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(batches: &[&[f64]]) -> JobProfile {
        JobProfile {
            name: "synthetic".into(),
            batches: batches.iter().map(|b| b.to_vec()).collect(),
        }
    }

    #[test]
    fn totals_and_critical_paths() {
        let p = profile(&[&[1.0], &[2.0, 3.0, 1.0], &[0.5]]);
        assert!((p.total() - 7.5).abs() < 1e-12);
        assert!((p.critical_path() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn job_granularity_packs_whole_jobs() {
        // Two 3s jobs + two 1s jobs on 2 workers, FIFO:
        // w0: 3 + 1, w1: 3 + 1 → makespan 4.
        let jobs: Vec<JobProfile> =
            vec![profile(&[&[3.0]]), profile(&[&[3.0]]), profile(&[&[1.0]]), profile(&[&[1.0]])];
        assert!((replay_job_granularity(&jobs, 2) - 4.0).abs() < 1e-12);
        // One worker: serial sum.
        assert!((replay_job_granularity(&jobs, 1) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn stage_graph_parallelizes_within_a_job() {
        // One job with a 4-way parallel batch: 4 workers finish it in
        // ~one task time; whole-job takes the serial sum.
        let jobs = vec![profile(&[&[0.1], &[1.0, 1.0, 1.0, 1.0], &[0.1]])];
        let stage = replay_stage_graph(&jobs, 4);
        let whole = replay_job_granularity(&jobs, 4);
        assert!((stage - 1.2).abs() < 1e-9, "stage={stage}");
        assert!((whole - 4.2).abs() < 1e-9, "whole={whole}");
    }

    #[test]
    fn empty_interior_batches_are_transparent() {
        // An empty batch is just a pass-through barrier: the later
        // batches must still be simulated.
        let with_empty = vec![profile(&[&[1.0], &[], &[5.0]])];
        let without = vec![profile(&[&[1.0], &[5.0]])];
        for workers in [1, 3] {
            assert!(
                (replay_stage_graph(&with_empty, workers)
                    - replay_stage_graph(&without, workers))
                .abs()
                    < 1e-12
            );
        }
        assert!((replay_stage_graph(&with_empty, 2) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn stage_graph_on_one_worker_equals_total_work() {
        let jobs = vec![
            profile(&[&[0.5], &[1.0, 2.0], &[0.25]]),
            profile(&[&[0.125], &[0.5, 0.5]]),
        ];
        let total: f64 = jobs.iter().map(JobProfile::total).sum();
        let makespan = replay_stage_graph(&jobs, 1);
        assert!((makespan - total).abs() < 1e-9, "{makespan} vs {total}");
    }

    #[test]
    fn stage_graph_never_beats_the_critical_path_or_work_bound() {
        let jobs = vec![
            profile(&[&[0.3], &[0.7, 0.2, 0.9], &[0.1]]),
            profile(&[&[0.2], &[0.4, 0.4]]),
            profile(&[&[1.1]]),
        ];
        for workers in [1, 2, 4, 8] {
            let makespan = replay_stage_graph(&jobs, workers);
            let work_bound: f64 =
                jobs.iter().map(JobProfile::total).sum::<f64>() / workers as f64;
            let path_bound =
                jobs.iter().map(JobProfile::critical_path).fold(0.0, f64::max);
            assert!(
                makespan >= work_bound - 1e-9 && makespan >= path_bound - 1e-9,
                "workers={workers}: makespan {makespan} below a lower bound \
                 (work {work_bound}, path {path_bound})"
            );
            let serial: f64 = jobs.iter().map(JobProfile::total).sum();
            assert!(makespan <= serial + 1e-9, "never worse than serial");
        }
    }

    /// The headline acceptance check: on the real mixed workload
    /// (8 small + 2 large), profiled at real task durations, the stage
    /// graph beats job granularity by ≥ 1.3× at 4 workers — and the
    /// profiled structure shows *why* (the large jobs' training
    /// attempts are a wide parallel batch).
    #[test]
    fn makespan_replay_shows_the_stage_graph_win() {
        let engine = Engine::new();
        let profiles: Vec<JobProfile> =
            mixed_jobs().iter().map(|job| profile_job(&engine, job)).collect();
        assert_eq!(profiles.len(), 10);
        // The large jobs must have a ≥ 4-way parallel training batch —
        // that is the structure the scheduler exploits.
        for large in &profiles[8..] {
            let widest = large.batches.iter().map(Vec::len).max().unwrap_or(0);
            assert!(widest >= 4, "{}: widest batch {widest}", large.name);
            assert!(
                large.critical_path() < 0.75 * large.total(),
                "{}: critical path {:.3}s vs total {:.3}s leaves nothing to parallelize",
                large.name,
                large.critical_path(),
                large.total()
            );
        }
        let stage = replay_stage_graph(&profiles, 4);
        let whole = replay_job_granularity(&profiles, 4);
        let ratio = whole / stage;
        eprintln!(
            "mixed-workload makespan @4 workers: job-granularity {whole:.3}s, \
             stage-graph {stage:.3}s, ratio {ratio:.2}x"
        );
        assert!(
            ratio >= 1.3,
            "stage-graph must be >= 1.3x faster at 4 workers: \
             whole={whole:.3}s stage={stage:.3}s ratio={ratio:.2}"
        );
    }
}
