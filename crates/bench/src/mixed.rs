//! The mixed-workload scheduling experiment: many small problems plus a
//! few large ones through one scheduler (see EXPERIMENTS.md
//! "Mixed-workload scheduling"). The `sched/mixed_stage_graph_4w` bench
//! row measures the wall clock of this batch through the real
//! [`Scheduler`](gcln_sched::Scheduler) at 4 workers.

use gcln_engine::{GclnConfig, Job, PipelineConfig, ProblemSpec};

/// The benchmark workload: 8 small problems plus 2 large ones, smalls
/// first (the realistic worst case for job granularity — the late large
/// jobs dominate the tail with idle neighbors).
pub fn mixed_jobs() -> Vec<Job> {
    // Small: one quick attempt. Large: the full 4-attempt restart
    // fan-out with a deep epoch budget on a *low-degree* problem, so
    // the parallelizable training batch (not the serial checker)
    // dominates — the workload shape the scheduler exists for.
    let small = PipelineConfig {
        gcln: GclnConfig { max_epochs: 100 },
        max_inputs: 30,
        max_attempts: 1,
        cegis_rounds: 0,
        ..PipelineConfig::default()
    };
    let large = PipelineConfig {
        gcln: GclnConfig { max_epochs: 2500 },
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
