//! Criterion benches: one per pipeline stage plus end-to-end problems,
//! backing the timing claims in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use gcln_bench::mixed::mixed_jobs;
use gcln_checker::{check, Candidate};
use gcln_engine::bounds::learn_bounds;
use gcln_engine::data::{collect_loop_states, Dataset};
use gcln_engine::model::{train_equality_gcln, GclnConfig};
use gcln_engine::terms::{growth_filter, TermSpace};
use gcln_engine::{Engine, Job, PipelineConfig};
use gcln_lang::interp::{run_program, RunConfig};
use gcln_logic::{parse_formula, CompiledFormula};
use gcln_numeric::groebner::{groebner_basis, normal_form, GroebnerLimits};
use gcln_numeric::Poly;
use gcln_problems::nla::nla_problem;
use gcln_sched::{SchedConfig, Scheduler};

fn bench_trace_collection(c: &mut Criterion) {
    let problem = nla_problem("sqrt1").unwrap();
    c.bench_function("trace_collection_sqrt1", |b| {
        b.iter(|| {
            let run = run_program(&problem.program, &[60i128], &RunConfig::default());
            assert!(!run.trace.is_empty());
        })
    });
}

fn bench_training_epochs(c: &mut Criterion) {
    let problem = nla_problem("ps2").unwrap();
    let points = collect_loop_states(&problem, 0, 40, 1);
    let space = TermSpace::enumerate(problem.extended_names(), 2);
    let keep = growth_filter(&space, &points, 1e10);
    let space = space.select(&keep);
    let ds = Dataset::from_points(points, &space, Some(10.0));
    let columns = ds.columns();
    c.bench_function("gcln_training_100_epochs_ps2", |b| {
        b.iter(|| {
            let cfg = GclnConfig { max_epochs: 100, ..GclnConfig::default() };
            train_equality_gcln(&columns, &cfg)
        })
    });

    // Loop 0 of egcd2 at its own degree: a wide term space, where each
    // literal keeps dozens of terms.
    let problem = nla_problem("egcd2").unwrap();
    let points = collect_loop_states(&problem, 0, 120, 2);
    let space = TermSpace::enumerate(problem.extended_names(), problem.max_degree);
    let keep = growth_filter(&space, &points, 1e10);
    let space = space.select(&keep);
    let columns = Dataset::from_points(points, &space, Some(10.0)).columns();
    let cfg = GclnConfig { max_epochs: 100, ..GclnConfig::default() };
    c.bench_function("gcln_training_100_epochs_egcd2", |b| {
        b.iter(|| train_equality_gcln(&columns, &cfg))
    });
}

/// `learn_bounds` on loop 0 of egcd2, whose single-term subsets fill the
/// bound cap, and of lcm2, which learns every subset.
fn bench_bounds(c: &mut Criterion) {
    for name in ["egcd2", "lcm2"] {
        let problem = nla_problem(name).unwrap();
        let points = collect_loop_states(&problem, 0, 120, 2);
        let space = TermSpace::enumerate(problem.extended_names(), problem.max_degree);
        let keep = growth_filter(&space, &points, 1e10);
        let space = space.select(&keep);
        let columns = Dataset::from_points(points.clone(), &space, Some(10.0)).columns();
        c.bench_function(&format!("bounds_{name}_loop0"), |b| {
            b.iter(|| learn_bounds(&space, &points, &columns))
        });
    }
}

/// cohencu's consecution system over (n, x, y, z).
fn cohencu_gens() -> Vec<Poly> {
    let n = Poly::var(0, 4);
    let x = Poly::var(1, 4);
    let y = Poly::var(2, 4);
    let z = Poly::var(3, 4);
    let c1 = &x - &(&(&n * &n) * &n);
    let c2 =
        &(&y - &(&n * &n).scale(3.into())) - &(&n.scale(3.into()) + &Poly::constant(1.into(), 4));
    let c3 = &(&z - &n.scale(6.into())) - &Poly::constant(6.into(), 4);
    vec![c1, c2, c3]
}

fn bench_groebner(c: &mut Criterion) {
    let gens = cohencu_gens();
    c.bench_function("groebner_basis_cohencu", |b| {
        b.iter(|| groebner_basis(&gens, GroebnerLimits::default()).unwrap())
    });

    // The checker's inner symbolic loop: reduce each conjunct composed
    // with the loop body modulo a prebuilt basis (basis construction is
    // timed above; this isolates the S-poly-free reduction path).
    let gens = cohencu_gens();
    let gb = groebner_basis(&gens, GroebnerLimits::default()).unwrap();
    let n = Poly::var(0, 4);
    let x = Poly::var(1, 4);
    let y = Poly::var(2, 4);
    let z = Poly::var(3, 4);
    let body = vec![
        &n + &Poly::constant(1.into(), 4),
        &x + &y,
        &y + &z,
        &z + &Poly::constant(6.into(), 4),
    ];
    let composed: Vec<Poly> = gens.iter().map(|p| p.subst(&body)).collect();
    c.bench_function("groebner_reduce_cohencu", |b| {
        b.iter(|| {
            for p in &composed {
                assert!(normal_form(p, &gb).is_zero());
            }
        })
    });
}

fn bench_checker(c: &mut Criterion) {
    // Full check() on sqrt1 with its ground-truth invariant: traces,
    // initiation, Gröbner consecution, bounded mutations, post check.
    let problem = nla_problem("sqrt1").unwrap();
    let names = problem.extended_names();
    let formula = parse_formula("t == 2 * a + 1 && s == a^2 + 2 * a + 1 && a^2 <= n", &names)
        .expect("ground-truth formula");
    let inputs: Vec<Vec<i128>> = (0..=60).map(|n| vec![n]).collect();
    let extend = |s: &[i128]| s.to_vec();
    let candidates = [Candidate { loop_id: 0, formula: formula.clone() }];
    c.bench_function("checker_check_sqrt1", |b| {
        b.iter(|| {
            let report = check(&problem.program, &inputs, &extend, &candidates);
            assert!(report.is_valid());
            report
        })
    });

    // Compiled-formula evaluation over a state batch: the unit of work
    // phases 1-3 repeat thousands of times per check() call.
    let compiled = CompiledFormula::compile(&formula);
    let states: Vec<Vec<i128>> = (0..60i128)
        .map(|n| {
            let a = (n as f64).sqrt().floor() as i128;
            vec![n, a, (a + 1) * (a + 1), 2 * a + 1]
        })
        .collect();
    let mut out = Vec::new();
    c.bench_function("checker_eval_batch_sqrt1", |b| {
        b.iter(|| {
            compiled.eval_batch(&states, &mut out);
            assert_eq!(out.len(), states.len());
            out.iter().filter(|r| **r == Some(true)).count()
        })
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let problem = nla_problem("ps2").unwrap();
    let config = PipelineConfig {
        gcln: GclnConfig { max_epochs: 600, ..GclnConfig::default() },
        max_attempts: 1,
        cegis_rounds: 1,
        ..PipelineConfig::default()
    };
    let job = Job::new(problem).with_config(config);
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("infer_ps2_end_to_end", |b| b.iter(|| Engine::new().run(&job)));
    group.finish();
}

/// The mixed-workload scheduling bench (8 small + 2 large problems at
/// 4 workers; see `gcln_bench::mixed`): `sched/mixed_stage_graph_4w` is
/// the measured wall clock of the batch through the real scheduler.
/// Meaningful on ≥ 4-core hardware; on a single-core container it
/// collapses to total work.
fn bench_sched_mixed(c: &mut Criterion) {
    let run_batch = || {
        let sched = Scheduler::new(SchedConfig::with_workers(4));
        let tickets: Vec<_> = mixed_jobs().into_iter().map(|job| sched.submit(job)).collect();
        let solved = tickets.iter().filter(|t| t.wait().valid).count();
        sched.shutdown();
        solved
    };
    let mut group = c.benchmark_group("sched");
    group.sample_size(5);
    group.bench_function("mixed_stage_graph_4w", |b| b.iter(run_batch));
    group.finish();
}

criterion_group!(
    benches,
    bench_trace_collection,
    bench_training_epochs,
    bench_bounds,
    bench_groebner,
    bench_checker,
    bench_end_to_end,
    bench_sched_mixed
);
criterion_main!(benches);
