//! Cross-crate integration tests: the full workflow of paper Fig. 3 on
//! representative problems from both suites.

use gcln_checker::{check, equalities_imply, equality_polys, Candidate, CheckerConfig};
use gcln_engine::{
    Engine, Event, GclnConfig, InferenceOutcome, Job, PipelineConfig, ProblemSpec, Stage,
};
use gcln_logic::parse_formula;
use gcln_numeric::groebner::GroebnerLimits;
use gcln_problems::{find_problem, nla::nla_problem, sample_inputs, Problem};

fn quick_config() -> PipelineConfig {
    PipelineConfig {
        gcln: GclnConfig { max_epochs: 1000, ..GclnConfig::default() },
        max_attempts: 2,
        cegis_rounds: 1,
        max_inputs: 60,
        ..PipelineConfig::default()
    }
}

fn solve(problem: &Problem) -> InferenceOutcome {
    Engine::new().run(&Job::new(problem.clone()).with_config(quick_config()))
}

#[test]
fn pipeline_solves_cohencu_end_to_end() {
    let problem = nla_problem("cohencu").unwrap();
    let outcome = solve(&problem);
    assert!(outcome.valid, "cex: {:?}", outcome.report.counterexamples.first());
    let names = problem.extended_names();
    let gt = parse_formula("x == n^3 && y == 3*n^2 + 3*n + 1 && z == 6*n + 6", &names).unwrap();
    assert_eq!(
        equalities_imply(
            outcome.formula_for(0).unwrap(),
            &equality_polys(&gt),
            GroebnerLimits::default()
        ),
        Some(true)
    );
}

#[test]
fn pipeline_solves_a_linear_problem_per_family() {
    for name in ["lin-up-03", "lin-acc-05", "lin-branch-02", "lin-nest-02"] {
        let problem = find_problem(name).unwrap();
        let outcome = solve(&problem);
        assert!(outcome.valid, "{name} rejected: {:?}", outcome.report.counterexamples.first());
    }
}

#[test]
fn learned_invariants_are_checkable_artifacts() {
    // The pipeline's output can be re-validated from scratch with the
    // public checker API (no hidden state).
    let problem = nla_problem("ps2").unwrap();
    let outcome = solve(&problem);
    let candidates: Vec<Candidate> = outcome
        .loops
        .iter()
        .map(|l| Candidate { loop_id: l.loop_id, formula: l.formula.clone() })
        .collect();
    let tuples = sample_inputs(&problem, 50);
    let extend = |s: &[i128]| problem.extend_state(s);
    let report = check(&problem.program, &tuples, &extend, &candidates, &CheckerConfig::default());
    assert!(report.is_valid());
}

#[test]
fn engine_solves_an_arbitrary_program_from_source() {
    // A cube variant absent from both registries: renamed variables and
    // a tightened precondition. All configuration (degree 3 from the
    // post-condition, the input range from `pre`) is auto-derived.
    let spec = ProblemSpec::from_source_str(
        "cubevar",
        "program cubevar; inputs top; pre top >= 1; post c == top * top * top;
         k = 0; c = 0; d = 1; e = 6;
         while (k != top) { k += 1; c += d; d += e; e += 6; }",
    )
    .unwrap();
    assert_eq!(spec.problem.max_degree, 3);
    assert_eq!(spec.problem.input_ranges, vec![(1, 21)]);
    let job = Job::new(spec).with_config(quick_config());
    let mut streamed = 0usize;
    let outcome = Engine::new().run_with_events(&job, &mut |_| streamed += 1);
    assert!(outcome.valid, "cex: {:?}", outcome.report.counterexamples.first());
    assert_eq!(outcome.stopped, None);
    assert_eq!(streamed, outcome.events.len(), "sink and event log must agree");
    assert!(outcome
        .events
        .iter()
        .any(|e| matches!(e, Event::StageFinished { stage: Stage::Check, .. })));
    // The learned equalities imply the cube ground truth (stated over
    // the loop counter `k`, as in cohencu).
    let names = job.spec.problem.extended_names();
    let gt = parse_formula("c == k^3 && d == 3*k^2 + 3*k + 1 && e == 6*k + 6", &names).unwrap();
    assert_eq!(
        equalities_imply(
            outcome.formula_for(0).unwrap(),
            &equality_polys(&gt),
            GroebnerLimits::default()
        ),
        Some(true),
        "learned {}",
        outcome.formula_for(0).unwrap().display(&names)
    );
}

#[test]
fn ground_truths_accepted_by_checker_via_facade() {
    for name in ["mannadiv", "geo2", "freire1"] {
        let problem = nla_problem(name).unwrap();
        let candidates: Vec<Candidate> = problem
            .parsed_ground_truth()
            .into_iter()
            .map(|(loop_id, formula)| Candidate { loop_id, formula })
            .collect();
        let tuples = sample_inputs(&problem, 80);
        let extend = |s: &[i128]| problem.extend_state(s);
        let report =
            check(&problem.program, &tuples, &extend, &candidates, &CheckerConfig::default());
        assert!(report.is_valid(), "{name}: {:?}", report.counterexamples.first());
    }
}
