//! Ad-hoc: coarse stage timing for the ps2 end-to-end pipeline.
use gcln::data::{collect_loop_states, Dataset};
use gcln::model::{train_equality_gcln, GclnConfig};
use gcln::pipeline::{infer_invariants, PipelineConfig};
use gcln::terms::{growth_filter, TermSpace};
use gcln_checker::{check, Candidate, CheckerConfig};
use gcln_problems::nla::nla_problem;
use std::time::Instant;

fn main() {
    let problem = nla_problem("ps2").unwrap();
    let config = PipelineConfig {
        gcln: GclnConfig { max_epochs: 600, ..GclnConfig::default() },
        max_attempts: 1,
        cegis_rounds: 1,
        ..PipelineConfig::default()
    };

    println!("== per-stage ==");
    let t = Instant::now();
    let outcome = infer_invariants(&problem, &config);
    println!("total infer_invariants: {:?} (valid={})", t.elapsed(), outcome.valid);

    let t = Instant::now();
    let pts = collect_loop_states(&problem, 0, config.max_inputs, config.trace_seeds);
    println!("collect_loop_states(train): {:?} ({} pts)", t.elapsed(), pts.len());

    let t = Instant::now();
    let space = TermSpace::enumerate(problem.extended_names(), 2);
    let keep = growth_filter(&space, &pts, 1e10);
    let space = space.select(&keep);
    let ds = Dataset::from_points(pts, &space, Some(10.0));
    let columns = ds.columns();
    println!("term space + dataset: {:?} ({} columns)", t.elapsed(), columns.len());

    let t = Instant::now();
    train_equality_gcln(&columns, &config.gcln);
    println!("train_equality_gcln(600 epochs): {:?}", t.elapsed());

    // Checker on the learned formula over the widened range.
    let mut widened = problem.clone();
    for (lo, hi) in &mut widened.input_ranges {
        let span = (*hi - *lo).max(1);
        *hi += span;
    }
    let tuples = gcln_problems::sample_inputs(&widened, config.max_inputs);
    let cands: Vec<Candidate> = outcome
        .loops
        .iter()
        .map(|l| Candidate { loop_id: l.loop_id, formula: l.formula.clone() })
        .collect();
    let extend = |s: &[i128]| problem.extend_state(s);
    let t = Instant::now();
    let report = check(&problem.program, &tuples, &extend, &cands, &CheckerConfig::default());
    println!(
        "check(): {:?} (bounded_checks={}, sym={})",
        t.elapsed(),
        report.bounded_checks,
        report.symbolically_proved
    );
    let names = problem.extended_names();
    for l in &outcome.loops {
        println!("loop {}: {}", l.loop_id, l.formula.display(&names));
    }

}
