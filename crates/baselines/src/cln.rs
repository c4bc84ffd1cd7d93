//! The ungated, template-based CLN baseline (CLN2INV / paper \[30\]),
//! used for the Table 4 stability comparison.
//!
//! Unlike the G-CLN, this model needs the formula *structure* up front: a
//! fixed conjunction or disjunction of equality literals over the full
//! term set, with no gates, no dropout, no sparsity/diversity pressure.
//! A run "converges" when every templated literal rounds to a valid atom
//! (and, for disjunctions, the clause covers the data).

use gcln_engine::data::{collect_loop_states, Dataset};
use gcln_engine::extract::{extract_formula, ExtractConfig};
use gcln_engine::model::TrainedGcln;
use gcln_engine::terms::{growth_filter, TermSpace};
use gcln_logic::Formula;
use gcln_problems::Problem;
use gcln_tensor::optim::{project_unit_l2, Adam, OptimizerConfig};
use gcln_tensor::tape::Tape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The formula template the CLN is instantiated with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClnTemplate {
    /// Conjunction of `n` equality literals.
    Conjunction(usize),
    /// Disjunction of `n` equality literals.
    Disjunction(usize),
}

impl ClnTemplate {
    /// The hand-picked template a CLN user would supply for a problem
    /// (this is exactly the information the G-CLN does *not* need).
    pub fn for_problem(problem: &Problem) -> ClnTemplate {
        match problem.name.as_str() {
            "disj-eq" => ClnTemplate::Disjunction(2),
            "ps2" | "ps3" => ClnTemplate::Conjunction(1),
            _ => ClnTemplate::Conjunction(2),
        }
    }
}

/// Result of one randomized CLN training run.
#[derive(Clone, Debug)]
pub struct ClnRun {
    /// Whether the template converged to a data-consistent formula.
    pub converged: bool,
    /// The extracted formula when converged.
    pub formula: Option<Formula>,
    /// Final data loss.
    pub final_loss: f64,
}

/// Trains the template CLN on loop 0 of a problem with the given seed.
pub fn train_template_cln(problem: &Problem, template: ClnTemplate, seed: u64) -> ClnRun {
    let points = collect_loop_states(problem, 0, 60, 2);
    if points.len() < 4 {
        return ClnRun { converged: false, formula: None, final_loss: f64::INFINITY };
    }
    let space = TermSpace::enumerate(problem.extended_names(), problem.max_degree);
    let keep = growth_filter(&space, &points, 1e10);
    let space = space.select(&keep);
    let ds = Dataset::from_points(points.clone(), &space, Some(10.0));
    let columns = ds.columns();
    let num_terms = columns.len();
    let (n_lits, is_disj) = match template {
        ClnTemplate::Conjunction(n) => (n, false),
        ClnTemplate::Disjunction(n) => (n, true),
    };

    // Tape: product (AND) or 1-∏(1-act) (OR) of Gaussian literals.
    let mut tape = Tape::new();
    let xs: Vec<_> = (0..num_terms).map(|t| tape.input(t)).collect();
    let sigma_slot = n_lits * num_terms;
    let neg_half_inv_sigma2 = {
        let sp = tape.param(sigma_slot);
        let s2 = tape.square(sp);
        let two = tape.constant(2.0);
        let t2 = tape.mul(two, s2);
        let r = tape.recip(t2);
        tape.neg(r)
    };
    let one = tape.constant(1.0);
    let mut acc = None;
    for li in 0..n_lits {
        let ws: Vec<_> = (0..num_terms).map(|t| tape.param(li * num_terms + t)).collect();
        let z = tape.affine(&ws, &xs, None);
        let act = tape.gaussian(z, neg_half_inv_sigma2);
        let factor = if is_disj { tape.sub(one, act) } else { act };
        acc = Some(match acc {
            None => factor,
            Some(a) => tape.mul(a, factor),
        });
    }
    let m = if is_disj {
        let prod = acc.expect("template has literals");
        tape.sub(one, prod)
    } else {
        acc.expect("template has literals")
    };
    let dis = tape.sub(one, m);
    let loss = tape.mean_batch(dis);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut params = vec![0.0; n_lits * num_terms + 1];
    for li in 0..n_lits {
        let w = &mut params[li * num_terms..(li + 1) * num_terms];
        w.iter_mut().for_each(|x| *x = rng.gen::<f64>() * 2.0 - 1.0);
        project_unit_l2(w);
    }
    let max_epochs = 1500;
    let anneal = 900.0;
    let mut adam = Adam::new(params.len(), OptimizerConfig::default());
    for epoch in 0..max_epochs {
        let t = (epoch as f64 / anneal).min(1.0);
        params[sigma_slot] = 5.0 * (0.1f64 / 5.0).powf(t);
        let (_, mut grads) = tape.eval_with_grad(loss, &columns, &params);
        grads[sigma_slot] = 0.0;
        adam.step(&mut params, &grads);
        for li in 0..n_lits {
            project_unit_l2(&mut params[li * num_terms..(li + 1) * num_terms]);
        }
    }
    params[sigma_slot] = 0.1;
    let final_loss = tape.forward(loss, &columns, &params);

    // Reuse the G-CLN extraction by wrapping the weights in a fully-open
    // gated model shaped like the template.
    let (clause_gates, literal_gates, weights) = if is_disj {
        (
            vec![1.0],
            vec![vec![1.0; n_lits]],
            vec![(0..n_lits)
                .map(|li| params[li * num_terms..(li + 1) * num_terms].to_vec())
                .collect::<Vec<_>>()],
        )
    } else {
        (
            vec![1.0; n_lits],
            vec![vec![1.0]; n_lits],
            (0..n_lits)
                .map(|li| vec![params[li * num_terms..(li + 1) * num_terms].to_vec()])
                .collect(),
        )
    };
    let masks = weights.iter().map(|c| c.iter().map(|w| vec![true; w.len()]).collect()).collect();
    let model = TrainedGcln {
        clause_gates,
        literal_gates,
        weights,
        masks,
        final_loss,
        epochs_run: max_epochs,
    };
    let formula = extract_formula(&model, &space, &points, &ExtractConfig::default());
    let expected_atoms = n_lits;
    let converged = final_loss < 0.05 && formula.atoms().len() >= expected_atoms;
    ClnRun { converged, formula: Some(formula), final_loss }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcln_problems::find_problem;

    #[test]
    fn template_selection() {
        let disj = find_problem("disj-eq").unwrap();
        assert_eq!(ClnTemplate::for_problem(&disj), ClnTemplate::Disjunction(2));
        let ps2 = find_problem("ps2").unwrap();
        assert_eq!(ClnTemplate::for_problem(&ps2), ClnTemplate::Conjunction(1));
    }

    #[test]
    fn cln_converges_on_some_seed_for_ps2() {
        let problem = find_problem("ps2").unwrap();
        let any = (0..5)
            .any(|seed| train_template_cln(&problem, ClnTemplate::Conjunction(1), seed).converged);
        assert!(any, "CLN should converge on ps2 for at least one of 5 seeds");
    }

    #[test]
    fn cln_is_not_perfectly_stable_on_disjunction() {
        // The Table 4 point: the ungated CLN fails on a nontrivial
        // fraction of random initializations. We only assert it does not
        // crash and reports a loss.
        let problem = find_problem("disj-eq").unwrap();
        let run = train_template_cln(&problem, ClnTemplate::Disjunction(2), 1);
        assert!(run.final_loss.is_finite());
    }
}
