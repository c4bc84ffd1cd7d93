//! Table and suite experiments (`gcln suite|table3|table4`);
//! the suites run on the shared [`crate::driver`].

use crate::driver::{run_suite, SuiteSummary};
use crate::solve_status;
use gcln_engine::data::{collect_loop_states, Dataset};
use gcln_engine::extract::extract_formula;
use gcln_engine::model::{train_cln, TermTiles};
use gcln_engine::terms::{growth_filter, TermSpace};
use gcln_engine::{Engine, GclnConfig, Job, PipelineConfig};
use gcln_problems::nla::{nla_problem, nla_suite};
use gcln_problems::{find_problem, Problem};
use rayon::prelude::*;

/// `gcln suite nla|linear`: one of the paper's two suite experiments —
/// **Table 2** (the 27 NLA problems) or the **§6.4 linear benchmark**
/// (124 Code2Inv-shape problems) — filtered by name and cut to `limit`
/// problems. `None` for an unknown suite name.
pub fn suite(
    which: &str,
    fast: bool,
    json: bool,
    limit: usize,
    filter: &[String],
    workers: Option<usize>,
) -> Option<SuiteSummary> {
    let problems: Vec<Problem> = gcln_problems::suite_by_name(which)?
        .into_iter()
        .filter(|p| filter.is_empty() || filter.contains(&p.name))
        .take(limit)
        .collect();
    let (title, paper) = match which {
        "nla" => ("Table 2: NLA nonlinear benchmark", "26/27, 53.3s in all"),
        _ => ("§6.4: linear (Code2Inv-shape) benchmark", "124/124, < 30s each"),
    };
    if !json {
        println!("{title}, {} problems", problems.len());
        println!(
            "{:<14} {:>4} {:>5} {:>7} {:>8}  note",
            "problem", "deg", "vars", "solved", "time(s)"
        );
    }
    let config = if fast { PipelineConfig::fast() } else { PipelineConfig::default() };
    let summary = run_suite(which, &problems, &config, workers);
    if json {
        for row in &summary.rows {
            println!("{}", row.to_json());
        }
        println!("{}", summary.to_json());
        return Some(summary);
    }
    for row in &summary.rows {
        let line = format!(
            "{:<14} {:>4} {:>5} {:>7} {:>8.1}  {}",
            row.name,
            row.table_degree,
            row.table_vars,
            if row.solved { "yes" } else { "NO" },
            row.seconds,
            row.note()
        );
        println!("{}", line.trim_end());
    }
    println!(
        "solved {}/{}; avg {:.1}s, max {:.1}s per problem (contended across {} scheduler \
         worker(s)), wall {:.1}s (paper, sequential: {paper}; use --workers 1 to compare)",
        summary.solved,
        summary.attempted,
        summary.total_seconds / summary.attempted.max(1) as f64,
        summary.max_seconds,
        summary.workers,
        summary.wall_seconds,
    );
    Some(summary)
}

/// **Table 3**: component ablation of the G-CLN pipeline. Each column
/// disables one ingredient (data normalization, weight regularization,
/// term dropout, fractional sampling) and reports which problems are
/// still solved.
pub fn table3(args: &[String]) {
    fn config(ablation: &str) -> PipelineConfig {
        // The ablation isolates the *neural* components, so the exact
        // kernel completion (which would mask them) is disabled in every
        // column.
        let mut c = PipelineConfig {
            gcln: GclnConfig { max_epochs: 1600 },
            max_attempts: 4,
            cegis_rounds: 1,
            max_inputs: 60,
            kernel_completion: false,
            ..PipelineConfig::default()
        };
        match ablation {
            "norm" => c.normalize = None,
            "reg" => c.enable_weight_reg = false,
            "drop" => c.enable_dropout = false,
            "frac" => c.enable_fractional = false,
            "full" => {}
            other => panic!("unknown ablation {other}"),
        }
        c
    }

    let problems: Vec<String> = if args.is_empty() {
        ["ps2", "ps3", "ps4", "ps5", "geo1", "geo2", "cohencu"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else if args[0] == "--all" {
        nla_suite().iter().map(|p| p.name.clone()).collect()
    } else {
        args.to_vec()
    };
    println!("Table 3: ablation (columns report solved yes/no)");
    println!("(kernel completion disabled in all columns to isolate the neural components)");
    println!(
        "{:<10} {:>6} {:>8} {:>8} {:>6} {:>6}",
        "problem", "full", "-norm", "-reg", "-drop", "-frac"
    );
    for name in &problems {
        let problem = nla_problem(name).unwrap_or_else(|| panic!("unknown problem {name}"));
        let mut row = format!("{name:<10}");
        for ablation in ["full", "norm", "reg", "drop", "frac"] {
            let outcome =
                Engine::new().run(&Job::new(problem.clone()).with_config(config(ablation)));
            let ok = solve_status(&problem, &outcome).is_ok();
            let w = if ablation == "full" {
                6
            } else if ablation == "norm" || ablation == "reg" {
                8
            } else {
                6
            };
            row.push_str(&format!(" {:>w$}", if ok { "yes" } else { "NO" }, w = w));
        }
        println!("{row}");
    }
}

/// The formula template the Table 4 CLN baseline (CLN2INV, paper \[30\])
/// is instantiated with: the structure a CLN user supplies up front, and
/// the information the G-CLN does *not* need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClnTemplate {
    /// Conjunction of `n` equality literals.
    Conjunction(usize),
    /// Disjunction of `n` equality literals.
    Disjunction(usize),
}

impl ClnTemplate {
    /// The hand-picked template a CLN user would supply for a problem.
    pub fn for_problem(problem: &Problem) -> ClnTemplate {
        match problem.name.as_str() {
            "disj-eq" => ClnTemplate::Disjunction(2),
            "ps2" | "ps3" => ClnTemplate::Conjunction(1),
            _ => ClnTemplate::Conjunction(2),
        }
    }

    /// The template as a CNF shape: `(clauses, literals per clause)`.
    fn shape(self) -> (usize, usize) {
        match self {
            ClnTemplate::Conjunction(n) => (n, 1),
            ClnTemplate::Disjunction(n) => (1, n),
        }
    }
}

/// Result of one randomized CLN training run.
#[derive(Clone, Debug)]
pub struct ClnRun {
    /// Whether the template converged to a data-consistent formula.
    pub converged: bool,
    /// Final data loss.
    pub final_loss: f64,
}

/// Trains the template CLN for CLN2INV's fixed 1500 epochs on loop 0 of
/// a problem, with weights drawn from `seed`. The run converges when the
/// final loss is below 0.05 and the extracted formula has an atom for
/// every templated literal.
pub fn train_template_cln(problem: &Problem, template: ClnTemplate, seed: u64) -> ClnRun {
    let points = collect_loop_states(problem, 0, 60, 2);
    if points.len() < 4 {
        return ClnRun { converged: false, final_loss: f64::INFINITY };
    }
    let space = TermSpace::enumerate(problem.extended_names(), problem.max_degree);
    let keep = growth_filter(&space, &points, 1e10);
    let space = space.select(&keep);
    let data = TermTiles::from_rows(&Dataset::from_points(points.clone(), &space, Some(10.0)).rows);
    let (clauses, literals) = template.shape();
    let model = train_cln(&data, clauses, literals, 1500, seed);
    let formula = extract_formula(&model, &space, &points);
    let converged = model.final_loss < 0.05 && formula.atoms().len() >= clauses * literals;
    ClnRun { converged, final_loss: model.final_loss }
}

/// **Table 4**: training stability — convergence rate over randomized
/// runs, ungated template CLN vs G-CLN, on the six problems of the
/// paper. Paper: CLN averages 58.3%, G-CLN 97.5%.
pub fn table4(runs: u64) {
    let problems = ["conj-eq", "disj-eq", "lin-gap-01", "lin-rel-03", "ps2", "ps3"];
    println!("Table 4: convergence rate over {runs} randomized runs");
    println!("{:<12} {:>10} {:>10}", "problem", "CLN", "G-CLN");
    let mut cln_total = 0.0;
    let mut gcln_total = 0.0;
    for name in problems {
        let problem = find_problem(name).expect("problem exists");
        // Randomized runs are independent (one fixed seed each), so they
        // fan out across rayon workers; the counts are order-insensitive.
        let outcomes: Vec<(bool, bool)> = (0..runs as usize)
            .into_par_iter()
            .map(|seed| {
                let seed = seed as u64;
                let cln = train_template_cln(&problem, ClnTemplate::for_problem(&problem), seed)
                    .converged;
                let config = PipelineConfig {
                    gcln: GclnConfig { max_epochs: 1000 },
                    kernel_completion: false, // pure-model stability, no exact assist
                    max_attempts: 1,
                    cegis_rounds: 1,
                    seed,
                    ..PipelineConfig::default()
                };
                let outcome = Engine::new().run(&Job::new(problem.clone()).with_config(config));
                (cln, solve_status(&problem, &outcome).is_ok())
            })
            .collect();
        let cln_ok = outcomes.iter().filter(|(c, _)| *c).count();
        let gcln_ok = outcomes.iter().filter(|(_, g)| *g).count();
        let cln_rate = 100.0 * cln_ok as f64 / runs as f64;
        let gcln_rate = 100.0 * gcln_ok as f64 / runs as f64;
        cln_total += cln_rate;
        gcln_total += gcln_rate;
        println!("{:<12} {:>9.0}% {:>9.0}%", name, cln_rate, gcln_rate);
    }
    println!(
        "{:<12} {:>9.1}% {:>9.1}%  (paper: 58.3% vs 97.5%)",
        "average",
        cln_total / problems.len() as f64,
        gcln_total / problems.len() as f64
    );
}

#[cfg(test)]
mod tests {
    use super::*;

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
