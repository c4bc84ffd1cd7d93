//! Table and suite experiments (`gcln table2|table3|table4|code2inv|
//! suite|inspect`), rebuilt on the shared [`crate::driver`]. The stdout
//! formats of the former standalone binaries are preserved.

use crate::driver::{run_suite_with, SuiteSummary};
use crate::{secs, solve_status};
use gcln_baselines::cln::{train_template_cln, ClnTemplate};
use gcln_engine::{Engine, GclnConfig, Job, PipelineConfig};
use gcln_problems::linear::linear_suite;
use gcln_problems::nla::{nla_problem, nla_suite};
use gcln_problems::{find_problem, Problem};
use rayon::prelude::*;

/// Emits the driver's JSON records (one object per problem + a summary
/// record) to stdout.
pub fn emit_json(summary: &SuiteSummary) {
    for row in &summary.rows {
        println!("{}", row.to_json());
    }
    println!("{}", summary.to_json());
}

/// The suite-level `--fast` profile, shared by `table2` and `suite` so
/// the same flag means the same run on the same problems. (It differs
/// deliberately from [`PipelineConfig::fast`], the cheaper
/// single-program profile of `gcln run`.)
fn fast_suite_config() -> PipelineConfig {
    PipelineConfig {
        gcln: GclnConfig { max_epochs: 1200, ..GclnConfig::default() },
        max_attempts: 2,
        ..PipelineConfig::default()
    }
}

/// **Table 2**: per-problem results on the 27-problem NLA nonlinear
/// benchmark (problem, degree, #vars, G-CLN solved?, runtime).
pub fn table2(filter: &[String], fast: bool, json: bool, workers: Option<usize>) -> SuiteSummary {
    let config = if fast { fast_suite_config() } else { PipelineConfig::default() };
    let problems: Vec<Problem> =
        nla_suite().into_iter().filter(|p| filter.is_empty() || filter.contains(&p.name)).collect();
    if !json {
        println!("Table 2: NLA nonlinear loop invariant benchmark (27 problems)");
        println!(
            "{:<10} {:>6} {:>6} {:>8} {:>9}  note",
            "problem", "deg", "vars", "G-CLN", "time(s)"
        );
    }
    let summary = run_suite_with("nla", &problems, &config, workers);
    if json {
        emit_json(&summary);
        return summary;
    }
    for row in &summary.rows {
        println!(
            "{:<10} {:>6} {:>6} {:>8} {:>9.1}  {}",
            row.name,
            row.table_degree,
            row.table_vars,
            if row.solved { "yes" } else { "NO" },
            row.seconds,
            row.note()
        );
    }
    println!(
        "solved {}/{}; avg per-problem {:.1}s (contended across {} scheduler worker(s)), wall {:.1}s \
         (paper, sequential: 26/27, 53.3s; use --workers 1 for comparable per-problem times)",
        summary.solved,
        summary.attempted,
        summary.total_seconds / summary.attempted.max(1) as f64,
        summary.workers,
        summary.wall_seconds,
    );
    summary
}

/// **§6.4 linear benchmark**: the pipeline over the 124-problem linear
/// (Code2Inv-shape) suite. The paper solves all 124 in under 30 s each.
pub fn code2inv(limit: usize, json: bool, workers: Option<usize>) -> SuiteSummary {
    let config = PipelineConfig {
        gcln: GclnConfig { max_epochs: 1000, ..GclnConfig::default() },
        max_attempts: 2,
        ..PipelineConfig::default()
    };
    let problems: Vec<Problem> = linear_suite().into_iter().take(limit).collect();
    if !json {
        println!("Linear (Code2Inv-shape) suite: {} problems", problems.len());
    }
    let summary = run_suite_with("linear", &problems, &config, workers);
    if json {
        emit_json(&summary);
        return summary;
    }
    for row in &summary.rows {
        match &row.failure {
            None => println!("{:<14} solved  {:>6.1}s", row.name, row.seconds),
            Some(e) => println!("{:<14} FAILED  {:>6.1}s  {:?}", row.name, row.seconds, e),
        }
    }
    println!(
        "solved {}/{}; avg {:.1}s, max {:.1}s (contended across {} scheduler worker(s); \
         paper, sequential: 124/124, < 30s each — use --workers 1 to compare)",
        summary.solved,
        summary.attempted,
        summary.total_seconds / summary.attempted.max(1) as f64,
        summary.max_seconds,
        summary.workers,
    );
    summary
}

/// `gcln suite nla|linear`: the generic suite runner (driver-native
/// output; the pretty paper tables stay on `table2`/`code2inv`).
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
    let config = if fast { fast_suite_config() } else { PipelineConfig::default() };
    let summary = run_suite_with(which, &problems, &config, workers);
    if json {
        emit_json(&summary);
    } else {
        for row in &summary.rows {
            println!(
                "{:<14} {:>8} {:>9.1}s  {}",
                row.name,
                if row.solved { "solved" } else { "FAILED" },
                row.seconds,
                row.note()
            );
        }
        println!(
            "solved {}/{}; wall {:.1}s across {} scheduler worker(s)",
            summary.solved, summary.attempted, summary.wall_seconds, summary.workers,
        );
    }
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
            gcln: GclnConfig { max_epochs: 1600, ..GclnConfig::default() },
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
                    gcln: GclnConfig { max_epochs: 1000, seed, ..GclnConfig::default() },
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

/// `gcln inspect`: ad-hoc single-problem diagnostics (the former `dbg` /
/// `dbg2` scratch binaries). Prints the pipeline outcome per loop; with
/// `bounds`, also the raw `learn_bounds` output for loop 0.
pub fn inspect(name: &str, bounds: bool) -> bool {
    let Some(problem) = find_problem(name) else {
        eprintln!("unknown problem `{name}`");
        return false;
    };
    if bounds {
        use gcln_engine::bounds::{learn_bounds, BoundsConfig};
        use gcln_engine::data::{collect_loop_states, Dataset};
        use gcln_engine::terms::{growth_filter, TermSpace};
        let points = collect_loop_states(&problem, 0, 120, 2);
        let space = TermSpace::enumerate(problem.extended_names(), problem.max_degree);
        let keep = growth_filter(&space, &points, 1e10);
        let space = space.select(&keep);
        println!("terms: {:?}", (0..space.len()).map(|i| space.term_name(i)).collect::<Vec<_>>());
        let ds = Dataset::from_points(points.clone(), &space, Some(10.0));
        let learned = learn_bounds(&space, &points, &ds.columns(), &BoundsConfig::default());
        for b in &learned {
            println!("{}", b.display(&problem.extended_names()));
        }
        return true;
    }
    let outcome = Engine::new().run(&Job::new(problem.clone()));
    let names = problem.extended_names();
    println!(
        "valid: {}  cegis: {}  time: {}s",
        outcome.valid,
        outcome.cegis_rounds_used,
        secs(outcome.runtime)
    );
    for li in &outcome.loops {
        println!("loop {}: {}", li.loop_id, li.formula.display(&names));
    }
    println!("status: {:?}", solve_status(&problem, &outcome));
    true
}
