//! Figure data-series generators (`gcln fig <n>`), folded in from the
//! former one-binary-per-figure zoo. Each function prints the same
//! output its standalone binary did.

use gcln_engine::bounds::learn_bounds;
use gcln_engine::data::normalize_row;
use gcln_engine::fractional::{fractional_points, INTERVAL};
use gcln_engine::terms::TermSpace;
use gcln_lang::interp::{run_program, RunConfig};
use gcln_logic::fuzzy::{gated_tconorm, gated_tnorm, TNorm};
use gcln_logic::parse_formula;
use gcln_logic::relax::{gaussian_eq, pbqu_ge, relax_formula, sigmoid_ge, RelaxKind};
use gcln_problems::nla::nla_problem;

/// **Figure 1**: (a) the cube loop's variable trajectories (x cubic,
/// y quadratic, z linear); (b) the sqrt loop's tight vs loose
/// inequality bounds. `which` is `cube` (default) or `sqrt`; returns
/// whether the selector was recognized.
pub fn fig1(which: &str) -> bool {
    match which {
        "cube" => {
            let p = nla_problem("cohencu").unwrap();
            let run = run_program(&p.program, &[15i128], &RunConfig::default());
            println!("{:>4} {:>8} {:>8} {:>8}", "n", "x", "y", "z");
            let idx = |v: &str| p.program.var_id(v).unwrap();
            for s in &run.trace {
                println!(
                    "{:>4} {:>8} {:>8} {:>8}",
                    s.state[idx("n")],
                    s.state[idx("x")],
                    s.state[idx("y")],
                    s.state[idx("z")]
                );
            }
        }
        "sqrt" => {
            let p = nla_problem("sqrt1").unwrap();
            println!("{:>5} {:>5} {:>12} {:>12} {:>12}", "n", "a", "tight", "loose1", "loose2");
            for n in (0..=300i128).step_by(20) {
                let run = run_program(&p.program, &[n], &RunConfig::default());
                let a = run.env[p.program.var_id("a").unwrap()];
                // tight: a <= sqrt(n); loose: a <= n/16 + 4, a <= n/10 + 6.
                println!(
                    "{:>5} {:>5} {:>12.2} {:>12.2} {:>12.2}",
                    n,
                    a,
                    (n as f64).sqrt(),
                    n as f64 / 16.0 + 4.0,
                    n as f64 / 10.0 + 6.0
                );
            }
        }
        other => {
            eprintln!("unknown figure: {other} (use cube|sqrt)");
            return false;
        }
    }
    true
}

/// **Figure 2**: the continuous truth value of
/// F(x) = (x = 1) ∨ (x ≥ 5) ∨ (x ≥ 2 ∧ x ≤ 3) under the CLN relaxation,
/// sampled over x ∈ [0, 6].
pub fn fig2() {
    let names = vec!["x".to_string()];
    let f = parse_formula("x == 1 || x >= 5 || (x >= 2 && x <= 3)", &names).unwrap();
    let kind = RelaxKind::Sigmoid { b: 20.0, eps: 0.01, sigma: 0.15 };
    println!("{:>6} {:>10} {:>6}", "x", "S(F)(x)", "F(x)");
    let mut x = 0.0;
    while x <= 6.0 + 1e-9 {
        let s = relax_formula(&f, &[x], kind, TNorm::Product);
        let b = f.eval_f64(&[x], 1e-9);
        println!("{:>6.2} {:>10.4} {:>6}", x, s, b);
        x += 0.25;
    }
}

/// **Figure 4b** and **Table 1**: the sqrt trace expanded to degree-2
/// monomials, raw and L2-normalized to norm 10 (§5.1.1).
pub fn fig4() {
    let p = nla_problem("sqrt1").unwrap();
    let run = run_program(&p.program, &[12i128], &RunConfig::default());
    let names: Vec<String> = ["a", "s", "t"].iter().map(|s| s.to_string()).collect();
    let space = TermSpace::enumerate(names.clone(), 2);
    let header: Vec<String> = (0..space.len()).map(|i| space.term_name(i)).collect();
    println!("Figure 4b: raw monomial expansion (inputs n = 12)");
    println!("{}", header.join("\t"));
    let idx = |v: &str| p.program.var_id(v).unwrap();
    let mut rows = Vec::new();
    for s in &run.trace {
        let point =
            vec![s.state[idx("a")] as f64, s.state[idx("s")] as f64, s.state[idx("t")] as f64];
        rows.push(space.row(&point));
    }
    for r in &rows {
        println!("{}", r.iter().map(|v| format!("{v:.0}")).collect::<Vec<_>>().join("\t"));
    }
    println!("\nTable 1: after row normalization to L2 norm 10");
    for r in &rows {
        let mut n = r.clone();
        normalize_row(&mut n, 10.0);
        println!("{}", n.iter().map(|v| format!("{v:.2}")).collect::<Vec<_>>().join("\t"));
    }
}

/// **Figure 6**: a gated CLN encoding
/// (3y − 3z − 2 = 0) ∧ ((x − 3z = 0) ∨ (x + y + z = 0)) evaluated
/// continuously, plus its extraction back to SMT (Theorem 4.1 in action).
pub fn fig6() {
    let sigma = 0.5;
    let model = |x: f64, y: f64, z: f64| {
        let a1 = gaussian_eq(3.0 * y - 3.0 * z - 2.0, sigma);
        let a2 = gaussian_eq(x - 3.0 * z, sigma);
        let a3 = gaussian_eq(x + y + z, sigma);
        // OR layer: clause 1 keeps only a1; clause 2 keeps a2, a3.
        let c1 = gated_tconorm(TNorm::Product, &[a1, 0.0], &[1.0, 0.0]);
        let c2 = gated_tconorm(TNorm::Product, &[a2, a3], &[1.0, 1.0]);
        gated_tnorm(TNorm::Product, &[c1, c2], &[1.0, 1.0])
    };
    println!("{:>8} {:>8} {:>8} {:>10} {:>8}", "x", "y", "z", "M(x,y,z)", "F?");
    for (x, y, z) in [
        (6.0, 4.0, 2.0),  // satisfies both: first disjunct x = 3z
        (-6.0, 4.0, 2.0), // satisfies second disjunct x + y + z = 0
        (6.0, 4.0, 3.0),  // violates the equality clause
        (5.0, 4.0, 2.0),  // violates both disjuncts
    ] {
        let truth =
            (3.0 * y - 3.0 * z - 2.0 == 0.0) && ((x - 3.0 * z == 0.0) || (x + y + z == 0.0));
        println!("{:>8} {:>8} {:>8} {:>10.4} {:>8}", x, y, z, model(x, y, z), truth);
    }
}

/// **Figure 7**: S(x ≥ 0) under the original sigmoid relaxation (7a) vs
/// the PBQU relaxation (7b), with the paper's plotting constants B = 5,
/// ε = 0.5, c₁ = 0.5, c₂ = 5.
pub fn fig7() {
    println!("{:>6} {:>12} {:>12}", "x", "sigmoid", "pbqu");
    let mut x = -10.0;
    while x <= 10.0 + 1e-9 {
        println!("{:>6.1} {:>12.5} {:>12.5}", x, sigmoid_ge(x, 5.0, 0.5), pbqu_ge(x, 0.5, 5.0));
        x += 0.5;
    }
}

/// **Figure 8**: ps4 training data without (8b) and with (8c) fractional
/// sampling.
pub fn fig8() {
    let p = nla_problem("ps4").unwrap();
    println!("(8b) integer samples (k = 5):");
    println!("{:>8} {:>8} {:>8} {:>8} {:>8}", "x", "y", "y^2", "y^3", "y^4");
    let run = run_program(&p.program, &[5i128], &RunConfig::default());
    let (xi, yi) = (p.program.var_id("x").unwrap(), p.program.var_id("y").unwrap());
    for s in &run.trace {
        let (x, y) = (s.state[xi] as f64, s.state[yi] as f64);
        println!("{:>8} {:>8} {:>8} {:>8} {:>8}", x, y, y * y, y.powi(3), y.powi(4));
    }
    println!("\n(8c) fractional samples (0.5 grid):");
    println!("{:>8} {:>8} {:>8} {:>8} {:>8} {:>8}", "x", "y", "y^3", "y^4", "x0", "y0");
    let data = fractional_points(&p, 0, INTERVAL).unwrap();
    for pt in data.points.iter().filter(|pt| pt[1].fract() != 0.0).take(12) {
        println!(
            "{:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            pt[0],
            pt[1],
            pt[1].powi(3),
            pt[1].powi(4),
            pt[2],
            pt[3]
        );
    }
}

/// **Figure 10**: learned 2-D inequality bounds, tight (kept, high PBQU
/// activation) vs loose (discarded, low activation) on the sqrt data.
pub fn fig10() {
    let names: Vec<String> = ["n", "a"].iter().map(|s| s.to_string()).collect();
    let space = TermSpace::enumerate(names.clone(), 2);
    let points: Vec<Vec<f64>> =
        (0..60).map(|n| vec![n as f64, (n as f64).sqrt().floor()]).collect();
    let bounds = learn_bounds(&space, &points);
    println!("kept bounds (tight fits):");
    for b in &bounds {
        let score: f64 = points.iter().map(|p| pbqu_ge(b.poly.eval_f64(p), 1.0, 50.0)).sum::<f64>()
            / points.len() as f64;
        println!("  {:<28} activation {:.3}", b.display(&names).to_string(), score);
    }
    // A deliberately loose bound for contrast (Fig. 10's dashed lines).
    let loose = gcln_logic::parse_poly("n - a^2 + 40", &names).unwrap();
    let score: f64 = points.iter().map(|p| pbqu_ge(loose.eval_f64(p), 1.0, 50.0)).sum::<f64>()
        / points.len() as f64;
    println!("loose contrast: {:<20} activation {:.3} (discarded)", "n - a^2 + 40 >= 0", score);
}
