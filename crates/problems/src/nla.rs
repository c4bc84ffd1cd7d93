//! The 27-problem NLA nonlinear-invariant benchmark (paper Table 2).
//!
//! Each program is transcribed into the loop language from the benchmark
//! of Nguyen et al. ("Using dynamic analysis to discover polynomial and
//! array invariants", ICSE 2012), which the paper evaluates on. Loop ids
//! follow source order. Ground truths are the documented invariants; the
//! suite's tests verify every one of them against traces and the symbolic
//! checker.
//!
//! Two transcription notes:
//!
//! - `freire1`/`freire2` are real-valued algorithms in the original
//!   benchmark; they are encoded here over integers by scaling the real
//!   variable (`x ↦ 2x` resp. `x ↦ 4x`), which preserves the polynomial
//!   invariant structure exactly.
//! - `knuth`'s invariant needs a `d mod 2` term; the paper's G-CLN also
//!   fails to learn this problem, and it is marked `expected_solved =
//!   false` here.

use crate::{ExtTerm, Problem, ProblemBuilder, Suite};

fn b(name: &str, source: &str) -> ProblemBuilder {
    ProblemBuilder::new(name, Suite::Nla, source)
}

/// Builds the full 27-problem suite, in the paper's Table 2 order.
pub fn nla_suite() -> Vec<Problem> {
    vec![
        divbin(),
        cohendiv(),
        mannadiv(),
        hard(),
        sqrt1(),
        dijkstra(),
        cohencu(),
        egcd(),
        egcd2(),
        egcd3(),
        prodbin(),
        prod4br(),
        fermat1(),
        fermat2(),
        freire1(),
        freire2(),
        knuth(),
        lcm1(),
        lcm2(),
        geo1(),
        geo2(),
        geo3(),
        ps2(),
        ps3(),
        ps4(),
        ps5(),
        ps6(),
    ]
}

/// Looks up an NLA problem by name.
pub fn nla_problem(name: &str) -> Option<Problem> {
    nla_suite().into_iter().find(|p| p.name == name)
}

fn divbin() -> Problem {
    b(
        "divbin",
        "program divbin; inputs A, B;
         pre A >= 0 && B >= 1;
         post A == q * B + r && r >= 0 && r < B;
         q = 0; r = A; b = B;
         while (r >= b) { b = 2 * b; }
         while (b != B) {
           q = 2 * q; b = b / 2;
           if (r >= b) { q = q + 1; r = r - b; }
         }",
    )
    .max_degree(2)
    .ranges(&[(0, 40), (1, 10)])
    .truth(0, "A == r && q == 0 && r >= 0")
    .truth(1, "A == q * b + r && r >= 0 && r < b")
    .table(2, 5)
    .build()
}

fn cohendiv() -> Problem {
    b(
        "cohendiv",
        "program cohendiv; inputs x, y;
         pre x >= 1 && y >= 1;
         post x == q * y + r && r >= 0 && r < y;
         q = 0; r = x; a = 0; b = 0;
         while (r >= y) {
           a = 1; b = y;
           while (r >= 2 * b) { a = 2 * a; b = 2 * b; }
           r = r - b; q = q + a;
         }",
    )
    .max_degree(2)
    .ranges(&[(1, 40), (1, 10)])
    .truth(0, "x == q * y + r && r >= 0")
    .truth(1, "x == q * y + r && b == a * y && r >= b && r >= 0")
    .table(2, 6)
    .build()
}

fn mannadiv() -> Problem {
    b(
        "mannadiv",
        "program mannadiv; inputs x1, x2;
         pre x1 >= 0 && x2 >= 1;
         post y1 * x2 + y2 == x1;
         y1 = 0; y2 = 0; y3 = x1;
         while (y3 != 0) {
           if (y2 + 1 == x2) { y1 = y1 + 1; y2 = 0; y3 = y3 - 1; }
           else { y2 = y2 + 1; y3 = y3 - 1; }
         }",
    )
    .max_degree(2)
    .ranges(&[(0, 30), (1, 8)])
    .truth(0, "y1 * x2 + y2 + y3 == x1 && y2 >= 0 && y3 >= 0")
    .table(2, 5)
    .build()
}

fn hard() -> Problem {
    b(
        "hard",
        "program hard; inputs A, B;
         pre A >= 0 && B >= 1;
         post A == q * B + r && r >= 0 && r < B;
         r = A; d = B; p = 1; q = 0;
         while (r >= d) { d = 2 * d; p = 2 * p; }
         while (p != 1) {
           d = d / 2; p = p / 2;
           if (r >= d) { r = r - d; q = q + p; }
         }",
    )
    .max_degree(2)
    .ranges(&[(0, 40), (1, 10)])
    .truth(0, "d == B * p && q == 0 && A == r && r >= 0")
    .truth(1, "d == B * p && A == q * B + r && r >= 0 && r < d")
    .table(2, 6)
    .build()
}

fn sqrt1() -> Problem {
    b(
        "sqrt1",
        "program sqrt1; inputs n;
         pre n >= 0;
         post a * a <= n && n < (a + 1) * (a + 1);
         a = 0; s = 1; t = 1;
         while (s <= n) { a = a + 1; t = t + 2; s = s + t; }",
    )
    .max_degree(2)
    .ranges(&[(0, 80)])
    .truth(0, "t == 2 * a + 1 && s == a^2 + 2 * a + 1 && a^2 <= n")
    .table(2, 4)
    .build()
}

fn dijkstra() -> Problem {
    b(
        "dijkstra",
        "program dijkstra; inputs n;
         pre n >= 0;
         post p * p <= n && n < (p + 1) * (p + 1);
         p = 0; q = 1; r = n; h = 0;
         while (q <= n) { q = 4 * q; }
         while (q != 1) {
           q = q / 4; h = p + q; p = p / 2;
           if (r >= h) { p = p + q; r = r - h; }
         }",
    )
    .max_degree(2)
    .ranges(&[(0, 80)])
    .truth(0, "p == 0 && r == n && r >= 0")
    .truth(1, "p * p + r * q == n * q && r >= 0 && r < 2 * p + q")
    .table(2, 5)
    .build()
}

fn cohencu() -> Problem {
    b(
        "cohencu",
        "program cohencu; inputs a;
         pre a >= 0;
         post x == a * a * a;
         n = 0; x = 0; y = 1; z = 6;
         while (n != a) { n = n + 1; x = x + y; y = y + z; z = z + 6; }",
    )
    .max_degree(3)
    .ranges(&[(0, 12)])
    .truth(0, "x == n^3 && y == 3 * n^2 + 3 * n + 1 && z == 6 * n + 6 && n <= a")
    .table(3, 5)
    .build()
}

fn egcd() -> Problem {
    b(
        "egcd",
        "program egcd; inputs x, y;
         pre x >= 1 && y >= 1;
         post a == gcd(x, y);
         a = x; b = y; p = 1; q = 0; r = 0; s = 1;
         while (a != b) {
           if (a > b) { a = a - b; p = p - q; r = r - s; }
           else { b = b - a; q = q - p; s = s - r; }
         }",
    )
    .max_degree(2)
    .ranges(&[(1, 12), (1, 12)])
    .ext(ExtTerm::new("gcd", &["a", "b"]))
    .ext(ExtTerm::new("gcd", &["x", "y"]))
    .truth(
        0,
        "a == p * x + r * y && b == q * x + s * y && p * s - q * r == 1 \
         && gcd(a, b) == gcd(x, y) && a >= 1 && b >= 1",
    )
    .table(2, 8)
    .build()
}

fn egcd2() -> Problem {
    b(
        "egcd2",
        "program egcd2; inputs x, y;
         pre x >= 1 && y >= 1;
         post a == gcd(x, y);
         a = x; b = y; p = 1; q = 0; r = 0; s = 1; c = 0; k = 0;
         while (b != 0) {
           c = a; k = 0;
           while (c >= b) { c = c - b; k = k + 1; }
           a = b; b = c;
           temp = p; p = q; q = temp - q * k;
           temp = r; r = s; s = temp - s * k;
         }",
    )
    .max_degree(2)
    .ranges(&[(1, 20), (1, 20)])
    .ext(ExtTerm::new("gcd", &["a", "b"]))
    .ext(ExtTerm::new("gcd", &["x", "y"]))
    .truth(0, "a == p * x + r * y && b == q * x + s * y && gcd(a, b) == gcd(x, y)")
    .truth(1, "a == b * k + c && a == p * x + r * y && b == q * x + s * y")
    .table(2, 11)
    .build()
}

fn egcd3() -> Problem {
    b(
        "egcd3",
        "program egcd3; inputs x, y;
         pre x >= 1 && y >= 1;
         post a == gcd(x, y);
         a = x; b = y; p = 1; q = 0; r = 0; s = 1; c = 0; k = 0; d = 0; v = 0;
         while (b != 0) {
           c = a; k = 0;
           while (c >= b) {
             d = 1; v = b;
             while (c >= 2 * v) { d = 2 * d; v = 2 * v; }
             c = c - v; k = k + d;
           }
           a = b; b = c;
           temp = p; p = q; q = temp - q * k;
           temp = r; r = s; s = temp - s * k;
         }",
    )
    .max_degree(2)
    .ranges(&[(1, 20), (1, 20)])
    .ext(ExtTerm::new("gcd", &["a", "b"]))
    .ext(ExtTerm::new("gcd", &["x", "y"]))
    .truth(0, "a == p * x + r * y && b == q * x + s * y && gcd(a, b) == gcd(x, y)")
    .truth(1, "a == b * k + c && a == p * x + r * y && b == q * x + s * y")
    .truth(2, "a == b * k + c && v == b * d && a == p * x + r * y && b == q * x + s * y")
    .table(2, 13)
    .build()
}

fn prodbin() -> Problem {
    b(
        "prodbin",
        "program prodbin; inputs a, b;
         pre a >= 0 && b >= 0;
         post z == a * b;
         x = a; y = b; z = 0;
         while (y != 0) {
           if (y % 2 == 1) { z = z + x; y = y - 1; }
           x = 2 * x; y = y / 2;
         }",
    )
    .max_degree(2)
    .ranges(&[(0, 15), (0, 15)])
    .truth(0, "z + x * y == a * b && y >= 0")
    .table(2, 5)
    .build()
}

fn prod4br() -> Problem {
    b(
        "prod4br",
        "program prod4br; inputs x, y;
         pre x >= 0 && y >= 0;
         post q == x * y;
         a = x; b = y; p = 1; q = 0;
         while (a != 0 && b != 0) {
           if (a % 2 == 0 && b % 2 == 0) { a = a / 2; b = b / 2; p = 4 * p; }
           else { if (a % 2 == 1 && b % 2 == 0) { a = a - 1; q = q + b * p; }
           else { if (a % 2 == 0 && b % 2 == 1) { b = b - 1; q = q + a * p; }
           else { a = a - 1; b = b - 1; q = q + (a + b + 1) * p; } } }
         }",
    )
    .max_degree(3)
    .ranges(&[(0, 12), (0, 12)])
    .truth(0, "q + a * b * p == x * y")
    .table(3, 6)
    .build()
}

fn fermat1() -> Problem {
    b(
        "fermat1",
        "program fermat1; inputs N, R;
         pre N >= 3 && N % 2 == 1 && R >= 1 && R * R >= N && (R - 1) * (R - 1) < N;
         post u * u - v * v - 2 * u + 2 * v == 4 * N;
         u = 2 * R + 1; v = 1; r = R * R - N;
         while (r != 0) {
           while (r > 0) { r = r - v; v = v + 2; }
           while (r < 0) { r = r + u; u = u + 2; }
         }",
    )
    .max_degree(2)
    .ranges(&[(3, 60), (1, 9)])
    .truth(0, "u^2 - v^2 - 2 * u + 2 * v == 4 * N + 4 * r")
    .truth(1, "u^2 - v^2 - 2 * u + 2 * v == 4 * N + 4 * r")
    .truth(2, "u^2 - v^2 - 2 * u + 2 * v == 4 * N + 4 * r")
    .table(2, 5)
    .build()
}

fn fermat2() -> Problem {
    b(
        "fermat2",
        "program fermat2; inputs N, R;
         pre N >= 3 && N % 2 == 1 && R >= 1 && R * R >= N && (R - 1) * (R - 1) < N;
         post u * u - v * v - 2 * u + 2 * v == 4 * N;
         u = 2 * R + 1; v = 1; r = R * R - N;
         while (r != 0) {
           if (r > 0) { r = r - v; v = v + 2; }
           else { r = r + u; u = u + 2; }
         }",
    )
    .max_degree(2)
    .ranges(&[(3, 60), (1, 9)])
    .truth(0, "u^2 - v^2 - 2 * u + 2 * v == 4 * N + 4 * r")
    .table(2, 5)
    .build()
}

fn freire1() -> Problem {
    // Original is real-valued with x0 = a/2; encoded with x doubled
    // (x here = 2·x_original), preserving the invariant polynomial.
    b(
        "freire1",
        "program freire1; inputs a;
         pre a >= 0;
         post a <= r * r + r && a >= r * r - r;
         x = a; r = 0;
         while (x > 2 * r) { x = x - 2 * r; r = r + 1; }",
    )
    .max_degree(2)
    .ranges(&[(0, 60)])
    .truth(0, "a == x + r^2 - r && x >= 0")
    .table(2, 3)
    .build()
}

fn freire2() -> Problem {
    // Original is real-valued with quarter-integer constants; encoded with
    // x scaled by 4 (x here = 4·x_original) and s by 4 (s = 4·s_original).
    b(
        "freire2",
        "program freire2; inputs a;
         pre a >= 0;
         post true;
         x = 4 * a; r = 1; s = 13;
         while (x > s) { x = x - s; s = s + 24 * r + 12; r = r + 1; }",
    )
    .max_degree(3)
    .ranges(&[(0, 60)])
    .truth(0, "4 * r^3 - 6 * r^2 + 3 * r + x - 4 * a - 1 == 0 && s == 12 * r^2 + 1")
    .table(3, 4)
    .build()
}

fn knuth() -> Problem {
    // Knuth's trial-division-with-square-root factorization fragment.
    // The documented invariant also needs `d mod 2 == 1`, which is outside
    // the polynomial term space; the paper's system fails this problem too.
    b(
        "knuth",
        "program knuth; inputs n, aa;
         pre n >= 9 && n % 2 == 1 && aa % 2 == 1 && aa * aa <= n && n < (aa + 2) * (aa + 2);
         post true;
         d = aa; r = n % d; t = 0; k = n % (d - 2);
         q = 4 * (n / (d - 2) - n / d);
         while (r != 0 && d * d <= 4 * n) {
           if (2 * r - k + q < 0) {
             t = r; r = 2 * r - k + q + d + 2; k = t; q = q + 4; d = d + 2;
           } else { if (2 * r - k + q < d + 2) {
             t = r; r = 2 * r - k + q; k = t; d = d + 2;
           } else { if (2 * r - k + q < 2 * d + 4) {
             t = r; r = 2 * r - k + q - d - 2; k = t; q = q - 4; d = d + 2;
           } else {
             t = r; r = 2 * r - k + q - 2 * d - 4; k = t; q = q - 8; d = d + 2;
           } } }
         }",
    )
    .max_degree(3)
    .ranges(&[(9, 120), (3, 11)])
    .truth(0, "d^2 * q - 4 * r * d + 4 * k * d - 2 * q * d + 8 * r == 8 * n")
    .table(3, 8)
    .unsolved()
    .build()
}

fn lcm1() -> Problem {
    b(
        "lcm1",
        "program lcm1; inputs a, b;
         pre a >= 1 && b >= 1;
         post x * u + y * v == a * b && x == gcd(a, b);
         x = a; y = b; u = b; v = 0;
         while (x != y) {
           while (x > y) { x = x - y; v = v + u; }
           while (x < y) { y = y - x; u = u + v; }
         }",
    )
    .max_degree(2)
    .ranges(&[(1, 12), (1, 12)])
    .ext(ExtTerm::new("gcd", &["x", "y"]))
    .ext(ExtTerm::new("gcd", &["a", "b"]))
    .truth(0, "x * u + y * v == a * b && gcd(x, y) == gcd(a, b) && x >= 1 && y >= 1")
    .truth(1, "x * u + y * v == a * b && gcd(x, y) == gcd(a, b) && x >= 1 && y >= 1")
    .truth(2, "x * u + y * v == a * b && gcd(x, y) == gcd(a, b) && x >= 1 && y >= 1")
    .table(2, 6)
    .build()
}

fn lcm2() -> Problem {
    b(
        "lcm2",
        "program lcm2; inputs a, b;
         pre a >= 1 && b >= 1;
         post x * u + y * v == 2 * a * b;
         x = a; y = b; u = b; v = a;
         while (x != y) {
           if (x > y) { x = x - y; v = v + u; }
           else { y = y - x; u = u + v; }
         }",
    )
    .max_degree(2)
    .ranges(&[(1, 12), (1, 12)])
    .ext(ExtTerm::new("gcd", &["x", "y"]))
    .ext(ExtTerm::new("gcd", &["a", "b"]))
    .truth(0, "x * u + y * v == 2 * a * b && gcd(x, y) == gcd(a, b)")
    .table(2, 6)
    .build()
}

fn geo1() -> Problem {
    b(
        "geo1",
        "program geo1; inputs z, k;
         pre z >= 2 && k >= 1;
         post x * z - x - y + 1 == 0;
         x = 1; y = z; c = 1;
         while (c < k) { c = c + 1; x = x * z + 1; y = y * z; }",
    )
    .max_degree(2)
    .ranges(&[(2, 6), (1, 8)])
    .truth(0, "x * z - x - y + 1 == 0 && c <= k")
    .table(2, 5)
    .build()
}

fn geo2() -> Problem {
    b(
        "geo2",
        "program geo2; inputs z, k;
         pre z >= 2 && k >= 1;
         post x * z - x - y * z + 1 == 0;
         x = 1; y = 1; c = 1;
         while (c < k) { c = c + 1; x = x * z + 1; y = y * z; }",
    )
    .max_degree(2)
    .ranges(&[(2, 6), (1, 8)])
    .truth(0, "x * z - x - y * z + 1 == 0 && c <= k")
    .table(2, 5)
    .build()
}

fn geo3() -> Problem {
    b(
        "geo3",
        "program geo3; inputs z, a, k;
         pre z >= 2 && a >= 1 && k >= 1;
         post x * z - x + a - a * y * z == 0;
         x = a; y = 1; c = 1;
         while (c < k) { c = c + 1; x = x * z + a; y = y * z; }",
    )
    .max_degree(3)
    .ranges(&[(2, 5), (1, 5), (1, 8)])
    .truth(0, "x * z - x + a - a * y * z == 0 && c <= k")
    .table(3, 6)
    .build()
}

fn ps2() -> Problem {
    b(
        "ps2",
        "program ps2; inputs k;
         pre k >= 0;
         post 2 * x == k * k + k;
         x = 0; y = 0;
         while (y < k) { y = y + 1; x = x + y; }",
    )
    .max_degree(2)
    .ranges(&[(0, 20)])
    .truth(0, "2 * x == y^2 + y && y <= k")
    .table(2, 4)
    .build()
}

fn ps3() -> Problem {
    b(
        "ps3",
        "program ps3; inputs k;
         pre k >= 0;
         post 6 * x == 2 * k * k * k + 3 * k * k + k;
         x = 0; y = 0;
         while (y < k) { y = y + 1; x = x + y * y; }",
    )
    .max_degree(3)
    .ranges(&[(0, 18)])
    .truth(0, "6 * x == 2 * y^3 + 3 * y^2 + y && y <= k")
    .table(3, 4)
    .build()
}

fn ps4() -> Problem {
    b(
        "ps4",
        "program ps4; inputs k;
         pre k >= 0;
         post 4 * x == k * k * (k + 1) * (k + 1);
         x = 0; y = 0;
         while (y < k) { y = y + 1; x = x + y * y * y; }",
    )
    .max_degree(4)
    .ranges(&[(0, 15)])
    .truth(0, "4 * x == y^4 + 2 * y^3 + y^2 && y <= k")
    .table(4, 4)
    .build()
}

fn ps5() -> Problem {
    b(
        "ps5",
        "program ps5; inputs k;
         pre k >= 0;
         post 30 * x == 6 * k * k * k * k * k + 15 * k * k * k * k + 10 * k * k * k - k;
         x = 0; y = 0;
         while (y < k) { y = y + 1; x = x + y * y * y * y; }",
    )
    .max_degree(5)
    .ranges(&[(0, 12)])
    .truth(0, "30 * x == 6 * y^5 + 15 * y^4 + 10 * y^3 - y && y <= k")
    .table(5, 4)
    .build()
}

fn ps6() -> Problem {
    b(
        "ps6",
        "program ps6; inputs k;
         pre k >= 0;
         post 12 * x == 2 * k * k * k * k * k * k + 6 * k * k * k * k * k \
              + 5 * k * k * k * k - k * k;
         x = 0; y = 0;
         while (y < k) { y = y + 1; x = x + y * y * y * y * y; }",
    )
    .max_degree(6)
    .ranges(&[(0, 10)])
    .truth(0, "12 * x == 2 * y^6 + 6 * y^5 + 5 * y^4 - y^2 && y <= k")
    .table(6, 4)
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcln_lang::interp::{run_program, Outcome, RunConfig};

    /// Every ground-truth invariant must hold at every recorded loop head
    /// across the sampled input space. This validates the transcriptions.
    #[test]
    fn ground_truths_hold_on_traces() {
        for problem in nla_suite() {
            let truths = problem.parsed_ground_truth();
            let mut checked = 0usize;
            let mut completed = 0usize;
            for inputs in crate::sample_inputs(&problem, 400) {
                let run = run_program(&problem.program, &inputs, &RunConfig::default());
                if run.outcome != Outcome::Completed {
                    continue;
                }
                completed += 1;
                for snap in &run.trace {
                    for (loop_id, formula) in &truths {
                        if snap.loop_id != *loop_id {
                            continue;
                        }
                        let extended = problem.extend_state(&snap.state);
                        assert!(
                            formula.eval_i128(&extended),
                            "`{}` loop {} violates ground truth at {:?}",
                            problem.name,
                            loop_id,
                            snap.state
                        );
                        checked += 1;
                    }
                }
            }
            assert!(completed >= 5, "`{}` has too few valid runs ({completed})", problem.name);
            assert!(checked > 0, "`{}` never checked a ground truth", problem.name);
        }
    }

    /// Completed executions must satisfy their postconditions.
    #[test]
    fn postconditions_hold() {
        for problem in nla_suite() {
            for inputs in crate::sample_inputs(&problem, 200) {
                let run = run_program(&problem.program, &inputs, &RunConfig::default());
                if run.outcome != Outcome::Completed {
                    continue;
                }
                assert_eq!(
                    gcln_lang::interp::eval_bool_in(&problem.program.post, &run.env, 0),
                    Some(true),
                    "`{}` postcondition fails on inputs {:?}",
                    problem.name,
                    inputs
                );
            }
        }
    }

    #[test]
    fn table2_metadata_matches_paper() {
        let suite = nla_suite();
        assert_eq!(suite.len(), 27);
        let by_name = |n: &str| suite.iter().find(|p| p.name == n).unwrap();
        assert_eq!((by_name("cohencu").table_degree, by_name("cohencu").table_vars), (3, 5));
        assert_eq!((by_name("egcd3").table_degree, by_name("egcd3").table_vars), (2, 13));
        assert_eq!((by_name("ps6").table_degree, by_name("ps6").table_vars), (6, 4));
        assert!(!by_name("knuth").expected_solved);
        assert_eq!(suite.iter().filter(|p| p.expected_solved).count(), 26);
    }

    #[test]
    fn gcd_problems_declare_ext_terms() {
        for name in ["egcd", "egcd2", "egcd3", "lcm1", "lcm2"] {
            let p = nla_problem(name).unwrap();
            assert!(!p.ext_terms.is_empty(), "{name} needs gcd terms");
        }
    }

    #[test]
    fn fig_1a_cube_example_runs() {
        let p = nla_problem("cohencu").unwrap();
        let run = run_program(&p.program, &[5i128], &RunConfig::default());
        assert_eq!(run.outcome, Outcome::Completed);
        assert_eq!(run.env[p.program.var_id("x").unwrap()], 125);
    }
}
