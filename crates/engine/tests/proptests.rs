//! Property tests for the G-CLN core: extraction round-trips, bound
//! validity, normalization invariances, and term-space combinatorics.

use gcln_engine::bounds::learn_bounds;
use gcln_engine::data::normalize_row;
use gcln_engine::extract::{atom_fits, round_equality};
use gcln_engine::terms::{growth_filter_with_duplicates, TermSpace};
use gcln_logic::Pred;
use gcln_numeric::Rat;
use proptest::prelude::*;

fn names(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

proptest! {
    /// C(k + d, d) monomials of degree ≤ d over k variables.
    #[test]
    fn enumeration_size_is_binomial(k in 1usize..5, d in 0u32..5) {
        let vars: Vec<String> = (0..k).map(|i| format!("v{i}")).collect();
        let space = TermSpace::enumerate(vars, d);
        let mut expect = 1usize;
        for i in 1..=d as usize {
            expect = expect * (k + i) / i;
        }
        prop_assert_eq!(space.len(), expect);
    }

    /// Row normalization hits the target norm and preserves zero-ness of
    /// any linear functional.
    #[test]
    fn normalization_preserves_kernel(
        x in 1.0f64..50.0,
        a in -5i32..=5,
        b in -5i32..=5,
    ) {
        prop_assume!(a != 0 || b != 0);
        let y = a as f64 * x + b as f64;
        let mut row = vec![1.0, x, y];
        let w = [b as f64, a as f64, -1.0]; // b + a*x - y = 0
        let before: f64 = row.iter().zip(&w).map(|(r, w)| r * w).sum();
        normalize_row(&mut row, 10.0);
        let after: f64 = row.iter().zip(&w).map(|(r, w)| r * w).sum();
        prop_assert!(before.abs() < 1e-9);
        prop_assert!(after.abs() < 1e-7);
        let norm: f64 = row.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!((norm - 10.0).abs() < 1e-9);
    }

    /// Exact rational directions perturbed by small noise round back to
    /// themselves (the §3 rounding scheme).
    #[test]
    fn extraction_roundtrip_of_rational_directions(
        num_a in -4i128..=4,
        num_b in 1i128..=4,
        noise in -0.004f64..0.004,
    ) {
        prop_assume!(num_a != 0);
        let space = TermSpace::enumerate(names(&["x", "y"]), 1);
        let idx = |n: &str| (0..space.len()).find(|&i| space.term_name(i) == n).unwrap();
        let points: Vec<Vec<f64>> = (0..8)
            .map(|i| {
                let x = (i as i128 * num_b) as f64;
                let y = (i as i128 * num_a) as f64;
                vec![x, y]
            })
            .collect();
        let mut w = vec![0.0; space.len()];
        let scale = 1.0 / (num_a.abs().max(num_b) as f64);
        w[idx("x")] = num_a as f64 * scale + noise;
        w[idx("y")] = -num_b as f64 * scale - noise / 2.0;
        let atom = round_equality(&w, &space, &points);
        prop_assert!(atom.is_some(), "direction lost");
        let atom = atom.unwrap();
        prop_assert!(atom_fits(&atom.poly, Pred::Eq, &points, 1e-9));
        let expected = gcln_logic::parse_poly(
            &format!("{num_a}*x - {num_b}*y"),
            &space.names,
        )
        .unwrap()
        .normalize_content();
        prop_assert_eq!(atom.poly.normalize_content(), expected);
    }

    /// Every learned bound is valid on its training data (Theorem 4.2's
    /// "desired inequality" validity half), and tight somewhere.
    #[test]
    fn learned_bounds_valid_and_tight(seed in 0u64..6, n_points in 6usize..20) {
        let space = TermSpace::enumerate(names(&["x", "y"]), 2);
        let mut state = seed.wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 41) as f64 - 20.0
        };
        let points: Vec<Vec<f64>> = (0..n_points).map(|_| vec![next(), next()]).collect();
        let bounds = learn_bounds(&space, &points);
        for b in &bounds {
            prop_assert!(
                atom_fits(&b.poly, Pred::Ge, &points, 1e-9),
                "bound {:?} invalid on its own data", b
            );
            let min = points
                .iter()
                .map(|p| b.poly.eval_f64(p))
                .fold(f64::INFINITY, f64::min);
            prop_assert!(min.abs() < 1e-6, "bound not tight: min slack {min}");
        }
    }

    /// The duplicate-pair report of the growth filter is sound: reported
    /// pairs have identical columns.
    #[test]
    fn growth_filter_duplicates_are_real(scale in 1i64..5) {
        let space = TermSpace::enumerate(names(&["x", "y"]), 2);
        let points: Vec<Vec<f64>> = (0..7)
            .map(|i| vec![i as f64, (scale as f64) * i as f64])
            .collect();
        let filtered = growth_filter_with_duplicates(&space, &points, 1e12);
        for &(dropped, kept) in &filtered.duplicates {
            for p in &points {
                let a = space.monomials[dropped].eval_f64(p);
                let b = space.monomials[kept].eval_f64(p);
                prop_assert_eq!(a, b);
            }
        }
        prop_assert!(filtered.keep.len() + filtered.duplicates.len() <= space.len());
    }

    /// Larger denominator budgets never round worse.
    #[test]
    fn denominator_ladder_monotone(x in -1.0f64..1.0) {
        let r10 = Rat::approximate(x, 10).unwrap();
        let r30 = Rat::approximate(x, 30).unwrap();
        let e10 = (x - r10.to_f64()).abs();
        let e30 = (x - r30.to_f64()).abs();
        prop_assert!(e30 <= e10 + 1e-12, "larger denominator must not round worse");
    }
}
