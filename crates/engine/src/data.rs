//! Training-data assembly: trace collection, expansion to term columns,
//! and normalization (paper §3 and §5.1.1).

use crate::terms::TermSpace;
use gcln_lang::interp::{run_program, Outcome, RunConfig};
use gcln_problems::Problem;

/// A matrix of training samples for one loop: `points` are the raw
/// extended-variable states, `rows` their monomial expansions (samples ×
/// terms), normalized if requested.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Raw (unexpanded, unnormalized) extended states, deduplicated.
    pub points: Vec<Vec<f64>>,
    /// Monomial-expanded rows aligned with `points`.
    pub rows: Vec<Vec<f64>>,
    /// Whether rows were L2-normalized.
    pub normalized: bool,
}

impl Dataset {
    /// Expands `points` over `space`, optionally row-normalizing to
    /// L2 norm `norm_target` (the paper uses 10).
    pub fn from_points(
        points: Vec<Vec<f64>>,
        space: &TermSpace,
        normalize: Option<f64>,
    ) -> Dataset {
        let rows = points
            .iter()
            .map(|p| {
                let mut row = space.row(p);
                if let Some(l) = normalize {
                    normalize_row(&mut row, l);
                }
                row
            })
            .collect();
        Dataset { points, rows, normalized: normalize.is_some() }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The data as column vectors (one per term), the layout the tape
    /// consumes.
    pub fn columns(&self) -> Vec<Vec<f64>> {
        if self.rows.is_empty() {
            return Vec::new();
        }
        let t = self.rows[0].len();
        (0..t).map(|j| self.rows.iter().map(|r| r[j]).collect()).collect()
    }
}

/// Rescales a row to the given L2 norm (paper §5.1.1, Table 1). Zero rows
/// are left untouched.
pub fn normalize_row(row: &mut [f64], target: f64) {
    let norm = row.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-12 {
        row.iter_mut().for_each(|x| *x *= target / norm);
    }
}

/// Collects deduplicated loop-head states for `loop_id` by running the
/// program over the sampled input space (precondition failures are
/// discarded by the interpreter). States are in the *extended* space.
pub fn collect_loop_states(
    problem: &Problem,
    loop_id: usize,
    max_inputs: usize,
    seeds: u64,
) -> Vec<Vec<f64>> {
    let mut states: Vec<Vec<f64>> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for inputs in gcln_problems::sample_inputs(problem, max_inputs) {
        for seed in 0..seeds.max(1) {
            let run =
                run_program(&problem.program, &inputs, &RunConfig { max_steps: 200_000, seed });
            if run.outcome != Outcome::Completed {
                continue;
            }
            for snap in &run.trace {
                if snap.loop_id != loop_id {
                    continue;
                }
                let extended = problem.extend_state(&snap.state);
                if seen.insert(extended.clone()) {
                    states.push(extended.iter().map(|&v| v as f64).collect());
                }
            }
        }
    }
    states
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terms::TermSpace;
    use gcln_problems::nla::nla_problem;

    #[test]
    fn normalization_matches_table_1() {
        // Table 1, first sqrt sample: (1, a, t, s, as, t^2, st) before
        // normalization is (1, 0, 1, 1, 0, 1, 1): norm = sqrt(5), scaled
        // to 10: each nonzero entry becomes 10/sqrt(5) ≈ 4.47... but the
        // paper's table shows a subset of columns; just check the norm.
        let mut row = vec![1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0];
        normalize_row(&mut row, 10.0);
        let norm: f64 = row.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rows_survive_normalization() {
        let mut row = vec![0.0, 0.0];
        normalize_row(&mut row, 10.0);
        assert_eq!(row, vec![0.0, 0.0]);
    }

    #[test]
    fn collect_states_dedupes_and_extends() {
        let problem = nla_problem("sqrt1").unwrap();
        let states = collect_loop_states(&problem, 0, 30, 1);
        assert!(states.len() > 10);
        // Extended space == program space here (no ext terms).
        assert_eq!(states[0].len(), problem.program.num_vars());
        let mut dedup = states.clone();
        dedup.sort_by(|a, b| a.partial_cmp(b).unwrap());
        dedup.dedup();
        assert_eq!(dedup.len(), states.len(), "states must be unique");
    }

    #[test]
    fn dataset_columns_transpose_rows() {
        let names: Vec<String> = ["x"].iter().map(|s| s.to_string()).collect();
        let space = TermSpace::enumerate(names, 1);
        let ds = Dataset::from_points(vec![vec![2.0], vec![3.0]], &space, None);
        let cols = ds.columns();
        assert_eq!(cols.len(), 2); // terms: 1, x
        assert_eq!(cols[0], vec![1.0, 1.0]);
        assert_eq!(cols[1], vec![2.0, 3.0]);
    }

    #[test]
    fn normalization_preserves_kernel_membership() {
        // If w·row = 0 pre-normalization then also post (rows scaled).
        let names: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        let space = TermSpace::enumerate(names, 1);
        let points: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let raw = Dataset::from_points(points.clone(), &space, None);
        let norm = Dataset::from_points(points, &space, Some(10.0));
        // 2x - y = 0, with coefficients placed by term name.
        let mut w = vec![0.0; space.len()];
        w[(0..space.len()).find(|&i| space.term_name(i) == "x").unwrap()] = 2.0;
        w[(0..space.len()).find(|&i| space.term_name(i) == "y").unwrap()] = -1.0;
        for (r, n) in raw.rows.iter().zip(&norm.rows) {
            let dr: f64 = r.iter().zip(&w).map(|(a, b)| a * b).sum();
            let dn: f64 = n.iter().zip(&w).map(|(a, b)| a * b).sum();
            assert!(dr.abs() < 1e-9 && dn.abs() < 1e-9);
        }
    }
}
