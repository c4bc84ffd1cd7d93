//! Exact linear algebra over [`Rat`].
//!
//! Used by the Guess-and-Check / NumInv-style baselines (null space of the
//! trace data matrix recovers polynomial equality invariants) and by tests
//! that validate the G-CLN's Gaussian-neuron training against the exact
//! answer.

use crate::rat::Rat;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense matrix of exact rationals, stored row-major.
///
/// # Examples
///
/// ```
/// use gcln_numeric::{Matrix, Rat};
/// let m = Matrix::from_rows(vec![
///     vec![Rat::from(1), Rat::from(2)],
///     vec![Rat::from(2), Rat::from(4)],
/// ]);
/// assert_eq!(m.rank(), 1);
/// let ns = m.null_space();
/// assert_eq!(ns.len(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Rat>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![Rat::ZERO; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Rat::ONE;
        }
        m
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or if `rows` is empty.
    pub fn from_rows(rows: Vec<Vec<Rat>>) -> Matrix {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        let nrows = rows.len();
        let data = rows.into_iter().flatten().collect();
        Matrix { rows: nrows, cols, data }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[Rat] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.ncols()`.
    pub fn mul_vec(&self, v: &[Rat]) -> Vec<Rat> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).fold(Rat::ZERO, |acc, (a, b)| acc + *a * *b))
            .collect()
    }

    /// Reduces `self` in place to reduced row echelon form and returns the
    /// pivot column indices.
    pub fn rref(&mut self) -> Vec<usize> {
        let mut pivots = Vec::new();
        let mut r = 0;
        for c in 0..self.cols {
            if r == self.rows {
                break;
            }
            // Find a pivot row.
            let Some(p) = (r..self.rows).find(|&i| !self[(i, c)].is_zero()) else {
                continue;
            };
            self.swap_rows(r, p);
            let inv = self[(r, c)].recip();
            for j in c..self.cols {
                self[(r, j)] *= inv;
            }
            for i in 0..self.rows {
                if i != r && !self[(i, c)].is_zero() {
                    let factor = self[(i, c)];
                    for j in c..self.cols {
                        let sub = factor * self[(r, j)];
                        self[(i, j)] -= sub;
                    }
                }
            }
            pivots.push(c);
            r += 1;
        }
        pivots
    }

    /// The rank of the matrix.
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        m.rref().len()
    }

    /// A basis of the (right) null space `{ v : A v = 0 }`.
    ///
    /// Each basis vector is scaled so that its entries are coprime integers
    /// (convenient for reading off invariant coefficients).
    pub fn null_space(&self) -> Vec<Vec<Rat>> {
        let mut m = self.clone();
        let pivots = m.rref();
        let pivot_set: Vec<Option<usize>> = {
            let mut v = vec![None; self.cols];
            for (r, &c) in pivots.iter().enumerate() {
                v[c] = Some(r);
            }
            v
        };
        let mut basis = Vec::new();
        for free in 0..self.cols {
            if pivot_set[free].is_some() {
                continue;
            }
            let mut v = vec![Rat::ZERO; self.cols];
            v[free] = Rat::ONE;
            for (c, pr) in pivot_set.iter().enumerate() {
                if let Some(r) = pr {
                    v[c] = -m[(*r, free)];
                }
            }
            basis.push(integerize(v));
        }
        basis
    }

    /// Solves `A x = b`, returning one solution if the system is consistent.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.nrows()`.
    pub fn solve(&self, b: &[Rat]) -> Option<Vec<Rat>> {
        assert_eq!(b.len(), self.rows, "dimension mismatch");
        let mut aug = Matrix::zeros(self.rows, self.cols + 1);
        for i in 0..self.rows {
            for j in 0..self.cols {
                aug[(i, j)] = self[(i, j)];
            }
            aug[(i, self.cols)] = b[i];
        }
        let pivots = aug.rref();
        if pivots.contains(&self.cols) {
            return None; // inconsistent: pivot in the augmented column
        }
        let mut x = vec![Rat::ZERO; self.cols];
        for (r, &c) in pivots.iter().enumerate() {
            x[c] = aug[(r, self.cols)];
        }
        Some(x)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }
}

/// Scales a rational vector by a positive rational so entries become coprime
/// integers, with the first nonzero entry positive.
///
/// # Examples
///
/// ```
/// use gcln_numeric::{linalg::integerize, Rat};
/// let v = integerize(vec![Rat::new(1, 2), Rat::new(-3, 4)]);
/// assert_eq!(v, vec![Rat::from(2), Rat::from(-3)]);
/// ```
pub fn integerize(v: Vec<Rat>) -> Vec<Rat> {
    use crate::rat::gcd_i128;
    let mut lcm: i128 = 1;
    for r in &v {
        let d = r.denom();
        lcm = lcm / gcd_i128(lcm, d) * d;
    }
    let scaled: Vec<i128> = v.iter().map(|r| r.numer() * (lcm / r.denom())).collect();
    let mut g: i128 = 0;
    for &n in &scaled {
        g = gcd_i128(g, n);
    }
    if g == 0 {
        return v;
    }
    let sign = scaled.iter().find(|&&n| n != 0).map_or(1, |&n| if n < 0 { -1 } else { 1 });
    scaled.into_iter().map(|n| Rat::integer(sign * n / g)).collect()
}

impl Index<(usize, usize)> for Matrix {
    type Output = Rat;
    fn index(&self, (i, j): (usize, usize)) -> &Rat {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Rat {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            let row: Vec<String> = self.row(i).iter().map(|r| r.to_string()).collect();
            writeln!(f, "[{}]", row.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128) -> Rat {
        Rat::integer(n)
    }

    #[test]
    fn rref_identity() {
        let mut m = Matrix::identity(3);
        let pivots = m.rref();
        assert_eq!(pivots, vec![0, 1, 2]);
        assert_eq!(m, Matrix::identity(3));
    }

    #[test]
    fn rank_and_null_space() {
        // x + y + z = 0 ; 2x + 2y + 2z = 0  => rank 1, nullity 2
        let m = Matrix::from_rows(vec![vec![r(1), r(1), r(1)], vec![r(2), r(2), r(2)]]);
        assert_eq!(m.rank(), 1);
        let ns = m.null_space();
        assert_eq!(ns.len(), 2);
        for v in &ns {
            let prod = m.mul_vec(v);
            assert!(prod.iter().all(Rat::is_zero), "null space vector not in kernel");
        }
    }

    #[test]
    fn null_space_recovers_invariant() {
        // Rows are [1, n, x] samples from x = 2n + 3 -> kernel contains (3, 2, -1).
        let rows: Vec<Vec<Rat>> = (0..5).map(|n| vec![r(1), r(n), r(2 * n + 3)]).collect();
        let m = Matrix::from_rows(rows);
        let ns = m.null_space();
        assert_eq!(ns.len(), 1);
        let v = &ns[0];
        // Up to sign: 3 + 2n - x = 0.
        let target = [r(3), r(2), r(-1)];
        let matches = v.iter().zip(&target).all(|(a, b)| a == b)
            || v.iter().zip(&target).all(|(a, b)| *a == -*b);
        assert!(matches, "unexpected kernel vector {:?}", v);
    }

    #[test]
    fn solve_consistent() {
        let m = Matrix::from_rows(vec![vec![r(2), r(1)], vec![r(1), r(-1)]]);
        let x = m.solve(&[r(5), r(1)]).unwrap();
        assert_eq!(m.mul_vec(&x), vec![r(5), r(1)]);
    }

    #[test]
    fn solve_inconsistent() {
        let m = Matrix::from_rows(vec![vec![r(1), r(1)], vec![r(1), r(1)]]);
        assert!(m.solve(&[r(1), r(2)]).is_none());
    }

    #[test]
    fn solve_underdetermined() {
        let m = Matrix::from_rows(vec![vec![r(1), r(1)]]);
        let x = m.solve(&[r(3)]).unwrap();
        assert_eq!(m.mul_vec(&x), vec![r(3)]);
    }

    #[test]
    fn integerize_normalizes() {
        let v = integerize(vec![Rat::new(2, 3), Rat::new(-4, 3)]);
        assert_eq!(v, vec![r(1), r(-2)]);
        let zero = integerize(vec![Rat::ZERO, Rat::ZERO]);
        assert!(zero.iter().all(Rat::is_zero));
    }

    #[test]
    fn full_rank_square_has_empty_null_space() {
        let m = Matrix::from_rows(vec![vec![r(1), r(2)], vec![r(3), r(4)]]);
        assert_eq!(m.rank(), 2);
        assert!(m.null_space().is_empty());
    }
}
