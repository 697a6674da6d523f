//! Dense exact matrices with Gaussian elimination.

use crate::LinalgError;
use mcnetkat_num::Ratio;

/// A row-major dense matrix of exact rationals.
///
/// # Examples
///
/// ```
/// use mcnetkat_linalg::DenseMatrix;
/// use mcnetkat_num::Ratio;
/// let r = |n| Ratio::from_integer(n);
/// let a = DenseMatrix::from_rows(vec![vec![r(2), r(0)], vec![r(0), r(4)]]);
/// let x = a.solve(&[r(2), r(8)]).unwrap();
/// assert_eq!(x, vec![r(1), r(2)]);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Ratio>,
}

impl DenseMatrix {
    /// The `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![Ratio::zero(); rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, Ratio::one());
        }
        m
    }

    /// Builds a matrix from nested row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: Vec<Vec<Ratio>>) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|r| r.len() == ncols),
            "ragged rows in dense matrix"
        );
        DenseMatrix {
            rows: nrows,
            cols: ncols,
            data: rows.into_iter().flatten().collect(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Reads entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> &Ratio {
        &self.data[i * self.cols + j]
    }

    /// Writes entry `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, v: Ratio) {
        self.data[i * self.cols + j] = v;
    }

    /// Matrix–matrix product.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a.is_zero() {
                    continue;
                }
                for j in 0..other.cols {
                    let cur = out.get(i, j) + &(a * other.get(k, j));
                    out.set(i, j, cur);
                }
            }
        }
        out
    }

    /// Matrix–vector product.
    pub fn matvec(&self, v: &[Ratio]) -> Vec<Ratio> {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        (0..self.rows)
            .map(|i| {
                let mut acc = Ratio::zero();
                for (j, vj) in v.iter().enumerate() {
                    acc += &(self.get(i, j) * vj);
                }
                acc
            })
            .collect()
    }

    /// Solves `A x = b` by Gaussian elimination.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when no non-zero pivot exists and
    /// [`LinalgError::DimensionMismatch`] when `b` has the wrong length.
    pub fn solve(&self, b: &[Ratio]) -> Result<Vec<Ratio>, LinalgError> {
        let rhs = DenseMatrix {
            rows: b.len(),
            cols: 1,
            data: b.to_vec(),
        };
        let sol = self.solve_multi(&rhs)?;
        Ok(sol.data)
    }

    /// Solves `A X = B` for a matrix of right-hand sides.
    ///
    /// Arithmetic is exact, so any non-zero pivot is as good as any other
    /// for correctness; each column takes the first non-zero entry at or
    /// below the diagonal, which leaves the rows of an `I − Q` system
    /// (non-zero diagonal) in place.
    ///
    /// # Errors
    ///
    /// See [`DenseMatrix::solve`].
    pub fn solve_multi(&self, b: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
        if self.rows != self.cols || b.rows != self.rows {
            return Err(LinalgError::DimensionMismatch);
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut x = b.clone();
        for k in 0..n {
            let pivot_row = (k..n)
                .find(|&i| !a.get(i, k).is_zero())
                .ok_or(LinalgError::Singular(k))?;
            if pivot_row != k {
                a.swap_rows(k, pivot_row);
                x.swap_rows(k, pivot_row);
            }
            let pivot = a.get(k, k).clone();
            for i in (k + 1)..n {
                let factor = a.get(i, k) / &pivot;
                if factor.is_zero() {
                    continue;
                }
                for j in k..n {
                    let v = a.get(i, j) - &(&factor * a.get(k, j));
                    a.set(i, j, v);
                }
                for j in 0..x.cols {
                    let v = x.get(i, j) - &(&factor * x.get(k, j));
                    x.set(i, j, v);
                }
            }
        }
        // Back substitution.
        for k in (0..n).rev() {
            let pivot = a.get(k, k).clone();
            for j in 0..x.cols {
                let mut acc = x.get(k, j).clone();
                for m in (k + 1)..n {
                    acc -= &(a.get(k, m) * x.get(m, j));
                }
                x.set(k, j, &acc / &pivot);
            }
        }
        Ok(x)
    }

    fn swap_rows(&mut self, i: usize, j: usize) {
        for c in 0..self.cols {
            self.data.swap(i * self.cols + c, j * self.cols + c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Ratio {
        Ratio::from_integer(n)
    }

    fn m(rows: &[&[i64]]) -> DenseMatrix {
        DenseMatrix::from_rows(
            rows.iter()
                .map(|row| row.iter().map(|&v| r(v)).collect())
                .collect(),
        )
    }

    #[test]
    fn identity_solves_trivially() {
        let a = DenseMatrix::identity(3);
        let x = a.solve(&[r(1), r(2), r(3)]).unwrap();
        assert_eq!(x, vec![r(1), r(2), r(3)]);
    }

    #[test]
    fn solves_exactly_over_rationals() {
        // [[2,1],[1,3]] x = [3,5] → x = [4/5, 7/5]
        let a = m(&[&[2, 1], &[1, 3]]);
        let x = a.solve(&[r(3), r(5)]).unwrap();
        assert_eq!(x, vec![Ratio::new(4, 5), Ratio::new(7, 5)]);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = m(&[&[0, 1], &[1, 0]]);
        let x = a.solve(&[r(2), r(3)]).unwrap();
        assert_eq!(x, vec![r(3), r(2)]);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = m(&[&[1, 2], &[2, 4]]);
        assert!(matches!(
            a.solve(&[r(1), r(2)]),
            Err(LinalgError::Singular(_))
        ));
    }

    #[test]
    fn matmul_matches_by_hand() {
        let a = m(&[&[1, 2], &[3, 4]]);
        let b = m(&[&[5, 6], &[7, 8]]);
        assert_eq!(a.matmul(&b), m(&[&[19, 22], &[43, 50]]));
    }

    #[test]
    fn matvec_matches_by_hand() {
        let a = m(&[&[1, 2], &[3, 4]]);
        assert_eq!(a.matvec(&[r(1), r(1)]), vec![r(3), r(7)]);
    }

    #[test]
    fn solve_multi_many_rhs() {
        let a = m(&[&[2, 0], &[0, 4]]);
        let b = m(&[&[2, 4], &[8, 12]]);
        let x = a.solve_multi(&b).unwrap();
        assert_eq!(x, m(&[&[1, 2], &[2, 3]]));
    }
}
