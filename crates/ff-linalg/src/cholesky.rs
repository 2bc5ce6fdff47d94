//! Cholesky factorization and triangular solves.
//!
//! Used by the Gaussian-process surrogate in `ff-bayesopt` and by ridge
//! solvers: for a symmetric positive-definite `A`, computes lower-triangular
//! `L` with `L Lᵀ = A`, then solves `A x = b` by forward/back substitution.
//! [`CholeskyFactor::new`] grows its factor one bordered row at a time
//! ([`CholeskyFactor::push_row`]), so a factor grown row by row, as
//! [`GrowingCholesky`] grows one, is bit for bit what factoring the grown
//! matrix from scratch gives.

use crate::{LinalgError, Matrix, Result};

/// A lower-triangular Cholesky factor `L` with `L Lᵀ = A`, stored packed
/// by rows: row `i` keeps its `i + 1` entries `L[i][0..=i]`, and the rows
/// sit back to back.
#[derive(Debug, Clone, Default)]
pub struct CholeskyFactor {
    packed: Vec<f64>,
    n: usize,
}

/// Offset of row `i` in packed lower-triangular storage.
#[inline]
fn row_start(i: usize) -> usize {
    i * (i + 1) / 2
}

impl CholeskyFactor {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] when a non-positive pivot
    /// is encountered; callers that work with nearly-singular kernels should
    /// prefer [`CholeskyFactor::new_with_jitter`].
    ///
    /// The factor grows one row at a time through
    /// [`push_row`](Self::push_row), whose entries are the textbook
    /// left-looking sums in ascending `k`.
    pub fn new(a: &Matrix) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(LinalgError::DimensionMismatch {
                expected: "square matrix".into(),
                got: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut factor = CholeskyFactor {
            packed: Vec::with_capacity(row_start(n)),
            n: 0,
        };
        for i in 0..n {
            factor.push_row(&a.row(i)[..=i])?;
        }
        Ok(factor)
    }

    /// Factorizes `A + jitter·I`, growing the jitter geometrically (×10,
    /// up to `max_tries` attempts) until the factorization succeeds.
    ///
    /// This is the standard trick for kernel matrices that are PSD only up
    /// to floating-point error.
    pub fn new_with_jitter(a: &Matrix, jitter: f64, max_tries: usize) -> Result<Self> {
        let ladder = JitterLadder {
            first: jitter,
            max_tries,
        };
        let (_, factor) = ladder.climb(0, |shift| match shift {
            None => Self::new(a),
            Some(s) => {
                let mut aj = a.clone();
                aj.add_diagonal(s);
                Self::new(&aj)
            }
        })?;
        Ok(factor)
    }

    /// Appends one bordered row: given the factor of an `n × n` matrix and
    /// `row`, the last row `A[n][0..=n]` of the grown `(n+1) × (n+1)`
    /// matrix, extends `L` to factor the grown matrix in O(n²).
    ///
    /// The leading rows of a Cholesky factor depend only on the leading
    /// block of the matrix, and [`CholeskyFactor::new`] grows its factor
    /// by this same row step, so the result is bit-identical to `new` of
    /// the grown matrix. A non-positive or non-finite new pivot returns
    /// [`LinalgError::NotPositiveDefinite`] and leaves the factor as it
    /// was.
    pub fn push_row(&mut self, row: &[f64]) -> Result<()> {
        let n = self.n;
        if row.len() != n + 1 {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("row of length {}", n + 1),
                got: format!("length {}", row.len()),
            });
        }
        let mut new = Vec::with_capacity(n + 1);
        for j in 0..n {
            let lj = self.row(j);
            let mut sum = row[j];
            for k in 0..j {
                sum -= new[k] * lj[k];
            }
            new.push(sum / lj[j]);
        }
        let mut sum = row[n];
        for &x in &new {
            sum -= x * x;
        }
        if sum <= 0.0 || !sum.is_finite() {
            return Err(LinalgError::NotPositiveDefinite);
        }
        new.push(sum.sqrt());
        self.packed.extend_from_slice(&new);
        self.n += 1;
        Ok(())
    }

    /// The lower-triangular factor expanded to a dense matrix (zeros above
    /// the diagonal).
    pub fn l(&self) -> Matrix {
        let mut l = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            l.row_mut(i)[..=i].copy_from_slice(self.row(i));
        }
        l
    }

    /// Row `i` of `L` up to the diagonal: `L[i][0..=i]`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.packed[row_start(i)..row_start(i + 1)]
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `L y = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                got: format!("length {}", b.len()),
            });
        }
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            let row = self.row(i);
            for k in 0..i {
                sum -= row[k] * y[k];
            }
            y[i] = sum / row[i];
        }
        Ok(y)
    }

    /// Solves `L Y = B` in place for `m` right-hand sides at once: `b` is
    /// an `n × m` row-major block whose column `c` is one right-hand side,
    /// and becomes the solution block.
    ///
    /// Each lane sees [`solve_lower`](Self::solve_lower)'s operations in
    /// its order — start from `b[i]`, subtract `L[i][k]·y[k]` for
    /// ascending `k`, divide by `L[i][i]` — so every column equals
    /// `solve_lower` of that column bit for bit. Lanes are independent, so
    /// the compiler vectorises across them without reassociating any sum,
    /// and rows are solved in pairs that share each load of a solved row.
    pub fn solve_lower_block(&self, b: &mut [f64], m: usize) -> Result<()> {
        if b.len() != self.n * m {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("{} x {m} block", self.n),
                got: format!("{} values", b.len()),
            });
        }
        /// Lanes carried in registers across a row pair's subtractions.
        const LANES: usize = 8;
        let full = m - m % LANES;
        let mut i = 0;
        while i < self.n {
            let (solved, rest) = b.split_at_mut(i * m);
            let (yi, rest) = rest.split_at_mut(m);
            let li = self.row(i);
            if i + 1 == self.n {
                for (k, &lik) in li[..i].iter().enumerate() {
                    for (y, &x) in yi.iter_mut().zip(&solved[k * m..(k + 1) * m]) {
                        *y -= lik * x;
                    }
                }
                for y in yi.iter_mut() {
                    *y /= li[i];
                }
                break;
            }
            let (yj, lj) = (&mut rest[..m], self.row(i + 1));
            for c0 in (0..full).step_by(LANES) {
                solve_row_pair::<LANES>(li, lj, solved, m, c0, yi, yj);
            }
            for c0 in full..m {
                solve_row_pair::<1>(li, lj, solved, m, c0, yi, yj);
            }
            i += 2;
        }
        Ok(())
    }

    /// Solves `Lᵀ x = y` (back substitution).
    pub fn solve_upper(&self, y: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if y.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                got: format!("length {}", y.len()),
            });
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.packed[row_start(k) + i] * x[k];
            }
            x[i] = sum / self.packed[row_start(i) + i];
        }
        Ok(x)
    }

    /// Solves `A x = b` where `A = L Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let y = self.solve_lower(b)?;
        self.solve_upper(&y)
    }

    /// Log-determinant of `A`: `2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.n)
            .map(|i| self.packed[row_start(i) + i].ln())
            .sum::<f64>()
            * 2.0
    }
}

/// Forward-substitutes rows `i` and `i + 1` (`li`, `lj`) of an `n × m`
/// block on the `W` lanes from `c0`, given the solved rows above them.
/// Lane by lane the operations are [`CholeskyFactor::solve_lower`]'s, in
/// its order; row `i + 1` subtracts its `k = i` term once row `i` is done.
#[inline(always)]
fn solve_row_pair<const W: usize>(
    li: &[f64],
    lj: &[f64],
    solved: &[f64],
    m: usize,
    c0: usize,
    yi: &mut [f64],
    yj: &mut [f64],
) {
    let i = li.len() - 1;
    let mut a = [0.0; W];
    let mut b = [0.0; W];
    a.copy_from_slice(&yi[c0..c0 + W]);
    b.copy_from_slice(&yj[c0..c0 + W]);
    for k in 0..i {
        let yk = &solved[k * m + c0..k * m + c0 + W];
        for c in 0..W {
            a[c] -= li[k] * yk[c];
            b[c] -= lj[k] * yk[c];
        }
    }
    for c in 0..W {
        a[c] /= li[i];
        b[c] -= lj[i] * a[c];
        b[c] /= lj[i + 1];
    }
    yi[c0..c0 + W].copy_from_slice(&a);
    yj[c0..c0 + W].copy_from_slice(&b);
}

/// [`CholeskyFactor::new_with_jitter`]'s ladder, written once for the
/// one-shot and the growing factorization: rung 0 factors `A` itself and
/// rung `r ≥ 1` factors `A + s_r·I`, where `s_1 = first` and every later
/// shift is ten times the one before, `max_tries` shifted rungs in all.
#[derive(Debug, Clone, Copy)]
struct JitterLadder {
    first: f64,
    max_tries: usize,
}

impl JitterLadder {
    /// The diagonal shift of `rung`; `None` for the unshifted rung 0.
    fn shift(&self, rung: usize) -> Option<f64> {
        (rung > 0).then(|| (1..rung).fold(self.first, |s, _| s * 10.0))
    }

    /// Runs `attempt` with the shift of each rung from `from` up and
    /// returns the first rung whose attempt does not fail with
    /// [`LinalgError::NotPositiveDefinite`], with its outcome.
    fn climb<T>(
        &self,
        from: usize,
        mut attempt: impl FnMut(Option<f64>) -> Result<T>,
    ) -> Result<(usize, T)> {
        for rung in from..=self.max_tries {
            match attempt(self.shift(rung)) {
                Err(LinalgError::NotPositiveDefinite) => {}
                done => return done.map(|t| (rung, t)),
            }
        }
        Err(LinalgError::NotPositiveDefinite)
    }
}

/// The Cholesky factor of a symmetric matrix that grows by one row and
/// column at a time, kept on [`CholeskyFactor::new_with_jitter`]'s ladder.
///
/// After every [`push`](Self::push) it is bit for bit what
/// `new_with_jitter(A, jitter, max_tries)` of the grown matrix `A` gives,
/// and it fails exactly when that fails:
/// - a bordered row extends the factor on the rung it is on, because the
///   leading rows of a Cholesky factor depend only on the leading block;
/// - a rung whose leading block fails fails for every larger matrix, so
///   when a new pivot fails, the next rung is the first one a one-shot
///   factorization could succeed on, and the factor is rebuilt there;
/// - once every rung has failed, the factor stays failed.
#[derive(Debug, Clone)]
pub struct GrowingCholesky {
    ladder: JitterLadder,
    /// The ladder rung the factor is on; 0 is the unshifted matrix.
    rung: usize,
    /// `None` once every rung has failed.
    factor: Option<CholeskyFactor>,
}

impl GrowingCholesky {
    /// An empty factor on the ladder of
    /// `new_with_jitter(_, jitter, max_tries)`.
    pub fn new(jitter: f64, max_tries: usize) -> Self {
        GrowingCholesky {
            ladder: JitterLadder {
                first: jitter,
                max_tries,
            },
            rung: 0,
            factor: Some(CholeskyFactor::default()),
        }
    }

    /// The factor of the matrix so far (of `A + s·I` on the current rung),
    /// or `None` once every rung has failed.
    pub fn factor(&self) -> Option<&CholeskyFactor> {
        self.factor.as_ref()
    }

    /// Grows the matrix by one row and column. `a(i, j)` returns the
    /// unshifted entry `A[i][j]` of the grown `(n+1) × (n+1)` matrix for
    /// `j ≤ i ≤ n`; only the new row `i = n` is read unless its pivot
    /// fails, in which case the factor is rebuilt from every entry on the
    /// next rung that succeeds. Returns
    /// [`LinalgError::NotPositiveDefinite`] once every rung has failed.
    pub fn push(&mut self, a: impl Fn(usize, usize) -> f64) -> Result<()> {
        let Some(factor) = &mut self.factor else {
            return Err(LinalgError::NotPositiveDefinite);
        };
        let n = factor.dim();
        let shifted_row = |i: usize, shift: Option<f64>| {
            let mut row: Vec<f64> = (0..=i).map(|j| a(i, j)).collect();
            if let Some(s) = shift {
                row[i] += s;
            }
            row
        };
        match factor.push_row(&shifted_row(n, self.ladder.shift(self.rung))) {
            Err(LinalgError::NotPositiveDefinite) => {}
            done => return done,
        }
        let rebuilt = self.ladder.climb(self.rung + 1, |shift| {
            let mut f = CholeskyFactor::default();
            for i in 0..=n {
                f.push_row(&shifted_row(i, shift))?;
            }
            Ok(f)
        });
        match rebuilt {
            Ok((rung, f)) => {
                self.rung = rung;
                self.factor = Some(f);
                Ok(())
            }
            Err(e) => {
                self.factor = None;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 3.0, 0.4], &[0.6, 0.4, 2.0]])
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd3();
        let f = CholeskyFactor::new(&a).unwrap();
        let rec = f.l().matmul(&f.l().transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((rec.get(i, j) - a.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let f = CholeskyFactor::new(&a).unwrap();
        let x = f.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn non_spd_is_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // indefinite
        assert_eq!(
            CholeskyFactor::new(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
    }

    #[test]
    fn jitter_rescues_singular_matrix() {
        // Rank-1 PSD matrix: plain Cholesky fails, jittered succeeds.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(CholeskyFactor::new(&a).is_err());
        let f = CholeskyFactor::new_with_jitter(&a, 1e-10, 12).unwrap();
        assert_eq!(f.dim(), 2);
    }

    #[test]
    fn log_det_matches_known_value() {
        // det(diag(4, 9)) = 36.
        let a = Matrix::from_rows(&[&[4.0, 0.0], &[0.0, 9.0]]);
        let f = CholeskyFactor::new(&a).unwrap();
        assert!((f.log_det() - 36.0_f64.ln()).abs() < 1e-12);
    }

    /// The textbook left-looking loop the factor must match bit-for-bit.
    fn reference_left_looking(a: &Matrix) -> Result<Matrix> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.get(i, j);
                for k in 0..j {
                    sum -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.get(j, j));
                }
            }
        }
        Ok(l)
    }

    /// A well-conditioned SPD matrix.
    fn spd_large(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let d = if i == j { n as f64 } else { 0.0 };
            d + 1.0 / ((i + j) as f64 + 1.0)
        })
    }

    #[test]
    fn factor_matches_left_looking_bitwise() {
        for n in [1usize, 7, 31, 32, 33, 97, 130] {
            let a = spd_large(n);
            let reference = reference_left_looking(&a).unwrap();
            for &threads in &[1usize, 2, 8] {
                let f = ff_par::with_threads(threads, || CholeskyFactor::new(&a).unwrap());
                for (x, y) in f.l().as_slice().iter().zip(reference.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "n={n} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn factor_fails_exactly_like_left_looking() {
        // SPD except one late diagonal entry is poisoned: both algorithms
        // must agree that the factorization fails (same first bad pivot).
        let n = 70;
        let mut a = spd_large(n);
        a.set(50, 50, -1.0);
        assert!(reference_left_looking(&a).is_err());
        for &threads in &[1usize, 2, 8] {
            let err = ff_par::with_threads(threads, || CholeskyFactor::new(&a).unwrap_err());
            assert_eq!(err, LinalgError::NotPositiveDefinite, "threads={threads}");
        }
    }

    fn bits(f: &CholeskyFactor) -> Vec<u64> {
        f.packed.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn failed_append_leaves_the_factor_unchanged() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 1.0]]);
        let mut f = CholeskyFactor::default();
        f.push_row(&[4.0]).unwrap();
        let before = bits(&f);
        assert_eq!(
            f.push_row(&a.row(1)[..2]),
            Err(LinalgError::NotPositiveDefinite)
        );
        assert_eq!(bits(&f), before);
        assert!(matches!(
            f.push_row(&[1.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn singular_append_continues_the_ladder() {
        // [[1,1],[1,1]] factors unshifted at n = 1 and fails at n = 2, so
        // the second push must climb to the rung `new_with_jitter` lands on.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let mut g = GrowingCholesky::new(1e-10, 12);
        g.push(|i, j| a.get(i, j)).unwrap();
        assert_eq!(g.rung, 0);
        g.push(|i, j| a.get(i, j)).unwrap();
        assert!(g.rung > 0);
        let one_shot = CholeskyFactor::new_with_jitter(&a, 1e-10, 12).unwrap();
        assert_eq!(bits(g.factor().unwrap()), bits(&one_shot));
    }

    #[test]
    fn ladder_exhaustion_is_permanent() {
        // The last shift of the (1e-8, 10) ladder is 10, which cannot
        // rescue a −100 pivot: every rung fails, and keeps failing as the
        // matrix grows, exactly as the one-shot factorization does.
        let a = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, -100.0, 0.0], &[0.0, 0.0, 1.0]]);
        let mut g = GrowingCholesky::new(1e-8, 10);
        g.push(|i, j| a.get(i, j)).unwrap();
        for n in 2..=3 {
            assert_eq!(
                g.push(|i, j| a.get(i, j)),
                Err(LinalgError::NotPositiveDefinite)
            );
            assert!(g.factor().is_none());
            let lead = Matrix::from_fn(n, n, |i, j| a.get(i, j));
            assert!(CholeskyFactor::new_with_jitter(&lead, 1e-8, 10).is_err());
        }
    }

    #[test]
    fn block_solve_matches_solve_lower_bitwise() {
        // Rows are solved in pairs: cover an even and an odd row count.
        for (n, m) in [96usize, 97]
            .into_iter()
            .flat_map(|n| [1usize, 7, 64, 500].map(|m| (n, m)))
        {
            let f = CholeskyFactor::new(&spd_large(n)).unwrap();
            let b: Vec<f64> = (0..n * m)
                .map(|t| ((t * 7919) % 1013) as f64 / 97.0 - 5.0)
                .collect();
            let columns: Vec<Vec<u64>> = (0..m)
                .map(|c| {
                    let col: Vec<f64> = (0..n).map(|i| b[i * m + c]).collect();
                    let y = f.solve_lower(&col).unwrap();
                    y.iter().map(|v| v.to_bits()).collect()
                })
                .collect();
            for &threads in &[1usize, 2, 8] {
                let mut y = b.clone();
                ff_par::with_threads(threads, || f.solve_lower_block(&mut y, m)).unwrap();
                for (c, col) in columns.iter().enumerate() {
                    let got: Vec<u64> = (0..n).map(|i| y[i * m + c].to_bits()).collect();
                    assert_eq!(&got, col, "n={n} m={m} column {c} threads={threads}");
                }
            }
        }
        let f = CholeskyFactor::new(&spd_large(5)).unwrap();
        let mut short = vec![0.0; 5 * 3 - 1];
        assert!(f.solve_lower_block(&mut short, 3).is_err());
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            CholeskyFactor::new(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }
}
