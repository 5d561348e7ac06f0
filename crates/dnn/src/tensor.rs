//! A minimal dense-matrix type with the operations an MLP trainer needs.
//! Row-major `f32`, with a cache-blocked matmul parallelized over row
//! bands via std scoped threads.

/// Row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f32>,
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    /// He-style random init.
    pub fn randn(
        rows: usize,
        cols: usize,
        scale: f32,
        rng: &mut simkit::rng::SplitMix64,
    ) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| rng.normal() as f32 * scale)
            .collect();
        Matrix { rows, cols, data }
    }

    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · rhs`, parallelized over row bands when large.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "shape mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let bands = if self.rows * rhs.cols * self.cols > 1 << 18 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(self.rows.max(1))
        } else {
            1
        };
        let band = self.rows.div_ceil(bands.max(1));
        let cols = self.cols;
        let ncols = rhs.cols;
        if bands <= 1 {
            gemm_band(&self.data, &rhs.data, &mut out.data, cols, ncols);
            return out;
        }
        std::thread::scope(|s| {
            let mut chunks = out.data.chunks_mut(band * ncols);
            let mut lhs_rows = self.data.chunks(band * cols);
            for _ in 0..bands {
                let (Some(out_chunk), Some(lhs_chunk)) = (chunks.next(), lhs_rows.next()) else {
                    break;
                };
                let rhs = &rhs.data;
                s.spawn(move || {
                    gemm_band(lhs_chunk, rhs, out_chunk, cols, ncols);
                });
            }
        });
        out
    }

    /// Transpose.
    pub fn t(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise in-place: `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.data.len(), other.data.len());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scale in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Add a row vector (bias) to every row.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols);
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Column sums (for bias gradients).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }
}

fn gemm_band(lhs: &[f32], rhs: &[f32], out: &mut [f32], k: usize, n: usize) {
    let rows = out.len() / n;
    // ikj loop order: streams rhs rows, vectorizes the inner loop.
    for i in 0..rows {
        let lrow = &lhs[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &l) in lrow.iter().enumerate() {
            if l == 0.0 {
                continue;
            }
            let rrow = &rhs[kk * n..(kk + 1) * n];
            for (o, &r) in orow.iter_mut().zip(rrow) {
                *o += l * r;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::rng::SplitMix64;

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = SplitMix64::new(1);
        let a = Matrix::randn(5, 5, 1.0, &mut rng);
        let mut eye = Matrix::zeros(5, 5);
        for i in 0..5 {
            *eye.at_mut(i, i) = 1.0;
        }
        let c = a.matmul(&eye);
        for (x, y) in c.data.iter().zip(&a.data) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn parallel_matmul_matches_serial() {
        let mut rng = SplitMix64::new(2);
        // Big enough to trigger the banded parallel path.
        let a = Matrix::randn(128, 96, 1.0, &mut rng);
        let b = Matrix::randn(96, 64, 1.0, &mut rng);
        let par = a.matmul(&b);
        let mut serial = Matrix::zeros(128, 64);
        for i in 0..128 {
            for kk in 0..96 {
                for j in 0..64 {
                    serial.data[i * 64 + j] += a.at(i, kk) * b.at(kk, j);
                }
            }
        }
        for (x, y) in par.data.iter().zip(&serial.data) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = SplitMix64::new(3);
        let a = Matrix::randn(4, 7, 1.0, &mut rng);
        let att = a.t().t();
        assert_eq!(a, att);
    }

    #[test]
    fn broadcast_and_sums() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(m.col_sums(), vec![3.0, 6.0]);
        m.axpy(2.0, &m.clone());
        assert_eq!(m.at(0, 1), 6.0);
        m.scale(0.5);
        assert_eq!(m.at(0, 1), 3.0);
    }
}
