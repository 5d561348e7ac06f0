//! A small multi-layer perceptron with softmax cross-entropy, plain SGD
//! with momentum — enough network to measure whether a sample *ordering*
//! hurts convergence (the paper's Fig. 13 question), on commodity CPUs.

use simkit::rng::SplitMix64;

use crate::tensor::Matrix;

/// One dense layer with ReLU (except the output layer, which is linear and
/// feeds softmax cross-entropy).
#[derive(Clone, Debug)]
struct Dense {
    w: Matrix,
    b: Vec<f32>,
    vw: Matrix,
    vb: Vec<f32>,
    relu: bool,
    // forward stash
    input: Matrix,
    pre: Matrix,
}

impl Dense {
    fn new(inp: usize, out: usize, relu: bool, rng: &mut SplitMix64) -> Dense {
        let scale = (2.0 / inp as f32).sqrt();
        Dense {
            w: Matrix::randn(inp, out, scale, rng),
            b: vec![0.0; out],
            vw: Matrix::zeros(inp, out),
            vb: vec![0.0; out],
            relu,
            input: Matrix::zeros(0, 0),
            pre: Matrix::zeros(0, 0),
        }
    }

    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let mut z = x.matmul(&self.w);
        z.add_row_broadcast(&self.b);
        if train {
            self.input = x.clone();
            self.pre = z.clone();
        }
        if self.relu {
            for v in &mut z.data {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
        z
    }

    /// Backprop: takes dL/d(output), returns dL/d(input); accumulates into
    /// momentum buffers and applies the update.
    fn backward_update(&mut self, mut grad: Matrix, lr: f32, momentum: f32) -> Matrix {
        if self.relu {
            for (g, &p) in grad.data.iter_mut().zip(&self.pre.data) {
                if p <= 0.0 {
                    *g = 0.0;
                }
            }
        }
        let batch = grad.rows.max(1) as f32;
        let dw = {
            let mut dw = self.input.t().matmul(&grad);
            dw.scale(1.0 / batch);
            dw
        };
        let db: Vec<f32> = grad.col_sums().iter().map(|v| v / batch).collect();
        let dx = grad.matmul(&self.w.t());
        // Momentum SGD.
        self.vw.scale(momentum);
        self.vw.axpy(1.0, &dw);
        self.w.axpy(-lr, &self.vw);
        for ((vb, db), b) in self.vb.iter_mut().zip(&db).zip(&mut self.b) {
            *vb = momentum * *vb + db;
            *b -= lr * *vb;
        }
        dx
    }
}

/// The classifier network.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Dense>,
    pub classes: usize,
}

impl Mlp {
    /// `dims` = [input, hidden..., classes].
    pub fn new(dims: &[usize], seed: u64) -> Mlp {
        assert!(dims.len() >= 2);
        let mut rng = SplitMix64::derive(seed, 0x3317);
        let mut layers = Vec::new();
        for i in 0..dims.len() - 1 {
            let relu = i + 2 < dims.len();
            layers.push(Dense::new(dims[i], dims[i + 1], relu, &mut rng));
        }
        Mlp {
            layers,
            classes: *dims.last().unwrap(),
        }
    }

    /// Logits for a batch.
    pub fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let mut h = x.clone();
        for l in &mut self.layers {
            h = l.forward(&h, train);
        }
        h
    }

    /// One SGD step on (x, labels); returns the batch's mean loss.
    pub fn train_step(&mut self, x: &Matrix, labels: &[u8], lr: f32, momentum: f32) -> f32 {
        let logits = self.forward(x, true);
        let (loss, grad) = softmax_xent(&logits, labels);
        let mut g = grad;
        for l in self.layers.iter_mut().rev() {
            g = l.backward_update(g, lr, momentum);
        }
        loss
    }

    /// Serialize the full optimizer state (weights, biases and momentum
    /// buffers, f32 little-endian) — the payload of a training checkpoint.
    /// [`Mlp::from_state_bytes`] restores a network that continues
    /// training bit-identically.
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.layers.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.classes as u32).to_le_bytes());
        for l in &self.layers {
            out.extend_from_slice(&(l.w.rows as u32).to_le_bytes());
            out.extend_from_slice(&(l.w.cols as u32).to_le_bytes());
            out.push(l.relu as u8);
            for m in [&l.w, &l.vw] {
                for &v in &m.data {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            for &v in l.b.iter().chain(&l.vb) {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Restore a network from [`Mlp::state_bytes`]; `None` on truncated or
    /// malformed input.
    pub fn from_state_bytes(bytes: &[u8]) -> Option<Mlp> {
        let mut at = 0usize;
        let n_layers = rd_u32(bytes, &mut at)? as usize;
        let classes = rd_u32(bytes, &mut at)? as usize;
        let mut layers = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let rows = rd_u32(bytes, &mut at)? as usize;
            let cols = rd_u32(bytes, &mut at)? as usize;
            let relu = *bytes.get(at)? != 0;
            at += 1;
            let w = Matrix::from_vec(rows, cols, rd_f32s(bytes, &mut at, rows * cols)?);
            let vw = Matrix::from_vec(rows, cols, rd_f32s(bytes, &mut at, rows * cols)?);
            let b = rd_f32s(bytes, &mut at, cols)?;
            let vb = rd_f32s(bytes, &mut at, cols)?;
            layers.push(Dense {
                w,
                b,
                vw,
                vb,
                relu,
                input: Matrix::zeros(0, 0),
                pre: Matrix::zeros(0, 0),
            });
        }
        if at != bytes.len() || layers.is_empty() {
            return None;
        }
        Some(Mlp { layers, classes })
    }

    /// Classification accuracy on (x, labels).
    pub fn accuracy(&mut self, x: &Matrix, labels: &[u8]) -> f64 {
        let logits = self.forward(x, false);
        let mut correct = 0usize;
        for (r, &y) in labels.iter().enumerate() {
            let row = logits.row(r);
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap();
            if pred == y as usize {
                correct += 1;
            }
        }
        correct as f64 / labels.len().max(1) as f64
    }
}

fn rd_u32(b: &[u8], at: &mut usize) -> Option<u32> {
    let v = u32::from_le_bytes(b.get(*at..*at + 4)?.try_into().ok()?);
    *at += 4;
    Some(v)
}

fn rd_f32s(b: &[u8], at: &mut usize, n: usize) -> Option<Vec<f32>> {
    let s = b.get(*at..*at + n * 4)?;
    *at += n * 4;
    Some(
        s.chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect(),
    )
}

/// Softmax cross-entropy: returns (mean loss, dL/dlogits).
pub fn softmax_xent(logits: &Matrix, labels: &[u8]) -> (f32, Matrix) {
    assert_eq!(logits.rows, labels.len());
    let mut grad = Matrix::zeros(logits.rows, logits.cols);
    let mut loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        let row = logits.row(r);
        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|v| (v - m).exp()).collect();
        let sum: f32 = exps.iter().sum();
        let y = label as usize;
        loss += -(exps[y] / sum).max(1e-12).ln();
        for (c, &e) in exps.iter().enumerate() {
            let p = e / sum;
            grad.data[r * logits.cols + c] = p - if c == y { 1.0 } else { 0.0 };
        }
    }
    (loss / logits.rows.max(1) as f32, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Matrix, Vec<u8>) {
        // Blown-up XOR: 4 clusters, 2 classes.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut rng = SplitMix64::new(1);
        for _ in 0..200 {
            let a = rng.below(2) as f32;
            let b = rng.below(2) as f32;
            let noise = || (SplitMix64::new(0), 0.0).1; // no noise needed
            let _ = noise;
            xs.extend_from_slice(&[a * 2.0 - 1.0, b * 2.0 - 1.0]);
            ys.push((a as u8) ^ (b as u8));
        }
        (Matrix::from_vec(200, 2, xs), ys)
    }

    #[test]
    fn softmax_xent_gradient_sums_to_zero() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0]);
        let (loss, grad) = softmax_xent(&logits, &[2, 0]);
        assert!(loss > 0.0);
        // Each row of the gradient sums to zero.
        for r in 0..2 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-5);
        }
        // Perfect prediction → near-zero loss.
        let confident = Matrix::from_vec(1, 2, vec![20.0, -20.0]);
        let (l2, _) = softmax_xent(&confident, &[0]);
        assert!(l2 < 1e-3);
    }

    #[test]
    fn mlp_learns_xor() {
        let (x, y) = xor_data();
        let mut net = Mlp::new(&[2, 16, 2], 7);
        let before = net.accuracy(&x, &y);
        for _ in 0..300 {
            net.train_step(&x, &y, 0.1, 0.9);
        }
        let after = net.accuracy(&x, &y);
        assert!(after > 0.98, "before {before} after {after}");
    }

    #[test]
    fn train_step_reduces_loss() {
        let (x, y) = xor_data();
        let mut net = Mlp::new(&[2, 8, 2], 3);
        let first = net.train_step(&x, &y, 0.05, 0.0);
        let mut last = first;
        for _ in 0..100 {
            last = net.train_step(&x, &y, 0.05, 0.0);
        }
        assert!(last < first * 0.8, "first {first} last {last}");
    }

    #[test]
    fn state_roundtrip_continues_bit_identically() {
        let (x, y) = xor_data();
        let mut net = Mlp::new(&[2, 16, 2], 7);
        for _ in 0..50 {
            net.train_step(&x, &y, 0.1, 0.9);
        }
        let bytes = net.state_bytes();
        let mut back = Mlp::from_state_bytes(&bytes).unwrap();
        assert_eq!(back.classes, 2);
        // Identical next step (weights AND momentum restored)…
        let la = net.train_step(&x, &y, 0.1, 0.9);
        let lb = back.train_step(&x, &y, 0.1, 0.9);
        assert_eq!(la, lb);
        // …and identical state afterwards.
        assert_eq!(net.state_bytes(), back.state_bytes());
        // Truncated input is rejected, not misparsed.
        assert!(Mlp::from_state_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(Mlp::from_state_bytes(&[]).is_none());
    }

    #[test]
    fn deterministic_init() {
        let a = Mlp::new(&[4, 8, 3], 11);
        let b = Mlp::new(&[4, 8, 3], 11);
        let c = Mlp::new(&[4, 8, 3], 12);
        assert_eq!(a.layers[0].w.data, b.layers[0].w.data);
        assert_ne!(a.layers[0].w.data, c.layers[0].w.data);
    }
}
