//! The per-example reference trainer: the independent oracle for the
//! lane engine and the baseline of `bench_perf`'s `lstm` and `math` arms.
//!
//! [`NaiveLstm`] backpropagates one example at a time with a
//! `Vec<Vec<f32>>` activation trace and fresh allocations every timestep,
//! through the public scalar [`Mat`] kernels (`matvec_bias_acc`,
//! `outer_acc_bias`, `matvec_t_narrow`) whose per-element operation order
//! the lane engine keeps. [`NaiveClassifier`] puts the production
//! [`Dense`] head on it and trains like [`crate::SeqClassifier`], so the
//! two leave bit-identical weights after any number of epochs.
//!
//! The cell update, [`lstm_cell`], calls the host's libm (`f32::exp`,
//! `f32::tanh`) on purpose: the production cell uses [`crate::math`], so
//! every bit-identity check against this module also checks those ports
//! against libm.
//!
//! Initialization draws the RNG in the same order as [`crate::Lstm::new`]
//! and [`crate::SeqClassifier::new`], so equally-seeded RNGs give
//! identical starting weights.

use crate::dense::Dense;
use crate::loss::softmax_cross_entropy;
use crate::mat::Mat;
use crate::optim::{Adam, AdamConfig};
use crate::SeqExample;
use rand::Rng;

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// One LSTM cell update with libm's `exp`/`tanh`: `gates` holds the
/// stacked `[i, f, g, o]` pre-activations (`4 × c.len()`) and is
/// overwritten with the activations, `c` goes from `c_{t-1}` to `c_t`,
/// and `h` receives `o·tanh(c_t)`. The update is elementwise, so any
/// SoA block of [`crate::lstm_cell_soa`] is a valid input.
///
/// # Panics
///
/// Panics on buffer lengths that do not match `c.len()`.
pub fn lstm_cell(gates: &mut [f32], c: &mut [f32], h: &mut [f32]) {
    let n = c.len();
    assert_eq!(gates.len(), 4 * n, "lstm_cell gates length");
    assert_eq!(h.len(), n, "lstm_cell h length");
    for j in 0..n {
        let i_g = sigmoid(gates[j]);
        let f_g = sigmoid(gates[n + j]);
        let g_g = gates[2 * n + j].tanh();
        let o_g = sigmoid(gates[3 * n + j]);
        (gates[j], gates[n + j], gates[2 * n + j], gates[3 * n + j]) = (i_g, f_g, g_g, o_g);
        c[j] = f_g * c[j] + i_g * g_g;
        h[j] = o_g * c[j].tanh();
    }
}

/// Activation trace of a [`NaiveLstm`] forward pass: one heap vector per
/// timestep per quantity.
#[derive(Debug, Clone, Default)]
pub struct NaiveTrace {
    xs: Vec<Vec<f32>>,
    hs: Vec<Vec<f32>>,    // h_0 .. h_T (h_0 = zeros)
    cs: Vec<Vec<f32>>,    // c_0 .. c_T
    gates: Vec<Vec<f32>>, // per step: [i, f, g, o] post-nonlinearity
}

impl NaiveTrace {
    /// Hidden state after step `t` (0-based step index).
    ///
    /// # Panics
    ///
    /// Panics when `t` is out of range.
    #[must_use]
    pub fn hidden(&self, t: usize) -> &[f32] {
        &self.hs[t + 1]
    }

    /// Number of timesteps traced.
    #[must_use]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// The per-example single-layer LSTM (see the module docs).
#[derive(Debug, Clone)]
pub struct NaiveLstm {
    input: usize,
    hidden: usize,
    w: Mat,
    grad: Mat,
    adam: Adam,
}

impl NaiveLstm {
    /// Creates an LSTM with Xavier-initialized weights, identical to
    /// [`crate::Lstm::new`] for the same RNG state.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        input: usize,
        hidden: usize,
        rng: &mut R,
        adam: AdamConfig,
    ) -> Self {
        let cols = input + hidden + 1;
        let mut w = Mat::xavier(4 * hidden, cols, rng);
        // Forget-gate bias = +1.
        for r in hidden..2 * hidden {
            *w.get_mut(r, cols - 1) = 1.0;
        }
        let len = w.as_slice().len();
        NaiveLstm {
            input,
            hidden,
            w,
            grad: Mat::zeros(4 * hidden, cols),
            adam: Adam::new(len, adam),
        }
    }

    /// Hidden dimensionality.
    #[must_use]
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Weight matrix (`4·hidden × (input + hidden + 1)`).
    #[must_use]
    pub fn weights(&self) -> &Mat {
        &self.w
    }

    /// Accumulated weight gradient (flat), for cross-checking against the
    /// optimized implementation.
    #[must_use]
    pub fn grad_slice(&self) -> &[f32] {
        self.grad.as_slice()
    }

    /// Runs the layer over `xs`, returning the activation trace.
    ///
    /// # Panics
    ///
    /// Panics if any input vector has the wrong dimensionality.
    #[must_use]
    pub fn forward(&self, xs: &[Vec<f32>]) -> NaiveTrace {
        let h = self.hidden;
        let mut trace = NaiveTrace {
            xs: xs.to_vec(),
            hs: vec![vec![0.0; h]],
            cs: vec![vec![0.0; h]],
            gates: Vec::with_capacity(xs.len()),
        };
        for x in xs {
            assert_eq!(x.len(), self.input, "lstm input dimension");
            let mut concat = x.clone();
            concat.extend_from_slice(trace.hs.last().expect("h_0 exists"));
            let mut gates = vec![0.0f32; 4 * h];
            self.w.matvec_bias_acc(&concat, &mut gates);
            let mut c = trace.cs.last().expect("c_0 exists").clone();
            let mut hv = vec![0.0f32; h];
            lstm_cell(&mut gates, &mut c, &mut hv);
            trace.gates.push(gates);
            trace.cs.push(c);
            trace.hs.push(hv);
        }
        trace
    }

    /// Backpropagates through the traced sequence (`dh` per timestep).
    ///
    /// # Panics
    ///
    /// Panics if `dh` does not match the trace length or hidden size.
    pub fn backward(&mut self, trace: &NaiveTrace, dh: &[Vec<f32>]) {
        let h = self.hidden;
        let steps = trace.len();
        assert_eq!(dh.len(), steps, "dh length");
        let mut dh_next = vec![0.0f32; h];
        let mut dc_next = vec![0.0f32; h];
        for t in (0..steps).rev() {
            assert_eq!(dh[t].len(), h, "dh dimension");
            let c = &trace.cs[t + 1];
            let c_prev = &trace.cs[t];
            let gates = &trace.gates[t];
            let mut dpre = vec![0.0f32; 4 * h];
            for j in 0..h {
                let dh_total = dh[t][j] + dh_next[j];
                let i_g = gates[j];
                let f_g = gates[h + j];
                let g_g = gates[2 * h + j];
                let o_g = gates[3 * h + j];
                let tc = c[j].tanh();
                let dc = dh_total * o_g * (1.0 - tc * tc) + dc_next[j];
                dpre[j] = dc * g_g * i_g * (1.0 - i_g);
                dpre[h + j] = dc * c_prev[j] * f_g * (1.0 - f_g);
                dpre[2 * h + j] = dc * i_g * (1.0 - g_g * g_g);
                dpre[3 * h + j] = dh_total * tc * o_g * (1.0 - o_g);
                dc_next[j] = dc * f_g;
            }
            let mut concat = trace.xs[t].clone();
            concat.extend_from_slice(&trace.hs[t]);
            self.grad.outer_acc_bias(&dpre, &concat, 1.0);
            let mut dconcat = vec![0.0f32; self.input + h];
            self.w.matvec_t_narrow(&dpre, &mut dconcat);
            dh_next.copy_from_slice(&dconcat[self.input..]);
        }
    }

    /// Applies accumulated gradients (scaled by `1/batch`) with Adam and
    /// clears the buffer.
    pub fn apply_grads(&mut self, batch: usize) {
        let scale = 1.0 / batch.max(1) as f32;
        for g in self.grad.as_mut_slice() {
            *g *= scale;
        }
        let mut flat = std::mem::replace(&mut self.grad, Mat::zeros(0, 0));
        self.adam.step(self.w.as_mut_slice(), flat.as_mut_slice());
        flat.fill_zero();
        self.grad = flat;
    }
}

/// The per-example [`crate::SeqClassifier`]: a [`NaiveLstm`] and a
/// [`Dense`] head, trained one example at a time.
#[derive(Debug, Clone)]
pub struct NaiveClassifier {
    lstm: NaiveLstm,
    head: Dense,
}

impl NaiveClassifier {
    /// Creates a classifier with the initial weights
    /// [`crate::SeqClassifier::new`] draws from the same RNG state.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        input: usize,
        hidden: usize,
        classes: usize,
        rng: &mut R,
        adam: AdamConfig,
    ) -> Self {
        NaiveClassifier {
            lstm: NaiveLstm::new(input, hidden, rng, adam),
            head: Dense::new(hidden, classes, rng, adam),
        }
    }

    /// The recurrent layer.
    #[must_use]
    pub fn lstm(&self) -> &NaiveLstm {
        &self.lstm
    }

    /// The output head.
    #[must_use]
    pub fn head(&self) -> &Dense {
        &self.head
    }

    /// [`crate::SeqClassifier::train_epoch`] one example at a time:
    /// forward, softmax cross-entropy on the last step, backward, and a
    /// gradient step every `batch` examples (`0` = one minibatch).
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence.
    pub fn train_epoch(&mut self, examples: &[SeqExample], batch: usize) -> f32 {
        let batch = if batch == 0 { examples.len() } else { batch };
        let mut total = 0.0f32;
        for chunk in examples.chunks(batch.max(1)) {
            for ex in chunk {
                assert!(!ex.xs.is_empty(), "cannot classify an empty sequence");
                let trace = self.lstm.forward(&ex.xs);
                let last = trace.hidden(trace.len() - 1);
                let (loss, dlogits) = softmax_cross_entropy(&self.head.forward(last), ex.label);
                total += loss;
                let mut dh = vec![vec![0.0f32; self.lstm.hidden]; trace.len()];
                dh[trace.len() - 1] = self.head.backward(last, &dlogits);
                self.lstm.backward(&trace, &dh);
            }
            self.lstm.apply_grads(chunk.len());
            self.head.apply_grads(chunk.len());
        }
        total / examples.len().max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// `out += m * x`, one scalar multiply-add at a time.
    fn matvec_acc_naive(m: &Mat, x: &[f32], out: &mut [f32]) {
        for (r, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (w, xi) in m.row(r).iter().zip(x) {
                acc += w * xi;
            }
            *o += acc;
        }
    }

    /// `out += mᵀ * g`, row by row.
    fn matvec_t_acc_naive(m: &Mat, g: &[f32], out: &mut [f32]) {
        for (r, &gr) in g.iter().enumerate() {
            if gr == 0.0 {
                continue;
            }
            for (o, w) in out.iter_mut().zip(m.row(r)) {
                *o += gr * w;
            }
        }
    }

    /// `m += scale * g ⊗ x`, element by element.
    fn outer_acc_naive(m: &mut Mat, g: &[f32], x: &[f32], scale: f32) {
        for (r, &gv) in g.iter().enumerate() {
            let gr = gv * scale;
            if gr == 0.0 {
                continue;
            }
            for (c, xi) in x.iter().enumerate() {
                *m.get_mut(r, c) += gr * xi;
            }
        }
    }

    /// Differential check of the blocked [`Mat`] kernels against this
    /// module's naive scalar loops at row counts that are **not**
    /// multiples of four (the block width), so the remainder paths are
    /// exercised against the oracle and not just against themselves.
    #[test]
    fn blocked_kernels_match_naive_oracle_at_unaligned_rows() {
        let mut rng = SmallRng::seed_from_u64(41);
        for (rows, cols) in [(1, 4), (2, 7), (3, 3), (5, 8), (6, 2), (9, 5), (11, 11)] {
            let m = Mat::xavier(rows, cols, &mut rng);
            let x: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.9).cos()).collect();
            let g: Vec<f32> = (0..rows)
                .map(|r| {
                    if r % 4 == 1 {
                        0.0
                    } else {
                        (r as f32 * 0.6).sin()
                    }
                })
                .collect();

            let mut fast = vec![0.0f32; rows];
            m.matvec_acc(&x, &mut fast);
            let mut naive = vec![0.0f32; rows];
            matvec_acc_naive(&m, &x, &mut naive);
            for (r, (&got, &want)) in fast.iter().zip(&naive).enumerate() {
                assert!(
                    (got - want).abs() < 1e-5,
                    "matvec[{r}] at {rows}x{cols}: {got} vs {want}"
                );
            }

            let mut t_fast = vec![0.0f32; cols];
            m.matvec_t_acc(&g, &mut t_fast);
            let mut t_naive = vec![0.0f32; cols];
            matvec_t_acc_naive(&m, &g, &mut t_naive);
            for (c, (&got, &want)) in t_fast.iter().zip(&t_naive).enumerate() {
                assert!(
                    (got - want).abs() < 1e-5,
                    "matvec_t[{c}] at {rows}x{cols}: {got} vs {want}"
                );
            }

            let mut fast_outer = Mat::zeros(rows, cols);
            fast_outer.outer_acc(&g, &x, 0.25);
            let mut naive_outer = Mat::zeros(rows, cols);
            outer_acc_naive(&mut naive_outer, &g, &x, 0.25);
            for r in 0..rows {
                for c in 0..cols {
                    let (got, want) = (fast_outer.get(r, c), naive_outer.get(r, c));
                    assert!(
                        (got - want).abs() < 1e-6,
                        "outer[{r},{c}] at {rows}x{cols}: {got} vs {want}"
                    );
                }
            }
        }
    }

    /// The per-example classifier leaves the lane-batched
    /// `SeqClassifier` bit-identical weights, ragged lengths and a
    /// partial last minibatch included.
    #[test]
    fn naive_classifier_trains_bit_identically() {
        let (input, hidden, classes) = (3, 6, 4);
        let examples: Vec<SeqExample> = (0..11)
            .map(|i| SeqExample {
                xs: (0..1 + (i * 5) % 9)
                    .map(|t| {
                        (0..input)
                            .map(|k| ((i * 31 + t * 7 + k) as f32 * 0.37).sin())
                            .collect()
                    })
                    .collect(),
                label: i % classes,
            })
            .collect();
        let adam = AdamConfig::default();
        let mut fast = crate::SeqClassifier::new(
            input,
            hidden,
            classes,
            &mut SmallRng::seed_from_u64(3),
            adam,
        );
        let mut naive = NaiveClassifier::new(
            input,
            hidden,
            classes,
            &mut SmallRng::seed_from_u64(3),
            adam,
        );
        for _ in 0..3 {
            let (a, b) = (
                fast.train_epoch(&examples, 4),
                naive.train_epoch(&examples, 4),
            );
            assert_eq!(a.to_bits(), b.to_bits(), "loss {a} vs {b}");
        }
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(fast.lstm().weights()), bits(naive.lstm().weights()));
        assert_eq!(bits(fast.head().weights()), bits(naive.head().weights()));
    }
}
