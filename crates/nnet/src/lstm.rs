//! LSTM and bidirectional LSTM layers with truncated-free full BPTT.

use crate::lanes::{self, LaneGrads, LaneTrace};
use crate::mat::Mat;
use crate::optim::{Adam, AdamConfig};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A single-layer LSTM.
///
/// Gate layout in the stacked weight matrix is `[i, f, g, o]` over the
/// concatenated input `[x, h_prev, 1]` (the trailing 1 folds the bias in).
/// The forget-gate bias is initialized to +1, the standard trick for
/// stable early training.
///
/// Forward and backward passes run through the lane engine: training
/// runs a whole minibatch as SoA lanes, and [`Lstm::forward`] and the
/// `backward*` methods are its one-lane case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lstm {
    input: usize,
    hidden: usize,
    /// `4h × (input + hidden + 1)` stacked gate weights.
    w: Mat,
    grad: Mat,
    adam: Adam,
}

/// Cached activations of one forward pass (needed by BPTT): a one-lane
/// lane-engine trace, so all per-timestep state lives in flat buffers
/// and a forward pass performs a fixed number of allocations regardless
/// of sequence length.
#[derive(Debug, Clone, Default)]
pub struct LstmTrace {
    lanes: LaneTrace,
}

impl LstmTrace {
    /// Hidden state after step `t` (0-based step index).
    ///
    /// # Panics
    ///
    /// Panics when `t` is out of range.
    #[must_use]
    pub fn hidden(&self, t: usize) -> &[f32] {
        self.lanes.hidden_one(t)
    }

    /// Number of timesteps traced.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes.steps()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes.steps() == 0
    }
}

impl Lstm {
    /// Creates an LSTM with Xavier-initialized weights.
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
        Lstm {
            input,
            hidden,
            w,
            grad: Mat::zeros(4 * hidden, cols),
            adam: Adam::new(len, adam),
        }
    }

    /// Input dimensionality.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.input
    }

    /// Hidden dimensionality.
    #[must_use]
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// The stacked `4h × (input + hidden + 1)` gate weight matrix
    /// (`[i, f, g, o]` row blocks, bias folded into the last column).
    ///
    /// Read-only access for inference engines that replicate the forward
    /// pass outside this struct (e.g. the streaming server in
    /// `crates/serve`, which must reproduce [`Lstm::forward`]
    /// bit-for-bit).
    #[must_use]
    pub fn weights(&self) -> &Mat {
        &self.w
    }

    /// The gradient accumulated since the last [`Lstm::apply_grads`], in
    /// the layout of [`Lstm::weights`] (read-only, for parity tests).
    #[must_use]
    pub fn grads(&self) -> &Mat {
        &self.grad
    }

    /// Runs the layer over `xs`, returning the activation trace.
    ///
    /// # Panics
    ///
    /// Panics if any input vector has the wrong dimensionality.
    #[must_use]
    pub fn forward(&self, xs: &[Vec<f32>]) -> LstmTrace {
        self.forward_one(xs, false)
    }

    /// One-lane forward pass, reading `xs` back to front with `reverse`.
    fn forward_one(&self, xs: &[Vec<f32>], reverse: bool) -> LstmTrace {
        let mut trace = LstmTrace::default();
        self.forward_lanes(&mut trace.lanes, 1, |_| xs, reverse);
        trace
    }

    /// Runs the layer over a minibatch of `lanes` sequences at once
    /// (`seq(e)` is example `e`'s), reusing `trace`'s buffers.
    pub(crate) fn forward_lanes<'a>(
        &self,
        trace: &mut LaneTrace,
        lanes: usize,
        seq: impl Fn(usize) -> &'a [Vec<f32>],
        reverse: bool,
    ) {
        trace.forward(&self.w, self.input, self.hidden, lanes, seq, reverse);
    }

    /// Backpropagates a minibatch traced by [`Lstm::forward_lanes`];
    /// `dh` is laid out per step as [`LaneTrace::scatter`] writes it.
    pub(crate) fn backward_lanes(
        &mut self,
        trace: &LaneTrace,
        dh: &[f32],
        scratch: &mut LaneGrads,
    ) {
        lanes::backward(trace, &self.w, &mut self.grad, dh, scratch);
    }

    /// Backpropagates through the traced sequence.
    ///
    /// `dh` holds the loss gradient w.r.t. each timestep's hidden output
    /// (zero vectors for unused steps). Gradients accumulate into the
    /// layer's internal buffer until [`Lstm::apply_grads`].
    ///
    /// # Panics
    ///
    /// Panics if `dh` does not match the trace length or hidden size.
    pub fn backward(&mut self, trace: &LstmTrace, dh: &[Vec<f32>]) {
        assert_eq!(dh.len(), trace.len(), "dh length");
        for d in dh {
            assert_eq!(d.len(), self.hidden, "dh dimension");
        }
        self.backward_flat(trace, &dh.concat());
    }

    /// Backpropagates a gradient applied only at the final hidden state —
    /// the many-to-one classifier case.
    ///
    /// # Panics
    ///
    /// Panics if `dh_last` does not match the hidden size.
    pub fn backward_last(&mut self, trace: &LstmTrace, dh_last: &[f32]) {
        assert_eq!(dh_last.len(), self.hidden, "dh dimension");
        let mut dh = vec![0.0f32; trace.len() * self.hidden];
        if let Some(last) = dh.rchunks_exact_mut(self.hidden).next() {
            last.copy_from_slice(dh_last);
        }
        self.backward_flat(trace, &dh);
    }

    /// Backpropagates per-timestep gradients given as one flat
    /// `trace.len() × hidden` buffer.
    ///
    /// # Panics
    ///
    /// Panics if `dh` does not match the trace length times hidden size.
    pub fn backward_flat(&mut self, trace: &LstmTrace, dh: &[f32]) {
        assert_eq!(dh.len(), trace.len() * self.hidden, "dh length");
        self.backward_lanes(&trace.lanes, dh, &mut LaneGrads::default());
    }

    /// Applies accumulated gradients (scaled by `1/batch`) with Adam and
    /// clears the buffer.
    pub fn apply_grads(&mut self, batch: usize) {
        let scale = 1.0 / batch.max(1) as f32;
        for g in self.grad.as_mut_slice() {
            *g *= scale;
        }
        let grads = std::mem::replace(&mut self.grad, Mat::zeros(0, 0));
        let mut flat = grads;
        self.adam.step(self.w.as_mut_slice(), flat.as_mut_slice());
        flat.fill_zero();
        self.grad = flat;
    }
}

/// A bidirectional LSTM: forward and reverse passes concatenated per
/// timestep (output dimension `2 × hidden`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BiLstm {
    fwd: Lstm,
    bwd: Lstm,
}

/// Cached activations of a bidirectional pass.
#[derive(Debug, Clone, Default)]
pub struct BiLstmTrace {
    fwd: LstmTrace,
    bwd: LstmTrace,
    len: usize,
}

impl BiLstmTrace {
    /// Concatenated `[h_fwd(t), h_bwd(t)]` output at timestep `t`.
    #[must_use]
    pub fn output(&self, t: usize) -> Vec<f32> {
        let mut out = self.fwd.hidden(t).to_vec();
        out.extend_from_slice(self.bwd.hidden(self.len - 1 - t));
        out
    }

    /// Writes the concatenated output at timestep `t` into `out`
    /// (allocation-free variant of [`BiLstmTrace::output`]).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not `2 × hidden` or `t` is out of range.
    pub fn output_into(&self, t: usize, out: &mut [f32]) {
        let f = self.fwd.hidden(t);
        let b = self.bwd.hidden(self.len - 1 - t);
        out[..f.len()].copy_from_slice(f);
        out[f.len()..].copy_from_slice(b);
    }

    /// Number of timesteps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl BiLstm {
    /// Creates a bidirectional LSTM.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        input: usize,
        hidden: usize,
        rng: &mut R,
        adam: AdamConfig,
    ) -> Self {
        BiLstm {
            fwd: Lstm::new(input, hidden, rng, adam),
            bwd: Lstm::new(input, hidden, rng, adam),
        }
    }

    /// The forward-direction layer (read-only).
    #[must_use]
    pub fn forward_lstm(&self) -> &Lstm {
        &self.fwd
    }

    /// The reverse-direction layer, which reads each sequence back to
    /// front (read-only).
    #[must_use]
    pub fn reverse_lstm(&self) -> &Lstm {
        &self.bwd
    }

    /// Output dimensionality (`2 × hidden`).
    #[must_use]
    pub fn output_dim(&self) -> usize {
        2 * self.fwd.hidden_dim()
    }

    /// Runs both directions over `xs`.
    #[must_use]
    pub fn forward(&self, xs: &[Vec<f32>]) -> BiLstmTrace {
        BiLstmTrace {
            fwd: self.fwd.forward_one(xs, false),
            bwd: self.bwd.forward_one(xs, true),
            len: xs.len(),
        }
    }

    /// Backpropagates per-timestep output gradients (`d_out[t]` has
    /// dimension `2 × hidden`).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn backward(&mut self, trace: &BiLstmTrace, d_out: &[Vec<f32>]) {
        let h = self.fwd.hidden_dim();
        assert_eq!(d_out.len(), trace.len(), "d_out length");
        for d in d_out {
            assert_eq!(d.len(), 2 * h, "d_out dimension");
        }
        self.backward_flat(trace, &d_out.concat());
    }

    /// Like [`BiLstm::backward`] with the output gradients in one flat
    /// `trace.len() × 2·hidden` buffer.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn backward_flat(&mut self, trace: &BiLstmTrace, d_out: &[f32]) {
        let h = self.fwd.hidden_dim();
        let steps = trace.len();
        assert_eq!(d_out.len(), steps * 2 * h, "d_out length");
        let mut dh_fwd = vec![0.0f32; steps * h];
        let mut dh_bwd = vec![0.0f32; steps * h];
        for (t, d) in d_out.chunks_exact(2 * h).enumerate() {
            dh_fwd[t * h..(t + 1) * h].copy_from_slice(&d[..h]);
            let rt = steps - 1 - t;
            dh_bwd[rt * h..(rt + 1) * h].copy_from_slice(&d[h..]);
        }
        self.fwd.backward_flat(&trace.fwd, &dh_fwd);
        self.bwd.backward_flat(&trace.bwd, &dh_bwd);
    }

    /// The two directions, mutably (for the lane-engine trainer).
    pub(crate) fn layers_mut(&mut self) -> (&mut Lstm, &mut Lstm) {
        (&mut self.fwd, &mut self.bwd)
    }

    /// Applies accumulated gradients in both directions.
    pub fn apply_grads(&mut self, batch: usize) {
        self.fwd.apply_grads(batch);
        self.bwd.apply_grads(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let lstm = Lstm::new(3, 5, &mut rng, AdamConfig::default());
        let xs = vec![vec![0.1, 0.2, 0.3]; 7];
        let trace = lstm.forward(&xs);
        assert_eq!(trace.len(), 7);
        assert_eq!(trace.hidden(6).len(), 5);
        assert_eq!(lstm.input_dim(), 3);
        assert_eq!(lstm.hidden_dim(), 5);
    }

    #[test]
    fn hidden_states_are_bounded() {
        let mut rng = SmallRng::seed_from_u64(2);
        let lstm = Lstm::new(2, 4, &mut rng, AdamConfig::default());
        let xs: Vec<Vec<f32>> = (0..50).map(|i| vec![(i as f32).sin(), 1.0]).collect();
        let trace = lstm.forward(&xs);
        for t in 0..trace.len() {
            for &v in trace.hidden(t) {
                assert!(v.abs() <= 1.0, "lstm hidden out of tanh range: {v}");
            }
        }
    }

    /// Finite-difference check of the LSTM gradient on a tiny network.
    #[test]
    fn bptt_matches_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut lstm = Lstm::new(2, 3, &mut rng, AdamConfig::default());
        let xs = vec![vec![0.5, -0.3], vec![0.1, 0.9], vec![-0.7, 0.2]];
        // Loss = sum of final hidden state.
        let loss = |l: &Lstm| -> f32 { l.forward(&xs).hidden(2).iter().sum() };
        let trace = lstm.forward(&xs);
        let mut dh = vec![vec![0.0; 3]; 3];
        dh[2] = vec![1.0; 3];
        lstm.backward(&trace, &dh);
        // Compare a few analytic gradient entries to finite differences.
        let eps = 1e-3f32;
        for idx in [0usize, 7, 20, 41] {
            let analytic = lstm.grad.as_slice()[idx];
            let mut perturbed = lstm.clone();
            perturbed.w.as_mut_slice()[idx] += eps;
            let up = loss(&perturbed);
            perturbed.w.as_mut_slice()[idx] -= 2.0 * eps;
            let down = loss(&perturbed);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2,
                "grad[{idx}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn bilstm_output_concatenates_directions() {
        let mut rng = SmallRng::seed_from_u64(4);
        let bi = BiLstm::new(2, 3, &mut rng, AdamConfig::default());
        let xs = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
        let trace = bi.forward(&xs);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.output(0).len(), 6);
        assert_eq!(bi.output_dim(), 6);
        // The backward direction at t=0 saw the whole reversed sequence.
        let full_bwd = bi
            .bwd
            .forward(&[xs[2].clone(), xs[1].clone(), xs[0].clone()]);
        assert_eq!(&trace.output(0)[3..], full_bwd.hidden(2));
    }

    /// The optimized forward/backward must agree with the naive reference
    /// implementation (identical weights, same inputs) to float tolerance.
    #[test]
    fn optimized_path_matches_naive_reference() {
        use crate::reference::NaiveLstm;
        let mut rng_a = SmallRng::seed_from_u64(9);
        let mut rng_b = SmallRng::seed_from_u64(9);
        let mut fast = Lstm::new(3, 6, &mut rng_a, AdamConfig::default());
        let mut naive = NaiveLstm::new(3, 6, &mut rng_b, AdamConfig::default());
        let xs: Vec<Vec<f32>> = (0..12)
            .map(|t| (0..3).map(|k| ((t * 3 + k) as f32 * 0.37).sin()).collect())
            .collect();
        let ft = fast.forward(&xs);
        let nt = naive.forward(&xs);
        for t in 0..xs.len() {
            for (a, b) in ft.hidden(t).iter().zip(nt.hidden(t)) {
                assert!((a - b).abs() < 1e-5, "h[{t}]: {a} vs {b}");
            }
        }
        let mut dh = vec![vec![0.0f32; 6]; xs.len()];
        dh[xs.len() - 1] = vec![1.0; 6];
        fast.backward(&ft, &dh);
        naive.backward(&nt, &dh);
        for (i, (a, b)) in fast
            .grad
            .as_slice()
            .iter()
            .zip(naive.grad_slice())
            .enumerate()
        {
            assert!((a - b).abs() < 1e-4, "grad[{i}]: {a} vs {b}");
        }
        // backward_last is equivalent to a per-step dh that is zero
        // everywhere but the final step.
        let mut fast2 = {
            let mut rng = SmallRng::seed_from_u64(9);
            Lstm::new(3, 6, &mut rng, AdamConfig::default())
        };
        let ft2 = fast2.forward(&xs);
        fast2.backward_last(&ft2, &[1.0; 6]);
        assert_eq!(fast2.grad.as_slice(), fast.grad.as_slice());
    }

    #[test]
    fn training_reduces_loss_on_a_toy_task() {
        // Learn to output +1 on the last step for ascending sequences and
        // -1 for descending ones (squared loss on h_T[0]).
        let mut rng = SmallRng::seed_from_u64(5);
        let mut lstm = Lstm::new(
            1,
            4,
            &mut rng,
            AdamConfig {
                lr: 0.05,
                ..AdamConfig::default()
            },
        );
        let make = |up: bool| -> Vec<Vec<f32>> {
            (0..6)
                .map(|i| vec![if up { i as f32 } else { 5.0 - i as f32 } / 5.0])
                .collect()
        };
        let loss_of = |l: &Lstm| {
            let mut total = 0.0f32;
            for (xs, target) in [(make(true), 1.0f32), (make(false), -1.0f32)] {
                let out = l.forward(&xs).hidden(5)[0];
                total += (out - target) * (out - target);
            }
            total
        };
        let initial = loss_of(&lstm);
        for _ in 0..150 {
            for (xs, target) in [(make(true), 1.0f32), (make(false), -1.0f32)] {
                let trace = lstm.forward(&xs);
                let out = trace.hidden(5)[0];
                let mut dh = vec![vec![0.0; 4]; 6];
                dh[5][0] = 2.0 * (out - target);
                lstm.backward(&trace, &dh);
            }
            lstm.apply_grads(2);
        }
        let trained = loss_of(&lstm);
        assert!(
            trained < initial * 0.2,
            "loss did not drop: {initial} -> {trained}"
        );
    }
}
