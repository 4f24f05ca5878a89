//! Bit-parity oracle tests for the lane engine: training a minibatch as
//! SoA lanes must leave every weight, gradient and loss bit-identical to
//! backpropagating one example at a time.
//!
//! The oracle below is the per-example trainer the lane engine replaced,
//! kept verbatim on the test side and built only from public `Mat`,
//! `Adam` and loss kernels: a scalar forward that stacks `[x, h_prev]`
//! and calls `matvec_bias_acc`, a backward that recomputes `tanh(c_t)`
//! and applies one `outer_acc_bias` rank-1 update per timestep, and the
//! classifiers' minibatch loops with their exact gradient scaling. The
//! same oracle pattern as `crates/serve/tests/parity.rs`.

use nnet::{
    softmax_cross_entropy_into, Adam, AdamConfig, Mat, SeqClassifier, SeqExample, SeqTagger,
    TaggedExample,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Activations of one oracle forward pass.
struct OracleTrace {
    xs: Vec<f32>,
    hs: Vec<f32>,
    cs: Vec<f32>,
    gates: Vec<f32>,
    steps: usize,
}

impl OracleTrace {
    fn hidden(&self, t: usize, h: usize) -> &[f32] {
        &self.hs[(t + 1) * h..(t + 2) * h]
    }
}

/// The per-example LSTM: same weights layout, same arithmetic order.
struct OracleLstm {
    input: usize,
    hidden: usize,
    w: Mat,
    grad: Mat,
    adam: Adam,
}

impl OracleLstm {
    fn from_weights(input: usize, hidden: usize, w: &Mat, adam: AdamConfig) -> Self {
        OracleLstm {
            input,
            hidden,
            w: w.clone(),
            grad: Mat::zeros(w.rows(), w.cols()),
            adam: Adam::new(w.as_slice().len(), adam),
        }
    }

    fn forward<'a>(&self, xs: impl ExactSizeIterator<Item = &'a [f32]>) -> OracleTrace {
        let (n, h) = (self.input, self.hidden);
        let steps = xs.len();
        let mut tr = OracleTrace {
            xs: Vec::with_capacity(steps * n),
            hs: vec![0.0; (steps + 1) * h],
            cs: vec![0.0; (steps + 1) * h],
            gates: vec![0.0; steps * 4 * h],
            steps,
        };
        let mut concat = vec![0.0f32; n + h];
        let mut pre = vec![0.0f32; 4 * h];
        for (t, x) in xs.enumerate() {
            tr.xs.extend_from_slice(x);
            concat[..n].copy_from_slice(x);
            concat[n..].copy_from_slice(&tr.hs[t * h..(t + 1) * h]);
            pre.fill(0.0);
            self.w.matvec_bias_acc(&concat, &mut pre);
            for j in 0..h {
                let i_g = sigmoid(pre[j]);
                let f_g = sigmoid(pre[h + j]);
                let g_g = pre[2 * h + j].tanh();
                let o_g = sigmoid(pre[3 * h + j]);
                let g = &mut tr.gates[t * 4 * h..(t + 1) * 4 * h];
                g[j] = i_g;
                g[h + j] = f_g;
                g[2 * h + j] = g_g;
                g[3 * h + j] = o_g;
                let cv = f_g * tr.cs[t * h + j] + i_g * g_g;
                tr.cs[(t + 1) * h + j] = cv;
                tr.hs[(t + 1) * h + j] = o_g * cv.tanh();
            }
        }
        tr
    }

    /// `dh(t)` is the output gradient at step `t`, `None` for none.
    fn backward<'a>(&mut self, tr: &OracleTrace, dh: impl Fn(usize) -> Option<&'a [f32]>) {
        let (n, h) = (self.input, self.hidden);
        let mut dh_next = vec![0.0f32; h];
        let mut dc_next = vec![0.0f32; h];
        let mut concat = vec![0.0f32; n + h];
        let mut dpre = vec![0.0f32; 4 * h];
        let mut dconcat = vec![0.0f32; n + h];
        for t in (0..tr.steps).rev() {
            let dh_t = dh(t);
            let c = &tr.cs[(t + 1) * h..(t + 2) * h];
            let c_prev = &tr.cs[t * h..(t + 1) * h];
            let gates = &tr.gates[t * 4 * h..(t + 1) * 4 * h];
            for j in 0..h {
                let dh_total = dh_t.map_or(0.0, |d| d[j]) + dh_next[j];
                let (i_g, f_g, g_g, o_g) =
                    (gates[j], gates[h + j], gates[2 * h + j], gates[3 * h + j]);
                let tc = c[j].tanh();
                let dc = dh_total * o_g * (1.0 - tc * tc) + dc_next[j];
                dpre[j] = dc * g_g * i_g * (1.0 - i_g);
                dpre[h + j] = dc * c_prev[j] * f_g * (1.0 - f_g);
                dpre[2 * h + j] = dc * i_g * (1.0 - g_g * g_g);
                dpre[3 * h + j] = dh_total * tc * o_g * (1.0 - o_g);
                dc_next[j] = dc * f_g;
            }
            concat[..n].copy_from_slice(&tr.xs[t * n..(t + 1) * n]);
            concat[n..].copy_from_slice(&tr.hs[t * h..(t + 1) * h]);
            self.grad.outer_acc_bias(&dpre, &concat, 1.0);
            dconcat.fill(0.0);
            self.w.matvec_t_narrow(&dpre, &mut dconcat);
            dh_next.copy_from_slice(&dconcat[n..]);
        }
    }

    fn apply(&mut self, batch: usize) {
        apply(&mut self.w, &mut self.grad, &mut self.adam, batch);
    }
}

/// The dense head: `matvec_bias_acc` forward, `outer_acc_bias` +
/// `matvec_t_narrow` backward.
struct OracleDense {
    w: Mat,
    grad: Mat,
    adam: Adam,
}

impl OracleDense {
    fn from_weights(w: &Mat, adam: AdamConfig) -> Self {
        OracleDense {
            w: w.clone(),
            grad: Mat::zeros(w.rows(), w.cols()),
            adam: Adam::new(w.as_slice().len(), adam),
        }
    }

    fn forward(&self, x: &[f32], out: &mut [f32]) {
        out.fill(0.0);
        self.w.matvec_bias_acc(x, out);
    }

    fn backward(&mut self, x: &[f32], d_out: &[f32], dx: &mut [f32]) {
        self.grad.outer_acc_bias(d_out, x, 1.0);
        dx.fill(0.0);
        self.w.matvec_t_narrow(d_out, dx);
    }

    fn apply(&mut self, batch: usize) {
        apply(&mut self.w, &mut self.grad, &mut self.adam, batch);
    }
}

fn apply(w: &mut Mat, grad: &mut Mat, adam: &mut Adam, batch: usize) {
    let scale = 1.0 / batch.max(1) as f32;
    for g in grad.as_mut_slice() {
        *g *= scale;
    }
    adam.step(w.as_mut_slice(), grad.as_mut_slice());
    grad.fill_zero();
}

/// The per-example `SeqClassifier::train_epoch`.
fn oracle_classifier_epoch(
    lstm: &mut OracleLstm,
    head: &mut OracleDense,
    examples: &[SeqExample],
    batch: usize,
) -> f32 {
    let h = lstm.hidden;
    let classes = head.w.rows();
    let mut total = 0.0f32;
    let mut in_batch = 0usize;
    let mut logits = vec![0.0f32; classes];
    let mut dlogits = vec![0.0f32; classes];
    let mut dh_last = vec![0.0f32; h];
    for ex in examples {
        let tr = lstm.forward(ex.xs.iter().map(Vec::as_slice));
        let last = tr.steps - 1;
        head.forward(tr.hidden(last, h), &mut logits);
        total += softmax_cross_entropy_into(&logits, ex.label, &mut dlogits);
        head.backward(tr.hidden(last, h), &dlogits, &mut dh_last);
        lstm.backward(&tr, |t| (t == last).then_some(dh_last.as_slice()));
        in_batch += 1;
        if in_batch == batch {
            lstm.apply(batch);
            head.apply(batch);
            in_batch = 0;
        }
    }
    if in_batch > 0 {
        lstm.apply(in_batch);
        head.apply(in_batch);
    }
    total / examples.len().max(1) as f32
}

/// The per-example `SeqTagger::train_epoch`, including its head-scaling
/// quirk: a full minibatch's head gradient is scaled by `batch × len(last
/// example)`, the tail minibatch's by its example count.
fn oracle_tagger_epoch(
    fwd: &mut OracleLstm,
    bwd: &mut OracleLstm,
    head: &mut OracleDense,
    examples: &[TaggedExample],
    batch: usize,
) -> f32 {
    let h = fwd.hidden;
    let classes = head.w.rows();
    let mut total = 0.0f32;
    let mut steps = 0usize;
    let mut in_batch = 0usize;
    let mut features = vec![0.0f32; 2 * h];
    let mut logits = vec![0.0f32; classes];
    let mut dlogits = vec![0.0f32; classes];
    let mut d_out = vec![0.0f32; 2 * h];
    for ex in examples {
        let len = ex.xs.len();
        let tf = fwd.forward(ex.xs.iter().map(Vec::as_slice));
        let tb = bwd.forward(ex.xs.iter().rev().map(Vec::as_slice));
        let mut dh_fwd = vec![0.0f32; len * h];
        let mut dh_bwd = vec![0.0f32; len * h];
        for t in 0..len {
            features[..h].copy_from_slice(tf.hidden(t, h));
            features[h..].copy_from_slice(tb.hidden(len - 1 - t, h));
            head.forward(&features, &mut logits);
            total += softmax_cross_entropy_into(&logits, ex.tags[t], &mut dlogits);
            steps += 1;
            head.backward(&features, &dlogits, &mut d_out);
            dh_fwd[t * h..(t + 1) * h].copy_from_slice(&d_out[..h]);
            let rt = len - 1 - t;
            dh_bwd[rt * h..(rt + 1) * h].copy_from_slice(&d_out[h..]);
        }
        fwd.backward(&tf, |t| Some(&dh_fwd[t * h..(t + 1) * h]));
        bwd.backward(&tb, |t| Some(&dh_bwd[t * h..(t + 1) * h]));
        in_batch += 1;
        if in_batch == batch {
            fwd.apply(batch);
            bwd.apply(batch);
            head.apply(batch * len.max(1));
            in_batch = 0;
        }
    }
    if in_batch > 0 {
        fwd.apply(in_batch);
        bwd.apply(in_batch);
        head.apply(in_batch);
    }
    total / steps.max(1) as f32
}

#[track_caller]
fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
    }
}

fn random_seq(rng: &mut SmallRng, len: usize, input: usize) -> Vec<Vec<f32>> {
    (0..len)
        .map(|_| (0..input).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

const ADAM: AdamConfig = AdamConfig {
    lr: 0.02,
    beta1: 0.9,
    beta2: 0.999,
    eps: 1e-8,
    clip: 5.0,
};

/// 37 examples leave a partial last minibatch at every batch size but 1.
#[test]
fn classifier_training_is_bit_identical_to_per_example_bptt() {
    let (input, hidden, classes) = (2, 5, 4);
    for (batch, ragged) in [(1, false), (5, true), (16, false), (16, true), (17, true)] {
        let mut rng = SmallRng::seed_from_u64(0x1A4E + batch as u64);
        let examples: Vec<SeqExample> = (0..37)
            .map(|i| {
                let len = if ragged { 1 + (i * 7) % 13 } else { 12 };
                SeqExample {
                    xs: random_seq(&mut rng, len, input),
                    label: i % classes,
                }
            })
            .collect();
        let mut model = SeqClassifier::new(input, hidden, classes, &mut rng, ADAM);
        let mut lstm = OracleLstm::from_weights(input, hidden, model.lstm().weights(), ADAM);
        let mut head = OracleDense::from_weights(model.head().weights(), ADAM);
        for epoch in 0..4 {
            let got = model.train_epoch(&examples, batch);
            let want = oracle_classifier_epoch(&mut lstm, &mut head, &examples, batch);
            let what = format!("batch {batch} ragged {ragged} epoch {epoch}");
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what}: loss {got} vs {want}"
            );
            assert_bits(model.lstm().weights().as_slice(), lstm.w.as_slice(), &what);
            assert_bits(model.head().weights().as_slice(), head.w.as_slice(), &what);
        }
    }
}

/// Ragged tags with length-1 sequences, a minibatch whose longest
/// sequence comes first, and partial last minibatches.
#[test]
fn tagger_training_is_bit_identical_to_per_example_bptt() {
    let (input, hidden, classes) = (1, 5, 3);
    for batch in [1usize, 5, 16, 17] {
        let mut rng = SmallRng::seed_from_u64(0x7A66 + batch as u64);
        let mut lens: Vec<usize> = (0..37).map(|i| 1 + (i * 5) % 11).collect();
        lens[0] = 20; // the first minibatch opens with its longest sequence
        lens[3] = 1;
        let examples: Vec<TaggedExample> = lens
            .iter()
            .map(|&len| TaggedExample {
                xs: random_seq(&mut rng, len, input),
                tags: (0..len).map(|_| rng.gen_range(0..classes)).collect(),
            })
            .collect();
        let mut model = SeqTagger::new(input, hidden, classes, &mut rng, ADAM);
        let bi = model.bilstm();
        let mut fwd = OracleLstm::from_weights(input, hidden, bi.forward_lstm().weights(), ADAM);
        let mut bwd = OracleLstm::from_weights(input, hidden, bi.reverse_lstm().weights(), ADAM);
        let mut head = OracleDense::from_weights(model.head().weights(), ADAM);
        for epoch in 0..4 {
            let got = model.train_epoch(&examples, batch);
            let want = oracle_tagger_epoch(&mut fwd, &mut bwd, &mut head, &examples, batch);
            let what = format!("batch {batch} epoch {epoch}");
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what}: loss {got} vs {want}"
            );
            let bi = model.bilstm();
            assert_bits(
                bi.forward_lstm().weights().as_slice(),
                fwd.w.as_slice(),
                &what,
            );
            assert_bits(
                bi.reverse_lstm().weights().as_slice(),
                bwd.w.as_slice(),
                &what,
            );
            assert_bits(model.head().weights().as_slice(), head.w.as_slice(), &what);
        }
    }
}

/// The one-lane `Lstm::backward*` entry points accumulate exactly the
/// oracle's gradient, including on top of an earlier call's gradient.
#[test]
fn one_lane_backward_gradients_match_the_oracle() {
    let (input, hidden) = (3, 6);
    let mut rng = SmallRng::seed_from_u64(0xB0B);
    let mut lstm = nnet::Lstm::new(input, hidden, &mut rng, ADAM);
    let mut oracle = OracleLstm::from_weights(input, hidden, lstm.weights(), ADAM);
    for (round, len) in [9usize, 1, 14].into_iter().enumerate() {
        let xs = random_seq(&mut rng, len, input);
        let dh = random_seq(&mut rng, len, hidden);
        let flat: Vec<f32> = dh.concat();
        let trace = lstm.forward(&xs);
        let otr = oracle.forward(xs.iter().map(Vec::as_slice));
        for t in 0..len {
            assert_bits(trace.hidden(t), otr.hidden(t, hidden), "hidden state");
        }
        let what = format!("round {round}");
        lstm.backward(&trace, &dh);
        oracle.backward(&otr, |t| Some(dh[t].as_slice()));
        assert_bits(lstm.grads().as_slice(), oracle.grad.as_slice(), &what);
        lstm.backward_flat(&trace, &flat);
        oracle.backward(&otr, |t| Some(&flat[t * hidden..(t + 1) * hidden]));
        assert_bits(lstm.grads().as_slice(), oracle.grad.as_slice(), &what);
        lstm.backward_last(&trace, &dh[len - 1]);
        oracle.backward(&otr, |t| (t == len - 1).then_some(dh[len - 1].as_slice()));
        assert_bits(lstm.grads().as_slice(), oracle.grad.as_slice(), &what);
        lstm.apply_grads(2);
        oracle.apply(2);
        assert_bits(lstm.weights().as_slice(), oracle.w.as_slice(), &what);
    }
}

/// `BiLstm::backward` runs the reverse direction over each sequence back
/// to front, with the output gradient split and reversed to match.
#[test]
fn one_lane_bilstm_backward_matches_the_oracle() {
    let (input, hidden, len) = (2, 4, 7);
    let mut rng = SmallRng::seed_from_u64(0xB1);
    let mut bi = nnet::BiLstm::new(input, hidden, &mut rng, ADAM);
    let mut fwd = OracleLstm::from_weights(input, hidden, bi.forward_lstm().weights(), ADAM);
    let mut bwd = OracleLstm::from_weights(input, hidden, bi.reverse_lstm().weights(), ADAM);
    let xs = random_seq(&mut rng, len, input);
    let d_out = random_seq(&mut rng, len, 2 * hidden);
    let trace = bi.forward(&xs);
    let tf = fwd.forward(xs.iter().map(Vec::as_slice));
    let tb = bwd.forward(xs.iter().rev().map(Vec::as_slice));
    for (t, d) in d_out.iter().enumerate() {
        let mut want = tf.hidden(t, hidden).to_vec();
        want.extend_from_slice(tb.hidden(len - 1 - t, hidden));
        assert_bits(&trace.output(t), &want, "bilstm output");
        assert_eq!(d.len(), 2 * hidden);
    }
    bi.backward(&trace, &d_out);
    fwd.backward(&tf, |t| Some(&d_out[t][..hidden]));
    bwd.backward(&tb, |t| Some(&d_out[len - 1 - t][hidden..]));
    assert_bits(
        bi.forward_lstm().grads().as_slice(),
        fwd.grad.as_slice(),
        "fwd",
    );
    assert_bits(
        bi.reverse_lstm().grads().as_slice(),
        bwd.grad.as_slice(),
        "bwd",
    );
}
