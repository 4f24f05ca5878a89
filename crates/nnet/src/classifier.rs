//! Ready-made classifier heads: a many-to-one sequence classifier (the
//! website-fingerprinting LSTM) and a many-to-many sequence tagger (the
//! DNN-layer-segmentation BiLSTM).

use crate::dense::Dense;
use crate::lanes::{LaneGrads, LaneTrace};
use crate::loss::{argmax, softmax_cross_entropy_into, top_k};
use crate::lstm::{BiLstm, Lstm};
use crate::optim::AdamConfig;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A labeled sequence for many-to-one classification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeqExample {
    /// Per-timestep feature vectors.
    pub xs: Vec<Vec<f32>>,
    /// Class label.
    pub label: usize,
}

/// An LSTM → dense → softmax sequence classifier (many-to-one), the shape
/// of the paper's website-fingerprinting model (32 LSTM units).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeqClassifier {
    lstm: Lstm,
    head: Dense,
}

impl SeqClassifier {
    /// Creates a classifier with the given dimensions.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        input: usize,
        hidden: usize,
        classes: usize,
        rng: &mut R,
        adam: AdamConfig,
    ) -> Self {
        SeqClassifier {
            lstm: Lstm::new(input, hidden, rng, adam),
            head: Dense::new(hidden, classes, rng, adam),
        }
    }

    /// Number of output classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.head.output_dim()
    }

    /// The recurrent layer (read-only, for external inference engines).
    #[must_use]
    pub fn lstm(&self) -> &Lstm {
        &self.lstm
    }

    /// The output head (read-only, for external inference engines).
    #[must_use]
    pub fn head(&self) -> &Dense {
        &self.head
    }

    /// Class logits for one sequence.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence.
    #[must_use]
    pub fn logits(&self, xs: &[Vec<f32>]) -> Vec<f32> {
        assert!(!xs.is_empty(), "cannot classify an empty sequence");
        let trace = self.lstm.forward(xs);
        self.head.forward(trace.hidden(trace.len() - 1))
    }

    /// Predicted class.
    #[must_use]
    pub fn predict(&self, xs: &[Vec<f32>]) -> usize {
        argmax(&self.logits(xs))
    }

    /// Top-`k` predicted classes, best first.
    #[must_use]
    pub fn predict_top_k(&self, xs: &[Vec<f32>], k: usize) -> Vec<usize> {
        top_k(&self.logits(xs), k)
    }

    /// One SGD epoch over `examples` in the given order, with gradient
    /// application every `batch` examples. Returns the mean loss.
    ///
    /// Each minibatch runs through the LSTM as SoA lanes; the result is
    /// bit-identical to backpropagating one example at a time.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence.
    pub fn train_epoch(&mut self, examples: &[SeqExample], batch: usize) -> f32 {
        let mut total = 0.0f32;
        let h = self.lstm.hidden_dim();
        // Lane and per-example buffers, allocated once per epoch.
        let mut trace = LaneTrace::default();
        let mut scratch = LaneGrads::default();
        let mut dh = Vec::new();
        let mut h_last = vec![0.0f32; h];
        let mut logits = vec![0.0f32; self.head.output_dim()];
        let mut dlogits = vec![0.0f32; self.head.output_dim()];
        let mut dh_last = vec![0.0f32; h];
        for chunk in minibatches(examples, batch) {
            self.lstm
                .forward_lanes(&mut trace, chunk.len(), |e| &chunk[e].xs, false);
            dh.clear();
            dh.resize(trace.lane_steps() * h, 0.0f32);
            for (e, ex) in chunk.iter().enumerate() {
                let len = trace.len_of(e);
                assert!(len > 0, "cannot classify an empty sequence");
                trace.hidden_into(e, len - 1, &mut h_last);
                self.head.forward_into(&h_last, &mut logits);
                total += softmax_cross_entropy_into(&logits, ex.label, &mut dlogits);
                self.head.backward_into(&h_last, &dlogits, &mut dh_last);
                trace.scatter(e, len - 1, &dh_last, &mut dh);
            }
            self.lstm.backward_lanes(&trace, &dh, &mut scratch);
            self.lstm.apply_grads(chunk.len());
            self.head.apply_grads(chunk.len());
        }
        total / examples.len().max(1) as f32
    }

    /// Top-1 accuracy over a labeled set.
    #[must_use]
    pub fn accuracy(&self, examples: &[SeqExample]) -> f64 {
        if examples.is_empty() {
            return 0.0;
        }
        let hits = examples
            .iter()
            .filter(|ex| self.predict(&ex.xs) == ex.label)
            .count();
        hits as f64 / examples.len() as f64
    }

    /// Top-`k` accuracy over a labeled set.
    #[must_use]
    pub fn top_k_accuracy(&self, examples: &[SeqExample], k: usize) -> f64 {
        if examples.is_empty() {
            return 0.0;
        }
        let hits = examples
            .iter()
            .filter(|ex| self.predict_top_k(&ex.xs, k).contains(&ex.label))
            .count();
        hits as f64 / examples.len() as f64
    }
}

/// A per-timestep labeled sequence for many-to-many tagging.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaggedExample {
    /// Per-timestep feature vectors.
    pub xs: Vec<Vec<f32>>,
    /// Per-timestep class labels (same length as `xs`).
    pub tags: Vec<usize>,
}

/// A BiLSTM → dense → softmax sequence tagger (many-to-many), the shape of
/// the paper's DNN-architecture-segmentation model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeqTagger {
    bilstm: BiLstm,
    head: Dense,
}

impl SeqTagger {
    /// Creates a tagger with the given dimensions.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        input: usize,
        hidden: usize,
        classes: usize,
        rng: &mut R,
        adam: AdamConfig,
    ) -> Self {
        SeqTagger {
            bilstm: BiLstm::new(input, hidden, rng, adam),
            head: Dense::new(2 * hidden, classes, rng, adam),
        }
    }

    /// Number of tag classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.head.output_dim()
    }

    /// The recurrent layer (read-only).
    #[must_use]
    pub fn bilstm(&self) -> &BiLstm {
        &self.bilstm
    }

    /// The output head (read-only).
    #[must_use]
    pub fn head(&self) -> &Dense {
        &self.head
    }

    /// Per-timestep predicted tags.
    #[must_use]
    pub fn predict(&self, xs: &[Vec<f32>]) -> Vec<usize> {
        let trace = self.bilstm.forward(xs);
        let mut features = vec![0.0f32; self.bilstm.output_dim()];
        let mut logits = vec![0.0f32; self.head.output_dim()];
        (0..trace.len())
            .map(|t| {
                trace.output_into(t, &mut features);
                self.head.forward_into(&features, &mut logits);
                argmax(&logits)
            })
            .collect()
    }

    /// One training epoch; returns the mean per-timestep loss.
    ///
    /// Each minibatch runs through both directions as SoA lanes; the
    /// result is bit-identical to backpropagating one example at a time.
    /// A full minibatch scales its head gradient by `batch` times the
    /// length of its last example, a partial last minibatch by its
    /// example count.
    ///
    /// # Panics
    ///
    /// Panics if an example's `tags` length differs from its `xs` length.
    pub fn train_epoch(&mut self, examples: &[TaggedExample], batch: usize) -> f32 {
        let mut total = 0.0f32;
        let mut steps = 0usize;
        let h = self.bilstm.output_dim() / 2;
        // Lane and per-timestep buffers, allocated once per epoch.
        let (mut fwd_trace, mut bwd_trace) = (LaneTrace::default(), LaneTrace::default());
        let mut scratch = LaneGrads::default();
        let (mut dh_fwd, mut dh_bwd) = (Vec::new(), Vec::new());
        let mut features = vec![0.0f32; 2 * h];
        let mut logits = vec![0.0f32; self.head.output_dim()];
        let mut dlogits = vec![0.0f32; self.head.output_dim()];
        let mut d_out = vec![0.0f32; 2 * h];
        for chunk in minibatches(examples, batch) {
            for ex in chunk {
                assert_eq!(ex.xs.len(), ex.tags.len(), "tags must align with inputs");
            }
            let (fwd, bwd) = self.bilstm.layers_mut();
            fwd.forward_lanes(&mut fwd_trace, chunk.len(), |e| &chunk[e].xs, false);
            bwd.forward_lanes(&mut bwd_trace, chunk.len(), |e| &chunk[e].xs, true);
            for dh in [&mut dh_fwd, &mut dh_bwd] {
                dh.clear();
                dh.resize(fwd_trace.lane_steps() * h, 0.0f32);
            }
            for (e, ex) in chunk.iter().enumerate() {
                let len = ex.xs.len();
                for (t, &tag) in ex.tags.iter().enumerate() {
                    let rt = len - 1 - t;
                    fwd_trace.hidden_into(e, t, &mut features[..h]);
                    bwd_trace.hidden_into(e, rt, &mut features[h..]);
                    self.head.forward_into(&features, &mut logits);
                    total += softmax_cross_entropy_into(&logits, tag, &mut dlogits);
                    steps += 1;
                    self.head.backward_into(&features, &dlogits, &mut d_out);
                    fwd_trace.scatter(e, t, &d_out[..h], &mut dh_fwd);
                    bwd_trace.scatter(e, rt, &d_out[h..], &mut dh_bwd);
                }
            }
            fwd.backward_lanes(&fwd_trace, &dh_fwd, &mut scratch);
            bwd.backward_lanes(&bwd_trace, &dh_bwd, &mut scratch);
            self.bilstm.apply_grads(chunk.len());
            let last_len = chunk.last().map_or(0, |ex| ex.xs.len());
            self.head.apply_grads(if chunk.len() == batch {
                batch * last_len.max(1)
            } else {
                chunk.len()
            });
        }
        total / steps.max(1) as f32
    }
}

/// Splits `examples` into training minibatches of `batch` (the last one
/// partial); a `batch` of 0 makes the whole set one minibatch.
fn minibatches<T>(examples: &[T], batch: usize) -> std::slice::Chunks<'_, T> {
    examples.chunks(if batch == 0 {
        examples.len().max(1)
    } else {
        batch
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Class c = constant level c/3 plus noise.
    fn toy_seq_data(rng: &mut SmallRng, n_per_class: usize) -> Vec<SeqExample> {
        let mut out = Vec::new();
        for label in 0..3usize {
            for _ in 0..n_per_class {
                let xs = (0..10)
                    .map(|_| vec![label as f32 / 3.0 + rng.gen_range(-0.05f32..0.05)])
                    .collect();
                out.push(SeqExample { xs, label });
            }
        }
        out
    }

    #[test]
    fn seq_classifier_learns_toy_classes() {
        let mut rng = SmallRng::seed_from_u64(11);
        let train = toy_seq_data(&mut rng, 20);
        let test = toy_seq_data(&mut rng, 10);
        let mut model = SeqClassifier::new(
            1,
            8,
            3,
            &mut rng,
            AdamConfig {
                lr: 0.02,
                ..AdamConfig::default()
            },
        );
        let initial = model.accuracy(&test);
        for _ in 0..15 {
            model.train_epoch(&train, 8);
        }
        let trained = model.accuracy(&test);
        assert!(trained > 0.9, "accuracy {initial} -> {trained}");
        assert!(model.top_k_accuracy(&test, 2) >= trained);
        assert_eq!(model.classes(), 3);
    }

    #[test]
    fn tagger_learns_level_segmentation() {
        // Tag = 0 where signal < 0.5, else 1.
        let mut rng = SmallRng::seed_from_u64(12);
        let make = |rng: &mut SmallRng| {
            let flip = rng.gen_range(3..7);
            let xs: Vec<Vec<f32>> = (0..10)
                .map(|t| vec![if t < flip { 0.1f32 } else { 0.9 } + rng.gen_range(-0.05f32..0.05)])
                .collect();
            let tags: Vec<usize> = (0..10).map(|t| usize::from(t >= flip)).collect();
            TaggedExample { xs, tags }
        };
        let train: Vec<_> = (0..40).map(|_| make(&mut rng)).collect();
        let test: Vec<_> = (0..10).map(|_| make(&mut rng)).collect();
        let mut model = SeqTagger::new(
            1,
            6,
            2,
            &mut rng,
            AdamConfig {
                lr: 0.02,
                ..AdamConfig::default()
            },
        );
        for _ in 0..12 {
            model.train_epoch(&train, 8);
        }
        let mut hits = 0usize;
        let mut total = 0usize;
        for ex in &test {
            let pred = model.predict(&ex.xs);
            hits += pred.iter().zip(&ex.tags).filter(|(p, t)| p == t).count();
            total += ex.tags.len();
        }
        let acc = hits as f64 / total as f64;
        assert!(acc > 0.9, "per-timestep accuracy {acc}");
        assert_eq!(model.classes(), 2);
    }

    #[test]
    fn training_loss_decreases() {
        let mut rng = SmallRng::seed_from_u64(13);
        let train = toy_seq_data(&mut rng, 15);
        let mut model = SeqClassifier::new(1, 6, 3, &mut rng, AdamConfig::default());
        let first = model.train_epoch(&train, 8);
        let mut last = first;
        for _ in 0..10 {
            last = model.train_epoch(&train, 8);
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_panics() {
        let mut rng = SmallRng::seed_from_u64(14);
        let model = SeqClassifier::new(1, 4, 2, &mut rng, AdamConfig::default());
        let _ = model.logits(&[]);
    }
}
