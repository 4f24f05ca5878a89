//! `nnet` — a minimal, dependency-free neural-network library for the
//! SegScope reproduction's classifiers.
//!
//! The paper trains two models on side-channel traces:
//!
//! * a **32-unit LSTM** sequence classifier for website fingerprinting
//!   (paper Table IV) — provided here as [`SeqClassifier`];
//! * a **BiLSTM** per-timestep segmenter that recovers DNN layer types
//!   from SegCnt traces (paper Table V) — provided as [`SeqTagger`].
//!
//! Rather than depending on a deep-learning framework, this crate
//! implements exactly what those models need: a row-major [`Mat`],
//! [`Dense`] and [`Lstm`]/[`BiLstm`] layers with full BPTT, softmax
//! cross-entropy, the [`Adam`] optimizer, dataset helpers
//! ([`average_pool`], [`k_fold_indices`], …), and the paper's metrics
//! (top-k accuracy, [`levenshtein_accuracy`] (LDA), [`segment_accuracy`]
//! (SA)). Gradients are verified against finite differences in the test
//! suite.
//!
//! # Lane-batched training
//!
//! [`SeqClassifier::train_epoch`] and [`SeqTagger::train_epoch`] run each
//! minibatch through the LSTM as feature-major (SoA) lanes: lanes are
//! sorted by length, so ragged sequences drop out of a packed prefix as
//! they end, and each step is one [`Mat::matvec_bias_acc_soa`] call and
//! one [`lstm_cell_soa`] pass. The forward pass caches `tanh(c_t)` for
//! backpropagation, the backward recurrence runs lane-parallel, and the
//! weight gradient is one ordered rank-k update per minibatch. Every
//! weight, gradient and loss is **bit-identical** to backpropagating one
//! example at a time:
//!
//! * the lane kernels keep the scalar kernels' per-lane operation order
//!   and never mix lanes;
//! * the weights are fixed within a minibatch, and each weight still
//!   receives its gradient terms example by example, `t` descending;
//! * where a scalar kernel skips an all-zero gradient row, a lane kernel
//!   adds `±0.0` instead, which changes no accumulator that starts at
//!   `+0.0` and is only added to (such a value is never `-0.0`).
//!
//! [`Lstm::forward`] and the `backward*` methods are the same engine at
//! one lane. `tests/lane_parity.rs` checks all of this against the
//! per-example trainer kept as a test-side oracle.
//!
//! The cell's `exp` and `tanh` come from [`math`]: branch-free ports of
//! glibc's `expf` and `tanhf` over 8-lane blocks that return libm's bits
//! for every `f32` input, so the cell vectorises without moving a bit.
//! [`reference`](mod@reference) keeps libm as the independent oracle.
//!
//! # Example
//!
//! ```
//! use nnet::{AdamConfig, SeqClassifier, SeqExample};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
//! let mut model = SeqClassifier::new(1, 8, 2, &mut rng, AdamConfig::default());
//! let examples = vec![
//!     SeqExample { xs: vec![vec![0.0]; 5], label: 0 },
//!     SeqExample { xs: vec![vec![1.0]; 5], label: 1 },
//! ];
//! for _ in 0..20 { model.train_epoch(&examples, 2); }
//! assert_eq!(model.predict(&examples[1].xs), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classifier;
mod data;
mod dense;
mod lanes;
mod loss;
mod lstm;
mod mat;
pub mod math;
mod metrics;
mod optim;
pub mod reference;

pub use classifier::{SeqClassifier, SeqExample, SeqTagger, TaggedExample};
pub use data::{average_pool, k_fold_indices, standardize, to_features, train_test_split};
pub use dense::Dense;
pub use lanes::lstm_cell_soa;
pub use loss::{argmax, softmax, softmax_cross_entropy, softmax_cross_entropy_into, top_k};
pub use lstm::{BiLstm, BiLstmTrace, Lstm, LstmTrace};
pub use mat::Mat;
pub use metrics::{
    collapse_runs, levenshtein, levenshtein_accuracy, per_class_segment_accuracy, segment_accuracy,
    ConfusionMatrix,
};
pub use optim::{Adam, AdamConfig};
