//! Progress records for chunked trial fan-outs.
//!
//! A [`ChunkManifest`] records which trial chunks of a
//! [`parallel_trial_chunks`](crate::parallel_trial_chunks)-style run have
//! completed, together with their outputs, keyed by chunk index. Because
//! every chunk's seeds derive from `(experiment_seed, trial_index)`
//! alone, a run that records the missing chunks of a persisted manifest
//! assembles outputs bit-identical to an uninterrupted run, no matter
//! how the work was split across kills. The campaign layer's cell
//! manifest is one of these over the cell axis.

use crate::derive_seed;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Progress record of a chunked trial run: geometry plus the outputs of
/// every completed chunk, keyed by chunk index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkManifest<T> {
    experiment_seed: u64,
    trials: usize,
    chunk: usize,
    /// Completed chunk index → outputs in trial order.
    completed: BTreeMap<usize, Vec<T>>,
}

impl<T> ChunkManifest<T> {
    /// An empty manifest for a run of `trials` trials in chunks of
    /// `chunk` (clamped to ≥ 1), seeded with `experiment_seed`.
    #[must_use]
    pub fn new(experiment_seed: u64, trials: usize, chunk: usize) -> Self {
        ChunkManifest {
            experiment_seed,
            trials,
            chunk: chunk.max(1),
            completed: BTreeMap::new(),
        }
    }

    /// Total number of chunks in the run.
    #[must_use]
    pub fn total_chunks(&self) -> usize {
        self.trials.div_ceil(self.chunk)
    }

    /// Number of chunks already completed.
    #[must_use]
    pub fn completed_chunks(&self) -> usize {
        self.completed.len()
    }

    /// Whether every chunk has completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.completed.len() == self.total_chunks()
    }

    /// Indices of the chunks still to run, ascending.
    #[must_use]
    pub fn remaining_chunks(&self) -> Vec<usize> {
        (0..self.total_chunks())
            .filter(|c| !self.completed.contains_key(c))
            .collect()
    }

    /// The trial-index range `[start, end)` of chunk `c`.
    fn chunk_range(&self, c: usize) -> (usize, usize) {
        let start = c * self.chunk;
        (start, (start + self.chunk).min(self.trials))
    }

    /// The derived seeds of chunk `c`, in trial order.
    #[must_use]
    pub fn chunk_seeds(&self, c: usize) -> Vec<u64> {
        let (start, end) = self.chunk_range(c);
        (start..end)
            .map(|i| derive_seed(self.experiment_seed, i as u64))
            .collect()
    }

    /// Records chunk `c` as completed with `outputs` (one per trial).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index, an arity mismatch, or a chunk
    /// recorded twice — all three indicate a resume against the wrong
    /// manifest.
    pub fn record_chunk(&mut self, c: usize, outputs: Vec<T>) {
        assert!(c < self.total_chunks(), "chunk {c} out of range");
        let (start, end) = self.chunk_range(c);
        assert_eq!(
            outputs.len(),
            end - start,
            "chunk {c} must record one output per trial"
        );
        let previous = self.completed.insert(c, outputs);
        assert!(previous.is_none(), "chunk {c} recorded twice");
    }

    /// Whether this manifest belongs to the run described by
    /// `(experiment_seed, trials, chunk)` — the resume-safety check a
    /// loader performs before trusting a manifest found on disk.
    #[must_use]
    pub fn matches(&self, experiment_seed: u64, trials: usize, chunk: usize) -> bool {
        self.experiment_seed == experiment_seed
            && self.trials == trials
            && self.chunk == chunk.max(1)
    }

    /// Checks the invariants [`record_chunk`](Self::record_chunk)
    /// enforces on a manifest that did not come through it (one parsed
    /// from disk): a chunk size of at least 1, every completed chunk
    /// index in range, and exactly one output per trial of its chunk.
    /// `check` sees every recorded output with its trial index and
    /// rejects one by returning a message.
    ///
    /// # Errors
    ///
    /// The first violation found, as a message.
    pub fn validate(&self, check: impl Fn(usize, &T) -> Result<(), String>) -> Result<(), String> {
        if self.chunk == 0 {
            return Err("chunk size is 0".to_owned());
        }
        for (&c, outputs) in &self.completed {
            if c >= self.total_chunks() {
                return Err(format!(
                    "chunk {c} out of range (the run has {} chunks)",
                    self.total_chunks()
                ));
            }
            let (start, end) = self.chunk_range(c);
            if outputs.len() != end - start {
                return Err(format!(
                    "chunk {c} holds {} outputs, not {}",
                    outputs.len(),
                    end - start
                ));
            }
            for (k, output) in outputs.iter().enumerate() {
                check(start + k, output)?;
            }
        }
        Ok(())
    }

    /// Assembles the full output vector in trial order.
    ///
    /// # Panics
    ///
    /// Panics unless the run [`is_complete`](Self::is_complete).
    #[must_use]
    pub fn into_outputs(self) -> Vec<T> {
        assert!(
            self.is_complete(),
            "cannot assemble outputs: {} of {} chunks missing",
            self.total_chunks() - self.completed.len(),
            self.total_chunks()
        );
        // BTreeMap iterates keys ascending, so concatenation is in
        // trial order by construction.
        self.completed.into_values().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel_trial_chunks;

    fn task(start: usize, seeds: &[u64]) -> Vec<(usize, u64)> {
        seeds
            .iter()
            .enumerate()
            .map(|(k, &seed)| (start + k, seed ^ 0xC0FFEE))
            .collect()
    }

    #[test]
    fn chunks_recorded_out_of_order_assemble_the_uninterrupted_outputs() {
        let reference = parallel_trial_chunks(0xDEAD, 50, 2, 7, task);
        // A "killed" run completed chunks 0, 2 and 5; a resume records
        // the rest.
        let mut manifest = ChunkManifest::new(0xDEAD, 50, 7);
        for c in [0usize, 2, 5] {
            manifest.record_chunk(c, task(c * 7, &manifest.chunk_seeds(c)));
        }
        assert!(manifest.matches(0xDEAD, 50, 7));
        assert!(!manifest.matches(0xDEAD, 50, 8));
        assert!(!manifest.is_complete());
        assert_eq!(manifest.remaining_chunks(), vec![1, 3, 4, 6, 7]);
        for c in manifest.remaining_chunks() {
            manifest.record_chunk(c, task(c * 7, &manifest.chunk_seeds(c)));
        }
        assert_eq!(manifest.completed_chunks(), manifest.total_chunks());
        assert_eq!(manifest.into_outputs(), reference);
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn double_record_panics() {
        let mut manifest = ChunkManifest::new(0xC3, 8, 4);
        manifest.record_chunk(0, task(0, &manifest.chunk_seeds(0)));
        manifest.record_chunk(0, task(0, &manifest.chunk_seeds(0)));
    }

    #[test]
    #[should_panic(expected = "chunks missing")]
    fn assembling_an_incomplete_manifest_panics() {
        let manifest: ChunkManifest<u64> = ChunkManifest::new(0xD4, 8, 4);
        let _ = manifest.into_outputs();
    }
}
