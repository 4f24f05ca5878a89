//! Host-time spans the traced runs record around the benchmark's own
//! calls into each layer, kept in memory and folded into per-layer
//! metrics when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Span durations in seconds, keyed by span name.
#[derive(Debug, Default)]
pub struct Spans {
    by_name: BTreeMap<String, Vec<f64>>,
}

impl Spans {
    /// Records one span of `seconds` under `name`.
    pub fn record(&mut self, name: &str, seconds: f64) {
        match self.by_name.get_mut(name) {
            Some(samples) => samples.push(seconds),
            None => {
                self.by_name.insert(name.to_owned(), vec![seconds]);
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed().as_secs_f64());
        out
    }

    /// Every duration recorded under `name`, in recording order.
    #[must_use]
    pub fn samples(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Total seconds recorded under `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.samples(name).iter().fold(0.0, |acc, s| acc + s)
    }
}
