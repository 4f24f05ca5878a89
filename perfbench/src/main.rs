//! The repository benchmark: runs one named workload through the
//! library's public entry points, checks its outputs, and prints every
//! metric with its unit; the last line of standard output is the JSON
//! result.
//!
//! ```text
//! perfbench --workload grid|sim|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded;
//! `--trace 1` runs untraced and traced passes in turn and reports the
//! per-layer metrics. See `NOTES.md` for the workloads and metrics.

mod grid;
mod host;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// The seed whose outputs are pinned by recorded digests.
pub const DEFAULT_SEED: u64 = 1;
/// Set-up repeats per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// The `wall_s` bound of `BENCHMARK.json`, reused as the tolerance of
/// the CPU-time guard.
pub const WALL_BOUND: f64 = 0.24;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_irqs_per_s", "1/s"),
    ("sessions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "share"),
];

/// Per-layer metrics that do not depend on the scenario set.
const PER_LAYER: [(&str, &str); 29] = [
    ("campaign.run_cell_s", "s"),
    ("campaign.cell_ms.p50", "ms"),
    ("campaign.cell_ms.p90", "ms"),
    ("campaign.persist_s", "s"),
    ("campaign.persist_bytes", "bytes"),
    ("campaign.persist_useful_ratio", "share"),
    ("campaign.report_s", "s"),
    ("scenario.trials", "count"),
    ("segsim.sim_s", "s"),
    ("segsim.host_ns_per_irq", "ns"),
    ("irq.deliveries", "count"),
    ("irq.dropped", "count"),
    ("irq.duplicated", "count"),
    ("irq.coalesced", "count"),
    ("x86seg.returns", "count"),
    ("exec.busy_s", "s"),
    ("exec.idle_share", "share"),
    ("nnet.train_epoch_ms.p50", "ms"),
    ("nnet.train_s", "s"),
    ("nnet.predict_us.p50", "us"),
    ("serve.step_us.f64.p50", "us"),
    ("serve.step_us.f64.p99", "us"),
    ("serve.step_us.i16.p50", "us"),
    ("serve.step_us.i16.p99", "us"),
    ("serve.stage_s", "s"),
    ("serve.lane_occupancy", "share"),
    ("serve.quantize_ms", "ms"),
    ("serve.sequential_sessions_per_s", "1/s"),
    ("trace.overhead_share", "share"),
];

/// Every per-layer metric: [`PER_LAYER`] plus the per-scenario stage
/// times and their totals.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_owned(), unit))
        .collect();
    for stage in ["build_machine_s", "run_trial_s", "summarize_s"] {
        for name in grid::SCENARIOS {
            all.push((format!("scenario.{stage}.{name}"), "s"));
        }
        all.push((format!("scenario.{stage}"), "s"));
    }
    all
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Cells or sessions run.
    pub attempted: u64,
    /// Cells or sessions that failed an output check.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a line for the human-readable part of the output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts `n` failed cells or sessions.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        self.notes.push(format!("FAILED: {}", why.into()));
    }

    /// Fails everything run, for a check that covers the whole run.
    pub fn fail_all(&mut self, why: impl Into<String>) {
        self.failed = u64::MAX;
        self.notes.push(format!("FAILED: {}", why.into()));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// The result line: exactly the metrics `expected` names, in order.
    /// A metric the workload does not reach reads 0 and is listed in the
    /// notes; a missing or non-finite end-to-end metric fails the run.
    fn finish(mut self, expected: &[(String, &'static str)], traced: bool) -> String {
        self.failed = self.failed.min(self.attempted);
        let mut fields = Vec::with_capacity(expected.len());
        let mut unreached = Vec::new();
        for (name, unit) in expected {
            let value = match self.value(name) {
                Some(v) if v.is_finite() => v,
                found => {
                    if !traced || found.is_some() {
                        self.failed = self.attempted.max(1);
                        self.notes
                            .push(format!("FAILED: metric {name} is {found:?}"));
                    }
                    unreached.push(name.as_str());
                    0.0
                }
            };
            println!("{name:<40} {value:>18.6} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        if !unreached.is_empty() {
            println!(
                "not reached on this workload (reported as 0): {}",
                unreached.join(", ")
            );
        }
        for note in &self.notes {
            println!("{note}");
        }
        let attempted = self.attempted.max(1);
        println!(
            "error_rate {:.6} ({} of {attempted} failed)",
            self.failed as f64 / attempted as f64,
            self.failed
        );
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.failed,
            fields.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("`{flag} {value}`: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload grid|sim|serve --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds as f64;
    let scratch =
        PathBuf::from(".bench_scratch").join(format!("{}-{}", args.workload, std::process::id()));
    // Every worker pool in the process, including ones that ignore
    // `RunOptions::threads`, reads this before it spawns.
    let pin = |threads: usize| std::env::set_var(exec::THREADS_ENV, threads.to_string());
    let outcome = match args.workload.as_str() {
        "grid" | "sim" => {
            let workload = grid::Grid::new(args.workload == "sim", args.seed, scratch.clone());
            pin(workload.threads());
            let outcome = workload.run(seconds, args.trace);
            // Best effort: the manifests are scratch, and a failed removal
            // leaves only ignored files behind.
            let _ = std::fs::remove_dir_all(&scratch);
            let _ = scratch.parent().map(std::fs::remove_dir);
            outcome
        }
        "serve" => {
            pin(1);
            Ok(serving::run(args.seed, seconds, args.trace))
        }
        other => Err(format!("unknown workload `{other}` (grid, sim or serve)")),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let expected: Vec<(String, &'static str)> = if args.trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_owned(), unit))
            .collect()
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let line = outcome.finish(&expected, args.trace);
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    use serde::Value;

    /// `(name, unit, bound)` of every metric `BENCHMARK.json` lists under
    /// `key`.
    fn declared(key: &str) -> Vec<(String, String, Option<f64>)> {
        let json: Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let get = |v: &Value, k: &str| -> Value {
            let fields = v.as_map().expect("an object");
            fields
                .iter()
                .find(|(name, _)| name == k)
                .map_or(Value::Null, |(_, v)| v.clone())
        };
        let Value::Seq(metrics) = get(&json, key) else {
            panic!("{key} is a list")
        };
        metrics
            .iter()
            .map(|m| {
                let text = |k: &str| match get(m, k) {
                    Value::Str(s) => s,
                    other => panic!("{k} is {other:?}"),
                };
                let bound = match get(m, "bound") {
                    Value::Float(x) => Some(x),
                    _ => None,
                };
                (text("name"), text("unit"), bound)
            })
            .collect()
    }

    /// The metrics printed here are the ones `BENCHMARK.json` declares,
    /// with the same units and in the same order, and the CPU guard uses
    /// the declared `wall_s` bound.
    #[test]
    fn metrics_match_benchmark_json() {
        let names = |metrics: Vec<(String, String, Option<f64>)>| -> Vec<(String, String)> {
            metrics.into_iter().map(|(n, u, _)| (n, u)).collect()
        };
        let own = |metrics: Vec<(String, &str)>| -> Vec<(String, String)> {
            metrics
                .into_iter()
                .map(|(n, u)| (n, u.to_owned()))
                .collect()
        };
        let end_to_end = declared("end_to_end");
        assert_eq!(
            names(end_to_end.clone()),
            own(END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect())
        );
        assert_eq!(names(declared("per_layer")), own(per_layer_metrics()));
        let wall = end_to_end.iter().find(|(n, _, _)| n == "wall_s");
        assert_eq!(wall.and_then(|m| m.2), Some(WALL_BOUND));
    }

    #[test]
    fn unreached_per_layer_metrics_read_zero_and_do_not_fail() {
        let mut outcome = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        outcome.put("a", 1.5, "s");
        let expected = vec![("a".to_owned(), "s"), ("b".to_owned(), "s")];
        let line = Outcome {
            attempted: 4,
            metrics: outcome.metrics.clone(),
            ..Outcome::default()
        }
        .finish(&expected, true);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
        // A missing end-to-end metric fails the run.
        let line = outcome.finish(&expected, false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 4"));
    }
}
