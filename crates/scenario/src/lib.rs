//! `scenario` — the one harness all nine SegScope case studies run on.
//!
//! Every headline experiment of the reproduction used to hand-roll the
//! same four pieces of glue: pick a [`segsim::MachineConfig`], derive
//! per-trial seeds, install the optional [`segsim::FaultPlan`] and
//! [`obs::TraceSink`], and fan the trials out over worker threads. This
//! crate folds that glue into one generic driver behind the
//! [`Scenario`] trait:
//!
//! * [`Scenario::machine_config`] picks the trial's machine config and
//!   seed, and [`Scenario::prepare_machine`] does the post-boot wiring
//!   (layout, co-resident victim, config-level fault plan) — and
//!   nothing else;
//! * [`Scenario::run_trial`] runs the attack on that machine;
//! * [`Scenario::summarize`] reduces the ordered trial outputs into a
//!   JSON-able report.
//!
//! The driver [`run_scenario`] supplies everything between: seed
//! derivation via [`exec::derive_seed`], machine recycling (each worker
//! thread resets one machine per trial instead of building a fresh one),
//! the fault-plan override, trace sinks, and the deterministic fan-out
//! through [`exec::parallel_trial_chunks`], traced or not. The
//! determinism contract is inherited wholesale:
//!
//! > **Bit-identical outputs, summaries, and merged traces at any
//! > worker count.**
//!
//! [`DynScenario`] erases the associated types so scenarios can live in
//! a [`Registry`] and be driven by name from the `segscope` CLI with
//! JSON-encoded params.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod merge;

pub use merge::{MergeReport, RunTotals};

use segsim::{FaultLog, FaultPlan, Machine, MachineConfig};
use serde::{Deserialize, Serialize, Value};
use std::cell::RefCell;
use std::fmt;

/// Per-trial bookkeeping the driver folds into run-level accounting:
/// the ground-truth interrupt-delivery count and the machine's fault
/// audit, captured at the end of the trial.
///
/// The driver captures one of these per trial with [`TrialStats::of`]
/// right after the trial body. Like the outputs, stats are a pure
/// function of `(config, ctx, fault_override)`, and both merge
/// commutatively ([`RunTotals`] and
/// [`FaultLog`] implement [`MergeReport`]), so run-level accounting is
/// schedule-independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialStats {
    /// Ground-truth interrupt deliveries during the trial.
    pub gt_deliveries: u64,
    /// Fault-injection audit counters of the trial's machine.
    pub fault_log: FaultLog,
}

impl TrialStats {
    /// Captures the stats of a machine that just finished its trial.
    #[must_use]
    pub fn of(machine: &Machine) -> Self {
        TrialStats {
            gt_deliveries: machine.ground_truth().len() as u64,
            fault_log: *machine.fault_log(),
        }
    }
}

/// The context of one trial, handed to every per-trial [`Scenario`]
/// method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialCtx {
    /// Trial index within the experiment (`0..trials`).
    pub index: usize,
    /// The trial's private seed,
    /// `exec::derive_seed(experiment_seed, index)`.
    pub seed: u64,
    /// The experiment-level seed all trial seeds derive from.
    pub experiment_seed: u64,
}

/// One experiment that the generic driver can run: a typed config, a
/// per-trial machine recipe, the trial body, and a summary reduction.
///
/// Implementations must keep [`machine_config`](Scenario::machine_config)
/// and [`prepare_machine`](Scenario::prepare_machine) limited to machine
/// selection and config-level fault/layout wiring: the driver installs
/// the trace sink and the run-level fault-plan override *after* them, and
/// warm-up spins belong in [`run_trial`](Scenario::run_trial) so traces
/// cover them.
pub trait Scenario: Sync {
    /// The experiment parameters (JSON-roundtrippable; `Default` is what
    /// `segscope run <name>` uses when `--params` is omitted).
    type Config: Clone + fmt::Debug + Default + Serialize + Deserialize + Send + Sync;
    /// What one trial produces.
    type TrialOutput: Send;
    /// The reduced, JSON-able report body.
    type Summary: Serialize;

    /// Unique registry name (snake_case).
    fn name(&self) -> &'static str;

    /// One-line human description (shown by `segscope list`).
    fn describe(&self) -> &'static str;

    /// Resolves the experiment-level seed: an explicit request (the CLI's
    /// `--seed`) beats the scenario's default (typically `config.seed`
    /// for config-seeded experiments, a stable constant otherwise).
    fn experiment_seed(&self, config: &Self::Config, requested: Option<u64>) -> u64;

    /// Resolves the trial count. Repetition-style scenarios honour the
    /// request (the CLI's `--trials`); structured scenarios whose trial
    /// count is a function of the config (sites × visits, users ×
    /// sessions, …) ignore it.
    fn trial_count(&self, config: &Self::Config, requested: Option<usize>) -> usize;

    /// The trial's machine configuration and machine RNG seed. The
    /// driver boots a machine from them — by resetting this worker's
    /// recycled machine, which is bit-identical to `Machine::new`.
    fn machine_config(&self, config: &Self::Config, ctx: &TrialCtx) -> (MachineConfig, u64);

    /// Post-boot wiring of the trial's machine: layouts drawn from the
    /// machine RNG, co-resident victims, pinned frequencies, local load,
    /// config-level fault plans. No warm-up spins here — the driver
    /// installs the trace sink right after, and traces must cover
    /// warm-up. The default wires nothing.
    fn prepare_machine(&self, config: &Self::Config, machine: &mut Machine, ctx: &TrialCtx) {
        let _ = (config, machine, ctx);
    }

    /// A fresh trial machine: `Machine::new` from
    /// [`machine_config`](Scenario::machine_config), then
    /// [`prepare_machine`](Scenario::prepare_machine). The driver's
    /// recycled machine is bit-identical to this one.
    fn build_machine(&self, config: &Self::Config, ctx: &TrialCtx) -> Machine {
        let (machine_config, seed) = self.machine_config(config, ctx);
        let mut machine = Machine::new(machine_config, seed);
        self.prepare_machine(config, &mut machine, ctx);
        machine
    }

    /// Runs one trial on the prepared machine.
    fn run_trial(
        &self,
        config: &Self::Config,
        machine: &mut Machine,
        ctx: &TrialCtx,
    ) -> Self::TrialOutput;

    /// Reduces the ordered trial outputs into the report body.
    fn summarize(&self, config: &Self::Config, outputs: &[Self::TrialOutput]) -> Self::Summary;
}

/// Runs `f` on this worker thread's recycled machine, reset to exactly
/// the state `Machine::new(config, seed)` would produce.
///
/// The machine lives in thread-local storage: a worker's first trial
/// pays the full machine construction (the cache hierarchy alone is
/// hundreds of kilobytes of fresh pages), every later trial on that
/// thread pays only [`segsim::Machine::reset`] — an epoch bump and a
/// reseed. Because reset replays `new`'s boot draw order exactly, `f`
/// observes a machine bit-identical to a fresh one, so outputs stay
/// independent of which thread (or how many) ran which trial.
///
/// The machine is moved out of its slot while `f` runs, so a nested
/// call on the same thread builds its own machine instead of aliasing.
pub fn with_recycled_machine<T>(
    config: MachineConfig,
    seed: u64,
    f: impl FnOnce(&mut Machine) -> T,
) -> T {
    thread_local! {
        static RECYCLED: RefCell<Option<Machine>> = const { RefCell::new(None) };
    }
    let mut machine = match RECYCLED.with(|slot| slot.borrow_mut().take()) {
        Some(mut machine) => {
            machine.reset(config, seed);
            machine
        }
        None => Machine::new(config, seed),
    };
    let out = f(&mut machine);
    RECYCLED.with(|slot| *slot.borrow_mut() = Some(machine));
    out
}

/// Runs one trial of `scenario` the way every arm of the driver does: on
/// this worker's recycled machine, booted from
/// [`Scenario::machine_config`] and wired by
/// [`Scenario::prepare_machine`], with the run-level `fault_override`
/// and the optional trace `sink` installed after the wiring. Returns the
/// trial output, its stats, and the sink back (with the trial's events).
///
/// Exposed so callers that fan trials out themselves (parity tests,
/// benchmarks) run exactly the driver's per-trial body.
pub fn run_recycled_trial<S: Scenario>(
    scenario: &S,
    config: &S::Config,
    ctx: &TrialCtx,
    fault_override: Option<FaultPlan>,
    sink: Option<obs::TraceSink>,
) -> (S::TrialOutput, TrialStats, Option<obs::TraceSink>) {
    let (machine_config, seed) = scenario.machine_config(config, ctx);
    with_recycled_machine(machine_config, seed, |machine| {
        scenario.prepare_machine(config, machine, ctx);
        if let Some(plan) = fault_override {
            machine.set_fault_plan(Some(plan));
        }
        if let Some(sink) = sink {
            machine.install_trace_sink(sink);
        }
        let output = scenario.run_trial(config, machine, ctx);
        (output, TrialStats::of(machine), machine.take_trace_sink())
    })
}

/// Run-level options of the generic driver (the CLI's flags).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOptions {
    /// Experiment seed override (`None` = the scenario's default).
    pub seed: Option<u64>,
    /// Trial-count override (`None` = the scenario's default; ignored by
    /// structured scenarios).
    pub trials: Option<usize>,
    /// Worker threads (`None` = `SEGSCOPE_THREADS`, else all cores).
    pub threads: Option<usize>,
    /// Per-trial trace-ring capacity in events; `0` disables tracing
    /// entirely (no sinks are installed).
    pub capacity: usize,
    /// Run-level fault-plan override, installed on every trial machine
    /// *after* [`Scenario::prepare_machine`]. `None` leaves whatever the
    /// config wired in place.
    pub fault_plan: Option<FaultPlan>,
}

impl RunOptions {
    /// Options with tracing enabled at the given ring capacity.
    #[must_use]
    pub fn traced(capacity: usize) -> Self {
        RunOptions {
            capacity,
            ..RunOptions::default()
        }
    }
}

/// The outcome of one driver run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun<T, U> {
    /// The resolved experiment seed.
    pub seed: u64,
    /// The resolved trial count.
    pub trials: usize,
    /// Ordered per-trial outputs (trial `i` at index `i`).
    pub outputs: Vec<T>,
    /// Ordered per-trial ground-truth interrupt-delivery counts.
    pub gt_deliveries: Vec<u64>,
    /// The merged observability trace (`None` when `capacity` was 0).
    pub sink: Option<obs::TraceSink>,
    /// Run-level additive totals, folded per-trial via [`MergeReport`]
    /// (independent of chunk geometry by the merge laws).
    pub totals: RunTotals,
    /// Fault-injection audit counters merged across all trials, folded
    /// per-trial via [`MergeReport`] like [`totals`](Self::totals).
    pub fault_log: FaultLog,
    /// The scenario's summary over the ordered outputs.
    pub summary: U,
}

impl<T, U> ScenarioRun<T, U> {
    /// Total ground-truth interrupt deliveries across all trials.
    #[must_use]
    pub fn total_gt_deliveries(&self) -> u64 {
        self.totals.ground_truth_deliveries
    }
}

/// The resolved execution geometry of a run: the one place the
/// experiment seed, trial count, worker count, and chunk size are
/// computed from `(scenario, config, opts)`.
///
/// [`run_scenario`] and callers that fan a scenario's trials out
/// themselves (benchmarks) resolve it through [`run_geometry`], so they
/// cannot silently drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunGeometry {
    /// The resolved experiment seed every trial seed derives from.
    pub experiment_seed: u64,
    /// The resolved trial count.
    pub trials: usize,
    /// Worker threads the run fans out over.
    pub threads: usize,
    /// Consecutive trials per unit of work (chunk). Outputs and traces
    /// are chunk-size independent; the value only trades scheduling
    /// overhead against load balance.
    pub chunk: usize,
}

/// Resolves the execution geometry [`run_scenario`] uses for
/// `(scenario, config, opts)`.
#[must_use]
pub fn run_geometry<S: Scenario>(
    scenario: &S,
    config: &S::Config,
    opts: &RunOptions,
) -> RunGeometry {
    let experiment_seed = scenario.experiment_seed(config, opts.seed);
    let trials = scenario.trial_count(config, opts.trials);
    let threads = exec::resolve_threads(opts.threads);
    RunGeometry {
        experiment_seed,
        trials,
        threads,
        chunk: trial_chunk(trials, threads),
    }
}

/// How many consecutive trials one worker claims per queue operation.
/// Outputs are chunk-size independent; the value only trades scheduling
/// overhead against load balance.
fn trial_chunk(trials: usize, threads: usize) -> usize {
    trials.div_ceil(threads.max(1) * 2).clamp(1, 32)
}

/// Runs `scenario` under `config` and `opts`: derives per-trial seeds,
/// fans the trials out in chunks, runs each through
/// [`run_recycled_trial`] (recycled machine, run-level fault-plan
/// override, trace sink when `opts.capacity > 0`), and reduces the
/// ordered outputs into the summary.
///
/// Bit-identical at any worker count. With tracing enabled each trial
/// gets a private sink of `capacity` events, bracketed by `TrialStart`
/// at 0 and `TrialEnd` at its last event's time, around the machine's
/// ring of `capacity - 2` events; the trial sinks merge in trial order
/// (track = trial index) into one sink of `capacity × trials` events —
/// the layout the golden traces pin.
pub fn run_scenario<S: Scenario>(
    scenario: &S,
    config: &S::Config,
    opts: &RunOptions,
) -> ScenarioRun<S::TrialOutput, S::Summary> {
    let RunGeometry {
        experiment_seed: seed,
        trials,
        threads,
        chunk,
    } = run_geometry(scenario, config, opts);
    let ran = exec::parallel_trial_chunks(seed, trials, threads, chunk, |start, seeds| {
        seeds
            .iter()
            .enumerate()
            .map(|(k, &trial_seed)| {
                let ctx = TrialCtx {
                    index: start + k,
                    seed: trial_seed,
                    experiment_seed: seed,
                };
                driver_trial(scenario, config, &ctx, opts)
            })
            .collect()
    });
    let mut sink = (opts.capacity > 0)
        .then(|| obs::TraceSink::with_capacity(opts.capacity.saturating_mul(trials.max(1))));
    let mut outputs = Vec::with_capacity(ran.len());
    let mut gt_deliveries = Vec::with_capacity(ran.len());
    let mut totals = RunTotals::empty();
    let mut fault_log = FaultLog::empty();
    for (i, (output, stats, trial_sink)) in ran.into_iter().enumerate() {
        if let (Some(merged), Some(trial_sink)) = (sink.as_mut(), trial_sink) {
            merged.absorb(&trial_sink, i as u32);
        }
        outputs.push(output);
        gt_deliveries.push(stats.gt_deliveries);
        totals.merge(&RunTotals::from_trial(stats.gt_deliveries));
        fault_log.merge(&stats.fault_log);
    }
    let summary = scenario.summarize(config, &outputs);
    ScenarioRun {
        seed,
        trials,
        outputs,
        gt_deliveries,
        sink,
        totals,
        fault_log,
        summary,
    }
}

/// One trial of [`run_scenario`]: [`run_recycled_trial`], plus, when
/// `opts.capacity > 0`, the trial's bracketed trace sink.
fn driver_trial<S: Scenario>(
    scenario: &S,
    config: &S::Config,
    ctx: &TrialCtx,
    opts: &RunOptions,
) -> (S::TrialOutput, TrialStats, Option<obs::TraceSink>) {
    if opts.capacity == 0 {
        return run_recycled_trial(scenario, config, ctx, opts.fault_plan, None);
    }
    let index = ctx.index as u64;
    let mut sink = obs::TraceSink::with_capacity(opts.capacity);
    sink.emit(0, obs::EventKind::TrialStart { index });
    // Leave room for the TrialStart/TrialEnd brackets so a machine-full
    // ring cannot overflow the trial sink.
    let machine_capacity = opts.capacity.saturating_sub(2).max(1);
    let (output, stats, machine_sink) = run_recycled_trial(
        scenario,
        config,
        ctx,
        opts.fault_plan,
        Some(obs::TraceSink::with_capacity(machine_capacity)),
    );
    sink.absorb(&machine_sink.expect("sink installed"), 0);
    let end_ps = sink.events().last().map_or(0, |e| e.at_ps);
    sink.emit(end_ps, obs::EventKind::TrialEnd { index });
    (output, stats, Some(sink))
}

/// A structured, JSON-able record of one driver run.
///
/// Deliberately excludes the worker count and everything else
/// schedule-dependent, so reports are byte-identical at any thread
/// count — the determinism contract the parity tests pin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Registry name of the scenario.
    pub scenario: String,
    /// Resolved experiment seed.
    pub seed: u64,
    /// Resolved trial count.
    pub trials: usize,
    /// Total ground-truth interrupt deliveries across trials.
    pub ground_truth_deliveries: u64,
    /// The resolved config the run used, serialized.
    pub params: Value,
    /// The scenario's summary, serialized.
    pub summary: Value,
}

/// Errors of the type-erased driver entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// No registered scenario has the requested name.
    UnknownScenario(String),
    /// The params JSON did not deserialize into the scenario's config.
    Params(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownScenario(name) => {
                write!(f, "unknown scenario `{name}` (see `segscope list`)")
            }
            ScenarioError::Params(msg) => write!(f, "invalid scenario params: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// The outcome of a type-erased run: the report plus the merged trace,
/// and the [`MergeReport`]-foldable accounting fragments a campaign
/// layer aggregates across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DynRun {
    /// The structured report.
    pub report: RunReport,
    /// The merged observability trace (`None` when tracing was off).
    pub sink: Option<obs::TraceSink>,
    /// Run-level additive totals (trials, ground-truth deliveries).
    pub totals: RunTotals,
    /// Fault-injection audit counters merged across all trials.
    pub fault_log: FaultLog,
}

/// Object-safe face of [`Scenario`], for registries and the CLI.
///
/// Blanket-implemented for every [`Scenario`]; do not implement it
/// directly.
pub trait DynScenario: Sync {
    /// Registry name.
    fn name(&self) -> &'static str;
    /// One-line description.
    fn describe(&self) -> &'static str;
    /// The scenario's default config, serialized (what `--params`
    /// overrides).
    fn default_params(&self) -> Value;
    /// Checks that `params` deserializes into the scenario's config
    /// type without running anything — the upfront validation a
    /// campaign performs over every grid cell before committing to a
    /// long sweep.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Params`] when `params` does not deserialize into
    /// the scenario's config type.
    fn check_params(&self, params: &Value) -> Result<(), ScenarioError>;
    /// Runs the scenario from serialized params (`None` = defaults).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Params`] when `params` does not deserialize into
    /// the scenario's config type.
    fn run_dyn(&self, params: Option<&Value>, opts: &RunOptions) -> Result<DynRun, ScenarioError>;
}

impl<S: Scenario> DynScenario for S {
    fn name(&self) -> &'static str {
        Scenario::name(self)
    }

    fn describe(&self) -> &'static str {
        Scenario::describe(self)
    }

    fn default_params(&self) -> Value {
        S::Config::default().to_value()
    }

    fn check_params(&self, params: &Value) -> Result<(), ScenarioError> {
        S::Config::from_value(params)
            .map(|_| ())
            .map_err(|e| ScenarioError::Params(e.to_string()))
    }

    fn run_dyn(&self, params: Option<&Value>, opts: &RunOptions) -> Result<DynRun, ScenarioError> {
        let config = match params {
            Some(value) => {
                S::Config::from_value(value).map_err(|e| ScenarioError::Params(e.to_string()))?
            }
            None => S::Config::default(),
        };
        let run = run_scenario(self, &config, opts);
        let report = RunReport {
            scenario: Scenario::name(self).to_owned(),
            seed: run.seed,
            trials: run.trials,
            ground_truth_deliveries: run.total_gt_deliveries(),
            params: config.to_value(),
            summary: run.summary.to_value(),
        };
        Ok(DynRun {
            report,
            sink: run.sink,
            totals: run.totals,
            fault_log: run.fault_log,
        })
    }
}

/// A static table of scenarios, addressable by name.
#[derive(Debug, Clone, Copy)]
pub struct Registry {
    entries: &'static [&'static dyn DynScenario],
}

impl Registry {
    /// Wraps a static scenario table.
    #[must_use]
    pub const fn new(entries: &'static [&'static dyn DynScenario]) -> Self {
        Registry { entries }
    }

    /// All registered scenarios, in registration order.
    #[must_use]
    pub fn entries(&self) -> &'static [&'static dyn DynScenario] {
        self.entries
    }

    /// Number of registered scenarios.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks a scenario up by its registry name.
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<&'static dyn DynScenario> {
        self.entries.iter().copied().find(|s| s.name() == name)
    }

    /// Like [`by_name`](Registry::by_name), as a `Result`.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownScenario`] when no scenario has `name`.
    pub fn get(&self, name: &str) -> Result<&'static dyn DynScenario, ScenarioError> {
        self.by_name(name)
            .ok_or_else(|| ScenarioError::UnknownScenario(name.to_owned()))
    }
}

impl fmt::Debug for dyn DynScenario + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynScenario")
            .field("name", &self.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segsim::MachineConfig;

    /// A minimal scenario exercising the driver: each trial spins the
    /// machine briefly and reports its seed and interrupt count.
    struct Probe;

    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    struct ProbeConfig {
        spins: u64,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct ProbeSummary {
        seeds: Vec<u64>,
    }

    impl Scenario for Probe {
        type Config = ProbeConfig;
        type TrialOutput = u64;
        type Summary = ProbeSummary;

        fn name(&self) -> &'static str {
            "probe"
        }

        fn describe(&self) -> &'static str {
            "driver self-test scenario"
        }

        fn experiment_seed(&self, _config: &ProbeConfig, requested: Option<u64>) -> u64 {
            requested.unwrap_or(0x5CE0)
        }

        fn trial_count(&self, _config: &ProbeConfig, requested: Option<usize>) -> usize {
            requested.unwrap_or(3)
        }

        fn machine_config(&self, _config: &ProbeConfig, ctx: &TrialCtx) -> (MachineConfig, u64) {
            (MachineConfig::xiaomi_air13(), ctx.seed)
        }

        fn run_trial(&self, config: &ProbeConfig, machine: &mut Machine, ctx: &TrialCtx) -> u64 {
            machine.spin(config.spins.max(1_000_000));
            ctx.seed
        }

        fn summarize(&self, _config: &ProbeConfig, outputs: &[u64]) -> ProbeSummary {
            ProbeSummary {
                seeds: outputs.to_vec(),
            }
        }
    }

    static TEST_REGISTRY: [&dyn DynScenario; 1] = [&Probe];

    #[test]
    fn driver_derives_trial_seeds() {
        let run = run_scenario(&Probe, &ProbeConfig::default(), &RunOptions::default());
        assert_eq!(run.trials, 3);
        for (i, &seed) in run.outputs.iter().enumerate() {
            assert_eq!(seed, exec::derive_seed(0x5CE0, i as u64));
        }
        assert_eq!(run.summary.seeds, run.outputs);
        assert!(run.sink.is_none(), "capacity 0 disables tracing");
        assert_eq!(run.gt_deliveries.len(), 3);
    }

    #[test]
    fn traced_and_untraced_runs_agree_and_are_thread_invariant() {
        let config = ProbeConfig { spins: 40_000_000 };
        let reference = run_scenario(&Probe, &config, &RunOptions::default());
        for threads in [1, 2, 4] {
            let opts = RunOptions {
                threads: Some(threads),
                capacity: 1 << 12,
                ..RunOptions::default()
            };
            let traced = run_scenario(&Probe, &config, &opts);
            assert_eq!(traced.outputs, reference.outputs);
            assert_eq!(traced.gt_deliveries, reference.gt_deliveries);
            let sink = traced.sink.expect("traced");
            assert!(!sink.is_empty());
        }
    }

    #[test]
    fn traced_sinks_are_bit_identical_across_thread_counts() {
        let config = ProbeConfig { spins: 40_000_000 };
        // Chunks of 2/1/1 trials at 1/2/4 threads for 3 trials, and of
        // 19/10/5 for 37: the merged trace must not see the geometry.
        for trials in [3usize, 37] {
            let run_at = |threads| {
                run_scenario(
                    &Probe,
                    &config,
                    &RunOptions {
                        trials: Some(trials),
                        threads: Some(threads),
                        capacity: 1 << 12,
                        ..RunOptions::default()
                    },
                )
            };
            let reference = run_at(1).sink.expect("traced");
            // Events are grouped by trial, tracks ascending, and every
            // trial is bracketed by exactly one TrialStart/TrialEnd pair.
            let events = reference.events();
            assert!(
                events.windows(2).all(|w| w[0].track <= w[1].track),
                "{trials} trials"
            );
            for i in 0..trials {
                let trial: Vec<_> = events.iter().filter(|e| e.track == i as u32).collect();
                let starts = trial
                    .iter()
                    .filter(|e| matches!(e.kind, obs::EventKind::TrialStart { .. }))
                    .count();
                let ends = trial
                    .iter()
                    .filter(|e| matches!(e.kind, obs::EventKind::TrialEnd { .. }))
                    .count();
                assert_eq!((starts, ends), (1, 1), "trial {i} of {trials}");
                assert_eq!(
                    trial.first().map(|e| e.kind),
                    Some(obs::EventKind::TrialStart { index: i as u64 })
                );
                assert_eq!(
                    trial.last().map(|e| e.kind),
                    Some(obs::EventKind::TrialEnd { index: i as u64 })
                );
            }
            for threads in [2, 4] {
                assert_eq!(
                    run_at(threads).sink.expect("traced"),
                    reference,
                    "{trials} trials at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn dyn_face_round_trips_params_and_builds_reports() {
        let registry = Registry::new(&TEST_REGISTRY);
        assert_eq!(registry.len(), 1);
        assert!(!registry.is_empty());
        let scenario = registry.get("probe").expect("registered");
        assert_eq!(scenario.describe(), "driver self-test scenario");
        assert!(matches!(
            registry.get("nope"),
            Err(ScenarioError::UnknownScenario(_))
        ));
        let params = scenario.default_params();
        let run = scenario
            .run_dyn(Some(&params), &RunOptions::default())
            .expect("params valid");
        assert_eq!(run.report.scenario, "probe");
        assert_eq!(run.report.trials, 3);
        assert_eq!(run.report.seed, 0x5CE0);
        // The report round-trips through JSON.
        let text = serde_json::to_string(&run.report).expect("serializable");
        let back: RunReport = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, run.report);
        // Bad params surface as a typed error.
        let bad = Value::Map(vec![("spins".to_owned(), Value::Str("x".to_owned()))]);
        assert!(matches!(
            scenario.run_dyn(Some(&bad), &RunOptions::default()),
            Err(ScenarioError::Params(_))
        ));
    }

    #[test]
    fn reports_are_identical_across_thread_counts() {
        let registry = Registry::new(&TEST_REGISTRY);
        let scenario = registry.get("probe").expect("registered");
        let report_at = |threads| {
            let opts = RunOptions {
                threads: Some(threads),
                capacity: 1 << 12,
                ..RunOptions::default()
            };
            serde_json::to_string(&scenario.run_dyn(None, &opts).expect("runs").report)
                .expect("serializable")
        };
        let reference = report_at(1);
        for threads in [2, 4] {
            assert_eq!(report_at(threads), reference);
        }
    }

    #[test]
    fn recycled_machines_match_fresh_machines_at_any_thread_count() {
        let config = ProbeConfig { spins: 30_000_000 };
        // Reference: a fresh machine per trial. Probe's outputs are the
        // seeds, so the machine-dependent stats carry the comparison.
        let reference: Vec<TrialStats> = (0..12)
            .map(|i| {
                let ctx = TrialCtx {
                    index: i,
                    seed: exec::derive_seed(0x5CE0, i as u64),
                    experiment_seed: 0x5CE0,
                };
                let mut machine = Probe.build_machine(&config, &ctx);
                Probe.run_trial(&config, &mut machine, &ctx);
                TrialStats::of(&machine)
            })
            .collect();
        let fresh_deliveries: Vec<u64> = reference.iter().map(|s| s.gt_deliveries).collect();
        for threads in [1, 2, 4] {
            let run = run_scenario(
                &Probe,
                &config,
                &RunOptions {
                    trials: Some(12),
                    threads: Some(threads),
                    ..RunOptions::default()
                },
            );
            assert_eq!(run.gt_deliveries, fresh_deliveries, "threads {threads}");
            assert_eq!(run.totals.trials, 12);
            assert_eq!(run.total_gt_deliveries(), fresh_deliveries.iter().sum());
        }
    }

    #[test]
    fn totals_fold_matches_per_trial_deliveries() {
        let run = run_scenario(&Probe, &ProbeConfig::default(), &RunOptions::default());
        assert_eq!(run.totals.trials as usize, run.trials);
        assert_eq!(
            run.totals.ground_truth_deliveries,
            run.gt_deliveries.iter().sum::<u64>()
        );
    }

    #[test]
    fn fault_plan_override_reaches_the_machine() {
        // The override must change the run (the machine audits faults),
        // while `None` must leave the config-level wiring untouched.
        let config = ProbeConfig { spins: 80_000_000 };
        let nominal = run_scenario(&Probe, &config, &RunOptions::default());
        let faulted = run_scenario(
            &Probe,
            &config,
            &RunOptions {
                fault_plan: Some(FaultPlan::delivery_storm()),
                ..RunOptions::default()
            },
        );
        // Seeds (the outputs) are schedule-independent either way.
        assert_eq!(faulted.outputs, nominal.outputs);
        assert_eq!(nominal.trials, faulted.trials);
    }

    /// The chunk geometry is resolved in exactly one place
    /// ([`run_geometry`]).
    #[test]
    fn geometry_resolves_seed_trials_threads_and_chunk() {
        let config = ProbeConfig::default();
        for (trials, threads) in [(3usize, 1usize), (12, 2), (37, 4), (1, 8)] {
            let opts = RunOptions {
                trials: Some(trials),
                threads: Some(threads),
                ..RunOptions::default()
            };
            let geometry = run_geometry(&Probe, &config, &opts);
            assert_eq!(geometry.experiment_seed, 0x5CE0);
            assert_eq!(geometry.trials, trials);
            assert_eq!(geometry.threads, threads);
            assert_eq!(geometry.chunk, trial_chunk(trials, threads));
        }
    }

    #[test]
    fn fault_log_folds_across_trials() {
        // A delivery-storm override must surface in the merged run-level
        // fault log (the campaign layer folds these across cells).
        let config = ProbeConfig { spins: 80_000_000 };
        let nominal = run_scenario(&Probe, &config, &RunOptions::default());
        assert!(nominal.fault_log.is_clean());
        let faulted = run_scenario(
            &Probe,
            &config,
            &RunOptions {
                fault_plan: Some(FaultPlan::delivery_storm()),
                ..RunOptions::default()
            },
        );
        assert!(
            faulted.fault_log.delivery_faults() > 0,
            "a delivery storm over {} deliveries must log faults",
            faulted.total_gt_deliveries(),
        );
    }
}
