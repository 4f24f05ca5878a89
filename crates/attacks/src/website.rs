//! Case study 1: website fingerprinting with SegScope interrupt traces
//! (paper Section IV-A, Table IV).
//!
//! Each website is modeled as a stochastic *activity profile* — a train of
//! network bursts (resource fetches) and a rendering cadence (GPU
//! interrupts) plus a CPU-load curve — whose parameters are drawn
//! deterministically from the site identity. Visiting the site injects
//! the profile's device interrupts into the attacker core's fabric and
//! loads the shared frequency domain; the attacker collects a SegCnt
//! trace with [`SegProbe`] and an LSTM classifies which site was visited.

use irq::time::Ps;
use irq::InterruptKind;
use nnet::{AdamConfig, SeqClassifier, SeqExample};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scenario::{MergeReport, RunOptions, Scenario, TrialCtx};
use segscope::SegProbe;
use segsim::{CoResident, FaultPlan, Machine, MachineConfig, StepFn};
use serde::{Deserialize, Serialize};

/// The browser rendering the site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Browser {
    /// Chrome: direct connection, crisp burst timing.
    Chrome,
    /// Tor Browser: onion-routing latency, burst-shape padding, and
    /// timing jitter — the defenses that lower (but do not defeat)
    /// fingerprinting accuracy in paper Table IV.
    Tor,
}

/// The system setting of a Table IV row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Setting {
    /// Attacker and browser pinned to the same logical core (the paper's
    /// default).
    Default,
    /// Attacker and browser on different logical cores.
    DifferentCores,
    /// DVFS disabled (`cpufreq-set` pins 2.5 GHz).
    FrequencyScalingDisabled,
    /// Hyper-threading disabled (no SMT-sibling noise).
    HyperThreadingDisabled,
}

impl Setting {
    /// All four Table IV settings, in row order.
    pub const ALL: [Setting; 4] = [
        Setting::Default,
        Setting::DifferentCores,
        Setting::FrequencyScalingDisabled,
        Setting::HyperThreadingDisabled,
    ];

    /// The row label used in the paper's Table IV.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Setting::Default => "Default",
            Setting::DifferentCores => "Different cores used",
            Setting::FrequencyScalingDisabled => "Frequency scaling disabled",
            Setting::HyperThreadingDisabled => "Hyper-threading disabled",
        }
    }
}

/// One network-burst group in a site profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Burst {
    start: Ps,
    events: u32,
    gap: Ps,
}

/// A website's deterministic activity profile.
///
/// Parameters are derived from the site index alone, so every visit to
/// site `i` shares the same underlying structure while per-visit
/// randomness (jitter, drops) differs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WebsiteProfile {
    /// Site index (stands in for the paper's 95-site Alexa-derived list).
    pub site: usize,
    bursts: Vec<Burst>,
    /// Render/GPU interrupt period (vsync-ish cadence while loading).
    gpu_period: Ps,
    /// How long GPU activity lasts.
    gpu_until: Ps,
    /// CPU load while the main document parses/executes.
    load_level: f64,
    /// When the heavy-load phase ends.
    load_until: Ps,
}

impl WebsiteProfile {
    /// Builds the profile of site `site`.
    #[must_use]
    pub fn for_site(site: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(
            0x5e_bc0d_e00f ^ (site as u64).wrapping_mul(0x9E3779B97F4A7C15),
        );
        let n_bursts = rng.gen_range(3..12);
        let mut bursts = Vec::with_capacity(n_bursts);
        for b in 0..n_bursts {
            let start = Ps::from_ms(rng.gen_range(5 + 120 * b as u64..80 + 120 * b as u64));
            bursts.push(Burst {
                start,
                events: rng.gen_range(4..40),
                gap: Ps::from_us(rng.gen_range(150..2_500)),
            });
        }
        WebsiteProfile {
            site,
            bursts,
            gpu_period: Ps::from_us(rng.gen_range(8_000..22_000)),
            gpu_until: Ps::from_ms(rng.gen_range(300..1_400)),
            load_level: rng.gen_range(0.35..0.95),
            load_until: Ps::from_ms(rng.gen_range(250..1_200)),
        }
    }

    /// Generates one visit's device-interrupt schedule and load curve,
    /// starting at `t0`, under the given browser.
    pub fn visit<R: Rng + ?Sized>(
        &self,
        t0: Ps,
        browser: Browser,
        rng: &mut R,
    ) -> (Vec<(Ps, InterruptKind)>, StepFn) {
        let mut events = Vec::new();
        let (latency_ms, jitter_frac, padding) = match browser {
            Browser::Chrome => (0u64, 0.06, 0u32),
            Browser::Tor => (rng.gen_range(120..400), 0.25, 24),
        };
        let latency = Ps::from_ms(latency_ms);
        for burst in &self.bursts {
            let jitter = 1.0 + rng.gen_range(-jitter_frac..jitter_frac);
            let start = t0 + latency + Ps::from_ps((burst.start.as_ps() as f64 * jitter) as u64);
            let mut t = start;
            for _ in 0..burst.events {
                // Tor's cell-level pacing coarsens gaps.
                let gap_scale = if browser == Browser::Tor { 2.0 } else { 1.0 };
                let gap = (burst.gap.as_ps() as f64 * gap_scale * (1.0 + rng.gen_range(-0.3..0.3)))
                    as u64;
                t += Ps::from_ps(gap.max(1));
                events.push((t, InterruptKind::Network));
            }
        }
        // Tor padding: uniform cover traffic across the visit.
        for _ in 0..padding {
            let at = t0 + latency + Ps::from_ms(rng.gen_range(0..1_500));
            events.push((at, InterruptKind::Network));
        }
        // Rendering cadence.
        let mut t = t0 + latency + self.gpu_period;
        while t < t0 + latency + self.gpu_until {
            events.push((t, InterruptKind::Gpu));
            t += self.gpu_period;
        }
        events.sort_by_key(|&(at, _)| at);
        // Load curve: heavy while parsing, light afterwards.
        let mut load = StepFn::zero();
        load.push(t0, 0.05);
        load.push(t0 + latency, self.load_level);
        load.push(t0 + latency + self.load_until, 0.1);
        (events, load)
    }
}

/// Configuration of one Table IV experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WebsiteFpConfig {
    /// Number of distinct sites (paper: 95; quick default: 12).
    pub n_sites: usize,
    /// Traces collected per site (paper: 100; quick default: 12).
    pub traces_per_site: usize,
    /// SegCnt samples per trace (paper: 5000; quick default: 600).
    pub trace_len: usize,
    /// Average-pooled sequence length fed to the LSTM.
    pub pooled_len: usize,
    /// LSTM hidden units (paper: 32).
    pub hidden: usize,
    /// Training epochs per fold.
    pub epochs: usize,
    /// Cross-validation folds (paper: 10).
    pub folds: usize,
    /// Browser under test.
    pub browser: Browser,
    /// System setting under test.
    pub setting: Setting,
    /// RNG seed.
    pub seed: u64,
    /// Optional interrupt-path fault plan installed on every visit
    /// machine (`None` = nominal fault-free run).
    pub fault_plan: Option<FaultPlan>,
    /// Streaming-eval mode: fold evaluation runs through the
    /// [`serve`] engine (bit-identical to batch evaluation by the serve
    /// parity contract) and each trial emits a
    /// [`obs::EventKind::ServeVerdict`] into its trace sink. The
    /// serving classifier is seeded from its own auxiliary stream and
    /// serving draws no randomness, so machine RNG streams — and
    /// therefore golden traces — are untouched.
    #[serde(default)]
    pub streaming: bool,
}

impl Default for WebsiteFpConfig {
    /// The [`WebsiteFpConfig::quick`] Chrome run in the paper's default
    /// setting.
    fn default() -> Self {
        WebsiteFpConfig::quick(Browser::Chrome, Setting::Default)
    }
}

impl WebsiteFpConfig {
    /// A configuration small enough for `cargo test`.
    #[must_use]
    pub fn quick(browser: Browser, setting: Setting) -> Self {
        WebsiteFpConfig {
            n_sites: 8,
            traces_per_site: 8,
            trace_len: 400,
            pooled_len: 64,
            hidden: 16,
            epochs: 14,
            folds: 4,
            browser,
            setting,
            seed: 0x7AB1E4,
            fault_plan: None,
            streaming: false,
        }
    }

    /// The bench-scale configuration (larger site set, 10-fold CV).
    #[must_use]
    pub fn bench(browser: Browser, setting: Setting) -> Self {
        WebsiteFpConfig {
            n_sites: 20,
            traces_per_site: 15,
            trace_len: 800,
            pooled_len: 96,
            hidden: 24,
            epochs: 20,
            folds: 5,
            browser,
            setting,
            seed: 0x7AB1E4,
            fault_plan: None,
            streaming: false,
        }
    }

    /// Installs a fault plan on every visit machine.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// The outcome of one Table IV cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FingerprintResult {
    /// Mean top-1 accuracy across folds.
    pub top1: f64,
    /// Std of top-1 across folds.
    pub top1_std: f64,
    /// Mean top-5 accuracy across folds.
    pub top5: f64,
    /// Std of top-5 across folds.
    pub top5_std: f64,
    /// Chance level (`1 / n_sites`).
    pub chance: f64,
}

/// Builds the attacker machine of one visit: the Table IV setting's
/// noise/SMT adjustments, the config's fault plan, and the co-residency
/// or frequency-pinning wiring.
#[must_use]
pub fn build_visit_machine(config: &WebsiteFpConfig, visit_seed: u64) -> Machine {
    let mut machine = Machine::new(visit_machine_config(config), visit_seed);
    wire_visit_machine(config, &mut machine);
    machine
}

/// The visit machine's configuration: the Table IV setting's noise/SMT
/// adjustments and the config's fault plan.
fn visit_machine_config(config: &WebsiteFpConfig) -> MachineConfig {
    let mut machine_cfg = MachineConfig::xiaomi_air13();
    if config.setting == Setting::HyperThreadingDisabled {
        machine_cfg.noise.smt_factor = 1.0;
        machine_cfg.noise.op_jitter_std *= 0.6;
    } else {
        machine_cfg.noise.smt_factor = 1.04;
    }
    machine_cfg.fault_plan = config.fault_plan;
    machine_cfg
}

/// The visit machine's post-boot wiring: the setting's co-resident
/// browser or pinned frequency.
fn wire_visit_machine(config: &WebsiteFpConfig, machine: &mut Machine) {
    match config.setting {
        Setting::Default => {
            machine.set_co_resident(Some(CoResident::browser()));
        }
        Setting::DifferentCores => {}
        Setting::FrequencyScalingDisabled => {
            machine.pin_frequency(Some(2_500_000));
        }
        Setting::HyperThreadingDisabled => {
            machine.set_co_resident(Some(CoResident::browser()));
        }
    }
}

/// Runs one visit to `site` on a prepared machine and collects the
/// SegCnt trace. `visit_seed` seeds the visit's jitter stream (the same
/// value that seeded the machine).
///
/// # Panics
///
/// Panics if the probe fails (the default machines never mitigate it).
#[must_use]
pub fn collect_trace_on(
    machine: &mut Machine,
    config: &WebsiteFpConfig,
    site: usize,
    visit_seed: u64,
) -> Vec<f64> {
    // Warm up, then start the visit.
    machine.spin(50_000_000);
    let t0 = machine.now();
    let profile = WebsiteProfile::for_site(site);
    let mut visit_rng = SmallRng::seed_from_u64(exec::derive_seed(visit_seed, exec::AUX_STREAM));
    let (events, load) = profile.visit(t0, config.browser, &mut visit_rng);
    machine.inject_interrupts(events);
    machine.set_victim_load(load);
    let mut probe = SegProbe::new();
    let mut samples = Vec::new();
    probe
        .probe_n_into(machine, config.trace_len, &mut samples)
        .expect("probe works on unmitigated machines");
    samples.iter().map(|s| s.segcnt as f64).collect()
}

/// Collects one SegCnt trace of a visit to `site` on a fresh machine.
///
/// # Panics
///
/// Panics if the probe fails (the default machines never mitigate it).
#[must_use]
pub fn collect_trace(config: &WebsiteFpConfig, site: usize, visit_seed: u64) -> Vec<f64> {
    let mut machine = build_visit_machine(config, visit_seed);
    collect_trace_on(&mut machine, config, site, visit_seed)
}

/// Converts a raw SegCnt trace into an LSTM example with two channels:
/// the standardized pooled SegCnt level (frequency/load information) and
/// a *burst density* channel — the fraction of samples in each pooling
/// bucket that are short intervals (device interrupts cut timer periods
/// short, so burst density tracks network/GPU activity directly).
#[must_use]
pub fn trace_to_example(trace: &[f64], pooled_len: usize, label: usize) -> SeqExample {
    let pooled = nnet::average_pool(trace, pooled_len);
    let level = nnet::standardize(&pooled);
    // Burst density per bucket: short interval = below half the trace
    // median.
    let mut sorted = trace.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = sorted[sorted.len() / 2];
    let short: Vec<f64> = trace
        .iter()
        .map(|&x| f64::from(u8::from(x < median * 0.5)))
        .collect();
    let density = nnet::average_pool(&short, pooled_len);
    let xs = level
        .iter()
        .zip(&density)
        .map(|(&l, &d)| vec![l as f32, (d * 4.0) as f32])
        .collect();
    SeqExample { xs, label }
}

/// Auxiliary stream of the streaming-eval serving classifier. Distinct
/// from the fold-split stream (`AUX_STREAM`) and every fold's model
/// stream (`AUX_STREAM + 1 + fold`), and never mixed into machine or
/// visit streams.
const SERVE_STREAM: u64 = exec::AUX_STREAM + 0x5E57;

/// Streams a pooled trial example through a config-seeded serving
/// classifier and emits the verdict into the machine's trace sink, when
/// one is installed. The classifier draws only from [`SERVE_STREAM`]
/// and the serving path is RNG-free, so traces stay byte-identical.
fn emit_serve_verdict(
    config: &WebsiteFpConfig,
    machine: &mut Machine,
    index: usize,
    example: &SeqExample,
) {
    if machine.trace_sink().is_none() {
        return;
    }
    let mut rng = SmallRng::seed_from_u64(exec::derive_seed(config.seed, SERVE_STREAM));
    let model = SeqClassifier::new(
        2,
        config.hidden,
        config.n_sites,
        &mut rng,
        AdamConfig::default(),
    );
    let mut session = serve::StreamSession::new(&model, example.xs.len());
    let mut verdict = None;
    for x in &example.xs {
        verdict = session.push(&model, x);
    }
    let verdict = verdict.expect("pooled example is non-empty");
    let at_ps = machine.now().as_ps();
    if let Some(sink) = machine.trace_sink_mut() {
        sink.emit(
            at_ps,
            obs::EventKind::ServeVerdict {
                session: index as u32,
                class: verdict.class as u32,
                steps: verdict.steps as u32,
            },
        );
    }
}

/// Fold evaluation through the streaming engine: serves the test set
/// through the cross-session batcher and tallies per-chunk
/// [`nnet::ConfusionMatrix`] fragments folded with [`MergeReport`].
/// Bit-identical to [`SeqClassifier::accuracy`] by the serve parity
/// contract, so enabling streaming changes no Table IV numbers.
fn streaming_fold_top1(model: &SeqClassifier, test: &[SeqExample]) -> f64 {
    let traces: Vec<Vec<Vec<f32>>> = test.iter().map(|ex| ex.xs.clone()).collect();
    let verdicts = serve::serve_batched(model, &traces, 16);
    let chunks = test.chunks(8).zip(verdicts.chunks(8)).map(|(exs, vs)| {
        let mut part = nnet::ConfusionMatrix::new(model.classes());
        for (ex, v) in exs.iter().zip(vs) {
            part.record(ex.label, v.class);
        }
        part
    });
    nnet::ConfusionMatrix::merged(chunks).accuracy()
}

/// The registered website-fingerprinting scenario: trial `i` is one
/// visit to site `i / traces_per_site`; the summary trains and
/// cross-validates the LSTM over the collected dataset.
pub struct WebsiteScenario;

impl Scenario for WebsiteScenario {
    type Config = WebsiteFpConfig;
    type TrialOutput = SeqExample;
    type Summary = FingerprintResult;

    fn name(&self) -> &'static str {
        "website"
    }

    fn describe(&self) -> &'static str {
        "website fingerprinting from SegCnt interrupt traces with an LSTM (paper Section IV-A)"
    }

    fn experiment_seed(&self, config: &Self::Config, requested: Option<u64>) -> u64 {
        requested.unwrap_or(config.seed)
    }

    fn trial_count(&self, config: &Self::Config, _requested: Option<usize>) -> usize {
        // Structured: one trial per (site, visit) pair.
        config.n_sites * config.traces_per_site
    }

    fn machine_config(&self, config: &Self::Config, ctx: &TrialCtx) -> (MachineConfig, u64) {
        (visit_machine_config(config), ctx.seed)
    }

    fn prepare_machine(&self, config: &Self::Config, machine: &mut Machine, _ctx: &TrialCtx) {
        wire_visit_machine(config, machine);
    }

    fn run_trial(
        &self,
        config: &Self::Config,
        machine: &mut Machine,
        ctx: &TrialCtx,
    ) -> SeqExample {
        let site = ctx.index / config.traces_per_site.max(1);
        let trace = collect_trace_on(machine, config, site, ctx.seed);
        let example = trace_to_example(&trace, config.pooled_len, site);
        if config.streaming {
            emit_serve_verdict(config, machine, ctx.index, &example);
        }
        example
    }

    fn summarize(&self, config: &Self::Config, outputs: &[SeqExample]) -> FingerprintResult {
        // The fold split and each fold's model init draw from their own
        // auxiliary streams so folds are independent of each other.
        let mut fold_rng =
            SmallRng::seed_from_u64(exec::derive_seed(config.seed, exec::AUX_STREAM));
        let folds = nnet::k_fold_indices(outputs.len(), config.folds, &mut fold_rng);
        let threads = exec::resolve_threads(None);
        let fold_scores: Vec<(f64, f64)> = exec::parallel_map(folds.len(), threads, |f| {
            let (train_idx, test_idx) = &folds[f];
            let train: Vec<SeqExample> = train_idx.iter().map(|&i| outputs[i].clone()).collect();
            let test: Vec<SeqExample> = test_idx.iter().map(|&i| outputs[i].clone()).collect();
            let mut model_rng = SmallRng::seed_from_u64(exec::derive_seed(
                config.seed,
                exec::AUX_STREAM + 1 + f as u64,
            ));
            let mut model = SeqClassifier::new(
                2, // channels: SegCnt level + burst density
                config.hidden,
                config.n_sites,
                &mut model_rng,
                AdamConfig {
                    lr: 0.015,
                    ..AdamConfig::default()
                },
            );
            for _ in 0..config.epochs {
                model.train_epoch(&train, 16);
            }
            // One forward pass per test example yields both scores.
            let (mut top1_hits, mut top5_hits) = (0usize, 0usize);
            for ex in &test {
                let logits = model.logits(&ex.xs);
                top1_hits += usize::from(nnet::argmax(&logits) == ex.label);
                top5_hits += usize::from(nnet::top_k(&logits, 5).contains(&ex.label));
            }
            let n = test.len().max(1) as f64;
            let top1 = if config.streaming {
                streaming_fold_top1(&model, &test)
            } else {
                top1_hits as f64 / n
            };
            (top1, top5_hits as f64 / n)
        });
        let top1s: Vec<f64> = fold_scores.iter().map(|s| s.0).collect();
        let top5s: Vec<f64> = fold_scores.iter().map(|s| s.1).collect();
        FingerprintResult {
            top1: segscope::mean(&top1s),
            top1_std: segscope::std_dev(&top1s),
            top5: segscope::mean(&top5s),
            top5_std: segscope::std_dev(&top5s),
            chance: 1.0 / config.n_sites as f64,
        }
    }
}

/// Runs the full fingerprinting experiment: trace collection, k-fold CV,
/// LSTM training, and evaluation.
///
/// Thin wrapper over the generic [`scenario`] driver and
/// [`WebsiteScenario`]: trace collection fans out one task per
/// `(site, visit)` pair and the CV folds train concurrently; every task
/// derives its own seed from `config.seed`, so the result is
/// bit-identical at any worker count (`SEGSCOPE_THREADS` selects it).
#[must_use]
pub fn run_experiment(config: &WebsiteFpConfig) -> FingerprintResult {
    scenario::run_scenario(&WebsiteScenario, config, &RunOptions::default()).summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_deterministic_and_distinct() {
        let a1 = WebsiteProfile::for_site(3);
        let a2 = WebsiteProfile::for_site(3);
        let b = WebsiteProfile::for_site(4);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }

    #[test]
    fn tor_adds_latency_and_padding() {
        let profile = WebsiteProfile::for_site(1);
        let mut rng = SmallRng::seed_from_u64(9);
        let (chrome_events, _) = profile.visit(Ps::ZERO, Browser::Chrome, &mut rng);
        let mut rng = SmallRng::seed_from_u64(9);
        let (tor_events, _) = profile.visit(Ps::ZERO, Browser::Tor, &mut rng);
        assert!(
            tor_events.len() > chrome_events.len(),
            "padding adds events"
        );
        let first_chrome = chrome_events.first().unwrap().0;
        let first_tor = tor_events.first().unwrap().0;
        assert!(first_tor > first_chrome, "onion latency delays traffic");
    }

    #[test]
    fn traces_differ_between_sites_more_than_within() {
        let config = WebsiteFpConfig::quick(Browser::Chrome, Setting::DifferentCores);
        let t_a1 = collect_trace(&config, 0, 100);
        let t_a2 = collect_trace(&config, 0, 101);
        let t_b = collect_trace(&config, 5, 102);
        let dist = |x: &[f64], y: &[f64]| -> f64 {
            let xa = nnet::standardize(&nnet::average_pool(x, 64));
            let ya = nnet::standardize(&nnet::average_pool(y, 64));
            xa.iter()
                .zip(&ya)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        };
        let within = dist(&t_a1, &t_a2);
        let between = dist(&t_a1, &t_b);
        assert!(
            between > within,
            "between-site distance {between} should exceed within-site {within}"
        );
    }

    #[test]
    fn quick_experiment_beats_chance_soundly() {
        let config = WebsiteFpConfig::quick(Browser::Chrome, Setting::DifferentCores);
        let result = run_experiment(&config);
        assert!(
            result.top1 > 4.0 * result.chance,
            "top1 {} vs chance {}",
            result.top1,
            result.chance
        );
        assert!(result.top5 >= result.top1);
    }

    #[test]
    fn settings_have_labels() {
        for s in Setting::ALL {
            assert!(!s.label().is_empty());
        }
    }

    /// Streaming eval is observability, not a different experiment:
    /// every Table IV number must come out bit-identical.
    #[test]
    fn streaming_eval_matches_batch_eval_exactly() {
        let mut config = WebsiteFpConfig::quick(Browser::Chrome, Setting::DifferentCores);
        config.n_sites = 4;
        config.traces_per_site = 5;
        config.epochs = 6;
        config.folds = 3;
        let baseline = run_experiment(&config);
        config.streaming = true;
        let streamed = run_experiment(&config);
        assert_eq!(baseline, streamed);
    }

    /// A streaming trial on a sink-instrumented machine records its
    /// serving verdict; without the flag the trace stays clean.
    #[test]
    fn streaming_trials_emit_serve_verdicts() {
        let mut config = WebsiteFpConfig::quick(Browser::Chrome, Setting::DifferentCores);
        config.streaming = true;
        let ctx = TrialCtx {
            index: 3,
            seed: exec::derive_seed(config.seed, 3),
            experiment_seed: config.seed,
        };
        let run = |config: &WebsiteFpConfig| {
            let mut machine = WebsiteScenario.build_machine(config, &ctx);
            machine.install_trace_sink(obs::TraceSink::with_capacity(4096));
            WebsiteScenario.run_trial(config, &mut machine, &ctx);
            machine.take_trace_sink().expect("sink stays installed")
        };
        let events = run(&config).events();
        let verdicts: Vec<_> = events
            .iter()
            .filter(|e| e.class() == obs::EventClass::ServeVerdict)
            .collect();
        assert_eq!(verdicts.len(), 1, "one verdict per streamed trial");
        let obs::EventKind::ServeVerdict {
            session,
            class,
            steps,
        } = verdicts[0].kind
        else {
            unreachable!()
        };
        assert_eq!(session, 3);
        assert!((class as usize) < config.n_sites);
        assert_eq!(steps as usize, config.pooled_len);
        // The instrumentation draws from its own stream: the rest of
        // the trace is byte-identical with streaming off.
        config.streaming = false;
        let baseline = run(&config);
        let without_verdicts: Vec<_> = events
            .iter()
            .filter(|e| e.class() != obs::EventClass::ServeVerdict)
            .copied()
            .collect();
        assert_eq!(without_verdicts, baseline.events());
    }
}
