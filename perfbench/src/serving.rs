//! The `serve` workload: website traces served through
//! `serve::serve_batched` at capacity 64, half of the sessions on the
//! f64 classifier and half on its i16 quantization, on one thread.

use crate::host::{self, CpuWall};
use crate::stats::{self, median, percentile};
use crate::trace::Spans;
use crate::{Outcome, DEFAULT_SEED, SETUP_REPEATS, WALL_BOUND};
use nnet::{AdamConfig, SeqClassifier, SeqExample};
use rand::SeedableRng as _;
use segscope_attacks::website::{self, Browser, Setting, WebsiteFpConfig};
use serve::{QuantScheme, QuantizedSeqClassifier, SessionBatch, StepModel, Verdict};
use std::time::Instant;

/// Sessions served per pass, each a distinct website visit; the first
/// half on f64, the rest on i16.
const SESSIONS: usize = 4096;
/// Lanes of the session batch.
const CAPACITY: usize = 64;
/// Visits per site the classifier trains on.
const TRAIN_PER_SITE: usize = 16;
/// Training epochs: enough that every seed's classifier converges, so
/// `accuracy` varies little across seeds.
const EPOCHS: usize = 30;
/// Auxiliary stream of the classifier's initial weights (the stream
/// `segscope serve-bench` and `bench_serve` use).
const MODEL_STREAM: u64 = 0x5EBE;
/// `serve::verdict_fnv` of all served verdicts at [`DEFAULT_SEED`].
const GOLDEN_SERVE: u64 = 0x307c_7d86_aea1_bd25;

/// The trained models and the sessions to serve.
struct Setup {
    model: SeqClassifier,
    quantized: QuantizedSeqClassifier,
    traces: Vec<Vec<Vec<f32>>>,
    labels: Vec<usize>,
    /// `model.predict` of each session's trace.
    predicted: Vec<usize>,
    sim: SimCounts,
    /// Host seconds the trace collection took.
    collect_s: f64,
}

/// What the simulator did while collecting the traces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SimCounts {
    deliveries: u64,
    dropped: u64,
    duplicated: u64,
    coalesced: u64,
    returns: u64,
    sim_ps: u128,
}

/// Collects one trace per visit, the first [`TRAIN_PER_SITE`] visits of
/// every site for training and [`SESSIONS`] more to serve, trains the
/// classifier and quantizes it.
fn setup(seed: u64, spans: &mut Spans) -> Setup {
    let mut config = WebsiteFpConfig::quick(Browser::Chrome, Setting::DifferentCores);
    config.seed = seed;
    let train_visits = TRAIN_PER_SITE * config.n_sites;
    let mut examples: Vec<SeqExample> = Vec::with_capacity(train_visits + SESSIONS);
    let mut sim = SimCounts::default();
    let collect = Instant::now();
    for visit in 0..train_visits + SESSIONS {
        let site = visit % config.n_sites;
        let visit_seed = exec::derive_seed(config.seed, visit as u64);
        let mut machine = website::build_visit_machine(&config, visit_seed);
        let trace = website::collect_trace_on(&mut machine, &config, site, visit_seed);
        sim.deliveries += machine.ground_truth().len() as u64;
        let faults = machine.fault_log();
        sim.dropped += faults.dropped;
        sim.duplicated += faults.duplicated;
        sim.coalesced += faults.coalesced;
        sim.returns += machine.kernel_entries();
        sim.sim_ps += u128::from(machine.now().as_ps());
        examples.push(website::trace_to_example(&trace, config.pooled_len, site));
    }
    let collect_s = collect.elapsed().as_secs_f64();
    let served = examples.split_off(train_visits);

    // Trained as `WebsiteScenario::summarize` trains each fold's model.
    let mut rng = rand::rngs::SmallRng::seed_from_u64(exec::derive_seed(seed, MODEL_STREAM));
    let mut model = SeqClassifier::new(
        2,
        config.hidden,
        config.n_sites,
        &mut rng,
        AdamConfig {
            lr: 0.015,
            ..AdamConfig::default()
        },
    );
    let train_start = Instant::now();
    for _ in 0..EPOCHS {
        spans.time("nnet.train_epoch", || model.train_epoch(&examples, 16));
    }
    spans.record("nnet.train", train_start.elapsed().as_secs_f64());
    let predicted = served
        .iter()
        .map(|ex| spans.time("nnet.predict", || model.predict(&ex.xs)))
        .collect();
    let quantized = spans.time("serve.quantize", || {
        QuantizedSeqClassifier::quantize(&model, QuantScheme::I16)
    });
    let labels = served.iter().map(|ex| ex.label).collect();
    Setup {
        traces: served.into_iter().map(|ex| ex.xs).collect(),
        labels,
        predicted,
        model,
        quantized,
        sim,
        collect_s,
    }
}

/// `serve::serve_batched`'s loop with a span around every
/// `SessionBatch::attach`, `stage` and `step`; step spans go to `steps`.
/// Returns the verdicts in trace order and the lanes stepped.
fn drive<M: StepModel>(
    model: &M,
    traces: &[Vec<Vec<f32>>],
    steps: &mut Vec<f64>,
    spans: &mut Spans,
) -> (Vec<Verdict>, u64) {
    let mut batch = SessionBatch::new(model, CAPACITY);
    let mut verdicts: Vec<Option<Verdict>> = vec![None; traces.len()];
    let mut owner = vec![usize::MAX; CAPACITY];
    let mut cursor = vec![0usize; CAPACITY];
    let mut ids = vec![None; CAPACITY];
    let (mut attach_s, mut stage_s, mut lanes_stepped) = (0.0, 0.0, 0u64);
    let mut next = 0usize;
    loop {
        while next < traces.len() {
            let t = Instant::now();
            let id = batch.attach(traces[next].len());
            attach_s += t.elapsed().as_secs_f64();
            let Some(id) = id else { break };
            owner[id.lane()] = next;
            cursor[id.lane()] = 0;
            ids[id.lane()] = Some(id);
            next += 1;
        }
        let active = batch.active_sessions();
        if active == 0 {
            break;
        }
        let t = Instant::now();
        for lane in 0..CAPACITY {
            let Some(id) = ids[lane] else { continue };
            batch.stage(id, &traces[owner[lane]][cursor[lane]]);
            cursor[lane] += 1;
        }
        stage_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let done = batch.step(model);
        steps.push(t.elapsed().as_secs_f64());
        lanes_stepped += active as u64;
        for (id, verdict) in done {
            verdicts[owner[id.lane()]] = Some(verdict);
            ids[id.lane()] = None;
            owner[id.lane()] = usize::MAX;
        }
    }
    spans.record("serve.attach", attach_s);
    spans.record("serve.stage", stage_s);
    let verdicts = verdicts
        .into_iter()
        .map(|v| v.expect("every trace produces a verdict"))
        .collect();
    (verdicts, lanes_stepped)
}

/// Sessions whose verdicts differ between `got` and `want`.
fn mismatches(got: &[Verdict], want: &[Verdict]) -> u64 {
    let differ = got.iter().zip(want).filter(|(a, b)| a != b).count();
    (differ + got.len().abs_diff(want.len())) as u64
}

/// Runs the workload for at least `seconds` of measured time.
///
/// The set-ups are spread over the run, one before each equal share of
/// the measured time, so that `setup_s` and the set-up's simulation rate
/// sample the host over the whole run, as the serving passes do.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let start = Instant::now();
    let s = setup(seed, &mut spans);
    setups.push(start.elapsed().as_secs_f64());
    let mut collect_s = s.collect_s;
    let half = SESSIONS / 2;
    let (f64_traces, i16_traces) = s.traces.split_at(half);

    // References, outside the measured phase: the recycled
    // single-session path on each precision.
    let sequential_start = Instant::now();
    let seq_f64 = serve::serve_sequential(&s.model, f64_traces);
    let sequential_s = sequential_start.elapsed().as_secs_f64();
    let seq_i16 = serve::serve_sequential(&s.quantized, i16_traces);
    let parity = seq_f64
        .iter()
        .zip(&s.predicted)
        .filter(|(v, p)| v.class != **p)
        .count();
    if parity > 0 {
        out.fail_all(format!(
            "{parity} sequential f64 verdicts differ from SeqClassifier::predict"
        ));
    }
    let agree = seq_i16
        .iter()
        .zip(&s.predicted[half..])
        .filter(|(v, p)| v.class == **p)
        .count();
    let i16_agreement = agree as f64 / seq_i16.len() as f64;
    let want: Vec<Verdict> = seq_f64.iter().chain(&seq_i16).copied().collect();
    let fnv = serve::verdict_fnv(&want);

    let (mut cpu_s, mut wall_s) = (0.0, 0.0);
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let (mut steps_f64, mut steps_i16) = (Vec::new(), Vec::new());
    let mut lanes_stepped = 0u64;
    let mut peak_rss_mb = 0.0;
    for round in 0..SETUP_REPEATS {
        if round > 0 {
            let start = Instant::now();
            let again = setup(seed, &mut spans);
            setups.push(start.elapsed().as_secs_f64());
            collect_s += again.collect_s;
            if again.model != s.model || again.quantized != s.quantized || again.sim != s.sim {
                out.fail_all(
                    "a repeated set-up simulated different counts or trained a different model",
                );
            }
        }
        let guard = CpuWall::start();
        let share = seconds / SETUP_REPEATS as f64;
        let clock = Instant::now();
        let passes = walls.len();
        while walls.len() == passes || clock.elapsed().as_secs_f64() < share {
            let start = Instant::now();
            let batched_f64 = serve::serve_batched(&s.model, f64_traces, CAPACITY);
            let batched_i16 = serve::serve_batched(&s.quantized, i16_traces, CAPACITY);
            walls.push(start.elapsed().as_secs_f64());
            if walls.len() == 1 {
                // After one pass, so that the figure does not depend on
                // how many passes fit in the measured time.
                peak_rss_mb = host::peak_rss_mb();
            }
            out.attempted += SESSIONS as u64;
            let bad = mismatches(&batched_f64, &seq_f64) + mismatches(&batched_i16, &seq_i16);
            if bad > 0 {
                out.fail(bad, "serve_batched verdicts differ from serve_sequential");
            }
            if traced {
                let start = Instant::now();
                let (f, lanes_f) = drive(&s.model, f64_traces, &mut steps_f64, &mut spans);
                let (q, lanes_q) = drive(&s.quantized, i16_traces, &mut steps_i16, &mut spans);
                traced_walls.push(start.elapsed().as_secs_f64());
                lanes_stepped += lanes_f + lanes_q;
                out.attempted += SESSIONS as u64;
                let bad = mismatches(&f, &seq_f64) + mismatches(&q, &seq_i16);
                if bad > 0 {
                    out.fail(bad, "traced verdicts differ from the untraced run's");
                }
            }
        }
        let (cpu, wall) = guard.read();
        cpu_s += cpu;
        wall_s += wall;
    }
    // Every set-up simulates the same deliveries (checked above).
    let sim_rate = (s.sim.deliveries * SETUP_REPEATS as u64) as f64 / collect_s;
    if cpu_s > wall_s * (1.0 + WALL_BOUND) {
        out.fail_all(format!(
            "CPU time {cpu_s:.2} s exceeds 1 thread x {wall_s:.2} s wall: a worker pool ignores \
             the pinned thread count"
        ));
    }
    if seed == DEFAULT_SEED && fnv != GOLDEN_SERVE {
        out.fail_all(format!(
            "verdict FNV {fnv:#018x} differs from the recorded {GOLDEN_SERVE:#018x} for seed \
             {DEFAULT_SEED}"
        ));
    }
    let correct = want
        .iter()
        .zip(&s.labels)
        .filter(|(v, label)| v.class == **label)
        .count();
    out.note(format!(
        "serve: {SESSIONS} sessions x {} steps at capacity {CAPACITY}, half f64, half i16; \
         verdict FNV {fnv:#018x}; i16 agrees with f64 on {:.4} of its sessions; trace \
         collection {} deliveries in {:.3} s per set-up; CPU {cpu_s:.2} s over {wall_s:.2} s \
         wall; pass walls {:.3?}",
        s.traces[0].len(),
        i16_agreement,
        s.sim.deliveries,
        collect_s / SETUP_REPEATS as f64,
        walls,
    ));

    let wall = median(&walls);
    if traced {
        let passes = traced_walls.len() as f64;
        for (name, samples) in [("f64", &steps_f64), ("i16", &steps_i16)] {
            let us: Vec<f64> = samples.iter().map(|s| s * 1e6).collect();
            out.put(format!("serve.step_us.{name}.p50"), median(&us), "us");
            out.put(
                format!("serve.step_us.{name}.p99"),
                percentile(&us, 99.0),
                "us",
            );
            let per_pass = samples.len() / traced_walls.len();
            out.note(stats::rule_note(
                &format!("serve.step_us.{name}"),
                99.0,
                per_pass,
            ));
        }
        out.put("serve.stage_s", spans.total("serve.stage") / passes, "s");
        let steps_taken = (steps_f64.len() + steps_i16.len()) as f64;
        out.put(
            "serve.lane_occupancy",
            lanes_stepped as f64 / (steps_taken * CAPACITY as f64),
            "share",
        );
        let quantize_ms: Vec<f64> = spans
            .samples("serve.quantize")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        out.put("serve.quantize_ms", median(&quantize_ms), "ms");
        out.put(
            "serve.sequential_sessions_per_s",
            half as f64 / sequential_s,
            "1/s",
        );
        let epoch_ms: Vec<f64> = spans
            .samples("nnet.train_epoch")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        out.put("nnet.train_epoch_ms.p50", median(&epoch_ms), "ms");
        out.put("nnet.train_s", median(spans.samples("nnet.train")), "s");
        let predict_us: Vec<f64> = spans
            .samples("nnet.predict")
            .iter()
            .map(|s| s * 1e6)
            .collect();
        out.put("nnet.predict_us.p50", median(&predict_us), "us");
        let sim = s.sim;
        out.put("segsim.sim_s", sim.sim_ps as f64 / 1e12, "s");
        out.put("segsim.host_ns_per_irq", 1e9 / sim_rate, "ns");
        out.put("irq.deliveries", sim.deliveries as f64, "count");
        out.put("irq.dropped", sim.dropped as f64, "count");
        out.put("irq.duplicated", sim.duplicated as f64, "count");
        out.put("irq.coalesced", sim.coalesced as f64, "count");
        out.put("x86seg.returns", sim.returns as f64, "count");
        out.put(
            "trace.overhead_share",
            median(&traced_walls) / wall - 1.0,
            "share",
        );
        out.note(
            "segsim.*, irq.* and x86seg.* come from the machines that collect the served \
             traces during set-up; campaign.*, scenario.* and exec.* are not reached: the \
             serve workload runs no campaign, Scenario trait or worker pool",
        );
    } else {
        out.put("setup_s", median(&setups), "s");
        out.put("wall_s", wall, "s");
        out.put("sim_irqs_per_s", sim_rate, "1/s");
        out.put("sessions_per_s", SESSIONS as f64 / wall, "1/s");
        out.put("peak_rss_mb", peak_rss_mb, "MB");
        out.put("accuracy", correct as f64 / SESSIONS as f64, "share");
    }
    out
}
