//! The `grid` and `sim` workloads: the paper's campaign grid driven
//! through `campaign::run_campaign` as the CLI drives it, and a traced
//! twin that runs each cell one level down through the typed
//! `Scenario` trait so host time can be attributed per layer.

use crate::host::{self, CpuWall};
use crate::stats::{self, fnv1a, median, percentile};
use crate::trace::Spans;
use crate::{Outcome, DEFAULT_SEED, SETUP_REPEATS, WALL_BOUND};
use campaign::{CampaignCell, CampaignManifest, CampaignOptions, CampaignReport, CampaignSpec};
use campaign::{CellResult, ScenarioSel};
use scenario::{MergeReport, RunOptions, RunReport, RunTotals, Scenario, TrialCtx, TrialStats};
use segscope_attacks as attacks;
use segsim::FaultLog;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Every scenario of the full grid, in spec order.
pub const SCENARIOS: [&str; 11] = [
    "website",
    "circl",
    "dnnsteal",
    "spectral",
    "kaslr",
    "spectre",
    "keystroke",
    "covert",
    "procfp",
    "aexcount",
    "heckler",
];

/// Outputs and counts recorded at [`DEFAULT_SEED`].
struct Golden {
    /// FNV-1a of the report JSON.
    digest: u64,
    /// Manifest bytes written over one pass.
    persist_bytes: u64,
    /// Kernel-to-user returns over one pass.
    returns: u64,
    /// Simulated picoseconds over one pass.
    sim_ps: u128,
}

const GOLDEN_GRID: Golden = Golden {
    digest: 0xfcdc_8fc9_4a92_5316,
    persist_bytes: 18_492_096,
    returns: 1_842_481,
    sim_ps: 6_181_317_034_440_688,
};

const GOLDEN_SIM: Golden = Golden {
    digest: 0x2434_999e_e44c_e8c2,
    persist_bytes: 14_800_141,
    returns: 3_517_401,
    sim_ps: 13_867_065_697_798_450,
};

/// Per-cell trial count of the `sim` workload.
const SIM_TRIALS: usize = 32;

/// One campaign workload, ready to run.
pub struct Grid {
    spec: CampaignSpec,
    threads: usize,
    golden: Golden,
    dir: PathBuf,
}

/// Counts the model defines: identical on every run of one seed, and
/// under any change meant only to make the program faster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    trials: u64,
    deliveries: u64,
    dropped: u64,
    duplicated: u64,
    coalesced: u64,
    persist_bytes: u64,
}

impl Counts {
    fn of(report: &CampaignReport, persist_bytes: u64) -> Self {
        Counts {
            trials: report.totals.trials,
            deliveries: report.totals.ground_truth_deliveries,
            dropped: report.fault_log.dropped,
            duplicated: report.fault_log.duplicated,
            coalesced: report.fault_log.coalesced,
            persist_bytes,
        }
    }
}

/// Machine-level counts only the traced run can read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct MachineCounts {
    returns: u64,
    sim_ps: u128,
}

/// One pass over the whole grid.
struct Pass {
    wall_s: f64,
    report: CampaignReport,
    digest: u64,
    counts: Counts,
    final_bytes: u64,
}

/// What one trial of the traced run hands back besides its output.
struct TrialRecord {
    stats: TrialStats,
    returns: u64,
    now_ps: u64,
    build_s: f64,
    run_s: f64,
}

impl Grid {
    /// The `grid` workload (`sim == false`) or the `sim` workload.
    #[must_use]
    pub fn new(sim: bool, seed: u64, dir: PathBuf) -> Self {
        let mut spec = CampaignSpec::full_grid(seed);
        let (threads, golden) = if sim {
            spec.name = "sim-grid".to_owned();
            spec.scenarios
                .retain(|s: &ScenarioSel| s.scenario != "website" && s.scenario != "dnnsteal");
            spec.trials = Some(SIM_TRIALS);
            let threads = std::thread::available_parallelism().map_or(1, usize::from);
            (threads, GOLDEN_SIM)
        } else {
            (1, GOLDEN_GRID)
        };
        Grid {
            spec,
            threads,
            golden,
            dir,
        }
    }

    /// Worker threads the workload runs with.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Everything before the first wave: the registry, the typed
    /// validation of every cell's params, and the scratch directory.
    fn setup(&self) -> Result<(), String> {
        self.spec
            .expand(&attacks::registry())
            .map_err(|e| e.to_string())?;
        fs::create_dir_all(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))
    }

    /// One pass as `segscope campaign run` makes it: one shard, the
    /// manifest persisted after every wave, the report written at the
    /// end.
    fn untraced(&self) -> Result<Pass, String> {
        let registry = attacks::registry();
        let opts = CampaignOptions {
            shards: 1,
            threads: Some(self.threads),
            stop_after_waves: None,
        };
        let manifest_path = self.dir.join("manifest.json");
        let mut manifest = CampaignManifest::new(&self.spec);
        let (mut written, mut final_bytes) = (0u64, 0u64);
        let mut io_error = None;
        let start = Instant::now();
        let report = campaign::run_campaign(&registry, &self.spec, &opts, &mut manifest, |m| {
            let json = m.to_json() + "\n";
            if let Err(e) = fs::write(&manifest_path, &json) {
                io_error.get_or_insert(e.to_string());
            }
            written += json.len() as u64;
            final_bytes = json.len() as u64;
        })
        .map_err(|e| e.to_string())?
        .ok_or("the campaign stopped before its last wave")?;
        let digest = self.write_report(&report)?;
        let wall_s = start.elapsed().as_secs_f64();
        if let Some(e) = io_error {
            return Err(e);
        }
        Ok(Pass {
            wall_s,
            counts: Counts::of(&report, written),
            report,
            digest,
            final_bytes,
        })
    }

    /// Writes the report as the CLI does and returns its digest.
    fn write_report(&self, report: &CampaignReport) -> Result<u64, String> {
        let json = report.to_json() + "\n";
        let path = self.dir.join("report.json");
        fs::write(&path, &json).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(fnv1a(json.as_bytes()))
    }

    /// The traced pass: the campaign loop of `run_campaign` with each
    /// cell run through the typed scenario, spans around every call.
    fn traced(&self, spans: &mut Spans, machine: &mut MachineCounts) -> Result<Pass, String> {
        let start = Instant::now();
        let cells = self
            .spec
            .expand(&attacks::registry())
            .map_err(|e| e.to_string())?;
        let manifest_path = self.dir.join("manifest.json");
        let mut manifest = CampaignManifest::new(&self.spec);
        let (mut written, mut final_bytes) = (0u64, 0u64);
        for cell in &cells {
            let cell_start = Instant::now();
            let result = trace_cell(cell, self.threads, spans, machine)?;
            manifest.cells.record_chunk(cell.index, vec![result]);
            spans.record("campaign.run_cell", cell_start.elapsed().as_secs_f64());
            let bytes = spans.time("campaign.persist", || {
                let json = manifest.to_json() + "\n";
                fs::write(&manifest_path, &json).map(|()| json.len() as u64)
            });
            let bytes = bytes.map_err(|e| format!("{}: {e}", manifest_path.display()))?;
            written += bytes;
            final_bytes = bytes;
        }
        let report_start = Instant::now();
        let report =
            campaign::report_from_manifest(&self.spec, &manifest).map_err(|e| e.to_string())?;
        let digest = self.write_report(&report)?;
        spans.record("campaign.report", report_start.elapsed().as_secs_f64());
        Ok(Pass {
            wall_s: start.elapsed().as_secs_f64(),
            counts: Counts::of(&report, written),
            report,
            digest,
            final_bytes,
        })
    }

    /// Runs the workload for at least `seconds` of measured time.
    ///
    /// # Errors
    ///
    /// A message when the campaign cannot run at all (spec drift, I/O).
    pub fn run(&self, seconds: f64, traced: bool) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let mut setups = Vec::with_capacity(SETUP_REPEATS);
        for _ in 0..SETUP_REPEATS {
            let start = Instant::now();
            self.setup()?;
            setups.push(start.elapsed().as_secs_f64());
        }

        let guard = CpuWall::start();
        let clock = Instant::now();
        let mut plain: Vec<Pass> = Vec::new();
        let mut traced_passes: Vec<Pass> = Vec::new();
        let mut machines: Vec<MachineCounts> = Vec::new();
        let mut spans = Spans::default();
        let mut peak_rss_mb = 0.0;
        while plain.is_empty() || clock.elapsed().as_secs_f64() < seconds {
            plain.push(self.untraced()?);
            if plain.len() == 1 {
                // After one pass, so that the figure does not depend on
                // how many passes fit in the measured time.
                peak_rss_mb = host::peak_rss_mb();
            }
            if traced {
                let mut machine = MachineCounts::default();
                traced_passes.push(self.traced(&mut spans, &mut machine)?);
                machines.push(machine);
            }
        }
        let (cpu_s, wall_s) = guard.read();

        let reference = &plain[0];
        let cells = reference.report.cells as u64;
        let reference_cells: Vec<String> = reference
            .report
            .cell_results
            .iter()
            .map(cell_json)
            .collect();
        for (k, pass) in plain.iter().chain(&traced_passes).enumerate() {
            out.attempted += cells;
            let label = if k < plain.len() {
                "untraced"
            } else {
                "traced"
            };
            let mismatched = pass
                .report
                .cell_results
                .iter()
                .zip(&reference_cells)
                .filter(|(cell, expected)| cell_json(cell) != **expected)
                .count() as u64;
            if mismatched > 0 {
                out.fail(
                    mismatched,
                    format!("{label} pass {k}: {mismatched} cells differ from the first pass"),
                );
            } else if pass.digest != reference.digest {
                out.fail(cells, format!("{label} pass {k}: report digest differs"));
            } else if pass.counts != reference.counts {
                out.fail(
                    cells,
                    format!(
                        "{label} pass {k}: modelled counts {:?} differ from {:?}",
                        pass.counts, reference.counts
                    ),
                );
            }
        }
        if machines.iter().any(|m| *m != machines[0]) {
            out.fail_all("traced machine counts (returns, simulated time) differ across passes");
        }
        if let Some(m) = machines.first() {
            out.note(format!(
                "traced machine counts: {} returns over {} simulated ps; {} manifest bytes written",
                m.returns, m.sim_ps, reference.counts.persist_bytes
            ));
        }
        if self.spec.seed == DEFAULT_SEED {
            let golden = &self.golden;
            if reference.digest != golden.digest {
                out.fail_all(format!(
                    "report digest {:#018x} differs from the recorded {:#018x} for seed \
                     {DEFAULT_SEED}",
                    reference.digest, golden.digest
                ));
            }
            if reference.counts.persist_bytes != golden.persist_bytes {
                out.fail_all(format!(
                    "{} manifest bytes written, {} recorded for seed {DEFAULT_SEED}",
                    reference.counts.persist_bytes, golden.persist_bytes
                ));
            }
            if let Some(m) = machines.first() {
                if (m.returns, m.sim_ps) != (golden.returns, golden.sim_ps) {
                    out.fail_all(format!(
                        "{} returns over {} simulated ps, {} over {} recorded for seed \
                         {DEFAULT_SEED}",
                        m.returns, m.sim_ps, golden.returns, golden.sim_ps
                    ));
                }
            }
        }
        let allowed = self.threads as f64 * wall_s * (1.0 + WALL_BOUND);
        if cpu_s > allowed {
            out.fail_all(format!(
                "CPU time {cpu_s:.2} s exceeds {} threads x {wall_s:.2} s wall: a worker pool \
                 ignores the pinned thread count",
                self.threads
            ));
        }
        out.note(format!(
            "{}: {} cells, {} trials, {} deliveries, {} threads; report digest {:#018x}; \
             CPU {cpu_s:.2} s over {wall_s:.2} s wall; untraced pass walls {:.3?}, traced {:.3?}",
            self.spec.name,
            cells,
            reference.counts.trials,
            reference.counts.deliveries,
            self.threads,
            reference.digest,
            plain.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
            traced_passes.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
        ));

        if traced {
            self.per_layer(&mut out, &plain, &traced_passes, &machines, &spans);
        } else {
            let wall = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
            out.put("setup_s", median(&setups), "s");
            out.put("wall_s", wall, "s");
            out.put(
                "sim_irqs_per_s",
                reference.counts.deliveries as f64 / wall,
                "1/s",
            );
            out.put(
                "sessions_per_s",
                reference.counts.trials as f64 / wall,
                "1/s",
            );
            out.put("peak_rss_mb", peak_rss_mb, "MB");
            out.put("accuracy", matrix_accuracy(&reference.report), "share");
        }
        Ok(out)
    }

    fn per_layer(
        &self,
        out: &mut Outcome,
        plain: &[Pass],
        traced: &[Pass],
        machines: &[MachineCounts],
        spans: &Spans,
    ) {
        let passes = traced.len() as f64;
        let per_pass = |name: &str| spans.total(name) / passes;
        let counts = traced[0].counts;
        let machine = machines[0];
        out.put("campaign.run_cell_s", per_pass("campaign.run_cell"), "s");
        let cell_ms: Vec<f64> = spans
            .samples("campaign.run_cell")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        out.put("campaign.cell_ms.p50", median(&cell_ms), "ms");
        out.put("campaign.cell_ms.p90", percentile(&cell_ms, 90.0), "ms");
        out.note(stats::rule_note(
            "campaign.cell_ms",
            90.0,
            traced[0].report.cells,
        ));
        out.put("campaign.persist_s", per_pass("campaign.persist"), "s");
        out.put(
            "campaign.persist_bytes",
            counts.persist_bytes as f64,
            "bytes",
        );
        out.put(
            "campaign.persist_useful_ratio",
            stats::useful_ratio(traced[0].final_bytes, counts.persist_bytes),
            "share",
        );
        out.put("campaign.report_s", per_pass("campaign.report"), "s");
        for stage in ["build_machine_s", "run_trial_s", "summarize_s"] {
            let mut total = 0.0;
            for name in SCENARIOS {
                let value = per_pass(&format!("scenario.{stage}.{name}"));
                total += value;
                out.put(format!("scenario.{stage}.{name}"), value, "s");
            }
            out.put(format!("scenario.{stage}"), total, "s");
        }
        out.put("scenario.trials", counts.trials as f64, "count");
        out.put("segsim.sim_s", machine.sim_ps as f64 / 1e12, "s");
        let run_trial_s: f64 = SCENARIOS
            .iter()
            .map(|name| spans.total(&format!("scenario.run_trial_s.{name}")))
            .sum();
        out.put(
            "segsim.host_ns_per_irq",
            run_trial_s * 1e9 / (counts.deliveries as f64 * passes),
            "ns",
        );
        out.put("irq.deliveries", counts.deliveries as f64, "count");
        out.put("irq.dropped", counts.dropped as f64, "count");
        out.put("irq.duplicated", counts.duplicated as f64, "count");
        out.put("irq.coalesced", counts.coalesced as f64, "count");
        out.put("x86seg.returns", machine.returns as f64, "count");
        out.put("exec.busy_s", per_pass("exec.busy"), "s");
        out.put(
            "exec.idle_share",
            stats::idle_share(
                spans.total("exec.busy"),
                self.threads,
                spans.total("exec.fan_out"),
            ),
            "share",
        );
        let plain_wall = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        out.put(
            "trace.overhead_share",
            traced_wall / plain_wall - 1.0,
            "share",
        );
        out.note(
            "segscope, memsim, specsim and segsim::freq run inside Scenario::run_trial; their \
             host time is in scenario.run_trial_s until spans inside the program exist",
        );
        out.note(
            "nnet.* is not reached on this workload: LSTM training runs inside \
             WebsiteScenario/DnnStealScenario::summarize, so it is counted in \
             scenario.summarize_s.website/.dnnsteal; serve.* is not reached: no serving runs",
        );
    }
}

/// A cell result's canonical JSON, for per-cell identity checks.
fn cell_json(cell: &CellResult) -> String {
    serde_json::to_string(cell).expect("cell results serialize")
}

/// Mean over the report matrix rows that carry an accuracy.
fn matrix_accuracy(report: &CampaignReport) -> f64 {
    let accs: Vec<f64> = report
        .matrix
        .iter()
        .filter_map(|row| row.mean_accuracy)
        .collect();
    accs.iter().sum::<f64>() / accs.len().max(1) as f64
}

/// Runs `cell` through its typed scenario.
fn trace_cell(
    cell: &CampaignCell,
    threads: usize,
    spans: &mut Spans,
    machine: &mut MachineCounts,
) -> Result<CellResult, String> {
    use attacks::{
        aexcount, circl, covert, dnnsteal, heckler, kaslr, keystroke, procfp, spectral, spectre,
        website,
    };
    match cell.scenario.as_str() {
        "website" => traced_cell(&website::WebsiteScenario, cell, threads, spans, machine),
        "circl" => traced_cell(&circl::CirclScenario, cell, threads, spans, machine),
        "dnnsteal" => traced_cell(&dnnsteal::DnnStealScenario, cell, threads, spans, machine),
        "spectral" => traced_cell(&spectral::SpectralScenario, cell, threads, spans, machine),
        "kaslr" => traced_cell(&kaslr::KaslrScenario, cell, threads, spans, machine),
        "spectre" => traced_cell(&spectre::SpectreScenario, cell, threads, spans, machine),
        "keystroke" => traced_cell(&keystroke::KeystrokeScenario, cell, threads, spans, machine),
        "covert" => traced_cell(&covert::CovertScenario, cell, threads, spans, machine),
        "procfp" => traced_cell(&procfp::ProcFpScenario, cell, threads, spans, machine),
        "aexcount" => traced_cell(&aexcount::AexCountScenario, cell, threads, spans, machine),
        "heckler" => traced_cell(&heckler::HecklerScenario, cell, threads, spans, machine),
        other => Err(format!(
            "the traced run has no typed scenario for `{other}`"
        )),
    }
}

/// The per-trial split `scenario::run_scenario` makes when tracing
/// (fresh machine, run-level fault override, trial body), fanned out
/// with the geometry `scenario::run_scenario` uses untraced, then the
/// summary.
fn traced_cell<S: Scenario>(
    s: &S,
    cell: &CampaignCell,
    threads: usize,
    spans: &mut Spans,
    machine_counts: &mut MachineCounts,
) -> Result<CellResult, String> {
    let config = S::Config::from_value(&cell.params)
        .map_err(|e| format!("cell {} params: {e}", cell.index))?;
    let opts = RunOptions {
        seed: Some(cell.seed),
        trials: cell.trials,
        threads: Some(threads),
        capacity: 0,
        fault_plan: cell.fault_plan,
    };
    let geometry = scenario::run_geometry(s, &config, &opts);
    let busy_ns = AtomicU64::new(0);
    let fan_out = Instant::now();
    let ran = exec::parallel_trial_chunks(
        geometry.experiment_seed,
        geometry.trials,
        geometry.threads,
        geometry.chunk,
        |start, seeds| {
            let busy = Instant::now();
            let chunk: Vec<(S::TrialOutput, TrialRecord)> = seeds
                .iter()
                .enumerate()
                .map(|(k, &seed)| {
                    let ctx = TrialCtx {
                        index: start + k,
                        seed,
                        experiment_seed: geometry.experiment_seed,
                    };
                    let t0 = Instant::now();
                    let mut machine = s.build_machine(&config, &ctx);
                    if let Some(plan) = opts.fault_plan {
                        machine.set_fault_plan(Some(plan));
                    }
                    let t1 = Instant::now();
                    let output = s.run_trial(&config, &mut machine, &ctx);
                    let t2 = Instant::now();
                    let record = TrialRecord {
                        stats: TrialStats::of(&machine),
                        returns: machine.kernel_entries(),
                        now_ps: machine.now().as_ps(),
                        build_s: (t1 - t0).as_secs_f64(),
                        run_s: (t2 - t1).as_secs_f64(),
                    };
                    (output, record)
                })
                .collect();
            busy_ns.fetch_add(busy.elapsed().as_nanos() as u64, Ordering::Relaxed);
            chunk
        },
    );
    spans.record("exec.fan_out", fan_out.elapsed().as_secs_f64());
    spans.record("exec.busy", busy_ns.into_inner() as f64 / 1e9);

    let name = s.name();
    let mut outputs = Vec::with_capacity(ran.len());
    let mut totals = RunTotals::empty();
    let mut fault_log = FaultLog::empty();
    let (mut build_s, mut run_s) = (0.0, 0.0);
    for (output, record) in ran {
        outputs.push(output);
        totals.merge(&RunTotals::from_trial(record.stats.gt_deliveries));
        fault_log.merge(&record.stats.fault_log);
        machine_counts.returns += record.returns;
        machine_counts.sim_ps += u128::from(record.now_ps);
        build_s += record.build_s;
        run_s += record.run_s;
    }
    spans.record(&format!("scenario.build_machine_s.{name}"), build_s);
    spans.record(&format!("scenario.run_trial_s.{name}"), run_s);
    let summary = spans.time(&format!("scenario.summarize_s.{name}"), || {
        s.summarize(&config, &outputs)
    });
    Ok(CellResult {
        index: cell.index,
        scenario: cell.scenario.clone(),
        preset: cell.preset.clone(),
        fault: cell.fault.clone(),
        defense: cell.defense.clone(),
        replicate: cell.replicate,
        report: RunReport {
            scenario: name.to_owned(),
            seed: geometry.experiment_seed,
            trials: geometry.trials,
            ground_truth_deliveries: totals.ground_truth_deliveries,
            params: config.to_value(),
            summary: summary.to_value(),
        },
        totals,
        fault_log,
    })
}
