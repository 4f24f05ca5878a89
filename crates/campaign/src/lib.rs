//! Fleet-scale campaign engine: sharded, resumable parameter-grid
//! sweeps over the scenario registry.
//!
//! A campaign multiplies five axes — scenario set × machine preset ×
//! fault-plan grid × defense grid × replicate range — into a flat list of *cells*
//! ([`CampaignSpec::expand`]), runs every cell through the generic
//! scenario driver, and folds the per-cell results into one
//! [`CampaignReport`]. The engine stacks the workspace's determinism
//! primitives into a two-level geometry:
//!
//! * **Across cells** — cell `i`'s experiment seed is
//!   `exec::derive_seed(campaign_seed, i)`, a pure function of the spec,
//!   and progress is tracked by an [`exec::ChunkManifest`] over the cell
//!   axis with chunk size 1 (one chunk = one cell). Shards are wave
//!   width only: they decide how many cells run concurrently, never
//!   which seed a cell gets or where its result lands.
//! * **Within a cell** — the scenario driver's own chunked fan-out,
//!   whose outputs are thread-count invariant because every trial runs
//!   on a recycled machine bit-identical to a fresh one
//!   ([`scenario::run_recycled_trial`]).
//!
//! Results fold through [`MergeReport`](scenario::MergeReport) fragments
//! ([`CellSet`], [`scenario::RunTotals`], [`segsim::FaultLog`]), so the
//! final report is a function of the *set* of cell results — not of the
//! shard count, thread count, wave order, or how many times the run was
//! killed and resumed. The workspace determinism battery
//! (`tests/campaign_determinism.rs`) pins exactly that: bit-identical
//! report JSON at any shard count × thread count × kill point.
//!
//! Resumability: [`run_campaign`] records each wave into a
//! [`CampaignManifest`] and hands it to a persist callback; a killed
//! campaign resumes by reloading the manifest and calling
//! [`run_campaign`] again, which executes only the missing cells. The
//! manifest carries the spec's FNV digest so it can never be resumed
//! under a different grid.

mod report;
mod spec;

pub use report::{CampaignReport, CellResult, CellSet, MatrixRow};
pub use spec::{
    inject_defense, inject_machine, CampaignCell, CampaignSpec, DefenseVariant, FaultVariant,
    ScenarioSel,
};

use scenario::{Registry, RunOptions};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors of the campaign layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// A spec names a scenario the registry does not have.
    UnknownScenario(String),
    /// A spec names a machine preset outside the Table I set.
    UnknownPreset(String),
    /// A cell's params (with the preset's machine injected) do not
    /// deserialize into the scenario's config type.
    Params {
        /// The scenario whose config rejected the params.
        scenario: String,
        /// The underlying deserialization message.
        message: String,
    },
    /// A grid axis is empty, so the spec expands to zero cells.
    EmptyAxis(&'static str),
    /// A manifest does not belong to the spec it was resumed under
    /// (digest or cell-axis geometry mismatch).
    SpecMismatch,
    /// A report was requested from an incomplete manifest.
    Incomplete {
        /// Cells completed so far.
        completed: usize,
        /// Total cells in the grid.
        total: usize,
    },
    /// A spec, manifest, or report failed to parse.
    Parse(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::UnknownScenario(name) => {
                write!(f, "unknown scenario `{name}` (see `segscope list`)")
            }
            CampaignError::UnknownPreset(name) => {
                write!(
                    f,
                    "unknown machine preset `{name}` (choose from: {})",
                    segsim::presets::NAMES.join(", ")
                )
            }
            CampaignError::Params { scenario, message } => {
                write!(f, "invalid params for scenario `{scenario}`: {message}")
            }
            CampaignError::EmptyAxis(axis) => {
                write!(f, "campaign axis `{axis}` is empty — the grid has no cells")
            }
            CampaignError::SpecMismatch => write!(
                f,
                "manifest does not belong to this campaign spec (digest or geometry mismatch)"
            ),
            CampaignError::Incomplete { completed, total } => write!(
                f,
                "campaign is incomplete ({completed}/{total} cells) — resume it before reporting"
            ),
            CampaignError::Parse(msg) => write!(f, "campaign parse error: {msg}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Execution options of [`run_campaign`] — the schedule knobs that,
/// by the determinism contract, must never change the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignOptions {
    /// Cells run concurrently per wave (clamped to ≥ 1).
    pub shards: usize,
    /// Worker threads *within* each cell's scenario run (`None` = the
    /// driver's `SEGSCOPE_THREADS`-or-all-cores default).
    pub threads: Option<usize>,
    /// Stop (returning `Ok(None)`) after this many waves have been
    /// recorded and persisted — the deterministic kill switch the
    /// resume battery uses to cut a campaign at an arbitrary
    /// checkpoint.
    pub stop_after_waves: Option<usize>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            shards: 1,
            threads: None,
            stop_after_waves: None,
        }
    }
}

/// Progress record of a campaign: the spec's digest plus an
/// [`exec::ChunkManifest`] over the cell axis with chunk size 1.
///
/// Reusing the chunk manifest at the cell level means the campaign
/// inherits its invariants wholesale: completed cells are keyed by flat
/// index (shard-count invariant), `chunk_seeds(i)` yields exactly cell
/// `i`'s derived experiment seed, and geometry mismatches are detected
/// on resume. The digest adds the campaign-level guard the geometry
/// alone cannot give: two different grids can have equal cell counts
/// and seeds, but never an equal canonical-JSON fingerprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignManifest {
    /// FNV digest of the spec this manifest belongs to.
    pub spec_digest: u64,
    /// Per-cell progress: chunk index = flat cell index.
    pub cells: exec::ChunkManifest<CellResult>,
}

impl CampaignManifest {
    /// An empty manifest for `spec`'s grid.
    #[must_use]
    pub fn new(spec: &CampaignSpec) -> Self {
        CampaignManifest {
            spec_digest: spec.digest(),
            cells: exec::ChunkManifest::new(spec.seed, spec.cell_count(), 1),
        }
    }

    /// Whether this manifest belongs to `spec`: digest and cell-axis
    /// geometry both match.
    #[must_use]
    pub fn matches(&self, spec: &CampaignSpec) -> bool {
        self.spec_digest == spec.digest() && self.cells.matches(spec.seed, spec.cell_count(), 1)
    }

    /// Cells completed so far.
    #[must_use]
    pub fn completed_cells(&self) -> usize {
        self.cells.completed_chunks()
    }

    /// Total cells in the grid.
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.cells.total_chunks()
    }

    /// Whether every cell has completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.cells.is_complete()
    }

    /// Flat indices of the cells still to run, ascending.
    #[must_use]
    pub fn remaining_cells(&self) -> Vec<usize> {
        self.cells.remaining_chunks()
    }

    /// Serializes the manifest to JSON (what the CLI persists after
    /// every wave).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("campaign manifests are serializable")
    }

    /// Parses a manifest from JSON and checks it is one
    /// [`run_campaign`] could have persisted: every completed cell key
    /// within the grid, holding exactly one result whose `index` is its
    /// key.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Parse`] with the underlying message, for bad
    /// JSON and for a manifest that breaks those invariants.
    pub fn from_json(json: &str) -> Result<Self, CampaignError> {
        let manifest: Self =
            serde_json::from_str(json).map_err(|e| CampaignError::Parse(e.to_string()))?;
        manifest
            .cells
            .validate(|index, cell: &CellResult| {
                if cell.index == index {
                    Ok(())
                } else {
                    Err(format!(
                        "cell {index} holds the result of cell {}",
                        cell.index
                    ))
                }
            })
            .map_err(|e| CampaignError::Parse(format!("damaged manifest: {e}")))?;
        Ok(manifest)
    }
}

/// Runs one expanded cell through the generic scenario driver.
///
/// The cell's params and scenario name were validated by
/// [`CampaignSpec::expand`] before any cell ran, so a failure here is a
/// registry/spec drift bug, not a user error — it panics rather than
/// poisoning the manifest with a half-recorded wave.
#[must_use]
pub fn run_cell(registry: &Registry, cell: &CampaignCell, threads: Option<usize>) -> CellResult {
    let entry = registry
        .get(&cell.scenario)
        .expect("cell scenarios are validated at expansion");
    let opts = RunOptions {
        seed: Some(cell.seed),
        trials: cell.trials,
        threads,
        capacity: 0,
        fault_plan: cell.fault_plan,
    };
    let run = entry
        .run_dyn(Some(&cell.params), &opts)
        .expect("cell params are validated at expansion");
    CellResult {
        index: cell.index,
        scenario: cell.scenario.clone(),
        preset: cell.preset.clone(),
        fault: cell.fault.clone(),
        defense: cell.defense.clone(),
        replicate: cell.replicate,
        report: run.report,
        totals: run.totals,
        fault_log: run.fault_log,
    }
}

/// Executes (or resumes) a campaign: runs the manifest's missing cells
/// in shard-wide waves, persisting after every wave.
///
/// Returns `Ok(Some(report))` when the campaign completed,
/// `Ok(None)` when `opts.stop_after_waves` cut it short (the manifest
/// holds the progress; call again to resume).
///
/// Determinism: cell seeds and indices come from the spec alone, each
/// cell's run is thread-count invariant, and the final fold is a
/// [`MergeReport`](scenario::MergeReport) over the completed cell set —
/// so the report is bit-identical at any `shards` × `threads` × kill
/// schedule.
///
/// # Errors
///
/// Expansion errors ([`CampaignError::UnknownScenario`] /
/// [`CampaignError::UnknownPreset`] / [`CampaignError::Params`] /
/// [`CampaignError::EmptyAxis`]) and [`CampaignError::SpecMismatch`]
/// when `manifest` does not belong to `spec`.
pub fn run_campaign<P>(
    registry: &Registry,
    spec: &CampaignSpec,
    opts: &CampaignOptions,
    manifest: &mut CampaignManifest,
    mut persist: P,
) -> Result<Option<CampaignReport>, CampaignError>
where
    P: FnMut(&CampaignManifest),
{
    let cells = spec.expand(registry)?;
    if !manifest.matches(spec) {
        return Err(CampaignError::SpecMismatch);
    }
    let shards = opts.shards.max(1);
    let missing = manifest.remaining_cells();
    for (wave_index, wave) in missing.chunks(shards).enumerate() {
        let results = exec::parallel_map(wave.len(), shards, |k| {
            let cell = &cells[wave[k]];
            debug_assert_eq!(
                manifest.cells.chunk_seeds(cell.index),
                vec![cell.seed],
                "cell seed must agree between spec expansion and manifest geometry"
            );
            run_cell(registry, cell, opts.threads)
        });
        for (k, result) in results.into_iter().enumerate() {
            manifest.cells.record_chunk(wave[k], vec![result]);
        }
        persist(manifest);
        if let Some(stop) = opts.stop_after_waves {
            if wave_index + 1 >= stop && !manifest.is_complete() {
                return Ok(None);
            }
        }
    }
    report_from_manifest(spec, manifest).map(Some)
}

/// Folds a complete manifest into the final [`CampaignReport`].
///
/// The fold goes through [`CellSet`] singletons — the same commutative
/// merge any shard grouping produces — so this function is the single
/// reporting path for fresh runs, resumes, and `campaign report` on a
/// previously persisted manifest.
///
/// # Errors
///
/// [`CampaignError::SpecMismatch`] when `manifest` does not belong to
/// `spec`, [`CampaignError::Incomplete`] when cells are still missing.
pub fn report_from_manifest(
    spec: &CampaignSpec,
    manifest: &CampaignManifest,
) -> Result<CampaignReport, CampaignError> {
    use scenario::MergeReport;
    if !manifest.matches(spec) {
        return Err(CampaignError::SpecMismatch);
    }
    if !manifest.is_complete() {
        return Err(CampaignError::Incomplete {
            completed: manifest.completed_cells(),
            total: manifest.total_cells(),
        });
    }
    let set = CellSet::merged(
        manifest
            .cells
            .clone()
            .into_outputs()
            .into_iter()
            .map(CellSet::singleton),
    );
    Ok(CampaignReport::from_cells(
        &spec.name,
        spec.seed,
        manifest.spec_digest,
        set.into_ordered(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::{DynScenario, Scenario, TrialCtx};
    use segsim::{FaultPlan, Machine, MachineConfig};
    use serde::Value;

    /// A fast probe scenario whose output depends on the machine config,
    /// so the preset axis is observable in the results.
    struct GridProbe;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct GridProbeConfig {
        machine: MachineConfig,
        spins: u64,
    }

    impl Default for GridProbeConfig {
        fn default() -> Self {
            GridProbeConfig {
                machine: MachineConfig::xiaomi_air13(),
                spins: 60_000_000,
            }
        }
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct GridProbeSummary {
        samples: Vec<u64>,
    }

    impl Scenario for GridProbe {
        type Config = GridProbeConfig;
        type TrialOutput = u64;
        type Summary = GridProbeSummary;

        fn name(&self) -> &'static str {
            "grid_probe"
        }

        fn describe(&self) -> &'static str {
            "campaign self-test scenario"
        }

        fn experiment_seed(&self, _config: &GridProbeConfig, requested: Option<u64>) -> u64 {
            requested.unwrap_or(0xCA4B)
        }

        fn trial_count(&self, _config: &GridProbeConfig, requested: Option<usize>) -> usize {
            requested.unwrap_or(2)
        }

        fn machine_config(&self, config: &GridProbeConfig, ctx: &TrialCtx) -> (MachineConfig, u64) {
            (config.machine.clone(), ctx.seed)
        }

        fn run_trial(
            &self,
            config: &GridProbeConfig,
            machine: &mut Machine,
            ctx: &TrialCtx,
        ) -> u64 {
            machine.spin(config.spins.max(1_000_000));
            u64::from(machine.rdgs().bits()) ^ ctx.seed
        }

        fn summarize(&self, _config: &GridProbeConfig, outputs: &[u64]) -> GridProbeSummary {
            GridProbeSummary {
                samples: outputs.to_vec(),
            }
        }
    }

    static PROBES: [&dyn DynScenario; 1] = [&GridProbe];

    fn probe_registry() -> Registry {
        Registry::new(&PROBES)
    }

    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            name: "unit".to_owned(),
            seed: 0xC0FF_EE00,
            scenarios: vec![ScenarioSel::named("grid_probe")],
            presets: vec!["xiaomi_air13".to_owned(), "amazon_t2_large".to_owned()],
            faults: vec![
                FaultVariant::none(),
                FaultVariant {
                    name: "delivery_storm".to_owned(),
                    plan: Some(FaultPlan::delivery_storm()),
                },
            ],
            defenses: vec![DefenseVariant::none()],
            replicates: 2,
            trials: Some(2),
        }
    }

    #[test]
    fn expansion_is_a_pure_function_of_the_spec() {
        let spec = small_spec();
        let cells = spec.expand(&probe_registry()).expect("valid spec");
        assert_eq!(cells.len(), spec.cell_count());
        assert_eq!(cells.len(), 8);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.seed, exec::derive_seed(spec.seed, i as u64));
        }
        // Fixed nesting: scenario → preset → fault → replicate.
        assert_eq!(
            (
                cells[0].preset.as_str(),
                cells[0].fault.as_str(),
                cells[0].replicate
            ),
            ("xiaomi_air13", "none", 0)
        );
        assert_eq!(cells[1].replicate, 1);
        assert_eq!(cells[2].fault, "delivery_storm");
        assert_eq!(cells[4].preset, "amazon_t2_large");
        // The preset's machine is injected into every cell's params.
        for cell in &cells {
            let config = GridProbeConfig::from_value(&cell.params).expect("params deserialize");
            let expected = segsim::presets::by_name(&cell.preset).expect("known preset");
            assert_eq!(config.machine, expected);
        }
        // Same spec, same cells.
        assert_eq!(cells, spec.expand(&probe_registry()).expect("valid spec"));
    }

    #[test]
    fn expansion_rejects_bad_axes_up_front() {
        let registry = probe_registry();
        let mut empty = small_spec();
        empty.faults.clear();
        assert_eq!(
            empty.expand(&registry),
            Err(CampaignError::EmptyAxis("faults"))
        );
        let mut unknown = small_spec();
        unknown.scenarios[0].scenario = "nope".to_owned();
        assert_eq!(
            unknown.expand(&registry),
            Err(CampaignError::UnknownScenario("nope".to_owned()))
        );
        let mut preset = small_spec();
        preset.presets[0] = "commodore64".to_owned();
        let error = preset.expand(&registry).expect_err("unknown preset");
        assert_eq!(
            error,
            CampaignError::UnknownPreset("commodore64".to_owned())
        );
        // The hint names real presets, not a command the CLI lacks.
        let message = error.to_string();
        assert!(message.contains("xiaomi_air13"), "{message}");
        assert!(!message.contains("segscope machines"), "{message}");
        let mut params = small_spec();
        params.scenarios[0].params = Some(Value::Map(vec![(
            "spins".to_owned(),
            Value::Str("many".to_owned()),
        )]));
        assert!(matches!(
            params.expand(&registry),
            Err(CampaignError::Params { .. })
        ));
    }

    fn run_at(shards: usize, threads: usize) -> CampaignReport {
        let spec = small_spec();
        let mut manifest = CampaignManifest::new(&spec);
        let opts = CampaignOptions {
            shards,
            threads: Some(threads),
            stop_after_waves: None,
        };
        run_campaign(&probe_registry(), &spec, &opts, &mut manifest, |_| {})
            .expect("campaign runs")
            .expect("campaign completes")
    }

    #[test]
    fn reports_are_bit_identical_across_shard_and_thread_counts() {
        let reference = run_at(1, 1);
        assert_eq!(reference.cells, 8);
        assert_eq!(reference.totals.trials, 16, "8 cells x 2 trials");
        assert_eq!(reference.matrix.len(), 2, "one row per (scenario, preset)");
        assert!(
            reference.fault_log.delivery_faults() > 0,
            "the delivery_storm axis must inject faults"
        );
        let reference_json = reference.to_json();
        for (shards, threads) in [(3, 1), (8, 2), (2, 4)] {
            assert_eq!(
                run_at(shards, threads).to_json(),
                reference_json,
                "shards {shards} x threads {threads}"
            );
        }
    }

    #[test]
    fn kill_and_resume_round_trips_through_json_bit_identically() {
        let spec = small_spec();
        let registry = probe_registry();
        let reference = run_at(1, 1);
        // With 8 cells in waves of 3 shards, waves 1 and 2 leave work
        // behind; a stop bound past the last wave must complete instead.
        for kill_after in 1..3 {
            let mut manifest = CampaignManifest::new(&spec);
            let mut persisted = String::new();
            let first = run_campaign(
                &registry,
                &spec,
                &CampaignOptions {
                    shards: 3,
                    threads: Some(1),
                    stop_after_waves: Some(kill_after),
                },
                &mut manifest,
                |m| persisted = m.to_json(),
            )
            .expect("first leg runs");
            assert!(first.is_none(), "stop_after_waves cuts the run short");
            // Resume from the persisted JSON, not the in-memory manifest —
            // the round trip is part of the contract.
            let mut revived = CampaignManifest::from_json(&persisted).expect("parses");
            assert_eq!(revived.completed_cells(), (kill_after * 3).min(8));
            let resumed = run_campaign(
                &registry,
                &spec,
                &CampaignOptions {
                    shards: 2,
                    threads: Some(2),
                    stop_after_waves: None,
                },
                &mut revived,
                |_| {},
            )
            .expect("resume runs")
            .expect("resume completes");
            assert_eq!(
                resumed.to_json(),
                reference.to_json(),
                "kill after wave {kill_after}"
            );
        }
        let mut manifest = CampaignManifest::new(&spec);
        let finished = run_campaign(
            &registry,
            &spec,
            &CampaignOptions {
                shards: 3,
                threads: Some(1),
                stop_after_waves: Some(3),
            },
            &mut manifest,
            |_| {},
        )
        .expect("runs");
        assert_eq!(
            finished
                .expect("a stop bound past the last wave completes")
                .to_json(),
            reference.to_json()
        );
    }

    #[test]
    fn manifests_guard_against_spec_drift_and_incompleteness() {
        let spec = small_spec();
        let registry = probe_registry();
        let mut manifest = CampaignManifest::new(&spec);
        // A different grid (even one with the same seed and cell count)
        // has a different digest and is rejected.
        let mut drifted = spec.clone();
        drifted.faults[1].name = "renamed".to_owned();
        assert_eq!(drifted.cell_count(), spec.cell_count());
        assert_eq!(
            run_campaign(
                &registry,
                &drifted,
                &CampaignOptions::default(),
                &mut manifest,
                |_| {}
            ),
            Err(CampaignError::SpecMismatch)
        );
        // Reporting an incomplete manifest is an error, not a partial
        // report.
        assert_eq!(
            report_from_manifest(&spec, &manifest),
            Err(CampaignError::Incomplete {
                completed: 0,
                total: 8
            })
        );
    }

    #[test]
    fn damaged_manifests_are_rejected_on_load() {
        let spec = small_spec();
        let mut manifest = CampaignManifest::new(&spec);
        let opts = CampaignOptions {
            shards: 3,
            threads: Some(1),
            stop_after_waves: Some(1),
        };
        let first = run_campaign(&probe_registry(), &spec, &opts, &mut manifest, |_| {});
        assert_eq!(first, Ok(None));
        let json = manifest.to_json();
        let intact = CampaignManifest::from_json(&json).expect("an intact manifest loads");
        assert_eq!(intact.completed_cells(), 3);
        // Completed cells serialize as `[cell, [result]]` pairs; cells
        // 0..3 are complete out of 8.
        let entries = "\"completed\":[";
        let cell_1 = "[1,[{\"index\":1,";
        assert!(json.contains(entries) && json.contains(cell_1), "{json}");
        for (case, damaged) in [
            (
                "empty entry",
                json.replacen(entries, "\"completed\":[[5,[]],", 1),
            ),
            (
                "out-of-range key",
                json.replacen(entries, "\"completed\":[[8,[]],", 1),
            ),
            (
                "foreign index",
                json.replacen(cell_1, "[1,[{\"index\":2,", 1),
            ),
        ] {
            assert!(
                matches!(
                    CampaignManifest::from_json(&damaged),
                    Err(CampaignError::Parse(ref m)) if m.contains("damaged manifest")
                ),
                "{case}"
            );
        }
    }

    #[test]
    fn cells_match_standalone_driver_runs() {
        let spec = small_spec();
        let registry = probe_registry();
        let cells = spec.expand(&registry).expect("valid spec");
        let report = run_at(4, 1);
        for (cell, result) in cells.iter().zip(&report.cell_results) {
            let standalone = registry
                .get(&cell.scenario)
                .expect("registered")
                .run_dyn(
                    Some(&cell.params),
                    &RunOptions {
                        seed: Some(cell.seed),
                        trials: cell.trials,
                        threads: Some(1),
                        capacity: 0,
                        fault_plan: cell.fault_plan,
                    },
                )
                .expect("standalone run");
            assert_eq!(result.report, standalone.report, "cell {}", cell.index);
            assert_eq!(result.totals, standalone.totals, "cell {}", cell.index);
            assert_eq!(
                result.fault_log, standalone.fault_log,
                "cell {}",
                cell.index
            );
        }
    }

    #[test]
    fn defense_axis_expands_in_order_and_injects_into_the_machine() {
        use segsim::Defense;
        let mut spec = small_spec();
        spec.presets.truncate(1);
        spec.faults.truncate(1);
        spec.replicates = 1;
        spec.defenses = DefenseVariant::all();
        let cells = spec.expand(&probe_registry()).expect("valid spec");
        assert_eq!(cells.len(), 3);
        assert_eq!(
            cells.iter().map(|c| c.defense.as_str()).collect::<Vec<_>>(),
            ["none", "quanshield", "padding"]
        );
        for (cell, expected) in cells.iter().zip([
            Defense::None,
            Defense::QuanShield,
            Defense::default_padding(),
        ]) {
            let config = GridProbeConfig::from_value(&cell.params).expect("params deserialize");
            assert_eq!(config.machine.defense, expected, "cell {}", cell.index);
        }
    }

    #[test]
    fn pre_defense_spec_json_parses_with_the_none_axis() {
        // A spec serialized before the defense axis existed has no
        // `defenses` key; it must parse to the single-entry [none] axis
        // and expand to the exact pre-defense cell indices and seeds.
        let spec = small_spec();
        let json = spec.to_json();
        let legacy = json.replace(
            "\"defenses\":[{\"name\":\"none\",\"defense\":\"None\"}],",
            "",
        );
        assert_ne!(legacy, json, "the defenses key must have been stripped");
        let parsed = CampaignSpec::from_json(&legacy).expect("legacy specs parse");
        assert_eq!(parsed.defenses, vec![DefenseVariant::none()]);
        let registry = probe_registry();
        assert_eq!(
            parsed.expand(&registry).expect("valid"),
            spec.expand(&registry).expect("valid"),
            "cell geometry, seeds, and params are unchanged"
        );
    }

    #[test]
    fn specs_round_trip_through_json_and_digest_is_content_sensitive() {
        let spec = small_spec();
        let json = spec.to_json();
        let back = CampaignSpec::from_json(&json).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(back.digest(), spec.digest());
        let mut other = spec.clone();
        other.seed ^= 1;
        assert_ne!(other.digest(), spec.digest());
        assert!(CampaignSpec::from_json("{").is_err());
    }
}
