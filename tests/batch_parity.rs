//! Workspace-level recycled-vs-fresh parity: machine recycling in the
//! scenario driver must be architecturally invisible for every
//! registered scenario.
//!
//! The oracle is a test-side loop that builds a fresh machine per trial
//! ([`Scenario::build_machine`] + [`Scenario::run_trial`]). The driver's
//! per-trial body ([`run_recycled_trial`]) fanned out at chunk sizes 1,
//! 4, 17 and 64, and [`run_scenario`] itself on one thread (one machine
//! recycled across every trial), must match it on per-trial
//! [`TrialStats`] and on the serialized summary — and, for kaslr and
//! covert, on the per-trial outputs.

use segscope_repro::attacks::{
    aexcount, circl, covert, dnnsteal, heckler, kaslr, keystroke, procfp, spectral, spectre,
    website,
};
use segscope_repro::exec;
use segscope_repro::replay::first_divergence;
use segscope_repro::scenario::{
    run_geometry, run_recycled_trial, run_scenario, RunOptions, Scenario, TrialCtx, TrialStats,
};
use segscope_repro::segsim::{FaultPlan, MachineConfig};
use serde::Serialize;

/// The chunk sizes recycling must be transparent at: a degenerate
/// single trial, a small chunk, a prime that never divides the workload
/// evenly, and a chunk wider than most runs.
const REQUIRED_SIZES: [usize; 4] = [1, 4, 17, 64];

/// Worker threads of the chunked fan-outs, so chunks land on more than
/// one recycled machine.
const THREADS: usize = 2;

/// Per-trial outputs of the fresh oracle and of every recycled run, for
/// the callers that also compare outputs.
struct Parity<T> {
    fresh: Vec<T>,
    recycled: Vec<Vec<T>>,
}

fn summary_json<S: Scenario>(
    scenario: &S,
    config: &S::Config,
    outputs: &[S::TrialOutput],
) -> String {
    serde_json::to_string(&scenario.summarize(config, outputs).to_value()).expect("serializes")
}

/// Runs `scenario` fresh-per-trial and recycled at every required chunk
/// size (and through [`run_scenario`]), asserting identical per-trial
/// stats and identical serialized summaries.
fn assert_recycled_matches_fresh<S: Scenario>(
    scenario: &S,
    config: &S::Config,
    trials: Option<usize>,
    fault_override: Option<FaultPlan>,
) -> Parity<S::TrialOutput> {
    let opts = RunOptions {
        trials,
        threads: Some(1),
        fault_plan: fault_override,
        ..RunOptions::default()
    };
    let geometry = run_geometry(scenario, config, &opts);
    let seed = geometry.experiment_seed;
    let ctx = |index: usize| TrialCtx {
        index,
        seed: exec::derive_seed(seed, index as u64),
        experiment_seed: seed,
    };
    let name = scenario.name();

    let (fresh, fresh_stats): (Vec<_>, Vec<_>) = (0..geometry.trials)
        .map(|index| {
            let ctx = ctx(index);
            let mut machine = scenario.build_machine(config, &ctx);
            if let Some(plan) = fault_override {
                machine.set_fault_plan(Some(plan));
            }
            let output = scenario.run_trial(config, &mut machine, &ctx);
            (output, TrialStats::of(&machine))
        })
        .unzip();
    let fresh_summary = summary_json(scenario, config, &fresh);

    let mut recycled = Vec::new();
    for chunk in REQUIRED_SIZES {
        let ran =
            exec::parallel_trial_chunks(seed, geometry.trials, THREADS, chunk, |start, seeds| {
                (start..start + seeds.len())
                    .map(|index| {
                        let (output, stats, _) =
                            run_recycled_trial(scenario, config, &ctx(index), fault_override, None);
                        (output, stats)
                    })
                    .collect()
            });
        let (outputs, stats): (Vec<_>, Vec<_>) = ran.into_iter().unzip();
        if let Some(at) = first_divergence(&fresh_stats, &stats) {
            panic!(
                "{name}, chunk size {chunk}: stats first diverge at trial {at}\n  \
                 fresh:    {:?}\n  recycled: {:?}",
                fresh_stats.get(at),
                stats.get(at),
            );
        }
        assert_eq!(
            summary_json(scenario, config, &outputs),
            fresh_summary,
            "{name}, chunk size {chunk}: summary"
        );
        recycled.push(outputs);
    }

    let run = run_scenario(scenario, config, &opts);
    let fresh_deliveries: Vec<u64> = fresh_stats.iter().map(|s| s.gt_deliveries).collect();
    assert_eq!(
        run.gt_deliveries, fresh_deliveries,
        "{name}: driver deliveries"
    );
    assert_eq!(
        serde_json::to_string(&run.summary.to_value()).expect("serializes"),
        fresh_summary,
        "{name}: driver summary"
    );
    recycled.push(run.outputs);
    Parity { fresh, recycled }
}

/// Asserts every recycled run reproduced the fresh oracle's outputs.
fn assert_outputs_match<T: PartialEq + std::fmt::Debug>(name: &str, parity: &Parity<T>) {
    for (run, outputs) in parity.recycled.iter().enumerate() {
        if let Some(at) = first_divergence(&parity.fresh, outputs) {
            panic!(
                "{name}, recycled run {run}: outputs first diverge at trial {at}\n  \
                 fresh:    {:?}\n  recycled: {:?}",
                parity.fresh.get(at),
                outputs.get(at),
            );
        }
    }
}

#[test]
fn kaslr_recycled_trials_match_fresh_machines() {
    let config = kaslr::KaslrScenarioConfig {
        machine: MachineConfig::lenovo_yangtian(),
        attack: kaslr::KaslrConfig {
            slots: 8,
            c: 1,
            k: 8,
            calibration: 16,
            ..kaslr::KaslrConfig::paper_default()
        },
    };
    let parity = assert_recycled_matches_fresh(&kaslr::KaslrScenario, &config, Some(20), None);
    assert_outputs_match("kaslr", &parity);
    let stormed = assert_recycled_matches_fresh(
        &kaslr::KaslrScenario,
        &config,
        Some(6),
        Some(FaultPlan::delivery_storm()),
    );
    assert_outputs_match("kaslr under a delivery storm", &stormed);
}

#[test]
fn covert_recycled_trials_match_fresh_machines() {
    let mut config = covert::CovertScenarioConfig::default();
    let parity = assert_recycled_matches_fresh(&covert::CovertScenario, &config, Some(5), None);
    assert_outputs_match("covert", &parity);
    config.channel.fault_plan = Some(FaultPlan::timing_storm());
    let stormed = assert_recycled_matches_fresh(&covert::CovertScenario, &config, Some(3), None);
    assert_outputs_match("covert under a timing storm", &stormed);
}

#[test]
fn case_study_recycled_trials_match_fresh_machines() {
    for setting in [
        website::Setting::Default,
        website::Setting::FrequencyScalingDisabled,
    ] {
        let config = website::WebsiteFpConfig {
            n_sites: 3,
            traces_per_site: 3,
            epochs: 2,
            folds: 2,
            ..website::WebsiteFpConfig::quick(website::Browser::Chrome, setting)
        };
        assert_recycled_matches_fresh(&website::WebsiteScenario, &config, None, None);
    }
    let circl_config = circl::CirclConfig {
        fault_plan: Some(FaultPlan::delivery_storm()),
        ..circl::CirclConfig::quick()
    };
    assert_recycled_matches_fresh(&circl::CirclScenario, &circl_config, Some(3), None);
    let dnn_config = dnnsteal::DnnStealConfig {
        train_models: 4,
        test_models: 2,
        epochs: 2,
        ..dnnsteal::DnnStealConfig::quick()
    };
    assert_recycled_matches_fresh(&dnnsteal::DnnStealScenario, &dnn_config, None, None);
    assert_recycled_matches_fresh(
        &spectral::SpectralScenario,
        &spectral::SpectralScenarioConfig::default(),
        Some(3),
        None,
    );
    assert_recycled_matches_fresh(
        &spectre::SpectreScenario,
        &spectre::SpectreScenarioConfig::default(),
        Some(3),
        None,
    );
}

#[test]
fn extension_and_enclave_recycled_trials_match_fresh_machines() {
    let keystroke_config = keystroke::KeystrokeConfig {
        users: 2,
        enroll_sessions: 2,
        test_sessions: 1,
        ..keystroke::KeystrokeConfig::quick().with_fault_plan(FaultPlan::delivery_storm())
    };
    assert_recycled_matches_fresh(&keystroke::KeystrokeScenario, &keystroke_config, None, None);
    let procfp_config = procfp::ProcFpConfig {
        enroll: 1,
        test: 1,
        ..procfp::ProcFpConfig::quick()
    };
    assert_recycled_matches_fresh(&procfp::ProcFpScenario, &procfp_config, None, None);
    for defense in [
        segscope_repro::segsim::Defense::None,
        segscope_repro::segsim::Defense::QuanShield,
        segscope_repro::segsim::Defense::default_padding(),
    ] {
        let mut aex = aexcount::AexCountConfig::quick();
        aex.machine = aex.machine.with_defense(defense);
        assert_recycled_matches_fresh(&aexcount::AexCountScenario, &aex, Some(4), None);
        let mut heck = heckler::HecklerConfig::quick();
        heck.machine = heck.machine.with_defense(defense);
        assert_recycled_matches_fresh(&heckler::HecklerScenario, &heck, Some(4), None);
    }
}

/// Every registered scenario is covered by one of the tests above.
#[test]
fn parity_covers_the_whole_registry() {
    let covered = [
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
    let registered: Vec<&str> = segscope_repro::attacks::registry()
        .entries()
        .iter()
        .map(|s| s.name())
        .collect();
    assert_eq!(registered, covered);
}
