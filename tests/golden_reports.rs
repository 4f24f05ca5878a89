//! Golden scenario-report snapshots, pinned at the CLI-visible report
//! layer: the exact JSON `segscope run <name>` prints is blessed into
//! `tests/golden/<name>.report.json`.
//!
//! * The two enclave studies (`aexcount`, `heckler`) run at a fixed seed
//!   and trial count. Any drift in the kernel-exit model, the defense
//!   layer, the enclave lifecycle, or the scenario driver shows up as a
//!   byte diff.
//! * The two learned attacks (`website`, `dnnsteal`) run at their
//!   default config, seed and trial count, exactly as `segscope run
//!   website` does. Their reports carry the trained models' accuracies,
//!   so any change to `nnet`'s training arithmetic shows up here.
//! * The other case studies are pinned the same way: the repetition
//!   scenarios (`kaslr`, `spectre`, `circl`, `spectral`) at the enclave
//!   studies' fixed seed and trial count, the structured ones (`procfp`,
//!   `keystroke`) at their defaults, since their trial count follows
//!   the config.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! SEGSCOPE_BLESS=1 cargo test --test golden_reports
//! ```

use segscope_repro::attacks;
use segscope_repro::scenario::RunOptions;
use serde::Serialize;
use std::path::PathBuf;

/// Fixed seed for the repetition-scenario golden runs.
const GOLDEN_SEED: u64 = 0x601D;
/// Trials per repetition-scenario golden run — small, but enough to exercise
/// multi-trial seed derivation and the summary reductions.
const GOLDEN_TRIALS: usize = 3;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.report.json"))
}

fn check_golden_report(name: &str, opts: &RunOptions) {
    let entry = attacks::registry().get(name).expect("scenario registered");
    let run = entry.run_dyn(None, opts).expect("default params valid");
    let actual = serde_json::to_string(&run.report.to_value()).expect("report serializes");
    let path = golden_path(name);
    if std::env::var("SEGSCOPE_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, actual + "\n").expect("golden file writable");
        return;
    }
    let blessed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with SEGSCOPE_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        blessed.trim_end(),
        "golden report drift for `{name}`; if intentional, regenerate with \
         SEGSCOPE_BLESS=1 cargo test --test golden_reports"
    );
}

fn enclave_opts() -> RunOptions {
    RunOptions {
        seed: Some(GOLDEN_SEED),
        trials: Some(GOLDEN_TRIALS),
        ..RunOptions::default()
    }
}

#[test]
fn golden_aexcount_report() {
    check_golden_report("aexcount", &enclave_opts());
}

#[test]
fn golden_heckler_report() {
    check_golden_report("heckler", &enclave_opts());
}

#[test]
fn golden_website_report() {
    check_golden_report("website", &RunOptions::default());
}

#[test]
fn golden_dnnsteal_report() {
    check_golden_report("dnnsteal", &RunOptions::default());
}

#[test]
fn golden_kaslr_report() {
    check_golden_report("kaslr", &enclave_opts());
}

#[test]
fn golden_spectre_report() {
    check_golden_report("spectre", &enclave_opts());
}

#[test]
fn golden_circl_report() {
    check_golden_report("circl", &enclave_opts());
}

#[test]
fn golden_spectral_report() {
    check_golden_report("spectral", &enclave_opts());
}

#[test]
fn golden_procfp_report() {
    check_golden_report("procfp", &RunOptions::default());
}

#[test]
fn golden_keystroke_report() {
    check_golden_report("keystroke", &RunOptions::default());
}
