//! The paper harness: one [`Entry`] per table, figure and extension
//! study of the SegScope evaluation.
//!
//! Each entry regenerates its artifact, prints it in a paper-comparable
//! layout next to the paper's values, asserts the shape the paper
//! claims (orderings, ratios, crossovers) and ends with a
//! `shape check PASSED` line. A failed claim panics. The `paper` bench
//! target runs the entries chosen by [`select`]; the root package's
//! `tests/paper_shapes.rs` runs all of them at quick scale.

mod ext_covert;
mod ext_keystrokes;
mod ext_procfp;
mod fig12_spectre;
mod fig3_freq;
mod fig4_handler;
mod fig5_baselines;
mod fig6_types;
mod fig8_circl;
mod fig9_spectral;
mod kaslr_k_sweep;
mod table2_probing;
mod table3_timer;
mod table4_websites;
mod table5_dnn;
mod table7_kaslr_timers;
mod table8_kaslr_machines;

use irq::time::Ps;
use segsim::StepFn;

/// One regenerated paper artifact.
pub struct Entry {
    /// The name a filter matches against, e.g. `table2_probing`.
    pub name: &'static str,
    /// Prints the artifact and asserts its shape; `true` runs the
    /// full (paper-comparable) scale, `false` the quick one.
    pub run: fn(bool),
}

/// Every entry, in paper order: tables, figures, then extensions.
pub const ENTRIES: &[Entry] = &[
    entry("table2_probing", table2_probing::run),
    entry("table3_timer", table3_timer::run),
    entry("table4_websites", table4_websites::run),
    entry("table5_dnn", table5_dnn::run),
    entry("table7_kaslr_timers", table7_kaslr_timers::run),
    entry("table8_kaslr_machines", table8_kaslr_machines::run),
    entry("fig3_freq", fig3_freq::run),
    entry("fig4_handler", fig4_handler::run),
    entry("fig5_baselines", fig5_baselines::run),
    entry("fig6_types", fig6_types::run),
    entry("fig8_circl", fig8_circl::run),
    entry("fig9_spectral", fig9_spectral::run),
    entry("fig10_kaslr_access", kaslr_k_sweep::fig10),
    entry("fig11_kaslr_prefetch", kaslr_k_sweep::fig11),
    entry("fig12_spectre", fig12_spectre::run),
    entry("ext_keystrokes", ext_keystrokes::run),
    entry("ext_covert", ext_covert::run),
    entry("ext_procfp", ext_procfp::run),
];

const fn entry(name: &'static str, run: fn(bool)) -> Entry {
    Entry { name, run }
}

/// The Fig. 3 victim-load staircase: `steps` 40 ms steps of
/// `0.5 + 0.5·sin(0.37·step)`, which sweeps the governor across its
/// frequency range.
fn load_staircase(steps: u64) -> StepFn {
    let mut load = StepFn::zero();
    for step in 0..steps {
        let level = 0.5 + 0.5 * ((step as f64) * 0.37).sin();
        load.push(Ps::from_ms(step * 40), level);
    }
    load
}

/// The entries whose name contains any of `filters` as a substring, in
/// [`ENTRIES`] order; every entry when `filters` is empty.
#[must_use]
pub fn select(filters: &[String]) -> Vec<&'static Entry> {
    ENTRIES
        .iter()
        .filter(|e| filters.is_empty() || filters.iter().any(|f| e.name.contains(f.as_str())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(filters: &[&str]) -> Vec<&'static str> {
        let filters: Vec<String> = filters.iter().map(|f| (*f).to_owned()).collect();
        select(&filters).iter().map(|e| e.name).collect()
    }

    #[test]
    fn select_matches_substrings_in_entry_order() {
        assert_eq!(
            names(&["fig1"]),
            [
                "fig10_kaslr_access",
                "fig11_kaslr_prefetch",
                "fig12_spectre"
            ]
        );
        assert_eq!(
            names(&["ext_procfp", "table2"]),
            ["table2_probing", "ext_procfp"]
        );
    }

    #[test]
    fn no_filter_selects_every_entry() {
        assert_eq!(names(&[]).len(), ENTRIES.len());
        assert_eq!(ENTRIES.len(), 18);
    }

    #[test]
    fn unmatched_filter_selects_nothing() {
        assert!(names(&["table9"]).is_empty());
    }

    #[test]
    fn names_are_unique() {
        let mut all = names(&[]);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), ENTRIES.len());
    }
}
