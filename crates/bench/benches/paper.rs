//! Regenerates the paper's tables and figures: every entry of
//! `segscope_bench::paper` whose name contains a positional argument,
//! or every entry when none is given.
//!
//! ```text
//! cargo bench -p segscope-bench --bench paper                  # all
//! cargo bench -p segscope-bench --bench paper -- table2 fig10  # some
//! ```
//!
//! Arguments starting with `-` (cargo passes `--bench`) are ignored. A
//! filter set that matches no entry exits 2 and lists the names. Set
//! `SEGSCOPE_BENCH_FULL=1` for the larger scales.

use segscope_bench::paper::{select, ENTRIES};

fn main() {
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|arg| !arg.starts_with('-'))
        .collect();
    let entries = select(&filters);
    if entries.is_empty() {
        eprintln!("no paper entry matches {filters:?}; entries:");
        for entry in ENTRIES {
            eprintln!("  {}", entry.name);
        }
        std::process::exit(2);
    }
    let full = segscope_bench::full_scale();
    for entry in entries {
        (entry.run)(full);
    }
}
