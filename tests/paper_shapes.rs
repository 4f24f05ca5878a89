//! The paper's claims at quick scale: every entry of
//! `segscope_bench::paper` regenerates its table or figure and asserts
//! the shape the paper reports. An entry whose claim no longer holds
//! panics; its name is printed first, so the failure names it.
//!
//! The same entries run at either scale from
//! `cargo bench -p segscope-bench --bench paper [-- <name>...]`.

use segscope_bench::paper::ENTRIES;

#[test]
fn every_paper_entry_passes_its_shape_check_at_quick_scale() {
    for entry in ENTRIES {
        println!("\n### paper entry `{}`", entry.name);
        (entry.run)(false);
    }
}
