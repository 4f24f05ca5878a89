//! Extension harness — the SegScope covert channel (paper Section V:
//! frequency-based covert channels). Sweeps the slot duration to map the
//! rate/error trade-off.

use segscope_attacks::covert::{bytes_to_bits, transmit, transmit_reliable, CovertConfig};
use segsim::Ps;

fn main() {
    segscope_bench::header("Extension: SegScope cross-core covert channel");
    let payload_bytes: &[u8] = if segscope_bench::full_scale() {
        b"The quick brown fox jumps over the lazy dog 0123456789"
    } else {
        b"COVERT CHANNEL SWEEP"
    };
    let bits = bytes_to_bits(payload_bytes);
    println!("payload: {} bits\n", bits.len());
    let widths = [12, 12, 12, 12];
    segscope_bench::print_row(
        &[
            "slot (ms)".into(),
            "raw bit/s".into(),
            "goodput".into(),
            "BER".into(),
        ],
        &widths,
    );
    // One parallel task per slot duration, each with a derived seed.
    let slots = [40u64, 20, 12, 8, 6];
    let sweep = exec::parallel_map(slots.len(), exec::resolve_threads(None), |i| {
        let config = CovertConfig {
            slot: Ps::from_ms(slots[i]),
            ..CovertConfig::slow()
        };
        let result = transmit(&config, &bits, exec::derive_seed(0xC0, i as u64));
        (config, result)
    });
    let mut best_clean_rate = 0.0f64;
    for (slot_ms, (config, result)) in slots.iter().zip(&sweep) {
        segscope_bench::print_row(
            &[
                slot_ms.to_string(),
                format!("{:.0}", config.raw_bps()),
                format!("{:.0}", result.goodput_bps),
                format!("{:.2}%", result.error_rate * 100.0),
            ],
            &widths,
        );
        if result.error_rate < 0.02 {
            best_clean_rate = best_clean_rate.max(result.goodput_bps);
        }
    }
    println!("\nbest near-clean raw rate: {best_clean_rate:.0} bit/s");

    let reliable = transmit_reliable(&CovertConfig::slow(), &bits, 3, 0xC1);
    println!(
        "3x repetition at 20 ms slots: {} errors, goodput {:.0} bit/s",
        reliable.errors, reliable.goodput_bps
    );
    assert_eq!(reliable.errors, 0, "repetition-coded channel must be clean");
    assert!(
        best_clean_rate >= 20.0,
        "channel should sustain tens of bit/s"
    );
    println!("\nshape check PASSED: slower slots are cleaner; coding removes residual errors.");
}
