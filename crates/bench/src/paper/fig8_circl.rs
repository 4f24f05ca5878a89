//! Fig. 8 — the distribution of SegCnt when the CIRCL challenge
//! ciphertext triggers an anomalous zero (`m_i != m_{i-1}`) or not.
//!
//! Paper shape: the anomalous-zero class runs at a higher frequency
//! (less power drawn), so its SegCnt distribution sits clearly above the
//! other class — the separation that drives the key extraction.

use segscope_attacks::circl::{run_extraction, CirclConfig};

pub(crate) fn run(full: bool) {
    crate::header("Fig. 8: CIRCL SegCnt distributions + key extraction");
    let config = if full {
        CirclConfig::paper()
    } else {
        CirclConfig::quick()
    };
    println!(
        "key: {} bits; {} SegCnt samples per challenge\n",
        config.key_bits, config.samples_per_challenge
    );
    let result = run_extraction(&config);

    let hi: Vec<f64> = result
        .observations
        .iter()
        .filter(|o| o.anomalous)
        .map(|o| o.mean_segcnt)
        .collect();
    let lo: Vec<f64> = result
        .observations
        .iter()
        .filter(|o| !o.anomalous)
        .map(|o| o.mean_segcnt)
        .collect();
    crate::summary("anomalous zero   (m_i != m_{i-1})", &hi);
    crate::summary("no anomalous zero (m_i = m_{i-1})", &lo);

    println!("\nanomalous-zero class histogram:");
    crate::ascii_histogram(&hi, 10, 50);
    println!("\nno-anomalous-zero class histogram:");
    crate::ascii_histogram(&lo, 10, 50);

    println!(
        "\nper-bit distinguishing accuracy: {}   key recovered: {}",
        crate::pct(result.bit_accuracy),
        result.recovered
    );
    assert!(
        segscope::mean(&hi) > segscope::mean(&lo),
        "anomalous-zero challenges must run at higher SegCnt"
    );
    assert!(
        result.bit_accuracy > 0.9,
        "bit accuracy {}",
        result.bit_accuracy
    );
    assert!(result.recovered, "the key should be recovered end to end");
    println!("\nshape check PASSED: classes separated; key extracted (search space 2).");
}
