//! Pins `nnet::math` without consulting the host's libm: an edge table
//! and a strided-sweep digest recorded once from glibc 2.36's `expf` and
//! `tanhf` (x86-64, FMA `expf` variant), lane invariance, and an ignored
//! sweep over all 2³² inputs against `f32::exp`/`f32::tanh` (run it with
//! `cargo test --release -p nnet --test math -- --include-ignored`).

use nnet::math::{exp, exp_lanes, tanh, tanh_lanes, LANES};

/// `(input, expf, tanhf)` bits at every branch boundary of both ports.
const EDGES: [(u32, u32, u32); 56] = [
    // ±0 and the smallest subnormals.
    (0x0000_0000, 0x3f80_0000, 0x0000_0000),
    (0x8000_0000, 0x3f80_0000, 0x8000_0000),
    (0x0000_0001, 0x3f80_0000, 0x0000_0001),
    (0x8000_0001, 0x3f80_0000, 0x8000_0001),
    // tanhf: |x| < 2^-55 returns x·(1 + x).
    (0x23ff_ffff, 0x3f80_0000, 0x23ff_ffff),
    (0x2400_0000, 0x3f80_0000, 0x2400_0000),
    (0xa400_0000, 0x3f80_0000, 0xa400_0000),
    // expm1f: |a| < 2^-25 returns a (a = -2|x| in tanhf).
    (0x3280_0000, 0x3f80_0000, 0x3280_0000),
    (0x32ff_ffff, 0x3f80_0000, 0x32ff_ffff),
    (0x3300_0000, 0x3f80_0000, 0x3300_0000),
    (0xb300_0000, 0x3f80_0000, 0xb300_0000),
    // expm1f: |a| > 0.5·ln2 leaves k = 0.
    (0x3e31_7218, 0x3f98_37f0, 0x3e2f_b0cd),
    (0x3e31_7219, 0x3f98_37f0, 0x3e2f_b0cd),
    (0x3eb1_7218, 0x3fb5_04f3, 0x3eaa_aaab),
    (0x3eb1_7219, 0x3fb5_04f4, 0x3eaa_aaac),
    (0xbeb1_7219, 0x3f35_04f3, 0xbeaa_aaac),
    // expm1f: |a| < 1.5·ln2 takes k = ±1.
    (0x3f05_1591, 0x3fd7_44fc, 0x3ef4_86f8),
    (0x3f05_1592, 0x3fd7_44fd, 0x3ef4_86f8),
    (0x3f85_1591, 0x4035_04f2, 0x3f47_1c71),
    (0x3f85_1592, 0x4035_04f3, 0x3f47_1c72),
    (0xbf85_1592, 0x3eb5_04f3, 0xbf47_1c72),
    // tanhf: |x| ≥ 1 switches to expm1f(2|x|).
    (0x3f7f_ffff, 0x402d_f854, 0x3f42_f7d5),
    (0x3f80_0000, 0x402d_f854, 0x3f42_f7d6),
    (0xbf80_0000, 0x3ebc_5ab2, 0xbf42_f7d6),
    (0x3f00_0000, 0x3fd3_094c, 0x3eec_9a9f),
    (0xbe80_0000, 0x3f47_5f7d, 0xbe7a_cbf5),
    // expm1f reconstruction: k < 23 against k ≥ 23, k ≤ 56 against k > 56.
    (0x40f9_8000, 0x4518_0fcb, 0x3f7f_fffa),
    (0x40f9_a000, 0x4518_a827, 0x3f7f_fffa),
    (0x419c_8000, 0x4d95_5e10, 0x3f80_0000),
    (0x419c_a000, 0x4d97_b839, 0x3f80_0000),
    (0xc19c_a000, 0x3157_fa33, 0xbf80_0000),
    // tanhf: |x| ≥ 22 returns ±1.
    (0x41af_ffff, 0x4f55_ad53, 0x3f80_0000),
    (0x41b0_0000, 0x4f55_ad6e, 0x3f80_0000),
    (0xc1b0_0000, 0x2f99_5a46, 0xbf80_0000),
    // expf: |x| ≥ 88 enters the special-case checks.
    (0x42b0_0000, 0x7ef8_82b7, 0x3f80_0000),
    (0xc2b0_0000, 0x0041_edc4, 0xbf80_0000),
    // expf overflow threshold 0x1.62e42ep6.
    (0x42b1_7217, 0x7f7f_ff84, 0x3f80_0000),
    (0x42b1_7218, 0x7f80_0000, 0x3f80_0000),
    // expf: glibc's may-underflow threshold -0x1.9d1d9ep6.
    (0xc2ce_8ecf, 0x0000_0001, 0xbf80_0000),
    (0xc2ce_8ed0, 0x0000_0001, 0xbf80_0000),
    // expf underflow threshold -0x1.9fe368p6.
    (0xc2cf_f1b4, 0x0000_0001, 0xbf80_0000),
    (0xc2cf_f1b3, 0x0000_0001, 0xbf80_0000),
    (0xc2cf_f1b5, 0x0000_0000, 0xbf80_0000),
    // ±max, ±inf, quiet and signalling NaNs.
    (0x7f7f_ffff, 0x7f80_0000, 0x3f80_0000),
    (0xff7f_ffff, 0x0000_0000, 0xbf80_0000),
    (0x7f80_0000, 0x7f80_0000, 0x3f80_0000),
    (0xff80_0000, 0x0000_0000, 0xbf80_0000),
    (0x7fc0_0000, 0x7fc0_0000, 0x7fc0_0000),
    (0xffc0_0000, 0xffc0_0000, 0xffc0_0000),
    (0x7fa0_0001, 0x7fe0_0001, 0x7fe0_0001),
    // The two inputs where an unfused expf range reduction is off by one ulp.
    (0x4202_422f, 0x56fc_9f1c, 0x3f80_0000),
    (0xc27c_65d9, 0x11fa_2993, 0xbf80_0000),
    // Ordinary values.
    (0x4020_0000, 0x4142_eb7f, 0x3f7c_92c1),
    (0xc06c_cccd, 0x3cca_88fe, 0xbf7f_afee),
    (0x4120_0000, 0x46ac_14ee, 0x3f80_0000),
    (0x3dcc_cccd, 0x3f8d_763e, 0x3dcc_1ebc),
];

/// FNV-1a over `exp` then `tanh` output bits of inputs `i · 4093`,
/// `i < 2^20` (an odd stride, so every exponent and varied low mantissa
/// bits are hit).
const STRIDED_DIGEST: u64 = 0x9960_dae1_4def_9c44;

#[test]
fn edge_table_is_reproduced() {
    for (x, want_exp, want_tanh) in EDGES {
        let v = f32::from_bits(x);
        assert_eq!(exp(v).to_bits(), want_exp, "exp({x:#010x})");
        assert_eq!(tanh(v).to_bits(), want_tanh, "tanh({x:#010x})");
    }
}

#[test]
fn strided_sweep_digest_is_pinned() {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut x = [0.0f32; LANES];
    let (mut e, mut t) = ([0.0f32; LANES], [0.0f32; LANES]);
    for block in 0u64..(1 << 20) / LANES as u64 {
        for (l, v) in x.iter_mut().enumerate() {
            *v = f32::from_bits(((block * LANES as u64 + l as u64) * 4093) as u32);
        }
        exp_lanes(&x, &mut e);
        tanh_lanes(&x, &mut t);
        for l in 0..LANES {
            for bits in [e[l].to_bits(), t[l].to_bits()] {
                hash = (hash ^ u64::from(bits)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(hash, STRIDED_DIGEST, "strided digest {hash:#018x}");
}

/// Every edge input gives the scalar wrappers' bits in every lane of a
/// block, whatever its neighbours are.
#[test]
fn results_do_not_depend_on_the_lane() {
    let fill: Vec<f32> = EDGES.iter().map(|e| f32::from_bits(e.0)).collect();
    for (k, &(x, want_exp, want_tanh)) in EDGES.iter().enumerate() {
        for lane in 0..LANES {
            let mut block = [0.0f32; LANES];
            for (l, v) in block.iter_mut().enumerate() {
                *v = fill[(k + 7 * l + 1) % fill.len()];
            }
            block[lane] = f32::from_bits(x);
            let (mut e, mut t) = ([0.0f32; LANES], [0.0f32; LANES]);
            exp_lanes(&block, &mut e);
            tanh_lanes(&block, &mut t);
            assert_eq!(e[lane].to_bits(), want_exp, "exp({x:#010x}) in lane {lane}");
            assert_eq!(
                t[lane].to_bits(),
                want_tanh,
                "tanh({x:#010x}) in lane {lane}"
            );
        }
    }
}

/// The cell update runs in blocks of [`LANES`] with a zero-padded tail:
/// each element must match the same element updated alone.
#[test]
fn cell_update_tail_matches_single_elements() {
    let hidden = 12;
    for lanes in 1..=9 {
        let n = hidden * lanes;
        let pre: Vec<f32> = (0..4 * n).map(|i| (i as f32 * 0.71).sin() * 6.0).collect();
        let c0: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).cos() * 2.0).collect();
        let (mut gates, mut c) = (pre.clone(), c0.clone());
        let (mut h, mut tc) = (vec![0.0; n], vec![0.0; n]);
        nnet::lstm_cell_soa(hidden, lanes, &mut gates, &mut c, &mut h, &mut tc);
        for j in 0..n {
            let mut g1 = [pre[j], pre[n + j], pre[2 * n + j], pre[3 * n + j]];
            let (mut c1, mut h1, mut t1) = ([c0[j]], [0.0], [0.0]);
            nnet::lstm_cell_soa(1, 1, &mut g1, &mut c1, &mut h1, &mut t1);
            let got = [
                gates[j],
                gates[n + j],
                gates[2 * n + j],
                gates[3 * n + j],
                c[j],
                h[j],
                tc[j],
            ];
            let want = [g1[0], g1[1], g1[2], g1[3], c1[0], h1[0], t1[0]];
            assert_eq!(
                got.map(f32::to_bits),
                want.map(f32::to_bits),
                "element {j} of {hidden}x{lanes}"
            );
        }
    }
}

/// Sweeps every `f32` bit pattern through `f` in lane blocks and counts
/// the outputs that differ from `libm` bit for bit.
fn sweep(f: fn(&[f32; LANES], &mut [f32; LANES]), libm: fn(f32) -> f32, name: &str) {
    let mut mismatches = 0u64;
    let mut x = [0.0f32; LANES];
    let mut out = [0.0f32; LANES];
    for block in 0..(1u64 << 32) / LANES as u64 {
        for (l, v) in x.iter_mut().enumerate() {
            *v = f32::from_bits((block * LANES as u64 + l as u64) as u32);
        }
        f(&x, &mut out);
        for (&v, &got) in x.iter().zip(&out) {
            let want = libm(v);
            if got.to_bits() != want.to_bits() {
                if mismatches < 8 {
                    eprintln!(
                        "{name}({:#010x}) = {:#010x}, libm {:#010x}",
                        v.to_bits(),
                        got.to_bits(),
                        want.to_bits()
                    );
                }
                mismatches += 1;
            }
        }
    }
    assert_eq!(mismatches, 0, "{name}: mismatches over all 2^32 inputs");
}

#[test]
#[ignore = "2^32 inputs; minutes at release"]
fn exp_matches_libm_on_every_f32() {
    sweep(exp_lanes, f32::exp, "exp");
}

#[test]
#[ignore = "2^32 inputs; minutes at release"]
fn tanh_matches_libm_on_every_f32() {
    sweep(tanh_lanes, f32::tanh, "tanh");
}
