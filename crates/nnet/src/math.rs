//! Lane transcendentals: `exp` and `tanh` over fixed 8-lane blocks,
//! bit-identical to glibc's `expf` and `tanhf` for every `f32` input.
//!
//! The LSTM cell update calls `exp` three times and `tanh` twice per
//! element. A libm call per lane cannot be vectorised, so both functions
//! are ported here branch-free: every lane runs the same instruction
//! stream, special cases are selects, and a block of [`LANES`] inputs is
//! one straight-line loop the compiler can pack into SIMD registers.
//!
//! # Bit identity
//!
//! Both ports return exactly what glibc 2.36 on x86-64 returns:
//!
//! * **`exp`** is the glibc ≥ 2.27 `expf` (`sysdeps/ieee754/flt-32/e_expf.c`,
//!   the variant the FMA ifunc selects on AVX2 hosts): `x·N/ln2 = k + r`
//!   with `N = 32`, `2^(k/N)` from a 32-entry table, a cubic in `r`
//!   evaluated in `f64`, one rounding to `f32`. glibc's range reduction is
//!   fused (`kd = fma(InvLn2N, x, SHIFT)`, `r = fma(InvLn2N, x, -kd)`).
//!   Without an FMA instruction the same `kd` and `r` come from a Dekker
//!   split of `InvLn2N`: both partial products with the 24-bit `x` are
//!   exact in `f64`, so `r` is the fused result and `kd` differs from it
//!   only by a double rounding that no `f32` input reaches. The cubic
//!   runs unfused; its error stays far below the final `f32` rounding for
//!   every input. An unfused range reduction would differ on 2 inputs.
//! * **`tanh`** is fdlibm's `s_tanhf.c` over `s_expm1f.c` as glibc 2.36
//!   ships them, in `f32` arithmetic only. `k` is computed once, as a
//!   float (a floor by the `0x1.8p23` rounding trick, so no lane needs a
//!   float-to-int conversion). Every reconstruction of `expm1` that
//!   `tanhf` reaches (`k` = 0, −1; `k ≤ −2 || k > 56`; `k < 23`;
//!   otherwise) is evaluated and one is picked by `k`; `k = 1` needs a
//!   positive argument below 1.5·ln2, which `tanhf` never passes. `|x|`
//!   is clamped to 22 before doubling, so lanes whose result is a select
//!   constant stay finite, and `2^-k` and the exponent add are built from
//!   `k << 23` rather than a per-lane variable shift.
//!
//! Each lane runs plain IEEE-754 `f32`/`f64` operations, which Rust never
//! fuses or reassociates, so a block, a lane of it and the scalar [`exp`]
//! and [`tanh`] give the same bits however the compiler packs them, and
//! the results do not depend on the host's libm (a host whose glibc takes
//! the unfused `expf` variant differs from it on 2 inputs).
//! `tests/math.rs` pins edge inputs and a strided sweep by their output
//! bits, and two ignored tests sweep all 2³² inputs against libm.
//! [`crate::reference`] keeps calling libm on purpose:
//! it is the independent oracle the lane engine is checked against.

/// Lanes per block.
pub const LANES: usize = 8;

/// `exp` of each lane, bit-identical to glibc's `expf`.
#[inline]
pub fn exp_lanes(x: &[f32; LANES], out: &mut [f32; LANES]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = expf(v);
    }
}

/// `tanh` of each lane, bit-identical to glibc's `tanhf`.
#[inline]
pub fn tanh_lanes(x: &[f32; LANES], out: &mut [f32; LANES]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = tanhf(v);
    }
}

/// `exp(x)`: one lane of [`exp_lanes`], bit for bit.
///
/// ```
/// assert_eq!(nnet::math::exp(0.0), 1.0);
/// ```
#[must_use]
#[inline]
pub fn exp(x: f32) -> f32 {
    expf(x)
}

/// `tanh(x)`: one lane of [`tanh_lanes`], bit for bit.
///
/// ```
/// assert_eq!(nnet::math::tanh(-0.0).to_bits(), (-0.0f32).to_bits());
/// ```
#[must_use]
#[inline]
pub fn tanh(x: f32) -> f32 {
    tanhf(x)
}

/// `__exp2f_data.tab`: `bits(2^(i/32)) - (i << 47)`.
const EXP2F_TAB: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// `InvLn2N = 0x1.71547652b82fep+5` (`32 / ln 2`).
const INV_LN2_N: u64 = 0x4047_1547_652b_82fe;
/// `InvLn2N` with its low 25 mantissa bits cleared: 28 significant bits,
/// so its product with any `f32` is exact in `f64`.
const A_HI: f64 = f64::from_bits(INV_LN2_N & !0x1ff_ffff);
/// `InvLn2N - A_HI`, exact (25 significant bits).
const A_LO: f64 = f64::from_bits(INV_LN2_N) - A_HI;
/// `0x1.8p52`: adding it rounds to an integer kept in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `__exp2f_data.poly_scaled`.
const EXP_C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const EXP_C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const EXP_C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// `0x1.62e42ep6`: above it `expf` overflows to `+inf`.
const EXP_OFLOW: f32 = f32::from_bits(0x42b1_7217);
/// `-0x1.9fe368p6`: below it `expf` underflows to `+0`.
const EXP_UFLOW: f32 = f32::from_bits(0xc2cf_f1b4);

/// glibc `expf`, branch-free.
#[inline(always)]
fn expf(x: f32) -> f32 {
    let xd = f64::from(x);
    // kd = fma(InvLn2N, x, SHIFT) and r = fma(InvLn2N, x, -kd) via the
    // exact split products p1 + p2 = InvLn2N·x.
    let p1 = A_HI * xd;
    let p2 = A_LO * xd;
    let kd = (p1 + p2) + SHIFT;
    let ki = kd.to_bits();
    let r = (p1 - (kd - SHIFT)) + p2;
    // s = 2^(k/N): the table entry with k/N added to its exponent.
    let s = f64::from_bits(EXP2F_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = EXP_C0 * r + EXP_C1;
    let r2 = r * r;
    let y = EXP_C2 * r + 1.0;
    let y = ((z * r2 + y) * s) as f32;
    let y = if x > EXP_OFLOW { f32::INFINITY } else { y };
    let y = if x < EXP_UFLOW { 0.0 } else { y };
    if x.is_nan() {
        x + x
    } else {
        y
    }
}

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// `0x1.8p23`: adding it rounds an `f32` below 2^22 to an integer.
const ROUND: f32 = f32::from_bits(0x4b40_0000);
/// `s_expm1f.c`'s scaled coefficients `Q1..Q5`.
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// fdlibm `expm1f` for the arguments `tanhf` passes it: `a` in `(-2, 0]`
/// or `[2, 44]`.
#[inline(always)]
fn expm1f(a: f32) -> f32 {
    let hx = a.to_bits() & 0x7fff_ffff;
    // Argument reduction: a = k·ln2 + x + c. |a| ≤ 0.5·ln2 keeps k = 0,
    // |a| < 1.5·ln2 takes k = ±1, anything larger truncates
    // invln2·a ± 0.5 toward zero, i.e. floors invln2·|a| + 0.5 and takes
    // a's sign. That is below 64, so adding and subtracting 0x1.8p23
    // rounds it to nearest, and one step down where that rounded up
    // floors it.
    let v = INV_LN2 * f32::from_bits(hx) + 0.5;
    let rn = (v + ROUND) - ROUND;
    let kf = if rn > v { rn - 1.0 } else { rn };
    let kf = if hx < 0x3f85_1592 { 1.0 } else { kf };
    let kf = if hx > 0x3eb1_7218 {
        kf.copysign(a)
    } else {
        0.0
    };
    // The integer k sits in the low mantissa bits of kf + 0x1.8p23.
    let k = (kf + ROUND).to_bits() as i32 - ROUND.to_bits() as i32;
    let hi = a - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;

    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    let y_k0 = x - (x * e - hxs);
    let e = (x * (e - c) - c) - hxs;
    let y_km1 = 0.5 * (x - e) - 0.5;
    // 2^k scaling as an exponent add; 2^-k from the same shifted k.
    let k23 = k << 23;
    let scale = |y: f32| f32::from_bits((y.to_bits() as i32).wrapping_add(k23) as u32);
    let two_mk = f32::from_bits((0x3f80_0000 - k23) as u32);
    // k ≤ -2 || k > 56: scale(1 - (e - x)) - 1; k < 23: scale((1 - 2^-k)
    // - (e - x)); otherwise scale((x - (e + 2^-k)) + 1).
    let far = k <= -2 || k > 56;
    let y_near = scale(if far { 1.0 } else { 1.0 - two_mk } - (e - x));
    let y_near = if far { y_near - 1.0 } else { y_near };
    let y_big = scale((x - (e + two_mk)) + 1.0);

    let y = if far || k < 23 { y_near } else { y_big };
    let y = if k == -1 { y_km1 } else { y };
    let y = if k == 0 { y_k0 } else { y };
    // |a| < 2^-25: expm1(a) = a.
    if hx < 0x3300_0000 {
        a
    } else {
        y
    }
}

/// glibc `tanhf`, branch-free.
#[inline(always)]
fn tanhf(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    // Clamped so that lanes whose result is ±1 or NaN stay finite.
    let ax = f32::from_bits(ix);
    let ax = if ax < 22.0 { ax } else { 22.0 };
    let ge1 = ix >= 0x3f80_0000;
    // |x| ≥ 1: 1 - 2/(expm1(2|x|) + 2); else -t/(t + 2), t = expm1(-2|x|).
    let t = expm1f(blend(ge1, 2.0, -2.0) * ax);
    let q = blend(ge1, 2.0, -t) / (t + 2.0);
    let z = blend(ge1, 1.0 - q, q);
    // |x| ≥ 22 (and ±inf): ±1.
    let z = if ix >= 0x41b0_0000 { 1.0 } else { z };
    // z ≥ +0, so this is glibc's sign flip for negative x.
    let z = z.copysign(x);
    // |x| < 2^-55, ±0 included: x·(1 + x).
    let z = if ix < 0x2400_0000 { x * (1.0 + x) } else { z };
    if x.is_nan() {
        x + x
    } else {
        z
    }
}

/// `if c { a } else { b }` built from bit masks. Written as `if`s on one
/// condition, `tanhf`'s three choices on `|x| ≥ 1` become branches the
/// optimiser threads into two copies of everything between them (the
/// whole `expm1f` and the division), and a vectorised block then runs
/// both copies: about twice the instructions.
#[inline(always)]
fn blend(c: bool, a: f32, b: f32) -> f32 {
    let m = u32::from(c).wrapping_neg();
    f32::from_bits((a.to_bits() & m) | (b.to_bits() & !m))
}
