//! A minimal row-major matrix for the classifier networks.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major `f32` matrix.
///
/// Only the operations the LSTM/dense layers need are provided; this is a
/// training substrate, not a linear-algebra library.
///
/// ```
/// let m = nnet::Mat::zeros(2, 3);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m.get(1, 2), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// An all-zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Xavier/Glorot-uniform initialization.
    #[must_use]
    pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Mat { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat data buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data buffer (used by the optimizer).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `out += self * x` where `x.len() == cols` and `out.len() == rows`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_acc(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec input length");
        assert_eq!(out.len(), self.rows, "matvec output length");
        if self.cols == 0 {
            return;
        }
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            *o += dot(row, x);
        }
    }

    /// `out += self * [x, 1]` where the matrix's last column is a folded-in
    /// bias (`x.len() + 1 == cols`, `out.len() == rows`).
    ///
    /// Lets layers with a `[x, h, 1]` input convention skip materializing
    /// the extended vector.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_bias_acc(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len() + 1, self.cols, "matvec_bias input length");
        assert_eq!(out.len(), self.rows, "matvec_bias output length");
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            let (w, bias) = row.split_at(self.cols - 1);
            *o += dot(w, x) + bias[0];
        }
    }

    /// `out += selfᵀ * g` where `g.len() == rows` and `out.len() == cols`
    /// (backpropagating through a matvec).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_t_acc(&self, g: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "matvec_t output length");
        self.matvec_t_narrow(g, out);
    }

    /// Like [`Mat::matvec_t_acc`] but accumulates only into the first
    /// `out.len()` columns (`out.len() <= cols`) — the common case of
    /// backpropagating past a folded-in bias column.
    ///
    /// Rows are processed in blocks of four so each `out` element is
    /// loaded and stored once per block instead of once per row.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_t_narrow(&self, g: &[f32], out: &mut [f32]) {
        assert_eq!(g.len(), self.rows, "matvec_t input length");
        assert!(out.len() <= self.cols, "matvec_t output length");
        let cols = self.cols;
        if cols == 0 {
            return;
        }
        let blocks = self.rows / 4;
        for b in 0..blocks {
            let r = b * 4;
            let (g0, g1, g2, g3) = (g[r], g[r + 1], g[r + 2], g[r + 3]);
            if g0 == 0.0 && g1 == 0.0 && g2 == 0.0 && g3 == 0.0 {
                continue;
            }
            let block = &self.data[r * cols..(r + 4) * cols];
            let (r0, rest) = block.split_at(cols);
            let (r1, rest) = rest.split_at(cols);
            let (r2, r3) = rest.split_at(cols);
            for ((((o, w0), w1), w2), w3) in out.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
                *o += g0 * w0 + g1 * w1 + g2 * w2 + g3 * w3;
            }
        }
        for (r, &gr) in g.iter().enumerate().skip(blocks * 4) {
            if gr == 0.0 {
                continue;
            }
            let row = &self.data[r * cols..r * cols + out.len()];
            for (o, w) in out.iter_mut().zip(row) {
                *o += gr * w;
            }
        }
    }

    /// `self += scale * g ⊗ x` (rank-1 gradient accumulation).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn outer_acc(&mut self, g: &[f32], x: &[f32], scale: f32) {
        assert_eq!(g.len(), self.rows, "outer rows");
        assert_eq!(x.len(), self.cols, "outer cols");
        if self.cols == 0 {
            return;
        }
        for (row, &gv) in self.data.chunks_exact_mut(self.cols).zip(g) {
            let gr = gv * scale;
            if gr == 0.0 {
                continue;
            }
            for (w, xi) in row.iter_mut().zip(x) {
                *w += gr * xi;
            }
        }
    }

    /// `self += scale * g ⊗ [x, 1]` where the last column is a folded-in
    /// bias (`x.len() + 1 == cols`).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn outer_acc_bias(&mut self, g: &[f32], x: &[f32], scale: f32) {
        assert_eq!(g.len(), self.rows, "outer rows");
        assert_eq!(x.len() + 1, self.cols, "outer cols");
        let cols = self.cols;
        for (row, &gv) in self.data.chunks_exact_mut(cols).zip(g) {
            let gr = gv * scale;
            if gr == 0.0 {
                continue;
            }
            let (w, bias) = row.split_at_mut(cols - 1);
            for (wi, xi) in w.iter_mut().zip(x) {
                *wi += gr * xi;
            }
            bias[0] += gr;
        }
    }

    /// Sets every element to zero (gradient reset).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Lane-batched [`Mat::matvec_bias_acc`]: `out[r * lanes + l] +=
    /// self.row(r) * [x_l, 1]` for every lane `l`, where `xs` holds the
    /// lane inputs feature-major (`xs[f * lanes + l]` is feature `f` of
    /// lane `l`, `xs.len() == (cols - 1) * lanes`).
    ///
    /// Each lane's result is **bit-identical** to the scalar
    /// `matvec_bias_acc` on that lane's input: the kernel keeps four
    /// per-lane accumulators over feature chunks of four plus a per-lane
    /// scalar tail, combined as `(a0 + a1) + (a2 + a3) + tail + bias` —
    /// the same operation order as the scalar `dot` — so the per-lane
    /// floating-point result does not depend on `lanes` or on which
    /// block of eight a lane lands in.
    ///
    /// Lanes run in fixed blocks of eight through one loop body that
    /// auto-vectorizes: each block's inputs are first gathered into
    /// contiguous eight-lane rows, zero-padded past the last live lane of
    /// a partial block, and only live lanes are stored. At one lane the
    /// SoA layout is the plain vector layout, so the call is the scalar
    /// kernel itself.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or when the matrix has no bias
    /// column (`cols == 0`).
    pub fn matvec_bias_acc_soa(&self, xs: &[f32], lanes: usize, out: &mut [f32]) {
        assert!(self.cols > 0, "matvec_bias_soa needs a bias column");
        let feat = self.cols - 1;
        assert_eq!(xs.len(), feat * lanes, "matvec_bias_soa input length");
        assert_eq!(
            out.len(),
            self.rows * lanes,
            "matvec_bias_soa output length"
        );
        if lanes == 1 {
            return self.matvec_bias_acc(xs, out);
        }
        let chunked = feat - feat % 4;
        let mut block = Vec::with_capacity(feat);
        for lane0 in (0..lanes).step_by(LANE_BLOCK) {
            let width = (lanes - lane0).min(LANE_BLOCK);
            gather_lanes(xs, lanes, lane0, &mut block);
            let (x_chunked, x_tail) = block.split_at(chunked);
            for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
                let (w, bias) = row.split_at(feat);
                let mut acc = [[0.0f32; LANE_BLOCK]; 4];
                let mut tail = [0.0f32; LANE_BLOCK];
                for (cw, xq) in w[..chunked].chunks_exact(4).zip(x_chunked.chunks_exact(4)) {
                    for ((acc_a, &wv), xv) in acc.iter_mut().zip(cw).zip(xq) {
                        for (al, xl) in acc_a.iter_mut().zip(xv) {
                            *al += wv * xl;
                        }
                    }
                }
                for (&wv, xv) in w[chunked..].iter().zip(x_tail) {
                    for (tl, xl) in tail.iter_mut().zip(xv) {
                        *tl += wv * xl;
                    }
                }
                let out_block = &mut out[r * lanes + lane0..r * lanes + lane0 + width];
                for (l, o) in out_block.iter_mut().enumerate() {
                    *o += (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]) + tail[l] + bias[0];
                }
            }
        }
    }

    /// Lane-batched backpropagation through a matvec, in the order of
    /// [`Mat::matvec_t_narrow`]: `out[j * lanes + l] += Σ_k self[j][k] ·
    /// g[k * lanes + l]`. `self` holds the *transpose* of the matrix to
    /// backpropagate through (one row per output column), `g` its row
    /// gradients row-major over lanes (`cols × lanes`) and `out` the
    /// result feature-major (`rows × lanes`).
    ///
    /// Per lane the adds run in `matvec_t_narrow`'s order — gradient
    /// rows in blocks of four, each block added as `g0·w0 + g1·w1 +
    /// g2·w2 + g3·w3`, then the remainder one at a time — so each lane's
    /// result is bit-identical to the scalar kernel's on that lane. The
    /// scalar kernel skips all-zero blocks; adding their `±0` terms
    /// instead changes no bit as long as `out` never holds `-0.0`, which
    /// holds for any buffer that starts at `+0.0` and is only added to.
    /// Lanes run in fixed blocks of eight, as in
    /// [`Mat::matvec_bias_acc_soa`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub(crate) fn matvec_t_soa(&self, g: &[f32], lanes: usize, out: &mut [f32]) {
        assert_eq!(g.len(), self.cols * lanes, "matvec_t_soa input length");
        assert_eq!(out.len(), self.rows * lanes, "matvec_t_soa output length");
        if lanes == 0 || self.cols == 0 {
            return;
        }
        let blocked = self.cols - self.cols % 4;
        let mut block = Vec::with_capacity(self.cols);
        for lane0 in (0..lanes).step_by(LANE_BLOCK) {
            let width = (lanes - lane0).min(LANE_BLOCK);
            gather_lanes(g, lanes, lane0, &mut block);
            let (g_blocked, g_rest) = block.split_at(blocked);
            for (j, w) in self.data.chunks_exact(self.cols).enumerate() {
                let out_lanes = &mut out[j * lanes + lane0..j * lanes + lane0 + width];
                let mut acc = [0.0f32; LANE_BLOCK];
                acc[..width].copy_from_slice(out_lanes);
                for (gq, wq) in g_blocked.chunks_exact(4).zip(w.chunks_exact(4)) {
                    let (w0, w1, w2, w3) = (wq[0], wq[1], wq[2], wq[3]);
                    for (l, a) in acc.iter_mut().enumerate() {
                        *a += gq[0][l] * w0 + gq[1][l] * w1 + gq[2][l] * w2 + gq[3][l] * w3;
                    }
                }
                for (gr, &wr) in g_rest.iter().zip(&w[blocked..]) {
                    for (a, gl) in acc.iter_mut().zip(gr) {
                        *a += gl * wr;
                    }
                }
                out_lanes.copy_from_slice(&acc[..width]);
            }
        }
    }

    /// Ordered rank-`k` update: `self[r][c] += Σ_s g_s[r] · x_s[c]` for
    /// `s = 0..k`, where `g_s = g[s * g_stride..][..rows]` and `x_s =
    /// x[s * x_stride..][..cols]`. Every element receives its `k` adds
    /// in order `s = 0, 1, …`, each add being `+= g_s[r] * x_s[c]`, so
    /// the result is bit-identical to `k` successive
    /// [`Mat::outer_acc`] calls at scale 1 (whose zero-row skip adds
    /// nothing a `-0.0`-free buffer would notice). A folded-in bias is a
    /// column whose `x` entries are all 1.
    ///
    /// Each row is held in registers, [`OUTER_COLS`] columns at a time,
    /// across all `k` terms, so the buffer is read and written once
    /// instead of once per term. `x_stride` must be at least `cols`
    /// rounded up to [`OUTER_COLS`]; what that padding holds never
    /// reaches `self`.
    ///
    /// # Panics
    ///
    /// Panics when the strides or buffers are too short.
    pub(crate) fn outer_acc_seq(
        &mut self,
        g: &[f32],
        g_stride: usize,
        x: &[f32],
        x_stride: usize,
        k: usize,
    ) {
        let cols = self.cols;
        assert!(g_stride >= self.rows, "outer_acc_seq g stride");
        assert!(
            x_stride >= cols.next_multiple_of(OUTER_COLS),
            "outer_acc_seq x stride"
        );
        assert!(g.len() >= k * g_stride, "outer_acc_seq g length");
        assert!(x.len() >= k * x_stride, "outer_acc_seq x length");
        if cols == 0 {
            return;
        }
        for (r, row) in self.data.chunks_exact_mut(cols).enumerate() {
            for c0 in (0..cols).step_by(OUTER_COLS) {
                let width = (cols - c0).min(OUTER_COLS);
                let mut acc = [0.0f32; OUTER_COLS];
                acc[..width].copy_from_slice(&row[c0..c0 + width]);
                for (g_s, x_s) in g
                    .chunks_exact(g_stride)
                    .zip(x.chunks_exact(x_stride))
                    .take(k)
                {
                    let gr = g_s[r];
                    let xv: &[f32; OUTER_COLS] = x_s[c0..c0 + OUTER_COLS]
                        .try_into()
                        .expect("padded column block");
                    for (a, xc) in acc.iter_mut().zip(xv) {
                        *a += gr * xc;
                    }
                }
                row[c0..c0 + width].copy_from_slice(&acc[..width]);
            }
        }
    }
}

/// Columns per register block of [`Mat::outer_acc_seq`]: one block covers
/// a whole LSTM gate row at the paper's hidden size of 16.
pub(crate) const OUTER_COLS: usize = 20;

/// Lanes per block of the SoA kernels.
const LANE_BLOCK: usize = 8;

/// Gathers lanes `lane0..lane0 + LANE_BLOCK` of every row of the
/// feature-major `src` (row stride `lanes`) into `block`, one fixed-width
/// array per row, zero-padding lanes past the end of a partial last
/// block.
fn gather_lanes(src: &[f32], lanes: usize, lane0: usize, block: &mut Vec<[f32; LANE_BLOCK]>) {
    let width = (lanes - lane0).min(LANE_BLOCK);
    block.clear();
    block.extend(src.chunks_exact(lanes).map(|row| {
        let mut v = [0.0f32; LANE_BLOCK];
        v[..width].copy_from_slice(&row[lane0..lane0 + width]);
        v
    }));
}

/// Dot product with four independent accumulators, so the multiplies are
/// not serialized behind one add chain (and auto-vectorize cleanly).
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let chunks_a = a.chunks_exact(4);
    let chunks_b = b.chunks_exact(4);
    let rem_a = chunks_a.remainder();
    let rem_b = chunks_b.remainder();
    for (ca, cb) in chunks_a.zip(chunks_b) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut tail = 0.0f32;
    for (xa, xb) in rem_a.iter().zip(rem_b) {
        tail += xa * xb;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn matvec_and_transpose_agree() {
        let mut m = Mat::zeros(2, 3);
        // [[1,2,3],[4,5,6]]
        for (i, v) in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0].iter().enumerate() {
            m.as_mut_slice()[i] = *v;
        }
        let x = [1.0, 0.0, -1.0];
        let mut y = [0.0; 2];
        m.matvec_acc(&x, &mut y);
        assert_eq!(y, [-2.0, -2.0]);
        let g = [1.0, 1.0];
        let mut gx = [0.0; 3];
        m.matvec_t_acc(&g, &mut gx);
        assert_eq!(gx, [5.0, 7.0, 9.0]);
    }

    #[test]
    fn outer_accumulates() {
        let mut m = Mat::zeros(2, 2);
        m.outer_acc(&[1.0, 2.0], &[3.0, 4.0], 0.5);
        assert_eq!(m.get(0, 0), 1.5);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
        m.fill_zero();
        assert_eq!(m.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn xavier_is_bounded_and_seeded() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        let ma = Mat::xavier(8, 8, &mut a);
        let mb = Mat::xavier(8, 8, &mut b);
        assert_eq!(ma, mb);
        let bound = (6.0f32 / 16.0).sqrt();
        assert!(ma.as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    #[should_panic(expected = "matvec input length")]
    fn dimension_mismatch_panics() {
        let m = Mat::zeros(2, 3);
        let mut out = [0.0; 2];
        m.matvec_acc(&[1.0; 4], &mut out);
    }

    /// The unrolled/blocked kernels must agree with naive loops on sizes
    /// that exercise both the 4-wide blocks and the scalar remainders.
    #[test]
    #[allow(clippy::needless_range_loop)] // the oracle loops are naive on purpose
    fn fast_kernels_match_naive_loops() {
        let mut rng = SmallRng::seed_from_u64(6);
        for (rows, cols) in [(1, 1), (3, 5), (4, 8), (7, 9), (12, 13), (16, 16)] {
            let m = Mat::xavier(rows, cols, &mut rng);
            let x: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.7).sin()).collect();
            let g: Vec<f32> = (0..rows).map(|i| (i as f32 * 0.3).cos()).collect();

            let mut fast = vec![0.0f32; rows];
            m.matvec_acc(&x, &mut fast);
            for (r, &got) in fast.iter().enumerate() {
                let naive: f32 = m.row(r).iter().zip(&x).map(|(w, xi)| w * xi).sum();
                assert!((got - naive).abs() < 1e-5, "matvec[{r}]: {got} vs {naive}");
            }

            let mut bias_fast = vec![0.0f32; rows];
            m.matvec_bias_acc(&x[..cols - 1], &mut bias_fast);
            for (r, &got) in bias_fast.iter().enumerate() {
                let naive: f32 = m.row(r)[..cols - 1]
                    .iter()
                    .zip(&x[..cols - 1])
                    .map(|(w, xi)| w * xi)
                    .sum::<f32>()
                    + m.get(r, cols - 1);
                assert!((got - naive).abs() < 1e-5, "matvec_bias[{r}]");
            }

            let mut t_fast = vec![0.0f32; cols];
            m.matvec_t_acc(&g, &mut t_fast);
            for (c, &got) in t_fast.iter().enumerate() {
                let naive: f32 = (0..rows).map(|r| g[r] * m.get(r, c)).sum();
                assert!(
                    (got - naive).abs() < 1e-5,
                    "matvec_t[{c}]: {got} vs {naive}"
                );
            }

            let mut narrow = vec![0.0f32; cols - 1];
            m.matvec_t_narrow(&g, &mut narrow);
            assert_eq!(&narrow[..], &t_fast[..cols - 1]);

            let mut full = Mat::zeros(rows, cols);
            full.outer_acc(&g, &x, 0.5);
            let mut bias = Mat::zeros(rows, cols);
            bias.outer_acc_bias(&g, &x[..cols - 1], 0.5);
            for r in 0..rows {
                for c in 0..cols - 1 {
                    assert!((full.get(r, c) - 0.5 * g[r] * x[c]).abs() < 1e-6);
                    assert_eq!(bias.get(r, c), full.get(r, c), "outer_bias[{r},{c}]");
                }
                assert!((bias.get(r, cols - 1) - 0.5 * g[r]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn empty_matrix_kernels_are_noops() {
        let m = Mat::zeros(0, 0);
        m.matvec_acc(&[], &mut []);
        m.matvec_t_acc(&[], &mut []);
        let mut z = Mat::zeros(0, 0);
        z.outer_acc(&[], &[], 1.0);
    }

    /// The lane-batched SoA kernel must be **bit-identical** per lane to
    /// the scalar `matvec_bias_acc` — this is the contract the streaming
    /// engine's batch-parity guarantee rests on. Lane counts cover a
    /// single lane, an exact block, a partial last block (17 = 8+8+1),
    /// and many blocks; shapes cover non-multiple-of-4 rows and feature
    /// counts with and without a chunk remainder.
    #[test]
    fn soa_matvec_bias_is_bit_identical_per_lane() {
        let mut rng = SmallRng::seed_from_u64(11);
        for (rows, cols) in [(1, 2), (3, 5), (5, 9), (8, 12), (13, 6)] {
            let m = Mat::xavier(rows, cols, &mut rng);
            let feat = cols - 1;
            for lanes in [1usize, 4, 17, 64] {
                // Feature-major SoA inputs, one distinct vector per lane.
                let mut xs = vec![0.0f32; feat * lanes];
                for l in 0..lanes {
                    for f in 0..feat {
                        xs[f * lanes + l] = ((l * 31 + f * 7) as f32 * 0.13).sin();
                    }
                }
                let mut soa = vec![0.1f32; rows * lanes];
                m.matvec_bias_acc_soa(&xs, lanes, &mut soa);
                let mut x = vec![0.0f32; feat];
                for l in 0..lanes {
                    for (f, xi) in x.iter_mut().enumerate() {
                        *xi = xs[f * lanes + l];
                    }
                    let mut scalar = vec![0.1f32; rows];
                    m.matvec_bias_acc(&x, &mut scalar);
                    for (r, &want) in scalar.iter().enumerate() {
                        let got = soa[r * lanes + l];
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "lane {l}/{lanes} row {r} ({rows}x{cols}): {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    /// The lane-batched transpose kernel, run on a transposed column
    /// window, is bit-identical per lane to `matvec_t_narrow` on that
    /// lane's gradient — including all-zero row blocks, which the scalar
    /// kernel skips — at one lane, a partial block and many blocks.
    #[test]
    fn soa_transpose_is_bit_identical_per_lane() {
        let mut rng = SmallRng::seed_from_u64(12);
        for (rows, cols, col0) in [(4, 3, 1), (8, 6, 2), (10, 5, 1), (48, 14, 1), (64, 19, 2)] {
            let m = Mat::xavier(rows, cols, &mut rng);
            let width = cols - 1 - col0;
            let mut mt = Mat::zeros(width, rows);
            for r in 0..rows {
                for j in 0..width {
                    *mt.get_mut(j, r) = m.get(r, col0 + j);
                }
            }
            for lanes in [1usize, 4, 17, 64] {
                let g: Vec<f32> = (0..rows * lanes)
                    .map(|i| {
                        let (r, l) = (i / lanes, i % lanes);
                        if (r / 4 + l) % 3 == 0 {
                            0.0
                        } else {
                            ((r * 13 + l * 5) as f32 * 0.17).sin()
                        }
                    })
                    .collect();
                let mut soa = vec![0.0f32; width * lanes];
                mt.matvec_t_soa(&g, lanes, &mut soa);
                for l in 0..lanes {
                    let gl: Vec<f32> = (0..rows).map(|r| g[r * lanes + l]).collect();
                    let mut scalar = vec![0.0f32; cols - 1];
                    m.matvec_t_narrow(&gl, &mut scalar);
                    for j in 0..width {
                        let (got, want) = (soa[j * lanes + l], scalar[col0 + j]);
                        assert_eq!(got.to_bits(), want.to_bits(), "lane {l}/{lanes} col {j}");
                    }
                }
            }
        }
    }

    /// The ordered rank-k update equals `k` successive rank-1 updates bit
    /// for bit, including rows of zeros that `outer_acc` skips, and adds
    /// on top of what the buffer already holds.
    #[test]
    fn ordered_rank_k_matches_successive_rank_one_updates() {
        let mut rng = SmallRng::seed_from_u64(13);
        for (rows, cols, k) in [
            (1usize, 1usize, 1usize),
            (3, 7, 5),
            (48, 14, 40),
            (64, 19, 33),
            (8, 45, 9),
        ] {
            let g_stride = rows + 3;
            let x_stride = cols.next_multiple_of(OUTER_COLS);
            let g: Vec<f32> = (0..k * g_stride)
                .map(|i| {
                    if i % 7 == 0 {
                        0.0
                    } else {
                        (i as f32 * 0.31).sin()
                    }
                })
                .collect();
            let x: Vec<f32> = (0..k * x_stride).map(|i| (i as f32 * 0.23).cos()).collect();
            let mut seq = Mat::xavier(rows, cols, &mut rng);
            let mut steps = seq.clone();
            seq.outer_acc_seq(&g, g_stride, &x, x_stride, k);
            for s in 0..k {
                let gs = &g[s * g_stride..s * g_stride + rows];
                steps.outer_acc(gs, &x[s * x_stride..s * x_stride + cols], 1.0);
            }
            for (i, (a, b)) in seq.as_slice().iter().zip(steps.as_slice()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{rows}x{cols} k {k} elem {i}");
            }
        }
    }

    /// The 4-row-blocked transpose kernel at row counts that are *not*
    /// multiples of four, with zero-heavy gradient vectors so both the
    /// block-skip and the scalar-remainder paths run (the aligned-shape
    /// test above leaves the remainder loop mostly cold).
    #[test]
    fn blocked_transpose_kernel_handles_unaligned_row_counts() {
        let mut rng = SmallRng::seed_from_u64(23);
        for (rows, cols) in [(2, 3), (5, 6), (6, 4), (7, 1), (9, 3), (13, 7), (15, 5)] {
            let m = Mat::xavier(rows, cols, &mut rng);
            // Zero out a deterministic subset so the g0..g3-all-zero skip
            // and the gr == 0.0 remainder skip both trigger.
            let g: Vec<f32> = (0..rows)
                .map(|r| {
                    if r % 3 == 0 {
                        0.0
                    } else {
                        (r as f32 * 0.4).cos()
                    }
                })
                .collect();
            let mut fast = vec![0.0f32; cols];
            m.matvec_t_acc(&g, &mut fast);
            for (c, &got) in fast.iter().enumerate() {
                let naive: f32 = (0..rows).map(|r| g[r] * m.get(r, c)).sum();
                assert!(
                    (got - naive).abs() < 1e-5,
                    "matvec_t[{c}] at {rows}x{cols}: {got} vs {naive}"
                );
            }
            if cols > 1 {
                let mut narrow = vec![0.0f32; cols - 1];
                m.matvec_t_narrow(&g, &mut narrow);
                assert_eq!(&narrow[..], &fast[..cols - 1], "{rows}x{cols} narrow");
            }
        }
    }
}
