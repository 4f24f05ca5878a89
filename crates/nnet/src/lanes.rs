//! The lane engine: LSTM forward and backpropagation through time over a
//! minibatch of sequences run together as feature-major (SoA) lanes.
//!
//! Lane `l` is one sequence of the minibatch. Lanes are ordered by
//! descending length (stable), so the lanes still running at step `t`
//! are a prefix of that order, and each step's activations are one
//! packed block of `active(t)` lanes: entry `f` of lane `l` sits at
//! `block[f * active(t) + l]`. A one-lane trace is therefore the plain
//! per-timestep vector layout, which is how [`crate::Lstm::forward`] and
//! the `backward*` entry points run through the same code.
//!
//! # Bit identity with per-example BPTT
//!
//! Every weight, gradient and loss equals, bit for bit, what
//! backpropagating one example at a time produces:
//!
//! * **Forward.** [`Mat::matvec_bias_acc_soa`] reproduces the scalar
//!   kernel's per-lane summation order at any lane count, and
//!   [`lstm_cell_soa`] is the scalar cell update applied lane by lane.
//!   Lanes never mix.
//! * **Recurrence.** The backward recurrence is elementwise per lane, and
//!   [`Mat::matvec_t_soa`] (run on the gate matrix's hidden-state
//!   columns, transposed once per minibatch) keeps `matvec_t_narrow`'s
//!   per-lane order. The trace caches `tanh(c_t)`; a recomputation would
//!   return the same bits.
//! * **Weight gradient.** Within a minibatch the weights do not change,
//!   so examples are independent except through the gradient sums. After
//!   the recurrence the gate gradients and layer inputs are laid out in
//!   the per-example order — example by example, `t` descending within
//!   each — and [`Mat::outer_acc_seq`] adds them to every weight in that
//!   order.
//! * **Skipped zeros.** The scalar kernels skip all-zero gradient rows;
//!   the lane kernels add them. Adding `±0.0` is the identity on every
//!   value but `-0.0`, and accumulators that start at `+0.0` and are only
//!   added to never hold `-0.0` (in round-to-nearest, `x + y == -0.0`
//!   needs both operands `-0.0`). The parity tests in
//!   `tests/lane_parity.rs` pin all of this against the per-example
//!   trainer kept on the test side.

use crate::mat::{Mat, OUTER_COLS};
use crate::math::{exp_lanes, tanh_lanes, LANES};

/// One LSTM cell update for `lanes` lanes in SoA layout — the single
/// cell step shared by training ([`crate::Lstm`]) and streaming
/// inference (`crates/serve`).
///
/// `gates` holds the stacked `[i, f, g, o]` pre-activations row-major
/// over lanes (`gates[row * lanes + l]`, `4·hidden × lanes`) and is
/// overwritten with the gate activations. `c` (`hidden × lanes`,
/// feature-major) holds the previous cell state on entry and the new one
/// on exit; `h` receives the new hidden state and `tanh_c` the
/// `tanh(c_t)` that produced it. Per element the arithmetic is the scalar
/// cell's: `σ(x) = 1 / (1 + exp(-x))` on `i, f, o`, `tanh` on `g`,
/// `c = f·c_prev + i·g`, `h = o·tanh(c)`, with `exp` and `tanh` from
/// [`crate::math`]. The update is elementwise, so it runs over the
/// `hidden × lanes` elements in blocks of [`LANES`], the last one
/// zero-padded; no element's result depends on its block.
///
/// # Panics
///
/// Panics on buffer lengths that do not match `hidden × lanes`.
pub fn lstm_cell_soa(
    hidden: usize,
    lanes: usize,
    gates: &mut [f32],
    c: &mut [f32],
    h: &mut [f32],
    tanh_c: &mut [f32],
) {
    let n = hidden * lanes;
    assert_eq!(gates.len(), 4 * n, "lstm_cell gates length");
    assert_eq!(c.len(), n, "lstm_cell c length");
    assert_eq!(h.len(), n, "lstm_cell h length");
    assert_eq!(tanh_c.len(), n, "lstm_cell tanh_c length");
    let (i_rows, rest) = gates.split_at_mut(n);
    let (f_rows, rest) = rest.split_at_mut(n);
    let (g_rows, o_rows) = rest.split_at_mut(n);
    let mut rows = [i_rows, f_rows, g_rows, o_rows, c, h, tanh_c];
    let full = n - n % LANES;
    for start in (0..full).step_by(LANES) {
        cell_block(rows.each_mut().map(|row| {
            <&mut [f32; LANES]>::try_from(&mut row[start..start + LANES]).expect("full block")
        }));
    }
    if full < n {
        let mut pad = [[0.0f32; LANES]; 7];
        for (p, row) in pad.iter_mut().zip(&rows) {
            p[..n - full].copy_from_slice(&row[full..]);
        }
        cell_block(pad.each_mut());
        for (p, row) in pad.iter().zip(&mut rows) {
            row[full..].copy_from_slice(&p[..n - full]);
        }
    }
}

/// [`lstm_cell_soa`] on one block of [`LANES`] elements, in place:
/// the `i, f, g, o` rows, then `c`, `h` and `tanh_c`.
#[inline]
fn cell_block([i, f, g, o, c, h, tanh_c]: [&mut [f32; LANES]; 7]) {
    let mut e = [0.0f32; LANES];
    for gate in [&mut *i, &mut *f, &mut *o] {
        exp_lanes(&gate.map(|x| -x), &mut e);
        for (v, e) in gate.iter_mut().zip(e) {
            *v = 1.0 / (1.0 + e);
        }
    }
    let pre = *g;
    tanh_lanes(&pre, g);
    for l in 0..LANES {
        c[l] = f[l] * c[l] + i[l] * g[l];
    }
    tanh_lanes(c, tanh_c);
    for l in 0..LANES {
        h[l] = o[l] * tanh_c[l];
    }
}

/// Activations of one LSTM layer over a minibatch of lanes (see the
/// module docs for the layout). Buffers are reused from one minibatch to
/// the next.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneTrace {
    input: usize,
    hidden: usize,
    /// Lane → example index.
    order: Vec<usize>,
    /// Example index → lane.
    lane_of: Vec<usize>,
    /// Sequence length of each lane.
    lens: Vec<usize>,
    /// Lanes still running at each step (a prefix of the lane order).
    active: Vec<usize>,
    /// Lane-step offset of each step's block.
    base: Vec<usize>,
    /// `[x_t, h_{t-1}]` per step, `(input + hidden) × active`.
    cat: Vec<f32>,
    /// `[i, f, g, o]` gate activations per step, `4·hidden × active`.
    gates: Vec<f32>,
    /// `c_{t-1}`, `c_t`, `h_t` and `tanh(c_t)` per step, `hidden × active`.
    c_prev: Vec<f32>,
    c: Vec<f32>,
    h: Vec<f32>,
    tanh_c: Vec<f32>,
}

impl LaneTrace {
    /// Runs `w` (an LSTM's stacked gate matrix) over `lanes` sequences,
    /// `seq(e)` being example `e`'s. With `reverse`, each lane reads its
    /// own sequence back to front.
    ///
    /// # Panics
    ///
    /// Panics if an input vector does not have `input` entries.
    pub(crate) fn forward<'a>(
        &mut self,
        w: &Mat,
        input: usize,
        hidden: usize,
        lanes: usize,
        seq: impl Fn(usize) -> &'a [Vec<f32>],
        reverse: bool,
    ) {
        let (n, h) = (input, hidden);
        self.input = n;
        self.hidden = h;
        self.order.clear();
        self.order.extend(0..lanes);
        self.order.sort_by_key(|&e| std::cmp::Reverse(seq(e).len()));
        self.lane_of.resize(lanes, 0);
        for (l, &e) in self.order.iter().enumerate() {
            self.lane_of[e] = l;
        }
        self.lens.clear();
        self.lens.extend(self.order.iter().map(|&e| seq(e).len()));
        let steps = self.lens.first().copied().unwrap_or(0);
        self.active.clear();
        self.base.clear();
        let mut total = 0;
        for t in 0..steps {
            let m = self.lens.partition_point(|&len| len > t);
            self.active.push(m);
            self.base.push(total);
            total += m;
        }
        self.cat.resize(total * (n + h), 0.0);
        self.gates.resize(total * 4 * h, 0.0);
        for buf in [&mut self.c_prev, &mut self.c, &mut self.h, &mut self.tanh_c] {
            buf.resize(total * h, 0.0);
        }
        for t in 0..steps {
            let (m, b) = (self.active[t], self.base[t]);
            let cat = &mut self.cat[b * (n + h)..(b + m) * (n + h)];
            for (l, &e) in self.order[..m].iter().enumerate() {
                let xs = seq(e);
                let x = &xs[if reverse { xs.len() - 1 - t } else { t }];
                assert_eq!(x.len(), n, "lstm input dimension");
                for (f, &v) in x.iter().enumerate() {
                    cat[f * m + l] = v;
                }
            }
            let c_prev = &mut self.c_prev[b * h..(b + m) * h];
            if t == 0 {
                cat[n * m..].fill(0.0);
                c_prev.fill(0.0);
            } else {
                // Carry h_{t-1} and c_{t-1} from the previous block, whose
                // stride is the previous step's lane count.
                let (pm, pb) = (self.active[t - 1], self.base[t - 1]);
                for j in 0..h {
                    let src = pb * h + j * pm;
                    cat[(n + j) * m..(n + j + 1) * m].copy_from_slice(&self.h[src..src + m]);
                    c_prev[j * m..(j + 1) * m].copy_from_slice(&self.c[src..src + m]);
                }
            }
            let c = &mut self.c[b * h..(b + m) * h];
            c.copy_from_slice(c_prev);
            let gates = &mut self.gates[b * 4 * h..(b + m) * 4 * h];
            gates.fill(0.0);
            w.matvec_bias_acc_soa(cat, m, gates);
            lstm_cell_soa(
                h,
                m,
                gates,
                c,
                &mut self.h[b * h..(b + m) * h],
                &mut self.tanh_c[b * h..(b + m) * h],
            );
        }
    }

    /// Number of lanes.
    pub(crate) fn lanes(&self) -> usize {
        self.order.len()
    }

    /// Sequence length of example `e`.
    pub(crate) fn len_of(&self, e: usize) -> usize {
        self.lens[self.lane_of[e]]
    }

    /// Longest sequence length (the step count).
    pub(crate) fn steps(&self) -> usize {
        self.active.len()
    }

    /// Total lane-steps (the length of a per-step gradient buffer, in
    /// units of `hidden`).
    pub(crate) fn lane_steps(&self) -> usize {
        self.base
            .last()
            .map_or(0, |b| b + self.active[self.active.len() - 1])
    }

    /// Where example `e`'s step-`t` hidden-width vector lives in a
    /// per-step buffer: entry `j` is at `start + j * stride`.
    fn slot(&self, e: usize, t: usize) -> (usize, usize) {
        let l = self.lane_of[e];
        assert!(t < self.lens[l], "step past the sequence end");
        (self.base[t] * self.hidden + l, self.active[t])
    }

    /// Example `e`'s hidden state after step `t`, gathered into `out`.
    pub(crate) fn hidden_into(&self, e: usize, t: usize, out: &mut [f32]) {
        let (start, stride) = self.slot(e, t);
        for (j, o) in out.iter_mut().enumerate() {
            *o = self.h[start + j * stride];
        }
    }

    /// Scatters `v`, example `e`'s step-`t` hidden-width vector, into
    /// `buf`, a per-step buffer of [`LaneTrace::lane_steps`] × `hidden`
    /// entries laid out like the trace (the shape [`backward`] takes).
    pub(crate) fn scatter(&self, e: usize, t: usize, v: &[f32], buf: &mut [f32]) {
        let (start, stride) = self.slot(e, t);
        for (j, &x) in v.iter().enumerate() {
            buf[start + j * stride] = x;
        }
    }

    /// The hidden state after step `t` of a one-lane trace.
    pub(crate) fn hidden_one(&self, t: usize) -> &[f32] {
        assert_eq!(self.lanes(), 1, "not a one-lane trace");
        assert!(t < self.steps(), "trace step out of range");
        &self.h[t * self.hidden..(t + 1) * self.hidden]
    }
}

/// Backward-pass scratch, reused from one minibatch to the next.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneGrads {
    dh_next: Vec<f32>,
    dc_next: Vec<f32>,
    dpre: Vec<f32>,
    /// Gate gradients in per-example order, one row per lane-step.
    dpre_seq: Vec<f32>,
    /// Layer inputs `[x_t, h_{t-1}, 1]` in the same order.
    cat_seq: Vec<f32>,
    /// Sequence row of each lane's first step (its last in that order).
    seq_end: Vec<usize>,
}

/// Widens a feature-major `rows × old` block in place to `rows × new`
/// lanes (`new ≥ old`), zero-filling the added lanes.
fn widen(buf: &mut [f32], rows: usize, old: usize, new: usize) {
    for j in (0..rows).rev() {
        for l in (0..new).rev() {
            buf[j * new + l] = if l < old { buf[j * old + l] } else { 0.0 };
        }
    }
}

/// Backpropagates `trace` through `w`, adding the weight gradient into
/// `grad`. `dh` holds the loss gradient with respect to every step's
/// hidden output in the trace's per-step layout (see
/// [`LaneTrace::scatter`]), zero where a step has none.
///
/// # Panics
///
/// Panics when `dh` does not cover the trace.
pub(crate) fn backward(
    trace: &LaneTrace,
    w: &Mat,
    grad: &mut Mat,
    dh: &[f32],
    scratch: &mut LaneGrads,
) {
    let (n, h) = (trace.input, trace.hidden);
    assert_eq!(w.cols(), n + h + 1, "trace from a different layer shape");
    let total = trace.lane_steps();
    assert_eq!(dh.len(), total * h, "dh length");
    let lanes = trace.lanes();
    let rows = 4 * h;
    let x_stride = (n + h + 1).next_multiple_of(OUTER_COLS);
    // `dh_{t-1}` flows back through the gate matrix's hidden-state
    // columns; transposed once here, the lane kernel reads them as rows.
    let mut w_h = Mat::zeros(h, rows);
    for (r, w_row) in w.as_slice().chunks_exact(n + h + 1).enumerate() {
        for (j, &v) in w_row[n..n + h].iter().enumerate() {
            *w_h.get_mut(j, r) = v;
        }
    }
    let s = scratch;
    s.dh_next.resize(h * lanes, 0.0);
    s.dc_next.resize(h * lanes, 0.0);
    s.dpre.resize(rows * lanes, 0.0);
    s.dpre_seq.resize(total * rows, 0.0);
    s.cat_seq.resize(total * x_stride, 0.0);
    // Lane `l`'s step `t` lands at sequence row `seq_end[l] - t`: examples
    // in order, steps descending within each.
    s.seq_end.resize(lanes, 0);
    let mut start = 0;
    for e in 0..lanes {
        let len = trace.len_of(e);
        s.seq_end[trace.lane_of[e]] = (start + len).wrapping_sub(1);
        start += len;
    }
    let mut cur = 0;
    for t in (0..trace.steps()).rev() {
        let (m, b) = (trace.active[t], trace.base[t]);
        if m > cur {
            widen(&mut s.dh_next, h, cur, m);
            widen(&mut s.dc_next, h, cur, m);
            cur = m;
        }
        let hm = h * m;
        let gates = &trace.gates[b * 4 * h..(b + m) * 4 * h];
        let (gi, rest) = gates.split_at(hm);
        let (gf, rest) = rest.split_at(hm);
        let (gg, go) = rest.split_at(hm);
        let tanh_c = &trace.tanh_c[b * h..(b + m) * h];
        let c_prev = &trace.c_prev[b * h..(b + m) * h];
        let dh_src = &dh[b * h..(b + m) * h];
        let dpre = &mut s.dpre[..4 * hm];
        let (di, rest) = dpre.split_at_mut(hm);
        let (df, rest) = rest.split_at_mut(hm);
        let (dg, d_o) = rest.split_at_mut(hm);
        let dh_next = &mut s.dh_next[..hm];
        let dc_next = &mut s.dc_next[..hm];
        for k in 0..hm {
            let dh_total = dh_src[k] + dh_next[k];
            let (i_g, f_g, g_g, o_g) = (gi[k], gf[k], gg[k], go[k]);
            let tc = tanh_c[k];
            let dc = dh_total * o_g * (1.0 - tc * tc) + dc_next[k];
            di[k] = dc * g_g * i_g * (1.0 - i_g);
            df[k] = dc * c_prev[k] * f_g * (1.0 - f_g);
            dg[k] = dc * i_g * (1.0 - g_g * g_g);
            d_o[k] = dh_total * tc * o_g * (1.0 - o_g);
            dc_next[k] = dc * f_g;
        }
        dh_next.fill(0.0);
        w_h.matvec_t_soa(&s.dpre[..4 * hm], m, dh_next);
        // Lay this step's gate gradients and inputs out in sequence order.
        let cat = &trace.cat[b * (n + h)..(b + m) * (n + h)];
        for (l, &end) in s.seq_end[..m].iter().enumerate() {
            let row = end - t;
            let g_row = &mut s.dpre_seq[row * rows..(row + 1) * rows];
            for (r, gr) in g_row.iter_mut().enumerate() {
                *gr = s.dpre[r * m + l];
            }
            let x_row = &mut s.cat_seq[row * x_stride..row * x_stride + n + h + 1];
            for (f, xr) in x_row[..n + h].iter_mut().enumerate() {
                *xr = cat[f * m + l];
            }
            x_row[n + h] = 1.0;
        }
    }
    grad.outer_acc_seq(&s.dpre_seq, rows, &s.cat_seq, x_stride, total);
}
