//! Solver fast path: tabulate `f(k)` once, then solve many instances.
//!
//! The Eq. (5) supply curve dominates the solver's cost: the
//! `(S$/(β·k)+1)^(1−α)` hit-rate `powf` is re-evaluated at every one of
//! the ~2048 dense-scan samples plus every bisection step, for every
//! solve — yet `f(k)` depends only on `(R, L, S$, L$, α, β)`, never on
//! `n` or `Z`, so one tabulation amortizes across an entire sweep. A
//! [`CurveTable`] evaluates Eq. (5)'s two factors once per grid point
//! (through the eight-lane [`crate::batch`] kernel) and turns them into a
//! *proven enclosure* of `f` on every table interval:
//!
//! * the hit rate `h(k)` is non-increasing and `L_m(k) = max{L, k/R}`
//!   non-decreasing, and the loaded latency `D = h·L$ + (1−h)·L_m` is
//!   bilinear in the two, so over `[k_i, k_{i+1}]` it lies between the
//!   smallest and largest `D` at the corners of the box
//!   `[h_{i+1}, h_i] × [L_m(k_i), L_m(k_{i+1})]` — with `L ≥ L$` simply
//!   `[D(k_i), D(k_{i+1})]`, and the roofline is the `h = 0` case;
//! * every bound is widened for the rounding of the factors (the
//!   kernel's `SupplyKernel::hit_rate_error` plus a few units of
//!   roundoff), and an
//!   interval touching a non-finite factor is *unsound*: `(−∞, +∞)`;
//! * `f(k) = k/D(k)` then lies in `[k/D_hi, k/D_lo]`, evaluated from
//!   stored reciprocals at the sample's own `k`.
//!
//! The bound holds at any resolution and any table width. [`solve_fast`]
//! answers each solve with one cold engine of three stages, each
//! deciding a sign from the table only when `lo − ĝ > 0` or
//! `hi − ĝ < 0` (rounding is monotone, so the exact residual then has
//! that sign and is not zero) and evaluating `f` exactly otherwise:
//!
//! * **span descent** — recursively screen dense-sample spans with O(1)
//!   min/max range queries over a block-indexed sparse table of the
//!   interval bounds: a span whose `f(k) − ĝ(n−k)` range excludes zero
//!   cannot contain a root and is skipped wholesale;
//! * **refine** — surviving leaf spans classify eight dense samples per
//!   loop body, with the demand curve through the batched kernel;
//! * **screened bisection** — brackets are polished between the same
//!   dense-grid endpoints the reference would use, so the midpoint
//!   sequence — and therefore the root — is bit-identical to
//!   [`solver::solve_with`]'s.
//!
//! Each stage preserves one invariant: the sign class the engine assigns
//! to a dense sample (or proves for a whole span) equals the class the
//! reference computes exactly, so the emitted brackets, bisections and
//! intersection points are the ones the reference emits — pinned bitwise
//! by `tests/fastpath.rs` and the differential fuzzer in
//! `tests/fastpath_fuzz.rs`. Unsound intervals are never skipped and
//! always evaluated exactly, preserving the reference's NaN-hole
//! behaviour.
//!
//! [`SolveCache`] wraps a table with staleness tracking for use inside
//! sweeps, and [`reference_stats`] wraps the exact solver with the same
//! evaluation counters for head-to-head comparisons.

use crate::batch::{DemandKernel, SupplyKernel, LANES};
use crate::cache::CacheParams;
use crate::model::XModel;
use crate::solver::{self, Equilibria, Intersection};
use crate::units::{ReqPerCycle, Threads};
use std::cell::Cell;

/// Default number of table intervals.
pub const DEFAULT_RESOLUTION: usize = 4096;

/// Table intervals per [`SpanIndex`] block.
const INDEX_BLOCK: usize = 32;

/// Dense-sample span width at which descent stops subdividing and
/// refines sample-by-sample.
const REFINE_LEAF: usize = 32;

/// Relative widening of the corner latencies, `32u` with the unit
/// roundoff `u = f64::EPSILON / 2`: the rounding of `L_m`, of the corner
/// expression and of `eval`'s own `D` (about `8u`), and the change of `D`
/// over the `3u` of `k` by which a lookup can miss an interval's ends,
/// with headroom.
const D_WIDEN: f64 = 16.0 * f64::EPSILON;

/// The reciprocal bounds of an unsound interval: every bound they give
/// is infinite, so nothing is decided from it.
const UNSOUND: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);

/// The parameters a [`CurveTable`] is keyed on: everything that shapes
/// the supply curve `f(k)` — and nothing that does not (`n`, `Z`, `E`
/// and `M` only move the demand curve).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveKey {
    /// `R` — peak MS throughput, requests/cycle.
    pub r: f64,
    /// `L` — unloaded MS latency, cycles.
    pub l: f64,
    /// Cache parameters when the Eq. (5) form is selected.
    pub cache: Option<CacheParams>,
}

impl CurveKey {
    /// The key of a model's supply curve.
    pub fn of(model: &XModel) -> Self {
        Self {
            r: model.machine.r,
            l: model.machine.l,
            cache: model.cache,
        }
    }
}

/// One [`SpanIndex`] summary: the smallest lower and largest upper bound
/// of `f` over a run of intervals.
#[derive(Debug, Clone, Copy)]
struct SpanBlock {
    min: f64,
    max: f64,
}

impl SpanBlock {
    fn merge(a: Self, b: Self) -> Self {
        Self {
            min: a.min.min(b.min),
            max: a.max.max(b.max),
        }
    }
}

/// O(1) range queries over the interval enclosures: a sparse table
/// (doubling windows) over blocks of [`INDEX_BLOCK`] intervals. Unsound
/// intervals carry `(−∞, +∞)`, which `min`/`max` propagate, so any block
/// touching one reports infinite bounds.
#[derive(Debug, Clone)]
struct SpanIndex {
    /// `levels[l][b]` summarizes blocks `b..b + 2^l`.
    levels: Vec<Vec<SpanBlock>>,
}

impl SpanIndex {
    /// Index the interval enclosures `[k_i·r_lo, k_{i+1}·r_hi]`.
    fn build(step: f64, recips: &[(f64, f64)]) -> Self {
        let interval = |i: usize| match recips[i] {
            UNSOUND => SpanBlock {
                min: f64::NEG_INFINITY,
                max: f64::INFINITY,
            },
            (r_lo, r_hi) => SpanBlock {
                min: step * i as f64 * r_lo,
                max: step * (i + 1) as f64 * r_hi,
            },
        };
        let base: Vec<SpanBlock> = (0..recips.len())
            .step_by(INDEX_BLOCK)
            .map(|i0| {
                let i1 = (i0 + INDEX_BLOCK).min(recips.len());
                (i0 + 1..i1)
                    .map(interval)
                    .fold(interval(i0), SpanBlock::merge)
            })
            .collect();
        let blocks = base.len();
        let mut levels = vec![base];
        let mut width = 1usize;
        while width * 2 <= blocks {
            let next: Vec<SpanBlock> = match levels.last() {
                Some(prev) => (0..=blocks - width * 2)
                    .map(|b| SpanBlock::merge(prev[b], prev[b + width]))
                    .collect(),
                None => break,
            };
            levels.push(next);
            width *= 2;
        }
        Self { levels }
    }

    /// Merged summary of blocks `ba..=bb`.
    #[inline]
    fn query(&self, ba: usize, bb: usize) -> SpanBlock {
        let len = bb - ba + 1;
        let l = (usize::BITS - 1 - len.leading_zeros()) as usize;
        let lvl = &self.levels[l];
        SpanBlock::merge(lvl[ba], lvl[bb + 1 - (1 << l)])
    }
}

/// Proven per-interval enclosure of one supply curve over `[0, k_max]`,
/// with a block-indexed sparse table for O(1) span queries.
#[derive(Debug, Clone)]
pub struct CurveTable {
    key: CurveKey,
    k_max: f64,
    step: f64,
    /// Per interval, bounds `(1/D_hi, 1/D_lo)` on `1/D(k)`, so
    /// `k·r_lo ≤ f(k) ≤ k·r_hi` there; `(−∞, +∞)` on unsound intervals.
    recips: Vec<(f64, f64)>,
    span_index: SpanIndex,
    build_evals: u64,
}

impl CurveTable {
    /// Tabulate `model`'s supply curve over `[0, k_max]` at
    /// [`DEFAULT_RESOLUTION`].
    pub fn build(model: &XModel, k_max: f64) -> Self {
        Self::build_with(model, k_max, DEFAULT_RESOLUTION)
    }

    /// Tabulate with an explicit interval count (`0` counts as `1`). The
    /// enclosure is sound at any resolution; a finer one only screens
    /// more samples.
    ///
    /// # Panics
    ///
    /// When `k_max` is not finite and positive.
    pub fn build_with(model: &XModel, k_max: f64, resolution: usize) -> Self {
        assert!(k_max.is_finite() && k_max > 0.0, "k_max must be positive");
        let resolution = resolution.max(1);
        let kernel = SupplyKernel::of(model);
        let step = k_max / resolution as f64;
        let ks: Vec<f64> = (0..=resolution).map(|i| step * i as f64).collect();
        let mut hs = vec![0.0f64; ks.len()];
        let mut lms = vec![0.0f64; ks.len()];
        let mut batch_bodies = 0u64;
        for (c, lanes) in ks.chunks(LANES).enumerate() {
            let range = c * LANES..c * LANES + lanes.len();
            if let Ok(lanes) = <&[f64; LANES]>::try_from(lanes) {
                let (h8, lm8) = kernel.factors8(lanes);
                hs[range.clone()].copy_from_slice(&h8);
                lms[range].copy_from_slice(&lm8);
                batch_bodies += 1;
            } else {
                for i in range {
                    (hs[i], lms[i]) = kernel.factors(ks[i]);
                }
            }
        }

        // D rises with L_m (its weight 1 − h is ≥ 0), so the low corners
        // sit on the L_m(k_i) edge and the high ones on L_m(k_{i+1}).
        // `slack` covers the error of each computed h, which moves D by
        // at most `Δh·|L$ − L_m|`, once at the grid and once in `eval`,
        // and the drift of h over a lookup's `3u` miss (≤ `3(α−1)u`,
        // inside `Δh`).
        let dh = kernel.hit_rate_error();
        let l_cache = kernel.loaded_latency(1.0, 0.0); // L$, or 0 without a cache
        let d = |h: f64, lm: f64| kernel.loaded_latency(h, lm);
        let recips: Vec<(f64, f64)> = (0..resolution)
            .map(|i| {
                let (h0, h1, m0, m1) = (hs[i], hs[i + 1], lms[i], lms[i + 1]);
                let slack = 4.0 * dh * (m1 + l_cache);
                let d_lo = d(h0, m0).min(d(h1, m0)) * (1.0 - D_WIDEN) - slack;
                let d_hi = d(h0, m1).max(d(h1, m1)) * (1.0 + D_WIDEN) + slack;
                let finite = [h0, h1, m0, m1].iter().all(|v| v.is_finite());
                if finite && d_lo > 0.0 && d_hi.is_finite() {
                    // The reciprocal, the widening and `k·r` each round
                    // once more, and `k_i·r` must also bound `f` at
                    // `k_i·(1 − 3u)`: `16u` outward covers all four.
                    let r_lo = (1.0 / d_hi) * (1.0 - 8.0 * f64::EPSILON);
                    (r_lo, (1.0 / d_lo) * (1.0 + 8.0 * f64::EPSILON))
                } else {
                    UNSOUND
                }
            })
            .collect();
        let build_evals = ks.len() as u64;
        if xmodel_obs::enabled() {
            use xmodel_obs::metrics::counter_add;
            use xmodel_obs::names::metric;
            counter_add(metric::FASTPATH_TABLE_BUILDS, 1);
            counter_add(metric::FASTPATH_TABLE_EVALS, build_evals);
            counter_add(metric::FASTPATH_BATCH_EVALS, batch_bodies);
        }
        Self {
            key: CurveKey::of(model),
            k_max,
            step,
            span_index: SpanIndex::build(step, &recips),
            recips,
            build_evals,
        }
    }

    /// The curve parameters this table was built for.
    pub fn key(&self) -> &CurveKey {
        &self.key
    }

    /// Upper end of the tabulated domain.
    pub fn k_max(&self) -> f64 {
        self.k_max
    }

    /// Number of table intervals.
    pub fn resolution(&self) -> usize {
        self.recips.len()
    }

    /// Exact curve evaluations spent building this table.
    pub fn build_evals(&self) -> u64 {
        self.build_evals
    }

    /// The interval holding `k`, or `None` outside `[0, k_max]`. `k /
    /// step` can round across a grid point, placing `k` up to a relative
    /// `3u` outside the interval's ends; the enclosure covers that.
    #[inline]
    fn interval_of(&self, k: f64) -> Option<usize> {
        let q = k / self.step;
        let intervals = self.recips.len();
        (0.0..=intervals as f64)
            .contains(&q)
            .then(|| (q as usize).min(intervals - 1))
    }

    /// Bounds `(lo, hi)` on the computed `f(k)`; infinite on unsound
    /// intervals, `None` outside the table.
    #[inline]
    fn bounds(&self, k: f64) -> Option<(f64, f64)> {
        let (r_lo, r_hi) = self.recips[self.interval_of(k)?];
        Some((k * r_lo, k * r_hi))
    }

    /// Bounds `(lo, hi)` on the computed curve over `[a, b]`, or `None`
    /// when the covering index blocks touch an unsound interval or leave
    /// the table. The answer may cover a superset of `[a, b]` (block
    /// granularity): wider bounds are still sound.
    #[inline]
    fn span_bounds(&self, a: f64, b: f64) -> Option<(f64, f64)> {
        let ba = self.interval_of(a)? / INDEX_BLOCK;
        let bb = self.interval_of(b)? / INDEX_BLOCK;
        let blk = self.span_index.query(ba, bb);
        (blk.min.is_finite() && blk.max.is_finite()).then_some((blk.min, blk.max))
    }
}

/// Evaluation counts of one solve. The fast path's purpose is to drive
/// `f_evals` (the `powf`-bearing curve) toward zero away from roots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Exact `f(k)` evaluations.
    pub f_evals: u64,
    /// Exact `ĝ(x)` evaluations (cheap, counted for completeness).
    pub g_evals: u64,
    /// Dense samples and bisection midpoints whose sign the table
    /// enclosure decided.
    pub interp_evals: u64,
    /// Dense-sample spans skipped wholesale by range screening.
    pub blocks_skipped: u64,
    /// Leaf spans that survived screening and were refined
    /// sample-by-sample.
    pub blocks_refined: u64,
    /// Span screens disabled by an unsound (non-finite) table interval
    /// or a span reaching past `k_max`.
    pub unsound_disables: u64,
    /// Eight-lane demand-kernel loop bodies executed during refinement.
    pub batch_evals: u64,
}

impl SolveStats {
    /// Total exact curve evaluations (`f` + `ĝ`) — the quantity reported
    /// on the `solver.curve_evals` counter.
    pub fn total(&self) -> u64 {
        self.f_evals + self.g_evals
    }
}

/// Sign classes mirroring the reference's comparisons: NaN sorts with
/// the non-negative side there (`v < 0.0` is false), so it does here.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Neg,
    Zero,
    NonNeg,
}

fn classify(v: f64) -> Class {
    if v == 0.0 {
        Class::Zero
    } else if v < 0.0 {
        Class::Neg
    } else {
        Class::NonNeg
    }
}

/// The solve engine over one `(model, table, n)` instance.
///
/// Soundness invariant shared by all three stages: the class assigned to
/// a dense sample — via the table enclosure, the exact route, or a
/// whole-span screen — always equals `classify` of the exact residual at
/// that sample, so the emitted brackets (and the bisection midpoint
/// sequence inside each) are the reference's.
struct Engine<'a> {
    supply: SupplyKernel,
    demand: DemandKernel,
    table: &'a CurveTable,
    n: f64,
    z: f64,
    step: f64,
    points: Vec<Intersection>,
    prev_k: f64,
    prev_class: Class,
    f_evals: Cell<u64>,
    g_evals: Cell<u64>,
    interp_evals: Cell<u64>,
    unsound: Cell<u64>,
    blocks_skipped: u64,
    blocks_refined: u64,
    batch_evals: u64,
}

impl Engine<'_> {
    fn f_exact(&self, k: f64) -> f64 {
        self.f_evals.set(self.f_evals.get() + 1);
        self.supply.eval(k)
    }

    fn g_exact(&self, x: f64) -> f64 {
        self.g_evals.set(self.g_evals.get() + 1);
        self.demand.eval(x)
    }

    /// The class of `f(k) − gk` when the table enclosure decides it:
    /// `lo ≤ f(k) ≤ hi` and rounding is monotone, so `lo − gk > 0` (or
    /// `hi − gk < 0`) carries over to the exact residual, which is then
    /// not zero either. `None` when the enclosure straddles `gk`.
    #[inline]
    fn table_class(&self, k: f64, gk: f64) -> Option<Class> {
        let (lo, hi) = self.table.bounds(k)?;
        let class = if lo - gk > 0.0 {
            Class::NonNeg
        } else if hi - gk < 0.0 {
            Class::Neg
        } else {
            return None;
        };
        self.interp_evals.set(self.interp_evals.get() + 1);
        Some(class)
    }

    /// Append the classified intersection at `k`, evaluating the exact
    /// curves for the stability slopes like the reference does.
    fn emit_point(&mut self, k: f64) {
        let f = |kk: f64| self.f_exact(kk);
        let g = |xx: f64| self.g_exact(xx);
        let p = solver::make_point(&f, &g, self.n, self.z, k);
        self.points.push(p);
    }

    /// Screened bisection over `[lo, hi]`: the reference's exact
    /// midpoint sequence, with each midpoint's sign read from the table
    /// enclosure when it decides one and from the exact curve otherwise.
    /// Returns the bit-identical root.
    fn bisect(&self, mut lo: f64, mut hi: f64, lo_neg: bool) -> f64 {
        for _ in 0..solver::BISECT_ITERS {
            let mid = 0.5 * (lo + hi);
            let gk = self.g_exact(self.n - mid);
            let neg = match self.table_class(mid, gk) {
                Some(class) => class == Class::Neg,
                None => {
                    let v = self.f_exact(mid) - gk;
                    if v == 0.0 {
                        return mid;
                    }
                    v < 0.0
                }
            };
            if neg == lo_neg {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-12 * (1.0 + hi.abs()) {
                break;
            }
        }
        0.5 * (lo + hi)
    }

    /// Screen dense samples `i..=j`: `Some(class)` when the residual
    /// range over `[step·(i−1), step·j]` strictly excludes zero (then
    /// every sample in the span — and the left neighbour — has that
    /// class and no root or exact zero can hide inside), `None` when
    /// inconclusive.
    fn screen_span(&self, i: usize, j: usize) -> Option<Class> {
        let a = self.step * (i - 1) as f64;
        let b = self.step * j as f64;
        let Some((f_lo, f_hi)) = self.table.span_bounds(a, b) else {
            self.unsound.set(self.unsound.get() + 1);
            return None;
        };
        // ĝ(n−k) is non-increasing in k (g is non-decreasing in x), so
        // its range over the span is bracketed by the endpoints.
        let g_hi = self.g_exact(self.n - a);
        let g_lo = self.g_exact(self.n - b);
        if f_lo - g_hi > 0.0 {
            Some(Class::NonNeg)
        } else if f_hi - g_lo < 0.0 {
            Some(Class::Neg)
        } else {
            None
        }
    }

    /// Consume a screened-uniform span `i..=j`: only its left edge can
    /// bracket, exactly as the reference would between dense samples
    /// `i−1` and `i`.
    fn skip_span(&mut self, i: usize, j: usize, class: Class) {
        if self.prev_class != Class::Zero && self.prev_class != class {
            let k_first = self.step * i as f64;
            let root = self.bisect(self.prev_k, k_first, self.prev_class == Class::Neg);
            xmodel_obs::event!(
                "solver.bracket",
                lo = self.prev_k,
                hi = k_first,
                root = root
            );
            self.emit_point(root);
        }
        self.blocks_skipped += 1;
        self.prev_k = self.step * j as f64;
        self.prev_class = class;
    }

    /// Classify one refined sample and run the reference's per-sample
    /// bracket logic against the running `(prev_k, prev_class)` state.
    fn refine_sample(&mut self, k: f64, gk: f64) {
        let class = self
            .table_class(k, gk)
            .unwrap_or_else(|| classify(self.f_exact(k) - gk));
        match class {
            Class::Zero => self.emit_point(k),
            _ => {
                if self.prev_class != Class::Zero && self.prev_class != class {
                    let root = self.bisect(self.prev_k, k, self.prev_class == Class::Neg);
                    xmodel_obs::event!("solver.bracket", lo = self.prev_k, hi = k, root = root);
                    self.emit_point(root);
                }
            }
        }
        self.prev_k = k;
        self.prev_class = class;
    }

    /// Refine dense samples `i..=j` one by one, with the demand curve
    /// evaluated eight samples per loop body.
    fn refine_span(&mut self, i: usize, j: usize) {
        self.blocks_refined += 1;
        let mut idx = i;
        while idx + LANES <= j + 1 {
            let mut ks = [0.0f64; LANES];
            let mut xs = [0.0f64; LANES];
            for lane in 0..LANES {
                ks[lane] = self.step * (idx + lane) as f64;
                xs[lane] = self.n - ks[lane];
            }
            let gs = self.demand.eval8(&xs);
            self.g_evals.set(self.g_evals.get() + LANES as u64);
            self.batch_evals += 1;
            for lane in 0..LANES {
                self.refine_sample(ks[lane], gs[lane]);
            }
            idx += LANES;
        }
        while idx <= j {
            let k = self.step * idx as f64;
            let gk = self.g_exact(self.n - k);
            self.refine_sample(k, gk);
            idx += 1;
        }
    }

    /// The cold path: recursive span descent over dense samples `i..=j`.
    fn descend(&mut self, i: usize, j: usize) {
        if let Some(class) = self.screen_span(i, j) {
            self.skip_span(i, j, class);
            return;
        }
        if j - i < REFINE_LEAF {
            self.refine_span(i, j);
            return;
        }
        let mid = i + (j - i) / 2;
        self.descend(i, mid);
        self.descend(mid + 1, j);
    }
}

/// Solve `model` against a prebuilt [`CurveTable`], returning the same
/// [`Equilibria`] as [`XModel::solve_with`] at the same `samples`.
///
/// # Panics
///
/// When `table` was built for a different supply curve, does not cover
/// `[0, n]`, or `samples < 2`.
// xlint: determinism-root
pub fn solve_fast(model: &XModel, table: &CurveTable, samples: usize) -> Equilibria {
    solve_fast_stats(model, table, samples).0
}

/// [`solve_fast`] returning evaluation statistics alongside the result:
/// the exact sample 0, then span descent over samples `1..=samples`.
// xlint: determinism-root
pub fn solve_fast_stats(
    model: &XModel,
    table: &CurveTable,
    samples: usize,
) -> (Equilibria, SolveStats) {
    assert!(
        table.key == CurveKey::of(model),
        "CurveTable was built for a different supply curve"
    );
    assert!(samples >= 2, "need at least two scan samples");
    let _span = xmodel_obs::span!(xmodel_obs::names::span::SOLVER_SOLVE_FAST);
    let (n, z) = (model.workload.n, model.workload.z);
    if n <= 0.0 {
        return (
            Equilibria::from_points(Vec::new(), n),
            SolveStats::default(),
        );
    }
    assert!(
        n <= table.k_max * (1.0 + 1e-9),
        "CurveTable covers k <= {}, solve needs {}",
        table.k_max,
        n
    );
    let step = n / samples as f64;
    let mut engine = Engine {
        supply: SupplyKernel::of(model),
        demand: DemandKernel::of(model),
        table,
        n,
        z,
        step,
        points: Vec::new(),
        prev_k: 0.0,
        prev_class: Class::NonNeg,
        f_evals: Cell::new(0),
        g_evals: Cell::new(0),
        interp_evals: Cell::new(0),
        unsound: Cell::new(0),
        blocks_skipped: 0,
        blocks_refined: 0,
        batch_evals: 0,
    };
    // Dense index 0 is always evaluated exactly, like the reference.
    let v0 = engine.f_exact(0.0) - engine.g_exact(n - 0.0);
    if v0 == 0.0 {
        engine.emit_point(0.0);
    }
    engine.prev_class = classify(v0);
    engine.descend(1, samples);

    let stats = SolveStats {
        f_evals: engine.f_evals.get(),
        g_evals: engine.g_evals.get(),
        interp_evals: engine.interp_evals.get(),
        blocks_skipped: engine.blocks_skipped,
        blocks_refined: engine.blocks_refined,
        unsound_disables: engine.unsound.get(),
        batch_evals: engine.batch_evals,
    };
    let eq = solver::finish(engine.points, n, step);
    if xmodel_obs::enabled() {
        use xmodel_obs::metrics::counter_add;
        use xmodel_obs::names::metric;
        counter_add(metric::SOLVER_CURVE_EVALS, stats.total());
        counter_add(metric::FASTPATH_BLOCKS_SCREENED, stats.blocks_skipped);
        counter_add(metric::FASTPATH_BLOCKS_REFINED, stats.blocks_refined);
        counter_add(metric::FASTPATH_INTERP_EVALS, stats.interp_evals);
        counter_add(metric::FASTPATH_EXACT_EVALS, stats.f_evals);
        counter_add(metric::FASTPATH_UNSOUND_DISABLES, stats.unsound_disables);
        counter_add(metric::FASTPATH_BATCH_EVALS, stats.batch_evals);
    }
    (eq, stats)
}

/// Run the exact reference [`XModel::solve_with`] while counting curve
/// evaluations, for fast-vs-reference comparisons in tests and benches.
pub fn reference_stats(model: &XModel, samples: usize) -> (Equilibria, SolveStats) {
    let f_evals = Cell::new(0u64);
    let g_evals = Cell::new(0u64);
    let f = |k: Threads| {
        f_evals.set(f_evals.get() + 1);
        ReqPerCycle(model.fk(k.get()))
    };
    let g = |x: Threads| {
        g_evals.set(g_evals.get() + 1);
        ReqPerCycle(model.g_hat(x.get()))
    };
    let eq = solver::solve_with(
        &f,
        &g,
        model.workload.threads(),
        model.workload.intensity(),
        samples,
    );
    (
        eq,
        SolveStats {
            f_evals: f_evals.get(),
            g_evals: g_evals.get(),
            ..SolveStats::default()
        },
    )
}

/// Reusable solver state for parameter sweeps: keeps the [`CurveTable`]
/// across iterations and rebuilds it only when the supply curve changes
/// or the tabulated domain must grow.
#[derive(Debug, Clone, Default)]
pub struct SolveCache {
    table: Option<CurveTable>,
    resolution: usize,
    rebuilds: u64,
    hits: u64,
}

impl SolveCache {
    /// Empty cache at [`DEFAULT_RESOLUTION`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty cache with an explicit table resolution.
    pub fn with_resolution(resolution: usize) -> Self {
        Self {
            resolution,
            ..Self::default()
        }
    }

    /// Solve at the default dense-scan resolution.
    // xlint: determinism-root
    pub fn solve(&mut self, model: &XModel) -> Equilibria {
        self.solve_with(model, solver::DEFAULT_SAMPLES)
    }

    /// Solve at an explicit dense-scan resolution.
    // xlint: determinism-root
    pub fn solve_with(&mut self, model: &XModel, samples: usize) -> Equilibria {
        self.solve_stats(model, samples).0
    }

    /// [`SolveCache::solve_with`] plus evaluation statistics.
    // xlint: determinism-root
    pub fn solve_stats(&mut self, model: &XModel, samples: usize) -> (Equilibria, SolveStats) {
        let n = model.workload.n;
        if n <= 0.0 {
            return (
                Equilibria::from_points(Vec::new(), n),
                SolveStats::default(),
            );
        }
        let had_table = self.table.is_some();
        let stale = match &self.table {
            Some(t) => t.key != CurveKey::of(model) || t.k_max < n,
            None => true,
        };
        if xmodel_obs::enabled() {
            use xmodel_obs::metrics::counter_add;
            use xmodel_obs::names::metric;
            counter_add(
                match (stale, had_table) {
                    (false, _) => metric::FASTPATH_CACHE_HITS,
                    (true, false) => metric::FASTPATH_CACHE_MISSES,
                    (true, true) => metric::FASTPATH_CACHE_STALE,
                },
                1,
            );
        }
        if stale {
            // Grow the domain in powers of two so an ascending n-sweep
            // rebuilds the table O(log n) times, not once per step.
            let mut k_max = 64.0f64;
            while k_max < n {
                k_max *= 2.0;
            }
            if !k_max.is_finite() {
                // No finite domain covers `n` (above 2^1023): answer
                // with the dense reference instead of tabulating.
                return (model.solve_with(samples), SolveStats::default());
            }
            let resolution = if self.resolution == 0 {
                DEFAULT_RESOLUTION
            } else {
                self.resolution
            };
            self.table = Some(CurveTable::build_with(model, k_max, resolution));
            self.rebuilds += 1;
        } else {
            self.hits += 1;
        }
        match &self.table {
            Some(t) => solve_fast_stats(model, t, samples),
            // Unreachable (just built); degrade to the exact reference
            // rather than panicking.
            None => (model.solve_with(samples), SolveStats::default()),
        }
    }

    /// The cached table, when one has been built.
    pub fn table(&self) -> Option<&CurveTable> {
        self.table.as_ref()
    }

    /// Number of table (re)builds performed.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Number of solves that reused the cached table.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{MachineParams, WorkloadParams};

    fn cached_model() -> XModel {
        XModel::with_cache(
            MachineParams::new(6.0, 0.1, 600.0),
            WorkloadParams::new(40.0, 1.0, 48.0),
            CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).unwrap(),
        )
    }

    fn basic_model() -> XModel {
        XModel::new(
            MachineParams::new(4.0, 0.1, 500.0),
            WorkloadParams::new(20.0, 1.0, 48.0),
        )
    }

    /// SplitMix64 stream for the randomized enclosure checks.
    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `f(k)` lies in the table's bounds at `k`.
    fn assert_encloses(t: &CurveTable, m: &XModel, k: f64) {
        let (lo, hi) = t.bounds(k).expect("k inside the table");
        let v = m.fk(k);
        assert!(lo <= v && v <= hi, "f({k}) = {v} outside [{lo}, {hi}]");
    }

    #[test]
    fn table_matches_curve_at_grid_points() {
        let m = cached_model();
        let t = CurveTable::build_with(&m, 64.0, 256);
        assert_eq!(t.build_evals(), 256 + 1);
        for i in 0..=256 {
            assert_encloses(&t, &m, t.step * i as f64);
        }
    }

    #[test]
    fn build_evals_is_resolution_plus_one() {
        for m in [basic_model(), cached_model()] {
            for resolution in [1usize, 2, 7, 8, 255, DEFAULT_RESOLUTION] {
                let t = CurveTable::build_with(&m, 48.0, resolution);
                assert_eq!(t.resolution(), resolution);
                assert_eq!(t.build_evals(), resolution as u64 + 1);
                for i in 0..=64 {
                    assert_encloses(&t, &m, 48.0 * i as f64 / 64.0);
                }
            }
        }
    }

    #[test]
    fn enclosure_contains_curve_at_dense_points() {
        let mut rng = 0x5EED_u64;
        // L ≥ L$ (monotone D), L < L$ (interval arithmetic on the
        // factors) and the roofline, each at widths ×1 to ×1024.
        let slow_cache = CacheParams::try_new(48.0 * 1024.0, 900.0, 2.5, 512.0).unwrap();
        let mut below = cached_model();
        below.cache = Some(slow_cache);
        for m in [cached_model(), below, basic_model()] {
            for width in [1.0, 8.0, 64.0, 1024.0] {
                let t = CurveTable::build(&m, 64.0 * width);
                for _ in 0..2000 {
                    let k = 64.0 * width * splitmix(&mut rng);
                    assert_encloses(&t, &m, k);
                }
            }
        }
    }

    #[test]
    fn enclosure_covers_three_ulps_beyond_interval_ends() {
        // A lookup by `k / step` can place `k` up to a relative 3u (under
        // three ulps of `k`) outside
        // its interval: each interval's reciprocals must still bound `f`
        // there, at both ends, for every curve shape.
        let mut below = cached_model();
        below.cache = Some(CacheParams::try_new(48.0 * 1024.0, 900.0, 2.5, 512.0).unwrap());
        for m in [cached_model(), below, basic_model()] {
            let t = CurveTable::build_with(&m, 4096.0, 512);
            for (i, &(r_lo, r_hi)) in t.recips.iter().enumerate() {
                let ends = [t.step * i as f64, t.step * (i + 1) as f64];
                for ulps in -3i64..=3 {
                    for end in ends {
                        let k = f64::from_bits((end.to_bits() as i64 + ulps) as u64);
                        if k.is_nan() || k <= 0.0 {
                            continue;
                        }
                        let v = m.fk(k);
                        assert!(k * r_lo <= v && v <= k * r_hi, "f({k}) = {v}, interval {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn poisoned_interval_is_never_screened() {
        let m = cached_model();
        let mut t = CurveTable::build_with(&m, 48.0, 64);
        let (clean, clean_stats) = solve_fast_stats(&m, &t, 512);
        assert_eq!(clean_stats.unsound_disables, 0);
        // Interval 20 covers k ∈ [15, 15.75]: dense samples 161..=167
        // inside it (the end samples also belong to the neighbours).
        t.recips[20] = UNSOUND;
        t.span_index = SpanIndex::build(t.step, &t.recips);
        for sample in 161..=167 {
            let k = 48.0 * sample as f64 / 512.0;
            let (lo, hi) = t.bounds(k).expect("inside the table");
            assert!(lo == f64::NEG_INFINITY && hi == f64::INFINITY);
        }
        assert!(t.span_bounds(0.0, 48.0).is_none(), "span over the hole");
        assert!(t.span_bounds(15.2, 15.3).is_none(), "span inside the hole");
        assert!(t.span_bounds(30.0, 40.0).is_some(), "healthy index block");
        let (fast, stats) = solve_fast_stats(&m, &t, 512);
        assert!(stats.unsound_disables > 0, "{stats:?}");
        assert!(
            stats.f_evals > clean_stats.f_evals,
            "hole samples went exact"
        );
        assert_eq!(fast, clean);
        assert_eq!(fast, m.solve_with(512));
    }

    #[test]
    fn span_bounds_contain_true_curve() {
        let m = cached_model();
        let t = CurveTable::build(&m, 64.0);
        for (a, b) in [(0.5, 3.0), (10.0, 11.0), (0.0, 64.0), (40.0, 63.5)] {
            let (lo, hi) = t.span_bounds(a, b).expect("sound table");
            for i in 0..=200 {
                let k = a + (b - a) * i as f64 / 200.0;
                let v = m.fk(k);
                assert!(v >= lo && v <= hi, "f({k}) = {v} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn fast_matches_reference_bitwise_on_fixtures() {
        for m in [basic_model(), cached_model()] {
            let t = CurveTable::build(&m, 64.0);
            let exact = m.solve();
            let fast = solve_fast(&m, &t, solver::DEFAULT_SAMPLES);
            assert_eq!(exact, fast, "fast path must reproduce the reference");
        }
    }

    #[test]
    fn fast_spends_fewer_curve_evals() {
        let m = cached_model();
        let t = CurveTable::build(&m, 64.0);
        let (_, fast) = solve_fast_stats(&m, &t, solver::DEFAULT_SAMPLES);
        let (_, reference) = reference_stats(&m, solver::DEFAULT_SAMPLES);
        assert!(
            fast.total() < reference.total(),
            "fast {} vs reference {}",
            fast.total(),
            reference.total()
        );
        assert!(fast.blocks_skipped > 0, "screening never engaged");
    }

    #[test]
    fn solve_cache_rebuilds_only_on_curve_change() {
        let mut cache = SolveCache::new();
        let m = cached_model();
        let a = cache.solve(&m);
        assert_eq!(cache.rebuilds(), 1);
        // n moves the demand curve only: table is reused.
        let mut m2 = m;
        m2.workload.n = 32.0;
        let _ = cache.solve(&m2);
        assert_eq!(cache.rebuilds(), 1);
        assert_eq!(cache.hits(), 1);
        // R reshapes the supply curve: rebuild.
        let mut m3 = m;
        m3.machine.r = 0.05;
        let _ = cache.solve(&m3);
        assert_eq!(cache.rebuilds(), 2);
        assert_eq!(a, m.solve());
    }

    #[test]
    fn solve_cache_grows_domain_for_large_n() {
        let mut cache = SolveCache::new();
        let mut m = basic_model();
        m.workload.n = 1000.0;
        let eq = cache.solve(&m);
        assert_eq!(eq, m.solve());
        assert!(cache.table().map(|t| t.k_max()).unwrap_or(0.0) >= 1000.0);
    }

    #[test]
    fn zero_threads_is_empty() {
        let mut cache = SolveCache::new();
        let mut m = basic_model();
        m.workload.n = 0.0;
        assert!(cache.solve(&m).points().is_empty());
    }
}
