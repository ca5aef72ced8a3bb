//! Lane-batched evaluation kernels for the Eq. (2)/(5) curves.
//!
//! [`SupplyKernel`] and [`DemandKernel`] are flattened, precomputed forms
//! of the MS supply curve `f(k)` ([`crate::ms`]/[`crate::cache`]) and the
//! CS demand curve `ĝ(x)` ([`crate::cs`]): plain-`f64` structs whose
//! scalar `eval` reproduces the dimensionally-typed facade **bit for
//! bit** (the `quantity` types delegate `min`/`max`/arithmetic straight
//! to `f64`, so unwrapping them once up front cannot change a single ULP
//! — pinned by the parity tests below).
//!
//! The supply kernel also exposes Eq. (5)'s two monotone factors — the
//! hit rate `h(k)` (Eq. 3, non-increasing) and the memory latency
//! `L_m(k) = max{L, k/R}` (Eq. 4, non-decreasing) — through
//! `SupplyKernel::factors` and its eight-lane form
//! `SupplyKernel::factors8`. `eval` composes exactly these values as
//! `k / (h·L$ + (1−h)·L_m)`, so the grid the fast path tabulates from
//! them is the grid `eval` would produce. The cache-less roofline is the
//! `h = 0` case. The Eq. (5) factor keeps a `powf` per lane (not
//! vectorizable without `unsafe` intrinsics — the crate stays
//! `#![forbid(unsafe_code)]`) but gains from unrolled instruction-level
//! parallelism and hoisted parameter loads.
//!
//! The kernels feed the fast path: [`crate::fastpath::CurveTable`]
//! tabulates the factors through `factors8`, and the engine's refine
//! stage evaluates the demand curve eight dense samples at a time.

use crate::model::XModel;

/// Fixed lane width of the batched kernels. Eight `f64`s span two AVX2
/// registers or one AVX-512 register; on narrower targets LLVM splits the
/// loop body without changing results.
pub const LANES: usize = 8;

/// Flattened cache parameters of Eq. (5) with the exponent precomputed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CacheKernel {
    s_cache: f64,
    l_cache: f64,
    beta: f64,
    /// `−(α − 1)` — the Eq. (3) exponent, hoisted out of the grid loop.
    /// Same expression [`crate::cache::CacheParams::hit_rate`] folds per
    /// call, so precomputing it is bit-neutral.
    neg_am1: f64,
}

/// Batched MS supply curve `f(k)`: Eq. (2) roofline, or Eq. (5) when the
/// model carries shared-cache parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupplyKernel {
    r: f64,
    l: f64,
    cache: Option<CacheKernel>,
}

impl SupplyKernel {
    /// Flatten the supply-curve parameters of `model`.
    pub fn of(model: &XModel) -> Self {
        Self {
            r: model.machine.r,
            l: model.machine.l,
            cache: model.cache.map(|c| CacheKernel {
                s_cache: c.s_cache,
                l_cache: c.l_cache,
                beta: c.beta,
                neg_am1: -(c.alpha - 1.0),
            }),
        }
    }

    /// Scalar `f(k)`, bit-identical to [`XModel::fk`].
    #[inline]
    pub fn eval(&self, k: f64) -> f64 {
        match self.cache {
            // Eq. (2): f(k) = min(k/L, R), negative k clamped to zero.
            None => (k.max(0.0) / self.l).min(self.r),
            // Eq. (5) in the exact operation order of
            // `CachedMsCurve::f` / `CacheParams::hit_rate`.
            Some(_) if k <= 0.0 => 0.0,
            Some(_) => {
                let (h, lm) = self.factors(k);
                k / self.loaded_latency(h, lm)
            }
        }
    }

    /// Eq. (5)'s factors at `k`: the hit rate `h` (`0` without a cache,
    /// `1` at `k = 0` with one) and `L_m = max{L, k/R}`.
    #[inline]
    pub(crate) fn factors(&self, k: f64) -> (f64, f64) {
        let lm = self.l.max(k.max(0.0) / self.r);
        let h = match self.cache {
            Some(c) if c.s_cache > 0.0 => {
                let share = c.s_cache / (c.beta * k);
                1.0 - (share + 1.0).powf(c.neg_am1)
            }
            _ => 0.0,
        };
        (h, lm)
    }

    /// Eight [`Self::factors`] evaluations in one loop body; lane `i`
    /// equals `factors(ks[i])` bitwise.
    #[inline]
    pub(crate) fn factors8(&self, ks: &[f64; LANES]) -> ([f64; LANES], [f64; LANES]) {
        let mut hs = [0.0; LANES];
        let mut lms = [0.0; LANES];
        for lane in 0..LANES {
            (hs[lane], lms[lane]) = self.factors(ks[lane]);
        }
        (hs, lms)
    }

    /// Loaded latency `D = h·L$ + (1−h)·L_m` (Eq. 1) in `eval`'s
    /// operation order; `D = L_m` without a cache.
    #[inline]
    pub(crate) fn loaded_latency(&self, h: f64, lm: f64) -> f64 {
        h * self.cache.map_or(0.0, |c| c.l_cache) + (1.0 - h) * lm
    }

    /// Absolute error bound on a computed hit rate `h`, with the unit
    /// roundoff `u = f64::EPSILON / 2`: `share + 1` carries at most `3u`
    /// of relative rounding, which `powf` scales by the exponent `α − 1`;
    /// `powf` itself and `1 − p` add a few `u` more (`p ≤ 1`), so
    /// `(3(α−1) + 5)·u` in all. Returned as `(8(α−1) + 32)·u` for
    /// headroom; `0` when `h` is the exact constant 0.
    pub(crate) fn hit_rate_error(&self) -> f64 {
        match self.cache {
            Some(c) if c.s_cache > 0.0 => (4.0 * -c.neg_am1 + 16.0) * f64::EPSILON,
            _ => 0.0,
        }
    }
}

/// Batched CS demand curve `ĝ(x) = min(E·x, M)/Z`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandKernel {
    m: f64,
    e: f64,
    z: f64,
}

impl DemandKernel {
    /// Flatten the demand-curve parameters of `model`.
    pub fn of(model: &XModel) -> Self {
        Self {
            m: model.machine.m,
            e: model.workload.e,
            z: model.workload.z,
        }
    }

    /// Scalar `ĝ(x)`, bit-identical to [`XModel::g_hat`].
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        (self.e * x.max(0.0)).min(self.m) / self.z
    }

    /// Eight `ĝ(x)` evaluations in one auto-vectorizable loop body.
    #[inline]
    pub fn eval8(&self, xs: &[f64; LANES]) -> [f64; LANES] {
        let mut out = [0.0; LANES];
        for lane in 0..LANES {
            out[lane] = (self.e * xs[lane].max(0.0)).min(self.m) / self.z;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheParams;
    use crate::params::{MachineParams, WorkloadParams};

    fn basic() -> XModel {
        XModel::new(
            MachineParams::new(4.0, 0.1, 500.0),
            WorkloadParams::new(20.0, 1.2, 64.0),
        )
    }

    fn cached() -> XModel {
        XModel::with_cache(
            MachineParams::new(6.0, 0.1, 600.0),
            WorkloadParams::new(40.0, 1.0, 48.0),
            CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).unwrap(),
        )
    }

    /// Probe grid covering negatives, zero, subnormal-adjacent values,
    /// the roofline knee and far saturation.
    fn probes(n: f64) -> Vec<f64> {
        let mut ks: Vec<f64> = (-8..=512).map(|i| n * i as f64 / 256.0).collect();
        ks.extend_from_slice(&[0.0, -0.0, 1e-300, 1e300, f64::NAN]);
        ks
    }

    #[test]
    fn supply_kernel_matches_model_bitwise() {
        for m in [basic(), cached()] {
            let kern = SupplyKernel::of(&m);
            for k in probes(m.workload.n) {
                assert_eq!(
                    kern.eval(k).to_bits(),
                    m.fk(k).to_bits(),
                    "f mismatch at k={k}"
                );
            }
        }
    }

    #[test]
    fn demand_kernel_matches_model_bitwise() {
        for m in [basic(), cached()] {
            let kern = DemandKernel::of(&m);
            for x in probes(m.workload.n) {
                assert_eq!(
                    kern.eval(x).to_bits(),
                    m.g_hat(x).to_bits(),
                    "ghat mismatch at x={x}"
                );
            }
        }
    }

    #[test]
    fn eval8_lanes_equal_scalar_eval() {
        for m in [basic(), cached()] {
            let sup = SupplyKernel::of(&m);
            let dem = DemandKernel::of(&m);
            let grid = probes(m.workload.n);
            for chunk in grid.chunks_exact(LANES) {
                let ks: [f64; LANES] = chunk.try_into().unwrap();
                let (hs, lms) = sup.factors8(&ks);
                let gs = dem.eval8(&ks);
                for lane in 0..LANES {
                    let (h, lm) = sup.factors(ks[lane]);
                    assert_eq!(hs[lane].to_bits(), h.to_bits());
                    assert_eq!(lms[lane].to_bits(), lm.to_bits());
                    assert_eq!(gs[lane].to_bits(), dem.eval(ks[lane]).to_bits());
                    // The tabulated factors compose to `eval` bit for bit.
                    if m.cache.is_some() && ks[lane] > 0.0 {
                        let f = ks[lane] / sup.loaded_latency(h, lm);
                        assert_eq!(f.to_bits(), sup.eval(ks[lane]).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn zero_capacity_cache_kernel_degenerates() {
        let mut m = cached();
        m.cache = Some(CacheParams::try_new(0.0, 30.0, 2.0, 1024.0).unwrap());
        let kern = SupplyKernel::of(&m);
        for k in probes(m.workload.n) {
            assert_eq!(kern.eval(k).to_bits(), m.fk(k).to_bits());
        }
    }
}
