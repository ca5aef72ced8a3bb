//! Fast-path solver parity against the exact reference.
//!
//! The `solve_fast` contract is stronger than the issue's 1e-9 budget:
//! confirmed brackets are polished with the *exact* curves between the
//! same dense-grid endpoints the reference uses, so the result must be
//! bit-identical. These tests pin that on every Table II preset (both
//! precisions, with and without a cache), on property-sampled workloads,
//! on three-intersection Fig. 9-B Eq. (5) models — at a coarse
//! `samples = 256` and from tables up to ×1024 wider than the solve —
//! and on an Eq. (5) model whose curve has a NaN hole, where the
//! table's unsound intervals must disable screening rather than skip
//! the hole. The same fixtures are also walked as `n`-sweeps over one
//! shared table — the way `xmodel sweep` uses it — including across the
//! Fig. 9-B 1 ↔ 3 root-count boundary, with every cell compared to the
//! reference.

use proptest::prelude::*;
use xmodel_core::cache::CacheParams;
use xmodel_core::fastpath::{self, CurveTable};
use xmodel_core::params::{MachineParams, WorkloadParams};
use xmodel_core::presets::{self, GpuSpec, Precision};
use xmodel_core::solver;
use xmodel_core::stability::Stability;
use xmodel_core::units::{OpsPerRequest, ReqPerCycle, Threads};
use xmodel_core::{sweep, Degradation, DegradeForce, XModel};

/// The preset models the parity sweep runs over: every Table II GPU at
/// both precisions, a saturating and a sloped workload, cache-less and
/// with the GPU's default L1.
fn table2_models() -> Vec<(String, XModel)> {
    let mut out = Vec::new();
    for spec in presets::table2() {
        for precision in [Precision::Single, Precision::Double] {
            let mp = spec.machine_params(precision);
            let workloads = [
                WorkloadParams::new(spec.max_warps as f64, 1.2, 24.0),
                WorkloadParams::new(16.0, 1.0, 60.0),
            ];
            for (wi, wl) in workloads.into_iter().enumerate() {
                let tag = format!("{} {:?} wl{}", spec.name, precision, wi);
                out.push((format!("{tag} plain"), XModel::new(mp, wl)));
                let cache =
                    CacheParams::try_new(spec.default_l1_bytes(), 30.0, 5.0, 2048.0).unwrap();
                out.push((format!("{tag} cached"), XModel::with_cache(mp, wl, cache)));
            }
        }
    }
    out
}

#[test]
fn solve_fast_parity_on_table2_presets() {
    for (tag, m) in table2_models() {
        let table = CurveTable::build(&m, m.workload.n.max(64.0));
        let (fast, _) = fastpath::solve_fast_stats(&m, &table, solver::DEFAULT_SAMPLES);
        let (exact, _) = fastpath::reference_stats(&m, solver::DEFAULT_SAMPLES);
        assert_eq!(fast, exact, "bitwise parity lost on {tag}");
        assert!(
            !exact.points().is_empty(),
            "{tag}: preset model lost its equilibrium"
        );
        for (a, b) in fast.points().iter().zip(exact.points()) {
            // The explicit issue budget; the equality above is stronger.
            assert!((a.k - b.k).abs() <= 1e-9, "{tag}: k drifted");
        }
    }
}

#[test]
fn solve_fast_spends_strictly_fewer_evals_on_table2() {
    for (tag, m) in table2_models() {
        let table = CurveTable::build(&m, m.workload.n.max(64.0));
        let (_, fast) = fastpath::solve_fast_stats(&m, &table, solver::DEFAULT_SAMPLES);
        let (_, reference) = fastpath::reference_stats(&m, solver::DEFAULT_SAMPLES);
        assert!(
            fast.total() < reference.total(),
            "{tag}: fast {} vs reference {} exact evaluations",
            fast.total(),
            reference.total()
        );
        assert!(
            fast.f_evals < reference.f_evals,
            "{tag}: the powf-bearing f(k) must dominate the savings"
        );
    }
}

/// One of the Table II machines, either precision (same strategy as
/// `tests/typed_parity.rs`).
fn preset_machine() -> impl Strategy<Value = MachineParams> {
    (0usize..6).prop_map(|i| {
        let specs = GpuSpec::all();
        let spec = specs
            .get(i % 3)
            .cloned()
            .unwrap_or_else(GpuSpec::fermi_gtx570);
        let precision = if i >= 3 {
            Precision::Double
        } else {
            Precision::Single
        };
        spec.machine_params(precision)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cache-less parity across sampled workloads: the table screening
    /// must never perturb a root, whatever the demand curve does.
    #[test]
    fn fast_parity_property(
        mp in preset_machine(),
        e in 0.1f64..8.0,
        z in 1.0f64..200.0,
        n in 1.0f64..256.0,
    ) {
        let m = XModel::new(mp, WorkloadParams::new(n, e, z));
        let table = CurveTable::build_with(&m, 256.0, 1024);
        let fast = fastpath::solve_fast(&m, &table, 512);
        prop_assert_eq!(fast, m.solve_with(512));
    }

    /// Eq. (5) parity across sampled cache localities, where the curve
    /// actually bends (peak/valley/plateau).
    #[test]
    fn fast_parity_property_cached(
        idx in 0usize..3,
        alpha in 1.05f64..8.0,
        n in 1.0f64..128.0,
    ) {
        let specs = GpuSpec::all();
        let spec = specs.get(idx).cloned().unwrap_or_else(GpuSpec::fermi_gtx570);
        let mp = spec.machine_params(Precision::Single);
        let cache = CacheParams::try_new(spec.default_l1_bytes(), 30.0, alpha, 128.0).unwrap();
        let m = XModel::with_cache(mp, WorkloadParams::new(n, 1.0, 40.0), cache);
        let table = CurveTable::build_with(&m, 128.0, 2048);
        let fast = fastpath::solve_fast(&m, &table, 1024);
        prop_assert_eq!(fast, m.solve_with(1024));
    }
}

/// The Fig. 9 case-study machine (`tests/figure_regeneration.rs`): an
/// Eq. (5) cache peak that the demand curve crosses three times.
fn fig9b(n: f64) -> XModel {
    XModel::with_cache(
        MachineParams::new(6.0, 0.02, 600.0),
        WorkloadParams::new(66.0, 0.25, n),
        CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).unwrap(),
    )
}

/// A bistable Eq. (5) model whose σ′ cache peak (k ≈ 2.3 at
/// n = 2213.78) is far narrower than one interval of a table built over
/// `n × 1024` — the width `xmodel sweep --points 1024` builds for its
/// first row.
fn narrow_peak(n: f64) -> XModel {
    XModel::with_cache(
        MachineParams::new(0.69323, 0.0021897, 115.106),
        WorkloadParams::new(1.19860, 3.31964, n),
        CacheParams::try_new(1372.2890625 * 1024.0, 3.92558, 6.09530, 99625.7).unwrap(),
    )
}

#[test]
fn three_intersections_survive_coarse_samples() {
    // Coarse dense scan: the three roots must not collapse in dedup.
    let m = fig9b(60.0);
    let exact = m.solve_with(256);
    assert_eq!(
        exact.points().len(),
        3,
        "roots collapsed: {:?}",
        exact.points()
    );
    assert_eq!(exact.points()[1].stability, Stability::Unstable);
    assert!(exact.is_bistable());

    // And the fast path must reproduce them from tables of any width.
    for width in [1.0, 64.0, 1024.0] {
        let table = CurveTable::build(&m, 60.0 * width);
        let fast = fastpath::solve_fast(&m, &table, 256);
        assert_eq!(
            fast, exact,
            "fast path collapsed or moved a root (×{width})"
        );
    }
    let m = narrow_peak(2213.78);
    let exact = m.solve_with(1024);
    assert!(exact.is_bistable(), "{:?}", exact.points());
    for width in [1.0, 64.0, 1024.0] {
        let table = CurveTable::build(&m, 2213.78 * width);
        let fast = fastpath::solve_fast(&m, &table, 1024);
        assert_eq!(fast, exact, "narrow peak lost from a ×{width} table");
    }
}

/// An Eq. (5) model with a NaN hole: `R` is so small that `k/R`
/// overflows for `k > 0.018`, and while the hit rate still rounds to 1
/// the loaded latency is `1·L$ + 0·∞ = NaN`. Past `k ≈ 154` the hit
/// rate drops below 1 and `f` is 0.
fn holed(n: f64) -> XModel {
    XModel::with_cache(
        MachineParams::new(6.0, 1e-310, 100.0),
        WorkloadParams::new(40.0, 1.0, n),
        CacheParams::try_new(16384.0, 30.0, 9.0, 1.0).unwrap(),
    )
}

#[test]
fn nan_hole_curve_keeps_reference_parity() {
    let m = holed(200.0);
    assert!(m.fk(15.0).is_nan(), "hole must be NaN");
    assert!(m.fk(0.01).is_finite() && m.fk(180.0).is_finite());
    let table = CurveTable::build_with(&m, 256.0, 1024);
    let (fast, stats) = fastpath::solve_fast_stats(&m, &table, 256);
    // The hole's intervals are unsound: they disable the span screens
    // and send every sample inside to the exact curve.
    assert!(stats.unsound_disables > 0, "{stats:?}");
    let exact = m.solve_with(256);
    // The throughputs at the hole's edge are NaN (as in the reference),
    // so `==` would reject matching points: compare bit patterns.
    assert_bits_eq(&fast, &exact, "holed");
    assert!(fast.points().iter().all(|p| p.k.is_finite()));

    // The degradation ladder's grid-scan rung still has a foothold on
    // the holed curve: closest approach lands in the healthy region.
    let typed_f = |k: Threads| ReqPerCycle(m.fk(k.get()));
    let typed_g = |x: Threads| ReqPerCycle(m.g_hat(x.get()));
    let dense = solver::DEFAULT_SAMPLES;
    let (point, gap) = solver::closest_approach(
        &typed_f,
        &typed_g,
        Threads(200.0),
        OpsPerRequest(40.0),
        dense,
    )
    .expect("closest approach must survive the hole");
    assert!(point.k.is_finite() && gap.is_finite());
}

#[test]
fn degrade_ladder_reaches_grid_scan_under_fault() {
    // Fault injection `solver=no-bracket` forces the exact rung off; the
    // ladder must land on the grid-scan rung (not fall through to the
    // baseline) for every healthy Table II preset, even at the coarse
    // samples = 256 the dedup test uses.
    for spec in presets::table2() {
        let m = XModel::with_cache(
            spec.machine_params(Precision::Single),
            WorkloadParams::new(spec.max_warps as f64, 1.2, 24.0),
            CacheParams::try_new(spec.default_l1_bytes(), 30.0, 5.0, 2048.0).unwrap(),
        );
        let r = m
            .resolve_operating_point_with(256, DegradeForce::SkipExact)
            .unwrap();
        assert_eq!(r.degradation, Degradation::GridScan, "{}", spec.name);
        assert!(r.point.k.is_finite());
    }
}

/// Bit-exact equality, NaN-tolerant: `Equilibria: PartialEq` would
/// reject matching points whose throughputs are NaN (the NaN-hole
/// fixture), so compare every field's bit pattern instead.
fn assert_bits_eq(a: &solver::Equilibria, b: &solver::Equilibria, tag: &str) {
    assert_eq!(a.n().to_bits(), b.n().to_bits(), "{tag}: n diverged");
    assert_eq!(
        a.dedup_tolerance().to_bits(),
        b.dedup_tolerance().to_bits(),
        "{tag}: dedup tolerance diverged"
    );
    assert_eq!(
        a.points().len(),
        b.points().len(),
        "{tag}: root count diverged"
    );
    for (pa, pb) in a.points().iter().zip(b.points()) {
        assert_eq!(pa.k.to_bits(), pb.k.to_bits(), "{tag}: k diverged");
        assert_eq!(pa.x.to_bits(), pb.x.to_bits(), "{tag}: x diverged");
        assert_eq!(
            pa.ms_throughput.to_bits(),
            pb.ms_throughput.to_bits(),
            "{tag}: ms throughput diverged"
        );
        assert_eq!(
            pa.cs_throughput.to_bits(),
            pb.cs_throughput.to_bits(),
            "{tag}: cs throughput diverged"
        );
        assert_eq!(pa.stability, pb.stability, "{tag}: stability diverged");
    }
}

#[test]
fn n_sweeps_match_reference_on_table2_presets() {
    // One shared table per curve, cells fanned out through `sweep::run`
    // — the way `xmodel sweep` solves — and each compared to the dense
    // reference.
    for spec in presets::table2() {
        let mp = spec.machine_params(Precision::Single);
        let wl = WorkloadParams::new(24.0, 1.2, 40.0);
        let cache = CacheParams::try_new(spec.default_l1_bytes(), 30.0, 5.0, 2048.0).unwrap();
        for m in [XModel::new(mp, wl), XModel::with_cache(mp, wl, cache)] {
            let table = CurveTable::build(&m, 64.0);
            let cells: Vec<XModel> = (4..64)
                .map(|n| XModel {
                    workload: m.workload.with_n(f64::from(n)),
                    ..m
                })
                .collect();
            let fast = sweep::run(3, &cells, |_, c| fastpath::solve_fast(c, &table, 512));
            for (cell, eq) in cells.iter().zip(&fast) {
                let tag = format!("{} n = {}", spec.name, cell.workload.n);
                assert_bits_eq(eq, &cell.solve_with(512), &tag);
            }
        }
    }
}

#[test]
fn fig9b_n_sweep_across_root_count_change_matches_reference() {
    // Sweeping `n` over the peak/valley/plateau shape crosses the 1 ↔ 3
    // root-count boundary, where a classification change must not move
    // a single bit — from a table sized to the sweep and from one 1024×
    // wider.
    for k_max in [96.0, 96.0 * 1024.0] {
        let table = CurveTable::build(&fig9b(96.0), k_max);
        let mut counts = std::collections::BTreeSet::new();
        for step in 0..120 {
            let m = fig9b(14.0 + 0.5 * step as f64);
            let fast = fastpath::solve_fast(&m, &table, 512);
            let exact = m.solve_with(512);
            assert_bits_eq(&fast, &exact, &format!("fig9b n = {}", m.workload.n));
            counts.insert(exact.points().len());
        }
        assert!(
            counts.contains(&1) && counts.contains(&3),
            "sweep never crossed the 1 <-> 3 boundary: {counts:?}"
        );
    }
}

#[test]
fn nan_hole_n_sweep_matches_reference() {
    let table = CurveTable::build_with(&holed(256.0), 256.0, 1024);
    for step in 0..40 {
        let m = holed(24.0 + 5.0 * step as f64);
        let fast = fastpath::solve_fast(&m, &table, 256);
        assert_bits_eq(
            &fast,
            &m.solve_with(256),
            &format!("holed n = {}", m.workload.n),
        );
    }
}

#[test]
fn solve_cache_matches_reference_at_extreme_n() {
    // A `SolveCache` domain grows in powers of two up to 2^1023; past
    // that no finite table covers `n` and the cache must still answer
    // like the dense reference (a request body can carry any finite n).
    let machine = MachineParams::try_new(6.0, 0.02, 600.0).expect("machine");
    let cache = CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).expect("cache");
    for n in [1e300, 1e307, 8.9e307, 1e308, f64::MAX] {
        let workload = WorkloadParams::try_new(40.0, 2.0, n).expect("workload");
        for model in [
            XModel::new(machine, workload),
            XModel::with_cache(machine, workload, cache),
        ] {
            let mut solve_cache = fastpath::SolveCache::new();
            let got = solve_cache.solve(&model);
            assert_bits_eq(&got, &model.solve(), &format!("n = {n:e}"));
        }
    }
}
