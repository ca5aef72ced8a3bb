//! Fast-path solver parity against the exact reference.
//!
//! The `solve_fast` contract is stronger than the issue's 1e-9 budget:
//! confirmed brackets are polished with the *exact* curves between the
//! same dense-grid endpoints the reference uses, so the result must be
//! bit-identical. These tests pin that on every Table II preset (both
//! precisions, with and without a cache), on property-sampled workloads,
//! on the three-intersection Fig. 9-B shape at a coarse `samples = 256`,
//! and on fault-injected NaN-hole curves where the table's unsound
//! intervals must disable screening rather than skip the hole. The same
//! fixtures are also walked as `n`-sweeps over one shared table — the way
//! `xmodel sweep` uses it — including across the Fig. 9-B 1 ↔ 3
//! root-count boundary, with every cell compared to the reference.

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

/// The Fig. 9-B supply shape from the solver's unit suite: peak 0.3 at
/// `k = 8`, valley 0.05 at `k = 24`, plateau 0.1.
fn fig9b_f(k: f64) -> f64 {
    let k = k.max(0.0);
    if k <= 8.0 {
        0.3 * k / 8.0
    } else if k <= 24.0 {
        0.3 - 0.25 * (k - 8.0) / 16.0
    } else if k <= 60.0 {
        0.05 + 0.05 * (k - 24.0) / 36.0
    } else {
        0.1
    }
}

/// Matching demand `ĝ(x) = min(x, 10)/50`.
fn fig9b_g(x: f64) -> f64 {
    x.clamp(0.0, 10.0) / 50.0
}

#[test]
fn three_intersections_survive_coarse_samples() {
    let (n, z) = (64.0, 50.0);
    let typed_f = |k: Threads| ReqPerCycle(fig9b_f(k.get()));
    let typed_g = |x: Threads| ReqPerCycle(fig9b_g(x.get()));
    // Coarse dense scan: the three roots must not collapse in dedup.
    let exact = solver::solve_with(&typed_f, &typed_g, Threads(n), OpsPerRequest(z), 256);
    assert_eq!(
        exact.points().len(),
        3,
        "roots collapsed: {:?}",
        exact.points()
    );
    assert_eq!(exact.points()[1].stability, Stability::Unstable);
    assert!(exact.is_bistable());

    // And the fast path must reproduce them from a tabulated curve.
    let table = CurveTable::tabulate(&fig9b_f, n, 4096);
    let (fast, _) = fastpath::solve_fast_curves(&fig9b_f, &fig9b_g, &table, n, z, 256);
    assert_eq!(fast, exact, "fast path collapsed or moved a root");
}

/// A supply curve with a fault-injected NaN hole over `k ∈ (10, 20)`.
fn holed_f(k: f64) -> f64 {
    let k = k.max(0.0);
    if k > 10.0 && k < 20.0 {
        f64::NAN
    } else {
        (k / 100.0).min(0.25)
    }
}

/// Demand `ĝ(x) = min(x, 8)/40` for the NaN-hole fixture.
fn holed_g(x: f64) -> f64 {
    x.clamp(0.0, 8.0) / 40.0
}

#[test]
fn nan_hole_curve_keeps_reference_parity() {
    let (n, z) = (48.0, 40.0);
    let table = CurveTable::tabulate(&holed_f, 64.0, 1024);
    // The hole's intervals are unsound: infinite margin disables both
    // the per-sample interpolation and the coarse block screening there.
    assert!(table.interp(15.0).1.is_infinite(), "hole must be unsound");
    assert!(
        table.interp(5.0).1.is_finite(),
        "healthy region stayed sound"
    );

    let typed_f = |k: Threads| ReqPerCycle(holed_f(k.get()));
    let typed_g = |x: Threads| ReqPerCycle(holed_g(x.get()));
    let exact = solver::solve_with(&typed_f, &typed_g, Threads(n), OpsPerRequest(z), 256);
    let (fast, _) = fastpath::solve_fast_curves(&holed_f, &holed_g, &table, n, z, 256);
    // The throughputs at the hole's edge are NaN (as in the reference),
    // so `==` would reject matching points: compare bit patterns.
    assert_eq!(
        fast.points().len(),
        exact.points().len(),
        "root count diverged"
    );
    for (a, b) in fast.points().iter().zip(exact.points()) {
        assert_eq!(a.k.to_bits(), b.k.to_bits(), "k diverged: {a:?} vs {b:?}");
        assert_eq!(a.x.to_bits(), b.x.to_bits(), "x diverged: {a:?} vs {b:?}");
        assert_eq!(a.ms_throughput.to_bits(), b.ms_throughput.to_bits());
        assert_eq!(a.cs_throughput.to_bits(), b.cs_throughput.to_bits());
        assert_eq!(a.stability, b.stability);
        assert!(a.k.is_finite(), "non-finite root position leaked through");
    }

    // The degradation ladder's grid-scan rung still has a foothold on
    // the holed curve: closest approach lands in the healthy region.
    let dense = solver::DEFAULT_SAMPLES;
    let (point, gap) =
        solver::closest_approach(&typed_f, &typed_g, Threads(n), OpsPerRequest(z), dense)
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
    // a single bit.
    let z = 50.0;
    let typed_f = |k: Threads| ReqPerCycle(fig9b_f(k.get()));
    let typed_g = |x: Threads| ReqPerCycle(fig9b_g(x.get()));
    let table = CurveTable::tabulate(&fig9b_f, 96.0, 4096);
    let mut counts = std::collections::BTreeSet::new();
    for step in 0..120 {
        let n = 14.0 + 0.5 * step as f64;
        let (fast, _) = fastpath::solve_fast_curves(&fig9b_f, &fig9b_g, &table, n, z, 512);
        let exact = solver::solve_with(&typed_f, &typed_g, Threads(n), OpsPerRequest(z), 512);
        assert_bits_eq(&fast, &exact, &format!("fig9b n = {n}"));
        counts.insert(exact.points().len());
    }
    assert!(
        counts.contains(&1) && counts.contains(&3),
        "sweep never crossed the 1 <-> 3 boundary: {counts:?}"
    );
}

#[test]
fn nan_hole_n_sweep_matches_reference() {
    let z = 40.0;
    let typed_f = |k: Threads| ReqPerCycle(holed_f(k.get()));
    let typed_g = |x: Threads| ReqPerCycle(holed_g(x.get()));
    let table = CurveTable::tabulate(&holed_f, 64.0, 1024);
    assert!(table.interp(15.0).1.is_infinite(), "hole must be unsound");
    for step in 0..40 {
        let n = 24.0 + step as f64;
        let (fast, _) = fastpath::solve_fast_curves(&holed_f, &holed_g, &table, n, z, 256);
        let exact = solver::solve_with(&typed_f, &typed_g, Threads(n), OpsPerRequest(z), 256);
        assert_bits_eq(&fast, &exact, &format!("holed n = {n}"));
    }
}
