//! Fig. 9: complete X-graphs with cache effects — (A) a stable single
//! intersection, (B) the bistable triple σ′/σ/σ″ with the unstable middle,
//! (C) severe performance degradation as n grows.

use xmodel::core::dynamics;
use xmodel::core::xgraph::XGraph;
use xmodel::prelude::*;
use xmodel::render;
use xmodel::viz::grid::PanelGrid;
use xmodel_bench::{cell, print_table, save_svg, write_csv};

fn machine() -> MachineParams {
    MachineParams::new(6.0, 0.02, 600.0)
}

fn cache() -> CacheParams {
    CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).unwrap()
}

fn main() -> std::io::Result<()> {
    // (A) stable: demand low enough to cross f only on its rising edge.
    let stable = XModel::with_cache(machine(), WorkloadParams::new(200.0, 0.25, 40.0), cache());
    // (B) unstable: the bistable configuration.
    let bistable = XModel::with_cache(machine(), WorkloadParams::new(66.0, 0.25, 60.0), cache());

    println!("Fig. 9 — stable and unstable intersections\n");
    let mut rows = Vec::new();
    for (name, model) in [("(A) stable", &stable), ("(B) bistable", &bistable)] {
        for p in model.solve().points() {
            rows.push(vec![
                name.to_string(),
                cell(p.k, 2),
                cell(p.ms_throughput, 4),
                format!("{:?}", p.stability),
            ]);
        }
    }
    print_table(&["scenario", "k", "MS thr", "stability"], &rows);

    // The perturbation argument of §III-D1, executed.
    let eq = bistable.solve();
    let sigma = eq.unstable().next().expect("unstable point");
    let down = dynamics::converge_from(&bistable, sigma.k - 1.0);
    let up = dynamics::converge_from(&bistable, sigma.k + 1.0);
    println!(
        "\nperturbing σ (k = {:.2}): one thread fewer settles at σ' (k = {:.2}), one more at σ'' (k = {:.2})",
        sigma.k, down, up
    );

    // (C) severe degradation when increasing n.
    println!("\n(C) degradation sweep — adding threads moves σ' and σ'' apart:");
    let mut sweep_rows = Vec::new();
    for n in [30.0, 40.0, 50.0, 60.0, 80.0, 120.0, 200.0] {
        let m = XModel::with_cache(machine(), WorkloadParams::new(66.0, 0.25, n), cache());
        let eq = m.solve();
        let best = eq.operating_point().map(|p| p.ms_throughput).unwrap_or(0.0);
        let worst = eq.worst_stable().map(|p| p.ms_throughput).unwrap_or(0.0);
        sweep_rows.push(vec![
            cell(n, 0),
            cell(best, 4),
            cell(worst, 4),
            cell(eq.degradation(), 4),
            eq.is_bistable().to_string(),
        ]);
    }
    print_table(
        &["n", "σ' MS thr", "σ'' MS thr", "drop", "bistable"],
        &sweep_rows,
    );
    let max_drop = bistable.machine.m / bistable.workload.z - bistable.machine.r;
    println!(
        "\nmaximum possible drop M/Z − R = {} (attained as n → ∞)",
        cell(max_drop, 4)
    );
    write_csv(
        "fig09_degradation",
        &["n", "best", "worst", "drop", "bistable"],
        &sweep_rows,
    )?;

    let grid = PanelGrid::new("Fig. 9 — intersections with cache effects", 2)
        .with(render::xgraph_chart(&XGraph::build(&stable, 512), None))
        .with(render::xgraph_chart(&XGraph::build(&bistable, 512), None));
    let path = save_svg("fig09_intersections", &grid.to_svg())?;
    println!("wrote {}", path.display());
    Ok(())
}
