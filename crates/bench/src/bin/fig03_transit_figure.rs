//! Fig. 3: the transit figure — the cross-roofline whose intersection is
//! the equilibrium between MS service demand and supply, i.e. the spatial
//! machine state (k threads in MS, x in CS).

use xmodel::core::xgraph::XGraph;
use xmodel::prelude::*;
use xmodel::render;
use xmodel_bench::{cell, print_table, save_svg, write_csv};

fn main() -> std::io::Result<()> {
    let machine = MachineParams::new(4.0, 0.1, 500.0);
    println!("Fig. 3 — flow balance f(k) = g(x) with x + k = n\n");

    // Equilibria across a thread sweep: closed form vs numeric solver.
    let mut rows = Vec::new();
    for n in [8.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0, 200.0] {
        let transit = TransitModel::new(machine, OpsPerRequest(20.0), Threads(n));
        let closed = transit.equilibrium().unwrap();
        let numeric = transit.to_xmodel().solve().operating_point().unwrap();
        rows.push(vec![
            cell(n, 0),
            cell(closed.k, 2),
            cell(numeric.k, 2),
            cell(closed.x, 2),
            cell(closed.ms_throughput, 4),
            cell(closed.cs_throughput, 3),
        ]);
    }
    print_table(
        &["n", "k (closed)", "k (numeric)", "x", "MS thr", "CS thr"],
        &rows,
    );
    write_csv(
        "fig03_transit_figure",
        &["n", "k_closed", "k_numeric", "x", "ms", "cs"],
        &rows,
    )?;

    let model = TransitModel::new(machine, OpsPerRequest(20.0), Threads(48.0)).to_xmodel();
    let graph = XGraph::build(&model, 256);
    let path = save_svg(
        "fig03_transit_figure",
        &render::xgraph_chart(&graph, None).to_svg(560.0, 360.0),
    )?;
    println!("\n{}", render::xgraph_ascii(&graph, 70, 14));
    println!("wrote {}", path.display());
    Ok(())
}
