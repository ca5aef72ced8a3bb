//! Fig. 17: optimization 4 — reducing the ILP degree (--E), the paper's
//! novel observation: under cache thrashing, a *lower* E moves the
//! intersection up the descending slope of f, raising both CS and MS
//! throughput.

use xmodel::core::xgraph::XGraph;
use xmodel::prelude::*;
use xmodel::render;
use xmodel::viz::grid::PanelGrid;
use xmodel_bench::case_study;
use xmodel_bench::{cell, print_table, save_svg, write_csv};

fn main() -> std::io::Result<()> {
    // Figs. 14-17 in the paper are schematic X-graphs: the mechanism is
    // visible when the demand slope E/Z is comparable to the descending
    // f slope. We use the same thrashing configuration the §VI analysis
    // derives (demand plateau above the cache peak), with gesummv's twin
    // FMA chains (E = 2).
    let model = XModel::with_cache(
        MachineParams::new(6.0, 0.02, 600.0),
        WorkloadParams::new(40.0, 2.0, 20.0),
        CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).unwrap(),
    );
    let what_if = WhatIf::new(model);
    assert!(
        what_if.is_thrashing(),
        "fixture must be in the Fig. 12 state"
    );
    let units = case_study::gpu().units(Precision::Single);

    println!("Fig. 17 — reducing ILP (--E) under thrashing\n");
    println!(
        "baseline E = {} (twin FMA chains of gesummv)\n",
        cell(model.workload.e, 2)
    );
    let mut rows = Vec::new();
    for mult in [1.0, 0.75, 0.5, 0.375, 0.25] {
        let e = model.workload.e * mult;
        let eff = what_if.evaluate(Optimization::ReduceIlp { e }).unwrap();
        rows.push(vec![
            cell(e, 2),
            cell(units.ms_to_gbs(eff.ms_after), 3),
            cell(eff.ms_speedup(), 3),
            cell(eff.cs_speedup(), 3),
        ]);
    }
    print_table(&["E", "MS GB/s", "MS speedup", "CS speedup"], &rows);
    println!("\nWith a lower E the same demand needs more CS threads (larger x),");
    println!("so fewer sit in MS (smaller k) — the intersection climbs the");
    println!("descending f. Principle 2 then gives both CS and MS gains.");
    println!("The paper leaves exploiting this as future work; the model");
    println!("quantifies the opportunity above.");
    write_csv(
        "fig17_reduce_ilp",
        &["e", "ms_gbs", "ms_speedup", "cs_speedup"],
        &rows,
    )?;

    let before = XGraph::build(&model, 512);
    let after = XGraph::build(
        &Optimization::ReduceIlp {
            e: model.workload.e * 0.5,
        }
        .apply(&model),
        512,
    );
    let grid = PanelGrid::new("Fig. 17 — reducing E", 2)
        .with(render::xgraph_chart(&before, Some(&units)))
        .with(render::xgraph_chart(&after, Some(&units)));
    let path = save_svg("fig17_reduce_ilp", &grid.to_svg())?;
    println!("wrote {}", path.display());
    Ok(())
}
