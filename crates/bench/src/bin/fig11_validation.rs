//! Fig. 11: §V validation on the Kepler platform — predicted vs measured
//! computation/memory throughput for the 12-workload suite, plus the
//! per-application X-graph panels with the measured point overlaid.

use xmodel::core::xgraph::XGraph;
use xmodel::prelude::*;
use xmodel::profile::fitting::assemble_model;
use xmodel::profile::validate::{validate_one, ValidationReport};
use xmodel::render;
use xmodel::viz::chart::Series;
use xmodel::viz::grid::PanelGrid;
use xmodel_bench::{cell, print_table, save_svg, write_csv};

fn main() -> std::io::Result<()> {
    let gpu = GpuSpec::kepler_k40();
    println!("Fig. 11 — validation on {} \n", gpu.name);

    let mut grid = PanelGrid::new("Fig. 11 — validation on Kepler", 4);
    let mut rows = Vec::new();
    let mut accs = Vec::new();
    let mut report = ValidationReport { apps: Vec::new() };
    for w in Workload::suite() {
        let v = validate_one(&gpu, &w).expect("validation failed");
        accs.push(v.accuracy());
        report.apps.push(v.clone());
        rows.push(vec![
            w.name.to_string(),
            cell(v.n, 0),
            cell(v.predicted_cs, 3),
            cell(v.measured_cs, 3),
            cell(v.predicted_ms, 4),
            cell(v.measured_ms, 4),
            cell(v.predicted_k, 1),
            cell(v.measured_k, 1),
            format!("{:.1}%", v.accuracy() * 100.0),
        ]);

        // Panel: the app's X-graph with the measured point as a star.
        let model = assemble_model(&gpu, &w, 0);
        let graph = XGraph::build(&model, 256);
        let mut chart = render::xgraph_chart(&graph, None);
        chart.title = format!(
            "{} (PCT {:.2}, RCT {:.2})",
            w.name, v.predicted_cs, v.measured_cs
        );
        chart = chart.with(Series::scatter(
            "measured",
            vec![(v.measured_k, v.measured_ms)],
            7,
        ));
        grid = grid.with(chart);
    }
    print_table(
        &[
            "app", "n", "PCT", "RCT", "pred MS", "meas MS", "pred k", "meas k", "acc",
        ],
        &rows,
    );
    let mean = accs.iter().sum::<f64>() / accs.len() as f64;
    println!(
        "\nmean prediction accuracy: {:.1}%  (paper: 84.1% on real silicon)",
        mean * 100.0
    );
    println!("(PCT/RCT in warp-ops per cycle per SM)");
    write_csv(
        "fig11_validation",
        &["app", "n", "pct", "rct", "pms", "mms", "pk", "mk", "acc"],
        &rows,
    )?;
    let jpath = xmodel_bench::write_json("fig11_validation", &report)?;
    let path = save_svg("fig11_validation", &grid.to_svg())?;
    println!("wrote {}", jpath.display());
    println!("wrote {}", path.display());
    Ok(())
}
