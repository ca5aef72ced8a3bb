//! The §VII visual comparison: the classic log-log Roofline next to the
//! X-model's verdicts. The roofline places each workload by arithmetic
//! intensity alone; the X-model's operating points show where thread
//! count and the spatial state move a kernel away from the static bound.

use xmodel::prelude::*;
use xmodel::profile::fitting::assemble_model;
use xmodel::viz::chart::{Chart, Marker, Series};
use xmodel_bench::{cell, print_table, save_svg, write_csv};

fn main() -> std::io::Result<()> {
    let gpu = GpuSpec::kepler_k40();
    let machine = gpu.machine_params(Precision::Single);
    let roof = Roofline::new(machine.m, machine.r);

    println!("Roofline vs X-model operating points on {}\n", gpu.name);

    let mut chart = Chart::new(
        "Roofline (log-log) with X-model operating points",
        "arithmetic intensity Z (ops/request)",
        "CS throughput (warp-ops/cycle)",
    )
    .log_log()
    .with(Series::line("roofline", roof.sample(1.0, 1000.0, 128), 0))
    .with_marker(Marker {
        label: "ridge M/R".into(),
        x: roof.ridge(),
        y: Some(roof.peak_ops),
    });

    let mut attainable_pts = Vec::new();
    let mut actual_pts = Vec::new();
    let mut rows = Vec::new();
    for w in Workload::suite() {
        let a = w.kernel.analyze();
        if a.uses_fp64 {
            continue; // the SP roofline; hpccg lives on the DP one
        }
        let model = assemble_model(&gpu, &w, 0);
        let op = model.solve().operating_point().unwrap();
        let bound = roof.attainable(model.workload.z);
        attainable_pts.push((model.workload.z, bound));
        actual_pts.push((model.workload.z, op.cs_throughput));
        rows.push(vec![
            w.name.to_string(),
            cell(model.workload.z, 1),
            cell(bound, 3),
            cell(op.cs_throughput, 3),
            format!("{:.0}%", op.cs_throughput / bound * 100.0),
        ]);
    }
    chart = chart
        .with(Series::scatter("roofline bound", attainable_pts, 1))
        .with(Series::scatter("X-model operating point", actual_pts, 2));

    print_table(
        &["app", "Z", "roofline bound", "X-model point", "achieved"],
        &rows,
    );
    write_csv(
        "roofline_figure",
        &["app", "z", "bound", "xmodel", "frac"],
        &rows,
    )?;
    println!("\nEvery workload sits on or below its roofline; the gap is the");
    println!("thread/occupancy dimension the roofline cannot see (nw, lud),");
    println!("which is exactly the §VII critique.");
    let path = save_svg("roofline_figure", &chart.to_svg(640.0, 420.0))?;
    println!("wrote {}", path.display());
    Ok(())
}
