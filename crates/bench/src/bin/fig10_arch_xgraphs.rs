//! Fig. 10: architectural X-graphs for the three GPU generations under
//! single and double precision — f(k) profiled on the simulator via the
//! Stream sweep, g(x) families for E = 1..8.

use xmodel::prelude::*;
use xmodel::profile::stream::profile_stream;
use xmodel::viz::chart::{Chart, Marker, Series};
use xmodel::viz::grid::PanelGrid;
use xmodel_bench::{cell, save_svg, write_csv};

fn main() -> std::io::Result<()> {
    let mut grid = PanelGrid::new("Fig. 10 — architectural X-graphs", 3);
    let mut rows = Vec::new();
    for precision in [Precision::Single, Precision::Double] {
        for gpu in GpuSpec::all() {
            let units = gpu.units(precision);
            let cfg = xmodel::profile::sim_config_for(&gpu, precision);
            let max_warps = gpu.max_warps as u32;
            let fk = profile_stream(&cfg, max_warps, 4);

            let mut chart = Chart::new(
                format!("{} — {:?}", gpu.name, precision),
                "Warps",
                "f(k): MS GB/s per SM",
            )
            .right_axis("g(x): CS GF/s per SM")
            .with(Series::line(
                "f(k)",
                fk.curve
                    .iter()
                    .map(|&(w, t)| (w as f64, units.ms_to_gbs(t)))
                    .collect(),
                0,
            ))
            .with_marker(Marker {
                label: "δ".into(),
                x: fk.delta,
                y: None,
            });

            let m = gpu.machine_params(precision).m;
            for e in 1..=8u32 {
                let gx: Vec<(f64, f64)> = (0..=max_warps)
                    .map(|w| {
                        let g = (e as f64 * w as f64).min(m);
                        (w as f64, units.cs_to_gflops(g))
                    })
                    .collect();
                chart = chart
                    .with(Series::line(format!("g(x), E={e}"), gx, e as usize).on_right_axis());
            }
            chart = chart.with_marker(Marker {
                label: "π(E=1)".into(),
                x: m,
                y: None,
            });
            grid = grid.with(chart);

            rows.push(vec![
                gpu.name.to_string(),
                format!("{precision:?}"),
                cell(units.ms_to_gbs(fk.r) * gpu.sm_count as f64, 0),
                cell(fk.delta, 0),
                cell(units.cs_to_gflops(m) * gpu.sm_count as f64, 0),
            ]);
        }
    }
    xmodel_bench::print_table(
        &["GPU", "prec", "sustained GB/s", "δ warps", "peak GF/s"],
        &rows,
    );
    write_csv(
        "fig10_arch",
        &["gpu", "prec", "gbs", "delta", "gflops"],
        &rows,
    )?;
    let path = save_svg("fig10_arch_xgraphs", &grid.to_svg())?;
    println!("\nwrote {}", path.display());
    Ok(())
}
