//! The introduction's motivating confusion, settled by the model: is
//! maximizing occupancy good for performance?
//!
//! The intro cites practitioners chasing 100% occupancy, then papers
//! showing (a) high occupancy can thrash the cache [1] and (b) with
//! enough ILP, *lower* occupancy can win [2]. Both phenomena fall out of
//! one X-model sweep:
//!
//! * cache-sensitive kernel: throughput vs n rises to the cache peak and
//!   then falls — maximum occupancy is the *worst* productive point;
//! * streaming kernel with tunable ILP: E = 2 reaches peak CS throughput
//!   at half the occupancy E = 1 needs (Volkov's observation).

use xmodel::prelude::*;
use xmodel::viz::chart::{Chart, Series};
use xmodel::viz::grid::PanelGrid;
use xmodel_bench::{cell, print_table, save_svg, write_csv};

fn main() -> std::io::Result<()> {
    println!("The occupancy debate, resolved in one model (intro, refs [1] and [2])\n");

    // (a) Kayiran et al. [1]: cache thrashing under full occupancy.
    let machine = MachineParams::new(6.0, 0.02, 600.0);
    let cache = CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).unwrap();
    let mut cache_rows = Vec::new();
    let mut cache_curve = Vec::new();
    for n in (4..=48).step_by(4) {
        let model = XModel::with_cache(machine, WorkloadParams::new(40.0, 2.0, n as f64), cache);
        let ms = model.solve().operating_point().unwrap().ms_throughput;
        cache_curve.push((n as f64, ms));
        cache_rows.push(vec![
            format!("{:.0}%", n as f64 / 48.0 * 100.0),
            n.to_string(),
            cell(ms, 4),
        ]);
    }
    println!("(a) cache-sensitive kernel (the 'neither more nor less' case):");
    print_table(&["occupancy", "warps", "MS thr"], &cache_rows);
    let best = cache_curve
        .iter()
        .cloned()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    let full = cache_curve.last().unwrap();
    println!(
        "\nbest occupancy: {:.0}% ({} warps) — full occupancy loses {:.0}% of it\n",
        best.0 / 48.0 * 100.0,
        best.0,
        (1.0 - full.1 / best.1) * 100.0
    );

    // (b) Volkov [2]: better performance at lower occupancy with ILP.
    let kepler = GpuSpec::kepler_k40().machine_params(Precision::Single);
    let mut ilp_rows = Vec::new();
    let mut curves: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for e in [1.0, 2.0, 4.0] {
        let mut pts = Vec::new();
        let mut n_at_peak = f64::NAN;
        for n in 1..=64 {
            let model = XModel::new(kepler, WorkloadParams::new(300.0, e, n as f64));
            let cs = model.solve().operating_point().unwrap().cs_throughput;
            pts.push((n as f64, cs));
            if n_at_peak.is_nan() && cs >= 0.95 * kepler.m {
                n_at_peak = n as f64;
            }
        }
        ilp_rows.push(vec![
            format!("E = {e}"),
            format!("{n_at_peak}"),
            format!("{:.0}%", n_at_peak / 64.0 * 100.0),
        ]);
        curves.push((format!("E = {e}"), pts));
    }
    println!("(b) compute kernel on Kepler: occupancy needed for 95% of peak CS:");
    print_table(&["ILP", "warps needed", "occupancy"], &ilp_rows);
    println!("\nWith E = 4 a quarter of the occupancy reaches peak — exactly");
    println!("Volkov's 'better performance at lower occupancy'.");

    let panel_a = {
        let mut c = Chart::new(
            "(a) cache-sensitive: throughput vs occupancy",
            "warps",
            "MS throughput",
        );
        c = c.with(Series::line("MS thr", cache_curve, 0));
        c
    };
    let mut panel_b = Chart::new("(b) ILP lets low occupancy win", "warps", "CS throughput");
    for (i, (label, pts)) in curves.into_iter().enumerate() {
        panel_b = panel_b.with(Series::line(label, pts, i));
    }
    let svg = PanelGrid::new("The occupancy debate in the X-model", 2)
        .with(panel_a)
        .with(panel_b)
        .to_svg();
    let path = save_svg("occupancy_debate", &svg)?;
    write_csv(
        "occupancy_debate",
        &["occupancy", "warps", "ms"],
        &cache_rows,
    )?;
    println!("\nwrote {}", path.display());
    Ok(())
}
