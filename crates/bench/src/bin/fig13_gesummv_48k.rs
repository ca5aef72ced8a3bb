//! Fig. 13: gesummv with the L1 enlarged to 48 KiB — the cache peak rises
//! markedly but the operating point barely moves (thrashing persists), the
//! paper's "usage 1" insight.

use xmodel::core::xgraph::XGraph;
use xmodel::prelude::*;
use xmodel::profile::bypass::bypass_trace_points;
use xmodel::render;
use xmodel::viz::chart::Series;
use xmodel_bench::case_study;
use xmodel_bench::{cell, save_svg, write_csv};

fn main() -> std::io::Result<()> {
    let units = case_study::gpu().units(Precision::Single);
    let m16 = case_study::model(16);
    let m48 = case_study::model(48);
    let op16 = m16.solve().operating_point().unwrap();
    let op48 = m48.solve().operating_point().unwrap();

    println!("Fig. 13 — gesummv on GTX570, 48 KiB L1\n");
    println!(
        "operating point: 16 KiB {} GB/s -> 48 KiB {} GB/s per SM ({:+.1}%)",
        cell(units.ms_to_gbs(op16.ms_throughput), 2),
        cell(units.ms_to_gbs(op48.ms_throughput), 2),
        100.0 * (op48.ms_throughput / op16.ms_throughput - 1.0)
    );
    let p16 = m16.ms_features(64.0).peak;
    let p48 = m48.ms_features(64.0).peak;
    if let (Some(a), Some(b)) = (p16, p48) {
        println!(
            "cache peak: 16 KiB {} GB/s at ψ = {:.1} -> 48 KiB {} GB/s at ψ = {:.1}",
            cell(units.ms_to_gbs(a.value), 2),
            a.k,
            cell(units.ms_to_gbs(b.value), 2),
            b.k
        );
        println!("(much higher peak, same thrashing endpoint: larger cache alone");
        println!(" does not resolve contention — but reveals achievable headroom)");
    }
    println!("still thrashing? {}", WhatIf::new(m48).is_thrashing());

    // Simulator measurement of the same comparison.
    let s16 = case_study::measure(16, 0.0, 48);
    let s48 = case_study::measure(48, 0.0, 48);
    println!(
        "\nsimulator: 16 KiB {} GB/s -> 48 KiB {} GB/s per SM ({:+.1}%; paper: +7%)",
        cell(units.ms_to_gbs(s16), 2),
        cell(units.ms_to_gbs(s48), 2),
        100.0 * (s48 / s16 - 1.0)
    );

    let cfg = case_study::sim_config(48, 0.0);
    let wl = case_study::sim_workload(48);
    let pts = bypass_trace_points(&cfg, &wl, 4);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|&(j, t)| vec![j.to_string(), cell(t, 5), cell(units.ms_to_gbs(t), 3)])
        .collect();
    write_csv(
        "fig13_trace_points",
        &["cached_warps", "req_per_cycle", "gbs"],
        &rows,
    )?;

    let graph = XGraph::build(&m48, 512);
    let mut chart = render::xgraph_chart(&graph, Some(&units));
    chart.title = "Fig. 13 — gesummv, 48 KiB L1".into();
    chart = chart.with(Series::scatter(
        "profiled trace-points",
        pts.iter()
            .map(|&(j, t)| (j as f64, units.ms_to_gbs(t)))
            .collect(),
        3,
    ));
    let path = save_svg("fig13_gesummv_48k", &chart.to_svg(640.0, 400.0))?;
    println!("wrote {}", path.display());
    Ok(())
}
