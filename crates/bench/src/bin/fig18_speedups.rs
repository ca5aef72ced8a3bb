//! Fig. 18: validation of the model-suggested tunings on the simulated
//! GTX570 — normalized speedups for larger cache, thread throttling and
//! cache bypassing under both L1 sizes, plus the L1-disabled reference.

use xmodel::prelude::*;
use xmodel::viz::chart::{Chart, Series};
use xmodel_bench::case_study;
use xmodel_bench::{cell, print_table, save_svg, write_csv};

const SWEEP: [u32; 9] = [2, 3, 4, 6, 8, 12, 16, 24, 32];

fn best_throttle(l1_kib: u64) -> (u32, f64) {
    let mut best = (48u32, case_study::measure(l1_kib, 0.0, 48));
    for &n in &SWEEP {
        let t = case_study::measure(l1_kib, 0.0, n);
        if t > best.1 {
            best = (n, t);
        }
    }
    best
}

fn best_bypass(l1_kib: u64) -> (u32, f64) {
    let mut best = (48u32, case_study::measure(l1_kib, 0.0, 48));
    for &j in &SWEEP {
        let t = case_study::measure(l1_kib, 1.0 - j as f64 / 48.0, 48);
        if t > best.1 {
            best = (j, t);
        }
    }
    best
}

fn main() -> std::io::Result<()> {
    println!("Fig. 18 — gesummv optimization results on the simulated GTX570\n");
    let units = case_study::gpu().units(Precision::Single);

    let base = case_study::measure(16, 0.0, 48);
    let (tn16, t16) = best_throttle(16);
    let (bj16, b16) = best_bypass(16);
    let c48 = case_study::measure(48, 0.0, 48);
    let (tn48, t48) = best_throttle(48);
    let (bj48, b48) = best_bypass(48);
    let off = case_study::measure(0, 0.0, 48);

    let paper = [1.0, 1.08, 1.22, 1.07, 1.26, 1.36, 1.0];
    let configs = [
        ("16KB L1".to_string(), base),
        (format!("16KB throttled (n={tn16})"), t16),
        (format!("16KB bypassing (j={bj16})"), b16),
        ("48KB L1".to_string(), c48),
        (format!("48KB throttled (n={tn48})"), t48),
        (format!("48KB bypassing (j={bj48})"), b48),
        ("L1 disabled".to_string(), off),
    ];

    let mut rows = Vec::new();
    for (i, (name, thr)) in configs.iter().enumerate() {
        rows.push(vec![
            name.clone(),
            cell(units.ms_to_gbs(*thr), 3),
            format!("{:.2}x", thr / base),
            format!("{:.2}x", paper[i]),
        ]);
    }
    print_table(&["config", "GB/s per SM", "speedup", "paper"], &rows);
    write_csv(
        "fig18_speedups",
        &["config", "gbs", "speedup", "paper"],
        &rows,
    )?;

    println!("\nShape check: larger cache alone is modest; throttling and");
    println!("bypassing both help, more so with 48 KiB; disabling L1 is a wash.");
    println!("(Our substrate lets throttling reach the full analytic cache");
    println!("peak, which silicon's MSHR/miss-queue contention prevented —");
    println!("see EXPERIMENTS.md for the factor-level comparison.)");

    let bars = Series::bars(
        "speedup vs 16KB L1",
        configs
            .iter()
            .enumerate()
            .map(|(i, (_, t))| (i as f64 + 1.0, t / base))
            .collect(),
        0,
    );
    let chart = Chart::new(
        "Fig. 18 — gesummv optimization results (bars 1..7 in table order)",
        "configuration",
        "normalized speedup",
    )
    .with(bars);
    let path = save_svg("fig18_speedups", &chart.to_svg(640.0, 360.0))?;
    println!("wrote {}", path.display());
    Ok(())
}
