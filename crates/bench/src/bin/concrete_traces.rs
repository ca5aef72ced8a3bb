//! Ablation: synthetic trace generators vs the real algorithms.
//!
//! The 12-workload suite approximates each kernel's access pattern with a
//! statistical generator (gather, shared vector, private working set …).
//! Here three of the underlying algorithms are *actually executed* — CSR
//! SpMV, level-synchronous BFS, a 5-point stencil — their address streams
//! recorded, and both versions run through the same cached simulator. If
//! the synthetic approximation is good, throughput and hit rates agree.

use xmodel::prelude::*;
use xmodel::profile::calibrate::{calibrate_private_ws, curve_rms, synthetic_hit_curve};
use xmodel::sim::Sm;
use xmodel::workloads::concrete;
use xmodel_bench::{cell, print_table, write_csv};

fn cached_cfg() -> SimConfig {
    SimConfig::builder()
        .lanes(6.0)
        .issue_width(8)
        .lsu(2)
        .dram(540, 13.7)
        .l1(16 * 1024, 28, 32)
        .build()
}

fn run_synthetic(w: &Workload, warps: u32) -> (f64, f64) {
    let a = w.kernel.analyze();
    let stats = xmodel::sim::simulate(
        &cached_cfg(),
        &SimWorkload {
            trace: w.trace,
            ops_per_request: a.intensity,
            ilp: a.ilp,
            warps,
        },
        15_000,
        50_000,
    );
    (stats.ms_throughput(), stats.hit_rate())
}

fn run_recorded(w: &Workload, traces: &concrete::RecordedTraces, warps: u32) -> (f64, f64) {
    let a = w.kernel.analyze();
    let mut sm = Sm::with_streams(&cached_cfg(), traces.streams(warps), a.intensity, a.ilp, 42);
    sm.run(15_000, 50_000);
    (sm.stats().ms_throughput(), sm.stats().hit_rate())
}

fn main() -> std::io::Result<()> {
    println!("Synthetic trace generators vs recorded algorithm traces\n");
    let warps = 32;

    let cases: Vec<(&str, Workload, concrete::RecordedTraces)> = vec![
        (
            "spmv",
            Workload::get(WorkloadId::Spmv),
            concrete::spmv_csr(16_384, 8, warps, 7),
        ),
        (
            "bfs",
            Workload::get(WorkloadId::Bfs),
            concrete::bfs_frontier(40_000, 8, warps, 7),
        ),
        (
            "stencil",
            Workload::get(WorkloadId::Stencil),
            concrete::stencil5(1024, 256, warps),
        ),
    ];

    let mut rows = Vec::new();
    for (name, w, traces) in &cases {
        let (ms_syn, h_syn) = run_synthetic(w, warps);
        let (ms_rec, h_rec) = run_recorded(w, traces, warps);
        let gap = (ms_syn - ms_rec).abs() / ms_rec.max(1e-12);
        rows.push(vec![
            name.to_string(),
            cell(ms_syn, 4),
            cell(ms_rec, 4),
            format!("{:.0}%", gap * 100.0),
            format!("{:.2}", h_syn),
            format!("{:.2}", h_rec),
            traces.total_accesses().to_string(),
        ]);
    }
    print_table(
        &[
            "app",
            "synthetic MS",
            "recorded MS",
            "gap",
            "syn hit",
            "rec hit",
            "trace len",
        ],
        &rows,
    );
    write_csv(
        "concrete_traces",
        &[
            "app", "syn_ms", "rec_ms", "gap", "syn_hit", "rec_hit", "len",
        ],
        &rows,
    )?;
    println!("\nWhere hit rates diverge, the synthetic generator's locality knob");
    println!("(skew / vector_prob / ws_lines) is what needs recalibration — the");
    println!("rest of the pipeline is unchanged between the two runs.");

    // Close the loop: calibrate a synthetic generator against the recorded
    // spmv trace and re-run the simulator with it.
    println!("\n== calibration (spmv) ==");
    let (_, w, traces) = &cases[0];
    let cal = calibrate_private_ws(traces, 16 * 1024, 8_000);
    println!(
        "fitted spec: {:?}  (hit-curve rms {:.3})",
        cal.spec, cal.rms
    );
    let default_rms = curve_rms(
        &cal.target_curve,
        &synthetic_hit_curve(&w.trace, 16 * 1024, 8_000),
    );
    let (ms_rec, _) = run_recorded(w, traces, warps);
    let mut wcal = w.clone();
    wcal.trace = cal.spec;
    let (ms_cal, _) = run_synthetic(&wcal, warps);
    let (ms_def, _) = run_synthetic(w, warps);
    println!(
        "hit-curve rms: default {:.3} -> calibrated {:.3}",
        default_rms, cal.rms
    );
    println!(
        "simulated MS thr: recorded {}  default-synthetic {}  calibrated-synthetic {}",
        cell(ms_rec, 4),
        cell(ms_def, 4),
        cell(ms_cal, 4)
    );
    let gap = |a: f64| (a - ms_rec).abs() / ms_rec;
    println!(
        "gap to recorded: default {:.0}% -> calibrated {:.0}%",
        gap(ms_def) * 100.0,
        gap(ms_cal) * 100.0
    );
    Ok(())
}
