//! Extension experiment: per-workload knob elasticities — which of the
//! model's parameters buys the most throughput for each §V application.
//! This is the Fig. 4/8 what-if workflow compressed to one ranked number
//! per knob, and it doubles as an automatic bound classifier: an `R`
//! elasticity of ~1 *is* "memory bound", an `M` elasticity of ~1 *is*
//! "compute bound", `n` ≈ 1 is "thread bound", negative `n` means
//! throttling helps.

use xmodel::core::sensitivity::analyze;
use xmodel::prelude::*;
use xmodel::profile::fitting::assemble_model;
use xmodel_bench::{cell, print_table, write_csv, write_json};

fn main() -> std::io::Result<()> {
    let gpu = GpuSpec::kepler_k40();
    println!(
        "MS-throughput elasticities on {} (1% of knob -> x% of throughput)\n",
        gpu.name
    );

    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for w in Workload::suite() {
        let model = assemble_model(&gpu, &w, 0);
        let rep = analyze(&model);
        let get = |p: &str| {
            rep.get(p)
                .map(|e| cell(e.ms_elasticity, 2))
                .unwrap_or_else(|| "-".into())
        };
        rows.push(vec![
            w.name.to_string(),
            get("R"),
            get("L"),
            get("M"),
            get("Z"),
            get("E"),
            get("n"),
            rep.dominant().map(|d| d.param.clone()).unwrap_or_default(),
        ]);
        reports.push((w.name.to_string(), rep));
    }
    print_table(&["app", "R", "L", "M", "Z", "E", "n", "dominant"], &rows);
    write_csv(
        "sensitivity",
        &["app", "R", "L", "M", "Z", "E", "n", "dominant"],
        &rows,
    )?;
    write_json("sensitivity", &reports)?;

    println!("\nReading the table:");
    println!("- R ~ 1, others ~ 0: saturated on bandwidth (most of the suite);");
    println!("- n ~ 1 with L < 0: thread bound — more occupancy or lower latency;");
    println!("- M ~ 1 on the CS side: compute bound (leukocyte).");

    // And one thrashing case where the cache knobs dominate.
    println!("\ngesummv on GTX570 with 16 KiB L1 (the §VI thrashing state):");
    let fermi = GpuSpec::fermi_gtx570();
    let model = assemble_model(&fermi, &Workload::get(WorkloadId::Gesummv), 16 * 1024);
    let rep = analyze(&model);
    let mut rows = Vec::new();
    for e in &rep.entries {
        rows.push(vec![
            e.param.clone(),
            cell(e.ms_elasticity, 3),
            cell(e.cs_elasticity, 3),
        ]);
    }
    print_table(&["knob", "MS elasticity", "CS elasticity"], &rows);
    println!("\nNegative n elasticity = thread throttling helps; positive S$/alpha");
    println!("= capacity and locality fixes help — the §VI menu, derived, ranked.");
    Ok(())
}
