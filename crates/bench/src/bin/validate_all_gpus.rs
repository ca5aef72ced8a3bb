//! Extension of the §V validation: the paper validates on Kepler only;
//! §IV claims the methodology transfers to any platform once the three
//! machine parameters are profiled. Here the full 12-workload validation
//! runs on all three Table II GPUs.

use xmodel::prelude::*;
use xmodel_bench::{print_table, write_csv, write_json};

fn main() -> std::io::Result<()> {
    println!("Cross-architecture validation (the §IV generality claim)\n");
    // The three platforms validate independently: fan them out through
    // the sweep engine (results come back in GPU order regardless of
    // the worker count).
    let gpus = GpuSpec::all();
    let validated =
        xmodel::core::sweep::run(xmodel::core::sweep::default_jobs(), &gpus, |_, gpu| {
            validate_suite(gpu).expect("validation failed")
        });
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for (gpu, rep) in gpus.iter().zip(validated) {
        let worst = rep
            .worst()
            .map(|w| format!("{} ({:.0}%)", w.name, w.accuracy() * 100.0))
            .unwrap_or_default();
        rows.push(vec![
            gpu.name.to_string(),
            format!("{:?}", gpu.generation),
            format!("{:.1}%", rep.mean_accuracy() * 100.0),
            worst,
        ]);
        reports.push((gpu.name.to_string(), rep));
    }
    print_table(&["GPU", "arch", "mean accuracy", "hardest app"], &rows);
    write_csv("validate_all_gpus", &["gpu", "arch", "acc", "worst"], &rows)?;
    write_json("validate_all_gpus", &reports)?;
    println!("\nPer-app details: `cargo run -p xmodel-cli -- validate --gpu <name>`");
    println!("(the paper reports 84.1% on Kepler silicon; see EXPERIMENTS.md");
    println!("for why the substrate numbers run higher).");
    Ok(())
}
