//! Extension experiment: the what-if *landscape*. Instead of moving one
//! knob at a time (Figs. 14–17), sweep two at once — thread count `n`
//! against compute intensity `Z` — and map the operating-point throughput
//! over the whole design space. The ridge/cliff structure makes the
//! §III-D phenomena visible at a glance: the cache-efficiency ridge at
//! low n, the thrashing cliff, and the bandwidth plateau.

use xmodel::core::exectime::{predict, Phase};
use xmodel::prelude::*;
use xmodel::viz::heatmap::Heatmap;
use xmodel_bench::{cell, save_svg};

fn main() -> std::io::Result<()> {
    let machine = MachineParams::new(6.0, 0.02, 600.0);
    let cache = CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).unwrap();

    let ns: Vec<f64> = (1..=60).map(|i| i as f64).collect();
    let zs: Vec<f64> = (1..=40).map(|i| i as f64 * 4.0).collect();

    // Every grid cell shares one supply curve — (n, Z) only move the
    // demand side — so tabulate `f(k)` once and fan the 2400 solves out
    // through the deterministic sweep engine. `solve_fast` is
    // bit-identical to `solve()`, so the maps are unchanged.
    let table = xmodel::core::fastpath::CurveTable::build(
        &XModel::with_cache(machine, WorkloadParams::new(4.0, 2.0, 1.0), cache),
        64.0,
    );
    let cells: Vec<(f64, f64)> = zs
        .iter()
        .flat_map(|&z| ns.iter().map(move |&n| (n, z)))
        .collect();
    let solved =
        xmodel::core::sweep::run(xmodel::core::sweep::default_jobs(), &cells, |_, &(n, z)| {
            let m = XModel::with_cache(machine, WorkloadParams::new(z, 2.0, n), cache);
            xmodel::core::fastpath::solve_fast(&m, &table, xmodel::core::solver::DEFAULT_SAMPLES)
                .operating_point()
                .map(|p| (p.ms_throughput, p.cs_throughput))
        });
    let ms_map = Heatmap {
        title: "MS throughput over (n, Z)".to_string(),
        x_label: "threads n".to_string(),
        y_label: "compute intensity Z".to_string(),
        xs: ns.clone(),
        ys: zs.clone(),
        values: solved
            .iter()
            .map(|o| o.map(|(ms, _)| ms).unwrap_or(0.0))
            .collect(),
    };
    let cs_map = Heatmap {
        title: "CS throughput over (n, Z)".to_string(),
        x_label: "threads n".to_string(),
        y_label: "compute intensity Z".to_string(),
        xs: ns.clone(),
        ys: zs.clone(),
        values: solved
            .iter()
            .map(|o| o.map(|(_, cs)| cs).unwrap_or(0.0))
            .collect(),
    };

    println!("Design-space sweep over (n, Z), E = 2, 16 KiB cache\n");
    println!("{}", ms_map.to_ascii());
    let (n_star, z_star, v) = ms_map.argmax();
    println!(
        "best MS throughput {} req/cyc at n = {}, Z = {}",
        cell(v, 4),
        n_star,
        z_star
    );
    let (cn, cz, cv) = cs_map.argmax();
    println!(
        "best CS throughput {} ops/cyc at n = {}, Z = {}",
        cell(cv, 3),
        cn,
        cz
    );

    // Execution-time view of the same space for a fixed amount of work.
    let time_map = Heatmap::evaluate(
        "speed (1/cycles) for 100k requests over (n, Z)",
        "threads n",
        "compute intensity Z",
        ns,
        zs,
        |n, z| {
            let pred = predict(
                machine,
                Some(cache),
                &[Phase::new(WorkloadParams::new(z, 2.0, n), 100_000.0)],
            );
            1.0 / pred.cycles()
        },
    );

    let p1 = save_svg("design_space_ms", &ms_map.to_svg(640.0, 420.0))?;
    let p2 = save_svg("design_space_cs", &cs_map.to_svg(640.0, 420.0))?;
    let p3 = save_svg("design_space_time", &time_map.to_svg(640.0, 420.0))?;
    println!(
        "\nwrote {}\nwrote {}\nwrote {}",
        p1.display(),
        p2.display(),
        p3.display()
    );
    Ok(())
}
