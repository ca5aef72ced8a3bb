//! Table I: the model's parameter glossary, instantiated with the values
//! of the §VI case-study configuration so every symbol has a concrete
//! number next to it.

use xmodel::prelude::Threads;
use xmodel_bench::{cell, print_table, write_csv};

fn main() -> std::io::Result<()> {
    let model = xmodel_bench::case_study::model(16);
    let op = model.solve().operating_point().expect("operating point");
    let feats = model.ms_features(model.workload.n.max(64.0));

    let value = |symbol: &str| -> String {
        match symbol {
            "n" => cell(model.workload.n, 0),
            "k" => cell(op.k, 2),
            "x" => cell(op.x, 2),
            "f(k)" => format!("{} req/cyc at k", cell(op.ms_throughput, 4)),
            "g(x)" => format!("{} req/cyc demand", cell(op.ms_throughput, 4)),
            "Z" => cell(model.workload.z, 2),
            "E" => cell(model.workload.e, 2),
            "R" => cell(model.machine.r, 4),
            "M" => cell(model.machine.m, 1),
            "pi" => cell(model.pi(), 2),
            "delta" => cell(model.delta(), 1),
            "L" => cell(model.machine.l, 0),
            "h" => model
                .cache
                .map(|c| cell(c.hit_rate(Threads(op.k)), 3))
                .unwrap_or_else(|| "-".into()),
            "psi" => feats
                .psi()
                .map(|p| cell(p, 1))
                .unwrap_or_else(|| "-".into()),
            _ => "-".into(),
        }
    };

    let rows: Vec<Vec<String>> = xmodel::core::params::TABLE_I
        .iter()
        .map(|e| {
            vec![
                e.symbol.to_string(),
                e.description.to_string(),
                value(e.symbol),
            ]
        })
        .collect();
    println!("Table I — major parameters (values: gesummv on GTX570, 16 KiB L1)\n");
    print_table(&["symbol", "description", "case-study value"], &rows);
    write_csv("table1", &["symbol", "description", "value"], &rows)?;
    Ok(())
}
