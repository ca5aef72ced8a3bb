//! The repository benchmark: `sweep`, `serve` and `validate` workloads
//! timed end to end, with a traced run that breaks each op down by
//! layer.
//!
//! ```text
//! perfbench-harness --workload sweep|serve|validate|all --seed N
//!                   --seconds S --trace 0|1
//! perfbench-harness --record-reference    # rewrite the validate reference
//! ```
//!
//! The untraced run (`--trace 0`) prints the end-to-end metrics; the
//! traced run (`--trace 1`) prints the per-layer ledger. Either way the
//! last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 whenever the run
//! completed, whether or not its output checks passed: `correct` and
//! `failed` report those.

mod check;
mod ledger;
mod report;
mod rng;
mod serve;
mod sweep;
mod validate;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Seed used when `--seed` is not given. Claims must also hold on the
/// held-out seed named in `perfbench/workloads.json`.
const DEFAULT_SEED: u64 = 1;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["sweep", "serve", "validate"];

/// The Table II GPUs, in the order every workload indexes them.
pub fn presets() -> [xmodel_core::presets::GpuSpec; 3] {
    use xmodel_core::presets::GpuSpec;
    [
        GpuSpec::fermi_gtx570(),
        GpuSpec::kepler_k40(),
        GpuSpec::maxwell_gtx750ti(),
    ]
}

fn run_workload(name: &str, cfg: &Config) -> Result<Outcome, String> {
    match name {
        "sweep" => sweep::run(cfg),
        "serve" => serve::run(cfg),
        "validate" => validate::run(cfg),
        other => Err(format!(
            "unknown workload `{other}` (sweep|serve|validate|all)"
        )),
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name}: cannot parse `{text}`")),
        None => Ok(default),
    }
}

fn main_inner(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--record-reference") {
        return validate::record_reference();
    }
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    let cfg = Config {
        seed: parse(args, "--seed", DEFAULT_SEED)?,
        seconds: parse(args, "--seconds", 10.0)?,
        trace: match parse::<u8>(args, "--trace", 0)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    };
    if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let names: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "perfbench: seed {} seconds {} trace {} cores {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    if workload != "all" {
        let out = run_workload(workload, &cfg)?;
        print!("{}", report::render(workload, &out, names));
        let line = report::result_line(
            out.correct(),
            out.attempted,
            out.failed,
            &out.entries(names, ""),
        );
        println!("{line}");
        return Ok(());
    }
    // One command for every workload: each prints its own report, and
    // the result line prefixes metric names with the workload's.
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut entries = Vec::new();
    for name in WORKLOADS {
        let out = run_workload(name, &cfg)?;
        print!("{}", report::render(name, &out, names));
        correct &= out.correct();
        attempted += out.attempted;
        failed += out.failed;
        entries.extend(out.entries(names, &format!("{name}.")));
    }
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &entries)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
