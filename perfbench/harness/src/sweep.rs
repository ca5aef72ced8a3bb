//! `sweep`: closed loop, one client. Each op is one `xmodel sweep`-shaped
//! sweep over a seeded random model: `CurveTable::build(base, n_max)`,
//! then `core::sweep::run` on two jobs calling `fastpath::solve_fast`
//! over 1024 points at the CLI's default 2048 samples.

use crate::check::same_equilibria;
use crate::ledger::{timed, Ledger, Span};
use crate::report::{self, value, Outcome};
use crate::rng::Rng;
use crate::{presets, Config};
use std::time::Instant;
use xmodel_core::cache::CacheParams;
use xmodel_core::fastpath::{solve_fast, solve_fast_stats, CurveTable, SolveStats};
use xmodel_core::params::WorkloadParams;
use xmodel_core::presets::Precision;
use xmodel_core::solver::{Equilibria, DEFAULT_SAMPLES};
use xmodel_core::XModel;

/// Grid points per sweep.
const POINTS: usize = 1024;
/// Worker threads per sweep (`--jobs 2`, the core count here).
pub const JOBS: usize = 2;
/// Cells per op checked against the dense reference.
const CHECK_CELLS: usize = 8;
/// Ops per pass: inputs generated at set-up, repeated every pass (about
/// 2 s of ops, so a run makes about 15 passes).
const BATCH: usize = 1024;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

const STREAM_INPUT: u64 = 1;
const STREAM_CHECK: u64 = 2;

/// One op's input: a Table II preset and a seeded workload, with an
/// Eq. (5) cache on half the ops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepInput {
    pub gpu: usize,
    pub double: bool,
    pub z: f64,
    pub e: f64,
    pub n_max: f64,
    /// `(L1 KiB, alpha, beta)`.
    pub cache: Option<(f64, f64, f64)>,
}

impl SweepInput {
    pub fn generate(seed: u64, index: u64) -> Self {
        let mut rng = Rng::item(seed, STREAM_INPUT, index);
        let gpu = rng.below(3);
        let double = rng.below(2) == 1;
        let z = rng.log_uniform(1.0, 64.0);
        let e = rng.uniform(1.0, 4.0);
        let n_max = rng.uniform(16.0, 64.0);
        let cache = (rng.below(2) == 1).then(|| {
            (
                rng.uniform(16.0, 48.0),
                rng.uniform(1.5, 6.0),
                rng.log_uniform(256.0, 8192.0),
            )
        });
        SweepInput {
            gpu,
            double,
            z,
            e,
            n_max,
            cache,
        }
    }

    /// The sweep's base model at `n = n_max`, built as the CLI's
    /// `build_model` does.
    pub fn model(&self) -> XModel {
        let precision = if self.double {
            Precision::Double
        } else {
            Precision::Single
        };
        let machine = presets()[self.gpu].machine_params(precision);
        let workload = WorkloadParams::try_new(self.z, self.e, self.n_max)
            .expect("generated workloads lie inside the model's domain");
        match self.cache {
            Some((kib, alpha, beta)) => XModel::with_cache(
                machine,
                workload,
                CacheParams::try_new(kib * 1024.0, 30.0, alpha, beta)
                    .expect("generated caches lie inside the model's domain"),
            ),
            None => XModel::new(machine, workload),
        }
    }
}

fn grid(n_max: f64) -> Vec<f64> {
    (1..=POINTS)
        .map(|i| n_max * i as f64 / POINTS as f64)
        .collect()
}

fn at_n(base: &XModel, n: f64) -> XModel {
    let mut m = *base;
    m.workload.n = n;
    m
}

/// One untraced op, as `xmodel sweep` runs it.
fn op(base: &XModel, n_max: f64) -> Vec<Equilibria> {
    let table = CurveTable::build(base, n_max);
    let ns = grid(n_max);
    xmodel_core::sweep::run(JOBS, &ns, |_, &n| {
        solve_fast(&at_n(base, n), &table, DEFAULT_SAMPLES)
    })
}

/// Per-layer tallies of the traced pass.
#[derive(Default)]
struct Tally {
    ledger: Ledger,
    build_evals: u64,
    solve: SolveStats,
    solves: u64,
}

/// One traced op: the same calls with a span around each. Returns the
/// results, and the root span's bounds and layer spans for the ledger.
fn traced_op(base: &XModel, n_max: f64, tally: &mut Tally) -> (Vec<Equilibria>, Op) {
    let op_start = Instant::now();
    let (table, build) = timed("fastpath.table_build", 1, || CurveTable::build(base, n_max));
    let ns = grid(n_max);
    let (cells, run) = timed("sweep.run", 1, || {
        xmodel_core::sweep::run(JOBS, &ns, |_, &n| {
            let start = Instant::now();
            let (eq, stats) = solve_fast_stats(&at_n(base, n), &table, DEFAULT_SAMPLES);
            (eq, stats, start, Instant::now())
        })
    });
    let op_end = Instant::now();

    let mut spans = Vec::with_capacity(cells.len() + 2);
    spans.push(build);
    spans.push(run);
    tally.build_evals += table.build_evals();
    let mut out = Vec::with_capacity(cells.len());
    for (eq, stats, start, end) in cells {
        spans.push(Span::new("fastpath.solve", 2, start, end));
        tally.solve.f_evals += stats.f_evals;
        tally.solve.interp_evals += stats.interp_evals;
        tally.solve.blocks_skipped += stats.blocks_skipped;
        tally.solve.blocks_refined += stats.blocks_refined;
        tally.solves += 1;
        out.push(eq);
    }
    (out, (op_start, op_end, spans))
}

/// A traced op's root span bounds and layer spans.
type Op = (Instant, Instant, Vec<Span>);

/// Check the op's seed-sampled cells against the dense reference;
/// returns `(checks run, checks failed)`.
fn check(seed: u64, op_index: u64, base: &XModel, n_max: f64, cells: &[Equilibria]) -> (u64, u64) {
    let mut rng = Rng::item(seed, STREAM_CHECK, op_index);
    let ns = grid(n_max);
    let mut failed = 0;
    for _ in 0..CHECK_CELLS {
        let i = rng.below(POINTS);
        let reference = at_n(base, ns[i]).solve_with(DEFAULT_SAMPLES);
        failed += u64::from(!same_equilibria(&reference, &cells[i]));
    }
    (CHECK_CELLS as u64, failed)
}

struct Setup {
    inputs: Vec<SweepInput>,
    models: Vec<XModel>,
}

/// The warm-up op's input, the same for every seed.
const WARMUP: SweepInput = SweepInput {
    gpu: 1,
    double: false,
    z: 20.0,
    e: 1.5,
    n_max: 48.0,
    cache: Some((16.0, 3.0, 2048.0)),
};

/// Generate the batch's inputs (the set-up `setup_s` times).
fn setup(seed: u64) -> Setup {
    let inputs: Vec<SweepInput> = (0..BATCH as u64)
        .map(|i| SweepInput::generate(seed, i))
        .collect();
    let models: Vec<XModel> = inputs.iter().map(SweepInput::model).collect();
    Setup { inputs, models }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (setups, s) = report::timed_setups(SETUP_REPEATS, || Ok::<_, String>(setup(cfg.seed)))?;
    // One untimed warm-up op lets lazy set-up finish before timing.
    std::hint::black_box(op(&WARMUP.model(), WARMUP.n_max));
    let mut out = Outcome::default();
    let mut tally = cfg.trace.then(Tally::default);
    let input = |index: u64| {
        let i = (index as usize) % BATCH;
        (&s.models[i], s.inputs[i].n_max)
    };
    let m = report::closed_loop(
        cfg.seconds,
        BATCH as u64,
        cfg.trace,
        |index, traced| {
            let (base, n_max) = input(index);
            let t0 = Instant::now();
            match tally.as_mut().filter(|_| traced) {
                Some(t) => {
                    let (cells, (a, b, spans)) = traced_op(base, n_max, t);
                    let secs = t0.elapsed().as_secs_f64();
                    t.ledger.add(a, b, &spans);
                    (secs, cells)
                }
                None => {
                    let cells = op(base, n_max);
                    (t0.elapsed().as_secs_f64(), cells)
                }
            }
        },
        |index, cells| {
            let (base, n_max) = input(index);
            out.record(check(cfg.seed, index, base, n_max, &cells));
        },
    );
    match tally {
        Some(t) => {
            layer_metrics(&mut out, &t, m.traced / m.plain - 1.0);
            out.notes.push(t.ledger.render());
        }
        None => report::end_to_end(
            &mut out,
            &setups,
            (m.cpu, m.cpu_ops),
            &m.windows,
            &m.windows,
        ),
    }
    Ok(out)
}

fn layer_metrics(out: &mut Outcome, t: &Tally, overhead: f64) {
    let l = &t.ledger;
    let builds = l.count("fastpath.table_build");
    let per = |sum: u64, n: u64| if n > 0 { sum as f64 / n as f64 } else { 0.0 };
    let m = &mut out.metrics;
    m.insert(
        "fastpath.table_build_us",
        value(l.mean_us("fastpath.table_build"), builds),
    );
    m.insert(
        "fastpath.table_build_evals",
        value(per(t.build_evals, builds), builds),
    );
    m.insert(
        "fastpath.solve_us",
        value(l.mean_us("fastpath.solve"), t.solves),
    );
    m.insert(
        "fastpath.exact_evals_per_solve",
        value(per(t.solve.f_evals, t.solves), t.solves),
    );
    m.insert(
        "fastpath.interp_evals_per_solve",
        value(per(t.solve.interp_evals, t.solves), t.solves),
    );
    let blocks = t.solve.blocks_skipped + t.solve.blocks_refined;
    m.insert(
        "fastpath.screened_share",
        value(per(t.solve.blocks_skipped, blocks), blocks),
    );
    let runs = l.count("sweep.run");
    m.insert("sweep.run_us", value(l.mean_us("sweep.run"), runs));
    let run_total = l.total("sweep.run");
    let busy = if run_total > 0.0 {
        l.total("fastpath.solve") / (run_total * JOBS as f64)
    } else {
        0.0
    };
    m.insert("sweep.busy_share", value(busy, runs));
    m.insert(
        "trace.unattributed_share",
        value(l.unattributed_share(), runs),
    );
    m.insert("trace.overhead_share", value(overhead, runs));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(seed: u64) -> String {
        (0..256)
            .map(|i| format!("{:?}\n", SweepInput::generate(seed, i)))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(pool(1).as_bytes(), pool(1).as_bytes());
        assert_ne!(pool(1), pool(2));
    }

    #[test]
    fn inputs_cover_the_stated_ranges() {
        let inputs: Vec<SweepInput> = (0..2048).map(|i| SweepInput::generate(3, i)).collect();
        assert!(inputs.iter().all(|i| (1.0..=64.0).contains(&i.z)));
        assert!(inputs.iter().all(|i| (16.0..=64.0).contains(&i.n_max)));
        let cached = inputs.iter().filter(|i| i.cache.is_some()).count();
        assert!((900..1150).contains(&cached), "about half cached: {cached}");
        for i in &inputs {
            i.model();
        }
    }
}
