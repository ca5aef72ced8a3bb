//! `validate`: closed loop, one client. Each op is one
//! `profile::validate::validate_suite(gpu)` call, the §V experiment
//! `xmodel validate` runs. Ops go round-robin over Fermi, Kepler and
//! Maxwell in a seeded order with balanced counts, and every report must
//! equal, bit for bit, the reference recorded for its GPU.

use crate::ledger::{thread_cpu_secs, timed, Ledger, Span};
use crate::report::{self, value, Outcome};
use crate::rng::Rng;
use crate::{presets, Config};
use std::time::Instant;
use xmodel_core::presets::GpuSpec;
use xmodel_obs::json::JsonValue;
use xmodel_profile::fitting::{assemble_model, workload_precision};
use xmodel_profile::sim_config_for;
use xmodel_profile::validate::{validate_suite, AppValidation, ValidationReport};
use xmodel_sim::{simulate, SimWorkload};
use xmodel_workloads::Workload;

/// Reference reports, relative to the repository root.
const REFERENCE_PATH: &str = "perfbench/reference/validate.json";
/// GPU keys of the reference file, in `presets()` order.
const GPU_KEYS: [&str; 3] = ["fermi", "kepler", "maxwell"];
/// Simulator cycles `validate_one` runs per app (warm-up + measure).
const WARMUP_CYCLES: u64 = 15_000;
const MEASURE_CYCLES: u64 = 60_000;
/// Predicted `k / n` at or above which an app counts as memory-bound.
const MEM_BOUND_SHARE: f64 = 0.8;
const SETUP_REPEATS: usize = 5;
/// Ops per pass: one suite per GPU.
const BATCH: u64 = 3;
const STREAM_ORDER: u64 = 3;

/// The GPU (index into `presets()`) of op `index`: every pass of
/// `BATCH` ops visits each GPU once, in the same seeded order.
pub fn gpu_of(seed: u64, index: u64) -> usize {
    let mut order = [0usize, 1, 2];
    Rng::item(seed, STREAM_ORDER, 0).shuffle(&mut order);
    order[(index % BATCH) as usize]
}

fn render_report(rep: &ValidationReport) -> String {
    let apps: Vec<String> = rep
        .apps
        .iter()
        .map(|a| {
            let degraded = match &a.degraded {
                Some(d) => format!("\"{d}\""),
                None => "null".to_string(),
            };
            format!(
                "      {{\"name\": \"{}\", \"predicted_cs\": {}, \"measured_cs\": {}, \
                 \"predicted_ms\": {}, \"measured_ms\": {}, \"predicted_k\": {}, \
                 \"measured_k\": {}, \"n\": {}, \"degraded\": {degraded}}}",
                a.name,
                a.predicted_cs,
                a.measured_cs,
                a.predicted_ms,
                a.measured_ms,
                a.predicted_k,
                a.measured_k,
                a.n
            )
        })
        .collect();
    format!(
        "{{\"mean_accuracy\": {}, \"apps\": [\n{}\n    ]}}",
        rep.mean_accuracy(),
        apps.join(",\n")
    )
}

/// Rewrite the reference file from the current code.
pub fn record_reference() -> Result<(), String> {
    let mut parts = Vec::new();
    for (key, spec) in GPU_KEYS.iter().zip(presets()) {
        let rep = validate_suite(&spec).map_err(|e| format!("validate {key}: {e}"))?;
        parts.push(format!("  \"{key}\": {}", render_report(&rep)));
    }
    let text = format!("{{\n{}\n}}\n", parts.join(",\n"));
    std::fs::write(REFERENCE_PATH, text).map_err(|e| format!("{REFERENCE_PATH}: {e}"))?;
    println!("wrote {REFERENCE_PATH}");
    Ok(())
}

/// The recorded reports, one per GPU in `presets()` order.
fn load_reference() -> Result<Vec<JsonValue>, String> {
    let text =
        std::fs::read_to_string(REFERENCE_PATH).map_err(|e| format!("{REFERENCE_PATH}: {e}"))?;
    let json = xmodel_obs::json::parse(&text).map_err(|e| format!("{REFERENCE_PATH}: {e}"))?;
    GPU_KEYS
        .iter()
        .map(|key| {
            json.get(key)
                .cloned()
                .ok_or_else(|| format!("{REFERENCE_PATH}: no `{key}` report"))
        })
        .collect()
}

/// Does `rep` equal the reference, bit for bit, in every per-app
/// predicted and measured value and in the mean accuracy?
pub fn matches_reference(rep: &ValidationReport, reference: &JsonValue) -> bool {
    let bits = |j: &JsonValue, key: &str| j.get(key).and_then(JsonValue::as_f64).map(f64::to_bits);
    let Some(JsonValue::Array(apps)) = reference.get("apps") else {
        return false;
    };
    bits(reference, "mean_accuracy") == Some(rep.mean_accuracy().to_bits())
        && apps.len() == rep.apps.len()
        && apps.iter().zip(&rep.apps).all(|(want, got)| {
            want.get("name").and_then(JsonValue::as_str) == Some(got.name.as_str())
                && want.get("degraded").and_then(JsonValue::as_str) == got.degraded.as_deref()
                && [
                    ("predicted_cs", got.predicted_cs),
                    ("measured_cs", got.measured_cs),
                    ("predicted_ms", got.predicted_ms),
                    ("measured_ms", got.measured_ms),
                    ("predicted_k", got.predicted_k),
                    ("measured_k", got.measured_k),
                    ("n", got.n),
                ]
                .iter()
                .all(|(key, v)| bits(want, key) == Some(v.to_bits()))
        })
}

/// Per-layer tallies of the traced pass.
#[derive(Default)]
struct Tally {
    ledger: Ledger,
    /// `(Σ cycles, Σ simulate CPU seconds)` of memory-bound and
    /// compute-bound apps.
    mem: (f64, f64),
    compute: (f64, f64),
    requests: u64,
    /// Σ app CPU seconds.
    app_cpu: f64,
    app_max_us: Vec<f64>,
}

/// What one traced app reports besides its result and spans.
#[derive(Default, Clone, Copy)]
struct AppCost {
    /// CPU seconds of the whole app and of its simulation.
    app_cpu: f64,
    sim_cpu: f64,
    requests: u64,
}

/// `validate_one`, with a span around each public call it makes.
fn traced_app(
    spec: &GpuSpec,
    w: &Workload,
) -> (xmodel_core::Result<AppValidation>, Vec<Span>, AppCost) {
    let app_start = Instant::now();
    let cpu_start = thread_cpu_secs();
    let (model, assemble) = timed("profile.assemble_model", 2, || assemble_model(spec, w, 0));
    let (resolved, resolve) = timed("degrade.resolve", 2, || model.resolve_operating_point());
    let resolved = match resolved {
        Ok(r) => r,
        Err(e) => return (Err(e), vec![assemble, resolve], AppCost::default()),
    };
    let precision = workload_precision(w);
    let mut cfg = sim_config_for(spec, precision);
    cfg.request_bytes = 128.0 * w.coalesce;
    let wl = SimWorkload {
        trace: w.trace,
        ops_per_request: model.workload.z,
        ilp: model.workload.e,
        warps: model.workload.n as u32,
    };
    let sim_cpu_start = thread_cpu_secs();
    let (stats, sim) = timed("sim.simulate", 2, || {
        simulate(&cfg, &wl, WARMUP_CYCLES, MEASURE_CYCLES)
    });
    let cpu_end = thread_cpu_secs();
    let op = resolved.point;
    let app = AppValidation {
        name: w.name.to_string(),
        predicted_cs: op.cs_throughput,
        measured_cs: stats.cs_throughput(),
        predicted_ms: op.ms_throughput,
        measured_ms: stats.ms_throughput(),
        predicted_k: op.k,
        measured_k: stats.avg_k(),
        n: model.workload.n,
        degraded: resolved
            .degradation
            .is_degraded()
            .then(|| resolved.degradation.as_str().to_string()),
    };
    let whole = Span::new("validate.app", 1, app_start, Instant::now());
    // Without per-thread CPU time, fall back to the wall-clock spans.
    let cpu = |from: Option<f64>, span: &Span| match (from, cpu_end) {
        (Some(a), Some(b)) => b - a,
        _ => span.secs(),
    };
    let cost = AppCost {
        app_cpu: cpu(cpu_start, &whole),
        sim_cpu: cpu(sim_cpu_start, &sim),
        requests: stats.requests_completed,
    };
    (Ok(app), vec![whole, assemble, resolve, sim], cost)
}

/// `validate_suite` rebuilt from traced apps, one thread per app as the
/// suite runs them. Returns the report (`None` on any error) and the
/// root span's bounds and layer spans for the ledger.
fn traced_suite(
    spec: &GpuSpec,
    suite: &[Workload],
    tally: &mut Tally,
) -> (Option<ValidationReport>, (Instant, Instant, Vec<Span>)) {
    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = suite
            .iter()
            .map(|w| scope.spawn(move || traced_app(spec, w)))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let end = Instant::now();
    let mut spans = Vec::new();
    let mut apps = Vec::new();
    let mut max_app = 0.0f64;
    let mut ok = true;
    for result in results {
        let Ok((app, app_spans, cost)) = result else {
            ok = false;
            continue;
        };
        if let (Ok(app), Some(whole)) = (&app, app_spans.first()) {
            let cycles = (WARMUP_CYCLES + MEASURE_CYCLES) as f64;
            let bucket = if app.predicted_k / app.n >= MEM_BOUND_SHARE {
                &mut tally.mem
            } else {
                &mut tally.compute
            };
            bucket.0 += cycles;
            bucket.1 += cost.sim_cpu;
            tally.requests += cost.requests;
            tally.app_cpu += cost.app_cpu;
            max_app = max_app.max(whole.secs());
        }
        spans.extend(app_spans);
        match app {
            Ok(app) => apps.push(app),
            Err(_) => ok = false,
        }
    }
    tally.app_max_us.push(max_app * 1e6);
    (ok.then_some(ValidationReport { apps }), (start, end, spans))
}

struct Setup {
    reference: Vec<JsonValue>,
    suite: Vec<Workload>,
}

/// Load the reference and the suite, then run one warm-up suite on
/// Kepler (the paper's GPU) whatever the seed, so lazy set-up finishes
/// before timing.
fn setup() -> Result<Setup, String> {
    let s = Setup {
        reference: load_reference()?,
        suite: Workload::suite(),
    };
    validate_suite(&GpuSpec::kepler_k40()).map_err(|e| format!("warm-up validate: {e}"))?;
    Ok(s)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (setups, s) = report::timed_setups(SETUP_REPEATS, setup)?;
    let specs = presets();
    let mut out = Outcome::default();
    let mut tally = cfg.trace.then(Tally::default);
    let m = report::closed_loop(
        cfg.seconds,
        BATCH,
        cfg.trace,
        |index, traced| {
            let gpu = gpu_of(cfg.seed, index);
            let t0 = Instant::now();
            match tally.as_mut().filter(|_| traced) {
                Some(t) => {
                    let (rep, (a, b, spans)) = traced_suite(&specs[gpu], &s.suite, t);
                    let secs = t0.elapsed().as_secs_f64();
                    t.ledger.add(a, b, &spans);
                    (secs, rep)
                }
                None => {
                    let rep = validate_suite(&specs[gpu]).ok();
                    (t0.elapsed().as_secs_f64(), rep)
                }
            }
        },
        |index, rep| {
            let reference = &s.reference[gpu_of(cfg.seed, index)];
            let ok = rep.is_some_and(|rep| matches_reference(&rep, reference));
            out.record((1, u64::from(!ok)));
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
    let sims = l.count("sim.simulate");
    let suites = t.app_max_us.len() as u64;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let rate = |(cycles, secs): (f64, f64)| if secs > 0.0 { cycles / secs } else { 0.0 };
    let m = &mut out.metrics;
    m.insert("sim.simulate_us", value(l.mean_us("sim.simulate"), sims));
    m.insert("sim.cycles_per_s.mem", value(rate(t.mem), sims));
    m.insert("sim.cycles_per_s.compute", value(rate(t.compute), sims));
    let per_sim = if sims > 0 {
        t.requests as f64 / sims as f64
    } else {
        0.0
    };
    m.insert("sim.requests", value(per_sim, sims));
    let busy = if l.wall() > 0.0 {
        t.app_cpu / (l.wall() * cores)
    } else {
        0.0
    };
    m.insert("validate.worker_busy_share", value(busy, suites));
    let app_max = if suites > 0 {
        t.app_max_us.iter().sum::<f64>() / suites as f64
    } else {
        0.0
    };
    m.insert("validate.app_us_max", value(app_max, suites));
    m.insert(
        "profile.assemble_model_us",
        value(
            l.mean_us("profile.assemble_model"),
            l.count("profile.assemble_model"),
        ),
    );
    m.insert(
        "degrade.resolve_us",
        value(l.mean_us("degrade.resolve"), l.count("degrade.resolve")),
    );
    m.insert(
        "trace.unattributed_share",
        value(l.unattributed_share(), suites),
    );
    m.insert("trace.overhead_share", value(overhead, suites));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(seed: u64) -> Vec<usize> {
        (0..30).map(|i| gpu_of(seed, i)).collect()
    }

    #[test]
    fn gpu_order_is_seeded_and_balanced() {
        assert_eq!(order(1), order(1));
        assert!((1..20).any(|seed| order(seed) != order(0)));
        for pass in order(5).chunks(BATCH as usize) {
            let mut b = pass.to_vec();
            b.sort_unstable();
            assert_eq!(b, [0, 1, 2]);
        }
    }
}
