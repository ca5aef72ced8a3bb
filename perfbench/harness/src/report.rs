//! Metric bookkeeping shared by the workloads: quantiles, the
//! end-to-end metric set, peak RSS, and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

/// Every end-to-end metric, with its unit, in report order. The
/// BENCHMARK.json `end_to_end` list names the same metrics. They are
/// the ones whose spread between runs of the same code stayed inside a
/// usable bound on a shared two-core host whose CPU steal swings between
/// under 5% and 30%: CPU time leaves steal out, and memory is not timed.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics printed in the human-readable report but not in
/// the result line: wall-clock timings, whose spread on that host
/// exceeded the largest bound BENCHMARK.json allows.
pub const PRINTED_ONLY: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Every per-layer metric of the traced run, with its unit. Each
/// workload reports all of them; a layer the workload does not call
/// reads 0 with 0 samples. The BENCHMARK.json `per_layer` list names the
/// same metrics.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("fastpath.table_build_us", "us"),
    ("fastpath.table_build_evals", "count"),
    ("fastpath.solve_us", "us"),
    ("fastpath.exact_evals_per_solve", "count"),
    ("fastpath.interp_evals_per_solve", "count"),
    ("fastpath.screened_share", "ratio"),
    ("sweep.run_us", "us"),
    ("sweep.busy_share", "ratio"),
    ("serve.connect_us", "us"),
    ("serve.handler_us", "us"),
    ("serve.transport_share", "ratio"),
    ("obs.json_parse_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.table_builds_per_1k", "count"),
    ("serve.evictions_per_1k", "count"),
    ("whatif.evaluate_us", "us"),
    ("serve.shed", "count"),
    ("serve.deadline_exceeded", "count"),
    ("serve.forced_degrade", "count"),
    ("sim.simulate_us", "us"),
    ("sim.cycles_per_s.mem", "1/s"),
    ("sim.cycles_per_s.compute", "1/s"),
    ("sim.requests", "count"),
    ("validate.worker_busy_share", "ratio"),
    ("validate.app_us_max", "us"),
    ("profile.assemble_model_us", "us"),
    ("degrade.resolve_us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: u64,
}

pub fn value(value: f64, samples: u64) -> Value {
    Value { value, samples }
}

/// What one run of a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the measured region.
    pub attempted: u64,
    /// Ops that failed: an error, a non-2xx answer or a failed check.
    pub failed: u64,
    /// Output checks run and failed, over every op checked.
    pub checks_run: u64,
    pub checks_failed: u64,
    /// Metrics by name (end-to-end ones untraced, per-layer ones traced).
    pub metrics: BTreeMap<&'static str, Value>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

/// Linear-interpolated quantile of sorted data; 0 for no data.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        len => {
            let pos = q.clamp(0.0, 1.0) * (len - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(len - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Peak resident set size of this process (VmHWM), MB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Each workload repeats the same batch of seeded ops (for serve, the
/// same traffic) in passes, one window per pass, for the whole run. Each
/// wall-clock timing is the value of the run's best pass (highest
/// `ops_per_s`, lowest latency percentile): the passes do identical
/// work, and interference from other tenants of the host only ever slows
/// a pass down, so the best pass is the steadiest view of the program.
/// Every pass's value is printed beside it.
///
/// The ops of one pass: their latencies and the time they took
/// (summed op time for a closed loop with one client, the window's wall
/// time otherwise).
#[derive(Debug, Default, Clone)]
pub struct Window {
    pub latencies_ms: Vec<f64>,
    pub seconds: f64,
}

impl Window {
    pub fn record(&mut self, secs: f64) {
        self.latencies_ms.push(secs * 1e3);
        self.seconds += secs;
    }
}

/// CPU time this process has used, all threads (live and exited)
/// together, in seconds, from `/proc/self/stat`. Time the host stole
/// from the VM is not counted. `None` where that file is missing.
pub fn process_cpu_secs() -> Option<f64> {
    // utime and stime are fields 14 and 15, in USER_HZ (100) ticks; the
    // command name before them may contain spaces, so count from `)`.
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// CPU nanoseconds of each live thread of this process, by thread id,
/// from `/proc/self/task/*/schedstat` (steal left out); `None` where
/// those files are missing.
fn thread_cpu_ns() -> Option<BTreeMap<u64, u64>> {
    // The kernel brings the running thread's count up to date only at a
    // tick or a switch; yielding forces one.
    std::thread::yield_now();
    let mut threads = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let task = task.ok()?;
        let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) else {
            continue;
        };
        // A thread may exit between the listing and the read.
        if let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) {
            threads.insert(tid, text.split_whitespace().next()?.parse().ok()?);
        }
    }
    Some(threads)
}

/// Measures the CPU time this process spends from `start` to `secs`,
/// leaving out time the host stole. It sums the live threads' counts,
/// which have nanosecond resolution but lose a thread that exits in
/// between; when the process-wide count (which keeps exited threads but
/// moves in 10 ms ticks) grew by more than two ticks over that sum,
/// threads did exit and the process-wide count is used instead. Where
/// per-thread CPU time is unavailable, wall time stands in.
pub struct CpuClock {
    wall: Instant,
    threads: Option<BTreeMap<u64, u64>>,
    process: Option<f64>,
}

impl CpuClock {
    pub fn start() -> Self {
        // Read the coarse count first so the precise one sits closest
        // to the measured stretch.
        let process = process_cpu_secs();
        CpuClock {
            wall: Instant::now(),
            threads: thread_cpu_ns(),
            process,
        }
    }

    pub fn secs(&self) -> f64 {
        let live = match (&self.threads, thread_cpu_ns()) {
            (Some(before), Some(after)) => {
                let ns: u64 = after
                    .iter()
                    .map(|(tid, ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
                    .sum();
                ns as f64 / 1e9
            }
            _ => return self.wall.elapsed().as_secs_f64(),
        };
        match (self.process, process_cpu_secs()) {
            (Some(a), Some(b)) if b - a > live + 0.02 => b - a,
            _ => live,
        }
    }
}

/// Run `setup` `repeats` times (at least once); returns the CPU seconds
/// each took (see [`CpuClock`]) and the last set-up's result. Set-up is
/// timed in CPU time, which work moved into set-up shows in and the
/// host's steal does not.
pub fn timed_setups<T, E>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, E>,
) -> Result<(Vec<f64>, T), E> {
    let mut times = Vec::with_capacity(repeats.max(1));
    loop {
        let clock = CpuClock::start();
        let built = setup()?;
        times.push(clock.secs());
        if times.len() >= repeats {
            return Ok((times, built));
        }
    }
}

/// What a closed-loop run saw.
#[derive(Debug, Default)]
pub struct Measured {
    /// Untraced op times, one window per complete pass.
    pub windows: Vec<Window>,
    /// Σ untraced and Σ traced op time, seconds.
    pub plain: f64,
    pub traced: f64,
    /// Process CPU seconds spent in untraced ops, and their count.
    pub cpu: f64,
    pub cpu_ops: u64,
}

/// Closed loop with one client: run ops `0, 1, 2, ...` for `seconds`,
/// in passes of `batch` ops; op `i` repeats op `i % batch`.
/// `run(index, traced)` runs op `index` and returns the seconds the op
/// itself took and its output, which `check(index, output)` then checks
/// untimed. When `traced`, each op runs twice, untraced and traced, in
/// alternating order so neither run gains from the other's warm caches;
/// the two sums then compare the same ops under the same conditions. An
/// unfinished last pass is dropped from the windows unless it is the
/// only one.
pub fn closed_loop<T>(
    seconds: f64,
    batch: u64,
    traced: bool,
    mut run: impl FnMut(u64, bool) -> (f64, T),
    mut check: impl FnMut(u64, T),
) -> Measured {
    let batch = batch.max(1);
    let mut m = Measured::default();
    let start = Instant::now();
    let mut index = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        if index.is_multiple_of(batch) {
            m.windows.push(Window::default());
        }
        let runs: &[bool] = match (traced, index % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced_run in runs {
            let cpu_before = process_cpu_secs();
            let (secs, output) = run(index, traced_run);
            if traced_run {
                m.traced += secs;
            } else {
                if let (Some(a), Some(b)) = (cpu_before, process_cpu_secs()) {
                    m.cpu += b - a;
                    m.cpu_ops += 1;
                }
                if let Some(window) = m.windows.last_mut() {
                    window.record(secs);
                }
                m.plain += secs;
            }
            check(index, output);
        }
        index += 1;
    }
    if m.windows.len() > 1 && !index.is_multiple_of(batch) {
        m.windows.pop();
    }
    m
}

/// Record the end-to-end metrics: `setup_s` as the median of `setups`
/// (CPU seconds each), `cpu_ms_per_op` from `(CPU seconds, ops)`,
/// `ops_per_s` as the best of the `throughput` passes, each latency
/// percentile as the best of the `latency` passes' percentiles, and
/// `peak_rss_mb`.
pub fn end_to_end(
    out: &mut Outcome,
    setups: &[f64],
    (cpu, cpu_ops): (f64, u64),
    throughput: &[Window],
    latency: &[Window],
) {
    let show = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let ops: usize = throughput.iter().map(|w| w.latencies_ms.len()).sum();
    let rates: Vec<f64> = throughput
        .iter()
        .filter(|w| w.seconds > 0.0)
        .map(|w| w.latencies_ms.len() as f64 / w.seconds)
        .collect();
    out.metrics
        .insert("setup_s", value(median(setups), setups.len() as u64));
    let micros: Vec<f64> = setups.iter().map(|s| s * 1e6).collect();
    out.notes
        .push(format!("setup_s by set-up, us: {}", show(&micros)));
    let per_op = if cpu_ops > 0 {
        cpu / cpu_ops as f64
    } else {
        0.0
    };
    out.metrics
        .insert("cpu_ms_per_op", value(per_op * 1e3, cpu_ops));
    out.metrics.insert(
        "ops_per_s",
        value(rates.iter().copied().fold(0.0, f64::max), ops as u64),
    );
    out.notes
        .push(format!("ops_per_s by pass: {}", show(&rates)));
    let sorted: Vec<Vec<f64>> = latency
        .iter()
        .filter(|w| !w.latencies_ms.is_empty())
        .map(|w| {
            let mut v = w.latencies_ms.clone();
            v.sort_by(f64::total_cmp);
            v
        })
        .collect();
    let n: usize = sorted.iter().map(Vec::len).sum();
    for (name, q) in [("latency_p50_ms", 0.50), ("latency_p90_ms", 0.90)] {
        let per_window: Vec<f64> = sorted.iter().map(|v| quantile(v, q)).collect();
        let best = per_window.iter().copied().fold(f64::INFINITY, f64::min);
        out.metrics.insert(
            name,
            value(if best.is_finite() { best } else { 0.0 }, n as u64),
        );
        out.notes
            .push(format!("{name} by pass: {}", show(&per_window)));
    }
    // p99 over every pass's ops pooled, printed only.
    let mut pooled: Vec<f64> = sorted.concat();
    pooled.sort_by(f64::total_cmp);
    out.metrics
        .insert("latency_p99_ms", value(quantile(&pooled, 0.99), n as u64));
    out.metrics.insert("peak_rss_mb", value(peak_rss_mb(), 1));
}

/// Shortest round-trip form of a finite number; `null` otherwise.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Outcome {
    /// Count one attempted op whose output checks gave `(run, failed)`.
    pub fn record(&mut self, (run, failed): (u64, u64)) {
        self.attempted += 1;
        self.checks_run += run;
        self.checks_failed += failed;
        self.failed += u64::from(failed > 0);
    }

    /// Every op completed and every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks_failed == 0 && self.attempted > 0
    }

    /// `(prefix + name, unit, value)` for each metric of `names`, 0 when
    /// the workload did not measure it.
    pub fn entries(
        &self,
        names: &[(&str, &'static str)],
        prefix: &str,
    ) -> Vec<(String, &'static str, f64)> {
        names
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).map_or(0.0, |v| v.value);
                (format!("{prefix}{name}"), *unit, v)
            })
            .collect()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The human-readable report: each metric with its unit and sample
/// count, the error rate and the output checks.
pub fn render(workload: &str, out: &Outcome, names: &[(&str, &str)]) -> String {
    let mut text = format!("workload {workload}\n");
    for (name, unit) in names {
        let v = out.metrics.get(name).copied().unwrap_or(value(0.0, 0));
        text.push_str(&format!(
            "  {name:<32} {:>16.6} {unit:<6} (n={})\n",
            v.value, v.samples
        ));
    }
    for (name, unit) in PRINTED_ONLY {
        if let Some(v) = out.metrics.get(name) {
            text.push_str(&format!(
                "  {name:<32} {:>16.6} {unit:<6} (n={}, printed only)\n",
                v.value, v.samples
            ));
        }
    }
    let error_rate = if out.attempted > 0 {
        out.failed as f64 / out.attempted as f64
    } else {
        0.0
    };
    text.push_str(&format!(
        "  {:<32} {:>16.6} {:<6} (failed {} of {} attempted)\n",
        "error_rate", error_rate, "ratio", out.failed, out.attempted
    ));
    text.push_str(&format!(
        "  output checks: {} run, {} failed\n",
        out.checks_run, out.checks_failed
    ));
    for note in &out.notes {
        text.push_str(&format!("  {note}\n"));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&data, 0.5), 3.0);
        assert_eq!(quantile(&data, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    /// The metric lists here and in BENCHMARK.json must agree, or the
    /// result line would miss a metric the benchmark definition names.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = xmodel_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match json.get(key) {
                Some(xmodel_obs::json::JsonValue::Array(items)) => items
                    .iter()
                    .map(|m| {
                        let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("");
                        (field("name").to_string(), field("unit").to_string())
                    })
                    .collect(),
                _ => Vec::new(),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }
}
