//! `serve`: an in-process `core::serve::Server` (default config but two
//! workers, `NullSink` installed as `xmodel serve` does), driven over
//! HTTP on localhost in two phases:
//!
//! - capacity: closed loop on two connections, as fast as the server
//!   answers; gives `ops_per_s`;
//! - fixed rate: open loop, Poisson arrivals at 400 req/s, at most two
//!   connections in flight, each request timed from when it was due;
//!   gives the latency percentiles.
//!
//! The mix is 80% `/solve`, 10% `/sweep` (64 points) and 10% `/whatif`
//! over 64 cached supply curves with Zipf popularity, so the daemon's
//! 8 shards x 4 slots of table cache see both hits and evictions.
//!
//! The traced run times connect and exchange on the client, then replays
//! the same request stream in-process through the calls the handlers
//! make (`obs::json::parse`, `ShardedSolveCache::solve_with`,
//! `CurveTable::build` + `solve_fast`, `WhatIf`) to split the server's
//! share by layer.

use crate::check::{json_point_matches, status_ok};
use crate::ledger::{timed, Ledger, Span};
use crate::report::{self, quantile, value, Outcome, Window};
use crate::rng::{Rng, Zipf};
use crate::{presets, Config};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xmodel_core::cache::CacheParams;
use xmodel_core::degrade::{self, DegradeForce};
use xmodel_core::fastpath::{solve_fast_stats, CurveTable, SolveStats};
use xmodel_core::params::WorkloadParams;
use xmodel_core::presets::Precision;
use xmodel_core::serve::{ServeConfig, ServeReport, Server, ShardedSolveCache};
use xmodel_core::solver::DEFAULT_SAMPLES;
use xmodel_core::whatif::{Optimization, WhatIf};
use xmodel_core::XModel;
use xmodel_obs::json::JsonValue;

const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
/// Fixed-rate phase arrival rate, requests per second.
const RATE: f64 = 400.0;
const CURVES: usize = 64;
const SWEEP_POINTS: usize = 64;
/// `/sweep` rows per response checked against the dense reference.
const SWEEP_CHECK_ROWS: usize = 4;
/// Requests sent at set-up, before timing starts.
const WARMUP_REQUESTS: u64 = 64;
const SETUP_REPEATS: usize = 3;
/// Share of `--seconds` given to the capacity phase (the rest is the
/// fixed-rate phase).
const CAPACITY_SHARE: f64 = 0.4;
/// Rounds per run, each one capacity and one fixed-rate window
/// replaying the same traffic.
const ROUNDS: usize = 10;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);
/// Table-cache shards of the default server config, reproduced by the
/// replay's own cache.
const SHARDS: usize = 8;

const STREAM_CURVES: u64 = 10;
const STREAM_REQUEST: u64 = 11;
const STREAM_WARMUP: u64 = 12;
const STREAM_ARRIVALS: u64 = 13;
const STREAM_POPULARITY: u64 = 14;
const STREAM_CHECK: u64 = 15;
/// Request indices of the fixed-rate phase start here, apart from the
/// capacity phase's.
const FIXED_RATE_BASE: u64 = 1 << 32;

const GPU_NAMES: [&str; 3] = ["fermi", "kepler", "maxwell"];

/// One supply curve: a Table II preset (single precision) with an
/// Eq. (5) L1 cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Curve {
    pub gpu: usize,
    pub l1_kib: f64,
    pub alpha: f64,
    pub beta: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Solve,
    Sweep,
    WhatIf,
}

/// One request of the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Req {
    pub route: Route,
    pub curve: usize,
    pub z: f64,
    pub e: f64,
    pub n: f64,
}

/// The seeded inputs of one run: the curves and their popularity.
#[derive(Debug, Clone)]
pub struct Inputs {
    seed: u64,
    pub curves: Vec<Curve>,
    /// `rank_to_curve[r]` is the curve of popularity rank `r`.
    rank_to_curve: Vec<usize>,
    zipf: Zipf,
}

impl Inputs {
    pub fn generate(seed: u64) -> Self {
        let curves = (0..CURVES as u64)
            .map(|i| {
                let mut rng = Rng::item(seed, STREAM_CURVES, i);
                Curve {
                    gpu: rng.below(3),
                    l1_kib: [16.0, 32.0, 48.0][rng.below(3)],
                    alpha: rng.uniform(1.5, 6.0),
                    beta: rng.log_uniform(256.0, 8192.0),
                }
            })
            .collect();
        let mut rank_to_curve: Vec<usize> = (0..CURVES).collect();
        Rng::item(seed, STREAM_POPULARITY, 0).shuffle(&mut rank_to_curve);
        Inputs {
            seed,
            curves,
            rank_to_curve,
            zipf: Zipf::new(CURVES),
        }
    }

    /// Request `index` of input stream `stream`.
    pub fn request(&self, stream: u64, index: u64) -> Req {
        let mut rng = Rng::item(self.seed, stream, index);
        let route = match rng.below(10) {
            0 => Route::Sweep,
            1 => Route::WhatIf,
            _ => Route::Solve,
        };
        let curve = self.rank_to_curve[self.zipf.pick(&mut rng)];
        Req {
            route,
            curve,
            z: rng.log_uniform(1.0, 64.0),
            e: rng.uniform(1.0, 4.0),
            n: rng.log_uniform(1.0, 2048.0),
        }
    }

    /// The request's JSON body, in the daemon's request grammar.
    pub fn body(&self, req: &Req) -> String {
        let c = &self.curves[req.curve];
        let demand = match req.route {
            Route::Sweep => format!("\"n_max\":{},\"points\":{SWEEP_POINTS}", req.n),
            _ => format!("\"n\":{}", req.n),
        };
        format!(
            "{{\"gpu\":\"{}\",\"z\":{},\"e\":{},{demand},\"l1_kib\":{},\"alpha\":{},\"beta\":{}}}",
            GPU_NAMES[c.gpu], req.z, req.e, c.l1_kib, c.alpha, c.beta
        )
    }

    /// The whole HTTP request.
    pub fn http(&self, req: &Req) -> String {
        let path = match req.route {
            Route::Solve => "/solve",
            Route::Sweep => "/sweep",
            Route::WhatIf => "/whatif",
        };
        let body = self.body(req);
        format!(
            "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    /// The model the daemon builds from the request body (same
    /// defaults: single precision, 30-cycle L1 latency).
    pub fn model(&self, req: &Req) -> XModel {
        let c = &self.curves[req.curve];
        let machine = presets()[c.gpu].machine_params(Precision::Single);
        let workload = WorkloadParams::try_new(req.z, req.e, req.n)
            .expect("generated workloads lie inside the model's domain");
        let cache = CacheParams::try_new(c.l1_kib * 1024.0, 30.0, c.alpha, c.beta)
            .expect("generated caches lie inside the model's domain");
        XModel::with_cache(machine, workload, cache)
    }
}

/// The `/whatif` handler's candidate list for `model`.
fn whatif_candidates(what_if: &WhatIf, model: &XModel) -> Vec<(&'static str, Optimization)> {
    let mut out = Vec::new();
    if let Some(n) = what_if.optimal_throttle() {
        out.push(("throttle", Optimization::ThreadThrottle { n }));
    }
    out.push((
        "bypass",
        Optimization::CacheBypass {
            r: model.machine.r * 3.0,
        },
    ));
    out.push((
        "intensity",
        Optimization::IncreaseIntensity {
            z: model.workload.z * 2.0,
        },
    ));
    out.push((
        "reduce-ilp",
        Optimization::ReduceIlp {
            e: model.workload.e * 0.5,
        },
    ));
    if let Some(cache) = model.cache {
        out.push((
            "enlarge-cache",
            Optimization::EnlargeCache {
                s_cache: cache.s_cache * 3.0,
            },
        ));
    }
    out
}

/// `/sweep` row `i` of `points` over `[1, n_max]`, as the handler grids.
fn sweep_n(n_max: f64, i: usize) -> f64 {
    1.0 + (n_max - 1.0) * i as f64 / (SWEEP_POINTS - 1) as f64
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Answer {
    pub index: u64,
    pub status: u16,
    pub body: String,
}

/// One client-side exchange: connect, send, read to close. Status 0
/// means the transport failed.
fn exchange(addr: SocketAddr, request: &[u8]) -> (u16, String, Instant) {
    let start = Instant::now();
    let result = (|| -> std::io::Result<(String, Instant)> {
        let mut stream = TcpStream::connect(addr)?;
        let connected = Instant::now();
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        stream.write_all(request)?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        Ok((String::from_utf8_lossy(&raw).into_owned(), connected))
    })();
    match result {
        Ok((text, connected)) => {
            let status = text
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse::<u16>().ok())
                .unwrap_or(0);
            let body = text
                .split_once("\r\n\r\n")
                .map_or(String::new(), |(_, b)| b.to_string());
            (status, body, connected)
        }
        Err(_) => (0, String::new(), start),
    }
}

/// What one client thread saw: answers, latencies (ms), lateness (ms,
/// fixed rate only) and, in the traced run, the spans of each traced
/// request and the summed latencies of untraced and traced requests.
#[derive(Default)]
struct ClientLog {
    answers: Vec<Answer>,
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    roots: Vec<(Instant, Instant, [Span; 2])>,
    plain_secs: f64,
    traced_secs: f64,
}

impl ClientLog {
    fn merge(logs: Vec<ClientLog>) -> ClientLog {
        let mut all = ClientLog::default();
        for log in logs {
            all.answers.extend(log.answers);
            all.latencies_ms.extend(log.latencies_ms);
            all.late_ms.extend(log.late_ms);
            all.roots.extend(log.roots);
            all.plain_secs += log.plain_secs;
            all.traced_secs += log.traced_secs;
        }
        all.answers.sort_by_key(|a| a.index);
        all
    }
}

/// Send request `index` and log it; `due` is when it was due to be
/// sent (closed loop: when the client chose to send it).
fn send(
    inputs: &Inputs,
    addr: SocketAddr,
    index: u64,
    due: Instant,
    traced: bool,
    log: &mut ClientLog,
) {
    let req = inputs.request(STREAM_REQUEST, index);
    let bytes = inputs.http(&req);
    let start = Instant::now();
    let (status, body, connected) = exchange(addr, bytes.as_bytes());
    let end = Instant::now();
    let latency = end.saturating_duration_since(due).as_secs_f64();
    log.latencies_ms.push(latency * 1e3);
    if traced {
        log.traced_secs += latency;
        log.roots.push((
            start,
            end,
            [
                Span::new("serve.connect", 1, start, connected),
                Span::new("serve.exchange", 1, connected, end),
            ],
        ));
    } else {
        log.plain_secs += latency;
    }
    log.answers.push(Answer {
        index,
        status,
        body,
    });
}

/// Closed loop on `CONNECTIONS` clients for `seconds`, sending requests
/// `0, 1, 2, ...` of the stream. Traced, odd requests carry client spans
/// and even ones do not, so the two latency sums compare requests drawn
/// from the same stream. Returns the log and the phase's wall time.
fn capacity_phase(
    inputs: &Inputs,
    addr: SocketAddr,
    seconds: f64,
    traced: bool,
) -> (ClientLog, f64) {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut log = ClientLog::default();
                    while start.elapsed().as_secs_f64() < seconds {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let spans = traced && index % 2 == 1;
                        send(inputs, addr, index, Instant::now(), spans, &mut log);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    (ClientLog::merge(logs), start.elapsed().as_secs_f64())
}

/// Open loop: Poisson arrivals at `RATE` for `seconds`, at most
/// `CONNECTIONS` requests in flight. A request whose sender is still
/// busy waits, and its latency counts from when it was due. Arrival
/// times and requests are the same in every call.
fn fixed_rate_phase(inputs: &Inputs, addr: SocketAddr, seconds: f64) -> ClientLog {
    let mut offsets = Vec::new();
    let mut t = 0.0;
    let mut arrivals = Rng::item(inputs.seed, STREAM_ARRIVALS, 0);
    loop {
        t += arrivals.exp(RATE);
        if t >= seconds {
            break;
        }
        offsets.push(t);
    }
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut log = ClientLog::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let Some(offset) = offsets.get(i) else {
                            return log;
                        };
                        let due = start + Duration::from_secs_f64(*offset);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        log.late_ms.push(
                            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3,
                        );
                        send(
                            inputs,
                            addr,
                            FIXED_RATE_BASE + i as u64,
                            due,
                            false,
                            &mut log,
                        );
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    ClientLog::merge(logs)
}

/// Check every answer of a phase into `out`.
fn check_all(inputs: &Inputs, answers: &[Answer], out: &mut Outcome) {
    for answer in answers {
        out.record(check_answer(inputs, answer));
    }
}

/// Check one answer against the dense reference (or, for `/whatif`,
/// against the same evaluation in-process). Returns `(checks run,
/// checks failed)`; any failure fails the request.
pub fn check_answer(inputs: &Inputs, answer: &Answer) -> (u64, u64) {
    if !status_ok(answer.status) {
        return (1, 1);
    }
    let Ok(json) = xmodel_obs::json::parse(&answer.body) else {
        return (1, 1);
    };
    let req = inputs.request(STREAM_REQUEST, answer.index);
    let model = inputs.model(&req);
    let degradation = json.get("degradation").and_then(JsonValue::as_str);
    match req.route {
        Route::Solve => {
            let dense = model.solve_with(DEFAULT_SAMPLES);
            let ok = match dense
                .operating_point()
                .filter(|p| p.k.is_finite() && p.ms_throughput.is_finite())
            {
                Some(p) => {
                    degradation == Some("exact")
                        && json.get("roots").and_then(JsonValue::as_u64)
                            == Some(dense.points().len() as u64)
                        && json
                            .get("point")
                            .is_some_and(|pt| json_point_matches(pt, &p))
                }
                // No exact operating point: the answer must say which
                // lower rung produced it.
                None => degradation.is_some_and(|d| d != "exact"),
            };
            (1, u64::from(!ok))
        }
        Route::Sweep => {
            let Some(JsonValue::Array(rows)) = json.get("rows") else {
                return (1, 1);
            };
            if degradation != Some("exact") || rows.len() != SWEEP_POINTS {
                return (1, 1);
            }
            let mut rng = Rng::item(inputs.seed, STREAM_CHECK, answer.index);
            let mut failed = 0;
            for _ in 0..SWEEP_CHECK_ROWS {
                let i = rng.below(SWEEP_POINTS);
                let row = &rows[i];
                let n = sweep_n(req.n, i);
                let mut at = model;
                at.workload = at.workload.with_n(n);
                let dense = at.solve_with(DEFAULT_SAMPLES);
                let ok = row.get("n").and_then(JsonValue::as_f64).map(f64::to_bits)
                    == Some(n.to_bits())
                    && row.get("roots").and_then(JsonValue::as_u64)
                        == Some(dense.points().len() as u64)
                    && match dense.operating_point() {
                        Some(p) => json_point_matches(row, &p),
                        None => row.get("k").is_none(),
                    };
                failed += u64::from(!ok);
            }
            (SWEEP_CHECK_ROWS as u64, failed)
        }
        Route::WhatIf => {
            let what_if = WhatIf::new(model);
            let Some(JsonValue::Array(got)) = json.get("candidates") else {
                return (1, 1);
            };
            let want = whatif_candidates(&what_if, &model);
            let speedup =
                |j: &JsonValue, key: &str| j.get(key).and_then(JsonValue::as_f64).map(f64::to_bits);
            let ok = json.get("thrashing") == Some(&JsonValue::Bool(what_if.is_thrashing()))
                && got.len() == want.len()
                && got.iter().zip(&want).all(|(g, (name, opt))| {
                    let effect = what_if.evaluate(*opt);
                    g.get("name").and_then(JsonValue::as_str) == Some(*name)
                        && speedup(g, "ms_speedup") == effect.map(|e| e.ms_speedup().to_bits())
                        && speedup(g, "cs_speedup") == effect.map(|e| e.cs_speedup().to_bits())
                });
            (1, u64::from(!ok))
        }
    }
}

/// Counters the daemon exports on `/metrics`, by exported name.
fn scrape(addr: SocketAddr) -> Result<std::collections::BTreeMap<String, f64>, String> {
    let (status, body, _) = exchange(
        addr,
        b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n\r\n",
    );
    if !status_ok(status) {
        return Err(format!("GET /metrics answered {status}"));
    }
    Ok(body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, v) = l.rsplit_once(' ')?;
            Some((name.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// Start a server and send the warm-up requests.
fn start_server(inputs: &Inputs) -> Result<Server, String> {
    let cfg = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).map_err(|e| format!("serve: {e}"))?;
    for i in 0..WARMUP_REQUESTS {
        let req = inputs.request(STREAM_WARMUP, i);
        let (status, _, _) = exchange(server.addr(), inputs.http(&req).as_bytes());
        if !status_ok(status) {
            return Err(format!("warm-up request {i} answered {status}"));
        }
    }
    Ok(server)
}

/// Per-layer tallies of the in-process replay.
#[derive(Default)]
struct Replay {
    handler_secs: Vec<f64>,
    solve: SolveStats,
    solves: u64,
    build_evals: u64,
    cache_solves: u64,
    table_builds: u64,
    cache: (u64, u64, u64),
}

fn table_builds() -> u64 {
    xmodel_obs::metrics::snapshot()
        .counters
        .get(xmodel_obs::names::metric::FASTPATH_TABLE_BUILDS)
        .copied()
        .unwrap_or(0)
}

/// Replay requests through the calls the daemon's handlers make, with a
/// span around each, after the warm-up requests the daemon also saw.
fn replay(inputs: &Inputs, indices: &[u64], ledger: &mut Ledger) -> Replay {
    let cache = ShardedSolveCache::new(SHARDS);
    let mut r = Replay::default();
    let handle = |req: &Req, r: &mut Replay, spans: &mut Vec<Span>| {
        let body = inputs.body(req);
        let (json, parse) = timed("obs.json_parse", 1, || xmodel_obs::json::parse(&body));
        spans.push(parse);
        std::hint::black_box(json.ok());
        let model = inputs.model(req);
        match req.route {
            Route::Solve => {
                let (eq, s) = timed("serve.cache_solve", 1, || {
                    cache.solve_with(&model, DEFAULT_SAMPLES)
                });
                spans.push(s);
                r.cache_solves += 1;
                let exact = eq
                    .operating_point()
                    .is_some_and(|p| p.k.is_finite() && p.ms_throughput.is_finite());
                if !exact {
                    let (_, s) = timed("degrade.resolve", 1, || {
                        degrade::resolve(&model, DEFAULT_SAMPLES, DegradeForce::SkipExact)
                    });
                    spans.push(s);
                }
            }
            Route::Sweep => {
                let (table, s) = timed("fastpath.table_build", 1, || {
                    CurveTable::build(&model, req.n)
                });
                spans.push(s);
                r.build_evals += table.build_evals();
                for i in 0..SWEEP_POINTS {
                    let mut at = model;
                    at.workload = at.workload.with_n(sweep_n(req.n, i));
                    let ((_, stats), s) = timed("fastpath.solve", 1, || {
                        solve_fast_stats(&at, &table, DEFAULT_SAMPLES)
                    });
                    spans.push(s);
                    r.solve.f_evals += stats.f_evals;
                    r.solve.interp_evals += stats.interp_evals;
                    r.solve.blocks_skipped += stats.blocks_skipped;
                    r.solve.blocks_refined += stats.blocks_refined;
                    r.solves += 1;
                }
            }
            Route::WhatIf => {
                let ((what_if, candidates), s) = timed("whatif.throttle", 1, || {
                    let w = WhatIf::new(model);
                    let c = whatif_candidates(&w, &model);
                    (w, c)
                });
                spans.push(s);
                for (_, opt) in candidates {
                    let (effect, s) = timed("whatif.evaluate", 1, || what_if.evaluate(opt));
                    spans.push(s);
                    std::hint::black_box(effect);
                }
            }
        }
    };
    for i in 0..WARMUP_REQUESTS {
        handle(&inputs.request(STREAM_WARMUP, i), &mut r, &mut Vec::new());
    }
    r = Replay::default();
    let builds_before = table_builds();
    let (hits, misses, evictions) = (
        cache.cache_hits(),
        cache.cache_misses(),
        cache.cache_evictions(),
    );
    let mut spans = Vec::new();
    for &index in indices {
        spans.clear();
        let start = Instant::now();
        handle(&inputs.request(STREAM_REQUEST, index), &mut r, &mut spans);
        let end = Instant::now();
        r.handler_secs
            .push(end.saturating_duration_since(start).as_secs_f64());
        ledger.add(start, end, &spans);
    }
    r.table_builds = table_builds() - builds_before;
    r.cache = (
        cache.cache_hits() - hits,
        cache.cache_misses() - misses,
        cache.cache_evictions() - evictions,
    );
    r
}

fn per_1k(count: f64, of: f64) -> f64 {
    if of > 0.0 {
        1000.0 * count / of
    } else {
        0.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    // As `xmodel serve` does: the daemon's counters need a live sink.
    if !xmodel_obs::enabled() {
        xmodel_obs::install(Box::new(xmodel_obs::NullSink));
    }
    let result = run_installed(cfg);
    xmodel_obs::finish(None);
    result
}

fn run_installed(cfg: &Config) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut server = None;
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = server.take() {
            drain(old);
        }
        let clock = report::CpuClock::start();
        let generated = Inputs::generate(cfg.seed);
        server = Some(start_server(&generated)?);
        setups.push(clock.secs());
        inputs = Some(generated);
    }
    let (server, inputs) = (server.ok_or("no server")?, inputs.ok_or("no inputs")?);
    let addr = server.addr();

    let mut out = Outcome::default();
    let capacity_s = cfg.seconds * CAPACITY_SHARE;
    let fixed_s = cfg.seconds - capacity_s;
    if cfg.trace {
        let before = scrape(addr)?;
        let (capacity, _) = capacity_phase(&inputs, addr, capacity_s, true);
        let fixed = fixed_rate_phase(&inputs, addr, fixed_s);
        let after = scrape(addr)?;
        let report = drain(server);
        let mut late = fixed.late_ms.clone();
        late.sort_by(f64::total_cmp);
        out.metrics.insert(
            "loadgen.late_p99_ms",
            value(quantile(&late, 0.99), late.len() as u64),
        );
        let mut ledger = Ledger::default();
        for (start, end, spans) in &capacity.roots {
            ledger.add(*start, *end, spans);
        }
        let traced = capacity.roots.len() as f64;
        let plain = capacity.answers.len() as f64 - traced;
        let client_mean_s = capacity.traced_secs / traced.max(1.0);
        let overhead = client_mean_s / (capacity.plain_secs / plain.max(1.0)) - 1.0;
        let indices: Vec<u64> = capacity.answers.iter().map(|a| a.index).collect();
        let served = (capacity.answers.len() + fixed.answers.len()) as f64;
        let r = replay(&inputs, &indices, &mut ledger);
        layer_metrics(&mut out, &ledger, &r, report, client_mean_s, overhead);
        out.notes
            .push(cross_check(&before, &after, served, &r, indices.len()));
        out.notes.push(ledger.render());
        check_all(&inputs, &capacity.answers, &mut out);
        check_all(&inputs, &fixed.answers, &mut out);
        return Ok(out);
    }

    // Repeat the same traffic in rounds, one end-to-end pass each, and
    // check each round's answers before the next starts.
    let mut throughput = Vec::new();
    let mut latency = Vec::new();
    let mut late = Vec::new();
    // Process CPU (daemon and clients) over the phases, per request.
    let (mut cpu, mut requests) = (0.0, 0u64);
    for _ in 0..ROUNDS {
        let cpu_before = report::process_cpu_secs();
        let (capacity, wall) = capacity_phase(&inputs, addr, capacity_s / ROUNDS as f64, false);
        let fixed = fixed_rate_phase(&inputs, addr, fixed_s / ROUNDS as f64);
        if let (Some(a), Some(b)) = (cpu_before, report::process_cpu_secs()) {
            cpu += b - a;
            requests += (capacity.answers.len() + fixed.answers.len()) as u64;
        }
        throughput.push(Window {
            latencies_ms: capacity.latencies_ms,
            seconds: wall,
        });
        late.extend(fixed.late_ms);
        latency.push(Window {
            latencies_ms: fixed.latencies_ms,
            seconds: fixed_s / ROUNDS as f64,
        });
        check_all(&inputs, &capacity.answers, &mut out);
        check_all(&inputs, &fixed.answers, &mut out);
    }
    let report = drain(server);
    report::end_to_end(&mut out, &setups, (cpu, requests), &throughput, &latency);
    late.sort_by(f64::total_cmp);
    out.notes.push(format!(
        "fixed-rate phase: {} requests at {RATE} req/s, generator late p99 {:.3} ms",
        late.len(),
        quantile(&late, 0.99)
    ));
    out.notes.push(format!(
        "server: served {} shed {} deadline-exceeded {} forced-degrade {}",
        report.served, report.shed, report.deadline_exceeded, report.forced_degrade
    ));
    Ok(out)
}

fn drain(server: Server) -> ServeReport {
    server.drain();
    server.wait()
}

/// The replay's cache counters beside the daemon's own, from its
/// `/metrics` over the measured phases.
fn cross_check(
    before: &std::collections::BTreeMap<String, f64>,
    after: &std::collections::BTreeMap<String, f64>,
    served: f64,
    r: &Replay,
    replayed: usize,
) -> String {
    let delta = |name: &str| after.get(name).unwrap_or(&0.0) - before.get(name).unwrap_or(&0.0);
    let (hits, misses) = (
        delta("xmodel_serve_cache_hits"),
        delta("xmodel_serve_cache_misses"),
    );
    let daemon_hit = ratio(hits, hits + misses);
    let replay_hit = ratio(r.cache.0 as f64, (r.cache.0 + r.cache.1) as f64);
    let verdict = if (daemon_hit - replay_hit).abs() <= 0.05 {
        "OK"
    } else {
        "MISMATCH"
    };
    format!(
        "cache cross-check {verdict}: hit ratio replay {:.4} vs daemon /metrics {:.4}; \
         evictions per 1k solves replay {:.1} vs daemon {:.1}; table builds per 1k requests \
         replay {:.1} vs daemon {:.1}",
        replay_hit,
        daemon_hit,
        per_1k(r.cache.2 as f64, r.cache_solves as f64),
        per_1k(delta("xmodel_serve_cache_evictions"), hits + misses),
        per_1k(r.table_builds as f64, replayed as f64),
        per_1k(delta("xmodel_fastpath_table_builds"), served),
    )
}

fn layer_metrics(
    out: &mut Outcome,
    l: &Ledger,
    r: &Replay,
    report: ServeReport,
    client_mean_s: f64,
    overhead: f64,
) {
    let requests = r.handler_secs.len() as u64;
    let handler_s = r.handler_secs.iter().sum::<f64>() / requests.max(1) as f64;
    let builds = l.count("fastpath.table_build");
    let per = |sum: u64, n: u64| ratio(sum as f64, n as f64);
    let m = &mut out.metrics;
    m.insert(
        "fastpath.table_build_us",
        value(l.mean_us("fastpath.table_build"), builds),
    );
    m.insert(
        "fastpath.table_build_evals",
        value(per(r.build_evals, builds), builds),
    );
    m.insert(
        "fastpath.solve_us",
        value(l.mean_us("fastpath.solve"), r.solves),
    );
    m.insert(
        "fastpath.exact_evals_per_solve",
        value(per(r.solve.f_evals, r.solves), r.solves),
    );
    m.insert(
        "fastpath.interp_evals_per_solve",
        value(per(r.solve.interp_evals, r.solves), r.solves),
    );
    let blocks = r.solve.blocks_skipped + r.solve.blocks_refined;
    m.insert(
        "fastpath.screened_share",
        value(per(r.solve.blocks_skipped, blocks), blocks),
    );
    m.insert(
        "serve.connect_us",
        value(l.mean_us("serve.connect"), l.count("serve.connect")),
    );
    m.insert("serve.handler_us", value(handler_s * 1e6, requests));
    m.insert(
        "serve.transport_share",
        value(1.0 - ratio(handler_s, client_mean_s), requests),
    );
    m.insert(
        "obs.json_parse_us",
        value(l.mean_us("obs.json_parse"), l.count("obs.json_parse")),
    );
    let (hits, misses, evictions) = r.cache;
    m.insert(
        "serve.cache_hit_ratio",
        value(per(hits, hits + misses), r.cache_solves),
    );
    m.insert(
        "serve.table_builds_per_1k",
        value(per_1k(r.table_builds as f64, requests as f64), requests),
    );
    m.insert(
        "serve.evictions_per_1k",
        value(
            per_1k(evictions as f64, r.cache_solves as f64),
            r.cache_solves,
        ),
    );
    m.insert(
        "whatif.evaluate_us",
        value(l.mean_us("whatif.evaluate"), l.count("whatif.evaluate")),
    );
    m.insert("serve.shed", value(report.shed as f64, 1));
    m.insert(
        "serve.deadline_exceeded",
        value(report.deadline_exceeded as f64, 1),
    );
    m.insert(
        "serve.forced_degrade",
        value(report.forced_degrade as f64, 1),
    );
    m.insert(
        "trace.unattributed_share",
        value(l.unattributed_share(), requests),
    );
    m.insert("trace.overhead_share", value(overhead, requests));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> String {
        let inputs = Inputs::generate(seed);
        let mut text = format!("{:?}\n", inputs.curves);
        for i in 0..512 {
            text.push_str(&inputs.http(&inputs.request(STREAM_REQUEST, i)));
            text.push('\n');
        }
        text
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(stream(1).as_bytes(), stream(1).as_bytes());
        assert_ne!(stream(1), stream(2));
    }

    #[test]
    fn shed_and_server_errors_fail_the_request() {
        let inputs = Inputs::generate(1);
        for status in [429, 500, 503, 504] {
            let answer = Answer {
                index: 0,
                status,
                body: "{\"kind\":\"error\"}".to_string(),
            };
            assert_eq!(check_answer(&inputs, &answer), (1, 1), "status {status}");
        }
    }

    #[test]
    fn mix_and_popularity_are_as_stated() {
        let inputs = Inputs::generate(4);
        let reqs: Vec<Req> = (0..10_000)
            .map(|i| inputs.request(STREAM_REQUEST, i))
            .collect();
        let solves = reqs.iter().filter(|r| r.route == Route::Solve).count();
        assert!((7_700..8_300).contains(&solves), "{solves}");
        let top = inputs.rank_to_curve[0];
        let hot = reqs.iter().filter(|r| r.curve == top).count();
        assert!(hot > 10_000 / CURVES * 3, "rank 0 is popular: {hot}");
        assert!(reqs.iter().all(|r| (1.0..=2048.0).contains(&r.n)));
    }
}
