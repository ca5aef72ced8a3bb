//! `xmodel serve`: an overload-safe solve/sweep/what-if daemon.
//!
//! The ROADMAP's north star is the model as a capacity-planning API
//! under heavy traffic; this module is that API's robustness core. It
//! is a std-only HTTP server (listener plumbing shared with the
//! Prometheus exporter via [`xmodel_obs::http`]) engineered for
//! overload from day one — queueing theory says latency explodes as
//! utilization approaches 1, so every stage bounds its work:
//!
//! 1. **Admission control.** A fixed worker pool drains a bounded
//!    request queue. Past capacity the accept thread sheds with
//!    `429 Too Many Requests` + `Retry-After` instead of queueing
//!    without bound (the M/M/1 collapse).
//! 2. **Deadline propagation.** Every request carries a budget
//!    (`X-Deadline-Ms` header or `deadline_ms` JSON field, default
//!    [`ServeConfig::default_deadline_ms`]) measured from *accept*, so
//!    queueing time counts. Workers check it at rung boundaries and
//!    convert exhaustion into a typed `504` ([`ServeError`]), the
//!    watchdog idiom — never a hung connection.
//! 3. **Degradation-ladder load-shedding.** Rising queue depth forces
//!    [`crate::degrade::DegradeForce`] down the ladder (exact →
//!    grid-scan → baseline estimate); every response carries its
//!    [`Degradation`] provenance in the body and an `X-Degradation`
//!    header, so clients know what they got.
//! 4. **Sharded [`SolveCache`].** Requests for the same supply curve
//!    ([`CurveKey`]) reuse one tabulation; independent curves land on
//!    independent shards, so the lock a solve holds is per-curve, not
//!    global.
//! 5. **Graceful drain.** `POST /quitck` (signals are out of std
//!    reach) stops accepting, drains queued + in-flight requests under
//!    [`ServeConfig::drain_deadline_ms`], and flushes trace/metric
//!    sinks.
//!
//! `GET /healthz` answers liveness, `GET /readyz` readiness (503 while
//! draining or saturated), and `GET /metrics` the same Prometheus text
//! as the standalone exporter, including the `serve.*` admission /
//! queue-depth / shed / latency series from `obs::names`.

use crate::cache::CacheParams;
use crate::degrade::{self, Degradation, DegradeForce, ResolvedOperatingPoint};
use crate::fastpath::{solve_fast, CurveKey, CurveTable, SolveCache};
use crate::model::XModel;
use crate::params::{MachineParams, WorkloadParams};
use crate::presets::{GpuSpec, Precision};
use crate::solver::DEFAULT_SAMPLES;
use crate::stability::Stability;
use crate::whatif::WhatIf;
use std::collections::VecDeque;
use std::fmt;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use xmodel_obs::http::{self, HttpLimits, Request, Response};
use xmodel_obs::names::{metric, span};

/// Schema tag carried by every JSON body the daemon emits.
pub const SERVE_SCHEMA: &str = "xmodel-serve/1";

/// JSON content type for API responses.
const JSON_TEXT: &str = "application/json";

/// Plain-text content type for health endpoints.
const PLAIN_TEXT: &str = "text/plain; charset=utf-8";

/// Prometheus exposition content type (matches `obs::export`).
const PROMETHEUS_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";

/// How often parked workers re-check the drain flag.
const WORKER_PARK: Duration = Duration::from_millis(50);

/// Accept-loop poll interval (the listener is non-blocking so drain can
/// interrupt it).
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Deadline checks during a sweep happen every this many rows.
const SWEEP_CHECK_EVERY: usize = 32;

/// Hard cap on sweep rows per request (the request-level deadline
/// bounds time; this bounds memory).
const MAX_SWEEP_POINTS: usize = 4096;

/// Configuration for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Bounded queue capacity; admission sheds past this depth.
    pub queue_capacity: usize,
    /// Default per-request budget in milliseconds, measured from
    /// accept; overridable per request.
    pub default_deadline_ms: u64,
    /// Budget for draining queued + in-flight work at shutdown.
    pub drain_deadline_ms: u64,
    /// Queue-depth fraction (of capacity) past which the exact rung is
    /// skipped (grid-scan responses).
    pub grid_watermark: f64,
    /// Queue-depth fraction past which solves drop straight to the
    /// baseline-estimate rung.
    pub baseline_watermark: f64,
    /// Fault injection: sleep this long before handling each request
    /// (the `serve-stall` fault token), simulating a stalled worker.
    pub stall_ms: u64,
    /// Number of [`SolveCache`] shards.
    pub cache_shards: usize,
    /// Per-connection socket read/write timeout in milliseconds.
    pub io_timeout_ms: u64,
    /// Solver scan resolution for requests that don't specify one.
    pub samples: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            default_deadline_ms: 2_000,
            drain_deadline_ms: 5_000,
            grid_watermark: 0.5,
            baseline_watermark: 0.8,
            stall_ms: 0,
            cache_shards: 8,
            io_timeout_ms: 2_000,
            samples: DEFAULT_SAMPLES,
        }
    }
}

/// Typed request-handling failure; each variant maps to an HTTP status
/// so overload and bad input surface as responses, never hangs.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request's budget expired mid-solve (504).
    DeadlineExceeded {
        /// Time consumed when the check fired, ms.
        elapsed_ms: u64,
        /// The budget that was exceeded, ms.
        budget_ms: u64,
    },
    /// The request body is not a valid request (400).
    BadRequest(String),
    /// Model parameters were rejected by the domain layer (400).
    Model(String),
}

impl ServeError {
    /// HTTP status for this error.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::DeadlineExceeded { .. } => 504,
            ServeError::BadRequest(_) | ServeError::Model(_) => 400,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DeadlineExceeded {
                elapsed_ms,
                budget_ms,
            } => write!(
                f,
                "deadline exceeded: {elapsed_ms} ms spent of {budget_ms} ms budget"
            ),
            ServeError::BadRequest(reason) => write!(f, "bad request: {reason}"),
            ServeError::Model(reason) => write!(f, "model error: {reason}"),
        }
    }
}

/// A request budget measured from the moment the connection was
/// accepted, so time spent queued counts against it (the watchdog
/// idiom: workers poll [`Deadline::check`] at rung boundaries).
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    /// A budget of `budget_ms` starting at `start`.
    pub fn new(start: Instant, budget_ms: u64) -> Self {
        Self {
            start,
            budget: Duration::from_millis(budget_ms),
        }
    }

    /// Typed-error check: `Err(DeadlineExceeded)` once the budget is
    /// spent.
    pub fn check(&self) -> Result<(), ServeError> {
        let elapsed = self.start.elapsed();
        if elapsed > self.budget {
            Err(ServeError::DeadlineExceeded {
                elapsed_ms: elapsed.as_millis() as u64,
                budget_ms: self.budget.as_millis() as u64,
            })
        } else {
            Ok(())
        }
    }
}

/// Supply curves kept warm per shard: enough for a handful of machine
/// configurations to alternate without thrashing, small enough that an
/// adversarial key stream cannot pin unbounded tabulations in memory.
const SHARD_LRU_CAPACITY: usize = 4;

/// [`SolveCache`]s sharded by [`CurveKey`], so concurrent requests for
/// the same supply curve reuse one tabulation while independent curves
/// never contend on the same lock.
///
/// Each shard holds a small most-recently-used list of
/// `(CurveKey, SolveCache)` entries ([`SHARD_LRU_CAPACITY`]), so traffic
/// that alternates between a few machine configurations — the A/B
/// capacity-planning pattern — no longer rebuilds the table on every
/// curve switch, which the single-slot cache of the first serve cut did.
/// The key is exact (`f64` bit patterns), so a cache entry can never be
/// served for a different curve and results stay bit-identical to the
/// dense reference solver.
pub struct ShardedSolveCache {
    shards: Vec<Mutex<Vec<(CurveKey, SolveCache)>>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
}

impl ShardedSolveCache {
    /// A cache with `shards` independent shards (minimum 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
        }
    }

    /// FNV-1a over the bit patterns of the supply-curve determinants.
    /// Equal keys always hash equal (`to_bits` is exact), so one curve
    /// maps to exactly one shard.
    fn shard_index(&self, key: &CurveKey) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: f64| {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(key.r);
        mix(key.l);
        if let Some(cache) = &key.cache {
            mix(cache.s_cache);
            mix(cache.l_cache);
            mix(cache.alpha);
            mix(cache.beta);
        }
        (h % self.shards.len().max(1) as u64) as usize
    }

    /// Solve through the shard owning `model`'s supply curve. The LRU
    /// entry for the curve is moved to the front (created cold if
    /// absent, evicting the least-recent entry past capacity); domain
    /// growth within an entry is handled by the underlying
    /// [`SolveCache`]. The result is bit-identical to the dense
    /// reference solver by the fastpath guarantee.
    pub fn solve_with(&self, model: &XModel, samples: usize) -> crate::solver::Equilibria {
        let key = CurveKey::of(model);
        let index = self.shard_index(&key);
        let mut shard = match self.shards.get(index) {
            // xlint: allow(lock-in-result-path, per-key shard serializing table reuse; the solve output is a pure function of (model, samples), independent of lock order)
            Some(shard) => shard.lock().unwrap_or_else(|e| e.into_inner()),
            // Unreachable (shards is non-empty and index is reduced
            // modulo its length); solve uncached rather than panic.
            None => return model.solve_with(samples),
        };
        match shard.iter().position(|(k, _)| *k == key) {
            Some(pos) => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                xmodel_obs::metrics::counter_add(metric::SERVE_CACHE_HITS, 1);
                // Move-to-front keeps the list in recency order so
                // eviction below can simply pop the tail.
                let entry = shard.remove(pos);
                shard.insert(0, entry);
            }
            None => {
                self.cache_misses.fetch_add(1, Ordering::Relaxed);
                xmodel_obs::metrics::counter_add(metric::SERVE_CACHE_MISSES, 1);
                shard.insert(0, (key, SolveCache::new()));
                while shard.len() > SHARD_LRU_CAPACITY {
                    shard.pop();
                    self.cache_evictions.fetch_add(1, Ordering::Relaxed);
                    xmodel_obs::metrics::counter_add(metric::SERVE_CACHE_EVICTIONS, 1);
                }
            }
        }
        match shard.first_mut() {
            Some((_, cache)) => cache.solve_with(model, samples),
            // Unreachable (an entry was just inserted or moved to the
            // front); solve uncached rather than panic.
            None => model.solve_with(samples),
        }
    }

    /// Total table (re)builds across all resident cache entries.
    pub fn rebuilds(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .iter()
                    .map(|(_, cache)| cache.rebuilds())
                    .collect::<Vec<_>>()
            })
            .sum()
    }

    /// Total table reuses across all resident cache entries.
    pub fn hits(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .iter()
                    .map(|(_, cache)| cache.hits())
                    .collect::<Vec<_>>()
            })
            .sum()
    }

    /// Solves answered by an entry already resident in its shard's LRU.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Solves that inserted a fresh LRU entry (cold fill).
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Entries evicted because a shard exceeded [`SHARD_LRU_CAPACITY`].
    pub fn cache_evictions(&self) -> u64 {
        self.cache_evictions.load(Ordering::Relaxed)
    }
}

/// One accepted connection waiting in the queue.
struct Conn {
    stream: TcpStream,
    accepted: Instant,
}

/// Monotonic counters mirrored into `obs::metrics` (the atomics are the
/// source of truth for [`ServeReport`]; the metrics registry may be
/// disabled).
#[derive(Default)]
struct Counters {
    served: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    malformed: AtomicU64,
    forced_degrade: AtomicU64,
}

struct Shared {
    cfg: ServeConfig,
    queue: Mutex<VecDeque<Conn>>,
    ready: Condvar,
    draining: AtomicBool,
    accept_done: AtomicBool,
    counters: Counters,
    cache: ShardedSolveCache,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        self.ready.notify_all();
    }

    fn queue_depth(&self) -> usize {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    fn limits(&self) -> HttpLimits {
        HttpLimits {
            io_timeout: Duration::from_millis(self.cfg.io_timeout_ms.max(1)),
            ..HttpLimits::default()
        }
    }
}

/// Final tally returned by [`Server::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReport {
    /// Requests admitted and answered (any status).
    pub served: u64,
    /// Connections shed at admission (429/503).
    pub shed: u64,
    /// Requests answered `504` after their budget expired.
    pub deadline_exceeded: u64,
    /// Connections rejected while reading (400/408/413).
    pub malformed: u64,
    /// Requests forced below the exact rung by queue pressure.
    pub forced_degrade: u64,
    /// Whether every worker exited within the drain deadline.
    pub clean_drain: bool,
}

/// A running daemon: an accept thread feeding a bounded queue drained
/// by a fixed worker pool. Construct with [`Server::start`], stop with
/// `POST /quitck` (or [`Server::drain`]) followed by [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `cfg.addr` and spawn the accept thread + worker pool.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shards = cfg.cache_shards;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            cfg,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            draining: AtomicBool::new(false),
            accept_done: AtomicBool::new(false),
            counters: Counters::default(),
            cache: ShardedSolveCache::new(shards),
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("xmodel-serve-accept".to_string())
            .spawn(move || accept_loop(listener, &accept_shared))?;

        let mut pool = Vec::with_capacity(workers);
        for i in 0..workers {
            let worker_shared = Arc::clone(&shared);
            pool.push(
                std::thread::Builder::new()
                    .name(format!("xmodel-serve-worker-{i}"))
                    .spawn(move || worker_loop(&worker_shared))?,
            );
        }

        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            workers: pool,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Programmatic drain trigger, equivalent to `POST /quitck`.
    pub fn drain(&self) {
        self.shared.begin_drain();
    }

    /// True once a drain has been requested.
    pub fn draining(&self) -> bool {
        self.shared.draining()
    }

    /// Block until a drain is requested, then join the accept thread,
    /// give workers [`ServeConfig::drain_deadline_ms`] to finish queued
    /// and in-flight work, flush observability sinks and report.
    /// Workers still running past the deadline are abandoned (detached)
    /// and the report says `clean_drain: false`.
    pub fn wait(mut self) -> ServeReport {
        while !self.shared.draining() {
            std::thread::sleep(WORKER_PARK);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let drain_deadline =
            Instant::now() + Duration::from_millis(self.shared.cfg.drain_deadline_ms);
        let mut clean = true;
        while !self.workers.is_empty() {
            self.workers.retain(|w| !w.is_finished());
            if self.workers.is_empty() {
                break;
            }
            if Instant::now() > drain_deadline {
                clean = false;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        xmodel_obs::flush();
        let c = &self.shared.counters;
        ServeReport {
            served: c.served.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
            malformed: c.malformed.load(Ordering::Relaxed),
            forced_degrade: c.forced_degrade.load(Ordering::Relaxed),
            clean_drain: clean,
        }
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    while !shared.draining() {
        match listener.accept() {
            Ok((stream, _)) => admit(shared, stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    shared.accept_done.store(true, Ordering::Release);
    shared.ready.notify_all();
}

/// Admission control: enqueue within capacity, shed past it. Shedding
/// answers on the accept thread (a bounded write; the response is tiny)
/// so workers never see work that was never admitted.
fn admit(shared: &Shared, stream: TcpStream) {
    let accepted = Instant::now();
    if shared.draining() {
        shed(shared, stream, 503, "draining: not accepting new requests");
        return;
    }
    let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    if queue.len() >= shared.cfg.queue_capacity {
        drop(queue);
        shed(shared, stream, 429, "queue at capacity");
        return;
    }
    queue.push_back(Conn { stream, accepted });
    let depth = queue.len();
    drop(queue);
    xmodel_obs::metrics::gauge_set(metric::SERVE_QUEUE_DEPTH, depth as f64);
    shared.ready.notify_one();
}

fn shed(shared: &Shared, mut stream: TcpStream, status: u16, reason: &str) {
    shared.counters.shed.fetch_add(1, Ordering::Relaxed);
    xmodel_obs::metrics::counter_add(metric::SERVE_SHED, 1);
    let limits = shared.limits();
    let _ = stream.set_write_timeout(Some(limits.io_timeout));
    let _ = stream.set_read_timeout(Some(limits.io_timeout));
    let response = error_response(status, reason).header("Retry-After", "1");
    let _ = http::write_response(&mut stream, &response);
    // Drain whatever request bytes the client already sent before
    // closing. Dropping a socket with unread data triggers an RST that
    // can destroy the in-flight 429 — the one byte of backpressure the
    // client most needs to see. Bounded by the head limit + io timeout.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 1024];
    let mut drained = 0usize;
    while let Ok(n) = stream.read(&mut sink) {
        if n == 0 {
            break;
        }
        drained += n;
        if drained > limits.max_head_bytes + limits.max_body_bytes {
            break;
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(conn) = queue.pop_front() {
                    xmodel_obs::metrics::gauge_set(metric::SERVE_QUEUE_DEPTH, queue.len() as f64);
                    break Some(conn);
                }
                if shared.draining() && shared.accept_done.load(Ordering::Acquire) {
                    break None;
                }
                let (guard, _) = shared
                    .ready
                    .wait_timeout(queue, WORKER_PARK)
                    .unwrap_or_else(|e| e.into_inner());
                queue = guard;
            }
        };
        let Some(conn) = conn else { return };
        handle_conn(shared, conn);
    }
}

fn handle_conn(shared: &Shared, mut conn: Conn) {
    if shared.cfg.stall_ms > 0 {
        // Fault injection (`serve-stall=MS`): a worker that lost its CPU
        // or is blocked on a slow dependency. Admission control and
        // deadlines must absorb this without hanging clients.
        std::thread::sleep(Duration::from_millis(shared.cfg.stall_ms));
    }
    let limits = shared.limits();
    let request = match http::read_request(&mut conn.stream, &limits) {
        Ok(request) => request,
        Err(e) => {
            shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
            xmodel_obs::metrics::counter_add(metric::SERVE_MALFORMED, 1);
            let (status, _) = e.status();
            let _ = http::write_response(&mut conn.stream, &error_response(status, &e.to_string()));
            return;
        }
    };

    let depth = shared.queue_depth();
    let _span = xmodel_obs::span!(span::SERVE_REQUEST);
    let response = route(shared, &request, conn.accepted, depth);

    if response.status == 504 {
        shared
            .counters
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
        xmodel_obs::metrics::counter_add(metric::SERVE_DEADLINE_EXCEEDED, 1);
    }
    shared.counters.served.fetch_add(1, Ordering::Relaxed);
    xmodel_obs::metrics::counter_add(metric::SERVE_REQUESTS, 1);
    xmodel_obs::metrics::histogram_observe(
        metric::SERVE_LATENCY_US,
        xmodel_obs::metrics::latency_edges_us(),
        conn.accepted.elapsed().as_micros() as f64,
    );
    let _ = http::write_response(&mut conn.stream, &response);
}

/// Map queue pressure to a ladder forcing: past the grid watermark the
/// exact rung is skipped, past the baseline watermark solves drop
/// straight to the roofline estimate. This is the load-shedding rung
/// between "answer exactly" and "shed with 429".
fn force_for_depth(cfg: &ServeConfig, depth: usize) -> DegradeForce {
    let capacity = cfg.queue_capacity.max(1) as f64;
    let fill = depth as f64 / capacity;
    if fill >= cfg.baseline_watermark {
        DegradeForce::SkipGrid
    } else if fill >= cfg.grid_watermark {
        DegradeForce::SkipExact
    } else {
        DegradeForce::None
    }
}

/// Dispatch one parsed request to its handler and assemble the response
/// bytes. Everything reachable from here decides what clients see, so
/// the whole call tree is under the determinism lints: response bytes
/// must be a pure function of (request, queue depth, configuration).
// xlint: determinism-root
fn route(shared: &Shared, request: &Request, accepted: Instant, depth: usize) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::ok(PLAIN_TEXT, "ok\n".to_string()),
        ("GET", "/readyz") => {
            if shared.draining() {
                Response::with_status(503, PLAIN_TEXT, "draining\n".to_string())
            } else if depth >= shared.cfg.queue_capacity {
                Response::with_status(503, PLAIN_TEXT, "saturated\n".to_string())
            } else {
                Response::ok(PLAIN_TEXT, "ready\n".to_string())
            }
        }
        ("GET", "/metrics") => {
            Response::ok(PROMETHEUS_TEXT, xmodel_obs::export::render_prometheus())
        }
        ("POST", "/quitck") => {
            shared.begin_drain();
            Response::ok(
                JSON_TEXT,
                format!(
                    "{{\"schema\":{},\"kind\":\"drain\",\"status\":\"draining\"}}\n",
                    jstr(SERVE_SCHEMA)
                ),
            )
        }
        ("POST", "/solve") | ("POST", "/sweep") | ("POST", "/whatif") => {
            let force = force_for_depth(&shared.cfg, depth);
            if force != DegradeForce::None {
                shared
                    .counters
                    .forced_degrade
                    .fetch_add(1, Ordering::Relaxed);
                xmodel_obs::metrics::counter_add(metric::SERVE_FORCED_DEGRADE, 1);
            }
            let result = match request.path.as_str() {
                "/solve" => handle_solve(shared, request, accepted, force),
                "/sweep" => handle_sweep(shared, request, accepted, force),
                _ => handle_whatif(shared, request, accepted),
            };
            match result {
                Ok(response) => response,
                Err(e) => error_response(e.status(), &e.to_string()),
            }
        }
        (_, "/healthz" | "/readyz" | "/metrics" | "/quitck" | "/solve" | "/sweep" | "/whatif") => {
            error_response(405, "method not allowed")
        }
        _ => error_response(404, "not found"),
    }
}

/// The per-request knobs shared by every POST route.
struct ParsedRequest {
    model: XModel,
    samples: usize,
    deadline: Deadline,
}

/// Parse the request body (and `X-Deadline-Ms` header) into a model,
/// scan resolution and deadline. The body grammar mirrors the CLI's
/// model flags: `{"gpu":"fermi"}` or `{"m":..,"r":..,"l":..}`, plus
/// `z` (required), `e` (default 1), `n` (required), optional
/// `l1_kib`/`l1_latency`/`alpha`/`beta`, `samples` and `deadline_ms`.
fn parse_request(
    shared: &Shared,
    request: &Request,
    accepted: Instant,
) -> Result<ParsedRequest, ServeError> {
    let json = xmodel_obs::json::parse(&request.body)
        .map_err(|e| ServeError::BadRequest(format!("body is not JSON: {e}")))?;

    let field = |key: &str| json.get(key).and_then(|v| v.as_f64());

    let machine = if let Some(gpu) = json.get("gpu").and_then(|v| v.as_str()) {
        let spec = match gpu {
            "fermi" => GpuSpec::fermi_gtx570(),
            "kepler" => GpuSpec::kepler_k40(),
            "maxwell" => GpuSpec::maxwell_gtx750ti(),
            other => {
                return Err(ServeError::BadRequest(format!(
                    "unknown gpu `{other}` (fermi|kepler|maxwell)"
                )))
            }
        };
        let precision = match json
            .get("dp")
            .map(|v| matches!(v, xmodel_obs::json::JsonValue::Bool(true)))
        {
            Some(true) => Precision::Double,
            _ => Precision::Single,
        };
        spec.machine_params(precision)
    } else {
        let m = field("m").ok_or_else(|| ServeError::BadRequest("`m` or `gpu` required".into()))?;
        let r = field("r").ok_or_else(|| ServeError::BadRequest("`r` required".into()))?;
        let l = field("l").ok_or_else(|| ServeError::BadRequest("`l` required".into()))?;
        MachineParams::try_new(m, r, l).map_err(|e| ServeError::Model(e.to_string()))?
    };

    let z = field("z").ok_or_else(|| ServeError::BadRequest("`z` required".into()))?;
    let e = field("e").unwrap_or(1.0);
    // Sweeps grid over [1, n_max], so `n_max` alone is a complete
    // demand-side description there; for /solve and /whatif `n` is the
    // operating point and stays mandatory.
    let n = field("n")
        .or_else(|| field("n_max"))
        .ok_or_else(|| ServeError::BadRequest("`n` required".into()))?;
    let workload =
        WorkloadParams::try_new(z, e, n).map_err(|e| ServeError::Model(e.to_string()))?;

    let model = match field("l1_kib") {
        Some(kib) if kib > 0.0 => {
            let alpha = field("alpha").unwrap_or(3.0);
            let beta = field("beta").unwrap_or(2048.0);
            let l1_latency = field("l1_latency").unwrap_or(30.0);
            XModel::with_cache(
                machine,
                workload,
                CacheParams::try_new(kib * 1024.0, l1_latency, alpha, beta)
                    .map_err(|e| ServeError::Model(e.to_string()))?,
            )
        }
        _ => XModel::new(machine, workload),
    };

    let samples = json
        .get("samples")
        .and_then(|v| v.as_u64())
        .map(|s| (s as usize).clamp(64, 65_536))
        .unwrap_or(shared.cfg.samples);

    let budget_ms = request
        .header("x-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .or_else(|| json.get("deadline_ms").and_then(|v| v.as_u64()))
        .unwrap_or(shared.cfg.default_deadline_ms)
        .max(1);

    Ok(ParsedRequest {
        model,
        samples,
        deadline: Deadline::new(accepted, budget_ms),
    })
}

/// Resolve one operating point through the ladder. At the exact rung
/// the sharded cache answers (bit-identical to the dense reference);
/// forced or failed rungs fall through to [`degrade::resolve`], which
/// carries its own provenance counters. Returns the resolution plus the
/// exact root count (0 when the exact rung did not run or found none).
fn resolve_point(
    shared: &Shared,
    model: &XModel,
    samples: usize,
    deadline: &Deadline,
    force: DegradeForce,
) -> Result<(ResolvedOperatingPoint, usize), ServeError> {
    deadline.check()?;
    if force == DegradeForce::None {
        let eq = shared.cache.solve_with(model, samples);
        let roots = eq.points().len();
        if let Some(point) = eq.operating_point() {
            if point.k.is_finite() && point.ms_throughput.is_finite() {
                let residual = (model.fk(point.k) - model.g_hat(point.x)).abs();
                return Ok((
                    ResolvedOperatingPoint {
                        point,
                        degradation: Degradation::Exact,
                        residual,
                    },
                    roots,
                ));
            }
        }
        deadline.check()?;
        // The fast path is bit-identical to the dense exact rung, so a
        // miss here is a miss there too: enter the ladder below exact.
        let resolved = degrade::resolve(model, samples, DegradeForce::SkipExact)
            .map_err(|e| ServeError::Model(e.to_string()))?;
        return Ok((resolved, roots));
    }
    let resolved =
        degrade::resolve(model, samples, force).map_err(|e| ServeError::Model(e.to_string()))?;
    Ok((resolved, 0))
}

fn handle_solve(
    shared: &Shared,
    request: &Request,
    accepted: Instant,
    force: DegradeForce,
) -> Result<Response, ServeError> {
    let parsed = parse_request(shared, request, accepted)?;
    let (resolved, roots) = resolve_point(
        shared,
        &parsed.model,
        parsed.samples,
        &parsed.deadline,
        force,
    )?;
    parsed.deadline.check()?;
    let p = resolved.point;
    let body = format!(
        "{{\"schema\":{},\"kind\":\"solve\",\"degradation\":{},\"residual\":{},\"roots\":{},\"point\":{{\"k\":{},\"x\":{},\"ms\":{},\"cs\":{},\"stability\":{}}}}}\n",
        jstr(SERVE_SCHEMA),
        jstr(resolved.degradation.as_str()),
        jnum(resolved.residual),
        roots,
        jnum(p.k),
        jnum(p.x),
        jnum(p.ms_throughput),
        jnum(p.cs_throughput),
        jstr(stability_str(p.stability)),
    );
    Ok(Response::ok(JSON_TEXT, body).header("X-Degradation", resolved.degradation.as_str()))
}

fn handle_sweep(
    shared: &Shared,
    request: &Request,
    accepted: Instant,
    force: DegradeForce,
) -> Result<Response, ServeError> {
    let parsed = parse_request(shared, request, accepted)?;
    let json = xmodel_obs::json::parse(&request.body)
        .map_err(|e| ServeError::BadRequest(format!("body is not JSON: {e}")))?;
    let n_max = json
        .get("n_max")
        .and_then(|v| v.as_f64())
        .unwrap_or(parsed.model.workload.n);
    if !(n_max.is_finite() && n_max >= 1.0) {
        return Err(ServeError::BadRequest("`n_max` must be >= 1".into()));
    }
    let points = json
        .get("points")
        .and_then(|v| v.as_u64())
        .map(|p| p as usize)
        .unwrap_or(64)
        .clamp(2, MAX_SWEEP_POINTS);

    parsed.deadline.check()?;
    // One tabulation covers every row at the exact rung: the supply
    // curve does not depend on `n`, only the scan domain does.
    let table = (force == DegradeForce::None).then(|| CurveTable::build(&parsed.model, n_max));

    let mut rows = String::new();
    let mut worst = Degradation::Exact;
    for i in 0..points {
        if i % SWEEP_CHECK_EVERY == 0 {
            parsed.deadline.check()?;
        }
        let n = 1.0 + (n_max - 1.0) * i as f64 / (points - 1).max(1) as f64;
        let model_n = XModel {
            workload: parsed.model.workload.with_n(n),
            ..parsed.model
        };
        let (row, rung) = match &table {
            Some(table) => {
                let eq = solve_fast(&model_n, table, parsed.samples);
                (
                    sweep_row(n, eq.points().len(), eq.operating_point()),
                    Degradation::Exact,
                )
            }
            None => {
                let resolved = degrade::resolve(&model_n, parsed.samples, force)
                    .map_err(|e| ServeError::Model(e.to_string()))?;
                (sweep_row(n, 0, Some(resolved.point)), resolved.degradation)
            }
        };
        if rung.is_degraded() && !worst.is_degraded() {
            worst = rung;
        }
        if !rows.is_empty() {
            rows.push(',');
        }
        rows.push_str(&row);
    }
    parsed.deadline.check()?;
    let body = format!(
        "{{\"schema\":{},\"kind\":\"sweep\",\"degradation\":{},\"n_max\":{},\"points\":{},\"rows\":[{}]}}\n",
        jstr(SERVE_SCHEMA),
        jstr(worst.as_str()),
        jnum(n_max),
        points,
        rows,
    );
    Ok(Response::ok(JSON_TEXT, body).header("X-Degradation", worst.as_str()))
}

fn sweep_row(n: f64, roots: usize, point: Option<crate::solver::Intersection>) -> String {
    match point {
        Some(p) => format!(
            "{{\"n\":{},\"roots\":{},\"k\":{},\"x\":{},\"ms\":{},\"cs\":{},\"stability\":{}}}",
            jnum(n),
            roots,
            jnum(p.k),
            jnum(p.x),
            jnum(p.ms_throughput),
            jnum(p.cs_throughput),
            jstr(stability_str(p.stability)),
        ),
        None => format!("{{\"n\":{},\"roots\":{}}}", jnum(n), roots),
    }
}

fn handle_whatif(
    shared: &Shared,
    request: &Request,
    accepted: Instant,
) -> Result<Response, ServeError> {
    let parsed = parse_request(shared, request, accepted)?;
    let what_if = WhatIf::new(parsed.model);
    parsed.deadline.check()?;

    // The baseline, throttle, intensity and reduce-ILP models share the
    // request's supply curve, so the table cache answers them. Bypass
    // and enlarge-cache derive a new curve: its table would cost more
    // evaluations than one dense solve and evict a `/solve` curve.
    let curve = CurveKey::of(&parsed.model);
    let solve = |m: &XModel| {
        if CurveKey::of(m) == curve {
            shared.cache.solve_with(m, DEFAULT_SAMPLES)
        } else {
            m.solve()
        }
    };
    let baseline = what_if.baseline(solve);

    let mut out = String::new();
    for (name, opt) in what_if.candidates() {
        parsed.deadline.check()?;
        if !out.is_empty() {
            out.push(',');
        }
        match baseline.evaluate(opt, solve) {
            Some(effect) => out.push_str(&format!(
                "{{\"name\":{},\"ms_speedup\":{},\"cs_speedup\":{}}}",
                jstr(name),
                jnum(effect.ms_speedup()),
                jnum(effect.cs_speedup()),
            )),
            None => out.push_str(&format!(
                "{{\"name\":{},\"ms_speedup\":null,\"cs_speedup\":null}}",
                jstr(name)
            )),
        }
    }
    let body = format!(
        "{{\"schema\":{},\"kind\":\"whatif\",\"thrashing\":{},\"candidates\":[{}]}}\n",
        jstr(SERVE_SCHEMA),
        baseline.is_thrashing(),
        out,
    );
    Ok(Response::ok(JSON_TEXT, body))
}

/// A JSON error body (`kind: "error"`) with the status repeated inside,
/// so clients that only log bodies still see the contract.
fn error_response(status: u16, reason: &str) -> Response {
    Response::with_status(
        status,
        JSON_TEXT,
        format!(
            "{{\"schema\":{},\"kind\":\"error\",\"status\":{},\"error\":{}}}\n",
            jstr(SERVE_SCHEMA),
            status,
            jstr(reason),
        ),
    )
}

/// Stable lowercase form matching the CLI sweep output.
fn stability_str(stability: Stability) -> &'static str {
    match stability {
        Stability::Stable => "stable",
        Stability::Unstable => "unstable",
        Stability::Marginal => "marginal",
    }
}

/// Finite floats as shortest-roundtrip decimal, non-finite as `null`
/// (JSON has no Inf/NaN) — same contract as the CLI's sweep writer.
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal with escaping for the characters our payloads
/// can actually contain (quotes, backslashes, control chars).
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn test_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServeConfig::default()
        }
    }

    fn request(addr: SocketAddr, raw: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("send");
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("read");
        let status = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status");
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, text.clone(), body)
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
        request(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    const FERMI_BODY: &str = "{\"gpu\":\"fermi\",\"z\":20,\"n\":48,\"l1_kib\":16}";

    #[test]
    fn solve_whatif_health_and_drain_round_trip() {
        let server = Server::start(test_config()).expect("start");
        let addr = server.addr();

        let (status, _, body) = request(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, _, body) = request(addr, "GET /readyz HTTP/1.1\r\n\r\n");
        assert_eq!((status, body.as_str()), (200, "ready\n"));

        let (status, head, body) = post(addr, "/solve", FERMI_BODY);
        assert_eq!(status, 200, "solve failed: {body}");
        assert!(head.contains("X-Degradation: exact"), "{head}");
        assert!(body.contains("\"schema\":\"xmodel-serve/1\""));
        assert!(body.contains("\"degradation\":\"exact\""));
        assert!(body.contains("\"kind\":\"solve\""));

        let (status, _, body) = post(addr, "/whatif", FERMI_BODY);
        assert_eq!(status, 200, "whatif failed: {body}");
        assert!(body.contains("\"kind\":\"whatif\""));
        assert!(body.contains("\"name\":\"enlarge-cache\""));

        let (status, _, body) = post(
            addr,
            "/sweep",
            "{\"gpu\":\"fermi\",\"z\":16,\"n\":48,\"l1_kib\":16,\"n_max\":32,\"points\":8}",
        );
        assert_eq!(status, 200, "sweep failed: {body}");
        assert!(body.contains("\"kind\":\"sweep\""));
        assert!(body.matches("\"n\":").count() >= 8);

        let (status, _, _) = request(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        let (status, _, _) = request(addr, "DELETE /solve HTTP/1.1\r\n\r\n");
        assert_eq!(status, 405);
        let (status, _, _) = request(addr, "GET /nope HTTP/1.1\r\n\r\n");
        assert_eq!(status, 404);

        let (status, _, body) = post(addr, "/quitck", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"draining\""));
        let report = server.wait();
        assert!(report.clean_drain);
        assert!(report.served >= 7);
        assert_eq!(report.malformed, 0);
    }

    #[test]
    fn wide_sweep_small_n_rows_match_dense_reference() {
        // A bistable Eq. (5) model whose σ′ cache peak near n ≈ 2214 is
        // far narrower than one interval of the table `/sweep` builds
        // over `n_max`: the rows must still be the reference's, bit for
        // bit.
        let server = Server::start(test_config()).expect("start");
        let (n_max, points, samples) = (1.0 + 2212.78 * 1023.0, 1024usize, 1024usize);
        let body = format!(
            "{{\"m\":0.69323,\"r\":0.0021897,\"l\":115.106,\"z\":1.19860,\"e\":3.31964,\
             \"l1_kib\":1372.2890625,\"l1_latency\":3.92558,\"alpha\":6.09530,\
             \"beta\":99625.7,\"n_max\":{n_max},\"points\":{points},\
             \"samples\":{samples},\"deadline_ms\":600000}}"
        );
        let (status, _, text) = post(server.addr(), "/sweep", &body);
        assert_eq!(status, 200, "sweep failed: {text}");
        let base = XModel::with_cache(
            MachineParams::try_new(0.69323, 0.0021897, 115.106).expect("machine"),
            WorkloadParams::try_new(1.19860, 3.31964, n_max).expect("workload"),
            CacheParams::try_new(1372.2890625 * 1024.0, 3.92558, 6.09530, 99625.7).expect("cache"),
        );
        for i in 0..4 {
            let n = 1.0 + (n_max - 1.0) * i as f64 / (points - 1) as f64;
            let eq = XModel {
                workload: base.workload.with_n(n),
                ..base
            }
            .solve_with(samples);
            if i == 1 {
                assert!(eq.is_bistable(), "row 1 lost its fixture: {eq:?}");
            }
            let row = sweep_row(n, eq.points().len(), eq.operating_point());
            assert!(text.contains(&row), "row {i} differs from {row}");
        }
        server.drain();
        assert!(server.wait().clean_drain);
    }

    #[test]
    fn malformed_and_model_errors_are_typed() {
        let server = Server::start(test_config()).expect("start");
        let addr = server.addr();

        let (status, _, body) = post(addr, "/solve", "this is not json");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("\"kind\":\"error\""));

        let (status, _, body) = post(addr, "/solve", "{\"gpu\":\"fermi\",\"n\":48}");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("`z` required"));

        let (status, _, body) = post(
            addr,
            "/solve",
            "{\"m\":6,\"r\":0.1,\"l\":520,\"z\":-2,\"n\":48}",
        );
        assert_eq!(status, 400, "{body}");

        server.drain();
        let report = server.wait();
        assert!(report.clean_drain);
    }

    #[test]
    fn deadline_exhaustion_is_a_typed_504() {
        let mut cfg = test_config();
        cfg.stall_ms = 50;
        let server = Server::start(cfg).expect("start");
        let addr = server.addr();
        let (status, _, body) = post(
            addr,
            "/solve",
            "{\"gpu\":\"fermi\",\"z\":20,\"n\":48,\"deadline_ms\":1}",
        );
        assert_eq!(status, 504, "{body}");
        assert!(body.contains("deadline exceeded"));
        server.drain();
        let report = server.wait();
        assert_eq!(report.deadline_exceeded, 1);
    }

    #[test]
    fn depth_maps_to_ladder_rungs() {
        let cfg = ServeConfig {
            queue_capacity: 10,
            ..ServeConfig::default()
        };
        assert_eq!(force_for_depth(&cfg, 0), DegradeForce::None);
        assert_eq!(force_for_depth(&cfg, 4), DegradeForce::None);
        assert_eq!(force_for_depth(&cfg, 5), DegradeForce::SkipExact);
        assert_eq!(force_for_depth(&cfg, 8), DegradeForce::SkipGrid);
        assert_eq!(force_for_depth(&cfg, 10), DegradeForce::SkipGrid);
    }

    #[test]
    fn sharded_cache_routes_same_key_to_same_shard() {
        let cache = ShardedSolveCache::new(8);
        let model = XModel::new(
            MachineParams::try_new(6.0, 0.107, 520.0).expect("machine"),
            WorkloadParams::try_new(20.0, 1.0, 48.0).expect("workload"),
        );
        let key = CurveKey::of(&model);
        assert_eq!(cache.shard_index(&key), cache.shard_index(&key));
        let eq = cache.solve_with(&model, 512);
        let again = cache.solve_with(&model, 512);
        assert_eq!(eq.points().len(), again.points().len());
        assert!(cache.hits() >= 1);
        assert!(cache.rebuilds() >= 1);
    }

    #[test]
    fn shard_lru_hits_misses_and_evicts() {
        // One shard so every curve lands in the same LRU list.
        let cache = ShardedSolveCache::new(1);
        let model_for = |l: f64| {
            XModel::new(
                MachineParams::try_new(6.0, 0.107, l).expect("machine"),
                WorkloadParams::try_new(20.0, 1.0, 48.0).expect("workload"),
            )
        };
        // Fill past capacity: each distinct L is a distinct supply curve.
        let curves: Vec<XModel> = (0..=SHARD_LRU_CAPACITY)
            .map(|i| model_for(500.0 + 10.0 * i as f64))
            .collect();
        for model in &curves {
            cache.solve_with(model, 512);
        }
        assert_eq!(cache.cache_misses(), SHARD_LRU_CAPACITY as u64 + 1);
        assert_eq!(cache.cache_hits(), 0);
        assert_eq!(cache.cache_evictions(), 1);

        // The most recent curve is resident; re-solving is an LRU hit
        // and bit-identical to the reference solver.
        let last = curves.last().expect("non-empty");
        let warm = cache.solve_with(last, 512);
        assert_eq!(cache.cache_hits(), 1);
        let reference = last.solve_with(512);
        assert_eq!(warm.points().len(), reference.points().len());

        // The oldest curve was the one evicted: solving it again is a
        // miss (and evicts the now-oldest survivor).
        cache.solve_with(&curves[0], 512);
        assert_eq!(cache.cache_misses(), SHARD_LRU_CAPACITY as u64 + 2);
        assert_eq!(cache.cache_evictions(), 2);
    }

    /// A `/whatif` body with explicit parameters (the §VI thrashing
    /// fixture at `n` threads, roofline without `l1_kib`) and the model
    /// the daemon parses from it.
    fn whatif_case(n: f64, l1_kib: Option<f64>) -> (String, XModel) {
        let machine = MachineParams::try_new(6.0, 0.02, 600.0).expect("machine");
        let workload = WorkloadParams::try_new(40.0, 2.0, n).expect("workload");
        let mut body = format!("{{\"m\":6,\"r\":0.02,\"l\":600,\"z\":40,\"e\":2,\"n\":{n}");
        let model = match l1_kib {
            Some(kib) => {
                body.push_str(&format!(
                    ",\"l1_kib\":{kib},\"l1_latency\":30,\"alpha\":5,\"beta\":2048"
                ));
                let cache = CacheParams::try_new(kib * 1024.0, 30.0, 5.0, 2048.0).expect("cache");
                XModel::with_cache(machine, workload, cache)
            }
            None => XModel::new(machine, workload),
        };
        body.push('}');
        (body, model)
    }

    /// POST `/whatif` and check the answer against in-process
    /// [`WhatIf`] bit for bit (a non-finite speedup is JSON `null`).
    fn assert_whatif_parity(addr: SocketAddr, body: &str, model: &XModel) {
        use xmodel_obs::json::JsonValue;
        let (status, _, text) = post(addr, "/whatif", body);
        assert_eq!(status, 200, "whatif failed: {text}");
        let json = xmodel_obs::json::parse(&text).expect("json body");
        let what_if = WhatIf::new(*model);
        assert_eq!(
            json.get("thrashing"),
            Some(&JsonValue::Bool(what_if.is_thrashing())),
            "{text}"
        );
        let Some(JsonValue::Array(got)) = json.get("candidates") else {
            panic!("no candidates: {text}");
        };
        let want = what_if.candidates();
        assert_eq!(got.len(), want.len(), "{text}");
        let bits =
            |j: &JsonValue, key: &str| j.get(key).and_then(JsonValue::as_f64).map(f64::to_bits);
        for (g, (name, opt)) in got.iter().zip(&want) {
            let effect = what_if.evaluate(*opt);
            assert_eq!(g.get("name").and_then(JsonValue::as_str), Some(*name));
            assert_eq!(
                bits(g, "ms_speedup"),
                effect
                    .map(|e| e.ms_speedup())
                    .filter(|v| v.is_finite())
                    .map(f64::to_bits),
                "{name}"
            );
            assert_eq!(
                bits(g, "cs_speedup"),
                effect
                    .map(|e| e.cs_speedup())
                    .filter(|v| v.is_finite())
                    .map(f64::to_bits),
                "{name}"
            );
        }
    }

    /// Whether `key`'s curve holds an LRU entry in any shard.
    fn resident(cache: &ShardedSolveCache, key: &CurveKey) -> bool {
        cache.shards.iter().any(|shard| {
            shard
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .any(|(k, _)| k == key)
        })
    }

    #[test]
    fn whatif_matches_in_process_whatif_across_cache_histories() {
        // One shard, so every curve competes for the same LRU slots.
        let server = Server::start(ServeConfig {
            cache_shards: 1,
            ..test_config()
        })
        .expect("start");
        let addr = server.addr();
        let cache = &server.shared.cache;

        // A `/solve` at large n first: the cached table spans k ≤ 4096,
        // far wider than the what-if operating point.
        let (wide, _) = whatif_case(4000.0, Some(16.0));
        let (status, _, text) = post(addr, "/solve", &wide);
        assert_eq!(status, 200, "solve failed: {text}");
        let (thrashing, model) = whatif_case(20.0, Some(16.0));
        assert_whatif_parity(addr, &thrashing, &model);
        let (roofline, model) = whatif_case(20.0, None);
        assert_whatif_parity(addr, &roofline, &model);

        // The baseline builds a table over k ≤ 64; the throttle target
        // n* lies beyond it, so the cached entry grows its domain.
        let (grows, model) = whatif_case(20.0, Some(512.0));
        let n_star = WhatIf::new(model).optimal_throttle().expect("cache peak");
        assert!(n_star > 64.0, "n* = {n_star} must leave the first table");
        let rebuilds = cache.rebuilds();
        assert_whatif_parity(addr, &grows, &model);
        assert_eq!(cache.rebuilds(), rebuilds + 2, "cold build, then growth");

        // Evict the thrashing curve with a full shard of other curves,
        // then ask again: a cold entry answers identically.
        for i in 0..SHARD_LRU_CAPACITY {
            let body = format!(
                "{{\"m\":6,\"r\":0.1,\"l\":{},\"z\":20,\"n\":48}}",
                500 + 10 * i
            );
            let (status, _, text) = post(addr, "/solve", &body);
            assert_eq!(status, 200, "solve failed: {text}");
        }
        let (_, model) = whatif_case(20.0, Some(16.0));
        assert!(
            !resident(cache, &CurveKey::of(&model)),
            "curve must be evicted"
        );
        let misses = cache.cache_misses();
        assert_whatif_parity(addr, &thrashing, &model);
        assert_eq!(cache.cache_misses(), misses + 1);

        // No finite table covers n = 1e308: the cache answers dense,
        // and the worker survives to answer the next request.
        let (huge, model) = whatif_case(1e308, Some(16.0));
        assert_whatif_parity(addr, &huge, &model);
        assert_whatif_parity(addr, &huge, &model);

        server.drain();
        assert!(server.wait().clean_drain);
    }

    #[test]
    fn whatif_caches_only_its_own_curve() {
        let server = Server::start(ServeConfig {
            cache_shards: 1,
            ..test_config()
        })
        .expect("start");
        let addr = server.addr();
        let cache = &server.shared.cache;
        let (body, model) = whatif_case(20.0, Some(16.0));
        let what_if = WhatIf::new(model);
        let candidates = what_if.candidates();
        // Solves per request: the baseline plus one per candidate.
        let solves = 1 + candidates.len() as u64;

        // Cold: one new LRU entry, the request's own curve. The
        // baseline, throttle, intensity and reduce-ILP solves go through
        // it; bypass and enlarge-cache are solved dense.
        let (status, _, text) = post(addr, "/whatif", &body);
        assert_eq!(status, 200, "whatif failed: {text}");
        assert_eq!(cache.cache_misses(), 1);
        let cached = cache.cache_hits() + cache.cache_misses();
        assert_eq!(cached, 4);
        assert!(solves - cached <= 2, "{} dense solves", solves - cached);
        assert!(resident(cache, &CurveKey::of(&model)));
        for (name, opt) in &candidates {
            let derived = CurveKey::of(&opt.apply(&model));
            if derived != CurveKey::of(&model) {
                assert!(!resident(cache, &derived), "{name} curve cached");
            }
        }

        // Warm, in a full shard: no miss and no eviction.
        for i in 1..SHARD_LRU_CAPACITY {
            let other = format!(
                "{{\"m\":6,\"r\":0.1,\"l\":{},\"z\":20,\"n\":48}}",
                500 + 10 * i
            );
            let (status, _, text) = post(addr, "/solve", &other);
            assert_eq!(status, 200, "solve failed: {text}");
        }
        let (misses, hits) = (cache.cache_misses(), cache.cache_hits());
        assert_eq!(cache.cache_evictions(), 0);
        let (status, _, text) = post(addr, "/whatif", &body);
        assert_eq!(status, 200, "whatif failed: {text}");
        assert_eq!(cache.cache_misses(), misses);
        assert_eq!(cache.cache_hits(), hits + 4);
        assert_eq!(cache.cache_evictions(), 0);

        server.drain();
        assert!(server.wait().clean_drain);
    }

    #[test]
    fn json_escapes_are_wellformed() {
        assert_eq!(jstr("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(jnum(1.5), "1.5");
        assert_eq!(jnum(f64::NAN), "null");
        assert_eq!(jnum(f64::INFINITY), "null");
    }
}
