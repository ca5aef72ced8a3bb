//! Differential oracle for the simulator's fast-forward.
//!
//! `Sm::run`, `Sm::run_watched` and `Sm::run_until_requests` skip idle
//! stretches (every warp waiting on memory) in closed form. `Sm::step`
//! always advances exactly one cycle, so a plain loop of `step` calls is
//! the reference: for every drawn case the run methods must leave the
//! same `SimStats` (floats compared bit for bit), fault counters, cycle
//! and recovery ledger as the loop. The traced variant also compares the
//! `sim.*` event streams with their wall-clock stamps removed.
//!
//! Cases are drawn from a seeded SplitMix64 over the whole configuration
//! space: L1 on/off with 1–4 MSHRs (so warps stall), L2, bypass, lanes,
//! LSU and issue width, DRAM latency and bandwidth, 1–160 warps (across
//! the 64-warp word boundary of the scheduler's warp sets), `z = ∞`,
//! an initial MS fraction, trajectory sampling and fault specs with
//! drops. The tier-1 set is small; the `#[ignore]`d wide set runs in
//! release mode from `scripts/ci.sh`.

use std::sync::Mutex;
use xmodel_obs::names::span;
use xmodel_obs::MemSink;
use xmodel_sim::{FaultSpec, SimConfig, SimStats, SimWorkload, Sm, Watchdog};
use xmodel_workloads::TraceSpec;

/// The trace sink is process-global: tests in this file take turns so a
/// traced case only records its own events.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Log-uniform in `[lo, hi)`.
    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + self.unit() * (hi.ln() - lo.ln())).exp()
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

#[derive(Debug, Clone)]
struct Case {
    cfg: SimConfig,
    wl: SimWorkload,
    seed: u64,
    ms_fraction: f64,
    faults: Option<FaultSpec>,
    trajectory_interval: u64,
    warmup: u64,
    measure: u64,
}

/// Draw one case; `scale` multiplies the phase lengths.
fn draw(rng: &mut SplitMix64, scale: u64) -> Case {
    let mut b = SimConfig::builder()
        .lanes(rng.range(1, 32) as f64 * 0.5)
        .issue_width(rng.range(1, 8) as u32)
        .lsu(rng.range(1, 4) as u32)
        .dram(rng.range(1, 1000), rng.log_uniform(0.5, 256.0));
    if rng.chance(0.5) {
        let capacity = 128 << rng.range(0, 8);
        b = b.l1(capacity, rng.range(1, 40), rng.range(1, 4) as u32);
        if rng.chance(0.3) {
            b = b.bypass(rng.unit());
        }
    }
    if rng.chance(0.3) {
        let capacity = 128 << rng.range(2, 12);
        b = b.l2(capacity, rng.range(1, 200), rng.log_uniform(1.0, 512.0));
    }
    if rng.chance(0.2) {
        b = b.request_bytes(rng.range(1, 512) as f64);
    }
    let trace = match rng.range(0, 3) {
        0 => TraceSpec::Stream {
            region_lines: rng.range(1, 1 << 16),
        },
        1 => TraceSpec::PrivateWorkingSet {
            ws_lines: rng.range(1, 64),
            stream_prob: rng.unit(),
            reuse_skew: rng.unit() * 2.0,
        },
        2 => TraceSpec::SharedVector {
            vector_lines: rng.range(1, 256),
            region_lines: rng.range(1, 1 << 16),
            vector_prob: rng.unit(),
        },
        _ => TraceSpec::Gather {
            footprint_lines: rng.range(1, 1 << 16),
            skew: rng.unit() * 1.5,
        },
    };
    let z = if rng.chance(0.05) {
        f64::INFINITY
    } else {
        rng.log_uniform(0.5, 200.0)
    };
    let wl = SimWorkload {
        trace,
        ops_per_request: z,
        ilp: rng.range(1, 8) as f64 * 0.5,
        warps: rng.range(1, 160) as u32,
    };
    let faults = rng.chance(0.3).then(|| {
        let mut text = format!("seed={}", rng.range(0, 1 << 20));
        if rng.chance(0.7) {
            text += &format!(",drop={:.3}", rng.unit() * 0.2);
        }
        if rng.chance(0.4) {
            text += &format!(",dup={:.3}", rng.unit() * 0.2);
        }
        if rng.chance(0.4) {
            text += &format!(",spike={:.3}x{}", rng.unit() * 0.3, rng.range(1, 8));
        }
        if rng.chance(0.3) {
            let period = rng.range(100, 5000);
            let factor = 0.05 + 0.95 * rng.unit();
            text += &format!(",throttle={period}:{:.2}:{factor:.2}", rng.unit());
        }
        FaultSpec::parse(&text).unwrap()
    });
    let ms_fraction = if faults.is_none() && rng.chance(0.4) {
        rng.unit()
    } else {
        0.0
    };
    let trajectory_interval = if rng.chance(0.3) {
        rng.range(1, 600)
    } else {
        0
    };
    Case {
        cfg: b.build(),
        wl,
        seed: rng.next_u64(),
        ms_fraction,
        faults,
        trajectory_interval,
        warmup: rng.range(0, 3_000) * scale,
        measure: rng.range(1, 5_000) * scale,
    }
}

fn build(case: &Case) -> Sm {
    let mut sm = match &case.faults {
        Some(spec) => Sm::with_faults(&case.cfg, &case.wl, case.seed, spec),
        None => Sm::with_initial_ms_fraction(&case.cfg, &case.wl, case.seed, case.ms_fraction),
    };
    sm.trajectory_interval = case.trajectory_interval;
    sm
}

/// The reference: `warmup + measure` single steps, under the same span
/// structure as `Sm::run` so traced events carry the same span names.
fn stepped(case: &Case) -> Sm {
    let mut sm = build(case);
    let _run = xmodel_obs::span!(span::SIM_RUN);
    sm.set_measuring(false);
    {
        let _warm = xmodel_obs::span!(span::SIM_WARMUP);
        for _ in 0..case.warmup {
            sm.step();
        }
    }
    sm.set_measuring(true);
    {
        let _meas = xmodel_obs::span!(span::SIM_MEASURE);
        for _ in 0..case.measure {
            sm.step();
        }
    }
    sm
}

fn fast(case: &Case) -> Sm {
    let mut sm = build(case);
    sm.run(case.warmup, case.measure);
    sm
}

fn float_bits(s: &SimStats) -> [u64; 3] {
    [
        s.ops_retired.to_bits(),
        s.sum_k.to_bits(),
        s.sum_x.to_bits(),
    ]
}

fn assert_same(what: &str, got: &Sm, want: &Sm, case: &Case) {
    assert_eq!(
        got.stats(),
        want.stats(),
        "{what}: stats differ for {case:?}"
    );
    assert_eq!(
        float_bits(got.stats()),
        float_bits(want.stats()),
        "{what}: float sums differ in the last bits for {case:?}"
    );
    assert_eq!(
        got.fault_counters(),
        want.fault_counters(),
        "{what}: {case:?}"
    );
    assert_eq!(got.cycle(), want.cycle(), "{what}: {case:?}");
    assert_eq!(
        got.outstanding_requests(),
        want.outstanding_requests(),
        "{what}: {case:?}"
    );
}

/// `run_until_requests` against a stepped loop with the same stopping
/// rule; returns the cycles spent, or `None` past `max_cycles`.
fn check_until_requests(case: &Case, requests: u64, max_cycles: u64) -> Option<u64> {
    let mut fast = build(case);
    let got = fast.run_until_requests(requests, max_cycles);
    let mut slow = build(case);
    slow.set_measuring(true);
    let want = loop {
        if slow.stats().requests_completed >= requests {
            break Some(slow.cycle());
        }
        if slow.cycle() >= max_cycles {
            break None;
        }
        slow.step();
    };
    assert_eq!(
        got, want,
        "run_until_requests({requests}, {max_cycles}): {case:?}"
    );
    assert_same("run_until_requests", &fast, &slow, case);
    got
}

/// What the drawn cases exercised, so the oracle cannot pass vacuously.
#[derive(Default, Debug)]
struct Coverage {
    all_waiting: usize,
    mshr_stalls: usize,
    recovered: usize,
    until_hit: usize,
    until_timeout: usize,
}

fn differential(cases: usize, scale: u64, seed: u64) -> Coverage {
    let mut rng = SplitMix64(seed);
    let mut cov = Coverage::default();
    for _ in 0..cases {
        let case = draw(&mut rng, scale);
        let want = stepped(&case);
        assert_same("run", &fast(&case), &want, &case);

        let mut watched = build(&case);
        watched
            .run_watched(case.warmup, case.measure, &Watchdog::default())
            .unwrap();
        assert_same("run_watched", &watched, &want, &case);

        let requests = rng.range(1, 300);
        let max_cycles = rng.range(1, 6_000) * scale;
        match check_until_requests(&case, requests, max_cycles) {
            Some(_) => cov.until_hit += 1,
            None => cov.until_timeout += 1,
        }

        let s = want.stats();
        cov.all_waiting += usize::from(s.k_histogram.last().is_some_and(|&c| c > 0));
        cov.mshr_stalls += usize::from(s.mshr_stalls > 0);
        cov.recovered += usize::from(s.lost_recovered > 0);
    }
    cov
}

fn assert_covered(cov: &Coverage, cases: usize) {
    assert!(
        cov.all_waiting > cases / 4,
        "too few idle stretches: {cov:?}"
    );
    assert!(cov.mshr_stalls > 0, "no case stalled on MSHRs: {cov:?}");
    assert!(
        cov.recovered > 0,
        "no case recovered a dropped request: {cov:?}"
    );
    assert!(cov.until_hit > 0 && cov.until_timeout > 0, "{cov:?}");
}

#[test]
fn run_matches_stepping() {
    let _serial = serial();
    let cases = 300;
    let cov = differential(cases, 1, 0x5EED_F00D);
    assert_covered(&cov, cases);
}

#[test]
#[ignore = "wide differential set; run in release mode by scripts/ci.sh"]
fn run_matches_stepping_wide() {
    let _serial = serial();
    let cases = 3_000;
    let cov = differential(cases, 4, 0xF00D_5EED);
    assert_covered(&cov, cases);
}

/// The `sim.*` events one closure emits, `t_us` removed.
fn sim_events(f: impl FnOnce() -> Sm) -> (Vec<String>, Sm) {
    let sink = MemSink::new();
    xmodel_obs::install(Box::new(sink.clone()));
    let sm = f();
    xmodel_obs::finish(None);
    let lines = sink
        .lines()
        .into_iter()
        .filter(|l| l.contains("\"kind\":\"sim."))
        .map(|l| strip_t_us(&l))
        .collect();
    (lines, sm)
}

fn strip_t_us(line: &str) -> String {
    let Some(at) = line.find("\"t_us\":") else {
        return line.to_string();
    };
    let rest = &line[at + "\"t_us\":".len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    let rest = rest[end..].strip_prefix(',').unwrap_or(&rest[end..]);
    format!("{}{}", &line[..at], rest)
}

#[test]
fn traced_run_emits_the_same_events_as_stepping() {
    let _serial = serial();
    let mut rng = SplitMix64(0x7EAC_ED00);
    let mut snapshots = 0;
    for _ in 0..40 {
        let case = draw(&mut rng, 1);
        let (want, slow) = sim_events(|| stepped(&case));
        let (got, quick) = sim_events(|| fast(&case));
        assert_eq!(got, want, "traced events differ for {case:?}");
        assert_same("traced run", &quick, &slow, &case);
        snapshots += want
            .iter()
            .filter(|l| l.contains("\"kind\":\"sim.snapshot\""))
            .count();
    }
    assert!(snapshots > 0, "no traced case emitted a snapshot");
}

#[test]
fn strip_t_us_removes_only_the_stamp() {
    assert_eq!(
        strip_t_us(r#"{"kind":"sim.probe","t_us":3634,"span":"sim.run","cycle":1}"#),
        r#"{"kind":"sim.probe","span":"sim.run","cycle":1}"#
    );
}
