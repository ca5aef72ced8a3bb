//! Golden digests of full simulator runs.
//!
//! Each case runs one seeded configuration to the end and folds every
//! `SimStats` field (floats by their bits) plus the final cycle into a
//! 64-bit FNV-1a digest. The digests were recorded before the warp
//! scheduler moved from linear round-robin scans to warp-index bitsets,
//! so any change to scheduling order, budgets or accounting shows up as
//! a mismatch here.
//!
//! The cases cover what the `validate` reference and the fast-forward
//! oracle do not: warp counts on both sides of the 64-warp word
//! boundary, L1s with one or two MSHRs (so `Stalled` warps retry through
//! the LSU), cache bypass, an L2, an initial MS fraction, a fault spec
//! with drops, duplicates and spikes under `run_watched`, and a two-SM
//! chip on a shared DRAM channel.
//!
//! To re-record after an intended change in simulator behaviour, run
//! `cargo test -p xmodel-sim --test golden_stats -- --nocapture` and copy
//! the printed `got` digests into `GOLDEN`.

use xmodel_sim::{simulate_chip, FaultSpec, SimConfig, SimStats, SimWorkload, Sm, Watchdog};
use xmodel_workloads::TraceSpec;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn stats(&mut self, s: &SimStats) {
        // Destructure so a new `SimStats` field cannot be left out.
        let SimStats {
            cycles,
            ops_retired,
            requests_completed,
            bytes_delivered,
            l1_hits,
            l1_misses,
            l1_merges,
            mshr_stalls,
            spurious_wakes,
            lost_recovered,
            sum_k,
            sum_x,
            trajectory,
            k_histogram,
        } = s;
        self.u64(*cycles);
        self.f64(*ops_retired);
        self.u64(*requests_completed);
        self.u64(*bytes_delivered);
        self.u64(*l1_hits);
        self.u64(*l1_misses);
        self.u64(*l1_merges);
        self.u64(*mshr_stalls);
        self.u64(*spurious_wakes);
        self.u64(*lost_recovered);
        self.f64(*sum_k);
        self.f64(*sum_x);
        self.u64(trajectory.len() as u64);
        for &(cycle, k) in trajectory {
            self.u64(cycle);
            self.u64(u64::from(k));
        }
        self.u64(k_histogram.len() as u64);
        for &count in k_histogram {
            self.u64(count);
        }
    }
}

fn digest_sm(sm: &Sm) -> u64 {
    let mut h = Fnv::new();
    h.stats(sm.stats());
    h.u64(sm.cycle());
    h.0
}

fn stream(warps: u32, z: f64, e: f64) -> SimWorkload {
    SimWorkload {
        trace: TraceSpec::Stream {
            region_lines: 1 << 20,
        },
        ops_per_request: z,
        ilp: e,
        warps,
    }
}

fn working_set(warps: u32, z: f64) -> SimWorkload {
    SimWorkload {
        trace: TraceSpec::PrivateWorkingSet {
            ws_lines: 12,
            stream_prob: 0.2,
            reuse_skew: 0.5,
        },
        ops_per_request: z,
        ilp: 1.5,
        warps,
    }
}

/// Plain DRAM, no caches: memory- and compute-leaning mixes.
fn no_cache() -> SimConfig {
    SimConfig::builder()
        .lanes(6.0)
        .issue_width(2)
        .lsu(2)
        .dram(300, 16.0)
        .build()
}

/// An L1 with `mshrs` miss registers in front of DRAM.
fn tiny_mshr(mshrs: u32) -> SimConfig {
    SimConfig::builder()
        .lanes(4.0)
        .issue_width(4)
        .lsu(3)
        .dram(250, 12.0)
        .l1(4 * 1024, 12, mshrs)
        .build()
}

fn run_case(name: &str) -> u64 {
    let (warmup, measure) = (1_500, 5_000);
    let mut sm = match name {
        "n1_compute" => Sm::new(&no_cache(), &stream(1, 40.0, 2.0), 11),
        "n63_mem" => Sm::new(&no_cache(), &stream(63, 3.0, 1.0), 12),
        "n64_mem" => Sm::new(&no_cache(), &stream(64, 3.0, 1.0), 13),
        "n65_mixed" => Sm::new(&no_cache(), &stream(65, 25.0, 1.5), 14),
        "n96_compute" => Sm::new(&no_cache(), &stream(96, 400.0, 2.0), 15),
        "n160_mem" => Sm::new(&no_cache(), &stream(160, 4.0, 1.0), 16),
        "n64_mshr1" => Sm::new(&tiny_mshr(1), &working_set(64, 6.0), 21),
        "n65_mshr2" => Sm::new(&tiny_mshr(2), &working_set(65, 8.0), 22),
        "n160_mshr2" => Sm::new(&tiny_mshr(2), &stream(160, 5.0, 1.0), 23),
        "n96_bypass" => {
            let cfg = SimConfig::builder()
                .lanes(5.0)
                .dram(350, 10.0)
                .l1(8 * 1024, 20, 2)
                .bypass(0.4)
                .build();
            Sm::new(&cfg, &working_set(96, 10.0), 31)
        }
        "n130_l2" => {
            let cfg = SimConfig::builder()
                .lanes(8.0)
                .issue_width(3)
                .dram(400, 8.0)
                .l1(8 * 1024, 20, 4)
                .l2(64 * 1024, 60, 48.0)
                .build();
            let wl = SimWorkload {
                trace: TraceSpec::SharedVector {
                    vector_lines: 96,
                    region_lines: 1 << 14,
                    vector_prob: 0.6,
                },
                ops_per_request: 12.0,
                ilp: 2.0,
                warps: 130,
            };
            Sm::new(&cfg, &wl, 32)
        }
        "n100_initial_ms" => {
            Sm::with_initial_ms_fraction(&no_cache(), &stream(100, 30.0, 1.0), 33, 0.7)
        }
        "n80_faults_watched" => return digest_sm(&faulted_watched()),
        other => panic!("unknown case {other}"),
    };
    sm.trajectory_interval = 211;
    sm.run(warmup, measure);
    digest_sm(&sm)
}

/// Drops, duplicates and spikes under `run_watched`, long enough for the
/// recovery sweep to re-submit dropped requests.
fn faulted_watched() -> Sm {
    let spec = FaultSpec::parse("seed=9,drop=0.03,dup=0.04,spike=0.05x2").unwrap();
    let mut sm = Sm::with_faults(&no_cache(), &stream(80, 6.0, 1.0), 41, &spec);
    sm.trajectory_interval = 97;
    let watchdog = Watchdog {
        stall_cycles: 50_000,
        ..Watchdog::default()
    };
    sm.run_watched(1_500, 12_000, &watchdog).unwrap();
    sm
}

fn run_chip() -> u64 {
    let cfg = SimConfig::builder()
        .lanes(4.0)
        .issue_width(2)
        .lsu(2)
        .dram(300, 8.0)
        .l1(4 * 1024, 15, 2)
        .build();
    let mut h = Fnv::new();
    for s in simulate_chip(&cfg, &working_set(70, 5.0), 2, 20.0, 1_000, 4_000) {
        h.stats(&s);
    }
    h.0
}

/// Digests recorded with the linear-scan scheduler.
const GOLDEN: &[(&str, u64)] = &[
    ("n1_compute", 0x88366485E6278044),
    ("n63_mem", 0x18DC96882AE94AAC),
    ("n64_mem", 0x4246836F8DB09005),
    ("n65_mixed", 0x8431D64CCB7F21AF),
    ("n96_compute", 0x56DF4FF47756E8B3),
    ("n160_mem", 0x27A427CA8252243F),
    ("n64_mshr1", 0xBCDC3593575917D2),
    ("n65_mshr2", 0xE4614F48128F70A9),
    ("n160_mshr2", 0x3E3C9262FB22D930),
    ("n96_bypass", 0x240A99EC2E3F3571),
    ("n130_l2", 0x49341B62CCD782E9),
    ("n100_initial_ms", 0x123A76A258E2B231),
    ("n80_faults_watched", 0xEA86456964D81EF3),
    ("chip2", 0xF5112D8ED99AB89E),
];

#[test]
fn stats_match_golden_digests() {
    let mut mismatches = Vec::new();
    for &(name, want) in GOLDEN {
        let got = if name == "chip2" {
            run_chip()
        } else {
            run_case(name)
        };
        println!("    (\"{name}\", 0x{got:016X}),");
        if got != want {
            mismatches.push(format!("{name}: got 0x{got:016X}, want 0x{want:016X}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn golden_cases_exercise_what_they_claim() {
    let stalled = {
        let mut sm = Sm::new(&tiny_mshr(2), &stream(160, 5.0, 1.0), 23);
        sm.run(1_500, 5_000);
        sm.stats().mshr_stalls
    };
    assert!(stalled > 0, "the 2-MSHR case never stalled a warp");
    let sm = faulted_watched();
    let faults = sm.fault_counters().unwrap();
    assert!(faults.drops > 0 && faults.dups > 0, "{faults:?}");
    assert!(sm.stats().lost_recovered > 0, "{:?}", sm.stats());
}
