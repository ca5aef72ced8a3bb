//! Adversarial differential fuzzer: the fast path against the dense
//! reference `XModel::solve_with`, bit for bit.
//!
//! Each case draws a machine, workload and (in 80% of cases) an Eq. (5)
//! cache log-uniformly over wide ranges — `L < L$` included — a dense
//! scan of 64 to 2048 samples, and a table domain ×1 to ×1024 wider than
//! `n`. The case is then solved three ways, each compared bitwise with
//! the reference: `solve_fast` on that table, and through `SolveCache`
//! and `ShardedSolveCache` after replaying a random history of earlier
//! requests for the same curve (a cache's domain grows with the largest
//! `n` it has seen and never shrinks).
//!
//! The draw is seeded with SplitMix64 (as `sim::fault` is), so a case is
//! reproducible from its seed and index. A failing case prints itself as
//! a `Case` literal; paste it into [`REGRESSIONS`] under a name so it is
//! checked on every run from then on. Tier-1 runs 2000 cases; the
//! 20 000-case set is `#[ignore]`d for release runs:
//!
//! ```text
//! cargo test --release -p xmodel-core --test fastpath_fuzz -- --ignored
//! ```

use xmodel_core::cache::CacheParams;
use xmodel_core::fastpath::{solve_fast, CurveTable, SolveCache};
use xmodel_core::params::{MachineParams, WorkloadParams};
use xmodel_core::serve::ShardedSolveCache;
use xmodel_core::XModel;

/// SplitMix64: one 64-bit state, one output per step.
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

    /// Log-uniform in `[lo, hi)`.
    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + (hi.ln() - lo.ln()) * self.unit()).exp()
    }

    /// Uniform integer in `[lo, hi]`.
    fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// One fuzz case. All fields are plain numbers so a failure can be
/// pasted back as a fixture.
#[derive(Debug, Clone, Copy)]
struct Case {
    /// `(M, R, L)`.
    machine: (f64, f64, f64),
    /// `(Z, E, n)`.
    workload: (f64, f64, f64),
    /// `(S$, L$, α, β)` when the Eq. (5) form is selected.
    cache: Option<(f64, f64, f64, f64)>,
    samples: usize,
    /// Domain of the direct-solve table, `≥ n`.
    k_max: f64,
    /// Thread counts requested from the caches before this case (`0`
    /// ends the list).
    history: [f64; 3],
}

impl Case {
    fn draw(rng: &mut SplitMix64) -> Self {
        let machine = (
            rng.log_uniform(0.1, 64.0),
            rng.log_uniform(1e-3, 2.0),
            rng.log_uniform(5.0, 2000.0),
        );
        let n = rng.log_uniform(1.0, 8192.0);
        let workload = (rng.log_uniform(0.5, 500.0), rng.log_uniform(0.1, 8.0), n);
        let cache = (rng.unit() < 0.8).then(|| {
            (
                rng.log_uniform(1024.0, 8.0 * 1024.0 * 1024.0),
                rng.log_uniform(1.0, 1000.0),
                1.0 + rng.log_uniform(0.01, 10.0),
                rng.log_uniform(1.0, 1e6),
            )
        });
        let samples = rng.between(64, 2048);
        let k_max = n * rng.log_uniform(1.0, 1024.0);
        let mut history = [0.0; 3];
        for slot in history.iter_mut().take(rng.between(0, 3)) {
            *slot = n * rng.log_uniform(1.0 / 16.0, 1024.0);
        }
        Self {
            machine,
            workload,
            cache,
            samples,
            k_max,
            history,
        }
    }

    fn model_at(&self, n: f64) -> XModel {
        let (m, r, l) = self.machine;
        let (z, e, _) = self.workload;
        let machine = MachineParams::new(m, r, l);
        let workload = WorkloadParams::new(z, e, n);
        match self.cache {
            Some((s, lc, a, b)) => XModel::with_cache(
                machine,
                workload,
                CacheParams::try_new(s, lc, a, b).expect("valid cache"),
            ),
            None => XModel::new(machine, workload),
        }
    }

    /// Every fast-path route, bitwise against the reference. `Debug`
    /// prints each `f64` exactly (shortest round-trip), so equal strings
    /// mean equal bits, NaN throughputs included.
    fn check(&self) -> Result<(), String> {
        let model = self.model_at(self.workload.2);
        let reference = format!("{:?}", model.solve_with(self.samples));
        let table = CurveTable::build(&model, self.k_max);
        let mut routes = vec![("table", solve_fast(&model, &table, self.samples))];
        let history = self.history.iter().take_while(|&&n| n > 0.0);
        let mut cache = SolveCache::new();
        let sharded = ShardedSolveCache::new(2);
        for &n in history {
            let earlier = self.model_at(n);
            cache.solve_with(&earlier, self.samples);
            sharded.solve_with(&earlier, self.samples);
        }
        routes.push(("SolveCache", cache.solve_with(&model, self.samples)));
        routes.push((
            "ShardedSolveCache",
            sharded.solve_with(&model, self.samples),
        ));
        for (route, eq) in routes {
            let got = format!("{eq:?}");
            if got != reference {
                return Err(format!("{route}: {got}\n  reference: {reference}"));
            }
        }
        Ok(())
    }
}

/// Cases the fuzzer (or a user) once found wrong, checked on every run.
/// The `seed*` cases are the fuzzer's own finds against the earlier
/// probe-estimated margins: tables ×64 to ×1024 wider than `n` (named by
/// width), or cache histories that left a table that wide.
const REGRESSIONS: &[(&str, Case)] = &[
    (
        // `xmodel sweep ... --samples 1024 --n-max 2266910.72 --points
        // 1024`: the first row's σ′ cache peak at k ≈ 2.3 is far narrower
        // than one table interval; 1 root was reported instead of 3.
        "sweep_first_row_narrow_peak",
        Case {
            machine: (0.69323, 0.0021897, 115.106),
            workload: (1.19860, 3.31964, 2213.78),
            cache: Some((1372.2890625 * 1024.0, 3.92558, 6.09530, 99625.7)),
            samples: 1024,
            k_max: 2266910.72,
            history: [2213.78 * 64.0, 0.0, 0.0],
        },
    ),
    (
        "seed1_case1218_table_x937",
        Case {
            machine: (8.776482581538783, 0.010197146285439806, 5.118201283800814),
            workload: (6.981303565768078, 0.38429293885450605, 2005.3261920376847),
            cache: Some((
                2265.1890743122017,
                1.8480788370916068,
                3.187124515733189,
                5.948434067881786,
            )),
            samples: 1021,
            k_max: 1879579.1983149992,
            history: [4894.508946218263, 0.0, 0.0],
        },
    ),
    (
        "seed1_case1346_table_x880",
        Case {
            machine: (
                1.2519376842022671,
                0.0041158355933898876,
                386.69996142216473,
            ),
            workload: (0.7002681173287316, 0.7068111544603033, 1496.4541603307787),
            cache: Some((
                1173.208210364474,
                1.0833696076719044,
                2.616119281750585,
                2.5780128879569566,
            )),
            samples: 200,
            k_max: 1316523.6295045093,
            history: [25994.326563014256, 0.0, 0.0],
        },
    ),
    (
        "seed1_case1981_table_x390",
        Case {
            machine: (1.874597524996222, 0.011452948951168773, 57.33476591720512),
            workload: (9.31644836118962, 0.19265892532015946, 6289.480685187904),
            cache: Some((
                6251499.73112799,
                1.0153060163042673,
                6.015101059095104,
                299492.2246135817,
            )),
            samples: 529,
            k_max: 2455188.8494098117,
            history: [1146451.853853658, 0.0, 0.0],
        },
    ),
    (
        "seed2_case16601_table_x503",
        Case {
            machine: (4.894122703939957, 0.0016684726968934163, 164.38787268055174),
            workload: (3.9027430529081855, 0.14385509190143747, 1890.7631148592452),
            cache: Some((
                778261.2049509326,
                5.171972310977138,
                5.609648795159804,
                6361.568168612404,
            )),
            samples: 1145,
            k_max: 950617.7851630618,
            history: [0.0, 0.0, 0.0],
        },
    ),
    (
        "seed2_case3207_cache_history",
        Case {
            machine: (0.6810654023774665, 0.009931642035714793, 757.921002965559),
            workload: (4.478002986500709, 0.11920823478190509, 6786.270649792003),
            cache: Some((
                1480.2871390886623,
                2.0755739942845097,
                3.9795580582795886,
                13.047180853626642,
            )),
            samples: 1298,
            k_max: 26162.731605151843,
            history: [3012428.773128651, 487.07571230246185, 0.0],
        },
    ),
    (
        "seed2_case18978_cache_history",
        Case {
            machine: (
                0.18486179311195824,
                0.0017217419761029946,
                648.2634994207476,
            ),
            workload: (1.2113217271261145, 0.467588233851027, 2600.902148836136),
            cache: Some((
                1451.8440225907166,
                1.2491893326838248,
                1.8544834671994381,
                2.6070097215169232,
            )),
            samples: 1316,
            k_max: 3836.142400862436,
            history: [499784.12110913364, 2198.035401440364, 0.0],
        },
    ),
];

/// Run `cases` seeded cases and panic with every failure's literal.
fn fuzz(seed: u64, cases: usize) {
    let mut rng = SplitMix64(seed);
    let mut failures = Vec::new();
    for index in 0..cases {
        let case = Case::draw(&mut rng);
        if let Err(why) = case.check() {
            failures.push(format!("case {index} of seed {seed}: {case:?}\n  {why}"));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {cases} cases diverged from the reference:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn regression_fixtures_match_reference() {
    for (name, case) in REGRESSIONS {
        if let Err(why) = case.check() {
            panic!("{name}: {why}");
        }
    }
}

#[test]
fn fuzz_fast_path_against_reference() {
    fuzz(1, 2000);
}

#[test]
#[ignore = "20 000 cases; run in release (scripts/ci.sh)"]
fn fuzz_fast_path_wide() {
    fuzz(2, 20_000);
}
