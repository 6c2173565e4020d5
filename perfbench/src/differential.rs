//! `differential`: the reference interpreter on the untiled program and
//! `Compiled::execute` on the design at all three levels, for each of the
//! six benchmarks, at sizes well above the toy sizes of
//! `tests/differential.rs`. Every output is compared with the plain-Rust
//! golden of `pphw-apps`. `pphw_ir::interp` does almost all the work.
//!
//! Each round runs, per benchmark, one case at a quarter of its paper size
//! in every dimension, two at an eighth and eight at a sixteenth (the 1-D
//! `tpchq6` and the `kmeans` point count are cut further so that no case
//! dwarfs the rest). The sizes are fixed; the seed picks every input value
//! and the order of the cases within the two smaller size classes.
//!
//! The cases run on one thread: on the two-core reference machine two
//! workers doubled the run-to-run spread of the per-execution latencies
//! (quartile spread ~9 % against ~4 %), and per-execution interpreter time
//! is what this workload measures.

use std::time::Instant;

use pphw::{compile, CompileOptions, OptLevel};
use pphw_apps::{all_benchmarks, BenchSpec};
use pphw_ir::interp::{Interpreter, Value};
use pphw_ir::size::Size;
use pphw_ir::Program;
use pphw_sim::SimConfig;

use crate::trace::{replay_layers, simulate_traced, verify_traced, Trace};
use crate::{digest_str, geomean, median, Dims, Outcome, Rng, DIGEST_INIT};

/// Rounds per 10 s of `--seconds` (one round is ~5 s on the reference
/// machine); four rounds give the 1000 executions a p99 needs.
pub const ROUNDS_PER_10S: u64 = 4;

/// Relative tolerance of every comparison (tiling reassociates float
/// reductions), as in the differential test harness.
const TOL: f32 = 1e-3;

/// Cases per benchmark and round in each size class: quarter, eighth,
/// sixteenth.
const CLASS_CASES: [usize; 3] = [1, 2, 8];

/// Sizes and tiles of one benchmark in one size class.
fn class_config(name: &str, class: usize) -> (Dims, Dims) {
    let pick = |v: [i64; 3]| v[class];
    match name {
        "outerprod" => {
            let s = pick([256, 128, 64]);
            (vec![("m", s), ("n", s)], vec![("m", s / 4), ("n", s / 4)])
        }
        "sumrows" => {
            let (m, n) = (pick([512, 256, 128]), pick([128, 64, 32]));
            (vec![("m", m), ("n", n)], vec![("m", m / 32), ("n", n)])
        }
        "gemm" => {
            let s = pick([64, 32, 16]);
            (
                vec![("m", s), ("n", s), ("p", s)],
                vec![("m", s / 4), ("n", s / 4), ("p", s / 4)],
            )
        }
        "tpchq6" => {
            let n = pick([262_144, 16_384, 4096]);
            (vec![("n", n)], vec![("n", n / 128)])
        }
        "gda" => {
            let (n, d) = (pick([1024, 512, 256]), pick([8, 8, 4]));
            (vec![("n", n), ("d", d)], vec![("n", n / 16)])
        }
        "kmeans" => {
            let (n, d) = (pick([4096, 1024, 512]), pick([8, 8, 4]));
            (
                vec![("n", n), ("k", 4), ("d", d)],
                vec![("n", n / 32), ("k", 2)],
            )
        }
        other => panic!("no differential sizes for benchmark `{other}`"),
    }
}

/// One case: its configuration, inputs, and golden outputs.
struct Case {
    bench: usize,
    class: usize,
    sizes: Vec<(&'static str, i64)>,
    tiles: Vec<(&'static str, i64)>,
    inputs: Vec<Value>,
    golden: Vec<Value>,
}

/// What one case produced.
struct CaseResult {
    latencies_ms: Vec<f64>,
    cycles: [u64; 3],
    digest: String,
    /// Checks that did not hold.
    problems: Vec<String>,
    /// Operations that returned an error.
    errors: Vec<String>,
}

fn make_cases(specs: &[BenchSpec], seed: u64, round: usize) -> Vec<Case> {
    let mut rng = Rng::new(seed ^ (round as u64).wrapping_mul(0x9E37_79B9));
    let mut cases = Vec::new();
    for (class, &count) in CLASS_CASES.iter().enumerate() {
        let mut tier = Vec::new();
        for (bench, spec) in specs.iter().enumerate() {
            let (sizes, tiles) = class_config(spec.name, class);
            for _ in 0..count {
                let env = Size::env(&sizes);
                let inputs = (spec.inputs)(&env, rng.next_u64());
                let golden = (spec.golden)(&inputs, &env);
                tier.push(Case {
                    bench,
                    class,
                    sizes: sizes.clone(),
                    tiles: tiles.clone(),
                    inputs,
                    golden,
                });
            }
        }
        // The seed orders the cases within the smaller classes; the
        // quarter cases, which hold most of the memory, keep one order.
        if class > 0 {
            rng.shuffle(&mut tier);
        }
        cases.extend(tier);
    }
    cases
}

fn run_case(case: &Case, spec: &BenchSpec, prog: &Program, trace: &Trace) -> CaseResult {
    let mut res = CaseResult {
        latencies_ms: Vec::with_capacity(4),
        cycles: [0; 3],
        digest: String::new(),
        problems: Vec::new(),
        errors: Vec::new(),
    };
    let label = format!("{} {:?} tiles {:?}", spec.name, case.sizes, case.tiles);
    let check = |res: &mut CaseResult, what: &str, out: Result<Vec<Value>, String>| match out {
        Err(e) => res.errors.push(format!("{label}: {what}: {e}")),
        Ok(out) => {
            let agree = out.len() == case.golden.len()
                && out
                    .iter()
                    .zip(&case.golden)
                    .all(|(a, b)| a.approx_eq(b, TOL));
            if !agree {
                res.problems
                    .push(format!("{label}: {what} differs from the golden"));
            }
            for v in &out {
                let sum: f64 = v.as_f32_slice().iter().map(|x| f64::from(*x)).sum();
                res.digest.push_str(&format!("{what}:{:x};", sum.to_bits()));
            }
        }
    };

    let inputs = case.inputs.clone();
    let t = Instant::now();
    let out = trace.span("ir.interp_s", || {
        Interpreter::new(prog, &case.sizes).run(inputs)
    });
    res.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
    trace.add("ir.interp_runs", 1.0);
    check(&mut res, "interpreter", out.map_err(|e| e.to_string()));

    let sim = SimConfig::default();
    for (i, level) in OptLevel::all().into_iter().enumerate() {
        let opts = CompileOptions::new(&case.sizes)
            .tiles(&case.tiles)
            .inner_par(spec.inner_par)
            .opt(level);
        let compiled = match trace.span("core.compile_s", || compile(prog, &opts)) {
            Ok(c) => c,
            Err(e) => {
                res.errors.push(format!("{label}: compile at {level}: {e}"));
                continue;
            }
        };
        if let Err(e) = replay_layers(trace, prog, &compiled) {
            res.problems.push(format!("{label}: {level}: {e}"));
        }
        let inputs = case.inputs.clone();
        let t = Instant::now();
        let out = trace.span("ir.interp_tiled_s", || compiled.execute(inputs));
        res.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        trace.add("ir.interp_runs", 1.0);
        check(
            &mut res,
            &format!("design@{level}"),
            out.map_err(|e| e.to_string()),
        );

        match simulate_traced(trace, &compiled, &sim) {
            Ok(r) => res.cycles[i] = r.cycles,
            Err(e) => res
                .errors
                .push(format!("{label}: simulate at {level}: {e}")),
        }
        let report = verify_traced(trace, &compiled);
        if report.error_count() > 0 {
            res.problems.push(format!(
                "{label}: verifier reports {} error(s) at {level}: {}",
                report.error_count(),
                report.to_text().trim_end()
            ));
        }
    }
    if res.cycles[2] > res.cycles[1] {
        res.problems.push(format!(
            "{label}: metapipelined {} cycles > tiled {}",
            res.cycles[2], res.cycles[1]
        ));
    }
    res.digest.push_str(&format!("cycles:{:?}", res.cycles));
    res
}

/// Runs `rounds` rounds of the differential suite.
pub fn run(seed: u64, rounds: usize, trace: &Trace) -> Outcome {
    let specs = all_benchmarks();
    let progs: Vec<Program> = specs.iter().map(|s| (s.program)()).collect();
    pphw::install_verifier();

    let mut latencies_ms = Vec::new();
    let mut setup = Vec::new();
    let mut round_s = Vec::new();
    let mut digest = DIGEST_INIT;
    let mut correct = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut quarter_cycles: Vec<[u64; 3]> = vec![[0; 3]; specs.len()];
    let mut class_ms = [Vec::new(), Vec::new(), Vec::new()];
    for round in 0..rounds {
        // Set-up: the round's seeded inputs and their goldens.
        let t = Instant::now();
        let cases = make_cases(&specs, seed, round);
        setup.push(t.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let results: Vec<CaseResult> = cases
            .iter()
            .map(|case| run_case(case, &specs[case.bench], &progs[case.bench], trace))
            .collect();
        round_s.push(t0.elapsed().as_secs_f64());

        // Fold in (benchmark, class, seed order) so the digest lists every
        // benchmark's cases together.
        let mut order: Vec<usize> = (0..cases.len()).collect();
        order.sort_by_key(|&i| (cases[i].bench, cases[i].class, i));
        for i in order {
            let (case, r) = (&cases[i], &results[i]);
            attempted += r.latencies_ms.len() as u64;
            failed += r.errors.len() as u64;
            for e in &r.errors {
                eprintln!("differential: FAILED: {e}");
            }
            for p in &r.problems {
                eprintln!("differential: CHECK FAILED: {p}");
            }
            correct &= r.problems.is_empty();
            digest_str(&mut digest, &r.digest);
            latencies_ms.extend_from_slice(&r.latencies_ms);
            class_ms[case.class].extend_from_slice(&r.latencies_ms);
            if round == 0 && case.class == 0 {
                quarter_cycles[case.bench] = r.cycles;
            }
        }
    }

    let mut best = Vec::new();
    let mut speedups = Vec::new();
    for (spec, c) in specs.iter().zip(&quarter_cycles) {
        let (sizes, _) = class_config(spec.name, 0);
        #[allow(clippy::cast_precision_loss)]
        let speedup = c[0] as f64 / c[2].max(1) as f64;
        let min = c.iter().copied().min().unwrap_or(0);
        println!(
            "differential {:<10} quarter {sizes:?}: cycles base={} tiled={} meta={} +meta {speedup:.2}x",
            spec.name, c[0], c[1], c[2]
        );
        #[allow(clippy::cast_precision_loss)]
        best.push(min as f64);
        speedups.push(speedup);
    }
    for (class, name) in ["quarter", "eighth", "sixteenth"].iter().enumerate() {
        println!(
            "differential {name:<9} size class: {} executions, median {:.2} ms",
            class_ms[class].len(),
            median(&class_ms[class])
        );
    }
    Outcome {
        attempted,
        failed,
        correct,
        wall_s: median(&round_s),
        latencies_ms,
        rounds,
        setup_s: median(&setup),
        best_cycles_geomean: geomean(&best),
        fig7_speedup_geomean: geomean(&speedups),
        digest,
    }
}
