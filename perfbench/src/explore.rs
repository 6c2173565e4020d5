//! `explore`: Figure 7 regeneration plus the full six-benchmark DSE sweep
//! the `dse` binary runs by default — exhaustive first, then guided on
//! fresh caches. The simulator and the DSE engine do almost all the work.
//!
//! The inputs are the paper's fixed Figure 7 configuration and the
//! default sweep space; the seed only permutes the order in which the
//! benchmarks are visited, so every seed does the same operations.
//!
//! The DSE pool runs one worker: on the two-core reference machine, host
//! CPU contention hit two busy workers much harder (quartile spread of
//! `p99_ms` over five seeds 40 % against 7 % with one).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pphw::dse::{CompileEvaluator, DesignArtifact};
use pphw::{compile, OptLevel};
use pphw_apps::{all_benchmarks, BenchSpec};
use pphw_bench::sweep::{sweep_base_options, sweep_sim_variants, sweep_space};
use pphw_bench::{options_for, paper_speedups};
use pphw_dse::cache::{design_key, DesignCache, EvalCache};
use pphw_dse::{
    Candidate, DseConfig, DseReport, EvalOutcome, Evaluate, GuidedConfig, Measurement, Objective,
    Strategy,
};
use pphw_hw::{Area, AreaBudget};
use pphw_ir::Program;
use pphw_sim::SimConfig;
use pphw_verify::flow;

use crate::trace::{replay_layers, simulate_traced, Trace};
use crate::{digest_str, geomean, median, setup_samples, Outcome, Rng, DIGEST_INIT};

/// Rounds per 10 s of `--seconds` (one round is ~9 s on the reference
/// machine).
pub const ROUNDS_PER_10S: u64 = 2;

/// On-chip budget of the `dse` binary's default sweep (256 KiB).
const SWEEP_BUDGET: u64 = 256 * 1024;

/// Wraps the program's own evaluator and times every evaluation. With
/// tracing on it evaluates through [`Self::traced_evaluate`], which makes
/// the same public calls as `CompileEvaluator::evaluate` with a span
/// around compile and simulate; the traced run checks that both give the
/// same reports.
struct TimedEvaluator<'a> {
    inner: CompileEvaluator<'a>,
    prog: &'a Program,
    base: &'a pphw::CompileOptions,
    designs: Arc<DesignCache<DesignArtifact>>,
    latencies_ms: &'a Mutex<Vec<f64>>,
    trace: &'a Trace,
    replay_mismatch: &'a AtomicBool,
}

impl TimedEvaluator<'_> {
    fn traced_evaluate(&self, c: &Candidate) -> EvalOutcome {
        let key = design_key(&self.prog.name, &self.base.sizes, &self.cache_salt(), c);
        let artifact = self.designs.get_or_compute(key, || {
            let mut opts = self.base.clone().tiles(&c.tile_pairs());
            opts.inner_par = c.inner_par;
            opts.meta_inner_par = None;
            let compiled = self
                .trace
                .span("core.compile_s", || compile(self.prog, &opts));
            let mut compiled = match compiled {
                Ok(compiled) => compiled,
                Err(e) => return DesignArtifact::Infeasible(e.to_string()),
            };
            if let Err(e) = replay_layers(self.trace, self.prog, &compiled) {
                eprintln!("explore: CHECK FAILED: {}: {e}", self.prog.name);
                self.replay_mismatch.store(true, Ordering::Relaxed);
            }
            if c.cap_permille != 1000 {
                flow::scale_capacities(&mut compiled.design, c.cap_permille);
            }
            let on_chip_bytes = compiled.design.on_chip_bytes();
            if on_chip_bytes > opts.on_chip_budget_bytes {
                return DesignArtifact::Infeasible(format!(
                    "design needs {on_chip_bytes} on-chip bytes, budget is {}",
                    opts.on_chip_budget_bytes
                ));
            }
            DesignArtifact::Ready {
                compiled: Box::new(compiled),
                on_chip_bytes,
            }
        });
        let (compiled, on_chip_bytes) = match &*artifact {
            DesignArtifact::Ready {
                compiled,
                on_chip_bytes,
            } => (compiled, *on_chip_bytes),
            DesignArtifact::Infeasible(e) => return EvalOutcome::Infeasible(e.clone()),
        };
        let report = match simulate_traced(self.trace, compiled, &c.sim) {
            Ok(report) => report,
            Err(e) => return EvalOutcome::Failed(e.to_string()),
        };
        EvalOutcome::Feasible(Measurement {
            cycles: report.cycles,
            dram_words: report.dram_words,
            on_chip_bytes,
            area: compiled.area(),
        })
    }
}

impl Evaluate for TimedEvaluator<'_> {
    fn evaluate(&self, c: &Candidate) -> EvalOutcome {
        let t = Instant::now();
        let out = if self.trace.is_on() {
            self.traced_evaluate(c)
        } else {
            self.inner.evaluate(c)
        };
        let secs = t.elapsed().as_secs_f64();
        self.trace.add("dse.evaluate_s", secs);
        self.latencies_ms
            .lock()
            .expect("latency lock poisoned by a panicking evaluation")
            .push(secs * 1e3);
        out
    }

    fn cache_salt(&self) -> String {
        self.inner.cache_salt()
    }

    fn area_hint(&self, c: &Candidate) -> Option<Area> {
        self.inner.area_hint(c)
    }
}

/// Cycles can never beat streaming the design's DRAM words at the
/// substrate's peak bandwidth.
fn roofline_ratio(cycles: u64, dram_words: u64, sim: &SimConfig) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let floor = (dram_words * sim.word_bytes) as f64 / sim.bytes_per_cycle();
    #[allow(clippy::cast_precision_loss)]
    let c = cycles as f64;
    if floor > 0.0 {
        c / floor
    } else {
        f64::INFINITY
    }
}

/// Per-run checking state.
struct Checks {
    correct: bool,
    failed: u64,
    attempted: u64,
    digest: u64,
    min_roofline: f64,
}

impl Checks {
    fn fail(&mut self, what: &str) {
        eprintln!("explore: CHECK FAILED: {what}");
        self.correct = false;
    }
}

/// Figure 7 for one benchmark: compile and simulate each level. Returns
/// (cycles per level, +tiling speedup, +meta speedup).
fn figure7_row(
    spec: &BenchSpec,
    trace: &Trace,
    lat: &Mutex<Vec<f64>>,
    checks: &mut Checks,
) -> ([u64; 3], f64, f64) {
    let prog = (spec.program)();
    let opts = options_for(spec);
    let sim = SimConfig::default();
    let mut cycles = [0u64; 3];
    for (i, level) in OptLevel::all().into_iter().enumerate() {
        let t = Instant::now();
        let compiled = trace
            .span("core.compile_s", || {
                compile(&prog, &opts.clone().opt(level))
            })
            .unwrap_or_else(|e| panic!("{} at {level} failed to compile: {e}", spec.name));
        let report = simulate_traced(trace, &compiled, &sim)
            .unwrap_or_else(|e| panic!("{} at {level} failed to simulate: {e}", spec.name));
        lat.lock()
            .expect("latency lock")
            .push(t.elapsed().as_secs_f64() * 1e3);
        cycles[i] = report.cycles;
        checks.min_roofline =
            checks
                .min_roofline
                .min(roofline_ratio(report.cycles, report.dram_words, &sim));
        digest_str(
            &mut checks.digest,
            &format!(
                "fig7 {} {level} {} {}",
                spec.name, report.cycles, report.dram_words
            ),
        );
    }
    if cycles[2] > cycles[1] {
        checks.fail(&format!(
            "{}: metapipelined {} cycles > tiled {}",
            spec.name, cycles[2], cycles[1]
        ));
    }
    #[allow(clippy::cast_precision_loss)]
    let speedup = |c: u64| cycles[0] as f64 / c.max(1) as f64;
    (cycles, speedup(cycles[1]), speedup(cycles[2]))
}

/// One DSE search through the engine with fresh caches.
fn search(
    spec: &BenchSpec,
    strategy: Strategy,
    trace: &Trace,
    lat: &Mutex<Vec<f64>>,
    replay_mismatch: &AtomicBool,
) -> (DseReport, u64) {
    let prog = (spec.program)();
    let base = sweep_base_options(spec, SWEEP_BUDGET);
    let space = sweep_space(spec, false, &sweep_sim_variants(false));
    let cfg = DseConfig {
        threads: 1,
        on_chip_budget_bytes: SWEEP_BUDGET,
        area_budget: AreaBudget::device_fraction(1.0),
        strategy,
        objective: Objective::CyclesThenArea,
        ..DseConfig::default()
    };
    let designs = Arc::new(DesignCache::new());
    let eval = TimedEvaluator {
        inner: CompileEvaluator::with_design_cache(&prog, &base, Arc::clone(&designs))
            .with_capacity_mode(cfg.capacity_mode),
        prog: &prog,
        base: &base,
        designs: Arc::clone(&designs),
        latencies_ms: lat,
        trace,
        replay_mismatch,
    };
    let cache = EvalCache::new();
    pphw::install_verifier();
    let report = trace
        .span("dse.engine_s", || {
            if matches!(strategy, Strategy::Guided(_)) {
                trace.span("dse.guided_s", || {
                    pphw_dse::engine::explore(&prog, &space, &eval, &cache, &cfg)
                })
            } else {
                pphw_dse::engine::explore(&prog, &space, &eval, &cache, &cfg)
            }
        })
        .unwrap_or_else(|e| panic!("{}: search failed: {e}", spec.name));
    (report, designs.builds())
}

/// Checks one search report: the roofline on every point and that the
/// winner is the argmin of the report's points under the objective.
fn check_report(name: &str, report: &DseReport, checks: &mut Checks) {
    let variants = sweep_sim_variants(false);
    for p in &report.evaluated {
        let sim = variants
            .iter()
            .find(|(label, _)| *label == p.sim_label)
            .map_or_else(SimConfig::default, |(_, s)| s.clone());
        let ratio = roofline_ratio(p.cycles, p.dram_words, &sim);
        checks.min_roofline = checks.min_roofline.min(ratio);
        if ratio < 1.0 {
            checks.fail(&format!(
                "{name}: {} takes {} cycles, under its DRAM roofline",
                p.label, p.cycles
            ));
        }
        digest_str(
            &mut checks.digest,
            &format!(
                "{name} {} {} {} {}",
                p.label,
                p.cycles,
                p.dram_words,
                p.area_score.to_bits()
            ),
        );
    }
    let objective = Objective::CyclesThenArea;
    let argmin = report
        .evaluated
        .iter()
        .filter(|p| objective.admits(p))
        .min_by(|a, b| objective.cmp_points(a, b));
    if argmin.map(|p| p.label.as_str()) != Some(report.best.label.as_str()) {
        checks.fail(&format!(
            "{name}: winner {} is not the argmin of its report",
            report.best.label
        ));
    }
}

fn setup_once(specs: &[BenchSpec]) -> usize {
    let variants = sweep_sim_variants(false);
    specs
        .iter()
        .map(|spec| {
            let prog = (spec.program)();
            std::hint::black_box(&prog);
            sweep_space(spec, false, &variants).candidates().len()
        })
        .sum()
}

/// Runs `rounds` rounds of Figure 7 plus the full sweep.
pub fn run(seed: u64, rounds: usize, trace: &Trace) -> Outcome {
    let mut order = all_benchmarks();
    Rng::new(seed).shuffle(&mut order);
    // Set-up is sub-millisecond, so it is sampled at the start and again
    // after every round, under the heap and cache states the run leaves.
    let setup = || {
        std::hint::black_box(setup_once(&order));
    };
    let mut setup_s = setup_samples(5, setup);

    let lat = Mutex::new(Vec::new());
    let replay_mismatch = AtomicBool::new(false);
    let mut checks = Checks {
        correct: true,
        failed: 0,
        attempted: 0,
        digest: DIGEST_INIT,
        min_roofline: f64::INFINITY,
    };
    let mut meta_speedups = Vec::new();
    let mut best_cycles = Vec::new();
    let mut round_s = Vec::new();
    let mut search_s = Vec::new();
    for round in 0..rounds {
        let t0 = Instant::now();
        for spec in &order {
            let (cycles, tiled, meta) = figure7_row(spec, trace, &lat, &mut checks);
            let (pt, pm) = paper_speedups(spec.name).unwrap_or((f64::NAN, f64::NAN));
            if round == 0 {
                meta_speedups.push(meta);
                println!(
                    "fig7 {:<10} cycles base={} tiled={} meta={}  +tiling {tiled:.2}x (paper {pt:.1}x, err {:+.0}%)  \
                     +meta {meta:.2}x (paper {pm:.1}x, err {:+.0}%)",
                    spec.name,
                    cycles[0],
                    cycles[1],
                    cycles[2],
                    (tiled / pt - 1.0) * 100.0,
                    (meta / pm - 1.0) * 100.0
                );
            }
        }
        for spec in &order {
            let t = Instant::now();
            let (exhaustive, builds) =
                search(spec, Strategy::Exhaustive, trace, &lat, &replay_mismatch);
            let ex_s = t.elapsed().as_secs_f64();
            check_report(spec.name, &exhaustive, &mut checks);
            let t = Instant::now();
            let (guided, gbuilds) = search(
                spec,
                Strategy::Guided(GuidedConfig::default()),
                trace,
                &lat,
                &replay_mismatch,
            );
            let gu_s = t.elapsed().as_secs_f64();
            check_report(spec.name, &guided, &mut checks);
            checks.attempted += 2;
            for r in [&exhaustive, &guided] {
                #[allow(clippy::cast_precision_loss)]
                {
                    trace.add("dse.evaluations", r.stats.evaluated as f64);
                    trace.add("dse.pruned", r.stats.pruned_total() as f64);
                }
            }
            #[allow(clippy::cast_precision_loss)]
            {
                trace.add("dse.design_builds", (builds + gbuilds) as f64);
                trace.add("dse.guided_simulated", guided.stats.simulated as f64);
            }
            // Guided search must return the exhaustive winner. A mismatch
            // is a failed operation, not a wrong check.
            let agrees = guided.best.label == exhaustive.best.label;
            if !agrees {
                checks.failed += 1;
            }
            if round == 0 {
                best_cycles.push(exhaustive.best.cycles);
                println!(
                    "dse  {:<10} exhaustive {} ({} cycles, area {:.4}, {}/{} evaluated, {ex_s:.2}s)  \
                     guided {} ({} cycles, {} simulated, {gu_s:.2}s){}",
                    spec.name,
                    exhaustive.best.label,
                    exhaustive.best.cycles,
                    exhaustive.best.area_score,
                    exhaustive.stats.evaluated,
                    exhaustive.stats.exhaustive,
                    guided.best.label,
                    guided.best.cycles,
                    guided.stats.simulated,
                    if agrees { "" } else { "  GUIDED != EXHAUSTIVE (failed)" }
                );
            }
            search_s.push(ex_s + gu_s);
        }
        round_s.push(t0.elapsed().as_secs_f64());
        setup_s.extend(setup_samples(5, setup));
    }
    checks.correct &= !replay_mismatch.load(Ordering::Relaxed);
    let latencies_ms = lat.into_inner().expect("latency lock");
    // Every timed evaluation is an operation, and so is every search.
    checks.attempted += latencies_ms.len() as u64;
    #[allow(clippy::cast_precision_loss)]
    let best: Vec<f64> = best_cycles.iter().map(|&c| c as f64).collect();
    println!(
        "explore: {rounds} round(s), {} timed evaluations, min cycles/roofline {:.3}, \
         median search {:.2}s, geomean best {:.1} cycles, geomean fig7 +meta {:.3}x",
        latencies_ms.len(),
        checks.min_roofline,
        median(&search_s),
        geomean(&best),
        geomean(&meta_speedups)
    );
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        correct: checks.correct,
        wall_s: median(&round_s),
        latencies_ms,
        rounds,
        setup_s: median(&setup_s),
        best_cycles_geomean: geomean(&best),
        fig7_speedup_geomean: geomean(&meta_speedups),
        digest: checks.digest,
    }
}
