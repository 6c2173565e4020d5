//! Spans and counters recorded from the benchmark's own files, around
//! calls into each layer's public entry points, and the helpers that make
//! those calls. Nothing is added inside the program: a span times one call
//! as the caller sees it.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use pphw::{CompileOptions, Compiled, OptLevel};
use pphw_hw::Design;
use pphw_ir::Program;
use pphw_sim::SimConfig;
use pphw_verify::{VerifyConfig, VerifyReport};

use crate::Metrics;

/// Every per-layer metric with its unit, in the order `BENCHMARK.json`
/// lists them. A layer a workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("sim.simulate_s", "s"),
    ("sim.calls", "count"),
    ("sim.mcycles_per_s", "Mcycles/s"),
    ("dse.engine_s", "s"),
    ("dse.evaluate_s", "s"),
    ("dse.engine_self_s", "s"),
    ("dse.guided_s", "s"),
    ("dse.evaluations", "count"),
    ("dse.pruned", "count"),
    ("dse.design_builds", "count"),
    ("dse.guided_simulated", "count"),
    ("dse.journal_open_s", "s"),
    ("dse.journal_records", "count"),
    ("ir.interp_s", "s"),
    ("ir.interp_tiled_s", "s"),
    ("ir.interp_runs", "count"),
    ("frontend.parse_s", "s"),
    ("transform.tile_s", "s"),
    ("hw.generate_s", "s"),
    ("verify.ir_s", "s"),
    ("verify.race_s", "s"),
    ("verify.hazard_s", "s"),
    ("verify.flow_s", "s"),
    ("core.compile_s", "s"),
    ("server.handle_s", "s"),
    ("server.wire_s", "s"),
    ("server.memo_hits", "count"),
    ("server.design_builds", "count"),
    ("server.eval_misses", "count"),
    ("server.errors", "count"),
];

/// Accumulated span seconds and counts, keyed by metric name. Off, it
/// records nothing and a span is a plain call.
pub struct Trace {
    on: bool,
    acc: Mutex<BTreeMap<&'static str, f64>>,
}

impl Trace {
    /// A recorder that records nothing.
    pub fn off() -> Trace {
        Trace {
            on: false,
            acc: Mutex::new(BTreeMap::new()),
        }
    }

    /// A recorder that accumulates every span and count.
    pub fn on() -> Trace {
        Trace {
            on: true,
            acc: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, adding its host seconds to `name` when tracing is on.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed().as_secs_f64());
        out
    }

    /// Adds `value` to `name` when tracing is on.
    pub fn add(&self, name: &'static str, value: f64) {
        if self.on {
            *self
                .acc
                .lock()
                .expect("trace lock poisoned by a panicking span")
                .entry(name)
                .or_insert(0.0) += value;
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.acc
            .lock()
            .expect("trace lock poisoned by a panicking span")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Every per-layer metric, derived ones included.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        for (name, unit) in PER_LAYER {
            m.insert(name, (self.get(name), unit));
        }
        let sim_s = self.get("sim.simulate_s");
        let mcycles = self.get("sim.cycles") / 1e6;
        m.insert(
            "sim.mcycles_per_s",
            (if sim_s > 0.0 { mcycles / sim_s } else { 0.0 }, "Mcycles/s"),
        );
        // The DSE pool runs one worker, so engine − evaluate is the
        // engine's own time: prefilter, ranking, model fit.
        m.insert(
            "dse.engine_self_s",
            (self.get("dse.engine_s") - self.get("dse.evaluate_s"), "s"),
        );
        m.insert(
            "server.wire_s",
            (
                self.get("server.round_trip_s") - self.get("server.handle_s"),
                "s",
            ),
        );
        m
    }
}

/// `Compiled::simulate` under the `sim.*` spans.
pub fn simulate_traced(
    trace: &Trace,
    compiled: &Compiled,
    sim: &SimConfig,
) -> Result<pphw_sim::SimReport, pphw::PphwError> {
    let report = trace.span("sim.simulate_s", || compiled.simulate(sim));
    if let Ok(r) = &report {
        trace.add("sim.calls", 1.0);
        #[allow(clippy::cast_precision_loss)]
        trace.add("sim.cycles", r.cycles as f64);
    }
    report
}

/// The verifier configuration `Compiled::verify` uses.
fn verify_config(opts: &CompileOptions) -> VerifyConfig {
    let inner_par = match opts.opt {
        OptLevel::Metapipelined => opts.meta_inner_par.unwrap_or(opts.inner_par),
        _ => opts.inner_par,
    };
    VerifyConfig {
        inner_par,
        on_chip_budget_bytes: Some(opts.on_chip_budget_bytes),
        ..VerifyConfig::default()
    }
}

/// `verify_program` + `verify_design` made of the four family checks,
/// each under its own span. Without a design only the program families
/// run.
pub fn verify_families(
    trace: &Trace,
    prog: &Program,
    design: Option<&Design>,
    cfg: &VerifyConfig,
) -> VerifyReport {
    let mut report = VerifyReport::new();
    trace.span("verify.ir_s", || {
        pphw_verify::ir_check::check_program(prog, &mut report);
    });
    trace.span("verify.race_s", || {
        pphw_verify::race::check_races(prog, cfg, &mut report);
    });
    if let Some(design) = design {
        trace.span("verify.hazard_s", || {
            pphw_verify::hazard::check_design(design, cfg, &mut report);
        });
        trace.span("verify.flow_s", || {
            pphw_verify::flow::check_design(design, cfg, &mut report);
        });
    }
    report
}

/// `Compiled::verify`; with tracing on, the same checks through
/// [`verify_families`].
pub fn verify_traced(trace: &Trace, compiled: &Compiled) -> VerifyReport {
    if !trace.is_on() {
        return compiled.verify();
    }
    verify_families(
        trace,
        &compiled.program,
        Some(&compiled.design),
        &verify_config(&compiled.options),
    )
}

/// With tracing on, times the two stages `pphw::compile` is made of —
/// `tile_program` and `generate` — by calling them again on the same
/// options, and checks they rebuild the same design.
pub fn replay_layers(trace: &Trace, prog: &Program, compiled: &Compiled) -> Result<(), String> {
    if !trace.is_on() {
        return Ok(());
    }
    let opts = &compiled.options;
    let size_refs: Vec<(&str, i64)> = opts.sizes.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let tile_refs: Vec<(&str, i64)> = opts.tiles.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let transformed = match opts.opt {
        OptLevel::Baseline => prog.clone(),
        OptLevel::Tiled | OptLevel::Metapipelined => {
            let cfg = pphw_transform::TileConfig::new(&tile_refs, &size_refs)
                .with_budget(opts.on_chip_budget_bytes);
            trace
                .span("transform.tile_s", || {
                    if opts.interchange {
                        pphw_transform::tile_program(prog, &cfg)
                    } else {
                        pphw_transform::tile_program_no_interchange(prog, &cfg)
                    }
                })
                .map_err(|e| e.to_string())?
        }
    };
    let (mut hw, style) = match opts.opt {
        OptLevel::Baseline => (
            pphw_hw::HwConfig::baseline(),
            pphw_hw::DesignStyle::Baseline,
        ),
        OptLevel::Tiled => (
            pphw_hw::HwConfig::default().with_metapipeline(false),
            pphw_hw::DesignStyle::Tiled,
        ),
        OptLevel::Metapipelined => (
            pphw_hw::HwConfig::default(),
            pphw_hw::DesignStyle::Metapipelined,
        ),
    };
    hw.inner_par = verify_config(opts).inner_par;
    hw.on_chip_budget_bytes = opts.on_chip_budget_bytes;
    let design = trace
        .span("hw.generate_s", || {
            pphw_hw::generate(&transformed, &opts.env(), &hw, style)
        })
        .map_err(|e| e.to_string())?;
    if format!("{design:?}") != format!("{:?}", compiled.design) {
        return Err("replayed tile_program + generate built a different design".into());
    }
    Ok(())
}
