//! `serve`: two closed-loop client connections (each waits for its reply)
//! send a seeded population of requests to an in-process daemon whose
//! eval cache is journaled. The frontend, transform, hw, verify and server
//! layers do the work; the simulator does little and the interpreter none.
//!
//! The daemon recovers its eval cache from a snapshot of 100 000 records
//! plus a journal of 20 000, written before any timing through
//! `EvalCache`'s own API. Its set-up (journal recovery, construction,
//! first `ping`) is timed on several daemons started from the same files;
//! the median is `setup_s`. One daemon then serves the whole run, over
//! connections that stay open, in rounds of 1100 requests:
//!
//! - 320 `verify` and 320 `compile` requests on distinct inline variants
//!   of `examples/*.ppl` (renamed, with seeded sizes, tiles, parallelism
//!   and level), each a cold parse → lower → tile → generate (→ verify);
//! - 64 `verify` requests on known-bad variants whose combine subtracts,
//!   which the race detector must flag as `PPHW010`;
//! - 18 named-benchmark `simulate` requests (six benchmarks × three
//!   levels) at sizes where simulation costs no more than compilation,
//!   and 12 small exhaustive `dse` requests (six benchmarks × two
//!   levels) — the same 30 in every round, so cold only in the first;
//! - 366 repeats of requests placed earlier in the round.
//!
//! Repeats, and the 30 named requests after the first round, are answered
//! from the response memo. `wall_s` is the median round. Every reply is
//! checked against the same configuration computed by direct calls in
//! this process.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use pphw::{compile, CompileOptions, OptLevel};
use pphw_apps::{all_benchmarks, BenchSpec};
use pphw_dse::cache::{fnv1a64, EvalCache};
use pphw_dse::{EvalOutcome, JournalConfig, Measurement, SearchSpace};
use pphw_hw::Area;
use pphw_server::json::{escape, parse_json, Json};
use pphw_server::{Client, Limits, Server, Service, ServiceStats};
use pphw_sim::SimConfig;
use pphw_verify::VerifyConfig;

use crate::trace::{replay_layers, simulate_traced, verify_families, Trace};
use crate::{digest_str, geomean, median, workers, Dims, Outcome, Rng, DIGEST_INIT};

/// Rounds per 10 s of `--seconds` (one round is ~0.3 s of serving plus
/// ~0.5 s of checks on the reference machine).
pub const ROUNDS_PER_10S: u64 = 10;

const SNAPSHOT_RECORDS: usize = 100_000;
const JOURNAL_RECORDS: usize = 20_000;
/// Daemon set-ups timed per run (rounds included), for a steady median.
const SETUP_SAMPLES: usize = 15;

const VERIFY_CLEAN: usize = 320;
const VERIFY_BAD: usize = 64;
const COMPILE: usize = 320;
const REPEATS: usize = 366;

/// The checked-in `.ppl` twins of the six benchmarks, by benchmark name.
const SOURCES: [(&str, &str); 6] = [
    ("outerprod", include_str!("../../examples/outerprod.ppl")),
    ("sumrows", include_str!("../../examples/sumrows.ppl")),
    ("gemm", include_str!("../../examples/gemm.ppl")),
    ("tpchq6", include_str!("../../examples/tpchq6.ppl")),
    ("gda", include_str!("../../examples/gda.ppl")),
    ("kmeans", include_str!("../../examples/kmeans.ppl")),
];

/// The combine every reducing benchmark writes; its subtracting mutant
/// is not associative, which `verify` must report as `PPHW010`.
const COMBINE: &str = "let comb = (a + b)";
const BAD_COMBINE: &str = "let comb = (a - b)";

/// Named-benchmark configuration for `simulate` and `dse`: sizes, tiles.
fn small_config(name: &str) -> (Dims, Dims) {
    match name {
        "outerprod" => (vec![("m", 64), ("n", 64)], vec![("m", 16), ("n", 16)]),
        "sumrows" => (vec![("m", 64), ("n", 32)], vec![("m", 8), ("n", 32)]),
        "gemm" => (
            vec![("m", 32), ("n", 32), ("p", 32)],
            vec![("m", 8), ("n", 8), ("p", 8)],
        ),
        "tpchq6" => (vec![("n", 4096)], vec![("n", 256)]),
        "gda" => (vec![("n", 256), ("d", 8)], vec![("n", 32)]),
        "kmeans" => (
            vec![("n", 256), ("k", 4), ("d", 8)],
            vec![("n", 32), ("k", 2)],
        ),
        other => panic!("no serve sizes for benchmark `{other}`"),
    }
}

fn opt_name(opt: OptLevel) -> &'static str {
    match opt {
        OptLevel::Baseline => "baseline",
        OptLevel::Tiled => "tiled",
        OptLevel::Metapipelined => "meta",
    }
}

fn dims(pairs: &[(&str, i64)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// What a request asks for, kept beside its wire payload so the reply
/// can be recomputed directly.
#[derive(Clone)]
enum Ask {
    /// `verify` (or `compile`) of an inline source; `bad` marks the
    /// subtracting-combine mutant.
    Source {
        method: &'static str,
        file: &'static str,
        text: String,
        bad: bool,
    },
    Simulate {
        bench: usize,
    },
    Dse {
        bench: usize,
    },
}

#[derive(Clone)]
struct Request {
    ask: Ask,
    sizes: Vec<(&'static str, i64)>,
    tiles: Vec<(&'static str, i64)>,
    inner_par: u32,
    opt: OptLevel,
    /// The request body without its id.
    payload: String,
}

fn source_request(
    spec: &BenchSpec,
    text: &str,
    method: &'static str,
    bad: bool,
    tag: u64,
    rng: &mut Rng,
) -> Request {
    let text = text.replacen(
        &format!("program {}(", spec.name),
        &format!("program {}_{tag:x}(", spec.name),
        1,
    );
    let text = if bad {
        text.replacen(COMBINE, BAD_COMBINE, 1)
    } else {
        text
    };
    let tiled: Vec<&str> = (spec.tiles)().iter().map(|(k, _)| *k).collect();
    let mut sizes = Vec::new();
    let mut tiles = Vec::new();
    for (dim, _) in (spec.sizes)() {
        let size = match dim {
            "k" | "d" => [4, 8][rng.below(2)],
            _ => [16, 32, 64][rng.below(3)],
        };
        sizes.push((dim, size));
        if tiled.contains(&dim) {
            tiles.push((dim, size / [2, 4][rng.below(2)]));
        }
    }
    let inner_par = [2, 4, 8][rng.below(3)];
    let opt = OptLevel::all()[rng.below(3)];
    let payload = format!(
        "\"method\":\"{method}\",\"source\":{},\"file\":\"{}.ppl\",\"sizes\":{},\"tiles\":{},\
         \"inner_par\":{inner_par},\"opt\":\"{}\"",
        escape(&text),
        spec.name,
        dims(&sizes),
        dims(&tiles),
        opt_name(opt)
    );
    Request {
        ask: Ask::Source {
            method,
            file: spec.name,
            text,
            bad,
        },
        sizes,
        tiles,
        inner_par,
        opt,
        payload,
    }
}

fn named_request(specs: &[BenchSpec], bench: usize, opt: OptLevel, dse: bool) -> Request {
    let (sizes, tiles) = small_config(specs[bench].name);
    let inner_par = 16;
    let name = specs[bench].name;
    let (ask, payload) = if dse {
        // Two candidates for the first tiled dimension × two parallelism
        // factors; the remaining dimensions keep their tile.
        let cands: Vec<String> = tiles
            .iter()
            .enumerate()
            .map(|(i, (k, t))| {
                if i == 0 {
                    format!("\"{k}\":[{},{t}]", t / 2)
                } else {
                    format!("\"{k}\":[{t}]")
                }
            })
            .collect();
        (
            Ask::Dse { bench },
            format!(
                "\"method\":\"dse\",\"bench\":\"{name}\",\"sizes\":{},\"opt\":\"{}\",\
                 \"tile_candidates\":{{{}}},\"inner_pars\":[8,16]",
                dims(&sizes),
                opt_name(opt),
                cands.join(",")
            ),
        )
    } else {
        (
            Ask::Simulate { bench },
            format!(
                "\"method\":\"simulate\",\"bench\":\"{name}\",\"sizes\":{},\"tiles\":{},\
                 \"inner_par\":{inner_par},\"opt\":\"{}\"",
                dims(&sizes),
                dims(&tiles),
                opt_name(opt)
            ),
        )
    };
    Request {
        ask,
        sizes,
        tiles,
        inner_par,
        opt,
        payload,
    }
}

/// One round's population, in send order.
fn population(specs: &[BenchSpec], seed: u64, round: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ (round as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let tag_base = rng.next_u64() & 0xffff_ffff;
    let mut distinct = Vec::new();
    let mut tag = 0u64;
    let mut add_sources = |n: usize, method: &'static str, bad: bool, rng: &mut Rng| {
        for _ in 0..n {
            let candidates: Vec<(&BenchSpec, &str)> = specs
                .iter()
                .filter_map(|spec| {
                    let (_, text) = SOURCES.iter().find(|(name, _)| *name == spec.name)?;
                    (!bad || text.contains(COMBINE)).then_some((spec, *text))
                })
                .collect();
            let (spec, text) = candidates[rng.below(candidates.len())];
            tag += 1;
            distinct.push(source_request(
                spec,
                text,
                method,
                bad,
                (tag_base << 16) | tag,
                rng,
            ));
        }
    };
    add_sources(VERIFY_CLEAN, "verify", false, &mut rng);
    add_sources(VERIFY_BAD, "verify", true, &mut rng);
    add_sources(COMPILE, "compile", false, &mut rng);
    for bench in 0..specs.len() {
        for opt in OptLevel::all() {
            distinct.push(named_request(specs, bench, opt, false));
        }
        for opt in [OptLevel::Tiled, OptLevel::Metapipelined] {
            distinct.push(named_request(specs, bench, opt, true));
        }
    }
    rng.shuffle(&mut distinct);
    // Each repeat copies a request placed before it.
    let mut out = distinct;
    for _ in 0..REPEATS {
        let at = 1 + rng.below(out.len());
        let copy = out[rng.below(at)].clone();
        out.insert(at, copy);
    }
    out
}

/// A running in-process daemon.
struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<ServiceStats>>,
}

/// Synthetic records: keys no real request produces, plausible values.
fn synthetic_records(cache: &EvalCache, rng: &mut Rng, n: usize) {
    for _ in 0..n {
        let r = rng.next_u64();
        #[allow(clippy::cast_precision_loss)]
        cache.insert(
            rng.next_u64(),
            EvalOutcome::Feasible(Measurement {
                cycles: 1000 + (r & 0xf_ffff),
                dram_words: r >> 44,
                on_chip_bytes: (r >> 20) & 0xf_ffff,
                area: Area {
                    logic: (r & 0xffff) as f64,
                    ff: ((r >> 16) & 0xffff) as f64,
                    mem: ((r >> 32) & 0xff) as f64,
                },
            }),
        );
    }
}

/// Writes the pristine snapshot and journal every daemon recovers.
fn write_pristine(dir: &Path, seed: u64) -> std::io::Result<PathBuf> {
    let path = dir.join("pristine.evc");
    let mut rng = Rng::new(seed ^ 0xCAC4E);
    let snapshot = EvalCache::new();
    synthetic_records(&snapshot, &mut rng, SNAPSHOT_RECORDS);
    snapshot
        .save(&path)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let journaled = EvalCache::open_journaled_with(
        &path,
        JournalConfig {
            sync_every: 4096,
            compact_bytes: u64::MAX,
        },
    )?;
    synthetic_records(&journaled, &mut rng, JOURNAL_RECORDS);
    journaled.flush_journal()?;
    Ok(path)
}

/// Restores the live cache files from the pristine copy, then times the
/// daemon's set-up: journal recovery, construction, bind, first `ping`.
fn start_daemon(pristine: &Path, dir: &Path, trace: &Trace) -> (Daemon, f64) {
    let live = dir.join("live.evc");
    std::fs::copy(pristine, &live).expect("copy the pristine snapshot");
    std::fs::copy(
        pphw_dse::journal_path(pristine),
        pphw_dse::journal_path(&live),
    )
    .expect("copy the pristine journal");
    let t0 = Instant::now();
    let cache = trace
        .span("dse.journal_open_s", || EvalCache::open_journaled(&live))
        .expect("recover the journaled eval cache");
    if let Some(s) = cache.journal_stats() {
        #[allow(clippy::cast_precision_loss)]
        trace.add(
            "dse.journal_records",
            (s.recovered_snapshot + s.recovered_journal) as f64,
        );
    }
    let service = Arc::new(Service::new(Limits::default(), workers(), cache));
    let server = Server::bind("127.0.0.1:0", service, workers()).expect("bind the daemon");
    let addr = server.local_addr().expect("daemon address");
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).expect("connect to the daemon");
    let pong = client
        .call("{\"id\":0,\"method\":\"ping\"}")
        .expect("ping the daemon");
    let setup_s = t0.elapsed().as_secs_f64();
    assert!(
        pong.contains("\"pong\":true"),
        "unexpected ping reply {pong}"
    );
    (Daemon { addr, handle }, setup_s)
}

/// Fetches the daemon's counters, shuts it down and waits for it.
fn stop_daemon(d: Daemon) -> Json {
    let mut client = Client::connect(&d.addr).expect("connect to the daemon");
    let stats = client
        .call("{\"id\":\"stats\",\"method\":\"stats\"}")
        .expect("daemon stats");
    client
        .call("{\"id\":\"bye\",\"method\":\"shutdown\"}")
        .expect("daemon shutdown");
    drop(client);
    d.handle
        .join()
        .expect("daemon thread")
        .expect("daemon accept loop");
    parse_json(&stats)
        .ok()
        .and_then(|v| v.get("result").cloned())
        .unwrap_or(Json::Null)
}

/// Sends one round of the population over the closed-loop connections
/// (request `i` goes to connection `i % connections`); returns each reply
/// with its latency in ms.
fn send_population(clients: &mut [Client], lines: &[String]) -> Vec<(String, f64)> {
    let n = clients.len();
    let mut replies: Vec<(String, f64)> = vec![(String::new(), 0.0); lines.len()];
    let per_client: Vec<Vec<(usize, String, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for i in (c..lines.len()).step_by(n) {
                        let t = Instant::now();
                        let reply = client.call(&lines[i]).unwrap_or_default();
                        out.push((i, reply, t.elapsed().as_secs_f64() * 1e3));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for (i, reply, ms) in per_client.into_iter().flatten() {
        replies[i] = (reply, ms);
    }
    replies
}

/// The reply a request must get, computed by direct calls.
#[derive(Debug, PartialEq)]
enum Expected {
    Compile {
        on_chip_bytes: u64,
        buffers: u64,
        hgl_fnv1a64: String,
        hgl_lines: u64,
    },
    Verify {
        error_count: u64,
        codes: Vec<String>,
    },
    Simulate {
        cycles: u64,
        dram_words: u64,
        on_chip_bytes: u64,
    },
    Dse {
        cycles: u64,
        labels: Vec<String>,
    },
}

fn options(r: &Request) -> CompileOptions {
    CompileOptions::new(&r.sizes)
        .tiles(&r.tiles)
        .inner_par(r.inner_par)
        .opt(r.opt)
}

fn expected(specs: &[BenchSpec], r: &Request, trace: &Trace) -> Result<Expected, String> {
    match &r.ask {
        Ask::Source {
            method, file, text, ..
        } => {
            let file = format!("{file}.ppl");
            let mut parsed = trace
                .span("frontend.parse_s", || {
                    pphw_frontend::parse_program(text, &file)
                })
                .map_err(|errs| format!("{} parse error(s)", errs.len()))?;
            // The daemon keys inline programs by content under this name.
            let display = parsed.program.name.clone();
            parsed.program.name = format!("{display}@{:016x}", fnv1a64(text.as_bytes()));
            let prog = &parsed.program;
            let compiled = trace.span("core.compile_s", || compile(prog, &options(r)));
            if let Ok(c) = &compiled {
                replay_layers(trace, prog, c)?;
            }
            if *method == "compile" {
                let c = compiled.map_err(|e| e.to_string())?;
                let hgl = c.emit_hgl();
                return Ok(Expected::Compile {
                    on_chip_bytes: c.design.on_chip_bytes(),
                    buffers: c.design.buffers.len() as u64,
                    hgl_fnv1a64: format!("{:016x}", fnv1a64(hgl.as_bytes())),
                    hgl_lines: hgl.lines().count() as u64,
                });
            }
            let cfg = VerifyConfig {
                inner_par: r.inner_par,
                ..VerifyConfig::default()
            };
            let report =
                verify_families(trace, prog, compiled.as_ref().ok().map(|c| &c.design), &cfg);
            Ok(Expected::Verify {
                error_count: report.error_count() as u64,
                codes: report
                    .diagnostics
                    .iter()
                    .map(|d| d.code.code().to_string())
                    .collect(),
            })
        }
        Ask::Simulate { bench } => {
            let prog = (specs[*bench].program)();
            let c = trace
                .span("core.compile_s", || compile(&prog, &options(r)))
                .map_err(|e| e.to_string())?;
            replay_layers(trace, &prog, &c)?;
            let sim = SimConfig {
                cycle_budget: Limits::default().default_cycle_budget,
                ..SimConfig::default()
            };
            let rep = simulate_traced(trace, &c, &sim).map_err(|e| e.to_string())?;
            Ok(Expected::Simulate {
                cycles: rep.cycles,
                dram_words: rep.dram_words,
                on_chip_bytes: c.design.on_chip_bytes(),
            })
        }
        Ask::Dse { bench } => {
            let prog = (specs[*bench].program)();
            let sim = SimConfig {
                cycle_budget: Limits::default().default_cycle_budget,
                ..SimConfig::default()
            };
            let mut space = SearchSpace::new(&r.sizes);
            for (i, (k, t)) in r.tiles.iter().enumerate() {
                let cands = if i == 0 { vec![t / 2, *t] } else { vec![*t] };
                space = space.with_tile_candidates(k, &cands);
            }
            space = space
                .with_inner_pars(&[8, 16])
                .with_sim_variants(&[("max4", sim.clone())]);
            let mut best: Option<(u64, Vec<String>)> = None;
            for cand in space.candidates() {
                let mut opts = CompileOptions::new(&r.sizes)
                    .tiles(&cand.tile_pairs())
                    .inner_par(cand.inner_par)
                    .opt(r.opt);
                opts.meta_inner_par = None;
                let Ok(c) = trace.span("core.compile_s", || compile(&prog, &opts)) else {
                    continue;
                };
                if c.design.on_chip_bytes() > opts.on_chip_budget_bytes {
                    continue;
                }
                let cycles = simulate_traced(trace, &c, &sim)
                    .map_err(|e| e.to_string())?
                    .cycles;
                match &mut best {
                    Some((b, labels)) if *b == cycles => labels.push(cand.label()),
                    Some((b, _)) if *b < cycles => {}
                    _ => best = Some((cycles, vec![cand.label()])),
                }
            }
            let (cycles, labels) = best.ok_or("no feasible candidate")?;
            Ok(Expected::Dse { cycles, labels })
        }
    }
}

fn u64_at(v: &Json, path: &[&str]) -> Option<u64> {
    path.iter().try_fold(v, |v, k| v.get(k))?.as_u64()
}

/// Reads the fields of a reply that [`Expected`] pins.
fn observed(r: &Request, result: &Json) -> Option<Expected> {
    Some(match &r.ask {
        Ask::Source { method, .. } if *method == "compile" => Expected::Compile {
            on_chip_bytes: u64_at(result, &["on_chip_bytes"])?,
            buffers: u64_at(result, &["buffers"])?,
            hgl_fnv1a64: result.get("hgl_fnv1a64")?.as_str()?.to_string(),
            hgl_lines: u64_at(result, &["hgl_lines"])?,
        },
        Ask::Source { .. } => Expected::Verify {
            error_count: u64_at(result, &["error_count"])?,
            codes: result
                .get("report")?
                .get("diagnostics")?
                .as_arr()?
                .iter()
                .filter_map(|d| Some(d.get("code")?.as_str()?.to_string()))
                .collect(),
        },
        Ask::Simulate { .. } => Expected::Simulate {
            cycles: u64_at(result, &["cycles"])?,
            dram_words: u64_at(result, &["dram_words"])?,
            on_chip_bytes: u64_at(result, &["on_chip_bytes"])?,
        },
        Ask::Dse { .. } => Expected::Dse {
            cycles: u64_at(result, &["best", "cycles"])?,
            labels: vec![result.get("best")?.get("label")?.as_str()?.to_string()],
        },
    })
}

/// Whether a reply matches its direct computation and, for `verify`, the
/// source's known answer.
fn reply_matches(r: &Request, want: &Expected, got: &Expected) -> bool {
    let known = match (&r.ask, want) {
        (Ask::Source { bad, .. }, Expected::Verify { error_count, codes }) => {
            if *bad {
                *error_count > 0 && codes.iter().any(|c| c == "PPHW010")
            } else {
                *error_count == 0
            }
        }
        _ => true,
    };
    let same = match (want, got) {
        (
            Expected::Dse { cycles, labels },
            Expected::Dse {
                cycles: c,
                labels: l,
            },
        ) => cycles == c && l.iter().all(|x| labels.contains(x)),
        _ => want == got,
    };
    known && same
}

/// Runs `rounds` rounds of the serve population.
pub fn run(seed: u64, rounds: usize, trace: &Trace) -> Outcome {
    let specs = all_benchmarks();
    let dir = PathBuf::from(".bench_work").join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the work directory");
    let pristine = write_pristine(&dir, seed).expect("write the pristine eval cache");

    // Set-up samples: daemons that only start and stop, then the one
    // that serves the population.
    let mut setup = Vec::new();
    for _ in 1..SETUP_SAMPLES {
        let (daemon, setup_s) = start_daemon(&pristine, &dir, &Trace::off());
        setup.push(setup_s);
        stop_daemon(daemon);
    }
    let (daemon, setup_s) = start_daemon(&pristine, &dir, trace);
    setup.push(setup_s);
    let mut clients: Vec<Client> = (0..workers().min(2))
        .map(|_| Client::connect(&daemon.addr).expect("connect to the daemon"))
        .collect();
    // With tracing on, the same population also goes through
    // `Service::handle_line` in process, on a service of its own: the
    // daemon's work without the wire. Its replies must equal the wire's.
    let local = trace
        .is_on()
        .then(|| Service::new(Limits::default(), workers(), EvalCache::new()));

    let mut latencies_ms = Vec::new();
    let mut round_s = Vec::new();
    let mut digest = DIGEST_INIT;
    let mut correct = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut best_cycles: Vec<u64> = vec![u64::MAX; specs.len()];
    let mut level_cycles: Vec<[u64; 3]> = vec![[0; 3]; specs.len()];
    for round in 0..rounds {
        let pop = population(&specs, seed, round);
        let lines: Vec<String> = pop
            .iter()
            .enumerate()
            .map(|(i, r)| format!("{{\"id\":\"{round}.{i}\",{}}}", r.payload))
            .collect();

        let t0 = Instant::now();
        let replies = send_population(&mut clients, &lines);
        round_s.push(t0.elapsed().as_secs_f64());
        let round_trip: f64 = replies.iter().map(|(_, ms)| ms / 1e3).sum();
        trace.add("server.round_trip_s", round_trip);

        // Checks: every distinct request is computed once, directly.
        let mut want: HashMap<&str, Result<Expected, String>> = HashMap::new();
        for (i, (r, (reply, ms))) in pop.iter().zip(&replies).enumerate() {
            attempted += 1;
            latencies_ms.push(*ms);
            digest_str(&mut digest, reply);
            let parsed = parse_json(reply).ok();
            let ok = parsed
                .as_ref()
                .and_then(|v| v.get("ok"))
                .and_then(Json::as_bool)
                == Some(true);
            if !ok {
                failed += 1;
                eprintln!("serve: FAILED: request {i}: {reply}");
                continue;
            }
            let w = want
                .entry(r.payload.as_str())
                .or_insert_with(|| expected(&specs, r, trace));
            let got = parsed
                .as_ref()
                .and_then(|v| v.get("result"))
                .and_then(|res| observed(r, res));
            let matches = match (&*w, &got) {
                (Ok(w), Some(g)) => reply_matches(r, w, g),
                _ => false,
            };
            if !matches {
                correct = false;
                eprintln!(
                    "serve: CHECK FAILED: request {i} ({}): reply {got:?}, direct {w:?}",
                    r.payload.split(',').next().unwrap_or("")
                );
            }
            if round == 0 {
                match (&r.ask, &got) {
                    (Ask::Dse { bench }, Some(Expected::Dse { cycles, .. })) => {
                        best_cycles[*bench] = best_cycles[*bench].min(*cycles);
                    }
                    (Ask::Simulate { bench }, Some(Expected::Simulate { cycles, .. })) => {
                        let level = OptLevel::all()
                            .iter()
                            .position(|&o| o == r.opt)
                            .unwrap_or(0);
                        level_cycles[*bench][level] = *cycles;
                    }
                    _ => {}
                }
            }
        }

        if let Some(service) = &local {
            for (line, (reply, _)) in lines.iter().zip(&replies) {
                let local = trace.span("server.handle_s", || service.handle_line(line));
                if local.as_deref() != Some(reply.as_str()) {
                    correct = false;
                    eprintln!("serve: CHECK FAILED: in-process reply differs for {line:.80}");
                }
            }
        }
    }
    drop(clients);
    let stats = stop_daemon(daemon);
    let stat = |k: &str| u64_at(&stats, &[k]).unwrap_or(0);
    let memo_hits = stat("dedup_hits");
    if stat("requests") != attempted + 2 || stat("errors") != failed {
        correct = false;
        eprintln!("serve: CHECK FAILED: daemon counters disagree with the replies: {stats:?}");
    }
    #[allow(clippy::cast_precision_loss)]
    {
        trace.add("server.memo_hits", memo_hits as f64);
        trace.add("server.design_builds", stat("design_builds") as f64);
        trace.add("server.eval_misses", stat("eval_misses") as f64);
        trace.add("server.errors", stat("errors") as f64);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_work");

    let mut speedups = Vec::new();
    #[allow(clippy::cast_precision_loss)]
    let best: Vec<f64> = best_cycles.iter().map(|&c| c as f64).collect();
    for (b, spec) in specs.iter().enumerate() {
        let c = level_cycles[b];
        #[allow(clippy::cast_precision_loss)]
        let speedup = c[0] as f64 / c[2].max(1) as f64;
        speedups.push(speedup);
        println!(
            "serve {:<10} simulate cycles base={} tiled={} meta={} +meta {speedup:.2}x; dse best {} cycles",
            spec.name, c[0], c[1], c[2], best_cycles[b]
        );
    }
    #[allow(clippy::cast_precision_loss)]
    let memo_share = memo_hits as f64 / attempted.max(1) as f64;
    println!(
        "serve: set-ups {setup:.4?}\nserve: {rounds} round(s), {attempted} requests over {} connection(s), {:.1}% answered from the memo, \
         median set-up {:.4}s",
        workers().min(2),
        memo_share * 100.0,
        median(&setup)
    );
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
