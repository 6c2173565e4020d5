//! Fixed-work benchmark of the compile → simulate → explore → serve stack.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore|differential|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload does a fixed amount of work: `--seconds` only sets how
//! many whole rounds of that work one run repeats (see [`rounds_for`]), so
//! a faster program shortens `wall_s` without changing what is done. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the run repeats the workload with
//! spans around the calls into each layer and prints the per-layer ones.
//! See `perfbench/README.md` for what each workload contains and why.

mod differential;
mod explore;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::process::exit;
use std::time::Instant;

use trace::Trace;

/// Named dimension sizes (or tiles), as the compile options take them.
pub type Dims = Vec<(&'static str, i64)>;

/// One metric as printed: value and unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// What one pass of a workload produced.
pub struct Outcome {
    /// Operations attempted (every kind the workload counts).
    pub attempted: u64,
    /// Operations whose result was wrong or that returned an error.
    pub failed: u64,
    /// Whether every operation that did not fail passed its checks.
    pub correct: bool,
    /// Median host seconds of one round of the fixed work, set-up
    /// excluded.
    pub wall_s: f64,
    /// Host latency of every timed operation, in milliseconds, round
    /// after round.
    pub latencies_ms: Vec<f64>,
    /// Rounds run; every round times the same number of operations.
    pub rounds: usize,
    /// Median host seconds of one set-up.
    pub setup_s: f64,
    /// Geomean of the best simulated cycles per benchmark.
    pub best_cycles_geomean: f64,
    /// Geomean of the +tiling+metapipelining speedups over baseline.
    pub fig7_speedup_geomean: f64,
    /// Digest of every output the workload checked; the traced pass must
    /// reproduce the untraced pass's digest exactly.
    pub digest: u64,
}

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload explore|differential|serve --seed N --seconds S --trace 0|1"
    );
    exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag} needs a whole number, got `{value}`")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()),
            "--seconds" => seconds = Some(number()),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                });
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    let args = Args {
        workload: workload.unwrap_or_else(|| usage("missing --workload")),
        seed: seed.unwrap_or_else(|| usage("missing --seed")),
        seconds: seconds.unwrap_or_else(|| usage("missing --seconds")),
        trace: trace.unwrap_or_else(|| usage("missing --trace")),
    };
    if args.seconds == 0 {
        usage("--seconds must be at least 1");
    }
    args
}

/// Whole rounds of a workload's fixed work that one run repeats:
/// `seconds × rounds_per_10s / 10`, rounded up, at least one. The number
/// depends on the arguments only, so both sides of a comparison do
/// exactly the same operations however fast they are.
pub fn rounds_for(seconds: u64, rounds_per_10s: u64) -> usize {
    usize::try_from(seconds.saturating_mul(rounds_per_10s).div_ceil(10).max(1))
        .unwrap_or(usize::MAX)
}

/// Threads the `serve` daemon and its clients use: one per available
/// core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let n = values.len() as f64;
    (values.iter().map(|v| v.ln()).sum::<f64>() / n).exp()
}

/// Seeded generator for the benchmark's own input choices (`SplitMix64`).
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BA5E_D00D_F00D)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next_u64() % n as u64).unwrap_or(0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Folds `value`'s bytes into an FNV-1a digest.
pub fn digest_str(digest: &mut u64, value: &str) {
    for b in value.bytes().chain(std::iter::once(0xff)) {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Initial FNV-1a digest state.
pub const DIGEST_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Seconds of one call of `setup`, sampled `blocks` times: after 20 ms of
/// warm-up calls, each block times as many calls as cover 10 ms.
pub fn setup_samples(blocks: usize, mut setup: impl FnMut()) -> Vec<f64> {
    let mut block = |min_s: f64| {
        let t = Instant::now();
        let mut calls = 0u32;
        while calls == 0 || t.elapsed().as_secs_f64() < min_s {
            setup();
            calls += 1;
        }
        t.elapsed().as_secs_f64() / f64::from(calls)
    };
    block(0.020);
    (0..blocks).map(|_| block(0.010)).collect()
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn run_pass(args: &Args, trace: &Trace) -> Outcome {
    match args.workload.as_str() {
        "explore" => explore::run(
            args.seed,
            rounds_for(args.seconds, explore::ROUNDS_PER_10S),
            trace,
        ),
        "differential" => differential::run(
            args.seed,
            rounds_for(args.seconds, differential::ROUNDS_PER_10S),
            trace,
        ),
        "serve" => serve::run(
            args.seed,
            rounds_for(args.seconds, serve::ROUNDS_PER_10S),
            trace,
        ),
        other => usage(&format!("unknown workload `{other}`")),
    }
}

fn end_to_end(out: &Outcome) -> Metrics {
    let sorted = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    let all = sorted(&out.latencies_ms);
    // A round of 1000 operations or more has ten beyond its own p99; the
    // median over rounds then keeps a burst of host noise in one round
    // from moving the tail. Smaller rounds pool the whole run.
    let per_round = out.latencies_ms.len() / out.rounds.max(1);
    let p99 = if per_round >= 1000 && per_round * out.rounds == out.latencies_ms.len() {
        let tails: Vec<f64> = out
            .latencies_ms
            .chunks(per_round)
            .map(|round| percentile(&sorted(round), 99.0))
            .collect();
        median(&tails)
    } else {
        percentile(&all, 99.0)
    };
    let mut m = Metrics::new();
    m.insert("wall_s", (out.wall_s, "s"));
    m.insert("p50_ms", (percentile(&all, 50.0), "ms"));
    m.insert("p99_ms", (p99, "ms"));
    m.insert("peak_rss_mb", (peak_rss_mb(), "MB"));
    m.insert("setup_s", (out.setup_s, "s"));
    m.insert("best_cycles_geomean", (out.best_cycles_geomean, "cycles"));
    m.insert("fig7_speedup_geomean", (out.fig7_speedup_geomean, "x"));
    m
}

fn print_result(out: &Outcome, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        body.join(", ")
    );
}

fn main() {
    let args = parse_args();
    let untraced = run_pass(&args, &Trace::off());
    if !args.trace {
        let lat = untraced.latencies_ms.len();
        println!(
            "# {} seed={} operations timed={lat} attempted={} failed={}",
            args.workload, args.seed, untraced.attempted, untraced.failed
        );
        let metrics = end_to_end(&untraced);
        print_result(&untraced, &metrics);
        return;
    }
    // The traced pass repeats the same work with spans on; its outputs
    // must equal the untraced pass's, and the wall-clock difference is the
    // tracing overhead.
    let trace = Trace::on();
    let mut traced = run_pass(&args, &trace);
    traced.correct &= untraced.correct && traced.digest == untraced.digest;
    if traced.digest != untraced.digest {
        eprintln!(
            "traced outputs differ from untraced: digest {:016x} vs {:016x}",
            traced.digest, untraced.digest
        );
    }
    let mut metrics = trace.metrics();
    metrics.insert("trace.wall_s", (traced.wall_s, "s"));
    metrics.insert("trace.untraced_wall_s", (untraced.wall_s, "s"));
    metrics.insert("trace.overhead_s", (traced.wall_s - untraced.wall_s, "s"));
    for (name, (value, unit)) in &metrics {
        println!("# {name:<28} {value:>14.6} {unit}");
    }
    print_result(&traced, &metrics);
}
