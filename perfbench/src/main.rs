//! The hetero-chiplet benchmark: three long, single-process workloads,
//! each loading a different layer of the simulator, reported as
//! end-to-end metrics (untraced run) or per-layer metrics (traced run).
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig11-uniform --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod dnn;
mod fig11;
mod report;
mod serve;
mod stats;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["fig11-uniform", "dnn-allreduce", "serve-mix"];

/// Where traced runs write their spans and `serve-mix` keeps its stores.
pub const OUT_DIR: &str = "perfbench/out";

/// The command line of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input of the run is derived from.
    pub seed: u64,
    /// How long to keep starting rounds of the workload.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    exit(2)
}

fn parse_args() -> Opts {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Opts {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

/// Operation accounting: every operation of a round is attempted once,
/// and fails when any of its checks fails.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ops {
    /// Counts one operation named `what`, failed when `problems` is not
    /// empty.
    pub fn record(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            eprintln!("FAILED {what}: {}", problems.join("; "));
        }
    }
}

/// Runs `round(i)` for i = 0, 1, … at least `min_rounds` times, and
/// after that starts another round only while one of the mean length so
/// far still ends within `seconds`. Only whole rounds run, so every run
/// attempts the same operations in the same proportions.
pub fn repeat(seconds: f64, min_rounds: usize, mut round: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min_rounds.max(1) || {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed + elapsed / i as f64 <= seconds
    } {
        round(i);
        i += 1;
    }
}

/// Peak resident set size of process `pid` (this process when `None`),
/// in MiB, from `/proc/<pid>/status`.
pub fn peak_rss_mib(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A SplitMix64 stream: the benchmark's own seeded input generator, kept
/// apart from the simulator's RNG so inputs never depend on its version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed` and a per-use `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

fn main() {
    // `SimConfig::default()` reads these once per process; the workloads
    // set threads and idle-skip themselves, and the served jobs (which use
    // the default config) must not pick up the caller's environment.
    std::env::remove_var("HETERO_SIM_THREADS");
    std::env::remove_var("HETERO_SIM_SKIP");
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() == Some("--serve-child") {
        let dir = args.next().unwrap_or_else(|| usage());
        serve::child_main(PathBuf::from(dir));
    }
    let opts = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {nproc}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    let mut tracer = trace::Tracer::default();
    let report: Report = match opts.workload.as_str() {
        "fig11-uniform" => fig11::run(&opts, &mut tracer),
        "dnn-allreduce" => dnn::run(&opts, &mut tracer),
        "serve-mix" => serve::run(&opts, &mut tracer),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    let table: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    if opts.trace {
        let path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
    }
    for (name, unit) in table {
        if let Some((_, v)) = report.metrics.iter().find(|(n, _)| n == name) {
            println!("  {name:<36} {v:>16.6} {unit}");
        }
    }
    println!(
        "  attempted {} failed {} correct {}",
        report.attempted, report.failed, report.correct
    );
    println!("{}", report.line(table));
}
