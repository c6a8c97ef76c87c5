//! `flowbench` — the flowmax benchmark runner.
//!
//! ```text
//! flowbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --bin-dir <dir with flowmax and flowmax-serve>
//!           [--threads N] [--lanes N] [--rate QPS] [--latency-limit-ms MS]
//!           [--work-dir DIR]
//! ```
//!
//! Drives the system from outside: it spawns `flowmax solve`, opens TCP
//! connections to `flowmax-serve`, and calls the library layers' public
//! functions for the oracle and the per-layer timings. Prints every metric
//! by name with its unit and sample count, then one JSON result line.
//! Exits 1 when a correctness check fails, 2 on a usage or set-up error.

mod cli;
mod inputs;
mod ledger;
mod proc;
mod serve;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use flowbench::report::{result_line, Metric};

/// The run's settings. Workload, seed, seconds and trace vary from run to
/// run; `BENCHMARK.json` fixes the rest in its command.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    pub lanes: usize,
    /// Open-loop arrival rate of `serve_mixed`, in queries per second.
    pub rate: f64,
    /// The latency limit `goodput_qps` counts answers against.
    pub latency_limit_ms: f64,
    pub bin_dir: PathBuf,
    pub work_dir: PathBuf,
}

impl Opts {
    pub fn measure_for(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_opts(raw: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 15.0,
        trace: false,
        threads: 2,
        lanes: 8,
        rate: 40.0,
        latency_limit_ms: 250.0,
        bin_dir: PathBuf::new(),
        work_dir: PathBuf::from(".flowbench-work"),
    };
    let mut i = 0;
    while i < raw.len() {
        let name = raw[i].as_str();
        let value = raw
            .get(i + 1)
            .ok_or_else(|| format!("option {name} requires a value"))?;
        let bad = || format!("invalid value for {name}: {value:?}");
        match name {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--threads" => opts.threads = value.parse().map_err(|_| bad())?,
            "--lanes" => opts.lanes = value.parse().map_err(|_| bad())?,
            "--rate" => opts.rate = value.parse().map_err(|_| bad())?,
            "--latency-limit-ms" => opts.latency_limit_ms = value.parse().map_err(|_| bad())?,
            "--bin-dir" => opts.bin_dir = PathBuf::from(value),
            "--work-dir" => opts.work_dir = PathBuf::from(value),
            other => return Err(format!("unknown option {other}")),
        }
        i += 2;
    }
    if !(opts.seconds > 0.0 && opts.rate > 0.0 && opts.latency_limit_ms > 0.0) {
        return Err("--seconds, --rate and --latency-limit-ms must be positive".into());
    }
    // Never more worker threads (or client connections) than cores.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    opts.threads = opts.threads.clamp(1, cores);
    for bin in ["flowmax", "flowmax-serve"] {
        if !opts.bin_dir.join(bin).is_file() {
            return Err(format!(
                "--bin-dir {:?} holds no {bin} binary",
                opts.bin_dir
            ));
        }
    }
    Ok(opts)
}

/// What a run found: operations and checks, and the metrics it reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Answers that failed a correctness check (a subset of `failed`).
    pub mismatches: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Report {
    /// Counts one operation that succeeded or failed without a wrong answer.
    pub fn operation(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts one correctness check; a mismatch fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches += 1;
            eprintln!("flowbench: CHECK FAILED: {}", what());
        }
    }

    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.end_to_end
            .push(Metric::new(name, unit, value, samples));
    }

    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.per_layer.push(Metric::new(name, unit, value, samples));
    }
}

pub const WORKLOADS: [&str; 4] = ["greedy_deep", "race_sampled", "ingest_large", "serve_mixed"];

fn run(opts: &Opts) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.work_dir.display()))?;
    let mut rec = spans::Recorder::new(opts.trace);
    let mut report = Report::default();
    match opts.workload.as_str() {
        "serve_mixed" => serve::run_mixed(opts, &mut rec, &mut report)?,
        name => {
            let workload = cli::workload(name).ok_or_else(|| {
                format!(
                    "unknown workload {name:?} (one of {})",
                    WORKLOADS.join(", ")
                )
            })?;
            cli::run(&workload, opts, &mut rec, &mut report)?;
        }
    }
    report.layer(
        "sampling.pool.restarts",
        "count",
        flowmax::sampling::WorkerPool::global().restarts() as f64,
        1,
    );
    if opts.trace {
        let dir = opts.work_dir.join("spans");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-seed{}.jsonl", opts.workload, opts.seed));
        rec.write(&path)?;
        println!("spans {} written to {}", rec.spans().len(), path.display());
        for (name, ns) in flowbench::trace::self_time_by_name(rec.spans()) {
            println!("self_time {name} = {:.6} s", ns as f64 / 1e9);
        }
    }
    Ok(report)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&raw) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("flowbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("flowbench: {} seed {}: {msg}", opts.workload, opts.seed);
            return ExitCode::from(2);
        }
    };
    let metrics = if opts.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    for m in metrics {
        println!(
            "metric {} = {} {} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "operations attempted={} failed={} error_rate={} mismatches={}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64,
        report.mismatches
    );
    let correct = report.mismatches == 0;
    match result_line(correct, report.attempted.max(1), report.failed, metrics) {
        Ok(line) => println!("{line}"),
        Err(msg) => {
            eprintln!("flowbench: {msg}");
            return ExitCode::from(2);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
