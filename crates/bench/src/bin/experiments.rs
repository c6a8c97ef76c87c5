//! Experiment runner CLI.
//!
//! ```text
//! experiments list                 # show available experiment ids
//! experiments all [--paper-scale]  # run everything
//! experiments fig5a fig9b ...      # run specific figures
//! experiments bench7               # serve-throughput snapshot → BENCH_7.json
//! experiments bench8               # wide-lane sampling snapshot → BENCH_8.json
//!   --paper-scale   use the paper's full sizes (slow)
//!   --seed <n>      master seed (default 42)
//!   --out <dir>     CSV output directory (default results/)
//!   --reps <n>      repetitions per bench configuration (default 2)
//! ```

use std::path::PathBuf;
use std::time::Instant;

use flowmax_bench::{registry, serve_bench, wide_lanes, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::reduced();
    let mut seed = 42u64;
    let mut out = PathBuf::from("results");
    let mut reps = 2u32;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--paper-scale" => scale = Scale::paper_scale(),
            "--reps" => {
                i += 1;
                reps = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--reps needs an integer");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                });
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                }));
            }
            other => ids.push(other.to_string()),
        }
        i += 1;
    }

    // The bench snapshots live outside the figure registry: each emits a
    // machine-readable BENCH_*.json perf-trajectory artifact.
    //
    // The serve-throughput snapshot: warm FlowServer (resident graph,
    // coalescing, persistent pool) vs cold per-query sessions
    // (BENCH_7.json, the PR-7 perf-trajectory artifact).
    if ids.iter().any(|s| s == "bench7") {
        let started = Instant::now();
        let bench = serve_bench::run(&scale, reps);
        print!("{}", bench.to_json());
        let path = PathBuf::from("BENCH_7.json");
        match bench.write_json(&path) {
            Ok(()) => println!(
                "# serve_throughput completed in {:.1?}; wrote {}",
                started.elapsed(),
                path.display()
            ),
            Err(err) => {
                eprintln!("error: could not write {}: {err}", path.display());
                std::process::exit(1);
            }
        }
        ids.retain(|s| s != "bench7");
        if ids.is_empty() {
            return;
        }
    }

    // The wide-lane snapshot: SIMD lane blocks at 64/256/512 worlds per
    // BFS pass vs the pinned scalar reference kernel (BENCH_8.json, the
    // PR-8 perf-trajectory artifact).
    if ids.iter().any(|s| s == "bench8") {
        let started = Instant::now();
        let bench = wide_lanes::run(&scale, reps);
        print!("{}", bench.to_json());
        let path = PathBuf::from("BENCH_8.json");
        match bench.write_json(&path) {
            Ok(()) => println!(
                "# wide_lanes completed in {:.1?}; wrote {}",
                started.elapsed(),
                path.display()
            ),
            Err(err) => {
                eprintln!("error: could not write {}: {err}", path.display());
                std::process::exit(1);
            }
        }
        ids.retain(|s| s != "bench8");
        if ids.is_empty() {
            return;
        }
    }

    let all = registry();
    if ids.is_empty() || ids.iter().any(|s| s == "list") {
        println!("available experiments (run with `experiments all` or by id):");
        for e in &all {
            println!("  {:<10} {}", e.id, e.description);
        }
        return;
    }

    let selected: Vec<_> = if ids.iter().any(|s| s == "all") {
        all.iter().collect()
    } else {
        let chosen: Vec<_> = all
            .iter()
            .filter(|e| ids.contains(&e.id.to_string()))
            .collect();
        let known: Vec<&str> = all.iter().map(|e| e.id).collect();
        for id in &ids {
            if !known.contains(&id.as_str()) {
                eprintln!("unknown experiment {id:?}; try `experiments list`");
                std::process::exit(2);
            }
        }
        chosen
    };

    for e in selected {
        let started = Instant::now();
        let report = (e.run)(&scale, seed);
        report.print();
        if let Err(err) = report.write_csv(&out) {
            eprintln!("warning: could not write CSV for {}: {err}", e.id);
        }
        println!(
            "# completed in {:.1?}; csv: {}/{}.csv\n",
            started.elapsed(),
            out.display(),
            e.id
        );
    }
}
