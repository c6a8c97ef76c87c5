//! The CLI workloads: one client spawns `flowmax solve` on each generated
//! graph file, one run after another, for the measured time. Every answer
//! is checked against the in-process `Session` run of the same spec.

use std::fs;
use std::process::Command;
use std::time::{Duration, Instant};

use flowbench::stats;
use flowmax::core::Algorithm;

use crate::inputs::{self, Dataset, Input, Setup};
use crate::ledger::{self, Answer, Ledger, Spec};
use crate::spans::Recorder;
use crate::{proc, serve, Opts, Report};

/// In-process set-ups of an instance after each of its solves: a set-up
/// is a tenth of a solve, so more of them find the machine's fast level.
const SETUPS_PER_SOLVE: usize = 2;

pub struct CliWorkload {
    pub dataset: Dataset,
    /// Graph instances per run. Input cost varies from seed to seed, so a
    /// run averages over several instances to keep runs comparable.
    pub instances: usize,
    pub algorithm: Algorithm,
    pub budget: usize,
    pub samples: u32,
    /// The budget of the thread- and lane-invariance check.
    pub check_budget: usize,
    /// The layer the workload was chosen to stress, checked in the traced
    /// run: `graph.io` or `core.selection` should dominate the solve, and
    /// `sampling` should carry real weight in selection.
    pub predicted: &'static str,
}

pub fn workload(name: &str) -> Option<CliWorkload> {
    let paper = |dataset, instances, budget, check_budget, predicted| CliWorkload {
        dataset,
        instances,
        algorithm: Algorithm::FtMCiDs,
        budget,
        samples: 1000,
        check_budget,
        predicted,
    };
    match name {
        // The greedy re-probe loop dominates: thousands of analytic probes
        // per iteration over a deep selection. At b=1000 rather than 2000
        // the run affords 32 graphs, whose median is steady from seed to
        // seed; 12 graphs at b=2000 were not.
        "greedy_deep" => Some(paper(
            Dataset::Erdos {
                vertices: 50_000,
                degree: 6.0,
            },
            16,
            1000,
            300,
            "core.selection",
        )),
        // Dense geometric graph: sampled probes, the candidate race, the
        // memo and delayed sampling carry the cost. b=75 lets a run solve
        // 32 graphs.
        "race_sampled" => Some(paper(
            Dataset::Wsn {
                vertices: 5_000,
                epsilon: 0.07,
            },
            16,
            75,
            40,
            "sampling",
        )),
        // Text parse and CSR build of a large file dominate; selection is
        // a few milliseconds.
        "ingest_large" => Some(paper(
            Dataset::Erdos {
                vertices: 1_000_000,
                degree: 6.0,
            },
            4,
            50,
            50,
            "graph.io",
        )),
        _ => None,
    }
}

/// Whether the CLI's output states `answer`: the printed flow (six
/// decimals, as the CLI prints it) and the selected edges in commit order.
fn matches(stdout: &str, answer: &Answer) -> bool {
    let mut lines = stdout.lines();
    let flow = lines
        .next()
        .and_then(|l| l.split_whitespace().find_map(|t| t.strip_prefix("flow=")));
    let edges: Vec<u32> = lines
        .filter_map(|l| l.trim_start().strip_prefix("edge "))
        .filter_map(|l| l.split(':').next()?.parse().ok())
        .collect();
    flow == Some(format!("{:.6}", answer.flow).as_str())
        && edges
            .iter()
            .copied()
            .eq(answer.selected.iter().map(|e| e.0))
}

/// The mean over instances of each instance's median solve time.
fn over_instances_mean(per_instance: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = per_instance
        .iter()
        .filter_map(|t| stats::median(t))
        .collect();
    stats::mean(&medians).unwrap_or(0.0)
}

fn spec_of(w: &CliWorkload, input: &Input) -> Spec {
    Spec {
        query: input.query,
        algorithm: w.algorithm,
        budget: w.budget,
        samples: w.samples,
    }
}

pub fn run(
    w: &CliWorkload,
    opts: &Opts,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<(), String> {
    let run_start = Instant::now();
    let data_dir = opts.work_dir.join("inputs");
    let inputs = (0..w.instances)
        .map(|i| {
            inputs::ensure(
                &data_dir,
                w.dataset,
                flowbench::instance_seed(opts.seed, i),
                w.instances,
            )
        })
        .collect::<Result<Vec<Input>, String>>()?;
    for input in &inputs {
        println!("{}", input.describe());
    }

    // Set-up, oracle and traced layer pass. Untraced runs answer `threads`
    // instances at once, one thread each: answers do not depend on the
    // thread count, and the oracle is not timed. Traced runs take one
    // instance at a time so the layer timings have the machine to
    // themselves.
    let mut expected = Vec::new();
    let mut ledger = Ledger::default();
    let mut kernel = 0.0;
    let mut trace_overhead = 0.0;
    let mut probe_roots = Vec::new();
    let width = if opts.trace { 1 } else { opts.threads };
    let indices: Vec<usize> = (0..inputs.len()).collect();
    for chunk in indices.chunks(width) {
        let mut graphs = Vec::with_capacity(chunk.len());
        for &i in chunk {
            let (graph, _) = inputs::set_up(&inputs[i], rec, "cli.oracle_setup", i as u64)?;
            graphs.push(graph);
        }
        if opts.trace {
            let (i, graph, input) = (chunk[0], &graphs[0], &inputs[chunk[0]]);
            let spec = spec_of(w, input);
            let start = Instant::now();
            let root = rec.open("cli.solve", None, i as u64);
            let answer = ledger::traced_solve(
                graph,
                spec,
                opts.threads,
                opts.lanes,
                rec,
                root,
                i as u64,
                &mut ledger,
            )?;
            rec.close(root);
            let traced = start.elapsed();
            let m = &answer.metrics;
            println!(
                "ledger instance {i}: budget={} select_s={:.6} probes={} analytic_share={:.4} \
                 edge_samples={} cases II/IIIa/IIIb/IV={}/{}/{}/{}",
                spec.budget,
                traced.as_secs_f64(),
                m.probes,
                m.analytic_probes as f64 / m.probes.max(1) as f64,
                m.edge_samples_drawn,
                m.insert_case_ii,
                m.insert_case_iiia,
                m.insert_case_iiib,
                m.insert_case_iv
            );
            if i == 0 {
                let start = Instant::now();
                ledger::solve(graph, spec, opts.threads, opts.lanes)?;
                trace_overhead = traced.as_secs_f64() - start.elapsed().as_secs_f64();
                kernel = ledger::kernel_edge_samples_per_s(
                    graph,
                    input.query,
                    &answer,
                    w.samples,
                    opts.threads,
                    opts.lanes,
                    Duration::from_millis(300),
                );
                probe_roots = serve::top_degree(graph, 4);
            }
            expected.push(answer);
        } else {
            // flowmax-lint: allow(L2, the untimed oracle answers one instance per core; answers do not depend on the thread count)
            let answers: Vec<Result<Answer, String>> = std::thread::scope(|scope| {
                let handles: Vec<_> = chunk
                    .iter()
                    .zip(&graphs)
                    .map(|(&i, graph)| {
                        let spec = spec_of(w, &inputs[i]);
                        scope.spawn(move || ledger::solve(graph, spec, 1, opts.lanes))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err("oracle thread panicked".into()))
                    })
                    .collect()
            });
            for answer in answers {
                expected.push(answer?);
            }
        }
        if chunk[0] == 0 {
            let check = Spec {
                budget: w.check_budget,
                ..spec_of(w, &inputs[0])
            };
            let (failures, compared) =
                ledger::invariance_failures(&graphs[0], check, opts.threads, opts.lanes)?;
            for _ in failures.len() as u64..compared {
                report.check(true, String::new);
            }
            for failure in failures {
                report.check(false, || failure);
            }
        }
    }

    let prepared = run_start.elapsed().as_secs_f64();

    // The measured phase: a closed loop of one client, in rounds over the
    // instances, as many rounds as fit in the measured time after one
    // untimed round (the first solves after a pause run slow). Each solve
    // is followed by set-ups of its input in this process, so set-ups are
    // spread over the phase like the solves and no oracle thread shares
    // the machine with them.
    let bin = opts.bin_dir.join("flowmax");
    let out_path = opts
        .work_dir
        .join(format!("solve-{}.out", std::process::id()));
    let mut per_instance: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut peaks_kb = vec![0u64; inputs.len()];
    let mut answered = 0usize;
    let mut setups = Vec::new();
    let mut setup_s: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut rounds = 0;
    let mut warm_up = true;
    let mut phase_start = Instant::now();
    loop {
        for (i, input) in inputs.iter().enumerate() {
            let spec = spec_of(w, input);
            let mut command = Command::new(&bin);
            command.arg("solve").arg("--graph").arg(&input.path).args([
                "--query".to_string(),
                spec.query.to_string(),
                "--budget".to_string(),
                spec.budget.to_string(),
                "--algorithm".to_string(),
                spec.algorithm.name().to_string(),
                "--samples".to_string(),
                spec.samples.to_string(),
                "--seed".to_string(),
                ledger::SEED.to_string(),
                "--threads".to_string(),
                opts.threads.to_string(),
                "--lanes".to_string(),
                opts.lanes.to_string(),
            ]);
            let timed = proc::run_timed(&mut command, &out_path)?;
            let stdout = fs::read_to_string(&out_path).unwrap_or_default();
            let ok = timed.status.success() && matches(&stdout, &expected[i]);
            report.check(ok, || {
                format!(
                    "flowmax solve on {} disagrees with Session ({})",
                    input.describe(),
                    timed.status
                )
            });
            if warm_up {
                continue;
            }
            answered += usize::from(ok);
            peaks_kb[i] = peaks_kb[i].max(timed.peak_rss_kb);
            per_instance[i].push(timed.wall.as_secs_f64());
            for _ in 0..SETUPS_PER_SOLVE {
                let setup = inputs::set_up(input, rec, "cli.setup", i as u64)?.1;
                setup_s[i].push(setup.total().as_secs_f64());
                setups.push(setup);
            }
        }
        if warm_up {
            warm_up = false;
            phase_start = Instant::now();
            continue;
        }
        rounds += 1;
        let elapsed = phase_start.elapsed();
        if elapsed + elapsed / rounds > opts.measure_for() {
            break;
        }
    }
    let phase = phase_start.elapsed().as_secs_f64();
    let _ = fs::remove_file(&out_path);

    // Instances differ far more than runs of one instance do, and a few
    // instances cost several times the rest, so every figure is taken per
    // instance and the median over the instances reported. The measured
    // machine's core speed switches between two levels every second or so
    // as other tenants come and go, so an instance's figure is its fastest
    // round: the median of its rounds would report how much of the run
    // fell on the slow level.
    let n: usize = per_instance.iter().map(Vec::len).sum();
    let fastest_over_instances = |times: &[Vec<f64>]| {
        stats::median(
            &times
                .iter()
                .filter_map(|t| stats::min(t))
                .collect::<Vec<f64>>(),
        )
        .unwrap_or(0.0)
    };
    let solve_s = fastest_over_instances(&per_instance);
    let peaks_mb: Vec<f64> = peaks_kb.iter().map(|&kb| kb as f64 / 1024.0).collect();
    let secs = |f: fn(&Setup) -> Duration| {
        setups
            .iter()
            .map(|s| f(s).as_secs_f64())
            .collect::<Vec<f64>>()
    };
    let flows: Vec<f64> = expected.iter().map(|a| a.flow).collect();
    let answered_share = answered as f64 / n.max(1) as f64;
    println!(
        "solves {n} over {phase:.3} s in {rounds} rounds of {} instances, after {prepared:.3} s of inputs, set-up and oracle",
        inputs.len()
    );
    let fastest: Vec<String> = per_instance
        .iter()
        .filter_map(|t| stats::min(t))
        .map(|m| format!("{m:.4}"))
        .collect();
    println!("fastest solve per instance: {}", fastest.join(" "));
    report.e2e(
        "setup_s",
        "s",
        fastest_over_instances(&setup_s),
        setups.len(),
    );
    report.e2e("solve_s", "s", solve_s, n);
    report.e2e(
        "flow",
        "flow",
        stats::mean(&flows).unwrap_or(0.0),
        flows.len(),
    );
    report.e2e(
        "peak_rss_mb",
        "MB",
        stats::median(&peaks_mb).unwrap_or(0.0),
        n,
    );
    // A closed loop of one client: its throughput is the inverse of the
    // solve time.
    report.e2e("goodput_qps", "1/s", answered_share / solve_s, n);
    report.e2e("saturation_qps", "1/s", 1.0 / solve_s, n);

    if opts.trace {
        let parses = secs(|s| s.parse);
        let rates: Vec<f64> = setups.iter().map(Setup::mb_per_s).collect();
        let sessions = secs(|s| s.session);
        report.layer(
            "graph.io.parse_s",
            "s",
            stats::median(&parses).unwrap_or(0.0),
            parses.len(),
        );
        report.layer(
            "graph.io.mb_per_s",
            "MB/s",
            stats::median(&rates).unwrap_or(0.0),
            rates.len(),
        );
        report.layer(
            "core.session.setup_s",
            "s",
            stats::median(&sessions).unwrap_or(0.0),
            sessions.len(),
        );
        report.per_layer.extend(ledger.metrics());
        report.layer("sampling.kernel_edge_samples_per_s", "1/s", kernel, 1);
        report.layer("trace.overhead_s", "s", trace_overhead, 1);

        // Each layer's share of one solve, from the instance means.
        // Shares are of the mean solve over the instances, since the layer
        // times are means over the same instances.
        let solve_s = over_instances_mean(&per_instance);
        let per_query = |d: Duration| d.as_secs_f64() / ledger.runs.max(1) as f64;
        let layers = [
            ("file.read", stats::mean(&secs(|s| s.read)).unwrap_or(0.0)),
            ("graph.io", stats::mean(&parses).unwrap_or(0.0)),
            ("core.session", stats::mean(&sessions).unwrap_or(0.0)),
            ("core.selection", per_query(ledger.select)),
            ("core.eval", per_query(ledger.eval)),
        ];
        let accounted: f64 = layers.iter().map(|l| l.1).sum();
        for (layer, secs) in layers {
            println!(
                "share_of_solve_s {layer} = {:.4} ({secs:.6} s of {solve_s:.6} s)",
                secs / solve_s
            );
        }
        println!(
            "share_of_solve_s process+output = {:.4}",
            (solve_s - accounted) / solve_s
        );
        let dominant = layers
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or("", |l| l.0);
        println!("dominant_layer {} = {dominant}", opts.workload);
        // Kernel time inside selection, estimated from the edge-samples the
        // selections drew and the kernel's measured rate.
        let kernel_share = if kernel > 0.0 && ledger.select > Duration::ZERO {
            ledger.metrics.edge_samples_drawn as f64 / kernel / ledger.select.as_secs_f64()
        } else {
            0.0
        };
        println!(
            "sampling_share_of_selection {} = {kernel_share:.4}",
            opts.workload
        );
        let confirmed = match w.predicted {
            "sampling" => kernel_share >= 0.2,
            layer => dominant == layer,
        };
        let claim = if w.predicted == "sampling" {
            format!("sampling kernel time is at least 20% of selection ({kernel_share:.3})")
        } else {
            format!("{} dominates solve_s ({dominant} does)", w.predicted)
        };
        println!(
            "prediction {}: {claim}: {}",
            opts.workload,
            if confirmed { "confirmed" } else { "refuted" }
        );
        serve::probe(opts, &inputs[0], probe_roots, rec, report)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmax::core::SelectionMetrics;
    use flowmax::graph::EdgeId;

    #[test]
    fn cli_output_is_matched_on_flow_text_and_commit_order() {
        let answer = Answer {
            selected: vec![EdgeId(7), EdgeId(3)],
            flow: 12.345_678_9,
            metrics: SelectionMetrics::default(),
        };
        let out = "algorithm=FT+M+CI+DS budget=2 selected=2 flow=12.345679 time=1.0ms\n  \
                   edge 7: 1 -- 2 (p=0.5)\n  edge 3: 2 -- 3 (p=0.5)\n";
        assert!(matches(out, &answer));
        assert!(!matches(&out.replace("edge 7", "edge 8"), &answer));
        assert!(!matches(&out.replace("12.345679", "12.345678"), &answer));
        let swapped = "algorithm=x flow=12.345679\n  edge 3: a\n  edge 7: b\n";
        assert!(!matches(swapped, &answer));
    }
}
