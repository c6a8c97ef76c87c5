//! The daemon workload: `flowmax-serve` with resident graphs, driven over
//! TCP by one client process with at most `threads` connections — first an
//! open loop on a seeded Poisson schedule, then a closed loop at
//! saturation. Every reply is checked against an in-process `FlowServer`
//! replay of the same queries.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use flowbench::openloop::{self, poisson_due_times, Record, Zipf};
use flowbench::{stats, Rng};
use flowmax::core::{Algorithm, FlowServer, QueryParams, ServeConfig, ServeEvent, ServeResult};
use flowmax::graph::{ProbabilisticGraph, VertexId};

use crate::inputs::{self, Dataset, Input, Setup};
use crate::ledger::{self, Ledger, Spec};
use crate::spans::Recorder;
use crate::{proc, Opts, Report};

/// How long the client waits for any one reply before it counts the
/// request as unanswered, so a hung daemon cannot hang the benchmark.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Queries in one pass of the closed loop, which repeats the same pass.
/// The measured machine's core speed switches between two levels every
/// second or so as other tenants come and go; repeating each query lets
/// the closed loop report each one's fastest answer rather than how much
/// of the loop fell on the slow level.
const CLOSED_CYCLE: usize = 240;

/// The query mix.
struct Mix {
    dijkstra_share: f64,
    dijkstra_budget: usize,
    greedy_budgets: &'static [usize],
    samples: u32,
}

/// A traffic scenario against resident graphs.
struct Scenario<'a> {
    inputs: Vec<&'a Input>,
    /// Query roots per graph, hottest first.
    roots: Vec<Vec<u32>>,
    mix: Mix,
    rate: f64,
    open_s: f64,
    closed_s: f64,
    /// Period of the `LOAD` writes in the open loop (none if 0).
    load_period_s: f64,
    /// Daemon set-ups timed before the measured phases, and as many after.
    setup_reps: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Solve {
        graph: usize,
        vertex: u32,
        algorithm: Algorithm,
        budget: usize,
        samples: u32,
    },
    Load {
        graph: usize,
    },
}

impl Op {
    fn line(&self, fingerprints: &[u64], inputs: &[&Input]) -> String {
        match *self {
            Op::Solve {
                graph,
                vertex,
                algorithm,
                budget,
                samples,
            } => format!(
                "SOLVE {:016x} query={vertex} budget={budget} algorithm={} samples={samples}\n",
                fingerprints[graph],
                algorithm.name()
            ),
            Op::Load { graph } => format!("LOAD {}\n", inputs[graph].path.display()),
        }
    }

    fn params(&self) -> Option<(usize, QueryParams)> {
        match *self {
            Op::Solve {
                graph,
                vertex,
                algorithm,
                budget,
                samples,
            } => Some((
                graph,
                QueryParams {
                    vertex: VertexId(vertex),
                    algorithm,
                    budget,
                    samples,
                    seed: None,
                    deadline_ms: None,
                },
            )),
            Op::Load { .. } => None,
        }
    }

    fn is_dijkstra(&self) -> bool {
        matches!(
            self,
            Op::Solve {
                algorithm: Algorithm::Dijkstra,
                ..
            }
        )
    }
}

fn draw_solve(rng: &mut Rng, zipf: &[Zipf], roots: &[Vec<u32>], mix: &Mix) -> Op {
    let graph = rng.below(roots.len());
    let vertex = roots[graph][zipf[graph].sample(rng)];
    let (algorithm, budget) = if rng.next_f64() < mix.dijkstra_share {
        (Algorithm::Dijkstra, mix.dijkstra_budget)
    } else {
        (
            Algorithm::FtMCiDs,
            mix.greedy_budgets[rng.below(mix.greedy_budgets.len())],
        )
    };
    Op::Solve {
        graph,
        vertex,
        algorithm,
        budget,
        samples: mix.samples,
    }
}

/// The closed loop's cycle: `len` queries holding each query class in its
/// share of the mix, spread evenly over the graphs, with roots at evenly
/// spaced quantiles of each graph's Zipf law, in a seeded random order. So
/// every seed's cycle has the same make-up and differs only in its graphs.
fn closed_cycle(
    rng: &mut Rng,
    zipf: &[Zipf],
    roots: &[Vec<u32>],
    mix: &Mix,
    len: usize,
) -> Vec<Op> {
    let dijkstra = (len as f64 * mix.dijkstra_share).round() as usize;
    let greedy = (len - dijkstra) / mix.greedy_budgets.len();
    let classes = std::iter::once((Algorithm::Dijkstra, mix.dijkstra_budget, dijkstra)).chain(
        mix.greedy_budgets
            .iter()
            .map(|&b| (Algorithm::FtMCiDs, b, greedy)),
    );
    let graphs = roots.len();
    let mut cycle = Vec::with_capacity(len);
    for (algorithm, budget, count) in classes {
        for k in 0..count {
            let graph = k % graphs;
            let per_graph = (count - graph).div_ceil(graphs);
            let q = ((k / graphs) as f64 + 0.5) / per_graph as f64;
            cycle.push(Op::Solve {
                graph,
                vertex: roots[graph][zipf[graph].rank_at(q)],
                algorithm,
                budget,
                samples: mix.samples,
            });
        }
    }
    for k in (1..cycle.len()).rev() {
        cycle.swap(k, rng.below(k + 1));
    }
    cycle
}

/// The open-loop schedule `(due seconds, op)` and the closed-loop stream:
/// one cycle of [`CLOSED_CYCLE`] queries, repeated.
fn schedule(sc: &Scenario, seed: u64) -> (Vec<(f64, Op)>, Vec<Op>) {
    let zipf: Vec<Zipf> = sc.roots.iter().map(|r| Zipf::new(r.len())).collect();
    let count = (sc.rate * sc.open_s).round() as usize;
    let dues = poisson_due_times(sc.rate, count, &mut Rng::new(seed, 1));
    let mut draws = Rng::new(seed, 2);
    let mut open: Vec<(f64, Op)> = dues
        .into_iter()
        .map(|due| (due, draw_solve(&mut draws, &zipf, &sc.roots, &sc.mix)))
        .collect();
    if sc.load_period_s > 0.0 {
        let mut k = 0;
        while (k as f64 + 0.5) * sc.load_period_s < sc.open_s {
            let graph = k % sc.inputs.len();
            open.push(((k as f64 + 0.5) * sc.load_period_s, Op::Load { graph }));
            k += 1;
        }
    }
    open.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Enough for any closed-loop throughput this machine can reach.
    let closed_count = (sc.closed_s * 5_000.0).ceil() as usize;
    let cycle = closed_cycle(
        &mut Rng::new(seed, 3),
        &zipf,
        &sc.roots,
        &sc.mix,
        CLOSED_CYCLE,
    );
    let closed = cycle.iter().copied().cycle().take(closed_count).collect();
    (open, closed)
}

/// The `n` highest-degree vertices, highest first; the first is
/// `suggest_query`'s choice.
pub fn top_degree(graph: &ProbabilisticGraph, n: usize) -> Vec<u32> {
    let mut vertices: Vec<VertexId> = graph.vertices().collect();
    vertices.sort_by_key(|&v| std::cmp::Reverse((graph.degree(v), v.0)));
    vertices.truncate(n);
    vertices.into_iter().map(|v| v.0).collect()
}

struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    port: u16,
}

impl Daemon {
    /// Starts `flowmax-serve` with room for `graphs` resident graphs.
    fn spawn(opts: &Opts, graphs: usize) -> Result<Daemon, String> {
        let mut child = Command::new(opts.bin_dir.join("flowmax-serve"))
            .args(["--port", "0", "--seed", &ledger::SEED.to_string()])
            .args(["--max-graphs", &graphs.to_string()])
            .args([
                "--threads",
                &opts.threads.to_string(),
                "--lanes",
                &opts.lanes.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn flowmax-serve: {e}"))?;
        let Some(stdout) = child.stdout.take() else {
            proc::stop(&mut child);
            return Err("flowmax-serve has no stdout".into());
        };
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let port = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("LISTENING ")?.parse().ok());
        match port {
            Some(port) => Ok(Daemon {
                child,
                _stdout: stdout,
                port,
            }),
            None => {
                proc::stop(&mut child);
                Err(format!("flowmax-serve did not report its port: {line:?}"))
            }
        }
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(("127.0.0.1", self.port))
            .map_err(|e| format!("cannot connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            stream,
            reader,
            partial: String::new(),
        })
    }

    /// Asks the daemon to stop and waits for it; dropping it kills it if
    /// it has not stopped.
    fn shutdown(mut self) {
        if let Ok(mut conn) = self.connect() {
            let _ = conn.request("SHUTDOWN\n");
        }
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            proc::stop(&mut self.child);
        }
    }
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// A reply line read only in part before a read timed out.
    partial: String,
}

impl Conn {
    fn send(&mut self, line: &str) -> Result<(), String> {
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))
    }

    /// The next complete reply line; `Ok(None)` if none arrived within the
    /// read timeout.
    fn next_line(&mut self) -> Result<Option<String>, String> {
        match self.reader.read_line(&mut self.partial) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) if self.partial.ends_with('\n') => {
                let line = self.partial.trim_end().to_string();
                self.partial.clear();
                Ok(Some(line))
            }
            Ok(_) => Ok(None),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
            Err(e) => Err(format!("read failed: {e}")),
        }
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        self.stream
            .set_read_timeout(Some(Duration::from_secs(1)))
            .map_err(|e| e.to_string())?;
        self.send(line)?;
        let start = Instant::now();
        while start.elapsed() < REPLY_TIMEOUT {
            if let Some(reply) = self.next_line()? {
                return Ok(reply);
            }
        }
        Err(format!(
            "no reply to {:?} within {REPLY_TIMEOUT:?}",
            line.trim_end()
        ))
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
struct Sent {
    op: usize,
    due: f64,
    sent: f64,
    done: Option<f64>,
    reply: String,
}

/// The open loop on one connection. Connections share the schedule: the
/// least-loaded connection claims each request when it falls due.
fn open_loop_conn(
    conn: &mut Conn,
    me: usize,
    schedule: &[(f64, Op)],
    lines: &[String],
    next: &AtomicUsize,
    outstanding: &[AtomicUsize],
    epoch: Instant,
) -> Vec<Sent> {
    let mut pending: VecDeque<Sent> = VecDeque::new();
    let mut done = Vec::new();
    let now = || epoch.elapsed().as_secs_f64();
    let give_up = schedule.last().map_or(0.0, |d| d.0) + REPLY_TIMEOUT.as_secs_f64();
    loop {
        if now() > give_up {
            done.extend(pending.drain(..));
            break;
        }
        loop {
            let j = next.load(Ordering::SeqCst);
            if j >= schedule.len() || schedule[j].0 > now() {
                break;
            }
            let mine = outstanding[me].load(Ordering::SeqCst);
            if outstanding.iter().any(|o| o.load(Ordering::SeqCst) < mine) {
                break;
            }
            if next
                .compare_exchange(j, j + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                let sent = now();
                if conn.send(&lines[j]).is_err() {
                    done.push(Sent {
                        op: j,
                        due: schedule[j].0,
                        sent,
                        done: None,
                        reply: String::new(),
                    });
                    continue;
                }
                outstanding[me].fetch_add(1, Ordering::SeqCst);
                pending.push_back(Sent {
                    op: j,
                    due: schedule[j].0,
                    sent,
                    done: None,
                    reply: String::new(),
                });
            }
        }
        let j = next.load(Ordering::SeqCst);
        if pending.is_empty() && j >= schedule.len() {
            break;
        }
        // Wait for a reply, but no longer than until the next request is due.
        let until_due = schedule.get(j).map_or(1.0, |d| d.0 - now());
        let wait = Duration::from_secs_f64(until_due.clamp(0.000_2, 0.001));
        let _ = conn.stream.set_read_timeout(Some(wait));
        match conn.next_line() {
            Ok(Some(reply)) => {
                if let Some(mut s) = pending.pop_front() {
                    s.done = Some(now());
                    s.reply = reply;
                    outstanding[me].fetch_sub(1, Ordering::SeqCst);
                    done.push(s);
                }
            }
            Ok(None) => {}
            Err(_) => {
                // The connection is gone: everything on it is unanswered.
                done.extend(pending.drain(..));
                outstanding[me].store(usize::MAX / 2, Ordering::SeqCst);
                if next.load(Ordering::SeqCst) >= schedule.len() {
                    break;
                }
            }
        }
    }
    done
}

/// The closed loop on one connection: the next request goes out when the
/// previous one is answered, until `until`.
fn closed_loop_conn(
    conn: &mut Conn,
    ops: &[String],
    next: &AtomicUsize,
    epoch: Instant,
    until: f64,
) -> Vec<Sent> {
    let mut done = Vec::new();
    let now = || epoch.elapsed().as_secs_f64();
    while now() < until {
        let j = next.fetch_add(1, Ordering::SeqCst);
        if j >= ops.len() {
            break;
        }
        let sent = now();
        let reply = conn.request(&ops[j]);
        let answered = reply.is_ok();
        done.push(Sent {
            op: j,
            due: sent,
            sent,
            done: answered.then(now),
            reply: reply.unwrap_or_default(),
        });
        if !answered {
            break;
        }
    }
    done
}

/// The daemon's reply line for a served result, as `flowmax-serve`
/// formats it.
fn result_line(result: &ServeResult) -> String {
    let edges: Vec<String> = result.selected.iter().map(|e| e.to_string()).collect();
    format!(
        "OK RESULT flow={} algorithm_flow={} seed={} edges={}",
        result.flow,
        result.algorithm_flow,
        result.params.seed.unwrap_or_default(),
        edges.join(",")
    )
}

fn server_config(opts: &Opts, graphs: usize, queue_capacity: usize) -> ServeConfig {
    ServeConfig {
        threads: opts.threads,
        lane_words: opts.lanes,
        seed: ledger::SEED,
        max_resident_graphs: graphs,
        queue_capacity,
        ..ServeConfig::default()
    }
}

/// The in-process oracle: every distinct query answered by a `FlowServer`
/// over the same graphs, keyed by `(graph, params)` text.
fn replay_oracle(
    opts: &Opts,
    graphs: &[ProbabilisticGraph],
    ops: &[Op],
) -> Result<BTreeMap<String, ServeResult>, String> {
    let mut distinct: BTreeMap<String, (usize, QueryParams)> = BTreeMap::new();
    for op in ops {
        if let Some((graph, params)) = op.params() {
            distinct.insert(format!("{op:?}"), (graph, params));
        }
    }
    let server = FlowServer::new(server_config(opts, graphs.len(), distinct.len().max(1)));
    let fingerprints: Vec<u64> = graphs
        .iter()
        .map(|g| server.load_graph(g.clone()))
        .collect();
    let mut tickets = Vec::with_capacity(distinct.len());
    for (key, (graph, params)) in distinct {
        let ticket = server
            .submit(fingerprints[graph], params)
            .map_err(|e| format!("replay refused {key}: {e}"))?;
        tickets.push((key, ticket));
    }
    let mut results = BTreeMap::new();
    for (key, ticket) in tickets {
        let result = ticket
            .wait()
            .map_err(|e| format!("replay of {key} failed: {e}"))?;
        results.insert(key, result);
    }
    Ok(results)
}

/// Times of one in-process served request, from its submission.
struct Served {
    op: usize,
    submit: Instant,
    admitted: Instant,
    first_event: Option<Instant>,
    terminal: Instant,
    ok: bool,
}

/// Replays the open-loop schedule's queries in-process against a
/// `FlowServer` configured like the daemon, submitting each at its due
/// time, and times admission, wait and completion.
fn scheduled_replay(
    opts: &Opts,
    graphs: &[ProbabilisticGraph],
    schedule: &[(f64, Op)],
) -> (Vec<Served>, flowmax::core::ServeStats) {
    let server = FlowServer::new(server_config(
        opts,
        graphs.len(),
        ServeConfig::default().queue_capacity,
    ));
    let fingerprints: Vec<u64> = graphs
        .iter()
        .map(|g| server.load_graph(g.clone()))
        .collect();
    let epoch = Instant::now();
    let mut served = Vec::new();
    // flowmax-lint: allow(L2, one waiter per in-flight ticket so each request's first and last event are timed as they arrive; answers come from the library's own pool)
    std::thread::scope(|scope| {
        let mut waiters = Vec::new();
        for (j, (due, op)) in schedule.iter().enumerate() {
            let Some((graph, params)) = op.params() else {
                continue;
            };
            let due = epoch + Duration::from_secs_f64(*due);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let submit = Instant::now();
            let Ok((ticket, _cancel)) = server.submit_cancellable(fingerprints[graph], params)
            else {
                let now = Instant::now();
                served.push(Served {
                    op: j,
                    submit,
                    admitted: now,
                    first_event: None,
                    terminal: now,
                    ok: false,
                });
                continue;
            };
            let admitted = Instant::now();
            waiters.push(scope.spawn(move || {
                let mut first_event = None;
                loop {
                    let event = ticket.next_event();
                    let now = Instant::now();
                    first_event.get_or_insert(now);
                    match event {
                        Some(ServeEvent::Step(_)) => continue,
                        Some(ServeEvent::Done(_)) => {
                            return Served {
                                op: j,
                                submit,
                                admitted,
                                first_event,
                                terminal: now,
                                ok: true,
                            }
                        }
                        _ => {
                            return Served {
                                op: j,
                                submit,
                                admitted,
                                first_event,
                                terminal: now,
                                ok: false,
                            }
                        }
                    }
                }
            }));
        }
        for waiter in waiters {
            if let Ok(s) = waiter.join() {
                served.push(s);
            }
        }
    });
    let stats = server.stats();
    (served, stats)
}

/// Starts a daemon and loads the scenario's graphs into it: the daemon,
/// the seconds of each step (spawn to `LISTENING`, then each `LOAD`), and
/// the `LOAD` replies.
fn set_up_daemon(
    sc: &Scenario,
    opts: &Opts,
    rec: &mut Recorder,
    rep: usize,
) -> Result<(Daemon, Vec<f64>, Vec<String>), String> {
    let start = Instant::now();
    let d = Daemon::spawn(opts, sc.inputs.len())?;
    let listening = Instant::now();
    let mut steps = vec![(listening - start).as_secs_f64()];
    let mut conn = d.connect()?;
    let mut replies = Vec::new();
    for input in &sc.inputs {
        let sent = Instant::now();
        replies.push(conn.request(&format!("LOAD {}\n", input.path.display()))?);
        steps.push(sent.elapsed().as_secs_f64());
    }
    let end = Instant::now();
    let root = rec.record("bin.serve.setup", None, rep as u64, start, end);
    rec.record("bin.serve.spawn", root, rep as u64, start, listening);
    rec.record("bin.serve.load", root, rep as u64, listening, end);
    Ok((d, steps, replies))
}

/// Runs `sc` and reports its metrics: the end-to-end ones when `e2e`,
/// and the serving layers' ones when tracing.
fn run_scenario(
    sc: &Scenario,
    graphs: &[ProbabilisticGraph],
    opts: &Opts,
    rec: &mut Recorder,
    report: &mut Report,
    e2e: bool,
) -> Result<(), String> {
    let (open, closed) = schedule(sc, opts.seed);

    // Set-up: spawn to LISTENING plus the initial LOADs, timed several
    // times before the measured phases and as many times after them, since
    // the machine's speed drifts over seconds. The last daemon started
    // before the phases serves them.
    let mut steps: Vec<Vec<f64>> = vec![Vec::new(); 1 + sc.inputs.len()];
    let mut daemon = None;
    let mut load_replies = Vec::new();
    for rep in 0..sc.setup_reps {
        let (d, secs, replies) = set_up_daemon(sc, opts, rec, rep)?;
        steps.iter_mut().zip(secs).for_each(|(t, s)| t.push(s));
        load_replies.extend(replies);
        if let Some(previous) = daemon.replace(d) {
            previous.shutdown();
        }
    }
    let Some(daemon) = daemon else {
        return Err("no set-up repetitions".into());
    };
    let fingerprints = load_replies[load_replies.len() - sc.inputs.len()..]
        .iter()
        .map(|r| {
            r.strip_prefix("OK LOADED ")
                .and_then(|r| r.split_whitespace().next())
                .and_then(|fp| u64::from_str_radix(fp, 16).ok())
                .ok_or_else(|| format!("LOAD failed: {r}"))
        })
        .collect::<Result<Vec<u64>, String>>()?;

    // The measured phases, from one client with `threads` connections.
    let lines: Vec<String> = open
        .iter()
        .map(|(_, op)| op.line(&fingerprints, &sc.inputs))
        .collect();
    let closed_lines: Vec<String> = closed
        .iter()
        .map(|op| op.line(&fingerprints, &sc.inputs))
        .collect();
    let mut conns = (0..opts.threads)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<Conn>, String>>()?;
    let next = AtomicUsize::new(0);
    let outstanding: Vec<AtomicUsize> = (0..conns.len()).map(|_| AtomicUsize::new(0)).collect();
    let epoch = Instant::now();
    let mut open_sent: Vec<Sent> = Vec::new();
    // flowmax-lint: allow(L2, the load generator runs one client thread per connection, at most as many as cores)
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(me, conn)| {
                let (open, lines, next, outstanding) = (&open, &lines, &next, &outstanding);
                scope.spawn(move || open_loop_conn(conn, me, open, lines, next, outstanding, epoch))
            })
            .collect();
        for h in handles {
            open_sent.extend(h.join().unwrap_or_default());
        }
    });
    let closed_next = AtomicUsize::new(0);
    let closed_epoch = Instant::now();
    let mut closed_sent: Vec<Sent> = Vec::new();
    // flowmax-lint: allow(L2, the load generator runs one client thread per connection, at most as many as cores)
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (lines, next) = (&closed_lines, &closed_next);
                scope.spawn(move || closed_loop_conn(conn, lines, next, closed_epoch, sc.closed_s))
            })
            .collect();
        for h in handles {
            closed_sent.extend(h.join().unwrap_or_default());
        }
    });
    let closed_wall = closed_epoch.elapsed().as_secs_f64();
    let peak_kb = proc::peak_rss_kb(daemon.child.id()).unwrap_or(0);
    drop(conns);
    daemon.shutdown();
    for rep in sc.setup_reps..2 * sc.setup_reps {
        let (d, secs, replies) = set_up_daemon(sc, opts, rec, rep)?;
        steps.iter_mut().zip(secs).for_each(|(t, s)| t.push(s));
        load_replies.extend(replies);
        d.shutdown();
    }
    open_sent.sort_by_key(|s| s.op);

    // The oracle: every reply against the in-process replay.
    let open_ops: Vec<Op> = open.iter().map(|(_, op)| *op).collect();
    let all_ops: Vec<Op> = open_ops
        .iter()
        .copied()
        .chain(closed_sent.iter().map(|s| closed[s.op]))
        .collect();
    let expected = replay_oracle(opts, graphs, &all_ops)?;
    let initial = sc.inputs.iter().zip(graphs).cycle();
    for ((input, graph), reply) in initial.zip(&load_replies) {
        let want = format!(
            "OK LOADED {:016x} vertices={} edges={}",
            graph.fingerprint(),
            input.vertices,
            input.edges
        );
        report.check(*reply == want, || {
            format!("LOAD reply {reply:?}, expected {want:?}")
        });
    }
    let verdict = |op: &Op, reply: &str, report: &mut Report| -> bool {
        if reply.starts_with("ERR") {
            report.operation(false);
            return false;
        }
        let want = match op {
            Op::Load { graph } => format!(
                "OK LOADED {:016x} vertices={} edges={}",
                fingerprints[*graph], sc.inputs[*graph].vertices, sc.inputs[*graph].edges
            ),
            Op::Solve { .. } => expected
                .get(&format!("{op:?}"))
                .map(result_line)
                .unwrap_or_default(),
        };
        let ok = reply == want;
        report.check(ok, || {
            format!("daemon replied {reply:?} to {op:?}, replay says {want:?}")
        });
        ok
    };
    // SOLVE records for latency and goodput; LOADs too for the backlog,
    // since a LOAD holds its connection like any request.
    let mut records = Vec::with_capacity(open_sent.len());
    let mut all_records = Vec::with_capacity(open_sent.len());
    let mut load_ms = Vec::new();
    let mut flows = Vec::new();
    let mut service_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for s in &open_sent {
        let op = open_ops[s.op];
        let ok = match s.done {
            Some(_) => verdict(&op, &s.reply, report),
            None => {
                report.operation(false);
                false
            }
        };
        let record = Record {
            due: s.due,
            sent: s.sent,
            done: s.done,
            ok,
        };
        all_records.push(record);
        if matches!(op, Op::Solve { .. }) {
            records.push(record);
        }
        if let (Some(done), true) = (s.done, ok) {
            match op {
                Op::Load { .. } => load_ms.push((done - s.due) * 1e3),
                Op::Solve { .. } => {
                    flows.push(expected[&format!("{op:?}")].flow);
                    service_ms[usize::from(op.is_dijkstra())].push((done - s.sent) * 1e3);
                }
            }
        }
    }
    // Per query of the closed loop's cycle, its fastest answer.
    let mut fastest_ms: Vec<Option<f64>> = vec![None; CLOSED_CYCLE];
    let mut closed_ok = 0;
    for s in &closed_sent {
        match s.done {
            Some(done) if verdict(&closed[s.op], &s.reply, report) => {
                closed_ok += 1;
                let ms = (done - s.sent) * 1e3;
                let best = &mut fastest_ms[s.op % CLOSED_CYCLE];
                *best = Some(best.map_or(ms, |b| b.min(ms)));
            }
            Some(_) => {}
            None => report.operation(false),
        }
    }
    let fastest_ms: Vec<f64> = fastest_ms.into_iter().flatten().collect();
    let passes = closed_ok / CLOSED_CYCLE;
    let summary = openloop::summarize(&records, opts.latency_limit_ms);
    // The open loop lasts until its last reply.
    let open_wall = open_sent
        .iter()
        .filter_map(|s| s.done)
        .fold(0.0, f64::max)
        .max(f64::EPSILON);
    println!(
        "open loop: {} due at {} /s over {} s, sent {}, succeeded {}, failed {}; \
         closed loop: sent {}, succeeded {} over {closed_wall:.3} s, {} passes over {CLOSED_CYCLE} queries",
        open.len(),
        sc.rate,
        sc.open_s,
        summary.attempted,
        summary.succeeded,
        summary.failed,
        closed_sent.len(),
        closed_ok,
        passes
    );
    // Reported, not gated: with two serial connections and a heavy-tailed
    // service time, open-loop latency moves by a third between runs of one
    // input. `goodput_qps` gates it against the latency limit instead.
    let lat = &summary.latencies_ms;
    let (p99, p99_at) = stats::tail_or_max(lat).unwrap_or((0.0, 0.0));
    println!(
        "latency_p50_ms = {} ms, latency_p99_ms = {p99} ms (reported at p{p99_at}), n={}",
        stats::median(lat).unwrap_or(0.0),
        lat.len()
    );
    if e2e {
        // Each set-up step at its fastest, for the reason the closed loop
        // repeats its queries (see `CLOSED_CYCLE`): the fastest spawn plus
        // each graph's fastest `LOAD`.
        report.e2e(
            "setup_s",
            "s",
            steps.iter().filter_map(|t| stats::min(t)).sum(),
            2 * sc.setup_reps,
        );
        // The geometric mean over the cycle's queries of each one's fastest
        // answer: the cycle mixes query classes whose costs differ tenfold,
        // and a median would jump between them.
        report.e2e(
            "solve_s",
            "s",
            stats::geomean(&fastest_ms).unwrap_or(0.0) / 1e3,
            fastest_ms.len(),
        );
        report.e2e(
            "flow",
            "flow",
            stats::mean(&flows).unwrap_or(0.0),
            flows.len(),
        );
        report.e2e("peak_rss_mb", "MB", peak_kb as f64 / 1024.0, 1);
        report.e2e(
            "goodput_qps",
            "1/s",
            summary.within_limit as f64 / open_wall,
            summary.attempted,
        );
        // Little's law for the closed loop, with every connection always
        // waiting on one query: throughput = connections / mean response
        // time, here of each cycle query's fastest answer.
        report.e2e(
            "saturation_qps",
            "1/s",
            opts.threads as f64 * 1e3 / stats::mean(&fastest_ms).unwrap_or(f64::INFINITY),
            fastest_ms.len(),
        );
    }
    // Reported, not gated: a LOAD is a memory-bound parse whose time drifts
    // with the machine's load more than any other figure here.
    if !load_ms.is_empty() {
        println!(
            "load_p50_ms = {} ms (n={}), from each LOAD's scheduled time",
            stats::median(&load_ms).unwrap_or(0.0),
            load_ms.len()
        );
    }
    if !opts.trace {
        return Ok(());
    }

    let (served, serve_stats) = scheduled_replay(opts, graphs, &open);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut admit_us = Vec::new();
    let mut waits = Vec::new();
    let mut totals = Vec::new();
    for s in &served {
        let root = rec.record(
            "core.serve.request",
            None,
            s.op as u64,
            s.submit,
            s.terminal,
        );
        rec.record("core.serve.admit", root, s.op as u64, s.submit, s.admitted);
        let first = s.first_event.unwrap_or(s.terminal);
        rec.record("core.serve.wait", root, s.op as u64, s.admitted, first);
        rec.record("core.serve.finish", root, s.op as u64, first, s.terminal);
        admit_us.push(ms(s.admitted - s.submit) * 1e3);
        if s.ok {
            waits.push(ms(first - s.submit));
            totals.push(ms(s.terminal - s.submit));
        }
    }
    let tail = |v: &[f64]| stats::tail_or_max(v).map_or(0.0, |t| t.0);
    let total_p50 = stats::median(&totals).unwrap_or(0.0);
    report.layer(
        "core.serve.admit_us",
        "us",
        stats::median(&admit_us).unwrap_or(0.0),
        admit_us.len(),
    );
    report.layer(
        "core.serve.wait_p50_ms",
        "ms",
        stats::median(&waits).unwrap_or(0.0),
        waits.len(),
    );
    report.layer("core.serve.wait_p99_ms", "ms", tail(&waits), waits.len());
    report.layer("core.serve.total_p50_ms", "ms", total_p50, totals.len());
    report.layer("core.serve.total_p99_ms", "ms", tail(&totals), totals.len());
    report.layer("core.serve.batches", "count", serve_stats.batches as f64, 1);
    report.layer(
        "core.serve.coalesce_ratio",
        "ratio",
        serve_stats.completed as f64 / serve_stats.batches.max(1) as f64,
        1,
    );
    report.layer(
        "core.serve.rejected",
        "count",
        serve_stats.rejected as f64,
        1,
    );
    let [greedy, dijkstra] = &service_ms;
    let all_service: Vec<f64> = greedy.iter().chain(dijkstra).copied().collect();
    report.layer(
        "bin.serve.dijkstra_p50_ms",
        "ms",
        stats::median(dijkstra).unwrap_or(0.0),
        dijkstra.len(),
    );
    report.layer(
        "bin.serve.dijkstra_p99_ms",
        "ms",
        tail(dijkstra),
        dijkstra.len(),
    );
    report.layer(
        "bin.serve.greedy_p50_ms",
        "ms",
        stats::median(greedy).unwrap_or(0.0),
        greedy.len(),
    );
    report.layer("bin.serve.greedy_p99_ms", "ms", tail(greedy), greedy.len());
    report.layer(
        "bin.serve.overhead_p50_ms",
        "ms",
        stats::median(&all_service).unwrap_or(0.0) - total_p50,
        all_service.len(),
    );
    report.layer(
        "client.gen_lag_p99_ms",
        "ms",
        openloop::gen_lag_tail_ms(&summary),
        summary.gen_lag_ms.len(),
    );
    report.layer(
        "client.backlog_max",
        "count",
        openloop::backlog_max(&all_records) as f64,
        all_records.len(),
    );
    Ok(())
}

/// `serve_mixed`: erdos and preferential graphs resident, a Zipf mix of
/// Dijkstra and greedy queries with periodic `LOAD` writes.
pub fn run_mixed(opts: &Opts, rec: &mut Recorder, report: &mut Report) -> Result<(), String> {
    let dir = opts.work_dir.join("inputs");
    // Six graphs of each kind: the cost of a query mix varies with the
    // graphs drawn from the seed (b=200 greedy queries on one seed's graphs
    // cost 1.4 times those on another's), and more graphs per run average
    // it out.
    let datasets = [
        Dataset::Erdos {
            vertices: 50_000,
            degree: 6.0,
        },
        Dataset::Preferential { vertices: 50_000 },
    ];
    let per_kind = 6;
    let inputs = (0..2 * per_kind)
        .map(|i| {
            inputs::ensure(
                &dir,
                datasets[i % 2],
                flowbench::instance_seed(opts.seed, i),
                per_kind,
            )
        })
        .collect::<Result<Vec<Input>, String>>()?;
    let mut graphs = Vec::new();
    let mut setups = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        println!("{}", input.describe());
        let (graph, setup) = inputs::set_up(input, rec, "serve.graph_setup", i as u64)?;
        graphs.push(graph);
        setups.push(setup);
    }
    let roots: Vec<Vec<u32>> = graphs.iter().map(|g| top_degree(g, 96)).collect();
    let open_s = opts.seconds * 0.6;
    let sc = Scenario {
        inputs: inputs.iter().collect(),
        roots,
        mix: Mix {
            dijkstra_share: 0.3,
            dijkstra_budget: 100,
            greedy_budgets: &[20, 50, 100, 200],
            samples: 1000,
        },
        rate: opts.rate,
        open_s,
        closed_s: opts.seconds - open_s,
        load_period_s: 0.5,
        setup_reps: 6,
    };
    run_scenario(&sc, &graphs, opts, rec, report, true)?;
    if !opts.trace {
        return Ok(());
    }

    // The library layers under the served queries: every distinct query of
    // the open loop, once, through `Session`.
    let mean_of = |f: fn(&Setup) -> f64| {
        stats::mean(&setups.iter().map(f).collect::<Vec<f64>>()).unwrap_or(0.0)
    };
    let n = setups.len();
    report.layer(
        "graph.io.parse_s",
        "s",
        mean_of(|s| s.parse.as_secs_f64()),
        n,
    );
    report.layer("graph.io.mb_per_s", "MB/s", mean_of(Setup::mb_per_s), n);
    report.layer(
        "core.session.setup_s",
        "s",
        mean_of(|s| s.session.as_secs_f64()),
        n,
    );
    let (open, _) = schedule(&sc, opts.seed);
    let mut distinct: Vec<(usize, Spec)> = Vec::new();
    for (_, op) in &open {
        if let Op::Solve {
            graph,
            vertex,
            algorithm,
            budget,
            samples,
        } = *op
        {
            let spec = Spec {
                query: vertex,
                algorithm,
                budget,
                samples,
            };
            if !distinct.contains(&(graph, spec)) {
                distinct.push((graph, spec));
            }
        }
    }
    let mut ledger = Ledger::default();
    let mut traced = Duration::ZERO;
    let mut untraced = Duration::ZERO;
    let mut kernel = 0.0;
    for (i, &(graph, spec)) in distinct.iter().enumerate() {
        let start = Instant::now();
        let root = rec.open("serve.query", None, i as u64);
        let answer = ledger::traced_solve(
            &graphs[graph],
            spec,
            opts.threads,
            opts.lanes,
            rec,
            root,
            i as u64,
            &mut ledger,
        )?;
        rec.close(root);
        if i < 32 {
            traced += start.elapsed();
            let start = Instant::now();
            ledger::solve(&graphs[graph], spec, opts.threads, opts.lanes)?;
            untraced += start.elapsed();
        }
        if kernel == 0.0 && spec.algorithm != Algorithm::Dijkstra && spec.budget >= 100 {
            kernel = ledger::kernel_edge_samples_per_s(
                &graphs[graph],
                spec.query,
                &answer,
                spec.samples,
                opts.threads,
                opts.lanes,
                Duration::from_millis(300),
            );
        }
    }
    println!("ledger pass over {} distinct queries", distinct.len());
    report.per_layer.extend(ledger.metrics());
    report.layer("sampling.kernel_edge_samples_per_s", "1/s", kernel, 1);
    report.layer(
        "trace.overhead_s",
        "s",
        traced.as_secs_f64() - untraced.as_secs_f64(),
        32.min(distinct.len()),
    );
    Ok(())
}

/// The serving layers on a CLI workload's graph, for its traced run: a
/// short, light version of `serve_mixed` against that one graph.
pub fn probe(
    opts: &Opts,
    input: &Input,
    roots: Vec<u32>,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<(), String> {
    let (graph, _) = inputs::set_up(input, rec, "serve.probe_setup", 0)?;
    let sc = Scenario {
        inputs: vec![input],
        roots: vec![roots],
        mix: Mix {
            dijkstra_share: 0.3,
            dijkstra_budget: 20,
            greedy_budgets: &[5, 10],
            samples: 1000,
        },
        rate: 50.0,
        open_s: 2.0,
        closed_s: 0.5,
        load_period_s: 0.0,
        setup_reps: 1,
    };
    run_scenario(&sc, &[graph], opts, rec, report, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_draws_a_cycle_of_the_same_make_up() {
        let mix = Mix {
            dijkstra_share: 0.3,
            dijkstra_budget: 100,
            greedy_budgets: &[20, 50, 100, 200],
            samples: 1000,
        };
        let roots: Vec<Vec<u32>> = (0..8)
            .map(|g| (0..96).map(|r| g * 1000 + r).collect())
            .collect();
        let zipf: Vec<Zipf> = roots.iter().map(|r| Zipf::new(r.len())).collect();
        let make_up = |seed| {
            let mut classes: BTreeMap<String, usize> = BTreeMap::new();
            for op in closed_cycle(&mut Rng::new(seed, 3), &zipf, &roots, &mix, CLOSED_CYCLE) {
                let Op::Solve {
                    graph,
                    vertex,
                    algorithm,
                    budget,
                    ..
                } = op
                else {
                    panic!("the cycle holds only SOLVEs");
                };
                let rank = vertex - graph as u32 * 1000;
                *classes
                    .entry(format!("{} {budget} g{graph} r{rank}", algorithm.name()))
                    .or_default() += 1;
            }
            classes
        };
        let first = make_up(1);
        assert_eq!(first.values().sum::<usize>(), CLOSED_CYCLE);
        let dijkstra: usize = first
            .iter()
            .filter(|(k, _)| k.starts_with("Dijkstra"))
            .map(|(_, n)| n)
            .sum();
        assert_eq!(dijkstra, 72);
        assert_eq!(first, make_up(2));
        let order = |seed| closed_cycle(&mut Rng::new(seed, 3), &zipf, &roots, &mix, 240);
        assert_ne!(order(1), order(2));
    }
}
