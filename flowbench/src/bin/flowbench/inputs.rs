//! Workload inputs: graph files generated from the workload seed with the
//! in-repo `flowmax_datasets` generators, cached on disk keyed by
//! (dataset, size, seed) so generation is never timed.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use flowmax::datasets::{suggest_query, ErdosConfig, PreferentialConfig, WsnConfig};
use flowmax::graph::{io as gio, ProbabilisticGraph};

use crate::spans::Recorder;

/// Bytes of cached files kept per (dataset, size), beyond the files the
/// current run uses; older files are deleted so many seeds do not fill the
/// disk.
const CACHE_BYTES_PER_DATASET: u64 = 512 << 20;

#[derive(Debug, Clone, Copy)]
pub enum Dataset {
    Erdos { vertices: usize, degree: f64 },
    Wsn { vertices: usize, epsilon: f64 },
    Preferential { vertices: usize },
}

impl Dataset {
    fn key(&self) -> String {
        match *self {
            Dataset::Erdos { vertices, degree } => format!("erdos-d{degree}-n{vertices}"),
            Dataset::Wsn { vertices, epsilon } => format!("wsn-e{epsilon}-n{vertices}"),
            Dataset::Preferential { vertices } => format!("preferential-n{vertices}"),
        }
    }

    fn generate(&self, seed: u64) -> ProbabilisticGraph {
        match *self {
            Dataset::Erdos { vertices, degree } => {
                ErdosConfig::paper(vertices, degree).generate(seed)
            }
            Dataset::Wsn { vertices, epsilon } => {
                WsnConfig::paper(vertices, epsilon).generate(seed).graph
            }
            Dataset::Preferential { vertices } => {
                PreferentialConfig::paper_scaled(vertices).generate(seed)
            }
        }
    }
}

/// One generated graph file and what the results record about it.
#[derive(Debug, Clone)]
pub struct Input {
    pub key: String,
    pub seed: u64,
    pub path: PathBuf,
    pub bytes: u64,
    pub vertices: usize,
    pub edges: usize,
    /// The query vertex, from `suggest_query`.
    pub query: u32,
}

impl Input {
    pub fn describe(&self) -> String {
        format!(
            "input {} seed={} bytes={} vertices={} edges={} query={}",
            self.key, self.seed, self.bytes, self.vertices, self.edges, self.query
        )
    }
}

/// The input for `dataset` at `seed`, generated on first use. Eviction
/// keeps at least the `in_use` most recently used files of the dataset.
pub fn ensure(dir: &Path, dataset: Dataset, seed: u64, in_use: usize) -> Result<Input, String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let key = dataset.key();
    let path = dir.join(format!("{key}-s{seed}.txt"));
    let meta_path = dir.join(format!("{key}-s{seed}.meta"));
    if let Some(input) = read_meta(&meta_path, &key, seed, &path) {
        // Refresh the file's age so eviction keeps recently used inputs.
        if let Ok(file) = fs::File::options().append(true).open(&path) {
            let _ = file.set_modified(std::time::SystemTime::now());
        }
        return Ok(input);
    }
    let graph = dataset.generate(seed);
    let query = suggest_query(&graph).0;
    let tmp = dir.join(format!("{key}-s{seed}.tmp"));
    let fail = |e: std::io::Error| format!("cannot write {}: {e}", tmp.display());
    let mut out = BufWriter::new(fs::File::create(&tmp).map_err(fail)?);
    gio::write_text(&graph, &mut out).map_err(fail)?;
    out.flush().map_err(fail)?;
    // Finish the write-back now, so it does not compete with the timed
    // part of the run.
    out.get_ref().sync_all().map_err(fail)?;
    drop(out);
    fs::rename(&tmp, &path).map_err(fail)?;
    let bytes = fs::metadata(&path).map_err(fail)?.len();
    let input = Input {
        key: key.clone(),
        seed,
        path,
        bytes,
        vertices: graph.vertex_count(),
        edges: graph.edge_count(),
        query,
    };
    let meta = format!(
        "{} {} {} {}\n",
        input.bytes, input.vertices, input.edges, input.query
    );
    fs::write(&meta_path, meta)
        .map_err(|e| format!("cannot write {}: {e}", meta_path.display()))?;
    evict(dir, &key, in_use);
    Ok(input)
}

fn read_meta(meta_path: &Path, key: &str, seed: u64, path: &Path) -> Option<Input> {
    let text = fs::read_to_string(meta_path).ok()?;
    let fields: Vec<u64> = text
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    let [bytes, vertices, edges, query] = fields[..] else {
        return None;
    };
    (fs::metadata(path).ok()?.len() == bytes).then(|| Input {
        key: key.to_string(),
        seed,
        path: path.to_path_buf(),
        bytes,
        vertices: vertices as usize,
        edges: edges as usize,
        query: query as u32,
    })
}

/// Deletes the least recently used files of one dataset key beyond the
/// newest `in_use` ones, until the rest fit in [`CACHE_BYTES_PER_DATASET`].
fn evict(dir: &Path, key: &str, in_use: usize) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let prefix = format!("{key}-s");
    let mut files: Vec<(std::time::SystemTime, u64, PathBuf)> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".txt")
                && name
                    .strip_prefix(&prefix)
                    .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
        })
        .filter_map(|p| {
            let meta = fs::metadata(&p).ok()?;
            Some((meta.modified().ok()?, meta.len(), p))
        })
        .collect();
    files.sort_by_key(|f| std::cmp::Reverse(f.0));
    let mut kept_bytes = 0;
    for (rank, (_, bytes, path)) in files.into_iter().enumerate() {
        kept_bytes += bytes;
        if rank >= in_use && kept_bytes > CACHE_BYTES_PER_DATASET {
            let _ = fs::remove_file(path.with_extension("meta"));
            let _ = fs::remove_file(path);
        }
    }
}

/// Times of one set-up: file read, `read_text`, `Session::new`.
pub struct Setup {
    pub read: Duration,
    pub parse: Duration,
    pub session: Duration,
    pub bytes: u64,
}

impl Setup {
    pub fn total(&self) -> Duration {
        self.read + self.parse + self.session
    }

    pub fn mb_per_s(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.parse.as_secs_f64()
    }
}

/// Reads a graph file, parses it with `read_text` and builds a `Session`
/// on it, as a program does before its first query, with one span per step
/// under a `root` span. Only `read_text` counts as `graph.io`; the file
/// read is timed on its own.
pub fn set_up(
    input: &Input,
    rec: &mut Recorder,
    root: &'static str,
    request: u64,
) -> Result<(ProbabilisticGraph, Setup), String> {
    let path = &input.path;
    let start = Instant::now();
    let bytes = fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let parse_start = Instant::now();
    let graph =
        gio::read_text(&bytes[..]).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    let session_start = Instant::now();
    std::hint::black_box(flowmax::core::Session::new(&graph));
    let end = Instant::now();
    let root = rec.record(root, None, request, start, end);
    rec.record("file.read", root, request, start, parse_start);
    rec.record(
        "graph.io.read_text",
        root,
        request,
        parse_start,
        session_start,
    );
    rec.record("core.session.new", root, request, session_start, end);
    let setup = Setup {
        read: parse_start - start,
        parse: session_start - parse_start,
        session: end - session_start,
        bytes: input.bytes,
    };
    Ok((graph, setup))
}
