//! The in-memory span recorder of the traced run.
//!
//! Spans are only kept when tracing is on; an untraced run records nothing
//! and pays only a branch. The log is written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use flowbench::trace::Span;

pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id (`None` when tracing is
    /// off, so children of an unrecorded span stay unrecorded).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(id)
    }

    /// Opens a span now; [`close`](Recorder::close) sets its end.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the span log as JSON lines.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let fail = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
        for span in &self.spans {
            writeln!(out, "{}", span.to_json()).map_err(fail)?;
        }
        out.flush().map_err(fail)
    }
}
