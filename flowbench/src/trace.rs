//! Spans of the traced run and the self time computed from them.
//!
//! A span covers one call into a layer: its name (the layer, as
//! `layer.operation`), start and end in nanoseconds from the run's epoch,
//! the span that caused it, and the request it served. A layer's self time
//! is its spans' duration minus the part of each covered by child spans.

use std::collections::BTreeMap;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in its log.
    pub id: usize,
    /// The span that caused this one, if any.
    pub parent: Option<usize>,
    /// `layer.operation`, e.g. `core.selection.step`.
    pub name: &'static str,
    /// The request (query or input instance) the span served.
    pub request: u64,
    /// Start, in nanoseconds from the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds from the run's epoch (`≥ start_ns`).
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The span as one JSON object (one line of the span file).
    pub fn to_json(&self) -> String {
        let parent = self.parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            self.id, parent, self.name, self.request, self.start_ns, self.end_ns
        )
    }
}

/// Self time per span, in nanoseconds, indexed like `spans` (whose ids
/// must be their indices): each span's duration minus the length of the
/// union of its children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered.min(span.duration_ns())
        })
        .collect()
}

/// Self time summed per span name, in nanoseconds, in name order.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(span.name).or_insert(0) += own;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent.is_some() { "child" } else { "root" },
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),  // overlaps the first child
            span(3, Some(0), 90, 120), // runs past the parent's end
        ];
        let own = self_times(&spans);
        // Children cover [10, 50) and [90, 100): 50 ns of the parent's 100.
        assert_eq!(own, vec![50, 20, 30, 30]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], 50);
        assert_eq!(by_name["child"], 80);
    }

    #[test]
    fn span_json_names_every_field() {
        let json = span(1, Some(0), 5, 9).to_json();
        assert_eq!(
            json,
            "{\"id\":1,\"parent\":0,\"name\":\"child\",\"request\":0,\"start_ns\":5,\"end_ns\":9}"
        );
        assert!(span(0, None, 0, 1).to_json().contains("\"parent\":null"));
    }
}
