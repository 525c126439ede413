//! In-memory span recorder for the traced run: name, start, end and parent
//! of each span, relative to one process-wide epoch, written out as JSON
//! when the run ends.

use seo_core::json::Json;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran (`engine.pass`, `sink`, `shadow.cell`, …).
    pub name: String,
    /// Start, ns after the trace epoch.
    pub start_ns: u64,
    /// End, ns after the trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Trace::spans`].
    pub parent: Option<usize>,
}

/// The span list of one run.
pub struct Trace {
    epoch: Instant,
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Offset of `at` from the epoch, in ns.
    pub fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            name: name.into(),
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records a span given as ns offsets from the epoch.
    pub fn record_ns(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Self time of span `index`: its duration minus the part of it its
    /// direct children cover (children are assumed not to overlap).
    pub fn self_ns(&self, index: usize) -> u64 {
        let span = &self.spans[index];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| {
                s.end_ns
                    .min(span.end_ns)
                    .saturating_sub(s.start_ns.max(span.start_ns))
            })
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// The trace as one JSON document: every span plus the run's metrics.
    pub fn to_json(&self, header: Vec<(&str, Json)>, metrics: Json) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", id.into()),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("name", s.name.as_str().into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    ("self_ns", self.self_ns(id).into()),
                ])
            })
            .collect();
        let mut fields = header;
        fields.push(("metrics", metrics));
        fields.push(("spans", Json::Arr(spans)));
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut trace = Trace::new();
        let root = trace.record_ns("root", 0, 100, None);
        trace.record_ns("a", 10, 30, Some(root));
        trace.record_ns("b", 50, 90, Some(root));
        assert_eq!(trace.self_ns(root), 40);
        assert_eq!(trace.self_ns(1), 20);
    }
}
