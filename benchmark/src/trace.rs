//! In-memory spans recorded around the benchmark's own calls into each
//! layer, their self times, and the trace file written at exit.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<u32>,
    /// The net, edit or request the span worked on.
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans. A disabled recorder runs the closures and
/// records nothing, which is how the tracing overhead is measured.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for item `id`; spans opened
    /// inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per span name: (total self time in ns, span count). A span's self
/// time is its duration minus the durations of its direct children,
/// which never overlap because one thread records them in sequence.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let entry = out.entry(span.name).or_default();
        entry.0 += span.duration_ns().saturating_sub(children);
        entry.1 += 1;
    }
    out
}

/// Total duration (children included) and count per span name.
pub fn total_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for span in spans {
        let entry = out.entry(span.name).or_default();
        entry.0 += span.duration_ns();
        entry.1 += 1;
    }
    out
}

/// Writes the spans as JSON: a name table and one
/// `[name, start_ns, end_ns, parent, id]` row per span (`parent` -1 for
/// a root).
pub fn write(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"names\": ["
    )?;
    for (i, name) in names.iter().enumerate() {
        write!(out, "{}\"{name}\"", if i == 0 { "" } else { ", " })?;
    }
    writeln!(out, "],\n\"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let name = names
            .binary_search(&s.name)
            .expect("every name is in the table");
        let parent = s.parent.map_or(-1, i64::from);
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "[{name}, {}, {}, {parent}, {}]{sep}",
            s.start_ns, s.end_ns, s.id
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // route [0, 100) ⊃ classify [10, 30), score [30, 80) ⊃ inner [40, 60)
        let spans = [
            span("route", 0, 100, None),
            span("classify", 10, 30, Some(0)),
            span("score", 30, 80, Some(0)),
            span("inner", 40, 60, Some(2)),
            span("classify", 200, 205, None),
        ];
        let t = self_times(&spans);
        assert_eq!(t["route"], (100 - 20 - 50, 1));
        assert_eq!(t["score"], (50 - 20, 1));
        assert_eq!(t["inner"], (20, 1));
        assert_eq!(t["classify"], (25, 2));
        // Self times of a tree partition its root's duration.
        let tree: u64 = ["route", "score", "inner"]
            .iter()
            .map(|n| t[n].0)
            .sum::<u64>()
            + 20;
        assert_eq!(tree, 100);
        assert_eq!(total_times(&spans)["score"], (50, 1));
    }

    #[test]
    fn recorder_nests_and_a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(true);
        let v = rec.span("outer", 7, |rec| rec.span("inner", 7, |_| 41) + 1);
        assert_eq!(v, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut off = Recorder::new(false);
        assert_eq!(off.span("x", 0, |rec| rec.span("y", 0, |_| 1)), 1);
        assert!(off.spans().is_empty());
    }
}
