//! Spans recorded from outside the program, around calls to its public
//! functions. They stay in memory until the run ends and are then
//! written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one operation (compile cell,
    /// request, oracle cell).
    pub run: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    run: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new operation: later spans carry `run` as their id.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            run: self.run,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records `f` as one span and returns its result and duration in
    /// seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let value = f();
        self.end(id);
        (value, self.spans[id].ns() as f64 * 1e-9)
    }

    /// Number of spans recorded so far: a mark for [`Self::self_secs`].
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Self time in seconds per span name over the spans recorded since
    /// `mark`: each span's duration minus the part its children cover.
    pub fn self_secs(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<i128> = self.spans.iter().map(|s| i128::from(s.ns())).collect();
        for s in &self.spans[mark..] {
            if let Some(p) = s.parent {
                own[p] -= i128::from(s.ns());
            }
        }
        let mut by_name = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(mark) {
            *by_name.entry(s.name).or_insert(0.0) += own[i] as f64 * 1e-9;
        }
        by_name
    }

    /// Writes every span as one JSON line: name, start, end, parent and
    /// run id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
pub fn within<T>(tracer: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f).0,
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let outer = t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(outer);
        let own = t.self_secs(0);
        assert!(own["inner"] >= 0.005);
        assert!(own["outer"] < own["inner"]);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
