//! In-memory span recording for the traced run.
//!
//! A span has a name, a start and end (offsets from the run's origin), a
//! parent span and a session id. Spans nest through a stack: a span
//! begun while another is open becomes its child, and the outermost open
//! span is the root every descendant shares. Nothing is written while
//! the run measures; [`Tracer::write_jsonl`] dumps the spans when it
//! ends. With tracing off, [`Tracer::begin`] and [`Tracer::end`] only
//! test a flag.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Index of the outermost enclosing span (itself for a root).
    pub root: usize,
    /// The session the span worked for (feed index), 0 when none.
    pub session: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn begin(&mut self, name: &'static str, session: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let root = parent.map_or(idx, |p| self.spans[p].root);
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            root,
            session,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = self.origin.elapsed();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end = now;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, session: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, session);
        let r = f();
        self.end(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per (root, session) totals of the spans called `name`, in ms: one
    /// value per feed per epoch or round.
    pub fn per_session_totals_ms(&self, name: &str) -> Vec<f64> {
        let mut totals: std::collections::BTreeMap<(usize, u64), f64> = Default::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *totals.entry((s.root, s.session)).or_default() += s.ms();
        }
        totals.into_values().collect()
    }

    /// Total time covered by the children of root spans — the
    /// sequential steps of each epoch, authentication or round.
    pub fn sequential_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].parent.is_none()))
            .map(Span::ms)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"session\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.session
            );
        }
        std::fs::write(path, out)
    }
}
