//! In-memory spans recorded by the harness around its calls into each
//! layer, written out once when the run ends.
//!
//! Every span carries its id, the span that caused it, a name, start and
//! end in nanoseconds since the run began, and the measured round it
//! belongs to (-1 outside rounds). A span's self time is its duration
//! minus the part its children cover. With tracing off the recorder keeps
//! nothing and every call is a branch on one bool.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub round: i32,
}

/// Id of the absent parent (the root span's parent).
pub const NO_PARENT: u32 = 0;

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: i32,
}

/// One operation timed by a worker: `(name, start_ns, end_ns)`.
pub type OpSpan = (&'static str, u64, u64);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, t0: Instant::now(), spans: Vec::new(), open: Vec::new(), round: -1 }
    }

    /// The instant span times are measured from (shared with workers).
    pub fn epoch(&self) -> Instant {
        self.t0
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a phase span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, name, start_ns, end_ns: start_ns, round: self.round });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(id) = self.open.pop() {
            self.spans[id as usize - 1].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a phase span.
    pub fn phase<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Spans opened from now on belong to measured round `round`.
    pub fn set_round(&mut self, round: i32) {
        self.round = round;
    }

    /// Attach operations a worker timed as children of the innermost open
    /// span.
    pub fn add_ops(&mut self, ops: &[OpSpan]) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        for &(name, start_ns, end_ns) in ops {
            let id = self.spans.len() as u32 + 1;
            self.spans.push(Span { id, parent, name, start_ns, end_ns, round: self.round });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Share of the root span's duration its direct children cover.
    pub fn root_coverage(&self) -> f64 {
        let Some(root) = self.spans.first() else { return 0.0 };
        let covered: u64 =
            self.spans.iter().filter(|s| s.parent == root.id).map(|s| s.end_ns - s.start_ns).sum();
        covered as f64 / (root.end_ns - root.start_ns).max(1) as f64
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let round = if s.name == "round" { format!("[{}]", s.round) } else { String::new() };
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}{}\", \"start_ns\": {}, \"end_ns\": {}, \"round\": {}}}",
                s.id, s.parent, s.name, round, s.start_ns, s.end_ns, s.round
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_cover() {
        let mut t = Tracer::new(true);
        t.enter("run");
        t.phase("setup", |t| {
            t.phase("lsm.open", |_| std::thread::sleep(std::time::Duration::from_millis(2)))
        });
        t.set_round(0);
        t.enter("round");
        let a = t.now_ns();
        t.add_ops(&[("lsm.seek", a, a + 10)]);
        t.exit();
        t.exit();
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, s[0].id);
        assert_eq!(s[2].parent, s[1].id);
        assert_eq!((s[4].name, s[4].parent, s[4].round), ("lsm.seek", s[3].id, 0));
        assert!(t.root_coverage() > 0.5 && t.root_coverage() <= 1.0);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        t.phase("run", |t| t.add_ops(&[("x", 0, 1)]));
        assert!(t.spans().is_empty());
    }
}
