//! The ledger's own spans: one per call into a layer (build, elect,
//! warm-up, measured window, drain, checks, each probe), nested cell →
//! workload → run, kept in memory and written out once at exit.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed or still-open span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// Host nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer was created; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Records nested host-time spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        // Names are static and the buffers are reserved up front so that
        // recording a span inside a cell allocates nothing: the cell's
        // heap counts must be the cluster's alone.
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            open: Vec::with_capacity(16),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span and returns its seconds.
    ///
    /// # Panics
    ///
    /// Panics when no span is open — an `enter`/`exit` pairing bug.
    pub fn exit(&mut self) -> f64 {
        let i = self.open.pop().expect("exit without enter");
        let end = self.now_ns();
        self.spans[i].end_ns = end;
        (end - self.spans[i].start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span and returns its result and seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        self.enter(name);
        let out = f(self);
        (out, self.exit())
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus what its direct children cover (ns).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let own = self.self_times_ns();
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"self_ns\": {}}}",
                crate::json::quote(s.name),
                s.start_ns,
                s.end_ns,
                own[i]
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.enter("run");
        t.span("cell", |t| {
            t.span("build", |_| std::hint::black_box(0u64)).0
        });
        t.exit();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        let own = t.self_times_ns();
        let dur = |i: usize| s[i].end_ns - s[i].start_ns;
        assert_eq!(own[1], dur(1) - dur(2));
        assert_eq!(own[0], dur(0) - dur(1));
        let parsed = crate::json::parse(&t.to_json()).expect("valid json");
        assert!(matches!(parsed, crate::json::Value::Array(a) if a.len() == 3));
    }
}
