//! In-memory span recorder. Spans are taken in the benchmark's own files,
//! around calls into each layer's public functions; nothing in the engine
//! knows it is being traced. A disabled tracer records nothing and reads no
//! clock, so the untraced jobs that give the end-to-end metrics pay nothing.

use crate::json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one job share this id.
    pub job: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Starts a new job: spans opened from here on carry its id.
    pub fn next_job(&mut self) -> u64 {
        self.job += 1;
        self.job
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of whatever span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the part its children cover.
    /// One thread records, so siblings never overlap and the cover is a sum.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns() - children
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": {}, \"spans\": [\n", json::quote(workload));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": {}, \"job\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{}\n",
                json::quote(s.name),
                s.job,
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans, so the arithmetic is exact.
    fn fixture() -> Tracer {
        let mut t = Tracer::new(true);
        let mk = |name, parent, start_ns, end_ns| Span {
            name,
            job: 1,
            parent,
            start_ns,
            end_ns,
        };
        t.spans = vec![
            mk("job", None, 0, 100),
            mk("a", Some(0), 5, 25),
            mk("b", Some(0), 30, 90),
            mk("b.inner", Some(2), 40, 70),
            mk("check", None, 100, 130),
        ];
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = fixture();
        // job: 100 - (a 20 + b 60); the grandchild is b's to subtract.
        assert_eq!(t.self_ns(0), 20);
        assert_eq!(t.self_ns(1), 20);
        assert_eq!(t.self_ns(2), 30);
        assert_eq!(t.self_ns(3), 30);
        assert_eq!(t.self_ns(4), 30);
        let total: u64 = (0..4).map(|i| t.self_ns(i)).sum();
        assert_eq!(total, 100, "self times of a job's tree sum to the job");
    }

    #[test]
    fn recorded_spans_nest_and_carry_the_job_id() {
        let mut t = Tracer::new(true);
        let job = t.next_job();
        t.span("job", |t| {
            t.span("a", |_| ());
            t.span("b", |t| t.span("b.inner", |_| ()));
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|s| s.job == job));
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);
        assert!(json::parse(&t.to_json("w")).is_ok());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("job", |t| t.span("a", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }
}
