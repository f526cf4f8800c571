//! In-memory spans for the traced run. Each span brackets one call
//! into a layer's public API from the benchmark; spans of one request
//! (or one sealed program) share `req`, and `parent` names the span
//! that caused it. Nothing is written until the run ends.

use std::io::Write;
use std::time::Instant;

/// One recorded span; times are microseconds since the recorder began.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub dur_s: f64,
}

/// Span sink shared by one thread; merge per-thread recorders with
/// [`Spans::absorb`].
pub struct Spans {
    origin: Instant,
    rows: Vec<Span>,
    reqs: u64,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            rows: Vec::new(),
            reqs: 0,
        }
    }

    /// A request identifier above every one recorded so far.
    pub fn new_req(&mut self) -> u64 {
        self.reqs += 1;
        self.reqs
    }

    /// Opens a span and returns its index; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.rows.push(Span {
            name,
            req,
            parent,
            start_us,
            dur_s: 0.0,
        });
        self.rows.len() - 1
    }

    /// Closes span `i` and returns its duration in seconds.
    pub fn close(&mut self, i: usize) -> f64 {
        let now_us = self.origin.elapsed().as_secs_f64() * 1e6;
        let s = &mut self.rows[i];
        s.dur_s = (now_us - s.start_us) / 1e6;
        s.dur_s
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let i = self.open(name, req, parent);
        let out = f();
        (out, self.close(i))
    }

    /// Moves another recorder's spans in (parent indexes re-based).
    pub fn absorb(&mut self, other: Spans) {
        let top = other.rows.iter().map(|s| s.req).max().unwrap_or(0);
        self.reqs = self.reqs.max(other.reqs).max(top);
        let base = self.rows.len();
        self.rows.extend(other.rows.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.rows.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_us\":{:.1},\"dur_us\":{:.1}}}",
                s.name,
                s.req,
                s.start_us,
                s.dur_s * 1e6
            )?;
        }
        Ok(())
    }
}
