//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Nothing inside the program is instrumented: a span opens just
//! before the benchmark calls a layer's public function and closes when
//! the call returns.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Span {
    /// Layer boundary the span covers, e.g. `lab.driver`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to `start_ns` while the span is open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder shared by every thread of one traced run.
pub(crate) struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn begin(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer mutex poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("tracer mutex poisoned")[id].end_ns = end_ns;
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer mutex poisoned").clone()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover (children running in
    /// parallel are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let spans = self.spans();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time per span name.
    pub fn self_time_by_name_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for (s, own) in self.spans().iter().zip(self.self_times_ns()) {
            *by_name.entry(s.name).or_insert(0) += own;
        }
        by_name
    }

    /// Writes every span and the per-name self times as JSON.
    ///
    /// # Errors
    ///
    /// Any I/O error from writing `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [");
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n], \"self_ns\": {");
        for (i, (name, ns)) in self.self_time_by_name_ns().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n  \"{name}\": {ns}");
        }
        out.push_str("\n}}\n");
        std::fs::write(path, out)
    }
}

/// Runs `f` inside a span named `name` when `tracer` is present; `f`
/// receives the span's index to parent nested spans on.
pub(crate) fn scope<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<usize>,
    f: impl FnOnce(Option<usize>) -> R,
) -> R {
    match tracer {
        None => f(None),
        Some(t) => {
            let id = t.begin(name, parent);
            let out = f(Some(id));
            t.end(id);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let t = Tracer::new();
        {
            let mut spans = t.spans.lock().unwrap();
            let span = |name, start_ns, end_ns, parent| Span {
                name,
                start_ns,
                end_ns,
                parent,
            };
            spans.push(span("root", 0, 100, None));
            spans.push(span("kid", 10, 50, Some(0)));
            spans.push(span("kid", 30, 70, Some(0)));
            spans.push(span("kid", 90, 95, Some(0)));
        }
        assert_eq!(t.self_times_ns(), vec![100 - 60 - 5, 40, 40, 5]);
        assert_eq!(t.self_time_by_name_ns()["kid"], 85);
    }
}
