//! The traced run's span log: spans recorded around the benchmark's
//! own calls into each crate, kept in memory and written out once the
//! run ends. A span's self time is its duration minus its children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the command (in its stream) the span belongs to.
    pub op: usize,
    /// Index of the parent span in the log, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Runs `f` inside a span; returns its result and the span index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: (start - self.epoch).as_nanos() as u64,
            dur_ns: (end - start).as_nanos() as u64,
        });
        (out, self.spans.len() - 1)
    }

    /// Opens a span whose children are recorded before it closes.
    pub fn open(&mut self, name: &'static str, op: usize, parent: Option<usize>) -> usize {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            dur_ns: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id].dur_ns = now - self.spans[id].start_ns;
    }

    /// Self time per span name, milliseconds: each span's duration
    /// minus the durations of its direct children.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += s.dur_ns.saturating_sub(c) as f64 / 1e6;
        }
        out
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// The log as tab-separated text, one span per line.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\top\tname\tstart_ns\tdur_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.dur_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::default();
        let root = log.open("root", 0, None);
        log.time("child", 0, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        log.close(root);
        let selfs = log.self_ms();
        assert!(selfs["child"] >= 5.0);
        assert!(selfs["root"] < selfs["child"], "{selfs:?}");
        assert!(log.to_tsv().lines().count() == 3);
    }
}
