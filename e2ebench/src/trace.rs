//! In-memory spans around the benchmark's own calls into the program.
//!
//! A span has a name, a start, an end, a parent and the id of the
//! operation it belongs to. Spans stay in memory while the run measures and
//! are written out when it ends. A layer's self time is a span's duration
//! minus the part of it that its children cover. With tracing off nothing
//! is recorded and every call is a branch on one flag.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Sentinel id handed out while tracing is off.
pub const NO_SPAN: usize = usize::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.explain`.
    pub name: &'static str,
    /// Operation id shared by every span of one benchmark operation.
    pub op: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end_ns: u64,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Default)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: usize,
    /// Each span's self time, ms.
    pub self_ms: Vec<f64>,
    /// Each span's full duration, ms.
    pub total_ms: Vec<f64>,
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder measuring from `epoch`; records nothing unless `on`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// An empty recorder with this one's epoch and switch, for another
    /// thread; merge it back with [`Self::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: usize) -> usize {
        self.open_at(name, op, parent, Instant::now())
    }

    /// Opens a span that started at `start` (an open-loop operation starts
    /// at its scheduled time, not when a connection came free).
    pub fn open_at(&mut self, name: &'static str, op: u64, parent: usize, start: Instant) -> usize {
        if !self.on {
            return NO_SPAN;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            op,
            parent: (parent != NO_SPAN).then_some(parent),
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        if id != NO_SPAN {
            let end_ns = self.ns(Instant::now());
            self.spans[id].end_ns = end_ns;
        }
    }

    /// Records a finished span from known endpoints, e.g. the time a server
    /// reports it spent inside the session, placed at the end of the
    /// request that carried it.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.open_at(name, op, parent, start);
        if id != NO_SPAN {
            self.spans[id].end_ns = self.ns(end).max(self.spans[id].start_ns);
        }
        id
    }

    /// Moves `other`'s spans into this tracer (both must share an epoch).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Duration in ms and operation id of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<(u64, f64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.op, s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6))
            .collect()
    }

    /// Self time and duration per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let (start, end) = (span.start_ns, span.end_ns.max(span.start_ns));
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let s = &self.spans[c];
                    (s.start_ns.clamp(start, end), s.end_ns.clamp(start, end))
                })
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = start;
            for (s, e) in kids {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ms.push((end - start) as f64 / 1e6);
            entry.self_ms.push((end - start - covered) as f64 / 1e6);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Cost of recording one span, in ns: the median of five timed batches of
/// open/close pairs on a throwaway tracer. Multiplied by the spans a run
/// recorded, it gives the tracing overhead that run paid.
pub fn span_cost_ns() -> f64 {
    const PAIRS: usize = 20_000;
    let mut batches = Vec::new();
    for _ in 0..5 {
        let mut calibration = Tracer::new(true, Instant::now());
        let start = Instant::now();
        for op in 0..PAIRS {
            let id = calibration.open("calibrate", op as u64, NO_SPAN);
            calibration.close(id);
        }
        batches.push(start.elapsed().as_nanos() as f64 / PAIRS as f64);
        std::hint::black_box(calibration.len());
    }
    crate::stats::median(&batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut t = Tracer::new(true, epoch);
        let root = t.record("root", 1, NO_SPAN, at(0), at(100));
        t.record("child", 1, root, at(10), at(30));
        t.record("child", 1, root, at(20), at(50));
        t.record("child", 1, root, at(90), at(120));
        let times = t.self_times();
        let root_self = times["root"].self_ms[0];
        assert!((root_self - 50.0).abs() < 1e-6, "{root_self}");
        assert_eq!(times["child"].count, 3);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.open("x", 0, NO_SPAN);
        t.close(id);
        assert_eq!(id, NO_SPAN);
        assert!(t.is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.record("a", 0, NO_SPAN, epoch, epoch);
        let mut b = Tracer::new(true, epoch);
        let root = b.record("b", 1, NO_SPAN, epoch, epoch);
        b.record("c", 1, root, epoch, epoch);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
