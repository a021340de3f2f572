//! In-memory spans for the traced run: recorded around calls into each
//! layer, reduced to self time and counts at the end, and written out
//! as Chrome/Perfetto `trace_event` JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Times are ns since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request the call served; spans of one request share it.
    pub request: u64,
    /// Perfetto track (thread id) the span renders on.
    pub track: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Nothing leaves memory until the run ends.
pub struct Tracer {
    origin: Instant,
    /// `false` for a tracer that records nothing: the same calls run
    /// without spans, which is what the traced run's overhead is
    /// measured against.
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        track: u32,
        (start, end): (Instant, Instant),
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
            track,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = Instant::now();
        self.record(name, parent, request, 1, (now, now))
    }

    pub fn close(&mut self, span: usize) {
        if self.enabled {
            let end = self.ns(Instant::now());
            self.spans[span].end_ns = end;
        }
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let request = self.spans[parent].request;
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, Some(parent), request, 1, (start, end));
        out
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered.min(span.duration_ns())
        })
        .collect()
}

/// Calls and summed self time of one layer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerStat {
    pub count: u64,
    pub self_ns: u64,
}

impl LayerStat {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Per-name self time and count.
pub fn reduce(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    let mut layers: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let layer = layers.entry(span.name).or_default();
        layer.count += 1;
        layer.self_ns += own;
    }
    layers
}

/// Chrome/Perfetto `trace_event` JSON: one complete (`X`) event per
/// span, sorted by start within each track, stamped in `otherData`.
pub fn perfetto_json(spans: &[Span], stamp: &str) -> String {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].track, spans[i].start_ns, i));
    let mut out = String::from("{\"traceEvents\": [\n");
    for (n, &i) in order.iter().enumerate() {
        let s = &spans[i];
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{}{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"perfbench\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"request\": {}}}}}",
            if n == 0 { "" } else { ",\n" },
            s.name,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.track,
            s.request,
        );
    }
    let _ = write!(
        out,
        "\n],\n\"displayTimeUnit\": \"ns\",\n\"otherData\": {{\"stamp\": \"{stamp}\"}}\n}}\n"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
            track: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),  // overlaps a: union 10..40
            span("c", 90, 120, Some(0)), // clipped to 90..100
            span("d", 12, 15, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20 - 3, 20, 30, 3]);
        let layers = reduce(&spans);
        assert_eq!(
            layers["root"],
            LayerStat {
                count: 1,
                self_ns: 60
            }
        );
        assert_eq!(layers["a"].mean_us(), 0.017);
    }

    #[test]
    fn perfetto_export_passes_the_telemetry_validator() {
        let mut tracer = Tracer::new();
        let root = tracer.open("replay.request", None, 7);
        let key = tracer.time("runtime.content_key", root, || 41 + 1);
        tracer.close(root);
        assert_eq!(key, 42);
        let text = perfetto_json(&tracer.spans, "git_rev=x");
        assert_eq!(tempus_telemetry::perfetto::validate_perfetto(&text), Ok(2));
        assert_eq!(tracer.spans[1].parent, Some(root));
        assert_eq!(tracer.spans[1].request, 7);
    }

    #[test]
    fn a_tracer_that_is_off_runs_the_calls_and_records_nothing() {
        let mut tracer = Tracer::off();
        let root = tracer.open("replay.request", None, 7);
        assert_eq!(tracer.time("runtime.content_key", root, || 41 + 1), 42);
        tracer.close(root);
        assert!(tracer.spans.is_empty());
    }
}
