//! Spans recorded from the benchmark's own code around its calls into
//! each layer's public functions, kept in memory and written out when
//! the run ends. No span is recorded inside the program.

use std::fmt::Write as _;
use std::time::Instant;

/// The layers a traced batch's wall time is split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `rmo_core` artifact-cache lookups that hit (`PaEngine::pipeline_for`).
    Engine,
    /// The miss path: `PaEngine::pipeline_for` building artifacts.
    Pipeline,
    /// Warm PA waves: `PaEngine::solve` on cached artifacts.
    Solve,
    /// Application compute: `dispatch::run_query` for every other kind.
    Apps,
    /// Batch execution glue: shard threads, engine rehydrate/park,
    /// replica forks and banking.
    Service,
    /// Batch planning: `PaCluster::planned_execution`.
    Sched,
    /// Gateway work outside the cluster: the latency-model plan and the
    /// per-response relay copies.
    Stream,
}

pub const LAYERS: [Layer; 7] = [
    Layer::Engine,
    Layer::Pipeline,
    Layer::Solve,
    Layer::Apps,
    Layer::Service,
    Layer::Sched,
    Layer::Stream,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Engine => "engine",
            Layer::Pipeline => "pipeline",
            Layer::Solve => "solve",
            Layer::Apps => "apps",
            Layer::Service => "service",
            Layer::Sched => "sched",
            Layer::Stream => "stream",
        }
    }
}

pub const NO_PARENT: u32 = u32::MAX;
pub const NO_QUERY: u64 = u64::MAX;

/// One span: `name` is the call it wraps, `layer` where its self time
/// is charged, `parent` an index into the same thread's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub query: u64,
    pub thread: u8,
}

/// A per-thread span recorder sharing one time base.
pub struct Tracer {
    base: Instant,
    thread: u8,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(base: Instant, thread: u8) -> Tracer {
        Tracer {
            base,
            thread,
            spans: Vec::new(),
        }
    }

    pub fn base(&self) -> Instant {
        self.base
    }

    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, layer: Layer, parent: u32, query: u64) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent,
            query,
            thread: self.thread,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize].end = end;
    }

    /// Records an already-timed span.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: Layer,
        start: u64,
        end: u64,
        parent: u32,
        query: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            layer,
            start,
            end,
            parent,
            query,
            thread: self.thread,
        });
        (self.spans.len() - 1) as u32
    }

    /// Moves another thread's spans in, re-basing their parent indices.
    pub fn absorb(&mut self, spans: Vec<Span>, parent: u32) {
        let offset = self.spans.len() as u32;
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_PARENT {
                parent
            } else {
                s.parent + offset
            };
            s
        }));
    }
}

/// Splits the wall time `[from, to)` of one traced batch over layers.
/// Each instant goes to the innermost open span of every thread that
/// has one, split evenly between those threads; an instant where only
/// the coordinating thread (id 0) is inside a span goes to its
/// innermost span. Summed over layers this is exactly `to - from`.
pub fn apportion(spans: &[Span], from: u64, to: u64, out: &mut [f64; LAYERS.len()]) {
    // Innermost-span segments per thread: a span's interval minus its
    // children's (spans nest within a thread).
    let mut segments: Vec<(u64, u64, u8, Layer)> = Vec::new();
    let mut by_thread: Vec<Vec<&Span>> = Vec::new();
    for s in spans.iter().filter(|s| s.end > from && s.start < to) {
        let t = s.thread as usize;
        if by_thread.len() <= t {
            by_thread.resize(t + 1, Vec::new());
        }
        by_thread[t].push(s);
    }
    for list in &mut by_thread {
        // Outer spans first at equal starts.
        list.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end)));
        let mut stack: Vec<(&Span, u64)> = Vec::new(); // (span, self cursor)
        for s in list.iter() {
            while let Some(&(top, cursor)) = stack.last() {
                if top.end <= s.start {
                    segments.push((cursor, top.end, top.thread, top.layer));
                    stack.pop();
                    if let Some(parent) = stack.last_mut() {
                        parent.1 = top.end;
                    }
                } else {
                    break;
                }
            }
            if let Some(parent) = stack.last_mut() {
                segments.push((parent.1, s.start, parent.0.thread, parent.0.layer));
                parent.1 = s.end;
            }
            stack.push((s, s.start));
        }
        while let Some((top, cursor)) = stack.pop() {
            segments.push((cursor, top.end, top.thread, top.layer));
            if let Some(parent) = stack.last_mut() {
                parent.1 = top.end;
            }
        }
    }
    segments.retain(|&(a, b, _, _)| b > a);
    let mut cuts: Vec<u64> = segments.iter().flat_map(|&(a, b, _, _)| [a, b]).collect();
    cuts.push(from);
    cuts.push(to);
    cuts.retain(|&c| c >= from && c <= to);
    cuts.sort_unstable();
    cuts.dedup();
    // Segments sorted by start; sweep the elementary intervals.
    segments.sort_by_key(|&(a, _, _, _)| a);
    let mut open: Vec<(u64, u64, u8, Layer)> = Vec::new();
    let mut next = 0;
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        while next < segments.len() && segments[next].0 <= a {
            open.push(segments[next]);
            next += 1;
        }
        open.retain(|&(_, end, _, _)| end > a);
        let dt = (b - a) as f64;
        let workers: Vec<Layer> = open.iter().filter(|s| s.2 != 0).map(|s| s.3).collect();
        if workers.is_empty() {
            let layer = open
                .iter()
                .find(|s| s.2 == 0)
                .map_or(Layer::Service, |s| s.3);
            out[slot(layer)] += dt;
        } else {
            for layer in &workers {
                out[slot(*layer)] += dt / workers.len() as f64;
            }
        }
    }
}

pub fn slot(layer: Layer) -> usize {
    LAYERS
        .iter()
        .position(|&l| l == layer)
        .expect("every layer is listed")
}

/// The spans as JSON lines: name, layer, start and end (ns since the
/// run began), parent span index (or -1), query id (or -1), thread.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let query = if s.query == NO_QUERY {
            -1
        } else {
            s.query as i64
        };
        let _ = writeln!(
            out,
            r#"{{"name":"{}","layer":"{}","start":{},"end":{},"parent":{},"query":{},"thread":{}}}"#,
            s.name,
            s.layer.name(),
            s.start,
            s.end,
            parent,
            query,
            s.thread
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, thread: u8) -> Span {
        Span {
            name: "t",
            layer,
            start,
            end,
            parent: NO_PARENT,
            query: NO_QUERY,
            thread,
        }
    }

    #[test]
    fn apportion_sums_to_wall_and_splits_parallel_time() {
        let spans = vec![
            span(Layer::Service, 0, 100, 0),
            span(Layer::Sched, 0, 10, 0),
            // Two workers overlap on [20, 60).
            span(Layer::Service, 20, 90, 1),
            span(Layer::Apps, 20, 60, 1),
            span(Layer::Solve, 20, 60, 2),
        ];
        let mut out = [0.0; LAYERS.len()];
        apportion(&spans, 0, 100, &mut out);
        assert_eq!(out.iter().sum::<f64>(), 100.0);
        assert_eq!(out[slot(Layer::Sched)], 10.0);
        assert_eq!(out[slot(Layer::Apps)], 20.0);
        assert_eq!(out[slot(Layer::Solve)], 20.0);
        // [10,20) main, [60,90) worker 1's group, [90,100) main.
        assert_eq!(out[slot(Layer::Service)], 50.0);
    }
}
