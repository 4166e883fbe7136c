//! The traced run: the benchmark's own spans around every public call it
//! makes, merged with the engine's span stream (from a `MemorySink`) on one
//! clock, and each layer's self time derived from the merged tree.
//!
//! The engine stamps its spans in microseconds since an instant it takes
//! privately during construction. Spans whose benchmark call is known (the
//! first publish inside `new`, every `RcStep` inside the call that ran the
//! step) bound the offset between the two clocks from both sides; the
//! midpoint of the tightest interval maps engine spans onto the benchmark
//! clock.

use anytime_anywhere::core::{SpanEvent, SpanKind};
use std::time::Instant;

/// Microseconds since the run started: the benchmark's clock.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Self(Instant::now())
    }

    pub fn now_us(&self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e6
    }
}

/// A span the benchmark recorded around one of its own calls.
#[derive(Debug, Clone)]
pub struct BenchSpan {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing benchmark span (a setup cycle or the stream).
    pub parent: Option<usize>,
    /// Arrival ids the call carried.
    pub ids: Vec<u32>,
    /// Which engine of the run the call went to.
    pub engine: usize,
    /// RC-step indices `[from, to)` the call executed.
    pub steps: Option<(usize, usize)>,
}

/// Collects benchmark spans when tracing is on; otherwise records nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    pub on: bool,
    pub spans: Vec<BenchSpan>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, spans: Vec::new() }
    }

    /// Records a span and returns its index (`None` when tracing is off).
    pub fn record(&mut self, span: BenchSpan) -> Option<usize> {
        self.on.then(|| {
            self.spans.push(span);
            self.spans.len() - 1
        })
    }

    /// Closes an open phase span recorded with a provisional end.
    pub fn close(&mut self, idx: Option<usize>, end_us: f64) {
        if let Some(i) = idx {
            self.spans[i].end_us = end_us;
        }
    }
}

/// An engine span mapped onto the benchmark clock.
#[derive(Debug, Clone, Copy)]
pub struct EngineSpan {
    pub event: SpanEvent,
    pub engine: usize,
    pub start_us: f64,
    pub end_us: f64,
}

/// The clock offset for one engine: engine time + `offset_us` = benchmark
/// time, known to within `± half_width_us`.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    pub offset_us: f64,
    pub half_width_us: f64,
}

/// Bounds the offset from the spans of `engine` whose call is known: every
/// `RcStep` lies inside the benchmark call whose step range holds its
/// index, and the first `Publish` (the IA epoch) inside `new`.
pub fn calibrate(engine: usize, events: &[SpanEvent], bench: &[BenchSpan]) -> Option<Calibration> {
    let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
    let mut within = |call: &BenchSpan, e: &SpanEvent| {
        lo = lo.max(call.start_us - e.wall_start_us);
        hi = hi.min(call.end_us - (e.wall_start_us + e.wall_dur_us));
    };
    let new = bench.iter().find(|b| b.engine == engine && b.name == "new")?;
    within(new, events.iter().find(|e| e.kind == SpanKind::Publish)?);
    for e in events.iter().filter(|e| e.kind == SpanKind::RcStep) {
        let step = e.superstep as usize;
        let call = bench.iter().find(|b| {
            b.engine == engine && b.steps.is_some_and(|(from, to)| from <= step && step < to)
        })?;
        within(call, e);
    }
    (lo.is_finite() && hi.is_finite())
        .then(|| Calibration { offset_us: (lo + hi) / 2.0, half_width_us: (hi - lo).abs() / 2.0 })
}

/// Maps one engine's events onto the benchmark clock. The engine stamps
/// domain decomposition at its own time zero although it runs before the
/// engine's clock starts; it is placed at the start of the `new` call,
/// which is where the partitioner runs.
pub fn map_events(
    engine: usize,
    events: &[SpanEvent],
    cal: Calibration,
    bench: &[BenchSpan],
) -> Vec<EngineSpan> {
    let new_start =
        bench.iter().find(|b| b.engine == engine && b.name == "new").map_or(0.0, |b| b.start_us);
    events
        .iter()
        .map(|&event| {
            let start_us = if event.kind == SpanKind::DomainDecomposition {
                new_start
            } else {
                event.wall_start_us + cal.offset_us
            };
            EngineSpan { event, engine, start_us, end_us: start_us + event.wall_dur_us }
        })
        .collect()
}

/// The layers of the pipeline, named after the modules they measure. The
/// metric layer has no spans of its own (its time is inside publish) and
/// serve is timed by the reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Ingest,
    Drain,
    Compute,
    Exchange,
    Partition,
    Publish,
}

/// One node of the merged span tree.
#[derive(Debug, Clone, Copy)]
struct Node {
    start: f64,
    end: f64,
    /// Benchmark span index or engine span kind.
    what: What,
    /// Whether other spans nest inside it (driver-thread spans only; rank
    /// lanes are leaves).
    container: bool,
    /// Traffic the engine span moved.
    bytes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum What {
    Bench(&'static str),
    Engine(SpanKind),
}

/// Per-layer results of one engine's traced life.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Self time per [`Layer`], indexed by its discriminant, in ms. Rank-lane spans run in
    /// parallel and each counts in full, so a layer's self time can exceed
    /// its wall time.
    pub self_ms: [f64; 6],
    /// Σ superstep self time inside engine drain spans.
    pub drain_rank_ms: f64,
    /// Σ collective bytes inside engine drain spans.
    pub drain_broadcast_bytes: u64,
    /// Σ publish spans issued by `drain_changes` calls.
    pub drain_publish_ms: f64,
    /// Wall time covered by the IA supersteps inside `new`.
    pub ia_ms: f64,
    /// Durations of the engine's `RcStep` spans (ms).
    pub step_ms: Vec<f64>,
    /// Durations of the engine's `Publish` spans (ms).
    pub publish_ms: Vec<f64>,
    pub dd_ms: f64,
}

/// Length of the union of intervals, each clipped to `[lo, hi]`.
pub fn union_len(mut iv: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut cur): (f64, Option<(f64, f64)>) = (0.0, None);
    for (s, e) in iv {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

/// Builds the span tree of one engine's life (its benchmark calls and its
/// mapped engine spans) and attributes self time to layers. A span's
/// parent is the innermost driver-thread span covering its midpoint; its
/// self time is its duration minus the union of its children.
pub fn layer_times(bench: &[BenchSpan], engine_spans: &[EngineSpan]) -> LayerTimes {
    let mut nodes: Vec<Node> = bench
        .iter()
        .map(|b| Node {
            start: b.start_us,
            end: b.end_us,
            what: What::Bench(b.name),
            container: true,
            bytes: 0,
        })
        .collect();
    nodes.extend(engine_spans.iter().map(|e| Node {
        start: e.start_us,
        end: e.end_us,
        what: What::Engine(e.event.kind),
        container: e.event.rank < 0 && matches!(e.event.kind, SpanKind::RcStep | SpanKind::Drain),
        bytes: e.event.bytes,
    }));

    // Containers by start (longest first on ties, so outer precedes inner).
    let mut containers: Vec<usize> = (0..nodes.len()).filter(|&i| nodes[i].container).collect();
    containers.sort_by(|&a, &b| {
        nodes[a].start.total_cmp(&nodes[b].start).then(nodes[b].end.total_cmp(&nodes[a].end))
    });
    let starts: Vec<f64> = containers.iter().map(|&i| nodes[i].start).collect();
    let parent: Vec<Option<usize>> = (0..nodes.len())
        .map(|i| {
            let mid = (nodes[i].start + nodes[i].end) / 2.0;
            let upto = starts.partition_point(|&s| s <= mid);
            containers[..upto].iter().rev().copied().find(|&c| {
                c != i
                    && nodes[c].end >= mid
                    && nodes[c].end - nodes[c].start >= nodes[i].end - nodes[i].start
            })
        })
        .collect();

    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); nodes.len()];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = *p {
            children[p].push((nodes[i].start, nodes[i].end));
        }
    }
    let in_drain = |mut i: usize| {
        while let Some(p) = parent[i] {
            if nodes[p].what == What::Engine(SpanKind::Drain) {
                return true;
            }
            i = p;
        }
        false
    };

    let mut out = LayerTimes::default();
    let mut ia = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        let dur = node.end - node.start;
        let own = dur - union_len(std::mem::take(&mut children[i]), node.start, node.end);
        let in_drain = in_drain(i);
        let layer = match node.what {
            What::Bench("submit") => Some(Layer::Ingest),
            What::Bench("drain_changes") => Some(Layer::Drain),
            What::Bench("new" | "run_to_convergence" | "rc_step") => Some(Layer::Compute),
            What::Bench(_) => None,
            What::Engine(SpanKind::Drain) => Some(Layer::Drain),
            What::Engine(SpanKind::Publish) => {
                out.publish_ms.push(dur / 1e3);
                if parent[i].is_some_and(|p| nodes[p].what == What::Bench("drain_changes")) {
                    out.drain_publish_ms += dur / 1e3;
                }
                Some(Layer::Publish)
            }
            What::Engine(SpanKind::DomainDecomposition) => {
                out.dd_ms += dur / 1e3;
                Some(Layer::Partition)
            }
            What::Engine(SpanKind::Exchange | SpanKind::Collective) => {
                if in_drain {
                    out.drain_broadcast_bytes += node.bytes;
                }
                Some(Layer::Exchange)
            }
            What::Engine(SpanKind::Superstep) if in_drain => {
                out.drain_rank_ms += own / 1e3;
                Some(Layer::Drain)
            }
            What::Engine(SpanKind::Superstep) => {
                if parent[i].is_some_and(|p| nodes[p].what == What::Bench("new")) {
                    ia.push((node.start, node.end));
                }
                Some(Layer::Compute)
            }
            What::Engine(SpanKind::RcStep) => {
                out.step_ms.push(dur / 1e3);
                Some(Layer::Compute)
            }
            What::Engine(_) => None,
        };
        if let Some(l) = layer {
            out.self_ms[l as usize] += own / 1e3;
        }
    }
    out.ia_ms = union_len(ia, f64::NEG_INFINITY, f64::INFINITY) / 1e3;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_len(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0), 4.0);
        assert_eq!(union_len(vec![(0.0, 2.0), (1.0, 3.0)], 1.5, 2.5), 1.0);
        assert_eq!(union_len(vec![], 0.0, 1.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let call = |name, start_us, end_us| BenchSpan {
            name,
            start_us,
            end_us,
            parent: None,
            ids: vec![],
            engine: 0,
            steps: None,
        };
        let ev = |kind, rank, start: f64, dur: f64| EngineSpan {
            event: SpanEvent {
                kind,
                rank,
                superstep: 0,
                sim_start_us: 0.0,
                sim_dur_us: 0.0,
                wall_start_us: start,
                wall_dur_us: dur,
                messages: 0,
                bytes: 7,
            },
            engine: 0,
            start_us: start,
            end_us: start + dur,
        };
        // drain_changes [0, 100] ⊃ engine drain [10, 60] ⊃ two parallel
        // supersteps [20, 40] and [30, 50], then a publish [70, 90].
        let bench = [call("drain_changes", 0.0, 100.0)];
        let engine = [
            ev(SpanKind::Drain, -1, 10.0, 50.0),
            ev(SpanKind::Superstep, 0, 20.0, 20.0),
            ev(SpanKind::Superstep, 1, 30.0, 20.0),
            ev(SpanKind::Collective, -1, 52.0, 4.0),
            ev(SpanKind::Publish, -1, 70.0, 20.0),
        ];
        let t = layer_times(&bench, &engine);
        // Drain self: bench 100 − (50 + 20) = 30, engine drain 50 − 34 = 16,
        // supersteps 20 + 20 = 40.
        assert!((t.self_ms[Layer::Drain as usize] - 0.086).abs() < 1e-12);
        assert!((t.self_ms[Layer::Publish as usize] - 0.020).abs() < 1e-12);
        assert!((t.self_ms[Layer::Exchange as usize] - 0.004).abs() < 1e-12);
        assert!((t.drain_rank_ms - 0.040).abs() < 1e-12);
        assert_eq!(t.drain_broadcast_bytes, 7);
        assert!((t.drain_publish_ms - 0.020).abs() < 1e-12);
    }
}
