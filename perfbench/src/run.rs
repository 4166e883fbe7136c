//! One run of one workload: setup cycles, the open-loop stream with its
//! reader, and the end-of-run oracle checks. Everything the engine sees
//! comes from [`generate`](crate::workload::generate).

use crate::stats::Hist;
use crate::trace::{self, BenchSpan, Clock, EngineSpan, LayerTimes, Tracer};
use crate::workload::{generate, Arrival, Query, Reader, Spec, QUERY_KINDS};
use anytime_anywhere::core::{
    AnytimeEngine, BoundsMode, IngestStats, MemorySink, MetricKind, MetricTally, PublishStats,
    SpanEvent,
};
use anytime_anywhere::graph::centrality::betweenness_exact_det;
use anytime_anywhere::graph::closeness::closeness_exact;
use anytime_anywhere::graph::{AdjGraph, Csr};
use anytime_anywhere::partition::quality::{cut_edges, vertex_balance};
use anytime_anywhere::runtime::RunStats;
use anytime_anywhere::serve::ServeHandle;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A run counts as saturated when the driver was inside engine calls for
/// more than this share of the arrival window: latency then measures the
/// queue, not the engine.
pub const SATURATED_BUSY_FRAC: f64 = 0.95;

/// The reader samples one call in this many as a span in the traced run.
const READER_SPAN_EVERY: u64 = 4096;

/// The reader checks the epoch it sees once every this many calls.
const EPOCH_CHECK_EVERY: u64 = 8;

/// What the reader thread measured.
#[derive(Debug, Clone, Default)]
pub struct ReaderOut {
    pub calls: u64,
    pub failed: u64,
    /// Wall time readers were running, summed over reading phases.
    pub active_s: f64,
    /// Latency per [`QUERY_KINDS`] entry.
    pub by_kind: [Hist; 4],
    pub epochs_seen: u64,
    pub spans: Vec<BenchSpan>,
}

impl ReaderOut {
    fn merge(&mut self, o: ReaderOut) {
        self.calls += o.calls;
        self.failed += o.failed;
        self.active_s += o.active_s;
        for (a, b) in self.by_kind.iter_mut().zip(&o.by_kind) {
            a.merge(b);
        }
        self.epochs_seen += o.epochs_seen;
        self.spans.extend(o.spans);
    }

    pub fn all(&self) -> Hist {
        let mut h = Hist::default();
        for k in &self.by_kind {
            h.merge(k);
        }
        h
    }
}

/// Counters read from the last engine of the run after the stream.
#[derive(Debug, Clone)]
pub struct EngineFacts {
    pub ingest: IngestStats,
    pub publish: PublishStats,
    pub run: RunStats,
    pub tally: Option<MetricTally>,
    pub rc_steps: usize,
    pub cut_edges: usize,
    pub vertex_balance: f64,
}

/// Raw measurements of one run; [`crate::report`] turns them into metrics.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub spec: Spec,
    pub seed: u64,
    pub setup_s: Vec<f64>,
    pub converge_s: Vec<f64>,
    /// End-to-end samples per stream episode; cold-start has one entry
    /// whose arrivals are the cycles' graphs.
    pub episodes: Vec<EpisodeFigures>,
    /// Arrivals (cycles on cold-start), the windows they were measured in
    /// and the driver's time inside engine calls, over every episode.
    pub arrivals: usize,
    pub window_s: f64,
    pub engine_busy_s: f64,
    /// Call timings of the last engine: its stream episode's submits,
    /// drains and backlog, and its `run_to_convergence` plus `rc_step`
    /// time.
    pub submit_us: Vec<f64>,
    pub wait_ms: Vec<f64>,
    pub backlog_peak: usize,
    pub drain_ms: Vec<f64>,
    pub drain_busy_s: f64,
    pub compute_busy_s: f64,
    pub reader: ReaderOut,
    pub peak_rss_mb: f64,
    /// Share of the machine's busy CPU time the hypervisor stole during
    /// the run (`/proc/stat`), or `None` where it is not reported.
    pub steal_frac: Option<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub facts: EngineFacts,
    /// Σ encoded bytes of the view deltas the benchmark's calls published
    /// (traced run only).
    pub delta_bytes: u64,
    pub trace: Option<TraceData>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64 + self.reader.failed
    }

    pub fn busy_frac(&self) -> f64 {
        self.engine_busy_s / self.window_s
    }

    pub fn saturated(&self) -> bool {
        self.spec.episodes > 0 && self.busy_frac() > SATURATED_BUSY_FRAC
    }
}

/// End-to-end samples of one stream episode.
#[derive(Debug, Clone, Default)]
pub struct EpisodeFigures {
    /// Change-to-visible and change-to-exact latencies (ms), one per
    /// arrival; on cold-start the arrival is the whole graph of a cycle.
    pub visible_ms: Vec<f64>,
    pub exact_ms: Vec<f64>,
    pub arrivals: usize,
    /// Seconds the driver spent inside engine calls.
    pub busy_s: f64,
}

/// Spans of the traced run and what they say about the last engine.
#[derive(Debug, Clone)]
pub struct TraceData {
    pub bench: Vec<BenchSpan>,
    pub engine: Vec<EngineSpan>,
    /// Clock-offset uncertainty per engine (µs).
    pub calibration_us: Vec<f64>,
    pub layers: LayerTimes,
    /// Per-rank superstep busy time of the last engine (µs).
    pub rank_busy_us: Vec<f64>,
}

/// Tracks what the driver sees of the published epoch.
struct Epochs {
    last: u64,
    checks: u64,
}

impl Epochs {
    fn observe(&mut self, epoch: u64, strict: bool, failures: &mut Vec<String>, at: &str) {
        self.checks += 1;
        if epoch < self.last || (strict && epoch == self.last) {
            failures.push(format!("epoch did not increase after {at}: {} then {epoch}", self.last));
        }
        self.last = epoch;
    }
}

/// Runs `spec` with inputs from `seed`. With `traced`, every engine gets a
/// `MemorySink` and every benchmark call is recorded as a span.
pub fn run(spec: &Spec, seed: u64, traced: bool) -> Outcome {
    let inputs = generate(spec, seed);
    let ticks0 = cpu_ticks();
    let clock = Clock::start();
    let span_clock = traced.then_some(&clock);
    let mut tracer = Tracer::new(traced);
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut setup_s = Vec::new();
    let mut converge_s = Vec::new();
    let mut cycle_visible_ms = Vec::new();
    let mut cycle_exact_ms = Vec::new();
    let mut reader = ReaderOut::default();
    let mut streams: Vec<Stream> = Vec::new();
    let mut sinks: Vec<Arc<MemorySink>> = Vec::new();
    let mut engine: Option<AnytimeEngine> = None;
    let mut compute_busy_s = 0.0;
    let first_episode = spec.cycles - inputs.episodes.len();

    for cycle in 0..spec.cycles {
        drop(engine.take());
        let phase = tracer.record(span("cycle", clock.now_us(), cycle, None, vec![], None));
        let sink = traced.then(|| Arc::new(MemorySink::new()));
        let graph = inputs.bases[cycle].clone();
        let a = clock.now_us();
        let built = match &sink {
            Some(s) => AnytimeEngine::with_sink(graph, spec.config(), s.clone()),
            None => AnytimeEngine::new(graph, spec.config()),
        };
        let b = clock.now_us();
        let mut e = built.expect("the base graph and config are valid");
        tracer.record(span("new", a, cycle, phase, vec![], None).ending(b));
        setup_s.push((b - a) / 1e6);
        let mut epochs = Epochs { last: 0, checks: 0 };
        epochs.observe(e.published().epoch, false, &mut failures, "new");

        let from = e.rc_steps_done();
        let c = clock.now_us();
        let summary = e.run_to_convergence();
        let d = clock.now_us();
        tracer.record(
            span("run_to_convergence", c, cycle, phase, vec![], Some((from, e.rc_steps_done())))
                .ending(d),
        );
        converge_s.push((d - c) / 1e6);
        compute_busy_s = (d - c) / 1e6;
        epochs.observe(e.published().epoch, true, &mut failures, "run_to_convergence");
        attempted += epochs.checks;
        if !summary.converged {
            failures.push(format!("cycle {cycle} did not converge"));
        }
        cycle_visible_ms.push((b - a) / 1e3);
        cycle_exact_ms.push((d - a) / 1e3);
        if spec.reader == Reader::AfterEachCycle {
            let handle = ServeHandle::attach(&e);
            let out = with_reader(true, &handle, spec, &inputs.mix, span_clock, || {
                std::thread::sleep(Duration::from_secs_f64(spec.serve_s));
            });
            reader.merge(out);
        }
        tracer.close(phase, clock.now_us());

        if let Some(ep) = cycle.checked_sub(first_episode).map(|k| &inputs.episodes[k]) {
            let handle = ServeHandle::attach(&e);
            let during = spec.reader == Reader::DuringStream;
            let mut one = Stream::default();
            let out = with_reader(during, &handle, spec, &inputs.mix, span_clock, || {
                one = drive(&mut e, &ep.arrivals, &clock, &mut tracer, cycle);
            });
            reader.merge(out);
            compute_busy_s += one.compute_busy_s;
            streams.push(one);
            attempted += check_final(&e, spec, &ep.final_graph, &mut failures);
        }
        sinks.extend(sink);
        engine = Some(e);
    }
    let engine = engine.expect("at least one setup cycle");
    let last = spec.cycles - 1;
    let events: Vec<Vec<SpanEvent>> = sinks.iter().map(|s| s.drain()).collect();
    let peak_rss_mb = peak_rss_mb();
    let steal_frac = ticks0.zip(cpu_ticks()).map(|(a, b)| steal_between(&a, &b));
    if inputs.episodes.is_empty() {
        attempted += check_final(&engine, spec, &inputs.bases[last], &mut failures);
    }
    attempted += reader.calls;
    for s in &mut streams {
        attempted += s.attempted;
        failures.append(&mut s.failures);
    }

    let facts = EngineFacts {
        ingest: engine.ingest_stats(),
        publish: engine.publish_stats(),
        run: engine.stats(),
        tally: engine.metric_tally(MetricKind::Betweenness),
        rc_steps: engine.rc_steps_done(),
        cut_edges: cut_edges(engine.graph(), engine.partition()),
        vertex_balance: vertex_balance(engine.partition()),
    };
    // Without a stream, each cycle's arrival is the whole graph.
    let (episodes, window_s) = if streams.is_empty() {
        let cycles_s: f64 = setup_s.iter().chain(&converge_s).sum();
        let all = EpisodeFigures {
            visible_ms: cycle_visible_ms,
            exact_ms: cycle_exact_ms,
            arrivals: spec.cycles,
            busy_s: cycles_s,
        };
        (vec![all], cycles_s)
    } else {
        let figures = streams
            .iter_mut()
            .map(|s| EpisodeFigures {
                visible_ms: std::mem::take(&mut s.visible_ms),
                exact_ms: std::mem::take(&mut s.exact_ms),
                arrivals: s.submit_us.len(),
                busy_s: s.busy_s,
            })
            .collect();
        (figures, streams.iter().map(|s| s.window_s).sum())
    };
    let arrivals = episodes.iter().map(|e| e.arrivals).sum();
    let engine_busy_s = episodes.iter().map(|e| e.busy_s).sum();
    // Per-layer figures describe the last engine, like its counters.
    let stream = streams.pop().unwrap_or_default();
    let trace = traced.then(|| analyse(&tracer.spans, &events, last, &reader.spans));
    Outcome {
        spec: spec.clone(),
        seed,
        setup_s,
        converge_s,
        episodes,
        submit_us: stream.submit_us,
        wait_ms: stream.wait_ms,
        backlog_peak: stream.backlog_peak,
        drain_ms: stream.drain_ms,
        drain_busy_s: stream.drain_busy_s,
        compute_busy_s,
        arrivals,
        window_s,
        engine_busy_s,
        reader,
        peak_rss_mb,
        steal_frac,
        attempted,
        failures,
        facts,
        delta_bytes: stream.delta_bytes,
        trace,
    }
}

fn span(
    name: &'static str,
    start_us: f64,
    engine: usize,
    parent: Option<usize>,
    ids: Vec<u32>,
    steps: Option<(usize, usize)>,
) -> BenchSpan {
    BenchSpan { name, start_us, end_us: start_us, parent, ids, engine, steps }
}

impl BenchSpan {
    fn ending(mut self, end_us: f64) -> Self {
        self.end_us = end_us;
        self
    }
}

/// Runs `body` on this thread while a reader thread queries `handle` (when
/// `enabled`); stops and joins the reader when `body` returns. With a
/// `span_clock` the reader records a sample of its calls as spans.
fn with_reader(
    enabled: bool,
    handle: &ServeHandle,
    spec: &Spec,
    mix: &[Query],
    span_clock: Option<&Clock>,
    body: impl FnOnce(),
) -> ReaderOut {
    if !enabled {
        body();
        return ReaderOut::default();
    }
    let stop = AtomicBool::new(false);
    let expect_bounds = spec.bounds == BoundsMode::Certified;
    let started = Instant::now();
    let mut out = std::thread::scope(|s| {
        let reader = s.spawn(|| read_loop(handle, mix, expect_bounds, &stop, span_clock));
        body();
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread panicked")
    });
    out.active_s = started.elapsed().as_secs_f64();
    out
}

/// The reader: cycles through the precomputed mix, timing each call on its
/// own and checking every answer.
fn read_loop(
    h: &ServeHandle,
    mix: &[Query],
    expect_bounds: bool,
    stop: &AtomicBool,
    span_clock: Option<&Clock>,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut last_epoch = h.epoch();
    out.epochs_seen = 1;
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let q = &mix[i as usize % mix.len()];
        let sampled = span_clock.filter(|_| i.is_multiple_of(READER_SPAN_EVERY));
        let a = sampled.map_or(0.0, Clock::now_us);
        let t = Instant::now();
        let ok = match q {
            Query::Point(v) => {
                let r = h.point(*v);
                out.by_kind[0].record(t.elapsed().as_nanos() as u64);
                r.is_some_and(f64::is_finite)
            }
            Query::Points(ids) => {
                let r = h.points(ids);
                out.by_kind[1].record(t.elapsed().as_nanos() as u64);
                r.len() == ids.len() && r.iter().all(|x| x.is_some_and(f64::is_finite))
            }
            Query::TopK(k) => {
                let r = h.top_k(*k);
                out.by_kind[2].record(t.elapsed().as_nanos() as u64);
                r.len() == *k && r.iter().all(|(_, c)| c.is_finite())
            }
            Query::Bound(v) => {
                let r = h.error_bound(*v);
                out.by_kind[3].record(t.elapsed().as_nanos() as u64);
                // Without certified bounds the documented answer is `None`.
                match r {
                    Some(b) => expect_bounds && b.is_finite() && b >= 0.0,
                    None => !expect_bounds,
                }
            }
        };
        if let Some(clock) = sampled {
            let name = QUERY_KINDS[q.kind()];
            out.spans.push(span(name, a, usize::MAX, None, vec![], None).ending(clock.now_us()));
        }
        if !ok {
            out.failed += 1;
        }
        if i.is_multiple_of(EPOCH_CHECK_EVERY) {
            let e = h.epoch();
            if e < last_epoch {
                out.failed += 1;
            } else if e > last_epoch {
                out.epochs_seen += 1;
                last_epoch = e;
            }
        }
        i += 1;
    }
    out.calls = i;
    out
}

/// What the open-loop driver measured.
#[derive(Debug, Default)]
struct Stream {
    visible_ms: Vec<f64>,
    exact_ms: Vec<f64>,
    submit_us: Vec<f64>,
    wait_ms: Vec<f64>,
    drain_ms: Vec<f64>,
    backlog_peak: usize,
    ingest_busy_s: f64,
    drain_busy_s: f64,
    compute_busy_s: f64,
    busy_s: f64,
    window_s: f64,
    delta_bytes: u64,
    attempted: u64,
    failures: Vec<String>,
}

/// The open-loop driver: submits every due arrival, drains if anything is
/// pending, steps while not converged, and otherwise sleeps until the next
/// due time. Latencies run from due times, so a stall also charges the
/// arrivals queued behind it.
fn drive(
    engine: &mut AnytimeEngine,
    arrivals: &[Arrival],
    clock: &Clock,
    tracer: &mut Tracer,
    engine_idx: usize,
) -> Stream {
    let n = arrivals.len();
    let mut out =
        Stream { visible_ms: vec![f64::NAN; n], exact_ms: vec![f64::NAN; n], ..Stream::default() };
    let mut epochs = Epochs { last: engine.published().epoch, checks: 0 };
    let t0 = clock.now_us();
    let phase = tracer.record(span("stream", t0, engine_idx, None, vec![], None));
    let due_us = |i: usize| t0 + arrivals[i].due.as_secs_f64() * 1e6;
    let (mut next, mut converged) = (0usize, true);
    let mut pending: Vec<u32> = Vec::new();
    let mut unconverged: Vec<u32> = Vec::new();
    let delta_bytes =
        |e: &AnytimeEngine| e.last_view_delta().map_or(0, |d| d.encoded_bytes() as u64);
    loop {
        if next < n && due_us(next) <= clock.now_us() {
            while next < n && due_us(next) <= clock.now_us() {
                let change = arrivals[next].change.clone();
                let a = clock.now_us();
                let res = engine.submit(change);
                let b = clock.now_us();
                tracer.record(
                    span("submit", a, engine_idx, phase, vec![next as u32], None).ending(b),
                );
                out.wait_ms.push((a - due_us(next)) / 1e3);
                out.submit_us.push(b - a);
                out.ingest_busy_s += (b - a) / 1e6;
                out.attempted += 1;
                match res {
                    Ok(()) => pending.push(next as u32),
                    Err(e) => out.failures.push(format!("submit of arrival {next} rejected: {e}")),
                }
                next += 1;
            }
            out.backlog_peak = out.backlog_peak.max(engine.pending_changes());
        } else if !pending.is_empty() {
            let a = clock.now_us();
            let res = engine.drain_changes();
            let b = clock.now_us();
            out.drain_ms.push((b - a) / 1e3);
            out.drain_busy_s += (b - a) / 1e6;
            match res {
                Ok(applied) => epochs.observe(
                    engine.published().epoch,
                    applied > 0,
                    &mut out.failures,
                    "drain",
                ),
                Err(e) => out.failures.push(format!("drain failed: {e}")),
            }
            for &i in &pending {
                out.visible_ms[i as usize] = (b - due_us(i as usize)) / 1e3;
            }
            if tracer.on {
                out.delta_bytes += delta_bytes(engine);
                tracer.record(
                    span("drain_changes", a, engine_idx, phase, pending.clone(), None).ending(b),
                );
            }
            unconverged.append(&mut pending);
            converged = false;
        } else if !converged {
            let from = engine.rc_steps_done();
            let a = clock.now_us();
            let more = engine.rc_step();
            let b = clock.now_us();
            out.compute_busy_s += (b - a) / 1e6;
            epochs.observe(engine.published().epoch, true, &mut out.failures, "rc_step");
            if tracer.on {
                out.delta_bytes += delta_bytes(engine);
                let s = span(
                    "rc_step",
                    a,
                    engine_idx,
                    phase,
                    unconverged.clone(),
                    Some((from, from + 1)),
                );
                tracer.record(s.ending(b));
            }
            if !more {
                converged = true;
                for i in unconverged.drain(..) {
                    out.exact_ms[i as usize] = (b - due_us(i as usize)) / 1e3;
                }
            }
        } else if next == n {
            break;
        } else {
            let wait = due_us(next) - clock.now_us();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait / 1e6));
            }
        }
    }
    let end = clock.now_us();
    tracer.close(phase, end);
    out.window_s = (end - t0) / 1e6;
    out.busy_s = out.ingest_busy_s + out.drain_busy_s + out.compute_busy_s;
    out.attempted += epochs.checks;
    out
}

/// Oracle checks on an engine whose work is done, outside every timed
/// window: it must hold `expected` and publish the exact answers. Returns
/// the number of checks made; violations go to `failures`.
fn check_final(
    engine: &AnytimeEngine,
    spec: &Spec,
    expected: &AdjGraph,
    failures: &mut Vec<String>,
) -> u64 {
    let mut checks = 0;
    let mut check = |ok: bool, what: &str| {
        checks += 1;
        if !ok {
            failures.push(what.to_string());
        }
    };
    check(
        sorted_edges(engine.graph()) == sorted_edges(expected),
        "final graph differs from the schedule's",
    );
    let view = engine.published();
    check(view.converged, "last published view is not converged");
    let csr = Csr::from_adj(engine.graph());
    let exact = closeness_exact(&csr);
    check(
        bits(&view.closeness()) == bits(&exact),
        "published closeness differs from the APSP oracle",
    );
    if spec.metrics.contains(&MetricKind::Betweenness) {
        let col = view.metric_values(MetricKind::Betweenness).unwrap_or_default();
        check(
            bits(&col) == bits(&betweenness_exact_det(&csr)),
            "published betweenness differs from Brandes",
        );
    }
    if spec.bounds == BoundsMode::Certified {
        let b = view.bounds();
        check(
            view.has_bounds()
                && b.len() == view.num_vertices()
                && b.iter().all(|x| x.is_finite() && *x >= 0.0),
            "certified bounds missing or negative",
        );
    }
    checks
}

fn sorted_edges(g: &AdjGraph) -> (usize, Vec<(u32, u32, u32)>) {
    let mut e: Vec<_> = g.edges().map(|(u, v, w)| (u.min(v), u.max(v), w)).collect();
    e.sort_unstable();
    (g.num_vertices(), e)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `VmHWM` of this process in MB (MiB), or 0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The aggregate `cpu` line of `/proc/stat`: user, nice, system, idle,
/// iowait, irq, softirq and steal ticks.
fn cpu_ticks() -> Option<[u64; 8]> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let mut fields = stat.lines().next()?.split_whitespace().skip(1).map(str::parse::<u64>);
    let mut out = [0u64; 8];
    for slot in &mut out {
        *slot = fields.next()?.ok()?;
    }
    Some(out)
}

/// Stolen share of the CPU time that was busy or stolen (user, nice,
/// system, irq, softirq, steal) between two `/proc/stat` readings.
fn steal_between(a: &[u64; 8], b: &[u64; 8]) -> f64 {
    let d: Vec<f64> = a.iter().zip(b).map(|(x, y)| y.saturating_sub(*x) as f64).collect();
    let busy = d[0] + d[1] + d[2] + d[5] + d[6] + d[7];
    if busy > 0.0 {
        d[7] / busy
    } else {
        0.0
    }
}

/// Maps each engine's events onto the benchmark clock and derives the last
/// engine's layer times.
fn analyse(
    bench: &[BenchSpan],
    events: &[Vec<SpanEvent>],
    last: usize,
    reader: &[BenchSpan],
) -> TraceData {
    let mut engine = Vec::new();
    let mut calibration_us = Vec::new();
    for (idx, ev) in events.iter().enumerate() {
        match trace::calibrate(idx, ev, bench) {
            Some(cal) => {
                calibration_us.push(cal.half_width_us);
                engine.extend(trace::map_events(idx, ev, cal, bench));
            }
            None => calibration_us.push(f64::NAN),
        }
    }
    let last_bench: Vec<BenchSpan> = bench.iter().filter(|b| b.engine == last).cloned().collect();
    let last_engine: Vec<EngineSpan> =
        engine.iter().filter(|e| e.engine == last).copied().collect();
    let layers = trace::layer_times(&last_bench, &last_engine);
    let mut rank_busy_us: Vec<f64> = Vec::new();
    for e in last_engine.iter().filter(|e| e.event.rank >= 0) {
        let r = e.event.rank as usize;
        if rank_busy_us.len() <= r {
            rank_busy_us.resize(r + 1, 0.0);
        }
        rank_busy_us[r] += e.event.wall_dur_us;
    }
    let mut all_bench = bench.to_vec();
    all_bench.extend_from_slice(reader);
    TraceData { bench: all_bench, engine, calibration_us, layers, rank_busy_us }
}
