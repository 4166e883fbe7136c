//! Turns run outcomes into the named metrics of `BENCHMARK.json`, renders
//! the result line, and records the run's fingerprint.

use crate::run::{EpisodeFigures, Outcome};
use crate::stats::{median, percentile_of};
use crate::trace::{EngineSpan, Layer};
use crate::workload::nproc;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics: what a user of the engine waits on or pays.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("converge_s", "s"),
    ("visible_ms_p50", "ms"),
    ("visible_ms_p90", "ms"),
    ("exact_ms_p50", "ms"),
    ("changes_per_engine_s", "1/s"),
    ("queries_per_s", "1/s"),
    ("query_us_p50", "us"),
    ("query_us_p99", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, grouped by layer.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("ingest.submit_us_p50", "us"),
    ("ingest.wait_ms_p90", "ms"),
    ("ingest.backlog_peak", "count"),
    ("ingest.coalesced_frac", "ratio"),
    ("ingest.drains", "count"),
    ("ingest.self_ms", "ms"),
    ("driver.busy_frac", "ratio"),
    ("drain.calls", "count"),
    ("drain.busy_s", "s"),
    ("drain.ms_p50", "ms"),
    ("drain.ms_p90", "ms"),
    ("drain.rank_self_ms", "ms"),
    ("drain.broadcast_bytes", "bytes"),
    ("drain.publish_ms", "ms"),
    ("drain.self_ms", "ms"),
    ("compute.rc_steps", "count"),
    ("compute.busy_s", "s"),
    ("compute.step_ms_p50", "ms"),
    ("compute.sim_compute_s", "s"),
    ("compute.ia_ms", "ms"),
    ("compute.rank_imbalance", "ratio"),
    ("compute.self_ms", "ms"),
    ("exchange.messages", "count"),
    ("exchange.bytes", "bytes"),
    ("exchange.collectives", "count"),
    ("exchange.sim_comm_s", "s"),
    ("exchange.self_ms", "ms"),
    ("partition.dd_ms", "ms"),
    ("partition.cut_edges", "count"),
    ("partition.vertex_balance", "ratio"),
    ("partition.self_ms", "ms"),
    ("publish.epochs", "count"),
    ("publish.full_epochs", "count"),
    ("publish.changed_rows", "count"),
    ("publish.chunks_copied", "count"),
    ("publish.chunks_shared", "count"),
    ("publish.topk_rebuilds", "count"),
    ("publish.ms_total", "ms"),
    ("publish.ms_p90", "ms"),
    ("publish.delta_bytes", "bytes"),
    ("publish.self_ms", "ms"),
    ("metric.sources_recomputed", "count"),
    ("metric.full_recomputes", "count"),
    ("metric.changed_entries", "count"),
    ("serve.point_us_p50", "us"),
    ("serve.point_us_p99", "us"),
    ("serve.points32_us_p50", "us"),
    ("serve.top_k_us_p50", "us"),
    ("serve.bound_us_p50", "us"),
    ("serve.epochs_seen", "count"),
    ("serve.self_ms", "ms"),
];

/// Traced-minus-untraced medians, reported with the per-layer metrics.
pub const OVERHEAD: [(&str, &str); 4] = [
    ("trace.overhead_setup_s", "s"),
    ("trace.overhead_converge_s", "s"),
    ("trace.overhead_visible_ms_p50", "ms"),
    ("trace.overhead_exact_ms_p50", "ms"),
];

/// A metric value; `None` means the run produced no sample for it.
pub type Values = Vec<(&'static str, &'static str, Option<f64>)>;

/// The end-to-end metrics of a run. Stream figures are taken per episode
/// and their median reported, so a burst of host contention that hits one
/// episode does not carry the run.
pub fn end_to_end(o: &Outcome) -> Values {
    let all = o.reader.all();
    let us = |p| all.percentile_ns(p).map(|ns| ns / 1e3);
    let per_episode = |f: &dyn Fn(&EpisodeFigures) -> Option<f64>| {
        median(&o.episodes.iter().filter_map(f).collect::<Vec<_>>())
    };
    let v = [
        median(&o.setup_s),
        median(&o.converge_s),
        per_episode(&|e| percentile_of(&e.visible_ms, 50.0)),
        per_episode(&|e| percentile_of(&e.visible_ms, 90.0)),
        per_episode(&|e| percentile_of(&e.exact_ms, 50.0)),
        per_episode(&|e| Some(e.arrivals as f64 / e.busy_s)),
        Some(o.reader.calls as f64 / o.reader.active_s),
        us(50.0),
        us(99.0),
        Some(o.peak_rss_mb),
    ];
    END_TO_END.iter().zip(v).map(|(&(n, u), v)| (n, u, v)).collect()
}

/// Per-layer metrics of the traced outcome, plus the tracing overhead
/// against the untraced outcome of the same seed.
pub fn per_layer(traced: &Outcome, untraced: &Outcome) -> Values {
    let t = traced.trace.as_ref().expect("per-layer metrics need a traced run");
    let l = &t.layers;
    let f = &traced.facts;
    let r = &traced.reader;
    let count = |x: u64| Some(x as f64);
    let layer = |x: Layer| Some(l.self_ms[x as usize]);
    // Indices follow `QUERY_KINDS`: point, points32, top_k, bound.
    let kind_us = |k: usize, p: f64| r.by_kind[k].percentile_ns(p).map(|ns| ns / 1e3);
    let tally = f.tally.unwrap_or_default();
    let rank_mean = t.rank_busy_us.iter().sum::<f64>() / t.rank_busy_us.len().max(1) as f64;
    let rank_max = t.rank_busy_us.iter().copied().fold(0.0, f64::max);
    let sum_ms = |v: &[f64]| v.iter().sum::<f64>();
    let v = [
        percentile_of(&traced.submit_us, 50.0).or(Some(0.0)),
        percentile_of(&traced.wait_ms, 90.0).or(Some(0.0)),
        count(traced.backlog_peak as u64),
        Some(f.ingest.coalesced as f64 / f.ingest.submitted.max(1) as f64),
        count(f.ingest.drains),
        layer(Layer::Ingest),
        Some(traced.busy_frac()),
        count(traced.drain_ms.len() as u64),
        Some(traced.drain_busy_s),
        percentile_of(&traced.drain_ms, 50.0).or(Some(0.0)),
        percentile_of(&traced.drain_ms, 90.0).or(Some(0.0)),
        Some(l.drain_rank_ms),
        count(l.drain_broadcast_bytes),
        Some(l.drain_publish_ms),
        layer(Layer::Drain),
        count(f.rc_steps as u64),
        Some(traced.compute_busy_s),
        percentile_of(&l.step_ms, 50.0),
        Some(f.run.sim_compute_us / 1e6),
        Some(l.ia_ms),
        Some(if rank_mean > 0.0 { rank_max / rank_mean } else { 0.0 }),
        layer(Layer::Compute),
        count(f.run.messages),
        count(f.run.bytes),
        count(f.run.collectives),
        Some(f.run.sim_comm_us / 1e6),
        layer(Layer::Exchange),
        Some(l.dd_ms),
        count(f.cut_edges as u64),
        Some(f.vertex_balance),
        layer(Layer::Partition),
        count(f.publish.epochs),
        count(f.publish.full_epochs),
        count(f.publish.changed_rows),
        count(f.publish.chunks_copied),
        count(f.publish.chunks_shared),
        count(f.publish.topk_rebuilds),
        Some(sum_ms(&l.publish_ms)),
        percentile_of(&l.publish_ms, 90.0),
        count(traced.delta_bytes),
        layer(Layer::Publish),
        count(tally.sources_recomputed),
        count(tally.full_recomputes),
        count(tally.changed_entries),
        kind_us(0, 50.0),
        kind_us(0, 99.0),
        kind_us(1, 50.0),
        kind_us(2, 50.0),
        kind_us(3, 50.0),
        count(r.epochs_seen),
        Some(r.all().sum_ns() as f64 / 1e6),
    ];
    let mut out: Values = PER_LAYER.iter().zip(v).map(|(&(n, u), v)| (n, u, v)).collect();
    let (te, ue) = (end_to_end(traced), end_to_end(untraced));
    let diff = |name: &str| {
        let get = |vals: &Values| vals.iter().find(|(n, _, _)| *n == name).and_then(|(_, _, v)| *v);
        Some(get(&te)? - get(&ue)?)
    };
    let overhead =
        [diff("setup_s"), diff("converge_s"), diff("visible_ms_p50"), diff("exact_ms_p50")];
    out.extend(OVERHEAD.iter().zip(overhead).map(|(&(n, u), v)| (n, u, v)));
    out
}

/// Appends a JSON string literal.
fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A finite number as JSON (non-finite values cannot be written and are
/// reported as failures by [`result_line`]'s caller).
fn json_num(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push('0');
    }
}

/// Names of metrics without a finite value: each counts as a failure.
pub fn missing(values: &Values) -> Vec<&'static str> {
    values.iter().filter(|(_, _, v)| !v.is_some_and(f64::is_finite)).map(|(n, _, _)| *n).collect()
}

/// The last line of standard output.
pub fn result_line(attempted: u64, failed: u64, values: &Values) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit, v)) in values.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        json_str(&mut s, name);
        s.push_str(": {\"value\": ");
        json_num(&mut s, v.unwrap_or(f64::NAN));
        s.push_str(", \"unit\": ");
        json_str(&mut s, unit);
        s.push('}');
    }
    s.push_str("}}");
    s
}

/// The machine and build a result was measured on, so trajectory points
/// are compared only like for like.
pub fn fingerprint(o: &Outcome) -> String {
    let (executor, kernel_threads) = o.spec.executor();
    let mut s = String::from("{");
    let mut field = |k: &str, v: &str, quote: bool| {
        if s.len() > 1 {
            s.push_str(", ");
        }
        json_str(&mut s, k);
        s.push_str(": ");
        if quote {
            json_str(&mut s, v);
        } else {
            s.push_str(v);
        }
    };
    field("workload", o.spec.workload.name(), true);
    field("seed", &o.seed.to_string(), false);
    field("git_commit", &git_commit(), true);
    field("rustc", &rustc_version(), true);
    field("nproc", &nproc().to_string(), false);
    field("cpu_model", &cpu_model(), true);
    field("caches", &caches(), true);
    field("executor", executor, true);
    field("kernel_threads", &kernel_threads.to_string(), false);
    field("episodes", &o.spec.episodes.to_string(), false);
    field("arrivals", &o.arrivals.to_string(), false);
    field("reader_calls", &o.reader.calls.to_string(), false);
    field("driver_busy_frac", &format!("{:.4}", o.busy_frac()), false);
    field("saturated", &o.saturated().to_string(), false);
    let steal = o.steal_frac.map_or("null".to_string(), |f| format!("{f:.4}"));
    field("vm_steal_frac", &steal, false);
    s.push('}');
    s
}

/// The commit of the checkout, when it is a git work tree; source copies
/// without `.git` report `unknown`.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cache levels of CPU 0 from sysfs, e.g. `L1d 48K, L1i 32K, L2 2048K`.
fn caches() -> String {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = std::fs::read_dir(dir) else { return "unknown".into() };
    let mut found: Vec<String> = entries
        .filter_map(|e| {
            let p = e.ok()?.path();
            let read =
                |f: &str| std::fs::read_to_string(p.join(f)).ok().map(|s| s.trim().to_string());
            let kind = match read("type")?.as_str() {
                "Data" => "d",
                "Instruction" => "i",
                _ => "",
            };
            Some(format!("L{}{kind} {}", read("level")?, read("size")?))
        })
        .collect();
    found.sort();
    found.join(", ")
}

/// Writes the traced run's spans and layer times to `path` as JSON.
pub fn write_trace(path: &Path, traced: &Outcome, values: &Values) -> std::io::Result<()> {
    let t = traced.trace.as_ref().expect("trace data of a traced run");
    let mut s = String::with_capacity(1 << 20);
    s.push_str("{\"fingerprint\": ");
    s.push_str(&fingerprint(traced));
    s.push_str(",\n\"metrics\": {");
    for (i, (name, unit, v)) in values.iter().enumerate() {
        s.push_str(if i > 0 { ",\n  " } else { "\n  " });
        json_str(&mut s, name);
        s.push_str(": {\"value\": ");
        json_num(&mut s, v.unwrap_or(f64::NAN));
        s.push_str(", \"unit\": ");
        json_str(&mut s, unit);
        s.push('}');
    }
    s.push_str("},\n\"calibration_half_width_us\": [");
    for (i, c) in t.calibration_us.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        json_num(&mut s, *c);
    }
    s.push_str("],\n\"bench_spans\": [");
    for (i, b) in t.bench.iter().enumerate() {
        s.push_str(if i > 0 { ",\n  " } else { "\n  " });
        s.push_str("{\"name\": ");
        json_str(&mut s, b.name);
        let parent = b.parent.map_or("null".to_string(), |p| p.to_string());
        let engine = if b.engine == usize::MAX { "null".to_string() } else { b.engine.to_string() };
        let _ = write!(
            s,
            ", \"start_us\": {:.1}, \"end_us\": {:.1}, \"parent\": {parent}, \"engine\": {engine}, \"ids\": {:?}}}",
            b.start_us, b.end_us, b.ids
        );
    }
    s.push_str("],\n\"engine_spans\": [");
    for (i, e) in t.engine.iter().enumerate() {
        s.push_str(if i > 0 { ",\n  " } else { "\n  " });
        engine_span(&mut s, e);
    }
    s.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}

fn engine_span(s: &mut String, e: &EngineSpan) {
    let _ = write!(
        s,
        "{{\"kind\": \"{}\", \"engine\": {}, \"rank\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}, \"messages\": {}, \"bytes\": {}}}",
        e.event.kind.name(),
        e.engine,
        e.event.rank,
        e.start_us,
        e.end_us,
        e.event.messages,
        e.event.bytes
    );
}
