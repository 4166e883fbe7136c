//! Self-tests of the benchmark: seeded inputs, the percentile helpers, and
//! a tiny-scale run of every workload against the names `BENCHMARK.json`
//! declares.

use perfbench::report::{self, END_TO_END, OVERHEAD, PER_LAYER};
use perfbench::run::run;
use perfbench::stats::{median, percentile, percentile_of, Hist};
use perfbench::workload::{generate, Reader, Spec, Workload};

const STREAMS: [Workload; 2] = [Workload::VertexStream, Workload::ChurnServe];

/// The window the benchmark is run with (`run_seconds` in `BENCHMARK.json`).
const SECONDS: f64 = 38.0;

#[test]
fn same_seed_same_inputs_other_seed_other_contents() {
    for w in STREAMS {
        let spec = w.spec(SECONDS);
        let (a, b, c) = (generate(&spec, 7), generate(&spec, 7), generate(&spec, 8));
        assert_eq!(a, b, "{}: same seed must give identical inputs", w.name());
        assert_ne!(a.bases, c.bases, "{}: base graphs must follow the seed", w.name());
        assert_ne!(a.mix, c.mix, "{}: query mix must follow the seed", w.name());
        assert_ne!(a.bases[0], a.bases[1], "{}: each cycle gets its own graph", w.name());
        // Contents change with the seed; sizes and rates do not.
        assert_eq!(a.bases.len(), spec.cycles);
        assert!(a.bases.iter().all(|g| g.num_vertices() == spec.n));
        assert_eq!(a.episodes.len(), c.episodes.len());
        assert!(spec.arrivals >= 100, "{}: p90 needs ten samples beyond it", w.name());
        for (x, y) in a.episodes.iter().zip(&c.episodes) {
            assert_eq!(x.arrivals.len(), spec.arrivals);
            assert!(x.arrivals.iter().zip(&y.arrivals).all(|(p, q)| p.due == q.due));
            assert!(x.arrivals.iter().zip(&y.arrivals).any(|(p, q)| p.change != q.change));
        }
    }
    let cold = Workload::ColdStart.spec(SECONDS);
    assert_eq!(generate(&cold, 3), generate(&cold, 3));
    assert!(generate(&cold, 3).episodes.is_empty());
}

#[test]
fn episodes_fill_the_window_with_evenly_spaced_arrivals() {
    for (w, episodes) in [(Workload::VertexStream, 2), (Workload::ChurnServe, 3)] {
        let spec = w.spec(SECONDS);
        let inputs = generate(&spec, 1);
        assert_eq!(inputs.episodes.len(), episodes, "{}", w.name());
        for ep in &inputs.episodes {
            for (i, a) in ep.arrivals.iter().enumerate() {
                let want = i as f64 / spec.rate_per_s;
                assert!((a.due.as_secs_f64() - want).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn nearest_rank_percentile_and_median() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), Some(5.0));
    assert_eq!(percentile(&v, 90.0), Some(9.0));
    assert_eq!(percentile(&v, 91.0), Some(10.0));
    assert_eq!(percentile(&v, 100.0), Some(10.0));
    assert_eq!(percentile(&v, 10.0), Some(1.0));
    assert_eq!(percentile(&v, 0.5), Some(1.0));
    assert_eq!(percentile(&[4.0], 99.0), Some(4.0));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn histogram_percentile_tracks_exact_samples() {
    let samples: Vec<u64> = (0..10_000u64).map(|i| 50 + (i * 7919) % 5000).collect();
    let mut h = Hist::default();
    for &s in &samples {
        h.record(s);
    }
    let exact: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
    for p in [50.0, 90.0, 99.0] {
        let want = percentile_of(&exact, p).unwrap();
        let got = h.percentile_ns(p).unwrap();
        assert!((got - want).abs() <= want * 0.02, "p{p}: {got} vs {want}");
    }
    assert_eq!(h.count(), 10_000);
    assert_eq!(Hist::default().percentile_ns(50.0), None);
}

/// Names listed under `section` of `BENCHMARK.json` (each entry's `name`).
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let sections = ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""];
    let start = text.find(section).expect("section present");
    let end = sections
        .iter()
        .filter_map(|s| text.find(s))
        .filter(|&i| i > start)
        .min()
        .unwrap_or(text.len());
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect()
}

fn names(list: &[(&str, &str)]) -> Vec<String> {
    list.iter().map(|(n, _)| n.to_string()).collect()
}

#[test]
fn benchmark_json_declares_exactly_what_the_benchmark_prints() {
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared("\"workloads\""), workloads);
    assert_eq!(declared("\"end_to_end\""), names(&END_TO_END));
    let mut layer = names(&PER_LAYER);
    layer.extend(names(&OVERHEAD));
    assert_eq!(declared("\"per_layer\""), layer);
}

/// Each workload shrunk to a second or less of work.
fn tiny(w: Workload) -> Spec {
    let mut spec = w.spec(1.0);
    spec.n = 60;
    spec.cycles = 2;
    if spec.episodes > 0 {
        spec.rate_per_s = 40.0;
        spec.arrivals = 12;
        spec.episodes = 2;
    }
    if spec.reader == Reader::AfterEachCycle {
        spec.serve_s = 0.02;
    }
    spec
}

#[test]
fn tiny_run_of_every_workload_is_correct_and_reports_every_metric() {
    for w in Workload::ALL {
        let spec = tiny(w);
        let untraced = run(&spec, 5, false);
        let traced = run(&spec, 5, true);
        for o in [&untraced, &traced] {
            assert_eq!(o.failed(), 0, "{}: {:?}", w.name(), o.failures);
            assert!(o.attempted > 0);
        }
        let e2e = report::end_to_end(&untraced);
        let layer = report::per_layer(&traced, &untraced);
        for values in [&e2e, &layer] {
            assert!(
                report::missing(values).is_empty(),
                "{}: {:?}",
                w.name(),
                report::missing(values)
            );
            let line = report::result_line(untraced.attempted, 0, values);
            for (name, _, _) in values.iter() {
                assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name} not printed");
            }
        }
        let printed: Vec<String> = e2e.iter().map(|(n, _, _)| n.to_string()).collect();
        assert_eq!(printed, declared("\"end_to_end\""));
        let printed: Vec<String> = layer.iter().map(|(n, _, _)| n.to_string()).collect();
        assert_eq!(printed, declared("\"per_layer\""));
        // The traced run maps engine spans onto the benchmark clock.
        let t = traced.trace.as_ref().expect("trace data");
        assert!(!t.engine.is_empty());
        assert!(t.calibration_us.iter().all(|c| c.is_finite()), "{:?}", t.calibration_us);
    }
}
