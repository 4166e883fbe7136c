//! The three workloads and everything generated from `--seed` before the
//! engine starts: the base graphs, the arrival schedule of every stream
//! episode (due times plus the full contents of every change) and the
//! reader's query mix.
//!
//! Arrival contents are generated against a *shadow* graph that replays
//! every earlier arrival, so they are a pure function of the seed and stay
//! valid however the engine later coalesces or batches them.

use anytime_anywhere::core::changes::{self, CommunityBatchParams};
use anytime_anywhere::core::{BoundsMode, DynamicChange, EngineConfig, MetricKind};
use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};
use anytime_anywhere::graph::{AdjGraph, VertexId};
use anytime_anywhere::runtime::ExecutionMode;
use std::time::Duration;

/// SplitMix64: a tiny seeded generator, so the schedule depends on the seed
/// and on nothing else.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    VertexStream,
    ChurnServe,
    ColdStart,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::VertexStream, Workload::ChurnServe, Workload::ColdStart];

    pub fn name(self) -> &'static str {
        match self {
            Workload::VertexStream => "vertex-stream",
            Workload::ChurnServe => "churn-serve",
            Workload::ColdStart => "cold-start",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload at full size for a measurement window of `seconds`.
    /// The stream workloads fill the window with back-to-back episodes of a
    /// fixed length, each on its own cycle's graph; cold-start runs a fixed
    /// number of cycles.
    pub fn spec(self, seconds: f64) -> Spec {
        let episodes = |len_s: f64| ((seconds / len_s + 1e-9).floor() as usize).max(1);
        let (vertex_episodes, churn_episodes) = (episodes(17.0), episodes(12.5));
        match self {
            Workload::VertexStream => Spec {
                workload: self,
                n: 500,
                sequential: false,
                bounds: BoundsMode::None,
                metrics: vec![],
                cycles: vertex_episodes.max(15),
                rate_per_s: 6.0,
                // 17 s at 6/s: 102 arrivals grow the graph from 500 to
                // about 800 vertices, short of saturating the engine, and
                // leave ten samples beyond each episode's p90.
                arrivals: 102,
                episodes: vertex_episodes,
                reader: Reader::AfterEachCycle,
                // 1.5 s of reading over 15 cycles.
                serve_s: 0.1,
            },
            Workload::ChurnServe => Spec {
                workload: self,
                n: 800,
                sequential: true,
                bounds: BoundsMode::Certified,
                metrics: vec![],
                cycles: churn_episodes.max(9),
                rate_per_s: 8.0,
                // 12.5 s at 8/s: 100 arrivals, so each episode's p90 has
                // ten samples beyond it.
                arrivals: 100,
                episodes: churn_episodes,
                reader: Reader::DuringStream,
                serve_s: 0.0,
            },
            Workload::ColdStart => Spec {
                workload: self,
                n: 2000,
                sequential: false,
                bounds: BoundsMode::None,
                metrics: vec![MetricKind::Betweenness],
                cycles: 4,
                rate_per_s: 0.0,
                arrivals: 0,
                episodes: 0,
                reader: Reader::AfterEachCycle,
                // 1.2 s of reading over the 4 cycles.
                serve_s: 0.3,
            },
        }
    }
}

/// Base-graph attachment degree of every workload (Barabási–Albert `m`).
pub const BA_M: usize = 3;

/// Logical processors of every workload's engine.
pub const PROCS: usize = 4;

/// When the closed-loop reader thread runs. It issues its next call as
/// soon as the previous one returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reader {
    /// Beside the stream, on the live engine (churn-serve).
    DuringStream,
    /// For `serve_s` seconds after each cycle's convergence, while the
    /// engine is idle. A fresh thread per cycle samples whichever core it
    /// lands on, and many short phases average that out.
    AfterEachCycle,
}

/// Sizes, rates and engine settings of one workload. The seed changes the
/// contents, never these.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    /// Base-graph vertices.
    pub n: usize,
    /// Sequential executor (one kernel thread) instead of the parallel one.
    pub sequential: bool,
    pub bounds: BoundsMode,
    pub metrics: Vec<MetricKind>,
    /// Setup cycles (`new` + `run_to_convergence`, each on its own base
    /// graph).
    pub cycles: usize,
    pub rate_per_s: f64,
    /// Arrivals per stream episode.
    pub arrivals: usize,
    /// Stream episodes, one on each of the last `episodes` cycles' engines.
    pub episodes: usize,
    pub reader: Reader,
    /// Reading time after each cycle under [`Reader::AfterEachCycle`].
    pub serve_s: f64,
}

impl Spec {
    pub fn config(&self) -> EngineConfig {
        let mut c = if self.sequential {
            EngineConfig::deterministic(PROCS)
        } else {
            EngineConfig::with_procs(PROCS)
        };
        c.publish_bounds = self.bounds;
        c.metrics = self.metrics.clone();
        c
    }

    /// Executor name and relaxation-kernel threads, as the engine picks
    /// them for this config (one thread sequential, every core parallel).
    pub fn executor(&self) -> (&'static str, usize) {
        match self.config().cluster.mode {
            ExecutionMode::Sequential => ("sequential", 1),
            ExecutionMode::Parallel => ("parallel", nproc()),
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// One scheduled change: due `due` after the stream starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub change: DynamicChange,
}

/// One reader call of the query mix.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    Point(VertexId),
    Points(Vec<VertexId>),
    TopK(usize),
    Bound(VertexId),
}

impl Query {
    /// Index into the per-kind latency tables.
    pub fn kind(&self) -> usize {
        match self {
            Query::Point(_) => 0,
            Query::Points(_) => 1,
            Query::TopK(_) => 2,
            Query::Bound(_) => 3,
        }
    }
}

pub const QUERY_KINDS: [&str; 4] = ["point", "points32", "top_k", "bound"];

/// Length of the query mix the reader cycles through.
pub const MIX_LEN: usize = 4096;

/// Everything a run feeds the engine, fixed before the engine starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// One base graph per setup cycle, so setup and convergence medians
    /// average over graphs.
    pub bases: Vec<AdjGraph>,
    /// The stream episodes, for the last `episodes.len()` cycles in order.
    pub episodes: Vec<Episode>,
    pub mix: Vec<Query>,
}

/// One stream: arrivals due from the episode's start, generated against its
/// cycle's base graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Episode {
    pub arrivals: Vec<Arrival>,
    /// The graph once every arrival has applied; the engine must end on it.
    pub final_graph: AdjGraph,
}

/// Derives independent sub-seeds so that the graph, the stream and the mix
/// do not share random draws.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let bases: Vec<AdjGraph> = (0..spec.cycles as u64)
        .map(|c| {
            barabasi_albert(spec.n, BA_M, WeightModel::Unit, sub_seed(seed, 16 + c))
                .expect("BA parameters are valid")
        })
        .collect();
    assert!(spec.episodes <= spec.cycles, "every episode runs on a cycle's engine");
    let episodes = bases[spec.cycles - spec.episodes..]
        .iter()
        .zip(0u64..)
        .map(|(base, k)| episode(spec, base, sub_seed(seed, 1024 + k)))
        .collect();
    let mix = query_mix(spec.n, sub_seed(seed, 3));
    Inputs { bases, episodes, mix }
}

fn episode(spec: &Spec, base: &AdjGraph, seed: u64) -> Episode {
    let mut shadow = base.clone();
    let mut rng = Rng::new(seed);
    let mut toggle_remove = true;
    let arrivals = (0..spec.arrivals)
        .map(|i| {
            let change = match spec.workload {
                Workload::VertexStream => vertex_arrival(&shadow, i, &mut rng),
                Workload::ChurnServe => edge_arrival(&shadow, &mut rng, &mut toggle_remove),
                Workload::ColdStart => unreachable!("cold-start has no arrivals"),
            };
            apply(&mut shadow, &change);
            Arrival { due: Duration::from_secs_f64(i as f64 / spec.rate_per_s), change }
        })
        .collect();
    Episode { arrivals, final_graph: shadow }
}

/// Three of every four arrivals are 1–2 preferential vertices with three
/// edges each; every fourth is an 8-vertex community batch (§V.B.2).
fn vertex_arrival(g: &AdjGraph, i: usize, rng: &mut Rng) -> DynamicChange {
    let batch = if i % 4 == 3 {
        let params = CommunityBatchParams {
            count: 8,
            community_size: 4,
            p_in: 0.5,
            p_out: 0.05,
            attach_edges: 1,
            seed: rng.next_u64(),
        };
        changes::community_batch(g, &params).0
    } else {
        let count = 1 + rng.below(2) as usize;
        changes::preferential_batch(g, count, 3, rng.next_u64())
    };
    DynamicChange::AddVertices(batch)
}

/// A random vertex pair: an absent pair gains an edge of weight 1–3, a
/// present one is removed or re-weighted, in turn.
fn edge_arrival(g: &AdjGraph, rng: &mut Rng, toggle_remove: &mut bool) -> DynamicChange {
    let n = g.num_vertices() as u64;
    let (u, v) = loop {
        let (u, v) = (rng.below(n) as VertexId, rng.below(n) as VertexId);
        if u != v {
            break (u, v);
        }
    };
    match g.edge_weight(u, v) {
        None => DynamicChange::AddEdge { u, v, w: 1 + rng.below(3) as u32 },
        Some(w) => {
            *toggle_remove = !*toggle_remove;
            if !*toggle_remove {
                DynamicChange::RemoveEdge { u, v }
            } else {
                // A different weight in 1..=3, so the change is never a no-op.
                DynamicChange::SetWeight { u, v, w: 1 + (w + rng.below(2) as u32) % 3 }
            }
        }
    }
}

/// Replays a change on the shadow graph, the way the engine will apply it.
fn apply(g: &mut AdjGraph, change: &DynamicChange) {
    match change {
        DynamicChange::AddVertices(batch) => {
            let base = g.add_vertices(batch.len());
            for (a, b, w) in batch.global_edges(base) {
                g.add_edge(a, b, w).expect("generated batch edges are valid");
            }
        }
        DynamicChange::AddEdge { u, v, w } => g.add_edge(*u, *v, *w).expect("pair was absent"),
        DynamicChange::RemoveEdge { u, v } => g.remove_edge(*u, *v).expect("pair was present"),
        DynamicChange::SetWeight { u, v, w } => g.set_weight(*u, *v, *w).expect("pair was present"),
        DynamicChange::RemoveVertices(_) => unreachable!("no workload removes vertices"),
    }
}

/// 60% `point`, 20% `points` of 32 ids, 10% `top_k(10)`, 10% `error_bound`,
/// over base-graph vertices (which exist for the whole run).
fn query_mix(n: usize, seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(seed);
    let id = |rng: &mut Rng| rng.below(n as u64) as VertexId;
    (0..MIX_LEN)
        .map(|_| match rng.below(10) {
            0..=5 => Query::Point(id(&mut rng)),
            6 | 7 => Query::Points((0..32).map(|_| id(&mut rng)).collect()),
            8 => Query::TopK(10),
            _ => Query::Bound(id(&mut rng)),
        })
        .collect()
}
