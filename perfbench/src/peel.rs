//! The `peel` phase, the paper's experiment: the default engine
//! (`ParallelOpts::default()`, the Adaptive strategy) peels 4-uniform
//! `Gnm` hypergraphs to their 2-core at c = 0.70 (below c* ≈ 0.772) and
//! c = 0.85 (above), repeatedly, over graphs sampled during set-up. No
//! service code runs.
//!
//! Check: every run must agree with `peel_rounds_serial` on the same
//! graph (rounds and core size); the c = 0.70 graphs must peel to empty
//! and the c = 0.85 graphs must leave a nonempty 2-core.

use std::time::Instant;

use peel_analysis::fixedpoint::above_threshold;
use peel_analysis::Idealized;
use peel_core::{peel_parallel_in, peel_rounds_serial, ParallelOpts, PeelWorkspace, Strategy};
use peel_graph::models::Gnm;
use peel_graph::rng::Xoshiro256StarStar;
use peel_graph::Hypergraph;

use crate::trace::{mean, StealMeter, Windows};
use crate::{replay, timed, Ctx, Phase, Tally};

const K: u32 = 2;
const R: usize = 4;
/// Edge densities: below and above the threshold.
const DENSITIES: [(&str, f64); 2] = [("below", 0.70), ("above", 0.85)];
/// Graphs sampled per density in each round.
const GRAPHS_PER_DENSITY: usize = 2;
/// Pool sizes of the thread sweep: 1 … the 2 hardware threads of the
/// reference box.
const SWEEP: [usize; 2] = [1, 2];

struct Graph {
    density: usize,
    g: Hypergraph,
    /// The serial reference: rounds, core vertices, core edges.
    expect: (u32, u64, u64),
}

struct Setup {
    graphs: Vec<Graph>,
    ws: PeelWorkspace,
    sample_ms: Vec<f64>,
}

fn setup(n: usize, seed: u64) -> Setup {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut graphs = Vec::new();
    let mut sample_ms = Vec::new();
    for _ in 0..GRAPHS_PER_DENSITY {
        for (density, &(_, c)) in DENSITIES.iter().enumerate() {
            let t = Instant::now();
            let g = Gnm::new(n, c, R).sample(&mut rng);
            sample_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let serial = peel_rounds_serial(&g, K);
            graphs.push(Graph {
                density,
                g,
                expect: (serial.rounds, serial.core_vertices, serial.core_edges),
            });
        }
    }
    // Warm-up: size the workspace and fault its pages in.
    let mut ws = PeelWorkspace::new();
    for graph in &graphs {
        peel_parallel_in(&graph.g, K, &ParallelOpts::default(), &mut ws);
    }
    Setup {
        graphs,
        ws,
        sample_ms,
    }
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build a thread pool")
}

/// Predicted rounds of the idealized recurrence on `n` vertices: until
/// the survivors fall below half a vertex (below c*), or until they are
/// within half a vertex of the limiting 2-core (above c*).
fn predicted_rounds(c: f64, n: usize) -> f64 {
    let n = n as f64;
    let core = above_threshold(K, R as u32, c).map_or(0.0, |a| a.lambda);
    Idealized::new(K, R as u32, c)
        .take(100_000)
        .find(|s| (s.lambda - core) * n <= 0.5)
        .map_or(f64::INFINITY, |s| f64::from(s.i))
}

/// The peel phase's samples across rounds.
#[derive(Default)]
pub struct Peel {
    ns_per_edge: [Windows; 2],
    sample_ms: Vec<f64>,
    tally: Tally,
    inst: Option<Setup>,
}

/// The pool of the machine's hardware threads.
fn machine_pool() -> rayon::ThreadPool {
    pool(std::thread::available_parallelism().map_or(1, |p| p.get()))
}

impl Phase for Peel {
    fn setup(&mut self, ctx: &Ctx, round: u64) -> f64 {
        let (setup, setup_s) = timed(|| setup(ctx.regime.peel_n, ctx.seed_for(31, round)));
        self.sample_ms.extend_from_slice(&setup.sample_ms);
        self.inst = Some(setup);
        setup_s
    }

    fn slice(&mut self, until: Instant) {
        let Setup { graphs, ws, .. } = self.inst.as_mut().expect("slice after setup");
        let tally = &mut self.tally;
        let mut ns_per_edge = [Vec::new(), Vec::new()];
        let steal = StealMeter::start();
        machine_pool().install(|| {
            for graph in graphs.iter().cycle() {
                if Instant::now() >= until {
                    break;
                }
                let t = Instant::now();
                let run = peel_parallel_in(&graph.g, K, &ParallelOpts::default(), ws);
                let ns = t.elapsed().as_nanos() as f64;
                ns_per_edge[graph.density].push(ns / graph.g.num_edges() as f64);
                let got = (run.rounds, run.core_vertices, run.core_edges);
                let empty_as_expected = run.success() == (graph.density == 0);
                tally.check(got == graph.expect && empty_as_expected, || {
                    format!(
                        "peel at c = {}: engine {got:?}, serial {:?}",
                        DENSITIES[graph.density].1, graph.expect
                    )
                });
            }
        });
        let steal = steal.share();
        for (all, window) in self.ns_per_edge.iter_mut().zip(ns_per_edge) {
            all.push(window, steal);
        }
    }

    fn check(&mut self) {
        // Every peel was checked as it ran.
        self.inst = None;
    }

    fn finish(self: Box<Self>, ctx: &mut Ctx, replay_until: Instant) {
        let Peel {
            mut ns_per_edge,
            sample_ms,
            mut tally,
            ..
        } = *self;
        if !ctx.traced {
            ctx.put(
                "peel_below_ns_per_edge",
                ns_per_edge[0].quiet_percentile(0.5),
                "ns/edge",
            );
            ctx.put(
                "peel_above_ns_per_edge",
                ns_per_edge[1].quiet_percentile(0.5),
                "ns/edge",
            );
            ctx.finish_phase("peel", tally);
            return;
        }

        let n = ctx.regime.peel_n;
        let Setup { graphs, mut ws, .. } = setup(n, ctx.seed_for(31, 0));
        let machine = machine_pool();
        let default_opts = ParallelOpts::default();
        // Traced: every engine on each graph, then the default engine on each
        // pool of the thread sweep.
        const ENGINES: [(&str, Strategy); 3] = [
            ("dense", Strategy::Dense),
            ("frontier", Strategy::Frontier),
            ("adaptive", Strategy::Adaptive),
        ];
        const SPANS: [[&str; 4]; 2] = [
            [
                "core.serial.below",
                "core.dense.below",
                "core.frontier.below",
                "core.adaptive.below",
            ],
            [
                "core.serial.above",
                "core.dense.above",
                "core.frontier.above",
                "core.adaptive.above",
            ],
        ];
        const SWEEP_SPANS: [&str; 2] = ["core.adaptive.t1", "core.adaptive.t2"];
        let sweep: Vec<rayon::ThreadPool> = SWEEP.iter().map(|&t| pool(t)).collect();
        let mut rounds = [Vec::new(), Vec::new()];
        let overhead = replay(&mut ctx.tracer, replay_until, |tr, i| {
            let graph = &graphs[i % graphs.len()];
            let (g, d) = (&graph.g, graph.density);
            let edges = g.num_edges() as u64;
            let root = tr.root();
            let serial = tr.span(SPANS[d][0], edges, || peel_rounds_serial(g, K));
            tally.check(serial.rounds == graph.expect.0, || {
                "serial peel is not deterministic".into()
            });
            machine.install(|| {
                for (e, (_, strategy)) in ENGINES.iter().enumerate() {
                    let opts = ParallelOpts {
                        strategy: *strategy,
                        ..ParallelOpts::default()
                    };
                    let run = tr.span(SPANS[d][e + 1], edges, || {
                        peel_parallel_in(g, K, &opts, &mut ws)
                    });
                    tally.check(run.rounds == graph.expect.0, || {
                        format!("{:?} engine disagrees with serial on rounds", strategy)
                    });
                    if *strategy == Strategy::Adaptive {
                        rounds[d].push(f64::from(run.rounds));
                    }
                }
            });
            for (p, name) in sweep.iter().zip(SWEEP_SPANS) {
                p.install(|| {
                    tr.span(name, edges, || {
                        peel_parallel_in(g, K, &default_opts, &mut ws)
                    })
                });
            }
            tr.end_root("peel.graph", root, edges);
        });

        let tr = &ctx.tracer;
        let mut layers: Vec<(String, f64, &str)> = Vec::new();
        for (d, (density, c)) in DENSITIES.iter().enumerate() {
            for (e, engine) in ["serial", "dense", "frontier", "adaptive"]
                .iter()
                .enumerate()
            {
                let value = tr.agg(SPANS[d][e]).ns_per_work();
                layers.push((
                    format!("core.{engine}_ns_per_edge.{density}"),
                    value,
                    "ns/edge",
                ));
            }
            layers.push((format!("core.rounds.{density}"), mean(&rounds[d]), "count"));
            layers.push((
                format!("analysis.predicted_rounds.{density}"),
                predicted_rounds(*c, n),
                "count",
            ));
        }
        let serial_ns = tr.agg(SPANS[0][0]).ns + tr.agg(SPANS[1][0]).ns;
        for (threads, name) in SWEEP.iter().zip(SWEEP_SPANS) {
            let speedup = serial_ns as f64 / tr.agg(name).ns.max(1) as f64;
            layers.push((
                format!("core.speedup_vs_serial.t{threads}"),
                speedup,
                "ratio",
            ));
        }
        // The end-to-end figure is the default engine on the machine pool;
        // its layer is that engine's own time.
        let e2e = (ns_per_edge[0].mean() + ns_per_edge[1].mean()) / 2.0;
        let adaptive =
            (tr.agg(SPANS[0][3]).ns_per_work() + tr.agg(SPANS[1][3]).ns_per_work()) / 2.0;
        layers.push(("graph.sample_ms".into(), mean(&sample_ms), "ms"));
        layers.push((
            "peel.residual_ns_per_edge".into(),
            e2e - adaptive,
            "ns/edge",
        ));
        layers.push(("peel.trace_overhead".into(), overhead, "ratio"));
        for (name, value, unit) in layers {
            ctx.put(name, value, unit);
        }
        ctx.finish_phase("peel", tally);
    }
}
