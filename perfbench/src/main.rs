//! The repository benchmark.
//!
//! One run drives four phases against the public API of the workspace
//! crates:
//!
//! * `ingest` — two closed-loop TCP connections send Insert/Delete frames
//!   into a 4-shard server;
//! * `reconcile` — one connection reconciles planted differences against
//!   a prefilled server while a second one churns insert/delete pairs;
//! * `replicate` — one connection commits blocks to a primary and waits
//!   until its loopback follower has applied each one;
//! * `peel` — the default engine peels 4-uniform hypergraphs below and
//!   above the threshold c* ≈ 0.772 (k = 2).
//!
//! A workload (`small` or `large`) fixes the input sizes of all four. A
//! run is [`ROUNDS`] rounds; each sets every phase up afresh, drives the
//! phases' loads in interleaved slices, checks their outputs and tears
//! them down. Untraced runs (`--trace 0`) print the end-to-end metrics;
//! traced runs (`--trace 1`) give half the time to the load and the other
//! half to replaying the same generated inputs through each layer's
//! public functions, with spans recorded by the benchmark, and print the
//! per-layer metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload small --seed 2014 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics` and an `info` object.

mod ingest;
mod peel;
mod reconcile;
mod replicate;
mod trace;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use trace::Tracer;

/// Input sizes shared by the four phases of one workload.
pub struct Regime {
    pub name: &'static str,
    /// Insert/Delete frame sizes in keys, drawn uniformly.
    pub frame_sizes: &'static [usize],
    /// Planted reconcile differences, as decode load per shard relative
    /// to c*: the `lo` class and the `hi` class.
    pub classes: [f64; 2],
    /// Keys per replicated commit.
    pub block_keys: usize,
    /// Vertices per peeled hypergraph.
    pub peel_n: usize,
}

const REGIMES: [Regime; 2] = [
    Regime {
        name: "small",
        frame_sizes: &[1, 2, 4, 8, 16, 32, 64],
        classes: [0.01, 0.10],
        block_keys: 64,
        peel_n: 100_000,
    },
    Regime {
        name: "large",
        frame_sizes: &[256, 512, 1024, 2048, 4096],
        classes: [0.40, 0.75],
        block_keys: 4096,
        peel_n: 400_000,
    },
];

/// Reconcile class names, in the order of [`Regime::classes`].
pub const CLASS_NAMES: [&str; 2] = ["lo", "hi"];

/// Rounds in one run, and load slices per phase in one round. Every
/// slice is a statistics window: a metric is computed per window and then
/// summarised over the quietest windows (see
/// [`trace::Windows::quiet_percentile`]).
const ROUNDS: u64 = 8;
const SLICES: usize = 4;

/// Operations attempted and failed checks of one phase.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one checked operation; a failure is counted (the first few
    /// are also reported) and the run goes on.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// State shared by the phases of one run.
pub struct Ctx {
    pub regime: &'static Regime,
    pub traced: bool,
    pub tracer: Tracer,
    seed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    tallies: Vec<(&'static str, Tally)>,
}

impl Ctx {
    /// Record a metric of this run.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// The seed of input stream `stream` in round `round`, derived from
    /// `--seed`. Every round draws fresh inputs; a traced run replays the
    /// inputs of round 0.
    pub fn seed_for(&self, stream: u64, round: u64) -> u64 {
        let key = stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ round.rotate_left(32);
        peel_graph::rng::mix64(self.seed ^ key)
    }

    pub fn finish_phase(&mut self, phase: &'static str, tally: Tally) {
        self.tallies.push((phase, tally));
    }
}

/// One phase of a run. Each round sets a fresh instance up, drives its
/// load in slices interleaved with the other phases, then checks its
/// outputs and tears it down; the phase keeps its samples across rounds.
pub trait Phase {
    /// Set a fresh instance up; returns the set-up time in seconds.
    fn setup(&mut self, ctx: &Ctx, round: u64) -> f64;
    /// Drive the instance's load until `until`.
    fn slice(&mut self, until: Instant);
    /// Check the instance's outputs and tear it down.
    fn check(&mut self);
    /// Report the phase's metrics. A traced run first replays the inputs
    /// of round 0 through the phase's layers until `replay_until`.
    fn finish(self: Box<Self>, ctx: &mut Ctx, replay_until: Instant);
}

/// Time `f`: its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Replay one item at a time, each twice: once traced and once not, in
/// alternating order, until `deadline` (at least two items). Returns the
/// tracing overhead: the median over items of traced ÷ untraced wall
/// time, minus one.
pub fn replay(
    tracer: &mut Tracer,
    deadline: Instant,
    mut item: impl FnMut(&mut Tracer, usize),
) -> f64 {
    let mut ratios = Vec::new();
    let mut i = 0;
    while i < 2 || Instant::now() < deadline {
        let mut wall = [0.0f64; 2]; // [untraced, traced]
        for step in 0..2 {
            let traced = (step + i) % 2 == 1;
            tracer.set_enabled(traced);
            let t = Instant::now();
            item(tracer, i);
            wall[usize::from(traced)] = t.elapsed().as_secs_f64();
        }
        ratios.push(wall[1] / wall[0]);
        i += 1;
    }
    tracer.set_enabled(false);
    trace::median(&mut ratios) - 1.0
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// `--workload NAME --seed N --seconds S --trace 0|1`, all required.
fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(regime) = REGIMES.iter().find(|r| r.name == args.workload) else {
        let names: Vec<_> = REGIMES.iter().map(|r| r.name).collect();
        eprintln!("perfbench: --workload must be one of {names:?}");
        std::process::exit(2);
    };

    let mut ctx = Ctx {
        regime,
        seed: args.seed,
        traced: args.trace,
        tracer: Tracer::new(false),
        metrics: Vec::new(),
        tallies: Vec::new(),
    };
    let mut phases: Vec<Box<dyn Phase>> = vec![
        Box::<ingest::Ingest>::default(),
        Box::<reconcile::Reconcile>::default(),
        Box::<replicate::Replicate>::default(),
        Box::<peel::Peel>::default(),
    ];
    // A traced run gives half its time to the load and the other half to
    // the replays.
    let load_s = if ctx.traced {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let slice = Duration::from_secs_f64(load_s / (ROUNDS as usize * SLICES * phases.len()) as f64);
    let mut setup_s = Vec::new();
    for round in 0..ROUNDS {
        setup_s.push(phases.iter_mut().map(|p| p.setup(&ctx, round)).sum());
        for _ in 0..SLICES {
            for phase in &mut phases {
                phase.slice(Instant::now() + slice);
            }
        }
        phases.iter_mut().for_each(|p| p.check());
    }
    let setup_s = trace::median(&mut setup_s);
    let replay = Duration::from_secs_f64((args.seconds - load_s) / phases.len() as f64);
    for phase in phases {
        phase.finish(&mut ctx, Instant::now() + replay);
    }

    let mut total = Tally::default();
    for (_, t) in &ctx.tallies {
        total.merge(*t);
    }
    if !ctx.traced {
        ctx.put("setup_s", setup_s, "s");
        let ok = (total.attempted - total.failed) as f64 / total.attempted.max(1) as f64;
        ctx.put("ok_share", ok, "ratio");
    }

    let mut trace_file = String::from("null");
    if ctx.traced {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("spans-{}-{}.jsonl", regime.name, args.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, ctx.tracer.spans_jsonl()))
        {
            Ok(()) => trace_file = format!("\"{}\"", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        total.failed == 0,
        total.attempted,
        total.failed
    );
    for (i, (name, value, unit)) in ctx.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    let _ = write!(
        out,
        "}}, \"info\": {{\"rayon_threads\": {}, \"trace_file\": {trace_file}, \"phases\": {{",
        rayon::current_num_threads()
    );
    for (i, (phase, t)) in ctx.tallies.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let share = t.failed as f64 / t.attempted.max(1) as f64;
        let _ = write!(
            out,
            "{sep}\"{phase}\": {{\"attempted\": {}, \"failed\": {}, \"failed_share\": {share:?}}}",
            t.attempted, t.failed
        );
    }
    out.push_str("}}}");
    println!("{out}");
}
