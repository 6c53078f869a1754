//! The `ingest` phase: two closed-loop connections send Insert/Delete
//! frames into a 4-shard server with the default `ServiceConfig`.
//!
//! Check: after the run, the server must reconcile completely and with an
//! empty difference against the benchmark's own model of the key set.

use std::hint::black_box;
use std::time::Instant;

use peel_graph::rng::Xoshiro256StarStar;
use peel_iblt::AtomicIblt;
use peel_service::wire::{decode_request, encode_request, FrameDecoder, Request};
use peel_service::{
    build_shard_digests, handle_request, shard_iblt_config, Client, PeelService, Server,
    ServiceConfig, ShardRouter,
};

use crate::trace::{StealMeter, Windows};
use crate::{replay, timed, Ctx, Phase, Tally};

/// Keys inserted during set-up, in frames of [`PREFILL_FRAME`].
const PREFILL: usize = 1 << 18;
const PREFILL_FRAME: usize = 4096;
/// Frames the traced replay cycles through, and how often it flushes.
const REPLAY_FRAMES: usize = 256;
const FLUSH_EVERY: usize = 64;

/// The frame stream of one connection, generated from its seed: sizes
/// drawn from the workload, and about a quarter of the frames delete keys
/// this connection inserted earlier.
pub struct Frames {
    rng: Xoshiro256StarStar,
    sizes: &'static [usize],
    /// Keys inserted and not deleted: this connection's share of the model.
    live: Vec<u64>,
}

impl Frames {
    pub fn new(seed: u64, sizes: &'static [usize]) -> Self {
        Frames {
            rng: Xoshiro256StarStar::new(seed),
            sizes,
            live: Vec::new(),
        }
    }

    /// The next frame: `(insert?, keys)`.
    pub fn next_frame(&mut self) -> (bool, Vec<u64>) {
        let size = self.sizes[(self.rng.next() % self.sizes.len() as u64) as usize];
        if self.rng.next().is_multiple_of(4) && self.live.len() >= size {
            let keys = self.live.split_off(self.live.len() - size);
            return (false, keys);
        }
        let keys: Vec<u64> = (0..size).map(|_| self.rng.next()).collect();
        self.live.extend_from_slice(&keys);
        (true, keys)
    }
}

/// The ingest phase's samples across rounds.
#[derive(Default)]
pub struct Ingest {
    latencies_ms: Windows,
    keys_per_s: Windows,
    /// Queue stalls, batches and ops applied during the load.
    stalls: u64,
    batches: u64,
    ops: u64,
    tally: Tally,
    inst: Option<Instance>,
}

/// Send frames on one connection until `until`: latencies, keys
/// accepted, checks.
fn drive(client: &mut Client, frames: &mut Frames, until: Instant) -> (Vec<f64>, u64, Tally) {
    let mut latencies_ms = Vec::new();
    let mut keys = 0;
    let mut tally = Tally::default();
    while Instant::now() < until {
        let (insert, batch) = frames.next_frame();
        let t = Instant::now();
        let res = if insert {
            client.insert(&batch)
        } else {
            client.delete(&batch)
        };
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let accepted = res.as_ref().map_or(0, |&a| a);
        keys += accepted;
        tally.check(accepted == batch.len() as u64, || {
            format!("ingest frame of {} keys: {res:?}", batch.len())
        });
    }
    (latencies_ms, keys, tally)
}

/// A running ingest server and its two load connections (as many as the
/// reference box has hardware threads).
struct Instance {
    cfg: ServiceConfig,
    server: Server,
    conns: Vec<(Client, Frames)>,
    prefill: Vec<u64>,
}

/// Start a server, connect the load connections and insert the prefill.
fn start(ctx: &Ctx, round: u64) -> Instance {
    let cfg = ServiceConfig::default();
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind the ingest server");
    let connect = || Client::connect(server.local_addr()).expect("connect to the ingest server");
    let conns = [2, 3]
        .map(|stream| {
            (
                connect(),
                Frames::new(ctx.seed_for(stream, round), ctx.regime.frame_sizes),
            )
        })
        .into();
    let mut rng = Xoshiro256StarStar::new(ctx.seed_for(1, round));
    let prefill: Vec<u64> = (0..PREFILL).map(|_| rng.next()).collect();
    let mut loader = connect();
    for chunk in prefill.chunks(PREFILL_FRAME) {
        loader.insert(chunk).expect("prefill insert");
    }
    loader.flush().expect("prefill flush");
    Instance {
        cfg,
        server,
        conns,
        prefill,
    }
}

impl Phase for Ingest {
    fn setup(&mut self, ctx: &Ctx, round: u64) -> f64 {
        let (inst, setup_s) = timed(|| start(ctx, round));
        self.inst = Some(inst);
        setup_s
    }

    fn slice(&mut self, until: Instant) {
        let inst = self.inst.as_mut().expect("slice after setup");
        let before = inst.server.service().metrics();
        let steal = StealMeter::start();
        let (done, busy_s) = timed(|| {
            std::thread::scope(|s| {
                let handles: Vec<_> = inst
                    .conns
                    .iter_mut()
                    .map(|(client, frames)| s.spawn(move || drive(client, frames, until)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("ingest load thread"))
                    .collect::<Vec<_>>()
            })
        });
        let steal = steal.share();
        let mut window = Vec::new();
        let mut keys = 0;
        for (latencies_ms, accepted, tally) in done {
            window.extend_from_slice(&latencies_ms);
            keys += accepted;
            self.tally.merge(tally);
        }
        self.latencies_ms.push(window, steal);
        self.keys_per_s.push(vec![keys as f64 / busy_s], steal);
        let after = inst.server.service().metrics();
        self.stalls += after.queue_stalls - before.queue_stalls;
        self.batches += after.batches_applied - before.batches_applied;
        self.ops += after.ops_applied - before.ops_applied;
    }

    fn check(&mut self) {
        let Some(Instance {
            cfg,
            server: _server,
            mut conns,
            prefill,
        }) = self.inst.take()
        else {
            return;
        };
        // The served set must match the model: prefill plus what each
        // connection inserted and did not delete.
        let mut model = prefill;
        for (_, frames) in &conns {
            model.extend_from_slice(&frames.live);
        }
        let client = &mut conns[0].0;
        let ok = client.flush().is_ok() && {
            let digests = build_shard_digests(&model, cfg.shards, cfg.router_seed, cfg.shard_iblt);
            digests.iter().enumerate().all(|(i, d)| {
                client.reconcile_shard(i as u32, d).is_ok_and(|diff| {
                    diff.complete && diff.only_local.is_empty() && diff.only_remote.is_empty()
                })
            })
        };
        self.tally
            .check(ok, || "ingest: server set differs from the model".into());
    }

    fn finish(self: Box<Self>, ctx: &mut Ctx, replay_until: Instant) {
        let Ingest {
            mut latencies_ms,
            mut keys_per_s,
            stalls,
            batches,
            ops,
            mut tally,
            ..
        } = *self;
        if !ctx.traced {
            ctx.put(
                "ingest_keys_per_s",
                keys_per_s.quiet_percentile(0.5),
                "keys/s",
            );
            ctx.put("ingest_p50_ms", latencies_ms.quiet_percentile(0.50), "ms");
            ctx.put("ingest_p99_ms", latencies_ms.quiet_percentile(0.99), "ms");
            ctx.finish_phase("ingest", tally);
            return;
        }

        // Traced: replay conn 0's first frames through each layer.
        let cfg = ServiceConfig::default();
        let mut gen = Frames::new(ctx.seed_for(2, 0), ctx.regime.frame_sizes);
        let frames: Vec<(bool, Vec<u64>)> = (0..REPLAY_FRAMES).map(|_| gen.next_frame()).collect();
        let svc = PeelService::start(cfg);
        let router = ShardRouter::new(cfg.shards, cfg.router_seed);
        let table = AtomicIblt::new(shard_iblt_config(cfg.shard_iblt, 0));
        let mut decoder = FrameDecoder::new();
        let overhead = replay(&mut ctx.tracer, replay_until, |tr, i| {
            let (insert, keys) = &frames[i % frames.len()];
            let n = keys.len() as u64;
            let root = tr.root();
            let req = if *insert {
                Request::Insert(keys.clone())
            } else {
                Request::Delete(keys.clone())
            };
            let payload = tr.span("wire.insert_encode", n, || encode_request(&req));
            let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
            framed.extend_from_slice(&payload);
            let decoded = tr.span("wire.insert_decode", n, || {
                decoder.push(&framed);
                decoder
                    .next_frame()
                    .ok()
                    .flatten()
                    .map(|p| decode_request(&p))
            });
            let decoded = match decoded {
                Some(Ok(d)) if d == req => d,
                other => {
                    tally.check(false, || format!("replayed frame decoded as {other:?}"));
                    return;
                }
            };
            tr.span("server.dispatch", n, || handle_request(&svc, decoded));
            tr.span("service.submit", n, || {
                if *insert {
                    svc.insert(keys)
                } else {
                    svc.delete(keys)
                }
            });
            tr.span("router.shard_of", n, || {
                for &k in keys {
                    black_box(router.shard_of(k));
                }
            });
            tr.span("iblt.cell_rmw", n, || {
                if *insert {
                    table.par_insert(keys)
                } else {
                    table.par_delete(keys)
                }
            });
            if i % FLUSH_EVERY == FLUSH_EVERY - 1 {
                tr.span("service.flush", 1, || svc.flush());
            }
            tr.end_root("ingest.frame", root, n);
        });
        svc.shutdown();

        let tr = &ctx.tracer;
        let per_key = |name| tr.agg(name).ns_per_work();
        let blocking_ns: f64 = [
            "wire.insert_encode",
            "wire.insert_decode",
            "server.dispatch",
        ]
        .iter()
        .map(|name| tr.agg(name).ns_per_span())
        .sum();
        let layers = [
            (
                "wire.insert_encode_ns_per_key",
                per_key("wire.insert_encode"),
                "ns/key",
            ),
            (
                "wire.insert_decode_ns_per_key",
                per_key("wire.insert_decode"),
                "ns/key",
            ),
            (
                "server.dispatch_ns_per_key",
                per_key("server.dispatch"),
                "ns/key",
            ),
            (
                "service.submit_ns_per_key",
                per_key("service.submit"),
                "ns/key",
            ),
            (
                "service.flush_ms",
                tr.agg("service.flush").ns_per_span() / 1e6,
                "ms",
            ),
            (
                "router.shard_of_ns_per_key",
                per_key("router.shard_of"),
                "ns/key",
            ),
            (
                "iblt.cell_rmw_ns_per_key",
                per_key("iblt.cell_rmw"),
                "ns/key",
            ),
            (
                "queue.stalls_per_1k_batches",
                stalls as f64 * 1e3 / batches.max(1) as f64,
                "count",
            ),
            (
                "service.batch_fill",
                ops as f64 / (batches.max(1) * cfg.batch_size as u64) as f64,
                "ratio",
            ),
            (
                "ingest.residual_ms",
                latencies_ms.mean() - blocking_ns / 1e6,
                "ms",
            ),
            ("ingest.trace_overhead", overhead, "ratio"),
        ];
        for (name, value, unit) in layers {
            ctx.put(name, value, unit);
        }
        ctx.finish_phase("ingest", tally);
    }
}
