//! The `replicate` phase: one connection commits blocks synchronously to
//! a primary with one loopback follower, both on the default
//! `ServiceConfig` and `FollowerConfig`. A commit writes a block, flushes
//! it, and waits until the follower has applied it.
//!
//! Check: every commit must be accepted and reach the follower; after the
//! writer stops, the follower must become cell-identical to the primary.

use std::sync::Arc;
use std::time::{Duration, Instant};

use peel_service::queue::Op;
use peel_service::replication::WindowedSender;
use peel_service::wire::{encode_request, Request};
use peel_service::{
    Client, Follower, FollowerConfig, PeelService, ReplicationHub, Server, ServiceConfig,
    StreamConfig,
};

use crate::ingest::Frames;
use crate::trace::{mean, StealMeter, Windows};
use crate::{replay, timed, Ctx, Phase, Tally};

/// Keys committed during set-up, in blocks of [`PREFILL_BLOCK`].
const PREFILL: usize = 1 << 16;
const PREFILL_BLOCK: usize = 1024;
/// How long one commit may wait for the follower before it counts as failed.
const COMMIT_TIMEOUT: Duration = Duration::from_secs(5);
/// How long the follower may take to match the primary after the writer stops.
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(10);
/// Blocks the traced replay cycles through.
const REPLAY_BLOCKS: usize = 256;

struct Setup {
    primary: Server,
    fsvc: Arc<PeelService>,
    follower: Follower,
    client: Client,
}

/// Wait until the follower has applied everything the primary published.
fn wait_applied(primary: &PeelService, follower: &Follower, fsvc: &PeelService) -> bool {
    let deadline = Instant::now() + COMMIT_TIMEOUT;
    let target = primary.replication().published_seq();
    while follower.last_applied_seq() < target {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    fsvc.flush();
    true
}

fn identical(primary: &PeelService, fsvc: &PeelService) -> bool {
    (0..primary.shards()).all(|s| {
        matches!((primary.snapshot_shard(s), fsvc.snapshot_shard(s)),
            (Ok((_, p)), Ok((_, f))) if p == f)
    })
}

fn setup(cfg: ServiceConfig, prefill_seed: u64) -> Setup {
    let primary = Server::bind("127.0.0.1:0", cfg).expect("bind the primary");
    let fsvc = Arc::new(PeelService::start(cfg));
    let follower = Follower::start(
        Arc::clone(&fsvc),
        primary.local_addr(),
        FollowerConfig::default(),
    );
    let mut client = Client::connect(primary.local_addr()).expect("connect to the primary");
    let deadline = Instant::now() + COMMIT_TIMEOUT;
    while primary.service().replication().followers() == 0 {
        assert!(Instant::now() < deadline, "the follower never subscribed");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The prefill doubles as warm-up: committed like the load, block by
    // block.
    let mut keys = Frames::new(prefill_seed, &[PREFILL_BLOCK]);
    for _ in 0..PREFILL / PREFILL_BLOCK {
        let (insert, block) = keys.next_frame();
        let res = if insert {
            client.insert(&block)
        } else {
            client.delete(&block)
        };
        res.expect("prefill write");
        client.flush().expect("prefill flush");
        assert!(
            wait_applied(primary.service(), &follower, &fsvc),
            "the follower never applied the prefill"
        );
    }
    Setup {
        primary,
        fsvc,
        follower,
        client,
    }
}

/// The replicate phase's samples across rounds.
#[derive(Default)]
pub struct Replicate {
    commit_ms: Windows,
    lag_ms: Vec<f64>,
    repaired: u64,
    dropped: u64,
    tally: Tally,
    inst: Option<Instance>,
}

/// A running primary, its follower and the committing connection.
struct Instance {
    setup: Setup,
    blocks: Frames,
    repaired_before: u64,
}

impl Phase for Replicate {
    fn setup(&mut self, ctx: &Ctx, round: u64) -> f64 {
        let cfg = ServiceConfig::default();
        let (setup, setup_s) = timed(|| setup(cfg, ctx.seed_for(21, round)));
        let regime: &'static crate::Regime = ctx.regime;
        self.inst = Some(Instance {
            blocks: Frames::new(
                ctx.seed_for(22, round),
                std::slice::from_ref(&regime.block_keys),
            ),
            repaired_before: setup.fsvc.metrics().replication.anti_entropy_keys,
            setup,
        });
        setup_s
    }

    fn slice(&mut self, until: Instant) {
        let Instance { setup, blocks, .. } = self.inst.as_mut().expect("slice after setup");
        let Setup {
            primary,
            fsvc,
            follower,
            client,
        } = setup;
        let steal = StealMeter::start();
        let mut commit_ms = Vec::new();
        while Instant::now() < until {
            let (insert, keys) = blocks.next_frame();
            let t0 = Instant::now();
            let res = if insert {
                client.insert(&keys)
            } else {
                client.delete(&keys)
            };
            let flushed = client.flush();
            let t1 = Instant::now();
            let applied = wait_applied(primary.service(), follower, fsvc);
            let t2 = Instant::now();
            commit_ms.push((t2 - t0).as_secs_f64() * 1e3);
            self.lag_ms.push((t2 - t1).as_secs_f64() * 1e3);
            self.tally.check(
                res.as_ref().is_ok_and(|&n| n == keys.len() as u64) && flushed.is_ok() && applied,
                || {
                    format!(
                        "commit of {} keys: {res:?}, flush {flushed:?}, applied {applied}",
                        keys.len()
                    )
                },
            );
        }
        self.commit_ms.push(commit_ms, steal.share());
    }

    fn check(&mut self) {
        // Bind every part: what a `let` pattern leaves unbound is dropped
        // at once, and the follower must keep running through the check.
        let Some(Instance {
            setup:
                Setup {
                    primary,
                    fsvc,
                    follower: _follower,
                    client: _client,
                },
            repaired_before,
            ..
        }) = self.inst.take()
        else {
            return;
        };
        let psvc = primary.service();
        self.dropped += psvc.metrics().replication.batches_dropped;
        let deadline = Instant::now() + CONVERGE_TIMEOUT;
        let mut converged = identical(psvc, &fsvc);
        while !converged && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
            converged = identical(psvc, &fsvc);
        }
        self.tally.check(converged, || {
            format!("follower not identical to the primary {CONVERGE_TIMEOUT:?} after the writer stopped")
        });
        self.repaired += fsvc.metrics().replication.anti_entropy_keys - repaired_before;
    }

    fn finish(self: Box<Self>, ctx: &mut Ctx, replay_until: Instant) {
        let Replicate {
            mut commit_ms,
            lag_ms,
            repaired,
            dropped,
            mut tally,
            ..
        } = *self;
        if !ctx.traced {
            ctx.put("commit_p50_ms", commit_ms.quiet_percentile(0.50), "ms");
            ctx.put("commit_p90_ms", commit_ms.quiet_percentile(0.90), "ms");
            ctx.finish_phase("replicate", tally);
            return;
        }

        // Traced: replay the same blocks through the replication layers — a
        // hub with one windowed sender, and a standalone follower service.
        let cfg = ServiceConfig::default();
        let regime: &'static crate::Regime = ctx.regime;
        let mut gen = Frames::new(
            ctx.seed_for(22, 0),
            std::slice::from_ref(&regime.block_keys),
        );
        let replayed: Vec<Vec<Vec<Op>>> = (0..REPLAY_BLOCKS)
            .map(|_| {
                let (insert, keys) = gen.next_frame();
                let dir = if insert { 1 } else { -1 };
                keys.chunks(cfg.batch_size)
                    .map(|c| c.iter().map(|&key| Op { key, dir }).collect())
                    .collect()
            })
            .collect();
        let hub = ReplicationHub::new(cfg.repl_queue_depth);
        let stream = StreamConfig {
            window: cfg.repl_window,
            ..StreamConfig::default()
        };
        let mut sender = WindowedSender::new(hub.subscribe(), 0, stream);
        let applier = PeelService::start(cfg);
        let (mut frames, mut frame_bytes) = (0u64, 0u64);
        let overhead = replay(&mut ctx.tracer, replay_until, |tr, i| {
            let block = &replayed[i % replayed.len()];
            let keys: u64 = block.iter().map(|b| b.len() as u64).sum();
            let root = tr.root();
            for batch in block {
                let seq = tr.span("replication.publish", 1, || hub.publish(batch));
                let ack = encode_request(&Request::ReplicateAck {
                    epoch: hub.epoch(),
                    seq,
                });
                let mut emitted = 0;
                let ok = tr.span("replication.pump", 1, || {
                    let now = Instant::now();
                    sender.pump(now, &mut |f| {
                        emitted += 1;
                        frame_bytes += f.len() as u64;
                    });
                    sender.on_frame(&ack, now)
                });
                frames += emitted;
                tally.check(
                    emitted == 1 && ok == peel_service::replication::SenderFrame::Continue,
                    || format!("sender emitted {emitted} frames for one batch, ack gave {ok:?}"),
                );
                let copy = batch.clone();
                tr.span("follower.apply", batch.len() as u64, || {
                    applier.ingest_batch(copy)
                });
            }
            tr.span("follower.apply", 0, || applier.flush());
            tr.end_root("replicate.block", root, keys);
        });
        applier.shutdown();

        let tr = &ctx.tracer;
        let blocks_replayed = tr.agg("replicate.block").count.max(1) as f64;
        let per_block_ms = |name| tr.agg(name).ns as f64 / blocks_replayed / 1e6;
        let layer_ms: f64 = ["replication.publish", "replication.pump", "follower.apply"]
            .iter()
            .map(|name| per_block_ms(name))
            .sum();
        let layers = [
            (
                "replication.publish_ns_per_batch",
                tr.agg("replication.publish").ns_per_span(),
                "ns",
            ),
            (
                "replication.pump_us_per_frame",
                tr.agg("replication.pump").ns_per_span() / 1e3,
                "us",
            ),
            (
                "wire.replicate_frame_bytes",
                frame_bytes as f64 / frames.max(1) as f64,
                "count",
            ),
            (
                "follower.apply_ns_per_key",
                tr.agg("follower.apply").ns_per_work(),
                "ns/key",
            ),
            ("follower.lag_ms", mean(&lag_ms), "ms"),
            ("follower.repair_keys", repaired as f64, "count"),
            ("replication.batches_dropped", dropped as f64, "count"),
            ("replicate.residual_ms", commit_ms.mean() - layer_ms, "ms"),
            ("replicate.trace_overhead", overhead, "ratio"),
        ];
        for (name, value, unit) in layers {
            ctx.put(name, value, unit);
        }
        ctx.finish_phase("replicate", tally);
    }
}
