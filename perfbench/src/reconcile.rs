//! The `reconcile` phase: a server prefilled with 10⁶ keys; one
//! connection reconciles all shards in closed loop against peer digests
//! built during set-up, while a second connection churns insert/delete
//! pairs beside it.
//!
//! Each digest plants a difference from one of two classes (`lo`, `hi`),
//! sized as a decode load relative to c*. A peer keeps its digest up to
//! date as it ingests, so the peers' digests are the digest of the
//! prefill with each planted difference applied. Check: every reconcile must
//! decode completely and recover exactly the planted difference; the only
//! extra keys allowed are churn keys in flight. After the churn stops, one
//! more reconcile must recover the planted difference with no extras.

use std::collections::HashSet;
use std::time::Instant;

use peel_analysis::{c_star, SubtableRecurrence};
use peel_graph::rng::{mix64, Xoshiro256StarStar};
use peel_iblt::{AtomicIblt, Iblt, RecoveryWorkspace};
use peel_service::wire::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use peel_service::{
    build_shard_digests, shard_iblt_config, Client, Server, ServiceConfig, ShardDiff, ShardRouter,
};

use crate::trace::{mean, StealMeter, Windows};
use crate::{replay, timed, Ctx, Phase, Tally, CLASS_NAMES};

const PREFILL: usize = 1_000_000;
const PREFILL_FRAME: usize = 4096;
/// Peers per class: enough that a percentile inside a class does not
/// hinge on one peer's decode.
const PEERS_PER_CLASS: usize = 8;
/// Reconciles per pattern, and how many of them use the `hi` class: the
/// median falls inside the `lo` class and the 90th percentile inside `hi`.
const PATTERN: usize = 10;
const HI_PER_PATTERN: usize = 3;
/// Keys per churn insert/delete pair.
const CHURN_KEYS: usize = 16;
/// Churn keys have the top bit set; prefill and planted keys never do.
const CHURN_BIT: u64 = 1 << 63;

/// The peeling threshold of the shards' tables (k = 2, r = 4 hashes).
fn c_star_4_2() -> f64 {
    c_star(2, 4).expect("c* is defined for k = 2, r = 4")
}

fn is_churn(key: u64) -> bool {
    key & CHURN_BIT != 0
}

/// One peer: its per-shard digests and the difference it plants.
struct Peer {
    class: usize,
    digests: Vec<Iblt>,
    /// Keys the server has and the peer lacks (sorted).
    removed: Vec<u64>,
    /// Keys the peer has and the server lacks (sorted).
    added: Vec<u64>,
}

struct Setup {
    server: Server,
    reconciler: Client,
    churner: Client,
    peers: Vec<Peer>,
    build_ms: f64,
}

fn setup(cfg: ServiceConfig, classes: [f64; 2], seed: u64) -> Setup {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind the reconcile server");
    let connect = || Client::connect(server.local_addr()).expect("connect to the reconcile server");
    let (reconciler, churner, mut loader) = (connect(), connect(), connect());
    let mut rng = Xoshiro256StarStar::new(seed);
    let prefill: Vec<u64> = (0..PREFILL).map(|_| rng.next() >> 1).collect();
    for chunk in prefill.chunks(PREFILL_FRAME) {
        loader.insert(chunk).expect("prefill insert");
    }
    loader.flush().expect("prefill flush");

    let t = Instant::now();
    let base = build_shard_digests(&prefill, cfg.shards, cfg.router_seed, cfg.shard_iblt);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let router = ShardRouter::new(cfg.shards, cfg.router_seed);
    let per_shard_cells = cfg.shard_iblt.total_cells() as f64;
    let mut peers = Vec::new();
    for (class, share) in classes.into_iter().enumerate() {
        let diff = (share * c_star_4_2() * per_shard_cells * cfg.shards as f64).round() as usize;
        for _ in 0..PEERS_PER_CLASS {
            let mut taken = HashSet::new();
            let mut removed = Vec::with_capacity(diff / 2);
            while removed.len() < diff / 2 {
                let i = (rng.next() % PREFILL as u64) as usize;
                if taken.insert(i) {
                    removed.push(prefill[i]);
                }
            }
            let mut added: Vec<u64> = (0..diff - diff / 2).map(|_| rng.next() >> 1).collect();
            let mut digests = base.clone();
            for &k in &removed {
                digests[router.shard_of(k)].delete(k);
            }
            for &k in &added {
                digests[router.shard_of(k)].insert(k);
            }
            removed.sort_unstable();
            added.sort_unstable();
            peers.push(Peer {
                class,
                digests,
                removed,
                added,
            });
        }
    }
    // Warm-up: one reconcile per peer sizes the server's scratch pool.
    let mut reconciler = reconciler;
    for peer in &peers {
        reconcile_all(&mut reconciler, peer).expect("warm-up reconcile");
    }
    Setup {
        server,
        reconciler,
        churner,
        peers,
        build_ms,
    }
}

/// The reconcile order: a seeded shuffle of `PATTERN` class slots, of
/// which `HI_PER_PATTERN` are `hi`, repeated; each class takes its peers
/// in turn.
struct Order {
    slots: Vec<usize>,
    by_class: [Vec<usize>; 2],
    taken: [usize; 2],
    next: usize,
}

impl Order {
    fn new(peers: &[Peer], seed: u64) -> Self {
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut slots: Vec<usize> = (0..PATTERN)
            .map(|i| usize::from(i < HI_PER_PATTERN))
            .collect();
        for i in (1..slots.len()).rev() {
            slots.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        let of = |class| {
            (0..peers.len())
                .filter(|&p| peers[p].class == class)
                .collect()
        };
        Order {
            slots,
            by_class: [of(0), of(1)],
            taken: [0; 2],
            next: 0,
        }
    }

    /// The index of the next peer to reconcile against.
    fn next_peer(&mut self) -> usize {
        let class = self.slots[self.next % self.slots.len()];
        self.next += 1;
        let of_class = &self.by_class[class];
        self.taken[class] += 1;
        of_class[self.taken[class] % of_class.len()]
    }
}

/// Does a full reconcile match the planted difference? With
/// `allow_churn`, churn keys on either side are ignored.
fn matches(diffs: &[ShardDiff], peer: &Peer, allow_churn: bool) -> bool {
    let keep = |k: &u64| !(allow_churn && is_churn(*k));
    let side = |f: fn(&ShardDiff) -> &Vec<u64>| {
        let mut keys: Vec<u64> = diffs
            .iter()
            .flat_map(|d| f(d).iter().copied())
            .filter(keep)
            .collect();
        keys.sort_unstable();
        keys
    };
    diffs.iter().all(|d| d.complete)
        && side(|d| &d.only_local) == peer.removed
        && side(|d| &d.only_remote) == peer.added
}

fn reconcile_all(client: &mut Client, peer: &Peer) -> Result<Vec<ShardDiff>, String> {
    (0..peer.digests.len())
        .map(|shard| {
            client
                .reconcile_shard(shard as u32, &peer.digests[shard])
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Insert then delete fresh churn keys, numbered on from `*next`, until
/// `until`; returns keys accepted and the checks.
fn churn(client: &mut Client, seed: u64, next: &mut u64, until: Instant) -> (u64, Tally) {
    let mut tally = Tally::default();
    let mut accepted = 0;
    while Instant::now() < until {
        let keys: Vec<u64> = (0..CHURN_KEYS as u64)
            .map(|i| CHURN_BIT | mix64(seed ^ (*next + i)))
            .collect();
        *next += CHURN_KEYS as u64;
        for insert in [true, false] {
            let res = if insert {
                client.insert(&keys)
            } else {
                client.delete(&keys)
            };
            let n = res.as_ref().map_or(0, |&a| a);
            accepted += n;
            tally.check(n == CHURN_KEYS as u64, || format!("churn frame: {res:?}"));
        }
    }
    (accepted, tally)
}

/// The reconcile phase's samples across rounds.
#[derive(Default)]
pub struct Reconcile {
    latencies_ms: Windows,
    churn_keys_per_s: Windows,
    build_ms: Vec<f64>,
    tally: Tally,
    inst: Option<Instance>,
}

/// A running reconcile server, its connections and peers.
struct Instance {
    setup: Setup,
    order: Order,
    churn_seed: u64,
    churn_next: u64,
}

impl Phase for Reconcile {
    fn setup(&mut self, ctx: &Ctx, round: u64) -> f64 {
        let cfg = ServiceConfig::default();
        let classes = ctx.regime.classes;
        let (setup, setup_s) = timed(|| setup(cfg, classes, ctx.seed_for(11, round)));
        self.build_ms.push(setup.build_ms);
        self.inst = Some(Instance {
            order: Order::new(&setup.peers, ctx.seed_for(12, round)),
            churn_seed: ctx.seed_for(13, round),
            churn_next: 0,
            setup,
        });
        setup_s
    }

    fn slice(&mut self, until: Instant) {
        let Instance {
            setup,
            order,
            churn_seed,
            churn_next,
        } = self.inst.as_mut().expect("slice after setup");
        let Setup {
            reconciler,
            churner,
            peers,
            ..
        } = setup;
        let mut latencies_ms = Vec::new();
        let tally = &mut self.tally;
        let steal = StealMeter::start();
        let ((churned, churn_tally), busy_s) = timed(|| {
            std::thread::scope(|s| {
                let churn = s.spawn(|| churn(churner, *churn_seed, churn_next, until));
                while Instant::now() < until {
                    let peer = &peers[order.next_peer()];
                    let t = Instant::now();
                    let res = reconcile_all(reconciler, peer);
                    latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    tally.check(res.as_ref().is_ok_and(|d| matches(d, peer, true)), || {
                        format!(
                            "reconcile {} class: wrong difference or {res:?}",
                            CLASS_NAMES[peer.class]
                        )
                    });
                }
                churn.join().expect("churn thread")
            })
        });
        let steal = steal.share();
        self.latencies_ms.push(latencies_ms, steal);
        self.churn_keys_per_s
            .push(vec![churned as f64 / busy_s], steal);
        self.tally.merge(churn_tally);
    }

    fn check(&mut self) {
        // Bind every part: what a `let` pattern leaves unbound is dropped
        // at once, and the server must outlive the check.
        let Some(Instance {
            setup:
                Setup {
                    server: _server,
                    mut reconciler,
                    mut churner,
                    peers,
                    ..
                },
            ..
        }) = self.inst.take()
        else {
            return;
        };
        // With the churn stopped and flushed, no extra key may remain.
        let quiet = churner.flush().is_ok()
            && reconcile_all(&mut reconciler, &peers[0])
                .is_ok_and(|d| matches(&d, &peers[0], false));
        self.tally.check(quiet, || {
            "reconcile after churn: difference is not exactly the planted one".into()
        });
    }

    fn finish(self: Box<Self>, ctx: &mut Ctx, replay_until: Instant) {
        let Reconcile {
            mut latencies_ms,
            mut churn_keys_per_s,
            build_ms,
            mut tally,
            ..
        } = *self;
        if !ctx.traced {
            ctx.put(
                "reconcile_p50_ms",
                latencies_ms.quiet_percentile(0.50),
                "ms",
            );
            ctx.put(
                "reconcile_p90_ms",
                latencies_ms.quiet_percentile(0.90),
                "ms",
            );
            ctx.put(
                "churn_keys_per_s",
                churn_keys_per_s.quiet_percentile(0.5),
                "keys/s",
            );
            ctx.finish_phase("reconcile", tally);
            return;
        }

        let cfg = ServiceConfig::default();
        let classes = ctx.regime.classes;
        let Setup { server, peers, .. } = setup(cfg, classes, ctx.seed_for(11, 0));
        let mut replay_order = Order::new(&peers, ctx.seed_for(12, 0));
        // Traced: replay the same reconcile pattern through each layer, in
        // process, against the server's own service.
        const DECODE: [&str; 2] = ["iblt.decode.lo", "iblt.decode.hi"];
        let svc = server.service();
        let shards = cfg.shards as usize;
        let mut snap = Iblt::new(shard_iblt_config(cfg.shard_iblt, 0));
        let mut table = AtomicIblt::new(shard_iblt_config(cfg.shard_iblt, 0));
        let mut ws = RecoveryWorkspace::new();
        let mut req_bytes = Vec::new();
        // Per class: decodes, subrounds, subround nanoseconds.
        let mut decodes = [(0u64, 0u64, 0u64); 2];
        let mut peer_of_item = Vec::new();
        let overhead = replay(&mut ctx.tracer, replay_until, |tr, i| {
            // Each item is replayed twice; both runs take the same peer.
            if peer_of_item.len() <= i {
                peer_of_item.push(replay_order.next_peer());
            }
            let peer = &peers[peer_of_item[i]];
            let root = tr.root();
            let mut bytes = 0;
            for (shard, digest) in peer.digests.iter().enumerate() {
                let shard = shard as u32;
                let req = Request::Reconcile {
                    shard,
                    digest: digest.clone(),
                };
                let decoded = tr.span("wire.reconcile_codec", 1, || {
                    let payload = encode_request(&req);
                    bytes += payload.len();
                    decode_request(&payload)
                });
                tally.check(decoded.is_ok_and(|d| d == req), || {
                    "replayed Reconcile frame did not round-trip".into()
                });
                let snapped = tr.span("service.snapshot", 1, || {
                    svc.snapshot_shard_into(shard, &mut snap)
                });
                tally.check(snapped.is_ok(), || {
                    format!("snapshot of shard {shard}: {snapped:?}")
                });
                let rec = tr.span(DECODE[peer.class], 1, || {
                    table.recover_subtracted_in(&snap, digest, &mut ws)
                });
                let d = &mut decodes[peer.class];
                d.0 += 1;
                d.1 += u64::from(rec.subrounds);
                d.2 += rec.per_subround_ns.iter().sum::<u64>();
                let diff = tr.span("service.reconcile_shard", 1, || {
                    svc.reconcile_shard(shard, digest)
                });
                let Ok(diff) = diff else {
                    tally.check(false, || {
                        format!("in-process reconcile of shard {shard}: {diff:?}")
                    });
                    continue;
                };
                let resp = Response::Diff(diff);
                let back = tr.span("wire.diff_codec", 1, || {
                    decode_response(&encode_response(&resp))
                });
                tally.check(back.is_ok_and(|b| b == resp), || {
                    "replayed Diff frame did not round-trip".into()
                });
            }
            req_bytes.push(bytes as f64);
            tr.end_root("reconcile.full", root, 1);
        });

        let tr = &ctx.tracer;
        let fulls = tr.agg("reconcile.full").count.max(1) as f64;
        let per_full_us = |name| tr.agg(name).ns as f64 / fulls / 1e3;
        let blocking_us: f64 = [
            "wire.reconcile_codec",
            "service.reconcile_shard",
            "wire.diff_codec",
        ]
        .iter()
        .map(|name| per_full_us(name))
        .sum();
        let mut layers = vec![
            ("router.build_digest_ms".to_string(), mean(&build_ms), "ms"),
            (
                "wire.reconcile_req_bytes".to_string(),
                mean(&req_bytes),
                "count",
            ),
            (
                "wire.reconcile_codec_us".to_string(),
                per_full_us("wire.reconcile_codec"),
                "us",
            ),
            (
                "service.snapshot_us".to_string(),
                per_full_us("service.snapshot"),
                "us",
            ),
            (
                "wire.diff_codec_us".to_string(),
                per_full_us("wire.diff_codec"),
                "us",
            ),
            (
                "service.reconcile_shard_us".to_string(),
                per_full_us("service.reconcile_shard"),
                "us",
            ),
            (
                "reconcile.residual_ms".to_string(),
                latencies_ms.mean() - blocking_us / 1e3,
                "ms",
            ),
            ("reconcile.trace_overhead".to_string(), overhead, "ratio"),
        ];
        let cells = cfg.shard_iblt.total_cells() as u64;
        for (class, name) in CLASS_NAMES.iter().enumerate() {
            let agg = tr.agg(DECODE[class]);
            let (n, subrounds, sub_ns) = decodes[class];
            let load = classes[class] * c_star_4_2();
            let predicted = SubtableRecurrence::new(2, 4, load)
                .subrounds_to_empty(cells, 10_000)
                .map_or(f64::INFINITY, f64::from);
            layers.extend([
                (
                    format!("iblt.decode_us.{name}"),
                    agg.ns as f64 * shards as f64 / agg.count.max(1) as f64 / 1e3,
                    "us",
                ),
                (
                    format!("iblt.subrounds.{name}"),
                    subrounds as f64 / n.max(1) as f64,
                    "count",
                ),
                (
                    format!("iblt.subround_ns.{name}"),
                    sub_ns as f64 / subrounds.max(1) as f64,
                    "ns",
                ),
                (
                    format!("analysis.predicted_subrounds.{name}"),
                    predicted,
                    "count",
                ),
            ]);
        }
        for (name, value, unit) in layers {
            ctx.put(name, value, unit);
        }
        ctx.finish_phase("reconcile", tally);
    }
}
