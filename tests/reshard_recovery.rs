//! Coordinator crash mid-reshard, end to end over TCP: a client drives
//! `ReshardBegin` (migration live, dual-apply on) and dies before
//! committing, while barrier-synchronized racing ingest keeps landing on
//! the server — the discipline of `tests/replication_recovery.rs`. A
//! restarted coordinator must be able to either **resume** (commit the
//! in-flight migration) or **cleanly abort** (`ReshardAbort`), and in
//! both cases every key must be present exactly once: nothing lost,
//! nothing double-counted.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use parallel_peeling::service::service::PeelService;
use parallel_peeling::service::{Client, Follower, FollowerConfig, Server, ServiceConfig};

fn keys(range: std::ops::Range<u64>, tag: u64) -> Vec<u64> {
    range
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag)
        .collect()
}

fn cfg() -> ServiceConfig {
    ServiceConfig {
        batch_size: 64,
        queue_depth: 16,
        workers: 2,
        // The reshard decodes whole shards: budget for the resident set.
        ..ServiceConfig::for_diff_budget(1, 4_000)
    }
}

/// Ingest `phase1`, crash a coordinator right after `ReshardBegin(4)`
/// with `phase2` racing in on another connection, and return a fresh
/// "restarted coordinator" client plus the expected key set.
fn crash_mid_reshard(server: &Server) -> (Client, Vec<u64>) {
    let addr = server.local_addr();
    let mut ingest = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
    let phase1 = keys(0..700, 0x1111_0000_0000_0000);
    ingest.insert(&phase1).unwrap();
    ingest.flush().unwrap();

    // The coordinator begins the migration… and dies. The barrier aligns
    // the crash with an ingest burst so ops are genuinely racing the
    // dual-apply window.
    let phase2 = Arc::new(keys(0..500, 0x2222_0000_0000_0000));
    let start = Arc::new(Barrier::new(2));
    let ingester = {
        let phase2 = Arc::clone(&phase2);
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            let mut c2 = Client::connect(addr).unwrap();
            start.wait();
            for chunk in phase2.chunks(20) {
                c2.insert(chunk).unwrap();
            }
            c2.flush().unwrap();
        })
    };
    {
        let mut coordinator = Client::connect(addr).unwrap();
        start.wait();
        let status = coordinator.reshard_begin(4).unwrap();
        assert!(status.resharding);
        assert_eq!(status.to_shards, 4);
        // Crash: the connection drops with the migration in flight.
        drop(coordinator);
    }
    ingester.join().unwrap();

    // Restart: a new coordinator discovers the in-flight migration from
    // the stats it can read over any connection.
    let mut restarted = Client::connect(addr).unwrap();
    let stats = restarted.stats().unwrap();
    let reshard = |name| stats.scalar(name, &[]).unwrap();
    assert_eq!(
        reshard("peel_reshard_active"),
        1,
        "migration must survive the crash"
    );
    assert_eq!(reshard("peel_reshard_serving_shards"), 1);
    assert_eq!(reshard("peel_reshard_target_shards"), 4);

    let mut want: Vec<u64> = phase1.iter().chain(phase2.iter()).copied().collect();
    want.sort_unstable();
    (restarted, want)
}

/// Every key present exactly once: the reconcile of the exact expected
/// set is empty both ways, and the decoded shard contents equal the set
/// (an IBLT cell with count 2 would fail the decode or surface a
/// duplicate key — either trips an assert).
fn assert_exact_content(c: &mut Client, want: &[u64], shards: u32) {
    let hello = c.refresh_hello().unwrap();
    assert_eq!(hello.shards, shards);
    let diff = c.reconcile(want).unwrap();
    assert!(diff.complete, "reconcile did not decode");
    assert!(diff.only_server.is_empty(), "keys double-counted or stray");
    assert!(diff.only_client.is_empty(), "keys lost");
    let mut content = Vec::new();
    for shard in 0..shards {
        let (_e, iblt) = c.digest(shard).unwrap();
        let rec = iblt.recover();
        assert!(rec.complete, "shard {shard} undecodable");
        assert!(rec.negative.is_empty(), "shard {shard} phantom deletes");
        content.extend(rec.positive);
    }
    content.sort_unstable();
    assert_eq!(content, want, "content mismatch");
}

#[test]
fn restarted_coordinator_resumes_the_migration() {
    let server = Server::bind("127.0.0.1:0", cfg()).unwrap();
    let (mut c, want) = crash_mid_reshard(&server);
    // Resume: commit the crashed coordinator's migration.
    let status = c.reshard_commit().unwrap();
    assert!(!status.resharding);
    assert_eq!(status.serving_shards, 4);
    assert_eq!(status.completed, 1);
    assert_exact_content(&mut c, &want, 4);
}

/// A primary reshards while a follower is attached: the follower's
/// anti-entropy loop notices the changed handshake, reshards its local
/// service to the primary's new generation, and converges to
/// cell-identical shard digests at the new count — the replication layer
/// is generation-aware end to end.
#[test]
fn follower_adopts_a_resharded_primary() {
    let c2 = ServiceConfig { shards: 2, ..cfg() };
    let primary = Server::bind("127.0.0.1:0", c2).unwrap();
    let fsvc = Arc::new(PeelService::start(c2));
    let mut follower = Follower::start(
        Arc::clone(&fsvc),
        primary.local_addr(),
        FollowerConfig {
            anti_entropy_interval: Duration::from_millis(50),
            reconnect_backoff: Duration::from_millis(25),
            ..FollowerConfig::default()
        },
    );
    let mut c = Client::connect_retry(primary.local_addr(), Duration::from_secs(5)).unwrap();
    let ks = keys(0..1_000, 0x4444_0000_0000_0000);
    c.insert(&ks).unwrap();
    c.flush().unwrap();

    // Reshard the primary 2 → 4 while the follower is live.
    let status = c.reshard(4).unwrap();
    assert_eq!(status.serving_shards, 4);

    // The follower adopts the new generation and converges.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let adopted = fsvc.shards() == 4
            && (0..4u32).all(|shard| {
                let (_e, p) = primary.service().snapshot_shard(shard).unwrap();
                let (_e, f) = fsvc.snapshot_shard(shard).unwrap();
                p == f
            });
        if adopted {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "follower never adopted the new generation (at {} shards)",
            fsvc.shards()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(fsvc.generation(), 1);
    assert!(fsvc.metrics().reshard.completed >= 1);
    follower.stop();
}

#[test]
fn restarted_coordinator_aborts_cleanly() {
    let server = Server::bind("127.0.0.1:0", cfg()).unwrap();
    let (mut c, want) = crash_mid_reshard(&server);
    // Abort: the old single-shard generation stayed authoritative under
    // dual-apply, so nothing is lost or double-counted.
    let status = c.reshard_abort().unwrap();
    assert!(!status.resharding);
    assert_eq!(status.serving_shards, 1);
    assert_eq!(status.aborted, 1);
    assert_exact_content(&mut c, &want, 1);
    // The service is fully usable: a later full reshard still works.
    let status = c.reshard(2).unwrap();
    assert_eq!(status.serving_shards, 2);
    assert_exact_content(&mut c, &want, 2);
}
