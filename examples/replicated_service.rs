//! Primary→follower replication over the wire.
//!
//! Run against separately started servers (the genuinely three-process
//! story — this is what CI's replication smoke test does):
//!
//! ```sh
//! cargo run --release -p peel-service --bin peel-server -- --addr 127.0.0.1:7745 &
//! cargo run --release -p peel-service --bin peel-server -- \
//!     --addr 127.0.0.1:7746 --follow 127.0.0.1:7745 --anti-entropy-ms 100 &
//! cargo run --release --example replicated_service -- \
//!     --primary 127.0.0.1:7745 --follower 127.0.0.1:7746 --shutdown
//! ```
//!
//! Or standalone, in which case the example hosts both the primary and
//! the follower in-process and still talks to them over loopback TCP:
//!
//! ```sh
//! cargo run --release --example replicated_service
//! ```
//!
//! Either way the client ingests through the **primary** only, waits for
//! replication, and then asserts the **follower** serves cell-identical
//! shard digests — the fast path streams sealed batches, and the
//! follower's periodic anti-entropy (IBLT reconcile against the primary)
//! heals anything the stream missed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parallel_peeling::service::service::PeelService;
use parallel_peeling::service::{
    Client, Follower, FollowerConfig, Server, ServiceConfig, WireError,
};

fn keys(range: std::ops::Range<u64>, tag: u64) -> Vec<u64> {
    range
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag)
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let send_shutdown = args.iter().any(|a| a == "--shutdown");

    // Without --primary/--follower, host both in-process (real TCP all
    // the same). The follower adopts the primary's sharding through the
    // Hello handshake, exactly as `peel-server --follow` does.
    let mut hosts: Option<(Server, Server, Follower)> = None;
    let (primary_addr, follower_addr) = match (arg("--primary"), arg("--follower")) {
        (Some(p), Some(f)) => (p, f),
        _ => {
            let primary = Server::bind("127.0.0.1:0", ServiceConfig::for_diff_budget(4, 4_096))
                .expect("bind primary");
            let paddr = primary.local_addr();
            let mut probe =
                Client::connect_retry(paddr, Duration::from_secs(5)).expect("probe primary");
            let hello = probe.hello().expect("hello");
            let fsvc = Arc::new(PeelService::start(ServiceConfig::from_hello(&hello)));
            let fserver =
                Server::bind_with("127.0.0.1:0", Arc::clone(&fsvc)).expect("bind follower");
            let faddr = fserver.local_addr();
            let driver = Follower::start(
                fsvc,
                paddr,
                FollowerConfig {
                    anti_entropy_interval: Duration::from_millis(100),
                    ..FollowerConfig::default()
                },
            );
            println!("no --primary/--follower given; hosting in-process on {paddr} → {faddr}");
            hosts = Some((primary, fserver, driver));
            (paddr.to_string(), faddr.to_string())
        }
    };

    println!("primary {primary_addr}, follower {follower_addr}");
    let mut cp = Client::connect_retry(primary_addr.as_str(), Duration::from_secs(10))
        .expect("connect primary");
    let mut cf = Client::connect_retry(follower_addr.as_str(), Duration::from_secs(10))
        .expect("connect follower");
    let hello = cp.hello().expect("hello");
    println!(
        "primary: protocol v{}, {} shards × {} cells, batch size {}",
        hello.version,
        hello.shards,
        hello.base_config.total_cells(),
        hello.batch_size,
    );

    // Give the follower's subscription a moment to attach so the fast
    // path carries most of the workload (anti-entropy would heal a
    // missed prefix anyway, just more slowly).
    let deadline = Instant::now() + Duration::from_secs(10);
    while cp
        .stats()
        .expect("stats")
        .scalar("peel_replication_followers", &[])
        == Some(0)
    {
        if Instant::now() >= deadline {
            println!("note: no follower subscribed yet; relying on anti-entropy alone");
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Ingest through the primary only: 30k inserts, then a slice of
    // deletes so the stream carries both directions.
    let ks = keys(0..30_000, 0x0);
    let t = Instant::now();
    for chunk in ks.chunks(4_096) {
        cp.insert(chunk).expect("insert");
    }
    cp.delete(&ks[..2_000]).expect("delete");
    cp.flush().expect("flush");
    println!(
        "ingested {} ops into the primary in {:.1} ms",
        ks.len() + 2_000,
        t.elapsed().as_secs_f64() * 1e3
    );

    // Wait until the follower serves cell-identical digests for every
    // shard — replication is done when reads agree, not when a queue
    // looks empty.
    let t = Instant::now();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let identical = (0..hello.shards).all(|shard| {
            let (_e, p) = cp.digest(shard).expect("primary digest");
            let (_e, f) = cf.digest(shard).expect("follower digest");
            p == f
        });
        if identical {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "follower digests never matched the primary"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    println!(
        "follower converged to identical shard digests in {:.1} ms",
        t.elapsed().as_secs_f64() * 1e3
    );

    // A reconcile against the *follower* now finds no difference from
    // the primary's net content — the follower genuinely serves the set.
    let mut net: Vec<u64> = ks[2_000..].to_vec();
    net.sort_unstable();
    let diff = cf.reconcile(&net).expect("reconcile follower");
    assert!(diff.complete, "follower reconcile failed to decode");
    assert!(
        diff.only_server.is_empty() && diff.only_client.is_empty(),
        "follower content differs: {}+{} keys",
        diff.only_server.len(),
        diff.only_client.len()
    );

    let ps = cp.stats().expect("primary stats");
    let fs = cf.stats().expect("follower stats");
    let p = |name| ps.scalar(name, &[]).unwrap_or(0);
    let f = |name| fs.scalar(name, &[]).unwrap_or(0);
    println!(
        "primary replication: {} follower(s), seq {} published / {} acked (max lag {}), \
         {} batches streamed, {} dropped",
        p("peel_replication_followers"),
        p("peel_replication_published_seq"),
        p("peel_replication_acked_min"),
        p("peel_replication_max_lag"),
        p("peel_replication_batches_streamed_total"),
        p("peel_replication_batches_dropped_total"),
    );
    println!(
        "follower replication: {} batches applied, {} skipped, {} torn; \
         {} anti-entropy rounds healed {} keys",
        f("peel_replication_batches_applied_total"),
        f("peel_replication_batches_skipped_total"),
        f("peel_replication_decode_errors_total"),
        f("peel_replication_anti_entropy_rounds_total"),
        f("peel_replication_anti_entropy_keys_total"),
    );

    if send_shutdown {
        // Follower first: once the primary is gone the follower's
        // drivers would just spin on reconnect until told to stop.
        cf.shutdown_server().expect("shutdown follower");
        match cp.shutdown_server() {
            Ok(()) | Err(WireError::UnexpectedEof) => {}
            Err(e) => panic!("shutdown primary: {e}"),
        }
        println!("sent shutdown to follower and primary");
    }
    if let Some((mut p, mut f, mut driver)) = hosts.take() {
        driver.stop();
        f.shutdown();
        p.shutdown();
    }
    println!("OK: follower serves digests identical to the primary");
}
