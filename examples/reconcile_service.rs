//! Two-process set reconciliation over the wire.
//!
//! Run against a separately started server (the genuinely two-process
//! story — this is what CI's smoke test does):
//!
//! ```sh
//! cargo run --release -p peel-service --bin peel-server -- --addr 127.0.0.1:7744 &
//! cargo run --release --example reconcile_service -- --addr 127.0.0.1:7744 --shutdown
//! ```
//!
//! Or standalone, in which case the example spawns the server in-process
//! and still talks to it over loopback TCP:
//!
//! ```sh
//! cargo run --release --example reconcile_service
//! ```

use std::time::{Duration, Instant};

use parallel_peeling::service::{Client, Server, ServiceConfig};

fn keys(range: std::ops::Range<u64>, tag: u64) -> Vec<u64> {
    range
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag)
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = args
        .iter()
        .position(|a| a == "--addr")
        .and_then(|i| args.get(i + 1).cloned());
    let send_shutdown = args.iter().any(|a| a == "--shutdown");

    // Without --addr, host the server ourselves (still over real TCP).
    let (_local_server, addr) = match addr {
        Some(a) => (None, a),
        None => {
            let server = Server::bind("127.0.0.1:0", ServiceConfig::for_diff_budget(4, 2_048))
                .expect("bind local server");
            let a = server.local_addr().to_string();
            println!("no --addr given; hosting an in-process server on {a}");
            (Some(server), a)
        }
    };

    println!("connecting to {addr} …");
    let mut client =
        Client::connect_retry(addr.as_str(), Duration::from_secs(10)).expect("connect");
    let hello = client.hello().expect("hello");
    println!(
        "server: protocol v{}, {} shards × {} cells (r = {}), batch size {}",
        hello.version,
        hello.shards,
        hello.base_config.total_cells(),
        hello.base_config.hashes,
        hello.batch_size,
    );

    // The "server side" of the story: 100k keys pushed over the wire.
    let shared = keys(0..99_600, 0x0);
    let server_only = keys(0..400, 0xA5A5_0000_0000_0000);
    let client_only = keys(0..350, 0xC3C3_0000_0000_0000);
    let mut server_set = shared.clone();
    server_set.extend(&server_only);
    let mut client_set = shared;
    client_set.extend(&client_only);

    let t = Instant::now();
    for chunk in server_set.chunks(8_192) {
        client.insert(chunk).expect("insert");
    }
    client.flush().expect("flush");
    println!(
        "seeded server with {} keys in {:.1} ms",
        server_set.len(),
        t.elapsed().as_secs_f64() * 1e3
    );

    // The client's own set differs in 750 of 100k keys; reconcile.
    let t = Instant::now();
    let diff = client.reconcile(&client_set).expect("reconcile");
    println!(
        "reconciled {} keys in {:.1} ms: complete = {}, {} server-only, {} client-only, \
         max {} parallel subrounds",
        client_set.len(),
        t.elapsed().as_secs_f64() * 1e3,
        diff.complete,
        diff.only_server.len(),
        diff.only_client.len(),
        diff.max_subrounds(),
    );
    for d in &diff.shards {
        println!(
            "  shard {}: epoch {}, {} subrounds, {}+{} keys",
            d.shard,
            d.epoch,
            d.subrounds,
            d.only_local.len(),
            d.only_remote.len()
        );
    }

    // The recovered symmetric difference must match exactly.
    assert!(diff.complete, "difference failed to decode");
    let mut want_server = server_only;
    want_server.sort_unstable();
    let mut want_client = client_only;
    want_client.sort_unstable();
    assert_eq!(diff.only_server, want_server, "server-only keys mismatch");
    assert_eq!(diff.only_client, want_client, "client-only keys mismatch");

    let stats = client.stats().expect("stats");
    let stat = |name| stats.scalar(name, &[]).unwrap_or(0);
    let (ops, batches) = (
        stat("peel_ops_applied_total"),
        stat("peel_batches_applied_total"),
    );
    let recoveries = stats.histogram("peel_recovery_latency_ns", &[]);
    println!(
        "server stats: {ops} ops in {batches} batches (occupancy {:.1}), {} recoveries, {} stalls",
        ops as f64 / batches.max(1) as f64,
        recoveries.map_or(0, |h| h.count),
        stat("peel_queue_stalls_total"),
    );

    if send_shutdown {
        client.shutdown_server().expect("shutdown");
        println!("sent shutdown; server is stopping");
    }
    println!("OK: symmetric difference of 750 keys recovered exactly over TCP");
}
