//! Blocking client library for the reconciliation service.
//!
//! [`Client`] wraps one TCP connection with typed request/response calls;
//! [`Client::reconcile`] is the high-level entry point: it learns the
//! server's sharding from the `Hello` handshake, digests the caller's key
//! set per shard, reconciles every shard, and merges the result into a
//! single [`ServiceDiff`].

use std::io::BufWriter;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use peel_iblt::Iblt;

use crate::metrics::{ReshardStats, Samples};
use crate::recorder::FlightRecord;
use crate::router::build_shard_digests;
use crate::transport::FramedTcp;
use crate::wire::{
    decode_response, encode_request, read_frame, write_frame, HelloInfo, ReplicaStatus, Request,
    Response, ShardDiff, WireError,
};

/// What a converged-read request came back with: the digest, or a
/// staleness refusal naming where to go instead.
#[derive(Debug, Clone)]
pub enum ReadOutcome {
    /// The replica was converged enough; here is the shard digest.
    Digest {
        /// Shard epoch at snapshot time.
        epoch: u64,
        /// Frozen shard table.
        iblt: Iblt,
    },
    /// The replica is lagging past the caller's bound.
    Stale {
        /// The replica's current lag, in batches.
        lag: u64,
        /// The current primary's advertised address (may be empty).
        redirect: String,
    },
}

/// The merged outcome of reconciling every shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceDiff {
    /// Keys the server has that the client does not (sorted).
    pub only_server: Vec<u64>,
    /// Keys the client has that the server does not (sorted).
    pub only_client: Vec<u64>,
    /// True iff every shard decoded completely.
    pub complete: bool,
    /// The per-shard results (epochs, subround counts, raw key lists).
    pub shards: Vec<ShardDiff>,
}

impl ServiceDiff {
    /// Largest subround count over all shards (the recovery's critical
    /// path if shards were reconciled in parallel).
    pub fn max_subrounds(&self) -> u32 {
        self.shards.iter().map(|d| d.subrounds).max().unwrap_or(0)
    }
}

/// A blocking connection to a reconciliation server.
pub struct Client {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    hello: Option<HelloInfo>,
}

impl Client {
    /// Connect to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, WireError> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Connect, retrying for up to `timeout` while the server comes up
    /// (useful when the server is a freshly spawned separate process).
    pub fn connect_retry<A: ToSocketAddrs + Clone>(
        addr: A,
        timeout: Duration,
    ) -> Result<Client, WireError> {
        let deadline = Instant::now() + timeout;
        loop {
            match TcpStream::connect(addr.clone()) {
                Ok(stream) => return Self::from_stream(stream),
                Err(e) if Instant::now() >= deadline => return Err(WireError::Io(e)),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// Connect with a bounded TCP connect timeout — the mesh building
    /// block: election probes and read routing must not hang on a dead
    /// peer for the OS default. The same bound is installed as the
    /// socket read/write deadline, so a peer that *accepts* and then
    /// wedges (half-dead process, black-holed network) cannot hang the
    /// caller either; such calls fail with [`WireError::TimedOut`].
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> Result<Client, WireError> {
        let stream = TcpStream::connect_timeout(addr, timeout).map_err(WireError::Io)?;
        let mut client = Self::from_stream(stream)?;
        client.set_io_timeout(Some(timeout))?;
        Ok(client)
    }

    /// Bound every subsequent socket read and write on this connection
    /// (`None` restores blocking-forever). An expired deadline surfaces
    /// as [`WireError::TimedOut`]; the connection is not usable
    /// afterwards (a frame may be half-sent or half-read).
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<(), WireError> {
        // Reader and writer are clones of one socket, so the options
        // land on the shared descriptor; set both directions.
        self.reader
            .set_read_timeout(timeout)
            .map_err(WireError::Io)?;
        self.reader
            .set_write_timeout(timeout)
            .map_err(WireError::Io)?;
        Ok(())
    }

    fn from_stream(stream: TcpStream) -> Result<Client, WireError> {
        let _ = stream.set_nodelay(true);
        let reader = stream.try_clone()?;
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            hello: None,
        })
    }

    fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        write_frame(&mut self.writer, &encode_request(req))?;
        let payload = read_frame(&mut self.reader)?.ok_or(WireError::UnexpectedEof)?;
        match decode_response(&payload)? {
            Response::Error(msg) => Err(WireError::Remote(msg)),
            resp => Ok(resp),
        }
    }

    /// Fetch (and cache) the server's sharding parameters.
    pub fn hello(&mut self) -> Result<HelloInfo, WireError> {
        if let Some(h) = self.hello {
            return Ok(h);
        }
        self.refresh_hello()
    }

    /// Re-fetch the server's sharding parameters, bypassing the cache —
    /// the shard count is live (a reshard changes it), so long-lived
    /// clients like the follower's anti-entropy loop poll this.
    pub fn refresh_hello(&mut self) -> Result<HelloInfo, WireError> {
        match self.call(&Request::Hello)? {
            Response::Hello(h) => {
                self.hello = Some(h);
                Ok(h)
            }
            _ => Err(WireError::UnexpectedResponse("expected Hello")),
        }
    }

    /// Insert keys; returns how many the server accepted.
    pub fn insert(&mut self, keys: &[u64]) -> Result<u64, WireError> {
        match self.call(&Request::Insert(keys.to_vec()))? {
            Response::Ok { accepted } => Ok(accepted),
            _ => Err(WireError::UnexpectedResponse("expected Ok")),
        }
    }

    /// Delete keys; returns how many the server accepted.
    pub fn delete(&mut self, keys: &[u64]) -> Result<u64, WireError> {
        match self.call(&Request::Delete(keys.to_vec()))? {
            Response::Ok { accepted } => Ok(accepted),
            _ => Err(WireError::UnexpectedResponse("expected Ok")),
        }
    }

    /// Block until everything submitted so far is applied server-side.
    pub fn flush(&mut self) -> Result<(), WireError> {
        match self.call(&Request::Flush)? {
            Response::Ok { .. } => Ok(()),
            _ => Err(WireError::UnexpectedResponse("expected Ok")),
        }
    }

    /// Fetch a snapshot digest of one server shard.
    pub fn digest(&mut self, shard: u32) -> Result<(u64, Iblt), WireError> {
        match self.call(&Request::Digest { shard })? {
            Response::Digest { epoch, iblt } => Ok((epoch, iblt)),
            _ => Err(WireError::UnexpectedResponse("expected Digest")),
        }
    }

    /// Reconcile one shard against a locally built digest.
    pub fn reconcile_shard(&mut self, shard: u32, digest: &Iblt) -> Result<ShardDiff, WireError> {
        match self.call(&Request::Reconcile {
            shard,
            digest: digest.clone(),
        })? {
            Response::Diff(d) => Ok(d),
            _ => Err(WireError::UnexpectedResponse("expected Diff")),
        }
    }

    /// Reconcile the caller's entire key set against the server: digest
    /// the keys per shard (using the handshake parameters) and merge the
    /// per-shard differences.
    pub fn reconcile(&mut self, keys: &[u64]) -> Result<ServiceDiff, WireError> {
        let hello = self.hello()?;
        let digests = build_shard_digests(keys, hello.shards, hello.router_seed, hello.base_config);
        let mut out = ServiceDiff {
            complete: true,
            ..ServiceDiff::default()
        };
        for (i, digest) in digests.iter().enumerate() {
            let d = self.reconcile_shard(i as u32, digest)?;
            out.complete &= d.complete;
            out.only_server.extend_from_slice(&d.only_local);
            out.only_client.extend_from_slice(&d.only_remote);
            out.shards.push(d);
        }
        out.only_server.sort_unstable();
        out.only_client.sort_unstable();
        Ok(out)
    }

    /// Fetch service metrics: every registry family's samples, looked
    /// up by family name ([`Samples::scalar`], [`Samples::histogram`]).
    pub fn stats(&mut self) -> Result<Samples, WireError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            _ => Err(WireError::UnexpectedResponse("expected Stats")),
        }
    }

    /// Dump the server's flight recorder — the most recent structured
    /// trace events, oldest first. Empty when no recorder is installed
    /// on the server.
    pub fn debug_dump(&mut self) -> Result<Vec<FlightRecord>, WireError> {
        match self.call(&Request::DebugDump)? {
            Response::DebugDump(records) => Ok(records),
            _ => Err(WireError::UnexpectedResponse("expected DebugDump")),
        }
    }

    /// Begin a live reshard to `to_shards` shards (protocol v4; servers
    /// older than that answer with a tag error, surfaced as
    /// [`WireError::Remote`]). When this returns, the server has
    /// re-keyed its contents into the new generation and is
    /// dual-applying; commit or abort to finish.
    pub fn reshard_begin(&mut self, to_shards: u32) -> Result<ReshardStats, WireError> {
        self.reshard_call(&Request::ReshardBegin { to_shards })
    }

    /// Verify one new-generation shard and fetch its digest. The server
    /// picks the smaller encoding per table — sparse skip-empty-cells
    /// for lightly loaded (freshly split) shards, dense otherwise — so
    /// both digest response kinds are accepted here.
    pub fn reshard_digest(&mut self, shard: u32) -> Result<(u64, Iblt), WireError> {
        match self.call(&Request::ReshardDigest { shard })? {
            Response::DigestSparse { epoch, iblt } | Response::Digest { epoch, iblt } => {
                Ok((epoch, iblt))
            }
            _ => Err(WireError::UnexpectedResponse("expected a digest")),
        }
    }

    /// Cut the server over to the new generation. Invalidates the cached
    /// `Hello` (the shard count just changed).
    pub fn reshard_commit(&mut self) -> Result<ReshardStats, WireError> {
        self.reshard_call(&Request::ReshardCommit)
    }

    /// Abort the in-flight migration; the server keeps serving the old
    /// generation with nothing lost.
    pub fn reshard_abort(&mut self) -> Result<ReshardStats, WireError> {
        self.reshard_call(&Request::ReshardAbort)
    }

    /// The whole reshard, synchronously: begin, commit — aborting the
    /// migration if the commit fails so the server is never left stuck
    /// mid-reshard by this driver.
    pub fn reshard(&mut self, to_shards: u32) -> Result<ReshardStats, WireError> {
        self.reshard_begin(to_shards)?;
        match self.reshard_commit() {
            Ok(status) => Ok(status),
            Err(e) => {
                let _ = self.reshard_abort();
                Err(e)
            }
        }
    }

    fn reshard_call(&mut self, req: &Request) -> Result<ReshardStats, WireError> {
        let resp = self.call(req)?;
        // Any reshard control frame can change (or reveal a changed)
        // shard count; drop the cached handshake either way.
        self.hello = None;
        match resp {
            Response::Reshard(status) => Ok(status),
            _ => Err(WireError::UnexpectedResponse("expected Reshard")),
        }
    }

    /// Fetch the server's replica-mesh status: identity, epoch, role,
    /// stream progress, convergence (protocol v6).
    pub fn replica_status(&mut self) -> Result<ReplicaStatus, WireError> {
        match self.call(&Request::ReplicaStatus)? {
            Response::ReplicaStatus(s) => Ok(s),
            _ => Err(WireError::UnexpectedResponse("expected ReplicaStatus")),
        }
    }

    /// A converged read: fetch a shard digest only if the replica's lag
    /// is within `max_lag` batches; otherwise the server answers
    /// `ReadStale` with a redirect, surfaced as [`ReadOutcome::Stale`]
    /// (protocol v6).
    pub fn read_digest(&mut self, shard: u32, max_lag: u64) -> Result<ReadOutcome, WireError> {
        match self.call(&Request::ReadDigest { shard, max_lag })? {
            Response::Digest { epoch, iblt } => Ok(ReadOutcome::Digest { epoch, iblt }),
            Response::ReadStale { lag, redirect } => Ok(ReadOutcome::Stale { lag, redirect }),
            _ => Err(WireError::UnexpectedResponse(
                "expected Digest or ReadStale",
            )),
        }
    }

    /// Ask the server process to shut down cleanly.
    pub fn shutdown_server(&mut self) -> Result<(), WireError> {
        match self.call(&Request::Shutdown)? {
            Response::Ok { .. } => Ok(()),
            _ => Err(WireError::UnexpectedResponse("expected Ok")),
        }
    }

    /// Convert this connection into a replication subscription: after
    /// the server acknowledges, it streams `Replicate` frames for every
    /// batch sealed after `last_seq`. Returns the framed transport to
    /// drive with [`crate::replication::apply_replication_stream`].
    pub fn subscribe(mut self, last_seq: u64) -> Result<FramedTcp, WireError> {
        match self.call(&Request::Subscribe { last_seq })? {
            Response::Ok { .. } => Ok(FramedTcp::from_parts(self.reader, self.writer)),
            _ => Err(WireError::UnexpectedResponse("expected Ok")),
        }
    }

    /// A clone of the underlying socket, for out-of-band shutdown of a
    /// call blocked in another thread.
    pub fn raw_stream(&self) -> std::io::Result<TcpStream> {
        self.reader.try_clone()
    }
}

/// Route a converged read across a replica mesh: try `replicas` in the
/// caller's order (nearest first), taking the first digest whose replica
/// is within `max_lag` batches of its stream. A `ReadStale` refusal with
/// a parseable redirect gets one extra hop to the named primary; dead or
/// erroring replicas are skipped. `Err` only when every path failed.
pub fn read_from_mesh(
    replicas: &[SocketAddr],
    shard: u32,
    max_lag: u64,
    timeout: Duration,
) -> Result<(u64, Iblt), WireError> {
    let mut last_err = WireError::UnexpectedResponse("no replicas to read from");
    for addr in replicas {
        let outcome =
            Client::connect_timeout(addr, timeout).and_then(|mut c| c.read_digest(shard, max_lag));
        match outcome {
            Ok(ReadOutcome::Digest { epoch, iblt }) => return Ok((epoch, iblt)),
            Ok(ReadOutcome::Stale { lag, redirect }) => {
                // One redirect hop: the primary never lags itself, so ask
                // it with the same bound rather than give up on this
                // replica's answer.
                if let Ok(primary) = redirect.parse::<SocketAddr>() {
                    if !replicas.contains(&primary) {
                        if let Ok(ReadOutcome::Digest { epoch, iblt }) =
                            Client::connect_timeout(&primary, timeout)
                                .and_then(|mut c| c.read_digest(shard, max_lag))
                        {
                            return Ok((epoch, iblt));
                        }
                    }
                }
                last_err = WireError::Remote(format!(
                    "replica {addr} is {lag} batches stale (bound {max_lag})"
                ));
            }
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}
