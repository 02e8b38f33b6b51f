//! Scatter-gather query router for sharded label stores.
//!
//! The paper's labels are *self-contained*: `δ(s, t, F)` needs only the
//! labels of `s`, `t`, and the faulted elements — at most `2 + |F|`
//! labels wherever they live. That makes horizontal sharding trivially
//! sound: split the vertex set across shard servers (see
//! [`fsdl_labels::partition`]), and a query touches at most `2 + |F|`
//! shards. The router is the piece that reassembles the illusion of a
//! single oracle:
//!
//! 1. **Accept** client `query` / `batch` frames on the same
//!    readiness-driven event loop the single-process server runs — the
//!    router is a second front-end of that loop, and its
//!    [`fsdl_reactor::Poller`] owns the listener, every client socket,
//!    *and* every upstream shard socket.
//! 2. **Scatter**: map each needed vertex id to its shard through the
//!    [`PartitionPlan`], and send `label-fetch` frames over pooled
//!    nonblocking upstream connections (chunked at
//!    [`MAX_LABEL_FETCH`] ids per frame).
//! 3. **Gather**: per-request join state counts outstanding chunks;
//!    each upstream connection answers in FIFO order (the protocol is
//!    strictly request/reply per connection), so replies are matched to
//!    requests without ids on the wire.
//! 4. **Decode + answer locally**: a worker pool decodes the gathered
//!    raw labels with the per-worker [`DecodeScratch`] fast path and
//!    runs [`fsdl_labels::query_with_scratch`] — the *same* entry point
//!    the single-process server uses — so answers are bit-identical:
//!    same distances, same sketch sizes, same witness paths.
//!
//! ## Token namespace
//!
//! Every poller token comes from the shared loop's one scheme,
//! `(generation << 32) | slot`. Client connections take slab slots below
//! 2³¹ and keep the full 32-bit generation, so a stale completion for a
//! recycled slot is recognized exactly as in the single-process server.
//! Upstream connection `i` gets its token from the same function, for
//! slot `2³¹ + i`: no client slot reaches that half, and the listener
//! and wake-pipe tokens sit at its very top. The loop hands readiness in
//! that half to the router's upstream hook without knowing which
//! front-end it serves. Upstream tokens are minted once at bind and are
//! stable for the router's lifetime; redials reuse them.
//!
//! ## Failure semantics
//!
//! - A shard connection that errors or closes fails every request
//!   waiting on it with [`ErrorCode::Unavailable`]; the router then
//!   redials on a throttle, so a restarted shard heals without a router
//!   restart.
//! - A shard whose store generation changes mid-flight (it was
//!   restarted onto a new build) also answers `Unavailable` — mixing
//!   labels from different generations could silently combine two
//!   different labelings, so the router refuses rather than guesses.
//! - Validation the router cannot do (fault-*edge* membership in the
//!   graph — the router holds no graph) is the one divergence from the
//!   single-process server, which rejects such queries with
//!   `BadRequest`. The router computes the (sound) answer with the
//!   phantom edge simply ignored by decode. Endpoint and fault-vertex
//!   range checks behave identically.

use std::collections::{HashMap, VecDeque};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use fsdl_graph::NodeId;
use fsdl_labels::codec::{self, VarintScratch};
use fsdl_labels::partition::PartitionPlan;
use fsdl_labels::{query_with_scratch, DecodeScratch, Label, QueryLabels, SchemeParams};
use fsdl_reactor::Interest;

use crate::client::{Client, ClientError};
use crate::event_loop::{
    next_token, Bound, Conn, Counters, Dispatch, EventLoop, FrontEnd, LoopConfig, Reply, Workers,
    FOREIGN_SLOT_BASE,
};
use crate::protocol::{
    self, BatchItem, ErrorCode, ErrorReply, FrameStep, QueryReply, Request, Response, WireFaults,
    MAX_FRAME, MAX_LABEL_FETCH, MAX_LABEL_FRAME,
};
use crate::server::{error_reply, Endpoint, ShutdownHandle};

/// Router tunables.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Decode/compute worker threads (0 = auto, as in
    /// [`crate::ServerConfig`]).
    pub workers: usize,
    /// Frame payload ceiling in bytes (client and upstream sides).
    pub max_frame: u32,
    /// Upper bound on how long the event loop sleeps when idle.
    pub poll_interval: Duration,
    /// Slow-loris deadline for client connections holding a partial
    /// frame, and the shutdown drain grace period.
    pub frame_deadline: Duration,
    /// Upstream connections opened per shard (round-robined; min 1).
    pub pool_per_shard: usize,
    /// How long [`Router::bind`] waits for each shard to accept the
    /// handshake `label-fetch` before giving up.
    pub handshake_budget: Duration,
    /// Minimum pause between redial attempts to a dead shard.
    pub redial_interval: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            workers: 0,
            max_frame: MAX_FRAME,
            poll_interval: Duration::from_millis(25),
            frame_deadline: Duration::from_secs(10),
            pool_per_shard: 2,
            handshake_budget: Duration::from_secs(10),
            redial_interval: Duration::from_millis(500),
        }
    }
}

/// Errors [`Router::bind`] can produce.
#[derive(Debug)]
pub enum RouterError {
    /// Listener or reactor setup failed.
    Io(std::io::Error),
    /// A shard rejected or failed the handshake `label-fetch`.
    Handshake {
        /// The shard index that failed.
        shard: usize,
        /// What went wrong.
        message: String,
    },
    /// The partition plan and the shard fleet disagree (count, vertex
    /// space, or decode parameters).
    Plan(String),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Io(e) => write!(f, "router setup failed: {e}"),
            RouterError::Handshake { shard, message } => {
                write!(f, "shard {shard} handshake failed: {message}")
            }
            RouterError::Plan(msg) => write!(f, "partition plan mismatch: {msg}"),
        }
    }
}

impl std::error::Error for RouterError {}

impl From<std::io::Error> for RouterError {
    fn from(e: std::io::Error) -> Self {
        RouterError::Io(e)
    }
}

/// Totals from one [`Router::run`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterReport {
    /// Client connections accepted.
    pub connections: u64,
    /// Single queries answered successfully.
    pub queries: u64,
    /// Queries answered inside batch frames.
    pub batch_queries: u64,
    /// `label-fetch` frames sent upstream.
    pub upstream_fetches: u64,
    /// Typed error replies sent to clients.
    pub protocol_errors: u64,
    /// Upstream connection failures (dial, mid-flight error, generation
    /// change) that surfaced as `Unavailable` or triggered a redial.
    pub shard_failures: u64,
    /// Client connections closed for stalling mid-frame.
    pub deadline_closes: u64,
}

/// What one shard fleet member looks like after the handshake.
#[derive(Clone, Debug)]
struct ShardIdentity {
    generation: u64,
    epsilon_bits: u64,
    c: u32,
    vertices: u64,
}

/// A parsed client request the router can answer (everything else is
/// rejected before join state is created).
enum PlannedRequest {
    Query { s: u32, t: u32, faults: WireFaults },
    Batch(Vec<(u32, u32, WireFaults)>),
}

/// Join state for one in-flight scatter-gather.
struct Pending {
    client: u64,
    request: PlannedRequest,
    /// vertex id -> (encoded bytes, bit length), filled as chunks land.
    labels: HashMap<u32, (Vec<u8>, u32)>,
    /// Chunks still unanswered.
    outstanding: usize,
    /// First failure, if any; the reply once everything lands.
    failed: Option<ErrorReply>,
}

/// One pooled upstream connection to a shard.
struct Upstream {
    shard: usize,
    /// The poller token, kept across redials.
    token: u64,
    endpoint: Endpoint,
    conn: Option<Conn>,
    assembler: protocol::FrameAssembler,
    write_buf: protocol::WriteBuffer,
    /// In-flight chunks in send order — the pending-request id plus the
    /// ids that chunk asked for; the protocol is strict request/reply
    /// per connection, so the front entry owns the next reply frame.
    /// The requested ids are kept because a reply may be a short prefix
    /// (the shard packs to its byte budget) and the tail must be
    /// re-requested.
    fifo: VecDeque<(u64, Vec<u32>)>,
    registered: Interest,
    last_attempt: Instant,
}

impl Upstream {
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: true,
            writable: !self.write_buf.is_empty(),
        }
    }
}

/// A gathered request on its way to a decode worker.
struct ComputeJob {
    request: PlannedRequest,
    labels: HashMap<u32, (Vec<u8>, u32)>,
}

fn connect_upstream(endpoint: &Endpoint) -> std::io::Result<Conn> {
    Ok(match endpoint {
        Endpoint::Tcp(addr) => Conn::Tcp(TcpStream::connect(addr.as_str())?),
        Endpoint::Unix(path) => Conn::Unix(UnixStream::connect(path)?),
    })
}

/// A bound, not-yet-running router.
pub struct Router {
    bound: Bound,
    plan: PartitionPlan,
    params: SchemeParams,
    expected_generation: Vec<u64>,
    config: RouterConfig,
    upstreams: Vec<Upstream>,
}

impl Router {
    /// Binds the client listener, handshakes every shard (learning and
    /// cross-checking generation, epsilon, `c`, and the global vertex
    /// count), and opens the upstream connection pool.
    ///
    /// # Errors
    ///
    /// [`RouterError::Plan`] when the fleet disagrees with the plan or
    /// itself; [`RouterError::Handshake`] when a shard cannot be
    /// reached; [`RouterError::Io`] for listener/reactor failures.
    pub fn bind(
        endpoint: &Endpoint,
        shard_endpoints: Vec<Endpoint>,
        plan: PartitionPlan,
        config: RouterConfig,
    ) -> Result<Router, RouterError> {
        if shard_endpoints.len() != plan.num_shards() as usize {
            return Err(RouterError::Plan(format!(
                "plan names {} shards but {} endpoints were given",
                plan.num_shards(),
                shard_endpoints.len()
            )));
        }
        let identity = Router::handshake_fleet(&shard_endpoints, &config)?;
        let n = identity[0].vertices;
        if n != plan.num_vertices() as u64 {
            return Err(RouterError::Plan(format!(
                "shards serve {} vertices but the plan covers {}",
                n,
                plan.num_vertices()
            )));
        }
        let epsilon = f64::from_bits(identity[0].epsilon_bits);
        if !epsilon.is_finite() || epsilon <= 0.0 || n == 0 {
            return Err(RouterError::Plan(format!(
                "shards report unusable decode parameters (epsilon={epsilon}, n={n})"
            )));
        }
        let params = SchemeParams::with_c(epsilon, identity[0].c, n as usize);
        let mut bound = Bound::bind(endpoint)?;

        // The pool: `pool_per_shard` connections per shard, upstream `i`
        // registered under a fixed token for slot `FOREIGN_SLOT_BASE + i`.
        let pool = config.pool_per_shard.max(1);
        let mut upstreams = Vec::with_capacity(shard_endpoints.len() * pool);
        let mut generation = 0;
        for (shard, ep) in shard_endpoints.iter().enumerate() {
            for _ in 0..pool {
                let slot = FOREIGN_SLOT_BASE as usize + upstreams.len();
                let token = next_token(&mut generation, slot);
                let conn = match connect_upstream(ep) {
                    Ok(c) => {
                        c.set_nonblocking(true)?;
                        bound
                            .poller
                            .register(c.as_raw_fd(), token, Interest::READABLE)?;
                        Some(c)
                    }
                    // The handshake just succeeded, so a dial failure
                    // here is a race with a shard restart; the redial
                    // loop will heal it.
                    Err(_) => None,
                };
                upstreams.push(Upstream {
                    shard,
                    token,
                    endpoint: ep.clone(),
                    conn,
                    assembler: protocol::FrameAssembler::new(),
                    write_buf: protocol::WriteBuffer::new(),
                    fifo: VecDeque::new(),
                    registered: Interest::READABLE,
                    last_attempt: Instant::now(),
                });
            }
        }

        Ok(Router {
            bound,
            plan,
            params,
            expected_generation: identity.iter().map(|i| i.generation).collect(),
            config,
            upstreams,
        })
    }

    /// Blocking handshake with each shard: an empty `label-fetch` is the
    /// identity probe (generation + decode parameters, no labels). All
    /// shards must agree on everything but the generation.
    fn handshake_fleet(
        shard_endpoints: &[Endpoint],
        config: &RouterConfig,
    ) -> Result<Vec<ShardIdentity>, RouterError> {
        let mut identity = Vec::with_capacity(shard_endpoints.len());
        for (shard, ep) in shard_endpoints.iter().enumerate() {
            let reply = Client::connect_with_retry(ep, config.handshake_budget)
                .and_then(|mut c| c.label_fetch(Vec::new()))
                .map_err(|e: ClientError| RouterError::Handshake {
                    shard,
                    message: e.to_string(),
                })?;
            identity.push(ShardIdentity {
                generation: reply.generation,
                epsilon_bits: reply.epsilon_bits,
                c: reply.c,
                vertices: reply.vertices,
            });
        }
        let first = &identity[0];
        for (shard, id) in identity.iter().enumerate() {
            if (id.epsilon_bits, id.c, id.vertices) != (first.epsilon_bits, first.c, first.vertices)
            {
                return Err(RouterError::Plan(format!(
                    "shard {shard} disagrees with shard 0: \
                     (epsilon_bits, c, n) = ({}, {}, {}) vs ({}, {}, {})",
                    id.epsilon_bits, id.c, id.vertices, first.epsilon_bits, first.c, first.vertices
                )));
            }
        }
        Ok(identity)
    }

    /// The client endpoint actually bound (port 0 resolved).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_endpoint(&self) -> std::io::Result<Endpoint> {
        self.bound.local_endpoint()
    }

    /// A handle that can request shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.bound.shutdown_handle()
    }

    /// Runs the router until shutdown; blocks the calling thread.
    pub fn run(self) -> RouterReport {
        let counters = Counters::default();
        let Router {
            bound,
            plan,
            params,
            expected_generation,
            config,
            upstreams,
        } = self;
        let loop_config = LoopConfig {
            workers: config.workers,
            max_frame: config.max_frame,
            poll_interval: config.poll_interval,
            frame_deadline: config.frame_deadline,
        };
        bound.serve(
            &loop_config,
            &counters,
            |job: ComputeJob, (scratch, varints): &mut (DecodeScratch, VarintScratch)| {
                compute_answer(&job, &params, &counters, scratch, varints)
            },
            |workers| ScatterGather {
                plan: &plan,
                expected_generation,
                upstreams,
                rr: vec![0; plan.num_shards() as usize],
                pending: HashMap::new(),
                next_pending: 0,
                redial_interval: config.redial_interval,
                workers,
            },
        );

        RouterReport {
            connections: counters.connections.load(Ordering::Relaxed),
            queries: counters.queries.load(Ordering::Relaxed),
            batch_queries: counters.batch_queries.load(Ordering::Relaxed),
            upstream_fetches: counters.label_fetches.load(Ordering::Relaxed),
            protocol_errors: counters.protocol_errors.load(Ordering::Relaxed),
            shard_failures: counters.shard_failures.load(Ordering::Relaxed),
            deadline_closes: counters.deadline_closes.load(Ordering::Relaxed),
        }
    }
}

/// The router's front-end of the shared event loop: answers what it can
/// inline, scatters `query` / `batch` frames as `label-fetch` chunks over
/// the upstream pool, and hands each fully gathered request to a decode
/// worker.
struct ScatterGather<'a> {
    plan: &'a PartitionPlan,
    expected_generation: Vec<u64>,
    upstreams: Vec<Upstream>,
    /// Round-robin cursor per shard over its pool slice.
    rr: Vec<usize>,
    /// In-flight scatter-gathers keyed by a never-recycled id — the
    /// upstream FIFOs store these ids, so a finished or failed request
    /// can never be confused with a later one.
    pending: HashMap<u64, Pending>,
    next_pending: u64,
    redial_interval: Duration,
    workers: Workers<ComputeJob>,
}

impl FrontEnd for ScatterGather<'_> {
    /// Answers one client frame: locally when possible, otherwise by
    /// starting a scatter-gather.
    fn frame(&mut self, lp: &mut EventLoop<'_>, token: u64, frame: Vec<u8>) -> Dispatch {
        let counters = lp.counters;
        let inline = |response: Response| Dispatch::Inline(Reply::encode(&response, counters));
        let request = match Request::decode(&frame) {
            Ok(Request::Query { s, t, faults }) => PlannedRequest::Query { s, t, faults },
            Ok(Request::Batch(queries)) => PlannedRequest::Batch(queries),
            Ok(Request::Stats) => {
                let vertices = self.plan.num_vertices() as u64;
                return inline(Response::Stats(counters.stats(vertices, 0, 0)));
            }
            Ok(Request::Shutdown) => return inline(Response::Shutdown),
            Ok(Request::Route { .. }) => {
                return inline(error_reply(
                    ErrorCode::UnsupportedInMode,
                    "route requires a single-process static server; \
                     the router serves distance queries only",
                ));
            }
            Ok(Request::Update(_)) => {
                return inline(error_reply(
                    ErrorCode::UnsupportedInMode,
                    "update requires a dynamic oracle; the router fronts immutable shards",
                ));
            }
            Ok(Request::LabelFetch { .. }) => {
                return inline(error_reply(
                    ErrorCode::UnsupportedInMode,
                    "label-fetch is the shard-facing op; send query or batch frames here",
                ));
            }
            Err(wire_err) => return inline(error_reply(wire_err.code(), wire_err.to_string())),
        };
        match self.start_gather(lp, token, request) {
            Ok(()) => Dispatch::Taken,
            Err(response) => inline(response),
        }
    }

    fn foreign_ready(&mut self, lp: &mut EventLoop<'_>, index: usize, writable: bool) {
        self.upstream_ready(lp, index, writable);
    }

    fn tick(&mut self, lp: &mut EventLoop<'_>) {
        self.redial_dead_upstreams(lp);
    }
}

impl ScatterGather<'_> {
    fn pool(&self) -> usize {
        self.upstreams.len() / self.rr.len().max(1)
    }

    /// Plans and launches one scatter-gather for connection `client`, or
    /// returns the immediate answer when validation fails or a needed
    /// shard has no live connection.
    fn start_gather(
        &mut self,
        lp: &mut EventLoop<'_>,
        client: u64,
        request: PlannedRequest,
    ) -> Result<(), Response> {
        let n = self.plan.num_vertices();
        let ids = needed_ids(&request);
        if let Some(&bad) = ids.iter().find(|&&v| v as usize >= n) {
            return Err(error_reply(
                ErrorCode::BadRequest,
                format!("vertex {bad} out of range for a graph of {n} vertices"),
            ));
        }
        // Group the (sorted, deduped) ids by owning shard, then chunk
        // each group at the wire cap.
        let mut by_shard: HashMap<u32, Vec<u32>> = HashMap::new();
        for &v in &ids {
            by_shard
                .entry(self.plan.shard_of(NodeId::new(v)))
                .or_default()
                .push(v);
        }
        // All needed shards must have a live connection before anything
        // is enqueued — a half-scattered request would tie up upstream
        // FIFO slots for a reply we already know we cannot assemble.
        let mut routes: Vec<(usize, Vec<u32>)> = Vec::with_capacity(by_shard.len());
        for (&shard, group) in &by_shard {
            if self.pick_upstream(shard as usize).is_none() {
                lp.counters.shard_failures.fetch_add(1, Ordering::Relaxed);
                return Err(error_reply(
                    ErrorCode::Unavailable,
                    format!("shard {shard} is unavailable"),
                ));
            }
            for chunk in group.chunks(MAX_LABEL_FETCH as usize) {
                routes.push((shard as usize, chunk.to_vec()));
            }
        }
        let id = self.next_pending;
        self.next_pending += 1;
        self.pending.insert(
            id,
            Pending {
                client,
                request,
                labels: HashMap::with_capacity(ids.len()),
                outstanding: routes.len(),
                failed: None,
            },
        );
        for (shard, chunk) in routes {
            let idx = self
                .pick_upstream(shard)
                .expect("liveness was checked before enqueueing");
            lp.counters.label_fetches.fetch_add(1, Ordering::Relaxed);
            let mut payload = Vec::new();
            Request::LabelFetch {
                vertices: chunk.clone(),
            }
            .encode(&mut payload);
            let up = &mut self.upstreams[idx];
            up.write_buf.queue_frame(&payload);
            up.fifo.push_back((id, chunk));
            self.update_upstream_interest(lp, idx);
        }
        Ok(())
    }

    /// Picks the next live connection in `shard`'s pool slice
    /// (round-robin), or `None` when the whole slice is down.
    fn pick_upstream(&mut self, shard: usize) -> Option<usize> {
        let pool = self.pool();
        let base = shard * pool;
        for step in 0..pool {
            let idx = base + (self.rr[shard] + step) % pool;
            if self.upstreams[idx].conn.is_some() {
                self.rr[shard] = (self.rr[shard] + step + 1) % pool;
                return Some(idx);
            }
        }
        None
    }

    fn upstream_ready(&mut self, lp: &mut EventLoop<'_>, idx: usize, writable: bool) {
        if idx >= self.upstreams.len() {
            return;
        }
        if writable && !self.flush_upstream(lp, idx) {
            return;
        }
        let up = &mut self.upstreams[idx];
        let Some(conn) = up.conn.as_mut() else {
            return;
        };
        let mut dead = false;
        loop {
            match up.assembler.read_from(conn) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        // Serve every complete reply frame that arrived, even when the
        // connection died right after sending them. Label-plane replies
        // read under the larger MAX_LABEL_FRAME cap: labels are
        // poly(1/eps, log n) bytes each, so a legitimate multi-label
        // reply can exceed the client-facing frame ceiling.
        loop {
            let frame = match self.upstreams[idx].assembler.next_frame(MAX_LABEL_FRAME) {
                FrameStep::Frame(payload) => payload.to_vec(),
                FrameStep::Incomplete => break,
                FrameStep::Oversized { .. } => {
                    dead = true;
                    break;
                }
            };
            if !self.absorb_upstream_frame(lp, idx, &frame) {
                dead = true;
                break;
            }
        }
        if dead {
            self.fail_upstream(lp, idx);
        } else {
            self.update_upstream_interest(lp, idx);
        }
    }

    /// Matches one upstream reply frame to the front of the FIFO and
    /// folds it into the pending request. Returns `false` when the
    /// stream is desynchronized and the connection must be dropped.
    fn absorb_upstream_frame(&mut self, lp: &mut EventLoop<'_>, idx: usize, frame: &[u8]) -> bool {
        let shard = self.upstreams[idx].shard;
        let Some((pending_id, requested)) = self.upstreams[idx].fifo.pop_front() else {
            // A reply nobody asked for: protocol desync.
            return false;
        };
        let outcome = match Response::decode(frame) {
            Ok(Response::LabelFetch(reply)) => {
                if reply.generation != self.expected_generation[shard] {
                    lp.counters.shard_failures.fetch_add(1, Ordering::Relaxed);
                    Err(ErrorReply {
                        code: ErrorCode::Unavailable,
                        message: format!(
                            "shard {shard} changed store generation ({} -> {}) mid-flight",
                            self.expected_generation[shard], reply.generation
                        ),
                    })
                } else if reply.labels.len() > requested.len()
                    || (reply.labels.is_empty() && !requested.is_empty())
                    || reply
                        .labels
                        .iter()
                        .zip(&requested)
                        .any(|(lb, &v)| lb.vertex != v)
                {
                    // Replies must be a non-empty request prefix (short
                    // when the shard packed to its byte budget): anything
                    // else means the stream no longer lines up.
                    Err(ErrorReply {
                        code: ErrorCode::Internal,
                        message: format!(
                            "shard {shard} label-fetch reply was not a prefix of the request"
                        ),
                    })
                } else {
                    Ok(reply.labels)
                }
            }
            Ok(Response::Error(e)) => Err(ErrorReply {
                code: ErrorCode::Internal,
                message: format!(
                    "shard {shard} rejected a label-fetch [{}]: {}",
                    e.code, e.message
                ),
            }),
            Ok(other) => Err(ErrorReply {
                code: ErrorCode::Internal,
                message: format!(
                    "shard {shard} answered a label-fetch with {}",
                    other.kind_name()
                ),
            }),
            Err(wire_err) => Err(ErrorReply {
                code: ErrorCode::Internal,
                message: format!("shard {shard} sent an undecodable reply: {wire_err}"),
            }),
        };
        let desynced = matches!(outcome, Err(ref e) if e.code == ErrorCode::Internal);
        // When the pending was already failed and reaped (its other
        // chunks died with another connection) there is nothing to fold
        // and a short reply's tail is not worth fetching.
        let mut short_tail: Option<Vec<u32>> = None;
        let mut complete = false;
        match outcome {
            Ok(labels) => {
                if let Some(pending) = self.pending.get_mut(&pending_id) {
                    let served = labels.len();
                    for lb in labels {
                        pending.labels.insert(lb.vertex, (lb.bytes, lb.bit_len));
                    }
                    if served < requested.len() {
                        short_tail = Some(requested[served..].to_vec());
                    } else {
                        pending.outstanding -= 1;
                        complete = pending.outstanding == 0;
                    }
                }
            }
            Err(e) => {
                if let Some(pending) = self.pending.get_mut(&pending_id) {
                    pending.failed.get_or_insert(e);
                    pending.outstanding -= 1;
                    complete = pending.outstanding == 0;
                }
            }
        }
        if let Some(tail) = short_tail {
            // Short reply: the shard packed to its byte budget. The
            // chunk stays outstanding; re-request the unserved suffix on
            // the same connection so FIFO order keeps holding.
            lp.counters.label_fetches.fetch_add(1, Ordering::Relaxed);
            let mut payload = Vec::new();
            Request::LabelFetch {
                vertices: tail.clone(),
            }
            .encode(&mut payload);
            let up = &mut self.upstreams[idx];
            up.write_buf.queue_frame(&payload);
            up.fifo.push_back((pending_id, tail));
        }
        if complete {
            self.finish_pending(lp, pending_id);
        }
        !desynced
    }

    /// A pending is fully gathered (or fully failed): hand it to a
    /// worker, or complete the client with the recorded failure.
    fn finish_pending(&mut self, lp: &mut EventLoop<'_>, pending_id: u64) {
        let Some(pending) = self.pending.remove(&pending_id) else {
            return;
        };
        match pending.failed {
            Some(err) => lp.complete(
                pending.client,
                Reply::encode(&Response::Error(err), lp.counters),
            ),
            None => self.workers.submit(
                pending.client,
                ComputeJob {
                    request: pending.request,
                    labels: pending.labels,
                },
            ),
        }
    }

    fn flush_upstream(&mut self, lp: &mut EventLoop<'_>, idx: usize) -> bool {
        let up = &mut self.upstreams[idx];
        let Some(conn) = up.conn.as_mut() else {
            return false;
        };
        match up.write_buf.flush(conn) {
            Ok(_) => true,
            Err(_) => {
                self.fail_upstream(lp, idx);
                false
            }
        }
    }

    fn update_upstream_interest(&mut self, lp: &mut EventLoop<'_>, idx: usize) {
        let up = &mut self.upstreams[idx];
        let Some(conn) = up.conn.as_ref() else {
            return;
        };
        let desired = up.desired_interest();
        if desired != up.registered {
            up.registered = desired;
            let fd = conn.as_raw_fd();
            if lp.poller.modify(fd, up.token, desired).is_err() {
                self.fail_upstream(lp, idx);
            }
        }
    }

    /// Tears down one upstream connection: every request waiting on its
    /// FIFO fails with `Unavailable`, buffers reset, and the redial
    /// throttle starts.
    fn fail_upstream(&mut self, lp: &mut EventLoop<'_>, idx: usize) {
        let shard = self.upstreams[idx].shard;
        if let Some(conn) = self.upstreams[idx].conn.take() {
            let _ = lp.poller.deregister(conn.as_raw_fd());
            lp.counters.shard_failures.fetch_add(1, Ordering::Relaxed);
        }
        let up = &mut self.upstreams[idx];
        up.assembler = protocol::FrameAssembler::new();
        up.write_buf = protocol::WriteBuffer::new();
        up.last_attempt = Instant::now();
        let orphans: Vec<(u64, Vec<u32>)> = up.fifo.drain(..).collect();
        for (pending_id, _requested) in orphans {
            let Some(pending) = self.pending.get_mut(&pending_id) else {
                continue;
            };
            pending.failed.get_or_insert(ErrorReply {
                code: ErrorCode::Unavailable,
                message: format!("shard {shard} connection failed mid-request"),
            });
            pending.outstanding -= 1;
            if pending.outstanding == 0 {
                self.finish_pending(lp, pending_id);
            }
        }
    }

    /// Redials dead upstream connections on a throttle. The connect is
    /// blocking but local-fleet-fast; a dead host is bounded by the OS
    /// connect timeout and the redial interval keeps it rare.
    fn redial_dead_upstreams(&mut self, lp: &mut EventLoop<'_>) {
        for idx in 0..self.upstreams.len() {
            if self.upstreams[idx].conn.is_some()
                || self.upstreams[idx].last_attempt.elapsed() < self.redial_interval
            {
                continue;
            }
            self.upstreams[idx].last_attempt = Instant::now();
            let endpoint = self.upstreams[idx].endpoint.clone();
            let Ok(conn) = connect_upstream(&endpoint) else {
                continue;
            };
            if conn.set_nonblocking(true).is_err() {
                continue;
            }
            if lp
                .poller
                .register(
                    conn.as_raw_fd(),
                    self.upstreams[idx].token,
                    Interest::READABLE,
                )
                .is_err()
            {
                continue;
            }
            let up = &mut self.upstreams[idx];
            up.conn = Some(conn);
            up.registered = Interest::READABLE;
        }
    }
}

/// Every vertex id a request's answer needs: endpoints plus the fault
/// elements that survive [`WireFaults::to_fault_set`] (so a self-loop
/// fault edge is dropped here exactly as the single-process server
/// drops it). Sorted and deduplicated.
fn needed_ids(request: &PlannedRequest) -> Vec<u32> {
    let mut ids = Vec::new();
    let mut push_query = |s: u32, t: u32, faults: &WireFaults| {
        ids.push(s);
        ids.push(t);
        let fault_set = faults.to_fault_set();
        ids.extend(fault_set.vertices().map(NodeId::raw));
        for e in fault_set.edges() {
            ids.push(e.lo().raw());
            ids.push(e.hi().raw());
        }
    };
    match request {
        PlannedRequest::Query { s, t, faults } => push_query(*s, *t, faults),
        PlannedRequest::Batch(items) => {
            for (s, t, faults) in items {
                push_query(*s, *t, faults);
            }
        }
    }
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Decodes every gathered label once, validating ownership and internal
/// consistency — a shard that returns bytes for the wrong vertex or a
/// corrupt label is a typed `Internal` error, never a wrong answer.
fn decode_gathered(
    labels: &HashMap<u32, (Vec<u8>, u32)>,
    n: usize,
    varints: &mut VarintScratch,
) -> Result<HashMap<u32, Label>, Response> {
    let mut decoded = HashMap::with_capacity(labels.len());
    for (&v, (bytes, bit_len)) in labels {
        let label = match codec::decode_with(bytes, *bit_len as usize, n, varints) {
            Ok(l) => l,
            Err(e) => {
                return Err(Response::Error(ErrorReply {
                    code: ErrorCode::Internal,
                    message: format!("label for vertex {v} failed to decode: {e}"),
                }));
            }
        };
        if label.owner != NodeId::new(v) || label.validate().is_err() {
            return Err(Response::Error(ErrorReply {
                code: ErrorCode::Internal,
                message: format!("shard returned an inconsistent label for vertex {v}"),
            }));
        }
        decoded.insert(v, label);
    }
    Ok(decoded)
}

/// Answers one (s, t, F) against the decoded label map — the same
/// [`query_with_scratch`] call, fed the same labels in the same
/// [`QueryLabels`] order as the single-process server, so the answer is
/// bit-identical.
fn answer_one(
    s: u32,
    t: u32,
    faults: &WireFaults,
    decoded: &HashMap<u32, Label>,
    params: &SchemeParams,
    scratch: &mut DecodeScratch,
) -> Result<fsdl_labels::QueryAnswer, Response> {
    let missing = |v: u32| {
        Response::Error(ErrorReply {
            code: ErrorCode::Internal,
            message: format!("gathered label set is missing vertex {v}"),
        })
    };
    let source = decoded.get(&s).ok_or_else(|| missing(s))?;
    let target = decoded.get(&t).ok_or_else(|| missing(t))?;
    let fault_set = faults.to_fault_set();
    let mut fault_vertices = Vec::with_capacity(fault_set.len());
    for v in fault_set.vertices() {
        fault_vertices.push(decoded.get(&v.raw()).ok_or_else(|| missing(v.raw()))?);
    }
    let mut fault_edges = Vec::new();
    for e in fault_set.edges() {
        let a = decoded
            .get(&e.lo().raw())
            .ok_or_else(|| missing(e.lo().raw()))?;
        let b = decoded
            .get(&e.hi().raw())
            .ok_or_else(|| missing(e.hi().raw()))?;
        fault_edges.push((a, b));
    }
    let query_labels = QueryLabels {
        fault_vertices,
        fault_edges,
    };
    Ok(query_with_scratch(
        params,
        source,
        target,
        &query_labels,
        scratch,
    ))
}

/// The worker-side terminal: decode the gathered labels, answer every
/// query in the frame, encode the reply.
fn compute_answer(
    job: &ComputeJob,
    params: &SchemeParams,
    counters: &Counters,
    scratch: &mut DecodeScratch,
    varints: &mut VarintScratch,
) -> Response {
    let decoded = match decode_gathered(&job.labels, params.n(), varints) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    match &job.request {
        PlannedRequest::Query { s, t, faults } => {
            match answer_one(*s, *t, faults, &decoded, params, scratch) {
                Ok(answer) => {
                    counters.queries.fetch_add(1, Ordering::Relaxed);
                    Response::Query(QueryReply::from_answer(&answer))
                }
                Err(resp) => resp,
            }
        }
        PlannedRequest::Batch(items) => {
            let mut out = Vec::with_capacity(items.len());
            for (s, t, faults) in items {
                match answer_one(*s, *t, faults, &decoded, params, scratch) {
                    Ok(answer) => out.push(BatchItem::from_answer(&answer)),
                    Err(resp) => return resp,
                }
            }
            counters
                .batch_queries
                .fetch_add(out.len() as u64, Ordering::Relaxed);
            Response::Batch(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_loop::{LISTENER_TOKEN, WAKE_TOKEN};

    #[test]
    fn client_tokens_never_enter_the_upstream_namespace() {
        // Even a wrapped generation at the highest connection slot keeps
        // the slot half below the foreign base, so no client token can
        // route to an upstream, the listener, or the wake pipe.
        let mut upstream_generation = 0;
        let upstreams: Vec<u64> = (0..64)
            .map(|i| next_token(&mut upstream_generation, FOREIGN_SLOT_BASE as usize + i))
            .collect();
        let mut generation = u32::MAX - 3;
        for _ in 0..8 {
            let token = next_token(&mut generation, FOREIGN_SLOT_BASE as usize - 1);
            assert!(token & 0xFFFF_FFFF < FOREIGN_SLOT_BASE);
            assert!(!upstreams.contains(&token));
            assert_ne!(token, LISTENER_TOKEN);
            assert_ne!(token, WAKE_TOKEN);
        }
        for upstream in upstreams {
            assert!(upstream & 0xFFFF_FFFF >= FOREIGN_SLOT_BASE);
            assert_ne!(upstream, LISTENER_TOKEN);
            assert_ne!(upstream, WAKE_TOKEN);
        }
    }

    #[test]
    fn client_token_same_slot_reuse_always_differs() {
        let mut generation = u32::MAX - 1; // about to wrap the 32-bit generation
        let first = next_token(&mut generation, 42);
        let second = next_token(&mut generation, 42);
        let third = next_token(&mut generation, 42);
        assert_ne!(first, second);
        assert_ne!(second, third);
        assert_ne!(first, third);
        assert_eq!(first & 0xFFFF_FFFF, 42);
        assert_eq!(second & 0xFFFF_FFFF, 42);
    }

    #[test]
    fn needed_ids_dedups_and_follows_fault_set_filtering() {
        let faults = WireFaults {
            vertices: vec![7, 3, 7],
            edges: vec![(5, 5), (2, 9)], // (5,5) is a self-loop: dropped
        };
        let ids = needed_ids(&PlannedRequest::Query { s: 3, t: 9, faults });
        assert_eq!(ids, vec![2, 3, 7, 9]);
    }

    #[test]
    fn needed_ids_unions_batch_items() {
        let items = vec![
            (0, 1, WireFaults::empty()),
            (
                1,
                2,
                WireFaults {
                    vertices: vec![4],
                    edges: vec![],
                },
            ),
        ];
        let ids = needed_ids(&PlannedRequest::Batch(items));
        assert_eq!(ids, vec![0, 1, 2, 4]);
    }
}
