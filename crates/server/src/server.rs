//! The long-running oracle server: readiness-driven event loop + worker
//! pool.
//!
//! ## Threading model
//!
//! One event loop (the caller of [`Server::run`]) owns *every* socket —
//! the listener and all accepted connections, all nonblocking — through
//! an [`fsdl_reactor::Poller`] (raw `epoll` on Linux, `poll(2)`
//! elsewhere). The loop is the crate's connection layer (module
//! `event_loop`): each connection carries a [`protocol::FrameAssembler`]
//! that reassembles length-prefixed frames from whatever byte chunks the
//! kernel delivers and a [`protocol::WriteBuffer`] that absorbs replies a
//! full send buffer cannot take yet. The loop hands every *complete*
//! request frame to the worker pool, so a thousand idle keep-alive
//! connections and a client that drips one header byte per second cost
//! the workers nothing — the defect this design replaces parked one
//! blocking worker per connection, so `workers + 1` idle clients starved
//! all real traffic.
//!
//! Workers receive complete frames over a channel, decode and dispatch
//! them, and push the encoded reply to a completion queue, waking the
//! event loop through a self-pipe. Each worker owns one
//! [`DecodeScratch`] for its entire lifetime, so the zero-allocation
//! decode fast path survives the network hop: after a few requests
//! every buffer a query needs is already warm. The pool size defaults
//! to [`fsdl_nets::parallel::background_workers`] (available
//! parallelism minus the event-loop thread, never below one), asserted
//! at startup so a misconfigured host can never end up with zero
//! serving workers. A [`ServeEngine::Routed`] server's workers wait on
//! shard I/O for part of every request, so its default pool is one
//! worker per core instead (see [`crate::router`]).
//!
//! ## Backpressure and buffer ownership
//!
//! All buffers live on the event-loop side; workers only ever see one
//! owned frame at a time. A connection has at most one frame in flight:
//! while a worker holds its frame the event loop stops watching the
//! socket for readability, so a client that pipelines faster than the
//! engine answers is throttled by TCP itself and buffer growth per
//! connection is bounded by one readiness burst.
//!
//! ## Failure containment
//!
//! A malformed payload gets a typed [`Response::Error`] on the same
//! connection and the connection keeps serving; a broken *frame* (length
//! header past the cap) gets a final typed error and closes only that
//! connection. A connection that starts a frame and stalls past
//! [`ServerConfig::frame_deadline`] (a slow-loris client) gets a typed
//! [`ErrorCode::DeadlineExceeded`] reply, one flush attempt, and a
//! close, counted in [`ServeReport::deadline_closes`]. Nothing in the
//! serving path panics on untrusted input — the decode layer is the
//! panic-free path proven by the `labels::corrupt` harnesses.
//!
//! ## Shutdown
//!
//! A `shutdown` frame (or [`ShutdownHandle::signal`]) flips a shared
//! flag. The event loop deregisters the listener, stops dispatching
//! buffered frames, lets in-flight requests finish and their replies
//! flush, closes idle connections immediately, and force-closes
//! stragglers after one frame deadline. In dynamic mode the oracle then
//! drains any background rebuild before [`Server::run`] returns, so the
//! WAL and store are consistent on exit.

use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use fsdl_graph::NodeId;
use fsdl_labels::partition::{PartitionPlan, ShardStore};
use fsdl_labels::{DecodeScratch, DynamicOracle};
use fsdl_routing::Network;

use crate::event_loop::{Bound, Counters};
use crate::protocol::{
    self, sat_u32, BatchItem, ErrorCode, ErrorReply, LabelBytes, LabelFetchReply, QueryReply,
    Request, Response, RouteReply, UpdateOp, WireFaults,
};
use crate::router::{PlannedRequest, RoutedPlane, RouterError, ShardClients};

/// Where a server listens or a client connects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address (`host:port`; port 0 binds an ephemeral port).
    Tcp(String),
    /// A unix-domain socket path.
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads (0 = auto: available parallelism minus the
    /// event-loop thread, never below 1; for a routed engine, available
    /// parallelism).
    pub workers: usize,
    /// Frame payload ceiling in bytes.
    pub max_frame: u32,
    /// Upper bound on how long the event loop sleeps when nothing is
    /// ready — the latency ceiling for noticing an out-of-band
    /// [`ShutdownHandle::signal`].
    pub poll_interval: Duration,
    /// How long a connection may hold a *partial* frame before it is
    /// closed as a slow-loris suspect; also the grace period stragglers
    /// get to flush replies during shutdown drain, and the bound on each
    /// TCP connect, read and write a routed engine's worker makes to a
    /// shard.
    pub frame_deadline: Duration,
    /// Soft byte budget on encoded label bytes per label-fetch reply:
    /// replies carry the longest request prefix that fits (always at
    /// least one label). Lowering it forces short replies, which tests
    /// use to exercise tail re-requests on small graphs.
    pub label_fetch_budget: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            max_frame: protocol::MAX_FRAME,
            poll_interval: Duration::from_millis(25),
            frame_deadline: Duration::from_secs(10),
            label_fetch_budget: protocol::LABEL_FETCH_BYTE_BUDGET,
        }
    }
}

/// What the server serves from: a static oracle (wrapped in its routing
/// network so `route` frames work) or a durable dynamic oracle.
#[derive(Clone)]
pub enum ServeEngine {
    /// Immutable labels; `query`/`batch`/`route` with per-request
    /// forbidden sets, `update` rejected as [`ErrorCode::UnsupportedInMode`].
    Static(Arc<Network>),
    /// A dynamic oracle: `update` applies durable updates, `query`
    /// answers under the *current* fault set (per-query forbidden sets
    /// are rejected — the dynamic oracle's fault set is server state).
    Dynamic(Arc<RwLock<DynamicOracle>>),
    /// One shard of a partitioned label plane: serves only `label-fetch`
    /// (raw encoded labels by global id) and `stats`/`shutdown`; queries
    /// belong at a routed server, which holds the full partition plan.
    Shard(Arc<ShardStore>),
    /// A router over a shard fleet: `query`/`batch` answered from labels
    /// fetched from the shards that own them, bit-identical to a
    /// single-process static server. Build it with [`ServeEngine::routed`].
    Routed(Arc<RoutedPlane>),
}

impl ServeEngine {
    /// Wraps a static oracle.
    pub fn from_network(network: Network) -> Self {
        ServeEngine::Static(Arc::new(network))
    }

    /// Wraps a dynamic oracle.
    pub fn from_dynamic(oracle: DynamicOracle) -> Self {
        ServeEngine::Dynamic(Arc::new(RwLock::new(oracle)))
    }

    /// Wraps one shard's store.
    pub fn from_shard(store: ShardStore) -> Self {
        ServeEngine::Shard(Arc::new(store))
    }

    /// A router over the shard fleet at `shard_endpoints` (in shard
    /// order) partitioned by `plan`. Handshakes every shard, learning and
    /// cross-checking generation, epsilon, `c` and the global vertex
    /// count.
    ///
    /// # Errors
    ///
    /// [`RouterError::Plan`] when the fleet disagrees with the plan or
    /// itself, or reports unusable decode parameters;
    /// [`RouterError::Handshake`] when a shard cannot be reached.
    pub fn routed(
        shard_endpoints: Vec<Endpoint>,
        plan: PartitionPlan,
    ) -> Result<Self, RouterError> {
        Ok(ServeEngine::Routed(Arc::new(RoutedPlane::connect(
            shard_endpoints,
            plan,
        )?)))
    }

    fn vertices(&self) -> u64 {
        match self {
            ServeEngine::Static(net) => net.oracle().labeling().graph().num_vertices() as u64,
            ServeEngine::Dynamic(dyn_oracle) => read_lock(dyn_oracle).num_vertices() as u64,
            // The *global* id space: a shard answers for the whole graph's
            // ids even though it holds a slice of the labels.
            ServeEngine::Shard(store) => store.total_vertices(),
            ServeEngine::Routed(plane) => plane.num_vertices(),
        }
    }
}

/// Recovers a read guard even if a writer panicked (the serving path must
/// outlive any one request's failure).
fn read_lock(lock: &RwLock<DynamicOracle>) -> std::sync::RwLockReadGuard<'_, DynamicOracle> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock(lock: &RwLock<DynamicOracle>) -> std::sync::RwLockWriteGuard<'_, DynamicOracle> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Totals for one [`Server::run`] lifetime.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections accepted.
    pub connections: u64,
    /// Single queries answered.
    pub queries: u64,
    /// Queries answered inside batch frames.
    pub batch_queries: u64,
    /// Routes computed.
    pub routes: u64,
    /// Updates applied.
    pub updates: u64,
    /// Typed protocol errors answered.
    pub protocol_errors: u64,
    /// Connections closed for stalling mid-frame past the frame
    /// deadline (slow-loris protection).
    pub deadline_closes: u64,
    /// Label-fetch requests answered (shard mode) or sent to the shards
    /// (routed mode; short-reply tail re-requests are counted by the
    /// shards only).
    pub label_fetches: u64,
    /// Failed exchanges with a shard (routed mode): a dial, transport
    /// error or timeout, a desynchronized reply, or a changed store
    /// generation, each answered `Unavailable` or `Internal`.
    pub shard_failures: u64,
}

/// Signals a running server to drain and exit (the out-of-band
/// alternative to a `shutdown` frame).
#[derive(Clone, Debug)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    pub(crate) fn new(flag: Arc<AtomicBool>) -> ShutdownHandle {
        ShutdownHandle(flag)
    }

    /// Requests shutdown; idempotent.
    pub fn signal(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_signaled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    bound: Bound,
    engine: ServeEngine,
    config: ServerConfig,
}

impl Server {
    /// Binds a listener at `endpoint` and sets up the reactor (poller +
    /// worker wake pipe). For unix endpoints a stale socket file from a
    /// previous run is removed first; the file is removed again when
    /// [`Server::run`] returns.
    ///
    /// # Errors
    ///
    /// Propagates bind and reactor-setup errors.
    pub fn bind(
        endpoint: &Endpoint,
        engine: ServeEngine,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Ok(Server {
            bound: Bound::bind(endpoint)?,
            engine,
            config,
        })
    }

    /// The endpoint actually bound (resolves port 0 to the ephemeral
    /// port, so tests can bind `127.0.0.1:0` and connect back).
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

    /// Resolves the worker-pool size for this config: `workers == 0`
    /// reserves one core for the event-loop thread via
    /// [`fsdl_nets::parallel::background_workers`], except on a routed
    /// engine, whose workers wait on shard I/O and so run one per core.
    /// Guaranteed `>= 1` on every host, single-core included — asserted,
    /// because a zero-worker pool would accept connections and serve
    /// nothing.
    pub fn resolved_workers(&self) -> usize {
        // Cap irrelevant here (usize::MAX jobs).
        let workers = match (self.config.workers, &self.engine) {
            (0, ServeEngine::Routed(_)) => fsdl_nets::parallel::default_workers(usize::MAX),
            (0, _) => fsdl_nets::parallel::background_workers(usize::MAX),
            (configured, _) => configured,
        };
        assert!(
            workers >= 1,
            "worker pool must keep at least one worker after reserving the event loop"
        );
        workers
    }

    /// Runs the event loop until shutdown, then drains and returns the
    /// totals. Blocks the calling thread (spawn it for in-process use).
    pub fn run(self) -> ServeReport {
        let counters = Counters::default();
        let workers = self.resolved_workers();
        let Server {
            bound,
            engine,
            config,
        } = self;
        bound.serve(
            &config,
            workers,
            &counters,
            |frame, worker: &mut (DecodeScratch, ShardClients)| match Request::decode(&frame) {
                Err(wire_err) => error_reply(wire_err.code(), wire_err.to_string()),
                Ok(request) => handle_request(request, &engine, &config, &counters, worker),
            },
        );

        // Drain any background rebuild so the store and WAL are
        // consistent before the process can exit.
        if let ServeEngine::Dynamic(dyn_oracle) = &engine {
            read_lock(dyn_oracle).wait_for_rebuild();
        }

        ServeReport {
            connections: counters.connections.load(Ordering::Relaxed),
            queries: counters.queries.load(Ordering::Relaxed),
            batch_queries: counters.batch_queries.load(Ordering::Relaxed),
            routes: counters.routes.load(Ordering::Relaxed),
            updates: counters.updates.load(Ordering::Relaxed),
            protocol_errors: counters.protocol_errors.load(Ordering::Relaxed),
            deadline_closes: counters.deadline_closes.load(Ordering::Relaxed),
            label_fetches: counters.label_fetches.load(Ordering::Relaxed),
            shard_failures: counters.shard_failures.load(Ordering::Relaxed),
        }
    }
}

pub(crate) fn error_reply(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error(ErrorReply {
        code,
        message: message.into(),
    })
}

/// Packs the longest prefix of `vertices` whose encoded labels fit
/// `budget` bytes, but never an empty reply for a non-empty request:
/// labels are poly(1/eps, log n) bytes each, so an id count alone bounds
/// nothing. The caller re-requests the unserved tail — see
/// `LabelFetchReply`. `fetch` yields one label's bytes and bit length, or
/// the error reply that ends the request.
fn pack_label_prefix<'a>(
    vertices: &[u32],
    budget: usize,
    mut fetch: impl FnMut(u32) -> Result<(Cow<'a, [u8]>, usize), Response>,
) -> Result<Vec<LabelBytes>, Response> {
    let mut labels = Vec::with_capacity(vertices.len());
    let mut used = 0usize;
    for &v in vertices {
        let (bytes, bit_len) = fetch(v)?;
        if !labels.is_empty() && used.saturating_add(bytes.len()) > budget {
            break;
        }
        used += bytes.len();
        labels.push(LabelBytes {
            vertex: v,
            bit_len: sat_u32(bit_len),
            bytes: bytes.into_owned(),
        });
    }
    Ok(labels)
}

/// Dispatches one decoded request against the engine, on a worker with
/// its own decode scratch and (routed engine) shard clients.
fn handle_request(
    request: Request,
    engine: &ServeEngine,
    config: &ServerConfig,
    counters: &Counters,
    (scratch, shards): &mut (DecodeScratch, ShardClients),
) -> Response {
    match request {
        Request::Query { s, t, faults } => match engine {
            ServeEngine::Static(net) => {
                match net.oracle().try_query_with(
                    NodeId::new(s),
                    NodeId::new(t),
                    &faults.to_fault_set(),
                    scratch,
                ) {
                    Ok(answer) => {
                        counters.queries.fetch_add(1, Ordering::Relaxed);
                        Response::Query(QueryReply::from_answer(&answer))
                    }
                    Err(e) => error_reply(ErrorCode::BadRequest, e.to_string()),
                }
            }
            ServeEngine::Dynamic(dyn_oracle) => {
                if !faults.is_empty() {
                    return error_reply(
                        ErrorCode::UnsupportedInMode,
                        "dynamic mode serves the oracle's current fault set; \
                         send update frames instead of per-query faults",
                    );
                }
                let guard = read_lock(dyn_oracle);
                match guard.try_distance_with(NodeId::new(s), NodeId::new(t), scratch) {
                    Ok(d) => {
                        counters.queries.fetch_add(1, Ordering::Relaxed);
                        Response::Query(QueryReply {
                            distance: d.raw(),
                            sketch_vertices: 0,
                            sketch_edges: 0,
                            path: Vec::new(),
                        })
                    }
                    Err(e) => error_reply(ErrorCode::BadRequest, e.to_string()),
                }
            }
            ServeEngine::Shard(_) => error_reply(
                ErrorCode::UnsupportedInMode,
                "a shard serves label-fetch only; send queries to the router",
            ),
            ServeEngine::Routed(plane) => plane.answer(
                PlannedRequest::Query { s, t, faults },
                config.frame_deadline,
                counters,
                scratch,
                shards,
            ),
        },
        Request::Batch(queries) => match engine {
            ServeEngine::Static(net) => {
                let mut items = Vec::with_capacity(queries.len());
                for (s, t, faults) in &queries {
                    match net.oracle().try_query_with(
                        NodeId::new(*s),
                        NodeId::new(*t),
                        &faults.to_fault_set(),
                        scratch,
                    ) {
                        Ok(answer) => items.push(BatchItem::from_answer(&answer)),
                        Err(e) => {
                            return error_reply(
                                ErrorCode::BadRequest,
                                format!("batch item {}: {e}", items.len()),
                            );
                        }
                    }
                }
                counters
                    .batch_queries
                    .fetch_add(items.len() as u64, Ordering::Relaxed);
                Response::Batch(items)
            }
            ServeEngine::Dynamic(dyn_oracle) => {
                if queries.iter().any(|(_, _, f)| !f.is_empty()) {
                    return error_reply(
                        ErrorCode::UnsupportedInMode,
                        "dynamic mode serves the oracle's current fault set; \
                         send update frames instead of per-query faults",
                    );
                }
                let guard = read_lock(dyn_oracle);
                let mut items = Vec::with_capacity(queries.len());
                for (s, t, _) in &queries {
                    match guard.try_distance_with(NodeId::new(*s), NodeId::new(*t), scratch) {
                        Ok(d) => items.push(BatchItem {
                            distance: d.raw(),
                            sketch_vertices: 0,
                            sketch_edges: 0,
                        }),
                        Err(e) => {
                            return error_reply(
                                ErrorCode::BadRequest,
                                format!("batch item {}: {e}", items.len()),
                            );
                        }
                    }
                }
                counters
                    .batch_queries
                    .fetch_add(items.len() as u64, Ordering::Relaxed);
                Response::Batch(items)
            }
            ServeEngine::Shard(_) => error_reply(
                ErrorCode::UnsupportedInMode,
                "a shard serves label-fetch only; send queries to the router",
            ),
            ServeEngine::Routed(plane) => plane.answer(
                PlannedRequest::Batch(queries),
                config.frame_deadline,
                counters,
                scratch,
                shards,
            ),
        },
        Request::Route { s, t, faults } => match engine {
            ServeEngine::Static(net) => {
                let g = net.oracle().labeling().graph();
                if s as usize >= g.num_vertices() || t as usize >= g.num_vertices() {
                    return error_reply(ErrorCode::BadRequest, "route endpoint out of range");
                }
                counters.routes.fetch_add(1, Ordering::Relaxed);
                match net.route(NodeId::new(s), NodeId::new(t), &faults.to_fault_set()) {
                    Ok(delivery) => Response::Route(RouteReply::Delivered {
                        hops: sat_u32(delivery.hops),
                        header_bits: sat_u32(delivery.header_bits),
                        path: delivery.path.iter().map(|v| v.raw()).collect(),
                    }),
                    Err(failure) => Response::Route(RouteReply::Failed(failure.to_string())),
                }
            }
            ServeEngine::Dynamic(_) | ServeEngine::Shard(_) | ServeEngine::Routed(_) => {
                error_reply(
                    ErrorCode::UnsupportedInMode,
                    "route requires the static oracle of a single-process server \
                     (serve without --dynamic or --shards)",
                )
            }
        },
        Request::Update(update) => match engine {
            ServeEngine::Static(_) | ServeEngine::Shard(_) | ServeEngine::Routed(_) => error_reply(
                ErrorCode::UnsupportedInMode,
                "update requires a dynamic oracle (serve with --store and --dynamic)",
            ),
            ServeEngine::Dynamic(dyn_oracle) => {
                let mut guard = write_lock(dyn_oracle);
                let result = match update {
                    UpdateOp::DeleteVertex(v) => guard.delete_vertex(NodeId::new(v)),
                    UpdateOp::DeleteEdge(a, b) => guard.delete_edge(NodeId::new(a), NodeId::new(b)),
                    UpdateOp::RestoreVertex(v) => guard.restore_vertex(NodeId::new(v)),
                    UpdateOp::RestoreEdge(a, b) => {
                        guard.restore_edge(NodeId::new(a), NodeId::new(b))
                    }
                };
                match result {
                    Ok(()) => {
                        counters.updates.fetch_add(1, Ordering::Relaxed);
                        Response::Update {
                            active_faults: sat_u32(guard.current_faults().len()),
                        }
                    }
                    Err(e) => error_reply(ErrorCode::UpdateRejected, e.to_string()),
                }
            }
        },
        Request::Stats => {
            let (dynamic, active_faults) = match engine {
                ServeEngine::Dynamic(dyn_oracle) => {
                    (1u8, read_lock(dyn_oracle).current_faults().len() as u64)
                }
                _ => (0u8, 0u64),
            };
            Response::Stats(counters.stats(engine.vertices(), dynamic, active_faults))
        }
        Request::Shutdown => Response::Shutdown,
        Request::LabelFetch { vertices } => match engine {
            ServeEngine::Shard(store) => {
                let labels = pack_label_prefix(&vertices, config.label_fetch_budget, |v| {
                    store
                        .fetch(v)
                        .map(|(bytes, bit_len)| (Cow::Borrowed(bytes), bit_len))
                        .ok_or_else(|| {
                            error_reply(
                                ErrorCode::BadRequest,
                                format!(
                                    "shard {}/{} does not own vertex {v}",
                                    store.shard(),
                                    store.num_shards()
                                ),
                            )
                        })
                });
                let labels = match labels {
                    Ok(labels) => labels,
                    Err(response) => return response,
                };
                counters.label_fetches.fetch_add(1, Ordering::Relaxed);
                let (epsilon_bits, c, n) = store.wire_params();
                Response::LabelFetch(LabelFetchReply {
                    generation: store.generation(),
                    epsilon_bits,
                    c,
                    vertices: n,
                    labels,
                })
            }
            ServeEngine::Static(net) => {
                // A single unsharded oracle is a valid 1-shard backend:
                // the routed engine's differential tests lean on this.
                let oracle = net.oracle();
                let n = oracle.labeling().graph().num_vertices();
                let params = oracle.labeling().params();
                let labels = pack_label_prefix(&vertices, config.label_fetch_budget, |v| {
                    if v as usize >= n {
                        return Err(error_reply(
                            ErrorCode::BadRequest,
                            format!("vertex {v} out of range for n={n}"),
                        ));
                    }
                    oracle
                        .encoded_label(NodeId::new(v))
                        .map(|(bytes, bit_len)| (Cow::Owned(bytes), bit_len))
                        .map_err(|e| error_reply(ErrorCode::Internal, e.to_string()))
                });
                let labels = match labels {
                    Ok(labels) => labels,
                    Err(response) => return response,
                };
                counters.label_fetches.fetch_add(1, Ordering::Relaxed);
                Response::LabelFetch(LabelFetchReply {
                    generation: 0,
                    epsilon_bits: params.epsilon().to_bits(),
                    c: params.c(),
                    vertices: n as u64,
                    labels,
                })
            }
            ServeEngine::Dynamic(_) => error_reply(
                ErrorCode::UnsupportedInMode,
                "label-fetch serves immutable labels; the dynamic oracle re-encodes \
                 across generations and cannot be sharded",
            ),
            ServeEngine::Routed(_) => error_reply(
                ErrorCode::UnsupportedInMode,
                "label-fetch is the shard-facing op; send query or batch frames here",
            ),
        },
    }
}

/// Builds wire faults from raw parts (loadgen convenience).
pub fn wire_faults(vertices: Vec<u32>, edges: Vec<(u32, u32)>) -> WireFaults {
    WireFaults { vertices, edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_loop::{next_token, LISTENER_TOKEN, WAKE_TOKEN};

    #[test]
    fn resolved_workers_is_at_least_one_everywhere() {
        // Auto sizing must survive a single-core host: background_workers
        // returns avail - 1 but never 0, and the assert in
        // resolved_workers pins the contract.
        let dir = std::env::temp_dir().join(format!("fsdl-srv-workers-{}", std::process::id()));
        let g = fsdl_graph::generators::cycle(8);
        let oracle = fsdl_labels::ForbiddenSetOracle::new(&g, 1.0);
        let server = Server::bind(
            &Endpoint::Unix(dir.with_extension("sock")),
            ServeEngine::from_network(Network::from_oracle(oracle)),
            ServerConfig::default(),
        )
        .expect("bind");
        assert!(server.resolved_workers() >= 1);
        let explicit = Server::bind(
            &Endpoint::Unix(dir.with_extension("sock2")),
            server.engine.clone(),
            ServerConfig {
                workers: 3,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        assert_eq!(explicit.resolved_workers(), 3);
        let _ = std::fs::remove_file(dir.with_extension("sock"));
        let _ = std::fs::remove_file(dir.with_extension("sock2"));
    }

    #[test]
    fn wrapped_generation_never_aliases_reserved_tokens() {
        // The only tokens live in the poller besides connections are the
        // listener and the wake pipe. A generation wrap at the extreme
        // slot indices would mint exactly those values without the guard.
        for slot in [0xFFFF_FFFEusize, 0xFFFF_FFFF] {
            let mut generation = u32::MAX - 1; // next_add lands on u32::MAX
            let token = next_token(&mut generation, slot);
            assert_ne!(token, LISTENER_TOKEN);
            assert_ne!(token, WAKE_TOKEN);
            // The guard advanced past the collision, not around it: the
            // very next token is a normal one too.
            let token2 = next_token(&mut generation, slot);
            assert_ne!(token2, LISTENER_TOKEN);
            assert_ne!(token2, WAKE_TOKEN);
            assert_ne!(token, token2);
        }
    }

    #[test]
    fn wrapped_generation_never_aliases_a_live_connection() {
        // Aliasing a *live* connection would need two equal tokens for
        // the same slot from different generations. The generation
        // strictly advances on every insert, so consecutive tokens for
        // one slot differ even across the u32 wrap; different slots
        // differ structurally in the low 32 bits.
        let slot = 7usize;
        let mut generation = u32::MAX; // wraps to 0 on the next insert
        let before_wrap = next_token(&mut generation, slot);
        let after_wrap = next_token(&mut generation, slot);
        assert_ne!(before_wrap, after_wrap);
        assert_eq!(before_wrap & 0xFFFF_FFFF, slot as u64);
        assert_eq!(after_wrap & 0xFFFF_FFFF, slot as u64);
        let other_slot = next_token(&mut generation, slot + 1);
        assert_ne!(other_slot & 0xFFFF_FFFF, slot as u64);
    }

    #[test]
    fn endpoint_display() {
        assert_eq!(
            Endpoint::Tcp("127.0.0.1:4000".into()).to_string(),
            "tcp://127.0.0.1:4000"
        );
        assert_eq!(
            Endpoint::Unix(PathBuf::from("/tmp/x.sock")).to_string(),
            "unix:///tmp/x.sock"
        );
    }
}
