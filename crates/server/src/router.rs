//! The routed engine: a sharded label plane behind an ordinary server.
//!
//! The paper's labels are *self-contained*: `δ(s, t, F)` needs only the
//! labels of `s`, `t`, and the faulted elements — at most `2 + |F|`
//! labels wherever they live. That makes horizontal sharding trivially
//! sound: split the vertex set across shard servers (see
//! [`fsdl_labels::partition`]), and a query touches at most `2 + |F|`
//! shards. A routed query is then an ordinary query whose label lookup
//! happens to be remote, so the router is an engine of the ordinary
//! [`crate::Server`], [`crate::ServeEngine::Routed`]: the server's event
//! loop accepts and frames client requests exactly as for a local
//! oracle, and the worker that picks up a `query` / `batch` frame
//! answers it itself:
//!
//! 1. **Plan**: map each needed vertex id to its shard through the
//!    [`PartitionPlan`].
//! 2. **Fetch**: send one `label-fetch` to each needed shard over the
//!    worker's own blocking [`Client`], dialed on first use, before
//!    reading any reply, so the shards serve in parallel. Replies are
//!    read in shard order; a short reply (the shard packed to its byte
//!    budget) has its tail re-requested by the client.
//! 3. **Decode + answer locally**: decode the fetched labels with the
//!    worker's [`VarintScratch`] and run
//!    [`fsdl_labels::query_with_scratch`] with its [`DecodeScratch`] —
//!    the *same* entry point the single-process server uses — so answers
//!    are bit-identical: same distances, same sketch sizes, same witness
//!    paths.
//!
//! Routed workers wait on shard I/O for part of every request, so a
//! routed server sized automatically runs one worker per core instead of
//! leaving a core to the event loop.
//!
//! ## Failure semantics
//!
//! - Every read and write on a worker's shard client, and its TCP
//!   connect, is bounded by the server's frame deadline. A transport
//!   error or timeout drops that client and answers
//!   [`ErrorCode::Unavailable`]; the next request that needs the shard
//!   redials, so a restarted shard heals without a router restart. A
//!   cached client the shard closed while it sat idle (the shard
//!   restarted) is redialed once within the request instead.
//! - A shard whose wait ran out is marked down for one frame deadline:
//!   requests that need it answer `Unavailable` at once instead of each
//!   holding a worker for a full deadline, so a hung shard cannot starve
//!   requests to the healthy ones. The first request after the mark
//!   expires probes the shard again.
//! - A shard whose store generation differs from the handshake's (it
//!   was restarted onto a new build) also answers `Unavailable` — mixing
//!   labels from different generations could silently combine two
//!   different labelings, so the router refuses rather than guesses.
//! - Validation the router cannot do (fault-*edge* membership in the
//!   graph — the router holds no graph) is the one divergence from the
//!   single-process server, which rejects such queries with
//!   `BadRequest`. The router computes the (sound) answer with the
//!   phantom edge simply ignored by decode. Endpoint and fault-vertex
//!   range checks behave identically.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fsdl_graph::NodeId;
use fsdl_labels::codec::{self, VarintScratch};
use fsdl_labels::partition::PartitionPlan;
use fsdl_labels::{query_with_scratch, DecodeScratch, Label, QueryLabels, SchemeParams};

use crate::client::{Client, ClientError};
use crate::event_loop::Counters;
use crate::protocol::{
    BatchItem, ErrorCode, ErrorReply, LabelBytes, LabelFetchReply, QueryReply, Response, WireFaults,
};
use crate::server::{error_reply, Endpoint};

/// How long the handshake keeps dialing a shard that is still binding,
/// and how long it then waits on each read and write.
const HANDSHAKE_BUDGET: Duration = Duration::from_secs(10);

/// Errors [`crate::ServeEngine::routed`] can produce.
#[derive(Debug)]
pub enum RouterError {
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
            RouterError::Handshake { shard, message } => {
                write!(f, "shard {shard} handshake failed: {message}")
            }
            RouterError::Plan(msg) => write!(f, "partition plan mismatch: {msg}"),
        }
    }
}

impl std::error::Error for RouterError {}

/// The shard fleet a routed server answers from: the partition plan, the
/// shard endpoints, and what the handshake learned about them.
pub struct RoutedPlane {
    plan: PartitionPlan,
    params: SchemeParams,
    endpoints: Vec<Endpoint>,
    /// Each shard's store generation at the handshake.
    generations: Vec<u64>,
    /// Per shard, the time (nanoseconds after `epoch`) until which it is
    /// marked down after a wait on it ran out; 0 if never.
    down_until: Vec<AtomicU64>,
    epoch: Instant,
}

/// A worker's own side of the routed engine: one shard client per shard,
/// dialed on first use and dropped on failure, and the varint scratch
/// the batched label decode reuses. Empty on other engines.
#[derive(Default)]
pub(crate) struct ShardClients {
    clients: Vec<Option<Client>>,
    varints: VarintScratch,
}

impl ShardClients {
    /// Reads the reply to a [`RoutedPlane::send`] of `group` to `shard`.
    fn recv(&mut self, shard: usize, group: &[u32]) -> Result<LabelFetchReply, ClientError> {
        self.clients[shard]
            .as_mut()
            .expect("sent over this client")
            .recv_label_fetch(group)
    }
}

/// A client request the routed engine answers from fetched labels.
pub(crate) enum PlannedRequest {
    Query { s: u32, t: u32, faults: WireFaults },
    Batch(Vec<(u32, u32, WireFaults)>),
}

/// Dials `endpoint` until [`HANDSHAKE_BUDGET`] runs out (the shard may
/// still be binding), then asks its identity: an empty `label-fetch`
/// carries the generation and decode parameters, no labels.
fn handshake(endpoint: &Endpoint) -> Result<LabelFetchReply, ClientError> {
    let mut client = Client::connect_with_retry(endpoint, HANDSHAKE_BUDGET)?;
    client.set_timeouts(HANDSHAKE_BUDGET)?;
    client.label_fetch(Vec::new())
}

/// Whether `err` is a wait that ran out.
fn timed_out(err: &ClientError) -> bool {
    matches!(err, ClientError::Io(e)
        if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut))
}

/// Whether `err`, on a cached client, means the shard closed the
/// connection while it sat idle (the shard restarted): the connection
/// is gone, but a redial may well succeed.
fn closed_while_idle(err: &ClientError) -> bool {
    matches!(err, ClientError::Io(_) | ClientError::Closed) && !timed_out(err)
}

impl RoutedPlane {
    /// Handshakes every shard and checks the fleet against the plan and
    /// itself: all shards must agree on everything but the generation.
    pub(crate) fn connect(
        endpoints: Vec<Endpoint>,
        plan: PartitionPlan,
    ) -> Result<RoutedPlane, RouterError> {
        if endpoints.len() != plan.num_shards() as usize {
            return Err(RouterError::Plan(format!(
                "plan names {} shards but {} endpoints were given",
                plan.num_shards(),
                endpoints.len()
            )));
        }
        let mut identity = Vec::with_capacity(endpoints.len());
        for (shard, ep) in endpoints.iter().enumerate() {
            identity.push(handshake(ep).map_err(|e| RouterError::Handshake {
                shard,
                message: e.to_string(),
            })?);
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
        let (c, n) = (first.c, first.vertices);
        if n != plan.num_vertices() as u64 {
            return Err(RouterError::Plan(format!(
                "shards serve {n} vertices but the plan covers {}",
                plan.num_vertices()
            )));
        }
        let epsilon = f64::from_bits(first.epsilon_bits);
        if !epsilon.is_finite() || epsilon <= 0.0 || c < 2 || n == 0 {
            return Err(RouterError::Plan(format!(
                "shards report unusable decode parameters (epsilon={epsilon}, c={c}, n={n})"
            )));
        }
        Ok(RoutedPlane {
            params: SchemeParams::with_c(epsilon, c, n as usize),
            generations: identity.iter().map(|id| id.generation).collect(),
            down_until: identity.iter().map(|_| AtomicU64::new(0)).collect(),
            epoch: Instant::now(),
            plan,
            endpoints,
        })
    }

    /// The global vertex count the fleet serves.
    pub(crate) fn num_vertices(&self) -> u64 {
        self.plan.num_vertices() as u64
    }

    /// Answers one request on a worker: fetch the labels it needs, then
    /// decode and answer locally. Every wait on a shard is bounded by
    /// `timeout`.
    pub(crate) fn answer(
        &self,
        request: PlannedRequest,
        timeout: Duration,
        counters: &Counters,
        scratch: &mut DecodeScratch,
        worker: &mut ShardClients,
    ) -> Response {
        let n = self.plan.num_vertices();
        let ids = needed_ids(&request);
        if let Some(&bad) = ids.iter().find(|&&v| v as usize >= n) {
            return error_reply(
                ErrorCode::BadRequest,
                format!("vertex {bad} out of range for a graph of {n} vertices"),
            );
        }
        match self.fetch(&ids, timeout, counters, worker) {
            Ok(labels) => compute_answer(
                &request,
                &labels,
                &self.params,
                counters,
                scratch,
                &mut worker.varints,
            ),
            Err(response) => response,
        }
    }

    /// Fetches the labels of `ids`: one `label-fetch` to each owning
    /// shard, every one sent before any reply is read, then the replies
    /// in shard order. Every sent request is read to its end even after a
    /// failure, so each surviving client stays in step with its shard.
    fn fetch(
        &self,
        ids: &[u32],
        timeout: Duration,
        counters: &Counters,
        worker: &mut ShardClients,
    ) -> Result<Vec<LabelBytes>, Response> {
        let mut by_shard: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for &v in ids {
            by_shard
                .entry(self.plan.shard_of(NodeId::new(v)) as usize)
                .or_default()
                .push(v);
        }
        let now = self.now();
        if let Some(&shard) = by_shard
            .keys()
            .find(|&&shard| now < self.down_until[shard].load(Ordering::Relaxed))
        {
            counters.shard_failures.fetch_add(1, Ordering::Relaxed);
            return Err(error_reply(
                ErrorCode::Unavailable,
                format!("shard {shard} is marked down after a wait on it ran out"),
            ));
        }
        worker.clients.resize_with(self.endpoints.len(), || None);
        let mut sent = Vec::with_capacity(by_shard.len());
        for (shard, group) in by_shard {
            let reused = worker.clients[shard].is_some();
            let sending = self.send(worker, shard, &group, timeout, counters);
            sent.push((shard, group, reused, sending));
        }
        let mut failure = None;
        let mut labels = Vec::with_capacity(ids.len());
        for (shard, group, reused, sending) in sent {
            let mut result = sending.and_then(|()| worker.recv(shard, &group));
            if reused && result.as_ref().is_err_and(closed_while_idle) {
                worker.clients[shard] = None;
                result = self
                    .send(worker, shard, &group, timeout, counters)
                    .and_then(|()| worker.recv(shard, &group));
            }
            match result {
                Ok(reply) if reply.generation == self.generations[shard] => {
                    labels.extend(reply.labels);
                }
                Ok(reply) => {
                    counters.shard_failures.fetch_add(1, Ordering::Relaxed);
                    failure.get_or_insert(error_reply(
                        ErrorCode::Unavailable,
                        format!(
                            "shard {shard} changed store generation ({} -> {})",
                            self.generations[shard], reply.generation
                        ),
                    ));
                }
                Err(e) => {
                    let response = self.fail(worker, shard, e, timeout, counters);
                    failure.get_or_insert(response);
                }
            }
        }
        match failure {
            Some(response) => Err(response),
            None => Ok(labels),
        }
    }

    /// Sends the label-fetch for `group` to `shard` over the worker's
    /// client, dialing one if it has none.
    fn send(
        &self,
        worker: &mut ShardClients,
        shard: usize,
        group: &[u32],
        timeout: Duration,
        counters: &Counters,
    ) -> Result<(), ClientError> {
        let client = match worker.clients[shard].take() {
            Some(client) => client,
            None => Client::connect_bounded(&self.endpoints[shard], timeout)?,
        };
        worker.clients[shard]
            .insert(client)
            .send_label_fetch(group)?;
        counters.label_fetches.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The reply for a failed exchange with `shard`. A typed error from
    /// the shard leaves its connection in step; anything else leaves it
    /// unusable, so the client is dropped (the next request redials) and
    /// the failure counted. A wait that ran out also marks the shard
    /// down for `timeout`.
    fn fail(
        &self,
        worker: &mut ShardClients,
        shard: usize,
        err: ClientError,
        timeout: Duration,
        counters: &Counters,
    ) -> Response {
        let code = match err {
            ClientError::Server(e) => {
                return error_reply(
                    ErrorCode::Internal,
                    format!(
                        "shard {shard} rejected a label-fetch [{}]: {}",
                        e.code, e.message
                    ),
                );
            }
            ClientError::Wire(_) | ClientError::Unexpected(_) => ErrorCode::Internal,
            ClientError::Io(_) | ClientError::Frame(_) | ClientError::Closed => {
                ErrorCode::Unavailable
            }
        };
        if timed_out(&err) {
            let until = self
                .now()
                .saturating_add(u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX));
            self.down_until[shard].store(until, Ordering::Relaxed);
        }
        worker.clients[shard] = None;
        counters.shard_failures.fetch_add(1, Ordering::Relaxed);
        error_reply(code, format!("shard {shard} failed a label-fetch: {err}"))
    }

    /// Nanoseconds since the plane was built.
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
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
    labels: &[LabelBytes],
    n: usize,
    varints: &mut VarintScratch,
) -> Result<HashMap<u32, Label>, Response> {
    let mut decoded = HashMap::with_capacity(labels.len());
    for lb in labels {
        let v = lb.vertex;
        let label = match codec::decode_with(&lb.bytes, lb.bit_len as usize, n, varints) {
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

/// Decodes the gathered labels and answers every query in the request.
fn compute_answer(
    request: &PlannedRequest,
    labels: &[LabelBytes],
    params: &SchemeParams,
    counters: &Counters,
    scratch: &mut DecodeScratch,
    varints: &mut VarintScratch,
) -> Response {
    let decoded = match decode_gathered(labels, params.n(), varints) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    match request {
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
    use crate::event_loop::next_token;

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
