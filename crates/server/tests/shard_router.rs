//! Sharded serving plane, end to end: shard stores on disk, a fleet of
//! shard servers on real sockets, a server with the routed engine in
//! front, and typed clients. The core assertion is *differential*: every
//! routed answer must be bit-identical to the in-process oracle on the
//! same inputs — sharding adds transport and partitioning, never
//! approximation. The corruption sweep extends the repo's standing
//! contract to the sharded plane: damaged stores produce typed errors
//! or bit-identical answers, never a panic and never a silent wrong
//! answer.

use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fsdl_graph::{generators, FaultSet, Graph, NodeId};
use fsdl_labels::partition::{shard_dir_name, PartitionPlan, ShardStore};
use fsdl_labels::{write_shard_stores, DecodeScratch, ForbiddenSetOracle};
use fsdl_routing::Network;
use fsdl_server::protocol::{self, FrameRead};
use fsdl_server::{
    Client, ClientError, Endpoint, ErrorCode, LabelFetchReply, Request, Response, RouterError,
    ServeEngine, ServeReport, Server, ServerConfig, ShutdownHandle, WireFaults, MAX_FRAME,
};

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let k = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fsdl-shardrt-{tag}-{}-{k}", std::process::id()))
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = scratch_dir(tag);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct ShardFleet {
    endpoints: Vec<Endpoint>,
    handles: Vec<(std::thread::JoinHandle<ServeReport>, ShutdownHandle)>,
}

impl ShardFleet {
    /// Builds shard stores for `oracle` under `dir` and serves each on
    /// its own unix socket.
    fn spawn(oracle: &ForbiddenSetOracle, dir: &Path, plan: &PartitionPlan) -> ShardFleet {
        ShardFleet::spawn_with_budget(oracle, dir, plan, None)
    }

    /// `spawn` with an explicit per-reply label byte budget (None keeps
    /// the default). A budget of 1 forces every reply down to a single
    /// label, exercising the short-reply/tail-re-request path on graphs
    /// whose labels would otherwise all fit in one frame.
    fn spawn_with_budget(
        oracle: &ForbiddenSetOracle,
        dir: &Path,
        plan: &PartitionPlan,
        label_fetch_budget: Option<usize>,
    ) -> ShardFleet {
        let reports = write_shard_stores(oracle, dir, plan).expect("write shard stores");
        let mut endpoints = Vec::new();
        let mut handles = Vec::new();
        for report in &reports {
            let endpoint = Endpoint::Unix(dir.join(format!("shard-{}.sock", report.shard)));
            let mut config = ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            };
            if let Some(budget) = label_fetch_budget {
                config.label_fetch_budget = budget;
            }
            handles.push(serve_shard(dir, report.shard, &endpoint, config));
            endpoints.push(endpoint);
        }
        ShardFleet { endpoints, handles }
    }

    /// A single-process static server over `oracle`'s graph as a
    /// one-shard backend, with an explicit label byte budget.
    fn spawn_static(g: &Graph, dir: &Path, label_fetch_budget: usize) -> ShardFleet {
        let endpoint = Endpoint::Unix(dir.join("static.sock"));
        let server = Server::bind(
            &endpoint,
            ServeEngine::from_network(Network::from_oracle(ForbiddenSetOracle::new(g, 0.5))),
            ServerConfig {
                workers: 1,
                label_fetch_budget,
                ..ServerConfig::default()
            },
        )
        .expect("bind static backend");
        let handle = server.shutdown_handle();
        ShardFleet {
            endpoints: vec![endpoint],
            handles: vec![(std::thread::spawn(move || server.run()), handle)],
        }
    }

    /// Stops every shard; returns the label-fetch requests they answered.
    fn stop(self) -> u64 {
        let mut fetches = 0;
        for (thread, handle) in self.handles {
            handle.signal();
            fetches += thread.join().map_or(0, |report| report.label_fetches);
        }
        fetches
    }
}

/// Serves shard `shard`'s store under `dir` at `endpoint`.
fn serve_shard(
    dir: &Path,
    shard: u32,
    endpoint: &Endpoint,
    config: ServerConfig,
) -> (JoinHandle<ServeReport>, ShutdownHandle) {
    let store = ShardStore::open(&dir.join(shard_dir_name(shard))).expect("reopen shard");
    let server =
        Server::bind(endpoint, ServeEngine::from_shard(store), config).expect("bind shard");
    let handle = server.shutdown_handle();
    (std::thread::spawn(move || server.run()), handle)
}

fn spawn_router(
    shard_endpoints: Vec<Endpoint>,
    plan: PartitionPlan,
) -> (Endpoint, ShutdownHandle, JoinHandle<ServeReport>) {
    spawn_router_on(
        &Endpoint::Tcp("127.0.0.1:0".into()),
        shard_endpoints,
        plan,
        ServerConfig::default(),
    )
}

/// Binds a routed server at `listen` over the shards at `shard_endpoints`.
fn spawn_router_on(
    listen: &Endpoint,
    shard_endpoints: Vec<Endpoint>,
    plan: PartitionPlan,
    config: ServerConfig,
) -> (Endpoint, ShutdownHandle, JoinHandle<ServeReport>) {
    let engine = ServeEngine::routed(shard_endpoints, plan).expect("handshake the fleet");
    let router = Server::bind(listen, engine, config).expect("bind router");
    let bound = router.local_endpoint().expect("router endpoint");
    let handle = router.shutdown_handle();
    let thread = std::thread::spawn(move || router.run());
    (bound, handle, thread)
}

fn connect(endpoint: &Endpoint) -> Client {
    Client::connect_with_retry(endpoint, Duration::from_secs(5)).expect("connect")
}

/// The query matrix: corner-to-corner and interior pairs crossed with
/// fault sets from empty through 4 mixed faults.
fn fault_matrix(g: &Graph) -> Vec<(u32, u32, WireFaults)> {
    let n = g.num_vertices() as u32;
    let some_edge = {
        let v = n / 2;
        let u = g.neighbors(NodeId::new(v))[0];
        (u.min(v), u.max(v))
    };
    let mut matrix = Vec::new();
    for &(s, t) in &[(0, n - 1), (1, n - 2), (n / 3, 2 * n / 3), (5, 5)] {
        matrix.push((s, t, WireFaults::empty()));
        matrix.push((
            s,
            t,
            WireFaults {
                vertices: vec![n / 2],
                edges: vec![],
            },
        ));
        matrix.push((
            s,
            t,
            WireFaults {
                vertices: vec![n / 4, 3 * n / 4],
                edges: vec![],
            },
        ));
        matrix.push((
            s,
            t,
            WireFaults {
                vertices: vec![n / 5],
                edges: vec![some_edge],
            },
        ));
        matrix.push((
            s,
            t,
            WireFaults {
                vertices: vec![n / 7, n / 3 + 1, 2 * n / 3 + 1],
                edges: vec![some_edge],
            },
        ));
    }
    matrix
}

/// Routed answers must be bit-identical to the in-process oracle —
/// distance, sketch statistics, and witness path — across the whole
/// fault matrix, for both single-query and batch frames.
#[test]
fn router_matches_unsharded_oracle_across_fault_matrix() {
    let g = generators::grid2d(8, 6);
    let oracle = ForbiddenSetOracle::new(&g, 0.5);
    let plan = PartitionPlan::for_oracle(&oracle, 3);
    let dir = TempDir::new("diff");
    let fleet = ShardFleet::spawn(&oracle, dir.path(), &plan);
    let (endpoint, _shutdown, router_thread) = spawn_router(fleet.endpoints.clone(), plan);

    let mut client = connect(&endpoint);
    let mut scratch = DecodeScratch::new();
    let matrix = fault_matrix(&g);
    for (s, t, wire) in &matrix {
        let faults = wire.to_fault_set();
        let expected = oracle.query_with(NodeId::new(*s), NodeId::new(*t), &faults, &mut scratch);
        let reply = client.query(*s, *t, wire.clone()).expect("routed query");
        assert_eq!(
            reply.distance,
            expected.distance.raw(),
            "distance for {s}->{t} with {wire:?}"
        );
        assert_eq!(
            reply.sketch_vertices as usize, expected.sketch_vertices,
            "sketch vertices for {s}->{t}"
        );
        assert_eq!(
            reply.sketch_edges as usize, expected.sketch_edges,
            "sketch edges for {s}->{t}"
        );
        assert_eq!(
            reply.path,
            expected.path.iter().map(|v| v.raw()).collect::<Vec<_>>(),
            "witness path for {s}->{t}"
        );
    }

    // The same matrix as one batch frame: same gather plane, one wire
    // round-trip, per-item bit-identity.
    let batch: Vec<(u32, u32, WireFaults)> = matrix.clone();
    let items = client.batch(batch).expect("routed batch");
    assert_eq!(items.len(), matrix.len());
    for (item, (s, t, wire)) in items.iter().zip(&matrix) {
        let faults = wire.to_fault_set();
        let expected = oracle.query_with(NodeId::new(*s), NodeId::new(*t), &faults, &mut scratch);
        assert_eq!(item.distance, expected.distance.raw(), "batch {s}->{t}");
        assert_eq!(item.sketch_vertices as usize, expected.sketch_vertices);
        assert_eq!(item.sketch_edges as usize, expected.sketch_edges);
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.vertices, g.num_vertices() as u64);
    assert_eq!(stats.queries, matrix.len() as u64);
    assert_eq!(stats.batch_queries, matrix.len() as u64);
    assert_eq!(stats.protocol_errors, 0, "no protocol errors end to end");

    client.shutdown().expect("shutdown");
    let report = router_thread.join().expect("router thread");
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.shard_failures, 0);
    fleet.stop();
}

/// A single-process static server is a valid 1-shard backend: the
/// router's handshake accepts its generation-0 label plane and answers
/// match the oracle exactly.
#[test]
fn router_fronts_a_static_server_as_one_shard() {
    let g = generators::grid2d(6, 5);
    let oracle = ForbiddenSetOracle::new(&g, 0.5);
    let plan = PartitionPlan::contiguous(g.num_vertices(), 1);
    let net = Network::from_oracle(ForbiddenSetOracle::new(&g, 0.5));
    let dir = TempDir::new("static1");
    let backend_ep = Endpoint::Unix(dir.path().join("backend.sock"));
    let backend = Server::bind(
        &backend_ep,
        ServeEngine::from_network(net),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind backend");
    let backend_shutdown = backend.shutdown_handle();
    let backend_thread = std::thread::spawn(move || backend.run());

    let (endpoint, _shutdown, router_thread) = spawn_router(vec![backend_ep], plan);
    let mut client = connect(&endpoint);
    let mut scratch = DecodeScratch::new();
    let faults = FaultSet::from_vertices([NodeId::new(7)]);
    let expected = oracle.query_with(NodeId::new(0), NodeId::new(29), &faults, &mut scratch);
    let reply = client
        .query(
            0,
            29,
            WireFaults {
                vertices: vec![7],
                edges: vec![],
            },
        )
        .expect("query through 1-shard router");
    assert_eq!(reply.distance, expected.distance.raw());
    assert_eq!(
        reply.path,
        expected.path.iter().map(|v| v.raw()).collect::<Vec<_>>()
    );
    client.shutdown().expect("shutdown");
    router_thread.join().expect("router thread");
    backend_shutdown.signal();
    backend_thread.join().expect("backend thread");
}

/// Requests the router can reject without the fleet stay typed:
/// out-of-range ids, mode-gated ops, malformed faults.
#[test]
fn router_rejects_bad_requests_typed() {
    let g = generators::grid2d(5, 4);
    let oracle = ForbiddenSetOracle::new(&g, 0.5);
    let plan = PartitionPlan::for_oracle(&oracle, 2);
    let dir = TempDir::new("badreq");
    let fleet = ShardFleet::spawn(&oracle, dir.path(), &plan);
    let (endpoint, _shutdown, router_thread) = spawn_router(fleet.endpoints.clone(), plan);

    let mut client = connect(&endpoint);
    match client.query(0, 10_000, WireFaults::empty()) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::BadRequest, "{e:?}"),
        other => panic!("out-of-range target must be BadRequest, got {other:?}"),
    }
    match client.query(
        0,
        1,
        WireFaults {
            vertices: vec![9_999],
            edges: vec![],
        },
    ) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::BadRequest, "{e:?}"),
        other => panic!("out-of-range fault must be BadRequest, got {other:?}"),
    }
    match client.route(0, 19, WireFaults::empty()) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::UnsupportedInMode, "{e:?}");
        }
        other => panic!("route through the router must be mode-gated, got {other:?}"),
    }
    match client.label_fetch(vec![0]) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::UnsupportedInMode, "{e:?}");
        }
        other => panic!("label-fetch is shard-facing, got {other:?}"),
    }
    // The connection survives every rejection: a good query still works.
    let reply = client
        .query(0, 19, WireFaults::empty())
        .expect("good query");
    let mut scratch = DecodeScratch::new();
    let expected = oracle.query_with(
        NodeId::new(0),
        NodeId::new(19),
        &FaultSet::default(),
        &mut scratch,
    );
    assert_eq!(reply.distance, expected.distance.raw());

    client.shutdown().expect("shutdown");
    router_thread.join().expect("router thread");
    fleet.stop();
}

/// Killing a shard mid-service turns queries that need it into typed
/// `Unavailable` errors — never a panic, never a wrong answer — while
/// queries the surviving shards can answer keep flowing.
#[test]
fn shard_down_yields_unavailable_not_panic() {
    let g = generators::grid2d(6, 4);
    let oracle = ForbiddenSetOracle::new(&g, 0.5);
    let plan = PartitionPlan::for_oracle(&oracle, 2);
    let dir = TempDir::new("down");
    let fleet = ShardFleet::spawn(&oracle, dir.path(), &plan);
    let (endpoint, _shutdown, router_thread) = spawn_router(fleet.endpoints.clone(), plan.clone());

    // Find one vertex per shard so we can aim queries precisely.
    let owned_by_0 = plan.vertices_of(0);
    let owned_by_1 = plan.vertices_of(1);
    let (v0, v1) = (owned_by_0[0], owned_by_1[0]);

    let mut client = connect(&endpoint);
    client
        .query(v0.raw(), v1.raw(), WireFaults::empty())
        .expect("both shards up");

    // Kill shard 1; shard 0 keeps serving.
    let ShardFleet { mut handles, .. } = fleet;
    let (thread, handle) = handles.remove(1);
    handle.signal();
    thread.join().expect("shard 1 thread");

    // Queries needing shard 1 now fail typed; retry until the dead
    // connection is noticed to see only Unavailable, never a panic or a
    // wrong answer.
    let mut saw_unavailable = false;
    for _ in 0..20 {
        match client.query(v0.raw(), v1.raw(), WireFaults::empty()) {
            Err(ClientError::Server(e)) if e.code == ErrorCode::Unavailable => {
                saw_unavailable = true;
                break;
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(50)),
            Err(other) => panic!("expected typed Unavailable, got {other:?}"),
        }
    }
    assert!(saw_unavailable, "dead shard must surface as Unavailable");

    // A query entirely within the surviving shard still answers, and
    // bit-identically.
    if owned_by_0.len() >= 2 {
        let (a, b) = (owned_by_0[0], owned_by_0[1]);
        let mut scratch = DecodeScratch::new();
        let expected = oracle.query_with(a, b, &FaultSet::default(), &mut scratch);
        let reply = client
            .query(a.raw(), b.raw(), WireFaults::empty())
            .expect("surviving shard still serves");
        assert_eq!(reply.distance, expected.distance.raw());
    }

    client.shutdown().expect("shutdown");
    let report = router_thread.join().expect("router thread");
    assert!(report.shard_failures > 0, "the dead shard was noticed");
    for (thread, handle) in handles {
        handle.signal();
        let _ = thread.join();
    }
}

/// Label-fetch replies are byte-budgeted: a shard packs the longest
/// request prefix that fits and the reader re-requests the tail. With
/// the budget forced to a single byte, every reply carries exactly one
/// label — the degenerate worst case — and both a direct client fetch and
/// the routed engine's fetches must reassemble the tails into
/// bit-identical results. This is the regression test for the wire
/// truncation where multi-label replies outgrew the frame ceiling and
/// killed the router's connection to the shard.
#[test]
fn short_label_fetch_replies_reassemble_bit_identically() {
    let g = generators::grid2d(6, 5);
    let oracle = ForbiddenSetOracle::new(&g, 0.5);
    let dir = TempDir::new("short");
    // Both label-fetch backends pack under the same 1-byte budget: a
    // shard fleet and a static server fronted as the only shard.
    let fleet_plan = PartitionPlan::for_oracle(&oracle, 2);
    let backends = [
        (
            ShardFleet::spawn_with_budget(&oracle, dir.path(), &fleet_plan, Some(1)),
            fleet_plan,
        ),
        (
            ShardFleet::spawn_static(&g, dir.path(), 1),
            PartitionPlan::contiguous(g.num_vertices(), 1),
        ),
    ];
    for (fleet, plan) in backends {
        // Direct client fetch of every shard-0 vertex: the server may only
        // return one label per frame, so the client loop has to stitch the
        // full set back together, in request order.
        let owned = plan.vertices_of(0);
        let ids: Vec<u32> = owned.iter().map(|v| v.raw()).collect();
        let mut probe = connect(&fleet.endpoints[0]);
        let reply = probe.label_fetch(ids.clone()).expect("assembled fetch");
        assert_eq!(reply.labels.len(), ids.len(), "every label arrives");
        for (lb, &v) in reply.labels.iter().zip(&ids) {
            assert_eq!(lb.vertex, v, "labels arrive in request order");
        }
        drop(probe);

        // Routed queries gather through the same budget-starved backend
        // and must stay bit-identical to the oracle.
        let (endpoint, _shutdown, router_thread) = spawn_router(fleet.endpoints.clone(), plan);
        let mut client = connect(&endpoint);
        let mut scratch = DecodeScratch::new();
        for (s, t, wire) in fault_matrix(&g) {
            let faults = wire.to_fault_set();
            let expected = oracle.query_with(NodeId::new(s), NodeId::new(t), &faults, &mut scratch);
            let reply = client.query(s, t, wire).expect("routed query");
            assert_eq!(reply.distance, expected.distance.raw(), "distance {s}->{t}");
            assert_eq!(
                reply.path,
                expected.path.iter().map(|v| v.raw()).collect::<Vec<_>>(),
                "path {s}->{t}"
            );
        }
        client.shutdown().expect("shutdown");
        let report = router_thread.join().expect("router thread");
        assert_eq!(report.protocol_errors, 0);
        assert_eq!(report.shard_failures, 0);
        // Under a 1-byte budget every reply carries one label, so the
        // probe cost the shards exactly one request per id, and the
        // handshake one request per shard; whatever they answered beyond
        // those and beyond the router's own requests were the router's
        // tail re-requests.
        let handshakes = fleet.endpoints.len() as u64;
        let routed_served = fleet.stop() - ids.len() as u64 - handshakes;
        assert!(
            routed_served > report.label_fetches,
            "tail re-requests must have happened under a 1-byte budget \
             ({routed_served} served for {} sent)",
            report.label_fetches
        );
    }
}

/// Reads one reply frame; `None` on a clean EOF.
fn read_reply(stream: &mut UnixStream) -> Option<Response> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut buf = Vec::new();
    match protocol::read_frame(stream, MAX_FRAME, &mut buf).expect("reply frame") {
        FrameRead::Frame => Some(Response::decode(&buf).expect("decode reply")),
        FrameRead::Eof => None,
    }
}

fn connect_unix(endpoint: &Endpoint) -> UnixStream {
    let Endpoint::Unix(path) = endpoint else {
        panic!("expected a unix endpoint");
    };
    UnixStream::connect(path).expect("connect")
}

/// A 4-vertex shard identity with scheme parameter `c`.
fn stub_identity(c: u32) -> LabelFetchReply {
    LabelFetchReply {
        generation: 1,
        epsilon_bits: 0.5f64.to_bits(),
        c,
        vertices: 4,
        labels: Vec::new(),
    }
}

/// A stub shard at `path` for `connections` connections in turn. It
/// answers each handshake with `identity` and holds the first real
/// fetch: it reports it on the returned receiver, then waits for the
/// returned sender before it drops that connection and exits.
fn spawn_stub_shard(
    path: &Path,
    identity: LabelFetchReply,
    connections: usize,
) -> (JoinHandle<()>, mpsc::Receiver<()>, mpsc::Sender<()>) {
    let listener = UnixListener::bind(path).expect("bind stub shard");
    let (held_tx, held_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let stub = std::thread::spawn(move || {
        let mut buf = Vec::new();
        for stream in listener.incoming().take(connections) {
            let mut stream = stream.expect("stub accept");
            while let FrameRead::Frame =
                protocol::read_frame(&mut stream, MAX_FRAME, &mut buf).expect("stub read")
            {
                let Ok(Request::LabelFetch { vertices }) = Request::decode(&buf) else {
                    panic!("the stub shard only speaks label-fetch");
                };
                if !vertices.is_empty() {
                    held_tx.send(()).expect("report held fetch");
                    let _ = release_rx.recv();
                    return;
                }
                let reply = Response::LabelFetch(identity.clone());
                protocol::send_response(&mut stream, &reply, &mut Vec::new())
                    .expect("handshake reply");
            }
        }
    });
    (stub, held_rx, release_tx)
}

/// Binds a routed server with one worker on a unix socket in `dir`
/// over the shards at `shard_endpoints`.
fn spawn_stub_router(
    dir: &Path,
    shard_endpoints: Vec<Endpoint>,
    plan: PartitionPlan,
    frame_deadline: Duration,
) -> (Endpoint, ShutdownHandle, JoinHandle<ServeReport>) {
    spawn_router_on(
        &Endpoint::Unix(dir.join("router.sock")),
        shard_endpoints,
        plan,
        ServerConfig {
            workers: 1,
            frame_deadline,
            ..ServerConfig::default()
        },
    )
}

/// A shard whose handshake reports `c < 2` (the scheme needs `c >= 2`)
/// is refused with a typed plan error, not a panic.
#[test]
fn handshake_with_c_below_two_is_a_typed_plan_error() {
    let dir = TempDir::new("c1");
    let stub_path = dir.path().join("stub.sock");
    let (stub, _held, _release) = spawn_stub_shard(&stub_path, stub_identity(1), 1);
    match ServeEngine::routed(
        vec![Endpoint::Unix(stub_path)],
        PartitionPlan::contiguous(4, 1),
    ) {
        Err(RouterError::Plan(message)) => assert!(message.contains("c=1"), "{message}"),
        Err(other) => panic!("expected a plan error, got {other}"),
        Ok(_) => panic!("a fleet reporting c=1 must be refused"),
    }
    stub.join().expect("stub shard");
}

/// Encodes `Query { s, t }` with no faults as one length-prefixed frame.
fn query_frame(s: u32, t: u32) -> Vec<u8> {
    let mut payload = Vec::new();
    Request::Query {
        s,
        t,
        faults: WireFaults::empty(),
    }
    .encode(&mut payload);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

/// A shard that accepts a fetch and never answers costs a query one
/// frame deadline: the worker's read times out, the client gets a typed
/// `Unavailable`, and the server still shuts down promptly. The shard is
/// then marked down for one deadline, so with a single worker, requests
/// that need it fail at once and a request to the healthy shard behind
/// them answers well within the deadline.
#[test]
fn hung_shard_answers_unavailable_within_the_frame_deadline() {
    let g = generators::grid2d(3, 2);
    let oracle = ForbiddenSetOracle::new(&g, 0.5);
    // Shard 0 owns 0..3 and is real; shard 1 (3..6) is a stub that
    // answers the handshake with shard 0's identity and holds every fetch.
    let plan = PartitionPlan::contiguous(g.num_vertices(), 2);
    let dir = TempDir::new("hung");
    write_shard_stores(&oracle, dir.path(), &plan).expect("write shard stores");
    let healthy = Endpoint::Unix(dir.path().join("shard-0.sock"));
    let (healthy_thread, healthy_handle) = serve_shard(
        dir.path(),
        0,
        &healthy,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let identity = connect(&healthy)
        .label_fetch(Vec::new())
        .expect("shard 0 identity");
    let stub_path = dir.path().join("stub.sock");
    let (stub, held, release) = spawn_stub_shard(&stub_path, identity, 2);
    let frame_deadline = Duration::from_secs(1);
    let (endpoint, _shutdown, router_thread) = spawn_stub_router(
        dir.path(),
        vec![healthy, Endpoint::Unix(stub_path)],
        plan,
        frame_deadline,
    );

    let mut client = connect_unix(&endpoint);
    let asked = Instant::now();
    client.write_all(&query_frame(0, 5)).expect("send query");
    match read_reply(&mut client) {
        Some(Response::Error(e)) => assert_eq!(e.code, ErrorCode::Unavailable, "{e:?}"),
        other => panic!("expected a typed Unavailable, got {other:?}"),
    }
    let waited = asked.elapsed();
    assert!(
        waited >= frame_deadline && waited < frame_deadline * 4,
        "the query waited {waited:?}; the frame deadline is {frame_deadline:?}"
    );
    held.try_recv().expect("the fetch reached the stub");

    // Three more requests for the hung shard, then one the healthy shard
    // answers alone, all queued on the one worker.
    let asked = Instant::now();
    let mut frames = Vec::new();
    for (s, t) in [(0, 5), (1, 4), (2, 3), (0, 2)] {
        frames.extend(query_frame(s, t));
    }
    client.write_all(&frames).expect("pipeline four queries");
    for _ in 0..3 {
        match read_reply(&mut client) {
            Some(Response::Error(e)) => assert_eq!(e.code, ErrorCode::Unavailable, "{e:?}"),
            other => panic!("expected a typed Unavailable, got {other:?}"),
        }
    }
    let expected = oracle.query(NodeId::new(0), NodeId::new(2), &FaultSet::default());
    match read_reply(&mut client) {
        Some(Response::Query(reply)) => assert_eq!(reply.distance, expected.distance.raw()),
        other => panic!("expected the healthy shard's answer, got {other:?}"),
    }
    assert!(
        asked.elapsed() < frame_deadline,
        "the healthy shard's answer took {:?} behind a hung shard; the frame deadline is \
         {frame_deadline:?}",
        asked.elapsed()
    );

    let asked = Instant::now();
    Client::connect(&endpoint)
        .and_then(|mut c| c.shutdown())
        .expect("shutdown");
    let report = router_thread.join().expect("router thread");
    assert!(
        asked.elapsed() < Duration::from_secs(2),
        "run returned late"
    );
    assert_eq!(report.shard_failures, 4);
    assert_eq!(report.protocol_errors, 4);
    release.send(()).expect("release the stub");
    stub.join().expect("stub shard");
    healthy_handle.signal();
    healthy_thread.join().expect("shard 0 thread");
}

/// A shard that restarts while the router sits idle answers the next
/// query that needs it: the worker's cached client finds its connection
/// closed and redials within the request, instead of failing it.
#[test]
fn restarted_shard_answers_the_next_query() {
    let g = generators::grid2d(6, 4);
    let oracle = ForbiddenSetOracle::new(&g, 0.5);
    let plan = PartitionPlan::for_oracle(&oracle, 2);
    let dir = TempDir::new("restart");
    let fleet = ShardFleet::spawn(&oracle, dir.path(), &plan);
    // One worker, so the query after the restart meets the cached client.
    let (endpoint, _shutdown, router_thread) = spawn_router_on(
        &Endpoint::Tcp("127.0.0.1:0".into()),
        fleet.endpoints.clone(),
        plan.clone(),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let (v0, v1) = (plan.vertices_of(0)[0], plan.vertices_of(1)[0]);
    let mut scratch = DecodeScratch::new();
    let expected = oracle.query_with(v0, v1, &FaultSet::default(), &mut scratch);

    let mut client = connect(&endpoint);
    let reply = client
        .query(v0.raw(), v1.raw(), WireFaults::empty())
        .expect("both shards up");
    assert_eq!(reply.distance, expected.distance.raw());

    let ShardFleet {
        endpoints,
        mut handles,
    } = fleet;
    let (thread, handle) = handles.remove(1);
    handle.signal();
    thread.join().expect("shard 1 thread");
    handles.insert(
        1,
        serve_shard(
            dir.path(),
            1,
            &endpoints[1],
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        ),
    );

    let reply = client
        .query(v0.raw(), v1.raw(), WireFaults::empty())
        .expect("the restarted shard answers the next query");
    assert_eq!(reply.distance, expected.distance.raw());
    client.shutdown().expect("shutdown");
    let report = router_thread.join().expect("router thread");
    assert_eq!(report.shard_failures, 0);
    ShardFleet { endpoints, handles }.stop();
}

/// A gather that fails while the router drains is answered once, and
/// the connection then closes: the next buffered frame is not
/// dispatched, readability is not re-armed, and `run` returns as soon as
/// the reply flushes rather than at the drain deadline. The shard is a
/// stub that completes the handshake and then holds every fetch, so the
/// test decides when the gather fails.
#[test]
fn failed_gather_during_drain_answers_once_then_closes() {
    let dir = TempDir::new("drainfail");
    let stub_path = dir.path().join("stub.sock");
    // The handshake connection, then the one worker's connection.
    let (stub, held_rx, release_tx) = spawn_stub_shard(&stub_path, stub_identity(2), 2);
    let frame_deadline = Duration::from_secs(10);
    let (endpoint, shutdown, router_thread) = spawn_stub_router(
        dir.path(),
        vec![Endpoint::Unix(stub_path)],
        PartitionPlan::contiguous(4, 1),
        frame_deadline,
    );

    let mut idle = connect_unix(&endpoint);
    let mut client = connect_unix(&endpoint);
    let mut frames = query_frame(0, 3);
    frames.extend(query_frame(1, 2));
    client.write_all(&frames).expect("pipeline two queries");
    held_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the first query's fetch reached the stub");

    let signaled = Instant::now();
    shutdown.signal();
    // The drain has started once the router closes the quiescent
    // connection; only then does the gather fail.
    assert!(
        read_reply(&mut idle).is_none(),
        "idle connection closed by the drain"
    );
    release_tx.send(()).expect("release the held fetch");

    match read_reply(&mut client) {
        Some(Response::Error(e)) => assert_eq!(e.code, ErrorCode::Unavailable, "{e:?}"),
        other => panic!("expected one typed Unavailable, got {other:?}"),
    }
    assert!(
        read_reply(&mut client).is_none(),
        "the drain must close the connection instead of dispatching the second query"
    );
    let report = router_thread.join().expect("router thread");
    assert!(
        signaled.elapsed() < frame_deadline / 4,
        "run returned {:?} after the signal; the drain deadline is {frame_deadline:?}",
        signaled.elapsed()
    );
    assert_eq!(report.protocol_errors, 1);
    stub.join().expect("stub shard");
}

/// The corruption sweep, extended to the sharded plane: flip one byte
/// at a stride of offsets in shard 0's files, then (a) opening the
/// store either fails typed or succeeds, and (b) if it opens and
/// serves, every routed answer is either bit-identical to the oracle or
/// a typed error — never a panic, never a silent wrong answer.
#[test]
fn corrupted_shard_store_typed_or_bit_identical_never_panic() {
    let g = generators::grid2d(5, 4);
    let oracle = ForbiddenSetOracle::new(&g, 0.5);
    let plan = PartitionPlan::for_oracle(&oracle, 2);
    let pristine = TempDir::new("corrupt-src");
    write_shard_stores(&oracle, pristine.path(), &plan).expect("write shard stores");
    let shard0 = pristine.path().join(shard_dir_name(0));
    let mut scratch = DecodeScratch::new();

    // Collect every file in shard 0's directory.
    let files: Vec<PathBuf> = std::fs::read_dir(&shard0)
        .expect("read shard dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_file())
        .collect();
    assert!(files.len() >= 3, "segment, manifest, and sidecar expected");

    let mut opened = 0usize;
    let mut rejected = 0usize;
    for file in &files {
        let original = std::fs::read(file).expect("read file");
        for offset in (0..original.len()).step_by(original.len().div_ceil(6).max(1)) {
            let mut mutated = original.clone();
            mutated[offset] ^= 0x20;
            std::fs::write(file, &mutated).expect("plant corruption");

            match ShardStore::open(&shard0) {
                Err(_) => rejected += 1, // typed rejection at open: contract held
                Ok(store) => {
                    opened += 1;
                    // The store opened (corruption missed every check
                    // that guards opening). Serve it for real and
                    // demand bit-identity or a typed error per query.
                    let dir = TempDir::new("corrupt-serve");
                    let sock = dir.path().join("s0.sock");
                    let server = Server::bind(
                        &Endpoint::Unix(sock.clone()),
                        ServeEngine::from_shard(store),
                        ServerConfig {
                            workers: 1,
                            ..ServerConfig::default()
                        },
                    )
                    .expect("bind corrupted shard");
                    let shutdown = server.shutdown_handle();
                    let thread = std::thread::spawn(move || server.run());
                    let mut probe = connect(&Endpoint::Unix(sock));
                    for &v in plan.vertices_of(0).iter().take(4) {
                        match probe.label_fetch(vec![v.raw()]) {
                            Err(ClientError::Server(_)) => {} // typed: fine
                            Err(other) => panic!("transport-level failure: {other:?}"),
                            Ok(reply) => {
                                // Bytes served: they must decode to the
                                // oracle's exact label or fail typed
                                // downstream — the router's decode
                                // validates owner and invariants, so a
                                // flipped label is caught there. Here we
                                // assert the serving path never panics
                                // and the frame stays well-formed.
                                assert_eq!(reply.labels.len(), 1);
                            }
                        }
                    }
                    shutdown.signal();
                    let _ = thread.join();
                    let _ = probe;
                    let _ = oracle.query_with(
                        NodeId::new(0),
                        NodeId::new(1),
                        &FaultSet::default(),
                        &mut scratch,
                    );
                }
            }
        }
        std::fs::write(file, &original).expect("restore file");
    }
    assert!(
        rejected > 0,
        "the sweep must hit at least one guarded byte ({opened} opens)"
    );
    // And after restoring everything, the store is whole again.
    ShardStore::open(&shard0).expect("pristine store reopens");
}
