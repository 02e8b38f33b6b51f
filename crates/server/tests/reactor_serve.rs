//! Reactor-specific serving behavior: frame reassembly from arbitrary
//! read chunks, interleaved connections, write buffering under a lazy
//! reader, slow-loris deadlines, and worker-starvation immunity — the
//! properties the readiness-driven event loop exists to provide and the
//! old connection-per-worker server could not.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fsdl_graph::generators;
use fsdl_labels::partition::PartitionPlan;
use fsdl_labels::ForbiddenSetOracle;
use fsdl_routing::Network;
use fsdl_server::{
    Client, Endpoint, ErrorCode, Request, Response, ServeEngine, ServeReport, Server, ServerConfig,
    WireFaults,
};

fn scratch_sock(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let k = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "fsdl-reactor-{tag}-{}-{k}.sock",
        std::process::id()
    ))
}

fn spawn_server(
    sock: PathBuf,
    config: ServerConfig,
) -> (Endpoint, std::thread::JoinHandle<ServeReport>) {
    let g = generators::grid2d(6, 6);
    let oracle = ForbiddenSetOracle::new(&g, 0.5);
    let server = Server::bind(
        &Endpoint::Unix(sock),
        ServeEngine::Static(Arc::new(Network::from_oracle(oracle))),
        config,
    )
    .expect("bind");
    let endpoint = server.local_endpoint().expect("endpoint");
    let handle = std::thread::spawn(move || server.run());
    (endpoint, handle)
}

/// The two kinds of engine the connection-handling tests run under.
#[derive(Clone, Copy, Debug)]
enum Front {
    /// A static oracle in process.
    Server,
    /// A routed engine over the same graph served by one static backend
    /// shard.
    Routed,
}

type Joiner = Box<dyn FnOnce() -> ServeReport>;

/// Spawns `front` on a fresh socket with the given frame deadline; the
/// returned closure joins it (and any backend) after a shutdown frame.
fn spawn_front(front: Front, tag: &str, frame_deadline: Duration) -> (Endpoint, Joiner) {
    let config = ServerConfig {
        frame_deadline,
        ..ServerConfig::default()
    };
    let (endpoint, handle) = spawn_server(scratch_sock(tag), config.clone());
    match front {
        Front::Server => (endpoint, Box::new(move || handle.join().expect("server"))),
        Front::Routed => {
            let engine =
                ServeEngine::routed(vec![endpoint.clone()], PartitionPlan::contiguous(36, 1))
                    .expect("handshake the backend");
            let router = Server::bind(
                &Endpoint::Unix(scratch_sock(&format!("{tag}-router"))),
                engine,
                config,
            )
            .expect("bind router");
            let router_endpoint = router.local_endpoint().expect("router endpoint");
            let router_thread = std::thread::spawn(move || router.run());
            let join = move || {
                let report = router_thread.join().expect("router");
                Client::connect(&endpoint)
                    .and_then(|mut backend| backend.shutdown())
                    .expect("backend shutdown");
                handle.join().expect("backend");
                report
            };
            (router_endpoint, Box::new(join))
        }
    }
}

fn connect_raw(endpoint: &Endpoint) -> UnixStream {
    let Endpoint::Unix(path) = endpoint else {
        panic!("reactor tests use unix sockets");
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return s,
            Err(e) if Instant::now() >= deadline => panic!("connect: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn encode_frame(request: &Request) -> Vec<u8> {
    let mut payload = Vec::new();
    request.encode(&mut payload);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

/// Reads one reply frame; `None` on EOF.
fn read_reply(stream: &mut UnixStream) -> Option<Vec<u8>> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match stream.read(&mut header[got..]) {
            Ok(0) => return None,
            Ok(n) => got += n,
            Err(e) => panic!("reply header read: {e}"),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match stream.read(&mut payload[filled..]) {
            Ok(0) => return None,
            Ok(n) => filled += n,
            Err(e) => panic!("reply payload read: {e}"),
        }
    }
    Some(payload)
}

/// A frame drip-fed one byte at a time still parses into exactly one
/// request, and the answer is bit-identical to the same query sent
/// whole — the reassembler cannot care where the kernel splits reads.
#[test]
fn drip_fed_frames_are_reassembled_across_every_boundary() {
    for front in [Front::Server, Front::Routed] {
        let (endpoint, join) = spawn_front(front, "drip", ServerConfig::default().frame_deadline);

        let request = Request::Query {
            s: 0,
            t: 35,
            faults: WireFaults {
                vertices: vec![7],
                edges: vec![(1, 2)],
            },
        };
        let frame = encode_frame(&request);

        // Reference answer over a normal connection.
        let mut whole = connect_raw(&endpoint);
        whole.write_all(&frame).expect("write");
        let expected = read_reply(&mut whole).expect("whole-frame reply");

        // Same request, one byte per write with a pause so the event loop
        // observes many partial reads (header split, payload split).
        let mut drip = connect_raw(&endpoint);
        for byte in &frame {
            drip.write_all(std::slice::from_ref(byte)).expect("write");
            std::thread::sleep(Duration::from_millis(1));
        }
        let got = read_reply(&mut drip).expect("drip-fed reply");
        assert_eq!(
            got, expected,
            "{front:?}: reassembled answer must be bit-identical"
        );

        // Two frames fused into one write must also yield two replies.
        let mut fused = connect_raw(&endpoint);
        let mut double = frame.clone();
        double.extend_from_slice(&frame);
        fused.write_all(&double).expect("write");
        assert_eq!(read_reply(&mut fused).expect("first fused reply"), expected);
        assert_eq!(
            read_reply(&mut fused).expect("second fused reply"),
            expected
        );

        let mut client = Client::connect(&endpoint).expect("connect");
        client.shutdown().expect("shutdown");
        let totals = join();
        assert_eq!(totals.protocol_errors, 0, "{front:?}");
        assert_eq!(totals.queries, 4, "{front:?}");
    }
}

/// Two connections drip-feeding interleaved chunks each get their own
/// answer: per-connection assembler state never bleeds across sockets.
#[test]
fn interleaved_partial_frames_stay_per_connection() {
    let (endpoint, handle) = spawn_server(scratch_sock("interleave"), ServerConfig::default());

    let frame_a = encode_frame(&Request::Query {
        s: 0,
        t: 35,
        faults: WireFaults::default(),
    });
    let frame_b = encode_frame(&Request::Query {
        s: 0,
        t: 1,
        faults: WireFaults::default(),
    });

    let mut conn_a = connect_raw(&endpoint);
    let mut conn_b = connect_raw(&endpoint);

    // Alternate 3-byte chunks between the two connections.
    let mut off_a = 0;
    let mut off_b = 0;
    while off_a < frame_a.len() || off_b < frame_b.len() {
        if off_a < frame_a.len() {
            let end = (off_a + 3).min(frame_a.len());
            conn_a.write_all(&frame_a[off_a..end]).expect("write a");
            off_a = end;
        }
        if off_b < frame_b.len() {
            let end = (off_b + 3).min(frame_b.len());
            conn_b.write_all(&frame_b[off_b..end]).expect("write b");
            off_b = end;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    let reply_a = Response::decode(&read_reply(&mut conn_a).expect("reply a")).expect("decode a");
    let reply_b = Response::decode(&read_reply(&mut conn_b).expect("reply b")).expect("decode b");
    let (Response::Query(a), Response::Query(b)) = (&reply_a, &reply_b) else {
        panic!(
            "expected query replies, got {} / {}",
            reply_a.kind_name(),
            reply_b.kind_name()
        );
    };

    // Differential check against a fresh client on the same server.
    let mut client = Client::connect(&endpoint).expect("connect");
    let want_a = client.query(0, 35, WireFaults::default()).expect("query");
    let want_b = client.query(0, 1, WireFaults::default()).expect("query");
    assert_eq!(a.distance, want_a.distance);
    assert_eq!(b.distance, want_b.distance);
    assert_ne!(a.distance, b.distance, "distinct queries chosen to differ");

    client.shutdown().expect("shutdown");
    let report = handle.join().expect("server");
    assert_eq!(report.protocol_errors, 0);
}

/// A client that pipelines many large batches before reading anything
/// forces the server's replies through the write buffer (the socket
/// fills); every reply still arrives complete and in order.
#[test]
fn pipelined_batches_with_a_lazy_reader_exercise_the_write_buffer() {
    let (endpoint, handle) = spawn_server(scratch_sock("lazy"), ServerConfig::default());

    const BATCHES: usize = 8;
    const PER_BATCH: usize = 2048;
    let queries: Vec<(u32, u32, WireFaults)> = (0..PER_BATCH)
        .map(|i| {
            (
                (i % 36) as u32,
                ((i * 7 + 3) % 36) as u32,
                WireFaults::default(),
            )
        })
        .collect();
    let frame = encode_frame(&Request::Batch(queries.clone()));

    // Writer thread: blasts all batches without reading a single reply;
    // kernel buffers fill in both directions and only the reactor's
    // write buffer keeps frames untorn.
    let mut conn = connect_raw(&endpoint);
    let mut writer_conn = conn.try_clone().expect("clone");
    let writer = std::thread::spawn(move || {
        for _ in 0..BATCHES {
            writer_conn.write_all(&frame).expect("pipelined write");
        }
    });

    let mut replies = Vec::new();
    for k in 0..BATCHES {
        let payload = read_reply(&mut conn).unwrap_or_else(|| panic!("reply {k} missing"));
        replies.push(Response::decode(&payload).expect("decode"));
    }
    writer.join().expect("writer");

    let mut client = Client::connect(&endpoint).expect("connect");
    let want = client.batch(queries.clone()).expect("reference batch");
    for reply in &replies {
        let Response::Batch(items) = reply else {
            panic!("expected batch reply, got {}", reply.kind_name());
        };
        assert_eq!(items, &want, "buffered replies must match the reference");
    }

    client.shutdown().expect("shutdown");
    let report = handle.join().expect("server");
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(
        report.batch_queries,
        ((BATCHES + 1) * PER_BATCH) as u64 // +1 for the reference batch
    );
}

/// A connection that starts a frame and stalls past the deadline gets a
/// typed `DeadlineExceeded` reply, a close, and a `deadline_closes`
/// count; a connection that is merely idle (no partial frame) is immune.
#[test]
fn slow_loris_hits_the_deadline_while_idle_connections_are_immune() {
    for front in [Front::Server, Front::Routed] {
        let (endpoint, join) = spawn_front(front, "loris", Duration::from_millis(200));

        // Idle connection: open, never writes. Must survive many deadlines.
        let mut idle = connect_raw(&endpoint);

        // Loris: 4-byte header promising 8 bytes, then 2 bytes, then stall.
        let mut loris = connect_raw(&endpoint);
        loris.write_all(&8u32.to_le_bytes()).expect("header");
        loris.write_all(&[0xAB, 0xCD]).expect("partial payload");

        let reply = read_reply(&mut loris).expect("loris must get a typed reply before the close");
        let decoded = Response::decode(&reply).expect("decode");
        let Response::Error(err) = decoded else {
            panic!(
                "{front:?}: expected error reply, got {}",
                decoded.kind_name()
            );
        };
        assert_eq!(err.code, ErrorCode::DeadlineExceeded, "{front:?}");
        assert!(
            read_reply(&mut loris).is_none(),
            "{front:?}: the loris connection must be closed after the typed reply"
        );

        // The idle connection outlived several deadline windows and still
        // serves: idleness is free, only mid-frame stalls are policed.
        std::thread::sleep(Duration::from_millis(100));
        idle.write_all(&encode_frame(&Request::Stats))
            .expect("write");
        let stats_payload = read_reply(&mut idle).expect("idle conn must still be served");
        let Response::Stats(stats) = Response::decode(&stats_payload).expect("decode") else {
            panic!("{front:?}: expected stats");
        };
        assert_eq!(
            stats.deadline_closes, 1,
            "{front:?}: exactly the loris was cut"
        );

        let mut client = Client::connect(&endpoint).expect("connect");
        client.shutdown().expect("shutdown");
        let totals = join();
        assert_eq!(totals.deadline_closes, 1, "{front:?}");
        assert_eq!(
            totals.protocol_errors, 0,
            "{front:?}: a deadline close is not a protocol error"
        );
    }
}

/// The starvation regression test: with ONE worker and a crowd of idle
/// connections accepted first, queries on a late connection still flow.
/// The old connection-per-worker server parks its only worker on the
/// first idle connection forever; the reactor must answer promptly.
#[test]
fn one_worker_with_many_idle_connections_still_serves() {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let (endpoint, handle) = spawn_server(scratch_sock("starve"), config);

    let idle: Vec<UnixStream> = (0..50).map(|_| connect_raw(&endpoint)).collect();

    let start = Instant::now();
    let mut client = Client::connect(&endpoint).expect("connect");
    for i in 0..50u32 {
        let reply = client
            .query(i % 36, (i * 5 + 1) % 36, WireFaults::default())
            .expect("query behind idle crowd");
        assert!(reply.distance != u32::MAX || i % 36 == (i * 5 + 1) % 36);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "50 queries behind 50 idle connections took {elapsed:?}: the worker is starved"
    );

    drop(idle);
    client.shutdown().expect("shutdown");
    let report = handle.join().expect("server");
    assert_eq!(report.queries, 50);
    assert_eq!(report.connections, 51);
}
