//! `fsdlbench` — the served benchmark of the fsdl oracle.
//!
//! ```text
//! fsdlbench --fsdl PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts the real `fsdl` binary as a separate serving process on the
//! 24×24 grid at ε = 1 (n = 576), drives it from this process over two
//! unix-socket connections (one thread each), checks every answer against
//! BFS on `G ∖ F`, and prints one JSON object as the last line of
//! standard output. With `--trace 0` it holds the end-to-end metrics;
//! with `--trace 1` the run additionally replays its op stream in process
//! through each layer's public functions and reports per-layer metrics.
//! See `fsdlbench/README.md` for the workloads and the metric table.

mod check;
mod gen;
mod proc;
mod stats;
mod trace;
mod wire;

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fsdl_graph::{generators, Graph, NodeId};
use fsdl_labels::codec::VarintScratch;
use fsdl_labels::partition::{PartitionPlan, PLAN_FILE_NAME};
use fsdl_server::protocol::{self, FrameRead, Request, Response};
use fsdl_server::{Client, Endpoint};

use check::{faults_in_effect, Checker, ChurnWindow};
use gen::{Op, Stream, Workload};
use stats::{mean, median, quantile};
use wire::{Kind, Outcome, Record, Source};

/// Grid side: the 24×24 grid, n = 576.
const SIDE: usize = 24;
/// The scheme's precision.
const EPS: f64 = 1.0;
/// Load-generator connections (one thread each).
const CONNS: u32 = 2;
/// Shards behind the router in `routed-cold`.
const SHARDS: u32 = 4;
/// Cycles in the measured window.
const CYCLES: usize = 10;
/// Share of each cycle spent in the open-loop segment.
const OPEN_SHARE: f64 = 0.3;
/// Share of each cycle spent in the two-connection closed loop; the rest
/// is the one-connection closed loop.
const PAIR_SHARE: f64 = 0.35;
/// Untimed closed-loop seconds between set-up and the measured window.
const SETTLE_S: f64 = 1.0;
/// The tail percentile reported for latencies (the highest one every
/// workload's sample sizes support under the ten-beyond rule).
const TAIL: f64 = 0.9;
/// Dijkstra is re-timed on every this-many replayed queries.
const DIJKSTRA_EVERY: usize = 4;
/// Churn pairs replayed through the dynamic oracle in the traced run.
const DYNAMIC_REPLAY_PAIRS: usize = 150;
/// Queries replayed per round when measuring the tracing overhead.
const OVERHEAD_OPS: usize = 60;
/// Alternating plain/traced rounds for the tracing overhead.
const OVERHEAD_ROUNDS: usize = 3;

struct Args {
    fsdl: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut map = HashMap::new();
    for pair in raw.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                map.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("unexpected argument {:?}", pair[0])),
        }
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    Ok(Args {
        fsdl: PathBuf::from(get("fsdl")?),
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: get("seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other}")),
        },
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

#[derive(Default)]
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    extra: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.push_note(name, value, unit, String::new());
    }

    fn push_note(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// A metric shown in the human-readable table only.
    fn show(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.extra.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }
}

/// The run's working directory, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fsdlbench: {e}");
            eprintln!("usage: fsdlbench --fsdl PATH --workload static-faults|routed-cold|dynamic-churn --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => print_report(&args, &report),
        Err(e) => {
            eprintln!("fsdlbench: {e}");
            std::process::exit(1);
        }
    }
}

fn print_report(args: &Args, report: &Report) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "fsdlbench {} seed={} seconds={} trace={} {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        proc::host_fingerprint()
    );
    for m in report.metrics.iter().chain(&report.extra) {
        let _ = writeln!(
            out,
            "  {:<28} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

/// Latencies (ms) of `records` of the given kinds.
fn latencies_ms(records: &[Record], kinds: &[Kind]) -> Vec<f64> {
    records
        .iter()
        .filter(|r| kinds.contains(&r.kind))
        .map(|r| r.latency() * 1e3)
        .collect()
}

/// A median and tail with the sample counts, for the table.
fn pct_note(samples: &[f64], p: f64) -> Result<(f64, String), String> {
    let q = quantile(samples, p).ok_or_else(|| {
        format!(
            "p{} needs {} samples beyond it; only {} samples",
            p * 100.0,
            stats::MIN_BEYOND,
            samples.len()
        )
    })?;
    Ok((q.value, format!("(n={}, {} beyond)", q.samples, q.beyond)))
}

fn run(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let work = WorkDir(PathBuf::from(format!(
        ".fsdlbench-work/{}",
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0)
        .map_err(|e| format!("cannot create {}: {e}", work.0.display()))?;
    let dir = |name: &str| work.0.join(name);
    let path = |p: &Path| p.to_str().expect("working paths are UTF-8").to_string();
    let (graph_file, store, socket) = (dir("graph.txt"), dir("store"), dir("serve.sock"));
    let g: Graph = generators::grid2d(SIDE, SIDE);
    let n = g.num_vertices() as u32;
    let fsdl = &args.fsdl;
    let epoch = Instant::now();

    // Set-up: from the first command to the end of the warm-up pass.
    let setup_start = Instant::now();
    let side = SIDE.to_string();
    proc::run(
        fsdl,
        &["gen", "grid", &side, &side, "--out", &path(&graph_file)],
    )?;
    let listen = format!("unix:{}", path(&socket));
    let eps = EPS.to_string();
    let (gf, st) = (path(&graph_file), path(&store));
    let served = match workload {
        Workload::StaticFaults => {
            proc::run(fsdl, &["build", &gf, "--store", &st, "--eps", &eps])?;
            proc::Served::start(
                fsdl,
                &[
                    "serve",
                    &gf,
                    "--store",
                    &st,
                    "--open-mode",
                    "lazy",
                    "--listen",
                    &listen,
                ],
                &socket,
            )?
        }
        Workload::RoutedCold => {
            let shards = SHARDS.to_string();
            proc::Served::start(
                fsdl,
                &[
                    "serve",
                    &gf,
                    "--eps",
                    &eps,
                    "--shards",
                    &shards,
                    "--shard-dir",
                    &st,
                    "--listen",
                    &listen,
                ],
                &socket,
            )?
        }
        Workload::DynamicChurn => proc::Served::start(
            fsdl,
            &[
                "serve",
                &gf,
                "--eps",
                &eps,
                "--dynamic",
                "yes",
                "--store",
                &st,
                "--listen",
                &listen,
            ],
            &socket,
        )?,
    };
    let warmup = wire::drive(
        &socket,
        epoch,
        0,
        Source::List(gen::warmup_ops(workload, n, args.seed)),
    )
    .map_err(|e| format!("cannot connect: {e}"))?;
    if let Some(r) = warmup.iter().find(|r| r.failed()) {
        return Err(format!("warm-up request failed: {:?}", r.outcome));
    }
    let setup_s = setup_start.elapsed().as_secs_f64();
    // A short closed-loop pass, neither set-up nor measured, so the first
    // cycle does not pay for the serving process's first busy second.
    let settle_end = epoch.elapsed().as_secs_f64() + SETTLE_S;
    let settle = run_conns(&socket, epoch, |c| {
        let seed = args.seed ^ 0x5e77_1e00;
        Source::Stream(Stream::new(workload, n, seed, c, CONNS), settle_end)
    })?;
    if let Some(r) = settle.iter().find(|r| r.failed()) {
        return Err(format!("settling request failed: {:?}", r.outcome));
    }

    // Each cycle of the measured window runs an open-loop segment (a
    // fixed schedule at the workload's rate), a two-connection closed
    // loop (throughput) and a one-connection closed loop (latency), so
    // every phase samples the host over the whole window and a transient
    // stall lands in few segments. Latency comes from the one-connection
    // loop: on a shared two-core host, open-loop latency also carries the
    // wake-ups of idle threads and vCPUs, which swing by milliseconds with
    // the neighbours' load, while a request/reply client keeps the server
    // busy.
    let rate = workload.open_rate();
    let cycle_s = args.seconds / CYCLES as f64;
    let per_cycle = (rate * cycle_s * OPEN_SHARE).round() as usize;
    let ops = gen::open_loop_ops(workload, n, args.seed, CONNS, per_cycle * CYCLES);
    let cpu_start = proc::cpu_seconds();
    let (mut open, mut closed, mut solo) = (Vec::new(), Vec::new(), Vec::new());
    let (mut closed_done, mut closed_span) = (0usize, 0.0);
    for (k, chunk) in ops.chunks(per_cycle).enumerate() {
        let start = epoch.elapsed().as_secs_f64() + 0.01;
        open.extend(run_conns(&socket, epoch, |c| {
            let plan = chunk
                .iter()
                .enumerate()
                .filter(|(j, _)| (k * per_cycle + j) as u32 % CONNS == c)
                .map(|(j, op)| (start + j as f64 / rate, op.clone()))
                .collect();
            Source::Schedule(plan)
        })?);
        let end = epoch.elapsed().as_secs_f64() + cycle_s * PAIR_SHARE;
        let segment = run_conns(&socket, epoch, |c| {
            let seed = args.seed ^ 0xc105_ed00 ^ k as u64;
            Source::Stream(Stream::new(workload, n, seed, c, CONNS), end)
        })?;
        // Completions after the segment's first, over the time they span,
        // pooled over the segments.
        let done: Vec<f64> = segment
            .iter()
            .filter(|r| r.kind == Kind::Query && !r.failed())
            .map(|r| r.received)
            .collect();
        if done.len() >= 2 {
            let (lo, hi) = done
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &t| (lo.min(t), hi.max(t)));
            closed_done += done.len() - 1;
            closed_span += hi - lo;
        }
        closed.extend(segment);
        let end = epoch.elapsed().as_secs_f64() + cycle_s * (1.0 - OPEN_SHARE - PAIR_SHARE);
        let seed = args.seed ^ 0x5010_0000 ^ k as u64;
        let stream = Stream::new(workload, n, seed, 0, CONNS);
        solo.extend(
            wire::drive(&socket, epoch, 0, Source::Stream(stream, end))
                .map_err(|e| format!("cannot connect: {e}"))?,
        );
    }
    let cpu_s = proc::cpu_seconds() - cpu_start;
    // Traced run only: an unloaded pass, and the label plane by hand.
    let unloaded = if args.trace {
        Some(
            wire::drive(&socket, epoch, 0, Source::List(ops.clone()))
                .map_err(|e| format!("cannot connect: {e}"))?,
        )
    } else {
        None
    };
    let fetches = if args.trace && workload == Workload::RoutedCold {
        Some(fetch_pass(&store, &ops, n as usize)?)
    } else {
        None
    };
    let protocol_errors = Client::connect(&Endpoint::Unix(socket.clone()))
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("stats refused: {e}"))?
        .protocol_errors;
    let peak_rss_mb = served.peak_rss_mb()?;
    let store_mb = proc::dir_bytes(&store) as f64 / 1e6;
    for line in served.shutdown()? {
        eprintln!("fsdl: {line}");
    }

    // Check every answer, after the timed window.
    let mut all: Vec<&Record> = warmup
        .iter()
        .chain(&settle)
        .chain(&open)
        .chain(&closed)
        .chain(&solo)
        .collect();
    if let Some(u) = &unloaded {
        all.extend(u);
    }
    let stretches = check_answers(&g, workload, &all)?;
    let measured: Vec<&Record> = open.iter().chain(&closed).chain(&solo).collect();

    let mut report = Report {
        attempted: measured.len(),
        failed: measured.iter().filter(|r| r.failed()).count(),
        ..Report::default()
    };
    let query_ms = latencies_ms(&solo, &[Kind::Query]);
    let (p50, p50_note) = pct_note(&query_ms, 0.5)?;
    let (tail, tail_note) = pct_note(&query_ms, TAIL)?;
    let closed_queries = closed
        .iter()
        .filter(|r| r.kind == Kind::Query && !r.failed())
        .count();
    if closed_done == 0 {
        return Err("the closed loop completed too few queries".into());
    }
    let max_qps = closed_done as f64 / closed_span;
    let stretch_mean = mean(&stretches).ok_or("no answer had a finite, unambiguous distance")?;
    let e2e = vec![
        ("setup_s", setup_s, "s", String::new()),
        (
            "max_qps",
            max_qps,
            "1/s",
            format!(
                "({closed_queries} queries, 2 conns, {closed_span:.2} s over {CYCLES} closed-loop segments)"
            ),
        ),
        ("query_p50_ms", p50, "ms", p50_note),
        ("query_p90_ms", tail, "ms", tail_note),
        (
            "peak_rss_mb",
            peak_rss_mb,
            "MB",
            "(VmHWM of the serving process)".into(),
        ),
        ("store_mb", store_mb, "MB", String::new()),
        (
            "stretch_mean",
            stretch_mean,
            "ratio",
            format!("(n={})", stretches.len()),
        ),
    ];
    for (name, value, unit, note) in e2e {
        if args.trace {
            report.show(name, value, unit, note);
        } else {
            report.push_note(name, value, unit, note);
        }
    }
    let open_ms = latencies_ms(&open, &[Kind::Query]);
    let update_ms = latencies_ms(&open, &[Kind::Delete, Kind::Restore]);
    for (name, samples, p) in [
        ("open_p50_ms", &open_ms, 0.5),
        ("open_p90_ms", &open_ms, TAIL),
        ("update_p50_ms", &update_ms, 0.5),
        ("update_p90_ms", &update_ms, TAIL),
    ] {
        if let Some(q) = quantile(samples, p) {
            let note = format!("(open loop, n={}, {} beyond)", q.samples, q.beyond);
            report.show(name, q.value, "ms", note);
        }
    }
    report.show(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        format!("({} of {} failed)", report.failed, report.attempted),
    );
    let late_ms: Vec<f64> = open
        .iter()
        .filter(|r| r.kind != Kind::Restore)
        .map(|r| (r.sent - r.due) * 1e3)
        .collect();
    let (late, late_note) = pct_note(&late_ms, TAIL)?;

    if args.trace {
        let loadgen = LoadgenCosts {
            late_ms: late,
            late_note,
            cpu_s,
            protocol_errors,
        };
        layer_metrics(
            args,
            &g,
            &store,
            &work.0,
            &ops,
            &open,
            unloaded.as_deref().unwrap_or(&[]),
            fetches,
            loadgen,
            &mut report,
        )?;
    } else {
        report.show("loadgen.late_p90_ms", late, "ms", late_note);
        report.show("loadgen.cpu_s", cpu_s, "s", String::new());
    }
    Ok(report)
}

/// Runs one `drive` per connection on its own thread.
fn run_conns(
    socket: &Path,
    epoch: Instant,
    source: impl Fn(u32) -> Source + Sync,
) -> Result<Vec<Record>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let source = &source;
                scope.spawn(move || wire::drive(socket, epoch, c, source(c)))
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            let records = h
                .join()
                .map_err(|_| "a load-generator thread panicked".to_string())?
                .map_err(|e| format!("cannot connect: {e}"))?;
            all.extend(records);
        }
        Ok(all)
    })
}

/// Checks every answered query against BFS; returns the stretches of the
/// answers whose fault set is unambiguous.
fn check_answers(g: &Graph, workload: Workload, records: &[&Record]) -> Result<Vec<f64>, String> {
    let windows = churn_windows(records);
    let mut checker = Checker::new(g, EPS);
    let mut stretches = Vec::new();
    let mut violations = Vec::new();
    for r in records {
        let (Op::Query { s, t, faults }, Outcome::Dist(delta)) = (&r.op, &r.outcome) else {
            continue;
        };
        let (certain, possible) = if workload == Workload::DynamicChurn {
            faults_in_effect(&windows, r.sent, r.received)
        } else {
            (faults.clone(), faults.clone())
        };
        match checker.check(*s, *t, *delta, &certain, &possible) {
            Ok(Some(x)) => stretches.push(x),
            Ok(None) => {}
            Err(e) => violations.push(e),
        }
    }
    if violations.is_empty() {
        return Ok(stretches);
    }
    for v in violations.iter().take(10) {
        eprintln!("fsdlbench: wrong answer: {v}");
    }
    Err(format!("{} answers failed the BFS check", violations.len()))
}

/// Pairs each delete with the restore sent when it was acknowledged.
fn churn_windows(records: &[&Record]) -> Vec<ChurnWindow> {
    let mut restores: HashMap<(u32, u32, u64), &Record> = HashMap::new();
    for r in records.iter().filter(|r| r.kind == Kind::Restore) {
        if let Op::Churn { v } = r.op {
            restores.insert((r.conn, v, r.due.to_bits()), r);
        }
    }
    let ack = |r: &Record| {
        if r.failed() {
            f64::INFINITY
        } else {
            r.received
        }
    };
    records
        .iter()
        .filter(|r| r.kind == Kind::Delete)
        .filter_map(|d| {
            let Op::Churn { v } = d.op else { return None };
            let restore = restores.get(&(d.conn, v, d.received.to_bits()));
            Some(ChurnWindow {
                v,
                delete_sent: d.sent,
                delete_ack: ack(d),
                restore_sent: restore.map_or(f64::INFINITY, |r| r.sent),
                restore_ack: restore.map_or(f64::INFINITY, |r| ack(r)),
            })
        })
        .collect()
}

/// Label-plane costs measured by hand against the shard sockets.
struct Fetches {
    /// Per query: (ms, KB, frames).
    per_query: Vec<(f64, f64, f64)>,
    /// Per fetched label: (KB, decode ms).
    labels: Vec<(f64, f64)>,
    /// Per query op index: total decode ms of its labels.
    decode_ms: HashMap<usize, f64>,
    /// Labels fetched from each shard.
    per_shard: Vec<usize>,
}

/// Fetches each open-loop query's labels from the shards that own them
/// (re-requesting the unserved tail of short replies, counting frames)
/// and decodes each label with `codec::decode_with`.
fn fetch_pass(shard_dir: &Path, ops: &[Op], n: usize) -> Result<Fetches, String> {
    let plan = PartitionPlan::load(&shard_dir.join(PLAN_FILE_NAME))
        .map_err(|e| format!("cannot load the plan: {e}"))?;
    let mut conns = (0..plan.num_shards())
        .map(|k| UnixStream::connect(shard_dir.join(format!("shard-{k}.sock"))))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot reach a shard: {e}"))?;
    let mut fetches = Fetches {
        per_query: Vec::new(),
        labels: Vec::new(),
        decode_ms: HashMap::new(),
        per_shard: vec![0; conns.len()],
    };
    let (mut encode, mut frame, mut varints) = (Vec::new(), Vec::new(), VarintScratch::new());
    for (i, op) in ops.iter().enumerate() {
        let Op::Query { s, t, faults } = op else {
            continue;
        };
        let mut by_shard: Vec<Vec<u32>> = vec![Vec::new(); conns.len()];
        for &v in [*s, *t].iter().chain(faults) {
            by_shard[plan.shard_of(NodeId::new(v)) as usize].push(v);
        }
        let (mut bytes, mut frames, mut got) = (0usize, 0usize, Vec::new());
        let start = Instant::now();
        for (k, mut remaining) in by_shard.into_iter().enumerate() {
            fetches.per_shard[k] += remaining.len();
            while !remaining.is_empty() {
                protocol::send_request(
                    &mut conns[k],
                    &Request::LabelFetch {
                        vertices: remaining.clone(),
                    },
                    &mut encode,
                )
                .map_err(|e| format!("label fetch failed: {e}"))?;
                match protocol::read_frame(&mut conns[k], protocol::MAX_LABEL_FRAME, &mut frame) {
                    Ok(FrameRead::Frame) => {}
                    other => return Err(format!("label fetch failed: {other:?}")),
                }
                frames += 1;
                let reply = match Response::decode(&frame) {
                    Ok(Response::LabelFetch(r)) => r,
                    other => return Err(format!("unexpected label-fetch reply: {other:?}")),
                };
                let served = reply.labels.len();
                if served == 0
                    || reply
                        .labels
                        .iter()
                        .zip(&remaining)
                        .any(|(l, &v)| l.vertex != v)
                {
                    return Err("label-fetch reply is not a prefix of the request".into());
                }
                remaining.drain(..served);
                bytes += reply.labels.iter().map(|l| l.bytes.len()).sum::<usize>();
                got.extend(reply.labels);
            }
        }
        let fetch_ms = start.elapsed().as_secs_f64() * 1e3;
        fetches
            .per_query
            .push((fetch_ms, bytes as f64 / 1e3, frames as f64));
        let mut decode_ms = 0.0;
        for l in &got {
            let (kb, ms) = trace::decode_cost(&l.bytes, l.bit_len as usize, n, &mut varints)?;
            fetches.labels.push((kb, ms));
            decode_ms += ms;
        }
        fetches.decode_ms.insert(i, decode_ms);
    }
    Ok(fetches)
}

struct LoadgenCosts {
    late_ms: f64,
    late_note: String,
    cpu_s: f64,
    protocol_errors: u64,
}

/// The traced run's per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    args: &Args,
    g: &Graph,
    served_store: &Path,
    work: &Path,
    ops: &[Op],
    open: &[Record],
    unloaded: &[Record],
    fetches: Option<Fetches>,
    loadgen: LoadgenCosts,
    report: &mut Report,
) -> Result<(), String> {
    let n = g.num_vertices();
    let mut tracer = trace::Tracer::new(true);
    let replay_store = work.join("replay-store");
    let (oracle, build_s, save_s, open_ms) =
        trace::build_save_open(g, EPS, &replay_store, &mut tracer)?;

    // Pass A (traced): first touches, and Dijkstra re-timed on a sample.
    // Pass C (traced, every label a hit): the decode timings.
    let mut touched = HashSet::new();
    let (first_pass, labels) =
        trace::replay_queries(&oracle, ops, &mut tracer, &mut touched, DIJKSTRA_EVERY)?;
    let resident_mb = oracle.label_plane_stats().resident_label_bytes as f64 / 1e6;
    let (samples, _) = trace::replay_queries(&oracle, ops, &mut tracer, &mut touched, 0)?;
    // Tracing overhead: plain and traced replays of a prefix, alternated,
    // fastest of each.
    let prefix = &ops[..ops.len().min(OVERHEAD_OPS)];
    let (mut plain_s, mut traced_s) = (f64::MAX, f64::MAX);
    for _ in 0..OVERHEAD_ROUNDS {
        for on in [false, true] {
            let t = Instant::now();
            trace::replay_queries(
                &oracle,
                prefix,
                &mut trace::Tracer::new(on),
                &mut touched,
                0,
            )?;
            let s = t.elapsed().as_secs_f64();
            if on {
                traced_s = traced_s.min(s);
            } else {
                plain_s = plain_s.min(s);
            }
        }
    }

    // Codec: the labels the routed run fetched, else the op stream's.
    let (label_kb, decode_ms) = match &fetches {
        Some(f) => (
            f.labels.iter().map(|l| l.0).collect::<Vec<_>>(),
            f.labels.iter().map(|l| l.1).collect::<Vec<_>>(),
        ),
        None => {
            let mut vs: Vec<u32> = touched.iter().copied().collect();
            vs.sort_unstable();
            vs.truncate(16);
            trace::codec_costs(&oracle, &vs, n)?
        }
    };
    drop(oracle);
    let _ = std::fs::remove_dir_all(&replay_store);

    let query_us: Vec<f64> = samples.iter().map(|s| s.query_us).collect();
    let decode_by_op: HashMap<usize, f64> = samples.iter().map(|s| (s.op, s.query_us)).collect();
    let dijkstra: Vec<(usize, f64)> = first_pass
        .iter()
        .filter_map(|s| s.dijkstra_us.map(|d| (s.op, d)))
        .collect();
    let dijkstra_us: Vec<f64> = dijkstra.iter().map(|d| d.1).collect();
    let assembly_us: Vec<f64> = dijkstra
        .iter()
        .map(|(op, d)| decode_by_op[op] - d)
        .collect();
    let candidates = trace::mean_of(&samples, |s| s.candidates);
    let admitted = trace::mean_of(&samples, |s| s.admitted);

    // Wire: unloaded round trips against in-process decode, per op.
    let unloaded_queries: Vec<&Record> =
        unloaded.iter().filter(|r| r.kind == Kind::Query).collect();
    let rtt_us: Vec<f64> = unloaded_queries.iter().map(|r| r.latency() * 1e6).collect();
    let op_index = |r: &Record| ops.iter().position(|o| *o == r.op);
    let mut overhead_us = Vec::new();
    let mut router_overhead_ms = Vec::new();
    for r in &unloaded_queries {
        let Some(i) = op_index(r) else { continue };
        let Some(&dec) = decode_by_op.get(&i) else {
            continue;
        };
        let rtt = r.latency() * 1e6;
        overhead_us.push(rtt - dec);
        if let Some(f) = &fetches {
            let k = ops[..i]
                .iter()
                .filter(|o| matches!(o, Op::Query { .. }))
                .count();
            let (fetch_ms, _, _) = f.per_query[k];
            router_overhead_ms.push((rtt - dec) / 1e3 - fetch_ms - f.decode_ms[&i]);
        }
    }
    let rtt_by_op: HashMap<usize, f64> = unloaded_queries
        .iter()
        .filter_map(|r| op_index(r).map(|i| (i, r.latency() * 1e3)))
        .collect();
    let queue_wait_ms: Vec<f64> = open
        .iter()
        .filter(|r| r.kind == Kind::Query)
        .filter_map(|r| {
            op_index(r)
                .and_then(|i| rtt_by_op.get(&i))
                .map(|rtt| r.latency() * 1e3 - rtt)
        })
        .collect();

    // Dynamic oracle: churn pairs on the served store, then a rebuild.
    // `static-faults` has no churn of its own; its store is opened as a
    // dynamic one and replays `dynamic-churn`'s picks for the same seed.
    let mut dynamic = None;
    let mut buffered_mean = None;
    if args.workload != Workload::RoutedCold {
        let churn: Vec<u32> =
            gen::open_loop_ops(Workload::DynamicChurn, n as u32, args.seed, CONNS, 4000)
                .into_iter()
                .filter_map(|op| match op {
                    Op::Churn { v } => Some(v),
                    Op::Query { .. } => None,
                })
                .take(DYNAMIC_REPLAY_PAIRS)
                .collect();
        dynamic = Some(trace::replay_dynamic(served_store, g, &churn, &mut tracer)?);
    }
    if args.workload == Workload::DynamicChurn {
        let open_refs: Vec<&Record> = open.iter().collect();
        let windows = churn_windows(&open_refs);
        let possible: Vec<f64> = open
            .iter()
            .filter(|r| r.kind == Kind::Query)
            .map(|r| faults_in_effect(&windows, r.sent, r.received).1.len() as f64)
            .collect();
        buffered_mean = mean(&possible);
    }

    std::fs::create_dir_all(".fsdlbench-out")
        .map_err(|e| format!("cannot create .fsdlbench-out: {e}"))?;
    let dump = PathBuf::from(format!(
        ".fsdlbench-out/trace-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    tracer
        .write_tsv(&dump)
        .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;

    let q = |xs: &[f64], p: f64| quantile(xs, p).map_or(0.0, |q| q.value);
    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
    let avg = |xs: &[f64]| mean(xs).unwrap_or(0.0);
    let (first, hits) = (labels.first_us.len() as f64, labels.hit_us.len() as f64);
    let counted = |xs: &[f64]| format!("(n={})", xs.len());
    report.push("builder.build_s", build_s, "s");
    report.push("store.save_s", save_s, "s");
    report.push("store.open_ms", open_ms, "ms");
    report.push_note(
        "oracle.label_first_us",
        med(&labels.first_us),
        "us",
        counted(&labels.first_us),
    );
    report.push_note(
        "oracle.label_hit_us",
        med(&labels.hit_us),
        "us",
        counted(&labels.hit_us),
    );
    report.push("oracle.hit_ratio", hits / (first + hits).max(1.0), "ratio");
    report.push("oracle.resident_mb", resident_mb, "MB");
    report.push_note("codec.label_kb", avg(&label_kb), "KB", counted(&label_kb));
    report.push_note(
        "codec.decode_ms",
        med(&decode_ms),
        "ms",
        counted(&decode_ms),
    );
    report.push_note(
        "decode.query_p50_us",
        med(&query_us),
        "us",
        counted(&query_us),
    );
    let (tail, note) = pct_note(&query_us, TAIL)?;
    report.push_note("decode.query_p90_us", tail, "us", note);
    report.push_note(
        "decode.assembly_p50_us",
        med(&assembly_us),
        "us",
        counted(&assembly_us),
    );
    report.push_note(
        "decode.dijkstra_p50_us",
        med(&dijkstra_us),
        "us",
        counted(&dijkstra_us),
    );
    report.push("decode.candidates_mean", candidates, "count");
    report.push("decode.admitted_mean", admitted, "count");
    report.push(
        "decode.admit_ratio",
        admitted / candidates.max(1.0),
        "ratio",
    );
    report.push_note(
        "server.rtt_unloaded_p50_us",
        med(&rtt_us),
        "us",
        counted(&rtt_us),
    );
    report.push("server.overhead_p50_us", med(&overhead_us), "us");
    report.push("server.queue_wait_p50_ms", med(&queue_wait_ms), "ms");
    report.push(
        "server.protocol_errors",
        loadgen.protocol_errors as f64,
        "count",
    );
    let per_query = fetches.as_ref().map_or(&[][..], |f| &f.per_query[..]);
    let col = |k: usize| {
        per_query
            .iter()
            .map(|p| [p.0, p.1, p.2][k])
            .collect::<Vec<_>>()
    };
    report.push("router.fetch_kb_per_query", avg(&col(1)), "KB");
    report.push("router.fetch_frames_per_query", avg(&col(2)), "count");
    report.push("router.fetch_p50_ms", med(&col(0)), "ms");
    report.push("router.overhead_p50_ms", med(&router_overhead_ms), "ms");
    let skew = fetches.as_ref().map_or(0.0, |f| {
        let per: Vec<f64> = f.per_shard.iter().map(|&c| c as f64).collect();
        per.iter().copied().fold(0.0, f64::max) / avg(&per).max(1.0)
    });
    report.push("router.shard_skew", skew, "ratio");
    let update_ms = dynamic.as_ref().map_or(Vec::new(), |d| d.update_ms.clone());
    report.push_note(
        "dynamic.update_p50_ms",
        med(&update_ms),
        "ms",
        counted(&update_ms),
    );
    report.push("dynamic.update_p90_ms", q(&update_ms, TAIL), "ms");
    report.push(
        "wal.bytes_per_update",
        dynamic.as_ref().map_or(0.0, |d| d.wal_bytes_per_update),
        "B",
    );
    if let Some(b) = buffered_mean {
        report.show("dynamic.buffered_mean", b, "count", String::new());
    }
    report.push(
        "dynamic.rebuild_s",
        dynamic.as_ref().map_or(0.0, |d| d.rebuild_s),
        "s",
    );
    report.push_note(
        "loadgen.late_p90_ms",
        loadgen.late_ms,
        "ms",
        loadgen.late_note,
    );
    report.push("loadgen.cpu_s", loadgen.cpu_s, "s");
    report.push(
        "trace.overhead_pct",
        (traced_s - plain_s) / plain_s * 100.0,
        "%",
    );
    Ok(())
}
