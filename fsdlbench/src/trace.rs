//! The traced run's in-process layer replay.
//!
//! Spans (name, start, end, parent, op id) are recorded in memory around
//! calls into each layer's public functions and written out at the end;
//! the per-layer metrics are computed from them. A span's self time is
//! its duration minus the time its children cover.

use std::collections::HashSet;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fsdl_graph::{DijkstraScratch, Graph, NodeId};
use fsdl_labels::codec::{self, VarintScratch};
use fsdl_labels::{
    build_sketch, query_with_scratch, DecodeScratch, DynamicOracle, ForbiddenSetOracle, Label,
    OpenMode, QueryLabels,
};

use crate::gen::Op;
use crate::stats::mean;

/// One recorded span.
#[derive(Clone, Debug)]
struct Span {
    /// Layer boundary name.
    name: &'static str,
    /// Operation the span belongs to.
    op: u32,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Start, nanoseconds since the tracer's epoch.
    start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    end_ns: u64,
}

/// In-memory span recorder. When off, `begin`/`end` record nothing.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    fn begin(&mut self, name: &'static str, op: u32, parent: Option<usize>) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    fn end(&mut self, id: usize) {
        if self.on {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Duration of span `id` in microseconds.
    fn micros(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e3
    }

    /// Self time of every span in nanoseconds (duration minus children).
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Writes the spans as tab-separated lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\top\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{own}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-query decode measurements of one replay pass.
#[derive(Clone, Debug, Default)]
pub struct DecodeSample {
    /// The replayed query's position in the op list.
    pub op: usize,
    /// `query_with_scratch` time, µs.
    pub query_us: f64,
    /// `shortest_path_with` time on the same sketch, µs (sampled ops).
    pub dijkstra_us: Option<f64>,
    /// Candidate edges: virtual plus real edges of the distinct providers.
    pub candidates: f64,
    /// Admitted sketch edges.
    pub admitted: f64,
}

/// Label-resolution counts of one pass.
#[derive(Clone, Debug, Default)]
pub struct LabelCounts {
    /// First-touch `label()` times, µs.
    pub first_us: Vec<f64>,
    /// Arena-hit `label()` times, µs.
    pub hit_us: Vec<f64>,
}

/// Replays the query ops through the oracle's public decode path.
/// Dijkstra is timed separately on every `dijkstra_every`-th query
/// (0 = never) by rebuilding the same sketch with [`build_sketch`].
///
/// # Errors
///
/// A message when the separately rebuilt sketch disagrees with the
/// decoder's distance.
pub fn replay_queries(
    oracle: &ForbiddenSetOracle,
    ops: &[Op],
    tracer: &mut Tracer,
    touched: &mut HashSet<u32>,
    dijkstra_every: usize,
) -> Result<(Vec<DecodeSample>, LabelCounts), String> {
    let params = oracle.params().clone();
    let mut scratch = DecodeScratch::new();
    let mut dijkstra = DijkstraScratch::new();
    let mut samples = Vec::new();
    let mut counts = LabelCounts::default();
    let mut replayed = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let Op::Query { s, t, faults } = op else {
            continue;
        };
        let op_span = tracer.begin("op", i as u32, None);
        let mut labels: Vec<Arc<Label>> = Vec::with_capacity(2 + faults.len());
        for &v in [*s, *t].iter().chain(faults) {
            let first = touched.insert(v);
            let name = if first {
                "oracle.label_first"
            } else {
                "oracle.label_hit"
            };
            let span = tracer.begin(name, i as u32, Some(op_span));
            labels.push(oracle.label_with(NodeId::new(v), &mut scratch));
            tracer.end(span);
            if tracer.on {
                let us = tracer.micros(span);
                if first {
                    counts.first_us.push(us);
                } else {
                    counts.hit_us.push(us);
                }
            }
        }
        let fault_labels = QueryLabels {
            fault_vertices: labels[2..].iter().map(Arc::as_ref).collect(),
            fault_edges: Vec::new(),
        };
        let span = tracer.begin("decode.query", i as u32, Some(op_span));
        let answer =
            query_with_scratch(&params, &labels[0], &labels[1], &fault_labels, &mut scratch);
        tracer.end(span);
        let mut sample = DecodeSample {
            op: i,
            query_us: if tracer.on { tracer.micros(span) } else { 0.0 },
            dijkstra_us: None,
            candidates: labels
                .iter()
                .map(|l| {
                    let st = l.stats();
                    (st.virtual_edges + st.real_edges) as f64
                })
                .sum(),
            admitted: answer.sketch_edges as f64,
        };
        if dijkstra_every > 0 && replayed.is_multiple_of(dijkstra_every) {
            let sketch = build_sketch(&params, &labels[0], &labels[1], &fault_labels);
            let span = tracer.begin("decode.dijkstra", i as u32, Some(op_span));
            let path =
                sketch
                    .graph
                    .shortest_path_with(NodeId::new(*s), NodeId::new(*t), &mut dijkstra);
            tracer.end(span);
            let rebuilt = path.map(|(d, _)| d);
            let decoded = answer.distance.finite().map(u64::from);
            if rebuilt != decoded {
                return Err(format!(
                    "op {i}: sketch Dijkstra gives {rebuilt:?}, the decoder {decoded:?}"
                ));
            }
            sample.dijkstra_us = Some(tracer.micros(span));
        }
        replayed += 1;
        tracer.end(op_span);
        samples.push(sample);
    }
    Ok((samples, counts))
}

/// Encoded size (KB) and decode time (ms) of each label in `vertices`.
pub fn codec_costs(
    oracle: &ForbiddenSetOracle,
    vertices: &[u32],
    n: usize,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut scratch = VarintScratch::new();
    let mut kb = Vec::new();
    let mut ms = Vec::new();
    for &v in vertices {
        let (bytes, bits) = oracle
            .encoded_label(NodeId::new(v))
            .map_err(|e| format!("cannot encode label {v}: {e}"))?;
        let (label_kb, decode_ms) = decode_cost(&bytes, bits, n, &mut scratch)?;
        kb.push(label_kb);
        ms.push(decode_ms);
    }
    Ok((kb, ms))
}

/// Times one `codec::decode_with` call: (size in KB, time in ms).
pub fn decode_cost(
    bytes: &[u8],
    bits: usize,
    n: usize,
    scratch: &mut VarintScratch,
) -> Result<(f64, f64), String> {
    let start = Instant::now();
    let label = codec::decode_with(bytes, bits, n, scratch)
        .map_err(|e| format!("label decode failed: {e}"))?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(label);
    Ok((bytes.len() as f64 / 1e3, ms))
}

/// What the dynamic-oracle replay measured.
pub struct DynamicCosts {
    /// Durable update latencies (delete and restore), ms.
    pub update_ms: Vec<f64>,
    /// WAL bytes appended per update.
    pub wal_bytes_per_update: f64,
    /// One explicit rebuild, seconds.
    pub rebuild_s: f64,
}

/// Replays churn pairs through `DynamicOracle` on the store at `dir`,
/// then times one explicit rebuild.
///
/// # Errors
///
/// A message when the store cannot be opened or an update is rejected.
pub fn replay_dynamic(
    dir: &Path,
    g: &Graph,
    churn: &[u32],
    tracer: &mut Tracer,
) -> Result<DynamicCosts, String> {
    let mut oracle = DynamicOracle::open_with(dir, g, OpenMode::Lazy)
        .map_err(|e| format!("cannot open the dynamic store: {e}"))?;
    let wal_before = oracle.stats().wal_bytes_since_rotation;
    let mut update_ms = Vec::new();
    for (i, &v) in churn.iter().enumerate() {
        let v = NodeId::new(v);
        let span = tracer.begin("dynamic.delete_vertex", i as u32, None);
        oracle
            .delete_vertex(v)
            .map_err(|e| format!("replayed delete of {v} rejected: {e}"))?;
        tracer.end(span);
        update_ms.push(tracer.micros(span) / 1e3);
        let span = tracer.begin("dynamic.restore_vertex", i as u32, None);
        oracle
            .restore_vertex(v)
            .map_err(|e| format!("replayed restore of {v} rejected: {e}"))?;
        tracer.end(span);
        update_ms.push(tracer.micros(span) / 1e3);
    }
    let wal_after = oracle.stats().wal_bytes_since_rotation;
    let span = tracer.begin("dynamic.rebuild", 0, None);
    oracle.rebuild();
    tracer.end(span);
    Ok(DynamicCosts {
        wal_bytes_per_update: wal_after.saturating_sub(wal_before) as f64
            / update_ms.len().max(1) as f64,
        rebuild_s: tracer.micros(span) / 1e6,
        update_ms,
    })
}

/// Builds and saves the oracle the way `fsdl build --store` does, then
/// reopens it lazily: (oracle, build s, save s, open ms).
///
/// # Errors
///
/// A message when the store cannot be written or reopened.
pub fn build_save_open(
    g: &Graph,
    eps: f64,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<(ForbiddenSetOracle, f64, f64, f64), String> {
    let span = tracer.begin("builder.build", 0, None);
    let built = ForbiddenSetOracle::new(g, eps);
    built.prewarm();
    tracer.end(span);
    let build_s = tracer.micros(span) / 1e6;
    let span = tracer.begin("store.save", 0, None);
    built
        .save(dir)
        .map_err(|e| format!("cannot save the replay store: {e}"))?;
    tracer.end(span);
    let save_s = tracer.micros(span) / 1e6;
    drop(built);
    let span = tracer.begin("store.open", 0, None);
    let oracle = ForbiddenSetOracle::open_with(dir, g, OpenMode::Lazy)
        .map_err(|e| format!("cannot reopen the replay store: {e}"))?;
    tracer.end(span);
    Ok((oracle, build_s, save_s, tracer.micros(span) / 1e3))
}

/// Mean of `f` over samples (0 when empty).
pub fn mean_of(samples: &[DecodeSample], f: impl Fn(&DecodeSample) -> f64) -> f64 {
    mean(&samples.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}
