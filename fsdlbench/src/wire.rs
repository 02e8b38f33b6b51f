//! The load generator's connections: pipelined frames over one unix
//! socket, driven either on a fixed schedule (open loop) or one request
//! at a time (closed loop).
//!
//! `Client` is blocking request/reply, so the generator writes frames
//! with [`protocol::send_request`] and reassembles replies with a
//! [`FrameAssembler`] under a read timeout that ends at the next due
//! time. Replies come back in request order on each connection.

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use fsdl_server::protocol::{self, FrameAssembler, FrameStep, Request, Response};
use fsdl_server::{UpdateOp, WireFaults};

use crate::gen::{Op, Stream};

/// How long a request may wait for its reply before it counts as failed.
const REPLY_TIMEOUT_S: f64 = 30.0;

/// What a record measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A distance query.
    Query,
    /// The delete half of a churn operation.
    Delete,
    /// The restore half, sent once the delete was acknowledged.
    Restore,
}

/// The result of one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A query answer (`None` = infinite distance).
    Dist(Option<u32>),
    /// An update acknowledgement.
    Ack,
    /// A transport error, typed error reply or timeout.
    Failed(String),
}

/// One request as the generator saw it. Times are seconds since the
/// run's epoch; `received` is infinite when no reply arrived.
#[derive(Clone, Debug)]
pub struct Record {
    /// Connection index.
    pub conn: u32,
    /// Kind of request.
    pub kind: Kind,
    /// The operation this request belongs to.
    pub op: Op,
    /// When the request was due.
    pub due: f64,
    /// When it was written.
    pub sent: f64,
    /// When its reply was read.
    pub received: f64,
    /// What came back.
    pub outcome: Outcome,
}

impl Record {
    /// Latency from the due time (infinite for a failed request, which
    /// misses every latency limit).
    pub fn latency(&self) -> f64 {
        match self.outcome {
            Outcome::Failed(_) => f64::INFINITY,
            _ => self.received - self.due,
        }
    }

    /// Whether the request failed.
    pub fn failed(&self) -> bool {
        matches!(self.outcome, Outcome::Failed(_))
    }
}

/// Where a connection's requests come from.
pub enum Source {
    /// Open loop: each op sent at its due time, without waiting.
    Schedule(Vec<(f64, Op)>),
    /// Closed loop over a fixed list: one request outstanding at a time.
    List(Vec<Op>),
    /// Closed loop over a stream until `end`.
    Stream(Stream, f64),
}

fn secs(epoch: Instant) -> f64 {
    epoch.elapsed().as_secs_f64()
}

/// Drives one connection to `socket` until its source is exhausted and
/// every reply has arrived (or timed out). Returns every request made.
///
/// # Errors
///
/// Only a failed connect is an error; failures after that are recorded
/// per request.
pub fn drive(
    socket: &Path,
    epoch: Instant,
    conn: u32,
    mut source: Source,
) -> std::io::Result<Vec<Record>> {
    let mut stream = UnixStream::connect(socket)?;
    let mut asm = FrameAssembler::new();
    let mut encode = Vec::new();
    let mut records = Vec::new();
    let mut outstanding: VecDeque<Record> = VecDeque::new();
    let mut next = 0usize;
    let mut list = VecDeque::new();
    if let Source::List(ops) = &mut source {
        list.extend(ops.drain(..));
    }
    let mut last_progress = secs(epoch);
    let mut broken: Option<String> = None;

    let mut send = |stream: &mut UnixStream,
                    rec: Record,
                    outstanding: &mut VecDeque<Record>|
     -> Option<String> {
        let req = match (&rec.kind, &rec.op) {
            (Kind::Query, Op::Query { s, t, faults }) => Request::Query {
                s: *s,
                t: *t,
                faults: WireFaults {
                    vertices: faults.clone(),
                    edges: Vec::new(),
                },
            },
            (Kind::Delete, Op::Churn { v }) => Request::Update(UpdateOp::DeleteVertex(*v)),
            (Kind::Restore, Op::Churn { v }) => Request::Update(UpdateOp::RestoreVertex(*v)),
            _ => unreachable!("record kind matches its op"),
        };
        let result = protocol::send_request(stream, &req, &mut encode);
        outstanding.push_back(rec);
        result.err().map(|e| format!("send failed: {e}"))
    };
    let first_request = |op: Op, due: f64, sent: f64| Record {
        conn,
        kind: match op {
            Op::Query { .. } => Kind::Query,
            Op::Churn { .. } => Kind::Delete,
        },
        op,
        due,
        sent,
        received: f64::INFINITY,
        outcome: Outcome::Failed("no reply".into()),
    };

    while broken.is_none() {
        let now = secs(epoch);
        // Sending side.
        let to_send = match &mut source {
            Source::Schedule(plan) => {
                plan.get(next)
                    .filter(|(due, _)| *due <= now)
                    .map(|(due, op)| {
                        next += 1;
                        (op.clone(), *due)
                    })
            }
            Source::List(_) => (outstanding.is_empty())
                .then(|| list.pop_front())
                .flatten()
                .map(|op| (op, now)),
            Source::Stream(s, end) => {
                (outstanding.is_empty() && now < *end).then(|| (s.next_op(), now))
            }
        };
        if let Some((op, due)) = to_send {
            let sent = secs(epoch);
            broken = send(&mut stream, first_request(op, due, sent), &mut outstanding);
            continue;
        }
        let exhausted = match &source {
            Source::Schedule(plan) => next == plan.len(),
            Source::List(_) => list.is_empty(),
            Source::Stream(_, end) => now >= *end,
        };
        if exhausted && outstanding.is_empty() {
            break;
        }
        if !outstanding.is_empty() && now - last_progress > REPLY_TIMEOUT_S {
            broken = Some("reply timeout".into());
            break;
        }
        // Receiving side: wait until the next due time at most.
        let wait = match &source {
            Source::Schedule(plan) => plan.get(next).map_or(0.05, |(due, _)| due - now),
            _ => 0.05,
        };
        if outstanding.is_empty() {
            last_progress = now;
            std::thread::sleep(Duration::from_secs_f64(wait.clamp(0.0, 0.05)));
            continue;
        }
        let timeout = Duration::from_secs_f64(wait.clamp(20e-6, 0.05));
        if let Err(e) = stream.set_read_timeout(Some(timeout)) {
            broken = Some(format!("cannot set a read timeout: {e}"));
            break;
        }
        match asm.read_from(&mut stream) {
            Ok(0) => broken = Some("server closed the connection".into()),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => broken = Some(format!("read failed: {e}")),
        }
        loop {
            let payload = match asm.next_frame(protocol::MAX_FRAME) {
                FrameStep::Frame(p) => p,
                FrameStep::Incomplete => break,
                FrameStep::Oversized { len, .. } => {
                    broken = Some(format!("oversized reply frame ({len} bytes)"));
                    break;
                }
            };
            let received = secs(epoch);
            last_progress = received;
            let Some(mut rec) = outstanding.pop_front() else {
                broken = Some("reply without a request".into());
                break;
            };
            rec.received = received;
            rec.outcome = match (Response::decode(payload), rec.kind) {
                (Ok(Response::Query(q)), Kind::Query) => {
                    Outcome::Dist((q.distance != u32::MAX).then_some(q.distance))
                }
                (Ok(Response::Update { .. }), Kind::Delete | Kind::Restore) => Outcome::Ack,
                (Ok(Response::Error(e)), _) => {
                    Outcome::Failed(format!("{}: {}", e.code, e.message))
                }
                (Ok(other), _) => {
                    Outcome::Failed(format!("unexpected {} reply", other.kind_name()))
                }
                (Err(e), _) => Outcome::Failed(format!("undecodable reply: {e}")),
            };
            let restore =
                (rec.kind == Kind::Delete && rec.outcome == Outcome::Ack).then(|| Record {
                    kind: Kind::Restore,
                    due: received,
                    sent: received,
                    received: f64::INFINITY,
                    outcome: Outcome::Failed("no reply".into()),
                    ..rec.clone()
                });
            records.push(rec);
            if let Some(r) = restore {
                if let Some(e) = send(&mut stream, r, &mut outstanding) {
                    broken = Some(e);
                    break;
                }
            }
        }
    }
    // Whatever is still outstanding (or was never sent) failed.
    let reason = broken.unwrap_or_else(|| "no reply".into());
    for mut rec in outstanding {
        rec.outcome = Outcome::Failed(reason.clone());
        records.push(rec);
    }
    if let Source::Schedule(plan) = source {
        for (due, op) in plan.into_iter().skip(next) {
            let mut rec = first_request(op, due, f64::INFINITY);
            rec.outcome = Outcome::Failed(reason.clone());
            records.push(rec);
        }
    }
    records.sort_by(|a, b| a.sent.total_cmp(&b.sent));
    Ok(records)
}
