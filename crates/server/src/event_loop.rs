//! The connection layer under [`crate::Server`]: one readiness-driven
//! event loop and one worker pool.
//!
//! Everything between the listener and a complete request frame lives
//! here: listener bind, the poller and its wake pipe, the connection slab
//! and its tokens, accept / read / pump / flush and interest
//! reconciliation, slow-loris deadlines, the shutdown drain, the
//! completion queue, and the worker pool. Every complete frame goes to
//! the pool, whatever the engine behind it; the frame's connection stays
//! in flight and unread until the reply arrives, so a pipelining client
//! is throttled by the transport.
//!
//! ## Tokens
//!
//! Every poller token but the listener's and the wake pipe's is
//! `(generation << 32) | slot`, minted by [`next_token`]; the listener
//! and wake-pipe tokens sit at the very top. The generation keeps all 32
//! bits, so a completion for a closed connection can only alias its
//! slot's successor after 2³² reuses of that one slot.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fsdl_reactor::{Interest, Poller};

use crate::protocol::{self, ErrorCode, ErrorReply, FrameError, FrameStep, Response, StatsReply};
use crate::server::{Endpoint, ServerConfig, ShutdownHandle};

/// Shared atomic counters, snapshotted into [`StatsReply`] frames and the
/// server's final report.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) connections: AtomicU64,
    pub(crate) queries: AtomicU64,
    pub(crate) batch_queries: AtomicU64,
    pub(crate) routes: AtomicU64,
    pub(crate) updates: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) deadline_closes: AtomicU64,
    /// Label-fetch requests answered (shard) or sent to the shards
    /// (routed engine).
    pub(crate) label_fetches: AtomicU64,
    pub(crate) shard_failures: AtomicU64,
}

impl Counters {
    /// The `stats` reply for an engine serving `vertices` ids.
    pub(crate) fn stats(&self, vertices: u64, dynamic: u8, active_faults: u64) -> StatsReply {
        StatsReply {
            vertices,
            dynamic,
            active_faults,
            connections: self.connections.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            batch_queries: self.batch_queries.load(Ordering::Relaxed),
            routes: self.routes.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            deadline_closes: self.deadline_closes.load(Ordering::Relaxed),
            label_fetches: self.label_fetches.load(Ordering::Relaxed),
        }
    }
}

enum BoundListener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl BoundListener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            BoundListener::Tcp(l) => l.as_raw_fd(),
            BoundListener::Unix(l, _) => l.as_raw_fd(),
        }
    }
}

/// One connected socket, unified over transports: the loop's
/// nonblocking connections and a [`crate::Client`]'s blocking one.
pub(crate) enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(nb),
            Conn::Unix(s) => s.set_nonblocking(nb),
        }
    }

    /// Bounds every later read and write by `timeout`.
    pub(crate) fn set_timeouts(&self, timeout: Duration) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => {
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))
            }
            Conn::Unix(s) => {
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))
            }
        }
    }
}

impl AsRawFd for Conn {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Conn::Tcp(s) => s.as_raw_fd(),
            Conn::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// The poller token of the listener socket.
pub(crate) const LISTENER_TOKEN: u64 = u64::MAX;
/// The poller token of the worker-completion wake pipe.
pub(crate) const WAKE_TOKEN: u64 = u64::MAX - 1;

const SLOT_MASK: u64 = 0xFFFF_FFFF;

/// Composes the next `(generation << 32) | slot` token, advancing (and
/// wrapping) the generation counter. Skips any generation whose composed
/// token would collide with [`LISTENER_TOKEN`] or [`WAKE_TOKEN`] — a
/// wrapped generation at a very high slot index could otherwise mint a
/// token the event loop routes to the listener or the wake pipe.
/// Same-slot reuse always changes the token (the generation strictly
/// advances), and distinct slots always differ in the low 32 bits, so a
/// live connection can never be aliased.
pub(crate) fn next_token(next_generation: &mut u32, slot: usize) -> u64 {
    loop {
        *next_generation = next_generation.wrapping_add(1);
        let token = (u64::from(*next_generation) << 32) | slot as u64;
        if token != LISTENER_TOKEN && token != WAKE_TOKEN {
            return token;
        }
    }
}

/// An encoded reply for one client frame.
struct Reply {
    /// Encoded reply payload (frame header added by the write buffer).
    payload: Vec<u8>,
    /// The reply is the `shutdown` ack: flip the flag and close after the
    /// ack flushes.
    is_shutdown: bool,
}

impl Reply {
    /// Encodes `response`, counting an error reply as a protocol error.
    fn encode(response: &Response, counters: &Counters) -> Reply {
        if matches!(response, Response::Error(_)) {
            counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
        }
        let mut payload = Vec::new();
        response.encode(&mut payload);
        Reply {
            payload,
            is_shutdown: matches!(response, Response::Shutdown),
        }
    }
}

/// A bound listener plus its reactor: the poller (listener and wake pipe
/// registered) and the shutdown flag.
pub(crate) struct Bound {
    listener: BoundListener,
    poller: Poller,
    wake_rx: UnixStream,
    wake_tx: UnixStream,
    shutdown: Arc<AtomicBool>,
}

impl Bound {
    /// Binds a nonblocking listener at `endpoint` and sets up the poller
    /// and the worker wake pipe. For unix endpoints a stale socket file
    /// from a previous run is removed first; [`Bound::serve`] removes the
    /// file again when it returns.
    pub(crate) fn bind(endpoint: &Endpoint) -> std::io::Result<Bound> {
        let listener = match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                BoundListener::Tcp(l)
            }
            Endpoint::Unix(path) => {
                // A dead server leaves its socket file behind; binding over
                // it is the expected restart path. Only ever remove sockets.
                if let Ok(meta) = std::fs::symlink_metadata(path) {
                    if meta.file_type().is_socket() {
                        std::fs::remove_file(path)?;
                    }
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                BoundListener::Unix(l, path.clone())
            }
        };
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        poller.register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READABLE)?;
        Ok(Bound {
            listener,
            poller,
            wake_rx,
            wake_tx,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The endpoint actually bound (port 0 resolved).
    pub(crate) fn local_endpoint(&self) -> std::io::Result<Endpoint> {
        Ok(match &self.listener {
            BoundListener::Tcp(l) => {
                let addr: SocketAddr = l.local_addr()?;
                Endpoint::Tcp(addr.to_string())
            }
            BoundListener::Unix(_, path) => Endpoint::Unix(path.clone()),
        })
    }

    pub(crate) fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle::new(Arc::clone(&self.shutdown))
    }

    /// Runs the event loop until shutdown and drain, then joins the
    /// workers and removes a unix socket file. A pool of `workers`
    /// threads answers each complete frame with `answer`, passing every
    /// worker its own `S` for its whole lifetime.
    pub(crate) fn serve<S: Default>(
        self,
        config: &ServerConfig,
        workers: usize,
        counters: &Counters,
        answer: impl Fn(Vec<u8>, &mut S) -> Response + Sync,
    ) {
        let Bound {
            listener,
            poller,
            wake_rx,
            wake_tx,
            shutdown,
        } = self;
        let (job_tx, job_rx) = std::sync::mpsc::channel::<(u64, Vec<u8>)>();
        let job_rx = Mutex::new(job_rx);
        let completions = Mutex::new(VecDeque::new());

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (job_rx, answer, completions) = (&job_rx, &answer, &completions);
                let mut wake: &UnixStream = &wake_tx;
                scope.spawn(move || {
                    // One scratch per worker, reused across every request
                    // of every connection this worker ever serves.
                    let mut scratch = S::default();
                    loop {
                        // Holding the recv lock only while waiting keeps
                        // hand-off cheap; a closed channel means the event
                        // loop is gone and the queue is drained.
                        let job = job_rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                        let Ok((token, job)) = job else { break };
                        let reply = Reply::encode(&answer(job, &mut scratch), counters);
                        completions
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push_back((token, reply));
                        // A full pipe already guarantees a pending wakeup.
                        let _ = wake.write(&[1]);
                    }
                });
            }

            // The loop holds the only job sender and drops it when it
            // returns, so the workers drain the queue and exit before the
            // scope joins them.
            EventLoop {
                poller,
                listener: &listener,
                wake_rx: &wake_rx,
                jobs: job_tx,
                config,
                counters,
                shutdown: &shutdown,
                completions: &completions,
                slab: Vec::new(),
                free: Vec::new(),
                next_generation: 0,
                armed_deadlines: 0,
                open: 0,
                draining: false,
            }
            .run();
        });

        if let BoundListener::Unix(_, path) = &listener {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Per-connection state, owned by the event loop.
struct Connection {
    stream: Conn,
    assembler: protocol::FrameAssembler,
    write_buf: protocol::WriteBuffer,
    /// `(generation << 32) | slot`: stale completions for a recycled
    /// slot carry the old generation and are dropped.
    token: u64,
    /// A worker holds a frame and owes a reply; readability is not
    /// watched meanwhile.
    in_flight: bool,
    /// The peer sent EOF; buffered complete frames are still served.
    peer_closed: bool,
    /// Close as soon as the write buffer drains (fatal frame error,
    /// deadline expiry, shutdown ack, reply during drain).
    close_after_flush: bool,
    /// Armed while a *partial* frame sits in the assembler; expiry is a
    /// slow-loris close.
    deadline: Option<Instant>,
    /// The interest currently registered with the poller.
    registered: Interest,
}

impl Connection {
    /// The readiness this connection wants right now.
    fn desired_interest(&self, draining: bool) -> Interest {
        Interest {
            readable: !self.in_flight && !self.close_after_flush && !self.peer_closed && !draining,
            writable: !self.write_buf.is_empty(),
        }
    }
}

/// The readiness-driven core: owns the poller, the connection slab, and
/// all per-connection buffers.
struct EventLoop<'a> {
    poller: Poller,
    listener: &'a BoundListener,
    wake_rx: &'a UnixStream,
    /// Complete frames to the worker pool, each with its connection's
    /// token.
    jobs: Sender<(u64, Vec<u8>)>,
    config: &'a ServerConfig,
    counters: &'a Counters,
    shutdown: &'a AtomicBool,
    completions: &'a Mutex<VecDeque<(u64, Reply)>>,
    /// Slot-indexed connections; tokens carry a generation so events and
    /// completions for a recycled slot are recognized as stale.
    slab: Vec<Option<Connection>>,
    free: Vec<usize>,
    next_generation: u32,
    /// How many live connections have a frame deadline armed; deadline
    /// scans are skipped entirely while this is zero, so idle fleets
    /// cost nothing per tick.
    armed_deadlines: usize,
    open: usize,
    /// Shutdown was requested: the listener is gone, no new frame is
    /// dispatched, and each connection closes once it owes nothing.
    draining: bool,
}

impl EventLoop<'_> {
    fn run(mut self) {
        let mut events = Vec::new();
        let mut drain_deadline = Instant::now();
        loop {
            if !self.draining && self.shutdown.load(Ordering::SeqCst) {
                self.draining = true;
                drain_deadline = Instant::now() + self.config.frame_deadline;
                let _ = self.poller.deregister(self.listener.as_raw_fd());
                self.close_quiescent();
            }
            if self.draining {
                if self.open == 0 {
                    break;
                }
                if Instant::now() >= drain_deadline {
                    // Stragglers kept a reply unflushed or a frame in
                    // flight for a whole frame deadline; cut them loose.
                    self.close_all();
                    break;
                }
            }

            let timeout = self.wait_timeout(self.draining.then_some(drain_deadline));
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                // Poller failure is unrecoverable; drain like a listener
                // death rather than spinning.
                self.shutdown.store(true, Ordering::SeqCst);
                continue;
            }
            for ev in &events {
                match ev.token {
                    LISTENER_TOKEN if !self.draining => self.accept_ready(),
                    LISTENER_TOKEN => {}
                    WAKE_TOKEN => self.drain_wake_pipe(),
                    token => self.connection_ready(token, ev.writable),
                }
            }
            // Completions are drained every tick (not only on wake
            // events): the wake byte can race the queue push, and a
            // mutex peek is cheap.
            self.drain_completions();
            if !self.draining && self.armed_deadlines > 0 {
                self.expire_deadlines();
            }
        }
    }

    /// The poller timeout: the poll interval (shutdown-flag latency
    /// ceiling), tightened to the nearest armed frame deadline or the
    /// drain deadline.
    fn wait_timeout(&self, drain_deadline: Option<Instant>) -> Duration {
        let mut timeout = self.config.poll_interval;
        let now = Instant::now();
        if self.armed_deadlines > 0 {
            for conn in self.slab.iter().flatten() {
                if let Some(d) = conn.deadline {
                    timeout = timeout.min(d.saturating_duration_since(now));
                }
            }
        }
        if let Some(d) = drain_deadline {
            timeout = timeout.min(d.saturating_duration_since(now));
        }
        timeout
    }

    /// Accepts until the listener would block; each new connection is
    /// made nonblocking and registered for readability.
    fn accept_ready(&mut self) {
        loop {
            let accepted = match self.listener {
                BoundListener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
                BoundListener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
            };
            match accepted {
                Ok(conn) => {
                    if conn.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.counters.connections.fetch_add(1, Ordering::Relaxed);
                    self.insert_connection(conn);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Listener failure: drain and exit rather than
                    // spinning on a dead socket.
                    self.shutdown.store(true, Ordering::SeqCst);
                    break;
                }
            }
        }
    }

    fn insert_connection(&mut self, conn: Conn) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        let token = next_token(&mut self.next_generation, slot);
        let fd = conn.as_raw_fd();
        // A poller out of capacity (EMFILE-like) cannot watch the socket:
        // drop the connection; the slot goes back unused.
        if self.poller.register(fd, token, Interest::READABLE).is_err() {
            self.free.push(slot);
            return;
        }
        self.slab[slot] = Some(Connection {
            stream: conn,
            assembler: protocol::FrameAssembler::new(),
            write_buf: protocol::WriteBuffer::new(),
            token,
            in_flight: false,
            peer_closed: false,
            close_after_flush: false,
            deadline: None,
            registered: Interest::READABLE,
        });
        self.open += 1;
    }

    /// Resolves a token to its slot, ignoring stale generations.
    fn live_slot(&self, token: u64) -> Option<usize> {
        let slot = (token & SLOT_MASK) as usize;
        match self.slab.get(slot) {
            Some(Some(conn)) if conn.token == token => Some(slot),
            _ => None,
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.slab[slot].take() {
            if conn.deadline.is_some() {
                self.armed_deadlines -= 1;
            }
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.free.push(slot);
            self.open -= 1;
            // `conn` drops here, closing the socket after deregistration.
        }
    }

    /// Closes every connection with no frame in flight and nothing left
    /// to flush (the shutdown fast path).
    fn close_quiescent(&mut self) {
        for slot in 0..self.slab.len() {
            let quiescent = matches!(
                &self.slab[slot],
                Some(conn) if !conn.in_flight && conn.write_buf.is_empty()
            );
            if quiescent {
                self.close(slot);
            }
        }
    }

    fn close_all(&mut self) {
        for slot in 0..self.slab.len() {
            self.close(slot);
        }
    }

    /// Empties the self-pipe; the bytes carry no payload, the
    /// completions queue is the source of truth.
    fn drain_wake_pipe(&mut self) {
        let mut sink = [0u8; 256];
        let mut pipe = self.wake_rx; // `&UnixStream` implements `Read`
        loop {
            match pipe.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break, // WouldBlock: drained
            }
        }
    }

    /// Handles readiness on one connection: flush pending writes, read
    /// until the socket blocks, then pump buffered frames.
    fn connection_ready(&mut self, token: u64, writable: bool) {
        let Some(slot) = self.live_slot(token) else {
            return;
        };
        if writable && !self.flush(slot) {
            return;
        }
        let conn = self.slab[slot].as_mut().expect("live slot");
        if !conn.peer_closed && !conn.close_after_flush {
            loop {
                match conn.assembler.read_from(&mut conn.stream) {
                    Ok(0) => {
                        conn.peer_closed = true;
                        break;
                    }
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.close(slot);
                        return;
                    }
                }
            }
        }
        self.pump(slot);
    }

    /// Hands the next buffered frame, if one is complete, to the worker
    /// pool, then settles the connection's deadline, interest, and close
    /// state.
    fn pump(&mut self, slot: usize) {
        loop {
            let conn = self.slab[slot].as_mut().expect("live slot");
            if self.draining && !conn.in_flight && conn.write_buf.is_empty() {
                self.close(slot);
                return;
            }
            if conn.in_flight || conn.close_after_flush || self.draining {
                break;
            }
            match conn.assembler.next_frame(self.config.max_frame) {
                FrameStep::Frame(payload) => {
                    let job = (conn.token, payload.to_vec());
                    conn.in_flight = true;
                    self.disarm_deadline(slot);
                    self.jobs
                        .send(job)
                        .expect("the workers outlive the event loop");
                }
                FrameStep::Incomplete => {
                    if conn.peer_closed {
                        // Clean EOF at a boundary or a torn frame; either
                        // way there is nothing left to serve.
                        if conn.write_buf.is_empty() {
                            self.close(slot);
                        } else {
                            conn.close_after_flush = true;
                        }
                        return;
                    }
                    if conn.assembler.buffered() > 0 {
                        // A partial frame is pending and nothing owes
                        // this connection a reply: the clock is on the
                        // client. Armed once — progress does not reset
                        // it, or a drip-feed would evade the deadline.
                        if conn.deadline.is_none() {
                            conn.deadline = Some(Instant::now() + self.config.frame_deadline);
                            self.armed_deadlines += 1;
                        }
                    } else {
                        self.disarm_deadline(slot);
                    }
                    break;
                }
                FrameStep::Oversized { len, max } => {
                    // The length header itself is untrustworthy, so the
                    // stream cannot be re-synchronized: typed error, then
                    // close.
                    self.counters
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    let message = FrameError::Oversized { len, max }.to_string();
                    conn.write_buf.queue_response(&Response::Error(ErrorReply {
                        code: ErrorCode::Oversized,
                        message,
                    }));
                    conn.close_after_flush = true;
                    self.disarm_deadline(slot);
                    break;
                }
            }
        }
        if !self.flush(slot) {
            return;
        }
        self.update_interest(slot);
    }

    fn queue_reply(&mut self, slot: usize, reply: Reply) {
        let conn = self.slab[slot].as_mut().expect("live slot");
        conn.write_buf.queue_frame(&reply.payload);
        if reply.is_shutdown {
            self.shutdown.store(true, Ordering::SeqCst);
            conn.close_after_flush = true;
        }
    }

    fn disarm_deadline(&mut self, slot: usize) {
        let conn = self.slab[slot].as_mut().expect("live slot");
        if conn.deadline.take().is_some() {
            self.armed_deadlines -= 1;
        }
    }

    /// Flushes the write buffer; returns `false` when the connection was
    /// closed (fatal write error, or close-after-flush completed).
    fn flush(&mut self, slot: usize) -> bool {
        let conn = self.slab[slot].as_mut().expect("live slot");
        match conn.write_buf.flush(&mut conn.stream) {
            Ok(true) => {
                if conn.close_after_flush {
                    self.close(slot);
                    return false;
                }
                true
            }
            Ok(false) => true, // socket full; writable interest keeps it moving
            Err(_) => {
                self.close(slot);
                false
            }
        }
    }

    /// Reconciles the poller registration with the connection's state.
    fn update_interest(&mut self, slot: usize) {
        let conn = self.slab[slot].as_mut().expect("live slot");
        let desired = conn.desired_interest(self.draining);
        if desired != conn.registered {
            conn.registered = desired;
            let fd = conn.stream.as_raw_fd();
            let token = conn.token;
            if self.poller.modify(fd, token, desired).is_err() {
                self.close(slot);
            }
        }
    }

    /// Applies every queued reply to its connection.
    fn drain_completions(&mut self) {
        loop {
            let completion = self
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front();
            let Some((token, reply)) = completion else {
                break;
            };
            if reply.is_shutdown {
                self.shutdown.store(true, Ordering::SeqCst);
            }
            let Some(slot) = self.live_slot(token) else {
                continue; // the connection died while its frame was out
            };
            let conn = self.slab[slot].as_mut().expect("live slot");
            if !conn.in_flight {
                // A completion can only be owed to a connection with a
                // frame in flight; anything else is a stale token that
                // survived a slot recycle through a generation wrap.
                continue;
            }
            conn.in_flight = false;
            if self.draining {
                conn.close_after_flush = true;
            }
            self.queue_reply(slot, reply);
            // The reply is queued; pump flushes it and, outside a drain,
            // hands the pool the next buffered frame.
            self.pump(slot);
        }
    }

    /// Closes every connection whose partial-frame deadline has passed:
    /// typed reply, one flush attempt, close.
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        for slot in 0..self.slab.len() {
            let expired = matches!(
                &self.slab[slot],
                Some(conn) if conn.deadline.is_some_and(|d| d <= now)
            );
            if !expired {
                continue;
            }
            self.counters
                .deadline_closes
                .fetch_add(1, Ordering::Relaxed);
            self.disarm_deadline(slot);
            let conn = self.slab[slot].as_mut().expect("live slot");
            conn.write_buf.queue_response(&Response::Error(ErrorReply {
                code: ErrorCode::DeadlineExceeded,
                message: format!(
                    "frame not completed within {:?}; closing",
                    self.config.frame_deadline
                ),
            }));
            // One courtesy flush; a stalled sender that also stopped
            // reading does not get to park the reply here.
            let _ = conn.write_buf.flush(&mut conn.stream);
            self.close(slot);
        }
    }
}
