//! A blocking client for the fsdl wire protocol.
//!
//! One [`Client`] owns one connection and a pair of reusable buffers, so
//! a steady request stream allocates only for the decoded replies. The
//! typed helpers ([`Client::query`], [`Client::batch`], ...) send one
//! request and decode one response; a server-side typed error surfaces
//! as [`ClientError::Server`], transport failures as
//! [`ClientError::Io`]/[`ClientError::Wire`].

use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use crate::event_loop::Conn;
use crate::protocol::{
    self, BatchItem, ErrorReply, FrameError, FrameRead, LabelFetchReply, QueryReply, Request,
    Response, RouteReply, StatsReply, UpdateOp, WireError, WireFaults, MAX_LABEL_FETCH,
};
use crate::server::Endpoint;

/// Errors a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, read, write, EOF mid-stream).
    Io(std::io::Error),
    /// The server's bytes did not decode as a response.
    Wire(WireError),
    /// A frame-layer violation (oversized length header).
    Frame(String),
    /// The server answered with a typed error reply.
    Server(ErrorReply),
    /// The server answered with a different response kind than the
    /// request calls for (protocol confusion; names what arrived).
    Unexpected(&'static str),
    /// The server closed the connection at a frame boundary.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "bad response encoding: {e}"),
            ClientError::Frame(msg) => write!(f, "frame error: {msg}"),
            ClientError::Server(e) => write!(f, "server error [{}]: {}", e.code, e.message),
            ClientError::Unexpected(kind) => {
                write!(f, "unexpected response kind: {kind}")
            }
            ClientError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ClientError::Io(io),
            oversized @ FrameError::Oversized { .. } => ClientError::Frame(oversized.to_string()),
        }
    }
}

/// `TcpStream::connect`, with each resolved address tried under
/// `timeout` when one is given.
fn connect_tcp(addr: &str, timeout: Option<Duration>) -> std::io::Result<TcpStream> {
    let Some(timeout) = timeout else {
        return TcpStream::connect(addr);
    };
    let mut last = std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        format!("{addr} resolves to no address"),
    );
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// One connection to an fsdl server.
pub struct Client {
    stream: Conn,
    encode_buf: Vec<u8>,
    frame_buf: Vec<u8>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(endpoint: &Endpoint) -> Result<Client, ClientError> {
        Client::dial(endpoint, None)
    }

    /// Connects with every wait bounded by `timeout`: the TCP connect,
    /// and each read and write on the connection after it. A wait that
    /// runs out fails the call with [`ClientError::Io`].
    ///
    /// # Errors
    ///
    /// Propagates connect failures and timeouts.
    pub(crate) fn connect_bounded(
        endpoint: &Endpoint,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        let client = Client::dial(endpoint, Some(timeout))?;
        client.set_timeouts(timeout)?;
        Ok(client)
    }

    /// Opens the connection, its TCP connect bounded by `timeout` if one
    /// is given.
    fn dial(endpoint: &Endpoint, timeout: Option<Duration>) -> Result<Client, ClientError> {
        let stream = match endpoint {
            Endpoint::Tcp(addr) => Conn::Tcp(connect_tcp(addr, timeout)?),
            Endpoint::Unix(path) => Conn::Unix(UnixStream::connect(path)?),
        };
        Ok(Client {
            stream,
            encode_buf: Vec::new(),
            frame_buf: Vec::new(),
        })
    }

    /// Bounds each later read and write on the connection by `timeout`.
    pub(crate) fn set_timeouts(&self, timeout: Duration) -> std::io::Result<()> {
        self.stream.set_timeouts(timeout)
    }

    /// Connects, retrying for up to `budget` while the server is still
    /// binding (useful right after spawning a server thread/process).
    /// No TCP connect attempt outlasts what is left of the budget.
    ///
    /// # Errors
    ///
    /// Returns the final connect error once the budget is spent.
    pub fn connect_with_retry(
        endpoint: &Endpoint,
        budget: Duration,
    ) -> Result<Client, ClientError> {
        let start = std::time::Instant::now();
        loop {
            let left = budget
                .saturating_sub(start.elapsed())
                .max(Duration::from_millis(1));
            match Client::dial(endpoint, Some(left)) {
                Ok(c) => return Ok(c),
                Err(e) if start.elapsed() >= budget => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// Sends one request and decodes one response, whatever its kind.
    ///
    /// # Errors
    ///
    /// Transport and decode failures; a server-side [`Response::Error`]
    /// is returned as `Ok(Response::Error(..))` here — the typed helpers
    /// convert it to [`ClientError::Server`].
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        protocol::send_request(&mut self.stream, request, &mut self.encode_buf)?;
        self.read_response(protocol::MAX_FRAME)
    }

    /// Reads and decodes one response frame of at most `max_frame` bytes.
    fn read_response(&mut self, max_frame: u32) -> Result<Response, ClientError> {
        match protocol::read_frame(&mut self.stream, max_frame, &mut self.frame_buf)? {
            FrameRead::Eof => Err(ClientError::Closed),
            FrameRead::Frame => Ok(Response::decode(&self.frame_buf)?),
        }
    }

    fn expect<T>(
        &mut self,
        request: &Request,
        pick: impl FnOnce(Response) -> Result<T, &'static str>,
    ) -> Result<T, ClientError> {
        match self.roundtrip(request)? {
            Response::Error(e) => Err(ClientError::Server(e)),
            other => pick(other).map_err(ClientError::Unexpected),
        }
    }

    /// One forbidden-set distance query.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn query(&mut self, s: u32, t: u32, faults: WireFaults) -> Result<QueryReply, ClientError> {
        self.expect(&Request::Query { s, t, faults }, |r| match r {
            Response::Query(q) => Ok(q),
            other => Err(other.kind_name()),
        })
    }

    /// A batch of queries answered in one frame.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn batch(
        &mut self,
        queries: Vec<(u32, u32, WireFaults)>,
    ) -> Result<Vec<BatchItem>, ClientError> {
        self.expect(&Request::Batch(queries), |r| match r {
            Response::Batch(items) => Ok(items),
            other => Err(other.kind_name()),
        })
    }

    /// One routing simulation (static servers only).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn route(&mut self, s: u32, t: u32, faults: WireFaults) -> Result<RouteReply, ClientError> {
        self.expect(&Request::Route { s, t, faults }, |r| match r {
            Response::Route(reply) => Ok(reply),
            other => Err(other.kind_name()),
        })
    }

    /// One durable update (dynamic servers only); returns the active
    /// fault count after the update.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn update(&mut self, op: UpdateOp) -> Result<u32, ClientError> {
        self.expect(&Request::Update(op), |r| match r {
            Response::Update { active_faults } => Ok(active_faults),
            other => Err(other.kind_name()),
        })
    }

    /// A server stats snapshot.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        self.expect(&Request::Stats, |r| match r {
            Response::Stats(s) => Ok(s),
            other => Err(other.kind_name()),
        })
    }

    /// Raw encoded labels by global vertex id (shard servers only). An
    /// empty id list is the handshake form: the reply still carries the
    /// shard's generation and decode parameters.
    ///
    /// Requests go out at most [`MAX_LABEL_FETCH`] ids at a time, and
    /// servers answer with the longest request prefix under their byte
    /// budget (see [`protocol::LabelFetchReply`]); this helper
    /// transparently re-requests the tail and returns the fully
    /// assembled reply, erroring if the store's identity (generation or
    /// decode parameters) changes between chunks.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn label_fetch(&mut self, vertices: Vec<u32>) -> Result<LabelFetchReply, ClientError> {
        self.send_label_fetch(&vertices)?;
        self.recv_label_fetch(&vertices)
    }

    /// The send half of [`Client::label_fetch`]: sends the first request
    /// for `vertices` without waiting for the reply, so a caller can put
    /// requests to several servers in flight before it reads any.
    /// Complete it with [`Client::recv_label_fetch`] on the same ids.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub(crate) fn send_label_fetch(&mut self, vertices: &[u32]) -> Result<(), ClientError> {
        let chunk = &vertices[..vertices.len().min(MAX_LABEL_FETCH as usize)];
        let request = Request::LabelFetch {
            vertices: chunk.to_vec(),
        };
        protocol::send_request(&mut self.stream, &request, &mut self.encode_buf)?;
        Ok(())
    }

    /// The receive half of [`Client::label_fetch`]: reads the replies to
    /// a [`Client::send_label_fetch`] of `vertices`, re-requesting the
    /// unserved tail until every label has arrived.
    ///
    /// Label-plane replies legitimately exceed [`protocol::MAX_FRAME`]
    /// (labels are poly(1/eps, log n) bytes each), so they are read under
    /// the larger [`protocol::MAX_LABEL_FRAME`] cap.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub(crate) fn recv_label_fetch(
        &mut self,
        vertices: &[u32],
    ) -> Result<LabelFetchReply, ClientError> {
        let mut remaining = vertices.to_vec();
        let mut assembled: Option<LabelFetchReply> = None;
        loop {
            let sent = remaining.len().min(MAX_LABEL_FETCH as usize);
            let reply = match self.read_response(protocol::MAX_LABEL_FRAME)? {
                Response::Error(e) => return Err(ClientError::Server(e)),
                Response::LabelFetch(reply) => reply,
                other => return Err(ClientError::Unexpected(other.kind_name())),
            };
            let served = reply.labels.len();
            let is_prefix = served <= sent
                && reply
                    .labels
                    .iter()
                    .zip(&remaining)
                    .all(|(lb, &v)| lb.vertex == v);
            if !is_prefix || (served == 0 && sent > 0) {
                return Err(ClientError::Unexpected(
                    "label-fetch reply was not a prefix of the request",
                ));
            }
            match assembled.as_mut() {
                None => assembled = Some(reply),
                Some(acc) => {
                    let same_identity = reply.generation == acc.generation
                        && reply.epsilon_bits == acc.epsilon_bits
                        && reply.c == acc.c
                        && reply.vertices == acc.vertices;
                    if !same_identity {
                        return Err(ClientError::Unexpected(
                            "label plane changed identity between fetch chunks",
                        ));
                    }
                    acc.labels.extend(reply.labels);
                }
            }
            remaining.drain(..served);
            if remaining.is_empty() {
                return Ok(assembled.take().expect("assembled reply"));
            }
            self.send_label_fetch(&remaining)?;
        }
    }

    /// Asks the server to drain and exit; returns once acknowledged.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.expect(&Request::Shutdown, |r| match r {
            Response::Shutdown => Ok(()),
            other => Err(other.kind_name()),
        })
    }
}
