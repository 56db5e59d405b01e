//! A blocking client for the pipelined TCP protocol.
//!
//! Three usage styles:
//!
//! * **One at a time** — [`Client::submit`], [`Client::ping`],
//!   [`Client::stats_report`]: send a request, block for its response.
//! * **Pipelined** — [`Client::submit_batch`] (or the lower-level
//!   [`Client::send`]/[`Client::recv`] pair, which move raw JSON
//!   documents): put many jobs on the wire
//!   without waiting, then collect responses **in completion order**,
//!   matching them back to jobs by `id`. The server executes the whole
//!   window concurrently on its worker pool, so a pipelined batch
//!   finishes in roughly the time of its slowest job rather than the
//!   sum of all of them.
//! * **Admin** — [`Client::hello`] opens the handshake of
//!   [`crate::proto`]'s versioned protocol; [`Client::stats_report`],
//!   [`Client::metrics`] and [`Client::shutdown`] wrap the verbs with
//!   many callers, and [`Client::typed_request`] sends any other
//!   [`Request`] (`drmap-batch --admin` drives a live server's control
//!   plane that way).
//!
//! Every message travels as one line of JSON text (see [`crate::wire`]).

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::error::ServiceError;
use crate::json::Json;
use crate::proto::{MetricsReport, Request, Response, StatsReport, PROTOCOL_VERSION};
use crate::spec::{JobResult, JobSpec};
use crate::wire;

/// Socket-level tunables of a [`Client`] connection. The defaults keep
/// the pre-timeout behavior: block indefinitely on connect, read, and
/// write — explicit timeouts turn silent stalls into the typed
/// [`ServiceError::Timeout`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection; an expired bound
    /// surfaces as [`ServiceError::Timeout`] (`None`: OS default).
    pub connect_timeout: Option<Duration>,
    /// Bound on each socket read; an expired deadline surfaces as
    /// [`ServiceError::Timeout`] (`None`: block forever).
    pub read_timeout: Option<Duration>,
    /// Bound on each socket write, likewise (`None`: block forever).
    pub write_timeout: Option<Duration>,
}

/// What a server said hello back with.
#[derive(Debug, Clone, PartialEq)]
pub struct HelloInfo {
    /// Protocol version the server speaks.
    pub version: u64,
    /// Server identification string.
    pub server: String,
    /// Capability labels (see [`crate::proto::capabilities`]).
    pub capabilities: Vec<String>,
}

impl HelloInfo {
    /// Whether the server advertised a capability.
    pub fn has(&self, capability: &str) -> bool {
        self.capabilities.iter().any(|c| c == capability)
    }
}

/// The `hello` this crate's clients open with: [`PROTOCOL_VERSION`]
/// and this crate's identity.
fn hello_request() -> Request {
    Request::Hello {
        version: PROTOCOL_VERSION,
        client: Some(crate::IDENTITY.to_owned()),
    }
}

/// A connected client. Supports both blocking request/response and
/// pipelined submission; see the module docs.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a running [`JobServer`](crate::server::JobServer)
    /// with default (blocking, no-timeout) socket settings.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServiceError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit socket timeouts. A connect, read or write
    /// that exceeds its bound fails with the typed
    /// [`ServiceError::Timeout`] instead of blocking forever on a
    /// stalled or fault-injected server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (every resolved address is
    /// tried; the last failure wins).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Self, ServiceError> {
        let mut last_err: Option<std::io::Error> = None;
        for candidate in addr.to_socket_addrs()? {
            let connected = match config.connect_timeout {
                Some(bound) => TcpStream::connect_timeout(&candidate, bound),
                None => TcpStream::connect(candidate),
            };
            match connected {
                Ok(stream) => return Self::from_stream(stream, config),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err
            .map(|e| wire::timeout_aware(e, "connect"))
            .unwrap_or_else(|| ServiceError::protocol("address resolved to nothing")))
    }

    /// This end's address, which the server's tests key their frame
    /// tally by.
    #[cfg(test)]
    pub(crate) fn local_addr(&self) -> std::net::SocketAddr {
        self.writer.local_addr().unwrap()
    }

    fn from_stream(stream: TcpStream, config: ClientConfig) -> Result<Self, ServiceError> {
        wire::configure_socket(&stream, config.read_timeout, config.write_timeout)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Split the connection into its write half and its buffered read
    /// half, for a caller that writes from some threads and reads on
    /// another (the router's backend data connections).
    pub fn into_split(self) -> (TcpStream, BufReader<TcpStream>) {
        (self.writer, self.reader)
    }

    /// Write one request to the wire without waiting for any response
    /// — the pipelining primitive.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn send(&mut self, payload: &Json) -> Result<(), ServiceError> {
        wire::write_encoded(&mut self.writer, &mut String::new(), |t| payload.encode(t))
    }

    /// Read the next response from the wire, whichever request it
    /// answers.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, unparsable responses, or a closed server.
    pub fn recv(&mut self) -> Result<Json, ServiceError> {
        match wire::read_message(&mut self.reader)? {
            Some((payload, _)) => Ok(Json::parse(&payload)?),
            None => Err(ServiceError::protocol("server closed the connection")),
        }
    }

    /// Send one request and read one response (no pipelining).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, unparsable responses, or a closed server.
    pub fn request(&mut self, payload: &Json) -> Result<Json, ServiceError> {
        self.send(payload)?;
        self.recv()
    }

    /// Submit a job (with the options it carries) and wait for its
    /// result.
    ///
    /// # Errors
    ///
    /// Surfaces server-side job failures as protocol errors.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<JobResult, ServiceError> {
        match self.typed_request(&Request::Submit(spec.clone()))? {
            Response::Job { result } => Ok(result),
            other => Err(Self::unexpected("submit", &other)),
        }
    }

    // -----------------------------------------------------------------
    // Typed protocol
    // -----------------------------------------------------------------

    /// Send one typed request and decode its typed response, surfacing
    /// server-side failures as `Err` — generic error responses as
    /// [`ServiceError::Protocol`], missed deadlines as their typed
    /// variant so callers can react without string-matching.
    /// Public so layered tiers (`drmap-router`'s admin fan-out) can
    /// send verbs this client has no dedicated wrapper for.
    pub fn typed_request(&mut self, request: &Request) -> Result<Response, ServiceError> {
        wire::write_request(&mut self.writer, request)?;
        Self::lift_failure(self.recv_response()?)
    }

    /// Read and decode the next response, whichever request it answers.
    fn recv_response(&mut self) -> Result<Response, ServiceError> {
        match wire::read_response(&mut self.reader)? {
            Some(response) => Ok(response),
            None => Err(ServiceError::protocol("server closed the connection")),
        }
    }

    /// Turn the two failure responses into their `Err` forms.
    fn lift_failure(response: Response) -> Result<Response, ServiceError> {
        match response {
            Response::Error { message, .. } => Err(ServiceError::protocol(message)),
            Response::DeadlineExceeded { deadline_ms, .. } => {
                Err(ServiceError::DeadlineExceeded { deadline_ms })
            }
            response => Ok(response),
        }
    }

    fn unexpected(verb: &str, response: &Response) -> ServiceError {
        ServiceError::protocol(format!("{verb} got an unexpected response: {response:?}"))
    }

    /// Open the versioned-protocol handshake: advertise
    /// [`PROTOCOL_VERSION`] and this crate's identity, and return the
    /// server's version and capability list.
    ///
    /// # Errors
    ///
    /// Fails if the server rejects the version (the connection remains
    /// usable) or answers malformed.
    pub fn hello(&mut self) -> Result<HelloInfo, ServiceError> {
        match self.typed_request(&hello_request())? {
            Response::Hello {
                version,
                server,
                capabilities,
            } => Ok(HelloInfo {
                version,
                server,
                capabilities,
            }),
            other => Err(Self::unexpected("hello", &other)),
        }
    }

    /// Fetch the stats report: every counter plus the **active
    /// configuration** (live cache bounds).
    ///
    /// # Errors
    ///
    /// Fails on malformed responses.
    pub fn stats_report(&mut self) -> Result<StatsReport, ServiceError> {
        match self.typed_request(&Request::Stats { id: None })? {
            Response::Stats { report, .. } => Ok(report),
            other => Err(Self::unexpected("stats", &other)),
        }
    }

    /// Fetch the server's telemetry: every counter, gauge, and latency
    /// histogram, plus the slow-request log. Render the snapshot as
    /// Prometheus-style text with
    /// [`drmap_telemetry::MetricsSnapshot::to_prometheus`].
    ///
    /// # Errors
    ///
    /// Fails on malformed responses.
    pub fn metrics(&mut self) -> Result<MetricsReport, ServiceError> {
        match self.typed_request(&Request::Metrics { id: None })? {
            Response::Metrics { report, .. } => Ok(report),
            other => Err(Self::unexpected("metrics", &other)),
        }
    }

    /// How many jobs this client keeps on the wire at once in
    /// [`Client::submit_batch`]. Deliberately below the server's
    /// per-connection in-flight cap (128): the server releases a slot
    /// only once a response is *written*, so a client that sent more
    /// than the cap without reading could fill both sockets' buffers
    /// and deadlock — sender blocked on a full socket, server blocked
    /// waiting for the client to read. Below the cap the server keeps
    /// reading whatever the responses' size: its reader writes only
    /// what the socket takes at once and leaves the rest to the
    /// connection's writer thread.
    pub(crate) const PIPELINE_WINDOW: usize = 64;

    /// Submit jobs without waiting for responses — up to
    /// `Client::PIPELINE_WINDOW` on the wire at a time — collecting
    /// responses as they complete (possibly out of submission order)
    /// and returning them matched back into `specs` order. Per-job
    /// failures occupy their job's slot without aborting the rest of
    /// the batch.
    ///
    /// A full window is in flight at once, so a batch takes roughly as
    /// long as its slowest window rather than the sum of its jobs.
    ///
    /// # Errors
    ///
    /// Fails wholesale on I/O errors, duplicate job ids (the
    /// correlation key must be unique within a pipelined batch), or
    /// responses that match no submitted id.
    pub fn submit_batch(
        &mut self,
        specs: &[JobSpec],
    ) -> Result<Vec<Result<JobResult, ServiceError>>, ServiceError> {
        let mut slot_of: HashMap<u64, usize> = HashMap::with_capacity(specs.len());
        for (slot, spec) in specs.iter().enumerate() {
            if slot_of.insert(spec.id, slot).is_some() {
                return Err(ServiceError::protocol(format!(
                    "duplicate job id {} in pipelined batch",
                    spec.id
                )));
            }
        }
        let mut results: Vec<Option<Result<JobResult, ServiceError>>> =
            (0..specs.len()).map(|_| None).collect();
        let mut sent = 0;
        let mut received = 0;
        while received < specs.len() {
            while sent < specs.len() && sent - received < Self::PIPELINE_WINDOW {
                let request = Request::Submit(specs[sent].clone());
                wire::write_request(&mut self.writer, &request)?;
                sent += 1;
            }
            let response = self.recv_response()?;
            let id = response
                .id()
                .ok_or_else(|| ServiceError::protocol("pipelined response carries no job id"))?;
            let slot = *slot_of
                .get(&id)
                .ok_or_else(|| ServiceError::protocol(format!("unexpected response id {id}")))?;
            if results[slot].is_some() {
                return Err(ServiceError::protocol(format!(
                    "duplicate response for job id {id}"
                )));
            }
            results[slot] = Some(Self::lift_failure(response).and_then(
                |response| match response {
                    Response::Job { result } => Ok(result),
                    other => Err(Self::unexpected("submit", &other)),
                },
            ));
            received += 1;
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every slot filled exactly once"))
            .collect())
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// Fails if the server is unreachable or answers incorrectly.
    pub fn ping(&mut self) -> Result<(), ServiceError> {
        match self.typed_request(&Request::Ping { id: None })? {
            Response::Pong { .. } => Ok(()),
            other => Err(Self::unexpected("ping", &other)),
        }
    }

    /// Ask the server to stop accepting connections.
    ///
    /// # Errors
    ///
    /// Fails if the server rejects the command.
    pub fn shutdown(&mut self) -> Result<(), ServiceError> {
        match self.typed_request(&Request::Shutdown { id: None })? {
            Response::Shutdown { .. } => Ok(()),
            other => Err(Self::unexpected("shutdown", &other)),
        }
    }
}
