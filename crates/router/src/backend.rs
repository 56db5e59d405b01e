//! One routed backend: the handshaked data-connection pool, the
//! dedicated admin channel, and the health/epoch state machine.
//!
//! A backend's lifetime is a sequence of *epochs*. Each admission
//! (boot, or a probe readmitting a dead node) installs a fresh set of
//! data connections under a new epoch; each retirement (a connection
//! dying, a write failing) tears the set down and bumps the epoch
//! again. Every notification carries the epoch it observed, so a
//! stale reader thread reporting the death of an already-replaced
//! connection set cannot demote the healthy successor.
//!
//! Data connections speak the pipelined job path: requests are written
//! by whichever proxy thread holds the writer lock, responses are
//! drained by one dedicated reader thread per connection (spawned by
//! the proxy, which owns the correlation map). The admin channel is a
//! plain synchronous [`Client`], lazily connected, used for the verbs
//! that fan out rather than pipeline (`stats`, `set-bounds`, …).

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use drmap_service::client::{Client, ClientConfig};
use drmap_service::error::ServiceError;
use drmap_service::proto::{Request, Response, PROTOCOL_VERSION};
use drmap_service::sync::lock_recovered;
use drmap_service::wire;

/// Bound on establishing any backend connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Socket timeouts of the synchronous admin channel.
const ADMIN_TIMEOUT: Duration = Duration::from_secs(10);

/// The identification string the router answers hellos with.
pub(crate) fn identity() -> String {
    format!("drmap-router/{}", env!("CARGO_PKG_VERSION"))
}

/// The capabilities a backend must advertise before the router will
/// pipeline jobs at it.
const REQUIRED_CAPABILITIES: [&str; 2] = ["jobs", "pipelining"];

/// One pipelined data connection: the write half, plus the raw stream
/// handle so retirement can force the (blocked) reader side to wake.
#[derive(Debug)]
pub(crate) struct DataConn {
    stream: TcpStream,
    writer: Mutex<TcpStream>,
}

impl DataConn {
    /// Connect to `addr`, run the hello handshake, and verify the
    /// backend speaks our protocol version with the capabilities the
    /// data path relies on. Returns the connection, its read half (for
    /// the caller to hand to a reader thread), and the backend's
    /// advertised capabilities.
    ///
    /// # Errors
    ///
    /// Connection and socket errors; a protocol error when the backend
    /// refuses the hello, answers with a different version, or lacks a
    /// required capability.
    pub(crate) fn open(
        addr: &str,
    ) -> Result<(DataConn, BufReader<TcpStream>, Vec<String>), ServiceError> {
        let config = ClientConfig {
            connect_timeout: Some(CONNECT_TIMEOUT),
            ..ClientConfig::default()
        };
        let mut client = Client::connect_with(addr, config)?;
        let hello = client.hello()?;
        if hello.version != PROTOCOL_VERSION {
            return Err(ServiceError::protocol(format!(
                "backend {addr} speaks protocol version {}, router requires {PROTOCOL_VERSION}",
                hello.version
            )));
        }
        if let Some(missing) = REQUIRED_CAPABILITIES.iter().find(|c| !hello.has(c)) {
            return Err(ServiceError::protocol(format!(
                "backend {addr} does not advertise the {missing:?} capability"
            )));
        }
        let (writer, reader) = client.into_split();
        let conn = DataConn {
            stream: writer.try_clone()?,
            writer: Mutex::new(writer),
        };
        Ok((conn, reader, hello.capabilities))
    }

    /// Serialize one request onto the connection as one whole frame
    /// (the lock keeps concurrent senders' frames from interleaving).
    pub(crate) fn send(&self, request: &Request) -> Result<(), ServiceError> {
        wire::write_request(&mut *lock_recovered(&self.writer), request)
    }

    /// Close both halves, unblocking the reader thread.
    pub(crate) fn close(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// One configured backend's live state.
#[derive(Debug)]
pub(crate) struct Backend {
    /// `host:port` — also the backend's rendezvous-hash identity, so
    /// restarts keep their slice of the key space.
    pub addr: String,
    healthy: AtomicBool,
    epoch: AtomicU64,
    conns: Mutex<Vec<Arc<DataConn>>>,
    next_conn: AtomicUsize,
    admin: Mutex<Option<Client>>,
    capabilities: Mutex<Vec<String>>,
}

impl Backend {
    /// A backend that has never been connected (unhealthy until the
    /// first admission).
    pub(crate) fn new(addr: String) -> Self {
        Backend {
            addr,
            healthy: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            next_conn: AtomicUsize::new(0),
            admin: Mutex::new(None),
            capabilities: Mutex::new(Vec::new()),
        }
    }

    /// Whether the router currently routes jobs here.
    pub(crate) fn is_healthy(&self) -> bool {
        // ordering: Acquire pairs with the Release store in
        // `admit`/`retire`; the connection set itself is published by
        // the `conns` mutex, the flag is only the routing hint.
        self.healthy.load(Ordering::Acquire)
    }

    /// The current connection-set epoch (captured at dispatch so a
    /// later failure report can be recognized as stale).
    pub(crate) fn current_epoch(&self) -> u64 {
        // ordering: Acquire pairs with the epoch bump under the conns
        // lock in `admit`/`retire`; a stale read only widens the
        // stale-notification window, never corrupts state.
        self.epoch.load(Ordering::Acquire)
    }

    /// The capabilities advertised at the last admission.
    pub(crate) fn capabilities(&self) -> Vec<String> {
        lock_recovered(&self.capabilities).clone()
    }

    /// Install a fresh connection set, record `capabilities`, and mark
    /// the backend healthy. Returns the new epoch, which the caller
    /// threads through to the reader threads it spawns.
    pub(crate) fn admit(&self, conns: Vec<Arc<DataConn>>, capabilities: Vec<String>) -> u64 {
        let mut guard = lock_recovered(&self.conns);
        for conn in guard.drain(..) {
            conn.close();
        }
        *guard = conns;
        *lock_recovered(&self.capabilities) = capabilities;
        // ordering: AcqRel under the conns lock — every transition
        // holds that lock, so the bump is totally ordered with other
        // transitions; Acquire loads elsewhere see it no later than
        // the lock release.
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        // ordering: Release pairs with the Acquire in `is_healthy`;
        // the conns mutex published the connection set already.
        self.healthy.store(true, Ordering::Release);
        epoch
    }

    /// Tear the connection set down and mark the backend unhealthy —
    /// but only if `epoch` is still current. Returns whether this call
    /// performed the demotion (a `false` means some other transition
    /// already replaced the set the caller saw die).
    pub(crate) fn retire(&self, epoch: u64) -> bool {
        let mut guard = lock_recovered(&self.conns);
        // ordering: Acquire under the conns lock that every transition
        // holds; see `admit`.
        if self.epoch.load(Ordering::Acquire) != epoch {
            return false;
        }
        // ordering: Release pairs with the Acquire in `is_healthy`.
        self.healthy.store(false, Ordering::Release);
        // ordering: AcqRel under the conns lock; see `admit`.
        self.epoch.fetch_add(1, Ordering::AcqRel);
        for conn in guard.drain(..) {
            conn.close();
        }
        *lock_recovered(&self.admin) = None;
        true
    }

    /// Send one request on the next data connection (round-robin, so
    /// pipelined jobs spread over the pool).
    ///
    /// # Errors
    ///
    /// Socket errors, or a protocol error when no connection set is
    /// installed (the backend raced into retirement).
    pub(crate) fn send(&self, request: &Request) -> Result<(), ServiceError> {
        let conn = {
            let guard = lock_recovered(&self.conns);
            if guard.is_empty() {
                return Err(ServiceError::protocol(format!(
                    "backend {} has no live connection",
                    self.addr
                )));
            }
            // ordering: Relaxed — the counter only spreads load; any
            // interleaving of picks is correct.
            let i = self.next_conn.fetch_add(1, Ordering::Relaxed);
            Arc::clone(&guard[i % guard.len()])
        };
        conn.send(request)
    }

    /// Send one admin verb over the dedicated synchronous channel,
    /// connecting (and handshaking) it lazily. A failed exchange drops
    /// the channel so the next verb reconnects fresh.
    ///
    /// # Errors
    ///
    /// Connection, socket, and protocol errors from the exchange.
    pub(crate) fn admin_request(&self, request: &Request) -> Result<Response, ServiceError> {
        let mut slot = lock_recovered(&self.admin);
        if slot.is_none() {
            let config = ClientConfig {
                connect_timeout: Some(CONNECT_TIMEOUT),
                read_timeout: Some(ADMIN_TIMEOUT),
                write_timeout: Some(ADMIN_TIMEOUT),
            };
            let mut client = Client::connect_with(&self.addr, config)?;
            client.hello()?;
            *slot = Some(client);
        }
        let result = match slot.as_mut() {
            Some(client) => client.typed_request(request),
            None => Err(ServiceError::protocol("admin channel missing")),
        };
        if result.is_err() {
            *slot = None;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_make_stale_retirement_a_no_op() {
        let backend = Backend::new("127.0.0.1:0".to_owned());
        assert!(!backend.is_healthy());
        let first = backend.admit(Vec::new(), vec!["jobs".to_owned()]);
        assert!(backend.is_healthy());
        assert_eq!(backend.capabilities(), vec!["jobs".to_owned()]);

        // A probe replaces the connection set...
        assert!(backend.retire(first));
        let second = backend.admit(Vec::new(), Vec::new());
        assert!(backend.is_healthy());

        // ...so the old epoch's death notice must not demote it.
        assert!(!backend.retire(first));
        assert!(backend.is_healthy());
        assert!(backend.retire(second));
        assert!(!backend.is_healthy());
    }

    #[test]
    fn sending_without_connections_reports_a_protocol_error() {
        let backend = Backend::new("127.0.0.1:0".to_owned());
        let err = backend
            .send(&Request::Ping { id: None })
            .expect_err("no connection set installed");
        assert!(err.to_string().contains("no live connection"), "{err}");
    }
}
