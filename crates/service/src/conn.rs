//! The connection layer both tiers share. `drmap-serve`'s
//! [`JobServer`](crate::server::JobServer) and `drmap-router` each plug
//! a [`Service`] — what to do with one request line — into it, and own
//! nothing else of a connection.
//!
//! * **One accept loop** ([`Listener::serve`]): every accepted
//!   connection runs on its own detached threads until a request asks
//!   the server to stop. The stop is a flag plus one loopback poke
//!   ([`wire::wake_listener`]) that unblocks `accept`.
//! * **One session** per connection: a reader loop that hands each
//!   request line to [`Service::dispatch`], and one writer thread that
//!   owns the write half, encoding each queued [`Response`] as text
//!   straight into a reused frame buffer (no tree) and writing it as
//!   one `write`. Responses reach the writer in the order they are
//!   queued — a job's completion queues from whichever thread finished
//!   it — which is what makes pipelining out of order. A request that asks to stop ends its session: the
//!   writer flushes every response still owed on that connection, and
//!   only then does the accept loop stop, since the process may exit
//!   right after.
//! * **One in-flight gate** per connection: a request takes a slot when
//!   it is accepted ([`Reply::reserve`]); the slot travels with its
//!   queued response and frees once the writer has written it. At the
//!   cap the reader blocks — back-pressure, not an error — so one
//!   client can queue neither unbounded work nor, by refusing to read,
//!   unbounded response memory.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::error::ServiceError;
use crate::proto::Response;
use crate::sync::lock_recovered;
use crate::wire;

/// What a tier plugs into the connection layer.
pub trait Service: Send + Sync + 'static {
    /// Answer one request line. Every response goes out through
    /// `reply`: inline with [`Reply::send`], or later — from a job's
    /// completion or a backend's reader — through a [`Ticket`] taken
    /// here with [`Reply::reserve`]. Returns `true` when the request
    /// asks the server to stop.
    fn dispatch(self: &Arc<Self>, line: &str, reply: &Reply) -> bool;

    /// Put one frame on the wire by calling `write`, on the
    /// connection's writer thread. A tier may time the write, delay it,
    /// or skip it — a skipped frame is lost, and its slot still frees.
    fn write_frame(&self, write: &mut dyn FnMut()) {
        write();
    }

    /// A connection was accepted (`true`) or has ended (`false`).
    fn connection(&self, _open: bool) {}
}

/// A bound listening socket and the stop flag its accept loop watches.
#[derive(Debug)]
pub struct Listener {
    listener: TcpListener,
    stop: Arc<Stop>,
}

#[derive(Debug)]
struct Stop {
    flag: AtomicBool,
    addr: SocketAddr,
}

impl Stop {
    fn is_set(&self) -> bool {
        // ordering: Acquire pairs with the Release in `trigger`; the
        // flag guards no other data, and the loopback poke that follows
        // the store already forces the accept loop's next iteration.
        self.flag.load(Ordering::Acquire)
    }

    fn trigger(&self) {
        // ordering: Release pairs with the Acquire in `is_set`; nothing
        // is published besides the flag itself.
        self.flag.store(true, Ordering::Release);
        wire::wake_listener(self.addr);
    }
}

impl Listener {
    /// Bind `addr` (port 0 picks an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: impl ToSocketAddrs) -> Result<Self, ServiceError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Listener {
            listener,
            stop: Arc::new(Stop {
                flag: AtomicBool::new(false),
                addr,
            }),
        })
    }

    /// The bound address (ephemeral ports resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.stop.addr
    }

    /// Run `tick` every `interval` on a background thread, until the
    /// accept loop stops.
    pub fn every(&self, interval: Duration, mut tick: impl FnMut() + Send + 'static) {
        let stop = Arc::clone(&self.stop);
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            if stop.is_set() {
                break;
            }
            tick();
        });
    }

    /// Accept and serve connections, at most `max_inflight` requests in
    /// flight on each, until a request asks the server to stop. An idle
    /// client that never disconnects must not stall a shutdown, so this
    /// returns as soon as the accept loop stops; open sessions finish
    /// (or die with the process) in the background.
    ///
    /// # Errors
    ///
    /// Propagates accept failures. A connection's own I/O errors end
    /// only that connection.
    pub fn serve<S: Service>(
        &self,
        service: &Arc<S>,
        max_inflight: usize,
    ) -> Result<(), ServiceError> {
        for stream in self.listener.incoming() {
            if self.stop.is_set() {
                break;
            }
            let stream = stream?;
            let service = Arc::clone(service);
            let stop = Arc::clone(&self.stop);
            service.connection(true);
            std::thread::spawn(move || {
                if let Ok(true) = session(stream, &service, max_inflight) {
                    stop.trigger();
                }
                service.connection(false);
            });
        }
        Ok(())
    }
}

/// One connection: the reader loop on this thread, the writer on its
/// own. Returns whether a request asked the server to stop, once every
/// response owed on the connection has been written.
fn session<S: Service>(
    stream: TcpStream,
    service: &Arc<S>,
    max_inflight: usize,
) -> Result<bool, ServiceError> {
    wire::configure_socket(&stream, None, None)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let (tx, rx) = channel::<(Response, Slot)>();
    let reply = Reply {
        tx,
        gate: Arc::new(Gate {
            limit: max_inflight,
            count: Mutex::new(0),
            cv: Condvar::new(),
        }),
    };
    let writer = {
        let service = Arc::clone(service);
        std::thread::spawn(move || {
            let mut out = stream;
            let mut frame = String::new();
            // A write failure means the client is gone: stop writing,
            // but keep draining the channel — each response's slot
            // drops with it — so a reader blocked in `reserve` can run
            // on to its connection error and exit.
            let mut dead = false;
            while let Ok((response, _slot)) = rx.recv() {
                if dead {
                    continue;
                }
                service.write_frame(&mut || {
                    let written = wire::write_encoded(&mut out, &mut frame, |t| response.encode(t));
                    dead = written.is_err();
                });
            }
        })
    };
    let result = loop {
        match wire::read_message(&mut reader) {
            Ok(Some((line, _))) => {
                if service.dispatch(&line, &reply) {
                    break Ok(true);
                }
            }
            Ok(None) => break Ok(false),
            Err(e) => break Err(e),
        }
    };
    // Close this end of the channel: the writer exits once every
    // response still owed on the connection — queued, or held by a job
    // in flight — has been written.
    drop(reply);
    let _ = writer.join();
    result
}

/// A connection's counting semaphore of in-flight slots.
#[derive(Debug)]
struct Gate {
    limit: usize,
    count: Mutex<usize>,
    cv: Condvar,
}

/// One held in-flight slot; dropping it frees the slot.
#[derive(Debug)]
struct Slot(Arc<Gate>);

impl Drop for Slot {
    fn drop(&mut self) {
        *lock_recovered(&self.0.count) -= 1;
        self.0.cv.notify_one();
    }
}

/// A connection's outbound half, as [`Service::dispatch`] sees it.
#[derive(Debug)]
pub struct Reply {
    tx: Sender<(Response, Slot)>,
    gate: Arc<Gate>,
}

impl Reply {
    /// Take an in-flight slot, blocking while the connection is at its
    /// cap, as the right to queue one response later.
    pub fn reserve(&self) -> Ticket {
        let gate = &self.gate;
        let mut count = lock_recovered(&gate.count);
        while *count >= gate.limit {
            count = gate.cv.wait(count).unwrap_or_else(|e| e.into_inner());
        }
        *count += 1;
        Ticket {
            tx: self.tx.clone(),
            slot: Slot(Arc::clone(gate)),
        }
    }

    /// Queue a response answered inline (it takes a slot like any
    /// other).
    pub fn send(&self, response: Response) {
        self.reserve().send(response);
    }
}

/// The right to queue one response on a connection, holding its
/// in-flight slot until the writer has written it. Dropped unsent, it
/// frees the slot.
#[derive(Debug)]
pub struct Ticket {
    tx: Sender<(Response, Slot)>,
    slot: Slot,
}

impl Ticket {
    /// Queue `response` for the connection's writer. On a closed
    /// connection the response is dropped, and its slot with it.
    pub fn send(self, response: Response) {
        let Ticket { tx, slot } = self;
        let _ = tx.send((response, slot));
    }
}
