//! The connection layer both tiers share. `drmap-serve`'s
//! [`JobServer`](crate::server::JobServer) and `drmap-router` each plug
//! a [`Service`] — what to do with one request line — into it, and own
//! nothing else of a connection.
//!
//! * **One accept loop** ([`Listener::serve`]): every accepted
//!   connection runs on its own detached threads until a request asks
//!   the server to stop. The stop is a flag plus one loopback poke
//!   (`wire::wake_listener`) that unblocks `accept`.
//! * **One session** per connection: a reader loop that hands each
//!   request line to [`Service::dispatch`], and one write half — the
//!   stream and a reused frame buffer behind a mutex — into which each
//!   [`Response`] is encoded as text (no tree) and written with one
//!   `write` while the socket has room. A response produced on the
//!   reader thread — a control answer, or a job whose layers are all
//!   resident at submit — is written right there, **but only as far as
//!   the socket takes it without blocking**: if the writer holds the
//!   write half, or the socket fills mid-frame, the rest goes to the
//!   session's writer thread. Everything produced on another thread — a
//!   pool worker's job completion, a router backend's reader — is
//!   queued for that writer. So **only the writer ever blocks on its
//!   client's socket**: a client that stops reading stalls neither a
//!   worker nor its own reader, which keeps reading requests up to the
//!   in-flight cap, so a client may always finish sending a window
//!   below the cap before it reads. Responses go out as their jobs
//!   complete, which is what makes pipelining out of order. A request
//!   that asks to stop ends its session: its own answer is written
//!   inline, so it may precede job responses still queued; the writer
//!   then flushes every response still owed on that connection, and
//!   only then does the accept loop stop, since the process may exit
//!   right after.
//! * **One write per burst.** While the reader's buffer already holds
//!   the client's next request line, an inline response is encoded
//!   into the frame buffer behind the ones before it and **held**, not
//!   written: a pipelined burst of resident hits costs one `send`, not
//!   one per response. The reader writes what it holds — as above, as
//!   far as the socket takes it — with the burst's last inline
//!   response, or right after the burst's last request if that one was
//!   not answered inline; before it waits at the in-flight gate; and
//!   when the session ends. So it never blocks in a read or at the gate
//!   holding frames a client may be waiting for. The writer writes any
//!   held frames it finds before anything of its own. A held response
//!   keeps its slot until its bytes reach the socket or the writer, and
//!   the reader locks the write half after a request only if it holds
//!   something.
//! * **One in-flight gate** per connection: a request takes a slot when
//!   it is accepted ([`Reply::reserve`]); the slot travels with its
//!   response and frees once that has been written. At the cap the
//!   reader blocks — back-pressure, not an error — so one client can
//!   queue neither unbounded work nor, by refusing to read, unbounded
//!   response memory.

use std::io::{BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::thread::{self, ThreadId};
use std::time::Duration;

use drmap_telemetry::lock_recovered;

use crate::error::ServiceError;
use crate::proto::Response;
use crate::wire;

/// What a tier plugs into the connection layer.
pub trait Service: Send + Sync + 'static {
    /// Answer one request line. Every response goes out through
    /// `reply`: inline with [`Reply::send`], or later — from a job's
    /// completion or a backend's reader — through a [`Ticket`] taken
    /// here with [`Reply::reserve`]. Returns `true` when the request
    /// asks the server to stop.
    fn dispatch(self: &Arc<Self>, line: &str, reply: &Reply) -> bool;

    /// Put one frame on the wire by calling `write`, on the thread that
    /// writes it: the reader for a response answered inline, the writer
    /// for a queued one. The reader's `write` never blocks on the
    /// socket; it leaves what the socket would not take to the writer.
    /// For a frame the reader holds for the rest of a burst, `write`
    /// only encodes it; the burst's last inline frame's `write` sends
    /// them all. A tier may time the write, delay it, or skip it — a
    /// skipped frame is lost, and its slot still frees.
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
    let link = Arc::new(Link {
        reader: thread::current().id(),
        #[cfg(test)]
        peer: stream.peer_addr().ok(),
        burst: AtomicBool::new(false),
        holding: AtomicBool::new(false),
        gate: Gate {
            limit: max_inflight,
            count: Mutex::new(0),
            cv: Condvar::new(),
        },
        out: Mutex::new(Out {
            stream,
            frame: String::new(),
            held: Vec::new(),
            backlog: None,
            dead: false,
        }),
        // Weak: a ticket a pool job holds must not own the service (and
        // through it the pool). Every write happens while this session
        // still holds the service, so the upgrade cannot fail.
        write_frame: {
            let service = Arc::downgrade(service);
            Box::new(move |write| {
                if let Some(service) = service.upgrade() {
                    service.write_frame(write);
                }
            })
        },
    });
    let (tx, rx) = channel::<Queued>();
    let writer = {
        let link = Arc::clone(&link);
        thread::spawn(move || {
            while let Ok((response, _slot)) = rx.recv() {
                link.write_queued(response.as_ref());
            }
        })
    };
    let reply = Reply { tx, link };
    let result = loop {
        match wire::read_message(&mut reader) {
            Ok(Some((line, _))) => {
                let burst = wire::holds_message(reader.buffer());
                // ordering: Relaxed — only this thread stores or loads it.
                reply.link.burst.store(burst, Ordering::Relaxed);
                if service.dispatch(&line, &reply) {
                    break Ok(true);
                }
                if !burst {
                    reply.flush();
                }
            }
            Ok(None) => break Ok(false),
            Err(e) => break Err(e),
        }
    };
    reply.flush();
    // Close this end of the queue: the writer exits once every
    // response still owed on the connection — queued, or held by a job
    // in flight — has been written.
    drop(reply);
    let _ = writer.join();
    result
}

/// What a connection's reader, its writer and every ticket share: the
/// in-flight gate and the write half.
struct Link {
    /// The reader's thread: a ticket sent from it writes inline.
    reader: ThreadId,
    /// The client's address, which the tests' frame tally is keyed by.
    #[cfg(test)]
    peer: Option<SocketAddr>,
    /// The reader's own notes: its buffer holds another request line
    /// (so it holds what it answers inline), and it may hold frames.
    burst: AtomicBool,
    holding: AtomicBool,
    gate: Gate,
    out: Mutex<Out>,
    write_frame: WriteFrame,
}

/// What the writer's queue carries: a response to write, or `None` for
/// the rest of a write the reader began, and the slot to free after.
type Queued = (Option<Response>, Slot);

/// The tier's [`Service::write_frame`], behind a pointer the
/// non-generic [`Link`] can hold.
type WriteFrame = Box<dyn Fn(&mut dyn FnMut()) + Send + Sync>;

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link")
            .field("reader", &self.reader)
            .field("gate", &self.gate)
            .finish_non_exhaustive()
    }
}

/// A connection's write half.
struct Out {
    stream: TcpStream,
    /// The reused frame buffer. What it holds counts only while `held`
    /// is not empty or `backlog` is set.
    frame: String,
    /// The slots of the responses the reader has encoded into `frame`
    /// but not written yet, freed by whoever writes them.
    held: Vec<Slot>,
    /// How much of `frame` the reader got onto the wire before the
    /// socket would have blocked: the writer writes the rest before
    /// anything else, and the reader writes nothing inline meanwhile.
    backlog: Option<usize>,
    /// A write failed: the client is gone, so nothing more is written
    /// (responses still drain, and their slots free, so a reader
    /// blocked at the cap runs on to its connection error and exits).
    dead: bool,
}

impl Out {
    /// The reader's write of `frame`: as much as the socket takes
    /// without blocking, with one `send` (a socket that takes part of it
    /// has no room for more). What it would not take is the writer's to
    /// finish, and the held slots go with it through `tx`; else they
    /// free now. Only the reader calls this, holding the write half, so
    /// no other thread uses the socket while it is non-blocking.
    fn write_held(&mut self, tx: &Sender<Queued>) {
        #[cfg(test)]
        tests::tally_write(&self.stream);
        let mut stream = &self.stream;
        let written = stream
            .set_nonblocking(true)
            .and_then(|()| stream.write(self.frame.as_bytes()));
        let written = match stream.set_nonblocking(false).and(written) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => Ok(0),
            written => written,
        };
        match written {
            Ok(sent) if sent < self.frame.len() => {
                #[cfg(test)]
                tests::tally_unfinished(&self.stream);
                self.backlog = Some(sent);
                for slot in self.held.drain(..) {
                    let _ = tx.send((None, slot));
                }
            }
            Ok(_) => self.held.clear(),
            Err(_) => {
                self.dead = true;
                self.held.clear();
            }
        }
    }
}

impl Link {
    /// The write half, unless another thread holds it.
    fn try_out(&self) -> Option<MutexGuard<'_, Out>> {
        match self.out.try_lock() {
            Ok(out) => Some(out),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// The writer's write: what the reader left — the rest of a frame
    /// the socket would not take, or frames it held — then `response`
    /// encoded into the reused frame buffer and written as one frame
    /// through the tier's [`Service::write_frame`], each blocking until
    /// the socket takes it.
    fn write_queued(&self, response: Option<&Response>) {
        let mut out = lock_recovered(&self.out);
        let Out {
            stream,
            frame,
            held,
            backlog,
            dead,
        } = &mut *out;
        if let Some(sent) = backlog.take().or((!held.is_empty()).then_some(0)) {
            if !*dead {
                #[cfg(test)]
                tests::tally_write(stream);
                *dead = stream.write_all(&frame.as_bytes()[sent..]).is_err();
            }
            held.clear();
        }
        let Some(response) = response else { return };
        if *dead {
            return;
        }
        #[cfg(test)]
        tests::tally(self, false);
        (self.write_frame)(&mut || {
            #[cfg(test)]
            tests::tally_write(stream);
            *dead = wire::write_encoded(stream, frame, |t| response.encode(t)).is_err();
        });
    }

    /// The reader's write of `response`: the same frame through the
    /// same [`Service::write_frame`], but only if the write half is free
    /// and owes no earlier frame — the reader never waits on the writer,
    /// which may itself be waiting on the client — else queued through
    /// `tx`. Held in a burst; else written with what is held before it.
    fn write_inline(&self, response: Response, slot: Slot, tx: &Sender<Queued>) {
        let Some(mut out) = self.try_out().filter(|out| out.backlog.is_none()) else {
            let _ = tx.send((Some(response), slot));
            return;
        };
        if out.dead {
            return;
        }
        #[cfg(test)]
        tests::tally(self, true);
        // ordering: Relaxed — only the reader stores or loads it.
        let burst = self.burst.load(Ordering::Relaxed);
        let out = &mut *out;
        if out.held.is_empty() {
            out.frame.clear();
        }
        // A frame the tier skips is lost, and its slot frees here.
        let mut slot = Some(slot);
        (self.write_frame)(&mut || {
            wire::append_line(&mut out.frame, |t| response.encode(t));
            out.held.extend(slot.take());
            if !burst {
                out.write_held(tx);
            }
        });
        // ordering: Relaxed — only the reader stores or loads it.
        self.holding.store(!out.held.is_empty(), Ordering::Relaxed);
    }
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
struct Slot(Arc<Link>);

impl Drop for Slot {
    fn drop(&mut self) {
        let gate = &self.0.gate;
        *lock_recovered(&gate.count) -= 1;
        gate.cv.notify_one();
    }
}

/// A connection's outbound half, as [`Service::dispatch`] sees it.
#[derive(Debug)]
pub struct Reply {
    tx: Sender<Queued>,
    link: Arc<Link>,
}

impl Reply {
    /// Take an in-flight slot, blocking while the connection is at its
    /// cap, as the right to send one response later. The reader writes
    /// what it holds before it waits: a held frame keeps its slot, so
    /// the wait could otherwise be on itself.
    pub fn reserve(&self) -> Ticket {
        let gate = &self.link.gate;
        let mut count = lock_recovered(&gate.count);
        while *count >= gate.limit {
            // ordering: Relaxed — only the reader stores or loads it.
            count = if self.link.holding.load(Ordering::Relaxed) {
                drop(count);
                self.flush();
                lock_recovered(&gate.count)
            } else {
                gate.cv.wait(count).unwrap_or_else(|e| e.into_inner())
            };
        }
        *count += 1;
        Ticket {
            tx: self.tx.clone(),
            slot: Slot(Arc::clone(&self.link)),
        }
    }

    /// Write a response answered inline (it takes a slot like any
    /// other).
    pub fn send(&self, response: Response) {
        self.reserve().send(response);
    }

    /// Write the frames the reader holds. A writer that holds the write
    /// half took it after they were encoded, and writes them itself.
    fn flush(&self) {
        let link = &*self.link;
        // ordering: Relaxed — only the reader stores or loads it.
        if !link.holding.swap(false, Ordering::Relaxed) {
            return;
        }
        if let Some(mut out) = link.try_out().filter(|out| !out.held.is_empty()) {
            out.write_held(&self.tx);
        }
    }
}

/// The right to send one response on a connection, holding its
/// in-flight slot until the response has been written. Dropped unsent,
/// it frees the slot.
#[derive(Debug)]
pub struct Ticket {
    tx: Sender<Queued>,
    slot: Slot,
}

impl Ticket {
    /// Send `response`: on the connection's reader thread, held for the
    /// rest of a burst or written right there as far as the socket takes
    /// it at once; queued for its writer from any other thread and for
    /// whatever the reader could not write. On a closed connection the
    /// response is dropped, and its slot with it.
    pub fn send(self, response: Response) {
        let Ticket { tx, slot } = self;
        if thread::current().id() == slot.0.reader {
            Arc::clone(&slot.0).write_inline(response, slot, &tx);
        } else {
            let _ = tx.send((Some(response), slot));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::io::{BufReader, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::{Arc, Mutex};
    use std::thread;
    use std::time::{Duration, Instant};

    use drmap_cnn::layer::Layer;
    use drmap_cnn::network::Network;

    use super::{lock_recovered, Link};
    use crate::client::{Client, ClientConfig};
    use crate::engine::ServiceState;
    use crate::pool::DsePool;
    use crate::proto::{Request, Response};
    use crate::server::JobServer;
    use crate::spec::{CacheMode, EngineSpec, JobOptions, JobSpec};
    use crate::wire;

    /// The frames each connection has written, and its writes to the
    /// socket, by its client's address. A write is each of the reader's
    /// non-blocking writes and each of the writer's blocking ones: one
    /// `send` unless the socket takes only part of it.
    static FRAMES: Mutex<BTreeMap<SocketAddr, (Frames, usize)>> = Mutex::new(BTreeMap::new());

    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    struct Frames {
        /// Begun on the reader thread.
        inline: usize,
        /// Writes of the reader's left for the writer to finish: the
        /// socket would not take them whole at once.
        unfinished: usize,
        /// Queued, and written by the writer thread.
        queued: usize,
    }

    /// Count one frame of `link`'s, before it is written: a client that
    /// has read a response sees it counted.
    pub(super) fn tally(link: &Link, inline: bool) {
        let Some(peer) = link.peer else { return };
        let mut tallies = lock_recovered(&FRAMES);
        let frames = &mut tallies.entry(peer).or_default().0;
        if inline {
            frames.inline += 1;
        } else {
            frames.queued += 1;
        }
    }

    /// Count a write of the reader's the writer must finish.
    pub(super) fn tally_unfinished(stream: &TcpStream) {
        let Ok(peer) = stream.peer_addr() else { return };
        let mut tallies = lock_recovered(&FRAMES);
        tallies.entry(peer).or_default().0.unfinished += 1;
    }

    /// Count one write to `stream`, before it is made.
    pub(super) fn tally_write(stream: &TcpStream) {
        let Ok(peer) = stream.peer_addr() else { return };
        lock_recovered(&FRAMES).entry(peer).or_default().1 += 1;
    }

    fn tally_of(client: SocketAddr) -> (Frames, usize) {
        lock_recovered(&FRAMES)
            .get(&client)
            .copied()
            .unwrap_or_default()
    }

    fn frames_of(client: SocketAddr) -> Frames {
        tally_of(client).0
    }

    fn boot(workers: usize) -> (Arc<DsePool>, SocketAddr, thread::JoinHandle<()>) {
        let pool = Arc::new(DsePool::new(ServiceState::new().unwrap(), workers));
        let server = JobServer::with_pool("127.0.0.1:0", Arc::clone(&pool)).unwrap();
        let addr = server.local_addr().unwrap();
        (pool, addr, thread::spawn(move || server.run().unwrap()))
    }

    fn job(id: u64, cache: CacheMode) -> Request {
        let options = JobOptions {
            cache,
            ..JobOptions::default()
        };
        Request::Submit(
            JobSpec::network(id, EngineSpec::default(), Network::tiny()).with_options(options),
        )
    }

    /// The write rule on one connection: resident hits and control
    /// replies are written by the reader that answered them, and what a
    /// worker completes goes through the writer's queue.
    #[test]
    fn the_reader_writes_what_it_answers_and_the_writer_what_workers_complete() {
        let (_pool, addr, handle) = boot(2);
        let mut client = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut exchange = |requests: &[Request]| {
            let before = frames_of(client.local_addr().unwrap());
            for request in requests {
                wire::write_request(&mut client, request).unwrap();
            }
            for _ in requests {
                let response = wire::read_response(&mut reader).unwrap().unwrap();
                assert!(!matches!(response, Response::Error { .. }), "{response:?}");
            }
            let after = frames_of(client.local_addr().unwrap());
            Frames {
                inline: after.inline - before.inline,
                unfinished: after.unfinished - before.unfinished,
                queued: after.queued - before.queued,
            }
        };

        // The first job computes every layer on a worker.
        let first = exchange(&[job(1, CacheMode::Default)]);
        assert_eq!(
            first,
            Frames {
                inline: 0,
                unfinished: 0,
                queued: 1
            }
        );
        // The writer may still hold the write half for a moment after
        // its frame reached the client, and a reply that finds it held
        // is queued. Ping until one is written inline: the writer has
        // let go and, with nothing queued, takes the write half no more.
        let mut pings = 0;
        while exchange(&[Request::Ping { id: None }]).inline == 0 {
            pings += 1;
            assert!(pings < 1000, "the writer never let go of the write half");
        }
        // Now every layer is resident: eight hits, a ping and a stats.
        let mut hot: Vec<Request> = (2..10).map(|id| job(id, CacheMode::Default)).collect();
        hot.extend([Request::Ping { id: None }, Request::Stats { id: None }]);
        assert_eq!(
            exchange(&hot),
            Frames {
                inline: 10,
                unfinished: 0,
                queued: 0
            }
        );
        // `cache: refresh` recomputes every layer on a worker.
        let cold: Vec<Request> = (10..16).map(|id| job(id, CacheMode::Refresh)).collect();
        assert_eq!(
            exchange(&cold),
            Frames {
                inline: 0,
                unfinished: 0,
                queued: 6
            }
        );

        wire::write_request(&mut client, &Request::Shutdown { id: None }).unwrap();
        assert!(matches!(
            wire::read_response(&mut reader).unwrap(),
            Some(Response::Shutdown { .. })
        ));
        handle.join().unwrap();
    }

    /// Resident hits the client sends in one write are answered in one
    /// write: while the next request line is already in the reader's
    /// buffer, it holds each response instead of writing it.
    #[test]
    fn a_burst_of_resident_hits_is_answered_inline_in_one_write() {
        let (_pool, addr, handle) = boot(2);
        // Warm every layer on another connection, so this one's writer
        // never holds the write half.
        let warm = JobSpec::network(0, EngineSpec::default(), Network::tiny());
        Client::connect(addr).unwrap().submit(&warm).unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut burst = Vec::new();
        for id in 1..=10 {
            wire::write_request(&mut burst, &job(id, CacheMode::Default)).unwrap();
        }
        // One read of the reader's takes it all.
        assert!(burst.len() < 8 << 10, "{} bytes", burst.len());
        client.write_all(&burst).unwrap();
        for _ in 0..10 {
            let response = wire::read_response(&mut reader).unwrap().unwrap();
            assert!(matches!(response, Response::Job { .. }), "{response:?}");
        }
        let (frames, writes) = tally_of(client.local_addr().unwrap());
        assert_eq!((frames.inline, frames.queued, writes), (10, 0, 1));

        wire::write_request(&mut client, &Request::Shutdown { id: None }).unwrap();
        assert!(matches!(
            wire::read_response(&mut reader).unwrap(),
            Some(Response::Shutdown { .. })
        ));
        handle.join().unwrap();
    }

    /// A one-layer job whose 256 KiB layer name makes a 256 KiB
    /// response: a window of 64 is 16 MiB each way, where a socket's
    /// kernel buffers hold a few MiB at most.
    fn big_job(id: u64, cache: CacheMode) -> JobSpec {
        let options = JobOptions {
            cache,
            ..JobOptions::default()
        };
        let layer = Layer::conv(&"x".repeat(1 << 18), 8, 8, 16, 8, 3, 3, 1);
        JobSpec::layer(id, EngineSpec::default(), layer).with_options(options)
    }

    /// Bounds that turn a stall into a failure instead of a hang.
    fn bounded() -> ClientConfig {
        ClientConfig {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            ..ClientConfig::default()
        }
    }

    /// Write `jobs` on a fresh connection that never reads, and wait
    /// until the server has read `frames` request lines in all.
    fn stall(addr: SocketAddr, pool: &DsePool, jobs: &[JobSpec], frames: u64) -> TcpStream {
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled
            .set_write_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for job in jobs {
            wire::write_request(&mut stalled, &Request::Submit(job.clone())).unwrap();
        }
        let frames_in = || {
            let metrics = pool.state().metrics().snapshot();
            metrics.counter("frames_text_total").unwrap_or(0)
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while frames_in() < frames {
            assert!(
                Instant::now() < deadline,
                "the server read {} of {frames} request lines",
                frames_in()
            );
            thread::sleep(Duration::from_millis(5));
        }
        stalled
    }

    /// The reader never blocks on its client's socket. A client writes
    /// a whole window of resident hits before it reads any response:
    /// the reader writes what the socket takes at once, leaves the rest
    /// of a frame to the writer and keeps reading, so the batch
    /// completes instead of both sides waiting on full buffers.
    #[test]
    fn a_window_of_large_resident_hits_completes_before_the_client_reads() {
        let (_pool, addr, handle) = boot(1);
        let mut client = Client::connect_with(addr, bounded()).unwrap();
        client.submit(&big_job(0, CacheMode::Default)).unwrap();
        let window: Vec<JobSpec> = (1..=Client::PIPELINE_WINDOW as u64)
            .map(|id| big_job(id, CacheMode::Default))
            .collect();
        let before = frames_of(client.local_addr());
        for result in client.submit_batch(&window).unwrap() {
            result.unwrap();
        }
        let after = frames_of(client.local_addr());
        // Each hit is written once, inline or queued, and the full
        // socket left some frames to the writer — the path this test
        // exists for.
        let frames = after.inline + after.queued - before.inline - before.queued;
        assert_eq!(frames, window.len());
        assert!(after.unfinished > before.unfinished, "{after:?}");

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    /// A resident hit's response is handed off at once, however full
    /// its client's socket: a client that never reads holds
    /// `jobs_inflight` at nothing, so another connection's `shutdown`
    /// is not kept waiting by the graceful drain (up to 5 s).
    #[test]
    fn a_stalled_clients_resident_hits_do_not_delay_a_shutdown() {
        const JOBS: u64 = 64;
        let (pool, addr, handle) = boot(1);
        let mut other = Client::connect_with(addr, bounded()).unwrap();
        other.submit(&big_job(0, CacheMode::Default)).unwrap();
        let hits: Vec<JobSpec> = (1..=JOBS)
            .map(|id| big_job(id, CacheMode::Default))
            .collect();
        let _stalled = stall(addr, &pool, &hits, 1 + JOBS);
        // The last hit read may still be encoding; none may stay in
        // flight on the full socket.
        let inflight = || pool.state().stages().jobs_inflight.get();
        let deadline = Instant::now() + Duration::from_secs(10);
        while inflight() > 0 {
            assert!(
                Instant::now() < deadline,
                "{} jobs stay in flight",
                inflight()
            );
            thread::sleep(Duration::from_millis(5));
        }

        let started = Instant::now();
        other.shutdown().unwrap();
        handle.join().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "the drain waited {:?}",
            started.elapsed()
        );
    }

    /// Workers never write to a client's socket. One client pipelines
    /// cold jobs whose responses overfill its socket buffers many times
    /// over and never reads; a second connection's cold job is still
    /// answered at once by the pool's only worker.
    #[test]
    fn a_client_that_never_reads_cannot_stall_the_workers() {
        const JOBS: u64 = 64;
        let (pool, addr, handle) = boot(1);
        let cold: Vec<JobSpec> = (0..JOBS)
            .map(|id| big_job(id, CacheMode::Refresh))
            .collect();
        let stalled = stall(addr, &pool, &cold, JOBS);

        let mut other = Client::connect_with(addr, bounded()).unwrap();
        let started = Instant::now();
        let result = other.submit(&big_job(JOBS, CacheMode::Refresh));
        assert!(
            result.is_ok(),
            "a stalled client stalled the pool: {result:?}"
        );
        assert!(started.elapsed() < Duration::from_secs(10));

        drop(stalled);
        other.shutdown().unwrap();
        handle.join().unwrap();
    }
}
