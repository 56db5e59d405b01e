//! A model of the connection layer's in-flight gate and write rule
//! (`drmap_service::conn`).
//!
//! A connection's reader takes a slot on the gate for every request,
//! blocking on a condvar at the cap. A control answer, or a job whose
//! layers are all resident, is answered inline on the reader. While the
//! client's next line is already buffered, the reader **holds** the
//! answer: its frame waits in the write half, keeping its slot.
//! Otherwise it writes the held frames and its own — but only if the
//! write half is free (`try_lock`), owes no unfinished frame, and only as
//! far as the socket takes them without blocking: when the client-bound
//! buffers are full, the frame that does not fit and every one after it
//! are left **unfinished**, and a flush marker per frame carries its slot
//! to the **writer**. A reader that finds the write half busy queues the
//! response instead. The reader also writes what it holds after a cold
//! job that ends a burst, before it waits at the gate, and when its
//! session ends; if the writer holds the write half then, the writer
//! writes the held frames itself. A cold job is handed to a pool
//! **worker**, whose completion queues the response on the channel the
//! writer drains. The writer holds the write half while it finishes any
//! unfinished frames, then writes any held ones and frees their slots,
//! then writes its own frame, each a blocking write that waits for room
//! in the buffers; then it frees the item's slot, which always notifies
//! the gate's condvar. A `shutdown` request is answered inline and ends
//! the session: the reader drops its sender, joins the writer — which
//! exits once every sender (the reader's and each ticket a job still
//! holds) is gone and the queue is empty — and only then does the
//! **accept loop** stop, after which the process may exit.
//!
//! The client-bound buffers hold one frame in the `window` variants,
//! where a fifth thread is a **client** that sends its lines in bursts:
//! whenever the reader waits to read, the client may hand it one more
//! line, so the reader may find several buffered (a request buffer that
//! otherwise holds nothing; more room only lets the client get further).
//! It reads only once it has sent a round — its whole script, a
//! pipelined window below the in-flight cap, or in the `burst` variant
//! three resident hits past a cap of two, whose answers it reads before
//! it sends its stop. Elsewhere the buffers never fill and every line is
//! buffered from the start. In the `client_dies` variant the fifth thread
//! kills the connection at any point instead: writes then drop their
//! frames, and the reader's next read fails.
//!
//! Invariants proved over every interleaving: every reserved response
//! is written exactly once, or dropped only on a dead connection; no
//! frame starts while another is unfinished; the gate count returns to
//! 0; the reader never sleeps below the cap with no wake pending;
//! nothing deadlocks; and when the accept loop stops, no response is
//! still owed. Five negative controls must fail: a reader whose inline
//! write waits for the write half and for room on the wire (a window
//! client then deadlocks it), a reader that writes inline past an
//! unfinished frame, a session that drops the queue before the writer
//! drains it, a reader that blocks in a read holding frames (the burst
//! client, waiting for them, deadlocks it), and a reader that waits at
//! the gate holding frames (a burst past the cap then waits on its own
//! slots).

use super::Model;

const MAX_REQUESTS: usize = 6;

/// Frames the client-bound buffers hold in the `window` variants.
const WIRE_CAP: u8 = 1;

/// A queue item that carries the slot of request `id`'s frame, which a
/// write of the reader's handed to the writer, rather than a response
/// of its own.
const FLUSH: u8 = 0x80;

/// One request line, as the reader dispatches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// A cold job: its completion runs on a worker and is queued.
    Cold,
    /// A resident hit or a control verb: answered and written inline.
    Inline,
    /// `shutdown`: answered inline, then the session ends.
    Stop,
}

/// Thread ids.
const READER: usize = 0;
const WORKER: usize = 1;
const WRITER: usize = 2;
const ACCEPT: usize = 3;
const CLIENT: usize = 4;

/// Per-thread program counter values.
mod pc {
    // Reader.
    pub const RESERVE: u8 = 0;
    pub const WAIT: u8 = 1;
    pub const DISPATCH: u8 = 2;
    pub const WRITE: u8 = 3;
    pub const FLUSH: u8 = 4;
    pub const END: u8 = 5;
    pub const JOIN: u8 = 6;
    // Writer (`WRITE` shared with the reader).
    pub const RECV: u8 = 7;
    pub const RELEASE: u8 = 8;
    // Worker, accept loop and client.
    pub const RUN: u8 = 9;
    pub const READ: u8 = 10;
    pub const DONE: u8 = 11;
}

/// The configurable connection model.
#[derive(Debug, Clone, Copy)]
pub struct ConnModel {
    /// The client's request lines, in arrival order (≤ 6).
    pub script: &'static [Req],
    /// The per-connection in-flight cap.
    pub limit: u8,
    /// A client thread may kill the connection at any point.
    pub client_dies: bool,
    /// A client thread sends the script in bursts, each line to a
    /// reader waiting to read, and reads once it has sent a round; the
    /// client-bound buffers hold one frame.
    pub window: bool,
    /// Lines in the window client's first round, whose every response
    /// it reads before it sends the rest; 0 sends the whole script.
    pub round: u8,
    /// Negative control: the reader's inline write waits for the write
    /// half and for room on the wire, like the writer's.
    pub blocking_inline: bool,
    /// Negative control: the reader writes inline even while a frame
    /// is unfinished.
    pub skip_unfinished: bool,
    /// Negative control: the session drops the queue, and with it every
    /// response not yet drained, instead of letting the writer flush.
    pub drop_queue: bool,
    /// Negative control: the reader holds every inline frame, even with
    /// no line buffered, and writes what it holds only before it waits
    /// at the gate and when its session ends — so it blocks in reads
    /// holding frames.
    pub hold_through_read: bool,
    /// Negative control: the reader waits at the gate holding frames.
    pub hold_at_gate: bool,
}

impl Default for ConnModel {
    fn default() -> Self {
        ConnModel {
            script: &[Req::Cold, Req::Cold, Req::Inline, Req::Stop],
            limit: 2,
            client_dies: false,
            window: false,
            round: 0,
            blocking_inline: false,
            skip_unfinished: false,
            drop_queue: false,
            hold_through_read: false,
            hold_at_gate: false,
        }
    }
}

impl ConnModel {
    /// The client may disconnect at any point.
    pub fn client_dies() -> Self {
        ConnModel {
            script: &[Req::Cold, Req::Inline, Req::Stop],
            client_dies: true,
            ..Self::default()
        }
    }

    /// A client that pipelines its whole script before it reads.
    pub fn window() -> Self {
        ConnModel {
            script: &[Req::Inline, Req::Inline, Req::Stop],
            limit: 3,
            window: true,
            ..Self::default()
        }
    }

    /// A client that sends two resident hits past a cap of one, and
    /// reads their answers before it sends its stop.
    pub fn burst() -> Self {
        ConnModel {
            script: &[Req::Inline, Req::Inline, Req::Stop],
            limit: 1,
            window: true,
            round: 2,
            ..Self::default()
        }
    }

    /// The inline write that blocks on the client (negative control).
    pub fn blocking_inline() -> Self {
        ConnModel {
            blocking_inline: true,
            ..Self::window()
        }
    }

    /// The inline write past an unfinished frame (negative control).
    pub fn skip_unfinished() -> Self {
        ConnModel {
            skip_unfinished: true,
            ..Self::window()
        }
    }

    /// The session that drops undrained responses (negative control).
    pub fn dropped_queue() -> Self {
        ConnModel {
            drop_queue: true,
            ..Self::default()
        }
    }

    /// The reader that blocks in a read holding frames (negative
    /// control).
    pub fn hold_through_read() -> Self {
        ConnModel {
            hold_through_read: true,
            ..Self::burst()
        }
    }

    /// The reader that waits at the gate holding frames (negative
    /// control).
    pub fn hold_at_gate() -> Self {
        ConnModel {
            hold_at_gate: true,
            ..Self::burst()
        }
    }
}

/// A small FIFO of queue items.
#[derive(Debug, Clone, Copy, Default)]
struct Fifo {
    items: [u8; MAX_REQUESTS],
    head: u8,
    len: u8,
}

impl Fifo {
    fn push(&mut self, item: u8) {
        self.items[usize::from((self.head + self.len) % MAX_REQUESTS as u8)] = item;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<u8> {
        (self.len > 0).then(|| {
            let item = self.items[usize::from(self.head)];
            self.head = (self.head + 1) % MAX_REQUESTS as u8;
            self.len -= 1;
            item
        })
    }
}

/// The lowest response id in the set `frames`, taken out of it.
fn take_first(frames: &mut u8) -> u8 {
    let id = frames.trailing_zeros() as u8;
    *frames &= *frames - 1;
    id
}

/// The gate, the queues, the write half, the wire and each response's
/// fate.
#[derive(Debug, Clone, Copy)]
pub struct ConnState {
    /// Slots held.
    count: u8,
    /// The reader sleeps on the gate's condvar.
    waiting: bool,
    /// A `notify_one` is pending for the sleeping reader.
    notified: bool,
    /// Cold jobs handed to the worker.
    pool: Fifo,
    /// Items queued for the writer: a response id, or `FLUSH | id`.
    queue: Fifo,
    /// Live senders: the reader's, plus one per ticket a job holds.
    senders: u8,
    /// The queue was dropped (negative control only).
    closed: bool,
    /// The client is gone: writes fail, reads fail.
    dead: bool,
    /// Request lines the client has sent.
    sent: u8,
    /// Frames the client has read.
    received: u8,
    /// Whole frames in the client-bound buffers, not yet read.
    wire: u8,
    /// The writer holds the write half.
    locked: bool,
    /// The responses (a set of ids) whose frames wait in the write
    /// half, each keeping its slot, for the end of the reader's burst.
    held: u8,
    /// The reader's own note that it may hold frames.
    holding: bool,
    /// Held frames the writer has written, whose slots it frees once
    /// it has written them all.
    freeing: u8,
    /// The responses whose frames a write of the reader's left
    /// unfinished: the writer owes them, and their slots ride its queue.
    owed: u8,
    /// A frame started while another was unfinished.
    interleaved: bool,
    /// The reader's current request, and whether it has read it yet.
    at: u8,
    have_line: bool,
    /// The session ended on a stop request.
    stop: bool,
    /// The reader has joined the writer (the session is over).
    ended: bool,
    /// Responses still owed when the accept loop stopped.
    owed_at_stop: u8,
    reserved: [bool; MAX_REQUESTS],
    written: [u8; MAX_REQUESTS],
    /// Dropped on a dead connection.
    dropped: [u8; MAX_REQUESTS],
    /// Dropped on a live connection.
    lost: [u8; MAX_REQUESTS],
    pcs: [u8; 5],
    /// The queue item the writer is writing.
    writing: u8,
}

impl ConnModel {
    /// May a blocking write go ahead: room on the wire, or a dead
    /// client that fails it at once.
    fn room(&self, s: &ConnState) -> bool {
        s.dead || !self.window || s.wire < WIRE_CAP
    }

    /// Finish response `id`'s frame: written, or dropped once the
    /// client is gone.
    fn write_out(s: &mut ConnState, id: u8) {
        if s.dead {
            s.dropped[usize::from(id)] += 1;
        } else {
            s.written[usize::from(id)] += 1;
            s.wire += 1;
        }
    }

    /// Free one slot; the release always notifies the condvar.
    fn release(s: &mut ConnState) {
        s.count -= 1;
        if s.waiting {
            s.notified = true;
        }
    }

    /// A response that can no longer be written: dropped, on a live
    /// connection or a dead one.
    fn discard(s: &mut ConnState, id: u8) {
        if s.dead {
            s.dropped[usize::from(id)] += 1;
        } else {
            s.lost[usize::from(id)] += 1;
        }
    }

    /// Whether the client's next line is already buffered behind the
    /// reader's current one.
    fn next_buffered(s: &ConnState) -> bool {
        s.sent > s.at + 1
    }

    /// The reader is done with its current request.
    fn next_request(&self, s: &mut ConnState) {
        if self.request(s) == Req::Stop {
            s.stop = true;
            s.pcs[READER] = pc::END;
        } else {
            s.at += 1;
            s.have_line = false;
            s.pcs[READER] = pc::RESERVE;
        }
    }

    /// The reader's non-blocking write of `frames`, in id order: each
    /// whole frame the buffers have room for. The first that does not
    /// fit, and every one after it, is left unfinished, and every
    /// frame's slot goes to the writer with a flush marker; if all fit,
    /// their slots free at once.
    fn write_nonblocking(&self, s: &mut ConnState, frames: u8) {
        let mut rest = frames;
        while rest != 0 && self.room(s) {
            Self::write_out(s, take_first(&mut rest));
        }
        if rest == 0 {
            for _ in 0..frames.count_ones() {
                Self::release(s);
            }
        } else {
            s.owed = rest;
            let mut slots = frames;
            while slots != 0 {
                s.queue.push(FLUSH | take_first(&mut slots));
            }
        }
    }

    /// The reader writes what it holds. A writer that holds the write
    /// half took it after those frames were held, and writes them
    /// itself.
    fn flush(&self, s: &mut ConnState) {
        s.holding = false;
        if s.locked || s.held == 0 {
            return;
        }
        let frames = std::mem::take(&mut s.held);
        self.write_nonblocking(s, frames);
    }

    /// The reader's inline write of its current response.
    fn write_inline(&self, s: &mut ConnState) {
        let id = s.at;
        if self.blocking_inline {
            // Waited (in `enabled`) for the write half and for room.
            Self::write_out(s, id);
            Self::release(s);
            self.next_request(s);
            return;
        }
        if s.locked || (s.owed != 0 && !self.skip_unfinished) {
            // The write half is busy: the response and its slot queue.
            s.queue.push(id);
            self.next_request(s);
            return;
        }
        if s.owed != 0 {
            s.interleaved = true;
        }
        if Self::next_buffered(s) || self.hold_through_read {
            s.held |= 1 << id;
            s.holding = true;
        } else {
            let frames = std::mem::take(&mut s.held) | 1 << id;
            s.holding = false;
            self.write_nonblocking(s, frames);
        }
        self.next_request(s);
    }

    fn request(&self, s: &ConnState) -> Req {
        self.script[usize::from(s.at)]
    }

    /// Whether the writer has a frame to write: an unfinished or held
    /// one, or its item's own.
    fn writer_has_frame(s: &ConnState) -> bool {
        s.owed != 0 || s.held != 0 || s.writing & FLUSH == 0
    }
}

impl Model for ConnModel {
    type State = ConnState;

    fn name(&self) -> &'static str {
        if self.blocking_inline {
            "conn-gate/blocking-inline (negative control)"
        } else if self.skip_unfinished {
            "conn-gate/skip-unfinished (negative control)"
        } else if self.drop_queue {
            "conn-gate/dropped-queue (negative control)"
        } else if self.hold_through_read {
            "conn-gate/hold-through-read (negative control)"
        } else if self.hold_at_gate {
            "conn-gate/hold-at-gate (negative control)"
        } else if self.client_dies {
            "conn-gate/client-dies"
        } else if self.round > 0 {
            "conn-gate/burst"
        } else if self.window {
            "conn-gate/window"
        } else {
            "conn-gate/inline-and-queued"
        }
    }
    fn threads(&self) -> usize {
        if self.client_dies || self.window {
            5
        } else {
            4
        }
    }
    fn init(&self) -> ConnState {
        let mut pcs = [pc::RUN; 5];
        pcs[READER] = pc::RESERVE;
        pcs[WRITER] = pc::RECV;
        ConnState {
            count: 0,
            waiting: false,
            notified: false,
            pool: Fifo::default(),
            queue: Fifo::default(),
            senders: 1,
            closed: false,
            dead: false,
            sent: if self.window {
                0
            } else {
                self.script.len() as u8
            },
            received: 0,
            wire: 0,
            locked: false,
            held: 0,
            holding: false,
            freeing: 0,
            owed: 0,
            interleaved: false,
            at: 0,
            have_line: false,
            stop: false,
            ended: false,
            owed_at_stop: 0,
            reserved: [false; MAX_REQUESTS],
            written: [0; MAX_REQUESTS],
            dropped: [0; MAX_REQUESTS],
            lost: [0; MAX_REQUESTS],
            pcs,
            writing: 0,
        }
    }
    fn done(&self, s: &ConnState, tid: usize) -> bool {
        s.pcs[tid] == pc::DONE
    }
    fn enabled(&self, s: &ConnState, tid: usize) -> bool {
        let lines = self.script.len() as u8;
        match (tid, s.pcs[tid]) {
            // A read waits for the client's next line, unless the
            // connection is dead or the script is over.
            (READER, pc::RESERVE) => s.have_line || s.dead || s.at < s.sent || s.at == lines,
            (READER, pc::WAIT) => s.notified,
            (READER, pc::WRITE) if self.blocking_inline => !s.locked && self.room(s),
            (READER, pc::JOIN) => s.pcs[WRITER] == pc::DONE,
            // The pool keeps serving; its work on this connection ends
            // once the reader can hand it no more.
            (WORKER, _) => s.pool.len > 0 || s.pcs[READER] >= pc::END,
            // `recv` blocks until an item is queued or every sender is
            // gone.
            (WRITER, pc::RECV) => s.queue.len > 0 || s.senders == 0 || s.closed,
            // A write waits for room; an item with nothing to write
            // goes ahead.
            (WRITER, pc::WRITE) => !Self::writer_has_frame(s) || self.room(s),
            (ACCEPT, _) => s.ended,
            // The client hands a line to a reader waiting to read, while
            // its round lasts, then reads until it has every answer to
            // the round (and its next round begins) or until the session
            // is over and the wire is empty.
            (CLIENT, pc::RUN) if self.window => s.pcs[READER] == pc::RESERVE && !s.have_line,
            (CLIENT, pc::READ) => s.wire > 0 || s.ended || (s.sent < lines && s.received == s.sent),
            _ => true,
        }
    }
    fn step(&self, s: &mut ConnState, tid: usize) {
        match (tid, s.pcs[tid]) {
            (READER, pc::RESERVE) => {
                if !s.have_line {
                    // Read the next line: a dead connection fails the
                    // read, and the end of the script is the client's
                    // EOF. Either ends the session without a stop.
                    if s.dead || usize::from(s.at) == self.script.len() {
                        s.pcs[READER] = pc::END;
                        return;
                    }
                    s.have_line = true;
                }
                if s.count < self.limit {
                    s.count += 1;
                    s.reserved[usize::from(s.at)] = true;
                    s.pcs[READER] = pc::DISPATCH;
                } else if s.holding && !self.hold_at_gate {
                    // Write what it holds, then look at the gate again.
                    self.flush(s);
                } else {
                    s.waiting = true;
                    s.pcs[READER] = pc::WAIT;
                }
            }
            (READER, pc::WAIT) => {
                s.notified = false;
                s.waiting = false;
                s.pcs[READER] = pc::RESERVE;
            }
            (READER, pc::DISPATCH) => {
                if self.request(s) == Req::Cold {
                    // The ticket, and its clone of the sender, go to the
                    // worker with the job. A cold job that ends a burst
                    // is followed by a flush of what the reader holds.
                    s.pool.push(s.at);
                    s.senders += 1;
                    let flush = !Self::next_buffered(s) && s.holding && !self.hold_through_read;
                    s.at += 1;
                    s.have_line = false;
                    s.pcs[READER] = if flush { pc::FLUSH } else { pc::RESERVE };
                } else {
                    s.pcs[READER] = pc::WRITE;
                }
            }
            (READER, pc::WRITE) => self.write_inline(s),
            (READER, pc::FLUSH) => {
                self.flush(s);
                s.pcs[READER] = pc::RESERVE;
            }
            (READER, pc::END) => {
                // Write what the reader still holds, then drop its
                // sender.
                if s.holding {
                    self.flush(s);
                }
                s.senders -= 1;
                if self.drop_queue {
                    // The bug: the queue goes with the session, and what
                    // it still holds is never written.
                    s.closed = true;
                    while let Some(item) = s.queue.pop() {
                        Self::discard(s, item & !FLUSH);
                        Self::release(s);
                    }
                }
                s.pcs[READER] = pc::JOIN;
            }
            (READER, pc::JOIN) => {
                s.ended = true;
                s.pcs[READER] = pc::DONE;
            }
            (WORKER, _) => match s.pool.pop() {
                Some(id) => {
                    // The job completes: its ticket queues the response
                    // and drops its sender.
                    if s.closed {
                        Self::discard(s, id);
                        Self::release(s);
                    } else {
                        s.queue.push(id);
                    }
                    s.senders -= 1;
                }
                None => s.pcs[WORKER] = pc::DONE,
            },
            (WRITER, pc::RECV) => match s.queue.pop() {
                Some(item) if !s.closed => {
                    // Receive and lock the write half as one step: the
                    // reader never holds it across a step, so an inline
                    // attempt between the two finds what it finds
                    // before the receive.
                    s.writing = item;
                    s.locked = true;
                    s.pcs[WRITER] = pc::WRITE;
                }
                _ => s.pcs[WRITER] = pc::DONE,
            },
            (WRITER, pc::WRITE) => {
                // One blocking write a step: the unfinished frames
                // first, then the held ones, then the item's own.
                if s.owed != 0 {
                    let id = take_first(&mut s.owed);
                    Self::write_out(s, id);
                } else if s.held != 0 {
                    let id = take_first(&mut s.held);
                    Self::write_out(s, id);
                    s.freeing += 1;
                    if s.held == 0 {
                        for _ in 0..std::mem::take(&mut s.freeing) {
                            Self::release(s);
                        }
                    }
                } else if s.writing & FLUSH == 0 {
                    Self::write_out(s, s.writing);
                    s.writing |= FLUSH;
                }
                if !Self::writer_has_frame(s) {
                    s.locked = false;
                    s.pcs[WRITER] = pc::RELEASE;
                }
            }
            (WRITER, pc::RELEASE) => {
                Self::release(s);
                s.pcs[WRITER] = pc::RECV;
            }
            (ACCEPT, _) => {
                // The accept loop stops (and the process may exit) only
                // on a stop request; nothing may still be owed then.
                if s.stop {
                    s.owed_at_stop = (0..self.script.len())
                        .filter(|&i| s.reserved[i] && s.written[i] == 0 && s.dropped[i] == 0)
                        .count() as u8;
                }
                s.pcs[ACCEPT] = pc::DONE;
            }
            (CLIENT, pc::RUN) if self.window => {
                s.sent += 1;
                if usize::from(s.sent) == self.script.len() || s.sent == self.round {
                    s.pcs[CLIENT] = pc::READ;
                }
            }
            (CLIENT, pc::READ) => {
                if s.wire > 0 {
                    s.wire -= 1;
                    s.received += 1;
                } else if usize::from(s.sent) < self.script.len() && s.received == s.sent {
                    s.pcs[CLIENT] = pc::RUN;
                } else {
                    s.pcs[CLIENT] = pc::DONE;
                }
            }
            (CLIENT, _) => {
                s.dead = true;
                s.pcs[CLIENT] = pc::DONE;
            }
            _ => unreachable!("stepped a finished thread"),
        }
    }
    fn check_step(&self, s: &ConnState) -> Result<(), String> {
        if let Some(id) = (0..self.script.len()).find(|&i| s.written[i] > 1) {
            return Err(format!("response {id} was written {} times", s.written[id]));
        }
        if let Some(id) = (0..self.script.len()).find(|&i| s.lost[i] > 0) {
            return Err(format!("response {id} was dropped on a live connection"));
        }
        if s.interleaved {
            return Err("a frame started while another was unfinished".into());
        }
        if s.waiting && !s.notified && s.count < self.limit {
            return Err(format!(
                "lost wake-up: the reader sleeps at {} of {} slots with no wake pending",
                s.count, self.limit
            ));
        }
        if s.owed_at_stop > 0 {
            return Err(format!(
                "the accept loop stopped with {} response(s) still owed",
                s.owed_at_stop
            ));
        }
        Ok(())
    }
    fn check_final(&self, s: &ConnState) -> Result<(), String> {
        if s.count != 0 {
            return Err(format!("{} slot(s) never freed", s.count));
        }
        for id in 0..self.script.len() {
            if !s.reserved[id] {
                if !s.dead {
                    return Err(format!("request {id} was never served"));
                }
                continue;
            }
            if s.written[id] + s.dropped[id] != 1 {
                return Err(format!(
                    "response {id}: written {} and dropped {} times",
                    s.written[id], s.dropped[id]
                ));
            }
        }
        Ok(())
    }
}
