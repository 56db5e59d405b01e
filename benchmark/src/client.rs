//! The load generator's side of the wire: pre-rendered request and
//! expected-response templates, a closed-loop and an open-loop driver
//! over raw sockets (`TCP_NODELAY` set), raw per-request latencies, and
//! the bit-for-bit check of every response against the direct-engine
//! result computed once in set-up.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use drmap_core::dse::LayerDseResult;
use drmap_core::edp::EdpEstimate;
use drmap_service::engine::EngineFactory;
use drmap_service::json::Json;
use drmap_service::proto::{Dialect, Request, Response};
use drmap_service::spec::{JobResult, JobSpec, LayerOutcome};

use crate::spans::{Recorder, SpanRec};

/// Job id rendered into templates, then cut back out: it appears
/// nowhere else in any request or response.
const ID_SENTINEL: u64 = 7_770_007_770_007;

/// How a layer of a response was served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Served {
    /// Layers answered from the resident cache.
    pub cached: u64,
    /// Layers answered from the persistent store.
    pub store: u64,
    /// Layers coalesced onto another job's computation.
    pub coalesced: u64,
    /// Layers computed for this job.
    pub computed: u64,
}

impl Served {
    fn add(&mut self, other: Served) {
        self.cached += other.cached;
        self.store += other.store;
        self.coalesced += other.coalesced;
        self.computed += other.computed;
    }

    /// All layers.
    pub fn layers(&self) -> u64 {
        self.cached + self.store + self.coalesced + self.computed
    }
}

/// One catalogue entry, ready to send and to check.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The job as submitted (id 0).
    pub spec: JobSpec,
    /// The direct-engine result every response must equal.
    pub expected: JobResult,
    /// The same result as the engine returned it, layer by layer.
    pub results: Vec<LayerDseResult>,
    /// Request text around the id.
    request: [String; 2],
    /// Expected response text around the two ids, with every layer
    /// flagged cached (`[0]`) or freshly computed (`[1]`).
    response: [[String; 3]; 2],
}

fn split_on_sentinel<const N: usize>(text: &str) -> [String; N] {
    let parts: Vec<String> = text
        .split(&ID_SENTINEL.to_string())
        .map(str::to_owned)
        .collect();
    parts
        .try_into()
        .unwrap_or_else(|p: Vec<String>| panic!("expected {N} template parts, got {}", p.len()))
}

impl Entry {
    /// Explore `spec` with a direct engine and pre-render everything.
    ///
    /// # Errors
    ///
    /// Propagates exploration failures.
    pub fn build(factory: &EngineFactory, spec: JobSpec) -> Result<Entry, String> {
        let engine = factory.engine(&spec.engine);
        let mut total = EdpEstimate::zero(engine.model().table().t_ck_ns);
        let mut layers = Vec::new();
        let mut results = Vec::new();
        for layer in spec.workload.layers() {
            let r = engine.explore_layer(layer).map_err(|e| e.to_string())?;
            total.accumulate(&r.best.estimate);
            results.push(r.clone());
            layers.push(LayerOutcome {
                name: r.layer_name,
                mapping: r.best.mapping.name(),
                scheme: r.best.scheme.label().to_owned(),
                tiling: r.best.tiling,
                estimate: r.best.estimate,
                evaluations: r.evaluations as u64,
                cached: false,
                coalesced: false,
                store_hit: false,
                pareto: Vec::new(),
            });
        }
        let expected = JobResult {
            id: ID_SENTINEL,
            workload: spec.workload.name().to_owned(),
            total,
            layers,
        };
        let render = |cached: bool| {
            let mut result = expected.clone();
            result.layers.iter_mut().for_each(|l| l.cached = cached);
            split_on_sentinel(&Response::Job { result }.render(Dialect::V1).render())
        };
        let mut stamped = spec.clone();
        stamped.id = ID_SENTINEL;
        Ok(Entry {
            request: split_on_sentinel(&Request::Submit(stamped).to_json().render()),
            response: [render(true), render(false)],
            expected,
            results,
            spec,
        })
    }

    /// The request line for job `id` (no newline).
    pub fn request(&self, id: u64) -> String {
        format!("{}{id}{}", self.request[0], self.request[1])
    }

    /// Layers in this entry's result.
    pub fn layers(&self) -> u64 {
        self.expected.layers.len() as u64
    }

    /// Check one response line for job `id`: `Ok` with how its layers
    /// were served, or `Err` with what was wrong.
    ///
    /// The fast path is a byte comparison against the pre-rendered
    /// expectation (floats render round-trip-exactly, so equal text is
    /// equal bits); anything else is parsed and compared field by
    /// field, ignoring only the served-from flags.
    pub fn check(&self, id: u64, line: &str) -> Result<Served, String> {
        let id_text = id.to_string();
        for (t, all_cached) in self.response.iter().zip([true, false]) {
            let matches = line
                .strip_prefix(t[0].as_str())
                .and_then(|rest| rest.strip_prefix(id_text.as_str()))
                .and_then(|rest| rest.strip_prefix(t[1].as_str()))
                .and_then(|rest| rest.strip_prefix(id_text.as_str()))
                .is_some_and(|rest| rest == t[2]);
            if matches {
                let n = self.layers();
                return Ok(if all_cached {
                    Served {
                        cached: n,
                        ..Served::default()
                    }
                } else {
                    Served {
                        computed: n,
                        ..Served::default()
                    }
                });
            }
        }
        let json = Json::parse(line).map_err(|e| e.to_string())?;
        let result = match Response::decode(&json).map_err(|e| e.to_string())? {
            Response::Job { result } => result,
            other => return Err(format!("not a job result: {other:?}")),
        };
        let want = &self.expected;
        if result.id != id
            || result.workload != want.workload
            || !same_bits(&result.total, &want.total)
            || result.layers.len() != want.layers.len()
        {
            return Err(format!(
                "job {id}: header or total differs from the direct engine"
            ));
        }
        let mut served = Served::default();
        for (got, want) in result.layers.iter().zip(&want.layers) {
            if got.name != want.name
                || got.mapping != want.mapping
                || got.scheme != want.scheme
                || got.tiling != want.tiling
                || !same_bits(&got.estimate, &want.estimate)
                || got.evaluations != want.evaluations
            {
                return Err(format!(
                    "job {id}: layer {} differs from the direct engine",
                    want.name
                ));
            }
            match (got.cached, got.store_hit, got.coalesced) {
                (true, ..) => served.cached += 1,
                (_, true, _) => served.store += 1,
                (_, _, true) => served.coalesced += 1,
                _ => served.computed += 1,
            }
        }
        Ok(served)
    }
}

fn same_bits(a: &EdpEstimate, b: &EdpEstimate) -> bool {
    a.cycles.to_bits() == b.cycles.to_bits()
        && a.energy.to_bits() == b.energy.to_bits()
        && a.t_ck_ns.to_bits() == b.t_ck_ns.to_bits()
}

/// The job id a response line carries, read without parsing the line.
fn response_id(line: &str) -> Option<u64> {
    let rest = line.split_once("\"id\":")?.1;
    let digits = rest.split(|c: char| !c.is_ascii_digit()).next()?;
    digits.parse().ok()
}

/// One connection to a server: line-delimited JSON both ways.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    /// Connect with `TCP_NODELAY` set on the harness's socket.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // A server that stops answering must fail the run, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
            line: String::new(),
        })
    }

    /// Split into independently owned write and read halves.
    pub fn split(self) -> (TcpStream, BufReader<TcpStream>) {
        (self.writer, self.reader)
    }

    /// Send one request line.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send(&mut self, mut request: String) -> Result<(), String> {
        request.push('\n');
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Receive one response line (without its newline).
    ///
    /// # Errors
    ///
    /// Fails on a read error, a timeout, or a closed connection.
    pub fn recv(&mut self) -> Result<&str, String> {
        read_line(&mut self.reader, &mut self.line)?;
        Ok(self.line.trim_end())
    }

    /// One request, one response.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn round_trip(&mut self, request: String) -> Result<&str, String> {
        self.send(request)?;
        self.recv()
    }

    /// A typed control request (`stats`, `ping`, …), decoded.
    ///
    /// # Errors
    ///
    /// Propagates transport and decode failures.
    pub fn control(&mut self, request: &Request) -> Result<Response, String> {
        let line = self.round_trip(request.to_json().render())?;
        let json = Json::parse(line).map_err(|e| e.to_string())?;
        Response::decode(&json).map_err(|e| e.to_string())
    }
}

fn read_line(reader: &mut BufReader<TcpStream>, line: &mut String) -> Result<(), String> {
    line.clear();
    match reader.read_line(line) {
        Ok(0) => Err("connection closed by the server".to_owned()),
        Ok(_) => Ok(()),
        Err(e) => Err(format!("recv: {e}")),
    }
}

/// What one load-generating thread saw.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// First few failure descriptions.
    pub errors: Vec<String>,
    /// Latency of every good response, microseconds: in arrival order
    /// for a closed loop, in due-time order for an open loop.
    pub latencies_us: Vec<u32>,
    /// How the layers of good responses were served.
    pub served: Served,
    /// When the last response arrived.
    pub finished: Option<Instant>,
    /// Open loop only: how late each request was sent, microseconds.
    pub lateness_us: Vec<u32>,
    /// Client-side request spans (traced runs).
    pub spans: Vec<SpanRec>,
}

impl LoadResult {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    fn good(&mut self, latency: Duration, served: Served) {
        self.latencies_us
            .push(latency.as_micros().min(u128::from(u32::MAX)) as u32);
        self.served.add(served);
    }

    /// Fold another thread's result into this one.
    pub fn absorb(&mut self, other: LoadResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
        self.latencies_us.extend(other.latencies_us);
        self.served.add(other.served);
        self.finished = self.finished.max(other.finished);
        self.lateness_us.extend(other.lateness_us);
        crate::spans::merge(&mut self.spans, other.spans);
    }
}

/// Closed loop on one connection: keep `window` requests in flight,
/// sending the next only when a response arrives, until `duration` has
/// passed; then drain. `next_entry` picks each request's catalogue
/// entry. Ids start at `first_id`.
pub fn closed_loop(
    addr: SocketAddr,
    entries: &[Entry],
    window: usize,
    duration: Duration,
    first_id: u64,
    mut recorder: Recorder,
    mut next_entry: impl FnMut() -> usize,
) -> LoadResult {
    let mut out = LoadResult::default();
    let mut conn = match Conn::open(addr) {
        Ok(conn) => conn,
        Err(e) => {
            out.attempted = 1;
            out.fail(e);
            return out;
        }
    };
    // In flight: (id, entry, sent at). At most `window` long.
    let mut inflight: Vec<(u64, usize, Instant)> = Vec::with_capacity(window);
    let mut next_id = first_id;
    let start = Instant::now();
    loop {
        let sending = start.elapsed() < duration;
        while sending && inflight.len() < window {
            let entry = next_entry();
            out.attempted += 1;
            inflight.push((next_id, entry, Instant::now()));
            if let Err(e) = conn.send(entries[entry].request(next_id)) {
                out.fail(e);
                out.failed += inflight.len() as u64 - 1;
                return out;
            }
            next_id += 1;
        }
        if inflight.is_empty() {
            break;
        }
        let line = match conn.recv() {
            Ok(line) => line,
            Err(e) => {
                out.fail(e);
                out.failed += inflight.len() as u64 - 1;
                return out;
            }
        };
        let now = Instant::now();
        let slot = response_id(line).and_then(|id| inflight.iter().position(|f| f.0 == id));
        let Some(slot) = slot else {
            out.fail(format!("unmatched response: {:.120}", line));
            continue;
        };
        let (id, entry, sent) = inflight.swap_remove(slot);
        match entries[entry].check(id, line) {
            Ok(served) => {
                out.good(now - sent, served);
                recorder.record("client.request", id, sent, now);
            }
            Err(e) => out.fail(e),
        }
        out.finished = Some(now);
    }
    out.spans = recorder.finish();
    out
}

/// One scheduled request of an open-loop plan.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled {
    /// Catalogue entry.
    pub entry: usize,
    /// When it is due, relative to the start of the run.
    pub due: Duration,
}

/// Open loop on one connection: a sender thread issues `plan[i]` at
/// its due time whatever the server is doing; a receiver thread times
/// each response **from the due time**, so a stall is charged to every
/// request it delayed. Returns the receiver's view plus send lateness.
pub fn open_loop(
    addr: SocketAddr,
    entries: &[Entry],
    plan: &[Scheduled],
    recorder: Recorder,
) -> LoadResult {
    let conn = match Conn::open(addr) {
        Ok(conn) => conn,
        Err(e) => {
            let mut out = LoadResult {
                attempted: 1,
                ..LoadResult::default()
            };
            out.fail(e);
            return out;
        }
    };
    let (mut writer, mut reader) = conn.split();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut lateness_us = Vec::with_capacity(plan.len());
            for (id, request) in plan.iter().enumerate() {
                if let Some(wait) = request.due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let late = start.elapsed().saturating_sub(request.due);
                lateness_us.push(late.as_micros().min(u128::from(u32::MAX)) as u32);
                let mut line = entries[request.entry].request(id as u64);
                line.push('\n');
                if let Err(e) = writer.write_all(line.as_bytes()) {
                    return (lateness_us, Some(format!("send: {e}")));
                }
            }
            (lateness_us, None)
        });

        let mut out = LoadResult::default();
        let mut recorder = recorder;
        let mut line = String::new();
        let mut answered = vec![false; plan.len()];
        // Latency by request, so the result reads in due-time order.
        let mut latency_of: Vec<Option<(Duration, Served)>> = vec![None; plan.len()];
        for _ in 0..plan.len() {
            if let Err(e) = read_line(&mut reader, &mut line) {
                out.fail(e);
                break;
            }
            let now = Instant::now();
            let text = line.trim_end();
            let id = response_id(text).filter(|id| {
                answered
                    .get_mut(*id as usize)
                    .is_some_and(|seen| !std::mem::replace(seen, true))
            });
            let Some(id) = id else {
                out.fail(format!("unmatched response: {:.120}", text));
                continue;
            };
            let request = plan[id as usize];
            let due = start + request.due;
            match entries[request.entry].check(id, text) {
                Ok(served) => {
                    latency_of[id as usize] = Some((now.saturating_duration_since(due), served));
                    recorder.record("client.request", id, due, now);
                }
                Err(e) => out.fail(e),
            }
            out.finished = Some(now);
        }
        for (latency, served) in latency_of.into_iter().flatten() {
            out.good(latency, served);
        }
        let (lateness_us, send_error) = sender.join().expect("the sender does not panic");
        out.attempted = lateness_us.len() as u64;
        out.lateness_us = lateness_us;
        if let Some(e) = send_error {
            out.fail(e);
        }
        // Anything sent but never (validly) answered is a failure.
        let good = out.latencies_us.len() as u64;
        out.failed = out.failed.max(out.attempted.saturating_sub(good));
        out.spans = recorder.finish();
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drmap_cnn::network::Network;
    use drmap_service::spec::EngineSpec;

    fn tiny_entry() -> Entry {
        let factory = EngineFactory::table_ii().unwrap();
        let spec = JobSpec::network(0, EngineSpec::default(), Network::tiny());
        Entry::build(&factory, spec).unwrap()
    }

    fn response(entry: &Entry, id: u64, edit: impl Fn(&mut JobResult)) -> String {
        let mut result = entry.expected.clone();
        result.id = id;
        edit(&mut result);
        Response::Job { result }.render(Dialect::V1).render()
    }

    /// A one-connection fake server: waits `delay` before reading
    /// anything, then answers every request with the entry's correct
    /// response — except job `corrupt`, whose energy it bends by one bit.
    fn fake_server(entry: Entry, delay: Duration, corrupt: u64) -> SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(delay);
            let mut writer = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { return };
                let id = response_id(&line).unwrap();
                let mut text = response(&entry, id, |r| {
                    if id == corrupt {
                        let e = &mut r.layers[0].estimate.energy;
                        *e = f64::from_bits(e.to_bits() ^ 1);
                    }
                });
                text.push('\n');
                if writer.write_all(text.as_bytes()).is_err() {
                    return;
                }
            }
        });
        addr
    }

    #[test]
    fn open_loop_times_from_the_due_time_and_reports_lateness() {
        let entry = tiny_entry();
        let delay = Duration::from_millis(200);
        let addr = fake_server(entry.clone(), delay, u64::MAX);
        let plan: Vec<Scheduled> = (0..5)
            .map(|i| Scheduled {
                entry: 0,
                due: Duration::from_millis(20 * i),
            })
            .collect();
        let out = open_loop(addr, &[entry], &plan, Recorder::new(Instant::now(), true));
        assert_eq!((out.attempted, out.failed), (5, 0), "{:?}", out.errors);
        assert_eq!(out.served.layers(), 15);
        assert_eq!(out.lateness_us.len(), 5);
        assert_eq!(out.spans.len(), 5);
        // Nothing was answered before the server woke up, so a request
        // due at `d` waited at least `delay - d`: the wait the stall
        // imposed on *later* requests is charged to them too, shrinking
        // by one send gap per request.
        for (lat, request) in out.latencies_us.iter().zip(&plan) {
            let floor = (delay - request.due).as_micros() as u32;
            assert!(*lat + 1_000 >= floor, "{lat} < {floor}");
            assert!(*lat < floor + 150_000, "{lat} far above {floor}");
        }
        assert!(out.latencies_us[0] > out.latencies_us[4] + 50_000);
        // The sender kept its schedule while the server slept.
        assert!(
            out.lateness_us.iter().all(|&us| us < 50_000),
            "{:?}",
            out.lateness_us
        );
    }

    #[test]
    fn closed_loop_keeps_the_window_full_and_counts_a_wrong_answer_as_failed() {
        let entry = tiny_entry();
        let addr = fake_server(entry.clone(), Duration::ZERO, 102);
        let out = closed_loop(
            addr,
            &[entry],
            2,
            Duration::from_millis(50),
            100,
            Recorder::new(Instant::now(), false),
            || 0,
        );
        assert!(out.attempted >= 4, "{}", out.attempted);
        assert_eq!(out.failed, 1, "{:?}", out.errors);
        assert_eq!(out.latencies_us.len() as u64, out.attempted - 1);
        assert!(out.errors[0].contains("job 102"), "{:?}", out.errors);
        assert!(out.finished.is_some() && out.spans.is_empty());
    }

    #[test]
    fn requests_carry_the_id_and_decode_to_the_spec() {
        let entry = tiny_entry();
        let line = entry.request(42);
        let (request, dialect) = Request::decode(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(dialect, Dialect::V1);
        match request {
            Request::Submit(spec) => {
                assert_eq!(spec.id, 42);
                assert_eq!(spec.workload, entry.spec.workload);
            }
            other => panic!("not a submit: {other:?}"),
        }
    }

    #[test]
    fn responses_are_checked_bit_for_bit_on_both_paths() {
        let entry = tiny_entry();
        // Fast path: all computed, all cached.
        let fresh = response(&entry, 9, |_| ());
        assert_eq!(
            entry.check(9, &fresh),
            Ok(Served {
                computed: 3,
                ..Served::default()
            })
        );
        let hot = response(&entry, 9, |r| {
            r.layers.iter_mut().for_each(|l| l.cached = true)
        });
        assert_eq!(
            entry.check(9, &hot),
            Ok(Served {
                cached: 3,
                ..Served::default()
            })
        );
        assert_eq!(response_id(&hot), Some(9));
        // Slow path: mixed flags still match and are counted.
        let mixed = response(&entry, 9, |r| {
            r.layers[0].cached = true;
            r.layers[1].store_hit = true;
        });
        assert_eq!(
            entry.check(9, &mixed),
            Ok(Served {
                cached: 1,
                store: 1,
                computed: 1,
                coalesced: 0
            })
        );
        // One flipped mantissa bit, a wrong id, a wrong count: refused.
        let bent = response(&entry, 9, |r| {
            r.layers[2].estimate.energy = f64::from_bits(r.layers[2].estimate.energy.to_bits() ^ 1);
        });
        assert!(entry.check(9, &bent).is_err());
        assert!(entry.check(10, &fresh).is_err());
        let short = response(&entry, 9, |r| r.layers[1].evaluations -= 1);
        assert!(entry.check(9, &short).is_err());
        let error = Response::Error {
            id: Some(9),
            message: "no".to_owned(),
        };
        assert!(entry.check(9, &error.render(Dialect::V1).render()).is_err());
    }
}
