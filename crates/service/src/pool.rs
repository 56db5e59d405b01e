//! The worker-pool execution engine.
//!
//! Layer-wise DSE is embarrassingly parallel: a network job decomposes
//! into independent per-layer explorations. The pool exploits that by
//! splitting every submitted job into layer tasks on one shared queue,
//! so a batch of jobs keeps all workers busy end-to-end — small jobs
//! don't wait for big ones and a single straggler layer cannot idle the
//! rest of the pool (contrast with
//! [`DseEngine::explore_network`](drmap_core::dse::DseEngine::explore_network),
//! which runs a bounded worker crew inside one process-wide call).
//!
//! The layer is the unit of work: a whole zoo layer sweeps in 5–27 µs
//! inside a worker (the model zoo's largest has 3 456 tilings) — about
//! what waking a second worker costs — so a worker computes a missed
//! layer with the very call [`ServiceState::run_job`] makes.
//!
//! ## Submission and completion
//!
//! [`DsePool::submit_then`] is the one way a job enters the pool, and
//! it is **completion-driven**: nobody blocks a thread per job. The
//! submitting thread first answers every layer that is already resident
//! in the memo cache (default-cache jobs only — `refresh`/`bypass` jobs
//! and an injected fault-plan panic always go to the workers) and
//! enqueues only the layers that missed. Whoever supplies the job's
//! last layer — the worker that delivers it, or the submitting thread
//! itself when nothing missed — assembles the [`JobResult`] and runs the
//! caller's completion with it. A fully resident job therefore never
//! touches the queue and may **overtake** cold jobs queued before it.
//! [`DsePool::submit`]`(..).`[`wait()`](PendingJob::wait) is that same
//! path with a completion that parks the result for the waiter.
//!
//! Determinism: workers may *compute* layers in any order, but results
//! are reassembled in layer order and totals are accumulated exactly as
//! the direct engine does, so a job's [`JobResult`] is bit-identical to
//! a sequential run — cached, pooled, or direct.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use drmap_cnn::layer::Layer;
use drmap_core::dse::{LayerDseResult, SharedEngine};
use drmap_core::edp::EdpEstimate;
use drmap_core::error::DseError;
use drmap_telemetry::Trace;

use crate::cache::CacheOutcome;
use crate::engine::{outcome_from_result, ServiceState};
use crate::error::{panic_message, ServiceError, DEADLINE_MARKER};
use crate::spec::{CacheMode, JobOptions, JobResult, JobSpec};
use crate::sync::lock_recovered;

type LayerReply = Result<(LayerDseResult, CacheOutcome), DseError>;

/// What a finished job is handed to: runs exactly once, on whichever
/// thread supplied the job's last layer.
type Completion = Box<dyn FnOnce(Result<JobResult, ServiceError>) + Send>;

/// A submitted job collecting its per-layer replies.
struct Assembling {
    id: u64,
    workload: String,
    t_ck_ns: f64,
    /// One slot per layer, in layer order; resident layers are filled
    /// at submission, the rest by workers.
    replies: Vec<Option<LayerReply>>,
    /// Layers still with the workers.
    outstanding: usize,
    on_complete: Completion,
}

impl Assembling {
    /// Assemble the result in layer order — totals accumulated exactly
    /// as the direct engine does, the lowest-indexed layer failure
    /// winning — and hand it to the completion.
    fn finish(self) {
        let Assembling {
            id,
            workload,
            t_ck_ns,
            replies,
            on_complete,
            ..
        } = self;
        let assemble = || -> Result<JobResult, ServiceError> {
            let mut total = EdpEstimate::zero(t_ck_ns);
            let mut layers = Vec::with_capacity(replies.len());
            for reply in replies {
                let (result, outcome) = reply
                    .ok_or_else(|| ServiceError::protocol("a layer never received its reply"))??;
                total.accumulate(&result.best.estimate);
                layers.push(outcome_from_result(result, outcome));
            }
            Ok(JobResult {
                id,
                workload,
                total,
                layers,
            })
        };
        on_complete(assemble());
    }
}

/// The part of a job its queued layer tasks share: each delivers its
/// reply here, and the delivery that leaves nothing outstanding takes
/// the job out and finishes it on its own thread.
struct QueuedJob(Mutex<Option<Assembling>>);

impl QueuedJob {
    fn deliver(&self, index: usize, reply: LayerReply) {
        let mut slot = lock_recovered(&self.0);
        let job = slot
            .as_mut()
            .expect("a job stays in place until its last layer is delivered");
        job.replies[index] = Some(reply);
        job.outstanding -= 1;
        if job.outstanding == 0 {
            let job = slot.take();
            // Finish with the lock released: the completion may take a
            // while (slow-log capture, a store write).
            drop(slot);
            if let Some(job) = job {
                job.finish();
            }
        }
    }
}

/// A job's absolute latency budget, captured at submission. Workers
/// check it at dequeue: a queued layer whose budget lapsed is never
/// computed (one that has started runs to completion), and the expired
/// check raises a [`DEADLINE_MARKER`]-tagged [`DseError`] that job
/// assembly lifts back into the typed
/// [`ServiceError::DeadlineExceeded`](crate::error::ServiceError).
#[derive(Debug, Clone, Copy)]
struct Deadline {
    at: Instant,
    ms: u64,
}

impl Deadline {
    fn of(options: &JobOptions) -> Option<Deadline> {
        options.deadline_ms.map(|ms| Deadline {
            at: Instant::now() + Duration::from_millis(ms),
            ms,
        })
    }

    fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    fn error(&self) -> DseError {
        DseError::new(format!("{DEADLINE_MARKER}{} ms", self.ms))
    }
}

struct LayerTask {
    state: Arc<ServiceState>,
    engine: SharedEngine,
    /// The layer's cache key, computed once at submission.
    key: String,
    layer: Layer,
    index: usize,
    cache: CacheMode,
    deadline: Option<Deadline>,
    /// An armed fault plan chose this task's job as its panic victim:
    /// the worker panics instead of exploring, and the existing
    /// catch-everything reply path must surface a typed job error.
    inject_panic: bool,
    /// The submitting request's trace, when the front-end attached one:
    /// the worker's cache-lookup and explore stages add themselves to
    /// its per-stage breakdown.
    trace: Option<Arc<Trace>>,
    job: Arc<QueuedJob>,
}

/// A multi-threaded DSE job pool over shared [`ServiceState`].
#[derive(Debug)]
pub struct DsePool {
    state: Arc<ServiceState>,
    workers: usize,
    queue: Option<Sender<LayerTask>>,
    handles: Vec<JoinHandle<()>>,
    /// Jobs submitted so far — the 1-based ordinal a fault plan's
    /// `panic-job` targets.
    submitted: AtomicU64,
}

impl DsePool {
    /// Spawn `workers` worker threads over the shared state.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(state: Arc<ServiceState>, workers: usize) -> Self {
        assert!(workers > 0, "a pool needs at least one worker");
        let (queue, rx) = channel::<LayerTask>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || worker_loop(&rx))
            })
            .collect();
        DsePool {
            state,
            workers,
            queue: Some(queue),
            handles,
            submitted: AtomicU64::new(0),
        }
    }

    /// The shared state this pool executes against.
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Submit a job and return a handle to await the result: the
    /// blocking form of [`DsePool::submit_then`], whose completion
    /// parks the result for [`PendingJob::wait`]. Submission never
    /// blocks on exploration work.
    pub fn submit(&self, spec: &JobSpec) -> PendingJob {
        let (done, result) = channel();
        self.submit_then(spec, None, move |outcome| {
            // A dropped PendingJob just discards the result.
            let _ = done.send(outcome);
        });
        PendingJob { result }
    }

    /// Submit a job and run `on_complete` with its result once every
    /// layer is in — on the worker that delivers the last one, or on
    /// this thread, before returning, when no layer needed a worker.
    ///
    /// Layers of a [`CacheMode::Default`] job that are resident in the
    /// memo cache are answered right here (counted and LRU-touched as
    /// hits; a miss at this point is silent and counted once by the
    /// worker that serves it); only the rest are enqueued. A
    /// `refresh`/`bypass` job, and the layer an armed fault plan chose
    /// to panic in, always go to the workers. The job's [`JobOptions`]
    /// shape every layer task: the cache mode steers the worker's
    /// lookup, and `keep_points` selects a Pareto-retaining engine
    /// (cache-keyed separately from point-free sweeps). `trace` is the submitting request's [`Trace`] (the TCP
    /// front-end opens one per job, keyed by the wire `id`): lookup and
    /// explore stages land in its stage breakdown as well as the global
    /// histograms, whichever thread ran them.
    ///
    /// `on_complete` must not own the pool (an `Arc<DsePool>` dropped
    /// last by a worker would have that worker join itself); capture
    /// [`DsePool::state`] instead.
    pub fn submit_then<F>(&self, spec: &JobSpec, trace: Option<Arc<Trace>>, on_complete: F)
    where
        F: FnOnce(Result<JobResult, ServiceError>) + Send + 'static,
    {
        self.state.stages().jobs_total.inc();
        // ordering: Relaxed — a pure submission ticket; the fault
        // plan's panic-job match needs uniqueness, not ordering.
        let ordinal = self.submitted.fetch_add(1, Ordering::Relaxed) + 1;
        // An armed plan's chosen job panics in exactly one of its
        // layer tasks (the first): one injected panic per plan, and
        // the job still exercises the full reply path for the rest.
        let panic_at = self.state.faults().job_panics(ordinal).then_some(0);
        let deadline = Deadline::of(&spec.options);
        let factory = self.state.factory();
        let engine = factory.shared(&spec.engine, spec.options.keep_points);
        let tag = factory.tag(spec.engine.arch);
        let layers = spec.workload.layers();
        let mut replies = Vec::with_capacity(layers.len());
        let mut queued = Vec::new();
        for (index, layer) in layers.iter().enumerate() {
            let key = engine.layer_key(tag, layer);
            let resident = if spec.options.cache == CacheMode::Default && panic_at != Some(index) {
                self.state.lookup_resident(&key, layer, trace.as_ref())
            } else {
                None
            };
            if resident.is_none() {
                queued.push((index, key));
            }
            replies.push(resident.map(|result| Ok((result, CacheOutcome::Hit))));
        }
        let job = Assembling {
            id: spec.id,
            workload: spec.workload.name().to_owned(),
            t_ck_ns: engine.model().table().t_ck_ns,
            replies,
            outstanding: queued.len(),
            on_complete: Box::new(on_complete),
        };
        if queued.is_empty() {
            return job.finish();
        }
        let job = Arc::new(QueuedJob(Mutex::new(Some(job))));
        for (index, key) in queued {
            let task = LayerTask {
                state: Arc::clone(&self.state),
                engine: Arc::clone(&engine),
                key,
                layer: layers[index].clone(),
                index,
                cache: spec.options.cache,
                deadline,
                inject_panic: panic_at == Some(index),
                trace: trace.clone(),
                job: Arc::clone(&job),
            };
            // The queue lives as long as the pool and workers never exit
            // while it is open, but if a send fails anyway, fail this
            // layer instead of panicking the submitter — the job then
            // completes with that error.
            let queue = self
                .queue
                .as_ref()
                .expect("queue lives as long as the pool");
            if queue.send(task).is_err() {
                job.deliver(
                    index,
                    Err(DseError::new(
                        "worker pool is shut down; layer not scheduled",
                    )),
                );
            }
        }
    }
}

impl Drop for DsePool {
    fn drop(&mut self) {
        // Closing the only sender ends every worker's recv loop once
        // the queue drains.
        self.queue.take();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<LayerTask>>) {
    loop {
        // Hold the lock only while waiting for the next task; execution
        // happens with the queue free for other workers.
        let task = match lock_recovered(rx).recv() {
            Ok(task) => task,
            Err(_) => return, // pool dropped, queue closed
        };
        // Dequeue-time deadline check: a layer that waited out its
        // job's whole budget in the queue is answered (with the typed
        // error) instead of computed — the submitter has given up.
        let reply = if let Some(deadline) = task.deadline.filter(Deadline::expired) {
            Err(deadline.error())
        } else {
            explore_task(&task)
        };
        // The delivery that completes the job runs its completion right
        // here; a panic in that must cost one response, not a worker.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            task.job.deliver(task.index, reply);
        }));
    }
}

/// Serve one queued layer through the cache. Panics are caught so the
/// layer is *always* delivered: a worker that unwound without replying
/// would leave the job waiting forever on a layer that no one is
/// computing. (`explore_keyed` already converts panics inside the
/// exploration itself; this guards everything else — and is exactly the
/// mechanism an injected fault-plan panic probes.)
fn explore_task(task: &LayerTask) -> LayerReply {
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        if task.inject_panic {
            task.state.stages().fault_pool_total.inc();
            // check:allow(no-unwrap-hot-path): deliberate, counted fault injection
            panic!("injected fault-plan worker panic");
        }
        task.state.explore_keyed(
            &task.key,
            &task.engine,
            &task.layer,
            task.cache,
            task.trace.as_ref(),
        )
    }))
    .unwrap_or_else(|payload| {
        Err(DseError::new(format!(
            "worker panicked exploring layer {:?}: {}",
            task.layer.name,
            panic_message(payload.as_ref())
        )))
    })
}

/// A submitted job whose result is on its way (or already in: a fully
/// resident job completes inside [`DsePool::submit`]).
#[derive(Debug)]
pub struct PendingJob {
    result: Receiver<Result<JobResult, ServiceError>>,
}

impl PendingJob {
    /// Block until every layer has finished and the result has been
    /// assembled in layer order.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed layer failure, or a protocol error if
    /// the pool went away mid-job.
    pub fn wait(self) -> Result<JobResult, ServiceError> {
        self.result
            .recv()
            .unwrap_or_else(|_| Err(ServiceError::protocol("worker pool shut down mid-job")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EngineSpec;
    use drmap_cnn::network::Network;
    use drmap_core::tiling::count_tilings;

    #[test]
    fn pool_matches_sequential_path_bit_exactly() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(Arc::clone(&state), 4);
        let spec = JobSpec::network(7, EngineSpec::default(), Network::tiny());
        let pooled = pool.submit(&spec).wait().unwrap();

        let fresh = ServiceState::new().unwrap();
        let sequential = fresh.run_job(&spec).unwrap();
        assert_eq!(pooled.id, 7);
        assert_bit_identical(&pooled, &sequential);

        // The heaviest layer of the model zoo (3 456 tilings), alone on
        // the same pool, against the engine called directly.
        let vgg = Network::vgg16();
        let heavy = vgg.layers().iter().find(|l| l.name == "CONV2_2").unwrap();
        let spec = JobSpec::layer(8, EngineSpec::default(), heavy.clone());
        let pooled = pool.submit(&spec).wait().unwrap();
        let engine = state.factory().engine(&spec.engine);
        assert_eq!(
            count_tilings(heavy, engine.model().traffic_model().accelerator()).unwrap(),
            3456
        );
        let direct = engine.explore_layer(heavy).unwrap();
        assert_eq!(pooled.layers.len(), 1);
        assert_layer_bit_identical(
            &pooled.layers[0],
            &outcome_from_result(direct, CacheOutcome::Miss),
        );
    }

    /// Every total and every layer's winner agree to the bit.
    fn assert_bit_identical(a: &JobResult, b: &JobResult) {
        assert_eq!(a.layers.len(), b.layers.len());
        assert_eq!(a.total.energy.to_bits(), b.total.energy.to_bits());
        assert_eq!(a.total.cycles.to_bits(), b.total.cycles.to_bits());
        for (a, b) in a.layers.iter().zip(&b.layers) {
            assert_layer_bit_identical(a, b);
        }
    }

    fn assert_layer_bit_identical(a: &crate::spec::LayerOutcome, b: &crate::spec::LayerOutcome) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.scheme, b.scheme);
        assert_eq!(a.tiling, b.tiling);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.estimate.energy.to_bits(), b.estimate.energy.to_bits());
        assert_eq!(a.estimate.cycles.to_bits(), b.estimate.cycles.to_bits());
    }

    #[test]
    fn single_layer_jobs_and_errors_propagate() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(state, 2);
        let layer = drmap_cnn::layer::Layer::conv("C", 8, 8, 16, 8, 3, 3, 1);
        let job = JobSpec::layer(3, EngineSpec::default(), layer.clone());
        let result = pool.submit(&job).wait().unwrap();
        assert_eq!(result.layers.len(), 1);
        assert_eq!(result.layers[0].name, "C");

        // A layer whose smallest tile cannot fit the buffers fails.
        let huge = drmap_cnn::layer::Layer::conv("HUGE", 1, 1, 1, 1, 4096, 4096, 1);
        let bad = JobSpec::layer(4, EngineSpec::default(), huge);
        assert!(matches!(
            pool.submit(&bad).wait(),
            Err(ServiceError::Dse(_))
        ));
    }

    #[test]
    fn resubmission_is_served_from_cache() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(Arc::clone(&state), 4);
        let spec = JobSpec::network(1, EngineSpec::default(), Network::tiny());
        // Waiting between submissions guarantees the cache is warm for
        // the resubmission (a concurrent batch may interleave misses).
        let first = pool.submit(&spec).wait().unwrap();
        let second = pool.submit(&spec).wait().unwrap();
        assert_eq!(first.cache_hits(), 0);
        assert_eq!(second.cache_hits(), second.layers.len());
        assert!(state.cache().stats().hits >= second.layers.len() as u64);
        for (a, b) in first.layers.iter().zip(&second.layers) {
            assert_eq!(a.estimate.energy.to_bits(), b.estimate.energy.to_bits());
            assert_eq!(a.tiling, b.tiling);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        let state = ServiceState::new().unwrap();
        let _ = DsePool::new(state, 0);
    }

    #[test]
    fn finished_sweeps_count_their_design_points() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(Arc::clone(&state), 4);
        let spec = JobSpec::network(1, EngineSpec::default(), Network::tiny());
        let result = pool.submit(&spec).wait().unwrap();
        let covered: u64 = result.layers.iter().map(|l| l.evaluations).sum();
        let counter = |name| state.metrics().snapshot().counter(name).unwrap_or(0);
        assert_eq!(counter("dse_evaluations_total"), covered);
        let pruned = counter("dse_pruned_total");
        assert!(0 < pruned && pruned < covered, "{pruned} of {covered}");
        // Resident layers are not swept again.
        pool.submit(&spec).wait().unwrap();
        assert_eq!(counter("dse_evaluations_total"), covered);
        assert_eq!(counter("dse_pruned_total"), pruned);
    }

    /// The telemetry overhead fence (`docs/OBSERVABILITY.md` §Overhead):
    /// what a span or a counter increment costs is the benchmark's to
    /// report; how many of them a cold layer records is deterministic,
    /// and is the part a regression moves.
    #[test]
    fn cold_layers_record_a_bounded_number_of_telemetry_operations() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(Arc::clone(&state), 1);
        let spec = JobSpec::network(1, EngineSpec::default(), Network::alexnet());
        let layers = pool.submit(&spec).wait().unwrap().layers.len() as u64;
        let snap = state.metrics().snapshot();
        let samples: u64 = snap.histograms.iter().map(|(_, h)| h.count).sum();
        // A counter's value is its operation count, except for the two a
        // finished sweep advances by a whole layer's design points at once.
        let per_sweep = ["dse_evaluations_total", "dse_pruned_total"];
        let counter_ops: u64 = snap
            .counters
            .iter()
            .map(|(name, v)| {
                if per_sweep.contains(&name.as_str()) {
                    layers
                } else {
                    *v
                }
            })
            .sum();
        // Two samples and four counter operations per layer, plus the
        // job's one `jobs_total`.
        assert!(samples <= 2 * layers, "{samples} histogram samples");
        assert!(
            counter_ops <= 4 * layers + 1,
            "{counter_ops} counter operations"
        );
    }

    #[test]
    fn queued_jobs_past_their_deadline_answer_typed_errors() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(Arc::clone(&state), 1);
        // Hold the single worker inside a completion so the deadlined
        // job waits in the queue past its (tiny) budget by the clock,
        // however fast a sweep is; the dequeue check then answers it
        // without computing anything.
        let (holding, held) = channel();
        let (release, released) = channel::<()>();
        let blocker = drmap_cnn::layer::Layer::conv("BLOCK", 8, 8, 16, 8, 3, 3, 1);
        pool.submit_then(
            &JobSpec::layer(1, EngineSpec::default(), blocker),
            None,
            move |result| {
                holding.send(result.is_ok()).unwrap();
                let _ = released.recv();
            },
        );
        // The blocker itself is unharmed.
        assert!(held.recv().unwrap());
        let deadlined = JobSpec::network(2, EngineSpec::default(), Network::tiny()).with_options(
            crate::spec::JobOptions {
                deadline_ms: Some(1),
                ..Default::default()
            },
        );
        let pending = pool.submit(&deadlined);
        std::thread::sleep(Duration::from_millis(5));
        release.send(()).unwrap();
        assert!(matches!(
            pending.wait(),
            Err(ServiceError::DeadlineExceeded { deadline_ms: 1 })
        ));
        // And an undeadlined resubmission completes normally.
        let again = JobSpec::network(3, EngineSpec::default(), Network::tiny());
        assert_eq!(pool.submit(&again).wait().unwrap().layers.len(), 3);
    }

    #[test]
    fn resident_jobs_complete_at_submit_and_overtake_queued_cold_ones() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(Arc::clone(&state), 1);
        let hot = JobSpec::network(1, EngineSpec::default(), Network::tiny());
        pool.submit(&hot).wait().unwrap();

        // Hold the only worker inside a completion, so what follows is
        // decided by channels, not by how long an exploration takes.
        let (holding, held) = channel();
        let (release, released) = channel::<()>();
        let blocker = drmap_cnn::layer::Layer::conv("BLOCK", 8, 8, 16, 8, 3, 3, 1);
        pool.submit_then(
            &JobSpec::layer(2, EngineSpec::default(), blocker),
            None,
            move |_| {
                holding.send(std::thread::current().id()).unwrap();
                let _ = released.recv();
            },
        );
        let worker = held.recv().unwrap();
        // A cold whole-network job (same shapes, another architecture)
        // queues behind the held worker...
        let cold_engine = EngineSpec::for_arch(drmap_dram::timing::DramArch::SalpMasa);
        let cold = pool.submit(&JobSpec::network(3, cold_engine, Network::tiny()));

        // ...and the all-resident job submitted after it is answered
        // before `submit_then` even returns, on this thread.
        let (done, completed) = channel();
        pool.submit_then(
            &JobSpec {
                id: 4,
                ..hot.clone()
            },
            None,
            move |result| {
                done.send((std::thread::current().id(), result)).unwrap();
            },
        );
        let (ran_on, result) = completed
            .try_recv()
            .expect("an all-resident job completes inside submit");
        assert_eq!(ran_on, std::thread::current().id());
        assert_ne!(ran_on, worker);
        let result = result.unwrap();
        assert_eq!(result.id, 4);
        assert_eq!(result.cache_hits(), result.layers.len());
        // The blocking form is the same path: `wait` finds the result
        // already in, while the cold job cannot even have started.
        let again = pool.submit(&JobSpec { id: 5, ..hot }).wait().unwrap();
        assert_eq!(again.cache_hits(), again.layers.len());
        assert!(cold.result.try_recv().is_err(), "the worker is still held");

        release.send(()).unwrap();
        let cold = cold.wait().unwrap();
        assert_eq!(cold.cache_hits(), 0);
    }

    #[test]
    fn half_resident_jobs_count_every_layer_once_and_match_run_job() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(Arc::clone(&state), 2);
        let tiny = Network::tiny();
        let first = JobSpec::layer(1, EngineSpec::default(), tiny.layers()[0].clone());
        pool.submit(&first).wait().unwrap();

        // [layers_total, cache_hits_total, cache_misses_total, cache_lookup spans]
        let telemetry = || {
            let snapshot = state.metrics().snapshot();
            let counter = |name| snapshot.counter(name).unwrap_or(0);
            [
                counter("layers_total"),
                counter("cache_hits_total"),
                counter("cache_misses_total"),
                snapshot.histogram("cache_lookup_ns").map_or(0, |h| h.count),
            ]
        };
        let (stats_before, telemetry_before) = (state.cache().stats(), telemetry());

        // Layer 0 is answered at submit, the other two by workers.
        let spec = JobSpec::network(2, EngineSpec::default(), tiny);
        let mixed = pool.submit(&spec).wait().unwrap();
        let cached: Vec<bool> = mixed.layers.iter().map(|l| l.cached).collect();
        assert_eq!(cached, [true, false, false]);

        let stats = state.cache().stats();
        assert_eq!(stats.hits - stats_before.hits, 1);
        assert_eq!(stats.misses - stats_before.misses, 2);
        assert_eq!(stats.coalesced, stats_before.coalesced);
        let moved: Vec<u64> = telemetry()
            .iter()
            .zip(telemetry_before)
            .map(|(after, before)| after - before)
            .collect();
        assert_eq!(moved, [3, 1, 2, 3]);

        let sequential = ServiceState::new().unwrap().run_job(&spec).unwrap();
        assert_bit_identical(&mixed, &sequential);
    }

    #[test]
    fn refresh_jobs_over_resident_layers_never_count_a_hit() {
        // The benchmark's `serve-cold` isolation gate: a refresh job
        // must recompute, whatever is resident.
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(Arc::clone(&state), 2);
        let spec = JobSpec::network(1, EngineSpec::default(), Network::tiny());
        pool.submit(&spec).wait().unwrap();
        let before = state.cache().stats();
        let refreshed = pool
            .submit(&spec.clone().with_options(crate::spec::JobOptions {
                cache: CacheMode::Refresh,
                ..Default::default()
            }))
            .wait()
            .unwrap();
        assert_eq!(refreshed.cache_hits(), 0);
        let after = state.cache().stats();
        assert_eq!(after.hits, before.hits);
        assert_eq!(after.refreshes - before.refreshes, 3);
    }

    #[test]
    fn armed_panic_job_surfaces_a_typed_error_and_is_counted() {
        let state = ServiceState::new().unwrap();
        state
            .faults()
            .set_plan(Some(
                crate::faults::FaultPlan::parse("seed=1,panic-job=2").unwrap(),
            ))
            .unwrap();
        let pool = DsePool::new(Arc::clone(&state), 2);
        let spec = JobSpec::network(9, EngineSpec::default(), Network::tiny());
        // Job 1 is not the chosen ordinal.
        pool.submit(&spec).wait().unwrap();
        // Job 2 panics a worker; the reply path converts it to a typed
        // job error instead of hanging the submitter.
        let err = pool.submit(&spec).wait().unwrap_err();
        assert!(err.to_string().contains("injected fault-plan worker panic"));
        assert_eq!(
            state.metrics().snapshot().counter("fault_pool_total"),
            Some(1)
        );
        // The plan fires once: job 3 (same spec, warm cache) succeeds.
        pool.submit(&spec).wait().unwrap();
    }
}
