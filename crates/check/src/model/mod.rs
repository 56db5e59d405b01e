//! A mini-loom: deterministic, bounded-exhaustive interleaving
//! enumeration over small concurrency models.
//!
//! A [`Model`] describes a handful of **virtual threads** operating on
//! a shared [`Model::State`]. Each [`Model::step`] is one *atomic*
//! action — one modeled atomic RMW, one lock acquisition, one guarded
//! read — and the explorer owns the scheduler: at every point it forks
//! the state and tries **every** runnable thread, depth-first, until
//! each complete schedule has been executed exactly once. Blocking is
//! modeled declaratively via [`Model::enabled`]; a state where no
//! thread is runnable but some are unfinished is reported as a
//! deadlock.
//!
//! The enumeration is exhaustive and deterministic. The `seed` only
//! rotates the order in which runnable threads are tried at each
//! depth, which changes *which* violation is found first (and what a
//! truncated run covers) but never the set of schedules — a property
//! the tests assert.

pub mod conn;
pub mod counter;
pub mod histogram;
pub mod singleflight;

/// A small concurrency model: virtual threads over shared state.
pub trait Model {
    /// The shared state, cheap to clone (the explorer clones it once
    /// per explored transition).
    type State: Clone;

    /// Human-readable model name for reports.
    fn name(&self) -> &'static str;
    /// Number of virtual threads.
    fn threads(&self) -> usize;
    /// The initial shared state.
    fn init(&self) -> Self::State;
    /// Has thread `tid` run to completion?
    fn done(&self, s: &Self::State, tid: usize) -> bool;
    /// May thread `tid` take a step now? (`false` models blocking on a
    /// held lock or an unfulfilled condition.)
    fn enabled(&self, s: &Self::State, tid: usize) -> bool;
    /// Execute exactly one atomic action of thread `tid`. Only called
    /// when `!done && enabled`.
    fn step(&self, s: &mut Self::State, tid: usize);
    /// Invariant checked after every step; return `Err` to report a
    /// violation mid-schedule.
    fn check_step(&self, _s: &Self::State) -> Result<(), String> {
        Ok(())
    }
    /// Invariant checked when every thread is done.
    fn check_final(&self, s: &Self::State) -> Result<(), String>;
}

/// Exploration limits and the choice-order seed.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Rotates the per-depth order runnable threads are tried in.
    pub seed: u64,
    /// Stop after this many complete schedules (safety valve; the
    /// models here sit far below it).
    pub max_schedules: u64,
    /// Stop collecting after this many violations.
    pub max_violations: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 0,
            max_schedules: 5_000_000,
            max_violations: 8,
        }
    }
}

/// One invariant violation, with the schedule that produced it: the
/// exact sequence of thread ids to replay.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Thread choice at each step, from the initial state.
    pub schedule: Vec<usize>,
    /// What went wrong.
    pub message: String,
}

/// The result of exploring a model.
#[derive(Debug, Clone)]
pub struct Report {
    /// Model name.
    pub model: &'static str,
    /// Complete schedules executed (distinct by construction: each is
    /// a distinct sequence of thread choices).
    pub schedules: u64,
    /// States visited (interior nodes included).
    pub states: u64,
    /// Longest schedule, in steps.
    pub max_depth: usize,
    /// Whether `max_schedules` truncated the enumeration.
    pub truncated: bool,
    /// Collected violations (deadlocks, failed invariants).
    pub violations: Vec<Violation>,
}

impl Report {
    /// True when the enumeration completed with no violation.
    pub fn verified(&self) -> bool {
        !self.truncated && self.violations.is_empty()
    }
}

/// Exhaustively enumerate every interleaving of `model` under `cfg`.
pub fn explore<M: Model>(model: &M, cfg: &Config) -> Report {
    let mut report = Report {
        model: model.name(),
        schedules: 0,
        states: 0,
        max_depth: 0,
        truncated: false,
        violations: Vec::new(),
    };
    let mut trace = Vec::new();
    let state = model.init();
    dfs(model, cfg, state, &mut trace, &mut report);
    report
}

fn dfs<M: Model>(
    model: &M,
    cfg: &Config,
    state: M::State,
    trace: &mut Vec<usize>,
    report: &mut Report,
) {
    if report.schedules >= cfg.max_schedules {
        report.truncated = true;
        return;
    }
    report.states += 1;
    report.max_depth = report.max_depth.max(trace.len());

    let n = model.threads();
    let runnable: Vec<usize> = (0..n)
        .filter(|&tid| !model.done(&state, tid) && model.enabled(&state, tid))
        .collect();

    if runnable.is_empty() {
        if (0..n).all(|tid| model.done(&state, tid)) {
            report.schedules += 1;
            if let Err(message) = model.check_final(&state) {
                push_violation(report, cfg, trace, message);
            }
        } else {
            let stuck: Vec<usize> = (0..n).filter(|&t| !model.done(&state, t)).collect();
            push_violation(
                report,
                cfg,
                trace,
                format!("deadlock: threads {stuck:?} are blocked and can never run"),
            );
        }
        return;
    }

    // The seed rotates choice order per depth; the *set* explored is
    // identical for every seed because the loop still tries them all.
    let rot = if runnable.len() > 1 {
        (cfg.seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left((trace.len() % 61) as u32) as usize)
            % runnable.len()
    } else {
        0
    };
    for k in 0..runnable.len() {
        let tid = runnable[(k + rot) % runnable.len()];
        let mut next = state.clone();
        model.step(&mut next, tid);
        trace.push(tid);
        if let Err(message) = model.check_step(&next) {
            push_violation(report, cfg, trace, message);
        } else {
            dfs(model, cfg, next, trace, report);
        }
        trace.pop();
        if report.truncated || report.violations.len() >= cfg.max_violations {
            return;
        }
    }
}

fn push_violation(report: &mut Report, cfg: &Config, trace: &[usize], message: String) {
    if report.violations.len() < cfg.max_violations {
        report.violations.push(Violation {
            schedule: trace.to_vec(),
            message,
        });
    }
}

/// Run every model shipped with the checker at its standard size and
/// return the reports — the CLI's `--models` mode and the CI gate.
pub fn standard_suite(seed: u64) -> Vec<Report> {
    let cfg = Config {
        seed,
        ..Config::default()
    };
    vec![
        explore(&counter::CounterModel::default(), &cfg),
        explore(&histogram::HistogramMergeModel::default(), &cfg),
        explore(&histogram::SnapshotTearModel, &cfg),
        explore(&singleflight::SingleFlightModel::default(), &cfg),
        explore(&singleflight::SingleFlightModel::leader_panics(), &cfg),
        explore(&conn::ConnModel::default(), &cfg),
        explore(&conn::ConnModel::client_dies(), &cfg),
        explore(&conn::ConnModel::window(), &cfg),
        explore(&conn::ConnModel::burst(), &cfg),
    ]
}
