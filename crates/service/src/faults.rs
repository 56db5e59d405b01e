//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] describes *where* and *how often* the service should
//! misbehave on purpose: store operations that fail or stall, response
//! frames that are dropped or delayed on the wire, and a worker panic
//! at a chosen job ordinal. Every decision is drawn from a
//! [`SplitMix64`] stream keyed by `(seed, site, ordinal)` — the same
//! generator the load generator uses — so a given seed produces the
//! same fault sequence at each site on every run: chaos tests are
//! reproducible, not flaky.
//!
//! Plans are armed on a live server by the `set-faults` admin verb
//! and live in the [`FaultState`] hanging
//! off [`ServiceState`](crate::engine::ServiceState). Injection sites
//! consult the state on their hot paths; with no plan armed the check
//! is one relaxed atomic-free `Mutex` lock of an `Option` clone — and
//! in release builds without the `faults` cargo feature, arming a plan
//! is refused outright ([`FAULTS_COMPILED_IN`]), so production binaries
//! cannot be talked into sabotaging themselves.
//!
//! Every injected fault is counted (`fault_store_total`,
//! `fault_wire_total`, `fault_pool_total` — exposed with the `drmap_`
//! prefix); see `docs/RELIABILITY.md` for the spec grammar and
//! `docs/OBSERVABILITY.md` for the metric taxonomy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::error::ServiceError;
use crate::loadgen::SplitMix64;
use crate::sync::lock_recovered;

/// Whether this build can arm fault plans at all: always in debug
/// builds, and in release builds only with the `faults` cargo feature.
/// A release binary built without the feature refuses the
/// `set-faults` verb, and does not advertise the `faults` capability.
pub const FAULTS_COMPILED_IN: bool = cfg!(any(debug_assertions, feature = "faults"));

/// Distinct draw streams per injection site, salted into the seed so
/// the store's fault sequence is independent of the wire's.
const SITE_STORE: u64 = 0x51;
const SITE_WIRE: u64 = 0x52;

/// What a fault plan injects, where, and how often. All probabilities
/// are `0.0..=1.0` fractions of operations at that site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of every decision stream; the whole plan is a deterministic
    /// function of it.
    pub seed: u64,
    /// Fraction of store `get`/`put`/`compact` calls that fail with an
    /// injected error.
    pub store_fail: f64,
    /// Fraction of store calls delayed by jitter sampled in
    /// `0..store_delay_ms`.
    pub store_delay: f64,
    /// Upper bound of the sampled store delay, in milliseconds.
    pub store_delay_ms: u64,
    /// Fraction of response frames dropped on the wire (never written;
    /// the client sees a stall, then its read timeout).
    pub wire_drop: f64,
    /// Fraction of response frames stalled by jitter sampled in
    /// `0..wire_stall_ms` before being written.
    pub wire_stall: f64,
    /// Upper bound of the sampled wire stall, in milliseconds.
    pub wire_stall_ms: u64,
    /// Panic a worker while it computes the Nth submitted job
    /// (1-based), exactly once per armed plan.
    pub panic_job: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            store_fail: 0.0,
            store_delay: 0.0,
            store_delay_ms: 5,
            wire_drop: 0.0,
            wire_stall: 0.0,
            wire_stall_ms: 20,
            panic_job: None,
        }
    }
}

fn parse_fraction(key: &str, value: &str) -> Result<f64, ServiceError> {
    let p: f64 = value.parse().map_err(|_| {
        ServiceError::protocol(format!("fault plan: {key} needs a number, got {value:?}"))
    })?;
    if !(0.0..=1.0).contains(&p) {
        return Err(ServiceError::protocol(format!(
            "fault plan: {key} must be in 0..=1, got {value}"
        )));
    }
    Ok(p)
}

fn parse_u64(key: &str, value: &str) -> Result<u64, ServiceError> {
    value.parse().map_err(|_| {
        ServiceError::protocol(format!(
            "fault plan: {key} needs a non-negative integer, got {value:?}"
        ))
    })
}

impl FaultPlan {
    /// Parse a `key=value,key=value` spec. Keys: `seed`, `store-fail`,
    /// `store-delay`, `store-delay-ms`, `wire-drop`, `wire-stall`,
    /// `wire-stall-ms`, `panic-job`. Probabilities are `0..=1`
    /// fractions; omitted keys keep [`FaultPlan::default`] values.
    ///
    /// # Errors
    ///
    /// Rejects unknown keys, malformed numbers, out-of-range
    /// probabilities, and plans that inject nothing.
    pub fn parse(spec: &str) -> Result<Self, ServiceError> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part.split_once('=').ok_or_else(|| {
                ServiceError::protocol(format!("fault plan: expected key=value, got {part:?}"))
            })?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => plan.seed = parse_u64(key, value)?,
                "store-fail" => plan.store_fail = parse_fraction(key, value)?,
                "store-delay" => plan.store_delay = parse_fraction(key, value)?,
                "store-delay-ms" => plan.store_delay_ms = parse_u64(key, value)?,
                "wire-drop" => plan.wire_drop = parse_fraction(key, value)?,
                "wire-stall" => plan.wire_stall = parse_fraction(key, value)?,
                "wire-stall-ms" => plan.wire_stall_ms = parse_u64(key, value)?,
                "panic-job" => {
                    let n = parse_u64(key, value)?;
                    if n == 0 {
                        return Err(ServiceError::protocol(
                            "fault plan: panic-job is 1-based (use panic-job=1 for the first job)",
                        ));
                    }
                    plan.panic_job = Some(n);
                }
                other => {
                    return Err(ServiceError::protocol(format!(
                        "fault plan: unknown key {other:?} (known: seed, store-fail, store-delay, \
                         store-delay-ms, wire-drop, wire-stall, wire-stall-ms, panic-job)"
                    )))
                }
            }
        }
        if plan.injects_nothing() {
            return Err(ServiceError::protocol(
                "fault plan injects nothing (set at least one of store-fail/store-delay/\
                 wire-drop/wire-stall/panic-job)",
            ));
        }
        Ok(plan)
    }

    fn injects_nothing(&self) -> bool {
        self.store_fail == 0.0
            && self.store_delay == 0.0
            && self.wire_drop == 0.0
            && self.wire_stall == 0.0
            && self.panic_job.is_none()
    }

    /// The canonical spec string this plan re-parses from (non-default
    /// fields only, seed always included).
    pub(crate) fn render(&self) -> String {
        let mut parts = vec![format!("seed={}", self.seed)];
        let defaults = FaultPlan::default();
        if self.store_fail != 0.0 {
            parts.push(format!("store-fail={}", self.store_fail));
        }
        if self.store_delay != 0.0 {
            parts.push(format!("store-delay={}", self.store_delay));
            if self.store_delay_ms != defaults.store_delay_ms {
                parts.push(format!("store-delay-ms={}", self.store_delay_ms));
            }
        }
        if self.wire_drop != 0.0 {
            parts.push(format!("wire-drop={}", self.wire_drop));
        }
        if self.wire_stall != 0.0 {
            parts.push(format!("wire-stall={}", self.wire_stall));
            if self.wire_stall_ms != defaults.wire_stall_ms {
                parts.push(format!("wire-stall-ms={}", self.wire_stall_ms));
            }
        }
        if let Some(n) = self.panic_job {
            parts.push(format!("panic-job={n}"));
        }
        parts.join(",")
    }
}

/// What an injection site should do to the operation it guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Fail the operation with an injected error.
    Fail,
    /// Delay the operation by the sampled jitter, then proceed.
    Delay(Duration),
}

/// The `(seed, site, ordinal)`-keyed decision draw: a fresh
/// [`SplitMix64`] per decision, so every site's Nth decision is a pure
/// function of the plan seed — O(1), stateless, and independent of
/// thread interleaving at *other* sites.
fn draw(seed: u64, site: u64, ordinal: u64) -> (f64, u64) {
    let mut rng = SplitMix64::new(
        seed.wrapping_add(ordinal.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            ^ site.wrapping_mul(0xbf58_476d_1ce4_e5b9),
    );
    let p = rng.next_f64();
    (p, rng.next_u64())
}

/// One armed plan plus its per-site decision ordinals.
#[derive(Debug)]
struct ActivePlan {
    plan: FaultPlan,
    store_ordinal: AtomicU64,
    wire_ordinal: AtomicU64,
    /// Set once the chosen job ordinal's panic has fired, so one plan
    /// injects at most one panic however many layers the job has.
    panic_fired: AtomicU64,
}

/// Live fault-injection state shared by every injection site. With no
/// plan armed (the default), every query answers `None`.
#[derive(Debug, Default)]
pub struct FaultState {
    active: Mutex<Option<Arc<ActivePlan>>>,
}

impl FaultState {
    /// Arm `plan` (or disarm with `None`), returning the previously
    /// armed plan. Arming also resets the job-ordinal bookkeeping, so
    /// re-arming the same plan re-injects its worker panic.
    ///
    /// # Errors
    ///
    /// Refuses to arm in builds where [`FAULTS_COMPILED_IN`] is false
    /// (release without the `faults` feature). Disarming always works.
    pub fn set_plan(&self, plan: Option<FaultPlan>) -> Result<Option<FaultPlan>, ServiceError> {
        if plan.is_some() && !FAULTS_COMPILED_IN {
            return Err(ServiceError::protocol(
                "fault injection is not compiled into this build \
                 (rebuild with the `faults` feature or a debug profile)",
            ));
        }
        let active = plan.map(|plan| {
            Arc::new(ActivePlan {
                plan,
                store_ordinal: AtomicU64::new(0),
                wire_ordinal: AtomicU64::new(0),
                panic_fired: AtomicU64::new(0),
            })
        });
        let previous = std::mem::replace(&mut *lock_recovered(&self.active), active);
        Ok(previous.map(|p| p.plan))
    }

    fn active(&self) -> Option<Arc<ActivePlan>> {
        lock_recovered(&self.active).clone()
    }

    /// Decide the fate of one store operation. Probability mass is
    /// split: a draw under `store_fail` fails, one under
    /// `store_fail + store_delay` stalls by sampled jitter.
    pub(crate) fn store_action(&self) -> Option<FaultAction> {
        let active = self.active()?;
        let plan = &active.plan;
        if plan.store_fail == 0.0 && plan.store_delay == 0.0 {
            return None;
        }
        // ordering: Relaxed — the ordinal is a pure draw ticket; no
        // other data is published through it.
        let n = active.store_ordinal.fetch_add(1, Ordering::Relaxed);
        let (p, jitter) = draw(plan.seed, SITE_STORE, n);
        if p < plan.store_fail {
            Some(FaultAction::Fail)
        } else if p < plan.store_fail + plan.store_delay {
            Some(FaultAction::Delay(Duration::from_millis(
                jitter % plan.store_delay_ms.max(1),
            )))
        } else {
            None
        }
    }

    /// Decide the fate of one outgoing response frame: `Fail` means
    /// drop it (never write), `Delay` means stall before writing.
    pub(crate) fn wire_action(&self) -> Option<FaultAction> {
        let active = self.active()?;
        let plan = &active.plan;
        if plan.wire_drop == 0.0 && plan.wire_stall == 0.0 {
            return None;
        }
        // ordering: Relaxed — pure draw ticket, as above.
        let n = active.wire_ordinal.fetch_add(1, Ordering::Relaxed);
        let (p, jitter) = draw(plan.seed, SITE_WIRE, n);
        if p < plan.wire_drop {
            Some(FaultAction::Fail)
        } else if p < plan.wire_drop + plan.wire_stall {
            Some(FaultAction::Delay(Duration::from_millis(
                jitter % plan.wire_stall_ms.max(1),
            )))
        } else {
            None
        }
    }

    /// Whether the worker computing the job with this submission
    /// ordinal (1-based, as counted by the pool) should panic. Fires at
    /// most once per armed plan.
    pub(crate) fn job_panics(&self, job_ordinal: u64) -> bool {
        let Some(active) = self.active() else {
            return false;
        };
        if active.plan.panic_job != Some(job_ordinal) {
            return false;
        }
        // ordering: Relaxed — the swap's atomicity alone guarantees the
        // single firing; no other data rides on it.
        active.panic_fired.swap(1, Ordering::Relaxed) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_render_round_trip() {
        let plan = FaultPlan::parse(
            "seed=42, store-fail=0.1, store-delay=0.05, store-delay-ms=7, \
             wire-drop=0.02, wire-stall=0.02, wire-stall-ms=30, panic-job=3",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.store_fail, 0.1);
        assert_eq!(plan.store_delay_ms, 7);
        assert_eq!(plan.panic_job, Some(3));
        assert_eq!(FaultPlan::parse(&plan.render()).unwrap(), plan);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "store-fail=1.5",
            "store-fail=yes",
            "frobnicate=1",
            "seed",
            "seed=42",     // injects nothing
            "panic-job=0", // 1-based
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_site() {
        let state = FaultState::default();
        let plan = FaultPlan::parse("seed=7,store-fail=0.3,wire-stall=0.3").unwrap();
        state.set_plan(Some(plan)).unwrap();
        let first: Vec<_> = (0..64).map(|_| state.store_action()).collect();
        let wire_first: Vec<_> = (0..64).map(|_| state.wire_action()).collect();
        // Re-arming resets the ordinals: the sequence replays exactly.
        state.set_plan(Some(plan)).unwrap();
        let second: Vec<_> = (0..64).map(|_| state.store_action()).collect();
        let wire_second: Vec<_> = (0..64).map(|_| state.wire_action()).collect();
        assert_eq!(first, second);
        assert_eq!(wire_first, wire_second);
        assert!(
            first.iter().any(Option::is_some) && first.iter().any(Option::is_none),
            "a 30% rate should both fire and not fire across 64 draws"
        );
        // Store and wire streams are salted apart.
        assert_ne!(first, wire_first);
    }

    #[test]
    fn injection_rate_tracks_the_configured_probability() {
        let state = FaultState::default();
        state
            .set_plan(Some(FaultPlan::parse("seed=11,store-fail=0.1").unwrap()))
            .unwrap();
        let fired = (0..2000).filter(|_| state.store_action().is_some()).count();
        assert!(
            (100..=320).contains(&fired),
            "10% of 2000 draws fired {fired} times"
        );
    }

    #[test]
    fn worker_panic_fires_exactly_once_at_its_ordinal() {
        let state = FaultState::default();
        state
            .set_plan(Some(FaultPlan::parse("seed=1,panic-job=2").unwrap()))
            .unwrap();
        assert!(!state.job_panics(1));
        assert!(state.job_panics(2), "fires at the chosen ordinal");
        assert!(!state.job_panics(2), "but only once");
        assert!(!state.job_panics(3));
    }

    #[test]
    fn disarming_returns_the_previous_plan() {
        let state = FaultState::default();
        assert!(state.store_action().is_none());
        assert!(state.wire_action().is_none());
        let plan = FaultPlan::parse("seed=5,store-fail=1").unwrap();
        state.set_plan(Some(plan)).unwrap();
        assert_eq!(state.store_action(), Some(FaultAction::Fail));
        assert_eq!(state.set_plan(None).unwrap(), Some(plan));
        assert_eq!(state.set_plan(None).unwrap(), None);
    }
}
