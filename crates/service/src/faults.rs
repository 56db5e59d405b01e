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
//! Plans are armed on a live server by the `set-faults` admin verb,
//! which carries one as a JSON object (its members are the fields
//! below), and live in the [`FaultState`] hanging
//! off [`ServiceState`](crate::engine::ServiceState). Injection sites
//! consult the state on their hot paths; with no plan armed the check
//! is one `Mutex` lock and the clone of an empty `Option`. In release
//! builds without the `faults` cargo feature, arming a plan is refused
//! outright ([`FAULTS_COMPILED_IN`]), so production binaries cannot be
//! talked into sabotaging themselves, and every check answers `None`
//! without a lock: the injection sites compile away.
//!
//! Every injected fault is counted (`fault_store_total`,
//! `fault_wire_total`, `fault_pool_total` — exposed with the `drmap_`
//! prefix); see `docs/RELIABILITY.md` for the plan's JSON members and
//! `docs/OBSERVABILITY.md` for the metric taxonomy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use drmap_telemetry::lock_recovered;

use crate::error::ServiceError;
use crate::loadgen::SplitMix64;

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
        if !FAULTS_COMPILED_IN {
            return None;
        }
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

/// Arm the plan the JSON object `plan` describes on `state`, and return
/// it if it took: in a build that compiles fault injection in it must,
/// and in one that does not it must be refused with the documented
/// error, leaving nothing armed.
#[cfg(test)]
pub(crate) fn arm_where_compiled_in(state: &FaultState, plan: &str) -> Option<FaultPlan> {
    use crate::proto::Wire;
    let plan = FaultPlan::from_json(&crate::json::Json::parse(plan).unwrap()).unwrap();
    let armed = state.set_plan(Some(plan));
    assert_eq!(armed.is_ok(), FAULTS_COMPILED_IN, "{armed:?}");
    if let Err(err) = armed {
        let text = err.to_string();
        assert!(
            text.contains("fault injection is not compiled into this build"),
            "{text}"
        );
        assert_eq!((state.store_action(), state.wire_action()), (None, None));
        assert!(!state.job_panics(1));
    }
    FAULTS_COMPILED_IN.then_some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{Json, JsonText};
    use crate::proto::Wire;

    fn decode(plan: &str) -> Result<FaultPlan, String> {
        FaultPlan::from_json(&Json::parse(plan).map_err(|e| e.to_string())?)
    }

    #[test]
    fn specs_parse_and_render_round_trip() {
        let plan = decode(
            r#"{"seed":42,"store_fail":0.1,"store_delay":0.05,"store_delay_ms":7,
                "wire_drop":0.02,"wire_stall":0.02,"wire_stall_ms":30,"panic_job":3}"#,
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.store_fail, 0.1);
        assert_eq!(plan.store_delay_ms, 7);
        assert_eq!(plan.panic_job, Some(3));
        // Absent members keep the defaults, and are left out when rendered.
        let sparse = decode(r#"{"seed":1,"wire_drop":0.5}"#).unwrap();
        assert_eq!(
            sparse,
            FaultPlan {
                seed: 1,
                wire_drop: 0.5,
                ..FaultPlan::default()
            }
        );
        let render = |plan: &FaultPlan| {
            let mut text = String::new();
            plan.encode(&mut JsonText::new(&mut text));
            text
        };
        assert_eq!(render(&sparse), r#"{"seed":1,"wire_drop":0.5}"#);
        for plan in [plan, sparse] {
            let text = render(&plan);
            assert_eq!(decode(&text).unwrap(), plan, "{text}");
        }
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            r#"{"seed":1,"store_fail":1.5}"#,
            r#"{"seed":1,"store_fail":"yes"}"#,
            r#"{"seed":1,"frobnicate":1}"#,
            r#"{"seed":"nope","store_fail":0.1}"#,
            r#"{"seed":42}"#,              // injects nothing
            r#"{"seed":1,"panic_job":0}"#, // 1-based
            r#""seed=42,store-fail=0.1""#, // the retired string form
        ] {
            assert!(decode(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_site() {
        let state = FaultState::default();
        let spec = r#"{"seed":7,"store_fail":0.3,"wire_stall":0.3}"#;
        let Some(plan) = arm_where_compiled_in(&state, spec) else {
            return;
        };
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
        // Another seed draws another sequence.
        state.set_plan(Some(FaultPlan { seed: 8, ..plan })).unwrap();
        let reseeded: Vec<_> = (0..64).map(|_| state.store_action()).collect();
        assert_ne!(first, reseeded);
    }

    #[test]
    fn injection_rate_tracks_the_configured_probability() {
        let state = FaultState::default();
        if arm_where_compiled_in(&state, r#"{"seed":11,"store_fail":0.1}"#).is_none() {
            return;
        }
        let fired = (0..2000).filter(|_| state.store_action().is_some()).count();
        assert!(
            (100..=320).contains(&fired),
            "10% of 2000 draws fired {fired} times"
        );
    }

    /// `store_delay: 1` delays every store call and `wire_stall: 1` every
    /// frame, each by jitter below its `_ms` bound. A small bound holds
    /// every draw under it; a large one lets each site's draws pass both
    /// defaults (5 and 20 ms), so neither site ignores its bound.
    #[test]
    fn delays_are_drawn_below_their_configured_bounds() {
        for bound in [3u64, 200] {
            let state = FaultState::default();
            let spec = format!(
                r#"{{"seed":9,"store_delay":1,"store_delay_ms":{bound},"wire_stall":1,"wire_stall_ms":{bound}}}"#
            );
            if arm_where_compiled_in(&state, &spec).is_none() {
                return;
            }
            for site in [FaultState::store_action, FaultState::wire_action] {
                let longest = (0..256)
                    .map(|_| match site(&state) {
                        Some(FaultAction::Delay(d)) => d,
                        other => panic!("{spec}: expected a delay, got {other:?}"),
                    })
                    .max()
                    .unwrap_or_default();
                assert!(
                    longest < Duration::from_millis(bound),
                    "{spec}: {longest:?}"
                );
                if bound > 20 {
                    assert!(longest >= Duration::from_millis(20), "{spec}: {longest:?}");
                }
            }
        }
    }

    #[test]
    fn worker_panic_fires_exactly_once_at_its_ordinal() {
        let state = FaultState::default();
        if arm_where_compiled_in(&state, r#"{"seed":1,"panic_job":2}"#).is_none() {
            return;
        }
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
        if let Some(plan) = arm_where_compiled_in(&state, r#"{"seed":5,"store_fail":1}"#) {
            assert_eq!(state.store_action(), Some(FaultAction::Fail));
            assert_eq!(state.set_plan(None).unwrap(), Some(plan));
        }
        // Disarming always works, whatever the build.
        assert_eq!(state.set_plan(None).unwrap(), None);
    }
}
