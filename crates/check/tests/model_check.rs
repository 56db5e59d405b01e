//! Model-checker gates: the telemetry and cache models verify clean
//! over every interleaving, the negative controls fail as designed
//! (proving the explorer explores), and the seed changes choice order
//! without changing the set of schedules.

use drmap_check::model::conn::ConnModel;
use drmap_check::model::counter::{BrokenCounterModel, CounterModel};
use drmap_check::model::histogram::{HistogramMergeModel, SnapshotTearModel};
use drmap_check::model::singleflight::SingleFlightModel;
use drmap_check::model::{explore, standard_suite, Config};

/// The CI acceptance gate: the record-vs-snapshot-merge model must
/// enumerate at least 1000 distinct interleavings with zero
/// violations. Four recorders of two steps each have exactly
/// 8!/(2!·2!·2!·2!) = 2520; the count pins the model's size.
#[test]
fn histogram_merge_verifies_over_at_least_1000_interleavings() {
    let report = explore(&HistogramMergeModel::default(), &Config::default());
    assert!(
        report.verified(),
        "merge model violated: {:?}",
        report.violations
    );
    assert!(
        report.schedules >= 1000,
        "only {} schedules enumerated — the model shrank below the CI gate",
        report.schedules
    );
    assert_eq!(report.schedules, 2520);
}

/// 3 threads × 3 single-step increments has exactly 9!/(3!·3!·3!) =
/// 1680 interleavings; hitting that count exactly proves the DFS is
/// exhaustive, with no duplicate or skipped schedule.
#[test]
fn counter_enumeration_is_exhaustive() {
    let report = explore(&CounterModel::default(), &Config::default());
    assert!(report.verified(), "{:?}", report.violations);
    assert_eq!(report.schedules, 1680);
}

/// Negative control: the two-step load-then-store counter must lose an
/// update under some interleaving. A checker that can't find this
/// isn't checking anything.
#[test]
fn broken_counter_is_caught() {
    let report = explore(&BrokenCounterModel::default(), &Config::default());
    assert!(
        !report.violations.is_empty(),
        "the explorer failed to find the classic lost-update race"
    );
    assert!(report.violations[0].message.contains("lost update"));
    assert!(
        !report.violations[0].schedule.is_empty(),
        "a violation must carry its replay schedule"
    );
}

/// Negative control: a single-flight that claims leadership from a
/// stale, unlocked read must double-compute under some schedule.
#[test]
fn racy_single_flight_is_caught() {
    let report = explore(&SingleFlightModel::racy(), &Config::default());
    assert!(
        !report.violations.is_empty(),
        "the explorer failed to find the double-compute race"
    );
}

/// The correct single-flight verifies, and so does the leader-failure
/// mode: waiters observe the failure instead of deadlocking on a value
/// that will never arrive.
#[test]
fn single_flight_verifies_including_leader_failure() {
    for model in [
        SingleFlightModel::default(),
        SingleFlightModel::leader_panics(),
    ] {
        let report = explore(&model, &Config::default());
        assert!(
            report.verified(),
            "{} violated: {:?}",
            report.model,
            report.violations
        );
    }
}

/// The connection gate verifies with a client whose lines are all
/// buffered at once, one that dies mid-session, one that pipelines its
/// whole script in bursts before reading through one-frame buffers, and
/// one that sends a burst past the cap and reads its answers before
/// sending more: every response is written exactly once or dropped on
/// a dead connection, no frame interleaves with an unfinished one, the
/// gate drains, nothing deadlocks, and a stop loses nothing owed. The
/// counts pin the models' size.
#[test]
fn connection_gate_verifies_inline_queued_windowed_and_dying_clients() {
    for (model, schedules) in [
        (ConnModel::default(), 1_059_835),
        (ConnModel::client_dies(), 182_575),
        (ConnModel::window(), 1_621_917),
        (ConnModel::burst(), 1_638),
    ] {
        let report = explore(&model, &Config::default());
        assert!(
            report.verified(),
            "{} violated: {:?}",
            report.model,
            report.violations
        );
        assert_eq!(report.schedules, schedules, "{}", report.model);
    }
}

/// Negative controls for the connection gate: an inline write that
/// waits on the client deadlocks a pipelining one, an inline write past
/// an unfinished frame interleaves two frames, a session that drops
/// the queue before the writer drains it loses a response, a reader
/// that blocks in a read holding frames deadlocks a client waiting for
/// them, and one that waits at the gate holding frames waits on its own
/// slots.
#[test]
fn connection_gate_negative_controls_are_caught() {
    for (model, symptom) in [
        (ConnModel::blocking_inline(), "deadlock"),
        (ConnModel::skip_unfinished(), "while another was unfinished"),
        (ConnModel::dropped_queue(), "dropped on a live connection"),
        (ConnModel::hold_through_read(), "deadlock"),
        (ConnModel::hold_at_gate(), "deadlock"),
    ] {
        let report = explore(&model, &Config::default());
        assert!(
            report
                .violations
                .first()
                .is_some_and(|v| v.message.contains(symptom)),
            "{}: expected a violation mentioning {symptom:?}, got {:?}",
            report.model,
            report.violations
        );
    }
}

/// The snapshot-tear model: a reader interleaved with writers never
/// observes counts ahead of the shared state and converges exactly.
#[test]
fn snapshot_tear_verifies() {
    let report = explore(&SnapshotTearModel, &Config::default());
    assert!(report.verified(), "{:?}", report.violations);
}

/// The seed rotates which thread is tried first at each depth but the
/// enumerated set is invariant: identical schedule/state/depth counts
/// for every seed, on both a clean model and a failing one.
#[test]
fn seed_rotates_order_but_not_the_schedule_set() {
    let baseline = explore(&CounterModel::default(), &Config::default());
    for seed in [1, 42, 0xdead_beef] {
        let cfg = Config {
            seed,
            ..Config::default()
        };
        let report = explore(&CounterModel::default(), &cfg);
        assert_eq!(report.schedules, baseline.schedules, "seed {seed}");
        assert_eq!(report.states, baseline.states, "seed {seed}");
        assert_eq!(report.max_depth, baseline.max_depth, "seed {seed}");
        assert!(report.verified(), "seed {seed}");

        let broken = explore(&BrokenCounterModel::default(), &cfg);
        assert!(
            !broken.violations.is_empty(),
            "seed {seed} hid the lost-update race"
        );
    }
}

/// The `--models` CLI suite — every shipped model at its standard size
/// — verifies clean, and the suite as a whole clears the 1000-
/// interleaving bar by a wide margin.
#[test]
fn standard_suite_verifies() {
    let reports = standard_suite(0);
    assert_eq!(reports.len(), 9);
    let mut total = 0;
    for report in &reports {
        assert!(
            report.verified(),
            "{} violated: {:?}",
            report.model,
            report.violations
        );
        total += report.schedules;
    }
    assert!(total >= 1000, "suite only covered {total} schedules");
}
