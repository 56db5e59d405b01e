//! Property-based tests of the DRAM controller: timing and accounting
//! invariants must hold for arbitrary request streams on arbitrary
//! architectures, not just the structured patterns the profiler uses.

use std::collections::VecDeque;

use drmap_dram::controller::{ServiceRecord, REORDER_WINDOW};
use drmap_dram::prelude::*;
use proptest::prelude::*;

fn arch_strategy() -> impl Strategy<Value = DramArch> {
    prop_oneof![
        Just(DramArch::Ddr3),
        Just(DramArch::Salp1),
        Just(DramArch::Salp2),
        Just(DramArch::SalpMasa),
    ]
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (
        0usize..8,   // bank
        0usize..8,   // subarray
        0usize..64,  // row (small window to provoke conflicts)
        0usize..128, // column
        prop::bool::ANY,
    )
        .prop_map(|(bank, subarray, row, column, write)| {
            let address = PhysicalAddress {
                channel: 0,
                rank: 0,
                bank,
                subarray,
                row,
                column,
            };
            if write {
                Request::write(address)
            } else {
                Request::read(address)
            }
        })
}

fn mode_strategy() -> impl Strategy<Value = DriveMode> {
    prop_oneof![
        Just(DriveMode::Streamed),
        (0u64..64).prop_map(DriveMode::Spaced),
    ]
}

fn run(arch: DramArch, requests: &[Request], mode: DriveMode) -> (SimStats, Vec<ServiceRecord>) {
    let mut sim =
        DramSimulator::on(&Device::table_ii(), ControllerConfig::new(arch)).expect("valid config");
    sim.set_keep_records(true);
    let stats = sim.run(requests, mode);
    let records = sim.records().to_vec();
    (stats, records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every request completes no earlier than the fastest possible
    /// access (a row-buffer hit) and no later than a bounded worst case.
    #[test]
    fn latency_bounds(
        arch in arch_strategy(),
        requests in prop::collection::vec(request_strategy(), 1..80),
        mode in mode_strategy(),
    ) {
        let t = TimingParams::ddr3_1600k();
        let n = requests.len() as u64;
        let (_, records) = run(arch, &requests, mode);
        prop_assert_eq!(records.len() as u64, n);
        let min_read = t.cl + t.t_burst;
        let min_write = t.cwl + t.t_burst;
        // Worst case: every earlier request serialized at tRC plus own
        // conflict service (loose bound).
        let worst = (n + 1) * (t.t_rc + t.t_rp + t.t_rcd + t.cl + t.t_burst + t.t_wr + 64);
        for r in &records {
            let floor = match r.kind {
                RequestKind::Read => min_read,
                RequestKind::Write => min_write,
            };
            prop_assert!(r.latency() >= floor, "latency {} below floor {}", r.latency(), floor);
            prop_assert!(r.latency() <= worst, "latency {} above bound {}", r.latency(), worst);
        }
    }

    /// Counter consistency: outcomes sum to requests; reads+writes match;
    /// command counts cover the outcome requirements (every non-hit needs
    /// an ACT, every RD/WR request issues exactly one column command).
    #[test]
    fn counter_consistency(
        arch in arch_strategy(),
        requests in prop::collection::vec(request_strategy(), 1..80),
    ) {
        let n = requests.len() as u64;
        let reads = requests.iter().filter(|r| r.kind == RequestKind::Read).count() as u64;
        let mut sim = DramSimulator::on(&Device::table_ii(), ControllerConfig::new(arch)).unwrap();
        let stats = sim.run(&requests, DriveMode::Streamed);
        prop_assert_eq!(stats.outcome_counts.iter().sum::<u64>(), n);
        let k = sim.controller().counters();
        prop_assert_eq!(k.reads, reads);
        prop_assert_eq!(k.writes, n - reads);
        prop_assert_eq!(k.command_count(CommandKind::Read), reads);
        prop_assert_eq!(k.command_count(CommandKind::Write), n - reads);
        let acts_needed: u64 = RowBufferOutcome::ALL
            .iter()
            .filter(|o| o.needs_activate())
            .map(|&o| k.outcome_count(o))
            .sum();
        prop_assert_eq!(k.command_count(CommandKind::Activate), acts_needed);
        // Precharges never exceed activations (each PRE closes a row some
        // ACT opened).
        prop_assert!(
            k.command_count(CommandKind::Precharge) <= k.command_count(CommandKind::Activate)
        );
    }

    /// Serialized arrival (`Spaced(0)`) is never faster than streamed
    /// mode (overlap can only help), and a gap only adds idle time.
    #[test]
    fn mode_ordering(
        arch in arch_strategy(),
        requests in prop::collection::vec(request_strategy(), 1..60),
        gap in 1u64..32,
    ) {
        let (streamed, _) = run(arch, &requests, DriveMode::Streamed);
        let (dependent, _) = run(arch, &requests, DriveMode::Spaced(0));
        let (spaced, _) = run(arch, &requests, DriveMode::Spaced(gap));
        prop_assert!(streamed.makespan_cycles <= dependent.makespan_cycles);
        prop_assert!(dependent.makespan_cycles <= spaced.makespan_cycles);
    }

    /// Energy is positive, finite, and monotone in trace length when the
    /// trace is extended (more work can never cost less energy).
    #[test]
    fn energy_monotone_in_prefix(
        arch in arch_strategy(),
        requests in prop::collection::vec(request_strategy(), 2..60),
    ) {
        let half = requests.len() / 2;
        let (full, _) = run(arch, &requests, DriveMode::Streamed);
        let (prefix, _) = run(arch, &requests[..half.max(1)], DriveMode::Streamed);
        prop_assert!(full.energy.total().is_finite());
        prop_assert!(full.energy.total() > 0.0);
        prop_assert!(full.energy.total() >= prefix.energy.total() * 0.999);
    }

    /// Identical requests back-to-back: the second is always a hit (open
    /// row policy), on every architecture.
    #[test]
    fn repeat_access_hits(arch in arch_strategy(), req in request_strategy()) {
        let requests = vec![req, req];
        let (stats, records) = run(arch, &requests, DriveMode::Spaced(0));
        prop_assert!(records[1].outcome.is_hit(), "second identical access must hit");
        prop_assert_eq!(stats.requests, 2);
    }

    /// The FR-FCFS scheduler serves the same multiset of requests (same
    /// outcome totals for reads/writes) and never increases the makespan
    /// versus FCFS by more than the reorder-window slack.
    #[test]
    fn frfcfs_serves_all_requests(
        arch in arch_strategy(),
        requests in prop::collection::vec(request_strategy(), 1..60),
    ) {
        let config = ControllerConfig {
            scheduler: SchedulerKind::FrFcfs,
            ..ControllerConfig::new(arch)
        };
        let mut sim = DramSimulator::on(&Device::table_ii(), config).unwrap();
        let stats = sim.run(&requests, DriveMode::Streamed);
        prop_assert_eq!(stats.requests, requests.len() as u64);
        let k = sim.controller().counters();
        let reads = requests.iter().filter(|r| r.kind == RequestKind::Read).count() as u64;
        prop_assert_eq!(k.reads, reads);
    }
}

// ---------------------------------------------------------------------------
// Differential oracle for the run engine.
//
// `DramSimulator::run` coalesces a trace into row runs and serves each
// run's tail in closed form where it can. The oracle below is the
// per-request driver it replaced: every request through
// `MemoryController::serve`, with the drive-mode and FR-FCFS loops
// written out. Both must agree bit for bit on every configuration.
// ---------------------------------------------------------------------------

/// The per-request driver: what `DramSimulator::run` computed request by
/// request before it served row runs.
struct Oracle {
    mc: MemoryController,
    energy: EnergyModel,
    records: Vec<ServiceRecord>,
}

impl Oracle {
    fn run(&mut self, trace: &[Request], mode: DriveMode, keep: bool) -> SimStats {
        self.records.clear();
        let start_makespan = self.mc.makespan();
        let start_counters = self.mc.finalized_counters();
        let mut total_latency = 0u64;
        let mut outcome_counts = [0u64; 5];
        let mut arrival = start_makespan;
        let mut pending: VecDeque<Request> = trace.iter().copied().collect();
        while !pending.is_empty() {
            let pick = match self.mc.config().scheduler {
                SchedulerKind::Fcfs => 0,
                SchedulerKind::FrFcfs => pending
                    .iter()
                    .take(REORDER_WINDOW)
                    .position(|r| self.mc.peek_outcome(&r.address).is_hit())
                    .unwrap_or(0),
            };
            let req = pending.remove(pick).unwrap();
            let rec = self.mc.serve(req, arrival);
            total_latency += rec.latency();
            let idx = RowBufferOutcome::ALL
                .iter()
                .position(|&o| o == rec.outcome)
                .unwrap();
            outcome_counts[idx] += 1;
            match mode {
                DriveMode::Spaced(gap) => arrival = rec.completion + gap,
                DriveMode::Streamed => {}
            }
            if keep {
                self.records.push(rec);
            }
        }
        let makespan = self.mc.makespan() - start_makespan;
        let counters = self.mc.finalized_counters().since(&start_counters);
        SimStats {
            requests: trace.len() as u64,
            makespan_cycles: makespan,
            total_latency_cycles: total_latency,
            outcome_counts,
            energy: self.energy.breakdown(&counters, makespan),
        }
    }
}

/// One stretch of a trace: a run of 1–128 consecutive columns of one row
/// (cut at the row's end), or a single request anywhere. A run may be given
/// as two pieces split at a random column, the second of either kind, so
/// that runs meet mid-row and a kind change must end one. Runs draw from
/// eight rows, so that a later stretch often finds its row still open and
/// is gated by nothing but what earlier runs left behind.
fn segment_strategy() -> impl Strategy<Value = Vec<RowRun>> {
    let run = (
        (0usize..2, 0usize..2, 0usize..2),  // bank, subarray, row
        0usize..128,                        // first column
        1usize..129,                        // length before the cut
        0usize..128,                        // split point (none if 0)
        (prop::bool::ANY, prop::bool::ANY), // write?, second piece writes?
    )
        .prop_map(|((bank, subarray, row), column, len, split, writes)| {
            let address = PhysicalAddress {
                channel: 0,
                rank: 0,
                bank,
                subarray,
                row,
                column,
            };
            let kind = |write| match write {
                true => RequestKind::Write,
                false => RequestKind::Read,
            };
            let whole = RowRun {
                head: Request {
                    address,
                    kind: kind(writes.0),
                },
                len: len.min(128 - column),
            };
            match split % whole.len {
                0 => vec![whole],
                split => vec![
                    RowRun {
                        len: split,
                        ..whole
                    },
                    RowRun {
                        head: Request {
                            kind: kind(writes.1),
                            ..whole.request(split)
                        },
                        len: whole.len - split,
                    },
                ],
            }
        });
    let single = request_strategy().prop_map(|head| vec![RowRun { head, len: 1 }]);
    prop_oneof![run, single]
}

/// Three traces, replayed one after the other on one simulator.
fn trace_triple_strategy() -> impl Strategy<Value = [Vec<RowRun>; 3]> {
    let trace = || prop::collection::vec(segment_strategy(), 1..12).prop_map(|s| s.concat());
    (trace(), trace(), trace()).prop_map(|(first, second, third)| [first, second, third])
}

fn expand(segments: &[RowRun]) -> Vec<Request> {
    segments.iter().flat_map(|r| r.requests()).collect()
}

/// Cells of the configuration matrix below.
const CELLS: usize = 4 * 3 * 3 * 2 * 2 * 2 * 2;

/// Every cell of the configuration matrix: architecture × drive mode ×
/// row policy × refresh × scheduler × `keep_records` × `record_commands`.
fn matrix(gap: u64, timeout: u64) -> Vec<(ControllerConfig, DriveMode, bool)> {
    let mut cells = Vec::new();
    for arch in DramArch::ALL {
        for mode in [
            DriveMode::Streamed,
            DriveMode::Spaced(0),
            DriveMode::Spaced(gap),
        ] {
            for row_policy in [
                RowPolicy::Open,
                RowPolicy::Closed,
                RowPolicy::Timeout(timeout),
            ] {
                for refresh_enabled in [false, true] {
                    for scheduler in [SchedulerKind::Fcfs, SchedulerKind::FrFcfs] {
                        for keep in [false, true] {
                            for record_commands in [false, true] {
                                let cfg = ControllerConfig {
                                    row_policy,
                                    scheduler,
                                    refresh_enabled,
                                    record_commands,
                                    ..ControllerConfig::new(arch)
                                };
                                cells.push((cfg, mode, keep));
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cells.len(), CELLS);
    cells
}

/// On each cell of the matrix, with three traces of its own: replay them
/// one after the other on one simulator through `run`, on another through
/// `run_runs` (the segments as given, not coalesced), on a third through
/// `run`, `run_runs` and `run` in turn, and on the oracle; all four must
/// agree bit for bit after each call. The third shows that a call's
/// statistics start where the last call, through either entry point,
/// left the controller.
fn assert_run_engine_matches_oracle(traces: &[[Vec<RowRun>; 3]], gap: u64, timeout: u64) {
    let table_ii = Device::table_ii();
    // A short refresh interval, so that refresh-on cells do refresh.
    let timing = TimingParams {
        t_refi: 700,
        ..*table_ii.timing()
    };
    let device = Device::new(*table_ii.geometry(), timing, *table_ii.energy()).unwrap();
    for ((cfg, mode, keep), triple) in matrix(gap, timeout).into_iter().zip(traces) {
        let new_sim = || {
            let mut sim = DramSimulator::on(&device, cfg).unwrap();
            sim.set_keep_records(keep);
            sim
        };
        let (mut by_requests, mut by_runs, mut alternating) = (new_sim(), new_sim(), new_sim());
        let mut oracle = Oracle {
            mc: MemoryController::new(&device, cfg).unwrap(),
            energy: EnergyModel::new(&device),
            records: Vec::new(),
        };
        for (call, segments) in triple.iter().enumerate() {
            let trace = expand(segments);
            let want = oracle.run(&trace, mode, keep);
            let either = match call % 2 {
                0 => alternating.run(&trace, mode),
                _ => alternating.run_runs(segments.iter().copied(), mode),
            };
            let got = [
                (by_requests.run(&trace, mode), &by_requests),
                (by_runs.run_runs(segments.iter().copied(), mode), &by_runs),
                (either, &alternating),
            ];
            for (stats, sim) in got {
                let cell = format!("{cfg:?} {mode:?} keep={keep}");
                assert_eq!(format!("{stats:?}"), format!("{want:?}"), "{cell}");
                assert_eq!(sim.records(), &oracle.records[..], "{cell}");
                assert_eq!(sim.controller().commands(), oracle.mc.commands(), "{cell}");
                assert_eq!(
                    sim.controller().finalized_counters(),
                    oracle.mc.finalized_counters(),
                    "{cell}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The run engine is the per-request driver, bit for bit, on every
    /// cell of the configuration matrix and across three consecutive
    /// runs, through either entry point.
    #[test]
    fn run_engine_matches_the_per_request_oracle(
        traces in prop::collection::vec(trace_triple_strategy(), CELLS..CELLS + 1),
        gap in 1u64..64,
        timeout in 1u64..200,
    ) {
        assert_run_engine_matches_oracle(&traces, gap, timeout);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same identity at 24× the tier-1 case budget (run in release).
    #[test]
    #[ignore = "the run-engine oracle at a larger case budget; run in release"]
    fn run_engine_matches_the_per_request_oracle_at_scale(
        traces in prop::collection::vec(trace_triple_strategy(), CELLS..CELLS + 1),
        gap in 1u64..64,
        timeout in 1u64..200,
    ) {
        assert_run_engine_matches_oracle(&traces, gap, timeout);
    }
}
