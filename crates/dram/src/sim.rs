//! The DRAM simulator: drives a request trace through the controller and
//! aggregates cycle, outcome, and energy statistics.
//!
//! This is the substitute for the paper's Ramulator + VAMPIRE tool flow
//! (Fig. 8): requests in, `{cycles, energy}` statistics out.
//!
//! The unit of work is the [`RowRun`]: requests of one kind to
//! consecutive columns of one row. Under the paper's configuration (open
//! row, refresh off) the controller serves a run's head like any request
//! and the rest in closed form, in O(1) (the controller's module docs
//! derive it per drive mode; under any other configuration each request
//! is served on its own). A DRMap tile is almost all runs of a whole row,
//! so replaying it costs per run, not per burst.
//!
//! [`DramSimulator::run`] coalesces a request trace into maximal runs and
//! [`DramSimulator::run_runs`] takes runs directly; both feed one engine.
//! FR-FCFS reorders requests within a window counted in requests, so under
//! it the engine is fed runs of length 1.

use std::collections::VecDeque;

use crate::controller::{
    ControllerConfig, MemoryController, SchedulerKind, ServiceRecord, REORDER_WINDOW,
};
use crate::energy::{EnergyBreakdown, EnergyModel, EnergyParams};
use crate::error::ConfigError;
use crate::geometry::Geometry;
use crate::request::{DriveMode, Request, RowRun};
use crate::state::RowBufferOutcome;
use crate::timing::TimingParams;

/// Aggregated results of simulating one request trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Number of requests served.
    pub requests: u64,
    /// Completion cycle of the last request.
    pub makespan_cycles: u64,
    /// Sum of per-request latencies in cycles.
    pub total_latency_cycles: u64,
    /// Requests per row-buffer outcome, indexed by [`RowBufferOutcome::ALL`].
    pub outcome_counts: [u64; 5],
    /// Energy breakdown over the simulated interval.
    pub energy: EnergyBreakdown,
}

impl SimStats {
    /// Mean per-request latency in cycles.
    pub(crate) fn mean_latency_cycles(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_latency_cycles as f64 / self.requests as f64
        }
    }

    /// Mean cycles per access measured as makespan over request count —
    /// the steady-state (streamed) per-access cost.
    pub fn cycles_per_access(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.makespan_cycles as f64 / self.requests as f64
        }
    }

    /// Mean energy per access in joules.
    pub fn energy_per_access(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.energy.total() / self.requests as f64
        }
    }

    /// Count for one outcome.
    pub(crate) fn outcome_count(&self, outcome: RowBufferOutcome) -> u64 {
        self.outcome_counts[outcome.index()]
    }

    /// Row-buffer hit rate (hits + hit-other-subarray over all requests).
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        let hits = self.outcome_count(RowBufferOutcome::Hit)
            + self.outcome_count(RowBufferOutcome::HitOtherSubarray);
        hits as f64 / self.requests as f64
    }
}

/// DRAM simulator: a controller plus an energy model.
///
/// # Examples
///
/// ```
/// use drmap_dram::sim::DramSimulator;
/// use drmap_dram::controller::ControllerConfig;
/// use drmap_dram::geometry::Geometry;
/// use drmap_dram::timing::{DramArch, TimingParams};
/// use drmap_dram::request::{DriveMode, Request};
/// use drmap_dram::address::PhysicalAddress;
///
/// let mut sim = DramSimulator::new(
///     Geometry::ddr3_2gb_x8(),
///     TimingParams::ddr3_1600k(),
///     ControllerConfig::new(DramArch::Ddr3),
///     Default::default(),
/// )?;
/// let trace: Vec<Request> = (0..16)
///     .map(|c| Request::read(PhysicalAddress { column: c, ..PhysicalAddress::default() }))
///     .collect();
/// let stats = sim.run(&trace, DriveMode::Streamed);
/// assert_eq!(stats.requests, 16);
/// assert!(stats.hit_rate() > 0.9); // same row: all but the first hit
/// # Ok::<(), drmap_dram::error::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DramSimulator {
    controller: MemoryController,
    energy: EnergyModel,
    records: Vec<ServiceRecord>,
    keep_records: bool,
}

impl DramSimulator {
    /// Create a simulator.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn new(
        geometry: Geometry,
        timing: TimingParams,
        config: ControllerConfig,
        energy_params: EnergyParams,
    ) -> Result<Self, ConfigError> {
        let controller = MemoryController::new(geometry, timing, config)?;
        let energy = EnergyModel::new(geometry, timing, energy_params)?;
        Ok(DramSimulator {
            controller,
            energy,
            records: Vec::new(),
            keep_records: false,
        })
    }

    /// Keep per-request [`ServiceRecord`]s for inspection.
    pub fn set_keep_records(&mut self, keep: bool) {
        self.keep_records = keep;
    }

    /// Per-request records of the last run (empty unless enabled).
    pub fn records(&self) -> &[ServiceRecord] {
        &self.records
    }

    /// The underlying controller (for command-trace export).
    pub fn controller(&self) -> &MemoryController {
        &self.controller
    }

    /// Run a trace to completion and return statistics for this run.
    ///
    /// The simulator is stateful: a second run continues from the DRAM
    /// state the first one left behind, but the returned statistics
    /// (cycles, outcomes, energy) cover only the new run.
    ///
    /// # Panics
    ///
    /// Panics if a request address lies outside the geometry.
    pub fn run(&mut self, trace: &[Request], mode: DriveMode) -> SimStats {
        match self.controller.config().scheduler {
            SchedulerKind::Fcfs => {
                let mut runs = RowRun::coalesce(trace);
                self.replay(mode, |_| runs.next())
            }
            SchedulerKind::FrFcfs => self.replay_frfcfs(trace.iter().copied().collect(), mode),
        }
    }

    /// [`DramSimulator::run`] over a trace given as row runs: the same
    /// statistics, records and state as running their requests in order.
    ///
    /// # Panics
    ///
    /// Panics if a request address lies outside the geometry.
    pub fn run_runs(&mut self, runs: &[RowRun], mode: DriveMode) -> SimStats {
        match self.controller.config().scheduler {
            SchedulerKind::Fcfs => {
                let mut runs = runs.iter().copied();
                self.replay(mode, |_| runs.next())
            }
            SchedulerKind::FrFcfs => {
                let trace = runs.iter().flat_map(|r| r.requests()).collect();
                self.replay_frfcfs(trace, mode)
            }
        }
    }

    /// FR-FCFS: the first row hit among the [`REORDER_WINDOW`] oldest
    /// pending requests goes next, else the oldest request.
    fn replay_frfcfs(&mut self, mut pending: VecDeque<Request>, mode: DriveMode) -> SimStats {
        self.replay(mode, |controller| {
            let pick = pending
                .iter()
                .take(REORDER_WINDOW)
                .position(|r| controller.peek_outcome(&r.address).is_hit())
                .unwrap_or(0);
            let head = pending.remove(pick)?;
            Some(RowRun { head, len: 1 })
        })
    }

    /// The one run engine: serve the runs `next` hands out, in order,
    /// until it returns `None`.
    fn replay(
        &mut self,
        mode: DriveMode,
        mut next: impl FnMut(&MemoryController) -> Option<RowRun>,
    ) -> SimStats {
        self.records.clear();
        let start_makespan = self.controller.makespan();
        let start_counters = self.controller.finalized_counters();
        let mut total_latency = 0u64;
        let mut arrival = start_makespan;
        while let Some(run) = next(&self.controller) {
            let records = self.keep_records.then_some(&mut self.records);
            let served = self.controller.serve_run(run, mode, arrival, records);
            total_latency += served.latency_cycles;
            arrival = served.next_arrival;
        }

        let makespan = self.controller.makespan() - start_makespan;
        let counters = self.controller.finalized_counters().since(&start_counters);
        let energy = self.energy.breakdown(&counters, makespan);
        SimStats {
            requests: counters.reads + counters.writes,
            makespan_cycles: makespan,
            total_latency_cycles: total_latency,
            outcome_counts: counters.outcomes,
            energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::PhysicalAddress;
    use crate::timing::DramArch;

    fn addr(bank: usize, subarray: usize, row: usize, column: usize) -> PhysicalAddress {
        PhysicalAddress {
            channel: 0,
            rank: 0,
            bank,
            subarray,
            row,
            column,
        }
    }

    fn sim(arch: DramArch) -> DramSimulator {
        let geometry = match arch {
            DramArch::Ddr3 => Geometry::ddr3_2gb_x8(),
            _ => Geometry::salp_2gb_x8(),
        };
        DramSimulator::new(
            geometry,
            TimingParams::ddr3_1600k(),
            ControllerConfig::new(arch),
            EnergyParams::default(),
        )
        .unwrap()
    }

    #[test]
    fn hit_stream_reaches_tccd_pipelining() {
        let mut s = sim(DramArch::Ddr3);
        let trace: Vec<Request> = (0..64).map(|c| Request::read(addr(0, 0, 0, c))).collect();
        let stats = s.run(&trace, DriveMode::Streamed);
        // Steady state: one read per tCCD(=4) cycles, plus the initial miss.
        assert!(
            stats.cycles_per_access() < 6.0,
            "{}",
            stats.cycles_per_access()
        );
        assert_eq!(stats.outcome_count(RowBufferOutcome::Miss), 1);
        assert_eq!(stats.outcome_count(RowBufferOutcome::Hit), 63);
    }

    #[test]
    fn conflict_stream_is_trc_limited() {
        let mut s = sim(DramArch::Ddr3);
        let trace: Vec<Request> = (0..32).map(|r| Request::read(addr(0, 0, r, 0))).collect();
        let stats = s.run(&trace, DriveMode::Streamed);
        let t = TimingParams::ddr3_1600k();
        assert!(stats.cycles_per_access() >= t.t_rc as f64 * 0.8);
    }

    #[test]
    fn dependent_mode_reports_isolated_latencies() {
        let mut s = sim(DramArch::Ddr3);
        let trace = vec![
            Request::read(addr(0, 0, 0, 0)),
            Request::read(addr(0, 0, 0, 1)),
        ];
        let stats = s.run(&trace, DriveMode::Dependent);
        let t = TimingParams::ddr3_1600k();
        let expect = (t.t_rcd + t.cl + t.t_burst) + (t.cl + t.t_burst);
        assert_eq!(stats.total_latency_cycles, expect);
    }

    #[test]
    fn frfcfs_prefers_row_hits() {
        let mk_trace = || {
            vec![
                Request::read(addr(0, 0, 0, 0)),
                Request::read(addr(0, 0, 1, 0)), // conflict
                Request::read(addr(0, 0, 0, 1)), // hit if served before the conflict
                Request::read(addr(0, 0, 0, 2)),
            ]
        };
        let mut fcfs = sim(DramArch::Ddr3);
        let s1 = fcfs.run(&mk_trace(), DriveMode::Streamed);
        let cfg = ControllerConfig {
            scheduler: SchedulerKind::FrFcfs,
            ..ControllerConfig::new(DramArch::Ddr3)
        };
        let mut frf = DramSimulator::new(
            Geometry::ddr3_2gb_x8(),
            TimingParams::ddr3_1600k(),
            cfg,
            EnergyParams::default(),
        )
        .unwrap();
        let s2 = frf.run(&mk_trace(), DriveMode::Streamed);
        assert!(s2.hit_rate() > s1.hit_rate());
        assert!(s2.makespan_cycles <= s1.makespan_cycles);
    }

    #[test]
    fn masa_beats_salp1_on_subarray_pingpong() {
        let pattern: Vec<Request> = (0..32)
            .map(|i| Request::read(addr(0, i % 4, (i % 4) * 7, (i / 4) % 8)))
            .collect();
        let mut m = sim(DramArch::SalpMasa);
        let mut s1 = sim(DramArch::Salp1);
        let mut d = DramSimulator::new(
            Geometry::salp_2gb_x8(),
            TimingParams::ddr3_1600k(),
            ControllerConfig::new(DramArch::Ddr3),
            EnergyParams::default(),
        )
        .unwrap();
        let masa = m.run(&pattern, DriveMode::Streamed);
        let salp1 = s1.run(&pattern, DriveMode::Streamed);
        let ddr3 = d.run(&pattern, DriveMode::Streamed);
        assert!(masa.makespan_cycles < salp1.makespan_cycles);
        assert!(salp1.makespan_cycles < ddr3.makespan_cycles);
    }

    #[test]
    fn energy_grows_with_trace_length() {
        let mut s = sim(DramArch::Ddr3);
        let short: Vec<Request> = (0..8).map(|c| Request::read(addr(0, 0, 0, c))).collect();
        let stats_short = s.run(&short, DriveMode::Streamed);
        let mut s2 = sim(DramArch::Ddr3);
        let long: Vec<Request> = (0..80)
            .map(|c| Request::read(addr(0, 0, 0, c % 128)))
            .collect();
        let stats_long = s2.run(&long, DriveMode::Streamed);
        assert!(stats_long.energy.total() > stats_short.energy.total());
    }

    #[test]
    fn records_kept_when_enabled() {
        let mut s = sim(DramArch::Ddr3);
        s.set_keep_records(true);
        let trace = vec![Request::read(addr(0, 0, 0, 0))];
        let _ = s.run(&trace, DriveMode::Streamed);
        assert_eq!(s.records().len(), 1);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let mut s = sim(DramArch::Ddr3);
        let stats = s.run(&[], DriveMode::Streamed);
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.mean_latency_cycles(), 0.0);
        assert_eq!(stats.cycles_per_access(), 0.0);
        assert_eq!(stats.hit_rate(), 0.0);
    }

    /// Data-bus utilization: burst-transfer cycles over the makespan.
    /// 1.0 means the bus streamed data back-to-back (the tCCD limit).
    fn bus_utilization(stats: &SimStats, t_burst: u64) -> f64 {
        (stats.requests * t_burst) as f64 / stats.makespan_cycles as f64
    }

    #[test]
    fn bus_utilization_peaks_on_hit_streams() {
        let mut s = sim(DramArch::Ddr3);
        let trace: Vec<Request> = (0..128).map(|c| Request::read(addr(0, 0, 0, c))).collect();
        let stats = s.run(&trace, DriveMode::Streamed);
        let t = TimingParams::ddr3_1600k();
        let util = bus_utilization(&stats, t.t_burst);
        assert!(util > 0.85, "hit stream should saturate the bus: {util}");
        let mut s2 = sim(DramArch::Ddr3);
        let conflicts: Vec<Request> = (0..32).map(|r| Request::read(addr(0, 0, r, 0))).collect();
        let cstats = s2.run(&conflicts, DriveMode::Streamed);
        assert!(bus_utilization(&cstats, t.t_burst) < 0.2);
    }

    #[test]
    fn stats_hit_rate_counts_masa_select_hits() {
        let mut s = sim(DramArch::SalpMasa);
        // Open two subarrays, then ping-pong: re-accesses are SASEL hits.
        let trace = vec![
            Request::read(addr(0, 0, 0, 0)),
            Request::read(addr(0, 1, 1, 0)),
            Request::read(addr(0, 0, 0, 1)),
            Request::read(addr(0, 1, 1, 1)),
        ];
        let stats = s.run(&trace, DriveMode::Streamed);
        assert_eq!(stats.outcome_count(RowBufferOutcome::HitOtherSubarray), 2);
        assert_eq!(stats.hit_rate(), 0.5);
    }
}
