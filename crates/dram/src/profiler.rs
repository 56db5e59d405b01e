//! The access-condition profiler: regenerates the per-access latency and
//! energy values of Fig. 1 and produces the [`AccessCostTable`] that the
//! analytical EDP model (Eq. 2/3 of the paper) consumes.
//!
//! Two views are provided:
//!
//! * [`Profiler::fig1_condition`] measures each of the paper's five
//!   access conditions with the paper's semantics: isolated (dependent)
//!   accesses for hit/miss/conflict, and streamed sweeps for subarray- and
//!   bank-level parallelism.
//! * [`Profiler::cost_table`] measures the four *transition classes* of
//!   Eq. 2/3 (`dif_column`, `dif_banks`, `dif_subarrays`, `dif_rows`) under
//!   streamed access — the way a CNN accelerator's DMA engine actually
//!   fetches tile data — separately for reads and writes.

use core::fmt;

use crate::controller::ControllerConfig;
use crate::device::Device;
use crate::error::ConfigError;
use crate::geometry::Level;
use crate::request::{DriveMode, Request, RequestKind};
use crate::sim::DramSimulator;
use crate::state::RowBufferOutcome;
use crate::timing::DramArch;
use crate::trace::TraceBuilder;

/// The five access conditions of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessCondition {
    /// Requested row already in the row buffer.
    RowBufferHit,
    /// No row open; activation required.
    RowBufferMiss,
    /// Wrong row open; precharge + activation required.
    RowBufferConflict,
    /// Alternating accesses across subarrays of one bank.
    SubarrayParallel,
    /// Alternating accesses across banks.
    BankParallel,
}

impl AccessCondition {
    /// All conditions in the order Fig. 1 plots them.
    pub const ALL: [AccessCondition; 5] = [
        AccessCondition::RowBufferHit,
        AccessCondition::RowBufferMiss,
        AccessCondition::RowBufferConflict,
        AccessCondition::SubarrayParallel,
        AccessCondition::BankParallel,
    ];

    /// Axis label matching the paper's figure.
    pub fn label(self) -> &'static str {
        match self {
            AccessCondition::RowBufferHit => "Row buffer hit",
            AccessCondition::RowBufferMiss => "Row buffer miss",
            AccessCondition::RowBufferConflict => "Row buffer conflict",
            AccessCondition::SubarrayParallel => "Subarray-level parallelism",
            AccessCondition::BankParallel => "Bank-level parallelism",
        }
    }
}

impl fmt::Display for AccessCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The four transition classes of Eq. 2/3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionClass {
    /// Next access differs only in column: a row-buffer hit.
    DifColumn,
    /// Next access moves to a different bank (bank-level parallelism).
    DifBank,
    /// Next access moves to a different subarray of the same bank.
    DifSubarray,
    /// Next access moves to a different row of the same subarray: a
    /// row-buffer conflict. A tile's first access is also costed here.
    DifRow,
}

impl TransitionClass {
    /// All classes.
    pub const ALL: [TransitionClass; 4] = [
        TransitionClass::DifColumn,
        TransitionClass::DifBank,
        TransitionClass::DifSubarray,
        TransitionClass::DifRow,
    ];

    /// Map an address-divergence level to its transition class.
    ///
    /// Rank and channel divergences behave like bank-level parallelism
    /// (independent resources), so they cost as [`TransitionClass::DifBank`].
    pub fn from_level(level: Level) -> Self {
        match level {
            Level::Column => TransitionClass::DifColumn,
            Level::Bank | Level::Rank | Level::Channel | Level::Chip => TransitionClass::DifBank,
            Level::Subarray => TransitionClass::DifSubarray,
            Level::Row => TransitionClass::DifRow,
        }
    }

    /// Short name used in tables (`dif_column`, ...).
    pub(crate) fn name(self) -> &'static str {
        match self {
            TransitionClass::DifColumn => "dif_column",
            TransitionClass::DifBank => "dif_banks",
            TransitionClass::DifSubarray => "dif_subarrays",
            TransitionClass::DifRow => "dif_rows",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            TransitionClass::DifColumn => 0,
            TransitionClass::DifBank => 1,
            TransitionClass::DifSubarray => 2,
            TransitionClass::DifRow => 3,
        }
    }
}

impl fmt::Display for TransitionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Measured per-access cost: cycles and energy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccessCost {
    /// Average cycles per access.
    pub cycles: f64,
    /// Average energy per access in joules.
    pub energy: f64,
}

/// Per-architecture cost table for the four transition classes, split by
/// request direction. This is the hand-off artefact from the DRAM
/// simulator to the analytical DSE (the paper's Fig. 8 arrow from
/// Ramulator/VAMPIRE into the in-house simulator).
#[derive(Debug, Clone, PartialEq)]
pub struct AccessCostTable {
    /// Architecture the table was measured on.
    pub arch: DramArch,
    read: [AccessCost; 4],
    write: [AccessCost; 4],
    /// Clock period used, for cycle→seconds conversion downstream.
    pub t_ck_ns: f64,
}

impl AccessCostTable {
    /// Cost of one access of the given class and direction.
    #[inline]
    pub fn cost(&self, class: TransitionClass, kind: RequestKind) -> AccessCost {
        match kind {
            RequestKind::Read => self.read[class.index()],
            RequestKind::Write => self.write[class.index()],
        }
    }

    /// Build a table from explicit entries (useful for tests and for
    /// feeding externally measured values, e.g. from real Ramulator runs).
    /// Any entries are accepted here; `drmap-core`'s `DseEngine::new`
    /// refuses a table its bound cannot serve: a class cost that is not
    /// `0` or a normal number in `(0, 2⁵¹²]`, or a clock that is not
    /// finite and non-negative.
    pub fn from_costs(
        arch: DramArch,
        read: [AccessCost; 4],
        write: [AccessCost; 4],
        t_ck_ns: f64,
    ) -> Self {
        AccessCostTable {
            arch,
            read,
            write,
            t_ck_ns,
        }
    }
}

/// Measures access-condition costs on the DRAM simulator.
///
/// # Examples
///
/// ```
/// use drmap_dram::profiler::Profiler;
/// use drmap_dram::timing::DramArch;
///
/// let profiler = Profiler::table_ii()?;
/// let table = profiler.cost_table(DramArch::Ddr3);
/// let hit = table.cost(
///     drmap_dram::profiler::TransitionClass::DifColumn,
///     drmap_dram::request::RequestKind::Read,
/// );
/// assert!(hit.cycles < 10.0);
/// # Ok::<(), drmap_dram::error::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Profiler {
    device: Device,
    /// Sweep rounds for the streamed patterns.
    rounds: usize,
}

impl Profiler {
    /// Profiler for [`Device::table_ii`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if [`Profiler::new`] refuses the Table II
    /// device (it does not).
    pub fn table_ii() -> Result<Self, ConfigError> {
        Self::new(Device::table_ii())
    }

    /// Profiler for a custom device.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the geometry has fewer than two banks or
    /// subarrays (the sweep patterns need them).
    pub fn new(device: Device) -> Result<Self, ConfigError> {
        if device.geometry().banks < 2 {
            return Err(ConfigError::new("profiler needs at least 2 banks"));
        }
        if device.geometry().subarrays < 2 {
            return Err(ConfigError::new(
                "profiler needs at least 2 subarrays per bank",
            ));
        }
        Ok(Profiler { device, rounds: 16 })
    }

    /// The device the profiler measures.
    pub fn device(&self) -> &Device {
        &self.device
    }

    fn simulator(&self, arch: DramArch) -> DramSimulator {
        DramSimulator::on(&self.device, ControllerConfig::new(arch))
            .expect("the profiler's device has the subarrays SALP needs")
    }

    fn measure(&self, arch: DramArch, trace: &[Request], mode: DriveMode) -> AccessCost {
        let mut sim = self.simulator(arch);
        let stats = sim.run(trace, mode);
        let cycles = if mode.is_serialized() {
            stats.mean_latency_cycles()
        } else {
            stats.cycles_per_access()
        };
        AccessCost {
            cycles,
            energy: stats.energy_per_access(),
        }
    }

    /// Gap that quiesces all bank-local timings (tRC is the longest).
    fn isolation_gap(&self) -> DriveMode {
        DriveMode::Spaced(self.device.timing().t_rc)
    }

    fn with_kind(trace: Vec<Request>, kind: RequestKind) -> Vec<Request> {
        trace.into_iter().map(|r| Request { kind, ..r }).collect()
    }

    /// Measure one Fig. 1 condition for the given architecture.
    pub fn fig1_condition(
        &self,
        arch: DramArch,
        condition: AccessCondition,
        kind: RequestKind,
    ) -> AccessCost {
        let geometry = self.device.geometry();
        let (banks, subarrays) = (geometry.banks, geometry.subarrays);
        match condition {
            AccessCondition::RowBufferHit => {
                // Isolated hits: one warm-up miss then spaced hits.
                let trace = Self::with_kind(
                    TraceBuilder::new()
                        .sequential_columns(0, 0, 0, geometry.bursts_per_row().min(64))
                        .build(),
                    kind,
                );
                self.average_outcome(arch, &trace, RowBufferOutcome::Hit)
            }
            AccessCondition::RowBufferMiss => {
                // First touch of each bank: pure misses, isolated.
                let trace = Self::with_kind(TraceBuilder::new().bank_sweep(banks, 1).build(), kind);
                self.measure(arch, &trace, self.isolation_gap())
            }
            AccessCondition::RowBufferConflict => {
                let trace =
                    Self::with_kind(TraceBuilder::new().row_conflicts(0, 0, 48).build(), kind);
                self.average_outcome(arch, &trace, RowBufferOutcome::Conflict)
            }
            AccessCondition::SubarrayParallel => {
                let trace = Self::with_kind(
                    TraceBuilder::new()
                        .subarray_sweep(0, subarrays, self.rounds)
                        .build(),
                    kind,
                );
                self.measure(arch, &trace, DriveMode::Streamed)
            }
            AccessCondition::BankParallel => {
                let trace = Self::with_kind(
                    TraceBuilder::new().bank_sweep(banks, self.rounds).build(),
                    kind,
                );
                self.measure(arch, &trace, DriveMode::Streamed)
            }
        }
    }

    /// One isolated run of `trace`: the average latency over requests with
    /// the given outcome, and the run's energy divided by all requests (the
    /// warm-up access amortizes).
    fn average_outcome(
        &self,
        arch: DramArch,
        trace: &[Request],
        outcome: RowBufferOutcome,
    ) -> AccessCost {
        let mut sim = self.simulator(arch);
        sim.set_keep_records(true);
        let stats = sim.run(trace, self.isolation_gap());
        let matching: Vec<u64> = sim
            .records()
            .iter()
            .filter(|r| r.outcome == outcome)
            .map(|r| r.latency())
            .collect();
        let cycles = if matching.is_empty() {
            0.0
        } else {
            matching.iter().sum::<u64>() as f64 / matching.len() as f64
        };
        AccessCost {
            cycles,
            energy: stats.energy_per_access(),
        }
    }

    /// Measure the streamed per-access cost of one transition class.
    pub(crate) fn transition_cost(
        &self,
        arch: DramArch,
        class: TransitionClass,
        kind: RequestKind,
    ) -> AccessCost {
        let geometry = self.device.geometry();
        let (banks, subarrays) = (geometry.banks, geometry.subarrays);
        let trace = match class {
            TransitionClass::DifColumn => TraceBuilder::new()
                .sequential_columns(0, 0, 0, geometry.bursts_per_row())
                .build(),
            TransitionClass::DifBank => TraceBuilder::new().bank_sweep(banks, self.rounds).build(),
            TransitionClass::DifSubarray => TraceBuilder::new()
                .subarray_sweep(0, subarrays, self.rounds)
                .build(),
            TransitionClass::DifRow => TraceBuilder::new().row_conflicts(0, 0, 64).build(),
        };
        self.measure(arch, &Self::with_kind(trace, kind), DriveMode::Streamed)
    }

    /// Produce the full [`AccessCostTable`] for one architecture.
    pub fn cost_table(&self, arch: DramArch) -> AccessCostTable {
        let mut read = [AccessCost::default(); 4];
        let mut write = [AccessCost::default(); 4];
        for class in TransitionClass::ALL {
            read[class.index()] = self.transition_cost(arch, class, RequestKind::Read);
            write[class.index()] = self.transition_cost(arch, class, RequestKind::Write);
        }
        AccessCostTable {
            arch,
            read,
            write,
            t_ck_ns: self.device.timing().t_ck_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;

    fn profiler() -> Profiler {
        Profiler {
            rounds: 4,
            ..Profiler::table_ii().unwrap()
        }
    }

    #[test]
    fn isolated_hit_miss_conflict_latencies_match_theory() {
        let p = profiler();
        let t = p.device().timing();
        let hit = p.fig1_condition(
            DramArch::Ddr3,
            AccessCondition::RowBufferHit,
            RequestKind::Read,
        );
        let miss = p.fig1_condition(
            DramArch::Ddr3,
            AccessCondition::RowBufferMiss,
            RequestKind::Read,
        );
        let conflict = p.fig1_condition(
            DramArch::Ddr3,
            AccessCondition::RowBufferConflict,
            RequestKind::Read,
        );
        assert_eq!(hit.cycles, (t.cl + t.t_burst) as f64);
        assert_eq!(miss.cycles, (t.t_rcd + t.cl + t.t_burst) as f64);
        assert_eq!(
            conflict.cycles,
            (t.t_rp + t.t_rcd + t.cl + t.t_burst) as f64
        );
    }

    #[test]
    fn fig1_ordering_hit_lt_miss_lt_conflict() {
        let p = profiler();
        for arch in DramArch::ALL {
            let hit = p.fig1_condition(arch, AccessCondition::RowBufferHit, RequestKind::Read);
            let miss = p.fig1_condition(arch, AccessCondition::RowBufferMiss, RequestKind::Read);
            let conflict =
                p.fig1_condition(arch, AccessCondition::RowBufferConflict, RequestKind::Read);
            assert!(hit.cycles < miss.cycles, "{arch}");
            assert!(miss.cycles < conflict.cycles, "{arch}");
            assert!(hit.energy < miss.energy, "{arch}");
            assert!(miss.energy <= conflict.energy * 1.05, "{arch}");
        }
    }

    #[test]
    fn salp_subarray_parallelism_ladder() {
        let p = profiler();
        let cost = |a| {
            p.fig1_condition(a, AccessCondition::SubarrayParallel, RequestKind::Read)
                .cycles
        };
        let ddr3 = cost(DramArch::Ddr3);
        let salp1 = cost(DramArch::Salp1);
        let salp2 = cost(DramArch::Salp2);
        let masa = cost(DramArch::SalpMasa);
        assert!(ddr3 > salp1, "DDR3 {ddr3} vs SALP-1 {salp1}");
        assert!(salp1 >= salp2, "SALP-1 {salp1} vs SALP-2 {salp2}");
        assert!(salp2 > masa, "SALP-2 {salp2} vs MASA {masa}");
    }

    #[test]
    fn bank_parallelism_similar_across_archs_and_cheap() {
        let p = profiler();
        let costs: Vec<f64> = DramArch::ALL
            .iter()
            .map(|&a| {
                p.fig1_condition(a, AccessCondition::BankParallel, RequestKind::Read)
                    .cycles
            })
            .collect();
        let conflict = p
            .fig1_condition(
                DramArch::Ddr3,
                AccessCondition::RowBufferConflict,
                RequestKind::Read,
            )
            .cycles;
        for &c in &costs {
            assert!(c < conflict / 2.0, "bank parallelism should be cheap: {c}");
        }
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = costs.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 1.5, "BLP should be arch-insensitive: {costs:?}");
    }

    #[test]
    fn cost_table_orderings_for_dse() {
        let p = profiler();
        for arch in DramArch::ALL {
            let t = p.cost_table(arch);
            let col = t.cost(TransitionClass::DifColumn, RequestKind::Read);
            let bank = t.cost(TransitionClass::DifBank, RequestKind::Read);
            let sa = t.cost(TransitionClass::DifSubarray, RequestKind::Read);
            let row = t.cost(TransitionClass::DifRow, RequestKind::Read);
            // The DRMap priority order: columns cheapest, rows dearest.
            assert!(col.cycles <= bank.cycles, "{arch}: col vs bank");
            assert!(bank.cycles <= sa.cycles * 1.01, "{arch}: bank vs subarray");
            assert!(sa.cycles <= row.cycles * 1.01, "{arch}: subarray vs row");
        }
    }

    #[test]
    fn ddr3_subarray_equals_conflict_class() {
        let p = profiler();
        let t = p.cost_table(DramArch::Ddr3);
        let sa = t.cost(TransitionClass::DifSubarray, RequestKind::Read);
        let row = t.cost(TransitionClass::DifRow, RequestKind::Read);
        // On DDR3, crossing subarrays is just a row conflict.
        assert!((sa.cycles - row.cycles).abs() / row.cycles < 0.25);
    }

    #[test]
    fn masa_subarray_class_close_to_bank_class() {
        let p = profiler();
        let t = p.cost_table(DramArch::SalpMasa);
        let sa = t.cost(TransitionClass::DifSubarray, RequestKind::Read);
        let bank = t.cost(TransitionClass::DifBank, RequestKind::Read);
        let row = t.cost(TransitionClass::DifRow, RequestKind::Read);
        assert!(sa.cycles < row.cycles / 2.0);
        assert!(sa.cycles < bank.cycles * 3.0);
    }

    #[test]
    fn write_costs_at_least_read_costs_for_conflicts() {
        let p = profiler();
        let t = p.cost_table(DramArch::Ddr3);
        let rd = t.cost(TransitionClass::DifRow, RequestKind::Read);
        let wr = t.cost(TransitionClass::DifRow, RequestKind::Write);
        assert!(wr.cycles >= rd.cycles * 0.9);
    }

    #[test]
    fn transition_class_from_level() {
        assert_eq!(
            TransitionClass::from_level(Level::Column),
            TransitionClass::DifColumn
        );
        assert_eq!(
            TransitionClass::from_level(Level::Rank),
            TransitionClass::DifBank
        );
        assert_eq!(
            TransitionClass::from_level(Level::Subarray),
            TransitionClass::DifSubarray
        );
        assert_eq!(
            TransitionClass::from_level(Level::Row),
            TransitionClass::DifRow
        );
    }

    #[test]
    fn profiler_rejects_single_bank() {
        let table_ii = Device::table_ii();
        let g = Geometry {
            banks: 1,
            ..*table_ii.geometry()
        };
        let device = Device::new(g, *table_ii.timing(), *table_ii.energy()).unwrap();
        let err = Profiler::new(device).unwrap_err();
        assert!(err.to_string().contains("2 banks"), "{err}");
    }

    #[test]
    fn from_costs_roundtrip() {
        let costs = [AccessCost {
            cycles: 1.0,
            energy: 2.0,
        }; 4];
        let t = AccessCostTable::from_costs(DramArch::Ddr3, costs, costs, 1.25);
        assert_eq!(
            t.cost(TransitionClass::DifRow, RequestKind::Write).cycles,
            1.0
        );
    }
}
