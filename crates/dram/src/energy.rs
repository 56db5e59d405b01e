//! Current-based DRAM energy model — the VAMPIRE substitute.
//!
//! VAMPIRE (Ghose et al., SIGMETRICS 2018) showed that DRAM energy is best
//! modelled from measured per-command currents with a data-dependence
//! correction. We implement the same structure from datasheet IDD values
//! (Micron MT41J256M8, 2 Gb x8 DDR3-1600):
//!
//! * activation/precharge pair energy from `IDD0` against the standby floor,
//! * read/write burst energy from `IDD4R`/`IDD4W` with a toggle-rate factor,
//! * background energy split into active standby (`IDD3N`) and precharged
//!   standby (`IDD2N`),
//! * refresh energy from `IDD5B`,
//! * I/O and termination energy per transferred bit,
//! * a small adder for additionally-open subarrays under SALP-MASA.

use crate::command::CommandKind;
use crate::controller::ActivityCounters;
use crate::device::Device;
use crate::error::ConfigError;

/// Datasheet currents (in amperes) and voltages for the energy model.
///
/// # Examples
///
/// ```
/// use drmap_dram::energy::EnergyParams;
///
/// let p = EnergyParams::micron_2gb_x8();
/// assert!(p.idd4r > p.idd3n);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Supply voltage (V).
    pub vdd: f64,
    /// One-bank activate-precharge current (A).
    pub idd0: f64,
    /// Precharged standby current (A).
    pub idd2n: f64,
    /// Active standby current (A).
    pub idd3n: f64,
    /// Burst read current (A).
    pub idd4r: f64,
    /// Burst write current (A).
    pub idd4w: f64,
    /// Burst refresh current (A).
    pub idd5b: f64,
    /// I/O energy per read bit (J/bit), driver + bus.
    pub read_io_pj_per_bit: f64,
    /// Termination energy per written bit (J/bit).
    pub write_term_pj_per_bit: f64,
    /// Fraction of the burst dynamic energy that is data-independent.
    pub static_burst_fraction: f64,
    /// Average bitline/dataline toggle rate of transferred data (0..=1);
    /// VAMPIRE's data-dependence knob. 0.5 models random data.
    pub toggle_rate: f64,
    /// Extra standby power per additionally-open subarray, as a fraction of
    /// the active-vs-precharged standby delta (SALP-MASA bookkeeping).
    pub extra_subarray_fraction: f64,
    /// Energy per SASEL command (J): latch switch only.
    pub sasel_nj: f64,
}

impl EnergyParams {
    /// Micron MT41J256M8 (2 Gb x8 DDR3-1600) datasheet values.
    pub fn micron_2gb_x8() -> Self {
        EnergyParams {
            vdd: 1.5,
            idd0: 0.095,
            idd2n: 0.042,
            idd3n: 0.067,
            idd4r: 0.180,
            idd4w: 0.185,
            idd5b: 0.215,
            read_io_pj_per_bit: 4.6e-12,
            write_term_pj_per_bit: 2.1e-12,
            static_burst_fraction: 0.6,
            toggle_rate: 0.5,
            extra_subarray_fraction: 0.2,
            sasel_nj: 0.05e-9,
        }
    }

    /// Validate ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if a current ordering is inconsistent
    /// (`idd0 <= idd3n`, `idd4r <= idd3n`, ...) or a fraction is outside
    /// `[0, 1]`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.vdd <= 0.0 {
            return Err(ConfigError::new("vdd must be positive"));
        }
        if self.idd0 <= self.idd3n {
            return Err(ConfigError::new("idd0 must exceed idd3n"));
        }
        if self.idd4r <= self.idd3n || self.idd4w <= self.idd3n {
            return Err(ConfigError::new("idd4r/idd4w must exceed idd3n"));
        }
        if self.idd3n <= self.idd2n {
            return Err(ConfigError::new("idd3n must exceed idd2n"));
        }
        for (name, v) in [
            ("static_burst_fraction", self.static_burst_fraction),
            ("toggle_rate", self.toggle_rate),
            ("extra_subarray_fraction", self.extra_subarray_fraction),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(ConfigError::new(format!("{name} must be within [0, 1]")));
            }
        }
        Ok(())
    }
}

/// Energy consumed by a simulated interval, broken down by source.
/// All values in joules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Activation + precharge pair energy.
    pub act_pre: f64,
    /// Read burst energy (array + I/O).
    pub read: f64,
    /// Write burst energy (array + termination).
    pub write: f64,
    /// Active + precharged standby energy.
    pub background: f64,
    /// Refresh energy.
    pub refresh: f64,
    /// SASEL energy (MASA only).
    pub sasel: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total(&self) -> f64 {
        self.act_pre + self.read + self.write + self.background + self.refresh + self.sasel
    }
}

/// Computes [`EnergyBreakdown`]s from controller activity.
///
/// # Examples
///
/// ```
/// use drmap_dram::device::Device;
/// use drmap_dram::energy::EnergyModel;
///
/// let model = EnergyModel::new(&Device::table_ii());
/// assert!(model.act_pre_energy() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyModel {
    device: Device,
}

impl EnergyModel {
    /// Create an energy model for the given device.
    pub fn new(device: &Device) -> Self {
        EnergyModel { device: *device }
    }

    fn ns(&self, cycles: u64) -> f64 {
        self.device.timing().cycles_to_ns(cycles) * 1e-9
    }

    /// Energy of one ACT/PRE pair in one chip (J):
    /// `(IDD0·tRC − IDD3N·tRAS − IDD2N·(tRC − tRAS))·VDD`.
    pub fn act_pre_energy(&self) -> f64 {
        let p = self.device.energy();
        let t = self.device.timing();
        (p.idd0 * self.ns(t.t_rc)
            - p.idd3n * self.ns(t.t_ras)
            - p.idd2n * self.ns(t.t_rc - t.t_ras))
            * p.vdd
    }

    /// Array energy of one burst: the datasheet `IDD4` delta corresponds to
    /// random data (toggle rate 0.5); the data-dependent share scales
    /// linearly with the toggle rate, per VAMPIRE's observation.
    fn burst_array_energy(&self, idd4: f64) -> f64 {
        let p = self.device.energy();
        let base = (idd4 - p.idd3n) * p.vdd * self.ns(self.device.timing().t_burst);
        let data_dependent = 1.0 - p.static_burst_fraction;
        base * (p.static_burst_fraction + data_dependent * 2.0 * p.toggle_rate)
    }

    /// Bits transferred by one burst in one chip.
    fn burst_bits_per_chip(&self) -> f64 {
        let g = self.device.geometry();
        (g.device_width * g.burst_length) as f64
    }

    /// Energy of one read burst in one chip (J), including I/O.
    pub(crate) fn read_energy(&self) -> f64 {
        self.burst_array_energy(self.device.energy().idd4r)
            + self.device.energy().read_io_pj_per_bit * self.burst_bits_per_chip()
    }

    /// Energy of one write burst in one chip (J), including termination.
    pub(crate) fn write_energy(&self) -> f64 {
        self.burst_array_energy(self.device.energy().idd4w)
            + self.device.energy().write_term_pj_per_bit * self.burst_bits_per_chip()
    }

    /// Energy of one refresh in one chip (J).
    pub(crate) fn refresh_energy(&self) -> f64 {
        let p = self.device.energy();
        (p.idd5b - p.idd3n) * p.vdd * self.ns(self.device.timing().t_rfc)
    }

    /// Active-standby power per chip (W).
    pub(crate) fn active_standby_power(&self) -> f64 {
        self.device.energy().idd3n * self.device.energy().vdd
    }

    /// Precharged-standby power per chip (W).
    pub(crate) fn precharged_standby_power(&self) -> f64 {
        self.device.energy().idd2n * self.device.energy().vdd
    }

    /// Full breakdown for a simulated interval.
    ///
    /// `makespan_cycles` is the wall-clock length of the interval;
    /// `counters` the finalized controller activity. Chip count scales every
    /// component (chips in a rank operate in lock-step).
    pub fn breakdown(&self, counters: &ActivityCounters, makespan_cycles: u64) -> EnergyBreakdown {
        let g = self.device.geometry();
        let chips = g.chips as f64;
        let p = self.device.energy();
        let acts = counters.command_count(CommandKind::Activate) as f64;
        let reads = counters.command_count(CommandKind::Read) as f64;
        let writes = counters.command_count(CommandKind::Write) as f64;
        let refs = counters.command_count(CommandKind::Refresh) as f64;
        let sasels = counters.command_count(CommandKind::SubarraySelect) as f64;

        let total_ranks = (g.channels * g.ranks) as f64;
        let active = self.ns(counters
            .rank_active_cycles
            .min(makespan_cycles * g.channels as u64 * g.ranks as u64));
        let total_time = self.ns(makespan_cycles) * total_ranks;
        let precharged = (total_time - active).max(0.0);
        let mut background =
            active * self.active_standby_power() + precharged * self.precharged_standby_power();

        // Additionally-open subarrays (MASA) leak a fraction of the
        // active-standby delta each.
        let extra_sa_cycles = counters
            .subarray_open_cycles
            .saturating_sub(counters.bank_active_cycles);
        background += self.ns(extra_sa_cycles)
            * (self.active_standby_power() - self.precharged_standby_power())
            * p.extra_subarray_fraction;

        EnergyBreakdown {
            act_pre: acts * self.act_pre_energy() * chips,
            read: reads * self.read_energy() * chips,
            write: writes * self.write_energy() * chips,
            background: background * chips,
            refresh: refs * self.refresh_energy() * chips,
            sasel: sasels * p.sasel_nj * chips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;
    use crate::timing::TimingParams;

    /// The model of the DDR3 2 Gb x8 device with `params`.
    fn model_with(geometry: Geometry, params: EnergyParams) -> EnergyModel {
        EnergyModel::new(&Device::new(geometry, TimingParams::ddr3_1600k(), params).unwrap())
    }

    fn model() -> EnergyModel {
        model_with(Geometry::ddr3_2gb_x8(), EnergyParams::micron_2gb_x8())
    }

    #[test]
    fn act_pre_energy_in_nanojoule_range() {
        let e = model().act_pre_energy();
        assert!(e > 0.5e-9 && e < 10e-9, "got {e}");
    }

    #[test]
    fn read_energy_exceeds_write_array_delta() {
        let m = model();
        assert!(m.read_energy() > 0.0);
        assert!(m.write_energy() > 0.0);
        // Both are sub-conflict scale (< act/pre energy).
        assert!(m.read_energy() < m.act_pre_energy());
    }

    #[test]
    fn refresh_energy_dominates_single_act() {
        let m = model();
        assert!(m.refresh_energy() > m.act_pre_energy());
    }

    #[test]
    fn standby_power_ordering() {
        let m = model();
        assert!(m.active_standby_power() > m.precharged_standby_power());
    }

    #[test]
    fn breakdown_scales_with_commands() {
        let m = model();
        let mut c = ActivityCounters::default();
        c.commands[0] = 10; // ACT
        c.commands[2] = 100; // RD
        let b = m.breakdown(&c, 1000);
        assert!((b.act_pre - 10.0 * m.act_pre_energy()).abs() < 1e-15);
        assert!((b.read - 100.0 * m.read_energy()).abs() < 1e-15);
        assert_eq!(b.write, 0.0);
        assert!(b.background > 0.0);
        assert!(b.total() > b.act_pre);
    }

    #[test]
    fn background_splits_active_and_precharged() {
        let m = model();
        let idle = ActivityCounters::default();
        let all_active = ActivityCounters {
            rank_active_cycles: 1000,
            ..ActivityCounters::default()
        };
        let b_idle = m.breakdown(&idle, 1000);
        let b_active = m.breakdown(&all_active, 1000);
        assert!(b_active.background > b_idle.background);
    }

    #[test]
    fn masa_extra_subarrays_add_background() {
        let m = model();
        let base = ActivityCounters {
            rank_active_cycles: 1000,
            bank_active_cycles: 1000,
            subarray_open_cycles: 1000,
            ..ActivityCounters::default()
        };
        let masa = ActivityCounters {
            subarray_open_cycles: 8000,
            ..base.clone()
        };
        assert!(m.breakdown(&masa, 1000).background > m.breakdown(&base, 1000).background);
    }

    #[test]
    fn toggle_rate_scales_burst_energy() {
        let mut lo = EnergyParams::micron_2gb_x8();
        lo.toggle_rate = 0.0;
        let mut hi = EnergyParams::micron_2gb_x8();
        hi.toggle_rate = 1.0;
        let m_lo = model_with(Geometry::ddr3_2gb_x8(), lo);
        let m_hi = model_with(Geometry::ddr3_2gb_x8(), hi);
        assert!(m_hi.read_energy() > m_lo.read_energy());
    }

    #[test]
    fn params_validation_catches_bad_orderings() {
        let mut p = EnergyParams::micron_2gb_x8();
        p.idd0 = p.idd3n;
        assert!(p.validate().is_err());
        let mut p2 = EnergyParams::micron_2gb_x8();
        p2.toggle_rate = 1.5;
        assert!(p2.validate().is_err());
    }

    #[test]
    fn chips_scale_every_component() {
        let g8 = Geometry {
            chips: 8,
            ..Geometry::ddr3_2gb_x8()
        };
        let m1 = model();
        let m8 = model_with(g8, EnergyParams::micron_2gb_x8());
        let mut c = ActivityCounters::default();
        c.commands[0] = 1;
        let b1 = m1.breakdown(&c, 100);
        let b8 = m8.breakdown(&c, 100);
        assert!((b8.act_pre / b1.act_pre - 8.0).abs() < 1e-9);
    }
}
