//! A DRAM device: one part's organization, speed grade and currents,
//! checked together once. As in Ramulator (standard, organization, speed
//! grade) and VAMPIRE (currents per part), a [`Device`] is one value, and
//! every consumer — profiler, simulator, controller, energy model — takes
//! one instead of re-checking three loose parameters.

use crate::energy::EnergyParams;
use crate::error::ConfigError;
use crate::geometry::Geometry;
use crate::timing::TimingParams;

/// One DRAM part: a geometry, timing and energy parameters that passed
/// their checks.
///
/// # Examples
///
/// ```
/// use drmap_dram::device::Device;
/// use drmap_dram::geometry::Geometry;
///
/// let table_ii = Device::table_ii();
/// assert_eq!(table_ii.geometry().subarrays, 8);
///
/// let ddr3 = Device::new(Geometry::ddr3_2gb_x8(), *table_ii.timing(), *table_ii.energy())?;
/// assert_eq!(ddr3.geometry().subarrays, 1);
/// # Ok::<(), drmap_dram::error::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Device {
    geometry: Geometry,
    timing: TimingParams,
    energy: EnergyParams,
}

impl Device {
    /// Check the three parts and bundle them.
    ///
    /// # Errors
    ///
    /// Returns the first part's [`ConfigError`]: see
    /// [`Geometry::validate`], [`TimingParams::validate`] and
    /// [`EnergyParams::validate`].
    pub fn new(
        geometry: Geometry,
        timing: TimingParams,
        energy: EnergyParams,
    ) -> Result<Self, ConfigError> {
        geometry.validate()?;
        timing.validate()?;
        energy.validate()?;
        Ok(Device {
            geometry,
            timing,
            energy,
        })
    }

    /// The paper's Table II device: the SALP 2 Gb x8 geometry (eight
    /// subarrays per bank, used for every architecture so footprints are
    /// identical; DDR3 simply does not exploit the subarrays), DDR3-1600K
    /// timing and Micron 2 Gb x8 currents.
    pub fn table_ii() -> Self {
        Self::new(
            Geometry::salp_2gb_x8(),
            TimingParams::ddr3_1600k(),
            EnergyParams::micron_2gb_x8(),
        )
        .expect("the Table II device is valid")
    }

    /// The device's organization.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The device's timing parameters.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// The device's datasheet currents and voltages.
    pub fn energy(&self) -> &EnergyParams {
        &self.energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_refuses_each_bad_part_by_name_and_table_ii_is_the_presets() {
        let (g, t, e) = (
            Geometry::salp_2gb_x8(),
            TimingParams::ddr3_1600k(),
            EnergyParams::micron_2gb_x8(),
        );
        let bad_geometry = Geometry { rows: 0, ..g };
        let bad_timing = TimingParams { t_rc: 10, ..t };
        let bad_energy = EnergyParams {
            toggle_rate: 1.5,
            ..e
        };
        for (device, part) in [
            (Device::new(bad_geometry, t, e), "rows"),
            (Device::new(g, bad_timing, e), "t_rc"),
            (Device::new(g, t, bad_energy), "toggle_rate"),
        ] {
            let err = device.unwrap_err().to_string();
            assert!(err.contains(part), "{err:?} does not name {part}");
        }

        let table_ii = Device::table_ii();
        assert_eq!(*table_ii.geometry(), g);
        assert_eq!(*table_ii.timing(), t);
        assert_eq!(*table_ii.energy(), e);
        assert_eq!(Device::new(g, t, e), Ok(table_ii));
    }
}
