//! Physical DRAM addresses and linear-address codecs.
//!
//! A [`PhysicalAddress`] names one burst-sized slot in the device:
//! `(channel, rank, bank, subarray, row, column)`. Chips within a rank
//! operate in lock-step and therefore share the address; the chip level is
//! not part of the address tuple.
//!
//! [`AddressCodec`] converts between a flat burst index (what a mapping
//! policy produces) and a physical address, for any interleaving order,
//! and walks a range of indices as row runs ([`AddressCodec::runs`]).
//!
//! # Walking a range in pieces
//!
//! A walk decodes its start once and then advances its digits like an
//! odometer: each run adds its length to the innermost digit. A run that
//! reaches the end of its row fills that digit, which wraps to 0 and
//! carries 1 outward. [`AddressRuns::take_units`] hands a range out in
//! pieces, as a traffic class's tiles lie back to back: a run that a
//! piece's end cuts short leaves the innermost digit at the cut and
//! carries nothing, so the next piece's first run starts there, mid-row.
//! Each piece's runs are thus those of a walk of that piece alone, and a
//! class of tiles costs one decode however many tiles it has.

use core::fmt;

use crate::error::AddressError;
use crate::geometry::{Geometry, Level};

/// One burst-sized physical DRAM location.
///
/// `row` is the row index *within the subarray* (see
/// [`Geometry::level_size`]); the absolute row within the bank is
/// `subarray * rows_per_subarray + row`.
///
/// # Examples
///
/// ```
/// use drmap_dram::address::PhysicalAddress;
///
/// let a = PhysicalAddress { channel: 0, rank: 0, bank: 3, subarray: 1, row: 42, column: 7 };
/// assert_eq!(a.bank, 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysicalAddress {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Subarray index within the bank.
    pub subarray: usize,
    /// Row index within the subarray.
    pub row: usize,
    /// Column index in burst units within the row.
    pub column: usize,
}

impl PhysicalAddress {
    /// Coordinate of this address at `level`.
    ///
    /// # Examples
    ///
    /// ```
    /// use drmap_dram::address::PhysicalAddress;
    /// use drmap_dram::geometry::Level;
    ///
    /// let a = PhysicalAddress { bank: 5, ..PhysicalAddress::default() };
    /// assert_eq!(a.coordinate(Level::Bank), 5);
    /// ```
    pub fn coordinate(&self, level: Level) -> usize {
        match level {
            Level::Channel => self.channel,
            Level::Rank => self.rank,
            Level::Chip => 0,
            Level::Bank => self.bank,
            Level::Subarray => self.subarray,
            Level::Row => self.row,
            Level::Column => self.column,
        }
    }

    /// The address whose coordinates, in [`Level::ALL`] order, are
    /// `coords`.
    fn from_coords([channel, rank, bank, subarray, row, column]: [usize; 6]) -> Self {
        PhysicalAddress {
            channel,
            rank,
            bank,
            subarray,
            row,
            column,
        }
    }

    /// Check that every coordinate is within `geometry`.
    ///
    /// # Errors
    ///
    /// Returns [`AddressError`] naming the first out-of-range level.
    pub fn validate(&self, geometry: &Geometry) -> Result<(), AddressError> {
        for level in Level::ALL {
            let size = geometry.level_size(level);
            let coord = self.coordinate(level);
            if coord >= size {
                return Err(AddressError::new(format!(
                    "{} {} out of range (size {})",
                    level, coord, size
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for PhysicalAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{} ra{} ba{} sa{} ro{} co{}",
            self.channel, self.rank, self.bank, self.subarray, self.row, self.column
        )
    }
}

/// Converts between flat burst indices and [`PhysicalAddress`]es for a
/// given interleaving order.
///
/// The `order` lists levels from **innermost (fastest-varying) to
/// outermost**; consecutive flat indices differ first in `order[0]`.
/// This is exactly the loop nest of Fig. 6 in the paper, generalized.
///
/// # Examples
///
/// ```
/// use drmap_dram::address::AddressCodec;
/// use drmap_dram::geometry::{Geometry, Level};
///
/// // Fig. 6 order: column fastest, then bank, subarray, row, rank, channel.
/// let codec = AddressCodec::new(
///     Geometry::salp_2gb_x8(),
///     vec![Level::Column, Level::Bank, Level::Subarray, Level::Row, Level::Rank, Level::Channel],
/// )?;
/// let a = codec.decode(129)?;
/// assert_eq!(a.column, 1); // 129 = 1*128 + 1 -> bank 1, column 1
/// assert_eq!(a.bank, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AddressCodec {
    geometry: Geometry,
    order: [Level; 6],
    /// Radix of each order position (same order as `order`).
    radices: [usize; 6],
    /// Where each order position's level sits in [`Level::ALL`], the
    /// order of a [`PhysicalAddress`]'s coordinates.
    fields: [usize; 6],
}

impl AddressCodec {
    /// Create a codec for `geometry` with the given innermost-to-outermost
    /// level order.
    ///
    /// # Errors
    ///
    /// Returns [`AddressError`] if `order` is not a permutation of the six
    /// addressable levels (chip excluded), or if `geometry` is invalid.
    pub fn new(geometry: Geometry, order: Vec<Level>) -> Result<Self, AddressError> {
        geometry
            .validate()
            .map_err(|e| AddressError::new(e.to_string()))?;
        let Ok(order) = <[Level; 6]>::try_from(order.as_slice()) else {
            return Err(AddressError::new(format!(
                "order must list all {} levels, got {}",
                Level::ALL.len(),
                order.len()
            )));
        };
        let mut fields = [0; 6];
        for (field, level) in Level::ALL.into_iter().enumerate() {
            let Some(pos) = order.iter().position(|&l| l == level) else {
                return Err(AddressError::new(format!("order missing level {level}")));
            };
            fields[pos] = field;
        }
        Ok(AddressCodec {
            geometry,
            order,
            radices: order.map(|l| geometry.level_size(l)),
            fields,
        })
    }

    /// Total number of addressable burst slots.
    pub fn slots(&self) -> u64 {
        self.geometry.total_burst_slots()
    }

    /// Decode a flat burst index into a physical address.
    ///
    /// # Errors
    ///
    /// Returns [`AddressError`] if `index >= self.slots()`.
    pub fn decode(&self, index: u64) -> Result<PhysicalAddress, AddressError> {
        if index >= self.slots() {
            return Err(AddressError::new(format!(
                "burst index {} out of range (capacity {})",
                index,
                self.slots()
            )));
        }
        Ok(PhysicalAddress::from_coords(self.coords(index)))
    }

    /// The coordinates of `index < self.slots()`, in [`Level::ALL`] order.
    fn coords(&self, index: u64) -> [usize; 6] {
        let mut coords = [0; 6];
        let mut rest = index;
        for (&field, &radix) in self.fields.iter().zip(&self.radices) {
            coords[field] = (rest % radix as u64) as usize;
            rest /= radix as u64;
        }
        coords
    }

    /// The flat indices `start..start + units` as row runs, in index
    /// order: each item is an address and how many consecutive indices from
    /// it step only the column — `bursts_per_row − column`, capped by what
    /// is left of the range, when `Column` is innermost, and 1 otherwise.
    /// `start` is decoded once; each run then advances the digits without
    /// a division. [`AddressRuns::take_units`] hands the range out in
    /// pieces, cutting runs at each piece's end.
    ///
    /// # Errors
    ///
    /// Returns [`AddressError`] if the range runs past [`Self::slots`].
    ///
    /// # Examples
    ///
    /// ```
    /// use drmap_dram::address::AddressCodec;
    /// use drmap_dram::geometry::{Geometry, Level};
    ///
    /// let codec = AddressCodec::new(
    ///     Geometry::salp_2gb_x8(),
    ///     vec![Level::Column, Level::Bank, Level::Subarray, Level::Row, Level::Rank, Level::Channel],
    /// )?;
    /// // 100 columns from column 120 of bank 0: 8 there, then 92 in bank 1.
    /// let runs: Vec<_> = codec.runs(120, 100)?.map(|(a, len)| (a.bank, a.column, len)).collect();
    /// assert_eq!(runs, [(0, 120, 8), (1, 0, 92)]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn runs(&self, start: u64, units: u64) -> Result<AddressRuns<'_>, AddressError> {
        let slots = self.slots();
        if start.checked_add(units).is_none_or(|end| end > slots) {
            return Err(AddressError::new(format!(
                "{units} bursts at burst index {start} exceed capacity {slots}"
            )));
        }
        let coords = match units {
            0 => [0; 6],
            _ => self.coords(start),
        };
        Ok(AddressRuns {
            codec: self,
            coords,
            left: units,
        })
    }

    /// Encode a physical address back into its flat burst index.
    ///
    /// # Errors
    ///
    /// Returns [`AddressError`] if any coordinate is out of range.
    pub fn encode(&self, addr: &PhysicalAddress) -> Result<u64, AddressError> {
        addr.validate(&self.geometry)?;
        let mut index = 0u64;
        for (level, &radix) in self.order.iter().zip(&self.radices).rev() {
            index = index * radix as u64 + addr.coordinate(*level) as u64;
        }
        Ok(index)
    }

    /// The level at which two consecutive flat indices `i` and `i+1`
    /// diverge: the outermost level whose digit changes.
    ///
    /// This is the classification primitive behind Eq. 2/3 of the paper: a
    /// `Level::Column` divergence is a row-buffer hit, `Level::Row` a
    /// row-buffer conflict, and `Bank`/`Subarray` divergences exploit the
    /// corresponding parallelism.
    ///
    /// # Errors
    ///
    /// Returns [`AddressError`] if `index + 1 >= self.slots()`.
    pub fn divergence_level(&self, index: u64) -> Result<Level, AddressError> {
        if index + 1 >= self.slots() {
            return Err(AddressError::new(format!(
                "no successor for burst index {index}"
            )));
        }
        // Adding one carries through the maximal digits, innermost first,
        // and stops at the first digit that is not at its maximum: the
        // outermost digit that changes.
        let mut rest = index;
        let pos = self.radices.iter().position(|&radix| {
            let radix = radix as u64;
            let digit = rest % radix;
            rest /= radix;
            digit + 1 < radix
        });
        pos.map(|pos| self.order[pos])
            .ok_or_else(|| AddressError::new("burst index at end of device"))
    }
}

/// The row runs of a range of flat indices; see [`AddressCodec::runs`].
#[derive(Debug, Clone)]
pub struct AddressRuns<'a> {
    codec: &'a AddressCodec,
    /// Coordinates of the next run's first index, in [`Level::ALL`] order.
    coords: [usize; 6],
    /// Indices not yet handed out.
    left: u64,
}

impl<'a> AddressRuns<'a> {
    /// The runs of the next `units` indices of the range (fewer if fewer
    /// are left), the last one cut at their end; the walk then goes on
    /// from there. Cut ranges hand out the runs of each range walked on
    /// its own.
    ///
    /// # Examples
    ///
    /// ```
    /// use drmap_dram::address::AddressCodec;
    /// use drmap_dram::geometry::{Geometry, Level};
    ///
    /// let codec = AddressCodec::new(
    ///     Geometry::salp_2gb_x8(),
    ///     vec![Level::Column, Level::Bank, Level::Subarray, Level::Row, Level::Rank, Level::Channel],
    /// )?;
    /// // Two tiles of 100 bursts from column 0: the second starts mid-row.
    /// let mut walk = codec.runs(0, 200)?;
    /// let first: Vec<_> = walk.take_units(100).map(|(a, len)| (a.bank, a.column, len)).collect();
    /// assert_eq!(first, [(0, 0, 100)]);
    /// let second: Vec<_> = walk.take_units(100).map(|(a, len)| (a.bank, a.column, len)).collect();
    /// assert_eq!(second, [(0, 100, 28), (1, 0, 72)]);
    /// assert_eq!(walk.next(), None);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn take_units(
        &mut self,
        units: u64,
    ) -> impl Iterator<Item = (PhysicalAddress, usize)> + use<'_, 'a> {
        let mut cut = units;
        std::iter::from_fn(move || {
            let (head, len) = self.next_within(cut)?;
            cut -= len as u64;
            Some((head, len))
        })
    }

    /// The next run, at most `cap` indices long; `None` if `cap` or the
    /// range is used up.
    #[inline]
    fn next_within(&mut self, cap: u64) -> Option<(PhysicalAddress, usize)> {
        let cap = cap.min(self.left);
        if cap == 0 {
            return None;
        }
        let AddressCodec {
            order,
            radices,
            fields,
            ..
        } = self.codec;
        let len = match order[0] {
            Level::Column => ((radices[0] - self.coords[fields[0]]) as u64).min(cap),
            _ => 1,
        };
        let head = PhysicalAddress::from_coords(self.coords);
        self.left -= len;
        if self.left > 0 {
            // Add `len` to the innermost digit. A run that fills it carries
            // 1 on; one cut short of it does not.
            let mut carry = len as usize;
            for (&field, &radix) in fields.iter().zip(radices) {
                let digit = &mut self.coords[field];
                *digit += carry;
                if *digit < radix {
                    break;
                }
                *digit = 0;
                carry = 1;
            }
        }
        Some((head, len as usize))
    }
}

impl Iterator for AddressRuns<'_> {
    type Item = (PhysicalAddress, usize);

    fn next(&mut self) -> Option<Self::Item> {
        self.next_within(self.left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig6_codec() -> AddressCodec {
        AddressCodec::new(
            Geometry::salp_2gb_x8(),
            vec![
                Level::Column,
                Level::Bank,
                Level::Subarray,
                Level::Row,
                Level::Rank,
                Level::Channel,
            ],
        )
        .unwrap()
    }

    #[test]
    fn decode_zero_is_origin() {
        let a = fig6_codec().decode(0).unwrap();
        assert_eq!(a, PhysicalAddress::default());
    }

    #[test]
    fn decode_walks_columns_first() {
        let codec = fig6_codec();
        for i in 0..128 {
            let a = codec.decode(i).unwrap();
            assert_eq!(a.column, i as usize);
            assert_eq!(a.bank, 0);
        }
        let a = codec.decode(128).unwrap();
        assert_eq!(a.column, 0);
        assert_eq!(a.bank, 1);
    }

    #[test]
    fn encode_decode_roundtrip_spot() {
        let codec = fig6_codec();
        for &i in &[0u64, 1, 127, 128, 1023, 1024, 8191, 8192, 1 << 20] {
            let a = codec.decode(i).unwrap();
            assert_eq!(codec.encode(&a).unwrap(), i);
        }
    }

    #[test]
    fn decode_rejects_out_of_range() {
        let codec = fig6_codec();
        assert!(codec.decode(codec.slots()).is_err());
    }

    #[test]
    fn encode_rejects_bad_coordinate() {
        let codec = fig6_codec();
        let bad = PhysicalAddress {
            bank: 8,
            ..PhysicalAddress::default()
        };
        assert!(codec.encode(&bad).is_err());
    }

    #[test]
    fn codec_requires_full_permutation() {
        let err = AddressCodec::new(Geometry::ddr3_2gb_x8(), vec![Level::Column, Level::Row])
            .unwrap_err();
        assert!(err.to_string().contains("order"));
    }

    #[test]
    fn codec_rejects_duplicate_levels() {
        let err = AddressCodec::new(
            Geometry::ddr3_2gb_x8(),
            vec![
                Level::Column,
                Level::Column,
                Level::Bank,
                Level::Row,
                Level::Rank,
                Level::Channel,
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn runs_expand_to_the_decoded_indices_for_every_order() {
        // A small device, so ranges cross every level's carry.
        let geometry = Geometry {
            channels: 2,
            ranks: 2,
            banks: 2,
            subarrays: 2,
            rows: 4,
            columns: 32,
            ..Geometry::salp_2gb_x8()
        };
        let levels = Level::ALL;
        let mut orders = vec![levels.to_vec()];
        for i in 0..levels.len() {
            let mut order = levels.to_vec();
            order.rotate_left(i);
            orders.push(order.clone());
            order.reverse();
            orders.push(order);
        }
        for order in orders {
            let codec = AddressCodec::new(geometry, order.clone()).unwrap();
            let slots = codec.slots();
            for (start, units) in [(0, slots), (3, 70), (slots - 5, 5), (17, 0), (slots, 0)] {
                let mut expanded = Vec::new();
                for (head, len) in codec.runs(start, units).unwrap() {
                    assert!(len >= 1);
                    if order[0] != Level::Column {
                        assert_eq!(len, 1);
                    }
                    expanded.extend((0..len).map(|i| PhysicalAddress {
                        column: head.column + i,
                        ..head
                    }));
                }
                let decoded: Vec<_> = (start..start + units)
                    .map(|i| codec.decode(i).unwrap())
                    .collect();
                assert_eq!(expanded, decoded, "{order:?} {start}+{units}");
                // The same range in pieces of 13: each piece is a walk of
                // its own.
                let mut walk = codec.runs(start, units).unwrap();
                for (piece, at) in (start..start + units).step_by(13).enumerate() {
                    let len = (start + units - at).min(13);
                    let runs: Vec<_> = walk.take_units(13).collect();
                    let alone: Vec<_> = codec.runs(at, len).unwrap().collect();
                    assert_eq!(runs, alone, "{order:?} {start}+{units} piece {piece}");
                }
                assert_eq!(walk.next(), None);
            }
        }
    }

    #[test]
    fn runs_refuse_ranges_past_the_device_without_overflow() {
        let codec = fig6_codec();
        assert!(codec.runs(codec.slots() - 1, 2).is_err());
        let err = codec.runs(u64::MAX, 2).unwrap_err();
        assert!(err.to_string().contains("capacity"));
        assert!(codec.runs(2, u64::MAX).is_err());
    }

    #[test]
    fn divergence_column_within_row() {
        let codec = fig6_codec();
        assert_eq!(codec.divergence_level(0).unwrap(), Level::Column);
        assert_eq!(codec.divergence_level(126).unwrap(), Level::Column);
    }

    #[test]
    fn divergence_bank_at_row_boundary() {
        let codec = fig6_codec();
        // Index 127 is the last column of bank 0; the next access goes to
        // bank 1 (Fig. 6 order), so the divergence level is Bank.
        assert_eq!(codec.divergence_level(127).unwrap(), Level::Bank);
    }

    #[test]
    fn divergence_subarray_after_all_banks() {
        let codec = fig6_codec();
        // 128 columns * 8 banks = 1024 slots fill all banks at subarray 0.
        assert_eq!(codec.divergence_level(1023).unwrap(), Level::Subarray);
    }

    #[test]
    fn divergence_row_after_all_subarrays() {
        let codec = fig6_codec();
        // 128 * 8 * 8 = 8192 slots fill row 0 of every subarray of every bank.
        assert_eq!(codec.divergence_level(8191).unwrap(), Level::Row);
    }

    #[test]
    fn display_is_compact() {
        let a = PhysicalAddress {
            bank: 7,
            row: 12,
            ..PhysicalAddress::default()
        };
        assert_eq!(a.to_string(), "ch0 ra0 ba7 sa0 ro12 co0");
    }
}
