//! Stable byte serialization of DSE results for durable storage.
//!
//! The persistent result store (`drmap-store`) writes
//! [`LayerDseResult`]s to disk and must read them back **bit-identical**
//! across process restarts — the property every cache tier of the
//! service guarantees. JSON cannot promise that cheaply (float
//! round-tripping, field ordering), so this module defines a small,
//! versioned, little-endian binary codec:
//!
//! * floats travel as their IEEE-754 bit patterns ([`f64::to_bits`]),
//!   so decoding reproduces the exact value that was encoded;
//! * strings are UTF-8 with a `u32` length prefix;
//! * enums travel as one-byte tags with explicit, frozen values —
//!   reordering a Rust enum cannot silently change the format;
//! * every encoded result starts with a format version byte, so a
//!   future layout change can coexist with old files.
//!
//! The codec is self-contained (no serde) and deliberately minimal: it
//! covers exactly the types a stored DSE result transitively contains.

use drmap_dram::geometry::Level;

use crate::dse::{DseCandidate, LayerDseResult};
use crate::edp::EdpEstimate;
use crate::mapping::MappingPolicy;
use crate::pareto::DesignPoint;
use crate::schedule::ReuseScheme;
use crate::tiling::Tiling;

/// Version byte leading every encoded [`LayerDseResult`].
pub(crate) const RESULT_FORMAT_VERSION: u8 = 1;

/// A malformed or truncated byte payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    message: String,
}

impl CodecError {
    /// Create an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        CodecError {
            message: message.into(),
        }
    }
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "byte codec error: {}", self.message)
    }
}

impl std::error::Error for CodecError {}

/// Append-only builder for an encoded payload.
#[derive(Debug, Default)]
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub(crate) fn new() -> Self {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub(crate) fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a UTF-8 string with a `u32` length prefix.
    pub(crate) fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over an encoded payload.
#[derive(Debug)]
pub(crate) struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `data`, positioned at the start.
    pub(crate) fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::new(format!(
                "truncated payload: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    ///
    /// # Errors
    ///
    /// Fails on a truncated payload.
    pub(crate) fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Fails on a truncated payload.
    pub(crate) fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Fails on a truncated payload.
    pub(crate) fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// Fails on a truncated payload.
    pub(crate) fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Fails on truncation or invalid UTF-8.
    pub(crate) fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::new("string payload is not UTF-8"))
    }
}

// Frozen one-byte tags. These values are part of the on-disk format:
// never renumber, only append.

fn level_tag(level: Level) -> Result<u8, CodecError> {
    match level {
        Level::Column => Ok(0),
        Level::Bank => Ok(1),
        Level::Subarray => Ok(2),
        Level::Row => Ok(3),
        other => Err(CodecError::new(format!(
            "mapping orders contain only in-chip levels, got {other:?}"
        ))),
    }
}

fn level_from_tag(tag: u8) -> Result<Level, CodecError> {
    match tag {
        0 => Ok(Level::Column),
        1 => Ok(Level::Bank),
        2 => Ok(Level::Subarray),
        3 => Ok(Level::Row),
        other => Err(CodecError::new(format!("unknown level tag {other}"))),
    }
}

fn scheme_tag(scheme: ReuseScheme) -> u8 {
    match scheme {
        ReuseScheme::IfmsReuse => 0,
        ReuseScheme::WghsReuse => 1,
        ReuseScheme::OfmsReuse => 2,
        ReuseScheme::AdaptiveReuse => 3,
    }
}

fn scheme_from_tag(tag: u8) -> Result<ReuseScheme, CodecError> {
    match tag {
        0 => Ok(ReuseScheme::IfmsReuse),
        1 => Ok(ReuseScheme::WghsReuse),
        2 => Ok(ReuseScheme::OfmsReuse),
        3 => Ok(ReuseScheme::AdaptiveReuse),
        other => Err(CodecError::new(format!("unknown scheme tag {other}"))),
    }
}

fn put_estimate(w: &mut ByteWriter, e: &EdpEstimate) {
    w.put_f64(e.cycles);
    w.put_f64(e.energy);
    w.put_f64(e.t_ck_ns);
}

fn get_estimate(r: &mut ByteReader<'_>) -> Result<EdpEstimate, CodecError> {
    Ok(EdpEstimate {
        cycles: r.get_f64()?,
        energy: r.get_f64()?,
        t_ck_ns: r.get_f64()?,
    })
}

fn put_mapping(w: &mut ByteWriter, m: &MappingPolicy) -> Result<(), CodecError> {
    w.put_u8(m.index() as u8);
    for &level in m.order() {
        w.put_u8(level_tag(level)?);
    }
    Ok(())
}

fn get_mapping(r: &mut ByteReader<'_>) -> Result<MappingPolicy, CodecError> {
    let index = r.get_u8()? as usize;
    let mut order = [Level::Column; 4];
    for slot in &mut order {
        *slot = level_from_tag(r.get_u8()?)?;
    }
    match index {
        0 => MappingPolicy::custom(order).map_err(|e| CodecError::new(e.to_string())),
        1..=6 => {
            let policy = MappingPolicy::table_i_policy(index);
            if policy.order() != &order {
                return Err(CodecError::new(format!(
                    "mapping index {index} does not match its stored level order"
                )));
            }
            Ok(policy)
        }
        other => Err(CodecError::new(format!("unknown mapping index {other}"))),
    }
}

fn put_candidate(w: &mut ByteWriter, c: &DseCandidate) -> Result<(), CodecError> {
    put_mapping(w, &c.mapping)?;
    w.put_u64(c.tiling.th as u64);
    w.put_u64(c.tiling.tw as u64);
    w.put_u64(c.tiling.tj as u64);
    w.put_u64(c.tiling.ti as u64);
    w.put_u8(scheme_tag(c.scheme));
    put_estimate(w, &c.estimate);
    Ok(())
}

fn get_candidate(r: &mut ByteReader<'_>) -> Result<DseCandidate, CodecError> {
    let mapping = get_mapping(r)?;
    let tiling = Tiling::new(
        r.get_u64()? as usize,
        r.get_u64()? as usize,
        r.get_u64()? as usize,
        r.get_u64()? as usize,
    );
    let scheme = scheme_from_tag(r.get_u8()?)?;
    let estimate = get_estimate(r)?;
    Ok(DseCandidate {
        mapping,
        tiling,
        scheme,
        estimate,
    })
}

/// Encode a [`LayerDseResult`] into the versioned binary format.
///
/// # Errors
///
/// Fails only for results holding a mapping with non-in-chip levels,
/// which no engine produces.
pub(crate) fn encode_layer_result(result: &LayerDseResult) -> Result<Vec<u8>, CodecError> {
    let mut w = ByteWriter::new();
    w.put_u8(RESULT_FORMAT_VERSION);
    w.put_str(&result.layer_name);
    put_candidate(&mut w, &result.best)?;
    w.put_u64(result.evaluations as u64);
    w.put_u32(result.pareto.len() as u32);
    for point in &result.pareto {
        w.put_str(&point.label);
        put_estimate(&mut w, &point.estimate);
    }
    Ok(w.into_bytes())
}

/// Decode a [`LayerDseResult`] from the versioned binary format,
/// reproducing the encoded value bit-identically.
///
/// # Errors
///
/// Fails on truncated payloads, unknown versions/tags, or trailing
/// garbage.
pub(crate) fn decode_layer_result(bytes: &[u8]) -> Result<LayerDseResult, CodecError> {
    let mut r = ByteReader::new(bytes);
    let version = r.get_u8()?;
    if version != RESULT_FORMAT_VERSION {
        return Err(CodecError::new(format!(
            "unsupported result format version {version} (this build reads {RESULT_FORMAT_VERSION})"
        )));
    }
    let layer_name = r.get_str()?;
    let best = get_candidate(&mut r)?;
    let evaluations = r.get_u64()? as usize;
    let pareto_len = r.get_u32()? as usize;
    // Guard the pre-allocation: a corrupt count must not OOM.
    let mut pareto = Vec::with_capacity(pareto_len.min(4096));
    for _ in 0..pareto_len {
        let label = r.get_str()?;
        let estimate = get_estimate(&mut r)?;
        pareto.push(DesignPoint::new(label, estimate));
    }
    if r.remaining() != 0 {
        return Err(CodecError::new(format!(
            "{} trailing bytes after a complete result",
            r.remaining()
        )));
    }
    Ok(LayerDseResult {
        layer_name,
        best,
        evaluations,
        pareto,
    })
}

/// Encode a stored result record: the compute duration (nanoseconds the
/// original exploration took, surfaced by the cache's `compute_ns_*`
/// stats) followed by the versioned result payload. This is the value format
/// the persistent store and the service's cache tier exchange.
///
/// # Errors
///
/// Propagates `encode_layer_result` failures.
pub fn encode_stored_result(
    result: &LayerDseResult,
    compute_ns: u64,
) -> Result<Vec<u8>, CodecError> {
    let mut w = ByteWriter::new();
    w.put_u64(compute_ns);
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(&encode_layer_result(result)?);
    Ok(bytes)
}

/// Decode a stored result record back into the result and its original
/// compute duration in nanoseconds.
///
/// # Errors
///
/// Propagates `decode_layer_result` failures.
pub fn decode_stored_result(bytes: &[u8]) -> Result<(LayerDseResult, u64), CodecError> {
    let mut r = ByteReader::new(bytes);
    let compute_ns = r.get_u64()?;
    let result = decode_layer_result(&bytes[8..])?;
    Ok((result, compute_ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(pareto: usize) -> LayerDseResult {
        LayerDseResult {
            layer_name: "CONV3".to_owned(),
            best: DseCandidate {
                mapping: MappingPolicy::drmap(),
                tiling: Tiling::new(13, 13, 16, 16),
                scheme: ReuseScheme::AdaptiveReuse,
                estimate: EdpEstimate {
                    cycles: 0.1 + 0.2, // deliberately non-representable
                    energy: 3.3e-9,
                    t_ck_ns: 1.25,
                },
            },
            evaluations: 4242,
            pareto: (0..pareto)
                .map(|i| {
                    DesignPoint::new(
                        format!("point-{i}"),
                        EdpEstimate {
                            cycles: i as f64 * 0.7,
                            energy: 1.0 / (i as f64 + 1.0),
                            t_ck_ns: 1.25,
                        },
                    )
                })
                .collect(),
        }
    }

    fn assert_bit_identical(a: &LayerDseResult, b: &LayerDseResult) {
        assert_eq!(a.layer_name, b.layer_name);
        assert_eq!(a.best, b.best);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(
            a.best.estimate.cycles.to_bits(),
            b.best.estimate.cycles.to_bits()
        );
        assert_eq!(
            a.best.estimate.energy.to_bits(),
            b.best.estimate.energy.to_bits()
        );
        assert_eq!(a.pareto.len(), b.pareto.len());
        for (x, y) in a.pareto.iter().zip(&b.pareto) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.estimate.cycles.to_bits(), y.estimate.cycles.to_bits());
            assert_eq!(x.estimate.energy.to_bits(), y.estimate.energy.to_bits());
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        for pareto in [0, 1, 7] {
            let original = sample(pareto);
            let bytes = encode_layer_result(&original).unwrap();
            let decoded = decode_layer_result(&bytes).unwrap();
            assert_bit_identical(&original, &decoded);
        }
    }

    #[test]
    fn round_trips_every_table_i_mapping_and_scheme() {
        for mapping in MappingPolicy::table_i() {
            for scheme in ReuseScheme::ALL {
                let mut result = sample(0);
                result.best.mapping = mapping;
                result.best.scheme = scheme;
                let decoded = decode_layer_result(&encode_layer_result(&result).unwrap()).unwrap();
                assert_eq!(decoded.best.mapping, mapping);
                assert_eq!(decoded.best.scheme, scheme);
            }
        }
    }

    #[test]
    fn round_trips_custom_mappings() {
        use Level::{Bank, Column, Row, Subarray};
        let mut result = sample(0);
        // commodity_default: index 0, a non-Table-I order.
        result.best.mapping = MappingPolicy::commodity_default();
        let decoded = decode_layer_result(&encode_layer_result(&result).unwrap()).unwrap();
        assert_eq!(decoded.best.mapping.index(), 0);
        assert_eq!(decoded.best.mapping.order(), &[Column, Bank, Row, Subarray]);
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = encode_layer_result(&sample(2)).unwrap();
        for n in 0..bytes.len() {
            assert!(
                decode_layer_result(&bytes[..n]).is_err(),
                "accepted a {n}-byte prefix of a {}-byte payload",
                bytes.len()
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_version() {
        let mut bytes = encode_layer_result(&sample(0)).unwrap();
        bytes.push(0xFF);
        assert!(decode_layer_result(&bytes).is_err());

        let mut bytes = encode_layer_result(&sample(0)).unwrap();
        bytes[0] = 99;
        let err = decode_layer_result(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn rejects_mismatched_mapping_index() {
        let bytes = encode_layer_result(&sample(0)).unwrap();
        // Byte layout: version (1) + name len (4) + "CONV3" (5) puts the
        // mapping index at offset 10; flip it to another table index so
        // it no longer matches the stored order.
        let mut corrupt = bytes.clone();
        assert_eq!(corrupt[10], 3, "drmap is Mapping-3");
        corrupt[10] = 5;
        assert!(decode_layer_result(&corrupt).is_err());
    }

    #[test]
    fn stored_results_carry_their_compute_duration() {
        let original = sample(3);
        let bytes = encode_stored_result(&original, 123_456_789).unwrap();
        let (decoded, compute_ns) = decode_stored_result(&bytes).unwrap();
        assert_eq!(compute_ns, 123_456_789);
        assert_bit_identical(&original, &decoded);
        assert!(decode_stored_result(&bytes[..7]).is_err());
    }

    #[test]
    fn strings_survive_unicode() {
        let mut result = sample(0);
        result.layer_name = "convolución-λ③".to_owned();
        let decoded = decode_layer_result(&encode_layer_result(&result).unwrap()).unwrap();
        assert_eq!(decoded.layer_name, "convolución-λ③");
    }
}
