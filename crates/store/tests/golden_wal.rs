//! The on-disk format, pinned by a committed log: `golden/seed.wal` was
//! written by `Store::put` over [`records`] and is never regenerated.
//! A change to the record codec or its CRC-32 that moves one byte of a
//! record, or stops reading one, fails here. CI's `drmap-store verify
//! --decode` step scans the same file.

use std::path::Path;

use drmap_core::bytes::{decode_stored_result, encode_stored_result};
use drmap_core::dse::{DseCandidate, LayerDseResult};
use drmap_core::edp::EdpEstimate;
use drmap_core::mapping::MappingPolicy;
use drmap_core::pareto::DesignPoint;
use drmap_core::schedule::ReuseScheme;
use drmap_core::tiling::Tiling;
use drmap_store::record::{crc32, encode_record, header, read_record, RecordRead, HEADER_LEN};
use drmap_store::store::{Store, RESERVED_KEY_PREFIX};
use drmap_store::verify::verify;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/seed.wal");

/// Records superseded later in the log.
const SUPERSEDED: usize = 1;

/// One stored DSE result per index, varied in every field the value
/// codec writes.
fn stored_result(n: usize) -> Vec<u8> {
    let schemes = [
        ReuseScheme::IfmsReuse,
        ReuseScheme::WghsReuse,
        ReuseScheme::OfmsReuse,
        ReuseScheme::AdaptiveReuse,
    ];
    let estimate = |scale: f64| EdpEstimate {
        cycles: 1.0e5 * scale + 0.1 * n as f64,
        energy: 3.3e-4 * scale / (n + 1) as f64,
        t_ck_ns: 1.25,
    };
    let pareto = (0..n % 3)
        .map(|p| DesignPoint::new(format!("t{n}x{p}/ofms-reuse"), estimate(1.5 + p as f64)))
        .collect();
    let result = LayerDseResult {
        layer_name: format!("CONV{n}"),
        best: DseCandidate {
            mapping: MappingPolicy::table_i_policy(1 + n % 6),
            tiling: Tiling::new(1 + n % 13, 1 + n % 7, 8 << (n % 4), 4 << (n % 3)),
            scheme: schemes[n % schemes.len()],
            estimate: estimate(1.0),
        },
        evaluations: 40_320 + 17 * n,
        pareto,
    };
    encode_stored_result(&result, 1_000 + 37 * n as u64).unwrap()
}

/// The fixture's records, in log order: thirty results under
/// cache-key-shaped names, one of them rewritten, and two reserved
/// system records (one with an empty value).
fn records() -> Vec<(String, Vec<u8>)> {
    let key = |n: usize| {
        format!(
            "v1/SALP-2/edp/conv/h{}w{}j{}i{}p3q3s1g1/points={}",
            13 + n,
            13 + 2 * n,
            64 << (n % 3),
            96 + n,
            !n.is_multiple_of(3)
        )
    };
    let mut records: Vec<(String, Vec<u8>)> = (0..30).map(|n| (key(n), stored_result(n))).collect();
    records.push(("~slow/0".to_owned(), b"\x01slow-trace bytes".to_vec()));
    records.push((key(7), stored_result(99)));
    records.push(("~slow/1".to_owned(), Vec::new()));
    records
}

#[test]
fn the_golden_log_re_encodes_byte_for_byte() {
    let bytes = std::fs::read(FIXTURE).unwrap();
    assert_eq!(bytes[..HEADER_LEN as usize], header());
    let mut at = HEADER_LEN as usize;
    for (key, value) in records() {
        let encoded = encode_record(&key, &value);
        assert_eq!(
            bytes.get(at..at + encoded.len()),
            Some(&encoded[..]),
            "record {key:?} at byte {at}"
        );
        // The stored checksum covers both lengths and both payloads.
        let stored = u32::from_le_bytes(encoded[..4].try_into().unwrap());
        assert_eq!(stored, crc32(&[&encoded[4..]]), "{key:?}");
        match read_record(&mut &bytes[at..]).unwrap() {
            RecordRead::Record { key: k, value: v } => assert_eq!((k, v), (key, value)),
            other => panic!("record {key:?} did not read back: {other:?}"),
        }
        at += encoded.len();
    }
    assert_eq!(at, bytes.len(), "the log holds exactly these records");
}

#[test]
fn the_golden_log_opens_and_every_value_passes_its_checksum() {
    let records = records();
    let report = verify(FIXTURE, true).unwrap();
    assert!(report.is_clean(), "{report:?}");
    let reserved = records
        .iter()
        .filter(|(k, _)| k.starts_with(RESERVED_KEY_PREFIX))
        .count() as u64;
    assert_eq!(report.records, records.len() as u64);
    assert_eq!(report.dead_records, SUPERSEDED as u64);
    assert_eq!(report.decoded, report.records - reserved);

    let store = Store::open_read_only(Path::new(FIXTURE)).unwrap();
    assert_eq!(store.len(), records.len() - SUPERSEDED);
    assert_eq!(store.stats().recovered_bytes, 0);
    // The last record under a key wins; `get` re-checks the value's own
    // checksum, taken when the log was opened.
    for (i, (key, value)) in records.iter().enumerate() {
        let latest = records[i + 1..].iter().all(|(k, _)| k != key);
        if latest {
            assert_eq!(store.get(key).unwrap().as_ref(), Some(value), "{key:?}");
            if !key.starts_with(RESERVED_KEY_PREFIX) {
                decode_stored_result(value).unwrap();
            }
        }
    }
}
