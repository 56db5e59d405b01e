//! Read-only log verification: the integrity check behind
//! `drmap-store verify`.

use std::collections::HashSet;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;

use crate::error::StoreError;
use crate::record::{check_header, read_record, RecordRead, HEADER_LEN};
use crate::store::RESERVED_KEY_PREFIX;

/// What a verification scan found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Checksum-valid records scanned.
    pub records: u64,
    /// Distinct live keys (last record per key wins).
    pub live_keys: usize,
    /// Superseded records.
    pub dead_records: u64,
    /// Bytes covered by the header plus valid records.
    pub valid_bytes: u64,
    /// Set when the scan hit a torn or corrupt record; everything after
    /// `valid_bytes` is unreadable.
    pub tail_error: Option<String>,
    /// Values that decoded as stored DSE results (decode mode only).
    pub decoded: u64,
    /// Data values that failed to decode (decode mode only). Records
    /// under [`RESERVED_KEY_PREFIX`] are system records, not results,
    /// and are never decoded.
    pub undecodable: u64,
}

impl VerifyReport {
    /// True when the whole log validated (and, in decode mode, every
    /// value decoded).
    pub fn is_clean(&self) -> bool {
        self.tail_error.is_none() && self.undecodable == 0
    }
}

/// Scan the log at `path` without modifying it, validating the header
/// and every record checksum. With `decode_values`, additionally decode
/// each data value (every key outside [`RESERVED_KEY_PREFIX`]) as a
/// stored DSE result (duration + versioned payload).
///
/// # Errors
///
/// Fails on I/O errors or an unrecognizable header. Torn/corrupt
/// *records* are not errors: they are reported in the returned
/// [`VerifyReport::tail_error`], mirroring what recovery would truncate.
pub fn verify(path: impl AsRef<Path>, decode_values: bool) -> Result<VerifyReport, StoreError> {
    let mut file = File::open(path)?;
    let file_bytes = file.metadata()?.len();
    let mut head = vec![0u8; HEADER_LEN.min(file_bytes) as usize];
    file.read_exact(&mut head)?;
    check_header(&head).map_err(StoreError::Corrupt)?;
    file.seek(SeekFrom::Start(HEADER_LEN))?;
    let mut reader = BufReader::new(file);

    let mut report = VerifyReport {
        file_bytes,
        valid_bytes: HEADER_LEN,
        ..VerifyReport::default()
    };
    let mut seen: HashSet<String> = HashSet::new();
    loop {
        match read_record(&mut reader)? {
            RecordRead::Record { key, value } => {
                report.records += 1;
                report.valid_bytes += crate::record::record_len(key.len(), value.len());
                let reserved = key.starts_with(RESERVED_KEY_PREFIX);
                if !seen.insert(key) {
                    report.dead_records += 1;
                }
                if decode_values && !reserved {
                    match drmap_core::bytes::decode_stored_result(&value) {
                        Ok(_) => report.decoded += 1,
                        Err(_) => report.undecodable += 1,
                    }
                }
            }
            RecordRead::Eof => break,
            RecordRead::Corrupt { reason } => {
                report.tail_error = Some(reason);
                break;
            }
        }
    }
    report.live_keys = seen.len();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use std::path::PathBuf;

    fn temp_store_path(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("drmap-store-verify-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("store.wal")
    }

    #[test]
    fn clean_logs_verify_clean() {
        let path = temp_store_path("clean");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path).unwrap();
        store.put("a", b"one").unwrap();
        store.put("b", b"two").unwrap();
        store.put("a", b"three").unwrap();
        drop(store);
        let report = verify(&path, false).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.records, 3);
        assert_eq!(report.live_keys, 2);
        assert_eq!(report.dead_records, 1);
        assert_eq!(report.valid_bytes, report.file_bytes);
    }

    #[test]
    fn a_flipped_byte_is_reported_not_fatal() {
        let path = temp_store_path("flipped");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path).unwrap();
        store.put("a", b"one").unwrap();
        store.put("b", b"two").unwrap();
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let report = verify(&path, false).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.records, 1, "only the first record survives");
        assert!(report.valid_bytes < report.file_bytes);
        assert!(report.tail_error.unwrap().contains("checksum"));
    }

    #[test]
    fn non_store_files_are_rejected() {
        let path = temp_store_path("not-a-log");
        std::fs::write(&path, b"this is not a drmap store log at all").unwrap();
        assert!(matches!(verify(&path, false), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn decode_mode_counts_undecodable_values() {
        let path = temp_store_path("decode");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path).unwrap();
        store.put("garbage", b"not a stored result").unwrap();
        drop(store);
        let report = verify(&path, true).unwrap();
        assert_eq!(report.undecodable, 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn decode_mode_skips_reserved_records() {
        use drmap_core::dse::{DseCandidate, LayerDseResult};
        use drmap_core::edp::EdpEstimate;
        use drmap_core::mapping::MappingPolicy;
        use drmap_core::schedule::ReuseScheme;
        use drmap_core::tiling::Tiling;

        let result = LayerDseResult {
            layer_name: "CONV1".to_owned(),
            best: DseCandidate {
                mapping: MappingPolicy::drmap(),
                tiling: Tiling::new(13, 13, 16, 16),
                scheme: ReuseScheme::AdaptiveReuse,
                estimate: EdpEstimate {
                    cycles: 1.0e6,
                    energy: 3.3e-3,
                    t_ck_ns: 1.25,
                },
            },
            evaluations: 42,
            pareto: Vec::new(),
        };
        let path = temp_store_path("reserved");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path).unwrap();
        let data = drmap_core::bytes::encode_stored_result(&result, 1_000).unwrap();
        store.put("layer-key", &data).unwrap();
        // A slow-trace record as servers with `--store --slow-ms` wrote
        // them: a system record, not a stored result.
        store.put("~slow/0", b"\x01slow-trace bytes").unwrap();
        drop(store);
        let report = verify(&path, true).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!((report.decoded, report.undecodable), (1, 0));
        assert_eq!(report.records, 2);
    }
}
