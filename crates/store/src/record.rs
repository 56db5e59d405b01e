//! The on-disk record format: length-prefixed, CRC-checksummed
//! key/value records appended after a fixed file header.
//!
//! ```text
//! file   := header record*
//! header := magic "DRMAPWAL" (8 bytes) ++ u32 LE format version
//! record := u32 LE crc      -- CRC-32 (IEEE) over the four length bytes
//!                           -- of key_len ++ val_len and the key and
//!                           -- value payloads
//!        ++ u32 LE key_len
//!        ++ u32 LE val_len
//!        ++ key bytes (UTF-8)
//!        ++ value bytes (opaque)
//! ```
//!
//! Everything is little-endian. The checksum makes a record
//! self-validating: recovery scans forward record by record and stops
//! (truncating the file) at the first record that is torn — the file
//! ends mid-record — or corrupt — the checksum disagrees, or a length
//! field exceeds the format's caps. Because records are append-only and
//! a partial append can only damage the *tail*, truncation at the first
//! bad record restores exactly the state of the last complete append.

use std::io::{BufRead, Read};

/// File magic: the first eight bytes of every store log.
pub const MAGIC: [u8; 8] = *b"DRMAPWAL";

/// On-disk format version written into the header.
pub const FORMAT_VERSION: u32 = 1;

/// Total header length in bytes (magic + version).
pub const HEADER_LEN: u64 = 12;

/// Cap on a record's key, defending recovery against garbage lengths.
pub const MAX_KEY_BYTES: usize = 64 * 1024;

/// Cap on a record's value, defending recovery against garbage lengths.
pub const MAX_VALUE_BYTES: usize = 256 * 1024 * 1024;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup tables
/// for slicing-by-8, built at compile time. `CRC_TABLES[0]` is the
/// classic bytewise table; `CRC_TABLES[k][b]` is the CRC register after
/// byte `b` and then `k` zero bytes, so eight lookups advance the
/// register over eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Advance the CRC register over `bytes`: eight bytes a step, then the
/// tail a byte at a time.
fn crc_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE) over a sequence of byte chunks, as if concatenated.
pub fn crc32(chunks: &[&[u8]]) -> u32 {
    !chunks
        .iter()
        .fold(0xFFFF_FFFF, |crc, chunk| crc_update(crc, chunk))
}

/// The file header bytes (magic + version).
pub fn header() -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[..8].copy_from_slice(&MAGIC);
    h[8..].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h
}

/// Validate a header read from disk.
///
/// # Errors
///
/// Returns a description of the mismatch (wrong magic or version).
pub fn check_header(bytes: &[u8]) -> Result<(), String> {
    if bytes.len() < HEADER_LEN as usize {
        return Err(format!(
            "file too short for a header: {} bytes",
            bytes.len()
        ));
    }
    if bytes[..8] != MAGIC {
        return Err("bad magic: not a drmap-store log".to_owned());
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != FORMAT_VERSION {
        return Err(format!(
            "unsupported format version {version} (this build reads {FORMAT_VERSION})"
        ));
    }
    Ok(())
}

/// Encode one record (header + payloads) ready to append.
pub fn encode_record(key: &str, value: &[u8]) -> Vec<u8> {
    let key_len = (key.len() as u32).to_le_bytes();
    let val_len = (value.len() as u32).to_le_bytes();
    let crc = crc32(&[&key_len, &val_len, key.as_bytes(), value]);
    let mut out = Vec::with_capacity(12 + key.len() + value.len());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&key_len);
    out.extend_from_slice(&val_len);
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(value);
    out
}

/// Total on-disk footprint of a record with the given payload sizes.
pub fn record_len(key_len: usize, val_len: usize) -> u64 {
    12 + key_len as u64 + val_len as u64
}

/// Outcome of reading one record during a forward scan.
#[derive(Debug)]
pub enum RecordRead {
    /// A complete, checksum-valid record.
    Record {
        /// The record's key.
        key: String,
        /// The record's value payload.
        value: Vec<u8>,
    },
    /// Clean end of file at a record boundary.
    Eof,
    /// The log ends mid-record or the record fails validation; recovery
    /// truncates here.
    Corrupt {
        /// Human-readable description of what was wrong.
        reason: String,
    },
}

/// Fill `buf` from `reader`, reporting how many bytes arrived before
/// EOF (a short count means the file ended mid-record).
fn read_up_to(reader: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Read the next record from a scan position.
///
/// Distinguishes a clean EOF (zero bytes available at the record
/// boundary) from a torn tail (some bytes, but not a whole record) and
/// from checksum/length corruption — the latter two become
/// [`RecordRead::Corrupt`] so the caller can truncate.
///
/// # Errors
///
/// Propagates genuine I/O failures (not EOF).
pub fn read_record(reader: &mut impl BufRead) -> std::io::Result<RecordRead> {
    let mut head = [0u8; 12];
    let got = read_up_to(reader, &mut head)?;
    if got == 0 {
        return Ok(RecordRead::Eof);
    }
    if got < head.len() {
        return Ok(RecordRead::Corrupt {
            reason: format!("torn record header: {got} of 12 bytes"),
        });
    }
    let crc = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
    let key_len = u32::from_le_bytes([head[4], head[5], head[6], head[7]]) as usize;
    let val_len = u32::from_le_bytes([head[8], head[9], head[10], head[11]]) as usize;
    if key_len > MAX_KEY_BYTES || val_len > MAX_VALUE_BYTES {
        return Ok(RecordRead::Corrupt {
            reason: format!("implausible record lengths: key {key_len}, value {val_len}"),
        });
    }
    let mut key = vec![0u8; key_len];
    let got = read_up_to(reader, &mut key)?;
    if got < key_len {
        return Ok(RecordRead::Corrupt {
            reason: format!("torn key: {got} of {key_len} bytes"),
        });
    }
    let mut value = vec![0u8; val_len];
    let got = read_up_to(reader, &mut value)?;
    if got < val_len {
        return Ok(RecordRead::Corrupt {
            reason: format!("torn value: {got} of {val_len} bytes"),
        });
    }
    let computed = crc32(&[&head[4..8], &head[8..12], &key, &value]);
    if computed != crc {
        return Ok(RecordRead::Corrupt {
            reason: format!("checksum mismatch: stored {crc:#010x}, computed {computed:#010x}"),
        });
    }
    let key = match String::from_utf8(key) {
        Ok(k) => k,
        Err(_) => {
            return Ok(RecordRead::Corrupt {
                reason: "record key is not UTF-8".to_owned(),
            })
        }
    };
    Ok(RecordRead::Record { key, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"", b""]), 0);
        // Chunking must not change the digest.
        assert_eq!(crc32(&[b"1234", b"56789"]), crc32(&[b"123456789"]));
    }

    /// The byte-at-a-time loop the sliced one replaced: the oracle.
    fn crc32_bytewise(chunks: &[&[u8]]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for chunk in chunks {
            for &byte in *chunk {
                crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
            }
        }
        !crc
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop() {
        // xorshift64: deterministic bytes and split points.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let data: Vec<u8> = (0..108).map(|_| next() as u8).collect();
        for len in 0..=100 {
            for align in 0..8 {
                let bytes = &data[align..align + len];
                assert_eq!(
                    crc32(&[bytes]),
                    crc32_bytewise(&[bytes]),
                    "{len} B at +{align}"
                );
            }
            let whole = &data[..len];
            for _ in 0..16 {
                let a = next() as usize % (len + 1);
                let b = a + next() as usize % (len - a + 1);
                let (x, y, z) = (&whole[..a], &whole[a..b], &whole[b..]);
                assert_eq!(
                    crc32(&[x, y, z]),
                    crc32_bytewise(&[whole]),
                    "{len} B at {a}/{b}"
                );
            }
        }
    }

    #[test]
    fn records_round_trip() {
        let bytes = encode_record("layer-key", b"payload bytes");
        assert_eq!(bytes.len() as u64, record_len(9, 13));
        let mut reader = BufReader::new(&bytes[..]);
        match read_record(&mut reader).unwrap() {
            RecordRead::Record { key, value } => {
                assert_eq!(key, "layer-key");
                assert_eq!(value, b"payload bytes");
            }
            other => panic!("expected a record, got {other:?}"),
        }
        assert!(matches!(read_record(&mut reader).unwrap(), RecordRead::Eof));
    }

    #[test]
    fn every_truncation_is_torn_and_every_flip_is_caught() {
        let bytes = encode_record("k", b"value");
        for n in 1..bytes.len() {
            let mut reader = BufReader::new(&bytes[..n]);
            assert!(
                matches!(
                    read_record(&mut reader).unwrap(),
                    RecordRead::Corrupt { .. }
                ),
                "a {n}-byte prefix of a {}-byte record must be torn",
                bytes.len()
            );
        }
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x01;
            let mut reader = BufReader::new(&flipped[..]);
            assert!(
                !matches!(
                    read_record(&mut reader).unwrap(),
                    RecordRead::Record { ref key, ref value } if key == "k" && value == b"value"
                ),
                "flipping byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn implausible_lengths_are_corrupt_not_allocated() {
        let mut bytes = encode_record("k", b"v");
        // Overwrite val_len with u32::MAX; the crc now also mismatches,
        // but the length check must fire first (no 4 GiB allocation).
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = BufReader::new(&bytes[..]);
        match read_record(&mut reader).unwrap() {
            RecordRead::Corrupt { reason } => assert!(reason.contains("implausible"), "{reason}"),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn header_round_trips_and_rejects_mutations() {
        let h = header();
        check_header(&h).unwrap();
        let mut wrong_magic = h;
        wrong_magic[0] = b'X';
        assert!(check_header(&wrong_magic).unwrap_err().contains("magic"));
        let mut wrong_version = h;
        wrong_version[8] = 99;
        assert!(check_header(&wrong_version)
            .unwrap_err()
            .contains("version"));
        assert!(check_header(&h[..4]).unwrap_err().contains("short"));
    }
}
