//! FNV-1a digests of results, compared against `golden/*.digest` so a
//! speed-up can never be bought with a different answer.

use std::fs;
use std::path::Path;

use drmap_core::dse::LayerDseResult;
use drmap_core::validate::ValidationReport;

/// 64-bit FNV-1a over a stream of typed fields.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold an integer in (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a float's exact bit pattern in.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Fold a string in, length first so fields cannot run together.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// Fold in everything that identifies a layer's winner: mapping,
    /// tiling, scheme, energy/cycle bits and the evaluation count.
    pub fn winner(&mut self, r: &LayerDseResult) {
        self.str(&r.layer_name);
        self.str(&r.best.mapping.name());
        self.str(r.best.scheme.label());
        let t = &r.best.tiling;
        for step in [t.th, t.tw, t.tj, t.ti] {
            self.u64(step as u64);
        }
        self.f64(r.best.estimate.cycles);
        self.f64(r.best.estimate.energy);
        self.f64(r.best.estimate.t_ck_ns);
        self.u64(r.evaluations as u64);
    }

    /// Fold in a whole validation report, bit for bit.
    pub fn validation(&mut self, r: &ValidationReport) {
        for e in [&r.analytical, &r.simulated] {
            self.f64(e.cycles);
            self.f64(e.energy);
            self.f64(e.t_ck_ns);
        }
        self.f64(r.hit_rate);
        for tiles in r.tiles_replayed {
            self.u64(tiles);
        }
    }
}

/// Digest of one layer's winner: equal digests, equal bits.
pub fn winner_digest(r: &LayerDseResult) -> u64 {
    let mut h = Fnv::default();
    h.winner(r);
    h.finish()
}

/// Compare `lines` (one `label digest` line each) with the golden file
/// at `path`; with `regen` write the file instead.
///
/// # Errors
///
/// Names the first line that differs, or the I/O failure.
pub fn check_golden(path: &Path, lines: &[(String, u64)], regen: bool) -> Result<(), String> {
    let text: String = lines
        .iter()
        .map(|(label, digest)| format!("{label} {digest:016x}\n"))
        .collect();
    if regen {
        return fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()));
    }
    let golden = fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read golden {}: {e} (run with --regen-golden once)",
            path.display()
        )
    })?;
    if golden == text {
        return Ok(());
    }
    let differing = text
        .lines()
        .zip(golden.lines().chain(std::iter::repeat("<missing>")))
        .find(|(got, want)| got != want)
        .map_or_else(
            || "golden has extra lines".to_owned(),
            |(got, want)| format!("got {got:?}, golden {want:?}"),
        );
    Err(format!("{} differs: {differing}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors_and_separates_fields() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let digest = |parts: &[&str]| {
            let mut h = Fnv::default();
            parts.iter().for_each(|p| h.str(p));
            h.finish()
        };
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
        let mut a = Fnv::default();
        a.f64(0.0);
        let mut b = Fnv::default();
        b.f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn golden_check_regenerates_then_compares() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tmp")
            .join(format!("test-digest-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.digest");
        let lines = vec![
            ("DDR3".to_owned(), 1u64),
            ("SALP-2".to_owned(), 0xdead_beef),
        ];
        assert!(check_golden(&path, &lines, false).is_err());
        check_golden(&path, &lines, true).unwrap();
        check_golden(&path, &lines, false).unwrap();
        let mut moved = lines.clone();
        moved[1].1 += 1;
        let err = check_golden(&path, &moved, false).unwrap_err();
        assert!(err.contains("SALP-2"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
