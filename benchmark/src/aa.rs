//! The A/A table: two sets of runs of the *same* tree, compared the
//! way the acceptance check compares a parent with a change. For every
//! workload/metric pair it prints both set medians, their relative
//! gap, the spread (inter-quartile range over the median, all runs)
//! and the bound; a gap beyond the bound, or a spread beyond it, fails.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use drmap_service::json::Json;

use crate::report::WORKLOADS;
use crate::stats::{median, quartiles};

/// `(set, workload, metric) → values`, from result files named
/// `<set>-<run>-<workload>.json` under `dir`.
type Samples = BTreeMap<(String, String, String), Vec<f64>>;

fn load(dir: &Path) -> Result<Samples, String> {
    let mut samples = Samples::new();
    let listing = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for file in listing.flatten() {
        let name = file.file_name().to_string_lossy().into_owned();
        let Some((set, _)) = name.split_once('-').filter(|_| name.ends_with(".json")) else {
            continue;
        };
        let text = std::fs::read_to_string(file.path()).map_err(|e| format!("{name}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        crate::report::validate_result(&doc).map_err(|e| format!("{name}: {e}"))?;
        if doc.get("smoke") == Some(&Json::Bool(true)) {
            return Err(format!("{name}: a smoke run is not a baseline"));
        }
        if doc.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("{name}: the run was not correct"));
        }
        let workload = doc.get("workload").and_then(Json::as_str).unwrap_or("");
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            continue; // a traced result: per-layer numbers carry no bound
        };
        for (metric, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            samples
                .entry((set.to_owned(), workload.to_owned(), metric.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(samples)
}

/// `metric → (bound, lower is better)` from `BENCHMARK.json`.
fn bounds(path: &Path) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    Ok(metrics
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                (
                    m.get("bound")?.as_f64()?,
                    m.get("better")?.as_str()? == "lower",
                ),
            ))
        })
        .collect())
}

/// One row of the table.
#[derive(Debug, PartialEq)]
pub struct Row {
    /// Median of set A.
    pub a: f64,
    /// Median of set B.
    pub b: f64,
    /// How much worse B's median is than A's, as a share of A's
    /// (negative when B is better).
    pub worse: f64,
    /// Inter-quartile range over the median, all runs of both sets.
    pub spread: f64,
}

/// Compare two sets of values of one metric.
pub fn compare(a: &[f64], b: &[f64], lower_is_better: bool) -> Row {
    let (ma, mb) = (median(a), median(b));
    let all: Vec<f64> = a.iter().chain(b).copied().collect();
    let (q1, q2, q3) = quartiles(&all);
    let signed = if lower_is_better { mb - ma } else { ma - mb };
    Row {
        a: ma,
        b: mb,
        worse: signed / ma.abs(),
        spread: (q3 - q1) / q2.abs(),
    }
}

/// Print the table for the results under `dir`; fail if any gap or
/// spread exceeds its bound.
pub fn table(dir: &Path, benchmark_json: &Path) -> ExitCode {
    let loaded = load(dir).and_then(|s| Ok((s, bounds(benchmark_json)?)));
    let (samples, bounds) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("aa-table: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("| workload | metric | median A | median B | gap | spread (IQR/median) | bound | |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut failed = false;
    let mut rows = 0;
    for workload in WORKLOADS {
        for (metric, (bound, lower)) in &bounds {
            let get =
                |set: &str| samples.get(&(set.to_owned(), workload.to_owned(), metric.clone()));
            let (Some(a), Some(b)) = (get("A"), get("B")) else {
                continue;
            };
            let row = compare(a, b, *lower);
            // The spread of `setup_s` is exempt; its medians are not.
            let over = row.worse.abs() > *bound || (metric != "setup_s" && row.spread > *bound);
            failed |= over;
            rows += 1;
            println!(
                "| {workload} | {metric} | {:.4} | {:.4} | {:+.1} % | {:.1} % | {:.0} % | {} |",
                row.a,
                row.b,
                row.worse * 100.0,
                row.spread * 100.0,
                bound * 100.0,
                if over { "OVER" } else { "ok" },
            );
        }
    }
    if rows == 0 {
        eprintln!("aa-table: no A/B result pairs under {}", dir.display());
        return ExitCode::FAILURE;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_are_signed_by_direction_and_spreads_pool_both_sets() {
        // Throughput fell 10 %: worse. Latency fell 10 %: better.
        let row = compare(&[100.0, 100.0, 100.0], &[90.0, 90.0, 90.0], false);
        assert!((row.worse - 0.10).abs() < 1e-12, "{row:?}");
        let row = compare(&[100.0, 100.0, 100.0], &[90.0, 90.0, 90.0], true);
        assert!((row.worse + 0.10).abs() < 1e-12, "{row:?}");
        // Identical sets: no gap; spread is the pooled IQR over median.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        let row = compare(&v, &v, true);
        assert_eq!(row.worse, 0.0);
        let (q1, q2, q3) = quartiles(&[1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0, 5.0]);
        assert_eq!(row.spread, (q3 - q1) / q2);
    }
}
