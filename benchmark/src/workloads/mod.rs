//! The five workloads. Each module exposes `run(cfg) -> Outcome`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use drmap_service::loadgen::SplitMix64;

use crate::spans::Recorder;
use crate::stats::UnitTimes;

pub mod dse_sweep;
pub mod route_mixed;
pub mod serve;
pub mod sim_validate;

/// From-scratch repetitions of a workload's set-up; the fastest is
/// reported as `setup_s`.
pub const SETUP_REPEATS: usize = 3;

/// Everything a workload needs to know about this run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub traced: bool,
    /// Rewrite the golden digests instead of comparing against them.
    pub regen_golden: bool,
    /// The benchmark's own directory (`golden/`, `out/`, `tmp/`).
    pub root: PathBuf,
    /// Directory holding the `drmap-serve` and `drmap-router` binaries.
    pub bin_dir: PathBuf,
}

impl Config {
    /// This process's scratch directory, `tmp/<pid>/`, removed on exit.
    pub fn tmp_dir(&self) -> PathBuf {
        self.root.join("tmp").join(std::process::id().to_string())
    }

    /// Share of the measured seconds a traced run spends on each of
    /// its two workload slices (untraced, then traced); the rest is
    /// left for the layer probes.
    pub fn slice(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * if self.traced { 0.3 } else { 1.0 })
    }
}

/// A seeded Fisher–Yates shuffle of `0..n`.
pub fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    order
}

/// A request mix of exactly `len` draws over `weights.len()` entries:
/// entry `e` appears `len · weights[e] / Σweights` times (rounded by
/// largest remainder, so the counts add up), in seeded-shuffled order.
/// The composition is the same for every seed; only the order differs.
pub fn mix_cycle(weights: &[f64], len: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| w / total * len as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (quotas[a] - quotas[a].floor(), quotas[b] - quotas[b].floor());
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let short = len - counts.iter().sum::<usize>();
    for &entry in by_remainder.iter().cycle().take(short) {
        counts[entry] += 1;
    }
    let flat: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(entry, &count)| std::iter::repeat_n(entry, count))
        .collect();
    shuffled(len, rng).into_iter().map(|i| flat[i]).collect()
}

/// Counts from a timed loop over fixed-work units.
#[derive(Debug, Default)]
pub struct UnitRun {
    /// Every timing, by unit.
    pub times: UnitTimes,
    /// Units executed.
    pub attempted: u64,
    /// Units whose result differed from the verified one.
    pub failed: u64,
    /// Wall time of the whole loop, spans and checks included.
    pub elapsed: Duration,
}

impl UnitRun {
    /// How much slower per unit `traced` ran than this untraced run,
    /// by wall time: the cost of recording spans.
    pub fn overhead_of(&self, traced: &UnitRun) -> f64 {
        let per_unit = |r: &UnitRun| r.elapsed.as_secs_f64() / r.attempted.max(1) as f64;
        per_unit(traced) / per_unit(self) - 1.0
    }
}

/// Repeat whole passes over `order` until `budget` has elapsed (at
/// least one pass). `unit(u)` runs unit `u` once and returns its own
/// timing in nanoseconds and whether the result was the verified one;
/// verification happens outside the timed part, inside `unit`.
pub fn run_units(
    units: usize,
    order: &[usize],
    budget: Duration,
    recorder: &mut Recorder,
    span: &'static str,
    mut unit: impl FnMut(usize) -> (u64, bool),
) -> UnitRun {
    let mut run = UnitRun {
        times: UnitTimes::new(units),
        ..UnitRun::default()
    };
    let start = Instant::now();
    let mut pass = 0u64;
    loop {
        for &u in order {
            recorder.enter(span, pass);
            let (ns, ok) = unit(u);
            recorder.exit();
            run.times.record(u, ns);
            run.attempted += 1;
            run.failed += u64::from(!ok);
        }
        pass += 1;
        run.elapsed = start.elapsed();
        if run.elapsed >= budget {
            return run;
        }
    }
}

/// Run `setup` [`SETUP_REPEATS`] times from scratch; keep the last
/// result and the fastest wall time in seconds.
///
/// # Errors
///
/// Propagates the first set-up failure.
pub fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut fastest = f64::INFINITY;
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous repetition (and its child processes) first:
        // "from scratch" means nothing of it is still running.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        fastest = fastest.min(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPEATS is at least one"), fastest))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(50, &mut SplitMix64::new(9));
        let b = shuffled(50, &mut SplitMix64::new(9));
        let c = shuffled(50, &mut SplitMix64::new(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn mix_cycle_fixes_the_composition_and_seeds_only_the_order() {
        let weights = [0.5, 0.3, 0.15, 0.05];
        let a = mix_cycle(&weights, 1000, &mut SplitMix64::new(1));
        let b = mix_cycle(&weights, 1000, &mut SplitMix64::new(2));
        assert_ne!(a, b);
        let count = |v: &[usize], e| v.iter().filter(|&&x| x == e).count();
        for (entry, expected) in [500, 300, 150, 50].into_iter().enumerate() {
            assert_eq!(count(&a, entry), expected);
            assert_eq!(count(&b, entry), expected);
        }
        // Remainders go to the largest fractions first, and add up.
        let odd = mix_cycle(&[1.0, 1.0, 1.0], 10, &mut SplitMix64::new(1));
        assert_eq!(odd.len(), 10);
        assert_eq!(count(&odd, 0), 4);
        assert_eq!(count(&odd, 2), 3);
    }

    #[test]
    fn run_units_makes_whole_passes_and_counts_failures() {
        let mut recorder = Recorder::new(Instant::now(), true);
        let run = run_units(3, &[2, 0, 1], Duration::ZERO, &mut recorder, "unit", |u| {
            (10 * (u as u64 + 1), u != 1)
        });
        assert_eq!((run.attempted, run.failed), (3, 1));
        assert_eq!(run.times.passes(), 1);
        assert_eq!(run.times.sum_fastest(), 60);
        assert_eq!(recorder.finish().len(), 3);
    }

    #[test]
    fn timed_setup_repeats_and_reports_the_fastest() {
        let mut calls = 0;
        let (value, secs) = timed_setup(|| {
            calls += 1;
            Ok(calls)
        })
        .unwrap();
        assert_eq!((value, calls), (SETUP_REPEATS, SETUP_REPEATS));
        assert!(secs >= 0.0 && secs.is_finite());
        assert!(timed_setup::<()>(|| Err("no".to_owned())).is_err());
    }
}
