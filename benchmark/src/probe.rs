//! Layer probes: a public function of one layer, called from outside
//! on the workload's own inputs, at least [`MIN_CALLS`] times, each
//! call inside a span. The reported time is the mean of the fastest
//! tenth of the calls.

use std::time::Instant;

use crate::spans::Recorder;
use crate::stats::fastest_decile_mean;

/// Fewest calls a probe makes.
pub const MIN_CALLS: usize = 200;

/// Time `calls` timings of `batch` back-to-back invocations of `f`
/// (batching keeps nanosecond-scale functions above the clock's
/// resolution); returns nanoseconds per invocation.
pub fn probe_ns(
    recorder: &mut Recorder,
    name: &'static str,
    calls: usize,
    batch: usize,
    mut f: impl FnMut(),
) -> f64 {
    let calls = calls.max(1);
    let batch = batch.max(1);
    let mut samples = Vec::with_capacity(calls);
    for call in 0..calls {
        recorder.enter(name, call as u64);
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t0.elapsed().as_nanos() as u64);
        recorder.exit();
    }
    fastest_decile_mean(&samples) / batch as f64
}

/// A probe over several inputs that differ in cost: every input is
/// probed on its own with `calls` calls, and the per-input times are
/// combined with `weights` (the share of the workload's requests that
/// carry that input). Returns nanoseconds per request of the mix.
pub fn probe_mix_ns(
    recorder: &mut Recorder,
    name: &'static str,
    calls: usize,
    weights: &[f64],
    mut f: impl FnMut(usize),
) -> f64 {
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .enumerate()
        .filter(|(_, w)| **w > 0.0)
        .map(|(input, w)| probe_ns(recorder, name, calls, 1, || f(input)) * w / total)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_call_the_function_and_record_spans() {
        let mut recorder = Recorder::new(Instant::now(), true);
        let mut n = 0u64;
        let ns = probe_ns(&mut recorder, "x", 20, 5, || n += 1);
        assert_eq!(n, 100);
        assert!(ns >= 0.0);
        let mut seen = vec![0u32; 3];
        let ns = probe_mix_ns(&mut recorder, "y", 4, &[1.0, 0.0, 3.0], |i| seen[i] += 1);
        assert_eq!(seen, vec![4, 0, 4]);
        assert!(ns >= 0.0);
        assert_eq!(recorder.finish().len(), 20 + 8);
    }
}
