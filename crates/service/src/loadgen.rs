//! Seeded building blocks for reproducible load.
//!
//! `benchmark/` drives a live `drmap-serve` with a *deterministic*
//! request plan; this module holds the parts of such a plan that the
//! service itself also needs:
//!
//! * [`SplitMix64`] — a tiny, seedable PRNG (SplitMix64, the stream
//!   used to seed xoshiro generators) so runs are reproducible without
//!   pulling in a randomness dependency; fault plans and the router's
//!   retry jitter draw from it too;
//! * [`default_catalog`] — network- and layer-level jobs ordered
//!   cheap-to-expensive, so a sampler skewed towards low ranks (at
//!   [`DEFAULT_ZIPF_EXPONENT`], say) keeps the popular head cheap and
//!   the heavy tail rare.

use crate::spec::{EngineSpec, JobSpec};
use drmap_cnn::network::Network;

/// Default zipf exponent for the request mix: skewed enough that the
/// head dominates (ranks 0–2 draw most of the traffic) while the tail
/// still appears in any run longer than a few hundred requests.
pub const DEFAULT_ZIPF_EXPONENT: f64 = 1.1;

/// A seedable SplitMix64 PRNG.
///
/// Deliberately tiny: one `u64` of state, no dependencies, and a
/// well-studied output function. Not cryptographic — it only has to
/// make request plans reproducible.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed` (any value, including 0, is a
    /// valid seed for SplitMix64).
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)` using the top 53 bits.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The default job catalog: every zoo network plus each individual
/// layer of the two smallest ones, ordered cheap-to-expensive so that
/// zipf rank 0 (the most popular) is also the cheapest request.
///
/// Layer jobs lead (single-layer explorations, ideal cache-hit
/// candidates), then whole networks by ascending layer count — the
/// heavy nets sit in the zipf tail where they are sampled rarely.
/// Every template has job id 0; the caller stamps real ids.
pub fn default_catalog() -> Vec<JobSpec> {
    let engine = EngineSpec::default();
    let mut catalog = Vec::new();
    for network in [Network::tiny(), Network::alexnet()] {
        for layer in network.layers() {
            catalog.push(JobSpec::layer(0, engine, layer.clone()));
        }
    }
    let mut networks: Vec<Network> = Network::zoo().iter().map(|(_, build)| build()).collect();
    networks.sort_by_key(|n| n.layers().len());
    for network in networks {
        catalog.push(JobSpec::network(0, engine, network));
    }
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let draws: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        assert_eq!(draws, (0..16).map(|_| b.next_u64()).collect::<Vec<_>>());
        // All distinct, and uniform draws stay in [0, 1).
        let distinct: std::collections::HashSet<u64> = draws.iter().copied().collect();
        assert_eq!(distinct.len(), draws.len());
        let mut c = SplitMix64::new(7);
        for _ in 0..1000 {
            let u = c.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn default_catalog_orders_cheap_to_expensive() {
        let catalog = default_catalog();
        assert!(catalog.len() >= 10, "catalog has {} entries", catalog.len());
        // The head is a single-layer job; the tail a multi-layer net.
        assert_eq!(catalog[0].workload.layers().len(), 1);
        let last = catalog.last().unwrap();
        assert!(last.workload.layers().len() > 1);
        // Networks are sorted by ascending layer count.
        let net_sizes: Vec<usize> = catalog
            .iter()
            .filter(|spec| spec.workload.layers().len() > 1)
            .map(|spec| spec.workload.layers().len())
            .collect();
        let mut sorted = net_sizes.clone();
        sorted.sort_unstable();
        assert_eq!(net_sizes, sorted);
    }
}
