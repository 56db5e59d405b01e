//! Rendezvous (highest-random-weight) hashing over backend addresses.
//!
//! Every `(job key, backend)` pair gets a deterministic 64-bit weight;
//! a job runs on the reachable backend with the highest weight. The
//! property that makes this the right tool for a cache-affine cluster:
//! removing one backend remaps **only** the keys that backend owned
//! (every other key keeps its champion), and re-adding it restores the
//! exact prior assignment — no ring to rebalance, no assignment table
//! to ship. Failover falls out of the same ranking: the retry target
//! for a dead backend's key is simply the next weight down, so every
//! router in a fleet agrees on it without coordination.
//!
//! The weight is FNV-1a over the key bytes, a separator, and the
//! backend's name, passed through a SplitMix64-style finisher so
//! near-identical inputs (backend names sharing a long prefix) still
//! produce uncorrelated weights.

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The deterministic weight of `backend` for `key`.
pub(crate) fn weight(key: &str, backend: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // Separator outside both alphabets, so ("ab","c") != ("a","bc").
    h ^= 0xff;
    h = h.wrapping_mul(FNV_PRIME);
    for b in backend.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    finish(h)
}

/// SplitMix64-style avalanche finisher: every input bit affects every
/// output bit, decorrelating weights of backends with shared prefixes.
fn finish(mut h: u64) -> u64 {
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Indices of `backends`, ranked best-first for `key` (highest weight
/// wins; ties — astronomically unlikely with 64-bit weights — break
/// toward the lower index so every router ranks identically).
pub(crate) fn rank(key: &str, backends: &[String]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..backends.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weight(key, &backends[i])), i));
    order
}

/// The best-ranked backend index for `key` among those `healthy`;
/// `None` when nothing is healthy.
pub fn pick(key: &str, backends: &[String], healthy: &[bool]) -> Option<usize> {
    rank(key, backends)
        .into_iter()
        .find(|&i| healthy.get(i).copied().unwrap_or(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};

    fn backend_set(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:7878")).collect()
    }

    fn keys(rng_seed: u64, count: usize) -> Vec<String> {
        // Key shapes mirror real route keys: long, structured, shared
        // prefixes.
        (0..count)
            .map(|i| format!("SALP-2@salp_2gb_x8/key-{rng_seed}-{i}|conv|edp"))
            .collect()
    }

    #[test]
    fn picking_skips_unhealthy_backends_in_rank_order() {
        let backends = backend_set(4);
        let key = "some-layer-key";
        let order = rank(key, &backends);
        let mut healthy = vec![true; 4];
        assert_eq!(pick(key, &backends, &healthy), Some(order[0]));
        healthy[order[0]] = false;
        assert_eq!(pick(key, &backends, &healthy), Some(order[1]));
        healthy[order[1]] = false;
        assert_eq!(pick(key, &backends, &healthy), Some(order[2]));
        assert_eq!(pick(key, &backends, &[false; 4]), None);
    }

    #[test]
    fn weights_depend_on_both_halves_and_are_separator_safe() {
        assert_ne!(weight("a", "x"), weight("a", "y"));
        assert_ne!(weight("a", "x"), weight("b", "x"));
        // The separator keeps (key ‖ backend) concatenation ambiguity
        // from colliding.
        assert_ne!(weight("ab", "c"), weight("a", "bc"));
        // Deterministic across calls.
        assert_eq!(weight("k", "b"), weight("k", "b"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Removing one backend remaps only the keys it owned;
        /// re-adding it restores the exact prior assignment.
        #[test]
        fn rendezvous_is_minimally_disruptive(
            n in (2usize..8), seed in (0u64..1 << 32), victim_pick in (0usize..8)
        ) {
            let backends = backend_set(n);
            let all_healthy = vec![true; n];
            let victim = victim_pick % n;
            let mut without = all_healthy.clone();
            without[victim] = false;
            for key in keys(seed, 40) {
                let before = pick(&key, &backends, &all_healthy).unwrap();
                let during = pick(&key, &backends, &without).unwrap();
                if before == victim {
                    // An orphaned key must land somewhere else...
                    prop_assert!(during != victim);
                } else {
                    // ...and every other key must not move at all.
                    prop_assert_eq!(during, before);
                }
                // Readmission restores the exact prior assignment.
                let after = pick(&key, &backends, &all_healthy).unwrap();
                prop_assert_eq!(after, before);
            }
        }

        /// The full ranking is a permutation of the backend indices,
        /// identical on every evaluation (routers agree by
        /// construction).
        #[test]
        fn rank_is_a_stable_permutation(n in (1usize..9), seed in (0u64..1 << 32)) {
            let backends = backend_set(n);
            for key in keys(seed, 10) {
                let order = rank(&key, &backends);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
                prop_assert_eq!(rank(&key, &backends), order);
            }
        }

        /// No backend is starved: over many distinct keys every
        /// backend wins at least once (sanity on weight dispersion).
        #[test]
        fn every_backend_owns_some_keys(n in (2usize..6), seed in (0u64..1 << 32)) {
            let backends = backend_set(n);
            let healthy = vec![true; n];
            let mut owned = vec![0usize; n];
            for key in keys(seed, 200) {
                owned[pick(&key, &backends, &healthy).unwrap()] += 1;
            }
            for (i, &count) in owned.iter().enumerate() {
                prop_assert!(count > 0, "backend {} never won of 200 keys", i);
            }
        }
    }
}
