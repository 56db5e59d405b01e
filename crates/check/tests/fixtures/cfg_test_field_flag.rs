// fixture-path: crates/service/src/cache.rs
// fixture-expect: no-unwrap-hot-path
// A `#[cfg(test)]` struct field or struct-literal member ends at the
// enclosing brace, not past it: the unwrap after them is still flagged.

pub struct Counters {
    pub hits: u64,
    #[cfg(test)]
    pub probes: u64,
}

pub fn counters() -> Counters {
    Counters {
        hits: 0,
        #[cfg(test)]
        probes: 0,
    }
}

pub fn bare_unwrap(v: Option<u64>) -> u64 {
    v.unwrap()
}
