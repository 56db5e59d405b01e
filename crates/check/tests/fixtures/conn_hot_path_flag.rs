// fixture-path: crates/service/src/conn.rs
// fixture-expect: no-unwrap-hot-path
// Every request and response of both tiers crosses the shared
// connection layer, so it is request-hot like the server itself.

pub fn bare_unwrap(slot: Option<usize>) -> usize {
    slot.unwrap()
}
