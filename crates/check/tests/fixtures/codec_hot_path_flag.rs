// fixture-path: crates/service/src/json.rs
// fixture-expect: no-unwrap-hot-path
// Every request is parsed and decoded by the codec, and every response
// encoded by it, so it is request-hot like the server itself.

pub fn bare_unwrap(slot: Option<usize>) -> usize {
    slot.unwrap()
}
