// fixture-path: crates/service/src/cli.rs
// fixture-expect: none
// cli.rs is not a request-path module: unwrap is (reluctantly)
// allowed there, and lock-poison does not match plain unwraps.

pub fn parse(v: Option<u64>) -> u64 {
    v.unwrap()
}
