//! Flag-value parsing shared by the `drmap-serve`, `drmap-batch` and
//! `drmap-router` binaries.

/// Parse a flag value as a positive integer, rejecting zero, negatives,
/// and garbage with a uniform error message.
///
/// # Errors
///
/// Returns `"invalid <flag> value <value>"` when the value is not a
/// positive integer.
pub fn parse_positive(flag: &str, value: &str) -> Result<usize, String> {
    value
        .parse()
        .ok()
        .filter(|&n: &usize| n > 0)
        .ok_or_else(|| format!("invalid {flag} value {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_positive_rejects_the_rest() {
        assert_eq!(parse_positive("--workers", "4"), Ok(4));
        for bad in ["0", "-1", "four", "", "1.5"] {
            let err = parse_positive("--workers", bad).unwrap_err();
            assert!(err.contains("--workers"), "{err}");
        }
    }
}
