//! Error types for the DRAM model.

use core::fmt;

/// An invalid configuration was supplied (geometry, timing, or controller).
///
/// # Examples
///
/// ```
/// use drmap_dram::geometry::Geometry;
///
/// let g = Geometry { rows: 0, ..Geometry::ddr3_2gb_x8() };
/// let err = g.validate().unwrap_err();
/// assert!(err.to_string().contains("rows"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Create a configuration error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }

    pub(crate) fn zero_field(name: &str) -> Self {
        ConfigError::new(format!("{name} must be non-zero"))
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// An address lies outside the device described by a [`Geometry`].
///
/// [`Geometry`]: crate::geometry::Geometry
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressError {
    message: String,
}

impl AddressError {
    /// Create an address error with the given message.
    pub(crate) fn new(message: impl Into<String>) -> Self {
        AddressError {
            message: message.into(),
        }
    }
}

impl fmt::Display for AddressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address: {}", self.message)
    }
}

impl std::error::Error for AddressError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_error_display() {
        let e = ConfigError::new("banks must be non-zero");
        assert_eq!(
            e.to_string(),
            "invalid configuration: banks must be non-zero"
        );
    }

    #[test]
    fn address_error_display() {
        let e = AddressError::new("row 99999 out of range");
        assert!(e.to_string().starts_with("invalid address"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
        assert_send_sync::<AddressError>();
    }
}
