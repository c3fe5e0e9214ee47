//! Error types for the SoC substrate.

use std::error::Error;
use std::fmt;

/// Errors raised by device operations (chiefly the virtual sysfs tree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocError {
    /// The sysfs path does not exist.
    NoSuchFile(String),
    /// The sysfs file exists but is read-only.
    ReadOnly(String),
    /// The value written could not be parsed or is not a supported
    /// operating point.
    InvalidValue {
        /// Path written to.
        path: String,
        /// The offending value.
        value: String,
    },
    /// `scaling_setspeed` (or its devfreq analogue) was written while the
    /// active governor is not `userspace` — the kernel rejects this.
    WrongGovernor {
        /// Path written to.
        path: String,
        /// The governor that is currently active.
        active: String,
    },
    /// The write was transiently rejected (the kernel's `-EBUSY`, e.g.
    /// while a DVFS transition or thermal mitigation holds the policy
    /// lock). Retrying later may succeed. Only raised by an installed
    /// [`crate::faults::FaultInjector`].
    Busy(String),
}

/// The field-free kind of a [`SocError`] (defined in `asgov-obs`, so
/// cycle records carry it without depending on this crate).
pub use asgov_obs::SocErrorKind;

impl SocError {
    /// The field-free kind of this error.
    pub fn kind(&self) -> SocErrorKind {
        match self {
            SocError::NoSuchFile(_) => SocErrorKind::NoSuchFile,
            SocError::ReadOnly(_) => SocErrorKind::ReadOnly,
            SocError::InvalidValue { .. } => SocErrorKind::InvalidValue,
            SocError::WrongGovernor { .. } => SocErrorKind::WrongGovernor,
            SocError::Busy(_) => SocErrorKind::Busy,
        }
    }
}

impl fmt::Display for SocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocError::NoSuchFile(p) => write!(f, "no such sysfs file: {p}"),
            SocError::ReadOnly(p) => write!(f, "sysfs file is read-only: {p}"),
            SocError::InvalidValue { path, value } => {
                write!(f, "invalid value {value:?} written to {path}")
            }
            SocError::WrongGovernor { path, active } => write!(
                f,
                "cannot write {path}: active governor is {active:?}, not \"userspace\""
            ),
            SocError::Busy(p) => write!(f, "device or resource busy writing {p}"),
        }
    }
}

impl Error for SocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = SocError::NoSuchFile("/sys/foo".into());
        assert!(e.to_string().contains("/sys/foo"));
        let e = SocError::WrongGovernor {
            path: "x".into(),
            active: "interactive".into(),
        };
        assert!(e.to_string().contains("interactive"));
    }

    #[test]
    fn kind_maps_every_variant() {
        assert_eq!(
            SocError::NoSuchFile("x".into()).kind(),
            SocErrorKind::NoSuchFile
        );
        assert_eq!(
            SocError::ReadOnly("x".into()).kind(),
            SocErrorKind::ReadOnly
        );
        assert_eq!(
            SocError::InvalidValue {
                path: "x".into(),
                value: "y".into()
            }
            .kind(),
            SocErrorKind::InvalidValue
        );
        assert_eq!(
            SocError::WrongGovernor {
                path: "x".into(),
                active: "interactive".into()
            }
            .kind(),
            SocErrorKind::WrongGovernor
        );
        let busy = SocError::Busy("/sys/x".into());
        assert_eq!(busy.kind(), SocErrorKind::Busy);
        assert!(busy.to_string().contains("busy"));
        assert_eq!(SocErrorKind::Busy.to_string(), "busy");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SocError>();
    }
}
