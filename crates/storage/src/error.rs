//! Storage error type.

use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Errors raised by the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A page id outside any allocated extent was accessed.
    PageOutOfBounds {
        /// The offending page id.
        page: u64,
        /// Current device size in pages.
        device_pages: u64,
    },
    /// A page was read before ever being written.
    UnwrittenPage(u64),
    /// A page of a released extent was accessed (its image is gone, and
    /// its address is never handed out again).
    ReleasedPage(u64),
    /// A release named a range that is not a live extent (a part of one,
    /// or one already released).
    NotAnExtent {
        /// First page of the range.
        start: u64,
        /// Length of the range in pages.
        pages: u64,
    },
    /// A record is too large to fit even an empty page.
    RecordTooLarge {
        /// Encoded record size.
        record: usize,
        /// Usable bytes in one page.
        capacity: usize,
    },
    /// A page's bytes failed to decode.
    Corrupt(String),
    /// A file append exceeded the file's reserved extent.
    ExtentOverflow {
        /// Extent capacity in pages.
        capacity: u64,
    },
    /// An error bubbled up from the core data model.
    Core(vtjoin_core::TemporalError),
    /// An injected transient device fault that survived every retry.
    ///
    /// Only produced when fault injection is enabled on the disk
    /// (see [`crate::faults::FaultConfig`]).
    InjectedFault {
        /// The page the faulted operation targeted.
        page: u64,
        /// True for a write fault, false for a read fault.
        write: bool,
        /// Attempts performed before giving up (including the first).
        attempts: u32,
    },
}

impl StorageError {
    /// Whether the error models a *transient* device condition — one a
    /// retry at a higher level could plausibly clear. Corruption is not
    /// transient: a torn page stays torn no matter how often it is read.
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::InjectedFault { .. })
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::PageOutOfBounds { page, device_pages } => {
                write!(
                    f,
                    "page {page} out of bounds (device has {device_pages} pages)"
                )
            }
            StorageError::UnwrittenPage(p) => write!(f, "page {p} read before write"),
            StorageError::ReleasedPage(p) => write!(f, "page {p} belongs to a released extent"),
            StorageError::NotAnExtent { start, pages } => {
                write!(f, "pages {start}..{} are not a live extent", start + pages)
            }
            StorageError::RecordTooLarge { record, capacity } => {
                write!(
                    f,
                    "record of {record} bytes exceeds page capacity {capacity}"
                )
            }
            StorageError::Corrupt(msg) => write!(f, "corrupt page: {msg}"),
            StorageError::ExtentOverflow { capacity } => {
                write!(f, "file append exceeded its {capacity}-page extent")
            }
            StorageError::Core(e) => write!(f, "{e}"),
            StorageError::InjectedFault {
                page,
                write,
                attempts,
            } => {
                let op = if *write { "write" } else { "read" };
                write!(
                    f,
                    "injected {op} fault on page {page} persisted across {attempts} attempts"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<vtjoin_core::TemporalError> for StorageError {
    fn from(e: vtjoin_core::TemporalError) -> Self {
        StorageError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_details() {
        let e = StorageError::PageOutOfBounds {
            page: 9,
            device_pages: 4,
        };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
        let e = StorageError::RecordTooLarge {
            record: 5000,
            capacity: 4094,
        };
        assert!(e.to_string().contains("5000"));
    }

    #[test]
    fn transience_is_limited_to_injected_faults() {
        let e = StorageError::InjectedFault {
            page: 3,
            write: true,
            attempts: 4,
        };
        assert!(e.is_transient());
        assert!(e.to_string().contains("write fault on page 3"));
        assert!(!StorageError::Corrupt("torn".into()).is_transient());
        assert!(!StorageError::UnwrittenPage(0).is_transient());
    }

    #[test]
    fn core_errors_convert() {
        let e: StorageError = vtjoin_core::TemporalError::UnknownAttribute("x".into()).into();
        assert!(matches!(e, StorageError::Core(_)));
    }
}
