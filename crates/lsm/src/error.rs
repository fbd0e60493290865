//! The typed error surface of the v2 `Db` API.
//!
//! Every public operation on [`crate::Db`] returns [`Result`] instead of a
//! bare `std::io::Result`, so callers can distinguish an operating-system
//! failure ([`Error::Io`]) from on-disk damage ([`Error::Corruption`]), a
//! rejected argument or configuration ([`Error::Config`]) and a crashed
//! internal thread ([`Error::Poisoned`]). Every failure to decode persisted
//! bytes is [`Error::Corruption`] naming the file: there is no conversion
//! from the byte reader's `CodecError`, so a decode path must say where
//! the damage is. The enum is `#[non_exhaustive]`: downstream matches must
//! keep a wildcard arm so new failure classes can be added without a
//! breaking release.

/// Alias for `std::result::Result<T, proteus_lsm::Error>`, used by every
/// public method of the store.
pub type Result<T> = std::result::Result<T, Error>;

/// Everything that can go wrong inside the store.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The operating system failed an I/O call (open, read, write, sync,
    /// rename). Background flush/compaction failures are sticky and also
    /// surface here, at the next barrier or write.
    Io(std::io::Error),
    /// Persisted bytes failed validation: bad magic, an unsupported format
    /// version, a checksum mismatch, or geometry that does not fit the
    /// file. The data needs repair; retrying will not help.
    Corruption(String),
    /// An argument or configuration value was rejected at the API
    /// boundary: wrong key width, empty key, or a [`crate::DbConfig`]
    /// that fails validation at [`crate::Db::open`].
    Config(String),
    /// An internal lock was poisoned — another thread panicked while
    /// holding it. The store's state is suspect; reopen it.
    Poisoned(&'static str),
}

impl Error {
    /// Build a [`Error::Corruption`] from anything displayable.
    pub(crate) fn corruption(detail: impl Into<String>) -> Error {
        Error::Corruption(detail.into())
    }

    /// Build a [`Error::Config`] from anything displayable.
    pub(crate) fn config(detail: impl Into<String>) -> Error {
        Error::Config(detail.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::Corruption(d) => write!(f, "corruption: {d}"),
            Error::Config(d) => write!(f, "invalid configuration: {d}"),
            Error::Poisoned(what) => {
                write!(f, "internal lock poisoned ({what}): a worker thread panicked")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_errors_convert_and_chain() {
        let e: Error = std::io::Error::other("disk gone").into();
        assert!(matches!(e, Error::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("disk gone"));
    }

    #[test]
    fn corruption_and_config_render_their_detail() {
        assert!(Error::corruption("bad footer").to_string().contains("bad footer"));
        assert!(Error::config("key_width must be > 0").to_string().contains("key_width"));
        assert!(Error::Poisoned("memtable lock").to_string().contains("memtable lock"));
    }
}
