//! Wire-format error type.

use std::error::Error;
use std::fmt;

use nrmi_heap::HeapError;

/// Errors raised while encoding or decoding object graphs.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The payload did not start with the NRMI magic bytes.
    BadMagic,
    /// The payload's format version is not supported.
    UnsupportedVersion(u8),
    /// The payload ended before a complete value was read.
    UnexpectedEof {
        /// Byte offset at which more input was needed.
        offset: usize,
    },
    /// An unknown value tag was encountered.
    UnknownTag {
        /// The offending tag byte.
        tag: u8,
        /// Byte offset of the tag.
        offset: usize,
    },
    /// A back-reference pointed past the objects decoded so far.
    BadBackRef {
        /// The referenced traversal position.
        position: u32,
        /// Number of objects decoded when it was encountered.
        decoded: u32,
    },
    /// A delta referenced an old-object index outside its order.
    BadOldIndex {
        /// The referenced old index.
        index: u32,
        /// Length of the order the delta is relative to.
        len: u32,
    },
    /// A string was not valid UTF-8.
    InvalidUtf8 {
        /// Byte offset of the string payload.
        offset: usize,
    },
    /// A varint overflowed its target width.
    VarintOverflow {
        /// Byte offset of the varint.
        offset: usize,
    },
    /// An object of a non-serializable class was reached during encoding.
    NotSerializable {
        /// Class name.
        class: String,
    },
    /// A remote-marked object was reached but no remote hooks were
    /// installed (plain serialization cannot marshal remote objects).
    RemoteWithoutHooks {
        /// Class name.
        class: String,
    },
    /// A remote reference named a key absent from the export table.
    UnknownExport {
        /// The unresolvable key.
        key: u64,
    },
    /// The payload decoded completely but bytes were left over — a
    /// truncated write, a mis-framed buffer, or data smuggled after a
    /// valid prefix. Accepting it would silently drop state.
    TrailingBytes {
        /// Byte offset where decoding finished.
        offset: usize,
        /// Number of unconsumed bytes after it.
        trailing: usize,
    },
    /// An underlying heap operation failed.
    Heap(HeapError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "payload does not start with NRMI magic"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire format version {v}"),
            WireError::UnexpectedEof { offset } => {
                write!(f, "unexpected end of payload at byte {offset}")
            }
            WireError::UnknownTag { tag, offset } => {
                write!(f, "unknown value tag {tag:#04x} at byte {offset}")
            }
            WireError::BadBackRef { position, decoded } => write!(
                f,
                "back-reference to position {position} but only {decoded} objects decoded"
            ),
            WireError::BadOldIndex { index, len } => {
                write!(f, "old-object index {index} outside an order of {len}")
            }
            WireError::InvalidUtf8 { offset } => {
                write!(f, "invalid UTF-8 string at byte {offset}")
            }
            WireError::VarintOverflow { offset } => {
                write!(f, "varint overflow at byte {offset}")
            }
            WireError::NotSerializable { class } => {
                write!(f, "class {class} is not serializable")
            }
            WireError::RemoteWithoutHooks { class } => write!(
                f,
                "remote object of class {class} reached without remote hooks installed"
            ),
            WireError::UnknownExport { key } => {
                write!(f, "remote reference to unknown export key {key}")
            }
            WireError::TrailingBytes { offset, trailing } => {
                write!(
                    f,
                    "{trailing} unconsumed byte(s) after payload ended at byte {offset}"
                )
            }
            WireError::Heap(e) => write!(f, "heap error during (de)serialization: {e}"),
        }
    }
}

impl Error for WireError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WireError::Heap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HeapError> for WireError {
    fn from(e: HeapError) -> Self {
        WireError::Heap(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_and_sourced() {
        fn assert_bounds<T: Send + Sync + Error + 'static>() {}
        assert_bounds::<WireError>();
        let e = WireError::Heap(HeapError::DanglingRef(3));
        assert!(e.source().is_some());
        assert!(WireError::BadMagic.source().is_none());
    }

    #[test]
    fn displays_are_informative() {
        let cases: Vec<(WireError, &str)> = vec![
            (WireError::BadMagic, "magic"),
            (WireError::UnsupportedVersion(9), "9"),
            (WireError::UnexpectedEof { offset: 5 }, "5"),
            (
                WireError::UnknownTag {
                    tag: 0xff,
                    offset: 2,
                },
                "0xff",
            ),
            (
                WireError::BadBackRef {
                    position: 7,
                    decoded: 3,
                },
                "7",
            ),
            (WireError::BadOldIndex { index: 4, len: 2 }, "4"),
            (WireError::InvalidUtf8 { offset: 1 }, "UTF-8"),
            (WireError::VarintOverflow { offset: 1 }, "varint"),
            (
                WireError::NotSerializable {
                    class: "Foo".into(),
                },
                "Foo",
            ),
            (
                WireError::RemoteWithoutHooks {
                    class: "Bar".into(),
                },
                "Bar",
            ),
            (WireError::UnknownExport { key: 77 }, "77"),
            (
                WireError::TrailingBytes {
                    offset: 12,
                    trailing: 3,
                },
                "3 unconsumed",
            ),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }
}
