//! Decode and transport errors.

use std::fmt;

/// Everything that can go wrong encoding, framing, or decoding wire data.
///
/// Decoding is a trust boundary: bytes may arrive truncated, corrupted, or
/// produced by a different protocol version, and every such defect must
/// surface as a typed error — never a panic, never silent garbage.  Any
/// error other than [`WireError::Io`] wrapping a retryable kind means the
/// byte stream itself can no longer be trusted; the connection should be
/// torn down and re-established (the cluster supervisor treats it exactly
/// like a worker crash: restart, restore, replay).
#[derive(Debug)]
pub enum WireError {
    /// The input ended before a complete item could be decoded.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The frame did not start with the protocol magic — this is not a
    /// kalman-wire byte stream (or framing desynchronized).
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Version found in the frame header.
        got: u16,
        /// Version this build supports ([`crate::VERSION`]).
        supported: u16,
    },
    /// The payload checksum did not match: the frame was corrupted in
    /// transit or storage.
    BadCrc {
        /// CRC32 recorded in the frame header.
        expected: u32,
        /// CRC32 computed over the received payload.
        found: u32,
    },
    /// The length prefix exceeds the receiver's configured maximum frame
    /// size (a corrupt length, or a hostile/misconfigured peer).
    Oversized {
        /// Length the header claimed.
        len: u32,
        /// Receiver's limit.
        max: u32,
    },
    /// An enum tag byte had no defined meaning.
    UnknownTag {
        /// Which decoder saw the tag.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// The bytes decoded structurally but the decoded value is invalid
    /// (e.g. a snapshot head with inconsistent shapes).
    Malformed(String),
    /// The underlying transport failed.
    Io(std::io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated input: needed {needed} bytes, have {have}")
            }
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::VersionMismatch { got, supported } => {
                write!(f, "wire version mismatch: got {got}, supported {supported}")
            }
            WireError::BadCrc { expected, found } => {
                write!(f, "frame CRC mismatch: header says {expected:#010x}, payload hashes to {found:#010x}")
            }
            WireError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte limit")
            }
            WireError::UnknownTag { what, tag } => {
                write!(f, "unknown {what} tag {tag:#04x}")
            }
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Shorthand result type for wire operations.
pub type Result<T> = std::result::Result<T, WireError>;
