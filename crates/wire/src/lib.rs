//! Versioned, self-describing binary wire format for Kalman serving
//! state: stream snapshots, events, finalized steps, and the framed
//! protocol that carries them between processes.
//!
//! # Design
//!
//! - **Versioned and self-describing.**  Every frame starts with a magic
//!   and a protocol version; every variant-typed value (covariance specs,
//!   events, lag policies) carries a tag byte.  A peer from the future is
//!   rejected with [`WireError::VersionMismatch`], never misread.
//! - **Bitwise lossless.**  `f64` values travel as their exact IEEE-754
//!   bit patterns, so decode(encode(x)) reproduces `x` bit for bit — the
//!   property the cluster layer's "cross-process output equals in-process
//!   output" contract is built on.
//! - **A trust boundary.**  Decoders assume hostile input: truncation,
//!   corruption, bad tags, and absurd length prefixes all surface as typed
//!   [`WireError`]s.  No decode path panics, and no decode path allocates
//!   proportionally to an unvalidated length field.
//! - **Allocation-free in steady state.**  Encoding writes into a
//!   reusable [`Writer`]; framing reads into a reusable buffer inside
//!   [`FrameReader`].  Once both have grown to the largest message in
//!   flight, the hot path performs no heap allocation.
//!
//! # Layers
//!
//! | layer | types | spans |
//! |---|---|---|
//! | values | [`codec`] functions over [`Writer`]/[`Reader`] | matrices, events, snapshots, options |
//! | frames | [`FrameWriter`], [`FrameReader`] | magic, version, kind, length, CRC-32 |
//!
//! The cluster layer (`kalman-cluster`) assigns meaning to frame kinds;
//! this crate only moves validated bytes.
//!
//! ```
//! use kalman_wire::{FrameReader, FrameWriter, Reader, Writer, codec};
//! use kalman_dense::Matrix;
//!
//! // Encode a matrix into a reusable payload buffer…
//! let m = Matrix::from_fn(2, 3, |i, j| (3 * i + j) as f64);
//! let mut payload = Writer::new();
//! codec::encode_matrix(&mut payload, &m);
//!
//! // …frame it over any byte stream…
//! let mut sink = Vec::new();
//! FrameWriter::new(&mut sink).send(1, payload.as_slice()).unwrap();
//!
//! // …and get the same bits back on the other side.
//! let mut rx = FrameReader::new(std::io::Cursor::new(sink));
//! let (kind, bytes) = rx.next_frame().unwrap().unwrap();
//! assert_eq!(kind, 1);
//! let mut r = Reader::new(bytes);
//! let back = codec::decode_matrix(&mut r).unwrap();
//! assert_eq!(back.as_slice(), m.as_slice());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buf;
pub mod codec;
mod crc;
mod error;
mod frame;

pub use buf::{Reader, Writer};
pub use crc::crc32;
pub use error::{Result, WireError};
pub use frame::{
    decode_header, encode_header, frame_bytes, FrameHeader, FrameReader, FrameWriter, Progress,
    DEFAULT_MAX_FRAME, HEADER_LEN, MAGIC, VERSION,
};
