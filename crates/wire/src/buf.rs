//! Payload building and parsing: a reusable byte-buffer writer and a
//! bounds-checked cursor reader.  All integers are little-endian;
//! floating-point values travel as their exact IEEE-754 bit patterns, so
//! a decode(encode(x)) round trip is bitwise lossless.

use crate::error::{Result, WireError};

/// A reusable payload builder.  `clear` + `put_*` between frames keeps the
/// buffer's capacity, so steady-state encoding performs no heap
/// allocations once the buffer has grown to the largest frame it carries.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Drops the content, keeping the capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written since the last clear.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v); // lint: allow(alloc, "amortized append into a reusable buffer that retains capacity across frames")
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact little-endian bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        // lint: allow(alloc, "amortized append into a reusable buffer that retains capacity across frames; steady-state encodes stop growing after warm-up")
        self.buf.extend_from_slice(bytes);
    }

    /// Overwrites the little-endian `u32` at byte offset `at`, a placeholder
    /// appended earlier (a count or a length known only once what follows
    /// it is written).
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        debug_assert!(at + 4 <= self.buf.len(), "patch past the end");
        if let Some(dst) = self.buf.get_mut(at..at + 4) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }
}

/// A bounds-checked cursor over a payload slice.  Every accessor returns
/// [`WireError::Truncated`] instead of panicking when the input runs out —
/// this is the trust boundary for bytes arriving off the wire.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `len` raw bytes.
    pub fn get_bytes(&mut self, len: usize) -> Result<&'a [u8]> {
        if self.remaining() < len {
            return Err(WireError::Truncated {
                needed: len,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.get_bytes(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        let b = self.get_bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.get_bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.get_bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Fails with [`WireError::Malformed`] unless every byte was consumed —
    /// call at the end of a payload decode to reject trailing garbage.
    pub fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips_are_bitwise() {
        let mut w = Writer::new();
        w.put_u8(0xAB);
        w.put_u16(0xCDEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::NAN, f64::INFINITY] {
            w.put_f64(v);
        }
        let mut r = Reader::new(w.as_slice());
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0xCDEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::NAN, f64::INFINITY] {
            assert_eq!(r.get_f64().unwrap().to_bits(), v.to_bits());
        }
        r.finish().unwrap();
    }

    #[test]
    fn short_reads_report_truncation() {
        let mut w = Writer::new();
        w.put_u32(7);
        let mut r = Reader::new(&w.as_slice()[..2]);
        match r.get_u32() {
            Err(WireError::Truncated { needed: 4, have: 2 }) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = Writer::new();
        w.put_u16(1);
        w.put_u8(9);
        let mut r = Reader::new(w.as_slice());
        r.get_u16().unwrap();
        assert!(matches!(r.finish(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn clear_retains_capacity() {
        let mut w = Writer::new();
        w.put_bytes(&[0u8; 1024]);
        let cap = w.buf.capacity();
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.buf.capacity(), cap);
    }
}
