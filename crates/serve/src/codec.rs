//! Low-level little-endian byte codec for the model-artifact format.
//!
//! Hand-rolled on purpose: the build environment has no registry access, so
//! no serde. The primitives are deliberately boring — fixed-width
//! little-endian integers, IEEE-754 bit patterns for floats, and
//! length-prefixed UTF-8 for strings — so the format is implementable from
//! the README description alone.
//!
//! Every length read from the wire is bounds-checked against the bytes that
//! remain *before* allocating, so a corrupt length field produces a clean
//! [`ServeError`] instead of an out-of-memory abort.

use crate::error::ServeError;

/// Append-only little-endian byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty writer that holds `capacity` bytes before it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    pub fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Bool as one byte (0 or 1).
    pub fn bool(&mut self, x: bool) {
        self.u8(u8::from(x));
    }

    /// Little-endian u32.
    pub fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Little-endian u64.
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// IEEE-754 f64 bit pattern, little-endian (bit-exact round trip).
    pub fn f64(&mut self, x: f64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Overwrite the little-endian u64 written earlier at byte offset
    /// `at` (a placeholder filled in once its value is known).
    pub fn patch_u64(&mut self, at: usize, x: u64) {
        let slot = at.checked_add(8).and_then(|end| self.buf.get_mut(at..end));
        debug_assert!(slot.is_some(), "patch at {at} past the written bytes");
        if let Some(slot) = slot {
            slot.copy_from_slice(&x.to_le_bytes());
        }
    }

    /// Length-prefixed (u64) UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Length-prefixed (u64) slice of f64.
    pub fn f64_slice(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }

    /// Length-prefixed (u64) slice of u32.
    pub fn u32_slice(&mut self, xs: &[u32]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.u32(x);
        }
    }
}

/// Bounds-checked little-endian byte reader over a slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Context string reported by truncation errors.
    context: &'static str,
}

impl<'a> Reader<'a> {
    /// Read from `buf`; `context` names what is being decoded in errors.
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        Self {
            buf,
            pos: 0,
            context,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless every byte was consumed (sections must parse exactly).
    pub fn expect_empty(&self) -> Result<(), ServeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ServeError::Corrupt(format!(
                "{} has {} trailing bytes",
                self.context,
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        match self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end))
        {
            Some(out) => {
                self.pos += n;
                Ok(out)
            }
            None => Err(ServeError::Truncated {
                context: self.context,
            }),
        }
    }

    /// Take exactly `N` bytes as a fixed-width array. The copy cannot fail:
    /// `take` hands back exactly `N` bytes or errors.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], ServeError> {
        let bytes = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, ServeError> {
        let [b] = self.take_array::<1>()?;
        Ok(b)
    }

    /// Bool from one byte; anything but 0/1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, ServeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ServeError::Corrupt(format!(
                "{}: invalid bool byte {other}",
                self.context
            ))),
        }
    }

    /// Little-endian u32.
    pub fn u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Little-endian u64.
    pub fn u64(&mut self) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// IEEE-754 f64 from its little-endian bit pattern.
    pub fn f64(&mut self) -> Result<f64, ServeError> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }

    /// A u64 length field, validated against the bytes that remain given
    /// `elem_size` bytes per element — rejects lengths a corrupt file could
    /// use to force a huge allocation.
    pub fn len(&mut self, elem_size: usize) -> Result<usize, ServeError> {
        let n = self.u64()?;
        let max = (self.remaining() / elem_size.max(1)) as u64;
        if n > max {
            return Err(ServeError::Corrupt(format!(
                "{}: length {n} exceeds the {max} elements that fit in the remaining bytes",
                self.context
            )));
        }
        Ok(n as usize)
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, ServeError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ServeError::Corrupt(format!("{}: invalid UTF-8 string", self.context)))
    }

    /// Length-prefixed f64 vector.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, ServeError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Length-prefixed u32 vector.
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, ServeError> {
        let n = self.len(4)?;
        (0..n).map(|_| self.u32()).collect()
    }
}

/// FNV-1a 64-bit hash — the artifact's integrity checksum. Not
/// cryptographic; it guards against truncation and bit rot, not tampering.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.str("umpire ⚾");
        w.f64_slice(&[1.5, -2.5]);
        w.u32_slice(&[3, 0, 9]);
        w.u64(0);
        w.patch_u64(w.len() - 8, 77);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "umpire ⚾");
        assert_eq!(r.f64_vec().unwrap(), vec![1.5, -2.5]);
        assert_eq!(r.u32_vec().unwrap(), vec![3, 0, 9]);
        assert_eq!(r.u64().unwrap(), 77);
        r.expect_empty().unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = Writer::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5], "short");
        assert!(matches!(
            r.u64(),
            Err(ServeError::Truncated { context: "short" })
        ));
    }

    #[test]
    fn absurd_length_fields_are_rejected_before_allocation() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // claims ~1.8e19 elements
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "vec");
        assert!(matches!(r.f64_vec(), Err(ServeError::Corrupt(_))));
    }

    #[test]
    fn invalid_bool_and_utf8_are_corrupt() {
        let mut r = Reader::new(&[2], "b");
        assert!(matches!(r.bool(), Err(ServeError::Corrupt(_))));
        let mut w = Writer::new();
        w.u64(2);
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "s");
        assert!(matches!(r.str(), Err(ServeError::Corrupt(_))));
    }

    #[test]
    fn expect_empty_flags_trailing_bytes() {
        let r = Reader::new(&[1, 2], "sec");
        assert!(matches!(r.expect_empty(), Err(ServeError::Corrupt(_))));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
