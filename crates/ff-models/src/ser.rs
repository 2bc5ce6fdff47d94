//! Compact binary serialization for tree-ensemble models.
//!
//! §4.4 of the paper has the server "aggregate the local models". Linear
//! models aggregate by coefficient averaging, but tree ensembles must
//! travel as whole models; this module gives [`crate::boosting::gbdt::XgbRegressor`]
//! (and the trees inside it) a stable little-endian wire form so federated
//! clients can exchange fitted ensembles as opaque byte blobs.
//!
//! The format is versioned and fully round-trip tested; decoding is
//! defensive (truncation and bad tags return errors, never panics).

/// Serialization errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerError {
    /// Input ended prematurely.
    Truncated,
    /// Unknown tag or version byte.
    BadTag(u8),
    /// A length field exceeded sanity bounds.
    BadLength(u64),
    /// A tree node's child or feature index points outside the tree, or
    /// a child at or before its own node.
    BadIndex(u64),
}

impl std::fmt::Display for SerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerError::Truncated => write!(f, "truncated model blob"),
            SerError::BadTag(t) => write!(f, "unknown tag {t}"),
            SerError::BadLength(n) => write!(f, "implausible length {n}"),
            SerError::BadIndex(i) => write!(f, "bad node or feature index {i}"),
        }
    }
}

impl std::error::Error for SerError {}

/// Little-endian byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Appends a byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian f64.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed f64 slice.
    pub fn f64s(&mut self, v: &[f64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.f64(x);
        }
    }

    /// Appends a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Finishes and returns the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian byte reader.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Reads a byte.
    pub fn u8(&mut self) -> Result<u8, SerError> {
        let v = *self.buf.get(self.pos).ok_or(SerError::Truncated)?;
        self.pos += 1;
        Ok(v)
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SerError> {
        let end = self.pos + 4;
        let raw = self.buf.get(self.pos..end).ok_or(SerError::Truncated)?;
        self.pos = end;
        Ok(u32::from_le_bytes(raw.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SerError> {
        let end = self.pos.checked_add(8).ok_or(SerError::Truncated)?;
        let raw = self.buf.get(self.pos..end).ok_or(SerError::Truncated)?;
        self.pos = end;
        Ok(u64::from_le_bytes(raw.try_into().unwrap()))
    }

    /// Reads a little-endian f64.
    pub fn f64(&mut self) -> Result<f64, SerError> {
        let end = self.pos + 8;
        let raw = self.buf.get(self.pos..end).ok_or(SerError::Truncated)?;
        self.pos = end;
        Ok(f64::from_le_bytes(raw.try_into().unwrap()))
    }

    /// Reads a length-prefixed f64 vector (lengths over `max_len` are
    /// rejected to bound allocations on corrupt input, and a declared
    /// length that exceeds the remaining input is truncation — checked
    /// *before* any allocation, so a hostile length prefix cannot force
    /// a huge up-front reservation).
    pub fn f64s(&mut self, max_len: usize) -> Result<Vec<f64>, SerError> {
        let n = self.u32()? as usize;
        if n > max_len {
            return Err(SerError::BadLength(n as u64));
        }
        if n.saturating_mul(8) > self.buf.len() - self.pos {
            return Err(SerError::Truncated);
        }
        (0..n).map(|_| self.f64()).collect()
    }

    /// Reads a length-prefixed byte slice (lengths over `max_len` are
    /// rejected to bound allocations on corrupt input).
    pub fn bytes(&mut self, max_len: usize) -> Result<&'a [u8], SerError> {
        let n = self.u32()? as usize;
        if n > max_len {
            return Err(SerError::BadLength(n as u64));
        }
        let end = self.pos + n;
        let raw = self.buf.get(self.pos..end).ok_or(SerError::Truncated)?;
        self.pos = end;
        Ok(raw)
    }

    /// Reads a length-prefixed UTF-8 string (invalid UTF-8 is a bad tag).
    pub fn str(&mut self, max_len: usize) -> Result<&'a str, SerError> {
        let raw = self.bytes(max_len)?;
        std::str::from_utf8(raw).map_err(|_| SerError::BadTag(0))
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet consumed — what a framing layer reports when a
    /// decoder finishes early on input that should have been exhausted.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(123_456);
        w.f64(-2.5e-3);
        w.f64s(&[1.0, 2.0, 3.0]);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.f64().unwrap(), -2.5e-3);
        assert_eq!(r.f64s(10).unwrap(), vec![1.0, 2.0, 3.0]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn string_and_bytes_roundtrip() {
        let mut w = Writer::new();
        w.str("XGBRegressor");
        w.bytes(&[1, 2, 3]);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.str(64).unwrap(), "XGBRegressor");
        assert_eq!(r.bytes(64).unwrap(), &[1, 2, 3]);
        assert!(r.is_exhausted());
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.str(4), Err(SerError::BadLength(_))));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.f64(1.0);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes[..4]);
        assert_eq!(r.f64().unwrap_err(), SerError::Truncated);
    }

    #[test]
    fn implausible_length_rejected() {
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.f64s(100), Err(SerError::BadLength(_))));
    }

    #[test]
    fn u64_roundtrips() {
        let mut w = Writer::new();
        w.u64(u64::MAX - 7);
        w.u64(0);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.u64().unwrap(), 0);
        assert!(r.is_exhausted());
        assert_eq!(
            Reader::new(&bytes[..7]).u64().unwrap_err(),
            SerError::Truncated
        );
    }

    #[test]
    fn declared_length_beyond_input_is_truncation_not_allocation() {
        // A length prefix claiming ~32 GiB of f64s over a 12-byte buffer
        // must fail fast, not pre-reserve the declared capacity.
        let mut w = Writer::new();
        w.u32(u32::MAX / 2);
        w.f64(1.0);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.f64s(usize::MAX).unwrap_err(), SerError::Truncated);
    }
}
