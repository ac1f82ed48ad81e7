//! Binary codec for the I2P-style wire format.
//!
//! The real I2P common-structures format is big-endian with
//! length-prefixed strings and sorted `key=value;` mappings; we reproduce
//! those conventions so RouterInfo files have realistic structure and the
//! codec round-trips are a meaningful property-test surface.

/// Errors produced while decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the structure was complete.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// A length, discriminant or invariant was out of range.
    Invalid {
        /// What was being decoded.
        what: &'static str,
    },
    /// A signature failed to verify.
    BadSignature,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { what } => write!(f, "truncated input while decoding {what}"),
            DecodeError::Invalid { what } => write!(f, "invalid value while decoding {what}"),
            DecodeError::BadSignature => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only binary writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that appends to `buf`, after the bytes already in it.
    pub fn append_to(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a big-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes raw bytes (no length prefix).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes an unsigned LEB128 varint (7 data bits per byte, low
    /// group first, high bit = continuation). Snapshot segments store
    /// counts and delta-encoded id runs this way: daily sighting sets
    /// are dense in small deltas, so most entries cost one byte.
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.u8(byte);
                return;
            }
            self.u8(byte | 0x80);
        }
    }

    /// Writes a strictly-ascending id run: a varint count, the first id
    /// as a varint, then varint gaps (`id − prev`, always ≥ 1).
    ///
    /// # Panics
    /// If `ids` is not strictly ascending.
    pub fn id_run(&mut self, ids: &[u32]) {
        self.varint(ids.len() as u64);
        let mut prev = 0u32;
        for (i, &id) in ids.iter().enumerate() {
            if i == 0 {
                self.varint(id as u64);
            } else {
                assert!(id > prev, "id runs must be strictly ascending ({prev} then {id})");
                self.varint((id - prev) as u64);
            }
            prev = id;
        }
    }

    /// Writes an I2P string: one length byte then up to 255 bytes.
    pub fn string(&mut self, s: &str) {
        let b = s.as_bytes();
        assert!(b.len() <= 255, "I2P strings are at most 255 bytes");
        self.u8(b.len() as u8);
        self.bytes(b);
    }

    /// Writes an I2P mapping: u16 total size, then `key=value;` pairs in
    /// sorted key order (sorting is required so signatures are stable).
    pub fn mapping<'a>(&mut self, pairs: impl IntoIterator<Item = (&'a str, &'a str)>) {
        let mut sorted: Vec<(&str, &str)> = pairs.into_iter().collect();
        sorted.sort_by_key(|(k, _)| *k);
        let mut inner = Writer::new();
        for (k, v) in sorted {
            inner.string(k);
            inner.u8(b'=');
            inner.string(v);
            inner.u8(b';');
        }
        let body = inner.into_bytes();
        assert!(body.len() <= u16::MAX as usize);
        self.u16(body.len() as u16);
        self.bytes(&body);
    }
}

/// Cursor-based binary reader.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the reader is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a big-endian u16.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, DecodeError> {
        let b = self.take(2, what)?;
        Ok(u16::from_be_bytes([b[0], b[1]])) // i2plint: allow(index-literal) -- take(2, ..) returned exactly 2 bytes
    }

    /// Reads a big-endian u32.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let b = self.take(4, what)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]])) // i2plint: allow(index-literal) -- take(4, ..) returned exactly 4 bytes
    }

    /// Reads a big-endian u64.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let b = self.take(8, what)?;
        Ok(u64::from_be_bytes(b.try_into().unwrap())) // i2plint: allow(panic-audit) -- take(8, ..) returned exactly 8 bytes
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        self.take(n, what)
    }

    /// Reads an unsigned LEB128 varint (counterpart of
    /// [`Writer::varint`]). Encodings that overflow 64 bits are
    /// `Invalid`; non-minimal encodings of in-range values are accepted.
    pub fn varint(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8(what)?;
            let low = (b & 0x7F) as u64;
            if shift >= 64 || (shift == 63 && low > 1) {
                return Err(DecodeError::Invalid { what });
            }
            out |= low << shift;
            if b & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    /// Reads a strictly-ascending id run (counterpart of
    /// [`Writer::id_run`]). A zero gap, an id past `u32::MAX`, or a
    /// count that cannot fit in the remaining input is `Invalid`.
    pub fn id_run(&mut self, what: &'static str) -> Result<Vec<u32>, DecodeError> {
        let n = self.varint(what)? as usize;
        // Every entry costs at least one byte, so a count beyond the
        // remaining input is corrupt — refusing here also bounds the
        // allocation below by the input size.
        if n > self.remaining() {
            return Err(DecodeError::Invalid { what });
        }
        let mut out = Vec::with_capacity(n);
        let mut prev = 0u64;
        for i in 0..n {
            let d = self.varint(what)?;
            if d > u32::MAX as u64 || (i > 0 && d == 0) {
                return Err(DecodeError::Invalid { what });
            }
            let id = if i == 0 { d } else { prev + d };
            if id > u32::MAX as u64 {
                return Err(DecodeError::Invalid { what });
            }
            out.push(id as u32);
            prev = id;
        }
        Ok(out)
    }

    /// Reads exactly 32 bytes into an array.
    pub fn array32(&mut self, what: &'static str) -> Result<[u8; 32], DecodeError> {
        Ok(self.take(32, what)?.try_into().unwrap()) // i2plint: allow(panic-audit) -- take(32, ..) returned exactly 32 bytes
    }

    /// Reads an I2P string.
    pub fn string(&mut self, what: &'static str) -> Result<String, DecodeError> {
        let len = self.u8(what)? as usize;
        let b = self.take(len, what)?;
        String::from_utf8(b.to_vec()).map_err(|_| DecodeError::Invalid { what })
    }

    /// Reads an I2P mapping into sorted `(key, value)` pairs.
    pub fn mapping(&mut self, what: &'static str) -> Result<Vec<(String, String)>, DecodeError> {
        let size = self.u16(what)? as usize;
        let body = self.take(size, what)?;
        let mut inner = Reader::new(body);
        let mut out = Vec::new();
        while !inner.is_empty() {
            let k = inner.string(what)?;
            if inner.u8(what)? != b'=' {
                return Err(DecodeError::Invalid { what });
            }
            let v = inner.string(what)?;
            if inner.u8(what)? != b';' {
                return Err(DecodeError::Invalid { what });
            }
            out.push((k, v));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(0x0123_4567_89AB_CDEF);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 15);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 0xBEEF);
        assert_eq!(r.u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("d").unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(r.is_empty());
    }

    #[test]
    fn string_roundtrip() {
        let mut w = Writer::new();
        w.string("caps");
        w.string("");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.string("s").unwrap(), "caps");
        assert_eq!(r.string("s").unwrap(), "");
    }

    #[test]
    fn mapping_sorted_and_roundtrips() {
        let mut w = Writer::new();
        w.mapping([("netdb.knownRouters", "120"), ("caps", "OfR")]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let pairs = r.mapping("m").unwrap();
        assert_eq!(
            pairs,
            vec![
                ("caps".to_string(), "OfR".to_string()),
                ("netdb.knownRouters".to_string(), "120".to_string()),
            ]
        );
    }

    #[test]
    fn truncation_reported() {
        let mut w = Writer::new();
        w.u32(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..2]);
        assert_eq!(r.u32("x"), Err(DecodeError::Truncated { what: "x" }));
    }

    #[test]
    fn varint_boundaries_roundtrip() {
        let cases = [0u64, 1, 127, 128, 255, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        let mut w = Writer::new();
        for &v in &cases {
            w.varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &cases {
            assert_eq!(r.varint("v").unwrap(), v);
        }
        assert!(r.is_empty());
        // Single-byte values really cost one byte.
        let mut w = Writer::new();
        w.varint(127);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 continuation bytes push past 64 bits.
        let bytes = [0xFFu8; 11];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.varint("v"), Err(DecodeError::Invalid { what: "v" }));
        // A 10th byte carrying more than the one remaining bit overflows.
        let bytes = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.varint("v"), Err(DecodeError::Invalid { what: "v" }));
    }

    #[test]
    fn id_run_roundtrips_and_compresses() {
        let ids = [0u32, 1, 2, 5, 100, 101, 4_000_000_000];
        let mut w = Writer::new();
        w.id_run(&ids);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.id_run("ids").unwrap(), ids);
        assert!(r.is_empty());
        // Dense runs cost ~1 byte per id (count + first + small gaps).
        let dense: Vec<u32> = (1000..2000).collect();
        let mut w = Writer::new();
        w.id_run(&dense);
        assert!(w.len() < dense.len() + 8, "delta run must stay near 1 B/id, got {}", w.len());
    }

    #[test]
    fn id_run_rejects_zero_gap_and_overlong_count() {
        // count 2, first id 5, gap 0 → not strictly ascending.
        let mut w = Writer::new();
        w.varint(2);
        w.varint(5);
        w.varint(0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.id_run("ids"), Err(DecodeError::Invalid { .. })));
        // A count larger than the remaining input is corrupt, not an
        // allocation request.
        let mut w = Writer::new();
        w.varint(1 << 40);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.id_run("ids"), Err(DecodeError::Invalid { .. })));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn id_run_write_rejects_descending() {
        let mut w = Writer::new();
        w.id_run(&[3, 2]);
    }

    #[test]
    fn malformed_mapping_rejected() {
        // mapping body: string "a", then ':' instead of '='.
        let mut w = Writer::new();
        let mut inner = Writer::new();
        inner.string("a");
        inner.u8(b':');
        inner.string("b");
        inner.u8(b';');
        let body = inner.into_bytes();
        w.u16(body.len() as u16);
        w.bytes(&body);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.mapping("m"), Err(DecodeError::Invalid { .. })));
    }
}
