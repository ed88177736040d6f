//! NDN-TLV primitive encoding (type-length-value with 1/3/5/9-byte
//! variable-size numbers), per the NDN packet format specification.

use std::fmt;

/// TLV type numbers used by this implementation (NDN packet spec v0.3).
pub mod types {
    /// Interest packet.
    pub const INTEREST: u64 = 0x05;
    /// Data packet.
    pub const DATA: u64 = 0x06;
    /// Name.
    pub const NAME: u64 = 0x07;
    /// GenericNameComponent.
    pub const NAME_COMPONENT: u64 = 0x08;
    /// CanBePrefix (empty value).
    pub const CAN_BE_PREFIX: u64 = 0x21;
    /// MustBeFresh (empty value).
    pub const MUST_BE_FRESH: u64 = 0x12;
    /// Nonce (4 bytes).
    pub const NONCE: u64 = 0x0a;
    /// InterestLifetime (non-negative integer, milliseconds).
    pub const INTEREST_LIFETIME: u64 = 0x0c;
    /// HopLimit (1 byte).
    pub const HOP_LIMIT: u64 = 0x22;
    /// ApplicationParameters.
    pub const APP_PARAMETERS: u64 = 0x24;
    /// MetaInfo.
    pub const META_INFO: u64 = 0x14;
    /// ContentType (non-negative integer).
    pub const CONTENT_TYPE: u64 = 0x18;
    /// FreshnessPeriod (non-negative integer, milliseconds).
    pub const FRESHNESS_PERIOD: u64 = 0x19;
    /// Content.
    pub const CONTENT: u64 = 0x15;
    /// SignatureInfo.
    pub const SIGNATURE_INFO: u64 = 0x16;
    /// SignatureType (non-negative integer).
    pub const SIGNATURE_TYPE: u64 = 0x1b;
    /// SignatureValue.
    pub const SIGNATURE_VALUE: u64 = 0x17;
    /// KeyLocator.
    pub const KEY_LOCATOR: u64 = 0x1c;
}

/// Errors produced while decoding TLV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlvError {
    /// Input ended in the middle of a type, length, or value.
    Truncated,
    /// A length field exceeded the remaining input.
    LengthOverrun,
    /// An unexpected TLV type where another was required.
    UnexpectedType {
        /// The type that was expected.
        expected: u64,
        /// The type that was found.
        found: u64,
    },
    /// A value had the wrong size or content for its type.
    BadValue(&'static str),
}

impl fmt::Display for TlvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TlvError::Truncated => write!(f, "tlv input truncated"),
            TlvError::LengthOverrun => write!(f, "tlv length exceeds input"),
            TlvError::UnexpectedType { expected, found } => {
                write!(f, "expected tlv type {expected:#x}, found {found:#x}")
            }
            TlvError::BadValue(what) => write!(f, "bad tlv value: {what}"),
        }
    }
}

impl std::error::Error for TlvError {}

/// Where the TLV writers append: a `Vec<u8>` when building a wire buffer,
/// a [`Scratch`] when composing a small field on the stack.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A fixed-capacity stack buffer for TLV headers and the few small nested
/// fields (MetaInfo, SignatureInfo) that streaming encoders emit whole.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scratch {
    buf: [u8; Scratch::CAPACITY],
    len: usize,
}

impl Scratch {
    /// Bytes a scratch holds: the largest nested field written through one
    /// is MetaInfo — two 10-byte integer TLVs inside a 2-byte header.
    pub const CAPACITY: usize = 32;
}

impl std::ops::Deref for Scratch {
    type Target = [u8];

    /// The bytes written so far.
    fn deref(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl Sink for Scratch {
    /// # Panics
    ///
    /// Panics when the field outgrows [`Scratch::CAPACITY`] — an encoder
    /// bug, never input-dependent.
    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }
}

/// Appends a TLV variable-size number.
pub fn write_varnum(out: &mut impl Sink, n: u64) {
    if n < 253 {
        out.put(&[n as u8]);
    } else if n <= u16::MAX as u64 {
        out.put(&[253]);
        out.put(&(n as u16).to_be_bytes());
    } else if n <= u32::MAX as u64 {
        out.put(&[254]);
        out.put(&(n as u32).to_be_bytes());
    } else {
        out.put(&[255]);
        out.put(&n.to_be_bytes());
    }
}

/// The type-and-length header of a TLV whose value is `len` bytes, for
/// encoders that stream the value from where it already lies.
pub fn tl_header(typ: u64, len: usize) -> Scratch {
    let mut header = Scratch::default();
    write_varnum(&mut header, typ);
    write_varnum(&mut header, len as u64);
    header
}

/// Appends a full TLV (type, length, value).
pub fn write_tlv(out: &mut impl Sink, typ: u64, value: &[u8]) {
    write_varnum(out, typ);
    write_varnum(out, value.len() as u64);
    out.put(value);
}

/// Appends a TLV whose value is a non-negative integer in the shortest of
/// 1/2/4/8 bytes, as the NDN spec requires.
pub fn write_nonneg_tlv(out: &mut impl Sink, typ: u64, n: u64) {
    write_varnum(out, typ);
    if n <= u8::MAX as u64 {
        write_varnum(out, 1);
        out.put(&[n as u8]);
    } else if n <= u16::MAX as u64 {
        write_varnum(out, 2);
        out.put(&(n as u16).to_be_bytes());
    } else if n <= u32::MAX as u64 {
        write_varnum(out, 4);
        out.put(&(n as u32).to_be_bytes());
    } else {
        write_varnum(out, 8);
        out.put(&n.to_be_bytes());
    }
}

/// A cursor over TLV-encoded bytes.
#[derive(Clone, Debug)]
pub struct TlvReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> TlvReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        TlvReader { buf, pos: 0 }
    }

    /// Whether all input has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads a variable-size number.
    pub fn read_varnum(&mut self) -> Result<u64, TlvError> {
        let (n, next) = self.varnum_at(self.pos)?;
        self.pos = next;
        Ok(n)
    }

    /// Decodes a variable-size number at `pos` without touching the cursor,
    /// returning the value and the offset just past it.
    fn varnum_at(&self, pos: usize) -> Result<(u64, usize), TlvError> {
        let first = *self.buf.get(pos).ok_or(TlvError::Truncated)?;
        let len = match first {
            0..=252 => return Ok((first as u64, pos + 1)),
            253 => 2,
            254 => 4,
            255 => 8,
        };
        let end = pos + 1 + len;
        if end > self.buf.len() {
            return Err(TlvError::Truncated);
        }
        let mut n = 0u64;
        for &b in &self.buf[pos + 1..end] {
            n = (n << 8) | b as u64;
        }
        Ok((n, end))
    }

    /// Peeks the next TLV type without consuming anything (and without
    /// copying the reader: only the offset is re-derived).
    pub fn peek_type(&self) -> Result<u64, TlvError> {
        self.varnum_at(self.pos).map(|(n, _)| n)
    }

    /// Reads one TLV header and returns `(type, value)`, consuming it.
    pub fn read_tlv(&mut self) -> Result<(u64, &'a [u8]), TlvError> {
        let typ = self.read_varnum()?;
        let len = self.read_varnum()? as usize;
        if self.remaining() < len {
            return Err(TlvError::LengthOverrun);
        }
        let value = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok((typ, value))
    }

    /// Reads a TLV that must have type `expected`.
    pub fn read_expected(&mut self, expected: u64) -> Result<&'a [u8], TlvError> {
        let start = self.pos;
        let (typ, value) = self.read_tlv()?;
        if typ != expected {
            self.pos = start;
            return Err(TlvError::UnexpectedType {
                expected,
                found: typ,
            });
        }
        Ok(value)
    }

    /// Reads an optional TLV of type `expected`; `None` if the next TLV has
    /// a different type or input ended.
    pub fn read_optional(&mut self, expected: u64) -> Result<Option<&'a [u8]>, TlvError> {
        if self.is_at_end() {
            return Ok(None);
        }
        if self.peek_type()? != expected {
            return Ok(None);
        }
        Ok(Some(self.read_expected(expected)?))
    }
}

/// Decodes a non-negative integer value (1/2/4/8 bytes).
pub fn decode_nonneg(value: &[u8]) -> Result<u64, TlvError> {
    match value.len() {
        1 => Ok(value[0] as u64),
        2 => Ok(u16::from_be_bytes(value.try_into().expect("len 2")) as u64),
        4 => Ok(u32::from_be_bytes(value.try_into().expect("len 4")) as u64),
        8 => Ok(u64::from_be_bytes(value.try_into().expect("len 8"))),
        _ => Err(TlvError::BadValue(
            "non-negative integer must be 1/2/4/8 bytes",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varnum_round_trip_all_widths() {
        for n in [
            0u64,
            1,
            252,
            253,
            255,
            256,
            65535,
            65536,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varnum(&mut buf, n);
            let mut r = TlvReader::new(&buf);
            assert_eq!(r.read_varnum().expect("decode"), n, "n={n}");
            assert!(r.is_at_end());
        }
    }

    #[test]
    fn varnum_uses_minimal_width() {
        let mut buf = Vec::new();
        write_varnum(&mut buf, 252);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_varnum(&mut buf, 253);
        assert_eq!(buf.len(), 3);
        buf.clear();
        write_varnum(&mut buf, 70000);
        assert_eq!(buf.len(), 5);
    }

    #[test]
    fn tlv_round_trip() {
        let mut buf = Vec::new();
        write_tlv(&mut buf, types::CONTENT, b"hello");
        write_tlv(&mut buf, types::NONCE, &[1, 2, 3, 4]);
        let mut r = TlvReader::new(&buf);
        assert_eq!(r.read_expected(types::CONTENT).expect("content"), b"hello");
        assert_eq!(r.read_expected(types::NONCE).expect("nonce"), &[1, 2, 3, 4]);
        assert!(r.is_at_end());
    }

    #[test]
    fn unexpected_type_does_not_consume() {
        let mut buf = Vec::new();
        write_tlv(&mut buf, types::CONTENT, b"x");
        let mut r = TlvReader::new(&buf);
        assert!(matches!(
            r.read_expected(types::NONCE),
            Err(TlvError::UnexpectedType {
                expected: 0x0a,
                found: 0x15
            })
        ));
        // Still readable as its real type.
        assert_eq!(r.read_expected(types::CONTENT).expect("content"), b"x");
    }

    #[test]
    fn optional_reads_and_skips() {
        let mut buf = Vec::new();
        write_tlv(&mut buf, types::CONTENT, b"x");
        let mut r = TlvReader::new(&buf);
        assert_eq!(r.read_optional(types::NONCE).expect("ok"), None);
        assert_eq!(
            r.read_optional(types::CONTENT).expect("ok"),
            Some(&b"x"[..])
        );
        assert_eq!(r.read_optional(types::CONTENT).expect("ok"), None);
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        write_tlv(&mut buf, types::CONTENT, b"hello");
        for cut in 0..buf.len() {
            let mut r = TlvReader::new(&buf[..cut]);
            assert!(r.read_expected(types::CONTENT).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn length_overrun_detected() {
        // Claim 200-byte value but provide 2.
        let buf = [0x15u8, 200, 0, 0];
        let mut r = TlvReader::new(&buf);
        assert_eq!(r.read_tlv(), Err(TlvError::LengthOverrun));
    }

    #[test]
    fn nonneg_round_trip() {
        for n in [0u64, 255, 256, 65535, 65536, u64::MAX] {
            let mut buf = Vec::new();
            write_nonneg_tlv(&mut buf, types::FRESHNESS_PERIOD, n);
            let mut r = TlvReader::new(&buf);
            let v = r.read_expected(types::FRESHNESS_PERIOD).expect("value");
            assert_eq!(decode_nonneg(v).expect("decode"), n);
        }
    }

    #[test]
    fn nonneg_rejects_odd_widths() {
        assert!(decode_nonneg(&[0, 0, 0]).is_err());
        assert!(decode_nonneg(&[]).is_err());
    }

    #[test]
    fn error_display_is_meaningful() {
        let e = TlvError::UnexpectedType {
            expected: 5,
            found: 6,
        };
        assert!(e.to_string().contains("0x5"));
    }
}
