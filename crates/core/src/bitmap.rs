//! Compact possession bitmaps (paper §IV-D).
//!
//! Each bit maps to one packet of a collection, ordered by the position of
//! the file in the metadata and the packet within the file. Peers exchange
//! these in bitmap Interests/Data to advertise what they hold.

use std::fmt;

/// A fixed-size bitmap over the packets of one collection.
///
/// # Examples
///
/// ```
/// use dapes_core::bitmap::Bitmap;
///
/// let mut b = Bitmap::new(10);
/// b.set(3);
/// b.set(7);
/// assert_eq!(b.count_set(), 2);
/// assert!(b.get(3) && !b.get(4));
/// assert_eq!(Bitmap::from_wire(&b.to_wire()).expect("round trip"), b);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitmap {
    bits: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Creates an all-zero bitmap over `len` packets.
    pub fn new(len: usize) -> Self {
        Bitmap {
            bits: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Creates an all-one bitmap (a complete peer, e.g. the producer).
    pub fn full(len: usize) -> Self {
        let mut b = Bitmap::new(len);
        for w in &mut b.bits {
            *w = u64::MAX;
        }
        b.mask_tail();
        b
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.bits.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of packets this bitmap covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero packets.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tests bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i`. Returns whether the bit was newly set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let word = &mut self.bits[i / 64];
        let mask = 1u64 << (i % 64);
        let newly = *word & mask == 0;
        *word |= mask;
        newly
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.bits[i / 64] &= !(1u64 << (i % 64));
    }

    /// The packed words: bit `i` is bit `i % 64` of word `i / 64`, and
    /// the bits past [`Bitmap::len`] are clear.
    pub(crate) fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Number of set bits.
    pub fn count_set(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of clear bits.
    pub fn count_missing(&self) -> usize {
        self.len - self.count_set()
    }

    /// Whether every packet is present.
    pub fn is_complete(&self) -> bool {
        self.count_set() == self.len
    }

    /// Fraction of packets present, in `[0, 1]`; zero-length bitmaps count
    /// as complete.
    pub fn fraction_set(&self) -> f64 {
        if self.len == 0 {
            1.0
        } else {
            self.count_set() as f64 / self.len as f64
        }
    }

    /// Iterator over indices of set bits.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.get(i))
    }

    /// Iterator over indices of missing bits, in strictly ascending order.
    /// Callers rely on that order: Bithoc's piece requests break rarity ties
    /// by it.
    pub fn iter_missing(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| !self.get(i))
    }

    /// In-place union.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn union_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap lengths differ");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Count of bits set in `self` but clear in `other` — "packets I have
    /// that are missing from the previously transmitted bitmaps", the PEBA
    /// priority quantity (paper §IV-F).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn count_set_and_missing_from(&self, other: &Bitmap) -> usize {
        assert_eq!(self.len, other.len, "bitmap lengths differ");
        self.bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Serializes as `u32 len || packed little-endian words`.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.bits.len() * 8);
        out.extend_from_slice(&(self.len as u32).to_be_bytes());
        let n_bytes = self.len.div_ceil(8);
        let mut bytes = Vec::with_capacity(self.bits.len() * 8);
        for w in &self.bits {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&bytes[..n_bytes]);
        out
    }

    /// Parses the [`Bitmap::to_wire`] encoding.
    pub fn from_wire(wire: &[u8]) -> Option<Self> {
        if wire.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes(wire[..4].try_into().ok()?) as usize;
        let n_bytes = len.div_ceil(8);
        let body = wire.get(4..4 + n_bytes)?;
        let mut bits = vec![0u64; len.div_ceil(64)];
        for (i, &byte) in body.iter().enumerate() {
            bits[i / 8] |= (byte as u64) << ((i % 8) * 8);
        }
        let mut b = Bitmap { bits, len };
        b.mask_tail();
        Some(b)
    }

    /// Wire size in bytes for a bitmap of `len` packets.
    pub fn wire_size(len: usize) -> usize {
        4 + len.div_ceil(8)
    }

    /// Approximate heap bytes (Table I memory proxy).
    pub fn state_bytes(&self) -> usize {
        self.bits.len() * 8 + 16
    }
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitmap({}/{})", self.count_set(), self.len)
    }
}

impl fmt::Display for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len.min(64) {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        if self.len > 64 {
            write!(f, "…")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zero_full_is_all_one() {
        let z = Bitmap::new(100);
        assert_eq!(z.count_set(), 0);
        assert_eq!(z.count_missing(), 100);
        let f = Bitmap::full(100);
        assert!(f.is_complete());
        assert_eq!(f.count_set(), 100);
    }

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::new(130);
        assert!(b.set(0));
        assert!(b.set(64));
        assert!(b.set(129));
        assert!(!b.set(129), "already set");
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(65));
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_set(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitmap::new(10).get(10);
    }

    #[test]
    fn full_masks_tail_bits() {
        let f = Bitmap::full(70);
        assert_eq!(f.count_set(), 70);
        // Round-trip must preserve exactly 70.
        let rt = Bitmap::from_wire(&f.to_wire()).expect("round trip");
        assert_eq!(rt.count_set(), 70);
    }

    #[test]
    fn wire_round_trip_various_lengths() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 128, 1000, 10240] {
            let mut b = Bitmap::new(len);
            for i in (0..len).step_by(3) {
                b.set(i);
            }
            let wire = b.to_wire();
            assert_eq!(wire.len(), Bitmap::wire_size(len));
            assert_eq!(
                Bitmap::from_wire(&wire).expect("round trip"),
                b,
                "len={len}"
            );
        }
    }

    #[test]
    fn from_wire_rejects_truncation() {
        let b = Bitmap::full(100);
        let wire = b.to_wire();
        assert!(Bitmap::from_wire(&wire[..wire.len() - 1]).is_none());
        assert!(Bitmap::from_wire(&[]).is_none());
        assert!(Bitmap::from_wire(&[0, 0]).is_none());
    }

    #[test]
    fn paper_bitmap_size_example() {
        // 10 files x 1 MB at 1 KB packets = 10240 packets -> 1284 bytes.
        assert_eq!(Bitmap::wire_size(10_240), 4 + 1280);
    }

    #[test]
    fn union_and_difference_counts() {
        let mut a = Bitmap::new(10);
        let mut b = Bitmap::new(10);
        for i in [0, 1, 2, 3] {
            a.set(i);
        }
        for i in [2, 3, 4, 5] {
            b.set(i);
        }
        assert_eq!(a.count_set_and_missing_from(&b), 2); // {0,1}
        assert_eq!(b.count_set_and_missing_from(&a), 2); // {4,5}
        a.union_with(&b);
        assert_eq!(a.count_set(), 6);
        assert_eq!(b.count_set_and_missing_from(&a), 0);
    }

    #[test]
    fn figure5_priority_counts() {
        // Paper Fig. 5: A=1001011000, B=0110001000, C=0000000111(0), D=1001100000.
        // Wait — D's bitmap is 9 bits in the figure; normalise all to 10.
        let parse = |s: &str| {
            let mut b = Bitmap::new(10);
            for (i, c) in s.chars().enumerate() {
                if c == '1' {
                    b.set(i);
                }
            }
            b
        };
        let a = parse("1001011000");
        let b = parse("0110001000");
        let c = parse("0000000111");
        let d = parse("1001100000");
        // Six packets missing from A's bitmap: {1,2,4,7,8,9}.
        assert_eq!(a.count_missing(), 6);
        // C has three of them, B two, D one (paper's worked example).
        assert_eq!(c.count_set_and_missing_from(&a), 3);
        assert_eq!(b.count_set_and_missing_from(&a), 2);
        assert_eq!(d.count_set_and_missing_from(&a), 1);
    }

    #[test]
    fn iterators_cover_set_and_missing() {
        let mut b = Bitmap::new(6);
        b.set(1);
        b.set(4);
        assert_eq!(b.iter_set().collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(b.iter_missing().collect::<Vec<_>>(), vec![0, 2, 3, 5]);
    }

    #[test]
    fn iter_missing_is_strictly_ascending_across_words() {
        // 150 bits: two full words and a partial third (22 bits).
        let mut b = Bitmap::new(150);
        for i in [0, 1, 62, 63, 64, 100, 127, 128, 140, 149] {
            b.set(i);
        }
        let missing: Vec<usize> = b.iter_missing().collect();
        assert!(missing.windows(2).all(|w| w[0] < w[1]));
        let expected: Vec<usize> = (0..150).filter(|i| !b.get(*i)).collect();
        assert_eq!(missing, expected);
        assert_eq!(missing.first(), Some(&2));
        assert_eq!(missing.last(), Some(&148), "partial last word");
        assert!(missing.contains(&65) && missing.contains(&129));
        assert_eq!(Bitmap::full(150).iter_missing().count(), 0);
        assert_eq!(
            Bitmap::new(70).iter_missing().collect::<Vec<_>>(),
            (0..70).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fraction_set_handles_empty() {
        assert_eq!(Bitmap::new(0).fraction_set(), 1.0);
        let mut b = Bitmap::new(4);
        b.set(0);
        assert!((b.fraction_set() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_truncates() {
        let b = Bitmap::new(100);
        assert!(b.to_string().ends_with('…'));
        assert_eq!(Bitmap::new(3).to_string(), "000");
    }
}
