//! A fast, word-at-a-time hasher for the PIT/FIB wire indexes.
//!
//! The wire indexes are probed once per overheard frame — millions of times
//! per simulated second at swarm scale — with short keys (canonical name
//! encodings, typically 20–60 bytes). The standard library's SipHash is
//! DoS-resistant but pays ~1 ns/byte plus setup; this FxHash-style
//! multiply-rotate hasher processes eight bytes per step and is several
//! times cheaper on such keys. The simulator hashes only names produced by
//! the protocols under study, not attacker-controlled input, so collision
//! hardening buys nothing here.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant (golden-ratio derived, as used by rustc's FxHash).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state: one `u64` folded with multiply-rotate per word.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" and "ab\0" keys differ.
            tail[7] = rest.len() as u8;
            self.add_word(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// [`FxHasher`] over `bytes` alone (no length prefix): the hash the PIT's
/// own table keys a name's wire value by. Its high bits are the
/// well-mixed ones.
#[inline]
pub(crate) fn hash_wire(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn hash_of(bytes: &[u8]) -> u64 {
        hash_wire(bytes)
    }

    #[test]
    fn distinguishes_close_keys() {
        let keys: Vec<Vec<u8>> = (0..1000u32)
            .map(|i| format!("/sched/adv/n{i}").into_bytes())
            .collect();
        let mut seen = std::collections::HashSet::new();
        for k in &keys {
            assert!(seen.insert(hash_of(k)), "collision on {k:?}");
        }
        // Shared prefixes, differing tails and lengths.
        assert_ne!(hash_of(b"ab"), hash_of(b"ab\0"));
        assert_ne!(hash_of(b"abcdefgh"), hash_of(b"abcdefg"));
        assert_ne!(hash_of(b""), hash_of(b"\0"));
    }

    #[test]
    fn works_as_a_hashmap_hasher() {
        let mut map: HashMap<Vec<u8>, u32, FxBuildHasher> = HashMap::default();
        for i in 0..100u32 {
            map.insert(format!("/k/{i}").into_bytes(), i);
        }
        for i in 0..100u32 {
            assert_eq!(map.get(format!("/k/{i}").as_bytes()), Some(&i));
        }
    }
}
