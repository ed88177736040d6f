//! A fast, word-at-a-time hasher for the PIT/CS/FIB wire indexes, and the
//! open-addressing `SlotIndex` the PIT and the Content Store share.
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

/// An index slot: 0 when empty, else the key hash's top eight bits (the
/// tag) over the record number plus one in [`RECORD_BITS`] bits — four
/// bytes, so a node's whole index stays a few cache lines.
type Slot = u32;

const RECORD_BITS: u32 = 24;

/// The most records one [`SlotIndex`] addresses: what a slot can hold.
pub(crate) const MAX_RECORDS: usize = (1 << RECORD_BITS) - 1;

fn slot(hash: u64, record: usize) -> Slot {
    debug_assert!(record < MAX_RECORDS);
    (tag(hash) << RECORD_BITS) | (record as u32 + 1)
}

fn tag(hash: u64) -> u32 {
    (hash >> 56) as u32
}

fn slot_tag(s: Slot) -> u32 {
    s >> RECORD_BITS
}

fn slot_record(s: Slot) -> usize {
    (s & MAX_RECORDS as u32).wrapping_sub(1) as usize
}

/// Where a key with this hash starts probing: hash bits below the tag's.
fn home(hash: u64, mask: usize) -> usize {
    (hash >> 32) as usize & mask
}

/// An open-addressing index from a key's [`hash_wire`] to a record number
/// below [`MAX_RECORDS`]: linear probing, at most half full, no
/// tombstones. Each four-byte slot carries the hash's top eight bits as a
/// tag, so a probe asks its owner to compare keys only on a tag match. The
/// owner keeps the records and their keys; every method that must look at
/// a key takes it as a closure over record numbers. The index never
/// shrinks.
#[derive(Clone, Debug, Default)]
pub(crate) struct SlotIndex {
    slots: Vec<Slot>,
}

impl SlotIndex {
    /// Finds the record under `hash` that `is_key` accepts: `Ok(record)`,
    /// or `Err(slot)` — the empty slot the key would take, `usize::MAX`
    /// while the index is unallocated.
    #[inline]
    pub(crate) fn find(
        &self,
        hash: u64,
        mut is_key: impl FnMut(usize) -> bool,
    ) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(usize::MAX);
        }
        let mask = self.slots.len() - 1;
        let mut i = home(hash, mask);
        loop {
            let s = self.slots[i];
            if s == 0 {
                return Err(i);
            }
            if slot_tag(s) == tag(hash) && is_key(slot_record(s)) {
                return Ok(slot_record(s));
            }
            i = (i + 1) & mask;
        }
    }

    /// Whether `records` records fit without growing: at most half full.
    pub(crate) fn fits(&self, records: usize) -> bool {
        records * 2 <= self.slots.len()
    }

    /// Doubles the index (eight slots at first) and slots every
    /// `(hash, record)` pair again.
    pub(crate) fn grow(&mut self, records: impl Iterator<Item = (u64, usize)>) {
        let len = (self.slots.len() * 2).max(8);
        self.slots = vec![0; len];
        self.refill(records);
    }

    /// Clears the index and slots every `(hash, record)` pair.
    pub(crate) fn refill(&mut self, records: impl Iterator<Item = (u64, usize)>) {
        self.slots.fill(0);
        let mask = self.slots.len().wrapping_sub(1);
        for (hash, r) in records {
            let mut i = home(hash, mask);
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot(hash, r);
        }
    }

    /// Points slot `at` — an empty one [`SlotIndex::find`] returned, or
    /// [`SlotIndex::slot_of`] a record that moved — at `record`.
    pub(crate) fn put(&mut self, at: usize, hash: u64, record: usize) {
        self.slots[at] = slot(hash, record);
    }

    /// The slot that points at `record`, whose key has `hash`.
    pub(crate) fn slot_of(&self, hash: u64, record: usize) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = home(hash, mask);
        while slot_record(self.slots[i]) != record {
            i = (i + 1) & mask;
        }
        i
    }

    /// Empties slot `hole`, shifting later members of its probe run back
    /// so every lookup still reaches them; `hash_of` gives a record's key
    /// hash.
    pub(crate) fn unslot(&mut self, mut hole: usize, mut hash_of: impl FnMut(usize) -> u64) {
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let s = self.slots[i];
            if s == 0 {
                break;
            }
            // `s` may fill the hole when its home lies cyclically at or
            // before the hole, i.e. no nearer to `i` than the hole is.
            let at = home(hash_of(slot_record(s)), mask);
            if (i.wrapping_sub(at) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = s;
                hole = i;
            }
        }
        self.slots[hole] = 0;
    }

    /// Number of occupied slots (audits compare it with the record count).
    pub(crate) fn occupied(&self) -> usize {
        self.slots.iter().filter(|&&s| s != 0).count()
    }
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
