//! Merkle trees for the paper's Merkle-tree metadata format (§IV-C).
//!
//! The collection producer builds one tree per file (or one for the whole
//! collection) and ships only the root hash in the metadata. Receivers
//! verify all packets of a file once they hold the full leaf set.
//!
//! Interior nodes hash a domain-separated concatenation of their children so
//! that a leaf can never be confused with an interior node (second-preimage
//! hardening), and odd nodes are promoted unchanged rather than duplicated.

use crate::digest::Digest;
use crate::sha256::Sha256;

const LEAF_TAG: u8 = 0x00;
const NODE_TAG: u8 = 0x01;

/// Hashes a leaf payload with leaf domain separation.
pub fn leaf_hash(payload: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[LEAF_TAG]);
    h.update(payload);
    h.finalize()
}

/// Hashes two child digests with interior-node domain separation.
pub fn node_hash(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[NODE_TAG]);
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

/// A Merkle tree over a sequence of leaf payloads, kept as its root: the
/// metadata ships only the root, and receivers check a file by rebuilding
/// it from the leaves they hold.
///
/// # Examples
///
/// ```
/// use dapes_crypto::merkle::{leaf_hash, MerkleTree};
///
/// let packets: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_be_bytes().to_vec()).collect();
/// let tree = MerkleTree::from_leaves(packets.iter().map(|p| p.as_slice()));
/// let leaves = packets.iter().map(|p| leaf_hash(p)).collect();
/// assert!(MerkleTree::verify_leaves(&tree.root(), leaves));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MerkleTree {
    root: Digest,
}

impl MerkleTree {
    /// Builds a tree from leaf payloads.
    ///
    /// An empty iterator produces a single-node tree whose root is the leaf
    /// hash of the empty string, so `root()` is always defined.
    pub fn from_leaves<'a, I>(leaves: I) -> Self
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let level0: Vec<Digest> = leaves.into_iter().map(leaf_hash).collect();
        Self::from_leaf_hashes(if level0.is_empty() {
            vec![leaf_hash(b"")]
        } else {
            level0
        })
    }

    /// Builds a tree from precomputed leaf digests.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_hashes` is empty.
    pub fn from_leaf_hashes(leaf_hashes: Vec<Digest>) -> Self {
        assert!(!leaf_hashes.is_empty(), "a merkle tree needs >= 1 leaf");
        // Each pass folds a level into the front of the same vector.
        let mut level = leaf_hashes;
        while level.len() > 1 {
            let parents = level.len().div_ceil(2);
            for i in 0..parents {
                level[i] = match level.get(2 * i + 1) {
                    Some(r) => node_hash(&level[2 * i], r),
                    // Odd node: promote unchanged (no duplication).
                    None => level[2 * i],
                };
            }
            level.truncate(parents);
        }
        MerkleTree { root: level[0] }
    }

    /// Builds a tree over a byte buffer split into `chunk_size`-byte
    /// leaves (the last chunk may be short): one leaf per segment Data
    /// packet.
    ///
    /// An empty buffer produces the same single-node tree as an empty
    /// leaf iterator, so `root()` is always defined.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is 0.
    pub fn from_chunks(bytes: &[u8], chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk_size must be positive");
        Self::from_leaves(bytes.chunks(chunk_size))
    }

    /// The root digest.
    pub fn root(&self) -> Digest {
        self.root
    }

    /// Verifies that `leaf_hashes` recomputes to `expected_root`.
    ///
    /// This is the paper's deferred-verification path: once all packets of a
    /// file are retrieved, hash them and compare against the metadata root.
    pub fn verify_leaves(expected_root: &Digest, leaf_hashes: Vec<Digest>) -> bool {
        if leaf_hashes.is_empty() {
            return false;
        }
        MerkleTree::from_leaf_hashes(leaf_hashes).root() == *expected_root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("packet-{i}").into_bytes()).collect()
    }

    fn tree_of(n: usize) -> (MerkleTree, Vec<Vec<u8>>) {
        let p = payloads(n);
        let t = MerkleTree::from_leaves(p.iter().map(|v| v.as_slice()));
        (t, p)
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let (t, p) = tree_of(1);
        assert_eq!(t.root(), leaf_hash(&p[0]));
    }

    #[test]
    fn empty_tree_has_defined_root() {
        let t = MerkleTree::from_leaves(std::iter::empty());
        assert_eq!(t.root(), leaf_hash(b""));
    }

    #[test]
    fn two_leaves_root_is_pair_hash() {
        let (t, p) = tree_of(2);
        assert_eq!(t.root(), node_hash(&leaf_hash(&p[0]), &leaf_hash(&p[1])));
    }

    #[test]
    fn verify_leaves_accepts_exact_set() {
        let (t, p) = tree_of(10);
        let hashes: Vec<Digest> = p.iter().map(|v| leaf_hash(v)).collect();
        assert!(MerkleTree::verify_leaves(&t.root(), hashes));
    }

    #[test]
    fn verify_leaves_rejects_mutation_reorder_truncation() {
        let (t, p) = tree_of(10);
        let hashes: Vec<Digest> = p.iter().map(|v| leaf_hash(v)).collect();

        let mut mutated = hashes.clone();
        mutated[5] = leaf_hash(b"tampered");
        assert!(!MerkleTree::verify_leaves(&t.root(), mutated));

        let mut reordered = hashes.clone();
        reordered.swap(0, 9);
        assert!(!MerkleTree::verify_leaves(&t.root(), reordered));

        let truncated = hashes[..9].to_vec();
        assert!(!MerkleTree::verify_leaves(&t.root(), truncated));

        assert!(!MerkleTree::verify_leaves(&t.root(), vec![]));
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // A 65-byte "payload" that mimics an interior node's input must not
        // collide with the interior hash.
        let l = leaf_hash(b"a");
        let r = leaf_hash(b"b");
        let mut fake = Vec::new();
        fake.extend_from_slice(l.as_bytes());
        fake.extend_from_slice(r.as_bytes());
        assert_ne!(leaf_hash(&fake), node_hash(&l, &r));
    }

    #[test]
    fn roots_differ_when_any_leaf_differs() {
        let (t1, _) = tree_of(16);
        let mut p2 = payloads(16);
        p2[7][0] ^= 1;
        let t2 = MerkleTree::from_leaves(p2.iter().map(|v| v.as_slice()));
        assert_ne!(t1.root(), t2.root());
    }

    #[test]
    fn from_chunks_matches_explicit_leaves() {
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for chunk in [1usize, 7, 64, 999, 1000, 4096] {
            let t = MerkleTree::from_chunks(&bytes, chunk);
            let explicit = MerkleTree::from_leaves(bytes.chunks(chunk));
            assert_eq!(t, explicit, "chunk={chunk}");
        }
        // Empty buffer: same defined root as the empty iterator.
        assert_eq!(
            MerkleTree::from_chunks(&[], 64).root(),
            MerkleTree::from_leaves(std::iter::empty()).root()
        );
    }

    #[test]
    fn an_odd_node_is_promoted_unchanged() {
        let (t3, p) = tree_of(3);
        let l: Vec<Digest> = p.iter().map(|v| leaf_hash(v)).collect();
        assert_eq!(t3.root(), node_hash(&node_hash(&l[0], &l[1]), &l[2]));
        let (t5, p) = tree_of(5);
        let l: Vec<Digest> = p.iter().map(|v| leaf_hash(v)).collect();
        let left = node_hash(&node_hash(&l[0], &l[1]), &node_hash(&l[2], &l[3]));
        assert_eq!(t5.root(), node_hash(&left, &l[4]));
    }
}
