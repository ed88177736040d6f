//! The chunked-file segment pipeline: file → fixed-size chunks → Merkle
//! tree → per-segment Data packets plus a catalog.
//!
//! This is the producer-side storage path a real file-sharing swarm needs
//! (the index/blob split of production content stores): a file's bytes are
//! cut into `chunk_size`-byte segments, each segment becomes an immutable
//! Data packet under the collection namespace
//! (`/<collection>/<file>/<seq>`), and a compact [`Catalog`] — chunk
//! geometry plus the Merkle root over the chunks — is published beside
//! them under `/<collection>/<file>/catalog`. A downloader that fetches
//! the catalog first knows exactly how many segments to request and can
//! verify each one early with a [`MerkleProof`], or the whole file at the
//! end against the root.
//!
//! In-simulation, file bytes are *seeded synthetic*: each chunk's content
//! is [`generate_content`] keyed by the segment's packet name — exactly
//! the substitution [`crate::collection`] makes — so a terabyte-scale
//! catalog costs no storage while every digest, size and proof is real.

use crate::collection::generate_content;
use crate::namespace;
use dapes_crypto::digest::Digest;
use dapes_crypto::merkle::{MerkleProof, MerkleTree};
use dapes_ndn::cs::ContentStore;
use dapes_ndn::name::Name;
use dapes_ndn::packet::Data;
use dapes_netsim::time::SimTime;

/// Compact per-file chunk metadata: geometry plus the Merkle root. This is
/// the payload of the catalog Data packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Catalog {
    /// Segment payload size in bytes (the last segment may be short).
    pub chunk_size: u32,
    /// Total file size in bytes.
    pub size_bytes: u64,
    /// Number of segments (≥ 1; an empty file still has one empty segment).
    pub chunk_count: u32,
    /// Merkle root over the chunk payloads (leaf order = segment order).
    pub root: Digest,
}

impl Catalog {
    /// Encoded size: chunk_size ‖ size_bytes ‖ chunk_count ‖ root.
    pub const WIRE_SIZE: usize = 4 + 8 + 4 + 32;

    /// Fixed-layout big-endian encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_SIZE);
        out.extend_from_slice(&self.chunk_size.to_be_bytes());
        out.extend_from_slice(&self.size_bytes.to_be_bytes());
        out.extend_from_slice(&self.chunk_count.to_be_bytes());
        out.extend_from_slice(self.root.as_bytes());
        out
    }

    /// Decodes an encoded catalog; `None` on any size or geometry
    /// mismatch (a catalog whose fields disagree with each other is as
    /// useless as a truncated one).
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::WIRE_SIZE {
            return None;
        }
        let chunk_size = u32::from_be_bytes(bytes[0..4].try_into().ok()?);
        let size_bytes = u64::from_be_bytes(bytes[4..12].try_into().ok()?);
        let chunk_count = u32::from_be_bytes(bytes[12..16].try_into().ok()?);
        let root = Digest::from_slice(&bytes[16..48])?;
        if chunk_size == 0 {
            return None;
        }
        let expect = size_bytes.div_ceil(chunk_size as u64).max(1);
        if chunk_count as u64 != expect {
            return None;
        }
        Some(Catalog {
            chunk_size,
            size_bytes,
            chunk_count,
            root,
        })
    }
}

/// A file segmented into fixed-size chunks with its Merkle tree, ready to
/// emit per-segment Data packets and a catalog.
///
/// # Examples
///
/// ```
/// use dapes_core::pipeline::ChunkedFile;
/// use dapes_ndn::name::Name;
///
/// let col = Name::from_uri("/damaged-bridge-1533783192");
/// let file = ChunkedFile::synthetic(&col, "bridge-picture", 2500, 1024);
/// assert_eq!(file.chunk_count(), 3);
/// let seg = file.segment(2).unwrap();
/// assert_eq!(seg.name().to_string(), "/damaged-bridge-1533783192/bridge-picture/2");
/// let proof = file.prove(2).unwrap();
/// assert!(proof.verify(&file.root(), seg.content()));
/// ```
#[derive(Clone, Debug)]
pub struct ChunkedFile {
    collection: Name,
    file: String,
    chunk_size: usize,
    bytes: Vec<u8>,
    tree: MerkleTree,
}

impl ChunkedFile {
    /// Chunks an in-memory byte buffer.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is 0.
    pub fn from_bytes(
        collection: &Name,
        file: impl Into<String>,
        bytes: Vec<u8>,
        chunk_size: usize,
    ) -> Self {
        assert!(chunk_size > 0, "chunk_size must be positive");
        let tree = MerkleTree::from_chunks(&bytes, chunk_size);
        ChunkedFile {
            collection: collection.clone(),
            file: file.into(),
            chunk_size,
            bytes,
            tree,
        }
    }

    /// Builds a file of seeded synthetic bytes: chunk `seq`'s content is
    /// [`generate_content`] keyed by that segment's packet name, so any
    /// peer can regenerate identical segments from the name alone (the
    /// same substitution the collection producer makes).
    pub fn synthetic(
        collection: &Name,
        file: impl Into<String>,
        size_bytes: usize,
        chunk_size: usize,
    ) -> Self {
        assert!(chunk_size > 0, "chunk_size must be positive");
        let file = file.into();
        let mut bytes = Vec::with_capacity(size_bytes);
        let mut seq = 0u64;
        while bytes.len() < size_bytes {
            let len = chunk_size.min(size_bytes - bytes.len());
            let pname = namespace::packet_name(collection, &file, seq);
            bytes.extend_from_slice(&generate_content(&pname, len));
            seq += 1;
        }
        Self::from_bytes(collection, file, bytes, chunk_size)
    }

    /// The collection this file publishes under.
    pub fn collection(&self) -> &Name {
        &self.collection
    }

    /// The file name component.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// Total file size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Number of segments (an empty file still has one empty segment, so
    /// every file is fetchable).
    pub fn chunk_count(&self) -> usize {
        self.bytes.len().div_ceil(self.chunk_size).max(1)
    }

    /// The payload bytes of chunk `seq`.
    pub fn chunk(&self, seq: usize) -> Option<&[u8]> {
        if seq >= self.chunk_count() {
            return None;
        }
        let start = seq * self.chunk_size;
        let end = (start + self.chunk_size).min(self.bytes.len());
        Some(&self.bytes[start..end])
    }

    /// The Merkle root over the chunks.
    pub fn root(&self) -> Digest {
        self.tree.root()
    }

    /// The underlying Merkle tree.
    pub fn tree(&self) -> &MerkleTree {
        &self.tree
    }

    /// Emits the Data packet for segment `seq`:
    /// `/<collection>/<file>/<seq>` carrying the chunk payload, with no
    /// FreshnessPeriod — segments are immutable, so they serve
    /// freshness-agnostic Interests from any cache forever and never
    /// answer MustBeFresh.
    pub fn segment(&self, seq: usize) -> Option<Data> {
        let chunk = self.chunk(seq)?;
        let name = namespace::packet_name(&self.collection, &self.file, seq as u64);
        Some(Data::new(name, chunk.to_vec()))
    }

    /// All segment packets in order.
    pub fn segments(&self) -> impl Iterator<Item = Data> + '_ {
        (0..self.chunk_count()).filter_map(|seq| self.segment(seq))
    }

    /// Inclusion proof for segment `seq` against [`ChunkedFile::root`].
    pub fn prove(&self, seq: usize) -> Option<MerkleProof> {
        self.tree.prove(seq)
    }

    /// Verifies a received segment packet against a catalog: the proof
    /// must bind the packet's payload to the catalog's root at the
    /// segment's own index.
    pub fn verify_segment(catalog: &Catalog, proof: &MerkleProof, seq: usize, data: &Data) -> bool {
        proof.leaf_index == seq
            && proof.leaf_count == catalog.chunk_count as usize
            && proof.verify(&catalog.root, data.content())
    }

    /// The catalog describing this file.
    pub fn catalog(&self) -> Catalog {
        Catalog {
            chunk_size: self.chunk_size as u32,
            size_bytes: self.bytes.len() as u64,
            chunk_count: self.chunk_count() as u32,
            root: self.root(),
        }
    }

    /// The catalog Data packet under `/<collection>/<file>/catalog`. Like
    /// the segments it is immutable (no FreshnessPeriod): a new file
    /// version publishes under a new name, never by mutating a cached
    /// catalog.
    pub fn catalog_data(&self) -> Data {
        let name = namespace::catalog_name(&self.collection, &self.file);
        Data::new(name, self.catalog().encode())
    }

    /// Seeds the catalog and every segment into a Content Store (the
    /// producer- or repo-side bootstrap), returning the number of packets
    /// inserted. Insertion order is catalog first, then segments in
    /// sequence order — deterministic, so FIFO stores built this way are
    /// bit-identical across processes.
    pub fn seed_into(&self, cs: &mut ContentStore, now: SimTime) -> usize {
        cs.insert(self.catalog_data(), now);
        let mut count = 1;
        for seg in self.segments() {
            cs.insert(seg, now);
            count += 1;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapes_crypto::merkle::leaf_hash;

    fn col() -> Name {
        Name::from_uri("/damaged-bridge-1533783192")
    }

    #[test]
    fn chunk_geometry_covers_the_file_exactly() {
        let f = ChunkedFile::synthetic(&col(), "pic", 2500, 1024);
        assert_eq!(f.chunk_count(), 3);
        assert_eq!(f.chunk(0).unwrap().len(), 1024);
        assert_eq!(f.chunk(1).unwrap().len(), 1024);
        assert_eq!(f.chunk(2).unwrap().len(), 452);
        assert!(f.chunk(3).is_none());
        let total: usize = (0..f.chunk_count())
            .map(|i| f.chunk(i).unwrap().len())
            .sum();
        assert_eq!(total, f.size_bytes());
    }

    #[test]
    fn synthetic_bytes_match_the_collection_substitution() {
        // Chunk seq's payload is generate_content(packet_name(.., seq)) —
        // identical to what the collection producer would emit for the
        // same name, so segments regenerate from the name alone.
        let f = ChunkedFile::synthetic(&col(), "pic", 2500, 1024);
        for seq in 0..f.chunk_count() {
            let pname = namespace::packet_name(&col(), "pic", seq as u64);
            let expect = generate_content(&pname, f.chunk(seq).unwrap().len());
            assert_eq!(f.chunk(seq).unwrap(), &expect[..], "chunk {seq}");
        }
        // And two builds are bit-identical.
        let g = ChunkedFile::synthetic(&col(), "pic", 2500, 1024);
        assert_eq!(f.root(), g.root());
    }

    #[test]
    fn segments_carry_namespace_names_and_are_never_fresh() {
        let f = ChunkedFile::synthetic(&col(), "pic", 2048, 1024);
        let segs: Vec<Data> = f.segments().collect();
        assert_eq!(segs.len(), 2);
        for (i, seg) in segs.iter().enumerate() {
            assert_eq!(
                seg.name(),
                &namespace::packet_name(&col(), "pic", i as u64),
                "segment {i}"
            );
            assert_eq!(
                seg.freshness_ms(),
                0,
                "immutable segments carry no freshness"
            );
        }
    }

    #[test]
    fn every_segment_verifies_against_the_catalog() {
        // The full pipeline round trip: file → chunks → tree → per-segment
        // proof → verify against the published catalog.
        let f = ChunkedFile::synthetic(&col(), "pic", 10_000, 1024);
        let catalog = Catalog::decode(f.catalog_data().content()).expect("decodes");
        assert_eq!(catalog, f.catalog());
        for seq in 0..f.chunk_count() {
            let seg = f.segment(seq).unwrap();
            let proof = f.prove(seq).unwrap();
            assert!(
                ChunkedFile::verify_segment(&catalog, &proof, seq, &seg),
                "segment {seq}"
            );
            // The proof must not validate any other segment index.
            let other = (seq + 1) % f.chunk_count();
            if other != seq {
                let wrong = f.segment(other).unwrap();
                assert!(!ChunkedFile::verify_segment(&catalog, &proof, seq, &wrong));
            }
        }
        // Deferred verification: all leaf hashes recompute the root.
        let hashes: Vec<Digest> = (0..f.chunk_count())
            .map(|i| leaf_hash(f.chunk(i).unwrap()))
            .collect();
        assert!(MerkleTree::verify_leaves(&catalog.root, hashes));
    }

    #[test]
    fn tampered_segment_fails_verification() {
        let f = ChunkedFile::synthetic(&col(), "pic", 4096, 1024);
        let catalog = f.catalog();
        let proof = f.prove(1).unwrap();
        let seg = f.segment(1).unwrap();
        let mut bad = seg.content().to_vec();
        bad[0] ^= 1;
        let forged = Data::new(seg.name().clone(), bad);
        assert!(!ChunkedFile::verify_segment(&catalog, &proof, 1, &forged));
    }

    #[test]
    fn catalog_wire_round_trips_and_rejects_inconsistency() {
        let f = ChunkedFile::synthetic(&col(), "pic", 2500, 1024);
        let c = f.catalog();
        let wire = c.encode();
        assert_eq!(wire.len(), Catalog::WIRE_SIZE);
        assert_eq!(Catalog::decode(&wire), Some(c));
        // Truncation and padding both reject.
        assert_eq!(Catalog::decode(&wire[..wire.len() - 1]), None);
        let mut padded = wire.clone();
        padded.push(0);
        assert_eq!(Catalog::decode(&padded), None);
        // A chunk_count that disagrees with the geometry rejects.
        let mut bad = wire.clone();
        bad[15] ^= 1; // chunk_count low byte
        assert_eq!(Catalog::decode(&bad), None);
        // A zero chunk_size rejects.
        let mut zeroed = wire;
        zeroed[..4].fill(0);
        assert_eq!(Catalog::decode(&zeroed), None);
    }

    #[test]
    fn empty_file_still_has_one_fetchable_segment() {
        let f = ChunkedFile::synthetic(&col(), "empty", 0, 1024);
        assert_eq!(f.chunk_count(), 1);
        assert_eq!(f.chunk(0).unwrap().len(), 0);
        let seg = f.segment(0).unwrap();
        assert!(seg.content().is_empty());
        let catalog = Catalog::decode(f.catalog_data().content()).expect("decodes");
        let proof = f.prove(0).unwrap();
        assert!(ChunkedFile::verify_segment(&catalog, &proof, 0, &seg));
    }

    #[test]
    fn seed_into_populates_catalog_and_segments() {
        use dapes_ndn::cs::{ContentStore, CsBudget};
        let f = ChunkedFile::synthetic(&col(), "pic", 5000, 1024);
        let mut cs = ContentStore::with_budget(CsBudget::Bytes(1 << 20));
        let inserted = f.seed_into(&mut cs, SimTime::ZERO);
        assert_eq!(inserted, f.chunk_count() + 1);
        assert_eq!(cs.len(), inserted);
        // The catalog resolves, decodes, and describes the segments that
        // are all resident.
        let cat_data = cs
            .lookup_exact(&namespace::catalog_name(&col(), "pic"))
            .expect("catalog resident");
        let catalog = Catalog::decode(cat_data.content()).expect("decodes");
        for seq in 0..catalog.chunk_count as u64 {
            assert!(
                cs.lookup_exact(&namespace::packet_name(&col(), "pic", seq))
                    .is_some(),
                "segment {seq} resident"
            );
        }
        cs.audit().expect("clean");
    }
}
