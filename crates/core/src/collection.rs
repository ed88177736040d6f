//! File collections and the producer side of DAPES.
//!
//! A [`Collection`] describes a named group of files segmented into
//! fixed-size packets (the paper's damaged-bridge example: a picture file
//! plus a location file grouped under `/damaged-bridge-<timestamp>`).
//!
//! # Content model
//!
//! Packet contents are *deterministically generated* from the packet name
//! (seeded by SHA-256). This reproduces everything the evaluation measures —
//! packet sizes, air time, digests, verification — while letting the
//! simulator run collections of hundreds of megabytes without peers
//! retaining payload bytes: any peer that *has* a packet (a bitmap bit) can
//! regenerate and re-sign it on demand, because signing keys derive from the
//! shared trust anchor (see `DESIGN.md`, substitutions).

use crate::metadata::{FileEntry, Metadata, MetadataFormat, PacketIndex, PACKET_DIGEST_LEN};
use dapes_crypto::merkle::MerkleTree;
use dapes_crypto::sha256::{sha256, sha256_pair};
use dapes_crypto::signing::TrustAnchor;
use dapes_ndn::name::Name;
use dapes_ndn::packet::Data;

/// Description of one file to include in a collection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileSpec {
    /// File name (used as a name component).
    pub name: String,
    /// File size in bytes.
    pub size_bytes: usize,
}

impl FileSpec {
    /// Creates a file spec.
    pub fn new(name: impl Into<String>, size_bytes: usize) -> Self {
        FileSpec {
            name: name.into(),
            size_bytes,
        }
    }
}

/// Parameters for building a [`Collection`].
#[derive(Clone, Debug)]
pub struct CollectionSpec {
    /// The collection name, e.g. `/damaged-bridge-1533783192`.
    pub name: Name,
    /// Files in order (their order fixes the bitmap layout).
    pub files: Vec<FileSpec>,
    /// Packet payload size in bytes (paper: 1 KB).
    pub packet_size: usize,
    /// Metadata encoding.
    pub format: MetadataFormat,
    /// Producer identity under the trust anchor.
    pub producer: String,
}

impl CollectionSpec {
    /// The paper's default workload: `n_files` files of `file_size` bytes
    /// each at 1 KB packets (§VI-B1: ten 1 MB files unless noted).
    pub fn uniform(name: &str, n_files: usize, file_size: usize) -> Self {
        CollectionSpec {
            name: Name::from_uri(name),
            files: (0..n_files)
                .map(|i| FileSpec::new(format!("file-{i}"), file_size))
                .collect(),
            packet_size: 1024,
            format: MetadataFormat::MerkleRoots,
            producer: "producer".to_owned(),
        }
    }
}

/// Deterministic packet content: a SHA-256-seeded byte stream keyed by the
/// packet name.
pub fn generate_content(packet_name: &Name, size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(size);
    let seed = sha256(packet_name.to_string().as_bytes());
    let mut counter = 0u64;
    while out.len() < size {
        let block = sha256_pair(seed.as_bytes(), &counter.to_be_bytes());
        let take = (size - out.len()).min(32);
        out.extend_from_slice(&block.as_bytes()[..take]);
        counter += 1;
    }
    out
}

/// A fully described collection: spec, per-packet layout, and signed
/// metadata. Cheap to clone is *not* a goal; share via `Rc`/`Arc` if needed.
#[derive(Clone, Debug)]
pub struct Collection {
    spec: CollectionSpec,
    metadata: Metadata,
    index: PacketIndex,
}

impl Collection {
    /// Builds a collection: computes per-packet digests (or Merkle roots)
    /// over the generated contents and assembles the metadata.
    pub fn build(spec: CollectionSpec) -> Self {
        let mut files = Vec::with_capacity(spec.files.len());
        for file in &spec.files {
            let packet_count = file.size_bytes.div_ceil(spec.packet_size).max(1) as u32;
            let mut digests = Vec::new();
            let mut leaf_payloads: Vec<Vec<u8>> = Vec::new();
            for seq in 0..packet_count {
                let pname = crate::namespace::packet_name(&spec.name, &file.name, seq as u64);
                let psize = packet_payload_size(file.size_bytes, spec.packet_size, seq);
                let content = generate_content(&pname, psize);
                match spec.format {
                    MetadataFormat::PacketDigest => {
                        let d: [u8; PACKET_DIGEST_LEN] = sha256(&content).as_bytes()
                            [..PACKET_DIGEST_LEN]
                            .try_into()
                            .expect("8 bytes");
                        digests.push(d);
                    }
                    MetadataFormat::MerkleRoots => leaf_payloads.push(content),
                }
            }
            let root = match spec.format {
                MetadataFormat::MerkleRoots => {
                    Some(MerkleTree::from_leaves(leaf_payloads.iter().map(|v| v.as_slice())).root())
                }
                MetadataFormat::PacketDigest => None,
            };
            files.push(FileEntry {
                name: file.name.clone(),
                packet_count,
                size_bytes: file.size_bytes as u64,
                digests,
                root,
            });
        }
        let metadata = Metadata {
            format: spec.format,
            producer: spec.producer.clone(),
            packet_size: spec.packet_size as u32,
            files,
        };
        let index = metadata.index();
        Collection {
            spec,
            metadata,
            index,
        }
    }

    /// The collection name.
    pub fn name(&self) -> &Name {
        &self.spec.name
    }

    /// The signed-metadata description.
    pub fn metadata(&self) -> &Metadata {
        &self.metadata
    }

    /// The packet index (bitmap layout).
    pub fn index(&self) -> &PacketIndex {
        &self.index
    }

    /// Total packets.
    pub fn total_packets(&self) -> usize {
        self.index.total_packets()
    }

    /// The producer name.
    pub fn producer(&self) -> &str {
        &self.spec.producer
    }

    /// The metadata name `/collection/metadata-file/<digest8>`.
    pub fn metadata_name(&self) -> Name {
        self.metadata.name_for(&self.spec.name)
    }

    /// Signed metadata segments, produced with the producer's key.
    pub fn metadata_segments(&self, anchor: &TrustAnchor) -> Vec<Data> {
        let key = anchor.keypair(&self.spec.producer);
        self.metadata.to_segments(&self.spec.name, &key)
    }

    /// Payload size of global packet `idx`.
    pub fn packet_size_of(&self, idx: usize) -> Option<usize> {
        let (file_pos, seq) = self.index.locate(idx)?;
        let file = &self.spec.files[file_pos];
        Some(packet_payload_size(
            file.size_bytes,
            self.spec.packet_size,
            seq as u32,
        ))
    }

    /// Regenerates and signs the Data packet at global index `idx`.
    ///
    /// Any peer holding the trust anchor can produce bit-identical packets,
    /// which is how peers serve packets without retaining payload bytes.
    pub fn packet_data(&self, idx: usize, anchor: &TrustAnchor) -> Option<Data> {
        let name = self.index.packet_name(&self.spec.name, idx)?;
        let size = self.packet_size_of(idx)?;
        let content = generate_content(&name, size);
        let key = anchor.keypair(&self.spec.producer);
        Some(Data::new(name, content).signed(&key))
    }
}

/// Regenerates and signs the Data packet at global index `idx` of a
/// collection known only through its `metadata` — this is how downloaders
/// serve packets they hold without retaining payload bytes.
pub fn regenerate_packet(
    collection: &Name,
    metadata: &Metadata,
    idx: usize,
    anchor: &TrustAnchor,
) -> Option<Data> {
    let (file_pos, seq) = metadata.locate(idx)?;
    let name = crate::namespace::packet_name(collection, &metadata.files[file_pos].name, seq);
    let size = metadata.packet_payload_size(idx)?;
    let content = generate_content(&name, size);
    let key = anchor.keypair(&metadata.producer);
    Some(Data::new(name, content).signed(&key))
}

fn packet_payload_size(file_size: usize, packet_size: usize, seq: u32) -> usize {
    let full = file_size / packet_size;
    if (seq as usize) < full {
        packet_size
    } else {
        // Final (possibly short) packet; empty files still get one packet.
        (file_size % packet_size).max(usize::from(file_size == 0))
    }
    .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::PacketVerification;

    fn anchor() -> TrustAnchor {
        TrustAnchor::from_seed(b"rural-area")
    }

    fn small_spec(format: MetadataFormat) -> CollectionSpec {
        CollectionSpec {
            name: Name::from_uri("/damaged-bridge-1533783192"),
            files: vec![
                FileSpec::new("bridge-picture", 2500),
                FileSpec::new("bridge-location", 900),
            ],
            packet_size: 1024,
            format,
            producer: "resident-a".into(),
        }
    }

    #[test]
    fn packet_layout_matches_sizes() {
        let col = Collection::build(small_spec(MetadataFormat::MerkleRoots));
        // 2500 B -> 3 packets (1024, 1024, 452); 900 B -> 1 packet.
        assert_eq!(col.total_packets(), 4);
        assert_eq!(col.packet_size_of(0), Some(1024));
        assert_eq!(col.packet_size_of(2), Some(452));
        assert_eq!(col.packet_size_of(3), Some(900));
        assert_eq!(col.packet_size_of(4), None);
    }

    #[test]
    fn content_is_deterministic_and_name_dependent() {
        let n1 = Name::from_uri("/c/f/0");
        let n2 = Name::from_uri("/c/f/1");
        assert_eq!(generate_content(&n1, 100), generate_content(&n1, 100));
        assert_ne!(generate_content(&n1, 100), generate_content(&n2, 100));
        assert_eq!(generate_content(&n1, 100).len(), 100);
        assert_eq!(generate_content(&n1, 0).len(), 0);
        // Prefix property: longer generations extend shorter ones.
        let long = generate_content(&n1, 200);
        assert_eq!(&long[..100], &generate_content(&n1, 100)[..]);
        // The stream itself: block i is SHA-256(seed || i as 8 BE bytes).
        let seed = sha256(b"/c/f/0");
        let block1 = sha256(&[seed.as_bytes().as_slice(), &1u64.to_be_bytes()].concat());
        assert_eq!(&long[32..64], block1.as_bytes());
    }

    #[test]
    fn regenerated_packets_verify_against_digest_metadata() {
        let col = Collection::build(small_spec(MetadataFormat::PacketDigest));
        let a = anchor();
        for idx in 0..col.total_packets() {
            let data = col.packet_data(idx, &a).expect("packet");
            assert!(data.verify(&a), "signature at {idx}");
            assert_eq!(
                col.metadata().verify_packet(idx, data.content()),
                PacketVerification::Verified,
                "digest at {idx}"
            );
        }
    }

    #[test]
    fn regenerated_packets_verify_against_merkle_metadata() {
        let col = Collection::build(small_spec(MetadataFormat::MerkleRoots));
        let a = anchor();
        // Per-packet is deferred; whole file verifies.
        let data0 = col.packet_data(0, &a).expect("packet");
        assert_eq!(
            col.metadata().verify_packet(0, data0.content()),
            PacketVerification::Deferred
        );
        for (file_pos, range) in
            (0..col.index().file_count()).map(|p| (p, col.index().file_range(p).expect("range")))
        {
            let contents: Vec<Vec<u8>> = range
                .map(|i| col.packet_data(i, &a).expect("packet").content().to_vec())
                .collect();
            assert!(col.metadata().verify_file(file_pos, &contents));
        }
    }

    #[test]
    fn metadata_segments_verify_and_reassemble() {
        let col = Collection::build(small_spec(MetadataFormat::PacketDigest));
        let a = anchor();
        let segs = col.metadata_segments(&a);
        let mut asm = crate::metadata::MetadataAssembler::new();
        let mut out = None;
        for seg in &segs {
            assert!(seg.verify(&a));
            let segno = seg.name().last().and_then(|c| c.to_seq()).expect("seg") as u32;
            out = asm.feed(segno, seg.content());
        }
        assert_eq!(&out.expect("complete"), col.metadata());
    }

    #[test]
    fn uniform_spec_matches_paper_default() {
        let col = Collection::build(CollectionSpec::uniform("/col", 10, 1_000_000));
        // ceil(1 MB / 1 KB) = 977 packets per file.
        assert_eq!(col.total_packets(), 9770);
        assert_eq!(col.index().file_count(), 10);
    }

    #[test]
    fn regenerate_from_metadata_matches_producer_packets() {
        let col = Collection::build(small_spec(MetadataFormat::PacketDigest));
        let a = anchor();
        for idx in 0..col.total_packets() {
            let from_collection = col.packet_data(idx, &a).expect("producer packet");
            let from_metadata =
                regenerate_packet(col.name(), col.metadata(), idx, &a).expect("regenerated packet");
            assert_eq!(from_collection, from_metadata, "packet {idx}");
        }
    }

    #[test]
    fn two_builds_are_identical() {
        let c1 = Collection::build(small_spec(MetadataFormat::MerkleRoots));
        let c2 = Collection::build(small_spec(MetadataFormat::MerkleRoots));
        assert_eq!(c1.metadata(), c2.metadata());
        assert_eq!(c1.metadata_name(), c2.metadata_name());
        let a = anchor();
        assert_eq!(c1.packet_data(2, &a), c2.packet_data(2, &a));
    }

    #[test]
    fn empty_file_still_has_one_packet() {
        let col = Collection::build(CollectionSpec {
            name: Name::from_uri("/c"),
            files: vec![FileSpec::new("empty", 0)],
            packet_size: 1024,
            format: MetadataFormat::PacketDigest,
            producer: "p".into(),
        });
        assert_eq!(col.total_packets(), 1);
        assert_eq!(col.packet_size_of(0), Some(1));
    }
}
