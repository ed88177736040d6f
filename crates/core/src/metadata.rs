//! Collection metadata: secure initialization of the sharing process
//! (paper §IV-C).
//!
//! The collection producer signs a metadata file describing every file in
//! the collection. Two encodings are implemented, with the paper's
//! trade-off between size and verification latency:
//!
//! * [`MetadataFormat::PacketDigest`] — per-packet digests
//!   (`[packet-index]/[packet-digest]` subnames): large (segments into many
//!   packets) but each received packet verifies immediately.
//! * [`MetadataFormat::MerkleRoots`] — one Merkle root per file: fits in a
//!   single packet, but a file verifies only once all its packets arrived.
//!
//! The metadata also fixes the packet ordering used by bitmaps: files in
//! metadata order, packets in sequence order (paper §IV-D).

use dapes_crypto::merkle::{leaf_hash, MerkleTree};
use dapes_crypto::sha256::sha256;
use dapes_crypto::signing::Signer;
use dapes_crypto::Digest;
use dapes_ndn::name::Name;
use dapes_ndn::packet::Data;
use std::collections::BTreeMap;
use std::fmt;

use crate::namespace;

/// Truncated per-packet digest stored in the packet-digest format.
pub const PACKET_DIGEST_LEN: usize = 8;
/// Payload bytes per metadata segment.
pub const SEGMENT_SIZE: usize = 1024;

/// Which metadata encoding a collection uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MetadataFormat {
    /// Per-packet truncated digests; immediate verification.
    PacketDigest,
    /// One Merkle root per file; deferred verification.
    #[default]
    MerkleRoots,
}

/// Metadata for one file of the collection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileEntry {
    /// File name (one name component).
    pub name: String,
    /// Number of packets in the file.
    pub packet_count: u32,
    /// File size in bytes (lets receivers size the final packet).
    pub size_bytes: u64,
    /// Truncated content digests (packet-digest format only).
    pub digests: Vec<[u8; PACKET_DIGEST_LEN]>,
    /// Merkle root over packet contents (Merkle format only).
    pub root: Option<Digest>,
}

/// The decoded metadata file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Metadata {
    /// Encoding in use.
    pub format: MetadataFormat,
    /// The producer's name under the local trust anchor, used to locate the
    /// verification key (an NDN KeyLocator in spirit).
    pub producer: String,
    /// Packet payload size the producer segmented with.
    pub packet_size: u32,
    /// Files in collection order (this order defines the bitmap layout).
    pub files: Vec<FileEntry>,
}

/// Outcome of verifying one received packet against the metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketVerification {
    /// Digest matched (packet-digest format).
    Verified,
    /// Cannot verify until the whole file arrived (Merkle format).
    Deferred,
    /// Digest mismatch: the packet is corrupt or forged.
    Failed,
}

impl Metadata {
    /// Total packets across all files.
    pub fn total_packets(&self) -> usize {
        self.files.iter().map(|f| f.packet_count as usize).sum()
    }

    /// Builds the index that maps global packet positions to names.
    pub fn index(&self) -> PacketIndex {
        PacketIndex::new(
            self.files
                .iter()
                .map(|f| (f.name.clone(), f.packet_count))
                .collect(),
        )
    }

    /// Locates global packet `idx` as `(file position, seq within file)` by
    /// walking the file table — what [`PacketIndex::locate`] answers, for
    /// per-packet callers that should not build an index (which clones
    /// every file name) to ask once.
    pub fn locate(&self, idx: usize) -> Option<(usize, u64)> {
        let mut first = 0usize;
        for (file_pos, f) in self.files.iter().enumerate() {
            let count = f.packet_count as usize;
            if idx < first + count {
                return Some((file_pos, (idx - first) as u64));
            }
            first += count;
        }
        None
    }

    /// Verifies the content of global packet `idx`.
    pub fn verify_packet(&self, idx: usize, content: &[u8]) -> PacketVerification {
        let Some((file_pos, seq)) = self.locate(idx) else {
            return PacketVerification::Failed;
        };
        let entry = &self.files[file_pos];
        match self.format {
            MetadataFormat::PacketDigest => {
                let expect = match entry.digests.get(seq as usize) {
                    Some(d) => d,
                    None => return PacketVerification::Failed,
                };
                let got = sha256(content);
                if &got.as_bytes()[..PACKET_DIGEST_LEN] == expect {
                    PacketVerification::Verified
                } else {
                    PacketVerification::Failed
                }
            }
            MetadataFormat::MerkleRoots => PacketVerification::Deferred,
        }
    }

    /// Verifies a completed file in the Merkle format given the content
    /// digests (leaf hashes) of its packets in order. For the packet-digest
    /// format this re-checks every truncated digest.
    pub fn verify_file(&self, file_pos: usize, packet_contents: &[Vec<u8>]) -> bool {
        let Some(entry) = self.files.get(file_pos) else {
            return false;
        };
        if packet_contents.len() != entry.packet_count as usize {
            return false;
        }
        match self.format {
            MetadataFormat::MerkleRoots => {
                let Some(root) = entry.root else { return false };
                let leaves: Vec<Digest> = packet_contents.iter().map(|c| leaf_hash(c)).collect();
                MerkleTree::verify_leaves(&root, leaves)
            }
            MetadataFormat::PacketDigest => packet_contents.iter().enumerate().all(|(i, c)| {
                entry
                    .digests
                    .get(i)
                    .is_some_and(|expect| &sha256(c).as_bytes()[..PACKET_DIGEST_LEN] == expect)
            }),
        }
    }

    /// Payload size of global packet `idx`, derived from the file size and
    /// the producer's packet size.
    pub fn packet_payload_size(&self, idx: usize) -> Option<usize> {
        let (file_pos, seq) = self.locate(idx)?;
        let f = &self.files[file_pos];
        let ps = self.packet_size as usize;
        let full = f.size_bytes as usize / ps;
        Some(if (seq as usize) < full {
            ps
        } else {
            ((f.size_bytes as usize % ps).max(usize::from(f.size_bytes == 0))).max(1)
        })
    }

    /// Serializes the metadata body (before segmentation and signing).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(match self.format {
            MetadataFormat::PacketDigest => 0u8,
            MetadataFormat::MerkleRoots => 1u8,
        });
        out.extend_from_slice(&self.packet_size.to_be_bytes());
        let producer = self.producer.as_bytes();
        out.extend_from_slice(&(producer.len() as u16).to_be_bytes());
        out.extend_from_slice(producer);
        out.extend_from_slice(&(self.files.len() as u32).to_be_bytes());
        for f in &self.files {
            let name = f.name.as_bytes();
            out.extend_from_slice(&(name.len() as u16).to_be_bytes());
            out.extend_from_slice(name);
            out.extend_from_slice(&f.packet_count.to_be_bytes());
            out.extend_from_slice(&f.size_bytes.to_be_bytes());
            match self.format {
                MetadataFormat::PacketDigest => {
                    for d in &f.digests {
                        out.extend_from_slice(d);
                    }
                }
                MetadataFormat::MerkleRoots => {
                    out.extend_from_slice(f.root.unwrap_or(Digest::ZERO).as_bytes());
                }
            }
        }
        out
    }

    /// Parses a body serialized by [`Metadata::encode_body`].
    pub fn decode_body(body: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let s = body.get(*pos..*pos + n)?;
            *pos += n;
            Some(s)
        };
        let format = match take(&mut pos, 1)?[0] {
            0 => MetadataFormat::PacketDigest,
            1 => MetadataFormat::MerkleRoots,
            _ => return None,
        };
        let packet_size = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?);
        let producer_len = u16::from_be_bytes(take(&mut pos, 2)?.try_into().ok()?) as usize;
        let producer = String::from_utf8(take(&mut pos, producer_len)?.to_vec()).ok()?;
        let file_count = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        // Guard against absurd counts from corrupt input.
        if file_count > 1_000_000 {
            return None;
        }
        let mut files = Vec::with_capacity(file_count);
        for _ in 0..file_count {
            let name_len = u16::from_be_bytes(take(&mut pos, 2)?.try_into().ok()?) as usize;
            let name = String::from_utf8(take(&mut pos, name_len)?.to_vec()).ok()?;
            let packet_count = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?);
            let size_bytes = u64::from_be_bytes(take(&mut pos, 8)?.try_into().ok()?);
            let mut entry = FileEntry {
                name,
                packet_count,
                size_bytes,
                digests: Vec::new(),
                root: None,
            };
            match format {
                MetadataFormat::PacketDigest => {
                    let mut digests = Vec::with_capacity(packet_count as usize);
                    for _ in 0..packet_count {
                        let d: [u8; PACKET_DIGEST_LEN] =
                            take(&mut pos, PACKET_DIGEST_LEN)?.try_into().ok()?;
                        digests.push(d);
                    }
                    entry.digests = digests;
                }
                MetadataFormat::MerkleRoots => {
                    entry.root = Digest::from_slice(take(&mut pos, 32)?);
                    entry.root?;
                }
            }
            files.push(entry);
        }
        if pos != body.len() {
            return None;
        }
        Some(Metadata {
            format,
            producer,
            packet_size,
            files,
        })
    }

    /// The 8-hex-character digest of the body, used in the metadata name
    /// (the paper's `metadata-file/A23D1F9B`).
    pub fn digest8(&self) -> String {
        sha256(&self.encode_body()).short_hex().to_uppercase()
    }

    /// The full metadata name for a collection.
    pub fn name_for(&self, collection: &Name) -> Name {
        namespace::metadata_name(collection, &self.digest8())
    }

    /// Splits the body into signed Data segments. Every segment's content
    /// is `u32 total_segments || chunk`, so a receiver learns the total from
    /// any segment.
    pub fn to_segments(&self, collection: &Name, signer: &dyn Signer) -> Vec<Data> {
        let body = self.encode_body();
        let meta_name = self.name_for(collection);
        // The body always holds at least the format byte and file count, so
        // chunks() yields at least one segment.
        let total = body.len().div_ceil(SEGMENT_SIZE).max(1) as u32;
        let mut segments = Vec::with_capacity(total as usize);
        for (i, chunk) in body.chunks(SEGMENT_SIZE).enumerate() {
            let mut content = Vec::with_capacity(4 + chunk.len());
            content.extend_from_slice(&total.to_be_bytes());
            content.extend_from_slice(chunk);
            let name = namespace::metadata_segment_name(&meta_name, i as u64);
            segments.push(Data::new(name, content).signed(signer));
        }
        segments
    }

    /// Approximate heap bytes (Table I memory proxy).
    pub fn state_bytes(&self) -> usize {
        self.files
            .iter()
            .map(|f| f.name.len() + f.digests.len() * PACKET_DIGEST_LEN + 64)
            .sum()
    }
}

/// Reassembles metadata segments fetched out of order.
#[derive(Debug, Default)]
pub struct MetadataAssembler {
    total: Option<u32>,
    segments: BTreeMap<u32, Vec<u8>>,
}

impl MetadataAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total segment count, once any segment has been fed.
    pub fn total(&self) -> Option<u32> {
        self.total
    }

    /// Segment numbers still missing (empty until the first segment).
    pub fn missing(&self) -> Vec<u32> {
        match self.total {
            None => Vec::new(),
            Some(t) => (0..t).filter(|s| !self.segments.contains_key(s)).collect(),
        }
    }

    /// Feeds one segment's Data content. Returns the decoded metadata when
    /// complete; `None` otherwise (including on malformed input).
    pub fn feed(&mut self, segment: u32, content: &[u8]) -> Option<Metadata> {
        if content.len() < 4 {
            return None;
        }
        let total = u32::from_be_bytes(content[..4].try_into().ok()?);
        if total == 0 {
            return None;
        }
        match self.total {
            None => self.total = Some(total),
            Some(t) if t != total => return None, // inconsistent: ignore
            _ => {}
        }
        if segment >= total {
            return None;
        }
        self.segments.insert(segment, content[4..].to_vec());
        if self.segments.len() == total as usize {
            let mut body = Vec::new();
            for i in 0..total {
                body.extend_from_slice(self.segments.get(&i).expect("all present"));
            }
            Metadata::decode_body(&body)
        } else {
            None
        }
    }
}

/// Maps global packet positions (bitmap bits) to `(file, seq)` and names.
///
/// The first packet of the first file is bit 0; bits advance through each
/// file's packets, then the next file (paper §IV-D's ordering).
#[derive(Clone, PartialEq, Eq)]
pub struct PacketIndex {
    files: Vec<(String, u32)>,
    /// Cumulative packet counts; `offsets[i]` is the global index of file
    /// `i`'s first packet.
    offsets: Vec<usize>,
    total: usize,
}

impl PacketIndex {
    /// Builds an index from `(file name, packet count)` pairs in order.
    pub fn new(files: Vec<(String, u32)>) -> Self {
        let mut offsets = Vec::with_capacity(files.len());
        let mut acc = 0usize;
        for (_, count) in &files {
            offsets.push(acc);
            acc += *count as usize;
        }
        PacketIndex {
            files,
            offsets,
            total: acc,
        }
    }

    /// Total packets in the collection.
    pub fn total_packets(&self) -> usize {
        self.total
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// `(file name, packet count)` for file `pos`.
    pub fn file(&self, pos: usize) -> Option<(&str, u32)> {
        self.files.get(pos).map(|(n, c)| (n.as_str(), *c))
    }

    /// Locates global index `idx` as `(file position, seq within file)`.
    pub fn locate(&self, idx: usize) -> Option<(usize, u64)> {
        if idx >= self.total {
            return None;
        }
        let file_pos = match self.offsets.binary_search(&idx) {
            Ok(exact) => exact,
            Err(ins) => ins - 1,
        };
        Some((file_pos, (idx - self.offsets[file_pos]) as u64))
    }

    /// Global index of `(file name, seq)`.
    pub fn global_index(&self, file: &str, seq: u64) -> Option<usize> {
        let pos = self.files.iter().position(|(n, _)| n == file)?;
        if seq >= self.files[pos].1 as u64 {
            return None;
        }
        Some(self.offsets[pos] + seq as usize)
    }

    /// The NDN name of global packet `idx` under `collection`.
    pub fn packet_name(&self, collection: &Name, idx: usize) -> Option<Name> {
        let (file_pos, seq) = self.locate(idx)?;
        Some(namespace::packet_name(
            collection,
            &self.files[file_pos].0,
            seq,
        ))
    }

    /// Range of global indices belonging to file `pos`.
    pub fn file_range(&self, pos: usize) -> Option<std::ops::Range<usize>> {
        let start = *self.offsets.get(pos)?;
        Some(start..start + self.files[pos].1 as usize)
    }
}

impl fmt::Debug for PacketIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PacketIndex({} files, {} packets)",
            self.files.len(),
            self.total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapes_crypto::signing::TrustAnchor;

    fn digest_meta() -> Metadata {
        let mk = |name: &str, contents: &[&[u8]]| FileEntry {
            name: name.to_owned(),
            packet_count: contents.len() as u32,
            size_bytes: contents.iter().map(|c| c.len() as u64).sum(),
            digests: contents
                .iter()
                .map(|c| {
                    sha256(c).as_bytes()[..PACKET_DIGEST_LEN]
                        .try_into()
                        .expect("8 bytes")
                })
                .collect(),
            root: None,
        };
        Metadata {
            format: MetadataFormat::PacketDigest,
            producer: "resident-a".into(),
            packet_size: 2,
            files: vec![
                mk("bridge-picture", &[b"p0", b"p1", b"p2"]),
                mk("bridge-location", &[b"l0", b"l1"]),
            ],
        }
    }

    fn merkle_meta() -> Metadata {
        let mk = |name: &str, contents: &[&[u8]]| FileEntry {
            name: name.to_owned(),
            packet_count: contents.len() as u32,
            size_bytes: contents.iter().map(|c| c.len() as u64).sum(),
            digests: Vec::new(),
            root: Some(MerkleTree::from_leaves(contents.iter().copied()).root()),
        };
        Metadata {
            format: MetadataFormat::MerkleRoots,
            producer: "resident-a".into(),
            packet_size: 2,
            files: vec![
                mk("bridge-picture", &[b"p0", b"p1", b"p2"]),
                mk("bridge-location", &[b"l0", b"l1"]),
            ],
        }
    }

    #[test]
    fn body_round_trip_both_formats() {
        for meta in [digest_meta(), merkle_meta()] {
            let body = meta.encode_body();
            let back = Metadata::decode_body(&body).expect("decode");
            assert_eq!(back, meta);
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let meta = digest_meta();
        let body = meta.encode_body();
        assert!(Metadata::decode_body(&body[..body.len() - 1]).is_none());
        assert!(Metadata::decode_body(&[]).is_none());
        let mut trailing = body.clone();
        trailing.push(0);
        assert!(Metadata::decode_body(&trailing).is_none());
        let mut bad_format = body;
        bad_format[0] = 9;
        assert!(Metadata::decode_body(&bad_format).is_none());
    }

    #[test]
    fn packet_digest_verifies_immediately() {
        let meta = digest_meta();
        assert_eq!(meta.verify_packet(0, b"p0"), PacketVerification::Verified);
        assert_eq!(meta.verify_packet(4, b"l1"), PacketVerification::Verified);
        assert_eq!(meta.verify_packet(0, b"junk"), PacketVerification::Failed);
        assert_eq!(meta.verify_packet(99, b"p0"), PacketVerification::Failed);
    }

    #[test]
    fn merkle_defers_then_verifies_file() {
        let meta = merkle_meta();
        assert_eq!(meta.verify_packet(0, b"p0"), PacketVerification::Deferred);
        assert!(meta.verify_file(0, &[b"p0".to_vec(), b"p1".to_vec(), b"p2".to_vec()]));
        assert!(!meta.verify_file(0, &[b"p0".to_vec(), b"junk".to_vec(), b"p2".to_vec()]));
        assert!(!meta.verify_file(0, &[b"p0".to_vec()]), "wrong count");
        assert!(meta.verify_file(1, &[b"l0".to_vec(), b"l1".to_vec()]));
        assert!(!meta.verify_file(9, &[]));
    }

    #[test]
    fn packet_digest_verify_file_rechecks_all() {
        let meta = digest_meta();
        assert!(meta.verify_file(1, &[b"l0".to_vec(), b"l1".to_vec()]));
        assert!(
            !meta.verify_file(1, &[b"l1".to_vec(), b"l0".to_vec()]),
            "order matters"
        );
    }

    #[test]
    fn digest8_is_stable_and_name_shaped() {
        let meta = merkle_meta();
        let d8 = meta.digest8();
        assert_eq!(d8.len(), 8);
        assert_eq!(meta.digest8(), d8);
        let name = meta.name_for(&Name::from_uri("/damaged-bridge-1533783192"));
        assert_eq!(
            name.to_string(),
            format!("/damaged-bridge-1533783192/metadata-file/{d8}")
        );
    }

    #[test]
    fn merkle_metadata_fits_one_segment() {
        let meta = merkle_meta();
        let anchor = TrustAnchor::from_seed(b"a");
        let segs = meta.to_segments(&Name::from_uri("/col"), &anchor.keypair("p"));
        assert_eq!(segs.len(), 1, "paper: merkle metadata fits a single packet");
        assert!(segs[0].verify(&anchor));
    }

    #[test]
    fn large_digest_metadata_segments_and_reassembles() {
        // 3000 packets x 8-byte digests ≈ 24 KB -> ~24 segments.
        let contents: Vec<Vec<u8>> = (0..3000u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let meta = Metadata {
            format: MetadataFormat::PacketDigest,
            producer: "p".into(),
            packet_size: 4,
            files: vec![FileEntry {
                name: "big".into(),
                packet_count: contents.len() as u32,
                size_bytes: contents.iter().map(|c| c.len() as u64).sum(),
                digests: contents
                    .iter()
                    .map(|c| {
                        sha256(c).as_bytes()[..PACKET_DIGEST_LEN]
                            .try_into()
                            .expect("8")
                    })
                    .collect(),
                root: None,
            }],
        };
        let anchor = TrustAnchor::from_seed(b"a");
        let segs = meta.to_segments(&Name::from_uri("/col"), &anchor.keypair("p"));
        assert!(segs.len() > 10, "got {} segments", segs.len());

        // Feed out of order.
        let mut asm = MetadataAssembler::new();
        let mut result = None;
        for (i, seg) in segs.iter().enumerate().rev() {
            assert!(seg.verify(&anchor));
            let segno = seg.name().last().and_then(|c| c.to_seq()).expect("seg no") as u32;
            assert_eq!(segno as usize, i);
            result = asm.feed(segno, seg.content());
        }
        assert_eq!(result.expect("complete"), meta);
    }

    #[test]
    fn assembler_reports_missing_and_tolerates_dupes() {
        let meta = digest_meta();
        let anchor = TrustAnchor::from_seed(b"a");
        let segs = meta.to_segments(&Name::from_uri("/col"), &anchor.keypair("p"));
        assert_eq!(segs.len(), 1);
        let mut asm = MetadataAssembler::new();
        assert!(asm.missing().is_empty());
        let out = asm.feed(0, segs[0].content());
        assert_eq!(out.expect("complete"), meta);
        // Duplicate feed just re-completes.
        assert!(asm.feed(0, segs[0].content()).is_some());
        // Bad segment number ignored.
        assert!(asm.feed(99, segs[0].content()).is_none());
    }

    #[test]
    fn index_maps_bits_like_the_paper() {
        // Paper §IV-D: first file's packets first; the first packet of the
        // second file is bit 100 for a 100-packet first file.
        let idx = PacketIndex::new(vec![
            ("bridge-picture".into(), 100),
            ("bridge-location".into(), 2),
        ]);
        assert_eq!(idx.total_packets(), 102);
        assert_eq!(idx.locate(0), Some((0, 0)));
        assert_eq!(idx.locate(99), Some((0, 99)));
        assert_eq!(idx.locate(100), Some((1, 0)));
        assert_eq!(idx.locate(101), Some((1, 1)));
        assert_eq!(idx.locate(102), None);
        assert_eq!(idx.global_index("bridge-location", 0), Some(100));
        assert_eq!(idx.global_index("bridge-location", 2), None);
        assert_eq!(idx.global_index("nope", 0), None);
        let name = idx
            .packet_name(&Name::from_uri("/damaged-bridge-1533783192"), 100)
            .expect("name");
        assert_eq!(
            name.to_string(),
            "/damaged-bridge-1533783192/bridge-location/0"
        );
        assert_eq!(idx.file_range(0), Some(0..100));
        assert_eq!(idx.file_range(1), Some(100..102));
    }

    #[test]
    fn index_round_trips_via_metadata() {
        let meta = digest_meta();
        let idx = meta.index();
        for i in 0..meta.total_packets() {
            let (fp, seq) = idx.locate(i).expect("in range");
            let (fname, _) = idx.file(fp).expect("file");
            assert_eq!(idx.global_index(fname, seq), Some(i));
            assert_eq!(meta.locate(i), Some((fp, seq)), "index-free walk agrees");
        }
        assert_eq!(meta.locate(meta.total_packets()), None);
    }
}
