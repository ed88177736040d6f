//! Unit costs of `ndn` and `crypto`, measured after a traced run by
//! replaying the frames the wrappers sampled.
//!
//! The benchmark cannot see inside `DapesPeer::on_frame`, so it prices the
//! work the peer is known to do per frame — a header peek, a full decode, a
//! leaf hash per verified segment, an HMAC per sealed advert — on the very
//! bytes the run carried. Multiplied by the run's counts these are
//! estimates; attribution inside `core` waits for ROADMAP item 1.

use dapes_core::collection::generate_content;
use dapes_core::namespace::packet_name;
use dapes_core::stats::kinds;
use dapes_crypto::hmac::hmac_sha256;
use dapes_crypto::merkle::{leaf_hash, MerkleTree};
use dapes_crypto::sha256::sha256;
use dapes_ndn::name::Name;
use dapes_ndn::packet::Packet;
use dapes_netsim::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Unit costs; all zero when nothing was sampled.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitCosts {
    /// `Packet::peek_header` per sampled frame.
    pub peek_ns_per_frame: f64,
    /// `Packet::decode_payload` per sampled frame.
    pub decode_ns_per_frame: f64,
    /// `sha256` throughput over sampled content payloads.
    pub sha256_mb_per_s: f64,
    /// `merkle::leaf_hash` per KiB of sampled content.
    pub leaf_hash_ns_per_kib: f64,
    /// `hmac_sha256` per sampled sealed advert.
    pub hmac_ns_per_advert: f64,
}

/// Each cost is timed over whole passes of its inputs for at least this
/// long, so the quotient is not a handful of timer ticks.
const MIN_TIMED: Duration = Duration::from_millis(20);

/// Nanoseconds per call of `f` over `items`, repeated to `MIN_TIMED`.
fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut passes = 0u64;
    while start.elapsed() < MIN_TIMED {
        for item in items {
            f(black_box(item));
        }
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (passes * items.len() as u64) as f64
}

/// Prices peek, decode, hashing and HMAC on the sampled frames.
pub fn unit_costs(samples: &[(FrameKind, Payload)]) -> UnitCosts {
    let frames: Vec<&Payload> = samples.iter().map(|(_, p)| p).collect();
    let peek_ns_per_frame = ns_per_item(&frames, |p| {
        let _ = black_box(Packet::peek_header(p));
    });
    let decode_ns_per_frame = ns_per_item(&frames, |p| {
        let _ = black_box(Packet::decode_payload(p));
    });

    let contents: Vec<Vec<u8>> = samples
        .iter()
        .filter(|(kind, _)| *kind == kinds::CONTENT_DATA)
        .filter_map(|(_, p)| match Packet::decode_payload(p) {
            Ok(Packet::Data(d)) => Some(d.content().to_vec()),
            _ => None,
        })
        .collect();
    let content_bytes: usize = contents.iter().map(Vec::len).sum();
    let bytes_per_item = content_bytes as f64 / contents.len().max(1) as f64;
    let sha_ns = ns_per_item(&contents, |c| {
        black_box(sha256(c));
    });
    let leaf_ns = ns_per_item(&contents, |c| {
        black_box(leaf_hash(c));
    });

    let adverts: Vec<&Payload> = samples
        .iter()
        .filter(|(kind, _)| {
            [
                kinds::DISCOVERY_DATA,
                kinds::BITMAP_INTEREST,
                kinds::BITMAP_DATA,
            ]
            .contains(kind)
        })
        .map(|(_, p)| p)
        .collect();
    let key = [0x5au8; 32];
    let hmac_ns_per_advert = ns_per_item(&adverts, |p| {
        black_box(hmac_sha256(&key, p.as_slice()));
    });

    UnitCosts {
        peek_ns_per_frame,
        decode_ns_per_frame,
        // bytes per ns × 1000 = MB per s.
        sha256_mb_per_s: if sha_ns > 0.0 {
            bytes_per_item / sha_ns * 1e3
        } else {
            0.0
        },
        leaf_hash_ns_per_kib: if bytes_per_item > 0.0 {
            leaf_ns / (bytes_per_item / 1024.0)
        } else {
            0.0
        },
        hmac_ns_per_advert,
    }
}

/// Host seconds `MerkleTree::from_chunks` takes over the bytes of one
/// collection of `n_files` files (one tree per file, as `Collection::build`
/// makes them). Generating the bytes is not timed.
pub fn merkle_build_s(n_files: usize, file_size: usize, packet_size: usize) -> f64 {
    let collection = Name::from_uri(&format!("{}1533783192", crate::scenario::COLLECTION_PREFIX));
    let mut total = Duration::ZERO;
    for i in 0..n_files {
        let file = format!("file-{i}");
        let mut bytes = Vec::with_capacity(file_size);
        for (seq, offset) in (0..file_size).step_by(packet_size).enumerate() {
            let len = packet_size.min(file_size - offset);
            bytes.extend(generate_content(
                &packet_name(&collection, &file, seq as u64),
                len,
            ));
        }
        let start = Instant::now();
        black_box(MerkleTree::from_chunks(black_box(&bytes), packet_size));
        total += start.elapsed();
    }
    total.as_secs_f64()
}
