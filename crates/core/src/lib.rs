//! DAPES: DAta-centric Peer-to-peer filE Sharing for off-the-grid
//! scenarios — a Rust reproduction of the ICDCS 2020 paper.
//!
//! DAPES shares file collections among intermittently connected mobile
//! peers on top of Named Data Networking. This crate implements the paper's
//! full design:
//!
//! * the hierarchical [`namespace`] identifying collections, files and
//!   packets (§IV-A);
//! * signed [`metadata`] in packet-digest and Merkle-tree encodings (§IV-C);
//! * compact possession [`bitmap`]s and their exchange as data
//!   advertisements (§IV-D);
//! * [`rpf`] — local-neighborhood and encounter-based Rarest-Piece-First
//!   fetching (§IV-E);
//! * [`advert`] — advertisement transmission prioritization and the PEBA
//!   collision-mitigation backoff (§IV-F);
//! * [`multihop`] — forwarding/suppression over the NDN stateful forwarding
//!   plane, for pure forwarders and DAPES intermediate nodes (§V);
//! * [`peer`] — the complete peer state machine, runnable on the
//!   [`dapes_netsim`] simulator;
//! * [`auth`] — the signed advert/discovery envelope, monotonic stamps and
//!   the replay high-water-mark guard;
//! * [`adversary`] — attacker node types (forger, tamperer, replayer,
//!   flooder) for the adversarial scenario axis.
//!
//! # Quick start
//!
//! ```
//! use dapes_core::prelude::*;
//! use dapes_crypto::signing::TrustAnchor;
//!
//! // A producer builds a collection of two files.
//! let spec = CollectionSpec {
//!     name: dapes_ndn::name::Name::from_uri("/damaged-bridge-1533783192"),
//!     files: vec![
//!         FileSpec::new("bridge-picture", 100 * 1024),
//!         FileSpec::new("bridge-location", 2 * 1024),
//!     ],
//!     packet_size: 1024,
//!     format: MetadataFormat::MerkleRoots,
//!     producer: "resident-a".into(),
//! };
//! let collection = Collection::build(spec);
//! assert_eq!(collection.total_packets(), 102);
//!
//! // Peers verify its metadata under the shared local trust anchor.
//! let anchor = TrustAnchor::from_seed(b"rural-area");
//! let segments = collection.metadata_segments(&anchor);
//! assert!(segments.iter().all(|s| s.verify(&anchor)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod advert;
pub mod advert_payload;
pub mod auth;
pub mod bitmap;
pub mod collection;
pub mod config;
pub mod discovery;
pub mod metadata;
pub mod multihop;
pub mod namespace;
pub mod peer;
pub mod rpf;
pub mod stats;

/// Glob-import of the commonly used types.
pub mod prelude {
    pub use crate::adversary::{Adversary, AdversaryKind};
    pub use crate::advert::AdvertScheduler;
    pub use crate::auth::{MonotonicStamp, ReplayGuard, ReplayVerdict};
    pub use crate::bitmap::Bitmap;
    pub use crate::collection::{Collection, CollectionSpec, FileSpec};
    pub use crate::config::{AdvertSchedule, BitmapBudget, DapesConfig};
    pub use crate::discovery::{DiscoveryInfo, OfferedCollection};
    pub use crate::metadata::{Metadata, MetadataFormat, PacketIndex};
    pub use crate::multihop::{MultihopState, NodeRole};
    pub use crate::peer::{DapesPeer, SalvagedDownload, WantPolicy};
    pub use crate::rpf::{RpfVariant, StartPacket};
    pub use crate::stats::{kinds, PeerStats};
}

pub use prelude::*;

use dapes_netsim::time::{SimDuration, SimTime};

/// The first instant at which `now.since(at) > timeout` holds — the
/// deadline an entry stamped `at` contributes to a sweep watermark.
pub(crate) fn due_after(at: SimTime, timeout: SimDuration) -> SimTime {
    at + timeout + SimDuration::from_micros(1)
}
