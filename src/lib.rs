//! # DAPES — DAta-centric Peer-to-peer filE Sharing (ICDCS 2020 reproduction)
//!
//! This umbrella crate re-exports the whole reproduction of *DAPES: Named
//! Data for Off-the-Grid File Sharing with Peer-to-Peer Interactions*
//! (Mastorakis, Li, Zhang; ICDCS 2020):
//!
//! * [`core`] (`dapes-core`) — the DAPES protocol itself: namespace, signed
//!   metadata, bitmap advertisements, RPF variants, PEBA, multi-hop
//!   forwarding, and the peer state machine;
//! * [`ndn`] (`dapes-ndn`) — the Named Data Networking substrate (names,
//!   NDN-TLV packets, CS/PIT/FIB forwarder);
//! * [`netsim`] (`dapes-netsim`) — the deterministic wireless discrete-event
//!   simulator (mobility, CSMA MAC, collisions, loss);
//! * [`crypto`] (`dapes-crypto`) — SHA-256, HMAC, Merkle trees and the
//!   trust-anchor signing scheme;
//! * [`baselines`] (`dapes-baselines`) — the paper's IP/MANET comparison
//!   systems, Bithoc (DSDV + TCP-lite) and Ekta (DSR + DHT).
//!
//! See `README.md` for a tour and the architecture, and
//! `benchmark/README.md` for the paper-versus-measured results. The
//! `examples/` directory contains runnable scenarios
//! (`cargo run --release --example quickstart`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dapes_baselines as baselines;
pub use dapes_core as core;
pub use dapes_crypto as crypto;
pub use dapes_ndn as ndn;
pub use dapes_netsim as netsim;

/// Convenient glob-import of the most-used types across all crates.
///
/// `dapes_baselines` types are listed explicitly because both the core and
/// the baselines crates export a `kinds` frame-tag module.
pub mod prelude {
    pub use dapes_baselines::prelude::{
        BithocConfig, BithocPeer, BithocRole, Dsdv, Dsr, DsrMessage, EktaConfig, EktaPeer,
        EktaRole, IpPacket, SwarmSpec,
    };
    pub use dapes_core::prelude::*;
    pub use dapes_crypto::{signing::TrustAnchor, Digest, MerkleTree};
    pub use dapes_ndn::prelude::*;
    pub use dapes_netsim::prelude::*;
}
