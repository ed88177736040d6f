//! The DAPES namespace (paper §IV-A, §IV-B).
//!
//! Three kinds of names exist:
//!
//! * **Collection data**: `/<collection>/<file>/<seq>`, e.g.
//!   `/damaged-bridge-1533783192/bridge-picture/0`. The collection component
//!   carries a Unix timestamp suffix chosen by the producer.
//! * **Metadata**: `/<collection>/metadata-file/<digest8>/<segment>`, where
//!   `digest8` is a short digest of the metadata body (the paper's
//!   `metadata-file/A23D1F9B`).
//! * **Signalling** under the application prefix `/dapes`:
//!   `/dapes/discovery` for peer/collection discovery and
//!   `/dapes/bitmap/<collection>/<origin-peer>/<round>` for advertisements.

use dapes_ndn::name::{Component, Name};

/// The reserved application prefix.
pub const APP_PREFIX: &str = "/dapes";
/// [`APP_PREFIX`]'s single component, for in-place prefix tests.
const APP_COMPONENT: &str = "dapes";
/// The discovery namespace component.
pub const DISCOVERY: &str = "discovery";
/// The bitmap (advertisement) namespace component.
pub const BITMAP: &str = "bitmap";
/// The metadata file-name component.
pub const METADATA_FILE: &str = "metadata-file";

/// Returns the discovery prefix `/dapes/discovery`.
pub fn discovery_prefix() -> Name {
    Name::from_uri(APP_PREFIX).child(DISCOVERY)
}

/// Name of a peer's discovery reply: `/dapes/discovery/<peer>`.
pub fn discovery_reply_name(peer: u32) -> Name {
    discovery_prefix().child(peer as u64)
}

/// Returns the bitmap prefix `/dapes/bitmap`.
pub fn bitmap_prefix() -> Name {
    Name::from_uri(APP_PREFIX).child(BITMAP)
}

/// Name of a bitmap Interest: `/dapes/bitmap/<collection>/<origin>/<round>`.
///
/// The collection name is flattened into a single component using its URI
/// string so the bitmap namespace stays fixed-depth.
pub fn bitmap_interest_name(collection: &Name, origin_peer: u32, round: u64) -> Name {
    bitmap_prefix()
        .child(Component::from_str_component(&collection.to_string()))
        .child(origin_peer as u64)
        .child(round)
}

/// Name of a bitmap reply: the Interest name plus the replier component.
pub fn bitmap_reply_name(interest_name: &Name, replier: u32) -> Name {
    interest_name.child(replier as u64)
}

/// Whether `name` starts with `/dapes/<second>` — what
/// `Name::from_uri("/dapes").child(second).is_prefix_of(name)` answers,
/// compared in place: this runs on every classified frame, and building
/// the constant prefix costs a handful of allocations each time.
fn under_app_prefix(name: &Name, second: &str) -> bool {
    matches!(
        name.components(),
        [app, kind, ..]
            if app.as_bytes() == APP_COMPONENT.as_bytes() && kind.as_bytes() == second.as_bytes()
    )
}

/// Parses `/dapes/bitmap/<collection>/<origin>/<round>[/<replier>]`.
///
/// Returns `(collection, origin, round, Option<replier>)`.
pub fn parse_bitmap_name(name: &Name) -> Option<(Name, u32, u64, Option<u32>)> {
    if !under_app_prefix(name, BITMAP) || name.len() < 5 {
        return None;
    }
    let collection = Name::from_uri(std::str::from_utf8(name.component(2)?.as_bytes()).ok()?);
    let origin = name.component(3)?.to_seq()? as u32;
    let round = name.component(4)?.to_seq()?;
    let replier = name.component(5).and_then(|c| c.to_seq()).map(|s| s as u32);
    Some((collection, origin, round, replier))
}

/// Name of packet `seq` of `file` in `collection`.
pub fn packet_name(collection: &Name, file: &str, seq: u64) -> Name {
    collection.child(file).child(seq)
}

/// The metadata name for a collection: `/<collection>/metadata-file/<digest8>`.
pub fn metadata_name(collection: &Name, digest8: &str) -> Name {
    collection.child(METADATA_FILE).child(digest8)
}

/// Name of one metadata segment.
pub fn metadata_segment_name(metadata: &Name, segment: u64) -> Name {
    metadata.child(segment)
}

/// Classifies a name within the DAPES namespace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DapesName {
    /// A discovery Interest or reply.
    Discovery {
        /// Replier peer for reply names.
        replier: Option<u32>,
    },
    /// A bitmap Interest or reply.
    Bitmap {
        /// The collection the bitmap describes.
        collection: Name,
        /// The peer that opened the advertisement round.
        origin: u32,
        /// Monotonic round counter (keeps names fresh across rounds).
        round: u64,
        /// The replier, for reply names.
        replier: Option<u32>,
    },
    /// A metadata segment: `/<collection>/metadata-file/<digest8>/<seg>`.
    Metadata {
        /// The collection prefix.
        collection: Name,
        /// Metadata name including digest: `/<collection>/metadata-file/<d8>`.
        metadata: Name,
        /// Segment number, when present.
        segment: Option<u64>,
    },
    /// A collection content packet `/<collection>/<file>/<seq>`.
    Content {
        /// The collection prefix.
        collection: Name,
        /// File name component as text.
        file: String,
        /// Packet sequence within the file.
        seq: u64,
    },
}

/// Parses any DAPES name. Content names are recognised by shape
/// (3 components with a numeric tail) once the `/dapes` and metadata forms
/// are excluded.
pub fn classify(name: &Name) -> Option<DapesName> {
    if under_app_prefix(name, DISCOVERY) {
        let replier = name.component(2).and_then(|c| c.to_seq()).map(|s| s as u32);
        return Some(DapesName::Discovery { replier });
    }
    if let Some((collection, origin, round, replier)) = parse_bitmap_name(name) {
        return Some(DapesName::Bitmap {
            collection,
            origin,
            round,
            replier,
        });
    }
    // Metadata: /<collection>/metadata-file/<digest8>[/<seg>]
    if name.len() >= 3 {
        let c1 = name.component(1)?;
        if c1.as_bytes() == METADATA_FILE.as_bytes() {
            let collection = name.prefix(1);
            let metadata = name.prefix(3);
            let segment = name.component(3).and_then(|c| c.to_seq());
            return Some(DapesName::Metadata {
                collection,
                metadata,
                segment,
            });
        }
    }
    // Content: /<collection>/<file>/<seq>
    if name.len() == 3 {
        let seq = name.component(2)?.to_seq()?;
        let file = std::str::from_utf8(name.component(1)?.as_bytes())
            .ok()?
            .to_owned();
        return Some(DapesName::Content {
            collection: name.prefix(1),
            file,
            seq,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_place_prefix_test_agrees_with_the_built_prefixes() {
        assert_eq!(
            Name::from_uri(APP_PREFIX),
            Name::root().child(APP_COMPONENT)
        );
        for (second, prefix) in [(DISCOVERY, discovery_prefix()), (BITMAP, bitmap_prefix())] {
            for uri in [
                "/",
                "/dapes",
                "/dapes/discovery",
                "/dapes/bitmap",
                "/dapes/bitmap/c/1/2",
                "/dapes/discovery/7",
                "/dapesx/bitmap/c",
                "/x/dapes/bitmap",
                "/col/f/0",
            ] {
                let name = Name::from_uri(uri);
                assert_eq!(
                    under_app_prefix(&name, second),
                    prefix.is_prefix_of(&name),
                    "{uri} under {prefix}"
                );
            }
        }
    }

    #[test]
    fn discovery_names() {
        assert_eq!(discovery_prefix().to_string(), "/dapes/discovery");
        assert_eq!(discovery_reply_name(7).to_string(), "/dapes/discovery/7");
        assert_eq!(
            classify(&discovery_prefix()),
            Some(DapesName::Discovery { replier: None })
        );
        assert_eq!(
            classify(&discovery_reply_name(7)),
            Some(DapesName::Discovery { replier: Some(7) })
        );
    }

    #[test]
    fn bitmap_names_round_trip() {
        let col = Name::from_uri("/damaged-bridge-1533783192");
        let iname = bitmap_interest_name(&col, 3, 12);
        let (c, o, r, rep) = parse_bitmap_name(&iname).expect("parses");
        assert_eq!((c, o, r, rep), (col.clone(), 3, 12, None));
        let rname = bitmap_reply_name(&iname, 9);
        let (c2, o2, r2, rep2) = parse_bitmap_name(&rname).expect("parses");
        assert_eq!((c2, o2, r2, rep2), (col, 3, 12, Some(9)));
    }

    #[test]
    fn content_names_classify() {
        let col = Name::from_uri("/damaged-bridge-1533783192");
        let n = packet_name(&col, "bridge-picture", 0);
        assert_eq!(n.to_string(), "/damaged-bridge-1533783192/bridge-picture/0");
        match classify(&n) {
            Some(DapesName::Content {
                collection,
                file,
                seq,
            }) => {
                assert_eq!(collection, col);
                assert_eq!(file, "bridge-picture");
                assert_eq!(seq, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn metadata_names_classify() {
        let col = Name::from_uri("/damaged-bridge-1533783192");
        let meta = metadata_name(&col, "A23D1F9B");
        let seg = metadata_segment_name(&meta, 2);
        match classify(&seg) {
            Some(DapesName::Metadata {
                collection,
                metadata,
                segment,
            }) => {
                assert_eq!(collection, col);
                assert_eq!(metadata, meta);
                assert_eq!(segment, Some(2));
            }
            other => panic!("unexpected {other:?}"),
        }
        match classify(&meta) {
            Some(DapesName::Metadata { segment, .. }) => assert_eq!(segment, None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_dapes_names_rejected() {
        assert_eq!(classify(&Name::from_uri("/col/file/not-a-number")), None);
        assert_eq!(classify(&Name::from_uri("/col")), None);
        assert_eq!(classify(&Name::from_uri("/col/a/b/c/d")), None);
    }

    #[test]
    fn content_packet_names_with_nested_collection_flatten_in_bitmap() {
        // Collection names with several components survive the bitmap
        // flattening.
        let col = Name::from_uri("/area/damaged-bridge-1");
        let iname = bitmap_interest_name(&col, 1, 1);
        let (c, ..) = parse_bitmap_name(&iname).expect("parses");
        assert_eq!(c, col);
    }
}
