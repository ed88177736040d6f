//! One transmission's receivers share what its bytes determine — the
//! decoded packet, its signature verdict, its opened announcement — but a
//! verdict is shared only between holders of the same trust anchor. Here
//! a peer under a foreign anchor has the lowest node id, so it is the
//! first receiver of every frame and the first to work out each verdict:
//! the honest receivers after it must still reach their own.

use dapes_core::prelude::*;
use dapes_crypto::signing::TrustAnchor;
use dapes_ndn::name::Name;
use dapes_netsim::prelude::*;
use std::any::Any;
use std::sync::Arc;

const PACKET: usize = 1024;

/// A peer that also counts the content and metadata Data frames its radio
/// delivered to it.
struct Counted {
    peer: DapesPeer,
    segment_frames: u64,
}

impl NetStack for Counted {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.peer.on_start(ctx);
    }
    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &Frame) {
        if frame.kind == kinds::CONTENT_DATA || frame.kind == kinds::METADATA_DATA {
            self.segment_frames += 1;
        }
        self.peer.on_frame(ctx, frame);
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        self.peer.on_timer(ctx, token);
    }
    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, outcome: TxOutcome) {
        self.peer.on_tx_done(ctx, outcome);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn downloader(id: u32, anchor: &TrustAnchor) -> Box<Counted> {
    Box::new(Counted {
        peer: DapesPeer::new(
            id,
            DapesConfig::default(),
            anchor.clone(),
            WantPolicy::Everything,
        ),
        segment_frames: 0,
    })
}

#[test]
fn a_foreign_anchor_first_in_line_neither_poisons_nor_borrows_the_honest_verdicts() {
    let honest = TrustAnchor::from_seed(b"rural-area-anchor");
    let foreign = TrustAnchor::from_seed(b"another-town");
    assert_ne!(honest.fingerprint(), foreign.fingerprint());
    let collection = Arc::new(Collection::build(CollectionSpec {
        name: Name::from_uri("/damaged-bridge-1533783192"),
        files: vec![FileSpec::new("picture", 8 * PACKET)],
        packet_size: PACKET,
        format: MetadataFormat::MerkleRoots,
        producer: "resident-a".into(),
    }));
    let mut cfg = WorldConfig {
        seed: 5,
        ..WorldConfig::default()
    };
    cfg.phy.loss_rate = 0.0;
    let mut world = World::new(cfg);
    // Node 0, the first receiver of every frame: the foreign peer.
    let outsider = world.add_node(
        Box::new(Stationary::new(Point::new(0.0, 0.0))),
        downloader(0, &foreign),
    );
    let mut producer = DapesPeer::new(
        1,
        DapesConfig::default(),
        honest.clone(),
        WantPolicy::Nothing,
    );
    producer.add_production(collection);
    world.add_node(
        Box::new(Stationary::new(Point::new(20.0, 0.0))),
        Box::new(producer),
    );
    let residents = [
        world.add_node(
            Box::new(Stationary::new(Point::new(0.0, 20.0))),
            downloader(2, &honest),
        ),
        world.add_node(
            Box::new(Stationary::new(Point::new(20.0, 20.0))),
            downloader(3, &honest),
        ),
    ];
    let done = world.run_until_cond(SimTime::from_secs(300), |w| {
        residents.iter().all(|&n| {
            w.stack::<Counted>(n)
                .is_some_and(|c| c.peer.downloads_complete())
        })
    });
    assert!(done, "the honest downloads are incomplete after 300 s");

    for &node in &residents {
        let counted = world.stack::<Counted>(node).expect("resident");
        let stats = counted.peer.stats();
        assert_eq!(stats.data_received, 8, "{node}: every segment absorbed");
        assert_eq!(stats.verify_failures, 0, "{node}");
        assert_eq!(stats.segments_rejected_tamper, 0, "{node}");
        assert_eq!(stats.adverts_rejected_bad_sig, 0, "{node}");
        // One verdict consulted per segment frame delivered, as when each
        // receiver worked its verdicts out alone.
        assert_eq!(stats.signature_checks, counted.segment_frames, "{node}");
    }

    let counted = world.stack::<Counted>(outsider).expect("outsider");
    let stats = counted.peer.stats();
    assert!(stats.signature_checks > 0, "the outsider checked segments");
    assert_eq!(
        stats.segments_rejected_tamper, stats.signature_checks,
        "every segment the outsider checked was rejected"
    );
    assert!(stats.adverts_rejected_bad_sig > 0, "and every announcement");
    assert_eq!(stats.data_received, 0);
    assert!(!counted.peer.downloads_complete());
}
