//! Peer and collection discovery: our own beacons, the reply that lists
//! what we offer, and what an overheard reply teaches us.

use super::DapesPeer;
use crate::discovery::{DiscoveryInfo, OfferedCollection};
use crate::namespace;
use crate::stats::kinds;
use dapes_ndn::packet::{Data, Interest};
use dapes_netsim::node::NodeCtx;
use rand::Rng;

impl DapesPeer {
    pub(super) fn send_discovery_interest(&mut self, ctx: &mut NodeCtx<'_>) {
        let interest = Interest::new(namespace::discovery_prefix())
            .with_can_be_prefix(true)
            .with_must_be_fresh(true)
            .with_nonce(ctx.rng().gen())
            .with_lifetime_ms(1_000)
            .with_app_parameters(self.id.to_be_bytes().to_vec());
        self.stats.discovery_sent += 1;
        self.express_interest(ctx, interest, kinds::DISCOVERY_INTEREST);
    }

    /// Builds and broadcasts our discovery reply (a pending one fired).
    pub(super) fn fire_discovery_reply(&mut self, ctx: &mut NodeCtx<'_>) {
        let info = DiscoveryInfo {
            peer: self.id,
            offers: self.current_offers(),
        };
        let content = self.seal_announcement(ctx.now, info.to_wire());
        let data = Data::new(namespace::discovery_reply_name(self.id), content)
            // Short freshness: discovery state changes as peers move, so
            // caches must not answer discovery probes indefinitely.
            .with_freshness_ms(1_000)
            .signed(&self.anchor.keypair(&format!("peer-{}", self.id)));
        self.emit_data(ctx, data, kinds::DISCOVERY_DATA, 0);
    }

    pub(super) fn current_offers(&self) -> Vec<OfferedCollection> {
        let mut offers: Vec<OfferedCollection> = self
            .seeding
            .values()
            .map(|s| OfferedCollection {
                collection: s.collection.name().clone(),
                metadata: s.collection.metadata_name(),
            })
            .collect();
        for d in self.downloads.values() {
            if d.metadata.is_some() {
                offers.push(OfferedCollection {
                    collection: d.collection.clone(),
                    metadata: d.metadata_name.clone(),
                });
            }
        }
        offers
    }

    pub(super) fn handle_discovery_info(&mut self, ctx: &mut NodeCtx<'_>, info: &DiscoveryInfo) {
        if info.peer == self.id {
            return;
        }
        let ms = self.forwarder.strategy_mut();
        ms.note_peer(info.peer, ctx.now);
        for offer in &info.offers {
            ms.note_neighbor_wants(info.peer, &offer.collection, ctx.now);
        }
        self.discovery.note_peer_heard(ctx.now);
        for offer in &info.offers {
            let wanted = self.wanted.wants(&offer.collection)
                && !self.downloads.contains_key(&offer.collection)
                && !self.seeding.contains_key(&offer.collection);
            if wanted {
                self.start_download(ctx, offer);
            }
        }
    }
}
