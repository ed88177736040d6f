//! Serving: the collections this peer produces, and answering overheard
//! Interests — discovery probes, bitmap rounds, catalog and content
//! segments — from what it holds.

use super::pending::{Cancel, PendingPayload};
use super::DapesPeer;
use crate::bitmap::Bitmap;
use crate::collection::{regenerate_packet, Collection};
use crate::namespace::{self, DapesName};
use crate::stats::kinds;
use dapes_ndn::name::Name;
use dapes_ndn::packet::{Data, Interest};
use dapes_netsim::node::NodeCtx;
use std::sync::Arc;

/// A collection this peer produces or fully seeds.
pub(super) struct Seed {
    pub(super) collection: Arc<Collection>,
    segments: Arc<Vec<Data>>,
}

impl DapesPeer {
    /// Registers a collection this peer produces: it seeds all packets and
    /// serves signed metadata.
    pub fn add_production(&mut self, collection: Arc<Collection>) {
        let name = collection.name().clone();
        let segments = Arc::new(collection.metadata_segments(&self.anchor));
        let total = collection.total_packets();
        self.forwarder.strategy_mut().install_holdings(
            name.clone(),
            collection.index().clone(),
            Bitmap::full(total),
        );
        self.register_collection_prefix(&name);
        self.seeding.insert(
            name,
            Seed {
                collection,
                segments,
            },
        );
    }

    pub(super) fn serve_interest(&mut self, ctx: &mut NodeCtx<'_>, interest: &Interest) {
        match namespace::classify(interest.name()) {
            Some(DapesName::Discovery { .. }) => {
                if let Some(params) = interest.app_parameters() {
                    if params.len() == 4 {
                        let peer = u32::from_be_bytes(params.try_into().expect("4 bytes"));
                        if peer != self.id {
                            self.forwarder.strategy_mut().note_peer(peer, ctx.now);
                            self.discovery.note_peer_heard(ctx.now);
                        }
                    }
                }
                if self.current_offers().is_empty() {
                    return;
                }
                // One pending reply at a time; a burst of probes from
                // several peers is answered by a single broadcast.
                if self
                    .pending
                    .values()
                    .any(|p| matches!(p.payload, PendingPayload::DiscoveryReply))
                {
                    return;
                }
                let delay = self.jitter(ctx);
                self.schedule_pending(
                    ctx,
                    PendingPayload::DiscoveryReply,
                    kinds::DISCOVERY_DATA,
                    delay,
                    Cancel::Never,
                );
            }
            Some(DapesName::Bitmap { .. }) => self.handle_bitmap_interest(ctx, interest),
            Some(DapesName::Metadata {
                collection,
                segment,
                ..
            }) => {
                let Some(seg) = segment else { return };
                if self.reply_pending_for(interest.name()) {
                    return;
                }
                let data = self.metadata_segment_for(&collection, seg as u32);
                if let Some(data) = data {
                    self.schedule_reply(ctx, &data, kinds::METADATA_DATA);
                }
            }
            Some(DapesName::Content {
                collection,
                file,
                seq,
            }) => {
                if self.reply_pending_for(interest.name()) {
                    return;
                }
                let data = self.content_packet_for(&collection, &file, seq);
                if let Some(data) = data {
                    self.stats.packets_served += 1;
                    self.schedule_reply(ctx, &data, kinds::CONTENT_DATA);
                }
            }
            None => {}
        }
    }

    /// Whether a reply for exactly this data name is already queued.
    fn reply_pending_for(&self, name: &Name) -> bool {
        self.pending
            .values()
            .any(|p| matches!(&p.cancel, Cancel::OnData(n) if n == name))
    }

    fn metadata_segment_for(&self, collection: &Name, seg: u32) -> Option<Data> {
        if let Some(seed) = self.seeding.get(collection) {
            return seed.segments.get(seg as usize).cloned();
        }
        let segments = &self.downloads.get(collection)?.metadata_segments;
        segments.get(seg as usize).cloned()
    }

    pub(super) fn content_packet_for(
        &self,
        collection: &Name,
        file: &str,
        seq: u64,
    ) -> Option<Data> {
        let ms = self.forwarder.strategy();
        let idx = ms.content_index(collection, file, seq)?;
        if let Some(seed) = self.seeding.get(collection) {
            return seed.collection.packet_data(idx, &self.anchor);
        }
        let meta = self.downloads.get(collection)?.metadata.as_ref()?;
        if !ms.held(collection)?.get(idx) {
            return None;
        }
        regenerate_packet(collection, meta, idx, &self.anchor)
    }
}
