//! The download state machine: catalog assembly, the rarest-piece-first
//! fetch queue, window refill, segment absorption and verification, the
//! retransmission sweep, and salvage/restore across a crash. What a
//! download *holds* (packet index, possession bitmap) lives in the
//! forwarder's [`MultihopState`]; a [`Download`] keeps everything else.

use super::DapesPeer;
use crate::advert::AdvertScheduler;
use crate::bitmap::Bitmap;
use crate::config::{
    DapesConfig, ADVERT_INTERVAL, ENCOUNTER_HISTORY, FETCH_WINDOW, MAX_RETX, RETX_BACKOFF_CAP,
    RETX_TIMEOUT, SLOT_LEN, TX_WINDOW,
};
use crate::discovery::OfferedCollection;
use crate::metadata::{
    Metadata, MetadataAssembler, MetadataFormat, PacketIndex, PacketVerification,
};
use crate::multihop::MultihopState;
use crate::namespace;
use crate::rpf::{fetch_order, rarity_counts, EncounterHistory, RpfVariant};
use crate::stats::kinds;
use dapes_crypto::merkle::{leaf_hash, MerkleTree};
use dapes_ndn::name::Name;
use dapes_ndn::packet::{data_content, Data, Interest};
use dapes_netsim::node::NodeCtx;
use dapes_netsim::payload::Payload;
use dapes_netsim::time::{SimDuration, SimTime};
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Phase {
    FetchingMetadata,
    Active,
    Complete,
}

pub(super) struct Download {
    pub(super) collection: Name,
    pub(super) metadata_name: Name,
    pub(super) phase: Phase,
    assembler: MetadataAssembler,
    /// Outstanding metadata segment requests: seg -> (sent, retx count).
    meta_outstanding: BTreeMap<u32, (SimTime, u32)>,
    pub(super) metadata: Option<Arc<Metadata>>,
    /// The catalog's signed segments, built once when the download
    /// activates and served to metadata Interests from then on (like a
    /// `Seed`'s, not counted in [`Download::state_bytes`]).
    pub(super) metadata_segments: Vec<Data>,
    /// The held packets, one slot per packet: the wire each arrived in, as
    /// verified — the image a Content Store keeps ([`Data::keyed_wire`]),
    /// so a segment's bytes are the producer's one buffer. A file's Merkle
    /// check hashes their contents, and a content Interest is answered
    /// with one.
    wires: Vec<Option<Payload>>,
    /// How many held packets belong to Merkle files not yet verified.
    unverified: usize,
    files_verified: Vec<bool>,
    /// Outstanding content requests: global idx -> (sent, retx count).
    outstanding: BTreeMap<usize, (SimTime, u32)>,
    /// Cached fetch order, consumed from the back.
    queue: Vec<usize>,
    pub(super) queue_dirty: bool,
    pub(super) bitmaps_this_encounter: usize,
    /// Highest advertisement round seen per origin peer: a new round opens
    /// a fresh prioritization burst (resets the transmitted-bitmap union).
    pub(super) rounds_seen: BTreeMap<u32, u64>,
    pub(super) last_advert: Option<SimTime>,
    pub(super) advert: AdvertScheduler,
    pub(super) history: EncounterHistory,
    /// Segments salvaged from a previous incarnation (crash + restart):
    /// a content Interest for any of these is a resume bug, counted in
    /// [`PeerStats::resumed_refetch`](crate::stats::PeerStats::resumed_refetch).
    resumed: Option<Bitmap>,
}

impl Download {
    /// The packets held so far: zero-length until the catalog arrives.
    pub(super) fn have<'a>(&self, ms: &'a MultihopState) -> &'a Bitmap {
        ms.held(&self.collection)
            .expect("holdings are installed with the download")
    }

    pub(super) fn state_bytes(&self, ms: &MultihopState) -> usize {
        self.have(ms).state_bytes()
            // A leaf hash for each packet an unverified Merkle file holds.
            + self.unverified * 32
            + self.metadata.as_ref().map_or(0, |m| m.state_bytes())
            + self.outstanding.len() * 24
            + self.queue.len() * 8
            + self.history.state_bytes()
    }

    /// The wire of held packet `idx`.
    pub(super) fn wire(&self, idx: usize) -> Option<&Payload> {
        self.wires.get(idx)?.as_ref()
    }

    /// The last neighbor left: the next encounter starts its bursts and fetch order afresh.
    pub(super) fn end_encounter(&mut self) {
        self.advert.reset();
        self.bitmaps_this_encounter = 0;
        self.rounds_seen.clear();
        self.queue_dirty = true;
    }

    /// Recomputes the fetch order from what is missing and what the
    /// neighborhood is known to hold.
    fn rebuild_queue(&mut self, ms: &MultihopState, cfg: &DapesConfig, id: u32) {
        if self.metadata.is_none() {
            return;
        }
        let have = self.have(ms);
        let total = have.len();
        let missing: Vec<usize> = have
            .iter_missing()
            .filter(|i| !self.outstanding.contains_key(i))
            .collect();
        // The neighbours' bitmaps for this collection, gathered once for
        // both the rarity counts and the available/speculative split.
        let nearby: Vec<&Bitmap> = ms
            .neighbors()
            .values()
            .filter_map(|info| info.bitmaps.get(&self.collection))
            .collect();
        let rarity = match cfg.rpf {
            RpfVariant::LocalNeighborhood => rarity_counts(total, nearby.iter().copied()),
            RpfVariant::EncounterBased => rarity_counts(total, self.history.bitmaps()),
        };
        let seed = (id as u64) << 32 | (total as u64 & 0xffff_ffff);
        let ordered = fetch_order(missing, &rarity, cfg.start, seed);
        // Partition: packets known to be nearby first; speculative
        // (multi-hop) requests afterwards. Reverse so `pop` takes the front.
        let (mut queue, speculative): (Vec<usize>, Vec<usize>) = ordered
            .into_iter()
            .partition(|&idx| nearby.iter().any(|bm| idx < bm.len() && bm.get(idx)));
        if ms.enabled {
            queue.extend(speculative);
        }
        queue.reverse();
        self.queue = queue;
        self.queue_dirty = false;
    }
}

/// Download state that survives a crash: what a wreck yields to the fresh
/// stack that replaces it, so a restarted downloader completes without
/// re-fetching segments it already verified.
///
/// Obtained from the dead peer with [`DapesPeer::salvage`] and handed to
/// its successor with [`DapesPeer::restore`]; the successor re-fetches the
/// catalog through the normal discovery path and folds the salvaged
/// segments in when the download re-activates.
#[derive(Clone, Debug)]
pub struct SalvagedDownload {
    /// The collection the download was for.
    pub collection: Name,
    /// Surviving segments: global packet index and the wire it was
    /// verified in.
    pub segments: Vec<(usize, Payload)>,
    /// Per-file verification flags at crash time.
    pub files_verified: Vec<bool>,
}

impl DapesPeer {
    /// Extracts the download state worth keeping across a crash: one
    /// [`SalvagedDownload`] per download whose catalog had been fetched
    /// (completed downloads included, so a finished peer does not restart
    /// from zero). Call on the wreck from a restart stack factory.
    pub fn salvage(&self) -> Vec<SalvagedDownload> {
        self.downloads
            .values()
            .filter(|d| d.phase != Phase::FetchingMetadata)
            .map(|d| SalvagedDownload {
                collection: d.collection.clone(),
                segments: (0..)
                    .zip(&d.wires)
                    .filter_map(|(i, w)| Some((i, w.clone()?)))
                    .collect(),
                files_verified: d.files_verified.clone(),
            })
            .collect()
    }

    /// Installs salvaged download state into a freshly-booted peer. The
    /// segments are folded into the matching download when its catalog is
    /// re-fetched (`PeerStats::resumed_segments_skipped` counts them);
    /// until then they sit pending. Call before the first callback runs.
    pub fn restore(&mut self, salvaged: Vec<SalvagedDownload>) {
        for s in salvaged {
            self.salvaged.insert(s.collection.clone(), s);
        }
    }

    pub(super) fn start_download(&mut self, ctx: &mut NodeCtx<'_>, offer: &OfferedCollection) {
        ctx.note_state_inserts(1);
        self.register_collection_prefix(&offer.collection);
        // Nothing is held, and no content name resolves, until the catalog is in.
        let (index, have) = (PacketIndex::new(Vec::new()), Bitmap::new(0));
        let ms = self.forwarder.strategy_mut();
        ms.install_holdings(offer.collection.clone(), index, have);
        let download = Download {
            collection: offer.collection.clone(),
            metadata_name: offer.metadata.clone(),
            phase: Phase::FetchingMetadata,
            assembler: MetadataAssembler::new(),
            meta_outstanding: BTreeMap::new(),
            metadata: None,
            metadata_segments: Vec::new(),
            wires: Vec::new(),
            unverified: 0,
            files_verified: Vec::new(),
            outstanding: BTreeMap::new(),
            queue: Vec::new(),
            queue_dirty: true,
            bitmaps_this_encounter: 0,
            rounds_seen: BTreeMap::new(),
            last_advert: None,
            advert: AdvertScheduler::new(self.cfg.peba, TX_WINDOW, SLOT_LEN),
            history: EncounterHistory::new(ENCOUNTER_HISTORY),
            resumed: None,
        };
        self.downloads.insert(offer.collection.clone(), download);
        self.request_metadata_segment(ctx, &offer.collection, 0);
    }

    fn request_metadata_segment(&mut self, ctx: &mut NodeCtx<'_>, collection: &Name, seg: u32) {
        let Some(d) = self.downloads.get_mut(collection) else {
            return;
        };
        let name = namespace::metadata_segment_name(&d.metadata_name, seg as u64);
        d.meta_outstanding.insert(seg, (ctx.now, 0));
        let interest = Interest::new(name)
            .with_nonce(ctx.rng().gen())
            .with_lifetime_ms(2_000);
        self.express_interest(ctx, interest, kinds::METADATA_INTEREST);
    }

    pub(super) fn handle_metadata_segment(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        collection: &Name,
        data: &Data,
        authentic: bool,
    ) {
        if !authentic {
            self.stats.verify_failures += 1;
            return;
        }
        let Some(seg) = data.name().last().and_then(|c| c.to_seq()) else {
            return;
        };
        let Some(d) = self.downloads.get_mut(collection) else {
            return;
        };
        if d.phase != Phase::FetchingMetadata {
            return;
        }
        if !d.metadata_name.is_prefix_of(data.name()) {
            return; // different metadata version
        }
        d.meta_outstanding.remove(&(seg as u32));
        let completed = d.assembler.feed(seg as u32, data.content());
        let Some(meta) = completed else {
            // Request more segments (windowed).
            let missing = d.assembler.missing();
            let to_request: Vec<u32> = missing
                .into_iter()
                .filter(|s| !d.meta_outstanding.contains_key(s))
                .take(FETCH_WINDOW.saturating_sub(d.meta_outstanding.len()))
                .collect();
            for seg in to_request {
                self.request_metadata_segment(ctx, collection, seg);
            }
            return;
        };
        // Validate the digest in the metadata name binds to this body.
        let expected = d
            .metadata_name
            .last()
            .map(|c| String::from_utf8_lossy(c.as_bytes()).to_string());
        if expected.as_deref() != Some(meta.digest8().as_str()) {
            self.stats.verify_failures += 1;
            return;
        }
        self.activate_download(ctx, collection, meta);
    }

    fn activate_download(&mut self, ctx: &mut NodeCtx<'_>, collection: &Name, meta: Metadata) {
        let total = meta.total_packets();
        let files = meta.files.len();
        let merkle = meta.format == MetadataFormat::MerkleRoots;
        let ms = self.forwarder.strategy_mut();
        ms.install_holdings(collection.clone(), meta.index(), Bitmap::new(total));
        let salvaged = self.salvaged.remove(collection);
        let Some(d) = self.downloads.get_mut(collection) else {
            return;
        };
        d.metadata_segments = meta.to_segments(collection, &self.anchor.keypair(&meta.producer));
        d.metadata = Some(Arc::new(meta));
        d.wires = vec![None; total];
        d.files_verified = vec![false; files];
        // Resume after restart: fold in what the previous incarnation held.
        // The catalog was re-fetched (it binds the segment names and Merkle
        // roots), but every salvaged segment — with its wire, so later file
        // verification still has all contents — is marked held and never
        // re-fetched.
        let mut resumed_complete = false;
        if let Some(s) = salvaged {
            for (pos, &v) in s.files_verified.iter().enumerate().take(files) {
                if v {
                    d.files_verified[pos] = true;
                }
            }
            let index = ms.index(collection).expect("installed above");
            let mut resumed = Bitmap::new(total);
            for (idx, wire) in s.segments {
                if idx < total && resumed.set(idx) {
                    let (file_pos, _) = index.locate(idx).expect("in range");
                    d.unverified += usize::from(merkle && !d.files_verified[file_pos]);
                    d.wires[idx] = Some(wire);
                }
            }
            self.stats.resumed_segments_skipped += resumed.count_set() as u64;
            ms.union_held(collection, &resumed);
            d.resumed = Some(resumed);
            resumed_complete = files > 0 && d.files_verified.iter().all(|&v| v);
        }
        d.phase = if resumed_complete {
            Phase::Complete
        } else {
            Phase::Active
        };
        d.queue_dirty = true;
        ctx.note_state_inserts(2);
        if resumed_complete {
            if self.downloads_complete() {
                self.stats.complete(ctx.now);
            }
        } else {
            // Open the first advertisement round immediately.
            self.open_advert_round(ctx, collection);
        }
    }

    pub(super) fn refill_fetches(&mut self, ctx: &mut NodeCtx<'_>, collection: &Name) {
        let Some(d) = self.downloads.get_mut(collection) else {
            return;
        };
        if d.phase != Phase::Active {
            return;
        }
        let ms = self.forwarder.strategy();
        let interested = ms
            .neighbors()
            .values()
            .filter(|i| i.wants.contains(collection) || i.bitmaps.contains_key(collection))
            .count();
        if interested == 0 {
            return; // nobody around: pause fetching
        }
        let required = self.cfg.schedule.required_before_fetch(interested);
        if d.bitmaps_this_encounter < required {
            return;
        }
        if d.queue_dirty {
            d.rebuild_queue(ms, &self.cfg, self.id);
        }
        loop {
            let Some(d) = self.downloads.get_mut(collection) else {
                return;
            };
            if d.outstanding.len() >= FETCH_WINDOW || d.queue.is_empty() {
                break;
            }
            let idx = d.queue.pop().expect("checked non-empty");
            let ms = self.forwarder.strategy();
            let have = d.have(ms);
            if (idx < have.len() && have.get(idx)) || d.outstanding.contains_key(&idx) {
                continue;
            }
            let Some(name) = ms
                .index(collection)
                .and_then(|ix| ix.packet_name(collection, idx))
            else {
                continue;
            };
            // A fetch for a salvaged segment means resume is broken — the
            // `have` check above must have skipped it. Counted, not fixed
            // up, so the fault benches can gate on it staying zero.
            if d.resumed
                .as_ref()
                .is_some_and(|r| idx < r.len() && r.get(idx))
            {
                self.stats.resumed_refetch += 1;
            }
            d.outstanding.insert(idx, (ctx.now, 0));
            self.stats.interests_sent += 1;
            let interest = Interest::new(name).with_nonce(ctx.rng().gen());
            self.express_interest(ctx, interest, kinds::CONTENT_INTEREST);
        }
    }

    /// Consumes an authenticated content Data packet for global packet
    /// `idx` (from [`MultihopState::content_index`]) of `collection`.
    pub(super) fn handle_content_data(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        collection: &Name,
        idx: usize,
        data: &Data,
    ) {
        let Some(d) = self.downloads.get_mut(collection) else {
            return;
        };
        if d.phase != Phase::Active {
            return;
        }
        let ms = self.forwarder.strategy_mut();
        // Most content Data is a copy of a held segment: settle that first.
        let have = d.have(ms);
        if idx >= have.len() {
            return;
        }
        if have.get(idx) {
            d.outstanding.remove(&idx);
            return;
        }
        let (Some(meta), Some(index)) = (d.metadata.clone(), ms.index(collection)) else {
            return;
        };
        let (file_pos, _) = index.locate(idx).expect("in range");
        let range = index.file_range(file_pos).expect("valid file");
        match meta.verify_packet(idx, data.content()) {
            PacketVerification::Failed => {
                self.stats.verify_failures += 1;
                d.outstanding.remove(&idx);
                d.queue_dirty = true;
                return;
            }
            PacketVerification::Verified => self.stats.packets_verified += 1,
            PacketVerification::Deferred => d.unverified += 1,
        }
        d.wires[idx] = Some(data.keyed_wire().0);
        d.outstanding.remove(&idx);
        ms.set_held(collection, idx);
        self.stats.data_received += 1;
        // File-completion check (Merkle verification happens here).
        let have = d.have(ms);
        if !d.files_verified[file_pos] && range.clone().all(|i| have.get(i)) {
            let ok = match meta.format {
                MetadataFormat::PacketDigest => true,
                MetadataFormat::MerkleRoots => {
                    d.unverified -= range.len();
                    let leaves = range
                        .clone()
                        .map(|i| {
                            let wire = d.wire(i).expect("a held packet keeps its wire");
                            leaf_hash(data_content(wire).unwrap_or_default())
                        })
                        .collect();
                    let root = meta.files[file_pos].root;
                    root.is_some_and(|r| MerkleTree::verify_leaves(&r, leaves))
                }
            };
            if ok {
                d.files_verified[file_pos] = true;
                self.stats.packets_verified += match meta.format {
                    MetadataFormat::MerkleRoots => range.len() as u64,
                    MetadataFormat::PacketDigest => 0,
                };
            } else {
                // Whole file failed: drop and refetch it.
                self.stats.verify_failures += 1;
                ms.clear_held(collection, range.clone());
                d.wires[range].fill(None);
                d.queue_dirty = true;
            }
        }
        if d.files_verified.iter().all(|&v| v) {
            d.phase = Phase::Complete;
            if self.downloads_complete() {
                self.stats.complete(ctx.now);
            }
        }
        self.refill_fetches(ctx, collection);
    }

    pub(super) fn sweep_download(&mut self, ctx: &mut NodeCtx<'_>, collection: &Name) {
        let now = ctx.now;

        // Metadata retransmissions.
        let mut meta_retx: Vec<u32> = Vec::new();
        let mut advert_due = false;
        {
            let Some(d) = self.downloads.get_mut(collection) else {
                return;
            };
            match d.phase {
                Phase::FetchingMetadata => {
                    let mut gave_up: Vec<u32> = Vec::new();
                    for (&seg, (sent, retx)) in d.meta_outstanding.iter_mut() {
                        if now.since(*sent) > backed_off_timeout(*retx) {
                            *sent = now;
                            *retx += 1;
                            if *retx <= MAX_RETX {
                                meta_retx.push(seg);
                            } else {
                                gave_up.push(seg);
                            }
                        }
                    }
                    self.stats.retx_give_ups += gave_up.len() as u64;
                    for seg in gave_up {
                        d.meta_outstanding.remove(&seg);
                    }
                    // Once every outstanding catalog segment has given up,
                    // start a fresh windowed round (fresh backoff) while a
                    // peer is in range — segment 0 when the catalog size is
                    // still unknown. A restarted or long-partitioned
                    // downloader recovers here instead of stalling forever.
                    if meta_retx.is_empty()
                        && d.meta_outstanding.is_empty()
                        && self.encounter_active
                    {
                        if d.assembler.total().is_none() {
                            meta_retx.push(0);
                        } else {
                            meta_retx.extend(d.assembler.missing().into_iter().take(FETCH_WINDOW));
                        }
                    }
                }
                Phase::Active => {
                    // Content retransmissions / requeues, each Interest on
                    // its own backed-off clock.
                    let mut requeue: Vec<usize> = Vec::new();
                    let mut resend: Vec<usize> = Vec::new();
                    for (&idx, (sent, retx)) in d.outstanding.iter_mut() {
                        if now.since(*sent) > backed_off_timeout(*retx) {
                            if *retx >= MAX_RETX {
                                requeue.push(idx);
                            } else {
                                *sent = now;
                                *retx += 1;
                                resend.push(idx);
                            }
                        }
                    }
                    self.stats.retx_give_ups += requeue.len() as u64;
                    for idx in requeue {
                        d.outstanding.remove(&idx);
                        d.queue_dirty = true;
                    }
                    let ms = self.forwarder.strategy();
                    let names: Vec<Name> = resend
                        .into_iter()
                        .filter_map(|idx| ms.index(collection)?.packet_name(collection, idx))
                        .collect();
                    self.stats.retransmissions += names.len() as u64;
                    for name in names {
                        // Retransmissions bypass the forwarder: the PIT entry
                        // (downstream APP) already exists; a fresh nonce lets
                        // neighbors treat it as new.
                        let interest = Interest::new(name).with_nonce(ctx.rng().gen());
                        self.nonce_journal.record(interest.nonce(), ctx.now);
                        let delay_us = ctx.rng().gen_range(0..TX_WINDOW.as_micros());
                        ctx.send_frame(
                            interest.wire(),
                            kinds::CONTENT_INTEREST,
                            0,
                            SimDuration::from_micros(delay_us),
                        );
                    }
                    let Some(d) = self.downloads.get_mut(collection) else {
                        return;
                    };
                    advert_due = d
                        .last_advert
                        .is_none_or(|t| now.since(t) >= ADVERT_INTERVAL);
                }
                Phase::Complete => {}
            }
        }
        for seg in meta_retx {
            self.stats.retransmissions += 1;
            self.request_metadata_segment(ctx, collection, seg);
        }
        if advert_due && self.encounter_active {
            self.open_advert_round(ctx, collection);
        }
        self.refill_fetches(ctx, collection);
    }
}

/// Bounded exponential backoff: the effective retransmission timeout after
/// `retx` attempts is `RETX_TIMEOUT << retx`, saturating, clamped to
/// `RETX_BACKOFF_CAP` — a downloader keeps probing through an outage at the
/// capped rate instead of backing off into silence.
fn backed_off_timeout(retx: u32) -> SimDuration {
    let scaled = RETX_TIMEOUT
        .as_micros()
        .saturating_mul(1u64 << retx.min(16));
    SimDuration::from_micros(scaled.min(RETX_BACKOFF_CAP.as_micros()))
}
