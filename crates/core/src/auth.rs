//! Authenticated control plane: the signed advert/discovery envelope and
//! the replay high-water-mark table.
//!
//! The paper assumes cooperative peers, but its off-the-grid setting is
//! exactly where spoofed adverts and replayed announcements are cheapest to
//! mount. Every bitmap advertisement and discovery reply a DAPES peer
//! sends is *sealed*: the base payload gains a trailer carrying a
//! strictly monotonic per-producer timestamp and a [`Signature`] over
//! `base || timestamp` under the sender's producer key (`"peer-{id}"`,
//! derived from the shared trust anchor exactly like content signing).
//! Receivers *open* the envelope before any protocol state is touched: a
//! bad tag or a forged producer name drops the frame
//! ([`OpenError::BadSignature`]); a timestamp below the sender's recorded
//! high-water mark — or older than the replay window — drops it as a
//! replay ([`ReplayVerdict::Replayed`]), while a timestamp *equal* to the
//! mark is an honest wireless re-hearing ([`ReplayVerdict::Duplicate`])
//! processed like any benign frame.
//!
//! The trailer is strictly appended so the sealed wire form is
//! `base || timestamp(8B BE) || key_id(8B BE) || tag(32B)`; stripping
//! [`ENVELOPE_SIZE`] bytes recovers the exact base payload, which is how
//! forwarding-plane peeks read an announcement without verifying it.

use crate::due_after;
use dapes_crypto::signing::{KeyId, Signature, Signer, TrustAnchor, Verifier};
use dapes_ndn::hash::FxBuildHasher;
use dapes_netsim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Bytes the envelope appends to the base payload: an 8-byte big-endian
/// timestamp (microseconds), then [`Signature::WIRE_SIZE`] signature bytes.
pub const ENVELOPE_SIZE: usize = 8 + Signature::WIRE_SIZE;

/// Why an envelope failed to open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenError {
    /// Trailer missing/truncated, tag mismatch, or the signature's key id
    /// is not the one the claimed producer name derives to.
    BadSignature,
    /// Timestamp at or below the sender's high-water mark, or older than
    /// the replay window.
    Replay,
}

/// What the replay guard concluded about a verified announcement.
///
/// The three-way split matters for honest wireless traffic: the *same*
/// sealed frame is routinely heard more than once (rebroadcasts, relays,
/// overlapping coverage), and those re-hearings carry the exact timestamp
/// already recorded. Counting them as replays would pollute the
/// attack-accounting invariant, so they get their own verdict and are
/// processed like any benign frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayVerdict {
    /// Timestamp strictly above the recorded mark (and inside the window);
    /// the mark advanced.
    Fresh,
    /// Timestamp exactly at the recorded mark: an honest re-hearing of a
    /// frame we already accepted. Process it normally; nothing recorded.
    Duplicate,
    /// Timestamp *below* the recorded mark, or older than the replay
    /// window: a re-injected announcement. Drop and count it.
    Replayed,
}

/// Signs `base` for the peer that owns `signer`, returning
/// `base || timestamp || signature` with the signature computed over
/// `base || timestamp`.
///
/// `timestamp` must come from [`MonotonicStamp::next`] so two adverts from
/// the same peer never share a timestamp (the receiver-side high-water
/// mark would otherwise reject the second as a replay).
pub fn seal(base: &[u8], timestamp_us: u64, signer: &dyn Signer) -> Vec<u8> {
    let mut out = Vec::with_capacity(base.len() + ENVELOPE_SIZE);
    out.extend_from_slice(base);
    out.extend_from_slice(&timestamp_us.to_be_bytes());
    let sig = signer.sign(&out);
    out.extend_from_slice(&sig.to_bytes());
    debug_assert_eq!(out.len(), base.len() + ENVELOPE_SIZE);
    out
}

/// Splits a sealed payload into `(base, timestamp, signature)` without
/// verifying anything. Returns `None` when the payload is too short to
/// carry an envelope.
pub fn split(sealed: &[u8]) -> Option<(&[u8], u64, Signature)> {
    let base_len = sealed.len().checked_sub(ENVELOPE_SIZE)?;
    let ts = u64::from_be_bytes(sealed[base_len..base_len + 8].try_into().ok()?);
    let sig = Signature::from_bytes(&sealed[base_len + 8..])?;
    Some((&sealed[..base_len], ts, sig))
}

/// The base payload of a sealed frame, dropped without verification.
///
/// Used by forwarding-plane peeks (e.g. the multi-hop bitmap decision)
/// that only need the advertised bits and leave authentication to the
/// control plane that actually consumes the advert.
pub fn strip(sealed: &[u8]) -> Option<&[u8]> {
    split(sealed).map(|(base, _, _)| base)
}

/// Verifies a sealed payload against the trust anchor: the signature must
/// cover `base || timestamp` and carry `claimed` — the key id the claimed
/// producer's name derives to ([`TrustAnchor::key_id_for`]), which the
/// caller usually needs again for the replay guard. Returns the base
/// payload and timestamp.
pub fn open<'a>(
    sealed: &'a [u8],
    claimed: KeyId,
    anchor: &TrustAnchor,
) -> Result<(&'a [u8], u64), OpenError> {
    let (base, ts, sig) = split(sealed).ok_or(OpenError::BadSignature)?;
    let signed_len = base.len() + 8;
    if sig.key_id != claimed || !anchor.verify_signature(&sealed[..signed_len], &sig) {
        return Err(OpenError::BadSignature);
    }
    Ok((base, ts))
}

/// Strictly monotonic per-peer timestamp source for sealing.
#[derive(Clone, Copy, Debug, Default)]
pub struct MonotonicStamp {
    last: u64,
}

impl MonotonicStamp {
    /// The next timestamp: `max(now, last + 1)`, so repeated adverts in
    /// the same microsecond still advance the receiver-side mark.
    pub fn next(&mut self, now: SimTime) -> u64 {
        self.last = now.as_micros().max(self.last + 1);
        self.last
    }
}

/// Bounded per-producer `(key id → timestamp)` high-water-mark table.
///
/// A sealed announcement is accepted only when its timestamp is *strictly
/// above* the mark recorded for its key id and no older than the replay
/// window; acceptance advances the mark. Entries unheard for the peer TTL
/// are swept, and when the table is full the stalest entry is evicted —
/// the table is bounded regardless of how many key ids an attacker mints.
///
/// The sweep is watermarked: `next_due` is a *lower bound* on the earliest
/// instant [`ReplayGuard::sweep`] could drop a mark. Recording a mark
/// lowers it with `min`, evictions leave it, and only a full scan raises
/// it — to the exact minimum over the survivors.
#[derive(Clone, Debug)]
pub struct ReplayGuard {
    /// `key id → (high-water mark, last time we heard this producer)`.
    marks: BTreeMap<KeyId, (u64, SimTime)>,
    capacity: usize,
    window: SimDuration,
    ttl: SimDuration,
    next_due: SimTime,
}

impl ReplayGuard {
    /// Creates a guard holding at most `capacity` producer marks.
    pub fn new(capacity: usize, window: SimDuration, ttl: SimDuration) -> Self {
        ReplayGuard {
            marks: BTreeMap::new(),
            capacity: capacity.max(1),
            window,
            ttl,
            next_due: SimTime::FAR_FUTURE,
        }
    }

    /// Checks a verified announcement's `(key id, timestamp)` and records
    /// it when fresh. Never returns [`ReplayVerdict::Fresh`] for a
    /// timestamp at or below the recorded mark: equality is an honest
    /// [`ReplayVerdict::Duplicate`] re-hearing, anything below (or stale
    /// beyond the replay window) is [`ReplayVerdict::Replayed`].
    pub fn check(&mut self, key_id: KeyId, timestamp_us: u64, now: SimTime) -> ReplayVerdict {
        let age = now.as_micros().saturating_sub(timestamp_us);
        if age > self.window.as_micros() {
            return ReplayVerdict::Replayed;
        }
        if let Some(&(mark, _)) = self.marks.get(&key_id) {
            if timestamp_us == mark {
                return ReplayVerdict::Duplicate;
            }
            if timestamp_us < mark {
                return ReplayVerdict::Replayed;
            }
        }
        if !self.marks.contains_key(&key_id) && self.marks.len() >= self.capacity {
            // Evict the stalest producer (deterministic: ties break on the
            // smaller key id, the BTreeMap iteration order).
            if let Some(stalest) = self
                .marks
                .iter()
                .min_by_key(|(id, &(_, heard))| (heard, **id))
                .map(|(id, _)| *id)
            {
                self.marks.remove(&stalest);
            }
        }
        self.next_due = self.next_due.min(due_after(now, self.ttl));
        self.marks.insert(key_id, (timestamp_us, now));
        ReplayVerdict::Fresh
    }

    /// Whether [`ReplayGuard::sweep`] at `now` would scan the table —
    /// `false` while `now` is below the watermark, when it is known to
    /// drop nothing.
    pub fn sweep_due(&self, now: SimTime) -> bool {
        now >= self.next_due
    }

    /// Drops marks for producers unheard longer than the peer TTL,
    /// returning how many expired. Returns without looking at the table
    /// while nothing can be due.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        if !self.sweep_due(now) {
            return 0;
        }
        let before = self.marks.len();
        let ttl = self.ttl;
        let mut next_due = SimTime::FAR_FUTURE;
        self.marks.retain(|_, &mut (_, heard)| {
            let keep = now.since(heard) <= ttl;
            if keep {
                next_due = next_due.min(due_after(heard, ttl));
            }
            keep
        });
        self.next_due = next_due;
        before - self.marks.len()
    }

    /// Recorded high-water mark for a key id, if any.
    pub fn mark(&self, key_id: KeyId) -> Option<u64> {
        self.marks.get(&key_id).map(|&(mark, _)| mark)
    }

    /// Number of producers currently tracked.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// Whether no producer is tracked.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }
}

/// First-seen times of Interest nonces, bounded, forgotten in age order.
///
/// A nonce re-heard within the replay window is an honest wireless echo;
/// one re-injected after it is a replayed Interest — so the journal must
/// remember first sightings for a while, then let them age out.
/// `oldest_first` holds the journaled `(first seen, nonce)` pairs in
/// order: retention pops expired heads and the capacity eviction takes the
/// front — the oldest entry, ties on equal timestamps breaking on the
/// smaller nonce — so neither ever walks the whole journal, nor looks a
/// timestamp up. `first_seen` answers the per-nonce probe; nothing
/// iterates it, so its order (a hash map's) never shows.
#[derive(Clone, Debug)]
pub struct NonceJournal {
    first_seen: HashMap<u32, SimTime, FxBuildHasher>,
    oldest_first: VecDeque<(SimTime, u32)>,
    capacity: usize,
}

impl NonceJournal {
    /// Creates a journal holding at most `capacity` nonces.
    pub fn new(capacity: usize) -> Self {
        NonceJournal {
            first_seen: HashMap::default(),
            oldest_first: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// When `nonce` was first recorded, if it still is.
    pub fn first_seen(&self, nonce: u32) -> Option<SimTime> {
        self.first_seen.get(&nonce).copied()
    }

    /// Records `nonce` as first seen at `now` — unless it is already
    /// journaled, in which case nothing changes and that earlier sighting
    /// is returned. At capacity the oldest entry is evicted first
    /// (deterministic: ties break on the smaller nonce).
    pub fn record(&mut self, nonce: u32, now: SimTime) -> Option<SimTime> {
        if let Some(&earlier) = self.first_seen.get(&nonce) {
            return Some(earlier);
        }
        if self.first_seen.len() >= self.capacity {
            if let Some((_, oldest)) = self.oldest_first.pop_front() {
                self.first_seen.remove(&oldest);
            }
        }
        // The simulation clock only moves forward, so the new entry almost
        // always belongs at the back; the search handles a tie on the
        // timestamp with a larger nonce (or a caller whose clock does not).
        let entry = (now, nonce);
        let at = match self.oldest_first.back() {
            Some(&last) if last > entry => self.oldest_first.partition_point(|&e| e < entry),
            _ => self.oldest_first.len(),
        };
        self.oldest_first.insert(at, entry);
        self.first_seen.insert(nonce, now);
        None
    }

    /// Forgets nonces first seen more than `keep` before `now`, returning
    /// how many.
    pub fn forget_older_than(&mut self, now: SimTime, keep: SimDuration) -> usize {
        let mut forgotten = 0;
        while let Some(&(seen, oldest)) = self.oldest_first.front() {
            if now.since(seen) <= keep {
                break;
            }
            self.oldest_first.pop_front();
            self.first_seen.remove(&oldest);
            forgotten += 1;
        }
        forgotten
    }

    /// Number of nonces journaled.
    pub fn len(&self) -> usize {
        self.first_seen.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.first_seen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn anchor() -> TrustAnchor {
        TrustAnchor::from_seed(b"auth-tests")
    }

    fn guard() -> ReplayGuard {
        ReplayGuard::new(64, SimDuration::from_secs(2), SimDuration::from_secs(10))
    }

    #[test]
    fn seal_open_round_trip() {
        let anchor = anchor();
        let key = anchor.keypair("peer-7");
        let sealed = seal(b"advert-bits", 1_234, &key);
        assert_eq!(sealed.len(), b"advert-bits".len() + ENVELOPE_SIZE);
        let (base, ts) = open(&sealed, anchor.key_id_for("peer-7"), &anchor).expect("opens");
        assert_eq!(base, b"advert-bits");
        assert_eq!(ts, 1_234);
        assert_eq!(strip(&sealed), Some(&b"advert-bits"[..]));
    }

    #[test]
    fn forged_producer_name_rejected() {
        let anchor = anchor();
        let sealed = seal(b"x", 1, &anchor.keypair("peer-1"));
        assert_eq!(
            open(&sealed, anchor.key_id_for("peer-2"), &anchor),
            Err(OpenError::BadSignature)
        );
    }

    #[test]
    fn rogue_anchor_signature_rejected() {
        let rogue = TrustAnchor::from_seed(b"rogue");
        let sealed = seal(b"x", 1, &rogue.keypair("peer-1"));
        assert_eq!(
            open(&sealed, anchor().key_id_for("peer-1"), &anchor()),
            Err(OpenError::BadSignature)
        );
    }

    #[test]
    fn tampered_base_rejected() {
        let anchor = anchor();
        let mut sealed = seal(b"hello", 1, &anchor.keypair("peer-1"));
        sealed[0] ^= 0x01;
        assert_eq!(
            open(&sealed, anchor.key_id_for("peer-1"), &anchor),
            Err(OpenError::BadSignature)
        );
    }

    #[test]
    fn tampered_timestamp_rejected() {
        let anchor = anchor();
        let mut sealed = seal(b"hello", 1, &anchor.keypair("peer-1"));
        let ts_at = sealed.len() - ENVELOPE_SIZE;
        sealed[ts_at + 7] ^= 0x01;
        assert_eq!(
            open(&sealed, anchor.key_id_for("peer-1"), &anchor),
            Err(OpenError::BadSignature)
        );
    }

    #[test]
    fn truncated_envelope_rejected() {
        let anchor = anchor();
        let sealed = seal(b"hello", 1, &anchor.keypair("peer-1"));
        for len in [0, 1, ENVELOPE_SIZE - 1] {
            assert_eq!(
                open(&sealed[..len], anchor.key_id_for("peer-1"), &anchor),
                Err(OpenError::BadSignature),
                "len {len}"
            );
        }
        assert!(split(&sealed[..ENVELOPE_SIZE - 1]).is_none());
    }

    #[test]
    fn monotonic_stamp_never_repeats() {
        let mut s = MonotonicStamp::default();
        let a = s.next(SimTime::from_micros(100));
        let b = s.next(SimTime::from_micros(100));
        let c = s.next(SimTime::from_micros(50));
        assert_eq!(a, 100);
        assert_eq!(b, 101);
        assert_eq!(c, 102, "clock going backwards still advances");
        assert_eq!(s.next(SimTime::from_micros(1_000)), 1_000);
    }

    #[test]
    fn replay_guard_never_fresh_at_or_below_mark() {
        let mut g = guard();
        let id = KeyId(9);
        let now = SimTime::from_micros(1_000);
        assert_eq!(g.check(id, 500, now), ReplayVerdict::Fresh);
        assert_eq!(g.check(id, 500, now), ReplayVerdict::Duplicate, "equal");
        assert_eq!(g.check(id, 499, now), ReplayVerdict::Replayed, "below");
        assert_eq!(g.check(id, 501, now), ReplayVerdict::Fresh, "above");
        assert_eq!(g.mark(id), Some(501));
    }

    #[test]
    fn replay_guard_duplicate_keeps_mark_and_heard_time() {
        let mut g = guard();
        let id = KeyId(4);
        assert_eq!(
            g.check(id, 100, SimTime::from_micros(150)),
            ReplayVerdict::Fresh
        );
        assert_eq!(
            g.check(id, 100, SimTime::from_micros(900)),
            ReplayVerdict::Duplicate
        );
        assert_eq!(g.mark(id), Some(100), "duplicate records nothing");
        // The heard time was not refreshed by the duplicate, so the peer
        // still expires on the original schedule.
        assert_eq!(
            g.sweep(SimTime::from_micros(150) + SimDuration::from_secs(11)),
            1
        );
    }

    #[test]
    fn replay_guard_rejects_outside_window() {
        let mut g = guard();
        let now = SimTime::from_secs(10);
        let stale = now.as_micros() - SimDuration::from_secs(2).as_micros() - 1;
        assert_eq!(g.check(KeyId(1), stale, now), ReplayVerdict::Replayed);
        assert_eq!(
            g.check(KeyId(1), stale + 1, now),
            ReplayVerdict::Fresh,
            "window edge"
        );
    }

    #[test]
    fn replay_guard_sweeps_stale_peers() {
        let mut g = guard();
        assert_eq!(
            g.check(KeyId(1), 100, SimTime::from_micros(200)),
            ReplayVerdict::Fresh
        );
        assert_eq!(g.sweep(SimTime::from_secs(5)), 0, "within ttl");
        assert_eq!(g.sweep(SimTime::from_secs(20)), 1, "expired");
        assert!(g.is_empty());
    }

    #[test]
    fn replay_guard_sweep_waits_for_the_stalest_producer() {
        let mut g = guard(); // ttl 10 s
        assert!(!g.sweep_due(SimTime::from_secs(3600)), "nothing tracked");
        g.check(KeyId(1), 100, SimTime::from_micros(200));
        g.check(KeyId(2), 3_000_000, SimTime::from_secs(3));
        assert!(!g.sweep_due(SimTime::from_micros(10_000_200)));
        assert!(g.sweep_due(SimTime::from_micros(10_000_201)));
        // Hearing producer 1 again does not move the watermark: the next
        // sweep scans, drops nothing, and moves on to producer 2's deadline.
        g.check(KeyId(1), 9_000_000, SimTime::from_secs(9));
        assert_eq!(g.sweep(SimTime::from_micros(10_000_201)), 0);
        assert!(!g.sweep_due(SimTime::from_secs(13)));
        assert_eq!(g.sweep(SimTime::from_micros(13_000_001)), 1);
        assert_eq!(g.mark(KeyId(2)), None);
        assert_eq!(g.mark(KeyId(1)), Some(9_000_000));
    }

    #[test]
    fn nonce_journal_keeps_first_sightings_and_forgets_in_age_order() {
        let mut j = NonceJournal::new(64);
        assert_eq!(j.record(7, SimTime::from_secs(1)), None);
        assert_eq!(
            j.record(7, SimTime::from_secs(2)),
            Some(SimTime::from_secs(1))
        );
        assert_eq!(j.first_seen(7), Some(SimTime::from_secs(1)), "first wins");
        j.record(8, SimTime::from_secs(3));
        let keep = SimDuration::from_secs(2);
        assert_eq!(j.forget_older_than(SimTime::from_secs(3), keep), 0);
        assert_eq!(
            j.forget_older_than(SimTime::from_micros(3_000_001), keep),
            1
        );
        assert_eq!(j.first_seen(7), None);
        assert_eq!(j.len(), 1);
        assert_eq!(j.forget_older_than(SimTime::from_secs(60), keep), 1);
        assert!(j.is_empty());
    }

    #[test]
    fn nonce_journal_at_capacity_evicts_the_oldest_ties_on_the_smaller_nonce() {
        let mut j = NonceJournal::new(3);
        // Three sightings in one instant, recorded largest nonce first.
        let t = SimTime::from_secs(1);
        for nonce in [30, 10, 20] {
            j.record(nonce, t);
        }
        j.record(5, SimTime::from_secs(2));
        assert_eq!(j.first_seen(10), None, "oldest instant, smallest nonce");
        j.record(6, SimTime::from_secs(2));
        assert_eq!(j.first_seen(20), None);
        assert_eq!(j.first_seen(30), Some(t));
        assert_eq!(j.len(), 3);
        // A full journal still refuses to re-date what it already holds.
        j.record(30, SimTime::from_secs(9));
        assert_eq!(j.first_seen(30), Some(t));
    }

    #[test]
    fn replay_guard_bounded_evicts_stalest() {
        let mut g = ReplayGuard::new(2, SimDuration::from_secs(60), SimDuration::from_secs(60));
        assert_eq!(
            g.check(KeyId(1), 100, SimTime::from_micros(100)),
            ReplayVerdict::Fresh
        );
        assert_eq!(
            g.check(KeyId(2), 200, SimTime::from_micros(200)),
            ReplayVerdict::Fresh
        );
        assert_eq!(
            g.check(KeyId(3), 300, SimTime::from_micros(300)),
            ReplayVerdict::Fresh
        );
        assert_eq!(g.len(), 2);
        assert_eq!(g.mark(KeyId(1)), None, "stalest evicted");
        assert_eq!(g.mark(KeyId(3)), Some(300));
    }
}
