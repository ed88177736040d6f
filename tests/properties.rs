//! Property-based tests over the core data structures and wire formats.

// Explicit imports: the NDN forwarding `Strategy` trait in the umbrella
// prelude would shadow proptest's `Strategy`.
use dapes::prelude::{
    Bitmap, Component, ContentStore, Data, FaceId, Fib, Interest, Metadata, MetadataFormat, Name,
    StartPacket, TrustAnchor,
};
use dapes_crypto::merkle::MerkleTree;
use dapes_netsim::time::SimTime;
use proptest::prelude::*;

/// The SHA-256 kernel oracle shared with `dapes-crypto`'s own kernel tests.
#[path = "../crates/crypto/tests/oracle/mod.rs"]
mod sha_oracle;

fn arb_component() -> impl Strategy<Value = Vec<u8>> {
    // Empty components are not representable in URI form (matching NDN's
    // URI conventions), so names are built from non-empty components.
    proptest::collection::vec(any::<u8>(), 1..24)
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_component(), 0..5).prop_map(|comps| {
        Name::from_components(comps.into_iter().map(Component::from_bytes).collect())
    })
}

/// Names whose encodings reach every case of a wire comparison: empty
/// components, one-byte TLV lengths against three-byte ones (253 bytes and
/// up, where 255 and 256 differ in both length bytes), and a three-letter
/// alphabet so equal-length components often share a prefix.
fn arb_wire_name() -> impl Strategy<Value = Name> {
    let component = (0usize..7, 0u8..3, 0u8..3).prop_map(|(len, fill, last)| {
        let mut c = vec![b'a' + fill; [0, 1, 2, 252, 253, 255, 256][len]];
        if let Some(end) = c.last_mut() {
            *end = b'a' + last;
        }
        Component::from_bytes(c)
    });
    proptest::collection::vec(component, 0..4).prop_map(Name::from_components)
}

/// `rarity_counts` as it was: one `Bitmap::get` per packet per bitmap.
fn rarity_counts_oracle(total_packets: usize, bitmaps: &[Bitmap]) -> Vec<u32> {
    let mut rarity = vec![0u32; total_packets];
    for bm in bitmaps {
        for (i, r) in rarity
            .iter_mut()
            .enumerate()
            .take(bm.len().min(total_packets))
        {
            if !bm.get(i) {
                *r += 1;
            }
        }
    }
    rarity
}

/// `fetch_order` as it was: a stable `sort_by_key` on (rarity, tie-break),
/// with the SplitMix64 shuffle key it used.
fn fetch_order_oracle(
    mut order: Vec<usize>,
    rarity: &[u32],
    start: StartPacket,
    seed: u64,
) -> Vec<usize> {
    let shuffle_key = |idx: usize| {
        let mut z = seed ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let rank = |i: usize| std::cmp::Reverse(rarity.get(i).copied().unwrap_or(0));
    match start {
        StartPacket::Same => order.sort_by_key(|&i| (rank(i), i)),
        StartPacket::Random => order.sort_by_key(|&i| (rank(i), shuffle_key(i))),
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn name_uri_round_trips(name in arb_name()) {
        let uri = name.to_string();
        prop_assert_eq!(Name::from_uri(&uri), name);
    }

    /// Canonical `Name` order is byte order of the canonical wire values —
    /// what the Content Store's ordered index relies on.
    #[test]
    fn name_order_is_wire_value_byte_order(
        a in arb_wire_name(),
        b in arb_wire_name(),
        cut in 0usize..4,
    ) {
        // A prefix of `a`, and that prefix extended by `b`, make prefix pairs.
        let prefix = a.prefix(cut.min(a.len()));
        let mut extended = prefix.clone();
        for c in b.components() {
            extended.push(c.clone());
        }
        for (x, y) in [(&a, &b), (&b, &a), (&prefix, &a), (&a, &prefix), (&prefix, &extended),
                       (&extended, &a), (&a, &a)] {
            prop_assert_eq!(x.cmp(y), x.to_wire_value().cmp(&y.to_wire_value()));
        }
    }

    #[test]
    fn interest_wire_round_trips(
        name in arb_name(),
        nonce in any::<u32>(),
        lifetime in 1u64..100_000,
        cbp in any::<bool>(),
        mbf in any::<bool>(),
        params in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..64)),
    ) {
        let mut interest = Interest::new(name)
            .with_nonce(nonce)
            .with_lifetime_ms(lifetime)
            .with_can_be_prefix(cbp)
            .with_must_be_fresh(mbf);
        if let Some(p) = params {
            interest = interest.with_app_parameters(p);
        }
        prop_assert_eq!(Interest::decode(&interest.encode()).unwrap(), interest);
    }

    #[test]
    fn relay_byte_patch_equals_decode_decrement_encode(
        name in arb_name(),
        nonce in any::<u32>(),
        lifetime in 1u64..100_000,
        cbp in any::<bool>(),
        mbf in any::<bool>(),
        hops in proptest::option::of(any::<u8>()),
        params in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..64)),
    ) {
        // The decode-free relay path rewrites the single HopLimit byte on a
        // copied frame. That is only sound if the patched bytes are exactly
        // what the eager path's decode → decrement → re-encode would send,
        // for every encodable Interest.
        use dapes_ndn::packet::{Packet, PacketHeader, PeekedHopLimit};
        use dapes_netsim::payload::Payload;

        let mut interest = Interest::new(name)
            .with_nonce(nonce)
            .with_lifetime_ms(lifetime)
            .with_can_be_prefix(cbp)
            .with_must_be_fresh(mbf);
        if let Some(h) = hops {
            interest = interest.with_hop_limit(h);
        }
        if let Some(p) = params {
            interest = interest.with_app_parameters(p);
        }
        let frame = Payload::from(interest.encode());
        let PacketHeader::Interest(header) = Packet::peek_header(&frame).unwrap() else {
            panic!("interest frame peeked as data");
        };
        match header.hop_limit {
            PeekedHopLimit::Absent => {
                prop_assert_eq!(hops, None);
                // No hop limit: the relay forwards the frame unchanged, and
                // the eager path re-encodes the identical bytes.
                let mut eager = Interest::decode(frame.as_slice()).unwrap();
                prop_assert!(eager.decrement_hop_limit());
                prop_assert_eq!(eager.encode().as_slice(), frame.as_slice());
            }
            PeekedHopLimit::Patchable { value, offset } => {
                prop_assert_eq!(Some(value), hops);
                if value <= 1 {
                    // Exhausted: both paths commit state and transmit
                    // nothing.
                    let mut eager = Interest::decode(frame.as_slice()).unwrap();
                    prop_assert!(!eager.decrement_hop_limit());
                } else {
                    let mut patched = frame.as_slice().to_vec();
                    patched[offset] = value - 1;
                    let mut eager = Interest::decode(frame.as_slice()).unwrap();
                    prop_assert!(eager.decrement_hop_limit());
                    prop_assert_eq!(&eager.encode(), &patched);
                    // And the patched frame decodes back to the decremented
                    // Interest, so downstream hops agree too.
                    prop_assert_eq!(Interest::decode(&patched).unwrap(), eager);
                }
            }
            PeekedHopLimit::Opaque { .. } => {
                panic!("canonical encoder produced a non-patchable hop limit");
            }
        }
    }

    #[test]
    fn data_wire_round_trips_and_verifies(
        name in arb_name(),
        content in proptest::collection::vec(any::<u8>(), 0..512),
        freshness in 0u64..10_000,
    ) {
        let anchor = TrustAnchor::from_seed(b"prop");
        let key = anchor.keypair("p");
        let data = Data::new(name, content).with_freshness_ms(freshness).signed(&key);
        let back = Data::decode(&data.encode()).unwrap();
        prop_assert_eq!(&back, &data);
        prop_assert!(back.verify(&anchor));
    }

    #[test]
    fn corrupted_data_never_verifies(
        content in proptest::collection::vec(any::<u8>(), 1..128),
        flip in any::<usize>(),
    ) {
        let anchor = TrustAnchor::from_seed(b"prop");
        let key = anchor.keypair("p");
        let data = Data::new(Name::from_uri("/c/f/0"), content).signed(&key);
        let mut wire = data.encode();
        let idx = flip % wire.len();
        wire[idx] ^= 0x01;
        // Either the packet no longer parses, or it fails verification;
        // flipped bits in pure padding of the TLV skeleton cannot occur
        // because every byte is load-bearing in this encoding.
        if let Ok(tampered) = Data::decode(&wire) {
            if tampered != data {
                prop_assert!(!tampered.verify(&anchor));
            }
        }
    }

    #[test]
    fn bitmap_wire_round_trips(len in 0usize..2000, seed in any::<u64>()) {
        let mut bm = Bitmap::new(len);
        let mut state = seed;
        for i in 0..len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if state & 1 == 1 {
                bm.set(i);
            }
        }
        prop_assert_eq!(Bitmap::from_wire(&bm.to_wire()).unwrap(), bm);
    }

    #[test]
    fn bitmap_set_algebra(len in 1usize..512, seed in any::<u64>()) {
        let mut a = Bitmap::new(len);
        let mut b = Bitmap::new(len);
        let mut state = seed;
        for i in 0..len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            if state & 1 == 1 { a.set(i); }
            if state & 2 == 2 { b.set(i); }
        }
        // |A| = |A ∩ B| + |A \ B| decomposition.
        let a_minus_b = a.count_set_and_missing_from(&b);
        let b_minus_a = b.count_set_and_missing_from(&a);
        let mut union = a.clone();
        union.union_with(&b);
        prop_assert_eq!(union.count_set(), a.count_set() + b_minus_a);
        prop_assert_eq!(union.count_set(), b.count_set() + a_minus_b);
        prop_assert!(union.count_set() <= len);
    }

    #[test]
    fn fib_lpm_matches_naive_scan(
        prefixes in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..4), 1..12),
        query in proptest::collection::vec(0u8..4, 0..5),
    ) {
        let to_name = |parts: &[u8]| {
            Name::from_components(parts.iter().map(|p| Component::from_seq(*p as u64)).collect())
        };
        let mut fib = Fib::new();
        for (i, p) in prefixes.iter().enumerate() {
            fib.register(to_name(p), FaceId(i as u32));
        }
        let qn = to_name(&query);
        let got = fib
            .longest_prefix_match_wire(&qn.to_wire_value())
            .and_then(|faces| faces.first().copied());
        let naive = prefixes
            .iter()
            .enumerate()
            .filter(|(_, p)| to_name(p).is_prefix_of(&qn))
            .max_by_key(|(i, p)| (p.len(), std::cmp::Reverse(*i)))
            .map(|(i, _)| FaceId(i as u32));
        // With duplicate prefixes the FIB keeps both next hops; compare the
        // chosen prefix *length* instead of identity in that case.
        match (got, naive) {
            (Some(g), Some(n)) => {
                let glen = prefixes[g.0 as usize].len();
                let nlen = prefixes[n.0 as usize].len();
                prop_assert_eq!(glen, nlen);
            }
            (g, n) => prop_assert_eq!(g, n),
        }
    }

    #[test]
    fn metadata_body_round_trips(
        n_files in 1usize..6,
        packets in 1u32..20,
        size in 1u64..100_000,
    ) {
        let files: Vec<_> = (0..n_files)
            .map(|i| dapes_core::metadata::FileEntry {
                name: format!("file-{i}"),
                packet_count: packets,
                size_bytes: size,
                digests: Vec::new(),
                root: Some(dapes_crypto::sha256::sha256(&[i as u8])),
            })
            .collect();
        let meta = Metadata {
            format: MetadataFormat::MerkleRoots,
            producer: "prop".into(),
            packet_size: 1024,
            files,
        };
        prop_assert_eq!(Metadata::decode_body(&meta.encode_body()).unwrap(), meta);
    }

    /// Word-at-a-time `rarity_counts` against the bit-at-a-time loop it
    /// replaced, over bitmaps shorter than, equal to and longer than the
    /// packet count.
    #[test]
    fn rarity_counts_match_the_bitwise_loop(
        total in 0usize..200,
        maps in proptest::collection::vec((0usize..220, any::<u64>()), 0..6),
    ) {
        let bitmaps: Vec<Bitmap> = maps
            .iter()
            .map(|&(len, seed)| {
                let mut b = Bitmap::new(len);
                for i in 0..len {
                    if !(seed.rotate_left(i as u32 * 7) ^ i as u64).is_multiple_of(3) {
                        b.set(i);
                    }
                }
                b
            })
            .collect();
        prop_assert_eq!(
            dapes_core::rpf::rarity_counts(total, &bitmaps),
            rarity_counts_oracle(total, &bitmaps)
        );
    }

    /// `fetch_order`'s unstable sort of precomputed keys against the stable
    /// `sort_by_key` it replaced, for both tie-breaks, with heavy rarity
    /// ties and missing lists in any order.
    #[test]
    fn fetch_order_matches_the_stable_sort(
        total in 0usize..160,
        levels in 1u32..4,
        seed in any::<u64>(),
        same in any::<bool>(),
        drop_every in 1usize..5,
    ) {
        let rarity: Vec<u32> = (0..total)
            .map(|i| (seed.rotate_left(i as u32) % levels as u64) as u32)
            .collect();
        let start = if same { StartPacket::Same } else { StartPacket::Random };
        let missing: Vec<usize> = (0..total + 3).rev().filter(|i| i % drop_every != 1).collect();
        prop_assert_eq!(
            dapes_core::rpf::fetch_order(missing.iter().copied(), &rarity, start, seed),
            fetch_order_oracle(missing, &rarity, start, seed)
        );
    }

    /// The FIB's wire-level LPM against the `Name`-prefix walk it
    /// replaced, through registrations, unregistrations and names deeper
    /// than the wire walk's inline boundary buffer.
    #[test]
    fn fib_wire_lpm_matches_the_name_walk(
        ops in proptest::collection::vec((any::<bool>(), 0usize..20, 0u8..3, 0u32..3), 1..24),
        queries in proptest::collection::vec((0usize..20, 0u8..3), 1..8),
    ) {
        let name = |depth: usize, fill: u8| {
            Name::from_components((0..depth).map(|d| Component::from_seq((d as u64 + fill as u64) % 3)).collect())
        };
        let mut fib = Fib::new();
        let mut oracle: std::collections::BTreeMap<Name, Vec<FaceId>> = Default::default();
        for &(register, depth, fill, face) in &ops {
            let (prefix, face) = (name(depth, fill), FaceId(face));
            if register {
                fib.register(prefix.clone(), face);
                let faces = oracle.entry(prefix).or_default();
                if !faces.contains(&face) {
                    faces.push(face);
                }
            } else {
                fib.unregister(&prefix, face);
                if let Some(faces) = oracle.get_mut(&prefix) {
                    faces.retain(|&f| f != face);
                    if faces.is_empty() {
                        oracle.remove(&prefix);
                    }
                }
            }
        }
        for &(depth, fill) in &queries {
            let q = name(depth, fill);
            let walked = (0..=q.len())
                .rev()
                .find_map(|k| oracle.get(&q.prefix(k)))
                .map_or(&[][..], Vec::as_slice);
            prop_assert_eq!(fib.longest_prefix_match_wire(&q.to_wire_value()), Some(walked));
        }
    }

    #[test]
    fn rarity_order_is_permutation(
        total in 1usize..128,
        seed in any::<u64>(),
    ) {
        let rarity: Vec<u32> = (0..total).map(|i| ((seed >> (i % 48)) & 7) as u32).collect();
        let order = dapes_core::rpf::fetch_order(0..total, &rarity, StartPacket::Random, seed);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..total).collect::<Vec<_>>());
        // Rarity must be non-increasing along the order.
        for w in order.windows(2) {
            prop_assert!(rarity[w[0]] >= rarity[w[1]]);
        }
    }

    #[test]
    fn content_store_never_exceeds_capacity(
        capacity in 1usize..16,
        inserts in proptest::collection::vec(0u64..64, 0..64),
    ) {
        let mut cs = ContentStore::new(capacity);
        for (i, key) in inserts.iter().enumerate() {
            cs.insert(
                Data::new(Name::from_uri(&format!("/k/{key}")), vec![0; 8]),
                SimTime::from_secs(i as u64),
            );
            prop_assert!(cs.len() <= capacity);
        }
    }

    // --- signed control plane (crates/core/src/auth.rs, crypto signing) ---

    #[test]
    fn signature_bytes_round_trip_and_garbage_never_panics(
        producer in 0u8..8,
        message in proptest::collection::vec(any::<u8>(), 0..128),
        garbage in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        use dapes_crypto::signing::{Signature, Signer};
        let anchor = TrustAnchor::from_seed(b"prop-auth");
        let sig = anchor.keypair(&format!("peer-{producer}")).sign(&message);
        let bytes = sig.to_bytes();
        prop_assert_eq!(bytes.len(), Signature::WIRE_SIZE);
        prop_assert_eq!(Signature::from_bytes(&bytes), Some(sig));
        // Arbitrary bytes must parse-or-reject without panicking, and only
        // exactly-sized inputs may parse at all.
        let parsed = Signature::from_bytes(&garbage);
        if garbage.len() != Signature::WIRE_SIZE {
            prop_assert_eq!(parsed, None);
        }
    }

    #[test]
    fn hmac_over_parts_equals_the_one_shot_at_any_split_points(
        key in proptest::collection::vec(any::<u8>(), 0..100),
        message in proptest::collection::vec(any::<u8>(), 0..400),
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        use dapes_crypto::hmac::{hmac_sha256, HmacKey};
        use dapes_crypto::signing::{Signer, Verifier};
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (message.len() + 1)).collect();
        cuts.sort_unstable();
        let bounds: Vec<usize> = [0].into_iter().chain(cuts).chain([message.len()]).collect();
        let parts: Vec<&[u8]> = bounds.windows(2).map(|w| &message[w[0]..w[1]]).collect();

        let mut mac = HmacKey::new(&key).begin();
        parts.iter().for_each(|p| mac.update(p));
        prop_assert_eq!(mac.finalize(), hmac_sha256(&key, &message));

        // The same holds one layer up, where packets stream their signed
        // portion through the Signer/Verifier parts API.
        let anchor = TrustAnchor::from_seed(b"prop-auth");
        let producer = anchor.keypair("peer-0");
        let sig = producer.sign_parts(&mut |sink| parts.iter().for_each(|p| sink(p)));
        prop_assert_eq!(&sig, &producer.sign(&message));
        prop_assert!(anchor.verify_parts(&mut |sink| parts.iter().for_each(|p| sink(p)), &sig));
    }

    #[test]
    fn both_sha256_kernels_agree_with_the_streaming_hasher_at_any_split_points(
        key in proptest::collection::vec(any::<u8>(), 0..100),
        message in proptest::collection::vec(any::<u8>(), 0..4097),
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        // Nothing selects a kernel at run time, so each is called directly
        // and the hash and the MAC are built on it from their definitions;
        // the streaming hasher, fed the message in arbitrary parts, must
        // land on the same bytes.
        use dapes_crypto::hmac::HmacKey;
        use dapes_crypto::sha256::Sha256;
        use sha_oracle::{digest_via, hmac_via, kernels};

        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (message.len() + 1)).collect();
        cuts.sort_unstable();
        let bounds: Vec<usize> = [0].into_iter().chain(cuts).chain([message.len()]).collect();
        let mut hasher = Sha256::new();
        let mut mac = HmacKey::new(&key).begin();
        for w in bounds.windows(2) {
            hasher.update(&message[w[0]..w[1]]);
            mac.update(&message[w[0]..w[1]]);
        }
        let (digest, tag) = (hasher.finalize(), mac.finalize());

        for (name, k) in kernels() {
            prop_assert_eq!(digest, digest_via(k, &message), "{}", name);
            prop_assert_eq!(tag, hmac_via(k, &key, &message), "{}", name);
        }
    }

    #[test]
    fn sealed_envelope_round_trips_and_rejects_any_tamper(
        base in proptest::collection::vec(any::<u8>(), 4..96),
        ts in any::<u64>(),
        flip in any::<usize>(),
    ) {
        use dapes_core::auth;
        let anchor = TrustAnchor::from_seed(b"prop-auth");
        let key = anchor.keypair("peer-0");
        let sealed = auth::seal(&base, ts, &key);
        prop_assert_eq!(auth::strip(&sealed), Some(&base[..]));
        let (opened, got_ts, _) = auth::split(&sealed).unwrap();
        prop_assert_eq!(opened, &base[..]);
        prop_assert_eq!(got_ts, ts);
        prop_assert!(auth::open(&sealed, anchor.key_id_for("peer-0"), &anchor).is_ok());
        // Any single-bit corruption anywhere in the envelope must fail to
        // open (or fail to parse) — base, timestamp and tag are all bound.
        let mut bad = sealed.clone();
        let idx = flip % bad.len();
        bad[idx] ^= 1;
        prop_assert!(auth::open(&bad, anchor.key_id_for("peer-0"), &anchor).is_err());
    }

    #[test]
    fn replay_guard_never_accepts_at_or_below_the_mark(
        stamps in proptest::collection::vec((0u8..4, 0u64..5_000_000), 1..200),
    ) {
        use dapes_core::auth::{ReplayGuard, ReplayVerdict};
        use dapes_crypto::signing::KeyId;
        use dapes_netsim::time::SimDuration;
        use std::collections::HashMap;

        // Random interleavings of four producers' timestamps against one
        // guard. The invariant under test: once a producer's high-water
        // mark is set, no timestamp at or below it is ever Fresh again,
        // and every Fresh verdict strictly raises the mark.
        let mut guard = ReplayGuard::new(
            16,
            SimDuration::from_secs(3600), // window wide open: isolate the mark logic
            SimDuration::from_secs(7200),
        );
        let now = SimTime::from_secs(1);
        let mut marks: HashMap<u8, u64> = HashMap::new();
        for (who, ts) in stamps {
            let verdict = guard.check(KeyId(who as u64), ts, now);
            match marks.get(&who) {
                Some(&mark) if ts < mark => prop_assert_eq!(verdict, ReplayVerdict::Replayed),
                Some(&mark) if ts == mark => prop_assert_eq!(verdict, ReplayVerdict::Duplicate),
                _ => {
                    prop_assert_eq!(verdict, ReplayVerdict::Fresh);
                    marks.insert(who, ts);
                }
            }
            prop_assert_eq!(guard.mark(KeyId(who as u64)), marks.get(&who).copied());
        }
    }

    #[test]
    fn monotonic_stamp_is_strictly_increasing(
        ticks in proptest::collection::vec(0u64..10_000, 1..100),
    ) {
        use dapes_core::auth::MonotonicStamp;
        // Even with a frozen (or repeating) clock the stamp must advance.
        let mut stamp = MonotonicStamp::default();
        let mut clock = 0u64;
        let mut last = None;
        for delta in ticks {
            clock += delta; // delta may be zero: clock can stall
            let ts = stamp.next(SimTime::from_micros(clock));
            if let Some(prev) = last {
                prop_assert!(ts > prev, "stamp {ts} did not advance past {prev}");
            }
            last = Some(ts);
        }
    }

    // --- raw TLV layer (crates/ndn/src/tlv.rs) ---

    #[test]
    fn tlv_varnum_round_trips(n in any::<u64>()) {
        use dapes_ndn::tlv::{write_varnum, TlvReader};
        let mut wire = Vec::new();
        write_varnum(&mut wire, n);
        let mut reader = TlvReader::new(&wire);
        prop_assert_eq!(reader.read_varnum().unwrap(), n);
        prop_assert!(reader.is_at_end());
    }

    #[test]
    fn tlv_write_read_round_trips(
        entries in proptest::collection::vec(
            (1u64..1_000_000, proptest::collection::vec(any::<u8>(), 0..32)),
            0..8,
        ),
    ) {
        use dapes_ndn::tlv::{write_tlv, TlvReader};
        let mut wire = Vec::new();
        for (typ, value) in &entries {
            write_tlv(&mut wire, *typ, value);
        }
        let mut reader = TlvReader::new(&wire);
        for (typ, value) in &entries {
            let (t, v) = reader.read_tlv().unwrap();
            prop_assert_eq!(t, *typ);
            prop_assert_eq!(v, value.as_slice());
        }
        prop_assert!(reader.is_at_end());
    }

    #[test]
    fn tlv_truncation_never_panics(
        typ in 1u64..100_000,
        value in proptest::collection::vec(any::<u8>(), 0..64),
        cut in any::<usize>(),
    ) {
        use dapes_ndn::tlv::{write_tlv, TlvReader};
        let mut wire = Vec::new();
        write_tlv(&mut wire, typ, &value);
        let cut = cut % wire.len().max(1);
        // Any prefix must decode to an error, not a crash or a phantom TLV.
        let mut reader = TlvReader::new(&wire[..cut]);
        prop_assert!(reader.read_tlv().is_err());
    }

    // --- bitmap set/merge/count invariants (crates/core/src/bitmap.rs) ---

    #[test]
    fn bitmap_iterators_partition_the_domain(len in 0usize..600, seed in any::<u64>()) {
        let mut bm = Bitmap::new(len);
        let mut state = seed;
        for i in 0..len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
            if state & 1 == 1 { bm.set(i); }
        }
        let set: Vec<usize> = bm.iter_set().collect();
        let missing: Vec<usize> = bm.iter_missing().collect();
        prop_assert_eq!(set.len(), bm.count_set());
        prop_assert_eq!(missing.len(), bm.count_missing());
        let mut all: Vec<usize> = set.iter().chain(missing.iter()).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..len).collect::<Vec<_>>());
        for &i in &set { prop_assert!(bm.get(i)); }
        for &i in &missing { prop_assert!(!bm.get(i)); }
    }

    #[test]
    fn bitmap_union_is_commutative_idempotent_and_monotone(
        len in 1usize..400,
        seed in any::<u64>(),
    ) {
        let mut a = Bitmap::new(len);
        let mut b = Bitmap::new(len);
        let mut state = seed;
        for i in 0..len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
            if state & 1 == 1 { a.set(i); }
            if state & 2 == 2 { b.set(i); }
        }
        let mut ab = a.clone();
        ab.union_with(&b);
        let mut ba = b.clone();
        ba.union_with(&a);
        prop_assert_eq!(&ab, &ba);
        // Idempotent: folding either operand in again changes nothing.
        let mut abb = ab.clone();
        abb.union_with(&b);
        prop_assert_eq!(&abb, &ab);
        // Monotone: the union dominates both operands everywhere.
        prop_assert!(ab.count_set() >= a.count_set());
        prop_assert!(ab.count_set() >= b.count_set());
        for i in a.iter_set() { prop_assert!(ab.get(i)); }
        for i in b.iter_set() { prop_assert!(ab.get(i)); }
        // Marginal coverage of either operand against the union is zero.
        prop_assert_eq!(a.count_set_and_missing_from(&ab), 0);
        prop_assert_eq!(b.count_set_and_missing_from(&ab), 0);
    }

    #[test]
    fn bitmap_set_then_clear_restores_counts(len in 1usize..256, probe in any::<usize>()) {
        let mut bm = Bitmap::new(len);
        let i = probe % len;
        prop_assert!(!bm.get(i));
        prop_assert!(bm.set(i), "first set reports a change");
        prop_assert!(!bm.set(i), "second set reports no change");
        prop_assert_eq!(bm.count_set(), 1);
        bm.clear(i);
        prop_assert!(!bm.get(i));
        prop_assert_eq!(bm.count_set(), 0);
        prop_assert_eq!(bm.count_missing(), len);
    }

    // --- Merkle roots (crates/crypto/src/merkle.rs) ---

    #[test]
    fn merkle_verify_leaves_matches_root(leaf_count in 1usize..64) {
        let leaves: Vec<Vec<u8>> =
            (0..leaf_count).map(|i| format!("leaf-{i}").into_bytes()).collect();
        let tree = MerkleTree::from_leaves(leaves.iter().map(|v| v.as_slice()));
        let hashes: Vec<_> =
            leaves.iter().map(|l| dapes_crypto::merkle::leaf_hash(l)).collect();
        prop_assert!(MerkleTree::verify_leaves(&tree.root(), hashes.clone()));
        // Reordering two leaves must break verification.
        if leaf_count >= 2 {
            let mut swapped = hashes;
            swapped.swap(0, leaf_count - 1);
            prop_assert!(!MerkleTree::verify_leaves(&tree.root(), swapped));
        }
    }
}

mod cs_properties {
    //! Content Store properties: the FIFO store must keep exact byte
    //! accounting and audit-clean indexes under arbitrary churn, behave
    //! exactly like a `Name`-keyed FIFO model, and serve everything that
    //! fits.

    use dapes_ndn::cs::{ContentStore, CsBudget, CsStats, ENTRY_OVERHEAD};
    use dapes_ndn::name::Name;
    use dapes_ndn::packet::Data;
    use dapes_netsim::payload::Payload;
    use dapes_netsim::time::{SimDuration, SimTime};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, VecDeque};

    /// What `budget` charges one packet, from the formula's definition.
    fn charge(budget: CsBudget, d: &Data) -> usize {
        match budget {
            CsBudget::Count(_) => d.content().len() + d.name().state_bytes() + 64,
            CsBudget::Bytes(_) => d.wire_size() + ENTRY_OVERHEAD,
        }
    }

    /// A budget from a proptest draw: counts 0..6 or bytes {0} ∪ 200..2000,
    /// so zero budgets and packets larger than the whole budget both occur.
    fn budget_of(bytes: bool, n: usize) -> CsBudget {
        match (bytes, n % 8) {
            (false, _) => CsBudget::Count(n % 6),
            (true, 0) => CsBudget::Bytes(0),
            (true, _) => CsBudget::Bytes(200 + n % 1800),
        }
    }

    /// The store as it was specified before the wire indexes: entries in a
    /// `Name`-ordered map, eviction from a queue of names in arrival order.
    struct FifoModel {
        budget: CsBudget,
        entries: BTreeMap<Name, (Data, SimTime)>,
        fifo: VecDeque<Name>,
        stats: CsStats,
    }

    impl FifoModel {
        fn new(budget: CsBudget) -> Self {
            FifoModel {
                budget,
                entries: BTreeMap::new(),
                fifo: VecDeque::new(),
                stats: CsStats::default(),
            }
        }

        fn bytes(&self) -> usize {
            self.entries
                .values()
                .map(|(d, _)| charge(self.budget, d))
                .sum()
        }

        fn over_budget(&self) -> bool {
            match self.budget {
                CsBudget::Count(n) => self.entries.len() > n,
                CsBudget::Bytes(b) => self.bytes() > b,
            }
        }

        fn insert(&mut self, data: Data, now: SimTime) {
            if self.budget.is_zero() {
                return;
            }
            if let CsBudget::Bytes(b) = self.budget {
                if charge(self.budget, &data) > b {
                    self.stats.rejected_oversize += 1;
                    return;
                }
            }
            let name = data.name().clone();
            if self.entries.insert(name.clone(), (data, now)).is_some() {
                self.stats.refreshes += 1;
            } else {
                self.stats.insertions += 1;
                self.fifo.push_back(name);
            }
            while self.over_budget() {
                let victim = self.fifo.pop_front().expect("over budget");
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }

        fn lookup(&self, name: &Name, cbp: bool, mbf: bool, now: SimTime) -> Option<&Data> {
            let fresh = |(d, at): &(Data, SimTime)| {
                !mbf || (d.freshness_ms() > 0
                    && now.since(*at) <= SimDuration::from_millis(d.freshness_ms()))
            };
            if cbp {
                self.entries
                    .range(name.clone()..)
                    .take_while(|(n, _)| name.is_prefix_of(n))
                    .find(|(_, e)| fresh(e))
                    .map(|(_, (d, _))| d)
            } else {
                self.entries.get(name).filter(|e| fresh(e)).map(|(d, _)| d)
            }
        }
    }

    /// Hierarchical names with siblings that share byte prefixes but not
    /// name prefixes (`/p` vs `/pe`), and components of different lengths,
    /// so canonical order and prefix matching both get exercised.
    fn name_pool() -> Vec<Name> {
        let mut pool = vec![Name::from_uri("/p"), Name::from_uri("/pe/x")];
        for a in ["a", "bb", "c"] {
            pool.push(Name::from_uri(&format!("/p/{a}")));
            for b in ["0", "1", "10", "zz"] {
                pool.push(Name::from_uri(&format!("/p/{a}/{b}")));
            }
        }
        pool
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fifo_store_keeps_exact_accounting_under_churn(
            ops in proptest::collection::vec((0u8..6, 0u64..24, 0usize..96), 1..64),
            bytes in any::<bool>(),
            n in 0usize..4096,
        ) {
            // Random inserts and lookups under a count or a byte budget.
            // After every op the audit must hold, and the tracked bytes
            // must equal the budget's own formula summed over what is
            // resident — not merely the sizes the store recorded.
            let budget = budget_of(bytes, n);
            let mut cs = ContentStore::with_budget(budget);
            let mut resident: BTreeMap<Name, Data> = BTreeMap::new();
            let t = SimTime::from_secs(1);
            for &(op, key, size) in &ops {
                let name = Name::from_uri(&format!("/p/{key}"));
                match op {
                    0..=3 => {
                        let d = Data::new(name.clone(), vec![0xAB; size]);
                        cs.insert(d.clone(), t);
                        if cs.lookup_exact(&name).as_ref() == Some(&d) {
                            resident.insert(name, d);
                        }
                    }
                    4 => {
                        if let Some(d) = cs.lookup(&name, false, false, t) {
                            prop_assert_eq!(d.name(), &name);
                        }
                    }
                    _ => {
                        if let Some(d) = cs.lookup(&name.prefix(1), true, false, t) {
                            prop_assert!(name.prefix(1).is_prefix_of(d.name()));
                        }
                    }
                }
                resident.retain(|n, _| cs.lookup_exact(n).is_some());
                prop_assert_eq!(cs.audit(), Ok(()));
                let want: usize = resident.values().map(|d| charge(budget, d)).sum();
                prop_assert_eq!(cs.resident_bytes(), want, "{:?}", budget);
            }
        }

        #[test]
        fn content_store_matches_a_name_keyed_fifo_model(
            ops in proptest::collection::vec(
                (0u8..7, 0usize..32, 0usize..320, 0u64..3_000),
                1..64,
            ),
            bytes in any::<bool>(),
            n in 0usize..4096,
        ) {
            // Insert / refresh / exact / CanBePrefix / MustBeFresh lookups
            // and clock advances, against a model keyed by `Name`. Identical
            // answers here mean the wire-keyed ordered index returns the
            // same first CanBePrefix match as canonical `Name` order, and a
            // hit's wire is byte for byte the wire of the packet the model
            // holds — also after a refresh replaced one buffer by another.
            let budget = budget_of(bytes, n);
            let pool = name_pool();
            let mut cs = ContentStore::with_budget(budget);
            let mut model = FifoModel::new(budget);
            let mut now = SimTime::from_secs(1);
            for &(op, which, size, ms) in &ops {
                let name = &pool[which % pool.len()];
                let mbf = size % 2 == 1;
                match op {
                    0..=2 => {
                        // A third of the inserts are immutable (never fresh).
                        let fresh_ms = if op == 0 { 0 } else { 1 + ms };
                        let d = Data::new(name.clone(), vec![op; size]).with_freshness_ms(fresh_ms);
                        // Half the inserts arrive as received frames, each
                        // its own buffer, which the store keeps as is.
                        let d = if ms % 2 == 0 {
                            Data::decode_payload(&Payload::from(d.encode())).unwrap()
                        } else {
                            d
                        };
                        cs.insert(d.clone(), now);
                        model.insert(d, now);
                    }
                    3 | 4 => {
                        let cbp = op == 4;
                        let (got, want) = (cs.lookup(name, cbp, mbf, now), model.lookup(name, cbp, mbf, now));
                        prop_assert_eq!(
                            got.as_ref(),
                            want,
                            "lookup {} cbp={} mbf={}", name, cbp, mbf
                        );
                        prop_assert_eq!(got.map(|d| d.wire()), want.map(Data::wire));
                    }
                    5 => {
                        let prefix = name.prefix(size % (name.len() + 1));
                        let (got, want) = (cs.lookup(&prefix, true, mbf, now), model.lookup(&prefix, true, mbf, now));
                        prop_assert_eq!(
                            got.as_ref(),
                            want,
                            "prefix lookup {} mbf={}", prefix, mbf
                        );
                        prop_assert_eq!(got.map(|d| d.wire()), want.map(Data::wire));
                    }
                    _ => now += SimDuration::from_millis(ms),
                }
                prop_assert_eq!(cs.stats(), model.stats);
                prop_assert_eq!(cs.len(), model.entries.len());
                prop_assert_eq!(cs.resident_bytes(), model.bytes());
                for probe in &pool {
                    let (got, want) = (cs.lookup_exact(probe), model.lookup(probe, false, false, now));
                    prop_assert_eq!(got.as_ref(), want);
                    prop_assert_eq!(got.map(|d| d.wire()), want.map(Data::wire));
                }
                prop_assert_eq!(cs.audit(), Ok(()));
            }
        }

        #[test]
        fn fifo_store_serves_everything_that_fits(
            keys in proptest::collection::vec(0u64..64, 1..32),
        ) {
            // With a budget the whole working set fits under, eviction must
            // be unobservable: every inserted name hits.
            let mut cs = ContentStore::with_budget(CsBudget::Bytes(1 << 20));
            let t = SimTime::from_secs(1);
            for &key in &keys {
                cs.insert(
                    Data::new(Name::from_uri(&format!("/p/{key}")), vec![1; 16]),
                    t,
                );
            }
            for &key in &keys {
                let name = Name::from_uri(&format!("/p/{key}"));
                let d = cs.lookup(&name, false, false, t);
                prop_assert!(d.is_some(), "lost /p/{}", key);
                prop_assert_eq!(d.unwrap().name(), &name);
            }
            let s = cs.stats();
            prop_assert_eq!(s.evictions, 0);
            prop_assert_eq!(s.insertions + s.refreshes, keys.len() as u64);
            prop_assert_eq!(cs.audit(), Ok(()));
        }
    }
}

mod sched_properties {
    //! Scheduler properties: the timer wheel must pop the exact
    //! `(time, seq)` sequence a min-heap pops, the world must fire the same
    //! timers in the same order as a min-heap model of it under random
    //! arm/cancel interleavings and count every armed timer, cancelled or
    //! not, as one dispatch once it is due, a transmission's delivery
    //! fan-out must land at one instant, and the name-first header peek must
    //! agree with the full decode.

    use dapes_netsim::payload::Payload;
    use dapes_netsim::prelude::*;
    use dapes_netsim::wheel::{TimerWheel, WheelEntry};
    use proptest::prelude::*;
    use std::any::Any;
    use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn wheel_pops_identical_time_seq_sequence_to_heap(
            ops in proptest::collection::vec(
                (any::<bool>(), 0u64..(1u64 << 38)), 1..300),
        ) {
            let mut wheel = TimerWheel::new();
            let mut heap: BinaryHeap<std::cmp::Reverse<WheelEntry<u64>>> =
                BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for (push, delta) in ops {
                if push || heap.is_empty() {
                    seq += 1;
                    let t = now + delta;
                    wheel.push(t, seq, seq);
                    heap.push(std::cmp::Reverse(WheelEntry { time: t, seq, item: seq }));
                } else {
                    let expect = heap.pop().unwrap().0;
                    let got = wheel.pop().unwrap();
                    prop_assert_eq!((got.time, got.seq), (expect.time, expect.seq));
                    now = expect.time;
                }
            }
            while let Some(std::cmp::Reverse(expect)) = heap.pop() {
                let got = wheel.pop().unwrap();
                prop_assert_eq!((got.time, got.seq), (expect.time, expect.seq));
            }
            prop_assert!(wheel.pop().is_none());
        }

        #[test]
        fn queue_modes_fire_identical_timer_sequences_under_cancel_churn(
            script in proptest::collection::vec(
                (0u8..4, 1u64..5_000), 4..120),
        ) {
            // A stack that replays `script` — each fired step arms, arms-
            // then-cancels, cancels an older timer, or idles — and records
            // every fire. The world (timer wheel + generation-tagged slab)
            // must record the sequence a plain min-heap of `(time, seq)`
            // with a cancelled-id set predicts.
            #[derive(Debug)]
            struct Scripted {
                script: Vec<(u8, u64)>,
                step: usize,
                armed: Vec<TimerHandle>,
                fired: Vec<(u64, u64)>,
            }
            impl NetStack for Scripted {
                fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                    ctx.set_timer(SimDuration::from_micros(1), 0);
                }
                fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: &Frame) {}
                fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
                    self.fired.push((ctx.now.as_micros(), token));
                    let Some(&(op, delay)) = self.script.get(self.step) else {
                        return;
                    };
                    self.step += 1;
                    let d = SimDuration::from_micros(delay);
                    match op {
                        0 => self.armed.push(ctx.set_timer(d, self.step as u64)),
                        1 => {
                            let h = ctx.set_timer(d, self.step as u64);
                            ctx.cancel_timer(h);
                        }
                        2 => {
                            if let Some(h) = self.armed.pop() {
                                ctx.cancel_timer(h);
                            }
                        }
                        _ => {}
                    }
                    // Keep the chain alive so every scripted op runs.
                    ctx.set_timer(SimDuration::from_micros(7), 0);
                }
                fn as_any(&self) -> &dyn Any { self }
                fn as_any_mut(&mut self) -> &mut dyn Any { self }
            }
            let mut w = World::new(WorldConfig::default());
            let a = w.add_node(
                Box::new(Stationary::new(Point::new(0.0, 0.0))),
                Box::new(Scripted {
                    script: script.clone(),
                    step: 0,
                    armed: Vec::new(),
                    fired: Vec::new(),
                }),
            );
            w.run_until(SimTime::from_secs(600));

            // The reference: timers are the only events here, so ids handed
            // out in arming order are the world's `(time, seq)` tie-break.
            let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u64, u64)>> = BinaryHeap::new();
            let mut next_id = 0u64;
            let mut arm = |heap: &mut BinaryHeap<_>, at: u64, token: u64| {
                next_id += 1;
                heap.push(std::cmp::Reverse((at, next_id, token)));
                next_id
            };
            let (mut cancelled, mut armed) = (BTreeSet::new(), Vec::new());
            let (mut expected, mut step) = (Vec::new(), 0usize);
            arm(&mut heap, 1, 0);
            while let Some(std::cmp::Reverse((now, id, token))) = heap.pop() {
                if cancelled.remove(&id) {
                    continue;
                }
                expected.push((now, token));
                let Some(&(op, delay)) = script.get(step) else {
                    continue;
                };
                step += 1;
                match op {
                    0 => armed.push(arm(&mut heap, now + delay, step as u64)),
                    1 => {
                        cancelled.insert(arm(&mut heap, now + delay, step as u64));
                    }
                    2 => {
                        if let Some(id) = armed.pop() {
                            cancelled.insert(id);
                        }
                    }
                    _ => {}
                }
                arm(&mut heap, now + 7, 0);
            }
            prop_assert_eq!(&w.stack::<Scripted>(a).unwrap().fired, &expected);
            prop_assert!(!expected.is_empty());
            // No-leak property: once every event has popped, no slot stays
            // claimed.
            prop_assert_eq!(w.live_timers(), 0);
        }

        #[test]
        fn event_dispatches_count_every_armed_timer_once_due_at_every_stop(
            script in proptest::collection::vec(
                (0u8..4, 1u64..2_000_000, 1u8..48), 8..80),
            stops in proptest::collection::vec(
                (any::<bool>(), 1u64..400_000, 1u64..200), 1..24),
        ) {
            // A frame-free stack whose only events are its timers. Each
            // tick of its chain runs one scripted step on a burst of
            // timers: arm them, arm and cancel each, arm and cancel each
            // twice, or cancel handles from its whole history (live,
            // already cancelled or already fired). Cancelled timers leave the queue in purges,
            // yet every armed timer must count as one dispatch once its due
            // time is at or before where the run stands — at every
            // `run_until` deadline, at every `run_until_cond` stop and in
            // every `pred` call.
            #[derive(Debug)]
            struct Churn {
                script: Vec<(u8, u64, u8)>,
                step: usize,
                history: Vec<TimerHandle>,
                /// Due time (µs) of every timer ever armed.
                due: Vec<u64>,
                fired: u64,
            }
            impl Churn {
                fn arm(&mut self, ctx: &mut NodeCtx<'_>, delay_us: u64, token: u64) -> TimerHandle {
                    let h = ctx.set_timer(SimDuration::from_micros(delay_us), token);
                    self.due.push(ctx.now.as_micros() + delay_us);
                    self.history.push(h);
                    h
                }
            }
            impl NetStack for Churn {
                fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                    self.arm(ctx, 1, 0);
                }
                fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: &Frame) {}
                fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
                    self.fired += 1;
                    if token != 0 {
                        return;
                    }
                    let Some(&(op, delay, n)) = self.script.get(self.step) else {
                        return;
                    };
                    self.step += 1;
                    for i in 0..u64::from(n) {
                        let d = delay + i * 997;
                        match op {
                            0 => {
                                self.arm(ctx, d, 1);
                            }
                            1 => {
                                let h = self.arm(ctx, d, 1);
                                ctx.cancel_timer(h);
                            }
                            2 => {
                                let h = self.arm(ctx, d, 1);
                                ctx.cancel_timer(h);
                                ctx.cancel_timer(h);
                            }
                            _ => {
                                let pick = (d as usize).wrapping_mul(31) % self.history.len();
                                ctx.cancel_timer(self.history[pick]);
                            }
                        }
                    }
                    self.arm(ctx, 1_000, 0);
                }
                fn as_any(&self) -> &dyn Any { self }
                fn as_any_mut(&mut self) -> &mut dyn Any { self }
            }
            fn due_by(w: &World, a: NodeId, horizon: SimTime) -> u64 {
                let churn = w.stack::<Churn>(a).unwrap();
                churn.due.iter().filter(|&&t| t <= horizon.as_micros()).count() as u64
            }
            let mut w = World::new(WorldConfig::default());
            let a = w.add_node(
                Box::new(Stationary::new(Point::new(0.0, 0.0))),
                Box::new(Churn {
                    script: script.clone(),
                    step: 0,
                    history: Vec::new(),
                    due: Vec::new(),
                    fired: 0,
                }),
            );
            for &(cond, advance_us, fires) in &stops {
                let deadline = w.now() + SimDuration::from_micros(advance_us);
                let horizon = if cond {
                    let target = w.stack::<Churn>(a).unwrap().fired + fires;
                    let mut mismatches = Vec::new();
                    let stopped = w.run_until_cond(deadline, |w| {
                        let (seen, model) = (w.stats().event_dispatches, due_by(w, a, w.now()));
                        if seen != model {
                            mismatches.push((w.now(), seen, model));
                        }
                        w.stack::<Churn>(a).unwrap().fired >= target
                    });
                    prop_assert!(mismatches.is_empty(), "pred saw {:?}", mismatches);
                    if stopped { w.now() } else { deadline }
                } else {
                    w.run_until(deadline);
                    deadline
                };
                prop_assert_eq!(w.stats().event_dispatches, due_by(&w, a, horizon));
            }
            // Past every due time, every armed timer has counted once and
            // every slot is free again.
            w.run_until(w.now() + SimDuration::from_secs(5));
            let armed = w.stack::<Churn>(a).unwrap().due.len() as u64;
            prop_assert_eq!(w.stats().event_dispatches, armed);
            prop_assert_eq!(w.live_timers(), 0);
        }

        #[test]
        fn delivery_event_modes_fire_identical_sequences_under_random_swarms(
            placements in proptest::collection::vec(
                (0.0f64..300.0, 0.0f64..300.0, 1u32..6, 5u64..40), 2..10),
            seed in any::<u64>(),
            loss in 0u32..4,
        ) {
            // A beaconing swarm with channel loss. The per-receiver delivery
            // events this test used to compare against are gone; what it
            // holds now is what that comparison guaranteed of the batched
            // arrival event: every receiver of a frame hears it at the one
            // instant its sender learns the outcome, nothing is delivered
            // that the statistics do not count, and the run is a pure
            // function of the seed.
            #[derive(Debug, Default)]
            struct Beacon {
                beacons: u32,
                interval_ms: u64,
                heard: Vec<(u64, NodeId, u64)>,
                fired: Vec<u64>,
                outcomes: Vec<(u64, bool)>,
            }
            impl NetStack for Beacon {
                fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                    if self.beacons > 0 {
                        ctx.set_timer(SimDuration::from_millis(self.interval_ms), 1);
                    }
                }
                fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &Frame) {
                    self.heard.push((frame.seq, frame.src, ctx.now.as_micros()));
                }
                fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
                    self.fired.push(ctx.now.as_micros());
                    ctx.send_frame(vec![0x5A; 64], FrameKind(9), token, SimDuration::ZERO);
                    self.beacons -= 1;
                    if self.beacons > 0 {
                        ctx.set_timer(SimDuration::from_millis(self.interval_ms), 1);
                    }
                }
                fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, outcome: TxOutcome) {
                    self.outcomes.push((ctx.now.as_micros(), outcome.collided));
                }
                fn as_any(&self) -> &dyn Any { self }
                fn as_any_mut(&mut self) -> &mut dyn Any { self }
            }
            let run = || {
                let mut cfg = WorldConfig {
                    seed,
                    ..WorldConfig::default()
                };
                cfg.phy.loss_rate = loss as f64 * 0.1;
                let mut w = World::new(cfg);
                let ids: Vec<NodeId> = placements
                    .iter()
                    .map(|&(x, y, beacons, interval_ms)| {
                        w.add_node(
                            Box::new(Stationary::new(Point::new(x, y))),
                            Box::new(Beacon {
                                beacons,
                                interval_ms,
                                ..Beacon::default()
                            }),
                        )
                    })
                    .collect();
                w.run_until(SimTime::from_secs(5));
                let per_node: Vec<_> = ids
                    .iter()
                    .map(|&id| {
                        let b = w.stack::<Beacon>(id).unwrap();
                        (b.heard.clone(), b.fired.clone(), b.outcomes.clone())
                    })
                    .collect();
                let s = w.stats();
                (
                    per_node,
                    (
                        s.tx_frames,
                        s.delivered,
                        s.channel_losses,
                        s.collision_drops,
                        s.mac_deferrals,
                        s.api_calls,
                    ),
                )
            };
            let (nodes, stats) = run();
            prop_assert_eq!(&(nodes.clone(), stats), &run());
            let mut heard_at: BTreeMap<u64, u64> = BTreeMap::new();
            let mut heard_total = 0u64;
            for (heard, fired, outcomes) in &nodes {
                prop_assert_eq!(outcomes.len(), fired.len(), "one outcome per beacon");
                for &(seq, src, at) in heard {
                    heard_total += 1;
                    prop_assert_eq!(*heard_at.entry(seq).or_insert(at), at);
                    let sender_outcomes = &nodes[src.0 as usize].2;
                    prop_assert!(sender_outcomes.iter().any(|&(t, _)| t == at));
                }
            }
            prop_assert_eq!(heard_total, stats.1, "every delivery reached a stack");
        }

        #[test]
        fn peek_header_agrees_with_full_interest_decode(
            name in super::arb_name(),
            nonce in any::<u32>(),
            lifetime in 1u64..100_000,
            cbp in any::<bool>(),
            mbf in any::<bool>(),
            hops in proptest::option::of(any::<u8>()),
            params in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..256)),
        ) {
            use dapes_ndn::packet::{Interest, Packet, PacketHeader};
            let mut interest = Interest::new(name.clone())
                .with_nonce(nonce)
                .with_lifetime_ms(lifetime)
                .with_can_be_prefix(cbp)
                .with_must_be_fresh(mbf);
            if let Some(h) = hops {
                interest = interest.with_hop_limit(h);
            }
            if let Some(p) = &params {
                interest = interest.with_app_parameters(p.clone());
            }
            let wire = Payload::from(interest.encode());
            match Packet::peek_header(&wire) {
                Ok(PacketHeader::Interest(h)) => {
                    prop_assert_eq!(h.nonce, nonce);
                    prop_assert_eq!(h.lifetime_ms, lifetime);
                    prop_assert_eq!(h.can_be_prefix, cbp);
                    prop_assert_eq!(h.must_be_fresh, mbf);
                    prop_assert_eq!(h.app_parameters, params.as_deref());
                    prop_assert!(name.wire_value_eq(h.name_wire));
                    prop_assert_eq!(h.name_wire, &name.to_wire_value()[..]);
                    prop_assert_eq!(&h.to_name(&wire).unwrap(), &name);
                    // The view builds back exactly the builder's Interest,
                    // re-sent as the received bytes.
                    let built = h.to_interest(&wire).unwrap();
                    prop_assert_eq!(&built, &interest);
                    prop_assert!(Payload::ptr_eq(&built.wire(), &wire));
                }
                other => prop_assert!(false, "unexpected peek: {:?}", other),
            }
        }

        #[test]
        fn peek_header_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..256),
            name in super::arb_name(),
            nonce in any::<u32>(),
            hops in proptest::option::of(any::<u8>()),
            params in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..64)),
            mutation in 0u8..3,
            at in any::<usize>(),
            flip in 1u8..=255,
        ) {
            use dapes_ndn::face::FaceId;
            use dapes_ndn::forwarder::{Forwarder, ForwarderConfig, InterestOutcome};
            use dapes_ndn::packet::{Interest, Packet, PacketHeader};
            // Arbitrary bytes, and a valid Interest frame mutated once: a
            // byte flipped, the frame truncated, or the outer, name or
            // first component length bumped.
            let mut interest = Interest::new(name).with_nonce(nonce);
            if let Some(h) = hops {
                interest = interest.with_hop_limit(h);
            }
            if let Some(p) = params {
                interest = interest.with_app_parameters(p);
            }
            let mut mutated = interest.encode();
            let len = mutated.len();
            match mutation {
                0 => mutated[at % len] ^= flip,
                1 => mutated.truncate(at % len),
                _ => {
                    let field = [1, 3, 5][at % 3].min(len - 1);
                    mutated[field] = mutated[field].wrapping_add(1);
                }
            }
            for frame in [Payload::from(bytes), Payload::from(mutated)] {
                // Must reject or classify, never panic.
                let Ok(PacketHeader::Interest(view)) = Packet::peek_header(&frame) else {
                    continue;
                };
                // One decoder: the view builds what `decode_payload` does.
                let built = view.to_interest(&frame);
                prop_assert_eq!(&built, &Interest::decode_payload(&frame));
                let mut fwd = Forwarder::new(ForwarderConfig {
                    rebroadcast_faces: vec![FaceId::WIRELESS],
                    ..ForwarderConfig::default()
                });
                fwd.fib_mut()
                    .register(dapes_ndn::name::Name::root(), FaceId::WIRELESS);
                let (actions, outcome) =
                    fwd.receive_interest(SimTime::ZERO, &view, &frame, FaceId::WIRELESS);
                if built.is_err() {
                    // A frame that peeks but does not build records nothing.
                    prop_assert_eq!(outcome, InterestOutcome::Malformed);
                    prop_assert!(actions.is_empty());
                    prop_assert!(fwd.pit().is_empty() && fwd.cs().is_empty());
                    prop_assert_eq!(
                        format!("{:?}", fwd.stats()),
                        format!("{:?}", dapes_ndn::forwarder::ForwarderStats::default())
                    );
                } else {
                    prop_assert_eq!(fwd.pit().len(), 1, "a built frame is recorded");
                }
            }
        }

        /// `World::finish_tx` keeps only the overlapping senders that
        /// `Point::may_interfere` admits: the per-receiver and sender-side
        /// collision verdicts must read the same with and without that
        /// prefilter, random geometry and points placed exactly at `range`
        /// and `2 × range` included.
        #[test]
        fn interference_prefilter_keeps_both_collision_verdicts(
            origin in (-1_000.0f64..1_000.0, -1_000.0f64..1_000.0),
            range in 0.5f64..150.0,
            rx_angles in proptest::collection::vec(0.0f64..std::f64::consts::TAU, 1..6),
            tx_angles in proptest::collection::vec(0.0f64..std::f64::consts::TAU, 0..6),
            rx_scatter in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 0..12),
            tx_scatter in proptest::collection::vec((-3.5f64..3.5, -3.5f64..3.5), 0..12),
        ) {
            let sender = Point::new(origin.0, origin.1);
            let step = |from: Point, dist: f64, angle: f64| {
                Point::new(from.x + dist * angle.cos(), from.y + dist * angle.sin())
            };
            let scaled = |&(fx, fy): &(f64, f64)| Point::new(sender.x + fx * range, sender.y + fy * range);
            let axes = [0.0, 0.5, 1.0, 1.5].map(|q| q * std::f64::consts::PI);
            let mut receivers: Vec<Point> = rx_scatter.iter().map(scaled).collect();
            let mut interferers: Vec<Point> = tx_scatter.iter().map(scaled).collect();
            for &a in rx_angles.iter().chain(&axes) {
                // A receiver at `range`, and an interferer one more hop of
                // `range` beyond it: rounding can put that chain's end just
                // past `2 × range` of the sender.
                let rx = step(sender, range, a);
                receivers.push(rx);
                interferers.push(step(rx, range, a));
            }
            for &a in tx_angles.iter().chain(&axes) {
                interferers.extend([step(sender, range, a), step(sender, 2.0 * range, a)]);
            }
            let kept: Vec<Point> = interferers
                .iter()
                .copied()
                .filter(|p| p.may_interfere(&sender, range))
                .collect();
            let heard_at = |set: &[Point], rx: &Point| set.iter().any(|p| p.within(rx, range));
            prop_assert_eq!(heard_at(&interferers, &sender), heard_at(&kept, &sender));
            for rx in receivers.iter().filter(|rx| sender.within(rx, range)) {
                prop_assert_eq!(heard_at(&interferers, rx), heard_at(&kept, rx), "receiver {:?}", rx);
            }
        }
    }
}

mod fault_properties {
    //! Fault-injection properties: a crash/restart at a *random* simulated
    //! time during a transfer — before, during or after the download is
    //! active — must still end in 100 % completion, and the whole faulted
    //! run must be a pure function of its inputs.

    use dapes_netsim::prelude::*;
    use dapes_testutil::prelude::*;
    use proptest::prelude::*;

    /// One faulted run; the returned tuple is the determinism fingerprint.
    fn faulted_run(
        seed: u64,
        dist: f64,
        crash_us: u64,
        restart_us: u64,
    ) -> (bool, u64, u64, Vec<Option<SimTime>>) {
        let mut sc = ScenarioBuilder::new(seed)
            .collection(2, 16 * 1024)
            .producer_at(0.0, 0.0)
            .downloader_at(dist, 0.0)
            .downloader_at(0.0, dist)
            .faults([FaultProfile::CrashRestartDownloader {
                index: 0,
                crash: SimTime::from_micros(crash_us),
                restart: SimTime::from_micros(restart_us),
            }])
            .build();
        let done = sc.run_until_complete(SimTime::from_secs(240));
        let s = sc.world.stats();
        (
            done,
            s.tx_frames,
            s.stale_events_suppressed,
            sc.completion_times(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn crash_restart_completes_and_is_queue_mode_invariant(
            seed in 0u64..1000,
            dist in 10.0f64..40.0,
            crash_us in 200_000u64..2_500_000,
            gap_us in 500_000u64..5_000_000,
        ) {
            let restart_us = crash_us + gap_us;
            let run = faulted_run(seed, dist, crash_us, restart_us);
            prop_assert!(
                run.0,
                "every downloader must complete after the restart (seed {seed})"
            );
            let again = faulted_run(seed, dist, crash_us, restart_us);
            prop_assert_eq!(&run, &again, "the faulted run did not repeat");
        }
    }
}

mod watermark_properties {
    //! Differential tests for the deadline-watermarked sweeps and the
    //! in-place name classification: each structure is driven through a
    //! random operation sequence beside a *full-scan model* — the sweep
    //! body it had before the watermark, over plain maps — and must agree
    //! with it on every return value and on the surviving state at every
    //! step. The models are the oracles; no production code scans like
    //! this any more.

    use dapes_core::auth::{NonceJournal, ReplayGuard, ReplayVerdict};
    use dapes_core::bitmap::Bitmap;
    use dapes_core::config::{NEIGHBOR_TIMEOUT, RESPONSE_TIMEOUT, SUPPRESS_DURATION};
    use dapes_core::metadata::PacketIndex;
    use dapes_core::multihop::{MultihopState, NodeRole};
    use dapes_core::namespace::{self, DapesName};
    use dapes_crypto::signing::KeyId;
    use dapes_ndn::face::FaceId;
    use dapes_ndn::name::{Component, Name};
    use dapes_ndn::pit::{Pit, PitInsert, RECLAIM_AFTER};
    use dapes_netsim::time::{SimDuration, SimTime};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Names that exercise exact, prefix and root matches against each other.
    fn name_pool() -> Vec<Name> {
        ["/", "/a", "/a/b", "/a/b/c", "/a/x", "/b", "/b/c/d", "/c"]
            .iter()
            .map(|uri| Name::from_uri(uri))
            .collect()
    }

    /// What the model remembers of one PIT entry.
    #[derive(Clone, Debug, PartialEq)]
    struct ModelEntry {
        can_be_prefix: bool,
        downstreams: Vec<FaceId>,
        nonces: Vec<u32>,
        expiry: SimTime,
    }

    /// The PIT as an ordered map with a full-scan `expire`.
    #[derive(Default)]
    struct PitModel(BTreeMap<Name, ModelEntry>);

    impl PitModel {
        fn insert(
            &mut self,
            name: &Name,
            nonce: u32,
            cbp: bool,
            face: FaceId,
            expiry: SimTime,
        ) -> PitInsert {
            match self.0.get_mut(name) {
                None => {
                    self.0.insert(
                        name.clone(),
                        ModelEntry {
                            can_be_prefix: cbp,
                            downstreams: vec![face],
                            nonces: vec![nonce],
                            expiry,
                        },
                    );
                    PitInsert::New
                }
                Some(e) if e.nonces.contains(&nonce) => PitInsert::DuplicateNonce,
                Some(e) => {
                    e.nonces.push(nonce);
                    e.can_be_prefix |= cbp;
                    e.expiry = e.expiry.max(expiry);
                    if !e.downstreams.contains(&face) {
                        e.downstreams.push(face);
                    }
                    PitInsert::Aggregated
                }
            }
        }

        /// Exact entry first, then CanBePrefix prefixes shortest-first.
        fn take_matching(&mut self, data_name: &Name) -> Vec<(Name, ModelEntry)> {
            let mut matched = Vec::new();
            if let Some(e) = self.0.remove(data_name) {
                matched.push((data_name.clone(), e));
            }
            for k in 0..data_name.len() {
                let prefix = data_name.prefix(k);
                if self.0.get(&prefix).is_some_and(|e| e.can_be_prefix) {
                    let e = self.0.remove(&prefix).expect("just checked");
                    matched.push((prefix, e));
                }
            }
            matched
        }

        /// The PIT's Table I proxy recomputed from scratch: per entry, the
        /// `Name`, four bytes per downstream and nonce, 32 fixed, and the
        /// wire key plus 16 of index.
        fn state_bytes(&self) -> usize {
            self.0
                .iter()
                .map(|(name, e)| {
                    name.state_bytes()
                        + 4 * (e.downstreams.len() + e.nonces.len())
                        + 32
                        + name.to_wire_value().len()
                        + 16
                })
                .sum()
        }

        fn expire(&mut self, now: SimTime) -> usize {
            let before = self.0.len();
            self.0.retain(|_, e| e.expiry > now);
            before - self.0.len()
        }

        /// Whether Data named `data_name` satisfies any entry.
        fn matches(&self, data_name: &Name) -> bool {
            self.0.contains_key(data_name)
                || (0..data_name.len()).any(|k| {
                    self.0
                        .get(&data_name.prefix(k))
                        .is_some_and(|e| e.can_be_prefix)
                })
        }
    }

    /// The multi-hop expiring maps with the pre-watermark sweep body.
    struct MultihopModel {
        neighbors: BTreeMap<u32, SimTime>,
        suppressed: BTreeMap<Name, SimTime>,
        pending: BTreeMap<Name, SimTime>,
        successes: u64,
        failures: u64,
        response: SimDuration,
        suppress: SimDuration,
        neighbor: SimDuration,
    }

    impl MultihopModel {
        fn sweep(&mut self, now: SimTime) -> usize {
            let timeout = self.response;
            let mut to_suppress = Vec::new();
            self.pending.retain(|name, &mut at| {
                if now.since(at) > timeout {
                    to_suppress.push(name.clone());
                    false
                } else {
                    true
                }
            });
            for name in to_suppress {
                self.failures += 1;
                self.suppressed.insert(name, now + self.suppress);
            }
            self.suppressed.retain(|_, &mut until| until > now);
            let nt = self.neighbor;
            let before = self.neighbors.len();
            self.neighbors
                .retain(|_, &mut heard| now.since(heard) <= nt);
            before - self.neighbors.len()
        }
    }

    /// The replay table with the pre-watermark eviction and sweep.
    struct ReplayModel {
        marks: BTreeMap<u64, (u64, SimTime)>,
        capacity: usize,
        window: SimDuration,
        ttl: SimDuration,
    }

    impl ReplayModel {
        fn check(&mut self, key: u64, ts: u64, now: SimTime) -> ReplayVerdict {
            if now.as_micros().saturating_sub(ts) > self.window.as_micros() {
                return ReplayVerdict::Replayed;
            }
            if let Some(&(mark, _)) = self.marks.get(&key) {
                if ts == mark {
                    return ReplayVerdict::Duplicate;
                }
                if ts < mark {
                    return ReplayVerdict::Replayed;
                }
            }
            if !self.marks.contains_key(&key) && self.marks.len() >= self.capacity {
                let stalest = self
                    .marks
                    .iter()
                    .min_by_key(|(id, &(_, heard))| (heard, **id))
                    .map(|(id, _)| *id)
                    .expect("non-empty at capacity");
                self.marks.remove(&stalest);
            }
            self.marks.insert(key, (ts, now));
            ReplayVerdict::Fresh
        }

        fn sweep(&mut self, now: SimTime) -> usize {
            let before = self.marks.len();
            let ttl = self.ttl;
            self.marks
                .retain(|_, &mut (_, heard)| now.since(heard) <= ttl);
            before - self.marks.len()
        }
    }

    /// The nonce journal as one map: `min_by_key((time, nonce))` eviction
    /// and a `retain` over everything, as `DapesPeer` used to do.
    #[derive(Default)]
    struct JournalModel(BTreeMap<u32, SimTime>);

    impl JournalModel {
        fn record(&mut self, nonce: u32, now: SimTime, capacity: usize) {
            if self.0.contains_key(&nonce) {
                return;
            }
            if self.0.len() >= capacity {
                let oldest = self
                    .0
                    .iter()
                    .min_by_key(|(nonce, &t)| (t, **nonce))
                    .map(|(nonce, _)| *nonce)
                    .expect("non-empty at capacity");
                self.0.remove(&oldest);
            }
            self.0.insert(nonce, now);
        }

        fn forget_older_than(&mut self, now: SimTime, keep: SimDuration) -> usize {
            let before = self.0.len();
            self.0.retain(|_, &mut t| now.since(t) <= keep);
            before - self.0.len()
        }
    }

    /// `namespace::classify` as it was when it built `/dapes/discovery`
    /// and `/dapes/bitmap` through `Name::from_uri` on every call.
    fn classify_oracle(name: &Name) -> Option<DapesName> {
        if namespace::discovery_prefix().is_prefix_of(name) {
            let replier = name.component(2).and_then(|c| c.to_seq()).map(|s| s as u32);
            return Some(DapesName::Discovery { replier });
        }
        if let Some((collection, origin, round, replier)) = parse_bitmap_oracle(name) {
            return Some(DapesName::Bitmap {
                collection,
                origin,
                round,
                replier,
            });
        }
        if name.len() >= 3 {
            let c1 = name.component(1)?;
            if c1.as_bytes() == namespace::METADATA_FILE.as_bytes() {
                return Some(DapesName::Metadata {
                    collection: name.prefix(1),
                    metadata: name.prefix(3),
                    segment: name.component(3).and_then(|c| c.to_seq()),
                });
            }
        }
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

    fn parse_bitmap_oracle(name: &Name) -> Option<(Name, u32, u64, Option<u32>)> {
        if !namespace::bitmap_prefix().is_prefix_of(name) || name.len() < 5 {
            return None;
        }
        let collection = Name::from_uri(std::str::from_utf8(name.component(2)?.as_bytes()).ok()?);
        let origin = name.component(3)?.to_seq()? as u32;
        let round = name.component(4)?.to_seq()?;
        let replier = name.component(5).and_then(|c| c.to_seq()).map(|s| s as u32);
        Some((collection, origin, round, replier))
    }

    /// Components chosen so every arm of `classify` — and every way of
    /// almost reaching one — comes up often.
    fn component_pool() -> Vec<Vec<u8>> {
        let mut pool: Vec<Vec<u8>> = [
            "dapes",
            "discovery",
            "bitmap",
            "metadata-file",
            "A23D1F9B",
            "catalog",
            "col-1533783192",
            "/area/col-1",
            "pic",
            "0",
            "7",
            "4294967296",
            "18446744073709551616",
            "-1",
            "seven",
            "dapesx",
        ]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
        pool.push(vec![0xff, 0xfe, b'f']);
        pool.push(vec![0xc3, 0x28]);
        pool
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn pit_expiry_matches_a_full_scan_model(
            ops in proptest::collection::vec((0u8..7, 0usize..8, 0u32..5, 0u64..1_500), 1..160),
        ) {
            let pool = name_pool();
            let grace = RECLAIM_AFTER.as_micros();
            let mut pit = Pit::new();
            let mut model = PitModel::default();
            let mut now = SimTime::from_secs(1);
            for &(op, which, nonce, ms) in &ops {
                let name = &pool[which];
                match op {
                    0..=2 => {
                        let cbp = nonce % 2 == 1;
                        let face = if ms % 2 == 0 { FaceId::APP } else { FaceId::WIRELESS };
                        let expiry = now + SimDuration::from_millis(1 + ms);
                        prop_assert_eq!(
                            pit.insert(name, nonce, cbp, face, expiry),
                            model.insert(name, nonce, cbp, face, expiry)
                        );
                    }
                    3 => {
                        let wire = name.to_wire_value();
                        let got = pit.take_matching(&wire);
                        let want = model.take_matching(name);
                        prop_assert_eq!(got.len(), want.len());
                        for ((len, g), (wname, w)) in got.iter().zip(&want) {
                            prop_assert_eq!(&wire[..*len], &wname.to_wire_value()[..]);
                            prop_assert_eq!(g.can_be_prefix(), w.can_be_prefix);
                            prop_assert_eq!(g.downstreams().collect::<Vec<_>>(), w.downstreams.clone());
                            prop_assert_eq!(g.nonces().collect::<Vec<_>>(), w.nonces.clone());
                            prop_assert_eq!(g.expiry(), w.expiry);
                        }
                    }
                    4 | 5 => {
                        // Half the sweeps find the clock where they left it.
                        if op == 4 {
                            now += SimDuration::from_millis(ms);
                        }
                        let would_scan = pit.expire_due(now);
                        let want = model.expire(now);
                        prop_assert!(would_scan || want == 0, "skipped a due entry");
                        prop_assert_eq!(pit.expire(now), want);
                    }
                    _ => {
                        now += SimDuration::from_millis(ms);
                        let removed = pit.reclaim(now);
                        let gone: Vec<Name> =
                            model.0.keys().filter(|n| !pit.contains(n)).cloned().collect();
                        prop_assert_eq!(removed, gone.len());
                        let at = now.as_micros();
                        for name in &gone {
                            let expiry = model.0[name].expiry.as_micros();
                            prop_assert!(expiry + grace <= at, "reclaimed {} early", name);
                            model.0.remove(name);
                        }
                        for e in model.0.values() {
                            prop_assert!(
                                e.expiry.as_micros() + 2 * grace > at,
                                "kept an entry two grace periods past expiry"
                            );
                        }
                    }
                }
                prop_assert_eq!(pit.len(), model.0.len());
                prop_assert_eq!(pit.state_bytes(), model.state_bytes());
                // The running total against the table's own recount: each
                // entry's figure kept since insert and aggregation equals
                // the formula worked out afresh, and they sum to the total
                // (ROADMAP item 6(a)); every entry is reachable.
                prop_assert_eq!(pit.audit(), Ok(()));
                // The running CanBePrefix count against a recount.
                prop_assert_eq!(
                    pit.prefix_entries(),
                    model.0.values().filter(|e| e.can_be_prefix).count()
                );
                for probe in &pool {
                    prop_assert_eq!(pit.contains(probe), model.0.contains_key(probe));
                    let wire = probe.to_wire_value();
                    for nonce in 0..5 {
                        prop_assert_eq!(
                            pit.probe_wire(&wire).is_some_and(|e| e.has_nonce(nonce)),
                            model.0.get(probe).is_some_and(|e| e.nonces.contains(&nonce))
                        );
                    }
                    // Data under the probe name, and one component deeper.
                    for data in [probe.clone(), probe.child(Component::from_seq(9))] {
                        prop_assert_eq!(pit.matches_wire(&data.to_wire_value()), model.matches(&data));
                    }
                }
            }
            // Everything left expires at the end of time.
            prop_assert_eq!(pit.expire(SimTime::FAR_FUTURE), model.expire(SimTime::FAR_FUTURE));
            prop_assert!(pit.is_empty());
        }

        #[test]
        fn multihop_sweep_matches_a_full_scan_model(
            ops in proptest::collection::vec((0u8..8, 0usize..8, 0u64..900), 1..200),
        ) {
            let pool = name_pool();
            let mut ms = MultihopState::new(NodeRole::Dapes, true, 0.2, 3);
            let mut model = MultihopModel {
                neighbors: BTreeMap::new(),
                suppressed: BTreeMap::new(),
                pending: BTreeMap::new(),
                successes: 0,
                failures: 0,
                response: RESPONSE_TIMEOUT,
                suppress: SUPPRESS_DURATION,
                neighbor: NEIGHBOR_TIMEOUT,
            };
            let mut now = SimTime::from_secs(1);
            let collection = Name::from_uri("/col");
            for &(op, which, step) in &ops {
                let name = &pool[which];
                let peer = which as u32 % 4;
                match op {
                    0 => {
                        ms.note_peer(peer, now);
                        model.neighbors.insert(peer, now);
                    }
                    1 => {
                        ms.note_neighbor_wants(peer, &collection, now);
                        model.neighbors.insert(peer, now);
                    }
                    2 => {
                        ms.note_neighbor_has(peer, &collection, which, now);
                        model.neighbors.insert(peer, now);
                    }
                    3 => {
                        ms.note_forwarded(name, now);
                        model.pending.entry(name.clone()).or_insert(now);
                    }
                    4 => {
                        ms.note_data_seen(name);
                        if model.pending.remove(name).is_some() {
                            model.successes += 1;
                        }
                        model.suppressed.remove(name);
                    }
                    _ => {
                        // One sweep in three finds the clock where it left it.
                        if op != 5 {
                            now += SimDuration::from_millis(step);
                        }
                        let would_scan = ms.sweep_due(now);
                        let (before_p, before_s) = (model.pending.len(), model.suppressed.len());
                        let want = model.sweep(now);
                        let removed_any = want > 0
                            || model.pending.len() != before_p
                            || model.suppressed.len() != before_s;
                        prop_assert!(would_scan || !removed_any, "skipped a due entry");
                        prop_assert_eq!(ms.sweep(now), want);
                    }
                }
                let heard: BTreeMap<u32, SimTime> = ms
                    .neighbors()
                    .iter()
                    .map(|(&p, info)| (p, info.last_heard))
                    .collect();
                prop_assert_eq!(&heard, &model.neighbors);
                prop_assert_eq!(ms.neighbor_count(), model.neighbors.len());
                prop_assert_eq!(ms.suppressed(), &model.suppressed);
                prop_assert_eq!(ms.pending_response(), &model.pending);
                prop_assert_eq!(ms.forward_successes, model.successes);
                prop_assert_eq!(ms.forward_failures, model.failures);
            }
        }

        #[test]
        fn holdings_gate_the_forwarding_decision_like_a_set_model(
            ops in proptest::collection::vec((0u8..4, 0usize..3, 0usize..24, 0usize..24), 1..120),
            n_cols in 1usize..4,
        ) {
            // The node's own holdings against a `BTreeSet` of held indices
            // per collection. A neighbour advertises every packet, so the
            // name-only decision is fully determined: held => `Some(false)`
            // (the application answers), not held => `Some(true)` — and
            // neither may draw from the RNG, which a same-seed twin checks.
            let mut ms = MultihopState::new(NodeRole::Dapes, true, 0.5, 3);
            let mut twin = MultihopState::new(NodeRole::Dapes, true, 0.5, 3);
            let now = SimTime::from_secs(1);
            let cols: Vec<Name> =
                (0..n_cols).map(|c| Name::from_uri(&format!("/c{c}"))).collect();
            let mut model: Vec<Option<(usize, BTreeSet<usize>)>> = vec![None; n_cols];
            for &(op, c, a, b) in &ops {
                let (c, col) = (c % n_cols, &cols[c % n_cols]);
                match (op, &mut model[c]) {
                    (0, slot) => {
                        let total = 8 + a;
                        let index = PacketIndex::new(vec![("f".into(), total as u32)]);
                        ms.install_holdings(col.clone(), index, Bitmap::new(total));
                        ms.record_bitmap(9, col, Bitmap::full(total), now);
                        *slot = Some((total, BTreeSet::new()));
                    }
                    (1, Some((total, held))) => {
                        ms.set_held(col, a % *total);
                        held.insert(a % *total);
                    }
                    (2, Some((total, held))) => {
                        let (lo, hi) = (a.min(b) % *total, a.max(b) % (*total + 1));
                        ms.clear_held(col, lo..hi);
                        held.retain(|i| !(lo..hi).contains(i));
                    }
                    (3, Some((total, held))) => {
                        let mut other = Bitmap::new(*total);
                        for i in [a % *total, b % *total] {
                            other.set(i);
                            held.insert(i);
                        }
                        ms.union_held(col, &other);
                    }
                    // Nothing installed yet: every mutation is a no-op.
                    (1, None) => ms.set_held(col, a),
                    (2, None) => ms.clear_held(col, a.min(b)..a.max(b)),
                    (_, None) => ms.union_held(col, &Bitmap::new(a)),
                    _ => unreachable!("op < 4"),
                }
                for (col, entry) in cols.iter().zip(&model) {
                    let Some((total, held)) = entry else {
                        prop_assert!(ms.held(col).is_none() && ms.index(col).is_none());
                        continue;
                    };
                    let bits = ms.held(col).expect("installed");
                    prop_assert_eq!(bits.len(), *total);
                    prop_assert_eq!(&bits.iter_set().collect::<BTreeSet<_>>(), held);
                    for idx in 0..*total {
                        prop_assert_eq!(ms.content_index(col, "f", idx as u64), Some(idx));
                        let name = namespace::packet_name(col, "f", idx as u64);
                        prop_assert_eq!(
                            ms.should_forward(&name, None, now),
                            !held.contains(&idx)
                        );
                    }
                    prop_assert_eq!(ms.content_index(col, "f", *total as u64), None);
                }
            }
            // Not one draw was consumed: the twin, which decided nothing,
            // is still in lockstep on names only the RNG can decide.
            for i in 0..64 {
                let name = Name::from_uri(&format!("/elsewhere/f/{i}"));
                prop_assert_eq!(
                    ms.should_forward(&name, None, now),
                    twin.should_forward(&name, None, now)
                );
            }
        }

        #[test]
        fn replay_guard_sweep_matches_a_full_scan_model(
            ops in proptest::collection::vec((0u8..4, 0u64..7, 0u64..4_000), 1..200),
        ) {
            let (window, ttl) = (SimDuration::from_secs(2), SimDuration::from_secs(5));
            let mut guard = ReplayGuard::new(4, window, ttl);
            let mut model = ReplayModel { marks: BTreeMap::new(), capacity: 4, window, ttl };
            let mut now = SimTime::from_secs(10);
            for &(op, key, step) in &ops {
                match op {
                    0 | 1 => {
                        // Stamps near `now`, some stale enough to be refused.
                        let ts = now.as_micros().saturating_sub(step * 1_000);
                        prop_assert_eq!(
                            guard.check(KeyId(key), ts, now),
                            model.check(key, ts, now)
                        );
                    }
                    _ => {
                        if op == 2 {
                            now += SimDuration::from_millis(step);
                        }
                        let would_scan = guard.sweep_due(now);
                        let want = model.sweep(now);
                        prop_assert!(would_scan || want == 0, "skipped a due mark");
                        prop_assert_eq!(guard.sweep(now), want);
                    }
                }
                prop_assert_eq!(guard.len(), model.marks.len());
                for key in 0..7 {
                    prop_assert_eq!(
                        guard.mark(KeyId(key)),
                        model.marks.get(&key).map(|&(mark, _)| mark)
                    );
                }
            }
        }

        #[test]
        fn nonce_journal_matches_a_full_scan_model_through_ties_and_eviction(
            ops in proptest::collection::vec((0u8..5, 0u32..40, 0u64..3), 1..300),
            capacity in 1usize..12,
        ) {
            let keep = SimDuration::from_millis(6);
            let mut journal = NonceJournal::new(capacity);
            let mut model = JournalModel::default();
            let mut now = SimTime::from_secs(1);
            for &(op, nonce, step) in &ops {
                // Steps of 0–2 ms over a 6 ms horizon: plenty of equal
                // timestamps, and a cap under 12 is hit long before age is.
                now += SimDuration::from_millis(step);
                if op == 0 {
                    prop_assert_eq!(
                        journal.forget_older_than(now, keep),
                        model.forget_older_than(now, keep)
                    );
                } else {
                    let earlier = model.0.get(&nonce).copied();
                    prop_assert_eq!(journal.record(nonce, now), earlier);
                    model.record(nonce, now, capacity);
                }
                prop_assert_eq!(journal.len(), model.0.len());
                prop_assert!(journal.len() <= capacity);
                for probe in 0..40 {
                    prop_assert_eq!(journal.first_seen(probe), model.0.get(&probe).copied());
                }
            }
        }

        #[test]
        fn classify_matches_the_prefix_building_oracle(
            picks in proptest::collection::vec(any::<usize>(), 0..7),
        ) {
            let pool = component_pool();
            let name = Name::from_components(
                picks
                    .iter()
                    .map(|&i| Component::from_bytes(pool[i % pool.len()].clone()))
                    .collect(),
            );
            prop_assert_eq!(namespace::classify(&name), classify_oracle(&name));
            prop_assert_eq!(namespace::parse_bitmap_name(&name), parse_bitmap_oracle(&name));
        }
    }

    /// The generated names above reach each arm by chance; these reach
    /// each one, and each near miss, on purpose.
    #[test]
    fn classify_matches_the_oracle_on_every_arm_and_near_miss() {
        let uris = [
            "/",
            "/dapes",
            "/dapes/discovery",
            "/dapes/discovery/7",
            "/dapes/discovery/seven",
            "/dapes/discovery/7/8/9",
            "/dapes/bitmap",
            "/dapes/bitmap/5",
            "/dapes/bitmap/%2Fcol/3",
            "/dapes/bitmap/%2Fcol/3/12",
            "/dapes/bitmap/%2Fcol/3/12/9",
            "/dapes/bitmap/%2Farea%2Fcol/3/12/nine",
            "/dapes/bitmap/%2Fcol/three/12",
            "/dapes/bitmap/%2Fcol/3/twelve",
            "/dapes/bitmap/%FF%FE/3/12",
            "/dapes/bitmap/metadata-file/3/12",
            "/dapes/metadata-file/A23D1F9B/2",
            "/dapesx/bitmap/%2Fcol/3/12",
            "/col/metadata-file/A23D1F9B",
            "/col/metadata-file/A23D1F9B/2",
            "/col/metadata-file/A23D1F9B/two",
            "/col/pic/0",
            "/col/pic/catalog",
            "/col/%FF%FE/0",
            "/col/pic/18446744073709551616",
            "/col/pic",
            "/col/a/b/c/d",
        ];
        for uri in uris {
            let name = Name::from_uri(uri);
            assert_eq!(namespace::classify(&name), classify_oracle(&name), "{uri}");
            assert_eq!(
                namespace::parse_bitmap_name(&name),
                parse_bitmap_oracle(&name),
                "{uri}"
            );
        }
    }
}
