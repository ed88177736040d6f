//! Criterion micro-benchmarks for the hot paths of the DAPES stack:
//! bitmap algebra, rarity computation, wire codecs, forwarder pipeline,
//! Merkle verification, SHA-256, and the per-frame / per-tick bookkeeping
//! (`classify_content_name`, `pit_expire_idle_1k`, `nonce_journal_sweep_4k`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dapes_core::prelude::*;
use dapes_crypto::merkle::MerkleTree;
use dapes_crypto::sha256::sha256;
use dapes_crypto::signing::TrustAnchor;
use dapes_ndn::prelude::*;
use dapes_netsim::time::SimTime;

fn bench_sha256(c: &mut Criterion) {
    let data = vec![0xa5u8; 1024];
    c.bench_function("sha256_1kb", |b| b.iter(|| sha256(black_box(&data))));
}

fn bench_bitmap(c: &mut Criterion) {
    let n = 10_240; // the paper's default collection
    let mut a = Bitmap::new(n);
    let mut b = Bitmap::new(n);
    for i in (0..n).step_by(3) {
        a.set(i);
    }
    for i in (0..n).step_by(2) {
        b.set(i);
    }
    c.bench_function("bitmap_marginal_10k", |bch| {
        bch.iter(|| black_box(&a).count_set_and_missing_from(black_box(&b)))
    });
    c.bench_function("bitmap_wire_roundtrip_10k", |bch| {
        bch.iter(|| Bitmap::from_wire(&black_box(&a).to_wire()))
    });
}

fn bench_rarity(c: &mut Criterion) {
    let n = 10_240;
    let bitmaps: Vec<Bitmap> = (0..8)
        .map(|k| {
            let mut b = Bitmap::new(n);
            for i in (k..n).step_by(5) {
                b.set(i);
            }
            b
        })
        .collect();
    c.bench_function("rarity_10k_8peers", |bch| {
        bch.iter(|| dapes_core::rpf::rarity_counts(n, black_box(bitmaps.iter())))
    });
}

fn bench_wire(c: &mut Criterion) {
    let anchor = TrustAnchor::from_seed(b"bench");
    let key = anchor.keypair("p");
    let data = Data::new(
        Name::from_uri("/damaged-bridge-1533783192/file-0/42"),
        vec![0u8; 1024],
    )
    .signed(&key);
    let wire = data.encode();
    c.bench_function("data_encode_1kb", |b| b.iter(|| black_box(&data).encode()));
    c.bench_function("data_decode_1kb", |b| {
        b.iter(|| Data::decode(black_box(&wire)).expect("ok"))
    });
    let interest = Interest::new(Name::from_uri("/damaged-bridge-1533783192/file-0/42"))
        .with_nonce(7)
        .with_app_parameters(vec![0u8; 1288]);
    let iwire = interest.encode();
    c.bench_function("interest_decode_with_bitmap", |b| {
        b.iter(|| Interest::decode(black_box(&iwire)).expect("ok"))
    });
}

fn bench_forwarder(c: &mut Criterion) {
    // Both cases advance the clock 1 ms an iteration and send Interests
    // with a 10 ms lifetime over a ring of names long enough that each
    // name's entry has been reclaimed before the name comes round again:
    // the PIT stays a few hundred entries and no nonce list grows.
    let ring = |names: u32, nonces: u32| -> Vec<Interest> {
        (0..names)
            .flat_map(|n| {
                (1..=nonces).map(move |nonce| {
                    Interest::new(Name::from_uri(&format!("/col/f/{n}")))
                        .with_nonce(nonce)
                        .with_lifetime_ms(10)
                })
            })
            .collect()
    };
    let fwd = || {
        let mut fwd = Forwarder::new(ForwarderConfig::default());
        fwd.fib_mut()
            .register(Name::from_uri("/"), FaceId::WIRELESS);
        fwd
    };
    // Every Interest names something not pending: CS miss, PIT insert,
    // FIB, strategy, relay.
    c.bench_function("forwarder_interest_pipeline", |b| {
        let interests = ring(1024, 1);
        let mut fwd = fwd();
        let mut k = 0usize;
        b.iter(|| {
            k += 1;
            let now = SimTime::from_micros(k as u64 * 1_000);
            let i = &interests[k % interests.len()];
            fwd.process_interest(now, black_box(i), FaceId::APP)
        })
    });
    // Eight Interests a name, each with a fresh nonce: the first records
    // the entry, the next seven aggregate onto it (at most eight nonces).
    c.bench_function("forwarder_interest_aggregate", |b| {
        let interests = ring(64, 8);
        let mut fwd = fwd();
        let mut k = 0usize;
        b.iter(|| {
            k += 1;
            let now = SimTime::from_micros(k as u64 * 1_000);
            let i = &interests[k % interests.len()];
            fwd.process_interest(now, black_box(i), FaceId::WIRELESS)
        })
    });
    c.bench_function("cs_prefix_lookup_4k", |b| {
        let mut cs = ContentStore::new(4096);
        for i in 0..4096u32 {
            cs.insert(
                Data::new(Name::from_uri(&format!("/col/f/{i}")), vec![0; 32]),
                SimTime::ZERO,
            );
        }
        let prefix = Name::from_uri("/col/f/2048");
        b.iter(|| cs.lookup(black_box(&prefix), true, false, SimTime::ZERO))
    });
    let packet = |i: u32| Data::new(Name::from_uri(&format!("/col/f/{i}")), vec![0; 32]);
    // A store at its 4,096-packet cap: every insert is a name not cached,
    // which evicts the oldest. Each packet's wire is encoded up front, as
    // a received packet's already is.
    c.bench_function("cs_insert_at_cap_4k", |b| {
        let packets: Vec<Data> = (0..8192).map(packet).collect();
        for d in &packets {
            black_box(d.wire());
        }
        let mut cs = ContentStore::new(4096);
        let mut k = 0usize;
        b.iter(|| {
            k += 1;
            cs.insert(packets[k % packets.len()].clone(), SimTime::ZERO)
        })
    });
    // A full store answers Interests through the forwarder: the pipeline's
    // CS step and the answer it hands back, by exact name and by prefix.
    let hits = |can_be_prefix: bool| {
        let mut fwd = fwd();
        for i in 0..4096 {
            fwd.cs_mut().insert(packet(i), SimTime::ZERO);
        }
        let interests: Vec<Interest> = (0..4096u32)
            .map(|i| {
                Interest::new(Name::from_uri(&format!("/col/f/{i}")))
                    .with_can_be_prefix(can_be_prefix)
                    .with_nonce(i)
            })
            .collect();
        (fwd, interests)
    };
    for (label, can_be_prefix) in [("cs_exact_hit_4k", false), ("cs_prefix_hit_4k", true)] {
        c.bench_function(label, |b| {
            let (mut fwd, interests) = hits(can_be_prefix);
            let mut k = 0usize;
            b.iter(|| {
                k += 1;
                let i = &interests[k % interests.len()];
                fwd.process_interest(SimTime::ZERO, black_box(i), FaceId::WIRELESS)
            })
        });
    }
}

fn bench_merkle(c: &mut Criterion) {
    let leaves: Vec<Vec<u8>> = (0..977u32).map(|i| i.to_be_bytes().to_vec()).collect();
    c.bench_function("merkle_build_977", |b| {
        b.iter(|| MerkleTree::from_leaves(black_box(&leaves).iter().map(|v| v.as_slice())))
    });
    let tree = MerkleTree::from_leaves(leaves.iter().map(|v| v.as_slice()));
    let root = tree.root();
    let hashes: Vec<_> = (0..leaves.len())
        .map(|i| dapes_crypto::merkle::leaf_hash(&leaves[i]))
        .collect();
    c.bench_function("merkle_verify_file_977", |b| {
        b.iter(|| MerkleTree::verify_leaves(black_box(&root), black_box(hashes.clone())))
    });
}

fn bench_peba(c: &mut Criterion) {
    use dapes_netsim::time::SimDuration;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut sched = AdvertScheduler::new(
        true,
        SimDuration::from_millis(20),
        SimDuration::from_millis(2),
    );
    let mut union = Bitmap::new(10_240);
    for i in (0..10_240).step_by(2) {
        union.set(i);
    }
    sched.record_transmitted(&union);
    let mut mine = Bitmap::new(10_240);
    for i in (1..10_240).step_by(4) {
        mine.set(i);
    }
    let mut rng = SmallRng::seed_from_u64(1);
    c.bench_function("peba_delay_decision_10k", |b| {
        b.iter(|| sched.delay_for(black_box(&mine), &mut rng))
    });
}

fn bench_event_queue(c: &mut Criterion) {
    use dapes_netsim::wheel::TimerWheel;
    // The steady-state scheduler mix at scale: a large standing population
    // of far-future (tombstoned) timers, with near-future events pushed and
    // popped through it — the wheel must stay O(1) regardless.
    const STANDING: u64 = 100_000;
    c.bench_function("queue_wheel_push_pop_100k_standing", |b| {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        for i in 0..STANDING {
            wheel.push(30_000_000 + i * 37, i, i);
        }
        let mut now = 0u64;
        let mut seq = STANDING;
        b.iter(|| {
            seq += 1;
            now += 13;
            wheel.push(now, seq, seq);
            black_box(wheel.pop())
        })
    });
}

fn bench_peek_vs_decode(c: &mut Criterion) {
    use dapes_netsim::payload::Payload;
    let anchor = TrustAnchor::from_seed(b"bench");
    let key = anchor.keypair("p");
    let interest = Interest::new(Name::from_uri("/damaged-bridge-1533783192/file-0/42"))
        .with_nonce(7)
        .with_hop_limit(4);
    let iwire = Payload::from(interest.encode());
    c.bench_function("interest_decode_payload", |b| {
        b.iter(|| Interest::decode_payload(black_box(&iwire)).expect("ok"))
    });
    c.bench_function("interest_peek_header", |b| {
        b.iter(|| Packet::peek_header(black_box(&iwire)).expect("ok"))
    });
    let data = Data::new(
        Name::from_uri("/damaged-bridge-1533783192/file-0/42"),
        vec![0u8; 1024],
    )
    .signed(&key);
    let dwire = Payload::from(data.encode());
    c.bench_function("data_decode_payload_1kb", |b| {
        b.iter(|| Data::decode_payload(black_box(&dwire)).expect("ok"))
    });
    c.bench_function("data_peek_header_1kb", |b| {
        b.iter(|| Packet::peek_header(black_box(&dwire)).expect("ok"))
    });
}

/// The per-frame and per-tick bookkeeping unit costs: classifying a
/// content name, an idle PIT sweep over 1k pending entries, and one tick
/// of nonce-journal retention at the 4k capacity with one entry due.
fn bench_bookkeeping(c: &mut Criterion) {
    use dapes_core::auth::NonceJournal;
    use dapes_core::namespace;
    use dapes_netsim::time::SimDuration;

    let name = Name::from_uri("/damaged-bridge-1533783192/file-0/42");
    c.bench_function("classify_content_name", |b| {
        b.iter(|| namespace::classify(black_box(&name)))
    });

    let mut pit = Pit::new();
    for i in 0..1_000u32 {
        let n = Name::from_uri(&format!("/damaged-bridge-1533783192/file-0/{i}"));
        pit.insert(&n, i, false, FaceId::WIRELESS, SimTime::from_secs(4));
    }
    // Nothing is due before t = 4 s: what a tick pays while the table is
    // merely full.
    c.bench_function("pit_expire_idle_1k", |b| {
        b.iter(|| black_box(&mut pit).expire(black_box(SimTime::from_secs(1))))
    });
    assert_eq!(pit.len(), 1_000);

    // A full journal in steady state: each iteration is one tick that
    // finds one expired head, then one fresh sighting takes its place.
    let keep = SimDuration::from_micros(4_096);
    let mut journal = NonceJournal::new(4_096);
    let mut clock = 0u64;
    for _ in 0..4_096 {
        clock += 1;
        journal.record(clock as u32, SimTime::from_micros(clock));
    }
    c.bench_function("nonce_journal_sweep_4k", |b| {
        b.iter(|| {
            clock += 1;
            let now = SimTime::from_micros(clock);
            let forgotten = journal.forget_older_than(now, keep);
            journal.record(clock as u32, now);
            black_box(forgotten)
        })
    });
    assert!(journal.len() <= 4_096);
}

criterion_group!(
    benches,
    bench_sha256,
    bench_bitmap,
    bench_rarity,
    bench_wire,
    bench_forwarder,
    bench_merkle,
    bench_peba,
    bench_event_queue,
    bench_peek_vs_decode,
    bench_bookkeeping
);
criterion_main!(benches);
