//! A hierarchical timer wheel for the simulator's event queue.
//!
//! The discrete-event loop pops hundreds of millions of events in a large
//! run, and a `BinaryHeap` pays O(log n) comparisons *per push and per pop*
//! on a queue that holds one or more timers per node — at million-node
//! scale that log factor is the scheduler. The wheel replaces it with a
//! bucketed calendar: [`LEVELS`] levels of [`SLOTS`] slots each, where a
//! level-`l` slot spans `64^l` microseconds. Pushing an event indexes the
//! lowest level whose current window contains its time — O(1) — and the
//! cursor advances by scanning one occupancy bitmask (`u64`) per level, so
//! skipping an empty second of simulated time costs a handful of
//! `trailing_zeros` calls, not a million empty-slot probes.
//!
//! # Exact heap equivalence
//!
//! The simulator's determinism contract ("same seed ⇒ bit-identical trace")
//! requires the wheel to pop events in *exactly* the `(time, seq)` order the
//! heap would. That holds structurally:
//!
//! * slots partition time into disjoint ascending ranges, and the cursor
//!   only moves forward, so cross-slot order is time order;
//! * a level-0 slot spans a single microsecond, so draining it sorts only
//!   by `(time, seq)` among same-instant events (a push whose time already
//!   passed merges straight into the drained batch at its heap rank);
//! * events pushed *while* the current instant drains (`delay == 0`
//!   commands) land back in the current slot and carry a larger `seq` than
//!   everything already drained, so re-scanning the slot after the ready
//!   buffer empties preserves the global order.
//!
//! Events beyond the top-level horizon (`64^6` µs ≈ 19 hours) spill into a
//! small overflow heap and are folded back in when the wheel drains — they
//! exist only so pathological far-future timers stay correct, not fast.
//!
//! # Storage
//!
//! Every slot is a singly linked list of `u32` indices into one shared
//! entry arena, whose freed cells form a free list. A push links a cell
//! in, a cascade relinks cells without moving an entry, a level-0 drain
//! moves its entries into the sorted ready batch and frees their cells,
//! and [`TimerWheel::retain`] frees the cells it drops. The arena thus
//! grows to the peak of entries queued at once and no further; per-slot
//! vectors would each keep their own largest size, which over a long run
//! sums to many times what is ever queued. Order within a list does not
//! matter: a level-0 drain sorts by `(time, seq)` anyway.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Slots per level (one occupancy bit per slot in a `u64` mask).
pub const SLOTS: usize = 64;
/// Bits of the time index consumed per level.
const SLOT_BITS: u32 = 6;
/// Number of levels; the wheel spans `64^LEVELS` microseconds.
pub const LEVELS: usize = 6;
/// Number of low time bits the wheel can index; times whose bits above this
/// differ from the cursor's go to the overflow heap.
const CAPACITY_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// One queued event: a time in microseconds, the global push sequence
/// number that breaks same-instant ties, and the caller's payload.
#[derive(Debug)]
pub struct WheelEntry<T> {
    /// Event time in microseconds.
    pub time: u64,
    /// Global push order, unique per entry.
    pub seq: u64,
    /// The caller's event payload.
    pub item: T,
}

impl<T> PartialEq for WheelEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for WheelEntry<T> {}
impl<T> PartialOrd for WheelEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for WheelEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// List terminator in the slot lists and the free list.
const NIL: u32 = u32::MAX;

/// One arena cell: a queued entry linked into a slot list, or — `entry`
/// empty — a free cell linked into the free list.
#[derive(Debug)]
pub(crate) struct ArenaNode<T> {
    entry: Option<WheelEntry<T>>,
    next: u32,
}

/// A hierarchical timer wheel that pops entries in exact `(time, seq)`
/// order, equivalent to a min-heap but with O(1) near-future push/pop.
///
/// # Examples
///
/// ```
/// use dapes_netsim::wheel::TimerWheel;
///
/// let mut w = TimerWheel::new();
/// w.push(50, 2, "late");
/// w.push(10, 1, "early");
/// assert_eq!(w.peek_time(), Some(10));
/// assert_eq!(w.pop().map(|e| e.item), Some("early"));
/// assert_eq!(w.pop().map(|e| e.item), Some("late"));
/// assert!(w.pop().is_none());
/// ```
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// Current time position; only moves forward.
    cursor: u64,
    /// First arena cell of each of the `LEVELS × SLOTS` slot lists
    /// (flattened), or [`NIL`] when the slot is empty.
    heads: [u32; LEVELS * SLOTS],
    /// Every slot list's cells, live or free, in one allocation.
    nodes: Vec<ArenaNode<T>>,
    /// First free arena cell, or [`NIL`].
    free: u32,
    /// Per-level occupancy bitmask (bit `s` set ⇔ slot `s` non-empty).
    occupied: [u64; LEVELS],
    /// Entries in the level slots (excludes `ready` and `overflow`).
    in_slots: usize,
    /// The drained current-instant slot, sorted descending so `pop` takes
    /// from the back.
    ready: Vec<WheelEntry<T>>,
    /// Events beyond the wheel's horizon, folded back in when it drains.
    overflow: BinaryHeap<std::cmp::Reverse<WheelEntry<T>>>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel positioned at t = 0.
    pub fn new() -> Self {
        TimerWheel {
            cursor: 0,
            heads: [NIL; LEVELS * SLOTS],
            nodes: Vec::new(),
            free: NIL,
            occupied: [0; LEVELS],
            in_slots: 0,
            ready: Vec::new(),
            overflow: BinaryHeap::new(),
        }
    }

    /// Total queued entries.
    pub fn len(&self) -> usize {
        self.in_slots + self.ready.len() + self.overflow.len()
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the wheel holds on the heap: its entry arena, ready batch and
    /// overflow heap, at their allocated capacity.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<ArenaNode<T>>()
            + self.ready.capacity() * std::mem::size_of::<WheelEntry<T>>()
            + self.overflow.capacity() * std::mem::size_of::<WheelEntry<T>>()
    }

    /// Queues an entry. `seq` must be unique (and, for heap equivalence,
    /// monotone in push order). A `time` before the wheel's current position
    /// merges directly into the ready batch at its `(time, seq)` rank,
    /// mirroring how a min-heap would pop an already-late event immediately
    /// — even ahead of current-instant entries already drained for popping.
    pub fn push(&mut self, time: u64, seq: u64, item: T) {
        let entry = WheelEntry { time, seq, item };
        if time < self.cursor {
            let pos = self
                .ready
                .partition_point(|e| (e.time, e.seq) > (time, seq));
            self.ready.insert(pos, entry);
            return;
        }
        if (time >> CAPACITY_BITS) != (self.cursor >> CAPACITY_BITS) {
            self.overflow.push(std::cmp::Reverse(entry));
            return;
        }
        let bucket = self.bucket_of(time);
        let idx = match self.free {
            NIL => {
                let idx = u32::try_from(self.nodes.len())
                    .ok()
                    .filter(|&i| i != NIL)
                    .expect("timer wheel arena exceeds u32 indices");
                self.nodes.push(ArenaNode {
                    entry: Some(entry),
                    next: NIL,
                });
                idx
            }
            idx => {
                let node = &mut self.nodes[idx as usize];
                self.free = node.next;
                node.entry = Some(entry);
                idx
            }
        };
        self.link(bucket, idx);
        self.in_slots += 1;
    }

    /// The flattened slot an in-horizon time belongs to, given the cursor.
    /// Callers guarantee `time >= cursor` (late pushes merge into `ready`).
    fn bucket_of(&self, time: u64) -> usize {
        debug_assert!(time >= self.cursor);
        let diff = time ^ self.cursor;
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        };
        debug_assert!(level < LEVELS, "beyond-horizon entry must overflow");
        let slot = ((time >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        level * SLOTS + slot
    }

    /// Links arena cell `idx` at the head of slot list `bucket`.
    fn link(&mut self, bucket: usize, idx: u32) {
        self.nodes[idx as usize].next = self.heads[bucket];
        self.heads[bucket] = idx;
        self.occupied[bucket / SLOTS] |= 1 << (bucket % SLOTS);
    }

    /// Empties slot list `bucket`, clearing its occupancy bit, and returns
    /// its first cell for the caller to walk.
    fn unlink_all(&mut self, bucket: usize) -> u32 {
        self.occupied[bucket / SLOTS] &= !(1 << (bucket % SLOTS));
        std::mem::replace(&mut self.heads[bucket], NIL)
    }

    /// Takes the entry out of live cell `idx` and puts the cell on the
    /// free list; returns the cell's old successor.
    fn release(&mut self, idx: u32) -> (WheelEntry<T>, u32) {
        let node = &mut self.nodes[idx as usize];
        let entry = node.entry.take().expect("slot lists hold live cells");
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = idx;
        (entry, next)
    }

    /// The entry in live cell `idx`.
    fn entry(&self, idx: u32) -> &WheelEntry<T> {
        self.nodes[idx as usize]
            .entry
            .as_ref()
            .expect("slot lists hold live cells")
    }

    /// The time of the next entry, or `None` when empty. Advances the
    /// cursor past empty regions as a side effect (never past an entry).
    pub fn peek_time(&mut self) -> Option<u64> {
        self.ensure_ready();
        self.ready.last().map(|e| e.time)
    }

    /// Removes and returns the earliest entry by `(time, seq)`.
    pub fn pop(&mut self) -> Option<WheelEntry<T>> {
        self.ensure_ready();
        self.ready.pop()
    }

    /// Drops every entry for which `keep` returns `false`, wherever it
    /// waits: a level slot, the drained ready batch or the overflow heap.
    /// What stays pops in the same `(time, seq)` order as before; a dropped
    /// slot entry's arena cell goes to the free list for the pushes that
    /// follow.
    pub fn retain(&mut self, mut keep: impl FnMut(&WheelEntry<T>) -> bool) {
        self.ready.retain(&mut keep);
        for level in 0..LEVELS {
            let mut pending = self.occupied[level];
            while pending != 0 {
                let slot = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let bucket = level * SLOTS + slot;
                let mut idx = self.unlink_all(bucket);
                while idx != NIL {
                    let next = self.nodes[idx as usize].next;
                    if keep(self.entry(idx)) {
                        self.link(bucket, idx);
                    } else {
                        self.release(idx);
                        self.in_slots -= 1;
                    }
                    idx = next;
                }
            }
        }
        self.overflow.retain(|std::cmp::Reverse(e)| keep(e));
    }

    /// Fills `ready` with the earliest instant's entries, sorted for
    /// back-to-front popping.
    fn ensure_ready(&mut self) {
        loop {
            if !self.ready.is_empty() {
                return;
            }
            if self.in_slots == 0 {
                if !self.refill_from_overflow() {
                    return;
                }
                continue;
            }
            // Drain the current instant's slot if occupied (this also picks
            // up zero-delay events pushed while the previous batch popped).
            let idx0 = (self.cursor & (SLOTS as u64 - 1)) as usize;
            if self.occupied[0] & (1 << idx0) != 0 {
                let mut idx = self.unlink_all(idx0);
                while idx != NIL {
                    let (entry, next) = self.release(idx);
                    self.ready.push(entry);
                    idx = next;
                }
                self.in_slots -= self.ready.len();
                self.ready
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
                continue;
            }
            self.advance();
        }
    }

    /// Moves the cursor to the next occupied slot, cascading higher-level
    /// buckets down as their windows open.
    fn advance(&mut self) {
        for level in 0..LEVELS {
            let shift = SLOT_BITS * level as u32;
            let idx = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as u32;
            // Bits strictly above the cursor's slot: slots at or below it
            // hold no entries (level 0's current slot was just drained, and
            // pushes can never target an already-passed window).
            let pending = self.occupied[level] & (u64::MAX << idx << 1);
            if pending == 0 {
                continue;
            }
            let slot = pending.trailing_zeros() as u64;
            let unit = 1u64 << shift;
            let window_base = self.cursor & !((unit << SLOT_BITS) - 1);
            self.cursor = window_base + slot * unit;
            if level > 0 {
                self.cascade(level * SLOTS + slot as usize);
            }
            return;
        }
        debug_assert!(self.in_slots == 0, "entries queued but no slot found");
    }

    /// Relinks a higher-level slot's cells into the finer levels now that
    /// the cursor sits at its window start; no entry moves.
    fn cascade(&mut self, bucket: usize) {
        let mut idx = self.unlink_all(bucket);
        while idx != NIL {
            let next = self.nodes[idx as usize].next;
            let to = self.bucket_of(self.entry(idx).time);
            self.link(to, idx);
            idx = next;
        }
    }

    /// Jumps the cursor to the overflow's earliest window and folds every
    /// overflow entry inside the wheel's new horizon back in. Returns
    /// whether anything was recovered.
    fn refill_from_overflow(&mut self) -> bool {
        let Some(std::cmp::Reverse(head)) = self.overflow.peek() else {
            return false;
        };
        self.cursor = self.cursor.max(head.time);
        while let Some(std::cmp::Reverse(e)) = self.overflow.peek() {
            if (e.time >> CAPACITY_BITS) != (self.cursor >> CAPACITY_BITS) {
                break;
            }
            let std::cmp::Reverse(e) = self.overflow.pop().expect("peeked");
            self.push(e.time, e.seq, e.item);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The bookkeeping every operation must keep: a slot's occupancy bit is
    /// set exactly when its list is non-empty, `in_slots` counts the listed
    /// entries, and every arena cell is either listed live or free — none
    /// leaks, none is in two lists.
    fn assert_bookkeeping<T>(w: &TimerWheel<T>) {
        let walk = |mut idx: u32| {
            let mut cells = Vec::new();
            while idx != NIL {
                assert!(cells.len() < w.nodes.len(), "list cycles");
                cells.push(idx);
                idx = w.nodes[idx as usize].next;
            }
            cells
        };
        let mut seen = vec![false; w.nodes.len()];
        let mut listed = 0;
        for level in 0..LEVELS {
            for slot in 0..SLOTS {
                let cells = walk(w.heads[level * SLOTS + slot]);
                let bit = w.occupied[level] & (1 << slot) != 0;
                assert_eq!(bit, !cells.is_empty(), "level {level} slot {slot}");
                for &i in &cells {
                    assert!(
                        w.nodes[i as usize].entry.is_some(),
                        "listed cell {i} is free"
                    );
                    assert!(
                        !std::mem::replace(&mut seen[i as usize], true),
                        "cell {i} twice"
                    );
                }
                listed += cells.len();
            }
        }
        assert_eq!(w.in_slots, listed);
        let free = walk(w.free);
        for &i in &free {
            assert!(w.nodes[i as usize].entry.is_none(), "free cell {i} is live");
            assert!(
                !std::mem::replace(&mut seen[i as usize], true),
                "cell {i} twice"
            );
        }
        assert_eq!(listed + free.len(), w.nodes.len(), "an arena cell leaked");
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.push(5, 1, 'a');
        w.push(5, 3, 'c');
        w.push(5, 2, 'b');
        w.push(1, 4, 'z');
        let order: Vec<char> = std::iter::from_fn(|| w.pop().map(|e| e.item)).collect();
        assert_eq!(order, vec!['z', 'a', 'b', 'c']);
    }

    #[test]
    fn empty_wheel_peeks_and_pops_none() {
        let mut w: TimerWheel<()> = TimerWheel::new();
        assert_eq!(w.peek_time(), None);
        assert!(w.pop().is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn same_instant_push_during_drain_pops_after_ready_batch() {
        let mut w = TimerWheel::new();
        w.push(10, 1, 'a');
        w.push(10, 2, 'b');
        assert_eq!(w.pop().map(|e| e.item), Some('a'));
        // A zero-delay event produced while dispatching 'a'.
        w.push(10, 3, 'c');
        assert_eq!(w.pop().map(|e| e.item), Some('b'));
        assert_eq!(w.pop().map(|e| e.item), Some('c'));
    }

    #[test]
    fn sparse_far_apart_times_pop_correctly() {
        let mut w = TimerWheel::new();
        // One entry per level's scale, plus an overflow entry.
        let times = [
            3u64,
            70,
            5_000,
            300_000,
            20_000_000,
            1_500_000_000,
            1u64 << 40, // beyond the 2^36 horizon
        ];
        for (i, &t) in times.iter().enumerate() {
            w.push(t, i as u64 + 1, t);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| w.pop().map(|e| e.item)).collect();
        assert_eq!(popped, times);
    }

    #[test]
    fn cross_window_boundary_order_is_preserved() {
        // Entries straddling a level-1 boundary (time 63 vs 64) and a
        // level-2 boundary (4095 vs 4096), pushed out of order.
        let mut w = TimerWheel::new();
        w.push(64, 1, 64u64);
        w.push(63, 2, 63);
        w.push(4096, 3, 4096);
        w.push(4095, 4, 4095);
        let popped: Vec<u64> = std::iter::from_fn(|| w.pop().map(|e| e.item)).collect();
        assert_eq!(popped, vec![63, 64, 4095, 4096]);
    }

    #[test]
    fn past_time_push_pops_immediately_with_original_time() {
        let mut w = TimerWheel::new();
        w.push(100, 1, ());
        assert_eq!(w.pop().map(|e| e.time), Some(100));
        // The cursor sits at 100; a late push for t=40 pops next.
        w.push(200, 2, ());
        w.push(40, 3, ());
        let e = w.pop().expect("late entry");
        assert_eq!((e.time, e.seq), (40, 3));
        assert_eq!(w.pop().map(|e| e.time), Some(200));
    }

    #[test]
    fn past_time_push_outranks_the_drained_current_batch() {
        // A late push must pop before same-instant entries that were
        // already drained into the ready batch — exactly what a min-heap
        // would do.
        let mut w = TimerWheel::new();
        w.push(10, 1, 1u32);
        w.push(10, 2, 2);
        assert_eq!(w.pop().map(|e| e.item), Some(1));
        w.push(5, 3, 3); // late, while (10, 2) sits in the ready batch
        let e = w.pop().expect("late entry first");
        assert_eq!((e.time, e.seq, e.item), (5, 3, 3));
        assert_eq!(w.pop().map(|e| e.item), Some(2));
        assert!(w.pop().is_none());
    }

    #[test]
    fn peek_matches_next_pop_and_len_tracks() {
        let mut w = TimerWheel::new();
        for i in 0..100u64 {
            w.push(i * 37 % 911, i + 1, i);
        }
        assert_eq!(w.len(), 100);
        let mut n = 0;
        while let Some(t) = w.peek_time() {
            let e = w.pop().expect("peeked");
            assert_eq!(e.time, t);
            n += 1;
        }
        assert_eq!(n, 100);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn push_at_exactly_the_overflow_horizon_boundary() {
        // With the cursor at 0, the horizon's last in-wheel instant is
        // 2^CAPACITY_BITS - 1 and the very next microsecond must overflow —
        // and both must still pop in order, including an entry pushed at
        // the exact boundary after the wheel jumps windows.
        const HORIZON: u64 = 1 << CAPACITY_BITS;
        let mut w = TimerWheel::new();
        w.push(HORIZON - 1, 1, "last-in-wheel");
        w.push(HORIZON, 2, "first-overflow");
        assert_eq!(w.overflow.len(), 1, "boundary entry must overflow");
        assert_eq!(w.peek_time(), Some(HORIZON - 1));
        assert_eq!(w.pop().map(|e| e.item), Some("last-in-wheel"));
        assert_eq!(w.pop().map(|e| e.item), Some("first-overflow"));
        // The refill moved the cursor into the second window: a same-window
        // push lands in the slots, the third window's base overflows again.
        w.push(HORIZON + 5, 3, "second-window");
        assert_eq!(w.overflow.len(), 0);
        w.push(2 * HORIZON, 4, "third-window");
        assert_eq!(w.overflow.len(), 1);
        assert_eq!(w.pop().map(|e| e.item), Some("second-window"));
        assert_eq!(w.pop().map(|e| e.item), Some("third-window"));
        assert!(w.pop().is_none());
    }

    /// The load-bearing property: the wheel pops the exact sequence a
    /// min-heap pops, under randomized interleaved pushes, pops and
    /// `retain` filters across every level's time scale.
    #[test]
    fn matches_binary_heap_under_random_interleaving() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(0x5EED ^ (seed * 7919 + 1));
            let mut wheel = TimerWheel::new();
            let mut heap: BinaryHeap<std::cmp::Reverse<WheelEntry<u64>>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for _ in 0..4_000 {
                if rng.gen_bool(0.02) {
                    // Drop a pseudo-random share of entries, wherever they
                    // wait: ready batch, level slots or overflow.
                    let (modulus, salt) = (rng.gen_range(2..6u64), rng.gen_range(0..6u64));
                    let keep = |e: &WheelEntry<u64>| !(e.item ^ salt).is_multiple_of(modulus);
                    wheel.retain(keep);
                    heap.retain(|std::cmp::Reverse(e)| keep(e));
                    assert_eq!(wheel.len(), heap.len());
                    assert_bookkeeping(&wheel);
                } else if rng.gen_bool(0.55) || heap.is_empty() {
                    seq += 1;
                    // Mix deltas across the wheel's scales, including 0.
                    let delta = match rng.gen_range(0u32..6) {
                        0 => 0,
                        1 => rng.gen_range(0..64),
                        2 => rng.gen_range(0..4_096),
                        3 => rng.gen_range(0..262_144),
                        4 => rng.gen_range(0..16_777_216),
                        _ => rng.gen_range(0..(1u64 << 38)), // into overflow
                    };
                    let t = now + delta;
                    wheel.push(t, seq, seq);
                    heap.push(std::cmp::Reverse(WheelEntry {
                        time: t,
                        seq,
                        item: seq,
                    }));
                } else {
                    let expect = heap.pop().expect("non-empty").0;
                    let got = wheel.pop().expect("wheel has same entries");
                    assert_eq!((got.time, got.seq), (expect.time, expect.seq));
                    now = expect.time;
                }
            }
            assert_bookkeeping(&wheel);
            while let Some(std::cmp::Reverse(expect)) = heap.pop() {
                let got = wheel.pop().expect("drain");
                assert_eq!((got.time, got.seq), (expect.time, expect.seq));
            }
            assert!(wheel.pop().is_none());
            assert_bookkeeping(&wheel);
        }
    }

    /// Cells freed by drains, cascades' targets and `retain` are what later
    /// pushes take: refilling the same number of entries reuses the arena
    /// instead of growing it.
    #[test]
    fn arena_cells_are_reused_across_refills() {
        let mut w = TimerWheel::new();
        let mut seq = 0u64;
        for round in 0..5u64 {
            let base = round * 100_000_000;
            for i in 0..300u64 {
                seq += 1;
                // Spread over levels 0-4 from the cursor.
                w.push(base + (i * 7_919) % 50_000_000, seq, i);
            }
            // Drop a third, then drain the rest.
            w.retain(|e| e.item % 3 != 0);
            assert_bookkeeping(&w);
            while w.pop().is_some() {}
            assert_bookkeeping(&w);
            assert_eq!(w.nodes.len(), 300, "round {round}");
        }
    }
}
