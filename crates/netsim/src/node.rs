//! Node identity, the protocol-stack trait, and the callback context.
//!
//! Protocol stacks (NDN forwarders, DAPES peers, Bithoc/Ekta peers) implement
//! [`NetStack`]. Callbacks receive a [`NodeCtx`] that *buffers* commands —
//! frame transmissions, timer arms/cancels — which the world applies after
//! the callback returns, so stacks never re-enter the simulator.

use crate::payload::Payload;
use crate::radio::{Frame, FrameKind};
use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use std::any::Any;
use std::fmt;

/// Identifies a node in the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Handle to a pending timer, usable to cancel it.
///
/// The handle packs a slot index and a generation tag: the world stores
/// timers in a slab of reusable slots, and the generation distinguishes a
/// live timer from a later tenant of the same slot, so cancelling an
/// already-fired handle is a guaranteed no-op.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerHandle(pub(crate) u64);

impl TimerHandle {
    fn pack(slot: u32, generation: u32) -> Self {
        TimerHandle(((generation as u64) << 32) | slot as u64)
    }

    fn unpack(self) -> (usize, u32) {
        (self.0 as u32 as usize, (self.0 >> 32) as u32)
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct TimerSlot {
    generation: u32,
    armed: bool,
    cancelled: bool,
}

/// Generation-tagged timer slots with a free list.
///
/// This replaces the old `cancelled_timers: HashSet<u64>` scheme, which had
/// two costs: cancellation was a hash insert probed again on every timer
/// pop, and cancelling an already-fired timer left its id in the set for
/// the rest of the run (an unbounded leak in long simulations). Here a
/// cancel is a bounds-checked array write, and a slot is returned to the
/// free list when its timer retires: when its event pops (fired, cancelled,
/// or both), or when the world purges a cancelled timer's entry from the
/// queue early. Allocated slots are therefore bounded by the timers armed
/// at once plus the cancelled ones the world has not purged yet, not by
/// the total armed over the run.
#[derive(Debug, Default)]
pub(crate) struct TimerSlab {
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
}

impl TimerSlab {
    /// Claims a slot for a newly armed timer.
    pub(crate) fn arm(&mut self) -> TimerHandle {
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(TimerSlot::default());
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[idx as usize];
        slot.armed = true;
        slot.cancelled = false;
        TimerHandle::pack(idx, slot.generation)
    }

    /// Marks a timer cancelled. Returns whether this cancelled an armed
    /// timer for the first time; a second cancel, a cancel after the timer
    /// fired and a stale handle (from a previous tenant of the slot) are
    /// no-ops and return `false`.
    pub(crate) fn cancel(&mut self, handle: TimerHandle) -> bool {
        let (idx, generation) = handle.unpack();
        match self.slots.get_mut(idx) {
            Some(slot) if slot.armed && slot.generation == generation && !slot.cancelled => {
                slot.cancelled = true;
                true
            }
            _ => false,
        }
    }

    /// Whether `handle` names an armed timer that has been cancelled.
    pub(crate) fn is_cancelled(&self, handle: TimerHandle) -> bool {
        let (idx, generation) = handle.unpack();
        self.slots
            .get(idx)
            .is_some_and(|s| s.armed && s.cancelled && s.generation == generation)
    }

    /// Retires a timer when its event pops (or is purged), freeing the
    /// slot for reuse. Returns whether the timer callback should run (i.e.
    /// not cancelled).
    pub(crate) fn fire(&mut self, handle: TimerHandle) -> bool {
        let (idx, generation) = handle.unpack();
        match self.slots.get_mut(idx) {
            Some(slot) if slot.armed && slot.generation == generation => {
                let live = !slot.cancelled;
                slot.armed = false;
                slot.cancelled = false;
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push(idx as u32);
                live
            }
            _ => false,
        }
    }

    /// Timers currently armed (slots not on the free list).
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slots ever allocated — bounded by the peak number of timers armed
    /// at once (cancelled ones awaiting a purge included), not by the total
    /// armed over the run.
    pub(crate) fn allocated(&self) -> usize {
        self.slots.len()
    }
}

/// Outcome of a frame transmission, reported to the sender.
///
/// `collided` is true when another transmission overlapped in time with ours
/// and its sender was within our radio range — i.e. we could have heard the
/// contention ourselves, which is how DAPES's PEBA detects bitmap collisions
/// (paper §IV-F).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxOutcome {
    /// The kind tag the stack attached to the frame.
    pub kind: FrameKind,
    /// Token the stack attached when sending, for correlating outcomes.
    pub token: u64,
    /// Whether the transmission overlapped another audible transmission.
    pub collided: bool,
}

/// A protocol stack living on one node.
///
/// All methods take `&mut self` plus a command-buffering [`NodeCtx`];
/// callbacks never nest, and each stack is only ever driven by one event
/// loop at a time. The `Send` bound lets a whole `World` (stacks included)
/// move to a worker thread, so independent trials can run in parallel —
/// stacks need no internal locking.
pub trait NetStack: Send {
    /// Invoked once at simulation start.
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>);

    /// A frame was received (wireless is broadcast: every frame any in-range
    /// node transmits arrives here, which is also how overhearing works).
    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &Frame);

    /// A timer armed through [`NodeCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64);

    /// One of this node's transmissions finished (with collision feedback).
    fn on_tx_done(&mut self, _ctx: &mut NodeCtx<'_>, _outcome: TxOutcome) {}

    /// Bytes of live protocol state, the paper's Table I memory-overhead
    /// proxy. Stacks should report their CS/PIT/knowledge-store footprint.
    fn live_state_bytes(&self) -> usize {
        0
    }

    /// Downcast support for extracting metrics after a run.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A buffered command produced during a stack callback.
#[derive(Debug)]
pub(crate) enum Command {
    Send {
        payload: Payload,
        kind: FrameKind,
        token: u64,
        delay: SimDuration,
    },
    SetTimer {
        handle: TimerHandle,
        at: SimTime,
        token: u64,
    },
    CancelTimer {
        handle: TimerHandle,
    },
}

/// One transmission's per-frame memo: whatever one receiver of a broadcast
/// works out from the frame bytes, every later receiver of the same
/// transmission may reuse instead of working it out again.
///
/// The delivery batch owns it and lends it, by value, through the
/// [`NodeCtx`] of each receiver's [`NetStack::on_frame`] in turn, receivers
/// ascending; it is dropped with the batch. Timers and
/// [`NetStack::on_tx_done`] get none. Reached through
/// [`NodeCtx::with_frame_memo`].
#[derive(Default)]
pub(crate) struct FrameMemo(Option<Box<dyn Any + Send>>);

/// The context handed to every [`NetStack`] callback.
pub struct NodeCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The node this callback runs on.
    pub node: NodeId,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) commands: Vec<Command>,
    pub(crate) timers: &'a mut TimerSlab,
    pub(crate) api_calls: &'a mut u64,
    pub(crate) state_inserts: &'a mut u64,
    /// The frame memo on loan to this callback: `Some` only in `on_frame`.
    pub(crate) memo: Option<FrameMemo>,
}

impl<'a> NodeCtx<'a> {
    /// Queues a broadcast frame for transmission after `delay`.
    ///
    /// The delay models protocol-level jitter (e.g. DAPES's 20 ms random
    /// transmission window); the MAC adds carrier-sense deferral on top.
    /// `token` is echoed in [`TxOutcome`] so stacks can tell which of their
    /// transmissions collided.
    ///
    /// Accepts anything convertible to a shared [`Payload`] — a `Vec<u8>`
    /// for freshly built frames, or a `Payload` clone (e.g. an upper-layer
    /// wire cache) for a zero-copy send.
    pub fn send_frame(
        &mut self,
        payload: impl Into<Payload>,
        kind: FrameKind,
        token: u64,
        delay: SimDuration,
    ) {
        *self.api_calls += 1;
        self.commands.push(Command::Send {
            payload: payload.into(),
            kind,
            token,
            delay,
        });
    }

    /// Arms a timer to fire at `self.now + delay`, delivering `token` to
    /// [`NetStack::on_timer`]. Returns a handle usable with
    /// [`NodeCtx::cancel_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerHandle {
        *self.api_calls += 1;
        let handle = self.timers.arm();
        let at = self.now + delay;
        self.commands.push(Command::SetTimer { handle, at, token });
        handle
    }

    /// Cancels a previously armed timer. Cancelling an already-fired timer
    /// is a harmless no-op.
    pub fn cancel_timer(&mut self, handle: TimerHandle) {
        *self.api_calls += 1;
        self.commands.push(Command::CancelTimer { handle });
    }

    /// Deterministic randomness for protocol jitter.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Records `n` state-table insertions (the Table I page-fault proxy).
    pub fn note_state_inserts(&mut self, n: u64) {
        *self.state_inserts += n;
    }

    /// Runs `f` with the memo of the transmission being delivered, as a
    /// `T`: the value an earlier receiver of the same transmission left
    /// there, or a fresh `T::default()` for the first receiver — and for a
    /// receiver asking for a different type than the memo holds, whose
    /// fresh value then replaces it. Returns `None`, without running `f`,
    /// outside [`NetStack::on_frame`] (and inside `f` itself).
    ///
    /// The memo must only hold what is a pure function of the frame bytes:
    /// every receiver sees the same frame, but not the same state.
    pub fn with_frame_memo<T, R>(&mut self, f: impl FnOnce(&mut Self, &mut T) -> R) -> Option<R>
    where
        T: Any + Send + Default,
    {
        let mut memo = self.memo.take()?;
        let mut value = match memo.0.take().map(|held| held.downcast::<T>()) {
            Some(Ok(held)) => held,
            _ => Box::<T>::default(),
        };
        let out = f(self, &mut value);
        memo.0 = Some(value);
        self.memo = Some(memo);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ctx_buffers_commands_and_counts_api_calls() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut timers = TimerSlab::default();
        let mut api = 0u64;
        let mut ins = 0u64;
        let mut ctx = NodeCtx {
            now: SimTime::from_secs(1),
            node: NodeId(3),
            rng: &mut rng,
            commands: Vec::new(),
            timers: &mut timers,
            api_calls: &mut api,
            state_inserts: &mut ins,
            memo: None,
        };
        ctx.send_frame(vec![1, 2, 3], FrameKind(7), 0, SimDuration::ZERO);
        let h = ctx.set_timer(SimDuration::from_millis(5), 42);
        ctx.cancel_timer(h);
        ctx.note_state_inserts(2);
        let commands = ctx.commands;
        assert_eq!(commands.len(), 3);
        assert_eq!(api, 3);
        assert_eq!(ins, 2);
        match &commands[1] {
            Command::SetTimer { at, token, .. } => {
                assert_eq!(*at, SimTime::from_micros(1_005_000));
                assert_eq!(*token, 42);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn timer_handles_are_unique() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut timers = TimerSlab::default();
        let mut api = 0u64;
        let mut ins = 0u64;
        let mut ctx = NodeCtx {
            now: SimTime::ZERO,
            node: NodeId(0),
            rng: &mut rng,
            commands: Vec::new(),
            timers: &mut timers,
            api_calls: &mut api,
            state_inserts: &mut ins,
            memo: None,
        };
        let a = ctx.set_timer(SimDuration::ZERO, 0);
        let b = ctx.set_timer(SimDuration::ZERO, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn slab_recycles_slots_and_distinguishes_generations() {
        let mut slab = TimerSlab::default();
        let a = slab.arm();
        assert_eq!(slab.live(), 1);
        assert!(slab.fire(a), "uncancelled timer fires");
        assert_eq!(slab.live(), 0);
        // The slot is reused with a bumped generation: the old handle is
        // stale for both cancel and fire.
        let b = slab.arm();
        assert_eq!(slab.allocated(), 1, "slot must be reused");
        assert_ne!(a, b);
        assert!(!slab.cancel(a), "stale: must not affect the new tenant");
        assert!(slab.fire(b), "new tenant unaffected by stale cancel");
        assert!(!slab.fire(b), "double fire is a no-op");
    }

    #[test]
    fn slab_cancel_suppresses_fire_and_frees_slot() {
        let mut slab = TimerSlab::default();
        let h = slab.arm();
        assert!(!slab.is_cancelled(h));
        assert!(slab.cancel(h), "first cancel of an armed timer counts");
        assert!(slab.is_cancelled(h));
        assert!(!slab.cancel(h), "a second cancel is a no-op");
        assert_eq!(slab.live(), 1, "cancelled slot freed only when it retires");
        assert!(!slab.fire(h), "cancelled timer must not fire");
        assert_eq!(slab.live(), 0);
        assert!(!slab.is_cancelled(h), "a retired handle is stale");
        assert!(!slab.cancel(h), "a cancel after retirement is a no-op");
    }

    #[test]
    fn slab_cancel_after_fire_is_not_counted() {
        let mut slab = TimerSlab::default();
        let h = slab.arm();
        assert!(slab.fire(h));
        assert!(!slab.cancel(h), "a cancel after the timer fired is a no-op");
        assert!(!slab.is_cancelled(h));
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn slab_does_not_leak_under_cancel_churn() {
        // The regression the slab redesign fixes: the old HashSet kept every
        // cancelled-after-fire id forever. Armed/cancelled/fired cycles must
        // leave allocation bounded by peak concurrency, not total volume.
        let mut slab = TimerSlab::default();
        for round in 0..10_000u64 {
            let a = slab.arm();
            let b = slab.arm();
            assert!(slab.cancel(b));
            assert!(slab.fire(a));
            assert!(!slab.fire(b));
            if round % 2 == 0 {
                assert!(!slab.cancel(a), "cancel after fire: harmless no-op");
            }
            assert_eq!(slab.live(), 0, "round {round} leaked a slot");
        }
        assert!(
            slab.allocated() <= 2,
            "allocation grew past peak concurrency: {}",
            slab.allocated()
        );
    }
}
