//! The simulation world: event loop, CSMA MAC, and frame delivery.
//!
//! # Model
//!
//! * **Broadcast medium.** Every transmission reaches every node within
//!   `range` metres of the sender (unit disk), minus collision and random
//!   loss. There is no unicast at the MAC layer; addressing is an
//!   upper-layer concern, and *overhearing is the default*, which is what
//!   DAPES's §V multi-hop design exploits.
//! * **Carrier sense.** A node defers transmission while it can hear another
//!   transmission, then backs off DIFS + uniform slots with a doubling
//!   contention window.
//! * **Collisions.** A receiver drops a frame when any other transmission
//!   audible to *it* overlaps the frame in time (no capture effect). A
//!   half-duplex node also cannot receive while transmitting. Senders learn
//!   whether their own transmission overlapped an audible one via
//!   [`TxOutcome::collided`] — the signal PEBA reacts to.
//! * **Loss.** Independent Bernoulli loss per receiver (paper: 10 %).

use crate::exec::ExecProfile;
use crate::fault::{FaultAction, FaultPlan};
use crate::geometry::Point;
use crate::grid::{NodeSet, SpatialGrid};
use crate::mobility::Mobility;
use crate::node::{Command, FrameMemo, NetStack, NodeCtx, NodeId, TimerHandle, TxOutcome};
use crate::payload::Payload;
use crate::radio::{self, Frame, FrameKind};
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};
use crate::wheel::{ArenaNode, TimerWheel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// Builds the replacement stack for a node being restarted by a
/// [`FaultAction::Restart`]. The second argument is the crashed incarnation
/// (the "wreck"), available for downcast-and-salvage; `None` when the crash
/// predates any factory or the node left permanently. `Send` so a whole
/// [`World`] can move to a worker thread (independent trials in parallel).
pub type StackFactory = Box<dyn FnMut(NodeId, Option<&dyn NetStack>) -> Box<dyn NetStack> + Send>;

/// Static configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Field dimensions in metres (paper: 300 × 300).
    pub field: (f64, f64),
    /// Radio range in metres (paper sweeps 20–100).
    pub range: f64,
    /// Independent per-receiver frame-loss probability in `[0, 1]` (paper:
    /// 10 %). The rest of the PHY is fixed 802.11b ([`radio`]).
    pub loss_rate: f64,
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Source-compatibility placeholder with no content (see
    /// [`ExecProfile`]); ROADMAP item 0 removes it.
    pub exec: ExecProfile,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            field: (300.0, 300.0),
            range: 60.0,
            loss_rate: 0.10,
            seed: 1,
            exec: ExecProfile,
        }
    }
}

#[derive(Debug)]
struct PendingFrame {
    payload: Payload,
    kind: FrameKind,
    token: u64,
}

#[derive(Debug)]
struct MacState {
    queue: VecDeque<PendingFrame>,
    transmitting: bool,
    cw: u32,
    /// Earliest carrier-sense retry currently in the event queue, if any.
    /// Deferrals whose retry time lands at or after it are batched onto
    /// that one event instead of queueing another: a busy burst ends with
    /// one retry wake-up per node, not one per overheard transmission.
    retry_at: Option<SimTime>,
}

struct NodeSlot {
    mobility: Box<dyn Mobility>,
    mac: MacState,
    /// Incarnation counter, bumped on crash/leave. Timer and delayed-send
    /// events carry the epoch they were armed under; a mismatch at dispatch
    /// means the arming incarnation is dead and the event is suppressed
    /// (its slab slot is still freed), so a restarted stack can never
    /// receive a predecessor's callbacks.
    epoch: u32,
    /// A stack parked outside the dispatch path: the wreck of a crashed
    /// node (kept as the salvage source for a restart) or a late joiner
    /// waiting for its `FaultAction::Join`.
    dormant: Option<Box<dyn NetStack>>,
}

#[derive(Debug)]
struct ActiveTx {
    id: u64,
    sender: NodeId,
    sender_pos: Point,
    start: SimTime,
    end: SimTime,
    kind: FrameKind,
    payload: Payload,
    token: u64,
    seq: u64,
}

/// One transmission's precomputed deliveries, carried by its single
/// [`EventKind::DeliverBatch`] arrival event. Boxed in the event so the
/// queue entry stays pointer-sized.
#[derive(Debug)]
struct DeliveryBatch {
    frame: Frame,
    /// Receivers that passed the range/collision/loss checks, ascending by
    /// node id (the grid's candidate order).
    receivers: Vec<NodeId>,
    sender: NodeId,
    outcome: TxOutcome,
}

#[derive(Debug)]
enum EventKind {
    Timer {
        node: NodeId,
        token: u64,
        handle: TimerHandle,
        /// The node incarnation that armed the timer (see [`NodeSlot::epoch`]).
        epoch: u32,
    },
    MacEnqueue {
        node: NodeId,
        /// The node incarnation that issued the delayed send.
        epoch: u32,
        /// Boxed: a `PendingFrame` is wider than every other variant, and
        /// every queue entry would pay for it inline.
        frame: Box<PendingFrame>,
    },
    MacTry {
        node: NodeId,
    },
    TxEnd {
        tx_id: u64,
    },
    MobilityChange {
        node: NodeId,
    },
    /// The one arrival event of a whole transmission.
    DeliverBatch(Box<DeliveryBatch>),
    /// One scripted fault from the world's [`FaultPlan`], by action index.
    Fault {
        idx: u32,
    },
}

// Million-entry queues only stay cache-resident if entries stay small: the
// fat payloads (pending frames, delivery batches) are boxed, so a wheel entry
// is the 16-byte `(time, seq)` key plus a few words of kind.
const _: () = assert!(std::mem::size_of::<EventKind>() <= 32);
// A queued entry's arena cell is that entry plus one link.
const _: () = assert!(std::mem::size_of::<ArenaNode<EventKind>>() <= 56);

/// Heap bytes the event queue holds, at allocated capacity
/// ([`World::queue_bytes`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueBytes {
    /// The timer wheel: its entry arena, ready batch and overflow heap.
    pub wheel: usize,
    /// Due times of purged cancelled timers, kept only for
    /// [`Stats::event_dispatches`].
    pub ghosts: usize,
}

/// Cancelled timers the queue may hold before a purge is considered: fewer
/// hold too little memory to be worth a pass over the queue.
const PURGE_FLOOR: usize = 256;

/// The discrete-event simulator.
///
/// # Examples
///
/// ```
/// use dapes_netsim::prelude::*;
///
/// let mut world = World::new(WorldConfig::default());
/// // (add nodes with `add_node`, then)
/// world.run_until(SimTime::from_secs(10));
/// assert_eq!(world.now(), SimTime::from_secs(10));
/// ```
pub struct World {
    cfg: WorldConfig,
    now: SimTime,
    /// Pending events, popped in exact `(time, event_seq)` order.
    queue: TimerWheel<EventKind>,
    event_seq: u64,
    nodes: Vec<NodeSlot>,
    /// Each node's running stack, `None` while it is down (crashed, left,
    /// not yet joined) — and, for the node in a callback, while that
    /// callback runs. Dense beside `nodes`, so delivery's liveness check
    /// on an in-range receiver reads two words, not its whole slot.
    stacks: Vec<Option<Box<dyn NetStack>>>,
    active_tx: Vec<ActiveTx>,
    next_tx_id: u64,
    next_frame_seq: u64,
    timers: crate::node::TimerSlab,
    /// Cancelled timers whose entries are still in `queue`. Once they
    /// outnumber the rest (above [`PURGE_FLOOR`]), one `retain` pass drops
    /// them all, so a cancel costs amortised O(1) and a far-future timer
    /// cancelled early does not hold memory until it is due.
    cancelled_queued: usize,
    /// Due times (µs) of the cancelled timers a purge dropped, earliest
    /// first. Each is still counted in [`Stats::event_dispatches`] once the
    /// run has passed where its entry would have popped — at a run's
    /// deadline, or at the end of each instant `run_until_cond` drains —
    /// so the count, part of every trace fingerprint, reads as if nothing
    /// were purged. This heap exists only for that
    /// count and goes once `event_dispatches` stops counting cancelled
    /// timers (ROADMAP item 4(c)).
    ghosts: BinaryHeap<Reverse<u64>>,
    /// Free list of command buffers recycled across stack callbacks.
    cmd_pool: Vec<Vec<Command>>,
    /// Free list of receiver vectors recycled through delivery batches, so
    /// a transmission schedules its arrival event without a fresh
    /// allocation.
    recv_pool: Vec<Vec<NodeId>>,
    /// Scratch buffer of sender positions whose transmissions overlap the
    /// one being delivered, computed once per transmission so the
    /// per-receiver collision check scans only actual overlaps instead of
    /// the whole interference history.
    overlap_buf: Vec<Point>,
    rng: SmallRng,
    stats: Stats,
    started: bool,
    grid: SpatialGrid,
    /// Scratch candidate set, drained by every query.
    candidates: NodeSet,
    /// Each node's position while its mobility model is fixed — has no
    /// [`Mobility::next_change`], so nothing will ever move it — and
    /// `None` while it moves. Filled at [`World::add_node`] and whenever a
    /// segment change leaves a model fixed, so delivery reads a stationary
    /// receiver's position from this dense table instead of through its
    /// boxed model.
    fixed_at: Vec<Option<Point>>,
    /// Longest frame air time seen so far, bounding how long a finished
    /// transmission can still matter for collision checks.
    longest_air: SimDuration,
    /// The fault script, indexed by the `Fault` events scheduled at start.
    fault_actions: Vec<(SimTime, FaultAction)>,
    /// Currently severed links as unordered node-id pairs (`min`, `max`).
    links_cut: BTreeSet<(u32, u32)>,
    /// Builds replacement stacks for `FaultAction::Restart`.
    stack_factory: Option<StackFactory>,
}

/// Panics unless `rate` is a probability; a NaN rate would silently
/// disable loss, since `NaN > 0.0` is false.
fn check_loss_rate(rate: f64) {
    assert!(
        (0.0..=1.0).contains(&rate),
        "loss rate out of range: {rate}"
    );
}

/// Canonical (unordered) key for a link between two nodes, so `links_cut`
/// stores each severed pair exactly once regardless of direction.
fn link_key(a: NodeId, b: NodeId) -> (u32, u32) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

impl World {
    /// Creates an empty world.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.loss_rate` is not within `[0, 1]` (NaN included).
    pub fn new(cfg: WorldConfig) -> Self {
        check_loss_rate(cfg.loss_rate);
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let grid = SpatialGrid::new(cfg.field, cfg.range.max(1e-6));
        World {
            now: SimTime::ZERO,
            queue: TimerWheel::new(),
            event_seq: 0,
            nodes: Vec::new(),
            stacks: Vec::new(),
            active_tx: Vec::new(),
            next_tx_id: 0,
            next_frame_seq: 0,
            timers: crate::node::TimerSlab::default(),
            cancelled_queued: 0,
            ghosts: BinaryHeap::new(),
            cmd_pool: Vec::new(),
            recv_pool: Vec::new(),
            overlap_buf: Vec::new(),
            rng,
            stats: Stats::new(0),
            started: false,
            grid,
            candidates: NodeSet::default(),
            fixed_at: Vec::new(),
            longest_air: SimDuration::ZERO,
            fault_actions: Vec::new(),
            links_cut: BTreeSet::new(),
            stack_factory: None,
            cfg,
        }
    }

    /// Adds a node with the given mobility and protocol stack, returning its
    /// id. Nodes must be added before the first `run_until` call.
    ///
    /// # Panics
    ///
    /// Panics if the simulation already started.
    pub fn add_node(&mut self, mobility: Box<dyn Mobility>, stack: Box<dyn NetStack>) -> NodeId {
        assert!(!self.started, "nodes must be added before the run starts");
        let id = NodeId(self.nodes.len() as u32);
        if let Some(t) = mobility.next_change() {
            self.push_event(t, EventKind::MobilityChange { node: id });
        }
        let (a, b) = segment_bounds(mobility.as_ref(), self.now);
        self.grid.insert(id, a, b);
        self.fixed_at
            .push(mobility.next_change().is_none().then_some(a));
        self.stacks.push(Some(stack));
        self.nodes.push(NodeSlot {
            mobility,
            mac: MacState {
                queue: VecDeque::new(),
                transmitting: false,
                cw: radio::CW_MIN,
                retry_at: None,
            },
            epoch: 0,
            dormant: None,
        });
        id
    }

    /// Attaches a fault script: each action becomes one ordinary event in
    /// the shared queue.
    ///
    /// # Panics
    ///
    /// Panics if the simulation already started. Actions naming a node id
    /// that was never added panic when they fire.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            !self.started,
            "fault plans must be set before the run starts"
        );
        self.fault_actions = plan.actions;
    }

    /// Installs the factory that builds replacement stacks for
    /// [`FaultAction::Restart`] events. Required before any restart fires.
    pub fn set_stack_factory(&mut self, factory: StackFactory) {
        self.stack_factory = Some(factory);
    }

    /// Whether `node`'s stack is currently live (not crashed, departed, or
    /// dormant awaiting a late join).
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.stacks[node.0 as usize].is_some()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The configured radio range.
    pub fn range(&self) -> f64 {
        self.cfg.range
    }

    /// Changes the Bernoulli frame-loss rate from now on. The loss draw for
    /// a frame happens when its transmission *ends*, so a frame still on
    /// the air at the switch instant is judged with the new rate — the
    /// behaviour time-varying loss schedules (e.g. a storm passing through
    /// a disaster area) need.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not within `[0, 1]`.
    pub fn set_loss_rate(&mut self, rate: f64) {
        check_loss_rate(rate);
        self.cfg.loss_rate = rate;
    }

    /// Position of `node` at the current time.
    pub fn position_of(&self, node: NodeId) -> Point {
        let idx = node.0 as usize;
        self.fixed_at[idx].unwrap_or_else(|| self.nodes[idx].mobility.position(self.now))
    }

    /// Nodes currently within radio range of `node` (excluding itself),
    /// ascending by id, served from the spatial grid in O(k).
    pub fn neighbors_of(&self, node: NodeId) -> Vec<NodeId> {
        let p = self.position_of(node);
        let mut candidates = NodeSet::default();
        self.grid
            .candidates_into(p, self.cfg.range, &mut candidates);
        candidates
            .drain()
            .filter(|&other| other != node && self.position_of(other).within(&p, self.cfg.range))
            .collect()
    }

    /// Immutable downcast access to a node's stack.
    pub fn stack<T: 'static>(&self, node: NodeId) -> Option<&T> {
        self.stacks[node.0 as usize]
            .as_ref()
            .and_then(|s| s.as_any().downcast_ref::<T>())
    }

    /// Mutable downcast access to a node's stack.
    pub fn stack_mut<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.stacks[node.0 as usize]
            .as_mut()
            .and_then(|s| s.as_any_mut().downcast_mut::<T>())
    }

    /// Sum of [`NetStack::live_state_bytes`] over all nodes — the Table I
    /// memory proxy.
    pub fn live_state_bytes(&self) -> usize {
        self.stacks
            .iter()
            .flatten()
            .map(|s| s.live_state_bytes())
            .sum()
    }

    /// Live state bytes of a single node.
    pub fn node_state_bytes(&self, node: NodeId) -> usize {
        self.stacks[node.0 as usize]
            .as_ref()
            .map_or(0, |s| s.live_state_bytes())
    }

    fn push_event(&mut self, time: SimTime, kind: EventKind) {
        self.event_seq += 1;
        self.queue.push(time.as_micros(), self.event_seq, kind);
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.stats = {
            let mut s = Stats::new(self.nodes.len());
            std::mem::swap(&mut s.event_dispatches, &mut self.stats.event_dispatches);
            std::mem::swap(&mut s.cmd_pool_hits, &mut self.stats.cmd_pool_hits);
            std::mem::swap(&mut s.cmd_pool_misses, &mut self.stats.cmd_pool_misses);
            std::mem::swap(&mut s.arrival_events, &mut self.stats.arrival_events);
            s
        };
        // Schedule the fault script before any `on_start` runs: the fault
        // events' queue positions are then a pure function of the plan.
        // Late joiners are parked dormant here so the start loop skips them.
        for i in 0..self.fault_actions.len() {
            let t = self.fault_actions[i].0;
            let join = match &self.fault_actions[i].1 {
                FaultAction::Join(node) => Some(*node),
                _ => None,
            };
            if let Some(node) = join {
                let idx = node.0 as usize;
                if let Some(stack) = self.stacks[idx].take() {
                    self.nodes[idx].dormant = Some(stack);
                }
            }
            self.push_event(t, EventKind::Fault { idx: i as u32 });
        }
        for i in 0..self.nodes.len() {
            self.with_stack(NodeId(i as u32), |stack, ctx| stack.on_start(ctx));
        }
    }

    /// Runs the event loop until `deadline` (inclusive of events at it).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        while self.next_event_time().is_some_and(|t| t <= deadline) {
            self.step();
        }
        self.fold_ghosts(deadline);
        self.now = deadline.max(self.now);
    }

    /// Counts every purged timer due at or before `upto` as the dispatch
    /// its entry would have been had it stayed queued.
    fn fold_ghosts(&mut self, upto: SimTime) {
        while self
            .ghosts
            .peek()
            .is_some_and(|&Reverse(t)| t <= upto.as_micros())
        {
            self.ghosts.pop();
            self.stats.event_dispatches += 1;
        }
    }

    /// Time of the earliest pending event (the wheel may advance its cursor
    /// over empty slots, hence `&mut`).
    fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time().map(SimTime::from_micros)
    }

    /// Pops the earliest pending event, advances the clock to it and
    /// dispatches it.
    fn step(&mut self) {
        let ev = self.queue.pop().expect("peeked");
        let time = SimTime::from_micros(ev.time);
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.stats.event_dispatches += 1;
        self.dispatch(ev.item);
    }

    /// Runs until `pred` returns true or until `deadline`. Returns `true`
    /// when the predicate fired.
    ///
    /// The predicate is consulted at *instant boundaries*: every event
    /// scheduled at the current simulation instant — a whole transmission's
    /// delivery fan-out included — is dispatched before `pred` runs.
    pub fn run_until_cond<F: FnMut(&World) -> bool>(
        &mut self,
        deadline: SimTime,
        mut pred: F,
    ) -> bool {
        self.ensure_started();
        if pred(self) {
            return true;
        }
        while let Some(t) = self.next_event_time() {
            if t > deadline {
                break;
            }
            // Drain the instant completely (including events the dispatches
            // themselves push at the same time) before checking `pred`.
            loop {
                self.step();
                if self.next_event_time() != Some(t) {
                    break;
                }
            }
            self.fold_ghosts(t);
            if pred(self) {
                return true;
            }
        }
        self.fold_ghosts(deadline);
        self.now = deadline.max(self.now);
        false
    }

    /// Timers whose slots are claimed: armed and not yet retired. A timer
    /// retires when it fires, or — cancelled — when its entry pops or a
    /// purge drops it from the queue. Exposed so tests can assert the timer
    /// slab does not leak.
    pub fn live_timers(&self) -> usize {
        self.timers.live()
    }

    /// Timer slots ever allocated — bounded by the peak of timers armed at
    /// once plus the cancelled ones not yet purged (at most as many again,
    /// or a small floor), not by the total number armed over the run.
    pub fn timer_slots_allocated(&self) -> usize {
        self.timers.allocated()
    }

    /// Heap bytes held by the event queue: the wheel, and separately the
    /// ghost heap of purged cancelled timers.
    pub fn queue_bytes(&self) -> QueueBytes {
        QueueBytes {
            wheel: self.queue.heap_bytes(),
            ghosts: self.ghosts.capacity() * std::mem::size_of::<Reverse<u64>>(),
        }
    }

    /// Drops every cancelled timer from the queue, retiring its slot as
    /// [`TimerSlab::fire`](crate::node::TimerSlab::fire) does at pop and
    /// keeping its due time as a ghost for `event_dispatches`.
    fn purge_cancelled(&mut self) {
        let mut purged = 0;
        self.queue.retain(|e| match e.item {
            EventKind::Timer { handle, .. } if self.timers.is_cancelled(handle) => {
                self.timers.fire(handle);
                self.ghosts.push(Reverse(e.time));
                purged += 1;
                false
            }
            _ => true,
        });
        debug_assert_eq!(purged, self.cancelled_queued, "cancel count drifted");
        self.cancelled_queued = 0;
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Timer {
                node,
                token,
                handle,
                epoch,
            } => {
                // Fire (freeing the slab slot) unconditionally; run the
                // callback only for the incarnation that armed the timer.
                if self.timers.fire(handle) {
                    if self.nodes[node.0 as usize].epoch == epoch {
                        self.with_stack(node, |stack, ctx| stack.on_timer(ctx, token));
                    } else {
                        self.stats.stale_events_suppressed += 1;
                    }
                } else {
                    // A queued timer's slot stays armed until it retires,
                    // so only a cancelled one pops without firing.
                    self.cancelled_queued -= 1;
                }
            }
            EventKind::MacEnqueue { node, epoch, frame } => {
                if self.nodes[node.0 as usize].epoch != epoch {
                    self.stats.stale_events_suppressed += 1;
                    return;
                }
                self.nodes[node.0 as usize].mac.queue.push_back(*frame);
                self.mac_try(node);
            }
            EventKind::MacTry { node } => {
                // This wake-up *is* the recorded retry (or an earlier one
                // that supersedes it); a fresh deferral may schedule anew.
                self.nodes[node.0 as usize].mac.retry_at = None;
                self.mac_try(node);
            }
            EventKind::TxEnd { tx_id } => self.finish_tx(tx_id),
            EventKind::DeliverBatch(batch) => self.dispatch_batch(*batch),
            EventKind::Fault { idx } => self.apply_fault(idx as usize),
            EventKind::MobilityChange { node } => {
                let field = self.cfg.field;
                let slot = &mut self.nodes[node.0 as usize];
                slot.mobility.on_change(self.now, &mut self.rng, field);
                let (a, b) = segment_bounds(slot.mobility.as_ref(), self.now);
                match slot.mobility.next_change() {
                    Some(t) => {
                        let t = t.max(self.now + SimDuration::from_micros(1));
                        self.push_event(t, EventKind::MobilityChange { node });
                    }
                    None => self.fixed_at[node.0 as usize] = Some(a),
                }
                self.grid.update(node, a, b);
            }
        }
    }

    fn apply_fault(&mut self, idx: usize) {
        let action = self.fault_actions[idx].1.clone();
        match action {
            FaultAction::Crash(node) => self.fault_crash(node, true),
            FaultAction::Leave(node) => self.fault_crash(node, false),
            FaultAction::Restart(node) => self.fault_restart(node),
            FaultAction::Join(node) => self.fault_join(node),
            FaultAction::Cut { a, b } => {
                for &x in &a {
                    for &y in &b {
                        if x != y {
                            self.links_cut.insert(link_key(x, y));
                        }
                    }
                }
                self.stats.partitions_cut += 1;
            }
            FaultAction::Heal { a, b } => {
                for &x in &a {
                    for &y in &b {
                        self.links_cut.remove(&link_key(x, y));
                    }
                }
                self.stats.partitions_healed += 1;
            }
        }
    }

    /// Kills a node: the stack leaves the dispatch path, queued MAC frames
    /// are discarded, and the epoch bump suppresses every timer or delayed
    /// send armed by the dead incarnation when it pops. A frame already on
    /// the air completes — `finish_tx` clears `transmitting` as usual, and
    /// its follow-up `MacTry` finds an empty queue. Crashing an already-dead
    /// node is a no-op.
    fn fault_crash(&mut self, node: NodeId, restartable: bool) {
        let idx = node.0 as usize;
        let Some(stack) = self.stacks[idx].take() else {
            return;
        };
        let slot = &mut self.nodes[idx];
        slot.epoch = slot.epoch.wrapping_add(1);
        slot.mac.queue.clear();
        slot.mac.retry_at = None;
        slot.mac.cw = radio::CW_MIN;
        if restartable {
            // Parked outside the dispatch path: receives no callbacks, and
            // exists only so a restart factory can salvage its state.
            slot.dormant = Some(stack);
            self.stats.node_crashes += 1;
        } else {
            slot.dormant = None;
            self.stats.node_leaves += 1;
        }
    }

    /// Boots a fresh stack (from the world's factory) at a crashed node's
    /// position. State is lost except what the factory salvages from the
    /// wreck. Restarting a live node is a no-op.
    fn fault_restart(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if self.stacks[idx].is_some() {
            return;
        }
        let wreck = self.nodes[idx].dormant.take();
        let mut factory = self
            .stack_factory
            .take()
            .expect("FaultAction::Restart requires World::set_stack_factory");
        let fresh = factory(node, wreck.as_deref());
        self.stack_factory = Some(factory);
        self.stacks[idx] = Some(fresh);
        self.stats.node_restarts += 1;
        self.with_stack(node, |stack, ctx| stack.on_start(ctx));
    }

    /// First boot of a late joiner parked dormant since world start.
    fn fault_join(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if self.stacks[idx].is_some() {
            return;
        }
        let Some(stack) = self.nodes[idx].dormant.take() else {
            return;
        };
        self.stacks[idx] = Some(stack);
        self.stats.node_joins += 1;
        self.with_stack(node, |stack, ctx| stack.on_start(ctx));
    }

    /// Runs one callback on `node`'s stack with a command buffer of its own.
    /// A dead node is skipped without claiming a buffer.
    fn with_stack<F: FnOnce(&mut dyn NetStack, &mut NodeCtx<'_>)>(&mut self, node: NodeId, f: F) {
        if self.stacks[node.0 as usize].is_none() {
            return;
        }
        let mut commands = self.claim_commands();
        self.call_stack(node, &mut commands, None, f);
        self.cmd_pool.push(commands);
    }

    /// Takes a command buffer from the free list: callbacks never nest, so
    /// steady state is a single warm allocation for the whole run.
    fn claim_commands(&mut self) -> Vec<Command> {
        match self.cmd_pool.pop() {
            Some(buf) => {
                self.stats.cmd_pool_hits += 1;
                buf
            }
            None => {
                self.stats.cmd_pool_misses += 1;
                Vec::new()
            }
        }
    }

    /// Runs `f` on `node`'s stack (if it is alive) with `commands` as its
    /// buffer and `memo` on loan through its context, then applies what it
    /// buffered, leaving `commands` empty. Hands the memo back.
    fn call_stack<F: FnOnce(&mut dyn NetStack, &mut NodeCtx<'_>)>(
        &mut self,
        node: NodeId,
        commands: &mut Vec<Command>,
        memo: Option<FrameMemo>,
        f: F,
    ) -> Option<FrameMemo> {
        let idx = node.0 as usize;
        let Some(mut stack) = self.stacks[idx].take() else {
            return memo;
        };
        let mut ctx = NodeCtx {
            now: self.now,
            node,
            rng: &mut self.rng,
            commands: std::mem::take(commands),
            timers: &mut self.timers,
            api_calls: &mut self.stats.api_calls,
            state_inserts: &mut self.stats.state_inserts,
            memo,
        };
        f(stack.as_mut(), &mut ctx);
        *commands = ctx.commands;
        let memo = ctx.memo;
        self.stacks[idx] = Some(stack);
        self.apply_commands(node, commands);
        memo
    }

    /// Executes one transmission's whole delivery fan-out — every receiver's
    /// `on_frame`, receivers ascending, then the sender's `on_tx_done` —
    /// inside a single stack-entry round trip: one command buffer is claimed
    /// once and reused across every callback. The receivers share one
    /// [`FrameMemo`], passed from each to the next and dropped here with the
    /// batch, so work that depends only on the frame bytes is done once per
    /// transmission rather than once per receiver.
    fn dispatch_batch(&mut self, batch: DeliveryBatch) {
        let DeliveryBatch {
            frame,
            mut receivers,
            sender,
            outcome,
        } = batch;
        let mut commands = self.claim_commands();
        let mut memo = Some(FrameMemo::default());
        for &receiver in &receivers {
            memo = self.call_stack(receiver, &mut commands, memo, |stack, ctx| {
                stack.on_frame(ctx, &frame)
            });
        }
        drop(memo);
        self.call_stack(sender, &mut commands, None, |stack, ctx| {
            stack.on_tx_done(ctx, outcome)
        });
        self.cmd_pool.push(commands);
        receivers.clear();
        self.recv_pool.push(receivers);
    }

    fn apply_commands(&mut self, node: NodeId, commands: &mut Vec<Command>) {
        for cmd in commands.drain(..) {
            match cmd {
                Command::Send {
                    payload,
                    kind,
                    token,
                    delay,
                } => {
                    let frame = PendingFrame {
                        payload,
                        kind,
                        token,
                    };
                    if delay == SimDuration::ZERO {
                        self.nodes[node.0 as usize].mac.queue.push_back(frame);
                        self.mac_try(node);
                    } else {
                        self.push_event(
                            self.now + delay,
                            EventKind::MacEnqueue {
                                node,
                                epoch: self.nodes[node.0 as usize].epoch,
                                frame: Box::new(frame),
                            },
                        );
                    }
                }
                Command::SetTimer { handle, at, token } => {
                    self.push_event(
                        at.max(self.now),
                        EventKind::Timer {
                            node,
                            token,
                            handle,
                            epoch: self.nodes[node.0 as usize].epoch,
                        },
                    );
                }
                Command::CancelTimer { handle } => {
                    if self.timers.cancel(handle) {
                        self.cancelled_queued += 1;
                        if self.cancelled_queued > PURGE_FLOOR
                            && self.cancelled_queued * 2 > self.queue.len()
                        {
                            self.purge_cancelled();
                        }
                    }
                }
            }
        }
    }

    /// Latest end time of any transmission currently audible at `pos`
    /// (excluding transmissions by `except`). A transmission only becomes
    /// audible to carrier sense [`radio::SENSE_DELAY`] after it starts, so
    /// two nodes deciding to transmit within that window of each other will
    /// collide.
    fn medium_busy_until(&self, pos: Point, except: NodeId) -> Option<SimTime> {
        self.active_tx
            .iter()
            .filter(|tx| tx.end > self.now && tx.sender != except)
            .filter(|tx| tx.start + radio::SENSE_DELAY <= self.now)
            .filter(|tx| tx.sender_pos.within(&pos, self.cfg.range))
            .map(|tx| tx.end)
            .max()
    }

    fn mac_try(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if self.nodes[idx].mac.transmitting || self.nodes[idx].mac.queue.is_empty() {
            return;
        }
        let pos = self.position_of(node);
        if let Some(busy_until) = self.medium_busy_until(pos, node) {
            // Carrier sense: defer to after the busy period plus backoff.
            self.stats.mac_deferrals += 1;
            let mac = &mut self.nodes[idx].mac;
            mac.cw = (mac.cw * 2).min(radio::CW_MAX);
            let slots = self.rng.gen_range(0..self.nodes[idx].mac.cw) as u64;
            let retry = busy_until + radio::DIFS + radio::SLOT * slots;
            // Batch onto an already-queued retry unless this one is
            // strictly earlier — one wake-up per busy burst, not one per
            // deferral.
            if self.nodes[idx].mac.retry_at.is_none_or(|at| retry < at) {
                self.nodes[idx].mac.retry_at = Some(retry);
                self.push_event(retry, EventKind::MacTry { node });
            }
            return;
        }
        let frame = self.nodes[idx]
            .mac
            .queue
            .pop_front()
            .expect("checked non-empty");
        self.nodes[idx].mac.cw = radio::CW_MIN;
        self.nodes[idx].mac.transmitting = true;

        let duration = radio::tx_duration(frame.payload.len());
        self.longest_air = self.longest_air.max(duration);
        self.next_tx_id += 1;
        self.next_frame_seq += 1;
        let tx_id = self.next_tx_id;
        self.stats.record_tx(idx, frame.kind, frame.payload.len());
        self.active_tx.push(ActiveTx {
            id: tx_id,
            sender: node,
            sender_pos: pos,
            start: self.now,
            end: self.now + duration,
            kind: frame.kind,
            payload: frame.payload,
            token: frame.token,
            seq: self.next_frame_seq,
        });
        self.push_event(self.now + duration, EventKind::TxEnd { tx_id });
    }

    fn finish_tx(&mut self, tx_id: u64) {
        // Ids are pushed ascending and `retain` keeps their order.
        debug_assert!(self.active_tx.windows(2).all(|w| w[0].id < w[1].id));
        let Ok(tx_idx) = self.active_tx.binary_search_by_key(&tx_id, |t| t.id) else {
            return;
        };
        let sender = self.active_tx[tx_idx].sender;
        let sender_pos = self.active_tx[tx_idx].sender_pos;
        let (start, end) = (self.active_tx[tx_idx].start, self.active_tx[tx_idx].end);
        let kind = self.active_tx[tx_idx].kind;
        let token = self.active_tx[tx_idx].token;

        self.nodes[sender.0 as usize].mac.transmitting = false;

        // Work out per-receiver outcomes before dispatching any callbacks so
        // that reactions to this frame cannot affect its own delivery. The
        // grid's candidate set drains in ascending node order, so the
        // per-receiver checks — and therefore the loss draws from the
        // shared RNG — run in that order.
        let payload_len = self.active_tx[tx_idx].payload.len() as u64;
        let mut candidates = std::mem::take(&mut self.candidates);
        self.grid
            .candidates_into(sender_pos, self.cfg.range, &mut candidates);
        let mut deliveries: Vec<NodeId> = self.recv_pool.pop().unwrap_or_default();
        // The time-overlap half of the interference test is per-transmission,
        // not per-receiver: filter the history down to the transmissions that
        // actually overlap [start, end) once, and to the senders that could
        // be audible at the sender or at any in-range receiver, so every
        // receiver below only pays a distance check per such sender.
        let mut overlapping = std::mem::take(&mut self.overlap_buf);
        overlapping.clear();
        overlapping.extend(
            self.active_tx
                .iter()
                .filter(|o| o.id != tx_id && o.start < end && o.end > start)
                .map(|o| o.sender_pos)
                .filter(|p| p.may_interfere(&sender_pos, self.cfg.range)),
        );
        for receiver in candidates.drain() {
            let rpos = self.position_of(receiver);
            if receiver == sender
                || !sender_pos.within(&rpos, self.cfg.range)
                || self.stacks[receiver.0 as usize].is_none()
            {
                continue;
            }
            // A cut link suppresses delivery at the receiver without
            // consuming a loss draw — the partition is an addressing/trust
            // severance, not a channel effect, so it must not perturb the
            // RNG stream of unrelated receivers.
            if !self.links_cut.is_empty() && self.links_cut.contains(&link_key(sender, receiver)) {
                self.stats.partition_drops += 1;
                continue;
            }
            // Interference: any other transmission overlapping [start, end)
            // whose sender is audible at the receiver. A transmission by the
            // receiver itself trivially satisfies the distance test, which
            // models half-duplex radios.
            let collided = overlapping.iter().any(|p| p.within(&rpos, self.cfg.range));
            if collided {
                self.stats.collision_drops += 1;
                continue;
            }
            if self.cfg.loss_rate > 0.0 && self.rng.gen::<f64>() < self.cfg.loss_rate {
                self.stats.channel_losses += 1;
                continue;
            }
            deliveries.push(receiver);
        }
        self.candidates = candidates;
        self.stats
            .record_deliveries(kind, deliveries.len(), payload_len as usize);

        // Sender-side collision feedback: another overlapping transmission
        // whose sender we could hear.
        let sender_collided = overlapping
            .iter()
            .any(|p| p.within(&sender_pos, self.cfg.range));
        if sender_collided {
            self.stats.tx_collisions += 1;
        }
        self.overlap_buf = overlapping;

        // Cheap Arc clone: the same buffer the sender encoded is observed
        // by every receiver.
        let frame = Frame {
            src: sender,
            kind,
            payload: self.active_tx[tx_idx].payload.clone(),
            seq: self.active_tx[tx_idx].seq,
        };
        let outcome = TxOutcome {
            kind,
            token,
            collided: sender_collided,
        };

        // Outcomes (and therefore the loss draws) are already settled above;
        // what remains is handing the frame to each receiver's stack, which
        // the one arrival event does when it pops.
        self.stats.arrival_events += 1;
        self.push_event(
            self.now,
            EventKind::DeliverBatch(Box::new(DeliveryBatch {
                frame,
                receivers: deliveries,
                sender,
                outcome,
            })),
        );

        // Keep finished transmissions for interference history exactly as
        // long as they can still matter. A finished transmission A affects
        // a later check only if some frame B with `B.start < A.end`
        // overlaps it; any frame still in flight started no earlier than
        // `now - longest_air`, so entries with `A.end + longest_air <= now`
        // can never overlap another check and are pruned. This keeps the
        // per-delivery collision scan O(frames actually concurrent) even in
        // saturated swarms, where a fixed 100 ms horizon retained hundreds
        // of dead entries.
        let horizon = self.longest_air;
        let now = self.now;
        self.active_tx.retain(|t| t.end + horizon > now);
        // Drain the sender's queue if more frames wait.
        self.push_event(self.now, EventKind::MacTry { node: sender });
    }
}

/// Start and end positions of a mobility model's current segment, used to
/// register the node in the spatial grid. Every mobility model moves each
/// coordinate monotonically within a segment (straight-line motion, possibly
/// clamped to the field), so the bounding box of the two endpoints contains
/// the node's exact position at every instant of the segment.
fn segment_bounds(mobility: &dyn Mobility, now: SimTime) -> (Point, Point) {
    let a = mobility.position(now);
    let b = match mobility.next_change() {
        Some(t) => mobility.position(t.max(now)),
        None => a,
    };
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::Stationary;
    use std::any::Any;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Test stack: broadcasts `n` beacons at fixed intervals and records
    /// everything it hears.
    #[derive(Debug, Default)]
    struct Chatter {
        beacons: u32,
        interval_ms: u64,
        /// Payload bytes per beacon.
        size: usize,
        heard: Vec<(u64, NodeId)>,
        outcomes: Vec<TxOutcome>,
    }

    impl Chatter {
        /// 100-byte beacons.
        fn new(beacons: u32, interval_ms: u64) -> Self {
            Self::sized(beacons, interval_ms, 100)
        }

        /// Beacons of `size` payload bytes.
        fn sized(beacons: u32, interval_ms: u64, size: usize) -> Self {
            Chatter {
                beacons,
                interval_ms,
                size,
                ..Chatter::default()
            }
        }
    }

    impl NetStack for Chatter {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if self.beacons > 0 {
                ctx.set_timer(SimDuration::from_millis(self.interval_ms), 1);
            }
        }
        fn on_frame(&mut self, _ctx: &mut NodeCtx<'_>, frame: &Frame) {
            self.heard.push((frame.seq, frame.src));
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
            assert_eq!(token, 1);
            ctx.send_frame(vec![0xAB; self.size], FrameKind(9), 0, SimDuration::ZERO);
            self.beacons -= 1;
            if self.beacons > 0 {
                ctx.set_timer(SimDuration::from_millis(self.interval_ms), 1);
            }
        }
        fn on_tx_done(&mut self, _ctx: &mut NodeCtx<'_>, outcome: TxOutcome) {
            self.outcomes.push(outcome);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Multi-core means independent trials in parallel, so a whole world
    /// (stacks, mobility and restart factory included) must be movable to a
    /// worker thread. Checked when this module compiles.
    #[test]
    fn world_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<World>();
    }

    fn lossless() -> WorldConfig {
        WorldConfig {
            loss_rate: 0.0,
            ..WorldConfig::default()
        }
    }

    #[test]
    fn in_range_nodes_receive_frames() {
        let mut w = World::new(lossless());
        let a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::new(3, 10)),
        );
        let b = w.add_node(
            Box::new(Stationary::new(Point::new(30.0, 0.0))),
            Box::new(Chatter::new(0, 0)),
        );
        w.run_until(SimTime::from_secs(1));
        let b_stack: &Chatter = w.stack(b).expect("chatter");
        assert_eq!(b_stack.heard.len(), 3);
        assert!(b_stack.heard.iter().all(|&(_, src)| src == a));
    }

    #[test]
    fn out_of_range_nodes_hear_nothing() {
        let mut w = World::new(lossless());
        let _a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::new(3, 10)),
        );
        let b = w.add_node(
            Box::new(Stationary::new(Point::new(100.0, 0.0))), // > 60 m range
            Box::new(Chatter::new(0, 0)),
        );
        w.run_until(SimTime::from_secs(1));
        assert!(w.stack::<Chatter>(b).expect("chatter").heard.is_empty());
    }

    #[test]
    fn simultaneous_transmissions_collide() {
        // Both transmitters fire at exactly t=10ms; the observer, in range
        // of both, must receive neither.
        let mut w = World::new(lossless());
        let _a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::new(1, 10)),
        );
        let _b = w.add_node(
            Box::new(Stationary::new(Point::new(10.0, 0.0))),
            Box::new(Chatter::new(1, 10)),
        );
        let c = w.add_node(
            Box::new(Stationary::new(Point::new(5.0, 5.0))),
            Box::new(Chatter::new(0, 0)),
        );
        w.run_until(SimTime::from_secs(1));
        assert!(w.stack::<Chatter>(c).expect("chatter").heard.is_empty());
        assert!(w.stats().collision_drops >= 1 || w.stats().mac_deferrals >= 1);
    }

    #[test]
    fn hidden_terminal_collision_at_middle_receiver() {
        // A and B are out of range of each other (120 m apart, 60 m range)
        // but both in range of C in the middle: the classic hidden-terminal
        // case that carrier sensing cannot prevent.
        let mut w = World::new(lossless());
        let _a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::new(1, 10)),
        );
        let _b = w.add_node(
            Box::new(Stationary::new(Point::new(120.0, 0.0))),
            Box::new(Chatter::new(1, 10)),
        );
        let c = w.add_node(
            Box::new(Stationary::new(Point::new(60.0, 0.0))),
            Box::new(Chatter::new(0, 0)),
        );
        w.run_until(SimTime::from_secs(1));
        assert!(w.stack::<Chatter>(c).expect("chatter").heard.is_empty());
        assert_eq!(w.stats().collision_drops, 2);
    }

    #[test]
    fn carrier_sense_serializes_audible_transmitters() {
        // A and B are in range of each other; B wants to transmit while A's
        // frame is on the air, so B defers and both frames arrive at C.
        let mut w = World::new(lossless());
        // ~1.7 ms of air, so B's attempt 1 ms later overlaps for certain.
        let _a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::sized(1, 10, 2_000)),
        );
        let _b = w.add_node(
            Box::new(Stationary::new(Point::new(10.0, 0.0))),
            Box::new(Chatter::new(1, 11)), // 1 ms later: inside A's long frame
        );
        let c = w.add_node(
            Box::new(Stationary::new(Point::new(5.0, 5.0))),
            Box::new(Chatter::new(0, 0)),
        );
        w.run_until(SimTime::from_secs(5));
        assert_eq!(w.stack::<Chatter>(c).expect("chatter").heard.len(), 2);
        assert!(w.stats().mac_deferrals >= 1);
    }

    #[test]
    fn batched_mac_retries_never_strand_queued_frames() {
        // B enqueues a burst of beacons while A's long frame keeps the
        // medium busy: every beacon's carrier-sense deferral lands in the
        // same busy period, so the retries collapse onto one wake-up event.
        // The batching must still drain B's whole queue once the air clears.
        let mut w = World::new(lossless());
        // ~16 ms of air from t = 1 ms.
        let _a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::sized(1, 1, 22_000)),
        );
        let b = w.add_node(
            Box::new(Stationary::new(Point::new(10.0, 0.0))),
            Box::new(Chatter::new(5, 2)), // all 5 fall inside A's frame
        );
        let c = w.add_node(
            Box::new(Stationary::new(Point::new(5.0, 5.0))),
            Box::new(Chatter::new(0, 0)),
        );
        w.run_until(SimTime::from_secs(5));
        assert!(w.stats().mac_deferrals >= 4, "burst must hit carrier sense");
        let heard = &w.stack::<Chatter>(c).expect("chatter").heard;
        let from_b = heard.iter().filter(|(_, src)| *src == b).count();
        assert_eq!(from_b, 5, "batched retries must still send every frame");
    }

    #[test]
    fn sender_collision_feedback_reaches_stack() {
        let mut w = World::new(lossless());
        let a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::new(1, 10)),
        );
        let b = w.add_node(
            Box::new(Stationary::new(Point::new(10.0, 0.0))),
            Box::new(Chatter::new(1, 10)),
        );
        w.run_until(SimTime::from_secs(1));
        // Identical start instants: carrier sense cannot help (neither frame
        // was on the air when the other checked), so both collide.
        let oa = &w.stack::<Chatter>(a).expect("chatter").outcomes;
        let ob = &w.stack::<Chatter>(b).expect("chatter").outcomes;
        assert_eq!(oa.len(), 1);
        assert_eq!(ob.len(), 1);
        assert!(oa[0].collided && ob[0].collided);
    }

    #[test]
    fn loss_rate_drops_some_frames() {
        let cfg = WorldConfig {
            loss_rate: 0.5,
            seed: 7,
            ..WorldConfig::default()
        };
        let mut w = World::new(cfg);
        let _a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::new(200, 5)),
        );
        let b = w.add_node(
            Box::new(Stationary::new(Point::new(10.0, 0.0))),
            Box::new(Chatter::new(0, 0)),
        );
        w.run_until(SimTime::from_secs(10));
        let heard = w.stack::<Chatter>(b).expect("chatter").heard.len();
        assert!(
            heard > 50 && heard < 150,
            "heard {heard} of 200 at 50% loss"
        );
        assert!(w.stats().channel_losses > 0);
    }

    #[test]
    #[should_panic(expected = "loss rate out of range")]
    fn world_new_rejects_a_nan_loss_rate() {
        // `NaN > 0.0` is false: unchecked, a NaN rate would disable loss.
        World::new(WorldConfig {
            loss_rate: f64::NAN,
            ..WorldConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "loss rate out of range")]
    fn set_loss_rate_rejects_a_rate_above_one() {
        World::new(WorldConfig::default()).set_loss_rate(1.5);
    }

    #[test]
    fn same_seed_same_trace() {
        let run = |seed: u64| {
            let mut w = World::new(WorldConfig {
                seed,
                ..WorldConfig::default()
            });
            for i in 0..6 {
                w.add_node(
                    Box::new(Stationary::new(Point::new(10.0 * i as f64, 0.0))),
                    Box::new(Chatter::new(20, 7 + i as u64)),
                );
            }
            w.run_until(SimTime::from_secs(5));
            (
                w.stats().tx_frames,
                w.stats().delivered,
                w.stats().channel_losses,
                w.stats().collision_drops,
            )
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100)); // different seed, different losses
    }

    #[test]
    fn stats_count_transmissions_per_node_and_kind() {
        let mut w = World::new(lossless());
        let a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::new(5, 10)),
        );
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.stats().tx_frames, 5);
        assert_eq!(w.stats().tx_per_node[a.0 as usize], 5);
        assert_eq!(w.stats().tx_by_kind[&FrameKind(9)], 5);
    }

    #[test]
    fn run_until_cond_stops_early() {
        let mut w = World::new(lossless());
        w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::new(100, 10)),
        );
        let fired = w.run_until_cond(SimTime::from_secs(10), |w| w.stats().tx_frames >= 3);
        assert!(fired);
        assert!(w.now() < SimTime::from_secs(10));
        assert_eq!(w.stats().tx_frames, 3);
    }

    #[test]
    fn neighbors_reflect_positions() {
        let mut w = World::new(lossless());
        let a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::new(0, 0)),
        );
        let b = w.add_node(
            Box::new(Stationary::new(Point::new(30.0, 0.0))),
            Box::new(Chatter::new(0, 0)),
        );
        let c = w.add_node(
            Box::new(Stationary::new(Point::new(200.0, 0.0))),
            Box::new(Chatter::new(0, 0)),
        );
        assert_eq!(w.neighbors_of(a), vec![b]);
        assert_eq!(w.neighbors_of(c), Vec::<NodeId>::new());
    }

    #[test]
    fn timers_cancel() {
        #[derive(Debug, Default)]
        struct Canceller {
            fired: Vec<u64>,
        }
        impl NetStack for Canceller {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                let h = ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.cancel_timer(h);
            }
            fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: &Frame) {}
            fn on_timer(&mut self, _: &mut NodeCtx<'_>, token: u64) {
                self.fired.push(token);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(lossless());
        let a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Canceller::default()),
        );
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.stack::<Canceller>(a).expect("stack").fired, vec![2]);
    }

    /// `(tx_frames, delivered, channel_losses, collision_drops,
    /// delivered_payload_bytes, partition_drops, stale_events_suppressed)`.
    type ChatterTrace = (u64, u64, u64, u64, u64, u64, u64);

    /// Runs a mixed stationary/mobile chatter world — with a full fault plan
    /// (crash+restart, late join, permanent leave, group partition) when
    /// `faulted` — and returns its trace fingerprint.
    fn chatter_trace(seed: u64, faulted: bool) -> ChatterTrace {
        let mut w = World::new(WorldConfig {
            seed,
            ..WorldConfig::default()
        });
        for i in 0..12 {
            let p = Point::new(25.0 * i as f64, 10.0 * (i % 3) as f64);
            let mobility: Box<dyn Mobility> = if i % 2 == 0 {
                Box::new(Stationary::new(p))
            } else {
                Box::new(crate::mobility::RandomDirection::new(p))
            };
            w.add_node(mobility, Box::new(Chatter::new(20, 7 + i as u64)));
        }
        if faulted {
            w.set_stack_factory(Box::new(|node, _wreck| {
                Box::new(Chatter::new(20, 7 + node.0 as u64))
            }));
            w.set_fault_plan(
                FaultPlan::new()
                    .join_at(SimTime::from_secs(2), NodeId(11))
                    .crash_at(SimTime::from_secs(5), NodeId(3))
                    .partition(
                        SimTime::from_secs(8),
                        SimTime::from_secs(15),
                        [NodeId(0), NodeId(1), NodeId(2)],
                        [NodeId(3), NodeId(4), NodeId(5)],
                    )
                    .restart_at(SimTime::from_secs(12), NodeId(3))
                    .leave_at(SimTime::from_secs(20), NodeId(9)),
            );
        }
        w.run_until(SimTime::from_secs(30));
        let s = w.stats();
        (
            s.tx_frames,
            s.delivered,
            s.channel_losses,
            s.collision_drops,
            s.delivered_payload_bytes,
            s.partition_drops,
            s.stale_events_suppressed,
        )
    }

    /// Chatter fingerprints `(seed, plain, faulted)` recorded at `ff140d1`,
    /// where the heap queue, the brute-force receiver scan and per-receiver
    /// delivery events still existed and each was asserted to reproduce
    /// exactly these traces. The six tests below keep the names of those
    /// cross-mode comparisons; what they now hold fixed is the surviving
    /// path (the same table is pinned in the workspace's `tests/golden.rs`).
    const CHATTER_PINS: [(u64, ChatterTrace, ChatterTrace); 3] = [
        (
            1,
            (240, 530, 58, 252, 53000, 0, 0),
            (260, 576, 62, 222, 57600, 0, 0),
        ),
        (
            7,
            (240, 519, 69, 252, 51900, 0, 0),
            (260, 562, 76, 222, 56200, 40, 0),
        ),
        (
            99,
            (240, 524, 64, 252, 52400, 0, 0),
            (260, 532, 66, 222, 53200, 40, 0),
        ),
    ];

    fn assert_chatter_pinned(faulted: bool) {
        for (seed, plain, with_faults) in CHATTER_PINS {
            let pinned = if faulted { with_faults } else { plain };
            assert_eq!(chatter_trace(seed, faulted), pinned, "seed {seed}");
        }
    }

    #[test]
    fn grid_and_brute_force_delivery_traces_are_identical() {
        assert_chatter_pinned(false);
    }

    #[test]
    fn wheel_and_heap_queue_traces_are_identical() {
        assert_chatter_pinned(false);
    }

    #[test]
    fn batched_and_per_receiver_delivery_traces_are_identical() {
        assert_chatter_pinned(false);
    }

    #[test]
    fn fault_traces_identical_across_queue_modes() {
        assert_chatter_pinned(true);
    }

    #[test]
    fn fault_traces_identical_across_delivery_event_modes() {
        assert_chatter_pinned(true);
    }

    #[test]
    fn fault_traces_identical_across_delivery_modes() {
        assert_chatter_pinned(true);
    }

    /// Frame memos alive right now / ever made (only [`Tally`] counts).
    static MEMOS_LIVE: AtomicUsize = AtomicUsize::new(0);
    static MEMOS_MADE: AtomicUsize = AtomicUsize::new(0);

    /// A frame memo that records who filled it and who read it, and counts
    /// its own lifetime.
    #[derive(Debug)]
    struct Tally {
        filled_by: Option<NodeId>,
        readers: Vec<NodeId>,
    }

    impl Default for Tally {
        fn default() -> Self {
            MEMOS_MADE.fetch_add(1, Ordering::SeqCst);
            MEMOS_LIVE.fetch_add(1, Ordering::SeqCst);
            Tally {
                filled_by: None,
                readers: Vec::new(),
            }
        }
    }

    impl Drop for Tally {
        fn drop(&mut self) {
            MEMOS_LIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// A second memo type.
    #[derive(Default)]
    struct Other;

    /// Beacons like [`Chatter`], reading the frame memo as a [`Tally`] (or
    /// as an [`Other`]) on every frame, and probing for one everywhere else.
    #[derive(Default)]
    struct MemoProbe {
        beacons: u32,
        asks_other: bool,
        /// What the memo held when this node's `on_frame` got it.
        seen: Vec<(Option<NodeId>, Vec<NodeId>)>,
        /// Whether `on_timer` / `on_tx_done` were offered a memo.
        offered_outside_on_frame: Vec<bool>,
        /// Live memos while `on_tx_done` ran.
        live_at_tx_done: Vec<usize>,
    }

    impl NetStack for MemoProbe {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if self.beacons > 0 {
                ctx.set_timer(SimDuration::from_millis(10), 1);
            }
        }
        fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, _: &Frame) {
            if self.asks_other {
                ctx.with_frame_memo(|_, _: &mut Other| ())
                    .expect("on_frame gets the memo");
                return;
            }
            let seen = &mut self.seen;
            let nested = ctx
                .with_frame_memo(|ctx, tally: &mut Tally| {
                    seen.push((tally.filled_by, tally.readers.clone()));
                    tally.filled_by.get_or_insert(ctx.node);
                    tally.readers.push(ctx.node);
                    ctx.with_frame_memo(|_, _: &mut Tally| ()).is_some()
                })
                .expect("on_frame gets the memo");
            assert!(!nested, "the memo is on loan inside the closure");
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: u64) {
            let offered = ctx.with_frame_memo(|_, _: &mut Tally| ()).is_some();
            self.offered_outside_on_frame.push(offered);
            ctx.send_frame(vec![0xAB; 100], FrameKind(9), 0, SimDuration::ZERO);
            self.beacons -= 1;
            if self.beacons > 0 {
                ctx.set_timer(SimDuration::from_millis(10), 1);
            }
        }
        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _: TxOutcome) {
            let offered = ctx.with_frame_memo(|_, _: &mut Tally| ()).is_some();
            self.offered_outside_on_frame.push(offered);
            self.live_at_tx_done.push(MEMOS_LIVE.load(Ordering::SeqCst));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn one_frame_memo_per_transmission_filled_first_read_by_later_receivers_dropped_with_the_batch()
    {
        let mut w = World::new(lossless());
        let sender = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(MemoProbe {
                beacons: 2,
                ..MemoProbe::default()
            }),
        );
        // Receivers 1..=4, all in range; node 3 asks for another type.
        for i in 1..=4u32 {
            w.add_node(
                Box::new(Stationary::new(Point::new(10.0 * i as f64, 0.0))),
                Box::new(MemoProbe {
                    asks_other: i == 3,
                    ..MemoProbe::default()
                }),
            );
        }
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.stats().tx_frames, 2);
        let seen = |n: u32| w.stack::<MemoProbe>(NodeId(n)).expect("probe").seen.clone();
        // The first receiver finds a fresh memo and fills it; the next one,
        // ascending, reads what it left — for each of the two transmissions.
        assert_eq!(seen(1), vec![(None, vec![]); 2]);
        assert_eq!(seen(2), vec![(Some(NodeId(1)), vec![NodeId(1)]); 2]);
        // Node 3 asked for another type, which replaced the memo: node 4
        // starts fresh.
        assert!(seen(3).is_empty());
        assert_eq!(seen(4), vec![(None, vec![]); 2]);
        // One memo per transmission up to node 3, one more after it.
        assert_eq!(MEMOS_MADE.load(Ordering::SeqCst), 4);
        assert_eq!(
            MEMOS_LIVE.load(Ordering::SeqCst),
            0,
            "dropped with the batch"
        );
        let probe = w.stack::<MemoProbe>(sender).expect("probe");
        assert_eq!(probe.offered_outside_on_frame, vec![false; 4]);
        assert_eq!(probe.live_at_tx_done, vec![0, 0], "gone before on_tx_done");
    }

    /// One transmission reaching four receivers.
    fn one_beacon_four_listeners(beacons: u32) -> World {
        let mut w = World::new(lossless());
        w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::new(beacons, 10)),
        );
        for i in 0..4 {
            w.add_node(
                Box::new(Stationary::new(Point::new(10.0 + i as f64, 0.0))),
                Box::new(Chatter::new(0, 0)),
            );
        }
        w.run_until(SimTime::from_secs(1));
        w
    }

    /// A transmission schedules exactly one arrival event, regardless of
    /// how many receivers it reaches.
    #[test]
    fn batched_mode_enqueues_one_arrival_event_per_transmission() {
        let w = one_beacon_four_listeners(5);
        let s = w.stats();
        assert_eq!(s.tx_frames, 5);
        assert_eq!(s.delivered, 20, "4 receivers x 5 beacons");
        assert_eq!(s.arrival_events, s.tx_frames);
    }

    #[test]
    fn batched_delivery_claims_one_command_buffer_per_transmission() {
        let w = one_beacon_four_listeners(1);
        let s = w.stats();
        // Five `on_start`s, the beacon timer, and one claim for the whole
        // fan-out: four `on_frame`s plus the sender's `on_tx_done`.
        assert_eq!(s.cmd_pool_hits + s.cmd_pool_misses, 5 + 1 + 1);
    }

    #[test]
    fn command_pool_recycles_one_buffer() {
        let mut w = World::new(lossless());
        w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::new(10, 10)),
        );
        w.run_until(SimTime::from_secs(1));
        let s = w.stats();
        assert_eq!(s.cmd_pool_misses, 1, "callbacks never nest: one buffer");
        assert!(s.cmd_pool_hits > 0);
    }

    /// Regression for the `cancelled_timers` leak: a stack that arms and
    /// cancels a timer every round used to grow the cancellation set without
    /// bound when cancels raced fires; the slab must keep allocation at peak
    /// concurrency and free every slot once its event pops.
    #[test]
    fn cancelled_timers_do_not_accumulate() {
        #[derive(Debug, Default)]
        struct Churner {
            rounds: u32,
            doomed: Option<TimerHandle>,
        }
        impl NetStack for Churner {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(SimDuration::from_millis(1), 1);
            }
            fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: &Frame) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
                if token != 1 {
                    return;
                }
                // Cancel last round's decoy (already fired-or-popped by now
                // in some rounds, still pending in others) and arm a new one.
                if let Some(h) = self.doomed.take() {
                    ctx.cancel_timer(h);
                }
                self.doomed = Some(ctx.set_timer(SimDuration::from_millis(3), 2));
                self.rounds += 1;
                if self.rounds < 2_000 {
                    ctx.set_timer(SimDuration::from_millis(1), 1);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(lossless());
        let a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Churner::default()),
        );
        w.run_until(SimTime::from_secs(10));
        assert_eq!(w.stack::<Churner>(a).expect("stack").rounds, 2_000);
        assert_eq!(
            w.live_timers(),
            0,
            "every armed timer's slot must be freed by run end"
        );
        assert!(
            w.timer_slots_allocated() <= 4,
            "slot allocation {} exceeds peak concurrency",
            w.timer_slots_allocated()
        );
    }

    /// A cancelled far-future timer leaves the queue long before it is
    /// due, yet `event_dispatches` still counts it once its due time
    /// passes, exactly as if its entry had stayed queued and popped.
    #[test]
    fn cancelled_far_future_timers_leave_the_queue_but_count_once_due() {
        const ROUNDS: u64 = 10_000;
        #[derive(Debug, Default)]
        struct DecoyChurner {
            rounds: u64,
            decoy: Option<TimerHandle>,
        }
        impl NetStack for DecoyChurner {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(SimDuration::from_millis(1), 1);
            }
            fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: &Frame) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
                if token != 1 {
                    return;
                }
                if let Some(h) = self.decoy.take() {
                    ctx.cancel_timer(h);
                }
                self.decoy = Some(ctx.set_timer(SimDuration::from_secs(30), 2));
                self.rounds += 1;
                if self.rounds < ROUNDS {
                    ctx.set_timer(SimDuration::from_millis(1), 1);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(lossless());
        let a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(DecoyChurner::default()),
        );
        // One tick a millisecond for ten seconds, each re-arming a decoy due
        // 30 s later and cancelling the previous one: kept queued, the
        // cancelled decoys would reach 10,000 entries and slots.
        let bound = PURGE_FLOOR + 8;
        for step in 1..=100 {
            w.run_until(SimTime::from_micros(100_000 * step));
            assert!(w.queue.len() <= bound, "queue holds {}", w.queue.len());
            assert!(
                w.timer_slots_allocated() <= bound,
                "{} timer slots allocated",
                w.timer_slots_allocated()
            );
        }
        assert_eq!(w.stack::<DecoyChurner>(a).expect("stack").rounds, ROUNDS);
        // Model: the ticks are the only timers due by 10 s.
        assert_eq!(w.stats().event_dispatches, ROUNDS);
        // The decoy armed at tick k (k ms) is due at 30 s + k ms: by 35 s
        // the first 5,000 have come due, all but the last cancelled.
        w.run_until(SimTime::from_secs(35));
        assert_eq!(w.stats().event_dispatches, ROUNDS + 5_000);
        w.run_until(SimTime::from_secs(40));
        assert_eq!(w.stats().event_dispatches, 2 * ROUNDS);
        assert!(w.queue.is_empty());
        assert!(w.ghosts.is_empty(), "every purged decoy came due");
        assert_eq!(w.live_timers(), 0);
    }

    /// The queue's storage follows what is queued, not each slot's past
    /// peak: identical bursts of timers spread over levels 0-4, queued
    /// again and again from cursor positions that land them in different
    /// slots, reuse the same arena cells.
    #[test]
    fn queue_bytes_follow_the_queued_entries_not_slot_peaks() {
        const BURST: u64 = 1_000;
        const BURSTS: u64 = 6;
        // Every burst timer is due before this; the odd offset moves the
        // next burst's cursor off the previous one's slot alignment.
        const NEXT_US: u64 = (1 << 30) + 37_000_003;
        #[derive(Debug, Default)]
        struct Burster {
            bursts: u64,
        }
        impl Burster {
            fn arm(&mut self, ctx: &mut NodeCtx<'_>) {
                self.bursts += 1;
                for i in 0..BURST {
                    // Level `l` delays lie in [64^l, 64^(l+1)).
                    let unit = 1u64 << (6 * (i % 5));
                    let delay = unit + (i * 7_919) % (63 * unit);
                    ctx.set_timer(SimDuration::from_micros(delay), 1);
                }
                if self.bursts < BURSTS {
                    ctx.set_timer(SimDuration::from_micros(NEXT_US), 0);
                }
            }
        }
        impl NetStack for Burster {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                self.arm(ctx);
            }
            fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: &Frame) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
                if token == 0 {
                    self.arm(ctx);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(lossless());
        let a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Burster::default()),
        );
        let peak = (BURST + 1) as usize;
        let bound = 2 * peak * std::mem::size_of::<ArenaNode<EventKind>>();
        let mut first = None;
        for k in 0..BURSTS {
            // Just after burst `k` was queued, and `k - 1` fully drained.
            w.run_until(SimTime::from_micros(k * NEXT_US));
            let expect = if k + 1 < BURSTS { peak } else { peak - 1 };
            assert_eq!(w.queue.len(), expect, "burst {k}");
            let bytes = w.queue_bytes();
            assert_eq!(bytes.ghosts, 0, "nothing was cancelled");
            assert!(
                bytes.wheel <= bound,
                "burst {k}: {} B > {bound} B",
                bytes.wheel
            );
            let first = *first.get_or_insert(bytes.wheel);
            assert!(
                bytes.wheel <= first,
                "burst {k}: {} B grew from {first} B",
                bytes.wheel
            );
        }
        w.run_until(SimTime::from_micros(BURSTS * NEXT_US));
        assert!(w.queue.is_empty());
        assert_eq!(w.stack::<Burster>(a).expect("stack").bursts, BURSTS);
        assert_eq!(w.stats().event_dispatches, BURSTS * (BURST + 1) - 1);
    }

    #[test]
    fn grid_neighbors_match_brute_force_during_mobile_run() {
        let mut w = World::new(WorldConfig::default());
        for i in 0..20 {
            let p = Point::new(15.0 * i as f64, 280.0 - 14.0 * i as f64);
            w.add_node(
                Box::new(crate::mobility::RandomDirection::new(p)),
                Box::new(Chatter::new(0, 0)),
            );
        }
        for step in 1..=20u64 {
            w.run_until(SimTime::from_secs(step * 3));
            for i in 0..w.node_count() as u32 {
                let n = NodeId(i);
                let p = w.position_of(n);
                let brute: Vec<NodeId> = (0..w.node_count() as u32)
                    .map(NodeId)
                    .filter(|&o| o != n && w.position_of(o).within(&p, w.range()))
                    .collect();
                assert_eq!(w.neighbors_of(n), brute, "node {n} at t={}s", step * 3);
            }
        }
    }

    /// A node whose model has no next change reads its position from the
    /// dense table, and the table agrees with the model at every instant:
    /// stationary nodes and held waypoints from the start, a scripted path
    /// once its last waypoint is reached; a moving node has no entry.
    #[test]
    fn fixed_node_table_position_equals_mobility_position() {
        use crate::mobility::{RandomDirection, ScriptedMobility};
        let mut w = World::new(WorldConfig::default());
        let stack = || Box::new(Chatter::new(0, 0));
        w.add_node(Box::new(Stationary::new(Point::new(10.0, 20.0))), stack());
        w.add_node(
            Box::new(ScriptedMobility::hold(Point::new(150.0, 40.0))),
            stack(),
        );
        let path = ScriptedMobility::new(vec![
            (SimTime::ZERO, Point::new(0.0, 0.0)),
            (SimTime::from_secs(2), Point::new(100.0, 0.0)),
            (SimTime::from_secs(5), Point::new(100.0, 250.0)),
        ]);
        w.add_node(Box::new(path), stack());
        w.add_node(
            Box::new(RandomDirection::new(Point::new(200.0, 200.0))),
            stack(),
        );
        let fixed = |w: &World| (0..4).map(|i| w.fixed_at[i].is_some()).collect::<Vec<_>>();
        assert_eq!(fixed(&w), [true, true, false, false]);
        for step in 0..=16u64 {
            w.run_until(SimTime::from_micros(step * 500_000));
            for i in 0..4 {
                let model = w.nodes[i].mobility.position(w.now());
                if let Some(p) = w.fixed_at[i] {
                    assert_eq!(p, model, "node {i} at step {step}");
                }
                assert_eq!(w.position_of(NodeId(i as u32)), model);
            }
        }
        assert_eq!(fixed(&w), [true, true, true, false], "path ended at 5 s");
        assert_eq!(w.fixed_at[2], Some(Point::new(100.0, 250.0)));
    }

    #[test]
    fn delivered_frames_share_one_payload_allocation() {
        #[derive(Debug, Default)]
        struct Keeper {
            payloads: Vec<Payload>,
        }
        impl NetStack for Keeper {
            fn on_start(&mut self, _: &mut NodeCtx<'_>) {}
            fn on_frame(&mut self, _: &mut NodeCtx<'_>, frame: &Frame) {
                self.payloads.push(frame.payload.clone());
            }
            fn on_timer(&mut self, _: &mut NodeCtx<'_>, _: u64) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(lossless());
        let _tx = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::new(1, 10)),
        );
        let a = w.add_node(
            Box::new(Stationary::new(Point::new(10.0, 0.0))),
            Box::new(Keeper::default()),
        );
        let b = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 10.0))),
            Box::new(Keeper::default()),
        );
        w.run_until(SimTime::from_secs(1));
        let pa = &w.stack::<Keeper>(a).expect("keeper").payloads;
        let pb = &w.stack::<Keeper>(b).expect("keeper").payloads;
        assert_eq!(pa.len(), 1);
        assert_eq!(pb.len(), 1);
        assert!(
            Payload::ptr_eq(&pa[0], &pb[0]),
            "receivers must share the sender's buffer"
        );
        assert_eq!(w.stats().delivered_payload_bytes, 200);
    }

    #[test]
    fn zero_range_world_runs_and_delivers_nothing() {
        let mut cfg = lossless();
        cfg.range = 0.0;
        let mut w = World::new(cfg);
        let _a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::new(3, 10)),
        );
        let b = w.add_node(
            Box::new(Stationary::new(Point::new(1.0, 0.0))),
            Box::new(Chatter::new(0, 0)),
        );
        w.run_until(SimTime::from_secs(1));
        assert!(w.stack::<Chatter>(b).expect("chatter").heard.is_empty());
        assert_eq!(w.stats().tx_frames, 3);
    }

    #[test]
    fn mobile_node_moves_between_queries() {
        let mut w = World::new(lossless());
        let a = w.add_node(
            Box::new(crate::mobility::RandomDirection::new(Point::new(
                150.0, 150.0,
            ))),
            Box::new(Chatter::new(0, 0)),
        );
        let p0 = w.position_of(a);
        w.run_until(SimTime::from_secs(30));
        let p1 = w.position_of(a);
        assert!(
            p0.distance(&p1) > 1.0,
            "node did not move: {p0:?} -> {p1:?}"
        );
    }

    /// Satellite regression: a node crashed with armed timers (and a delayed
    /// send in flight toward its MAC queue) must have every pending event's
    /// slab slot freed when it pops — suppressed, not fired into a dead or
    /// restarted incarnation.
    #[test]
    fn crash_with_armed_timers_frees_slots_and_suppresses_fires() {
        #[derive(Debug, Default)]
        struct Armer;
        impl NetStack for Armer {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                // Retx-style ladder: timers at 100..500 ms plus one delayed
                // send that would hit the MAC queue at 250 ms.
                for i in 1..=5u64 {
                    ctx.set_timer(SimDuration::from_millis(100 * i), i);
                }
                ctx.send_frame(
                    vec![0xCD; 50],
                    FrameKind(9),
                    0,
                    SimDuration::from_millis(250),
                );
            }
            fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: &Frame) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
                // Only the 100 ms rung fires before the 150 ms crash; it
                // transmits so the test can count pre-crash activity.
                ctx.send_frame(vec![0xEE; 20], FrameKind(9), 0, SimDuration::ZERO);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(lossless());
        let a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Armer),
        );
        w.set_fault_plan(FaultPlan::new().crash_at(SimTime::from_micros(150_000), a));
        w.run_until(SimTime::from_secs(2));
        assert_eq!(w.stats().node_crashes, 1);
        assert_eq!(
            w.stats().tx_frames,
            1,
            "only the pre-crash timer's frame may air"
        );
        // Four timers (200..500 ms) plus the 250 ms delayed send pop
        // after the crash: all suppressed, none lost.
        assert_eq!(w.stats().stale_events_suppressed, 5);
        assert_eq!(
            w.live_timers(),
            0,
            "suppressed timers must still free their slab slots"
        );
    }

    #[test]
    fn restart_reboots_a_fresh_stack_and_hands_over_the_wreck() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let mut w = World::new(lossless());
        // 20 beacons every 50 ms; crashed at 220 ms after 4 made the air.
        let a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::new(20, 50)),
        );
        let b = w.add_node(
            Box::new(Stationary::new(Point::new(10.0, 0.0))),
            Box::new(Chatter::new(0, 0)),
        );
        let wreck_beacons = Arc::new(AtomicU32::new(u32::MAX));
        let seen = Arc::clone(&wreck_beacons);
        w.set_stack_factory(Box::new(move |_node, wreck| {
            if let Some(old) = wreck.and_then(|s| s.as_any().downcast_ref::<Chatter>()) {
                seen.store(old.beacons, Ordering::Relaxed);
            }
            Box::new(Chatter::new(3, 10))
        }));
        w.set_fault_plan(
            FaultPlan::new()
                .crash_at(SimTime::from_micros(220_000), a)
                .restart_at(SimTime::from_secs(1), a),
        );
        w.run_until(SimTime::from_micros(600_000));
        assert!(!w.node_alive(a), "crashed node must read as dead");
        assert_eq!(w.stack::<Chatter>(b).expect("listener").heard.len(), 4);
        w.run_until(SimTime::from_secs(2));
        assert!(w.node_alive(a));
        assert_eq!(w.stats().node_crashes, 1);
        assert_eq!(w.stats().node_restarts, 1);
        assert_eq!(
            wreck_beacons.load(Ordering::Relaxed),
            16,
            "factory must receive the wreck with its surviving state"
        );
        // 4 pre-crash beacons + 3 from the fresh incarnation; the dead
        // window contributes nothing.
        assert_eq!(w.stack::<Chatter>(b).expect("listener").heard.len(), 7);
    }

    #[test]
    fn late_joiner_stays_dormant_until_its_join_time() {
        let mut w = World::new(lossless());
        let a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::new(5, 10)),
        );
        let b = w.add_node(
            Box::new(Stationary::new(Point::new(10.0, 0.0))),
            Box::new(Chatter::new(0, 0)),
        );
        w.set_fault_plan(FaultPlan::new().join_at(SimTime::from_secs(1), a));
        w.run_until(SimTime::from_micros(500_000));
        assert!(!w.node_alive(a), "joiner must be dormant before join time");
        assert!(w.stack::<Chatter>(b).expect("listener").heard.is_empty());
        w.run_until(SimTime::from_secs(3));
        assert_eq!(w.stats().node_joins, 1);
        assert_eq!(w.stack::<Chatter>(b).expect("listener").heard.len(), 5);
    }

    #[test]
    fn leave_silences_a_node_permanently() {
        let mut w = World::new(lossless());
        let a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::new(100, 50)),
        );
        let b = w.add_node(
            Box::new(Stationary::new(Point::new(10.0, 0.0))),
            Box::new(Chatter::new(0, 0)),
        );
        w.set_fault_plan(FaultPlan::new().leave_at(SimTime::from_micros(320_000), a));
        w.run_until(SimTime::from_secs(10));
        assert_eq!(w.stats().node_leaves, 1);
        assert!(!w.node_alive(a));
        assert_eq!(
            w.stack::<Chatter>(b).expect("listener").heard.len(),
            6,
            "only the pre-leave beacons (50..300 ms) may arrive"
        );
    }

    #[test]
    fn partition_blocks_in_range_delivery_until_heal() {
        let mut w = World::new(lossless());
        let a = w.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(Chatter::new(20, 100)),
        );
        let b = w.add_node(
            Box::new(Stationary::new(Point::new(10.0, 0.0))),
            Box::new(Chatter::new(0, 0)),
        );
        w.set_fault_plan(FaultPlan::new().partition(
            SimTime::ZERO,
            SimTime::from_secs(1),
            [a],
            [b],
        ));
        w.run_until(SimTime::from_secs(5));
        assert_eq!(w.stats().partitions_cut, 1);
        assert_eq!(w.stats().partitions_healed, 1);
        let drops = w.stats().partition_drops;
        assert!((8..=10).contains(&drops), "cut window drops: {drops}");
        let heard = w.stack::<Chatter>(b).expect("listener").heard.len() as u64;
        assert_eq!(heard + drops, 20, "every beacon is delivered or cut");
        assert_eq!(w.stats().tx_frames, 20, "the cut must not silence the MAC");
    }
}
