//! Scripted fault injection: node crash/restart/join/leave and link-level
//! partitions, scheduled as ordinary world events so traces stay
//! deterministic.
//!
//! A [`FaultPlan`] is a time-ordered script attached to a [`World`] before
//! the run starts ([`World::set_fault_plan`]). Each action becomes one
//! event in the shared `(time, seq)`-ordered queue, so a crash at `t` lands
//! at exactly the same point of the event stream in every run, and equal
//! seeds keep giving bit-identical traces with the plan applied.
//!
//! Semantics:
//!
//! * **Crash** — the node's radio goes dead and its protocol stack is
//!   dropped from the dispatch path: queued MAC frames are discarded,
//!   armed timers are suppressed when they pop (their slab slots are still
//!   freed — no leak), and the node neither receives nor transmits. A
//!   frame already on the air completes (the radio died, the photons did
//!   not). The dead stack is retained out-of-band solely as the salvage
//!   source for a later restart.
//! * **Restart** — a fresh stack from the world's
//!   [`World::set_stack_factory`] factory replaces the crashed one at the
//!   same position; `on_start` runs as if the node had just booted. The
//!   factory receives the wreck so applications can salvage persisted
//!   state (e.g. a downloader's held segments).
//! * **Join** — the node exists from construction (ids are stable) but its
//!   stack stays dormant until the join time, when `on_start` first runs.
//! * **Leave** — a permanent crash: the stack is dropped for good.
//! * **Cut / heal** — every link between set A and set B is severed at the
//!   delivery layer: an in-range receiver across the cut counts a
//!   `partition_drops` instead of a delivery. Carrier sense and collision
//!   interference are *not* affected — a partition models key/trust or
//!   addressing separation, not RF shielding.
//!
//! [`World`]: crate::world::World
//! [`World::set_fault_plan`]: crate::world::World::set_fault_plan
//! [`World::set_stack_factory`]: crate::world::World::set_stack_factory

use crate::node::NodeId;
use crate::time::SimTime;

/// One scripted fault, applied at its scheduled instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Kill the node: radio dead, stack dropped from dispatch.
    Crash(NodeId),
    /// Boot a fresh stack (via the world's stack factory) at the crashed
    /// node's position.
    Restart(NodeId),
    /// First boot of a node that sat dormant since construction.
    Join(NodeId),
    /// Permanent crash; the node never comes back.
    Leave(NodeId),
    /// Sever every link between the two node sets.
    Cut {
        /// One side of the partition.
        a: Vec<NodeId>,
        /// The other side.
        b: Vec<NodeId>,
    },
    /// Restore every link between the two node sets.
    Heal {
        /// One side of the healed partition.
        a: Vec<NodeId>,
        /// The other side.
        b: Vec<NodeId>,
    },
}

/// A deterministic, time-ordered fault script for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub(crate) actions: Vec<(SimTime, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan contains no actions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Schedules an arbitrary action.
    pub fn at(mut self, time: SimTime, action: FaultAction) -> Self {
        self.actions.push((time, action));
        self
    }

    /// Crashes `node` at `time`.
    pub fn crash_at(self, time: SimTime, node: NodeId) -> Self {
        self.at(time, FaultAction::Crash(node))
    }

    /// Restarts `node` at `time` (requires a stack factory on the world).
    pub fn restart_at(self, time: SimTime, node: NodeId) -> Self {
        self.at(time, FaultAction::Restart(node))
    }

    /// Boots `node` for the first time at `time`; it sits dormant before.
    pub fn join_at(self, time: SimTime, node: NodeId) -> Self {
        self.at(time, FaultAction::Join(node))
    }

    /// Removes `node` permanently at `time`.
    pub fn leave_at(self, time: SimTime, node: NodeId) -> Self {
        self.at(time, FaultAction::Leave(node))
    }

    /// Cuts every link between `a` and `b` at `cut`, healing at `heal`.
    pub fn partition<IA, IB>(self, cut: SimTime, heal: SimTime, a: IA, b: IB) -> Self
    where
        IA: IntoIterator<Item = NodeId>,
        IB: IntoIterator<Item = NodeId>,
    {
        assert!(cut <= heal, "partition must heal at or after its cut");
        let a: Vec<NodeId> = a.into_iter().collect();
        let b: Vec<NodeId> = b.into_iter().collect();
        self.at(
            cut,
            FaultAction::Cut {
                a: a.clone(),
                b: b.clone(),
            },
        )
        .at(heal, FaultAction::Heal { a, b })
    }

    /// The time of the plan's last action (`ZERO` for an empty plan) —
    /// harnesses extend completion deadlines by at least this much.
    pub fn last_event(&self) -> SimTime {
        self.actions
            .iter()
            .map(|&(t, _)| t)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Whether the plan ever joins `node` late (such nodes stay dormant
    /// from world start until their join time).
    pub fn joins(&self, node: NodeId) -> bool {
        self.actions
            .iter()
            .any(|(_, a)| matches!(a, FaultAction::Join(n) if *n == node))
    }

    /// Whether the plan ever restarts `node`.
    pub fn restarts(&self, node: NodeId) -> bool {
        self.actions
            .iter()
            .any(|(_, a)| matches!(a, FaultAction::Restart(n) if *n == node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_actions_in_insertion_order() {
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_secs(5), NodeId(1))
            .restart_at(SimTime::from_secs(9), NodeId(1))
            .partition(
                SimTime::from_secs(2),
                SimTime::from_secs(12),
                [NodeId(0)],
                [NodeId(1), NodeId(2)],
            );
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.last_event(), SimTime::from_secs(12));
        assert!(plan.restarts(NodeId(1)));
        assert!(!plan.restarts(NodeId(2)));
        assert!(!plan.joins(NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "heal")]
    fn partition_rejects_heal_before_cut() {
        let _ = FaultPlan::new().partition(
            SimTime::from_secs(5),
            SimTime::from_secs(1),
            [NodeId(0)],
            [NodeId(1)],
        );
    }
}
