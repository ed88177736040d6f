//! A deterministic discrete-event wireless network simulator.
//!
//! This crate replaces the ndnSIM/ns-3 + testbed substrate of the DAPES
//! paper's evaluation (§VI). It models what the protocols under study
//! actually exercise:
//!
//! * an event-driven clock with microsecond resolution ([`time`]),
//! * node mobility — random-direction for the simulation study, scripted
//!   waypoints for the real-world scenarios ([`mobility`]),
//! * a broadcast unit-disk radio with IEEE 802.11b timing, carrier sensing,
//!   collisions (including hidden terminals) and Bernoulli loss
//!   ([`radio`], [`world`]),
//! * per-frame-kind transmission accounting for the paper's overhead figures
//!   ([`stats`]).
//!
//! Protocol stacks implement [`node::NetStack`] and are driven entirely by
//! callbacks; all runs are reproducible from a seed.
//!
//! # Examples
//!
//! ```
//! use dapes_netsim::prelude::*;
//!
//! let mut world = World::new(WorldConfig { range: 50.0, ..WorldConfig::default() });
//! // add_node(...) protocol stacks, then:
//! world.run_until(SimTime::from_secs(60));
//! println!("frames on air: {}", world.stats().tx_frames);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod fault;
pub mod geometry;
pub mod grid;
pub mod mobility;
pub mod node;
pub mod payload;
pub mod radio;
pub mod stats;
pub mod time;
pub mod wheel;
pub mod world;

/// Convenient glob-import of the types nearly every user needs.
pub mod prelude {
    pub use crate::exec::ExecProfile;
    pub use crate::fault::{FaultAction, FaultPlan};
    pub use crate::geometry::Point;
    pub use crate::grid::SpatialGrid;
    pub use crate::mobility::{Mobility, RandomDirection, ScriptedMobility, Stationary};
    pub use crate::node::{NetStack, NodeCtx, NodeId, TimerHandle, TxOutcome};
    pub use crate::payload::Payload;
    pub use crate::radio::{Frame, FrameKind};
    pub use crate::stats::Stats;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::wheel::TimerWheel;
    pub use crate::world::{StackFactory, World, WorldConfig};
}

pub use prelude::*;
