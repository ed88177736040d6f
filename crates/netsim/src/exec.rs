//! The execution profile: on how many cores a run is computed.
//!
//! Each layer of the engine has one implementation — timer-wheel queue,
//! spatial-grid receiver selection, one batched arrival event per
//! transmission, peek-first decode — so the only execution choices left
//! are the two a workload can observe: the shard count of the sharded
//! engine and its synchronization window. [`ExecProfile`] carries them on
//! [`WorldConfig`] and through the testutil `ScenarioBuilder`/`MatrixParams`.
//!
//! `cores = 1` is the sequential engine and gives bit-identical traces for
//! equal seeds; `cores > 1` is metric-equivalent within the tolerance
//! documented on [`ShardedWorld`].
//!
//! [`WorldConfig`]: crate::world::WorldConfig
//! [`ShardedWorld`]: crate::shard::ShardedWorld

use crate::time::SimDuration;

/// How a run is spread over cores.
///
/// # Examples
///
/// ```
/// use dapes_netsim::exec::ExecProfile;
///
/// assert_eq!(ExecProfile::default().cores, 1);
/// assert_eq!(ExecProfile::default().with_cores(4).cores, 4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecProfile {
    /// Number of spatial shards (each with its own event loop). `1` runs
    /// the sequential engine and is bit-identical to every prior release;
    /// `> 1` runs [`ShardedWorld`](crate::shard::ShardedWorld).
    pub cores: usize,
    /// Conservative synchronization window for the sharded engine. `None`
    /// derives the minimum: cross-border propagation delay (zero in the
    /// unit-disk model) plus the minimum frame air time under the run's
    /// [`PhyConfig`](crate::radio::PhyConfig).
    pub lookahead: Option<SimDuration>,
}

impl Default for ExecProfile {
    /// One core, derived lookahead.
    fn default() -> Self {
        ExecProfile {
            cores: 1,
            lookahead: None,
        }
    }
}

impl ExecProfile {
    /// Sets the shard count.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn with_cores(mut self, cores: usize) -> Self {
        assert!(cores >= 1, "cores must be at least 1");
        self.cores = cores;
        self
    }

    /// Overrides the sharded engine's synchronization window.
    pub fn with_lookahead(mut self, lookahead: SimDuration) -> Self {
        self.lookahead = Some(lookahead);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_setters_compose() {
        let p = ExecProfile::default()
            .with_cores(4)
            .with_lookahead(SimDuration::from_millis(1));
        assert_eq!(p.cores, 4);
        assert_eq!(p.lookahead, Some(SimDuration::from_millis(1)));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_cores_rejected() {
        let _ = ExecProfile::default().with_cores(0);
    }
}
