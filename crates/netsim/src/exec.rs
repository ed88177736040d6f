//! A source-compatibility placeholder, not an engine setting.
//!
//! The engine has one execution path — the sequential, bit-identical
//! [`World`](crate::world::World) — and nothing to choose about it.
//! [`ExecProfile`] survives only because `benchmark/` (which engine changes
//! may not edit) spells `exec: ExecProfile::default()` in two `WorldConfig`
//! literals; ROADMAP item 0 removes it together with those two lines.

/// The empty execution profile (see the module docs).
///
/// # Examples
///
/// ```
/// use dapes_netsim::exec::ExecProfile;
///
/// let _ = ExecProfile::default();
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecProfile;
