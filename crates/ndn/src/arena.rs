//! A generation-tagged slab arena for forwarder table entries.
//!
//! The Content Store keeps every entry in one of these arenas and stores
//! only small `Copy` [`ArenaRef`] handles in its wire-keyed indexes. Entry
//! insertion reuses freed slots instead of allocating, and a stale handle
//! (one whose slot was freed and reused) can never resolve to the wrong
//! entry: each slot carries a generation counter, bumped on free, that the
//! handle must match — the same scheme the simulator's timer slab uses for
//! cancel-safe timer ids.

/// A handle into an [`Arena`]: slot index plus the generation the slot had
/// when the entry was inserted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ArenaRef {
    index: u32,
    generation: u32,
}

#[derive(Clone, Debug)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// A slab of `T` with generation-tagged handles and a free list.
///
/// # Examples
///
/// ```
/// use dapes_ndn::arena::Arena;
///
/// let mut arena: Arena<&str> = Arena::new();
/// let a = arena.insert("alpha");
/// let b = arena.insert("beta");
/// assert_eq!(arena.get(a), Some(&"alpha"));
/// assert_eq!(arena.remove(b), Some("beta"));
/// assert_eq!(arena.live(), 1);
/// // The freed slot is reused, but the old handle stays dead.
/// let c = arena.insert("gamma");
/// assert_eq!(arena.get(b), None);
/// assert_eq!(arena.get(c), Some(&"gamma"));
/// assert_eq!(arena.allocated(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Inserts a value, reusing a freed slot when one is available.
    pub fn insert(&mut self, value: T) -> ArenaRef {
        self.live += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            slot.value = Some(value);
            ArenaRef {
                index,
                generation: slot.generation,
            }
        } else {
            let index = u32::try_from(self.slots.len()).expect("arena slot count exceeds u32");
            self.slots.push(Slot {
                generation: 0,
                value: Some(value),
            });
            ArenaRef {
                index,
                generation: 0,
            }
        }
    }

    /// The entry behind `handle`, unless it was removed (stale handles
    /// resolve to `None` even after slot reuse).
    pub fn get(&self, handle: ArenaRef) -> Option<&T> {
        let slot = self.slots.get(handle.index as usize)?;
        if slot.generation != handle.generation {
            return None;
        }
        slot.value.as_ref()
    }

    /// Mutable access to the entry behind `handle`.
    pub fn get_mut(&mut self, handle: ArenaRef) -> Option<&mut T> {
        let slot = self.slots.get_mut(handle.index as usize)?;
        if slot.generation != handle.generation {
            return None;
        }
        slot.value.as_mut()
    }

    /// Removes and returns the entry behind `handle`, freeing its slot for
    /// reuse under a new generation.
    pub fn remove(&mut self, handle: ArenaRef) -> Option<T> {
        let slot = self.slots.get_mut(handle.index as usize)?;
        if slot.generation != handle.generation {
            return None;
        }
        let value = slot.value.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(handle.index);
        self.live -= 1;
        Some(value)
    }

    /// Number of live entries.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Number of slots ever allocated (peak-concurrency bound, not volume
    /// bound — freed slots are reused).
    pub fn allocated(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut arena = Arena::new();
        let a = arena.insert(1u64);
        let b = arena.insert(2u64);
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.get(a), Some(&1));
        *arena.get_mut(b).expect("live") = 20;
        assert_eq!(arena.remove(b), Some(20));
        assert_eq!(arena.remove(b), None, "double remove is a no-op");
        assert_eq!(arena.live(), 1);
    }

    #[test]
    fn stale_handles_never_resolve_after_slot_reuse() {
        let mut arena = Arena::new();
        let a = arena.insert("old");
        assert_eq!(arena.remove(a), Some("old"));
        let b = arena.insert("new");
        assert_eq!(b.index, a.index, "slot must be reused");
        assert_ne!(b.generation, a.generation);
        assert_eq!(arena.get(a), None);
        assert_eq!(arena.get_mut(a), None);
        assert_eq!(arena.remove(a), None);
        assert_eq!(arena.get(b), Some(&"new"));
    }

    #[test]
    fn allocation_is_bounded_by_peak_concurrency() {
        let mut arena = Arena::new();
        for round in 0..100 {
            let x = arena.insert(round);
            let y = arena.insert(round);
            arena.remove(x);
            arena.remove(y);
        }
        assert_eq!(arena.live(), 0);
        assert_eq!(arena.allocated(), 2, "churn must reuse freed slots");
    }
}
