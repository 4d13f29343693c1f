//! Generation-stamped slots: the one store behind the event list's
//! payloads, the cluster model's in-flight jobs and its unacked
//! transfers.
//!
//! A run creates millions of short-lived values with only a handful
//! live at once, so a [`Slab`] keeps them in reusable slots addressed
//! by a small `Copy` [`Key`]: a slot index and the slot's generation.
//! [`Slab::take`] bumps the generation and pushes the slot onto a LIFO
//! free list, which the next [`Slab::insert`] pops. A key therefore
//! dies with its value: looking up, or taking, a stale key returns
//! `None` instead of reaching the slot's next occupant, and deciding
//! whether a key is live compares two integers.
//!
//! [`crate::queue::EventQueue`] parks event payloads here and keeps only
//! the key in its heap, so sifts move small keys and a cancel is one
//! generation bump.
//!
//! Generations are 32-bit and wrap: a key is only guaranteed
//! unambiguous for the first 2³² retirements of its slot. Holding a key
//! across four billion reuses of the same slot is far outside any
//! simulation's lifetime of a job, a transfer or a cancellation window.

/// A handle to a value in a [`Slab`]: the slot index and the slot's
/// generation when the value was inserted. Keys order by slot, then
/// generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    slot: u32,
    gen: u32,
}

impl Key {
    /// The slot index. While its value is live a key's slot names it
    /// losslessly (see [`Slab::key_at`]).
    #[inline]
    pub fn slot(self) -> u32 {
        self.slot
    }
}

struct Slot<T> {
    gen: u32,
    value: Option<T>,
}

/// Reusable slots with per-slot generation counters.
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty slab with room for `cap` slots.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Stores `value` in the most recently freed slot, or a new one, and
    /// returns its key.
    ///
    /// # Panics
    /// Panics when more than 2³² values would be live at once.
    pub fn insert(&mut self, value: T) -> Key {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.value.is_none(), "free list pointed at a live slot");
            s.value = Some(value);
            Key { slot, gen: s.gen }
        } else {
            let slot = u32::try_from(self.slots.len()).expect("more than 2^32 live slab slots");
            self.slots.push(Slot {
                gen: 0,
                value: Some(value),
            });
            Key { slot, gen: 0 }
        }
    }

    /// Whether `key` names a live value.
    #[inline]
    pub fn is_live(&self, key: Key) -> bool {
        // The generation only matches while the value is live: `take`
        // bumps it.
        self.slots
            .get(key.slot as usize)
            .is_some_and(|s| s.gen == key.gen)
    }

    /// The value `key` names, if it is live.
    #[inline]
    pub fn get(&self, key: Key) -> Option<&T> {
        let s = self.slots.get(key.slot as usize)?;
        if s.gen == key.gen {
            s.value.as_ref()
        } else {
            None
        }
    }

    /// Mutable access to the value `key` names, if it is live.
    #[inline]
    pub fn get_mut(&mut self, key: Key) -> Option<&mut T> {
        let s = self.slots.get_mut(key.slot as usize)?;
        if s.gen == key.gen {
            s.value.as_mut()
        } else {
            None
        }
    }

    /// Removes and returns the value if `key` is live; bumps the slot's
    /// generation (killing the key) and frees the slot for the next
    /// insert.
    pub fn take(&mut self, key: Key) -> Option<T> {
        let s = self.slots.get_mut(key.slot as usize)?;
        if s.gen != key.gen {
            return None;
        }
        let value = s.value.take();
        debug_assert!(value.is_some(), "generation matched an empty slot");
        s.gen = s.gen.wrapping_add(1);
        self.free.push(key.slot);
        self.live -= 1;
        value
    }

    /// The key of the live value in `slot`, if there is one. A holder
    /// that can only store a `usize` (the allocation tier) keys values
    /// by their slot.
    #[inline]
    pub fn key_at(&self, slot: usize) -> Option<Key> {
        let s = self.slots.get(slot)?;
        s.value.as_ref()?;
        Some(Key {
            slot: slot as u32,
            gen: s.gen,
        })
    }

    /// The live values in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| s.value.as_ref())
    }

    /// Number of live values.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no value is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::cases;

    #[test]
    fn insert_get_remove() {
        let mut slab = Slab::new();
        let a = slab.insert(1.0);
        let b = slab.insert(2.0);
        assert_eq!(slab.len(), 2);
        assert!(slab.is_live(a) && slab.is_live(b));
        assert_eq!(slab.get(a), Some(&1.0));
        assert_eq!(slab.get(b), Some(&2.0));
        assert_eq!(slab.take(a), Some(1.0));
        assert!(!slab.is_live(a));
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.take(b), Some(2.0));
        assert!(slab.is_empty());
    }

    #[test]
    fn slots_are_recycled_with_fresh_generations() {
        let mut slab = Slab::new();
        let a = slab.insert(1u32);
        slab.take(a);
        let b = slab.insert(2u32);
        assert_eq!(b.slot(), a.slot(), "slot recycled");
        assert_ne!(b, a, "generation moved on");
        assert!(!slab.is_live(a), "stale key stays dead after reuse");
        assert_eq!(slab.slots.len(), 1);
        assert_eq!(slab.take(b), Some(2));
    }

    #[test]
    fn stale_keys_get_and_take_nothing() {
        let mut slab = Slab::new();
        let a = slab.insert(1u8);
        assert_eq!(slab.take(a), Some(1));
        assert_eq!(slab.take(a), None, "the key dies with the take");
        let b = slab.insert(2u8); // reoccupies a's slot
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.get_mut(a), None);
        assert_eq!(slab.take(a), None);
        assert_eq!(slab.get(b), Some(&2), "the occupant is untouched");
        let never: Key = Key { slot: 7, gen: 0 };
        assert!(!slab.is_live(never) && slab.get(never).is_none());
        assert_eq!(slab.key_at(7), None);
    }

    #[test]
    fn is_live_and_iter_track_occupancy() {
        let mut slab = Slab::new();
        let a = slab.insert(1.0);
        let b = slab.insert(2.0);
        slab.take(a);
        let c = slab.insert(3.0); // recycles a's slot
        assert!(!slab.is_live(a) && slab.is_live(b) && slab.is_live(c));
        assert_eq!(slab.key_at(a.slot() as usize), Some(c));
        let live: Vec<f64> = slab.iter().copied().collect();
        assert_eq!(live, [3.0, 2.0], "slot order, live values only");
    }

    #[test]
    fn interleaved_lifetimes() {
        let mut slab = Slab::new();
        let keys: Vec<Key> = (0..100).map(|i| slab.insert(i)).collect();
        for &k in keys.iter().step_by(2) {
            slab.take(k);
        }
        for (i, &k) in keys.iter().enumerate().skip(1).step_by(2) {
            assert_eq!(slab.get(k), Some(&i));
        }
        assert_eq!(slab.len(), 50);
        for i in 0..50 {
            slab.insert(1000 + i);
        }
        assert_eq!(slab.len(), 100);
        assert_eq!(slab.slots.len(), 100, "the freed slots were reused");
    }

    #[test]
    fn high_churn_keeps_capacity_bounded() {
        let mut slab = Slab::with_capacity(4);
        for i in 0..10_000 {
            let k = slab.insert(i);
            slab.take(k);
        }
        assert_eq!(slab.slots.len(), 1, "churn reuses one slot");
        assert!(slab.is_empty());
    }

    /// The slab's contract written the plainest way: every slot ever
    /// used with its generation and value, and a stack of free slots.
    #[derive(Default)]
    struct Oracle {
        slots: Vec<(u32, Option<u64>)>,
        free: Vec<usize>,
    }

    impl Oracle {
        fn insert(&mut self, value: u64) -> (usize, u32) {
            let slot = self.free.pop().unwrap_or_else(|| {
                self.slots.push((0, None));
                self.slots.len() - 1
            });
            self.slots[slot].1 = Some(value);
            (slot, self.slots[slot].0)
        }

        fn get(&mut self, (slot, gen): (usize, u32)) -> Option<&mut u64> {
            let s = self.slots.get_mut(slot).filter(|s| s.0 == gen)?;
            s.1.as_mut()
        }

        fn take(&mut self, key: (usize, u32)) -> Option<u64> {
            let value = self.get(key).copied()?;
            self.slots[key.0] = (key.1 + 1, None);
            self.free.push(key.0);
            Some(value)
        }

        fn live(&self) -> Vec<u64> {
            self.slots.iter().filter_map(|s| s.1).collect()
        }
    }

    /// A random script of inserts, takes, reads, writes and slot lookups
    /// drives the slab and the oracle side by side. Keys are drawn from
    /// every key ever handed out, so most takes and reads late in a script
    /// present a stale key.
    #[test]
    fn slab_matches_the_oracle_on_random_scripts() {
        cases("slab_matches_the_oracle_on_random_scripts", 256, |g| {
            let mut slab = Slab::new();
            let mut oracle = Oracle::default();
            let mut keys: Vec<Key> = Vec::new();
            let ops = g.draw(1usize..400);
            for _ in 0..ops {
                let op = g.draw(0u8..10);
                if op < 4 || keys.is_empty() {
                    let value = g.any::<u64>();
                    let key = slab.insert(value);
                    let (slot, gen) = oracle.insert(value);
                    assert_eq!((key.slot as usize, key.gen), (slot, gen), "insert");
                    assert!(
                        (keys.iter())
                            .filter(|k| k.slot == key.slot)
                            .all(|&k| slab.get(k).is_none()),
                        "a reused slot refuses its earlier keys"
                    );
                    keys.push(key);
                } else {
                    let key = keys[g.draw(0..keys.len())];
                    let o = (key.slot as usize, key.gen);
                    match op {
                        4..=6 => assert_eq!(slab.take(key), oracle.take(o), "take {key:?}"),
                        7 => {
                            assert_eq!(slab.get(key).copied(), oracle.get(o).copied());
                            assert_eq!(slab.is_live(key), oracle.get(o).is_some());
                        }
                        8 => {
                            let value = g.any::<u64>();
                            if let Some(v) = slab.get_mut(key) {
                                *v = value;
                            }
                            if let Some(v) = oracle.get(o) {
                                *v = value;
                            }
                        }
                        _ => {
                            let slot = g.draw(0..oracle.slots.len() + 1);
                            let expected = (oracle.slots.get(slot))
                                .filter(|s| s.1.is_some())
                                .map(|s| (slot, s.0));
                            let found = slab.key_at(slot).map(|k| (k.slot as usize, k.gen));
                            assert_eq!(found, expected, "key_at({slot})");
                        }
                    }
                }
                assert_eq!(slab.len(), oracle.live().len(), "len");
                assert_eq!(slab.slots.len(), oracle.slots.len(), "slots in use");
                assert_eq!(slab.iter().copied().collect::<Vec<_>>(), oracle.live());
            }
        });
    }
}
