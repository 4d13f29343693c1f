//! A tournament tree: `O(log N)` key updates with an `O(1)` read of the
//! first-ranked slot.
//!
//! Two layers run on it: the event list's re-armable timers
//! ([`crate::queue`]) rank their pending firings by the packed
//! `(time, seq)` key that orders the heap, and the cluster crate's
//! load-directed policies and Algorithm 2 rank servers by load or credit.
//!
//! # One tree, any ordered key
//!
//! [`Tournament`] keeps the keys with the caller, who hands the tree a
//! [`SlotOrder`] view on every update. Each node stores the slot that
//! wins its subtree and whatever the order carries of that winner's key
//! ([`SlotOrder::Key`]). Small keys (an f64 load, a packed `u128` event
//! key) are carried whole, so a match never looks a winner up. A key too
//! large to copy at every node (Algorithm 2's `i128` and tie-break
//! product) carries only the winner's presence: a node costs 5 bytes,
//! and a match of two present winners reads their slots.
//!
//! # Tie-breaking contract
//!
//! Every match in the tree hands the order the lower slot first and
//! keeps it on `le`, so each internal node holds the leftmost minimum of
//! its subtree and the root the leftmost global minimum: the slot a
//! linear scan in index order, keeping a candidate only on a strictly
//! smaller key, would return.
//!
//! # Absent entries
//!
//! A slot the order reports absent ranks after every present one, so it
//! wins only a subtree with no present slot. When every slot is absent
//! [`Tournament::winner`] returns `None`. f64 keys must never be NaN: a
//! NaN poisons every comparison on its root path.

/// A key a tournament node can carry for its winning slot.
pub trait TreeKey: Copy {
    /// The key of a slot that takes no part.
    const ABSENT: Self;
}

impl TreeKey for f64 {
    const ABSENT: f64 = f64::INFINITY;
}

/// A packed `(time, seq)` event key; `u128::MAX` is no pending firing.
impl TreeKey for u128 {
    const ABSENT: u128 = u128::MAX;
}

/// Carry only whether the winner is present; the order reads the slots
/// to rank two present ones.
impl TreeKey for bool {
    const ABSENT: bool = false;
}

/// The order a [`Tournament`] runs on: which slots take part, and how
/// two of them rank.
pub trait SlotOrder {
    /// What a node keeps of its winner's key, so that a match need not
    /// look the winner up: the key itself when it is small, or just the
    /// winner's presence when [`SlotOrder::le`] reads the slots.
    type Key: TreeKey;

    /// Whether slot `i` takes part.
    fn present(&self, i: usize) -> bool;

    /// The key carried for slot `i` (`ABSENT` when it takes no part).
    fn key(&self, i: usize) -> Self::Key;

    /// Whether slot `lo` ranks at or before slot `hi`, where `lo < hi`,
    /// given the keys carried for them. An absent slot ranks after every
    /// present one. Must be a total preorder, so that "keep `lo` unless
    /// `hi` is strictly smaller" picks the leftmost minimum.
    fn le(&self, lo: usize, lo_key: Self::Key, hi: usize, hi_key: Self::Key) -> bool;
}

/// f64 keys: [`f64::INFINITY`] is absent, and smaller is better.
impl SlotOrder for [f64] {
    type Key = f64;

    #[inline]
    fn present(&self, i: usize) -> bool {
        self[i] != f64::INFINITY
    }

    #[inline]
    fn key(&self, i: usize) -> f64 {
        self[i]
    }

    #[inline]
    fn le(&self, _lo: usize, lo_key: f64, _hi: usize, hi_key: f64) -> bool {
        lo_key <= hi_key
    }
}

/// Packed event keys: `u128::MAX` is absent, and smaller fires first.
impl SlotOrder for [u128] {
    type Key = u128;

    #[inline]
    fn present(&self, i: usize) -> bool {
        self[i] != u128::MAX
    }

    #[inline]
    fn key(&self, i: usize) -> u128 {
        self[i]
    }

    #[inline]
    fn le(&self, _lo: usize, lo_key: u128, _hi: usize, hi_key: u128) -> bool {
        lo_key <= hi_key
    }
}

/// Flat-array tournament tree over `len` slots.
///
/// Layout: node 1 is the root, node `k` has children `2k` and `2k + 1`,
/// the nodes `[1, len)` are internal and `[len, 2·len)` are the leaves.
/// When `len` is not a power of two the leaves sit on two levels; slots
/// map to leaves so that the leaves read left to right are slots
/// `0, 1, …`: the deeper level first, then the rest. So every left
/// subtree holds lower slots than its right sibling, and a match needs
/// no index comparison. `win[k]` is the slot that wins node `k`'s
/// subtree — always one of its own slots, and the slot itself at a leaf
/// — and `key[k]` the key carried with it. A node costs 4 bytes plus
/// its key.
#[derive(Debug, Clone)]
pub struct Tournament<K> {
    win: Vec<u32>,
    key: Vec<K>,
    len: usize,
    /// `2·len` rounded down to a power of two: the first leaf node of
    /// the deeper level.
    deep_start: usize,
}

impl<K: TreeKey> Tournament<K> {
    /// A tree over `len` slots, every one absent.
    pub fn new(len: usize) -> Self {
        assert!(
            u32::try_from(len).is_ok(),
            "{len} slots overflow a u32 index"
        );
        let mut tree = Tournament {
            win: vec![0; 2 * len],
            key: vec![K::ABSENT; 2 * len],
            len,
            deep_start: (len + 1).next_power_of_two(),
        };
        // The deeper level holds the lowest slots, the level above the
        // rest (see `leaf_of`).
        let deep = (2 * len).saturating_sub(tree.deep_start);
        for (slot, leaf) in (0..deep).zip(tree.deep_start..2 * len) {
            tree.win[leaf] = slot as u32;
        }
        for (slot, leaf) in (deep..len).zip(len..tree.deep_start) {
            tree.win[leaf] = slot as u32;
        }
        // Each internal node starts with its leftmost slot: a slot of its
        // own, so no later update can surface one from outside it.
        for k in (1..len).rev() {
            tree.win[k] = tree.win[2 * k];
        }
        tree
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree has zero slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The leaf node of slot `i`.
    #[inline]
    fn leaf_of(&self, i: usize) -> usize {
        let deep = 2 * self.len - self.deep_start;
        if i < deep {
            self.deep_start + i
        } else {
            self.len + i - deep
        }
    }

    /// The key slot `i` carries now.
    pub fn key(&self, i: usize) -> K {
        self.key[self.leaf_of(i)]
    }

    /// Node `k`'s match: its left child's winner against its right
    /// child's, which holds higher slots.
    #[inline]
    fn play<O: SlotOrder<Key = K> + ?Sized>(&mut self, k: usize, order: &O) {
        let (l, r) = (2 * k, 2 * k + 1);
        let won = if order.le(
            self.win[l] as usize,
            self.key[l],
            self.win[r] as usize,
            self.key[r],
        ) {
            l
        } else {
            r
        };
        self.win[k] = self.win[won];
        self.key[k] = self.key[won];
    }

    /// Re-reads slot `i`'s key and replays its root path after its key
    /// or presence changed: `O(log N)`.
    ///
    /// The replay stops at the first node whose winner is the same slot
    /// before and after its match, when that slot is not `i`: the slot's
    /// key did not change, so the node carries what it carried, and no
    /// match above it reads anything new.
    #[inline]
    pub fn update<O: SlotOrder<Key = K> + ?Sized>(&mut self, i: usize, order: &O) {
        debug_assert!(i < self.len, "slot {i} out of {}", self.len);
        let mut node = self.leaf_of(i);
        self.key[node] = order.key(i);
        while node > 1 {
            node /= 2;
            let before = self.win[node];
            self.play(node, order);
            if self.win[node] == before && before as usize != i {
                break;
            }
        }
    }

    /// Re-reads every key and recomputes every internal node bottom-up:
    /// `O(N)`, used at construction and bulk reloads (e.g. a sync-plane
    /// merge that rewrites every key).
    pub fn rebuild<O: SlotOrder<Key = K> + ?Sized>(&mut self, order: &O) {
        for i in 0..self.len {
            let leaf = self.leaf_of(i);
            self.key[leaf] = order.key(i);
        }
        for k in (1..self.len).rev() {
            self.play(k, order);
        }
    }

    /// The slot ranked first and its carried key, present or not; `None`
    /// for a tree of no slots.
    #[inline]
    pub fn root(&self) -> Option<(usize, K)> {
        (self.len > 0).then(|| (self.win[1] as usize, self.key[1]))
    }

    /// The leftmost slot ranked first, or `None` when no slot is
    /// present: `O(1)`.
    #[inline]
    pub fn winner<O: SlotOrder<Key = K> + ?Sized>(&self, order: &O) -> Option<usize> {
        self.root()
            .map(|(slot, _)| slot)
            .filter(|&slot| order.present(slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{cases, Gen};

    /// A slot-reading order like Algorithm 2's: nodes carry only
    /// presence, and a match of two present slots reads their keys.
    struct Reading<'a>(&'a [Option<u8>]);

    impl SlotOrder for Reading<'_> {
        type Key = bool;

        fn present(&self, i: usize) -> bool {
            self.0[i].is_some()
        }

        fn key(&self, i: usize) -> bool {
            self.present(i)
        }

        fn le(&self, lo: usize, lo_in: bool, hi: usize, hi_in: bool) -> bool {
            if lo_in && hi_in {
                self.0[lo] <= self.0[hi]
            } else {
                lo_in
            }
        }
    }

    /// Every node of `tree` (winner and carried key, as printed) equals
    /// a fresh rebuild's.
    fn assert_matches_rebuild<K: TreeKey + std::fmt::Debug, O: SlotOrder<Key = K> + ?Sized>(
        tree: &Tournament<K>,
        order: &O,
        at: &str,
    ) {
        let mut fresh = Tournament::new(tree.len());
        fresh.rebuild(order);
        assert_eq!(tree.win, fresh.win, "{at}: winners");
        assert_eq!(
            format!("{:?}", tree.key),
            format!("{:?}", fresh.key),
            "{at}: keys"
        );
    }

    /// A small key with many ties: `None` is absent.
    fn small(g: &mut Gen) -> Option<u8> {
        let k = g.draw(0u8..6);
        (k < 5).then_some(k)
    }

    #[test]
    fn every_node_after_updates_equals_a_fresh_rebuild() {
        cases("tournament_updates_match_rebuild", 256, |g| {
            let len = g.draw(1usize..70);
            let mut keys: Vec<Option<u8>> = g.vec(len, small);
            let f64s = |keys: &[Option<u8>]| -> Vec<f64> {
                keys.iter()
                    .map(|k| k.map_or(f64::INFINITY, f64::from))
                    .collect()
            };
            let u128s = |keys: &[Option<u8>]| -> Vec<u128> {
                keys.iter()
                    .map(|k| k.map_or(u128::MAX, |k| u128::from(k) << 64))
                    .collect()
            };
            // f64 and u128 trees start from `new` (all absent, which is
            // already what a rebuild gives them); the slot-reading tree
            // from a rebuild, because its all-absent matches keep the
            // right slot.
            let mut by_f64 = Tournament::new(len);
            let mut by_u128 = Tournament::new(len);
            for i in 0..len {
                by_f64.update(i, &f64s(&keys)[..]);
                by_u128.update(i, &u128s(&keys)[..]);
            }
            let mut reading = Tournament::new(len);
            reading.rebuild(&Reading(&keys));
            for step in 0..200 {
                let i = g.draw(0..len);
                keys[i] = small(g);
                let (f, u) = (f64s(&keys), u128s(&keys));
                by_f64.update(i, &f[..]);
                by_u128.update(i, &u[..]);
                reading.update(i, &Reading(&keys));
                let at = format!("len {len}, step {step}, slot {i}");
                assert_matches_rebuild(&by_f64, &f[..], &at);
                assert_matches_rebuild(&by_u128, &u[..], &at);
                assert_matches_rebuild(&reading, &Reading(&keys), &at);
            }
        });
    }
}
