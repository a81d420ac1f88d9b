//! Dense, index-addressed per-node and per-pair tables.
//!
//! [`NodeId`]s are small and contiguous (`0..=gpu_count` via
//! [`NodeId::all`]), so per-peer state does not need an ordered tree: a
//! flat vector indexed by [`NodeId::raw`] gives O(1) lookup with no
//! pointer-chasing, while iterating slots in ascending index order
//! reproduces `BTreeMap<NodeId, _>` iteration order exactly. That order
//! equivalence is what lets the simulation engine swap its hot-path maps
//! for these tables without perturbing event schedules (the golden-parity
//! matrix replays bit-for-bit; see DESIGN.md §10).
//!
//! [`DenseNodeMap`] is the per-node table; [`PairTable`] nests two of them
//! for directed `(src, dst)` pairs. Both grow lazily on insert, because
//! several owners (e.g. batching state) are constructed before the node
//! count is known.

use crate::ids::{NodeId, PairId};
use core::fmt;

/// A map from [`NodeId`] to `T`, backed by a flat vector indexed by
/// [`NodeId::raw`].
///
/// Drop-in replacement for the hot-path `BTreeMap<NodeId, T>` tables:
/// iteration yields entries in ascending `NodeId` order, matching the
/// B-tree's order, and lookups are a single bounds-checked index. The
/// table grows lazily to the highest inserted raw id, so it is only
/// memory-dense when node ids are — which [`NodeId::all`] guarantees.
///
/// # Examples
///
/// ```
/// use mgpu_types::{DenseNodeMap, NodeId};
///
/// let mut m = DenseNodeMap::new();
/// m.insert(NodeId::gpu(2), "b");
/// m.insert(NodeId::CPU, "a");
/// assert_eq!(m.get(NodeId::gpu(2)), Some(&"b"));
/// let keys: Vec<_> = m.keys().collect();
/// assert_eq!(keys, vec![NodeId::CPU, NodeId::gpu(2)]); // ascending
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DenseNodeMap<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> DenseNodeMap<T> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        DenseNodeMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Creates an empty map pre-sized for a system with `gpu_count` GPUs
    /// (slots for the CPU plus every GPU).
    #[must_use]
    pub fn with_gpu_count(gpu_count: u16) -> Self {
        DenseNodeMap {
            slots: Vec::with_capacity(usize::from(gpu_count) + 1),
            len: 0,
        }
    }

    /// Number of occupied entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value for `node`, if present.
    #[must_use]
    pub fn get(&self, node: NodeId) -> Option<&T> {
        self.slots.get(usize::from(node.raw()))?.as_ref()
    }

    /// Mutable access to the value for `node`, if present.
    pub fn get_mut(&mut self, node: NodeId) -> Option<&mut T> {
        self.slots.get_mut(usize::from(node.raw()))?.as_mut()
    }

    /// Whether `node` has an entry.
    #[must_use]
    pub fn contains_key(&self, node: NodeId) -> bool {
        self.get(node).is_some()
    }

    fn slot_mut(&mut self, node: NodeId) -> &mut Option<T> {
        let idx = usize::from(node.raw());
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        &mut self.slots[idx]
    }

    /// Inserts a value for `node`, returning the previous value if any.
    pub fn insert(&mut self, node: NodeId, value: T) -> Option<T> {
        let prev = self.slot_mut(node).replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Removes and returns the value for `node`, if any. The slot itself
    /// is retained (the table never shrinks), keeping later reinsertion
    /// allocation-free.
    pub fn remove(&mut self, node: NodeId) -> Option<T> {
        let taken = self.slots.get_mut(usize::from(node.raw()))?.take();
        if taken.is_some() {
            self.len -= 1;
        }
        taken
    }

    /// The value for `node`, inserting `default()` first if absent —
    /// the dense equivalent of `BTreeMap::entry(..).or_insert_with(..)`.
    pub fn get_or_insert_with(&mut self, node: NodeId, default: impl FnOnce() -> T) -> &mut T {
        if self.slot_mut(node).is_none() {
            self.len += 1;
            *self.slot_mut(node) = Some(default());
        }
        self.slots[usize::from(node.raw())]
            .as_mut()
            .expect("slot just filled")
    }

    /// Entries in ascending [`NodeId`] order (the `BTreeMap` order).
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (NodeId::from_raw(i as u16), v)))
    }

    /// Mutable entries in ascending [`NodeId`] order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|v| (NodeId::from_raw(i as u16), v)))
    }

    /// Occupied keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().map(|(n, _)| n)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }

    /// Mutable values in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.iter_mut().map(|(_, v)| v)
    }
}

impl<T> Default for DenseNodeMap<T> {
    fn default() -> Self {
        DenseNodeMap::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for DenseNodeMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T> FromIterator<(NodeId, T)> for DenseNodeMap<T> {
    fn from_iter<I: IntoIterator<Item = (NodeId, T)>>(iter: I) -> Self {
        let mut m = DenseNodeMap::new();
        for (node, value) in iter {
            m.insert(node, value);
        }
        m
    }
}

impl<T> core::ops::Index<NodeId> for DenseNodeMap<T> {
    type Output = T;

    fn index(&self, node: NodeId) -> &T {
        self.get(node)
            .unwrap_or_else(|| panic!("no entry for {node}"))
    }
}

/// A map from directed [`PairId`] to `T`, backed by per-source
/// [`DenseNodeMap`] rows.
///
/// Iteration order is ascending `(src, dst)` — identical to
/// `BTreeMap<PairId, T>` (whose `Ord` compares `src` then `dst`), so the
/// same order-equivalence argument as [`DenseNodeMap`] applies.
///
/// # Examples
///
/// ```
/// use mgpu_types::{NodeId, PairId, PairTable};
///
/// let mut t = PairTable::new();
/// let p = PairId::new(NodeId::gpu(1), NodeId::gpu(2));
/// t.insert(p, 7u64);
/// assert_eq!(t.get(p), Some(&7));
/// assert_eq!(t.get(PairId::new(NodeId::gpu(2), NodeId::gpu(1))), None);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct PairTable<T> {
    rows: Vec<DenseNodeMap<T>>,
    len: usize,
}

impl<T> PairTable<T> {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        PairTable {
            rows: Vec::new(),
            len: 0,
        }
    }

    /// Number of occupied entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value for `pair`, if present.
    #[must_use]
    pub fn get(&self, pair: PairId) -> Option<&T> {
        self.rows.get(usize::from(pair.src.raw()))?.get(pair.dst)
    }

    /// Mutable access to the value for `pair`, if present.
    pub fn get_mut(&mut self, pair: PairId) -> Option<&mut T> {
        self.rows
            .get_mut(usize::from(pair.src.raw()))?
            .get_mut(pair.dst)
    }

    fn row_mut(&mut self, src: NodeId) -> &mut DenseNodeMap<T> {
        let idx = usize::from(src.raw());
        if idx >= self.rows.len() {
            self.rows.resize_with(idx + 1, DenseNodeMap::new);
        }
        &mut self.rows[idx]
    }

    /// Inserts a value for `pair`, returning the previous value if any.
    pub fn insert(&mut self, pair: PairId, value: T) -> Option<T> {
        let prev = self.row_mut(pair.src).insert(pair.dst, value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Removes and returns the value for `pair`, if any.
    pub fn remove(&mut self, pair: PairId) -> Option<T> {
        let taken = self
            .rows
            .get_mut(usize::from(pair.src.raw()))?
            .remove(pair.dst);
        if taken.is_some() {
            self.len -= 1;
        }
        taken
    }

    /// The value for `pair`, inserting `default()` first if absent.
    pub fn get_or_insert_with(&mut self, pair: PairId, default: impl FnOnce() -> T) -> &mut T {
        {
            let row = self.row_mut(pair.src);
            if !row.contains_key(pair.dst) {
                row.insert(pair.dst, default());
                self.len += 1;
            }
        }
        self.rows[usize::from(pair.src.raw())]
            .get_mut(pair.dst)
            .expect("entry just ensured")
    }

    /// Entries in ascending `(src, dst)` order.
    pub fn iter(&self) -> impl Iterator<Item = (PairId, &T)> {
        self.rows.iter().enumerate().flat_map(|(src, row)| {
            let src = NodeId::from_raw(src as u16);
            row.iter().map(move |(dst, v)| (PairId { src, dst }, v))
        })
    }

    /// Mutable entries in ascending `(src, dst)` order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (PairId, &mut T)> {
        self.rows.iter_mut().enumerate().flat_map(|(src, row)| {
            let src = NodeId::from_raw(src as u16);
            row.iter_mut().map(move |(dst, v)| (PairId { src, dst }, v))
        })
    }

    /// Occupied pairs in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = PairId> + '_ {
        self.iter().map(|(p, _)| p)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }

    /// Mutable values in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.iter_mut().map(|(_, v)| v)
    }
}

impl<T> Default for PairTable<T> {
    fn default() -> Self {
        PairTable::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for PairTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T> FromIterator<(PairId, T)> for PairTable<T> {
    fn from_iter<I: IntoIterator<Item = (PairId, T)>>(iter: I) -> Self {
        let mut t = PairTable::new();
        for (pair, value) in iter {
            t.insert(pair, value);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m = DenseNodeMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(NodeId::gpu(3), 30), None);
        assert_eq!(m.insert(NodeId::gpu(3), 31), Some(30));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(NodeId::gpu(3)), Some(&31));
        assert_eq!(m.get(NodeId::gpu(2)), None);
        assert_eq!(m.remove(NodeId::gpu(3)), Some(31));
        assert_eq!(m.remove(NodeId::gpu(3)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn iteration_matches_btreemap_order() {
        // Insert in scrambled order; iteration must come out ascending,
        // exactly as a BTreeMap would yield it.
        let entries = [(5u16, 'e'), (0, 'a'), (3, 'c'), (1, 'b'), (4, 'd')];
        let mut dense = DenseNodeMap::new();
        let mut tree = BTreeMap::new();
        for &(raw, v) in &entries {
            dense.insert(NodeId::from_raw(raw), v);
            tree.insert(NodeId::from_raw(raw), v);
        }
        let dense_vec: Vec<_> = dense.iter().map(|(n, &v)| (n, v)).collect();
        let tree_vec: Vec<_> = tree.iter().map(|(&n, &v)| (n, v)).collect();
        assert_eq!(dense_vec, tree_vec);
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let mut m: DenseNodeMap<Vec<u32>> = DenseNodeMap::new();
        m.get_or_insert_with(NodeId::gpu(1), Vec::new).push(1);
        m.get_or_insert_with(NodeId::gpu(1), Vec::new).push(2);
        assert_eq!(m.len(), 1);
        assert_eq!(m[NodeId::gpu(1)], vec![1, 2]);
    }

    #[test]
    fn removed_slot_reinserts_without_len_drift() {
        let mut m = DenseNodeMap::new();
        m.insert(NodeId::gpu(7), ());
        m.remove(NodeId::gpu(7));
        m.insert(NodeId::gpu(7), ());
        assert_eq!(m.len(), 1);
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![NodeId::gpu(7)]);
    }

    #[test]
    fn from_iterator_collects() {
        let m: DenseNodeMap<u32> = NodeId::all(3).map(|n| (n, u32::from(n.raw()))).collect();
        assert_eq!(m.len(), 4);
        assert_eq!(m[NodeId::gpu(2)], 2);
    }

    #[test]
    #[should_panic(expected = "no entry for GPU2")]
    fn index_missing_panics() {
        let m: DenseNodeMap<u32> = DenseNodeMap::new();
        let _ = m[NodeId::gpu(2)];
    }

    #[test]
    fn pair_table_round_trip() {
        let mut t = PairTable::new();
        let ab = PairId::new(NodeId::gpu(1), NodeId::gpu(2));
        let ba = PairId::new(NodeId::gpu(2), NodeId::gpu(1));
        assert_eq!(t.insert(ab, 1), None);
        assert_eq!(t.insert(ba, 2), None);
        assert_eq!(t.insert(ab, 3), Some(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(ab), Some(&3));
        assert_eq!(t.remove(ab), Some(3));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(ab), None);
    }

    #[test]
    fn pair_iteration_matches_btreemap_order() {
        let mut pairs = Vec::new();
        for src in NodeId::all(3) {
            for dst in src.peers(3) {
                pairs.push(PairId::new(src, dst));
            }
        }
        // Insert reversed to prove ordering is by key, not insertion.
        let mut table = PairTable::new();
        let mut tree = BTreeMap::new();
        for (i, &p) in pairs.iter().rev().enumerate() {
            table.insert(p, i);
            tree.insert(p, i);
        }
        let t_vec: Vec<_> = table.iter().map(|(p, &v)| (p, v)).collect();
        let b_vec: Vec<_> = tree.iter().map(|(&p, &v)| (p, v)).collect();
        assert_eq!(t_vec, b_vec);
    }

    #[test]
    fn pair_get_or_insert_with_tracks_len() {
        let mut t: PairTable<u64> = PairTable::new();
        let p = PairId::new(NodeId::CPU, NodeId::gpu(1));
        *t.get_or_insert_with(p, || 0) += 5;
        *t.get_or_insert_with(p, || 0) += 5;
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p), Some(&10));
    }
}
