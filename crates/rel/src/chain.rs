//! Allocation-free row grouping for the executor's hash tables.
//!
//! Join build tables, `Distinct`, the load-time column indexes and the
//! fixpoints' adjacency all group rows by a key. Storing each group as its
//! own `Vec<u32>` costs one heap allocation per distinct key — on the
//! LFP-path programs that is about one allocation for every two tuples
//! emitted. The two layouts here make no per-key allocation:
//!
//! * [`Chains`] — a head map from each key to its first slot plus one flat
//!   `next` array linking every slot to the next slot with the same key.
//!   Built in one reverse pass, so each chain lists its slots in ascending
//!   order: probing yields build rows in exactly the order the old
//!   per-key vectors did.
//! * [`Csr`] — compressed sparse rows over dense `u32` node codes: an
//!   offset array and one target array, targets of each node in edge order.

use crate::fxhash::{fx_map_with_capacity, FxHashMap};
use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::hash::Hash;

/// Chain terminator in [`Chains::next`].
const END: u32 = u32::MAX;

/// Slots `0..n` grouped by key: `head` holds each key's first slot and
/// `next[s]` the following slot with the same key (or an end marker).
#[derive(Clone, Debug)]
pub(crate) struct Chains<K> {
    head: FxHashMap<K, u32>,
    next: Vec<u32>,
}

impl<K> Default for Chains<K> {
    fn default() -> Self {
        Chains {
            head: FxHashMap::default(),
            next: Vec::new(),
        }
    }
}

impl<K: Hash + Eq> Chains<K> {
    /// Group slots `0..n` by `key(slot)`; a `None` key (a NULL join key)
    /// leaves its slot out of every chain. One reverse pass: each key's
    /// head ends up at its smallest slot and its chain ascends.
    pub(crate) fn build(n: usize, mut key: impl FnMut(usize) -> Option<K>) -> Self {
        let mut head: FxHashMap<K, u32> = fx_map_with_capacity(n);
        let mut next = vec![END; n];
        for slot in (0..n).rev() {
            if let Some(k) = key(slot) {
                match head.entry(k) {
                    Entry::Occupied(mut e) => next[slot] = e.insert(slot as u32),
                    Entry::Vacant(e) => {
                        e.insert(slot as u32);
                    }
                }
            }
        }
        Chains { head, next }
    }

    /// The slots holding `key`, ascending, or `None` when no slot does.
    /// Semi and anti probes stop at the `Some`: they only test the head.
    #[inline]
    pub(crate) fn get<Q>(&self, key: &Q) -> Option<ChainIter<'_>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.head.get(key).map(|&first| ChainIter {
            next: &self.next,
            cur: first,
        })
    }

    /// Number of distinct keys.
    #[inline]
    pub(crate) fn keys(&self) -> usize {
        self.head.len()
    }
}

/// The slots of one chain, ascending.
#[derive(Clone, Debug)]
pub struct ChainIter<'a> {
    next: &'a [u32],
    cur: u32,
}

impl ChainIter<'_> {
    /// An iterator over no slots.
    pub fn empty() -> Self {
        ChainIter {
            next: &[],
            cur: END,
        }
    }
}

impl Iterator for ChainIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.cur == END {
            return None;
        }
        let slot = self.cur;
        self.cur = self.next[slot as usize];
        Some(slot)
    }
}

/// Append-only chains keyed by a hash, for streaming deduplication: each
/// kept row is pushed onto the chain of its hash, and a candidate is a
/// duplicate exactly when some row on that chain compares equal.
#[derive(Debug)]
pub(crate) struct HashChains {
    head: FxHashMap<u64, u32>,
    next: Vec<u32>,
}

impl HashChains {
    /// Room for `n` rows.
    pub(crate) fn with_capacity(n: usize) -> Self {
        HashChains {
            head: fx_map_with_capacity(n),
            next: Vec::with_capacity(n),
        }
    }

    /// Push the next row (its id is the number of rows pushed so far)
    /// under `hash`, unless `is_dup` holds for a row already on that
    /// chain. Returns whether the row was pushed. One hash lookup.
    #[inline]
    pub(crate) fn insert_unless(&mut self, hash: u64, mut is_dup: impl FnMut(u32) -> bool) -> bool {
        let row = self.next.len() as u32;
        match self.head.entry(hash) {
            Entry::Occupied(mut e) => {
                let mut cur = *e.get();
                while cur != END {
                    if is_dup(cur) {
                        return false;
                    }
                    cur = self.next[cur as usize];
                }
                self.next.push(e.insert(row));
            }
            Entry::Vacant(e) => {
                e.insert(row);
                self.next.push(END);
            }
        }
        true
    }
}

/// Compressed sparse-row adjacency over dense node codes `0..nodes`: the
/// targets of node `v` are `targets[offsets[v]..offsets[v + 1]]`, in the
/// order their edges were given. Nodes at or past `nodes` have none.
#[derive(Clone, Debug, Default)]
pub(crate) struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Build from `(from, to)` edges with every `from < nodes`: count the
    /// out-degrees, prefix-sum them into offsets, then place each target
    /// in edge order (a stable counting sort; `edges` is walked twice).
    pub(crate) fn build(nodes: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let mut offsets = vec![0u32; nodes + 1];
        for (f, _) in edges.clone() {
            offsets[f as usize + 1] += 1;
        }
        for v in 0..nodes {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor: Vec<u32> = offsets[..nodes].to_vec();
        let mut targets = vec![0u32; offsets[nodes] as usize];
        for (f, t) in edges {
            let at = &mut cursor[f as usize];
            targets[*at as usize] = t;
            *at += 1;
        }
        Csr { offsets, targets }
    }

    /// The targets of `v`, in edge order.
    #[inline]
    pub(crate) fn of(&self, v: u32) -> &[u32] {
        let v = v as usize;
        if v + 1 >= self.offsets.len() {
            return &[];
        }
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_ascend_and_skip_none_keys() {
        let keys = [Some(3), Some(1), None, Some(3), Some(1), Some(3)];
        let c = Chains::build(keys.len(), |i| keys[i]);
        assert_eq!(c.keys(), 2);
        assert_eq!(c.get(&3).unwrap().collect::<Vec<_>>(), vec![0, 3, 5]);
        assert_eq!(c.get(&1).unwrap().collect::<Vec<_>>(), vec![1, 4]);
        assert!(c.get(&7).is_none());
        assert_eq!(ChainIter::empty().count(), 0);
    }

    #[test]
    fn hash_chains_reject_equal_rows_on_colliding_hashes() {
        let rows = [10, 20, 10, 30, 20];
        let mut kept: Vec<u32> = Vec::new();
        let mut chains = HashChains::with_capacity(rows.len());
        for &r in &rows {
            // every row collides on one hash; equality decides
            if chains.insert_unless(0, |k| kept[k as usize] == r) {
                kept.push(r);
            }
        }
        assert_eq!(kept, vec![10, 20, 30]);
    }

    #[test]
    fn csr_keeps_edge_order() {
        let edges = [(2, 5), (0, 1), (2, 3), (0, 4), (2, 5)];
        let csr = Csr::build(4, edges.iter().copied());
        assert_eq!(csr.of(0), &[1, 4]);
        assert_eq!(csr.of(1), &[] as &[u32]);
        assert_eq!(csr.of(2), &[5, 3, 5]);
        assert_eq!(csr.of(3), &[] as &[u32]);
        assert_eq!(csr.of(9), &[] as &[u32], "codes past the node count");
    }
}
