//! Join-based parallel bulk operations.
//!
//! `Union`, `Intersection` and `Difference` follow the recursive
//! divide-and-conquer of Blelloch et al. [SPAA'16]: expose the root of
//! the higher-priority tree, split the other tree by that key, recurse
//! on both sides in parallel, and reassemble with `join`/`join2`. With
//! treaps this yields `O(k·log(n/k + 1))` work and `O(log n · log k)`
//! depth w.h.p. for `k = min(|a|,|b|)`, `n = max(|a|,|b|)` — the bounds
//! the paper cites for its batch updates (§4.2).

use crate::node::{pri_greater, Augment, Entry, Link};
use crate::tree::{join_link, split_link, Tree};

/// Below this combined size the recursion stops forking and runs
/// sequentially.
///
/// Grain rationale (re-audited against the lock-free Chase–Lev
/// runtime; `docs/RUNTIME.md` has the measurements): a fork is no
/// longer "a deque round-trip plus a latch allocation, ~1 µs" — the
/// un-stolen owner path is allocation-, lock- and CAS-free (~0.1 µs),
/// and only a genuinely stolen fork pays a cross-thread handshake
/// (~1 µs worst case). One level of `union`/`difference` still costs
/// ~300–500 ns per exposed node (a `split_link` descent plus a
/// `join_link` rebuild), so a 256-entry leaf carries ~75–125 µs of
/// work — stolen-fork overhead ~1%, un-stolen ~0.1% — while a batch
/// of `k` updates against a large tree now exposes `~k/128` stealable
/// tasks, twice the previous width for the mid-size batches the
/// paper's Table 8 sweeps.
const SEQ_BULK: usize = 256;

impl<E: Entry, A: Augment<E>> Tree<E, A> {
    /// The union of two trees; entries present in both are merged with
    /// `combine(self_entry, other_entry)`.
    ///
    /// `O(k·log(n/k + 1))` work w.h.p. where `k` is the smaller size.
    ///
    /// ```
    /// use ptree::Tree;
    /// let a: Tree<u32> = Tree::from_sorted(&[1, 3, 5]);
    /// let b: Tree<u32> = Tree::from_sorted(&[3, 4]);
    /// assert_eq!(a.union(&b, |x, _| *x).to_vec(), vec![1, 3, 4, 5]);
    /// ```
    pub fn union(&self, other: &Tree<E, A>, combine: impl Fn(&E, &E) -> E + Sync) -> Tree<E, A> {
        Tree::from_link(union_link(self.root.clone(), other.root.clone(), &combine))
    }

    /// Entries of `self` whose keys also appear in `other`, merged with
    /// `combine(self_entry, other_entry)`.
    pub fn intersection(
        &self,
        other: &Tree<E, A>,
        combine: impl Fn(&E, &E) -> E + Sync,
    ) -> Tree<E, A> {
        Tree::from_link(intersect_link(
            self.root.clone(),
            other.root.clone(),
            &combine,
        ))
    }

    /// Entries of `self` whose keys do **not** appear in `other`.
    pub fn difference(&self, other: &Tree<E, A>) -> Tree<E, A> {
        Tree::from_link(difference_link(self.root.clone(), other.root.clone()))
    }

    /// Inserts a batch of entries; duplicates within the batch and
    /// collisions with existing entries are resolved by
    /// `combine(existing_or_earlier, new)`.
    ///
    /// Implemented as `Build` + `Union`, exactly as the paper's
    /// `MultiInsert` (§4.1).
    pub fn multi_insert(&self, batch: Vec<E>, combine: impl Fn(&E, E) -> E + Sync) -> Tree<E, A> {
        if batch.is_empty() {
            return self.clone();
        }
        let addend = Tree::build(batch, |a, b| combine(a, b));
        self.union(&addend, |old, new| combine(old, new.clone()))
    }

    /// Deletes every key in `batch` that is present.
    ///
    /// Implemented as `Build` + `Difference` (`MultiDelete`, §4.1).
    pub fn multi_delete(&self, batch: Vec<E::Key>) -> Tree<E, A>
    where
        E::Key: Entry<Key = E::Key>,
    {
        if batch.is_empty() {
            return self.clone();
        }
        let gone: Tree<E::Key, crate::NoAug> = Tree::build(batch, |_, n| n);
        Tree::from_link(difference_keys_link(self.root.clone(), gone.root))
    }

    /// Keeps the entries satisfying `pred`. `O(n)` work, polylog depth.
    pub fn filter(&self, pred: impl Fn(&E) -> bool + Sync) -> Tree<E, A> {
        Tree::from_link(filter_link(&self.root, &pred))
    }

    /// Applies `f` to every entry in parallel (in no particular order).
    pub fn par_for_each(&self, f: impl Fn(&E) + Sync) {
        par_for_each_link(&self.root, &f);
    }

    /// Maps every entry through `f` and reduces the results with the
    /// associative `op` starting from `id`. `O(n)` work, `O(log n)` depth.
    pub fn map_reduce<R: Send>(
        &self,
        f: impl Fn(&E) -> R + Sync,
        op: impl Fn(R, R) -> R + Sync,
        id: impl Fn() -> R + Sync,
    ) -> R {
        map_reduce_link(&self.root, &f, &op, &id)
    }

    /// Rebuilds each entry through `f`, which must preserve the key.
    /// Used e.g. to transform all values of a map in one pass.
    ///
    /// # Panics
    ///
    /// Debug builds assert the key is unchanged.
    pub fn map_values(&self, f: impl Fn(&E) -> E + Sync) -> Tree<E, A> {
        fn go<E: Entry, A: Augment<E>>(
            link: &Link<E, A>,
            f: &(impl Fn(&E) -> E + Sync),
        ) -> Link<E, A> {
            let n = link.as_ref()?;
            let entry = f(&n.entry);
            debug_assert!(entry.key() == n.entry.key(), "map_values changed a key");
            let (l, r) = if n.size > SEQ_BULK {
                rayon::join(|| go(&n.left, f), || go(&n.right, f))
            } else {
                (go(&n.left, f), go(&n.right, f))
            };
            crate::node::mk_node(l, entry, r)
        }
        Tree::from_link(go(&self.root, &f))
    }
}

fn maybe_par<L: Send, R: Send>(
    par: bool,
    l: impl FnOnce() -> L + Send,
    r: impl FnOnce() -> R + Send,
) -> (L, R) {
    if par {
        rayon::join(l, r)
    } else {
        (l(), r())
    }
}

fn union_link<E: Entry, A: Augment<E>>(
    a: Link<E, A>,
    b: Link<E, A>,
    combine: &(impl Fn(&E, &E) -> E + Sync),
) -> Link<E, A> {
    let (Some(an), Some(bn)) = (&a, &b) else {
        return a.or(b);
    };
    // Pivot on the globally max-priority root so the output root is
    // already correct and `join` does no rotations at this level. The
    // recursive calls keep positional orientation — the first argument
    // is always the `a` side — so `combine` sees (a-entry, b-entry) at
    // every level.
    let pivot_is_a = pri_greater(&an.entry, &bn.entry);
    let pivot = if pivot_is_a { an.clone() } else { bn.clone() };
    let rest = if pivot_is_a { b } else { a };
    let par = pivot.size + rest.as_ref().map_or(0, |n| n.size) > SEQ_BULK;
    let (rl, found, rr) = split_link(&rest, pivot.entry.key());
    let entry = match &found {
        Some(other) if pivot_is_a => combine(&pivot.entry, other),
        Some(other) => combine(other, &pivot.entry),
        None => pivot.entry.clone(),
    };
    let (l, r) = if pivot_is_a {
        maybe_par(
            par,
            || union_link(pivot.left.clone(), rl, combine),
            || union_link(pivot.right.clone(), rr, combine),
        )
    } else {
        maybe_par(
            par,
            || union_link(rl, pivot.left.clone(), combine),
            || union_link(rr, pivot.right.clone(), combine),
        )
    };
    join_link(l, entry, r)
}

fn intersect_link<E: Entry, A: Augment<E>>(
    a: Link<E, A>,
    b: Link<E, A>,
    combine: &(impl Fn(&E, &E) -> E + Sync),
) -> Link<E, A> {
    let (Some(an), Some(_)) = (&a, &b) else {
        return None;
    };
    let an = an.clone();
    let par = an.size > SEQ_BULK;
    let (bl, found, br) = split_link(&b, an.entry.key());
    let (l, r) = maybe_par(
        par,
        || intersect_link(an.left.clone(), bl, combine),
        || intersect_link(an.right.clone(), br, combine),
    );
    match found {
        Some(other) => join_link(l, combine(&an.entry, &other), r),
        None => join2_link(l, r),
    }
}

fn difference_link<E: Entry, A: Augment<E>>(a: Link<E, A>, b: Link<E, A>) -> Link<E, A> {
    let Some(an) = &a else { return None };
    if b.is_none() {
        return a;
    }
    let an = an.clone();
    let par = an.size > SEQ_BULK;
    let (bl, found, br) = split_link(&b, an.entry.key());
    let (l, r) = maybe_par(
        par,
        || difference_link(an.left.clone(), bl),
        || difference_link(an.right.clone(), br),
    );
    if found.is_some() {
        join2_link(l, r)
    } else {
        join_link(l, an.entry.clone(), r)
    }
}

/// Difference where the subtrahend is a tree over bare keys rather than
/// full entries (supports `multi_delete` without fabricating values).
fn difference_keys_link<E, A, K>(a: Link<E, A>, b: Link<K, crate::NoAug>) -> Link<E, A>
where
    E: Entry<Key = K>,
    A: Augment<E>,
    K: Entry<Key = K> + crate::TreapKey,
{
    let Some(an) = &a else { return None };
    if b.is_none() {
        return a;
    }
    let an = an.clone();
    let par = an.size > SEQ_BULK;
    let (bl, found, br) = split_link(&b, an.entry.key());
    let (l, r) = maybe_par(
        par,
        || difference_keys_link(an.left.clone(), bl),
        || difference_keys_link(an.right.clone(), br),
    );
    if found.is_some() {
        join2_link(l, r)
    } else {
        join_link(l, an.entry.clone(), r)
    }
}

fn join2_link<E: Entry, A: Augment<E>>(l: Link<E, A>, r: Link<E, A>) -> Link<E, A> {
    Tree::join2(Tree::from_link(l), Tree::from_link(r)).root
}

fn filter_link<E: Entry, A: Augment<E>>(
    link: &Link<E, A>,
    pred: &(impl Fn(&E) -> bool + Sync),
) -> Link<E, A> {
    let Some(n) = link else { return None };
    let par = n.size > SEQ_BULK;
    let (l, r) = maybe_par(
        par,
        || filter_link(&n.left, pred),
        || filter_link(&n.right, pred),
    );
    if pred(&n.entry) {
        join_link(l, n.entry.clone(), r)
    } else {
        join2_link(l, r)
    }
}

fn par_for_each_link<E: Entry, A: Augment<E>>(link: &Link<E, A>, f: &(impl Fn(&E) + Sync)) {
    let Some(n) = link else { return };
    let par = n.size > SEQ_BULK;
    maybe_par(
        par,
        || par_for_each_link(&n.left, f),
        || {
            f(&n.entry);
            par_for_each_link(&n.right, f);
        },
    );
}

fn map_reduce_link<E: Entry, A: Augment<E>, R: Send>(
    link: &Link<E, A>,
    f: &(impl Fn(&E) -> R + Sync),
    op: &(impl Fn(R, R) -> R + Sync),
    id: &(impl Fn() -> R + Sync),
) -> R {
    let Some(n) = link else { return id() };
    let par = n.size > SEQ_BULK;
    let (l, r) = maybe_par(
        par,
        || map_reduce_link(&n.left, f, op, id),
        || map_reduce_link(&n.right, f, op, id),
    );
    op(op(l, f(&n.entry)), r)
}

impl<E: Entry, A: Augment<E>> Tree<E, A> {
    /// Hands every entry `e` exclusive access to `slots[index(e)]`, in
    /// parallel: the slice is split at each node's index, so the
    /// subtrees write disjoint halves without synchronisation.
    /// `O(n)` work, `O(log n)` depth.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not strictly increasing in key order or
    /// points past the end of `slots`.
    pub fn par_scatter<T: Send>(
        &self,
        slots: &mut [T],
        index: impl Fn(&E) -> usize + Sync,
        write: impl Fn(&E, &mut T) + Sync,
    ) {
        scatter_link(&self.root, slots, 0, &index, &write);
    }
}

/// Scatters the subtree at `link` into `slots`, whose first element is
/// slot `base` of the whole array.
fn scatter_link<E: Entry, A: Augment<E>, T: Send>(
    link: &Link<E, A>,
    slots: &mut [T],
    base: usize,
    index: &(impl Fn(&E) -> usize + Sync),
    write: &(impl Fn(&E, &mut T) + Sync),
) {
    let Some(n) = link else { return };
    let at = index(&n.entry)
        .checked_sub(base)
        .expect("scatter index must increase with the key");
    let (left, rest) = slots.split_at_mut(at);
    let (slot, right) = rest
        .split_first_mut()
        .expect("scatter index outside the slot array");
    write(&n.entry, slot);
    maybe_par(
        n.size > SEQ_BULK,
        || scatter_link(&n.left, left, base, index, write),
        || scatter_link(&n.right, right, base + at + 1, index, write),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn t(xs: &[u32]) -> Tree<u32> {
        let mut v = xs.to_vec();
        v.sort_unstable();
        v.dedup();
        Tree::from_sorted(&v)
    }

    #[test]
    fn union_basic() {
        let a = t(&[1, 3, 5]);
        let b = t(&[2, 3, 6]);
        let u = a.union(&b, |x, _| *x);
        assert_eq!(u.to_vec(), vec![1, 2, 3, 5, 6]);
        u.check_invariants();
        // inputs untouched
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn union_combine_sides() {
        // combine must receive (a-entry, b-entry) in that order.
        let a: Tree<(u32, &str)> = Tree::build(vec![(1, "a")], |_, n| n);
        let b: Tree<(u32, &str)> = Tree::build(vec![(1, "b")], |_, n| n);
        let u = a.union(&b, |x, y| {
            assert_eq!(x.1, "a");
            assert_eq!(y.1, "b");
            *y
        });
        assert_eq!(u.find(&1).unwrap().1, "b");
        let u2 = b.union(&a, |x, y| {
            assert_eq!(x.1, "b");
            assert_eq!(y.1, "a");
            *x
        });
        assert_eq!(u2.find(&1).unwrap().1, "b");
    }

    #[test]
    fn union_with_empty() {
        let a = t(&[1, 2]);
        let e: Tree<u32> = Tree::new();
        assert_eq!(a.union(&e, |x, _| *x).to_vec(), vec![1, 2]);
        assert_eq!(e.union(&a, |x, _| *x).to_vec(), vec![1, 2]);
    }

    #[test]
    fn intersection_and_difference_vs_btreeset() {
        let xs: Vec<u32> = (0..2000).filter(|x| x % 3 != 0).collect();
        let ys: Vec<u32> = (0..2000).filter(|x| x % 2 == 0).collect();
        let a = t(&xs);
        let b = t(&ys);
        let sx: BTreeSet<u32> = xs.iter().copied().collect();
        let sy: BTreeSet<u32> = ys.iter().copied().collect();
        assert_eq!(
            a.intersection(&b, |x, _| *x).to_vec(),
            sx.intersection(&sy).copied().collect::<Vec<_>>()
        );
        assert_eq!(
            a.difference(&b).to_vec(),
            sx.difference(&sy).copied().collect::<Vec<_>>()
        );
        assert_eq!(
            a.union(&b, |x, _| *x).to_vec(),
            sx.union(&sy).copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn multi_insert_combines_batch_duplicates() {
        let base: Tree<(u32, u64)> = Tree::build(vec![(1, 100)], |_, n| n);
        let out = base.multi_insert(vec![(1, 1), (2, 2), (1, 1)], |a, b| (a.0, a.1 + b.1));
        assert_eq!(out.find(&1), Some(&(1, 102)));
        assert_eq!(out.find(&2), Some(&(2, 2)));
    }

    #[test]
    fn multi_delete_removes_present_keys_only() {
        let base = t(&[1, 2, 3, 4, 5]);
        let out = base.multi_delete(vec![2, 4, 99]);
        assert_eq!(out.to_vec(), vec![1, 3, 5]);
        assert_eq!(base.len(), 5);
    }

    #[test]
    fn filter_keeps_matching() {
        let a = t(&(0..100).collect::<Vec<_>>());
        let evens = a.filter(|x| x % 2 == 0);
        assert_eq!(evens.len(), 50);
        evens.check_invariants();
    }

    #[test]
    fn par_for_each_visits_everything_once() {
        let a = t(&(0..5000).collect::<Vec<_>>());
        let sum = AtomicU64::new(0);
        a.par_for_each(|x| {
            sum.fetch_add(u64::from(*x), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4999 * 5000 / 2);
    }

    #[test]
    fn map_reduce_sums() {
        let a = t(&(1..=100).collect::<Vec<_>>());
        let s = a.map_reduce(|x| u64::from(*x), |p, q| p + q, || 0);
        assert_eq!(s, 5050);
        let empty: Tree<u32> = Tree::new();
        assert_eq!(empty.map_reduce(|x| u64::from(*x), |p, q| p + q, || 7), 7);
    }

    #[test]
    fn map_values_transforms_in_place() {
        let a: Tree<(u32, u32)> = Tree::build(vec![(1, 10), (2, 20)], |_, n| n);
        let doubled = a.map_values(|e| (e.0, e.1 * 2));
        assert_eq!(doubled.find(&2), Some(&(2, 40)));
        assert_eq!(a.find(&2), Some(&(2, 20)));
    }

    #[test]
    fn par_scatter_writes_each_entry_to_its_slot() {
        let a = t(&(0..20_000).map(|x| x * 7 % 65_536).collect::<Vec<_>>());
        let mut slots = vec![0u32; 65_536];
        a.par_scatter(&mut slots, |&x| x as usize, |&x, slot| *slot = x + 1);
        for (i, &slot) in slots.iter().enumerate() {
            let want = if a.contains(&(i as u32)) {
                i as u32 + 1
            } else {
                0
            };
            assert_eq!(slot, want, "slot {i}");
        }
        Tree::<u32>::new().par_scatter(&mut [] as &mut [u32], |&x| x as usize, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "outside the slot array")]
    fn par_scatter_rejects_an_index_past_the_slots() {
        let mut slots = vec![0u32; 3];
        t(&[1, 3]).par_scatter(&mut slots, |&x| x as usize, |&x, slot| *slot = x);
    }

    #[test]
    fn large_union_is_balanced_and_canonical() {
        let a = t(&(0..30_000).filter(|x| x % 2 == 0).collect::<Vec<_>>());
        let b = t(&(0..30_000).filter(|x| x % 3 == 0).collect::<Vec<_>>());
        let u = a.union(&b, |x, _| *x);
        u.check_invariants();
        let direct = t(&(0..30_000)
            .filter(|x| x % 2 == 0 || x % 3 == 0)
            .collect::<Vec<_>>());
        // Canonical treap: union must produce the identical shape.
        assert_eq!(u.height(), direct.height());
        assert_eq!(u.to_vec(), direct.to_vec());
    }
}
