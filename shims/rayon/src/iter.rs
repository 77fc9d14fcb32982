//! Genuinely parallel iterators over splittable sources.
//!
//! The design is a compact version of rayon's producer/consumer
//! plumbing: a [`ParallelIterator`] is a *splittable* description of a
//! sequence. Terminal operations ([`for_each`](ParallelIterator::for_each),
//! [`sum`](ParallelIterator::sum), [`reduce`](ParallelIterator::reduce),
//! [`collect`](ParallelIterator::collect), …) recursively
//! [`split`](ParallelIterator::split) the iterator and hand the halves
//! to [`crate::join`], then drain each leaf sequentially and merge
//! partial results in order — so order-sensitive terminals (`collect`,
//! ordered `reduce`) see exactly the sequential result.
//!
//! **How far to split is decided adaptively** (split-on-steal, the
//! [`Splitter`]): a task starts with a budget of `pool width` splits
//! that halves at each split, which exposes ~2×width pieces up front —
//! enough that every worker can grab one. A task splits *beyond* its
//! budget only when it detects that it was **stolen** (it is running
//! on a different thread than the one that forked it): a steal proves
//! other workers are hungry, so the task's half of the data is worth
//! subdividing further. An un-contended drain therefore pays a handful
//! of forks regardless of input size, while a loaded pool keeps
//! splitting to full width exactly where the steals happen — skewed
//! item costs rebalance without a statically tuned grain. The
//! [`MIN_SEQ_WEIGHT`] floor keeps pathological steal cascades from
//! splitting below amortization.
//!
//! Sources over contiguous data (slices, `Vec`s, ranges, chunks) are
//! [`IndexedParallelIterator`]s — they know their exact length and can
//! split at any index, which is what `zip` and `enumerate` need.
//! Adaptors preserve indexedness when they can (`map`, `copied`,
//! `enumerate`, `zip`) and degrade to plain splittability when they
//! cannot (`filter`, `flat_map_iter`).

use crate::pool;
use std::sync::Arc;

/// Tasks below twice this weight are never split further: even on the
/// lock-free deques a fork costs a deque round trip plus, if stolen, a
/// cross-thread latch handshake (~0.1 µs un-stolen, see
/// `docs/RUNTIME.md`), so a leaf should carry at least a few
/// microseconds of work even for cheap per-item bodies.
pub const MIN_SEQ_WEIGHT: usize = 128;

/// The adaptive split-on-steal heuristic (rayon's `Splitter`, on this
/// runtime's [`pool::thread_marker`]): each task carries a halving
/// split budget seeded with the pool width, and a task that observes
/// it was stolen — it runs under a different thread marker than the
/// one it was created under — resets its budget to the full width.
/// Copied (not shared) into both halves of every fork, so detection is
/// purely local: no atomics, just two TLS reads per decision.
#[derive(Clone, Copy)]
struct Splitter {
    splits: usize,
    origin: pool::ThreadMarker,
}

impl Splitter {
    fn new() -> Splitter {
        let threads = pool::current_num_threads();
        Splitter {
            // A 1-thread pool never splits: join would inline both
            // halves anyway, so forking is pure overhead.
            splits: if threads > 1 { threads } else { 0 },
            origin: pool::thread_marker(),
        }
    }

    /// Decides whether a task of `weight` should fork once more,
    /// halving the budget (or resetting it, if the task was stolen).
    fn try_split(&mut self, weight: usize) -> bool {
        if weight < 2 * MIN_SEQ_WEIGHT {
            return false;
        }
        let here = pool::thread_marker();
        if here != self.origin {
            // Stolen: thieves are idle-hungry, re-arm the full budget.
            self.origin = here;
            self.splits = pool::current_num_threads().max(self.splits);
            pool::note_splitter_reset();
            true
        } else if self.splits > 0 {
            self.splits /= 2;
            true
        } else {
            false
        }
    }
}

/// Recursive fork-join driver shared by every terminal operation.
fn drive<P, T>(
    p: P,
    mut splitter: Splitter,
    seq: &(impl Fn(P) -> T + Sync),
    merge: &(impl Fn(T, T) -> T + Sync),
) -> T
where
    P: ParallelIterator,
    T: Send,
{
    if splitter.try_split(p.weight()) {
        match p.split() {
            Ok((a, b)) => {
                let (ta, tb) = crate::join(
                    || drive(a, splitter, seq, merge),
                    || drive(b, splitter, seq, merge),
                );
                return merge(ta, tb);
            }
            Err(p) => return seq(p),
        }
    }
    seq(p)
}

/// A splittable, sequentially-drainable description of a sequence.
pub trait ParallelIterator: Sized + Send {
    type Item: Send;

    /// Approximate amount of *work* remaining, in underlying element
    /// units — not necessarily the item count: chunk iterators weigh
    /// their elements, so a handful of large chunks still splits
    /// across the pool. Exact for indexed sources, an upper bound
    /// under `filter`. Drives grain decisions only.
    fn weight(&self) -> usize;

    /// Approximate number of *items* this iterator will yield (used
    /// for collection capacity hints; defaults to [`weight`](Self::weight)).
    fn items_hint(&self) -> usize {
        self.weight()
    }

    /// Splits roughly in half, preserving order (`Ok`), or refuses
    /// because the iterator is too small (`Err`, returning it intact).
    fn split(self) -> Result<(Self, Self), Self>;

    /// Drains every item in order into a fold on the current thread.
    fn fold_drain<Acc>(self, acc: Acc, f: impl FnMut(Acc, Self::Item) -> Acc) -> Acc;

    // ---- adaptors -------------------------------------------------

    fn map<B, F>(self, f: F) -> Map<Self, F>
    where
        B: Send,
        F: Fn(Self::Item) -> B + Send + Sync,
    {
        Map {
            base: self,
            f: Arc::new(f),
        }
    }

    fn filter<F>(self, pred: F) -> Filter<Self, F>
    where
        F: Fn(&Self::Item) -> bool + Send + Sync,
    {
        Filter {
            base: self,
            pred: Arc::new(pred),
        }
    }

    fn filter_map<B, F>(self, f: F) -> FilterMap<Self, F>
    where
        B: Send,
        F: Fn(Self::Item) -> Option<B> + Send + Sync,
    {
        FilterMap {
            base: self,
            f: Arc::new(f),
        }
    }

    /// rayon's `flat_map` over *serial* inner iterators.
    fn flat_map_iter<U, F>(self, f: F) -> FlatMapIter<Self, F>
    where
        U: IntoIterator,
        U::Item: Send,
        F: Fn(Self::Item) -> U + Send + Sync,
    {
        FlatMapIter {
            base: self,
            f: Arc::new(f),
        }
    }

    fn copied<'a, T>(self) -> Copied<Self>
    where
        T: 'a + Copy + Send + Sync,
        Self: ParallelIterator<Item = &'a T>,
    {
        Copied { base: self }
    }

    fn cloned<'a, T>(self) -> Cloned<Self>
    where
        T: 'a + Clone + Send + Sync,
        Self: ParallelIterator<Item = &'a T>,
    {
        Cloned { base: self }
    }

    // ---- terminals ------------------------------------------------

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        drive(
            self,
            Splitter::new(),
            &|p: Self| p.fold_drain((), |(), x| f(x)),
            &|(), ()| (),
        );
    }

    /// rayon's `reduce(identity, op)`: leaves fold sequentially from
    /// `identity()`, partial results combine in order with `op`.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Send + Sync,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Send + Sync,
    {
        drive(
            self,
            Splitter::new(),
            &|p: Self| p.fold_drain(identity(), &op),
            &|a, b| op(a, b),
        )
    }

    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        let total = drive(
            self,
            Splitter::new(),
            &|p: Self| {
                p.fold_drain(None::<S>, |acc, x| {
                    let x = S::sum(std::iter::once(x));
                    Some(match acc {
                        None => x,
                        Some(s) => S::sum([s, x].into_iter()),
                    })
                })
            },
            &|a, b| match (a, b) {
                (Some(a), Some(b)) => Some(S::sum([a, b].into_iter())),
                (a, None) => a,
                (None, b) => b,
            },
        );
        total.unwrap_or_else(|| S::sum(std::iter::empty::<Self::Item>()))
    }

    fn count(self) -> usize {
        drive(
            self,
            Splitter::new(),
            &|p: Self| p.fold_drain(0usize, |c, _| c + 1),
            &|a, b| a + b,
        )
    }

    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        self.reduce_optional(|a, b| if b > a { b } else { a })
    }

    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        self.reduce_optional(|a, b| if b < a { b } else { a })
    }

    /// Helper for optional reductions (`max`/`min`).
    fn reduce_optional<OP>(self, op: OP) -> Option<Self::Item>
    where
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Send + Sync,
    {
        drive(
            self,
            Splitter::new(),
            &|p: Self| {
                p.fold_drain(None, |acc, x| {
                    Some(match acc {
                        None => x,
                        Some(a) => op(a, x),
                    })
                })
            },
            &|a, b| match (a, b) {
                (Some(a), Some(b)) => Some(op(a, b)),
                (a, None) => a,
                (None, b) => b,
            },
        )
    }

    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }
}

/// Exact-length iterators that can split at any index — the extra
/// structure `zip` and `enumerate` require.
pub trait IndexedParallelIterator: ParallelIterator {
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits into `[0, index)` and `[index, len)`.
    fn split_at(self, index: usize) -> (Self, Self);

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate {
            base: self,
            offset: 0,
        }
    }

    fn zip<Z>(self, other: Z) -> Zip<Self, Z::Iter>
    where
        Z: IntoParallelIterator,
        Z::Iter: IndexedParallelIterator,
    {
        let b = other.into_par_iter();
        let n = self.len().min(b.len());
        let (a, _) = self.split_at(n);
        let (b, _) = b.split_at(n);
        Zip { a, b }
    }

    /// Lower bound on leaf size when this iterator is split.
    fn with_min_len(self, min: usize) -> MinLen<Self> {
        MinLen {
            base: self,
            min: min.max(1),
        }
    }
}

fn indexed_split<P: IndexedParallelIterator>(p: P) -> Result<(P, P), P> {
    let n = p.len();
    if n < 2 {
        Err(p)
    } else {
        Ok(p.split_at(n / 2))
    }
}

/// Conversion into a parallel iterator (ranges, `Vec`s, slice refs,
/// and parallel iterators themselves).
pub trait IntoParallelIterator {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send;
    fn into_par_iter(self) -> Self::Iter;
}

/// Collection types buildable from a parallel iterator.
pub trait FromParallelIterator<T: Send> {
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Self {
        drive(
            p,
            Splitter::new(),
            &|q: P| {
                let hint = q.items_hint().min(1 << 20);
                q.fold_drain(Vec::with_capacity(hint), |mut v, x| {
                    v.push(x);
                    v
                })
            },
            &|mut a: Vec<T>, mut b: Vec<T>| {
                a.append(&mut b);
                a
            },
        )
    }
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Parallel iterator over an integer range.
pub struct RangeParIter<T> {
    start: T,
    end: T,
}

macro_rules! impl_range_par {
    ($($t:ty),*) => {$(
        impl ParallelIterator for RangeParIter<$t> {
            type Item = $t;
            fn weight(&self) -> usize {
                (self.end.saturating_sub(self.start)) as usize
            }
            fn split(self) -> Result<(Self, Self), Self> {
                indexed_split(self)
            }
            fn fold_drain<Acc>(self, acc: Acc, f: impl FnMut(Acc, $t) -> Acc) -> Acc {
                (self.start..self.end).fold(acc, f)
            }
        }
        impl IndexedParallelIterator for RangeParIter<$t> {
            fn len(&self) -> usize {
                (self.end.saturating_sub(self.start)) as usize
            }
            fn split_at(self, index: usize) -> (Self, Self) {
                let mid = self.start + index as $t;
                (
                    RangeParIter { start: self.start, end: mid },
                    RangeParIter { start: mid, end: self.end },
                )
            }
        }
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Iter = RangeParIter<$t>;
            type Item = $t;
            fn into_par_iter(self) -> RangeParIter<$t> {
                let end = self.end.max(self.start);
                RangeParIter { start: self.start, end }
            }
        }
    )*};
}

impl_range_par!(u32, u64, usize, i32, i64);

/// Parallel iterator over `&[T]` (shared references).
pub struct SlicePar<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SlicePar<'a, T> {
    type Item = &'a T;
    fn weight(&self) -> usize {
        self.slice.len()
    }
    fn split(self) -> Result<(Self, Self), Self> {
        indexed_split(self)
    }
    fn fold_drain<Acc>(self, acc: Acc, f: impl FnMut(Acc, &'a T) -> Acc) -> Acc {
        self.slice.iter().fold(acc, f)
    }
}

impl<T: Sync> IndexedParallelIterator for SlicePar<'_, T> {
    fn len(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at(index);
        (SlicePar { slice: l }, SlicePar { slice: r })
    }
}

/// The heap buffer behind a [`VecParIter`]: shared by every split-off
/// range, freed (capacity only, no element drops) when the last range
/// goes away. Element ownership lives in the ranges.
struct VecBuf<T> {
    ptr: *mut T,
    cap: usize,
}

// Safety: ranges over the buffer are disjoint, so concurrent drains
// from different threads never touch the same element; `T: Send` is
// required wherever items actually move across threads.
unsafe impl<T: Send> Send for VecBuf<T> {}
unsafe impl<T: Send> Sync for VecBuf<T> {}

impl<T> Drop for VecBuf<T> {
    fn drop(&mut self) {
        // Reconstitute with len 0: frees the allocation, drops nothing
        // (the ranges have already consumed or dropped every element).
        unsafe { drop(Vec::from_raw_parts(self.ptr, 0, self.cap)) };
    }
}

/// Parallel iterator over an owned `Vec` (yields items by value).
///
/// Splitting is `O(1)`: every split shares the original allocation
/// and narrows an index range, instead of copying halves into fresh
/// `Vec`s at each recursion level. Each range owns the elements in
/// `[start, end)` — un-drained elements are dropped with the range.
pub struct VecParIter<T: Send> {
    buf: Arc<VecBuf<T>>,
    start: usize,
    end: usize,
}

impl<T: Send> Drop for VecParIter<T> {
    fn drop(&mut self) {
        for i in self.start..self.end {
            unsafe { std::ptr::drop_in_place(self.buf.ptr.add(i)) };
        }
    }
}

impl<T: Send> ParallelIterator for VecParIter<T> {
    type Item = T;
    fn weight(&self) -> usize {
        self.end - self.start
    }
    fn split(self) -> Result<(Self, Self), Self> {
        indexed_split(self)
    }
    fn fold_drain<Acc>(mut self, mut acc: Acc, mut f: impl FnMut(Acc, T) -> Acc) -> Acc {
        while self.start < self.end {
            let i = self.start;
            // Advance before the read: if `f` unwinds, the moved-out
            // item is dropped by the unwind and our `Drop` only drops
            // the untouched remainder — no double drop.
            self.start += 1;
            let item = unsafe { std::ptr::read(self.buf.ptr.add(i)) };
            acc = f(acc, item);
        }
        acc
    }
}

impl<T: Send> IndexedParallelIterator for VecParIter<T> {
    fn len(&self) -> usize {
        self.end - self.start
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        // Suppress `self`'s Drop (the two halves take over its range)
        // and move its Arc out so the reference count stays balanced.
        let this = std::mem::ManuallyDrop::new(self);
        let buf = unsafe { std::ptr::read(&this.buf) };
        let (start, end) = (this.start, this.end);
        let mid = start + index.min(end - start);
        (
            VecParIter {
                buf: buf.clone(),
                start,
                end: mid,
            },
            VecParIter {
                buf,
                start: mid,
                end,
            },
        )
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = VecParIter<T>;
    type Item = T;
    fn into_par_iter(self) -> VecParIter<T> {
        let mut v = std::mem::ManuallyDrop::new(self);
        let (ptr, len, cap) = (v.as_mut_ptr(), v.len(), v.capacity());
        VecParIter {
            buf: Arc::new(VecBuf { ptr, cap }),
            start: 0,
            end: len,
        }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Iter = SlicePar<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> SlicePar<'a, T> {
        SlicePar { slice: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Iter = SlicePar<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> SlicePar<'a, T> {
        SlicePar { slice: self }
    }
}

/// Identity conversions so an explicit `.into_par_iter()` result can
/// be fed to combinators like `zip` that take `IntoParallelIterator`.
macro_rules! impl_identity_into_par {
    ($name:ident < $($g:ident),* > where $($bound:tt)*) => {
        impl<$($g),*> IntoParallelIterator for $name<$($g),*>
        where
            Self: ParallelIterator,
            $($bound)*
        {
            type Iter = Self;
            type Item = <Self as ParallelIterator>::Item;
            fn into_par_iter(self) -> Self {
                self
            }
        }
    };
}

impl_identity_into_par!(VecParIter<T> where T: Send,);
impl_identity_into_par!(RangeParIter<T> where T: Send,);

impl<'a, T: Sync> IntoParallelIterator for SlicePar<'a, T> {
    type Iter = Self;
    type Item = &'a T;
    fn into_par_iter(self) -> Self {
        self
    }
}

/// Parallel iterator over fixed-size subslices (`par_chunks`).
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for ParChunks<'a, T> {
    type Item = &'a [T];
    fn weight(&self) -> usize {
        // Work is proportional to the elements inside the chunks: a
        // chunk count here would stall splitting below MIN_SEQ_WEIGHT
        // chunks and serialize the big-block patterns parlib uses.
        self.slice.len()
    }
    fn items_hint(&self) -> usize {
        self.len()
    }
    fn split(self) -> Result<(Self, Self), Self> {
        indexed_split(self)
    }
    fn fold_drain<Acc>(self, acc: Acc, f: impl FnMut(Acc, &'a [T]) -> Acc) -> Acc {
        self.slice.chunks(self.size).fold(acc, f)
    }
}

impl<T: Sync> IndexedParallelIterator for ParChunks<'_, T> {
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let cut = (index * self.size).min(self.slice.len());
        let (l, r) = self.slice.split_at(cut);
        (
            ParChunks {
                slice: l,
                size: self.size,
            },
            ParChunks {
                slice: r,
                size: self.size,
            },
        )
    }
}

/// Parallel iterator over mutable fixed-size subslices
/// (`par_chunks_mut`).
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];
    fn weight(&self) -> usize {
        // Element count, not chunk count — see `ParChunks::weight`.
        self.slice.len()
    }
    fn items_hint(&self) -> usize {
        self.len()
    }
    fn split(self) -> Result<(Self, Self), Self> {
        indexed_split(self)
    }
    fn fold_drain<Acc>(self, acc: Acc, f: impl FnMut(Acc, &'a mut [T]) -> Acc) -> Acc {
        self.slice.chunks_mut(self.size).fold(acc, f)
    }
}

impl<T: Send> IndexedParallelIterator for ParChunksMut<'_, T> {
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let cut = (index * self.size).min(self.slice.len());
        let (l, r) = self.slice.split_at_mut(cut);
        (
            ParChunksMut {
                slice: l,
                size: self.size,
            },
            ParChunksMut {
                slice: r,
                size: self.size,
            },
        )
    }
}

/// Parallel iterator over `&mut [T]` (exclusive references).
pub struct SliceParMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParallelIterator for SliceParMut<'a, T> {
    type Item = &'a mut T;
    fn weight(&self) -> usize {
        self.slice.len()
    }
    fn split(self) -> Result<(Self, Self), Self> {
        indexed_split(self)
    }
    fn fold_drain<Acc>(self, acc: Acc, f: impl FnMut(Acc, &'a mut T) -> Acc) -> Acc {
        self.slice.iter_mut().fold(acc, f)
    }
}

impl<T: Send> IndexedParallelIterator for SliceParMut<'_, T> {
    fn len(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at_mut(index);
        (SliceParMut { slice: l }, SliceParMut { slice: r })
    }
}

// ---------------------------------------------------------------------------
// Adaptors
// ---------------------------------------------------------------------------

pub struct Map<P, F> {
    base: P,
    f: Arc<F>,
}

impl<B, P, F> ParallelIterator for Map<P, F>
where
    B: Send,
    P: ParallelIterator,
    F: Fn(P::Item) -> B + Send + Sync,
{
    type Item = B;
    fn weight(&self) -> usize {
        self.base.weight()
    }
    fn items_hint(&self) -> usize {
        self.base.items_hint()
    }
    fn split(self) -> Result<(Self, Self), Self> {
        let f = self.f;
        match self.base.split() {
            Ok((a, b)) => Ok((
                Map {
                    base: a,
                    f: f.clone(),
                },
                Map { base: b, f },
            )),
            Err(base) => Err(Map { base, f }),
        }
    }
    fn fold_drain<Acc>(self, acc: Acc, mut f: impl FnMut(Acc, B) -> Acc) -> Acc {
        let g = self.f;
        self.base.fold_drain(acc, |a, x| f(a, g(x)))
    }
}

impl<B, P, F> IndexedParallelIterator for Map<P, F>
where
    B: Send,
    P: IndexedParallelIterator,
    F: Fn(P::Item) -> B + Send + Sync,
{
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            Map {
                base: a,
                f: self.f.clone(),
            },
            Map { base: b, f: self.f },
        )
    }
}

pub struct Filter<P, F> {
    base: P,
    pred: Arc<F>,
}

impl<P, F> ParallelIterator for Filter<P, F>
where
    P: ParallelIterator,
    F: Fn(&P::Item) -> bool + Send + Sync,
{
    type Item = P::Item;
    fn weight(&self) -> usize {
        self.base.weight()
    }
    fn items_hint(&self) -> usize {
        self.base.items_hint()
    }
    fn split(self) -> Result<(Self, Self), Self> {
        let pred = self.pred;
        match self.base.split() {
            Ok((a, b)) => Ok((
                Filter {
                    base: a,
                    pred: pred.clone(),
                },
                Filter { base: b, pred },
            )),
            Err(base) => Err(Filter { base, pred }),
        }
    }
    fn fold_drain<Acc>(self, acc: Acc, mut f: impl FnMut(Acc, P::Item) -> Acc) -> Acc {
        let pred = self.pred;
        self.base
            .fold_drain(acc, |a, x| if pred(&x) { f(a, x) } else { a })
    }
}

pub struct FilterMap<P, F> {
    base: P,
    f: Arc<F>,
}

impl<B, P, F> ParallelIterator for FilterMap<P, F>
where
    B: Send,
    P: ParallelIterator,
    F: Fn(P::Item) -> Option<B> + Send + Sync,
{
    type Item = B;
    fn weight(&self) -> usize {
        self.base.weight()
    }
    fn items_hint(&self) -> usize {
        self.base.items_hint()
    }
    fn split(self) -> Result<(Self, Self), Self> {
        let f = self.f;
        match self.base.split() {
            Ok((a, b)) => Ok((
                FilterMap {
                    base: a,
                    f: f.clone(),
                },
                FilterMap { base: b, f },
            )),
            Err(base) => Err(FilterMap { base, f }),
        }
    }
    fn fold_drain<Acc>(self, acc: Acc, mut f: impl FnMut(Acc, B) -> Acc) -> Acc {
        let g = self.f;
        self.base.fold_drain(acc, |a, x| match g(x) {
            Some(y) => f(a, y),
            None => a,
        })
    }
}

pub struct FlatMapIter<P, F> {
    base: P,
    f: Arc<F>,
}

impl<U, P, F> ParallelIterator for FlatMapIter<P, F>
where
    U: IntoIterator,
    U::Item: Send,
    P: ParallelIterator,
    F: Fn(P::Item) -> U + Send + Sync,
{
    type Item = U::Item;
    fn weight(&self) -> usize {
        self.base.weight()
    }
    fn split(self) -> Result<(Self, Self), Self> {
        let f = self.f;
        match self.base.split() {
            Ok((a, b)) => Ok((
                FlatMapIter {
                    base: a,
                    f: f.clone(),
                },
                FlatMapIter { base: b, f },
            )),
            Err(base) => Err(FlatMapIter { base, f }),
        }
    }
    fn fold_drain<Acc>(self, acc: Acc, mut f: impl FnMut(Acc, U::Item) -> Acc) -> Acc {
        let g = self.f;
        self.base.fold_drain(acc, |mut a, x| {
            for y in g(x) {
                a = f(a, y);
            }
            a
        })
    }
}

pub struct Copied<P> {
    base: P,
}

impl<'a, T, P> ParallelIterator for Copied<P>
where
    T: 'a + Copy + Send + Sync,
    P: ParallelIterator<Item = &'a T>,
{
    type Item = T;
    fn weight(&self) -> usize {
        self.base.weight()
    }
    fn items_hint(&self) -> usize {
        self.base.items_hint()
    }
    fn split(self) -> Result<(Self, Self), Self> {
        match self.base.split() {
            Ok((a, b)) => Ok((Copied { base: a }, Copied { base: b })),
            Err(base) => Err(Copied { base }),
        }
    }
    fn fold_drain<Acc>(self, acc: Acc, mut f: impl FnMut(Acc, T) -> Acc) -> Acc {
        self.base.fold_drain(acc, |a, x| f(a, *x))
    }
}

impl<'a, T, P> IndexedParallelIterator for Copied<P>
where
    T: 'a + Copy + Send + Sync,
    P: IndexedParallelIterator<Item = &'a T>,
{
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (Copied { base: a }, Copied { base: b })
    }
}

pub struct Cloned<P> {
    base: P,
}

impl<'a, T, P> ParallelIterator for Cloned<P>
where
    T: 'a + Clone + Send + Sync,
    P: ParallelIterator<Item = &'a T>,
{
    type Item = T;
    fn weight(&self) -> usize {
        self.base.weight()
    }
    fn items_hint(&self) -> usize {
        self.base.items_hint()
    }
    fn split(self) -> Result<(Self, Self), Self> {
        match self.base.split() {
            Ok((a, b)) => Ok((Cloned { base: a }, Cloned { base: b })),
            Err(base) => Err(Cloned { base }),
        }
    }
    fn fold_drain<Acc>(self, acc: Acc, mut f: impl FnMut(Acc, T) -> Acc) -> Acc {
        self.base.fold_drain(acc, |a, x| f(a, x.clone()))
    }
}

pub struct Enumerate<P> {
    base: P,
    offset: usize,
}

impl<P> ParallelIterator for Enumerate<P>
where
    P: IndexedParallelIterator,
{
    type Item = (usize, P::Item);
    fn weight(&self) -> usize {
        self.base.weight()
    }
    fn items_hint(&self) -> usize {
        self.base.items_hint()
    }
    fn split(self) -> Result<(Self, Self), Self> {
        indexed_split(self)
    }
    fn fold_drain<Acc>(self, acc: Acc, mut f: impl FnMut(Acc, (usize, P::Item)) -> Acc) -> Acc {
        let mut i = self.offset;
        self.base.fold_drain(acc, |a, x| {
            let r = f(a, (i, x));
            i += 1;
            r
        })
    }
}

impl<P> IndexedParallelIterator for Enumerate<P>
where
    P: IndexedParallelIterator,
{
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            Enumerate {
                base: a,
                offset: self.offset,
            },
            Enumerate {
                base: b,
                offset: self.offset + index,
            },
        )
    }
}

/// Lockstep pairing of two equal-length indexed iterators (lengths are
/// normalized to the minimum at construction).
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A, B> ParallelIterator for Zip<A, B>
where
    A: IndexedParallelIterator,
    B: IndexedParallelIterator,
{
    type Item = (A::Item, B::Item);
    fn weight(&self) -> usize {
        self.a.weight()
    }
    fn items_hint(&self) -> usize {
        self.a.items_hint()
    }
    fn split(self) -> Result<(Self, Self), Self> {
        indexed_split(self)
    }
    fn fold_drain<Acc>(self, acc: Acc, mut f: impl FnMut(Acc, Self::Item) -> Acc) -> Acc {
        let Zip { a, b } = self;
        // Leaves are small (grain-bounded): buffer the left side, then
        // pair while draining the right.
        let mut left = Vec::with_capacity(a.len());
        a.fold_drain((), |(), x| left.push(x));
        let mut li = left.into_iter();
        b.fold_drain(acc, |acc, bx| match li.next() {
            Some(ax) => f(acc, (ax, bx)),
            None => unreachable!("zip sides have equal length"),
        })
    }
}

impl<A, B> IndexedParallelIterator for Zip<A, B>
where
    A: IndexedParallelIterator,
    B: IndexedParallelIterator,
{
    fn len(&self) -> usize {
        self.a.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (al, ar) = self.a.split_at(index);
        let (bl, br) = self.b.split_at(index);
        (Zip { a: al, b: bl }, Zip { a: ar, b: br })
    }
}

/// Grain-size floor: refuses to split below `min` items per side.
pub struct MinLen<P> {
    base: P,
    min: usize,
}

impl<P> ParallelIterator for MinLen<P>
where
    P: ParallelIterator,
{
    type Item = P::Item;
    fn weight(&self) -> usize {
        self.base.weight()
    }
    fn items_hint(&self) -> usize {
        self.base.items_hint()
    }
    fn split(self) -> Result<(Self, Self), Self> {
        let min = self.min;
        if self.base.weight() < 2 * min {
            return Err(self);
        }
        match self.base.split() {
            Ok((a, b)) => Ok((MinLen { base: a, min }, MinLen { base: b, min })),
            Err(base) => Err(MinLen { base, min }),
        }
    }
    fn fold_drain<Acc>(self, acc: Acc, f: impl FnMut(Acc, P::Item) -> Acc) -> Acc {
        self.base.fold_drain(acc, f)
    }
}

impl<P> IndexedParallelIterator for MinLen<P>
where
    P: IndexedParallelIterator,
{
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            MinLen {
                base: a,
                min: self.min,
            },
            MinLen {
                base: b,
                min: self.min,
            },
        )
    }
}

// ---------------------------------------------------------------------------
// Slice entry points
// ---------------------------------------------------------------------------

/// `par_iter` / `par_chunks` on shared slices.
pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> SlicePar<'_, T>;
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> SlicePar<'_, T> {
        SlicePar { slice: self }
    }
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunks {
            slice: self,
            size: chunk_size,
        }
    }
}

/// `par_iter_mut` / `par_chunks_mut` / `par_sort_*` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> SliceParMut<'_, T>;
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
    fn par_sort(&mut self)
    where
        T: Ord + Sync;
    fn par_sort_unstable(&mut self)
    where
        T: Ord + Sync;
    fn par_sort_by<F>(&mut self, compare: F)
    where
        T: Sync,
        F: Fn(&T, &T) -> std::cmp::Ordering + Sync;
    fn par_sort_unstable_by<F>(&mut self, compare: F)
    where
        T: Sync,
        F: Fn(&T, &T) -> std::cmp::Ordering + Sync;
    fn par_sort_by_key<K: Ord, F>(&mut self, key: F)
    where
        T: Sync,
        F: Fn(&T) -> K + Sync;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> SliceParMut<'_, T> {
        SliceParMut { slice: self }
    }
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            slice: self,
            size: chunk_size,
        }
    }
    fn par_sort(&mut self)
    where
        T: Ord + Sync,
    {
        par_merge_sort(self, &|a, b| a.cmp(b));
    }
    fn par_sort_unstable(&mut self)
    where
        T: Ord + Sync,
    {
        par_merge_sort(self, &|a, b| a.cmp(b));
    }
    fn par_sort_by<F>(&mut self, compare: F)
    where
        T: Sync,
        F: Fn(&T, &T) -> std::cmp::Ordering + Sync,
    {
        par_merge_sort(self, &compare);
    }
    fn par_sort_unstable_by<F>(&mut self, compare: F)
    where
        T: Sync,
        F: Fn(&T, &T) -> std::cmp::Ordering + Sync,
    {
        par_merge_sort(self, &compare);
    }
    fn par_sort_by_key<K: Ord, F>(&mut self, key: F)
    where
        T: Sync,
        F: Fn(&T) -> K + Sync,
    {
        par_merge_sort(self, &|a, b| key(a).cmp(&key(b)));
    }
}

// ---------------------------------------------------------------------------
// Parallel sort
// ---------------------------------------------------------------------------

/// Below this length (or on a single-thread pool) sorting is handed to
/// `std`'s sequential sort directly.
const SEQ_SORT: usize = 8 << 10;

/// Stable parallel merge sort (also used for the `unstable` entry
/// points — stability is permitted there).
///
/// Three phases keep it panic-safe without per-element clones:
/// 1. sort aligned chunks in place, in parallel (`std` sort leaves the
///    slice intact on a comparator panic);
/// 2. merge chunk *index* runs into a permutation — only comparator
///    calls on shared references, no element moves, so a panic here
///    leaves the slice whole;
/// 3. apply the permutation with raw moves through a scratch buffer —
///    no user code runs in this phase, so it cannot unwind.
fn par_merge_sort<T: Send + Sync, F: Fn(&T, &T) -> std::cmp::Ordering + Sync>(
    v: &mut [T],
    cmp: &F,
) {
    let n = v.len();
    if n <= SEQ_SORT || pool::current_num_threads() <= 1 {
        v.sort_by(|a, b| cmp(a, b));
        return;
    }
    assert!(n < u32::MAX as usize, "par_sort supports < 2^32 elements");
    let chunk_len = n.div_ceil(pool::current_num_threads() * 2).max(1);

    fn split_point(lo: usize, hi: usize, chunk_len: usize) -> usize {
        lo + ((hi - lo) / 2 / chunk_len).max(1) * chunk_len
    }

    fn sort_chunks<T: Send, F: Fn(&T, &T) -> std::cmp::Ordering + Sync>(
        sub: &mut [T],
        lo: usize,
        hi: usize,
        chunk_len: usize,
        cmp: &F,
    ) {
        if hi - lo <= chunk_len {
            sub.sort_by(|a, b| cmp(a, b));
            return;
        }
        let mid = split_point(lo, hi, chunk_len);
        let (l, r) = sub.split_at_mut(mid - lo);
        crate::join(
            || sort_chunks(l, lo, mid, chunk_len, cmp),
            || sort_chunks(r, mid, hi, chunk_len, cmp),
        );
    }

    /// Merged index order of `v[lo..hi]`, assuming each aligned chunk
    /// is sorted. Equal elements take the left run first → stable.
    fn sorted_order<T: Sync, F: Fn(&T, &T) -> std::cmp::Ordering + Sync>(
        v: &[T],
        lo: usize,
        hi: usize,
        chunk_len: usize,
        cmp: &F,
    ) -> Vec<u32> {
        if hi - lo <= chunk_len {
            return (lo as u32..hi as u32).collect();
        }
        let mid = split_point(lo, hi, chunk_len);
        let (a, b) = crate::join(
            || sorted_order(v, lo, mid, chunk_len, cmp),
            || sorted_order(v, mid, hi, chunk_len, cmp),
        );
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if cmp(&v[b[j] as usize], &v[a[i] as usize]) == std::cmp::Ordering::Less {
                out.push(b[j]);
                j += 1;
            } else {
                out.push(a[i]);
                i += 1;
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        out
    }

    sort_chunks(v, 0, n, chunk_len, cmp);
    let order = sorted_order(v, 0, n, chunk_len, cmp);
    debug_assert_eq!(order.len(), n);

    // Apply the permutation: bitwise-move every element through the
    // scratch buffer exactly once, then move the run back. No user
    // code runs between the first read and the final write.
    let mut scratch: Vec<T> = Vec::with_capacity(n);
    unsafe {
        let sp = scratch.as_mut_ptr();
        for (dst, &src) in order.iter().enumerate() {
            std::ptr::copy_nonoverlapping(v.as_ptr().add(src as usize), sp.add(dst), 1);
        }
        std::ptr::copy_nonoverlapping(sp, v.as_mut_ptr(), n);
        // `scratch` keeps len 0: the moved-out copies must not drop.
    }
}
