//! Chunks: the contiguous arrays of elements hanging off C-tree nodes.
//!
//! A chunk stores a sorted set of `u32` values together with a small
//! header caching `first`, `last` and `len`. The header is what lets
//! `Split` read chunk boundaries in `O(1)` instead of decoding the chunk
//! — the optimization Appendix 10.3 calls out as necessary for the
//! `O(b log n)` split bound.
//!
//! Storage is pluggable through [`ChunkCodec`]:
//!
//! * [`PlainCodec`] — a shared `u32` array ("Aspen (No DE)" in Table 2),
//! * [`DeltaCodec`] — difference encoding + byte codes ("Aspen (DE)"),
//! * [`IntervalCodec`] — WebGraph-style intervalization + ζ₃ gap codes:
//!   runs of ≥ [`MIN_RUN`] consecutive neighbours collapse to a
//!   `(start, len)` pair, the dominant pattern in RMAT/social graphs.
//!
//! Every codec exposes a **lazy decode path**: [`ChunkCodec::iter`]
//! streams the values without materializing a `Vec`, and
//! [`ChunkCodec::for_each`] is the no-iterator-state fast path built on
//! it. All chunk set operations (`union`, `difference`, `intersect`,
//! `filter`, `split3`) merge those streams directly; only the final
//! result is collected for re-encoding. `search` early-exits per codec
//! — plain storage binary-searches in place, gap codecs stop the decode
//! walk at the first value `≥ x`, and interval storage answers
//! membership in `O(1)` once the covering token is located.
//!
//! Chunks are immutable; all operations produce new chunks. Cloning is
//! `O(1)` (the payload is behind an `Arc`), so copying a path of tree
//! nodes during a functional update copies *headers*, not data — the
//! contrast with B-trees drawn in Figure 2 of the paper.

use std::sync::Arc;

use encoder::{BitReader, BitWriter};

/// Runs of at least this many consecutive values are stored as
/// intervals by [`IntervalCodec`].
pub const MIN_RUN: usize = 4;

/// ζ shrinking parameter used by [`IntervalCodec`] gap codes. `k = 3`
/// (WebGraph's residual default) matches the gap distribution of
/// power-law graphs better than γ (≡ ζ₁): unit gaps cost 3 bits while
/// the large gaps of sparse vertices stay close to byte codes —
/// measured as the best overall choice on the `repro memory` frontier.
const ZETA_K: u32 = 3;

/// How a chunk stores its sorted elements.
///
/// The three implementations below cover the speed/space frontier the
/// `repro memory` experiment measures: plain words, byte codes, and
/// intervalized ζ codes.
pub trait ChunkCodec: Clone + Send + Sync + 'static {
    /// The payload type (always cheaply cloneable).
    type Storage: Clone + Send + Sync + 'static;

    /// Streaming decoder over a payload; see [`iter`](Self::iter).
    type Iter<'a>: Iterator<Item = u32> + 'a
    where
        Self: 'a;

    /// Encodes a strictly-increasing slice.
    fn encode(xs: &[u32]) -> Self::Storage;

    /// Lazily decodes the `len` encoded elements in ascending order —
    /// the allocation-free hot path every traversal should prefer over
    /// [`decode`](Self::decode).
    ///
    /// `first` is the smallest element (the chunk header caches it;
    /// meaningless when `len == 0`). The bit codecs anchor their gap
    /// streams on it instead of re-encoding the full magnitude of the
    /// first element in the payload; word/byte codecs ignore it.
    fn iter(storage: &Self::Storage, len: usize, first: u32) -> Self::Iter<'_>;

    /// Decodes `len` elements, appending to `out` (reserving space
    /// up front).
    fn decode(storage: &Self::Storage, len: usize, first: u32, out: &mut Vec<u32>) {
        out.reserve(len);
        out.extend(Self::iter(storage, len, first));
    }

    /// Calls `f` on each decoded element in ascending order. Default
    /// drives [`iter`](Self::iter); codecs with cheaper internal loops
    /// (plain slices) override it.
    #[inline]
    fn for_each(storage: &Self::Storage, len: usize, first: u32, f: impl FnMut(u32)) {
        Self::iter(storage, len, first).for_each(f);
    }

    /// Locates `x` among the `len` encoded elements **without
    /// materializing the chunk**: `Ok(i)` if `x` is the `i`-th element,
    /// `Err(i)` with its insertion index otherwise.
    ///
    /// This is the membership hot path (`contains` runs once per tree
    /// level on every `Split`). The default walks the lazy decode
    /// stream and stops at the first value `≥ x`; plain storage
    /// overrides with an in-place binary search, interval storage with
    /// a token walk that answers in `O(1)` per covering interval.
    fn search(storage: &Self::Storage, len: usize, first: u32, x: u32) -> Result<usize, usize> {
        for (i, v) in Self::iter(storage, len, first).enumerate() {
            if v >= x {
                return if v == x { Ok(i) } else { Err(i) };
            }
        }
        Err(len)
    }

    /// Heap bytes used by the payload.
    fn storage_bytes(storage: &Self::Storage) -> usize;

    /// Whether two payloads are the same allocation. `true` proves the
    /// encoded contents are identical without decoding anything (the
    /// structural-sharing fast path version diffing relies on); `false`
    /// proves nothing — equal payloads encoded separately are distinct
    /// allocations. All provided codecs store `Arc` slices and answer
    /// with pointer identity; the conservative default is `false`.
    #[inline]
    fn storage_ptr_eq(_a: &Self::Storage, _b: &Self::Storage) -> bool {
        false
    }

    /// Human-readable codec name for reports.
    fn name() -> &'static str;
}

/// Uncompressed chunk storage: a shared `u32` slice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlainCodec;

impl ChunkCodec for PlainCodec {
    type Storage = Arc<[u32]>;
    type Iter<'a> = std::iter::Copied<std::slice::Iter<'a, u32>>;

    #[inline]
    fn encode(xs: &[u32]) -> Arc<[u32]> {
        xs.into()
    }

    #[inline]
    fn iter(storage: &Arc<[u32]>, len: usize, _first: u32) -> Self::Iter<'_> {
        debug_assert_eq!(storage.len(), len);
        storage.iter().copied()
    }

    #[inline]
    fn decode(storage: &Arc<[u32]>, len: usize, _first: u32, out: &mut Vec<u32>) {
        debug_assert_eq!(storage.len(), len);
        out.extend_from_slice(storage);
    }

    #[inline]
    fn for_each(storage: &Arc<[u32]>, len: usize, _first: u32, mut f: impl FnMut(u32)) {
        debug_assert_eq!(storage.len(), len);
        for &x in storage.iter() {
            f(x);
        }
    }

    #[inline]
    fn search(storage: &Arc<[u32]>, len: usize, _first: u32, x: u32) -> Result<usize, usize> {
        debug_assert_eq!(storage.len(), len);
        storage.binary_search(&x)
    }

    #[inline]
    fn storage_bytes(storage: &Arc<[u32]>) -> usize {
        storage.len() * std::mem::size_of::<u32>()
    }

    #[inline]
    fn storage_ptr_eq(a: &Arc<[u32]>, b: &Arc<[u32]>) -> bool {
        Arc::ptr_eq(a, b)
    }

    fn name() -> &'static str {
        "plain"
    }
}

/// Difference-encoded byte-code storage (§3.2, "Integer C-trees").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaCodec;

impl ChunkCodec for DeltaCodec {
    type Storage = Arc<[u8]>;
    type Iter<'a> = encoder::SortedDecoder<'a>;

    #[inline]
    fn encode(xs: &[u32]) -> Arc<[u8]> {
        encoder::encode_sorted(xs).into()
    }

    #[inline]
    fn iter(storage: &Arc<[u8]>, len: usize, _first: u32) -> Self::Iter<'_> {
        encoder::SortedDecoder::new(storage, len)
    }

    #[inline]
    fn storage_bytes(storage: &Arc<[u8]>) -> usize {
        storage.len()
    }

    #[inline]
    fn storage_ptr_eq(a: &Arc<[u8]>, b: &Arc<[u8]>) -> bool {
        Arc::ptr_eq(a, b)
    }

    fn name() -> &'static str {
        "delta"
    }
}

/// Intervalized ζ gap codes (WebGraph's two key ideas, §SNIPPETS 1).
///
/// The payload is a stream of **segments**, each opened by a ζ-coded
/// gap and a one-bit kind flag:
///
/// ```text
/// interval:      ζ(gap)  1  γ(len − MIN_RUN + 1)
/// literal block: ζ(gap)  0  γ(count)  ζ(gap) × (count − 1)
/// ```
///
/// where `gap` is the distance from the previous segment's last value
/// (`first + 1` for the first). An **interval** stands for `len ≥`
/// [`MIN_RUN`] consecutive values from the decoded position; a
/// **literal block** carries `count` individual gap-coded values (every
/// maximal run shorter than [`MIN_RUN`]) under a *single* flag, so the
/// per-segment overhead amortizes to `γ(count) + 1` bits per block
/// rather than one flag bit per edge. Dense neighbourhoods — the common
/// case in RMAT and social graphs — collapse to a few bits per *run*
/// instead of bits per edge, and membership inside a located interval
/// is answered in `O(1)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntervalCodec;

impl ChunkCodec for IntervalCodec {
    type Storage = Arc<[u8]>;
    type Iter<'a> = IntervalIter<'a>;

    fn encode(xs: &[u32]) -> Arc<[u8]> {
        // Length of the maximal run of consecutive values at `i`.
        let run_len = |i: usize| {
            let mut j = i + 1;
            while j < xs.len() && u64::from(xs[j]) == u64::from(xs[j - 1]) + 1 {
                j += 1;
            }
            j - i
        };
        let mut w = BitWriter::new();
        // Anchored on the header's cached `first`: the opening segment
        // gap is always ζ(1). `prev` tracks last value + 1.
        let mut prev = xs.first().map_or(0, |&x| u64::from(x));
        let mut i = 0;
        while i < xs.len() {
            debug_assert!(
                u64::from(xs[i]) + 1 > prev,
                "chunk input not strictly increasing"
            );
            w.write_zeta(u64::from(xs[i]) + 1 - prev, ZETA_K);
            let run = run_len(i);
            if run >= MIN_RUN {
                w.write_bit(1);
                w.write_gamma((run - MIN_RUN + 1) as u64);
                prev = u64::from(xs[i + run - 1]) + 1;
                i += run;
            } else {
                // Literal block: everything up to the next long run.
                let mut end = i + run;
                while end < xs.len() {
                    let r = run_len(end);
                    if r >= MIN_RUN {
                        break;
                    }
                    end += r;
                }
                w.write_bit(0);
                w.write_gamma((end - i) as u64);
                prev = u64::from(xs[i]) + 1;
                for &x in &xs[i + 1..end] {
                    w.write_zeta(u64::from(x) + 1 - prev, ZETA_K);
                    prev = u64::from(x) + 1;
                }
                i = end;
            }
        }
        w.finish().into()
    }

    #[inline]
    fn iter(storage: &Arc<[u8]>, len: usize, first: u32) -> IntervalIter<'_> {
        IntervalIter {
            tokens: IntervalTokens::new(storage, len, first),
            cur: 0,
            run_left: 0,
            remaining: len,
        }
    }

    fn search(storage: &Arc<[u8]>, len: usize, first: u32, x: u32) -> Result<usize, usize> {
        let x = u64::from(x);
        let mut idx = 0usize;
        for (start, run) in IntervalTokens::new(storage, len, first) {
            let start = u64::from(start);
            if x < start {
                return Err(idx);
            }
            if x < start + run as u64 {
                return Ok(idx + (x - start) as usize);
            }
            idx += run;
        }
        Err(len)
    }

    #[inline]
    fn storage_bytes(storage: &Arc<[u8]>) -> usize {
        storage.len()
    }

    #[inline]
    fn storage_ptr_eq(a: &Arc<[u8]>, b: &Arc<[u8]>) -> bool {
        Arc::ptr_eq(a, b)
    }

    fn name() -> &'static str {
        "interval"
    }
}

/// Token-level walk over [`IntervalCodec`] storage: yields
/// `(start, run_len)` with `run_len == 1` for each literal inside a
/// literal block.
#[derive(Clone, Debug)]
struct IntervalTokens<'a> {
    reader: BitReader<'a>,
    remaining: usize,
    lit_left: usize, // literals still due in the current block
    prev: u64,       // last value + 1
}

impl<'a> IntervalTokens<'a> {
    fn new(bytes: &'a [u8], len: usize, first: u32) -> Self {
        Self {
            reader: BitReader::new(bytes),
            remaining: len,
            lit_left: 0,
            prev: u64::from(first),
        }
    }
}

impl Iterator for IntervalTokens<'_> {
    type Item = (u32, usize);

    #[inline]
    fn next(&mut self) -> Option<(u32, usize)> {
        if self.remaining == 0 {
            return None;
        }
        let start = self.prev + self.reader.read_zeta(ZETA_K) - 1;
        let run = if self.lit_left > 0 {
            // Continuation of a literal block: gap only, no flag.
            self.lit_left -= 1;
            1
        } else if self.reader.read_bit() == 1 {
            self.reader.read_gamma() as usize + MIN_RUN - 1
        } else {
            self.lit_left = self.reader.read_gamma() as usize - 1;
            1
        };
        debug_assert!(run <= self.remaining, "interval token overruns chunk len");
        self.prev = start + run as u64;
        self.remaining -= run;
        Some((start as u32, run))
    }
}

/// Streaming decoder over [`IntervalCodec`] storage: flattens the token
/// stream back into individual values.
#[derive(Clone, Debug)]
pub struct IntervalIter<'a> {
    tokens: IntervalTokens<'a>,
    cur: u64,
    run_left: usize,
    remaining: usize,
}

impl Iterator for IntervalIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.remaining == 0 {
            return None;
        }
        if self.run_left == 0 {
            let (start, run) = self.tokens.next()?;
            self.cur = u64::from(start);
            self.run_left = run;
        }
        self.remaining -= 1;
        self.run_left -= 1;
        let v = self.cur as u32;
        self.cur += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for IntervalIter<'_> {}

/// An immutable sorted set of `u32` with an `O(1)` boundary header.
///
/// The empty chunk has `len == 0`; `first`/`last` are meaningless then
/// and guarded by the accessors.
pub struct Chunk<C: ChunkCodec> {
    len: u32,
    first: u32,
    last: u32,
    data: C::Storage,
}

impl<C: ChunkCodec> Clone for Chunk<C> {
    #[inline]
    fn clone(&self) -> Self {
        Chunk {
            len: self.len,
            first: self.first,
            last: self.last,
            data: self.data.clone(),
        }
    }
}

impl<C: ChunkCodec> std::fmt::Debug for Chunk<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<C: ChunkCodec> Default for Chunk<C> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<C: ChunkCodec> PartialEq for Chunk<C> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<C: ChunkCodec> Eq for Chunk<C> {}

impl<C: ChunkCodec> Chunk<C> {
    /// The empty chunk.
    pub fn empty() -> Self {
        Chunk {
            len: 0,
            first: 0,
            last: 0,
            data: C::encode(&[]),
        }
    }

    /// Whether the two chunks provably hold the same elements without
    /// decoding either: matching bounds plus a shared storage
    /// allocation (or both empty). `false` proves nothing — equal
    /// chunks encoded separately never share storage.
    #[inline]
    pub fn ptr_eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.first == other.first
            && self.last == other.last
            && (self.len == 0 || C::storage_ptr_eq(&self.data, &other.data))
    }

    /// Builds a chunk from a strictly increasing slice.
    ///
    /// # Panics
    ///
    /// Debug builds assert strict monotonicity.
    pub fn from_sorted(xs: &[u32]) -> Self {
        debug_assert!(xs.windows(2).all(|w| w[0] < w[1]), "chunk input unsorted");
        if xs.is_empty() {
            return Self::empty();
        }
        Chunk {
            len: xs.len() as u32,
            first: xs[0],
            last: *xs.last().expect("nonempty"),
            data: C::encode(xs),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the chunk holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Smallest element (`O(1)` from the header).
    #[inline]
    pub fn first(&self) -> Option<u32> {
        (self.len > 0).then_some(self.first)
    }

    /// Largest element (`O(1)` from the header).
    #[inline]
    pub fn last(&self) -> Option<u32> {
        (self.len > 0).then_some(self.last)
    }

    /// Lazily decodes the elements in ascending order without
    /// allocating — the traversal hot path.
    #[inline]
    pub fn iter(&self) -> C::Iter<'_> {
        C::iter(&self.data, self.len(), self.first)
    }

    /// Calls `f` on each element in ascending order, allocation-free.
    #[inline]
    pub fn for_each(&self, f: impl FnMut(u32)) {
        C::for_each(&self.data, self.len(), self.first, f);
    }

    /// Like [`for_each`](Self::for_each) but stops (returning `false`)
    /// the first time `f` returns `false`.
    #[inline]
    pub fn for_each_until(&self, mut f: impl FnMut(u32) -> bool) -> bool {
        for x in self.iter() {
            if !f(x) {
                return false;
            }
        }
        true
    }

    /// Decodes the chunk into a sorted `Vec`.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        C::decode(&self.data, self.len(), self.first, &mut out);
        out
    }

    /// Appends the decoded elements to `out` (reserving space first).
    pub fn decode_into(&self, out: &mut Vec<u32>) {
        out.reserve(self.len());
        C::decode(&self.data, self.len(), self.first, out);
    }

    /// Membership test; `O(chunk size)` — chunks are `O(b log n)` w.h.p.
    ///
    /// Allocation-free: after the `O(1)` header checks it delegates to
    /// [`ChunkCodec::search`], which binary-searches plain storage in
    /// place and early-exits the gap-decode walk at the first element
    /// `≥ x`.
    pub fn contains(&self, x: u32) -> bool {
        if self.len == 0 || x < self.first || x > self.last {
            return false;
        }
        // Header boundaries are exact matches half the time in the
        // treap-descent use: settle them without touching the payload.
        if x == self.first || x == self.last {
            return true;
        }
        C::search(&self.data, self.len(), self.first, x).is_ok()
    }

    /// Heap bytes used (payload only; the header lives inline in the
    /// tree node or C-tree root).
    pub fn memory_bytes(&self) -> usize {
        C::storage_bytes(&self.data)
    }

    /// Splits into `(elements < k, k ∈ chunk, elements > k)`.
    pub fn split3(&self, k: u32) -> (Chunk<C>, bool, Chunk<C>) {
        if self.is_empty() {
            return (Self::empty(), false, Self::empty());
        }
        // O(1) fast paths off the header.
        if k < self.first {
            return (Self::empty(), false, self.clone());
        }
        if k > self.last {
            return (self.clone(), false, Self::empty());
        }
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        let mut found = false;
        for x in self.iter() {
            match x.cmp(&k) {
                std::cmp::Ordering::Less => lo.push(x),
                std::cmp::Ordering::Equal => found = true,
                std::cmp::Ordering::Greater => hi.push(x),
            }
        }
        (Self::from_sorted(&lo), found, Self::from_sorted(&hi))
    }

    /// Splits into `(elements < bound, elements > bound)` where `bound`
    /// of `None` means `+∞` (everything goes left).
    ///
    /// Used by `Union`/`Difference`/`Intersect` with `bound` set to the
    /// smallest head of a neighbouring subtree; the bound is a head and
    /// chunk elements are non-heads, so equality cannot occur.
    pub fn split_lt(&self, bound: Option<u32>) -> (Chunk<C>, Chunk<C>) {
        match bound {
            None => (self.clone(), Self::empty()),
            Some(b) => {
                let (lo, found, hi) = self.split3(b);
                debug_assert!(!found, "head value {b} found inside a chunk");
                (lo, hi)
            }
        }
    }

    /// Merged sorted union of two chunks (duplicates collapse); streams
    /// both decode walks, collecting only the merged result.
    pub fn union(&self, other: &Chunk<C>) -> Chunk<C> {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let mut out = Vec::with_capacity(self.len() + other.len());
        let mut a = self.iter().peekable();
        let mut b = other.iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(&x), Some(&y)) => match x.cmp(&y) {
                    std::cmp::Ordering::Less => {
                        out.push(x);
                        a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        out.push(y);
                        b.next();
                    }
                    std::cmp::Ordering::Equal => {
                        out.push(x);
                        a.next();
                        b.next();
                    }
                },
                (Some(_), None) => {
                    out.extend(a.by_ref());
                    break;
                }
                (None, Some(_)) => {
                    out.extend(b.by_ref());
                    break;
                }
                (None, None) => break,
            }
        }
        Self::from_sorted(&out)
    }

    /// Concatenation fast path: requires every element of `self` to be
    /// smaller than every element of `other`.
    ///
    /// # Panics
    ///
    /// Debug builds assert the ordering precondition.
    pub fn concat(&self, other: &Chunk<C>) -> Chunk<C> {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        debug_assert!(self.last < other.first, "concat inputs overlap");
        let mut xs = Vec::with_capacity(self.len() + other.len());
        self.decode_into(&mut xs);
        other.decode_into(&mut xs);
        Self::from_sorted(&xs)
    }

    /// Elements of `self` not present in `other`; streams both sides.
    pub fn difference(&self, other: &Chunk<C>) -> Chunk<C> {
        if self.is_empty() || other.is_empty() {
            return self.clone();
        }
        // Disjoint ranges: nothing to remove.
        if other.last < self.first || other.first > self.last {
            return self.clone();
        }
        let mut out = Vec::with_capacity(self.len());
        let mut b = other.iter().peekable();
        for x in self.iter() {
            while b.peek().is_some_and(|&y| y < x) {
                b.next();
            }
            if b.peek() != Some(&x) {
                out.push(x);
            }
        }
        Self::from_sorted(&out)
    }

    /// Elements present in both chunks; streams both sides.
    pub fn intersect(&self, other: &Chunk<C>) -> Chunk<C> {
        if self.is_empty() || other.is_empty() {
            return Self::empty();
        }
        if other.last < self.first || other.first > self.last {
            return Self::empty();
        }
        let mut out = Vec::new();
        let mut b = other.iter().peekable();
        for x in self.iter() {
            while b.peek().is_some_and(|&y| y < x) {
                b.next();
            }
            if b.peek() == Some(&x) {
                out.push(x);
                b.next();
            }
        }
        Self::from_sorted(&out)
    }

    /// Elements satisfying `pred`, as a new chunk. Filters during the
    /// streaming decode walk — one allocation for the kept set, not two.
    pub fn filter(&self, mut pred: impl FnMut(u32) -> bool) -> Chunk<C> {
        let mut kept = Vec::with_capacity(self.len());
        for x in self.iter() {
            if pred(x) {
                kept.push(x);
            }
        }
        Self::from_sorted(&kept)
    }

    /// Checks the header against the payload; used by the C-tree
    /// validator.
    ///
    /// # Panics
    ///
    /// Panics if the cached `len`/`first`/`last` disagree with the data
    /// or the data is not strictly increasing.
    pub fn check(&self) {
        let xs = self.to_vec();
        assert_eq!(xs.len(), self.len(), "chunk len header stale");
        assert!(xs.windows(2).all(|w| w[0] < w[1]), "chunk not sorted");
        if let (Some(&f), Some(&l)) = (xs.first(), xs.last()) {
            assert_eq!(f, self.first, "chunk first header stale");
            assert_eq!(l, self.last, "chunk last header stale");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type PChunk = Chunk<PlainCodec>;
    type DChunk = Chunk<DeltaCodec>;
    type IChunk = Chunk<IntervalCodec>;

    #[test]
    fn empty_chunk_basics() {
        let c = DChunk::empty();
        assert!(c.is_empty());
        assert_eq!(c.first(), None);
        assert_eq!(c.last(), None);
        assert!(!c.contains(0));
        assert!(c.to_vec().is_empty());
        c.check();
    }

    #[test]
    fn header_caches_boundaries() {
        let c = DChunk::from_sorted(&[3, 9, 27]);
        assert_eq!(c.first(), Some(3));
        assert_eq!(c.last(), Some(27));
        assert_eq!(c.len(), 3);
        c.check();
    }

    #[test]
    fn all_codecs_agree() {
        let xs: Vec<u32> = (0..200).map(|i| i * 17 + 3).collect();
        let p = PChunk::from_sorted(&xs);
        let d = DChunk::from_sorted(&xs);
        let iv = IChunk::from_sorted(&xs);
        assert_eq!(p.to_vec(), xs);
        assert_eq!(d.to_vec(), xs);
        assert_eq!(iv.to_vec(), xs);
        // delta should compress a regular sequence well below 4B/elem
        assert!(d.memory_bytes() < p.memory_bytes());
    }

    #[test]
    fn lazy_iter_matches_to_vec() {
        let xs: Vec<u32> = vec![0, 1, 2, 3, 4, 10, 11, 12, 13, 1000, u32::MAX];
        assert_eq!(PChunk::from_sorted(&xs).iter().collect::<Vec<_>>(), xs);
        assert_eq!(DChunk::from_sorted(&xs).iter().collect::<Vec<_>>(), xs);
        assert_eq!(IChunk::from_sorted(&xs).iter().collect::<Vec<_>>(), xs);
        let iv = IChunk::from_sorted(&xs);
        assert_eq!(iv.iter().len(), xs.len());
        let mut seen = Vec::new();
        iv.for_each(|x| seen.push(x));
        assert_eq!(seen, xs);
    }

    #[test]
    fn for_each_until_stops_early() {
        let c = IChunk::from_sorted(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut seen = Vec::new();
        let finished = c.for_each_until(|x| {
            seen.push(x);
            x < 5
        });
        assert!(!finished);
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        assert!(c.for_each_until(|_| true));
    }

    #[test]
    fn contains_checks_membership() {
        let c = DChunk::from_sorted(&[5, 10, 15]);
        assert!(c.contains(10));
        assert!(!c.contains(11));
        assert!(!c.contains(4));
        assert!(!c.contains(16));
    }

    #[test]
    fn codec_search_agrees_with_binary_search() {
        let xs: Vec<u32> = (0..300).map(|i| i * 3 + 7).collect();
        let p = PChunk::from_sorted(&xs);
        let d = DChunk::from_sorted(&xs);
        let iv = IChunk::from_sorted(&xs);
        for probe in 0..1000u32 {
            let expect = xs.binary_search(&probe);
            assert_eq!(PlainCodec::search(&p.data, xs.len(), xs[0], probe), expect);
            assert_eq!(DeltaCodec::search(&d.data, xs.len(), xs[0], probe), expect);
            assert_eq!(
                IntervalCodec::search(&iv.data, xs.len(), xs[0], probe),
                expect
            );
            assert_eq!(p.contains(probe), expect.is_ok());
            assert_eq!(d.contains(probe), expect.is_ok());
            assert_eq!(iv.contains(probe), expect.is_ok());
        }
    }

    #[test]
    fn interval_search_inside_runs() {
        // A long run plus stragglers exercises the O(1) in-interval hit.
        let xs: Vec<u32> = (100..200).chain([500, 1000, 1001, 1002, 1003]).collect();
        let iv = IChunk::from_sorted(&xs);
        for probe in [99, 100, 150, 199, 200, 499, 500, 501, 1000, 1003, 1004] {
            assert_eq!(
                IntervalCodec::search(&iv.data, xs.len(), xs[0], probe),
                xs.binary_search(&probe),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn interval_beats_delta_on_runs() {
        // 256 consecutive values: delta pays a byte per edge, interval
        // pays a handful of bits for the whole run.
        let xs: Vec<u32> = (1000..1256).collect();
        let d = DChunk::from_sorted(&xs);
        let iv = IChunk::from_sorted(&xs);
        assert!(
            iv.memory_bytes() * 8 < d.memory_bytes(),
            "interval {} bytes vs delta {} bytes",
            iv.memory_bytes(),
            d.memory_bytes()
        );
    }

    #[test]
    fn split3_cases() {
        let c = DChunk::from_sorted(&[10, 20, 30, 40]);
        let (lo, f, hi) = c.split3(20);
        assert_eq!(
            (lo.to_vec(), f, hi.to_vec()),
            (vec![10], true, vec![30, 40])
        );
        let (lo, f, hi) = c.split3(25);
        assert_eq!(
            (lo.to_vec(), f, hi.to_vec()),
            (vec![10, 20], false, vec![30, 40])
        );
        let (lo, f, hi) = c.split3(5);
        assert_eq!((lo.len(), f, hi.len()), (0, false, 4));
        let (lo, f, hi) = c.split3(100);
        assert_eq!((lo.len(), f, hi.len()), (4, false, 0));
    }

    #[test]
    fn split_lt_none_keeps_all_left() {
        let c = DChunk::from_sorted(&[1, 2, 3]);
        let (lo, hi) = c.split_lt(None);
        assert_eq!(lo.len(), 3);
        assert!(hi.is_empty());
    }

    #[test]
    fn union_merges_with_dedup() {
        let a = DChunk::from_sorted(&[1, 3, 5]);
        let b = DChunk::from_sorted(&[2, 3, 6]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 3, 5, 6]);
        assert_eq!(a.union(&DChunk::empty()).to_vec(), vec![1, 3, 5]);
        let ia = IChunk::from_sorted(&[1, 3, 5]);
        let ib = IChunk::from_sorted(&[2, 3, 6]);
        assert_eq!(ia.union(&ib).to_vec(), vec![1, 2, 3, 5, 6]);
    }

    #[test]
    fn concat_is_union_for_disjoint_ranges() {
        let a = DChunk::from_sorted(&[1, 2]);
        let b = DChunk::from_sorted(&[7, 9]);
        assert_eq!(a.concat(&b).to_vec(), vec![1, 2, 7, 9]);
        assert_eq!(DChunk::empty().concat(&b).to_vec(), vec![7, 9]);
    }

    #[test]
    fn difference_and_intersect() {
        let a = IChunk::from_sorted(&[1, 2, 3, 4, 5]);
        let b = IChunk::from_sorted(&[2, 4, 6]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 3, 5]);
        assert_eq!(a.intersect(&b).to_vec(), vec![2, 4]);
        // Disjoint fast paths.
        let far = IChunk::from_sorted(&[100, 200]);
        assert_eq!(a.difference(&far).to_vec(), vec![1, 2, 3, 4, 5]);
        assert!(a.intersect(&far).is_empty());
    }

    #[test]
    fn filter_keeps_predicate() {
        let a = DChunk::from_sorted(&[1, 2, 3, 4]);
        assert_eq!(a.filter(|x| x % 2 == 0).to_vec(), vec![2, 4]);
        let iv = IChunk::from_sorted(&[1, 2, 3, 4]);
        assert_eq!(iv.filter(|x| x % 2 == 1).to_vec(), vec![1, 3]);
    }

    #[test]
    fn decode_into_reserves() {
        let c = DChunk::from_sorted(&[1, 2, 3, 4, 5]);
        let mut out = Vec::new();
        c.decode_into(&mut out);
        assert!(out.capacity() >= 5);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn delta_memory_is_one_byte_per_small_gap() {
        let xs: Vec<u32> = (1000..1256).collect();
        let d = DChunk::from_sorted(&xs);
        assert_eq!(d.memory_bytes(), 2 + 255);
    }

    #[test]
    fn eq_is_structural() {
        let a = DChunk::from_sorted(&[1, 2]);
        let b = DChunk::from_sorted(&[1, 2]);
        let c = DChunk::from_sorted(&[1, 3]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn adversarial_shapes_roundtrip_everywhere() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![u32::MAX],
            (0..64).collect(),
            vec![0, u32::MAX],
            vec![
                0,
                1,
                2,
                3,
                u32::MAX - 3,
                u32::MAX - 2,
                u32::MAX - 1,
                u32::MAX,
            ],
        ];
        for xs in &cases {
            assert_eq!(&PChunk::from_sorted(xs).to_vec(), xs);
            assert_eq!(&DChunk::from_sorted(xs).to_vec(), xs);
            assert_eq!(&IChunk::from_sorted(xs).to_vec(), xs);
        }
    }
}
