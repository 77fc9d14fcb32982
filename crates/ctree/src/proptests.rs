//! Property tests: every C-tree operation is checked against a sorted
//! `Vec`/`BTreeSet` oracle over random element sets **and random chunk
//! parameters**, with the full structural validator run on every
//! result. Randomising `b` matters: `b = 1` degenerates to a plain
//! tree, huge `b` to a single prefix chunk, and the interesting routing
//! logic lives in between.

use crate::{CTree, Chunk, ChunkCodec, ChunkParams, DeltaCodec, IntervalCodec, PlainCodec};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn elems() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..2_000, 0..400).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

fn bs() -> impl Strategy<Value = u32> {
    prop_oneof![Just(1u32), 2u32..10, 10u32..300, Just(1u32 << 16)]
}

/// Element sets exercising the codec edge cases: full-range values
/// (max-gap `u32::MAX`), dense consecutive runs (intervalization), and
/// ordinary sparse sets.
fn codec_elems() -> impl Strategy<Value = Vec<u32>> {
    let sparse = proptest::collection::vec(0u32..=u32::MAX, 0..200);
    let runs = proptest::collection::vec(0u32..50_000, 1..8).prop_map(|starts| {
        starts
            .into_iter()
            .flat_map(|s| s..s.saturating_add(40))
            .collect::<Vec<u32>>()
    });
    let extremes = Just(vec![0u32, 1, 2, 3, u32::MAX - 1, u32::MAX]);
    prop_oneof![sparse, runs, extremes].prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

/// Checks one codec against the `PlainCodec` oracle on
/// encode/decode/search/iter/storage_bytes.
fn assert_codec_matches_oracle<C: ChunkCodec>(xs: &[u32], probes: &[u32]) {
    let chunk = Chunk::<C>::from_sorted(xs);
    let oracle = Chunk::<PlainCodec>::from_sorted(xs);
    // decode
    assert_eq!(chunk.to_vec(), oracle.to_vec(), "{} decode", C::name());
    // iter agrees with decode and with the oracle's iterator
    assert!(chunk.iter().eq(oracle.iter()), "{} iter", C::name());
    // search
    for &q in probes {
        assert_eq!(
            C::search(
                &C::encode(xs),
                xs.len(),
                xs.first().copied().unwrap_or(0),
                q
            ),
            xs.binary_search(&q),
            "{} search({q})",
            C::name()
        );
        assert_eq!(chunk.contains(q), xs.binary_search(&q).is_ok());
    }
    // storage accounting is sane
    let _ = chunk.memory_bytes();
    chunk.check();
}

fn assert_all_codecs_match(xs: &[u32], probes: &[u32]) {
    assert_codec_matches_oracle::<PlainCodec>(xs, probes);
    assert_codec_matches_oracle::<DeltaCodec>(xs, probes);
    assert_codec_matches_oracle::<IntervalCodec>(xs, probes);
}

#[test]
fn codec_equivalence_adversarial_cases() {
    let cases: Vec<Vec<u32>> = vec![
        vec![],                                 // empty
        vec![0],                                // singleton at the origin
        vec![u32::MAX],                         // singleton at max (gap 2^32)
        (0..300).collect(),                     // all-consecutive
        vec![0, u32::MAX],                      // max internal gap
        (u32::MAX - 20..=u32::MAX).collect(),   // consecutive run at the top
        vec![7, 8, 9, 10, 100, 101, 102, 1000], // run + stragglers
    ];
    for xs in &cases {
        let probes: Vec<u32> = xs
            .iter()
            .flat_map(|&x| [x, x.wrapping_add(1), x.wrapping_sub(1)])
            .chain([0, 1, u32::MAX])
            .collect();
        assert_all_codecs_match(xs, &probes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn build_roundtrip(xs in elems(), b in bs()) {
        let t: CTree<DeltaCodec> = CTree::from_sorted(&xs, ChunkParams::with_b(b));
        prop_assert_eq!(t.to_vec(), xs.clone());
        prop_assert_eq!(t.len(), xs.len());
        t.check_invariants();
    }

    #[test]
    fn contains_matches_set(xs in elems(), b in bs(), probe in proptest::collection::vec(0u32..2_000, 20)) {
        let t: CTree<DeltaCodec> = CTree::from_sorted(&xs, ChunkParams::with_b(b));
        let s: BTreeSet<u32> = xs.iter().copied().collect();
        for q in probe {
            prop_assert_eq!(t.contains(q), s.contains(&q));
        }
    }

    #[test]
    fn split_partitions(xs in elems(), b in bs(), k in 0u32..2_000) {
        let t: CTree<DeltaCodec> = CTree::from_sorted(&xs, ChunkParams::with_b(b));
        let (lo, found, hi) = t.split(k);
        prop_assert_eq!(lo.to_vec(), xs.iter().copied().filter(|&x| x < k).collect::<Vec<_>>());
        prop_assert_eq!(hi.to_vec(), xs.iter().copied().filter(|&x| x > k).collect::<Vec<_>>());
        prop_assert_eq!(found, xs.binary_search(&k).is_ok());
        lo.check_invariants();
        hi.check_invariants();
    }

    #[test]
    fn union_matches_oracle(xs in elems(), ys in elems(), b in bs()) {
        let p = ChunkParams::with_b(b);
        let u = CTree::<DeltaCodec>::from_sorted(&xs, p).union(&CTree::from_sorted(&ys, p));
        let oracle: Vec<u32> = xs.iter().chain(ys.iter()).copied().collect::<BTreeSet<_>>().into_iter().collect();
        prop_assert_eq!(u.to_vec(), oracle);
        u.check_invariants();
    }

    #[test]
    fn difference_matches_oracle(xs in elems(), ys in elems(), b in bs()) {
        let p = ChunkParams::with_b(b);
        let d = CTree::<DeltaCodec>::from_sorted(&xs, p).difference(&CTree::from_sorted(&ys, p));
        let sy: BTreeSet<u32> = ys.iter().copied().collect();
        let oracle: Vec<u32> = xs.iter().copied().filter(|x| !sy.contains(x)).collect();
        prop_assert_eq!(d.to_vec(), oracle);
        d.check_invariants();
    }

    #[test]
    fn intersect_matches_oracle(xs in elems(), ys in elems(), b in bs()) {
        let p = ChunkParams::with_b(b);
        let i = CTree::<DeltaCodec>::from_sorted(&xs, p).intersect(&CTree::from_sorted(&ys, p));
        let sy: BTreeSet<u32> = ys.iter().copied().collect();
        let oracle: Vec<u32> = xs.iter().copied().filter(|x| sy.contains(x)).collect();
        prop_assert_eq!(i.to_vec(), oracle);
        i.check_invariants();
    }

    #[test]
    fn plain_codec_agrees_with_delta(xs in elems(), ys in elems(), b in bs()) {
        let p = ChunkParams::with_b(b);
        let du = CTree::<DeltaCodec>::from_sorted(&xs, p).union(&CTree::from_sorted(&ys, p));
        let pu = CTree::<PlainCodec>::from_sorted(&xs, p).union(&CTree::from_sorted(&ys, p));
        prop_assert_eq!(du.to_vec(), pu.to_vec());
    }

    #[test]
    fn codec_equivalence_random_sets(xs in codec_elems(), probes in proptest::collection::vec(0u32..=u32::MAX, 12)) {
        let mut probes = probes;
        // Half the probes should hit: mix in real elements.
        probes.extend(xs.iter().step_by(17).copied());
        assert_all_codecs_match(&xs, &probes);
    }

    #[test]
    fn interval_and_delta_trees_agree_on_setops(xs in elems(), ys in elems(), b in bs()) {
        let p = ChunkParams::with_b(b);
        let (da, db) = (CTree::<DeltaCodec>::from_sorted(&xs, p), CTree::from_sorted(&ys, p));
        let (ia, ib) = (CTree::<IntervalCodec>::from_sorted(&xs, p), CTree::from_sorted(&ys, p));
        for (d, i) in [
            (da.union(&db), ia.union(&ib)),
            (da.difference(&db), ia.difference(&ib)),
            (da.intersect(&db), ia.intersect(&ib)),
        ] {
            prop_assert_eq!(d.to_vec(), i.to_vec());
            i.check_invariants();
        }
    }

    #[test]
    fn set_algebra_laws(xs in elems(), ys in elems(), b in bs()) {
        let p = ChunkParams::with_b(b);
        let a = CTree::<DeltaCodec>::from_sorted(&xs, p);
        let c = CTree::<DeltaCodec>::from_sorted(&ys, p);
        // |A ∪ B| = |A| + |B| - |A ∩ B|
        prop_assert_eq!(a.union(&c).len() + a.intersect(&c).len(), a.len() + c.len());
        // (A \ B) ∪ (A ∩ B) = A
        let rebuilt = a.difference(&c).union(&a.intersect(&c));
        prop_assert_eq!(rebuilt.to_vec(), a.to_vec());
    }

    #[test]
    fn multi_insert_then_delete_is_difference(xs in elems(), batch in elems(), b in bs()) {
        let p = ChunkParams::with_b(b);
        let t = CTree::<DeltaCodec>::from_sorted(&xs, p);
        let round = t.multi_insert(batch.clone()).multi_delete(batch.clone());
        let sb: BTreeSet<u32> = batch.iter().copied().collect();
        let oracle: Vec<u32> = xs.iter().copied().filter(|x| !sb.contains(x)).collect();
        prop_assert_eq!(round.to_vec(), oracle);
        round.check_invariants();
    }

    #[test]
    fn snapshots_survive_updates(xs in elems(), batch in elems(), b in bs()) {
        let p = ChunkParams::with_b(b);
        let t = CTree::<DeltaCodec>::from_sorted(&xs, p);
        let snapshot = t.clone();
        let _new = t.multi_insert(batch);
        prop_assert_eq!(snapshot.to_vec(), xs);
    }
}
