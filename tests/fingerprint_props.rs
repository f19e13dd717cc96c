//! Property tests for the structural fingerprint behind the tuning
//! cache: matrices with identical sparsity structure must collide (that
//! is what makes the cache useful), and any structural mutation —
//! different shape, a moved, added or removed entry — must separate
//! (that is what makes the cache sound).

use proptest::prelude::*;
use smat_matrix::{Csr, StructuralFingerprint};

fn arb_matrix() -> impl Strategy<Value = Csr<f64>> {
    (1usize..40, 1usize..40).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows, 0..cols, -100i32..100).prop_map(|(r, c, v)| (r, c, v as f64 / 7.0));
        proptest::collection::vec(entry, 1..120).prop_map(move |triplets| {
            Csr::from_triplets(rows, cols, &triplets).expect("in-bounds triplets")
        })
    })
}

fn rebuild(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Csr<f64> {
    Csr::from_triplets(rows, cols, triplets).expect("in-bounds triplets")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn identical_structure_means_identical_key(m in arb_matrix()) {
        // Same pattern with rewritten values: the key must not look at
        // the numerics at all (features are structure-only, so a cached
        // decision replays across value updates).
        let mut twin = m.clone();
        for v in twin.values_mut() {
            *v = v.mul_add(-3.0, 1.25);
        }
        prop_assert_eq!(twin.fingerprint(), m.fingerprint());
        // And the key is a pure function: recomputing never drifts.
        prop_assert_eq!(m.fingerprint(), m.fingerprint());
    }

    #[test]
    fn shape_changes_change_the_key(m in arb_matrix()) {
        let fp = m.fingerprint();
        let triplets: Vec<_> = m.iter().collect();
        // One extra (empty) row, then one extra (empty) column: same
        // entries, different shape.
        let taller = rebuild(m.rows() + 1, m.cols(), &triplets);
        prop_assert_ne!(taller.fingerprint(), fp);
        let wider = rebuild(m.rows(), m.cols() + 1, &triplets);
        prop_assert_ne!(wider.fingerprint(), fp);
    }

    #[test]
    fn moving_an_entry_changes_the_key(
        (m, pick) in arb_matrix().prop_flat_map(|m| {
            let nnz = m.nnz();
            (Just(m), 0..nnz)
        })
    ) {
        let fp = m.fingerprint();
        let triplets: Vec<_> = m.iter().collect();
        let (r, c, v) = triplets[pick];
        // Move the picked entry to the next free column in its row
        // (wrapping); skip the rare fully-dense row where it can't move.
        let mut dest = None;
        for step in 1..m.cols() {
            let cand = (c + step) % m.cols();
            if m.get(r, cand).is_none() {
                dest = Some(cand);
                break;
            }
        }
        if let Some(dest) = dest {
            let mut moved = triplets.clone();
            moved[pick] = (r, dest, v);
            prop_assert_ne!(rebuild(m.rows(), m.cols(), &moved).fingerprint(), fp);
        }
    }

    #[test]
    fn dropping_or_adding_an_entry_changes_the_key(
        (m, pick) in arb_matrix().prop_flat_map(|m| {
            let nnz = m.nnz();
            (Just(m), 0..nnz)
        })
    ) {
        let fp = m.fingerprint();
        let mut triplets: Vec<_> = m.iter().collect();
        let (r, c, _) = triplets.remove(pick);
        prop_assert_ne!(rebuild(m.rows(), m.cols(), &triplets).fingerprint(), fp);
        // Put a structurally new entry where none was.
        triplets.push((r, c, 9.0));
        let mut extra = None;
        'scan: for rr in 0..m.rows() {
            for cc in 0..m.cols() {
                if m.get(rr, cc).is_none() {
                    extra = Some((rr, cc, 1.0));
                    break 'scan;
                }
            }
        }
        if let Some(e) = extra {
            triplets.push(e);
            prop_assert_ne!(rebuild(m.rows(), m.cols(), &triplets).fingerprint(), fp);
        }
    }

    #[test]
    fn a_single_word_edit_changes_both_halves(
        (row_ptr, col_idx, pick, delta) in (
            proptest::collection::vec(0usize..1_000_000, 0..24),
            proptest::collection::vec(0u32..1_000_000, 0..24),
            0usize..48,
            1usize..1_000_000,
        )
    ) {
        // `of_pattern` hashes whatever arrays it is given, so the edit
        // need not keep them a valid CSR: one word, anywhere in either
        // array, at any position relative to the lanes.
        let base = StructuralFingerprint::of_pattern(3, 3, &row_ptr, &col_idx);
        let (mut rp, mut ci) = (row_ptr.clone(), col_idx.clone());
        let edited = if pick % 2 == 1 && !ci.is_empty() {
            let at = (pick / 2) % ci.len();
            ci[at] += delta as u32;
            true
        } else if pick % 2 == 0 && !rp.is_empty() {
            let at = (pick / 2) % rp.len();
            rp[at] += delta;
            true
        } else {
            false
        };
        if edited {
            let edited = StructuralFingerprint::of_pattern(3, 3, &rp, &ci);
            prop_assert_ne!(edited.digest[0], base.digest[0]);
            prop_assert_ne!(edited.digest[1], base.digest[1]);
        }
    }

    #[test]
    fn key_is_stable_across_clone_and_rebuild(m in arb_matrix()) {
        // Rebuilding the same logical matrix from its own triplets (a
        // fresh allocation, same structure) reproduces the key, so the
        // cache works across independently-constructed instances.
        let triplets: Vec<_> = m.iter().collect();
        let rebuilt = rebuild(m.rows(), m.cols(), &triplets);
        prop_assert_eq!(rebuilt.fingerprint(), m.fingerprint());
        prop_assert_eq!(m.clone().fingerprint(), m.fingerprint());
    }
}

#[test]
fn fingerprints_rarely_collide_across_a_family() {
    // 20 000 distinct structures; the 128-bit key must separate them
    // all, and so must each 64-bit half on its own.
    let mut seen = std::collections::HashSet::<StructuralFingerprint>::new();
    let mut halves = [
        std::collections::HashSet::<u64>::new(),
        std::collections::HashSet::<u64>::new(),
    ];
    for n in 2..202usize {
        for shift in 0..100usize {
            // The halves digest `row_ptr` (here: n) and `col_idx` (here:
            // shift) only, so those two must differ across the family.
            let t = [(0usize, shift, 1.0f64), (n - 1, shift + 1, 1.0)];
            let m = Csr::from_triplets(n, n + shift, &t).unwrap();
            let fp = m.fingerprint();
            seen.insert(fp);
            halves[0].insert(fp.digest[0]);
            halves[1].insert(fp.digest[1]);
        }
    }
    assert_eq!(
        seen.len(),
        200 * 100,
        "every distinct structure got a distinct key"
    );
    assert_eq!((halves[0].len(), halves[1].len()), (200 * 100, 200 * 100));
}
