//! Structural fingerprints: a compact hash of a sparse matrix's
//! *sparsity pattern*, ignoring the stored values.
//!
//! SMAT's tuning decision depends only on structure — every one of the
//! paper's Table 2 feature parameters (dimensions, row-degree moments,
//! diagonal counts, fill ratios, power-law `R`) is a function of the
//! pattern, never of the numeric values. Two matrices with the same
//! pattern therefore get the same decision, which is what makes a
//! fingerprint-keyed tuning cache sound: the AMG application regenerates
//! operators with recurring structure but fresh values at every setup,
//! and the cache lets those skip feature extraction, rule evaluation and
//! the execute-and-measure fallback entirely.
//!
//! The fingerprint is `(rows, cols, nnz)` plus a 128-bit digest: two
//! 64-bit halves, each with its own seed and multiplier, over the
//! row-pointer and column-index arrays. Collisions would require two
//! different patterns to agree on dimensions, nnz *and* both halves.
//!
//! One pass feeds both halves, and a half is [`LANES`] independent
//! xor-multiply-rotate chains (word `k` of an array feeds lane
//! `k mod LANES`), so the walk runs at the multiplier's throughput, not
//! its latency. Measured on the e2e suite matrices: 0.65 ns per index
//! warm, twice that in place (memory-bound) — 0.1–0.65x the feature
//! extraction a cache hit skips.

use crate::csr::Csr;
use crate::scalar::Scalar;
use serde::{Deserialize, Serialize};

/// Start values of the two digest halves.
const SEEDS: [u64; 2] = [0xcbf2_9ce4_8422_2325, 0x9e37_79b9_7f4a_7c15];
/// Odd multipliers of the two halves (the rrmxmx and murmur3 finalizer
/// constants: dense, so one step spreads a bit over the upper word).
const MULTIPLIERS: [u64; 2] = [0xd6e8_feb8_6659_fd93, 0xff51_afd7_ed55_8ccd];
/// Independent chains per half.
const LANES: usize = 4;

/// A hashable identity for a matrix's sparsity structure.
///
/// Equal fingerprints mean (up to hash collisions) equal patterns:
/// same shape, same nonzero positions. Values play no part, so a matrix
/// refilled with new numbers keeps its fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StructuralFingerprint {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Number of stored entries.
    pub nnz: usize,
    /// 128-bit pattern digest over `row_ptr` and `col_idx`.
    pub digest: [u64; 2],
}

impl StructuralFingerprint {
    /// Names the digest algorithm (ASCII `LANES4x2`); folded into the
    /// stamp of persisted fingerprint-keyed artifacts so stale keys are
    /// refused, not loaded as dead weight.
    pub const ALGORITHM: u64 = 0x4c41_4e45_5334_7832;

    /// Computes the fingerprint of an arbitrary CSR pattern.
    pub fn of_pattern(rows: usize, cols: usize, row_ptr: &[usize], col_idx: &[u32]) -> Self {
        let mut digest = SEEDS;
        absorb(&mut digest, row_ptr, |w| w as u64);
        absorb(&mut digest, col_idx, u64::from);
        StructuralFingerprint {
            rows,
            cols,
            nnz: col_idx.len(),
            digest,
        }
    }
}

/// Folds one array into both halves. Every word enters widened to
/// `u64`, so a digest does not depend on the width an array is stored
/// at: persisted digests stay valid across index widths.
#[inline(always)]
fn absorb<W: Copy>(digest: &mut [u64; 2], words: &[W], widen: impl Fn(W) -> u64) {
    let mut lanes = SEEDS.map(|seed| std::array::from_fn::<_, LANES, _>(|l| seed ^ l as u64));
    let mut feed = |chunk: &[W]| {
        for (l, &w) in chunk.iter().enumerate() {
            lanes[0][l] = step(lanes[0][l], widen(w), MULTIPLIERS[0]);
            lanes[1][l] = step(lanes[1][l], widen(w), MULTIPLIERS[1]);
        }
    };
    let mut chunks = words.chunks_exact(LANES);
    chunks.by_ref().for_each(&mut feed);
    feed(chunks.remainder());
    // The lanes fold in lane order, then the array's length: no word
    // moves between `row_ptr` and `col_idx` unnoticed.
    for (h, half) in digest.iter_mut().enumerate() {
        let closing = lanes[h].into_iter().chain([words.len() as u64]);
        *half = closing.fold(*half, |acc, word| step(acc, word, MULTIPLIERS[h]));
    }
}

/// Feeds one whole word into a chain: one multiply per index and half.
/// For a fixed `h` a bijection in `word`, so streams that differ in one
/// word disagree afterwards; without the rotation bit `i` of a digest
/// would depend on bits `0..=i` of the words alone.
#[inline(always)]
fn step(h: u64, word: u64, multiplier: u64) -> u64 {
    (h ^ word).wrapping_mul(multiplier).rotate_left(29)
}

impl<T: Scalar> Csr<T> {
    /// The fingerprint of this matrix's sparsity structure.
    ///
    /// One linear pass over `row_ptr` and `col_idx`, two multiplies per
    /// index: 0.1–0.65x a feature extraction; with the conversion, all
    /// a tuning-cache hit costs.
    pub fn fingerprint(&self) -> StructuralFingerprint {
        StructuralFingerprint::of_pattern(self.rows(), self.cols(), self.row_ptr(), self.col_idx())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_uniform, tridiagonal};

    #[test]
    fn values_do_not_affect_the_fingerprint() {
        let a = tridiagonal::<f64>(200);
        let mut b = a.clone();
        for v in b.values_mut() {
            *v *= -3.25;
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn dimensions_and_pattern_feed_the_key() {
        let a = tridiagonal::<f64>(100);
        let b = tridiagonal::<f64>(101);
        assert_ne!(a.fingerprint(), b.fingerprint());

        let c = random_uniform::<f64>(100, 100, 3, 1);
        let d = random_uniform::<f64>(100, 100, 3, 2);
        assert_ne!(c.fingerprint(), d.fingerprint());
    }

    #[test]
    fn transposed_pattern_differs() {
        let m = random_uniform::<f64>(60, 40, 4, 7);
        assert_ne!(m.fingerprint(), m.transpose().fingerprint());
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let m = random_uniform::<f64>(80, 80, 5, 3);
        assert_eq!(m.fingerprint(), m.clone().fingerprint());
    }

    fn halves_differ(a: StructuralFingerprint, b: StructuralFingerprint, what: &str) {
        assert_ne!(a.digest[0], b.digest[0], "half 0: {what}");
        assert_ne!(a.digest[1], b.digest[1], "half 1: {what}");
    }

    #[test]
    fn every_length_around_the_lane_count_is_distinct() {
        // Streams of one repeated word, 0..=2 * LANES + 1 long, on
        // either side of the boundary: only the count differs, through
        // the full-chunk loop, the remainder and the untouched lanes.
        let mut seen = [
            std::collections::HashSet::new(),
            std::collections::HashSet::new(),
        ];
        let lengths = 0..=2 * LANES + 1;
        for n in lengths.clone() {
            for fp in [
                StructuralFingerprint::of_pattern(1, 1, &vec![7; n], &[]),
                StructuralFingerprint::of_pattern(1, 1, &[], &vec![7u32; n]),
            ] {
                seen[0].insert(fp.digest[0]);
                seen[1].insert(fp.digest[1]);
            }
        }
        // The two empty/empty patterns coincide; everything else differs.
        let distinct = 2 * lengths.count() - 1;
        assert_eq!((seen[0].len(), seen[1].len()), (distinct, distinct));
    }

    #[test]
    fn swapping_words_within_and_across_lanes_changes_both_halves() {
        let base: Vec<usize> = (0..3 * LANES + 2).map(|k| 1000 + 17 * k).collect();
        let narrow = |words: &[usize]| words.iter().map(|&w| w as u32).collect::<Vec<_>>();
        let of = |row_ptr: &[usize], col_idx: &[u32]| {
            StructuralFingerprint::of_pattern(5, 5, row_ptr, col_idx)
        };
        for (i, j, what) in [
            (1, 1 + LANES, "same lane, adjacent chunks"),
            (0, 2 * LANES, "same lane, two chunks apart"),
            (1, 2, "neighbouring lanes"),
            (LANES - 1, LANES, "last lane and first lane"),
            (2, 3 * LANES + 1, "a full chunk and the remainder"),
        ] {
            let mut swapped = base.clone();
            swapped.swap(i, j);
            halves_differ(of(&base, &[3]), of(&swapped, &[3]), what);
            halves_differ(
                of(&[0, 1], &narrow(&base)),
                of(&[0, 1], &narrow(&swapped)),
                what,
            );
        }
    }

    #[test]
    fn a_word_moved_across_the_array_boundary_changes_both_halves() {
        let words: Vec<usize> = (0..2 * LANES + 3).map(|k| 40 + k).collect();
        let of = |cut: usize| {
            let col_idx: Vec<u32> = words[cut..].iter().map(|&w| w as u32).collect();
            StructuralFingerprint::of_pattern(9, 9, &words[..cut], &col_idx)
        };
        for cut in 0..words.len() {
            halves_differ(of(cut), of(cut + 1), &format!("cut {cut} -> {}", cut + 1));
        }
    }

    #[test]
    fn serde_round_trip() {
        let fp = tridiagonal::<f64>(64).fingerprint();
        let json = serde_json::to_string(&fp).unwrap();
        let back: StructuralFingerprint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fp);
    }
}
