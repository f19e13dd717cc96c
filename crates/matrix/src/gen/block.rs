//! Block-sparse matrices: dense sub-blocks scattered on a block grid.
//!
//! The paper notes that "when there exist many dense sub-blocks in a
//! sparse matrix, the corresponding blocking variants (i.e. BCSR, BDIA,
//! etc.) may perform better". SMAT's four basic formats treat these as
//! CSR territory; the archetype exercises moderate `aver_RD` with strong
//! locality, as in structural / FEM matrices.

use super::random::random_value;
use super::rows::{capacity_for, Rows};
use crate::{Csr, Scalar};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates an `n x n` matrix of dense `block_size x block_size` blocks,
/// where each block row receives `blocks_per_row` blocks at random block
/// columns (always including the diagonal block, keeping the matrix
/// structurally nonsingular).
///
/// # Panics
///
/// Panics if `n == 0`, `block_size == 0`, `n` is not a multiple of
/// `block_size`, or `blocks_per_row` is zero or exceeds `n / block_size`.
///
/// # Examples
///
/// ```
/// use smat_matrix::gen::block_sparse;
///
/// let m = block_sparse::<f64>(64, 4, 3, 42);
/// assert_eq!(m.nnz(), (64 / 4) * 3 * 16);
/// ```
pub fn block_sparse<T: Scalar>(
    n: usize,
    block_size: usize,
    blocks_per_row: usize,
    seed: u64,
) -> Csr<T> {
    assert!(n > 0 && block_size > 0, "empty matrix requested");
    assert!(
        n.is_multiple_of(block_size),
        "dimension {n} not a multiple of block size {block_size}"
    );
    let nb = n / block_size;
    assert!(
        blocks_per_row >= 1 && blocks_per_row <= nb,
        "blocks_per_row must be in 1..={nb}"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let nnz = nb * blocks_per_row * block_size * block_size;
    let mut out = BlockRows::new(n, block_size, nnz);
    for br in 0..nb {
        out.push_block_row(&mut rng, br, blocks_per_row);
    }
    out.finish()
}

/// Like [`block_sparse`], but each block row draws its own block count
/// uniformly from `[1, max_blocks_per_row]`, giving the row-degree
/// variance real FEM/structural matrices show (which defeats ELL).
///
/// # Panics
///
/// Same conditions as [`block_sparse`], with `max_blocks_per_row` in
/// `1..=n / block_size`.
pub fn block_sparse_varied<T: Scalar>(
    n: usize,
    block_size: usize,
    max_blocks_per_row: usize,
    seed: u64,
) -> Csr<T> {
    assert!(n > 0 && block_size > 0, "empty matrix requested");
    assert!(
        n.is_multiple_of(block_size),
        "dimension {n} not a multiple of block size {block_size}"
    );
    let nb = n / block_size;
    assert!(
        max_blocks_per_row >= 1 && max_blocks_per_row <= nb,
        "max_blocks_per_row must be in 1..={nb}"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mean = (1 + max_blocks_per_row) as f64 / 2.0;
    let mut out = BlockRows::new(
        n,
        block_size,
        capacity_for(n as f64 * mean * block_size as f64),
    );
    for br in 0..nb {
        let bpr = rng.gen_range(1..=max_blocks_per_row);
        out.push_block_row(&mut rng, br, bpr);
    }
    out.finish()
}

/// Block rows appended to a matrix one at a time.
struct BlockRows<T> {
    out: Rows<T>,
    bs: usize,
    nb: usize,
    /// The current block row's block columns, ascending.
    blocks: Vec<usize>,
    /// Its values in draw order: block by block, each row-major.
    drawn: Vec<T>,
}

impl<T: Scalar> BlockRows<T> {
    fn new(n: usize, bs: usize, nnz: usize) -> Self {
        Self {
            out: Rows::new(n, n, nnz),
            bs,
            nb: n / bs,
            blocks: Vec::new(),
            drawn: Vec::new(),
        }
    }

    /// Appends the `bs` rows of block row `br`: its diagonal block and
    /// random others until it has `count`, each block's values drawn
    /// in ascending block-column order.
    fn push_block_row(&mut self, rng: &mut SmallRng, br: usize, count: usize) {
        let bs = self.bs;
        self.blocks.clear();
        self.blocks.push(br);
        while self.blocks.len() < count {
            let bc = rng.gen_range(0..self.nb);
            if let Err(at) = self.blocks.binary_search(&bc) {
                self.blocks.insert(at, bc);
            }
        }
        self.drawn.clear();
        self.drawn
            .extend((0..self.blocks.len() * bs * bs).map(|_| random_value::<T>(rng)));
        for i in 0..bs {
            for (k, &bc) in self.blocks.iter().enumerate() {
                let block_row = &self.drawn[(k * bs + i) * bs..][..bs];
                for (j, &v) in block_row.iter().enumerate() {
                    self.out.push(bc * bs + j, v);
                }
            }
            self.out.end_row();
        }
    }

    fn finish(self) -> Csr<T> {
        self.out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varied_blocks_have_degree_variance() {
        let m = block_sparse_varied::<f64>(240, 4, 6, 3);
        let degs: std::collections::BTreeSet<usize> =
            (0..m.rows()).map(|r| m.row_degree(r)).collect();
        assert!(degs.len() > 2, "expected varied degrees, got {degs:?}");
        // Diagonal block is always present.
        for i in 0..m.rows() {
            assert!(m.get(i, (i / 4) * 4).is_some());
        }
        assert_eq!(
            block_sparse_varied::<f64>(240, 4, 6, 3),
            block_sparse_varied::<f64>(240, 4, 6, 3)
        );
    }

    #[test]
    fn block_structure() {
        let m = block_sparse::<f64>(32, 4, 2, 1);
        assert_eq!(m.nnz(), 8 * 2 * 16);
        // Every row inside a block row has the same degree.
        for br in 0..8 {
            let d0 = m.row_degree(br * 4);
            for i in 1..4 {
                assert_eq!(m.row_degree(br * 4 + i), d0);
            }
            assert_eq!(d0, 8); // 2 blocks * 4 wide
        }
    }

    #[test]
    fn diagonal_block_always_present() {
        let m = block_sparse::<f64>(24, 3, 1, 9);
        for i in 0..24 {
            assert!(m.get(i, (i / 3) * 3).is_some());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            block_sparse::<f32>(16, 4, 2, 4),
            block_sparse::<f32>(16, 4, 2, 4)
        );
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_dimension_panics() {
        block_sparse::<f64>(10, 3, 1, 0);
    }
}
