//! Synthetic sparse matrix generators.
//!
//! The paper trains and evaluates SMAT on 2386 matrices from the
//! University of Florida sparse matrix collection. That collection is not
//! bundled here; instead these generators produce seeded, reproducible
//! matrices spanning the same *structural archetypes* the collection
//! covers (see `DESIGN.md` §5 for the substitution argument):
//!
//! * [`stencil`] — PDE discretizations (DIA-friendly, CFD/structural
//!   domains);
//! * [`mod@banded`] — general multi-diagonal matrices with controllable
//!   "true diagonal" ratio;
//! * [`random`] — uniform and fixed-degree random matrices (CSR/ELL
//!   territory);
//! * [`powerlaw`] — scale-free graphs (COO territory, the paper's
//!   small-world observation);
//! * [`block`] — block-sparse matrices (linear programming/optimization
//!   style);
//! * [`corpus`] — a labeled mixture of all of the above standing in for
//!   the UF collection.

pub mod banded;
pub mod block;
pub mod corpus;
#[cfg(test)]
mod oracle;
pub mod powerlaw;
pub mod random;
mod rows;
pub mod stencil;

pub use banded::{banded, tridiagonal};
pub use block::{block_sparse, block_sparse_varied};
pub use corpus::{generate_corpus, Archetype, CorpusEntry, CorpusSpec};
pub use powerlaw::power_law;
pub use random::{fixed_degree, random_skewed, random_uniform};
pub use stencil::{laplacian_1d, laplacian_2d_5pt, laplacian_2d_9pt, laplacian_3d_7pt};
