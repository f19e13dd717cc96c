//! The kernel library: every SpMV / SpMM implementation variant for
//! every format, addressable by `(Op, Format, variant index)`.
//!
//! This is the "large kernel library" of the paper's Figure 4, held the
//! way §5.2 describes it: a table of implementations *tagged by
//! strategy set*. A builtin variant **is** its row — a name and a
//! [`StrategySet`]; the format module's one planned entry point
//! derives the loop from the set, and an [`ExecPlan`] says how it fans
//! out (a serial variant is the one-chunk plan). The offline kernel
//! search ([`crate::search`]) picks one row per format for the host
//! architecture; the runtime then replays it through
//! [`KernelLibrary::run_planned`].
//!
//! **Deletion rule.** A row earns its place by measurement: the
//! `spmv_variants` sweep (`BENCH_kernels.json`) records every variant's
//! closest approach to its format's front over suited matrices ×
//! precisions × thread counts, and a variant that never comes within
//! 10% goes — except row 0 of each table (the containment reference)
//! and the rows the end-to-end benchmark pins by name.

use crate::partition::{default_parts, equal_row_bounds, merge_path_bounds, nnz_balanced_bounds};
pub use crate::plan::ChunkPolicy;
use crate::plan::ExecPlan;
use crate::strategy::{Strategy, StrategySet};
use crate::{bcsr, coo, csr, dia, ell, exec, hyb, spmm};
use serde::{Deserialize, Serialize};
use smat_matrix::{AnyMatrix, Format, Scalar};

/// Signature of a user-registered SpMV kernel: `run(matrix, x, y)`
/// computing `y = A * x`. Builtin variants have no entry point of
/// their own (see the module docs); this is the extension point's.
pub type KernelFn<T> = fn(&AnyMatrix<T>, &[T], &mut [T]);

/// The operation a kernel computes. SpMV and SpMM variants live in
/// separate per-format tables (their signatures differ by the RHS
/// count), but share one id space so the decision cache, health
/// breakers and install artifact address both uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Sparse matrix–vector product `y = A * x`.
    Spmv,
    /// Sparse matrix–multi-vector product `Y = A * X` (k RHS columns).
    Spmm,
}

/// Identifies one kernel implementation: an operation, a format, and
/// the index of a variant within that format's library for that op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KernelId {
    /// Operation the kernel computes.
    pub op: Op,
    /// Storage format the kernel operates on.
    pub format: Format,
    /// Index into [`KernelLibrary::variants`] (or
    /// [`KernelLibrary::spmm_variants`]) for that format.
    pub variant: usize,
}

impl KernelId {
    /// The basic (unoptimized) SpMV kernel of a format — always
    /// variant 0.
    pub fn basic(format: Format) -> Self {
        KernelId {
            op: Op::Spmv,
            format,
            variant: 0,
        }
    }

    /// The basic (column-at-a-time) SpMM kernel of a format — always
    /// variant 0 of the SpMM table.
    pub fn spmm_basic(format: Format) -> Self {
        KernelId {
            op: Op::Spmm,
            format,
            variant: 0,
        }
    }
}

/// Metadata describing one kernel variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelInfo {
    /// Stable human-readable name (e.g. `"csr_parallel_balanced"`).
    pub name: &'static str,
    /// Optimization strategies the variant applies.
    pub strategies: StrategySet,
}

/// Builds table rows from `(name, strategies)` literals — the form the
/// format modules spell their variant tables in.
pub(crate) fn kernel_rows(rows: &[(&'static str, &[Strategy])]) -> Vec<KernelInfo> {
    rows.iter()
        .map(|&(name, strategies)| KernelInfo {
            name,
            strategies: strategies.iter().copied().collect(),
        })
        .collect()
}

/// The complete kernel library for scalar type `T`.
///
/// # Examples
///
/// ```
/// use smat_kernels::KernelLibrary;
/// use smat_matrix::{AnyMatrix, Csr, Format};
///
/// let lib = KernelLibrary::<f64>::new();
/// assert!(lib.variant_count(Format::Csr) >= 4);
///
/// let a = Csr::from_triplets(2, 2, &[(0, 0, 3.0), (1, 1, 4.0)])?;
/// let any = AnyMatrix::Csr(a);
/// let mut y = [0.0; 2];
/// lib.run(&any, 0, &[1.0, 1.0], &mut y);
/// assert_eq!(y, [3.0, 4.0]);
/// # Ok::<(), smat_matrix::MatrixError>(())
/// ```
#[derive(Clone)]
pub struct KernelLibrary<T: Scalar> {
    /// The SpMV table: per [`Format::index`], the ordered rows.
    spmv: [Vec<KernelInfo>; Format::COUNT],
    /// The multi-RHS (SpMM) table: per format, the ordered rows (every
    /// builtin format has a batched tier).
    spmm: [Vec<KernelInfo>; Format::COUNT],
    /// Entry points of the user-registered SpMV rows, per format: they
    /// are the last `registered[f].len()` rows of `spmv[f]`. Only
    /// builtin rows have planned execution paths; registered ones
    /// always dispatch through their raw fn pointer.
    registered: [Vec<KernelFn<T>>; Format::COUNT],
}

impl<T: Scalar> std::fmt::Debug for KernelLibrary<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelLibrary")
            .field("spmv_variants", &self.total_variants())
            .field("spmm_variants", &self.total_spmm_variants())
            .finish()
    }
}

impl<T: Scalar> Default for KernelLibrary<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> KernelLibrary<T> {
    /// Builds the library with every builtin variant.
    pub fn new() -> Self {
        Self {
            spmv: Format::ALL.map(|format| match format {
                Format::Dia => dia::variants(),
                Format::Ell => ell::variants(),
                Format::Csr => csr::variants(),
                Format::Coo => coo::variants(),
                Format::Hyb => hyb::variants(),
                Format::Bcsr2 => bcsr::variants2(),
                Format::Bcsr4 => bcsr::variants4(),
            }),
            spmm: Format::ALL.map(spmm::variants),
            registered: Format::ALL.map(|_| Vec::new()),
        }
    }

    /// The ordered rows of one `(op, format)` table, indexed by variant
    /// id.
    pub fn table(&self, op: Op, format: Format) -> &[KernelInfo] {
        match op {
            Op::Spmv => &self.spmv[format.index()],
            Op::Spmm => &self.spmm[format.index()],
        }
    }

    /// The raw entry point behind SpMV row `variant` of `format`, when
    /// that row is a user-registered extension rather than a builtin.
    fn registered_fn(&self, format: Format, variant: usize) -> Option<KernelFn<T>> {
        let extra = &self.registered[format.index()];
        let builtin = self.spmv[format.index()].len() - extra.len();
        variant.checked_sub(builtin).map(|i| extra[i])
    }

    /// Number of implementation variants for `format`.
    pub fn variant_count(&self, format: Format) -> usize {
        self.variants(format).len()
    }

    /// Total number of implementations across all formats (the paper
    /// reports "up to 24 in current SMAT system").
    pub fn total_variants(&self) -> usize {
        self.spmv.iter().map(Vec::len).sum()
    }

    /// Number of SpMM (multi-RHS) variants for `format`.
    pub fn spmm_variant_count(&self, format: Format) -> usize {
        self.spmm_variants(format).len()
    }

    /// Total number of SpMM implementations across all formats.
    pub fn total_spmm_variants(&self) -> usize {
        self.spmm.iter().map(Vec::len).sum()
    }

    /// Metadata for every SpMM variant of `format`, indexed by variant
    /// id.
    pub fn spmm_variants(&self, format: Format) -> &[KernelInfo] {
        self.table(Op::Spmm, format)
    }

    /// Metadata for every variant of `format`, indexed by variant id.
    pub fn variants(&self, format: Format) -> &[KernelInfo] {
        self.table(Op::Spmv, format)
    }

    /// Metadata for a specific kernel, dispatching on the id's op so
    /// SpMM ids resolve names like SpMV ids do (health reports, the
    /// serve daemon's kernel field).
    ///
    /// # Panics
    ///
    /// Panics if the variant index is out of range.
    pub fn info(&self, id: KernelId) -> KernelInfo {
        self.table(id.op, id.format)[id.variant]
    }

    /// FNV-1a digest of the ordered `(op, format, name)` rows — the
    /// identity of the variant numbering. Persisted state addresses
    /// kernels by raw index, so artifacts are stamped with this digest
    /// and refused when it differs: adding, deleting or reordering a
    /// row changes it, and no schema bump is needed for that.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (op, tables) in [(b"spmv", &self.spmv), (b"spmm", &self.spmm)] {
            for (format, rows) in Format::ALL.into_iter().zip(tables) {
                for row in rows {
                    eat(op);
                    eat(format.name().as_bytes());
                    eat(row.name.as_bytes());
                    eat(&[0]);
                }
            }
        }
        hash
    }

    /// Registers an additional SpMV kernel variant for `format`,
    /// returning its id.
    ///
    /// Extension point for the paper's "add new kernels" claim and for
    /// fault-injection tests; the new variant participates in the
    /// guarded search like any built-in one, dispatched through its raw
    /// fn pointer (it is handed whatever [`AnyMatrix`] the caller runs
    /// it on — always one of `format`).
    pub fn register(
        &mut self,
        format: Format,
        name: &'static str,
        strategies: StrategySet,
        f: KernelFn<T>,
    ) -> KernelId {
        let rows = &mut self.spmv[format.index()];
        rows.push(KernelInfo { name, strategies });
        self.registered[format.index()].push(f);
        KernelId {
            op: Op::Spmv,
            format,
            variant: rows.len() - 1,
        }
    }

    /// Runs variant `variant` of the matrix's own format under its
    /// default plan: `y = A * x`. Convenience for one-off calls — it
    /// partitions and allocates per call; anything repeated or timed
    /// builds the plan once ([`plan_for`](Self::plan_for)) and replays
    /// it through [`run_planned`](Self::run_planned).
    ///
    /// # Panics
    ///
    /// Panics if `variant` is out of range for the matrix's format or if
    /// the vector lengths do not match the matrix dimensions.
    pub fn run(&self, m: &AnyMatrix<T>, variant: usize, x: &[T], y: &mut [T]) {
        let id = KernelId {
            op: Op::Spmv,
            format: m.format(),
            variant,
        };
        self.run_planned(m, variant, &self.plan_for(m, id), x, y);
    }

    /// Classifies how kernel `id` partitions `m` — the memoizable
    /// "shape" of its [`ExecPlan`]. Two kernels with the same policy
    /// (at the same thread count) share identical plans, which is what
    /// lets [`Planner`] reuse bounds across a whole variant sweep.
    ///
    /// Variants without the `Parallel` strategy, user-registered
    /// variants and mismatched format/matrix pairings are serial.
    ///
    /// # Panics
    ///
    /// Panics if `id.variant` is out of range for `id.format`.
    pub fn chunk_policy(&self, m: &AnyMatrix<T>, id: KernelId) -> ChunkPolicy {
        let s = self.table(id.op, id.format)[id.variant].strategies;
        let registered = id.op == Op::Spmv && self.registered_fn(id.format, id.variant).is_some();
        if registered || id.format != m.format() || !s.contains(Strategy::Parallel) {
            return ChunkPolicy::Serial;
        }
        match m {
            AnyMatrix::Csr(_) if s.contains(Strategy::Merge) => ChunkPolicy::MergePath,
            AnyMatrix::Csr(_) if s.contains(Strategy::Balance) => ChunkPolicy::NnzBalanced,
            AnyMatrix::Coo(_) => ChunkPolicy::EntryAligned,
            AnyMatrix::Bcsr2(m) | AnyMatrix::Bcsr4(m) => ChunkPolicy::BlockAligned(m.br()),
            _ => ChunkPolicy::EqualRows,
        }
    }

    /// Materializes the [`ExecPlan`] for a given chunk policy on `m`.
    ///
    /// Policies that don't apply to the matrix's physical format (for
    /// example [`ChunkPolicy::NnzBalanced`] on a non-CSR matrix) fall
    /// back to equal row chunks, so a stale policy can never produce
    /// bounds that fail validation.
    pub fn build_plan(&self, m: &AnyMatrix<T>, policy: ChunkPolicy) -> ExecPlan {
        self.build_plan_sized(m, policy, default_parts())
    }

    /// [`build_plan`](Self::build_plan) with an explicit chunk count —
    /// the fan-out width is a searched dimension (see
    /// [`crate::search::search_plan`]), so callers can size a plan
    /// narrower or wider than the backend default.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0` and the policy is not serial.
    pub fn build_plan_sized(
        &self,
        m: &AnyMatrix<T>,
        policy: ChunkPolicy,
        parts: usize,
    ) -> ExecPlan {
        let rows = m.rows();
        if policy == ChunkPolicy::Serial {
            return ExecPlan::serial(rows);
        }
        match (policy, m) {
            (ChunkPolicy::NnzBalanced, AnyMatrix::Csr(m)) => {
                ExecPlan::chunked(policy, nnz_balanced_bounds(m, parts), None)
            }
            (ChunkPolicy::MergePath, AnyMatrix::Csr(m)) => {
                let (entry_bounds, bounds) = merge_path_bounds(m, parts);
                ExecPlan::chunked(policy, bounds, Some(entry_bounds))
            }
            (ChunkPolicy::EntryAligned, AnyMatrix::Coo(m)) => {
                let (entry_bounds, bounds) = coo::row_aligned_chunks(m, parts);
                ExecPlan::chunked(policy, bounds, Some(entry_bounds))
            }
            (ChunkPolicy::BlockAligned(_), AnyMatrix::Bcsr2(m) | AnyMatrix::Bcsr4(m)) => {
                ExecPlan::chunked(policy, bcsr::block_aligned_bounds(m, parts), None)
            }
            // Policies that don't apply to the physical format fall
            // back to equal rows; record what was actually built.
            _ => ExecPlan::chunked(ChunkPolicy::EqualRows, equal_row_bounds(rows, parts), None),
        }
    }

    /// Builds the default execution plan for running kernel `id` on
    /// `m`: its [`chunk_policy`](Self::chunk_policy) at the backend's
    /// default fan-out width, frozen once and replayed on every call.
    ///
    /// Serial variants, user-registered variants and mismatched
    /// format/matrix pairings get the trivial single-chunk plan.
    ///
    /// When planning many variants for one matrix (e.g. during
    /// `prepare()`), use a [`Planner`] to avoid recomputing identical
    /// bounds.
    ///
    /// # Panics
    ///
    /// Panics if `id.variant` is out of range for `id.format`.
    pub fn plan_for(&self, m: &AnyMatrix<T>, id: KernelId) -> ExecPlan {
        self.build_plan(m, self.chunk_policy(m, id))
    }

    /// Runs variant `variant` with a precomputed [`ExecPlan`] — the
    /// zero-allocation steady-state dispatch, and the one execution
    /// path: what the search times is what the engine serves.
    ///
    /// A builtin variant runs its format's planned entry point with the
    /// row's strategy set over the plan's frozen chunk bounds; a
    /// user-registered variant runs its raw fn pointer and ignores the
    /// plan.
    ///
    /// # Panics
    ///
    /// Panics if `variant` is out of range, the vector lengths mismatch
    /// the matrix, or the plan's row bounds don't cover `y`.
    pub fn run_planned(
        &self,
        m: &AnyMatrix<T>,
        variant: usize,
        plan: &ExecPlan,
        x: &[T],
        y: &mut [T],
    ) {
        if let Some(f) = self.registered_fn(m.format(), variant) {
            return f(m, x, y);
        }
        let s = self.variants(m.format())[variant].strategies;
        match m {
            AnyMatrix::Csr(m) => csr::run(m, x, y, plan, s),
            AnyMatrix::Coo(m) => coo::run(m, x, y, plan, s),
            AnyMatrix::Dia(m) => dia::run(m, x, y, plan, s),
            AnyMatrix::Ell(m) => ell::run(m, x, y, plan, s),
            AnyMatrix::Hyb(m) => hyb::run(m, x, y, plan, s),
            AnyMatrix::Bcsr2(m) | AnyMatrix::Bcsr4(m) => bcsr::run(m, x, y, plan, s),
        }
    }

    /// Runs SpMM variant `variant` of the matrix's own format under its
    /// default plan: `Y = A * X` for `k` row-major RHS columns. Like
    /// [`run`](Self::run), a convenience that plans per call.
    ///
    /// # Panics
    ///
    /// Panics if `variant` is out of range or the buffer lengths don't
    /// equal `cols * k` / `rows * k`.
    pub fn run_spmm(&self, m: &AnyMatrix<T>, variant: usize, x: &[T], y: &mut [T], k: usize) {
        let id = KernelId {
            op: Op::Spmm,
            format: m.format(),
            variant,
        };
        self.run_spmm_planned(m, variant, &self.plan_for(m, id), x, y, k);
    }

    /// Runs an SpMM variant with a precomputed [`ExecPlan`] — the
    /// zero-allocation steady-state dispatch for the batched tier.
    ///
    /// # Panics
    ///
    /// Same conditions as [`run_spmm`](Self::run_spmm), plus malformed
    /// plan bounds.
    pub fn run_spmm_planned(
        &self,
        m: &AnyMatrix<T>,
        variant: usize,
        plan: &ExecPlan,
        x: &[T],
        y: &mut [T],
        k: usize,
    ) {
        let s = self.spmm_variants(m.format())[variant].strategies;
        match m {
            AnyMatrix::Csr(m) => spmm::run_csr(m, x, y, k, plan, s),
            AnyMatrix::Coo(m) => spmm::run_coo(m, x, y, k, plan, s),
            AnyMatrix::Dia(m) => spmm::run_dia(m, x, y, k, plan, s),
            AnyMatrix::Ell(m) => spmm::run_ell(m, x, y, k, plan, s),
            AnyMatrix::Hyb(m) => spmm::run_hyb(m, x, y, k, plan, s),
            AnyMatrix::Bcsr2(m) | AnyMatrix::Bcsr4(m) => spmm::run_bcsr(m, x, y, k, plan, s),
        }
    }
}

/// Memoizes [`ExecPlan`]s by ([`ChunkPolicy`], thread count) for one
/// matrix.
///
/// A variant sweep would otherwise recompute the same equal-row bounds
/// once per parallel row; the planner computes each distinct partition
/// once and clones it afterwards. Scope a planner to a single matrix —
/// the cache key does not include the matrix identity — or to one
/// matrix's conversions: every policy is either shape-only (equal
/// rows) or applies to a single format.
#[derive(Debug, Default)]
pub struct Planner {
    cache: Vec<(ChunkPolicy, usize, ExecPlan)>,
    computed: usize,
}

impl Planner {
    /// Creates an empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Memoized equivalent of [`KernelLibrary::plan_for`].
    ///
    /// # Panics
    ///
    /// Panics if `id.variant` is out of range for `id.format`.
    pub fn plan_for<T: Scalar>(
        &mut self,
        lib: &KernelLibrary<T>,
        m: &AnyMatrix<T>,
        id: KernelId,
    ) -> ExecPlan {
        let policy = lib.chunk_policy(m, id);
        let threads = exec::num_threads();
        if let Some((_, _, plan)) = self
            .cache
            .iter()
            .find(|(p, t, _)| *p == policy && *t == threads)
        {
            return plan.clone();
        }
        let plan = lib.build_plan(m, policy);
        self.computed += 1;
        self.cache.push((policy, threads, plan.clone()));
        plan
    }

    /// How many plans were actually computed (cache misses).
    pub fn computed(&self) -> usize {
        self.computed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::gen::random_uniform;
    use smat_matrix::utils::max_abs_diff;

    /// What §5.2's scoreboard needs of every `(op, format)` table:
    /// names and strategy sets unique, row 0 the basic kernel, and every
    /// strategy used somewhere is the added strategy of at least one
    /// one-less pair — otherwise no measurement could ever score it.
    #[test]
    fn every_table_is_scoreable() {
        use std::collections::HashSet;
        let lib = KernelLibrary::<f64>::new();
        for op in [Op::Spmv, Op::Spmm] {
            for f in Format::ALL {
                let rows = lib.table(op, f);
                assert!(
                    rows[0].strategies.is_empty(),
                    "{op:?} {f}: row 0 must be basic"
                );
                let names: HashSet<_> = rows.iter().map(|r| r.name).collect();
                assert_eq!(names.len(), rows.len(), "{op:?} {f}: names not unique");
                let sets: HashSet<_> = rows.iter().map(|r| r.strategies).collect();
                assert_eq!(
                    sets.len(),
                    rows.len(),
                    "{op:?} {f}: strategy sets not unique"
                );
                let scoreable: HashSet<Strategy> = rows
                    .iter()
                    .flat_map(|a| rows.iter().map(move |b| (a, b)))
                    .filter_map(|(a, b)| a.strategies.added_strategy(b.strategies))
                    .collect();
                for row in rows {
                    for s in row.strategies.iter() {
                        assert!(
                            scoreable.contains(&s),
                            "{op:?} {f}: no one-less pair scores {s} (used by {})",
                            row.name
                        );
                    }
                }
            }
        }
        assert_eq!(lib.total_variants(), 29);
        assert_eq!(lib.total_spmm_variants(), 23);
        // One tile width: every SpMM row but the column-at-a-time row 0
        // tiles along the 8-4-2-1 ladder.
        for f in Format::ALL {
            for row in &lib.spmm_variants(f)[1..] {
                assert!(row.strategies.contains(Strategy::Tile8), "{}", row.name);
            }
        }
        let id = KernelId::spmm_basic(Format::Csr);
        assert_eq!(id.op, Op::Spmm);
        assert_eq!(lib.info(id).name, "csr_spmm_basic");
    }

    /// Every kernel the end-to-end benchmark pins by name must resolve
    /// in this library — otherwise only an e2e run (exit 2) notices.
    #[test]
    fn e2e_pinned_kernels_resolve() {
        let lib = KernelLibrary::<f64>::new();
        let rows = |text: &'static str| {
            text.lines()
                .map(|line| line.split('#').next().unwrap_or("").trim())
                .filter(|line| !line.is_empty())
                .map(|line| line.split_whitespace().collect::<Vec<_>>())
        };
        let resolves = |format: &str, kernel: &str| {
            let format = Format::ALL
                .into_iter()
                .find(|f| f.name() == format)
                .unwrap_or_else(|| panic!("unknown format {format}"));
            assert!(
                lib.variants(format).iter().any(|v| v.name == kernel),
                "{format} has no variant named {kernel}"
            );
        };
        let mut pinned = 0;
        for fields in rows(include_str!("../../../e2e/fixtures/kernel_choice.txt")) {
            resolves(fields[0], fields[1]);
            pinned += 1;
        }
        assert_eq!(pinned, Format::COUNT, "one pinned kernel per format");
        for fields in rows(include_str!("../../../e2e/fixtures/expected_decisions.txt")) {
            if fields[1] != "off_path" {
                resolves(fields[1], fields[2]);
            }
        }
    }

    #[test]
    fn digest_tracks_the_row_order() {
        let lib = KernelLibrary::<f64>::new();
        assert_eq!(lib.digest(), KernelLibrary::<f32>::new().digest());
        let mut grown = KernelLibrary::<f64>::new();
        grown.register(Format::Csr, "csr_extra", StrategySet::EMPTY, |m, x, y| {
            m.spmv(x, y).expect("sized vectors");
        });
        assert_ne!(
            grown.digest(),
            lib.digest(),
            "a new row renumbers nothing yet must show"
        );
        let mut reordered = KernelLibrary::<f64>::new();
        reordered.spmv[Format::Csr.index()].swap(1, 2);
        assert_ne!(reordered.digest(), lib.digest());
    }

    #[test]
    fn run_dispatches_every_format_and_variant() {
        let lib = KernelLibrary::<f64>::new();
        let csr = random_uniform::<f64>(120, 100, 6, 3);
        let x: Vec<f64> = (0..100).map(|i| (i as f64).sqrt()).collect();
        let mut expect = vec![0.0; 120];
        csr.spmv(&x, &mut expect).unwrap();
        for f in Format::ALL {
            // Unlimited conversion limits: the scattered random pattern
            // would trip the BCSR fill-ratio guard under defaults.
            let any = AnyMatrix::convert_from_csr_with(
                &csr,
                f,
                &smat_matrix::ConversionLimits::unlimited(),
            )
            .unwrap();
            for v in 0..lib.variant_count(f) {
                let mut y = vec![f64::NAN; 120];
                lib.run(&any, v, &x, &mut y);
                assert!(
                    max_abs_diff(&y, &expect) < 1e-12,
                    "{} variant {v}",
                    f.name()
                );
            }
        }
    }

    #[test]
    fn kernel_id_basic() {
        let id = KernelId::basic(Format::Ell);
        assert_eq!(id.variant, 0);
        let lib = KernelLibrary::<f32>::new();
        assert_eq!(lib.info(id).name, "ell_basic");
    }

    #[test]
    fn registered_variants_dispatch_like_builtins() {
        let mut lib = KernelLibrary::<f64>::new();
        let before = lib.variant_count(Format::Csr);
        let id = lib.register(
            Format::Csr,
            "csr_double",
            StrategySet::default(),
            |m, x, y| {
                m.spmv(x, y).expect("sized vectors");
                for v in y.iter_mut() {
                    *v *= 2.0;
                }
            },
        );
        assert_eq!(id.format, Format::Csr);
        assert_eq!(id.variant, before);
        assert_eq!(lib.variant_count(Format::Csr), before + 1);
        assert_eq!(lib.info(id).name, "csr_double");
        let csr = random_uniform::<f64>(30, 30, 3, 5);
        let x = vec![1.0; 30];
        let mut expect = vec![0.0; 30];
        csr.spmv(&x, &mut expect).unwrap();
        let mut y = vec![0.0; 30];
        lib.run(&AnyMatrix::Csr(csr), id.variant, &x, &mut y);
        for (a, b) in y.iter().zip(&expect) {
            assert!((a - 2.0 * b).abs() < 1e-12);
        }
        // Every format registers through the same entry point.
        for f in Format::ALL {
            let id = lib.register(f, "extra", StrategySet::default(), |m, x, y| {
                m.spmv(x, y).expect("sized vectors");
            });
            assert_eq!((id.format, id.variant), (f, lib.variant_count(f) - 1));
        }
    }

    #[test]
    fn planner_memoizes_by_policy() {
        let lib = KernelLibrary::<f64>::new();
        let csr = random_uniform::<f64>(64, 64, 4, 9);
        let any = AnyMatrix::Csr(csr);
        let mut planner = Planner::new();
        let mut distinct = std::collections::HashSet::new();
        for v in 0..lib.variant_count(Format::Csr) {
            let id = KernelId {
                op: Op::Spmv,
                format: Format::Csr,
                variant: v,
            };
            let plan = planner.plan_for(&lib, &any, id);
            let direct = lib.plan_for(&any, id);
            assert_eq!(plan.bounds, direct.bounds, "variant {v}");
            distinct.insert(lib.chunk_policy(&any, id));
        }
        // One computation per distinct policy, not per variant.
        assert_eq!(planner.computed(), distinct.len());
        assert!(planner.computed() < lib.variant_count(Format::Csr));
    }

    #[test]
    fn bcsr_plans_are_block_aligned() {
        let lib = KernelLibrary::<f64>::new();
        let csr = random_uniform::<f64>(130, 130, 5, 11);
        for f in [Format::Bcsr2, Format::Bcsr4] {
            let any = AnyMatrix::convert_from_csr_with(
                &csr,
                f,
                &smat_matrix::ConversionLimits::unlimited(),
            )
            .unwrap();
            let br = if f == Format::Bcsr2 { 2 } else { 4 };
            for v in 0..lib.variant_count(f) {
                let id = KernelId {
                    op: Op::Spmv,
                    format: f,
                    variant: v,
                };
                let plan = lib.plan_for(&any, id);
                for &b in &plan.bounds {
                    assert!(
                        b % br == 0 || b == 130,
                        "{f} variant {v}: bound {b} not aligned to {br}"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_variant_plans_carry_entry_bounds() {
        let lib = KernelLibrary::<f64>::new();
        let v = lib
            .variants(Format::Csr)
            .iter()
            .position(|i| i.name == "csr_merge")
            .expect("csr_merge registered");
        let m = smat_matrix::gen::power_law::<f64>(600, 150, 2.0, 7);
        let any = AnyMatrix::Csr(m);
        let id = KernelId {
            op: Op::Spmv,
            format: Format::Csr,
            variant: v,
        };
        assert_eq!(lib.chunk_policy(&any, id), ChunkPolicy::MergePath);
        let plan = lib.plan_for(&any, id);
        assert_eq!(plan.policy, ChunkPolicy::MergePath);
        let eb = plan
            .entry_bounds
            .as_ref()
            .expect("merge plans carry entry bounds");
        assert_eq!(eb.len(), plan.bounds.len());
        // Planned dispatch through the registry replays deterministically.
        let csr = match &any {
            AnyMatrix::Csr(m) => m,
            _ => unreachable!(),
        };
        let x: Vec<f64> = (0..csr.cols()).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut y1 = vec![f64::NAN; csr.rows()];
        let mut y2 = vec![f64::NAN; csr.rows()];
        lib.run_planned(&any, v, &plan, &x, &mut y1);
        lib.run_planned(&any, v, &plan, &x, &mut y2);
        assert!(
            y1.iter().zip(&y2).all(|(a, b)| a == b),
            "replay not bit-stable"
        );
    }

    #[test]
    fn sized_plans_honor_the_requested_width() {
        let lib = KernelLibrary::<f64>::new();
        let m = random_uniform::<f64>(256, 256, 8, 13);
        let any = AnyMatrix::Csr(m);
        for parts in [1usize, 2, 4] {
            for policy in [
                ChunkPolicy::EqualRows,
                ChunkPolicy::NnzBalanced,
                ChunkPolicy::MergePath,
            ] {
                let plan = lib.build_plan_sized(&any, policy, parts);
                assert!(plan.chunks() <= parts, "{policy:?} @ {parts}");
                assert!(plan.chunks() >= 1);
            }
        }
    }

    #[test]
    fn debug_impl_is_nonempty() {
        let lib = KernelLibrary::<f32>::new();
        assert!(format!("{lib:?}").contains("spmv_variants"));
    }

    #[test]
    fn run_spmm_matches_per_column_spmv() {
        let lib = KernelLibrary::<f64>::new();
        let csr = random_uniform::<f64>(90, 70, 5, 3);
        let k = 5usize;
        let x: Vec<f64> = (0..70 * k)
            .map(|i| 0.25 * ((i % 11) as f64) - 0.5)
            .collect();
        for f in Format::ALL {
            let any = AnyMatrix::convert_from_csr_with(
                &csr,
                f,
                &smat_matrix::ConversionLimits::unlimited(),
            )
            .unwrap();
            let mut expect = vec![0.0; 90 * k];
            for j in 0..k {
                let xj: Vec<f64> = (0..70).map(|c| x[c * k + j]).collect();
                let mut yj = vec![0.0; 90];
                lib.run(&any, 0, &xj, &mut yj);
                for r in 0..90 {
                    expect[r * k + j] = yj[r];
                }
            }
            for v in 0..lib.spmm_variant_count(f) {
                let mut y = vec![f64::NAN; 90 * k];
                lib.run_spmm(&any, v, &x, &mut y, k);
                assert!(
                    max_abs_diff(&y, &expect) < 1e-12,
                    "{f} spmm variant {v} diverges"
                );
            }
        }
    }

    #[test]
    fn spmm_planned_dispatch_replays_bitwise() {
        let lib = KernelLibrary::<f64>::new();
        let m = smat_matrix::gen::power_law::<f64>(400, 120, 2.0, 7);
        let any = AnyMatrix::Csr(m);
        let k = 6usize;
        let x: Vec<f64> = (0..400 * k).map(|i| (i as f64 * 0.13).sin()).collect();
        for v in 0..lib.spmm_variant_count(Format::Csr) {
            let id = KernelId {
                op: Op::Spmm,
                format: Format::Csr,
                variant: v,
            };
            let plan = lib.plan_for(&any, id);
            let mut y1 = vec![f64::NAN; 400 * k];
            let mut y2 = vec![f64::NAN; 400 * k];
            lib.run_spmm_planned(&any, v, &plan, &x, &mut y1, k);
            lib.run_spmm_planned(&any, v, &plan, &x, &mut y2, k);
            assert!(
                y1.iter().zip(&y2).all(|(a, b)| a == b),
                "spmm variant {v} replay not bit-stable"
            );
        }
    }
}
