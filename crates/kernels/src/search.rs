//! Offline kernel search: the performance-record table and scoreboard
//! algorithm of the paper's §5.2.
//!
//! For each format, every implementation variant is executed on a probe
//! matrix and its throughput recorded. The scoreboard then scores each
//! *optimization strategy* by comparing implementation pairs that differ
//! in exactly that strategy (+1 if it helped, -1 if it hurt, neglected
//! when the gap is below [`NO_EFFECT_GAP`] GFLOPS), scores each
//! *implementation* as the sum of its strategies' scores, and selects the
//! highest-scoring implementation per format.

use crate::plan::{ChunkPolicy, ExecPlan};
use crate::registry::{KernelId, KernelLibrary, Op, Planner};
use crate::strategy::{Strategy, StrategySet};
use crate::timing::{decide, gflops, measure_round_robin, MeasureOutcome};
use serde::{Deserialize, Serialize};
use smat_matrix::{AnyMatrix, Format, Scalar};
use std::time::Duration;

/// Performance gap (GFLOPS) below which a strategy is considered to have
/// no effect — the paper's 0.01 threshold.
pub const NO_EFFECT_GAP: f64 = 0.01;

/// Whether a perf-table row holds a real measurement or records a
/// candidate that failed inside the guarded harness.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecordStatus {
    /// The variant ran to completion and `gflops` is meaningful.
    #[default]
    Measured,
    /// The variant panicked or blew its deadline; it is excluded from
    /// the scoreboard and can never be selected.
    CandidateFailed {
        /// Human-readable failure description from the harness.
        reason: String,
    },
}

/// One row of the performance record table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfRecord {
    /// Kernel variant name.
    pub name: String,
    /// Strategies the variant applies.
    pub strategies: StrategySet,
    /// Measured throughput on the probe matrix (0 for failed variants).
    pub gflops: f64,
    /// Measurement vs. failure marker.
    pub status: RecordStatus,
}

impl PerfRecord {
    /// Whether this row holds a real measurement.
    pub fn is_measured(&self) -> bool {
        self.status == RecordStatus::Measured
    }
}

/// The performance record table for one format on one probe matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfTable {
    /// The format whose variants were measured.
    pub format: Format,
    /// One record per variant, indexed like the kernel library.
    pub records: Vec<PerfRecord>,
}

impl PerfTable {
    /// The scoreboard algorithm: returns each strategy's score and the
    /// winning variant index.
    ///
    /// For every pair of implementations whose strategy sets differ by
    /// exactly one strategy, that strategy is credited +1 when the larger
    /// set is faster, -1 when slower, 0 when within [`NO_EFFECT_GAP`].
    /// Implementation score = sum of scores of its strategies; ties break
    /// toward measured throughput.
    pub fn scoreboard(&self) -> Scoreboard {
        let mut scores: Vec<(Strategy, i32)> = Strategy::ALL.into_iter().map(|s| (s, 0)).collect();
        for (i, a) in self.records.iter().enumerate() {
            if !a.is_measured() {
                continue;
            }
            for b in &self.records[i..] {
                if !b.is_measured() {
                    continue;
                }
                let (less, more) = if a.strategies.is_one_less_than(b.strategies) {
                    (a, b)
                } else if b.strategies.is_one_less_than(a.strategies) {
                    (b, a)
                } else {
                    continue;
                };
                let added = less
                    .strategies
                    .added_strategy(more.strategies)
                    .expect("one-less pair has an added strategy");
                let gap = more.gflops - less.gflops;
                let delta = if gap.abs() < NO_EFFECT_GAP {
                    0
                } else if gap > 0.0 {
                    1
                } else {
                    -1
                };
                if let Some(e) = scores.iter_mut().find(|e| e.0 == added) {
                    e.1 += delta;
                }
            }
        }
        // Score each implementation.
        let strategy_score = |set: StrategySet| -> i32 {
            set.iter()
                .map(|s| scores.iter().find(|e| e.0 == s).map_or(0, |e| e.1))
                .sum()
        };
        let mut best = 0usize;
        let mut best_key = (i32::MIN, f64::MIN);
        let mut impl_scores = Vec::with_capacity(self.records.len());
        for (v, rec) in self.records.iter().enumerate() {
            let s = strategy_score(rec.strategies);
            impl_scores.push(s);
            // A failed variant keeps its slot in impl_scores (indices
            // stay aligned with the library) but can never be selected.
            if rec.is_measured() && (s, rec.gflops) > best_key {
                best_key = (s, rec.gflops);
                best = v;
            }
        }
        Scoreboard {
            strategy_scores: scores,
            impl_scores,
            best_variant: best,
        }
    }

    /// The variant with the highest measured throughput (exhaustive
    /// search's answer, used in tests to sanity-check the scoreboard).
    pub fn fastest_variant(&self) -> usize {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_measured())
            .max_by(|a, b| a.1.gflops.total_cmp(&b.1.gflops))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Rows that failed inside the guarded harness, as
    /// `(variant index, name, reason)`.
    pub fn failures(&self) -> Vec<(usize, &str, &str)> {
        self.records
            .iter()
            .enumerate()
            .filter_map(|(v, r)| match &r.status {
                RecordStatus::Measured => None,
                RecordStatus::CandidateFailed { reason } => {
                    Some((v, r.name.as_str(), reason.as_str()))
                }
            })
            .collect()
    }
}

/// Result of [`PerfTable::scoreboard`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scoreboard {
    /// Score accumulated by each optimization strategy.
    pub strategy_scores: Vec<(Strategy, i32)>,
    /// Score of each implementation (same indexing as the perf table).
    pub impl_scores: Vec<i32>,
    /// Index of the selected implementation.
    pub best_variant: usize,
}

/// Per-format kernel selection, one scoreboard winner
/// ([`measure_format`]) per format: the "optimal kernel" box of the
/// paper's Figure 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelChoice {
    /// Chosen variant index per format, indexed by [`Format::index`].
    pub variant: [usize; Format::COUNT],
}

impl KernelChoice {
    /// The basic implementation for every format (no tuning).
    pub fn basic() -> Self {
        KernelChoice {
            variant: [0; Format::COUNT],
        }
    }

    /// The chosen kernel for `format`.
    pub fn kernel(&self, format: Format) -> KernelId {
        KernelId {
            op: Op::Spmv,
            format,
            variant: self.variant[format.index()],
        }
    }

    /// Sets the chosen variant for `format`.
    pub fn set(&mut self, format: Format, variant: usize) {
        self.variant[format.index()] = variant;
    }
}

/// Default per-candidate deadline, for callers that have no configured
/// deadline of their own.
pub const DEFAULT_CANDIDATE_DEADLINE: Duration = Duration::from_secs(2);

/// Measures every variant of `format` on the probe matrix and returns the
/// performance record table.
///
/// `budget` is the sampling time each variant buys, with the variants'
/// samples interleaved ([`measure_round_robin`]); `deadline` is the hard
/// per-variant cap. Every kernel invocation runs inside the estimator's
/// `catch_unwind`, so a panicking or over-deadline variant is recorded
/// as [`RecordStatus::CandidateFailed`] rather than aborting the search.
///
/// `excluded` is a quarantine set: the variants it lists are never
/// executed — their rows are recorded as
/// [`RecordStatus::CandidateFailed`] with reason `"quarantined"`, so
/// the scoreboard treats them exactly like a variant that failed in the
/// harness (excluded from strategy pairing and from selection).
pub fn measure_format<T: Scalar>(
    lib: &KernelLibrary<T>,
    probe: &AnyMatrix<T>,
    budget: Duration,
    deadline: Duration,
    excluded: &[KernelId],
) -> PerfTable {
    measure_table(lib, probe, Op::Spmv, 1, budget, deadline, excluded)
}

/// The performance-record table of one `(op, format)` at RHS width `k`:
/// every row of the library's table measured together, each through its
/// default plan — built here, once per candidate and outside the timed
/// closure, so the search times exactly the planned dispatch the engine
/// serves. Excluded rows are recorded as failed with reason
/// `"quarantined"` without running.
fn measure_table<T: Scalar>(
    lib: &KernelLibrary<T>,
    probe: &AnyMatrix<T>,
    op: Op,
    k: usize,
    budget: Duration,
    deadline: Duration,
    excluded: &[KernelId],
) -> PerfTable {
    let x = vec![T::ONE; probe.cols() * k];
    let mut y = vec![T::ZERO; probe.rows() * k];
    let format = probe.format();
    let rows = lib.table(op, format);
    let mut planner = Planner::new();
    let live: Vec<(usize, ExecPlan)> = (0..rows.len())
        .map(|variant| KernelId {
            op,
            format,
            variant,
        })
        .filter(|id| !excluded.contains(id))
        .map(|id| (id.variant, planner.plan_for(lib, probe, id)))
        .collect();
    let outcomes = measure_round_robin(
        live.len(),
        |i| {
            let (v, plan) = (live[i].0, &live[i].1);
            match op {
                Op::Spmv => lib.run_planned(probe, v, plan, &x, &mut y),
                Op::Spmm => lib.run_spmm_planned(probe, v, plan, &x, &mut y, k),
            }
        },
        3..=64,
        budget,
        deadline,
        None,
    );
    let mut measured = live.iter().map(|&(v, _)| v).zip(outcomes).peekable();
    let records = rows
        .iter()
        .enumerate()
        .map(|(variant, info)| {
            let (gflops, status) = match measured.next_if(|(v, _)| *v == variant) {
                None => {
                    let reason = "quarantined".into();
                    (0.0, RecordStatus::CandidateFailed { reason })
                }
                Some((_, MeasureOutcome::Ok { floor, .. })) => {
                    (gflops(probe.nnz() * k, floor), RecordStatus::Measured)
                }
                Some((_, failed)) => {
                    let reason = failed.failure().unwrap_or_default();
                    (0.0, RecordStatus::CandidateFailed { reason })
                }
            };
            PerfRecord {
                name: info.name.to_string(),
                strategies: info.strategies,
                gflops,
                status,
            }
        })
        .collect();
    PerfTable { format, records }
}

/// Measures every SpMM variant of the probe's format at RHS batch width
/// `k` and returns the performance record table. The mirror of
/// [`measure_format`] for the batched tier, `excluded` included:
/// throughput counts `2 * nnz * k` flops per call and rows index the
/// library's SpMM tables.
pub fn measure_spmm<T: Scalar>(
    lib: &KernelLibrary<T>,
    probe: &AnyMatrix<T>,
    k: usize,
    budget: Duration,
    deadline: Duration,
    excluded: &[KernelId],
) -> PerfTable {
    measure_table(lib, probe, Op::Spmm, k, budget, deadline, excluded)
}

/// One measured (chunk policy, fan-out width) candidate from
/// [`search_plan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSample {
    /// Partitioning policy the candidate plan was built with.
    pub policy: ChunkPolicy,
    /// Requested fan-out width (chunk count before policy clamping).
    pub parts: usize,
    /// Chunks the plan actually produced.
    pub chunks: usize,
    /// Measured throughput replaying the candidate plan.
    pub gflops: f64,
}

/// Result of [`search_plan`]: the winning plan plus every candidate
/// measurement, so callers (the CLI's variant table, bench artifacts)
/// can show the whole searched grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSearch {
    /// The winning plan, ready to cache and replay.
    pub plan: ExecPlan,
    /// Index of the winning sample in `samples`.
    pub best: usize,
    /// All successfully measured candidates, in search order.
    pub samples: Vec<PlanSample>,
}

/// Searches the *plan* dimensions — chunk policy and fan-out width —
/// for one already-chosen kernel, extending the paper's scoreboard
/// (which searches implementations) to the partitioning decisions the
/// implementations replay.
///
/// Candidate policies depend on the kernel: merge-path kernels only
/// re-size their entry split, while plain row-chunk CSR kernels race
/// `EqualRows` against `NnzBalanced` (both replay through the same
/// planned dispatch, so the policy is interchangeable). Widths cover
/// `{1, t, 2t, 4t}` for `t` backend threads, and the one-chunk plan is
/// the preferred candidate of [`decide`]: a fan-out plan replaces it
/// only when it wins by more than the margin, so small or hopelessly
/// skewed inputs stay serial. Returns `None` for kernels without a
/// parallel planned path (nothing to search) or when every candidate
/// fails in the estimator.
pub fn search_plan<T: Scalar>(
    lib: &KernelLibrary<T>,
    m: &AnyMatrix<T>,
    id: KernelId,
    budget: Duration,
    deadline: Duration,
) -> Option<PlanSearch> {
    search_plan_grid(lib, m, id, 1, budget, deadline)
}

/// The policy × width grid behind [`search_plan`] and
/// [`search_spmm_plan`]: builds every candidate plan, measures them
/// together replaying `id` at RHS width `k`, and keeps [`decide`]'s pick
/// with the one-chunk plan preferred.
fn search_plan_grid<T: Scalar>(
    lib: &KernelLibrary<T>,
    m: &AnyMatrix<T>,
    id: KernelId,
    k: usize,
    budget: Duration,
    deadline: Duration,
) -> Option<PlanSearch> {
    let policies: Vec<ChunkPolicy> = match lib.chunk_policy(m, id) {
        ChunkPolicy::Serial => return None,
        ChunkPolicy::EqualRows | ChunkPolicy::NnzBalanced if id.format == Format::Csr => {
            vec![ChunkPolicy::EqualRows, ChunkPolicy::NnzBalanced]
        }
        other => vec![other],
    };
    let t = crate::exec::num_threads().max(1);
    let mut widths = vec![1, t, 2 * t, 4 * t];
    widths.sort_unstable();
    widths.dedup();

    let x = vec![T::ONE; m.cols() * k];
    let mut y = vec![T::ZERO; m.rows() * k];
    // Width 1 sorts first, so candidate 0 is the one-chunk plan.
    let mut grid: Vec<(ChunkPolicy, usize, ExecPlan)> = policies
        .iter()
        .flat_map(|&policy| widths.iter().map(move |&parts| (policy, parts)))
        .map(|(policy, parts)| (policy, parts, lib.build_plan_sized(m, policy, parts)))
        .collect();
    let outcomes = measure_round_robin(
        grid.len(),
        |i| match id.op {
            Op::Spmv => lib.run_planned(m, id.variant, &grid[i].2, &x, &mut y),
            Op::Spmm => lib.run_spmm_planned(m, id.variant, &grid[i].2, &x, &mut y, k),
        },
        2..=16,
        budget,
        deadline,
        None,
    );
    let winner = decide(&outcomes, Some(0))?;
    let samples = grid
        .iter()
        .zip(&outcomes)
        .filter_map(|((policy, parts, plan), outcome)| {
            Some(PlanSample {
                policy: *policy,
                parts: *parts,
                chunks: plan.chunks(),
                gflops: gflops(m.nnz() * k, outcome.ok()?),
            })
        })
        .collect();
    let best = outcomes[..winner]
        .iter()
        .filter(|o| o.ok().is_some())
        .count();
    Some(PlanSearch {
        plan: grid.swap_remove(winner).2,
        best,
        samples,
    })
}

/// [`search_plan`] for an SpMM kernel at RHS batch width `k`: the same
/// policy × width grid (merge kernels only re-size their entry split,
/// plain row-chunk CSR kernels race `EqualRows` against `NnzBalanced`),
/// replayed through the planned SpMM dispatch and scored at `2 * nnz *
/// k` flops per call. The *tile* width is not searched here — it lives
/// on the variant (`Tile2/4/8` strategy bits), chosen by the SpMM
/// scoreboard; this searches the partitioning the winning tile replays.
pub fn search_spmm_plan<T: Scalar>(
    lib: &KernelLibrary<T>,
    m: &AnyMatrix<T>,
    id: KernelId,
    k: usize,
    budget: Duration,
    deadline: Duration,
) -> Option<PlanSearch> {
    search_plan_grid(lib, m, id, k, budget, deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::gen::random_uniform;

    fn table(recs: &[(&str, &[Strategy], f64)]) -> PerfTable {
        PerfTable {
            format: Format::Csr,
            records: recs
                .iter()
                .map(|&(name, strats, g)| PerfRecord {
                    name: name.to_string(),
                    strategies: strats.iter().copied().collect(),
                    gflops: g,
                    status: RecordStatus::Measured,
                })
                .collect(),
        }
    }

    #[test]
    fn scoreboard_rewards_helpful_strategy() {
        use Strategy::*;
        let t = table(&[
            ("basic", &[], 1.0),
            ("unroll", &[Unroll], 1.5),
            ("parallel", &[Parallel], 4.0),
            ("both", &[Parallel, Unroll], 5.0),
        ]);
        let sb = t.scoreboard();
        let score = |s: Strategy| sb.strategy_scores.iter().find(|e| e.0 == s).unwrap().1;
        assert_eq!(score(Unroll), 2); // helped twice
        assert_eq!(score(Parallel), 2);
        assert_eq!(sb.best_variant, 3);
    }

    #[test]
    fn scoreboard_penalizes_harmful_strategy() {
        use Strategy::*;
        let t = table(&[
            ("basic", &[], 4.0),
            ("unroll", &[Unroll], 1.0), // unrolling hurts on this machine
            ("parallel", &[Parallel], 8.0),
            ("both", &[Parallel, Unroll], 5.0),
        ]);
        let sb = t.scoreboard();
        let score = |s: Strategy| sb.strategy_scores.iter().find(|e| e.0 == s).unwrap().1;
        assert_eq!(score(Unroll), -2);
        assert_eq!(sb.best_variant, 2, "parallel-only must win");
    }

    #[test]
    fn scoreboard_neglects_tiny_gaps() {
        use Strategy::*;
        let t = table(&[
            ("basic", &[], 1.0),
            ("unroll", &[Unroll], 1.0 + NO_EFFECT_GAP / 2.0),
        ]);
        let sb = t.scoreboard();
        assert_eq!(sb.strategy_scores[0].1, 0);
        // Tie on score; faster implementation wins.
        assert_eq!(sb.best_variant, 1);
    }

    #[test]
    fn measured_search_picks_sane_kernels() {
        let lib = KernelLibrary::<f64>::new();
        let probe = random_uniform::<f64>(2000, 2000, 16, 99);
        for f in Format::ALL {
            let Ok(any) = AnyMatrix::convert_from_csr(&probe, f) else {
                continue;
            };
            let budget = Duration::from_millis(5);
            let table = measure_format(&lib, &any, budget, DEFAULT_CANDIDATE_DEADLINE, &[]);
            let v = table.scoreboard().best_variant;
            assert!(v < lib.variant_count(f), "{f} variant {v} out of range");
            // Every measured table has positive throughputs.
            for r in &table.records {
                assert!(r.gflops > 0.0, "{} measured 0", r.name);
            }
        }
    }

    #[test]
    fn fastest_variant_is_argmax() {
        use Strategy::*;
        let t = table(&[
            ("a", &[], 1.0),
            ("b", &[Unroll], 3.0),
            ("c", &[Parallel], 2.0),
        ]);
        assert_eq!(t.fastest_variant(), 1);
    }

    #[test]
    fn failed_records_are_excluded_from_selection() {
        use Strategy::*;
        let mut t = table(&[
            ("basic", &[], 1.0),
            ("unroll", &[Unroll], 9.0),
            ("parallel", &[Parallel], 2.0),
        ]);
        // Mark the fastest variant as failed: it must vanish from both
        // the scoreboard pairing and the final selection.
        t.records[1].status = RecordStatus::CandidateFailed {
            reason: "kernel panicked: test".into(),
        };
        t.records[1].gflops = 0.0;
        let sb = t.scoreboard();
        assert_ne!(sb.best_variant, 1, "failed variant must not win");
        assert_ne!(t.fastest_variant(), 1);
        let score = |s: Strategy| sb.strategy_scores.iter().find(|e| e.0 == s).unwrap().1;
        assert_eq!(score(Unroll), 0, "failed row contributes no evidence");
        assert_eq!(t.failures().len(), 1);
        assert_eq!(t.failures()[0].0, 1);
        // JSON round trip preserves the failure marker.
        let json = serde_json::to_string(&t).unwrap();
        let back: PerfTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn all_failed_table_selects_basic() {
        use Strategy::*;
        let mut t = table(&[("basic", &[], 0.0), ("unroll", &[Unroll], 0.0)]);
        for r in &mut t.records {
            r.status = RecordStatus::CandidateFailed {
                reason: "deadline exceeded".into(),
            };
        }
        assert_eq!(t.scoreboard().best_variant, 0);
        assert_eq!(t.fastest_variant(), 0);
    }

    #[test]
    fn measure_format_records_panicking_variant_as_failed() {
        let mut lib = KernelLibrary::<f64>::new();
        let healthy = lib.variant_count(Format::Csr);
        lib.register(
            Format::Csr,
            "csr_poison",
            StrategySet::default(),
            |_, _, _| panic!("injected fault"),
        );
        let probe = random_uniform::<f64>(200, 200, 4, 7);
        let any = AnyMatrix::Csr(probe);
        let table = measure_format(
            &lib,
            &any,
            Duration::from_micros(100),
            DEFAULT_CANDIDATE_DEADLINE,
            &[],
        );
        assert_eq!(table.records.len(), healthy + 1);
        let poisoned = &table.records[healthy];
        assert!(!poisoned.is_measured());
        assert!(matches!(
            &poisoned.status,
            RecordStatus::CandidateFailed { reason } if reason.contains("injected fault")
        ));
        // Every healthy variant still measured, and the winner is sane.
        assert!(table.records[..healthy].iter().all(PerfRecord::is_measured));
        assert_ne!(table.scoreboard().best_variant, healthy);
    }

    #[test]
    fn quarantined_variants_are_excluded_like_failed_candidates() {
        let lib = KernelLibrary::<f64>::new();
        let probe = random_uniform::<f64>(300, 300, 6, 5);
        let any = AnyMatrix::Csr(probe);
        // First find the winner, then quarantine it: the re-run must
        // pick someone else, and the benched row must read exactly like
        // a harness failure.
        let open = measure_format(
            &lib,
            &any,
            Duration::from_micros(100),
            DEFAULT_CANDIDATE_DEADLINE,
            &[],
        );
        let winner = open.scoreboard().best_variant;
        let benched = KernelId {
            op: Op::Spmv,
            format: Format::Csr,
            variant: winner,
        };
        let table = measure_format(
            &lib,
            &any,
            Duration::from_micros(100),
            DEFAULT_CANDIDATE_DEADLINE,
            &[benched],
        );
        let row = &table.records[winner];
        assert!(!row.is_measured());
        assert!(matches!(
            &row.status,
            RecordStatus::CandidateFailed { reason } if reason == "quarantined"
        ));
        assert_ne!(table.scoreboard().best_variant, winner);
        assert!(table
            .failures()
            .iter()
            .any(|&(v, _, r)| v == winner && r == "quarantined"));
    }

    #[test]
    fn plan_search_races_policies_for_parallel_csr() {
        let lib = KernelLibrary::<f64>::new();
        let m = smat_matrix::gen::power_law::<f64>(1500, 300, 2.0, 11);
        let any = AnyMatrix::Csr(m);
        let v = lib
            .variants(Format::Csr)
            .iter()
            .position(|i| i.name == "csr_parallel")
            .unwrap();
        let id = KernelId {
            op: Op::Spmv,
            format: Format::Csr,
            variant: v,
        };
        let found = search_plan(
            &lib,
            &any,
            id,
            Duration::from_micros(200),
            DEFAULT_CANDIDATE_DEADLINE,
        )
        .expect("parallel kernel has a plan to search");
        // Both policies and the width ladder were actually raced.
        assert!(found
            .samples
            .iter()
            .any(|s| s.policy == ChunkPolicy::EqualRows));
        assert!(found
            .samples
            .iter()
            .any(|s| s.policy == ChunkPolicy::NnzBalanced));
        assert!(found.samples.iter().any(|s| s.parts == 1));
        let win = &found.samples[found.best];
        assert_eq!(found.plan.policy, win.policy);
        assert!(win.gflops > 0.0);
        // The winning plan replays correctly.
        let x = vec![1.0; any.cols()];
        let mut y = vec![0.0; any.rows()];
        let mut expect = vec![0.0; any.rows()];
        lib.run(&any, v, &x, &mut expect);
        lib.run_planned(&any, v, &found.plan, &x, &mut y);
        assert!(y.iter().zip(&expect).all(|(a, b)| (a - b).abs() < 1e-9));
    }

    #[test]
    fn plan_search_skips_serial_kernels() {
        let lib = KernelLibrary::<f64>::new();
        let m = random_uniform::<f64>(200, 200, 5, 3);
        let any = AnyMatrix::Csr(m);
        let id = KernelId::basic(Format::Csr);
        assert!(search_plan(
            &lib,
            &any,
            id,
            Duration::from_micros(50),
            DEFAULT_CANDIDATE_DEADLINE
        )
        .is_none());
    }

    #[test]
    fn spmm_measurement_covers_the_tile_grid() {
        let lib = KernelLibrary::<f64>::new();
        let probe = random_uniform::<f64>(400, 400, 6, 21);
        let any = AnyMatrix::Csr(probe);
        let table = measure_spmm(
            &lib,
            &any,
            8,
            Duration::from_micros(100),
            DEFAULT_CANDIDATE_DEADLINE,
            &[],
        );
        assert_eq!(table.records.len(), lib.spmm_variant_count(Format::Csr));
        assert!(table.records.iter().all(PerfRecord::is_measured));
        // The searched grid includes every tile width.
        for s in [Strategy::Tile2, Strategy::Tile4, Strategy::Tile8] {
            assert!(
                table.records.iter().any(|r| r.strategies.contains(s)),
                "{s} missing from the spmm grid"
            );
        }
        // The scoreboard picks a live row; an excluded winner is skipped.
        let winner = table.scoreboard().best_variant;
        let benched = KernelId {
            op: Op::Spmm,
            format: Format::Csr,
            variant: winner,
        };
        let again = measure_spmm(
            &lib,
            &any,
            8,
            Duration::from_micros(100),
            DEFAULT_CANDIDATE_DEADLINE,
            &[benched],
        );
        assert!(!again.records[winner].is_measured());
        assert_ne!(again.scoreboard().best_variant, winner);
    }

    #[test]
    fn spmm_plan_search_finds_a_replayable_plan() {
        let lib = KernelLibrary::<f64>::new();
        let m = smat_matrix::gen::power_law::<f64>(1200, 250, 2.0, 17);
        let any = AnyMatrix::Csr(m);
        let k = 4usize;
        let v = lib
            .spmm_variants(Format::Csr)
            .iter()
            .position(|i| i.name == "csr_spmm_parallel_t4")
            .unwrap();
        let id = KernelId {
            op: Op::Spmm,
            format: Format::Csr,
            variant: v,
        };
        let found = search_spmm_plan(
            &lib,
            &any,
            id,
            k,
            Duration::from_micros(200),
            DEFAULT_CANDIDATE_DEADLINE,
        )
        .expect("parallel spmm kernel has a plan to search");
        assert!(found
            .samples
            .iter()
            .any(|s| s.policy == ChunkPolicy::NnzBalanced));
        // The winning plan replays bitwise.
        let x: Vec<f64> = (0..any.cols() * k)
            .map(|i| (i as f64 * 0.17).sin())
            .collect();
        let mut y1 = vec![f64::NAN; any.rows() * k];
        let mut y2 = vec![f64::NAN; any.rows() * k];
        lib.run_spmm_planned(&any, v, &found.plan, &x, &mut y1, k);
        lib.run_spmm_planned(&any, v, &found.plan, &x, &mut y2, k);
        assert!(y1.iter().zip(&y2).all(|(a, b)| a == b));
        // Serial spmm kernels have nothing to search.
        let serial = KernelId::spmm_basic(Format::Csr);
        assert!(search_spmm_plan(
            &lib,
            &any,
            serial,
            k,
            Duration::from_micros(50),
            DEFAULT_CANDIDATE_DEADLINE
        )
        .is_none());
    }

    #[test]
    fn kernel_choice_round_trip() {
        let mut c = KernelChoice::basic();
        c.set(Format::Dia, 3);
        assert_eq!(c.kernel(Format::Dia).variant, 3);
        assert_eq!(c.kernel(Format::Csr).variant, 0);
        let json = serde_json::to_string(&c).unwrap();
        let back: KernelChoice = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
