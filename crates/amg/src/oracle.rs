//! Test-only reference implementations: the set-up routines as they
//! stood before the indexed queue, the row writer and the chunked
//! Gustavson loop, kept verbatim so the tests can assert that the
//! routines in use return the same splitting, `P`, product and
//! [`Hierarchy`] — `==`, so bitwise — plus the matrices they are
//! compared on. Beside them, the cycle and solve loop as they stood
//! before each product ran once ([`ReferenceCycle`]), against which the
//! iterates are compared bit for bit.
//!
//! Compiled into the crate's unit tests and, by `#[path]`, into
//! `tests/thread_targets/`; every name comes through `super` so the
//! file reads the same from both.

use super::{
    jacobi_update, residual, AmgConfig, CompiledHierarchy, CycleConfig, Hierarchy, Level,
    PointType, SolveStats, Splitting, StrengthGraph, DEFAULT_THETA, INTERP_MAX_ELEMENTS,
    JACOBI_OMEGA,
};
use smat_kernels::KernelLibrary;
use smat_matrix::gen::{
    laplacian_2d_5pt, laplacian_2d_9pt, laplacian_3d_7pt, power_law, random_uniform,
};
use smat_matrix::utils::norm2;
use smat_matrix::{Csr, Format};
use std::collections::BinaryHeap;

/// Ruge–Stüben first pass over a lazy-update `BinaryHeap` with stale
/// entries skipped at pop.
pub fn rs_split(graph: &StrengthGraph) -> Vec<PointType> {
    let n = graph.len();
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Unassigned,
        Coarse,
        Fine,
    }
    let mut state = vec![State::Unassigned; n];
    let mut measure: Vec<usize> = (0..n).map(|i| graph.influence_count(i)).collect();
    let mut heap: BinaryHeap<(usize, usize)> = (0..n).map(|i| (measure[i], i)).collect();

    while let Some((m, i)) = heap.pop() {
        if state[i] != State::Unassigned || m != measure[i] {
            continue; // stale entry
        }
        if measure[i] == 0 {
            break;
        }
        state[i] = State::Coarse;
        for &j in graph.influences(i) {
            if state[j] == State::Unassigned {
                state[j] = State::Fine;
                for &k in graph.influencers(j) {
                    if state[k] == State::Unassigned {
                        measure[k] += 1;
                        heap.push((measure[k], k));
                    }
                }
            }
        }
    }
    state
        .into_iter()
        .map(|s| match s {
            State::Coarse => PointType::Coarse,
            _ => PointType::Fine,
        })
        .collect()
}

/// `coarsen` over [`rs_split`], with the fix-up.
pub fn coarsen(graph: &StrengthGraph) -> Splitting {
    fixed_up(graph, rs_split(graph))
}

/// A valid splitting that no coarsening would pick: [`random_types`],
/// then the fix-up.
pub fn random_splitting(graph: &StrengthGraph, seed: u64) -> Splitting {
    fixed_up(graph, random_types(graph.len(), seed))
}

/// `n` points, each coarse with probability 1/3 by a seeded xorshift.
pub fn random_types(n: usize, seed: u64) -> Vec<PointType> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.is_multiple_of(3) {
                PointType::Coarse
            } else {
                PointType::Fine
            }
        })
        .collect()
}

/// Promotes every fine point without a strong coarse influencer.
fn fixed_up(graph: &StrengthGraph, mut types: Vec<PointType>) -> Splitting {
    for i in 0..types.len() {
        if types[i] == PointType::Fine
            && !graph
                .influencers(i)
                .iter()
                .any(|&j| types[j] == PointType::Coarse)
        {
            types[i] = PointType::Coarse;
        }
    }
    Splitting::from_types(types)
}

/// Direct interpolation through a triplet list, two `a.get` per weight.
pub fn direct_interpolation(
    a: &Csr<f64>,
    graph: &StrengthGraph,
    splitting: &Splitting,
) -> Csr<f64> {
    let n = a.rows();
    let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..n {
        if splitting.is_coarse(i) {
            triplets.push((i, splitting.coarse_index[i], 1.0));
            continue;
        }
        let (cols, vals) = a.row(i);
        let mut diag = 0.0;
        let mut sum_neg_all = 0.0f64;
        let mut sum_pos_all = 0.0f64;
        for (&j, &v) in cols.iter().zip(vals) {
            let j = j as usize;
            if j == i {
                diag = v;
            } else if v < 0.0 {
                sum_neg_all += v;
            } else {
                sum_pos_all += v;
            }
        }
        assert!(diag != 0.0, "fine point {i} has a zero diagonal");
        let strong_coarse: Vec<usize> = graph
            .influencers(i)
            .iter()
            .copied()
            .filter(|&j| splitting.is_coarse(j))
            .collect();
        if strong_coarse.is_empty() {
            continue;
        }
        let mut sum_neg_c = 0.0f64;
        let mut sum_pos_c = 0.0f64;
        for &j in &strong_coarse {
            let v = a.get(i, j).unwrap_or(0.0);
            if v < 0.0 {
                sum_neg_c += v;
            } else {
                sum_pos_c += v;
            }
        }
        let alpha = if sum_neg_c != 0.0 {
            sum_neg_all / sum_neg_c
        } else {
            0.0
        };
        let beta = if sum_pos_c != 0.0 {
            sum_pos_all / sum_pos_c
        } else {
            0.0
        };
        for &j in &strong_coarse {
            let v = a.get(i, j).unwrap_or(0.0);
            let w = if v < 0.0 {
                -alpha * v / diag
            } else {
                -beta * v / diag
            };
            if w != 0.0 {
                triplets.push((i, splitting.coarse_index[j], w));
            }
        }
    }
    Csr::from_triplets(n, splitting.n_coarse, &triplets).unwrap()
}

/// Truncation through a triplet list and a stable sort per row.
pub fn truncate_interpolation(p: &Csr<f64>, max_elements: usize) -> Csr<f64> {
    if max_elements == 0 {
        return p.clone();
    }
    let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(p.nnz());
    for i in 0..p.rows() {
        let (cols, vals) = p.row(i);
        if cols.len() <= max_elements {
            for (&c, &v) in cols.iter().zip(vals) {
                triplets.push((i, c as usize, v));
            }
            continue;
        }
        let row_sum: f64 = vals.iter().sum();
        let mut entries: Vec<(usize, f64)> = cols
            .iter()
            .map(|&c| c as usize)
            .zip(vals.iter().copied())
            .collect();
        entries.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        entries.truncate(max_elements);
        let kept_sum: f64 = entries.iter().map(|(_, v)| v).sum();
        let scale = if kept_sum.abs() > 1e-300 {
            row_sum / kept_sum
        } else {
            1.0
        };
        for (c, v) in entries {
            triplets.push((i, c, v * scale));
        }
    }
    Csr::from_triplets(p.rows(), p.cols(), &triplets).unwrap()
}

/// Serial Gustavson product, outputs grown from empty.
pub fn spgemm(a: &Csr<f64>, b: &Csr<f64>) -> Csr<f64> {
    assert_eq!(a.cols(), b.rows());
    let rows = a.rows();
    let cols = b.cols();
    let mut acc = vec![0.0; cols];
    let mut marker = vec![usize::MAX; cols];
    let mut row_cols: Vec<usize> = Vec::new();
    let mut row_ptr = Vec::with_capacity(rows + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    row_ptr.push(0);
    for i in 0..rows {
        row_cols.clear();
        let (a_cols, a_vals) = a.row(i);
        for (&k, &av) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k as usize);
            for (&j, &bv) in b_cols.iter().zip(b_vals) {
                let j = j as usize;
                if marker[j] != i {
                    marker[j] = i;
                    acc[j] = 0.0;
                    row_cols.push(j);
                }
                acc[j] += av * bv;
            }
        }
        row_cols.sort_unstable();
        for &j in &row_cols {
            col_idx.push(j as u32);
            values.push(acc[j]);
        }
        row_ptr.push(col_idx.len());
    }
    Csr::from_parts_unchecked(rows, cols, row_ptr, col_idx, values)
}

/// The set-up loop over the reference pieces.
pub fn setup(a: Csr<f64>, config: &AmgConfig) -> Hierarchy<f64> {
    let mut levels = Vec::new();
    let mut current = a;
    for lvl in 0..config.max_levels {
        let n = current.rows();
        if n <= config.coarse_size || lvl + 1 == config.max_levels {
            break;
        }
        let graph = StrengthGraph::build(&current, DEFAULT_THETA);
        let splitting = coarsen(&graph);
        if splitting.n_coarse == 0 || splitting.n_coarse >= n {
            break;
        }
        let p = truncate_interpolation(
            &direct_interpolation(&current, &graph, &splitting),
            INTERP_MAX_ELEMENTS,
        );
        let r = p.transpose();
        let coarse = spgemm(&spgemm(&r, &current), &p);
        levels.push(Level {
            a: current,
            p: Some(p),
            r: Some(r),
        });
        current = coarse;
    }
    levels.push(Level {
        a: current,
        p: None,
        r: None,
    });
    Hierarchy { levels }
}

/// A row-diagonally-dominant operator over the given off-diagonal
/// entries (duplicates summed, diagonal entries ignored): the diagonal
/// is `1 + Σ|off-diagonal|`.
fn dominant(n: usize, off_diagonal: &[(usize, usize, f64)]) -> Csr<f64> {
    let off: Vec<(usize, usize, f64)> = off_diagonal
        .iter()
        .copied()
        .filter(|&(r, c, _)| r != c)
        .collect();
    let off = Csr::from_triplets(n, n, &off).unwrap();
    let mut triplets: Vec<(usize, usize, f64)> = off.iter().collect();
    for i in 0..n {
        let (_, vals) = off.row(i);
        triplets.push((i, i, 1.0 + vals.iter().map(|v| v.abs()).sum::<f64>()));
    }
    Csr::from_triplets(n, n, &triplets).unwrap()
}

/// A power-law pattern plus one hub: point 0 is strongly coupled, both
/// ways, to every second point, so `|S_0^T| >= n / 4`.
pub fn hub_matrix(n: usize) -> Csr<f64> {
    let mut off: Vec<(usize, usize, f64)> = power_law::<f64>(n, n / 8, 2.0, 0x4B)
        .iter()
        .map(|(r, c, v)| (r, c, -(0.1 + 0.9 * v.abs().min(1.0))))
        .collect();
    for i in (2..n).step_by(2) {
        off.push((i, 0, -1.0));
        off.push((0, i, -1.0));
    }
    dominant(n, &off)
}

/// The operators every oracle test runs on: stencils (cubic, square,
/// non-square, anisotropic), an unstructured diagonally dominant
/// matrix, the hub graph, and one with positive off-diagonals (the
/// `beta` branch of the interpolation formula).
pub fn matrices() -> Vec<(&'static str, Csr<f64>)> {
    let (nx, ny) = (24, 20);
    let mut aniso = Vec::new();
    for y in 0..ny {
        for x in 0..nx {
            let i = y * nx + x;
            if x > 0 {
                aniso.push((i, i - 1, -1.0));
            }
            if x + 1 < nx {
                aniso.push((i, i + 1, -1.0));
            }
            if y > 0 {
                aniso.push((i, i - nx, -0.01));
            }
            if y + 1 < ny {
                aniso.push((i, i + nx, -0.01));
            }
        }
    }
    let random: Vec<(usize, usize, f64)> = random_uniform::<f64>(300, 300, 6, 0x5EED)
        .iter()
        .map(|(r, c, v)| (r, c, -(0.05 + v.abs())))
        .collect();
    // Every third off-diagonal of a 9-point stencil flipped positive.
    let mixed: Vec<(usize, usize, f64)> = laplacian_2d_9pt::<f64>(18, 18)
        .iter()
        .map(|(r, c, v)| {
            (
                r,
                c,
                if (r + 2 * c) % 3 == 0 {
                    0.4 * v.abs()
                } else {
                    v
                },
            )
        })
        .collect();
    vec![
        ("7-pt 12^3", laplacian_3d_7pt(12, 12, 12)),
        ("9-pt 40^2", laplacian_2d_9pt(40, 40)),
        ("5-pt 33x17", laplacian_2d_5pt(33, 17)),
        ("anisotropic 24x20", dominant(nx * ny, &aniso)),
        ("random diagonally dominant", dominant(300, &random)),
        ("power-law hub", hub_matrix(400)),
        ("positive off-diagonals", dominant(18 * 18, &mixed)),
    ]
}

/// The hierarchies the cycle oracle runs on — three stencils at the
/// default configuration and a two-level hierarchy (one smoothed level
/// above the dense solve) — each with the format its tuned compile
/// offers every operator ([`engine_for`]).
pub fn cycle_hierarchies() -> Vec<(&'static str, Hierarchy<f64>, Format)> {
    let cfg = AmgConfig::default();
    let two_levels = AmgConfig {
        max_levels: 2,
        ..AmgConfig::default()
    };
    vec![
        (
            "5-pt 24^2",
            super::setup(laplacian_2d_5pt(24, 24), &cfg),
            Format::Bcsr2,
        ),
        (
            "9-pt 40^2",
            super::setup(laplacian_2d_9pt(40, 40), &cfg),
            Format::Dia,
        ),
        (
            "7-pt 12^3",
            super::setup(laplacian_3d_7pt(12, 12, 12), &cfg),
            Format::Hyb,
        ),
        (
            "two-level 5-pt 16^2",
            super::setup(laplacian_2d_5pt(16, 16), &two_levels),
            Format::Ell,
        ),
    ]
}

/// An engine that trusts no rule and measures `format` alone, so each
/// operator it prepares runs `format`'s kernel where the conversion is
/// allowed and CSR's where it is refused.
pub fn engine_for(format: Format) -> smat::Smat<f64> {
    use smat::{SmatConfig, Trainer};
    let t1 = smat_matrix::gen::tridiagonal::<f64>(300);
    let t2 = random_uniform::<f64>(250, 250, 6, 1);
    let mut model = Trainer::new(SmatConfig::fast())
        .train(&[&t1, &t2])
        .unwrap()
        .model;
    model.groups.groups.clear();
    let cfg = SmatConfig {
        confidence_threshold: 1.1,
        fallback_formats: vec![format],
        ..SmatConfig::fast()
    };
    smat::Smat::with_config(model, cfg).unwrap()
}

/// Every cycle the oracle compares: 0–2 pre- and post-sweeps.
pub fn cycle_configs() -> Vec<CycleConfig> {
    let mut configs = Vec::new();
    for pre_sweeps in 0..=2 {
        for post_sweeps in 0..=2 {
            configs.push(CycleConfig {
                pre_sweeps,
                post_sweeps,
            });
        }
    }
    configs
}

/// A right-hand side with exact zeros of both signs among its entries
/// (the zero-iterate sweep must keep their bits too).
pub fn cycle_rhs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| match i % 13 {
            0 => -0.0,
            _ => ((i * 37) % 17) as f64 / 8.0 - 1.0,
        })
        .collect()
}

/// Whether two vectors are equal to the bit.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The cycle as it stood before each product ran once: `b` and `x`
/// copied through the workspace, a product before every Jacobi sweep
/// (a coarser level's first one on its zero iterate), a separate
/// residual buffer, and every residual norm on the uncompiled
/// `hierarchy`'s CSR `A`. `h` is `hierarchy` compiled, and `lib` is the
/// table its tuned operators name their kernels in: the tuning engine's.
pub struct ReferenceCycle<'a> {
    pub hierarchy: &'a Hierarchy<f64>,
    pub h: &'a CompiledHierarchy<f64>,
    pub lib: &'a KernelLibrary<f64>,
}

/// [`ReferenceCycle`]'s per-level vectors, level 0 included.
#[derive(Default)]
pub struct ReferenceWorkspace {
    xs: Vec<Vec<f64>>,
    bs: Vec<Vec<f64>>,
    rs: Vec<Vec<f64>>,
    scratch: Vec<Vec<f64>>,
}

impl ReferenceWorkspace {
    fn ensure(&mut self, h: &Hierarchy<f64>) {
        if self.xs.len() == h.levels.len()
            && self
                .xs
                .iter()
                .zip(&h.levels)
                .all(|(v, l)| v.len() == l.a.rows())
        {
            return;
        }
        let dims: Vec<usize> = h.levels.iter().map(|l| l.a.rows()).collect();
        self.xs = dims.iter().map(|&n| vec![0.0; n]).collect();
        self.bs = dims.iter().map(|&n| vec![0.0; n]).collect();
        self.rs = dims.iter().map(|&n| vec![0.0; n]).collect();
        self.scratch = dims.iter().map(|&n| vec![0.0; n]).collect();
    }
}

impl ReferenceCycle<'_> {
    pub fn v_cycle(
        &self,
        cfg: &CycleConfig,
        b: &[f64],
        x: &mut [f64],
        ws: &mut ReferenceWorkspace,
    ) {
        assert_eq!(b.len(), self.hierarchy.levels[0].a.rows(), "b length");
        assert_eq!(x.len(), b.len(), "x length");
        ws.ensure(self.hierarchy);
        ws.bs[0].copy_from_slice(b);
        ws.xs[0].copy_from_slice(x);
        self.cycle_level(0, cfg, ws);
        x.copy_from_slice(&ws.xs[0]);
    }

    fn smooth(&self, level: usize, sweeps: usize, ws: &mut ReferenceWorkspace) {
        let l = &self.h.levels[level];
        for _ in 0..sweeps {
            let (x, scratch) = (&mut ws.xs[level], &mut ws.scratch[level]);
            l.a.apply(self.lib, x, scratch);
            jacobi_update(&l.diag, JACOBI_OMEGA, scratch, &ws.bs[level], x);
        }
    }

    fn cycle_level(&self, level: usize, cfg: &CycleConfig, ws: &mut ReferenceWorkspace) {
        let coarsest = level + 1 == self.h.levels.len();
        if coarsest {
            self.h.coarse_lu.solve(&ws.bs[level], &mut ws.xs[level]);
            return;
        }
        self.smooth(level, cfg.pre_sweeps, ws);
        {
            let l = &self.h.levels[level];
            l.a.apply(self.lib, &ws.xs[level], &mut ws.scratch[level]);
            for i in 0..ws.scratch[level].len() {
                ws.rs[level][i] = ws.bs[level][i] - ws.scratch[level][i];
            }
        }
        {
            let (_, tail) = ws.bs.split_at_mut(level + 1);
            let r_op = self.h.levels[level].r.as_ref().expect("non-coarsest level");
            r_op.apply(self.lib, &ws.rs[level], &mut tail[0]);
        }
        ws.xs[level + 1].fill(0.0);
        self.cycle_level(level + 1, cfg, ws);
        {
            let p_op = self.h.levels[level].p.as_ref().expect("non-coarsest level");
            let (xs_head, xs_tail) = ws.xs.split_at_mut(level + 1);
            p_op.apply(self.lib, &xs_tail[0], &mut ws.scratch[level]);
            let x = &mut xs_head[level];
            for (xi, &si) in x.iter_mut().zip(ws.scratch[level].iter()) {
                *xi += si;
            }
        }
        self.smooth(level, cfg.post_sweeps, ws);
    }

    pub fn residual_norm(&self, b: &[f64], x: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        residual(&self.hierarchy.levels[0].a, x, b, &mut r);
        norm2(&r)
    }

    /// `AmgSolver::solve`'s loop over this cycle.
    pub fn solve(
        &self,
        cfg: &CycleConfig,
        b: &[f64],
        x: &mut [f64],
        rel_tol: f64,
        max_cycles: usize,
    ) -> SolveStats {
        let bnorm = norm2(b).max(f64::MIN_POSITIVE);
        let mut ws = ReferenceWorkspace::default();
        let mut residuals = vec![self.residual_norm(b, x)];
        let mut converged = residuals[0] <= rel_tol * bnorm;
        let mut iterations = 0;
        while !converged && iterations < max_cycles {
            self.v_cycle(cfg, b, x, &mut ws);
            iterations += 1;
            let r = self.residual_norm(b, x);
            residuals.push(r);
            converged = r <= rel_tol * bnorm;
        }
        SolveStats {
            iterations,
            residuals,
            converged,
        }
    }
}
