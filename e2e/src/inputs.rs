//! Workload inputs: everything here is a pure function of `--seed`
//! and the scale. The seed feeds only the matrix generators and the
//! right-hand sides; the program under test sees just the generated
//! matrices, vectors and request frames.
//!
//! Every *size* is fixed by the script (row counts, degrees, the
//! ladder of cold frame sizes); the seed moves only which positions
//! are occupied and the values. Runs on different seeds therefore do
//! the same amount of work to within the generators' own jitter, which
//! is what lets ten seeds agree within the bounds.

use smat_matrix::gen::{
    banded, block_sparse, fixed_degree, laplacian_2d_9pt, laplacian_3d_7pt, power_law,
    random_skewed, random_uniform,
};
use smat_matrix::{Csr, Format};
use std::fmt::Write as _;

/// Full-size scripts, or the quarter-size smoke variant (`--quick`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    /// Shrinks a row count for `--quick`.
    pub fn rows(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => full / 4,
        }
    }
}

/// SplitMix64: derives independent sub-seeds and vector entries from
/// the workload seed without pulling in an RNG crate.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    pub fn vector(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.next_unit()).collect()
    }
}

/// One named input matrix with the format the pinned model is meant to
/// choose for it (`None` where the script states no intent).
#[derive(Debug, Clone)]
pub struct Input {
    pub name: String,
    pub intended: Option<Format>,
    pub matrix: Csr<f64>,
}

fn input(name: &str, intended: Format, matrix: Csr<f64>) -> Input {
    Input {
        name: name.to_string(),
        intended: Some(intended),
        matrix,
    }
}

/// The `lib_suite` matrices: one or two per storage format, each
/// larger than the 4 MiB L2 at full scale so steady-state `spmv` is
/// bandwidth-bound, as in the paper's own evaluation.
pub fn suite(seed: u64, scale: Scale) -> Vec<Input> {
    let mut s = SplitMix::new(seed ^ 0x5017E);
    let r = |full: usize| scale.rows(full);
    let side = match scale {
        Scale::Full => 300,
        Scale::Quick => 150,
    };
    vec![
        input(
            "band7",
            Format::Dia,
            banded(
                r(120_000),
                &[-300, -299, -1, 0, 1, 299, 300],
                1.0,
                s.next_u64(),
            ),
        ),
        input("lap9", Format::Dia, laplacian_2d_9pt(side, side)),
        input(
            "deg4",
            Format::Ell,
            fixed_degree(r(150_000), r(150_000), 4, 0, s.next_u64()),
        ),
        input(
            "rect3",
            Format::Ell,
            fixed_degree(r(200_000), r(17_000), 3, 0, s.next_u64()),
        ),
        input(
            "uniform12",
            Format::Csr,
            random_uniform(r(60_000), r(60_000), 12, s.next_u64()),
        ),
        input(
            "block4",
            Format::Bcsr4,
            block_sparse(r(60_000), 4, 3, s.next_u64()),
        ),
        input(
            "plaw",
            Format::Coo,
            power_law(r(80_000), 600, 2.2, s.next_u64()),
        ),
        input(
            "skew",
            Format::Hyb,
            random_skewed(r(60_000), r(60_000), 12, 0.04, 16, s.next_u64()),
        ),
    ]
}

/// The `serve_warm` matrices: four structures of one size, registered
/// once and then replayed by handle.
pub fn warm_matrices(seed: u64, scale: Scale) -> Vec<Input> {
    let mut s = SplitMix::new(seed ^ 0x3A84);
    let n = scale.rows(6_000);
    vec![
        input(
            "warm_uniform",
            Format::Csr,
            random_uniform(n, n, 6, s.next_u64()),
        ),
        input(
            "warm_banded",
            Format::Dia,
            banded(n, &[-40, -1, 0, 1, 40], 1.0, s.next_u64()),
        ),
        input(
            "warm_degree",
            Format::Ell,
            fixed_degree(n, n, 6, 0, s.next_u64()),
        ),
        input(
            "warm_plaw",
            Format::Coo,
            power_law(n, 200, 2.2, s.next_u64()),
        ),
    ]
}

/// Number of distinct frames one `serve_cold` round cycles through.
pub fn cold_frame_count(scale: Scale) -> usize {
    match scale {
        Scale::Full => 100,
        Scale::Quick => 40,
    }
}

/// The `serve_cold` matrices: five structures on a fixed geometric
/// ladder of row counts (800 to 3200 at full scale), so the request
/// sizes — and with them the latency distribution — are the same for
/// every seed while every fingerprint is distinct.
pub fn cold_matrices(seed: u64, scale: Scale) -> Vec<Input> {
    let mut s = SplitMix::new(seed ^ 0xC01D);
    let count = cold_frame_count(scale);
    let steps = count / 5;
    let (lo, hi) = match scale {
        Scale::Full => (800.0f64, 3200.0f64),
        Scale::Quick => (400.0, 1600.0),
    };
    let mut out = Vec::with_capacity(count);
    for step in 0..steps {
        let t = step as f64 / (steps - 1).max(1) as f64;
        // Distinct row counts per (step, structure) keep even the
        // seed-independent stencils' fingerprints apart.
        let base = (lo * (hi / lo).powf(t)).round() as usize;
        for structure in 0..5 {
            let n = base + structure;
            let seed = s.next_u64();
            let (name, matrix) = match structure {
                0 => ("uniform", random_uniform(n, n, 6, seed)),
                1 => ("banded", banded(n, &[-9, -1, 0, 1, 9], 1.0, seed)),
                2 => ("degree", fixed_degree(n, n, 5, 0, seed)),
                3 => ("plaw", power_law(n, (n / 8).max(8), 2.2, seed)),
                _ => ("skew", random_skewed(n, n, 5, 0.04, 8, seed)),
            };
            out.push(Input {
                name: format!("cold_{name}_{n}"),
                intended: None,
                matrix,
            });
        }
    }
    out
}

/// The `lib_amg` operators: the paper's Table 4 stencils — the 7-point
/// Laplacian on a cube and the 9-point Laplacian on a square — at 40^3
/// and 360^2 (the paper's 50^3 and 500^2 make a round too long for a
/// run to hold enough of them). Both operators still exceed the L2.
/// Stencils have no random part; the seed feeds the right-hand sides.
pub fn amg_problems(scale: Scale) -> Vec<Input> {
    let (n7, n9) = match scale {
        Scale::Full => (40, 360),
        Scale::Quick => (24, 180),
    };
    vec![
        Input {
            name: format!("lap7_{n7}"),
            intended: None,
            matrix: laplacian_3d_7pt(n7, n7, n7),
        },
        Input {
            name: format!("lap9_{n9}"),
            intended: None,
            matrix: laplacian_2d_9pt(n9, n9),
        },
    ]
}

fn push_vector(out: &mut String, key: &str, x: &[f64]) {
    let _ = write!(out, ",\"{key}\":[");
    for (i, v) in x.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v:?}");
    }
    out.push(']');
}

/// A cold-path frame: the whole matrix as 0-based triplets, plus `x`
/// (and `k` for `spmm`). Ends with the newline that closes the frame.
pub fn triplet_frame(op: &str, m: &Csr<f64>, x: Option<&[f64]>, k: usize) -> String {
    let mut out = String::with_capacity(m.nnz() * 32 + x.map_or(0, |x| x.len() * 24) + 256);
    let _ = write!(
        out,
        "{{\"op\":\"{op}\",\"deadline_ms\":60000,\"matrix\":{{\"rows\":{},\"cols\":{},\"nnz\":{},\"entries\":[",
        m.rows(),
        m.cols(),
        m.nnz()
    );
    for (i, (r, c, v)) in m.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{r},{c},{v:?}]");
    }
    out.push_str("]}");
    if op == "spmm" {
        let _ = write!(out, ",\"k\":{k}");
    }
    if let Some(x) = x {
        push_vector(&mut out, "x", x);
    }
    out.push_str("}\n");
    out
}

/// A warm-path frame: a handle in place of the matrix.
pub fn handle_frame(op: &str, handle: &str, x: &[f64], k: usize) -> String {
    let mut out = String::with_capacity(x.len() * 24 + 128);
    let _ = write!(
        out,
        "{{\"op\":\"{op}\",\"deadline_ms\":60000,\"handle\":\"{handle}\""
    );
    if op == "spmm" {
        let _ = write!(out, ",\"k\":{k}");
    }
    push_vector(&mut out, "x", x);
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_service::proto::{parse_request, MatrixSource, Request, WireHandle, WorkOp};
    use smat_matrix::StructuralFingerprint;

    #[test]
    fn same_seed_same_inputs_and_sizes_do_not_depend_on_the_seed() {
        let a = cold_matrices(7, Scale::Quick);
        let b = cold_matrices(7, Scale::Quick);
        let c = cold_matrices(8, Scale::Quick);
        assert_eq!(a.len(), cold_frame_count(Scale::Quick));
        for ((a, b), c) in a.iter().zip(&b).zip(&c) {
            assert_eq!(a.matrix, b.matrix);
            assert_eq!(a.matrix.rows(), c.matrix.rows());
        }
        assert_ne!(a[0].matrix, c[0].matrix);
        let prints: std::collections::BTreeSet<_> =
            a.iter().map(|i| i.matrix.fingerprint().digest).collect();
        assert_eq!(prints.len(), a.len(), "every cold frame is a distinct structure");
    }

    #[test]
    fn triplet_frame_round_trips_through_the_request_parser() {
        let m = random_uniform::<f64>(40, 30, 3, 9);
        let x = SplitMix::new(1).vector(30 * 2);
        let frame = triplet_frame("spmm", &m, Some(&x), 2);
        assert!(frame.ends_with('\n') && !frame.trim_end().contains('\n'));
        let Request::Work(work) = parse_request(frame.trim_end()).expect("frame parses") else {
            panic!("not a work request");
        };
        assert_eq!(work.op, WorkOp::Spmm);
        assert_eq!(work.k, 2);
        assert_eq!(work.x.as_deref(), Some(&x[..]));
        assert_eq!(work.source, MatrixSource::Inline(m));
    }

    #[test]
    fn handle_frame_round_trips_through_the_request_parser() {
        let handle = WireHandle {
            fingerprint: StructuralFingerprint {
                rows: 5,
                cols: 4,
                nnz: 9,
                digest: [0xABCD, 0x1234],
            },
            generation: 77,
        };
        let x = SplitMix::new(2).vector(4);
        let frame = handle_frame("spmv", &handle.encode(), &x, 1);
        let Request::Work(work) = parse_request(frame.trim_end()).expect("frame parses") else {
            panic!("not a work request");
        };
        assert_eq!(work.op, WorkOp::Spmv);
        assert_eq!(work.source, MatrixSource::Handle(handle));
        assert_eq!(work.x.as_deref(), Some(&x[..]));
    }
}
