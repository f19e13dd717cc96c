//! Shared body of the `thread_target_<n>` suites: `setup` against the
//! reference set-up (`src/oracle.rs`, the crate's own test oracle) on
//! operators large enough for the Galerkin products to fan out.
//!
//! The pool's size is fixed at its first use, process-wide, so each
//! thread target gets a test binary of its own.

// `oracle.rs` takes the crate's names through `super`: all of these
// are in scope for it.
use smat_amg::{
    jacobi_update, residual, setup, AmgConfig, CompiledHierarchy, CycleConfig, Hierarchy, Level,
    PointType, SolveStats, Splitting, StrengthGraph, DEFAULT_THETA, INTERP_MAX_ELEMENTS,
    JACOBI_OMEGA,
};
use smat_kernels::exec;
use smat_matrix::gen::{laplacian_2d_5pt, laplacian_2d_9pt, laplacian_3d_7pt};

#[allow(dead_code)]
#[path = "../../src/oracle.rs"]
mod oracle;

pub fn hierarchy_equals_the_reference_at(threads: usize) {
    exec::set_thread_target(threads);
    assert_eq!(
        exec::num_threads(),
        threads,
        "the target must win first use"
    );
    let fan_outs = exec::dispatch_count();
    let cfg = AmgConfig::default();
    for (name, a) in [
        ("7-pt 24^3", laplacian_3d_7pt(24, 24, 24)),
        ("9-pt 120^2", laplacian_2d_9pt(120, 120)),
        ("5-pt 150x96", laplacian_2d_5pt(150, 96)),
        ("power-law hub", oracle::hub_matrix(6000)),
    ] {
        assert!(
            setup(a.clone(), &cfg) == oracle::setup(a.clone(), &cfg),
            "{name}, {threads} threads"
        );
    }
    assert_eq!(
        exec::dispatch_count() > fan_outs,
        threads > 1,
        "the products fan out exactly when there is a pool to fan out over"
    );
}
