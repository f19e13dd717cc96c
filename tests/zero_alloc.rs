//! Steady-state allocation audit: once a kernel plan (or a prepared
//! engine handle) is warm, repeated SpMV calls must perform **zero**
//! heap allocations and spawn **zero** threads — the contract of the
//! persistent-pool + precomputed-plan redesign. The AMG cycle is held
//! to the same contract: it is those calls plus vector updates on a
//! sized workspace. Format conversions and AMG compiles are held to the
//! opposite, equally exact contract: a conversion may allocate its
//! result and one documented marker array, and a compile one copy of
//! each operator and its per-level arrays, and nothing else.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the
//! whole audit lives in a single `#[test]` so no sibling test thread
//! can allocate inside the measurement window.

use smat::{group_class_order, Smat, SmatConfig, TrainedModel, Trainer, TunedSpmv};
use smat_amg::{
    AmgConfig, CompiledHierarchy, CompiledLevel, CycleConfig, Hierarchy, OpApply, Workspace,
};
use smat_kernels::{KernelId, KernelLibrary, Strategy};
use smat_learn::{Condition, Op, Rule, RuleGroups};
use smat_matrix::gen::{
    banded, generate_corpus, power_law, random_skewed, random_uniform, CorpusSpec,
};
use smat_matrix::{AnyMatrix, Bcsr, ConversionLimits, Csr, Dia, Format, Hyb};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counts every allocation entry point; frees are not interesting here.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static REQUESTED_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    REQUESTED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `calls` SpMV invocations of `f` after `warmup` warm-up calls,
/// returning (allocation delta, spawn delta) over the measured window.
fn audit(warmup: usize, calls: usize, mut f: impl FnMut()) -> (u64, u64) {
    for _ in 0..warmup {
        f();
    }
    let (a0, s0) = (allocations(), smat_kernels::exec::spawn_count());
    for _ in 0..calls {
        f();
    }
    (allocations() - a0, smat_kernels::exec::spawn_count() - s0)
}

/// (blocks, bytes) requested of the allocator while `f` runs, and `f`'s
/// result.
fn tally<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    let before = (allocations(), REQUESTED_BYTES.load(Ordering::Relaxed));
    let result = f();
    let after = (allocations(), REQUESTED_BYTES.load(Ordering::Relaxed));
    ((after.0 - before.0, after.1 - before.1), result)
}

/// Conversions are count → check → allocate exactly → fill: what one
/// asks of the allocator is its result's arrays plus one documented
/// marker/slot array, to the byte. A triplet list, a per-block-row
/// scratch vector or a growing `Vec` coming back shows here as an extra
/// block or extra bytes.
fn conversions_allocate_their_result_and_one_marker_array() {
    // Column and row indices are four bytes; pointers, offsets and the
    // marker arrays' counters are words.
    const I: u64 = smat_matrix::INDEX_BYTES as u64;
    const W: u64 = std::mem::size_of::<usize>() as u64;
    assert_eq!(I, 4);
    let limits = ConversionLimits::default();

    // HYB: ELL values + indices, three COO arrays, and the row-degree
    // histogram (`max_RD + 2` counters) of the width heuristic.
    let skew = smat_matrix::gen::random_skewed::<f64>(3_000, 3_000, 8, 0.05, 12, 51);
    let max_rd = (0..skew.rows()).map(|r| skew.row_degree(r)).max().unwrap() as u64;
    let ((blocks, bytes), hyb) = tally(|| Hyb::from_csr_with(&skew, &limits).expect("fits"));
    assert!(hyb.coo_part().nnz() > 0 && hyb.ell_part().nnz() > 0);
    let ell_slots = hyb.ell_part().data().len() as u64;
    let resident = ell_slots * (8 + I) + hyb.coo_part().nnz() as u64 * (8 + 2 * I);
    assert!(blocks <= 6, "HYB conversion made {blocks} allocations");
    assert!(
        bytes <= resident + (max_rd + 2) * W,
        "HYB conversion requested {bytes} B for a {resident} B result"
    );
    assert_eq!(AnyMatrix::Hyb(hyb).stored_bytes() as u64, resident);

    // BCSR: block_ptr, block_col, values, and the block-column slot map
    // (`ceil(cols / bc)` words).
    let blocked = smat_matrix::gen::block_sparse_varied::<f64>(2_400, 4, 6, 52);
    let ((blocks, bytes), bcsr) =
        tally(|| Bcsr::from_csr_with(&blocked, 4, 4, &limits).expect("fits"));
    let resident = bcsr.values().len() as u64 * 8
        + bcsr.block_col().len() as u64 * I
        + bcsr.block_ptr().len() as u64 * W;
    assert!(blocks <= 5, "BCSR conversion made {blocks} allocations");
    assert!(
        bytes <= resident + blocked.cols().div_ceil(4) as u64 * W,
        "BCSR conversion requested {bytes} B for a {resident} B result"
    );
    assert_eq!(AnyMatrix::Bcsr4(bcsr).stored_bytes() as u64, resident);

    // DIA: offsets, data, and the slot map over the band (here offsets
    // -40..=40, far narrower than `rows + cols`).
    let band = smat_matrix::gen::banded::<f64>(5_000, &[-40, -1, 0, 1, 40], 0.9, 53);
    let ((blocks, bytes), dia) = tally(|| Dia::from_csr_with(&band, &limits).expect("fits"));
    let resident = dia.data().len() as u64 * 8 + dia.offsets().len() as u64 * W;
    assert!(blocks <= 5, "DIA conversion made {blocks} allocations");
    assert!(
        bytes <= resident + 81 * W,
        "DIA conversion requested {bytes} B for a {resident} B result"
    );
    assert_eq!(AnyMatrix::Dia(dia).stored_bytes() as u64, resident);
}

/// Compiling a hierarchy asks the allocator for one copy of each
/// operator and nothing level-sized beside it. A plain compile requests
/// its CSR copies, each level's diagonal, the dense LU of the coarsest
/// operator (values and pivots), the level vector and the kernel table,
/// to the byte. A tuned compile requests what its `prepare` calls ask
/// for (measured here one operator at a time, on the same warm decision
/// cache), the handles' boxes, a copy of the engine's kernel table and
/// the same per-level arrays: a second CSR copy of any `A` shows as
/// extra bytes in either.
fn compiles_allocate_one_copy_of_each_operator(hierarchy: &Hierarchy<f64>, engine: &Smat<f64>) {
    const W: u64 = std::mem::size_of::<usize>() as u64;
    let levels = &hierarchy.levels;
    let coarsest = levels.last().expect("non-empty hierarchy").a.rows() as u64;
    let per_level = levels.len() as u64 * std::mem::size_of::<CompiledLevel<f64>>() as u64
        + levels.iter().map(|l| l.a.rows() as u64 * 8).sum::<u64>()
        + coarsest * coarsest * 8
        + coarsest * W;
    let operators: Vec<&Csr<f64>> = levels
        .iter()
        .flat_map(|l| [Some(&l.a), l.p.as_ref(), l.r.as_ref()])
        .flatten()
        .collect();

    let ((_, table), _) = tally(KernelLibrary::<f64>::new);
    let ((_, bytes), plain) = tally(|| CompiledHierarchy::plain(hierarchy));
    let copies: u64 = plain
        .levels
        .iter()
        .flat_map(|l| [Some(&l.a), l.p.as_ref(), l.r.as_ref()])
        .flatten()
        .map(|op| match op {
            OpApply::Plain(m) => AnyMatrix::Csr(m.clone()).stored_bytes() as u64,
            OpApply::Tuned(_) => panic!("a plain compile tunes nothing"),
        })
        .sum();
    assert_eq!(
        bytes,
        copies + per_level + table,
        "a plain compile of {} levels requested {bytes} B",
        levels.len()
    );

    // The first tuned compile fills the decision cache, so the compile
    // measured and the prepares it is compared with replay the same
    // decisions.
    drop(CompiledHierarchy::with_smat(hierarchy, engine));
    let ((_, table), _) = tally(|| engine.library().clone());
    let prepared: u64 = operators
        .iter()
        .map(|m| tally(|| engine.prepare(m)).0 .1)
        .sum();
    let boxes = operators.len() as u64 * std::mem::size_of::<TunedSpmv<f64>>() as u64;
    let ((_, bytes), _) = tally(|| CompiledHierarchy::with_smat(hierarchy, engine));
    assert_eq!(
        bytes,
        prepared + boxes + per_level + table,
        "a tuned compile of {} levels requested {bytes} B",
        levels.len()
    );
}

/// The tuning estimator allocates its sample storage once per call: one
/// measurement asks the allocator for as many blocks at 64 rounds as at
/// one.
fn one_measurement_allocates_the_same_at_any_round_count() {
    let blocks = |rounds: usize| {
        let ((blocks, _), outcomes) = tally(|| {
            smat_kernels::measure_round_robin(
                3,
                |i| {
                    std::hint::black_box(i);
                },
                rounds..=rounds,
                Duration::ZERO,
                Duration::MAX,
                None,
            )
        });
        assert!(outcomes.iter().all(|o| o.ok().is_some()));
        blocks
    };
    assert_eq!(
        blocks(1),
        blocks(64),
        "a measurement's allocations grew with its round count"
    );
}

/// `base` with its rules replaced by one confident rule (`M > 0`) that
/// sends every input to `format`.
fn forced(base: &TrainedModel, format: Format) -> TrainedModel {
    let mut model = base.clone();
    model.ruleset.rules = vec![Rule {
        conditions: vec![Condition {
            attr: 0,
            op: Op::Gt,
            threshold: 0.0,
        }],
        class: format.index(),
        covered: 20,
        correct: 20,
    }];
    model.groups = RuleGroups::from_ruleset(&model.ruleset, &group_class_order());
    model
}

#[test]
fn warm_planned_spmv_allocates_nothing_and_spawns_nothing() {
    // --- Conversion tier: before any pool thread exists, so the counts
    // are this thread's alone.
    conversions_allocate_their_result_and_one_marker_array();
    one_measurement_allocates_the_same_at_any_round_count();

    // --- Kernel level: every builtin parallel variant through its plan.
    let lib = KernelLibrary::<f64>::new();
    let m = random_uniform::<f64>(500, 500, 9, 41);
    let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.21).cos()).collect();
    let mut y = vec![0.0f64; m.rows()];
    for format in Format::ALL {
        let Ok(any) = AnyMatrix::convert_from_csr(&m, format) else {
            continue;
        };
        for (v, info) in lib.variants(format).iter().enumerate() {
            if !info.strategies.contains(Strategy::Parallel) {
                continue;
            }
            let plan = lib.plan_for(
                &any,
                KernelId {
                    op: smat_kernels::Op::Spmv,
                    format,
                    variant: v,
                },
            );
            assert!(
                !plan.is_stale(),
                "a freshly built plan must match the live backend"
            );
            // Warm-up initializes the pool, the cached thread count and
            // any lazy statics; the measured window must then be silent.
            let (allocs, spawns) = audit(5, 100, || lib.run_planned(&any, v, &plan, &x, &mut y));
            assert_eq!(
                allocs, 0,
                "{}: heap allocations in warm planned dispatch",
                info.name
            );
            assert_eq!(spawns, 0, "{}: thread spawns in warm dispatch", info.name);
        }
    }

    // --- Serial fast path: a single-chunk plan must never touch the
    // pool. `run_planned` calls the kernel directly (no wake/park
    // handshake), so the pool's fan-out counter stays flat across the
    // whole sweep — for every variant of every format.
    let serial_probe = random_uniform::<f64>(300, 300, 7, 43);
    let xs: Vec<f64> = (0..serial_probe.cols())
        .map(|i| (i % 7) as f64 * 0.25)
        .collect();
    let mut ys = vec![0.0f64; serial_probe.rows()];
    for format in Format::ALL {
        let Ok(any) = AnyMatrix::convert_from_csr_with(
            &serial_probe,
            format,
            &smat_matrix::ConversionLimits::unlimited(),
        ) else {
            continue;
        };
        let serial = smat_kernels::ExecPlan::serial(serial_probe.rows());
        for (v, info) in lib.variants(format).iter().enumerate() {
            let d0 = smat_kernels::exec::dispatch_count();
            let (allocs, spawns) = audit(2, 20, || lib.run_planned(&any, v, &serial, &xs, &mut ys));
            assert_eq!(allocs, 0, "{}: allocations under a serial plan", info.name);
            assert_eq!(spawns, 0, "{}: spawns under a serial plan", info.name);
            assert_eq!(
                smat_kernels::exec::dispatch_count() - d0,
                0,
                "{}: pool dispatches under a serial plan",
                info.name
            );
        }
    }

    // --- Skewed tier: the nnz-balanced and merge-path plans that the
    // plan search hands out on power-law matrices. Both must replay
    // with the same silence as the uniform plans above — the merge
    // kernel's per-chunk carries live in a fixed stack array, and the
    // nnz-balanced bounds were frozen at build time.
    let skew = smat_matrix::gen::power_law::<f64>(2_000, 400, 2.0, 47);
    let skew_any = AnyMatrix::Csr(skew.clone());
    let xk: Vec<f64> = (0..skew.cols()).map(|i| (i % 11) as f64 * 0.125).collect();
    let mut yk = vec![0.0f64; skew.rows()];
    for (policy, name) in [
        (
            smat_kernels::ChunkPolicy::NnzBalanced,
            "csr_parallel_balanced",
        ),
        (smat_kernels::ChunkPolicy::MergePath, "csr_merge"),
    ] {
        let v = lib
            .variants(Format::Csr)
            .iter()
            .position(|info| info.name == name)
            .expect("builtin CSR variant");
        let plan = lib.build_plan_sized(&skew_any, policy, 4);
        assert_eq!(plan.policy, policy);
        let (allocs, spawns) = audit(5, 100, || {
            lib.run_planned(&skew_any, v, &plan, &xk, &mut yk)
        });
        assert_eq!(
            allocs, 0,
            "{name} under {policy}: allocations in warm replay"
        );
        assert_eq!(spawns, 0, "{name} under {policy}: spawns in warm replay");
    }

    // --- Engine level: a prepared handle replayed through `Smat::spmv`.
    // This path now crosses the execution-time containment boundary
    // (`catch_unwind`, the health call clock, the breaker attention
    // gate, the pool-ladder check): on the happy path all of it must
    // cost only relaxed atomics — zero allocations, zero spawns.
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(100, 31));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let out = Trainer::new(SmatConfig::fast())
        .train(&matrices)
        .expect("training succeeds");
    let engine =
        Smat::<f64>::with_config(out.model.clone(), SmatConfig::fast()).expect("precision ok");
    let m = random_uniform::<f64>(400, 400, 8, 42);
    let tuned = engine.prepare(&m);
    let x: Vec<f64> = (0..m.cols())
        .map(|i| 0.5 - (i % 5) as f64 * 0.125)
        .collect();
    let mut y = vec![0.0f64; m.rows()];
    let (allocs, spawns) = audit(5, 100, || {
        engine.spmv(&tuned, &x, &mut y).expect("prepared SpMV runs");
    });
    assert_eq!(allocs, 0, "heap allocations in warm prepared-engine SpMV");
    assert_eq!(spawns, 0, "thread spawns in warm prepared-engine SpMV");
    let report = engine.health_report();
    assert!(
        report.calls >= 105,
        "the containment boundary counted calls"
    );
    assert_eq!(report.exec_faults, 0, "no incident on the happy path");

    // --- AMG tier: compiling a hierarchy copies each operator once, and
    // a warmed V-cycle over it — plain and tuned operators, one and two
    // Jacobi sweeps — is smoothing sweeps (a coarser level's first sweep
    // from zero, without a product), residuals, transfers and one dense
    // coarse solve on the caller's vectors and the workspace's own,
    // every product through the paths audited above.
    let hierarchy = smat_amg::setup(
        smat_amg::laplacian::laplacian_2d_5pt::<f64>(48, 48),
        &AmgConfig::default(),
    );
    assert!(hierarchy.num_levels() >= 3, "the audit must cross levels");
    compiles_allocate_one_copy_of_each_operator(&hierarchy, &engine);
    let n = hierarchy.levels[0].a.rows();
    let rhs: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    for (operators, compiled) in [
        ("plain", CompiledHierarchy::plain(&hierarchy)),
        ("tuned", CompiledHierarchy::with_smat(&hierarchy, &engine)),
    ] {
        for sweeps in [1, 2] {
            let cfg = CycleConfig {
                pre_sweeps: sweeps,
                post_sweeps: sweeps,
            };
            let mut workspace = Workspace::new();
            let mut sol = vec![0.0f64; n];
            let (allocs, spawns) = audit(3, 30, || {
                compiled.v_cycle(&cfg, &rhs, &mut sol, &mut workspace)
            });
            assert_eq!(
                allocs, 0,
                "heap allocations in a warm cycle over {operators} operators: {cfg:?}"
            );
            assert_eq!(
                spawns, 0,
                "thread spawns in a warm cycle over {operators} operators: {cfg:?}"
            );
        }
    }

    // --- Batched tier: warm `Smat::spmm` replays the frozen SpMM pick
    // borrowed straight from the handle — no clone of the plan, no
    // per-call buffers — through the same containment boundary as SpMV.
    // Every format has a tier, so the audit holds a DIA, a COO, a HYB
    // and a CSR handle to it; each engine's one confident rule sends
    // every input to its format.
    let k = 4;
    for (format, a) in [
        (Format::Dia, banded::<f64>(600, &[-7, -1, 0, 1, 7], 1.0, 44)),
        (Format::Coo, power_law::<f64>(900, 200, 2.0, 45)),
        (Format::Hyb, random_skewed::<f64>(800, 800, 6, 0.05, 12, 46)),
        (Format::Csr, m.clone()),
    ] {
        let engine = Smat::<f64>::with_config(forced(&out.model, format), SmatConfig::fast())
            .expect("precision ok");
        let tuned = engine.prepare(&a);
        assert_eq!(tuned.format(), format, "the forced rule decides");
        let xb: Vec<f64> = (0..a.cols() * k)
            .map(|i| 0.5 - (i % 9) as f64 * 0.0625)
            .collect();
        let mut yb = vec![0.0f64; a.rows() * k];
        let (allocs, spawns) = audit(5, 100, || {
            engine
                .spmm(&tuned, &xb, &mut yb, k)
                .expect("prepared SpMM runs");
        });
        assert_eq!(
            allocs, 0,
            "{format}: heap allocations in warm prepared-engine SpMM"
        );
        assert_eq!(
            spawns, 0,
            "{format}: thread spawns in warm prepared-engine SpMM"
        );
        assert!(
            tuned.spmm_kernel().is_some(),
            "{format}: the first call attached a pick"
        );
        assert!(
            engine.health_report().spmm_calls >= 105,
            "the op-labeled call clock counted the batched calls"
        );
    }

    // --- Output screening enabled: the non-finite scan is a pure read
    // over `y` and must not change the zero-allocation contract.
    let screening = Smat::<f64>::with_config(
        out.model,
        SmatConfig {
            screen_outputs: true,
            ..SmatConfig::fast()
        },
    )
    .expect("precision ok");
    let tuned = screening.prepare(&m);
    let (allocs, spawns) = audit(5, 100, || {
        screening
            .spmv(&tuned, &x, &mut y)
            .expect("screened SpMV runs");
    });
    assert_eq!(allocs, 0, "heap allocations in warm screened SpMV");
    assert_eq!(spawns, 0, "thread spawns in warm screened SpMV");
    assert_eq!(screening.health_report().exec_faults, 0);

    // The audit is honest about its environment: record what actually
    // executed so a 1-core CI box (inline fallback, no fan-out) is
    // distinguishable from a real parallel run in the test log.
    eprintln!(
        "zero-alloc audit: backend threads = {}, total spawns = {}",
        smat_kernels::exec::num_threads(),
        smat_kernels::exec::spawn_count()
    );
}
