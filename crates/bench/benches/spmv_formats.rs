//! Kernel-level micro-benchmarks: every implementation variant of every
//! format on a format-friendly medium matrix.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use smat_kernels::KernelLibrary;
use smat_matrix::gen::{
    banded, block_sparse, fixed_degree, power_law, random_skewed, random_uniform,
};
use smat_matrix::{AnyMatrix, Csr, Format};

fn probe(format: Format) -> Csr<f64> {
    let n = 20_000;
    match format {
        Format::Dia => banded(n, &[-65, -64, -1, 0, 1, 64, 65], 1.0, 1),
        Format::Ell => fixed_degree(n, n, 12, 0, 2),
        Format::Csr => random_uniform(n, n, 12, 3),
        Format::Coo => power_law(n, 2_000, 2.0, 4),
        Format::Hyb => random_skewed(n, n, 10, 0.05, 12, 5),
        Format::Bcsr2 => block_sparse(n, 2, 8, 6),
        Format::Bcsr4 => block_sparse(n, 4, 4, 7),
    }
}

fn bench_formats(c: &mut Criterion) {
    let lib = KernelLibrary::<f64>::new();
    for format in Format::ALL {
        let csr = probe(format);
        let any = AnyMatrix::convert_from_csr(&csr, format).expect("friendly probe converts");
        let x = vec![1.0f64; csr.cols()];
        let mut y = vec![0.0f64; csr.rows()];
        let mut group = c.benchmark_group(format!("spmv_{}", format.name().to_lowercase()));
        group.throughput(Throughput::Elements(csr.nnz() as u64));
        for (v, info) in lib.variants(format).iter().enumerate() {
            group.bench_with_input(BenchmarkId::from_parameter(info.name), &v, |b, &v| {
                b.iter(|| lib.run(&any, v, &x, &mut y));
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_formats
}
criterion_main!(benches);
