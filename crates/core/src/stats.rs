//! Accuracy and overhead analysis — the machinery behind the paper's
//! Table 3 and the §7.3 accuracy numbers.

use crate::runtime::{DecisionPath, Smat, TunedSpmv};
use crate::train::label_best_format;
use smat_kernels::timing::{gflops, measure_round_robin};
use smat_matrix::{Csr, Format, Scalar};
use std::time::Duration;

/// One row of the Table 3 analysis for a single matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisRow {
    /// Matrix name.
    pub name: String,
    /// Format the model predicted confidently, if any ("Model Prediction
    /// Format"; `None` renders as "confidence < TH").
    pub model_prediction: Option<Format>,
    /// Formats benchmarked by the fallback ("Execution"; empty when the
    /// prediction was trusted).
    pub executed: Vec<Format>,
    /// The format SMAT finally used ("SMAT Prediction Format").
    pub smat_format: Format,
    /// The exhaustively measured best format ("Actual Best Format").
    pub best_format: Format,
    /// Whether SMAT's choice matches the exhaustive best ("Model
    /// Accuracy" R/W).
    pub correct: bool,
    /// Tuning overhead in multiples of one basic CSR SpMV ("SMAT
    /// Overhead").
    pub overhead: f64,
    /// Throughput of the tuned SpMV.
    pub smat_gflops: f64,
    /// Exhaustive per-format throughputs, indexed by [`Format::index`].
    pub format_gflops: [f64; Format::COUNT],
}

/// Floor of `run` over as many samples as `budget` buys (zero if it
/// panicked).
fn floor_within(budget: Duration, mut run: impl FnMut()) -> Duration {
    measure_round_robin(1, |_| run(), 3..=32, budget, Duration::MAX, None)[0]
        .ok()
        .unwrap_or_default()
}

/// Measures the time of one basic (serial, unoptimized) CSR SpMV — the
/// denominator of the paper's overhead metric.
pub fn basic_csr_time<T: Scalar>(m: &Csr<T>, budget: Duration) -> Duration {
    let x = vec![T::ONE; m.cols()];
    let mut y = vec![T::ZERO; m.rows()];
    floor_within(budget, || smat_kernels::csr::basic(m, &x, &mut y))
}

/// Measures the tuned SpMV's throughput.
pub fn tuned_gflops<T: Scalar>(engine: &Smat<T>, tuned: &TunedSpmv<T>, budget: Duration) -> f64 {
    let m = tuned.matrix();
    let x = vec![T::ONE; m.cols()];
    let mut y = vec![T::ZERO; m.rows()];
    let run = || engine.spmv(tuned, &x, &mut y).expect("sized vectors");
    gflops(m.nnz(), floor_within(budget, run))
}

/// Runs the full Table 3 analysis for one matrix: SMAT's decision path,
/// the exhaustive ground truth, and the overhead ratio.
pub fn analyze<T: Scalar>(
    engine: &Smat<T>,
    name: &str,
    m: &Csr<T>,
    budget: Duration,
) -> AnalysisRow {
    let tuned = engine.prepare(m);
    // Unwrap a cache replay to the decision that populated the entry,
    // so a Table 3 row describes how the choice was made, not how it
    // was served.
    let (model_prediction, executed) = match tuned.decision().source() {
        DecisionPath::Predicted { .. } => (Some(tuned.format()), Vec::new()),
        DecisionPath::Measured { candidates, .. } => {
            (None, candidates.iter().map(|&(f, _)| f).collect())
        }
        // Degraded: nothing was predicted and nothing was successfully
        // measured; the row reports CSR with no executed candidates.
        DecisionPath::Degraded { .. } => (None, Vec::new()),
        DecisionPath::Cached { .. } => unreachable!("source() unwraps Cached"),
    };
    let (best_format, format_gflops) =
        label_best_format(engine.library(), &engine.model().kernel_choice, m, budget);
    let base = basic_csr_time(m, budget);
    let overhead = if base.is_zero() {
        0.0
    } else {
        tuned.prepare_time().as_secs_f64() / base.as_secs_f64()
    };
    AnalysisRow {
        name: name.to_string(),
        model_prediction,
        executed,
        smat_format: tuned.format(),
        best_format,
        correct: tuned.format() == best_format,
        overhead,
        smat_gflops: tuned_gflops(engine, &tuned, budget),
        format_gflops,
    }
}

/// Overall prediction accuracy over a set of matrices (the §7.3 metric:
/// fraction of matrices where SMAT lands on the exhaustive best format).
pub fn accuracy<T: Scalar>(
    engine: &Smat<T>,
    matrices: &[(String, &Csr<T>)],
    budget: Duration,
) -> (f64, Vec<AnalysisRow>) {
    let rows: Vec<AnalysisRow> = matrices
        .iter()
        .map(|(name, m)| analyze(engine, name, m, budget))
        .collect();
    let correct = rows.iter().filter(|r| r.correct).count();
    let acc = if rows.is_empty() {
        1.0
    } else {
        correct as f64 / rows.len() as f64
    };
    (acc, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SmatConfig;
    use crate::train::Trainer;
    use smat_matrix::gen::{power_law, random_uniform, tridiagonal};

    fn engine() -> Smat<f64> {
        let trainer = Trainer::new(SmatConfig::fast());
        let a = tridiagonal::<f64>(500);
        let b = random_uniform::<f64>(400, 400, 8, 1);
        let c = power_law::<f64>(400, 80, 2.0, 2);
        let out = trainer.train(&[&a, &b, &c, &a, &b, &c]).unwrap();
        Smat::with_config(out.model, SmatConfig::fast()).unwrap()
    }

    #[test]
    fn analysis_row_is_internally_consistent() {
        let e = engine();
        let m = tridiagonal::<f64>(800);
        let row = analyze(&e, "tri", &m, Duration::from_micros(300));
        assert_eq!(row.name, "tri");
        assert_eq!(row.correct, row.smat_format == row.best_format);
        assert!(row.overhead > 0.0);
        assert!(row.smat_gflops > 0.0);
        assert!(row.format_gflops[row.best_format.index()] > 0.0);
        match row.model_prediction {
            Some(f) => assert_eq!(f, row.smat_format),
            None => assert!(!row.executed.is_empty()),
        }
    }

    #[test]
    fn accuracy_counts_matches() {
        let e = engine();
        let m1 = tridiagonal::<f64>(600);
        let m2 = random_uniform::<f64>(500, 500, 6, 7);
        let set = vec![("m1".to_string(), &m1), ("m2".to_string(), &m2)];
        let (acc, rows) = accuracy(&e, &set, Duration::from_micros(300));
        assert_eq!(rows.len(), 2);
        let manual = rows.iter().filter(|r| r.correct).count() as f64 / 2.0;
        assert_eq!(acc, manual);
    }

    #[test]
    fn basic_csr_time_is_positive() {
        let m = tridiagonal::<f64>(1000);
        assert!(basic_csr_time(&m, Duration::from_micros(200)) > Duration::ZERO);
    }
}
