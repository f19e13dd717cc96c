//! Small helpers the workloads share: engines on the pinned model,
//! product verification, decision bookkeeping.

use crate::harness::Ctx;
use crate::inputs::Input;
use crate::pinned;
use smat::{DecisionPath, Smat, SmatConfig, TrainedModel, TunedSpmv};
use smat_matrix::Csr;
use std::collections::BTreeMap;
use std::time::Instant;

/// Seconds `f` took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The engine throughput is measured on: the pinned model under the
/// default configuration (default confidence threshold, so a matched
/// rule takes the `Predicted` path).
pub fn throughput_engine(model: &TrainedModel) -> Result<Smat<f64>, String> {
    Smat::with_config(model.clone(), SmatConfig::default())
        .map_err(|e| format!("building the throughput engine: {e}"))
}

/// An engine that can never trust a rule (`confidence_threshold` above
/// any confidence), so every `prepare` runs execute-and-measure.
pub fn measuring_engine(model: &TrainedModel) -> Result<Smat<f64>, String> {
    let config = SmatConfig {
        confidence_threshold: 1.1,
        ..SmatConfig::default()
    };
    Smat::with_config(model.clone(), config).map_err(|e| format!("building the measuring engine: {e}"))
}

/// `y = A x` by the plain CSR loop: the reference every tuned or wire
/// product is compared with.
pub fn reference_product(m: &Csr<f64>, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; m.rows()];
    m.spmv(x, &mut y).expect("reference vectors are sized to the matrix");
    y
}

/// Whether `got` equals `want` to 1e-9, absolute for small entries and
/// relative for large ones.
pub fn products_agree(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= 1e-9 * w.abs().max(1.0))
}

/// Row-major `k`-column block built from `k` shifted copies of `x`
/// (column `j` is `x` rotated by `j`), and the reference block.
pub fn spmm_block(x: &[f64], k: usize) -> Vec<f64> {
    let n = x.len();
    let mut block = vec![0.0; n * k];
    for i in 0..n {
        for j in 0..k {
            block[i * k + j] = x[(i + j) % n];
        }
    }
    block
}

/// Reference for a row-major `k`-column `spmm`.
pub fn reference_block(m: &Csr<f64>, x: &[f64], k: usize) -> Vec<f64> {
    let mut out = vec![0.0; m.rows() * k];
    let mut column = vec![0.0; m.cols()];
    for j in 0..k {
        for (i, slot) in column.iter_mut().enumerate() {
            *slot = x[i * k + j];
        }
        let y = reference_product(m, &column);
        for (i, v) in y.iter().enumerate() {
            out[i * k + j] = *v;
        }
    }
    out
}

/// Tally of how decisions were reached, and how many differ from the
/// recorded expectation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Decisions {
    pub predicted: u64,
    pub measured: u64,
    pub cached: u64,
    pub degraded: u64,
    pub drift: u64,
}

impl Decisions {
    /// Counts the path one decision took.
    pub fn tally(&mut self, tuned: &TunedSpmv<f64>) {
        match tuned.decision() {
            DecisionPath::Predicted { .. } => self.predicted += 1,
            DecisionPath::Measured { .. } => self.measured += 1,
            DecisionPath::Cached { .. } => self.cached += 1,
            DecisionPath::Degraded { .. } => self.degraded += 1,
        }
    }

    /// Holds one decision of the throughput engine against the pinned
    /// state: it must come from the `Predicted` path and, for an input
    /// the fixture names, equal the recorded `(format, kernel)`.
    /// Anything else is drift.
    pub fn expect_pinned(
        &mut self,
        engine: &Smat<f64>,
        input: &Input,
        tuned: &TunedSpmv<f64>,
        expected: &BTreeMap<String, (String, String)>,
    ) {
        let on_path = matches!(tuned.decision().source(), DecisionPath::Predicted { .. });
        let as_recorded = expected.get(&input.name).is_none_or(|(format, kernel)| {
            tuned.format().name() == format && engine.library().info(tuned.kernel()).name == kernel
        });
        if !on_path || !as_recorded {
            self.drift += 1;
        }
    }

    pub fn publish(&self, ctx: &mut Ctx) {
        ctx.set("core.decisions_predicted", self.predicted as f64);
        ctx.set("core.decisions_measured", self.measured as f64);
        ctx.set("core.decisions_cached", self.cached as f64);
        ctx.set("core.decisions_degraded", self.degraded as f64);
        ctx.set("core.decision_drift", self.drift as f64);
        if self.drift > 0 {
            eprintln!(
                "e2e: {} decision(s) differ from fixtures/expected_decisions.txt or left the \
                 Predicted path; numbers are not comparable with the recorded baseline",
                self.drift
            );
        }
    }
}

/// The recorded `(format, kernel)` expectations.
pub fn expected_decisions() -> Result<BTreeMap<String, (String, String)>, String> {
    pinned::parse_expected_decisions(pinned::EXPECTED_DECISIONS_FIXTURE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::gen::random_uniform;

    #[test]
    fn agreement_is_relative_for_large_and_absolute_for_small_entries() {
        assert!(products_agree(&[1e12 + 1.0], &[1e12]));
        assert!(products_agree(&[1e-12], &[0.0]));
        assert!(!products_agree(&[1.0 + 1e-6], &[1.0]));
        assert!(!products_agree(&[1.0], &[1.0, 2.0]));
    }

    #[test]
    fn reference_block_matches_column_products() {
        let m = random_uniform::<f64>(30, 20, 4, 3);
        let x: Vec<f64> = (0..20).map(|i| i as f64 * 0.5 - 3.0).collect();
        let block = spmm_block(&x, 3);
        let want = reference_block(&m, &block, 3);
        for j in 0..3 {
            let column: Vec<f64> = (0..20).map(|i| block[i * 3 + j]).collect();
            let y = reference_product(&m, &column);
            for i in 0..30 {
                assert_eq!(want[i * 3 + j], y[i]);
            }
        }
    }
}
