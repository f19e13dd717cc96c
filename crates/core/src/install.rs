//! The persisted installation phase.
//!
//! The paper's offline stage runs the §5.2 kernel search once per
//! machine — the scoreboard's verdict depends on the hardware, not on
//! any particular input matrix. This module serializes that verdict
//! (the per-format [`PerfTable`]s and the selected [`KernelChoice`]) to
//! a JSON file so the search cost is paid at *installation* rather than
//! once per process: [`Installation::load_or_run`] reloads the file
//! when present and regenerates + saves it when not, and
//! [`crate::Smat`] applies it automatically when
//! [`crate::SmatConfig::install_path`] is set.

use crate::config::SmatConfig;
use crate::error::Result;
use crate::retry::RetryPolicy;
use crate::sealed;
use crate::train::Trainer;
use serde::{Deserialize, Serialize};
use smat_kernels::{KernelChoice, KernelId, KernelLibrary, PerfTable};
use smat_matrix::Scalar;
use std::path::Path;

/// Version of the on-disk installation layout: bumped when a field is
/// added or changes meaning, so [`Installation::load_or_run`]
/// regenerates stale artifacts instead of trusting them. Changes to the
/// kernel library's variant numbering no longer need a bump — since
/// version 6 the artifact carries [`KernelLibrary::digest`] for that.
/// Version history:
///
/// * 1 — implicit (field absent): the original 5-format library.
/// * 2 — the implementation-variant tier: wide-unroll/SIMD variants
///   renumber CSR/ELL/DIA, and BCSR adds two formats.
/// * 3 — the merge-path tier: `csr_merge` appends to the CSR library
///   (indices are stable, but v2 search tables never measured it) and
///   execution plans grow a chunk-policy field.
/// * 4 — runtime health: the artifact records the quarantined-variant
///   set (kernels benched by the execution-time circuit breaker), so a
///   machine-specific bad kernel stays benched across processes. The
///   field is required (the vendored serde has no `#[serde(default)]`),
///   so schema-3 artifacts fail deserialization and regenerate.
/// * 5 — the multi-RHS (SpMM) tier: [`KernelId`] grows an `op`
///   dimension distinguishing SpMV from SpMM variants, and cached
///   decisions may carry an SpMM pick. Schema-4 artifacts serialized
///   op-less kernel ids, which no longer deserialize (no
///   `#[serde(default)]` in the vendored serde), so they regenerate.
/// * 6 — the artifact is stamped with the kernel library's row digest
///   ([`Installation::library_digest`]): variant indices are only
///   meaningful against the table they were searched on, so an
///   artifact from a build with different rows regenerates. The last
///   bump a kernel add/delete needs.
pub const INSTALL_SCHEMA_VERSION: u32 = 6;

/// The machine-specific artifact of the offline kernel search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Installation {
    /// On-disk layout version; see [`INSTALL_SCHEMA_VERSION`].
    pub schema: u32,
    /// Precision the search ran under ("single" or "double"); kernels
    /// behave differently per precision, so tables are not shared.
    pub precision: String,
    /// [`KernelLibrary::digest`] of the variant tables the search ran
    /// on — what `kernel_choice`, `tables` and `quarantined` index into.
    pub library_digest: u64,
    /// Probe-matrix dimension the search used.
    pub probe_dim: usize,
    /// The selected kernel variant per format.
    pub kernel_choice: KernelChoice,
    /// The full performance-record tables behind the selection, kept
    /// for diagnostics (the CLI's `install` report).
    pub tables: Vec<PerfTable>,
    /// Kernel variants quarantined by the execution-time circuit
    /// breaker on this machine. A loading engine seeds its breakers
    /// from this set (the variants stay benched until a half-open
    /// re-probe readmits them), and a tripping engine re-saves the
    /// artifact so the bench survives the process.
    pub quarantined: Vec<KernelId>,
}

impl Installation {
    /// Runs the kernel search now, without touching disk.
    pub fn run<T: Scalar>(config: &SmatConfig) -> Self {
        let lib = KernelLibrary::<T>::new();
        let (kernel_choice, tables) = Trainer::new(config.clone()).search_kernels(&lib);
        Installation {
            schema: INSTALL_SCHEMA_VERSION,
            precision: T::PRECISION_NAME.to_string(),
            library_digest: lib.digest(),
            probe_dim: config.probe_dim,
            kernel_choice,
            tables,
            quarantined: Vec::new(),
        }
    }

    /// Saves the installation as pretty JSON, sealed with a content
    /// checksum and written atomically (`<path>.tmp` + rename; see
    /// [`crate::sealed`]). Transient I/O failures are retried under the
    /// default [`SmatConfig`]'s policy.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SmatError::Persist`] on I/O or serialization
    /// failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        self.save_with(path.as_ref(), RetryPolicy::default())
    }

    /// [`Self::save`] under an engine's configured retry policy.
    pub(crate) fn save_with(&self, path: &Path, policy: RetryPolicy) -> Result<()> {
        sealed::save(self, path, "install.save", policy)
    }

    /// Loads a previously saved installation, verifying its checksum.
    /// Transient I/O failures are retried under the default
    /// [`SmatConfig`]'s policy.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SmatError::Persist`] on I/O or deserialization
    /// failure, and [`crate::SmatError::Corrupt`] when the file parses
    /// but its contents do not match the recorded checksum.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        Self::load_with(path.as_ref(), RetryPolicy::default())
    }

    fn load_with(path: &Path, policy: RetryPolicy) -> Result<Self> {
        sealed::load("installation artifact", path, "install.load", policy)
    }

    /// Whether this installation may steer a `T` engine of this build:
    /// same precision, same kernel-library rows.
    pub(crate) fn check_stamp<T: Scalar>(&self) -> Result<()> {
        let live = KernelLibrary::<T>::new().digest();
        sealed::check_stamp::<T>("installation", &self.precision, self.library_digest, live)
    }

    /// Loads the installation from `path` if it exists and matches this
    /// precision; otherwise runs the search and persists the result.
    /// The boolean is `true` when the table came from disk.
    ///
    /// A stale file — wrong precision, unreadable, failing checksum
    /// verification, from an earlier [`INSTALL_SCHEMA_VERSION`], or
    /// stamped with another build's [`KernelLibrary::digest`] (its
    /// variant indices refer to a different kernel numbering) — is
    /// regenerated rather than trusted. Pre-versioning artifacts
    /// fail deserialization outright (missing `schema` field, shorter
    /// per-format arrays) and take the same regeneration path.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SmatError::Persist`] only when *writing* a
    /// fresh installation fails after exhausting the configured
    /// [`crate::SmatConfig::persist_retries`] (transient I/O failures,
    /// reading or writing, are retried with backoff; permanent errors
    /// surface immediately); unreadable existing files fall back to
    /// regeneration.
    pub fn load_or_run<T: Scalar>(
        path: impl AsRef<Path>,
        config: &SmatConfig,
    ) -> Result<(Self, bool)> {
        let path = path.as_ref();
        let policy = RetryPolicy::from_config(config);
        if path.exists() {
            if let Ok(installed) = Self::load_with(path, policy) {
                if installed.schema == INSTALL_SCHEMA_VERSION
                    && installed.check_stamp::<T>().is_ok()
                {
                    return Ok((installed, true));
                }
            }
        }
        let fresh = Self::run::<T>(config);
        fresh.save_with(path, policy)?;
        Ok((fresh, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::Format;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("smat_install_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn save_load_round_trip() {
        let install = Installation::run::<f64>(&SmatConfig::fast());
        assert_eq!(install.precision, "double");
        assert_eq!(install.tables.len(), Format::COUNT);
        let path = tmp("roundtrip.json");
        install.save(&path).unwrap();
        let back = Installation::load(&path).unwrap();
        assert_eq!(back, install);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_or_run_reuses_the_file() {
        let path = tmp("reuse.json");
        std::fs::remove_file(&path).ok();
        let cfg = SmatConfig::fast();
        let (first, from_disk) = Installation::load_or_run::<f64>(&path, &cfg).unwrap();
        assert!(!from_disk, "first call must run the search");
        let (second, from_disk) = Installation::load_or_run::<f64>(&path, &cfg).unwrap();
        assert!(from_disk, "second call must reload");
        assert_eq!(second.kernel_choice, first.kernel_choice);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn precision_mismatch_regenerates() {
        let path = tmp("precision.json");
        std::fs::remove_file(&path).ok();
        let cfg = SmatConfig::fast();
        let (_, _) = Installation::load_or_run::<f64>(&path, &cfg).unwrap();
        // A single-precision engine must not adopt double-precision tables.
        let (single, from_disk) = Installation::load_or_run::<f32>(&path, &cfg).unwrap();
        assert!(!from_disk);
        assert_eq!(single.precision, "single");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_mismatch_is_corrupt_and_regenerates() {
        let path = tmp("tampered.json");
        std::fs::remove_file(&path).ok();
        let install = Installation::run::<f64>(&SmatConfig::fast());
        install.save(&path).unwrap();
        // Tamper with the payload without refreshing the checksum: steer
        // the recorded probe dimension (valid JSON, wrong contents).
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen(
            &format!("\"probe_dim\": {}", install.probe_dim),
            "\"probe_dim\": 31337",
            1,
        );
        assert_ne!(text, tampered, "tamper target must exist in the file");
        std::fs::write(&path, tampered).unwrap();
        let err = Installation::load(&path).unwrap_err();
        assert!(
            matches!(err, crate::SmatError::Corrupt { .. }),
            "got {err:?}"
        );
        // load_or_run quarantines the tampered file by regenerating it.
        let (fresh, from_disk) =
            Installation::load_or_run::<f64>(&path, &SmatConfig::fast()).unwrap();
        assert!(!from_disk);
        assert_eq!(fresh.probe_dim, SmatConfig::fast().probe_dim);
        assert!(Installation::load(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_schema_regenerates() {
        let path = tmp("stale_schema.json");
        std::fs::remove_file(&path).ok();
        let mut old = Installation::run::<f64>(&SmatConfig::fast());
        // A previous-version artifact's search tables predate the
        // current kernel library; re-sealing it with a valid checksum
        // makes the schema check (not checksum verification) the thing
        // under test.
        old.schema = INSTALL_SCHEMA_VERSION - 1;
        old.save(&path).unwrap();
        assert_eq!(
            Installation::load(&path).unwrap().schema,
            INSTALL_SCHEMA_VERSION - 1
        );
        let (fresh, from_disk) =
            Installation::load_or_run::<f64>(&path, &SmatConfig::fast()).unwrap();
        assert!(!from_disk, "a stale schema must trigger a fresh search");
        assert_eq!(fresh.schema, INSTALL_SCHEMA_VERSION);
        assert_eq!(
            Installation::load(&path).unwrap().schema,
            INSTALL_SCHEMA_VERSION,
            "the stale file must be replaced on disk"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_leaves_no_tmp_file() {
        let path = tmp("atomic.json");
        std::fs::remove_file(&path).ok();
        Installation::run::<f64>(&SmatConfig::fast())
            .save(&path)
            .unwrap();
        let tmp_sibling = path.with_extension("json.tmp");
        assert!(!tmp_sibling.exists(), "temp file must be renamed away");
        assert!(path.exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_file_regenerates() {
        let path = tmp("corrupt.json");
        std::fs::write(&path, "{ not json").unwrap();
        let (fresh, from_disk) =
            Installation::load_or_run::<f64>(&path, &SmatConfig::fast()).unwrap();
        assert!(!from_disk);
        assert_eq!(fresh.precision, "double");
        // The bad file was replaced with a loadable one.
        assert!(Installation::load(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }
}
