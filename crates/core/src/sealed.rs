//! The one sealed-artifact path: every tuning artifact this crate
//! writes — the installation, the tuning-cache snapshot, the trained
//! model — reaches disk through [`save`] and comes back through
//! [`load`].
//!
//! On disk an artifact is an envelope: the payload plus an FNV-1a
//! checksum of the payload's canonical (compact JSON) rendering, written
//! as pretty JSON through an atomic `<path>.tmp` + rename
//! ([`smat_learn::save_json`]). A file that parses but was edited or
//! truncated fails verification on load ([`SmatError::Corrupt`])
//! instead of silently steering every SpMV onto the wrong kernels.
//! Artifacts that address kernels by variant index also carry the
//! precision and kernel-library digest they were produced under;
//! [`check_stamp`] verifies those, in that order, after the checksum.
//!
//! Each whole-artifact step is retried on transient I/O failures
//! ([`crate::PERSIST_RETRIES`] times), and its `site` names both the retry
//! label and the failpoint that scripts such a failure (`install.save`,
//! `install.load`, `cache.persist`, `cache.load`, `model.save`,
//! `model.load`), ahead of the finer `persist.*` sites inside the JSON
//! layer.

use crate::error::{Result, SmatError};
use crate::integrity::fnv1a64;
use crate::retry::retry_transient;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use smat_learn::PersistError;
use smat_matrix::Scalar;
use std::path::Path;

/// The on-disk envelope.
#[derive(Serialize, Deserialize)]
struct Sealed<P> {
    /// FNV-1a over the compact-JSON serialization of `payload`.
    checksum: u64,
    payload: P,
}

/// The checksum input is the payload's compact JSON rendering: struct
/// serialization order is fixed, so it is deterministic across a
/// save/load round trip.
fn checksum<P: Serialize>(payload: &P) -> Result<u64> {
    let canonical = serde_json::to_string(payload).map_err(PersistError::from)?;
    Ok(fnv1a64(canonical.as_bytes()))
}

/// One whole-artifact I/O step under the retry loop and the `site`
/// failpoint.
fn io<R>(
    site: &'static str,
    mut step: impl FnMut() -> std::result::Result<R, PersistError>,
) -> Result<R> {
    retry_transient(site, || {
        if let Some(fault) = smat_failpoints::check(site) {
            return Err(SmatError::Persist(PersistError::Io(fault.into())));
        }
        Ok(step()?)
    })
}

/// Seals `payload` and writes it to `path` atomically.
///
/// # Errors
///
/// Returns [`SmatError::Persist`] on serialization failure, or when
/// writing still fails after the retries.
pub(crate) fn save<P: Serialize>(payload: &P, path: &Path, site: &'static str) -> Result<()> {
    let sealed = Sealed {
        checksum: checksum(payload)?,
        payload,
    };
    io(site, || smat_learn::save_json(&sealed, path))
}

/// Reads the artifact at `path` and verifies its checksum. `what`
/// names the artifact kind in the error.
///
/// # Errors
///
/// Returns [`SmatError::Persist`] when reading still fails after the
/// retries or the file does not parse as a sealed `P`, and
/// [`SmatError::Corrupt`] when it parses but its contents do not match
/// the recorded checksum.
pub(crate) fn load<P: Serialize + DeserializeOwned>(
    what: &str,
    path: &Path,
    site: &'static str,
) -> Result<P> {
    let sealed: Sealed<P> = io(site, || smat_learn::load_json(path))?;
    let actual = checksum(&sealed.payload)?;
    if actual != sealed.checksum {
        return Err(SmatError::Corrupt {
            what: format!("{what} {}", path.display()),
            detail: format!(
                "checksum mismatch: recorded {:#018x}, contents hash to {actual:#018x}",
                sealed.checksum
            ),
        });
    }
    Ok(sealed.payload)
}

/// Refuses an artifact produced under the other precision, or whose
/// kernel indices were recorded against other variant tables than this
/// build's (`live`, a [`smat_kernels::KernelLibrary::digest`]):
/// replaying them would run a different kernel, or index out of range
/// on every call.
///
/// # Errors
///
/// Returns [`SmatError::PrecisionMismatch`], then [`SmatError::Corrupt`].
pub(crate) fn check_stamp<T: Scalar>(
    what: &str,
    precision: &str,
    library_digest: u64,
    live: u64,
) -> Result<()> {
    if precision != T::PRECISION_NAME {
        return Err(SmatError::PrecisionMismatch {
            model: precision.to_string(),
            data: T::PRECISION_NAME,
        });
    }
    if library_digest != live {
        return Err(SmatError::Corrupt {
            what: what.to_string(),
            detail: format!(
                "written under kernel library digest {library_digest:#018x}, this build's is \
                 {live:#018x}; its variant indices name different kernels"
            ),
        });
    }
    Ok(())
}
