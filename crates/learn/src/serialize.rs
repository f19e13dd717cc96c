//! JSON persistence for trained artifacts.
//!
//! The paper's model "is generated once in off-line stage, and used
//! repeatedly for different input matrices" — which requires saving it to
//! disk. JSON keeps the rules human-inspectable (they are IF-THEN
//! sentences at heart).

use serde::de::DeserializeOwned;
use serde::Serialize;
use std::error::Error;
use std::fmt;
use std::path::Path;

/// Error saving or loading a learned artifact.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Json(e) => write!(f, "json error: {e}"),
        }
    }
}

impl Error for PersistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Json(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Json(e)
    }
}

/// Saves any serializable artifact as pretty JSON.
///
/// The write is atomic: the JSON goes to a `<path>.tmp` sibling first
/// and is renamed into place, so a crash mid-write can never leave a
/// half-written file that a later loader would trust.
///
/// # Errors
///
/// Returns [`PersistError`] on I/O or serialization failure.
pub fn save_json<T: Serialize>(value: &T, path: impl AsRef<Path>) -> Result<(), PersistError> {
    let path = path.as_ref();
    let text = serde_json::to_string_pretty(value)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    // Failpoints `persist.write` / `persist.rename`: scripted failures
    // before the tmp write and between write and rename, the two spots
    // where a crash tests the atomicity claim above.
    let write_then_rename = || -> std::io::Result<()> {
        if let Some(fault) = smat_failpoints::check("persist.write") {
            return Err(fault.into());
        }
        std::fs::write(&tmp, &text)?;
        if let Some(fault) = smat_failpoints::check("persist.rename") {
            return Err(fault.into());
        }
        std::fs::rename(&tmp, path)
    };
    if let Err(e) = write_then_rename() {
        // Best-effort cleanup so a failed save does not litter.
        std::fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    Ok(())
}

/// Loads a JSON artifact.
///
/// # Errors
///
/// Returns [`PersistError`] on I/O or deserialization failure.
pub fn load_json<T: DeserializeOwned>(path: impl AsRef<Path>) -> Result<T, PersistError> {
    if let Some(fault) = smat_failpoints::check("persist.read") {
        return Err(PersistError::Io(fault.into()));
    }
    let text = std::fs::read_to_string(path)?;
    Ok(serde_json::from_str(&text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::order::RuleGroups;
    use crate::rules::RuleSet;
    use crate::tree::{DecisionTree, TreeParams};

    fn fixture() -> (DecisionTree, RuleSet, Dataset) {
        let mut ds = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()]);
        for i in 0..30 {
            ds.push(vec![i as f64], usize::from(i >= 15)).unwrap();
        }
        let tree = DecisionTree::fit(&ds, TreeParams::default());
        let rs = RuleSet::from_tree(&tree, &ds);
        (tree, rs, ds)
    }

    #[test]
    fn tree_round_trip() {
        let (tree, _, _) = fixture();
        let dir = std::env::temp_dir().join("smat_learn_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.json");
        save_json(&tree, &path).unwrap();
        let back: DecisionTree = load_json(&path).unwrap();
        assert_eq!(back, tree);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ruleset_and_groups_round_trip() {
        let (_, rs, _) = fixture();
        let dir = std::env::temp_dir().join("smat_learn_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("rules.json");
        save_json(&rs, &p1).unwrap();
        assert_eq!(load_json::<RuleSet>(&p1).unwrap(), rs);

        let groups = RuleGroups::from_ruleset(&rs, &[0, 1]);
        let p2 = dir.join("groups.json");
        save_json(&groups, &p2).unwrap();
        assert_eq!(load_json::<RuleGroups>(&p2).unwrap(), groups);
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = load_json::<DecisionTree>("/nonexistent/path/tree.json").unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
        assert!(err.source().is_some());
    }

    #[test]
    fn load_garbage_is_json_error() {
        let dir = std::env::temp_dir().join("smat_learn_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json at all").unwrap();
        let err = load_json::<DecisionTree>(&path).unwrap_err();
        assert!(matches!(err, PersistError::Json(_)));
        std::fs::remove_file(&path).ok();
    }
}
