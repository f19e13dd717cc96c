//! Matrix Market (`.mtx`) reader and writer.
//!
//! The UF sparse matrix collection the paper trains on is distributed in
//! this format; supporting it lets real collection matrices be dropped
//! into the synthetic corpus or the benchmark suite.
//!
//! Supported header: `%%MatrixMarket matrix coordinate
//! {real|integer|pattern} {general|symmetric|skew-symmetric}`. Complex
//! matrices are rejected — the paper likewise "exclude\[s\] the matrices
//! with complex values".

use crate::error::{MatrixError, Result};
use crate::{Csr, Scalar};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Most triplets reserved ahead of the entries actually read: a size
/// line may declare any count, and the buffer grows by doubling past
/// this.
const RESERVE_AHEAD: usize = 1 << 16;

/// Value field of a Matrix Market file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MmField {
    Real,
    Integer,
    Pattern,
}

/// Symmetry of a Matrix Market file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MmSymmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Reads a sparse matrix in Matrix Market coordinate format.
///
/// Symmetric and skew-symmetric files are expanded to their full (general)
/// form, mirroring how SpMV libraries consume them. `pattern` files get
/// value `1.0` for every entry.
///
/// # Errors
///
/// Returns [`MatrixError::Parse`] on malformed input (bad header, complex
/// field, array format, short lines, out-of-range indices, a size line
/// past the `u32` index range or declaring more entries than
/// `rows x cols`) and [`MatrixError::Io`] on read failures.
///
/// # Examples
///
/// ```
/// use smat_matrix::io::{read_matrix_market, write_matrix_market};
///
/// let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 2 2.5\n";
/// let m = read_matrix_market::<f64, _>(text.as_bytes())?;
/// assert_eq!(m.get(0, 0), Some(1.5));
///
/// let mut out = Vec::new();
/// write_matrix_market(&m, &mut out)?;
/// let back = read_matrix_market::<f64, _>(&out[..])?;
/// assert_eq!(back, m);
/// # Ok::<(), smat_matrix::MatrixError>(())
/// ```
pub fn read_matrix_market<T: Scalar, R: Read>(reader: R) -> Result<Csr<T>> {
    // Failpoint `io.read`: lets tests script read failures (torn
    // streams, flaky mounts) without a faulty reader implementation.
    if let Some(fault) = smat_failpoints::check("io.read") {
        return Err(MatrixError::Io(fault.into()));
    }
    let mut lines = BufReader::new(reader).lines().enumerate();

    // Header line.
    let (lno, header) = match lines.next() {
        Some((i, l)) => (i + 1, l?),
        None => {
            return Err(MatrixError::Parse {
                line: 1,
                message: "empty file".into(),
            })
        }
    };
    // The spec prints `%%MatrixMarket` in mixed case and real-world
    // corpora mix qualifier casings (`Real`/`real`, `SYMMETRIC`), so
    // every token is matched case-insensitively. Errors quote the
    // token as written in the file, not a normalized copy.
    let toks: Vec<&str> = header.split_whitespace().collect();
    if toks.len() < 5
        || !toks[0].eq_ignore_ascii_case("%%matrixmarket")
        || !toks[1].eq_ignore_ascii_case("matrix")
    {
        return Err(MatrixError::Parse {
            line: lno,
            message: format!("bad header: {header:?}"),
        });
    }
    if !toks[2].eq_ignore_ascii_case("coordinate") {
        return Err(MatrixError::Parse {
            line: lno,
            message: format!(
                "unsupported format {:?}, only coordinate is supported",
                toks[2]
            ),
        });
    }
    let field = if toks[3].eq_ignore_ascii_case("real") {
        MmField::Real
    } else if toks[3].eq_ignore_ascii_case("integer") {
        MmField::Integer
    } else if toks[3].eq_ignore_ascii_case("pattern") {
        MmField::Pattern
    } else {
        return Err(MatrixError::Parse {
            line: lno,
            message: format!(
                "unsupported field {:?} (complex matrices are excluded)",
                toks[3]
            ),
        });
    };
    let symmetry = if toks[4].eq_ignore_ascii_case("general") {
        MmSymmetry::General
    } else if toks[4].eq_ignore_ascii_case("symmetric") {
        MmSymmetry::Symmetric
    } else if toks[4].eq_ignore_ascii_case("skew-symmetric") {
        MmSymmetry::SkewSymmetric
    } else {
        return Err(MatrixError::Parse {
            line: lno,
            message: format!("unsupported symmetry {:?}", toks[4]),
        });
    };

    // Size line (skipping comments / blanks).
    let (mut rows, mut cols) = (0usize, 0usize);
    let mut size_seen = false;
    let mut nnz_declared = 0usize;
    let mut entries_read = 0usize;
    let mut last_lno = lno;
    let mut triplets: Vec<(usize, usize, T)> = Vec::new();
    for (i, line) in lines {
        let lno = i + 1;
        last_lno = lno;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        if !size_seen {
            let mut it = trimmed.split_whitespace();
            rows = parse_usize(it.next(), lno)?;
            cols = parse_usize(it.next(), lno)?;
            nnz_declared = parse_usize(it.next(), lno)?;
            size_seen = true;
            check_size_line(rows, cols, nnz_declared, lno)?;
            triplets.reserve(nnz_declared.min(RESERVE_AHEAD));
            continue;
        }
        entries_read += 1;
        let mut it = trimmed.split_whitespace();
        let r = parse_usize(it.next(), lno)?;
        let c = parse_usize(it.next(), lno)?;
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(MatrixError::Parse {
                line: lno,
                message: format!("entry ({r}, {c}) outside 1..={rows} x 1..={cols}"),
            });
        }
        let v = match field {
            MmField::Pattern => T::ONE,
            MmField::Real | MmField::Integer => {
                let tok = it.next().ok_or_else(|| MatrixError::Parse {
                    line: lno,
                    message: "missing value".into(),
                })?;
                let f: f64 = tok.parse().map_err(|_| MatrixError::Parse {
                    line: lno,
                    message: format!("bad value {tok:?}"),
                })?;
                // Rust's float parser accepts "nan"/"inf" tokens;
                // admitting them here would poison every downstream
                // measurement and tuned product, so they are rejected
                // at the boundary.
                if !f.is_finite() {
                    return Err(MatrixError::Parse {
                        line: lno,
                        message: format!("non-finite value {tok:?} (matrix values must be finite)"),
                    });
                }
                T::from_f64(f)
            }
        };
        let (r, c) = (r - 1, c - 1);
        triplets.push((r, c, v));
        match symmetry {
            MmSymmetry::General => {}
            MmSymmetry::Symmetric => {
                if r != c {
                    triplets.push((c, r, v));
                }
            }
            MmSymmetry::SkewSymmetric => {
                if r != c {
                    triplets.push((c, r, -v));
                }
            }
        }
    }
    if !size_seen {
        return Err(MatrixError::Parse {
            line: lno + 1,
            message: "missing size line".into(),
        });
    }
    if entries_read != nnz_declared {
        return Err(MatrixError::Parse {
            line: last_lno,
            message: format!(
                "truncated or padded file: header declares {nnz_declared} entries, found {entries_read}"
            ),
        });
    }
    Csr::from_triplets(rows, cols, &triplets)
}

/// Refuses a size line no matrix can satisfy before anything is sized
/// from it: indices past `u32::MAX`, or more entries than positions.
fn check_size_line(rows: usize, cols: usize, nnz: usize, line: usize) -> Result<()> {
    let message = if rows > u32::MAX as usize || cols > u32::MAX as usize {
        format!("size {rows} x {cols} exceeds the u32 index range")
    } else if nnz as u128 > rows as u128 * cols as u128 {
        format!("{nnz} entries declared for a {rows} x {cols} matrix")
    } else {
        return Ok(());
    };
    Err(MatrixError::Parse { line, message })
}

fn parse_usize(tok: Option<&str>, line: usize) -> Result<usize> {
    let tok = tok.ok_or_else(|| MatrixError::Parse {
        line,
        message: "line too short".into(),
    })?;
    tok.parse().map_err(|_| MatrixError::Parse {
        line,
        message: format!("expected integer, found {tok:?}"),
    })
}

/// Reads a Matrix Market file from `path`.
///
/// # Errors
///
/// See [`read_matrix_market`].
pub fn read_matrix_market_file<T: Scalar>(path: impl AsRef<Path>) -> Result<Csr<T>> {
    read_matrix_market(std::fs::File::open(path)?)
}

/// Writes a CSR matrix as `coordinate real general` Matrix Market.
///
/// A mutable reference can be passed as the writer.
///
/// # Errors
///
/// Returns [`MatrixError::Io`] on write failures.
pub fn write_matrix_market<T: Scalar, W: Write>(m: &Csr<T>, mut writer: W) -> Result<()> {
    if let Some(fault) = smat_failpoints::check("io.write") {
        return Err(MatrixError::Io(fault.into()));
    }
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "{} {} {}", m.rows(), m.cols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(writer, "{} {} {}", r + 1, c + 1, v.to_f64())?;
    }
    Ok(())
}

/// Writes a CSR matrix as Matrix Market to `path`.
///
/// # Errors
///
/// See [`write_matrix_market`].
pub fn write_matrix_market_file<T: Scalar>(m: &Csr<T>, path: impl AsRef<Path>) -> Result<()> {
    write_matrix_market(m, std::io::BufWriter::new(std::fs::File::create(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n% comment\n3 3 3\n1 1 1.0\n2 3 -2.5\n3 1 4\n";
        let m = read_matrix_market::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(1, 2), Some(-2.5));
    }

    #[test]
    fn expands_symmetric() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n2 1 3.0\n";
        let m = read_matrix_market::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 1), Some(3.0));
        assert_eq!(m.get(1, 0), Some(3.0));
    }

    #[test]
    fn expands_skew_symmetric() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3.0\n";
        let m = read_matrix_market::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(m.get(1, 0), Some(3.0));
        assert_eq!(m.get(0, 1), Some(-3.0));
    }

    #[test]
    fn pattern_gets_unit_values() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n";
        let m = read_matrix_market::<f32, _>(text.as_bytes()).unwrap();
        assert_eq!(m.get(0, 1), Some(1.0));
    }

    #[test]
    fn header_tokens_match_case_insensitively() {
        // The banner itself is mixed case in the spec, and corpora mix
        // qualifier casings freely.
        let mixed = "%%MatrixMarket Matrix Coordinate Real General\n% c\n2 2 2\n1 1 1.0\n2 2 2.0\n";
        let m = read_matrix_market::<f64, _>(mixed.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 2);
        let shouty = "%%MATRIXMARKET MATRIX COORDINATE REAL SYMMETRIC\n2 2 1\n2 1 3.0\n";
        let m = read_matrix_market::<f64, _>(shouty.as_bytes()).unwrap();
        assert_eq!(m.get(0, 1), Some(3.0));
        assert_eq!(m.get(1, 0), Some(3.0));
        let skew = "%%MatrixMarket matrix coordinate real Skew-Symmetric\n2 2 1\n2 1 3.0\n";
        let m = read_matrix_market::<f64, _>(skew.as_bytes()).unwrap();
        assert_eq!(m.get(0, 1), Some(-3.0));
        let pattern = "%%MatrixMarket matrix coordinate PATTERN General\n2 2 1\n1 2\n";
        let m = read_matrix_market::<f32, _>(pattern.as_bytes()).unwrap();
        assert_eq!(m.get(0, 1), Some(1.0));
    }

    #[test]
    fn genuine_header_mismatch_quotes_original_token_with_line() {
        // A real mismatch must still fail, on line 1, quoting the token
        // as written — not a lowercased copy.
        let complex = "%%MatrixMarket matrix coordinate Complex general\n1 1 1\n1 1 1 0\n";
        match read_matrix_market::<f64, _>(complex.as_bytes()).unwrap_err() {
            MatrixError::Parse { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("\"Complex\""), "message: {message}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        let array = "%%MatrixMarket matrix Array real general\n2 2\n1\n2\n3\n4\n";
        match read_matrix_market::<f64, _>(array.as_bytes()).unwrap_err() {
            MatrixError::Parse { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("\"Array\""), "message: {message}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        let herm = "%%MatrixMarket matrix coordinate real Hermitian\n1 1 1\n1 1 1\n";
        match read_matrix_market::<f64, _>(herm.as_bytes()).unwrap_err() {
            MatrixError::Parse { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("\"Hermitian\""), "message: {message}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn rejects_complex_and_array() {
        let complex = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n";
        assert!(matches!(
            read_matrix_market::<f64, _>(complex.as_bytes()),
            Err(MatrixError::Parse { .. })
        ));
        let array = "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n";
        assert!(read_matrix_market::<f64, _>(array.as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_range_and_short_lines() {
        let oob = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market::<f64, _>(oob.as_bytes()).is_err());
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n";
        assert!(read_matrix_market::<f64, _>(short.as_bytes()).is_err());
        let empty = "";
        assert!(read_matrix_market::<f64, _>(empty.as_bytes()).is_err());
    }

    #[test]
    fn rejects_non_finite_values_at_parse_time() {
        // Rust's f64 parser accepts all of these tokens; the reader
        // must not.
        for tok in ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 {tok}\n");
            let err = read_matrix_market::<f64, _>(text.as_bytes()).unwrap_err();
            match &err {
                MatrixError::Parse { line, message } => {
                    assert_eq!(*line, 3, "token {tok:?}");
                    assert!(message.contains("non-finite"), "token {tok:?}: {message}");
                }
                other => panic!("expected Parse for {tok:?}, got {other:?}"),
            }
        }
        // Symmetric expansion cannot smuggle one in either.
        let sym = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 nan\n";
        assert!(read_matrix_market::<f64, _>(sym.as_bytes()).is_err());
        // Integer-typed files go through the same gate.
        let int = "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 inf\n";
        assert!(read_matrix_market::<f64, _>(int.as_bytes()).is_err());
    }

    /// Size lines that once aborted the process sizing buffers from the
    /// declared counts: both are parse errors on line 2.
    #[test]
    fn hostile_size_lines_are_parse_errors() {
        for (size, says) in [
            ("3 3 100000000000", "entries declared"),
            ("5000000000 3 1", "u32 index range"),
            ("3 5000000000 1", "u32 index range"),
        ] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n{size}\n1 1 1.0\n");
            match read_matrix_market::<f64, _>(text.as_bytes()) {
                Err(MatrixError::Parse { line: 2, message }) => {
                    assert!(message.contains(says), "{size}: {message}")
                }
                other => panic!("{size}: expected a parse error, got {other:?}"),
            }
        }
    }

    /// A large but satisfiable declaration reserves only a bounded
    /// buffer and fails on the missing entries.
    #[test]
    fn declared_count_past_the_entries_is_a_truncation_error() {
        let text =
            "%%MatrixMarket matrix coordinate real general\n100000 100000 4000000000\n1 1 1.0\n";
        match read_matrix_market::<f64, _>(text.as_bytes()) {
            Err(MatrixError::Parse { message, .. }) => assert!(message.contains("truncated")),
            other => panic!("expected a truncation error, got {other:?}"),
        }
    }

    #[test]
    fn write_read_round_trip() {
        let m =
            Csr::<f64>::from_triplets(3, 4, &[(0, 3, 1.25), (1, 0, -2.0), (2, 2, 0.5)]).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).unwrap();
        let back = read_matrix_market::<f64, _>(&buf[..]).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("smat_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.mtx");
        let m = Csr::<f32>::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]).unwrap();
        write_matrix_market_file(&m, &path).unwrap();
        let back = read_matrix_market_file::<f32>(&path).unwrap();
        assert_eq!(back, m);
        std::fs::remove_file(&path).ok();
    }
}
