//! Shared harness machinery for reproducing the paper's tables and
//! figures: the 16-matrix representative suite (Figure 8 stand-ins),
//! the harness tuner configuration, plain-text table rendering, and the
//! tables themselves as functions of one labelled run ([`paper`]).

#![warn(missing_docs)]

pub mod paper;

use smat::SmatConfig;
use smat_matrix::gen::{banded, block_sparse, fixed_degree, power_law, random_uniform};
use smat_matrix::{Csr, Format, Scalar};

/// One matrix of the representative suite.
#[derive(Debug, Clone)]
pub struct SuiteEntry<T> {
    /// Row number in the paper's Figure 8 (1-based).
    pub id: usize,
    /// Synthetic stand-in's name.
    pub name: &'static str,
    /// The UF matrix it stands in for.
    pub paper_name: &'static str,
    /// Application area from Figure 8.
    pub area: &'static str,
    /// Format this matrix favors in the paper's Table 3.
    pub paper_format: Format,
    /// The matrix, in the unified CSR interface format.
    pub matrix: Csr<T>,
}

/// Builds the 16-matrix representative suite.
///
/// Each entry mirrors the corresponding Figure 8 matrix's *structure*
/// (diagonal density, row-degree profile, aspect ratio) at laptop scale:
/// a few tens of thousands of rows.
pub fn representative_suite<T: Scalar>() -> Vec<SuiteEntry<T>> {
    use Format::{Coo, Dia, Ell};
    // (stand-in, UF matrix, area, favoured format), in Figure 8's order.
    let meta = [
        ("syn_multiband35", "pcrystk02", "materials problem", Dia),
        ("syn_sevenband", "denormal", "counter-example problem", Dia),
        ("syn_pentaband", "cryg10000", "materials problem", Dia),
        ("syn_stencil5", "apache1", "structural problem", Dia),
        ("syn_degree2", "bfly", "undirected graph sequence", Ell),
        ("syn_degree3_dual", "whitaker3_dual", "2D/3D problem", Ell),
        ("syn_rect_deg4", "ch7-9-b3", "combinatorial problem", Ell),
        ("syn_rect_deg3", "shar_te2-b2", "combinatorial problem", Ell),
        ("syn_block98", "pkustk14", "structural problem", Format::Csr),
        (
            "syn_heavy222",
            "crankseg_2",
            "structural problem",
            Format::Csr,
        ),
        (
            "syn_heavy97",
            "Ga3As3H12",
            "theoretical/quantum chemistry",
            Format::Csr,
        ),
        (
            "syn_cfd140",
            "HV15R",
            "computational fluid dynamics",
            Format::Csr,
        ),
        ("syn_osm_graph", "europe_osm", "undirected graph", Coo),
        ("syn_rect_powerlaw", "D6-6", "combinatorial problem", Coo),
        ("syn_dictionary", "dictionary28", "undirected graph", Coo),
        ("syn_roadnet", "roadNet-CA", "undirected graph", Coo),
    ];
    let multiband: Vec<isize> = [-402, -400, -200, -199]
        .into_iter()
        .chain(-13..=13)
        .chain([199, 200, 400, 402])
        .collect();
    let matrices = [
        banded(14_000, &multiband, 1.0, 0xF1601),
        banded(89_000, &[-300, -299, -1, 0, 1, 299, 300], 1.0, 0xF1602),
        banded(10_000, &[-100, -1, 0, 1, 100], 1.0, 0xF1603),
        banded(81_000, &[-285, -1, 0, 1, 285], 0.98, 0xF1604),
        fixed_degree(49_000, 49_000, 2, 0, 0xF1605),
        fixed_degree(19_000, 19_000, 3, 0, 0xF1606),
        fixed_degree(106_000, 18_000, 4, 0, 0xF1607),
        fixed_degree(200_000, 17_000, 3, 0, 0xF1608),
        block_sparse(50_000, 10, 10, 0xF1609),
        random_uniform(16_000, 16_000, 111, 0xF1610),
        random_uniform(20_000, 20_000, 48, 0xF1611),
        block_sparse(30_000, 5, 28, 0xF1612),
        power_law(120_000, 600, 2.6, 0xF1613),
        power_law(121_000, 900, 2.1, 0xF1614),
        power_law(53_000, 700, 1.8, 0xF1615),
        power_law(150_000, 400, 2.9, 0xF1616),
    ];
    let entries = meta.into_iter().zip(matrices).enumerate();
    let entry = |(i, ((name, paper_name, area, paper_format), matrix))| SuiteEntry {
        id: i + 1,
        name,
        paper_name,
        area,
        paper_format,
        matrix,
    };
    entries.map(entry).collect()
}

/// The tuner configuration the harnesses use: default thresholds, small
/// measurement budgets so full-table runs stay in minutes.
pub fn harness_config() -> SmatConfig {
    SmatConfig {
        search_budget: std::time::Duration::from_millis(4),
        fallback_budget: std::time::Duration::from_millis(2),
        probe_dim: 8_000,
        ..SmatConfig::default()
    }
}

/// Renders a fixed-width text table: header row, a rule, then the data
/// rows, each line ending in a newline.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &mut dyn Iterator<Item = &str>| {
        let mut out = String::new();
        for (c, width) in cells.zip(&widths) {
            out.push_str(&format!("{c:<width$}  "));
        }
        format!("{}\n", out.trim_end())
    };
    let mut out = line(&mut headers.iter().copied());
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&line(&mut row.iter().map(String::as_str)));
    }
    out
}

/// Formats a GFLOPS number for table cells.
pub fn fmt_gflops(g: f64) -> String {
    format!("{g:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_metadata_is_balanced() {
        let suite = representative_suite::<f32>();
        assert_eq!(suite.len(), 16);
        let count = |f: Format| suite.iter().filter(|e| e.paper_format == f).count();
        assert_eq!(
            (
                count(Format::Dia),
                count(Format::Ell),
                count(Format::Csr),
                count(Format::Coo)
            ),
            (4, 4, 4, 4)
        );
        for e in &suite {
            assert!(e.matrix.nnz() > 0, "{} empty", e.name);
        }
    }
}
