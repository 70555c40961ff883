//! Figs. 1–2 — per-class link share vs validation coverage.

use crate::classes::{
    region_label_of, topo_label_of, LinkClassifier, REGION_CODES, REGION_NONE, TOPO_CODES,
};
use asgraph::Link;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One bar pair of Fig. 1 / Fig. 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassCoverage {
    /// Class label (`R°`, `S-TR`, …).
    pub class: String,
    /// Links of this class among the inferred links.
    pub inferred_links: usize,
    /// Fraction of all (classified) inferred links in this class.
    pub share: f64,
    /// Inferred links of this class that carry a validation label.
    pub validated_links: usize,
    /// Validation coverage of this class.
    pub coverage: f64,
}

/// Base links per parallel work item. The effective chunk is
/// `breval_par::input_scaled_chunk(len, LINK_CHUNK)` — a function of the
/// link count only (never the thread count), so the chunk boundaries are
/// identical at any thread count.
const LINK_CHUNK: usize = 512;

/// `(links, validated)` counts per region code × topology code (see
/// [`crate::classes`]): the one count grid behind Figs. 1–2 and `brevald`'s
/// slice queries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassGrid {
    cells: [[(u64, u64); TOPO_CODES]; REGION_CODES],
}

impl ClassGrid {
    /// Classifies every link, sharded across the worker pool in fixed-size
    /// link chunks. Per-chunk grids are merged by summation, which is
    /// order-independent, so the grid is identical at any thread count.
    #[must_use]
    pub fn build<V>(links: &BTreeSet<Link>, classifier: &LinkClassifier, is_validated: V) -> Self
    where
        V: Fn(&Link) -> bool + Sync,
    {
        let _span = breval_obs::span!("coverage_by_class");
        let links: Vec<Link> = links.iter().copied().collect();
        let link_chunk = breval_par::input_scaled_chunk(links.len(), LINK_CHUNK);
        let partials = breval_par::parallel_map(links.len().div_ceil(link_chunk), |c| {
            let mut grid = ClassGrid::default();
            for link in links.iter().skip(c * link_chunk).take(link_chunk) {
                let (region, topo) = classifier.link_class(*link);
                grid.add(region, topo, is_validated(link));
            }
            grid
        });
        let mut grid = ClassGrid::default();
        for partial in &partials {
            for (cell, part) in grid
                .cells
                .iter_mut()
                .flatten()
                .zip(partial.cells.iter().flatten())
            {
                cell.0 += part.0;
                cell.1 += part.1;
            }
        }
        breval_obs::counter("coverage_links_classified", grid.mapped(None).0);
        grid
    }

    /// Counts one link in its cell; codes outside the grid are ignored.
    pub fn add(&mut self, region: u8, topo: u8, validated: bool) {
        let cell = self
            .cells
            .get_mut(usize::from(region))
            .and_then(|row| row.get_mut(usize::from(topo)));
        if let Some(cell) = cell {
            cell.0 += 1;
            cell.1 += u64::from(validated);
        }
    }

    /// Link and validated counts for a region×topology slice; `None` on
    /// either axis is a wildcard. Allocation-free.
    #[must_use]
    pub fn slice_counts(&self, region: Option<u8>, topo: Option<u8>) -> (u64, u64) {
        let mut sum = (0, 0);
        for (r, row) in self.cells.iter().enumerate() {
            for (t, cell) in row.iter().enumerate() {
                if region.is_none_or(|want| usize::from(want) == r)
                    && topo.is_none_or(|want| usize::from(want) == t)
                {
                    sum.0 += cell.0;
                    sum.1 += cell.1;
                }
            }
        }
        sum
    }

    /// Fig. 1 rows: the region marginal over links with a region.
    #[must_use]
    pub fn region_rows(&self) -> Vec<ClassCoverage> {
        let classes = (0..REGION_NONE).filter_map(|code| {
            let (links, validated) = self.slice_counts(Some(code), None);
            Some((region_label_of(code)?, links, validated))
        });
        rows(classes, self.mapped(None).0)
    }

    /// Fig. 2 rows: the topology marginal over links with a region (the
    /// paper discards links with reserved/unmapped endpoints here too).
    #[must_use]
    pub fn topo_rows(&self) -> Vec<ClassCoverage> {
        let classes = (0..TOPO_CODES as u8).filter_map(|code| {
            let (links, validated) = self.mapped(Some(code));
            Some((topo_label_of(code)?.to_owned(), links, validated))
        });
        rows(classes, self.mapped(None).0)
    }

    /// `(links, validated)` over the cells with a region code and topology
    /// code `topo` (`None`: any).
    fn mapped(&self, topo: Option<u8>) -> (u64, u64) {
        let (links, validated) = self.slice_counts(None, topo);
        let (none_links, none_validated) = self.slice_counts(Some(REGION_NONE), topo);
        (links - none_links, validated - none_validated)
    }
}

/// Coverage rows for the classes with at least one link, sorted by
/// descending share, then label, as the figures are.
fn rows(classes: impl Iterator<Item = (String, u64, u64)>, total: u64) -> Vec<ClassCoverage> {
    let mut rows: Vec<ClassCoverage> = classes
        .filter(|&(_, links, _)| links > 0)
        .map(|(class, links, validated)| ClassCoverage {
            class,
            inferred_links: links as usize,
            share: links as f64 / total.max(1) as f64,
            validated_links: validated as usize,
            coverage: validated as f64 / links.max(1) as f64,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.share
            .partial_cmp(&a.share)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.class.cmp(&b.class))
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Region codes: AR° = 12, AR-L = 13, L° = 18. Topology codes:
    /// S-TR = 7, TR° = 15.
    fn grid() -> ClassGrid {
        let mut g = ClassGrid::default();
        for (region, topo, validated) in [
            (12, 7, true),
            (12, 7, false),
            (12, 15, true),
            (13, 15, false),
            (REGION_NONE, 15, true),
        ] {
            g.add(region, topo, validated);
        }
        g.add(REGION_NONE + 1, 0, true); // outside the grid: ignored
        g
    }

    #[test]
    fn slices_and_wildcards() {
        let g = grid();
        assert_eq!(g.slice_counts(None, None), (5, 3));
        assert_eq!(g.slice_counts(Some(12), None), (3, 2));
        assert_eq!(g.slice_counts(None, Some(15)), (3, 2));
        assert_eq!(g.slice_counts(Some(12), Some(7)), (2, 1));
        assert_eq!(g.slice_counts(Some(18), None), (0, 0));
    }

    #[test]
    fn region_rows_discard_unmapped_links() {
        let rows = grid().region_rows();
        let labels: Vec<&str> = rows.iter().map(|r| r.class.as_str()).collect();
        assert_eq!(labels, ["AR°", "AR-L"]);
        assert_eq!(rows[0].inferred_links, 3);
        assert!(
            (rows[0].share - 0.75).abs() < 1e-12,
            "share over classified only"
        );
        assert!((rows[0].coverage - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(rows[1].validated_links, 0);
    }

    #[test]
    fn topo_rows_are_region_gated() {
        let rows = grid().topo_rows();
        let got: Vec<(&str, usize, usize)> = rows
            .iter()
            .map(|r| (r.class.as_str(), r.inferred_links, r.validated_links))
            .collect();
        // Ties in share sort by label.
        assert_eq!(got, [("S-TR", 2, 1), ("TR°", 2, 1)]);
        assert!((rows[0].share - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_grid_has_no_rows() {
        let g = ClassGrid::default();
        assert!(g.region_rows().is_empty());
        assert!(g.topo_rows().is_empty());
        assert_eq!(g.slice_counts(None, None), (0, 0));
    }
}
