//! §5 — link classes.
//!
//! **Regional** classes come from the two-step ASN→region mapping (IANA
//! bootstrap + delegation-file refinement, provided by `asregistry`): links
//! within one region are `<R>°` (e.g. `L°`), links across regions are
//! `<R1>-<R2>` with the lexicographically smaller abbreviation first.
//!
//! **Topological** classes start from Stub/Transit (customer cone over the
//! *inferred* graph, as the paper uses CAIDA's cone data) and are refined by
//! the Tier-1 and hypergiant lists. Class labels follow the paper's
//! convention (`S-TR`, `TR°`, `T1-TR`, `H-S`, …).
//!
//! A link's class is one dense code pair, [`LinkClassifier::link_class`]:
//! a region code `lo * 5 + hi` over [`RirRegion::ALL`] (`lo <= hi`, or
//! [`REGION_NONE`]) and a topology code `min * 4 + max` over H, S, T1, TR.
//! Every fold counts on the codes; labels are made only at output, by
//! [`region_label_of`] / [`topo_label_of`].

use asgraph::{AsIndexer, Asn, ConeSizes, Link};
use asregistry::{RegionMap, RirRegion};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Region code for links with an unmapped (reserved/unknown) endpoint,
/// which the paper's regional figures and table rows discard.
pub const REGION_NONE: u8 = 25;
/// Region codes: the 25 `lo * 5 + hi` slots plus [`REGION_NONE`].
pub const REGION_CODES: usize = 26;
/// Topology codes: the 16 `min * 4 + max` slots (ten are valid pairs).
pub const TOPO_CODES: usize = 16;

/// The region code of a link between regions `a` and `b` (symmetric).
fn region_code(a: RirRegion, b: RirRegion) -> u8 {
    let index = |r| RirRegion::ALL.iter().position(|x| *x == r).unwrap_or(0) as u8;
    let (x, y) = (index(a), index(b));
    x.min(y) * 5 + x.max(y)
}

/// The label of a region code (`AR°`, `AF-AP`, …), or `None` for invalid
/// codes. [`REGION_NONE`] renders as `none`.
#[must_use]
pub fn region_label_of(code: u8) -> Option<String> {
    if code == REGION_NONE {
        return Some("none".to_owned());
    }
    let (lo, hi) = (code / 5, code % 5);
    let a = RirRegion::ALL.get(usize::from(lo))?.abbrev();
    let b = RirRegion::ALL.get(usize::from(hi))?.abbrev();
    match lo.cmp(&hi) {
        std::cmp::Ordering::Less => Some(format!("{a}-{b}")),
        std::cmp::Ordering::Equal => Some(format!("{a}°")),
        std::cmp::Ordering::Greater => None,
    }
}

/// Parses a region label (`AR°`, `AF-AP`, `none`) to its code.
#[must_use]
pub fn region_code_of(label: &str) -> Option<u8> {
    (0..=REGION_NONE).find(|&code| region_label_of(code).as_deref() == Some(label))
}

/// The topology code of a link between classes `a` and `b` (symmetric).
#[must_use]
pub fn topo_code(a: TopoClass, b: TopoClass) -> u8 {
    (a.min(b) as u8) * 4 + (a.max(b) as u8)
}

/// The label of a topology code (`S-TR`, `TR°`, `H-T1`, …), in the
/// paper's H, S, T1, TR pair order, or `None` for codes that are not a
/// valid pair.
#[must_use]
pub fn topo_label_of(code: u8) -> Option<&'static str> {
    Some(match code {
        0 => "H°",
        1 => "H-S",
        2 => "H-T1",
        3 => "H-TR",
        5 => "S°",
        6 => "S-T1",
        7 => "S-TR",
        10 => "T1°",
        11 => "T1-TR",
        15 => "TR°",
        _ => return None,
    })
}

/// Parses a topology label (`S-TR`, `TR°`, …) to its code.
#[must_use]
pub fn topo_code_of(label: &str) -> Option<u8> {
    (0..TOPO_CODES as u8).find(|&code| topo_label_of(code) == Some(label))
}

/// A node's topological class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TopoClass {
    /// Hypergiant (from the Böttger et al.-style list).
    H,
    /// Stub (empty inferred customer cone).
    S,
    /// Tier-1 (from the Wikipedia-style list).
    T1,
    /// Transit (non-empty inferred customer cone).
    TR,
}

/// The Stub/Transit/T1/hypergiant partition materialised once as a flat
/// per-id class array, so per-link classification is two binary searches
/// plus two array reads — no set probes, no `HashMap` lookups.
#[derive(Debug, Clone, Default)]
pub struct TopoIndex {
    indexer: AsIndexer,
    classes: Vec<TopoClass>,
}

impl TopoIndex {
    /// Builds the partition over every AS mentioned by the cone sizes or the
    /// refinement lists, with the paper's precedence T1 > H > TR > S.
    #[must_use]
    pub fn build(
        cone_sizes: &ConeSizes,
        tier1: &BTreeSet<Asn>,
        hypergiants: &BTreeSet<Asn>,
    ) -> Self {
        let mut asns: Vec<Asn> = cone_sizes.indexer().iter().collect();
        asns.extend(tier1.iter().copied());
        asns.extend(hypergiants.iter().copied());
        let indexer = AsIndexer::from_unsorted(asns);
        let classes = indexer
            .iter()
            .map(|asn| {
                if tier1.contains(&asn) {
                    TopoClass::T1
                } else if hypergiants.contains(&asn) {
                    TopoClass::H
                } else if cone_sizes.get(asn).unwrap_or(1) > 1 {
                    TopoClass::TR
                } else {
                    TopoClass::S
                }
            })
            .collect();
        TopoIndex { indexer, classes }
    }

    /// The class of `asn`, or `None` for ASes outside the partition
    /// (callers default those to [`TopoClass::S`]).
    #[must_use]
    pub fn class(&self, asn: Asn) -> Option<TopoClass> {
        self.indexer.id(asn).map(|id| self.classes[id as usize])
    }

    /// The indexer the class array is aligned to.
    #[must_use]
    pub fn indexer(&self) -> &AsIndexer {
        &self.indexer
    }
}

/// Assigns regional and topological classes to links.
#[derive(Debug, Clone)]
pub struct LinkClassifier {
    region_map: RegionMap,
    topo: TopoIndex,
    cone_sizes: Arc<ConeSizes>,
}

impl LinkClassifier {
    /// Builds a classifier around already-computed customer-cone sizes,
    /// sharing them with the caller instead of re-deriving them from the
    /// inferred graph.
    ///
    /// * `region_map` — the §5 ASN→region mapping,
    /// * `cone_sizes` — customer-cone sizes over the graph of *inferred*
    ///   relationships (mirrors using CAIDA's cone dataset); the pipeline
    ///   shares the scenario snapshot's via `Scenario::cone_sizes_arc`,
    /// * `tier1` / `hypergiants` — the external refinement lists.
    #[must_use]
    pub fn with_cone_sizes(
        region_map: RegionMap,
        cone_sizes: Arc<ConeSizes>,
        tier1: BTreeSet<Asn>,
        hypergiants: BTreeSet<Asn>,
    ) -> Self {
        let topo = TopoIndex::build(&cone_sizes, &tier1, &hypergiants);
        LinkClassifier {
            region_map,
            topo,
            cone_sizes,
        }
    }

    /// Shared handle to the customer-cone sizes backing the Stub/Transit
    /// split.
    #[must_use]
    pub fn cone_sizes_arc(&self) -> Arc<ConeSizes> {
        Arc::clone(&self.cone_sizes)
    }

    /// The dense topological partition the classifier works over.
    #[must_use]
    pub fn topo_index(&self) -> &TopoIndex {
        &self.topo
    }

    /// The service region of an AS.
    #[must_use]
    pub fn region(&self, asn: Asn) -> Option<RirRegion> {
        self.region_map.region(asn)
    }

    /// The topological class of an AS (ASes outside the partition are stubs).
    #[must_use]
    pub fn node_class(&self, asn: Asn) -> TopoClass {
        self.topo.class(asn).unwrap_or(TopoClass::S)
    }

    /// The class of a link as its (region code, topology code) pair. The
    /// region code is [`REGION_NONE`] when either endpoint is reserved or
    /// unmapped (such links are discarded from the regional classes, §5).
    #[must_use]
    pub fn link_class(&self, link: Link) -> (u8, u8) {
        let region = match (self.region(link.a()), self.region(link.b())) {
            (Some(a), Some(b)) => region_code(a, b),
            _ => REGION_NONE,
        };
        let topo = topo_code(self.node_class(link.a()), self.node_class(link.b()));
        (region, topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgraph::{cone, AsGraph, CsrGraph, Rel};
    use asregistry::iana::BlockAuthority;
    use asregistry::IanaAsnTable;

    fn region_map() -> RegionMap {
        let mut iana = IanaAsnTable::new();
        iana.push_block(1, 1000, BlockAuthority::Rir(RirRegion::Arin))
            .expect("non-overlapping block");
        iana.push_block(1001, 2000, BlockAuthority::Rir(RirRegion::Lacnic))
            .expect("non-overlapping block");
        iana.push_block(2001, 3000, BlockAuthority::Rir(RirRegion::RipeNcc))
            .expect("non-overlapping block");
        RegionMap::from_iana(iana)
    }

    fn classifier() -> LinkClassifier {
        let mut g = AsGraph::new();
        // 1 (T1) provides to 10 (TR) provides to 100 (S); 500 is H.
        g.add_rel(
            Link::new(Asn(1), Asn(10)).expect("distinct endpoints"),
            Rel::P2c { provider: Asn(1) },
        )
        .expect("fresh link accepts rel");
        g.add_rel(
            Link::new(Asn(10), Asn(100)).expect("distinct endpoints"),
            Rel::P2c { provider: Asn(10) },
        )
        .expect("fresh link accepts rel");
        g.add_rel(
            Link::new(Asn(10), Asn(500)).expect("distinct endpoints"),
            Rel::P2p,
        )
        .expect("fresh link accepts rel");
        LinkClassifier::with_cone_sizes(
            region_map(),
            Arc::new(cone::customer_cone_sizes_csr(&CsrGraph::build(&g))),
            [Asn(1)].into_iter().collect(),
            [Asn(500)].into_iter().collect(),
        )
    }

    fn region_label(a: RirRegion, b: RirRegion) -> Option<String> {
        region_label_of(region_code(a, b))
    }

    fn topo_label(c: &LinkClassifier, a: u32, b: u32) -> Option<&'static str> {
        topo_label_of(
            c.link_class(Link::new(Asn(a), Asn(b)).expect("distinct endpoints"))
                .1,
        )
    }

    #[test]
    fn region_labels_match_paper_convention() {
        use RirRegion::*;
        assert_eq!(region_label(RipeNcc, RipeNcc).as_deref(), Some("R°"));
        assert_eq!(region_label(RipeNcc, Arin).as_deref(), Some("AR-R"));
        assert_eq!(region_label(Lacnic, Arin).as_deref(), Some("AR-L"));
        assert_eq!(region_label(Apnic, Afrinic).as_deref(), Some("AF-AP"));
        // Symmetric.
        assert_eq!(region_code(Arin, Lacnic), region_code(Lacnic, Arin));
    }

    #[test]
    fn region_codes_round_trip_through_labels() {
        for code in 0..=REGION_NONE {
            match region_label_of(code) {
                Some(label) => assert_eq!(region_code_of(&label), Some(code), "label {label}"),
                // Only non-normalised pairs (lo > hi) have no label.
                None => assert!(code / 5 > code % 5, "code {code}"),
            }
        }
        assert_eq!(region_label_of(REGION_NONE).as_deref(), Some("none"));
        assert_eq!(region_label_of(REGION_NONE + 1), None);
        assert_eq!(region_code_of("XX"), None);
    }

    #[test]
    fn topo_codes_round_trip_through_labels() {
        let valid: Vec<u8> = (0..TOPO_CODES as u8)
            .filter(|&c| topo_label_of(c).is_some())
            .collect();
        assert_eq!(valid, [0, 1, 2, 3, 5, 6, 7, 10, 11, 15]);
        for code in valid {
            let label = topo_label_of(code).expect("valid code has a label");
            assert_eq!(topo_code_of(label), Some(code), "label {label}");
        }
        assert_eq!(topo_label_of(4), None);
        assert_eq!(topo_label_of(u8::MAX), None);
        assert_eq!(topo_code_of("bogus"), None);
    }

    #[test]
    fn link_region_classes() {
        let c = classifier();
        let region = |a, b| region_label_of(c.link_class(Link::new(Asn(a), Asn(b))?).0);
        assert_eq!(region(5, 900).as_deref(), Some("AR°"));
        assert_eq!(region(5, 1500).as_deref(), Some("AR-L"));
        // Unmapped / reserved endpoints yield REGION_NONE.
        assert_eq!(region(5, 9999).as_deref(), Some("none"));
        assert_eq!(region(5, 64512).as_deref(), Some("none"));
    }

    #[test]
    fn node_classes_follow_lists_and_cones() {
        let c = classifier();
        assert_eq!(c.node_class(Asn(1)), TopoClass::T1);
        assert_eq!(c.node_class(Asn(10)), TopoClass::TR);
        assert_eq!(c.node_class(Asn(100)), TopoClass::S);
        assert_eq!(c.node_class(Asn(500)), TopoClass::H);
        // Unknown AS defaults to stub.
        assert_eq!(c.node_class(Asn(777)), TopoClass::S);
    }

    #[test]
    fn topo_labels_match_paper_convention() {
        let c = classifier();
        assert_eq!(topo_label(&c, 10, 100), Some("S-TR"));
        assert_eq!(topo_label(&c, 1, 10), Some("T1-TR"));
        assert_eq!(topo_label(&c, 1, 100), Some("S-T1"));
        assert_eq!(topo_label(&c, 500, 10), Some("H-TR"));
        assert_eq!(topo_label(&c, 500, 100), Some("H-S"));
        assert_eq!(topo_label(&c, 500, 1), Some("H-T1"));
        assert_eq!(topo_label(&c, 100, 101), Some("S°"));
        // 11 is outside the partition, hence a stub.
        assert_eq!(topo_label(&c, 10, 11), Some("S-TR"));
    }
}
