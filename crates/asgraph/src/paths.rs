//! Observed BGP AS paths and the statistics derived from them.
//!
//! Relationship-inference algorithms never see the real graph — they see AS
//! paths collected at vantage points (route-collector peers). This module
//! provides the path representation plus the derived quantities the paper's
//! algorithms rely on: node degree, *transit degree* (Luckie et al. 2013),
//! per-link vantage-point visibility, and AS triplets.

use crate::asn::Asn;
use crate::hash::FastHash;
use crate::link::Link;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

/// A raw AS path as observed in a BGP update / RIB entry, nearest AS first
/// (index 0 is the collector-adjacent AS, the last element is the origin).
/// May contain prepending (consecutive repeats).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AsPath(Vec<Asn>);

impl AsPath {
    /// Wraps a hop sequence.
    #[must_use]
    pub fn new(hops: Vec<Asn>) -> Self {
        AsPath(hops)
    }

    /// The raw hops, prepending included.
    #[must_use]
    pub fn hops(&self) -> &[Asn] {
        &self.0
    }

    /// Number of raw hops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if the path has no hops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The originating AS (last hop), if any.
    #[must_use]
    pub fn origin(&self) -> Option<Asn> {
        self.0.last().copied()
    }

    /// The collector-adjacent AS (first hop), if any.
    #[must_use]
    pub fn head(&self) -> Option<Asn> {
        self.0.first().copied()
    }

    /// The path with consecutive duplicates (prepending) removed.
    #[must_use]
    pub fn compressed(&self) -> Vec<Asn> {
        let mut out: Vec<Asn> = Vec::with_capacity(self.0.len());
        self.compress_into(&mut out);
        out
    }

    /// Writes [`AsPath::compressed`] into `out` (cleared first), so a loop
    /// over many paths reuses one buffer instead of allocating per path.
    pub fn compress_into(&self, out: &mut Vec<Asn>) {
        out.clear();
        out.extend_from_slice(&self.0);
        out.dedup();
    }

    /// `true` if an AS re-appears non-consecutively (a routing loop artefact);
    /// such paths are discarded by every sanitisation stage in the paper's
    /// algorithms. Scans the hops in place: every hop that starts a new run
    /// must not occur earlier in the path.
    #[must_use]
    pub fn has_loop(&self) -> bool {
        let hops = &self.0;
        hops.windows(2)
            .enumerate()
            .any(|(i, w)| w[0] != w[1] && hops[..i].contains(&w[1]))
    }

    /// `true` if any hop is a reserved ASN or `AS_TRANS`.
    #[must_use]
    pub fn has_reserved(&self) -> bool {
        self.0.iter().any(|a| a.is_reserved())
    }

    /// The links of the compressed path, in order.
    #[must_use]
    pub fn links(&self) -> Vec<Link> {
        let c = self.compressed();
        c.windows(2).filter_map(|w| Link::new(w[0], w[1])).collect()
    }

    /// The AS triplets `(left, middle, right)` of the compressed path.
    #[must_use]
    pub fn triplets(&self) -> Vec<(Asn, Asn, Asn)> {
        let c = self.compressed();
        c.windows(3).map(|w| (w[0], w[1], w[2])).collect()
    }

    /// How many times the origin prepended itself beyond the first occurrence.
    #[must_use]
    pub fn origin_prepend_count(&self) -> usize {
        let Some(origin) = self.origin() else {
            return 0;
        };
        self.0.iter().rev().take_while(|&&h| h == origin).count() - 1
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for hop in &self.0 {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{}", hop.0)?;
            first = false;
        }
        Ok(())
    }
}

/// A path together with the vantage point (collector-peer AS) it was observed at.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObservedPath {
    /// The vantage-point AS that exported this path to the collector.
    pub vp: Asn,
    /// The observed path (the VP itself is the first hop).
    pub path: AsPath,
}

/// The collection of all paths observed across all vantage points — the input
/// to every inference algorithm.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PathSet {
    paths: Vec<ObservedPath>,
}

impl PathSet {
    /// An empty path set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from observed paths.
    #[must_use]
    pub fn from_paths(paths: Vec<ObservedPath>) -> Self {
        PathSet { paths }
    }

    /// Adds one observed path.
    pub fn push(&mut self, vp: Asn, path: AsPath) {
        self.paths.push(ObservedPath { vp, path });
    }

    /// All observed paths.
    #[must_use]
    pub fn paths(&self) -> &[ObservedPath] {
        &self.paths
    }

    /// Number of observed paths.
    #[must_use]
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// `true` if no paths were observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The distinct vantage points, sorted.
    #[must_use]
    pub fn vantage_points(&self) -> Vec<Asn> {
        let set: BTreeSet<Asn> = self.paths.iter().map(|p| p.vp).collect();
        set.into_iter().collect()
    }

    /// Retains only loop-free paths without reserved ASNs — the common
    /// sanitisation prefix of all three classifiers.
    #[must_use]
    pub fn sanitized(&self) -> PathSet {
        let _span = breval_obs::span!("sanitize");
        let sanitized = PathSet {
            paths: self
                .paths
                .iter()
                .filter(|p| !p.path.has_loop() && !p.path.has_reserved())
                .cloned()
                .collect(),
        };
        breval_obs::counter(
            "paths_sanitized_dropped",
            (self.paths.len() - sanitized.paths.len()) as u64,
        );
        breval_obs::counter("paths_sanitized_kept", sanitized.paths.len() as u64);
        sanitized
    }

    /// Computes the derived statistics in one pass.
    ///
    /// Everything is accumulated per observed link: its vantage points and
    /// which endpoints sit in a transit position next to it. An AS's node
    /// degree is its number of incident links, and its transit degree the
    /// number of incident links on which it transits.
    #[must_use]
    pub fn stats(&self) -> PathStats {
        /// Per-link accumulator: `transit` bit 0 is set when `a` transits
        /// next to `b`, bit 1 when `b` transits next to `a`.
        #[derive(Default)]
        struct LinkAcc {
            transit: u8,
            vps: HashSet<Asn, FastHash>,
        }
        let mut acc: HashMap<Link, LinkAcc, FastHash> = HashMap::default();
        let mut hops: Vec<Asn> = Vec::new();
        for op in &self.paths {
            op.path.compress_into(&mut hops);
            let n = hops.len();
            for (i, w) in hops.windows(2).enumerate() {
                let Some(link) = Link::new(w[0], w[1]) else {
                    continue;
                };
                let entry = acc.entry(link).or_default();
                entry.vps.insert(op.vp);
                // w[0] transits if a hop precedes it, w[1] if one follows.
                let bit = |asn: Asn| if asn == link.a() { 1u8 } else { 2u8 };
                if i > 0 {
                    entry.transit |= bit(w[0]);
                }
                if i + 2 < n {
                    entry.transit |= bit(w[1]);
                }
            }
        }
        let mut node_degree: HashMap<Asn, usize, FastHash> = HashMap::default();
        let mut transit_degree: HashMap<Asn, usize, FastHash> = HashMap::default();
        let mut link_vp_count: HashMap<Link, usize, FastHash> =
            HashMap::with_capacity_and_hasher(acc.len(), FastHash);
        for (link, a) in &acc {
            let (x, y) = link.endpoints();
            *node_degree.entry(x).or_insert(0) += 1;
            *node_degree.entry(y).or_insert(0) += 1;
            if a.transit & 1 != 0 {
                *transit_degree.entry(x).or_insert(0) += 1;
            }
            if a.transit & 2 != 0 {
                *transit_degree.entry(y).or_insert(0) += 1;
            }
            link_vp_count.insert(*link, a.vps.len());
        }
        PathStats {
            node_degree,
            transit_degree,
            links: link_vp_count.keys().copied().collect(),
            link_vp_count,
        }
    }
}

/// Statistics derived from a [`PathSet`] in a single pass.
#[derive(Debug, Clone, Default)]
pub struct PathStats {
    node_degree: HashMap<Asn, usize, FastHash>,
    transit_degree: HashMap<Asn, usize, FastHash>,
    link_vp_count: HashMap<Link, usize, FastHash>,
    links: BTreeSet<Link>,
}

impl PathStats {
    /// Node degree of `asn` (distinct path neighbors).
    #[must_use]
    pub fn node_degree(&self, asn: Asn) -> usize {
        self.node_degree.get(&asn).copied().unwrap_or(0)
    }

    /// Transit degree of `asn`: the number of distinct neighbors adjacent to
    /// `asn` in paths where `asn` occupies a transit (interior) position
    /// (Luckie et al. 2013, §5).
    #[must_use]
    pub fn transit_degree(&self, asn: Asn) -> usize {
        self.transit_degree.get(&asn).copied().unwrap_or(0)
    }

    /// Number of distinct vantage points that observed `link`.
    #[must_use]
    pub fn vp_count(&self, link: Link) -> usize {
        self.link_vp_count.get(&link).copied().unwrap_or(0)
    }

    /// All observed links, sorted.
    #[must_use]
    pub fn links(&self) -> &BTreeSet<Link> {
        &self.links
    }

    /// ASes ranked by descending transit degree (ties by ascending ASN).
    #[must_use]
    pub fn transit_degree_ranking(&self) -> Vec<Asn> {
        let mut v: Vec<Asn> = self.transit_degree.keys().copied().collect();
        v.sort_by_key(|a| (std::cmp::Reverse(self.transit_degree(*a)), a.0));
        v
    }

    /// All ASes with a nonzero node degree, sorted by ASN.
    #[must_use]
    pub fn ases(&self) -> Vec<Asn> {
        let mut v: Vec<Asn> = self.node_degree.keys().copied().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(hops: &[u32]) -> AsPath {
        AsPath::new(hops.iter().map(|&h| Asn(h)).collect())
    }

    #[test]
    fn compression_removes_prepending() {
        let p = path(&[1, 2, 2, 2, 3]);
        assert_eq!(p.compressed(), vec![Asn(1), Asn(2), Asn(3)]);
        assert_eq!(p.origin(), Some(Asn(3)));
        assert_eq!(p.head(), Some(Asn(1)));
        assert!(!p.has_loop());
        assert_eq!(p.origin_prepend_count(), 0);
        assert_eq!(path(&[1, 2, 3, 3, 3]).origin_prepend_count(), 2);
    }

    #[test]
    fn loop_detection_ignores_prepending() {
        assert!(!path(&[1, 2, 2, 3]).has_loop());
        assert!(path(&[1, 2, 3, 2]).has_loop());
        assert!(path(&[1, 2, 1]).has_loop());
        assert!(!path(&[]).has_loop());
    }

    #[test]
    fn links_and_triplets() {
        let p = path(&[1, 2, 2, 3, 4]);
        assert_eq!(
            p.links(),
            vec![
                Link::new(Asn(1), Asn(2)).unwrap(),
                Link::new(Asn(2), Asn(3)).unwrap(),
                Link::new(Asn(3), Asn(4)).unwrap()
            ]
        );
        assert_eq!(
            p.triplets(),
            vec![(Asn(1), Asn(2), Asn(3)), (Asn(2), Asn(3), Asn(4))]
        );
    }

    #[test]
    fn reserved_detection() {
        assert!(path(&[1, 23456, 3]).has_reserved());
        assert!(path(&[1, 64512, 3]).has_reserved());
        assert!(!path(&[1, 2, 3]).has_reserved());
    }

    #[test]
    fn sanitized_drops_bad_paths() {
        let mut ps = PathSet::new();
        ps.push(Asn(1), path(&[1, 2, 3]));
        ps.push(Asn(1), path(&[1, 2, 1])); // loop
        ps.push(Asn(1), path(&[1, 23456, 3])); // AS_TRANS
        let clean = ps.sanitized();
        assert_eq!(clean.len(), 1);
    }

    #[test]
    fn stats_node_and_transit_degree() {
        let mut ps = PathSet::new();
        // 1-2-3 and 4-2-5: AS2 transits for {1,3,4,5}.
        ps.push(Asn(1), path(&[1, 2, 3]));
        ps.push(Asn(4), path(&[4, 2, 5]));
        let st = ps.stats();
        assert_eq!(st.node_degree(Asn(2)), 4);
        assert_eq!(st.transit_degree(Asn(2)), 4);
        assert_eq!(st.transit_degree(Asn(1)), 0);
        assert_eq!(st.node_degree(Asn(1)), 1);
        assert_eq!(st.vp_count(Link::new(Asn(1), Asn(2)).unwrap()), 1);
        assert_eq!(st.links().len(), 4);
        assert_eq!(st.transit_degree_ranking()[0], Asn(2));
    }

    #[test]
    fn vp_count_distinct() {
        let mut ps = PathSet::new();
        ps.push(Asn(1), path(&[1, 2, 3]));
        ps.push(Asn(1), path(&[1, 2, 4]));
        ps.push(Asn(9), path(&[9, 1, 2]));
        let st = ps.stats();
        assert_eq!(st.vp_count(Link::new(Asn(1), Asn(2)).unwrap()), 2);
        assert_eq!(ps.vantage_points(), vec![Asn(1), Asn(9)]);
    }
}
