//! Appendix C — the twelve per-link metrics the paper proposes for finding
//! further groups of "hard links".
//!
//! All metrics are computed from *observable* data (the collector snapshot
//! plus the PeeringDB-style IXP list and the MANRS/serial-hijacker behaviour
//! lists), exactly as a future bias analysis would compute them:
//!
//!  1. visibility — distinct vantage points observing the link (the per-
//!     snapshot building block of "visibility over time"),
//!  2. prefixes redistributed via the link,
//!  3. addresses covered by those prefixes,
//!  4. prefixes *originated* through the link (link adjacent to the origin),
//!  5. addresses covered by those,
//!  6. ASes observed collector-side ("left") of the link,
//!  7. ASes observed origin-side ("right") of the link,
//!  8. relative transit-degree difference of the endpoints,
//!  9. relative PPDC-size difference of the endpoints,
//! 10. common IXPs of the endpoints,
//! 11. common private facilities — **not modelled**; the simulation has no
//!     facility substrate, so this is reported as 0 for every link and noted
//!     in DESIGN.md,
//! 12. behaviour of the endpoints (MANRS members vs serial hijackers).

use asgraph::{Asn, ConeSizes, FastHash, Link, PathStats};
use bgpsim::RibSnapshot;
use bgpwire::Ipv4Prefix;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::BuildHasher;
use topogen::Topology;

/// The Appendix C feature vector for one link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkMetrics {
    /// (1) Distinct vantage points observing the link.
    pub visibility: usize,
    /// (2) Distinct prefixes whose routes cross the link.
    pub prefixes_redistributed: usize,
    /// (3) Addresses covered by those prefixes.
    pub addresses_redistributed: u64,
    /// (4) Distinct prefixes originated directly across the link.
    pub prefixes_originated: usize,
    /// (5) Addresses covered by those prefixes.
    pub addresses_originated: u64,
    /// (6) Distinct ASes observed collector-side of the link.
    pub left_ases: usize,
    /// (7) Distinct ASes observed origin-side of the link.
    pub right_ases: usize,
    /// (8) |td(a) − td(b)| / max(td(a), td(b), 1).
    pub transit_degree_diff: f64,
    /// (9) |ppdc(a) − ppdc(b)| / max(ppdc(a), ppdc(b), 1).
    pub ppdc_diff: f64,
    /// (10) IXPs where both endpoints are members.
    pub common_ixps: usize,
    /// (11) Common private facilities — not modelled, always 0.
    pub common_facilities: usize,
    /// (12) Endpoints that are MANRS participants (0–2).
    pub manrs_endpoints: u8,
    /// (12) Endpoints flagged as serial hijackers (0–2).
    pub hijacker_endpoints: u8,
}

/// Computes the Appendix C metrics for every observed link.
///
/// `ppdc` supplies the per-AS PPDC cone sizes used for feature 9
/// ([`asgraph::cone::ppdc_sizes`] over the inferred relationships — the
/// paper would use the inferred relationships). Passed in precomputed so
/// callers share one derivation with the rest of the pipeline.
///
/// Links are sharded over the worker pool by a fixed link hash: every shard
/// scans all observations and accumulates only its own links. A link's
/// metrics are set sizes and sums over its observations, independent of
/// the order they are seen in, so the table is identical at any thread
/// count.
#[must_use]
pub fn compute_link_metrics(
    topology: &Topology,
    snapshot: &RibSnapshot,
    stats: &PathStats,
    ppdc: &ConeSizes,
) -> BTreeMap<Link, LinkMetrics> {
    #[derive(Default)]
    struct Acc {
        vps: HashSet<Asn, FastHash>,
        prefixes: HashSet<Ipv4Prefix, FastHash>,
        originated: HashSet<Ipv4Prefix, FastHash>,
        left: HashSet<Asn, FastHash>,
        right: HashSet<Asn, FastHash>,
    }

    // Each AS's IXPs, ascending: common IXPs are a sorted-list intersection.
    let mut ixps_of: HashMap<Asn, Vec<usize>, FastHash> = HashMap::default();
    for (i, ixp) in topology.ixps.iter().enumerate() {
        for &member in &ixp.members {
            ixps_of.entry(member).or_default().push(i);
        }
    }
    let common_ixps = |x: Asn, y: Asn| -> usize {
        let (Some(xs), Some(ys)) = (ixps_of.get(&x), ixps_of.get(&y)) else {
            return 0;
        };
        xs.iter().filter(|i| ys.binary_search(i).is_ok()).count()
    };
    let rel_diff = |a: usize, b: usize| -> f64 {
        let (a, b) = (a as f64, b as f64);
        (a - b).abs() / a.max(b).max(1.0)
    };
    let metrics = |link: Link, a: &Acc| -> LinkMetrics {
        let (x, y) = link.endpoints();
        let flag = |f: fn(&topogen::AsInfo) -> bool| -> u8 {
            [x, y]
                .into_iter()
                .filter(|asn| topology.info(*asn).map(f).unwrap_or(false))
                .count() as u8
        };
        LinkMetrics {
            visibility: a.vps.len(),
            prefixes_redistributed: a.prefixes.len(),
            addresses_redistributed: a.prefixes.iter().map(|p| p.address_count()).sum(),
            prefixes_originated: a.originated.len(),
            addresses_originated: a.originated.iter().map(|p| p.address_count()).sum(),
            left_ases: a.left.len().saturating_sub(1),
            right_ases: a.right.len().saturating_sub(1),
            transit_degree_diff: rel_diff(stats.transit_degree(x), stats.transit_degree(y)),
            ppdc_diff: rel_diff(ppdc.get(x).unwrap_or(1), ppdc.get(y).unwrap_or(1)),
            common_ixps: common_ixps(x, y),
            common_facilities: 0,
            manrs_endpoints: flag(|i| i.manrs),
            hijacker_endpoints: flag(|i| i.hijacker),
        }
    };

    let shards = breval_par::max_threads();
    let shard_rows = breval_par::parallel_map(shards, |shard| {
        let mut acc: HashMap<Link, Acc, FastHash> = HashMap::default();
        let mut hops: Vec<Asn> = Vec::new();
        for obs in &snapshot.observations {
            hops.clear();
            hops.extend_from_slice(&obs.path);
            hops.dedup();
            for (i, w) in hops.windows(2).enumerate() {
                let Some(link) = Link::new(w[0], w[1]) else {
                    continue;
                };
                if FastHash.hash_one(link) % shards as u64 != shard as u64 {
                    continue;
                }
                let entry = acc.entry(link).or_default();
                entry.vps.insert(obs.vp);
                entry.prefixes.insert(obs.prefix);
                if i + 2 == hops.len() {
                    entry.originated.insert(obs.prefix);
                }
                entry.left.extend(&hops[..=i]);
                entry.right.extend(&hops[i + 1..]);
            }
        }
        // Link-keyed BTreeMap so the returned metric table (and everything
        // rendered from it) iterates in deterministic Link order (L008).
        acc.iter()
            .map(|(link, a)| (*link, metrics(*link, a)))
            .collect::<BTreeMap<_, _>>()
    });
    let mut table = BTreeMap::new();
    for mut rows in shard_rows {
        table.append(&mut rows);
    }
    table
}

/// One row of the feature-vs-error analysis: links bucketed by a feature's
/// value, with the misclassification rate per bucket.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureErrorRow {
    /// Feature name.
    pub feature: &'static str,
    /// Bucket label (e.g. `"q1 (low)"`).
    pub bucket: String,
    /// Scored links in the bucket.
    pub links: usize,
    /// Fraction misclassified (class-level).
    pub error_rate: f64,
}

/// Buckets scored links into quartiles of a feature and reports the error
/// rate per quartile — the analysis the paper's Appendix C proposes.
#[must_use]
pub fn error_by_feature_quartile(
    scored: &[crate::metrics::ScoredLink],
    metrics: &BTreeMap<Link, LinkMetrics>,
    feature: &'static str,
    value: impl Fn(&LinkMetrics) -> f64,
) -> Vec<FeatureErrorRow> {
    let mut pairs: Vec<(f64, bool)> = scored
        .iter()
        .filter_map(|s| {
            metrics
                .get(&s.link)
                .map(|m| (value(m), s.validation.class() != s.inferred.class()))
        })
        .collect();
    if pairs.is_empty() {
        return Vec::new();
    }
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let n = pairs.len();
    let labels = ["q1 (low)", "q2", "q3", "q4 (high)"];
    (0..4)
        .map(|q| {
            // With fewer than 4 links some buckets stay empty (0 links,
            // 0.0 error rate) so that every link is counted exactly once.
            let slice = &pairs[q * n / 4..(q + 1) * n / 4];
            let errors = slice.iter().filter(|(_, wrong)| *wrong).count();
            FeatureErrorRow {
                feature,
                bucket: labels[q].to_owned(),
                links: slice.len(),
                error_rate: errors as f64 / slice.len().max(1) as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ScoredLink;
    use asgraph::{cone, Rel, RelClass};

    fn world() -> (Topology, RibSnapshot) {
        let topo = topogen::generate(&topogen::TopologyConfig::small(77));
        let snap = bgpsim::simulate(&topo);
        (topo, snap)
    }

    /// Two hand-built observations crossing link 2–3 from different sides,
    /// with prepending, and three IXPs with overlapping memberships.
    #[test]
    fn hand_built_fixture_pins_path_and_ixp_metrics() {
        use asgraph::{AsPath, Asn, PathSet};
        use asregistry::RirRegion;
        use bgpsim::{RouteClass, RouteObservation};
        use bgpwire::Ipv4Prefix;

        let asns = |hops: &[u32]| hops.iter().map(|&h| Asn(h)).collect::<Vec<_>>();
        let prefix = |addr: u32, len: u8| Ipv4Prefix::new(addr, len).expect("valid prefix");
        let observation = |hops: &[u32], prefix: Ipv4Prefix| RouteObservation {
            vp: Asn(hops[0]),
            origin: Asn(hops[hops.len() - 1]),
            prefix,
            path: asns(hops),
            class: RouteClass::Customer,
        };
        let p1 = prefix(0x0a00_0000, 24);
        let p2 = prefix(0x0a01_0000, 16);
        let snapshot = RibSnapshot {
            observations: vec![
                observation(&[1, 2, 2, 3, 4], p1),
                observation(&[5, 2, 3, 6], p2),
            ],
            collector_peers: Vec::new(),
        };
        let ixp = |members: &[u32]| topogen::Ixp {
            region: RirRegion::RipeNcc,
            members: asns(members).into_iter().collect(),
        };
        let topology = Topology {
            ases: BTreeMap::new(),
            links: BTreeMap::new(),
            tier1: Default::default(),
            hypergiants: Default::default(),
            cogent: Asn(1),
            collector_peers: Vec::new(),
            ixps: vec![ixp(&[2, 3, 9]), ixp(&[2, 3]), ixp(&[3, 4])],
        };
        let mut paths = PathSet::new();
        for obs in &snapshot.observations {
            paths.push(obs.vp, AsPath::new(obs.path.clone()));
        }
        let stats = paths.stats();
        let ppdc = cone::ppdc_sizes(&paths, &BTreeMap::new());
        let metrics = compute_link_metrics(&topology, &snapshot, &stats, &ppdc);

        let link = |a: u32, b: u32| Link::new(Asn(a), Asn(b)).expect("distinct endpoints");
        assert_eq!(metrics.len(), 5);
        // Both routes cross 2–3: collector side {1, 5}, origin side {4, 6}.
        let m23 = metrics[&link(2, 3)];
        assert_eq!((m23.left_ases, m23.right_ases), (2, 2));
        assert_eq!((m23.visibility, m23.prefixes_redistributed), (2, 2));
        assert_eq!(m23.prefixes_originated, 0);
        assert_eq!(m23.common_ixps, 2);
        // 3–4 delivers p1 from its origin; only the third IXP has both.
        let m34 = metrics[&link(3, 4)];
        assert_eq!((m34.left_ases, m34.right_ases), (2, 0));
        assert_eq!(m34.prefixes_originated, 1);
        assert_eq!(m34.addresses_originated, 256);
        assert_eq!(m34.common_ixps, 1);
        // The prepended hop does not count twice on 1–2.
        let m12 = metrics[&link(1, 2)];
        assert_eq!((m12.left_ases, m12.right_ases), (0, 2));
        assert_eq!(m12.common_ixps, 0);
        let m36 = metrics[&link(3, 6)];
        assert_eq!(
            (m36.prefixes_originated, m36.addresses_originated),
            (1, 65_536)
        );
    }

    #[test]
    fn metrics_cover_all_observed_links() {
        let (topo, snap) = world();
        let paths = snap.to_pathset(false).sanitized();
        let stats = paths.stats();
        let rels: BTreeMap<Link, Rel> = topo.links.iter().map(|(l, r)| (*l, r.base)).collect();
        let ppdc = cone::ppdc_sizes(&paths, &rels);
        let metrics = compute_link_metrics(&topo, &snap, &stats, &ppdc);
        // Every observed link gets a metric row.
        for link in stats.links().iter().take(500) {
            assert!(metrics.contains_key(link), "{link} missing");
        }
        // Invariants.
        for (link, m) in metrics.iter().take(2000) {
            assert!(m.visibility >= 1, "{link}: zero visibility");
            assert!(m.prefixes_redistributed >= m.prefixes_originated);
            assert!(m.addresses_redistributed >= m.addresses_originated);
            assert!(
                m.transit_degree_diff >= 0.0 && m.transit_degree_diff <= 1.0,
                "{link}: td diff {}",
                m.transit_degree_diff
            );
            assert!(m.ppdc_diff >= 0.0 && m.ppdc_diff <= 1.0);
            assert!(m.manrs_endpoints <= 2 && m.hijacker_endpoints <= 2);
            assert_eq!(m.common_facilities, 0);
        }
    }

    #[test]
    fn ixp_comembership_is_detected() {
        let (topo, snap) = world();
        let paths = snap.to_pathset(false).sanitized();
        let stats = paths.stats();
        let rels: BTreeMap<Link, Rel> = topo.links.iter().map(|(l, r)| (*l, r.base)).collect();
        let ppdc = cone::ppdc_sizes(&paths, &rels);
        let metrics = compute_link_metrics(&topo, &snap, &stats, &ppdc);
        assert!(!topo.ixps.is_empty(), "generator must emit IXPs");
        // Some observed link connects two co-members of an IXP.
        let some_comember = metrics.values().any(|m| m.common_ixps > 0);
        assert!(some_comember, "no link with common IXPs found");
    }

    #[test]
    fn quartile_analysis_brackets_all_links() {
        let (topo, snap) = world();
        let paths = snap.to_pathset(false).sanitized();
        let stats = paths.stats();
        let rels: BTreeMap<Link, Rel> = topo.links.iter().map(|(l, r)| (*l, r.base)).collect();
        let ppdc = cone::ppdc_sizes(&paths, &rels);
        let metrics = compute_link_metrics(&topo, &snap, &stats, &ppdc);
        // Score ground truth against itself with a few synthetic errors.
        let scored: Vec<ScoredLink> = stats
            .links()
            .iter()
            .enumerate()
            .filter_map(|(i, link)| {
                let gt = topo.gt_rel(*link)?.base;
                if gt.class() == RelClass::S2s {
                    return None;
                }
                let inferred = if i % 10 == 0 {
                    match gt.class() {
                        RelClass::P2p => Rel::P2c { provider: link.a() },
                        _ => Rel::P2p,
                    }
                } else {
                    gt
                };
                Some(ScoredLink {
                    link: *link,
                    validation: gt,
                    inferred,
                })
            })
            .collect();
        let rows =
            error_by_feature_quartile(&scored, &metrics, "visibility", |m| m.visibility as f64);
        assert_eq!(rows.len(), 4);
        let total: usize = rows.iter().map(|r| r.links).sum();
        assert_eq!(total, scored.len());
        for r in &rows {
            assert!(r.error_rate >= 0.0 && r.error_rate <= 1.0);
        }
        // Fewer links than buckets: each link still lands in exactly one.
        for n in 1..=3 {
            let rows = error_by_feature_quartile(&scored[..n], &metrics, "visibility", |m| {
                m.visibility as f64
            });
            assert_eq!(rows.len(), 4);
            assert_eq!(rows.iter().map(|r| r.links).sum::<usize>(), n);
            for r in rows.iter().filter(|r| r.links == 0) {
                assert_eq!(r.error_rate, 0.0);
            }
        }
    }
}
