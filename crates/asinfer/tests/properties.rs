//! Property tests for the inference algorithms: well-formed outputs on
//! arbitrary path sets, and stability invariants.

use asgraph::{AsPath, Asn, Link, PathSet, Rel};
use asinfer::{AsRank, Classifier, GaoClassifier, ProbLink, TopoScope, Unari};
use proptest::prelude::*;

fn arb_pathset() -> impl Strategy<Value = PathSet> {
    prop::collection::vec(prop::collection::vec(1u32..120, 2..8), 1..40).prop_map(|paths| {
        let mut ps = PathSet::new();
        for hops in paths {
            let hops: Vec<Asn> = hops.into_iter().map(Asn).collect();
            let vp = hops[0];
            ps.push(vp, AsPath::new(hops));
        }
        ps
    })
}

/// Paths over a small AS universe, so loops are common, with reserved hops
/// (`AS_TRANS`, private ASNs) mixed in.
fn arb_dirty_pathset() -> impl Strategy<Value = PathSet> {
    let hop = (1u32..44).prop_map(|h| match h {
        40 => 23_456,
        41..=43 => 64_512 + h,
        _ => h,
    });
    prop::collection::vec(prop::collection::vec(hop, 2..9), 1..40).prop_map(|paths| {
        let mut ps = PathSet::new();
        for hops in paths {
            let hops: Vec<Asn> = hops.into_iter().map(Asn).collect();
            ps.push(hops[0], AsPath::new(hops));
        }
        ps
    })
}

fn classifiers() -> Vec<Box<dyn Classifier>> {
    vec![
        Box::new(GaoClassifier::new()),
        Box::new(AsRank::new()),
        Box::new(ProbLink::new()),
        Box::new(TopoScope::new()),
        Box::new(Unari::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every classifier labels exactly the sanitized observed links, every
    /// P2C orientation is valid, and no classifier panics on arbitrary input.
    #[test]
    fn outputs_are_well_formed(ps in arb_pathset()) {
        let observed = ps.sanitized().stats().links().clone();
        for c in classifiers() {
            let inf = c.infer(&ps);
            prop_assert_eq!(
                inf.rels.len(),
                observed.len(),
                "{} must label every observed link exactly once",
                c.name()
            );
            for (link, rel) in &inf.rels {
                prop_assert!(observed.contains(link), "{}: invented {link}", c.name());
                prop_assert!(rel.is_valid_for(*link), "{}: invalid orientation on {link}", c.name());
            }
        }
    }

    /// Determinism: same input twice, identical output, for every algorithm.
    #[test]
    fn all_classifiers_deterministic(ps in arb_pathset()) {
        for c in classifiers() {
            prop_assert_eq!(c.infer(&ps), c.infer(&ps), "{} not deterministic", c.name());
        }
    }

    /// The inferred clique is always fully meshed in the observed links.
    #[test]
    fn inferred_clique_is_a_clique(ps in arb_pathset()) {
        let inf = AsRank::new().infer(&ps);
        let observed = ps.sanitized().stats().links().clone();
        let members: Vec<Asn> = inf.clique.iter().copied().collect();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let link = Link::new(members[i], members[j]).unwrap();
                prop_assert!(
                    observed.contains(&link),
                    "clique pair {link} not adjacent in observed links"
                );
                prop_assert_eq!(inf.rel(link), Some(Rel::P2p));
            }
        }
    }

    /// UNARI sanitizes its input itself: beliefs over dirty paths equal the
    /// beliefs over their sanitized form.
    #[test]
    fn unari_beliefs_ignore_dirty_paths(ps in arb_dirty_pathset()) {
        let unari = Unari::new();
        prop_assert_eq!(unari.beliefs(&ps), unari.beliefs(&ps.sanitized()));
    }

    /// UNARI's hard labels agree with its belief argmax, and the beliefs are
    /// proper distributions.
    #[test]
    fn unari_beliefs_consistent(ps in arb_pathset()) {
        let unari = Unari::new();
        let inf = unari.infer(&ps);
        let beliefs = unari.beliefs(&ps);
        prop_assert_eq!(inf.rels.len(), beliefs.len());
        for (link, belief) in &beliefs {
            prop_assert!((belief.p_p2c + belief.p_p2p - 1.0).abs() < 1e-9);
            prop_assert_eq!(inf.rel(*link), Some(belief.hard_label()));
        }
    }
}
