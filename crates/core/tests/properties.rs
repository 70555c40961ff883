//! Property tests for the analysis core: metric algebra, heatmap
//! normalisation, coverage accounting, cleaning invariants.

use asgraph::{Asn, Link, Rel, RelClass};
use breval_core::classes::LinkClassifier;
use breval_core::cleaning::{clean, AmbiguousPolicy, CleaningConfig};
use breval_core::coverage::{coverage_by_class, coverage_by_class_keyed};
use breval_core::heatmap::{Heatmap, HeatmapConfig};
use breval_core::metrics::{confusion, ConfusionMatrix, ScoredLink};
use breval_core::{Scenario, ScenarioConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;
use valdata::{LabelSource, ValidationSet};

fn arb_rel() -> impl Strategy<Value = Rel> {
    prop_oneof![
        Just(Rel::P2p),
        Just(Rel::S2s),
        (1u32..100).prop_map(|_| Rel::P2p), // weight towards p2p
    ]
}

fn arb_scored(n: usize) -> impl Strategy<Value = Vec<ScoredLink>> {
    prop::collection::vec(
        (
            1u32..500,
            501u32..1000,
            arb_rel(),
            arb_rel(),
            any::<bool>(),
            any::<bool>(),
        ),
        0..n,
    )
    .prop_map(|items| {
        items
            .into_iter()
            .map(|(a, b, v, i, va, ia)| {
                let link = Link::new(Asn(a), Asn(b)).unwrap();
                let orient = |rel: Rel, flip: bool| match rel {
                    Rel::S2s if flip => Rel::P2c { provider: link.a() },
                    Rel::S2s => Rel::P2c { provider: link.b() },
                    other => other,
                };
                ScoredLink {
                    link,
                    validation: orient(v, va),
                    inferred: orient(i, ia),
                }
            })
            .collect()
    })
}

proptest! {
    /// MCC is symmetric in the positive-class choice and bounded in [-1, 1];
    /// PPV/TPR/F1/FM are in [0, 1]; the four cells always sum to the input.
    #[test]
    fn metric_bounds_and_symmetry(scored in arb_scored(60)) {
        let mp = confusion(&scored, RelClass::P2p);
        let mc = confusion(&scored, RelClass::P2c);
        prop_assert_eq!(mp.total(), scored.len());
        prop_assert_eq!(mc.total(), scored.len());
        prop_assert!((mp.mcc() - mc.mcc()).abs() < 1e-9, "MCC must not depend on the positive class");
        for m in [mp, mc] {
            prop_assert!(m.mcc() >= -1.0 - 1e-12 && m.mcc() <= 1.0 + 1e-12);
            for v in [m.ppv(), m.tpr(), m.f1(), m.fowlkes_mallows(), m.balanced_accuracy()] {
                prop_assert!((0.0..=1.0).contains(&v), "metric out of range: {v}");
            }
        }
    }

    /// A perfect inference scores 1.0 everywhere defined.
    #[test]
    fn perfect_inference_is_perfect(scored in arb_scored(60)) {
        let perfect: Vec<ScoredLink> = scored
            .iter()
            .map(|s| ScoredLink { inferred: s.validation, ..*s })
            .collect();
        let m = confusion(&perfect, RelClass::P2p);
        prop_assert_eq!(m.fp, 0);
        prop_assert_eq!(m.fn_, 0);
        if m.tp > 0 {
            prop_assert!((m.ppv() - 1.0).abs() < 1e-12);
            prop_assert!((m.tpr() - 1.0).abs() < 1e-12);
        }
        if m.tp > 0 && m.tn > 0 {
            prop_assert!((m.mcc() - 1.0).abs() < 1e-12);
        }
    }

    /// Heatmaps are normalised distributions; TV distance is a metric-like
    /// quantity in [0, 1], zero on identical inputs.
    #[test]
    fn heatmap_normalisation(
        pairs in prop::collection::vec((1u32..2000, 2001u32..4000), 1..80),
        x_max in 10usize..200,
        y_max in 10usize..200,
    ) {
        let cfg = HeatmapConfig { x_bins: 8, y_bins: 8, x_max, y_max };
        let links: Vec<Link> = pairs
            .iter()
            .map(|(a, b)| Link::new(Asn(*a), Asn(*b)).unwrap())
            .collect();
        let hm = Heatmap::build(links.iter(), |a| a.0 as usize, cfg);
        let sum: f64 = hm.cells.iter().flatten().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert_eq!(hm.tv_distance(&hm), 0.0);
        prop_assert!(hm.bottom_left_mass() >= 0.0 && hm.bottom_left_mass() <= 1.0 + 1e-12);
    }

    /// Cleaning never invents labels: every output link existed in the input,
    /// and the census adds up.
    #[test]
    fn cleaning_is_conservative(
        entries in prop::collection::vec(
            (1u32..400, 401u32..800, 0u8..4, 0u8..4),
            0..60,
        ),
        policy in prop::sample::select(vec![
            AmbiguousPolicy::Ignore,
            AmbiguousPolicy::P2pIfFirstP2p,
            AmbiguousPolicy::AlwaysP2c,
        ]),
    ) {
        let mut set = ValidationSet::new();
        for (a, b, r1, r2) in &entries {
            let link = Link::new(Asn(*a), Asn(*b)).unwrap();
            let mk = |code: u8| match code {
                0 => Rel::P2p,
                1 => Rel::P2c { provider: link.a() },
                2 => Rel::P2c { provider: link.b() },
                _ => Rel::S2s,
            };
            set.add(link, mk(*r1), LabelSource::Communities);
            set.add(link, mk(*r2), LabelSource::Rpsl);
        }
        let org = asregistry::As2Org::new();
        let cleaned = clean(&set, &org, &CleaningConfig { ambiguous: policy, drop_siblings: true });
        prop_assert!(cleaned.len() <= set.len());
        for link in cleaned.labels.keys() {
            prop_assert!(set.entries.contains_key(link), "invented link {link}");
        }
        let r = &cleaned.report;
        prop_assert_eq!(r.raw_links, set.len());
        prop_assert_eq!(r.clean_links, cleaned.len());
        // Accounting: dropped + kept == raw (no sibling/spurious links here).
        let dropped = r.ambiguous_dropped + r.as_trans_dropped + r.reserved_dropped
            + r.sibling_dropped + r.s2s_only_dropped;
        prop_assert_eq!(dropped + r.clean_links, r.raw_links);
    }

    /// The validation-set text format round-trips arbitrary label sets.
    #[test]
    fn validation_set_text_roundtrip(
        entries in prop::collection::vec((1u32..10_000, 10_001u32..20_000, 0u8..4), 0..50)
    ) {
        let mut set = ValidationSet::new();
        for (a, b, code) in &entries {
            let link = Link::new(Asn(*a), Asn(*b)).unwrap();
            let rel = match code {
                0 => Rel::P2p,
                1 => Rel::P2c { provider: link.a() },
                2 => Rel::P2c { provider: link.b() },
                _ => Rel::S2s,
            };
            set.add(link, rel, LabelSource::Communities);
        }
        let parsed = ValidationSet::parse(&set.to_text()).unwrap();
        prop_assert_eq!(set, parsed);
    }
}

/// Degenerate confusion matrices never panic or return NaN.
#[test]
fn degenerate_matrices_are_finite() {
    for tp in [0usize, 1] {
        for fp in [0usize, 1] {
            for tn in [0usize, 1] {
                for fn_ in [0usize, 1] {
                    let m = ConfusionMatrix { tp, fp, tn, fn_ };
                    for v in [
                        m.ppv(),
                        m.tpr(),
                        m.f1(),
                        m.mcc(),
                        m.fowlkes_mallows(),
                        m.balanced_accuracy(),
                    ] {
                        assert!(v.is_finite(), "non-finite metric for {m:?}");
                    }
                }
            }
        }
    }
}

/// On a real scenario, the keyed coverage kernel (compact class keys,
/// labels materialised at the end) yields exactly the rows of the
/// string-keyed form, for both the region and the topology classifier.
#[test]
fn keyed_coverage_equals_string_coverage_on_small_scenario() {
    let scenario = Scenario::run(ScenarioConfig::small(42));
    let c = &scenario.classifier;
    let inferred = &scenario.inferred_links;
    let validated: BTreeSet<Link> = scenario.validation.labels.keys().copied().collect();
    assert!(!validated.is_empty());

    let region_keyed = coverage_by_class_keyed(
        inferred,
        &validated,
        |l| c.region_class(l),
        |class| class.label(),
    );
    let region_strings = coverage_by_class(inferred, &validated, |l| {
        c.region_class(l).map(|class| class.label())
    });
    assert!(!region_keyed.is_empty());
    assert_eq!(region_keyed, region_strings);

    let topo_keyed = coverage_by_class_keyed(
        inferred,
        &validated,
        |l| c.region_class(l).map(|_| c.topo_pair_id(l)),
        |code| LinkClassifier::topo_pair_label(*code).to_string(),
    );
    let topo_strings = coverage_by_class(inferred, &validated, |l| {
        c.region_class(l).map(|_| c.topo_class(l))
    });
    assert!(!topo_keyed.is_empty());
    assert_eq!(topo_keyed, topo_strings);
}
