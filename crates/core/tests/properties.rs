//! Property tests for the analysis core: metric algebra, heatmap
//! normalisation, coverage accounting, cleaning invariants.

use asgraph::{Asn, Link, Rel, RelClass};
use asregistry::{IanaAsnTable, RegionMap};
use breval_core::classes::{LinkClassifier, TopoClass, REGION_NONE};
use breval_core::cleaning::{clean, AmbiguousPolicy, CleaningConfig};
use breval_core::coverage::{ClassCoverage, ClassGrid};
use breval_core::heatmap::{Heatmap, HeatmapConfig};
use breval_core::metrics::{confusion, ClassEval, ConfusionMatrix, EvalTable, ScoredLink};
use breval_core::{Scenario, ScenarioConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
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

/// The region label of a link, built from the region map and the RIR
/// abbreviations (`AR°`, `AF-AP`, …); `None` for unmapped endpoints.
fn oracle_region(c: &LinkClassifier, l: Link) -> Option<String> {
    let (a, b) = (c.region(l.a())?.abbrev(), c.region(l.b())?.abbrev());
    Some(if a == b {
        format!("{a}°")
    } else {
        format!("{}-{}", a.min(b), a.max(b))
    })
}

/// The topology label of a link from its endpoints' node classes, in the
/// paper's H, S, T1, TR pair order (`S-TR`, `TR°`, …).
fn oracle_topo(c: &LinkClassifier, l: Link) -> String {
    let order = [
        (TopoClass::H, "H"),
        (TopoClass::S, "S"),
        (TopoClass::T1, "T1"),
        (TopoClass::TR, "TR"),
    ];
    let rank = |asn| {
        let class = c.node_class(asn);
        order
            .iter()
            .position(|(t, _)| *t == class)
            .expect("four classes")
    };
    let (x, y) = (rank(l.a()), rank(l.b()));
    let (lo, hi) = (order[x.min(y)].1, order[x.max(y)].1);
    if lo == hi {
        format!("{lo}°")
    } else {
        format!("{lo}-{hi}")
    }
}

/// Figs. 1–2 as a label-keyed fold: per-class (links, validated), shares
/// over the classified links, sorted by share descending, then label.
fn oracle_coverage(
    links: &BTreeSet<Link>,
    validated: &BTreeSet<Link>,
    class_of: impl Fn(Link) -> Option<String>,
) -> Vec<ClassCoverage> {
    let mut per_class: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for l in links {
        if let Some(class) = class_of(*l) {
            let cell = per_class.entry(class).or_default();
            cell.0 += 1;
            cell.1 += usize::from(validated.contains(l));
        }
    }
    let total: usize = per_class.values().map(|c| c.0).sum();
    let mut rows: Vec<ClassCoverage> = per_class
        .into_iter()
        .map(|(class, (n, v))| ClassCoverage {
            class,
            inferred_links: n,
            share: n as f64 / total.max(1) as f64,
            validated_links: v,
            coverage: v as f64 / n.max(1) as f64,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.share
            .partial_cmp(&a.share)
            .unwrap()
            .then_with(|| a.class.cmp(&b.class))
    });
    rows
}

/// Tables 1–3 as a label-keyed group-by: region rows (mapped links only)
/// and topology rows (every link), each kept at ≥ `min_links` links.
fn oracle_eval_table(s: &Scenario, name: &str) -> EvalTable {
    let c = &s.classifier;
    let scored = s.scored_arc(name);
    let mut per_class: BTreeMap<String, Vec<ScoredLink>> = BTreeMap::new();
    for sl in scored.iter() {
        if let Some(region) = oracle_region(c, sl.link) {
            per_class.entry(region).or_default().push(*sl);
        }
        per_class
            .entry(oracle_topo(c, sl.link))
            .or_default()
            .push(*sl);
    }
    EvalTable {
        classifier: name.to_owned(),
        total: ClassEval::evaluate("Total°", &scored),
        rows: per_class
            .into_iter()
            .filter(|(_, links)| links.len() >= s.config.min_class_links)
            .map(|(class, links)| (class.clone(), ClassEval::evaluate(class, &links)))
            .collect(),
    }
}

/// On a real scenario, the code-pair folds behind Figs. 1–2, Tables 1–3
/// and `scored_in_class` equal label-keyed folds whose labels come from
/// the region map and the node classes, not from the code tables. The
/// second pass swaps in a region map that lost every 20th delegation and
/// the IANA bootstrap, so the §5 rule that discards links with an
/// unmapped endpoint runs on real data too.
#[test]
fn class_folds_equal_label_keyed_oracle_on_small_scenario() {
    let mut s = Scenario::run(ScenarioConfig::small(42));
    assert_class_folds_match_oracle(&s);

    let mut files = s.topology.delegation_files("20180405");
    for file in &mut files {
        let mut k = 0usize;
        file.records.retain(|_| {
            k += 1;
            !k.is_multiple_of(20)
        });
    }
    s.classifier = LinkClassifier::with_cone_sizes(
        RegionMap::build(IanaAsnTable::new(), &files),
        s.classifier.cone_sizes_arc(),
        s.topology.tier1.clone(),
        s.topology.hypergiants.clone(),
    );
    let c = &s.classifier;
    let observed: BTreeSet<Asn> = s
        .inferred_links
        .iter()
        .flat_map(|l| [l.a(), l.b()])
        .collect();
    let unmapped = observed
        .iter()
        .filter(|&&asn| c.region(asn).is_none())
        .count();
    assert!(
        unmapped * 100 >= observed.len(),
        "{unmapped} of {} observed ASes unmapped",
        observed.len()
    );
    let grid = ClassGrid::build(&s.inferred_links, c, |_| false);
    let none_links = grid.slice_counts(Some(REGION_NONE), None).0;
    assert!(none_links > 0, "the `none` region row is empty");
    let fig1_links: usize = s.fig1().iter().map(|r| r.inferred_links).sum();
    assert_eq!(
        fig1_links as u64 + none_links,
        s.inferred_links.len() as u64
    );
    assert_class_folds_match_oracle(&s);
}

fn assert_class_folds_match_oracle(s: &Scenario) {
    let c = &s.classifier;
    let validated: BTreeSet<Link> = s.validation.labels.keys().copied().collect();
    assert!(!validated.is_empty());

    let fig1 = oracle_coverage(&s.inferred_links, &validated, |l| oracle_region(c, l));
    assert!(fig1.len() > 5, "{fig1:?}");
    assert_eq!(s.fig1(), fig1);
    let fig2 = oracle_coverage(&s.inferred_links, &validated, |l| {
        oracle_region(c, l).map(|_| oracle_topo(c, l))
    });
    assert!(fig2.len() > 5, "{fig2:?}");
    assert_eq!(s.fig2(), fig2);

    for name in ["asrank", "problink", "toposcope"] {
        let json = |t: &EvalTable| serde_json::to_string(t).expect("tables serialize");
        let want = oracle_eval_table(s, name);
        assert!(want.rows.len() > 5, "{name}: {:?}", want.rows.keys());
        assert_eq!(json(&s.eval_table(name)), json(&want), "{name}");
    }

    let scored = s.scored_arc("asrank");
    for class in ["AR°", "AR-R", "T1-TR", "S-TR"] {
        let want: Vec<ScoredLink> = scored
            .iter()
            .filter(|sl| {
                oracle_region(c, sl.link).as_deref() == Some(class)
                    || oracle_topo(c, sl.link) == class
            })
            .copied()
            .collect();
        assert!(!want.is_empty(), "{class}");
        assert_eq!(s.scored_in_class("asrank", class), want, "{class}");
    }
    // `none` is the unmapped-region code's label, not a class; unknown
    // labels match nothing.
    assert!(s.scored_in_class("asrank", "none").is_empty());
    assert!(s.scored_in_class("asrank", "bogus").is_empty());
}
