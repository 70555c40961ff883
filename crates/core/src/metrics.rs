//! Classification-correctness metrics (§6).
//!
//! For each link class the paper reports precision (`PPV`) and recall (`TPR`)
//! twice — once with P2P as the positive class, once with P2C — plus the link
//! counts and Matthews correlation coefficient. We reproduce exactly those
//! columns (and additionally F1, balanced accuracy and the Fowlkes–Mallows
//! index, which the paper mentions but does not tabulate).

use crate::classes::{region_label_of, topo_label_of, REGION_CODES, REGION_NONE, TOPO_CODES};
use asgraph::{Link, Rel, RelClass};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A binary confusion matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl ConfusionMatrix {
    /// Total classified items.
    #[must_use]
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Precision (positive predictive value). 0 when undefined.
    #[must_use]
    pub fn ppv(&self) -> f64 {
        let d = self.tp + self.fp;
        if d == 0 {
            0.0
        } else {
            self.tp as f64 / d as f64
        }
    }

    /// Recall (true positive rate). 0 when undefined.
    #[must_use]
    pub fn tpr(&self) -> f64 {
        let d = self.tp + self.fn_;
        if d == 0 {
            0.0
        } else {
            self.tp as f64 / d as f64
        }
    }

    /// F1 score. 0 when undefined.
    #[must_use]
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.ppv(), self.tpr());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Balanced accuracy. 0 when undefined.
    #[must_use]
    pub fn balanced_accuracy(&self) -> f64 {
        let tnr_d = self.tn + self.fp;
        let tnr = if tnr_d == 0 {
            0.0
        } else {
            self.tn as f64 / tnr_d as f64
        };
        (self.tpr() + tnr) / 2.0
    }

    /// Matthews correlation coefficient in [-1, 1]; 0 when the denominator
    /// vanishes (the Chicco et al. convention the paper follows).
    #[must_use]
    pub fn mcc(&self) -> f64 {
        let (tp, fp, tn, fn_) = (
            self.tp as f64,
            self.fp as f64,
            self.tn as f64,
            self.fn_ as f64,
        );
        let denom = ((tp + fp) * (tp + fn_) * (tn + fp) * (tn + fn_)).sqrt();
        if denom == 0.0 {
            0.0
        } else {
            (tp * tn - fp * fn_) / denom
        }
    }

    /// Fowlkes–Mallows index (geometric mean of PPV and TPR).
    #[must_use]
    pub fn fowlkes_mallows(&self) -> f64 {
        (self.ppv() * self.tpr()).sqrt()
    }

    /// Counts one item by its actual and predicted positivity.
    fn add(&mut self, actual: bool, predicted: bool) {
        match (actual, predicted) {
            (true, true) => self.tp += 1,
            (false, true) => self.fp += 1,
            (true, false) => self.fn_ += 1,
            (false, false) => self.tn += 1,
        }
    }
}

/// One (validation label, inferred label) pair for a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScoredLink {
    /// The link.
    pub link: Link,
    /// The cleaned validation label.
    pub validation: Rel,
    /// The inferred label.
    pub inferred: Rel,
}

/// Builds the binary confusion matrix treating `positive` as the positive
/// relationship class (orientation-collapsed; orientation errors are counted
/// separately in [`ClassEval`]).
#[must_use]
pub fn confusion(scored: &[ScoredLink], positive: RelClass) -> ConfusionMatrix {
    let mut m = ConfusionMatrix::default();
    for s in scored {
        m.add(
            s.validation.class() == positive,
            s.inferred.class() == positive,
        );
    }
    m
}

/// The evaluation of one link class — one row of Tables 1–3.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClassEval {
    /// Class label (e.g. `"T1-TR"`, `"AR-L"`, `"Total°"`).
    pub class: String,
    /// Confusion matrix with P2P positive.
    pub p2p: ConfusionMatrix,
    /// Confusion matrix with P2C positive.
    pub p2c: ConfusionMatrix,
    /// Number of validated-P2P links in the class (`LC_P`).
    pub lc_p: usize,
    /// Number of validated-P2C links in the class (`LC_C`).
    pub lc_c: usize,
    /// P2C links whose class matched but whose orientation was inverted.
    pub orientation_errors: usize,
    /// Matthews correlation coefficient.
    pub mcc: f64,
    /// Fowlkes–Mallows index.
    pub fm: f64,
}

impl ClassEval {
    /// Evaluates one class's scored links.
    #[must_use]
    pub fn evaluate(class: impl Into<String>, scored: &[ScoredLink]) -> Self {
        let mut eval = ClassEval::default();
        for s in scored {
            eval.add(s);
        }
        eval.finish(class)
    }

    /// Folds one scored link into the counts; [`ClassEval::finish`] derives
    /// the scores.
    fn add(&mut self, s: &ScoredLink) {
        let (val, inf) = (s.validation.class(), s.inferred.class());
        self.p2p.add(val == RelClass::P2p, inf == RelClass::P2p);
        self.p2c.add(val == RelClass::P2c, inf == RelClass::P2c);
        self.lc_p += usize::from(val == RelClass::P2p);
        self.lc_c += usize::from(val == RelClass::P2c);
        self.orientation_errors +=
            usize::from(val == RelClass::P2c && inf == RelClass::P2c && s.validation != s.inferred);
    }

    /// Labels the row and derives MCC and Fowlkes–Mallows from the counts.
    fn finish(mut self, class: impl Into<String>) -> Self {
        self.class = class.into();
        self.mcc = self.p2p.mcc();
        self.fm = self.p2p.fowlkes_mallows();
        self
    }
}

/// A full per-class evaluation table for one classifier (Tables 1–3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalTable {
    /// Classifier name.
    pub classifier: String,
    /// The `Total°` row.
    pub total: ClassEval,
    /// Per-class rows, keyed by class label.
    pub rows: BTreeMap<String, ClassEval>,
}

impl EvalTable {
    /// Builds a table from scored links and their (region code, topology
    /// code) classes (see [`crate::classes`]). Each link is folded into
    /// its region row (unless the region code is [`REGION_NONE`]) and its
    /// topology row. Only classes with at least `min_links` scored links
    /// (and at least one) get a row; the paper uses 500.
    #[must_use]
    pub fn build<F>(
        classifier: impl Into<String>,
        scored: &[ScoredLink],
        class_of: F,
        min_links: usize,
    ) -> Self
    where
        F: Fn(Link) -> (u8, u8),
    {
        let mut total = ClassEval::default();
        let mut regions = vec![ClassEval::default(); REGION_CODES];
        let mut topos = vec![ClassEval::default(); TOPO_CODES];
        for s in scored {
            let (region, topo) = class_of(s.link);
            total.add(s);
            if let Some(row) = regions.get_mut(usize::from(region)) {
                row.add(s);
            }
            if let Some(row) = topos.get_mut(usize::from(topo)) {
                row.add(s);
            }
        }
        // Zipping with `0..REGION_NONE` drops the unmapped links' row.
        let region_rows = (0..REGION_NONE)
            .zip(regions)
            .filter_map(|(code, eval)| Some((region_label_of(code)?, eval)));
        let topo_rows = (0u8..)
            .zip(topos)
            .filter_map(|(code, eval)| Some((topo_label_of(code)?.to_owned(), eval)));
        let rows = region_rows
            .chain(topo_rows)
            .filter(|(_, eval)| eval.p2p.total() >= min_links.max(1))
            .map(|(label, eval)| (label.clone(), eval.finish(label)))
            .collect();
        EvalTable {
            classifier: classifier.into(),
            total: total.finish("Total°"),
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgraph::Asn;

    fn link(a: u32, b: u32) -> Link {
        Link::new(Asn(a), Asn(b)).unwrap()
    }

    fn scored(val: Rel, inf: Rel) -> ScoredLink {
        ScoredLink {
            link: link(1, 2),
            validation: val,
            inferred: inf,
        }
    }

    const P2P: Rel = Rel::P2p;
    fn p2c(p: u32) -> Rel {
        Rel::P2c { provider: Asn(p) }
    }

    #[test]
    fn confusion_hand_computed() {
        let s = vec![
            scored(P2P, P2P),       // TP (p2p positive)
            scored(P2P, p2c(1)),    // FN
            scored(p2c(1), P2P),    // FP
            scored(p2c(1), p2c(1)), // TN
            scored(p2c(1), p2c(1)), // TN
        ];
        let m = confusion(&s, RelClass::P2p);
        assert_eq!(
            m,
            ConfusionMatrix {
                tp: 1,
                fp: 1,
                tn: 2,
                fn_: 1
            }
        );
        assert!((m.ppv() - 0.5).abs() < 1e-12);
        assert!((m.tpr() - 0.5).abs() < 1e-12);
        // Swapping positive class transposes roles.
        let mc = confusion(&s, RelClass::P2c);
        assert_eq!(mc.tp, 2);
        assert_eq!(mc.fp, 1);
        assert_eq!(mc.fn_, 1);
        assert_eq!(mc.tn, 1);
    }

    #[test]
    fn mcc_bounds_and_symmetry() {
        // Perfect classification.
        let m = ConfusionMatrix {
            tp: 10,
            fp: 0,
            tn: 10,
            fn_: 0,
        };
        assert!((m.mcc() - 1.0).abs() < 1e-12);
        // Perfectly wrong.
        let m = ConfusionMatrix {
            tp: 0,
            fp: 10,
            tn: 0,
            fn_: 10,
        };
        assert!((m.mcc() + 1.0).abs() < 1e-12);
        // Coin toss.
        let m = ConfusionMatrix {
            tp: 5,
            fp: 5,
            tn: 5,
            fn_: 5,
        };
        assert!(m.mcc().abs() < 1e-12);
        // Degenerate: all one class → 0 by convention.
        let m = ConfusionMatrix {
            tp: 10,
            fp: 0,
            tn: 0,
            fn_: 0,
        };
        assert_eq!(m.mcc(), 0.0);
    }

    #[test]
    fn mcc_positive_class_invariant() {
        // MCC must be identical for either choice of positive class.
        let s = vec![
            scored(P2P, P2P),
            scored(P2P, p2c(1)),
            scored(p2c(1), P2P),
            scored(p2c(1), p2c(1)),
            scored(p2c(1), p2c(1)),
            scored(P2P, P2P),
        ];
        let mp = confusion(&s, RelClass::P2p).mcc();
        let mc = confusion(&s, RelClass::P2c).mcc();
        assert!((mp - mc).abs() < 1e-12);
    }

    #[test]
    fn f1_and_friends() {
        let m = ConfusionMatrix {
            tp: 8,
            fp: 2,
            tn: 7,
            fn_: 3,
        };
        assert!((m.f1() - (2.0 * 0.8 * (8.0 / 11.0)) / (0.8 + 8.0 / 11.0)).abs() < 1e-12);
        assert!((m.fowlkes_mallows() - (0.8f64 * (8.0 / 11.0)).sqrt()).abs() < 1e-12);
        assert!(m.balanced_accuracy() > 0.0 && m.balanced_accuracy() <= 1.0);
        assert_eq!(m.total(), 20);
        // Degenerate cases return 0, not NaN.
        let z = ConfusionMatrix::default();
        for v in [z.ppv(), z.tpr(), z.f1(), z.mcc(), z.fowlkes_mallows()] {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn class_eval_counts_orientation_errors() {
        let s = vec![
            scored(p2c(1), p2c(2)), // right class, wrong orientation
            scored(p2c(1), p2c(1)),
            scored(P2P, P2P),
        ];
        let eval = ClassEval::evaluate("X", &s);
        assert_eq!(eval.orientation_errors, 1);
        assert_eq!(eval.lc_c, 2);
        assert_eq!(eval.lc_p, 1);
    }

    #[test]
    fn eval_table_filters_small_classes() {
        let mut scored_links = Vec::new();
        for i in 0..10 {
            scored_links.push(ScoredLink {
                link: link(100 + i, 200 + i),
                validation: P2P,
                inferred: P2P,
            });
        }
        scored_links.push(ScoredLink {
            link: link(1, 2),
            validation: P2P,
            inferred: P2P,
        });
        // Link 1-2 is AF° / H°; the others are AR° (12) / S-TR (7).
        let classes = |l: Link| if l.a() == Asn(1) { (0, 0) } else { (12, 7) };
        let table = EvalTable::build("test", &scored_links, classes, 5);
        let labels: Vec<&str> = table.rows.keys().map(String::as_str).collect();
        assert_eq!(labels, ["AR°", "S-TR"]);
        assert_eq!(table.rows["AR°"].class, "AR°");
        assert_eq!(table.rows["S-TR"].lc_p, 10);
        assert_eq!(table.total.lc_p, 11);
        // Unmapped links get no region row but keep their topology row.
        let table = EvalTable::build("test", &scored_links, |_| (REGION_NONE, 15), 0);
        let labels: Vec<&str> = table.rows.keys().map(String::as_str).collect();
        assert_eq!(labels, ["TR°"]);
    }
}
