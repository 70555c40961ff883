//! One world's job: the pipeline, every paper artefact, persisting the
//! snapshots, and the warm load a `brevald` first start performs.
//!
//! Each public call is timed from outside. In a traced run the call is
//! also wrapped in an obs span named after the layer it belongs to
//! (`core.heatmap`, `asinfer.unari`, …), so the manifest has one row per
//! layer; with obs off the spans cost one atomic load. Correctness checks
//! run between the timed calls and are never timed.

use crate::check::{Checks, Digest};
use breval_core::pipeline::HeatmapMetric;
use breval_core::report;
use breval_core::sampling::{sampling_sweep, SamplingConfig};
use breval_core::{Scenario, ScenarioConfig};
use brevald::SnapshotSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// Wall time spent in timed calls, by end-to-end group.
#[derive(Debug, Default, Clone, Copy)]
pub struct Clock {
    /// `Scenario::run`.
    pub pipeline: Duration,
    /// Artefact calls and their rendering.
    pub analysis: Duration,
    /// `SnapshotSet::save_all` and `SnapshotSet::load`.
    pub persist: Duration,
    /// The serve session.
    pub serve: Duration,
}

impl Clock {
    /// Every timed call.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.pipeline + self.analysis + self.persist + self.serve
    }
}

/// Runs `f` under the obs span `layer`, adding its wall time to `acc`.
pub fn timed<T>(layer: &str, acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let _span = breval_obs::span(layer);
    let start = Instant::now();
    let value = f();
    *acc += start.elapsed();
    value
}

/// The pipeline call, timed; the sanitize checks run on its output.
pub fn pipeline(config: ScenarioConfig, clock: &mut Clock, checks: &mut Checks) -> Scenario {
    let start = Instant::now();
    let scenario = Scenario::run(config);
    clock.pipeline += start.elapsed();
    checks.sanitize(&scenario);
    scenario
}

/// Every artefact `experiments all` emits (figures, tables, case study,
/// cleaning census, hard links, link features, calibration, ablations),
/// rendered through `breval_core::report`. `between` runs after each
/// artefact, outside the timed calls. Returns the digest of all rendered
/// text.
pub fn artefacts(s: &Scenario, clock: &mut Clock, between: &mut dyn FnMut()) -> Digest {
    let mut digest = Digest::default();
    let acc = &mut clock.analysis;

    for (rows, title) in [
        (timed("core.coverage", acc, || s.fig1()), "Fig. 1"),
        (timed("core.coverage", acc, || s.fig2()), "Fig. 2"),
    ] {
        timed("core.report", acc, || {
            digest.add(&report::render_coverage(&rows, title));
            digest.add(&report::coverage_csv(&rows));
        });
        between();
    }

    // The first PPDC build, timed on its own before the heatmaps read it.
    timed("core.ppdc_cones", acc, || s.ppdc_sizes_arc("asrank"));
    between();
    for (metric, title) in [
        (HeatmapMetric::TransitDegree, "Fig. 3"),
        (HeatmapMetric::Ppdc, "Fig. 7"),
        (HeatmapMetric::PpdcNoVp, "Fig. 8"),
        (HeatmapMetric::NodeDegree, "Fig. 9"),
    ] {
        let (inf, val) = timed("core.heatmap", acc, || s.heatmaps(metric));
        timed("core.report", acc, || {
            digest.add(&report::render_heatmap_pair(&inf, &val, title));
            digest.add(&report::heatmap_csv(&inf));
            digest.add(&report::heatmap_csv(&val));
        });
        between();
    }

    for name in ["asrank", "problink", "toposcope"] {
        let table = timed("core.eval_table", acc, || s.eval_table(name));
        timed("core.report", acc, || {
            digest.add(&report::render_eval_table(&table));
            digest.add(&report::eval_csv(&table));
        });
        between();
    }

    let points = timed("core.sampling", acc, || {
        let scored = s.scored_in_class("asrank", "T1-TR");
        sampling_sweep(&scored, &SamplingConfig::default())
    });
    timed("core.report", acc, || {
        digest.add(&report::render_sampling(&points, "T1-TR"));
        digest.add(&report::sampling_csv(&points));
    });
    between();

    let case = timed("core.casestudy", acc, || {
        let scored = s.scored_in_class("asrank", "T1-TR");
        let lg = bgpsim::LookingGlass::new(&s.topology);
        s.inference("asrank").map(|asrank| {
            breval_core::casestudy::run_case_study(
                &scored,
                asrank,
                &s.validation,
                &s.paths,
                &lg,
                &s.topology.tier1,
            )
        })
    });
    timed("core.report", acc, || {
        if let Some(case) = &case {
            digest.add(&report::render_case_study(case));
        }
        digest.add(&report::render_cleaning(&s.validation.report));
    });
    between();

    let hard = timed("core.hardlinks", acc, || {
        s.inference("asrank").map(|asrank| {
            let flags = breval_core::hardlinks::classify_hard_links(
                &s.paths,
                &s.stats,
                &asrank.clique,
                &breval_core::hardlinks::HardLinkConfig::default(),
            );
            let validated = s.validation.labels.keys().copied().collect();
            breval_core::hardlinks::hard_link_report(&flags, &validated, &s.scored_arc("asrank"))
        })
    });
    timed("core.report", acc, || {
        if let Some(hard) = &hard {
            digest.add(&report::render_hard_links(hard));
        }
    });
    between();

    let feature_rows = timed("core.linkfeatures", acc, || link_features(s));
    timed("core.report", acc, || {
        digest.add(&report::render_feature_errors(&feature_rows));
    });
    between();

    digest.add(&timed("core.clean", acc, || ablation_ambiguous(s)));
    between();
    digest.add(&timed("core.clean", acc, || ablation_sources(s)));
    between();
    digest.add(&timed("valdata.ablation_compile", acc, || ablation_666(s)));
    between();
    digest.add(&timed("valdata.ablation_compile", acc, || {
        ablation_legacy(s)
    }));
    between();
    digest.add(&timed("asinfer.unari", acc, || calibration(s)));
    between();
    digest
}

fn link_features(s: &Scenario) -> Vec<breval_core::linkfeatures::FeatureErrorRow> {
    use breval_core::linkfeatures::{compute_link_metrics, error_by_feature_quartile, LinkMetrics};
    let ppdc = s.ppdc_sizes_arc("asrank");
    let metrics = compute_link_metrics(&s.topology, &s.snapshot, &s.stats, &ppdc);
    let scored = s.scored_arc("asrank");
    type Feature = (&'static str, fn(&LinkMetrics) -> f64);
    let features: [Feature; 8] = [
        ("visibility", |m| m.visibility as f64),
        ("prefixes_redistributed", |m| {
            m.prefixes_redistributed as f64
        }),
        ("prefixes_originated", |m| m.prefixes_originated as f64),
        ("left_ases", |m| m.left_ases as f64),
        ("right_ases", |m| m.right_ases as f64),
        ("transit_degree_diff", |m| m.transit_degree_diff),
        ("ppdc_diff", |m| m.ppdc_diff),
        ("common_ixps", |m| m.common_ixps as f64),
    ];
    features
        .into_iter()
        .flat_map(|(name, f)| error_by_feature_quartile(&scored, &metrics, name, f))
        .collect()
}

fn ablation_ambiguous(s: &Scenario) -> String {
    use breval_core::{cleaning::clean, AmbiguousPolicy, CleaningConfig};
    let org = s.topology.as2org();
    let communities = s
        .validation_raw
        .only_source(valdata::LabelSource::Communities);
    let mut text = String::from("ablation ambiguous\n");
    for (label, ambiguous) in [
        ("ignore", AmbiguousPolicy::Ignore),
        ("p2p-if-first", AmbiguousPolicy::P2pIfFirstP2p),
        ("always-p2c", AmbiguousPolicy::AlwaysP2c),
    ] {
        let cleaned = clean(
            &communities,
            &org,
            &CleaningConfig {
                ambiguous,
                drop_siblings: true,
            },
        );
        let counts = cleaned.class_counts();
        let get = |c: asgraph::RelClass| counts.get(&c).copied().unwrap_or(0);
        text.push_str(&format!(
            "{label} {} {} {} {}\n",
            get(asgraph::RelClass::P2p),
            get(asgraph::RelClass::P2c),
            get(asgraph::RelClass::S2s),
            cleaned.len()
        ));
    }
    text
}

fn ablation_sources(s: &Scenario) -> String {
    use valdata::LabelSource;
    let org = s.topology.as2org();
    let total = s.inferred_links.len().max(1);
    let mut text = String::from("ablation sources\n");
    let sets = [
        (
            "communities",
            s.validation_raw.only_source(LabelSource::Communities),
        ),
        ("rpsl", s.validation_raw.only_source(LabelSource::Rpsl)),
        (
            "direct",
            s.validation_raw.only_source(LabelSource::DirectReport),
        ),
        ("all", s.validation_raw.clone()),
    ];
    for (label, set) in sets {
        let cleaned = breval_core::cleaning::clean(&set, &org, &Default::default());
        let covered = cleaned
            .labels
            .keys()
            .filter(|l| s.inferred_links.contains(l))
            .count();
        text.push_str(&format!(
            "{label} {} {:.3}\n",
            cleaned.len(),
            covered as f64 / total as f64
        ));
    }
    text
}

fn ablation_666(s: &Scenario) -> String {
    let mut text = String::from("ablation 666\n");
    for skip in [false, true] {
        let cfg = valdata::ValDataConfig {
            skip_666_as_blackhole: skip,
            ..s.config.valdata.clone()
        };
        let set = valdata::compile_communities(&s.topology, &s.snapshot, &cfg);
        let p2p = set
            .entries
            .values()
            .flatten()
            .filter(|r| matches!(r.rel, asgraph::Rel::P2p))
            .count();
        text.push_str(&format!("skip_666={skip} links={} p2p={p2p}\n", set.len()));
    }
    text
}

fn ablation_legacy(s: &Scenario) -> String {
    let mut text = String::from("ablation legacy\n");
    for legacy in [true, false] {
        let cfg = valdata::ValDataConfig {
            legacy_pipeline: legacy,
            ..s.config.valdata.clone()
        };
        let set = valdata::compile_communities(&s.topology, &s.snapshot, &cfg);
        let census = valdata::compile::label_census(&s.topology, &set);
        text.push_str(&format!("legacy={legacy} {census:?}\n"));
    }
    text
}

fn calibration(s: &Scenario) -> String {
    let beliefs = asinfer::Unari::new().beliefs(&s.paths);
    let reference: std::collections::HashMap<_, _> =
        s.validation.labels.iter().map(|(l, r)| (*l, *r)).collect();
    let bins = asinfer::unari::calibration_curve(&beliefs, &reference, 10);
    let mut text = String::from("calibration\n");
    for b in &bins {
        text.push_str(&format!(
            "[{:.2}, {:.2}) {} {:.3} {:.3}\n",
            b.lo, b.hi, b.links, b.mean_certainty, b.accuracy
        ));
    }
    text
}

/// Persists every snapshot a warm start needs into `dir` (timed), then
/// warm-loads the set the way `brevald` starts (timed). Returns the set
/// and the bytes written.
pub fn persist_and_load(
    s: &Scenario,
    dir: &Path,
    clock: &mut Clock,
    checks: &mut Checks,
) -> Option<(SnapshotSet, u64)> {
    let _ = std::fs::remove_dir_all(dir);
    let saved = timed("core.snapshot_save", &mut clock.persist, || {
        SnapshotSet::save_all(s, dir)
    });
    checks.record("snapshot save", saved.as_ref().err());
    let bytes = dir_bytes(dir);
    let loaded = timed("brevald.set_load", &mut clock.persist, || {
        SnapshotSet::load(dir, &s.config)
    });
    checks.record("snapshot load", loaded.as_ref().err());
    Some((loaded.ok()?, bytes))
}

/// Total size of the regular files directly under `dir`.
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
