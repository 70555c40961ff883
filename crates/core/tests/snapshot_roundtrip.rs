//! Scenario-snapshot persistence, end to end: saving every classifier's
//! snapshot and reloading it must reproduce the analysis byte-for-byte,
//! at any thread count — and corrupt files must fail loudly but gracefully.

use breval_core::pipeline::{HeatmapMetric, Scenario, ScenarioConfig};
use breval_core::snapshot::{ScenarioSnapshot, SnapshotError};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

const CLASSIFIERS: [&str; 4] = ["asrank", "problink", "toposcope", "gao"];

fn config() -> ScenarioConfig {
    ScenarioConfig::small(99)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("breval_snap_rt_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Saves all four classifiers' snapshots and returns their file bytes.
fn save_all(scenario: &Scenario, dir: &std::path::Path) -> BTreeMap<String, Vec<u8>> {
    CLASSIFIERS
        .iter()
        .map(|name| {
            let path = scenario
                .save_snapshot(dir, name)
                .unwrap_or_else(|e| panic!("saving {name}: {e}"));
            (
                (*name).to_owned(),
                std::fs::read(path).expect("written snapshot is readable"),
            )
        })
        .collect()
}

/// One shared scenario for the tests that only read it.
fn shared_scenario() -> &'static Scenario {
    static SCENARIO: OnceLock<Scenario> = OnceLock::new();
    SCENARIO.get_or_init(|| Scenario::run(config()))
}

#[test]
fn snapshots_round_trip_byte_identical_across_classifiers_and_threads() {
    // Same scenario, thread caps 1 and 4: the persisted snapshots must be
    // byte-identical — the pool guarantees deterministic results and the
    // codec adds nothing run-dependent.
    // `with_thread_cap` scopes + serialises the process-global cap against
    // any concurrently running test in this binary.
    let dir1 = temp_dir("t1");
    let bytes1 = breval_par::with_thread_cap(Some(1), || {
        let s1 = Scenario::run(config());
        save_all(&s1, &dir1)
    });

    let dir4 = temp_dir("t4");
    let (s4, bytes4) = breval_par::with_thread_cap(Some(4), || {
        let s4 = Scenario::run(config());
        let bytes = save_all(&s4, &dir4);
        (s4, bytes)
    });

    for name in CLASSIFIERS {
        assert_eq!(
            bytes1[name], bytes4[name],
            "snapshot for {name} differs between 1 and 4 threads"
        );

        // Warm load reproduces every analysis output of the cold build.
        let loaded = Scenario::load_snapshot(&dir4, &s4.config, name)
            .unwrap_or_else(|e| panic!("loading {name}: {e}"));
        let cold = s4.snapshot_arc(name);
        assert_eq!(
            loaded.summary_csv(),
            cold.summary_csv(),
            "summary of {name}"
        );
        assert_eq!(
            *loaded
                .cone_sizes()
                .expect("loaded snapshots are materialised"),
            *s4.cone_sizes_arc(name),
            "cone sizes of {name}"
        );
        assert_eq!(
            *loaded
                .ppdc_sizes()
                .expect("loaded snapshots are materialised"),
            *s4.ppdc_sizes_arc(name),
            "PPDC sizes of {name}"
        );
        assert_eq!(
            *loaded.scored().expect("loaded snapshots are materialised"),
            *s4.scored_arc(name),
            "scored join of {name}"
        );
        // And re-encoding the loaded snapshot recreates the file bytes.
        assert_eq!(
            loaded.to_bytes(&s4.snapshot_key(name)),
            bytes4[name],
            "re-encode of {name}"
        );
    }

    // A wrong-version file is refused gracefully.
    let mut bad = bytes4["asrank"].clone();
    bad[8] = 0xfe;
    assert!(matches!(
        ScenarioSnapshot::from_bytes(&bad),
        Err(SnapshotError::Codec(_))
    ));
}

#[test]
fn ppdc_heatmaps_follow_the_requested_classifier() {
    // Regression for `Scenario::heatmaps` hard-wiring the ASRank PPDC sizes
    // into every classifier's plot: the per-classifier path must actually
    // use the named classifier's cones.
    let s = shared_scenario();
    let asrank = s.ppdc_sizes_arc("asrank");
    let problink = s.ppdc_sizes_arc("problink");
    assert_ne!(
        *asrank, *problink,
        "seed 99 must give ASRank and ProbLink different PPDC cones; pick another seed"
    );
    let (inf_a, val_a) = s.heatmaps_for("asrank", HeatmapMetric::Ppdc);
    let (inf_p, val_p) = s.heatmaps_for("problink", HeatmapMetric::Ppdc);
    assert!(
        inf_a.cells != inf_p.cells || val_a.cells != val_p.cells,
        "PPDC heatmaps for ASRank and ProbLink are identical — classifier not threaded through"
    );
    // The default entry point keeps the paper's ASRank view.
    let (inf_default, _) = s.heatmaps(HeatmapMetric::Ppdc);
    assert_eq!(inf_default.cells, inf_a.cells);
}

/// One classifier's labelled coverage summary, the byte-identity probe of
/// the warm-start test.
fn labelled_summary(name: &str, snap: &ScenarioSnapshot) -> String {
    format!("# classifier: {name}\n{}", snap.summary_csv())
}

#[test]
fn warm_reload_reproduces_cold_summaries_at_least_50x_faster() {
    // Warm start from persisted snapshots must reproduce the cold analysis
    // byte for byte and beat cold build + save by at least this factor.
    const MIN_SPEEDUP: f64 = 50.0;
    let config = ScenarioConfig::small(42);
    let dir = temp_dir("warm");
    // One thread, as the cap lock also keeps the other cap-scoped tests of
    // this binary out of the timed window.
    let (cold, warm, cold_summary, warm_summary) = breval_par::with_thread_cap(Some(1), || {
        let t = Instant::now();
        let scenario = Scenario::run(config.clone());
        let cold_summary: String = CLASSIFIERS
            .iter()
            .map(|name| {
                scenario
                    .save_snapshot(&dir, name)
                    .unwrap_or_else(|e| panic!("saving {name}: {e}"));
                labelled_summary(name, &scenario.snapshot_arc(name))
            })
            .collect();
        let cold = t.elapsed();

        let t = Instant::now();
        let warm_summary: String = CLASSIFIERS
            .iter()
            .map(|name| {
                let snap = Scenario::load_snapshot(&dir, &config, name)
                    .unwrap_or_else(|e| panic!("loading {name}: {e}"));
                labelled_summary(name, &snap)
            })
            .collect();
        (cold, t.elapsed(), cold_summary, warm_summary)
    });

    assert_eq!(
        cold_summary, warm_summary,
        "warm summaries differ from cold"
    );
    let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
    assert!(
        speedup >= MIN_SPEEDUP,
        "warm reload only {speedup:.1}× faster than cold build + save \
         ({cold:?} vs {warm:?}; need ≥ {MIN_SPEEDUP}×)"
    );
}
