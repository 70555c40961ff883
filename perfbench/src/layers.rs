//! Per-layer rows of a traced run.
//!
//! Stage rows inside `Scenario::run` come from the obs spans the pipeline
//! already records (`scenario_run/simulate`, …); every other row comes
//! from the benchmark's own spans around the public calls it makes
//! (`core.heatmap`, `brevald.set_load`, …). A row's allocations add the
//! pool-worker slices beneath it, which ran on other threads.

use crate::metrics::Values;
use crate::stats;
use crate::transcript;
use breval_core::ScenarioConfig;
use breval_obs::RunManifest;
use brevald::{SnapshotSet, SnapshotStore};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::time::Instant;

/// Wall milliseconds of the span `path`.
fn wall_ms(manifest: &RunManifest, path: &str) -> f64 {
    manifest
        .stages
        .iter()
        .filter(|s| s.name == path)
        .map(|s| s.wall_ms)
        .sum()
}

/// Allocations of the span `path`, including pool-worker slices under it.
fn allocs(manifest: &RunManifest, path: &str) -> f64 {
    let prefix = format!("{path}/");
    manifest
        .stages
        .iter()
        .filter(|s| {
            s.name == path || (s.name.starts_with(&prefix) && s.name.ends_with("/pool_worker"))
        })
        .map(|s| s.alloc_count as f64)
        .sum()
}

fn counter(manifest: &RunManifest, name: &str) -> f64 {
    manifest.counters.get(name).copied().unwrap_or(0) as f64
}

/// Fills every row that the manifest of the traced window provides.
/// `wall_s` is the window's timed wall and `cap` the thread cap.
pub fn from_manifest(manifest: &RunManifest, wall_s: f64, cap: usize, values: &mut Values) {
    let run = |stage: &str| format!("scenario_run/{stage}");
    let infer = |name: &str| format!("scenario_run/infer_all/infer_{name}");

    values.set("topogen.generate_ms", wall_ms(manifest, &run("generate")));
    values.set("bgpsim.simulate_ms", wall_ms(manifest, &run("simulate")));
    values.set("bgpsim.simulate_allocs", allocs(manifest, &run("simulate")));
    values.set(
        "bgpsim.route_observations",
        counter(manifest, "route_observations"),
    );
    values.set(
        "asgraph.to_pathset_ms",
        wall_ms(manifest, &run("to_pathset")),
    );
    values.set("asgraph.sanitize_ms", wall_ms(manifest, &run("sanitize")));
    values.set(
        "asgraph.path_stats_ms",
        wall_ms(manifest, &run("path_stats")),
    );
    values.set(
        "asgraph.path_stats_allocs",
        allocs(manifest, &run("path_stats")),
    );
    values.set("asinfer.infer_all_ms", wall_ms(manifest, &run("infer_all")));
    for (metric, name) in [
        ("asinfer.asrank_ms", "asrank"),
        ("asinfer.problink_ms", "problink"),
        ("asinfer.toposcope_ms", "toposcope"),
        ("asinfer.gao_ms", "gao"),
    ] {
        values.set(metric, wall_ms(manifest, &infer(name)));
    }
    values.set(
        "asinfer.toposcope_allocs",
        allocs(manifest, &infer("toposcope")),
    );
    values.set("asinfer.unari_ms", wall_ms(manifest, "asinfer.unari"));
    values.set("asinfer.unari_allocs", allocs(manifest, "asinfer.unari"));
    values.set(
        "valdata.compile_ms",
        wall_ms(manifest, &run("compile_validation")),
    );
    values.set(
        "valdata.compile_allocs",
        allocs(manifest, &run("compile_validation")),
    );
    values.set(
        "valdata.ablation_compile_ms",
        wall_ms(manifest, "valdata.ablation_compile"),
    );
    values.set(
        "core.clean_ms",
        wall_ms(manifest, &run("clean_validation")) + wall_ms(manifest, "core.clean"),
    );
    values.set(
        "core.link_classifier_ms",
        wall_ms(manifest, &run("link_classifier")),
    );
    for (span, metric) in CORE_SPANS {
        values.set(metric, wall_ms(manifest, span));
    }
    values.set(
        "core.linkfeatures_allocs",
        allocs(manifest, "core.linkfeatures"),
    );
    values.set("brevald.set_load_ms", wall_ms(manifest, "brevald.set_load"));

    let busy_ns = manifest
        .histograms
        .get("parallel_map_item_ns")
        .map_or(0, |h| h.sum) as f64;
    values.set(
        "par.busy_share",
        busy_ns / (wall_s * 1e9 * cap as f64).max(1.0),
    );
    values.set("par.items", counter(manifest, "pool_items_total"));
    values.set("par.steals", counter(manifest, "pool_steal_successes"));
    values.set("par.worker_parks", counter(manifest, "pool_worker_parks"));
}

/// The benchmark's `core.*` spans and the `_ms` rows they fill.
const CORE_SPANS: [(&str, &str); 10] = [
    ("core.coverage", "core.coverage_ms"),
    ("core.heatmap", "core.heatmap_ms"),
    ("core.ppdc_cones", "core.ppdc_cones_ms"),
    ("core.eval_table", "core.eval_table_ms"),
    ("core.sampling", "core.sampling_ms"),
    ("core.casestudy", "core.casestudy_ms"),
    ("core.hardlinks", "core.hardlinks_ms"),
    ("core.linkfeatures", "core.linkfeatures_ms"),
    ("core.report", "core.report_ms"),
    ("core.snapshot_save", "core.snapshot_save_ms"),
];

/// Line queries timed per kind, and batches timed, in the traced probes.
const LINE_PROBES_PER_KIND: usize = 2000;
const BATCH_PROBES: usize = 1000;
const PUBLISH_PROBES: usize = 32;

/// Times `brevald`'s public calls one by one against `set`: the line
/// kernel per query kind, the batch kernel per 256 queries, and publishing
/// warm-loaded sets into a fresh store. Returns the number of calls made.
pub fn brevald_calls(
    set: &SnapshotSet,
    dir: &Path,
    config: &ScenarioConfig,
    asns: &[u32],
    seed: u64,
    values: &mut Values,
) -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut calls = 0u64;
    for (kind, (name, _)) in transcript::MIX.iter().enumerate() {
        let mut ns = Vec::with_capacity(LINE_PROBES_PER_KIND);
        for _ in 0..LINE_PROBES_PER_KIND {
            let q = transcript::query(&mut rng, asns, kind);
            let start = Instant::now();
            std::hint::black_box(brevald::answer_line(set, &q));
            ns.push(start.elapsed().as_nanos() as u64);
        }
        calls += ns.len() as u64;
        ns.sort_unstable();
        set_resolved(
            values,
            &format!("brevald.answer_line_ns.{name}.p50"),
            &ns,
            50.0,
            1.0,
        );
        set_resolved(
            values,
            &format!("brevald.answer_line_ns.{name}.p99"),
            &ns,
            99.0,
            1.0,
        );
    }

    let mut us = Vec::with_capacity(BATCH_PROBES);
    for _ in 0..BATCH_PROBES {
        let lines: Vec<String> = (0..transcript::BATCH)
            .map(|_| {
                let kind = transcript::kind(&mut rng);
                transcript::query(&mut rng, asns, kind)
            })
            .collect();
        let start = Instant::now();
        std::hint::black_box(brevald::answer_batch(set, &lines));
        us.push(start.elapsed().as_nanos() as u64);
    }
    calls += us.len() as u64;
    us.sort_unstable();
    set_resolved(values, "brevald.answer_batch_us.p50", &us, 50.0, 1e-3);
    set_resolved(values, "brevald.answer_batch_us.p99", &us, 99.0, 1e-3);

    let store = SnapshotStore::new(SnapshotSet::empty());
    let mut publish_ns = Vec::with_capacity(PUBLISH_PROBES);
    for _ in 0..PUBLISH_PROBES {
        let Ok(next) = SnapshotSet::load(dir, config) else {
            continue;
        };
        let start = Instant::now();
        let published = store.publish(next);
        publish_ns.push(start.elapsed().as_nanos() as u64);
        if published.is_ok() {
            calls += 1;
        }
    }
    publish_ns.sort_unstable();
    set_resolved(values, "brevald.publish_us", &publish_ns, 50.0, 1e-3);
    calls
}

/// Records percentile `p` of `sorted`, scaled by `scale`, under `name`
/// when it is resolvable.
fn set_resolved(values: &mut Values, name: &str, sorted: &[u64], p: f64, scale: f64) {
    if let Some(v) = stats::resolved(sorted, p) {
        values.set(name, v as f64 * scale);
    }
}
