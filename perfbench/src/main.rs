//! ```text
//! perfbench --workload <paper|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process and prints, as the last line of
//! stdout, `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer rows with `--trace 1`. Details
//! (thread counts, sample counts, the resolved tails, the artefact digest)
//! go to stderr. Every file the run writes stays under `perfbench/out/`.

use breval_core::ScenarioConfig;
use brevald::{Server, SnapshotSet, SnapshotStore};
use perfbench::check::{Checks, Digest};
use perfbench::job::{self, Clock};
use perfbench::metrics::{self, Values};
use perfbench::serving::Serving;
use perfbench::{alloc, layers, stats, transcript};
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Switchable = alloc::Switchable;

/// First starts (cold build, persist, warm load) timed as set-up.
const SETUP_REPEATS: usize = 5;
/// The world the `brevald` binary serves by default (`small(42)`): the
/// set-up first starts, the served store and the `serve` workload's
/// rounds use it.
const BREVALD_WORLD: u64 = 42;
/// `--seconds` per round of the `serve` workload (one cold build of the
/// served world, its artefacts, persist and load, with serving segments
/// between the calls), about the wall of one round on a 2-vCPU x86 VM.
const SECONDS_PER_ROUND: f64 = 2.0;
/// Blocks of one serving segment: about 35 ms of serving, with enough
/// single-line samples to resolve the p99.9.
const SEGMENT_BLOCKS: usize = 10;
/// Serving segments per world: after the pipeline, after each artefact,
/// after persist and load. Spaces the reloads only.
const SEGMENTS_PER_WORLD: usize = 21;
/// Reloads aimed at per run, spread over its segments.
const RELOADS_PER_RUN: usize = 48;
/// Probe queries per kind compared between warm and in-memory sets.
const PROBES_PER_KIND: usize = 100;
/// Timed artefact calls per world (see `job::artefacts`).
const ARTEFACT_CALLS: u64 = 19;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Paper,
    Serve,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "paper" => Workload::Paper,
                    "serve" => Workload::Serve,
                    other => return Err(format!("unknown workload {other:?}")),
                });
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|s| *s > 0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                };
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed needs a u64")?,
        seconds: seconds.ok_or("--seconds needs a positive integer")?,
        trace: trace.ok_or("--trace needs 0 or 1")?,
    })
}

/// SplitMix64 of (`seed`, `stream`): independent seeds per purpose.
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Worlds run in the timed window. They are fixed: `paper` runs the
/// paper's world once, `serve` the world `brevald` serves by default,
/// once per [`SECONDS_PER_ROUND`] of `--seconds`. `--seed` drives the
/// client traffic and the probes. Per-world cost differs by up to 30 %
/// between topology seeds, which would swamp the bounds.
fn plan(args: &Args) -> Vec<ScenarioConfig> {
    match args.workload {
        Workload::Paper => vec![ScenarioConfig::default()],
        Workload::Serve => {
            let rounds = (args.seconds as f64 / SECONDS_PER_ROUND).round().max(1.0) as usize;
            vec![ScenarioConfig::small(BREVALD_WORLD); rounds]
        }
    }
}

/// The AS population the transcript draws from.
fn asn_list(set: &SnapshotSet) -> Vec<u32> {
    set.classifiers()
        .first()
        .map_or_else(Vec::new, |v| v.cones.iter().map(|(asn, _)| asn.0).collect())
}

fn probe_queries(seed: u64, asns: &[u32]) -> Vec<String> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..transcript::MIX.len())
        .flat_map(|kind| (0..PROBES_PER_KIND).map(move |_| kind))
        .map(|kind| transcript::query(&mut rng, asns, kind))
        .collect()
}

/// One `brevald` first start into `dir`: cold build, persist, warm load.
/// Returns its wall seconds and the loaded set.
fn first_start(
    config: ScenarioConfig,
    dir: &Path,
    checks: &mut Checks,
) -> (f64, Option<SnapshotSet>) {
    let start = Instant::now();
    let scenario = breval_core::Scenario::run(config);
    let saved = SnapshotSet::save_all(&scenario, dir);
    let loaded = SnapshotSet::load(dir, &scenario.config);
    let secs = start.elapsed().as_secs_f64();
    checks.record("set-up save", saved.err());
    checks.record("set-up load", loaded.as_ref().err());
    (secs, loaded.ok())
}

/// What the timed window leaves for reporting.
struct Window {
    clock: Clock,
    /// Per world: (pipeline, analysis) seconds.
    per_world: Vec<(f64, f64)>,
    digest: Digest,
    /// Bytes of one world's persisted snapshots.
    snapshot_bytes: u64,
}

/// Runs every world's job with a serving segment after each timed call.
fn window(
    args: &Args,
    worlds: Vec<ScenarioConfig>,
    serving: &mut Serving,
    run_dir: &Path,
    checks: &mut Checks,
) -> Option<Window> {
    let mut clock = Clock::default();
    let mut digest = Digest::default();
    let mut snapshot_bytes = 0;
    let mut per_world = Vec::new();
    for (i, config) in worlds.into_iter().enumerate() {
        let before = clock;
        let scenario = job::pipeline(config, &mut clock, checks);
        serving.segment();
        digest.merge(job::artefacts(&scenario, &mut clock, &mut || {
            serving.segment();
        }));
        per_world.push((
            secs(clock.pipeline - before.pipeline),
            secs(clock.analysis - before.analysis),
        ));
        checks.ops(1 + ARTEFACT_CALLS);
        let dir = run_dir.join(format!("world{i}"));
        let (set, bytes) = job::persist_and_load(&scenario, &dir, &mut clock, checks)?;
        serving.segment();
        snapshot_bytes = bytes;
        checks.probes(
            &scenario,
            &set,
            &probe_queries(derive(args.seed, 20 + i as u64), &asn_list(&set)),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    clock.serve = serving.elapsed;
    Some(Window {
        clock,
        per_world,
        digest,
        snapshot_bytes,
    })
}

/// Counts every reply and checks the serving totals against what the
/// transcripts sent.
fn check_serving(serving: &Serving, checks: &mut Checks) {
    for e in &serving.transport_errors {
        checks.fail(format!("serve transport: {e}"));
    }
    let ok = serving.total(|s| s.replies_ok);
    let err = serving.total(|s| s.replies_err);
    checks.attempted += ok + err;
    checks.failed += err;
    for example in serving
        .sessions
        .iter()
        .flat_map(|s| &s.err_examples)
        .take(5)
    {
        checks.messages.push(format!("reply {example:?}"));
    }
    let reloads = serving.reloads_planned;
    let store = serving.store();
    let expect = |checks: &mut Checks, what: &str, got: u64, want: u64| {
        checks.record(what, (got != want).then(|| format!("{got} != {want}")));
    };
    expect(
        checks,
        "queries sent",
        serving.total(|s| s.queries),
        serving.queries_planned,
    );
    expect(
        checks,
        "protocol faults",
        serving.total(|s| s.protocol_faults),
        0,
    );
    expect(
        checks,
        "reloads issued",
        serving.total(|s| s.reloads_issued),
        reloads,
    );
    expect(
        checks,
        "reloads landed",
        serving.total(|s| s.reload_ns.len() as u64),
        reloads,
    );
    expect(
        checks,
        "generations",
        store.generations() as u64,
        1 + reloads,
    );
    expect(
        checks,
        "final generation",
        store.current().generation(),
        reloads,
    );
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Key of this binary's build, so stored digests compare only runs of one
/// build.
fn build_key() -> String {
    let mut digest = Digest::default();
    if let Some(bytes) = std::env::current_exe()
        .ok()
        .and_then(|p| std::fs::read(p).ok())
    {
        digest.add_bytes(&bytes);
    }
    digest.hex()
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn end_to_end(
    w: &Window,
    serving: &Serving,
    setup_s: f64,
    values: &mut Values,
    log: &mut Vec<String>,
) {
    values.set("setup_s", setup_s);
    values.set("total_s", secs(w.clock.total()));
    let (pipeline, analysis): (Vec<f64>, Vec<f64>) = w.per_world.iter().copied().unzip();
    values.set("pipeline_s", stats::median(&pipeline));
    values.set("analysis_s", stats::median(&analysis));
    log.push(format!("pipeline_s per world: {pipeline:.4?}"));
    log.push(format!("analysis_s per world: {analysis:.4?}"));
    values.set("peak_rss_mb", peak_rss_mb());
    // Per segment: single-line queries answered per second of waiting for
    // them, and their p50 and p90 (µs).
    let qps: Vec<f64> = serving
        .sessions
        .iter()
        .map(|s| {
            s.single_ns.len() as f64 / (s.single_ns.iter().sum::<u64>() as f64 * 1e-9).max(1e-9)
        })
        .collect();
    values.set("serve_qps", stats::median(&qps));
    log.push(format!("serve_qps per segment: {qps:.0?}"));
    for (name, p) in [("query_p50_us", 50.0), ("query_p90_us", 90.0)] {
        // Left unset (and so failed) unless every segment resolved it.
        let per_segment: Option<Vec<f64>> = serving
            .sessions
            .iter()
            .map(|session| {
                let mut single = session.single_ns.clone();
                single.sort_unstable();
                stats::resolved(&single, p).map(|ns| ns as f64 * 1e-3)
            })
            .collect();
        if let Some(all) = per_segment.filter(|v| !v.is_empty()) {
            values.set(name, stats::upper_quartile(&all));
            log.push(format!("{name} per segment: {all:.3?}"));
        }
    }
    for (what, mut samples, unit, scale) in [
        (
            "single-line queries",
            serving.samples(|s| &s.single_ns),
            "us",
            1e-3,
        ),
        ("batches", serving.samples(|s| &s.batch_ns), "ms", 1e-6),
        ("reloads", serving.samples(|s| &s.reload_ns), "ms", 1e-6),
    ] {
        if let Some(t) = stats::summarize(&mut samples) {
            log.push(format!(
                "{what} (all segments): n={} p50={:.3}{unit} p{}={:.3}{unit} (highest percentile with >= {} samples beyond)",
                t.n,
                t.p50 as f64 * scale,
                t.pct,
                t.value as f64 * scale,
                stats::MIN_BEYOND
            ));
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let run_dir = out.join(format!(
        "run-{:?}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));

    // Untraced by default: no obs, no journal, no allocation counting,
    // whatever the environment says.
    breval_obs::set_enabled(false);
    breval_obs::set_journal_enabled(false);
    alloc::set_counting(false);
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    breval_par::set_max_threads(Some(hardware_threads));
    let threads = breval_par::max_threads();

    let mut checks = Checks::default();
    let mut log = vec![format!(
        "workload={:?} seed={} seconds={} trace={} threads={threads} hardware_threads={hardware_threads} exceeds_hardware={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads > hardware_threads
    )];

    // Set-up: `brevald` first starts of its default world. The last one's
    // set is the store every serving segment answers from, and its
    // directory what reloads read.
    let served_config = ScenarioConfig::small(BREVALD_WORLD);
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut served = None;
    for i in 0..SETUP_REPEATS {
        let dir = run_dir.join(format!("setup{i}"));
        let (secs, set) = first_start(served_config.clone(), &dir, &mut checks);
        setup.push(secs);
        if i + 1 == SETUP_REPEATS {
            served = set.map(|set| (set, dir));
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let setup_s = stats::median(&setup);
    log.push(format!("setup first starts: {setup:?} s"));

    let worlds = plan(&args);
    let mut values = Values::default();
    let catalogue: &[metrics::Metric] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    if let Some((set, served_dir)) = served {
        let asns = asn_list(&set);
        let store = Arc::new(SnapshotStore::new(set));
        let server = Server::new(store, served_dir.clone(), served_config.clone());
        let reload_every = (worlds.len() * SEGMENTS_PER_WORLD).div_ceil(RELOADS_PER_RUN);
        let mut serving = Serving::new(
            server,
            asns.clone(),
            derive(args.seed, 2),
            SEGMENT_BLOCKS,
            reload_every,
        );

        // Reference for the tracing overhead: the window's pipeline calls,
        // untraced, right before the traced window (one pass, so a traced
        // `paper` run stays well inside the time limit on a slow host).
        let mut untraced = Duration::ZERO;
        if args.trace {
            for config in &worlds {
                let start = Instant::now();
                drop(breval_core::Scenario::run(config.clone()));
                untraced += start.elapsed();
            }
            breval_obs::reset();
            breval_obs::set_enabled(true);
            alloc::set_counting(true);
        }
        let window = window(&args, worlds, &mut serving, &run_dir, &mut checks);
        check_serving(&serving, &mut checks);
        if let Some(w) = &window {
            if args.trace {
                let manifest = breval_obs::RunManifest::capture("perfbench", args.seed);
                breval_obs::set_enabled(false);
                alloc::set_counting(false);
                layers::from_manifest(&manifest, secs(w.clock.total()), threads, &mut values);
                values.set(
                    "obs.overhead_pct",
                    (secs(w.clock.pipeline) / secs(untraced).max(1e-9) - 1.0) * 100.0,
                );
                values.set("core.snapshot_bytes", w.snapshot_bytes as f64);
                let mut reload = serving.samples(|s| &s.reload_ns);
                values.set("brevald.reloads_landed", reload.len() as f64);
                reload.sort_unstable();
                if let Some(ns) = stats::resolved(&reload, 50.0) {
                    values.set("brevald.reload_ms.p50", ns as f64 * 1e-6);
                }
                values.set(
                    "brevald.replies_err",
                    serving.total(|s| s.replies_err) as f64,
                );
                let calls = layers::brevald_calls(
                    &serving.store().current(),
                    &served_dir,
                    &served_config,
                    &asns,
                    derive(args.seed, 3),
                    &mut values,
                );
                checks.ops(calls);
            } else {
                end_to_end(w, &serving, setup_s, &mut values, &mut log);
            }
            log.push(format!(
                "per world (pipeline s, analysis s): {:.3?}",
                w.per_world
            ));
            log.push(format!(
                "timed: total={:.3}s pipeline={:.3}s analysis={:.3}s persist={:.3}s serve={:.3}s",
                secs(w.clock.total()),
                secs(w.clock.pipeline),
                secs(w.clock.analysis),
                secs(w.clock.persist),
                secs(w.clock.serve)
            ));
            log.push(format!(
                "serve: {} segments, {} queries, {} requests, {} reloads landed, {} err replies",
                serving.sessions.len(),
                serving.total(|s| s.queries),
                serving.total(|s| s.requests),
                serving.total(|s| s.reload_ns.len() as u64),
                serving.total(|s| s.replies_err)
            ));
            log.push(format!("artefact digest={}", w.digest.hex()));
            let key = format!("{:?}-{}-{}", args.workload, args.seed, build_key());
            checks.digest_repeats(&out.join("digests"), &key, &w.digest);
        } else {
            checks.fail("the timed window did not complete".to_owned());
        }
    } else {
        checks.fail("set-up did not load the served set".to_owned());
    }
    let _ = std::fs::remove_dir_all(&run_dir);

    for problem in values.problems(catalogue) {
        checks.fail(problem);
    }
    log.push(format!(
        "operations: attempted={} failed={} fail_rate={}",
        checks.attempted,
        checks.failed,
        checks.failed as f64 / checks.attempted.max(1) as f64
    ));
    for message in &checks.messages {
        log.push(format!("FAILED {message}"));
    }
    for line in &log {
        eprintln!("perfbench: {line}");
    }
    println!(
        "{}",
        metrics::result_line(catalogue, &values, checks.attempted.max(1), checks.failed)
    );
}
