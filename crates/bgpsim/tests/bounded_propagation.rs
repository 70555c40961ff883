//! Memory-boundedness at 10k ASes: propagation reuses its buffers across
//! origins, and hybrid PPDC cones never outgrow the flat bitset layout.
//!
//! Over 64 evenly spaced origins of `scaled(10_000, 42)`, one reused
//! `OriginRoutes` + `PropScratch` pair pays its buffer growth on the first
//! origin; every later origin must run at ≤ 64 allocations. Allocations
//! are counted per thread, so tests running beside this one cannot pollute
//! the count.

use asgraph::{cone, AsPath, Asn, Link, PathSet, Rel};
use bgpsim::{OriginRoutes, PropScratch, Propagator, SimGraph};
use counting_alloc::thread_allocation_count;
use std::collections::BTreeMap;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc::new();

const TARGET_ASES: usize = 10_000;
const SEED: u64 = 42;
const ORIGINS: usize = 64;
const MIN_ORIGINS: usize = 8;
const MAX_STEADY_ALLOCS_PER_ORIGIN: f64 = 64.0;

/// `count` node ids evenly spaced over `0..n`.
fn sample_origins(n: usize, count: usize) -> Vec<u32> {
    let count = count.min(n).max(1);
    (0..count)
        .map(|i| ((i as u64 * n as u64) / count as u64) as u32)
        .collect()
}

#[test]
fn propagation_is_allocation_bounded_and_hybrid_cones_stay_under_flat() {
    let topology = topogen::generate(&topogen::TopologyConfig::scaled(TARGET_ASES, SEED));
    assert!(
        topology.as_count() >= TARGET_ASES,
        "generated {} ASes of {TARGET_ASES} targeted",
        topology.as_count()
    );
    assert!(topology.link_count() > 0, "no links generated");

    let g = SimGraph::build(&topology);
    let prop = Propagator::new(&g);
    let origins = sample_origins(g.len(), ORIGINS);
    assert!(
        origins.len() >= MIN_ORIGINS,
        "sampled {} origins",
        origins.len()
    );

    // Propagation runs on this thread; the first origin grows the buffers
    // to the graph size, the rest must reuse them.
    let mut routes = OriginRoutes::reusable();
    let mut scratch = PropScratch::new();
    prop.propagate_into(origins[0], None, &mut routes, &mut scratch);
    let mut reached = routes.reached() as u64;
    let before = thread_allocation_count();
    for &origin in &origins[1..] {
        prop.propagate_into(origin, None, &mut routes, &mut scratch);
        reached += routes.reached() as u64;
    }
    let steady = (thread_allocation_count() - before) as f64 / (origins.len() - 1) as f64;
    assert!(reached > 0, "propagation reached no nodes");
    assert!(
        steady <= MAX_STEADY_ALLOCS_PER_ORIGIN,
        "steady-state propagation allocates {steady:.1}/origin \
         (> {MAX_STEADY_ALLOCS_PER_ORIGIN}): buffer reuse is broken"
    );

    // Every collector peer's best path to the same origins feeds the PPDC
    // cones.
    let vps: Vec<(Asn, u32)> = topology
        .collector_peers
        .iter()
        .filter_map(|cp| g.node(cp.asn).map(|node| (cp.asn, node)))
        .collect();
    let mut paths = PathSet::new();
    for &origin in &origins {
        prop.propagate_into(origin, None, &mut routes, &mut scratch);
        for &(vp_asn, vp_node) in &vps {
            if let Some(hops) = routes.path(vp_node, &g) {
                paths.push(vp_asn, AsPath::new(hops));
            }
        }
    }
    let rels: BTreeMap<Link, Rel> = topology.links.iter().map(|(l, r)| (*l, r.base)).collect();
    let stats = cone::ppdc_cones(&paths.sanitized(), &rels).storage_stats();
    assert!(
        stats.sparse_rows + stats.dense_rows > 0,
        "PPDC produced no rows"
    );
    assert!(
        stats.hybrid_bytes <= stats.flat_bytes,
        "hybrid PPDC footprint {} B exceeds the flat layout's {} B",
        stats.hybrid_bytes,
        stats.flat_bytes
    );
}
