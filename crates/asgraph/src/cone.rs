//! Customer-cone computations.
//!
//! Two variants are used by the paper:
//!
//! * the **graph customer cone** — everything reachable by following
//!   provider→customer edges from an AS (CAIDA's recursive cone), used to
//!   split ASes into Stub/Transit for §5's topological classes, and
//! * the **provider/peer observed customer cone (PPDC)** — derived from paths:
//!   an AS's cone contains every AS that appears *behind* it on a path where it
//!   was reached from a provider or peer (Luckie et al. 2013). The paper's
//!   Appendix B heatmaps (Figs. 7–8) bin transit links by PPDC size.
//!
//! Both hot kernels run over the dense core ([`crate::index::AsIndexer`] /
//! [`crate::csr::CsrGraph`]): cone sizes come from an allocation-free BFS
//! with per-worker [`ConeScratch`](crate::csr::ConeScratch) state, and PPDC
//! cones are per-AS rows, sparse id lists or bitsets (one `u64` word per
//! 64 observed ASes). The original BTree/hash implementations live on as
//! the oracles of `crates/asgraph/tests/csr_equivalence.rs`.

use crate::asn::Asn;
use crate::csr::{ConeScratch, CsrGraph};
use crate::graph::AsGraph;
use crate::hash::FastHash;
use crate::index::AsIndexer;
use crate::link::Link;
use crate::paths::PathSet;
use crate::rel::Rel;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Computes the full customer cone of `asn` over `graph` (self included).
///
/// This is the readable reference implementation; for whole-graph cone sizes
/// use [`customer_cone_sizes_csr`], which runs the dense CSR kernel instead.
#[must_use]
pub fn customer_cone(graph: &AsGraph, asn: Asn) -> BTreeSet<Asn> {
    let mut cone = BTreeSet::new();
    let mut queue = VecDeque::new();
    cone.insert(asn);
    queue.push_back(asn);
    while let Some(current) = queue.pop_front() {
        for customer in graph.customers(current) {
            if cone.insert(customer) {
                queue.push_back(customer);
            }
        }
    }
    cone
}

/// Per-AS cone sizes in dense form: a `Vec<usize>` indexed by the dense id
/// of an [`AsIndexer`]. Iteration is always in ascending ASN order, so no
/// hash-map ordering can leak into downstream output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConeSizes {
    pub(crate) indexer: AsIndexer,
    pub(crate) sizes: Vec<usize>,
}

impl ConeSizes {
    /// Sizes over no ASes (used as the stand-in for unknown scenarios).
    #[must_use]
    pub fn empty() -> Self {
        ConeSizes::default()
    }

    /// Builds from an indexer and its id-aligned size vector.
    ///
    /// # Panics
    /// If `sizes.len() != indexer.len()`.
    #[must_use]
    pub fn from_parts(indexer: AsIndexer, sizes: Vec<usize>) -> Self {
        assert_eq!(
            indexer.len(),
            sizes.len(),
            "ConeSizes requires one size per interned AS"
        );
        ConeSizes { indexer, sizes }
    }

    /// The indexer the sizes are aligned to.
    #[must_use]
    pub fn indexer(&self) -> &AsIndexer {
        &self.indexer
    }

    /// The cone size of `asn`, or `None` if it was not observed.
    #[must_use]
    pub fn get(&self, asn: Asn) -> Option<usize> {
        self.indexer.id(asn).map(|id| self.sizes[id as usize])
    }

    /// The cone size behind a dense id.
    ///
    /// # Panics
    /// If `id` is out of range for the indexer.
    #[must_use]
    pub fn by_id(&self, id: u32) -> usize {
        self.sizes[id as usize]
    }

    /// Number of ASes with a recorded size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// `true` if no sizes are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Iterates `(asn, size)` pairs in ascending ASN order.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, usize)> + '_ {
        self.indexer.iter().zip(self.sizes.iter().copied())
    }
}

/// Customer-cone sizes for every AS of a prebuilt [`CsrGraph`] (self
/// included).
///
/// Fans the per-AS BFS walks out over the work-stealing pool with one
/// reusable [`ConeScratch`](crate::csr::ConeScratch) per worker, so the
/// steady state allocates nothing. Results are identical at any thread
/// count. Pipeline code shares the scenario snapshot's CSR via
/// `Scenario::cone_sizes_arc` instead of building its own.
#[must_use]
pub fn customer_cone_sizes_csr(csr: &CsrGraph) -> ConeSizes {
    let n = csr.node_count();
    let sizes = breval_par::parallel_map_init(n, ConeScratch::new, |scratch, i| {
        csr.customer_cone_size(i as u32, scratch)
    });
    breval_obs::counter("cone_sizes_computed", n as u64);
    ConeSizes::from_parts(csr.indexer().clone(), sizes)
}

/// The number of members below which a PPDC row is stored sparse. A sparse
/// row costs `4·m` bytes against `n/8` for a bitset row, so the break-even
/// density is `m = n/32`; the floor keeps tiny graphs from paying the
/// binary-search path for rows a single word could hold.
#[must_use]
pub(crate) fn sparse_cutoff(n: usize) -> usize {
    (n / 32).max(8)
}

/// One AS's explicit PPDC cone row. The representation is a deterministic
/// function of the member count: below [`sparse_cutoff`] the row is a sorted
/// id list, at or above it a fixed-width bitset — so equal cones always
/// serialize byte-identically regardless of insertion history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PpdcRow {
    /// Strictly ascending dense ids, the owner's own id included.
    Sparse(Box<[u32]>),
    /// One bit per observed AS (`n.div_ceil(64)` words, tail bits clear).
    Dense(Box<[u64]>),
}

/// Provider/peer observed customer cones in hybrid compressed form: one
/// lazily allocated [`PpdcRow`] per AS that was actually reached from a
/// provider or peer — a sorted-id list while the cone is sparse, a dense
/// bitset once it crosses [`sparse_cutoff`]. ASes never reached that way
/// still own the implicit self-cone `{asn}` (size 1) without allocating a
/// row. At million-AS scale almost every cone is sparse, which is what keeps
/// the table `O(total members)` instead of `O(n²/8)` bytes.
#[derive(Debug, Clone, Default)]
pub struct PpdcCones {
    pub(crate) indexer: AsIndexer,
    /// Per-AS row; `None` means the implicit self-only cone.
    pub(crate) rows: Vec<Option<PpdcRow>>,
}

impl PpdcCones {
    /// The indexer over all path-observed ASes.
    #[must_use]
    pub fn indexer(&self) -> &AsIndexer {
        &self.indexer
    }

    /// Cone size behind a dense id (list length or popcount of the row;
    /// 1 without a row).
    ///
    /// # Panics
    /// If `id` is out of range for the indexer.
    #[must_use]
    pub fn size_by_id(&self, id: u32) -> usize {
        match &self.rows[id as usize] {
            None => 1,
            Some(PpdcRow::Sparse(ids)) => ids.len(),
            Some(PpdcRow::Dense(words)) => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// The cone size of `asn`, or `None` if it was never observed on a path.
    #[must_use]
    pub fn size(&self, asn: Asn) -> Option<usize> {
        self.indexer.id(asn).map(|id| self.size_by_id(id))
    }

    /// Whether `member` is in the PPDC cone of `asn`, or `None` if `asn`
    /// itself was never observed on a path. Allocation-free — a binary
    /// search on sparse rows, a bit probe on dense ones (rows carry the
    /// self entry; a rowless AS owns the implicit `{asn}` cone) — so it is
    /// safe on the lock-free query path.
    #[must_use]
    pub fn contains(&self, asn: Asn, member: Asn) -> Option<bool> {
        let id = self.indexer.id(asn)?;
        let row = self.rows.get(id as usize)?;
        Some(match (row, self.indexer.id(member)) {
            (None, _) => member == asn,
            (Some(PpdcRow::Sparse(ids)), Some(m)) => ids.binary_search(&m).is_ok(),
            (Some(PpdcRow::Dense(words)), Some(m)) => words
                .get(m as usize / 64)
                .is_some_and(|word| word & (1u64 << (m % 64)) != 0),
            (Some(_), None) => false,
        })
    }

    /// The cone members of `asn` (self included), or `None` if unobserved.
    #[must_use]
    pub fn members(&self, asn: Asn) -> Option<BTreeSet<Asn>> {
        let id = self.indexer.id(asn)?;
        Some(match &self.rows[id as usize] {
            None => BTreeSet::from([asn]),
            Some(PpdcRow::Sparse(ids)) => ids.iter().map(|&m| self.indexer.asn(m)).collect(),
            Some(PpdcRow::Dense(words)) => {
                let mut out = BTreeSet::new();
                for (word_idx, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let bit = bits.trailing_zeros();
                        out.insert(self.indexer.asn((word_idx * 64) as u32 + bit));
                        bits &= bits - 1;
                    }
                }
                out
            }
        })
    }

    /// Collapses the cones into their sizes (popcount per row).
    #[must_use]
    pub fn sizes(&self) -> ConeSizes {
        let sizes = (0..self.rows.len() as u32)
            .map(|id| self.size_by_id(id))
            .collect();
        ConeSizes::from_parts(self.indexer.clone(), sizes)
    }

    /// Storage accounting for the hybrid representation: how many rows
    /// landed on each form and what they cost against the all-bitset
    /// layout this replaced (`crates/bgpsim/tests/bounded_propagation.rs`
    /// asserts the hybrid never costs more).
    #[must_use]
    pub fn storage_stats(&self) -> PpdcStorageStats {
        let words_per_row = self.indexer.len().div_ceil(64);
        let mut stats = PpdcStorageStats::default();
        for row in &self.rows {
            match row {
                None => {}
                Some(PpdcRow::Sparse(ids)) => {
                    stats.sparse_rows += 1;
                    stats.sparse_members += ids.len();
                }
                Some(PpdcRow::Dense(_)) => stats.dense_rows += 1,
            }
        }
        stats.hybrid_bytes = stats.sparse_members * 4 + stats.dense_rows * words_per_row * 8;
        stats.flat_bytes = (stats.sparse_rows + stats.dense_rows) * words_per_row * 8;
        stats
    }
}

/// What the hybrid PPDC rows cost on the heap, against the flat all-bitset
/// layout (see [`PpdcCones::storage_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PpdcStorageStats {
    /// Rows stored as sorted id lists (below the density cutoff).
    pub sparse_rows: usize,
    /// Rows stored as fixed-width bitsets (at or above the cutoff).
    pub dense_rows: usize,
    /// Total member entries across all sparse rows.
    pub sparse_members: usize,
    /// Heap bytes behind the hybrid rows (`4·sparse_members + 8·words·dense_rows`).
    pub hybrid_bytes: usize,
    /// What the same rows would cost as all-dense bitsets (`8·words·rows`).
    pub flat_bytes: usize,
}

/// Computes the provider/peer observed customer cones (PPDC) from observed
/// paths and a relationship labelling.
///
/// For each path `… u x d1 d2 …` where `u` is a provider or peer of `x`
/// according to `rels`, every `di` is placed into `x`'s cone. The AS itself is
/// always a member of its own cone.
///
/// The paths are split into one contiguous shard per worker. Each shard
/// interns its ASes through a hashed set and then fills its own rows; a
/// hop costs one probe into a hashed set of directed edges along which an
/// AS is reached from a provider or peer, and a path is mapped to dense
/// ids only if one of its hops qualifies. The shards' rows merge by
/// union, and each merged row is sealed sparse or dense by its unique
/// member count alone, so the result is the same at any shard or thread
/// count.
#[must_use]
pub fn ppdc_cones(paths: &PathSet, rels: &BTreeMap<Link, Rel>) -> PpdcCones {
    let all = paths.paths();
    let shards = breval_par::max_threads();
    let shard_range = |shard: usize| all.len() * shard / shards..all.len() * (shard + 1) / shards;

    // Intern every AS observed on a multi-hop compressed path — exactly the
    // key set of `PathStats::ases` (only `windows(2)` contribute degree),
    // derived here without building the full path statistics.
    let shard_ases = breval_par::parallel_map(shards, |shard| {
        let mut seen: HashSet<Asn, FastHash> = HashSet::default();
        let mut buf = Vec::new();
        for op in &all[shard_range(shard)] {
            op.path.compress_into(&mut buf);
            if buf.len() >= 2 {
                seen.extend(&buf);
            }
        }
        seen
    });
    let mut observed: Vec<Asn> = Vec::with_capacity(shard_ases.iter().map(HashSet::len).sum());
    for seen in shard_ases {
        observed.extend(seen);
    }
    let indexer = AsIndexer::from_unsorted(observed);
    let id_of: HashMap<Asn, u32, FastHash> = indexer.iter().zip(0u32..).collect();
    let n = indexer.len();
    let words = n.div_ceil(64);
    let cutoff = sparse_cutoff(n);

    // Directed edges `upstream → x` along which `x` was reached from a
    // provider or a peer: both directions of a P2p link, provider →
    // customer of a P2c link, nothing for S2s.
    let edge = |upstream: Asn, x: Asn| u64::from(upstream.0) << 32 | u64::from(x.0);
    let mut downstream: HashSet<u64, FastHash> = HashSet::default();
    for (link, rel) in rels {
        let (a, b) = (link.a(), link.b());
        match *rel {
            Rel::P2p => {
                downstream.insert(edge(a, b));
                downstream.insert(edge(b, a));
            }
            Rel::P2c { provider } if provider == a => {
                downstream.insert(edge(a, b));
            }
            Rel::P2c { provider } if provider == b => {
                downstream.insert(edge(b, a));
            }
            Rel::P2c { .. } | Rel::S2s => {}
        }
    }

    let shard_rows = breval_par::parallel_map(shards, |shard| {
        let mut rows: Vec<Option<BuildRow>> = vec![None; n];
        let (mut buf, mut ids) = (Vec::new(), Vec::new());
        for op in &all[shard_range(shard)] {
            op.path.compress_into(&mut buf);
            let c = buf.as_slice();
            let qualifies = |i: usize| downstream.contains(&edge(c[i - 1], c[i]));
            let Some(first) = (1..c.len()).find(|&i| qualifies(i)) else {
                continue;
            };
            ids.clear();
            ids.extend(
                c[first..]
                    .iter()
                    .map(|a| *id_of.get(a).expect("path hop is an observed AS")),
            );
            for i in first..c.len() {
                if i > first && !qualifies(i) {
                    continue;
                }
                let (x_id, behind) = (ids[i - first], &ids[i - first + 1..]);
                // Self-membership: every reached AS is in its own cone.
                rows[x_id as usize]
                    .get_or_insert_with(|| BuildRow::Sparse(vec![x_id]))
                    .extend(behind, cutoff, words);
            }
        }
        rows
    });
    let mut shard_rows = shard_rows.into_iter();
    let mut rows = shard_rows.next().unwrap_or_else(|| vec![None; n]);
    for other in shard_rows {
        for (row, part) in rows.iter_mut().zip(other) {
            if let Some(part) = part {
                *row = Some(match row.take() {
                    Some(acc) => acc.union(part),
                    None => part,
                });
            }
        }
    }
    let rows = rows
        .into_iter()
        .map(|row| row.map(|r| r.finish(cutoff, words)))
        .collect();
    PpdcCones { indexer, rows }
}

/// Build-time accumulator behind one PPDC row. Starts as an unsorted id
/// list (duplicates allowed), compacts in place when it doubles past the
/// density cutoff, and converts to a bitset once the *unique* member count
/// reaches the cutoff — so the peak build footprint of a sparse row is
/// `O(cutoff)` and inserts stay amortized `O(1)` either way.
#[derive(Debug, Clone)]
enum BuildRow {
    /// Unsorted dense ids, possibly with duplicates; self id always present.
    Sparse(Vec<u32>),
    /// Fixed-width bitset, identical to the final dense form.
    Dense(Box<[u64]>),
}

impl BuildRow {
    fn extend(&mut self, members: &[u32], cutoff: usize, words: usize) {
        match self {
            BuildRow::Sparse(ids) => {
                ids.extend_from_slice(members);
                if ids.len() >= 2 * cutoff {
                    ids.sort_unstable();
                    ids.dedup();
                    if ids.len() >= cutoff {
                        *self = BuildRow::Dense(to_bitset(ids, words));
                    }
                }
            }
            BuildRow::Dense(bits) => set_bits(bits, members),
        }
    }

    /// The union of two shards' accumulators for the same AS: sparse lists
    /// concatenate, bitsets OR, and a sparse list meeting a bitset is set
    /// into it. The result may hold duplicates or be sparse past the
    /// cutoff; [`BuildRow::finish`] canonicalises either.
    fn union(self, other: BuildRow) -> BuildRow {
        match (self, other) {
            (BuildRow::Sparse(mut a), BuildRow::Sparse(b)) => {
                a.extend_from_slice(&b);
                BuildRow::Sparse(a)
            }
            (BuildRow::Dense(mut a), BuildRow::Dense(b)) => {
                for (word, other) in a.iter_mut().zip(b.iter()) {
                    *word |= other;
                }
                BuildRow::Dense(a)
            }
            (BuildRow::Dense(mut bits), BuildRow::Sparse(ids))
            | (BuildRow::Sparse(ids), BuildRow::Dense(mut bits)) => {
                set_bits(&mut bits, &ids);
                BuildRow::Dense(bits)
            }
        }
    }

    /// Seals the accumulator into the canonical [`PpdcRow`] form: dense iff
    /// the unique member count reached `cutoff`. A row that went dense
    /// during the build stays dense — membership only ever grows, so its
    /// final count is necessarily at or above the cutoff too.
    fn finish(self, cutoff: usize, words: usize) -> PpdcRow {
        match self {
            BuildRow::Sparse(mut ids) => {
                ids.sort_unstable();
                ids.dedup();
                if ids.len() >= cutoff {
                    PpdcRow::Dense(to_bitset(&ids, words))
                } else {
                    PpdcRow::Sparse(ids.into_boxed_slice())
                }
            }
            BuildRow::Dense(bits) => PpdcRow::Dense(bits),
        }
    }
}

fn to_bitset(ids: &[u32], words: usize) -> Box<[u64]> {
    let mut bits = vec![0u64; words].into_boxed_slice();
    set_bits(&mut bits, ids);
    bits
}

fn set_bits(bits: &mut [u64], ids: &[u32]) {
    for &id in ids {
        bits[id as usize / 64] |= 1u64 << (id % 64);
    }
}

/// PPDC cone *sizes* (see [`ppdc_cones`]), in dense ASN-ordered form.
#[must_use]
pub fn ppdc_sizes(paths: &PathSet, rels: &BTreeMap<Link, Rel>) -> ConeSizes {
    let sizes = ppdc_cones(paths, rels).sizes();
    breval_obs::counter("ppdc_sizes_computed", sizes.len() as u64);
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::AsPath;

    fn l(a: u32, b: u32) -> Link {
        Link::new(Asn(a), Asn(b)).unwrap()
    }

    fn p2c(provider: u32) -> Rel {
        Rel::P2c {
            provider: Asn(provider),
        }
    }

    #[test]
    fn cone_follows_customers_transitively() {
        let mut g = AsGraph::new();
        g.add_rel(l(1, 2), p2c(1)).unwrap();
        g.add_rel(l(2, 3), p2c(2)).unwrap();
        g.add_rel(l(2, 4), p2c(2)).unwrap();
        g.add_rel(l(1, 5), Rel::P2p).unwrap(); // peers do not extend the cone

        let cone = customer_cone(&g, Asn(1));
        assert_eq!(
            cone.into_iter().collect::<Vec<_>>(),
            vec![Asn(1), Asn(2), Asn(3), Asn(4)]
        );
        assert_eq!(customer_cone(&g, Asn(3)).len(), 1);
        let sizes = customer_cone_sizes_csr(&CsrGraph::build(&g));
        assert_eq!(sizes.get(Asn(1)), Some(4));
        assert_eq!(sizes.get(Asn(2)), Some(3));
        assert_eq!(sizes.get(Asn(5)), Some(1));
        assert_eq!(sizes.get(Asn(99)), None);
    }

    #[test]
    fn cone_handles_multihoming_without_double_count() {
        let mut g = AsGraph::new();
        g.add_rel(l(1, 2), p2c(1)).unwrap();
        g.add_rel(l(1, 3), p2c(1)).unwrap();
        g.add_rel(l(2, 4), p2c(2)).unwrap();
        g.add_rel(l(3, 4), p2c(3)).unwrap(); // 4 multihomes to 2 and 3
        assert_eq!(customer_cone(&g, Asn(1)).len(), 4);
    }

    #[test]
    fn cone_sizes_iterate_in_ascending_asn_order() {
        // Regression for the old HashMap return type: iteration order must be
        // the ASN order, never a hash order.
        let mut g = AsGraph::new();
        g.add_rel(l(30, 2), p2c(30)).unwrap();
        g.add_rel(l(2, 17), p2c(2)).unwrap();
        g.add_rel(l(9, 17), Rel::P2p).unwrap();
        let sizes = customer_cone_sizes_csr(&CsrGraph::build(&g));
        let order: Vec<Asn> = sizes.iter().map(|(a, _)| a).collect();
        assert_eq!(order, vec![Asn(2), Asn(9), Asn(17), Asn(30)]);
        let as_map: Vec<(Asn, usize)> = sizes.iter().collect();
        assert_eq!(
            as_map,
            vec![(Asn(2), 2), (Asn(9), 1), (Asn(17), 1), (Asn(30), 3)]
        );
    }

    #[test]
    fn ppdc_counts_only_provider_or_peer_upstream() {
        let mut rels = BTreeMap::new();
        rels.insert(l(1, 2), p2c(1)); // 1 provider of 2
        rels.insert(l(2, 3), p2c(2)); // 2 provider of 3
        rels.insert(l(4, 2), p2c(2)); // 2 provider of 4 → upstream 4→2 is customer side

        let mut ps = PathSet::new();
        // VP 1: 1 (provider of 2) → 2 → 3 puts 3 into 2's PPDC.
        ps.push(Asn(1), AsPath::new(vec![Asn(1), Asn(2), Asn(3)]));
        // VP 4: 4 (customer of 2) → 2 → 3 must NOT grow 2's PPDC.
        ps.push(Asn(4), AsPath::new(vec![Asn(4), Asn(2), Asn(3)]));

        let cones = ppdc_cones(&ps, &rels);
        let cone2 = cones.members(Asn(2)).unwrap();
        assert_eq!(cone2.into_iter().collect::<Vec<_>>(), vec![Asn(2), Asn(3)]);
        // AS3 observed only at path tails still has the self cone.
        assert_eq!(cones.members(Asn(3)).unwrap().len(), 1);
        let sizes = ppdc_sizes(&ps, &rels);
        assert_eq!(sizes.get(Asn(2)), Some(2));
    }

    #[test]
    fn ppdc_peer_upstream_counts() {
        let mut rels = BTreeMap::new();
        rels.insert(l(1, 2), Rel::P2p);
        rels.insert(l(2, 3), p2c(2));
        let mut ps = PathSet::new();
        ps.push(Asn(1), AsPath::new(vec![Asn(1), Asn(2), Asn(3)]));
        let sizes = ppdc_sizes(&ps, &rels);
        assert_eq!(sizes.get(Asn(2)), Some(2));
    }

    #[test]
    fn hybrid_rows_pick_representation_by_density() {
        // One long provider chain 1→2→…→12: AS2's cone holds 11 members
        // (itself plus everything behind it). With 12 observed ASes the
        // cutoff floor of 8 applies, so the big cones go dense while the
        // short tail cones stay sparse.
        let chain: Vec<u32> = (1..=12).collect();
        let mut rels = BTreeMap::new();
        for w in chain.windows(2) {
            rels.insert(l(w[0], w[1]), p2c(w[0]));
        }
        let mut ps = PathSet::new();
        ps.push(Asn(1), AsPath::new(chain.iter().map(|&a| Asn(a)).collect()));
        let cones = ppdc_cones(&ps, &rels);
        assert_eq!(sparse_cutoff(cones.indexer().len()), 8);
        let id = |a: u32| cones.indexer().id(Asn(a)).unwrap() as usize;
        assert!(matches!(cones.rows[id(2)], Some(PpdcRow::Dense(_))));
        assert!(matches!(cones.rows[id(11)], Some(PpdcRow::Sparse(_))));
        assert_eq!(cones.size(Asn(2)), Some(11));
        assert_eq!(cones.size(Asn(11)), Some(2));
        assert_eq!(cones.contains(Asn(2), Asn(12)), Some(true));
        assert_eq!(cones.contains(Asn(11), Asn(12)), Some(true));
        assert_eq!(cones.contains(Asn(11), Asn(3)), Some(false));
    }

    #[test]
    fn repeated_paths_compact_without_going_dense() {
        // The same short path over and over pushes far past the 2×cutoff
        // compaction trigger with only three unique members — the row must
        // dedup in place and stay sparse.
        let mut rels = BTreeMap::new();
        rels.insert(l(1, 2), p2c(1));
        let mut ps = PathSet::new();
        for _ in 0..40 {
            ps.push(Asn(1), AsPath::new(vec![Asn(1), Asn(2), Asn(3), Asn(4)]));
        }
        let cones = ppdc_cones(&ps, &rels);
        let id2 = cones.indexer().id(Asn(2)).unwrap() as usize;
        match &cones.rows[id2] {
            Some(PpdcRow::Sparse(ids)) => assert_eq!(ids.len(), 3),
            other => panic!("expected a sparse row, got {other:?}"),
        }
        assert_eq!(
            cones.members(Asn(2)).unwrap(),
            BTreeSet::from([Asn(2), Asn(3), Asn(4)])
        );
    }

    /// `ppdc_cones` under `threads` workers, one path shard each.
    fn cones_at(threads: usize, ps: &PathSet, rels: &BTreeMap<Link, Rel>) -> PpdcCones {
        breval_par::with_thread_cap(Some(threads), || ppdc_cones(ps, rels))
    }

    fn assert_same_cones(a: &PpdcCones, b: &PpdcCones) {
        assert_eq!(a.indexer, b.indexer);
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn shard_merge_turns_rows_dense_only_on_the_union() {
        // Eight paths, two per shard at four threads. AS2 is reached from
        // its provider AS1 on one path of every shard, with three fresh
        // ASes behind it: four members per shard, below the cutoff of 8,
        // but 13 once merged. AS3 collects 9 members in the first shard
        // (dense there) and 3 in the third (sparse there), so the merge
        // also meets a sparse row with a dense one.
        let mut rels = BTreeMap::new();
        rels.insert(l(1, 2), p2c(1));
        rels.insert(l(1, 3), p2c(1));
        let path = |hops: Vec<u32>| AsPath::new(hops.into_iter().map(Asn).collect());
        let via2 = |k: u32| path([1, 2].into_iter().chain(10 + 3 * k..13 + 3 * k).collect());
        let shard_paths = [
            [via2(0), path([1, 3].into_iter().chain(30..38).collect())],
            [via2(1), path(vec![5, 6])],
            [via2(2), path(vec![1, 3, 40, 41])],
            [via2(3), path(vec![5, 6])],
        ];
        let mut ps = PathSet::new();
        for pair in &shard_paths {
            let mut alone = PathSet::new();
            for p in pair {
                ps.push(Asn(1), p.clone());
                alone.push(Asn(1), p.clone());
            }
            assert_eq!(cones_at(1, &alone, &rels).size(Asn(2)), Some(4));
        }

        let merged = cones_at(4, &ps, &rels);
        assert_eq!(sparse_cutoff(merged.indexer().len()), 8);
        let id = |a: u32| merged.indexer().id(Asn(a)).unwrap() as usize;
        assert!(matches!(merged.rows[id(2)], Some(PpdcRow::Dense(_))));
        assert_eq!(merged.size(Asn(2)), Some(13));
        assert!(matches!(merged.rows[id(3)], Some(PpdcRow::Dense(_))));
        assert_eq!(merged.size(Asn(3)), Some(11));
        assert_eq!(merged.contains(Asn(3), Asn(41)), Some(true));
        for threads in [1, 2, 3, 6] {
            assert_same_cones(&merged, &cones_at(threads, &ps, &rels));
        }
    }

    #[test]
    fn sibling_and_off_path_links_add_no_cone() {
        let mut rels = BTreeMap::new();
        rels.insert(l(1, 2), Rel::S2s); // on a path, but a sibling
        rels.insert(l(2, 3), p2c(2));
        rels.insert(l(100, 200), Rel::P2p); // endpoints on no path
        rels.insert(l(300, 400), p2c(400));
        rels.insert(l(3, 500), p2c(3)); // one endpoint on no path
        let mut ps = PathSet::new();
        ps.push(Asn(1), AsPath::new(vec![Asn(1), Asn(2), Asn(3), Asn(4)]));
        ps.push(Asn(9), AsPath::new(vec![Asn(9)])); // one hop: never observed
        for threads in [1, 4] {
            let cones = cones_at(threads, &ps, &rels);
            let observed: Vec<Asn> = cones.indexer().iter().collect();
            assert_eq!(observed, vec![Asn(1), Asn(2), Asn(3), Asn(4)]);
            assert_eq!(cones.size(Asn(2)), Some(1), "sibling upstream");
            assert_eq!(
                cones.members(Asn(3)),
                Some(BTreeSet::from([Asn(3), Asn(4)]))
            );
            for asn in [9, 100, 200, 300, 400, 500] {
                assert_eq!(cones.size(Asn(asn)), None, "AS{asn} is on no path");
            }
            assert_eq!(cones.rows.iter().flatten().count(), 1);
        }
    }

    #[test]
    fn empty_pathset_yields_empty_cones() {
        let mut rels = BTreeMap::new();
        rels.insert(l(1, 2), p2c(1));
        for threads in [1, 4] {
            let cones = cones_at(threads, &PathSet::new(), &rels);
            assert!(cones.indexer().is_empty());
            assert!(cones.rows.is_empty());
            assert_eq!(cones.size(Asn(1)), None);
            assert_eq!(cones.storage_stats(), PpdcStorageStats::default());
        }
    }
}
