//! The serve workload's client transcript: a seeded, lazily generated
//! stream of `brevald` protocol requests.
//!
//! The stream is a sequence of blocks. Each block sends
//! [`SINGLES_PER_BLOCK`] single-line queries and then one `batch 256`.
//! The requested reloads are spread evenly between the blocks, each
//! preceded by a `drain` (so a reload is only issued once the previous one
//! has landed); the stream ends with `drain` and `quit`. Queries follow
//! the qpsbench mix, with about 2 % unknown ASNs. The whole stream is a
//! pure function of (seed, AS list, block count, reloads).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// (kind, weight): point lookups dominate, as on a serving deployment.
pub const MIX: [(&str, u32); 6] = [
    ("cone", 30),
    ("member", 20),
    ("class", 25),
    ("ascov", 14),
    ("slice", 10),
    ("stats", 1),
];

/// Queries per `batch` command.
pub const BATCH: usize = 256;

/// Single-line queries sent before each batch. A batch wakes a pool
/// worker on another CPU, and on a shared host how long that takes swings
/// by several times between runs; four single lines per batched query keep
/// that swing from dominating the serving time.
pub const SINGLES_PER_BLOCK: usize = 1024;

/// Upper bound on the reloads one store sees over all its streams, far
/// below its generation capacity.
pub const MAX_RELOADS: usize = 64;

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A single-line query of kind `MIX[kind]`.
    Single { kind: usize, line: String },
    /// `batch <n>` followed by the query lines.
    Batch(Vec<String>),
    /// Wait for any pending reload to land.
    Drain,
    /// Start an off-thread reload.
    Reload,
    /// End the session.
    Quit,
}

impl Request {
    /// Reply lines the server sends for this request.
    #[must_use]
    pub fn replies(&self) -> usize {
        match self {
            Request::Batch(lines) => lines.len(),
            _ => 1,
        }
    }

    /// Appends the request's wire form (newline-terminated lines).
    pub fn write_to(&self, out: &mut Vec<u8>) {
        let mut line = |s: &str| {
            out.extend_from_slice(s.as_bytes());
            out.push(b'\n');
        };
        match self {
            Request::Single { line: q, .. } => line(q),
            Request::Batch(lines) => {
                line(&format!("batch {}", lines.len()));
                for q in lines {
                    line(q);
                }
            }
            Request::Drain => line("drain"),
            Request::Reload => line("reload"),
            Request::Quit => line("quit"),
        }
    }
}

/// One seeded query of kind `MIX[kind]` over `asns`.
pub fn query(rng: &mut ChaCha8Rng, asns: &[u32], kind: usize) -> String {
    let pick = |rng: &mut ChaCha8Rng| -> u32 {
        if asns.is_empty() || rng.random_range(0..50u32) == 0 {
            rng.random_range(1..100_000u32)
        } else {
            asns[rng.random_range(0..asns.len())]
        }
    };
    match MIX[kind].0 {
        "cone" => format!("cone {}", pick(rng)),
        "member" => format!("member {} {}", pick(rng), pick(rng)),
        "class" => {
            let a = pick(rng);
            let mut b = pick(rng);
            if b == a {
                b = a.wrapping_add(1).max(1);
            }
            format!("class {a} {b}")
        }
        "ascov" => format!("ascov {}", pick(rng)),
        "slice" => {
            let region = match rng.random_range(0..4u32) {
                0 => "*".to_owned(),
                _ => {
                    let code = rng.random_range(0..=brevald::slices::REGION_NONE);
                    brevald::slices::region_label_of(code).unwrap_or_else(|| "*".to_owned())
                }
            };
            let topo = match rng.random_range(0..4u32) {
                0 => "*",
                _ => {
                    let codes: [u8; 10] = [0, 1, 2, 3, 5, 6, 7, 10, 11, 15];
                    let code = codes[rng.random_range(0..codes.len())];
                    brevald::slices::topo_label_of(code).unwrap_or("*")
                }
            };
            format!("slice {region} {topo}")
        }
        _ => "stats".to_owned(),
    }
}

/// A query kind drawn by the mix weights.
pub fn kind(rng: &mut ChaCha8Rng) -> usize {
    let total: u32 = MIX.iter().map(|(_, w)| w).sum();
    let mut draw = rng.random_range(0..total);
    for (i, (_, weight)) in MIX.iter().enumerate() {
        if draw < *weight {
            return i;
        }
        draw -= weight;
    }
    MIX.len() - 1
}

/// The lazy request stream.
pub struct Transcript {
    rng: ChaCha8Rng,
    asns: Vec<u32>,
    blocks: usize,
    reloads: usize,
    reloads_issued: usize,
    block: usize,
    /// Requests of the current block not yet handed out, in reverse.
    queued: Vec<Request>,
    finished: bool,
}

impl Transcript {
    /// `blocks` blocks of queries over `asns`, seeded by `seed`, with
    /// up to `reloads` reloads between them (at most one per block
    /// boundary, and never more than [`MAX_RELOADS`]).
    #[must_use]
    pub fn new(seed: u64, asns: Vec<u32>, blocks: usize, reloads: usize) -> Self {
        let reloads = reloads.min(MAX_RELOADS).min(blocks.saturating_sub(1));
        Transcript {
            rng: ChaCha8Rng::seed_from_u64(seed),
            asns,
            blocks,
            reloads,
            reloads_issued: 0,
            block: 0,
            queued: Vec::new(),
            finished: false,
        }
    }

    /// Reloads the full stream issues.
    #[must_use]
    pub fn reloads(&self) -> usize {
        self.reloads
    }

    /// Queries the full stream sends.
    #[must_use]
    pub fn queries(&self) -> usize {
        self.blocks * (SINGLES_PER_BLOCK + BATCH)
    }

    fn fill_block(&mut self) {
        let mut block = Vec::with_capacity(SINGLES_PER_BLOCK + 3);
        // Reload `i` (from 1) goes before block `i * blocks / (reloads + 1)`:
        // distinct, non-zero block indices, since `reloads < blocks`.
        let next_at = (self.reloads_issued + 1) * self.blocks / (self.reloads + 1);
        if self.reloads_issued < self.reloads && self.block >= next_at.max(1) {
            self.reloads_issued += 1;
            block.push(Request::Drain);
            block.push(Request::Reload);
        }
        for _ in 0..SINGLES_PER_BLOCK {
            let kind = kind(&mut self.rng);
            let line = query(&mut self.rng, &self.asns, kind);
            block.push(Request::Single { kind, line });
        }
        let lines = (0..BATCH)
            .map(|_| {
                let kind = kind(&mut self.rng);
                query(&mut self.rng, &self.asns, kind)
            })
            .collect();
        block.push(Request::Batch(lines));
        block.reverse();
        self.queued = block;
        self.block += 1;
    }
}

impl Iterator for Transcript {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.queued.is_empty() && !self.finished {
            if self.block < self.blocks {
                self.fill_block();
            } else {
                self.queued = vec![Request::Quit, Request::Drain];
                self.finished = true;
            }
        }
        self.queued.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asns() -> Vec<u32> {
        (1..=500).map(|i| i * 7).collect()
    }

    #[test]
    fn same_seed_same_transcript() {
        let a: Vec<Request> = Transcript::new(9, asns(), 40, 3).collect();
        let b: Vec<Request> = Transcript::new(9, asns(), 40, 3).collect();
        assert_eq!(a, b);
        let c: Vec<Request> = Transcript::new(10, asns(), 40, 3).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn shape_counts_match_the_declared_totals() {
        let t = Transcript::new(3, asns(), 1000, MAX_RELOADS);
        let (reloads, queries) = (t.reloads(), t.queries());
        let requests: Vec<Request> = t.collect();
        let issued = requests.iter().filter(|r| **r == Request::Reload).count();
        assert_eq!(issued, reloads);
        assert!(reloads > 0 && reloads <= MAX_RELOADS);
        assert!(reloads < brevald::GENERATION_CAPACITY / 2);
        let sent: usize = requests
            .iter()
            .map(|r| match r {
                Request::Single { .. } | Request::Batch(_) => r.replies(),
                _ => 0,
            })
            .sum();
        assert_eq!(sent, queries);
        // Every reload is preceded by a drain; the stream ends drain, quit.
        for (i, r) in requests.iter().enumerate() {
            if *r == Request::Reload {
                assert_eq!(requests[i - 1], Request::Drain);
            }
        }
        assert_eq!(
            requests[requests.len() - 2..],
            [Request::Drain, Request::Quit]
        );
    }

    #[test]
    fn reloads_are_issued_as_requested() {
        for (blocks, reloads) in [(40, 0), (40, 1), (40, 2), (1, 1), (1000, 500)] {
            let t = Transcript::new(4, asns(), blocks, reloads);
            let declared = t.reloads();
            let issued = t.filter(|r| *r == Request::Reload).count();
            assert_eq!(issued, declared, "{blocks} blocks, {reloads} reloads");
            let want = reloads.min(MAX_RELOADS).min(blocks.saturating_sub(1));
            assert_eq!(issued, want, "{blocks} blocks, {reloads} reloads");
        }
    }

    #[test]
    fn mix_roughly_follows_the_weights() {
        let requests: Vec<Request> = Transcript::new(5, asns(), 200, 0).collect();
        let mut counts = [0usize; MIX.len()];
        for r in &requests {
            if let Request::Single { kind, line } = r {
                counts[*kind] += 1;
                assert!(line.starts_with(MIX[*kind].0));
            }
        }
        let total: usize = counts.iter().sum();
        let cone_share = counts[0] as f64 / total as f64;
        assert!(
            (0.25..0.35).contains(&cone_share),
            "cone share {cone_share}"
        );
    }
}
