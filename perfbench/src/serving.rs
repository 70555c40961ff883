//! `brevald` serving spread over the whole timed window.
//!
//! One server answers from one store for the whole run. Every call to
//! [`Serving::segment`] runs a short closed-loop session of its own (a
//! fresh transcript, ending `drain`, `quit`), so serving is sampled
//! between the job's calls from the first to the last second of the
//! window: a slow spell of a shared host then moves a few segments, not
//! the result, which is a median over segments.

use crate::client::{self, Session};
use crate::job;
use crate::transcript::{self, Transcript};
use brevald::{Server, SnapshotStore};
use std::sync::Arc;
use std::time::Duration;

/// Every segment session of one run, and what they were sent.
pub struct Serving {
    server: Server,
    store: Arc<SnapshotStore>,
    asns: Vec<u32>,
    seed: u64,
    blocks: usize,
    reload_every: usize,
    /// One per segment, in order.
    pub sessions: Vec<Session>,
    /// Wall time of all segments.
    pub elapsed: Duration,
    /// Queries the transcripts sent in total.
    pub queries_planned: u64,
    /// Reloads the transcripts issued in total.
    pub reloads_planned: u64,
    /// Transport errors (none on in-memory transport unless broken).
    pub transport_errors: Vec<String>,
}

impl Serving {
    /// Serves `store` (reloading from what `server` was built with):
    /// `blocks` blocks per segment, and one reload in every
    /// `reload_every`-th segment until [`transcript::MAX_RELOADS`] is
    /// reached. Segment `k`'s transcript is seeded from (`seed`, `k`).
    #[must_use]
    pub fn new(
        server: Server,
        asns: Vec<u32>,
        seed: u64,
        blocks: usize,
        reload_every: usize,
    ) -> Self {
        Serving {
            store: Arc::clone(server.store()),
            server,
            asns,
            seed,
            blocks,
            reload_every: reload_every.max(1),
            sessions: Vec::new(),
            elapsed: Duration::ZERO,
            queries_planned: 0,
            reloads_planned: 0,
            transport_errors: Vec::new(),
        }
    }

    /// The store the server answers from.
    #[must_use]
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }

    /// Runs one timed segment session.
    pub fn segment(&mut self) {
        let k = self.sessions.len() + self.transport_errors.len();
        let reload = k % self.reload_every == self.reload_every / 2
            && self.reloads_planned < transcript::MAX_RELOADS as u64;
        let seed = self.seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let transcript = Transcript::new(seed, self.asns.clone(), self.blocks, usize::from(reload));
        self.queries_planned += transcript.queries() as u64;
        self.reloads_planned += transcript.reloads() as u64;
        let server = &mut self.server;
        match job::timed("brevald.serve", &mut self.elapsed, || {
            client::run(server, transcript)
        }) {
            Ok(session) => self.sessions.push(session),
            Err(e) => self.transport_errors.push(e.to_string()),
        }
    }

    /// Sum of `f` over every segment.
    pub fn total(&self, f: impl Fn(&Session) -> u64) -> u64 {
        self.sessions.iter().map(f).sum()
    }

    /// Every segment's samples of `f`, concatenated.
    pub fn samples(&self, f: impl Fn(&Session) -> &[u64]) -> Vec<u64> {
        self.sessions
            .iter()
            .flat_map(|s| f(s).iter().copied())
            .collect()
    }
}
