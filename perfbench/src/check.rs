//! Correctness checks, counted as operations: every check is one
//! attempted operation and every failed check one failed operation.

use breval_core::sanitize;
use breval_core::Scenario;
use brevald::SnapshotSet;
use std::fmt::Display;
use std::path::Path;

/// Attempted / failed operation tally plus the failure messages.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (timed calls, queries and checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts `n` operations that cannot fail on their own (timed calls
    /// whose output a later check covers).
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one operation, failed when `error` is `Some`.
    pub fn record(&mut self, what: &str, error: Option<impl Display>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.fail(format!("{what}: {e}"));
        }
    }

    /// Counts one operation that failed.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(message);
        }
    }

    /// The `breval_core::sanitize` invariants over one scenario.
    pub fn sanitize(&mut self, s: &Scenario) {
        let violations = |v: Vec<sanitize::Violation>| {
            (!v.is_empty()).then(|| {
                let first = v.first().map(ToString::to_string).unwrap_or_default();
                format!("{} violation(s), first: {first}", v.len())
            })
        };
        match s.topology.ground_truth_graph() {
            Ok(g) => self.record("check_graph", violations(sanitize::check_graph(&g))),
            Err(e) => self.record("ground_truth_graph", Some(format!("{e:?}"))),
        }
        self.record(
            "check_pathset",
            violations(sanitize::check_pathset(&s.paths)),
        );
        self.record(
            "check_validation_subset",
            violations(sanitize::check_validation_subset(
                &s.validation,
                &s.inferred_links,
            )),
        );
        self.record(
            "check_class_partition",
            violations(sanitize::check_class_partition(
                &s.classifier,
                &s.inferred_links,
                &s.topology.tier1,
                &s.topology.hypergiants,
            )),
        );
    }

    /// Answers every probe from the warm-loaded set and from a set built
    /// in memory from the scenario; each pair must match byte for byte
    /// and be an `ok` reply.
    pub fn probes(&mut self, s: &Scenario, loaded: &SnapshotSet, probes: &[String]) {
        let fresh = match SnapshotSet::from_scenario(s) {
            Ok(set) => set,
            Err(e) => return self.record("SnapshotSet::from_scenario", Some(e)),
        };
        for q in probes {
            let warm = brevald::answer_line(loaded, q);
            let cold = brevald::answer_line(&fresh, q);
            let error = if warm != cold {
                Some(format!("warm {warm:?} != cold {cold:?}"))
            } else if !warm.starts_with("ok ") {
                Some(format!("reply {warm:?}"))
            } else {
                None
            };
            self.record(&format!("probe {q:?}"), error);
        }
    }

    /// Compares `digest` with the one stored under `key` in `dir` by an
    /// earlier run of the same binary, or stores it.
    pub fn digest_repeats(&mut self, dir: &Path, key: &str, digest: &Digest) {
        let path = dir.join(format!("{key}.digest"));
        let hex = digest.hex();
        match std::fs::read_to_string(&path) {
            Ok(stored) => {
                let error = (stored.trim() != hex)
                    .then(|| format!("artefact digest {hex} differs from {}", stored.trim()));
                self.record("artefact digest", error);
            }
            Err(_) => {
                let written =
                    std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &hex));
                self.record("storing the artefact digest", written.err());
            }
        }
    }
}

/// FNV-1a 64 over everything added, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn add_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // A separator, so ("ab", "c") and ("a", "bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    /// Folds `text` in.
    pub fn add(&mut self, text: &str) {
        self.add_bytes(text.as_bytes());
    }

    /// Folds another digest in.
    pub fn merge(&mut self, other: Digest) {
        self.add_bytes(&other.0.to_le_bytes());
    }

    /// Sixteen hex digits.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_and_boundary_sensitive() {
        let mut a = Digest::default();
        a.add("ab");
        a.add("c");
        let mut b = Digest::default();
        b.add("a");
        b.add("bc");
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.add("ab");
        c.add("c");
        assert_eq!(a, c);
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut checks = Checks::default();
        checks.record("fine", None::<String>);
        checks.record("broken", Some("bad"));
        checks.ops(3);
        assert_eq!((checks.attempted, checks.failed), (5, 1));
        assert_eq!(checks.messages, ["broken: bad"]);
    }
}
