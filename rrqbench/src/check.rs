//! The correctness checker every workload runs before it reports.
//!
//! A run's numbers count only if the paper's guarantees held during it:
//!
//! * exactly-once (§3): every request sent has exactly one reply or exactly
//!   one entry in the error queue (§9) — none lost, none duplicated, and no
//!   reply names a request that was never sent;
//! * conservation: transfers move money, so `bank::total_money` is constant;
//! * each OK reply committed exactly one clearinghouse entry;
//! * stable storage (§5): every send acknowledged before a crash is still
//!   present after recovery, as a reply or as a queued request.
//!
//! Requests are identified by their rid serial, which the benchmark makes
//! unique across all its logical clerks.

use std::collections::{BTreeMap, BTreeSet};

/// How many example rids a violation message lists.
const EXAMPLES: usize = 5;

/// Outcome counts of one reply audit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub attempted: usize,
    /// Requests with exactly one OK reply and nothing else.
    pub ok: usize,
}

impl Tally {
    /// Requests with no OK reply: `Failed` replies, error-queue entries,
    /// and anything lost or duplicated.
    pub fn failed(&self) -> usize {
        self.attempted - self.ok
    }

    /// Add another audit's counts.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
    }
}

/// Collects violations; a run with any violation is reported as incorrect.
#[derive(Debug, Default)]
pub struct Checker {
    violations: Vec<String>,
}

impl Checker {
    /// An empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Violations found so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// True when nothing was flagged.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Record a violation unless `cond` holds.
    pub fn require(&mut self, cond: bool, what: impl FnOnce() -> String) {
        if !cond {
            self.violations.push(what());
        }
    }

    /// Exactly-once audit. `replies` holds `(serial, is_ok)` for every reply
    /// element; `parked` holds the serials still in the error queue.
    pub fn replies(&mut self, sent: &[u64], replies: &[(u64, bool)], parked: &[u64]) -> Tally {
        #[derive(Default)]
        struct Seen {
            ok: u32,
            failed: u32,
            parked: u32,
        }
        let mut seen: BTreeMap<u64, Seen> = BTreeMap::new();
        for &(serial, ok) in replies {
            let s = seen.entry(serial).or_default();
            if ok {
                s.ok += 1;
            } else {
                s.failed += 1;
            }
        }
        for &serial in parked {
            seen.entry(serial).or_default().parked += 1;
        }

        let sent_set: BTreeSet<u64> = sent.iter().copied().collect();
        if sent_set.len() != sent.len() {
            self.violations.push(format!(
                "{} rid serials were sent more than once",
                sent.len() - sent_set.len()
            ));
        }
        let (mut lost, mut dup) = (Vec::new(), Vec::new());
        let mut tally = Tally {
            attempted: sent_set.len(),
            ok: 0,
        };
        for &serial in &sent_set {
            match seen.get(&serial) {
                None => lost.push(serial),
                Some(s) => {
                    let answers = s.ok + s.failed + s.parked;
                    if answers > 1 {
                        dup.push(serial);
                    } else if s.ok == 1 {
                        tally.ok += 1;
                    }
                }
            }
        }
        let unknown: Vec<u64> = seen
            .keys()
            .filter(|k| !sent_set.contains(k))
            .copied()
            .collect();
        self.flag("lost (no reply and no error-queue entry)", &lost);
        self.flag("duplicated (more than one reply or error entry)", &dup);
        self.flag("answered but never sent", &unknown);
        tally
    }

    /// Every acknowledged send survives a crash: each serial in `acked` is
    /// found among the replies or the queued requests after recovery.
    pub fn survived(&mut self, acked: &[u64], found: &[u64]) {
        let found: BTreeSet<u64> = found.iter().copied().collect();
        let missing: Vec<u64> = acked
            .iter()
            .filter(|s| !found.contains(s))
            .copied()
            .collect();
        self.flag(
            "acknowledged before the crash but gone after recovery",
            &missing,
        );
    }

    /// Money is conserved across all transfers.
    pub fn money(&mut self, expected: i64, actual: i64) {
        self.require(expected == actual, || {
            format!("total money {actual} != seeded {expected}")
        });
    }

    /// One clearinghouse entry per OK reply.
    pub fn clearing(&mut self, ok_replies: usize, entries: usize) {
        self.require(ok_replies == entries, || {
            format!("{entries} clearinghouse entries for {ok_replies} OK replies")
        });
    }

    fn flag(&mut self, what: &str, serials: &[u64]) {
        if serials.is_empty() {
            return;
        }
        let shown: Vec<String> = serials
            .iter()
            .take(EXAMPLES)
            .map(|s| s.to_string())
            .collect();
        self.violations.push(format!(
            "{} request(s) {what}: rid serials {}{}",
            serials.len(),
            shown.join(", "),
            if serials.len() > EXAMPLES {
                ", ..."
            } else {
                ""
            }
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent() -> Vec<u64> {
        (0..10).collect()
    }

    fn all_ok() -> Vec<(u64, bool)> {
        (0..10).map(|s| (s, true)).collect()
    }

    #[test]
    fn clean_run_passes_and_counts_outcomes() {
        let mut c = Checker::new();
        let mut replies = all_ok();
        replies[3].1 = false; // a Failed reply is an answer, not a violation
        replies.pop(); // serial 9 sits in the error queue instead
        let t = c.replies(&sent(), &replies, &[9]);
        assert!(c.is_clean(), "{:?}", c.violations());
        assert_eq!(
            t,
            Tally {
                attempted: 10,
                ok: 8
            }
        );
        assert_eq!(t.failed(), 2);
    }

    #[test]
    fn planted_duplicate_reply_is_flagged() {
        let mut c = Checker::new();
        let mut replies = all_ok();
        replies.push((4, true));
        let t = c.replies(&sent(), &replies, &[]);
        assert_eq!(c.violations().len(), 1, "{:?}", c.violations());
        assert!(c.violations()[0].contains("duplicated"));
        assert!(c.violations()[0].contains('4'));
        assert_eq!(t.ok, 9, "the duplicated rid is not an OK outcome");
    }

    #[test]
    fn reply_plus_error_entry_is_a_duplicate() {
        let mut c = Checker::new();
        c.replies(&sent(), &all_ok(), &[2]);
        assert!(c.violations()[0].contains("duplicated"));
    }

    #[test]
    fn planted_lost_request_is_flagged() {
        let mut c = Checker::new();
        let replies: Vec<(u64, bool)> = all_ok().into_iter().filter(|r| r.0 != 7).collect();
        let t = c.replies(&sent(), &replies, &[]);
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("lost"));
        assert!(c.violations()[0].contains('7'));
        assert_eq!(t.failed(), 1);
    }

    #[test]
    fn reply_to_unsent_request_is_flagged() {
        let mut c = Checker::new();
        let mut replies = all_ok();
        replies.push((99, true));
        c.replies(&sent(), &replies, &[]);
        assert!(c.violations()[0].contains("never sent"));
    }

    #[test]
    fn crash_survival_money_and_clearing_checks() {
        let mut c = Checker::new();
        c.survived(&[1, 2, 3], &[3, 1, 2, 8]);
        c.money(1_000, 1_000);
        c.clearing(5, 5);
        assert!(c.is_clean());
        c.survived(&[1, 2, 3], &[1, 3]);
        c.money(1_000, 999);
        c.clearing(5, 4);
        assert_eq!(c.violations().len(), 3, "{:?}", c.violations());
        assert!(c.violations()[0].contains("gone after recovery"));
    }
}
