//! The two backlog workloads, `hot_drain` and `crash_recover`.
//!
//! Each round fills the request queue in-process through clerks over
//! `LocalQm`, checkpoints, and lets the pool of servers loose on the whole
//! backlog at once (§1: "queues provide a buffer that mitigates the effects
//! of bursts of requests"). Reply latency counts from that release, so the
//! latency figures are how long a burst request waits for its answer.
//!
//! * `hot_drain` drains a Zipf-skewed backlog: the CPU path of dequeue,
//!   lock conflicts, deadlock rollbacks and KV commit, with forces costing
//!   only a memcpy. After the drain the devices crash and the repository is
//!   reopened, which times recovery of the drain's log.
//! * `crash_recover` drains half of a uniform backlog, sends a last
//!   thousand requests, crashes, times `Repository::open_with`, checks that
//!   every acknowledged send survived, and drains the rest on the recovered
//!   repository.
//!
//! Both run on `RepoOptions::default()`; for a backlog, the highest rate
//! the pool sustains is its drain rate, so `max_rate_rps` reports that.

use crate::check::Checker;
use crate::harness::{
    audit, fill, local_clerks, Counters, Node, Pool, PoolOut, QueueContents, Transfers,
    DRAIN_DEADLINE,
};
use crate::report::Acc;
use crate::stats::Summary;
use crate::trace::Tracer;
use rrq_core::error::CoreResult;
use rrq_qm::repository::RepoOptions;
use std::sync::Arc;
use std::time::Instant;

/// One backlog workload's shape.
pub struct Shape {
    /// Bank accounts.
    pub accounts: u32,
    /// Zipf skew of account choice (0 = uniform).
    pub theta: f64,
    /// Transfers in the backlog.
    pub backlog: u64,
    /// Crash after draining half, then drain the rest after recovery.
    pub crash_midway: bool,
}

/// Hot accounts, no network, no force latency.
pub const HOT_DRAIN: Shape = Shape {
    accounts: 1_000,
    theta: 0.9,
    backlog: 40_000,
    crash_midway: false,
};

/// Uniform accounts, crash half-way through the drain.
pub const CRASH_RECOVER: Shape = Shape {
    accounts: 10_000,
    theta: 0.0,
    backlog: 40_000,
    crash_midway: true,
};

/// Requests `crash_recover` sends just before its crash.
const CRASH_TAIL: u64 = 1_000;

/// Crash-and-reopen cycles per recovery measurement: one recovery of a
/// backlog's log is a 0.3-0.7 s sample, too short to stand alone on a
/// shared machine.
const RECOVERIES: usize = 3;

/// Backlog rounds per run, at least and at most.
const MIN_ROUNDS: u32 = 3;
const MAX_ROUNDS: u32 = 12;

/// Run rounds of `shape` for about `seconds` (at least [`MIN_ROUNDS`]),
/// stopping at the first violation.
pub fn run(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    acc: &mut Acc,
    chk: &mut Checker,
    tracer: &Arc<Tracer>,
) -> CoreResult<()> {
    let started = Instant::now();
    for round in 0..MAX_ROUNDS {
        let rseed = seed.wrapping_mul(1_000_003).wrapping_add(u64::from(round));
        self::round(shape, rseed, acc, chk, tracer)?;
        let elapsed = started.elapsed().as_secs_f64();
        let next_fits = elapsed * f64::from(round + 2) / f64::from(round + 1) <= seconds;
        if !chk.is_clean() || (round + 1 >= MIN_ROUNDS && !next_fits) {
            break;
        }
    }
    Ok(())
}

/// One round: set up, drain (with or without a crash half-way), audit.
fn round(
    shape: &Shape,
    seed: u64,
    acc: &mut Acc,
    chk: &mut Checker,
    tracer: &Arc<Tracer>,
) -> CoreResult<()> {
    let n = shape.backlog;
    // Sent after the checkpoint and the first drain, right before the
    // crash, so nothing but the WAL force inside `Clerk::send` makes them
    // durable.
    let tail = if shape.crash_midway { CRASH_TAIL } else { 0 };
    let t = Instant::now();
    let node = Node::create(RepoOptions::default(), shape.accounts)?;
    let mut gen = Transfers::new(shape.accounts, shape.theta, seed);
    let clerks = local_clerks(&node, tracer)?;
    let mut sent = fill(&clerks, 1..=n - tail, &mut gen, tracer)?;
    acc.checkpoint_s.push(node.checkpoint()?);
    let before = Counters::read(&node);
    let first = if shape.crash_midway { n / 2 } else { n };
    let pool = Pool::start(&node.repo, tracer, first)?;
    acc.setup_s.push(t.elapsed().as_secs_f64());
    acc.in_flight_max = acc.in_flight_max.max(n);
    let mut out = drain(&node, pool, first, &before, acc, chk);
    sent.extend(fill(&clerks, n - tail + 1..=n, &mut gen, tracer)?);
    drop(clerks);

    let node = if shape.crash_midway {
        let node = node.recover(acc, RECOVERIES)?;
        let q = QueueContents::read(&node.repo)?;
        let mut found: Vec<u64> = q.replies.iter().map(|r| r.0).collect();
        found.extend(q.queued.iter().chain(&q.parked));
        chk.survived(&sent, &found);

        let rest = (q.queued.len() + q.parked.len()) as u64;
        let before = Counters::read(&node);
        let pool = Pool::start(&node.repo, tracer, rest)?;
        out = drain(&node, pool, rest, &before, acc, chk);
        node
    } else {
        node
    };
    acc.measured_reqs += n;

    // The measured drain: the whole backlog, or the post-recovery half.
    let done = out.done_at_ns();
    if let Some(&last) = done.last() {
        let rate = done.len() as f64 / (last as f64 / 1e9);
        acc.throughput_rps.push(rate);
        acc.max_rate_rps.push(rate);
        acc.notes.push(format!(
            "round: set-up {:.3} s, drained {} in {:.3} s = {rate:.0}/s",
            acc.setup_s.last().copied().unwrap_or(0.0),
            done.len(),
            last as f64 / 1e9
        ));
    }
    let latency_ms: Vec<f64> = done.iter().map(|&ns| ns as f64 / 1e6).collect();
    acc.latency_rounds.push(Summary::of(&latency_ms));
    acc.tally
        .add(audit(chk, &node, shape.accounts, &sent, &[])?);

    if !shape.crash_midway {
        // Downtime after a crash at the end of the drain; the drain's
        // replies and transfers, logged after the checkpoint, must all
        // come back exactly once.
        let node = node.recover(acc, RECOVERIES)?;
        audit(chk, &node, shape.accounts, &sent, &[])?;
    }
    Ok(())
}

/// Wait for a started pool to commit `limit` replies, stop it, and fold its
/// counters (taken since `before`) into `acc`.
fn drain(
    node: &Node,
    pool: Pool,
    limit: u64,
    before: &Counters,
    acc: &mut Acc,
    chk: &mut Checker,
) -> PoolOut {
    let finished = pool.wait(limit, DRAIN_DEADLINE);
    let out = pool.stop();
    chk.require(finished, || {
        format!(
            "drain stalled at {} of {limit} replies",
            out.done_at_ns().len()
        )
    });
    acc.counters.add(&Counters::read(node).since(before));
    acc.add_pool(&out, chk);
    out
}
