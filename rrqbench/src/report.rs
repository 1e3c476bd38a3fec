//! What a workload measured, turned into the reported metrics.
//!
//! Every workload reports every end-to-end metric and, when traced, every
//! per-layer metric. A layer a workload never calls (the network on the
//! in-process drains, the in-process enqueue on the remote path) reports 0
//! with a sample count of 0.

use crate::check::{Checker, Tally};
use crate::harness::{Counters, PoolOut};
use crate::stats::{interquartile_mean, median, Summary};
use crate::trace::Tracer;
use rrq_core::server::ServerStats;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (rounds, requests or calls).
    pub samples: usize,
}

/// Raw figures a workload gathers over its rounds.
#[derive(Debug, Default)]
pub struct Acc {
    /// Set-up wall time per round, seconds.
    pub setup_s: Vec<f64>,
    /// `Repository::open_with` wall time after each crash, seconds.
    pub recovery_s: Vec<f64>,
    /// Records replayed by each recovery.
    pub replayed: Vec<f64>,
    /// `Repository::checkpoint` wall time per round, seconds.
    pub checkpoint_s: Vec<f64>,
    /// Reply latency (ms) of each measured round. Rounds are summarised
    /// one by one and the median round is reported, so one disturbed round
    /// does not move the figure.
    pub latency_rounds: Vec<Summary>,
    /// Replies per second of each measured phase.
    pub throughput_rps: Vec<f64>,
    /// Highest sustained rate found (remote path) or drain rate (backlog).
    pub max_rate_rps: Vec<f64>,
    /// Requests the counters below were taken over.
    pub measured_reqs: u64,
    /// Device and commit counters over the measured phases.
    pub counters: Counters,
    /// Request servers' counters.
    pub server: ServerStats,
    /// Request servers' `run_once` calls and idle calls.
    pub calls: u64,
    /// Idle `run_once` calls.
    pub idle: u64,
    /// Most requests in flight at once.
    pub in_flight_max: u64,
    /// Bus messages delivered over the measured phases.
    pub messages: u64,
    /// `dequeue` calls on the reply path that returned `Empty`.
    pub empty_polls: u64,
    /// Replies the empty polls were spent on.
    pub polled_replies: u64,
    /// How late the open-loop generator sent, ms.
    pub gen_late_ms: Vec<f64>,
    /// Exactly-once outcome counts.
    pub tally: Tally,
    /// Facts worth printing for the reader (per-round and per-trial).
    pub notes: Vec<String>,
}

fn m(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

fn per(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Acc {
    /// Fold a stopped pool's server counters in; its loop errors are
    /// violations.
    pub fn add_pool(&mut self, out: &PoolOut, chk: &mut Checker) {
        for e in out.errors() {
            chk.require(false, || format!("server loop error: {e}"));
        }
        self.server.committed += out.stats.committed;
        self.server.aborted += out.stats.aborted;
        self.server.rolled += out.stats.rolled;
        self.calls += out.servers.calls;
        self.idle += out.servers.idle;
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let round_p =
            |f: fn(&Summary) -> f64| median(&self.latency_rounds.iter().map(f).collect::<Vec<_>>());
        let lat_n = self.latency_rounds.iter().map(|s| s.n).sum();
        let ok_frac = per(self.tally.ok as u64, self.tally.attempted as u64);
        vec![
            m("setup_s", median(&self.setup_s), "s", self.setup_s.len()),
            m("latency_p50_ms", round_p(|s| s.p50), "ms", lat_n),
            m("latency_p99_ms", round_p(|s| s.p99), "ms", lat_n),
            m(
                "throughput_rps",
                median(&self.throughput_rps),
                "1/s",
                self.throughput_rps.len(),
            ),
            m(
                "max_rate_rps",
                median(&self.max_rate_rps),
                "1/s",
                self.max_rate_rps.len(),
            ),
            m(
                "recovery_s",
                interquartile_mean(&self.recovery_s),
                "s",
                self.recovery_s.len(),
            ),
            m("ok_frac", ok_frac, "fraction", self.tally.attempted),
        ]
    }

    /// A warning when some round's p99 had fewer than ten samples beyond
    /// it, so its tail rests on too few requests.
    pub fn thin_tail(&self) -> Option<String> {
        let thin = self.latency_rounds.iter().filter(|s| !s.tail_ok()).count();
        (thin > 0).then(|| {
            format!(
                "{thin} of {} rounds had fewer than 10 samples beyond their p99",
                self.latency_rounds.len()
            )
        })
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn per_layer(&self, t: &Tracer) -> Vec<Metric> {
        let s = |name: &str| Summary::of(&t.series(name));
        let net = s("net.enqueue_call_us");
        let send = s("core.clerk.send_us");
        let run = s("core.server.run_once_us");
        let hnd = s("core.server.handler_us");
        let own = s("core.server.self_us");
        let lock = s("txn.lock_wait_us");
        let enq = s("qm.enqueue_us");
        let late = Summary::of(&self.gen_late_ms);
        let c = &self.counters;
        let reqs = self.measured_reqs;
        let st = &self.server;
        let attempts = st.committed + st.aborted + st.rolled;
        let us_per_record: Vec<f64> = self
            .recovery_s
            .iter()
            .zip(&self.replayed)
            .filter(|(_, &r)| r > 0.0)
            .map(|(s, r)| s * 1e6 / r)
            .collect();
        let n = reqs as usize;
        vec![
            m("net.enqueue_call_us_p50", net.p50, "us", net.n),
            m("net.enqueue_call_us_p99", net.p99, "us", net.n),
            m(
                "net.empty_polls_per_reply",
                per(self.empty_polls, self.polled_replies),
                "count",
                self.polled_replies as usize,
            ),
            m("net.msgs_per_req", per(self.messages, reqs), "count", n),
            m("core.clerk.send_us_p50", send.p50, "us", send.n),
            m("core.clerk.send_us_p99", send.p99, "us", send.n),
            m("core.server.run_once_us_p50", run.p50, "us", run.n),
            m("core.server.run_once_us_p99", run.p99, "us", run.n),
            m("core.server.handler_us_p50", hnd.p50, "us", hnd.n),
            m("core.server.handler_us_p99", hnd.p99, "us", hnd.n),
            m("core.server.self_us_p50", own.p50, "us", own.n),
            m(
                "core.server.useful_ratio",
                per(st.committed, attempts),
                "ratio",
                attempts as usize,
            ),
            m(
                "core.server.idle_frac",
                per(self.idle, self.calls),
                "fraction",
                self.calls as usize,
            ),
            m("txn.lock_wait_us_p50", lock.p50, "us", lock.n),
            m("txn.lock_wait_us_p99", lock.p99, "us", lock.n),
            m("txn.aborts_per_req", per(c.aborts, reqs), "count", n),
            m("qm.enqueue_us_p50", enq.p50, "us", enq.n),
            m(
                "qm.error_queue_depth",
                c.error_moves as f64,
                "count",
                self.tally.attempted,
            ),
            m(
                "qm.in_flight_max",
                self.in_flight_max as f64,
                "count",
                self.tally.attempted,
            ),
            m("storage.forces_per_req", per(c.syncs, reqs), "count", n),
            m(
                "storage.commits_per_force",
                per(c.gc_requests, c.gc_groups),
                "ratio",
                c.gc_groups as usize,
            ),
            m("storage.wal_bytes_per_req", per(c.wal_bytes, reqs), "B", n),
            m(
                "storage.checkpoint_s",
                median(&self.checkpoint_s),
                "s",
                self.checkpoint_s.len(),
            ),
            m(
                "storage.recovery_replayed_records",
                median(&self.replayed),
                "count",
                self.replayed.len(),
            ),
            m(
                "storage.recovery_us_per_record",
                median(&us_per_record),
                "us",
                us_per_record.len(),
            ),
            m("bench.gen_late_ms_p99", late.p99, "ms", late.n),
        ]
    }
}

/// A finished workload run.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Exactly-once outcome counts.
    pub tally: Tally,
    /// Checker violations (empty on a correct run).
    pub violations: Vec<String>,
    /// End-to-end metrics (measured in every run).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layer: Vec<Metric>,
    /// Run parameters and side facts, printed for the reader.
    pub notes: Vec<String>,
}
