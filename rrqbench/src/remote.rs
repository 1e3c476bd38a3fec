//! The `remote_open` workload: the headline path, clerk → `rrq-net` RPC →
//! `QmRpcServer` → server pool → QM → 2PL → KV → WAL.
//!
//! An open-loop generator sends Poisson-spaced bank transfers with
//! `Clerk::send` from 16 logical clerks sharing one `RemoteQm`; their
//! replies land on one shared reply queue that a collector thread drains
//! through a second `RemoteQm`. The generator never waits for replies, so a
//! stall makes later requests late rather than fewer, and every latency is
//! timed from the request's *intended* send time (no coordinated omission).
//!
//! Forces are modelled by `RepoOptions::wal_sync_latency`; everything else
//! is `RepoOptions::default()`. Accounts are uniform over 10 000, so lock
//! contention stays near zero and RPC, polling and force costs dominate.

use crate::check::Checker;
use crate::harness::{
    audit, connect_clerks, send, Counters, Node, Pool, TimedQm, Transfers, REPLY,
};
use crate::report::Acc;
use crate::stats::Summary;
use crate::trace::Tracer;
use rrq_core::api::QmApi;
use rrq_core::clerk::Clerk;
use rrq_core::error::{CoreError, CoreResult};
use rrq_core::remote::{QmRpcServer, RemoteQm};
use rrq_core::request::{Reply, ReplyStatus};
use rrq_net::rpc::ServerGuard;
use rrq_net::NetworkBus;
use rrq_qm::ops::DequeueOptions;
use rrq_qm::repository::RepoOptions;
use rrq_qm::QmError;
use rrq_storage::codec::Decode;
use rrq_workload::arrivals::uniform_arrivals;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fixed offered rate of the latency rounds, about half the knee.
pub const RATE_RPS: f64 = 450.0;
/// p99 reply-latency limit that `max_rate_rps` must meet.
pub const LIMIT_MS: f64 = 100.0;
/// Modelled cost of one WAL force.
pub const FORCE: Duration = Duration::from_micros(200);
/// Uniformly chosen bank accounts.
pub const ACCOUNTS: u32 = 10_000;
/// Geometric resolution of the max-rate search (2% steps, finer than the
/// metric's bound).
pub const STEP: f64 = 1.02;
/// Factor by which a max-rate search widens its first bracket.
const WIDEN: f64 = 1.25;
/// Max-rate searches per run; the median limit is reported, so one search
/// thrown off by a disturbed trial does not move the figure.
pub const SEARCHES: usize = 3;
/// Trials one search may take at most.
const MAX_TRIALS: usize = 14;
/// Fixed-rate latency rounds per run; each is its own set-up, so the
/// set-up and recovery figures get several samples.
pub const LATENCY_ROUNDS: usize = 5;
/// Crash-and-reopen cycles after each latency round, and again after each
/// max-rate trial on the last round's repository. One recovery of a
/// round's log takes about 20 ms, and how fast a shared machine runs
/// drifts from one such window to the next, so the cycles are spread over
/// the whole run.
const RECOVERIES: usize = 3;
/// How long the collector blocks per `dequeue` call.
const COLLECT_BLOCK: Duration = Duration::from_millis(50);
/// How long to wait for stragglers after the last send; replies still
/// missing then are lost, and the workload stops.
const REPLY_GRACE: Duration = Duration::from_secs(10);

type Received = Arc<Mutex<Vec<(u64, bool, u64)>>>;

/// What the collector thread saw: errors, and `dequeue` calls that
/// returned `Empty`.
type Collected = (Vec<String>, u64);

/// One set-up of the remote path.
struct Rig {
    node: Node,
    bus: NetworkBus,
    rpc: ServerGuard,
    pool: Pool,
    clerks: Vec<Clerk>,
    collector: JoinHandle<Collected>,
    stop: Arc<AtomicBool>,
    /// `(serial, ok, ns since epoch)` per reply taken.
    received: Received,
    count: Arc<AtomicU64>,
    epoch: Instant,
    /// Serials sent, with their intended send times (ns since epoch).
    sent: Vec<(u64, u64)>,
}

/// What one open-loop phase saw.
struct Phase {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Most requests due but not yet answered, sent or not.
    in_flight_max: u64,
    /// Requests due but not answered when the last one was sent.
    in_flight_end: u64,
    replies: usize,
    span_ns: u64,
}

impl Rig {
    fn setup(seed: u64, tracer: &Arc<Tracer>, acc: &mut Acc) -> CoreResult<Rig> {
        let t = Instant::now();
        let opts = RepoOptions {
            wal_sync_latency: Some(FORCE),
            ..RepoOptions::default()
        };
        let node = Node::create(opts, ACCOUNTS)?;
        acc.checkpoint_s.push(node.checkpoint()?);
        let bus = NetworkBus::new(seed);
        let rpc = QmRpcServer::spawn(&bus, "qm", Arc::clone(&node.repo));
        let mut send_api: Arc<dyn QmApi> = Arc::new(RemoteQm::new(&bus, "clerks", "qm"));
        if tracer.on() {
            send_api = Arc::new(TimedQm::new(
                send_api,
                Arc::clone(tracer),
                "net.enqueue_call_us",
            ));
        }
        let clerks = connect_clerks(send_api)?;
        let collect_api = RemoteQm::new(&bus, "collector", "qm");
        collect_api.register(REPLY, "collector", false)?;
        let pool = Pool::start(&node.repo, tracer, u64::MAX)?;

        let epoch = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let received: Received = Arc::new(Mutex::new(Vec::new()));
        let count = Arc::new(AtomicU64::new(0));
        let collector = {
            let (stop, received, count) =
                (Arc::clone(&stop), Arc::clone(&received), Arc::clone(&count));
            rrq_core::threads::spawn_named("bench-collector", move || {
                collect(&collect_api, &stop, &received, &count, epoch)
            })
        };
        acc.setup_s.push(t.elapsed().as_secs_f64());
        Ok(Rig {
            node,
            bus,
            rpc,
            pool,
            clerks,
            collector,
            stop,
            received,
            count,
            epoch,
            sent: Vec::new(),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Offer `rate` req/s for `secs`, then wait for every reply (or the
    /// grace period). Latencies count from each request's intended time.
    fn phase(
        &mut self,
        rate: f64,
        secs: f64,
        gen: &mut Transfers,
        seed: u64,
        tracer: &Tracer,
    ) -> CoreResult<Phase> {
        let n = ((rate * secs).round() as usize).max(1);
        let offsets = uniform_arrivals(n, rate, seed);
        let base = self.sent.len();
        let start = self.now_ns() + 1_000_000;
        let mut late_ms = Vec::with_capacity(n);
        let mut in_flight_max = 0;
        let replied0 = self.count.load(Ordering::Acquire);
        let ends: Vec<u64> = offsets.iter().map(|o| start + o * 1_000).collect();
        let in_flight = |now: u64, replied: u64| {
            let due = ends.partition_point(|&d| d <= now) as u64;
            due.saturating_sub(replied - replied0)
        };
        for &due in &ends {
            let now = self.now_ns();
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            late_ms.push(self.now_ns().saturating_sub(due) as f64 / 1e6);
            let serial = self.sent.len() as u64 + 1;
            self.sent.push((serial, due));
            send(&self.clerks, serial, &gen.next(), tracer)?;
            let now = self.now_ns();
            in_flight_max = in_flight_max.max(in_flight(now, self.count.load(Ordering::Acquire)));
        }
        let in_flight_end = in_flight(self.now_ns(), self.count.load(Ordering::Acquire));
        self.await_replies();

        let due_at: std::collections::HashMap<u64, u64> =
            self.sent[base..].iter().copied().collect();
        let received = self.received.lock().expect("collector poisoned");
        let mut latency_ms = Vec::with_capacity(n);
        let mut last = start;
        for &(serial, _, at) in received.iter() {
            if let Some(&d) = due_at.get(&serial) {
                latency_ms.push(at.saturating_sub(d) as f64 / 1e6);
                last = last.max(at);
            }
        }
        let missing = n.saturating_sub(latency_ms.len());
        if missing > 0 {
            return Err(CoreError::Protocol(format!(
                "{missing} of {n} replies never arrived"
            )));
        }
        Ok(Phase {
            replies: latency_ms.len(),
            latency_ms,
            late_ms,
            in_flight_max,
            in_flight_end,
            span_ns: last - start,
        })
    }

    fn await_replies(&self) {
        let until = Instant::now() + REPLY_GRACE;
        while (self.count.load(Ordering::Acquire) as usize) < self.sent.len()
            && Instant::now() < until
        {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stop everything, fold the pool's counters into `acc`, and audit.
    /// With `crash`, then crash the devices, time recovery, and audit the
    /// recovered repository the same way: every request, reply and
    /// transfer was logged after the checkpoint, so this checks that the
    /// WAL alone brings back each committed effect exactly once. Returns
    /// the (recovered) repository.
    fn finish(self, acc: &mut Acc, chk: &mut Checker, crash: bool) -> CoreResult<Node> {
        self.stop.store(true, Ordering::Release);
        let (errors, empties) = self.collector.join().expect("collector panicked");
        for e in errors {
            chk.require(false, || format!("collector error: {e}"));
        }
        acc.empty_polls += empties;
        acc.add_pool(&self.pool.stop(), chk);
        self.rpc.shutdown();
        let taken: Vec<(u64, bool)> = self
            .received
            .lock()
            .expect("collector poisoned")
            .iter()
            .map(|r| (r.0, r.1))
            .collect();
        acc.polled_replies += taken.len() as u64;
        let sent: Vec<u64> = self.sent.iter().map(|s| s.0).collect();
        acc.tally
            .add(audit(chk, &self.node, ACCOUNTS, &sent, &taken)?);
        if !crash {
            return Ok(self.node);
        }
        let node = self.node.recover(acc, RECOVERIES)?;
        audit(chk, &node, ACCOUNTS, &sent, &taken)?;
        Ok(node)
    }
}

/// The collector loop: take replies off the shared reply queue.
fn collect(
    api: &RemoteQm,
    stop: &AtomicBool,
    received: &Mutex<Vec<(u64, bool, u64)>>,
    count: &AtomicU64,
    epoch: Instant,
) -> Collected {
    let mut errors = Vec::new();
    let mut empties = 0;
    while !stop.load(Ordering::Acquire) {
        let opts = DequeueOptions {
            block: Some(COLLECT_BLOCK),
            ..Default::default()
        };
        match api.dequeue(REPLY, "collector", opts) {
            Ok(e) => {
                let at = epoch.elapsed().as_nanos() as u64;
                match Reply::decode_all(&e.payload) {
                    Ok(r) => received.lock().expect("collector poisoned").push((
                        r.rid.serial,
                        r.status == ReplyStatus::Ok,
                        at,
                    )),
                    Err(e) => errors.push(format!("undecodable reply: {e}")),
                }
                count.fetch_add(1, Ordering::AcqRel);
            }
            Err(CoreError::Qm(QmError::Empty(_))) => empties += 1,
            Err(e) => {
                if errors.len() < 5 {
                    errors.push(e.to_string());
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    (errors, empties)
}

/// A trial of the max-rate search passes when p99 latency meets
/// [`LIMIT_MS`] and the requests due but unanswered when sending ends fit
/// the limit by Little's law.
fn meets_limit(p: &Phase, rate: f64, notes: &mut Vec<String>) -> bool {
    let p99 = Summary::of(&p.latency_ms).p99;
    let pass = p99 <= LIMIT_MS && (p.in_flight_end as f64) <= rate * LIMIT_MS / 1e3;
    notes.push(format!(
        "max-rate trial: offered {rate:.1}/s achieved {:.1}/s p99 {p99:.2} ms in flight at end {} -> {}",
        p.replies as f64 / (p.span_ns.max(1) as f64 / 1e9),
        p.in_flight_end,
        if pass { "meets limit" } else { "misses limit" }
    ));
    pass
}

/// One max-rate search from `start` req/s: widen by [`WIDEN`] until a
/// trial passes and one misses, then bisect geometrically down to
/// [`STEP`]. Returns the highest rate that met the limit (0 if none did
/// within [`MAX_TRIALS`]).
fn search(start: f64, mut trial: impl FnMut(f64) -> CoreResult<bool>) -> CoreResult<f64> {
    let (mut lo, mut hi) = (0.0_f64, f64::INFINITY);
    let mut rate = start;
    for _ in 0..MAX_TRIALS {
        if trial(rate)? {
            lo = rate;
        } else {
            hi = rate;
        }
        rate = if hi.is_infinite() {
            lo * WIDEN
        } else if lo == 0.0 {
            hi / WIDEN
        } else if hi / lo > STEP {
            (lo * hi).sqrt()
        } else {
            break;
        };
    }
    Ok(lo)
}

/// Run the workload for about `seconds`.
pub fn run(
    seed: u64,
    seconds: f64,
    acc: &mut Acc,
    chk: &mut Checker,
    tracer: &Arc<Tracer>,
) -> CoreResult<()> {
    let mut gen = Transfers::new(ACCOUNTS, 0.0, seed);
    let phase_secs = (0.32 * seconds / LATENCY_ROUNDS as f64).max(1.0);
    let mut last = None;
    for round in 0..LATENCY_ROUNDS {
        let rseed = seed.wrapping_mul(31).wrapping_add(round as u64);
        let mut rig = Rig::setup(rseed, tracer, acc)?;
        let (msgs0, before) = (rig.bus.delivered_count(), Counters::read(&rig.node));
        let p = rig.phase(RATE_RPS, phase_secs, &mut gen, rseed, tracer)?;
        acc.counters.add(&Counters::read(&rig.node).since(&before));
        acc.messages += rig.bus.delivered_count() - msgs0;
        acc.measured_reqs += p.replies as u64;
        let lat = Summary::of(&p.latency_ms);
        acc.latency_rounds.push(lat);
        acc.notes.push(format!(
            "latency round: offered {RATE_RPS}/s achieved {:.1}/s, p50 {:.2} ms p99 {:.2} ms (n={}), \
             generator late p99 {:.2} ms",
            p.replies as f64 / (p.span_ns.max(1) as f64 / 1e9),
            lat.p50,
            lat.p99,
            lat.n,
            Summary::of(&p.late_ms).p99
        ));
        acc.gen_late_ms.extend_from_slice(&p.late_ms);
        acc.in_flight_max = acc.in_flight_max.max(p.in_flight_max);
        if p.span_ns > 0 {
            acc.throughput_rps
                .push(p.replies as f64 / (p.span_ns as f64 / 1e9));
        }
        last = Some(rig.finish(acc, chk, true)?);
    }

    // Max-rate searches on a fresh set-up. The first starts at twice the
    // latency rounds' rate; each later one starts from the limit found
    // before it and widens from there, so every search brackets the limit
    // with trials of its own.
    let rseed = seed.wrapping_mul(31).wrapping_add(LATENCY_ROUNDS as u64);
    let mut rig = Rig::setup(rseed, tracer, acc)?;
    let trial_secs = (0.03 * seconds).max(1.0);
    let mut k = 0;
    let mut start = 2.0 * RATE_RPS;
    for _ in 0..SEARCHES {
        let limit = search(start, |rate| {
            k += 1;
            let p = rig.phase(rate, trial_secs, &mut gen, rseed ^ (k << 32), tracer)?;
            let pass = meets_limit(&p, rate, &mut acc.notes);
            if let Some(node) = last.take() {
                last = Some(node.recover(acc, RECOVERIES)?);
            }
            Ok(pass)
        })?;
        acc.notes
            .push(format!("max-rate search: limit {limit:.1}/s"));
        acc.max_rate_rps.push(limit);
        if limit > 0.0 {
            start = limit;
        }
    }
    rig.finish(acc, chk, false)?;
    Ok(())
}
