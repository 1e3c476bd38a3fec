//! Pieces every workload shares: opening and crashing a repository, the
//! benchmark's own server loop, the traced handler and QM decorators, the
//! counters read from the program's public stats APIs, and the final audit.

use crate::check::{Checker, Tally};
use crate::trace::Tracer;
use rrq_core::api::QmApi;
use rrq_core::clerk::{Clerk, ClerkConfig};
use rrq_core::error::{CoreError, CoreResult};
use rrq_core::request::{Reply, ReplyStatus, Request};
use rrq_core::server::{Handler, HandlerError, Served, Server, ServerConfig, ServerStats};
use rrq_qm::element::{Eid, Element};
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::registration::Registration;
use rrq_qm::repository::{RepoDisks, RepoOptions, Repository};
use rrq_qm::retrieval::Predicate;
use rrq_qm::QmError;
use rrq_storage::codec::Decode;
use rrq_storage::disk::Disk;
use rrq_workload::arrivals::{SplitMix, ZipfSelector};
use rrq_workload::bank::{self, Transfer};
use std::cell::Cell;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The request queue every workload's servers drain.
pub const REQ: &str = "req";
/// Where requests that exhaust their retries are parked (§9).
pub const ERRQ: &str = "req.errors";
/// The one reply queue all logical clerks share.
pub const REPLY: &str = "reply.bench";
/// Logical clerks (distinct client ids) per workload.
pub const CLERKS: usize = 16;
/// Servers in the request pool.
pub const POOL: usize = 2;
/// Seed balance of every account, in cents.
pub const INITIAL: i64 = 1_000_000;
/// Longest a drain may take before its missing replies count as lost.
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// A repository together with the devices it runs on.
pub struct Node {
    /// The open repository.
    pub repo: Arc<Repository>,
    /// Its devices, kept to crash and reopen the same disks.
    disks: RepoDisks,
    opts: RepoOptions,
}

impl Node {
    /// Open a fresh repository, create the benchmark's queues and seed
    /// `accounts` bank accounts on the request queue's partition.
    pub fn create(opts: RepoOptions, accounts: u32) -> CoreResult<Node> {
        let disks = RepoDisks::new();
        let (repo, _) = Repository::open_with("bench", disks.clone(), opts.clone())?;
        repo.create_queue_defaults(REQ)?;
        repo.create_queue_defaults(REPLY)?;
        bank::seed_accounts_on(&repo, REQ, accounts, INITIAL)?;
        Ok(Node {
            repo: Arc::new(repo),
            disks,
            opts,
        })
    }

    /// Crash every device and reopen the repository on the same disks,
    /// `cycles` times in a row, recording each `open_with` wall time and
    /// replay count in `acc`. Callers stop their servers first.
    pub fn recover(self, acc: &mut crate::report::Acc, cycles: usize) -> CoreResult<Node> {
        let Node {
            mut repo,
            disks,
            opts,
        } = self;
        let mut ms = Vec::with_capacity(cycles);
        for _ in 0..cycles {
            drop(repo);
            disks.crash();
            let t = Instant::now();
            let (reopened, report) = Repository::open_with("bench", disks.clone(), opts.clone())?;
            let secs = t.elapsed().as_secs_f64();
            acc.recovery_s.push(secs);
            acc.replayed.push(report.replayed as f64);
            ms.push(format!("{:.1}", secs * 1e3));
            repo = Arc::new(reopened);
        }
        acc.notes.push(format!(
            "recovery: {} records replayed, open_with {} ms",
            acc.replayed.last().copied().unwrap_or(0.0),
            ms.join(" / ")
        ));
        Ok(Node { repo, disks, opts })
    }

    /// Checkpoint every partition; returns the wall time.
    pub fn checkpoint(&self) -> CoreResult<f64> {
        let t = Instant::now();
        self.repo.checkpoint()?;
        Ok(t.elapsed().as_secs_f64())
    }
}

/// Device and commit counters, summed over every WAL device of every
/// partition group plus the coordinator log, and over every partition's
/// store, so per-request figures stay right under any partitioning.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Device forces.
    pub syncs: u64,
    /// Bytes appended to the logs.
    pub wal_bytes: u64,
    /// Commits that asked the group-commit coordinator for durability.
    pub gc_requests: u64,
    /// Device syncs the coordinator issued for them.
    pub gc_groups: u64,
    /// Store transaction aborts.
    pub aborts: u64,
    /// Elements moved to an error queue.
    pub error_moves: u64,
}

impl Counters {
    /// Read every counter now.
    pub fn read(node: &Node) -> Counters {
        let mut c = Counters::default();
        let devices = node.disks.wal_groups.iter().flatten();
        for d in devices.chain(std::iter::once(&node.disks.coord)) {
            let s = d.stats();
            c.syncs += s.syncs;
            c.wal_bytes += s.bytes_appended;
        }
        for p in 0..node.repo.partitions() {
            let store = node.repo.store_at(p);
            let gc = store.group_commit_stats();
            c.gc_requests += gc.requests;
            c.gc_groups += gc.groups;
            c.aborts += store.txn_counts().1;
            c.error_moves += node.repo.qm_at(p).stats().error_moves;
        }
        c
    }

    /// Counts accumulated between `before` and `self`. Store counters
    /// restart with each repository incarnation, so callers only take
    /// deltas within one incarnation.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            syncs: self.syncs - before.syncs,
            wal_bytes: self.wal_bytes - before.wal_bytes,
            gc_requests: self.gc_requests - before.gc_requests,
            gc_groups: self.gc_groups - before.gc_groups,
            aborts: self.aborts - before.aborts,
            error_moves: self.error_moves - before.error_moves,
        }
    }

    /// Add another phase's counts.
    pub fn add(&mut self, o: &Counters) {
        self.syncs += o.syncs;
        self.wal_bytes += o.wal_bytes;
        self.gc_requests += o.gc_requests;
        self.gc_groups += o.gc_groups;
        self.aborts += o.aborts;
        self.error_moves += o.error_moves;
    }
}

/// Transfer generator: uniform or Zipf-skewed account choice, seeded.
pub struct Transfers {
    zipf: ZipfSelector,
    rng: SplitMix,
    accounts: u32,
}

impl Transfers {
    /// Transfers over `accounts` accounts with skew `theta` (0 = uniform).
    pub fn new(accounts: u32, theta: f64, seed: u64) -> Self {
        Transfers {
            zipf: ZipfSelector::new(accounts as usize, theta, seed),
            rng: SplitMix::new(seed ^ 0x5eed_cafe),
            accounts,
        }
    }

    /// The next transfer (distinct source and target, 1..=100 cents).
    pub fn next(&mut self) -> Transfer {
        let from = self.zipf.next() as u32;
        let mut to = self.zipf.next() as u32;
        if to == from {
            to = (from + 1 + self.rng.below(self.accounts as usize - 1) as u32) % self.accounts;
        }
        Transfer {
            from,
            to,
            amount: 1 + self.rng.below(100) as i64,
        }
    }
}

/// `CLERKS` connected clerks over `api`, all replying to [`REPLY`].
pub fn connect_clerks(api: Arc<dyn QmApi>) -> CoreResult<Vec<Clerk>> {
    (0..CLERKS)
        .map(|i| {
            let mut cfg = ClerkConfig::new(format!("c{i}"), REQ);
            cfg.reply_queue = REPLY.to_string();
            let clerk = Clerk::new(Arc::clone(&api), cfg);
            clerk.connect()?;
            Ok(clerk)
        })
        .collect()
}

/// Send request `serial` (1-based, unique in the run) from its clerk,
/// timing `Clerk::send` when traced.
pub fn send(clerks: &[Clerk], serial: u64, t: &Transfer, tracer: &Tracer) -> CoreResult<()> {
    let clerk = &clerks[serial as usize % clerks.len()];
    let rid = rrq_core::rid::Rid::new(clerk.config().client_id.clone(), serial);
    if !tracer.on() {
        return clerk.send("transfer", t.encode(), rid);
    }
    let id = tracer.open();
    let start = tracer.now();
    SEND_SPAN.with(|s| s.set(id));
    let r = clerk.send("transfer", t.encode(), rid);
    SEND_SPAN.with(|s| s.set(0));
    tracer.close(id, "core.clerk.send", 0, serial, start);
    tracer.sample("core.clerk.send_us", (tracer.now() - start) as f64 / 1e3);
    r
}

thread_local! {
    /// Open `core.clerk.send` span on this thread (0 = none).
    static SEND_SPAN: Cell<u64> = const { Cell::new(0) };
    /// Open `core.server.run_once` span on this thread (0 = none).
    static RUN_SPAN: Cell<u64> = const { Cell::new(0) };
    /// Handler ns and rid serial of the current `run_once` on this thread.
    static HANDLED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A [`QmApi`] decorator that times `enqueue` into `series`. Used only in
/// traced runs.
pub struct TimedQm {
    inner: Arc<dyn QmApi>,
    tracer: Arc<Tracer>,
    series: &'static str,
}

impl TimedQm {
    /// Wrap `inner`; enqueue spans and samples go under `series`.
    pub fn new(inner: Arc<dyn QmApi>, tracer: Arc<Tracer>, series: &'static str) -> Self {
        TimedQm {
            inner,
            tracer,
            series,
        }
    }
}

impl QmApi for TimedQm {
    fn register(&self, queue: &str, registrant: &str, stable: bool) -> CoreResult<Registration> {
        self.inner.register(queue, registrant, stable)
    }

    fn deregister(&self, queue: &str, registrant: &str) -> CoreResult<()> {
        self.inner.deregister(queue, registrant)
    }

    fn enqueue(
        &self,
        queue: &str,
        registrant: &str,
        payload: &[u8],
        opts: EnqueueOptions,
    ) -> CoreResult<Eid> {
        let rid = opts
            .attrs
            .iter()
            .find(|(k, _)| k == "rid")
            .and_then(|(_, v)| rrq_core::rid::Rid::from_attr(v))
            .map_or(0, |r| r.serial);
        let start = self.tracer.now();
        let r = self.inner.enqueue(queue, registrant, payload, opts);
        let parent = SEND_SPAN.with(|s| s.get());
        self.tracer.span(self.series, parent, rid, start);
        self.tracer
            .sample(self.series, (self.tracer.now() - start) as f64 / 1e3);
        r
    }

    fn enqueue_unacked(
        &self,
        queue: &str,
        registrant: &str,
        payload: &[u8],
        opts: EnqueueOptions,
    ) -> CoreResult<()> {
        self.inner.enqueue_unacked(queue, registrant, payload, opts)
    }

    fn dequeue(&self, queue: &str, registrant: &str, opts: DequeueOptions) -> CoreResult<Element> {
        self.inner.dequeue(queue, registrant, opts)
    }

    fn read(&self, eid: Eid) -> CoreResult<Element> {
        self.inner.read(eid)
    }

    fn kill(&self, eid: Eid) -> CoreResult<bool> {
        self.inner.kill(eid)
    }

    fn depth(&self, queue: &str) -> CoreResult<usize> {
        self.inner.depth(queue)
    }
}

/// The request handler: `bank::single_txn_handler` as is, or, traced, a
/// wrapper that first takes the transfer's two account locks itself (same
/// order as the handler; the locks are re-entrant) to time the lock wait,
/// then delegates to the unchanged handler.
pub fn handler(tracer: &Arc<Tracer>) -> Handler {
    let inner = bank::single_txn_handler();
    if !tracer.on() {
        return inner;
    }
    let tracer = Arc::clone(tracer);
    Arc::new(move |ctx, req| {
        let id = tracer.open();
        let start = tracer.now();
        let rid = req.rid.serial;
        let locked = Transfer::decode(&req.body).map_or(Ok(()), |t| {
            [t.from, t.to].into_iter().try_for_each(|acct| {
                let s = tracer.now();
                let r = ctx.txn.lock_exclusive(&bank::account_lock_key(acct));
                tracer.span("txn.lock_wait", id, rid, s);
                tracer.sample("txn.lock_wait_us", (tracer.now() - s) as f64 / 1e3);
                r.map_err(|e| HandlerError::Abort(e.to_string()))
            })
        });
        let out = locked.and_then(|()| inner(ctx, req));
        let parent = RUN_SPAN.with(|s| s.get());
        tracer.close(id, "core.server.handler", parent, rid, start);
        let ns = tracer.now() - start;
        tracer.sample("core.server.handler_us", ns as f64 / 1e3);
        HANDLED.with(|h| h.set((ns, rid)));
        out
    })
}

/// What one server loop did.
#[derive(Debug, Default)]
pub struct LoopOut {
    /// `run_once` calls.
    pub calls: u64,
    /// Calls that found nothing to do.
    pub idle: u64,
    /// Replies committed, in ns since the pool's release instant.
    pub done_at_ns: Vec<u64>,
    /// Errors other than an empty queue (first few).
    pub errors: Vec<String>,
}

/// A running server pool plus the error-queue reaper.
pub struct Pool {
    stop: Arc<AtomicBool>,
    replies: Arc<AtomicU64>,
    servers: Vec<Arc<Server>>,
    handles: Vec<JoinHandle<LoopOut>>,
    reaper: JoinHandle<LoopOut>,
}

/// Pool totals after it stopped.
#[derive(Debug, Default)]
pub struct PoolOut {
    /// Request servers' counters, summed.
    pub stats: ServerStats,
    /// Request servers' loops, merged.
    pub servers: LoopOut,
    /// The reaper's loop.
    pub reaper: LoopOut,
}

impl PoolOut {
    /// Every reply commit time (servers and reaper), ns since release.
    pub fn done_at_ns(&self) -> Vec<u64> {
        let mut all = self.servers.done_at_ns.clone();
        all.extend_from_slice(&self.reaper.done_at_ns);
        all.sort_unstable();
        all
    }

    /// First few loop errors.
    pub fn errors(&self) -> Vec<String> {
        let mut e = self.servers.errors.clone();
        e.extend(self.reaper.errors.iter().cloned());
        e
    }
}

impl Pool {
    /// Start [`POOL`] request servers and a `failed_reply_reaper` on
    /// [`ERRQ`]. Loops stop by themselves once `limit` replies (from either)
    /// have committed, or when [`Pool::stop`] is called.
    pub fn start(repo: &Arc<Repository>, tracer: &Arc<Tracer>, limit: u64) -> CoreResult<Pool> {
        let stop = Arc::new(AtomicBool::new(false));
        let replies = Arc::new(AtomicU64::new(0));
        let h = handler(tracer);
        let servers: Vec<Arc<Server>> = (0..POOL)
            .map(|i| {
                let cfg = ServerConfig::new(format!("server-{i}"), REQ);
                Server::new(Arc::clone(repo), cfg, Arc::clone(&h))
            })
            .collect::<CoreResult<_>>()?;
        let reaper = Server::failed_reply_reaper(Arc::clone(repo), "reaper", ERRQ)?;
        // Reply commit times count from here, the instant the pool is let
        // loose on the queue.
        let release = Instant::now();
        let spawn = |s: &Arc<Server>, timed: bool| {
            let (s, stop, replies, tracer) = (
                Arc::clone(s),
                Arc::clone(&stop),
                Arc::clone(&replies),
                Arc::clone(tracer),
            );
            rrq_core::threads::spawn_named("bench-server", move || {
                serve(&s, &stop, &replies, limit, &tracer, timed, release)
            })
        };
        let handles = servers.iter().map(|s| spawn(s, true)).collect();
        let reaper = spawn(&reaper, false);
        Ok(Pool {
            stop,
            replies,
            servers,
            handles,
            reaper,
        })
    }

    /// Replies committed so far.
    pub fn replies(&self) -> u64 {
        self.replies.load(Ordering::Acquire)
    }

    /// Wait until `limit` replies have committed or `deadline` passes.
    /// Drain times come from the servers' own commit stamps, so a coarse
    /// poll here costs no accuracy and steals little CPU from them.
    pub fn wait(&self, limit: u64, deadline: Duration) -> bool {
        let until = Instant::now() + deadline;
        while self.replies() < limit {
            if Instant::now() >= until {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    /// Stop every loop and join it.
    pub fn stop(self) -> PoolOut {
        self.stop.store(true, Ordering::Release);
        let mut out = PoolOut::default();
        for (s, h) in self.servers.iter().zip(self.handles) {
            let l = h.join().expect("server loop panicked");
            let st = s.stats();
            out.stats.committed += st.committed;
            out.stats.aborted += st.aborted;
            out.stats.rolled += st.rolled;
            out.servers.calls += l.calls;
            out.servers.idle += l.idle;
            out.servers.done_at_ns.extend(l.done_at_ns);
            out.servers.errors.extend(l.errors);
        }
        out.reaper = self.reaper.join().expect("reaper loop panicked");
        out
    }
}

/// The benchmark's own server loop around `Server::run_once`.
fn serve(
    server: &Server,
    stop: &AtomicBool,
    replies: &AtomicU64,
    limit: u64,
    tracer: &Tracer,
    timed: bool,
    release: Instant,
) -> LoopOut {
    let mut out = LoopOut::default();
    let traced = timed && tracer.on();
    while !stop.load(Ordering::Acquire) && replies.load(Ordering::Acquire) < limit {
        let (id, start) = if traced {
            HANDLED.with(|h| h.set((0, 0)));
            let id = tracer.open();
            RUN_SPAN.with(|s| s.set(id));
            (id, tracer.now())
        } else {
            (0, 0)
        };
        let r = server.run_once();
        out.calls += 1;
        let idle = matches!(r, Ok(Served::Idle));
        match r {
            Ok(Served::Committed) => {
                replies.fetch_add(1, Ordering::AcqRel);
                out.done_at_ns.push(release.elapsed().as_nanos() as u64);
            }
            Ok(Served::Idle) => out.idle += 1,
            Ok(Served::Aborted | Served::Rolled) => {}
            Err(e) => {
                if out.errors.len() < 5 {
                    out.errors.push(e.to_string());
                }
                if !matches!(e, CoreError::Malformed(_)) {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        if traced && !idle {
            let (handler_ns, rid) = HANDLED.with(|h| h.get());
            tracer.close(id, "core.server.run_once", 0, rid, start);
            let ns = tracer.now() - start;
            tracer.sample("core.server.run_once_us", ns as f64 / 1e3);
            tracer.sample(
                "core.server.self_us",
                ns.saturating_sub(handler_ns) as f64 / 1e3,
            );
        }
    }
    out
}

/// [`CLERKS`] clerks over an in-process `LocalQm` on `node` (its enqueues
/// timed as `qm.enqueue_us` when traced).
pub fn local_clerks(node: &Node, tracer: &Arc<Tracer>) -> CoreResult<Vec<Clerk>> {
    let local: Arc<dyn QmApi> = Arc::new(rrq_core::api::LocalQm::new(Arc::clone(&node.repo)));
    let api: Arc<dyn QmApi> = if tracer.on() {
        Arc::new(TimedQm::new(local, Arc::clone(tracer), "qm.enqueue_us"))
    } else {
        local
    };
    connect_clerks(api)
}

/// Fill the request queue with one transfer per serial in `serials`.
/// Returns the serials sent, all acknowledged.
pub fn fill(
    clerks: &[Clerk],
    serials: RangeInclusive<u64>,
    gen: &mut Transfers,
    tracer: &Tracer,
) -> CoreResult<Vec<u64>> {
    serials
        .map(|serial| send(clerks, serial, &gen.next(), tracer).map(|()| serial))
        .collect()
}

/// Decoded contents of the benchmark's queues.
#[derive(Debug, Default)]
pub struct QueueContents {
    /// `(serial, is_ok)` for every reply element in [`REPLY`].
    pub replies: Vec<(u64, bool)>,
    /// Serials of requests still in [`REQ`].
    pub queued: Vec<u64>,
    /// Serials of requests parked in [`ERRQ`].
    pub parked: Vec<u64>,
}

impl QueueContents {
    /// Read every queue without modifying it.
    pub fn read(repo: &Repository) -> CoreResult<QueueContents> {
        let live = |q: &str| -> CoreResult<Vec<Element>> {
            match repo.qm_for(q).query(q, &Predicate::True) {
                Ok(v) => Ok(v),
                Err(QmError::NoSuchQueue(_)) => Ok(Vec::new()),
                Err(e) => Err(e.into()),
            }
        };
        let malformed = |e: rrq_storage::StorageError| CoreError::Malformed(e.to_string());
        let requests = |q: &str| -> CoreResult<Vec<u64>> {
            live(q)?
                .iter()
                .map(|e| Request::decode_all(&e.payload).map(|r| r.rid.serial))
                .collect::<Result<_, _>>()
                .map_err(malformed)
        };
        let replies = live(REPLY)?
            .iter()
            .map(|e| {
                Reply::decode_all(&e.payload).map(|r| (r.rid.serial, r.status == ReplyStatus::Ok))
            })
            .collect::<Result<_, _>>()
            .map_err(malformed)?;
        Ok(QueueContents {
            replies,
            queued: requests(REQ)?,
            parked: requests(ERRQ)?,
        })
    }
}

/// The audit every workload ends with: exactly-once over `sent`, given the
/// replies a collector already took (`taken`) plus whatever the queues
/// still hold; money conservation; one clearinghouse entry per OK reply.
pub fn audit(
    chk: &mut Checker,
    node: &Node,
    accounts: u32,
    sent: &[u64],
    taken: &[(u64, bool)],
) -> CoreResult<Tally> {
    let q = QueueContents::read(&node.repo)?;
    chk.require(q.queued.is_empty(), || {
        format!("{} requests still queued after the drain", q.queued.len())
    });
    let mut replies = taken.to_vec();
    replies.extend_from_slice(&q.replies);
    let tally = chk.replies(sent, &replies, &q.parked);
    chk.money(
        INITIAL * i64::from(accounts),
        bank::total_money(&node.repo, accounts)?,
    );
    let ok_replies = replies.iter().filter(|r| r.1).count();
    chk.clearing(ok_replies, bank::clearing_count(&node.repo)?);
    Ok(tally)
}
