//! The clerk↔QM wire protocol over the simulated network.
//!
//! §5: "If the QM is remote from the client, then we assume that the clerk
//! invokes QM operations using remote procedure call." [`QmRpcServer`]
//! exposes a [`Repository`] on a bus endpoint; [`RemoteQm`] implements
//! [`QmApi`] by encoding each operation into a request envelope.
//!
//! Two transport choices from the paper are modelled:
//!
//! * `enqueue` is an acknowledged RPC — "when Send returns, the client knows
//!   that the request was stably stored";
//! * `enqueue_unacked` is a one-way message — the §5 optimization that
//!   "saves a message from the QM to the client in the common case that the
//!   reply arrives within the client's timeout period". A lost unacked
//!   enqueue is discovered by the client's Receive timing out, followed by
//!   connect-time resynchronization.
//!
//! Blocking dequeues park at the QM (§10's notify lock, served over RPC).
//! A `Dequeue` carries a server-side wait window. The RPC thread tries the
//! dequeue at once, so a backlog is served with no extra hop. When the
//! queue is empty and the window is open, it hands the call to a waiter
//! thread the server owns. The waiter sleeps on the queue's availability
//! version and answers the moment an element commits, or `Empty` when the
//! window closes. The RPC loop itself never blocks, so one slow client
//! never stalls the enqueues behind it. [`RemoteQm`] keeps each window
//! below its RPC timeout and asks again at once on `Empty` until the
//! caller's deadline passes: a receive costs one RPC, not a poll per tick.
//! Dropping the server's guard stops and joins every waiter.

use crate::api::QmApi;
use crate::error::{CoreError, CoreResult};
use crossbeam::channel::{unbounded, Receiver, Sender};
use rrq_net::rpc::{spawn_server, Answer, Responder, RpcClient, ServerGuard};
use rrq_net::NetworkBus;
use rrq_qm::element::{Eid, Element};
use rrq_qm::ops::{DequeueOptions, EnqueueOptions, QueueHandle};
use rrq_qm::registration::Registration;
use rrq_qm::repository::Repository;
use rrq_qm::QmError;
use rrq_storage::codec::{put, Decode, Encode, Reader};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const OP_REGISTER: u8 = 1;
const OP_DEREGISTER: u8 = 2;
const OP_ENQUEUE: u8 = 3;
const OP_DEQUEUE: u8 = 4;
const OP_READ: u8 = 5;
const OP_KILL: u8 = 6;
const OP_DEPTH: u8 = 7;

const ST_OK: u8 = 0;
const ST_ERR: u8 = 1;
const ST_EMPTY: u8 = 2;

/// How often a parked waiter checks whether its server is stopping. These
/// wake-ups only read the queue's availability version; a transaction
/// opens only once the version moves.
const STOP_CHECK: Duration = Duration::from_millis(50);

fn encode_enqueue_opts(buf: &mut Vec<u8>, opts: &EnqueueOptions) {
    put::u8(buf, opts.priority);
    put::u32(buf, opts.attrs.len() as u32);
    for (n, v) in &opts.attrs {
        put::string(buf, n);
        put::string(buf, v);
    }
    opts.tag.encode(buf);
}

fn decode_enqueue_opts(r: &mut Reader<'_>) -> CoreResult<EnqueueOptions> {
    let m = |e: rrq_storage::StorageError| CoreError::Malformed(e.to_string());
    let priority = r.u8().map_err(m)?;
    let n = r.u32().map_err(m)? as usize;
    let mut attrs = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        attrs.push((r.string().map_err(m)?, r.string().map_err(m)?));
    }
    let tag = Option::<Vec<u8>>::decode(r).map_err(m)?;
    Ok(EnqueueOptions {
        priority,
        attrs,
        tag,
    })
}

/// Serve a repository's queue operations on `endpoint_name`.
pub struct QmRpcServer;

impl QmRpcServer {
    /// Spawn the serving thread; the guard stops it on drop. Serves every
    /// partition of the repository (operations route internally).
    pub fn spawn(bus: &NetworkBus, endpoint_name: &str, repo: Arc<Repository>) -> ServerGuard {
        Self::spawn_scoped(bus, endpoint_name, repo, None)
    }

    /// Spawn a server for *one* repository partition: operations on queues
    /// the partition doesn't own are refused, and eid probes only consult
    /// the one partition. With one endpoint per partition, a network
    /// partition between a clerk and endpoint *i* severs exactly the queues
    /// partition *i* owns — the directional fault the explorer injects.
    pub fn spawn_partition(
        bus: &NetworkBus,
        endpoint_name: &str,
        repo: Arc<Repository>,
        part: usize,
    ) -> ServerGuard {
        Self::spawn_scoped(bus, endpoint_name, repo, Some(part))
    }

    fn spawn_scoped(
        bus: &NetworkBus,
        endpoint_name: &str,
        repo: Arc<Repository>,
        scope: Option<usize>,
    ) -> ServerGuard {
        let mut waiters = Waiters::new(Arc::clone(&repo));
        let reply_bus = bus.clone();
        spawn_server(bus, endpoint_name, move |env| {
            match handle(&repo, scope, &env.payload) {
                Ok(Served::Reply(out)) => Answer::Now(out),
                Ok(Served::Park(p)) => {
                    waiters.park(p, Responder::new(&reply_bus, env));
                    Answer::Later
                }
                Err(e) => Answer::Now(err_payload(&e)),
            }
        })
    }
}

/// What the RPC thread does with one request.
enum Served {
    /// Answer now.
    Reply(Vec<u8>),
    /// A dequeue found its queue empty with its wait window open: hand it
    /// to a waiter.
    Park(Parked),
}

/// A dequeue waiting at the server for its queue to gain an element.
struct Parked {
    handle: QueueHandle,
    tag: Option<Vec<u8>>,
    error_queue: Option<String>,
    /// The queue's availability version, sampled before the attempt that
    /// found it empty: an element committed since then has moved it.
    seen: u64,
    deadline: Instant,
}

/// The server's waiter threads. Each waits out one parked dequeue at a
/// time, then takes the next; a thread is added only when none is idle.
/// Dropping the pool stops and joins every thread, so no waiter outlives
/// its server or keeps the repository alive past it.
struct Waiters {
    repo: Arc<Repository>,
    jobs: Option<Sender<(Parked, Responder)>>,
    queue: Receiver<(Parked, Responder)>,
    /// Threads waiting for a job (or on their way back to wait) that no
    /// parked call has claimed yet.
    idle: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Waiters {
    fn new(repo: Arc<Repository>) -> Self {
        let (jobs, queue) = unbounded();
        Waiters {
            repo,
            jobs: Some(jobs),
            queue,
            idle: Arc::new(AtomicUsize::new(0)),
            stop: Arc::new(AtomicBool::new(false)),
            threads: Vec::new(),
        }
    }

    /// Hand `p` to an idle waiter, or to a new one when every waiter is
    /// busy: a parked call never queues behind another.
    fn park(&mut self, p: Parked, reply: Responder) {
        let claimed = self
            .idle
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok();
        if !claimed {
            let (repo, queue) = (Arc::clone(&self.repo), self.queue.clone());
            let (idle, stop) = (Arc::clone(&self.idle), Arc::clone(&self.stop));
            self.threads
                .push(crate::threads::spawn_named("qm-rpc-waiter", move || {
                    while let Ok((p, reply)) = queue.recv() {
                        let out = wait_out(&repo, p, &stop).unwrap_or_else(|e| err_payload(&e));
                        let _ = reply.send(out);
                        idle.fetch_add(1, Ordering::AcqRel);
                    }
                }));
        }
        rrq_obs::counter_inc("core.remote.parked");
        if let Some(jobs) = &self.jobs {
            let _ = jobs.send((p, reply));
        }
    }
}

impl Drop for Waiters {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.jobs = None; // idle waiters see the channel close
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Wait out one parked dequeue: sleep on the queue's availability version
/// and try again only once it moves. Answers `Empty` when the window
/// closes or the server stops.
fn wait_out(repo: &Repository, mut p: Parked, stop: &AtomicBool) -> CoreResult<Vec<u8>> {
    let qm = repo.qm_for(&p.handle.queue);
    loop {
        let now = Instant::now();
        if now >= p.deadline || stop.load(Ordering::Acquire) {
            return Ok(vec![ST_EMPTY]);
        }
        let slice = (p.deadline - now).min(STOP_CHECK);
        if qm.wait_available(&p.handle.queue, p.seen, slice) {
            p.seen = qm.availability(&p.handle.queue);
            if let Some(elem) = dequeue_now(repo, &p)? {
                return Ok(element_payload(&elem));
            }
        }
    }
}

/// One non-blocking autocommit dequeue; `None` when the queue is empty.
fn dequeue_now(repo: &Repository, p: &Parked) -> CoreResult<Option<Element>> {
    let q = &p.handle.queue;
    let res = repo.autocommit_on(q, |t| {
        repo.qm_for(q).dequeue(
            t.id().raw(),
            &p.handle,
            DequeueOptions {
                tag: p.tag.clone(),
                predicate: None,
                block: None,
                error_queue: p.error_queue.clone(),
            },
        )
    });
    match res {
        Ok(elem) => Ok(Some(elem)),
        Err(QmError::Empty(_)) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Refuse operations a partition-scoped endpoint doesn't own.
fn check_scope(repo: &Repository, scope: Option<usize>, queue: &str) -> CoreResult<()> {
    if let Some(p) = scope {
        let owner = repo.partition_of(queue);
        if owner != p {
            return Err(CoreError::Protocol(format!(
                "queue {queue} owned by partition {owner}, not {p}"
            )));
        }
    }
    Ok(())
}

fn ok_payload(body: impl FnOnce(&mut Vec<u8>)) -> Served {
    let mut out = vec![ST_OK];
    body(&mut out);
    Served::Reply(out)
}

fn element_payload(elem: &Element) -> Vec<u8> {
    let mut out = vec![ST_OK];
    elem.encode(&mut out);
    out
}

fn err_payload(e: &CoreError) -> Vec<u8> {
    let mut out = vec![ST_ERR];
    put::string(&mut out, &e.to_string());
    out
}

fn handle(repo: &Repository, scope: Option<usize>, raw: &[u8]) -> CoreResult<Served> {
    if raw.is_empty() {
        return Err(CoreError::Malformed("empty rpc payload".into()));
    }
    let m = |e: rrq_storage::StorageError| CoreError::Malformed(e.to_string());
    let mut r = Reader::new(&raw[1..]);
    match raw[0] {
        OP_REGISTER => {
            let queue = r.string().map_err(m)?;
            let registrant = r.string().map_err(m)?;
            let stable = r.bool().map_err(m)?;
            check_scope(repo, scope, &queue)?;
            let (_, reg) = repo.qm_for(&queue).register(&queue, &registrant, stable)?;
            Ok(ok_payload(|out| reg.encode(out)))
        }
        OP_DEREGISTER => {
            let queue = r.string().map_err(m)?;
            let registrant = r.string().map_err(m)?;
            check_scope(repo, scope, &queue)?;
            repo.qm_for(&queue)
                .deregister(&QueueHandle { queue, registrant })?;
            Ok(ok_payload(|_| {}))
        }
        OP_ENQUEUE => {
            let queue = r.string().map_err(m)?;
            let registrant = r.string().map_err(m)?;
            let payload = r.bytes().map_err(m)?;
            let opts = decode_enqueue_opts(&mut r)?;
            check_scope(repo, scope, &queue)?;
            let h = QueueHandle { queue, registrant };
            let eid = repo.autocommit_on(&h.queue, |t| {
                repo.qm_for(&h.queue)
                    .enqueue(t.id().raw(), &h, &payload, opts)
            })?;
            Ok(ok_payload(|out| put::u64(out, eid.raw())))
        }
        OP_DEQUEUE => {
            let queue = r.string().map_err(m)?;
            let registrant = r.string().map_err(m)?;
            let tag = Option::<Vec<u8>>::decode(&mut r).map_err(m)?;
            let error_queue = match r.u8().map_err(m)? {
                0 => None,
                _ => Some(r.string().map_err(m)?),
            };
            let wait = Duration::from_micros(r.u64().map_err(m)?);
            check_scope(repo, scope, &queue)?;
            let p = Parked {
                seen: repo.qm_for(&queue).availability(&queue),
                handle: QueueHandle { queue, registrant },
                tag,
                error_queue,
                deadline: Instant::now() + wait,
            };
            match dequeue_now(repo, &p)? {
                Some(elem) => Ok(Served::Reply(element_payload(&elem))),
                None if !wait.is_zero() => Ok(Served::Park(p)),
                None => Ok(Served::Reply(vec![ST_EMPTY])),
            }
        }
        OP_READ => {
            let eid = Eid(r.u64().map_err(m)?);
            let parts: Vec<usize> = match scope {
                Some(p) => vec![p],
                None => (0..repo.partitions()).collect(),
            };
            let mut last = QmError::NoSuchElement(eid.raw());
            for p in parts {
                match repo.qm_at(p).read(eid) {
                    Ok(elem) => return Ok(ok_payload(|out| elem.encode(out))),
                    Err(e) => last = e,
                }
            }
            Err(last.into())
        }
        OP_KILL => {
            let eid = Eid(r.u64().map_err(m)?);
            let parts: Vec<usize> = match scope {
                Some(p) => vec![p],
                None => (0..repo.partitions()).collect(),
            };
            let mut killed = false;
            for p in parts {
                if repo.qm_at(p).kill_element(eid)? {
                    killed = true;
                    break;
                }
            }
            Ok(ok_payload(|out| put::bool(out, killed)))
        }
        OP_DEPTH => {
            let queue = r.string().map_err(m)?;
            check_scope(repo, scope, &queue)?;
            let d = repo.qm_for(&queue).depth(&queue)?;
            Ok(ok_payload(|out| put::u64(out, d as u64)))
        }
        op => Err(CoreError::Malformed(format!("unknown opcode {op}"))),
    }
}

/// [`QmApi`] over the network.
pub struct RemoteQm {
    client: RpcClient,
    server: String,
    rpc_timeout: Duration,
}

impl RemoteQm {
    /// Build a remote handle speaking from `client_endpoint` to
    /// `server_endpoint`.
    pub fn new(bus: &NetworkBus, client_endpoint: &str, server_endpoint: &str) -> Self {
        RemoteQm {
            client: RpcClient::new(bus, client_endpoint),
            server: server_endpoint.to_string(),
            rpc_timeout: Duration::from_secs(2),
        }
    }

    /// Change the per-RPC timeout.
    pub fn set_rpc_timeout(&mut self, t: Duration) {
        self.rpc_timeout = t;
    }

    /// (rpc calls, one-way sends) counters — message-cost accounting for the
    /// §5 Send-mode experiment.
    pub fn message_counts(&self) -> (u64, u64) {
        self.client.counts()
    }

    fn call(&self, payload: Vec<u8>) -> CoreResult<Vec<u8>> {
        self.call_within(payload, self.rpc_timeout)
    }

    fn call_within(&self, payload: Vec<u8>, timeout: Duration) -> CoreResult<Vec<u8>> {
        let resp = self.client.call(&self.server, payload, timeout)?;
        parse_response(resp)
    }
}

fn parse_response(resp: Vec<u8>) -> CoreResult<Vec<u8>> {
    let m = |e: rrq_storage::StorageError| CoreError::Malformed(e.to_string());
    match resp.first() {
        Some(&ST_OK) => Ok(resp[1..].to_vec()),
        Some(&ST_EMPTY) => Err(CoreError::Qm(QmError::Empty("remote".into()))),
        Some(&ST_ERR) => {
            let mut r = Reader::new(&resp[1..]);
            Err(CoreError::Protocol(r.string().map_err(m)?))
        }
        _ => Err(CoreError::Malformed("empty rpc response".into())),
    }
}

impl QmApi for RemoteQm {
    fn register(&self, queue: &str, registrant: &str, stable: bool) -> CoreResult<Registration> {
        let mut buf = vec![OP_REGISTER];
        put::string(&mut buf, queue);
        put::string(&mut buf, registrant);
        put::bool(&mut buf, stable);
        let resp = self.call(buf)?;
        Registration::decode_all(&resp).map_err(|e| CoreError::Malformed(e.to_string()))
    }

    fn deregister(&self, queue: &str, registrant: &str) -> CoreResult<()> {
        let mut buf = vec![OP_DEREGISTER];
        put::string(&mut buf, queue);
        put::string(&mut buf, registrant);
        self.call(buf).map(|_| ())
    }

    fn enqueue(
        &self,
        queue: &str,
        registrant: &str,
        payload: &[u8],
        opts: EnqueueOptions,
    ) -> CoreResult<Eid> {
        let mut buf = vec![OP_ENQUEUE];
        put::string(&mut buf, queue);
        put::string(&mut buf, registrant);
        put::bytes(&mut buf, payload);
        encode_enqueue_opts(&mut buf, &opts);
        let resp = self.call(buf)?;
        let mut r = Reader::new(&resp);
        Ok(Eid(r
            .u64()
            .map_err(|e| CoreError::Malformed(e.to_string()))?))
    }

    fn enqueue_unacked(
        &self,
        queue: &str,
        registrant: &str,
        payload: &[u8],
        opts: EnqueueOptions,
    ) -> CoreResult<()> {
        let mut buf = vec![OP_ENQUEUE];
        put::string(&mut buf, queue);
        put::string(&mut buf, registrant);
        put::bytes(&mut buf, payload);
        encode_enqueue_opts(&mut buf, &opts);
        // One-way: no correlation id, no reply expected. The server will
        // compute a response and discard it.
        Ok(self.client.send_one_way(&self.server, buf)?)
    }

    fn dequeue(&self, queue: &str, registrant: &str, opts: DequeueOptions) -> CoreResult<Element> {
        let deadline = opts.block.map(|b| Instant::now() + b);
        loop {
            // The server may park the call for `wait`; half the RPC timeout
            // at most, so a parked call always answers before the caller
            // gives up on it.
            let wait = deadline.map_or(Duration::ZERO, |dl| {
                dl.saturating_duration_since(Instant::now())
                    .min(self.rpc_timeout / 2)
            });
            let mut buf = vec![OP_DEQUEUE];
            put::string(&mut buf, queue);
            put::string(&mut buf, registrant);
            opts.tag.encode(&mut buf);
            match &opts.error_queue {
                None => put::u8(&mut buf, 0),
                Some(q) => {
                    put::u8(&mut buf, 1);
                    put::string(&mut buf, q);
                }
            }
            put::u64(&mut buf, wait.as_micros() as u64);
            match self.call_within(buf, self.rpc_timeout + wait) {
                Ok(resp) => {
                    return Element::decode_all(&resp)
                        .map_err(|e| CoreError::Malformed(e.to_string()))
                }
                Err(CoreError::Qm(QmError::Empty(_)))
                    if deadline.is_some_and(|dl| Instant::now() < dl) => {}
                Err(CoreError::Qm(QmError::Empty(_))) => {
                    return Err(CoreError::Qm(QmError::Empty(queue.to_string())))
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn read(&self, eid: Eid) -> CoreResult<Element> {
        let mut buf = vec![OP_READ];
        put::u64(&mut buf, eid.raw());
        let resp = self.call(buf)?;
        Element::decode_all(&resp).map_err(|e| CoreError::Malformed(e.to_string()))
    }

    fn kill(&self, eid: Eid) -> CoreResult<bool> {
        let mut buf = vec![OP_KILL];
        put::u64(&mut buf, eid.raw());
        let resp = self.call(buf)?;
        let mut r = Reader::new(&resp);
        r.bool().map_err(|e| CoreError::Malformed(e.to_string()))
    }

    fn depth(&self, queue: &str) -> CoreResult<usize> {
        let mut buf = vec![OP_DEPTH];
        put::string(&mut buf, queue);
        let resp = self.call(buf)?;
        let mut r = Reader::new(&resp);
        Ok(r.u64().map_err(|e| CoreError::Malformed(e.to_string()))? as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (NetworkBus, Arc<Repository>, ServerGuard, RemoteQm) {
        let bus = NetworkBus::new(7);
        let repo = Arc::new(Repository::create("remote").unwrap());
        repo.create_queue_defaults("q").unwrap();
        let guard = QmRpcServer::spawn(&bus, "qm", Arc::clone(&repo));
        let remote = RemoteQm::new(&bus, "client", "qm");
        (bus, repo, guard, remote)
    }

    #[test]
    fn remote_roundtrip() {
        let (_bus, _repo, _guard, remote) = setup();
        remote.register("q", "c", true).unwrap();
        let eid = remote
            .enqueue("q", "c", b"over-the-wire", EnqueueOptions::default())
            .unwrap();
        assert_eq!(remote.depth("q").unwrap(), 1);
        assert_eq!(remote.read(eid).unwrap().payload, b"over-the-wire");
        let e = remote.dequeue("q", "c", DequeueOptions::default()).unwrap();
        assert_eq!(e.eid, eid);
        remote.deregister("q", "c").unwrap();
    }

    #[test]
    fn remote_empty_dequeue_reports_empty() {
        let (_bus, _repo, _guard, remote) = setup();
        remote.register("q", "c", false).unwrap();
        assert!(matches!(
            remote.dequeue("q", "c", DequeueOptions::default()),
            Err(CoreError::Qm(QmError::Empty(_)))
        ));
    }

    fn blocking(block: Duration) -> DequeueOptions {
        DequeueOptions {
            block: Some(block),
            ..Default::default()
        }
    }

    /// The receive parks at the server and is answered by the commit: one
    /// RPC, no polls.
    #[test]
    fn remote_blocking_dequeue_wakes_on_enqueue() {
        let (_bus, repo, _guard, remote) = setup();
        remote.register("q", "c", false).unwrap();
        let repo2 = Arc::clone(&repo);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            let (h, _) = repo2.qm().register("q", "late", false).unwrap();
            repo2
                .autocommit(|t| {
                    repo2
                        .qm()
                        .enqueue(t.id().raw(), &h, b"late", EnqueueOptions::default())
                })
                .unwrap();
        });
        let calls0 = remote.message_counts().0;
        let e = remote
            .dequeue("q", "c", blocking(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(e.payload, b"late");
        assert_eq!(remote.message_counts().0, calls0 + 1, "one RPC per receive");
        t.join().unwrap();
    }

    /// A parked dequeue does not hold up the RPC loop: an enqueue from
    /// another endpoint returns at once, and its element goes to the
    /// parked caller.
    #[test]
    fn parked_dequeue_does_not_delay_enqueue() {
        let (bus, _repo, _guard, remote) = setup();
        remote.register("q", "c", false).unwrap();
        let waiter =
            std::thread::spawn(move || remote.dequeue("q", "c", blocking(Duration::from_secs(5))));
        std::thread::sleep(Duration::from_millis(50)); // let the dequeue park
        let producer = RemoteQm::new(&bus, "producer", "qm");
        let t0 = Instant::now();
        producer.register("q", "p", false).unwrap();
        let eid = producer
            .enqueue("q", "p", b"handed-over", EnqueueOptions::default())
            .unwrap();
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "enqueue stalled behind the parked dequeue: {:?}",
            t0.elapsed()
        );
        let e = waiter.join().unwrap().unwrap();
        assert_eq!((e.eid, e.payload.as_slice()), (eid, &b"handed-over"[..]));
    }

    /// A block longer than the RPC timeout is served as several parked
    /// calls, each answered before its own timeout: the caller sees
    /// `Empty` at its deadline, never a network timeout.
    #[test]
    fn block_past_rpc_timeout_reports_empty_not_timeout() {
        let (_bus, _repo, _guard, mut remote) = setup();
        remote.set_rpc_timeout(Duration::from_millis(100));
        remote.register("q", "c", false).unwrap();
        let t0 = Instant::now();
        let r = remote.dequeue("q", "c", blocking(Duration::from_millis(500)));
        assert!(
            matches!(r, Err(CoreError::Qm(QmError::Empty(_)))),
            "got {r:?}"
        );
        assert!(t0.elapsed() >= Duration::from_millis(500));
    }

    /// Shutting the server down stops and joins its parked waiters: the
    /// drop is prompt, and nothing but the caller holds the repository.
    #[test]
    fn dropping_guard_joins_parked_waiters() {
        let (_bus, repo, guard, mut remote) = setup();
        remote.set_rpc_timeout(Duration::from_secs(1));
        remote.register("q", "c", false).unwrap();
        let _caller = std::thread::spawn(move || {
            let _ = remote.dequeue("q", "c", blocking(Duration::from_millis(400)));
        });
        std::thread::sleep(Duration::from_millis(50)); // let the dequeue park
        let t0 = Instant::now();
        drop(guard);
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "shutdown took {:?}",
            t0.elapsed()
        );
        assert_eq!(Arc::strong_count(&repo), 1, "a waiter outlived the server");
    }

    #[test]
    fn remote_unacked_enqueue_is_fire_and_forget() {
        let (_bus, repo, _guard, remote) = setup();
        remote.register("q", "c", false).unwrap();
        remote
            .enqueue_unacked("q", "c", b"silent", EnqueueOptions::default())
            .unwrap();
        // Give the server loop a moment.
        let deadline = Instant::now() + Duration::from_secs(2);
        while repo.qm().depth("q").unwrap() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(repo.qm().depth("q").unwrap(), 1);
        let (calls, one_ways) = remote.message_counts();
        assert_eq!((calls, one_ways), (1, 1)); // the register RPC + the one-way enqueue
    }

    #[test]
    fn remote_errors_propagate() {
        let (_bus, _repo, _guard, remote) = setup();
        let r = remote.register("missing-queue", "c", false);
        assert!(matches!(r, Err(CoreError::Protocol(_))));
    }

    #[test]
    fn partition_makes_calls_time_out() {
        let (bus, _repo, _guard, mut remote) = setup();
        remote.set_rpc_timeout(Duration::from_millis(50));
        bus.faults().partition_pair("client", "qm");
        assert!(matches!(
            remote.register("q", "c", false),
            Err(CoreError::Net(rrq_net::NetError::Timeout))
        ));
        bus.faults().heal_pair("client", "qm");
        remote.set_rpc_timeout(Duration::from_secs(2));
        assert!(remote.register("q", "c", false).is_ok());
    }
}
