//! The queue manager's data-manipulation operations (Fig 3) and its role as
//! a two-phase-commit participant.
//!
//! ## Transactional semantics (§4.2)
//!
//! Every operation runs under a transaction token issued by
//! [`rrq_txn::TxnManager`]; the manager itself implements
//! [`rrq_txn::ResourceManager`], so queue updates commit or abort atomically
//! with whatever else the transaction did. The key behaviours:
//!
//! * An **aborted dequeue returns the element to its queue** — automatic,
//!   because uncommitted deletes never touch the committed tree.
//! * On the **n-th aborted dequeue** of an element, the abort handler moves
//!   it to the queue's *error queue* (with the abort code recorded), which is
//!   what guarantees a poisoned request cannot cyclically restart a server
//!   forever (§5's termination argument).
//! * A **dequeued element is retained** (keyed by eid) until purged, so
//!   `Read` works "even if the last operation was a Dequeue" (§4.3) — the
//!   basis of the clerk's `Rereceive`.
//!
//! ## Concurrency (§10)
//!
//! Dequeue scans the queue in priority-then-FIFO order and write-locks the
//! element it takes. In [`OrderingMode::SkipLocked`] the scan ignores
//! elements locked by concurrent uncommitted dequeuers (the paper's relaxed
//! ordering, trading strict FIFO for concurrency); in
//! [`OrderingMode::StrictFifo`] it blocks behind the head element's lock.
//! Blocking dequeue on an empty queue uses the [`crate::notify`] versioning
//! — the paper's "notify lock".

use crate::element::{Eid, Element, Priority};
use crate::error::{QmError, QmResult};
use crate::keys;
use crate::meta::{OrderingMode, QueueMeta};
use crate::notify::QueueNotifier;
use crate::qindex::QueueIndex;
use crate::registration::{LastOp, Registration};
use crate::retrieval::Predicate;
use crate::trigger::Trigger;
use parking_lot::{Mutex, MutexGuard};
use rrq_storage::codec::{put, Decode, Encode, Reader};
use rrq_storage::kv::KvStore;
use rrq_txn::{
    LockKey, LockManager, LockMode, ResourceManager, TxnError, TxnId, TxnIdGen, TxnResult,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `queue → ordered (element key, eid)` — the shape in which both the ready
/// index ([`QueueManager::index_snapshot`]) and a ground-truth storage scan
/// ([`QueueManager::index_from_scan`]) report the committed element keyspace,
/// so equivalence checks can compare them directly.
pub type IndexSnapshot = BTreeMap<String, Vec<(Vec<u8>, Eid)>>;

/// Identifies a registered (queue, registrant) binding — the `handle`
/// returned by `Register` in Fig 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueHandle {
    /// Queue name.
    pub queue: String,
    /// Registrant name.
    pub registrant: String,
}

/// Options for [`QueueManager::enqueue`].
#[derive(Debug, Clone, Default)]
pub struct EnqueueOptions {
    /// Scheduling priority (higher dequeues first).
    pub priority: Priority,
    /// Content attributes for predicate retrieval.
    pub attrs: Vec<(String, String)>,
    /// Registrant-defined operation tag (§4.3), recorded atomically with the
    /// operation in the registrant's stable registration record.
    pub tag: Option<Vec<u8>>,
}

/// Options for [`QueueManager::dequeue`].
#[derive(Debug, Clone, Default)]
pub struct DequeueOptions {
    /// Operation tag (§4.3).
    pub tag: Option<Vec<u8>>,
    /// Only elements matching this predicate are candidates.
    pub predicate: Option<Predicate>,
    /// Block up to this long when no candidate is available.
    pub block: Option<Duration>,
    /// Route to this error queue instead of the queue's default (`eh` in
    /// Fig 3's Dequeue).
    pub error_queue: Option<String>,
}

/// Operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QmStats {
    /// Committed-path enqueue calls.
    pub enqueues: u64,
    /// Successful dequeue calls.
    pub dequeues: u64,
    /// Read calls.
    pub reads: u64,
    /// Elements skipped because a concurrent dequeuer held their lock.
    pub lock_skips: u64,
    /// Dequeues undone by transaction aborts.
    pub aborted_dequeues: u64,
    /// Elements moved to an error queue.
    pub error_moves: u64,
    /// KillElement calls that cancelled an element.
    pub kills: u64,
    /// Alert-threshold crossings observed at commit.
    pub alerts: u64,
    /// Triggers fired.
    pub triggers_fired: u64,
}

/// A dequeue performed by a still-open transaction.
#[derive(Debug, Clone)]
struct DequeuedRef {
    queue: String,
    elem_key: Vec<u8>,
    eid: Eid,
    /// Error-queue override from the Dequeue call.
    error_queue: Option<String>,
    /// Logical tick at which the element lock was taken (metrics only: the
    /// hold time ends when the owning transaction commits or aborts).
    grabbed_at: u64,
}

/// Outcome of trying to take one dequeue candidate under its element lock.
enum Grab {
    /// Locked, validated, and removed — the dequeue succeeded.
    Taken(Element),
    /// The element vanished between selection and locking.
    Gone,
    /// A kill tombstone is racing; leave the element for its cancel.
    Tombstoned,
    /// The element lock is held by a concurrent dequeuer.
    Busy,
}

/// An enqueue performed by a still-open transaction — enough to make the
/// element visible to the ready index when the transaction commits, and to
/// the transaction's *own* dequeues before then.
#[derive(Debug, Clone)]
struct EnqueuedRef {
    queue: String,
    elem_key: Vec<u8>,
    eid: Eid,
}

#[derive(Debug, Default)]
struct PendingTxn {
    dequeued: Vec<DequeuedRef>,
    enqueued: Vec<EnqueuedRef>,
    enqueued_queues: HashSet<String>,
    /// Set by KillElement when this transaction holds a cancelled element:
    /// the transaction must abort (§7).
    poisoned: Option<Eid>,
    /// Marked by the planned executor (`mark_planned`): commit defers both
    /// durability (the WAL force) and the ready-index/notification mirror to
    /// the epoch close (`apply_epoch`), so speculative results stay
    /// invisible to clerks until the whole epoch is durable.
    planned: bool,
}

/// The queue manager for one repository.
pub struct QueueManager {
    name: String,
    durable: Arc<KvStore>,
    volatile: Arc<KvStore>,
    locks: Arc<LockManager>,
    notifier: QueueNotifier,
    /// Open-transaction bookkeeping, striped by transaction id so concurrent
    /// servers enlisting different transactions don't share one mutex. Each
    /// access touches exactly one stripe; the kill-element poison scan walks
    /// the stripes one at a time (never two guards at once — the `qm-pending`
    /// class in LOCKS.md, enforced by the rrq-analyze `lock-order` rule).
    pending: Box<[Mutex<HashMap<u64, PendingTxn>>]>,
    /// Committed ready-lists per queue — the dequeue/depth hot path. Kept in
    /// lock-step with the stores at commit/abort/kill/destroy boundaries and
    /// rebuilt from a storage scan on restart.
    qindex: QueueIndex,
    /// When false, dequeue and depth fall back to paging the element
    /// keyspace (the pre-index path, kept for benchmarks and verification).
    use_index: AtomicBool,
    /// Ids for internal system transactions (registration writes, abort-count
    /// maintenance). High floor keeps them disjoint from user transactions.
    sys_ids: TxnIdGen,
    epoch: u64,
    counter: AtomicU64,
    ns_map: Mutex<HashMap<String, u32>>,
    next_ns: AtomicU32,
    stats: Mutex<QmStats>,
    /// Queues whose alert threshold was crossed (drained by `take_alerts`).
    alerts: Mutex<Vec<String>>,
    /// Committed-but-unapplied effect mirrors of planned transactions,
    /// buffered until the epoch force (`apply_epoch`). Volatile by design:
    /// a crash mid-epoch drops the buffer along with the (unforced)
    /// commits it mirrors, and recovery rebuilds the index from storage.
    epoch_buf: Mutex<Vec<PendingTxn>>,
}

/// How many candidates a dequeue scan decodes per storage page.
const SCAN_PAGE: usize = 64;

/// Default stripe count for the pending-transaction map; matches the lock
/// manager's default. `with_shards(.., 1)` restores the single-mutex
/// behaviour for baselines and differential tests.
pub const DEFAULT_PENDING_SHARDS: usize = 16;

impl QueueManager {
    /// Build a manager over a durable store and a volatile store, sharing the
    /// node's lock manager, with the default pending-map stripe count.
    pub fn new(
        name: impl Into<String>,
        durable: Arc<KvStore>,
        volatile: Arc<KvStore>,
        locks: Arc<LockManager>,
    ) -> QmResult<Arc<Self>> {
        Self::with_shards(name, durable, volatile, locks, DEFAULT_PENDING_SHARDS)
    }

    /// Build a manager striping the pending-transaction map `shards` ways
    /// (`shards >= 1`). Bumps and persists the repository epoch (element
    /// ids and sequence numbers from this incarnation sort after every
    /// earlier one).
    pub fn with_shards(
        name: impl Into<String>,
        durable: Arc<KvStore>,
        volatile: Arc<KvStore>,
        locks: Arc<LockManager>,
        shards: usize,
    ) -> QmResult<Arc<Self>> {
        Self::with_shards_base(name, durable, volatile, locks, shards, 0)
    }

    /// [`Self::with_shards`] with an epoch *band*: a fresh store starts its
    /// epoch at `epoch_base + 1` instead of `1`. Repository partition *p*
    /// passes `p << 20`, which keeps element ids — `(epoch << 40) | counter`
    /// — disjoint across every partition of a cluster (2^20 restarts per
    /// partition before bands could meet), so an eid names its element
    /// cluster-wide and `Read`/`KillElement` can safely probe partitions.
    /// `epoch_base = 0` is bit-for-bit the single-partition baseline.
    pub fn with_shards_base(
        name: impl Into<String>,
        durable: Arc<KvStore>,
        volatile: Arc<KvStore>,
        locks: Arc<LockManager>,
        shards: usize,
        epoch_base: u64,
    ) -> QmResult<Arc<Self>> {
        let sys_ids = TxnIdGen::new(1 << 56);
        // Bump the epoch in a system transaction.
        let t = sys_ids.next().raw();
        durable.begin(t)?;
        let epoch = match durable.get(Some(t), &keys::epoch_key())? {
            Some(raw) => u64::decode_all(&raw).map_err(QmError::Storage)? + 1,
            None => epoch_base + 1,
        };
        durable.put(t, &keys::epoch_key(), &epoch.encode_to_vec())?;
        durable.commit(t)?;

        // Rebuild the ready index from the committed element keyspace. The
        // caller resolves in-doubt transactions before constructing the
        // manager, so `scan_prefix(None, ..)` is exactly the post-recovery
        // committed truth. (The volatile store is empty after a restart.)
        let qindex = QueueIndex::new();
        for store in [&durable, &volatile] {
            for (k, raw) in store.scan_prefix(None, b"e/")? {
                let Some(queue) = keys::parse_element_key(&k) else {
                    continue;
                };
                let elem = Element::decode_all(&raw).map_err(QmError::Storage)?;
                qindex.insert(queue, k.clone(), elem.eid);
                rrq_obs::counter_inc("qm.recovery.index_rebuild");
            }
        }

        Ok(Arc::new(QueueManager {
            name: name.into(),
            durable,
            volatile,
            locks,
            notifier: QueueNotifier::new(),
            pending: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            qindex,
            use_index: AtomicBool::new(true),
            sys_ids,
            epoch,
            counter: AtomicU64::new(0),
            ns_map: Mutex::new(HashMap::new()),
            next_ns: AtomicU32::new(1),
            stats: Mutex::new(QmStats::default()),
            alerts: Mutex::new(Vec::new()),
            epoch_buf: Mutex::new(Vec::new()),
        }))
    }

    /// This manager's participant name.
    pub fn qm_name(&self) -> &str {
        &self.name
    }

    /// The repository epoch of this incarnation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The stripe of the pending map that owns `txn`'s bookkeeping.
    fn pending_shard(&self, txn: u64) -> MutexGuard<'_, HashMap<u64, PendingTxn>> {
        self.pending_shard_at(txn as usize % self.pending.len())
    }

    /// Acquire stripe `i` of the pending map, counting contended
    /// acquisitions (one extra CAS on the uncontended path; the metrics are
    /// no-ops unless a Session is installed).
    fn pending_shard_at(&self, i: usize) -> MutexGuard<'_, HashMap<u64, PendingTxn>> {
        let m = &self.pending[i];
        if let Some(g) = m.try_lock() {
            return g;
        }
        rrq_obs::counter_inc("qm.pending.shard.contended");
        let start = rrq_obs::now();
        let g = m.lock();
        rrq_obs::observe(
            "qm.pending.shard.acquire_wait_ticks",
            rrq_obs::now().saturating_sub(start),
        );
        g
    }

    /// Counter snapshot.
    pub fn stats(&self) -> QmStats {
        *self.stats.lock()
    }

    /// Drain the queue names whose alert thresholds were crossed since the
    /// last call (§9 "alert thresholds").
    pub fn take_alerts(&self) -> Vec<String> {
        std::mem::take(&mut *self.alerts.lock())
    }

    /// The shared lock manager.
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    fn ns_of(&self, queue: &str) -> u32 {
        let mut g = self.ns_map.lock();
        if let Some(&n) = g.get(queue) {
            return n;
        }
        let n = self.next_ns.fetch_add(1, Ordering::AcqRel);
        g.insert(queue.to_string(), n);
        n
    }

    fn next_eid(&self) -> (Eid, u64) {
        let c = self.counter.fetch_add(1, Ordering::AcqRel);
        let eid = Eid::compose(self.epoch, c);
        // The same epoch-qualified counter doubles as the FIFO sequence.
        (eid, eid.raw())
    }

    fn store_for(&self, meta: &QueueMeta) -> &Arc<KvStore> {
        if meta.durable {
            &self.durable
        } else {
            &self.volatile
        }
    }

    /// Run `f` inside a fresh system transaction on the durable store.
    fn system_txn<R>(&self, f: impl FnOnce(u64) -> QmResult<R>) -> QmResult<R> {
        let t = self.sys_ids.next().raw();
        self.durable.begin(t)?;
        match f(t) {
            Ok(r) => {
                self.durable.commit(t)?;
                Ok(r)
            }
            Err(e) => {
                let _ = self.durable.abort(t);
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // Data definition (§4.1)
    // ------------------------------------------------------------------

    /// Create a queue. Its error queue is created lazily on first use.
    pub fn create_queue(&self, meta: QueueMeta) -> QmResult<()> {
        self.system_txn(|t| {
            let key = keys::meta_key(&meta.name);
            if self.durable.get(Some(t), &key)?.is_some() {
                return Err(QmError::QueueExists(meta.name.clone()));
            }
            self.durable.put(t, &key, &meta.encode_to_vec())?;
            Ok(())
        })
    }

    /// Fetch a queue's metadata.
    pub fn queue_meta(&self, queue: &str) -> QmResult<QueueMeta> {
        match self.durable.get(None, &keys::meta_key(queue))? {
            Some(raw) => Ok(QueueMeta::decode_all(&raw).map_err(QmError::Storage)?),
            None => Err(QmError::NoSuchQueue(queue.to_string())),
        }
    }

    /// Update a queue's metadata in place (start/stop, redirect, thresholds…).
    pub fn update_queue(&self, queue: &str, f: impl FnOnce(&mut QueueMeta)) -> QmResult<QueueMeta> {
        self.system_txn(|t| {
            let key = keys::meta_key(queue);
            let raw = self
                .durable
                .get(Some(t), &key)?
                .ok_or_else(|| QmError::NoSuchQueue(queue.to_string()))?;
            let mut meta = QueueMeta::decode_all(&raw).map_err(QmError::Storage)?;
            f(&mut meta);
            meta.name = queue.to_string(); // the name is immutable
            self.durable.put(t, &key, &meta.encode_to_vec())?;
            Ok(meta)
        })
    }

    /// Destroy a queue and all of its live elements and registrations.
    pub fn destroy_queue(&self, queue: &str) -> QmResult<()> {
        let meta = self.queue_meta(queue)?;
        let store = Arc::clone(self.store_for(&meta));
        let r = self.system_txn(|t| {
            // Volatile elements live in the other store; handle both.
            if !meta.durable {
                store.begin(t).ok(); // may double-begin if same store
            }
            let rows = self
                .durable
                .scan_prefix(Some(t), &keys::element_prefix(queue))?;
            for (k, _) in rows {
                self.durable.delete(t, &k)?;
            }
            if !meta.durable {
                let vrows = store.scan_prefix(None, &keys::element_prefix(queue))?;
                for (k, _) in vrows {
                    store.delete(t, &k)?;
                }
                store.commit(t).ok();
            }
            let regs = self
                .durable
                .scan_prefix(Some(t), format!("r/{queue}/").as_bytes())?;
            for (k, _) in regs {
                self.durable.delete(t, &k)?;
            }
            self.durable.delete(t, &keys::meta_key(queue))?;
            Ok(())
        });
        if r.is_ok() {
            self.qindex.clear_queue(queue);
        }
        r
    }

    /// List all queue names in the repository.
    pub fn list_queues(&self) -> QmResult<Vec<String>> {
        let rows = self.durable.scan_prefix(None, b"m/")?;
        let mut out = Vec::with_capacity(rows.len());
        for (_, raw) in rows {
            out.push(QueueMeta::decode_all(&raw).map_err(QmError::Storage)?.name);
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Registration (§4.3)
    // ------------------------------------------------------------------

    /// `Register(qname, client, stable-flag)` — idempotent. If the registrant
    /// is already registered (e.g. recovering from a failure), the existing
    /// record — including the last tagged operation — is returned unchanged.
    pub fn register(
        &self,
        queue: &str,
        registrant: &str,
        stable: bool,
    ) -> QmResult<(QueueHandle, Registration)> {
        self.queue_meta(queue)?; // must exist
        let handle = QueueHandle {
            queue: queue.to_string(),
            registrant: registrant.to_string(),
        };
        let key = keys::registration_key(queue, registrant);
        // Registration records are serialized by the KV store itself, not
        // by a lock-manager lock; report them through the store-latch hooks
        // so any future direct access that bypasses this path is flagged.
        let cell = reg_cell(queue, registrant);
        rrq_check::race::serialized_read(&cell);
        if let Some(raw) = self.durable.get(None, &key)? {
            let reg = Registration::decode_all(&raw).map_err(QmError::Storage)?;
            return Ok((handle, reg));
        }
        let reg = Registration::new(registrant, queue, stable);
        let reg2 = reg.clone();
        rrq_check::race::serialized_write(&cell);
        self.system_txn(move |t| {
            self.durable.put(t, &key, &reg2.encode_to_vec())?;
            Ok(())
        })?;
        Ok((handle, reg))
    }

    /// `Deregister` — destroys all registration information (§4.3).
    pub fn deregister(&self, handle: &QueueHandle) -> QmResult<()> {
        let key = keys::registration_key(&handle.queue, &handle.registrant);
        rrq_check::race::serialized_write(&reg_cell(&handle.queue, &handle.registrant));
        self.system_txn(|t| {
            if self.durable.get(Some(t), &key)?.is_none() {
                return Err(QmError::NotRegistered(handle.registrant.clone()));
            }
            self.durable.delete(t, &key)?;
            Ok(())
        })
    }

    /// Update the registrant's stable last-operation record inside the user
    /// transaction `txn` — atomic with the tagged operation.
    fn record_op(
        &self,
        txn: u64,
        handle: &QueueHandle,
        op: LastOp,
        tag: Option<&[u8]>,
        eid: Eid,
        payload: &[u8],
    ) -> QmResult<()> {
        let key = keys::registration_key(&handle.queue, &handle.registrant);
        // Read-modify-write of the registration record under the store's
        // internal serialization (see `register`).
        rrq_check::race::serialized_write(&reg_cell(&handle.queue, &handle.registrant));
        let raw = self
            .durable
            .get(Some(txn), &key)?
            .ok_or_else(|| QmError::NotRegistered(handle.registrant.clone()))?;
        let mut reg = Registration::decode_all(&raw).map_err(QmError::Storage)?;
        if reg.stable {
            reg.record(op, tag, eid, payload);
            self.durable.put(txn, &key, &reg.encode_to_vec())?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Enqueue / Dequeue / Read / KillElement (§4.2, §7)
    // ------------------------------------------------------------------

    /// Resolve §9 queue redirection, guarding against cycles.
    fn resolve_queue(&self, queue: &str) -> QmResult<QueueMeta> {
        let mut name = queue.to_string();
        for _ in 0..32 {
            let meta = self.queue_meta(&name)?;
            match &meta.redirect_to {
                Some(t) if t != &meta.name => name = t.clone(),
                _ => return Ok(meta),
            }
        }
        Err(QmError::RedirectCycle(queue.to_string()))
    }

    /// `Enqueue(h, element, t)` — create an element in the handle's queue
    /// under transaction `txn`, returning its eid.
    pub fn enqueue(
        &self,
        txn: u64,
        handle: &QueueHandle,
        payload: &[u8],
        opts: EnqueueOptions,
    ) -> QmResult<Eid> {
        let meta = self.resolve_queue(&handle.queue)?;
        if !meta.started {
            return Err(QmError::QueueStopped(meta.name.clone()));
        }
        let store = self.store_for(&meta);
        let (eid, seq) = self.next_eid();
        let elem = Element {
            eid,
            priority: opts.priority,
            seq,
            abort_count: 0,
            abort_code: 0,
            attrs: opts.attrs,
            payload: payload.to_vec(),
        };
        let ekey = keys::element_key(&meta.name, elem.priority, seq);
        store.put(txn, &ekey, &elem.encode_to_vec())?;
        // Tracked for the race detector; the matching dequeue-side access
        // is ordered by the queue's enqueue→dequeue happens-before edge.
        rrq_check::race::on_write(&format!("qm/elem/{eid}"));
        // Live-element index: eid → (queue, element key). Always durable so
        // Read/Kill can find volatile elements too? No — volatile elements
        // index in the volatile store, consistent with their lifetime.
        store.put(txn, &keys::index_key(eid), &encode_index(&meta.name, &ekey))?;
        if opts.tag.is_some() {
            self.record_op(
                txn,
                handle,
                LastOp::Enqueue,
                opts.tag.as_deref(),
                eid,
                payload,
            )?;
        }
        {
            let mut g = self.pending_shard(txn);
            let p = g.entry(txn).or_default();
            p.enqueued.push(EnqueuedRef {
                queue: meta.name.clone(),
                elem_key: ekey.clone(),
                eid,
            });
            p.enqueued_queues.insert(meta.name.clone());
        }
        rrq_check::race::queue_enqueued(&meta.name);
        self.stats.lock().enqueues += 1;
        rrq_obs::counter_inc("qm.enqueue.ops");
        Ok(eid)
    }

    /// `Dequeue(h, t, eh)` — remove and return the next element under
    /// transaction `txn`. See the module docs for ordering and blocking
    /// semantics.
    pub fn dequeue(
        &self,
        txn: u64,
        handle: &QueueHandle,
        opts: DequeueOptions,
    ) -> QmResult<Element> {
        let meta = self.queue_meta(&handle.queue)?;
        if !meta.started {
            return Err(QmError::QueueStopped(meta.name.clone()));
        }
        let deadline = opts.block.map(|d| Instant::now() + d);
        loop {
            let seen = self.notifier.version(&meta.name);
            match self.try_dequeue_once(txn, handle, &meta, &opts, deadline)? {
                Some(elem) => return Ok(elem),
                None => {
                    let Some(dl) = deadline else {
                        return Err(QmError::Empty(meta.name.clone()));
                    };
                    let now = Instant::now();
                    if now >= dl {
                        return Err(QmError::Empty(meta.name.clone()));
                    }
                    self.notifier.wait_past(&meta.name, seen, dl - now);
                    if Instant::now() >= dl {
                        return Err(QmError::Empty(meta.name.clone()));
                    }
                }
            }
        }
    }

    /// `queue`'s availability version: it moves whenever elements may have
    /// become available (see [`crate::notify`]). Sample it before a
    /// dequeue that finds the queue empty, then [`Self::wait_available`]
    /// waits for the queue to change without holding a transaction open.
    pub fn availability(&self, queue: &str) -> u64 {
        self.notifier.version(queue)
    }

    /// Block until `queue`'s availability version passes `seen` or
    /// `timeout` elapses. Returns `true` when it moved. A counted waiter,
    /// like a blocked [`Self::dequeue`]: one new element wakes one waiter.
    pub fn wait_available(&self, queue: &str, seen: u64, timeout: Duration) -> bool {
        self.notifier.wait_past(queue, seen, timeout)
    }

    /// One candidate-selection pass. `Ok(None)` means no candidate is
    /// currently available.
    fn try_dequeue_once(
        &self,
        txn: u64,
        handle: &QueueHandle,
        meta: &QueueMeta,
        opts: &DequeueOptions,
        deadline: Option<Instant>,
    ) -> QmResult<Option<Element>> {
        if self.use_index.load(Ordering::Acquire) {
            rrq_obs::counter_inc("qm.dequeue.index_hits");
            self.try_dequeue_once_indexed(txn, handle, meta, opts, deadline)
        } else {
            rrq_obs::counter_inc("qm.dequeue.scan_fallbacks");
            self.try_dequeue_once_scan(txn, handle, meta, opts, deadline)
        }
    }

    /// Lock, re-validate, and take one candidate element. Shared tail of the
    /// indexed and scan dequeue paths; candidate selection differs, what
    /// happens once a candidate is chosen must not.
    #[allow(clippy::too_many_arguments)]
    fn grab_element(
        &self,
        txn: u64,
        handle: &QueueHandle,
        meta: &QueueMeta,
        opts: &DequeueOptions,
        deadline: Option<Instant>,
        ns: u32,
        store: &Arc<KvStore>,
        ekey: &[u8],
    ) -> QmResult<Grab> {
        let lk = LockKey::new(ns, ekey.to_vec());
        let acquired = match meta.mode {
            OrderingMode::SkipLocked => self.locks.try_lock(txn, &lk, LockMode::Exclusive),
            OrderingMode::StrictFifo => {
                // Block behind the head element's lock.
                let wait = deadline
                    .map(|dl| dl.saturating_duration_since(Instant::now()))
                    .unwrap_or(Duration::from_secs(5));
                self.locks.lock(txn, &lk, LockMode::Exclusive, wait)
            }
        };
        match acquired {
            Ok(()) => {}
            Err(TxnError::LockTimeout) => {
                self.stats.lock().lock_skips += 1;
                rrq_obs::counter_inc("qm.dequeue.lock_skips");
                return Ok(Grab::Busy);
            }
            Err(e) => return Err(e.into()),
        }
        // Re-check under the lock: the element may have been taken
        // (committed) between candidate selection and lock acquisition.
        let Some(raw2) = store.get(Some(txn), ekey)? else {
            return Ok(Grab::Gone);
        };
        let elem = Element::decode_all(&raw2).map_err(QmError::Storage)?;
        // A kill tombstone means a cancel is racing; skip.
        if self.durable.get(None, &keys::kill_key(elem.eid))?.is_some() {
            return Ok(Grab::Tombstoned);
        }
        // Join the queue's happens-before edge, then touch the tracked
        // element cell (we hold its element lock, so this is also
        // lock-ordered).
        rrq_check::race::queue_dequeued(&meta.name);
        rrq_check::race::on_write(&format!("qm/elem/{}", elem.eid));
        store.delete(txn, ekey)?;
        store.delete(txn, &keys::index_key(elem.eid))?;
        // Retain the element contents for Read/Rereceive.
        store.put(txn, &keys::retained_key(elem.eid), &raw2)?;
        if opts.tag.is_some() {
            self.record_op(
                txn,
                handle,
                LastOp::Dequeue,
                opts.tag.as_deref(),
                elem.eid,
                &elem.payload,
            )?;
        }
        self.pending_shard(txn)
            .entry(txn)
            .or_default()
            .dequeued
            .push(DequeuedRef {
                queue: meta.name.clone(),
                elem_key: ekey.to_vec(),
                eid: elem.eid,
                error_queue: opts.error_queue.clone(),
                grabbed_at: rrq_obs::now(),
            });
        self.stats.lock().dequeues += 1;
        rrq_obs::counter_inc("qm.dequeue.ops");
        Ok(Grab::Taken(elem))
    }

    /// Candidate selection from the in-memory ready index: the committed
    /// ready-list merged with this transaction's own uncommitted enqueues,
    /// minus its own uncommitted dequeues — the same visibility the storage
    /// scan derives from the transaction overlay, without paging the
    /// keyspace.
    fn try_dequeue_once_indexed(
        &self,
        txn: u64,
        handle: &QueueHandle,
        meta: &QueueMeta,
        opts: &DequeueOptions,
        deadline: Option<Instant>,
    ) -> QmResult<Option<Element>> {
        let store = self.store_for(meta);
        let ns = self.ns_of(&meta.name);
        // This transaction's own uncommitted overlay for the queue.
        let (own_enq, own_deq) = {
            let g = self.pending_shard(txn);
            match g.get(&txn) {
                None => (Vec::new(), HashSet::new()),
                Some(p) => {
                    let mut enq: Vec<(Vec<u8>, Eid)> = p
                        .enqueued
                        .iter()
                        .filter(|e| e.queue == meta.name)
                        .map(|e| (e.elem_key.clone(), e.eid))
                        .collect();
                    enq.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                    let deq: HashSet<Vec<u8>> =
                        p.dequeued.iter().map(|d| d.elem_key.clone()).collect();
                    (enq, deq)
                }
            }
        };
        // One page buffer for the whole dequeue pass — `candidates_after_into`
        // clears and refills it, so paging costs one allocation total and an
        // empty page none at all.
        let mut cands: Vec<(Vec<u8>, Eid)> = Vec::new();
        'rescan: loop {
            let mut after: Option<Vec<u8>> = None;
            loop {
                self.qindex.candidates_after_into(
                    &meta.name,
                    after.as_deref(),
                    SCAN_PAGE,
                    &mut cands,
                );
                let exhausted = cands.len() < SCAN_PAGE;
                let hi = cands.last().map(|(k, _)| k.clone());
                // Merge own enqueues falling inside this window so ordering
                // across committed and own-pending elements is preserved.
                for (k, eid) in &own_enq {
                    let past_cursor = after.as_deref().is_none_or(|a| k.as_slice() > a);
                    let in_window = exhausted || hi.as_deref().is_some_and(|h| k.as_slice() <= h);
                    if past_cursor && in_window {
                        cands.push((k.clone(), *eid));
                    }
                }
                cands.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                cands.dedup_by(|a, b| a.0 == b.0);
                for (ekey, _) in &cands {
                    if own_deq.contains(ekey) {
                        continue;
                    }
                    if let Some(p) = &opts.predicate {
                        // Pre-filter without the lock, as the scan path does
                        // from its page contents.
                        let Some(raw) = store.get(Some(txn), ekey)? else {
                            continue;
                        };
                        let elem = Element::decode_all(&raw).map_err(QmError::Storage)?;
                        if !p.matches(&elem) {
                            continue;
                        }
                    }
                    match self.grab_element(txn, handle, meta, opts, deadline, ns, store, ekey)? {
                        Grab::Taken(e) => return Ok(Some(e)),
                        Grab::Gone => {
                            if meta.mode == OrderingMode::StrictFifo {
                                // Head is truly gone; restart the pass.
                                continue 'rescan;
                            }
                            continue;
                        }
                        Grab::Tombstoned => continue,
                        Grab::Busy => match meta.mode {
                            OrderingMode::SkipLocked => continue,
                            OrderingMode::StrictFifo => return Ok(None),
                        },
                    }
                }
                if exhausted {
                    return Ok(None);
                }
                // Own enqueues at or below `hi` were already considered, so
                // the cursor advances on the index's own pagination.
                after = hi;
            }
        }
    }

    /// Candidate selection by paging the element keyspace — the pre-index
    /// path, kept for benchmarking and as the verification baseline for the
    /// index (`index_divergence`).
    fn try_dequeue_once_scan(
        &self,
        txn: u64,
        handle: &QueueHandle,
        meta: &QueueMeta,
        opts: &DequeueOptions,
        deadline: Option<Instant>,
    ) -> QmResult<Option<Element>> {
        let store = self.store_for(meta);
        let ns = self.ns_of(&meta.name);
        let prefix = keys::element_prefix(&meta.name);
        'rescan: loop {
            let mut after: Option<Vec<u8>> = None;
            loop {
                let (page, cursor) =
                    store.scan_prefix_page(Some(txn), &prefix, after.as_deref(), SCAN_PAGE)?;
                for (ekey, raw) in &page {
                    let elem = Element::decode_all(raw).map_err(QmError::Storage)?;
                    if let Some(p) = &opts.predicate {
                        if !p.matches(&elem) {
                            continue;
                        }
                    }
                    match self.grab_element(txn, handle, meta, opts, deadline, ns, store, ekey)? {
                        Grab::Taken(e) => return Ok(Some(e)),
                        Grab::Gone => {
                            if meta.mode == OrderingMode::StrictFifo {
                                // Head is truly gone; restart the scan.
                                continue 'rescan;
                            }
                            continue;
                        }
                        Grab::Tombstoned => continue,
                        Grab::Busy => match meta.mode {
                            OrderingMode::SkipLocked => continue,
                            OrderingMode::StrictFifo => return Ok(None),
                        },
                    }
                }
                match cursor {
                    Some(c) => after = Some(c),
                    None => return Ok(None),
                }
            }
        }
    }

    /// Batch dequeue (§1: requests "can be captured reliably in a queue, and
    /// processed later in a batch"): remove up to `max` elements in one
    /// transaction. Returns fewer (possibly zero) when the queue runs dry —
    /// batch consumers don't block.
    pub fn dequeue_batch(
        &self,
        txn: u64,
        handle: &QueueHandle,
        max: usize,
        opts: &DequeueOptions,
    ) -> QmResult<Vec<Element>> {
        let mut out = Vec::with_capacity(max.min(64));
        for _ in 0..max {
            match self.dequeue(
                txn,
                handle,
                DequeueOptions {
                    tag: None, // tags describe single ops; batch is untagged
                    predicate: opts.predicate.clone(),
                    block: None,
                    error_queue: opts.error_queue.clone(),
                },
            ) {
                Ok(e) => out.push(e),
                Err(QmError::Empty(_)) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Dequeue from a *queue set* (§9, DECintact: "queue sets (a view of a
    /// set of queues)"): take the next available element from any of the
    /// named queues, trying them in order. Blocks (when `opts.block` is set)
    /// until one of them yields.
    pub fn dequeue_from_set(
        &self,
        txn: u64,
        handles: &[QueueHandle],
        opts: DequeueOptions,
    ) -> QmResult<(usize, Element)> {
        if handles.is_empty() {
            return Err(QmError::Invalid("empty queue set".into()));
        }
        let deadline = opts.block.map(|d| Instant::now() + d);
        loop {
            // Record versions before scanning so wakeups are not missed.
            let versions: Vec<u64> = handles
                .iter()
                .map(|h| self.notifier.version(&h.queue))
                .collect();
            for (i, h) in handles.iter().enumerate() {
                match self.dequeue(
                    txn,
                    h,
                    DequeueOptions {
                        tag: opts.tag.clone(),
                        predicate: opts.predicate.clone(),
                        block: None,
                        error_queue: opts.error_queue.clone(),
                    },
                ) {
                    Ok(e) => return Ok((i, e)),
                    Err(QmError::Empty(_)) => continue,
                    Err(e) => return Err(e),
                }
            }
            let Some(dl) = deadline else {
                return Err(QmError::Empty(format!(
                    "queue set [{}]",
                    handles
                        .iter()
                        .map(|h| h.queue.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            };
            let now = Instant::now();
            if now >= dl {
                return Err(QmError::Empty("queue set".into()));
            }
            // Wait for any member queue to gain elements (short poll slices
            // so a signal on a later queue is still noticed promptly).
            let slice = (dl - now).min(Duration::from_millis(25));
            let mut woken = false;
            for (h, &seen) in handles.iter().zip(&versions) {
                if self.notifier.version(&h.queue) > seen {
                    woken = true;
                    break;
                }
            }
            if !woken {
                self.notifier
                    .wait_past(&handles[0].queue, versions[0], slice);
            }
        }
    }

    /// `Read(h, e)` — return the element with `eid` without modifying it.
    /// Works for live elements and for retained (already dequeued) ones.
    pub fn read(&self, eid: Eid) -> QmResult<Element> {
        self.stats.lock().reads += 1;
        for store in [&self.durable, &self.volatile] {
            if let Some(raw) = store.get(None, &keys::index_key(eid))? {
                let (_, ekey) = decode_index(&raw)?;
                if let Some(eraw) = store.get(None, &ekey)? {
                    return Element::decode_all(&eraw).map_err(QmError::Storage);
                }
            }
            if let Some(raw) = store.get(None, &keys::retained_key(eid))? {
                return Element::decode_all(&raw).map_err(QmError::Storage);
            }
        }
        Err(QmError::NoSuchElement(eid.raw()))
    }

    /// `KillElement(e)` — §7 cancellation.
    ///
    /// * Live and unlocked: deleted immediately; returns `true`.
    /// * Dequeued by an uncommitted transaction: that transaction is poisoned
    ///   (its commit fails, forcing an abort) and a tombstone ensures the
    ///   element is deleted instead of requeued; returns `true`.
    /// * Already dequeued and committed: returns `false` — too late (§7: with
    ///   multi-transaction requests, use compensation).
    pub fn kill_element(&self, eid: Eid) -> QmResult<bool> {
        // Find the element in either store.
        for store in [&self.durable, &self.volatile] {
            let Some(raw) = store.get(None, &keys::index_key(eid))? else {
                continue;
            };
            let (queue, ekey) = decode_index(&raw)?;
            let ns = self.ns_of(&queue);
            let lk = LockKey::new(ns, ekey.clone());
            let sys = self.sys_ids.next().raw();
            match self.locks.try_lock(sys, &lk, LockMode::Exclusive) {
                Ok(()) => {
                    // Unlocked: delete right now in a system transaction.
                    let r = Self::kill_live_element(store, sys, &ekey, eid);
                    self.locks.unlock_all(sys);
                    let killed = r?;
                    if killed {
                        self.qindex.remove(&queue, &ekey);
                        rrq_obs::counter_inc("qm.element.dropped");
                        self.stats.lock().kills += 1;
                    }
                    return Ok(killed);
                }
                Err(_) => {
                    // Held by an in-flight dequeuer: poison it and leave a
                    // tombstone for its abort path.
                    self.system_txn(|t| {
                        self.durable.put(t, &keys::kill_key(eid), &[1])?;
                        Ok(())
                    })?;
                    // Walk the stripes one at a time; a dequeuer lives in
                    // exactly one, and holding two guards is never needed.
                    for i in 0..self.pending.len() {
                        let mut g = self.pending_shard_at(i);
                        for p in g.values_mut() {
                            if p.dequeued.iter().any(|d| d.eid == eid) {
                                p.poisoned = Some(eid);
                            }
                        }
                    }
                    self.stats.lock().kills += 1;
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// Delete a live, unlocked element inside a committed system
    /// transaction; returns whether it was still present. A named function
    /// (not a closure in `kill_element`) so the durability-dominator pass
    /// can see the `commit` on every path to the caller's index update.
    fn kill_live_element(store: &Arc<KvStore>, sys: u64, ekey: &[u8], eid: Eid) -> QmResult<bool> {
        store.begin(sys)?;
        let still_there = store.get(Some(sys), ekey)?.is_some();
        if still_there {
            store.delete(sys, ekey)?;
            store.delete(sys, &keys::index_key(eid))?;
        }
        store.commit(sys)?;
        Ok(still_there)
    }

    /// Number of live (committed) elements in `queue` — answered from the
    /// ready index, no storage scan.
    pub fn depth(&self, queue: &str) -> QmResult<usize> {
        self.queue_meta(queue)?; // unknown queues still error
        if self.use_index.load(Ordering::Acquire) {
            return Ok(self.qindex.depth(queue));
        }
        self.depth_scan(queue)
    }

    /// Depth by paging the element keyspace — the pre-index path, kept for
    /// benchmarking and as the index's verification baseline.
    pub fn depth_scan(&self, queue: &str) -> QmResult<usize> {
        let meta = self.queue_meta(queue)?;
        let store = self.store_for(&meta);
        let prefix = keys::element_prefix(queue);
        let mut after: Option<Vec<u8>> = None;
        let mut n = 0usize;
        loop {
            let (page, cursor) = store.scan_prefix_page(None, &prefix, after.as_deref(), 256)?;
            n += page.len();
            match cursor {
                Some(c) => after = Some(c),
                None => return Ok(n),
            }
        }
    }

    /// Switch dequeue candidate selection and `depth` between the ready
    /// index (the default) and the raw storage scan. Benchmarks A/B the two;
    /// semantics are identical.
    pub fn set_indexed_dequeue(&self, on: bool) {
        self.use_index.store(on, Ordering::Release);
    }

    /// Whether the indexed hot path is active.
    pub fn indexed_dequeue(&self) -> bool {
        self.use_index.load(Ordering::Acquire)
    }

    /// Mark `txn` as a planned-epoch member: its commit defers durability
    /// (the WAL force) and the index/notification mirror to the next
    /// [`QueueManager::apply_epoch`]. Call right after enlisting the queue
    /// manager, before the transaction touches any element.
    pub fn mark_planned(&self, txn: u64) {
        self.pending_shard(txn).entry(txn).or_default().planned = true;
    }

    /// Mirror every buffered planned commit into the ready index and fire
    /// the deferred wakeups/alerts — the qindex batch application at epoch
    /// close. The caller must force the durable store's WAL first
    /// ([`rrq_storage::kv::KvStore::force_wal`]): a clerk woken here may
    /// immediately read its reply, which therefore must already be durable.
    pub fn apply_epoch(&self) {
        let buffered = {
            let mut buf = self.epoch_buf.lock();
            std::mem::take(&mut *buf)
        };
        for pend in &buffered {
            self.apply_committed(pend);
        }
    }

    /// Mirror one committed transaction's effects into the ready index
    /// *before* waking anyone: a dequeuer signalled below must find the new
    /// entries. The index application itself is the batch
    /// [`QueueIndex::apply_mirror`] — by the time this runs, the
    /// transaction's commit record is already appended (and, per the
    /// caller's protocol, forced), so the mirror redoes durable effects.
    fn apply_committed(&self, pend: &PendingTxn) {
        self.qindex.apply_mirror(
            pend.enqueued
                .iter()
                .map(|e| (e.queue.as_str(), e.elem_key.clone(), e.eid)),
            pend.dequeued
                .iter()
                .map(|dq| (dq.queue.as_str(), dq.elem_key.as_slice())),
        );
        rrq_obs::counter_add("qm.enqueue.committed", pend.enqueued.len() as u64);
        for dq in &pend.dequeued {
            rrq_obs::counter_inc("qm.dequeue.committed");
            rrq_obs::observe(
                "qm.element.lock_hold_ticks",
                rrq_obs::now().saturating_sub(dq.grabbed_at),
            );
        }
        for q in &pend.enqueued_queues {
            // Counted wakeup: at most one blocked dequeuer per newly
            // available element, never the herd (see `notify`).
            let newly = pend.enqueued.iter().filter(|e| &e.queue == q).count();
            self.notifier.signal_n(q, newly);
            // Alert thresholds (§9).
            if let Ok(meta) = self.queue_meta(q) {
                if let Some(thresh) = meta.alert_threshold {
                    if let Ok(d) = self.depth(q) {
                        if d as u64 >= thresh {
                            self.alerts.lock().push(q.clone());
                            self.stats.lock().alerts += 1;
                        }
                    }
                }
            }
            // Fork/join triggers (§6).
            let _ = self.check_triggers(q);
        }
    }

    /// The first `max` committed ready elements of `queue`, in dequeue
    /// order — the epoch batch former. Purely a read of the ready index:
    /// nothing is locked, consumed, or handed out. Entries may race with
    /// concurrent committed dequeues; [`QueueManager::dequeue_planned`]
    /// revalidates against storage when the element is actually taken.
    pub fn ready_batch(&self, queue: &str, max: usize) -> QmResult<Vec<(Vec<u8>, Eid)>> {
        let meta = self.queue_meta(queue)?;
        if !meta.started {
            return Err(QmError::QueueStopped(meta.name.clone()));
        }
        let mut cands = Vec::new();
        self.qindex
            .candidates_after_into(&meta.name, None, max, &mut cands);
        Ok(cands)
    }

    /// Take the specific element the epoch plan assigned to `txn`,
    /// *without* the element-lock backstop: the plan already guarantees no
    /// concurrent transaction was handed this key, so the try-lock that
    /// `grab_element` uses to arbitrate racing dequeuers has nothing to
    /// arbitrate. `Ok(None)` means the element is gone (consumed by an
    /// earlier epoch, moved by abort disposition, or tombstoned by a racing
    /// kill) — the caller drops the task from the plan.
    pub fn dequeue_planned(
        &self,
        txn: u64,
        handle: &QueueHandle,
        ekey: &[u8],
    ) -> QmResult<Option<Element>> {
        let meta = self.queue_meta(&handle.queue)?;
        if !meta.started {
            return Err(QmError::QueueStopped(meta.name.clone()));
        }
        let store = self.store_for(&meta);
        let Some(raw) = store.get(Some(txn), ekey)? else {
            return Ok(None);
        };
        let elem = Element::decode_all(&raw).map_err(QmError::Storage)?;
        // A kill tombstone means a cancel is racing; leave it for the kill.
        if self.durable.get(None, &keys::kill_key(elem.eid))?.is_some() {
            return Ok(None);
        }
        // Join the queue's happens-before edge, then touch the tracked
        // element cell (the plan orders all access to this element, the way
        // the element lock does on the locked path).
        rrq_check::race::queue_dequeued(&meta.name);
        rrq_check::race::on_write(&format!("qm/elem/{}", elem.eid));
        store.delete(txn, ekey)?;
        store.delete(txn, &keys::index_key(elem.eid))?;
        // Retain the element contents for Read/Rereceive.
        store.put(txn, &keys::retained_key(elem.eid), &raw)?;
        self.pending_shard(txn)
            .entry(txn)
            .or_default()
            .dequeued
            .push(DequeuedRef {
                queue: meta.name.clone(),
                elem_key: ekey.to_vec(),
                eid: elem.eid,
                error_queue: None,
                grabbed_at: rrq_obs::now(),
            });
        self.stats.lock().dequeues += 1;
        rrq_obs::counter_inc("qm.dequeue.ops");
        Ok(Some(elem))
    }

    /// The ready index's current contents: `queue → ordered (key, eid)`.
    pub fn index_snapshot(&self) -> IndexSnapshot {
        self.qindex.snapshot()
    }

    /// The ready index's element total and the `qm.queue.depth` gauge
    /// reading, captured in one critical section. The two must always agree
    /// — the gauge is updated inside the index mutex (see [`QueueIndex`]).
    pub fn depth_accounting(&self) -> (usize, i64) {
        self.qindex.depth_accounting()
    }

    /// The same structure derived from a fresh scan of the committed element
    /// keyspace in both stores — the ground truth the index must match at
    /// any quiescent point (and, critically, right after recovery).
    pub fn index_from_scan(&self) -> QmResult<IndexSnapshot> {
        let mut out = IndexSnapshot::new();
        for store in [&self.durable, &self.volatile] {
            for (k, raw) in store.scan_prefix(None, b"e/")? {
                let Some(queue) = keys::parse_element_key(&k) else {
                    continue;
                };
                let elem = Element::decode_all(&raw).map_err(QmError::Storage)?;
                out.entry(queue.to_string())
                    .or_default()
                    .push((k, elem.eid));
            }
        }
        for v in out.values_mut() {
            v.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
        Ok(out)
    }

    /// Verification hook: is the element lock for `(queue, ekey)` free?
    /// Probes with a throwaway system id and releases immediately. Dequeue
    /// locks are volatile, so after a restart this must hold for every
    /// indexed element.
    pub fn element_lock_free(&self, queue: &str, ekey: &[u8]) -> bool {
        let ns = self.ns_of(queue);
        let lk = LockKey::new(ns, ekey.to_vec());
        let probe = self.sys_ids.next().raw();
        let free = self.locks.try_lock(probe, &lk, LockMode::Exclusive).is_ok();
        self.locks.unlock_all(probe);
        free
    }

    /// `None` when the ready index and a fresh storage scan agree exactly
    /// (same queues, same keys in the same order, same eids); otherwise a
    /// description of the first divergence.
    pub fn index_divergence(&self) -> QmResult<Option<String>> {
        let ix = self.index_snapshot();
        let scan = self.index_from_scan()?;
        if ix == scan {
            return Ok(None);
        }
        for (q, want) in &scan {
            match ix.get(q) {
                None => {
                    return Ok(Some(format!(
                        "queue {q:?}: {} elements in storage, none in index",
                        want.len()
                    )))
                }
                Some(have) if have != want => {
                    return Ok(Some(format!(
                        "queue {q:?}: index has {} elements, storage has {}",
                        have.len(),
                        want.len()
                    )))
                }
                _ => {}
            }
        }
        for q in ix.keys() {
            if !scan.contains_key(q) {
                return Ok(Some(format!("queue {q:?}: in index but not in storage")));
            }
        }
        Ok(Some("index != storage".into()))
    }

    /// Read-only content query over a queue's live elements.
    pub fn query(&self, queue: &str, predicate: &Predicate) -> QmResult<Vec<Element>> {
        let meta = self.queue_meta(queue)?;
        let store = self.store_for(&meta);
        let rows = store.scan_prefix(None, &keys::element_prefix(queue))?;
        let mut out = Vec::new();
        for (_, raw) in rows {
            let e = Element::decode_all(&raw).map_err(QmError::Storage)?;
            if predicate.matches(&e) {
                out.push(e);
            }
        }
        Ok(out)
    }

    /// Drop the retained copy of a processed element (garbage collection for
    /// the `Read`-after-dequeue guarantee; "the reply is retained until the
    /// client says to delete it", §2).
    pub fn purge_retained(&self, eid: Eid) -> QmResult<bool> {
        self.system_txn(|t| {
            let key = keys::retained_key(eid);
            if self.durable.get(Some(t), &key)?.is_none() {
                return Ok(false);
            }
            self.durable.delete(t, &key)?;
            Ok(true)
        })
    }

    // ------------------------------------------------------------------
    // Triggers (§6 fork/join)
    // ------------------------------------------------------------------

    /// Install a trigger: when all `required_rids` are present (as `rid`
    /// attributes) among the live elements of `join_queue`, enqueue `payload`
    /// into `target_queue` exactly once.
    pub fn set_trigger(&self, trigger: Trigger) -> QmResult<()> {
        self.system_txn(|t| {
            self.durable
                .put(t, &keys::trigger_key(&trigger.id), &trigger.encode_to_vec())?;
            Ok(())
        })
    }

    /// Evaluate triggers watching `queue`; fire those whose join condition
    /// is now satisfied.
    fn check_triggers(&self, queue: &str) -> QmResult<()> {
        let rows = self.durable.scan_prefix(None, b"t/")?;
        for (tkey, raw) in rows {
            let mut trig = Trigger::decode_all(&raw).map_err(QmError::Storage)?;
            if trig.fired || trig.join_queue != queue {
                continue;
            }
            let live = self.query(queue, &Predicate::True)?;
            let present: HashSet<&str> = live.iter().filter_map(|e| e.attr("rid")).collect();
            if trig
                .required_rids
                .iter()
                .all(|r| present.contains(r.as_str()))
            {
                trig.fired = true;
                let target = trig.target_queue.clone();
                let payload = trig.payload.clone();
                let raw2 = trig.encode_to_vec();
                self.system_txn(|t| {
                    self.durable.put(t, &tkey, &raw2)?;
                    Ok(())
                })?;
                // Fire via a normal system enqueue (outside the user txn).
                let sys = self.sys_ids.next().raw();
                self.begin(TxnId(sys)).map_err(QmError::Txn)?;
                let h = QueueHandle {
                    queue: target,
                    registrant: format!("trigger/{}", trig.id),
                };
                let r = self.enqueue(sys, &h, &payload, EnqueueOptions::default());
                match r {
                    Ok(_) => {
                        ResourceManager::commit(self, TxnId(sys)).map_err(QmError::Txn)?;
                        self.stats.lock().triggers_fired += 1;
                    }
                    Err(e) => {
                        let _ = ResourceManager::abort(self, TxnId(sys));
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Abort-side maintenance
    // ------------------------------------------------------------------

    /// After a transaction abort returned `d`'s element to its queue, bump
    /// its abort count, honour kill tombstones, and move it to the error
    /// queue when the retry limit is reached (§4.2).
    fn handle_aborted_dequeue(&self, d: &DequeuedRef, abort_code: u32) -> QmResult<()> {
        /// Where the element ended up, for ready-index maintenance and
        /// signalling — decided inside the system transaction, applied to
        /// the index only after it commits.
        enum AbortOutcome {
            /// Gone (concurrent destroy) or deleted honouring a kill.
            Dropped,
            /// Moved to the error queue under a fresh ordering key.
            Moved { queue: String, ekey: Vec<u8> },
            /// Returned to its queue under a fresh ordering key (rotate).
            Requeued { ekey: Vec<u8> },
            /// Returned to its queue under its original key.
            Returned,
        }
        self.stats.lock().aborted_dequeues += 1;
        let meta = self.queue_meta(&d.queue)?;
        let store = Arc::clone(self.store_for(&meta));
        let tomb = keys::kill_key(d.eid);
        let killed = self.durable.get(None, &tomb)?.is_some();

        let sys = self.sys_ids.next().raw();
        store.begin(sys)?;
        let result = (|| -> QmResult<AbortOutcome> {
            let Some(raw) = store.get(Some(sys), &d.elem_key)? else {
                return Ok(AbortOutcome::Dropped); // vanished (e.g. destroy)
            };
            let mut elem = Element::decode_all(&raw).map_err(QmError::Storage)?;
            if killed {
                store.delete(sys, &d.elem_key)?;
                store.delete(sys, &keys::index_key(d.eid))?;
                return Ok(AbortOutcome::Dropped);
            }
            elem.abort_count += 1;
            elem.abort_code = abort_code;
            let limit = meta.retry_limit;
            if limit > 0 && elem.abort_count >= limit {
                // Move to the error queue, keeping the element's identity.
                let errq = d
                    .error_queue
                    .clone()
                    .unwrap_or_else(|| meta.error_queue.clone());
                self.ensure_error_queue(&errq)?;
                store.delete(sys, &d.elem_key)?;
                let (_, seq) = self.next_eid(); // fresh ordering slot
                let ekey = keys::element_key(&errq, elem.priority, seq);
                elem.seq = seq;
                store.put(sys, &ekey, &elem.encode_to_vec())?;
                store.put(sys, &keys::index_key(d.eid), &encode_index(&errq, &ekey))?;
                Ok(AbortOutcome::Moved { queue: errq, ekey })
            } else if meta.requeue_at_back_on_abort {
                // Rotate to the back of the queue: same element identity,
                // fresh ordering slot. Prevents head-of-line livelock when
                // the head's required resources are held by requests deeper
                // in the queue.
                store.delete(sys, &d.elem_key)?;
                let (_, seq) = self.next_eid();
                elem.seq = seq;
                let ekey = keys::element_key(&meta.name, elem.priority, seq);
                store.put(sys, &ekey, &elem.encode_to_vec())?;
                store.put(
                    sys,
                    &keys::index_key(d.eid),
                    &encode_index(&meta.name, &ekey),
                )?;
                Ok(AbortOutcome::Requeued { ekey })
            } else {
                store.put(sys, &d.elem_key, &elem.encode_to_vec())?;
                Ok(AbortOutcome::Returned)
            }
        })();
        match result {
            Ok(outcome) => {
                store.commit(sys)?;
                if killed {
                    // Clear the tombstone now the element is gone.
                    self.system_txn(|t| {
                        self.durable.delete(t, &tomb)?;
                        Ok(())
                    })?;
                }
                // The dequeue never committed, so the old key is still in
                // the ready index; fix it up to match the outcome, then
                // signal so woken dequeuers see the fresh entry. Each arm is
                // one `fixup` call — one critical section — so the index
                // (and the depth gauge it carries) never shows the element
                // half-moved to a concurrent `depth()` or divergence check.
                match outcome {
                    AbortOutcome::Dropped => {
                        self.qindex.fixup(Some((&d.queue, &d.elem_key)), None);
                        rrq_obs::counter_inc("qm.element.dropped");
                    }
                    AbortOutcome::Moved { queue, ekey } => {
                        self.qindex
                            .fixup(Some((&d.queue, &d.elem_key)), Some((&queue, ekey, d.eid)));
                        self.stats.lock().error_moves += 1;
                        self.notifier.signal(&queue);
                    }
                    AbortOutcome::Requeued { ekey } => {
                        self.qindex
                            .fixup(Some((&d.queue, &d.elem_key)), Some((&d.queue, ekey, d.eid)));
                        self.notifier.signal(&d.queue);
                    }
                    AbortOutcome::Returned => {
                        self.qindex
                            .fixup(None, Some((&d.queue, d.elem_key.clone(), d.eid)));
                        self.notifier.signal(&d.queue);
                    }
                }
                rrq_obs::observe(
                    "qm.element.lock_hold_ticks",
                    rrq_obs::now().saturating_sub(d.grabbed_at),
                );
                Ok(())
            }
            Err(e) => {
                let _ = store.abort(sys);
                Err(e)
            }
        }
    }

    fn ensure_error_queue(&self, name: &str) -> QmResult<()> {
        if self.queue_meta(name).is_ok() {
            return Ok(());
        }
        let mut meta = QueueMeta::with_defaults(name);
        meta.retry_limit = 0; // error queues never cascade
        match self.create_queue(meta) {
            Ok(()) | Err(QmError::QueueExists(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// Race-detector cell name of a §4.3 registration record.
fn reg_cell(queue: &str, registrant: &str) -> String {
    format!("qm/reg/{queue}/{registrant}")
}

fn encode_index(queue: &str, ekey: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + queue.len() + ekey.len());
    put::string(&mut buf, queue);
    put::bytes(&mut buf, ekey);
    buf
}

fn decode_index(raw: &[u8]) -> QmResult<(String, Vec<u8>)> {
    let mut r = Reader::new(raw);
    let queue = r.string().map_err(QmError::Storage)?;
    let ekey = r.bytes().map_err(QmError::Storage)?;
    Ok((queue, ekey))
}

// ----------------------------------------------------------------------
// ResourceManager: the QM as a transaction participant
// ----------------------------------------------------------------------

impl ResourceManager for QueueManager {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin(&self, txn: TxnId) -> TxnResult<()> {
        self.durable.begin(txn.raw())?;
        self.volatile.begin(txn.raw())?;
        self.pending_shard(txn.raw())
            .insert(txn.raw(), PendingTxn::default());
        Ok(())
    }

    fn prepare(&self, txn: TxnId) -> TxnResult<()> {
        {
            let g = self.pending_shard(txn.raw());
            if let Some(p) = g.get(&txn.raw()) {
                if let Some(eid) = p.poisoned {
                    return Err(TxnError::InvalidState(format!(
                        "element {eid} cancelled; transaction must abort"
                    )));
                }
            }
        }
        self.durable.prepare(txn.raw())?;
        self.volatile.prepare(txn.raw())?;
        Ok(())
    }

    fn commit(&self, txn: TxnId) -> TxnResult<()> {
        // One-phase path: the poison check runs here too.
        {
            let g = self.pending_shard(txn.raw());
            if let Some(p) = g.get(&txn.raw()) {
                if let Some(eid) = p.poisoned {
                    return Err(TxnError::InvalidState(format!(
                        "element {eid} cancelled; transaction must abort"
                    )));
                }
            }
        }
        let planned = {
            let g = self.pending_shard(txn.raw());
            g.get(&txn.raw()).is_some_and(|p| p.planned)
        };
        if planned {
            // Speculative epoch commit: visible at once, durable at the
            // epoch force (`apply_epoch` is preceded by a WAL force).
            self.durable.commit_deferred(txn.raw())?;
        } else {
            self.durable.commit(txn.raw())?;
        }
        self.volatile.commit(txn.raw())?;
        let pend = self
            .pending_shard(txn.raw())
            .remove(&txn.raw())
            .unwrap_or_default();
        if pend.planned {
            // Defer the index/notification mirror to epoch close: clerks
            // must not observe (or be woken for) a reply whose durability
            // is still pending the epoch force.
            self.epoch_buf.lock().push(pend);
            return Ok(());
        }
        self.apply_committed(&pend);
        Ok(())
    }

    fn abort(&self, txn: TxnId) -> TxnResult<()> {
        self.durable.abort(txn.raw())?;
        self.volatile.abort(txn.raw())?;
        let pend = self
            .pending_shard(txn.raw())
            .remove(&txn.raw())
            .unwrap_or_default();
        for d in &pend.dequeued {
            self.handle_aborted_dequeue(d, 1)
                .map_err(|e| TxnError::InvalidState(e.to_string()))?;
        }
        Ok(())
    }
}
