//! Planned-vs-locked execution equivalence (DESIGN.md §26).
//!
//! `ExecMode::Planned` replaces 2PL arbitration with an epoch plan: batches
//! are partitioned into per-key access queues and executed lock-free in
//! plan priority order. The mode is only admissible because it is
//! *observationally equivalent* to the locked baseline, which this battery
//! pins from four sides:
//!
//! * **Lockstep**: the same seeded workload through a 1-server locked
//!   repository and a workers=1 planned pool (the deterministic inline
//!   mode) produces the identical reply order, final account balances,
//!   queue depths, and a clean index — across 16 generated schedules and
//!   varying epoch sizes.
//! * **Crash windows**: a scripted crash inside each epoch window (plan /
//!   execute / commit, via the [`rrq_core::planned::EpochHook`]) followed
//!   by recovery and a re-drain still yields exactly-once processing:
//!   every request replied to exactly once, money conserved, depth
//!   accounting clean.
//! * **Concurrency**: a 4-worker pool reaches the same final state as the
//!   inline mode (reply *order* may differ across disjoint keys; the
//!   reply multiset and all balances may not).
//! * **Misspeculation**: an access oracle that deliberately under-declares
//!   forces `OutsidePlan` aborts; the abort-and-replan path must converge
//!   to the same correct final state while the stats record the retries.
//!
//! The `open_with` compatibility check (planned × multi-partition → typed
//! rejection) rides along as a directed regression.

use rrq_core::planned::{EpochWindow, PlannedConfig, PlannedPool};
use rrq_core::request::{Reply, ReplyStatus, Request};
use rrq_core::rid::Rid;
use rrq_core::server::{Served, Server, ServerConfig};
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::repository::{ExecMode, RepoDisks, RepoOptions, Repository};
use rrq_qm::QmError;
use rrq_storage::codec::{Decode, Encode};
use rrq_txn::LockKey;
use rrq_workload::arrivals::SplitMix;
use rrq_workload::bank::{self, Transfer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const REQ: &str = "req";
const REPLY: &str = "reply.c1";
const ACCOUNTS: u32 = 5;
const INITIAL: i64 = 10_000;

/// One generated request: serial, op, body. `op != "transfer"` and
/// undecodable bodies are unplannable (solo path) on the planned side; the
/// locked handler treats them identically (it never reads `op`, and a bad
/// body is a Reject on both sides).
#[derive(Clone)]
struct Job {
    serial: u64,
    op: &'static str,
    body: Vec<u8>,
}

fn gen_jobs(seed: u64, n: u64, all_plannable: bool) -> Vec<Job> {
    let mut rng = SplitMix::new(seed ^ 0xA076_1D64_78BD_642F);
    (1..=n)
        .map(|serial| {
            let t = Transfer {
                from: (rng.next_u64() % u64::from(ACCOUNTS)) as u32,
                to: (rng.next_u64() % u64::from(ACCOUNTS)) as u32,
                amount: 1 + (rng.next_u64() % 500) as i64,
            };
            if all_plannable {
                return Job {
                    serial,
                    op: "transfer",
                    body: t.encode(),
                };
            }
            match rng.next_u64() % 8 {
                // Valid transfer under an op the access fn refuses: solo on
                // the planned side, ordinary on the locked side.
                0 => Job {
                    serial,
                    op: "audit",
                    body: t.encode(),
                },
                // Undecodable body: Reject (failed reply) on both sides.
                1 => Job {
                    serial,
                    op: "transfer",
                    body: vec![0xFF; 3],
                },
                _ => Job {
                    serial,
                    op: "transfer",
                    body: t.encode(),
                },
            }
        })
        .collect()
}

fn expected_balances(jobs: &[Job]) -> Vec<i64> {
    let mut b = vec![INITIAL; ACCOUNTS as usize];
    for j in jobs {
        if let Ok(t) = Transfer::decode(&j.body) {
            b[t.from as usize] -= t.amount;
            b[t.to as usize] += t.amount;
        }
    }
    b
}

fn open(name: &str, disks: RepoDisks, mode: ExecMode) -> Arc<Repository> {
    let opts = RepoOptions {
        exec_mode: mode,
        ..RepoOptions::default()
    };
    let (repo, _) = Repository::open_with(name, disks, opts).unwrap();
    let repo = Arc::new(repo);
    for q in [REQ, REPLY] {
        let _ = repo.create_queue_defaults(q);
    }
    bank::seed_accounts(&repo, ACCOUNTS, INITIAL).unwrap();
    repo
}

fn enqueue_jobs(repo: &Repository, jobs: &[Job]) {
    let (h, _) = repo.qm().register(REQ, "loader", false).unwrap();
    for j in jobs {
        let req = Request::new(Rid::new("c1", j.serial), REPLY, j.op, j.body.clone());
        repo.autocommit(|t| {
            repo.qm().enqueue(
                t.id().raw(),
                &h,
                &req.encode_to_vec(),
                EnqueueOptions::default(),
            )
        })
        .unwrap();
    }
}

/// Drain the reply queue in order; panics on an undecodable reply.
fn drain_replies(repo: &Repository) -> Vec<Reply> {
    let (h, _) = repo.qm().register(REPLY, "drain", false).unwrap();
    let mut out = Vec::new();
    while let Ok(elem) = repo.autocommit(|t| {
        repo.qm()
            .dequeue(t.id().raw(), &h, DequeueOptions::default())
    }) {
        out.push(Reply::decode_all(&elem.payload).unwrap());
    }
    out
}

/// Run the locked baseline to completion: one server, `n` Fig 5 iterations.
fn run_locked(repo: &Arc<Repository>, n: u64) {
    let server = Server::new(
        Arc::clone(repo),
        ServerConfig::new("lockstep-srv", REQ),
        bank::single_txn_handler(),
    )
    .unwrap();
    for _ in 0..n {
        assert_ne!(
            server.run_once().unwrap(),
            Served::Idle,
            "locked server went idle with requests outstanding"
        );
    }
}

/// Run a planned pool inline (no threads) until the request queue is dry.
fn run_planned_inline(pool: &PlannedPool, repo: &Repository) {
    let mut idle = 0;
    while idle < 3 {
        if pool.run_epoch().unwrap() == 0 {
            if repo.qm().depth(REQ).unwrap() == 0 {
                idle += 1;
            }
        } else {
            idle = 0;
        }
    }
}

fn assert_clean(repo: &Repository, tag: &str) {
    assert_eq!(repo.qm().depth(REQ).unwrap(), 0, "{tag}: requests left");
    assert_eq!(repo.qm().index_divergence().unwrap(), None, "{tag}");
    for q in [REQ, REPLY] {
        assert_eq!(
            repo.qm().depth(q).unwrap(),
            repo.qm().depth_scan(q).unwrap(),
            "{tag}: depth accounting drifted on {q:?}"
        );
    }
}

/// The tentpole oracle: 16 seeded schedules through both modes, identical
/// reply order and final state. All-plannable workloads (priority order =
/// arrival order = the locked FIFO order) with the epoch size swept 1..=8.
#[test]
fn planned_inline_matches_locked_lockstep() {
    for seed in 0..16u64 {
        let jobs = gen_jobs(seed, 24, true);

        let locked = open("equiv-locked", RepoDisks::new(), ExecMode::Locked);
        enqueue_jobs(&locked, &jobs);
        run_locked(&locked, jobs.len() as u64);

        let planned = open("equiv-planned", RepoDisks::new(), ExecMode::Planned);
        enqueue_jobs(&planned, &jobs);
        let mut cfg = PlannedConfig::new("pl", REQ);
        cfg.batch_max = 1 + (seed as usize % 8);
        let pool = PlannedPool::new(
            Arc::clone(&planned),
            cfg,
            bank::single_txn_handler(),
            bank::transfer_access(),
        )
        .unwrap();
        run_planned_inline(&pool, &planned);

        let (ra, rb) = (drain_replies(&locked), drain_replies(&planned));
        assert_eq!(
            ra.iter()
                .map(|r| (&r.rid, &r.status, &r.body))
                .collect::<Vec<_>>(),
            rb.iter()
                .map(|r| (&r.rid, &r.status, &r.body))
                .collect::<Vec<_>>(),
            "seed {seed}: reply order diverged between modes"
        );
        let model = expected_balances(&jobs);
        for i in 0..ACCOUNTS {
            assert_eq!(bank::balance(&locked, i).unwrap(), model[i as usize]);
            assert_eq!(
                bank::balance(&planned, i).unwrap(),
                model[i as usize],
                "seed {seed}: planned balance diverged on account {i}"
            );
        }
        assert_clean(&locked, "locked");
        assert_clean(&planned, "planned");
        let stats = pool.stats();
        assert_eq!(stats.committed, jobs.len() as u64);
        assert_eq!(stats.misspeculations, 0, "honest access sets never abort");
    }
}

/// Unplannable and malformed requests ride the solo path (after the
/// lock-free tasks of their epoch), so reply *order* may legally differ —
/// the reply multiset and every balance may not.
#[test]
fn mixed_solo_workload_matches_locked_final_state() {
    for seed in 0..8u64 {
        let jobs = gen_jobs(seed, 24, false);

        let locked = open("mixed-locked", RepoDisks::new(), ExecMode::Locked);
        enqueue_jobs(&locked, &jobs);
        run_locked(&locked, jobs.len() as u64);

        let planned = open("mixed-planned", RepoDisks::new(), ExecMode::Planned);
        enqueue_jobs(&planned, &jobs);
        let mut cfg = PlannedConfig::new("pl", REQ);
        cfg.batch_max = 6;
        let pool = PlannedPool::new(
            Arc::clone(&planned),
            cfg,
            bank::single_txn_handler(),
            bank::transfer_access(),
        )
        .unwrap();
        run_planned_inline(&pool, &planned);

        let sorted = |mut v: Vec<Reply>| {
            v.sort_by_key(|r| r.rid.serial);
            v.iter()
                .map(|r| (r.rid.clone(), r.status, r.body.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            sorted(drain_replies(&locked)),
            sorted(drain_replies(&planned)),
            "seed {seed}: reply multiset diverged"
        );
        let model = expected_balances(&jobs);
        for i in 0..ACCOUNTS {
            assert_eq!(bank::balance(&planned, i).unwrap(), model[i as usize]);
        }
        assert!(
            pool.stats().solo > 0,
            "seed {seed}: workload grew no solo tasks"
        );
        assert_clean(&planned, "planned");
    }
}

/// Crashes inside every epoch window: the hook abandons epoch 1 mid-flight
/// (exactly the state a crash at that boundary leaves), the disks lose
/// their volatile bytes, and recovery + a fresh pool must finish the
/// workload exactly-once — each request replied to once, money conserved.
#[test]
fn crash_in_every_epoch_window_preserves_exactly_once() {
    for (wi, window) in [EpochWindow::Plan, EpochWindow::Execute, EpochWindow::Commit]
        .into_iter()
        .enumerate()
    {
        for seed in 0..6u64 {
            let jobs = gen_jobs(seed.wrapping_add(100 * wi as u64), 20, true);
            let disks = RepoDisks::new();
            let repo = open("crashwin", disks.clone(), ExecMode::Planned);
            enqueue_jobs(&repo, &jobs);

            let mut cfg = PlannedConfig::new("pl-i1", REQ);
            cfg.batch_max = 4;
            let pool = PlannedPool::new(
                Arc::clone(&repo),
                cfg,
                bank::single_txn_handler(),
                bank::transfer_access(),
            )
            .unwrap();
            pool.set_epoch_hook(Arc::new(move |epoch, w| epoch == 1 && w == window));
            // Epoch 1 is abandoned at the window; a second epoch would run
            // clean, so crash right here.
            assert_eq!(pool.run_epoch().unwrap(), 0, "hook must abandon epoch 1");
            drop(pool);
            drop(repo);
            disks.crash();

            let opts = RepoOptions {
                exec_mode: ExecMode::Planned,
                ..RepoOptions::default()
            };
            let (repo, _) = Repository::open_with("crashwin", disks, opts).unwrap();
            let repo = Arc::new(repo);
            let mut cfg = PlannedConfig::new("pl-i2", REQ);
            cfg.batch_max = 4;
            let pool = PlannedPool::new(
                Arc::clone(&repo),
                cfg,
                bank::single_txn_handler(),
                bank::transfer_access(),
            )
            .unwrap();
            run_planned_inline(&pool, &repo);

            let mut replies = drain_replies(&repo);
            replies.sort_by_key(|r| r.rid.serial);
            assert_eq!(
                replies.iter().map(|r| r.rid.serial).collect::<Vec<_>>(),
                (1..=jobs.len() as u64).collect::<Vec<_>>(),
                "{window:?} seed {seed}: requests not replied to exactly once"
            );
            assert!(replies.iter().all(|r| r.status == ReplyStatus::Ok));
            let model = expected_balances(&jobs);
            for i in 0..ACCOUNTS {
                assert_eq!(
                    bank::balance(&repo, i).unwrap(),
                    model[i as usize],
                    "{window:?} seed {seed}: balance diverged on account {i}"
                );
            }
            assert_eq!(
                bank::total_money(&repo, ACCOUNTS).unwrap(),
                i64::from(ACCOUNTS) * INITIAL
            );
            assert_clean(&repo, "recovered");
        }
    }
}

/// A 4-worker execute phase reaches the inline mode's final state (order
/// across disjoint keys is scheduling-dependent; state is not).
#[test]
fn worker_pool_matches_inline_final_state() {
    for seed in 0..4u64 {
        let jobs = gen_jobs(seed.wrapping_add(7000), 40, true);

        let inline = open("pool-inline", RepoDisks::new(), ExecMode::Planned);
        enqueue_jobs(&inline, &jobs);
        let mut cfg = PlannedConfig::new("pl", REQ);
        cfg.batch_max = 8;
        let pool = PlannedPool::new(
            Arc::clone(&inline),
            cfg,
            bank::single_txn_handler(),
            bank::transfer_access(),
        )
        .unwrap();
        run_planned_inline(&pool, &inline);

        let pooled = open("pool-workers", RepoDisks::new(), ExecMode::Planned);
        enqueue_jobs(&pooled, &jobs);
        let mut cfg = PlannedConfig::new("plw", REQ);
        cfg.batch_max = 8;
        cfg.workers = 4;
        let pool = PlannedPool::new(
            Arc::clone(&pooled),
            cfg,
            bank::single_txn_handler(),
            bank::transfer_access(),
        )
        .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let threads = pool.spawn(Arc::clone(&stop));
        while pooled.qm().depth(REPLY).unwrap() < jobs.len() {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
        for t in threads {
            t.join().unwrap();
        }

        let sorted = |mut v: Vec<Reply>| {
            v.sort_by_key(|r| r.rid.serial);
            v.iter()
                .map(|r| (r.rid.clone(), r.status, r.body.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            sorted(drain_replies(&inline)),
            sorted(drain_replies(&pooled))
        );
        let model = expected_balances(&jobs);
        for i in 0..ACCOUNTS {
            assert_eq!(bank::balance(&pooled, i).unwrap(), model[i as usize]);
        }
        assert_clean(&pooled, "pooled");
    }
}

/// An access oracle that deliberately under-declares (only the `from`
/// account): every transfer with `from != to` trips `OutsidePlan` on the
/// credit, aborts, and replans with the widened scope — and the workload
/// still converges to the correct state with the retries on the record.
#[test]
fn misspeculation_replans_and_converges() {
    let jobs: Vec<Job> = (1..=12u64)
        .map(|serial| Job {
            serial,
            op: "transfer",
            body: Transfer {
                from: (serial % u64::from(ACCOUNTS)) as u32,
                to: ((serial + 1) % u64::from(ACCOUNTS)) as u32,
                amount: 100,
            }
            .encode(),
        })
        .collect();
    let repo = open("misspec", RepoDisks::new(), ExecMode::Planned);
    enqueue_jobs(&repo, &jobs);

    let lying_access: rrq_core::planned::AccessFn = Arc::new(|req: &Request| {
        let t = Transfer::decode(&req.body).ok()?;
        Some(vec![LockKey::new(
            bank::BANK_NS,
            bank::account_cell(t.from),
        )])
    });
    let mut cfg = PlannedConfig::new("pl", REQ);
    cfg.batch_max = 4;
    let pool = PlannedPool::new(
        Arc::clone(&repo),
        cfg,
        bank::single_txn_handler(),
        lying_access,
    )
    .unwrap();
    run_planned_inline(&pool, &repo);

    let stats = pool.stats();
    assert!(
        stats.replans >= jobs.len() as u64,
        "every transfer must misspeculate once: {stats:?}"
    );
    assert!(stats.misspeculations >= stats.replans);
    assert_eq!(stats.committed, jobs.len() as u64);
    let replies = drain_replies(&repo);
    assert_eq!(replies.len(), jobs.len());
    let model = expected_balances(&jobs);
    for i in 0..ACCOUNTS {
        assert_eq!(bank::balance(&repo, i).unwrap(), model[i as usize]);
    }
    assert_clean(&repo, "misspec");
}

/// Directed regression for the `open_with` compatibility check: planned
/// execution cannot span shared-nothing partitions (S25, the epoch
/// durability point covers only the home partition).
#[test]
fn planned_mode_rejects_incompatible_options() {
    let partitioned = RepoOptions {
        exec_mode: ExecMode::Planned,
        repo_partitions: 2,
        ..RepoOptions::default()
    };
    match Repository::open_with("bad-parts", RepoDisks::new(), partitioned) {
        Err(QmError::IncompatibleOptions(msg)) => {
            assert!(msg.contains("repo_partitions"), "got: {msg}")
        }
        other => panic!(
            "expected IncompatibleOptions, got {:?}",
            other.err().map(|e| e.to_string())
        ),
    }

    // And a pool on a locked repository is a construction error, not a
    // silent fight with the dispensing servers.
    let locked = open("pool-on-locked", RepoDisks::new(), ExecMode::Locked);
    assert!(PlannedPool::new(
        Arc::clone(&locked),
        PlannedConfig::new("pl", REQ),
        bank::single_txn_handler(),
        bank::transfer_access(),
    )
    .is_err());
}
