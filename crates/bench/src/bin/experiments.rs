//! The experiment harness: regenerates every experiment in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p rrq-bench --bin experiments            # all
//! cargo run --release -p rrq-bench --bin experiments -- e3 e9   # a subset
//! cargo run --release -p rrq-bench --bin experiments -- --quick # smaller sweeps
//! ```
//!
//! Each experiment prints a markdown table; EXPERIMENTS.md records the
//! paper-claim vs. the measured shape.

use rrq_bench::fmt_rate;
use rrq_core::api::{LocalQm, QmApi};
use rrq_core::app_lock::AppLockTable;
use rrq_core::clerk::{Clerk, ClerkConfig};
use rrq_core::client::ReplyProcessor;
use rrq_core::conversation::IoLog;
use rrq_core::designs::{self, DesignWorkload};
use rrq_core::device::TicketPrinter;
use rrq_core::pipeline::{Pipeline, Serializability, StageFn, StageResult};
use rrq_core::remote::{QmRpcServer, RemoteQm};
use rrq_core::request::{Reply, Request};
use rrq_core::rid::Rid;
use rrq_core::server::{spawn_pool, Handler, HandlerError, HandlerOutcome};
use rrq_net::NetworkBus;
use rrq_qm::meta::{OrderingMode, QueueMeta};
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::repository::{RepoDisks, RepoOptions, Repository};
use rrq_sim::driver::{ClientCrashDriver, CrashPoint};
use rrq_sim::node::ServerNodeSim;
use rrq_sim::oracle::EffectLedger;
use rrq_sim::schedule::CrashSchedule;
use rrq_storage::codec::Encode;
use rrq_storage::disk::{CrashStyle, Disk, LatencyDisk, SimDisk};
use rrq_storage::kv::{KvOptions, KvStore};
use rrq_txn::{LockKey, LockMode};
use rrq_workload::arrivals::{bursty_arrivals, ZipfSelector};
use rrq_workload::bank::{self, Transfer};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Scale {
    /// Multiplier applied to request counts (quick mode halves twice).
    n: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = Scale {
        n: if quick { 1 } else { 4 },
    };
    let wanted: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_lowercase())
        .collect();
    let run = |id: &str| wanted.is_empty() || wanted.iter().any(|w| w == id);

    println!("# Recoverable-request experiments (quick={quick})\n");
    if run("e1") {
        e1_client_resync(&scale);
    }
    if run("e2") {
        e2_queue_ops();
    }
    if run("e3") {
        e3_design_comparison(&scale);
    }
    if run("e4") {
        e4_end_to_end(&scale);
    }
    if run("e5") {
        e5_multi_txn(&scale);
    }
    if run("e6") {
        e6_request_serializability(&scale);
    }
    if run("e7") {
        e7_cancellation(&scale);
    }
    if run("e8") {
        e8_interactive(&scale);
    }
    if run("e9") {
        e9_dequeue_ordering(&scale);
    }
    if run("e10") {
        e10_registration(&scale);
    }
    if run("e11") {
        e11_burst_and_load_sharing(&scale);
    }
    if run("e12") {
        e12_send_modes(&scale);
    }
    if run("e13") {
        e13_storage(&scale);
    }
    if run("e14") {
        e14_testable_device(&scale);
    }
    if run("e16") {
        e16_group_commit_and_index(&scale);
    }
    if run("e17") {
        e17_observability(&scale);
    }
    if run("e18") {
        e18_shard_contention(&scale, smoke);
    }
    if run("e19") {
        e19_partitioned_wal(&scale, smoke);
    }
    if run("e21") {
        e21_partition_scaling(&scale, smoke);
    }
    if run("e22") {
        e22_planned_crossover(&scale, smoke);
    }
}

fn mk_repo(name: &str, queues: &[&str]) -> Arc<Repository> {
    let repo = Arc::new(Repository::create(name).unwrap());
    for q in queues {
        repo.create_queue_defaults(q).unwrap();
    }
    repo
}

fn mk_clerk(repo: &Arc<Repository>, client: &str) -> Clerk {
    let api = Arc::new(LocalQm::new(Arc::clone(repo)));
    let mut cfg = ClerkConfig::new(client, "req");
    cfg.reply_queue = format!("reply.{client}");
    cfg.receive_block = Duration::from_secs(20);
    Clerk::new(api, cfg)
}

// ======================================================================
// E1 — Fig 1/2: client resynchronization under crash-probability sweep
// ======================================================================
fn e1_client_resync(scale: &Scale) {
    println!("## E1 — client resynchronization (Figs 1–2)\n");
    println!("| crash prob | requests | incarnations | resync recv | resync reproc | already done | dup prints | exactly-once |");
    println!("|-----------:|---------:|-------------:|------------:|--------------:|-------------:|-----------:|:-------------|");
    let n = 10 * scale.n;
    for prob in [0.0, 0.25, 0.5, 0.9] {
        let name = format!("e1-{}", (prob * 100.0) as u32);
        let repo = mk_repo(&name, &["req", "reply.c"]);
        let handler = EffectLedger::instrument(Arc::new(|_ctx, req: &Request| {
            Ok(HandlerOutcome::Reply(
                format!("r{}", req.rid.serial).into_bytes(),
            ))
        }));
        let (_s, handles, stop) = spawn_pool(&repo, "req", 2, handler).unwrap();
        let schedule = CrashSchedule::random(n, prob, 42);
        let driver = ClientCrashDriver::new(|| mk_clerk(&repo, "c"), "op");
        let mut printer = TicketPrinter::new();
        let report = driver
            .run(n, |s| schedule.get(s), |s| vec![s as u8], &mut printer)
            .unwrap();
        stop.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        let expected: Vec<Rid> = (1..=n).map(|s| Rid::new("c", s)).collect();
        let violations = EffectLedger::violations(&repo, &expected).unwrap();
        println!(
            "| {prob:>10.2} | {n:>8} | {:>12} | {:>11} | {:>13} | {:>12} | {:>10} | {} |",
            report.incarnations,
            report.resync_received,
            report.resync_reprocessed,
            report.resync_already_processed,
            if printer.has_duplicate_prints() {
                "YES"
            } else {
                "0"
            },
            if violations.is_empty() {
                "HOLDS"
            } else {
                "VIOLATED"
            },
        );
    }
    println!();
}

// ======================================================================
// E2 — Fig 3: queue operation latencies (quick in-binary timing)
// ======================================================================
fn e2_queue_ops() {
    println!("## E2 — queue operation latency (Fig 3; see also `cargo bench queue_ops`)\n");
    println!("| operation | µs/op |");
    println!("|:----------|------:|");
    let repo = mk_repo("e2", &["q"]);
    let (h, _) = repo.qm().register("q", "c", false).unwrap();
    let iters = 2_000u32;

    let t0 = Instant::now();
    for _ in 0..iters {
        repo.autocommit(|t| {
            repo.qm().enqueue(
                t.id().raw(),
                &h,
                b"payload-64-bytes",
                EnqueueOptions::default(),
            )
        })
        .unwrap();
    }
    println!(
        "| Enqueue (txn commit incl.) | {:>5.1} |",
        t0.elapsed().as_micros() as f64 / iters as f64
    );

    let t0 = Instant::now();
    for _ in 0..iters {
        repo.autocommit(|t| {
            repo.qm()
                .dequeue(t.id().raw(), &h, DequeueOptions::default())
        })
        .unwrap();
    }
    println!(
        "| Dequeue (txn commit incl.) | {:>5.1} |",
        t0.elapsed().as_micros() as f64 / iters as f64
    );

    let eid = repo
        .autocommit(|t| {
            repo.qm()
                .enqueue(t.id().raw(), &h, b"x", EnqueueOptions::default())
        })
        .unwrap();
    let t0 = Instant::now();
    for _ in 0..iters {
        repo.qm().read(eid).unwrap();
    }
    println!(
        "| Read                       | {:>5.1} |",
        t0.elapsed().as_micros() as f64 / iters as f64
    );

    let t0 = Instant::now();
    for _ in 0..500 {
        repo.qm().register("q", "c", false).unwrap();
    }
    println!(
        "| Register (existing)        | {:>5.1} |",
        t0.elapsed().as_micros() as f64 / 500.0
    );
    println!();
}

// ======================================================================
// E3 — §2: one-txn vs two-txn vs queued three-txn designs
// ======================================================================
fn e3_design_comparison(scale: &Scale) {
    println!("## E3 — §2 design comparison (think time under locks)\n");
    println!("| think ms | one-txn req/s | two-txn req/s | queued req/s | one-txn conflicts |");
    println!("|---------:|--------------:|--------------:|-------------:|------------------:|");
    for think_ms in [0u64, 2, 5, 10] {
        let w = DesignWorkload {
            accounts: 2,
            clients: 8,
            requests_per_client: (3 * scale.n) as usize,
            think: Duration::from_millis(think_ms),
            seed: 11,
        };
        let r1 = {
            let repo = Arc::new(Repository::create(format!("e3-one-{think_ms}")).unwrap());
            designs::seed_accounts(&repo, w.accounts).unwrap();
            repo.tm().set_lock_timeout(Duration::from_secs(30));
            designs::run_one_txn(&repo, &w).unwrap()
        };
        let r2 = {
            let repo = Arc::new(Repository::create(format!("e3-two-{think_ms}")).unwrap());
            designs::seed_accounts(&repo, w.accounts).unwrap();
            repo.tm().set_lock_timeout(Duration::from_secs(30));
            designs::run_two_txn(&repo, &w).unwrap()
        };
        let r3 = {
            let repo = Arc::new(Repository::create(format!("e3-q-{think_ms}")).unwrap());
            designs::seed_accounts(&repo, w.accounts).unwrap();
            repo.tm().set_lock_timeout(Duration::from_secs(30));
            designs::run_queued(&repo, &w, 4).unwrap()
        };
        println!(
            "| {think_ms:>8} | {} | {} | {} | {:>17} |",
            fmt_rate(r1.throughput),
            fmt_rate(r2.throughput),
            fmt_rate(r3.throughput),
            r1.lock_conflicts
        );
    }
    println!();
}

// ======================================================================
// E4 — Figs 4/5: end-to-end throughput; exactly-once under node crashes
// ======================================================================
fn e4_end_to_end(scale: &Scale) {
    println!("## E4 — system-model throughput and server-crash tolerance (Figs 4–5)\n");
    println!("| servers | req/s |");
    println!("|--------:|------:|");
    let n = (60 * scale.n) as usize;
    for servers in [1usize, 2, 4, 8] {
        let repo = mk_repo(&format!("e4-{servers}"), &["req", "reply.c"]);
        let handler: Handler = Arc::new(|_ctx, req| {
            // A small CPU cost so servers matter.
            std::thread::sleep(Duration::from_micros(300));
            Ok(HandlerOutcome::Reply(req.body.clone()))
        });
        let (_s, handles, stop) = spawn_pool(&repo, "req", servers, handler).unwrap();
        let api = LocalQm::new(Arc::clone(&repo));
        api.register("req", "c", false).unwrap();
        api.register("reply.c", "c", false).unwrap();
        let t0 = Instant::now();
        for i in 0..n {
            let req = Request::new(Rid::new("c", i as u64 + 1), "reply.c", "op", vec![]);
            api.enqueue("req", "c", &req.encode_to_vec(), EnqueueOptions::default())
                .unwrap();
        }
        for _ in 0..n {
            api.dequeue(
                "reply.c",
                "c",
                DequeueOptions {
                    block: Some(Duration::from_secs(60)),
                    ..Default::default()
                },
            )
            .unwrap();
        }
        let rate = n as f64 / t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        println!("| {servers:>7} | {} |", fmt_rate(rate));
    }

    println!("\n| node crashes | requests | replies | exactly-once |");
    println!("|-------------:|---------:|--------:|:-------------|");
    let handler_factory: Arc<dyn Fn() -> Handler + Send + Sync> = Arc::new(|| {
        EffectLedger::instrument(Arc::new(|_ctx, req: &Request| {
            Ok(HandlerOutcome::Reply(req.body.clone()))
        }))
    });
    let mut node = ServerNodeSim::new(
        "e4-crashy",
        "req",
        2,
        vec!["req".into(), "reply.c".into()],
        handler_factory,
    );
    node.start().unwrap();
    let total = 8 * scale.n;
    let mut sent = 0u64;
    let mut received = 0u64;
    let mut expected = Vec::new();
    while received < total {
        let api = LocalQm::new(node.repo());
        api.register("req", "c", false).unwrap();
        api.register("reply.c", "c", false).unwrap();
        while sent < total && sent < received + 4 {
            sent += 1;
            let rid = Rid::new("c", sent);
            expected.push(rid.clone());
            let req = Request::new(rid, "reply.c", "op", vec![]);
            api.enqueue("req", "c", &req.encode_to_vec(), EnqueueOptions::default())
                .unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
        node.crash();
        node.start().unwrap();
        let api = LocalQm::new(node.repo());
        while received < total {
            match api.dequeue(
                "reply.c",
                "c",
                DequeueOptions {
                    block: Some(Duration::from_millis(300)),
                    ..Default::default()
                },
            ) {
                Ok(_) => received += 1,
                Err(_) => break,
            }
        }
    }
    let violations = EffectLedger::violations(&node.repo(), &expected).unwrap();
    println!(
        "| {:>12} | {total:>8} | {received:>7} | {} |",
        node.crash_count(),
        if violations.is_empty() {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
    println!();
}

// ======================================================================
// E5 — Fig 6 / §6: multi-transaction requests vs one long transaction
// ======================================================================
fn e5_multi_txn(scale: &Scale) {
    println!(
        "## E5 — funds transfer: one long transaction vs three chained transactions (Fig 6)\n"
    );
    println!("The paper's motivation for multi-transaction requests is lock contention:");
    println!("the long transaction holds BOTH account locks for the whole request, the");
    println!("pipeline holds each lock for one stage only. Accounts are hot (4 total).\n");
    println!("| stage cost µs | single-txn req/s | 3-txn pipeline req/s | pipeline/single |");
    println!("|--------------:|-----------------:|---------------------:|----------------:|");
    let n = 20 * scale.n;
    const ACCOUNTS: u32 = 4;
    for stage_us in [0u64, 500, 2000] {
        // Single fat transaction: the per-stage work happens while both
        // account locks are held.
        let single = {
            let repo = mk_repo(&format!("e5-s-{stage_us}"), &["req", "reply.c"]);
            repo.qm()
                .update_queue("req", |m| m.retry_limit = 0)
                .unwrap();
            repo.tm().set_lock_timeout(Duration::from_secs(60));
            bank::seed_accounts(&repo, ACCOUNTS, 1_000_000).unwrap();
            let inner = bank::single_txn_handler();
            let handler: Handler = Arc::new(move |ctx, req| {
                let out = inner(ctx, req)?; // takes both locks
                std::thread::sleep(Duration::from_micros(3 * stage_us));
                Ok(out)
            });
            let (_s, handles, stop) = spawn_pool(&repo, "req", 3, handler).unwrap();
            let rate = drive_transfers(&repo, "req", n, ACCOUNTS);
            stop.store(true, Ordering::Release);
            for h in handles {
                h.join().unwrap();
            }
            rate
        };
        // Three-transaction pipeline: each stage holds one account lock for
        // one stage's worth of work.
        let pipelined = {
            let repo = mk_repo(&format!("e5-p-{stage_us}"), &["x0", "x1", "x2", "reply.c"]);
            for q in ["x0", "x1", "x2"] {
                repo.qm().update_queue(q, |m| m.retry_limit = 0).unwrap();
            }
            repo.tm().set_lock_timeout(Duration::from_secs(60));
            bank::seed_accounts(&repo, ACCOUNTS, 1_000_000).unwrap();
            let base = bank::transfer_pipeline(["x0", "x1", "x2"], Serializability::None);
            let inner = base.stage_fn;
            let stage_fn: StageFn = Arc::new(move |ctx, req, i| {
                let out = inner(ctx, req, i)?; // takes this stage's lock
                std::thread::sleep(Duration::from_micros(stage_us));
                Ok(out)
            });
            let pipeline = Pipeline {
                queues: base.queues,
                stage_fn,
                mode: Serializability::None,
            };
            let servers = pipeline.build_servers(&repo).unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let handles: Vec<_> = servers.iter().map(|s| s.spawn(Arc::clone(&stop))).collect();
            let rate = drive_transfers(&repo, "x0", n, ACCOUNTS);
            stop.store(true, Ordering::Release);
            for h in handles {
                h.join().unwrap();
            }
            rate
        };
        println!(
            "| {stage_us:>13} | {} | {} | {:>15.2} |",
            fmt_rate(single),
            fmt_rate(pipelined),
            pipelined / single
        );
    }
    println!();
}

fn drive_transfers(repo: &Arc<Repository>, entry: &str, n: u64, accounts: u32) -> f64 {
    let api = LocalQm::new(Arc::clone(repo));
    api.register(entry, "c", false).unwrap();
    api.register("reply.c", "c", false).unwrap();
    let t0 = Instant::now();
    for i in 0..n {
        let from = (i % accounts as u64) as u32;
        let t = Transfer {
            from,
            to: (from + 1) % accounts,
            amount: 10,
        };
        let req = Request::new(Rid::new("c", i + 1), "reply.c", "transfer", t.encode());
        api.enqueue(entry, "c", &req.encode_to_vec(), EnqueueOptions::default())
            .unwrap();
    }
    for _ in 0..n {
        api.dequeue(
            "reply.c",
            "c",
            DequeueOptions {
                block: Some(Duration::from_secs(120)),
                ..Default::default()
            },
        )
        .unwrap();
    }
    n as f64 / t0.elapsed().as_secs_f64()
}

// ======================================================================
// E6 — §6: request-level serializability mechanisms
// ======================================================================
fn e6_request_serializability(scale: &Scale) {
    println!(
        "## E6 — request serializability: none vs lock inheritance vs application locks (§6)\n"
    );
    println!("| contention θ | none req/s | inherit-locks req/s | app-locks req/s |");
    println!("|-------------:|-----------:|--------------------:|----------------:|");
    let n = 10 * scale.n;
    for theta in [0.0f64, 0.7, 0.95] {
        let mut rates = Vec::new();
        for mode_name in ["none", "inherit", "applock"] {
            let repo = mk_repo(
                &format!("e6-{mode_name}-{}", (theta * 100.0) as u32),
                &["x0", "x1", "x2", "reply.c"],
            );
            // Busy app-locks abort and retry; never exile to the error
            // queue, and rotate retried elements to the back so a blocked
            // head cannot livelock the stage (see pipeline docs).
            for q in ["x0", "x1", "x2"] {
                repo.qm()
                    .update_queue(q, |m| {
                        m.retry_limit = 0;
                        m.requeue_at_back_on_abort = true;
                    })
                    .unwrap();
            }
            bank::seed_accounts(&repo, 32, 1_000_000).unwrap();
            // Short lock waits: with lock inheritance, a stage server can
            // block behind locks parked by a request queued BEHIND the one
            // it is processing (head-of-line inversion); a quick timeout
            // aborts the stage so the queue reorders and progress resumes.
            repo.tm().set_lock_timeout(Duration::from_millis(100));
            let pipeline = match mode_name {
                "none" => bank::transfer_pipeline(["x0", "x1", "x2"], Serializability::None),
                "inherit" => {
                    bank::transfer_pipeline(["x0", "x1", "x2"], Serializability::InheritLocks)
                }
                _ => app_lock_pipeline(&repo),
            };
            // Two servers per stage: required for progress under lock
            // inheritance (see Pipeline::build_servers_pool docs) and the
            // same for every mode so the comparison stays fair.
            let servers = pipeline.build_servers_pool(&repo, 2).unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let handles: Vec<_> = servers.iter().map(|s| s.spawn(Arc::clone(&stop))).collect();

            let api = LocalQm::new(Arc::clone(&repo));
            api.register("x0", "c", false).unwrap();
            api.register("reply.c", "c", false).unwrap();
            let mut zipf = ZipfSelector::new(32, theta, 99);
            let t0 = Instant::now();
            for i in 0..n {
                let from = zipf.next() as u32;
                let to = (zipf.next() as u32 + 1) % 32;
                let t = Transfer {
                    from,
                    to: if to == from { (to + 1) % 32 } else { to },
                    amount: 5,
                };
                let req = Request::new(Rid::new("c", i + 1), "reply.c", "transfer", t.encode());
                api.enqueue("x0", "c", &req.encode_to_vec(), EnqueueOptions::default())
                    .unwrap();
            }
            for i in 0..n {
                let r = api.dequeue(
                    "reply.c",
                    "c",
                    DequeueOptions {
                        block: Some(Duration::from_secs(30)),
                        ..Default::default()
                    },
                );
                if let Err(e) = r {
                    for q in ["x0", "x1", "x2", "reply.c"] {
                        eprintln!(
                            "E6 DIAG mode={mode_name} θ={theta} reply {i}/{n}: depth({q}) = {:?}",
                            api.depth(q)
                        );
                    }
                    panic!("E6 reply dequeue failed: {e:?}");
                }
            }
            rates.push(n as f64 / t0.elapsed().as_secs_f64());
            stop.store(true, Ordering::Release);
            for h in handles {
                h.join().unwrap();
            }
        }
        println!(
            "| {theta:>12.2} | {} | {} | {} |",
            fmt_rate(rates[0]),
            fmt_rate(rates[1]),
            fmt_rate(rates[2])
        );
    }
    println!();
}

/// A transfer pipeline using the §6 persistent application-lock table:
/// stage 0 locks both accounts for the request; the final stage releases.
fn app_lock_pipeline(repo: &Arc<Repository>) -> Pipeline {
    let table = Arc::new(AppLockTable::new(Arc::clone(repo.store())));
    let stage_fn: StageFn = Arc::new(move |ctx, req, i| {
        let t = Transfer::decode(&req.body).map_err(|e| HandlerError::Reject(e.to_string()))?;
        let txn = ctx.txn.id().raw();
        match i {
            0 => {
                for acct in [t.from, t.to] {
                    let got = table
                        .acquire(txn, &format!("acct-{acct}"), &req.rid)
                        .map_err(|e| HandlerError::Abort(e.to_string()))?;
                    if !got {
                        return Err(HandlerError::Abort("app lock busy".into()));
                    }
                }
                adjust_balance(ctx, t.from, -t.amount)?;
                Ok(StageResult::Next(vec![]))
            }
            1 => {
                adjust_balance(ctx, t.to, t.amount)?;
                Ok(StageResult::Next(vec![]))
            }
            _ => {
                table
                    .release_all(txn, &req.rid)
                    .map_err(|e| HandlerError::Abort(e.to_string()))?;
                Ok(StageResult::Done(b"transferred".to_vec()))
            }
        }
    });
    Pipeline {
        queues: vec!["x0".into(), "x1".into(), "x2".into()],
        stage_fn,
        mode: Serializability::None,
    }
}

fn adjust_balance(
    ctx: &rrq_core::server::ServerCtx<'_>,
    acct: u32,
    delta: i64,
) -> Result<(), HandlerError> {
    let key = format!("bank/acct/{acct:08}").into_bytes();
    ctx.txn
        .lock_exclusive(&LockKey::new(bank::BANK_NS, key.clone()))
        .map_err(|e| HandlerError::Abort(e.to_string()))?;
    let txn = ctx.txn.id().raw();
    let bal = ctx
        .repo
        .store()
        .get(Some(txn), &key)
        .map_err(|e| HandlerError::Abort(e.to_string()))?
        .map(|raw| i64::from_le_bytes(raw.try_into().unwrap_or([0; 8])))
        .unwrap_or(0);
    ctx.repo
        .store()
        .put(txn, &key, &(bal + delta).to_le_bytes())
        .map_err(|e| HandlerError::Abort(e.to_string()))
}

// ======================================================================
// E7 — §7: cancellation success vs request progress
// ======================================================================
fn e7_cancellation(scale: &Scale) {
    println!("## E7 — cancellation window (§7)\n");
    println!("| cancel delay ms | cancelled | too late | effects committed |");
    println!("|----------------:|----------:|---------:|------------------:|");
    let per_point = 4 * scale.n;
    for delay_ms in [0u64, 5, 20, 60] {
        let repo = mk_repo(&format!("e7-{delay_ms}"), &["req", "reply.c"]);
        let handler = EffectLedger::instrument(Arc::new(|_ctx, req: &Request| {
            std::thread::sleep(Duration::from_millis(15)); // processing time
            Ok(HandlerOutcome::Reply(req.body.clone()))
        }));
        let (_s, handles, stop) = spawn_pool(&repo, "req", 1, handler).unwrap();
        let clerk = mk_clerk(&repo, "c");
        clerk.connect().unwrap();
        let mut cancelled = 0u64;
        let mut too_late = 0u64;
        for i in 0..per_point {
            clerk.send("op", vec![], Rid::new("c", i + 1)).unwrap();
            std::thread::sleep(Duration::from_millis(delay_ms));
            if clerk.cancel_last_request().unwrap() {
                cancelled += 1;
                // No reply will come; proceed directly.
            } else {
                too_late += 1;
                let _ = clerk.receive(b"").unwrap();
            }
            // Drain any stray replies (cancel raced with the reply enqueue).
            while repo.qm().depth("reply.c").unwrap_or(0) > 0 {
                let _ = repo.autocommit(|t| {
                    let (h, _) = repo.qm().register("reply.c", "c", true)?;
                    repo.qm()
                        .dequeue(t.id().raw(), &h, DequeueOptions::default())
                });
            }
        }
        stop.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        let effects = EffectLedger::counts(&repo).unwrap().len() as u64;
        println!("| {delay_ms:>15} | {cancelled:>9} | {too_late:>8} | {effects:>17} |");
    }
    println!();
}

// ======================================================================
// E8 — §8: interactive requests
// ======================================================================
fn e8_interactive(scale: &Scale) {
    println!("## E8 — interactive requests: I/O-log replay under server aborts (§8.3)\n");
    println!("| aborts per request | rounds | user asked | replayed | divergences |");
    println!("|-------------------:|-------:|-----------:|---------:|------------:|");
    let rounds = 3u32;
    for aborts in [0u32, 1, 3] {
        let bus = NetworkBus::new(31 + aborts as u64);
        let repo = mk_repo(&format!("e8-{aborts}"), &["req", "reply.c"]);
        let log = Arc::new(IoLog::new());
        let asked = Arc::new(AtomicU32::new(0));
        let asked2 = Arc::clone(&asked);
        let user: rrq_core::conversation::UserFn = Arc::new(move |p| {
            asked2.fetch_add(1, Ordering::AcqRel);
            p.to_vec()
        });
        let _guard = rrq_core::conversation::spawn_conversation_endpoint(
            &bus,
            "conv-client",
            Arc::clone(&log),
            user,
        );
        let attempts = Arc::new(AtomicU32::new(0));
        let attempts2 = Arc::clone(&attempts);
        let bus2 = bus.clone();
        let handler: Handler = Arc::new(move |_ctx, req| {
            use rrq_core::conversation::{Conversation, RpcConversation};
            let n = attempts2.fetch_add(1, Ordering::AcqRel);
            let rpc =
                rrq_net::rpc::RpcClient::new(&bus2, &format!("conv-srv-{}-{n}", req.rid.serial));
            let mut conv = RpcConversation::new(rpc, "conv-client", req.rid.to_attr());
            let mut collected = Vec::new();
            for r in 0..rounds {
                let input = conv.solicit(format!("q{r}?").as_bytes())?;
                collected.extend_from_slice(&input);
            }
            if n < aborts {
                return Err(HandlerError::Abort("injected".into()));
            }
            Ok(HandlerOutcome::Reply(collected))
        });
        // Raise the retry limit so injected aborts never exile the request.
        repo.qm()
            .update_queue("req", |m| m.retry_limit = 50)
            .unwrap();
        let (_s, handles, stop) = spawn_pool(&repo, "req", 1, handler).unwrap();

        let n_requests = scale.n.max(2);
        let clerk = mk_clerk(&repo, "c");
        clerk.connect().unwrap();
        for i in 0..n_requests {
            // Reset per-request attempt counter so each request aborts
            // `aborts` times.
            attempts.store(0, Ordering::Release);
            clerk
                .send("converse", vec![], Rid::new("c", i + 1))
                .unwrap();
            let _ = clerk.receive(b"").unwrap();
        }
        stop.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        let s = log.stats();
        println!(
            "| {aborts:>18} | {rounds:>6} | {:>10} | {:>8} | {:>11} |",
            asked.load(Ordering::Acquire),
            s.replayed,
            s.divergences
        );
    }
    println!();
}

// ======================================================================
// E9 — §10: skip-locked vs strict-FIFO dequeue under concurrency
// ======================================================================
fn e9_dequeue_ordering(scale: &Scale) {
    println!("## E9 — dequeue ordering: skip-locked vs strict FIFO (§10)\n");
    println!("| dequeuers | skip-locked el/s | strict-FIFO el/s | skip/strict |");
    println!("|----------:|-----------------:|-----------------:|------------:|");
    let elements = (150 * scale.n) as usize;
    for threads in [1usize, 2, 4, 8] {
        let mut rates = Vec::new();
        for mode in [OrderingMode::SkipLocked, OrderingMode::StrictFifo] {
            let repo = Arc::new(Repository::create(format!("e9-{threads}-{mode:?}")).unwrap());
            let mut meta = QueueMeta::with_defaults("q");
            meta.mode = mode;
            repo.qm().create_queue(meta).unwrap();
            let (h, _) = repo.qm().register("q", "filler", false).unwrap();
            for i in 0..elements {
                repo.autocommit(|t| {
                    repo.qm().enqueue(
                        t.id().raw(),
                        &h,
                        &i.to_le_bytes(),
                        EnqueueOptions::default(),
                    )
                })
                .unwrap();
            }
            let t0 = Instant::now();
            let mut handles = Vec::new();
            for d in 0..threads {
                let repo = Arc::clone(&repo);
                handles.push(rrq_core::threads::spawn_named(
                    format!("e13-d{d}"),
                    move || {
                        let (h, _) = repo.qm().register("q", &format!("d{d}"), false).unwrap();
                        loop {
                            // Process the element INSIDE the transaction, so its
                            // write lock is held for the duration of the work —
                            // the situation §10's ordering discussion is about.
                            let r = repo.autocommit(|t| {
                                let e = repo.qm().dequeue(
                                    t.id().raw(),
                                    &h,
                                    DequeueOptions::default(),
                                )?;
                                std::thread::sleep(Duration::from_micros(300));
                                Ok(e)
                            });
                            if r.is_err() {
                                return;
                            }
                        }
                    },
                ));
            }
            for hd in handles {
                hd.join().unwrap();
            }
            rates.push(elements as f64 / t0.elapsed().as_secs_f64());
        }
        println!(
            "| {threads:>9} | {} | {} | {:>11.2} |",
            fmt_rate(rates[0]),
            fmt_rate(rates[1]),
            rates[0] / rates[1]
        );
    }
    println!();
}

// ======================================================================
// E10 — §4.3: persistent-registration cost and recovery fidelity
// ======================================================================
fn e10_registration(scale: &Scale) {
    println!("## E10 — persistent registration: cost and recovery (§4.3)\n");
    let iters = (500 * scale.n) as u32;
    let repo = mk_repo("e10-cost", &["q"]);
    let (h, _) = repo.qm().register("q", "c", true).unwrap();
    let t0 = Instant::now();
    for _ in 0..iters {
        repo.autocommit(|t| {
            repo.qm()
                .enqueue(t.id().raw(), &h, b"x", EnqueueOptions::default())
        })
        .unwrap();
    }
    let untagged = t0.elapsed().as_micros() as f64 / iters as f64;
    let t0 = Instant::now();
    for i in 0..iters {
        repo.autocommit(|t| {
            repo.qm().enqueue(
                t.id().raw(),
                &h,
                b"x",
                EnqueueOptions {
                    tag: Some((i as u64).to_le_bytes().to_vec()),
                    ..Default::default()
                },
            )
        })
        .unwrap();
    }
    let tagged = t0.elapsed().as_micros() as f64 / iters as f64;
    println!("| variant | µs/op |");
    println!("|:--------|------:|");
    println!("| enqueue, no tag          | {untagged:>5.1} |");
    println!("| enqueue + stable tag     | {tagged:>5.1} |");
    println!(
        "| overhead                 | {:>4.0}% |",
        (tagged / untagged - 1.0) * 100.0
    );

    // Recovery fidelity: crash after every tagged op; re-register must
    // return exactly the last committed tag.
    let cycles = 10 * scale.n;
    let disks = rrq_qm::repository::RepoDisks::new();
    let mut correct = 0u64;
    for i in 0..cycles {
        let (repo, _) = Repository::open("e10-rec", disks.clone()).unwrap();
        let repo = Arc::new(repo);
        let _ = repo.create_queue_defaults("q");
        let (h, reg) = repo.qm().register("q", "c", true).unwrap();
        // Check the previous incarnation's tag.
        let expected_prev = if i == 0 {
            None
        } else {
            Some((i - 1).to_le_bytes().to_vec())
        };
        if reg.tag == expected_prev {
            correct += 1;
        }
        repo.autocommit(|t| {
            repo.qm().enqueue(
                t.id().raw(),
                &h,
                b"x",
                EnqueueOptions {
                    tag: Some(i.to_le_bytes().to_vec()),
                    ..Default::default()
                },
            )
        })
        .unwrap();
        drop(repo);
        disks.crash();
    }
    println!("\ncrash/reopen cycles: {cycles}; tags recovered correctly: {correct}/{cycles}\n");
}

// ======================================================================
// E11 — §1: burst absorption and load sharing
// ======================================================================
fn e11_burst_and_load_sharing(scale: &Scale) {
    println!("## E11 — burst absorption and load sharing (§1)\n");
    let n = (40 * scale.n) as usize;
    let arrivals = bursty_arrivals(n, 10, 20_000.0, 30, 5);
    let repo = mk_repo("e11", &["req", "reply.c"]);
    let handler: Handler = Arc::new(|_ctx, req| {
        std::thread::sleep(Duration::from_millis(2)); // fixed service time
        Ok(HandlerOutcome::Reply(req.body.clone()))
    });
    let (servers, handles, stop) = spawn_pool(&repo, "req", 4, handler).unwrap();
    let api = LocalQm::new(Arc::clone(&repo));
    api.register("req", "c", false).unwrap();
    api.register("reply.c", "c", false).unwrap();

    let t0 = Instant::now();
    let mut max_depth = 0usize;
    for (i, &at_us) in arrivals.iter().enumerate() {
        let target = Duration::from_micros(at_us);
        if let Some(wait) = target.checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
        let req = Request::new(Rid::new("c", i as u64 + 1), "reply.c", "op", vec![]);
        api.enqueue("req", "c", &req.encode_to_vec(), EnqueueOptions::default())
            .unwrap();
        max_depth = max_depth.max(api.depth("req").unwrap_or(0));
    }
    for _ in 0..n {
        api.dequeue(
            "reply.c",
            "c",
            DequeueOptions {
                block: Some(Duration::from_secs(60)),
                ..Default::default()
            },
        )
        .unwrap();
    }
    stop.store(true, Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }
    let shares: Vec<u64> = servers.iter().map(|s| s.stats().committed).collect();
    let busiest = *shares.iter().max().unwrap() as f64;
    let idlest = *shares.iter().min().unwrap() as f64;
    println!("| metric | value |");
    println!("|:-------|------:|");
    println!("| bursty arrivals          | {n} |");
    println!("| max queue depth observed | {max_depth} |");
    println!("| all replies delivered    | yes |");
    println!("| per-server shares        | {shares:?} |");
    println!(
        "| share imbalance (max/min) | {:.2} |",
        if idlest > 0.0 {
            busiest / idlest
        } else {
            f64::INFINITY
        }
    );
    println!();
}

// ======================================================================
// E12 — §5: Send transport modes (message accounting)
// ======================================================================
fn e12_send_modes(scale: &Scale) {
    println!("## E12 — Send acknowledgement modes (§5)\n");
    println!("| mode | requests | rpc calls | one-way msgs | msgs/request |");
    println!("|:-----|---------:|----------:|-------------:|-------------:|");
    let n = 10 * scale.n;
    for mode in ["acked", "one-way"] {
        let bus = NetworkBus::new(37);
        let repo = mk_repo(&format!("e12-{mode}"), &["req", "reply.c"]);
        let _guard = QmRpcServer::spawn(&bus, "qm", Arc::clone(&repo));
        let (_s, handles, stop) = spawn_pool(
            &repo,
            "req",
            1,
            Arc::new(|_ctx, req: &Request| Ok(HandlerOutcome::Reply(req.body.clone()))),
        )
        .unwrap();

        let remote = Arc::new(RemoteQm::new(&bus, &format!("cl-{mode}"), "qm"));
        let counts_handle = Arc::clone(&remote);
        let mut cfg = ClerkConfig::new("c", "req");
        cfg.reply_queue = "reply.c".into();
        cfg.send_mode = if mode == "acked" {
            rrq_core::clerk::SendMode::Acked
        } else {
            rrq_core::clerk::SendMode::OneWay
        };
        cfg.receive_block = Duration::from_secs(30);
        let clerk = Clerk::new(remote, cfg);
        clerk.connect().unwrap();
        let (base_calls, base_oneway) = counts_handle.message_counts();
        for i in 0..n {
            clerk.send("op", vec![], Rid::new("c", i + 1)).unwrap();
            let _ = clerk.receive(b"").unwrap();
        }
        let (calls, oneway) = counts_handle.message_counts();
        let total = (calls - base_calls) * 2 + (oneway - base_oneway);
        println!(
            "| {mode} | {n:>8} | {:>9} | {:>12} | {:>12.2} |",
            calls - base_calls,
            oneway - base_oneway,
            total as f64 / n as f64
        );
        stop.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
    }
    println!();
}

// ======================================================================
// E13 — §10: main-memory queue storage
// ======================================================================
fn e13_storage(scale: &Scale) {
    println!("## E13 — storage design point (§10; see also `cargo bench storage`)\n");
    println!("| configuration | commit µs | recovery ms (10k txns) |");
    println!("|:--------------|----------:|-----------------------:|");
    let iters = 2_000 * scale.n;
    for (name, sync) in [
        ("forced log (durable)", true),
        ("no force (volatile)", false),
    ] {
        let wal = SimDisk::new();
        let ckpt = SimDisk::new();
        let (store, _) = KvStore::open(
            Arc::new(wal.clone()),
            Arc::new(ckpt.clone()),
            KvOptions {
                sync_on_commit: sync,
                ..KvOptions::default()
            },
        )
        .unwrap();
        let t0 = Instant::now();
        for t in 1..=iters {
            store.begin(t).unwrap();
            store.put(t, &t.to_le_bytes(), b"element-payload").unwrap();
            store.commit(t).unwrap();
        }
        let commit_us = t0.elapsed().as_micros() as f64 / iters as f64;

        // Recovery time over a 10k-txn log.
        let wal2 = SimDisk::new();
        let ckpt2 = SimDisk::new();
        let (s2, _) = KvStore::open(
            Arc::new(wal2.clone()),
            Arc::new(ckpt2.clone()),
            KvOptions::default(),
        )
        .unwrap();
        for t in 1..=10_000u64 {
            s2.begin(t).unwrap();
            s2.put(t, &t.to_le_bytes(), b"x").unwrap();
            s2.commit(t).unwrap();
        }
        let t0 = Instant::now();
        let _ = KvStore::open(
            Arc::new(wal2.clone()),
            Arc::new(ckpt2.clone()),
            KvOptions::default(),
        )
        .unwrap();
        let rec_ms = t0.elapsed().as_secs_f64() * 1e3;
        println!("| {name} | {commit_us:>9.2} | {rec_ms:>22.1} |");
    }
    println!();
}

// ======================================================================
// E14 — §3: testable devices and exactly-once reply processing
// ======================================================================
fn e14_testable_device(scale: &Scale) {
    println!("## E14 — exactly-once reply processing needs a testable device (§3)\n");
    println!("| device | crashes after process | duplicate prints |");
    println!("|:-------|----------------------:|-----------------:|");
    let n = 5 * scale.n;

    // A printer that is NOT testable: it cannot answer "did I print this?".
    struct DumbPrinter {
        printed: Vec<Rid>,
    }
    impl ReplyProcessor for DumbPrinter {
        fn checkpoint(&mut self) -> Vec<u8> {
            Vec::new()
        }
        fn process(&mut self, rid: &Rid, _reply: &Reply) {
            self.printed.push(rid.clone());
        }
        fn already_processed(&mut self, _rid: &Rid, _ckpt: Option<&[u8]>) -> bool {
            false // can't tell → must assume not processed (at-least-once)
        }
    }

    for device in ["dumb printer", "testable printer"] {
        let repo = mk_repo(
            &format!("e14-{}", device.replace(' ', "-")),
            &["req", "reply.c"],
        );
        let (_s, handles, stop) = spawn_pool(
            &repo,
            "req",
            1,
            Arc::new(|_ctx, req: &Request| Ok(HandlerOutcomeReply(req))),
        )
        .unwrap();
        let schedule = CrashSchedule::every(n, CrashPoint::AfterProcess);
        let driver = ClientCrashDriver::new(|| mk_clerk(&repo, "c"), "op");
        let duplicates = if device == "dumb printer" {
            let mut p = DumbPrinter {
                printed: Vec::new(),
            };
            driver
                .run(n, |s| schedule.get(s), |_| vec![], &mut p)
                .unwrap();
            let mut sorted = p.printed.clone();
            sorted.sort();
            sorted.dedup();
            p.printed.len() - sorted.len()
        } else {
            let mut p = TicketPrinter::new();
            driver
                .run(n, |s| schedule.get(s), |_| vec![], &mut p)
                .unwrap();
            let mut rids: Vec<_> = p.printed().iter().map(|(_, r, _)| r.clone()).collect();
            let before = rids.len();
            rids.sort();
            rids.dedup();
            before - rids.len()
        };
        println!("| {device} | {n:>21} | {duplicates:>16} |");
        stop.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
    }
    println!();
}

#[allow(non_snake_case)]
fn HandlerOutcomeReply(req: &Request) -> HandlerOutcome {
    HandlerOutcome::Reply(format!("done {}", req.rid).into_bytes())
}

// ======================================================================
// E16 — group commit and the indexed dequeue hot path (§10)
// ======================================================================
fn e16_group_commit_and_index(scale: &Scale) {
    println!("## E16 — group-commit WAL and the indexed dequeue hot path (§10)\n");
    let mut json = String::from("{\n  \"experiment\": \"E16\",\n");

    // ------------------------------------------------------------------
    // Part A: commit throughput, committers × sync strategy, over a disk
    // whose sync costs ~300µs (a fast NVMe flush; the SimDisk alone syncs
    // in nanoseconds, which would hide the effect group commit exists for).
    // ------------------------------------------------------------------
    let sync_cost = Duration::from_micros(300);
    let per_thread = 50 * scale.n;
    println!("Disk sync cost 300µs, {per_thread} commits/thread.\n");
    println!("| committers | per-txn sync | group w=0 | group w=200µs | group w=1ms | best speedup | batching (req/grp, w=1ms) |");
    println!("|-----------:|-------------:|----------:|--------------:|------------:|-------------:|--------------------------:|");
    json.push_str("  \"group_commit\": [\n");
    let modes: [(&str, &str, bool, Duration); 4] = [
        ("per-txn sync", "per_txn", false, Duration::ZERO),
        ("group w=0", "group_w0", true, Duration::ZERO),
        (
            "group w=200µs",
            "group_w200us",
            true,
            Duration::from_micros(200),
        ),
        ("group w=1ms", "group_w1ms", true, Duration::from_millis(1)),
    ];
    let mut first = true;
    for committers in [1u64, 2, 4, 8, 16, 32] {
        let mut rates = Vec::new();
        let mut batching = String::new();
        for (_, key, grouped, window) in modes {
            let wal: Arc<dyn Disk> =
                Arc::new(LatencyDisk::new(Arc::new(SimDisk::new()), sync_cost));
            let ckpt: Arc<dyn Disk> = Arc::new(SimDisk::new());
            let (store, _) = KvStore::open(
                wal,
                ckpt,
                KvOptions {
                    sync_on_commit: true,
                    group_commit: grouped,
                    group_commit_window: window,
                },
            )
            .unwrap();
            let t0 = Instant::now();
            let handles: Vec<_> = (0..committers)
                .map(|c| {
                    let store = Arc::clone(&store);
                    rrq_core::threads::spawn_named(format!("e16-committer-{c}"), move || {
                        for i in 0..per_thread {
                            let txn = c * 1_000_000 + i + 1;
                            store.begin(txn).unwrap();
                            store
                                .put(
                                    txn,
                                    format!("k/{c}/{i}").as_bytes(),
                                    b"commit-record-payload",
                                )
                                .unwrap();
                            store.commit(txn).unwrap();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let secs = t0.elapsed().as_secs_f64();
            let commits = (committers * per_thread) as f64;
            let rate = commits / secs;
            rates.push(rate);
            let gs = store.group_commit_stats();
            if key == "group_w1ms" && gs.groups > 0 {
                batching = format!("{:.1}", gs.requests as f64 / gs.groups as f64);
            }
            if !first {
                json.push_str(",\n");
            }
            first = false;
            json.push_str(&format!(
                "    {{\"committers\": {committers}, \"mode\": \"{key}\", \"commits_per_sec\": {rate:.1}, \"sync_requests\": {}, \"groups\": {}}}",
                gs.requests, gs.groups
            ));
        }
        let best = rates[1..].iter().cloned().fold(f64::MIN, f64::max);
        println!(
            "| {committers:>10} | {} | {} | {} | {} | {:>11.1}x | {batching:>26} |",
            fmt_rate(rates[0]),
            fmt_rate(rates[1]),
            fmt_rate(rates[2]),
            fmt_rate(rates[3]),
            best / rates[0]
        );
    }
    json.push_str("\n  ],\n");
    println!();

    // ------------------------------------------------------------------
    // Part B: dequeue and depth latency vs. queue depth, ready index vs.
    // storage scan. Dequeue takes the head either way (both page-bounded);
    // depth() is where the scan pays O(depth) and the index answers O(1).
    // ------------------------------------------------------------------
    println!("| depth | dequeue idx µs | dequeue scan µs | depth idx µs | depth scan µs |");
    println!("|------:|---------------:|----------------:|-------------:|--------------:|");
    json.push_str("  \"dequeue\": [\n");
    let mut first = true;
    for depth in [100u64, 1_000, 10_000] {
        let probes = depth.min(200);
        let repo = mk_repo(&format!("e16-d{depth}"), &["q"]);
        let (h, _) = repo.qm().register("q", "bench", false).unwrap();
        for i in 0..depth {
            repo.autocommit(|t| {
                repo.qm().enqueue(
                    t.id().raw(),
                    &h,
                    format!("element-{i}-with-a-payload-of-plausible-size").as_bytes(),
                    EnqueueOptions::default(),
                )
            })
            .unwrap();
        }
        let mut cells = Vec::new();
        for indexed in [true, false] {
            repo.qm().set_indexed_dequeue(indexed);
            let t0 = Instant::now();
            let mut taken = Vec::new();
            for _ in 0..probes {
                let e = repo
                    .autocommit(|t| {
                        repo.qm()
                            .dequeue(t.id().raw(), &h, DequeueOptions::default())
                    })
                    .unwrap();
                taken.push(e);
            }
            let deq_us = t0.elapsed().as_micros() as f64 / probes as f64;
            let t0 = Instant::now();
            for _ in 0..probes {
                let _ = repo.qm().depth("q").unwrap();
            }
            let depth_us = t0.elapsed().as_micros() as f64 / probes as f64;
            cells.push((deq_us, depth_us));
            // Restore the queue for the other configuration.
            for e in taken {
                repo.autocommit(|t| {
                    repo.qm()
                        .enqueue(t.id().raw(), &h, &e.payload, EnqueueOptions::default())
                })
                .unwrap();
            }
            if !first {
                json.push_str(",\n");
            }
            first = false;
            json.push_str(&format!(
                "    {{\"depth\": {depth}, \"path\": \"{}\", \"dequeue_us\": {deq_us:.2}, \"depth_us\": {depth_us:.2}}}",
                if indexed { "indexed" } else { "scan" }
            ));
        }
        println!(
            "| {depth:>5} | {:>14.2} | {:>15.2} | {:>12.2} | {:>13.2} |",
            cells[0].0, cells[1].0, cells[0].1, cells[1].1
        );
    }
    json.push_str("\n  ]\n}\n");
    println!();

    std::fs::write("BENCH_PR3.json", &json).unwrap();
    println!("Series written to BENCH_PR3.json.\n");
}

// ======================================================================
// E17 — §10 again, but every number comes from production counters
// ======================================================================
fn e17_observability(scale: &Scale) {
    println!("## E17 — counter-derived series from the rrq-obs layer\n");
    println!("The same §10 stories as E16, but derived from the metrics the code");
    println!("itself records (`crates/obs/METRICS.md`), not bench-local bookkeeping:");
    println!("if the two disagree, the instrumentation is lying.\n");
    let mut json = String::from("{\n  \"experiment\": \"E17\",\n");

    // ------------------------------------------------------------------
    // Part A: group-commit batching from the storage counters alone.
    // Same workload as E16 part A (300µs sync, group window 1ms); the
    // records/force ratio must grow with committers like E16's
    // requests/group column (each commit writes begin/put/commit records,
    // so the absolute ratio is ~3× the request batching).
    // ------------------------------------------------------------------
    let sync_cost = Duration::from_micros(300);
    let per_thread = 25 * scale.n;
    println!("| committers | commits/s | wal forces | records/force | batch p50 | batch p99 |");
    println!("|-----------:|----------:|-----------:|--------------:|----------:|----------:|");
    json.push_str("  \"group_commit\": [\n");
    let mut first = true;
    for committers in [1u64, 2, 4, 8, 16] {
        let session = rrq_obs::Session::start();
        let wal: Arc<dyn Disk> = Arc::new(LatencyDisk::new(Arc::new(SimDisk::new()), sync_cost));
        let ckpt: Arc<dyn Disk> = Arc::new(SimDisk::new());
        let (store, _) = KvStore::open(
            wal,
            ckpt,
            KvOptions {
                sync_on_commit: true,
                group_commit: true,
                group_commit_window: Duration::from_millis(1),
            },
        )
        .unwrap();
        let t0 = Instant::now();
        let handles: Vec<_> = (0..committers)
            .map(|c| {
                let store = Arc::clone(&store);
                rrq_core::threads::spawn_named(format!("e17-committer-{c}"), move || {
                    for i in 0..per_thread {
                        let txn = c * 1_000_000 + i + 1;
                        store.begin(txn).unwrap();
                        store
                            .put(
                                txn,
                                format!("k/{c}/{i}").as_bytes(),
                                b"commit-record-payload",
                            )
                            .unwrap();
                        store.commit(txn).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let rate = (committers * per_thread) as f64 / t0.elapsed().as_secs_f64();
        let snap = session.snapshot();
        let forces = snap.counter("storage.wal.forces");
        let synced = snap.counter("storage.wal.records_synced");
        let per_force = synced as f64 / forces.max(1) as f64;
        let (p50, p99) = snap
            .histogram("storage.gc.batch_records")
            .map(|h| (h.quantile(0.5), h.quantile(0.99)))
            .unwrap_or((0, 0));
        println!(
            "| {committers:>10} | {} | {forces:>10} | {per_force:>13.1} | {p50:>9} | {p99:>9} |",
            fmt_rate(rate)
        );
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"committers\": {committers}, \"forces\": {forces}, \"records_per_force\": {per_force:.2}, \"batch_p50\": {p50}, \"batch_p99\": {p99}}}"
        ));
    }
    json.push_str("\n  ],\n");
    println!();

    // ------------------------------------------------------------------
    // Part B: dequeue contention from the qm and txn counters. Skip-locked
    // dequeuers record lock skips; strict-FIFO dequeuers block on the head
    // element's lock, so the lock manager's wait histogram (logical ticks)
    // tells the ordering story E9 told with throughput numbers.
    // ------------------------------------------------------------------
    let elements = (100 * scale.n) as usize;
    println!("| dequeuers | skip rate | lock skips | index hits | fifo waited grants | wait p50 ticks | wait p99 ticks |");
    println!("|----------:|----------:|-----------:|-----------:|-------------------:|---------------:|---------------:|");
    json.push_str("  \"dequeue\": [\n");
    let mut first = true;
    for threads in [1usize, 2, 4, 8] {
        let mut cells: Vec<rrq_obs::Snapshot> = Vec::new();
        for mode in [OrderingMode::SkipLocked, OrderingMode::StrictFifo] {
            let session = rrq_obs::Session::start();
            let repo = Arc::new(Repository::create(format!("e17-{threads}-{mode:?}")).unwrap());
            let mut meta = QueueMeta::with_defaults("q");
            meta.mode = mode;
            repo.qm().create_queue(meta).unwrap();
            let (h, _) = repo.qm().register("q", "filler", false).unwrap();
            for i in 0..elements {
                repo.autocommit(|t| {
                    repo.qm().enqueue(
                        t.id().raw(),
                        &h,
                        &i.to_le_bytes(),
                        EnqueueOptions::default(),
                    )
                })
                .unwrap();
            }
            let handles: Vec<_> = (0..threads)
                .map(|d| {
                    let repo = Arc::clone(&repo);
                    rrq_core::threads::spawn_named(format!("e17-d{d}"), move || {
                        let (h, _) = repo.qm().register("q", &format!("d{d}"), false).unwrap();
                        loop {
                            let r = repo.autocommit(|t| {
                                let e = repo.qm().dequeue(
                                    t.id().raw(),
                                    &h,
                                    DequeueOptions::default(),
                                )?;
                                std::thread::sleep(Duration::from_micros(300));
                                Ok(e)
                            });
                            if r.is_err() {
                                return;
                            }
                        }
                    })
                })
                .collect();
            for hd in handles {
                hd.join().unwrap();
            }
            cells.push(session.snapshot());
        }
        let skip = &cells[0];
        let fifo = &cells[1];
        let ops = skip.counter("qm.dequeue.ops");
        let skips = skip.counter("qm.dequeue.lock_skips");
        let skip_rate = skips as f64 / ops.max(1) as f64;
        let hits = skip.counter("qm.dequeue.index_hits");
        let waited = fifo.counter("txn.lock.waited_grants");
        let (p50, p99) = fifo
            .histogram("txn.lock.wait_ticks")
            .map(|h| (h.quantile(0.5), h.quantile(0.99)))
            .unwrap_or((0, 0));
        println!(
            "| {threads:>9} | {skip_rate:>9.3} | {skips:>10} | {hits:>10} | {waited:>18} | {p50:>14} | {p99:>14} |"
        );
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"threads\": {threads}, \"skip_rate\": {skip_rate:.3}, \"lock_skips\": {skips}, \"fifo_waited_grants\": {waited}, \"wait_p50_ticks\": {p50}, \"wait_p99_ticks\": {p99}}}"
        ));
    }
    json.push_str("\n  ]\n}\n");
    println!();

    std::fs::write("BENCH_PR4.json", &json).unwrap();
    println!("Series written to BENCH_PR4.json.\n");
}

// ======================================================================
// E18 — striped coordination state: server-pool contention sweep
// ======================================================================

/// One E18 configuration: a server pool of `workers` over a shared-queue
/// bank workload on a repository opened with `shards` stripes. The WAL
/// pays a realistic force latency and requests think under their account
/// locks, so commits and thinks from different workers can overlap — which
/// is exactly the overlap a contended coordination mutex destroys.
fn e18_run(name: &str, workers: usize, shards: usize, n: u64) -> (f64, rrq_obs::Snapshot) {
    // Six accounts = three disjoint transfer classes: a 4-worker pool
    // already queues on account locks (waiters are what the shards=1
    // notify-everyone condvar turns into a thundering herd), while three
    // runnable classes still leave room for the pool to scale 1 → 4.
    const ACCOUNTS: u32 = 6;
    // Handler "think" is spun, not slept: it models request computation, so
    // it must consume CPU — at pool sizes that saturate the box, every
    // spurious coordination wakeup then steals cycles straight from the
    // served-request rate instead of hiding in scheduler idle time. The
    // 1 → 4 scaling headroom comes from overlapping the slept WAL force.
    let think = Duration::from_micros(100);
    let session = rrq_obs::Session::start();
    let opts = RepoOptions {
        shards,
        kv: KvOptions {
            sync_on_commit: true,
            group_commit: true,
            group_commit_window: Duration::from_micros(100),
        },
        wal_sync_latency: Some(Duration::from_micros(100)),
        wal_partitions: 1,
        repo_partitions: 1,
        ..RepoOptions::default()
    };
    let (repo, _) = Repository::open_with(name, RepoDisks::new(), opts).unwrap();
    let repo = Arc::new(repo);
    for q in ["req", "reply.c"] {
        repo.create_queue_defaults(q).unwrap();
    }
    repo.qm()
        .update_queue("req", |m| m.retry_limit = 0)
        .unwrap();
    repo.tm().set_lock_timeout(Duration::from_secs(60));
    bank::seed_accounts(&repo, ACCOUNTS, 1_000_000).unwrap();
    let inner = bank::single_txn_handler();
    let handler: Handler = Arc::new(move |ctx, req| {
        let out = inner(ctx, req)?; // both account locks held from here on
        let t0 = Instant::now();
        while t0.elapsed() < think {
            std::hint::spin_loop();
        }
        Ok(out)
    });

    // A bank of parked transactions, each blocked in a 2PL wait on a lock a
    // long-running holder keeps for the whole run — the paper's picture of
    // a loaded server, where most requests sit in lock queues. They do no
    // work; they only *exist*. With one stripe they share the hot path's
    // condvar, so every commit's unlock wakes all of them to re-derive
    // waits-for edges under the one mutex; striped, their key lives on its
    // own stripe and the hot path never touches them.
    const PARKED: u64 = 24;
    const HOLDER: u64 = 9_000_000_000;
    let hub = LockKey::new(999, *b"e18/parked-hub");
    let locks = Arc::clone(repo.tm().locks());
    locks.try_lock(HOLDER, &hub, LockMode::Exclusive).unwrap();
    let parked: Vec<_> = (0..PARKED)
        .map(|j| {
            let locks = Arc::clone(&locks);
            let hub = hub.clone();
            rrq_core::threads::spawn_named(format!("e18-parked-{j}"), move || {
                let txn = HOLDER + 1 + j;
                let _ = locks.lock(txn, &hub, LockMode::Shared, Duration::from_secs(600));
                locks.unlock_all(txn);
            })
        })
        .collect();
    // Pre-load the whole request bank before the pool starts, over disjoint
    // consecutive account pairs — (0,1), (2,3), … — so a pool can actually
    // run `ACCOUNTS / 2` requests concurrently (the sequential
    // `i % accounts` pattern chains every adjacent request through a shared
    // account and serializes the pool no matter how the coordination state
    // is laid out). The driver's own enqueue transactions are off the
    // clock: the measurement is the pool draining the bank.
    let api = LocalQm::new(Arc::clone(&repo));
    api.register("req", "c", false).unwrap();
    api.register("reply.c", "c", false).unwrap();
    for i in 0..n {
        let from = ((i * 2) % u64::from(ACCOUNTS)) as u32;
        let t = Transfer {
            from,
            to: from + 1,
            amount: 10,
        };
        let req = Request::new(Rid::new("c", i + 1), "reply.c", "transfer", t.encode());
        api.enqueue("req", "c", &req.encode_to_vec(), EnqueueOptions::default())
            .unwrap();
    }

    let t0 = Instant::now();
    let (_servers, handles, stop) = spawn_pool(&repo, "req", workers, handler).unwrap();
    // Each served request commits its reply into reply.c atomically with the
    // request dequeue, so the reply-queue depth counts completed requests
    // without the driver adding its own forced-WAL reply transactions to
    // the timed path.
    while (repo.qm().depth("reply.c").unwrap() as u64) < n {
        std::thread::sleep(Duration::from_micros(200));
    }
    let rate = n as f64 / t0.elapsed().as_secs_f64();
    // Snapshot before unparking the wait bank: its 2PL waits are granted
    // (and their block times observed) only once the holder releases, so
    // the wait histogram below covers workload transactions only.
    let snap = session.snapshot();
    stop.store(true, Ordering::Release);
    locks.unlock_all(HOLDER);
    for p in parked {
        p.join().unwrap();
    }
    for h in handles {
        h.join().unwrap();
    }
    (rate, snap)
}

fn e18_shard_contention(scale: &Scale, smoke: bool) {
    println!("## E18 — sharded coordination state under a server-pool sweep\n");
    println!("Same repository, same bank workload, one knob: `RepoOptions::shards`.");
    println!("`shards: 1` is the pre-PR5 coordination layer (one lock-table mutex,");
    println!("one pending map, one whole-index lock); `shards: 16` is the striped");
    println!("default. Workers think 100µs under their account locks and every");
    println!("commit forces a 100µs WAL, so the available speedup is overlap —");
    println!("which the single coordination mutex (and its wake-everyone condvar)");
    println!("eats as the pool grows.\n");

    let worker_counts: &[usize] = if smoke { &[4] } else { &[1, 2, 4, 8] };
    let n = if smoke { 400 } else { 400 * scale.n };
    let mut json = String::from("{\n  \"experiment\": \"E18\",\n  \"series\": [\n");
    println!("| workers | shards=1 req/s | shards=16 req/s | striped/baseline | wait p99 ticks (1 → 16) | stripe contentions (1 → 16) |");
    println!("|--------:|---------------:|----------------:|-----------------:|------------------------:|----------------------------:|");
    let mut first = true;
    let mut smoke_pair = (0.0f64, 0.0f64);
    let mut striped_rates = Vec::new();
    for &workers in worker_counts {
        let mut row: Vec<(f64, u64, u64)> = Vec::new();
        for shards in [1usize, 16] {
            // Best of two trials: one-core schedulers are noisy enough to
            // swamp a contention effect with a single sample.
            let (mut rate, mut snap) =
                e18_run(&format!("e18-w{workers}-s{shards}-a"), workers, shards, n);
            let (rate_b, snap_b) =
                e18_run(&format!("e18-w{workers}-s{shards}-b"), workers, shards, n);
            if rate_b > rate {
                rate = rate_b;
                snap = snap_b;
            }
            let p99 = snap
                .histogram("txn.lock.wait_ticks")
                .map(|h| h.quantile(0.99))
                .unwrap_or(0);
            let contended = snap.counter("txn.lock.shard.contended")
                + snap.counter("qm.pending.shard.contended")
                + snap.counter("qm.qindex.shard.contended");
            let forces = snap.counter("storage.wal.forces");
            let per_force =
                snap.counter("storage.wal.records_synced") as f64 / forces.max(1) as f64;
            row.push((rate, p99, contended));
            if !first {
                json.push_str(",\n");
            }
            first = false;
            json.push_str(&format!(
                "    {{\"workers\": {workers}, \"shards\": {shards}, \"req_per_sec\": {rate:.1}, \"lock_wait_p99_ticks\": {p99}, \"stripe_contentions\": {contended}, \"wal_forces\": {forces}, \"records_per_force\": {per_force:.2}}}"
            ));
        }
        let (base, striped) = (row[0], row[1]);
        striped_rates.push(striped.0);
        if workers == 4 {
            smoke_pair = (base.0, striped.0);
        }
        println!(
            "| {workers:>7} | {} | {} | {:>15.2}x | {:>12} → {:>8} | {:>14} → {:>10} |",
            fmt_rate(base.0),
            fmt_rate(striped.0),
            striped.0 / base.0,
            base.1,
            striped.1,
            base.2,
            striped.2
        );
    }
    json.push_str("\n  ]\n}\n");
    println!();

    if smoke {
        // CI gate: at 4 workers the striped layer must at least hold the
        // baseline's throughput (small tolerance for a noisy shared box).
        let (base, striped) = smoke_pair;
        assert!(
            striped >= 0.9 * base,
            "E18 smoke: striped ({striped:.1} req/s) fell below shards=1 baseline ({base:.1} req/s) at 4 workers"
        );
        println!("E18 smoke: striped {striped:.1} req/s vs baseline {base:.1} req/s at 4 workers — ok.\n");
        return;
    }

    std::fs::write("BENCH_PR5.json", &json).unwrap();
    println!("Series written to BENCH_PR5.json.\n");
    let monotone = striped_rates.windows(2).take(2).all(|w| w[1] >= w[0]);
    if !monotone {
        println!("WARNING: striped throughput not monotone over 1→4 workers: {striped_rates:?}\n");
    }
}

// ======================================================================
// E19 — partitioned WAL: recovery time and commit throughput
// ======================================================================

/// Per-read device latency for the recovery measurements. `Wal::scan` issues
/// two reads per record (header, body), so charging each read makes recovery
/// wall time proportional to the *bytes a log device must deliver* — the
/// real-world cost — instead of to single-core CPU time, where N scan
/// threads on this box would show nothing. Reads on one device queue behind
/// each other; reads on different shard logs overlap, which is exactly the
/// claim the parallel-recovery measurement needs to test.
const E19_READ_LATENCY: Duration = Duration::from_micros(10);

/// Commit `commits` single-key transactions over `partitions` shard logs,
/// checkpointing every `ckpt_every` commits if asked, then crash every
/// device (clean power loss: volatile bytes drop, synced bytes survive).
fn e19_history(
    partitions: usize,
    commits: u64,
    ckpt_every: Option<u64>,
) -> (Vec<SimDisk>, SimDisk) {
    let wals: Vec<SimDisk> = (0..partitions).map(|_| SimDisk::new()).collect();
    let ckpt = SimDisk::new();
    let (store, _) = KvStore::open_partitioned(
        wals.iter()
            .map(|d| Arc::new(d.clone()) as Arc<dyn Disk>)
            .collect(),
        Arc::new(ckpt.clone()),
        KvOptions::default(),
    )
    .unwrap();
    for i in 0..commits {
        let token = i + 1;
        store.begin(token).unwrap();
        // A rolling keyspace: hashes spread keys across every shard log.
        let key = [b'k', (i % 251) as u8, (i / 251) as u8];
        store.put(token, &key, &i.to_le_bytes()).unwrap();
        store.commit(token).unwrap();
        if let Some(every) = ckpt_every {
            if token % every == 0 {
                store.checkpoint().unwrap();
            }
        }
    }
    drop(store);
    for d in &wals {
        d.crash(CrashStyle::DropVolatile);
    }
    ckpt.crash(CrashStyle::DropVolatile);
    (wals, ckpt)
}

/// Reopen crashed devices with per-read latency on the logs and time the
/// recovery. Returns (wall time, redo records replayed).
fn e19_recover(wals: &[SimDisk], ckpt: &SimDisk) -> (Duration, usize) {
    let disks: Vec<Arc<dyn Disk>> = wals
        .iter()
        .map(|d| {
            Arc::new(
                LatencyDisk::new(Arc::new(d.clone()), Duration::ZERO)
                    .with_read_latency(E19_READ_LATENCY),
            ) as Arc<dyn Disk>
        })
        .collect();
    let t0 = Instant::now();
    let (store, report) =
        KvStore::open_partitioned(disks, Arc::new(ckpt.clone()), KvOptions::default()).unwrap();
    let elapsed = t0.elapsed();
    drop(store);
    (elapsed, report.replayed)
}

/// Commit-throughput cell: `threads` committers of single-key transactions
/// over `partitions` logs, each log a 100µs-per-force device. Returns req/s.
fn e19_throughput(partitions: usize, group: bool, threads: usize, per_thread: u64) -> f64 {
    let wals: Vec<Arc<dyn Disk>> = (0..partitions)
        .map(|_| {
            Arc::new(LatencyDisk::new(
                Arc::new(SimDisk::new()),
                Duration::from_micros(100),
            )) as Arc<dyn Disk>
        })
        .collect();
    let opts = KvOptions {
        sync_on_commit: true,
        group_commit: group,
        group_commit_window: Duration::from_micros(100),
    };
    let (store, _) = KvStore::open_partitioned(wals, Arc::new(SimDisk::new()), opts).unwrap();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let store = Arc::clone(&store);
            s.spawn(move || {
                for i in 0..per_thread {
                    let token = t as u64 * 1_000_000 + i + 1;
                    store.begin(token).unwrap();
                    // Thread-private keys: the measurement is log-device
                    // bandwidth, not write-write conflicts.
                    let key = [b't', t as u8, (i % 64) as u8];
                    store.put(token, &key, b"v").unwrap();
                    store.commit(token).unwrap();
                }
            });
        }
    });
    threads as u64 as f64 * per_thread as f64 / t0.elapsed().as_secs_f64()
}

fn e19_partitioned_wal(scale: &Scale, smoke: bool) {
    println!("## E19 — partitioned WAL: recovery and throughput\n");
    println!("Three questions about the shard-log design. (a) Do incremental");
    println!("checkpoints bound recovery by the delta since the last checkpoint");
    println!("rather than by history length? (b) Does scanning N logs in parallel");
    println!("beat one monolithic scan when log reads cost device time? (c) What");
    println!("does partitioning do to commit throughput when every force pays a");
    println!("100µs device delay — with and without group commit?\n");

    let mut json = String::from("{\n  \"experiment\": \"E19\",\n  \"recovery\": [\n");
    let mut first = true;

    // ---- (a) recovery vs history length, with and without checkpoints ----
    // Lengths ≡ 100 (mod 250): every history ends 100 commits past its last
    // checkpoint, so the checkpointed store has the *same* delta to replay
    // at every length — the flat line is the claim.
    let histories: &[u64] = if smoke {
        &[600, 2100]
    } else {
        &[600, 2100, 8100]
    };
    let ckpt_every = 250;
    println!("### Recovery time vs history length (partitions = 4, 10µs/read)\n");
    println!("| committed txns | no ckpt: recovery | no ckpt: redo | ckpt every {ckpt_every}: recovery | ckpt: redo |");
    println!("|---------------:|------------------:|--------------:|--------------------------:|-----------:|");
    let mut flat = Vec::new();
    let mut growing = Vec::new();
    for &n in histories {
        let (wals, ckpt) = e19_history(4, n, None);
        let (t_none, redo_none) = e19_recover(&wals, &ckpt);
        let (wals, ckpt) = e19_history(4, n, Some(ckpt_every));
        let (t_ckpt, redo_ckpt) = e19_recover(&wals, &ckpt);
        growing.push(t_none);
        flat.push(t_ckpt);
        println!(
            "| {n:>14} | {:>15.1}ms | {redo_none:>13} | {:>23.1}ms | {redo_ckpt:>10} |",
            t_none.as_secs_f64() * 1e3,
            t_ckpt.as_secs_f64() * 1e3
        );
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"commits\": {n}, \"no_ckpt_ms\": {:.2}, \"no_ckpt_redo\": {redo_none}, \"ckpt_ms\": {:.2}, \"ckpt_redo\": {redo_ckpt}}}",
            t_none.as_secs_f64() * 1e3,
            t_ckpt.as_secs_f64() * 1e3
        ));
    }
    // The checkpointed store replays at most `ckpt_every` transactions no
    // matter how long the history is; the uncheckpointed one replays all of
    // them. Recovery time must reflect that shape.
    let spread = flat.last().unwrap().as_secs_f64() / flat[0].as_secs_f64().max(1e-9);
    println!(
        "\nCheckpointed recovery stays within {spread:.1}x across a {}x history spread;",
        histories.last().unwrap() / histories[0]
    );
    println!(
        "uncheckpointed grows {:.1}x.\n",
        growing.last().unwrap().as_secs_f64() / growing[0].as_secs_f64().max(1e-9)
    );

    // ---- (b) parallel scan vs monolithic scan ----
    let n = if smoke { 1000 } else { 4000 };
    println!("### Parallel recovery: one scan thread per shard log ({n} txns, no checkpoints)\n");
    println!("| partitions | recovery | speedup vs 1 |");
    println!("|-----------:|---------:|-------------:|");
    let mut mono_t = Duration::ZERO;
    json.push_str("\n  ],\n  \"parallel_recovery\": [\n");
    first = true;
    let parts: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    for &p in parts {
        let (wals, ckpt) = e19_history(p, n, None);
        let (t, _) = e19_recover(&wals, &ckpt);
        if p == 1 {
            mono_t = t;
        }
        let speedup = mono_t.as_secs_f64() / t.as_secs_f64().max(1e-9);
        println!(
            "| {p:>10} | {:>6.1}ms | {speedup:>11.2}x |",
            t.as_secs_f64() * 1e3
        );
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"partitions\": {p}, \"recovery_ms\": {:.2}, \"speedup\": {speedup:.2}}}",
            t.as_secs_f64() * 1e3
        ));
        if smoke && p == 4 {
            assert!(
                speedup >= 2.0,
                "E19 smoke: parallel recovery over 4 logs only {speedup:.2}x faster than monolithic (wanted >= 2x)"
            );
        }
    }
    println!();

    // ---- (c) commit throughput vs partition count ----
    let threads = 8;
    let per_thread = if smoke { 50 } else { 100 * scale.n };
    println!("### Commit throughput: {threads} committers, 100µs per force, single-key txns\n");
    println!("| partitions | per-commit sync req/s | group commit req/s |");
    println!("|-----------:|----------------------:|-------------------:|");
    json.push_str("\n  ],\n  \"throughput\": [\n");
    first = true;
    let tput_parts: &[usize] = if smoke { &[1] } else { &[1, 2, 4, 8] };
    for &p in tput_parts {
        let solo = e19_throughput(p, false, threads, per_thread);
        let grouped = e19_throughput(p, true, threads, per_thread);
        println!(
            "| {p:>10} | {:>21} | {:>18} |",
            fmt_rate(solo),
            fmt_rate(grouped)
        );
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"partitions\": {p}, \"per_commit_req_per_sec\": {solo:.1}, \"group_commit_req_per_sec\": {grouped:.1}}}"
        ));
    }
    json.push_str("\n  ]\n}\n");
    println!();

    // The `wal_partitions = 1` store must not tax the baseline: `open` and
    // `open_partitioned(1)` are the same machinery, so this is a regression
    // tripwire on the partitioned commit path itself.
    let baseline = {
        let (store, _) = KvStore::open(
            Arc::new(LatencyDisk::new(
                Arc::new(SimDisk::new()),
                Duration::from_micros(100),
            )),
            Arc::new(SimDisk::new()),
            KvOptions::default(),
        )
        .unwrap();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let token = t as u64 * 1_000_000 + i + 1;
                        store.begin(token).unwrap();
                        store
                            .put(token, &[b't', t as u8, (i % 64) as u8], b"v")
                            .unwrap();
                        store.commit(token).unwrap();
                    }
                });
            }
        });
        threads as u64 as f64 * per_thread as f64 / t0.elapsed().as_secs_f64()
    };
    let partitioned_1 = e19_throughput(1, true, threads, per_thread);
    println!(
        "Single-partition store vs `KvStore::open` baseline: {} vs {} req/s.\n",
        fmt_rate(partitioned_1),
        fmt_rate(baseline)
    );
    if smoke {
        assert!(
            partitioned_1 >= 0.95 * baseline,
            "E19 smoke: wal_partitions=1 ({partitioned_1:.1} req/s) fell below 0.95x the open() baseline ({baseline:.1} req/s)"
        );
        println!("E19 smoke: parallel recovery and single-partition throughput gates — ok.\n");
        return;
    }

    std::fs::write("BENCH_PR7.json", &json).unwrap();
    println!("Series written to BENCH_PR7.json.\n");
}

// ======================================================================
// E21 — shared-nothing repository partitions: scaling sweep
// ======================================================================

/// Find (and create) a queue homed on partition `p`, deterministically.
fn e21_queue_on(repo: &Repository, p: usize, tag: &str) -> String {
    for j in 0..256 {
        let q = format!("{tag}x{j}");
        if repo.partition_of(&q) == p {
            repo.create_queue_defaults(&q).unwrap();
            return q;
        }
    }
    panic!("no queue name for partition {p} in 256 tries");
}

/// One E21 cell: 8 workers drive a fixed offered load of bank payments
/// against a cluster of `parts` shared-nothing partitions. Each payment
/// updates the payer's balance on its home store and enqueues a credit
/// record — to a co-located queue normally, to a queue on the *next*
/// partition for `cross_pct`% of payments (a logged two-phase commit).
/// Alternating ops consume the worker's own queue, so depths stay bounded.
/// Every commit pays a 100µs WAL force with group commit off: the force is
/// the resource being partitioned, exactly the shared-nothing claim.
fn e21_run(name: &str, parts: usize, cross_pct: u64, per_worker: u64) -> f64 {
    const WORKERS: usize = 8;
    let opts = RepoOptions {
        repo_partitions: parts,
        kv: KvOptions {
            sync_on_commit: true,
            group_commit: false,
            ..KvOptions::default()
        },
        wal_sync_latency: Some(Duration::from_micros(100)),
        ..RepoOptions::default()
    };
    let (repo, _) = Repository::open_with(name, RepoDisks::new(), opts).unwrap();
    let repo = Arc::new(repo);
    let locals: Vec<String> = (0..WORKERS)
        .map(|w| e21_queue_on(&repo, w % parts, &format!("l{w}")))
        .collect();
    let remotes: Vec<String> = (0..WORKERS)
        .map(|w| e21_queue_on(&repo, (w + 1) % parts, &format!("r{w}")))
        .collect();

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let repo = Arc::clone(&repo);
            let src = locals[w].clone();
            let far = remotes[w].clone();
            s.spawn(move || {
                let reg = format!("w{w}");
                let (hs, _) = repo.qm_for(&src).register(&src, &reg, false).unwrap();
                let (hf, _) = repo.qm_for(&far).register(&far, &reg, false).unwrap();
                let acct = format!("acct/{w}").into_bytes();
                for i in 0..per_worker {
                    let (txn, home) = repo.begin_on(&src).unwrap();
                    let t = txn.id().raw();
                    if i % 2 == 0 {
                        if i % 100 < cross_pct {
                            let qm = repo.enlist_queue(&txn, home, &far).unwrap();
                            qm.enqueue(t, &hf, b"pay", EnqueueOptions::default())
                                .unwrap();
                        } else {
                            repo.qm_for(&src)
                                .enqueue(t, &hs, b"pay", EnqueueOptions::default())
                                .unwrap();
                        }
                    } else {
                        let _ = repo.qm_for(&src).dequeue(t, &hs, DequeueOptions::default());
                    }
                    repo.store_at(home).put(t, &acct, &i.to_le_bytes()).unwrap();
                    txn.commit().unwrap();
                }
            });
        }
    });
    WORKERS as f64 * per_worker as f64 / t0.elapsed().as_secs_f64()
}

fn e21_partition_scaling(scale: &Scale, smoke: bool) {
    println!("## E21 — shared-nothing repository partitions: bank scaling sweep\n");
    println!("Fixed offered load (8 workers), partitions 1 → 8, every commit");
    println!("forcing a 100µs WAL write. A partition owns its queues, its log");
    println!("group, its locks and its store, so partition-local payments from");
    println!("different partitions never serialize on a shared force. The 10%");
    println!("cross-partition column routes every tenth payment to a sibling's");
    println!("queue through the logged two-phase protocol — the price of");
    println!("leaving the shared-nothing fast path.\n");

    let parts: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let per_worker = if smoke { 400 } else { 600 * scale.n };
    let trials = if smoke { 3 } else { 2 };
    let mut json = String::from("{\n  \"experiment\": \"E21\",\n  \"series\": [\n");
    println!("| partitions | 0% cross req/s | vs 1p | 10% cross req/s | vs 1p | 10% / 0% |");
    println!("|-----------:|---------------:|------:|----------------:|------:|---------:|");
    let mut first = true;
    let mut base_by_cross = [0.0f64; 2];
    let mut smoke_pair = (0.0f64, 0.0f64);
    for &p in parts {
        let mut rates = [0.0f64; 2];
        for (ci, &cross) in [0u64, 10].iter().enumerate() {
            let mut best = 0.0f64;
            for t in 0..trials {
                let r = e21_run(&format!("e21-p{p}-c{cross}-{t}"), p, cross, per_worker);
                best = best.max(r);
            }
            rates[ci] = best;
            if p == 1 {
                base_by_cross[ci] = best;
            }
        }
        if p == 1 {
            smoke_pair.0 = rates[0];
        }
        if p == 4 {
            smoke_pair.1 = rates[0];
        }
        println!(
            "| {p:>10} | {:>14} | {:>4.2}x | {:>15} | {:>4.2}x | {:>7.2}x |",
            fmt_rate(rates[0]),
            rates[0] / base_by_cross[0],
            fmt_rate(rates[1]),
            rates[1] / base_by_cross[1],
            rates[1] / rates[0],
        );
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"partitions\": {p}, \"cross0_req_per_sec\": {:.1}, \"cross10_req_per_sec\": {:.1}}}",
            rates[0], rates[1]
        ));
    }
    json.push_str("\n  ]\n}\n");
    println!();

    if smoke {
        let (one, four) = smoke_pair;
        assert!(
            four >= 1.5 * one,
            "E21 smoke: 4 partitions ({four:.1} req/s) below 1.5x the 1-partition baseline ({one:.1} req/s) at 0% cross"
        );
        println!(
            "E21 smoke: 4 partitions {four:.1} req/s vs 1 partition {one:.1} req/s at 0% cross — ok.\n"
        );
        return;
    }

    std::fs::write("BENCH_PR9.json", &json).unwrap();
    println!("Series written to BENCH_PR9.json.\n");
}

// ======================================================================
// E22 — planned vs locked execution: the contention crossover
// ======================================================================

/// Deterministic E22 workload: `hot_pct`% of transfers draw both accounts
/// from a 2-account hot set (the 2PL pathology — every pair conflicts and
/// half the lock orders can deadlock), the rest spread uniformly over the
/// cold majority.
fn e22_fill(repo: &Repository, seed: u64, n: u64, hot_pct: u64, accounts: u32) {
    use rrq_workload::arrivals::SplitMix;
    let mut rng = SplitMix::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let (h, _) = repo.qm().register("req", "fill", false).unwrap();
    for serial in 1..=n {
        let hot = rng.next_u64() % 100 < hot_pct;
        let span = if hot { 2 } else { u64::from(accounts) };
        let base = if hot { 0 } else { 2 };
        let from = base + (rng.next_u64() % span) as u32 % accounts;
        let to = base + (rng.next_u64() % span) as u32 % accounts;
        let t = Transfer {
            from,
            to,
            amount: 1 + (rng.next_u64() % 50) as i64,
        };
        let req = Request::new(Rid::new("c1", serial), "reply.c1", "transfer", t.encode());
        repo.autocommit(|tx| {
            repo.qm().enqueue(
                tx.id().raw(),
                &h,
                &req.encode_to_vec(),
                EnqueueOptions::default(),
            )
        })
        .unwrap();
    }
}

/// Open an E22 repository: best-known locked configuration (default
/// skip-locked dequeues + group commit) against the planned pool. No simulated
/// WAL-force latency: with an expensive force the planned side's one-force-
/// per-epoch amortization wins everywhere and hides the contention story
/// this experiment is about. The request queue retries without limit so
/// deadlock-victim redisposition (the thing being measured at high
/// contention) never dead-letters an element.
fn e22_repo(name: &str, mode: rrq_qm::repository::ExecMode) -> Arc<Repository> {
    let opts = RepoOptions {
        exec_mode: mode,
        kv: KvOptions {
            sync_on_commit: true,
            group_commit: true,
            ..KvOptions::default()
        },
        ..RepoOptions::default()
    };
    let (repo, _) = Repository::open_with(name, RepoDisks::new(), opts).unwrap();
    let repo = Arc::new(repo);
    let mut req = QueueMeta::with_defaults("req");
    req.retry_limit = 0;
    repo.qm().create_queue(req).unwrap();
    repo.create_queue_defaults("reply.c1").unwrap();
    repo
}

/// Pre-PR control: the same drain on a repository opened through the plain
/// [`Repository::create`] constructor (all-default options, so the locked
/// 2PL path exactly as it ran before the `exec_mode` knob existed). The
/// smoke gate holds the knob-opened locked cell to >= 0.95x of this — if
/// the planned-mode machinery ever taxed the locked fast path, this is the
/// tripwire.
fn e22_baseline_run(name: &str, seed: u64, n: u64) -> f64 {
    let repo = Arc::new(Repository::create(name).unwrap());
    let mut req = QueueMeta::with_defaults("req");
    req.retry_limit = 0;
    repo.qm().create_queue(req).unwrap();
    repo.create_queue_defaults("reply.c1").unwrap();
    bank::seed_accounts(&repo, 64, 100_000).unwrap();
    e22_fill(&repo, seed, n, 0, 64);
    let t0 = Instant::now();
    let (_, handles, stop) = spawn_pool(&repo, "req", 8, bank::single_txn_handler()).unwrap();
    while repo.qm().depth("reply.c1").unwrap() < n as usize {
        std::thread::sleep(Duration::from_micros(200));
    }
    let elapsed = t0.elapsed();
    stop.store(true, Ordering::Release);
    for t in handles {
        let _ = t.join();
    }
    n as f64 / elapsed.as_secs_f64()
}

/// One E22 cell: `n` pre-filled transfers drained to the reply queue by
/// eight locked servers or an eight-worker planned pool. Returns requests
/// per second of the drain.
fn e22_run(name: &str, planned: bool, seed: u64, n: u64, hot_pct: u64) -> f64 {
    use rrq_core::planned::{PlannedConfig, PlannedPool};
    use rrq_qm::repository::ExecMode;
    const ACCOUNTS: u32 = 64;
    let mode = if planned {
        ExecMode::Planned
    } else {
        ExecMode::Locked
    };
    let repo = e22_repo(name, mode);
    bank::seed_accounts(&repo, ACCOUNTS, 100_000).unwrap();
    e22_fill(&repo, seed, n, hot_pct, ACCOUNTS);

    let t0 = Instant::now();
    let (threads, stop) = if planned {
        let mut cfg = PlannedConfig::new("e22-pl", "req");
        cfg.workers = 8;
        cfg.batch_max = 64;
        let pool = PlannedPool::new(
            Arc::clone(&repo),
            cfg,
            bank::single_txn_handler(),
            bank::transfer_access(),
        )
        .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        (pool.spawn(Arc::clone(&stop)), stop)
    } else {
        let (_, handles, stop) = spawn_pool(&repo, "req", 8, bank::single_txn_handler()).unwrap();
        (handles, stop)
    };
    while repo.qm().depth("reply.c1").unwrap() < n as usize {
        std::thread::sleep(Duration::from_micros(200));
    }
    let elapsed = t0.elapsed();
    stop.store(true, Ordering::Release);
    for t in threads {
        let _ = t.join();
    }
    assert_eq!(repo.qm().depth("req").unwrap(), 0);
    n as f64 / elapsed.as_secs_f64()
}

fn e22_planned_crossover(scale: &Scale, smoke: bool) {
    println!("## E22 — planned vs locked execution: contention crossover\n");
    println!("Eight executors drain a pre-filled request queue of bank");
    println!("transfers; the hot column is the share of transfers confined to");
    println!("two accounts. The locked side is the repo's best 2PL stack");
    println!("(skip-locked dequeues, group commit): at low contention its");
    println!("servers run fully parallel, and conflicts only tax it as the hot");
    println!("share grows — lock waits, deadlock victims, redispositions. The");
    println!("planned side pays a fixed epoch toll (the serial plan phase, one");
    println!("WAL force and one index apply per batch) regardless of");
    println!("contention: per-key queues serialize hot transfers without ever");
    println!("blocking or deadlocking. The claim is the crossover, not a");
    println!("uniform win.\n");

    let hots: &[u64] = if smoke {
        &[0, 100]
    } else {
        &[0, 25, 50, 75, 100]
    };
    let n = if smoke { 1500 } else { 1200 * scale.n };
    let trials = if smoke { 2 } else { 3 };
    println!("| hot % | locked req/s | planned req/s | planned / locked |");
    println!("|------:|-------------:|--------------:|-----------------:|");
    let mut json = String::from("{\n  \"experiment\": \"E22\",\n  \"series\": [\n");
    let mut first = true;
    let mut cells: Vec<(u64, f64, f64)> = Vec::new();
    for &hot in hots {
        let (mut locked, mut planned) = (0.0f64, 0.0f64);
        for t in 0..trials {
            locked = locked.max(e22_run(
                &format!("e22-l-h{hot}-{t}"),
                false,
                hot + t,
                n,
                hot,
            ));
            planned = planned.max(e22_run(&format!("e22-p-h{hot}-{t}"), true, hot + t, n, hot));
        }
        println!(
            "| {hot:>5} | {:>12} | {:>13} | {:>15.2}x |",
            fmt_rate(locked),
            fmt_rate(planned),
            planned / locked
        );
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"hot_pct\": {hot}, \"locked_req_per_sec\": {locked:.1}, \"planned_req_per_sec\": {planned:.1}}}"
        ));
        cells.push((hot, locked, planned));
    }
    json.push_str("\n  ]\n}\n");
    println!();

    if smoke {
        let (_, l100m, p100) = cells[cells.len() - 1];
        assert!(
            p100 >= 1.2 * l100m,
            "E22 smoke: planned ({p100:.1} req/s) below 1.2x locked ({l100m:.1} req/s) at 100% hot"
        );
        // Pre-PR regression tripwire, trials interleaved so both sides see
        // the same machine weather.
        let (mut pre, mut knob) = (0.0f64, 0.0f64);
        for t in 0..3u64 {
            pre = pre.max(e22_baseline_run(&format!("e22-pre-{t}"), t, n));
            knob = knob.max(e22_run(&format!("e22-knob-{t}"), false, t, n, 0));
        }
        assert!(
            knob >= 0.95 * pre,
            "E22 smoke: exec_mode-knob locked ({knob:.1} req/s) below 0.95x the pre-PR constructor baseline ({pre:.1} req/s) — the locked path regressed"
        );
        println!(
            "E22 smoke: hot=100 planned {p100:.1} vs locked {l100m:.1} req/s ({:.2}x); locked knob {knob:.1} vs pre-PR baseline {pre:.1} req/s ({:.2}x) — gates hold.\n",
            p100 / l100m,
            knob / pre
        );
        return;
    }

    std::fs::write("BENCH_PR10.json", &json).unwrap();
    println!("Series written to BENCH_PR10.json.\n");
}
