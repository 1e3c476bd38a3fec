//! The clerk across the simulated network (§2, §5): RPC sends, one-way
//! sends, and resynchronization after communication failures.

use rrq_core::api::QmApi;
use rrq_core::clerk::{Clerk, ClerkConfig, SendMode};
use rrq_core::client::{ClientRuntime, ResyncAction};
use rrq_core::device::Display;
use rrq_core::remote::{QmRpcServer, RemoteQm};
use rrq_core::server::spawn_pool;
use rrq_net::NetworkBus;
use rrq_qm::repository::Repository;
use rrq_tests::echo_handler;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

static ENDPOINT_SEQ: AtomicU64 = AtomicU64::new(0);

fn setup(
    bus: &NetworkBus,
    send_mode: SendMode,
) -> (
    Arc<Repository>,
    rrq_net::rpc::ServerGuard,
    impl Fn() -> Clerk + '_,
) {
    let repo = Arc::new(Repository::create("remote-node").unwrap());
    repo.create_queue_defaults("req").unwrap();
    repo.create_queue_defaults("reply.rc").unwrap();
    let guard = QmRpcServer::spawn(bus, "qm", Arc::clone(&repo));
    let make_clerk = move || {
        // Each incarnation gets a fresh client endpoint (old one died).
        let n = ENDPOINT_SEQ.fetch_add(1, Ordering::Relaxed);
        let remote = RemoteQm::new(bus, &format!("client-ep-{n}"), "qm");
        let mut cfg = ClerkConfig::new("rc", "req");
        cfg.reply_queue = "reply.rc".into();
        cfg.send_mode = send_mode;
        cfg.receive_block = Duration::from_secs(5);
        Clerk::new(Arc::new(remote), cfg)
    };
    (repo, guard, make_clerk)
}

#[test]
fn full_roundtrip_over_the_network() {
    let bus = NetworkBus::new(11);
    let (repo, _guard, make_clerk) = setup(&bus, SendMode::Acked);
    let (_servers, handles, stop) = spawn_pool(&repo, "req", 1, echo_handler()).unwrap();

    let mut display = Display::new();
    let mut runtime = ClientRuntime::new(make_clerk());
    assert_eq!(runtime.resume(&mut display).unwrap(), ResyncAction::Fresh);
    for i in 0..3 {
        let (rid, reply) = runtime
            .submit("echo", format!("m{i}").into_bytes(), &mut display)
            .unwrap();
        assert_eq!(reply.rid, rid);
        assert_eq!(reply.body, format!("m{i}").into_bytes());
    }
    assert_eq!(display.shown().len(), 3);
    runtime.disconnect().unwrap();

    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
}

/// §2's core failure story: a ONE-WAY send is lost in a partition. The
/// client's Receive times out; at reconnect, the registration tags show the
/// request never reached the system, so the client can safely resend —
/// without any risk of duplicate execution.
#[test]
fn lost_one_way_send_is_detected_and_resent() {
    let bus = NetworkBus::new(13);
    let (repo, _guard, make_clerk) = setup(&bus, SendMode::OneWay);
    let (_servers, handles, stop) = spawn_pool(&repo, "req", 1, echo_handler()).unwrap();

    // First incarnation: request 1 completes; request 2's send is lost.
    {
        let clerk = make_clerk();
        clerk.connect().unwrap();
        clerk
            .send("echo", b"first".to_vec(), rrq_core::rid::Rid::new("rc", 1))
            .unwrap();
        let r1 = clerk.receive(b"").unwrap();
        assert_eq!(r1.body, b"first");

        // Partition, then fire the one-way send into the void.
        bus.faults().set_default_drop(1.0);
        clerk
            .send("echo", b"lost".to_vec(), rrq_core::rid::Rid::new("rc", 2))
            .unwrap(); // returns Ok: one-way, no acknowledgement
                       // The Receive would time out here; the client process dies instead.
    }
    bus.faults().set_default_drop(0.0);

    // Second incarnation: connect-time resync.
    let clerk2 = make_clerk();
    let info = clerk2.connect().unwrap();
    // The system never saw request 2: its last recorded Send is rid 1, which
    // matches the last reply — so the client knows it must resend rid 2.
    assert_eq!(info.s_rid, Some(rrq_core::rid::Rid::new("rc", 1)));
    assert_eq!(info.r_rid, Some(rrq_core::rid::Rid::new("rc", 1)));
    clerk2
        .send("echo", b"resent".to_vec(), rrq_core::rid::Rid::new("rc", 2))
        .unwrap();
    let r2 = clerk2.receive(b"").unwrap();
    assert_eq!(r2.rid, rrq_core::rid::Rid::new("rc", 2));
    assert_eq!(r2.body, b"resent");

    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
}

/// An ACKED send that got through, followed by a client crash: resync finds
/// the outstanding request and receives its reply — no resend, no
/// duplicate.
#[test]
fn acked_send_then_crash_resyncs_without_resend() {
    let bus = NetworkBus::new(17);
    let (repo, _guard, make_clerk) = setup(&bus, SendMode::Acked);
    let (_servers, handles, stop) = spawn_pool(&repo, "req", 1, echo_handler()).unwrap();

    {
        let clerk = make_clerk();
        clerk.connect().unwrap();
        clerk
            .send(
                "echo",
                b"survives".to_vec(),
                rrq_core::rid::Rid::new("rc", 1),
            )
            .unwrap();
        // Client dies before Receive.
    }
    let mut display = Display::new();
    let mut runtime = ClientRuntime::new(make_clerk());
    let action = runtime.resume(&mut display).unwrap();
    match action {
        ResyncAction::ReceivedOutstanding { rid, reply } => {
            assert_eq!(rid, rrq_core::rid::Rid::new("rc", 1));
            assert_eq!(reply.body, b"survives");
        }
        other => panic!("expected ReceivedOutstanding, got {other:?}"),
    }
    assert_eq!(
        runtime.next_serial(),
        2,
        "serial advanced past recovered rid"
    );

    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
}

/// The §1 availability story: the QM endpoint dies while a request is in
/// flight. The client's calls time out; when the endpoint comes back, a new
/// client incarnation resynchronizes and picks up the reply — the request
/// was never lost because it was stably queued before the outage.
#[test]
fn qm_endpoint_outage_then_recovery() {
    let bus = NetworkBus::new(31);
    let (repo, guard, make_clerk) = setup(&bus, SendMode::Acked);
    let (_servers, handles, stop) = spawn_pool(&repo, "req", 1, echo_handler()).unwrap();

    // Send is acknowledged: stably stored server-side.
    {
        let clerk = make_clerk();
        clerk.connect().unwrap();
        clerk
            .send(
                "echo",
                b"queued before outage".to_vec(),
                rrq_core::rid::Rid::new("rc", 1),
            )
            .unwrap();
    }

    // The QM endpoint process dies.
    guard.shutdown();
    {
        let clerk = make_clerk();
        // All operations now time out — the client cannot even connect.
        let r = clerk.connect();
        assert!(matches!(
            r,
            Err(rrq_core::error::CoreError::Net(rrq_net::NetError::Timeout))
                | Err(rrq_core::error::CoreError::Net(
                    rrq_net::NetError::UnknownEndpoint(_)
                ))
        ));
    }

    // The node restarts its RPC front end (same repository = same disks).
    let _guard2 = QmRpcServer::spawn(&bus, "qm", Arc::clone(&repo));
    let mut display = Display::new();
    let mut runtime = ClientRuntime::new(make_clerk());
    match runtime.resume(&mut display).unwrap() {
        ResyncAction::ReceivedOutstanding { rid, reply } => {
            assert_eq!(rid, rrq_core::rid::Rid::new("rc", 1));
            assert_eq!(reply.body, b"queued before outage");
        }
        other => panic!("expected ReceivedOutstanding, got {other:?}"),
    }

    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
}

/// A receive parks at the QM, and the reply to it is lost: the client↔QM
/// pair is cut (silently, no fail-fast) while the call waits, then the
/// server commits the dequeue of the reply and its answer vanishes. The
/// clerk sees a network error; the dequeue's registration tag still lets
/// the next incarnation find and rereceive that reply, exactly once.
#[test]
fn lost_reply_to_parked_receive_is_rereceived_once() {
    let bus = NetworkBus::new(23);
    let (repo, _guard, _) = setup(&bus, SendMode::Acked);
    let clerk_on = |ep: &str, receive_block: Duration| {
        let mut remote = RemoteQm::new(&bus, ep, "qm");
        remote.set_rpc_timeout(Duration::from_secs(1));
        let mut cfg = ClerkConfig::new("rc", "req");
        cfg.reply_queue = "reply.rc".into();
        cfg.receive_block = receive_block;
        Clerk::new(Arc::new(remote), cfg)
    };
    let rid = rrq_core::rid::Rid::new("rc", 1);

    let clerk = clerk_on("parked-ep", Duration::from_secs(5));
    clerk.connect().unwrap();
    clerk.send("echo", b"cut".to_vec(), rid.clone()).unwrap();
    // No server runs yet, so the receive parks on the empty reply queue.
    let receiver = std::thread::spawn(move || clerk.receive(b""));
    std::thread::sleep(Duration::from_millis(100));
    bus.faults().partition_pair("parked-ep", "qm");
    // Now the reply commits; the parked waiter dequeues it and answers
    // into the cut.
    let (_servers, handles, stop) = spawn_pool(&repo, "req", 1, echo_handler()).unwrap();
    assert!(matches!(
        receiver.join().unwrap(),
        Err(rrq_core::error::CoreError::Net(_))
    ));
    bus.faults().heal_pair("parked-ep", "qm");

    let clerk2 = clerk_on("resync-ep", Duration::from_millis(100));
    let info = clerk2.connect().unwrap();
    assert_eq!(info.s_rid.as_ref(), Some(&rid));
    assert_eq!(
        info.r_rid.as_ref(),
        Some(&rid),
        "the lost dequeue committed"
    );
    let reply = clerk2.rereceive().unwrap();
    assert_eq!((reply.rid, reply.body.as_slice()), (rid, &b"cut"[..]));
    assert_eq!(repo.qm().depth("reply.rc").unwrap(), 0);
    assert!(
        matches!(
            clerk2.receive(b""),
            Err(rrq_core::error::CoreError::Qm(rrq_qm::QmError::Empty(_)))
        ),
        "the reply must not be delivered a second time"
    );

    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
}

/// Message accounting for the §5 Send-mode claim: the one-way mode uses one
/// message per send, the acked mode two (call + ack).
#[test]
fn one_way_send_saves_messages() {
    let bus = NetworkBus::new(19);
    let repo = Arc::new(Repository::create("counting").unwrap());
    repo.create_queue_defaults("req").unwrap();
    let _guard = QmRpcServer::spawn(&bus, "qm", Arc::clone(&repo));

    let acked = RemoteQm::new(&bus, "acked-ep", "qm");
    acked.register("req", "a", false).unwrap();
    for _ in 0..5 {
        acked.enqueue("req", "a", b"x", Default::default()).unwrap();
    }
    let (calls, one_ways) = acked.message_counts();
    assert_eq!((calls, one_ways), (6, 0)); // register + 5 acked enqueues

    let oneway = RemoteQm::new(&bus, "oneway-ep", "qm");
    oneway.register("req", "b", false).unwrap();
    for _ in 0..5 {
        oneway
            .enqueue_unacked("req", "b", b"x", Default::default())
            .unwrap();
    }
    let (calls2, one_ways2) = oneway.message_counts();
    assert_eq!((calls2, one_ways2), (1, 5));
}
