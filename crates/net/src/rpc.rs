//! Remote procedure call and one-way messaging over the bus.
//!
//! [`RpcClient::call`] is the clerk's normal path (§5: "the clerk invokes QM
//! operations using remote procedure call"); [`RpcClient::send_one_way`] is
//! the §5 optimization where `Send` forgoes the enqueue acknowledgement —
//! "this saves a message from the QM to the client in the common case that
//! the reply arrives within the client's timeout period".
//!
//! A server handler answers each request either [`Answer::Now`], from the
//! serving loop, or [`Answer::Later`]: it keeps a [`Responder`] for the
//! request and replies through it from another thread, so a request that
//! must wait never stalls the loop for the requests behind it.

use crate::bus::{Endpoint, Envelope, NetworkBus};
use crate::error::{NetError, NetResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client half: issues requests from its own endpoint and matches replies by
/// correlation id.
pub struct RpcClient {
    endpoint: Endpoint,
    next_corr: AtomicU64,
    /// RPC calls issued (see [`RpcClient::counts`]).
    calls: AtomicU64,
    /// One-way sends issued.
    one_ways: AtomicU64,
}

impl RpcClient {
    /// Create a client endpoint named `name` on `bus`.
    pub fn new(bus: &NetworkBus, name: &str) -> Self {
        RpcClient {
            endpoint: bus.endpoint(name),
            next_corr: AtomicU64::new(1),
            calls: AtomicU64::new(0),
            one_ways: AtomicU64::new(0),
        }
    }

    /// This client's endpoint name.
    pub fn name(&self) -> &str {
        self.endpoint.name()
    }

    /// (rpc calls, one-way sends) so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Acquire),
            self.one_ways.load(Ordering::Acquire),
        )
    }

    /// Synchronous request/response. Envelopes that arrive with a stale
    /// correlation id (replies to calls that already timed out) are
    /// discarded.
    pub fn call(&self, to: &str, payload: Vec<u8>, timeout: Duration) -> NetResult<Vec<u8>> {
        self.calls.fetch_add(1, Ordering::AcqRel);
        rrq_obs::counter_inc("net.rpc.calls");
        let corr = self.next_corr.fetch_add(1, Ordering::AcqRel);
        self.endpoint.send_to(to, corr, false, payload)?;
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                rrq_obs::counter_inc("net.rpc.timeouts");
                return Err(NetError::Timeout);
            }
            let env = self.endpoint.recv(deadline - now)?;
            if env.is_reply && env.correlation == corr {
                return Ok(env.payload);
            }
            // Stale or unexpected: drop and keep waiting.
        }
    }

    /// Fire-and-forget send; no acknowledgement, no failure signal beyond
    /// local misconfiguration.
    pub fn send_one_way(&self, to: &str, payload: Vec<u8>) -> NetResult<()> {
        self.one_ways.fetch_add(1, Ordering::AcqRel);
        self.endpoint.send_to(to, 0, false, payload)
    }
}

/// How a server handler answers one request.
pub enum Answer {
    /// Reply with this payload now, from the serving loop.
    Now(Vec<u8>),
    /// The handler kept a [`Responder`] for the request and replies through
    /// it later, possibly from another thread.
    Later,
}

impl From<Vec<u8>> for Answer {
    fn from(payload: Vec<u8>) -> Self {
        Answer::Now(payload)
    }
}

/// The reply path of one request, detached from the serving loop.
pub struct Responder {
    bus: NetworkBus,
    from: String,
    to: String,
    correlation: u64,
}

impl Responder {
    /// The reply path for `request`, received on `bus`.
    pub fn new(bus: &NetworkBus, request: &Envelope) -> Self {
        Responder {
            bus: bus.clone(),
            from: request.to.clone(),
            to: request.from.clone(),
            correlation: request.correlation,
        }
    }

    /// Send the reply. One-way requests (correlation 0) get none.
    pub fn send(self, payload: Vec<u8>) -> NetResult<()> {
        if self.correlation == 0 {
            return Ok(());
        }
        match self.bus.send(Envelope {
            from: self.from,
            to: self.to,
            correlation: self.correlation,
            is_reply: true,
            payload,
        }) {
            // A reply that can't reach the caller (fail-fast partition, or
            // the caller's endpoint restarted away) is a lost message, not a
            // server fault — the caller times out and resynchronizes, the
            // server keeps serving.
            Err(NetError::Partitioned | NetError::UnknownEndpoint(_)) => Ok(()),
            other => other,
        }
    }
}

/// Server half: receives requests on its endpoint and answers each through
/// the handler's [`Answer`].
pub struct RpcServer {
    endpoint: Endpoint,
}

impl RpcServer {
    /// Create a server endpoint named `name` on `bus`.
    pub fn new(bus: &NetworkBus, name: &str) -> Self {
        RpcServer {
            endpoint: bus.endpoint(name),
        }
    }

    /// Receive one request (up to `timeout`) and answer it with `handler`.
    /// One-way messages (correlation 0) are handled without replying.
    /// Returns `false` on timeout.
    pub fn serve_one<A: Into<Answer>>(
        &self,
        timeout: Duration,
        handler: impl FnOnce(&Envelope) -> A,
    ) -> NetResult<bool> {
        match self.endpoint.recv(timeout) {
            Ok(env) => {
                if let Answer::Now(payload) = handler(&env).into() {
                    Responder::new(self.endpoint.bus(), &env).send(payload)?;
                }
                Ok(true)
            }
            Err(NetError::Timeout) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Serve until `stop` returns true, with a poll interval for the stop
    /// check.
    pub fn serve_until<A: Into<Answer>>(
        &self,
        stop: impl Fn() -> bool,
        mut handler: impl FnMut(&Envelope) -> A,
    ) -> NetResult<()> {
        while !stop() {
            self.serve_one(Duration::from_millis(20), &mut handler)?;
        }
        Ok(())
    }
}

/// Spawn a server loop on a thread; returns a shutdown guard. The handler
/// is dropped on the serving thread before the guard's join returns, so
/// whatever it owns (threads answering [`Answer::Later`] requests among
/// them) is gone once the server is.
pub fn spawn_server<A: Into<Answer>>(
    bus: &NetworkBus,
    name: &str,
    handler: impl FnMut(&Envelope) -> A + Send + 'static,
) -> ServerGuard {
    let server = RpcServer::new(bus, name);
    let stop = Arc::new(AtomicU64::new(0));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let _ = server.serve_until(|| stop2.load(Ordering::Acquire) != 0, handler);
    });
    ServerGuard {
        stop,
        handle: Some(handle),
    }
}

/// Stops the spawned server when dropped.
pub struct ServerGuard {
    stop: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ServerGuard {
    /// Stop the server and join its thread.
    pub fn shutdown(mut self) {
        self.stop.store(1, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        self.stop.store(1, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_rpc() {
        let bus = NetworkBus::new(1);
        let _guard = spawn_server(&bus, "server", |env| {
            let mut out = b"echo:".to_vec();
            out.extend_from_slice(&env.payload);
            out
        });
        let client = RpcClient::new(&bus, "client");
        let reply = client
            .call("server", b"hello".to_vec(), Duration::from_secs(2))
            .unwrap();
        assert_eq!(reply, b"echo:hello");
        assert_eq!(client.counts(), (1, 0));
    }

    #[test]
    fn rpc_times_out_without_server() {
        let bus = NetworkBus::new(1);
        bus.endpoint("server"); // exists but nobody serves
        let client = RpcClient::new(&bus, "client");
        let r = client.call("server", b"x".to_vec(), Duration::from_millis(50));
        assert_eq!(r, Err(NetError::Timeout));
    }

    #[test]
    fn rpc_times_out_under_partition_then_recovers() {
        let bus = NetworkBus::new(1);
        let _guard = spawn_server(&bus, "server", |_| b"ok".to_vec());
        let client = RpcClient::new(&bus, "client");
        bus.faults().partition_pair("client", "server");
        assert_eq!(
            client.call("server", vec![], Duration::from_millis(60)),
            Err(NetError::Timeout)
        );
        bus.faults().heal_pair("client", "server");
        assert_eq!(
            client
                .call("server", vec![], Duration::from_secs(2))
                .unwrap(),
            b"ok"
        );
    }

    #[test]
    fn stale_replies_are_discarded() {
        let bus = NetworkBus::new(1);
        // A slow server: delays the first reply past the client timeout.
        bus.faults()
            .set_delay("server", "client", Duration::from_millis(80));
        let _guard = spawn_server(&bus, "server", |env| env.payload.clone());
        let client = RpcClient::new(&bus, "client");
        assert_eq!(
            client.call("server", b"first".to_vec(), Duration::from_millis(30)),
            Err(NetError::Timeout)
        );
        bus.faults().set_delay("server", "client", Duration::ZERO);
        // The second call must get the *second* reply even though the first,
        // late reply arrives in between.
        let r = client
            .call("server", b"second".to_vec(), Duration::from_secs(2))
            .unwrap();
        assert_eq!(r, b"second");
    }

    #[test]
    fn server_survives_unreachable_reply_path() {
        let bus = NetworkBus::new(1);
        bus.faults().set_fail_fast(true);
        let _guard = spawn_server(&bus, "server", |_| b"ok".to_vec());
        let client = RpcClient::new(&bus, "client");
        // Requests get through; replies are refused fail-fast. The server
        // loop must shrug that off rather than die.
        bus.faults().partition("server", "client");
        assert_eq!(
            client.call("server", vec![], Duration::from_millis(60)),
            Err(NetError::Timeout)
        );
        bus.faults().heal("server", "client");
        assert_eq!(
            client
                .call("server", vec![], Duration::from_secs(2))
                .unwrap(),
            b"ok"
        );
    }

    /// A handler may answer later from another thread; the loop goes on
    /// serving meanwhile, and the late reply still reaches its caller.
    #[test]
    fn later_answer_replies_from_another_thread() {
        let bus = NetworkBus::new(1);
        let (tx, rx) = crossbeam::channel::unbounded::<Responder>();
        let bus2 = bus.clone();
        let _guard = spawn_server(&bus, "server", move |env| {
            if env.payload == b"later" {
                let _ = tx.send(Responder::new(&bus2, env));
                Answer::Later
            } else {
                Answer::Now(b"now".to_vec())
            }
        });
        let slow = RpcClient::new(&bus, "slow");
        let t = std::thread::spawn(move || {
            slow.call("server", b"later".to_vec(), Duration::from_secs(2))
        });
        // The slow request is now held, unanswered; the loop still serves.
        let responder = rx.recv().unwrap();
        let fast = RpcClient::new(&bus, "fast");
        assert_eq!(
            fast.call("server", vec![], Duration::from_secs(2)).unwrap(),
            b"now"
        );
        responder.send(b"late".to_vec()).unwrap();
        assert_eq!(t.join().unwrap().unwrap(), b"late");
    }

    #[test]
    fn one_way_send_reaches_server() {
        let bus = NetworkBus::new(1);
        let (tx, rx) = crossbeam::channel::unbounded();
        let _guard = spawn_server(&bus, "server", move |env| {
            tx.send(env.payload.clone()).unwrap();
            vec![]
        });
        let client = RpcClient::new(&bus, "client");
        client.send_one_way("server", b"fire".to_vec()).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap(), b"fire");
        assert_eq!(client.counts(), (0, 1));
    }
}
