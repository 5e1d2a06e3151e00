//! In-process client/server sessions: the main entry point for
//! applications, tests, and benchmarks.
//!
//! There is one client type, [`RemoteSession`]: a client node, a
//! transport and a call log, carrying the whole call surface over any
//! [`Transport`]. A [`Session`] is a `RemoteSession<ChannelTransport>`
//! plus the server it spawned on its own thread — it adds the builder,
//! `shutdown` and drop, nothing else. A simulated session also prices
//! both nodes' work tallies into its `SimEnv` when the server stops.
//! [`ServerPool`] and [`Session::connect_tcp`] run the identical protocol
//! across real sockets for genuine distribution.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use nrmi_heap::{DenseObjSet, Heap, LinearMap, ObjId, SharedRegistry, Value};
use nrmi_transport::{
    channel_pair, ChannelTransport, Frame, LinkSpec, Listener, MachineSpec, SimEnv, TcpTransport,
    Transport, TransportError,
};

use crate::error::NrmiError;
use crate::lockcheck::{LockClass, TrackedMutex};
use crate::node::{ClientNode, ServerNode};
use crate::profile::RuntimeProfile;
use crate::protocol::{
    client_invoke_on_object_with_stats, client_invoke_pipelined, client_invoke_with_stats,
    serve_connection, CallStats, PipelinedCall,
};
use crate::semantics::CallOptions;
use crate::service::RemoteService;
use crate::trace::Tracer;

/// Configures and launches a [`Session`].
pub struct SessionBuilder {
    registry: SharedRegistry,
    services: Vec<(String, Box<dyn RemoteService>)>,
    class_services: Vec<(nrmi_heap::ClassId, Box<dyn RemoteService>)>,
    env: Option<SimEnv>,
    link: LinkSpec,
    client_machine: MachineSpec,
    server_machine: MachineSpec,
    profile: RuntimeProfile,
}

impl std::fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("services", &self.services.len())
            .field("link", &self.link)
            .finish()
    }
}

impl SessionBuilder {
    /// Binds `service` under `name` on the server.
    pub fn serve(mut self, name: impl Into<String>, service: Box<dyn RemoteService>) -> Self {
        self.services.push((name.into(), service));
        self
    }

    /// Binds `service` as the behavior of remote-marked `class` on the
    /// server: method calls on exported instances (via
    /// [`RemoteSession::call_on`]) dispatch to it with the receiver prepended
    /// as `args[0]`.
    pub fn serve_class(
        mut self,
        class: nrmi_heap::ClassId,
        service: Box<dyn RemoteService>,
    ) -> Self {
        self.class_services.push((class, service));
        self
    }

    /// Enables simulated-time accounting: transfers over `link` are
    /// charged as they happen; when the session stops, each node's work
    /// tally is priced by `profile`'s cost model on its machine.
    pub fn simulated(
        mut self,
        env: SimEnv,
        link: LinkSpec,
        client_machine: MachineSpec,
        server_machine: MachineSpec,
        profile: RuntimeProfile,
    ) -> Self {
        self.env = Some(env);
        self.link = link;
        self.client_machine = client_machine;
        self.server_machine = server_machine;
        self.profile = profile;
        self
    }

    /// Launches the server thread and returns the connected session.
    pub fn build(self) -> Session {
        let (client_t, mut server_t) = channel_pair(self.env.clone(), self.link);
        let mut server = ServerNode::new(self.registry.clone(), self.server_machine);
        for (name, service) in self.services {
            server.bind(name, service);
        }
        for (class, service) in self.class_services {
            server.bind_class(class, service);
        }
        let handle = std::thread::spawn(move || {
            // Orderly disconnects end the loop with Ok; a protocol error
            // from a misbehaving peer also ends it. Either way the node
            // is returned for inspection, and the serve result rides
            // along so `shutdown` can surface what ended the loop
            // instead of swallowing it.
            let result = serve_connection(&mut server, &mut server_t);
            (server, result)
        });
        Session {
            remote: RemoteSession {
                client: ClientNode::new(self.registry, self.client_machine),
                transport: client_t,
                tracer: Tracer::new(),
            },
            server_thread: Some(handle),
            sim: self.env.map(|env| (env, self.profile)),
        }
    }
}

/// A connected client with its in-process server: a
/// [`RemoteSession`] over a channel transport (every call method comes
/// from there, by deref) plus the server thread.
///
/// ```
/// use nrmi_core::{FnService, Session};
/// use nrmi_heap::{ClassRegistry, Value};
///
/// # fn main() -> Result<(), nrmi_core::NrmiError> {
/// let reg = ClassRegistry::new();
/// let mut session = Session::builder(reg.snapshot())
///     .serve(
///         "adder",
///         Box::new(FnService::new(|_m, args, _h| {
///             let (a, b) = (args[0].as_int().unwrap_or(0), args[1].as_int().unwrap_or(0));
///             Ok(Value::Int(a + b))
///         })),
///     )
///     .build();
/// let sum = session.call("adder", "add", &[Value::Int(2), Value::Int(40)])?;
/// assert_eq!(sum, Value::Int(42));
/// # Ok(())
/// # }
/// ```
pub struct Session {
    remote: RemoteSession<ChannelTransport>,
    server_thread: Option<JoinHandle<ServerExit>>,
    /// Where and how a simulated session prices its nodes' work.
    sim: Option<(SimEnv, RuntimeProfile)>,
}

/// What the server thread hands back: the node, and what ended its loop.
type ServerExit = (ServerNode, Result<(), NrmiError>);

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("client", &self.remote.client)
            .finish()
    }
}

impl std::ops::Deref for Session {
    type Target = RemoteSession<ChannelTransport>;

    fn deref(&self) -> &Self::Target {
        &self.remote
    }
}

impl std::ops::DerefMut for Session {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.remote
    }
}

impl Session {
    /// Starts configuring a session over a shared class registry.
    pub fn builder(registry: SharedRegistry) -> SessionBuilder {
        SessionBuilder {
            registry,
            services: Vec::new(),
            class_services: Vec::new(),
            env: None,
            link: LinkSpec::free(),
            client_machine: MachineSpec::fast(),
            server_machine: MachineSpec::slow(),
            profile: RuntimeProfile::default(),
        }
    }

    /// Shuts the server down and returns its final state for inspection
    /// (tests assert on server heaps, export tables, and statistics).
    ///
    /// # Errors
    /// A panicked server thread; the error that ended the serve loop, if
    /// it ended on one (a protocol violation mid-session would otherwise
    /// be silently discarded — the pooled path surfaces worker failures
    /// the same way).
    pub fn shutdown(mut self) -> Result<ServerNode, NrmiError> {
        match self.stop().expect("shutdown called once") {
            Ok((node, Ok(()))) => Ok(node),
            Ok((_, Err(e))) => Err(e),
            Err(_) => Err(NrmiError::Protocol("server thread panicked".into())),
        }
    }

    /// Stops the server thread, once: the client's end of the channel
    /// closes and the serve loop ends on the orderly disconnect (a
    /// goodbye frame would cross a simulated link and be charged). A
    /// simulated session then prices each node's work tally on that
    /// node's machine into its environment.
    fn stop(&mut self) -> Option<std::thread::Result<ServerExit>> {
        let handle = self.server_thread.take()?;
        let (closed, _) = channel_pair(None, LinkSpec::free());
        drop(std::mem::replace(&mut self.remote.transport, closed));
        let joined = handle.join();
        if let Some((env, profile)) = &self.sim {
            let cost = profile.cost();
            let client = &self.remote.client.state;
            env.charge_cpu(&client.machine, cost.price(&client.work));
            if let Ok((server, _)) = &joined {
                env.charge_cpu(&server.state.machine, cost.price(&server.state.work));
            }
        }
        Some(joined)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Configures and launches a multi-client serve loop: an accept thread
/// plus one worker thread per live connection, all dispatching into the
/// lock-split [`SharedServer`](crate::server::SharedServer) — no
/// one-big-lock [`ServerNode`], so independent clients execute
/// concurrently and a client stalled mid-call cannot freeze the others.
///
/// ```no_run
/// use nrmi_core::{ServerNode, ServerPool};
/// use nrmi_transport::TcpListenerTransport;
/// # use nrmi_heap::ClassRegistry;
/// # use nrmi_transport::MachineSpec;
/// # fn main() -> Result<(), nrmi_core::NrmiError> {
/// # let server = ServerNode::new(ClassRegistry::new().snapshot(), MachineSpec::fast());
/// let listener = TcpListenerTransport::bind("127.0.0.1:0")?;
/// let handle = ServerPool::new().serve(server, listener);
/// // ... clients come and go ...
/// let server = handle.shutdown()?; // unblocks accept, drains workers
/// # let _ = server; Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ServerPool {
    max_live: usize,
    max_total: Option<usize>,
    accept_poll: Duration,
    reactor_workers: usize,
}

impl Default for ServerPool {
    fn default() -> Self {
        ServerPool::new()
    }
}

const REACTOR_WORKER_DEFAULT: usize = crate::reactor::REACTOR_WORKERS;

impl ServerPool {
    /// Default configuration: up to 64 live connections, no total
    /// limit, shutdown flag polled every 25 ms.
    pub fn new() -> Self {
        ServerPool {
            max_live: 64,
            max_total: None,
            accept_poll: Duration::from_millis(25),
            reactor_workers: REACTOR_WORKER_DEFAULT,
        }
    }

    /// Caps concurrently served connections; the accept loop waits
    /// (leaving further clients in the listen backlog) while at the cap.
    pub fn max_live_connections(mut self, n: usize) -> Self {
        self.max_live = n.max(1);
        self
    }

    /// Stops accepting after `n` connections in total — the accept loop
    /// then exits on its own and [`ServeHandle::join`] returns once the
    /// last of them disconnects.
    pub fn max_total_connections(mut self, n: usize) -> Self {
        self.max_total = Some(n);
        self
    }

    /// How long each accept wait lasts before the loop rechecks the
    /// shutdown flag — the latency bound on [`ServeHandle::shutdown`]
    /// unblocking `accept`. (The reactor mode needs no poll: its
    /// shutdown wakes the poller directly.)
    pub fn accept_poll(mut self, poll: Duration) -> Self {
        self.accept_poll = poll.max(Duration::from_millis(1));
        self
    }

    /// Worker threads executing cold calls for the whole reactor in
    /// [`ServerPool::serve_reactor`] mode (default 4) — fixed regardless
    /// of connection count. Ignored by thread-per-connection
    /// [`ServerPool::serve`].
    pub fn reactor_workers(mut self, n: usize) -> Self {
        self.reactor_workers = n.max(1);
        self
    }

    /// Splits `server` into shared state, spawns the accept loop on its
    /// own thread, and returns the handle controlling it. Works over
    /// any [`Listener`] (TCP, Unix-domain).
    pub fn serve<L>(self, server: ServerNode, listener: L) -> ServeHandle
    where
        L: Listener + Send + 'static,
    {
        let shared = Arc::new(crate::server::SharedServer::from_node(server));
        let stop = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicUsize::new(0));
        let served = Arc::new(AtomicUsize::new(0));
        let workers: Arc<TrackedMutex<Vec<JoinHandle<()>>>> =
            Arc::new(TrackedMutex::new(LockClass::Control, Vec::new()));
        let accept_error: Arc<TrackedMutex<Option<String>>> =
            Arc::new(TrackedMutex::new(LockClass::Control, None));

        let accept_thread = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let live = Arc::clone(&live);
            let served = Arc::clone(&served);
            let workers = Arc::clone(&workers);
            let accept_error = Arc::clone(&accept_error);
            std::thread::spawn(move || -> Result<(), NrmiError> {
                let mut accepted = 0usize;
                loop {
                    if stop.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    if self.max_total.is_some_and(|n| accepted >= n) {
                        return Ok(());
                    }
                    if live.load(Ordering::SeqCst) >= self.max_live {
                        std::thread::sleep(self.accept_poll);
                        continue;
                    }
                    match listener.accept_timeout(self.accept_poll) {
                        Ok(mut transport) => {
                            accepted += 1;
                            served.fetch_add(1, Ordering::SeqCst);
                            live.fetch_add(1, Ordering::SeqCst);
                            let shared = Arc::clone(&shared);
                            let live = Arc::clone(&live);
                            let worker = std::thread::spawn(move || {
                                // Decrement on every exit path, panics
                                // included, so the accept loop's cap
                                // can't wedge.
                                let _guard = LiveGuard(live);
                                let _ =
                                    crate::server::serve_connection_pooled(&shared, &mut transport);
                            });
                            workers.lock().push(worker);
                        }
                        Err(TransportError::Timeout) => continue,
                        Err(e) => {
                            // An accept failure ends only the accept
                            // loop; live connections keep running. The
                            // message is visible immediately via
                            // `ServeHandle::accept_error`, the error
                            // itself from `join`/`shutdown`.
                            let err = NrmiError::from(e);
                            *accept_error.lock() = Some(err.to_string());
                            return Err(err);
                        }
                    }
                }
            })
        };

        ServeHandle {
            shared: Some(shared),
            stop,
            accept_thread: Some(accept_thread),
            accept_error,
            workers,
            live,
            served,
            #[cfg(unix)]
            waker: None,
        }
    }

    /// Launches the **reactor** serve core instead of a thread per
    /// connection: one event-loop thread owns every socket in
    /// non-blocking mode (a handwritten `poll(2)` loop — see
    /// [`reactor`](crate::reactor)), answering cached/lookup traffic
    /// inline and handing fresh pipelineable cold calls to
    /// [`ServerPool::reactor_workers`] shared worker threads. Exclusive
    /// traffic (warm, object, and remote-reference calls) escalates that
    /// connection to a dedicated blocking thread running the same step
    /// function, so the modes are behaviorally interchangeable — this one
    /// holds thousands of mostly-idle connections at a fixed thread
    /// count.
    ///
    /// The returned handle is the same [`ServeHandle`];
    /// [`ServeHandle::shutdown`] wakes the poller directly (no
    /// accept-poll latency).
    ///
    /// # Errors
    /// Failure to construct the poller's wake channel.
    #[cfg(unix)]
    pub fn serve_reactor<L>(self, server: ServerNode, listener: L) -> Result<ServeHandle, NrmiError>
    where
        L: nrmi_transport::PollableListener + Send + 'static,
        L::Conn: nrmi_transport::ReactorIo + Send + 'static,
    {
        let shared = Arc::new(crate::server::SharedServer::from_node(server));
        let stop = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicUsize::new(0));
        let served = Arc::new(AtomicUsize::new(0));
        let workers: Arc<TrackedMutex<Vec<JoinHandle<()>>>> =
            Arc::new(TrackedMutex::new(LockClass::Control, Vec::new()));
        let accept_error: Arc<TrackedMutex<Option<String>>> =
            Arc::new(TrackedMutex::new(LockClass::Control, None));

        let poller = nrmi_transport::Poller::new()?;
        let waker = poller.waker();
        let config = crate::reactor::ReactorConfig {
            workers: self.reactor_workers,
            max_live: self.max_live,
            max_total: self.max_total,
        };
        let ctl = crate::reactor::ReactorShared {
            stop: Arc::clone(&stop),
            live: Arc::clone(&live),
            served: Arc::clone(&served),
            escalated: Arc::clone(&workers),
            accept_error: Arc::clone(&accept_error),
        };
        let reactor_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                crate::reactor::run_reactor(shared, listener, poller, config, ctl)
            })
        };

        Ok(ServeHandle {
            shared: Some(shared),
            stop,
            accept_thread: Some(reactor_thread),
            accept_error,
            workers,
            live,
            served,
            waker: Some(waker),
        })
    }
}

/// Decrements the live-connection counter when a worker exits — by any
/// path, including a panic unwinding through the serve loop.
pub(crate) struct LiveGuard(pub(crate) Arc<AtomicUsize>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Control handle for a running [`ServerPool`]: inspect progress, and
/// end serving with [`ServeHandle::shutdown`] (which unblocks the
/// accept loop — no dummy connection needed) or wait for a configured
/// total-connection limit with [`ServeHandle::join`].
#[derive(Debug)]
pub struct ServeHandle {
    shared: Option<Arc<crate::server::SharedServer>>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<Result<(), NrmiError>>>,
    accept_error: Arc<TrackedMutex<Option<String>>>,
    workers: Arc<TrackedMutex<Vec<JoinHandle<()>>>>,
    live: Arc<AtomicUsize>,
    served: Arc<AtomicUsize>,
    /// `Some` in reactor mode: shutdown wakes the poller out of its
    /// indefinite wait instead of relying on an accept-poll interval.
    #[cfg(unix)]
    waker: Option<nrmi_transport::Waker>,
}

impl ServeHandle {
    /// Connections currently being served.
    pub fn live_connections(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Connections accepted since the pool started.
    pub fn connections_served(&self) -> usize {
        self.served.load(Ordering::SeqCst)
    }

    /// The accept loop's failure message, available the moment the
    /// failure happens — while healthy connections are still being
    /// served. `None` while the loop is healthy (or ended cleanly).
    pub fn accept_error(&self) -> Option<String> {
        self.accept_error.lock().clone()
    }

    /// Stops accepting (the accept loop notices within its poll
    /// interval — no dummy connection required), waits for in-flight
    /// connections to disconnect, and returns the reassembled server
    /// node.
    ///
    /// # Errors
    /// An accept-loop failure recorded before shutdown.
    pub fn shutdown(mut self) -> Result<ServerNode, NrmiError> {
        self.stop.store(true, Ordering::SeqCst);
        #[cfg(unix)]
        if let Some(waker) = &self.waker {
            waker.wake();
        }
        self.finish()
    }

    /// Waits for the accept loop to end on its own (a configured
    /// [`ServerPool::max_total_connections`] limit, or an accept
    /// failure) and for every connection to drain, then returns the
    /// server node. Blocks forever on an unlimited pool — use
    /// [`ServeHandle::shutdown`] for those.
    ///
    /// # Errors
    /// The accept loop's failure, surfaced after in-flight connections
    /// drain.
    pub fn join(mut self) -> Result<ServerNode, NrmiError> {
        self.finish()
    }

    fn finish(&mut self) -> Result<ServerNode, NrmiError> {
        let accept_result = self
            .accept_thread
            .take()
            .map(|handle| handle.join())
            .unwrap_or(Ok(Ok(())));
        // The accept thread has exited: no further workers will be
        // registered, so draining the list here joins every connection.
        let handles = std::mem::take(&mut *self.workers.lock());
        let mut worker_panicked = false;
        for handle in handles {
            worker_panicked |= handle.join().is_err();
        }
        let shared = self
            .shared
            .take()
            .expect("finish runs once (shutdown/join consume the handle)");
        let node = match Arc::try_unwrap(shared) {
            Ok(shared) => shared.into_node(),
            Err(_) => {
                return Err(NrmiError::Protocol(
                    "server workers still hold the shared state".into(),
                ))
            }
        };
        match accept_result {
            Ok(Ok(())) if worker_panicked => {
                Err(NrmiError::Protocol("a connection worker panicked".into()))
            }
            Ok(Ok(())) => Ok(node),
            Ok(Err(e)) => Err(e),
            Err(_) => Err(NrmiError::Protocol("accept thread panicked".into())),
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        // Dropping the handle without shutdown/join: tell the accept
        // loop to stop and detach. Joining here could block forever on
        // connections whose clients never disconnect.
        self.stop.store(true, Ordering::SeqCst);
        #[cfg(unix)]
        if let Some(waker) = &self.waker {
            waker.wake();
        }
    }
}

/// A client connected over an arbitrary [`Transport`] — a channel to
/// an in-process server ([`Session`]), a real socket (TCP, Unix-domain),
/// a reliable envelope over either, or a custom pipe. The one client
/// type: every way of calling lives here.
pub struct RemoteSession<T: Transport> {
    client: ClientNode,
    transport: T,
    tracer: Tracer,
}

/// A client connected over TCP.
pub type TcpSession = RemoteSession<TcpTransport>;

impl<T: Transport> std::fmt::Debug for RemoteSession<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteSession").finish()
    }
}

impl Session {
    /// Connects a TCP client to a server reachable at `addr`.
    ///
    /// # Errors
    /// Socket failures.
    pub fn connect_tcp(
        registry: SharedRegistry,
        addr: impl std::net::ToSocketAddrs,
    ) -> Result<TcpSession, NrmiError> {
        let transport = TcpTransport::connect(addr)?;
        Ok(RemoteSession::over(registry, transport))
    }

    /// Connects a TCP client with at-most-once call delivery: every call
    /// is stamped with a call id and retried per `policy` — the server
    /// suppresses duplicates from its reply cache, and lost connections
    /// re-dial transparently.
    ///
    /// # Errors
    /// Socket failures.
    pub fn connect_tcp_reliable(
        registry: SharedRegistry,
        addr: impl std::net::ToSocketAddrs,
        policy: crate::reliable::RetryPolicy,
    ) -> Result<RemoteSession<crate::reliable::ReliableTransport<TcpTransport>>, NrmiError> {
        let transport = TcpTransport::connect(addr)?;
        Ok(RemoteSession::over(
            registry,
            crate::reliable::ReliableTransport::new(transport, policy),
        ))
    }

    /// Connects over a Unix-domain socket with at-most-once call
    /// delivery (see [`Session::connect_tcp_reliable`]).
    ///
    /// # Errors
    /// Socket failures.
    #[cfg(unix)]
    pub fn connect_uds_reliable(
        registry: SharedRegistry,
        path: impl AsRef<std::path::Path>,
        policy: crate::reliable::RetryPolicy,
    ) -> Result<
        RemoteSession<crate::reliable::ReliableTransport<nrmi_transport::UdsTransport>>,
        NrmiError,
    > {
        let transport = nrmi_transport::UdsTransport::connect(path)?;
        Ok(RemoteSession::over(
            registry,
            crate::reliable::ReliableTransport::new(transport, policy),
        ))
    }

    /// Connects over a Unix-domain socket at `path`.
    ///
    /// # Errors
    /// Socket failures.
    #[cfg(unix)]
    pub fn connect_uds(
        registry: SharedRegistry,
        path: impl AsRef<std::path::Path>,
    ) -> Result<RemoteSession<nrmi_transport::UdsTransport>, NrmiError> {
        let transport = nrmi_transport::UdsTransport::connect(path)?;
        Ok(RemoteSession::over(registry, transport))
    }
}

impl<T: Transport> RemoteSession<T> {
    /// Wraps an already-connected transport as a client session.
    pub fn over(registry: SharedRegistry, transport: T) -> Self {
        RemoteSession {
            client: ClientNode::new(registry, MachineSpec::fast()),
            transport,
            tracer: Tracer::new(),
        }
    }

    /// The client-side heap (where applications build argument graphs).
    pub fn heap(&mut self) -> &mut Heap {
        &mut self.client.state.heap
    }

    /// The client node (heap plus export/stub tables).
    pub fn client(&mut self) -> &mut ClientNode {
        &mut self.client
    }

    /// Runs one invocation and, when tracing is on, records it — target,
    /// options, outcome, statistics, wall-clock.
    fn traced(
        &mut self,
        target: impl FnOnce() -> String,
        opts: CallOptions,
        invoke: impl FnOnce(&mut ClientNode, &mut T) -> Result<(Value, CallStats), NrmiError>,
    ) -> Result<(Value, CallStats), NrmiError> {
        let started = self.tracer.is_enabled().then(std::time::Instant::now);
        let result = invoke(&mut self.client, &mut self.transport);
        if let Some(started) = started {
            let (error, stats) = match &result {
                Ok((_, stats)) => (None, *stats),
                Err(e) => (Some(e.to_string()), CallStats::default()),
            };
            self.tracer
                .record(target(), opts, error, stats, started.elapsed());
        }
        result
    }

    /// Invokes a remote method with marker-driven semantics
    /// ([`CallOptions::auto`]).
    ///
    /// # Errors
    /// Marshalling, transport, protocol, and remote-exception failures.
    pub fn call(
        &mut self,
        service: &str,
        method: &str,
        args: &[Value],
    ) -> Result<Value, NrmiError> {
        self.call_with(service, method, args, CallOptions::auto())
    }

    /// Invokes a remote method with explicit options.
    ///
    /// # Errors
    /// As [`RemoteSession::call`].
    pub fn call_with(
        &mut self,
        service: &str,
        method: &str,
        args: &[Value],
        opts: CallOptions,
    ) -> Result<Value, NrmiError> {
        self.call_with_stats(service, method, args, opts)
            .map(|(v, _)| v)
    }

    /// Invokes a remote method and returns per-call statistics alongside
    /// the result.
    ///
    /// # Errors
    /// As [`RemoteSession::call`].
    pub fn call_with_stats(
        &mut self,
        service: &str,
        method: &str,
        args: &[Value],
        opts: CallOptions,
    ) -> Result<(Value, CallStats), NrmiError> {
        self.traced(
            || format!("{service}.{method}"),
            opts,
            |client, transport| {
                client_invoke_with_stats(client, transport, service, method, args, opts)
            },
        )
    }

    /// Issues a batch of calls back to back on the connection before
    /// collecting any reply — pipelining: one network round trip of
    /// latency is paid for the whole batch instead of per call. Results
    /// come back in issue order, each slot carrying its own outcome
    /// (a remote exception or per-call deadline failure in one slot
    /// does not poison its neighbors). Over a reliable transport the
    /// batch is multiplexed by call id, so replies may complete out of
    /// order on the wire and are still delivered in issue order here.
    ///
    /// Remote-reference calls cannot be batched (their mid-call
    /// callbacks interleave with the reply stream); see
    /// [`client_invoke_pipelined`].
    ///
    /// # Errors
    /// Marshalling failures, transport loss, and protocol violations
    /// fail the whole batch; per-call failures come back in that call's
    /// slot.
    pub fn call_pipelined(
        &mut self,
        calls: &[PipelinedCall],
    ) -> Result<Vec<Result<Value, NrmiError>>, NrmiError> {
        client_invoke_pipelined(&mut self.client, &mut self.transport, calls)
    }

    /// Invokes a remote method through the warm-call protocol: the first
    /// call per service seeds a server-side cache of the argument graph;
    /// later calls ship only a request delta (objects mutated, freed, or
    /// newly reachable since the previous call). Semantics are full
    /// copy-restore with delta replies. See [`crate::warm`].
    ///
    /// # Errors
    /// As [`RemoteSession::call`]; a remote error retires the session
    /// cache, so the next call reseeds.
    pub fn call_warm(
        &mut self,
        service: &str,
        method: &str,
        args: &[Value],
    ) -> Result<Value, NrmiError> {
        self.call_warm_with_stats(service, method, args)
            .map(|(v, _)| v)
    }

    /// [`RemoteSession::call_warm`] returning per-call statistics
    /// (request and reply bytes reflect the delta sizes).
    ///
    /// # Errors
    /// As [`RemoteSession::call_warm`].
    pub fn call_warm_with_stats(
        &mut self,
        service: &str,
        method: &str,
        args: &[Value],
    ) -> Result<(Value, CallStats), NrmiError> {
        self.traced(
            || format!("{service}.{method}"),
            CallOptions::copy_restore_delta(),
            |client, transport| {
                crate::warm::client_invoke_warm_with_stats(client, transport, service, method, args)
            },
        )
    }

    /// Retires the warm session for `service`: drops the client cache
    /// and tells the server to free its cached graph. A no-op if no
    /// session is established.
    ///
    /// # Errors
    /// Transport failures sending the eviction notice.
    pub fn evict_warm(&mut self, service: &str) -> Result<(), NrmiError> {
        crate::warm::client_evict_warm(&mut self.client, &mut self.transport, service)
    }

    /// The generation the next warm call to `service` will carry
    /// (`None` before the first call and after eviction; 1 right after
    /// seeding; +1 per completed warm call).
    pub fn warm_generation(&self, service: &str) -> Option<u64> {
        self.client.warm.generation(service)
    }

    /// Starts recording a [`CallTrace`](crate::trace::CallTrace) per
    /// invocation; inspect with [`RemoteSession::tracer`].
    pub fn enable_tracing(&mut self) {
        self.tracer.enable();
    }

    /// The session's call log.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the call log (e.g. to clear it between phases).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Invokes a method ON a remote object this client holds a stub for
    /// (obtained from an earlier call's return value or a marshalled
    /// graph) — the RMI factory pattern: look up a factory service, get
    /// back a remote object, call methods on it directly.
    ///
    /// # Errors
    /// [`NrmiError::InvalidArgument`] if `stub` is not a stub; the usual
    /// call failures otherwise.
    pub fn call_on(
        &mut self,
        stub: ObjId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, NrmiError> {
        self.call_on_with(stub, method, args, CallOptions::auto())
    }

    /// [`RemoteSession::call_on`] with explicit options.
    ///
    /// # Errors
    /// As [`RemoteSession::call_on`].
    pub fn call_on_with(
        &mut self,
        stub: ObjId,
        method: &str,
        args: &[Value],
        opts: CallOptions,
    ) -> Result<Value, NrmiError> {
        self.traced(
            || format!("{stub}.{method}"),
            opts,
            |client, transport| {
                client_invoke_on_object_with_stats(client, transport, stub, method, args, opts)
            },
        )
        .map(|(v, _)| v)
    }

    /// Queries the server's registry for `name` (the `Naming.lookup`
    /// analogue).
    ///
    /// # Errors
    /// Transport failures or protocol violations.
    pub fn lookup(&mut self, name: &str) -> Result<bool, NrmiError> {
        self.transport.send(&Frame::Lookup {
            name: name.to_owned(),
        })?;
        match self.transport.recv()? {
            Frame::LookupReply { found } => Ok(found),
            other => Err(NrmiError::Protocol(format!(
                "expected LookupReply, got {other:?}"
            ))),
        }
    }

    /// Releases a stub held by the client: sends the DGC clean message
    /// for its key and drops the local stub object. The analogue of the
    /// client-side GC detecting an unreachable remote reference.
    ///
    /// # Errors
    /// Transport failures, or heap errors if `stub` is not a live stub.
    pub fn release_stub(&mut self, stub: ObjId) -> Result<(), NrmiError> {
        let key = self
            .client
            .state
            .heap
            .stub_key(stub)?
            .ok_or_else(|| NrmiError::InvalidArgument(format!("{stub} is not a stub")))?;
        self.transport.send(&Frame::DgcClean { key })?;
        self.client.state.stubs.remove(&key);
        self.client.state.heap.free(stub)?;
        Ok(())
    }

    /// Runs a client-side garbage collection: everything unreachable
    /// from `roots` (plus objects pinned by the peer's stubs, which are
    /// GC roots) is freed, and a DGC clean message is sent for every
    /// stub that became unreachable — the full RMI DGC loop. Returns
    /// `(objects_freed, cleans_sent)`.
    ///
    /// Acyclic cross-heap garbage is reclaimed by this mechanism;
    /// distributed *cycles* are not (each side's stub is pinned by the
    /// other side's object), which is exactly the paper's Table 6 leak.
    ///
    /// # Errors
    /// Transport failures while sending cleans; heap errors.
    pub fn collect_garbage(&mut self, roots: &[ObjId]) -> Result<(usize, usize), NrmiError> {
        let state = &mut self.client.state;
        // Objects the PEER holds references to must survive local GC.
        let mut gc_roots: Vec<ObjId> = roots.to_vec();
        gc_roots.extend(state.exports.roots());
        let mut reachable = DenseObjSet::new();
        for &id in LinearMap::build(&state.heap, &gc_roots)?.order() {
            reachable.insert(id);
        }
        // Unreachable stubs: release the peer's export before freeing.
        let doomed: Vec<(u64, ObjId)> = state
            .stubs
            .iter()
            .filter(|(_, stub)| !reachable.contains(**stub))
            .map(|(&key, &stub)| (key, stub))
            .collect();
        let mut cleans = 0;
        for (key, stub) in doomed {
            self.transport.send(&Frame::DgcClean { key })?;
            self.client.state.stubs.remove(&key);
            cleans += 1;
            let _ = stub; // freed by the sweep below
        }
        let freed = nrmi_heap::gc::mark_sweep(&mut self.client.state.heap, &gc_roots)?;
        Ok((freed, cleans))
    }

    /// Ends the connection (the server moves on to its next client).
    ///
    /// # Errors
    /// Socket failures.
    pub fn close(mut self) -> Result<(), NrmiError> {
        self.transport.send(&Frame::Shutdown)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::FnService;
    use nrmi_heap::ClassRegistry;

    fn adder_session() -> Session {
        Session::builder(ClassRegistry::new().snapshot())
            .serve(
                "adder",
                Box::new(FnService::new(|_m, args, _h| {
                    let (a, b) = (args[0].as_int().unwrap_or(0), args[1].as_int().unwrap_or(0));
                    Ok(Value::Int(a + b))
                })),
            )
            .build()
    }

    #[test]
    fn shutdown_returns_the_node_on_clean_exit() {
        let mut session = adder_session();
        let sum = session
            .call("adder", "add", &[Value::Int(1), Value::Int(2)])
            .unwrap();
        assert_eq!(sum, Value::Int(3));
        session.shutdown().unwrap();
    }

    #[test]
    fn shutdown_surfaces_the_error_that_ended_the_serve_loop() {
        let mut session = adder_session();
        // A reply frame arriving at the server is a protocol violation.
        // The serve loop errors out; the old code discarded that error
        // and shutdown reported nothing but a dead channel.
        session
            .transport
            .send(&Frame::LookupReply { found: true })
            .unwrap();
        let err = session.shutdown().unwrap_err();
        assert!(
            err.to_string().contains("unexpected frame"),
            "expected the serve loop's protocol error, got: {err}"
        );
    }

    #[test]
    fn call_pipelined_delivers_results_in_issue_order() {
        let mut session = adder_session();
        let calls: Vec<PipelinedCall> = (0..5)
            .map(|i| PipelinedCall::new("adder", "add", vec![Value::Int(i), Value::Int(10 * i)]))
            .collect();
        let results = session.call_pipelined(&calls).unwrap();
        assert_eq!(results.len(), 5);
        for (i, slot) in results.into_iter().enumerate() {
            assert_eq!(slot.unwrap(), Value::Int(11 * i as i32));
        }
        session.shutdown().unwrap();
    }

    #[test]
    fn call_pipelined_isolates_per_call_remote_errors() {
        let mut session = Session::builder(ClassRegistry::new().snapshot())
            .serve(
                "picky",
                Box::new(FnService::new(|_m, args, _h| match args[0].as_int() {
                    Some(n) if n >= 0 => Ok(Value::Int(n)),
                    _ => Err(NrmiError::app("negative input")),
                })),
            )
            .build();
        let calls = vec![
            PipelinedCall::new("picky", "id", vec![Value::Int(7)]),
            PipelinedCall::new("picky", "id", vec![Value::Int(-1)]),
            PipelinedCall::new("picky", "id", vec![Value::Int(9)]),
        ];
        let results = session.call_pipelined(&calls).unwrap();
        assert_eq!(results[0].as_ref().unwrap(), &Value::Int(7));
        assert!(
            matches!(results[1], Err(NrmiError::Remote(_))),
            "the failing slot carries its own error: {:?}",
            results[1]
        );
        assert_eq!(results[2].as_ref().unwrap(), &Value::Int(9));
        session.shutdown().unwrap();
    }
}
