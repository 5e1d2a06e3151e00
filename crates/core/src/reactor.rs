//! The event-driven server core: one reactor thread owns every
//! connection socket in non-blocking mode and drives framed reads and
//! writes off `poll(2)` readiness events, so mostly-idle fleets cost
//! one thread plus per-connection buffers instead of a worker thread
//! (or six, pipelined) per connection.
//!
//! ## Division of labor
//!
//! * **The reactor thread** accepts, reads frames as they become
//!   complete, runs the serve core's node-free front half on each one
//!   ([`reactor_classify`]), answers cache hits and lookups inline, and
//!   queues fresh pipelineable cold calls to a small **fixed worker
//!   pool** shared by *all* connections (contrast the pipelined driver,
//!   which spawns a writer plus [`PIPELINE_WORKERS`](super::server) per
//!   connection).
//! * **Workers** finish offloaded calls with
//!   [`Connection::execute`](crate::protocol::Connection::execute)
//!   against per-worker private node state (the same isolation a pooled
//!   connection gets) and hand the reply frame back to the reactor
//!   through a completion channel, waking the poller.
//! * **Exclusive traffic** — warm calls, object calls, remote-ref
//!   calls, cache evictions, DGC cleans — *escalates* the connection to
//!   a dedicated thread running the pooled driver over the full step
//!   ([`serve_connection_escalated`](super::server)): the reactor stops
//!   reading, waits for the connection's in-flight worker jobs to
//!   complete and its output queue to drain (so no two threads ever
//!   write one socket), restores blocking mode, and hands over the
//!   socket plus any frames it had read past the trigger. Idle
//!   connections therefore hold **no** node state: a connection node is
//!   created lazily, only on escalation or in a worker.
//!
//! ## Protocol invariants
//!
//! The reactor changes *who blocks*, never the protocol. The
//! begin/execute/store discipline of the sharded reply cache is the
//! same `admit` every driver goes through — [`reactor_classify`] is
//! the single place a reactor consults it, and escalation-triggering
//! frames are handed over *before* any `begin`, so the escalated
//! connection's own step performs the first and only one.
//! Backpressure mirrors the bounded pipelined queues: a connection
//! above its in-flight or queued-output watermark simply stops being
//! read until it drains, leaving the excess in kernel socket buffers
//! where the client's TCP window absorbs it.

// The step vocabulary and front half ([`ReactorStep`],
// [`reactor_classify`]) are pure protocol logic and compile everywhere
// — the model checker enumerates them on any platform. Only the poll(2)
// event loop itself is unix-only.
#[cfg(unix)]
use std::collections::{HashMap, VecDeque};
#[cfg(unix)]
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
#[cfg(unix)]
use std::sync::{mpsc, Arc};
#[cfg(unix)]
use std::thread::JoinHandle;
#[cfg(unix)]
use std::time::{Duration, Instant};

#[cfg(unix)]
use nrmi_transport::poller::{Event, Interest, Poller, Token};
use nrmi_transport::Frame;
#[cfg(unix)]
use nrmi_transport::{PollableListener, ReactorIo, SendQueue};

#[cfg(unix)]
use crate::error::NrmiError;
#[cfg(unix)]
use crate::lockcheck::{LockClass, TrackedMutex};
#[cfg(unix)]
use crate::protocol::Connection;
use crate::server::{is_pipelineable, SharedServer};
#[cfg(unix)]
use crate::server::{serve_connection_escalated, NoCallbackTransport};
#[cfg(unix)]
use crate::session::LiveGuard;

/// Worker threads executing pipelineable cold calls for the whole
/// reactor — fixed, regardless of connection count.
pub(crate) const REACTOR_WORKERS: usize = 4;

/// Tagged calls a single connection may have queued or executing before
/// the reactor stops reading it.
#[cfg(unix)]
const CONN_MAX_IN_FLIGHT: usize = 32;

/// Queued output bytes above which the reactor stops reading a
/// connection: a client that stops draining replies stalls its own
/// request stream (the rest backs up in kernel socket buffers).
#[cfg(unix)]
const OUT_HIGH_WATER: usize = 1 << 20;

/// Job-queue capacity handed to the worker pool.
#[cfg(unix)]
const JOB_QUEUE: usize = 256;

/// Reactor-side job overflow length above which every connection stops
/// being read until the workers catch up.
#[cfg(unix)]
const JOB_OVERFLOW_PAUSE: usize = 256;

/// How long shutdown drains busy connections before force-closing them.
#[cfg(unix)]
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// What a serve driver does with one decoded frame: the vocabulary of
/// the serve core's step function ([`Connection::step`]) and of its
/// node-free front half ([`reactor_classify`]). Drivers only move bytes
/// and queue frames; every protocol decision is already in the step.
///
/// [`Connection::step`]: crate::protocol::Connection::step
#[derive(Debug)]
pub enum ReactorStep {
    /// Write `pushes`, then `reply`, in that order. `pushes` are
    /// `CacheStale` invalidations for other warm sessions of the same
    /// connection that the call staled; they travel *ahead* of the reply
    /// because a synchronous client consumes everything up to its reply
    /// before it can issue another request, so a pushed patch can never
    /// cross a request delta computed against pre-patch state. Empty
    /// (and unallocated) for everything but untagged warm calls.
    Reply {
        /// Invalidations to write before `reply`.
        pushes: Vec<Frame>,
        /// The frame's own answer.
        reply: Frame,
    },
    /// Hand the call to a worker, which finishes it with
    /// [`Connection::execute`](crate::protocol::Connection::execute);
    /// the reply cache has marked `(nonce, seq)` executing.
    Offload {
        /// Session nonce of the call id.
        nonce: u64,
        /// Sequence number of the call id.
        seq: u64,
        /// The inner (untagged) call frame to execute.
        call: Frame,
    },
    /// Nothing to write: a fire-and-forget frame (`DgcClean`,
    /// `CacheEvict`), or a duplicate of a call currently executing (the
    /// client's next retransmission replays the stored reply).
    Ignore,
    /// This step has no rule for the frame; it comes back unprocessed
    /// (the reply cache has *not* been consulted). From
    /// [`reactor_classify`] that is exclusive traffic: the reactor
    /// escalates the connection to a blocking driver, whose full step
    /// performs the first and only `begin`. From the full step there is
    /// nobody left to ask: drivers end the connection with a protocol
    /// error.
    Escalate(Frame),
    /// Orderly end of the connection (`Shutdown`).
    Close,
}

impl ReactorStep {
    /// A lone reply with nothing pushed ahead of it.
    pub fn reply(reply: Frame) -> Self {
        ReactorStep::Reply {
            pushes: Vec::new(),
            reply,
        }
    }

    /// The frames this step puts on the wire, in order — pushes, then
    /// the reply; nothing for the other steps. What an in-process link
    /// (a test, a bench, the model checker) queues for its client.
    pub fn into_replies(self) -> impl Iterator<Item = Frame> {
        let (pushes, reply) = match self {
            ReactorStep::Reply { pushes, reply } => (pushes, Some(reply)),
            _ => (Vec::new(), None),
        };
        pushes.into_iter().chain(reply)
    }
}

/// The node-free front half of the step: what a driver that owns no
/// connection node (the reactor thread) can decide on its own — lookups,
/// reply-cache hits, and offloading fresh pipelineable calls. Everything
/// else escalates. Public so the model checker and the benchmark drive
/// the production function; `offload` is [`SharedServer::offloadable`]
/// snapshotted at accept (false routes every tagged call to escalation,
/// preserving single-thread execution for remote-ref schemas).
pub fn reactor_classify(shared: &SharedServer, offload: bool, frame: Frame) -> ReactorStep {
    match frame {
        Frame::Shutdown => ReactorStep::Close,
        Frame::Lookup { name } => ReactorStep::reply(Frame::LookupReply {
            found: shared.is_bound(&name),
        }),
        // The guard matters for ordering: only calls the reactor's own
        // workers will execute are ever begun here.
        Frame::Tagged { nonce, seq, frame } if offload && is_pipelineable(&frame) => {
            match shared.replies.admit(nonce, seq) {
                Some(step) => step,
                None => ReactorStep::Offload {
                    nonce,
                    seq,
                    call: *frame,
                },
            }
        }
        other => ReactorStep::Escalate(other),
    }
}

/// A call in flight to the worker pool: (connection token, nonce, seq,
/// inner call frame).
#[cfg(unix)]
type ReactorJob = (usize, u64, u64, Frame);

/// Per-connection reactor state. Note what is *absent*: no node, no
/// heap, no warm caches — an idle connection is a socket, a resumable
/// frame parser (inside the transport), and these few words.
#[cfg(unix)]
struct Conn<C> {
    io: C,
    out: SendQueue,
    /// Jobs queued or executing in the worker pool for this connection.
    in_flight: usize,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// `Some` once an exclusive frame arrived: the trigger frame plus
    /// everything read after it, replayed by the escalated thread.
    escalation: Option<Vec<Frame>>,
    /// Flush-then-drop (orderly `Shutdown`, or server-side drain).
    closing: bool,
}

#[cfg(unix)]
impl<C> Conn<C> {
    /// No worker jobs outstanding and nothing left to write — safe to
    /// hand the socket to another thread or drop it.
    fn quiescent(&self) -> bool {
        self.in_flight == 0 && self.out.is_empty()
    }
}

/// Configuration snapshot for [`run_reactor`], carried from
/// [`ServerPool`](crate::session::ServerPool).
#[cfg(unix)]
pub(crate) struct ReactorConfig {
    pub workers: usize,
    pub max_live: usize,
    pub max_total: Option<usize>,
}

/// Shared counters and handles between the reactor thread and its
/// [`ServeHandle`](crate::session::ServeHandle).
#[cfg(unix)]
pub(crate) struct ReactorShared {
    pub stop: Arc<AtomicBool>,
    pub live: Arc<AtomicUsize>,
    pub served: Arc<AtomicUsize>,
    pub escalated: Arc<TrackedMutex<Vec<JoinHandle<()>>>>,
    pub accept_error: Arc<TrackedMutex<Option<String>>>,
}

/// The reactor serve loop. Runs on its own thread until stopped (via
/// the poller's waker) or until `max_total` connections have been
/// served and drained; joins its worker pool before returning.
/// Escalated-connection threads are pushed onto `shared_ctl.escalated`
/// for the serve handle to join.
#[cfg(unix)]
pub(crate) fn run_reactor<L>(
    shared: Arc<SharedServer>,
    listener: L,
    mut poller: Poller,
    config: ReactorConfig,
    ctl: ReactorShared,
) -> Result<(), NrmiError>
where
    L: PollableListener + Send + 'static,
    L::Conn: ReactorIo + Send + 'static,
{
    const LISTENER: Token = Token(0);
    listener.set_nonblocking(true)?;
    poller.register(LISTENER, listener.raw_fd(), Interest::READABLE);

    let offload = shared.offloadable();
    let (job_tx, job_rx) = mpsc::sync_channel::<ReactorJob>(JOB_QUEUE);
    let (done_tx, done_rx) = mpsc::channel::<(usize, Frame)>();
    let job_rx = Arc::new(TrackedMutex::new(LockClass::ReactorQueue, job_rx));
    let waker = poller.waker();
    let mut worker_handles = Vec::new();
    for _ in 0..config.workers {
        let shared = Arc::clone(&shared);
        let job_rx = Arc::clone(&job_rx);
        let done_tx = done_tx.clone();
        let waker = waker.clone();
        worker_handles.push(std::thread::spawn(move || {
            // Per-worker private node state — workers contend only on
            // service mutexes and reply-cache shards, like pooled
            // connections do.
            let mut node = shared.connection_node();
            let mut warm = crate::warm::WarmCaches::with_leases(node.leases.clone());
            let mut conn = Connection::new(&mut node, &mut warm);
            loop {
                let job = job_rx.lock().recv();
                let Ok((token, nonce, seq, call)) = job else {
                    break;
                };
                let reply = conn.execute(&mut NoCallbackTransport, nonce, seq, call);
                if done_tx.send((token, reply)).is_err() {
                    break;
                }
                waker.wake();
            }
            conn.release();
        }));
    }
    drop(done_tx);

    let mut conns: HashMap<usize, Conn<L::Conn>> = HashMap::new();
    let mut next_token: usize = 1;
    let mut accepted_total: usize = 0;
    // Jobs that didn't fit the bounded worker queue; drained each pass.
    // Reads pause globally while it is long, so it stays O(burst).
    let mut overflow: VecDeque<ReactorJob> = VecDeque::new();
    let mut events: Vec<Event> = Vec::new();
    let mut draining: Option<Instant> = None;
    let mut accept_failure: Option<NrmiError> = None;

    let result = 'outer: loop {
        // --- settle: flush overflow jobs, then per-conn bookkeeping ---
        while let Some(job) = overflow.pop_front() {
            match job_tx.try_send(job) {
                Ok(()) => {}
                Err(mpsc::TrySendError::Full(job)) => {
                    overflow.push_front(job);
                    break;
                }
                Err(mpsc::TrySendError::Disconnected(_)) => {
                    break 'outer Err(NrmiError::Protocol("reactor worker pool died".into()));
                }
            }
        }

        // Escalations and closes finalize once the connection quiesces.
        let ready: Vec<usize> = conns
            .iter()
            .filter(|(_, c)| (c.escalation.is_some() || c.closing) && c.quiescent())
            .map(|(&t, _)| t)
            .collect();
        for token in ready {
            let mut conn = conns.remove(&token).expect("token collected above");
            poller.deregister(Token(token));
            if let Some(stash) = conn.escalation.take() {
                // Quiescent: no worker owns a job for this socket and
                // the out-queue is empty, so the dedicated thread is
                // the only writer from here on.
                if conn.io.set_nonblocking(false).is_ok() {
                    let shared = Arc::clone(&shared);
                    let live = Arc::clone(&ctl.live);
                    let handle = std::thread::spawn(move || {
                        let _guard = LiveGuard(live);
                        let mut transport = conn.io;
                        let _ = serve_connection_escalated(&shared, &mut transport, stash);
                    });
                    ctl.escalated.lock().push(handle);
                    // The escalated thread's LiveGuard now owns the
                    // live-count decrement; skip the one below.
                    continue;
                }
            }
            ctl.live.fetch_sub(1, Ordering::SeqCst);
        }

        // Exit conditions: a total-connection limit reached and drained,
        // or a stop request once draining finishes (or times out).
        let stopping = ctl.stop.load(Ordering::SeqCst);
        if stopping && draining.is_none() {
            draining = Some(Instant::now());
            for conn in conns.values_mut() {
                conn.closing = true;
            }
            continue;
        }
        let total_done = config.max_total.is_some_and(|n| accepted_total >= n);
        if conns.is_empty() && (stopping || total_done || accept_failure.is_some()) {
            break match accept_failure.take() {
                Some(e) => Err(e),
                None => Ok(()),
            };
        }
        if let Some(since) = draining {
            if since.elapsed() > DRAIN_DEADLINE {
                // Clients that never drained their replies: cut them.
                for (token, _) in conns.drain() {
                    poller.deregister(Token(token));
                    ctl.live.fetch_sub(1, Ordering::SeqCst);
                }
                continue;
            }
        }

        // --- refresh poller interest for every connection ---
        let reads_paused = overflow.len() >= JOB_OVERFLOW_PAUSE;
        let at_cap = conns.len() >= config.max_live;
        let listener_interest = if at_cap || stopping || total_done || accept_failure.is_some() {
            Interest::NONE
        } else {
            Interest::READABLE
        };
        poller.modify(LISTENER, listener_interest);
        // Connections holding read-ahead bytes in user space: the
        // poller cannot see those (the kernel buffer may be empty), so
        // any unpaused connection with buffered input is ready NOW —
        // poll without blocking and parse it below.
        let mut buffered_ready: Vec<usize> = Vec::new();
        for (&token, conn) in conns.iter_mut() {
            let interest = desired_interest(conn, reads_paused);
            if interest != conn.interest {
                conn.interest = interest;
                poller.modify(Token(token), interest);
            }
            if interest.readable && conn.io.has_buffered_input() {
                buffered_ready.push(token);
            }
        }

        // --- block for readiness (bounded while draining) ---
        let timeout = if buffered_ready.is_empty() {
            draining.map(|_| Duration::from_millis(50))
        } else {
            Some(Duration::ZERO)
        };
        if let Err(e) = poller.wait(&mut events, timeout) {
            break Err(e.into());
        }

        // --- collect worker completions ---
        while let Ok((token, reply)) = done_rx.try_recv() {
            // A completion for a connection that died mid-call is
            // dropped; the reply is in the cache for a reconnect.
            if let Some(conn) = conns.get_mut(&token) {
                conn.in_flight -= 1;
                // A reply too large to frame can never be delivered;
                // close the connection (the cached reply is what a
                // reconnect would replay, and it would hit the same
                // wall — the client sees the connection drop instead
                // of a silent hang).
                if conn.out.push(&reply).is_err() {
                    conn.closing = true;
                }
            }
        }

        // --- handle socket events ---
        for event in events.drain(..) {
            if event.token == LISTENER {
                match accept_burst(
                    &listener,
                    &mut poller,
                    &mut conns,
                    &mut next_token,
                    &mut accepted_total,
                    &config,
                    &ctl,
                ) {
                    Ok(()) => {}
                    Err(e) => {
                        // An accept failure stops accepting; live
                        // connections keep running (pooled semantics).
                        *ctl.accept_error.lock() = Some(e.to_string());
                        accept_failure = Some(e);
                    }
                }
                continue;
            }
            let token = event.token.0;
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            let mut dead = false;
            if event.writable && !conn.out.is_empty() {
                match conn.io.flush_queue(&mut conn.out) {
                    Ok(_drained) => {}
                    Err(_) => dead = true,
                }
            }
            if !dead && (event.readable || event.hangup) {
                dead = read_burst(&shared, offload, token, conn, &job_tx, &mut overflow);
            }
            if dead {
                poller.deregister(Token(token));
                conns.remove(&token);
                ctl.live.fetch_sub(1, Ordering::SeqCst);
            }
        }

        // --- parse frames already buffered in user space ---
        // (Harmless overlap with the event loop above: read_burst is
        // resumable and stops cleanly at WouldBlock or a pause guard.)
        for token in buffered_ready {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if read_burst(&shared, offload, token, conn, &job_tx, &mut overflow) {
                poller.deregister(Token(token));
                conns.remove(&token);
                ctl.live.fetch_sub(1, Ordering::SeqCst);
            }
        }
    };

    // Close the job queue; workers finish queued calls and exit. Their
    // completions have nowhere to go (the reply cache holds them for
    // retransmissions), which is the at-most-once story for replies
    // outliving their connection.
    drop(job_tx);
    for handle in worker_handles {
        if handle.join().is_err() && result.is_ok() {
            return Err(NrmiError::Protocol("a reactor worker panicked".into()));
        }
    }
    // Any connections still held (error exit) release their live slots.
    for _ in conns.drain() {
        ctl.live.fetch_sub(1, Ordering::SeqCst);
    }
    result
}

/// The poller interest a connection's state calls for: read unless
/// paused (escalating, closing, over its in-flight or output budget, or
/// a global job backlog), write while output is queued.
#[cfg(unix)]
fn desired_interest<C>(conn: &Conn<C>, reads_paused: bool) -> Interest {
    let paused = reads_paused
        || conn.escalation.is_some()
        || conn.closing
        || conn.in_flight >= CONN_MAX_IN_FLIGHT
        || conn.out.pending_bytes() >= OUT_HIGH_WATER;
    Interest {
        readable: !paused,
        writable: !conn.out.is_empty(),
    }
}

/// Accepts until the backlog is empty or the live cap is reached.
#[cfg(unix)]
fn accept_burst<L>(
    listener: &L,
    poller: &mut Poller,
    conns: &mut HashMap<usize, Conn<L::Conn>>,
    next_token: &mut usize,
    accepted_total: &mut usize,
    config: &ReactorConfig,
    ctl: &ReactorShared,
) -> Result<(), NrmiError>
where
    L: PollableListener,
    L::Conn: ReactorIo,
{
    loop {
        if conns.len() >= config.max_live || config.max_total.is_some_and(|n| *accepted_total >= n)
        {
            return Ok(());
        }
        match listener.try_accept() {
            Ok(Some(io)) => {
                io.set_nonblocking(true)?;
                let token = *next_token;
                *next_token += 1;
                *accepted_total += 1;
                ctl.served.fetch_add(1, Ordering::SeqCst);
                ctl.live.fetch_add(1, Ordering::SeqCst);
                poller.register(Token(token), io.raw_fd(), Interest::READABLE);
                conns.insert(
                    token,
                    Conn {
                        io,
                        out: SendQueue::new(),
                        in_flight: 0,
                        interest: Interest::READABLE,
                        escalation: None,
                        closing: false,
                    },
                );
            }
            Ok(None) => return Ok(()),
            Err(e) => return Err(e.into()),
        }
    }
}

/// Reads frames off one ready connection until it would block, its
/// budget pauses it, or it escalates/closes. Returns `true` when the
/// connection is dead and must be dropped immediately.
#[cfg(unix)]
fn read_burst<C: ReactorIo>(
    shared: &SharedServer,
    offload: bool,
    token: usize,
    conn: &mut Conn<C>,
    job_tx: &mpsc::SyncSender<ReactorJob>,
    overflow: &mut VecDeque<ReactorJob>,
) -> bool {
    loop {
        if conn.closing
            || conn.in_flight >= CONN_MAX_IN_FLIGHT
            || conn.out.pending_bytes() >= OUT_HIGH_WATER
        {
            return false;
        }
        // Frames arriving after an escalation trigger go to the stash
        // unclassified — the escalated thread replays them in order.
        if conn.escalation.is_some() {
            return false;
        }
        let frame = match conn.io.try_read_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => return false,
            // Disconnection ends the connection at once: replies for
            // jobs still in flight land in the reply cache (their
            // completions are dropped), ready for a reconnect's
            // retransmission.
            Err(_) => return true,
        };
        match reactor_classify(shared, offload, frame) {
            // An oversized reply cannot be framed: the stream is still
            // in sync (nothing was queued), but the call can never be
            // answered — close the connection rather than hang it.
            ReactorStep::Reply { pushes, reply } => {
                if pushes
                    .iter()
                    .chain(Some(&reply))
                    .any(|frame| conn.out.push(frame).is_err())
                {
                    conn.closing = true;
                    return false;
                }
            }
            ReactorStep::Offload { nonce, seq, call } => {
                conn.in_flight += 1;
                let job = (token, nonce, seq, call);
                // Never block the reactor: spill to the overflow queue
                // when workers are saturated (reads pause globally while
                // it is long).
                if !overflow.is_empty() {
                    overflow.push_back(job);
                } else if let Err(mpsc::TrySendError::Full(job)) = job_tx.try_send(job) {
                    overflow.push_back(job);
                }
            }
            ReactorStep::Ignore => {}
            ReactorStep::Escalate(trigger) => {
                conn.escalation = Some(vec![trigger]);
                // Keep draining frames already decodable so they reach
                // the stash instead of lingering unread; the next
                // readiness events stop at the guard above.
                return drain_to_stash(conn);
            }
            ReactorStep::Close => {
                conn.closing = true;
                return false;
            }
        }
    }
}

/// After an escalation trigger: move every frame already available on
/// the socket into the stash. Returns `true` if the connection died.
#[cfg(unix)]
fn drain_to_stash<C: ReactorIo>(conn: &mut Conn<C>) -> bool {
    loop {
        match conn.io.try_read_frame() {
            Ok(Some(frame)) => conn
                .escalation
                .as_mut()
                .expect("escalation set by caller")
                .push(frame),
            Ok(None) => return false,
            // Disconnected with an escalation pending: the stash may
            // hold calls worth executing, but the client is gone — drop.
            Err(_) => return true,
        }
    }
}
