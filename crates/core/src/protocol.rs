//! The remote-call protocol: marshalling, dispatch, and restore.
//!
//! One client entry point ([`client_invoke`]) and one server step
//! ([`Connection::step`], driven serially by [`serve_connection`])
//! implement all four calling semantics:
//!
//! * **Copy** — serialize arguments, run, serialize the return value.
//! * **Copy-restore** — the paper's six-step algorithm end to end:
//!   linear maps on both sides (steps 1–2 via serialization, §5.2.1),
//!   the reply marshalled *from the server's linear map* so unreachable-
//!   but-aliased data travels home (step 3), old-index annotations in the
//!   payload (step 4's matching), and the in-place restore on the client
//!   (steps 5–6).
//! * **DCE RPC** — identical, except the reply is marshalled from the
//!   parameters instead of the linear map: data unreachable from the
//!   parameters after the call silently drops (§4.2, Figure 9).
//! * **Remote references** — arguments travel as export keys; the
//!   service runs against a [`RemoteHeapProxy`] and the client answers
//!   field-access callbacks mid-call (Figure 3).
//!
//! ## One call pipeline
//!
//! Every call — cold, the seed of a warm session, or a warm call proper
//! ([`crate::warm`]) — runs the same steps, each written once here:
//!
//! | step | client | server |
//! |---|---|---|
//! | marshal / unmarshal | `client_marshal_target` (graph or export keys) | `server_call` (the same payload, decoded) |
//! | deliver | `client_collect_reply`, the one receive loop | [`Connection::step`] |
//! | execute + reply | — | `invoke_and_reply` (delta of the order's objects written since the mark, else annotated full reply) |
//! | restore | `apply_reply_payload` over a `ReplyOrder` | — |
//!
//! A seed is a cold `copy_restore_delta` call in a `CallRequestWarm`
//! envelope whose order both sides keep; a warm call swaps
//! only the request payload (a request delta against the kept order)
//! and passes the advanced order where a cold call passes its linear
//! map. The receive loop doubles as the callback server and as the
//! consumer of pushed coherence patches, so graphs that mix semantics
//! (a copied graph containing remote-marked objects) work too.
//!
//! [`RemoteHeapProxy`]: crate::proxy::RemoteHeapProxy

use std::borrow::Cow;
use std::collections::HashMap;
use std::time::Duration;

use nrmi_heap::{ClassId, Heap, LinearMap, ObjId, Value};
use nrmi_transport::{decode_rvals, encode_rvals, Frame, Transport, TransportError};
use nrmi_wire::{deserialize_graph_with, dirty_since, DeltaKind, WireError};

use crate::error::NrmiError;
use crate::node::{ClientNode, NodeHooks, NodeState, ServerNode};
use crate::proxy::{handle_callback, RemoteHeapProxy};
use crate::reactor::ReactorStep;
use crate::restore::apply_restore;
use crate::semantics::{CallOptions, PassMode};
use crate::service::RemoteService;

/// Determines which argument objects are copy-restore roots for a call.
/// Both sides compute this identically (same registry, same argument
/// order), which is what makes the two linear maps correspond.
pub(crate) fn restore_roots_of(
    heap: &Heap,
    opts: CallOptions,
    args: &[Value],
) -> Result<Vec<ObjId>, NrmiError> {
    let registry = heap.registry_handle();
    let refs = args.iter().filter_map(Value::as_ref_id);
    match opts.mode_override {
        Some(PassMode::Copy) | Some(PassMode::RemoteRef) => Ok(Vec::new()),
        Some(PassMode::CopyRestore) | Some(PassMode::DceRpc) => {
            // Forced restore semantics for every (copyable) reference arg.
            let mut roots = Vec::new();
            for id in refs {
                let obj = heap.get(id)?;
                let flags = registry.get(obj.class())?.flags();
                if !flags.stub && !flags.remote {
                    roots.push(id);
                }
            }
            Ok(roots)
        }
        None => {
            // Marker-driven (the NRMI default, §5.1).
            let mut roots = Vec::new();
            for id in refs {
                let obj = heap.get(id)?;
                if registry.get(obj.class())?.flags().restorable {
                    roots.push(id);
                }
            }
            Ok(roots)
        }
    }
}

/// Per-call accounting returned alongside the result by
/// [`client_invoke_with_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CallStats {
    /// Objects serialized into the request.
    pub request_objects: usize,
    /// Request payload bytes.
    pub request_bytes: usize,
    /// Objects materialized from the reply.
    pub reply_objects: usize,
    /// Reply payload bytes, coherence patches consumed on the way
    /// included.
    pub reply_bytes: usize,
    /// Old objects restored in place (steps 4–6).
    pub restored_objects: usize,
    /// New objects spliced into the caller's graph.
    pub new_objects: usize,
    /// Remote-pointer callbacks served by this client during the call.
    pub callbacks_served: u64,
    /// Coherence repair patches (`CacheStale`) applied during the call —
    /// both replies to our own warm request and pushes for idle sessions
    /// consumed while waiting.
    pub stale_patches: u64,
}

/// What a call is addressed to, which is also the envelope its request
/// travels in: a registry-named service, a first-class remote object in
/// the server's export table, or a warm session with a named service
/// (generation 0 seeds it with an ordinary graph request; later
/// generations carry request deltas).
#[derive(Clone, Copy, Debug)]
pub(crate) enum CallTarget<'a> {
    Named(&'a str),
    Exported(u64),
    Session {
        service: &'a str,
        cache_id: u64,
        generation: u64,
    },
}

impl CallTarget<'_> {
    /// Wraps a marshalled request payload in the target's envelope.
    pub(crate) fn frame(self, method: &str, opts: CallOptions, payload: Vec<u8>) -> Frame {
        let (method, mode) = (method.to_owned(), opts.to_wire());
        match self {
            CallTarget::Named(service) => Frame::CallRequest {
                service: service.to_owned(),
                method,
                mode,
                payload,
            },
            CallTarget::Exported(key) => Frame::CallObject {
                key,
                method,
                mode,
                payload,
            },
            CallTarget::Session {
                service,
                cache_id,
                generation,
            } => Frame::CallRequestWarm {
                service: service.to_owned(),
                method,
                mode,
                cache_id,
                generation,
                payload,
            },
        }
    }

    /// The warm session this call is in flight for, if any: the one
    /// session whose `CacheMiss`/`CacheStale` answers resolve the call
    /// instead of being applied on the side.
    fn in_flight(self) -> Option<u64> {
        match self {
            CallTarget::Session { cache_id, .. } => Some(cache_id),
            CallTarget::Named(_) | CallTarget::Exported(_) => None,
        }
    }
}

/// The object order a reply is encoded against on the server and applied
/// through on the client: position `i` names the same object on both
/// sides. A cold or seed call has step 1's linear map; a warm call has
/// its session's advanced sync list, whose delta replies need no
/// position index — only the annotated full reply (the warm path's rare
/// fallback) does, and builds it on demand.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ReplyOrder<'a> {
    Map(&'a LinearMap),
    List(&'a [ObjId]),
}

impl<'a> ReplyOrder<'a> {
    fn ids(self) -> &'a [ObjId] {
        match self {
            ReplyOrder::Map(map) => map.order(),
            ReplyOrder::List(ids) => ids,
        }
    }

    fn map(self) -> Cow<'a, LinearMap> {
        match self {
            ReplyOrder::Map(map) => Cow::Borrowed(map),
            ReplyOrder::List(ids) => Cow::Owned(LinearMap::from_order(ids.to_vec())),
        }
    }
}

/// Invokes `service.method(args)` over `transport` and returns the
/// translated return value. Convenience wrapper over
/// [`client_invoke_with_stats`].
///
/// # Errors
/// Marshalling, transport, protocol, and remote-exception failures.
pub fn client_invoke(
    client: &mut ClientNode,
    transport: &mut dyn Transport,
    service: &str,
    method: &str,
    args: &[Value],
    opts: CallOptions,
) -> Result<Value, NrmiError> {
    client_invoke_with_stats(client, transport, service, method, args, opts).map(|(v, _)| v)
}

/// Invokes a remote method on a named service, returning the result and
/// per-call statistics.
///
/// # Errors
/// Marshalling, transport, protocol, and remote-exception failures.
pub fn client_invoke_with_stats(
    client: &mut ClientNode,
    transport: &mut dyn Transport,
    service: &str,
    method: &str,
    args: &[Value],
    opts: CallOptions,
) -> Result<(Value, CallStats), NrmiError> {
    let target = CallTarget::Named(service);
    client_invoke_target(client, transport, target, method, args, opts).map(value_and_stats)
}

/// Invokes a method ON a remote object the client holds a stub for —
/// RMI's first-class remote-object dispatch. The stub's key addresses
/// the receiver; the server prepends the receiver to the arguments and
/// dispatches to the behavior bound to its class
/// ([`ServerNode::bind_class`]).
///
/// # Errors
/// [`NrmiError::InvalidArgument`] if `stub` is not a remote stub, plus
/// the usual call failures.
pub fn client_invoke_on_object_with_stats(
    client: &mut ClientNode,
    transport: &mut dyn Transport,
    stub: nrmi_heap::ObjId,
    method: &str,
    args: &[Value],
    opts: CallOptions,
) -> Result<(Value, CallStats), NrmiError> {
    let key = client
        .state
        .heap
        .stub_key(stub)?
        .ok_or_else(|| NrmiError::InvalidArgument(format!("{stub} is not a remote stub")))?;
    let target = CallTarget::Exported(key);
    client_invoke_target(client, transport, target, method, args, opts).map(value_and_stats)
}

/// The whole client pipeline for one graph (or export-key) request:
/// marshal → send → collect → apply. Returns what the reply changed and
/// the call's state — its linear map and final statistics — which is
/// what a seed keeps as the session's first sync list.
pub(crate) fn client_invoke_target(
    client: &mut ClientNode,
    transport: &mut dyn Transport,
    target: CallTarget<'_>,
    method: &str,
    args: &[Value],
    opts: CallOptions,
) -> Result<(AppliedReply, PendingCall), NrmiError> {
    let (request, mut pending) = client_marshal_target(client, target, method, args, opts)?;
    transport.send(&request)?;
    let in_flight = target.in_flight();
    let payload = client_collect_reply(
        client,
        transport,
        opts.timeout,
        in_flight,
        &mut pending.stats,
    )?
    .into_reply()?;
    apply_pending(client, pending, &payload)
}

/// The client half of a call between marshal and restore: the linear
/// map and options [`client_apply_reply`] needs to translate the reply
/// payload back into the caller's heap.
///
/// Produced by [`client_marshal_call`]; between the two phases the
/// caller owns delivery — send the request frame, collect the matching
/// reply payload — which is what lets several calls share one
/// connection in flight at once (see [`client_invoke_pipelined`] and
/// `ReliableTransport::send_call`/`recv_reply`).
#[derive(Debug)]
pub struct PendingCall {
    pub(crate) client_map: LinearMap,
    remote_ref: bool,
    opts: CallOptions,
    pub(crate) stats: CallStats,
}

impl PendingCall {
    /// The options the call was marshalled with.
    pub fn opts(&self) -> CallOptions {
        self.opts
    }
}

/// Marshals `service.method(args)` into a sendable [`Frame`] plus the
/// [`PendingCall`] state needed to apply its reply — the split-phase
/// form of [`client_invoke_with_stats`]. The caller delivers the frame
/// and hands the reply payload to [`client_apply_reply`].
///
/// # Errors
/// Marshalling failures and invalid option combinations.
pub fn client_marshal_call(
    client: &mut ClientNode,
    service: &str,
    method: &str,
    args: &[Value],
    opts: CallOptions,
) -> Result<(Frame, PendingCall), NrmiError> {
    client_marshal_target(client, CallTarget::Named(service), method, args, opts)
}

fn client_marshal_target(
    client: &mut ClientNode,
    target: CallTarget<'_>,
    method: &str,
    args: &[Value],
    opts: CallOptions,
) -> Result<(Frame, PendingCall), NrmiError> {
    // Delta replies encode "everything the server changed", which is
    // full copy-restore semantics; combining the flag with DCE's partial
    // restore or remote-ref's no-copy mode would silently change meaning.
    if opts.delta_reply
        && matches!(
            opts.mode_override,
            Some(PassMode::DceRpc) | Some(PassMode::RemoteRef)
        )
    {
        return Err(NrmiError::InvalidArgument(
            "delta replies require copy-restore semantics (AUTO or CopyRestore)".into(),
        ));
    }
    let state = &mut client.state;
    let mut stats = CallStats::default();

    let remote_ref_mode = opts.mode_override == Some(PassMode::RemoteRef);

    let (payload, client_map) = if remote_ref_mode {
        // Arguments travel as export keys; nothing is copied.
        let mut rvals = Vec::with_capacity(args.len());
        for arg in args {
            rvals.push(state.value_to_rval(arg)?);
        }
        state.work.calls += 1;
        (encode_rvals(&rvals), LinearMap::empty())
    } else {
        // Step 1: the client's linear map over the restorable roots.
        let restore_roots = restore_roots_of(&state.heap, opts, args)?;
        let client_map = LinearMap::build(&state.heap, &restore_roots)?;
        // Step 2 (first half): serialize everything reachable from the
        // arguments. The traversal IS the linear-map walk (§5.2.1). The
        // node's codec supplies the position-map and buffer scratch.
        let NodeState {
            heap,
            exports,
            stubs,
            codec,
            ..
        } = &mut *state;
        let mut hooks = NodeHooks::new(exports, stubs);
        let enc = codec.encode_graph(heap, args, None, Some(&mut hooks))?;
        stats.request_objects = enc.object_count();
        stats.request_bytes = enc.byte_len();
        state.work.calls += 1;
        state.work.encode(enc.object_count(), enc.byte_len());
        state.work.linear_map_entries += client_map.len() as u64;
        (enc.bytes, client_map)
    };

    Ok((
        target.frame(method, opts, payload),
        PendingCall {
            client_map,
            remote_ref: remote_ref_mode,
            opts,
            stats,
        },
    ))
}

/// How the one receive loop resolved a call.
pub(crate) enum Collected {
    /// The reply payload.
    Reply(Vec<u8>),
    /// The server cannot honor the in-flight session's generation: the
    /// client reseeds.
    Miss,
    /// The server repaired the in-flight session instead of executing:
    /// apply the patch and re-issue at the same generation.
    Stale { version: u64, payload: Vec<u8> },
}

impl Collected {
    /// The reply payload of a call that carries a full request — cold or
    /// seed — which the server has nothing to miss or repair on.
    fn into_reply(self) -> Result<Vec<u8>, NrmiError> {
        match self {
            Collected::Reply(payload) => Ok(payload),
            Collected::Miss | Collected::Stale { .. } => Err(NrmiError::Protocol(
                "cache miss or repair answering a full request".into(),
            )),
        }
    }
}

/// The one client receive loop: receives frames until the call resolves,
/// serving remote-pointer callbacks on the way (the loop doubles as the
/// callback server) and applying pushed coherence patches for idle
/// sessions on the spot. `in_flight` names the warm session the call
/// belongs to, if any: only a `CacheMiss`/`CacheStale` for *that*
/// session resolves the call.
pub(crate) fn client_collect_reply(
    client: &mut ClientNode,
    transport: &mut dyn Transport,
    timeout: Option<Duration>,
    in_flight: Option<u64>,
    stats: &mut CallStats,
) -> Result<Collected, NrmiError> {
    loop {
        let frame = match timeout {
            Some(deadline) => transport.recv_timeout(deadline)?,
            None => transport.recv()?,
        };
        match frame {
            Frame::CallReply { payload } => return Ok(Collected::Reply(payload)),
            Frame::CallError { message } => return Err(NrmiError::Remote(message)),
            Frame::CacheMiss if in_flight.is_some() => return Ok(Collected::Miss),
            Frame::CacheStale {
                cache_id,
                version,
                payload,
            } => {
                if in_flight == Some(cache_id) {
                    return Ok(Collected::Stale { version, payload });
                }
                crate::warm::client_apply_stale(client, cache_id, version, &payload, stats);
            }
            other => match handle_callback(&mut client.state, &other) {
                Some(reply) => {
                    stats.callbacks_served += 1;
                    transport.send(&reply)?;
                }
                None => {
                    return Err(NrmiError::Protocol(format!(
                        "unexpected frame while awaiting reply: {other:?}"
                    )))
                }
            },
        }
    }
}

/// What applying a reply payload produced.
pub(crate) struct AppliedReply {
    /// The translated return value.
    pub(crate) value: Value,
    /// `Some` when the payload was a reply delta: the objects it spliced
    /// in, which a warm session appends to its sync list. `None` for a
    /// full reply — which, on a session, means the server kept no cache.
    pub(crate) delta_new: Option<Vec<ObjId>>,
}

/// The one reply applier (steps 4–6): a payload starting with the delta
/// magic is applied directly onto the originals `order` names — the
/// restore is implicit in delta application; anything else is an
/// annotated full graph (the server's choice, or its fallback when a
/// delta could not carry the result), deserialized and restored through
/// `order`. Accounts bytes and objects into `stats` and the node's work
/// tally.
pub(crate) fn apply_reply_payload(
    state: &mut NodeState,
    order: ReplyOrder<'_>,
    payload: &[u8],
    stats: &mut CallStats,
) -> Result<AppliedReply, NrmiError> {
    stats.reply_bytes += payload.len();
    let empty = || NrmiError::Protocol("empty reply".into());

    if payload.starts_with(&DeltaKind::Reply.magic()) {
        let (codec, heap, ids) = (&mut state.codec, &mut state.heap, order.ids());
        let applied = codec.apply_delta(DeltaKind::Reply, payload, heap, ids, &mut |_| true)?;
        stats.restored_objects = applied.stats.dirty_count;
        stats.new_objects = applied.stats.new_count;
        let objects = stats.restored_objects + stats.new_objects;
        state.work.decode(objects, payload.len());
        state.work.objects_restored += stats.restored_objects as u64;
        return Ok(AppliedReply {
            value: applied.roots.first().cloned().ok_or_else(empty)?,
            delta_new: Some(applied.new_objects),
        });
    }

    // Full reply: deserialize (rebuilding the reply-side linear map in
    // the same pass), then run steps 4–6.
    let mut hooks = NodeHooks::new(&mut state.exports, &mut state.stubs);
    let decoded = deserialize_graph_with(payload, &mut state.heap, &mut hooks)?;
    stats.reply_objects = decoded.object_count();
    state.work.decode(stats.reply_objects, payload.len());

    let outcome = apply_restore(&mut state.heap, &order.map(), &decoded)?;
    stats.restored_objects = outcome.stats.old_objects;
    stats.new_objects = outcome.stats.new_objects;
    state.work.objects_restored += stats.restored_objects as u64;
    Ok(AppliedReply {
        value: outcome.roots.first().cloned().ok_or_else(empty)?,
        delta_new: None,
    })
}

/// Applies a reply payload to the caller's heap — unmarshal, match
/// against the linear map, restore in place (steps 4–6) — completing a
/// call begun with [`client_marshal_call`].
///
/// # Errors
/// Unmarshalling, protocol, and restore failures.
pub fn client_apply_reply(
    client: &mut ClientNode,
    pending: PendingCall,
    reply_payload: &[u8],
) -> Result<(Value, CallStats), NrmiError> {
    apply_pending(client, pending, reply_payload).map(value_and_stats)
}

/// What the public entry points report of a completed call.
fn value_and_stats((applied, pending): (AppliedReply, PendingCall)) -> (Value, CallStats) {
    (applied.value, pending.stats)
}

fn apply_pending(
    client: &mut ClientNode,
    mut pending: PendingCall,
    payload: &[u8],
) -> Result<(AppliedReply, PendingCall), NrmiError> {
    let state = &mut client.state;
    let applied = if pending.remote_ref {
        pending.stats.reply_bytes += payload.len();
        let rvals = decode_rvals(payload)?;
        let ret = rvals
            .first()
            .ok_or_else(|| NrmiError::Protocol("empty remote-ref reply".into()))?;
        AppliedReply {
            value: state.rval_to_value(ret)?,
            delta_new: None,
        }
    } else {
        let order = ReplyOrder::Map(&pending.client_map);
        apply_reply_payload(state, order, payload, &mut pending.stats)?
    };
    Ok((applied, pending))
}

/// One named-service call in a pipelined batch (see
/// [`client_invoke_pipelined`]).
#[derive(Clone, Debug)]
pub struct PipelinedCall {
    service: String,
    method: String,
    args: Vec<Value>,
    opts: CallOptions,
}

impl PipelinedCall {
    /// A call with default (marker-driven) options.
    pub fn new(service: impl Into<String>, method: impl Into<String>, args: Vec<Value>) -> Self {
        PipelinedCall::with_opts(service, method, args, CallOptions::default())
    }

    /// A call with explicit options. Remote-reference mode is rejected
    /// at invoke time: its mid-call callbacks interleave with the reply
    /// stream and cannot share the connection with other calls.
    pub fn with_opts(
        service: impl Into<String>,
        method: impl Into<String>,
        args: Vec<Value>,
        opts: CallOptions,
    ) -> Self {
        PipelinedCall {
            service: service.into(),
            method: method.into(),
            args,
            opts,
        }
    }
}

/// Invokes a batch of calls over one connection with every request on
/// the wire before the first reply is collected — pipelining: one
/// round-trip's latency is paid once for the whole batch instead of
/// once per call.
///
/// Replies are collected in issue order. Over a plain transport that is
/// also wire order (in-order serve loops); over a `ReliableTransport`
/// each reply is routed by call id, so a pipelined server may answer
/// out of order and each call still gets its own. Per-call failures —
/// a remote exception, a per-call deadline — land in that call's slot
/// without abandoning the rest of the batch.
///
/// # Errors
/// Whole-batch failures only: a remote-reference call in the batch
/// ([`NrmiError::InvalidArgument`]), marshalling failures, and
/// connection-fatal transport errors. Everything per-call comes back in
/// the result vector.
pub fn client_invoke_pipelined(
    client: &mut ClientNode,
    transport: &mut dyn Transport,
    calls: &[PipelinedCall],
) -> Result<Vec<Result<Value, NrmiError>>, NrmiError> {
    for call in calls {
        if call.opts.mode_override == Some(PassMode::RemoteRef) {
            return Err(NrmiError::InvalidArgument(
                "remote-reference calls cannot be pipelined: their mid-call callbacks \
                 interleave with the reply stream"
                    .into(),
            ));
        }
    }
    // Marshal the whole batch first (so a bad call poisons nothing),
    // then put every request on the wire before collecting any reply.
    let mut marshalled = Vec::with_capacity(calls.len());
    for call in calls {
        marshalled.push(client_marshal_target(
            client,
            CallTarget::Named(&call.service),
            &call.method,
            &call.args,
            call.opts,
        )?);
    }
    // The whole train goes out through one send_batch — a single
    // vectored write on socket transports, one syscall for N calls.
    let mut frames = Vec::with_capacity(marshalled.len());
    let mut pendings = Vec::with_capacity(marshalled.len());
    for (frame, pending) in marshalled {
        frames.push(frame);
        pendings.push(pending);
    }
    let refs: Vec<&Frame> = frames.iter().collect();
    transport.send_batch(&refs)?;
    drop(frames);
    let mut results = Vec::with_capacity(pendings.len());
    for mut pending in pendings {
        let timeout = pending.opts.timeout;
        match client_collect_reply(client, transport, timeout, None, &mut pending.stats)
            .and_then(Collected::into_reply)
        {
            Ok(payload) => {
                results.push(client_apply_reply(client, pending, &payload).map(|(v, _)| v));
            }
            // This call's failure, not the connection's: record it in
            // its slot and keep collecting the rest.
            Err(e @ NrmiError::Remote(_)) => results.push(Err(e)),
            Err(NrmiError::Transport(e @ TransportError::DeadlineExceeded { .. })) => {
                results.push(Err(NrmiError::Transport(e)));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(results)
}

/// What the server resolved a request to.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Callee<'a> {
    Named(&'a str),
    Exported(u64),
}

/// Resolves a callee to the service that runs it: a named service, or
/// the class behavior of an exported receiver object (which the
/// invocation prepends to the arguments).
pub(crate) fn resolve_callee<'s>(
    services: &'s mut HashMap<String, Box<dyn RemoteService>>,
    class_services: &'s mut HashMap<ClassId, Box<dyn RemoteService>>,
    state: &NodeState,
    callee: Callee<'_>,
) -> Result<(&'s mut dyn RemoteService, Option<ObjId>), NrmiError> {
    match callee {
        Callee::Named(name) => {
            let service = services
                .get_mut(name)
                .ok_or_else(|| NrmiError::NoSuchService(name.to_owned()))?;
            Ok((service.as_mut(), None))
        }
        Callee::Exported(key) => {
            let obj = state
                .exports
                .lookup(key)
                .ok_or_else(|| NrmiError::Protocol(format!("call on unknown export key {key}")))?;
            let class = state.heap.get(obj)?.class();
            let service = class_services.get_mut(&class).ok_or_else(|| {
                let name = state
                    .heap
                    .registry_handle()
                    .get(class)
                    .map(|d| d.name().to_owned())
                    .unwrap_or_else(|_| format!("<class:{}>", class.index()));
                NrmiError::NoSuchService(format!("class {name}"))
            })?;
            Ok((service.as_mut(), Some(obj)))
        }
    }
}

/// One unmarshalled call, ready to run: what to invoke, and what its
/// reply is relative to.
pub(crate) struct Invocation<'a> {
    pub(crate) method: &'a str,
    /// The receiver of an object-addressed call. Server-owned, so it is
    /// prepended to the arguments only for the invocation and never
    /// restored to the caller.
    pub(crate) receiver: Option<ObjId>,
    pub(crate) args: &'a [Value],
    pub(crate) opts: CallOptions,
    /// The order old-index annotations and delta positions refer to.
    pub(crate) order: ReplyOrder<'a>,
    /// The mark a delta reply is read from, when the caller asked for
    /// one: the heap epoch once the request was unmarshalled (or its
    /// request delta applied). Objects of `order` stamped above it are
    /// what the call changed.
    pub(crate) delta_since: Option<u64>,
}

/// What [`invoke_and_reply`] answered.
pub(crate) struct Replied {
    pub(crate) payload: Vec<u8>,
    /// `Some` when the payload is a reply delta: the objects it ships as
    /// new, which a warm session appends to its sync list. `None` for a
    /// full (or remote-reference) reply.
    pub(crate) delta_new: Option<Vec<ObjId>>,
}

/// The one "invoke and reply": runs the service through a
/// [`RemoteHeapProxy`] — plain heap accesses go straight through, stub
/// accesses cross the network; no read/write barriers on the local
/// path, the paper's "full speed" property — then marshals the reply:
/// export keys in remote-reference mode; a delta of what the call wrote
/// when a mark was taken (§5.2.4, optimization 2); otherwise, or when the
/// method linked something a delta cannot carry into the restorable
/// state (a remote stub), the annotated full reply of step 3, whose
/// payload self-describes via its magic so the client copes.
pub(crate) fn invoke_and_reply(
    state: &mut NodeState,
    service: &mut dyn RemoteService,
    transport: &mut dyn Transport,
    call: Invocation<'_>,
) -> Result<Replied, NrmiError> {
    let mut proxy = RemoteHeapProxy::new(state, transport);
    let ret = match call.receiver {
        Some(obj) => {
            let args: Vec<Value> = std::iter::once(Value::Ref(obj))
                .chain(call.args.iter().cloned())
                .collect();
            service.invoke(call.method, &args, &mut proxy)
        }
        None => service.invoke(call.method, call.args, &mut proxy),
    };
    // The proxy's round trips count whether or not the service failed.
    state.work.proxy_callbacks += proxy.stats().callbacks;
    let ret = ret?;

    if call.opts.mode_override == Some(PassMode::RemoteRef) {
        let rv = state.value_to_rval(&ret)?;
        state.work.owner_callbacks += 1;
        return Ok(Replied {
            payload: encode_rvals(&[rv]),
            delta_new: None,
        });
    }

    if let Some(since) = call.delta_since {
        let (order, roots) = (call.order.ids(), std::slice::from_ref(&ret));
        let (codec, heap) = (&mut state.codec, &state.heap);
        // The one pass that finds what the call wrote: the order's objects
        // stamped above the mark.
        let dirty = dirty_since(heap, order, since)?;
        match codec.encode_delta(DeltaKind::Reply, heap, order, &[], &dirty, roots) {
            Ok(delta) => {
                let objects = delta.stats.dirty_count + delta.stats.new_count;
                state.work.encode(objects, delta.bytes.len());
                state.work.linear_map_entries += order.len() as u64;
                return Ok(Replied {
                    payload: delta.bytes,
                    delta_new: Some(delta.new_objects),
                });
            }
            // Fall through to the annotated full reply below.
            Err(WireError::NotSerializable { .. }) | Err(WireError::RemoteWithoutHooks { .. }) => {}
            Err(e) => return Err(e.into()),
        }
    }

    // Step 3: marshal the reply. Old-index annotations implement the
    // map matching of step 4 on the wire; the linear map's own dense
    // position index is the annotation table.
    let map = call.order.map();
    let mut reply_roots = vec![ret];
    if call.opts.mode_override == Some(PassMode::DceRpc) {
        // DCE RPC (§4.2): the reply is marshalled from the PARAMETER
        // roots, not the linear map. Whatever became unreachable from
        // the parameters during the call silently stays behind —
        // Figure 9's divergence from true copy-restore. (Java reference
        // arguments cannot be reseated, so the pre-call roots are still
        // the roots.)
        reply_roots.extend(
            restore_roots_of(&state.heap, call.opts, call.args)?
                .into_iter()
                .map(Value::Ref),
        );
    } else {
        // Full copy-restore (also the AUTO path): ship the whole order,
        // so data unreachable from the parameters still travels home.
        reply_roots.extend(map.order().iter().map(|&id| Value::Ref(id)));
    }
    let NodeState {
        heap,
        exports,
        stubs,
        codec,
        ..
    } = &mut *state;
    let mut hooks = NodeHooks::new(exports, stubs);
    let enc = codec.encode_graph(
        heap,
        &reply_roots,
        Some(map.position_map()),
        Some(&mut hooks),
    )?;
    state.work.encode(enc.object_count(), enc.byte_len());
    Ok(Replied {
        payload: enc.bytes,
        delta_new: None,
    })
}

/// Runs one full-request call on the server — cold, or the seed of a
/// warm session, which is the same call with its order kept: resolve
/// the callee, unmarshal the arguments (export keys, or the graph whose
/// deserialization is the server half of step 2), take the mark when a
/// delta reply was asked for, and [`invoke_and_reply`]. Returns the
/// reply and the server-side linear map it is relative to.
pub(crate) fn server_call(
    server: &mut ServerNode,
    transport: &mut dyn Transport,
    method: &str,
    callee: Callee<'_>,
    mode_byte: u8,
    payload: &[u8],
) -> Result<(Replied, LinearMap), NrmiError> {
    let opts = CallOptions::from_wire(mode_byte)?;
    let ServerNode {
        state,
        services,
        class_services,
        ..
    } = server;
    let (service, receiver) = resolve_callee(services, class_services, state, callee)?;

    let (args, server_map) = if opts.mode_override == Some(PassMode::RemoteRef) {
        let rvals = decode_rvals(payload)?;
        let mut args = Vec::with_capacity(rvals.len());
        for rv in &rvals {
            args.push(state.rval_to_value(rv)?);
        }
        state.work.dispatches += 1;
        (args, LinearMap::empty())
    } else {
        let mut hooks = NodeHooks::new(&mut state.exports, &mut state.stubs);
        let decoded = deserialize_graph_with(payload, &mut state.heap, &mut hooks)?;
        state.work.dispatches += 1;
        state.work.decode(decoded.object_count(), payload.len());
        // The server-side linear map (step 2, second half). Matches the
        // client's map position-for-position because the deserialized
        // graph is isomorphic and the traversal is deterministic.
        let restore_roots = restore_roots_of(&state.heap, opts, &decoded.roots)?;
        let server_map = LinearMap::build(&state.heap, &restore_roots)?;
        state.work.linear_map_entries += server_map.len() as u64;
        (decoded.roots, server_map)
    };

    // The mark: everything the call writes from here on is stamped above
    // it.
    let delta_since = opts.delta_reply.then(|| state.heap.epoch());
    let replied = invoke_and_reply(
        state,
        service,
        transport,
        Invocation {
            method,
            receiver,
            args: &args,
            opts,
            order: ReplyOrder::Map(&server_map),
            delta_since,
        },
    )?;
    Ok((replied, server_map))
}

/// The reply frame for a call's outcome: `CallReply` on success,
/// `CallError` carrying the remote exception otherwise. Application
/// exceptions travel as their own message; wrapping happens once, on
/// the client ("remote exception: <msg>").
pub(crate) fn reply_frame(outcome: Result<Vec<u8>, NrmiError>) -> Frame {
    match outcome {
        Ok(payload) => Frame::CallReply { payload },
        Err(NrmiError::Remote(message)) => Frame::CallError { message },
        Err(e) => Frame::CallError {
            message: e.to_string(),
        },
    }
}

/// Handles one cold call on the server, returning its reply frame. This
/// is where a cold call's server-side copy dies on a connection node
/// ([`ServerNode::sweep_call`]); a seed runs [`server_call`] directly and
/// keeps its copy as the session entry.
fn server_handle_call(
    server: &mut ServerNode,
    transport: &mut dyn Transport,
    method: &str,
    callee: Callee<'_>,
    mode_byte: u8,
    payload: &[u8],
) -> Frame {
    let mark = server.call_mark();
    let reply = reply_frame(
        server_call(server, transport, method, callee, mode_byte, payload)
            .map(|(replied, _)| replied.payload),
    );
    server.sweep_call(mark);
    reply
}

/// Executes one call frame — named, object-addressed, or warm — and
/// returns its reply frame. Anything else (only reachable inside a
/// [`Frame::Tagged`] envelope) is a protocol error answered in-band, so
/// the client's retry loop terminates instead of retransmitting forever.
fn dispatch_call(
    server: &mut ServerNode,
    warm: &mut crate::warm::WarmCaches,
    transport: &mut dyn Transport,
    frame: Frame,
) -> Frame {
    match frame {
        Frame::CallRequest {
            service,
            method,
            mode,
            payload,
        } => server_handle_call(
            server,
            transport,
            &method,
            Callee::Named(&service),
            mode,
            &payload,
        ),
        Frame::CallObject {
            key,
            method,
            mode,
            payload,
        } => server_handle_call(
            server,
            transport,
            &method,
            Callee::Exported(key),
            mode,
            &payload,
        ),
        Frame::CallRequestWarm {
            service,
            method,
            mode,
            cache_id,
            generation,
            payload,
        } => crate::warm::server_handle_warm_call(
            server, warm, transport, &service, &method, mode, cache_id, generation, &payload,
        ),
        other => Frame::CallError {
            message: format!("frame cannot carry a call id: {other:?}"),
        },
    }
}

/// The protocol error a driver ends a connection with when the step
/// hands a frame back unprocessed ([`ReactorStep::Escalate`]): callbacks
/// addressed at the server's exports (a client holding stubs to server
/// objects between calls) are not part of this protocol version.
pub(crate) fn unexpected_frame(frame: &Frame) -> NrmiError {
    NrmiError::Protocol(format!("unexpected frame {frame:?}"))
}

/// The serve core: one connection's server-side state and the **one**
/// step function every serve path runs (paper §4.1 — read a request,
/// run the synchronized method, write the restore reply). Serial,
/// pooled, pipelined, escalated and reactor serving differ only in who
/// blocks on the socket and which thread calls [`step`](Self::step);
/// protocol tooling (the `nrmi-check` model checker, the bench
/// baselines) drives the same function frame by frame.
///
/// A view, not an owner: the node may sit in a `Session`, behind a
/// mutex (the big-lock baseline), or on a worker's stack, while the warm
/// caches are always this connection's own.
#[derive(Debug)]
pub struct Connection<'a> {
    /// The node calls execute against.
    pub node: &'a mut ServerNode,
    /// This connection's warm-session caches (a client can only address
    /// sessions it seeded itself), built over the node's lease table.
    pub warm: &'a mut crate::warm::WarmCaches,
    /// Hand fresh pipelineable tagged calls back as
    /// [`ReactorStep::Offload`] instead of executing them inline. Only
    /// drivers with a worker pool set this.
    pub offload: bool,
}

impl<'a> Connection<'a> {
    /// A connection that executes every call inline (`offload` off).
    pub fn new(node: &'a mut ServerNode, warm: &'a mut crate::warm::WarmCaches) -> Self {
        Connection {
            node,
            warm,
            offload: false,
        }
    }

    /// Decides and (unless offloaded) performs everything `frame` asks
    /// of the server, returning what the driver must do about it. `io`
    /// is only the mid-call callback channel to the calling client
    /// (remote-reference field accesses); the step never reads requests
    /// from it or writes replies to it.
    pub fn step(&mut self, io: &mut dyn Transport, frame: Frame) -> ReactorStep {
        match frame {
            Frame::Shutdown => ReactorStep::Close,
            Frame::Lookup { name } => ReactorStep::reply(Frame::LookupReply {
                found: self.node.is_bound(&name),
            }),
            Frame::DgcClean { key } => {
                self.node.state.exports.clean(key);
                ReactorStep::Ignore
            }
            // An eviction notice produces no reply — and no pushes
            // either: the client is not necessarily receiving after a
            // fire-and-forget evict, and an unsolicited frame would
            // derail its next non-call exchange (e.g. a lookup). Nothing
            // is lost: an eviction only frees objects *no* session
            // covers, so it cannot stale any session, and staleness
            // predating it is pushed with the next warm call's reply.
            Frame::CacheEvict { cache_id } => {
                self.warm.evict(&mut self.node.state.heap, cache_id);
                ReactorStep::Ignore
            }
            // Decide-mark-executing on the nonce's shard, execute with
            // no shard lock held, store. A duplicate arriving
            // mid-execution — on this connection or another — is
            // dropped unanswered; the client's next retransmission
            // replays the stored reply.
            Frame::Tagged { nonce, seq, frame } => match self.node.replies.admit(nonce, seq) {
                Some(step) => step,
                None if self.offload && crate::server::is_pipelineable(&frame) => {
                    ReactorStep::Offload {
                        nonce,
                        seq,
                        call: *frame,
                    }
                }
                None => ReactorStep::reply(self.execute(io, nonce, seq, *frame)),
            },
            call @ Frame::CallRequestWarm { .. } => {
                let reply = dispatch_call(self.node, self.warm, io, call);
                ReactorStep::Reply {
                    pushes: crate::warm::collect_stale_pushes(self.node, self.warm),
                    reply,
                }
            }
            call @ (Frame::CallRequest { .. } | Frame::CallObject { .. }) => {
                ReactorStep::reply(dispatch_call(self.node, self.warm, io, call))
            }
            other => ReactorStep::Escalate(other),
        }
    }

    /// The back half of at-most-once for a call the reply cache
    /// admitted as fresh: runs it, records the reply under
    /// `(nonce, seq)`, and returns the tagged reply frame. Called by
    /// [`step`](Self::step) inline, and by the workers a driver hands
    /// [`ReactorStep::Offload`] to.
    pub fn execute(&mut self, io: &mut dyn Transport, nonce: u64, seq: u64, call: Frame) -> Frame {
        let reply = dispatch_call(self.node, self.warm, io, call);
        self.node.replies.store(nonce, seq, &reply);
        Frame::Tagged {
            nonce,
            seq,
            frame: Box::new(reply),
        }
    }

    /// Connection teardown (orderly or not): releases the cached warm
    /// session graphs — the warm analogue of DGC cleaning a
    /// disconnected client.
    pub fn release(&mut self) {
        self.warm.release_all(&mut self.node.state.heap);
    }

    /// The serial driver's unit of work: steps `frame` and writes what
    /// it answers to `transport`, which doubles as the callback channel.
    /// Returns `Ok(false)` when the frame ends the connection.
    pub(crate) fn serve_frame(
        &mut self,
        transport: &mut dyn Transport,
        frame: Frame,
    ) -> Result<bool, NrmiError> {
        match self.step(transport, frame) {
            ReactorStep::Reply { pushes, reply } => {
                for frame in pushes.iter().chain(Some(&reply)) {
                    transport.send(frame)?;
                }
            }
            ReactorStep::Offload { nonce, seq, call } => {
                let reply = self.execute(transport, nonce, seq, call);
                transport.send(&reply)?;
            }
            ReactorStep::Ignore => {}
            ReactorStep::Close => return Ok(false),
            ReactorStep::Escalate(other) => return Err(unexpected_frame(&other)),
        }
        Ok(true)
    }

    /// The serial driver: this thread reads, steps and writes, one
    /// frame at a time, until the peer disconnects or sends `Shutdown`.
    pub(crate) fn serve(&mut self, transport: &mut dyn Transport) -> Result<(), NrmiError> {
        loop {
            let frame = match transport.recv() {
                Ok(frame) => frame,
                Err(TransportError::Disconnected) => return Ok(()),
                Err(e) => return Err(e.into()),
            };
            if !self.serve_frame(transport, frame)? {
                return Ok(());
            }
        }
    }
}

/// Serves one connection against an exclusively held node until the
/// peer disconnects or sends `Shutdown`: the serial driver of the serve
/// core (one per connection; the paper's servers are single-threaded
/// per client, multi-threaded across clients — see
/// [`ServerPool`](crate::session::ServerPool) for the latter).
///
/// # Errors
/// Returns transport errors other than orderly disconnect.
pub fn serve_connection(
    server: &mut ServerNode,
    transport: &mut dyn Transport,
) -> Result<(), NrmiError> {
    let mut warm = crate::warm::WarmCaches::with_leases(server.leases.clone());
    let mut conn = Connection::new(server, &mut warm);
    let result = conn.serve(transport);
    conn.release();
    result
}
