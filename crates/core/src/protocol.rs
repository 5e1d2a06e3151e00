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
//! The client's receive loop doubles as the callback server, so graphs
//! that mix semantics (a copied graph containing remote-marked objects)
//! work too.
//!
//! [`RemoteHeapProxy`]: crate::proxy::RemoteHeapProxy

use nrmi_heap::{Heap, LinearMap, ObjId, SharedRegistry, Value};
use nrmi_transport::{decode_rvals, encode_rvals, Frame, Transport, TransportError};
use nrmi_wire::{apply_delta, deserialize_graph_with};

use crate::error::NrmiError;
use crate::node::{ClientNode, NodeHooks, NodeState, ServerNode};
use crate::proxy::{handle_callback, RemoteHeapProxy};
use crate::reactor::ReactorStep;
use crate::restore::apply_restore;
use crate::semantics::{CallOptions, PassMode};

/// Determines which argument objects are copy-restore roots for a call.
/// Both sides compute this identically (same registry, same argument
/// order), which is what makes the two linear maps correspond.
pub(crate) fn restore_roots_of(
    registry: &SharedRegistry,
    heap: &Heap,
    opts: CallOptions,
    args: &[Value],
) -> Result<Vec<ObjId>, NrmiError> {
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
    /// Reply payload bytes.
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

/// What a call is addressed to: a registry-named service, or a
/// first-class remote object in the server's export table.
#[derive(Clone, Copy, Debug)]
enum CallTarget<'a> {
    Named(&'a str),
    Exported(u64),
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
    client_invoke_target(
        client,
        transport,
        CallTarget::Named(service),
        method,
        args,
        opts,
    )
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
    client_invoke_target(
        client,
        transport,
        CallTarget::Exported(key),
        method,
        args,
        opts,
    )
}

fn client_invoke_target(
    client: &mut ClientNode,
    transport: &mut dyn Transport,
    target: CallTarget<'_>,
    method: &str,
    args: &[Value],
    opts: CallOptions,
) -> Result<(Value, CallStats), NrmiError> {
    let (request, mut pending) = client_marshal_target(client, target, method, args, opts)?;
    transport.send(&request)?;
    let reply_payload = client_collect_reply(
        client,
        transport,
        opts.timeout,
        &mut pending.stats.callbacks_served,
    )?;
    client_apply_reply(client, pending, &reply_payload)
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
    client_map: LinearMap,
    remote_ref: bool,
    opts: CallOptions,
    stats: CallStats,
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
    let cost = state.profile.cost();
    let mut stats = CallStats::default();

    let registry = state.heap.registry_handle().clone();
    let remote_ref_mode = opts.mode_override == Some(PassMode::RemoteRef);

    let (payload, client_map) = if remote_ref_mode {
        // Arguments travel as export keys; nothing is copied.
        let mut rvals = Vec::with_capacity(args.len());
        for arg in args {
            rvals.push(state.value_to_rval(arg)?);
        }
        state.charge_cpu(cost.call_overhead_us);
        (encode_rvals(&rvals), LinearMap::empty())
    } else {
        // Step 1: the client's linear map over the restorable roots.
        let restore_roots = restore_roots_of(&registry, &state.heap, opts, args)?;
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
        state.charge_cpu(
            cost.call_overhead_us
                + enc.object_count() as f64 * cost.ser_per_obj_us
                + enc.byte_len() as f64 * cost.per_byte_us
                + client_map.len() as f64 * cost.linear_map_per_obj_us,
        );
        (enc.bytes, client_map)
    };

    let request = match target {
        CallTarget::Named(service) => Frame::CallRequest {
            service: service.to_owned(),
            method: method.to_owned(),
            mode: opts.to_wire(),
            payload,
        },
        CallTarget::Exported(key) => Frame::CallObject {
            key,
            method: method.to_owned(),
            mode: opts.to_wire(),
            payload,
        },
    };
    Ok((
        request,
        PendingCall {
            client_map,
            remote_ref: remote_ref_mode,
            opts,
            stats,
        },
    ))
}

/// Receives frames until the call's reply payload arrives, serving
/// remote-pointer callbacks on the way (the client's receive loop
/// doubles as the callback server).
fn client_collect_reply(
    client: &mut ClientNode,
    transport: &mut dyn Transport,
    timeout: Option<std::time::Duration>,
    callbacks_served: &mut u64,
) -> Result<Vec<u8>, NrmiError> {
    loop {
        let frame = match timeout {
            Some(deadline) => transport.recv_timeout(deadline)?,
            None => transport.recv()?,
        };
        match frame {
            Frame::CallReply { payload } => return Ok(payload),
            Frame::CallError { message } => return Err(NrmiError::Remote(message)),
            // A pushed warm-session invalidation racing this cold call's
            // reply: apply it to the addressed (idle) session and keep
            // waiting.
            Frame::CacheStale {
                cache_id,
                version,
                payload,
            } => {
                crate::warm::client_apply_stale(client, cache_id, version, &payload);
            }
            other => match handle_callback(&mut client.state, &other) {
                Some(reply) => {
                    *callbacks_served += 1;
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
    let PendingCall {
        client_map,
        remote_ref,
        opts,
        mut stats,
    } = pending;
    let state = &mut client.state;
    let cost = state.profile.cost();
    stats.reply_bytes = reply_payload.len();

    if remote_ref {
        let rvals = decode_rvals(reply_payload)?;
        let ret = rvals
            .first()
            .ok_or_else(|| NrmiError::Protocol("empty remote-ref reply".into()))?;
        let value = state.rval_to_value(ret)?;
        return Ok((value, stats));
    }

    if opts.delta_reply && reply_payload.starts_with(&nrmi_wire::delta::DELTA_MAGIC) {
        // Delta path: apply directly onto the originals — the restore is
        // implicit in delta application. (A reply starting with the
        // graph magic instead means the server fell back to a full
        // reply; the ordinary path below handles it.)
        let applied = apply_delta(reply_payload, &mut state.heap, client_map.order())?;
        stats.restored_objects = applied.changed_count;
        stats.new_objects = applied.new_objects.len();
        state.charge_cpu(
            reply_payload.len() as f64 * cost.per_byte_us
                + applied.changed_count as f64 * (cost.de_per_obj_us + cost.restore_per_obj_us)
                + applied.new_objects.len() as f64 * cost.de_per_obj_us,
        );
        let ret = applied
            .roots
            .first()
            .cloned()
            .ok_or_else(|| NrmiError::Protocol("empty delta reply".into()))?;
        return Ok((ret, stats));
    }

    // Full reply: deserialize (rebuilding the reply-side linear map in
    // the same pass), then run steps 4–6.
    let mut hooks = NodeHooks::new(&mut state.exports, &mut state.stubs);
    let decoded = deserialize_graph_with(reply_payload, &mut state.heap, &mut hooks)?;
    stats.reply_objects = decoded.object_count();
    state.charge_cpu(
        decoded.object_count() as f64 * cost.de_per_obj_us
            + reply_payload.len() as f64 * cost.per_byte_us,
    );

    let outcome = apply_restore(&mut state.heap, &client_map, &decoded)?;
    stats.restored_objects = outcome.stats.old_objects;
    stats.new_objects = outcome.stats.new_objects;
    state.charge_cpu(outcome.stats.old_objects as f64 * cost.restore_per_obj_us);

    let ret = outcome
        .roots
        .first()
        .cloned()
        .ok_or_else(|| NrmiError::Protocol("empty reply".into()))?;
    Ok((ret, stats))
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
        match client_collect_reply(
            client,
            transport,
            timeout,
            &mut pending.stats.callbacks_served,
        ) {
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
enum Callee<'a> {
    Named(&'a str),
    Exported(u64),
}

/// Handles one cold call on the server. Returns the reply frame
/// (`CallReply` on success, `CallError` carrying the remote exception
/// otherwise).
fn server_handle_call(
    server: &mut ServerNode,
    transport: &mut dyn Transport,
    method: &str,
    callee: Callee<'_>,
    mode_byte: u8,
    payload: &[u8],
) -> Frame {
    match server_handle_call_inner(server, transport, method, callee, mode_byte, payload) {
        Ok(reply) => reply,
        // Application exceptions travel as their own message; wrapping
        // happens once, on the client ("remote exception: <msg>").
        Err(NrmiError::Remote(message)) => Frame::CallError { message },
        Err(e) => Frame::CallError {
            message: e.to_string(),
        },
    }
}

fn server_handle_call_inner(
    server: &mut ServerNode,
    transport: &mut dyn Transport,
    method: &str,
    callee: Callee<'_>,
    mode_byte: u8,
    payload: &[u8],
) -> Result<Frame, NrmiError> {
    let opts = CallOptions::from_wire(mode_byte)?;
    let ServerNode {
        state,
        services,
        class_services,
        replies: _,
        leases: _,
    } = server;
    let cost = state.profile.cost();
    let registry = state.heap.registry_handle().clone();
    // Resolve the callee: a named service, or the class behavior of an
    // exported receiver object (prepended to the args below).
    let (service, receiver) = match callee {
        Callee::Named(name) => (
            services
                .get_mut(name)
                .ok_or_else(|| NrmiError::NoSuchService(name.to_owned()))?,
            None,
        ),
        Callee::Exported(key) => {
            let obj = state
                .exports
                .lookup(key)
                .ok_or_else(|| NrmiError::Protocol(format!("call on unknown export key {key}")))?;
            let class = state.heap.get(obj)?.class();
            let service = class_services.get_mut(&class).ok_or_else(|| {
                let name = registry
                    .get(class)
                    .map(|d| d.name().to_owned())
                    .unwrap_or_else(|_| format!("<class:{}>", class.index()));
                NrmiError::NoSuchService(format!("class {name}"))
            })?;
            (service, Some(obj))
        }
    };

    let remote_ref_mode = opts.mode_override == Some(PassMode::RemoteRef);

    // --- Unmarshal arguments --------------------------------------------
    let (args, server_map, snapshot) = if remote_ref_mode {
        let rvals = decode_rvals(payload)?;
        let mut args = Vec::with_capacity(rvals.len());
        for rv in &rvals {
            args.push(state.rval_to_value(rv)?);
        }
        state.charge_cpu(cost.dispatch_overhead_us);
        (args, LinearMap::empty(), None)
    } else {
        let mut hooks = NodeHooks::new(&mut state.exports, &mut state.stubs);
        let decoded = deserialize_graph_with(payload, &mut state.heap, &mut hooks)?;
        state.charge_cpu(
            cost.dispatch_overhead_us
                + decoded.object_count() as f64 * cost.de_per_obj_us
                + payload.len() as f64 * cost.per_byte_us,
        );
        let args = decoded.roots.clone();
        // The server-side linear map (step 2, second half). Matches the
        // client's map position-for-position because the deserialized
        // graph is isomorphic and the traversal is deterministic.
        let restore_roots = restore_roots_of(&registry, &state.heap, opts, &args)?;
        let server_map = LinearMap::build(&state.heap, &restore_roots)?;
        state.charge_cpu(server_map.len() as f64 * cost.linear_map_per_obj_us);
        let snapshot = if opts.delta_reply {
            // Reuse the node's pooled snapshot storage (taken out because
            // the service invocation below needs the whole node state).
            let mut snap = std::mem::take(&mut state.reply_snapshot);
            snap.recapture(&state.heap, server_map.order())?;
            Some(snap)
        } else {
            None
        };
        (args, server_map, snapshot)
    };

    // --- Execute the remote routine --------------------------------------
    // The service always runs against the proxy: plain heap accesses go
    // straight through; stub accesses cross the network. No read/write
    // barriers on the local path — the paper's "full speed" property.
    // For object-addressed calls the receiver is prepended as args[0]
    // (AFTER the restore map was built: the receiver is server-owned and
    // never restored to the caller).
    let invoke_args: Vec<Value> = match receiver {
        Some(obj) => std::iter::once(Value::Ref(obj))
            .chain(args.iter().cloned())
            .collect(),
        None => args.clone(),
    };
    let ret = {
        let mut proxy = RemoteHeapProxy::new(state, transport);
        service.invoke(method, &invoke_args, &mut proxy)?
    };

    // --- Marshal the reply -----------------------------------------------
    if remote_ref_mode {
        let rv = state.value_to_rval(&ret)?;
        state.charge_cpu(cost.callback_owner_us);
        return Ok(Frame::CallReply {
            payload: encode_rvals(&[rv]),
        });
    }

    if let Some(snapshot) = snapshot {
        // Delta reply (§5.2.4, optimization 2). The delta encoder cannot
        // express remote stubs linked into restorable state; when the
        // method created such links, fall through to the full-reply path
        // (the payload self-describes via its magic, so the client copes).
        let outcome = {
            let NodeState { heap, codec, .. } = &mut *state;
            codec.encode_reply_delta(heap, &snapshot, std::slice::from_ref(&ret))
        };
        state.reply_snapshot = snapshot;
        match outcome {
            Ok(delta) => {
                state.charge_cpu(
                    delta.stats.changed_count as f64 * cost.ser_per_obj_us
                        + delta.stats.new_count as f64 * cost.ser_per_obj_us
                        + server_map.len() as f64 * cost.linear_map_per_obj_us
                        + delta.bytes.len() as f64 * cost.per_byte_us,
                );
                return Ok(Frame::CallReply {
                    payload: delta.bytes,
                });
            }
            Err(nrmi_wire::WireError::NotSerializable { .. })
            | Err(nrmi_wire::WireError::RemoteWithoutHooks { .. }) => {
                // Fall through to the annotated full reply below.
            }
            Err(e) => return Err(e.into()),
        }
    }

    // Step 3: marshal the reply. Old-index annotations implement the
    // map matching of step 4 on the wire; the linear map's own dense
    // position index is the annotation table.
    let mut reply_roots = vec![ret];
    match opts.mode_override {
        Some(PassMode::DceRpc) => {
            // DCE RPC (§4.2): the reply is marshalled from the PARAMETER
            // roots, not the linear map. Whatever became unreachable
            // from the parameters during the call silently stays behind
            // — Figure 9's divergence from true copy-restore. (Java
            // reference arguments cannot be reseated, so the pre-call
            // roots are still the roots.)
            reply_roots.extend(
                restore_roots_of(&registry, &state.heap, opts, &args)?
                    .into_iter()
                    .map(Value::Ref),
            );
        }
        _ => {
            // Full copy-restore (also the AUTO path): ship the whole
            // linear map, so data unreachable from the parameters still
            // travels home.
            reply_roots.extend(server_map.order().iter().map(|&id| Value::Ref(id)));
        }
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
        Some(server_map.position_map()),
        Some(&mut hooks),
    )?;
    state.charge_cpu(
        enc.object_count() as f64 * cost.ser_per_obj_us + enc.byte_len() as f64 * cost.per_byte_us,
    );
    Ok(Frame::CallReply { payload: enc.bytes })
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
