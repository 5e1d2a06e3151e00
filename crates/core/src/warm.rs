//! Warm-call sessions: request deltas over a cached argument graph.
//!
//! The delta-reply optimization (§5.2.4) stops the *server* from
//! re-shipping unchanged state; this module stops the *client* too. A
//! warm session keeps the marshalled argument graph alive on the server
//! between calls. The first call through [`client_invoke_warm_with_stats`]
//! **seeds** the cache with an ordinary full graph (byte-identical to a
//! cold `copy_restore_delta` request); every later call ships only a
//! request delta — the synchronized objects the client freed or mutated
//! since the last reply, plus any newly reachable objects — and receives
//! the usual reply delta back.
//!
//! ## The handshake
//!
//! Each session cache is named by a client-allocated `cache_id` and a
//! `generation` counter that both sides advance in lockstep (one per
//! completed call). A warm request whose `(cache_id, generation)` the
//! server cannot honor — evicted, never seeded, out of step, or
//! invalidated beyond repair — answers [`Frame::CacheMiss`] and the
//! client falls back to reseeding under a fresh id. Nothing is ever
//! half-applied: the server answers `CacheMiss` *before* touching the
//! cached graph.
//!
//! ## Coherence
//!
//! The cached server graph may be reachable from server state (the
//! service can store references to it) and, on a shared node, from the
//! sessions of *other* connections. Each side therefore remembers a
//! **version vector**: the heap mutation [`version`](nrmi_heap::Object::version)
//! of every synchronized object at the moment the position was last
//! synchronized. Before trusting the cache, the server re-probes the
//! vector; out-of-band writes — another connection's call, a
//! `serve_class` method, a direct call on an exported object — show up
//! as positions stamped above their recorded version.
//!
//! A stale-but-live entry is no longer discarded: the server answers a
//! **targeted invalidation** ([`Frame::CacheStale`]) carrying a patch of
//! exactly the dirty positions, revalidates the entry in place (same
//! generation — no call executed), and the client re-issues the call
//! after applying the patch. Only when a synchronized object was freed
//! or its slot recycled (detected with the allocation stamp
//! [`born`](nrmi_heap::Object::born), which version numbers alone cannot)
//! does the session degrade to the legacy `CacheMiss` + cold reseed. An
//! entry dropped this way is **not** freed (the out-of-band activity
//! proves the graph is aliased); an orderly eviction
//! ([`Frame::CacheEvict`], connection shutdown) frees the cached graph —
//! but only the objects no *other* session still covers, per the node's
//! [`LeaseTable`].

use std::collections::HashMap;
use std::sync::Arc;

use nrmi_heap::{ClassId, DensePositionMap, Heap, LinearMap, ObjId, Value};
use nrmi_transport::{Frame, Transport};
use nrmi_wire::{
    apply_delta, apply_invalidation_filtered, apply_request_delta, deserialize_graph_with,
    encode_invalidation, next_sync, GraphSnapshot,
};

use crate::error::NrmiError;
use crate::lockcheck::TrackedMutex;
use crate::node::{ClientNode, NodeHooks, NodeState, ServerNode};
use crate::protocol::{client_invoke_with_stats, restore_roots_of, CallStats};
use crate::proxy::{handle_callback, RemoteHeapProxy};
use crate::restore::apply_restore;
use crate::semantics::CallOptions;

/// How many consecutive `CacheStale` revalidations one warm call absorbs
/// before giving up: a write-heavy peer that re-dirties the graph faster
/// than patches complete would otherwise starve the call forever. Past
/// the limit the client evicts and runs the call cold.
const MAX_STALE_RETRIES: usize = 3;

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// One position of a client sync list: the object, the class it had when
/// it entered the list (a recycled slot holding a different class counts
/// as freed), and its mutation version when the position was last
/// synchronized with the server. Per-position versions — not a single
/// epoch watermark — keep a coherence patch from echoing: objects a
/// patch just overwrote are re-recorded at their new versions, so the
/// next request delta does not ship the server's own writes back (which
/// would re-stale every other reader of the graph, forever).
#[derive(Clone, Copy, Debug)]
struct SyncRecord {
    id: ObjId,
    class: ClassId,
    version: u64,
}

/// One client-side warm cache: the session state for repeated calls to a
/// single service.
#[derive(Clone, Debug)]
struct ClientWarmCache {
    cache_id: u64,
    /// Generation the NEXT call will carry (1 right after seeding).
    generation: u64,
    /// Synchronized objects in protocol order.
    sync: Vec<SyncRecord>,
    /// Highest server revalidation version applied. A `CacheStale` patch
    /// can reach the client twice — pushed over the idle connection and
    /// again racing a reply — and applying twice would splice its new
    /// objects twice; the monotone version gate makes delivery
    /// idempotent.
    stale_version: u64,
}

/// The client's warm caches, one per service name.
#[derive(Debug, Default)]
pub struct WarmSessions {
    caches: HashMap<String, ClientWarmCache>,
    next_cache_id: u64,
}

impl WarmSessions {
    /// Creates an empty cache set.
    pub fn new() -> Self {
        WarmSessions::default()
    }

    /// The generation the next warm call to `service` will carry, or
    /// `None` if no cache is established (the next call seeds).
    pub fn generation(&self, service: &str) -> Option<u64> {
        self.caches.get(service).map(|c| c.generation)
    }

    /// Number of objects currently synchronized with `service`.
    pub fn sync_len(&self, service: &str) -> Option<usize> {
        self.caches.get(service).map(|c| c.sync.len())
    }

    /// The wire `cache_id` naming the session with `service`, if one is
    /// established. Exposed for protocol introspection and checking.
    pub fn cache_id(&self, service: &str) -> Option<u64> {
        self.caches.get(service).map(|c| c.cache_id)
    }

    /// The highest `CacheStale` revalidation version applied to the
    /// session with `service`. Exposed for protocol checking.
    pub fn stale_version(&self, service: &str) -> Option<u64> {
        self.caches.get(service).map(|c| c.stale_version)
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_cache_id;
        self.next_cache_id += 1;
        id
    }
}

/// Builds sync records for `ids` from the live heap, recording each
/// object's class and current mutation version.
fn record_sync(heap: &Heap, ids: &[ObjId]) -> Result<Vec<SyncRecord>, NrmiError> {
    ids.iter()
        .map(|&id| {
            let obj = heap.get(id)?;
            Ok(SyncRecord {
                id,
                class: obj.class(),
                version: obj.version(),
            })
        })
        .collect()
}

/// Applies a `CacheStale` coherence patch to the session named by
/// `cache_id`. Returns `true` if the patch was applied; `false` if it
/// was a duplicate (version already seen), addressed an unknown session
/// (evicted locally while the push was in flight — harmless), or failed
/// to apply — in which case the session is retired so the next call
/// reseeds cold rather than computing deltas against a torn graph.
pub(crate) fn client_apply_stale(
    client: &mut ClientNode,
    cache_id: u64,
    version: u64,
    payload: &[u8],
) -> bool {
    let Some(service) = client
        .warm
        .caches
        .iter()
        .find(|(_, c)| c.cache_id == cache_id)
        .map(|(s, _)| s.clone())
    else {
        return false;
    };
    let ClientNode { state, warm } = client;
    let cache = warm.caches.get_mut(&service).expect("found above");
    if version <= cache.stale_version {
        return false;
    }
    let sync_ids: Vec<ObjId> = cache.sync.iter().map(|r| r.id).collect();
    // Merge rule, client half: a pushed patch can race local writes the
    // client has not shipped yet. Positions the client has dirtied —
    // or freed — locally since the last sync keep the client's state
    // (they are still classified dirty, ship with the next request
    // delta, and win on the server); only untouched positions take the
    // server's slots.
    let keep_local: Vec<bool> = cache
        .sync
        .iter()
        .map(|rec| {
            match (
                state.heap.class_if_live(rec.id),
                state.heap.version_if_live(rec.id),
            ) {
                (Some(class), Some(v)) => class != rec.class || v > rec.version,
                _ => true, // freed (or recycled) locally: the free wins
            }
        })
        .collect();
    match apply_invalidation_filtered(payload, &mut state.heap, &sync_ids, &mut |pos| {
        !keep_local[pos as usize]
    }) {
        Ok(applied) => {
            // Re-record the patched positions at their post-patch
            // versions: the server's writes must not classify as OUR
            // dirty state on the next request delta (see [`SyncRecord`]).
            for &pos in &applied.dirty_positions {
                let rec = &mut cache.sync[pos as usize];
                if let Some(v) = state.heap.version_if_live(rec.id) {
                    rec.version = v;
                }
            }
            for &id in &applied.new_objects {
                match state.heap.get(id) {
                    Ok(obj) => cache.sync.push(SyncRecord {
                        id,
                        class: obj.class(),
                        version: obj.version(),
                    }),
                    Err(_) => {
                        warm.caches.remove(&service);
                        return false;
                    }
                }
            }
            cache.stale_version = version;
            true
        }
        Err(_) => {
            warm.caches.remove(&service);
            false
        }
    }
}

/// Receives frames until the call resolves, serving remote-pointer
/// callbacks in the meantime (the same loop the cold path runs).
/// `for_cache` is the in-flight session: a `CacheStale` addressed to it
/// resolves the call; one addressed to any OTHER session is a pushed
/// invalidation for an idle session, applied on the spot.
fn recv_call_outcome(
    client: &mut ClientNode,
    transport: &mut dyn Transport,
    stats: &mut CallStats,
    for_cache: u64,
) -> Result<WarmOutcome, NrmiError> {
    loop {
        let frame = transport.recv()?;
        match frame {
            Frame::CallReply { payload } => return Ok(WarmOutcome::Reply(payload)),
            Frame::CacheMiss => return Ok(WarmOutcome::Miss),
            Frame::CacheStale {
                cache_id,
                version,
                payload,
            } => {
                if cache_id == for_cache {
                    return Ok(WarmOutcome::Stale { version, payload });
                }
                stats.reply_bytes += payload.len();
                if client_apply_stale(client, cache_id, version, &payload) {
                    stats.stale_patches += 1;
                }
            }
            Frame::CallError { message } => return Ok(WarmOutcome::Error(message)),
            other => match handle_callback(&mut client.state, &other) {
                Some(reply) => {
                    stats.callbacks_served += 1;
                    transport.send(&reply)?;
                }
                None => {
                    return Err(NrmiError::Protocol(format!(
                        "unexpected frame while awaiting warm reply: {other:?}"
                    )))
                }
            },
        }
    }
}

enum WarmOutcome {
    Reply(Vec<u8>),
    Miss,
    Stale { version: u64, payload: Vec<u8> },
    Error(String),
}

/// Invokes `service.method(args)` through the warm-call protocol,
/// returning the result and per-call statistics. Seeds the session cache
/// on first use (or after any miss/error); ships a request delta
/// otherwise. Falls back to an ordinary cold call when the argument
/// graph cannot travel as a delta (e.g. it contains remote stubs).
///
/// Semantics are exactly [`CallOptions::copy_restore_delta`] — full
/// copy-restore with delta replies; the cold seed payload is
/// byte-identical to the cold path's request.
///
/// # Errors
/// Marshalling, transport, protocol, and remote-exception failures. On
/// any error the session cache is dropped, so the next call reseeds.
pub fn client_invoke_warm_with_stats(
    client: &mut ClientNode,
    transport: &mut dyn Transport,
    service: &str,
    method: &str,
    args: &[Value],
) -> Result<(Value, CallStats), NrmiError> {
    if client.warm.caches.contains_key(service) {
        // A `None` here is a cache miss: the entry is gone; reseed below.
        if let Some(result) = warm_call(client, transport, service, method, args)? {
            return Ok(result);
        }
    }
    seed_call(client, transport, service, method, args)
}

/// Generation ≥ 1: ship a request delta. Returns `None` on a cache miss
/// (caller reseeds); `Some` on completion. A `CacheStale` answer applies
/// the server's coherence patch and re-issues the call at the same
/// generation, up to [`MAX_STALE_RETRIES`] times.
fn warm_call(
    client: &mut ClientNode,
    transport: &mut dyn Transport,
    service: &str,
    method: &str,
    args: &[Value],
) -> Result<Option<(Value, CallStats)>, NrmiError> {
    let opts = CallOptions::copy_restore_delta();
    let mut stats = CallStats::default();
    for _attempt in 0..=MAX_STALE_RETRIES {
        let ClientNode { state, warm } = &mut *client;
        let Some(cache) = warm.caches.get(service) else {
            // A pushed patch failed to apply while this call waited and
            // retired the session under us: reseed.
            return Ok(None);
        };
        let (cache_id, generation) = (cache.cache_id, cache.generation);
        let cost = state.profile.cost();

        // Classify every synchronized position: freed (gone, or its slot
        // recycled for a different class) or dirty (mutated since the
        // position was last synchronized). The sync list is read in
        // place — the cache borrow and the heap borrow are disjoint
        // fields of the client.
        let heap = &state.heap;
        let mut sync_ids = Vec::with_capacity(cache.sync.len());
        let mut freed = Vec::new();
        let mut dirty = Vec::new();
        for (pos, rec) in cache.sync.iter().enumerate() {
            sync_ids.push(rec.id);
            // Probe accessors, not `get`: a cached handle may
            // legitimately be stale (freed, or its slot recycled), and
            // under the `sanitize` feature dereferencing such a handle is
            // a trap — classifying it as freed is exactly the
            // non-dereferencing probe we want.
            match heap.class_if_live(rec.id) {
                Some(live_class) if live_class == rec.class => {
                    if heap.version_if_live(rec.id).unwrap_or(u64::MAX) > rec.version {
                        dirty.push(pos as u32);
                    }
                }
                _ => freed.push(pos as u32),
            }
        }

        let encoded = {
            let NodeState { heap, codec, .. } = &mut *state;
            codec.encode_request_delta(heap, &sync_ids, &freed, &dirty, args)
        };
        let enc = match encoded {
            Ok(enc) => enc,
            Err(nrmi_wire::WireError::NotSerializable { .. })
            | Err(nrmi_wire::WireError::RemoteWithoutHooks { .. }) => {
                // The graph now contains objects a delta cannot carry
                // (e.g. remote stubs). Retire the session and run cold.
                client_evict_warm(client, transport, service)?;
                return client_invoke_with_stats(client, transport, service, method, args, opts)
                    .map(Some);
            }
            Err(e) => return Err(e.into()),
        };
        stats.request_objects += enc.stats.new_count + enc.stats.dirty_count;
        stats.request_bytes += enc.bytes.len();
        client.state.charge_cpu(
            cost.call_overhead_us
                + (enc.stats.new_count + enc.stats.dirty_count) as f64 * cost.ser_per_obj_us
                + enc.bytes.len() as f64 * cost.per_byte_us,
        );

        transport.send(&Frame::CallRequestWarm {
            service: service.to_owned(),
            method: method.to_owned(),
            mode: opts.to_wire(),
            cache_id,
            generation,
            payload: enc.bytes,
        })?;

        let payload = match recv_call_outcome(client, transport, &mut stats, cache_id)? {
            WarmOutcome::Reply(payload) => payload,
            WarmOutcome::Miss => {
                client.warm.caches.remove(service);
                return Ok(None);
            }
            WarmOutcome::Error(message) => {
                client.warm.caches.remove(service);
                return Err(NrmiError::Remote(message));
            }
            WarmOutcome::Stale { version, payload } => {
                // The server repaired our stale view in place instead of
                // discarding the session: apply the patch and re-issue at
                // the SAME generation (no call executed server-side).
                stats.reply_bytes += payload.len();
                client.state.charge_cpu(payload.len() as f64 * cost.per_byte_us);
                if client_apply_stale(client, cache_id, version, &payload) {
                    stats.stale_patches += 1;
                }
                continue;
            }
        };
        stats.reply_bytes += payload.len();

        // Both sides advanced their sync lists identically across the
        // request delta; the reply is relative to that advanced list.
        let sync2 = next_sync(&sync_ids, &enc.freed_positions, &enc.new_objects);

        if payload.starts_with(&nrmi_wire::delta::DELTA_MAGIC) {
            let applied = apply_delta(&payload, &mut client.state.heap, &sync2)?;
            stats.restored_objects = applied.changed_count;
            stats.new_objects = applied.new_objects.len();
            client.state.charge_cpu(
                payload.len() as f64 * cost.per_byte_us
                    + applied.changed_count as f64 * (cost.de_per_obj_us + cost.restore_per_obj_us)
                    + applied.new_objects.len() as f64 * cost.de_per_obj_us,
            );
            let ret = applied
                .roots
                .first()
                .cloned()
                .ok_or_else(|| NrmiError::Protocol("empty warm delta reply".into()))?;
            let mut sync3 = sync2;
            sync3.extend_from_slice(&applied.new_objects);
            let sync = record_sync(&client.state.heap, &sync3)?;
            // A pushed patch may have retired the session while this
            // call was in flight; the call still completed.
            if let Some(cache) = client.warm.caches.get_mut(service) {
                cache.generation += 1;
                cache.sync = sync;
            }
            return Ok(Some((ret, stats)));
        }

        // The server fell back to a full annotated reply (and dropped
        // its cache entry): restore through the advanced sync order,
        // then retire the session so the next call reseeds.
        client.warm.caches.remove(service);
        let state = &mut client.state;
        let mut hooks = NodeHooks::new(&mut state.exports, &mut state.stubs);
        let decoded = deserialize_graph_with(&payload, &mut state.heap, &mut hooks)?;
        stats.reply_objects = decoded.object_count();
        let outcome = apply_restore(&mut state.heap, &LinearMap::from_order(sync2), &decoded)?;
        stats.restored_objects = outcome.stats.old_objects;
        stats.new_objects = outcome.stats.new_objects;
        let ret = outcome
            .roots
            .first()
            .cloned()
            .ok_or_else(|| NrmiError::Protocol("empty warm reply".into()))?;
        return Ok(Some((ret, stats)));
    }
    // MAX_STALE_RETRIES consecutive patches without a completed call: a
    // write-heavy peer is outpacing the repairs. Evict and run this call
    // cold; the next call reseeds a fresh session.
    client_evict_warm(client, transport, service)?;
    client_invoke_with_stats(client, transport, service, method, args, opts).map(Some)
}

/// Generation 0: seed the cache with a full graph. The request payload
/// is byte-identical to a cold `copy_restore_delta` request.
fn seed_call(
    client: &mut ClientNode,
    transport: &mut dyn Transport,
    service: &str,
    method: &str,
    args: &[Value],
) -> Result<(Value, CallStats), NrmiError> {
    let opts = CallOptions::copy_restore_delta();
    let mut stats = CallStats::default();
    let cost = client.state.profile.cost();
    let cache_id = client.warm.fresh_id();

    let state = &mut client.state;
    let registry = state.heap.registry_handle().clone();
    let restore_roots = restore_roots_of(&registry, &state.heap, opts, args)?;
    let client_map = LinearMap::build(&state.heap, &restore_roots)?;
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

    transport.send(&Frame::CallRequestWarm {
        service: service.to_owned(),
        method: method.to_owned(),
        mode: opts.to_wire(),
        cache_id,
        generation: 0,
        payload: enc.bytes,
    })?;

    let payload = match recv_call_outcome(client, transport, &mut stats, cache_id)? {
        WarmOutcome::Reply(payload) => payload,
        WarmOutcome::Miss => {
            return Err(NrmiError::Protocol(
                "cache miss answering a seed call".into(),
            ))
        }
        WarmOutcome::Stale { .. } => {
            return Err(NrmiError::Protocol(
                "cache-stale answering a seed call".into(),
            ))
        }
        WarmOutcome::Error(message) => return Err(NrmiError::Remote(message)),
    };
    stats.reply_bytes = payload.len();

    if payload.starts_with(&nrmi_wire::delta::DELTA_MAGIC) {
        let applied = apply_delta(&payload, &mut client.state.heap, client_map.order())?;
        stats.restored_objects = applied.changed_count;
        stats.new_objects = applied.new_objects.len();
        client.state.charge_cpu(
            payload.len() as f64 * cost.per_byte_us
                + applied.changed_count as f64 * (cost.de_per_obj_us + cost.restore_per_obj_us)
                + applied.new_objects.len() as f64 * cost.de_per_obj_us,
        );
        let ret = applied
            .roots
            .first()
            .cloned()
            .ok_or_else(|| NrmiError::Protocol("empty seed delta reply".into()))?;
        let mut sync_ids = client_map.order().to_vec();
        sync_ids.extend_from_slice(&applied.new_objects);
        let sync = record_sync(&client.state.heap, &sync_ids)?;
        client.warm.caches.insert(
            service.to_owned(),
            ClientWarmCache {
                cache_id,
                generation: 1,
                sync,
                stale_version: 0,
            },
        );
        return Ok((ret, stats));
    }

    // Full reply: the server could not encode a delta and established no
    // cache. Restore like a cold call; next invocation seeds again.
    let state = &mut client.state;
    let mut hooks = NodeHooks::new(&mut state.exports, &mut state.stubs);
    let decoded = deserialize_graph_with(&payload, &mut state.heap, &mut hooks)?;
    stats.reply_objects = decoded.object_count();
    let outcome = apply_restore(&mut state.heap, &client_map, &decoded)?;
    stats.restored_objects = outcome.stats.old_objects;
    stats.new_objects = outcome.stats.new_objects;
    let ret = outcome
        .roots
        .first()
        .cloned()
        .ok_or_else(|| NrmiError::Protocol("empty seed reply".into()))?;
    Ok((ret, stats))
}

/// Drops the client's warm cache for `service` (if any) and tells the
/// server to free its cached graph.
///
/// # Errors
/// Transport failures sending the eviction notice.
pub fn client_evict_warm(
    client: &mut ClientNode,
    transport: &mut dyn Transport,
    service: &str,
) -> Result<(), NrmiError> {
    if let Some(cache) = client.warm.caches.remove(service) {
        transport.send(&Frame::CacheEvict {
            cache_id: cache.cache_id,
        })?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

/// Which warm sessions currently cover which heap objects, across every
/// connection serving one node. Kept on [`ServerNode::leases`] and
/// mirrored by every [`WarmCaches`] built with
/// [`with_leases`](WarmCaches::with_leases): an entry's sync objects are
/// registered when the entry is (re)inserted and unregistered when it is
/// taken out, so an orderly eviction can free exactly the objects no
/// OTHER session still reads — one client disconnecting no longer
/// poisons a second client's warm session by freeing the shared graph
/// out from under it.
///
/// The table is a refcount per object, which is exact under two
/// invariants the [`WarmCaches`] funnel maintains: a sync list never
/// repeats an id (it is a linear-map order), and every
/// [`register`](Self::register) is balanced by exactly one
/// [`unregister`](Self::unregister) of the same list. Counts instead of
/// per-object holder lists keep the steady-state warm call free of
/// allocations — the count map's capacity persists across the per-call
/// take/put cycle.
///
/// Lock discipline: always a leaf. Critical sections are pure map
/// updates; no other lock (and no transport I/O) is ever taken while a
/// lease guard is held, so the only learned order is node → lease-table.
#[derive(Debug, Default)]
pub struct LeaseTable {
    covers: HashMap<ObjId, u32>,
}

/// Builds a fresh shared lease-table handle — one per server heap
/// (normally owned by [`ServerNode::leases`]).
pub fn new_lease_table() -> Arc<TrackedMutex<LeaseTable>> {
    Arc::new(TrackedMutex::new(
        crate::lockcheck::LockClass::LeaseTable,
        LeaseTable::new(),
    ))
}

impl LeaseTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        LeaseTable::default()
    }

    fn register(&mut self, ids: &[ObjId]) {
        for &id in ids {
            *self.covers.entry(id).or_insert(0) += 1;
        }
    }

    fn unregister(&mut self, ids: &[ObjId]) {
        for &id in ids {
            if let Some(count) = self.covers.get_mut(&id) {
                *count -= 1;
                if *count == 0 {
                    self.covers.remove(&id);
                }
            }
        }
    }

    /// True if any session currently covers `id`.
    pub fn is_covered(&self, id: ObjId) -> bool {
        self.covers.contains_key(&id)
    }

    /// Number of sessions covering `id`.
    pub fn cover_count(&self, id: ObjId) -> usize {
        self.covers.get(&id).map_or(0, |&c| c as usize)
    }

    /// Number of objects under at least one lease.
    pub fn covered_len(&self) -> usize {
        self.covers.len()
    }

    /// True when no object is leased.
    pub fn is_empty(&self) -> bool {
        self.covers.is_empty()
    }
}

/// One server-side cache entry: the synchronized graph for a warm
/// session.
#[derive(Clone, Debug)]
struct ServerWarmEntry {
    generation: u64,
    sync: Vec<ObjId>,
    /// Per-position mutation version at the entry's last (re)validation,
    /// parallel to `sync`. An object stamped above its recorded version
    /// has been written out-of-band since the session last saw it.
    /// Per-position vectors (not one epoch watermark) matter because
    /// stale entries are *repaired* in place: a patch revalidates
    /// exactly what it shipped, leaving later writes detectable.
    versions: Vec<u64>,
    /// Monotone revalidation counter, carried by every `CacheStale`
    /// frame for this session so the client can order and deduplicate
    /// patch deliveries.
    version: u64,
    /// Pooled pre-call snapshot storage, recaptured per warm call so the
    /// per-object slot buffers are reused instead of reallocated.
    snapshot: GraphSnapshot,
}

/// The warm caches of one server connection. Each connection owns its
/// own set (created by the serve loop), so a client can only ever
/// address caches it seeded itself. Connections serving a node shared
/// with others build the set with [`with_leases`](WarmCaches::with_leases),
/// which coordinates evictions through the node's [`LeaseTable`].
#[derive(Debug, Default)]
pub struct WarmCaches {
    entries: HashMap<u64, ServerWarmEntry>,
    /// Cross-session lease table; `None` keeps the legacy one-owner
    /// behavior (evictions free unconditionally).
    leases: Option<Arc<TrackedMutex<LeaseTable>>>,
}

impl WarmCaches {
    /// Creates an empty cache set with no lease coordination.
    pub fn new() -> Self {
        WarmCaches::default()
    }

    /// Creates an empty cache set registered with a node's lease table
    /// (normally [`ServerNode::leases`]). All cache sets serving the
    /// same node must share one table for eviction safety.
    pub fn with_leases(leases: Arc<TrackedMutex<LeaseTable>>) -> Self {
        WarmCaches {
            entries: HashMap::new(),
            leases: Some(leases),
        }
    }

    /// True if this cache set coordinates evictions through a lease
    /// table.
    pub fn leased(&self) -> bool {
        self.leases.is_some()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no session is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The generation the server will accept next for `cache_id`, if the
    /// session is cached. Exposed so protocol checkers can assert the
    /// client/server generation lockstep invariant.
    pub fn generation_of(&self, cache_id: u64) -> Option<u64> {
        self.entries.get(&cache_id).map(|e| e.generation)
    }

    /// The revalidation version of `cache_id` (bumped once per
    /// `CacheStale` patch). Exposed for protocol checking.
    pub fn version_of(&self, cache_id: u64) -> Option<u64> {
        self.entries.get(&cache_id).map(|e| e.version)
    }

    /// The server-side object ids a cached session synchronizes, if the
    /// session is live. Exposed so checkers can audit eviction/lease
    /// safety: after another connection's teardown, every id here must
    /// still be alive.
    pub fn sync_ids_of(&self, cache_id: u64) -> Option<&[ObjId]> {
        self.entries.get(&cache_id).map(|e| e.sync.as_slice())
    }

    /// Takes an entry out, releasing its leases. Every removal funnels
    /// through here so the lease table mirrors `entries` exactly.
    fn take_entry(&mut self, cache_id: u64) -> Option<ServerWarmEntry> {
        let entry = self.entries.remove(&cache_id)?;
        if let Some(leases) = &self.leases {
            leases.lock().unregister(&entry.sync);
        }
        Some(entry)
    }

    /// Inserts an entry, registering its leases. The twin of
    /// [`take_entry`](Self::take_entry).
    fn put_entry(&mut self, cache_id: u64, entry: ServerWarmEntry) {
        if let Some(leases) = &self.leases {
            leases.lock().register(&entry.sync);
        }
        self.entries.insert(cache_id, entry);
    }

    /// Handles a client eviction notice: frees the cached graph. The
    /// notice asserts the client is done with the session graph (the
    /// warm twin of a DGC clean); slots already freed or never seeded
    /// are ignored.
    pub fn evict(&mut self, heap: &mut Heap, cache_id: u64) {
        let Some(entry) = self.take_entry(cache_id) else {
            return;
        };
        // Free the graph only if every synchronized slot still holds the
        // object the session left there, untouched since validation. Any
        // out-of-band activity — a mutation (server state aliases the
        // graph), a free, or a free-then-recycle (the slot now holds an
        // innocent object, which a blind free would destroy and the
        // sanitize feature traps as NRMI-Z001) — means partial freeing
        // would leave the surviving objects dangling at their freed
        // neighbors, so the entry is dropped unfreed instead. Recycled
        // slots always fail the version-vector test because the tick is
        // monotone: whatever occupies them was allocated after the entry
        // was validated.
        if !coherent(heap, &entry) {
            return;
        }
        match &self.leases {
            None => {
                for id in entry.sync {
                    let _ = heap.free(id);
                }
            }
            Some(leases) => {
                // Free only what no OTHER session still covers: on a
                // shared node, a second client's warm session may read
                // the same graph, and freeing it here would dangle that
                // session's handles (the evict-on-disconnect bug this
                // table exists to fix). Objects left covered are freed
                // by whichever eviction drops the last lease.
                let table = leases.lock();
                for id in entry.sync {
                    if !table.is_covered(id) {
                        let _ = heap.free(id);
                    }
                }
            }
        }
    }

    /// Frees every cached graph (connection teardown).
    pub fn release_all(&mut self, heap: &mut Heap) {
        let ids: Vec<u64> = self.entries.keys().copied().collect();
        for id in ids {
            self.evict(heap, id);
        }
    }
}

/// Probes each sync position's current mutation version; positions whose
/// object is gone probe as `u64::MAX` (always incoherent). The result
/// is built in `reuse`'s storage — an entry hands in its previous
/// vector, so a steady warm call allocates nothing here.
fn versions_of(heap: &Heap, sync: &[ObjId], mut reuse: Vec<u64>) -> Vec<u64> {
    reuse.clear();
    reuse.extend(
        sync.iter()
            .map(|&id| heap.version_if_live(id).unwrap_or(u64::MAX)),
    );
    reuse
}

/// True if every synchronized object still exists untouched since the
/// entry was last (re)validated.
fn coherent(heap: &Heap, entry: &ServerWarmEntry) -> bool {
    // Probe, don't dereference: the whole point is that these handles
    // may have gone stale behind the cache's back.
    entry.sync.len() == entry.versions.len()
        && entry
            .sync
            .iter()
            .zip(&entry.versions)
            .all(|(&id, &recorded)| heap.version_if_live(id).is_some_and(|v| v <= recorded))
}

/// How an entry relates to the live heap.
enum Staleness {
    /// Every position matches its recorded version.
    Clean,
    /// Some positions were written out-of-band, but every synchronized
    /// object is still the one the session knows: the dirty positions,
    /// ascending. Repairable by a coherence patch.
    Dirty(Vec<u32>),
    /// A synchronized object was freed, or its slot recycled for a new
    /// object. Version numbers alone cannot tell recycling from
    /// mutation — the allocation stamp ([`born`](nrmi_heap::Object::born))
    /// can, and it matters: patching would ship a stranger object under
    /// the session's position, silently (or as an NRMI-Z001 trap under
    /// `sanitize`).
    Lost,
}

fn classify(heap: &Heap, entry: &ServerWarmEntry) -> Staleness {
    if entry.sync.len() != entry.versions.len() {
        return Staleness::Lost;
    }
    let mut dirty = Vec::new();
    for (pos, (&id, &recorded)) in entry.sync.iter().zip(&entry.versions).enumerate() {
        match (heap.version_if_live(id), heap.born_if_live(id)) {
            (Some(version), Some(born)) => {
                if born > recorded {
                    return Staleness::Lost;
                }
                if version > recorded {
                    dirty.push(pos as u32);
                }
            }
            _ => return Staleness::Lost,
        }
    }
    if dirty.is_empty() {
        Staleness::Clean
    } else {
        Staleness::Dirty(dirty)
    }
}

/// Repairs a stale-but-live entry: encodes a patch of the dirty
/// positions, revalidates the entry at the current heap state (same
/// generation — no call executed), and answers `CacheStale`. Encode
/// failures (a dirty object grew a dangling edge into a freed neighbor,
/// or now references something a patch cannot carry) degrade to the
/// legacy drop: entry out, unfreed, `CacheMiss`.
fn revalidate_entry(
    server: &mut ServerNode,
    caches: &mut WarmCaches,
    cache_id: u64,
    mut entry: ServerWarmEntry,
    dirty: &[u32],
) -> Frame {
    let state = &mut server.state;
    let cost = state.profile.cost();
    let enc = match encode_invalidation(&state.heap, &entry.sync, dirty) {
        Ok(enc) => enc,
        Err(_) => return Frame::CacheMiss,
    };
    state.charge_cpu(
        (enc.stats.dirty_count + enc.stats.new_count) as f64 * cost.ser_per_obj_us
            + enc.bytes.len() as f64 * cost.per_byte_us,
    );
    entry.sync.extend_from_slice(&enc.new_objects);
    entry.versions = versions_of(
        &state.heap,
        &entry.sync,
        std::mem::take(&mut entry.versions),
    );
    entry.version += 1;
    let version = entry.version;
    caches.put_entry(cache_id, entry);
    Frame::CacheStale {
        cache_id,
        version,
        payload: enc.bytes,
    }
}

/// Scans this connection's sessions for entries gone stale behind their
/// backs and repairs the repairable ones, returning the `CacheStale`
/// frames to push to the (idle) client. Only **pure** patches — no new
/// objects — travel unsolicited: a splicing patch changes the sync-list
/// length, and a request delta already crossing it on the wire would
/// desync; splicing repairs wait for the next call and travel on the
/// reply path instead. Entries whose graphs were freed or recycled
/// out-of-band are dropped (unfreed) — the client discovers the loss as
/// an ordinary `CacheMiss` on its next call.
pub(crate) fn collect_stale_pushes(server: &mut ServerNode, caches: &mut WarmCaches) -> Vec<Frame> {
    let mut out = Vec::new();
    // Only incoherent entries need the mutable pass; when every session
    // is clean (the steady state) this collects nothing and allocates
    // nothing.
    let ids: Vec<u64> = caches
        .entries
        .iter()
        .filter(|(_, entry)| !coherent(&server.state.heap, entry))
        .map(|(&id, _)| id)
        .collect();
    for cache_id in ids {
        let Some(entry) = caches.entries.get(&cache_id) else {
            continue;
        };
        match classify(&server.state.heap, entry) {
            Staleness::Clean => {}
            Staleness::Dirty(dirty) => {
                let state = &mut server.state;
                let Ok(enc) = encode_invalidation(&state.heap, &entry.sync, &dirty) else {
                    // Unencodable (e.g. a dangling edge): leave the entry
                    // stale; the next warm call degrades to CacheMiss
                    // through the same classification.
                    continue;
                };
                if !enc.new_objects.is_empty() {
                    continue;
                }
                let cost = state.profile.cost();
                state.charge_cpu(
                    enc.stats.dirty_count as f64 * cost.ser_per_obj_us
                        + enc.bytes.len() as f64 * cost.per_byte_us,
                );
                let mut entry = caches.take_entry(cache_id).expect("present above");
                entry.versions = versions_of(
                    &state.heap,
                    &entry.sync,
                    std::mem::take(&mut entry.versions),
                );
                entry.version += 1;
                let version = entry.version;
                caches.put_entry(cache_id, entry);
                out.push(Frame::CacheStale {
                    cache_id,
                    version,
                    payload: enc.bytes,
                });
            }
            Staleness::Lost => {
                caches.take_entry(cache_id);
            }
        }
    }
    out
}

/// Handles one `CallRequestWarm` frame on the server. Returns the frame
/// to send back: `CallReply`, `CacheStale`, `CacheMiss`, or `CallError`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn server_handle_warm_call(
    server: &mut ServerNode,
    caches: &mut WarmCaches,
    transport: &mut dyn Transport,
    service: &str,
    method: &str,
    mode_byte: u8,
    cache_id: u64,
    generation: u64,
    payload: &[u8],
) -> Frame {
    let result = if generation == 0 {
        server_seed_call(
            server, caches, transport, service, method, mode_byte, cache_id, payload,
        )
    } else {
        // Take the entry out up front: every non-success path below must
        // leave it dropped (the client drops its side symmetrically);
        // only a completed call or an in-place repair re-inserts it.
        let Some(entry) = caches.take_entry(cache_id) else {
            return Frame::CacheMiss;
        };
        if entry.generation != generation {
            return Frame::CacheMiss;
        }
        match classify(&server.state.heap, &entry) {
            Staleness::Clean => {}
            Staleness::Dirty(dirty) => {
                // Out-of-band writes, but every synchronized object is
                // still alive: repair the session in place with a
                // targeted patch instead of discarding it. Merge rule:
                // the patch excludes positions this request itself
                // rewrites or frees — the client's slots are already on
                // the wire and win at object granularity; patching them
                // back would silently undo the client's mutation. If
                // the request covers every dirty position (or the
                // payload is malformed — the call path below surfaces
                // the authoritative error), fall through to the call.
                if let Ok(peeked) = nrmi_wire::peek_request_delta(payload, entry.sync.len()) {
                    let patch: Vec<u32> = dirty
                        .iter()
                        .copied()
                        .filter(|&p| !peeked.touches(p))
                        .collect();
                    if !patch.is_empty() {
                        return revalidate_entry(server, caches, cache_id, entry, &patch);
                    }
                }
            }
            Staleness::Lost => {
                // Freed or recycled out-of-band: nothing to patch
                // against. Drop without freeing (the out-of-band
                // activity proves server state aliases the graph).
                return Frame::CacheMiss;
            }
        }
        server_warm_call(
            server, caches, transport, service, method, cache_id, entry, payload,
        )
    };
    match result {
        Ok(frame) => frame,
        Err(NrmiError::Remote(message)) => Frame::CallError { message },
        Err(e) => Frame::CallError {
            message: e.to_string(),
        },
    }
}

/// Seeds a session: full-graph request, delta reply, cache established.
#[allow(clippy::too_many_arguments)]
fn server_seed_call(
    server: &mut ServerNode,
    caches: &mut WarmCaches,
    transport: &mut dyn Transport,
    service: &str,
    method: &str,
    mode_byte: u8,
    cache_id: u64,
    payload: &[u8],
) -> Result<Frame, NrmiError> {
    let opts = CallOptions::from_wire(mode_byte)?;
    let ServerNode {
        state, services, ..
    } = server;
    let cost = state.profile.cost();
    let registry = state.heap.registry_handle().clone();
    let svc = services
        .get_mut(service)
        .ok_or_else(|| NrmiError::NoSuchService(service.to_owned()))?;

    let mut hooks = NodeHooks::new(&mut state.exports, &mut state.stubs);
    let decoded = deserialize_graph_with(payload, &mut state.heap, &mut hooks)?;
    state.charge_cpu(
        cost.dispatch_overhead_us
            + decoded.object_count() as f64 * cost.de_per_obj_us
            + payload.len() as f64 * cost.per_byte_us,
    );
    let args = decoded.roots.clone();
    let restore_roots = restore_roots_of(&registry, &state.heap, opts, &args)?;
    let server_map = LinearMap::build(&state.heap, &restore_roots)?;
    let snapshot = GraphSnapshot::capture(&state.heap, server_map.order())?;

    let ret = {
        let mut proxy = RemoteHeapProxy::new(state, transport);
        svc.invoke(method, &args, &mut proxy)?
    };

    let outcome = {
        let NodeState { heap, codec, .. } = &mut *state;
        codec.encode_reply_delta(heap, &snapshot, std::slice::from_ref(&ret))
    };
    match outcome {
        Ok(delta) => {
            state.charge_cpu(
                (delta.stats.changed_count + delta.stats.new_count) as f64 * cost.ser_per_obj_us
                    + delta.bytes.len() as f64 * cost.per_byte_us,
            );
            let mut sync = server_map.order().to_vec();
            sync.extend_from_slice(&delta.new_objects);
            let versions = versions_of(&state.heap, &sync, Vec::new());
            caches.put_entry(
                cache_id,
                ServerWarmEntry {
                    generation: 1,
                    sync,
                    versions,
                    version: 0,
                    // The seed's snapshot storage seeds the entry's pool.
                    snapshot,
                },
            );
            Ok(Frame::CallReply {
                payload: delta.bytes,
            })
        }
        Err(nrmi_wire::WireError::NotSerializable { .. })
        | Err(nrmi_wire::WireError::RemoteWithoutHooks { .. }) => {
            // Cannot delta-encode the result graph: answer a full
            // annotated reply and establish no cache.
            full_reply_fallback(state, server_map.order(), ret)
        }
        Err(e) => Err(e.into()),
    }
}

/// A warm call proper: apply the request delta to the cached graph, run
/// the method, reply with a delta, advance the entry.
#[allow(clippy::too_many_arguments)]
fn server_warm_call(
    server: &mut ServerNode,
    caches: &mut WarmCaches,
    transport: &mut dyn Transport,
    service: &str,
    method: &str,
    cache_id: u64,
    mut entry: ServerWarmEntry,
    payload: &[u8],
) -> Result<Frame, NrmiError> {
    let ServerNode {
        state, services, ..
    } = server;
    let cost = state.profile.cost();
    let svc = services
        .get_mut(service)
        .ok_or_else(|| NrmiError::NoSuchService(service.to_owned()))?;

    let applied = apply_request_delta(payload, &mut state.heap, &entry.sync)?;
    state.charge_cpu(
        cost.dispatch_overhead_us
            + (applied.changed_count + applied.new_objects.len()) as f64 * cost.de_per_obj_us
            + payload.len() as f64 * cost.per_byte_us,
    );
    let sync2 = next_sync(&entry.sync, &applied.freed_positions, &applied.new_objects);
    // Recapture into the entry's pooled snapshot: in steady state this
    // reuses every per-object slot buffer from the previous call.
    entry.snapshot.recapture(&state.heap, &sync2)?;
    let args = applied.roots;

    let ret = {
        let mut proxy = RemoteHeapProxy::new(state, transport);
        svc.invoke(method, &args, &mut proxy)?
    };

    let outcome = {
        let NodeState { heap, codec, .. } = &mut *state;
        codec.encode_reply_delta(heap, &entry.snapshot, std::slice::from_ref(&ret))
    };
    match outcome {
        Ok(delta) => {
            state.charge_cpu(
                (delta.stats.changed_count + delta.stats.new_count) as f64 * cost.ser_per_obj_us
                    + delta.bytes.len() as f64 * cost.per_byte_us,
            );
            let mut sync = sync2;
            sync.extend_from_slice(&delta.new_objects);
            let versions = versions_of(&state.heap, &sync, entry.versions);
            caches.put_entry(
                cache_id,
                ServerWarmEntry {
                    generation: entry.generation + 1,
                    sync,
                    versions,
                    version: entry.version,
                    snapshot: entry.snapshot,
                },
            );
            Ok(Frame::CallReply {
                payload: delta.bytes,
            })
        }
        Err(nrmi_wire::WireError::NotSerializable { .. })
        | Err(nrmi_wire::WireError::RemoteWithoutHooks { .. }) => {
            // Fall back to a full annotated reply relative to the
            // advanced sync order; the entry stays dropped (the client
            // retires its side on seeing the full reply).
            full_reply_fallback(state, &sync2, ret)
        }
        Err(e) => Err(e.into()),
    }
}

/// Emits a full annotated reply (the cold copy-restore wire form) whose
/// old-index annotations are positions in `sync` — the receiver restores
/// through `LinearMap::from_order(sync)`.
fn full_reply_fallback(
    state: &mut NodeState,
    sync: &[ObjId],
    ret: Value,
) -> Result<Frame, NrmiError> {
    let cost = state.profile.cost();
    let mut old_index = DensePositionMap::new();
    for (i, &id) in sync.iter().enumerate() {
        old_index.insert(id, i as u32);
    }
    let mut reply_roots = vec![ret];
    reply_roots.extend(sync.iter().map(|&id| Value::Ref(id)));
    let NodeState {
        heap,
        exports,
        stubs,
        codec,
        ..
    } = &mut *state;
    let mut hooks = NodeHooks::new(exports, stubs);
    let enc = codec.encode_graph(heap, &reply_roots, Some(&old_index), Some(&mut hooks))?;
    state.charge_cpu(
        enc.object_count() as f64 * cost.ser_per_obj_us + enc.byte_len() as f64 * cost.per_byte_us,
    );
    Ok(Frame::CallReply { payload: enc.bytes })
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    use nrmi_heap::{ClassRegistry, HeapAccess};
    use nrmi_transport::{MachineSpec, TransportError};

    use super::*;
    use crate::service::FnService;

    /// Stands in for the (unused) callback channel of the dispatch.
    struct Sink;

    impl Transport for Sink {
        fn send(&mut self, _frame: &Frame) -> nrmi_transport::Result<()> {
            Ok(())
        }
        fn recv(&mut self) -> nrmi_transport::Result<Frame> {
            Err(TransportError::Disconnected)
        }
        fn recv_timeout(
            &mut self,
            _timeout: std::time::Duration,
        ) -> nrmi_transport::Result<Frame> {
            Err(TransportError::Disconnected)
        }
    }

    /// Client and server joined in process: `send` runs the frame
    /// through the serve core's step and queues everything it answers —
    /// pushed `CacheStale` patches ahead of the reply, exactly the order
    /// the drivers write to the socket.
    struct Link {
        server: ServerNode,
        caches: WarmCaches,
        replies: VecDeque<Frame>,
    }

    impl Transport for Link {
        fn send(&mut self, frame: &Frame) -> nrmi_transport::Result<()> {
            let mut conn = crate::protocol::Connection::new(&mut self.server, &mut self.caches);
            let step = conn.step(&mut Sink, frame.clone());
            self.replies.extend(step.into_replies());
            Ok(())
        }
        fn recv(&mut self) -> nrmi_transport::Result<Frame> {
            self.replies.pop_front().ok_or(TransportError::Disconnected)
        }
        fn recv_timeout(
            &mut self,
            _timeout: std::time::Duration,
        ) -> nrmi_transport::Result<Frame> {
            self.recv()
        }
    }

    /// Two warm services on one node: `leak` returns its root's `data`
    /// and leaks the server-side root id; `poke` writes that leaked root
    /// — an out-of-band cross-session write from the leak session's
    /// point of view.
    fn world() -> (ClientNode, Link, ObjId, ObjId) {
        let mut reg = ClassRegistry::new();
        let cell = reg.define("Cell").field_int("data").restorable().register();
        let registry = reg.snapshot();

        let leaked: Arc<Mutex<Option<ObjId>>> = Arc::new(Mutex::new(None));
        let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
        {
            let leaked = Arc::clone(&leaked);
            server.bind(
                "leak",
                Box::new(FnService::new(move |_m, args, heap| {
                    let root = args[0]
                        .as_ref_id()
                        .ok_or_else(|| NrmiError::app("want a ref"))?;
                    *leaked.lock().expect("poisoned") = Some(root);
                    Ok(heap.get_field(root, "data")?)
                })),
            );
        }
        {
            let leaked = Arc::clone(&leaked);
            server.bind(
                "poke",
                Box::new(FnService::new(move |_m, _args, heap| {
                    if let Some(id) = *leaked.lock().expect("poisoned") {
                        let d = heap.get_field(id, "data")?.as_int().unwrap_or(0);
                        heap.set_field(id, "data", Value::Int(d + 100))?;
                    }
                    Ok(Value::Null)
                })),
            );
        }
        let caches = WarmCaches::with_leases(Arc::clone(&server.leases));
        let mut client = ClientNode::new(registry, MachineSpec::fast());
        let leak_root = client
            .state
            .heap
            .alloc(cell, vec![Value::Int(5)])
            .expect("alloc");
        let poke_root = client
            .state
            .heap
            .alloc(cell, vec![Value::Int(0)])
            .expect("alloc");
        (
            client,
            Link {
                server,
                caches,
                replies: VecDeque::new(),
            },
            leak_root,
            poke_root,
        )
    }

    fn call(
        client: &mut ClientNode,
        link: &mut Link,
        service: &str,
        root: ObjId,
    ) -> (Value, CallStats) {
        client_invoke_warm_with_stats(client, link, service, "run", &[Value::Ref(root)])
            .expect("warm call")
    }

    /// Satellite regression: connection teardown (`release_all`) frees
    /// only objects no OTHER connection's session covers. Before the
    /// lease table, A's teardown freed the shared subgraph out from
    /// under B's live cache.
    #[test]
    fn release_all_frees_only_objects_no_other_session_covers() {
        let mut reg = ClassRegistry::new();
        let cell = reg.define("Cell").field_int("data").restorable().register();
        let mut heap = Heap::new(reg.snapshot());
        let x = heap.alloc(cell, vec![Value::Int(1)]).expect("alloc");
        let y = heap.alloc(cell, vec![Value::Int(2)]).expect("alloc");
        let shared = heap.alloc(cell, vec![Value::Int(3)]).expect("alloc");
        let z = heap.alloc(cell, vec![Value::Int(4)]).expect("alloc");

        let leases = new_lease_table();
        let mut conn_a = WarmCaches::with_leases(Arc::clone(&leases));
        let mut conn_b = WarmCaches::with_leases(Arc::clone(&leases));
        let entry = |heap: &Heap, sync: Vec<ObjId>| ServerWarmEntry {
            generation: 1,
            versions: versions_of(heap, &sync, Vec::new()),
            sync,
            version: 0,
            snapshot: GraphSnapshot::default(),
        };
        conn_a.put_entry(1, entry(&heap, vec![x, y, shared]));
        conn_b.put_entry(2, entry(&heap, vec![z, shared]));
        assert_eq!(leases.lock().cover_count(shared), 2);

        conn_a.release_all(&mut heap);
        assert!(heap.class_if_live(x).is_none(), "x was A's alone");
        assert!(heap.class_if_live(y).is_none(), "y was A's alone");
        assert!(
            heap.class_if_live(shared).is_some(),
            "shared is still leased by connection B"
        );
        assert!(heap.class_if_live(z).is_some());

        conn_b.evict(&mut heap, 2);
        assert!(heap.class_if_live(shared).is_none(), "last lease released");
        assert!(heap.class_if_live(z).is_none());
        assert!(leases.lock().is_empty());
    }

    /// A cross-session write during another session's call travels as a
    /// pushed `CacheStale` patch ahead of the reply: the idle session's
    /// client graph is repaired inline (counted in
    /// [`CallStats::stale_patches`]), and its next call runs warm at the
    /// same cache — no miss, no cold reseed.
    #[test]
    fn cross_session_write_pushes_a_targeted_patch() {
        let (mut client, mut link, leak_root, poke_root) = world();

        let (v1, s1) = call(&mut client, &mut link, "leak", leak_root);
        assert_eq!(v1, Value::Int(5));
        assert_eq!(s1.stale_patches, 0);

        let (_, s2) = call(&mut client, &mut link, "poke", poke_root);
        assert_eq!(s2.stale_patches, 1, "one pushed patch consumed inline");
        assert_eq!(
            client.state.heap.get_field(leak_root, "data").expect("live"),
            Value::Int(105),
            "the patch repaired exactly the dirty position client-side"
        );

        let gen = client.warm.generation("leak").expect("warm");
        let (v3, s3) = call(&mut client, &mut link, "leak", leak_root);
        assert_eq!(v3, Value::Int(105));
        assert_eq!(s3.stale_patches, 0, "the push already repaired the view");
        assert_eq!(
            client.warm.generation("leak"),
            Some(gen + 1),
            "served from the warm cache, not reseeded"
        );
    }

    /// A patch delivery is idempotent: the monotone `stale_version` gate
    /// refuses versions at or below the last applied one before parsing,
    /// so a patch arriving twice (pushed, then racing a reply) cannot
    /// double-apply.
    #[test]
    fn stale_patch_deliveries_are_deduplicated_by_version() {
        let (mut client, mut link, leak_root, poke_root) = world();
        call(&mut client, &mut link, "leak", leak_root);
        call(&mut client, &mut link, "poke", poke_root);
        let cache_id = client.warm.cache_id("leak").expect("warm");
        assert_eq!(client.warm.stale_version("leak"), Some(1));

        // Replaying version 1 — even with a garbage payload — must be
        // rejected by the version gate alone, leaving the session alive.
        assert!(!client_apply_stale(&mut client, cache_id, 1, b"garbage"));
        assert_eq!(client.warm.cache_id("leak"), Some(cache_id));
        assert_eq!(
            client.state.heap.get_field(leak_root, "data").expect("live"),
            Value::Int(105)
        );
    }

    /// The server half of the merge rule: an out-of-band write to a
    /// position the in-flight request ALSO rewrites is not patched — the
    /// client wins at object granularity and the call proceeds, rather
    /// than a repair clobbering the client's unshipped write.
    #[test]
    fn client_write_wins_over_concurrent_server_write_to_same_object() {
        let (mut client, mut link, leak_root, _poke_root) = world();
        call(&mut client, &mut link, "leak", leak_root);

        // Out-of-band server-side write to the session's root...
        let server_root = link.caches.sync_ids_of(
            client.warm.cache_id("leak").expect("warm"),
        )
        .expect("live")[0];
        link.server
            .state
            .heap
            .set_field(server_root, "data", Value::Int(999))
            .expect("live");
        // ...racing a client-side write to the SAME object.
        client
            .state
            .heap
            .set_field(leak_root, "data", Value::Int(7))
            .expect("live");

        let (v, s) = call(&mut client, &mut link, "leak", leak_root);
        assert_eq!(v, Value::Int(7), "the client's write won");
        assert_eq!(s.stale_patches, 0, "no repair patch for a position the delta rewrites");
        assert_eq!(
            client.state.heap.get_field(leak_root, "data").expect("live"),
            Value::Int(7)
        );
    }

    /// The reply-path repair: an out-of-band write to a position the
    /// request does NOT touch answers `CacheStale`; the client applies
    /// the patch (counted in `stale_patches`), re-issues at the same
    /// generation, and the call completes warm.
    #[test]
    fn untouched_stale_position_is_repaired_on_the_reply_path() {
        let (mut client, mut link, leak_root, _poke_root) = world();
        call(&mut client, &mut link, "leak", leak_root);

        let server_root = link.caches.sync_ids_of(
            client.warm.cache_id("leak").expect("warm"),
        )
        .expect("live")[0];
        link.server
            .state
            .heap
            .set_field(server_root, "data", Value::Int(400))
            .expect("live");

        let (v, s) = call(&mut client, &mut link, "leak", leak_root);
        assert_eq!(v, Value::Int(400), "the call saw the repaired state");
        assert_eq!(s.stale_patches, 1, "one CacheStale reply absorbed");
        assert_eq!(
            client.state.heap.get_field(leak_root, "data").expect("live"),
            Value::Int(400)
        );
    }
}
