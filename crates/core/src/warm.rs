//! Warm-call sessions: request deltas over a cached argument graph.
//!
//! The delta-reply optimization (§5.2.4) stops the *server* from
//! re-shipping unchanged state; this module stops the *client* too. A
//! warm session keeps the marshalled argument graph alive on the server
//! between calls. The first call through [`client_invoke_warm_with_stats`]
//! **seeds** the cache; every later call ships only a request delta —
//! the synchronized objects the client freed or mutated since the last
//! reply, plus any newly reachable objects — and receives the usual
//! reply delta back.
//!
//! Neither is a second protocol. Both run the one call pipeline of
//! [`crate::protocol`]; this module owns only what a session adds to it:
//!
//! * a **seed** is the cold `copy_restore_delta` call, byte for byte,
//!   in a `CallRequestWarm` envelope — afterwards each side keeps the
//!   call's linear-map order (plus the objects the reply introduced) as
//!   the session's sync list;
//! * a **warm call** replaces the graph request by a request delta
//!   against that list (the client's classification of it, the server's
//!   application of it), and hands the advanced list to the same
//!   invoke-and-reply and the same reply applier a cold call hands its
//!   linear map.
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

use nrmi_heap::{Heap, ObjId, Value};
use nrmi_transport::{Frame, Transport};
use nrmi_wire::{next_sync, peek_delta, AppliedDelta, DeltaKind, EncodedDelta, WireError};

use crate::error::NrmiError;
use crate::lockcheck::TrackedMutex;
use crate::node::{ClientNode, NodeState, ServerNode};
use crate::protocol::{
    apply_reply_payload, client_collect_reply, client_invoke_target, client_invoke_with_stats,
    invoke_and_reply, reply_frame, resolve_callee, server_call, CallStats, CallTarget, Callee,
    Collected, Invocation, Replied, ReplyOrder,
};
use crate::semantics::CallOptions;

/// How many consecutive `CacheStale` revalidations one warm call absorbs
/// before giving up: a write-heavy peer that re-dirties the graph faster
/// than patches complete would otherwise starve the call forever. Past
/// the limit the client evicts and runs the call cold.
const MAX_STALE_RETRIES: usize = 3;

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// One position of a client sync list: the object, its allocation stamp
/// when it entered the list (a slot freed and recycled since — even for
/// an object of the same class — holds a stranger with a later stamp
/// and counts as freed), and its mutation version when the position was
/// last synchronized with the server. Per-position versions — not a
/// single epoch watermark — keep a coherence patch from echoing: objects
/// a patch just overwrote are re-recorded at their new versions, so the
/// next request delta does not ship the server's own writes back (which
/// would re-stale every other reader of the graph, forever).
#[derive(Clone, Copy, Debug)]
struct SyncRecord {
    id: ObjId,
    born: u64,
    version: u64,
}

/// How a synchronized position relates to the live heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Probe {
    /// The recorded object, untouched since the position was last
    /// synchronized.
    Clean,
    /// The recorded object, mutated since.
    Dirty,
    /// The recorded object is gone: its slot is empty or recycled.
    Freed,
}

impl SyncRecord {
    /// Records `id` as synchronized at its current state.
    fn of(heap: &Heap, id: ObjId) -> Result<Self, NrmiError> {
        let obj = heap.get(id)?;
        Ok(SyncRecord {
            id,
            born: obj.born(),
            version: obj.version(),
        })
    }

    /// The one classification of a position, for request deltas and for
    /// the patch merge rule alike. Probe accessors, not `get`: a cached
    /// handle may legitimately be stale, and dereferencing one is a trap
    /// under the `sanitize` feature — and, in any build, would read a
    /// stranger through the dead object's position.
    fn probe(&self, heap: &Heap) -> Probe {
        match (heap.born_if_live(self.id), heap.version_if_live(self.id)) {
            (Some(born), Some(version)) if born == self.born => {
                if version > self.version {
                    Probe::Dirty
                } else {
                    Probe::Clean
                }
            }
            _ => Probe::Freed,
        }
    }
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

/// Builds sync records for `ids` from the live heap, in one allocation
/// (collecting through `Result` would grow the vector by doubling).
fn record_sync(heap: &Heap, ids: &[ObjId]) -> Result<Vec<SyncRecord>, NrmiError> {
    let mut sync = Vec::with_capacity(ids.len());
    for &id in ids {
        sync.push(SyncRecord::of(heap, id)?);
    }
    Ok(sync)
}

/// Consumes a `CacheStale` coherence patch for the session named by
/// `cache_id` — pushed while some call waited, or answering this
/// session's own request: accounts its bytes into `stats`, applies it,
/// and counts it in `stats.stale_patches` if it took. Returns `true` if
/// the patch was applied; `false` if it was a duplicate (version
/// already seen), addressed an unknown session (evicted locally while
/// the push was in flight — harmless), or failed to apply — in which
/// case the session is retired so the next call reseeds cold rather
/// than computing deltas against a torn graph.
pub(crate) fn client_apply_stale(
    client: &mut ClientNode,
    cache_id: u64,
    version: u64,
    payload: &[u8],
    stats: &mut CallStats,
) -> bool {
    stats.reply_bytes += payload.len();
    client.state.work.bytes += payload.len() as u64;
    let applied = apply_stale(client, cache_id, version, payload);
    stats.stale_patches += u64::from(applied);
    applied
}

fn apply_stale(client: &mut ClientNode, cache_id: u64, version: u64, payload: &[u8]) -> bool {
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
    let take_server: Vec<bool> = cache
        .sync
        .iter()
        .map(|rec| rec.probe(&state.heap) == Probe::Clean)
        .collect();
    let (codec, heap) = (&mut state.codec, &mut state.heap);
    let overwrite = &mut |pos: u32| take_server[pos as usize];
    let applied = codec.apply_delta(DeltaKind::Patch, payload, heap, &sync_ids, overwrite);
    // Re-record the positions the patch may have written at their
    // post-patch versions: the server's writes must not classify as OUR
    // dirty state on the next request delta (see [`SyncRecord`]).
    let recorded = applied.map_err(NrmiError::from).and_then(|applied| {
        for (rec, _) in cache.sync.iter_mut().zip(&take_server).filter(|(_, t)| **t) {
            rec.version = state.heap.version_if_live(rec.id).unwrap_or(rec.version);
        }
        for &id in &applied.new_objects {
            cache.sync.push(SyncRecord::of(&state.heap, id)?);
        }
        Ok(())
    });
    match recorded {
        Ok(()) => {
            cache.stale_version = version;
            true
        }
        Err(_) => {
            warm.caches.remove(&service);
            false
        }
    }
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

        // Classify every synchronized position. The sync list is read
        // in place — the cache borrow and the heap borrow are disjoint
        // fields of the client.
        let mut sync_ids = Vec::with_capacity(cache.sync.len());
        let mut freed = Vec::new();
        let mut dirty = Vec::new();
        for (pos, rec) in cache.sync.iter().enumerate() {
            sync_ids.push(rec.id);
            match rec.probe(&state.heap) {
                Probe::Clean => {}
                Probe::Dirty => dirty.push(pos as u32),
                Probe::Freed => freed.push(pos as u32),
            }
        }

        let (codec, heap) = (&mut state.codec, &state.heap);
        let enc = match codec.encode_request_delta(heap, &sync_ids, &freed, &dirty, args) {
            Ok(enc) => enc,
            Err(WireError::NotSerializable { .. }) | Err(WireError::RemoteWithoutHooks { .. }) => {
                // The graph now contains objects a delta cannot carry
                // (e.g. remote stubs). Retire the session and run cold.
                client_evict_warm(client, transport, service)?;
                return client_invoke_with_stats(client, transport, service, method, args, opts)
                    .map(Some);
            }
            Err(e) => return Err(e.into()),
        };
        let objects = enc.stats.new_count + enc.stats.dirty_count;
        stats.request_objects += objects;
        stats.request_bytes += enc.bytes.len();
        client.state.work.calls += 1;
        client.state.work.encode(objects, enc.bytes.len());

        let target = CallTarget::Session {
            service,
            cache_id,
            generation,
        };
        transport.send(&target.frame(method, opts, enc.bytes))?;

        let collected = client_collect_reply(client, transport, None, Some(cache_id), &mut stats);
        if matches!(collected, Ok(Collected::Miss) | Err(NrmiError::Remote(_))) {
            // Out of step, or the call failed remotely: the server has
            // dropped its entry, so drop ours.
            client.warm.caches.remove(service);
        }
        let payload = match collected? {
            Collected::Reply(payload) => payload,
            Collected::Miss => return Ok(None),
            Collected::Stale { version, payload } => {
                // The server repaired our stale view in place instead of
                // discarding the session: apply the patch and re-issue at
                // the SAME generation (no call executed server-side).
                client_apply_stale(client, cache_id, version, &payload, &mut stats);
                continue;
            }
        };

        // Both sides advanced their sync lists identically across the
        // request delta; the reply is relative to that advanced list.
        let mut sync = next_sync(&sync_ids, &freed, &enc.new_objects);
        let order = ReplyOrder::List(&sync);
        let applied = apply_reply_payload(&mut client.state, order, &payload, &mut stats)?;
        match applied.delta_new {
            Some(new_objects) => {
                sync.extend_from_slice(&new_objects);
                let sync = record_sync(&client.state.heap, &sync)?;
                // A pushed patch may have retired the session while this
                // call was in flight; the call still completed.
                if let Some(cache) = client.warm.caches.get_mut(service) {
                    cache.generation += 1;
                    cache.sync = sync;
                }
            }
            // The server fell back to a full reply and dropped its
            // entry: retire the session so the next call reseeds.
            None => {
                client.warm.caches.remove(service);
            }
        }
        return Ok(Some((applied.value, stats)));
    }
    // MAX_STALE_RETRIES consecutive patches without a completed call: a
    // write-heavy peer is outpacing the repairs. Evict and run this call
    // cold; the next call reseeds a fresh session.
    client_evict_warm(client, transport, service)?;
    client_invoke_with_stats(client, transport, service, method, args, opts).map(Some)
}

/// Generation 0: the cold `copy_restore_delta` call in a session
/// envelope. When the server answers with a delta it kept the graph;
/// the call's linear map, extended by the objects the reply introduced,
/// becomes the sync list. A full reply means the server could not
/// encode a delta and established no cache: the next invocation seeds
/// again.
fn seed_call(
    client: &mut ClientNode,
    transport: &mut dyn Transport,
    service: &str,
    method: &str,
    args: &[Value],
) -> Result<(Value, CallStats), NrmiError> {
    let cache_id = client.warm.fresh_id();
    let target = CallTarget::Session {
        service,
        cache_id,
        generation: 0,
    };
    let opts = CallOptions::copy_restore_delta();
    let (applied, pending) = client_invoke_target(client, transport, target, method, args, opts)?;
    if let Some(new_objects) = applied.delta_new {
        let mut sync_ids = pending.client_map.order().to_vec();
        sync_ids.extend_from_slice(&new_objects);
        client.warm.caches.insert(
            service.to_owned(),
            ClientWarmCache {
                cache_id,
                generation: 1,
                sync: record_sync(&client.state.heap, &sync_ids)?,
                stale_version: 0,
            },
        );
    }
    Ok((applied.value, pending.stats))
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
/// mirrored by every [`WarmCaches`] built over it
/// ([`with_leases`](WarmCaches::with_leases)), so an orderly eviction can
/// free exactly the objects no OTHER session still reads — one client
/// disconnecting no longer poisons a second client's warm session by
/// freeing the shared graph out from under it.
///
/// The table is a refcount per object and equals, at all times, the
/// multiset union of the live entries' sync lists — an entry checked
/// out for a call included. Two invariants keep that exact: a sync list
/// never repeats an id (it is a linear-map order, extended only by
/// objects it did not hold), and [`WarmCaches`] moves an entry's lease
/// by exactly its sync list's change: the whole list when an entry is
/// created or dropped, and only the retired and appended ids when a call
/// or repair advances it. A steady warm call therefore touches the
/// table in proportion to what moved, not to the graph.
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
}

/// The warm caches of one server connection. Each connection owns its
/// own set (created by the serve loop), so a client can only ever
/// address caches it seeded itself. Every set coordinates evictions
/// through a [`LeaseTable`]: connections serving one node share the
/// node's ([`with_leases`](WarmCaches::with_leases)); a set standing
/// alone gets a private one ([`new`](WarmCaches::new)).
#[derive(Debug)]
pub struct WarmCaches {
    entries: HashMap<u64, ServerWarmEntry>,
    leases: Arc<TrackedMutex<LeaseTable>>,
}

impl Default for WarmCaches {
    fn default() -> Self {
        WarmCaches::new()
    }
}

impl WarmCaches {
    /// Creates an empty cache set over a fresh private lease table: the
    /// sole owner of whatever it caches.
    pub fn new() -> Self {
        WarmCaches::with_leases(new_lease_table())
    }

    /// Creates an empty cache set registered with a node's lease table
    /// (normally [`ServerNode::leases`]). All cache sets serving the
    /// same node must share one table for eviction safety.
    pub fn with_leases(leases: Arc<TrackedMutex<LeaseTable>>) -> Self {
        WarmCaches {
            entries: HashMap::new(),
            leases,
        }
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

    /// Every live session's sync list. Exposed so checkers can audit the
    /// lease table against the sessions it mirrors.
    pub fn sync_lists(&self) -> impl Iterator<Item = &[ObjId]> {
        self.entries.values().map(|e| e.sync.as_slice())
    }

    /// Checks an entry out for a call or a repair: out of the set, its
    /// lease kept. It comes back through [`commit`](Self::commit), or
    /// its call failed and it is [`release`](Self::release)d.
    fn check_out(&mut self, cache_id: u64) -> Option<ServerWarmEntry> {
        self.entries.remove(&cache_id)
    }

    /// Releases a dropped entry's whole lease.
    fn release(&self, entry: &ServerWarmEntry) {
        self.leases.lock().unregister(&entry.sync);
    }

    /// Puts an entry (back) into the set, its lease moved by its sync
    /// list's change only: the `retired` ids drop out, and the last
    /// `added` ids of its list come in. A new entry is all `added`.
    fn commit(&mut self, cache_id: u64, entry: ServerWarmEntry, retired: &[ObjId], added: usize) {
        {
            let mut table = self.leases.lock();
            table.unregister(retired);
            table.register(&entry.sync[entry.sync.len() - added..]);
        }
        self.entries.insert(cache_id, entry);
    }

    /// Handles a client eviction notice: frees the cached graph. The
    /// notice asserts the client is done with the session graph (the
    /// warm twin of a DGC clean); slots already freed or never seeded
    /// are ignored.
    pub fn evict(&mut self, heap: &mut Heap, cache_id: u64) {
        let Some(entry) = self.check_out(cache_id) else {
            return;
        };
        self.release(&entry);
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
        // Free only what no OTHER session still covers: on a shared
        // node, a second client's warm session may read the same graph,
        // and freeing it here would dangle that session's handles (the
        // evict-on-disconnect bug the table exists to fix). Objects left
        // covered are freed by whichever eviction drops the last lease.
        let table = self.leases.lock();
        for id in entry.sync {
            if !table.is_covered(id) {
                let _ = heap.free(id);
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

/// The tail of every repair of a checked-out entry, on the reply path
/// and the push path alike: the session grows by the objects the patch
/// ships, is revalidated at the current heap state (same generation —
/// no call executed) under a bumped revalidation version, is committed
/// back into the cache set, and the patch travels as `CacheStale`.
fn publish_patch(
    state: &mut NodeState,
    caches: &mut WarmCaches,
    cache_id: u64,
    mut entry: ServerWarmEntry,
    patch: EncodedDelta,
) -> Frame {
    let objects = patch.stats.dirty_count + patch.stats.new_count;
    state.work.encode(objects, patch.bytes.len());
    entry.sync.extend_from_slice(&patch.new_objects);
    entry.versions = versions_of(
        &state.heap,
        &entry.sync,
        std::mem::take(&mut entry.versions),
    );
    entry.version += 1;
    let version = entry.version;
    caches.commit(cache_id, entry, &[], patch.new_objects.len());
    Frame::CacheStale {
        cache_id,
        version,
        payload: patch.bytes,
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
    let state = &mut server.state;
    let mut out = Vec::new();
    // Only incoherent entries need the mutable pass; when every session
    // is clean (the steady state) this collects nothing and allocates
    // nothing.
    let ids: Vec<u64> = caches
        .entries
        .iter()
        .filter(|(_, entry)| !coherent(&state.heap, entry))
        .map(|(&id, _)| id)
        .collect();
    for cache_id in ids {
        let entry = &caches.entries[&cache_id];
        match classify(&state.heap, entry) {
            Staleness::Clean => {}
            Staleness::Dirty(dirty) => {
                // Unencodable (e.g. a dangling edge) or splicing: leave
                // the entry stale; the next warm call meets it through
                // the same classification.
                let (codec, heap) = (&mut state.codec, &state.heap);
                match codec.encode_delta(DeltaKind::Patch, heap, &entry.sync, &[], &dirty, &[]) {
                    Ok(patch) if patch.new_objects.is_empty() => {
                        let entry = caches.check_out(cache_id).expect("present above");
                        out.push(publish_patch(state, caches, cache_id, entry, patch));
                    }
                    _ => {}
                }
            }
            Staleness::Lost => {
                let entry = caches.check_out(cache_id).expect("present above");
                caches.release(&entry);
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
    if generation == 0 {
        // A seed: the cold delta-reply call, whose order is kept as the
        // session's entry. A full reply — the result graph could not
        // travel as a delta — establishes no cache.
        let callee = Callee::Named(service);
        let called = server_call(server, transport, method, callee, mode_byte, payload);
        return reply_frame(called.map(|(replied, map)| {
            if let Some(new_objects) = replied.delta_new {
                let mut sync = map.order().to_vec();
                sync.extend_from_slice(&new_objects);
                let added = sync.len();
                let entry = ServerWarmEntry {
                    generation: 1,
                    versions: versions_of(&server.state.heap, &sync, Vec::new()),
                    sync,
                    version: 0,
                };
                caches.commit(cache_id, entry, &[], added);
            }
            replied.payload
        }));
    }
    // Check the entry out up front: every non-success path below must
    // leave it dropped and its lease released (the client drops its side
    // symmetrically); only a completed call or an in-place repair
    // commits it back.
    let Some(entry) = caches.check_out(cache_id) else {
        return Frame::CacheMiss;
    };
    if entry.generation != generation {
        caches.release(&entry);
        return Frame::CacheMiss;
    }
    match classify(&server.state.heap, &entry) {
        Staleness::Clean => {}
        Staleness::Dirty(dirty) => {
            // Out-of-band writes, but every synchronized object is still
            // alive: repair the session in place with a targeted patch
            // instead of discarding it. Merge rule: the patch excludes
            // positions this request itself rewrites or frees — the
            // client's slots are already on the wire and win at object
            // granularity; patching them back would silently undo the
            // client's mutation. If the request covers every dirty
            // position (or the payload is malformed — the call path
            // below surfaces the authoritative error), fall through to
            // the call.
            if let Ok(peeked) = peek_delta(DeltaKind::Request, payload, &entry.sync) {
                let patch: Vec<u32> = dirty
                    .iter()
                    .copied()
                    .filter(|&p| !peeked.touches(p))
                    .collect();
                if !patch.is_empty() {
                    // Encode failures (a dirty object grew a dangling
                    // edge into a freed neighbor, or now references
                    // something a patch cannot carry) degrade to the
                    // legacy drop: entry released, unfreed, `CacheMiss`.
                    let state = &mut server.state;
                    let (codec, heap, sync) = (&mut state.codec, &state.heap, &entry.sync);
                    return match codec.encode_delta(DeltaKind::Patch, heap, sync, &[], &patch, &[])
                    {
                        Ok(patch) => publish_patch(state, caches, cache_id, entry, patch),
                        Err(_) => {
                            caches.release(&entry);
                            Frame::CacheMiss
                        }
                    };
                }
            }
        }
        Staleness::Lost => {
            // Freed or recycled out-of-band: nothing to patch against.
            // Drop without freeing (the out-of-band activity proves
            // server state aliases the graph).
            caches.release(&entry);
            return Frame::CacheMiss;
        }
    }
    reply_frame(server_warm_call(
        server, caches, transport, service, method, cache_id, entry, payload,
    ))
}

/// A warm call proper: runs the call ([`run_warm_call`]) and commits the
/// checked-out entry at its advanced sync list. A failed call or a full
/// reply releases the entry instead (the client retires its side on
/// seeing either).
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
) -> Result<Vec<u8>, NrmiError> {
    let (replied, applied, mut sync) =
        match run_warm_call(server, transport, service, method, &entry.sync, payload) {
            Ok(called) => called,
            Err(e) => {
                caches.release(&entry);
                return Err(e);
            }
        };
    let Some(reply_new) = &replied.delta_new else {
        caches.release(&entry);
        return Ok(replied.payload);
    };
    let retired: Vec<ObjId> = applied
        .freed_positions
        .iter()
        .map(|&pos| entry.sync[pos as usize])
        .collect();
    sync.extend_from_slice(reply_new);
    entry.versions = versions_of(&server.state.heap, &sync, entry.versions);
    entry.sync = sync;
    entry.generation += 1;
    let added = applied.new_objects.len() + reply_new.len();
    caches.commit(cache_id, entry, &retired, added);
    Ok(replied.payload)
}

/// Applies a warm request delta to the cached graph `sync` and invokes
/// and replies against the advanced sync list, which it returns with
/// the reply and what the delta did.
fn run_warm_call(
    server: &mut ServerNode,
    transport: &mut dyn Transport,
    service: &str,
    method: &str,
    sync: &[ObjId],
    payload: &[u8],
) -> Result<(Replied, AppliedDelta, Vec<ObjId>), NrmiError> {
    let ServerNode {
        state,
        services,
        class_services,
        ..
    } = server;
    let (svc, receiver) = resolve_callee(services, class_services, state, Callee::Named(service))?;

    let (codec, heap) = (&mut state.codec, &mut state.heap);
    let applied = codec.apply_delta(DeltaKind::Request, payload, heap, sync, &mut |_| true)?;
    state.work.dispatches += 1;
    let objects = applied.stats.dirty_count + applied.stats.new_count;
    state.work.decode(objects, payload.len());
    let next = next_sync(sync, &applied.freed_positions, &applied.new_objects);
    // The mark: everything the call writes from here on is stamped above
    // it.
    let delta_since = Some(state.heap.epoch());
    let replied = invoke_and_reply(
        state,
        svc,
        transport,
        Invocation {
            method,
            receiver,
            args: &applied.roots,
            opts: CallOptions::copy_restore_delta(),
            order: ReplyOrder::List(&next),
            delta_since,
        },
    )?;
    Ok((replied, applied, next))
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
        fn recv_timeout(&mut self, _timeout: std::time::Duration) -> nrmi_transport::Result<Frame> {
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
        fn recv_timeout(&mut self, _timeout: std::time::Duration) -> nrmi_transport::Result<Frame> {
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
        let seed = |conn: &mut WarmCaches, cache_id, sync: Vec<ObjId>| {
            let entry = ServerWarmEntry {
                generation: 1,
                versions: versions_of(&heap, &sync, Vec::new()),
                version: 0,
                sync,
            };
            let added = entry.sync.len();
            conn.commit(cache_id, entry, &[], added);
        };
        seed(&mut conn_a, 1, vec![x, y, shared]);
        seed(&mut conn_b, 2, vec![z, shared]);
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
            client
                .state
                .heap
                .get_field(leak_root, "data")
                .expect("live"),
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

    /// The allocation stamp, not the class, says whether a position
    /// still holds the object it recorded: a slot freed and recycled for
    /// an object of the same class is a stranger, not a dirty original.
    #[test]
    fn recycled_slot_of_the_same_class_probes_as_freed() {
        let mut reg = ClassRegistry::new();
        let cell = reg.define("Cell").field_int("data").restorable().register();
        let mut heap = Heap::new(reg.snapshot());
        let original = heap.alloc(cell, vec![Value::Int(1)]).expect("alloc");
        let rec = SyncRecord::of(&heap, original).expect("live");
        assert_eq!(rec.probe(&heap), Probe::Clean);
        heap.set_field(original, "data", Value::Int(2))
            .expect("live");
        assert_eq!(rec.probe(&heap), Probe::Dirty);

        heap.free(original).expect("live");
        assert_eq!(rec.probe(&heap), Probe::Freed);
        let stranger = heap.alloc(cell, vec![Value::Int(3)]).expect("alloc");
        assert_eq!(stranger.index(), original.index(), "slot recycled");
        assert_eq!(rec.probe(&heap), Probe::Freed);
    }

    /// A pushed patch can also race a *cold* call's reply (a push left
    /// queued behind an abandoned warm call, say). The one receive loop
    /// applies it and accounts for it exactly as it does while a warm
    /// call waits.
    #[test]
    fn cold_call_counts_the_pushed_patch_it_consumes() {
        let (mut client, mut link, leak_root, poke_root) = world();
        call(&mut client, &mut link, "leak", leak_root);

        let cache_id = client.warm.cache_id("leak").expect("warm");
        let server_root = link.caches.sync_ids_of(cache_id).expect("live")[0];
        link.server
            .state
            .heap
            .set_field(server_root, "data", Value::Int(77))
            .expect("live");
        let pushes = collect_stale_pushes(&mut link.server, &mut link.caches);
        let [Frame::CacheStale { payload, .. }] = &pushes[..] else {
            panic!("one pure patch expected, got {pushes:?}");
        };
        let patch_bytes = payload.len();
        link.replies.extend(pushes);

        let cold = |client: &mut ClientNode, link: &mut Link| {
            let args = [Value::Ref(poke_root)];
            client_invoke_with_stats(client, link, "poke", "run", &args, CallOptions::auto())
                .expect("cold call")
                .1
        };
        let raced = cold(&mut client, &mut link);
        let plain = cold(&mut client, &mut link);
        assert_eq!(raced.stale_patches, 1, "the consumed push is counted");
        assert_eq!(plain.stale_patches, 0);
        assert_eq!(raced.reply_bytes, plain.reply_bytes + patch_bytes);
        assert_eq!(
            client
                .state
                .heap
                .get_field(leak_root, "data")
                .expect("live"),
            Value::Int(77),
            "and applied to the idle session's graph"
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
        assert!(!apply_stale(&mut client, cache_id, 1, b"garbage"));
        assert_eq!(client.warm.cache_id("leak"), Some(cache_id));
        assert_eq!(
            client
                .state
                .heap
                .get_field(leak_root, "data")
                .expect("live"),
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
        let server_root = link
            .caches
            .sync_ids_of(client.warm.cache_id("leak").expect("warm"))
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
        assert_eq!(
            s.stale_patches, 0,
            "no repair patch for a position the delta rewrites"
        );
        assert_eq!(
            client
                .state
                .heap
                .get_field(leak_root, "data")
                .expect("live"),
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

        let server_root = link
            .caches
            .sync_ids_of(client.warm.cache_id("leak").expect("warm"))
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
            client
                .state
                .heap
                .get_field(leak_root, "data")
                .expect("live"),
            Value::Int(400)
        );
    }

    /// Two warm sessions, on services `a` and `b` of one node, over one
    /// service body whose method says what the call does to its root
    /// `Node`: `splice` links a fresh node under `left` and the node-wide
    /// shared node under `right` (reply-new objects, the shared one in
    /// both sessions), `fail` throws, `attach` links a remote-marked
    /// object (a delta cannot carry it: the full reply), anything else
    /// reads. Each client root heads a three-node chain down `left`.
    fn lease_world() -> (ClientNode, Link, nrmi_heap::ClassId, [ObjId; 2]) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node")
            .field_int("data")
            .field_ref("left")
            .field_ref("right")
            .restorable()
            .register();
        let device = reg.define("Device").field_str("name").remote().register();
        let registry = reg.snapshot();
        let shared: Arc<Mutex<Option<ObjId>>> = Arc::default();
        let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
        for name in ["a", "b"] {
            let shared = Arc::clone(&shared);
            let body = move |method: &str, args: &[Value], heap: &mut dyn HeapAccess| {
                let root = args[0]
                    .as_ref_id()
                    .ok_or_else(|| NrmiError::app("want a ref"))?;
                let leaf = |data| vec![Value::Int(data), Value::Null, Value::Null];
                match method {
                    "fail" => return Err(NrmiError::app("planted failure")),
                    "attach" => {
                        let dev = heap.alloc_raw(device, vec![Value::Str("lp0".into())])?;
                        heap.set_field(root, "right", Value::Ref(dev))?;
                    }
                    "splice" => {
                        let fresh = heap.alloc_raw(node, leaf(7))?;
                        heap.set_field(root, "left", Value::Ref(fresh))?;
                        let mut shared = shared.lock().expect("poisoned");
                        let id = match *shared {
                            Some(id) => id,
                            None => *shared.insert(heap.alloc_raw(node, leaf(9))?),
                        };
                        heap.set_field(root, "right", Value::Ref(id))?;
                    }
                    _ => {}
                }
                Ok(heap.get_field(root, "data")?)
            };
            server.bind(name, Box::new(FnService::new(body)));
        }
        let caches = WarmCaches::with_leases(Arc::clone(&server.leases));
        let mut client = ClientNode::new(registry, MachineSpec::fast());
        let heap = &mut client.state.heap;
        let mut chain = |data| {
            let mut left = Value::Null;
            for i in (0..3).rev() {
                let id = heap.alloc(node, vec![Value::Int(data + i), left, Value::Null]);
                left = Value::Ref(id.expect("alloc"));
            }
            left.as_ref_id().expect("built")
        };
        let roots = [chain(10), chain(20)];
        let link = Link {
            server,
            caches,
            replies: VecDeque::new(),
        };
        (client, link, node, roots)
    }

    /// Checks the lease table against the sessions it mirrors: each id
    /// counts the live entries whose sync list holds it, and nothing
    /// else is leased. Returns those counts.
    fn assert_leases_exact(caches: &WarmCaches) -> HashMap<ObjId, usize> {
        let mut want: HashMap<ObjId, usize> = HashMap::new();
        for sync in caches.sync_lists() {
            for &id in sync {
                *want.entry(id).or_default() += 1;
            }
        }
        let table = caches.leases.lock();
        for (&id, &count) in &want {
            assert_eq!(table.cover_count(id), count, "cover count of {id}");
        }
        assert_eq!(table.covered_len(), want.len(), "only live sessions lease");
        want
    }

    fn warm(client: &mut ClientNode, link: &mut Link, service: &str, method: &str, root: ObjId) {
        client_invoke_warm_with_stats(client, link, service, method, &[Value::Ref(root)])
            .expect("warm call");
    }

    /// The server-side object at position `pos` of `service`'s session.
    fn server_obj(client: &ClientNode, link: &Link, service: &str, pos: usize) -> ObjId {
        let cache_id = client.warm.cache_id(service).expect("warm");
        link.caches.sync_ids_of(cache_id).expect("live")[pos]
    }

    /// Warm calls move each lease by exactly the sync list's change: the
    /// client's pruned positions drop out, and the objects spliced in by
    /// the request, by the reply and by a repair patch come in — one of
    /// them, the node-wide shared node, into both sessions.
    #[test]
    fn leases_follow_the_sync_lists_change() {
        let (mut client, mut link, node, [a, b]) = lease_world();
        let heap = &mut client.state.heap;
        let l1 = heap.get_ref(a, "left").expect("live").expect("chain");
        let l2 = heap.get_ref(l1, "left").expect("live").expect("chain");
        warm(&mut client, &mut link, "a", "splice", a);
        warm(&mut client, &mut link, "b", "splice", b);
        let counts = assert_leases_exact(&link.caches);
        assert!(
            counts.values().any(|&c| c == 2),
            "one node in both sessions"
        );

        // Client side: free the chain the reply detached (freed
        // positions) and link a new node under the spliced-in one
        // (request-new); the server splices again (reply-new).
        let heap = &mut client.state.heap;
        heap.free(l2).expect("live");
        heap.free(l1).expect("live");
        let spliced = heap.get_ref(a, "left").expect("live").expect("spliced");
        let fresh = heap
            .alloc(node, vec![Value::Int(3), Value::Null, Value::Null])
            .expect("alloc");
        heap.set_field(spliced, "left", Value::Ref(fresh))
            .expect("live");
        let (gen, len) = (client.warm.generation("a"), client.warm.sync_len("a"));
        warm(&mut client, &mut link, "a", "splice", a);
        assert_eq!(client.warm.generation("a"), gen.map(|g| g + 1), "ran warm");
        assert_eq!(client.warm.sync_len("a"), len.map(|n| n - 2 + 1 + 1));
        assert_leases_exact(&link.caches);

        // A repair patch that splices: an out-of-band link under b's
        // spliced node travels as a `CacheStale` with one new object.
        let server_root = server_obj(&client, &link, "b", 0);
        let heap = &mut link.server.state.heap;
        let spliced = heap
            .get_ref(server_root, "left")
            .expect("live")
            .expect("spliced");
        let patched = heap
            .alloc(node, vec![Value::Int(4), Value::Null, Value::Null])
            .expect("alloc");
        heap.set_field(spliced, "left", Value::Ref(patched))
            .expect("live");
        let (gen, len) = (client.warm.generation("b"), client.warm.sync_len("b"));
        let (_, stats) = call(&mut client, &mut link, "b", b);
        assert_eq!(stats.stale_patches, 1, "repaired, then ran");
        assert_eq!(client.warm.generation("b"), gen.map(|g| g + 1));
        assert_eq!(client.warm.sync_len("b"), len.map(|n| n + 1));
        assert_leases_exact(&link.caches);
    }

    /// Every way a warm call fails releases the failed entry's whole
    /// lease and nothing else: a generation mismatch, a `Lost` entry met
    /// by its own call and by another session's push scan, a repair
    /// patch that cannot be encoded, a service error and a full-reply
    /// fallback each leave exactly the surviving sessions' leases.
    #[test]
    fn failed_warm_calls_leave_exactly_the_surviving_leases() {
        let (mut client, mut link, _, [a, b]) = lease_world();
        warm(&mut client, &mut link, "a", "splice", a);
        warm(&mut client, &mut link, "b", "splice", b);
        let reseeded = |client: &ClientNode, service, before| {
            client
                .warm
                .cache_id(service)
                .is_some_and(|id| Some(id) != before)
        };

        // Generation mismatch: b misses and reseeds.
        let b_id = client.warm.cache_id("b");
        let entry = link.caches.entries.get_mut(&b_id.expect("warm"));
        entry.expect("live").generation += 1;
        warm(&mut client, &mut link, "b", "read", b);
        assert!(reseeded(&client, "b", b_id));
        assert_leases_exact(&link.caches);

        // Lost, met by a's own call: a synchronized object of a's is
        // unlinked and freed out of band; a misses and reseeds.
        let lose = |client: &ClientNode, link: &mut Link, service| {
            let root = server_obj(client, link, service, 0);
            let heap = &mut link.server.state.heap;
            let child = heap.get_ref(root, "left").expect("live").expect("spliced");
            heap.set_field(root, "left", Value::Null).expect("live");
            heap.free(child).expect("live");
        };
        let a_id = client.warm.cache_id("a");
        lose(&client, &mut link, "a");
        warm(&mut client, &mut link, "a", "read", a);
        assert!(reseeded(&client, "a", a_id));
        assert_leases_exact(&link.caches);

        // Lost, met by the push scan after a's warm call.
        let b_id = client.warm.cache_id("b");
        lose(&client, &mut link, "b");
        warm(&mut client, &mut link, "a", "read", a);
        assert_eq!(link.caches.generation_of(b_id.expect("warm")), None);
        assert_leases_exact(&link.caches);
        warm(&mut client, &mut link, "b", "read", b);
        assert!(reseeded(&client, "b", b_id));
        assert_leases_exact(&link.caches);

        // A repair patch that cannot travel: an out-of-band write links
        // a remote-marked object under a's root; a misses and reseeds.
        let a_id = client.warm.cache_id("a");
        let root = server_obj(&client, &link, "a", 0);
        let heap = &mut link.server.state.heap;
        let device = heap.registry_handle().by_name("Device").expect("Device");
        let dev = heap
            .alloc(device, vec![Value::Str("lp1".into())])
            .expect("alloc");
        heap.set_field(root, "right", Value::Ref(dev))
            .expect("live");
        warm(&mut client, &mut link, "a", "read", a);
        assert!(reseeded(&client, "a", a_id));
        assert_leases_exact(&link.caches);

        // A service error retires b on both sides.
        let args = [Value::Ref(b)];
        client_invoke_warm_with_stats(&mut client, &mut link, "b", "fail", &args)
            .expect_err("planted failure");
        assert_eq!(client.warm.cache_id("b"), None);
        assert_eq!(link.caches.len(), 1);
        assert_leases_exact(&link.caches);

        // A full-reply fallback retires a; b, reseeded, survives it.
        warm(&mut client, &mut link, "b", "read", b);
        warm(&mut client, &mut link, "a", "attach", a);
        assert_eq!(client.warm.cache_id("a"), None);
        assert_eq!(link.caches.len(), 1);
        assert_leases_exact(&link.caches);
    }
}
