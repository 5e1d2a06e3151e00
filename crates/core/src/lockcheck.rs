//! Lock-discipline witness: lockdep-style instrumentation for the
//! fine-grained server's locks (DESIGN.md §3i).
//!
//! PR 5 and PR 7 replaced the one-big-lock server with dozens of small
//! `Mutex`/`RwLock` sites whose safety rests on *unchecked* cross-thread
//! invariants: no lock held across transport I/O, a consistent
//! acquisition order between lock domains, no same-class re-entry. This
//! module makes those invariants observable. Every lock in the server
//! stack is a [`TrackedMutex`]/[`TrackedRwLock`] carrying a named
//! [`LockClass`]; in default builds the wrappers are inlined
//! passthroughs to `parking_lot`, and under the `lockcheck` cargo
//! feature every acquisition and release feeds a process-global
//! **witness**:
//!
//! * a per-thread *held-lock stack*, consulted by the transport's
//!   [`blocking_region`](nrmi_transport::blocking) markers — entering a
//!   blocking transport operation with any tracked lock held is
//!   recorded (`NRMI-L002`), unless an [`allow_blocking`] scope with a
//!   documented reason is active;
//! * a global *acquisition-order graph* over lock classes — acquiring
//!   class B while holding class A records the edge `A → B` with a
//!   thread/stack witness, so a cycle proves two code paths that could
//!   deadlock even when no run ever did (`NRMI-L001`, the lockdep
//!   idea);
//! * *re-entry* records — acquiring a class already held exclusively by
//!   the same thread (`NRMI-L003`), which self-deadlocks on the same
//!   instance and is order-ambiguous across instances;
//! * *hold-time watermarks* — the longest exclusive hold per class,
//!   gated against [`HOT_HOLD_WATERMARK`] for the hot-path classes
//!   every call touches (`NRMI-L004`).
//!
//! The analysis and diagnostics rendering live in
//! `nrmi-check::lockcheck`; this module only records. The witness is
//! deliberately class-granular (not per-instance): the server's
//! discipline is stated in terms of domains — "no shard lock is ever
//! held across execution", "the service mutex is the only lock held
//! during an invocation" — and class edges are what make those
//! statements checkable with a handful of nodes.

use std::fmt;
use std::time::Duration;

#[cfg(feature = "lockcheck")]
use std::cell::RefCell;
#[cfg(feature = "lockcheck")]
use std::collections::HashMap;
#[cfg(feature = "lockcheck")]
use std::ops::{Deref, DerefMut};
#[cfg(feature = "lockcheck")]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(feature = "lockcheck")]
use std::time::Instant;

/// The named lock domains of the fine-grained server. One class per
/// *role*, not per instance: the 16 reply-cache shards are one class,
/// every per-service mutex is one class. The discipline invariants
/// (and their L-code diagnostics) are stated over these names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockClass {
    /// A service binding's invocation mutex (`SharedServer` bindings) —
    /// the §4.1 `synchronized`-dispatch analogue, held for the duration
    /// of one invocation *including mid-call callbacks* (a documented
    /// [`allow_blocking`] scope).
    Service,
    /// The big-lock baseline's `Mutex<ServerNode>` (and the root node
    /// state kept aside by `SharedServer`): one lock over a whole
    /// node's heap, exports, and codec scratch.
    NodeHeap,
    /// One shard of the at-most-once [`ShardedReplyCache`]
    /// (`crate::server`): hot-path, never held across call execution.
    ReplyCacheShard,
    /// The read-mostly name→service / class→service binding table.
    Bindings,
    /// A shared worker job-queue receiver (the reactor pool's and the
    /// pipelined loop's `Mutex<Receiver<_>>`): held *across* the
    /// blocking channel receive by design, so idle workers take turns.
    ReactorQueue,
    /// State guarding the reply send path: the pipelined writer
    /// thread's error slot.
    SendQueue,
    /// Serve-pool control plane: worker/escalation join-handle lists
    /// and the accept-error slot.
    Control,
    /// The warm-cache coherence lease table (`SharedServer`): which
    /// holder has which graph objects warm-cached, consulted on every
    /// warm call's revalidation and on connection teardown. Never held
    /// across call execution or transport I/O.
    LeaseTable,
}

impl LockClass {
    /// Every class, in a stable order (used for snapshot iteration).
    pub const ALL: [LockClass; 8] = [
        LockClass::Service,
        LockClass::NodeHeap,
        LockClass::ReplyCacheShard,
        LockClass::Bindings,
        LockClass::ReactorQueue,
        LockClass::SendQueue,
        LockClass::Control,
        LockClass::LeaseTable,
    ];

    /// Stable lowercase name used in diagnostics and reports.
    pub fn name(self) -> &'static str {
        match self {
            LockClass::Service => "service",
            LockClass::NodeHeap => "node-heap",
            LockClass::ReplyCacheShard => "reply-cache-shard",
            LockClass::Bindings => "bindings",
            LockClass::ReactorQueue => "reactor-queue",
            LockClass::SendQueue => "send-queue",
            LockClass::Control => "control",
            LockClass::LeaseTable => "lease-table",
        }
    }

    /// Classes on the per-call hot path, whose holds must stay short:
    /// these are gated against [`HOT_HOLD_WATERMARK`] (`NRMI-L004`).
    /// `Service` is excluded on purpose (an invocation may legitimately
    /// take as long as the application body takes), as are the queue
    /// receivers (idle workers park holding them by design).
    pub fn hot_path(self) -> bool {
        matches!(
            self,
            LockClass::ReplyCacheShard
                | LockClass::Bindings
                | LockClass::SendQueue
                | LockClass::LeaseTable
        )
    }

    #[cfg(feature = "lockcheck")]
    fn index(self) -> usize {
        LockClass::ALL
            .iter()
            .position(|&c| c == self)
            .expect("ALL is exhaustive")
    }
}

impl fmt::Display for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The longest a hot-path class ([`LockClass::hot_path`]) may be held
/// before the witness flags `NRMI-L004`. Generous against scheduler
/// noise on loaded CI machines; the real hot-path holds are
/// microseconds.
pub const HOT_HOLD_WATERMARK: Duration = Duration::from_millis(250);

// ---------------------------------------------------------------------------
// Snapshot data model (always compiled, so the analyzer in nrmi-check
// builds and unit-tests without the feature).
// ---------------------------------------------------------------------------

/// One observed acquisition-order edge: some thread acquired `to` while
/// holding `from`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeRecord {
    /// The class already held.
    pub from: LockClass,
    /// The class acquired under it.
    pub to: LockClass,
    /// How many acquisitions witnessed this edge.
    pub count: u64,
    /// First witness: thread plus the full held stack at the time.
    pub witness: String,
}

/// One observed entry into a blocking transport operation with tracked
/// locks held.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockingRecord {
    /// The transport marker's region name (e.g. `"socket.recv"`).
    pub region: &'static str,
    /// The classes held at entry, innermost last.
    pub held: Vec<LockClass>,
    /// `Some(reason)` when an [`allow_blocking`] scope covered the
    /// entry — an *accepted* hold, reported at info severity with the
    /// reason; `None` is a violation.
    pub allowed: Option<&'static str>,
    /// How many entries matched this record.
    pub count: u64,
    /// First witness: the entering thread.
    pub witness: String,
}

/// One observed same-class re-entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReentrantRecord {
    /// The class acquired while already held by the same thread.
    pub class: LockClass,
    /// How many acquisitions re-entered.
    pub count: u64,
    /// First witness: thread plus held stack.
    pub witness: String,
}

/// Aggregate hold statistics for one class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HoldRecord {
    /// The class.
    pub class: LockClass,
    /// Total completed acquisitions.
    pub acquisitions: u64,
    /// The longest single hold observed.
    pub max_held: Duration,
}

/// Everything the witness recorded, copied out for analysis.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WitnessSnapshot {
    /// The acquisition-order graph, as observed edges between classes.
    pub edges: Vec<EdgeRecord>,
    /// Blocking-region entries with locks held (allowed and not).
    pub blocking: Vec<BlockingRecord>,
    /// Same-class re-entries.
    pub reentrant: Vec<ReentrantRecord>,
    /// Per-class hold statistics (classes with zero acquisitions are
    /// omitted).
    pub holds: Vec<HoldRecord>,
}

impl WitnessSnapshot {
    /// True when nothing at all was recorded (feature off, or no
    /// tracked lock was ever touched).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
            && self.blocking.is_empty()
            && self.reentrant.is_empty()
            && self.holds.is_empty()
    }
}

// ---------------------------------------------------------------------------
// The recording runtime (feature = "lockcheck").
// ---------------------------------------------------------------------------

#[cfg(feature = "lockcheck")]
mod witness {
    use super::*;

    /// Whether an acquisition takes the lock exclusively (mutex lock,
    /// rwlock write) or shared (rwlock read). Shared-after-shared
    /// same-class nesting is not re-entry; anything involving an
    /// exclusive side is.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub(super) enum Kind {
        Shared,
        Exclusive,
    }

    struct HeldEntry {
        class: LockClass,
        kind: Kind,
        id: u64,
        acquired_at: Instant,
    }

    thread_local! {
        static HELD: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
        static ALLOW: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    static NEXT_ID: AtomicU64 = AtomicU64::new(1);

    #[derive(Default)]
    struct HoldAgg {
        acquisitions: u64,
        max_held: Duration,
    }

    #[derive(Default)]
    struct State {
        edges: HashMap<(usize, usize), (u64, String)>,
        blocking: Vec<BlockingRecord>,
        reentrant: Vec<ReentrantRecord>,
        holds: [HoldAgg; LockClass::ALL.len()],
    }

    /// Bounds the deduplicated blocking-record list; a runaway producer
    /// of distinct (region, held-set) pairs stops being recorded rather
    /// than growing without limit.
    const MAX_BLOCKING_RECORDS: usize = 1024;

    fn state() -> &'static std::sync::Mutex<State> {
        static STATE: std::sync::OnceLock<std::sync::Mutex<State>> = std::sync::OnceLock::new();
        STATE.get_or_init(|| std::sync::Mutex::new(State::default()))
    }

    fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> R {
        let mut guard = state().lock().unwrap_or_else(|e| e.into_inner());
        f(&mut guard)
    }

    fn thread_label() -> String {
        let current = std::thread::current();
        match current.name() {
            Some(name) => format!("{name} ({:?})", current.id()),
            None => format!("{:?}", current.id()),
        }
    }

    fn stack_label(held: &[HeldEntry]) -> String {
        let classes: Vec<&str> = held.iter().map(|e| e.class.name()).collect();
        classes.join(" -> ")
    }

    /// Installs the transport blocking hook, once per process. Called
    /// from every tracked-lock constructor, so by the time a tracked
    /// lock can be held the hook is live.
    pub(super) fn ensure_hook() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| nrmi_transport::set_blocking_hook(blocking_hook));
    }

    fn blocking_hook(region: &'static str) {
        let held: Vec<LockClass> = HELD.with(|h| h.borrow().iter().map(|e| e.class).collect());
        if held.is_empty() {
            return;
        }
        let allowed = ALLOW.with(|a| a.borrow().last().copied());
        with_state(|s| {
            if let Some(record) = s
                .blocking
                .iter_mut()
                .find(|r| r.region == region && r.held == held && r.allowed == allowed)
            {
                record.count += 1;
            } else if s.blocking.len() < MAX_BLOCKING_RECORDS {
                s.blocking.push(BlockingRecord {
                    region,
                    held,
                    allowed,
                    count: 1,
                    witness: thread_label(),
                });
            }
        });
    }

    /// Pre-acquisition step: records order edges from every held class
    /// and same-class re-entry, *before* blocking on the lock, so a
    /// real deadlock still leaves its evidence in the witness.
    pub(super) fn on_acquire(class: LockClass, kind: Kind) -> u64 {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        HELD.with(|h| {
            let held = h.borrow();
            if held.is_empty() {
                return;
            }
            let reentered = held.iter().any(|e| {
                e.class == class && (kind == Kind::Exclusive || e.kind == Kind::Exclusive)
            });
            let edges: Vec<(usize, usize)> = held
                .iter()
                .filter(|e| e.class != class)
                .map(|e| (e.class.index(), class.index()))
                .collect();
            if !reentered && edges.is_empty() {
                return;
            }
            let witness = format!("{} holding [{}]", thread_label(), stack_label(&held));
            with_state(|s| {
                for key in edges {
                    let entry = s.edges.entry(key).or_insert_with(|| (0, witness.clone()));
                    entry.0 += 1;
                }
                if reentered {
                    if let Some(r) = s.reentrant.iter_mut().find(|r| r.class == class) {
                        r.count += 1;
                    } else {
                        s.reentrant.push(ReentrantRecord {
                            class,
                            count: 1,
                            witness: witness.clone(),
                        });
                    }
                }
            });
        });
        id
    }

    /// Post-acquisition step: the lock is now held; start its clock.
    pub(super) fn on_acquired(class: LockClass, kind: Kind, id: u64) {
        HELD.with(|h| {
            h.borrow_mut().push(HeldEntry {
                class,
                kind,
                id,
                acquired_at: Instant::now(),
            })
        });
    }

    /// Release step (guard drop): pop the entry by id — guards may be
    /// dropped in any order, so this is a search, not a stack pop — and
    /// fold the hold time into the class aggregate.
    pub(super) fn on_release(id: u64) {
        let entry = HELD.with(|h| {
            let mut held = h.borrow_mut();
            held.iter()
                .rposition(|e| e.id == id)
                .map(|ix| held.remove(ix))
        });
        if let Some(entry) = entry {
            let dur = entry.acquired_at.elapsed();
            with_state(|s| {
                let agg = &mut s.holds[entry.class.index()];
                agg.acquisitions += 1;
                if dur > agg.max_held {
                    agg.max_held = dur;
                }
            });
        }
    }

    pub(super) fn push_allowance(reason: &'static str) {
        ALLOW.with(|a| a.borrow_mut().push(reason));
    }

    pub(super) fn pop_allowance() {
        ALLOW.with(|a| {
            a.borrow_mut().pop();
        });
    }

    pub(super) fn snapshot() -> WitnessSnapshot {
        with_state(|s| WitnessSnapshot {
            edges: {
                let mut edges: Vec<EdgeRecord> = s
                    .edges
                    .iter()
                    .map(|(&(from, to), &(count, ref witness))| EdgeRecord {
                        from: LockClass::ALL[from],
                        to: LockClass::ALL[to],
                        count,
                        witness: witness.clone(),
                    })
                    .collect();
                edges.sort_by_key(|e| (e.from, e.to));
                edges
            },
            blocking: s.blocking.clone(),
            reentrant: s.reentrant.clone(),
            holds: LockClass::ALL
                .iter()
                .filter(|c| s.holds[c.index()].acquisitions > 0)
                .map(|&class| HoldRecord {
                    class,
                    acquisitions: s.holds[class.index()].acquisitions,
                    max_held: s.holds[class.index()].max_held,
                })
                .collect(),
        })
    }

    pub(super) fn reset() {
        with_state(|s| *s = State::default());
    }
}

/// Copies out everything the witness has recorded so far in this
/// process. Always callable; without the `lockcheck` feature the
/// snapshot is empty.
pub fn snapshot() -> WitnessSnapshot {
    #[cfg(feature = "lockcheck")]
    {
        witness::ensure_hook();
        witness::snapshot()
    }
    #[cfg(not(feature = "lockcheck"))]
    WitnessSnapshot::default()
}

/// Clears the global witness (edges, events, hold statistics). Held
/// per-thread stacks are untouched — locks currently held keep
/// recording on release. Intended for self-tests that seed faults and
/// must start from a clean slate.
pub fn reset() {
    #[cfg(feature = "lockcheck")]
    witness::reset();
}

/// Scope guard marking the current thread as *intentionally* allowed to
/// enter blocking transport operations while holding tracked locks.
/// The reason string travels into the witness and surfaces as an
/// info-severity `NRMI-L002` note instead of an error — the suppression
/// mechanism for the two documented designed-in holds (the service
/// mutex across mid-call callbacks, the big-lock baseline).
#[must_use = "the allowance ends when this guard drops"]
pub struct BlockingAllowance {
    _priv: (),
}

/// Opens an [`allow_blocking`] scope on the current thread with a
/// human-auditable reason. Nested scopes stack; the innermost reason
/// wins.
pub fn allow_blocking(reason: &'static str) -> BlockingAllowance {
    #[cfg(feature = "lockcheck")]
    witness::push_allowance(reason);
    #[cfg(not(feature = "lockcheck"))]
    let _ = reason;
    BlockingAllowance { _priv: () }
}

impl Drop for BlockingAllowance {
    fn drop(&mut self) {
        #[cfg(feature = "lockcheck")]
        witness::pop_allowance();
    }
}

// ---------------------------------------------------------------------------
// Tracked lock wrappers.
// ---------------------------------------------------------------------------

/// A [`parking_lot::Mutex`] carrying a [`LockClass`]. Default builds:
/// an inlined passthrough (the class is one byte of storage and zero
/// instructions on lock/unlock). Under `lockcheck`, every acquisition
/// and release reports to the witness.
pub struct TrackedMutex<T: ?Sized> {
    #[cfg_attr(not(feature = "lockcheck"), allow(dead_code))]
    class: LockClass,
    inner: parking_lot::Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Creates a tracked mutex of the given class.
    pub fn new(class: LockClass, value: T) -> Self {
        #[cfg(feature = "lockcheck")]
        witness::ensure_hook();
        TrackedMutex {
            class,
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> TrackedMutex<T> {
    /// Acquires the lock. See [`parking_lot::Mutex::lock`].
    #[cfg(not(feature = "lockcheck"))]
    #[inline]
    pub fn lock(&self) -> parking_lot::MutexGuard<'_, T> {
        self.inner.lock()
    }

    /// Acquires the lock, reporting the acquisition to the witness.
    #[cfg(feature = "lockcheck")]
    pub fn lock(&self) -> TrackedGuard<parking_lot::MutexGuard<'_, T>> {
        let id = witness::on_acquire(self.class, witness::Kind::Exclusive);
        let inner = self.inner.lock();
        witness::on_acquired(self.class, witness::Kind::Exclusive, id);
        TrackedGuard { inner, id }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized> fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("class", &self.class.name())
            .finish_non_exhaustive()
    }
}

/// A [`parking_lot::RwLock`] carrying a [`LockClass`]; see
/// [`TrackedMutex`].
pub struct TrackedRwLock<T: ?Sized> {
    #[cfg_attr(not(feature = "lockcheck"), allow(dead_code))]
    class: LockClass,
    inner: parking_lot::RwLock<T>,
}

impl<T> TrackedRwLock<T> {
    /// Creates a tracked reader-writer lock of the given class.
    pub fn new(class: LockClass, value: T) -> Self {
        #[cfg(feature = "lockcheck")]
        witness::ensure_hook();
        TrackedRwLock {
            class,
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

#[cfg(not(feature = "lockcheck"))]
impl<T: ?Sized> TrackedRwLock<T> {
    /// Acquires a shared read guard.
    #[inline]
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.inner.read()
    }

    /// Acquires an exclusive write guard.
    #[inline]
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.inner.write()
    }
}

#[cfg(feature = "lockcheck")]
impl<T: ?Sized> TrackedRwLock<T> {
    /// Acquires a shared read guard, reporting to the witness.
    pub fn read(&self) -> TrackedGuard<std::sync::RwLockReadGuard<'_, T>> {
        let id = witness::on_acquire(self.class, witness::Kind::Shared);
        let inner = self.inner.read();
        witness::on_acquired(self.class, witness::Kind::Shared, id);
        TrackedGuard { inner, id }
    }

    /// Acquires an exclusive write guard, reporting to the witness.
    pub fn write(&self) -> TrackedGuard<std::sync::RwLockWriteGuard<'_, T>> {
        let id = witness::on_acquire(self.class, witness::Kind::Exclusive);
        let inner = self.inner.write();
        witness::on_acquired(self.class, witness::Kind::Exclusive, id);
        TrackedGuard { inner, id }
    }
}

impl<T: ?Sized> fmt::Debug for TrackedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedRwLock")
            .field("class", &self.class.name())
            .finish_non_exhaustive()
    }
}

/// RAII wrapper around any lock guard: releases the witness entry when
/// dropped. Guards may be dropped in any order; release is by
/// acquisition id, not stack position.
#[cfg(feature = "lockcheck")]
pub struct TrackedGuard<G> {
    inner: G,
    id: u64,
}

#[cfg(feature = "lockcheck")]
impl<G: Deref> Deref for TrackedGuard<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

#[cfg(feature = "lockcheck")]
impl<G: DerefMut> DerefMut for TrackedGuard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

#[cfg(feature = "lockcheck")]
impl<G> Drop for TrackedGuard<G> {
    fn drop(&mut self) {
        witness::on_release(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_mutex_roundtrip() {
        let m = TrackedMutex::new(LockClass::Control, 1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn passthrough_rwlock_roundtrip() {
        let l = TrackedRwLock::new(LockClass::Bindings, 5);
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(l.into_inner(), 6);
    }

    #[test]
    fn class_names_are_stable() {
        for class in LockClass::ALL {
            assert!(!class.name().is_empty());
        }
        assert!(LockClass::ReplyCacheShard.hot_path());
        assert!(LockClass::LeaseTable.hot_path());
        assert!(!LockClass::Service.hot_path());
        assert!(!LockClass::ReactorQueue.hot_path());
    }

    // Witness mechanics are only observable under the feature. These
    // assert *presence* of records, never absence: other tests in this
    // binary run concurrently against the same global witness.
    #[cfg(feature = "lockcheck")]
    mod instrumented {
        use super::*;

        #[test]
        fn nesting_records_an_order_edge() {
            let a = TrackedMutex::new(LockClass::Bindings, ());
            let b = TrackedMutex::new(LockClass::Control, ());
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            let snap = snapshot();
            assert!(
                snap.edges
                    .iter()
                    .any(|e| e.from == LockClass::Bindings && e.to == LockClass::Control),
                "edge bindings->control missing: {:?}",
                snap.edges
            );
        }

        #[test]
        fn same_class_reentry_is_recorded() {
            let a = TrackedMutex::new(LockClass::SendQueue, ());
            let b = TrackedMutex::new(LockClass::SendQueue, ());
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            let snap = snapshot();
            assert!(
                snap.reentrant
                    .iter()
                    .any(|r| r.class == LockClass::SendQueue),
                "re-entry on send-queue missing: {:?}",
                snap.reentrant
            );
        }

        #[test]
        fn read_read_nesting_is_not_reentry() {
            let a = TrackedRwLock::new(LockClass::NodeHeap, ());
            let b = TrackedRwLock::new(LockClass::NodeHeap, ());
            let before: u64 = snapshot()
                .reentrant
                .iter()
                .filter(|r| r.class == LockClass::NodeHeap)
                .map(|r| r.count)
                .sum();
            {
                let _ga = a.read();
                let _gb = b.read();
            }
            let after: u64 = snapshot()
                .reentrant
                .iter()
                .filter(|r| r.class == LockClass::NodeHeap)
                .map(|r| r.count)
                .sum();
            assert_eq!(
                before, after,
                "shared-after-shared must not count as re-entry"
            );
        }

        #[test]
        fn out_of_order_guard_drops_release_cleanly() {
            let a = TrackedMutex::new(LockClass::Control, 1);
            let b = TrackedMutex::new(LockClass::ReactorQueue, 2);
            let ga = a.lock();
            let gb = b.lock();
            drop(ga); // non-LIFO
            drop(gb);
            // Both released: a fresh single acquisition records no edge
            // from either (the held stack is empty again).
            let before = snapshot().edges.len();
            let c = TrackedMutex::new(LockClass::SendQueue, 3);
            let _gc = c.lock();
            drop(_gc);
            assert_eq!(snapshot().edges.len(), before);
        }

        #[test]
        fn holds_are_aggregated_per_class() {
            let m = TrackedMutex::new(LockClass::Control, ());
            drop(m.lock());
            let snap = snapshot();
            let rec = snap
                .holds
                .iter()
                .find(|h| h.class == LockClass::Control)
                .expect("control class acquired at least once");
            assert!(rec.acquisitions >= 1);
        }
    }
}
