//! Blocking-region markers for the lock-discipline witness.
//!
//! Every transport operation that can park the calling thread in the
//! kernel (or on a channel) announces itself through
//! [`blocking_region`] before it blocks. The marker is free in default
//! builds; under the `lockcheck` feature it invokes a process-global
//! hook that the lock instrumentation in `nrmi-core` installs
//! ([`set_blocking_hook`]), which traps the moment a thread enters a
//! blocking transport operation while holding any tracked lock — the
//! `NRMI-L002` discipline from DESIGN.md §3i.
//!
//! The hook lives *here*, one crate below the locks it polices, because
//! the dependency arrow points the other way: `nrmi-core`'s tracked
//! locks can call down into this crate to register themselves, while
//! the socket code here cannot see core's held-lock state directly.
//! This is the same inversion `lockdep` uses between annotation sites
//! and the validator.
//!
//! Marked sites: the framed blocking write ([`crate::framed`]), the
//! blocking receive paths of the socket ([`crate::socket`]) and
//! in-process channel transports, and the reactor's `poll(2)` wait. Non-blocking
//! paths (`try_read_frame`, `SendQueue::flush`, unbounded channel
//! sends) are deliberately unmarked: they cannot park the thread, so
//! holding a lock across them is not an I/O-wait hazard.

/// The hook signature: receives the marker's region name (e.g.
/// `"socket.recv"`). Installed once per process; invoked on *entry* to
/// every marked blocking region, on the blocking thread.
#[cfg(feature = "lockcheck")]
pub type BlockingHook = fn(region: &'static str);

#[cfg(feature = "lockcheck")]
static HOOK: std::sync::OnceLock<BlockingHook> = std::sync::OnceLock::new();

/// Installs the process-global blocking hook. The first installation
/// wins; later calls are ignored (the witness installs one hook, once,
/// lazily). Only compiled under the `lockcheck` feature.
#[cfg(feature = "lockcheck")]
pub fn set_blocking_hook(hook: BlockingHook) {
    let _ = HOOK.set(hook);
}

/// Marks the entry into a blocking transport operation.
///
/// Default builds: a no-op the optimizer erases. Under `lockcheck`: one
/// `OnceLock` load plus the installed hook, which checks the calling
/// thread's held-lock stack and records an `L002` event when it is
/// non-empty (see `nrmi_core::lockcheck`).
#[inline]
pub fn blocking_region(name: &'static str) {
    #[cfg(feature = "lockcheck")]
    if let Some(hook) = HOOK.get() {
        hook(name);
    }
    #[cfg(not(feature = "lockcheck"))]
    let _ = name;
}

#[cfg(all(test, feature = "lockcheck"))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static FIRED: AtomicUsize = AtomicUsize::new(0);

    fn test_hook(_region: &'static str) {
        FIRED.fetch_add(1, Ordering::SeqCst);
    }

    #[test]
    fn hook_fires_on_marked_regions() {
        set_blocking_hook(test_hook);
        let before = FIRED.load(Ordering::SeqCst);
        blocking_region("test.region");
        assert!(FIRED.load(Ordering::SeqCst) > before);
    }
}
