//! Calling semantics: the heart of the paper's design space.
//!
//! Section 2 of the paper lays out the choices middleware has for
//! pointer-bearing parameters; this module names them:
//!
//! * [`PassMode::Copy`] — deep-copy to the callee, changes lost
//!   (standard Java RMI for `Serializable` types);
//! * [`PassMode::CopyRestore`] — deep-copy to the callee, all changes
//!   restored in place on return (NRMI, for `Restorable` types) —
//!   indistinguishable from call-by-reference for stateless servers;
//! * [`PassMode::RemoteRef`] — no copy: the callee dereferences through
//!   remote pointers, every access crossing the network (Figure 3);
//! * [`PassMode::DceRpc`] — the DCE RPC approximation (§4.2): like
//!   copy-restore, but only data still reachable from the parameters
//!   after the call is restored (Figure 9's divergence).
//!
//! ## The multi-threaded client caveat (§4.1)
//!
//! Copy-restore equals call-by-reference only for single-threaded
//! clients of stateless servers. A remote call acts as a bulk mutator of
//! everything reachable from its arguments, applied at reply time in
//! middleware-determined order; a second client thread reading that data
//! mid-call observes neither the pre- nor post-call state reliably. This
//! crate encodes the discipline structurally: a `Session` is `!Sync` —
//! calls on one session are inherently mutually exclusive, and
//! applications that want concurrency use one session (and heap) per
//! thread, as the paper prescribes ("remote calls need to at least
//! execute in mutual exclusion with calls that read/write the same
//! data").

use std::time::Duration;

use crate::error::NrmiError;

/// Parameter-passing semantics for one remote call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PassMode {
    /// Call-by-copy: arguments are deep-copied; server-side changes are
    /// not propagated back.
    Copy,
    /// Call-by-copy-restore: arguments are deep-copied; after the call
    /// every change (including to data that became unreachable from the
    /// parameters) is reproduced in place on the caller's originals.
    CopyRestore,
    /// Call-by-reference through remote pointers: the server receives
    /// handles and every field access is a network round trip.
    RemoteRef,
    /// DCE RPC semantics: copy-restore restricted to data reachable from
    /// the parameters *after* the call.
    DceRpc,
}

impl PassMode {
    /// True for the modes that marshal a full argument graph (everything
    /// except [`PassMode::RemoteRef`]).
    pub fn copies_arguments(self) -> bool {
        !matches!(self, PassMode::RemoteRef)
    }

    /// True for the modes that restore server-side changes onto the
    /// caller's data.
    pub fn restores(self) -> bool {
        matches!(self, PassMode::CopyRestore | PassMode::DceRpc)
    }
}

/// Per-call options. The zero-configuration default —
/// `CallOptions::default()` — resolves semantics per argument from class
/// markers, exactly as NRMI does (§5.1: `Restorable` ⇒ copy-restore,
/// `Serializable` ⇒ copy, remote ⇒ reference).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallOptions {
    /// Force one semantics for *all* reference arguments, overriding
    /// class markers. Benchmarks use this to run the same workload under
    /// every semantics.
    pub mode_override: Option<PassMode>,
    /// Ship the reply as a delta — the request's objects the call wrote
    /// — instead of a full graph (§5.2.4 optimization 2; only meaningful
    /// for copy-restore).
    pub delta_reply: bool,
    /// Abandon the call if no reply (or callback) arrives within this
    /// window. `None` waits indefinitely. A timed-out copy/copy-restore
    /// call leaves the caller's heap untouched (no partial restore).
    pub timeout: Option<Duration>,
}

impl CallOptions {
    /// Marker-driven semantics (the NRMI default).
    pub fn auto() -> Self {
        CallOptions::default()
    }

    /// Force `mode` for all reference arguments.
    pub fn forced(mode: PassMode) -> Self {
        CallOptions {
            mode_override: Some(mode),
            ..CallOptions::default()
        }
    }

    /// Copy-restore with delta-encoded replies.
    pub fn copy_restore_delta() -> Self {
        CallOptions {
            mode_override: Some(PassMode::CopyRestore),
            delta_reply: true,
            ..CallOptions::default()
        }
    }

    /// Returns a copy of these options with a reply deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

// Wire discriminants for CallRequest.mode. AUTO lets the server resolve
// markers itself (both sides share the registry, so they agree).
pub(crate) const MODE_AUTO: u8 = 0;
pub(crate) const MODE_COPY: u8 = 1;
pub(crate) const MODE_COPY_RESTORE: u8 = 2;
pub(crate) const MODE_REMOTE_REF: u8 = 3;
pub(crate) const MODE_DCE: u8 = 4;
pub(crate) const MODE_DELTA_FLAG: u8 = 0x10;

/// The semantics discriminant of a request `mode` byte, flags stripped —
/// what serve loops branch on without fully decoding the options.
pub(crate) fn wire_mode_bits(byte: u8) -> u8 {
    byte & !MODE_DELTA_FLAG
}

impl CallOptions {
    /// Encodes these options as the request `mode` byte. Public so
    /// protocol tooling (the `nrmi-check` model checker) can build raw
    /// request frames.
    pub fn to_wire(self) -> u8 {
        let base = match self.mode_override {
            None => MODE_AUTO,
            Some(PassMode::Copy) => MODE_COPY,
            Some(PassMode::CopyRestore) => MODE_COPY_RESTORE,
            Some(PassMode::RemoteRef) => MODE_REMOTE_REF,
            Some(PassMode::DceRpc) => MODE_DCE,
        };
        if self.delta_reply {
            base | MODE_DELTA_FLAG
        } else {
            base
        }
    }

    /// Decodes a request `mode` byte back into options.
    ///
    /// # Errors
    /// [`NrmiError::Protocol`] for discriminants no release ever emitted.
    pub fn from_wire(byte: u8) -> Result<Self, NrmiError> {
        let delta_reply = byte & MODE_DELTA_FLAG != 0;
        let mode_override = match byte & !MODE_DELTA_FLAG {
            MODE_AUTO => None,
            MODE_COPY => Some(PassMode::Copy),
            MODE_COPY_RESTORE => Some(PassMode::CopyRestore),
            MODE_REMOTE_REF => Some(PassMode::RemoteRef),
            MODE_DCE => Some(PassMode::DceRpc),
            other => {
                return Err(NrmiError::Protocol(format!(
                    "unknown mode byte {other:#04x}"
                )));
            }
        };
        Ok(CallOptions {
            mode_override,
            delta_reply,
            timeout: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(PassMode::Copy.copies_arguments());
        assert!(PassMode::CopyRestore.copies_arguments());
        assert!(PassMode::DceRpc.copies_arguments());
        assert!(!PassMode::RemoteRef.copies_arguments());
        assert!(PassMode::CopyRestore.restores());
        assert!(PassMode::DceRpc.restores());
        assert!(!PassMode::Copy.restores());
        assert!(!PassMode::RemoteRef.restores());
    }

    #[test]
    fn wire_roundtrip() {
        let cases = [
            CallOptions::auto(),
            CallOptions::forced(PassMode::Copy),
            CallOptions::forced(PassMode::CopyRestore),
            CallOptions::forced(PassMode::RemoteRef),
            CallOptions::forced(PassMode::DceRpc),
            CallOptions::copy_restore_delta(),
            CallOptions {
                mode_override: None,
                delta_reply: true,
                timeout: None,
            },
        ];
        for opts in cases {
            let byte = opts.to_wire();
            assert_eq!(CallOptions::from_wire(byte).unwrap(), opts, "{byte:#04x}");
        }
        // Timeouts are client-local and do not travel on the wire.
        let timed = CallOptions::auto().with_timeout(Duration::from_secs(1));
        assert_eq!(timed.to_wire(), CallOptions::auto().to_wire());
    }

    #[test]
    fn bad_mode_byte_rejected() {
        assert!(CallOptions::from_wire(0x0f).is_err());
    }

    #[test]
    fn delta_default_off() {
        assert!(!CallOptions::auto().delta_reply);
        assert!(CallOptions::copy_restore_delta().delta_reply);
    }
}
