//! # nrmi-check — static analysis and verification for NRMI
//!
//! Four analyses, one diagnostic engine (DESIGN.md §3d):
//!
//! 1. **Static descriptor analysis** ([`schema`]): walks a
//!    [`ClassRegistry`](nrmi_heap::ClassRegistry) without executing
//!    anything and reports wire-unsound metadata (`NRMI-S00x`), computes
//!    structural fingerprints per class, and diffs two registries for
//!    schema drift with who-changed-what context (`NRMI-S01x`).
//! 2. **Protocol model checking** ([`protocol`]): the cold/warm/delta
//!    handshake as an explicit transition system, exhaustively
//!    enumerated to a bound against the real client and server
//!    implementations with a local-oracle divergence check
//!    (`NRMI-P00x`).
//! 3. **Heap diagnostics** ([`heapcheck`]): the structural heap
//!    validator lifted into diagnostics (`NRMI-H00x`). A related code
//!    family, `NRMI-Z00x`, is emitted at runtime by `nrmi-heap`'s
//!    `sanitize` feature (shadow liveness state catching dangling
//!    dereference, use-after-GC, cross-heap confusion, and stale
//!    dense-map reads at the moment they happen).
//! 4. **Lock-discipline audit** ([`lockcheck`]): judges the
//!    acquisition-order witness `nrmi-core`'s tracked locks record
//!    under the `lockcheck` feature — order cycles, locks held across
//!    blocking transport ops, same-class re-entry, hold-time
//!    watermarks (`NRMI-L00x`, DESIGN.md §3i).
//!
//! Everything reports through [`Diagnostic`]/[`Report`]; CI gates on
//! [`Report::has_errors`] via `cargo run -p nrmi-bench --bin tables --
//! check`, which prints the JSON rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod heapcheck;
pub mod lockcheck;
pub mod protocol;
pub mod schema;

pub use diag::{Diagnostic, Report, Severity};
pub use heapcheck::check_heap;
pub use lockcheck::{assert_discipline_clean, check_lock_witness, check_locks};
pub use protocol::{
    check_pipelined_sequence, check_reactor_sequence, check_reliability_sequence, check_sequence,
    check_shared_graph_sequence, check_shared_sequence, judge_reply, model_check, Action,
    ModelCheckConfig, PipelinedAction, ReactorAction, ReliabilityAction, ReplyContext,
    SharedAction, SharedGraphAction, ADVERSARIAL_ALPHABET, CORE_ALPHABET, PIPELINED_ALPHABET,
    REACTOR_ALPHABET, RELIABILITY_ALPHABET, SHARED_ALPHABET, SHARED_GRAPH_ALPHABET,
};
pub use schema::{analyze_registry, diff_registries, fingerprint, fingerprints};

/// Runs the full verification suite the CI `check` job gates on:
///
/// * schema analysis of the repository's canonical registry (the tree
///   classes every benchmark and example uses);
/// * a drift diff of two independently constructed copies of that
///   registry (must be clean — it is the same build recipe);
/// * the protocol model check at the given bounds;
/// * the lock-discipline audit over whatever this process's witness
///   has recorded so far (empty — and silent — unless built with
///   `--features lockcheck` and real server code ran first).
///
/// Returns the merged report; the caller decides how to render it and
/// whether errors are fatal.
pub fn self_check(cfg: &ModelCheckConfig) -> Report {
    let mut report = Report::new();

    let build = || {
        let mut reg = nrmi_heap::ClassRegistry::new();
        let _ = nrmi_heap::tree::register_tree_classes(&mut reg);
        reg
    };
    let registry = build();
    report.merge(analyze_registry(&registry));
    report.merge(diff_registries("client", &registry, "server", &build()));
    report.merge(model_check(cfg));
    report.merge(check_locks());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_check_canonical_registry_is_clean() {
        // Schema + drift only (protocol depth 0 keeps this test fast;
        // protocol coverage has its own tests).
        let report = self_check(&ModelCheckConfig {
            max_depth: 0,
            max_errors: 25,
        });
        assert!(!report.has_errors(), "{}", report.render());
    }
}
