//! Tier-1 coverage for the protocol model checker: root `cargo test -q`
//! builds only the facade package, so without this test a regression in
//! the serve core's step function would surface only in CI's
//! `--workspace` and `tables -- check` jobs. Every world runs at depth
//! at most 4 — all seven alphabets, every invariant P001–P011, against
//! the production step — which stays within a few seconds in a debug
//! build, with or without `--features sanitize`.

use nrmi::check::{self_check, ModelCheckConfig};

#[test]
fn reduced_depth_self_check_is_clean() {
    let report = self_check(&ModelCheckConfig {
        max_depth: 4,
        max_errors: 25,
    });
    assert!(!report.has_errors(), "{}", report.render());
}
