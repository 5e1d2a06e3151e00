//! # nrmi-bench — the paper's evaluation, regenerated
//!
//! Section 5.3 of the paper evaluates NRMI with three micro-benchmarks —
//! a randomly generated binary tree passed to a remote method that
//! performs random changes, under three aliasing scenarios — across tree
//! sizes 16/64/256/1024, two JDK generations, and five middleware
//! configurations (Tables 1–6). This crate rebuilds that evaluation:
//!
//! * [`workload`] — the scenario definitions (I: no aliases; II: aliases,
//!   fixed shape; III: aliases + structural change), seeded tree
//!   generation, the random mutator, and the per-scenario computation
//!   cost model behind Table 1;
//! * [`manual`] — the hand-written restore emulations a programmer
//!   would need with plain RMI (§5.3.2): return-value reassignment (I),
//!   isomorphic parallel traversal (II), and the shadow tree (III),
//!   plus their lines-of-code accounting;
//! * [`tables`] — regenerates Tables 1–6 from the simulated-time model,
//!   side by side with the paper's published numbers;
//! * [`figures`] — regenerates Figures 1–9 as ASCII heap diagrams;
//! * [`paper`] — the published numbers, embedded for comparison;
//! * [`observations`] — machine-checks the paper's §5.3.3 claims
//!   against the regenerated tables;
//! * [`sensitivity`] — sweeps bandwidth × machine speed to check the
//!   paper's prediction that NRMI's relative overhead shrinks on faster
//!   machines and slower networks;
//! * [`report`] — the text of the `tables` binary's deterministic
//!   subcommands, which `tests/tables_golden.rs` pins.
//!
//! Binaries: `cargo run -p nrmi-bench --bin tables -- all` and
//! `cargo run -p nrmi-bench --bin figures`.

#![deny(unsafe_code)] // alloc_count opts out locally for its GlobalAlloc impl
#![warn(missing_docs)]

pub mod alloc_count;
pub mod delta_sweep;
pub mod ext_collections;
pub mod faults;
pub mod figures;
pub mod hotpath;
pub mod leak;
pub mod manual;
pub mod observations;
pub mod paper;
pub mod per_write;
pub mod report;
pub mod scaling;
pub mod semantics_matrix;
pub mod sensitivity;
pub mod tables;
pub mod warm;
pub mod workload;
