//! The NRMI benchmark of record.
//!
//! Six workloads drive the real client and server over TCP loopback, both
//! ends in one process, in a closed loop. An untraced run reports what a
//! user of the middleware sees; a traced run measures each layer from
//! outside, through decorators around the public `Transport`, `Listener`,
//! `ReactorIo` and `RemoteService` traits and direct timed calls into the
//! layers' public functions. Nothing under `crates/` knows it is being
//! measured. `README.md` has the tables: why each workload exists, what
//! each metric means, and which end-to-end number each layer should move.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod analysis;
pub mod compare;
pub mod gen;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
