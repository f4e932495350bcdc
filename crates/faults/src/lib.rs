//! # csaw-faults — deterministic fault injection for the upload pipeline
//!
//! The paper ships measurements opportunistically over Tor and an
//! OONI-style collector tier (§4.5, §5) precisely because the upload
//! path is *expected* to fail, be blocked, or partially succeed. This
//! crate makes that reality testable: every fault is scheduled in
//! virtual time and decided by a seeded [`DetRng`](csaw_simnet::rng::DetRng)
//! stream — never wall clock — so a chaos run is as bit-reproducible as
//! a clean one, and a failure found at seed 1234 replays forever.
//!
//! Injection points:
//!
//! - [`FaultyBackend`] wraps any [`StorageBackend`](csaw_store::StorageBackend)
//!   and injects whole-batch write failures, torn writes (a prefix of
//!   the batch lands, the rest is deferred in the receipt), and
//!   blocked-list download outages — covering `ServerDb::ingest` and
//!   `blocked_for_as` unavailability when installed via the server
//!   builder.
//! - [`OutageSchedule`] turns a seed into alternating up/down windows
//!   (exponentially distributed holding times) for modelling collector
//!   blockage and store maintenance windows.
//!
//! Every injected fault is counted ([`FaultyBackend::snapshot`]) and
//! emitted as a `fault.*` obs event, so a chaos experiment can assert
//! the exact accounting identity: nothing is lost silently.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod windows;

pub use backend::{FaultProfile, FaultSnapshot, FaultyBackend};
pub use windows::OutageSchedule;
