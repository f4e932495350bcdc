//! # csaw-proxy — the real-socket C-Saw proxy and its testbed
//!
//! Everything else in this repository runs in deterministic virtual time;
//! this crate proves the design on an actual network stack. It provides:
//!
//! - [`testbed`]: origin servers, a censoring middlebox (pass / drop /
//!   reset / block-page, runtime-switchable), and a resolver that maps
//!   each host to its direct (censored) and clean (circumvention) paths;
//! - [`proxy`]: the local C-Saw proxy — redundant requests racing both
//!   paths and the simulated client's 2-phase block-page detection on
//!   live responses, with every verdict kept in a [`csaw::CsawClient`]:
//!   its `road` (local DB, synced global view) decides each request's
//!   path, and its report queue posts to any global DB.
//!
//! Every server here — proxy, origin, middlebox — runs the shared
//! accept/drain loop [`csaw_webproto::server`]: its connection threads
//! run in the spawner's observability scope, and dropping the server
//! closes every connection it holds and joins its threads.
//!
//! Integration tests in the workspace root drive a browser → proxy →
//! middlebox → origin chain entirely over 127.0.0.1.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod proxy;
pub mod testbed;

/// How long a write to a peer may make no progress before its
/// connection is given up on: a browser or proxy that stops reading
/// must not pin a server thread, and the server's drop with it.
const WRITE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

pub use proxy::{spawn_proxy, CsawProxy, ProxyConfig};
pub use testbed::{
    spawn_middlebox, spawn_origin, MbAction, MbPolicy, Middlebox, Origin, OriginConfig, Resolution,
    TestResolver,
};
