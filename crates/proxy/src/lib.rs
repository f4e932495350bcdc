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
//!   its local DB decides each host's road, and its report queue posts
//!   to any global DB.
//!
//! Integration tests in the workspace root drive a browser → proxy →
//! middlebox → origin chain entirely over 127.0.0.1.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod acceptor;
pub mod proxy;
pub mod testbed;

pub use proxy::{spawn_proxy, CsawProxy, ProxyConfig};
pub use testbed::{
    spawn_middlebox, spawn_origin, MbAction, MbPolicy, Middlebox, Origin, OriginConfig, Resolution,
    TestResolver,
};
