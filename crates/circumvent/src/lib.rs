//! # csaw-circumvent — the simulated internet and every circumvention path
//!
//! This crate hosts the [`World`] — origin servers, DNS truth, per-AS
//! censor policies and the client's access network — and the transports
//! the paper evaluates against it:
//!
//! - direct-style: [`transports::Direct`], [`transports::PublicDns`],
//!   [`transports::HttpsUpgrade`], [`transports::DomainFronting`],
//!   [`transports::IpAsHostname`];
//! - relay-based: [`transports::StaticProxy`], [`transports::Vpn`],
//!   [`tor::TorClient`] (3-hop bandwidth-weighted circuits with 10-minute
//!   rotation), [`lantern::LanternClient`] (trust-graph proxy selection).
//!
//! The [`fetch`] module implements the browser page-load model (base
//! document + embedded resources over parallel lanes, cross-host CDN
//! resources paying their own censored connects), and [`outcome`] defines
//! the observation vocabulary C-Saw's detector consumes.

//!
//! ```
//! use csaw_circumvent::{Direct, FetchCtx, HttpsUpgrade, Transport};
//! use csaw_circumvent::world::{SiteSpec, World};
//! use csaw_simnet::prelude::*;
//!
//! let provider = Provider::new(Asn(45595), "ISP-A");
//! let world = World::builder(AccessNetwork::single(provider.clone()))
//!     .site(SiteSpec::new("www.youtube.com", Site::in_region(Region::UsEast)))
//!     .censor(Asn(45595), csaw_censor::isp_a())
//!     .build();
//! let ctx = FetchCtx { now: SimTime::ZERO, provider };
//! let url = "http://www.youtube.com/".parse().unwrap();
//! let mut rng = DetRng::new(1);
//!
//! // Direct path: the censor serves its block page.
//! let direct = Direct.fetch(&world, &ctx, &url, &mut rng);
//! assert!(direct.outcome.page().unwrap().truth_block_page);
//! // The HTTPS local fix sails through ISP-A's HTTP-only filter.
//! let fixed = HttpsUpgrade::default().fetch(&world, &ctx, &url, &mut rng);
//! assert!(fixed.outcome.is_genuine_page());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fetch;
pub mod lantern;
pub mod outcome;
pub mod tor;
pub mod transports;
pub mod world;

pub use fetch::{
    direct_like_fetch, lanes_time, relay_fetch, DirectOpts, FetchReport, BROWSER_LANES,
};
pub use lantern::{default_trust_network, LanternClient, LanternProxy};
pub use outcome::{FailureKind, FetchOutcome, PageResult};
pub use tor::{default_directory, Circuit, Relay, TorClient, TorConfig};
pub use transports::{
    Direct, DomainFronting, FetchCtx, HoldOnDns, HttpsUpgrade, IpAsHostname, PublicDns,
    StaticProxy, Transport, TransportKind, Vpn,
};
pub use world::{
    DnsServer, DnsTiming, HttpStep, SiteEntry, SiteSpec, TlsStep, UdpStep, World, WorldBuilder,
};
