//! # csaw-webproto — protocol substrate for the C-Saw reproduction
//!
//! From-scratch models of the protocols a web censor can observe and a
//! circumventor can manipulate:
//!
//! - [`url`]: a normalized [`Url`] type with the base/derived structure and
//!   segment-wise prefix semantics that C-Saw's local database aggregation
//!   (§4.4 of the paper) is built on, plus the "IP as hostname" form;
//! - [`dns`]: response/rcode models and the tampering observations a
//!   client can make;
//! - [`http`]: HTTP/1.1 requests and responses with a byte-level codec used
//!   by the real-socket proxy;
//! - [`page`]: the web page model (base document + embedded resources,
//!   possibly CDN-hosted) whose load time is the paper's headline metric;
//! - [`codec`] and [`server`]: the blocking wire codecs and the one
//!   accept/drain loop every loopback server in the workspace runs.

//!
//! ```
//! use csaw_webproto::{Request, Scheme, Url};
//!
//! let url: Url = "http://www.youtube.com/watch?v=abc".parse().unwrap();
//! assert!(url.is_derived_from(&url.base()));
//!
//! // The codec round-trips over real sockets in `csaw-proxy`.
//! let wire = Request::get(&url).encode();
//! let (req, used) = Request::parse(&wire).unwrap().unwrap();
//! assert_eq!(used, wire.len());
//! assert_eq!(req.url(Scheme::Http), Some(url));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bytes;
pub mod codec;
pub mod dns;
pub mod http;
pub mod page;
pub mod server;
pub mod url;

pub use bytes::{Bytes, BytesMut};
pub use codec::{Frame, MAX_FRAME_BYTES, MAX_MESSAGE_BYTES};
pub use dns::{ARecord, DnsObservation, DnsResponse, Rcode};
pub use http::{Headers, HttpParseError, Method, Request, Response};
pub use page::{synth_html, Markup, PageSizes, Resource, WebPage};
pub use url::{Host, Scheme, Url, UrlParseError};
