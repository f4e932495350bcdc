//! # csaw — the paper's contribution
//!
//! C-Saw (SIGCOMM 2018) combines crowdsourced censorship *measurement*
//! with data-driven, adaptive *circumvention* in one client. This crate
//! implements the complete system:
//!
//! - [`local`]: the local database (Table 3) with URL aggregation,
//!   longest-prefix matching and record expiry (§4.1, §4.4);
//! - [`global`]: the global database and server (Table 4) — UUID
//!   issuance, per-AS blocked-list downloads, the 1/d vote-spreading
//!   defense against false reports, registration risk gating (§4.2, §5);
//! - [`measure`]: the Fig. 4 in-line blocking detector with the GDNS
//!   fallback, the 2-phase block-page detector, and the redundant-request
//!   engine (serial/parallel/staggered, §4.3.1);
//! - [`circum`]: the circumvention module — local-fix-first transport
//!   selection, per-(transport, URL) PLT moving averages, every-n-th
//!   exploration (§4.3.2);
//! - [`multihoming`]: egress-ASN probing and strict-union strategy
//!   resolution (§4.4);
//! - [`client`]: [`CsawClient`], composing the fetch path (Algorithm 1),
//!   the report queue and the synced global view, plus the periodic
//!   sync/report/expiry workflow;
//! - [`config`]: user-visible knobs (performance vs. anonymity, the
//!   revalidation probability `p`, redundancy shape).
//!
//! ## Quick taste
//!
//! ```
//! use csaw::prelude::*;
//! use csaw_censor::profiles;
//! use csaw_circumvent::world::{SiteSpec, World};
//! use csaw_simnet::prelude::*;
//!
//! // A censored world: ISP-A HTTP-blocks YouTube (Table 1).
//! let provider = Provider::new(profiles::ISP_A_ASN, "ISP-A");
//! let world = World::builder(AccessNetwork::single(provider))
//!     .site(csaw_circumvent::world::SiteSpec::new(
//!             "www.youtube.com",
//!             Site::in_region(Region::UsEast))
//!         .category(csaw_censor::Category::Video))
//!     .censor(profiles::ISP_A_ASN, profiles::isp_a())
//!     .build();
//!
//! let mut client = CsawClient::new(CsawConfig::default(), None, 42);
//! let url = "http://www.youtube.com/".parse().unwrap();
//! let first = client.request(&world, &url, SimTime::from_secs(1));
//! let second = client.request(&world, &url, SimTime::from_secs(5));
//! assert_eq!(second.status_after, Status::Blocked);
//! assert_eq!(second.transport, "https"); // the adaptive local fix
//! # let _ = first;
//! # let _ = SiteSpec::new("x", Site::in_region(Region::UsEast));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod circum;
pub mod client;
pub mod config;
pub mod encore;
pub mod global;
pub mod local;
pub mod measure;
pub mod multihoming;
pub mod tracing;

pub use circum::{PltTracker, Selector};
pub use client::{ClientStats, CsawClient, RequestOutcome};
pub use config::{CsawConfig, RedundancyMode, UserPreference};
pub use encore::{EncoreConfig, EncoreSource};
pub use global::{
    Batch, ConfidenceFilter, DeploymentStats, GlobalRecord, IngestReceipt, Report, ServerDb,
    ServerDbBuilder, StorageBackend, StoreError, Uuid, VoteLedger,
};
pub use local::{LocalDb, LocalRecord, Status};
pub use measure::{
    fetch_with_redundancy, measure_direct, DirectMeasurement, MeasuredStatus, RedundantOutcome,
    ServedFrom,
};
pub use multihoming::{MultihomingManager, PerProviderBlocking};
pub use tracing::{emit_fetch_tree, FetchBreakdown};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::client::{ClientStats, CsawClient, RequestOutcome};
    pub use crate::config::{CsawConfig, RedundancyMode, UserPreference};
    pub use crate::global::{ConfidenceFilter, Report, ServerDb, Uuid};
    pub use crate::local::{LocalDb, Status};
    pub use crate::measure::{MeasuredStatus, ServedFrom};
}
