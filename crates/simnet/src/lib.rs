//! # csaw-simnet — deterministic virtual-time network substrate
//!
//! This crate is the bottom layer of the C-Saw reproduction. It provides:
//!
//! - [`time`]: integer-microsecond virtual time ([`SimTime`], [`SimDuration`]);
//! - [`rng`]: seeded, labelled-forkable randomness ([`DetRng`]);
//! - [`event`]: a deterministic discrete-event [`Scheduler`];
//! - [`link`]: links and composed paths with latency/jitter/loss/bandwidth,
//!   loss being the medium's one fault term;
//! - [`tcp`]: the flow-level TCP timing model (connects, RTO ladders
//!   calibrated to the paper's Table 5, slow-start transfers, HTTP
//!   timeouts);
//! - [`topology`]: AS-level geography anchored on the paper's Table 2
//!   latency measurements, providers, and multihomed access networks;
//! - [`load`]: the client-side load model behind the paper's redundancy
//!   trade-offs (Figures 5 and 6a).
//!
//! Everything here is synchronous-in-virtual-time and bit-reproducible for
//! a given seed: no wall-clock reads, no ambient randomness, no threads.
//!
//! ## Example
//!
//! ```
//! use csaw_simnet::prelude::*;
//!
//! let mut rng = DetRng::new(42);
//! let path = Path::single(Link::wan(SimDuration::from_millis(93))); // ~YouTube
//! let cfg = TcpConfig::default();
//! match connect(&path, &cfg, &mut rng) {
//!     ConnectOutcome::Established { elapsed } => {
//!         let rtt = path.sample_rtt(&mut rng);
//!         let dl = transfer_time(360_000, rtt, path.bottleneck_bps(), &cfg);
//!         println!("connected in {elapsed}, page in {dl}");
//!     }
//!     other => println!("blocked? {other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod link;
pub mod load;
pub mod rng;
pub mod tcp;
pub mod time;
pub mod topology;

pub use event::Scheduler;
pub use link::{Link, Path};
pub use load::{InFlightTracker, LoadModel};
pub use rng::DetRng;
pub use tcp::{
    connect, connect_blackholed, connect_reset, exchange, exchange_dropped, exchange_reset,
    transfer_time, ConnectOutcome, ExchangeOutcome, TcpConfig,
};
pub use time::{SimDuration, SimTime};
pub use topology::{AccessNetwork, AccessProfile, Asn, Provider, Region, Site};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::event::Scheduler;
    pub use crate::link::{Link, Path};
    pub use crate::load::{InFlightTracker, LoadModel};
    pub use crate::rng::DetRng;
    pub use crate::tcp::{
        connect, connect_blackholed, connect_reset, exchange, exchange_dropped, exchange_reset,
        transfer_time, ConnectOutcome, ExchangeOutcome, TcpConfig,
    };
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{AccessNetwork, AccessProfile, Asn, Provider, Region, Site};
}
