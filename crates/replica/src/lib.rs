//! # csaw-replica — cross-region replication for the global DB
//!
//! The paper's deployment story needs the global DB to serve
//! `blocked_for_as` downloads at the edge while ingest continues through
//! regional outages. This crate supplies the two halves of that story:
//!
//! - **Semilattice state** ([`state`]): [`StoreState`] captures a
//!   store's logical content — the record map and the vote ledger's
//!   client→report-set map — as a value with a deterministic
//!   [`StoreState::merge`] that is commutative, associative, and
//!   idempotent (a join-semilattice). The 1/d vote ledger makes this
//!   safe: a tally is a pure function of the client→report-set maps
//!   (voters sort before the float sum), so unioning those maps merges
//!   votes without any coordination.
//! - **WAL shipping** ([`ship`]): [`ReplicatedStore`] wraps any
//!   [`StorageBackend`](csaw_store::StorageBackend) and records, as a
//!   [`csaw_store::wal`] line, every mutation that backend took;
//!   [`WalShipper`] streams those lines to per-region read replicas
//!   over the length-framed `SHIP`/`SHIP_ACK` ops, tracking per-link
//!   lag and staleness. Replicas apply shipped lines through the exact
//!   replay path `JsonlStore::open` uses, so a caught-up replica is
//!   state-identical to the leader — byte-identical under
//!   [`StoreState::fingerprint`].
//!
//! Non-monotone operations (revoke, expire) are *not* merged — they
//! ship only through the ordered WAL, where every replica applies them
//! at the same log position. `merge` is for joining concurrent
//! *ingest-only* divergence and for proving convergence after heals.
//!
//! ## Example
//!
//! Merging two divergent captures is commutative and idempotent:
//!
//! ```
//! use csaw_replica::StoreState;
//! use csaw_store::{Batch, Report, ShardedStore, StorageBackend, Uuid};
//! use csaw_censor::blocking::BlockingType;
//! use csaw_simnet::time::SimTime;
//!
//! let report = |url: &str| Report {
//!     url: url.into(),
//!     asn: 9,
//!     measured_at_us: 1,
//!     stages: vec![BlockingType::HttpDrop],
//! };
//! let a = ShardedStore::new(2)?;
//! a.ingest(&Batch::new(Uuid::from_raw(1), vec![report("http://a.com/")], SimTime::ZERO))?;
//! let b = ShardedStore::new(4)?;
//! b.ingest(&Batch::new(Uuid::from_raw(2), vec![report("http://b.com/")], SimTime::ZERO))?;
//!
//! let (sa, sb) = (StoreState::capture(&a), StoreState::capture(&b));
//! let mut ab = sa.clone();
//! ab.merge(&sb);
//! let mut ba = sb.clone();
//! ba.merge(&sa);
//! ba.merge(&sa); // idempotent
//! assert_eq!(ab, ba);
//! assert_eq!(ab.fingerprint(), ba.fingerprint());
//! # Ok::<(), csaw_store::StoreError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ship;
pub mod state;

pub use ship::{LinkStatus, ReplicatedStore, WalShipper};
pub use state::{fingerprint_of, RecordVersion, StoreState};
