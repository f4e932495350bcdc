//! # csaw-store — the sharded, concurrent global measurement store
//!
//! The C-Saw server's global DB at deployment scale (§4 "the aggregate
//! information is stored in a global database"): millions of clients
//! posting report batches concurrently while other clients pull
//! confidence-filtered blocked-URL snapshots for their AS.
//!
//! Design:
//!
//! - **Lock striping** ([`shard`]): the URL×ASN keyspace is split over
//!   N shards by a stable FNV-1a hash ([`hash`]); each shard has its
//!   own `RwLock`, so there is no global lock on ingest or lookup.
//! - **Batched ingest** ([`batch`]): a client's reports are sanitized,
//!   interned (`Arc<str>` URLs) and coalesced per destination shard
//!   *before* any lock is taken — each touched record shard **and**
//!   each touched ledger stripe locks once per batch, not once per
//!   report.
//! - **Snapshot caching** ([`shard`]): `blocked_for_as` is served from
//!   one cache of finished, URL-sorted lists validated against (every
//!   shard's generation, vote epoch), so a write never lets a stale list
//!   through; a miss walks only the AS's partition of each shard and
//!   tallies it in one ledger pass.
//! - **Sharded voting** ([`ledger`]): the 1/d vote-spreading ledger is
//!   itself lock-striped (clients and keys separately) with a
//!   deterministic tally — voters sort before the float sum, so the
//!   result is independent of arrival order, thread count, and shard
//!   count.
//! - **One composition point** ([`backend`]): the [`StorageBackend`]
//!   trait, with the in-memory [`ShardedStore`] as the leaf and every
//!   other layer a [`Decorator`] of it — among them the journalling
//!   store, whose lines go to a file that replays on open
//!   ([`JsonlStore`]) or to a memory log for WAL shipping
//!   ([`ReplicatedStore`]).
//! - **One error type** ([`error`]): every fallible path returns
//!   [`StoreError`] — reads included ([`StorageBackend::blocked_for_as`]
//!   is `Result`, so transiently-unavailable backends surface as errors
//!   rather than empty lists); nothing in the store panics on input.
//!
//! Telemetry flows through `csaw-obs` (`store.ingest.*`,
//! `store.cache.*`, `store.records`, per-shard gauges); hot paths use
//! handles pre-resolved at construction.
//!
//! ## Example
//!
//! Ingest one client's batch, then read the AS's blocked list back:
//!
//! ```
//! use csaw_store::{Batch, ConfidenceFilter, Report, ShardedStore, StorageBackend, Uuid};
//! use csaw_censor::blocking::BlockingType;
//! use csaw_simnet::time::SimTime;
//! use csaw_simnet::topology::Asn;
//!
//! let store = ShardedStore::new(8)?;
//! let batch = Batch::new(
//!     Uuid::from_raw(1),
//!     vec![Report {
//!         url: "http://blocked.example/".into(),
//!         asn: 17557,
//!         measured_at_us: 1_000_000,
//!         stages: vec![BlockingType::DnsNxdomain],
//!     }],
//!     SimTime::from_secs(2),
//! );
//! let receipt = store.ingest(&batch)?;
//! assert_eq!(receipt.accepted, 1);
//! let blocked = store.blocked_for_as(Asn(17557), &ConfidenceFilter::default())?;
//! assert_eq!(blocked.len(), 1);
//! # Ok::<(), csaw_store::StoreError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod batch;
pub mod error;
pub mod hash;
pub mod ledger;
pub mod net;
pub mod record;
pub mod shard;
pub mod wal;

pub use backend::{Decorator, JsonlStore, ReplicatedStore, StorageBackend};
pub use batch::{Batch, IngestReceipt};
pub use error::StoreError;
pub use ledger::{ConfidenceFilter, Tally, VoteLedger};
pub use net::{DbRequest, DbResponse};
pub use record::{GlobalRecord, Report, Uuid, WireError};
pub use shard::ShardedStore;
