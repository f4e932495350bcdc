//! The global database and measurement server (§4.2, §5).
//!
//! Storage (records, voting, sharding, persistence) lives in
//! [`csaw_store`]; this module hosts the server front-end plus the
//! collection tier and reputation auditing, and re-exports the store
//! types under their historical paths.

pub mod collectors;
pub mod record;
pub mod remote;
pub mod reputation;
pub mod server;
pub mod voting;

pub use collectors::{Collector, CollectorSet, SubmitError, SubmitReceipt};
pub use csaw_store::{Batch, IngestReceipt, JsonlStore, ShardedStore, StorageBackend, StoreError};
pub use record::{GlobalRecord, Report, Uuid, WireError};
pub use remote::{GlobalApi, RemoteDb};
pub use reputation::{audit, Flag, ReputationConfig};
pub use server::{
    DeploymentStats, PostError, RegistrarConfig, RegistrationError, ServerDb, ServerDbBuilder,
};
pub use voting::{ConfidenceFilter, Tally, VoteLedger};
