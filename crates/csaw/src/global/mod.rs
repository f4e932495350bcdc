//! The global database and measurement server (§4.2, §5).
//!
//! Storage (records, voting, sharding, persistence) lives in
//! [`csaw_store`]; this module hosts the server front-end plus the
//! collection tier and reputation auditing, and re-exports the store
//! types. By design **no personally identifiable information is stored**
//! — there is no IP/identity field anywhere in the record and report
//! types, which is the paper's §5 privacy property enforced structurally
//! rather than by policy.

pub mod collectors;
pub mod remote;
pub mod reputation;
pub mod server;

pub use collectors::{Collector, CollectorSet, SubmitError, SubmitReceipt};
pub use csaw_store::{
    Batch, ConfidenceFilter, GlobalRecord, IngestReceipt, JsonlStore, Report, ShardedStore,
    StorageBackend, StoreError, Tally, Uuid, VoteLedger, WireError,
};
pub use remote::{GlobalApi, RemoteDb};
pub use reputation::{audit, Flag, ReputationConfig};
pub use server::{DeploymentStats, RegistrarConfig, RegistrationError, ServerDb, ServerDbBuilder};
