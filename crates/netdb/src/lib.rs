//! # i2p-netdb — the distributed network database
//!
//! I2P's netDb is "a distributed hash table using a variation of the
//! Kademlia algorithm" (Hoang et al. §2.1.2). This crate implements the
//! pieces the paper's measurements interact with:
//!
//! * [`routing_key`] — daily-rotating indexing keys:
//!   `SHA256(search_key ∥ UTC-date)`, so the keyspace neighbourhood of
//!   every record changes at UTC midnight.
//! * [`kbucket`] — the XOR-metric k-bucket table used to find the
//!   floodfills closest to a key.
//! * [`store`] — the local netDb store with the expiry policies the paper
//!   leans on (floodfills expire RouterInfos after one hour, §4.3) and the
//!   flood-to-3-closest replication rule (§4.2).
//! * [`messages`] — `DatabaseStoreMessage` (DSM), `DatabaseLookupMessage`
//!   (DLM) and `DatabaseSearchReply` payloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kbucket;
pub mod lookup;
pub mod messages;
pub mod routing_key;
pub mod store;

pub use kbucket::KBucketTable;
pub use lookup::{IterativeLookup, LookupConfig};
pub use messages::{DatabaseLookup, DatabaseStore, LookupKind, NetDbPayload, SearchReply};
pub use routing_key::RoutingKey;
pub use store::{NetDbStore, StoreConfig};
