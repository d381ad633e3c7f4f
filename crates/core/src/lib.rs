#![warn(missing_docs)]

//! # sorrento — a self-organizing storage cluster
//!
//! A from-scratch Rust reproduction of **Sorrento** (Tang, Gulbeden,
//! Zhou, Chu, Yang — *A Self-Organizing Storage Cluster for Parallel
//! Data-Intensive Applications*, SC 2004): a cluster storage system that
//! virtualizes commodity nodes' disks into expandable volumes and manages
//! itself — placement, replication, failure recovery, and migration all
//! happen without operator involvement.
//!
//! The crate implements every component of the paper's Figure 2:
//!
//! * [`membership`] — soft-state live-provider set from multicast
//!   heartbeats carrying load and free-space information (§3.3), with
//!   [`swim`] as the opt-in gossip failure detector that replaces the
//!   multicast at 1000+-provider scale (ROADMAP item 4);
//! * [`ring`] + [`location`] — consistent-hashing home hosts and
//!   soft-state location tables with age-based garbage purging (§3.4);
//! * [`layout`] — Linear / Striped / Hybrid file organization with the
//!   paper's exponential segment sizing and small-file attachment (§3.2);
//! * [`store`] — the per-provider segment store: immutable committed
//!   versions, copy-on-write shadow copies, expiration, consolidation
//!   (§3.5);
//! * [`placement`] — the `f_l^α · f_s^(1−α)` weighted-random placement
//!   shared by creation, replication and migration (§3.7);
//! * [`namespace`] — the per-volume namespace server over a WAL-backed
//!   database ([`sorrento_kvdb`]) (§3.1);
//! * [`provider`] — the storage provider daemon: location management,
//!   lazy replica propagation, degree repair, load-aware and
//!   locality-driven migration (§3.4–3.7);
//! * [`client`] — the client stub: pathname ops, version-based commits
//!   with 2PC, the backup multicast lookup, timeouts and failover (§2.3,
//!   §3.5);
//! * [`api`] — the §2.3 handle-based library interface ([`api::FsScript`])
//!   compiled onto the client stub;
//! * [`cluster`] — a builder wiring a whole volume (providers +
//!   namespace + clients) onto the deterministic simulator substrate
//!   [`sorrento_sim`].
//!
//! ## Quick start
//!
//! ```
//! use sorrento::cluster::{ClusterBuilder, ScriptedWorkload};
//! use sorrento::client::ClientOp;
//! use sorrento_sim::Dur;
//!
//! let mut cluster = ClusterBuilder::new()
//!     .providers(4)
//!     .replication(2)
//!     .seed(7)
//!     .build();
//! let client = cluster.add_client(ScriptedWorkload::new(vec![
//!     ClientOp::Mkdir { path: "/data".into() },
//!     ClientOp::Create { path: "/data/hello".into() },
//!     ClientOp::write_bytes(0, b"hello sorrento".to_vec()),
//!     ClientOp::Close,
//!     ClientOp::Open { path: "/data/hello".into(), write: false },
//!     ClientOp::Read { offset: 0, len: 14 },
//!     ClientOp::Close,
//! ]));
//! cluster.run_for(Dur::secs(120));
//! let stats = cluster.client_stats(client).unwrap();
//! assert_eq!(stats.failed_ops, 0);
//! assert_eq!(stats.last_read.as_deref(), Some(&b"hello sorrento"[..]));
//! ```

pub mod api;
pub mod client;
pub mod codec;
pub mod cluster;
pub mod costs;
pub mod dedup;
pub mod layout;
pub mod location;
pub mod membership;
pub mod namespace;
pub mod nsmap;
pub mod placement;
pub mod proto;
pub mod provider;
pub mod ring;
pub mod store;
pub mod swim;
pub mod transport;
pub mod types;

pub use proto::dbg_kind as proto_dbg_kind;
pub use transport::Transport;
pub use types::{Error, FileId, FileOptions, Organization, PlacementPolicy, Result, SegId, Version};
