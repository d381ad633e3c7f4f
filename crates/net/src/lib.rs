//! The real-process runtime for Sorrento.
//!
//! The simulator (`sorrento-sim`) and this crate share the same state
//! machines from `sorrento` — providers, the namespace server, and the
//! client are written against [`sorrento::Transport`], so the protocol
//! code that the deterministic simulation validates is byte-for-byte
//! the code a live cluster runs. This crate supplies the real-world
//! half:
//!
//! * [`frame`] — the length-prefixed, checksummed binary wire format
//!   for every [`sorrento::proto::Msg`].
//! * [`pool`] — check-out/check-in encode-buffer pool backing the
//!   zero-allocation frame path.
//! * [`tcp`] — a std-only TCP mesh driven on its owner's thread: one
//!   epoll poller over the listener, every connection and every dial in
//!   flight, and per-peer bounded outbound queues with vectored
//!   coalesced writes.
//! * [`chaos`] — deterministic fault injection at the mesh's enqueue
//!   boundary: seeded per-link drop/duplicate/delay/partition streams,
//!   installed at boot or flipped at runtime via `Msg::ChaosCtl`.
//! * [`runtime`] — [`runtime::RealCtx`], the wall-clock
//!   [`sorrento::Transport`] implementation (monotonic-nanosecond
//!   clock, timer heap, real metrics registry).
//! * [`config`] — the small JSON config file a node boots from.
//! * [`daemon`] — the node daemon: role selection, the poll loop, and
//!   the persistence deadline.
//! * [`disk`] — [`disk::KvDisk`], a provider's segments at rest in a
//!   `sorrento-kvdb` file-backed database.
//! * [`ctl`] — the `sorrentoctl` client library: run filesystem ops
//!   against a live cluster, fetch daemon stats.
//! * [`testkit`] — [`testkit::LoopbackCluster`]: boot, kill, restart,
//!   scrape and wait on a loopback cluster of in-process daemons; what
//!   every live test, drill and bench stands on.

pub mod chaos;
pub mod config;
pub mod ctl;
pub mod daemon;
pub mod disk;
pub mod flight;
pub mod frame;
pub mod pool;
pub mod runtime;
pub mod tcp;
pub mod testkit;
