#![warn(missing_docs)]

//! # sorrento-kvdb — embedded ordered key-value store
//!
//! Sorrento's namespace server stores the directory tree "in a database
//! using Berkeley DB \[33\]", employing "a combination of write-ahead
//! logging and checkpointing to allow a namespace server to recover from
//! disk failures" (§3.1). Berkeley DB is not part of this reproduction's
//! dependency budget, so this crate is the substitute: an embedded ordered
//! map with
//!
//! * atomic multi-operation batches ([`Batch`]) recorded in a CRC-guarded
//!   write-ahead log,
//! * periodic checkpointing (full snapshot + WAL truncation), and
//! * crash recovery that loads the last checkpoint, replays the WAL, and
//!   discards a torn tail record.
//!
//! Storage is abstracted behind [`Backend`] so the store runs both on real
//! files ([`FileBackend`]) and fully in memory ([`MemBackend`]); the
//! in-memory backend supports snapshotting mid-write, which is how the
//! tests inject crashes at every possible torn-log position.
//!
//! ```
//! use sorrento_kvdb::{Db, MemBackend, Batch};
//!
//! let mut db = Db::open(MemBackend::new(), Default::default()).unwrap();
//! db.put(b"/vol/a", b"file-entry-a").unwrap();
//! let mut batch = Batch::new();
//! batch.put(b"/vol/b", b"file-entry-b");
//! batch.delete(b"/vol/a");
//! db.apply(batch).unwrap();
//! assert!(db.get(b"/vol/a").is_none());
//! assert_eq!(db.get(b"/vol/b").unwrap(), b"file-entry-b");
//! ```

mod backend;
mod crc;
mod db;
mod wal;

pub use backend::{Backend, FileBackend, MemBackend};
pub use crc::{crc32, crc32_combine, crc32_pieces, Crc32};
pub use db::{assemble_shipped, Batch, Db, DbConfig, Op, Shipment};
