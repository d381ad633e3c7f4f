//! A provider's segments at rest in a `sorrento-kvdb` file-backed
//! database: each segment's latest version under `seg/<32 hex digits>`,
//! as [`frame::encode_transfer_bytes`] lays it out. The one place that
//! knows the layout: the loopback kit reads it through [`SegmentDisk::load`] too.

use std::io;
use std::path::{Path, PathBuf};

use sorrento::store::{SegmentDisk, Transfer};
use sorrento::types::SegId;
use sorrento_kvdb::{Db, DbConfig, FileBackend};

use crate::frame;

fn key_of(seg: SegId) -> Vec<u8> {
    format!("seg/{:032x}", seg.0).into_bytes()
}

/// [`SegmentDisk`] over a kvdb database in one directory.
pub struct KvDisk {
    db: Db<FileBackend>,
    dir: PathBuf,
}

impl KvDisk {
    /// Open (and recover) the database in `dir`. Only one process may
    /// hold a directory open: opening replays and may truncate the log.
    pub fn open(dir: &Path) -> io::Result<KvDisk> {
        let db = Db::open(FileBackend::open(dir.to_path_buf())?, DbConfig::default())?;
        Ok(KvDisk { db, dir: dir.to_path_buf() })
    }
}

impl SegmentDisk for KvDisk {
    /// A value that does not decode is also named on stderr: the
    /// segment it held is lost to this node.
    fn load(&self) -> Vec<Result<Transfer, String>> {
        self.db
            .scan_prefix(b"seg/")
            .map(|(key, value)| {
                frame::decode_transfer_bytes(value).map_err(|e| {
                    let key = String::from_utf8_lossy(key);
                    let why = format!("`{key}` is no segment image: {e}");
                    eprintln!("sorrento-node: {}: {why}", self.dir.display());
                    why
                })
            })
            .collect()
    }

    fn write(&mut self, images: &[Transfer], gone: &[SegId]) -> io::Result<()> {
        for xfer in images {
            self.db.put(key_of(xfer.image.seg), frame::encode_transfer_bytes(xfer))?;
        }
        for &seg in gone {
            let key = key_of(seg);
            if self.db.contains(&key) {
                self.db.delete(key)?;
            }
        }
        Ok(())
    }

    fn checkpoint(&mut self) -> io::Result<()> {
        self.db.checkpoint()
    }
}
