//! The database proper: an in-memory ordered map, a write-ahead log for
//! durability, and snapshot checkpoints that bound recovery time.

use std::collections::BTreeMap;
use std::io;
use std::ops::RangeBounds;

use crate::backend::Backend;
use crate::wal;

/// One mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Insert or overwrite `key` with `value`.
    Put(Vec<u8>, Vec<u8>),
    /// Remove `key` (no-op if absent).
    Delete(Vec<u8>),
}

/// An atomic group of mutations: either every op in the batch survives a
/// crash, or none does.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    pub(crate) ops: Vec<Op>,
}

impl Batch {
    /// Empty batch.
    pub fn new() -> Batch {
        Batch::default()
    }
    /// Queue a put.
    pub fn put(&mut self, key: impl AsRef<[u8]>, value: impl AsRef<[u8]>) -> &mut Batch {
        self.ops
            .push(Op::Put(key.as_ref().to_vec(), value.as_ref().to_vec()));
        self
    }
    /// Queue a delete.
    pub fn delete(&mut self, key: impl AsRef<[u8]>) -> &mut Batch {
        self.ops.push(Op::Delete(key.as_ref().to_vec()));
        self
    }
    /// Number of queued ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }
    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Checkpoint automatically once the WAL exceeds this many bytes.
    pub checkpoint_wal_bytes: usize,
    /// Checkpoint automatically every this many applied batches
    /// (`None` = byte-threshold only). This is the knob that bounds the
    /// replay tail — and therefore crash-recovery and hot-standby
    /// failover time — by a fixed operation count instead of a byte
    /// budget.
    pub checkpoint_every_batches: Option<u64>,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            // Matches the spirit of BDB's default log regime: checkpoints
            // are rare relative to individual namespace operations.
            checkpoint_wal_bytes: 4 * 1024 * 1024,
            checkpoint_every_batches: None,
        }
    }
}

/// What [`Db::take_shipment`] drains: the shipping tap's view of
/// everything appended since the previous drain. When `ckpt` is present
/// it subsumes all earlier records — the receiver replaces its base
/// image with it and keeps only `recs` as the new tail.
#[derive(Debug, Default)]
pub struct Shipment {
    /// A full checkpoint image (present when the source checkpointed
    /// since the last drain).
    pub ckpt: Option<Vec<u8>>,
    /// Encoded WAL records appended after `ckpt` (or since the last
    /// drain), in order.
    pub recs: Vec<Vec<u8>>,
}

impl Shipment {
    /// Whether the shipment carries anything.
    pub fn is_empty(&self) -> bool {
        self.ckpt.is_none() && self.recs.is_empty()
    }
}

/// The WAL-shipping tap: a copy of every appended record (and each
/// checkpoint image), queued for a replication consumer.
#[derive(Debug, Default)]
struct ShipTap {
    pending_ckpt: Option<Vec<u8>>,
    recs: Vec<Vec<u8>>,
}

const CKPT_FILE: &str = "checkpoint";
const WAL_FILE: &str = "wal";

/// An ordered key-value store with WAL + checkpoint durability.
pub struct Db<B: Backend> {
    mem: BTreeMap<Vec<u8>, Vec<u8>>,
    backend: B,
    wal_bytes: usize,
    batches_since_ckpt: u64,
    config: DbConfig,
    ship: Option<ShipTap>,
    /// Batches recovered from the WAL at open time (observability/tests).
    recovered_batches: usize,
}

impl<B: Backend> Db<B> {
    /// Open the store, running crash recovery: load the checkpoint (if
    /// any), then replay intact WAL records, discarding a torn tail.
    pub fn open(backend: B, config: DbConfig) -> io::Result<Db<B>> {
        let mut mem = BTreeMap::new();
        if let Some(ckpt) = backend.read(CKPT_FILE)? {
            // The checkpoint is itself one big record; a torn checkpoint
            // (impossible under atomic replace, but cheap to guard) falls
            // back to empty.
            for batch in wal::replay(&ckpt) {
                apply_to(&mut mem, &batch);
            }
        }
        let wal_img = backend.read(WAL_FILE)?.unwrap_or_default();
        let batches = wal::replay(&wal_img);
        let recovered_batches = batches.len();
        for batch in &batches {
            apply_to(&mut mem, batch);
        }
        Ok(Db {
            mem,
            backend,
            wal_bytes: wal_img.len(),
            batches_since_ckpt: recovered_batches as u64,
            config,
            ship: None,
            recovered_batches,
        })
    }

    /// Read a key.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Option<&[u8]> {
        self.mem.get(key.as_ref()).map(Vec::as_slice)
    }

    /// Whether a key is present.
    pub fn contains(&self, key: impl AsRef<[u8]>) -> bool {
        self.mem.contains_key(key.as_ref())
    }

    /// Write a single key durably.
    pub fn put(&mut self, key: impl AsRef<[u8]>, value: impl AsRef<[u8]>) -> io::Result<()> {
        let mut b = Batch::new();
        b.put(key, value);
        self.apply(b)
    }

    /// Delete a single key durably. Returns whether it was present.
    pub fn delete(&mut self, key: impl AsRef<[u8]>) -> io::Result<bool> {
        let present = self.contains(key.as_ref());
        let mut b = Batch::new();
        b.delete(key);
        self.apply(b)?;
        Ok(present)
    }

    /// Apply a batch atomically: the WAL record is appended (and synced by
    /// the backend) before the in-memory map changes.
    pub fn apply(&mut self, batch: Batch) -> io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let rec = wal::encode_record(&batch.ops);
        self.backend.append(WAL_FILE, &rec)?;
        self.wal_bytes += rec.len();
        if let Some(tap) = &mut self.ship {
            tap.recs.push(rec);
        }
        self.batches_since_ckpt += 1;
        apply_to(&mut self.mem, &batch.ops);
        let due_by_bytes = self.wal_bytes >= self.config.checkpoint_wal_bytes;
        let due_by_count = self
            .config
            .checkpoint_every_batches
            .is_some_and(|n| self.batches_since_ckpt >= n);
        if due_by_bytes || due_by_count {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Write a full snapshot and truncate the WAL.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        let img = self.checkpoint_image();
        self.backend.write_atomic(CKPT_FILE, &img)?;
        self.backend.truncate(WAL_FILE)?;
        self.wal_bytes = 0;
        self.batches_since_ckpt = 0;
        if let Some(tap) = &mut self.ship {
            // The image subsumes every record queued before it: the
            // receiver replaces its base with the image and an empty tail.
            tap.recs.clear();
            tap.pending_ckpt = Some(img);
        }
        Ok(())
    }

    /// Encode the current contents as a single checkpoint record, without
    /// touching the backend. Used to force-ship a full image to a standby
    /// that has fallen behind the shipped tail.
    pub fn checkpoint_image(&self) -> Vec<u8> {
        let ops: Vec<Op> = self
            .mem
            .iter()
            .map(|(k, v)| Op::Put(k.clone(), v.clone()))
            .collect();
        wal::encode_record(&ops)
    }

    /// Start taping every applied record (and each checkpoint image) for
    /// [`Db::take_shipment`]. Idempotent; taping starts empty.
    pub fn enable_shipping(&mut self) {
        if self.ship.is_none() {
            self.ship = Some(ShipTap::default());
        }
    }

    /// Drain everything taped since the last drain. Empty shipments are
    /// normal (nothing happened) and cheap.
    pub fn take_shipment(&mut self) -> Shipment {
        match &mut self.ship {
            Some(tap) => Shipment {
                ckpt: tap.pending_ckpt.take(),
                recs: std::mem::take(&mut tap.recs),
            },
            None => Shipment::default(),
        }
    }

    /// Insert a key into memory only — no WAL record, no shipping, no
    /// checkpoint trigger. Bulk-preseed path for test seeding: callers must
    /// [`Db::checkpoint`] afterwards if they want the data durable.
    pub fn load_unlogged(&mut self, key: impl AsRef<[u8]>, value: impl AsRef<[u8]>) {
        self.mem
            .insert(key.as_ref().to_vec(), value.as_ref().to_vec());
    }

    /// Batches applied since the last checkpoint — the replay tail a
    /// crash-restart (or a standby takeover) would have to re-run.
    pub fn batches_since_checkpoint(&self) -> u64 {
        self.batches_since_ckpt
    }

    /// Change the batch-count checkpoint trigger on an open store.
    pub fn set_checkpoint_every_batches(&mut self, every: Option<u64>) {
        self.config.checkpoint_every_batches = every;
    }

    /// Iterate `(key, value)` pairs whose key starts with `prefix`, in
    /// key order.
    pub fn scan_prefix<'a>(
        &'a self,
        prefix: &'a [u8],
    ) -> impl Iterator<Item = (&'a [u8], &'a [u8])> + 'a {
        self.mem
            .range(prefix.to_vec()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
    }

    /// Iterate `(key, value)` pairs in a key range, in key order.
    pub fn range<R: RangeBounds<Vec<u8>>>(
        &self,
        range: R,
    ) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.mem
            .range(range)
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.mem.len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.mem.is_empty()
    }

    /// Bytes currently in the WAL (drops to zero at each checkpoint).
    pub fn wal_bytes(&self) -> usize {
        self.wal_bytes
    }

    /// How many WAL batches the last [`Db::open`] replayed.
    pub fn recovered_batches(&self) -> usize {
        self.recovered_batches
    }

    /// Consume the store and return the backend (tests snapshot it to
    /// simulate crashes).
    pub fn into_backend(self) -> B {
        self.backend
    }

    /// Borrow the backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }
}

/// Assemble a [`MemBackend`](crate::backend::MemBackend) from shipped
/// state: the latest checkpoint image plus the WAL tail records that
/// followed it. [`Db::open`] on the result replays exactly that tail —
/// which is how a hot standby materialises the primary's store, and why
/// its takeover time is bounded by the uncheckpointed tail length.
pub fn assemble_shipped(ckpt: Option<&[u8]>, recs: &[Vec<u8>]) -> crate::backend::MemBackend {
    let mut backend = crate::backend::MemBackend::new();
    if let Some(img) = ckpt {
        // MemBackend writes are infallible.
        backend.write_atomic(CKPT_FILE, img).expect("mem write");
    }
    for rec in recs {
        backend.append(WAL_FILE, rec).expect("mem append");
    }
    backend
}

fn apply_to(mem: &mut BTreeMap<Vec<u8>, Vec<u8>>, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Put(k, v) => {
                mem.insert(k.clone(), v.clone());
            }
            Op::Delete(k) => {
                mem.remove(k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn open_mem() -> Db<MemBackend> {
        Db::open(MemBackend::new(), DbConfig::default()).unwrap()
    }

    #[test]
    fn put_get_delete() {
        let mut db = open_mem();
        assert!(db.is_empty());
        db.put("k1", "v1").unwrap();
        db.put("k2", "v2").unwrap();
        assert_eq!(db.get("k1"), Some(&b"v1"[..]));
        assert_eq!(db.len(), 2);
        assert!(db.delete("k1").unwrap());
        assert!(!db.delete("k1").unwrap());
        assert_eq!(db.get("k1"), None);
    }

    #[test]
    fn overwrite_updates_value() {
        let mut db = open_mem();
        db.put("k", "old").unwrap();
        db.put("k", "new").unwrap();
        assert_eq!(db.get("k"), Some(&b"new"[..]));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn recovery_replays_wal() {
        let mut db = open_mem();
        db.put("a", "1").unwrap();
        db.put("b", "2").unwrap();
        db.delete("a").unwrap();
        let backend = db.into_backend();
        let db2 = Db::open(backend, DbConfig::default()).unwrap();
        assert_eq!(db2.recovered_batches(), 3);
        assert_eq!(db2.get("a"), None);
        assert_eq!(db2.get("b"), Some(&b"2"[..]));
    }

    #[test]
    fn recovery_after_checkpoint() {
        let mut db = open_mem();
        db.put("a", "1").unwrap();
        db.checkpoint().unwrap();
        db.put("b", "2").unwrap();
        let db2 = Db::open(db.into_backend(), DbConfig::default()).unwrap();
        // Only post-checkpoint batches replay from the WAL.
        assert_eq!(db2.recovered_batches(), 1);
        assert_eq!(db2.get("a"), Some(&b"1"[..]));
        assert_eq!(db2.get("b"), Some(&b"2"[..]));
    }

    #[test]
    fn torn_batch_is_all_or_nothing() {
        let mut db = open_mem();
        db.put("base", "x").unwrap();
        let mut batch = Batch::new();
        batch.put("p", "1").put("q", "2").delete("base");
        db.apply(batch).unwrap();
        let mut backend = db.into_backend();
        // Tear one byte off the WAL: the whole second batch must vanish.
        let len = backend.len("wal");
        backend.tear("wal", len - 1);
        let db2 = Db::open(backend, DbConfig::default()).unwrap();
        assert_eq!(db2.recovered_batches(), 1);
        assert_eq!(db2.get("base"), Some(&b"x"[..]));
        assert_eq!(db2.get("p"), None);
        assert_eq!(db2.get("q"), None);
    }

    #[test]
    fn auto_checkpoint_bounds_wal() {
        let mut db = Db::open(
            MemBackend::new(),
            DbConfig {
                checkpoint_wal_bytes: 64,
                ..DbConfig::default()
            },
        )
        .unwrap();
        for i in 0..100u32 {
            db.put(i.to_le_bytes(), [0u8; 32]).unwrap();
        }
        assert!(db.wal_bytes() < 128);
        assert_eq!(db.len(), 100);
        let db2 = Db::open(db.into_backend(), DbConfig::default()).unwrap();
        assert_eq!(db2.len(), 100);
    }

    #[test]
    fn scan_prefix_in_order() {
        let mut db = open_mem();
        db.put("/a/1", "x").unwrap();
        db.put("/a/2", "y").unwrap();
        db.put("/b/1", "z").unwrap();
        db.put("/a!", "w").unwrap(); // '!' < '/' so not under /a/
        let keys: Vec<&[u8]> = db.scan_prefix(b"/a/").map(|(k, _)| k).collect();
        assert_eq!(keys, vec![&b"/a/1"[..], &b"/a/2"[..]]);
    }

    #[test]
    fn range_scan() {
        let mut db = open_mem();
        for k in ["a", "b", "c", "d"] {
            db.put(k, "v").unwrap();
        }
        let keys: Vec<&[u8]> = db
            .range(b"b".to_vec()..b"d".to_vec())
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, vec![&b"b"[..], &b"c"[..]]);
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut db = open_mem();
        let before = db.wal_bytes();
        db.apply(Batch::new()).unwrap();
        assert_eq!(db.wal_bytes(), before);
    }

    #[test]
    fn checkpoint_interval_bounds_replay_tail() {
        // Satellite: with checkpoint_every_batches = 8, a crash-restart
        // never replays more than 8 batches no matter how much history
        // accumulated before the crash.
        let cfg = DbConfig {
            checkpoint_every_batches: Some(8),
            ..DbConfig::default()
        };
        let mut db = Db::open(MemBackend::new(), cfg).unwrap();
        for i in 0..100u32 {
            db.put(i.to_le_bytes(), [7u8; 16]).unwrap();
        }
        assert!(db.batches_since_checkpoint() < 8);
        let db2 = Db::open(db.into_backend(), cfg).unwrap();
        assert!(
            db2.recovered_batches() < 8,
            "replay tail {} not bounded by interval",
            db2.recovered_batches()
        );
        assert_eq!(db2.len(), 100);
    }

    #[test]
    fn shipping_mirrors_primary_state() {
        let mut db = open_mem();
        db.enable_shipping();
        db.put("a", "1").unwrap();
        db.put("b", "2").unwrap();
        db.checkpoint().unwrap();
        db.put("c", "3").unwrap();
        db.delete("a").unwrap();
        let s = db.take_shipment();
        assert!(s.ckpt.is_some());
        assert_eq!(s.recs.len(), 2); // only post-checkpoint records survive
        let standby = Db::open(assemble_shipped(s.ckpt.as_deref(), &s.recs), DbConfig::default())
            .unwrap();
        assert_eq!(standby.recovered_batches(), 2);
        assert_eq!(standby.get("a"), None);
        assert_eq!(standby.get("b"), Some(&b"2"[..]));
        assert_eq!(standby.get("c"), Some(&b"3"[..]));
        // Subsequent drains only carry the delta.
        db.put("d", "4").unwrap();
        let s2 = db.take_shipment();
        assert!(s2.ckpt.is_none());
        assert_eq!(s2.recs.len(), 1);
        assert!(db.take_shipment().is_empty());
    }

    #[test]
    fn incremental_shipments_compose() {
        // Apply every drained shipment in order onto a growing receiver
        // image: the final replayed store equals the source.
        let mut db = open_mem();
        db.enable_shipping();
        let (mut r_ckpt, mut r_recs): (Option<Vec<u8>>, Vec<Vec<u8>>) = (None, Vec::new());
        for round in 0..6u32 {
            db.put(format!("k{round}"), format!("v{round}")).unwrap();
            if round == 3 {
                db.checkpoint().unwrap();
            }
            let s = db.take_shipment();
            if let Some(img) = s.ckpt {
                r_ckpt = Some(img);
                r_recs.clear();
            }
            r_recs.extend(s.recs);
        }
        let standby =
            Db::open(assemble_shipped(r_ckpt.as_deref(), &r_recs), DbConfig::default()).unwrap();
        assert_eq!(standby.len(), db.len());
        for round in 0..6u32 {
            assert_eq!(
                standby.get(format!("k{round}")),
                db.get(format!("k{round}"))
            );
        }
    }

    #[test]
    fn load_unlogged_skips_wal_and_shipping() {
        let mut db = open_mem();
        db.enable_shipping();
        db.load_unlogged("bulk", "x");
        assert_eq!(db.get("bulk"), Some(&b"x"[..]));
        assert_eq!(db.wal_bytes(), 0);
        assert!(db.take_shipment().is_empty());
        // Durable only after an explicit checkpoint.
        db.checkpoint().unwrap();
        let db2 = Db::open(db.into_backend(), DbConfig::default()).unwrap();
        assert_eq!(db2.get("bulk"), Some(&b"x"[..]));
    }

    #[test]
    fn corrupted_wal_byte_drops_tail_only() {
        let mut db = open_mem();
        db.put("a", "1").unwrap();
        let cut = db.backend().len("wal");
        db.put("b", "2").unwrap();
        db.put("c", "3").unwrap();
        let mut backend = db.into_backend();
        backend.corrupt("wal", cut + 9); // inside record 2's body
        let db2 = Db::open(backend, DbConfig::default()).unwrap();
        assert_eq!(db2.get("a"), Some(&b"1"[..]));
        assert_eq!(db2.get("b"), None);
        assert_eq!(db2.get("c"), None); // after corruption: dropped too
    }
}
