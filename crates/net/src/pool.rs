//! A check-out/check-in pool of encode buffers.
//!
//! Frame encoding is the one hot-path allocation the wire format would
//! otherwise force: every `send` needs a contiguous `[header][payload]`
//! buffer. [`BufPool`] amortizes that to zero steady-state allocations —
//! a buffer checked out, filled by [`crate::frame::encode_msg_spliced`],
//! shipped, and dropped returns to the pool with its capacity intact,
//! so the next frame of similar size reuses the same backing memory.
//!
//! [`PooledBuf`] is the RAII handle: checked back in on drop, from
//! whatever thread drops it. Wrapping one in an `Arc` lets a multicast share a
//! single encoded frame across every peer queue; the buffer re-enters
//! the pool when the last queue finishes with it.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};

/// Most buffers retained by a pool; beyond this, returned buffers are
/// simply freed.
const MAX_POOLED: usize = 64;
/// Largest frame whose buffer is worth keeping: a 1 MiB blob (four
/// times a 256 KiB chunk) and fields. The mesh splices every bulk byte, so
/// its buffers hold fields only; a larger flattened encode
/// ([`crate::frame::encode_msg_into`]: tests, probes, and the traced
/// replay's router in `benchmark/src/trace.rs`, whose `stream_r3`
/// transfers are 8 MiB each) is freed, so it is allocated afresh each time.
/// Judged by the frame the buffer held, not by its capacity: a buffer is
/// never larger than twice the largest frame it has carried, and that
/// frame's own check-in freed it if it was over the limit.
const MAX_RETAINED_FRAME: usize = (1 << 20) + (64 << 10);

/// Shared pool of reusable byte buffers. Cloning shares the pool.
#[derive(Clone, Default)]
pub struct BufPool {
    bufs: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> BufPool {
        BufPool::default()
    }

    /// Check out a buffer (cleared, capacity from its previous life) or
    /// allocate a fresh one if the pool is empty.
    pub fn check_out(&self) -> PooledBuf {
        let buf = self.bufs.lock().unwrap().pop().unwrap_or_default();
        PooledBuf { buf, pool: Arc::downgrade(&self.bufs) }
    }

    /// Number of buffers currently resting in the pool.
    pub fn idle(&self) -> usize {
        self.bufs.lock().unwrap().len()
    }

    /// Capacity of the largest buffer resting in the pool.
    #[cfg(test)]
    pub(crate) fn largest_idle(&self) -> usize {
        self.bufs.lock().unwrap().iter().map(Vec::capacity).max().unwrap_or(0)
    }
}

/// A buffer on loan from a [`BufPool`]; returns to the pool on drop.
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: std::sync::Weak<Mutex<Vec<Vec<u8>>>>,
}

impl PooledBuf {
    /// A pool-less buffer (drops normally); handy in tests and for
    /// one-off frames.
    pub fn detached(buf: Vec<u8>) -> PooledBuf {
        PooledBuf { buf, pool: std::sync::Weak::new() }
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let Some(pool) = self.pool.upgrade() else { return };
        if self.buf.capacity() == 0 || self.buf.len() > MAX_RETAINED_FRAME {
            return;
        }
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        let mut bufs = pool.lock().unwrap();
        if bufs.len() < MAX_POOLED {
            bufs.push(buf);
        }
    }
}

impl Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_cycle_through_the_pool() {
        let pool = BufPool::new();
        assert_eq!(pool.idle(), 0);
        let mut a = pool.check_out();
        a.extend_from_slice(&[1, 2, 3]);
        let ptr = a.as_ptr();
        let cap = a.capacity();
        drop(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.check_out();
        assert!(b.is_empty(), "checked-out buffer must come back cleared");
        assert_eq!(b.as_ptr(), ptr, "capacity must be reused, not reallocated");
        assert_eq!(b.capacity(), cap);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn concurrent_checkouts_never_alias() {
        let pool = BufPool::new();
        let a = pool.check_out();
        let b = pool.check_out();
        // Two live loans are distinct allocations (the empty-capacity
        // case has no allocation to alias; force one).
        let mut a = a;
        let mut b = b;
        a.push(1);
        b.push(2);
        assert_ne!(a.as_ptr(), b.as_ptr());
    }

    /// An 8 MiB replica transfer, encoded the way the mesh does it: the
    /// image's bytes are a splice of the stored extent, not a copy, so the
    /// pooled buffer holds the fields alone and checks back in.
    #[test]
    fn a_segment_transfer_is_spliced_and_its_buffer_holds_fields_only() {
        use sorrento::proto::Msg;
        use sorrento::store::{ReplicaImage, SegMeta};
        use sorrento::types::{SegId, Version};
        let data = bytes::Bytes::from(vec![7u8; 8 << 20]);
        let image = ReplicaImage {
            seg: SegId(1),
            version: Version(1),
            len: data.len() as u64,
            data: Some(data.clone()),
            meta: SegMeta::default(),
        };
        let msg = Msg::FetchSegR { req: 1, result: Ok(Box::new(image.into())) };
        let pool = BufPool::new();
        let mut buf = pool.check_out();
        let sender = sorrento_sim::NodeId::from_index(0);
        let splice = crate::frame::encode_msg_spliced(&mut buf, sender, &msg);
        let (at, blob) = splice.expect("a replica image is a checked blob");
        assert_eq!(blob.as_ptr(), data.as_ptr(), "spliced from the extent, not copied");
        assert_eq!(at, buf.len(), "no field follows the image's bytes");
        assert!(buf.len() < 256, "{} bytes of fields", buf.len());
        drop(buf);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let pool = BufPool::new();
        // The limit is on the frame held, so a frame just over it goes.
        let mut a = pool.check_out();
        a.resize(MAX_RETAINED_FRAME + 1, 0);
        drop(a);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn pool_capacity_is_bounded() {
        let pool = BufPool::new();
        let loans: Vec<_> = (0..MAX_POOLED + 8)
            .map(|_| {
                let mut b = pool.check_out();
                b.push(0);
                b
            })
            .collect();
        drop(loans);
        assert_eq!(pool.idle(), MAX_POOLED);
    }

    #[test]
    fn detached_buffers_skip_the_pool() {
        let b = PooledBuf::detached(vec![1, 2, 3]);
        assert_eq!(&b[..], &[1, 2, 3]);
        drop(b);
    }
}
