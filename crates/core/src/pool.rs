//! A small recycling pool for checkpoint encode buffers.
//!
//! Steady-state incremental checkpointing produces one byte vector per
//! checkpoint; without recycling, every checkpoint re-allocates and
//! re-grows it. [`BufferPool`] closes the loop: a [`CheckpointRecord`]
//! carrying a pool hands its buffer back on drop, and the next
//! [`StreamWriter::with_buffer`] reuses the capacity — so the encode hot
//! loop allocates nothing once the pool is warm. The recovered capacity is
//! surfaced as [`TraversalStats::bytes_reused`].
//!
//! [`CheckpointRecord`]: crate::CheckpointRecord
//! [`StreamWriter::with_buffer`]: crate::StreamWriter::with_buffer
//! [`TraversalStats::bytes_reused`]: crate::TraversalStats::bytes_reused

use crate::stream::{CheckpointKind, StreamWriter};
use ickp_heap::StableId;
use std::sync::{Arc, Mutex};

/// A bounded, shareable pool of byte buffers.
///
/// Clones share the same storage (the pool is an `Arc` internally), so a
/// checkpointer can hand a clone to every record it emits and still receive
/// the buffers back. Buffers past the capacity bound are simply dropped.
///
/// # Example
///
/// ```
/// use ickp_core::BufferPool;
///
/// let pool = BufferPool::new(2);
/// pool.recycle(Vec::with_capacity(128));
/// let buf = pool.acquire().expect("one buffer pooled");
/// assert!(buf.capacity() >= 128);
/// assert!(pool.acquire().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct BufferPool {
    buffers: Arc<Mutex<Vec<Vec<u8>>>>,
    max: usize,
}

impl BufferPool {
    /// Creates a pool holding at most `max` idle buffers.
    pub fn new(max: usize) -> BufferPool {
        BufferPool { buffers: Arc::new(Mutex::new(Vec::new())), max }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Vec<u8>>> {
        // A poisoned pool only means a panic elsewhere dropped a guard;
        // the Vec of Vecs cannot be left in a broken state.
        self.buffers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes an idle buffer out of the pool, if any. The buffer keeps its
    /// capacity but carries stale contents; [`StreamWriter::with_buffer`]
    /// clears it before writing.
    ///
    /// [`StreamWriter::with_buffer`]: crate::StreamWriter::with_buffer
    pub fn acquire(&self) -> Option<Vec<u8>> {
        self.lock().pop()
    }

    /// Returns a buffer to the pool. Dropped instead if the pool is full
    /// or the buffer has no capacity worth keeping.
    pub fn recycle(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut buffers = self.lock();
        if buffers.len() < self.max {
            buffers.push(buf);
        }
    }

    /// Number of idle buffers currently pooled.
    pub fn idle(&self) -> usize {
        self.lock().len()
    }

    /// Starts a stream, reusing an idle buffer when there is one. Returns
    /// the writer and the recycled capacity (for `bytes_reused`).
    pub(crate) fn writer(
        &self,
        seq: u64,
        kind: CheckpointKind,
        roots: &[StableId],
    ) -> (StreamWriter, u64) {
        match self.acquire() {
            Some(buf) => {
                let reused = buf.capacity() as u64;
                (StreamWriter::with_buffer(buf, seq, kind, roots), reused)
            }
            None => (StreamWriter::new(seq, kind, roots), 0),
        }
    }
}

impl Default for BufferPool {
    /// A pool sized for one producer: a handful of in-flight records.
    fn default() -> BufferPool {
        BufferPool::new(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycle_then_acquire_round_trips_capacity() {
        let pool = BufferPool::new(4);
        assert!(pool.acquire().is_none());
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(b"stale");
        pool.recycle(buf);
        assert_eq!(pool.idle(), 1);
        let got = pool.acquire().unwrap();
        assert!(got.capacity() >= 256);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn pool_is_bounded_and_skips_empty_buffers() {
        let pool = BufferPool::new(2);
        pool.recycle(Vec::new()); // no capacity: dropped
        assert_eq!(pool.idle(), 0);
        for _ in 0..5 {
            pool.recycle(Vec::with_capacity(8));
        }
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn clones_share_storage() {
        let pool = BufferPool::new(4);
        let clone = pool.clone();
        clone.recycle(Vec::with_capacity(16));
        assert_eq!(pool.idle(), 1);
        assert!(pool.acquire().is_some());
        assert_eq!(clone.idle(), 0);
    }
}
