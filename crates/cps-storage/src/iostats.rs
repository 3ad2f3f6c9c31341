//! Shared I/O accounting.
//!
//! The paper measures query cost both in wall-clock time and in *I/O* units
//! (Figure 17(b) counts input micro-clusters). [`IoStats`] gives every read
//! path a cheap, thread-safe tally so the reproduction harness can report
//! deterministic I/O numbers alongside the noisy wall-clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Thread-safe I/O counters. Clone the `Arc` into every reader.
#[derive(Debug, Default)]
pub struct IoStats {
    bytes_read: AtomicU64,
    records_read: AtomicU64,
    blocks_read: AtomicU64,
    files_opened: AtomicU64,
    bytes_decoded: AtomicU64,
    segments_skipped: AtomicU64,
    chunks_skipped: AtomicU64,
}

impl IoStats {
    /// Creates a fresh, shareable counter set.
    pub fn shared() -> Arc<IoStats> {
        Arc::new(IoStats::default())
    }

    /// Records `n` payload bytes read from disk.
    #[inline]
    pub fn add_bytes(&self, n: u64) {
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` records decoded.
    #[inline]
    pub fn add_records(&self, n: u64) {
        self.records_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one block read.
    #[inline]
    pub fn add_block(&self) {
        self.blocks_read.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one file open.
    #[inline]
    pub fn add_file(&self) {
        self.files_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` payload bytes actually *decoded* (CRC-checked and
    /// decompressed into records). Bytes of zone-map-skipped chunks are
    /// read past but never decoded, so `bytes_decoded <= bytes_read` on
    /// the columnar path — the gap is what predicate pushdown saved.
    #[inline]
    pub fn add_bytes_decoded(&self, n: u64) {
        self.bytes_decoded.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one whole segment skipped (no chunk admitted the predicate;
    /// only the header and zone-map directory were read).
    #[inline]
    pub fn add_segment_skipped(&self) {
        self.segments_skipped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` column chunks skipped by zone maps inside an otherwise
    /// scanned segment.
    #[inline]
    pub fn add_chunks_skipped(&self, n: u64) {
        self.chunks_skipped.fetch_add(n, Ordering::Relaxed);
    }

    /// Consistent snapshot of all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            records_read: self.records_read.load(Ordering::Relaxed),
            blocks_read: self.blocks_read.load(Ordering::Relaxed),
            files_opened: self.files_opened.load(Ordering::Relaxed),
            bytes_decoded: self.bytes_decoded.load(Ordering::Relaxed),
            segments_skipped: self.segments_skipped.load(Ordering::Relaxed),
            chunks_skipped: self.chunks_skipped.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.bytes_read.store(0, Ordering::Relaxed);
        self.records_read.store(0, Ordering::Relaxed);
        self.blocks_read.store(0, Ordering::Relaxed);
        self.files_opened.store(0, Ordering::Relaxed);
        self.bytes_decoded.store(0, Ordering::Relaxed);
        self.segments_skipped.store(0, Ordering::Relaxed);
        self.chunks_skipped.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time view of [`IoStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Payload bytes read from disk.
    pub bytes_read: u64,
    /// Records decoded.
    pub records_read: u64,
    /// Blocks read.
    pub blocks_read: u64,
    /// Files opened.
    pub files_opened: u64,
    /// Payload bytes decoded (always `<= bytes_read`; the gap is chunk
    /// bytes skipped past by predicate pushdown).
    pub bytes_decoded: u64,
    /// Whole segments skipped by segment-level zone maps.
    pub segments_skipped: u64,
    /// Column chunks skipped by chunk-level zone maps.
    pub chunks_skipped: u64,
}

impl IoSnapshot {
    /// Difference since an earlier snapshot.
    pub fn since(self, earlier: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            bytes_read: self.bytes_read - earlier.bytes_read,
            records_read: self.records_read - earlier.records_read,
            blocks_read: self.blocks_read - earlier.blocks_read,
            files_opened: self.files_opened - earlier.files_opened,
            bytes_decoded: self.bytes_decoded - earlier.bytes_decoded,
            segments_skipped: self.segments_skipped - earlier.segments_skipped,
            chunks_skipped: self.chunks_skipped - earlier.chunks_skipped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::shared();
        s.add_bytes(100);
        s.add_bytes(28);
        s.add_records(5);
        s.add_block();
        s.add_file();
        s.add_bytes_decoded(90);
        s.add_segment_skipped();
        s.add_chunks_skipped(3);
        let snap = s.snapshot();
        assert_eq!(snap.bytes_read, 128);
        assert_eq!(snap.records_read, 5);
        assert_eq!(snap.blocks_read, 1);
        assert_eq!(snap.files_opened, 1);
        assert_eq!(snap.bytes_decoded, 90);
        assert_eq!(snap.segments_skipped, 1);
        assert_eq!(snap.chunks_skipped, 3);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::shared();
        s.add_bytes(10);
        s.add_bytes_decoded(4);
        s.add_segment_skipped();
        s.add_chunks_skipped(2);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn since_computes_delta() {
        let s = IoStats::shared();
        s.add_records(10);
        let before = s.snapshot();
        s.add_records(7);
        let delta = s.snapshot().since(before);
        assert_eq!(delta.records_read, 7);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let s = IoStats::shared();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        s.add_records(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().records_read, 80_000);
    }
}
