//! Cache-line padding for hot shared words.
//!
//! The frontier cache's per-shard locks and counters are written
//! concurrently from many cores. Without padding, unrelated control
//! words land on the same 64-byte line and every write invalidates every
//! other core's copy — false sharing that turns "contention-free by
//! design" into a coherence storm. [`CachePadded`] aligns (and therefore
//! sizes) its contents to 128 bytes: one line for the data plus the
//! adjacent line the hardware prefetcher speculatively pairs with it
//! (Intel's spatial prefetcher fetches lines in 128-byte pairs, so
//! 64-byte alignment alone still false-shares through the prefetcher).

/// Aligns `T` to 128 bytes so no two padded values share a cache-line
/// pair. The price is memory (a padded `AtomicU64` occupies 128 bytes);
/// pay it only for words that are genuinely write-hot from multiple
/// threads — per-shard locks and counters — never for bulk data.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn padded_values_never_share_a_line_pair() {
        assert_eq!(std::mem::align_of::<CachePadded<AtomicU64>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<AtomicU64>>(), 128);
        // An array of padded words puts each on its own pair.
        let words: [CachePadded<AtomicU64>; 2] = Default::default();
        let a = &words[0] as *const _ as usize;
        let b = &words[1] as *const _ as usize;
        assert!(b - a >= 128);
    }

    #[test]
    fn deref_passes_through() {
        let padded = CachePadded(41u32);
        assert_eq!(*padded + 1, 42);
    }
}
