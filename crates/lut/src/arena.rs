//! Typed views of the CSR arenas inside a table's v4 image.
//!
//! Every arena of a [`crate::LookupTable`] is a borrowed slice of the
//! table's read-only [`Mapping`] — a file mapping or a heap copy, which
//! read alike. Consumers only ever see `&[T]`, and an arena keeps its
//! mapping alive through an `Arc`.
//!
//! Arenas are constructed exclusively by the v4 reader after it has
//! validated bounds, alignment and the checksum, which is what makes the
//! raw-pointer reinterpretation here sound. The format is little-endian
//! and read in place, so the crate builds only for little-endian targets.

use std::ops::Deref;
use std::sync::Arc;

use crate::mmap::Mapping;

#[cfg(not(target_endian = "little"))]
compile_error!("v4 table images are little-endian and read in place");

/// Marker for element types whose every bit pattern is a valid value, so a
/// validated, aligned byte range of a mapping can be reinterpreted as a
/// slice of them. Sealed to the integer types the format stores.
pub(crate) trait Pod: Copy + 'static {}
impl Pod for u8 {}
impl Pod for u16 {}
impl Pod for u32 {}
impl Pod for u64 {}

pub(crate) struct Arena<T: Pod> {
    ptr: *const T,
    len: usize,
    /// Keeps the mapping alive for as long as any arena borrows it.
    _map: Arc<Mapping>,
}

// An arena is an immutable view of an immutable mapping, freely
// shareable across threads.
unsafe impl<T: Pod + Send + Sync> Send for Arena<T> {}
unsafe impl<T: Pod + Send + Sync> Sync for Arena<T> {}

impl<T: Pod> Arena<T> {
    /// Borrows `count` elements of the mapping starting at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds or misaligned — the format
    /// validator must have established both before building arenas.
    pub(crate) fn mapped(map: &Arc<Mapping>, (offset, count): (usize, usize)) -> Arena<T> {
        let size = std::mem::size_of::<T>();
        let bytes = count.checked_mul(size).expect("arena byte size overflow");
        let end = offset.checked_add(bytes).expect("arena end overflow");
        assert!(end <= map.len(), "arena range escapes the mapping");
        let ptr = unsafe { map.bytes().as_ptr().add(offset) };
        assert_eq!(
            ptr as usize % std::mem::align_of::<T>(),
            0,
            "arena offset misaligned for element type"
        );
        Arena {
            ptr: ptr.cast(),
            len: count,
            _map: Arc::clone(map),
        }
    }
}

impl<T: Pod> Deref for Arena<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapped_arena_reads_the_mapping() {
        let dir = std::env::temp_dir().join("patlabor_arena_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.bin");
        let mut bytes = vec![0u8; 64];
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&9u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let map = Arc::new(Mapping::open(&path).unwrap());
        let arena: Arena<u64> = Arena::mapped(&map, (64, 2));
        assert_eq!(&arena[..], &[7, 9]);
        drop(map);
        assert_eq!(&arena[..], &[7, 9], "the arena keeps the mapping alive");
        std::fs::remove_file(&path).ok();
    }
}
