//! The immutable, 64-byte-aligned bytes a lookup table is a view of.
//!
//! Every table is one v4 image (see [`crate::LookupTable`]). A table
//! opened from a file maps it: on unix the file is `mmap`ed shared
//! read-only, so N processes opening the same table share one set of
//! physical pages straight from the page cache and open-to-ready cost is
//! independent of table size (modulo the one checksum pass). A table
//! built or re-encoded in memory holds its image in a heap buffer
//! ([`Mapping::copy_of`]), as does a file opened where there is no
//! `mmap`. Both have the same alignment guarantee, and nothing reads them
//! differently.
//!
//! The bytes are immutable for the mapping's whole lifetime: it is
//! created, validated once by the v4 reader, and then only ever read.
//! That immutability is what makes the `Send + Sync` claims of the
//! borrowing arenas sound.

use std::fs::File;
use std::io;
use std::path::Path;

/// Section alignment of the v4 format; mappings guarantee at least this.
pub(crate) const MAP_ALIGN: usize = 64;

enum Backing {
    #[cfg(unix)]
    Mmap { ptr: *mut u8, len: usize },
    Heap {
        ptr: *mut u8,
        len: usize,
        layout: std::alloc::Layout,
    },
}

/// An immutable byte buffer backed by an `mmap` (unix files) or an
/// aligned heap allocation, always aligned to [`MAP_ALIGN`].
pub(crate) struct Mapping {
    backing: Backing,
}

// The buffer is never written after construction; sharing &[u8] views
// across threads is exactly what page-cache serving means.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps `path` read-only. Empty files are rejected (no v4 table fits
    /// in zero bytes, and zero-length mappings are not portable).
    pub(crate) fn open(path: &Path) -> io::Result<Mapping> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "empty table file",
            ));
        }
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "table too large to map"))?;
        Mapping::from_file(file, len)
    }

    #[cfg(unix)]
    fn from_file(file: File, len: usize) -> io::Result<Mapping> {
        use std::os::unix::io::AsRawFd;

        // Minimal FFI surface: the two libc calls zero-copy serving needs.
        // std already links libc, so no new dependency is involved.
        const PROT_READ: i32 = 1;
        const MAP_SHARED: i32 = 1;
        extern "C" {
            fn mmap(
                addr: *mut std::ffi::c_void,
                len: usize,
                prot: i32,
                flags: i32,
                fd: i32,
                offset: i64,
            ) -> *mut std::ffi::c_void;
        }
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        // Page alignment (>= 4096) implies the 64-byte section alignment.
        debug_assert_eq!(ptr as usize % MAP_ALIGN, 0);
        Ok(Mapping {
            backing: Backing::Mmap {
                ptr: ptr.cast(),
                len,
            },
        })
    }

    #[cfg(not(unix))]
    fn from_file(mut file: File, len: usize) -> io::Result<Mapping> {
        use std::io::Read;
        let mut bytes = Vec::with_capacity(len);
        file.read_to_end(&mut bytes)?;
        Ok(Mapping::copy_of(&bytes))
    }

    /// Copies `bytes` into one [`MAP_ALIGN`]-aligned heap allocation.
    pub(crate) fn copy_of(bytes: &[u8]) -> Mapping {
        // A zero-size allocation is undefined; reserve at least one byte.
        let layout = std::alloc::Layout::from_size_align(bytes.len().max(1), MAP_ALIGN)
            .expect("a byte buffer that exists fits an aligned layout");
        let ptr = unsafe { std::alloc::alloc(layout) };
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), ptr, bytes.len()) };
        Mapping {
            backing: Backing::Heap {
                ptr,
                len: bytes.len(),
                layout,
            },
        }
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Heap { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.bytes().len()
    }

    /// True when the bytes are an `mmap` of a file, false for a heap copy.
    pub(crate) fn is_mmap(&self) -> bool {
        match self.backing {
            #[cfg(unix)]
            Backing::Mmap { .. } => true,
            Backing::Heap { .. } => false,
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mmap { ptr, len } => {
                extern "C" {
                    fn munmap(addr: *mut std::ffi::c_void, len: usize) -> i32;
                }
                unsafe {
                    munmap(ptr.cast::<std::ffi::c_void>(), *len);
                }
            }
            Backing::Heap { ptr, layout, .. } => unsafe {
                std::alloc::dealloc(*ptr, *layout);
            },
        }
    }
}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mapping").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_a_file_with_alignment() {
        let dir = std::env::temp_dir().join("patlabor_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.bin");
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        std::fs::write(&path, &data).unwrap();
        let map = Mapping::open(&path).unwrap();
        assert_eq!(map.bytes(), &data[..]);
        assert_eq!(map.bytes().as_ptr() as usize % MAP_ALIGN, 0);
        assert_eq!(map.is_mmap(), cfg!(unix));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heap_copy_is_aligned_and_equal() {
        // Odd lengths and an unaligned source: the copy is still aligned.
        let data: Vec<u8> = (0..=255u8).cycle().take(778).collect();
        let map = Mapping::copy_of(&data[1..]);
        assert_eq!(map.bytes(), &data[1..]);
        assert_eq!(map.bytes().as_ptr() as usize % MAP_ALIGN, 0);
        assert!(!map.is_mmap());
        assert_eq!(Mapping::copy_of(&[]).len(), 0);
    }

    #[test]
    fn empty_file_is_rejected() {
        let dir = std::env::temp_dir().join("patlabor_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        assert!(Mapping::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
