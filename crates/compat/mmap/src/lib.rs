//! Minimal read-only file memory mapping.
//!
//! The trace replay fast path wants the whole FCTRACE1 archive addressable
//! as one `&[u8]` so records decode straight out of the page cache with no
//! intermediate copies. The usual crates for this are unavailable offline,
//! so this is the smallest possible binding: `mmap`/`munmap` declared as
//! unix `extern "C"` symbols, a RAII [`Mmap`] wrapper, and nothing else.
//!
//! On non-unix targets (or when the map fails — empty file, exotic
//! filesystem, resource limits) [`Mmap::map`] returns an error and callers
//! fall back to buffered reads; the mapping is strictly an optimization.
//!
//! # Examples
//!
//! ```
//! let dir = std::env::temp_dir().join("fcache_mmap_doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("blob.bin");
//! std::fs::write(&path, b"hello mapping").unwrap();
//!
//! let file = std::fs::File::open(&path).unwrap();
//! match fcache_mmap::Mmap::map(&file) {
//!     Ok(m) => assert_eq!(&m[..], b"hello mapping"),
//!     Err(_) => { /* platform without mmap: fall back to reads */ }
//! }
//! # std::fs::remove_file(&path).unwrap();
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

use std::fs::File;
use std::io;

#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A read-only, privately mapped view of an entire file.
///
/// Dereferences to `&[u8]`; the mapping is released on drop. The file
/// descriptor itself may be closed as soon as `map` returns — the mapping
/// keeps the pages alive.
pub struct Mmap {
    ptr: *const u8,
    len: usize,
}

impl Mmap {
    /// Maps the whole of `file` read-only.
    ///
    /// Fails on non-unix targets, on empty files (a zero-length `mmap` is
    /// an error; callers treat empty as "nothing to decode" anyway), and
    /// whenever the syscall itself fails. The file's read position is not
    /// touched, so a caller can fall back to reading the same handle.
    pub fn map(file: &File) -> io::Result<Self> {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;

            let len = file.metadata()?.len();
            if len == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "cannot map an empty file",
                ));
            }
            let len = usize::try_from(len)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "file exceeds usize"))?;
            // SAFETY: a fresh private read-only mapping of a file we hold
            // open; the kernel validates every argument and we check for
            // MAP_FAILED before using the pointer.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == sys::MAP_FAILED {
                return Err(io::Error::last_os_error());
            }
            Ok(Self {
                ptr: ptr as *const u8,
                len,
            })
        }
        #[cfg(not(unix))]
        {
            let _ = file;
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "memory mapping is only wired up on unix",
            ))
        }
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mapping is empty (never constructed; `map` rejects
    /// empty files).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len` bytes
        // (established in `map`, released only in `drop`). A private
        // mapping does not observe later file truncation on the platforms
        // we run on beyond SIGBUS semantics shared by every mmap user;
        // the archives mapped here are written before being opened.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: unmapping the exact region returned by `mmap`.
        unsafe {
            sys::munmap(self.ptr as *mut _, self.len);
        }
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Seek};

    fn temp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("fcache_mmap_test_{name}"));
        std::fs::write(&path, contents).expect("write temp file");
        path
    }

    #[test]
    fn maps_whole_file_contents() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = temp_file("whole", &data);
        let file = File::open(&path).expect("open");
        let m = Mmap::map(&file).expect("map");
        assert_eq!(m.len(), data.len());
        assert_eq!(&m[..], &data[..]);
        drop(m);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_is_rejected_and_handle_still_readable() {
        let path = temp_file("empty", b"");
        let mut file = File::open(&path).expect("open");
        assert!(Mmap::map(&file).is_err());
        // The failed map must not disturb the handle for the fallback.
        let mut buf = Vec::new();
        file.rewind().expect("rewind");
        file.read_to_end(&mut buf).expect("read");
        assert!(buf.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapping_outlives_the_file_handle() {
        let path = temp_file("outlive", b"still here");
        let m = {
            let file = File::open(&path).expect("open");
            Mmap::map(&file).expect("map")
        };
        assert_eq!(&m[..], b"still here");
        std::fs::remove_file(&path).ok();
    }
}
