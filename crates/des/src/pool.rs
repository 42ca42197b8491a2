//! Thread-local size-class recycling for the executor's hot allocations.
//!
//! Task futures and oneshot channel blocks are allocated on every spawn and
//! freed on completion, always on the thread that owns the simulation (both
//! types are `!Send`). Routing them through a per-thread free list keyed by
//! layout turns steady-state spawning into pointer pops: the set of distinct
//! layouts is the set of spawned future types, a small closed set per
//! program, so a linear scan over the classes beats hashing.
//!
//! A thread's retained blocks go back to the global allocator when the
//! thread exits (the pool's destructor), so sweep and fleet worker threads
//! leak nothing. Blocks freed after that — by another thread-local's
//! destructor running later in the thread's teardown — bypass the pool.

use std::alloc::Layout;
use std::cell::RefCell;
use std::ptr::NonNull;

/// Retention cap per layout class; excess blocks return to the global
/// allocator so one allocation burst cannot pin memory forever.
const PER_CLASS: usize = 4096;

/// Cap on distinct pooled layouts; later layouts fall through to the
/// global allocator (never hit in practice).
const MAX_CLASSES: usize = 64;

/// One thread's free lists, one per layout class.
struct Pool(Vec<(Layout, Vec<NonNull<u8>>)>);

impl Drop for Pool {
    fn drop(&mut self) {
        for (layout, blocks) in self.0.drain(..) {
            #[cfg(test)]
            tests::note_exit_free(layout, blocks.len());
            for ptr in blocks {
                // SAFETY: every pooled block came from `palloc` with this
                // class's exact layout and is owned by the pool alone.
                unsafe { std::alloc::dealloc(ptr.as_ptr(), layout) };
            }
        }
    }
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool(Vec::with_capacity(MAX_CLASSES)));
}

/// Allocates a block of `layout`, reusing a previously freed block of the
/// same layout when one is pooled.
///
/// # Panics
///
/// Panics (via `handle_alloc_error`) on allocation failure. `layout` must
/// have non-zero size.
pub(crate) fn palloc(layout: Layout) -> NonNull<u8> {
    debug_assert!(layout.size() > 0);
    let reused = POOL
        .try_with(|p| {
            p.borrow_mut()
                .0
                .iter_mut()
                .find(|(l, _)| *l == layout)
                .and_then(|(_, list)| list.pop())
        })
        .ok()
        .flatten();
    reused.unwrap_or_else(|| {
        // SAFETY: non-zero size asserted above.
        NonNull::new(unsafe { std::alloc::alloc(layout) })
            .unwrap_or_else(|| std::alloc::handle_alloc_error(layout))
    })
}

/// Returns a block previously obtained from [`palloc`] with the same
/// `layout`. Must be called on the allocating thread (all users are
/// `!Send`, so this holds by construction).
pub(crate) fn pfree(ptr: NonNull<u8>, layout: Layout) {
    let pooled = POOL.try_with(|p| {
        let classes = &mut p.borrow_mut().0;
        if let Some((_, list)) = classes.iter_mut().find(|(l, _)| *l == layout) {
            if list.len() < PER_CLASS {
                list.push(ptr);
                return true;
            }
        } else if classes.len() < MAX_CLASSES {
            classes.push((layout, vec![ptr]));
            return true;
        }
        false
    });
    if pooled != Ok(true) {
        // SAFETY: `ptr` came from `palloc` with this exact layout.
        unsafe { std::alloc::dealloc(ptr.as_ptr(), layout) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Blocks freed by exiting threads' pools, per layout.
    static EXIT_FREED: Mutex<Vec<(Layout, usize)>> = Mutex::new(Vec::new());

    pub(super) fn note_exit_free(layout: Layout, n: usize) {
        EXIT_FREED.lock().unwrap().push((layout, n));
    }

    #[test]
    fn thread_exit_frees_pooled_blocks() {
        // A layout no other test uses, so the tally is this thread's alone.
        let layout = Layout::from_size_align(4040, 8).unwrap();
        std::thread::spawn(move || {
            let blocks: Vec<_> = (0..7).map(|_| palloc(layout)).collect();
            for b in blocks {
                pfree(b, layout);
            }
            let pooled = POOL.with(|p| {
                let classes = &p.borrow().0;
                classes
                    .iter()
                    .find(|(l, _)| *l == layout)
                    .map(|(_, v)| v.len())
            });
            assert_eq!(
                pooled,
                Some(7),
                "freed blocks are retained while the thread runs"
            );
        })
        .join()
        .unwrap();
        let freed: usize = EXIT_FREED
            .lock()
            .unwrap()
            .iter()
            .filter(|(l, _)| *l == layout)
            .map(|(_, n)| n)
            .sum();
        assert_eq!(freed, 7, "the exiting thread's pool returns its blocks");
    }

    #[test]
    fn blocks_are_recycled_by_layout() {
        let a = Layout::from_size_align(128, 8).unwrap();
        let b = Layout::from_size_align(256, 8).unwrap();
        let p1 = palloc(a);
        pfree(p1, a);
        let p2 = palloc(a);
        assert_eq!(p1, p2, "same-layout block must be reused");
        let p3 = palloc(b);
        assert_ne!(p2.as_ptr(), p3.as_ptr());
        pfree(p2, a);
        pfree(p3, b);
    }

    #[test]
    fn distinct_layouts_do_not_mix() {
        let a = Layout::from_size_align(64, 8).unwrap();
        let b = Layout::from_size_align(64, 64).unwrap();
        let p1 = palloc(a);
        pfree(p1, a);
        // Alignment differs: must not hand the 8-aligned block out.
        let p2 = palloc(b);
        assert_eq!(p2.as_ptr() as usize % 64, 0);
        pfree(p2, b);
    }
}
