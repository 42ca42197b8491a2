//! Block caches for the client-side flash-caching simulator.
//!
//! The paper models every cache as "a single LRU chain of blocks" (§5).
//! This crate provides:
//!
//! - [`BlockCache`] — a single-tier block cache with dirty tracking, used
//!   for the RAM tier and the flash tier of the *naive* and *lookaside*
//!   architectures.
//! - [`UnifiedCache`] — the *unified* architecture's cache: one LRU chain
//!   over RAM and flash *frames*; a block is "placed into the least
//!   recently used buffer, whether RAM or flash, and \[is\] never migrated"
//!   (§3.3).
//!
//! Both caches are policy layers over one private core, `table.rs`: an
//! open-addressed index of 8-byte slots over a slab of 24-byte nodes that
//! carry the block key, the LRU links and the dirty-list links, with the
//! dirty, CLOCK and medium flags in spare link bits (`PERF.md` invariant 1).
//!
//! Caches here are pure data structures: they never block and carry no
//! timing. The simulator in the `fcache` crate decides what I/O each cache
//! transition costs and charges simulated time accordingly.

#![forbid(unsafe_code)]

pub mod block_cache;
pub mod stats;
mod table;
pub mod unified;

pub use block_cache::{BlockCache, Eviction, EvictionPolicy, InsertOutcome};
pub use stats::CacheStats;
pub use unified::{Medium, UnifiedCache, UnifiedEviction, UnifiedInsert};
