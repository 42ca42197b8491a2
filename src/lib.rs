//! Meta-crate for the *Flash Caching on the Storage Client* reproduction.
//!
//! Hosts the workspace-level examples and integration tests; re-exports the
//! member crates for convenient access from a single dependency.
//!
//! The run surface lives in [`fcache`]: pair a `SimConfig` with a
//! `Workload` (shared trace, per-job regenerated stream, or archived
//! file) in a `Scenario`, or fan a labeled grid of configurations out
//! with the `Sweep` builder — see `fcache::scenario` and the examples.

#![forbid(unsafe_code)]

pub use fcache;
pub use fcache_cache;
pub use fcache_des;
pub use fcache_device;
pub use fcache_filer;
pub use fcache_fsmodel;
pub use fcache_net;
pub use fcache_trace;
pub use fcache_types;
