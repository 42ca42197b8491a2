//! Synthetic trace generator.
//!
//! Implements §4 of the paper exactly:
//!
//! > "We wrote a trace generator to produce large traces with
//! > characteristics similar to real traces. The trace generator starts
//! > from a list of files and file sizes from the Impressions file system
//! > generator. It samples this file server model to produce working sets,
//! > then samples these to produce I/O requests. A portion of the I/O
//! > requests are sampled instead from the whole file server. The
//! > distribution of I/Os among hosts and threads is uniform; the
//! > distribution of I/Os among files (and selection of files for working
//! > sets) is weighted by popularity, where small integer popularities are
//! > generated from a Zipfian distribution. The distribution of I/O sizes
//! > (and selection of file subregions for working sets) is Poisson,
//! > modified by clamping to the filesize. The distribution of I/O
//! > starting points (and file subregion starting points) is uniform."
//!
//! Baseline parameters (also from §4): 4 KB blocks, 80 % of I/Os from the
//! working set, eight threads per host, total volume four times the
//! working-set size with the first half used as warmup, 30 % writes.

#![forbid(unsafe_code)]

pub mod generator;
pub mod poisson;
pub mod working_set;

pub use generator::{generate, TraceGenConfig, TraceStream};
pub use poisson::poisson;
pub use working_set::{Extent, WorkingSet};
