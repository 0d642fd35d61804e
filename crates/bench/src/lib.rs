//! # pifo-bench
//!
//! Experiment drivers (`repro` binary) and three bench mains under
//! `benches/` (`approx_quality`, `parallel_drain`, `tree_hotpath`).
//!
//! Every table and figure of the paper has a regenerator here — run
//! `cargo run -p pifo-bench --bin repro --release -- list` for the
//! experiment index, `… -- <id>` for one experiment, or `… -- all` for
//! everything.

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
