//! # pifo-algos
//!
//! Every scheduling algorithm the paper programs on PIFOs (§2–§3),
//! implemented as scheduling/shaping transactions over `pifo-core`:
//!
//! | Algorithm | Paper | Here |
//! |-----------|-------|------|
//! | STFQ / WFQ | Fig 1 | [`stfq::Stfq`] |
//! | HPFQ (hierarchies) | Fig 3 | [`hpfq::Hierarchy`], [`hpfq::fig3_hpfq`] |
//! | Token Bucket Filter | Fig 4c | [`tbf::TokenBucketFilter`] |
//! | LSTF | Fig 6 | [`lstf::Lstf`] |
//! | Stop-and-Go | Fig 7 | [`stop_and_go::StopAndGo`] |
//! | Min-rate guarantees | Fig 8 | [`min_rate::MinRateGuarantee`], [`min_rate::min_rate_tree`] |
//! | FIFO, strict priority, SJF, SRPT, LAS, EDF | §3.4 | [`prio`] |
//! | SC-EDF | §3.4 | [`sced::ScEdf`] |
//! | RCSD (Jitter-EDD, HRR) | §3.4 | [`rcsd`] |
//! | CBQ | §3.4 | [`cbq::cbq_tree`] |
//!
//! The four tree constructors ([`Hierarchy::tree`], [`fig3_hpfq`],
//! [`cbq_tree`], [`min_rate_tree`]) return a description — a
//! [`TreeBuilder`](pifo_core::tree::TreeBuilder) and its classifier —
//! and leave the engine and the back-end to the caller: `build` or
//! `build_in_pool` for a software tree, `pifo-compiler`'s `compile` for
//! the hardware mesh.

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod cbq;
pub mod hpfq;
pub mod lstf;
pub mod min_rate;
pub mod prio;
pub mod rcsd;
pub mod sced;
pub mod stfq;
pub mod stop_and_go;
pub mod tbf;
pub mod weights;

pub use cbq::{cbq_tree, CbqClass, ClassPriority};
pub use hpfq::{fig3_hpfq, Hierarchy};
pub use lstf::{charge_wait, Lstf};
pub use min_rate::{min_rate_tree, MinRateGuarantee};
pub use prio::{Edf, Fifo, Las, Sjf, Srpt, StrictPriority};
pub use rcsd::{HierarchicalRoundRobin, JitterEdd};
pub use sced::{CurveSegment, ScEdf, ServiceCurve};
pub use stfq::Stfq;
pub use stop_and_go::StopAndGo;
pub use tbf::TokenBucketFilter;
pub use weights::WeightTable;
