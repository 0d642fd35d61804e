//! # pifo-sim
//!
//! A deterministic discrete-event network-simulation substrate for the
//! PIFO reproduction: traffic generators (CBR, Poisson, deterministic
//! and Markov on/off bursts, incast, heavy-tailed flow workloads), the
//! one output-port loop ([`port`]) that [`run_port`] and the [`switch`]
//! fabric drive (the [`lossless`] fabric decides its own rounds, for
//! skid buffers and pauses, and shares only the port's transmit),
//! multi-hop paths, metric collectors, the fixed-function FIFO and DRR
//! baselines the paper contrasts against (§1), a fluid GPS reference for
//! fairness ground truth, and the pFabric reference queue used by the
//! §3.5 inexpressibility demonstration.
//!
//! Everything is seeded and deterministic: identical inputs produce
//! identical outputs, bit for bit — including the [`switch`] fabric's
//! multi-core drain ([`Switch::run`] on one worker per CPU by default),
//! whose merged traces are differentially pinned against one worker.
//!
//! Observability rides along without steering: build a fabric with
//! [`SwitchBuilder::with_telemetry`] and every port tree records flight
//! recorder events, optional per-packet path records
//! ([`PortTrace::path`]), and sampled gauges, merged after a run by
//! [`Switch::telemetry_snapshot`] (or [`LosslessRun::telemetry`] for the
//! lossless fabric) — with departure traces bit-identical to a
//! telemetry-off run.

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod baselines;
pub mod gps;
pub mod lossless;
pub mod metrics;
pub mod pfabric_ref;
pub mod pipeline;
pub mod port;
pub mod scheduler;
pub mod switch;
pub mod traffic;

pub use baselines::{DrrSched, FifoSched};
pub use gps::FluidGps;
pub use lossless::{
    FabricStall, FaultPlan, LosslessConfig, LosslessFabric, LosslessRun, PauseAction, PauseEvent,
    SourcePauseStats, StallKind, Watermarks,
};
pub use metrics::{
    flow_completions, jain_index, latency_stats, throughput, waits_of, FlowCompletion,
    LatencyStats, ThroughputReport,
};
pub use pfabric_ref::PFabricQueue;
pub use pipeline::{run_pipeline, Hop, PipelineResult};
pub use port::{run_port, Departure, PortConfig};
pub use scheduler::{PortScheduler, TreeScheduler};
pub use switch::{PathView, PortClassifier, PortTrace, Switch, SwitchBuilder, SwitchRun};
pub use traffic::{
    flow_workload, merge, renumber, CbrSource, FlowSpec, IncastSource, MarkovOnOffSource,
    OnOffSource, PoissonSource, SizeDistribution, TrafficSource,
};
