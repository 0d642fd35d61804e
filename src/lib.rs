//! # pifo — Programmable Packet Scheduling at Line Rate
//!
//! Umbrella crate re-exporting the full reproduction of the SIGCOMM 2016
//! PIFO paper:
//!
//! * [`core`] (`pifo-core`) — the push-in first-out queue and the
//!   scheduling/shaping transaction tree programming model (§2);
//! * [`algos`] (`pifo-algos`) — every algorithm the paper programs on
//!   PIFOs: STFQ/WFQ, HPFQ, token buckets, LSTF, Stop-and-Go, min-rate
//!   guarantees, SJF/SRPT/LAS/EDF, SC-EDF, RCSD, CBQ (§2–§3);
//! * [`domino`] (`domino-lite`) — the transaction language and atom
//!   pipeline compiler substrate (§4.1);
//! * [`hw`] (`pifo-hw`) — the flow-scheduler/rank-store block and PIFO
//!   mesh hardware model (§4.2, §5.2);
//! * [`compiler`] (`pifo-compiler`) — scheduling trees → mesh
//!   configurations (§4.3, Figs 10–11);
//! * [`sim`] (`pifo-sim`) — deterministic network simulation: traffic,
//!   ports, the multi-port switch fabric, baselines, metrics;
//! * [`synth`] (`pifo-synth`) — the calibrated 16 nm area/timing model
//!   regenerating Tables 1–2 and the §5.4 wiring analysis.
//!
//! See `examples/quickstart.rs` for a five-minute tour, `ARCHITECTURE.md`
//! for the crate map and data flow, and `cargo run -p pifo-bench --bin
//! repro --release -- list` for the index of paper experiments.

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub use domino_lite as domino;
pub use pifo_algos as algos;
pub use pifo_compiler as compiler;
pub use pifo_core as core;
pub use pifo_hw as hw;
pub use pifo_sim as sim;
pub use pifo_synth as synth;

/// Everything most programs need, in one import.
pub mod prelude {
    pub use pifo_algos::{
        cbq_tree, charge_wait, fig3_hpfq, min_rate_tree, CbqClass, Edf, Fifo, Hierarchy, Las, Lstf,
        MinRateGuarantee, ScEdf, ServiceCurve, Sjf, Srpt, Stfq, StopAndGo, StrictPriority,
        TokenBucketFilter, WeightTable,
    };
    pub use pifo_core::prelude::*;
    pub use pifo_sim::{
        flow_workload, jain_index, latency_stats, merge, renumber, run_pipeline, run_port,
        throughput, CbrSource, Departure, DrrSched, FabricStall, FaultPlan, FifoSched, FluidGps,
        Hop, IncastSource, LosslessConfig, LosslessFabric, LosslessRun, MarkovOnOffSource,
        PFabricQueue, PauseAction, PauseEvent, PoissonSource, PortConfig, PortScheduler,
        SizeDistribution, SourcePauseStats, StallKind, Switch, SwitchBuilder, SwitchRun,
        TrafficSource, TreeScheduler, Watermarks,
    };
}
