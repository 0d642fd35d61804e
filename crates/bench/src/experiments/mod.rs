//! Experiment registry: one function per paper table/figure.
//!
//! Experiments that build scheduling trees do so through
//! [`tree_builder`] (or set [`backend`] on a `pifo-algos` description's
//! builder), so the whole suite can be re-run on any PIFO queue
//! engine: the `repro` binary's `--backend` flag (any name in
//! [`BACKEND_NAMES`](pifo_core::pifo::BACKEND_NAMES), parsed by
//! `pifo_bench::cli`) calls [`set_backend`] before dispatching. For the
//! *exact* engines, backend choice never changes the results (they are
//! observationally equivalent — enforced by the differential property
//! suites); running the suite per backend in CI catches engine
//! regressions at experiment scale. The approximate engines (`sp-pifo`,
//! `rifo`, `aifo`) relax the sorted pop, so their experiment output is a
//! measurement, not a golden trace: `sp-pifo` legally reorders
//! departures, while `rifo` and `aifo` only gate admission to a bounded
//! queue by rank — and tree nodes are unbounded — so on them every node
//! is a plain FIFO.

use pifo_core::prelude::*;
use std::sync::Mutex;

pub mod fairness;
pub mod fct;
pub mod hwdemo;
pub mod language;
pub mod latency;
pub mod limits;
pub mod lossless;
pub mod synth_tables;
pub mod telemetry;

/// Which PIFO backend experiment trees are built with; `None` until
/// [`set_backend`] is called. A `Mutex` rather than an atomic index into
/// [`PifoBackend::ALL`]: parameterised selectors like `sp-pifo:4` are
/// not members of the canonical array, so the value itself must be
/// stored.
static BACKEND: Mutex<Option<PifoBackend>> = Mutex::new(None);

/// Select the PIFO queue engine used by every subsequently-run
/// experiment that builds a scheduling tree.
pub fn set_backend(backend: PifoBackend) {
    *BACKEND.lock().expect("backend lock poisoned") = Some(backend);
}

/// The currently selected experiment backend: the last
/// [`set_backend`] choice, else [`PifoBackend::default`] — the engine
/// `TreeBuilder::new()` hands out, so library callers and a
/// flag-less `repro` agree.
pub fn backend() -> PifoBackend {
    BACKEND
        .lock()
        .expect("backend lock poisoned")
        .unwrap_or_default()
}

/// A `TreeBuilder` pre-configured with the selected backend — every
/// experiment that assembles a tree by hand starts from this.
pub fn tree_builder() -> TreeBuilder {
    let mut b = TreeBuilder::new();
    b.with_backend(backend());
    b
}

/// One experiment: `(id, description, runner)`.
pub type Experiment = (&'static str, &'static str, fn() -> String);

/// All experiments: `(id, description, runner)`.
pub fn registry() -> Vec<Experiment> {
    vec![
        (
            "table1",
            "Table 1: mesh area breakdown",
            synth_tables::table1 as fn() -> String,
        ),
        (
            "table2",
            "Table 2: flow-scheduler area & timing vs #flows",
            synth_tables::table2,
        ),
        (
            "wiring",
            "Sec 5.4: full-mesh wiring bits",
            synth_tables::wiring,
        ),
        (
            "compile",
            "Figs 10-11: tree -> mesh compilation",
            synth_tables::compile_figs,
        ),
        (
            "fig2",
            "Fig 2: PIFO tree encodes scheduling order",
            hwdemo::fig2,
        ),
        (
            "stfq",
            "Fig 1: STFQ weighted fairness vs GPS & DRR",
            fairness::stfq,
        ),
        (
            "hpfq",
            "Fig 3: HPFQ hierarchical shares (vs flat WFQ)",
            fairness::hpfq,
        ),
        (
            "shaping",
            "Fig 4: Hierarchies with Shaping (10 Mbit/s cap)",
            fairness::shaping,
        ),
        (
            "minrate",
            "Fig 8: min-rate guarantees (2-level vs collapsed)",
            fairness::minrate,
        ),
        (
            "buffers",
            "Sec 6.1: buffer thresholds fix tail-drop lockout",
            fairness::buffers,
        ),
        (
            "lstf",
            "Fig 6: LSTF tail latency across 3 hops",
            latency::lstf,
        ),
        (
            "stopgo",
            "Fig 7: Stop-and-Go framing & delay bound",
            latency::stopgo,
        ),
        (
            "srpt",
            "Sec 1/3.4: SRPT/SJF vs FIFO flow completion times",
            fct::srpt,
        ),
        (
            "block",
            "Fig 12-13: PIFO block at Trident scale",
            hwdemo::block,
        ),
        (
            "conflicts",
            "Sec 4.3: shaping conflicts & 1.25x overclock",
            hwdemo::conflicts,
        ),
        (
            "fivelevel",
            "Sec 1: 5-level programmable hierarchy on the mesh",
            hwdemo::fivelevel,
        ),
        (
            "pfabric",
            "Sec 3.5: the pFabric inexpressibility counterexample",
            limits::pfabric,
        ),
        (
            "domino",
            "Sec 4.1: transactions -> atom pipelines",
            language::domino,
        ),
        (
            "pfc",
            "Sec 6.2: lossless fabric — PFC pause/resume & fault watchdog",
            lossless::pfc,
        ),
        (
            "telemetry",
            "Observability: flight recorder, path records, gauges",
            telemetry::tour,
        ),
    ]
}

/// Run one experiment by id.
pub fn run(id: &str) -> Option<String> {
    registry()
        .into_iter()
        .find(|(eid, _, _)| *eid == id)
        .map(|(_, _, f)| f())
}
