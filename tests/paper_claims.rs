//! The paper's quantitative claims, asserted end-to-end through the
//! public API — machine-checked versions of the paper-vs-measured
//! record printed by `repro all`.

use pifo_algos::{fig3_hpfq, Hierarchy, TokenBucketFilter};
use pifo_compiler::{layout, MeshLayout};
use pifo_core::prelude::*;
use pifo_hw::BlockConfig;
use pifo_synth::{AreaModel, TimingModel};

/// Fig 4: Fig 3's HPFQ with a token bucket on Right.
fn fig4() -> TreeBuilder {
    let (mut tree, _, leaf_of) = fig3_hpfq();
    tree.set_shaper(
        leaf_of[&FlowId(2)],
        Box::new(TokenBucketFilter::new(10_000_000, 15_000)),
    );
    tree
}

/// §1's headline: five WFQ levels in a chain.
fn five_levels() -> TreeBuilder {
    let leaf = Hierarchy::leaf("L5", vec![(FlowId(0), 1)]);
    let chain = (1..5).rev().fold(leaf, |c, l| {
        Hierarchy::class(&format!("L{l}"), vec![(1, c)])
    });
    chain.tree().0
}

/// §1 / §5.3: "<4% chip area overhead relative to a shared-memory
/// switch" for the full 5-block mesh including rank-computation atoms.
#[test]
fn headline_area_overhead_under_4_percent() {
    let m = AreaModel::calibrated();
    let overhead = m.overhead_fraction(&BlockConfig::default(), 5, pifo_synth::model::MESH_ATOMS);
    assert!(
        overhead < 0.04,
        "overhead {:.2}% must stay under 4%",
        overhead * 100.0
    );
}

/// Table 2's scaling shape: area ~doubles per flow doubling; timing is
/// met up to 2048 flows and fails at 4096.
#[test]
fn table2_shape() {
    let m = AreaModel::calibrated();
    let t = TimingModel::default();
    let mut prev = 0.0;
    for flows in [256usize, 512, 1024, 2048, 4096] {
        let cfg = BlockConfig {
            n_flows: flows,
            ..BlockConfig::default()
        };
        let area = m.flow_scheduler_mm2(&cfg);
        if prev > 0.0 {
            let ratio = area / prev;
            assert!(
                (1.8..=2.2).contains(&ratio),
                "area ratio per doubling {ratio:.2} at {flows}"
            );
        }
        prev = area;
        assert_eq!(t.meets_1ghz(&cfg), flows <= 2048, "timing cliff at {flows}");
    }
}

/// §5.1: the baseline block buffers 60 K elements over ~1 K flows —
/// Trident-class requirements fit the default configuration.
#[test]
fn trident_requirements_fit() {
    let cfg = BlockConfig::default();
    assert!(cfg.rank_store_capacity >= 60_000, "60K packets");
    assert!(cfg.n_flows >= 1_000, "1K flows");
}

/// §5.4: 106 bits per wire set; 2120 bits for the 5-block full mesh; and
/// the claim that RMT's inter-stage wiring is ~2x this (§5.4 cites 4 Kb
/// packet header vectors; we just sanity-check our own arithmetic).
#[test]
fn wiring_bits() {
    let cfg = BlockConfig::default();
    assert_eq!(MeshLayout::wire_set_bits(&cfg), 106);
    let five = layout(&five_levels()).expect("compiles");
    assert_eq!(five.total_wiring_bits(&cfg), 2_120);
    // A 3-block mesh (Fig 11) needs 3*2 = 6 sets.
    let three = layout(&fig4()).expect("compiles");
    assert_eq!(three.total_wiring_bits(&cfg), 6 * 106);
}

/// §4.2: "we expect a small number of PIFO blocks in a typical switch
/// (e.g., less than five)" — all the paper's example programs fit 5.
#[test]
fn papers_examples_fit_five_blocks() {
    for tree in [fig3_hpfq().0, fig4(), five_levels()] {
        let placed = layout(&tree).expect("compiles");
        assert!(placed.n_blocks <= 5, "{} blocks", placed.n_blocks);
    }
}

/// §4.1: every figure transaction compiles with the Domino atom
/// vocabulary; STFQ needs exactly `Pairs`.
#[test]
fn figure_transactions_compile_at_line_rate() {
    use domino_lite::ast::AtomKind;
    for (name, src) in domino_lite::figures::all_figures() {
        let prog = domino_lite::parse(src).expect("parses");
        domino_lite::compile(&prog, AtomKind::Pairs).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    let stfq = domino_lite::parse(domino_lite::figures::STFQ_SRC).expect("parses");
    assert_eq!(
        domino_lite::analyze(&stfq).expect("analyzes").required_atom,
        AtomKind::Pairs
    );
    assert!(domino_lite::compile(&stfq, AtomKind::NestedIf).is_err());
}
