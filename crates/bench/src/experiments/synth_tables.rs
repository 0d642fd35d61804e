//! T1 / T2 / W / F9: synthesis tables and mesh compilation.

use pifo_algos::{fig3_hpfq, TokenBucketFilter};
use pifo_compiler::{layout, MeshLayout};
use pifo_core::prelude::FlowId;
use pifo_hw::BlockConfig;
use std::fmt::Write as _;

/// Table 1 at the paper's baseline configuration.
pub fn table1() -> String {
    pifo_synth::render_table1(&BlockConfig::default())
}

/// Table 2: the flow-count sweep.
pub fn table2() -> String {
    pifo_synth::render_table2()
}

/// §5.4 wiring analysis for the 5-block mesh.
pub fn wiring() -> String {
    pifo_synth::render_wiring(&BlockConfig::default(), 5)
}

/// Figs 10b/11b plus the 5-level layout.
pub fn compile_figs() -> String {
    let mut s = String::new();
    let (mut hpfq, _, leaf_of) = fig3_hpfq();
    let _ = writeln!(s, "== HPFQ (Fig 10b) ==");
    s.push_str(&layout(&hpfq).expect("fits").render());
    // Fig 4: Fig 3 with a token bucket on Right.
    let right = leaf_of[&FlowId(2)];
    hpfq.set_shaper(right, Box::new(TokenBucketFilter::new(10_000_000, 15_000)));
    let _ = writeln!(s, "\n== Hierarchies with Shaping (Fig 11b) ==");
    s.push_str(&layout(&hpfq).expect("fits").render());
    let _ = writeln!(s, "\n== 5-level hierarchy (Sec 1 headline) ==");
    let five = layout(&super::hwdemo::five_levels(1_000).tree().0).expect("fits");
    s.push_str(&five.render());
    let cfg = BlockConfig::default();
    let _ = writeln!(
        s,
        "wiring: {} bits/set, {} bits total",
        MeshLayout::wire_set_bits(&cfg),
        five.total_wiring_bits(&cfg)
    );
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn tables_render() {
        assert!(super::table1().contains("PIFO block"));
        assert!(super::table2().contains("4096"));
        assert!(super::wiring().contains("2120"));
        assert!(super::compile_figs().contains("WFQ_Root"));
    }
}
