//! Per-flow weight tables shared by the fair-queueing transactions.

use pifo_core::prelude::*;

/// Maps flows to scheduling weights. Flows without an explicit entry get
/// `default_weight` (1 unless overridden), so a weight table is never a
/// correctness hazard — only a fairness-policy input.
#[derive(Debug, Clone)]
pub struct WeightTable {
    weights: FlowMap<u64>,
    default_weight: u64,
}

impl Default for WeightTable {
    fn default() -> Self {
        Self::new()
    }
}

impl WeightTable {
    /// Empty table: every flow weighs 1.
    pub fn new() -> Self {
        WeightTable {
            weights: FlowMap::default(),
            default_weight: 1,
        }
    }

    /// Build from `(flow, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any weight is zero (a zero-weight flow would never finish).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (FlowId, u64)>) -> Self {
        let mut t = WeightTable::new();
        for (f, w) in pairs {
            t.set(f, w);
        }
        t
    }

    /// Set the weight of one flow.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero.
    pub fn set(&mut self, flow: FlowId, weight: u64) {
        assert!(weight > 0, "flow weight must be positive");
        self.weights.insert(flow, weight);
    }

    /// Change the weight applied to flows without an explicit entry.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero.
    pub fn set_default(&mut self, weight: u64) {
        assert!(weight > 0, "default weight must be positive");
        self.default_weight = weight;
    }

    /// The weight of `flow`.
    pub fn get(&self, flow: FlowId) -> u64 {
        self.weights
            .get(&flow)
            .copied()
            .unwrap_or(self.default_weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_weight_is_one() {
        let t = WeightTable::new();
        assert_eq!(t.get(FlowId(42)), 1);
    }

    #[test]
    fn explicit_weights_override() {
        let t = WeightTable::from_pairs([(FlowId(1), 3), (FlowId(2), 7)]);
        assert_eq!(t.get(FlowId(1)), 3);
        assert_eq!(t.get(FlowId(2)), 7);
        assert_eq!(t.get(FlowId(3)), 1);
    }

    #[test]
    fn set_default_changes_fallback() {
        let mut t = WeightTable::new();
        t.set_default(5);
        assert_eq!(t.get(FlowId(9)), 5);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        let mut t = WeightTable::new();
        t.set(FlowId(0), 0);
    }
}
