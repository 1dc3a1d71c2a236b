//! Pruning configuration for the Pareto-DW dynamic programs.

/// Which acceleration rules the DP applies (paper §V-A, Lemmas 2–4).
///
/// All rules are *exact* (they never change the computed frontier); tests
/// compare pruned and unpruned runs. The default enables everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DwConfig {
    /// Lemma 2: skip Hanan-grid nodes that are corner nodes (no pin in one
    /// of their four closed quadrants).
    pub corner_pruning: bool,
    /// Lemma 3: only run the subset-merge transition at nodes inside the
    /// bounding box of the subset's pins (outside nodes are reached by
    /// projection + edge growth).
    pub bbox_shortcut: bool,
    /// Lemma 4: when every pin of the current subset lies on the grid
    /// boundary, only split the subset into circularly consecutive runs.
    pub separator_split: bool,
}

impl Default for DwConfig {
    fn default() -> Self {
        DwConfig {
            corner_pruning: true,
            bbox_shortcut: true,
            separator_split: true,
        }
    }
}

impl DwConfig {
    /// A configuration with every pruning rule disabled — the reference
    /// the pruned runs are tested against.
    pub fn unpruned() -> Self {
        DwConfig {
            corner_pruning: false,
            bbox_shortcut: false,
            separator_split: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_all_lemmas() {
        let c = DwConfig::default();
        assert!(c.corner_pruning && c.bbox_shortcut && c.separator_split);
    }

    #[test]
    fn unpruned_disables_all_lemmas() {
        let c = DwConfig::unpruned();
        assert!(!c.corner_pruning && !c.bbox_shortcut && !c.separator_split);
    }
}
