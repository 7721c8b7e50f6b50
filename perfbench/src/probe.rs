//! A forwarding selector that times `rank` from outside the library.

use crate::trace::{SpanRef, Tracer};
use cp_core::oracle::SnapshotOracle;
use cp_core::selectors::CandidateSelector;
use cp_graph::NodeId;

/// Wraps a selector: records a `rank` span under the run's span, and
/// reads the oracle's SSSP clock and the ranking as they pass through.
pub struct Probe<'s, 't> {
    inner: &'s mut dyn CandidateSelector,
    tracer: &'t mut Tracer,
    tag: &'static str,
    id: u64,
    parent: SpanRef,
    /// Oracle SSSP seconds spent inside `rank`.
    pub rank_sssp_secs: f64,
    /// Ranked nodes with an edge in `G_t1`.
    pub ranked_active: u64,
}

impl<'s, 't> Probe<'s, 't> {
    /// Wraps `inner` for the run whose span is `parent`.
    pub fn new(
        inner: &'s mut dyn CandidateSelector,
        tracer: &'t mut Tracer,
        tag: &'static str,
        id: u64,
        parent: SpanRef,
    ) -> Self {
        Probe {
            inner,
            tracer,
            tag,
            id,
            parent,
            rank_sssp_secs: 0.0,
            ranked_active: 0,
        }
    }
}

impl CandidateSelector for Probe<'_, '_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn rank(&mut self, oracle: &mut SnapshotOracle<'_>) -> Vec<NodeId> {
        let sssp_before = oracle.sssp_secs();
        let span = self.tracer.open("rank", self.tag, self.id, self.parent);
        let ranked = self.inner.rank(oracle);
        self.tracer.close(span);
        self.rank_sssp_secs = oracle.sssp_secs() - sssp_before;
        let g1 = oracle.g1();
        self.ranked_active = ranked.iter().filter(|&&u| g1.degree(u) > 0).count() as u64;
        ranked
    }
}
