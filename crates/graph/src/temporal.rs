//! Timestamped edge streams and snapshot extraction.
//!
//! The paper models an evolving network as a sequence of slices of node and
//! edge insertions; `G_t` aggregates all slices up to `t`. A
//! [`TemporalGraph`] is exactly that: an ordered stream of timestamped edges
//! over a fixed node universe, from which prefix snapshots are cut either by
//! timestamp or by edge fraction ("the first snapshot contains 80 percent of
//! the edges", §5.1).

use crate::graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// An edge insertion event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedEdge {
    /// One endpoint.
    pub u: NodeId,
    /// Other endpoint.
    pub v: NodeId,
    /// Insertion time (any monotone counter; ties allowed).
    pub time: u64,
}

/// An evolving graph: a fixed node universe plus a time-ordered edge stream.
///
/// Duplicate edge announcements are allowed in the stream (snapshots take
/// the set union); self-loops are dropped at snapshot time.
///
/// ```
/// use cp_graph::{NodeId, TemporalGraph};
///
/// let t = TemporalGraph::from_sequence(
///     3,
///     vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2)), (NodeId(0), NodeId(2))],
/// );
/// let (g1, g2) = t.snapshot_pair(0.5, 1.0);
/// assert_eq!(g1.num_edges(), 2); // ceil(0.5 * 3) = first two insertions
/// assert_eq!(g2.num_edges(), 3); // the whole triangle
/// assert_eq!(
///     TemporalGraph::new_edges_between(&g1, &g2),
///     vec![(NodeId(0), NodeId(2))]
/// );
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TemporalGraph {
    num_nodes: usize,
    events: Vec<TimedEdge>,
}

impl TemporalGraph {
    /// Creates a temporal graph from an event list; events are sorted by
    /// time (stable, so same-time events keep their given order).
    pub fn new(num_nodes: usize, mut events: Vec<TimedEdge>) -> Self {
        for e in &events {
            assert!(
                e.u.index() < num_nodes && e.v.index() < num_nodes,
                "event endpoint outside node universe"
            );
        }
        events.sort_by_key(|e| e.time);
        TemporalGraph { num_nodes, events }
    }

    /// Creates a temporal graph where event order *is* the timestamp.
    pub fn from_sequence(
        num_nodes: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Self {
        let events = edges
            .into_iter()
            .enumerate()
            .map(|(i, (u, v))| TimedEdge {
                u,
                v,
                time: i as u64,
            })
            .collect();
        TemporalGraph::new(num_nodes, events)
    }

    /// Size of the node universe.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total number of edge events (including duplicates).
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// The time-ordered event stream.
    pub fn events(&self) -> &[TimedEdge] {
        &self.events
    }

    /// Snapshot containing every edge inserted at time `<= t`.
    pub fn snapshot_at(&self, t: u64) -> Graph {
        let end = self.events.partition_point(|e| e.time <= t);
        self.snapshot_of_prefix(end)
    }

    /// Snapshot containing the first `ceil(fraction * num_events)` events.
    ///
    /// `fraction` is clamped to `[0, 1]`. This is the paper's snapshot
    /// convention ("`G_t1` contains 80 percent of the edges, `G_t2` the
    /// entire graph").
    pub fn snapshot_at_fraction(&self, fraction: f64) -> Graph {
        let f = fraction.clamp(0.0, 1.0);
        let end = (f * self.events.len() as f64).ceil() as usize;
        self.snapshot_of_prefix(end.min(self.events.len()))
    }

    /// Snapshot of the first `count` events.
    pub fn snapshot_of_prefix(&self, count: usize) -> Graph {
        let mut cursor = self.cursor();
        cursor.advance_to_prefix(count);
        cursor.materialize()
    }

    /// A forward-only cursor over the event stream, positioned before the
    /// first event. Use it to cut a *sequence* of growing snapshots without
    /// re-folding the shared prefix each time.
    pub fn cursor(&self) -> PrefixCursor<'_> {
        PrefixCursor {
            stream: self,
            consumed: 0,
            acc: GraphAccumulator::new(self.num_nodes),
        }
    }

    /// The pair of snapshots `(G_t1, G_t2)` at the given edge fractions;
    /// convenience for the standard experimental setup. A single cursor
    /// cuts both snapshots, so the `f1` prefix is folded only once.
    pub fn snapshot_pair(&self, f1: f64, f2: f64) -> (Graph, Graph) {
        assert!(f1 <= f2, "first snapshot must precede second");
        let mut cursor = self.cursor();
        cursor.advance_to_fraction(f1);
        let g1 = cursor.materialize();
        cursor.advance_to_fraction(f2);
        (g1, cursor.materialize())
    }

    /// Edges present in the second snapshot but not the first, as
    /// normalized `(min, max)` pairs, de-duplicated. These are the *new*
    /// edges whose endpoints form the Incidence baseline's active set.
    pub fn new_edges_between(g1: &Graph, g2: &Graph) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for u in g2.nodes() {
            for &v in g2.neighbors(u) {
                if u < v && !g1.has_edge(u, v) {
                    out.push((u, v));
                }
            }
        }
        out
    }
}

/// Incremental snapshot assembler: a growing *set* of normalized edges plus
/// per-node sorted adjacency, from which a CSR [`Graph`] can be cut at any
/// moment in `O(V + E)` without re-sorting the edge list.
///
/// Produces graphs **identical** (same edge-id assignment, same adjacency
/// order) to feeding the same events through [`GraphBuilder`]: edge ids are
/// the rank of the normalized `(min, max)` pair in sorted order, and
/// adjacency lists are sorted by target — both maintained incrementally
/// here. Only unweighted graphs are supported, matching [`TimedEdge`].
///
/// [`GraphBuilder`]: crate::builder::GraphBuilder
#[derive(Clone, Debug, Default)]
pub struct GraphAccumulator {
    num_nodes: usize,
    /// Normalized `(min, max)` edge set; iteration order defines edge ids.
    edges: BTreeSet<(NodeId, NodeId)>,
    /// Per-node adjacency, kept sorted by target.
    adj: Vec<Vec<NodeId>>,
}

impl GraphAccumulator {
    /// Creates an empty accumulator over a universe of `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        GraphAccumulator {
            num_nodes,
            edges: BTreeSet::new(),
            adj: vec![Vec::new(); num_nodes],
        }
    }

    /// Seeds an accumulator with every edge of an existing snapshot.
    pub fn from_graph(g: &Graph) -> Self {
        let mut acc = GraphAccumulator::new(g.num_nodes());
        for (u, v) in g.edges() {
            acc.insert_edge(u, v);
        }
        acc
    }

    /// Size of the node universe.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of distinct edges accumulated so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether the undirected edge `{u, v}` is already present.
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.contains(&(a, b))
    }

    /// Inserts the undirected edge `{u, v}`. Returns `true` if the edge is
    /// new; self-loops and duplicates are ignored and return `false`.
    ///
    /// # Panics
    /// Panics if an endpoint is outside the node universe.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(
            u.index() < self.num_nodes && v.index() < self.num_nodes,
            "edge ({u:?}, {v:?}) outside node universe of size {}",
            self.num_nodes
        );
        if u == v {
            return false;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        if !self.edges.insert((a, b)) {
            return false;
        }
        let slot = &mut self.adj[a.index()];
        let pos = slot.binary_search(&b).unwrap_err();
        slot.insert(pos, b);
        let slot = &mut self.adj[b.index()];
        let pos = slot.binary_search(&a).unwrap_err();
        slot.insert(pos, a);
        true
    }

    /// Cuts the current edge set as a CSR snapshot.
    pub fn materialize(&self) -> Graph {
        let n = self.num_nodes;
        let m = self.edges.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for slot in &self.adj {
            acc += slot.len();
            offsets.push(acc);
        }
        let mut targets = Vec::with_capacity(2 * m);
        for slot in &self.adj {
            targets.extend_from_slice(slot);
        }
        // Edge ids are the rank of the (min, max) pair in sorted order —
        // exactly the BTreeSet iteration order — so each arc's edge id is
        // found by locating the opposite endpoint in the (sorted) adjacency.
        let mut arc_edge = vec![0u32; 2 * m];
        for (e, &(a, b)) in self.edges.iter().enumerate() {
            let e32 = u32::try_from(e).expect("edge count exceeds u32");
            let pa = offsets[a.index()]
                + self.adj[a.index()]
                    .binary_search(&b)
                    .expect("adjacency out of sync with edge set");
            arc_edge[pa] = e32;
            let pb = offsets[b.index()]
                + self.adj[b.index()]
                    .binary_search(&a)
                    .expect("adjacency out of sync with edge set");
            arc_edge[pb] = e32;
        }
        let g = Graph {
            offsets,
            targets,
            arc_edge,
            weights: None,
            num_edges: m,
        };
        debug_assert_eq!(g.check_invariants(), Ok(()));
        g
    }
}

/// A forward-only cursor over a [`TemporalGraph`]'s event stream.
///
/// The cursor folds events into a [`GraphAccumulator`] exactly once, so a
/// sequence of `k` growing snapshot cuts costs `O(E log d)` total insertion
/// work plus `O(V + E)` per [`materialize`](Self::materialize) — instead of
/// the former `O(E log E)` rebuild per cut.
pub struct PrefixCursor<'a> {
    stream: &'a TemporalGraph,
    consumed: usize,
    acc: GraphAccumulator,
}

impl PrefixCursor<'_> {
    /// Number of events folded into the cursor so far.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Advances the cursor so the first `count` events are folded in.
    /// `count` is clamped to the stream length.
    ///
    /// # Panics
    /// Panics if `count` would move the cursor backwards.
    pub fn advance_to_prefix(&mut self, count: usize) {
        let count = count.min(self.stream.num_events());
        assert!(
            count >= self.consumed,
            "prefix cursor is forward-only: at {}, asked for {count}",
            self.consumed
        );
        for e in &self.stream.events()[self.consumed..count] {
            self.acc.insert_edge(e.u, e.v);
        }
        self.consumed = count;
    }

    /// Advances the cursor past every event with `time <= t`.
    ///
    /// # Panics
    /// Panics if `t` precedes the cursor's current position.
    pub fn advance_to_time(&mut self, t: u64) {
        let end = self.stream.events().partition_point(|e| e.time <= t);
        self.advance_to_prefix(end);
    }

    /// Advances the cursor to the first `ceil(fraction * num_events)`
    /// events, matching [`TemporalGraph::snapshot_at_fraction`].
    ///
    /// # Panics
    /// Panics if the fraction precedes the cursor's current position.
    pub fn advance_to_fraction(&mut self, fraction: f64) {
        let f = fraction.clamp(0.0, 1.0);
        let end = (f * self.stream.num_events() as f64).ceil() as usize;
        self.advance_to_prefix(end.min(self.stream.num_events()));
    }

    /// Cuts the snapshot of everything consumed so far.
    pub fn materialize(&self) -> Graph {
        self.acc.materialize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> TemporalGraph {
        TemporalGraph::from_sequence(
            5,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(0), NodeId(1)), // duplicate announcement
                (NodeId(2), NodeId(3)),
                (NodeId(3), NodeId(4)),
            ],
        )
    }

    #[test]
    fn prefix_snapshots_grow() {
        let t = stream();
        assert_eq!(t.snapshot_of_prefix(0).num_edges(), 0);
        assert_eq!(t.snapshot_of_prefix(2).num_edges(), 2);
        assert_eq!(t.snapshot_of_prefix(3).num_edges(), 2); // duplicate collapsed
        assert_eq!(t.snapshot_of_prefix(5).num_edges(), 4);
        assert_eq!(t.snapshot_of_prefix(999).num_edges(), 4);
    }

    #[test]
    fn fraction_snapshots() {
        let t = stream();
        let (g1, g2) = t.snapshot_pair(0.4, 1.0);
        assert_eq!(g1.num_edges(), 2); // ceil(0.4 * 5) = 2 events
        assert_eq!(g2.num_edges(), 4);
        assert_eq!(t.snapshot_at_fraction(0.0).num_edges(), 0);
        assert_eq!(t.snapshot_at_fraction(2.0).num_edges(), 4); // clamped
    }

    #[test]
    fn time_snapshots() {
        let events = vec![
            TimedEdge {
                u: NodeId(0),
                v: NodeId(1),
                time: 10,
            },
            TimedEdge {
                u: NodeId(1),
                v: NodeId(2),
                time: 20,
            },
            TimedEdge {
                u: NodeId(2),
                v: NodeId(0),
                time: 30,
            },
        ];
        let t = TemporalGraph::new(3, events);
        assert_eq!(t.snapshot_at(9).num_edges(), 0);
        assert_eq!(t.snapshot_at(10).num_edges(), 1);
        assert_eq!(t.snapshot_at(25).num_edges(), 2);
        assert_eq!(t.snapshot_at(u64::MAX).num_edges(), 3);
    }

    #[test]
    fn events_sorted_on_construction() {
        let events = vec![
            TimedEdge {
                u: NodeId(1),
                v: NodeId(2),
                time: 5,
            },
            TimedEdge {
                u: NodeId(0),
                v: NodeId(1),
                time: 1,
            },
        ];
        let t = TemporalGraph::new(3, events);
        assert_eq!(t.events()[0].time, 1);
        assert_eq!(t.num_events(), 2);
        assert_eq!(t.num_nodes(), 3);
    }

    #[test]
    fn new_edges_detected() {
        let t = stream();
        let (g1, g2) = t.snapshot_pair(0.4, 1.0);
        let new = TemporalGraph::new_edges_between(&g1, &g2);
        assert_eq!(new, vec![(NodeId(2), NodeId(3)), (NodeId(3), NodeId(4))]);
    }

    #[test]
    #[should_panic(expected = "outside node universe")]
    fn out_of_universe_event_panics() {
        TemporalGraph::from_sequence(2, vec![(NodeId(0), NodeId(5))]);
    }

    #[test]
    #[should_panic(expected = "precede")]
    fn inverted_fraction_pair_panics() {
        stream().snapshot_pair(0.9, 0.5);
    }

    /// The accumulator must produce graphs bit-identical to `GraphBuilder`
    /// fed the same events — same CSR layout *and* edge-id assignment.
    #[test]
    fn accumulator_matches_builder() {
        let t = stream();
        for count in 0..=t.num_events() {
            let mut b = crate::builder::GraphBuilder::with_capacity(t.num_nodes(), count);
            let mut acc = GraphAccumulator::new(t.num_nodes());
            for e in &t.events()[..count] {
                b.add_edge(e.u, e.v);
                acc.insert_edge(e.u, e.v);
            }
            assert_eq!(acc.materialize(), b.build(), "prefix {count}");
        }
    }

    #[test]
    fn accumulator_rejects_self_loops_and_duplicates() {
        let mut acc = GraphAccumulator::new(3);
        assert!(!acc.insert_edge(NodeId(1), NodeId(1)));
        assert!(acc.insert_edge(NodeId(0), NodeId(1)));
        assert!(!acc.insert_edge(NodeId(1), NodeId(0))); // reversed duplicate
        assert!(acc.contains_edge(NodeId(1), NodeId(0)));
        assert_eq!(acc.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "outside node universe")]
    fn accumulator_out_of_universe_panics() {
        GraphAccumulator::new(2).insert_edge(NodeId(0), NodeId(5));
    }

    #[test]
    fn cursor_cuts_growing_snapshots() {
        let t = stream();
        let mut cursor = t.cursor();
        cursor.advance_to_prefix(2);
        assert_eq!(cursor.materialize(), t.snapshot_of_prefix(2));
        cursor.advance_to_prefix(3); // duplicate event: no growth
        assert_eq!(cursor.materialize().num_edges(), 2);
        cursor.advance_to_fraction(1.0);
        assert_eq!(cursor.consumed(), 5);
        assert_eq!(cursor.materialize(), t.snapshot_of_prefix(5));
    }

    #[test]
    #[should_panic(expected = "forward-only")]
    fn cursor_is_forward_only() {
        let t = stream();
        let mut cursor = t.cursor();
        cursor.advance_to_prefix(4);
        cursor.advance_to_prefix(2);
    }

    #[test]
    fn accumulator_seeded_from_graph() {
        let t = stream();
        let g = t.snapshot_of_prefix(5);
        let acc = GraphAccumulator::from_graph(&g);
        assert_eq!(acc.materialize(), g);
    }
}
