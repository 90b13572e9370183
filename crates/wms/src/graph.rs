//! The workflow DAG model.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::GraphError;

/// Identifies a processing step within one workflow graph.
///
/// Step ids are dense indices assigned by [`GraphBuilder::add_step`] and are
/// only meaningful relative to the graph that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StepId(pub(crate) usize);

impl StepId {
    /// The dense index of this step (stable for the graph's lifetime).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for StepId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step#{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct StepNode {
    name: String,
    preds: Vec<StepId>,
    succs: Vec<StepId>,
}

/// An immutable, validated workflow DAG.
///
/// Construct with [`GraphBuilder`]; construction fails on cycles, duplicate
/// step names or dangling edges, so every `WorkflowGraph` is a valid DAG.
#[derive(Debug, Clone)]
pub struct WorkflowGraph {
    name: String,
    nodes: Vec<StepNode>,
    by_name: BTreeMap<String, StepId>,
    topo: Vec<StepId>,
    /// Per-step level, indexed by step: 0 for sources, otherwise one more
    /// than the deepest predecessor.
    levels: Vec<usize>,
}

impl WorkflowGraph {
    /// The workflow name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the graph has no steps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The display name of a step.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn step_name(&self, id: StepId) -> &str {
        &self.nodes[id.0].name
    }

    /// Looks a step up by name.
    #[must_use]
    pub fn step_id(&self, name: &str) -> Option<StepId> {
        self.by_name.get(name).copied()
    }

    /// Direct predecessors of a step.
    #[must_use]
    pub fn predecessors(&self, id: StepId) -> &[StepId] {
        &self.nodes[id.0].preds
    }

    /// Direct successors of a step.
    #[must_use]
    pub fn successors(&self, id: StepId) -> &[StepId] {
        &self.nodes[id.0].succs
    }

    /// Steps with no predecessors (workflow inputs).
    #[must_use]
    pub fn sources(&self) -> Vec<StepId> {
        (0..self.nodes.len())
            .map(StepId)
            .filter(|id| self.nodes[id.0].preds.is_empty())
            .collect()
    }

    /// Steps with no successors — the steps whose containers hold the
    /// *workflow output* in the paper's sense.
    #[must_use]
    pub fn sinks(&self) -> Vec<StepId> {
        (0..self.nodes.len())
            .map(StepId)
            .filter(|id| self.nodes[id.0].succs.is_empty())
            .collect()
    }

    /// A topological ordering of all steps (stable across calls).
    ///
    /// Steps appear in non-decreasing [`level`](Self::level), so each
    /// level is one contiguous run of the order.
    #[must_use]
    pub fn topo_order(&self) -> &[StepId] {
        &self.topo
    }

    /// The step's level: 0 for sources, otherwise one more than the
    /// deepest predecessor's level. Steps of one level never depend on
    /// each other.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn level(&self, id: StepId) -> usize {
        self.levels[id.0]
    }

    /// Iterates all step ids in insertion order.
    pub fn step_ids(&self) -> impl Iterator<Item = StepId> + '_ {
        (0..self.nodes.len()).map(StepId)
    }

    /// Returns `true` if `a` precedes `b` transitively (`a ≺ b`).
    #[must_use]
    pub fn precedes(&self, a: StepId, b: StepId) -> bool {
        let mut stack = vec![a];
        let mut seen = vec![false; self.nodes.len()];
        while let Some(cur) = stack.pop() {
            for &s in &self.nodes[cur.0].succs {
                if s == b {
                    return true;
                }
                if !seen[s.0] {
                    seen[s.0] = true;
                    stack.push(s);
                }
            }
        }
        false
    }
}

/// Incrementally builds a [`WorkflowGraph`].
///
/// # Example
///
/// ```
/// use smartflux_wms::GraphBuilder;
///
/// # fn main() -> Result<(), smartflux_wms::GraphError> {
/// let mut b = GraphBuilder::new("fire-risk");
/// let update = b.add_step("map-update");
/// let areas = b.add_step("calculate-areas");
/// let risk = b.add_step("assess-area-risk");
/// b.add_edge(update, areas)?;
/// b.add_edge(areas, risk)?;
/// let graph = b.build()?;
/// assert_eq!(graph.topo_order().len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    name: String,
    nodes: Vec<StepNode>,
    by_name: BTreeMap<String, StepId>,
    duplicate: Option<String>,
}

impl GraphBuilder {
    /// Starts a new graph with the given workflow name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            by_name: BTreeMap::new(),
            duplicate: None,
        }
    }

    /// Adds a step and returns its id.
    ///
    /// Duplicate names are detected at [`build`](Self::build) time.
    pub fn add_step(&mut self, name: impl Into<String>) -> StepId {
        let name = name.into();
        let id = StepId(self.nodes.len());
        if self.by_name.contains_key(&name) && self.duplicate.is_none() {
            self.duplicate = Some(name.clone());
        }
        self.by_name.insert(name.clone(), id);
        self.nodes.push(StepNode {
            name,
            preds: Vec::new(),
            succs: Vec::new(),
        });
        id
    }

    /// Adds a dependency edge `from → to` (`from` must complete before `to`).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownStep`] if either endpoint was not created
    /// by this builder, and [`GraphError::SelfLoop`] for `from == to`.
    /// Duplicate edges are ignored.
    pub fn add_edge(&mut self, from: StepId, to: StepId) -> Result<(), GraphError> {
        if from.0 >= self.nodes.len() || to.0 >= self.nodes.len() {
            return Err(GraphError::UnknownStep(from.0.max(to.0)));
        }
        if from == to {
            return Err(GraphError::SelfLoop(self.nodes[from.0].name.clone()));
        }
        if !self.nodes[from.0].succs.contains(&to) {
            self.nodes[from.0].succs.push(to);
            self.nodes[to.0].preds.push(from);
        }
        Ok(())
    }

    /// Convenience: adds a linear chain of edges through the given steps.
    ///
    /// # Errors
    ///
    /// Same as [`add_edge`](Self::add_edge).
    pub fn add_chain(&mut self, steps: &[StepId]) -> Result<(), GraphError> {
        for pair in steps.windows(2) {
            self.add_edge(pair[0], pair[1])?;
        }
        Ok(())
    }

    /// Validates and freezes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateStepName`] if two steps share a name,
    /// [`GraphError::Cycle`] if the edges contain a cycle, and
    /// [`GraphError::Empty`] for a graph with no steps.
    pub fn build(self) -> Result<WorkflowGraph, GraphError> {
        if let Some(name) = self.duplicate {
            return Err(GraphError::DuplicateStepName(name));
        }
        if self.nodes.is_empty() {
            return Err(GraphError::Empty(self.name));
        }
        let topo = topo_sort(&self.nodes).ok_or_else(|| GraphError::Cycle(self.name.clone()))?;
        let mut levels = vec![0; self.nodes.len()];
        for &step in &topo {
            levels[step.0] = self.nodes[step.0]
                .preds
                .iter()
                .map(|p| levels[p.0] + 1)
                .max()
                .unwrap_or(0);
        }
        Ok(WorkflowGraph {
            name: self.name,
            nodes: self.nodes,
            by_name: self.by_name,
            topo,
            levels,
        })
    }
}

/// Kahn's algorithm; returns `None` on a cycle. Ties are broken by insertion
/// order so the ordering is deterministic.
///
/// The ready list is a FIFO queue, so steps leave it level by level: a
/// step becomes ready when its deepest (last-emitted) predecessor is
/// emitted, so the queue only ever holds levels `d` and `d + 1`, in that
/// order. The scheduler's level-parallel waves rely on this.
fn topo_sort(nodes: &[StepNode]) -> Option<Vec<StepId>> {
    let mut indegree: Vec<usize> = nodes.iter().map(|n| n.preds.len()).collect();
    let mut ready: Vec<usize> = (0..nodes.len()).filter(|&i| indegree[i] == 0).collect();
    ready.sort_unstable();
    let mut order = Vec::with_capacity(nodes.len());
    let mut cursor = 0;
    while cursor < ready.len() {
        let i = ready[cursor];
        cursor += 1;
        order.push(StepId(i));
        // Collect newly-ready successors, keeping deterministic order.
        let mut newly: Vec<usize> = Vec::new();
        for &s in &nodes[i].succs {
            indegree[s.0] -= 1;
            if indegree[s.0] == 0 {
                newly.push(s.0);
            }
        }
        newly.sort_unstable();
        ready.extend(newly);
    }
    if order.len() == nodes.len() {
        Some(order)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (WorkflowGraph, [StepId; 4]) {
        let mut b = GraphBuilder::new("diamond");
        let a = b.add_step("a");
        let l = b.add_step("l");
        let r = b.add_step("r");
        let d = b.add_step("d");
        b.add_edge(a, l).unwrap();
        b.add_edge(a, r).unwrap();
        b.add_edge(l, d).unwrap();
        b.add_edge(r, d).unwrap();
        (b.build().unwrap(), [a, l, r, d])
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, [a, l, r, d]) = diamond();
        let pos = |id: StepId| g.topo_order().iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(l));
        assert!(pos(a) < pos(r));
        assert!(pos(l) < pos(d));
        assert!(pos(r) < pos(d));
    }

    #[test]
    fn levels_follow_the_deepest_predecessor() {
        let mut b = GraphBuilder::new("skew");
        let a = b.add_step("a");
        let x = b.add_step("x");
        let y = b.add_step("y");
        let j = b.add_step("j");
        b.add_chain(&[a, x, y, j]).unwrap();
        b.add_edge(a, j).unwrap();
        let g = b.build().unwrap();
        assert_eq!(
            [a, x, y, j].map(|s| g.level(s)),
            [0, 1, 2, 3],
            "a short edge does not pull the join up"
        );
        let (d, [a, l, r, j]) = diamond();
        assert_eq!([a, l, r, j].map(|s| d.level(s)), [0, 1, 1, 2]);
    }

    #[test]
    fn sources_and_sinks() {
        let (g, [a, _, _, d]) = diamond();
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![d]);
    }

    #[test]
    fn precedes_is_transitive() {
        let (g, [a, l, _, d]) = diamond();
        assert!(g.precedes(a, d));
        assert!(g.precedes(l, d));
        assert!(!g.precedes(d, a));
        assert!(!g.precedes(l, a));
    }

    #[test]
    fn cycle_is_rejected() {
        let mut b = GraphBuilder::new("cyclic");
        let a = b.add_step("a");
        let c = b.add_step("b");
        b.add_edge(a, c).unwrap();
        b.add_edge(c, a).unwrap();
        assert!(matches!(b.build(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn self_loop_is_rejected_immediately() {
        let mut b = GraphBuilder::new("w");
        let a = b.add_step("a");
        assert!(matches!(b.add_edge(a, a), Err(GraphError::SelfLoop(_))));
    }

    #[test]
    fn duplicate_names_rejected_at_build() {
        let mut b = GraphBuilder::new("w");
        b.add_step("a");
        b.add_step("a");
        assert!(matches!(b.build(), Err(GraphError::DuplicateStepName(_))));
    }

    #[test]
    fn empty_graph_rejected() {
        assert!(matches!(
            GraphBuilder::new("w").build(),
            Err(GraphError::Empty(_))
        ));
    }

    #[test]
    fn lookup_by_name() {
        let (g, [a, ..]) = diamond();
        assert_eq!(g.step_id("a"), Some(a));
        assert_eq!(g.step_id("zz"), None);
        assert_eq!(g.step_name(a), "a");
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut b = GraphBuilder::new("w");
        let a = b.add_step("a");
        let c = b.add_step("c");
        b.add_edge(a, c).unwrap();
        b.add_edge(a, c).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.successors(a), &[c]);
        assert_eq!(g.predecessors(c), &[a]);
    }

    #[test]
    fn add_chain_links_sequentially() {
        let mut b = GraphBuilder::new("w");
        let s: Vec<StepId> = (0..4).map(|i| b.add_step(format!("s{i}"))).collect();
        b.add_chain(&s).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.predecessors(s[3]), &[s[2]]);
        assert_eq!(g.successors(s[0]), &[s[1]]);
    }
}
