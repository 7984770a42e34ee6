//! The operator DAG with structural plan sharing.

use crate::operator::Operator;
use crate::source::Source;
use enblogue_types::EnBlogueError;

/// Identifies a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

pub(crate) struct Node {
    pub(crate) op: Box<dyn Operator>,
    pub(crate) children: Vec<NodeId>,
    pub(crate) signature: String,
}

/// An operator DAG rooted at one source.
///
/// §4.1: "The system allows executing multiple query plans in parallel,
/// where overlapping parts, like data sources, sketching operators, entity
/// tagging, and statistics operators are shared for efficiency."
///
/// Plans are attached with [`Graph::attach`] / [`Graph::attach_chain`]:
/// when the new operator's [signature](Operator::signature) matches an
/// existing child of the same parent, the existing node is reused and
/// [`Graph::shared_hits`] is incremented — the `perf_sharing` bin measures
/// the saved work.
pub struct Graph {
    source: Box<dyn Source>,
    /// Children of the source.
    pub(crate) roots: Vec<NodeId>,
    pub(crate) nodes: Vec<Node>,
    shared_hits: usize,
}

impl Graph {
    /// An empty graph fed by `source`.
    pub fn new(source: impl Source + 'static) -> Self {
        Graph { source: Box::new(source), roots: Vec::new(), nodes: Vec::new(), shared_hits: 0 }
    }

    /// Number of operator nodes (excluding the source).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// How many attach calls were satisfied by an existing shared node.
    pub fn shared_hits(&self) -> usize {
        self.shared_hits
    }

    /// The name of the operator at `node`.
    pub fn node_name(&self, node: NodeId) -> &str {
        self.nodes[node.0].op.name()
    }

    fn push_node(&mut self, op: Box<dyn Operator>) -> NodeId {
        let signature = op.signature();
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { op, children: Vec::new(), signature });
        id
    }

    /// Attaches `op` below `parent` (`None` = directly below the source),
    /// sharing an existing structurally-equal child if present.
    pub fn attach(&mut self, parent: Option<NodeId>, op: impl Operator + 'static) -> NodeId {
        self.attach_boxed(parent, Box::new(op))
    }

    /// [`Graph::attach`] for boxed operators.
    pub fn attach_boxed(&mut self, parent: Option<NodeId>, op: Box<dyn Operator>) -> NodeId {
        let signature = op.signature();
        let siblings = match parent {
            Some(p) => &self.nodes[p.0].children,
            None => &self.roots,
        };
        if let Some(&existing) = siblings.iter().find(|&&c| self.nodes[c.0].signature == signature)
        {
            self.shared_hits += 1;
            return existing;
        }
        let id = self.push_node(op);
        match parent {
            Some(p) => self.nodes[p.0].children.push(id),
            None => self.roots.push(id),
        }
        id
    }

    /// Attaches `op` below `parent` *without* sharing, even if an equal
    /// sibling exists (the unshared baseline of `perf_sharing`).
    pub fn attach_unshared(
        &mut self,
        parent: Option<NodeId>,
        op: impl Operator + 'static,
    ) -> NodeId {
        let id = self.push_node(Box::new(op));
        match parent {
            Some(p) => self.nodes[p.0].children.push(id),
            None => self.roots.push(id),
        }
        id
    }

    /// Attaches a chain of operators, sharing each step; returns the id of
    /// the last node.
    ///
    /// # Panics
    /// Panics if `ops` is empty.
    pub fn attach_chain(&mut self, parent: Option<NodeId>, ops: Vec<Box<dyn Operator>>) -> NodeId {
        assert!(!ops.is_empty(), "attach_chain requires at least one operator");
        let mut cursor = parent;
        let mut last = NodeId(0);
        for op in ops {
            last = self.attach_boxed(cursor, op);
            cursor = Some(last);
        }
        last
    }

    /// Adds an extra edge `parent → child` (fan-in), validating that no
    /// cycle is created.
    pub fn connect(&mut self, parent: NodeId, child: NodeId) -> Result<(), EnBlogueError> {
        if parent == child || self.reaches(child, parent) {
            return Err(EnBlogueError::PlanError(format!(
                "edge {} -> {} would create a cycle",
                parent.0, child.0
            )));
        }
        if !self.nodes[parent.0].children.contains(&child) {
            self.nodes[parent.0].children.push(child);
        }
        Ok(())
    }

    fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut stack = vec![from];
        let mut seen = vec![false; self.nodes.len()];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if std::mem::replace(&mut seen[n.0], true) {
                continue;
            }
            stack.extend(self.nodes[n.0].children.iter().copied());
        }
        false
    }

    /// Borrows the source mutably (used by executors).
    pub(crate) fn source_mut(&mut self) -> &mut dyn Source {
        self.source.as_mut()
    }

    /// Splits the graph into source and nodes (used by the threaded
    /// executor, which moves operators into worker threads).
    pub(crate) fn into_parts(self) -> (Box<dyn Source>, Vec<NodeId>, Vec<Node>) {
        (self.source, self.roots, self.nodes)
    }

    /// Nodes in a topological order (parents before children).
    ///
    /// # Errors
    /// Returns a plan error if the graph contains a cycle (only possible
    /// via bugs, since [`Graph::connect`] validates, but executors check
    /// defensively).
    pub fn topological_order(&self) -> Result<Vec<NodeId>, EnBlogueError> {
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        for node in &self.nodes {
            for child in &node.children {
                indegree[child.0] += 1;
            }
        }
        // Roots reachable from the source start the order; orphan nodes
        // (indegree 0, not roots) are included too — they just never
        // receive events.
        let mut queue: std::collections::VecDeque<NodeId> =
            (0..n).filter(|&i| indegree[i] == 0).map(NodeId).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(node) = queue.pop_front() {
            order.push(node);
            for &child in &self.nodes[node.0].children {
                indegree[child.0] -= 1;
                if indegree[child.0] == 0 {
                    queue.push_back(child);
                }
            }
        }
        if order.len() != n {
            return Err(EnBlogueError::PlanError("cycle detected in operator graph".into()));
        }
        Ok(order)
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.nodes.len())
            .field("roots", &self.roots.len())
            .field("shared_hits", &self.shared_hits)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::operator::EventSink;
    use crate::source::ReplaySource;
    use enblogue_types::TickSpec;

    struct Named(&'static str);
    impl Operator for Named {
        fn name(&self) -> &str {
            self.0
        }
        fn signature(&self) -> String {
            self.0.to_string()
        }
        fn process(&mut self, event: Event, out: &mut dyn EventSink) {
            out.emit(event);
        }
    }

    fn empty_graph() -> Graph {
        Graph::new(ReplaySource::new(vec![], TickSpec::hourly()))
    }

    #[test]
    fn attach_shares_equal_signatures() {
        let mut g = empty_graph();
        let a1 = g.attach(None, Named("tagger"));
        let a2 = g.attach(None, Named("tagger"));
        assert_eq!(a1, a2, "same signature under same parent is shared");
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.shared_hits(), 1);

        let b = g.attach(None, Named("stats"));
        assert_ne!(a1, b);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn sharing_is_per_parent() {
        let mut g = empty_graph();
        let a = g.attach(None, Named("x"));
        let b = g.attach(None, Named("y"));
        let xa = g.attach(Some(a), Named("z"));
        let xb = g.attach(Some(b), Named("z"));
        assert_ne!(xa, xb, "same signature under different parents is distinct state");
        assert_eq!(g.shared_hits(), 0);
    }

    #[test]
    fn attach_unshared_always_creates() {
        let mut g = empty_graph();
        let a1 = g.attach_unshared(None, Named("tagger"));
        let a2 = g.attach_unshared(None, Named("tagger"));
        assert_ne!(a1, a2);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.shared_hits(), 0);
    }

    #[test]
    fn chains_share_prefixes() {
        let mut g = empty_graph();
        let end1 = g.attach_chain(
            None,
            vec![Box::new(Named("a")), Box::new(Named("b")), Box::new(Named("c"))],
        );
        let end2 = g.attach_chain(
            None,
            vec![Box::new(Named("a")), Box::new(Named("b")), Box::new(Named("d"))],
        );
        assert_ne!(end1, end2);
        assert_eq!(g.node_count(), 4, "a and b shared; c and d distinct");
        assert_eq!(g.shared_hits(), 2);
    }

    #[test]
    fn connect_rejects_cycles() {
        let mut g = empty_graph();
        let a = g.attach(None, Named("a"));
        let b = g.attach(Some(a), Named("b"));
        let c = g.attach(Some(b), Named("c"));
        assert!(g.connect(c, a).is_err(), "back edge");
        assert!(g.connect(a, a).is_err(), "self loop");
        assert!(g.connect(a, c).is_ok(), "forward shortcut is a DAG edge");
    }

    #[test]
    fn connect_is_idempotent() {
        let mut g = empty_graph();
        let a = g.attach(None, Named("a"));
        let b = g.attach(None, Named("b"));
        g.connect(a, b).unwrap();
        g.connect(a, b).unwrap();
        assert_eq!(g.nodes[a.0].children.len(), 1);
    }

    #[test]
    fn topological_order_respects_edges() {
        let mut g = empty_graph();
        let a = g.attach(None, Named("a"));
        let b = g.attach(Some(a), Named("b"));
        let c = g.attach(Some(a), Named("c"));
        let d = g.attach(Some(b), Named("d"));
        g.connect(c, d).unwrap();
        let order = g.topological_order().unwrap();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(d));
        assert!(pos(c) < pos(d));
    }
}
