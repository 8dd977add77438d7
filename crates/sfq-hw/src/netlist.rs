//! Gate-level RSFQ netlists.
//!
//! A [`Netlist`] is a directed graph of standard cells (plus registered
//! feedback edges for sequential loops such as circulating shift
//! registers). The synthesis passes in [`crate::passes`] legalize fanout
//! with splitter trees, fully path-balance the clocked depth, and retime —
//! the flow of the paper's §VI-A ("mapped using a path balancing technology
//! mapping algorithm and fully path balanced … a standard retiming
//! algorithm … then memory elements are replaced with SFQ DRO DFFs, and
//! splitters are inserted at the output of gates with more than one
//! fanout").
//!
//! Path-balancing DFFs are represented as **edge weights** (`in_dffs` per
//! input pin, `out_dffs` per node output) rather than physical nodes: the
//! cost model counts them as DRO DFF instances, and retiming moves them
//! without graph surgery. [`crate::passes::materialize_balancing`] can
//! expand them into physical chains when an explicit netlist is wanted.
//!
//! Controller-scale hardware is composed *hierarchically*: module netlists
//! stay small (thousands of nodes) and `digiq_core::hardware` multiplies
//! module costs by instance counts via [`NetlistStats::add_scaled`].
//!
//! # Examples
//!
//! ```
//! use sfq_hw::netlist::Netlist;
//! use sfq_hw::cells::CellType;
//!
//! let mut nl = Netlist::new("half_adder");
//! let a = nl.input("a");
//! let b = nl.input("b");
//! let sum = nl.gate(CellType::Xor2, &[a, b]);
//! let carry = nl.gate(CellType::And2, &[a, b]);
//! nl.mark_output("sum", sum);
//! nl.mark_output("carry", carry);
//! assert!(nl.validate().is_ok());
//! ```

use crate::cells::CellType;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Identifier of a netlist node. Only valid for the netlist that created
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index into the node table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A primary input (off-module signal: room-temperature control bit,
    /// clock distribution tap, neighbouring module output…).
    Input,
    /// An instance of a standard cell.
    Gate(CellType),
}

/// A netlist node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Input or gate.
    pub kind: NodeKind,
    /// Driving nodes, in input-pin order.
    pub fanin: Vec<NodeId>,
    /// Path-balancing DRO DFFs on each input edge (parallel to `fanin`).
    pub in_dffs: Vec<u32>,
    /// Path-balancing DRO DFFs at the output, shared by all sinks
    /// (the retiming pass moves input-edge DFFs here).
    pub out_dffs: u32,
}

impl Node {
    /// The cell type, or `None` for primary inputs.
    pub fn cell(&self) -> Option<CellType> {
        match self.kind {
            NodeKind::Input => None,
            NodeKind::Gate(c) => Some(c),
        }
    }

    /// Whether the node defines a pipeline stage (clocked cell).
    pub fn is_clocked(&self) -> bool {
        self.cell().is_some_and(CellType::is_clocked)
    }

    /// Total balancing DFFs attached to this node.
    pub fn balancing_dffs(&self) -> u64 {
        self.in_dffs.iter().map(|&d| d as u64).sum::<u64>() + self.out_dffs as u64
    }
}

/// Structural validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate was built with the wrong number of inputs.
    WrongFanin {
        /// Offending node.
        node: u32,
        /// Cell type of the node.
        cell: CellType,
        /// Expected input count.
        expected: usize,
        /// Actual input count.
        actual: usize,
    },
    /// The combinational part of the netlist contains a cycle.
    CombinationalCycle,
    /// A feedback edge does not terminate at a storage element.
    FeedbackIntoNonStorage {
        /// Destination node of the offending feedback edge.
        node: u32,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::WrongFanin {
                node,
                cell,
                expected,
                actual,
            } => write!(
                f,
                "node {node} ({cell}) has {actual} inputs, expected {expected}"
            ),
            NetlistError::CombinationalCycle => {
                write!(
                    f,
                    "combinational cycle detected (feedback must be registered)"
                )
            }
            NetlistError::FeedbackIntoNonStorage { node } => {
                write!(f, "feedback edge terminates at non-storage node {node}")
            }
        }
    }
}

impl Error for NetlistError {}

/// Aggregate structural statistics of a netlist.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetlistStats {
    /// Instance count per cell type (including balancing DFFs, reported
    /// under [`CellType::DroDff`]).
    pub cell_counts: HashMap<CellType, u64>,
    /// Number of primary inputs.
    pub inputs: u64,
    /// Balancing DFFs alone (subset of the DRO count), for reporting.
    pub balancing_dffs: u64,
    /// Total Josephson junctions over all cells.
    pub total_jj: u64,
    /// Total cell area in µm² (pre layout-overhead).
    pub cell_area_um2: f64,
}

impl NetlistStats {
    /// Instances of one cell type.
    pub fn count(&self, cell: CellType) -> u64 {
        self.cell_counts.get(&cell).copied().unwrap_or(0)
    }

    /// Merges another stats block scaled by `count` instances — the
    /// hierarchical composition primitive.
    pub fn add_scaled(&mut self, other: &NetlistStats, count: u64) {
        for (&cell, &n) in &other.cell_counts {
            *self.cell_counts.entry(cell).or_insert(0) += n * count;
        }
        self.inputs += other.inputs * count;
        self.balancing_dffs += other.balancing_dffs * count;
        self.total_jj += other.total_jj * count;
        self.cell_area_um2 += other.cell_area_um2 * count as f64;
    }
}

/// Sink lists of every node, from [`Netlist::fanouts`].
#[derive(Debug, Clone)]
pub struct Fanouts {
    /// `sinks[off[i]..off[i + 1]]` are node `i`'s sinks.
    off: Vec<u32>,
    sinks: Vec<(NodeId, u32)>,
}

impl Fanouts {
    /// The `(sink, pin)` edges driven by `id`, in sink node order.
    pub fn of(&self, id: NodeId) -> &[(NodeId, u32)] {
        let i = id.index();
        &self.sinks[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// A gate-level netlist (see module docs).
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    outputs: Vec<(String, NodeId)>,
    /// Registered sequential loops `(src, dst)`; `dst` must be storage.
    feedback: Vec<(NodeId, NodeId)>,
}

impl Netlist {
    /// Creates an empty netlist with a diagnostic name.
    ///
    /// Tallied as one `synth_allocs` in `qsim::counters`.
    pub fn new(name: impl Into<String>) -> Self {
        qsim::counters::tally_synth_allocs(1);
        Netlist {
            name: name.into(),
            nodes: Vec::new(),
            outputs: Vec::new(),
            feedback: Vec::new(),
        }
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes (inputs + gates).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the netlist has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a primary input. The name is only for diagnostics.
    pub fn input(&mut self, _name: &str) -> NodeId {
        self.push(NodeKind::Input, &[])
    }

    /// Adds `n` primary inputs at once.
    pub fn inputs(&mut self, _prefix: &str, n: usize) -> Vec<NodeId> {
        // Input names are diagnostic-only and discarded by `input`; no
        // point formatting one per node.
        (0..n).map(|_| self.input("")).collect()
    }

    /// Adds a gate driven by `fanin`.
    ///
    /// # Panics
    ///
    /// Panics if the fanin count does not match the cell's arity, or if any
    /// fanin id is out of range (builder misuse is a programming error).
    pub fn gate(&mut self, cell: CellType, fanin: &[NodeId]) -> NodeId {
        assert_eq!(
            fanin.len(),
            cell.fanin(),
            "{cell} expects {} inputs, got {}",
            cell.fanin(),
            fanin.len()
        );
        for f in fanin {
            assert!(f.index() < self.nodes.len(), "fanin id out of range");
        }
        self.push(NodeKind::Gate(cell), fanin)
    }

    /// Adds a chain of `n` copies of a single-input cell after `src`,
    /// returning the final node (or `src` when `n == 0`).
    pub fn chain(&mut self, cell: CellType, src: NodeId, n: usize) -> NodeId {
        let mut cur = src;
        for _ in 0..n {
            cur = self.gate(cell, &[cur]);
        }
        cur
    }

    /// Registers a sequential feedback edge from `src` into storage node
    /// `dst` (e.g. closing a circulating shift register). Excluded from
    /// combinational analysis.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn add_feedback(&mut self, src: NodeId, dst: NodeId) {
        assert!(src.index() < self.nodes.len() && dst.index() < self.nodes.len());
        self.feedback.push((src, dst));
    }

    /// Marks a node as a module output.
    pub fn mark_output(&mut self, name: impl Into<String>, node: NodeId) {
        self.outputs.push((name.into(), node));
    }

    /// Module outputs.
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Feedback edges.
    pub fn feedback_edges(&self) -> &[(NodeId, NodeId)] {
        &self.feedback
    }

    /// Immutable node access.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterates `(id, node)` in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// All node ids.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Per-node sink lists `(sink, pin)` of the combinational edges, as
    /// one flat table; each node's sinks are in node order.
    pub fn fanouts(&self) -> Fanouts {
        let n = self.nodes.len();
        // Counts go two slots up, so after the prefix sum `off[i + 1]` is
        // node i's start; filling advances it to node i's end, which is
        // node i + 1's start. The spare last slot is then dropped.
        let mut off = vec![0u32; n + 2];
        for node in &self.nodes {
            for f in &node.fanin {
                off[f.index() + 2] += 1;
            }
        }
        for i in 2..n + 2 {
            off[i] += off[i - 1];
        }
        let mut sinks = vec![(NodeId(0), 0); off[n + 1] as usize];
        for (i, node) in self.nodes.iter().enumerate() {
            for (pin, f) in node.fanin.iter().enumerate() {
                let slot = &mut off[f.index() + 1];
                sinks[*slot as usize] = (NodeId(i as u32), pin as u32);
                *slot += 1;
            }
        }
        off.pop();
        Fanouts { off, sinks }
    }

    /// Kahn topological order of the combinational graph (LIFO worklist).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if no such order
    /// exists.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, NetlistError> {
        let fanouts = self.fanouts();
        // In-degree = fanin count (combinational edges only).
        let mut indeg: Vec<u32> = self.nodes.iter().map(|n| n.fanin.len() as u32).collect();
        let mut queue: Vec<usize> = (0..indeg.len()).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(indeg.len());
        while let Some(i) = queue.pop() {
            let id = NodeId(i as u32);
            order.push(id);
            for &(sink, _) in fanouts.of(id) {
                let s = sink.index();
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() == indeg.len() {
            Ok(order)
        } else {
            Err(NetlistError::CombinationalCycle)
        }
    }

    /// Structural validation: arity, acyclicity of the combinational
    /// graph, and feedback-into-storage.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`NetlistError`].
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (i, n) in self.nodes.iter().enumerate() {
            if let NodeKind::Gate(cell) = n.kind {
                if n.fanin.len() != cell.fanin() {
                    return Err(NetlistError::WrongFanin {
                        node: i as u32,
                        cell,
                        expected: cell.fanin(),
                        actual: n.fanin.len(),
                    });
                }
            }
        }
        self.topo_order()?;
        for &(_, dst) in &self.feedback {
            if !self.nodes[dst.index()]
                .cell()
                .is_some_and(CellType::is_storage)
            {
                return Err(NetlistError::FeedbackIntoNonStorage { node: dst.0 });
            }
        }
        Ok(())
    }

    /// Aggregates structural statistics (balancing edge-DFFs counted as
    /// DRO DFF instances).
    pub fn stats(&self) -> NetlistStats {
        let mut s = NetlistStats::default();
        for n in &self.nodes {
            match n.kind {
                NodeKind::Input => s.inputs += 1,
                NodeKind::Gate(c) => {
                    *s.cell_counts.entry(c).or_insert(0) += 1;
                    s.total_jj += c.jj_count() as u64;
                    s.cell_area_um2 += c.area_um2();
                }
            }
            let bal = n.balancing_dffs();
            if bal > 0 {
                s.balancing_dffs += bal;
                *s.cell_counts.entry(CellType::DroDff).or_insert(0) += bal;
                s.total_jj += bal * CellType::DroDff.jj_count() as u64;
                s.cell_area_um2 += bal as f64 * CellType::DroDff.area_um2();
            }
        }
        s
    }

    fn push(&mut self, kind: NodeKind, fanin: &[NodeId]) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind,
            fanin: fanin.to_vec(),
            in_dffs: vec![0; fanin.len()],
            out_dffs: 0,
        });
        id
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        writeln!(
            f,
            "netlist '{}': {} nodes, {} inputs, {} JJ, {:.0} um2",
            self.name,
            self.len(),
            s.inputs,
            s.total_jj,
            s.cell_area_um2
        )?;
        let mut cells: Vec<_> = s.cell_counts.iter().collect();
        cells.sort();
        for (c, n) in cells {
            writeln!(f, "  {c}: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_adder() -> Netlist {
        let mut nl = Netlist::new("ha");
        let a = nl.input("a");
        let b = nl.input("b");
        let s = nl.gate(CellType::Xor2, &[a, b]);
        let c = nl.gate(CellType::And2, &[a, b]);
        nl.mark_output("s", s);
        nl.mark_output("c", c);
        nl
    }

    #[test]
    fn build_and_validate() {
        let nl = half_adder();
        assert_eq!(nl.len(), 4);
        assert!(nl.validate().is_ok());
        assert_eq!(nl.outputs().len(), 2);
    }

    #[test]
    fn stats_aggregation() {
        let nl = half_adder();
        let s = nl.stats();
        assert_eq!(s.inputs, 2);
        assert_eq!(s.count(CellType::Xor2), 1);
        assert_eq!(s.count(CellType::And2), 1);
        assert_eq!(s.total_jj, (18 + 16) as u64);
        assert_eq!(s.cell_area_um2, 7000.0);
        assert_eq!(s.cell_counts.values().sum::<u64>(), 2);
    }

    #[test]
    fn stats_scaled_merge() {
        let nl = half_adder();
        let mut total = NetlistStats::default();
        total.add_scaled(&nl.stats(), 10);
        assert_eq!(total.count(CellType::Xor2), 10);
        assert_eq!(total.total_jj, 340);
        assert_eq!(total.inputs, 20);
    }

    #[test]
    fn balancing_dffs_enter_stats() {
        let mut nl = half_adder();
        let xor = NodeId(2);
        nl.node_mut(xor).in_dffs[0] = 3;
        nl.node_mut(xor).out_dffs = 1;
        let s = nl.stats();
        assert_eq!(s.balancing_dffs, 4);
        assert_eq!(s.count(CellType::DroDff), 4);
        assert_eq!(s.total_jj, 34 + 4 * 11);
    }

    #[test]
    fn fanout_counting() {
        let nl = half_adder();
        let fo = nl.fanouts();
        // Inputs a and b each drive XOR (pin 0/1) and AND (pin 0/1).
        assert_eq!(fo.of(NodeId(0)), &[(NodeId(2), 0), (NodeId(3), 0)]);
        assert_eq!(fo.of(NodeId(1)), &[(NodeId(2), 1), (NodeId(3), 1)]);
        assert!(fo.of(NodeId(2)).is_empty());
        assert!(fo.of(NodeId(3)).is_empty());
    }

    #[test]
    fn topo_order_covers_all_nodes() {
        let nl = half_adder();
        let order = nl.topo_order().unwrap();
        assert_eq!(order.len(), 4);
        // Every gate appears after its fanins.
        let pos: HashMap<NodeId, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for (id, node) in nl.iter() {
            for f in &node.fanin {
                assert!(pos[f] < pos[&id]);
            }
        }
    }

    #[test]
    #[should_panic]
    fn wrong_arity_panics_at_build() {
        let mut nl = Netlist::new("bad");
        let a = nl.input("a");
        let _ = nl.gate(CellType::And2, &[a]);
    }

    #[test]
    fn feedback_must_hit_storage() {
        let mut nl = Netlist::new("loop");
        let a = nl.input("a");
        let d = nl.gate(CellType::DroDff, &[a]);
        let n = nl.gate(CellType::Not, &[d]);
        nl.add_feedback(n, d);
        assert!(nl.validate().is_ok());

        let mut bad = Netlist::new("badloop");
        let a = bad.input("a");
        let g = bad.gate(CellType::Not, &[a]);
        bad.add_feedback(g, g);
        assert_eq!(
            bad.validate(),
            Err(NetlistError::FeedbackIntoNonStorage { node: 1 })
        );
    }

    #[test]
    fn chain_builder() {
        let mut nl = Netlist::new("chain");
        let a = nl.input("a");
        let end = nl.chain(CellType::DroDff, a, 5);
        assert_eq!(nl.len(), 6);
        assert_eq!(nl.stats().count(CellType::DroDff), 5);
        // chain(0) is a no-op.
        let same = nl.chain(CellType::DroDff, end, 0);
        assert_eq!(same, end);
    }

    #[test]
    fn display_contains_summary() {
        let nl = half_adder();
        let text = nl.to_string();
        assert!(text.contains("netlist 'ha'"));
        assert!(text.contains("XOR2: 1"));
    }

    #[test]
    fn error_display() {
        let e = NetlistError::WrongFanin {
            node: 3,
            cell: CellType::And2,
            expected: 2,
            actual: 1,
        };
        assert!(e.to_string().contains("node 3"));
        assert!(NetlistError::CombinationalCycle
            .to_string()
            .contains("cycle"));
    }
}
