//! Per-thread synthesis workspace: pooled netlist node buffers and
//! reusable pass scratch.
//!
//! Netlist construction used to allocate two `Vec`s per node (`fanin`,
//! `in_dffs`) and every pass used to allocate its own topological order,
//! fanout adjacency and arrival scratch — thousands of short-lived heap
//! blocks per synthesized module. The [`SynthWorkspace`] makes both
//! steady-state-free:
//!
//! * **node pool** — dropping a [`Netlist`](crate::netlist::Netlist)
//!   recycles its nodes (with their `Vec` capacities intact) into a
//!   bounded per-thread freelist; the builders pop from it, so warm
//!   construction reuses the same small buffers instead of hitting the
//!   allocator per node.
//! * **pass scratch** — `insert_splitters`/`path_balance`/`retime`
//!   *take* the [`PassScratch`] out of the workspace for the duration of
//!   a pass (so builder calls inside the pass can still reach the node
//!   pool without re-entrant borrows) and put it back when done.
//!
//! Pooling is invisible to every contract: construction order, node ids
//! and pass results are untouched, and none of the pooled buffers are
//! tallied by `qsim::counters` (outputs only).

use crate::netlist::{Node, NodeId};
use std::cell::RefCell;

/// Nodes kept in the per-thread freelist at most (each node holds two
/// small `Vec`s; the cap bounds idle memory to a few MB).
const NODE_POOL_CAP: usize = 1 << 16;

/// Reusable buffers for the synthesis passes (see module docs).
#[derive(Debug, Default)]
pub struct PassScratch {
    /// CSR fanout offsets (`len + 1` entries) …
    pub(crate) csr_off: Vec<u32>,
    /// … fill cursors …
    pub(crate) csr_cur: Vec<u32>,
    /// … and `(sink, pin)` entries, per-source in node order.
    pub(crate) csr_sinks: Vec<(NodeId, u32)>,
    /// Kahn in-degrees.
    pub(crate) indeg: Vec<u32>,
    /// Kahn worklist (LIFO, matching `Netlist::topo_order`).
    pub(crate) queue: Vec<usize>,
    /// Topological order output.
    pub(crate) order: Vec<NodeId>,
    /// Per-node arrival depth.
    pub(crate) depth: Vec<u32>,
    /// Splitter-tree endpoint queue (head-cursor FIFO).
    pub(crate) endpoints: Vec<NodeId>,
}

/// Per-thread synthesis workspace: node freelist plus pass scratch.
#[derive(Debug, Default)]
pub struct SynthWorkspace {
    spare_nodes: Vec<Node>,
    scratch: PassScratch,
}

thread_local! {
    static WS: RefCell<SynthWorkspace> = RefCell::new(SynthWorkspace::default());
}

/// Pops a recycled node from this thread's pool, if any. The caller fully
/// re-initializes every field (the vectors keep only their capacity).
pub(crate) fn pop_node() -> Option<Node> {
    WS.try_with(|w| w.borrow_mut().spare_nodes.pop())
        .ok()
        .flatten()
}

/// Recycles a netlist's nodes into this thread's pool (bounded; extras
/// are dropped). A no-op during thread teardown.
pub(crate) fn recycle_nodes(nodes: Vec<Node>) {
    let _ = WS.try_with(|w| {
        let spare = &mut w.borrow_mut().spare_nodes;
        for node in nodes {
            if spare.len() >= NODE_POOL_CAP {
                break;
            }
            spare.push(node);
        }
    });
}

/// Takes the pass scratch out of this thread's workspace. Pair with
/// [`put_scratch`]; while taken, the workspace hands out a default
/// (freshly allocated) scratch to any nested taker, so passes never
/// deadlock on re-entry — they only lose pooling.
pub(crate) fn take_scratch() -> PassScratch {
    WS.try_with(|w| std::mem::take(&mut w.borrow_mut().scratch))
        .unwrap_or_default()
}

/// Returns pass scratch to this thread's workspace for reuse.
pub(crate) fn put_scratch(s: PassScratch) {
    let _ = WS.try_with(|w| w.borrow_mut().scratch = s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellType;
    use crate::netlist::Netlist;

    fn pooled_nodes() -> usize {
        WS.with(|w| w.borrow().spare_nodes.len())
    }

    #[test]
    fn dropping_a_netlist_refills_the_pool() {
        let baseline = pooled_nodes();
        {
            let mut nl = Netlist::new("pool");
            let a = nl.input("a");
            let b = nl.input("b");
            let g = nl.gate(CellType::And2, &[a, b]);
            nl.mark_output("g", g);
            drop(nl);
        }
        assert!(
            pooled_nodes() >= baseline.min(NODE_POOL_CAP - 3) + 3
                || pooled_nodes() == NODE_POOL_CAP
        );
    }

    #[test]
    fn scratch_take_put_roundtrip() {
        let mut s = take_scratch();
        s.depth.resize(128, 0);
        put_scratch(s);
        let s2 = take_scratch();
        assert!(
            s2.depth.capacity() >= 128,
            "capacity must survive the roundtrip"
        );
        put_scratch(s2);
    }
}
