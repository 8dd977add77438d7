//! Differential pin of the synthesis passes against the scratch-buffer
//! implementation they replaced.
//!
//! The oracle below keeps the previous `Netlist::fanouts`/`topo_order`
//! (per-node sink `Vec`s), the pass-private fanout CSR and Kahn walk
//! (`build_fanout_csr`/`topo_into`), `insert_splitters`, `path_balance`,
//! `check_balance` and `retime` as they were, with the pass scratch owned
//! by the test instead of a per-thread pool (one scratch is reused across
//! every case, as the pool reused it). Because a `Netlist` cannot be
//! rewired from outside the crate, the oracle runs on `Model`, a plain
//! copy of the node table with the same ids; only the container changed.
//!
//! On seeded random netlists (every cell type, hot nets with large
//! fanout) and on every `generators` module at a few sizes it asserts:
//! equal topological orders and sink lists before and after synthesis;
//! node-for-node equal `kind`/`fanin`/`in_dffs`/`out_dffs` after each
//! pass; equal return values; equal `qsim::counters` tallies; and equal
//! balance verdicts.

use qsim::counters;
use qsim::rng::StdRng;
use sfq_hw::cells::{CellType, ALL_CELLS};
use sfq_hw::generators;
use sfq_hw::netlist::{Netlist, NetlistError, NodeId, NodeKind};
use sfq_hw::passes::{check_balance, insert_splitters, path_balance, retime};

// ------------------------------------------------------------------
// Oracle: the previous implementation on a copy of the node table.
// ------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Id(u32);

impl Id {
    fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct ONode {
    kind: NodeKind,
    fanin: Vec<Id>,
    in_dffs: Vec<u32>,
    out_dffs: u32,
}

impl ONode {
    fn cell(&self) -> Option<CellType> {
        match self.kind {
            NodeKind::Input => None,
            NodeKind::Gate(c) => Some(c),
        }
    }

    fn is_clocked(&self) -> bool {
        self.cell().is_some_and(CellType::is_clocked)
    }
}

#[derive(Debug, Clone)]
struct Model {
    nodes: Vec<ONode>,
}

impl Model {
    fn of(nl: &Netlist) -> Model {
        let nodes = nl
            .iter()
            .map(|(_, n)| ONode {
                kind: n.kind,
                fanin: n.fanin.iter().map(|f| Id(f.index() as u32)).collect(),
                in_dffs: n.in_dffs.clone(),
                out_dffs: n.out_dffs,
            })
            .collect();
        Model { nodes }
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn node(&self, id: Id) -> &ONode {
        &self.nodes[id.index()]
    }

    fn node_mut(&mut self, id: Id) -> &mut ONode {
        &mut self.nodes[id.index()]
    }

    fn iter(&self) -> impl Iterator<Item = (Id, &ONode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (Id(i as u32), n))
    }

    fn gate(&mut self, cell: CellType, fanin: &[Id]) -> Id {
        assert_eq!(fanin.len(), cell.fanin());
        let id = Id(self.nodes.len() as u32);
        self.nodes.push(ONode {
            kind: NodeKind::Gate(cell),
            fanin: fanin.to_vec(),
            in_dffs: vec![0; fanin.len()],
            out_dffs: 0,
        });
        id
    }

    fn fanouts(&self) -> Vec<Vec<(Id, usize)>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for (pin, f) in n.fanin.iter().enumerate() {
                out[f.index()].push((Id(i as u32), pin));
            }
        }
        out
    }

    fn topo_order(&self) -> Result<Vec<Id>, NetlistError> {
        let n = self.nodes.len();
        let mut order = Vec::with_capacity(n);
        let fanouts = self.fanouts();
        // In-degree = fanin count (combinational edges only).
        let mut indeg = vec![0u32; n];
        for (i, node) in self.nodes.iter().enumerate() {
            indeg[i] = node.fanin.len() as u32;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        while let Some(i) = queue.pop() {
            order.push(Id(i as u32));
            for &(sink, _) in &fanouts[i] {
                let s = sink.index();
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(NetlistError::CombinationalCycle)
        }
    }
}

#[derive(Debug, Default)]
struct PassScratch {
    csr_off: Vec<u32>,
    csr_cur: Vec<u32>,
    csr_sinks: Vec<(Id, u32)>,
    indeg: Vec<u32>,
    queue: Vec<usize>,
    order: Vec<Id>,
    depth: Vec<u32>,
    endpoints: Vec<Id>,
}

fn build_fanout_csr(nl: &Model, s: &mut PassScratch) {
    let n = nl.len();
    let PassScratch {
        csr_off,
        csr_cur,
        csr_sinks,
        ..
    } = s;
    csr_off.clear();
    csr_off.resize(n + 1, 0);
    let mut total = 0u32;
    for (_, node) in nl.iter() {
        for f in &node.fanin {
            csr_off[f.index() + 1] += 1;
        }
        total += node.fanin.len() as u32;
    }
    for i in 0..n {
        csr_off[i + 1] += csr_off[i];
    }
    csr_cur.clear();
    csr_cur.extend_from_slice(&csr_off[..n]);
    csr_sinks.clear();
    csr_sinks.resize(total as usize, (Id(0), 0));
    for (id, node) in nl.iter() {
        for (pin, f) in node.fanin.iter().enumerate() {
            let slot = csr_cur[f.index()];
            csr_sinks[slot as usize] = (id, pin as u32);
            csr_cur[f.index()] = slot + 1;
        }
    }
}

fn topo_into(nl: &Model, s: &mut PassScratch) -> Result<(), NetlistError> {
    build_fanout_csr(nl, s);
    let n = nl.len();
    let PassScratch {
        csr_off,
        csr_sinks,
        indeg,
        queue,
        order,
        ..
    } = s;
    indeg.clear();
    for (_, node) in nl.iter() {
        indeg.push(node.fanin.len() as u32);
    }
    order.clear();
    queue.clear();
    queue.extend((0..n).filter(|&i| indeg[i] == 0));
    while let Some(i) = queue.pop() {
        order.push(Id(i as u32));
        for &(sink, _) in &csr_sinks[csr_off[i] as usize..csr_off[i + 1] as usize] {
            let si = sink.index();
            indeg[si] -= 1;
            if indeg[si] == 0 {
                queue.push(si);
            }
        }
    }
    if order.len() == n {
        Ok(())
    } else {
        Err(NetlistError::CombinationalCycle)
    }
}

fn oracle_insert_splitters(nl: &mut Model, s: &mut PassScratch) -> u64 {
    let n0 = nl.len();
    counters::tally_cells(n0 as u64);
    build_fanout_csr(nl, s);
    let mut added = 0u64;
    for i in 0..n0 {
        let id = Id(i as u32);
        let max = nl.node(id).cell().map_or(2, CellType::max_fanout).max(1);
        let max = if nl.node(id).cell().is_none() { 1 } else { max };
        let (lo, hi) = (s.csr_off[i] as usize, s.csr_off[i + 1] as usize);
        if hi - lo <= max {
            continue;
        }
        let needed = hi - lo;
        s.endpoints.clear();
        s.endpoints.push(id);
        let mut head = 0usize;
        while s.endpoints.len() - head < needed {
            let src = s.endpoints[head];
            head += 1;
            let spl = nl.gate(CellType::Splitter, &[src]);
            added += 1;
            s.endpoints.push(spl);
            s.endpoints.push(spl);
        }
        for (k, &(sink, pin)) in s.csr_sinks[lo..hi].iter().enumerate() {
            nl.node_mut(sink).fanin[pin as usize] = s.endpoints[head + k];
        }
    }
    added
}

fn oracle_path_balance(nl: &mut Model, s: &mut PassScratch) -> u64 {
    counters::tally_cells(nl.len() as u64);
    topo_into(nl, s).expect("path_balance requires acyclic netlist");
    let mut inserted = 0u64;
    let PassScratch { order, depth, .. } = s;
    depth.clear();
    depth.resize(nl.len(), 0);
    for &id in order.iter() {
        let node = nl.node(id);
        if node.fanin.is_empty() {
            depth[id.index()] = node.out_dffs;
            continue;
        }
        let mut max_arrival = 0u32;
        for (pin, &src) in node.fanin.iter().enumerate() {
            max_arrival = max_arrival.max(depth[src.index()] + node.in_dffs[pin]);
        }
        let own = if node.is_clocked() { 1 } else { 0 };
        let out = node.out_dffs;
        if node.fanin.len() > 1 {
            let node = nl.node_mut(id);
            for pin in 0..node.fanin.len() {
                let a = depth[node.fanin[pin].index()] + node.in_dffs[pin];
                let lag = max_arrival - a;
                node.in_dffs[pin] += lag;
                inserted += lag as u64;
            }
        }
        depth[id.index()] = max_arrival + own + out;
    }
    counters::tally_dffs_moved(inserted);
    inserted
}

fn oracle_retime(nl: &mut Model) -> u64 {
    let n = nl.len();
    let mut saved = 0u64;
    loop {
        counters::tally_cells(n as u64);
        let mut changed = false;
        for i in 0..n {
            let id = Id(i as u32);
            let node = nl.node(id);
            if node.fanin.len() < 2 {
                continue;
            }
            let movable = node.in_dffs.iter().copied().min().unwrap_or(0);
            if movable == 0 {
                continue;
            }
            let k = node.fanin.len() as u64;
            let node = nl.node_mut(id);
            for d in node.in_dffs.iter_mut() {
                *d -= movable;
            }
            node.out_dffs += movable;
            saved += (k - 1) * movable as u64;
            counters::tally_dffs_moved(k * movable as u64);
            changed = true;
        }
        if !changed {
            return saved;
        }
    }
}

fn oracle_check_balance(nl: &Model, s: &mut PassScratch) -> Result<(), Id> {
    if topo_into(nl, s).is_err() {
        return Err(Id(0));
    }
    let PassScratch { order, depth, .. } = s;
    depth.clear();
    depth.resize(nl.len(), 0);
    for &id in order.iter() {
        let node = nl.node(id);
        let mut max_arrival = 0u32;
        let mut first = 0u32;
        let mut equal = true;
        for (pin, &src) in node.fanin.iter().enumerate() {
            let a = depth[src.index()] + node.in_dffs[pin];
            if pin == 0 {
                first = a;
            } else if a != first {
                equal = false;
            }
            max_arrival = max_arrival.max(a);
        }
        if node.fanin.len() > 1 && !equal {
            return Err(id);
        }
        let own = if node.is_clocked() { 1 } else { 0 };
        depth[id.index()] = max_arrival + own + node.out_dffs;
    }
    Ok(())
}

// ------------------------------------------------------------------
// Comparisons.
// ------------------------------------------------------------------

/// Node-for-node equality of a netlist and its oracle copy.
fn assert_same_nodes(nl: &Netlist, m: &Model, what: &str) {
    assert_eq!(nl.len(), m.len(), "{what}: node count");
    for ((id, a), (_, b)) in nl.iter().zip(m.iter()) {
        let fanin: Vec<usize> = a.fanin.iter().map(|f| f.index()).collect();
        let ofanin: Vec<usize> = b.fanin.iter().map(|f| f.index()).collect();
        assert_eq!(a.kind, b.kind, "{what}: kind of {id:?}");
        assert_eq!(fanin, ofanin, "{what}: fanin of {id:?}");
        assert_eq!(a.in_dffs, b.in_dffs, "{what}: in_dffs of {id:?}");
        assert_eq!(a.out_dffs, b.out_dffs, "{what}: out_dffs of {id:?}");
    }
}

/// Equal sink lists, equal Kahn orders (against both the old
/// `topo_order` and the pass-private `topo_into`) and equal balance
/// verdicts.
fn assert_same_walks(nl: &Netlist, m: &Model, s: &mut PassScratch, what: &str) {
    let fo = nl.fanouts();
    for (id, sinks) in nl.ids().zip(m.fanouts()) {
        let got: Vec<(usize, usize)> = fo
            .of(id)
            .iter()
            .map(|&(sink, pin)| (sink.index(), pin as usize))
            .collect();
        let want: Vec<(usize, usize)> = sinks.iter().map(|&(k, p)| (k.index(), p)).collect();
        assert_eq!(got, want, "{what}: sinks of {id:?}");
    }
    let order: Vec<usize> = nl.topo_order().unwrap().iter().map(|n| n.index()).collect();
    let want: Vec<usize> = m.topo_order().unwrap().iter().map(|n| n.index()).collect();
    assert_eq!(order, want, "{what}: topo_order");
    topo_into(m, s).unwrap();
    let scratch: Vec<usize> = s.order.iter().map(|n| n.index()).collect();
    assert_eq!(scratch, want, "{what}: topo_into");
    assert_eq!(
        check_balance(nl).is_ok(),
        oracle_check_balance(m, s).is_ok(),
        "{what}: check_balance verdict"
    );
}

/// Runs each pass on `nl` and on its oracle copy, comparing return
/// values, tallies, nodes and walks after every pass; twice, so the
/// second round starts from nonzero edge weights.
fn assert_synthesis_matches(mut nl: Netlist, s: &mut PassScratch, what: &str) {
    let mut m = Model::of(&nl);
    assert_same_walks(&nl, &m, s, &format!("{what} (input)"));
    for round in 0..2 {
        let what = format!("{what} (round {round})");
        let got = counters::counted(|| insert_splitters(&mut nl));
        let want = counters::counted(|| oracle_insert_splitters(&mut m, s));
        assert_eq!(got, want, "{what}: insert_splitters result and tallies");
        assert_same_nodes(&nl, &m, &format!("{what} after insert_splitters"));

        let got = counters::counted(|| path_balance(&mut nl));
        let want = counters::counted(|| oracle_path_balance(&mut m, s));
        assert_eq!(got, want, "{what}: path_balance result and tallies");
        assert_same_nodes(&nl, &m, &format!("{what} after path_balance"));

        let got = counters::counted(|| retime(&mut nl));
        let want = counters::counted(|| oracle_retime(&mut m));
        assert_eq!(got, want, "{what}: retime result and tallies");
        assert_same_nodes(&nl, &m, &format!("{what} after retime"));
        assert_same_walks(&nl, &m, s, &format!("{what} after synthesis"));
    }
}

// ------------------------------------------------------------------
// Inputs.
// ------------------------------------------------------------------

/// A random DAG over every cell type. A few "hot" nets are drawn from
/// often, so some nodes (inputs, splitters and gates alike) get fanouts
/// far above their limit.
fn random_netlist(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_inputs = rng.gen_range(1usize..8);
    let n_gates = rng.gen_range(1usize..120);
    let mut nl = Netlist::new("diff");
    let mut pool: Vec<NodeId> = nl.inputs(n_inputs);
    let mut hot = vec![pool[0]];
    for _ in 0..n_gates {
        let cell = ALL_CELLS[rng.gen_range(0..ALL_CELLS.len())];
        let fanin: Vec<NodeId> = (0..cell.fanin())
            .map(|_| {
                if rng.gen_range(0u32..3) == 0 {
                    hot[rng.gen_range(0..hot.len())]
                } else {
                    pool[rng.gen_range(0..pool.len())]
                }
            })
            .collect();
        let id = nl.gate(cell, &fanin);
        if rng.gen_range(0u32..10) == 0 {
            hot.push(id);
        }
        pool.push(id);
    }
    let fo = nl.fanouts();
    for id in nl.ids().collect::<Vec<_>>() {
        if fo.of(id).is_empty() {
            nl.mark_output("o", id);
        }
    }
    nl
}

/// Every generator at a few sizes, including the tree builders on a
/// fresh netlist.
fn generator_netlists() -> Vec<(String, Netlist)> {
    let mut out = Vec::new();
    for n in [1usize, 2, 3, 5, 8, 16, 33] {
        out.push((
            format!("circulating_register({n})"),
            generators::circulating_register(n),
        ));
        out.push((format!("ndro_bank({n})"), generators::ndro_bank(n)));
        out.push((format!("one_hot_mux({n})"), generators::one_hot_mux(n)));
        out.push((
            format!("binary_counter({n})"),
            generators::binary_counter(n),
        ));
        out.push((
            format!("equality_comparator({n})"),
            generators::equality_comparator(n),
        ));
        out.push((
            format!("broadcast_tree({n})"),
            generators::broadcast_tree(n),
        ));
        out.push((format!("sfqdc_array({n})"), generators::sfqdc_array(n)));
        out.push((format!("double_buffer({n})"), generators::double_buffer(n)));
        let taps: Vec<usize> = (0..n).step_by(2).collect();
        out.push((
            format!("tapped_delay_line({n}, {taps:?})"),
            generators::tapped_delay_line(n, &taps),
        ));
        for (name, tree) in [
            (
                "or_tree",
                generators::or_tree as fn(&mut Netlist, &[NodeId]) -> NodeId,
            ),
            ("and_tree", generators::and_tree),
        ] {
            let mut nl = Netlist::new(name);
            let leaves = nl.inputs(n);
            let root = tree(&mut nl, &leaves);
            nl.mark_output("o", root);
            out.push((format!("{name}({n})"), nl));
        }
        for every in [1usize, 2, 3] {
            let mut nl = Netlist::new("pipelined_fanout");
            let src = nl.input();
            for (i, e) in generators::pipelined_fanout(&mut nl, src, n, every)
                .into_iter()
                .enumerate()
            {
                let g = nl.gate(CellType::Not, &[e]);
                nl.mark_output(format!("o{i}"), g);
            }
            out.push((format!("pipelined_fanout({n}, {every})"), nl));
        }
    }
    out
}

#[test]
fn random_netlists_synthesize_like_the_oracle() {
    let mut s = PassScratch::default();
    for seed in 0..256 {
        assert_synthesis_matches(random_netlist(seed), &mut s, &format!("seed {seed}"));
    }
}

#[test]
fn generators_synthesize_like_the_oracle() {
    let mut s = PassScratch::default();
    for (name, nl) in generator_netlists() {
        assert_synthesis_matches(nl, &mut s, &name);
    }
}

#[test]
fn unbalanced_netlists_fail_check_balance_like_the_oracle() {
    // Before `path_balance` most random netlists are unbalanced: both
    // implementations must agree on every verdict.
    let mut s = PassScratch::default();
    let mut failing = 0;
    for seed in 0..64 {
        let mut nl = random_netlist(seed);
        insert_splitters(&mut nl);
        let m = Model::of(&nl);
        let got = check_balance(&nl).is_ok();
        assert_eq!(got, oracle_check_balance(&m, &mut s).is_ok(), "seed {seed}");
        failing += usize::from(!got);
    }
    assert!(failing > 16, "only {failing} of 64 inputs were unbalanced");
}
