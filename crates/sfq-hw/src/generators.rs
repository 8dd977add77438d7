//! Structural generators for the hardware blocks DigiQ is built from.
//!
//! Each generator returns a self-contained module [`Netlist`]; the
//! controller architectures in `digiq_core::hardware` compose these
//! hierarchically (module stats × instance counts). The blocks map
//! directly onto Fig 5 of the paper:
//!
//! * [`circulating_register`] — the ≤300-bit SFQ bitstream stores that
//!   stream one bit per clock and recirculate;
//! * [`ndro_bank`] — select-bit storage readable every cycle;
//! * [`one_hot_mux`] — the per-qubit "SFQ-based multiplexer" choosing one
//!   of `BS` broadcast bitstreams;
//! * [`tapped_delay_line`] — the DigiQ_opt delay structure producing `BS`
//!   delayed copies of the stored Ry(π/2) bitstream;
//! * [`binary_counter`] / [`equality_comparator`] — the controller-cycle
//!   clock ("a counter that counts up every SFQ chip cycle and resets
//!   every controller cycle", §IV-B) and the delay-tap selectors;
//! * [`broadcast_tree`] — splitter fanout distributing group bitstreams;
//! * [`sfqdc_array`] — the 25-block SFQ/DC current generator of Fig 4;
//! * [`double_buffer`] — Buffer#1/Buffer#2 control-bit staging of Fig 5.

use crate::cells::CellType;
use crate::netlist::{Netlist, NodeId};

/// A circulating (streaming) register: an `n`-bit chain of master–slave
/// NDRO pairs (the dual-clock SFQ shift-register architecture of ref
/// \[18\]) whose output splits into a read tap and a recirculation path —
/// the storage idiom for repeatedly-streamed SFQ bitstreams (ref \[7\] and
/// §IV-A1). Two NDROs per bit make this the dominant cost of the MIMD
/// baselines, matching the paper's 5.01 mW / 13.9 mm² per 300-bit
/// register anchor.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn circulating_register(n: usize) -> Netlist {
    assert!(n > 0);
    let mut nl = Netlist::new(format!("circulating_register_{n}"));
    let load = nl.input("load");
    let head = nl.gate(CellType::NdroDff, &[load]);
    let mut cur = nl.gate(CellType::NdroDff, &[head]);
    for _ in 1..n {
        cur = nl.gate(CellType::NdroDff, &[cur]);
        cur = nl.gate(CellType::NdroDff, &[cur]);
    }
    let split = nl.gate(CellType::Splitter, &[cur]);
    nl.add_feedback(split, head);
    nl.mark_output("stream", split);
    nl
}

/// A bank of `n` NDRO DFFs holding control/select bits that are read
/// non-destructively every controller cycle.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn ndro_bank(n: usize) -> Netlist {
    assert!(n > 0);
    let mut nl = Netlist::new(format!("ndro_bank_{n}"));
    for i in 0..n {
        let d = nl.input(&format!("d{i}"));
        let q = nl.gate(CellType::NdroDff, &[d]);
        nl.mark_output(format!("q{i}"), q);
    }
    nl
}

/// Builds an OR-combining tree over `leaves` inside `nl`, returning the
/// root.
///
/// # Panics
///
/// Panics if `leaves` is empty.
pub fn or_tree(nl: &mut Netlist, leaves: &[NodeId]) -> NodeId {
    assert!(!leaves.is_empty());
    let mut level: Vec<NodeId> = leaves.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(nl.gate(CellType::Or2, &[pair[0], pair[1]]));
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    level[0]
}

/// Builds an AND-combining tree over `leaves` inside `nl`, returning the
/// root.
///
/// # Panics
///
/// Panics if `leaves` is empty.
pub fn and_tree(nl: &mut Netlist, leaves: &[NodeId]) -> NodeId {
    assert!(!leaves.is_empty());
    let mut level: Vec<NodeId> = leaves.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(nl.gate(CellType::And2, &[pair[0], pair[1]]));
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    level[0]
}

/// A `k`-way one-hot multiplexer: `k` data streams gated by `k`
/// NDRO-held select bits, merged through an OR tree — the per-qubit
/// bitstream selector of Fig 5.
///
/// Inputs: `data0..k`, `sel0..k` (select-load pulses). Output: `y`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn one_hot_mux(k: usize) -> Netlist {
    assert!(k > 0);
    let mut nl = Netlist::new(format!("one_hot_mux_{k}"));
    let mut gated = Vec::with_capacity(k);
    for i in 0..k {
        let d = nl.input(&format!("data{i}"));
        let s = nl.input(&format!("sel{i}"));
        let hold = nl.gate(CellType::NdroDff, &[s]);
        gated.push(nl.gate(CellType::And2, &[d, hold]));
    }
    let y = or_tree(&mut nl, &gated);
    nl.mark_output("y", y);
    nl
}

/// An `n`-bit ripple binary counter (T-flip-flop style: XOR + DRO with
/// registered feedback, AND carry chain). Implements the controller-cycle
/// clock of §IV-B.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn binary_counter(n: usize) -> Netlist {
    assert!(n > 0);
    let mut nl = Netlist::new(format!("binary_counter_{n}"));
    let tick = nl.input("tick");
    let mut carry = tick;
    for i in 0..n {
        // Fan the carry out through a pipelined tree (state DFF, XOR,
        // next-stage AND) so no stage exceeds one splitter hop.
        let need = if i + 1 < n { 3 } else { 2 };
        let c_fan = pipelined_fanout(&mut nl, carry, need, 1);
        // state XOR carry -> state'
        let state = nl.gate(CellType::DroDff, &[c_fan[0]]);
        let s_fan = pipelined_fanout(&mut nl, state, need, 1);
        let toggled = nl.gate(CellType::Xor2, &[s_fan[0], c_fan[1]]);
        nl.add_feedback(toggled, state);
        nl.mark_output(format!("q{i}"), s_fan[1]);
        if i + 1 < n {
            carry = nl.gate(CellType::And2, &[s_fan[2], c_fan[2]]);
        }
    }
    nl
}

/// An `n`-bit equality comparator: per-bit XOR → NOT, AND-reduced.
/// Used as the DigiQ_opt delay-tap selector (compare the free-running
/// counter against an NDRO-held 8-bit delay value).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn equality_comparator(n: usize) -> Netlist {
    assert!(n > 0);
    let mut nl = Netlist::new(format!("equality_comparator_{n}"));
    let mut eq_bits = Vec::with_capacity(n);
    for i in 0..n {
        let a = nl.input(&format!("a{i}"));
        let b = nl.input(&format!("b{i}"));
        let x = nl.gate(CellType::Xor2, &[a, b]);
        eq_bits.push(nl.gate(CellType::Not, &[x]));
    }
    let eq = and_tree(&mut nl, &eq_bits);
    nl.mark_output("eq", eq);
    nl
}

/// A delay line of `len` DRO stages with read taps after each position in
/// `taps` (0 = undelayed). Produces the `BS` delayed bitstream copies of
/// DigiQ_opt (§IV-A2): tap `d` carries the stored Ry(π/2) bitstream
/// delayed by `d` SFQ clock cycles.
///
/// # Panics
///
/// Panics if any tap exceeds `len`, or `taps` is empty.
pub fn tapped_delay_line(len: usize, taps: &[usize]) -> Netlist {
    assert!(!taps.is_empty());
    assert!(taps.iter().all(|&t| t <= len), "tap beyond line length");
    let mut nl = Netlist::new(format!("delay_line_{len}x{}", taps.len()));
    let din = nl.input("din");
    let mut sorted: Vec<usize> = taps.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut cur = din;
    let mut pos = 0usize;
    for (k, &t) in sorted.iter().enumerate() {
        cur = nl.chain(CellType::DroDff, cur, t - pos);
        pos = t;
        let is_last = k + 1 == sorted.len() && pos == len;
        if is_last {
            nl.mark_output(format!("tap{t}"), cur);
        } else {
            let s = nl.gate(CellType::Splitter, &[cur]);
            nl.mark_output(format!("tap{t}"), s);
            cur = s;
        }
    }
    if pos < len {
        let end = nl.chain(CellType::DroDff, cur, len - pos);
        nl.mark_output("end", end);
    }
    nl
}

/// Expands `src` into `k` endpoints with a splitter tree, inserting a
/// re-timing DRO DFF after every `pipeline_every` splitter levels so deep
/// trees do not blow the pipeline-stage budget (25 GHz operation needs
/// stages ≲ 40 ps; raw splitter chains cost ~10 ps per level).
pub fn pipelined_fanout(
    nl: &mut Netlist,
    src: NodeId,
    k: usize,
    pipeline_every: usize,
) -> Vec<NodeId> {
    assert!(k > 0 && pipeline_every > 0);
    let mut endpoints: Vec<(NodeId, usize)> = vec![(src, 0)];
    while endpoints.len() < k {
        let (head, depth) = endpoints.remove(0);
        let head = if depth > 0 && depth % pipeline_every == 0 {
            nl.gate(CellType::DroDff, &[head])
        } else {
            head
        };
        let s = nl.gate(CellType::Splitter, &[head]);
        endpoints.push((s, depth + 1));
        endpoints.push((s, depth + 1));
    }
    endpoints.into_iter().map(|(n, _)| n).collect()
}

/// A 1→`k` broadcast (pipelined splitter tree): distributes one group
/// bitstream to `k` qubit controllers ("sharing the bitstreams can be done
/// efficiently in SFQ by broadcasting … using splitter gates", §IV-A1).
/// Re-timing DFFs every two splitter levels keep each stage within the
/// 40 ps clock.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn broadcast_tree(k: usize) -> Netlist {
    assert!(k > 0);
    let mut nl = Netlist::new(format!("broadcast_{k}"));
    let src = nl.input("src");
    if k == 1 {
        nl.mark_output("out0", src);
        return nl;
    }
    let endpoints = pipelined_fanout(&mut nl, src, k, 1);
    for (i, e) in endpoints.iter().enumerate() {
        nl.mark_output(format!("out{i}"), *e);
    }
    nl
}

/// The per-qubit flux-pulse current generator: `n` SFQ/DC converters
/// toggled by a shared start/stop trigger through a splitter tree
/// (Fig 4a; the paper enables 25 blocks for the CZ waveform).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn sfqdc_array(n: usize) -> Netlist {
    assert!(n > 0);
    let mut nl = Netlist::new(format!("sfqdc_array_{n}"));
    let trigger = nl.input("trigger");
    let endpoints = if n == 1 {
        vec![trigger]
    } else {
        pipelined_fanout(&mut nl, trigger, n, 1)
    };
    for (i, e) in endpoints.iter().enumerate() {
        let dc = nl.gate(CellType::SfqDc, &[*e]);
        nl.mark_output(format!("i{i}"), dc);
    }
    nl
}

/// The two-stage control buffer of Fig 5: `n` bits stream into Buffer#1
/// while Buffer#2 feeds the qubit controllers; a transfer pulse moves
/// Buffer#1 → Buffer#2 at each controller-cycle boundary.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn double_buffer(n: usize) -> Netlist {
    assert!(n > 0);
    let mut nl = Netlist::new(format!("double_buffer_{n}"));
    for i in 0..n {
        let d = nl.input(&format!("d{i}"));
        let b1 = nl.gate(CellType::DroDff, &[d]);
        let b2 = nl.gate(CellType::NdroDff, &[b1]);
        nl.mark_output(format!("q{i}"), b2);
    }
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{check_balance, synthesize};

    #[test]
    fn circulating_register_has_feedback() {
        let nl = circulating_register(300);
        assert!(nl.validate().is_ok());
        assert_eq!(nl.feedback_edges().len(), 1);
        let s = nl.stats();
        // Master–slave NDRO pairs: 2 per bit.
        assert_eq!(s.count(CellType::NdroDff), 600);
        assert_eq!(s.count(CellType::Splitter), 1);
        assert_eq!(s.total_jj, 600 * 18 + 6);
    }

    #[test]
    fn ndro_bank_counts() {
        let nl = ndro_bank(8);
        assert!(nl.validate().is_ok());
        assert_eq!(nl.stats().count(CellType::NdroDff), 8);
        assert_eq!(nl.outputs().len(), 8);
    }

    #[test]
    fn mux_structure_grows_with_k() {
        for k in [1usize, 2, 4, 8, 16] {
            let nl = one_hot_mux(k);
            assert!(nl.validate().is_ok(), "mux {k} invalid");
            let s = nl.stats();
            assert_eq!(s.count(CellType::And2), k as u64);
            assert_eq!(s.count(CellType::NdroDff), k as u64);
            assert_eq!(s.count(CellType::Or2), (k - 1) as u64);
        }
        // Cost at BS=16 clearly exceeds BS=2 (the Fig 8 trend's source).
        assert!(one_hot_mux(16).stats().total_jj > 4 * one_hot_mux(2).stats().total_jj);
    }

    #[test]
    fn counter_validates_with_feedback() {
        let nl = binary_counter(8);
        assert!(nl.validate().is_ok());
        assert_eq!(nl.feedback_edges().len(), 8);
        assert_eq!(nl.outputs().len(), 8);
        let s = nl.stats();
        assert_eq!(s.count(CellType::Xor2), 8);
        assert_eq!(s.count(CellType::And2), 7);
        // Pipelined fanout trees add DROs beyond the 8 state bits.
        assert!(s.count(CellType::DroDff) >= 8);
    }

    #[test]
    fn comparator_structure() {
        let nl = equality_comparator(8);
        assert!(nl.validate().is_ok());
        let s = nl.stats();
        assert_eq!(s.count(CellType::Xor2), 8);
        assert_eq!(s.count(CellType::Not), 8);
        assert_eq!(s.count(CellType::And2), 7);
    }

    #[test]
    fn delay_line_taps() {
        let nl = tapped_delay_line(255, &[0, 64, 128, 255]);
        assert!(nl.validate().is_ok());
        let s = nl.stats();
        assert_eq!(s.count(CellType::DroDff), 255);
        // One splitter per non-terminal tap.
        assert_eq!(s.count(CellType::Splitter), 3);
        assert_eq!(nl.outputs().len(), 4);
    }

    #[test]
    #[should_panic]
    fn delay_line_rejects_tap_beyond_length() {
        let _ = tapped_delay_line(10, &[11]);
    }

    #[test]
    fn broadcast_tree_splitter_count() {
        for k in [1usize, 2, 3, 8, 512] {
            let nl = broadcast_tree(k);
            assert!(nl.validate().is_ok());
            assert_eq!(
                nl.stats().count(CellType::Splitter),
                (k - 1) as u64,
                "broadcast {k}"
            );
            assert_eq!(nl.outputs().len(), k);
        }
    }

    #[test]
    fn sfqdc_array_of_25() {
        let nl = sfqdc_array(25);
        assert!(nl.validate().is_ok());
        let s = nl.stats();
        assert_eq!(s.count(CellType::SfqDc), 25);
        assert_eq!(s.count(CellType::Splitter), 24);
    }

    #[test]
    fn double_buffer_stages() {
        let nl = double_buffer(5);
        assert!(nl.validate().is_ok());
        let s = nl.stats();
        assert_eq!(s.count(CellType::DroDff), 5);
        assert_eq!(s.count(CellType::NdroDff), 5);
    }

    #[test]
    fn generators_survive_synthesis() {
        for mut nl in [
            one_hot_mux(8),
            equality_comparator(8),
            binary_counter(4),
            tapped_delay_line(32, &[0, 8, 16]),
        ] {
            synthesize(&mut nl);
            assert!(
                nl.validate().is_ok(),
                "{} invalid post-synthesis",
                nl.name()
            );
            assert!(
                check_balance(&nl).is_ok(),
                "{} unbalanced post-synthesis",
                nl.name()
            );
        }
    }

    #[test]
    fn mux_synthesis_adds_balancing_dffs() {
        let mut nl = one_hot_mux(8);
        let (_, inserted, _) = synthesize(&mut nl);
        // The OR tree has staggered depths only if inputs skew; the
        // AND row is uniform, so the tree itself is balanced — but the
        // data/select inputs meet at ANDs after NDRO (depth skew of 1).
        assert!(inserted > 0, "expected balancing DFFs in mux");
    }
}
