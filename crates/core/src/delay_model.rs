//! Shared gate → delay-class assignment (§V-A).
//!
//! Both execution-time engines — the *analytic* slot model of
//! [`crate::exec`] and the *cycle-accurate* co-simulator of
//! [`crate::cosim`] — need the same three per-gate decisions:
//!
//! 1. **DigiQ_min / SFQ_MIMD_decomp:** how many controller cycles `K` the
//!    gate's basis decomposition occupies (drawn deterministically from
//!    the empirical `calib::min_decomp` length distribution);
//! 2. **DigiQ_opt:** how many delayed-Ubs firing positions `L ∈ {1,2,3}`
//!    realize the gate (diagonal → 1, generic → 2, near-π → 3);
//! 3. **DigiQ_opt:** which *delay class* each firing position demands —
//!    the §V-A sharing key after angle quantization and drift-variation
//!    merging; gates in the same class share one broadcast delay slot.
//!
//! All three are pure functions of the gate, the qubit, and
//! [`crate::exec::ExecParams`], hashed through the repo's pinned
//! [`qsim::rng::stable_hash`]. A [`DelayModel`] lives for one engine call
//! and hashes each distinct draw key once, into per-call tables; delay
//! classes come back as canonical ids assigned by draw value. Keeping
//! them here — instead of inlined in each engine — is what makes the
//! differential tests (`crates/core/tests/cosim_diff.rs`) meaningful: the
//! two engines agree on *what each gate costs* by construction, so any
//! divergence is a real disagreement between the timing models, not a
//! drifted copy of the draw arithmetic.

use crate::exec::ExecParams;
use qcircuit::ir::OneQ;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Stable digest used for every observable draw (lands in golden files).
pub(crate) fn hash_u64(parts: &[u64]) -> u64 {
    qsim::rng::stable_hash(parts)
}

/// θ (ZYZ middle angle) of a 1q gate, cheaply.
pub fn gate_theta(kind: OneQ) -> f64 {
    match kind {
        OneQ::H => std::f64::consts::FRAC_PI_2,
        OneQ::X | OneQ::Y => std::f64::consts::PI,
        OneQ::Z | OneQ::S | OneQ::Sdg | OneQ::T | OneQ::Tdg | OneQ::Rz(_) => 0.0,
        OneQ::Rx(a) | OneQ::Ry(a) => a.abs().min(2.0 * std::f64::consts::PI - a.abs()),
        OneQ::U { theta, .. } => theta.abs(),
    }
}

/// Quantized angle-class of a gate (delay-sharing key).
pub fn gate_bin(kind: OneQ, bins: usize) -> u64 {
    let q = |a: f64| {
        ((a.rem_euclid(2.0 * std::f64::consts::PI)) / (2.0 * std::f64::consts::PI) * bins as f64)
            as u64
    };
    match kind {
        OneQ::H => 1,
        OneQ::X => 2,
        OneQ::Y => 3,
        OneQ::Z => 4,
        OneQ::S => 5,
        OneQ::Sdg => 6,
        OneQ::T => 7,
        OneQ::Tdg => 8,
        OneQ::Rx(a) => 100 + q(a),
        OneQ::Ry(a) => 100 + bins as u64 + q(a),
        OneQ::Rz(a) => 100 + 2 * bins as u64 + q(a),
        OneQ::U { theta, phi, lam } => {
            1000 + q(theta) * (bins as u64 * bins as u64) + q(phi) * bins as u64 + q(lam)
        }
    }
}

/// Most delayed-Ubs firing positions a gate needs on DigiQ_opt (the `L`
/// of [`DelayModel::firing_count`]).
pub const MAX_FIRINGS: usize = 3;

/// Multiply-rotate word hasher for the per-gate draw-table lookups. The
/// keys are small integer tuples derived from compiled circuits, not
/// outside input, and the default SipHash doubles the per-gate cost of
/// `exec::execute`.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// The per-gate cost/delay assignment of one [`ExecParams`] over one
/// circuit's qubits, owned by one `exec::execute` or `cosim::simulate`
/// call. Both execution engines take every draw through it, so identical
/// params guarantee identical draws.
///
/// Each distinct draw key is hashed once per call: the first gate that
/// needs a key fills a table, and every later gate reads the table (a
/// delay-class row draws all [`MAX_FIRINGS`] positions at once). A value
/// is always exactly [`qsim::rng::stable_hash`] of the same words, and the
/// tables die with the model, so nothing outlives the call.
#[derive(Debug, Clone)]
pub struct DelayModel<'a> {
    seed: u64,
    angle_bins: usize,
    opt_l3_threshold: f64,
    min_lengths: &'a [usize],
    /// Per qubit: `(q % variation_classes) << 1 | group % 2`, the qubit's
    /// part of its delay-class keys.
    qubit_keys: Vec<u64>,
    /// `min_depth` draws by `(gate_bin, q % 7)`.
    depths: WordMap<(u64, u64), usize>,
    /// Canonical class ids of every firing position by `(gate_bin,
    /// qubit key)`.
    classes: WordMap<(u64, u64), [u32; MAX_FIRINGS]>,
    /// Draw value → canonical class id, in first-draw order.
    class_ids: WordMap<u64, u32>,
}

impl<'a> DelayModel<'a> {
    /// Borrows the assignment-relevant fields of `params`, with empty
    /// draw tables, for a circuit of `n_qubits` qubits whose qubit `q` is
    /// in SIMD group `group_of[q]` (group 0 past the end of `group_of`).
    pub fn new(params: &'a ExecParams, group_of: &[usize], n_qubits: usize) -> Self {
        let variation_classes = params.variation_classes.max(1);
        DelayModel {
            seed: params.seed,
            angle_bins: params.angle_bins,
            opt_l3_threshold: params.opt_l3_threshold,
            min_lengths: &params.min_lengths,
            qubit_keys: (0..n_qubits)
                .map(|q| {
                    let parity = group_of.get(q).copied().unwrap_or(0) % 2; // frequency class
                    let variation = q % variation_classes; // drift-forced
                    (variation as u64) << 1 | parity as u64
                })
                .collect(),
            depths: WordMap::default(),
            classes: WordMap::default(),
            class_ids: WordMap::default(),
        }
    }

    /// Decomposition depth `K` (controller cycles) charged to a 1q gate on
    /// the discrete-basis designs (DigiQ_min, SFQ_MIMD_decomp): a
    /// deterministic draw from the empirical length distribution, keyed by
    /// the gate's angle class and a mild per-qubit variation.
    pub fn min_depth(&mut self, kind: OneQ, q: usize) -> usize {
        let key = (gate_bin(kind, self.angle_bins), q as u64 % 7);
        let (seed, lengths) = (self.seed, self.min_lengths);
        *self.depths.entry(key).or_insert_with(|| {
            let idx = hash_u64(&[seed, key.0, key.1]) as usize % lengths.len().max(1);
            lengths.get(idx).copied().unwrap_or(1)
        })
    }

    /// Number of delayed-Ubs firing positions `L ∈ {1, 2, 3}` a 1q gate
    /// needs on DigiQ_opt (§V-A: diagonal gates absorb into one firing,
    /// near-π rotations need three).
    pub fn firing_count(&self, kind: OneQ) -> usize {
        let theta = gate_theta(kind);
        if theta == 0.0 {
            1 // diagonal: single absorbed firing
        } else if theta > self.opt_l3_threshold {
            3
        } else {
            2
        }
    }

    /// The delay classes a gate on qubit `q` demands on DigiQ_opt, one per
    /// firing position `0..firing_count(kind)`: gates mapping to the same
    /// class at a position share one of the `BS` broadcast delay slots
    /// that cycle (§V-A error margin), distinct classes serialize.
    ///
    /// A class is the draw `stable_hash([seed, gate_bin, pos, group % 2,
    /// q % variation_classes])`, returned as a canonical id: ids count up
    /// from 0 in first-draw order and are equal exactly when the draws
    /// are equal, so two keys whose 64-bit draws collide share one id.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not below the model's `n_qubits`.
    pub fn delay_classes(&mut self, kind: OneQ, q: usize) -> &[u32] {
        let firings = self.firing_count(kind);
        let key = (gate_bin(kind, self.angle_bins), self.qubit_keys[q]);
        let (seed, ids) = (self.seed, &mut self.class_ids);
        let row = self.classes.entry(key).or_insert_with(|| {
            let (bin, parity, variation) = (key.0, key.1 & 1, key.1 >> 1);
            std::array::from_fn(|pos| {
                let value = hash_u64(&[seed, bin, pos as u64, parity, variation]);
                let fresh = ids.len() as u32;
                *ids.entry(value).or_insert(fresh)
            })
        });
        &row[..firings]
    }

    /// The empirical DigiQ_min length distribution backing
    /// [`DelayModel::min_depth`].
    pub fn min_lengths(&self) -> &[usize] {
        self.min_lengths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{ControllerDesign, SystemConfig};

    fn params() -> ExecParams {
        ExecParams::new(SystemConfig::paper_default(
            ControllerDesign::DigiqOpt { bs: 8 },
            2,
        ))
    }

    #[test]
    fn min_depth_draws_from_the_distribution() {
        let p = params();
        let mut m = DelayModel::new(&p, &[], 20);
        for q in 0..20 {
            let k = m.min_depth(OneQ::H, q);
            assert!(p.min_lengths.contains(&k), "depth {k} not in distribution");
        }
        // Deterministic, and periodic in the 7-class qubit variation.
        assert_eq!(m.min_depth(OneQ::H, 3), m.min_depth(OneQ::H, 3));
        assert_eq!(m.min_depth(OneQ::H, 3), m.min_depth(OneQ::H, 10));
        // The table holds exactly the draw a fresh model makes.
        let idx =
            hash_u64(&[p.seed, gate_bin(OneQ::H, p.angle_bins), 3]) as usize % p.min_lengths.len();
        assert_eq!(m.min_depth(OneQ::H, 3), p.min_lengths[idx]);
    }

    #[test]
    fn firing_counts_follow_theta() {
        let p = params();
        let m = DelayModel::new(&p, &[], 0);
        assert_eq!(m.firing_count(OneQ::Rz(0.7)), 1, "diagonal absorbs");
        assert_eq!(m.firing_count(OneQ::H), 2);
        assert_eq!(m.firing_count(OneQ::X), 3, "π rotation needs 3 firings");
    }

    #[test]
    fn delay_classes_share_and_split() {
        let p = params();
        let mut m = DelayModel::new(&p, &[0, 1, 1, 0], 4);
        let h = m.delay_classes(OneQ::H, 0).to_vec();
        assert_eq!(h.len(), 2, "one class per firing position");
        // Same gate, same variation class, same frequency class → shared.
        assert_eq!(m.delay_classes(OneQ::H, 3), &h[..]);
        // Different firing position, frequency class or angle class →
        // distinct.
        assert_ne!(h[0], h[1]);
        assert_ne!(m.delay_classes(OneQ::H, 1), &h[..]);
        let x = m.delay_classes(OneQ::X, 0).to_vec();
        assert_eq!(x.len(), 3);
        assert!(x.iter().all(|c| !h.contains(c)), "{x:?} vs {h:?}");
    }

    #[test]
    fn class_ids_follow_the_draw_value() {
        // Reference: the draws themselves, canonicalized by value.
        let p = params();
        let group_of = [2, 0, 3, 3, 1, 1, 0];
        let mut m = DelayModel::new(&p, &group_of, 9);
        let mut ids: Vec<u64> = Vec::new();
        for (kind, q) in [
            (OneQ::Ry(0.4), 5),
            (OneQ::X, 7),
            (OneQ::Ry(0.4), 8),
            (OneQ::Rz(1.1), 2),
            (OneQ::Ry(0.4), 2),
        ] {
            let group = group_of.get(q).copied().unwrap_or(0);
            let got = m.delay_classes(kind, q).to_vec();
            // The reference numbers ids in draw order: a row draws every
            // position.
            let want: Vec<u32> = (0..MAX_FIRINGS)
                .map(|pos| {
                    let value = hash_u64(&[
                        p.seed,
                        gate_bin(kind, p.angle_bins),
                        pos as u64,
                        (group % 2) as u64,
                        (q % p.variation_classes) as u64,
                    ]);
                    match ids.iter().position(|&v| v == value) {
                        Some(i) => i as u32,
                        None => {
                            ids.push(value);
                            ids.len() as u32 - 1
                        }
                    }
                })
                .collect();
            assert_eq!(got, want[..m.firing_count(kind)], "{kind:?} on q{q}");
        }
    }
}
