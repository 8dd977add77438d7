//! SFQ bitstream-driven qubit evolution (§II-C, Fig 2).
//!
//! An SFQ controller drives a qubit with a train of quantized flux pulses,
//! one candidate slot per SFQ clock cycle (40 ps in the paper). Each pulse
//! is orders of magnitude shorter than a qubit period and is modelled as an
//! instantaneous tip `exp(−i·(δθ/2)·Y)` about the y-axis (McDermott–Vavilov
//! model), where `Y = i(a†−a)` couples neighbouring transmon levels and
//! thus captures leakage into non-computational states. Between pulse slots
//! the qubit evolves freely.
//!
//! A *bitstream* `b ∈ {0,1}^L` therefore produces the lab-frame unitary
//!
//! ```text
//! U_lab(b) = Π_k  F · K^{b_k}      (k = L−1 … 0, earliest bit first)
//! ```
//!
//! with `F` the one-clock free propagator and `K` the kick. Gates are
//! defined in the qubit rotating frame: `U(b) = R(L·T_clk)† · U_lab(b)`.
//!
//! Delaying a stored bitstream by `d` clock cycles (the DigiQ_opt `Rz`
//! mechanism, §IV-A2) conjugates the frame gate by `Rz(θ_d)` with
//! `θ_d = 2π·f·d·T_clk mod 2π` — the coverage of these phases over
//! `d ∈ [0, N]` is exactly the Table II parking-frequency analysis.
//!
//! # Examples
//!
//! ```
//! use qsim::transmon::Transmon;
//! use qsim::pulse::{SfqParams, SfqPulseSim};
//!
//! let q = Transmon::new(6.21286);
//! let sim = SfqPulseSim::new(q, SfqParams::default());
//! // A resonant comb rotates the qubit about y.
//! let bits = sim.resonant_comb(100);
//! let u = sim.frame_gate(&bits);
//! assert!(u.is_unitary(1e-10));
//! ```

use crate::complex::C64;
use crate::counters;
use crate::expm::expm_hermitian_propagator;
use crate::matrix::CMat;
use crate::transmon::Transmon;
use std::f64::consts::PI;

/// SFQ pulse-train parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SfqParams {
    /// SFQ chip clock period in ns. The paper synthesizes a worst stage
    /// delay of 34.5 ps and chooses a 40 ps clock (§VI-A2).
    pub clock_period_ns: f64,
    /// Tip angle per SFQ pulse in radians. Set so a π/2 rotation fits a
    /// ≤300-bit stream: with pulses every ~4 clock ticks at 6.2 GHz,
    /// δθ = (π/2)/63 uses 63 pulses ≈ 253 ticks.
    pub delta_theta: f64,
}

impl Default for SfqParams {
    fn default() -> Self {
        SfqParams {
            clock_period_ns: 0.040,
            delta_theta: (PI / 2.0) / 63.0,
        }
    }
}

/// Precomputed propagators for bitstream evolution of one transmon.
#[derive(Debug, Clone)]
pub struct SfqPulseSim {
    transmon: Transmon,
    params: SfqParams,
    /// Lab-frame one-clock free propagator.
    free: CMat,
    /// Lab-frame one-clock propagator with a kick at the start: `F·K`.
    free_kick: CMat,
}

impl SfqPulseSim {
    /// Builds the simulator, precomputing the per-clock propagators.
    pub fn new(transmon: Transmon, params: SfqParams) -> Self {
        let free = transmon.free_propagator(params.clock_period_ns);
        let kick = expm_hermitian_propagator(&transmon.drive_y(), params.delta_theta / 2.0);
        let free_kick = free.matmul(&kick);
        SfqPulseSim {
            transmon,
            params,
            free,
            free_kick,
        }
    }

    /// The underlying transmon model.
    pub fn transmon(&self) -> &Transmon {
        &self.transmon
    }

    /// The pulse parameters.
    pub fn params(&self) -> &SfqParams {
        &self.params
    }

    /// The one-clock propagator of a slot: `F·K` if it fires, else `F`.
    fn step(&self, fire: bool) -> &CMat {
        if fire {
            &self.free_kick
        } else {
            &self.free
        }
    }

    /// Lab-frame unitary of a bitstream (earliest bit applied first), on
    /// every transmon level.
    ///
    /// Only [`frame_gate`](Self::frame_gate) needs all of it (the drifted
    /// basis operations of §V-A step 3 keep the leakage levels); the
    /// qubit-block fitness goes through [`QubitTrail`] instead. The
    /// per-tick products ping-pong between the accumulator and one
    /// scratch matrix, so a 253-tick stream costs two allocations instead
    /// of one per tick.
    pub fn lab_gate(&self, bits: &[bool]) -> CMat {
        let n = self.transmon.levels;
        let mut u = CMat::identity(n);
        let mut tmp = CMat::zeros(n, n);
        for &b in bits {
            self.step(b).matmul_into(&u, &mut tmp);
            std::mem::swap(&mut u, &mut tmp);
        }
        u
    }

    /// Rotating-frame gate of a bitstream at the qubit's own frequency:
    /// `R(L·T)† · U_lab`, on every transmon level.
    pub fn frame_gate(&self, bits: &[bool]) -> CMat {
        let t_total = bits.len() as f64 * self.params.clock_period_ns;
        let r = self
            .transmon
            .frame_propagator(self.transmon.frequency_ghz, t_total);
        r.dagger().matmul(&self.lab_gate(bits))
    }

    /// Rotating-frame gate projected onto the two-level computational
    /// subspace (the object whose fidelity §V-A evaluates; leakage shows up
    /// as sub-unitarity).
    ///
    /// Bit-for-bit `frame_gate(bits).top_left_block(2)`, at a third of
    /// the flops: columns 0 and 1 of every step product depend only on
    /// columns 0 and 1 of the product before it, so the from-zero case of
    /// [`QubitTrail`] propagates just that `n×2` block (every level's row
    /// is still kept, so leakage stays in the result).
    pub fn frame_gate_qubit(&self, bits: &[bool]) -> CMat {
        QubitTrail::new(self, bits).gate()
    }

    /// Writes the prefix blocks of `bits` into `blocks`: the `n×2` block
    /// in `blocks[..2n]` is the start, and tick `k` writes
    /// `blocks[(k+1)·2n..(k+2)·2n] = step(bits[k]) · block k`.
    fn propagate_columns(&self, bits: &[bool], blocks: &mut [C64]) {
        let n = self.transmon.levels;
        let w = 2 * n;
        counters::tally_flops((8 * n * n * 2 * bits.len()) as u64);
        for (k, &b) in bits.iter().enumerate() {
            let (done, rest) = blocks.split_at_mut((k + 1) * w);
            step_columns(self.step(b).as_slice(), &done[k * w..], &mut rest[..w]);
        }
    }

    /// Phase advance per clock tick: `2π·f·T_clk mod 2π`.
    pub fn phase_per_tick(&self) -> f64 {
        (2.0 * PI * self.transmon.frequency_ghz * self.params.clock_period_ns).rem_euclid(2.0 * PI)
    }

    /// A deterministic resonant comb: pulses as close as possible to once
    /// per qubit oscillation period, for `n_pulses` pulses. This is the
    /// intuitive Fig 2 drive and the seed for the genetic bitstream search.
    pub fn resonant_comb(&self, n_pulses: usize) -> Vec<bool> {
        let ticks_per_period = 1.0 / (self.transmon.frequency_ghz * self.params.clock_period_ns);
        let len = (ticks_per_period * n_pulses as f64).ceil() as usize;
        let mut bits = vec![false; len];
        for k in 0..n_pulses {
            let pos = (k as f64 * ticks_per_period).round() as usize;
            if pos < len {
                bits[pos] = true;
            }
        }
        bits
    }

    /// Evolves `|0⟩` under a bitstream, returning the Bloch vector
    /// `(x, y, z)` of the qubit-subspace projection after every clock tick
    /// (lab frame). Regenerates the trajectories of Fig 2(b).
    pub fn bloch_trajectory(&self, bits: &[bool]) -> Vec<(f64, f64, f64)> {
        let mut state = vec![C64::ZERO; self.transmon.levels];
        state[0] = C64::ONE;
        let mut scratch = state.clone();
        let mut out = Vec::with_capacity(bits.len());
        for &b in bits {
            self.step(b).apply_into(&state, &mut scratch);
            std::mem::swap(&mut state, &mut scratch);
            let c0 = state[0];
            let c1 = state[1];
            let cross = c0.conj() * c1;
            out.push((2.0 * cross.re, 2.0 * cross.im, c0.abs2() - c1.abs2()));
        }
        out
    }
}

/// `dst = step · src` for one `n×2` column block (row-major, `n` the
/// side of `step`): the columns 0 and 1 of [`CMat::matmul_into`], each
/// entry accumulated from zero over every `k` in the same order and the
/// same `ar·rr − ai·ri` form, so the entries are bit-for-bit those of the
/// full product.
#[inline]
fn step_columns(step: &[C64], src: &[C64], dst: &mut [C64]) {
    let n = dst.len() / 2;
    for (row, out) in step.chunks_exact(n).zip(dst.chunks_exact_mut(2)) {
        let (mut o0, mut o1) = (C64::ZERO, C64::ZERO);
        for (a, r) in row.iter().zip(src.chunks_exact(2)) {
            let (ar, ai) = (a.re, a.im);
            o0.re += ar * r[0].re - ai * r[0].im;
            o0.im += ar * r[0].im + ai * r[0].re;
            o1.re += ar * r[1].re - ai * r[1].im;
            o1.im += ar * r[1].im + ai * r[1].re;
        }
        out[0] = o0;
        out[1] = o1;
    }
}

/// The qubit-block evolution of one bitstream, kept as a trail of prefix
/// products so single-bit flips can be re-evaluated from the flip on.
///
/// Block `k` holds columns 0 and 1 of the lab-frame product of ticks
/// `0..k` (every level's row, `n×2`). Flipping bit `i` leaves blocks
/// `0..=i` unchanged, so [`flipped_gate`](Self::flipped_gate) resumes
/// from block `i` and costs `L − i` ticks instead of `L`. Every block is
/// computed by the same kernel in the same order as the from-zero
/// [`SfqPulseSim::frame_gate_qubit`], so a resumed gate is bit-for-bit
/// the from-scratch gate of the flipped stream.
///
/// # Examples
///
/// ```
/// use qsim::pulse::{QubitTrail, SfqParams, SfqPulseSim};
/// use qsim::transmon::Transmon;
///
/// let sim = SfqPulseSim::new(Transmon::new(6.21286), SfqParams::default());
/// let mut bits = sim.resonant_comb(10);
/// let mut trail = QubitTrail::new(&sim, &bits);
/// let trial = trail.flipped_gate(7);
/// trail.accept_flip(7);
/// bits[7] = !bits[7];
/// assert_eq!(trail.bits(), &bits[..]);
/// assert!(trial.approx_eq(&sim.frame_gate_qubit(&bits), 0.0));
/// ```
#[derive(Debug, Clone)]
pub struct QubitTrail<'a> {
    sim: &'a SfqPulseSim,
    bits: Vec<bool>,
    /// Blocks `0..=L`, `2n` entries each.
    blocks: Vec<C64>,
    /// Blocks of the last [`flipped_gate`](Self::flipped_gate) trial
    /// (same layout; valid from its flip on). Allocated on first use.
    trial: Vec<C64>,
    /// The flip the trial blocks hold.
    trial_flip: Option<usize>,
    /// Rows 0 and 1 of `R(L·T)†`, `n` entries each.
    frame_rows: Vec<C64>,
}

impl<'a> QubitTrail<'a> {
    /// Propagates `bits` from the identity, keeping every prefix block.
    pub fn new(sim: &'a SfqPulseSim, bits: &[bool]) -> Self {
        let n = sim.transmon.levels;
        let w = 2 * n;
        counters::tally_alloc();
        let mut blocks = vec![C64::ZERO; (bits.len() + 1) * w];
        // Block 0: columns 0 and 1 of the identity.
        blocks[0] = C64::ONE;
        blocks[3] = C64::ONE;
        sim.propagate_columns(bits, &mut blocks);
        let t_total = bits.len() as f64 * sim.params.clock_period_ns;
        let r = sim
            .transmon
            .frame_propagator(sim.transmon.frequency_ghz, t_total);
        let frame_rows = (0..2)
            .flat_map(|i| (0..n).map(move |k| (i, k)))
            .map(|(i, k)| r[(k, i)].conj())
            .collect();
        QubitTrail {
            sim,
            bits: bits.to_vec(),
            blocks,
            trial: Vec::new(),
            trial_flip: None,
            frame_rows,
        }
    }

    /// The current bitstream.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// The rotating-frame qubit block of the current bitstream.
    pub fn gate(&self) -> CMat {
        let start = self.bits.len() * 2 * self.sim.transmon.levels;
        self.frame_gate_of(&self.blocks[start..])
    }

    /// The rotating-frame qubit block of the current bitstream with bit
    /// `i` flipped, resumed from prefix block `i`. The trail itself is
    /// unchanged until [`accept_flip`](Self::accept_flip).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn flipped_gate(&mut self, i: usize) -> CMat {
        let w = 2 * self.sim.transmon.levels;
        if self.trial.is_empty() {
            counters::tally_alloc();
            self.trial = vec![C64::ZERO; self.blocks.len()];
        }
        self.trial[i * w..(i + 1) * w].copy_from_slice(&self.blocks[i * w..(i + 1) * w]);
        self.bits[i] = !self.bits[i];
        self.sim
            .propagate_columns(&self.bits[i..], &mut self.trial[i * w..]);
        self.bits[i] = !self.bits[i];
        self.trial_flip = Some(i);
        self.frame_gate_of(&self.trial[self.bits.len() * w..])
    }

    /// Commits the flip of the last [`flipped_gate`](Self::flipped_gate)
    /// trial: bit `i` flips and blocks `i+1..=L` take the trial's values.
    ///
    /// # Panics
    ///
    /// Panics if the last trial was not a flip of bit `i`.
    pub fn accept_flip(&mut self, i: usize) {
        assert_eq!(self.trial_flip, Some(i), "accept_flip without its trial");
        let w = 2 * self.sim.transmon.levels;
        self.bits[i] = !self.bits[i];
        self.blocks[(i + 1) * w..].copy_from_slice(&self.trial[(i + 1) * w..]);
    }

    /// The four entries of `(R† · U)[0..2, 0..2]` from the last block of
    /// `U`: each accumulated from zero over every level `k`, as the full
    /// [`CMat::matmul_into`] of `r.dagger()` would.
    fn frame_gate_of(&self, last: &[C64]) -> CMat {
        let n = self.sim.transmon.levels;
        counters::tally_flops((8 * n * 4) as u64);
        let mut out = [C64::ZERO; 4];
        for (i, rrow) in self.frame_rows.chunks_exact(n).enumerate() {
            for (a, r) in rrow.iter().zip(last.chunks_exact(2)) {
                let (ar, ai) = (a.re, a.im);
                for (o, r) in out[2 * i..2 * i + 2].iter_mut().zip(r) {
                    o.re += ar * r.re - ai * r.im;
                    o.im += ar * r.im + ai * r.re;
                }
            }
        }
        CMat::from_slice(2, 2, &out)
    }
}

/// Packs a bool bitstream into bytes, LSB-first — the on-chip register
/// image (§IV-B describes loading bitstreams over the data cables).
pub fn pack_bits(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Unpacks a byte image back into `len` bools, inverse of [`pack_bits`].
pub fn unpack_bits(bytes: &[u8], len: usize) -> Vec<bool> {
    (0..len)
        .map(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::average_gate_error;
    use crate::gates;

    fn sim() -> SfqPulseSim {
        SfqPulseSim::new(Transmon::new(6.21286), SfqParams::default())
    }

    #[test]
    fn empty_bitstream_is_identity() {
        let s = sim();
        let u = s.frame_gate(&[]);
        assert!(u.approx_eq(&CMat::identity(6), 1e-14));
    }

    #[test]
    fn all_zero_bitstream_is_identity_on_qubit_subspace() {
        let s = sim();
        let u = s.frame_gate_qubit(&[false; 100]);
        // Free evolution in the qubit's own frame: diagonal, no qubit
        // rotation; phases on |0⟩,|1⟩ levels are trivial.
        assert!(
            gates::phase_distance(&u, &gates::id2()) < 1e-10,
            "dist = {}",
            gates::phase_distance(&u, &gates::id2())
        );
    }

    #[test]
    fn lab_gate_is_unitary() {
        let s = sim();
        let bits = s.resonant_comb(20);
        assert!(s.lab_gate(&bits).is_unitary(1e-10));
        assert!(s.frame_gate(&bits).is_unitary(1e-10));
    }

    #[test]
    fn resonant_comb_rotates_towards_ry() {
        // 63 resonant pulses at δθ = (π/2)/63 ≈ a π/2 y-rotation, with some
        // residual error from timing granularity and leakage.
        let s = sim();
        let bits = s.resonant_comb(63);
        let u = s.frame_gate_qubit(&bits);
        // Compare up to a z-phase before/after (timing offsets):
        let mut best = f64::INFINITY;
        for i in 0..64 {
            for j in 0..64 {
                let a = i as f64 / 64.0 * 2.0 * PI;
                let b = j as f64 / 64.0 * 2.0 * PI;
                let target = gates::rz(a)
                    .matmul(&gates::ry(PI / 2.0))
                    .matmul(&gates::rz(b));
                best = best.min(average_gate_error(&u, &target));
            }
        }
        assert!(best < 0.05, "comb far from Ry(π/2): err = {best}");
    }

    #[test]
    fn single_pulse_tips_by_delta_theta() {
        let s = sim();
        let traj = s.bloch_trajectory(&[true]);
        let (_, _, z) = traj[0];
        // z = cos(δθ) after one kick.
        assert!((z - s.params().delta_theta.cos()).abs() < 1e-6);
    }

    #[test]
    fn trajectory_free_evolution_keeps_z() {
        let s = sim();
        let bits = [true, false, false, false, false];
        let traj = s.bloch_trajectory(&bits);
        let z1 = traj[0].2;
        for p in &traj[1..] {
            assert!((p.2 - z1).abs() < 1e-9, "free evolution changed z");
        }
        // And xy precesses: consecutive points differ.
        assert!((traj[1].0 - traj[2].0).abs() > 1e-3);
    }

    /// The Rz angle reachable by delaying a stored bitstream by `d` clock
    /// cycles: `θ_d = d·2π·f·T_clk mod 2π` (§IV-A2).
    fn delay_phase(s: &SfqPulseSim, d: usize) -> f64 {
        (d as f64 * s.phase_per_tick()).rem_euclid(2.0 * PI)
    }

    #[test]
    fn delay_phase_wraps_correctly() {
        let s = sim();
        let per = s.phase_per_tick();
        assert!((0.0..2.0 * PI).contains(&per));
        assert!((delay_phase(&s, 1) - per).abs() < 1e-12);
        let d3 = delay_phase(&s, 3);
        assert!((d3 - (3.0 * per).rem_euclid(2.0 * PI)).abs() < 1e-12);
        assert_eq!(delay_phase(&s, 0), 0.0);
    }

    #[test]
    fn delayed_gate_matches_explicit_timing() {
        // Conjugation identity: gate of (d zeros + bits) over the combined
        // window equals Rz-conjugated base gate times trivial delay parts.
        let s = sim();
        let bits = s.resonant_comb(10);
        let d = 7usize;

        let mut padded = vec![false; d];
        padded.extend_from_slice(&bits);
        let direct = s.frame_gate(&padded);

        // Broadcasting the stored bitstream `d` cycles late is the
        // diagonal conjugation Rz(−θ_d) · U(b) · Rz(θ_d) of Fig 3.
        let base = s.frame_gate(&bits);
        let theta = delay_phase(&s, d);
        let rz = CMat::diag(
            &(0..base.rows())
                .map(|k| C64::cis(-(k as f64) * theta))
                .collect::<Vec<_>>(),
        );
        let conj = rz.dagger().matmul(&base).matmul(&rz);
        // The delay segment itself contributes only anharmonic phases on
        // leakage levels; on the computational subspace the two must agree.
        let a = direct.top_left_block(2);
        let b = conj.top_left_block(2);
        assert!(
            gates::phase_distance(&a, &b) < 1e-9,
            "delay conjugation mismatch: {}",
            gates::phase_distance(&a, &b)
        );
    }

    #[test]
    fn frame_at_actual_frequency_tracks_drift() {
        // A drifted qubit driven by the same bitstream yields a different
        // frame gate — the basis-operation drift that software calibration
        // must absorb (§V-A).
        let nominal = sim();
        let drifted = SfqPulseSim::new(Transmon::new(6.21286 + 0.006), SfqParams::default());
        let bits = nominal.resonant_comb(63);
        let u0 = nominal.frame_gate_qubit(&bits);
        let u1 = drifted.frame_gate_qubit(&bits);
        assert!(gates::phase_distance(&u0, &u1) > 1e-3);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let bits: Vec<bool> = (0..300).map(|i| i % 3 == 0 || i % 7 == 0).collect();
        let packed = pack_bits(&bits);
        assert_eq!(packed.len(), 38);
        let back = unpack_bits(&packed, 300);
        assert_eq!(bits, back);
    }

    #[test]
    fn leakage_grows_with_aggressive_drive() {
        // Much larger tip angles per pulse leak more into level 2.
        let q = Transmon::new(6.21286);
        let gentle = SfqPulseSim::new(
            q,
            SfqParams {
                delta_theta: (PI / 2.0) / 63.0,
                ..SfqParams::default()
            },
        );
        let harsh = SfqPulseSim::new(
            q,
            SfqParams {
                delta_theta: (PI / 2.0) / 8.0,
                ..SfqParams::default()
            },
        );
        let lg = crate::fidelity::leakage(&gentle.frame_gate_qubit(&gentle.resonant_comb(63)));
        let lh = crate::fidelity::leakage(&harsh.frame_gate_qubit(&harsh.resonant_comb(8)));
        assert!(lh > lg, "harsh leakage {lh} should exceed gentle {lg}");
    }
}
