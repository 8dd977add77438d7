//! Per-qubit sequence search for DigiQ_min (§V-A).
//!
//! DigiQ_min broadcasts a small discrete basis (e.g. {Ry(π/2), T}) and
//! decomposes every single-qubit gate into a sequence of those basis
//! operations — per qubit, because drift turns the shared bitstreams into
//! qubit-specific operations. The paper uses "a brute-force search … up
//! to a maximum depth of 28"; this module implements that search as a
//! meet-in-the-middle: a database of all products up to depth 14 is built
//! once per qubit (deduplicated, spatially hashed over the SU(2)
//! quaternion ball), and each target `T` is split as `T ≈ A·B` with both
//! halves looked up — the same search space at √cost.
//!
//! Leakage handling follows §V-A: the search runs over the unitarized
//! SU(2) parts ("working with the full six-level representation" is
//! recovered at the end by scoring the found sequence with the exact
//! projected, sub-unitary basis blocks).

use qsim::gates::Su2;
use qsim::matrix::CMat;
use std::collections::HashMap;
use std::sync::Arc;

/// A reference-counted, thread-shareable sequence database. Building a
/// [`SequenceDb`] is by far the most expensive step of the DigiQ_min
/// workflow, so batched evaluations (`digiq_core::engine`) build each
/// distinct basis's database once and hand clones of this handle to every
/// worker.
pub type SharedSequenceDb = Arc<SequenceDb>;

/// The discrete per-qubit basis.
#[derive(Debug, Clone)]
pub struct MinBasis {
    /// Exact qubit-subspace blocks (2×2, possibly sub-unitary) of each
    /// basis operation on this qubit.
    pub ops: Vec<CMat>,
    /// Unitarized SU(2) images used by the search.
    su2: Vec<Su2>,
}

impl MinBasis {
    /// Builds a basis from exact projected blocks.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty or any block is not 2×2.
    pub fn new(ops: Vec<CMat>) -> Self {
        assert!(!ops.is_empty());
        for m in &ops {
            assert_eq!((m.rows(), m.cols()), (2, 2));
        }
        let su2 = ops.iter().map(Su2::from_matrix).collect();
        MinBasis { ops, su2 }
    }

    /// The ideal minimal basis {Ry(π/2), T} of §IV-A2.
    pub fn ideal_ry_t() -> Self {
        MinBasis::new(vec![
            qsim::gates::ry(std::f64::consts::FRAC_PI_2),
            qsim::gates::t(),
        ])
    }

    /// Number of basis gates (`BS`).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the basis is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A found sequence (indices into the basis; **applied left-to-right**,
/// i.e. `sequence[0]` fires first).
#[derive(Debug, Clone, PartialEq)]
pub struct MinDecomposition {
    /// Basis-gate indices in firing order.
    pub sequence: Vec<u8>,
    /// Average gate error of the exact realized product vs. the target.
    pub error: f64,
}

impl MinDecomposition {
    /// Number of controller cycles consumed.
    pub fn cycles(&self) -> usize {
        self.sequence.len()
    }
}

/// Quantization cell for the spatial hash (quaternion components in
/// [−1, 1] → i8 grid).
fn cell_key(q: Su2, res: f64) -> (i16, i16, i16, i16) {
    (
        (q.w / res).round() as i16,
        (q.x / res).round() as i16,
        (q.y / res).round() as i16,
        (q.z / res).round() as i16,
    )
}

/// One half-depth product database for a basis.
#[derive(Debug)]
pub struct SequenceDb {
    entries: Vec<(Su2, Vec<u8>)>,
    hash: HashMap<(i16, i16, i16, i16), Vec<u32>>,
    res: f64,
}

impl SequenceDb {
    /// Builds all deduplicated products of the basis up to `depth`.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn build(basis: &MinBasis, depth: usize) -> Self {
        assert!(depth > 0);
        let res = 0.04;
        let dedup_res = 5e-4;
        let mut entries: Vec<(Su2, Vec<u8>)> = vec![(Su2::IDENTITY, Vec::new())];
        let mut seen: HashMap<(i16, i16, i16, i16), Vec<u32>> = HashMap::new();
        seen.entry(cell_key(Su2::IDENTITY, dedup_res))
            .or_default()
            .push(0);

        let mut frontier: Vec<u32> = vec![0];
        for _ in 0..depth {
            let mut next = Vec::new();
            for &idx in &frontier {
                let (q, seq) = entries[idx as usize].clone();
                for (b, &op) in basis.su2.iter().enumerate() {
                    // Gate fired after the existing sequence: new = op ∘ q.
                    let nq = op.compose(q);
                    let key = cell_key(nq, dedup_res);
                    let dup = seen.get(&key).map_or(false, |v| {
                        v.iter().any(|&i| entries[i as usize].0.distance(nq) < 1e-6)
                    });
                    if dup {
                        continue;
                    }
                    let mut nseq = seq.clone();
                    nseq.push(b as u8);
                    let id = entries.len() as u32;
                    entries.push((nq, nseq));
                    seen.entry(key).or_default().push(id);
                    next.push(id);
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }

        let mut hash: HashMap<(i16, i16, i16, i16), Vec<u32>> = HashMap::new();
        for (i, (q, _)) in entries.iter().enumerate() {
            hash.entry(cell_key(*q, res)).or_default().push(i as u32);
        }
        SequenceDb { entries, hash, res }
    }

    /// Number of distinct products stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when only the identity is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.len() <= 1
    }

    /// Visits entries near `q` (its cell and the 3⁴ neighbourhood) in the
    /// same deterministic cell order the decomposition has always used,
    /// without materializing the 81-cell list per query — the MITM scan
    /// calls this once per database entry. `f` returns `false` to stop.
    fn for_each_near(&self, q: Su2, mut f: impl FnMut(u32) -> bool) {
        let (a, b, c, d) = cell_key(q, self.res);
        for da in -1i16..=1 {
            for db in -1i16..=1 {
                for dc in -1i16..=1 {
                    for dd in -1i16..=1 {
                        if let Some(v) = self.hash.get(&(a + da, b + db, c + dc, d + dd)) {
                            for &i in v {
                                if !f(i) {
                                    return;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// SU(2) average gate error from a trace overlap `|tr|/2`.
fn err_from_overlap(ov: f64) -> f64 {
    (2.0 / 3.0) * (1.0 - (ov * ov).min(1.0))
}

/// Meet-in-the-middle decomposition of `target` over `basis`, with halves
/// up to `db.depth` each. Scores the winning sequence against the *exact*
/// (leakage-carrying) basis blocks.
///
/// # Panics
///
/// Panics if `target` is not 2×2.
pub fn decompose_min(
    target: &CMat,
    basis: &MinBasis,
    db: &SequenceDb,
    err_target: f64,
) -> MinDecomposition {
    assert_eq!((target.rows(), target.cols()), (2, 2));
    let qt = Su2::from_matrix(target);

    // Track the winning (A, B) entry pair and materialize its index
    // sequence once, after the scan — candidate improvements used to clone
    // both halves' sequences on every new best.
    let mut best_halves: Option<(u32, u32)> = None;
    let mut best_ov = {
        // Identity candidate.
        qt.trace_overlap(Su2::IDENTITY)
    };

    // T ≈ A·B (B fires first): B = A⁻¹·T.
    for (ai, (qa, _)) in db.entries.iter().enumerate() {
        let needed_b = qa.inverse().compose(qt);
        db.for_each_near(needed_b, |bi| {
            let (qb, _) = &db.entries[bi as usize];
            let realized = qa.compose(*qb);
            let ov = realized.trace_overlap(qt);
            if ov > best_ov {
                best_ov = ov;
                best_halves = Some((ai as u32, bi));
                if err_from_overlap(best_ov) <= err_target * 0.5 {
                    return false;
                }
            }
            true
        });
        if err_from_overlap(best_ov) <= err_target * 0.5 && ai > 0 {
            break;
        }
    }

    let best_seq: Vec<u8> = match best_halves {
        None => Vec::new(),
        Some((ai, bi)) => {
            let mut s = db.entries[bi as usize].1.clone();
            s.extend_from_slice(&db.entries[ai as usize].1);
            s
        }
    };

    // Exact scoring with leakage: multiply the true projected blocks.
    let mut m = CMat::identity(2);
    for &g in &best_seq {
        m = basis.ops[g as usize].matmul(&m);
    }
    let error = qsim::fidelity::average_gate_error(&m, target);
    MinDecomposition {
        sequence: best_seq,
        error,
    }
}

/// A deterministic stand-in basis-index sequence of length `len` over a
/// `basis_len`-gate alphabet, keyed by `salt`.
///
/// The cycle-accurate co-simulator (`digiq_core::cosim`) plays DigiQ_min
/// gates back one basis operation per controller cycle; its timing model
/// only fixes the *length* `K` of each decomposition (drawn from the
/// measured distribution), so per-cycle trace events label each firing
/// with a representative basis index from this function rather than
/// re-running the full meet-in-the-middle search per gate. Same
/// `(len, basis_len, salt)` → same sequence, on every platform.
///
/// # Panics
///
/// Panics if `basis_len == 0`.
pub fn representative_sequence(len: usize, basis_len: usize, salt: u64) -> Vec<u8> {
    assert!(basis_len > 0, "a basis needs at least one gate");
    let mut rng = qsim::rng::StdRng::seed_from_u64(salt);
    (0..len)
        .map(|_| rng.gen_range(0..basis_len as u64) as u8)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::gates;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn representative_sequences_are_deterministic_and_in_range() {
        let a = representative_sequence(28, 2, 0xD161);
        let b = representative_sequence(28, 2, 0xD161);
        assert_eq!(a, b);
        assert_eq!(a.len(), 28);
        assert!(a.iter().all(|&g| g < 2));
        // Salt and alphabet size both matter.
        assert_ne!(a, representative_sequence(28, 2, 0xD162));
        let rich = representative_sequence(64, 4, 1);
        assert!(rich.iter().any(|&g| g >= 2), "richer alphabet is used");
        assert!(representative_sequence(0, 2, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one gate")]
    fn representative_sequence_rejects_empty_basis() {
        let _ = representative_sequence(4, 0, 0);
    }

    #[test]
    fn database_grows_and_dedups() {
        let basis = MinBasis::ideal_ry_t();
        let db = SequenceDb::build(&basis, 8);
        // 2^9−1 raw strings; T-powers collapse (T⁸ ≡ I), so strictly less.
        assert!(db.len() > 100, "db too small: {}", db.len());
        assert!(db.len() < (1 << 9), "dedup ineffective: {}", db.len());
        assert!(!db.is_empty());
    }

    #[test]
    fn identity_decomposes_trivially() {
        let basis = MinBasis::ideal_ry_t();
        let db = SequenceDb::build(&basis, 6);
        let dec = decompose_min(&gates::id2(), &basis, &db, 1e-4);
        assert_eq!(dec.cycles(), 0);
        assert!(dec.error < 1e-9);
    }

    #[test]
    fn basis_gates_decompose_exactly() {
        let basis = MinBasis::ideal_ry_t();
        let db = SequenceDb::build(&basis, 6);
        for (g, expect_len) in [(gates::t(), 1usize), (gates::ry(FRAC_PI_2), 1)] {
            let dec = decompose_min(&g, &basis, &db, 1e-6);
            assert!(dec.error < 1e-9, "error {:.2e}", dec.error);
            assert!(dec.cycles() <= expect_len);
        }
        // S = T² — two cycles.
        let dec = decompose_min(&gates::s(), &basis, &db, 1e-6);
        assert!(dec.error < 1e-9);
        assert!(dec.cycles() <= 2);
    }

    #[test]
    fn hadamard_like_gates_within_depth_28() {
        // Clifford+T style approximation: with half-depth 11 (total 22)
        // the ideal basis should hit common gates below ~1e-3.
        let basis = MinBasis::ideal_ry_t();
        let db = SequenceDb::build(&basis, 11);
        for g in [gates::h(), gates::x(), gates::s()] {
            let dec = decompose_min(&g, &basis, &db, 1e-4);
            assert!(
                dec.error < 5e-3,
                "error {:.2e} at depth {}",
                dec.error,
                dec.cycles()
            );
            assert!(dec.cycles() <= 28, "sequence too long: {}", dec.cycles());
        }
    }

    #[test]
    fn sequence_reconstruction_matches_reported_error() {
        let basis = MinBasis::ideal_ry_t();
        let db = SequenceDb::build(&basis, 10);
        let target = gates::u_zyz(0.9, 0.3, -1.2);
        let dec = decompose_min(&target, &basis, &db, 1e-4);
        let mut m = CMat::identity(2);
        for &g in &dec.sequence {
            m = basis.ops[g as usize].matmul(&m);
        }
        let direct = qsim::fidelity::average_gate_error(&m, &target);
        assert!((direct - dec.error).abs() < 1e-12);
    }

    #[test]
    fn deeper_database_never_hurts() {
        let basis = MinBasis::ideal_ry_t();
        let shallow = SequenceDb::build(&basis, 7);
        let deep = SequenceDb::build(&basis, 11);
        let target = gates::u_zyz(1.3, 0.2, 0.7);
        let e_shallow = decompose_min(&target, &basis, &shallow, 0.0).error;
        let e_deep = decompose_min(&target, &basis, &deep, 0.0).error;
        assert!(e_deep <= e_shallow + 1e-9);
    }

    #[test]
    fn drifted_basis_still_universal() {
        // Per-qubit recalibration: a drifted (but still generic) basis
        // decomposes targets — frequency-dependent ops "still constitute
        // universal gate sets" (§V-A).
        let drifted = MinBasis::new(vec![
            gates::rz(0.11)
                .matmul(&gates::ry(FRAC_PI_2 + 0.04))
                .matmul(&gates::rz(-0.07)),
            gates::rz(PI / 4.0 + 0.03),
        ]);
        let db = SequenceDb::build(&drifted, 11);
        let dec = decompose_min(&gates::h(), &drifted, &db, 1e-4);
        assert!(dec.error < 2e-2, "drifted error {:.2e}", dec.error);
    }

    #[test]
    fn outlier_basis_is_poor() {
        // Fig 10a's outliers: when drift brings the nominal T close to
        // identity, the basis degenerates and errors jump — the software
        // maps around such qubits.
        let degenerate = MinBasis::new(vec![
            gates::ry(FRAC_PI_2),
            gates::rz(0.003), // T drifted to ≈ identity
        ]);
        let db = SequenceDb::build(&degenerate, 9);
        let dec = decompose_min(&gates::t(), &degenerate, &db, 1e-4);
        let healthy = MinBasis::ideal_ry_t();
        let db_h = SequenceDb::build(&healthy, 9);
        let dec_h = decompose_min(&gates::t(), &healthy, &db_h, 1e-4);
        assert!(
            dec.error > 10.0 * dec_h.error.max(1e-12),
            "degenerate {:.2e} vs healthy {:.2e}",
            dec.error,
            dec_h.error
        );
    }

    #[test]
    fn shared_handle_decomposes_across_threads() {
        let basis = MinBasis::ideal_ry_t();
        let db: SharedSequenceDb = Arc::new(SequenceDb::build(&basis, 8));
        let errs: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let db = Arc::clone(&db);
                    let basis = &basis;
                    s.spawn(move || decompose_min(&gates::s(), basis, &db, 1e-6).error)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for e in errs {
            assert!(e < 1e-9);
        }
    }

    #[test]
    fn batch_decomposition() {
        let basis = MinBasis::ideal_ry_t();
        let db = SequenceDb::build(&basis, 9);
        for target in [gates::h(), gates::s(), gates::t()] {
            assert!(decompose_min(&target, &basis, &db, 1e-3).error < 1e-2);
        }
    }
}
