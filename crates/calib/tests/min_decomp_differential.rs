//! Differential test of the DigiQ_min sorted cell index.
//!
//! `SequenceDb` indexes its entries by quantization cell in a sorted,
//! CSR-style cell index, and `for_each_near` visits a half's 3⁴
//! neighbourhood as 9 range scans of it. The oracle below is the earlier
//! implementation, kept verbatim: a `HashMap` from cell tuple to entry
//! list, probed once per neighbouring cell (81 probes per database entry).
//! Both must agree bit for bit — database size, the found `sequence` and
//! `error.to_bits()` — on every case of the matrix:
//!
//! * bases: the ideal {Ry(π/2), T} basis at half depths 6–11, seeded
//!   drifted bases (±0.1 rad perturbations of the ideal pair), the
//!   degenerate basis whose T drifted to `rz(0.003)`, and a three-gate
//!   basis;
//! * error targets 0, 1e-6, 1e-4 and 1e-2 (the last one exits early,
//!   including on the identity entry);
//! * targets: the identity, the basis gates, H/X/S/T, seeded ZYZ gates,
//!   and targets whose needed half lies on a cell boundary (a component
//!   at `(k + 0.5)·0.04`) or at `w = ±1`.
//!
//! Debug builds run a reduced matrix to keep the suite fast;
//! `scripts/ci.sh` runs the full matrix in release (`cargo test --release
//! -p calib --test min_decomp_differential`).

use calib::min_decomp::{decompose_min, MinBasis, SequenceDb};
use qsim::gates::{self, Su2};
use qsim::matrix::CMat;
use qsim::rng::StdRng;
use std::f64::consts::{FRAC_PI_2, PI};

mod oracle {
    //! The earlier `cell_key`, `SequenceDb::build`, `for_each_near` and
    //! `decompose_min`, verbatim, except that the unitarized basis is
    //! rebuilt from the public `MinBasis::ops` exactly as `MinBasis::new`
    //! builds it.
    #![allow(clippy::unnecessary_map_or)] // kept as written

    use calib::min_decomp::{MinBasis, MinDecomposition};
    use qsim::gates::Su2;
    use qsim::matrix::CMat;
    use std::collections::HashMap;

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
        pub fn build(basis: &MinBasis, depth: usize) -> Self {
            let su2: Vec<Su2> = basis.ops.iter().map(Su2::from_matrix).collect();
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
                    for (b, &op) in su2.iter().enumerate() {
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
}

const ERR_TARGETS: [f64; 4] = [0.0, 1e-6, 1e-4, 1e-2];

/// The cell pitch of the neighbourhood index.
const RES: f64 = 0.04;

/// A seeded drifted {Ry(π/2), T} pair, in the shape of
/// `drifted_basis_still_universal`: every angle moved by up to ±0.1 rad.
fn drifted_basis(seed: u64) -> MinBasis {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut jitter = || rng.gen_range(-0.1..0.1);
    MinBasis::new(vec![
        gates::rz(jitter())
            .matmul(&gates::ry(FRAC_PI_2 + jitter()))
            .matmul(&gates::rz(jitter())),
        gates::rz(PI / 4.0 + jitter()),
    ])
}

/// The Fig 10a outlier: T drifted to almost the identity.
fn degenerate_basis() -> MinBasis {
    MinBasis::new(vec![gates::ry(FRAC_PI_2), gates::rz(0.003)])
}

fn three_gate_basis() -> MinBasis {
    MinBasis::new(vec![
        gates::ry(FRAC_PI_2),
        gates::t(),
        gates::rx(PI / 3.0 + 0.01),
    ])
}

/// A unit quaternion with one component pinned to `value` and the other
/// three along the direction `dir`.
fn pinned(component: usize, value: f64, dir: [f64; 3]) -> Su2 {
    let norm = dir.iter().map(|v| v * v).sum::<f64>().sqrt();
    let scale = (1.0 - value * value).sqrt() / norm;
    let mut c = [0.0; 4];
    let mut rest = dir.iter();
    for (i, slot) in c.iter_mut().enumerate() {
        *slot = if i == component {
            value
        } else {
            rest.next().unwrap() * scale
        };
    }
    Su2 {
        w: c[0],
        x: c[1],
        y: c[2],
        z: c[3],
    }
}

/// Targets for one basis. Besides fixed and seeded gates, some targets
/// put the needed second half `B = A⁻¹·T` on a cell boundary (a
/// component at `(k + 0.5)·0.04`) for `A` the identity or a basis gate,
/// and some sit at `w = ±1` (the identity up to a global phase).
fn targets(basis: &MinBasis, n_random: usize, seed: u64) -> Vec<(String, CMat)> {
    let mut out: Vec<(String, CMat)> = vec![
        ("identity".into(), gates::id2()),
        (
            "-identity".into(),
            gates::id2().scale(qsim::complex::C64::new(-1.0, 0.0)),
        ),
        (
            "i·identity".into(),
            gates::id2().scale(qsim::complex::C64::new(0.0, 1.0)),
        ),
        ("H".into(), gates::h()),
        ("X".into(), gates::x()),
        ("S".into(), gates::s()),
        ("T".into(), gates::t()),
    ];
    for (i, op) in basis.ops.iter().enumerate() {
        out.push((format!("basis[{i}]"), op.clone()));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n_random {
        let (theta, phi, lam) = (
            rng.gen_range(0.0..PI),
            rng.gen_range(-PI..PI),
            rng.gen_range(-PI..PI),
        );
        out.push((format!("u_zyz#{i}"), gates::u_zyz(theta, phi, lam)));
    }
    let halves: Vec<(String, Su2)> = std::iter::once(("I".to_string(), Su2::IDENTITY))
        .chain(
            basis
                .ops
                .iter()
                .enumerate()
                .map(|(i, op)| (format!("basis[{i}]"), Su2::from_matrix(op))),
        )
        .collect();
    for (name, a) in &halves {
        for (component, k) in [(0, 22), (1, 3), (2, -5), (3, 0), (0, 12), (3, -1)] {
            let value = (k as f64 + 0.5) * RES;
            let dir = [
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ];
            let b = pinned(component, value, dir);
            let t = a.compose(b).to_matrix();
            out.push((format!("{name}·B[{component}]=({k}+0.5)·res"), t));
        }
    }
    out
}

/// Runs both implementations over every target and error target of one
/// basis and compares size, sequence and error bits.
fn check_basis(label: &str, basis: &MinBasis, depth: usize, n_random: usize, seed: u64) {
    let want_db = oracle::SequenceDb::build(basis, depth);
    let got_db = SequenceDb::build(basis, depth);
    assert_eq!(
        got_db.len(),
        want_db.len(),
        "{label} depth {depth}: db size"
    );
    for (name, target) in targets(basis, n_random, seed) {
        for err_target in ERR_TARGETS {
            let want = oracle::decompose_min(&target, basis, &want_db, err_target);
            let got = decompose_min(&target, basis, &got_db, err_target);
            let call = format!("{label} depth {depth}, target {name}, err_target {err_target:e}");
            assert_eq!(got.sequence, want.sequence, "{call}: sequence");
            assert_eq!(
                got.error.to_bits(),
                want.error.to_bits(),
                "{call}: {:e} vs {:e}",
                got.error,
                want.error
            );
        }
    }
}

#[test]
fn ideal_basis_matches_the_hash_map_oracle_at_every_half_depth() {
    let basis = MinBasis::ideal_ry_t();
    let (depths, n_random) = if cfg!(debug_assertions) {
        (6..=8, 4)
    } else {
        (6..=11, 32)
    };
    for depth in depths {
        check_basis("ideal", &basis, depth, n_random, 0xD161_0000 + depth as u64);
    }
}

#[test]
fn drifted_bases_match() {
    let (seeds, depth, n_random): (&[u64], usize, usize) = if cfg!(debug_assertions) {
        (&[1], 7, 4)
    } else {
        (&[1, 2, 3, 0xF160_10A0], 10, 32)
    };
    for &seed in seeds {
        let basis = drifted_basis(seed);
        check_basis(
            &format!("drifted #{seed:#x}"),
            &basis,
            depth,
            n_random,
            seed,
        );
    }
    // The exact basis of `drifted_basis_still_universal`.
    let fixed = MinBasis::new(vec![
        gates::rz(0.11)
            .matmul(&gates::ry(FRAC_PI_2 + 0.04))
            .matmul(&gates::rz(-0.07)),
        gates::rz(PI / 4.0 + 0.03),
    ]);
    check_basis("drifted (fixed)", &fixed, depth.min(8), n_random, 0xF1);
}

#[test]
fn degenerate_and_three_gate_bases_match() {
    let (depths, n_random) = if cfg!(debug_assertions) {
        ((7, 5), 4)
    } else {
        ((9, 7), 32)
    };
    check_basis("degenerate", &degenerate_basis(), depths.0, n_random, 0xDE6);
    check_basis("three-gate", &three_gate_basis(), depths.1, n_random, 0x3);
}
