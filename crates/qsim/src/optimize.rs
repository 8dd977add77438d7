//! Derivative-free optimizers used by the calibration layer.
//!
//! Two tools cover all the numerical search in the paper:
//!
//! * [`nelder_mead`] — local simplex descent over continuous parameters
//!   (interleaved single-qubit gates in the CZ echo sequences, §V-B);
//! * [`ga_bitstring`] — a genetic algorithm over fixed-length bitstrings
//!   (SFQ bitstream discovery, the approach of refs \[13\] and \[35\]).
//!
//! All optimizers are deterministic given a seed.
//!
//! # Examples
//!
//! ```
//! use qsim::optimize::nelder_mead;
//!
//! let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
//! let r = nelder_mead(sphere, &[1.0, -2.0], 0.5, 500, 1e-12);
//! assert!(r.value < 1e-8);
//! ```

use crate::rng::StdRng;
use std::cmp::Ordering;

/// Ascending order with every NaN last, as the worst objective value.
/// `±0` compare equal, so a stable sort keeps the order of non-NaN input.
fn nan_last(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) if a < b => Ordering::Less,
        (false, false) if a > b => Ordering::Greater,
        (a_nan, b_nan) => a_nan.cmp(&b_nan),
    }
}

/// Whether fitness `a` beats `b` (higher is better, NaN loses to any
/// number): exactly `a > b` when neither is NaN.
fn fitter(a: f64, b: f64) -> bool {
    nan_last(-a, -b).is_lt()
}

/// Result of a continuous optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct OptResult {
    /// Best parameter vector found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of objective evaluations consumed.
    pub evals: usize,
}

/// Minimizes `f` with the Nelder–Mead simplex method starting at `x0`.
///
/// `step` sets the initial simplex size, `max_iter` bounds the number of
/// iterations, and the search stops early when the simplex's value spread
/// falls below `tol`.
///
/// The simplex lives in one flat row-major buffer, and every scratch
/// vector is allocated once per call: each iteration stable-sorts an index
/// order by value (NaN last) and permutes the rows into it in place.
///
/// # Panics
///
/// Panics if `x0` is empty.
pub fn nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    step: f64,
    max_iter: usize,
    tol: f64,
) -> OptResult {
    assert!(
        !x0.is_empty(),
        "nelder_mead requires at least one parameter"
    );
    let n = x0.len();
    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
    let mut evals = 0usize;

    // Initial simplex: x0 plus n perturbed points, as n + 1 rows.
    let mut simplex = Vec::with_capacity((n + 1) * n);
    simplex.extend_from_slice(x0);
    for i in 0..n {
        simplex.extend_from_slice(x0);
        simplex[(i + 1) * n + i] += step;
    }
    let mut values: Vec<f64> = simplex
        .chunks_exact(n)
        .map(|p| {
            evals += 1;
            f(p)
        })
        .collect();
    let mut order: Vec<usize> = Vec::with_capacity(n + 1);
    let mut centroid = vec![0.0; n];
    let mut reflect = vec![0.0; n];
    let mut trial = vec![0.0; n];

    for _ in 0..max_iter {
        // Sort simplex by value: row i becomes the old row order[i]. Each
        // old row sits at the first position of its order chain not yet
        // filled, so one swap per row permutes in place.
        order.clear();
        order.extend(0..=n);
        order.sort_by(|&a, &b| nan_last(values[a], values[b]));
        for i in 0..=n {
            let mut src = order[i];
            while src < i {
                src = order[src];
            }
            if src != i {
                let (head, tail) = simplex.split_at_mut(src * n);
                head[i * n..(i + 1) * n].swap_with_slice(&mut tail[..n]);
                values.swap(i, src);
            }
        }

        if (values[n] - values[0]).abs() < tol {
            break;
        }

        // Centroid of all but the worst.
        centroid.fill(0.0);
        for p in simplex.chunks_exact(n).take(n) {
            for (c, v) in centroid.iter_mut().zip(p) {
                *c += v / n as f64;
            }
        }

        let worst = &mut simplex[n * n..];
        for ((r, c), w) in reflect.iter_mut().zip(&centroid).zip(worst.iter()) {
            *r = c + alpha * (c - w);
        }
        evals += 1;
        let fr = f(&reflect);

        if fr < values[0] {
            // Try expansion.
            for ((e, c), w) in trial.iter_mut().zip(&centroid).zip(worst.iter()) {
                *e = c + gamma * (c - w);
            }
            evals += 1;
            let fe = f(&trial);
            if fe < fr {
                worst.copy_from_slice(&trial);
                values[n] = fe;
            } else {
                worst.copy_from_slice(&reflect);
                values[n] = fr;
            }
        } else if fr < values[n - 1] {
            worst.copy_from_slice(&reflect);
            values[n] = fr;
        } else {
            // Contraction.
            for ((k, c), w) in trial.iter_mut().zip(&centroid).zip(worst.iter()) {
                *k = c + rho * (w - c);
            }
            evals += 1;
            let fc = f(&trial);
            if fc < values[n] {
                worst.copy_from_slice(&trial);
                values[n] = fc;
            } else {
                // Shrink towards the best point.
                let (best, rest) = simplex.split_at_mut(n);
                for (p, value) in rest.chunks_exact_mut(n).zip(&mut values[1..]) {
                    for (v, b) in p.iter_mut().zip(best.iter()) {
                        *v = b + sigma * (*v - b);
                    }
                    evals += 1;
                    *value = f(p);
                }
            }
        }
    }

    let mut best = 0;
    for i in 1..=n {
        if values[i] < values[best] {
            best = i;
        }
    }
    OptResult {
        x: simplex[best * n..(best + 1) * n].to_vec(),
        value: values[best],
        evals,
    }
}

/// Result of a bitstring genetic search.
#[derive(Debug, Clone, PartialEq)]
pub struct GaResult {
    /// Best bitstring found.
    pub bits: Vec<bool>,
    /// Fitness of the best bitstring (higher is better).
    pub fitness: f64,
    /// Generations actually run.
    pub generations: usize,
}

/// Configuration for [`ga_bitstring`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Population size (≥ 4).
    pub population: usize,
    /// Maximum generations.
    pub generations: usize,
    /// Per-bit mutation probability.
    pub mutation_rate: f64,
    /// Number of elite individuals copied unchanged.
    pub elitism: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 48,
            generations: 120,
            mutation_rate: 0.01,
            elitism: 4,
            tournament: 3,
            seed: 0xD161_0001,
        }
    }
}

/// Maximizes `fitness` over `{0,1}^len` with a seeded genetic algorithm
/// (tournament selection, uniform crossover, bit-flip mutation, elitism).
///
/// `seeds` provides optional initial individuals (e.g. the resonant comb of
/// [`crate::pulse::SfqPulseSim::resonant_comb`]); the rest of the population
/// is random. This mirrors the genetic bitstream search of the paper's
/// ref \[13\].
///
/// `fitness` must be pure (the same bits always score the same): elites
/// carried into the next generation keep their scores instead of being
/// scored again.
///
/// # Panics
///
/// Panics if `len == 0`, `cfg.population < 4`, or any seed has the wrong
/// length.
pub fn ga_bitstring(
    mut fitness: impl FnMut(&[bool]) -> f64,
    len: usize,
    seeds: &[Vec<bool>],
    cfg: GaConfig,
) -> GaResult {
    assert!(len > 0, "bitstring length must be positive");
    assert!(cfg.population >= 4, "population too small");
    for s in seeds {
        assert_eq!(s.len(), len, "seed length mismatch");
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut population: Vec<Vec<bool>> = Vec::with_capacity(cfg.population);
    for s in seeds.iter().take(cfg.population) {
        population.push(s.clone());
    }
    while population.len() < cfg.population {
        // Mutated copies of seeds (if any) plus pure random fill.
        if !seeds.is_empty() && population.len() < cfg.population / 2 {
            let base = &seeds[population.len() % seeds.len()];
            let mut ind = base.clone();
            for b in ind.iter_mut() {
                if rng.gen::<f64>() < 0.05 {
                    *b = !*b;
                }
            }
            population.push(ind);
        } else {
            population.push((0..len).map(|_| rng.gen::<bool>()).collect());
        }
    }
    let mut scores: Vec<f64> = population.iter().map(|p| fitness(p)).collect();

    let mut best_idx = 0;
    for gen in 0..cfg.generations {
        // Track best.
        for (i, &s) in scores.iter().enumerate() {
            if fitter(s, scores[best_idx]) {
                best_idx = i;
            }
        }
        if gen + 1 == cfg.generations {
            break;
        }

        let mut order: Vec<usize> = (0..cfg.population).collect();
        order.sort_by(|&a, &b| nan_last(-scores[a], -scores[b]));

        // The elites keep their scores: the fitness is pure, so scoring
        // an unchanged clone again would only repeat the call.
        let mut next: Vec<Vec<bool>> = order
            .iter()
            .take(cfg.elitism)
            .map(|&i| population[i].clone())
            .collect();
        let mut next_scores: Vec<f64> =
            order.iter().take(cfg.elitism).map(|&i| scores[i]).collect();

        let tournament_pick = |rng: &mut StdRng, scores: &[f64]| -> usize {
            let mut best = rng.gen_range(0..cfg.population);
            for _ in 1..cfg.tournament {
                let c = rng.gen_range(0..cfg.population);
                if fitter(scores[c], scores[best]) {
                    best = c;
                }
            }
            best
        };

        while next.len() < cfg.population {
            let p1 = tournament_pick(&mut rng, &scores);
            let p2 = tournament_pick(&mut rng, &scores);
            let mut child: Vec<bool> = (0..len)
                .map(|j| {
                    if rng.gen::<bool>() {
                        population[p1][j]
                    } else {
                        population[p2][j]
                    }
                })
                .collect();
            for b in child.iter_mut() {
                if rng.gen::<f64>() < cfg.mutation_rate {
                    *b = !*b;
                }
            }
            next.push(child);
        }
        next_scores.extend(next[next_scores.len()..].iter().map(|p| fitness(p)));
        population = next;
        scores = next_scores;
        best_idx = 0;
    }

    for (i, &s) in scores.iter().enumerate() {
        if fitter(s, scores[best_idx]) {
            best_idx = i;
        }
    }
    GaResult {
        bits: population[best_idx].clone(),
        fitness: scores[best_idx],
        generations: cfg.generations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nelder_mead_minimizes_sphere() {
        let r = nelder_mead(
            |x| x.iter().map(|v| v * v).sum(),
            &[2.0, -3.0, 1.0],
            0.5,
            1000,
            1e-14,
        );
        assert!(r.value < 1e-10, "value = {}", r.value);
        for v in &r.x {
            assert!(v.abs() < 1e-4);
        }
    }

    #[test]
    fn nelder_mead_rosenbrock_2d() {
        let rosen = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let r = nelder_mead(rosen, &[-1.0, 1.0], 0.5, 5000, 1e-16);
        assert!(r.value < 1e-8, "value = {}", r.value);
        assert!((r.x[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn ga_maximizes_ones_count() {
        let r = ga_bitstring(
            |b| b.iter().filter(|&&x| x).count() as f64,
            48,
            &[],
            GaConfig {
                generations: 80,
                ..GaConfig::default()
            },
        );
        assert!(r.fitness >= 44.0, "fitness = {}", r.fitness);
    }

    #[test]
    fn ga_uses_seed_individuals() {
        // Fitness rewards matching a secret pattern; seeding with the
        // pattern itself must yield a perfect score immediately.
        let secret: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
        let sc = secret.clone();
        let r = ga_bitstring(
            move |b| b.iter().zip(sc.iter()).filter(|(x, y)| x == y).count() as f64,
            32,
            std::slice::from_ref(&secret),
            GaConfig {
                generations: 2,
                ..GaConfig::default()
            },
        );
        assert_eq!(r.fitness, 32.0);
    }

    #[test]
    fn ga_deterministic_given_seed() {
        let f = |b: &[bool]| b.iter().filter(|&&x| x).count() as f64;
        let a = ga_bitstring(f, 16, &[], GaConfig::default());
        let b = ga_bitstring(f, 16, &[], GaConfig::default());
        assert_eq!(a.bits, b.bits);
    }

    #[test]
    fn ga_scores_each_elite_once() {
        // The first generation scores the whole population; every later
        // one scores only its children, not the carried elites.
        let calls = std::cell::Cell::new(0usize);
        let cfg = GaConfig {
            population: 10,
            generations: 7,
            elitism: 3,
            ..GaConfig::default()
        };
        let r = ga_bitstring(
            |b: &[bool]| {
                calls.set(calls.get() + 1);
                b.iter().filter(|&&x| x).count() as f64
            },
            16,
            &[],
            cfg,
        );
        assert_eq!(calls.get(), 10 + 6 * (10 - 3));
        assert_eq!(r.fitness, r.bits.iter().filter(|&&x| x).count() as f64);
    }

    #[test]
    fn nelder_mead_survives_a_nan_half_space() {
        // NaN sorts as the worst vertex, so the simplex walks back out of
        // the undefined region onto the minimum at (0.5, 0) on its edge.
        let f = |x: &[f64]| {
            if x[0] > 1.0 {
                f64::NAN
            } else {
                (x[0] - 0.5).powi(2) + x[1] * x[1]
            }
        };
        let r = nelder_mead(f, &[0.9, 0.3], 0.5, 2000, 1e-14);
        assert!(r.value < 1e-8, "value = {}", r.value);
        assert!((r.x[0] - 0.5).abs() < 1e-3 && r.x[1].abs() < 1e-3);
    }

    #[test]
    fn ga_treats_nan_fitness_as_worst() {
        // Bitstrings starting with `true` have no fitness; the search must
        // neither panic nor return one of them.
        let f = |b: &[bool]| {
            if b[0] {
                f64::NAN
            } else {
                b.iter().filter(|&&x| x).count() as f64
            }
        };
        for generations in [1, 40] {
            let r = ga_bitstring(
                f,
                24,
                &[vec![true; 24]],
                GaConfig {
                    generations,
                    ..GaConfig::default()
                },
            );
            assert!(!r.bits[0] && !r.fitness.is_nan(), "{generations}: {r:?}");
        }
        let r = ga_bitstring(f, 24, &[], GaConfig::default());
        assert!(r.fitness >= 20.0, "fitness = {}", r.fitness);
    }

    #[test]
    fn nan_last_orders_nan_worst_and_zeros_equal() {
        let mut v = [f64::NAN, 1.0, -0.0, -f64::NAN, 0.0, -1.0, f64::INFINITY];
        v.sort_by(|&a, &b| nan_last(a, b));
        assert_eq!(&v[..5], &[-1.0, -0.0, 0.0, 1.0, f64::INFINITY]);
        assert!(v[1].is_sign_negative() && v[2].is_sign_positive());
        assert!(v[5].is_nan() && v[6].is_nan());
        assert!(fitter(1.0, f64::NAN) && !fitter(f64::NAN, 1.0) && !fitter(0.0, -0.0));
    }

    #[test]
    #[should_panic]
    fn ga_rejects_bad_seed_length() {
        let _ = ga_bitstring(|_| 0.0, 8, &[vec![true; 4]], GaConfig::default());
    }

    /// The earlier `nelder_mead`, verbatim: a `Vec<Vec<f64>>` simplex
    /// re-collected through the sorted order every iteration.
    mod oracle {
        use super::super::{nan_last, OptResult};

        pub fn nelder_mead(
            mut f: impl FnMut(&[f64]) -> f64,
            x0: &[f64],
            step: f64,
            max_iter: usize,
            tol: f64,
        ) -> OptResult {
            assert!(
                !x0.is_empty(),
                "nelder_mead requires at least one parameter"
            );
            let n = x0.len();
            let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
            let mut evals = 0usize;

            // Initial simplex: x0 plus n perturbed points.
            let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
            simplex.push(x0.to_vec());
            for i in 0..n {
                let mut p = x0.to_vec();
                p[i] += step;
                simplex.push(p);
            }
            let mut values: Vec<f64> = simplex
                .iter()
                .map(|p| {
                    evals += 1;
                    f(p)
                })
                .collect();

            for _ in 0..max_iter {
                // Sort simplex by value.
                let mut order: Vec<usize> = (0..=n).collect();
                order.sort_by(|&a, &b| nan_last(values[a], values[b]));
                let simplex_sorted: Vec<Vec<f64>> =
                    order.iter().map(|&i| simplex[i].clone()).collect();
                let values_sorted: Vec<f64> = order.iter().map(|&i| values[i]).collect();
                simplex = simplex_sorted;
                values = values_sorted;

                if (values[n] - values[0]).abs() < tol {
                    break;
                }

                // Centroid of all but the worst.
                let mut centroid = vec![0.0; n];
                for p in simplex.iter().take(n) {
                    for (c, v) in centroid.iter_mut().zip(p.iter()) {
                        *c += v / n as f64;
                    }
                }

                let worst = simplex[n].clone();
                let reflect: Vec<f64> = centroid
                    .iter()
                    .zip(worst.iter())
                    .map(|(c, w)| c + alpha * (c - w))
                    .collect();
                evals += 1;
                let fr = f(&reflect);

                if fr < values[0] {
                    // Try expansion.
                    let expand: Vec<f64> = centroid
                        .iter()
                        .zip(worst.iter())
                        .map(|(c, w)| c + gamma * (c - w))
                        .collect();
                    evals += 1;
                    let fe = f(&expand);
                    if fe < fr {
                        simplex[n] = expand;
                        values[n] = fe;
                    } else {
                        simplex[n] = reflect;
                        values[n] = fr;
                    }
                } else if fr < values[n - 1] {
                    simplex[n] = reflect;
                    values[n] = fr;
                } else {
                    // Contraction.
                    let contract: Vec<f64> = centroid
                        .iter()
                        .zip(worst.iter())
                        .map(|(c, w)| c + rho * (w - c))
                        .collect();
                    evals += 1;
                    let fc = f(&contract);
                    if fc < values[n] {
                        simplex[n] = contract;
                        values[n] = fc;
                    } else {
                        // Shrink towards the best point.
                        let best = simplex[0].clone();
                        for i in 1..=n {
                            for j in 0..n {
                                simplex[i][j] = best[j] + sigma * (simplex[i][j] - best[j]);
                            }
                            evals += 1;
                            values[i] = f(&simplex[i]);
                        }
                    }
                }
            }

            let mut best = 0;
            for i in 1..=n {
                if values[i] < values[best] {
                    best = i;
                }
            }
            OptResult {
                x: simplex[best].clone(),
                value: values[best],
                evals,
            }
        }
    }

    #[test]
    fn nelder_mead_matches_the_cloning_oracle_bit_for_bit() {
        type Case = (&'static str, fn(&[f64]) -> f64, Vec<f64>, f64, usize, f64);
        let cases: Vec<Case> = vec![
            (
                "sphere",
                |x| x.iter().map(|v| v * v).sum(),
                vec![2.0, -3.0, 1.0],
                0.5,
                1000,
                1e-14,
            ),
            (
                "rosenbrock",
                |x| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2),
                vec![-1.0, 1.0],
                0.5,
                5000,
                1e-16,
            ),
            (
                "nan half-space",
                |x| {
                    if x[0] > 1.0 {
                        f64::NAN
                    } else {
                        (x[0] - 0.5).powi(2) + x[1] * x[1]
                    }
                },
                vec![0.9, 0.3],
                0.5,
                2000,
                1e-14,
            ),
            // A kink at the minimum: a non-smooth descent.
            (
                "abs kink",
                |x| x.iter().map(|v| v.abs()).sum(),
                vec![0.3, -0.7, 0.2, 0.9],
                1.0,
                400,
                0.0,
            ),
            // All ties: with `tol = 0` neither reflection nor contraction
            // ever improves on the worst vertex, so every iteration is a
            // shrink, and the stable sort must keep the row order.
            ("flat", |_| 1.0, vec![0.0, 0.0, 0.0], 0.1, 50, 0.0),
            // A one-dimensional simplex.
            ("1-D", |x| (x[0] - 0.25).powi(2), vec![3.0], 0.4, 200, 1e-15),
        ];
        for (name, f, x0, step, max_iter, tol) in cases {
            let mut calls = 0;
            let count = |x: &[f64]| {
                calls += 1;
                f(x)
            };
            let got = nelder_mead(count, &x0, step, max_iter, tol);
            let want = oracle::nelder_mead(f, &x0, step, max_iter, tol);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.x), bits(&want.x), "{name}: x");
            assert_eq!(got.value.to_bits(), want.value.to_bits(), "{name}: value");
            assert_eq!(got.evals, want.evals, "{name}: evals");
            assert_eq!(calls, got.evals, "{name}: one call per counted eval");
        }
    }
}
