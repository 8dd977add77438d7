//! Differential pinning of the workspace-reusing compile kernels.
//!
//! The routers and the crosstalk scheduler were rewritten around reusable
//! workspaces (trial layouts driven by `swap_physical` apply/undo pairs,
//! pooled colour groups, epoch-stamped interference masks) with a strict
//! byte-identity contract: the optimized kernels must produce *exactly*
//! the output of the original allocate-per-step implementations. This
//! test carries naive reference copies of those originals (per-candidate
//! `Layout::clone`, fresh `Vec` candidate lists, per-moment group
//! vectors — tallies stripped) and checks the shipped kernels against
//! them on randomized lowered circuits across both router strategies and
//! both schedulers.
//!
//! It also pins the allocation contract itself: compile passes tally one
//! alloc per materialized output artifact (route 2, schedule 1), scratch
//! is never tallied, and — because only outputs count — a cold call
//! tallies exactly the same as a warm one.

use qcircuit::ir::{Circuit, Gate};
use qcircuit::mapping::{route, route_lookahead, Layout, RoutedCircuit, RouterConfig};
use qcircuit::schedule::{czs_interfere, schedule_asap, schedule_crosstalk_aware, Slot};
use qcircuit::topology::Grid;
use qsim::rng::StdRng;

// ---------------------------------------------------------------------
// Naive reference implementations: verbatim ports of the pre-workspace
// kernels, minus counter tallies. Do not "improve" these — their whole
// value is being the original, obviously-correct algorithm.
// ---------------------------------------------------------------------

fn ref_route(c: &Circuit, grid: &Grid, initial: &Layout, cfg: &RouterConfig) -> RoutedCircuit {
    let mut best: Option<RoutedCircuit> = None;
    for t in 0..cfg.trials.max(1) {
        let r = ref_route_once(
            c,
            grid,
            initial.clone(),
            cfg.seed.wrapping_add(t as u64),
            cfg,
        );
        if best.as_ref().map_or(true, |b| r.swap_count < b.swap_count) {
            best = Some(r);
        }
    }
    best.expect("at least one trial")
}

fn ref_route_once(
    c: &Circuit,
    grid: &Grid,
    mut layout: Layout,
    seed: u64,
    cfg: &RouterConfig,
) -> RoutedCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Circuit::new(grid.n_qubits());
    let mut swap_count = 0usize;

    let upcoming: Vec<(usize, usize)> = c
        .gates()
        .iter()
        .filter_map(|g| match *g {
            Gate::Cz { a, b } => Some((a, b)),
            _ => None,
        })
        .collect();
    let mut next_2q = 0usize;

    for g in c.gates() {
        match *g {
            Gate::OneQ { q, kind } => out.push(Gate::OneQ {
                q: layout.phys(q),
                kind,
            }),
            Gate::Cz { a, b } => {
                loop {
                    let (pa, pb) = (layout.phys(a), layout.phys(b));
                    let d = grid.distance(pa, pb);
                    if d == 1 {
                        break;
                    }
                    let mut cands: Vec<(usize, usize, f64)> = Vec::new();
                    for &(end, other) in &[(pa, pb), (pb, pa)] {
                        for n in grid.neighbors(end) {
                            let d_after = grid.distance(n, other);
                            if d_after < d {
                                let mut la = 0.0;
                                let mut trial = layout.clone();
                                trial.swap_physical(end, n);
                                for k in 0..cfg.lookahead {
                                    let idx = next_2q + 1 + k;
                                    if idx >= upcoming.len() {
                                        break;
                                    }
                                    let (x, y) = upcoming[idx];
                                    la += grid.distance(trial.phys(x), trial.phys(y)) as f64
                                        / (k + 1) as f64;
                                }
                                let score = d_after as f64
                                    + cfg.lookahead_weight * la
                                    + rng.gen::<f64>() * 1e-3;
                                cands.push((end, n, score));
                            }
                        }
                    }
                    let &(x, y, _) = cands
                        .iter()
                        .min_by(|p, q| p.2.partial_cmp(&q.2).unwrap())
                        .expect("a distance-reducing swap always exists on a grid");
                    out.swap(x, y);
                    layout.swap_physical(x, y);
                    swap_count += 1;
                }
                out.cz(layout.phys(a), layout.phys(b));
                next_2q += 1;
            }
            _ => panic!("route requires a lowered circuit (1q + CZ only)"),
        }
    }

    RoutedCircuit {
        circuit: out,
        final_layout: layout,
        swap_count,
    }
}

fn ref_route_lookahead(
    c: &Circuit,
    grid: &Grid,
    mut layout: Layout,
    window: usize,
) -> RoutedCircuit {
    let mut out = Circuit::new(grid.n_qubits());
    let mut swap_count = 0usize;

    let upcoming: Vec<(usize, usize)> = c
        .gates()
        .iter()
        .filter_map(|g| match *g {
            Gate::Cz { a, b } => Some((a, b)),
            _ => None,
        })
        .collect();
    let mut next_2q = 0usize;

    for g in c.gates() {
        match *g {
            Gate::OneQ { q, kind } => out.push(Gate::OneQ {
                q: layout.phys(q),
                kind,
            }),
            Gate::Cz { a, b } => {
                loop {
                    let (pa, pb) = (layout.phys(a), layout.phys(b));
                    let d = grid.distance(pa, pb);
                    if d == 1 {
                        break;
                    }
                    let mut best: Option<(usize, usize, f64)> = None;
                    for &(end, other) in &[(pa, pb), (pb, pa)] {
                        for n in grid.neighbors(end) {
                            let d_after = grid.distance(n, other);
                            if d_after >= d {
                                continue;
                            }
                            let mut trial = layout.clone();
                            trial.swap_physical(end, n);
                            let mut score = d_after as f64;
                            for k in 0..window {
                                let idx = next_2q + 1 + k;
                                if idx >= upcoming.len() {
                                    break;
                                }
                                let (x, y) = upcoming[idx];
                                score += grid.distance(trial.phys(x), trial.phys(y)) as f64
                                    / (k + 2) as f64;
                            }
                            let better = match best {
                                None => true,
                                Some((be, bn, bs)) => {
                                    score < bs || (score == bs && (end, n) < (be, bn))
                                }
                            };
                            if better {
                                best = Some((end, n, score));
                            }
                        }
                    }
                    let (x, y, _) = best.expect("a distance-reducing swap always exists on a grid");
                    out.swap(x, y);
                    layout.swap_physical(x, y);
                    swap_count += 1;
                }
                out.cz(layout.phys(a), layout.phys(b));
                next_2q += 1;
            }
            _ => panic!("route requires a lowered circuit (1q + CZ only)"),
        }
    }

    RoutedCircuit {
        circuit: out,
        final_layout: layout,
        swap_count,
    }
}

fn ref_schedule_crosstalk_aware(c: &Circuit, grid: &Grid) -> Vec<Slot> {
    let moments = c.moments();
    let mut slots: Vec<Slot> = Vec::new();
    for moment in moments {
        let mut oneq: Slot = Vec::new();
        let mut cz_groups: Vec<Vec<usize>> = Vec::new();
        for gi in moment {
            match c.gates()[gi] {
                Gate::OneQ { .. } => oneq.push(gi),
                Gate::Cz { a, b } => {
                    let mut placed = false;
                    'groups: for group in cz_groups.iter_mut() {
                        for &other in group.iter() {
                            let (oa, ob) = match c.gates()[other] {
                                Gate::Cz { a, b } => (a, b),
                                _ => unreachable!(),
                            };
                            if czs_interfere(grid, (a, b), (oa, ob)) {
                                continue 'groups;
                            }
                        }
                        group.push(gi);
                        placed = true;
                        break;
                    }
                    if !placed {
                        cz_groups.push(vec![gi]);
                    }
                }
                _ => panic!("scheduler requires a lowered circuit"),
            }
        }
        if cz_groups.is_empty() {
            if !oneq.is_empty() {
                slots.push(oneq);
            }
        } else {
            let mut first = oneq;
            first.extend_from_slice(&cz_groups[0]);
            slots.push(first);
            for g in cz_groups.into_iter().skip(1) {
                slots.push(g);
            }
        }
    }
    slots
}

// ---------------------------------------------------------------------
// Random lowered-circuit generator.
// ---------------------------------------------------------------------

/// A random {1q, CZ} circuit on `n` qubits — already lowered, dense
/// enough that routing must insert SWAPs and scheduling must split
/// moments (CZs between arbitrary, mostly non-adjacent pairs).
fn random_lowered(seed: u64, n: usize, gates: usize) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        match rng.gen_range(0..5usize) {
            0 => c.h(rng.gen_range(0..n)),
            1 => c.t(rng.gen_range(0..n)),
            2 => c.rz(rng.gen_range(0..n), rng.gen::<f64>()),
            _ => {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                c.cz(a, b);
            }
        }
    }
    c
}

fn grids_and_layouts(n: usize, grid: &Grid) -> Vec<Layout> {
    vec![Layout::snake(n, grid), Layout::identity(n, grid.n_qubits())]
}

// ---------------------------------------------------------------------
// Byte-identity: optimized kernels vs the naive references.
// ---------------------------------------------------------------------

#[test]
fn greedy_router_matches_naive_reference_on_random_circuits() {
    let grid = Grid::new(5, 5);
    let cfgs = [
        RouterConfig::default(),
        RouterConfig {
            seed: 7,
            trials: 4,
            lookahead: 3,
            lookahead_weight: 1.25,
        },
        RouterConfig {
            seed: 99,
            trials: 1,
            lookahead: 0,
            lookahead_weight: 0.0,
        },
    ];
    for seed in 0..6u64 {
        let n = 8 + (seed as usize % 3) * 5; // 8, 13, 18 logical qubits
        let c = random_lowered(seed, n, 60);
        for initial in grids_and_layouts(n, &grid) {
            for cfg in &cfgs {
                let fast = route(&c, &grid, &initial, cfg);
                let naive = ref_route(&c, &grid, &initial, cfg);
                assert_eq!(
                    fast, naive,
                    "greedy route diverged (seed {seed}, cfg {cfg:?})"
                );
                assert!(fast.is_hardware_compliant(&grid));
            }
        }
    }
}

#[test]
fn lookahead_router_matches_naive_reference_on_random_circuits() {
    let grid = Grid::new(5, 5);
    for seed in 0..6u64 {
        let n = 8 + (seed as usize % 3) * 5;
        let c = random_lowered(seed.wrapping_add(1000), n, 60);
        for initial in grids_and_layouts(n, &grid) {
            for window in [0usize, 4, 16] {
                let fast = route_lookahead(&c, &grid, &initial, window);
                let naive = ref_route_lookahead(&c, &grid, initial.clone(), window);
                assert_eq!(
                    fast, naive,
                    "lookahead route diverged (seed {seed}, window {window})"
                );
                assert!(fast.is_hardware_compliant(&grid));
            }
        }
    }
}

#[test]
fn crosstalk_scheduler_matches_naive_reference_on_routed_circuits() {
    let grid = Grid::new(5, 5);
    for seed in 0..8u64 {
        let n = 8 + (seed as usize % 3) * 5;
        let c = random_lowered(seed.wrapping_add(2000), n, 80);
        let snake = Layout::snake(n, &grid);
        // Schedule real routed output (lowered SWAPs included) — the
        // shape the pipeline feeds the scheduler.
        let routed = route(&c, &grid, &snake, &RouterConfig::default());
        let phys = qcircuit::lower::lower_to_cz(&routed.circuit);
        let fast = schedule_crosstalk_aware(&phys, &grid);
        let naive = ref_schedule_crosstalk_aware(&phys, &grid);
        assert_eq!(fast, naive, "crosstalk schedule diverged (seed {seed})");
        qcircuit::schedule::validate_schedule(&phys, &grid, &fast).expect("schedule must validate");
    }
}

#[test]
fn asap_scheduler_matches_dependency_moments() {
    for seed in 0..4u64 {
        let c = random_lowered(seed.wrapping_add(3000), 10, 50);
        assert_eq!(
            schedule_asap(&c),
            c.moments(),
            "asap diverged (seed {seed})"
        );
    }
}

// ---------------------------------------------------------------------
// The allocation contract: one tally per materialized output artifact,
// scratch untallied, cold == warm.
// ---------------------------------------------------------------------

#[test]
fn route_tallies_exactly_its_two_outputs_cold_and_warm() {
    let grid = Grid::new(5, 5);
    let c = random_lowered(42, 13, 60);
    let snake = Layout::snake(13, &grid);
    let cfg = RouterConfig::default();
    let (_, cold) = qsim::counters::counted(|| route(&c, &grid, &snake, &cfg));
    let (_, warm) = qsim::counters::counted(|| route(&c, &grid, &snake, &cfg));
    assert_eq!(cold.allocs, 2, "route = routed circuit + final layout");
    assert_eq!(cold, warm, "warm route must tally exactly like a cold one");
    assert!(cold.flops > 0, "candidate scoring must still count flops");

    let (_, la_cold) = qsim::counters::counted(|| route_lookahead(&c, &grid, &snake, 8));
    let (_, la_warm) = qsim::counters::counted(|| route_lookahead(&c, &grid, &snake, 8));
    assert_eq!(la_cold.allocs, 2);
    assert_eq!(la_cold, la_warm);
}

#[test]
fn schedulers_tally_exactly_one_output_cold_and_warm() {
    let grid = Grid::new(5, 5);
    let c = random_lowered(43, 13, 80);
    let snake = Layout::snake(13, &grid);
    let routed = route(&c, &grid, &snake, &RouterConfig::default());
    let phys = qcircuit::lower::lower_to_cz(&routed.circuit);
    let (_, cold) = qsim::counters::counted(|| schedule_crosstalk_aware(&phys, &grid));
    let (_, warm) = qsim::counters::counted(|| schedule_crosstalk_aware(&phys, &grid));
    assert_eq!(cold.allocs, 1, "schedule = the slot list");
    assert_eq!(cold, warm);

    let (_, asap_cold) = qsim::counters::counted(|| schedule_asap(&phys));
    let (_, asap_warm) = qsim::counters::counted(|| schedule_asap(&phys));
    assert_eq!(asap_cold.allocs, 1);
    assert_eq!(asap_cold, asap_warm);
}

#[test]
fn full_pipeline_tallies_route_plus_schedule_cold_and_warm() {
    use qcircuit::pipeline::{CompileArtifact, PipelineConfig};
    let grid = Grid::new(5, 5);
    let logical = random_lowered(44, 13, 60);
    let snake = Layout::snake(13, &grid);
    let run = || {
        PipelineConfig::default()
            .run(CompileArtifact::new(logical.clone(), snake.clone()), &grid)
            .unwrap()
            .0
            .scheduled()
            .len()
    };
    let (_, cold) = qsim::counters::counted(run);
    let (_, warm) = qsim::counters::counted(run);
    // Route materializes 2 artifacts, the scheduler 1; lowering and
    // validation are tally-free. Workspace warmup must not show up.
    assert_eq!(cold.allocs, 3, "pipeline = route (2) + schedule (1)");
    assert_eq!(cold, warm, "pipeline warmup must be invisible to tallies");
}
