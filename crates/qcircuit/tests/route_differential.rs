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
//! Every case runs twice: through a fresh workspace, and through one
//! workspace shared by the whole test across strategies and grid sizes,
//! so state left behind by an earlier call can never leak into a result.
//!
//! The flat ASAP layering (`Circuit::moments_into`: levels first, then a
//! counting sort into one buffer) is checked the same way against the
//! nested one-`Vec`-per-moment layering it replaced, on random circuits
//! and on the six paper benchmarks as compiled (debug builds compile two
//! of them; `scripts/ci.sh` runs all six in release).
//!
//! It also pins the allocation contract itself: compile passes tally one
//! alloc per materialized output artifact (route 2, schedule 1), scratch
//! is never tallied, and — because only outputs count — a cold call
//! tallies exactly the same as a warm one.

use qcircuit::bench::{Benchmark, ALL_BENCHMARKS};
use qcircuit::ir::{Circuit, Gate, MomentScratch};
use qcircuit::mapping::{route, Layout, RouteWorkspace, RoutedCircuit};
use qcircuit::pipeline::RouteStrategy;
use qcircuit::schedule::{
    czs_interfere, schedule_asap, schedule_crosstalk_aware, validate_schedule,
    validate_schedule_structural, ScheduleWorkspace, Slot, ValidateWorkspace,
};
use qcircuit::topology::Grid;
use qsim::rng::StdRng;

/// The greedy router's configuration as the reference takes it.
#[derive(Debug, Clone, Copy)]
struct RouterConfig {
    seed: u64,
    trials: usize,
    lookahead: usize,
    lookahead_weight: f64,
}

/// The fixed configuration of `RouteStrategy::Greedy`.
const GREEDY: RouterConfig = RouterConfig {
    seed: 0xD161_0A11,
    trials: 2,
    lookahead: 8,
    lookahead_weight: 0.5,
};

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
        if best.as_ref().is_none_or(|b| r.swap_count < b.swap_count) {
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

/// The nested ASAP layering: per-qubit levels and a pool of moment
/// buckets, one heap `Vec` per dependency level.
#[derive(Debug, Default)]
struct RefMomentScratch {
    level: Vec<usize>,
    moments: Vec<Vec<usize>>,
    active: usize,
}

fn ref_moments_into(c: &Circuit, scratch: &mut RefMomentScratch) {
    scratch.level.clear();
    scratch.level.resize(c.n_qubits(), 0);
    scratch.active = 0;
    for (i, g) in c.gates().iter().enumerate() {
        let qs = g.qubits_inline();
        let l = qs
            .as_slice()
            .iter()
            .map(|&q| scratch.level[q])
            .max()
            .unwrap_or(0);
        for &q in &qs {
            scratch.level[q] = l + 1;
        }
        while scratch.active <= l {
            if scratch.active == scratch.moments.len() {
                scratch.moments.push(Vec::new());
            } else {
                scratch.moments[scratch.active].clear();
            }
            scratch.active += 1;
        }
        scratch.moments[l].push(i);
    }
}

fn ref_moments(c: &Circuit) -> Vec<Vec<usize>> {
    let mut scratch = RefMomentScratch::default();
    ref_moments_into(c, &mut scratch);
    scratch.moments.truncate(scratch.active);
    scratch.moments
}

fn ref_schedule_crosstalk_aware(c: &Circuit, grid: &Grid) -> Vec<Slot> {
    let moments = ref_moments(c);
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

/// The randomized cases: `(grid, logical qubits, case seed)` — 8, 13
/// and 18 qubits on the 5×5 grid, then 4, 6 and 8 on the 3×3 grid.
fn cases(seeds: u64) -> Vec<(Grid, usize, u64)> {
    let mut out = Vec::new();
    for (rows, base, step) in [(5, 8, 5), (3, 4, 2)] {
        for seed in 0..seeds {
            out.push((
                Grid::new(rows, rows),
                base + (seed as usize % 3) * step,
                seed,
            ));
        }
    }
    out
}

/// Routes through a fresh workspace and through `shared`, checks both
/// against `naive`, and returns the fresh result.
fn route_both(
    shared: &mut RouteWorkspace,
    c: &Circuit,
    grid: &Grid,
    initial: &Layout,
    strategy: RouteStrategy,
    naive: &RoutedCircuit,
) -> RoutedCircuit {
    let fresh = route(&mut RouteWorkspace::new(), c, grid, initial, strategy);
    assert_eq!(
        &fresh, naive,
        "{strategy:?} route diverged (fresh workspace)"
    );
    let reused = route(shared, c, grid, initial, strategy);
    assert_eq!(
        &reused, naive,
        "{strategy:?} route diverged (shared workspace)"
    );
    assert!(fresh.is_hardware_compliant(grid));
    fresh
}

// ---------------------------------------------------------------------
// Byte-identity: optimized kernels vs the naive references.
// ---------------------------------------------------------------------

#[test]
fn greedy_router_matches_naive_reference_on_random_circuits() {
    // One workspace for the whole test: greedy routes interleave with
    // lookahead windows 16, 0 and 4, on both grid sizes.
    let shared = &mut RouteWorkspace::new();
    for (grid, n, seed) in cases(6) {
        let c = random_lowered(seed, n, 60);
        for initial in grids_and_layouts(n, &grid) {
            let naive = ref_route(&c, &grid, &initial, &GREEDY);
            route_both(shared, &c, &grid, &initial, RouteStrategy::Greedy, &naive);
            for window in [16usize, 0, 4] {
                let naive = ref_route_lookahead(&c, &grid, initial.clone(), window);
                let strategy = RouteStrategy::Lookahead { window };
                route_both(shared, &c, &grid, &initial, strategy, &naive);
            }
        }
    }
}

#[test]
fn lookahead_router_matches_naive_reference_on_random_circuits() {
    let shared = &mut RouteWorkspace::new();
    for (grid, n, seed) in cases(6) {
        let c = random_lowered(seed.wrapping_add(1000), n, 60);
        for initial in grids_and_layouts(n, &grid) {
            for window in [0usize, 4, 16] {
                let naive = ref_route_lookahead(&c, &grid, initial.clone(), window);
                let strategy = RouteStrategy::Lookahead { window };
                route_both(shared, &c, &grid, &initial, strategy, &naive);
                let naive = ref_route(&c, &grid, &initial, &GREEDY);
                route_both(shared, &c, &grid, &initial, RouteStrategy::Greedy, &naive);
            }
        }
    }
}

#[test]
fn crosstalk_scheduler_matches_naive_reference_on_routed_circuits() {
    // One scheduler and one validator workspace across both grid sizes.
    let (sched, validate) = (&mut ScheduleWorkspace::new(), &mut ValidateWorkspace::new());
    let route_ws = &mut RouteWorkspace::new();
    for (grid, n, seed) in cases(8) {
        let c = random_lowered(seed.wrapping_add(2000), n, 80);
        let snake = Layout::snake(n, &grid);
        // Schedule real routed output (lowered SWAPs included) — the
        // shape the pipeline feeds the scheduler.
        let routed = route(route_ws, &c, &grid, &snake, RouteStrategy::Greedy);
        let phys = qcircuit::lower::lower_to_cz(&routed.circuit);
        let fast = schedule_crosstalk_aware(&mut ScheduleWorkspace::new(), &phys, &grid);
        let naive = ref_schedule_crosstalk_aware(&phys, &grid);
        assert_eq!(fast, naive, "crosstalk schedule diverged (seed {seed})");
        let reused = schedule_crosstalk_aware(sched, &phys, &grid);
        assert_eq!(
            reused, naive,
            "shared-workspace schedule diverged (seed {seed})"
        );
        validate_schedule(&mut ValidateWorkspace::new(), &phys, &grid, &fast)
            .expect("schedule must validate");
        validate_schedule(validate, &phys, &grid, &fast).expect("schedule must validate");
        validate_schedule_structural(validate, &phys, &fast).expect("schedule must validate");
        // ASAP moments may interfere: the shared workspace must give the
        // fresh one's verdict either way.
        let asap = schedule_asap(&phys);
        assert_eq!(
            validate_schedule(validate, &phys, &grid, &asap),
            validate_schedule(&mut ValidateWorkspace::new(), &phys, &grid, &asap),
            "shared-workspace validation diverged (seed {seed})"
        );
        validate_schedule_structural(validate, &phys, &asap).expect("ASAP is structural");
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

/// Checks `Circuit::moments` and `moments_into` through the shared
/// `scratch` against the nested layering.
fn check_moments(scratch: &mut MomentScratch, c: &Circuit, label: &str) {
    let want = ref_moments(c);
    assert_eq!(c.moments(), want, "{label}: moments diverged");
    c.moments_into(scratch);
    assert_eq!(scratch.count(), want.len(), "{label}: moment count");
    for (mi, moment) in want.iter().enumerate() {
        assert_eq!(scratch.moment(mi), &moment[..], "{label}: moment {mi}");
    }
}

#[test]
fn flat_moments_match_nested_layering_on_random_circuits() {
    // One scratch across every size, so a short or empty circuit follows
    // a deeper one.
    let scratch = &mut MomentScratch::default();
    let route_ws = &mut RouteWorkspace::new();
    for (grid, n, seed) in cases(8) {
        let c = random_lowered(seed.wrapping_add(4000), n, 10 + 15 * seed as usize);
        check_moments(scratch, &c, &format!("random seed {seed}"));
        let routed = route(
            route_ws,
            &c,
            &grid,
            &Layout::snake(n, &grid),
            RouteStrategy::Greedy,
        );
        check_moments(scratch, &routed.circuit, &format!("routed seed {seed}"));
        let phys = qcircuit::lower::lower_to_cz(&routed.circuit);
        check_moments(scratch, &phys, &format!("lowered seed {seed}"));
        check_moments(scratch, &Circuit::new(n), "empty");
    }
}

#[test]
fn flat_moments_match_nested_layering_on_paper_circuits() {
    use qcircuit::pipeline::{CompileArtifact, PipelineConfig};
    let full = !cfg!(debug_assertions);
    let benches: &[Benchmark] = if full {
        &ALL_BENCHMARKS
    } else {
        &[Benchmark::Qgan, Benchmark::Ising]
    };
    let grid = Grid::new(32, 32);
    let scratch = &mut MomentScratch::default();
    for &bench in benches {
        let circuit = bench.paper_scale();
        let layout = Layout::snake(circuit.n_qubits(), &grid);
        // The compiled circuit is the output of lower, route and
        // lower_swaps: what the scheduler layers.
        let (art, _) = PipelineConfig::default()
            .run(CompileArtifact::new(circuit, layout), &grid)
            .expect("paper benchmark compiles");
        check_moments(scratch, &art.circuit, bench.name());
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
    let ws = &mut RouteWorkspace::new();
    let greedy = RouteStrategy::Greedy;
    let (_, cold) = qsim::counters::counted(|| route(ws, &c, &grid, &snake, greedy));
    let (_, warm) = qsim::counters::counted(|| route(ws, &c, &grid, &snake, greedy));
    assert_eq!(cold.allocs, 2, "route = routed circuit + final layout");
    assert_eq!(cold, warm, "warm route must tally exactly like a cold one");
    assert!(cold.flops > 0, "candidate scoring must still count flops");

    let lookahead = RouteStrategy::Lookahead { window: 8 };
    let ws = &mut RouteWorkspace::new();
    let (_, la_cold) = qsim::counters::counted(|| route(ws, &c, &grid, &snake, lookahead));
    let (_, la_warm) = qsim::counters::counted(|| route(ws, &c, &grid, &snake, lookahead));
    assert_eq!(la_cold.allocs, 2);
    assert_eq!(la_cold, la_warm);
}

#[test]
fn schedulers_tally_exactly_one_output_cold_and_warm() {
    let grid = Grid::new(5, 5);
    let c = random_lowered(43, 13, 80);
    let snake = Layout::snake(13, &grid);
    let routed = route(
        &mut RouteWorkspace::new(),
        &c,
        &grid,
        &snake,
        RouteStrategy::Greedy,
    );
    let phys = qcircuit::lower::lower_to_cz(&routed.circuit);
    let ws = &mut ScheduleWorkspace::new();
    let (_, cold) = qsim::counters::counted(|| schedule_crosstalk_aware(ws, &phys, &grid));
    let (_, warm) = qsim::counters::counted(|| schedule_crosstalk_aware(ws, &phys, &grid));
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
