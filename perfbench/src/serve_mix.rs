//! `serve_mix`: a closed loop against an in-process `digiq-serve`.
//!
//! The server's store persists to a fresh cache dir under
//! `.perfbench_tmp/` in the working directory (removed afterwards), so
//! fresh evaluations write artifacts and journals to disk beside the
//! memoized reads. [`CLIENTS`] client sends its next request when it has
//! received and parsed the previous reply; a request's latency spans
//! both. Each client's request stream is drawn from the workload seed
//! ([`Mix`]): ~70% repeats of a hot set primed during set-up, ~15% fresh
//! analytic sweeps (a new `base_seed`: new circuits, compiles and execs;
//! half also synthesize hardware) and ~15% fresh co-simulations.
//!
//! Checks: every reply must parse as the report asked for; a repeat must
//! be byte-identical to the primed response for its spec; a fresh sweep
//! must have one record per job, every normalized time ≥ 1 and (with
//! hardware) a power figure; a fresh co-simulation must have one record
//! per job and agree exactly with the analytic model. Busy, Draining,
//! Interrupted, Error and I/O failures count as failed requests.

use crate::stats::{median, tail};
use crate::Outcome;
use digiq_core::engine::DesignPoint;
use digiq_core::store::StoreStats;
use digiq_core::{ControllerDesign, CosimSweepReport, StoreConfig, SweepReport, SweepSpec};
use digiq_serve::{serve, Client, EvalOutcome, ServeConfig, ServerHandle};
use qcircuit::bench::ALL_BENCHMARKS;
use qsim::rng::StdRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Hot-set size (distinct primed specs).
const HOT: usize = 12;
/// Designs per hot spec. A repeat's round trip is three thread wake-ups
/// (~0.1 ms that spread 25% from run to run on a shared host); a reply of
/// a few dozen records, which the client parses, gives the median request
/// enough fixed work that the wake-ups no longer set its spread.
const HOT_DESIGNS: usize = 3;
/// Share of repeats, and of repeats plus fresh analytic sweeps.
const REPEAT_SHARE: f64 = 0.70;
const SWEEP_SHARE: f64 = 0.85;
/// Device grid sides of the hot-set and the fresh specs. A fresh 10×10
/// evaluation takes a few milliseconds, so a run still holds thousands
/// of requests, while compile and exec outweigh its disk writes: on
/// smaller grids the writes dominated and the run-to-run spread followed
/// the shared disk rather than the code.
const HOT_GRID: usize = 6;
const FRESH_GRID: usize = 10;
/// Store capacity in entries: the hot set and the shared sequence
/// databases stay resident under LRU while fresh artifacts cycle through,
/// so resident memory levels off instead of growing with throughput.
const STORE_CAPACITY: usize = 256;
/// Set-up repetitions (`setup_s` is their median). A set-up is short —
/// server start, connections, priming — so a scheduling hiccup can
/// double one; five keep the median steady.
const SETUP_REPS: usize = 5;
/// Client connections in the closed loop. One: with two on two CPUs a
/// repeat's thread hand-offs (client → reader → eval worker → client)
/// raced the other client's CPU-bound fresh evaluation, so how long
/// repeats waited for a core — and with it the median — followed the
/// host's load rather than the code (the median ranged 25% over three
/// seeds, against 9% with one client). One client keeps every request
/// on an otherwise idle server.
pub const CLIENTS: usize = 1;
/// Requests a run completes at least, so that ten lie beyond p99.
const MIN_REQUESTS: u64 = 1100;
/// How long a drained server may take to exit.
const JOIN_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Repeat,
    FreshSweep,
    FreshCosim,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub kind: Kind,
    /// Co-simulation (else an analytic sweep).
    pub cosim: bool,
    pub spec: SweepSpec,
    /// Hot-set index of a repeat.
    pub hot: Option<usize>,
}

/// The designs a generated spec draws from: Table I plus Fig 9.
fn design_pool() -> Vec<DesignPoint> {
    let mut pool = SweepSpec::table_one_designs();
    for d in SweepSpec::fig9_designs() {
        if !pool.contains(&d) {
            pool.push(d);
        }
    }
    pool
}

/// `k` distinct picks from `pool`.
fn pick<T: Copy + PartialEq>(rng: &mut StdRng, pool: &[T], k: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let x = pool[rng.gen_range(0..pool.len() as u64) as usize];
        if !out.contains(&x) {
            out.push(x);
        }
    }
    out
}

/// A fresh spec: 2 random designs × 2 random benchmarks on the
/// `FRESH_GRID`, one drift seed, and a new `base_seed` (seeds stay below
/// 2⁵³, the wire bound).
fn fresh_spec(rng: &mut StdRng, hardware: bool) -> SweepSpec {
    let designs = pick(rng, &design_pool(), 2);
    let benches = pick(rng, &ALL_BENCHMARKS, 2);
    let mut spec = SweepSpec::small_grid(designs, &benches, FRESH_GRID, FRESH_GRID);
    spec.base_seed = rng.next_u64() >> 11;
    spec.synthesize_hardware = hardware;
    spec.with_seeds(vec![rng.next_u64() >> 11])
}

/// The hot set: `(cosim, spec)` pairs, one in four a co-simulation.
/// Its shape is fixed — every spec runs [`HOT_DESIGNS`] designs × all six
/// benchmarks, analytic sweeps over two drift seeds and co-simulations
/// (whose records are twice as long) over one, so every reply is about
/// 12 KB — and priming costs about the same for every seed; the seed
/// draws each spec's `base_seed` and drift seeds.
pub fn hot_set(seed: u64) -> Vec<(bool, SweepSpec)> {
    let mut rng = StdRng::seed_from_u64(qsim::rng::stable_hash(&[seed, u64::MAX]));
    let pool = design_pool();
    (0..HOT)
        .map(|i| {
            let designs = (0..HOT_DESIGNS)
                .map(|k| pool[(i + 3 * k) % pool.len()])
                .collect();
            let mut spec = SweepSpec::small_grid(designs, &ALL_BENCHMARKS, HOT_GRID, HOT_GRID);
            spec.base_seed = rng.next_u64() >> 11;
            let cosim = i % 4 == 3;
            let seeds = (0..if cosim { 1 } else { 2 })
                .map(|_| rng.next_u64() >> 11)
                .collect();
            (cosim, spec.with_seeds(seeds))
        })
        .collect()
}

/// Client `client`'s seeded request stream.
pub struct Mix {
    rng: StdRng,
    hot: Vec<(bool, SweepSpec)>,
}

impl Mix {
    pub fn new(seed: u64, client: usize) -> Self {
        Mix {
            rng: StdRng::seed_from_u64(qsim::rng::stable_hash(&[seed, client as u64])),
            hot: hot_set(seed),
        }
    }

    pub fn next_request(&mut self) -> Req {
        let u: f64 = self.rng.gen();
        if u < REPEAT_SHARE {
            let i = self.rng.gen_range(0..HOT as u64) as usize;
            let (cosim, spec) = self.hot[i].clone();
            return Req {
                kind: Kind::Repeat,
                cosim,
                spec,
                hot: Some(i),
            };
        }
        let sweep = u < SWEEP_SHARE;
        let hardware = sweep && self.rng.gen::<f64>() < 0.5;
        Req {
            kind: if sweep {
                Kind::FreshSweep
            } else {
                Kind::FreshCosim
            },
            cosim: !sweep,
            spec: fresh_spec(&mut self.rng, hardware),
            hot: None,
        }
    }
}

/// Why a request failed; `busy` marks admission-control refusals.
#[derive(Debug)]
pub struct Failure {
    pub busy: bool,
    pub why: String,
}

fn failure(why: impl Into<String>) -> Failure {
    Failure {
        busy: false,
        why: why.into(),
    }
}

/// A report as the client reads it.
pub enum Parsed {
    Sweep(SweepReport),
    Cosim(CosimSweepReport),
}

/// Parses a reply the way a client consuming it would; part of every
/// request's measured latency.
pub fn parse(cosim: bool, text: &str) -> Result<Parsed, Failure> {
    Ok(if cosim {
        Parsed::Cosim(CosimSweepReport::parse(text).map_err(failure)?)
    } else {
        Parsed::Sweep(SweepReport::parse(text).map_err(failure)?)
    })
}

/// Checks a fresh evaluation's parsed report against its spec.
fn check_report(spec: &SweepSpec, parsed: &Parsed) -> Result<(), Failure> {
    let r = match parsed {
        Parsed::Sweep(r) => r,
        Parsed::Cosim(r) => {
            if r.jobs.len() != spec.job_count() {
                return Err(failure(format!("{} cosim records", r.jobs.len())));
            }
            if !r.all_exact(1e-9) {
                return Err(failure(format!(
                    "cosim diverged from the analytic model: {:?}",
                    r.worst_diff()
                )));
            }
            return Ok(());
        }
    };
    crate::fig9::check(spec, r).map_err(failure)?;
    let unpowered = |j: &&digiq_core::engine::JobRecord| {
        j.design != ControllerDesign::ImpossibleMimd
            && j.power_w.is_none_or(|p| p.is_nan() || p <= 0.0)
    };
    match r.jobs.iter().find(unpowered) {
        Some(j) if spec.synthesize_hardware => {
            Err(failure(format!("{:?}: no synthesized power", j.design)))
        }
        _ => Ok(()),
    }
}

/// Sends one request; the report text, or why there is none.
pub fn send(client: &mut Client, req: &Req) -> Result<String, Failure> {
    let outcome = if req.cosim {
        client.cosim(&req.spec, 1)
    } else {
        client.sweep(&req.spec, 1)
    };
    match outcome {
        Ok(EvalOutcome::Report(text)) => Ok(text),
        Ok(EvalOutcome::Busy) => Err(Failure {
            busy: true,
            why: "busy".to_string(),
        }),
        Ok(other) => Err(failure(format!("{other:?}"))),
        Err(e) => Err(failure(format!("i/o: {e}"))),
    }
}

/// Checks a reply (`reference` holds the primed hot-set responses).
pub fn verify(req: &Req, text: &str, parsed: &Parsed, reference: &[String]) -> Result<(), Failure> {
    match req.hot {
        Some(i) if reference.get(i).is_some_and(|r| r == text) => Ok(()),
        Some(i) => Err(failure(format!(
            "repeat of hot spec {i} differs from its first response"
        ))),
        None => check_report(&req.spec, parsed),
    }
}

/// A started server with connected clients and a primed hot set.
struct Rig {
    handle: ServerHandle,
    clients: Vec<Client>,
    reference: Vec<String>,
    dir: PathBuf,
}

impl Rig {
    fn start(seed: u64, workers: usize, tag: usize) -> Result<Rig, String> {
        let dir = std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".perfbench_tmp")
            .join(format!("serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let handle = serve(ServeConfig {
            eval_workers: workers,
            sweep_workers: 1,
            store: StoreConfig {
                capacity: Some(STORE_CAPACITY),
                cache_dir: Some(dir.clone()),
            },
            ..ServeConfig::default()
        })
        .map_err(|e| format!("serve: {e}"))?;
        let mut rig = Rig {
            clients: Vec::new(),
            reference: Vec::new(),
            dir,
            handle,
        };
        match rig.connect_and_prime(seed) {
            Ok(()) => Ok(rig),
            Err(e) => {
                rig.stop();
                Err(e)
            }
        }
    }

    /// Connects the clients, then primes the hot set through the first
    /// one, keeping each checked response as the reference its repeats
    /// must match.
    fn connect_and_prime(&mut self, seed: u64) -> Result<(), String> {
        for _ in 0..CLIENTS {
            let c = Client::connect(self.handle.addr()).map_err(|e| format!("connect: {e}"))?;
            self.clients.push(c);
        }
        for (i, (cosim, spec)) in hot_set(seed).into_iter().enumerate() {
            let req = Req {
                kind: Kind::Repeat,
                cosim,
                spec,
                hot: None,
            };
            let text = send(&mut self.clients[0], &req)
                .and_then(|text| {
                    check_report(&req.spec, &parse(cosim, &text)?)?;
                    Ok(text)
                })
                .map_err(|f| format!("priming hot spec {i}: {}", f.why))?;
            self.reference.push(text);
        }
        Ok(())
    }

    /// Closes the clients, drains and joins the server, removes the
    /// cache dir.
    fn stop(self) {
        drop(self.clients);
        drain_and_join(self.handle);
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            // Only succeeds once no other run's directory remains.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Drains the server and waits up to [`JOIN_TIMEOUT`] for it to exit.
/// `Shared::initiate_drain` notifies the idle eval workers without
/// holding the queue lock, so a worker between its drain check and its
/// condvar wait can miss the wakeup and never exit; a run must still
/// end, so the join runs on a helper thread that is abandoned (and dies
/// with the process) if the server does not exit in time.
fn drain_and_join(handle: ServerHandle) {
    handle.drain();
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        let _ = done.send(());
    });
    if joined.recv_timeout(JOIN_TIMEOUT).is_err() {
        eprintln!("warning: the server did not exit within {JOIN_TIMEOUT:?} of its drain");
    }
}

/// Everything one client saw.
#[derive(Default)]
struct ClientLog {
    latencies: Vec<(Kind, f64)>,
    /// The part of each repeat's latency spent parsing its reply, ns.
    repeat_parse_ns: Vec<f64>,
    ok: u64,
    busy: u64,
    errors: Vec<String>,
    /// Client time spent outside request round trips, ns.
    gap_ns: f64,
}

pub fn run(start: Instant, seed: u64, seconds: f64, trace: bool, workers: usize) -> Outcome {
    let mut out = Outcome::default();
    let reps = if trace { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::new();
    let mut rig = None;
    for rep in 0..reps {
        let t = Instant::now();
        let started = Rig::start(seed, workers, rep);
        setup_times.push(if rep == 0 {
            start.elapsed().as_secs_f64()
        } else {
            t.elapsed().as_secs_f64()
        });
        match started {
            Ok(r) => {
                if let Some(old) = rig.replace(r) {
                    old.stop();
                }
            }
            Err(e) => {
                if let Some(old) = rig.take() {
                    old.stop();
                }
                out.attempted = 1;
                out.failed = 1;
                out.fail(format!("set-up: {e}"));
                return out;
            }
        }
    }
    let mut rig = rig.expect("at least one set-up");
    let addr = rig.handle.addr();
    let before: StoreStats = rig.handle.engine().store_stats();

    let done = AtomicU64::new(0);
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let reference = &rig.reference;
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let done = &done;
                s.spawn(move || {
                    let mut mix = Mix::new(seed, c);
                    let mut log = ClientLog::default();
                    let mut last = Instant::now();
                    while t0.elapsed() < budget || done.load(Ordering::Relaxed) < MIN_REQUESTS {
                        let req = mix.next_request();
                        let t = Instant::now();
                        let sent = send(client, &req);
                        let replied = t.elapsed();
                        // A client reads the report it asked for: parsing
                        // it is part of the wait.
                        let got = sent.and_then(|text| parse(req.cosim, &text).map(|p| (text, p)));
                        let lat = t.elapsed();
                        log.gap_ns += (t - last).as_nanos() as f64;
                        last = t + lat;
                        log.latencies.push((req.kind, lat.as_nanos() as f64));
                        if req.kind == Kind::Repeat {
                            log.repeat_parse_ns.push((lat - replied).as_nanos() as f64);
                        }
                        match got.and_then(|(text, p)| verify(&req, &text, &p, reference)) {
                            Ok(()) => log.ok += 1,
                            Err(f) => {
                                log.busy += u64::from(f.busy);
                                if log.errors.len() < 4 {
                                    log.errors.push(f.why);
                                }
                                if !f.busy {
                                    // The connection may be dead: reconnect.
                                    match Client::connect(addr) {
                                        Ok(fresh) => *client = fresh,
                                        Err(_) => break,
                                    }
                                }
                            }
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let stats = rig.handle.engine().store_stats();
    let delta = stats.since(&before);
    rig.stop();

    let all: Vec<(Kind, f64)> = logs.iter().flat_map(|l| l.latencies.clone()).collect();
    let ok: u64 = logs.iter().map(|l| l.ok).sum();
    out.attempted = all.len() as u64;
    out.failed = out.attempted - ok;
    for e in logs.iter().flat_map(|l| l.errors.clone()) {
        out.fail(e);
    }
    let ms: Vec<f64> = all.iter().map(|&(_, ns)| ns / 1e6).collect();
    let kind_ms = |k: Kind| -> Vec<f64> {
        all.iter()
            .filter(|&&(kind, _)| kind == k)
            .map(|&(_, ns)| ns / 1e6)
            .collect()
    };
    let (p, tail_ms) = tail(&ms);
    out.info("latency_samples", ms.len());
    out.info("latency_tail_percentile", p);
    out.info("wall_s", wall);
    for (name, k) in [
        ("repeats", Kind::Repeat),
        ("fresh_sweeps", Kind::FreshSweep),
        ("fresh_cosims", Kind::FreshCosim),
    ] {
        out.info(name, kind_ms(k).len());
    }

    if trace {
        let (hits, misses, _, builds, _) = delta.totals();
        let requests = all.len() as f64;
        let gap_ms: f64 = logs.iter().map(|l| l.gap_ns).sum::<f64>() / 1e6;
        let m = &mut out.layers;
        m.insert("serve.repeat.p50_ms".into(), median(&kind_ms(Kind::Repeat)));
        let parse_ns: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.repeat_parse_ns.clone())
            .collect();
        m.insert("serve.repeat.parse.p50_ms".into(), median(&parse_ns) / 1e6);
        m.insert(
            "serve.fresh_sweep.p50_ms".into(),
            median(&kind_ms(Kind::FreshSweep)),
        );
        m.insert(
            "serve.fresh_cosim.p50_ms".into(),
            median(&kind_ms(Kind::FreshCosim)),
        );
        m.insert("core.store.hits".into(), hits as f64);
        m.insert("core.store.misses".into(), misses as f64);
        m.insert("core.store.builds".into(), builds as f64);
        m.insert(
            "core.store.coalesced".into(),
            delta.coalesced_total() as f64,
        );
        m.insert(
            "core.store.hit_ratio".into(),
            hits as f64 / (hits + misses).max(1) as f64,
        );
        m.insert("core.store.resident".into(), stats.resident as f64);
        m.insert(
            "serve.busy".into(),
            logs.iter().map(|l| l.busy).sum::<u64>() as f64,
        );
        // Per request: the client cycle, and the part of it outside the
        // request round trip (generating and checking requests).
        let cycle_ms = (ms.iter().sum::<f64>() + gap_ms) / requests.max(1.0);
        m.insert("trace.wall.ms".into(), cycle_ms);
        m.insert("unattributed.ms".into(), gap_ms / requests.max(1.0));
        m.insert(
            "span_coverage".into(),
            1.0 - gap_ms / requests.max(1.0) / cycle_ms.max(f64::MIN_POSITIVE),
        );
        return out;
    }

    out.e2e("ops_per_s", ok as f64 / wall);
    out.e2e("latency_p50_ms", median(&ms));
    out.e2e("latency_p99_ms", tail_ms);
    out.e2e("setup_s", median(&setup_times));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_per_seed_and_client() {
        let draw = |seed, client| {
            let mut m = Mix::new(seed, client);
            (0..300).map(|_| m.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(draw(11, 0), draw(11, 0));
        assert_ne!(draw(11, 0), draw(11, 1));
        assert_ne!(draw(11, 0), draw(12, 0));
        assert_eq!(hot_set(11), hot_set(11));
    }

    #[test]
    fn mix_shares_match_the_design() {
        let mut m = Mix::new(3, 0);
        let n = 20_000;
        let reqs: Vec<Req> = (0..n).map(|_| m.next_request()).collect();
        let share = |k: Kind| reqs.iter().filter(|r| r.kind == k).count() as f64 / n as f64;
        assert!((share(Kind::Repeat) - 0.70).abs() < 0.02);
        assert!((share(Kind::FreshSweep) - 0.15).abs() < 0.02);
        assert!((share(Kind::FreshCosim) - 0.15).abs() < 0.02);
        let hw = reqs.iter().filter(|r| r.spec.synthesize_hardware).count() as f64;
        assert!((hw / (share(Kind::FreshSweep) * n as f64) - 0.5).abs() < 0.05);
        // Fresh specs never repeat a base seed.
        let mut seeds: Vec<u64> = reqs
            .iter()
            .filter(|r| r.hot.is_none())
            .map(|r| r.spec.base_seed)
            .collect();
        let before = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), before);
    }

    #[test]
    fn busy_reply_from_a_capacity_zero_server_counts_as_failed() {
        let handle = serve(ServeConfig {
            queue_capacity: 0,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let (cosim, spec) = hot_set(1).remove(0);
        let req = Req {
            kind: Kind::Repeat,
            cosim,
            spec,
            hot: Some(0),
        };
        let f = send(&mut client, &req).unwrap_err();
        assert!(f.busy, "{f:?}");
        drop(client);
        drain_and_join(handle);
    }
}
