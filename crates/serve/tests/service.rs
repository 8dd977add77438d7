//! End-to-end service tests: golden byte-identity over the wire,
//! request coalescing pinned through the store counters, admission
//! control, fairness across clients, and drain → restart → resume
//! byte-identity.

use digiq_core::engine::SweepSpec;
use digiq_core::store::{ArtifactStore, StoreConfig};
use digiq_serve::proto::{read_frame, write_json};
use digiq_serve::server::{NS_COSIM, NS_SWEEP};
use digiq_serve::{serve, Client, EvalOutcome, Request, Response, ServeConfig};
use sfq_hw::json::ToJson;
use std::path::PathBuf;
use std::sync::Barrier;

/// The committed golden for `sweep --smoke` / `cosim --smoke` stdout
/// (trailing newline comes from the CLI's println, not the report).
fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden {}: {e}", path.display()));
    text.strip_suffix('\n').unwrap_or(&text).to_string()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("digiq-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn expect_report(outcome: EvalOutcome) -> String {
    match outcome {
        EvalOutcome::Report(text) => text,
        other => panic!("expected a report, got {other:?}"),
    }
}

#[test]
fn sweep_responses_are_byte_identical_to_the_batch_cli_golden() {
    let handle = serve(ServeConfig::default()).unwrap();
    let spec = SweepSpec::smoke().with_seeds(vec![0]);
    let mut client = Client::connect(handle.addr()).unwrap();

    let cold = expect_report(client.sweep(&spec, 2).unwrap());
    assert_eq!(cold, golden("engine_smoke.json"));

    // The warm repeat — a store hit on a now-shared engine — must still
    // serialize the exact cold-run bytes.
    let warm = expect_report(client.sweep(&spec, 2).unwrap());
    assert_eq!(warm, cold);
    let stats = client.stats().unwrap();
    let ns = stats.get(NS_SWEEP).unwrap();
    assert_eq!((ns.builds, ns.hits), (1, 1));

    handle.drain();
    handle.join();
}

#[test]
fn warm_replay_is_steady_state() {
    // Warm requests replay a memoized artifact: pure frame round trips
    // with no evaluation. The regression this pins: Nagle + delayed ACK
    // on the small request/response frames stalled EVERY request after
    // a connection's first by ~80ms (two ~40ms delayed-ACK waits per
    // round trip), which skewed loadgen's warm percentiles to p99 ≈
    // 87ms over a sub-ms p50. With TCP_NODELAY and single-buffer frame
    // writes the stall is structurally gone, so even the *fastest* warm
    // replay on a loaded box sits far under the 40ms delayed-ACK floor.
    let handle = serve(ServeConfig::default()).unwrap();
    let spec = SweepSpec::smoke().with_seeds(vec![0]);
    let mut client = Client::connect(handle.addr()).unwrap();
    let cold = expect_report(client.sweep(&spec, 2).unwrap());

    let mut lats = Vec::new();
    for _ in 0..8 {
        let t = std::time::Instant::now();
        let warm = expect_report(client.sweep(&spec, 2).unwrap());
        lats.push(t.elapsed());
        assert_eq!(warm, cold);
    }
    let fastest = lats.iter().min().unwrap();
    assert!(
        *fastest < std::time::Duration::from_millis(40),
        "steady-state warm replay should beat the delayed-ACK floor; \
         fastest of {} warm requests took {:?} (Nagle stall back?)",
        lats.len(),
        fastest
    );

    handle.drain();
    handle.join();
}

#[test]
fn cosim_responses_match_their_golden_too() {
    let handle = serve(ServeConfig::default()).unwrap();
    let spec = SweepSpec::cosim_smoke().with_seeds(vec![0]);
    let mut client = Client::connect(handle.addr()).unwrap();
    let report = expect_report(client.cosim(&spec, 2).unwrap());
    assert_eq!(report, golden("cosim_smoke.json"));
    assert_eq!(client.stats().unwrap().get(NS_COSIM).unwrap().builds, 1);
    handle.drain();
    handle.join();
}

#[test]
fn identical_concurrent_requests_coalesce_onto_one_evaluation() {
    let handle = serve(ServeConfig {
        eval_workers: 2,
        // Stretch the build so the duplicate request provably lands
        // while the first one's evaluation is still in flight.
        eval_delay: Some(std::time::Duration::from_millis(150)),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let spec = SweepSpec::smoke().with_seeds(vec![0, 1]);

    // Two tenants, same spec, released together: the store's build-once
    // slot must make one evaluation serve both.
    let barrier = Barrier::new(2);
    let reports: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::connect(addr).unwrap();
                    barrier.wait();
                    expect_report(client.sweep(&spec, 2).unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(reports[0], reports[1]);

    let stats = handle.engine().store_stats();
    let ns = stats.get(NS_SWEEP).expect("serve/sweep namespace");
    assert_eq!(
        ns.builds, 1,
        "two identical concurrent requests must trigger exactly one evaluation"
    );
    assert!(
        ns.coalesced >= 1,
        "the second request must join the in-flight build (hits={}, coalesced={})",
        ns.hits,
        ns.coalesced
    );

    handle.drain();
    handle.join();
}

#[test]
fn a_full_queue_refuses_with_busy_but_cheap_requests_still_answer() {
    let handle = serve(ServeConfig {
        queue_capacity: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    // Capacity 0: every evaluation is refused with a typed Busy …
    assert_eq!(
        client.sweep(&SweepSpec::smoke(), 2).unwrap(),
        EvalOutcome::Busy
    );
    // … while control requests bypass the queue entirely.
    client.ping().unwrap();
    assert!(client.stats().unwrap().get(NS_SWEEP).is_none());
    handle.drain();
    handle.join();
}

#[test]
fn a_streaming_client_cannot_starve_another() {
    // One eval worker and a stretched build: every request is a fresh
    // store miss (distinct seeds) that holds the worker for the delay.
    let handle = serve(ServeConfig {
        eval_workers: 1,
        eval_delay: Some(std::time::Duration::from_millis(300)),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let sweep = |seed: u64| Request::Sweep {
        spec: SweepSpec::smoke().with_seeds(vec![seed]),
        workers: 1,
    };
    let read_report = |client: &mut Client| {
        assert!(matches!(
            client.read_response().unwrap(),
            Response::Report { .. }
        ));
        read_frame(client).unwrap();
        std::time::Instant::now()
    };

    // Client A writes three sweep frames back to back; client B sends one
    // while A's first request runs.
    let mut a = Client::connect(addr).unwrap();
    let mut frames = Vec::new();
    for seed in [10, 11, 12] {
        write_json(&mut frames, &sweep(seed).to_json()).unwrap();
    }
    a.send_raw(&frames).unwrap();
    // The pause only makes "A's first request is already running" the
    // likely interleaving: B is answered before A's second either way,
    // because A's reader admits its second frame only after its first has
    // been answered, which takes the whole 300 ms delay.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut b = Client::connect(addr).unwrap();
    let mut frame = Vec::new();
    write_json(&mut frame, &sweep(13).to_json()).unwrap();
    b.send_raw(&frame).unwrap();

    let (a_done, b_done) = std::thread::scope(|s| {
        let b_done = s.spawn(|| read_report(&mut b));
        let a_done: Vec<_> = (0..3).map(|_| read_report(&mut a)).collect();
        (a_done, b_done.join().unwrap())
    });
    assert!(
        b_done < a_done[1],
        "B's one request must be answered before A's second"
    );

    handle.drain();
    handle.join();
}

#[test]
fn drain_interrupts_a_journaled_sweep_and_a_restart_resumes_byte_identically() {
    let dir = temp_dir("drain");
    let spec = SweepSpec::smoke().with_seeds(vec![0]);
    let store = StoreConfig {
        capacity: None,
        cache_dir: Some(dir.clone()),
    };

    // Server #1 stops the journaled sweep after one fresh job and then
    // drains — the wire answer must be the typed Interrupted.
    let first = serve(ServeConfig {
        store: store.clone(),
        interrupt_after: Some(1),
        drain_after: Some(1),
        eval_workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(first.addr()).unwrap();
    assert_eq!(client.sweep(&spec, 2).unwrap(), EvalOutcome::Interrupted);
    first.join(); // drain_after(1) already tripped

    // Partial progress is journaled on disk.
    let journal =
        ArtifactStore::journal_dir(&dir).join(format!("{:016x}.jsonl", spec.stable_key()));
    let journaled = std::fs::read_to_string(&journal).expect("journal written before drain");
    assert!(
        !journaled.trim().is_empty(),
        "the interrupted sweep must leave completed jobs in the journal"
    );

    // Server #2 over the same cache dir resumes the journal; the merged
    // report must be byte-identical to an uninterrupted cold CLI run.
    let second = serve(ServeConfig {
        store,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(second.addr()).unwrap();
    let resumed = expect_report(client.sweep(&spec, 2).unwrap());
    assert_eq!(resumed, golden("engine_smoke.json"));
    second.drain();
    second.join();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn claim_protocol_mode_matches_the_golden_and_leaves_a_worker_shard() {
    let dir = temp_dir("claims");
    let spec = SweepSpec::smoke();
    let handle = serve(ServeConfig {
        store: StoreConfig {
            capacity: None,
            cache_dir: Some(dir.clone()),
        },
        dist_claims_ttl: Some(std::time::Duration::from_secs(5)),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let report = expect_report(client.sweep(&spec, 2).unwrap());
    assert_eq!(report, golden("engine_smoke.json"));
    handle.drain();
    handle.join();

    // The daemon ran as one claiming worker: every record went to its
    // own shard journal, none to the plain journal.
    let journal_dir = ArtifactStore::journal_dir(&dir);
    let shard = journal_dir.join(format!(
        "{:016x}.serve-{}.jsonl",
        spec.stable_key(),
        std::process::id()
    ));
    let lines = std::fs::read_to_string(&shard).expect("worker shard written");
    assert_eq!(lines.lines().count(), spec.job_count());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_immediate_drain_wakes_every_idle_eval_worker() {
    // Many eval workers racing from spawn into their first wait while
    // the drain flips: a wakeup lost between a worker's `draining` check
    // and its condvar wait would leave `join` blocked forever.
    for round in 0..100 {
        let handle = serve(ServeConfig {
            eval_workers: 16,
            ..ServeConfig::default()
        })
        .unwrap();
        handle.drain();
        let (joined, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            handle.join();
            let _ = joined.send(());
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("round {round}: join still blocked after drain"));
    }
}
