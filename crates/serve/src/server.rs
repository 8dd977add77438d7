//! The multi-tenant sweep server: one shared [`EvalEngine`] (and its
//! `Arc<ArtifactStore>`) behind a `std::net::TcpListener`.
//!
//! Threading model:
//!
//! * one **acceptor** thread owns the listener;
//! * one detached **reader** thread per connection parses frames,
//!   answers cheap requests (ping / stats / shutdown / protocol errors)
//!   inline, and enqueues evaluation work;
//! * a fixed pool of **eval workers** pops evaluation jobs and writes
//!   each response straight to the owning connection (under that
//!   connection's write lock, so responses never interleave and a
//!   drained server never exits with an unwritten response).
//!
//! Admission control is a bounded queue with **per-client fairness**:
//! each connection gets its own FIFO and workers pop round-robin across
//! connections, so one client streaming requests cannot starve another
//! ([`QueueState`] is unit-tested directly). When the queue is full the
//! request is refused with a typed [`Response::Busy`] — never a stall.
//!
//! Identical in-flight requests **coalesce**: the rendered response is
//! memoized in the store under the `serve/sweep` / `serve/cosim`
//! namespace keyed by [`SweepSpec::stable_key`], so the store's
//! build-once slots make the second of two concurrent identical
//! requests wait for (and share) the first one's evaluation — visible
//! in the store's per-namespace `coalesced` counters.
//!
//! **Graceful drain** (a [`Request::Shutdown`], or the `drain_after`
//! testing hook): the server stops admitting work, flushes queued jobs
//! with [`Response::Draining`], and stops in-flight sweeps over a
//! `cache_dir` between jobs via [`RunControl::stop`] — completed jobs
//! are already journaled, so a restarted server resumes them and the
//! merged report is byte-identical to an uninterrupted run. Sweeps
//! without a `cache_dir` run to completion before the drain finishes.

use crate::proto::{read_json, write_frame, write_json, Request, Response};
use digiq_core::engine::{DistributedConfig, EvalEngine, RunControl, SweepSpec};
use digiq_core::store::{ArtifactStore, StoreConfig, SweepJournal};
use sfq_hw::cost::CostModel;
use sfq_hw::json::ToJson;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Poison-tolerant lock (the crate-wide idiom; a panicked holder left
/// consistent state or died before touching it).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Store namespace memoizing rendered analytic-sweep responses.
pub const NS_SWEEP: &str = "serve/sweep";
/// Store namespace memoizing rendered co-simulation responses.
pub const NS_COSIM: &str = "serve/cosim";

/// Server configuration (the `serve` binary builds this from the
/// `CommonArgs` flag family plus its own extras).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (the handle reports it).
    pub addr: String,
    /// Eval worker threads — the number of requests evaluated
    /// concurrently.
    pub eval_workers: usize,
    /// Worker threads per sweep (requests asking for more are capped).
    pub sweep_workers: usize,
    /// Bound on queued evaluation requests across all clients; a full
    /// queue refuses with [`Response::Busy`]. Capacity 0 refuses every
    /// evaluation request (the admission-control test fixture).
    pub queue_capacity: usize,
    /// Store capacity / persistence (the `CommonArgs` store flags).
    /// With a `cache_dir`, sweeps are journaled and drain is resumable.
    pub store: StoreConfig,
    /// Testing hook: initiate drain after this many evaluation
    /// responses have been written (the CI drain smoke uses 1).
    pub drain_after: Option<u64>,
    /// Testing hook: run journaled sweeps with this fresh-job budget
    /// (`sweep --interrupt-after` across the wire), so a drain-resume
    /// check interrupts deterministically.
    pub interrupt_after: Option<usize>,
    /// Testing hook: sleep this long at the start of every *fresh*
    /// evaluation (store misses only — memoized responses stay fast).
    /// A cold smoke evaluation runs in single-digit milliseconds, far
    /// too fast for a coalescing check to reliably land a duplicate
    /// mid-build; widening the build window makes those checks
    /// deterministic instead of a scheduler race.
    pub eval_delay: Option<std::time::Duration>,
    /// With a cache dir, run sweeps through the distributed claim
    /// protocol (this TTL as the stale-claim expiry) instead of the
    /// plain journal: the daemon then cooperates with any external
    /// `sweep --worker-id` processes sharing the same `--cache-dir`.
    pub dist_claims_ttl: Option<std::time::Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            eval_workers: 2,
            sweep_workers: 2,
            queue_capacity: 16,
            store: StoreConfig::default(),
            drain_after: None,
            interrupt_after: None,
            eval_delay: None,
            dist_claims_ttl: None,
        }
    }
}

/// One queued evaluation job: the request plus the connection to answer
/// on and the completion signal its reader thread blocks on.
struct Job {
    client: u64,
    request: Request,
    conn: Arc<Mutex<TcpStream>>,
    done: mpsc::Sender<()>,
}

/// The fairness queue: one FIFO per client connection, popped
/// round-robin across clients. Kept separate from the I/O so the
/// scheduling policy is directly unit-testable.
struct QueueState {
    queues: BTreeMap<u64, VecDeque<Job>>,
    /// Round-robin ring of client ids with non-empty queues.
    ring: VecDeque<u64>,
    len: usize,
}

impl QueueState {
    fn new() -> Self {
        QueueState {
            queues: BTreeMap::new(),
            ring: VecDeque::new(),
            len: 0,
        }
    }

    fn push(&mut self, job: Job) {
        let q = self.queues.entry(job.client).or_default();
        if q.is_empty() {
            self.ring.push_back(job.client);
        }
        q.push_back(job);
        self.len += 1;
    }

    /// Pops the next job round-robin: the head client's oldest request,
    /// then the client goes to the back of the ring (if it still has
    /// work).
    fn pop(&mut self) -> Option<Job> {
        let client = self.ring.pop_front()?;
        let q = self.queues.get_mut(&client)?;
        let job = q.pop_front()?;
        if q.is_empty() {
            self.queues.remove(&client);
        } else {
            self.ring.push_back(client);
        }
        self.len -= 1;
        Some(job)
    }
}

struct Shared {
    engine: EvalEngine,
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    available: Condvar,
    draining: AtomicBool,
    served: AtomicU64,
    addr: SocketAddr,
}

impl Shared {
    fn initiate_drain(&self) {
        // Flip the flag and notify under the queue lock: an eval worker
        // checks the flag and starts waiting under that same lock, so it
        // either sees the flag or is already waiting for this wakeup.
        {
            let _queue = lock_unpoisoned(&self.queue);
            if self.draining.swap(true, Ordering::SeqCst) {
                return;
            }
            self.available.notify_all();
        }
        // Unblock the acceptor, which re-checks the flag per connection.
        let _ = TcpStream::connect(self.addr);
    }

    /// Writes `resp` (and, for reports, the raw body frame) to the
    /// job's connection. Write errors mean the client went away — the
    /// server keeps serving everyone else.
    fn respond(conn: &Mutex<TcpStream>, resp: &Response, body: Option<&[u8]>) {
        let mut stream = lock_unpoisoned(conn);
        let _ = write_json(&mut *stream, &resp.to_json());
        if let Some(body) = body {
            let _ = write_frame(&mut *stream, body);
        }
        let _ = stream.flush();
    }

    /// Evaluates one admitted request. The rendered report is memoized
    /// in the store keyed by the spec fingerprint, which is what makes
    /// identical concurrent requests coalesce onto one evaluation.
    fn evaluate(&self, request: &Request) -> (Response, Option<Arc<Option<String>>>) {
        let (spec, workers, cosim) = match request {
            Request::Sweep { spec, workers } => (spec, *workers, false),
            Request::Cosim { spec, workers } => (spec, *workers, true),
            _ => unreachable!("only evaluation requests are queued"),
        };
        let workers = workers.min(self.cfg.sweep_workers).max(1);
        let ns = if cosim { NS_COSIM } else { NS_SWEEP };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.engine.store().get_or_build(ns, spec.stable_key(), || {
                if let Some(delay) = self.cfg.eval_delay {
                    std::thread::sleep(delay);
                }
                if cosim {
                    Some(
                        self.engine
                            .session()
                            .run_cosim(spec, workers)
                            .to_json_string(),
                    )
                } else {
                    self.run_sweep(spec, workers)
                }
            })
        }));
        match result {
            Ok(rendered) => match &*rendered {
                Some(text) => (
                    Response::Report {
                        bytes: text.len() as u64,
                    },
                    Some(rendered.clone()),
                ),
                // The build was stopped by a drain (journaled partial
                // progress is on disk). The slot stays `None` for this
                // process's remaining lifetime — it is draining anyway.
                None => (Response::Interrupted, None),
            },
            Err(_) => (
                Response::Error(
                    "evaluation failed (spec inconsistent with the device grid?)".to_string(),
                ),
                None,
            ),
        }
    }

    /// One analytic sweep in the run mode the config selects: with a
    /// cache dir, the claim protocol (`dist_claims_ttl`, cooperating with
    /// external `sweep --worker-id` processes) or the resumable journal,
    /// both stopped between jobs by a drain; without one, a plain run.
    /// An unusable cache dir falls back to the plain run too. Every mode
    /// renders the bytes of a cold `sweep` CLI run.
    fn run_sweep(&self, spec: &SweepSpec, workers: usize) -> Option<String> {
        let session = self.engine.session();
        let ctl = RunControl {
            interrupt_after: self.cfg.interrupt_after,
            stop: Some(&self.draining),
        };
        let persisted = self.cfg.store.cache_dir.as_ref().map(|dir| {
            if let Some(ttl) = self.cfg.dist_claims_ttl {
                let mut dcfg = DistributedConfig::new(format!("serve-{}", std::process::id()));
                dcfg.claim_ttl = ttl;
                return session.run_distributed(spec, dir, &dcfg, ctl);
            }
            let journal = SweepJournal::open(&ArtifactStore::journal_dir(dir), spec.stable_key())?;
            Ok(session.run_journaled(spec, workers, &journal, true, ctl))
        });
        let report = match persisted {
            Some(Ok(report)) => report,
            _ => Some(session.run_deterministic(spec, workers)),
        };
        report.map(|r| r.to_json_string())
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = lock_unpoisoned(&self.queue);
                loop {
                    if let Some(job) = queue.pop() {
                        break Some(job);
                    }
                    if self.draining.load(Ordering::SeqCst) {
                        break None;
                    }
                    queue = self
                        .available
                        .wait(queue)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            let Some(job) = job else { break };
            let (resp, body) = if self.draining.load(Ordering::SeqCst) {
                // Admitted before the drain started: refuse rather than
                // start long work on a server that is shutting down.
                (Response::Draining, None)
            } else {
                self.evaluate(&job.request)
            };
            Self::respond(
                &job.conn,
                &resp,
                body.as_deref()
                    .and_then(|b| b.as_deref())
                    .map(str::as_bytes),
            );
            let _ = job.done.send(());
            let served = self.served.fetch_add(1, Ordering::SeqCst) + 1;
            if self.cfg.drain_after.is_some_and(|n| served >= n) {
                self.initiate_drain();
            }
        }
        // Drain: flush whatever is still queued so no reader blocks
        // forever (first worker out does the sweep; `pop` is empty for
        // the rest).
        loop {
            let job = lock_unpoisoned(&self.queue).pop();
            let Some(job) = job else { break };
            Self::respond(&job.conn, &Response::Draining, None);
            let _ = job.done.send(());
        }
    }

    /// Handles one connection until EOF or an I/O error. Protocol
    /// errors (garbage JSON, bad version, out-of-bounds specs) answer
    /// with [`Response::Error`] and keep the connection open; only
    /// transport-level failures end it.
    fn reader_loop(&self, stream: TcpStream, client: u64) {
        let conn = Arc::new(Mutex::new(stream));
        loop {
            // Read without holding the write lock (writes happen from
            // eval workers); a second stream handle shares the socket.
            let frame = {
                let Ok(mut reading) = lock_unpoisoned(&conn).try_clone() else {
                    return;
                };
                read_json(&mut reading)
            };
            let parsed = match frame {
                Ok(j) => Request::from_json(&j),
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    Self::respond(&conn, &Response::Error(e.to_string()), None);
                    continue;
                }
                // EOF / reset / truncated frame: the client went away.
                Err(_) => return,
            };
            match parsed {
                Err(msg) => Self::respond(&conn, &Response::Error(msg), None),
                Ok(Request::Ping) => Self::respond(&conn, &Response::Pong, None),
                Ok(Request::Stats) => {
                    Self::respond(&conn, &Response::Stats(self.engine.store().stats()), None)
                }
                Ok(Request::Shutdown) => {
                    Self::respond(&conn, &Response::Draining, None);
                    self.initiate_drain();
                }
                Ok(request @ (Request::Sweep { .. } | Request::Cosim { .. })) => {
                    let (done, done_rx) = mpsc::channel();
                    let admitted = {
                        let mut queue = lock_unpoisoned(&self.queue);
                        if self.draining.load(Ordering::SeqCst) {
                            Err(Response::Draining)
                        } else if queue.len >= self.cfg.queue_capacity {
                            Err(Response::Busy {
                                queued: queue.len as u64,
                            })
                        } else {
                            queue.push(Job {
                                client,
                                request,
                                conn: Arc::clone(&conn),
                                done,
                            });
                            Ok(())
                        }
                    };
                    match admitted {
                        Err(resp) => Self::respond(&conn, &resp, None),
                        Ok(()) => {
                            self.available.notify_one();
                            // The worker writes the response itself;
                            // wait so responses stay in request order.
                            let _ = done_rx.recv();
                        }
                    }
                }
            }
        }
    }
}

/// A running server: the bound address plus the join handle for a
/// graceful exit. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::drain`] (or send a shutdown request) and then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The shared engine (test access to the store counters).
    pub fn engine(&self) -> &EvalEngine {
        &self.shared.engine
    }

    /// Initiates a graceful drain, as if a shutdown request arrived.
    pub fn drain(&self) {
        self.shared.initiate_drain();
    }

    /// Waits for the drain to complete (acceptor and eval workers
    /// exited; every queued request answered).
    pub fn join(self) {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Binds and starts a server.
///
/// # Errors
///
/// Returns the bind error; everything after the bind is reported to
/// clients over the protocol instead.
pub fn serve(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let engine = EvalEngine::with_store_config(CostModel::default(), cfg.store.clone());
    let shared = Arc::new(Shared {
        engine,
        cfg,
        queue: Mutex::new(QueueState::new()),
        available: Condvar::new(),
        draining: AtomicBool::new(false),
        served: AtomicU64::new(0),
        addr,
    });

    let workers = (0..shared.cfg.eval_workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("digiq-serve-eval-{i}"))
                .spawn(move || shared.worker_loop())
                .expect("spawn eval worker")
        })
        .collect();

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("digiq-serve-accept".to_string())
            .spawn(move || {
                let mut next_client = 0u64;
                for stream in listener.incoming() {
                    if shared.draining.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Responses are small frames followed by a read of
                    // the next request; without TCP_NODELAY they sit in
                    // the kernel until the client's delayed ACK.
                    let _ = stream.set_nodelay(true);
                    let client = next_client;
                    next_client += 1;
                    let shared = Arc::clone(&shared);
                    // Detached on purpose: readers die with their
                    // connection (or with the process), never block the
                    // drain.
                    let _ = std::thread::Builder::new()
                        .name(format!("digiq-serve-conn-{client}"))
                        .spawn(move || shared.reader_loop(stream, client));
                }
            })
            .expect("spawn acceptor")
    };

    Ok(ServerHandle {
        shared,
        acceptor,
        workers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_job(client: u64, tag: &str) -> (Job, mpsc::Receiver<()>) {
        // A throwaway loopback socket: QueueState never touches it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (done, rx) = mpsc::channel();
        (
            Job {
                client,
                request: Request::Sweep {
                    spec: SweepSpec::smoke().with_seeds(vec![tag.len() as u64]),
                    workers: 1,
                },
                conn: Arc::new(Mutex::new(stream)),
                done,
            },
            rx,
        )
    }

    #[test]
    fn queue_pops_round_robin_across_clients() {
        let mut q = QueueState::new();
        let mut keep = Vec::new();
        for (client, tag) in [(7, "a1"), (7, "a2"), (7, "a3"), (9, "b1"), (9, "b2")] {
            let (job, rx) = fake_job(client, tag);
            q.push(job);
            keep.push(rx);
        }
        assert_eq!(q.len, 5);
        // One greedy client (three queued) cannot starve the other:
        // pops alternate 7, 9, 7, 9, 7.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|j| j.client)).collect();
        assert_eq!(order, vec![7, 9, 7, 9, 7]);
        assert_eq!(q.len, 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn queue_len_tracks_pushes_and_pops() {
        let mut q = QueueState::new();
        let (job, _rx) = fake_job(1, "x");
        q.push(job);
        let (job, _rx2) = fake_job(2, "y");
        q.push(job);
        assert_eq!(q.len, 2);
        assert!(q.pop().is_some());
        assert_eq!(q.len, 1);
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
        assert_eq!(q.len, 0);
    }
}
