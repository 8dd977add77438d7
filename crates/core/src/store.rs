//! The unified, content-addressed artifact store.
//!
//! Every expensive artifact the evaluation engine builds — benchmark
//! circuits, synthesized hardware, compiled pipeline artifacts, sequence
//! databases, baseline executions, co-simulation reports — used to live
//! in its own ad-hoc per-process cache. This module replaces all of them
//! with one [`ArtifactStore`]:
//!
//! * **content-addressed** — values are keyed by 64-bit stable digests
//!   ([`qsim::rng::stable_hash`] chains: circuit fingerprints, compile
//!   keys, design parameters), grouped into string *namespaces*
//!   (`circuit`, `hardware`, `compile`, `baseline`, `cosim`, …);
//! * **sharded** — entries spread over independently locked shards, with
//!   build-once semantics per key: the first caller runs the builder,
//!   concurrent callers of the same key block on the same slot and share
//!   the built [`Arc`];
//! * **bounded** — an optional capacity with least-recently-used
//!   eviction; evicting never changes results, it only costs a rebuild
//!   on the next lookup;
//! * **persistent** — namespaces whose values implement [`Artifact`]
//!   (whole compiles, [`ExecReport`] baselines,
//!   [`CosimReport`]s) spill to disk under `--cache-dir` with atomic
//!   write-then-rename, so a second sweep warm-starts across processes;
//!   corrupt or truncated files are treated as misses and rebuilt;
//! * **accounted** — per-namespace hit / miss / disk-hit / build /
//!   eviction counters ([`ArtifactStore::stats`]), surfaced beside the
//!   engine's `PassCacheStats`.
//!
//! It is the workspace's only result cache that outlives a call: the
//! numeric kernels (`qsim::expm`, `qsim::two_qubit`) and module synthesis
//! ([`crate::hardware`]) keep no process-wide memos, so every reuse shows
//! up in these counters (`scripts/ci.sh` rejects new `static` memos).
//!
//! The default configuration (in-memory, unbounded) reproduces the
//! historical per-process cache behaviour bit for bit — the golden files
//! `tests/golden/engine_smoke.json` and `tests/golden/cosim_smoke.json`
//! pin this.
//!
//! On-disk layout (format [`DISK_FORMAT_VERSION`], see README):
//!
//! ```text
//! <cache-dir>/v2/<namespace>/<key as %016x>.json   one artifact per file
//! <cache-dir>/v2/compile/<key as %016x>.json       one file per compile
//! <cache-dir>/v2/journal/<spec key>.jsonl          sweep completion journal
//! <cache-dir>/v2/journal/<spec key>.<label>.jsonl  per-worker shard journal
//! <cache-dir>/v2/claims/<spec key>/<index>.claim   distributed job claims
//! ```

use crate::cosim::CosimReport;
use crate::design::ControllerDesign;
use crate::exec::ExecReport;
use crate::system::MinBasisKind;
use qcircuit::ir::{Circuit, Gate, OneQ};
use qcircuit::mapping::Layout;
use qcircuit::pipeline::CompileArtifact;
use sfq_hw::json::{Json, ToJson};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Version directory of the on-disk artifact format. Bump only for a
/// deliberate, documented format change (see the ROADMAP's stability
/// rules); old version directories are simply ignored, never migrated.
pub const DISK_FORMAT_VERSION: &str = "v2";

/// Locks a mutex, recovering the guard when a previous holder panicked.
///
/// Every shared structure guarded this way (store shards, counters,
/// metric aggregations, result slots) is updated atomically from the
/// caller's perspective — a panicking worker can leave the data stale but
/// never torn — so recovering from the poison flag is always safe and
/// keeps one crashed job from wedging every subsequent cache access.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Well-known namespace names of the evaluation engine's artifacts.
pub mod ns {
    /// Generated benchmark circuits (in-memory only).
    pub const CIRCUIT: &str = "circuit";
    /// Synthesized design hardware (in-memory only).
    pub const HARDWARE: &str = "hardware";
    /// Meet-in-the-middle sequence databases (in-memory only).
    pub const SEQ_DB: &str = "seq_db";
    /// Measured decomposition-length distributions (in-memory only).
    pub const MIN_LENGTHS: &str = "min_lengths";
    /// Impossible-MIMD baseline executions (persistent).
    pub const BASELINE: &str = "baseline";
    /// Cycle-accurate co-simulation reports (persistent).
    pub const COSIM: &str = "cosim";
    /// Whole compile-pipeline artifacts, one per (circuit, layout, grid,
    /// pipeline config) (persistent).
    pub const COMPILE: &str = "compile";
    /// DigiQ_opt reports of a job's BS siblings, one entry per (compile,
    /// group count, exec seed, BS list) (in-memory only).
    pub const OPT_SIBLINGS: &str = "opt_siblings";
}

/// A value the store can persist: a JSON codec over [`sfq_hw::json`]
/// whose decode validates enough to reject corrupt files.
pub trait Artifact: Send + Sync + Sized + 'static {
    /// Serializes the artifact for disk.
    fn encode(&self) -> Json;

    /// Reconstructs an artifact from its [`Artifact::encode`] form.
    /// `decode(encode(x))` must equal `x` exactly (bit-exact floats), so
    /// a warm-started run serializes byte-identical reports.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural mismatch; the store
    /// treats any error as a corrupt file and rebuilds.
    fn decode(j: &Json) -> Result<Self, String>;
}

// ---------------------------------------------------------------------
// Artifact codecs
// ---------------------------------------------------------------------

impl Artifact for ExecReport {
    fn encode(&self) -> Json {
        self.to_json()
    }

    fn decode(j: &Json) -> Result<Self, String> {
        ExecReport::from_json(j)
    }
}

impl Artifact for CosimReport {
    fn encode(&self) -> Json {
        self.to_json()
    }

    fn decode(j: &Json) -> Result<Self, String> {
        CosimReport::from_json(j)
    }
}

fn gate_to_json(g: &Gate) -> Json {
    fn tagged(tag: &str, rest: &[Json]) -> Json {
        let mut items = vec![tag.to_json()];
        items.extend_from_slice(rest);
        Json::Arr(items)
    }
    match *g {
        Gate::OneQ { q, kind } => match kind {
            OneQ::H => tagged("h", &[q.to_json()]),
            OneQ::X => tagged("x", &[q.to_json()]),
            OneQ::Y => tagged("y", &[q.to_json()]),
            OneQ::Z => tagged("z", &[q.to_json()]),
            OneQ::S => tagged("s", &[q.to_json()]),
            OneQ::Sdg => tagged("sdg", &[q.to_json()]),
            OneQ::T => tagged("t", &[q.to_json()]),
            OneQ::Tdg => tagged("tdg", &[q.to_json()]),
            OneQ::Rx(a) => tagged("rx", &[q.to_json(), a.to_json()]),
            OneQ::Ry(a) => tagged("ry", &[q.to_json(), a.to_json()]),
            OneQ::Rz(a) => tagged("rz", &[q.to_json(), a.to_json()]),
            OneQ::U { theta, phi, lam } => tagged(
                "u",
                &[q.to_json(), theta.to_json(), phi.to_json(), lam.to_json()],
            ),
        },
        Gate::Cx { c, t } => tagged("cx", &[c.to_json(), t.to_json()]),
        Gate::Cz { a, b } => tagged("cz", &[a.to_json(), b.to_json()]),
        Gate::Swap { a, b } => tagged("swap", &[a.to_json(), b.to_json()]),
        Gate::Ccx { c1, c2, t } => tagged("ccx", &[c1.to_json(), c2.to_json(), t.to_json()]),
    }
}

fn gate_from_json(j: &Json, n_qubits: usize) -> Result<Gate, String> {
    let items = match j {
        Json::Arr(items) if !items.is_empty() => items,
        _ => return Err("gate must be a non-empty array".to_string()),
    };
    let tag = items[0].as_str().ok_or("gate tag must be a string")?;
    let qubit = |i: usize| -> Result<usize, String> {
        let x = items
            .get(i)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("gate `{tag}` operand {i} must be a number"))?;
        if x < 0.0 || x.fract() != 0.0 || x >= n_qubits as f64 {
            return Err(format!("gate `{tag}` qubit {x} out of range {n_qubits}"));
        }
        Ok(x as usize)
    };
    let angle = |i: usize| -> Result<f64, String> {
        items
            .get(i)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("gate `{tag}` angle {i} must be a number"))
    };
    let arity = |n: usize| -> Result<(), String> {
        if items.len() == n + 1 {
            Ok(())
        } else {
            Err(format!("gate `{tag}` takes {n} operand(s)"))
        }
    };
    let oneq = |kind: OneQ, n: usize| -> Result<Gate, String> {
        arity(n)?;
        Ok(Gate::OneQ { q: qubit(1)?, kind })
    };
    let pair = |make: fn(usize, usize) -> Gate| -> Result<Gate, String> {
        arity(2)?;
        let (a, b) = (qubit(1)?, qubit(2)?);
        if a == b {
            return Err(format!("gate `{tag}` repeats qubit {a}"));
        }
        Ok(make(a, b))
    };
    match tag {
        "h" => oneq(OneQ::H, 1),
        "x" => oneq(OneQ::X, 1),
        "y" => oneq(OneQ::Y, 1),
        "z" => oneq(OneQ::Z, 1),
        "s" => oneq(OneQ::S, 1),
        "sdg" => oneq(OneQ::Sdg, 1),
        "t" => oneq(OneQ::T, 1),
        "tdg" => oneq(OneQ::Tdg, 1),
        "rx" => oneq(OneQ::Rx(angle(2)?), 2),
        "ry" => oneq(OneQ::Ry(angle(2)?), 2),
        "rz" => oneq(OneQ::Rz(angle(2)?), 2),
        "u" => oneq(
            OneQ::U {
                theta: angle(2)?,
                phi: angle(3)?,
                lam: angle(4)?,
            },
            4,
        ),
        "cx" => pair(|c, t| Gate::Cx { c, t }),
        "cz" => pair(|a, b| Gate::Cz { a, b }),
        "swap" => pair(|a, b| Gate::Swap { a, b }),
        "ccx" => {
            arity(3)?;
            let (c1, c2, t) = (qubit(1)?, qubit(2)?, qubit(3)?);
            if c1 == c2 || c1 == t || c2 == t {
                return Err("gate `ccx` repeats a qubit".to_string());
            }
            Ok(Gate::Ccx { c1, c2, t })
        }
        other => Err(format!("unknown gate tag `{other}`")),
    }
}

fn circuit_to_json(c: &Circuit) -> Json {
    Json::obj([
        ("n_qubits", c.n_qubits().to_json()),
        (
            "gates",
            Json::Arr(c.gates().iter().map(gate_to_json).collect()),
        ),
    ])
}

fn circuit_from_json(j: &Json) -> Result<Circuit, String> {
    const CTX: &str = "circuit";
    let n_qubits = j.count_field("n_qubits", CTX)? as usize;
    if n_qubits > MAX_DECODED_QUBITS {
        return Err(format!("circuit width {n_qubits} is implausible"));
    }
    let mut circuit = Circuit::new(n_qubits);
    for g in j.arr_field("gates", CTX)? {
        circuit.push(gate_from_json(g, n_qubits)?);
    }
    Ok(circuit)
}

fn layout_to_json(l: &Layout) -> Json {
    Json::obj([
        ("log_to_phys", l.assignment().to_json()),
        ("n_physical", l.n_physical().to_json()),
    ])
}

/// Upper bound on decoded register sizes: far above any real device
/// (the paper grid is 1,024 qubits) but small enough that a corrupt
/// cache file's `n_physical` can never drive a huge allocation — decode
/// must *reject* damaged files, not abort the process on them.
const MAX_DECODED_QUBITS: usize = 1 << 24;

fn layout_from_json(j: &Json) -> Result<Layout, String> {
    const CTX: &str = "layout";
    let n_physical = j.count_field("n_physical", CTX)? as usize;
    if n_physical > MAX_DECODED_QUBITS {
        return Err(format!("layout register size {n_physical} is implausible"));
    }
    let mut log_to_phys = Vec::new();
    let mut seen = vec![false; n_physical];
    for p in j.arr_field("log_to_phys", CTX)? {
        let x = p.as_f64().ok_or("layout entries must be numbers")?;
        if x < 0.0 || x.fract() != 0.0 || x >= n_physical as f64 {
            return Err(format!("layout maps outside {n_physical} physical qubits"));
        }
        let p = x as usize;
        if seen[p] {
            return Err(format!("layout assigns physical qubit {p} twice"));
        }
        seen[p] = true;
        log_to_phys.push(p);
    }
    Ok(Layout::from_assignment(log_to_phys, n_physical))
}

impl Artifact for CompileArtifact {
    fn encode(&self) -> Json {
        let slots = match &self.slots {
            Some(slots) => slots.to_json(),
            None => Json::Null,
        };
        Json::obj([
            ("circuit", circuit_to_json(&self.circuit)),
            ("logical_gates", self.logical_gates.to_json()),
            ("swaps", self.swaps.to_json()),
            ("initial_layout", layout_to_json(&self.initial_layout)),
            ("final_layout", layout_to_json(&self.final_layout)),
            ("slots", slots),
        ])
    }

    fn decode(j: &Json) -> Result<Self, String> {
        const CTX: &str = "compile artifact";
        let circuit = circuit_from_json(
            j.get("circuit")
                .ok_or("compile artifact missing `circuit`")?,
        )?;
        let slots = match j.get("slots") {
            None => return Err("compile artifact missing `slots`".to_string()),
            Some(Json::Null) => None,
            Some(Json::Arr(slots)) => {
                let mut out: Vec<Vec<usize>> = Vec::with_capacity(slots.len());
                for slot in slots {
                    let items = match slot {
                        Json::Arr(items) => items,
                        _ => return Err("schedule slots must be arrays".to_string()),
                    };
                    let mut gates = Vec::with_capacity(items.len());
                    for g in items {
                        let x = g.as_f64().ok_or("slot entries must be numbers")?;
                        if x < 0.0 || x.fract() != 0.0 || x >= circuit.len() as f64 {
                            return Err(format!(
                                "slot references gate {x} outside the {}-gate circuit",
                                circuit.len()
                            ));
                        }
                        gates.push(x as usize);
                    }
                    out.push(gates);
                }
                Some(out)
            }
            Some(_) => return Err("compile artifact `slots` must be an array or null".to_string()),
        };
        Ok(CompileArtifact {
            logical_gates: j.count_field("logical_gates", CTX)? as usize,
            swaps: j.count_field("swaps", CTX)? as usize,
            initial_layout: layout_from_json(
                j.get("initial_layout")
                    .ok_or("compile artifact missing `initial_layout`")?,
            )?,
            final_layout: layout_from_json(
                j.get("final_layout")
                    .ok_or("compile artifact missing `final_layout`")?,
            )?,
            circuit,
            slots,
        })
    }
}

// ---------------------------------------------------------------------
// Stable content keys
// ---------------------------------------------------------------------

/// The stable word encoding of a design point (discriminant plus `BS`),
/// the building block of hardware / co-simulation content keys.
pub fn design_words(design: ControllerDesign) -> [u64; 2] {
    match design {
        ControllerDesign::SfqMimdNaive => [0, 0],
        ControllerDesign::SfqMimdDecomp => [1, 0],
        ControllerDesign::DigiqMin { bs } => [2, bs as u64],
        ControllerDesign::DigiqOpt { bs } => [3, bs as u64],
        ControllerDesign::ImpossibleMimd => [4, 0],
    }
}

/// Content key of synthesized hardware: design point × group count.
pub fn hardware_key(design: ControllerDesign, groups: usize) -> u64 {
    let [d, bs] = design_words(design);
    qsim::rng::stable_hash_str("hardware", &[d, bs, groups as u64])
}

/// Content key of a sequence database / length distribution basis kind.
pub fn basis_kind_key(kind: MinBasisKind) -> u64 {
    let word = match kind {
        MinBasisKind::IdealRyT => 0,
        MinBasisKind::Rich4 => 1,
    };
    qsim::rng::stable_hash_str("min_basis", &[word])
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// Configuration of an [`ArtifactStore`].
#[derive(Debug, Clone, Default)]
pub struct StoreConfig {
    /// Maximum resident entries across all namespaces (`None`:
    /// unbounded). When exceeded, the least-recently-used entry is
    /// evicted; evictions never change results, only cost rebuilds.
    pub capacity: Option<usize>,
    /// Root directory for disk persistence (`None`: in-memory only).
    /// Artifacts land under
    /// `<cache_dir>/<DISK_FORMAT_VERSION>/<namespace>/<key>.json`.
    pub cache_dir: Option<PathBuf>,
}

type ArcAny = Arc<dyn Any + Send + Sync>;

struct Entry {
    slot: Arc<OnceLock<ArcAny>>,
    last_used: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    hits: u64,
    misses: u64,
    disk_hits: u64,
    builds: u64,
    evictions: u64,
    coalesced: u64,
}

impl Counters {
    /// The public snapshot of these counters under `namespace`.
    fn named(self, namespace: &str) -> NamespaceStats {
        NamespaceStats {
            namespace: namespace.to_string(),
            hits: self.hits,
            misses: self.misses,
            disk_hits: self.disk_hits,
            builds: self.builds,
            evictions: self.evictions,
            coalesced: self.coalesced,
        }
    }
}

const SHARD_COUNT: usize = 16;

/// The unified content-addressed artifact store (see the module docs).
pub struct ArtifactStore {
    shards: Vec<Mutex<HashMap<(String, u64), Entry>>>,
    counters: Mutex<BTreeMap<String, Counters>>,
    resident: AtomicUsize,
    clock: AtomicU64,
    tmp_seq: AtomicU64,
    tmp_swept: u64,
    capacity: Option<usize>,
    disk_root: Option<PathBuf>,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("resident", &self.resident())
            .field("capacity", &self.capacity)
            .field("disk_root", &self.disk_root)
            .finish()
    }
}

impl Default for ArtifactStore {
    fn default() -> Self {
        ArtifactStore::in_memory()
    }
}

impl ArtifactStore {
    /// An unbounded, in-memory store — the default configuration every
    /// golden file pins.
    pub fn in_memory() -> Self {
        ArtifactStore::with_config(StoreConfig::default())
    }

    /// A store with explicit capacity / persistence configuration.
    ///
    /// Opening a persistent store also sweeps orphaned atomic-write temp
    /// files (left by writers that died between write and rename) out of
    /// the disk root; the count is reported in [`StoreStats::tmp_swept`].
    pub fn with_config(config: StoreConfig) -> Self {
        let disk_root = config.cache_dir.map(|d| d.join(DISK_FORMAT_VERSION));
        let tmp_swept = disk_root.as_deref().map_or(0, sweep_orphan_tmp);
        ArtifactStore {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            counters: Mutex::new(BTreeMap::new()),
            resident: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
            tmp_swept,
            capacity: config.capacity,
            disk_root,
        }
    }

    /// The configured capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The versioned disk root (`<cache_dir>/<DISK_FORMAT_VERSION>`), if
    /// persistence is on.
    pub fn disk_root(&self) -> Option<&Path> {
        self.disk_root.as_deref()
    }

    /// The journal directory a persistent sweep uses, for a cache dir.
    pub fn journal_dir(cache_dir: &Path) -> PathBuf {
        cache_dir.join(DISK_FORMAT_VERSION).join("journal")
    }

    /// Orphaned atomic-write temp files swept when this store opened.
    pub fn tmp_swept(&self) -> u64 {
        self.tmp_swept
    }

    /// Entries currently resident in memory.
    pub fn resident(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    fn shard_index(ns: &str, key: u64) -> usize {
        (qsim::rng::stable_hash_str(ns, &[key]) % SHARD_COUNT as u64) as usize
    }

    /// The build-once slot of `(ns, key)`, stamping its LRU clock.
    fn slot(&self, ns: &str, key: u64) -> Arc<OnceLock<ArcAny>> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = lock_unpoisoned(&self.shards[Self::shard_index(ns, key)]);
        let entry = shard.entry((ns.to_string(), key)).or_insert_with(|| Entry {
            slot: Arc::new(OnceLock::new()),
            last_used: 0,
        });
        entry.last_used = stamp;
        Arc::clone(&entry.slot)
    }

    fn downcast<T: Send + Sync + 'static>(ns: &str, any: ArcAny) -> Arc<T> {
        any.downcast::<T>().unwrap_or_else(|_| {
            panic!("artifact store namespace `{ns}` holds a different value type")
        })
    }

    /// Counter bookkeeping for one lookup. For misses this runs *inside*
    /// the init closure — before the slot's value becomes visible — so a
    /// coalesced waiter can never observe the artifact while its build is
    /// still uncounted (stats readers rely on `builds >= 1` the moment a
    /// result exists; the old post-init accounting raced them on fast
    /// paths). `coalesced` marks a hit that arrived while another
    /// caller's build of the same key was still in flight (the lookup
    /// blocked on — or raced with — that build instead of running its
    /// own); coalesced hits are counted inside `hits` too.
    fn count_lookup(&self, ns: &str, initialized: bool, from_disk: bool, coalesced: bool) {
        let mut map = lock_unpoisoned(&self.counters);
        let c = map.entry(ns.to_string()).or_default();
        if initialized {
            c.misses += 1;
            if from_disk {
                c.disk_hits += 1;
            } else {
                c.builds += 1;
            }
        } else {
            c.hits += 1;
            if coalesced {
                c.coalesced += 1;
            }
        }
    }

    /// The one lookup behind [`ArtifactStore::get_or_build`] and
    /// [`ArtifactStore::get_or_build_artifact`]: `init` produces a missing
    /// value and says whether it came from disk. The miss is counted inside the
    /// slot's initializer, before the value becomes visible (see
    /// [`ArtifactStore::count_lookup`]).
    fn lookup(&self, ns: &str, key: u64, init: impl FnOnce() -> (ArcAny, bool)) -> ArcAny {
        let slot = self.slot(ns, key);
        let pending = slot.get().is_none();
        let mut initialized = false;
        let any = slot
            .get_or_init(|| {
                initialized = true;
                let (value, from_disk) = init();
                self.resident.fetch_add(1, Ordering::Relaxed);
                self.count_lookup(ns, true, from_disk, false);
                value
            })
            .clone();
        if initialized {
            self.evict_to_capacity();
        } else {
            self.count_lookup(ns, false, false, pending);
        }
        any
    }

    /// Returns the value for `(ns, key)`, building it in memory on first
    /// use. Concurrent callers of the same key block until the one
    /// running builder finishes, so no artifact is ever built twice
    /// (unless evicted in between).
    pub fn get_or_build<T: Send + Sync + 'static>(
        &self,
        ns: &str,
        key: u64,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        let any = self.lookup(ns, key, || (Arc::new(build()) as ArcAny, false));
        Self::downcast(ns, any)
    }

    /// The persistent variant of [`ArtifactStore::get_or_build`]: on a
    /// memory miss, the store first tries `<disk_root>/<ns>/<key>.json`
    /// (a *disk hit* — no build), and only then runs the builder and
    /// writes the result back with atomic write-then-rename. Without a
    /// disk root this is exactly [`ArtifactStore::get_or_build`].
    pub fn get_or_build_artifact<T: Artifact>(
        &self,
        ns: &str,
        key: u64,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        let any = self.lookup(ns, key, || match self.disk_load::<T>(ns, key) {
            Some(v) => (Arc::new(v) as ArcAny, true),
            None => {
                let v = build();
                self.disk_store(ns, key, &v);
                (Arc::new(v) as ArcAny, false)
            }
        });
        Self::downcast(ns, any)
    }

    /// A counter-neutral read: the resident value for `(ns, key)` if it
    /// is already built, touching neither the hit/miss counters nor the
    /// LRU clock (so peeking never changes accounting or eviction
    /// order). Used by resumed sweeps to fingerprint already-generated
    /// circuits without re-generating them.
    pub fn peek<T: Send + Sync + 'static>(&self, ns: &str, key: u64) -> Option<Arc<T>> {
        let shard = lock_unpoisoned(&self.shards[Self::shard_index(ns, key)]);
        let any = shard.get(&(ns.to_string(), key))?.slot.get()?.clone();
        drop(shard);
        Some(Self::downcast(ns, any))
    }

    fn disk_path(&self, ns: &str, key: u64) -> Option<PathBuf> {
        Some(
            self.disk_root
                .as_ref()?
                .join(ns)
                .join(format!("{key:016x}.json")),
        )
    }

    /// Best-effort disk read: any IO, parse, or decode failure is a miss
    /// (the builder runs and overwrites the corrupt file).
    fn disk_load<T: Artifact>(&self, ns: &str, key: u64) -> Option<T> {
        let text = std::fs::read_to_string(self.disk_path(ns, key)?).ok()?;
        T::decode(&Json::parse(&text).ok()?).ok()
    }

    /// Best-effort atomic disk write: the artifact lands under a unique
    /// temporary name first and is renamed into place, so concurrent
    /// processes and interrupted runs never leave a half-written file
    /// under the final name. IO errors are swallowed — persistence is an
    /// accelerator, never a correctness dependency.
    fn disk_store<T: Artifact>(&self, ns: &str, key: u64, value: &T) {
        let Some(path) = self.disk_path(ns, key) else {
            return;
        };
        let Some(dir) = path.parent() else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = dir.join(format!(
            ".{key:016x}.tmp.{}.{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, value.encode().render()).is_ok() {
            if std::fs::rename(&tmp, &path).is_err() {
                let _ = std::fs::remove_file(&tmp);
            }
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Evicts least-recently-used initialized entries until the resident
    /// count fits the capacity. Mid-build entries are never evicted, and
    /// callers already holding an evicted value's `Arc` keep it alive.
    fn evict_to_capacity(&self) {
        let Some(cap) = self.capacity else { return };
        while self.resident.load(Ordering::Relaxed) > cap {
            let mut victim: Option<(usize, String, u64, u64)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                let shard = lock_unpoisoned(shard);
                for ((ns, key), entry) in shard.iter() {
                    let older = victim.as_ref().is_none_or(|v| entry.last_used < v.3);
                    if entry.slot.get().is_some() && older {
                        victim = Some((i, ns.clone(), *key, entry.last_used));
                    }
                }
            }
            let Some((i, ns, key, stamp)) = victim else {
                return; // nothing evictable (everything is mid-build)
            };
            let removed = {
                let mut shard = lock_unpoisoned(&self.shards[i]);
                match shard.get(&(ns.clone(), key)) {
                    // Re-check under the lock: a concurrent hit may have
                    // refreshed the stamp, in which case we rescan.
                    Some(e) if e.last_used == stamp && e.slot.get().is_some() => {
                        shard.remove(&(ns.clone(), key));
                        true
                    }
                    _ => false,
                }
            };
            if removed {
                self.resident.fetch_sub(1, Ordering::Relaxed);
                let mut map = lock_unpoisoned(&self.counters);
                map.entry(ns).or_default().evictions += 1;
            }
        }
    }

    /// The counters of one namespace (all zero when it was never used).
    pub fn namespace_stats(&self, namespace: &str) -> NamespaceStats {
        let map = lock_unpoisoned(&self.counters);
        map.get(namespace)
            .copied()
            .unwrap_or_default()
            .named(namespace)
    }

    /// A snapshot of every namespace's counters, name-sorted, plus the
    /// store-wide resident entry count.
    pub fn stats(&self) -> StoreStats {
        let map = lock_unpoisoned(&self.counters);
        StoreStats {
            namespaces: map
                .iter()
                .map(|(namespace, c)| c.named(namespace))
                .collect(),
            resident: self.resident() as u64,
            tmp_swept: self.tmp_swept,
        }
    }
}

/// Removes orphaned atomic-write temp files (`.{key}.tmp.{pid}.{seq}`)
/// from every namespace directory under `root`. A writer that dies
/// between `fs::write` and `rename` leaks its temp file forever —
/// harmless to readers, but in a cache dir shared by many worker
/// processes they accumulate without bound. A temp file is swept only
/// when its embedded writer pid is provably dead; everything else
/// (including the claims and journal directories, whose names never
/// match the pattern) is left alone.
fn sweep_orphan_tmp(root: &Path) -> u64 {
    let mut swept = 0;
    let Ok(namespaces) = std::fs::read_dir(root) else {
        return 0;
    };
    for ns_dir in namespaces.flatten() {
        let Ok(files) = std::fs::read_dir(ns_dir.path()) else {
            continue;
        };
        for f in files.flatten() {
            let name = f.file_name();
            let Some(pid) = orphan_tmp_pid(name.to_str().unwrap_or("")) else {
                continue;
            };
            if pid != std::process::id()
                && !process_alive(pid)
                && std::fs::remove_file(f.path()).is_ok()
            {
                swept += 1;
            }
        }
    }
    swept
}

/// Parses the writer pid out of an atomic-write temp file name
/// (`.{16-hex key}.tmp.{pid}.{seq}`); `None` for every other name.
fn orphan_tmp_pid(name: &str) -> Option<u32> {
    let rest = name.strip_prefix('.')?;
    let (key, rest) = rest.split_once(".tmp.")?;
    if key.len() != 16 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let (pid, seq) = rest.split_once('.')?;
    if seq.is_empty() || !seq.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    pid.parse().ok()
}

/// Whether `pid` is a live process. Conservative: without procfs,
/// liveness cannot be determined, every pid reads as alive, and nothing
/// is swept.
fn process_alive(pid: u32) -> bool {
    if !Path::new("/proc/self").exists() {
        return true;
    }
    Path::new("/proc").join(pid.to_string()).exists()
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

/// Counters of one store namespace. Invariants:
/// `misses == disk_hits + builds` (a memory miss is satisfied either
/// from disk or by running the builder) and `coalesced <= hits` (a
/// coalesced lookup is a hit that arrived while the key's one build was
/// still in flight — the request-deduplication signal the sweep service
/// reports).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NamespaceStats {
    /// Namespace name (`circuit`, `compile`, …).
    pub namespace: String,
    /// Lookups satisfied from memory.
    pub hits: u64,
    /// Lookups that missed memory.
    pub misses: u64,
    /// Memory misses satisfied from the disk layer.
    pub disk_hits: u64,
    /// Memory misses that ran the builder.
    pub builds: u64,
    /// Entries evicted under the capacity bound.
    pub evictions: u64,
    /// Hits that joined an in-flight build instead of running their own.
    pub coalesced: u64,
}

impl ToJson for NamespaceStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("namespace", self.namespace.to_json()),
            ("hits", self.hits.to_json()),
            ("misses", self.misses.to_json()),
            ("disk_hits", self.disk_hits.to_json()),
            ("builds", self.builds.to_json()),
            ("evictions", self.evictions.to_json()),
            ("coalesced", self.coalesced.to_json()),
        ])
    }
}

impl NamespaceStats {
    /// Reads the stats back from their [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "namespace stats";
        Ok(NamespaceStats {
            namespace: j.str_field("namespace", CTX)?.to_string(),
            hits: j.count_field("hits", CTX)?,
            misses: j.count_field("misses", CTX)?,
            disk_hits: j.count_field("disk_hits", CTX)?,
            builds: j.count_field("builds", CTX)?,
            evictions: j.count_field("evictions", CTX)?,
            coalesced: j.count_field("coalesced", CTX)?,
        })
    }
}

/// A whole-store counter snapshot ([`ArtifactStore::stats`]), surfaced
/// beside the engine's `PassCacheStats` and appended to `sweep --json`
/// output.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Per-namespace counters, name-sorted.
    pub namespaces: Vec<NamespaceStats>,
    /// Entries resident in memory at snapshot time.
    pub resident: u64,
    /// Orphaned atomic-write temp files swept when the store opened
    /// (dead writers' `.{key}.tmp.{pid}.{seq}` leftovers).
    pub tmp_swept: u64,
}

impl StoreStats {
    /// The entry for one namespace, if it was ever used.
    pub fn get(&self, namespace: &str) -> Option<&NamespaceStats> {
        self.namespaces.iter().find(|n| n.namespace == namespace)
    }

    /// Compile-pipeline builder executions ([`ns::COMPILE`] builds) —
    /// the number the warm-start proof drives to zero.
    pub fn pass_builds(&self) -> u64 {
        self.get(ns::COMPILE).map_or(0, |n| n.builds)
    }

    /// Store-wide totals `(hits, misses, disk_hits, builds, evictions)`.
    pub fn totals(&self) -> (u64, u64, u64, u64, u64) {
        self.namespaces.iter().fold((0, 0, 0, 0, 0), |acc, n| {
            (
                acc.0 + n.hits,
                acc.1 + n.misses,
                acc.2 + n.disk_hits,
                acc.3 + n.builds,
                acc.4 + n.evictions,
            )
        })
    }

    /// Store-wide coalesced-hit total (lookups that joined an in-flight
    /// build) — the request-deduplication counter the sweep service's
    /// smoke check asserts is non-zero under concurrent duplicates.
    pub fn coalesced_total(&self) -> u64 {
        self.namespaces.iter().map(|n| n.coalesced).sum()
    }

    /// Namespace-wise counter difference (`self − earlier`), saturating
    /// at zero, for snapshotting one request's activity out of a shared
    /// long-lived store. `resident` is carried over from `self` (it is a
    /// level, not a counter). Namespaces absent from `earlier` are kept
    /// whole; namespaces with no activity since `earlier` are dropped.
    #[must_use]
    pub fn since(&self, earlier: &StoreStats) -> StoreStats {
        let namespaces = self
            .namespaces
            .iter()
            .filter_map(|n| {
                let base = earlier.get(&n.namespace);
                let sub = |now: u64, before: u64| now.saturating_sub(before);
                let d = NamespaceStats {
                    namespace: n.namespace.clone(),
                    hits: sub(n.hits, base.map_or(0, |b| b.hits)),
                    misses: sub(n.misses, base.map_or(0, |b| b.misses)),
                    disk_hits: sub(n.disk_hits, base.map_or(0, |b| b.disk_hits)),
                    builds: sub(n.builds, base.map_or(0, |b| b.builds)),
                    evictions: sub(n.evictions, base.map_or(0, |b| b.evictions)),
                    coalesced: sub(n.coalesced, base.map_or(0, |b| b.coalesced)),
                };
                let active = d.hits + d.misses + d.evictions + d.coalesced > 0;
                active.then_some(d)
            })
            .collect();
        StoreStats {
            namespaces,
            resident: self.resident,
            tmp_swept: self.tmp_swept,
        }
    }

    /// Reads the stats back from their [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let namespaces = match j.get("namespaces") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(NamespaceStats::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("store stats missing array `namespaces`".to_string()),
        };
        Ok(StoreStats {
            namespaces,
            resident: j.count_field("resident", "store stats")?,
            // Absent in records written before the sweep existed.
            tmp_swept: j.count_field("tmp_swept", "store stats").unwrap_or(0),
        })
    }

    /// Parses serialized stats (the inverse of [`ToJson::to_json_string`]).
    ///
    /// # Errors
    ///
    /// Returns the JSON syntax error or the first structural mismatch.
    pub fn parse(text: &str) -> Result<Self, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        StoreStats::from_json(&j)
    }
}

impl ToJson for StoreStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("namespaces", self.namespaces.to_json()),
            ("resident", self.resident.to_json()),
            ("tmp_swept", self.tmp_swept.to_json()),
        ])
    }
}

// ---------------------------------------------------------------------
// Sweep journal
// ---------------------------------------------------------------------

/// An append-only job-completion journal: one JSON line per finished
/// sweep job, written through and flushed as workers complete, so an
/// interrupted sweep can resume exactly where it stopped. The file is
/// keyed by the sweep spec's stable fingerprint — a changed spec never
/// reads another spec's journal — and loading tolerates truncated or
/// corrupt lines (the interrupted write is simply re-run).
pub struct SweepJournal {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl std::fmt::Debug for SweepJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepJournal")
            .field("path", &self.path)
            .finish()
    }
}

impl SweepJournal {
    /// Opens (creating if needed) the journal for a spec key under `dir`.
    ///
    /// # Errors
    ///
    /// Returns the IO error if the directory or file cannot be created.
    pub fn open(dir: &Path, spec_key: u64) -> std::io::Result<SweepJournal> {
        Self::open_at(dir, format!("{spec_key:016x}.jsonl"))
    }

    /// Opens (creating if needed) a per-worker **shard** journal
    /// (`<spec key>.<label>.jsonl`) under `dir`. Distributed workers each
    /// stream completions into their own shard so no two processes ever
    /// append to the same file; [`SweepJournal::load_all`] reads every
    /// shard back for the merge. Non-filename-safe label characters are
    /// replaced with `-`.
    ///
    /// # Errors
    ///
    /// Returns the IO error if the directory or file cannot be created.
    pub fn open_shard(dir: &Path, spec_key: u64, label: &str) -> std::io::Result<SweepJournal> {
        let safe: String = label
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '-'
                }
            })
            .collect();
        Self::open_at(dir, format!("{spec_key:016x}.{safe}.jsonl"))
    }

    fn open_at(dir: &Path, file_name: String) -> std::io::Result<SweepJournal> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(file_name);
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(SweepJournal {
            path,
            file: Mutex::new(file),
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Loads every valid `(job index, record)` line, in file order.
    /// Corrupt or truncated lines are skipped; duplicate indices are
    /// returned as-is (callers keep the last occurrence).
    pub fn load(&self) -> Vec<(u64, Json)> {
        Self::load_file(&self.path)
    }

    /// The valid lines of one journal file (none if it is unreadable).
    fn load_file(path: &Path) -> Vec<(u64, Json)> {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        text.lines()
            .filter_map(|line| {
                let j = Json::parse(line).ok()?;
                let index = j.count_field("index", "journal line").ok()?;
                Some((index, j.get("record")?.clone()))
            })
            .collect()
    }

    /// Loads every valid line of `spec_key`'s base journal **and** all of
    /// its worker shards under `dir`, concatenated in lexicographic file
    /// order (base first, shards by label). Same per-line tolerance as
    /// [`SweepJournal::load`]; duplicate indices across shards are
    /// returned as-is. Because every record is the output of the same
    /// pure evaluation function, which shard journaled a job never
    /// changes the merged bytes.
    pub fn load_all(dir: &Path, spec_key: u64) -> Vec<(u64, Json)> {
        let prefix = format!("{spec_key:016x}");
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut files: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .and_then(|n| n.strip_prefix(prefix.as_str()))
                    .is_some_and(|rest| {
                        rest == ".jsonl" || (rest.starts_with('.') && rest.ends_with(".jsonl"))
                    })
            })
            .collect();
        files.sort();
        files.iter().flat_map(|p| Self::load_file(p)).collect()
    }

    /// Appends one completed job, flushing so the line survives an
    /// immediate kill. Write errors are swallowed — the job simply
    /// re-runs on resume.
    pub fn append(&self, index: u64, record: &Json) {
        let line = Json::obj([("index", index.to_json()), ("record", record.clone())]).render();
        let mut file = lock_unpoisoned(&self.file);
        let _ = writeln!(file, "{line}");
        let _ = file.flush();
    }
}

// ---------------------------------------------------------------------
// Distributed job claims
// ---------------------------------------------------------------------

/// Per-job claim files coordinating distributed sweep workers through a
/// shared cache dir, with no coordinator process:
///
/// * **acquire** — `O_CREAT|O_EXCL` ([`std::fs::OpenOptions::create_new`])
///   on `<cache-dir>/v2/claims/<spec key>/<index>.claim`, so exactly one
///   of any number of racing processes wins a job;
/// * **heartbeat** — the holder periodically rewrites its claim file,
///   refreshing the mtime. The refresher dies with the process (SIGKILL
///   included), so a dead worker's claims stop being refreshed;
/// * **expiry** — a claim whose mtime is older than the TTL is stale.
///   A stealer first renames it to a unique tombstone (exactly one of
///   several concurrent stealers wins the rename) and then re-races the
///   vacated name under the normal `create_new` rules.
///
/// The claim file's JSON body (`{"worker":…,"pid":…}`) is diagnostic
/// only — correctness rests entirely on the atomic create/rename
/// operations. The directory lives under [`DISK_FORMAT_VERSION`], so a
/// layout change follows the same bump discipline as the artifact files.
pub struct JobClaims {
    dir: PathBuf,
    body: String,
    ttl: Duration,
    steal_seq: AtomicU64,
}

impl std::fmt::Debug for JobClaims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobClaims")
            .field("dir", &self.dir)
            .field("ttl", &self.ttl)
            .finish()
    }
}

impl JobClaims {
    /// The claims directory of one sweep spec, for a cache dir.
    pub fn claims_dir(cache_dir: &Path, spec_key: u64) -> PathBuf {
        cache_dir
            .join(DISK_FORMAT_VERSION)
            .join("claims")
            .join(format!("{spec_key:016x}"))
    }

    /// Opens (creating if needed) the claim directory for a spec key.
    /// `worker` is a diagnostic label written into claim bodies; `ttl`
    /// is how long an un-refreshed claim stays valid before another
    /// worker may steal it.
    ///
    /// # Errors
    ///
    /// Returns the IO error if the directory cannot be created.
    pub fn open(
        cache_dir: &Path,
        spec_key: u64,
        worker: &str,
        ttl: Duration,
    ) -> std::io::Result<JobClaims> {
        let dir = Self::claims_dir(cache_dir, spec_key);
        std::fs::create_dir_all(&dir)?;
        let body = Json::obj([
            ("worker", worker.to_json()),
            ("pid", u64::from(std::process::id()).to_json()),
        ])
        .render();
        Ok(JobClaims {
            dir,
            body,
            ttl,
            steal_seq: AtomicU64::new(0),
        })
    }

    fn claim_path(&self, index: u64) -> PathBuf {
        self.dir.join(format!("{index}.claim"))
    }

    /// Tries to claim job `index`: wins a vacant claim atomically, or
    /// steals a stale one (un-refreshed for longer than the TTL).
    /// Returns whether this caller now holds the claim.
    pub fn try_claim(&self, index: u64) -> bool {
        let path = self.claim_path(index);
        if self.acquire(&path) {
            return true;
        }
        if !self.is_stale(&path) {
            return false;
        }
        // Steal: rename the stale claim to a unique tombstone — of any
        // number of concurrent stealers, exactly one rename succeeds —
        // then re-race the vacated name. Losing either race is fine:
        // some other worker holds the job now.
        let tombstone = self.dir.join(format!(
            ".steal.{index}.{}.{}",
            std::process::id(),
            self.steal_seq.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::rename(&path, &tombstone).is_err() {
            return false;
        }
        let _ = std::fs::remove_file(&tombstone);
        self.acquire(&path)
    }

    /// `O_CREAT|O_EXCL` acquisition of one claim path.
    fn acquire(&self, path: &Path) -> bool {
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
        {
            Ok(mut f) => {
                let _ = f.write_all(self.body.as_bytes());
                true
            }
            Err(_) => false,
        }
    }

    /// Whether the claim at `path` has not been refreshed within the TTL.
    /// Unreadable metadata (including a just-released claim) reads as
    /// fresh — the next scan retries.
    fn is_stale(&self, path: &Path) -> bool {
        std::fs::metadata(path)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| mtime.elapsed().ok())
            .is_some_and(|age| age > self.ttl)
    }

    /// Releases the claim on job `index` (after its record is safely
    /// journaled). Best-effort: an unreleased claim merely goes stale.
    pub fn release(&self, index: u64) {
        let _ = std::fs::remove_file(self.claim_path(index));
    }

    /// Starts a background refresher for job `index`, rewriting the
    /// claim every quarter-TTL until the returned guard drops (panic
    /// safe — the guard stops the thread from its destructor). A worker
    /// killed outright loses the refresher with the process, so its
    /// claim goes stale and gets reclaimed — exactly the expiry story
    /// the distributed tests kill a real worker to prove.
    ///
    /// The refresher only rewrites an existing claim file, never creates
    /// one: a tick that lands after [`JobClaims::release`] cannot bring
    /// the released claim back. Drop the guard before releasing.
    pub fn heartbeat(&self, index: u64) -> ClaimHeartbeat {
        let period = (self.ttl / 4).max(Duration::from_millis(5));
        let path = self.claim_path(index);
        let body = self.body.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !thread_stop.load(Ordering::Relaxed) {
                std::thread::park_timeout(period);
                if thread_stop.load(Ordering::Relaxed) {
                    break;
                }
                if let Ok(mut f) = std::fs::OpenOptions::new()
                    .write(true)
                    .truncate(true)
                    .open(&path)
                {
                    let _ = f.write_all(body.as_bytes());
                }
            }
        });
        ClaimHeartbeat {
            stop,
            handle: Some(handle),
        }
    }
}

/// Stops the claim refresher when dropped (see [`JobClaims::heartbeat`]).
pub struct ClaimHeartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ClaimHeartbeat {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::pipeline::{PipelineConfig, RouteStrategy, ScheduleStrategy};
    use qcircuit::topology::Grid;

    fn demo_artifact(cfg: &PipelineConfig) -> CompileArtifact {
        let grid = Grid::new(3, 3);
        let mut c = Circuit::new(9);
        c.h(0);
        c.cx(0, 4);
        c.ccx(1, 3, 5);
        c.swap(2, 6);
        c.cz(7, 8);
        c.rz(8, 0.1234567891011);
        c.ry(3, -2.5);
        let art = CompileArtifact::new(c, Layout::snake(9, &grid));
        cfg.run(art, &grid).unwrap().0
    }

    #[test]
    fn builds_once_per_key_across_threads() {
        let store = ArtifactStore::in_memory();
        let builds = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for k in 0..8u64 {
                        let v = store.get_or_build("t", k % 3, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            k % 3 + 100
                        });
                        assert_eq!(*v % 100, k % 3);
                    }
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 3, "one build per key");
        let stats = store.namespace_stats("t");
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.builds, 3);
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(stats.hits, 4 * 8 - 3);
        assert!(stats.coalesced <= stats.hits);
        assert_eq!(store.resident(), 3);
    }

    #[test]
    fn concurrent_lookups_coalesce_onto_one_build() {
        use std::sync::Barrier;
        let store = ArtifactStore::in_memory();
        let entered = Barrier::new(2);
        let release = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                store.get_or_build("c", 9, || {
                    entered.wait(); // builder is now mid-flight
                    release.wait(); // …until the main thread releases it
                    42u32
                });
            });
            entered.wait();
            // The build is provably in flight: a second lookup of the
            // same key must coalesce onto it (block on the slot, never
            // run its own builder).
            let waiter =
                s.spawn(|| *store.get_or_build("c", 9, || -> u32 { unreachable!("coalesced") }));
            // Give the waiter time to reach the slot, then let the
            // builder finish.
            std::thread::sleep(std::time::Duration::from_millis(50));
            release.wait();
            assert_eq!(waiter.join().unwrap(), 42);
        });
        let stats = store.namespace_stats("c");
        assert_eq!(stats.builds, 1, "exactly one build");
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.coalesced, 1, "the second lookup coalesced");
        // A lookup after the build completes is a plain (non-coalesced) hit.
        store.get_or_build("c", 9, || -> u32 { unreachable!("resident") });
        let stats = store.namespace_stats("c");
        assert_eq!((stats.hits, stats.coalesced), (2, 1));
    }

    #[test]
    fn stats_since_diffs_namespace_counters() {
        let store = ArtifactStore::in_memory();
        store.get_or_build("a", 1, || 1u32);
        store.get_or_build("b", 1, || 1u32);
        let base = store.stats();
        store.get_or_build("a", 1, || 1u32); // hit after the snapshot
        store.get_or_build("a", 2, || 2u32); // build after the snapshot
        let delta = store.stats().since(&base);
        let a = delta.get("a").expect("a was active since the snapshot");
        assert_eq!((a.hits, a.misses, a.builds), (1, 1, 1));
        assert!(delta.get("b").is_none(), "b was idle since the snapshot");
        assert_eq!(delta.resident, 3, "resident is a level, not a counter");
        // A self-diff is empty.
        let now = store.stats();
        assert!(now.since(&now).namespaces.is_empty());
    }

    #[test]
    fn namespaces_isolate_keys() {
        let store = ArtifactStore::in_memory();
        let a = store.get_or_build("a", 7, || 1u32);
        let b = store.get_or_build("b", 7, || 2u32);
        assert_eq!((*a, *b), (1, 2));
        assert_eq!(store.namespace_stats("a").misses, 1);
        assert_eq!(store.namespace_stats("b").misses, 1);
        assert_eq!(store.namespace_stats("never_used").misses, 0);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let store = ArtifactStore::with_config(StoreConfig {
            capacity: Some(2),
            cache_dir: None,
        });
        store.get_or_build("t", 1, || 1u32);
        store.get_or_build("t", 2, || 2u32);
        store.get_or_build("t", 1, || -> u32 { unreachable!("still resident") }); // refresh 1
        store.get_or_build("t", 3, || 3u32); // evicts 2 (least recent)
        assert_eq!(store.resident(), 2);
        assert_eq!(store.namespace_stats("t").evictions, 1);
        // 1 and 3 are still resident; 2 rebuilds.
        store.get_or_build("t", 1, || -> u32 { unreachable!("1 was refreshed") });
        let rebuilt = AtomicU64::new(0);
        store.get_or_build("t", 2, || {
            rebuilt.fetch_add(1, Ordering::Relaxed);
            2u32
        });
        assert_eq!(rebuilt.load(Ordering::Relaxed), 1, "2 was evicted");
        let stats = store.namespace_stats("t");
        assert_eq!(stats.builds, 4);
        assert!(stats.evictions >= 2, "inserting 2 re-evicted something");
    }

    #[test]
    fn lock_unpoisoned_recovers_from_a_panicked_holder() {
        let m = std::sync::Mutex::new(5u32);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.lock().is_err(), "mutex is poisoned");
        assert_eq!(*lock_unpoisoned(&m), 5);
        *lock_unpoisoned(&m) = 6;
        assert_eq!(*lock_unpoisoned(&m), 6);
    }

    #[test]
    fn compile_artifact_codec_roundtrips_exactly() {
        for cfg in [
            PipelineConfig::default(),
            PipelineConfig::default()
                .with_router(RouteStrategy::Lookahead { window: 4 })
                .with_scheduler(ScheduleStrategy::Asap),
            PipelineConfig::default().with_fuse(),
        ] {
            let art = demo_artifact(&cfg);
            let decoded = CompileArtifact::decode(&art.encode()).unwrap();
            assert_eq!(decoded, art, "{cfg:?}");
            // Byte-stable re-encode (bit-exact floats).
            assert_eq!(decoded.encode().render(), art.encode().render());
        }
        // An unscheduled artifact (slots: null) round-trips too.
        let grid = Grid::new(2, 2);
        let mut c = Circuit::new(4);
        c.u(0);
        let unscheduled = CompileArtifact::new(c, Layout::snake(4, &grid));
        let decoded = CompileArtifact::decode(&unscheduled.encode()).unwrap();
        assert_eq!(decoded, unscheduled);
    }

    // A tiny builder extension used by the codec test above.
    trait UExt {
        fn u(&mut self, q: usize);
    }
    impl UExt for Circuit {
        fn u(&mut self, q: usize) {
            self.push(Gate::OneQ {
                q,
                kind: OneQ::U {
                    theta: 0.25,
                    phi: -1.5,
                    lam: 3.25,
                },
            });
        }
    }

    #[test]
    fn codec_rejects_corrupt_documents() {
        let art = demo_artifact(&PipelineConfig::default());
        let good = art.encode();
        for mutate in [
            |j: &mut Json| {
                // Slot referencing a gate outside the circuit.
                if let Some(Json::Arr(slots)) = find_mut(j, "slots") {
                    slots.push(Json::Arr(vec![Json::Num(1e9)]));
                }
            },
            |j: &mut Json| {
                // Layout collision.
                if let Some(layout) = find_mut(j, "initial_layout") {
                    if let Some(Json::Arr(tbl)) = find_mut(layout, "log_to_phys") {
                        tbl[1] = tbl[0].clone();
                    }
                }
            },
            |j: &mut Json| {
                // Unknown gate tag.
                if let Some(circ) = find_mut(j, "circuit") {
                    if let Some(Json::Arr(gates)) = find_mut(circ, "gates") {
                        gates[0] = Json::Arr(vec!["warp".to_json(), 0u64.to_json()]);
                    }
                }
            },
        ] {
            let mut bad = good.clone();
            mutate(&mut bad);
            assert!(CompileArtifact::decode(&bad).is_err());
        }
        assert!(CompileArtifact::decode(&Json::Null).is_err());
        assert!(ExecReport::decode(&Json::obj([("x", Json::Null)])).is_err());
        assert!(CosimReport::decode(&Json::Null).is_err());
    }

    #[test]
    fn codec_rejects_implausible_register_sizes_without_allocating() {
        // A corrupt-but-parseable file must be a decode error, never a
        // giant allocation: 2^53−1 qubits would abort the process if the
        // decoder trusted it.
        let huge = (MAX_DECODED_QUBITS + 1).to_json();
        let layout = Json::obj([
            ("log_to_phys", Json::Arr(vec![])),
            ("n_physical", huge.clone()),
        ]);
        assert!(layout_from_json(&layout).is_err());
        let circuit = Json::obj([("n_qubits", huge), ("gates", Json::Arr(vec![]))]);
        assert!(circuit_from_json(&circuit).is_err());
        // The bound is generous: the paper grid decodes fine.
        let grid = Grid::new(32, 32);
        let layout = Layout::snake(1024, &grid);
        assert_eq!(layout_from_json(&layout_to_json(&layout)).unwrap(), layout);
    }

    fn find_mut<'a>(j: &'a mut Json, key: &str) -> Option<&'a mut Json> {
        match j {
            Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[test]
    fn store_stats_roundtrip_through_json() {
        let store = ArtifactStore::in_memory();
        store.get_or_build(ns::COMPILE, 1, || 1u32);
        store.get_or_build(ns::COMPILE, 1, || 1u32);
        store.get_or_build("baseline", 2, || 2u32);
        let stats = store.stats();
        assert_eq!(stats.namespaces.len(), 2);
        assert_eq!(stats.get(ns::COMPILE).unwrap().hits, 1);
        assert_eq!(stats.resident, 2);
        assert_eq!(stats.totals(), (1, 2, 0, 2, 0));
        assert_eq!(stats.coalesced_total(), 0);
        let parsed = StoreStats::parse(&stats.to_json_string()).unwrap();
        assert_eq!(parsed, stats);
        assert!(StoreStats::parse("{}").is_err());
        // Records written before the tmp sweep existed lack the field.
        let legacy = StoreStats::parse(r#"{"namespaces": [], "resident": 0}"#).unwrap();
        assert_eq!(legacy.tmp_swept, 0);
        // misses == disk_hits + builds and coalesced <= hits everywhere.
        for n in &stats.namespaces {
            assert_eq!(n.misses, n.disk_hits + n.builds);
            assert!(n.coalesced <= n.hits);
        }
    }

    #[test]
    fn orphan_tmp_names_parse_exactly() {
        assert_eq!(
            orphan_tmp_pid(".00000000deadbeef.tmp.4242.7"),
            Some(4242),
            "well-formed temp name"
        );
        for name in [
            "00000000deadbeef.tmp.4242.7",   // no leading dot
            ".00000000deadbeef.tmp.4242",    // no sequence part
            ".00000000deadbee.tmp.4242.7",   // 15-char key
            ".00000000deadbeef.tmp.4242.7x", // non-digit sequence
            ".00000000deadbeef.tmp.x.7",     // non-digit pid
            "00000000deadbeef.json",         // a real artifact
            ".steal.3.4242.0",               // a claim tombstone
            "00000000deadbeef.w2.jsonl",     // a shard journal
        ] {
            assert_eq!(orphan_tmp_pid(name), None, "{name}");
        }
    }

    #[test]
    fn open_sweeps_dead_writers_orphan_tmp_files() {
        let dir = std::env::temp_dir().join(format!(
            "digiq-store-tmp-sweep-{}-{:x}",
            std::process::id(),
            qsim::rng::stable_hash_str("tmp-sweep", &[line!() as u64])
        ));
        let ns_dir = dir.join(DISK_FORMAT_VERSION).join("baseline");
        std::fs::create_dir_all(&ns_dir).unwrap();
        // An orphan from a provably dead writer (pid far beyond pid_max),
        // one from this live process, and a real artifact file.
        let orphan = ns_dir.join(".00000000deadbeef.tmp.999999999.0");
        let ours = ns_dir.join(format!(".00000000deadbeef.tmp.{}.1", std::process::id()));
        let artifact = ns_dir.join("00000000deadbeef.json");
        for p in [&orphan, &ours, &artifact] {
            std::fs::write(p, "{}").unwrap();
        }
        let store = ArtifactStore::with_config(StoreConfig {
            capacity: None,
            cache_dir: Some(dir.clone()),
        });
        assert!(!orphan.exists(), "dead writer's orphan swept");
        assert!(ours.exists(), "live writer's temp file kept");
        assert!(artifact.exists(), "artifacts untouched");
        assert_eq!(store.tmp_swept(), 1);
        assert_eq!(store.stats().tmp_swept, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn claims_acquire_once_and_steal_only_stale() {
        let dir = std::env::temp_dir().join(format!(
            "digiq-store-claims-{}-{:x}",
            std::process::id(),
            qsim::rng::stable_hash_str("claims", &[line!() as u64])
        ));
        // Claims are aged by backdating their mtime, never by sleeping
        // past the TTL, so a loaded host cannot turn a fresh claim stale.
        let ttl = Duration::from_secs(2);
        let a = JobClaims::open(&dir, 7, "a", ttl).unwrap();
        let b = JobClaims::open(&dir, 7, "b", ttl).unwrap();
        let path = a.claim_path(3);
        let backdate = || {
            let stale = std::time::SystemTime::now() - ttl * 2;
            let f = std::fs::File::options().write(true).open(&path).unwrap();
            f.set_modified(stale).unwrap();
        };
        assert!(a.try_claim(3), "vacant claim acquired");
        assert!(!b.try_claim(3), "fresh claim is not stealable");
        // A heartbeated claim outlives the TTL un-stolen: the refresher
        // rewrites a claim that has aged past it.
        let hb = a.heartbeat(3);
        backdate();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while a.is_stale(&path) {
            assert!(
                std::time::Instant::now() < deadline,
                "the refresher never rewrote the stale claim"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(!b.try_claim(3), "refreshed claim stays fresh");
        drop(hb);
        // Without the refresher the claim goes stale and is stolen.
        backdate();
        assert!(b.try_claim(3), "stale claim stolen");
        assert!(!a.try_claim(3), "the thief's claim is fresh again");
        // Releasing vacates the name for a plain re-acquisition.
        b.release(3);
        assert!(a.try_claim(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_heartbeat_never_recreates_a_released_claim() {
        let dir = std::env::temp_dir().join(format!(
            "digiq-store-zombie-{}-{:x}",
            std::process::id(),
            qsim::rng::stable_hash_str("zombie", &[line!() as u64])
        ));
        // TTL 40 ms: the refresher ticks every 10 ms.
        let claims = JobClaims::open(&dir, 7, "a", Duration::from_millis(40)).unwrap();
        assert!(claims.try_claim(1));
        let _hb = claims.heartbeat(1);
        claims.release(1);
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !claims.claim_path(1).exists(),
            "a refresher tick after release recreated the claim"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_journals_merge_with_the_base_journal() {
        let dir = std::env::temp_dir().join(format!(
            "digiq-store-shards-{}-{:x}",
            std::process::id(),
            qsim::rng::stable_hash_str("shards", &[line!() as u64])
        ));
        let base = SweepJournal::open(&dir, 5).unwrap();
        base.append(0, &Json::Num(10.0));
        let w0 = SweepJournal::open_shard(&dir, 5, "w0").unwrap();
        w0.append(2, &Json::Num(12.0));
        let w1 = SweepJournal::open_shard(&dir, 5, "w1").unwrap();
        w1.append(1, &Json::Num(11.0));
        // A different spec's journal is invisible to this spec's merge.
        SweepJournal::open_shard(&dir, 6, "w0")
            .unwrap()
            .append(9, &Json::Num(99.0));
        let mut merged = SweepJournal::load_all(&dir, 5);
        merged.sort_by_key(|(i, _)| *i);
        assert_eq!(
            merged,
            vec![
                (0, Json::Num(10.0)),
                (1, Json::Num(11.0)),
                (2, Json::Num(12.0)),
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn content_keys_discriminate() {
        let mut keys = vec![
            hardware_key(ControllerDesign::SfqMimdNaive, 1),
            hardware_key(ControllerDesign::SfqMimdNaive, 2),
            hardware_key(ControllerDesign::SfqMimdDecomp, 1),
            hardware_key(ControllerDesign::DigiqMin { bs: 2 }, 2),
            hardware_key(ControllerDesign::DigiqMin { bs: 4 }, 2),
            hardware_key(ControllerDesign::DigiqOpt { bs: 4 }, 2),
            basis_kind_key(MinBasisKind::IdealRyT),
            basis_kind_key(MinBasisKind::Rich4),
        ];
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 8, "all content keys distinct");
        assert_eq!(
            hardware_key(ControllerDesign::DigiqOpt { bs: 8 }, 2),
            hardware_key(ControllerDesign::DigiqOpt { bs: 8 }, 2)
        );
    }
}
