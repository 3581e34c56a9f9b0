//! The content-addressed artifact store.
//!
//! An **artifact** is everything the pipeline produces for one compilation
//! unit: the linked binary, the translation-validator verdict it was
//! accepted under, and its WCET report. Artifacts are addressed by a
//! [`Digest`] of everything that determines them — the generated source
//! text, the entry point, the exact [`PassConfig`], the full
//! [`MachineConfig`], and the toolchain generation stamps
//! ([`FORMAT_VERSION`], [`vericomp_dataflow::SYMBOL_LIBRARY_VERSION`]) —
//! so a hit is a proof-carrying replay, never a guess.
//!
//! **Correctness invariant (paper §3.5 / translation validation):** an
//! artifact is only ever inserted *after* its translation validators
//! accepted the compilation — the compiler fails closed on rejection, so a
//! stored binary carries the same credibility token as a fresh one. Cache
//! hits replay the stored [`Verdict`] instead of re-running the
//! validators; the [`Artifact::key`] ties that verdict to the exact inputs.
//!
//! Persistence is a directory of `<digest-hex>.vcart` files in a plain
//! line-oriented text format (no serde in the workspace). Instructions are
//! stored as the *encoded* 32-bit words and decoded on load through the
//! same `decode` the WCET analyzer uses, so a disk round-trip exercises
//! the tested binary round-trip path. Unreadable, truncated or
//! version-skewed files are treated as misses, never as errors.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use vericomp_arch::encode::encode;
use vericomp_arch::program::{
    AnnotationEntry, ArgLoc, DataValue, ElemTy, FuncSym, GlobalSym, Program,
};
use vericomp_arch::reg::{Fpr, Gpr};
use vericomp_arch::MachineConfig;
use vericomp_core::PassConfig;
use vericomp_minic::ast::Program as MinicProgram;
use vericomp_wcet::WcetReport;

use crate::hash::{Digest, Hasher};

/// Version stamp of the cache key derivation *and* the on-disk artifact
/// format. Bump it whenever either changes — stale files then simply stop
/// hitting.
pub const FORMAT_VERSION: u32 = 1;

/// Digest of a machine configuration (every field).
#[must_use]
pub fn machine_digest(config: &MachineConfig) -> Digest {
    let mut h = Hasher::new();
    for field in config.fields() {
        h.u32(field);
    }
    Digest(h.finish())
}

/// The content-addressed cache key of one compilation unit.
///
/// `source` is the pretty-printed MiniC translation unit — the compiler's
/// exact input, which makes the key insensitive to *how* the unit was
/// produced (hand-written, node codegen, application linking) and
/// sensitive to *any* change in what gets compiled.
#[must_use]
pub fn artifact_key(
    source: &str,
    entry: &str,
    passes: &PassConfig,
    config: &MachineConfig,
) -> Digest {
    let mut h = Hasher::new();
    h.u32(FORMAT_VERSION)
        .u32(vericomp_dataflow::SYMBOL_LIBRARY_VERSION)
        .str(source)
        .str(entry);
    for flag in passes.flags() {
        h.bool(flag);
    }
    let machine = machine_digest(config);
    h.u64(machine.0 as u64).u64((machine.0 >> 64) as u64);
    Digest(h.finish())
}

/// The content identity of one canonical (pretty-printed) MiniC source
/// text — how a wire sweep names its units (and the server's `need`
/// answer the bodies it lacks), and the address of the store's parse
/// cache.
///
/// Deliberately keyed on the text alone (no entry, passes or machine):
/// one parsed AST serves every cell the unit appears in, whatever the
/// other axes say.
#[must_use]
pub fn source_digest(canonical: &str) -> Digest {
    let mut h = Hasher::new();
    h.str(canonical);
    Digest(h.finish())
}

/// One parse-cache entry: the canonical source text and the AST parsed
/// from it, both shared.
///
/// Invariant: `ast` is exactly `parse(&canonical)` and — because
/// parse∘pretty is identity on ASTs (`tests/parser_roundtrip.rs`) —
/// `program_to_c(&ast) == *canonical`. That makes `canonical` valid
/// [`artifact_key`] material for any cell built from `ast`, which is
/// what lets the daemon skip both the parse and the pretty-print on
/// warm requests without perturbing a single cache key.
#[derive(Debug, Clone)]
pub struct ParsedUnit {
    /// The canonical pretty-printed source (the digest preimage).
    pub canonical: Arc<String>,
    /// The AST parsed from `canonical`.
    pub ast: Arc<MinicProgram>,
}

/// The translation-validation verdict an artifact was accepted under.
///
/// Derived from the [`PassConfig`] the unit compiled with: the allocation
/// checker runs unconditionally (the backend's safety net), the tunneling
/// and scheduling validators run when the corresponding pass ran with
/// `validators` set. A cache hit replays this verdict instead of
/// re-validating — sound because the key covers every compilation input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The register-allocation checker accepted (always runs).
    pub allocation_checked: bool,
    /// The branch-tunneling validator ran and accepted.
    pub tunnel_validated: bool,
    /// The list-scheduling validator ran and accepted.
    pub schedule_validated: bool,
}

impl Verdict {
    /// The verdict implied by a successful compilation under `passes`.
    #[must_use]
    pub fn from_passes(passes: &PassConfig) -> Verdict {
        Verdict {
            allocation_checked: true,
            tunnel_validated: passes.tunnel && passes.validators,
            schedule_validated: passes.schedule && passes.validators,
        }
    }

    /// Human-readable form, e.g. `allocation+tunnel validated`.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if self.allocation_checked {
            parts.push("allocation");
        }
        if self.tunnel_validated {
            parts.push("tunnel");
        }
        if self.schedule_validated {
            parts.push("schedule");
        }
        format!("{} validated", parts.join("+"))
    }
}

/// One cached compilation product: binary + verdict + WCET report.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The content-addressed key this artifact was stored under.
    pub key: Digest,
    /// Entry-point function name.
    pub entry: String,
    /// Display label of the configuration (e.g. `verified`).
    pub label: String,
    /// The linked binary.
    pub program: Program,
    /// The validator verdict the compilation was accepted under.
    pub verdict: Verdict,
    /// The static WCET report of `entry`.
    pub report: WcetReport,
}

impl Artifact {
    /// The artifact's size in bytes in the `.vcart` wire/disk encoding —
    /// the unit of the store's byte accounting. Deterministic: the
    /// encoding is a pure function of the artifact.
    #[must_use]
    pub fn encoded_len(&self) -> u64 {
        let mut count = ByteCount(0);
        write_artifact(self, &mut count).expect("counting bytes cannot fail");
        count.0
    }

    /// A digest of the artifact's *outputs* (encoded text, annotation
    /// table, WCET bound) — used by determinism gates to compare serial
    /// and parallel builds bit-for-bit.
    #[must_use]
    pub fn output_digest(&self) -> Digest {
        let mut h = Hasher::new();
        h.str(&self.entry).str(&self.label);
        for w in self.program.encode_text() {
            h.u32(w);
        }
        for a in &self.program.annotations {
            h.u32(u32::from(a.id)).str(&a.resolved_text());
        }
        h.u64(self.report.wcet);
        for (addr, bound) in &self.report.loop_bounds {
            h.u32(*addr).u64(*bound);
        }
        for (name, w) in &self.report.callees {
            h.str(name).u64(*w);
        }
        Digest(h.finish())
    }
}

/// Construction parameters of an [`ArtifactStore`].
///
/// The defaults give a memory-only store with no artifact bound and a
/// [`DEFAULT_PARSE_BYTES`](StoreConfig::DEFAULT_PARSE_BYTES) parse cache.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Cache directory for `.vcart` persistence (`None` = memory only).
    pub dir: Option<PathBuf>,
    /// Resident-byte bound of the artifact map (`None` = unbounded).
    /// Enforced by [`ArtifactStore::enforce_bounds`], not inline on
    /// insert — callers pick the batch boundaries at which eviction may
    /// run, which keeps eviction order deterministic under concurrency.
    pub max_bytes: Option<u64>,
    /// Resident-byte bound of the parse cache (canonical source text is
    /// what gets accounted — the AST rides along, so this is a proxy
    /// bound, documented as such). `None` = unbounded; the default keeps
    /// a long-lived daemon from growing without limit.
    pub parse_bytes: Option<u64>,
}

impl StoreConfig {
    /// Default parse-cache bound: 64 MiB of canonical source text.
    pub const DEFAULT_PARSE_BYTES: u64 = 64 << 20;
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            dir: None,
            max_bytes: None,
            parse_bytes: Some(StoreConfig::DEFAULT_PARSE_BYTES),
        }
    }
}

/// One resident value plus its accounting metadata.
struct Entry<V> {
    value: V,
    /// Accounted size: the `.vcart` encoding for an artifact
    /// ([`Artifact::encoded_len`]), the canonical text for a parsed unit.
    bytes: u64,
    /// Epoch stamp of the last touch (hit or insert). All touches within
    /// one batch carry the same stamp, so eviction order is invariant to
    /// thread interleaving inside the batch.
    stamp: u64,
}

/// The store's one cache mechanism: a digest-keyed, byte-counted,
/// epoch-stamped map with deterministic eviction. The artifact map and
/// the parse cache are two instances, each with its own byte bound and
/// eviction counter.
struct BoundedMap<V> {
    entries: BTreeMap<u128, Entry<V>>,
    bytes: u64,
    max_bytes: Option<u64>,
    evictions: u64,
}

impl<V> BoundedMap<V> {
    fn new(max_bytes: Option<u64>) -> BoundedMap<V> {
        BoundedMap {
            entries: BTreeMap::new(),
            bytes: 0,
            max_bytes,
            evictions: 0,
        }
    }

    /// The value under `key`, stamped with `epoch` on a hit (a hit is a
    /// touch — entries in active use survive eviction pressure).
    fn touch(&mut self, key: u128, epoch: u64) -> Option<&V> {
        self.entries.get_mut(&key).map(|e| {
            e.stamp = epoch;
            &e.value
        })
    }

    /// Inserts `value` under `key`, stamped with `epoch`. Replacing a
    /// resident key swaps its bytes, never double-counts them.
    fn insert(&mut self, key: u128, value: V, bytes: u64, epoch: u64) {
        let entry = Entry {
            value,
            bytes,
            stamp: epoch,
        };
        if let Some(old) = self.entries.insert(key, entry) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
    }

    /// Evicts entries in ascending `(stamp, key)` order — least-recent
    /// batch first, key order breaking ties — until the map fits its
    /// bound, and returns the evicted keys. The order is a pure function
    /// of the resident set and its stamps, so the post-eviction contents
    /// are reproducible. A no-op without a bound.
    fn evict(&mut self) -> Vec<u128> {
        let Some(max_bytes) = self.max_bytes.filter(|&max| self.bytes > max) else {
            return Vec::new();
        };
        let mut order: Vec<(u64, u128)> = self.entries.iter().map(|(k, e)| (e.stamp, *k)).collect();
        order.sort_unstable();
        let mut evicted = Vec::new();
        for (_, key) in order {
            if self.bytes <= max_bytes {
                break;
            }
            let entry = self.entries.remove(&key).expect("victim resident");
            self.bytes -= entry.bytes;
            evicted.push(key);
        }
        self.evictions += evicted.len() as u64;
        evicted
    }
}

/// The artifact store: an in-memory artifact map, optionally backed by a
/// cache directory so repeated runs are warm, plus the parse cache. Both
/// maps are optionally size-bounded with deterministic LRU-style
/// eviction.
pub struct ArtifactStore {
    dir: Option<PathBuf>,
    /// Resident artifacts by [`artifact_key`].
    artifacts: Mutex<BoundedMap<Arc<Artifact>>>,
    /// Parsed sources by [`source_digest`] — the daemon's "parse once per
    /// digest" cache, stamped by the same epoch as the artifacts.
    parsed: Mutex<BoundedMap<ParsedUnit>>,
    /// Batch-granular logical clock: callers advance it once per batch
    /// (the daemon does so before every `run_sweep`), and every touch in
    /// between is stamped with the same value.
    epoch: AtomicU64,
}

impl fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let artifacts = self.artifacts();
        f.debug_struct("ArtifactStore")
            .field("dir", &self.dir)
            .field("entries", &artifacts.entries.len())
            .field("bytes", &artifacts.bytes)
            .field("max_bytes", &artifacts.max_bytes)
            .finish()
    }
}

impl ArtifactStore {
    /// A store without disk persistence (process-lifetime cache).
    #[must_use]
    pub fn in_memory() -> ArtifactStore {
        ArtifactStore::with_config(StoreConfig::default()).expect("memory store cannot fail")
    }

    /// A store persisted under `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn persistent(dir: impl Into<PathBuf>) -> io::Result<ArtifactStore> {
        ArtifactStore::with_config(StoreConfig {
            dir: Some(dir.into()),
            ..StoreConfig::default()
        })
    }

    /// A store built from explicit [`StoreConfig`] parameters.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures when persistent.
    pub fn with_config(config: StoreConfig) -> io::Result<ArtifactStore> {
        if let Some(dir) = &config.dir {
            fs::create_dir_all(dir)?;
        }
        Ok(ArtifactStore {
            dir: config.dir,
            artifacts: Mutex::new(BoundedMap::new(config.max_bytes)),
            parsed: Mutex::new(BoundedMap::new(config.parse_bytes)),
            epoch: AtomicU64::new(0),
        })
    }

    fn artifacts(&self) -> MutexGuard<'_, BoundedMap<Arc<Artifact>>> {
        self.artifacts.lock().expect("store lock")
    }

    fn parsed(&self) -> MutexGuard<'_, BoundedMap<ParsedUnit>> {
        self.parsed.lock().expect("parse lock")
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The backing directory, if persistent.
    #[must_use]
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Number of artifacts currently resident in memory.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.artifacts().entries.len()
    }

    /// Total resident size in `.vcart`-encoded bytes.
    #[must_use]
    pub fn len_bytes(&self) -> u64 {
        self.artifacts().bytes
    }

    /// Number of artifacts evicted over the store's lifetime.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.artifacts().evictions
    }

    /// Advances the batch epoch. Call at a batch boundary (e.g. before
    /// each daemon `run_sweep`): every lookup hit and insert until the
    /// next call is stamped with the new epoch, so recency is counted
    /// per *batch*, not per thread-interleaved touch — the precondition
    /// for deterministic eviction order.
    pub fn advance_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// A digest of the resident key set, independent of the order
    /// entries were touched within any batch. Two stores that hold the
    /// same artifacts agree.
    #[must_use]
    pub fn store_digest(&self) -> Digest {
        let artifacts = self.artifacts();
        let mut h = Hasher::new();
        h.u64(artifacts.entries.len() as u64);
        for &k in artifacts.entries.keys() {
            h.u64(k as u64).u64((k >> 64) as u64);
        }
        Digest(h.finish())
    }

    /// Evicts until both maps fit their bounds, each in ascending
    /// `(stamp, key)` order. Evicted artifacts also lose their `.vcart`
    /// file (a later request recompiles, and the determinism gates prove
    /// it recompiles to the identical digest); the parse cache is purely
    /// in-memory and counted separately, so
    /// [`evictions`](ArtifactStore::evictions) keeps meaning artifact
    /// evictions only. Returns the number of artifacts evicted.
    pub fn enforce_bounds(&self) -> u64 {
        let evicted = {
            let mut artifacts = self.artifacts();
            let victims = artifacts.evict();
            for &key in &victims {
                if let Some(path) = self.path_of(Digest(key)) {
                    let _ = fs::remove_file(path);
                }
            }
            victims.len() as u64
        };
        self.parsed().evict();
        evicted
    }

    /// Looks a parsed unit up by source digest, stamping it with the
    /// current epoch on a hit.
    #[must_use]
    pub fn parse_lookup(&self, digest: Digest) -> Option<ParsedUnit> {
        let epoch = self.epoch();
        self.parsed().touch(digest.0, epoch).cloned()
    }

    /// Inserts a parsed unit under its source digest. The caller must
    /// guarantee `digest == source_digest(&unit.canonical)` — the wire
    /// decoder verifies uploaded bodies against their declared digest
    /// before anything reaches here.
    pub fn parse_insert(&self, digest: Digest, unit: ParsedUnit) {
        debug_assert_eq!(digest, source_digest(&unit.canonical));
        let bytes = unit.canonical.len() as u64;
        let epoch = self.epoch();
        self.parsed().insert(digest.0, unit, bytes, epoch);
    }

    /// Number of parsed units currently resident.
    #[must_use]
    pub fn parse_resident(&self) -> usize {
        self.parsed().entries.len()
    }

    /// Resident parse-cache size (canonical text bytes).
    #[must_use]
    pub fn parse_len_bytes(&self) -> u64 {
        self.parsed().bytes
    }

    /// Parse-cache entries evicted over the store's lifetime.
    #[must_use]
    pub fn parse_evictions(&self) -> u64 {
        self.parsed().evictions
    }

    fn path_of(&self, key: Digest) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{key}.vcart")))
    }

    /// Looks an artifact up by key: memory first, then the cache
    /// directory. `config` rebuilds the program container on a disk hit
    /// and is checked against the stored machine digest; any mismatch or
    /// parse failure is a miss. A hit refreshes the entry's epoch stamp.
    #[must_use]
    pub fn lookup(&self, key: Digest, config: &MachineConfig) -> Option<Arc<Artifact>> {
        let epoch = self.epoch();
        if let Some(hit) = self.artifacts().touch(key.0, epoch) {
            return Some(Arc::clone(hit));
        }
        let path = self.path_of(key)?;
        let text = fs::read_to_string(path).ok()?;
        let artifact = decode_artifact(&text, config)?;
        if artifact.key != key {
            return None;
        }
        let artifact = Arc::new(artifact);
        self.artifacts()
            .insert(key.0, Arc::clone(&artifact), text.len() as u64, epoch);
        Some(artifact)
    }

    /// Inserts a **validated** artifact (memory + disk when persistent).
    ///
    /// Callers must uphold the store invariant: only artifacts whose
    /// compilation the translation validators accepted may be inserted —
    /// the pipeline service only reaches this call on the success path of
    /// `compile_with_passes`, which fails closed on rejection.
    ///
    /// # Errors
    ///
    /// Propagates disk-write failures (the in-memory insert still
    /// happened).
    pub fn insert(&self, artifact: Artifact) -> io::Result<Arc<Artifact>> {
        debug_assert!(artifact.verdict.allocation_checked);
        let key = artifact.key;
        // a memory-only store accounts the encoding's length without
        // rendering its text
        let file = self
            .path_of(key)
            .map(|path| (path, encode_artifact(&artifact)));
        let bytes = file
            .as_ref()
            .map_or_else(|| artifact.encoded_len(), |(_, text)| text.len() as u64);
        let artifact = Arc::new(artifact);
        self.artifacts()
            .insert(key.0, Arc::clone(&artifact), bytes, self.epoch());
        if let Some((path, text)) = file {
            // Write-then-rename keeps concurrent readers (other build
            // processes sharing the directory) away from torn files.
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            fs::write(&tmp, text)?;
            fs::rename(&tmp, &path)?;
        }
        Ok(artifact)
    }
}

// ---------------------------------------------------------------------------
// on-disk format
// ---------------------------------------------------------------------------

fn elem_name(e: ElemTy) -> &'static str {
    match e {
        ElemTy::I32 => "i32",
        ElemTy::F64 => "f64",
    }
}

fn parse_elem(s: &str) -> Option<ElemTy> {
    match s {
        "i32" => Some(ElemTy::I32),
        "f64" => Some(ElemTy::F64),
        _ => None,
    }
}

fn write_argloc(a: &ArgLoc, out: &mut impl fmt::Write) -> fmt::Result {
    match a {
        ArgLoc::Gpr(r) => write!(out, "g{}", r.index()),
        ArgLoc::Fpr(r) => write!(out, "f{}", r.index()),
        ArgLoc::Stack(off, e) => write!(out, "s{off}:{}", elem_name(*e)),
        ArgLoc::Global(addr, e) => write!(out, "m{addr}:{}", elem_name(*e)),
    }
}

fn parse_argloc(s: &str) -> Option<ArgLoc> {
    let mut chars = s.chars();
    let tag = chars.next()?;
    let rest = chars.as_str();
    match tag {
        'g' => Some(ArgLoc::Gpr(Gpr::try_new(rest.parse().ok()?)?)),
        'f' => Some(ArgLoc::Fpr(Fpr::try_new(rest.parse().ok()?)?)),
        's' => {
            let (off, e) = rest.split_once(':')?;
            Some(ArgLoc::Stack(off.parse().ok()?, parse_elem(e)?))
        }
        'm' => {
            let (addr, e) = rest.split_once(':')?;
            Some(ArgLoc::Global(addr.parse().ok()?, parse_elem(e)?))
        }
        _ => None,
    }
}

/// Serializes an artifact to the `.vcart` text format.
#[must_use]
pub fn encode_artifact(a: &Artifact) -> String {
    let mut s = String::new();
    write_artifact(a, &mut s).expect("writing to a String cannot fail");
    s
}

/// A sink that keeps nothing but the number of bytes written to it.
struct ByteCount(u64);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len() as u64;
        Ok(())
    }
}

/// The one `.vcart` writer: [`encode_artifact`] runs it into a `String`,
/// [`Artifact::encoded_len`] into a [`ByteCount`].
fn write_artifact(a: &Artifact, out: &mut impl fmt::Write) -> fmt::Result {
    writeln!(out, "vericomp-artifact {FORMAT_VERSION}")?;
    writeln!(out, "key {}", a.key)?;
    writeln!(out, "machine {}", machine_digest(&a.program.config))?;
    writeln!(out, "entry {}", a.entry)?;
    writeln!(out, "label {}", a.label)?;
    writeln!(
        out,
        "verdict alloc={} tunnel={} sched={}",
        u8::from(a.verdict.allocation_checked),
        u8::from(a.verdict.tunnel_validated),
        u8::from(a.verdict.schedule_validated),
    )?;
    writeln!(out, "wcet {}", a.report.wcet)?;
    writeln!(out, "blocks {}", a.report.block_count)?;
    for (addr, bound) in &a.report.loop_bounds {
        writeln!(out, "loopbound {addr} {bound}")?;
    }
    for (name, w) in &a.report.callees {
        writeln!(out, "callee {w} {name}")?;
    }
    for (addr, cost) in &a.report.block_costs {
        writeln!(out, "blockcost {addr} {cost}")?;
    }
    writeln!(out, "prog-entry {}", a.program.entry)?;
    writeln!(out, "constpool {}", a.program.const_pool_base)?;
    writeln!(out, "sda {}", a.program.sda_base)?;
    // the encoded text words, eight to a line
    let code = &a.program.code;
    writeln!(out, "code {}", code.len())?;
    for (i, inst) in code.iter().enumerate() {
        let word = encode(inst, a.program.addr_of(i));
        let end = if i % 8 == 7 || i + 1 == code.len() {
            '\n'
        } else {
            ' '
        };
        write!(out, "{word:08x}{end}")?;
    }
    for f in &a.program.functions {
        writeln!(out, "func {} {} {}", f.entry, f.len_words, f.name)?;
    }
    for g in &a.program.globals {
        writeln!(
            out,
            "globalsym {} {} {} {}",
            g.addr,
            elem_name(g.elem),
            g.len,
            g.name
        )?;
    }
    for (addr, value) in &a.program.data {
        match value {
            DataValue::I32(v) => writeln!(out, "data {addr} i32 {v}")?,
            DataValue::F64(v) => writeln!(out, "data {addr} f64 {:016x}", v.to_bits())?,
        }
    }
    for ann in &a.program.annotations {
        write!(out, "annot {} {} ", ann.id, ann.args.len())?;
        for loc in &ann.args {
            write_argloc(loc, out)?;
            out.write_char(' ')?;
        }
        writeln!(out, "| {}", ann.format)?;
    }
    out.write_str("end\n")
}

/// Parses a `.vcart` document against a machine configuration. Returns
/// `None` on any malformation or on a machine-digest mismatch — corrupt
/// cache files degrade to misses.
#[must_use]
pub fn decode_artifact(text: &str, config: &MachineConfig) -> Option<Artifact> {
    let mut lines = text.lines();
    let header = lines.next()?;
    if header != format!("vericomp-artifact {FORMAT_VERSION}") {
        return None;
    }
    let mut key = None;
    let mut entry = None;
    let mut label = None;
    let mut verdict = None;
    let mut wcet = None;
    let mut block_count = 0usize;
    let mut loop_bounds = BTreeMap::new();
    let mut callees = BTreeMap::new();
    let mut block_costs = BTreeMap::new();
    let mut prog_entry = None;
    let mut const_pool_base = None;
    let mut sda_base = None;
    let mut code: Option<Vec<u32>> = None;
    let mut functions = Vec::new();
    let mut globals = Vec::new();
    let mut data = BTreeMap::new();
    let mut annotations = Vec::new();
    let mut saw_end = false;

    while let Some(line) = lines.next() {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        match tag {
            "key" => key = Digest::from_hex(rest),
            "machine" => {
                if Digest::from_hex(rest)? != machine_digest(config) {
                    return None;
                }
            }
            "entry" => entry = Some(rest.to_owned()),
            "label" => label = Some(rest.to_owned()),
            "verdict" => {
                // exactly `alloc=B tunnel=B sched=B`, each B `0` or `1`
                let mut parts = rest.split(' ');
                let mut flag = |name: &str| match parts.next()?.strip_prefix(name)? {
                    "=0" => Some(false),
                    "=1" => Some(true),
                    _ => None,
                };
                verdict = Some(Verdict {
                    allocation_checked: flag("alloc")?,
                    tunnel_validated: flag("tunnel")?,
                    schedule_validated: flag("sched")?,
                });
                if parts.next().is_some() {
                    return None;
                }
            }
            "wcet" => wcet = rest.parse().ok(),
            "blocks" => block_count = rest.parse().ok()?,
            "loopbound" => {
                let (addr, bound) = rest.split_once(' ')?;
                loop_bounds.insert(addr.parse().ok()?, bound.parse().ok()?);
            }
            "callee" => {
                let (w, name) = rest.split_once(' ')?;
                callees.insert(name.to_owned(), w.parse().ok()?);
            }
            "blockcost" => {
                let (addr, cost) = rest.split_once(' ')?;
                block_costs.insert(addr.parse().ok()?, cost.parse().ok()?);
            }
            "prog-entry" => prog_entry = rest.parse().ok(),
            "constpool" => const_pool_base = rest.parse().ok(),
            "sda" => sda_base = rest.parse().ok(),
            "code" => {
                let n: usize = rest.parse().ok()?;
                // the count is untrusted: a huge one must not preallocate
                let mut words = Vec::with_capacity(n.min(1 << 16));
                while words.len() < n {
                    let line = lines.next()?;
                    for w in line.split(' ') {
                        words.push(u32::from_str_radix(w, 16).ok()?);
                    }
                }
                if words.len() != n {
                    return None;
                }
                code = Some(words);
            }
            "func" => {
                let mut it = rest.splitn(3, ' ');
                let entry = it.next()?.parse().ok()?;
                let len_words = it.next()?.parse().ok()?;
                let name = it.next()?.to_owned();
                functions.push(FuncSym {
                    name,
                    entry,
                    len_words,
                });
            }
            "globalsym" => {
                let mut it = rest.splitn(4, ' ');
                let addr = it.next()?.parse().ok()?;
                let elem = parse_elem(it.next()?)?;
                let len = it.next()?.parse().ok()?;
                let name = it.next()?.to_owned();
                globals.push(GlobalSym {
                    name,
                    addr,
                    elem,
                    len,
                });
            }
            "data" => {
                let mut it = rest.splitn(3, ' ');
                let addr: u32 = it.next()?.parse().ok()?;
                let kind = it.next()?;
                let value = it.next()?;
                let value = match kind {
                    "i32" => DataValue::I32(value.parse().ok()?),
                    "f64" => DataValue::F64(f64::from_bits(u64::from_str_radix(value, 16).ok()?)),
                    _ => return None,
                };
                data.insert(addr, value);
            }
            "annot" => {
                let (head, format) = rest.split_once('|')?;
                let mut it = head.split_whitespace();
                let id: u16 = it.next()?.parse().ok()?;
                let nargs: usize = it.next()?.parse().ok()?;
                let args: Vec<ArgLoc> = it.map(parse_argloc).collect::<Option<_>>()?;
                if args.len() != nargs {
                    return None;
                }
                annotations.push(AnnotationEntry {
                    id,
                    format: format.strip_prefix(' ').unwrap_or(format).to_owned(),
                    args,
                });
            }
            "end" => {
                saw_end = true;
                break;
            }
            _ => return None,
        }
    }
    if !saw_end {
        return None;
    }

    let words = code?;
    // every function must lie word-aligned inside the text: the analyzer
    // indexes the code by these ranges
    let text_words = u32::try_from(words.len()).ok()?;
    for f in &functions {
        let offset = f.entry.checked_sub(config.text_base)?;
        if offset % 4 != 0 || (offset / 4).checked_add(f.len_words)? > text_words {
            return None;
        }
    }
    let insts = Program::decode_text(config, &words).ok()?;
    let program = Program {
        config: config.clone(),
        code: insts,
        entry: prog_entry?,
        functions,
        globals,
        data,
        const_pool_base: const_pool_base?,
        sda_base: sda_base?,
        annotations,
    };
    Some(Artifact {
        key: key?,
        entry: entry?,
        label: label?,
        program,
        verdict: verdict?,
        report: WcetReport {
            wcet: wcet?,
            loop_bounds,
            block_count,
            callees,
            block_costs,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vericomp_core::{Compiler, OptLevel};
    use vericomp_minic::ast::{Binop, Expr, Function, Global, GlobalDef, Program as Src, Stmt};

    fn small_src() -> Src {
        let gf = |name: &str| Global {
            name: name.into(),
            def: GlobalDef::ScalarF64(None),
        };
        Src {
            globals: vec![gf("in1"), gf("in2"), gf("out")],
            functions: vec![Function {
                name: "step".into(),
                params: vec![],
                ret: None,
                locals: vec![],
                body: vec![Stmt::Assign(
                    "out".into(),
                    Expr::binop(Binop::AddF, Expr::var("in1"), Expr::var("in2")),
                )],
            }],
        }
    }

    fn small_artifact() -> Artifact {
        let src = small_src();
        let passes = PassConfig::for_level(OptLevel::Verified);
        let config = MachineConfig::mpc755();
        let program = Compiler::new(OptLevel::Verified)
            .compile(&src, "step")
            .expect("compiles");
        let report = vericomp_wcet::Analyzer::default()
            .analyze(&vericomp_wcet::AnalysisRequest::new(&program, "step"))
            .expect("analyzes")
            .report;
        let source = vericomp_minic::pretty::program_to_c(&src);
        Artifact {
            key: artifact_key(&source, "step", &passes, &config),
            entry: "step".into(),
            label: "verified".into(),
            program,
            verdict: Verdict::from_passes(&passes),
            report,
        }
    }

    #[test]
    fn artifact_text_roundtrip_is_lossless() {
        let a = small_artifact();
        let text = encode_artifact(&a);
        let b = decode_artifact(&text, &MachineConfig::mpc755()).expect("parses");
        assert_eq!(a.key, b.key);
        assert_eq!(a.entry, b.entry);
        assert_eq!(a.program.code, b.program.code);
        assert_eq!(a.program.functions, b.program.functions);
        assert_eq!(a.program.globals, b.program.globals);
        assert_eq!(a.program.annotations, b.program.annotations);
        assert_eq!(a.report.wcet, b.report.wcet);
        assert_eq!(a.report.callees, b.report.callees);
        assert_eq!(a.output_digest(), b.output_digest());
        // data section compares via bits (may hold f64 NaNs in general)
        assert_eq!(a.program.data.len(), b.program.data.len());
    }

    #[test]
    fn corrupt_or_skewed_files_degrade_to_misses() {
        let a = small_artifact();
        let text = encode_artifact(&a);
        let config = MachineConfig::mpc755();
        // truncation
        assert!(decode_artifact(&text[..text.len() / 2], &config).is_none());
        // version skew
        let skewed = text.replace("vericomp-artifact 1", "vericomp-artifact 999");
        assert!(decode_artifact(&skewed, &config).is_none());
        // machine mismatch
        assert!(decode_artifact(&text, &MachineConfig::tiny_caches()).is_none());
        // garbage
        assert!(decode_artifact("not an artifact", &config).is_none());
        // hostile lines that must be misses, not panics: a fourth verdict
        // field, a code count too large to preallocate, an annotation
        // argument starting with a multi-byte character, and function
        // table entries the analyzer would index the code with (a length
        // running past the text, an entry below it)
        let line = |tag: &str| {
            let line = text.lines().find(|l| l.starts_with(tag)).expect("line");
            format!("\n{line}\n")
        };
        let verdict = line("verdict ");
        let code = line("code ");
        let func = line("func ");
        let fields: Vec<&str> = func.trim().splitn(4, ' ').collect();
        let (entry, len, name) = (fields[1], fields[2], fields[3]);
        for hostile in [
            text.replace(&verdict, &format!("{} extra=1\n", verdict.trim_end())),
            text.replace(&code, &format!("\ncode {}\n", usize::MAX)),
            text.replace("\nend\n", "\nannot 1 1 \u{e9}1 | %1\nend\n"),
            text.replace(&func, &format!("\nfunc {entry} 999999 {name}\n")),
            text.replace(&func, &format!("\nfunc 4 {len} {name}\n")),
        ] {
            assert_ne!(hostile, text);
            assert!(decode_artifact(&hostile, &config).is_none());
        }
    }

    #[test]
    fn persistent_store_roundtrips_and_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("vericomp-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = small_artifact();
        let key = a.key;
        let config = MachineConfig::mpc755();
        {
            let store = ArtifactStore::persistent(&dir).expect("creates dir");
            assert!(store.lookup(key, &config).is_none());
            store.insert(a.clone()).expect("writes");
            assert!(store.lookup(key, &config).is_some());
        }
        // a fresh store (fresh process, conceptually) reads it back
        let store = ArtifactStore::persistent(&dir).expect("opens dir");
        let hit = store.lookup(key, &config).expect("disk hit");
        assert_eq!(hit.output_digest(), a.output_digest());
        assert_eq!(hit.verdict, a.verdict);
        // corrupting the file degrades to a miss
        let path = dir.join(format!("{key}.vcart"));
        fs::write(&path, "garbage").expect("overwrite");
        let store = ArtifactStore::persistent(&dir).expect("opens dir");
        assert!(store.lookup(key, &config).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A distinct artifact per index: entry name and source both vary,
    /// so keys, encodings and sizes differ.
    fn artifact_named(i: usize) -> Artifact {
        let gf = |name: &str| Global {
            name: name.into(),
            def: GlobalDef::ScalarF64(None),
        };
        let entry = format!("step{i}");
        let src = Src {
            globals: (0..=i % 3)
                .map(|g| gf(&format!("in{g}")))
                .chain([gf("out")])
                .collect(),
            functions: vec![Function {
                name: entry.clone(),
                params: vec![],
                ret: None,
                locals: vec![],
                body: vec![Stmt::Assign(
                    "out".into(),
                    Expr::binop(Binop::AddF, Expr::var("in0"), Expr::var("in0")),
                )],
            }],
        };
        let passes = PassConfig::for_level(OptLevel::Verified);
        let config = MachineConfig::mpc755();
        let program = Compiler::new(OptLevel::Verified)
            .compile(&src, &entry)
            .expect("compiles");
        let report = vericomp_wcet::Analyzer::default()
            .analyze(&vericomp_wcet::AnalysisRequest::new(&program, &entry))
            .expect("analyzes")
            .report;
        let source = vericomp_minic::pretty::program_to_c(&src);
        Artifact {
            key: artifact_key(&source, &entry, &passes, &config),
            entry,
            label: "verified".into(),
            program,
            verdict: Verdict::from_passes(&passes),
            report,
        }
    }

    #[test]
    fn byte_accounting_matches_encoded_sizes() {
        let store = ArtifactStore::in_memory();
        assert_eq!(store.len_bytes(), 0);
        let mut expected = 0u64;
        for i in 0..4 {
            let a = artifact_named(i);
            expected += a.encoded_len();
            store.insert(a).expect("inserts");
        }
        assert_eq!(store.resident(), 4);
        assert_eq!(store.len_bytes(), expected);
        // re-inserting an existing key replaces, never double-counts
        store.insert(artifact_named(2)).expect("re-inserts");
        assert_eq!(store.resident(), 4);
        assert_eq!(store.len_bytes(), expected);

        // the byte counter and the text are one writer's two sinks: they
        // agree on every suite artifact (multi-line code, data sections,
        // annotation tables)
        let spec = crate::sweep::SweepSpec::new()
            .nodes(&vericomp_dataflow::fleet::named_suite())
            .levels([OptLevel::PatternO0, OptLevel::OptFull]);
        let sweep = crate::service::Pipeline::in_memory()
            .run_sweep(&spec)
            .expect("suite compiles");
        for cell in sweep.cells() {
            let a = &cell.outcome.artifact;
            assert_eq!(
                a.encoded_len(),
                encode_artifact(a).len() as u64,
                "{} × {}",
                cell.unit,
                cell.config
            );
        }
    }

    #[test]
    fn byte_accounting_counts_disk_reloads() {
        let dir = std::env::temp_dir().join(format!("vericomp-store-bytes-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = artifact_named(0);
        let (key, size) = (a.key, a.encoded_len());
        {
            let store = ArtifactStore::persistent(&dir).expect("creates dir");
            store.insert(a).expect("writes");
        }
        let store = ArtifactStore::persistent(&dir).expect("opens dir");
        assert_eq!(store.len_bytes(), 0);
        store
            .lookup(key, &MachineConfig::mpc755())
            .expect("disk hit");
        assert_eq!(store.len_bytes(), size);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_is_deterministic_and_order_invariant() {
        let artifacts: Vec<Artifact> = (0..6).map(artifact_named).collect();
        let bound = artifacts.iter().map(Artifact::encoded_len).sum::<u64>() / 2;
        let build = |order: &[usize]| {
            let store = ArtifactStore::with_config(StoreConfig {
                max_bytes: Some(bound),
                ..StoreConfig::default()
            })
            .expect("memory store");
            // first batch: artifacts 0..3; second batch: 3..6 — the
            // insertion order *within* a batch must not matter.
            for &i in order.iter().filter(|&&i| i < 3) {
                store.insert(artifacts[i].clone()).expect("inserts");
            }
            store.advance_epoch();
            for &i in order.iter().filter(|&&i| i >= 3) {
                store.insert(artifacts[i].clone()).expect("inserts");
            }
            let evicted = store.enforce_bounds();
            assert!(evicted > 0, "bound at half the total must evict");
            assert_eq!(store.evictions(), evicted);
            assert!(store.len_bytes() <= bound);
            store.store_digest()
        };
        let a = build(&[0, 1, 2, 3, 4, 5]);
        let b = build(&[2, 0, 1, 5, 3, 4]);
        assert_eq!(a, b, "post-eviction digest depends only on batches");
    }

    #[test]
    fn eviction_prefers_older_batches_and_clears_disk() {
        let dir = std::env::temp_dir().join(format!("vericomp-store-evict-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let old = artifact_named(0);
        let fresh = artifact_named(1);
        let bound = old.encoded_len() + fresh.encoded_len() - 1;
        let store = ArtifactStore::with_config(StoreConfig {
            dir: Some(dir.clone()),
            max_bytes: Some(bound),
            ..StoreConfig::default()
        })
        .expect("creates dir");
        store.insert(old.clone()).expect("inserts");
        store.advance_epoch();
        store.insert(fresh.clone()).expect("inserts");
        assert_eq!(store.enforce_bounds(), 1);
        let config = MachineConfig::mpc755();
        // the older batch's entry is gone — memory *and* disk
        assert!(store.lookup(old.key, &config).is_none());
        assert!(!dir.join(format!("{}.vcart", old.key)).exists());
        // the fresh entry survives
        assert!(store.lookup(fresh.key, &config).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The key derivation is the cache's contract with every `.vcart`
    /// already on disk: these values may only change together with a
    /// [`FORMAT_VERSION`] (or symbol-library version) bump.
    #[test]
    fn machine_digests_and_keys_are_pinned() {
        assert_eq!(
            machine_digest(&MachineConfig::mpc755()).to_hex(),
            "7819ab4a38ea49d61b5ad1fc95faec50"
        );
        assert_eq!(
            machine_digest(&MachineConfig::tiny_caches()).to_hex(),
            "d06fe0a2d517767e25c95d0f0c330980"
        );
        let src = "int g;\nvoid step() {\n  g = 1;\n}\n";
        let full = PassConfig::for_level(OptLevel::OptFull);
        assert_eq!(
            artifact_key(src, "step", &full, &MachineConfig::tiny_caches()).to_hex(),
            "c25e61cd4bed4a5e5b3db200faa306f2"
        );
    }

    #[test]
    fn key_separates_source_passes_and_machine() {
        let src = vericomp_minic::pretty::program_to_c(&small_src());
        let verified = PassConfig::for_level(OptLevel::Verified);
        let full = PassConfig::for_level(OptLevel::OptFull);
        let m755 = MachineConfig::mpc755();
        let tiny = MachineConfig::tiny_caches();
        let base = artifact_key(&src, "step", &verified, &m755);
        assert_ne!(base, artifact_key(&src, "step", &full, &m755));
        assert_ne!(base, artifact_key(&src, "step", &verified, &tiny));
        assert_ne!(base, artifact_key(&src, "other", &verified, &m755));
        let mut src2 = src.clone();
        src2.push(' ');
        assert_ne!(base, artifact_key(&src2, "step", &verified, &m755));
        // and the same inputs agree across calls
        assert_eq!(base, artifact_key(&src, "step", &verified, &m755));
    }

    fn parsed_unit_named(i: usize) -> (Digest, ParsedUnit) {
        // distinct single-function programs with canonical = pretty(ast)
        let text = format!("int g{i};\nvoid f{i}() {{ g{i} = {i}; }}");
        let ast = vericomp_minic::parse::parse(&text).expect("parses");
        let canonical = Arc::new(vericomp_minic::pretty::program_to_c(&ast));
        let digest = source_digest(&canonical);
        (
            digest,
            ParsedUnit {
                canonical,
                ast: Arc::new(ast),
            },
        )
    }

    #[test]
    fn parse_cache_hits_touches_and_evicts_by_batch() {
        let units: Vec<(Digest, ParsedUnit)> = (0..4).map(parsed_unit_named).collect();
        let bytes: Vec<u64> = units
            .iter()
            .map(|(_, u)| u.canonical.len() as u64)
            .collect();
        // bound that holds the two most recent units but not all four
        let store = ArtifactStore::with_config(StoreConfig {
            parse_bytes: Some(bytes[2] + bytes[3]),
            ..StoreConfig::default()
        })
        .expect("memory store");
        assert!(store.parse_lookup(units[0].0).is_none());

        // batch 1: all four resident, byte accounting exact
        for (d, u) in &units {
            store.parse_insert(*d, u.clone());
        }
        assert_eq!(store.parse_resident(), 4);
        assert_eq!(store.parse_len_bytes(), bytes.iter().sum::<u64>());
        let hit = store.parse_lookup(units[1].0).expect("hit");
        assert_eq!(*hit.canonical, *units[1].1.canonical);
        // re-insert of a resident digest must not double-count
        store.parse_insert(units[1].0, units[1].1.clone());
        assert_eq!(store.parse_len_bytes(), bytes.iter().sum::<u64>());

        // batch 2 touches units 2 and 3; eviction then prefers batch 1
        store.advance_epoch();
        assert!(store.parse_lookup(units[2].0).is_some());
        assert!(store.parse_lookup(units[3].0).is_some());
        store.enforce_bounds();
        assert_eq!(store.parse_evictions(), 2);
        assert!(store.parse_lookup(units[0].0).is_none());
        assert!(store.parse_lookup(units[1].0).is_none());
        assert!(store.parse_lookup(units[2].0).is_some());
        assert!(store.parse_lookup(units[3].0).is_some());
        // artifact-side counters unaffected
        assert_eq!(store.evictions(), 0);
    }
}
