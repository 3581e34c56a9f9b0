//! # vericomp-pipeline — the parallel compilation service
//!
//! The paper's evaluation compiles and WCET-analyzes dozens of nodes per
//! experiment, and the production setting it models (§2: thousands of
//! generated files per flight-control release) makes compilation
//! *throughput* part of the adoption story. This crate turns the repo's
//! node → binary → WCET pipeline into schedulable, cacheable jobs:
//!
//! * [`pool`] — a std-only [`ThreadPool`]: persistent workers taking
//!   tasks from one FIFO queue, no external crates;
//! * [`hash`] — stable 128-bit content digests ([`Digest`]);
//! * [`store`] — the content-addressed [`ArtifactStore`]: compiled
//!   binaries, translation-validator verdicts and WCET reports keyed by
//!   [`artifact_key`], with optional on-disk persistence;
//! * [`stats`] — [`PipelineStats`] run metrics (jobs run/cached, per-stage
//!   wall time, cache hit rate);
//! * [`service`] — the [`Pipeline`] driver tying them together (the
//!   `compile_fleet` binary lives in the root `vericomp` crate, where it
//!   can also reach the testkit scenario suite);
//! * [`sweep`] — the first-class compile request: a [`SweepSpec`] matrix
//!   of (units × configs × machines) that [`Pipeline::run_sweep`] runs as
//!   one pool task per cell with full cross-cell cache reuse, returning a
//!   [`SweepResult`] with indexed lookup and per-axis aggregation;
//! * [`search`] — the closed-loop optimizer on top of the sweeps:
//!   [`Pipeline::search_wcet`] runs a deterministic, dominance-pruned
//!   frontier search over the `PassConfig` lattice per node, probing each
//!   generation as one batched sweep so re-search after an edit replays
//!   from cache, with `validators: true` pinned on every probe;
//! * [`trace`] — structured run telemetry: every sweep and search records
//!   per-cell stage spans, nested per-pass spans and search provenance
//!   events into a [`RunTrace`], exportable as Chrome trace-event JSON
//!   (Perfetto-loadable) or a deterministic text [`Profile`];
//! * [`proto`] / [`server`] / [`client`] — the compile service: a
//!   `.vcart`-style wire protocol over a Unix socket (a sweep names its
//!   units by [`source_digest`], and the server answers `need` with the
//!   digests whose bodies it lacks, which the client then re-sends;
//!   bodies and the big sweep payload ride in length-prefixed blobs), a
//!   long-lived [`Server`] daemon owning one warm [`ArtifactStore`]
//!   (size-bounded, deterministic eviction) plus a bounded
//!   digest-addressed parse cache — each distinct unit parses once per
//!   digest across requests and clients — and the blocking [`Client`],
//!   whose warm requests are one frame shipping zero unit bodies. The
//!   daemon runs each sweep request as one [`Pipeline::run_sweep`] of
//!   exactly that request, one at a time, so every served response is
//!   bit-identical to a solo run of the same request.
//!
//! ## Correctness story
//!
//! Translation validation (paper §3.5) already makes every compilation
//! carry its own evidence: the validators accept or the compiler fails.
//! The cache preserves that story by construction — an artifact is
//! inserted only on the success path, *after* the validators accepted, and
//! a cache hit replays the stored [`Verdict`] for inputs whose digest is
//! identical to the validated run's. Incremental rebuilds need no dirty
//! bits: a changed node changes its generated source and therefore its
//! key, so exactly the dirty cone misses.
//!
//! ```
//! use vericomp_pipeline::{Pipeline, SweepSpec};
//! use vericomp_core::OptLevel;
//! use vericomp_dataflow::fleet;
//!
//! let pipeline = Pipeline::in_memory();
//! let nodes = fleet::named_suite();
//! let spec = SweepSpec::new()
//!     .nodes(&nodes[..4])
//!     .levels([OptLevel::PatternO0, OptLevel::Verified]);
//! let cold = pipeline.run_sweep(&spec)?;
//! let warm = pipeline.run_sweep(&spec)?;
//! assert_eq!(warm.stats.jobs_cached, 8);       // everything replayed
//! assert_eq!(cold.digest(), warm.digest());    // bit-identical outputs
//! let cell = &warm[(nodes[0].name(), "verified", "default")];
//! assert!(cell.outcome.cached);
//! # Ok::<(), vericomp_pipeline::PipelineError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod hash;
pub mod metrics;
pub mod pool;
pub mod proto;
pub mod recorder;
pub mod search;
pub mod server;
pub mod service;
pub mod stats;
pub mod store;
pub mod sweep;
pub mod trace;

pub use client::{Client, ClientError};
pub use hash::{Digest, Hasher};
pub use metrics::{bucket_index, bucket_upper, Histogram, Registry, HIST_BUCKETS};
pub use pool::ThreadPool;
pub use proto::{
    cells_digest, frame_text, normalize_spec, read_frame, CellSummary, ProtoError, Request,
    Response, ServerStats, SweepResponse, WireSweep, WireUnit, MAX_BLOB_BYTES, PROTO_VERSION,
};
pub use recorder::{FlightRecorder, RecorderEvent, DEFAULT_RECORDER_CAP};
pub use search::{
    bits_config, config_bits, describe_bits, wcet_driven_candidates, NodeSearch, ProbedConfig,
    PrunedFlag, SearchResult, SearchSpec, LATTICE_FLAGS, LATTICE_SIZE,
};
pub use server::{Server, ServerOptions};
pub use service::{
    OptionsError, Pipeline, PipelineError, PipelineOptions, PipelineOptionsBuilder, UnitOutcome,
    MAX_JOBS,
};
pub use stats::{saturating_nanos, PipelineStats};
pub use store::{
    artifact_key, machine_digest, source_digest, Artifact, ArtifactStore, ParsedUnit, StoreConfig,
    Verdict, FORMAT_VERSION,
};
pub use sweep::{ReanalysisAudit, SweepCell, SweepResult, SweepSpec, SweepUnit};
pub use trace::{Profile, ProfileRow, RunTrace, Span, SpanKind, STAGE_NAMES};
