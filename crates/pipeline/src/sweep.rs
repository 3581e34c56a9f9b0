//! Sweep-matrix requests: (units × configs × machines) as the first-class
//! compile request.
//!
//! The paper's evaluation (§3.3 Table 1, Figure 2) is a sweep — every
//! symbol-library node compiled under every compiler configuration and
//! measured against a fixed MPC755 model — and every driver in this repo
//! used to hand-roll that loop around `compile_units`, duplicating cache
//! keys, stats handling and determinism tie-breaks. A [`SweepSpec`] names
//! the three axes once; [`Pipeline::run_sweep`] flattens the cross product
//! into one pool task per cell and returns a [`SweepResult`] with indexed
//! lookup (`&result[("node", "config", "machine")]`), per-axis
//! aggregation and the run's [`PipelineStats`].
//!
//! **Key space.** Every cell's artifact key already covers all three axes
//! — the generated source (unit), the ten `PassConfig` flags (config) and
//! the machine digest (machine) — so sweep cells share the pipeline's one
//! [`ArtifactStore`](crate::store::ArtifactStore) with no cross-talk:
//! cells differing on any axis never alias, and repeating a sweep (or
//! widening one axis) replays every unchanged cell from cache.
//!
//! **Flattening order** is unit-major, then config, then machine; it is
//! the iteration order of [`SweepResult::cells`] and the order
//! [`SweepResult::digest`] hashes, so serial and parallel runs of the same
//! spec produce identical digests (the determinism gates compare exactly
//! this).
//!
//! **Rendering once.** A unit's canonical text — the key material — and
//! its digest are rendered on first use and shared by every clone of the
//! [`SweepUnit`], so building a spec costs O(1) per unit and a sweep
//! pretty-prints and hashes each unit once, inside that unit's first cell
//! on the pool. Labeled lookups resolve unit labels through an index the
//! [`SweepResult`] builds once, so a schedule check over thousands of
//! units scans no label list.
//!
//! ```
//! use vericomp_core::OptLevel;
//! use vericomp_dataflow::fleet;
//! use vericomp_pipeline::{Pipeline, SweepSpec};
//!
//! let nodes = fleet::named_suite();
//! let spec = SweepSpec::new()
//!     .nodes(&nodes[..3])
//!     .levels([OptLevel::PatternO0, OptLevel::Verified]);
//! let pipeline = Pipeline::in_memory();
//! let sweep = pipeline.run_sweep(&spec)?;
//! assert_eq!(sweep.cell_count(), 6);
//! let cell = &sweep[(nodes[0].name(), "verified", "default")];
//! assert!(cell.outcome.artifact.report.wcet > 0);
//! # Ok::<(), vericomp_pipeline::PipelineError>(())
//! ```

use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Index;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use vericomp_arch::MachineConfig;
use vericomp_core::{OptLevel, PassConfig};
use vericomp_dataflow::{Application, ApplicationError, Node};
use vericomp_minic::ast::Program as SrcProgram;
use vericomp_minic::pretty::program_to_c;

use crate::hash::{Digest, Hasher};
use crate::service::{Pipeline, PipelineError, UnitOutcome};
use crate::stats::PipelineStats;
use crate::store::source_digest;
use crate::trace::{RunTrace, Span};

/// One entry of the sweep's unit axis: a named translation unit with its
/// entry point. It carries **no pass selection** — configs are their own
/// axis.
///
/// Construction is O(1): it stores the AST and nothing else. The
/// canonical text and its [`source_digest`] are rendered **on first use,
/// shared by clones** — the first [`canonical`](Self::canonical) or
/// [`source_digest`](Self::source_digest) call on any clone pretty-prints
/// and hashes once, and every cell key, wire `unit-ref` and dedup
/// downstream reuses that memo. A solo sweep therefore renders each unit
/// inside its first cell, on the pool; a client renders a unit when it
/// first sends it; and the server builds units with
/// [`from_parsed`](Self::from_parsed) from text and a digest it already
/// verified, rendering nothing. The AST is shared by `Arc` too, so
/// cloning a unit across the cross product is pointer-cheap.
#[derive(Debug, Clone)]
pub struct SweepUnit {
    /// Axis label (node or application name) — the `unit` coordinate in
    /// lookups.
    pub name: String,
    /// The MiniC translation unit.
    pub source: Arc<SrcProgram>,
    /// Entry-point function.
    pub entry: String,
    rendered: Arc<OnceLock<Rendered>>,
}

/// A unit's canonical text and the digest of exactly that text.
#[derive(Debug)]
struct Rendered {
    canonical: Arc<String>,
    digest: Digest,
}

impl SweepUnit {
    fn from_ast(name: String, source: Arc<SrcProgram>, entry: String) -> SweepUnit {
        SweepUnit {
            name,
            source,
            entry,
            rendered: Arc::default(),
        }
    }

    /// The unit axis entry for a dataflow node.
    #[must_use]
    pub fn from_node(node: &Node) -> SweepUnit {
        SweepUnit::from_ast(
            node.name().to_owned(),
            Arc::new(node.to_minic()),
            node.step_name().to_owned(),
        )
    }

    /// The unit axis entry for a whole linked [`Application`] image.
    ///
    /// # Errors
    ///
    /// [`ApplicationError`] from linking the application's translation
    /// unit.
    pub fn from_application(app: &Application) -> Result<SweepUnit, ApplicationError> {
        Ok(SweepUnit::from_ast(
            app.name().to_owned(),
            Arc::new(app.to_minic()?),
            app.step_name().to_owned(),
        ))
    }

    /// The unit axis entry for a raw MiniC translation unit.
    #[must_use]
    pub fn from_source(name: &str, source: SrcProgram, entry: &str) -> SweepUnit {
        SweepUnit::from_ast(name.to_owned(), Arc::new(source), entry.to_owned())
    }

    /// The unit axis entry for an already-parsed unit whose canonical
    /// text and digest are known — the server's parse cache builds specs
    /// this way, skipping the parse, the pretty-print *and* the hash.
    ///
    /// `canonical` must be exactly `program_to_c(&source)` and `digest`
    /// its [`source_digest`]: the parse cache guarantees the first by
    /// construction (it stores the text it parsed, and parse∘pretty is
    /// identity on ASTs), and the wire decoder verified the second before
    /// the entry was cached under it.
    #[must_use]
    pub fn from_parsed(
        name: &str,
        source: Arc<SrcProgram>,
        entry: &str,
        canonical: Arc<String>,
        digest: Digest,
    ) -> SweepUnit {
        debug_assert_eq!(
            program_to_c(&source),
            *canonical,
            "canonical text out of sync with AST for unit `{name}`"
        );
        debug_assert_eq!(
            source_digest(&canonical),
            digest,
            "digest out of sync with canonical text for unit `{name}`"
        );
        SweepUnit {
            name: name.to_owned(),
            source,
            entry: entry.to_owned(),
            rendered: Arc::new(OnceLock::from(Rendered { canonical, digest })),
        }
    }

    fn rendered(&self) -> &Rendered {
        self.rendered.get_or_init(|| {
            let canonical = Arc::new(program_to_c(&self.source));
            let digest = source_digest(&canonical);
            Rendered { canonical, digest }
        })
    }

    /// The canonical pretty-printed source — the exact text whose digest
    /// names the unit and that the wire protocol uploads.
    #[must_use]
    pub fn canonical(&self) -> &Arc<String> {
        &self.rendered().canonical
    }

    /// [`source_digest`] of the canonical text — the unit's identity on
    /// the wire, in the server's parse cache and in cell cache keys.
    #[must_use]
    pub fn source_digest(&self) -> Digest {
        self.rendered().digest
    }
}

/// The builder-style sweep request: three labeled axes.
///
/// Axes left empty pick defaults at [`Pipeline::run_sweep`] time: no
/// configs means the single `verified` preset, no machines means the
/// pipeline's own machine under the label `default`. An empty unit axis
/// yields an empty result.
#[derive(Debug, Clone, Default)]
pub struct SweepSpec {
    units: Vec<SweepUnit>,
    configs: Vec<(String, PassConfig)>,
    machines: Vec<(String, MachineConfig)>,
}

impl SweepSpec {
    /// An empty spec.
    #[must_use]
    pub fn new() -> SweepSpec {
        SweepSpec::default()
    }

    /// Appends a prepared unit to the unit axis.
    #[must_use]
    pub fn unit(mut self, unit: SweepUnit) -> Self {
        self.units.push(unit);
        self
    }

    /// Appends a dataflow node to the unit axis.
    #[must_use]
    pub fn node(self, node: &Node) -> Self {
        self.unit(SweepUnit::from_node(node))
    }

    /// Appends every node to the unit axis, in order.
    #[must_use]
    pub fn nodes<'a>(mut self, nodes: impl IntoIterator<Item = &'a Node>) -> Self {
        for node in nodes {
            self = self.node(node);
        }
        self
    }

    /// Appends a linked [`Application`] image to the unit axis.
    ///
    /// # Errors
    ///
    /// [`ApplicationError`] from linking the application's translation
    /// unit.
    pub fn application(self, app: &Application) -> Result<Self, ApplicationError> {
        Ok(self.unit(SweepUnit::from_application(app)?))
    }

    /// Appends a labeled pass selection to the config axis.
    #[must_use]
    pub fn config(mut self, label: &str, passes: &PassConfig) -> Self {
        self.configs.push((label.to_owned(), *passes));
        self
    }

    /// Appends an [`OptLevel`] preset to the config axis, labeled with the
    /// level's name.
    #[must_use]
    pub fn level(self, level: OptLevel) -> Self {
        self.config(&level.to_string(), &PassConfig::for_level(level))
    }

    /// Appends several [`OptLevel`] presets to the config axis, in order.
    #[must_use]
    pub fn levels(mut self, levels: impl IntoIterator<Item = OptLevel>) -> Self {
        for level in levels {
            self = self.level(level);
        }
        self
    }

    /// Appends a labeled target machine to the machine axis.
    #[must_use]
    pub fn machine(mut self, label: &str, machine: &MachineConfig) -> Self {
        self.machines.push((label.to_owned(), machine.clone()));
        self
    }

    /// The unit axis.
    #[must_use]
    pub fn units(&self) -> &[SweepUnit] {
        &self.units
    }

    /// The config axis (label, passes).
    #[must_use]
    pub fn configs(&self) -> &[(String, PassConfig)] {
        &self.configs
    }

    /// The machine axis (label, machine).
    #[must_use]
    pub fn machines(&self) -> &[(String, MachineConfig)] {
        &self.machines
    }

    /// Number of cells the sweep will run (axes left empty count as their
    /// run-time default of 1).
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.units.len() * self.configs.len().max(1) * self.machines.len().max(1)
    }

    /// The config axis a run of this spec uses: an empty axis is the
    /// single `verified` preset. With [`run_machines`](Self::run_machines)
    /// the one place the axis defaults live.
    fn run_configs(&self) -> Cow<'_, [(String, PassConfig)]> {
        if self.configs.is_empty() {
            let level = OptLevel::Verified;
            Cow::Owned(vec![(level.to_string(), PassConfig::for_level(level))])
        } else {
            Cow::Borrowed(&self.configs)
        }
    }

    /// The machine axis a run of this spec uses: an empty axis is
    /// `machine` labeled `default`.
    fn run_machines(&self, machine: &MachineConfig) -> Cow<'_, [(String, MachineConfig)]> {
        if self.machines.is_empty() {
            Cow::Owned(vec![("default".to_owned(), machine.clone())])
        } else {
            Cow::Borrowed(&self.machines)
        }
    }
}

/// Makes a spec's implicit axes explicit with **the same defaults
/// `Pipeline::run_sweep` applies**: an empty config axis becomes the
/// single `verified` preset, an empty machine axis becomes `machine`
/// under the label `default`. Sending a normalized spec guarantees the
/// response's labels — and therefore its digest — match a solo run.
#[must_use]
pub fn normalize_spec(spec: &SweepSpec, machine: &MachineConfig) -> SweepSpec {
    SweepSpec {
        units: spec.units.clone(),
        configs: spec.run_configs().into_owned(),
        machines: spec.run_machines(machine).into_owned(),
    }
}

/// The sweep digest over cells given as (unit, config, machine labels,
/// output digest), in flattening order — the one definition behind
/// [`SweepResult::digest`] and [`cells_digest`](crate::proto::cells_digest),
/// so a served response and a solo run of the same request digest
/// identically by construction.
pub(crate) fn sweep_digest<'a>(
    cells: impl IntoIterator<Item = (&'a str, &'a str, &'a str, Digest)>,
) -> Digest {
    let mut h = Hasher::new();
    for (unit, config, machine, output) in cells {
        h.str(unit).str(config).str(machine);
        h.u64(output.0 as u64).u64((output.0 >> 64) as u64);
    }
    Digest(h.finish())
}

/// One cell of a completed sweep: the three axis labels and the outcome.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Unit-axis label.
    pub unit: String,
    /// Config-axis label.
    pub config: String,
    /// Machine-axis label.
    pub machine: String,
    /// The compilation outcome (artifact, cached flag).
    pub outcome: UnitOutcome,
}

impl SweepCell {
    /// The cell's WCET bound, in cycles.
    #[must_use]
    pub fn wcet(&self) -> u64 {
        self.outcome.artifact.report.wcet
    }
}

/// Result of [`Pipeline::run_sweep`]: the cells in flattening order
/// (unit-major, then config, then machine) plus aggregate stats.
#[derive(Debug, Clone)]
pub struct SweepResult {
    units: Vec<String>,
    /// Each unit label's first position on the unit axis, so labeled
    /// lookups cost no scan of a many-thousand-unit axis.
    unit_index: HashMap<String, usize>,
    configs: Vec<String>,
    machines: Vec<String>,
    cells: Vec<SweepCell>,
    trace: RunTrace,
    /// Aggregate run metrics: [`PipelineStats::from_spans`] of the
    /// sweep's trace, with `wall_ns` the end-to-end clock of the whole
    /// sweep.
    pub stats: PipelineStats,
}

impl SweepResult {
    /// The run's span trace: per-cell stage spans, nested per-pass spans
    /// for every fresh compilation. Always collected — recording costs a
    /// handful of allocations per cell, dwarfed by the compile itself.
    #[must_use]
    pub fn trace(&self) -> &RunTrace {
        &self.trace
    }

    /// Moves the trace out (the search chains generation traces this way).
    pub(crate) fn take_trace(&mut self) -> RunTrace {
        std::mem::take(&mut self.trace)
    }

    /// Unit-axis labels, in spec order.
    #[must_use]
    pub fn unit_labels(&self) -> &[String] {
        &self.units
    }

    /// Config-axis labels, in spec order.
    #[must_use]
    pub fn config_labels(&self) -> &[String] {
        &self.configs
    }

    /// Machine-axis labels, in spec order.
    #[must_use]
    pub fn machine_labels(&self) -> &[String] {
        &self.machines
    }

    /// All cells in flattening order.
    #[must_use]
    pub fn cells(&self) -> &[SweepCell] {
        &self.cells
    }

    /// Number of cells.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    fn axis_index(axis: &[String], label: &str) -> Option<usize> {
        axis.iter().position(|l| l == label)
    }

    fn flat_index(&self, u: usize, c: usize, m: usize) -> usize {
        (u * self.configs.len() + c) * self.machines.len() + m
    }

    /// The cell at positional coordinates, if in range.
    #[must_use]
    pub fn cell_at(&self, unit: usize, config: usize, machine: usize) -> Option<&SweepCell> {
        if unit < self.units.len() && config < self.configs.len() && machine < self.machines.len() {
            self.cells.get(self.flat_index(unit, config, machine))
        } else {
            None
        }
    }

    /// The cell at labeled coordinates. Labels resolve to their first
    /// occurrence on each axis (axes are expected label-unique).
    #[must_use]
    pub fn get(&self, unit: &str, config: &str, machine: &str) -> Option<&SweepCell> {
        let u = *self.unit_index.get(unit)?;
        let c = Self::axis_index(&self.configs, config)?;
        let m = Self::axis_index(&self.machines, machine)?;
        self.cell_at(u, c, m)
    }

    /// The WCET bound of one cell by labels.
    ///
    /// # Panics
    ///
    /// Panics on unknown labels — same contract as indexing.
    #[must_use]
    pub fn wcet(&self, unit: &str, config: &str, machine: &str) -> u64 {
        self[(unit, config, machine)].wcet()
    }

    /// Iterates the cells of one (config, machine) column in unit order.
    ///
    /// # Panics
    ///
    /// Panics on unknown labels.
    pub fn column<'a>(
        &'a self,
        config: &str,
        machine: &str,
    ) -> impl Iterator<Item = &'a SweepCell> + 'a {
        let c = Self::axis_index(&self.configs, config)
            .unwrap_or_else(|| panic!("unknown config label `{config}`"));
        let m = Self::axis_index(&self.machines, machine)
            .unwrap_or_else(|| panic!("unknown machine label `{machine}`"));
        (0..self.units.len()).map(move |u| &self.cells[self.flat_index(u, c, m)])
    }

    /// Mean WCET over the unit axis of one (config, machine) column.
    ///
    /// # Panics
    ///
    /// Panics on unknown labels or an empty unit axis.
    #[must_use]
    pub fn mean_wcet(&self, config: &str, machine: &str) -> f64 {
        assert!(!self.units.is_empty(), "mean over an empty unit axis");
        let total: u64 = self.column(config, machine).map(SweepCell::wcet).sum();
        total as f64 / self.units.len() as f64
    }

    /// Mean of per-unit WCET ratios of `config` against `baseline` on one
    /// machine — the aggregation Figure 2 reports ("mean WCET delta").
    ///
    /// # Panics
    ///
    /// Panics on unknown labels or an empty unit axis.
    #[must_use]
    pub fn mean_ratio(&self, config: &str, baseline: &str, machine: &str) -> f64 {
        assert!(!self.units.is_empty(), "mean over an empty unit axis");
        let s: f64 = self
            .column(config, machine)
            .zip(self.column(baseline, machine))
            .map(|(c, b)| c.wcet() as f64 / b.wcet() as f64)
            .sum();
        s / self.units.len() as f64
    }

    /// A digest of every cell's outputs in flattening order — equal
    /// digests mean bit-identical binaries, annotation tables and WCET
    /// bounds across the whole matrix; the determinism gates compare
    /// serial and parallel sweeps with this.
    #[must_use]
    pub fn digest(&self) -> Digest {
        sweep_digest(self.cells.iter().map(|c| {
            (
                c.unit.as_str(),
                c.config.as_str(),
                c.machine.as_str(),
                c.outcome.artifact.output_digest(),
            )
        }))
    }
}

impl Index<(usize, usize, usize)> for SweepResult {
    type Output = SweepCell;

    fn index(&self, (u, c, m): (usize, usize, usize)) -> &SweepCell {
        self.cell_at(u, c, m).unwrap_or_else(|| {
            panic!(
                "sweep index ({u}, {c}, {m}) out of range ({} × {} × {})",
                self.units.len(),
                self.configs.len(),
                self.machines.len()
            )
        })
    }
}

impl Index<(&str, &str, &str)> for SweepResult {
    type Output = SweepCell;

    fn index(&self, (unit, config, machine): (&str, &str, &str)) -> &SweepCell {
        self.get(unit, config, machine).unwrap_or_else(|| {
            panic!("sweep has no cell labeled ({unit:?}, {config:?}, {machine:?})")
        })
    }
}

impl Pipeline {
    /// Runs a sweep: flattens the (units × configs × machines) cross
    /// product into one pool task per cell, serving every previously-seen
    /// cell from the artifact cache (the key already separates all three
    /// axes). Cells come back in flattening order
    /// regardless of scheduling, so equal specs yield equal
    /// [`SweepResult::digest`]s at any job count.
    ///
    /// An empty config axis defaults to the single `verified` preset; an
    /// empty machine axis defaults to [`MachineConfig::mpc755`] labeled
    /// `default`.
    ///
    /// # Errors
    ///
    /// The first [`PipelineError`] any cell hit.
    ///
    /// # Panics
    ///
    /// Re-raises panics from compiler/analyzer internals (toolchain bugs).
    pub fn run_sweep(&self, spec: &SweepSpec) -> Result<SweepResult, PipelineError> {
        self.run_sweep_at(spec, Instant::now())
    }

    /// [`run_sweep`](Pipeline::run_sweep) with an explicit trace epoch:
    /// every span timestamp is relative to `epoch`, so callers chaining
    /// several sweeps (the lattice search's generations) get one
    /// continuous timeline.
    pub(crate) fn run_sweep_at(
        &self,
        spec: &SweepSpec,
        epoch: Instant,
    ) -> Result<SweepResult, PipelineError> {
        let (configs, machines) = (
            spec.run_configs(),
            spec.run_machines(&MachineConfig::mpc755()),
        );
        let (cells, stats, trace) = self.run_cells(&spec.units, &configs, &machines, epoch)?;
        let units: Vec<String> = spec.units.iter().map(|u| u.name.clone()).collect();
        let mut unit_index = HashMap::with_capacity(units.len());
        for (i, label) in units.iter().enumerate() {
            unit_index.entry(label.clone()).or_insert(i);
        }
        Ok(SweepResult {
            units,
            unit_index,
            configs: configs.iter().map(|(l, _)| l.clone()).collect(),
            machines: machines.iter().map(|(l, _)| l.clone()).collect(),
            cells,
            trace,
            stats,
        })
    }

    /// Audits a finished sweep against the pipeline's warm session
    /// analyzer: every unique artifact is re-analyzed through the shared
    /// fact cache and the re-derived bound compared with the stored
    /// report. On a sweep this pipeline just ran, every function replays
    /// from cache (`functions_reused` > 0, `functions_analyzed` = 0) —
    /// the CI analyzer smoke asserts exactly that. One `analyze:reuse` /
    /// `analyze:fixpoint` event per replayed / re-run function is appended
    /// to the sweep's trace (job = cell index), so `--profile` output
    /// shows the audit.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Analyze`] if a re-analysis fails outright.
    /// Bound mismatches are reported in the audit, not as errors — the
    /// caller decides whether a disagreement is fatal.
    pub fn reanalyze_sweep(
        &self,
        sweep: &mut SweepResult,
    ) -> Result<ReanalysisAudit, PipelineError> {
        let mut audit = ReanalysisAudit::default();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..sweep.cells.len() {
            let cell = &sweep.cells[i];
            let artifact = std::sync::Arc::clone(&cell.outcome.artifact);
            let unit = cell.unit.clone();
            let detail = format!("unit={} config={}", unit, cell.config);
            if !seen.insert(artifact.key) {
                continue;
            }
            let analysis = self
                .analyzer()
                .analyze(&vericomp_wcet::AnalysisRequest::new(
                    &artifact.program,
                    &artifact.entry,
                ))
                .map_err(|error| PipelineError::Analyze { unit, error })?;
            audit.artifacts += 1;
            audit.functions_reused += analysis.functions_reused;
            audit.functions_analyzed += analysis.functions_analyzed;
            if analysis.report.wcet != artifact.report.wcet {
                audit.mismatches.push(format!(
                    "{detail}: re-derived {} vs stored {}",
                    analysis.report.wcet, artifact.report.wcet
                ));
            }
            let job = i as u32;
            for _ in 0..analysis.functions_analyzed {
                sweep
                    .trace
                    .push(Span::event("analyze:fixpoint", job, 0, &detail));
            }
            for _ in 0..analysis.functions_reused {
                sweep
                    .trace
                    .push(Span::event("analyze:reuse", job, 0, &detail));
            }
        }
        Ok(audit)
    }
}

/// Result of [`Pipeline::reanalyze_sweep`]: how much of the audit was
/// served from the session analyzer's fact cache, and any bound
/// disagreements found.
#[derive(Debug, Clone, Default)]
pub struct ReanalysisAudit {
    /// Unique artifacts re-analyzed (cells deduplicated by artifact key).
    pub artifacts: u64,
    /// Function bodies replayed from the session fact cache.
    pub functions_reused: u64,
    /// Function bodies whose fixpoints had to re-run.
    pub functions_analyzed: u64,
    /// Human-readable descriptions of bound disagreements (empty on a
    /// healthy audit).
    pub mismatches: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vericomp_dataflow::fleet;

    fn suite_prefix(n: usize) -> Vec<Node> {
        let mut nodes = fleet::named_suite();
        nodes.truncate(n);
        nodes
    }

    /// A machine whose memory is 4× slower than the MPC755 model — unlike
    /// `tiny_caches`, this shifts every WCET, which the tests rely on.
    fn slow_mem() -> MachineConfig {
        let mut m = MachineConfig::mpc755();
        m.mem_latency *= 4;
        m
    }

    fn small_spec(nodes: &[Node]) -> SweepSpec {
        SweepSpec::new()
            .nodes(nodes)
            .levels([OptLevel::PatternO0, OptLevel::Verified, OptLevel::OptFull])
            .machine("mpc755", &MachineConfig::mpc755())
            .machine("slow-mem", &slow_mem())
    }

    #[test]
    fn sweep_matches_nested_single_axis_sweeps_bit_exactly() {
        let nodes = suite_prefix(3);
        let spec = small_spec(&nodes);
        let sweep = Pipeline::in_memory()
            .run_sweep(&spec)
            .expect("sweep compiles");
        assert_eq!(sweep.cell_count(), 3 * 3 * 2);

        // the equivalent hand-rolled loops the drivers used to contain
        for (machine_label, machine) in spec.machines() {
            let pipeline = Pipeline::in_memory();
            for (config_label, passes) in spec.configs() {
                let nested = SweepSpec::new()
                    .nodes(&nodes)
                    .config(config_label, passes)
                    .machine(machine_label, machine);
                let fleet = pipeline.run_sweep(&nested).expect("fleet compiles");
                for (node, single) in nodes.iter().zip(fleet.cells()) {
                    let cell = &sweep[(node.name(), config_label.as_str(), machine_label.as_str())];
                    assert_eq!(
                        cell.outcome.artifact.output_digest(),
                        single.outcome.artifact.output_digest(),
                        "{} × {config_label} × {machine_label} diverges from the nested loop",
                        node.name()
                    );
                }
            }
        }
    }

    #[test]
    fn repeated_sweep_is_fully_cached_and_bit_identical() {
        let nodes = suite_prefix(4);
        let spec = small_spec(&nodes);
        let pipeline = Pipeline::in_memory();
        let cold = pipeline.run_sweep(&spec).expect("cold sweep");
        let warm = pipeline.run_sweep(&spec).expect("warm sweep");
        assert_eq!(cold.stats.jobs_run, 24);
        assert_eq!(cold.stats.jobs_cached, 0);
        assert_eq!(warm.stats.jobs_cached, 24);
        assert_eq!(warm.stats.jobs_run, 0);
        assert!(warm.stats.hit_rate() >= 0.9);
        assert_eq!(cold.digest(), warm.digest());
        for cell in warm.cells() {
            assert!(cell.outcome.cached);
        }
    }

    #[test]
    fn widening_an_axis_reuses_every_overlapping_cell() {
        let nodes = suite_prefix(3);
        let pipeline = Pipeline::in_memory();
        let narrow = SweepSpec::new().nodes(&nodes).level(OptLevel::Verified);
        let cold = pipeline.run_sweep(&narrow).expect("narrow sweep");
        assert_eq!(cold.stats.jobs_run, 3);

        // widen the config axis: the verified column replays from cache
        let wide = SweepSpec::new()
            .nodes(&nodes)
            .levels([OptLevel::Verified, OptLevel::OptFull]);
        let widened = pipeline.run_sweep(&wide).expect("wide sweep");
        assert_eq!(widened.stats.jobs_cached, 3);
        assert_eq!(widened.stats.jobs_run, 3);
        for cell in widened.column("verified", "default") {
            assert!(cell.outcome.cached);
        }
        for cell in widened.column("opt-full", "default") {
            assert!(!cell.outcome.cached);
        }

        // widen the machine axis with a machine unlike every column so
        // far: every old cell replays, only the new column runs
        let machines = wide
            .clone()
            .machine("default", &MachineConfig::mpc755())
            .machine("slow-mem", &slow_mem());
        let widened = pipeline.run_sweep(&machines).expect("new machine");
        assert_eq!(widened.stats.jobs_cached, 6);
        assert_eq!(widened.stats.jobs_run, 6);
        for cell in widened.cells() {
            assert_eq!(cell.outcome.cached, cell.machine == "default");
        }

        // a machine equal to an existing column under a new label runs
        // nothing: keys cover machine fields, not labels
        let relabeled = machines.machine("slow-mem-again", &slow_mem());
        let widened = pipeline.run_sweep(&relabeled).expect("relabeled machine");
        assert_eq!(widened.stats.jobs_cached, 18);
        assert_eq!(widened.stats.jobs_run, 0);
    }

    #[test]
    fn machines_axis_separates_cells_and_aggregations_work() {
        let nodes = suite_prefix(2);
        let spec = small_spec(&nodes);
        let sweep = Pipeline::in_memory().run_sweep(&spec).expect("sweep");

        // positional and labeled indexing agree
        let by_pos = &sweep[(0, 1, 0)];
        let by_label = &sweep[(nodes[0].name(), "verified", "mpc755")];
        assert_eq!(
            by_pos.outcome.artifact.output_digest(),
            by_label.outcome.artifact.output_digest()
        );

        // the machine axis genuinely changes the analysis: slower memory
        // must not yield identical WCETs across the whole column
        let m755: Vec<u64> = sweep
            .column("verified", "mpc755")
            .map(SweepCell::wcet)
            .collect();
        let slow: Vec<u64> = sweep
            .column("verified", "slow-mem")
            .map(SweepCell::wcet)
            .collect();
        assert_ne!(m755, slow, "machine axis had no effect on any WCET");

        // aggregations
        let mean = sweep.mean_wcet("verified", "mpc755");
        assert!((mean - m755.iter().sum::<u64>() as f64 / 2.0).abs() < 1e-9);
        let ratio = sweep.mean_ratio("verified", "pattern-O0", "mpc755");
        assert!(ratio > 0.0 && ratio < 1.0, "verified beats the baseline");
        assert!(
            (sweep.mean_ratio("pattern-O0", "pattern-O0", "mpc755") - 1.0).abs() < 1e-12,
            "self-ratio is 1"
        );

        // misses
        assert!(sweep.get("no_such_node", "verified", "mpc755").is_none());
        assert!(sweep.cell_at(99, 0, 0).is_none());
    }

    #[test]
    fn aggregate_stats_are_the_figures_of_the_sweeps_spans() {
        let nodes = suite_prefix(3);
        let spec = small_spec(&nodes);
        let pipeline = Pipeline::in_memory();
        for run in ["cold", "warm"] {
            let sweep = pipeline.run_sweep(&spec).expect("sweep");
            let expected = PipelineStats {
                wall_ns: sweep.stats.wall_ns,
                ..PipelineStats::from_spans(sweep.trace().spans())
            };
            assert_eq!(sweep.stats, expected, "{run}");
            let cells = sweep.cells().len() as u64;
            let cached = if run == "warm" { cells } else { 0 };
            assert_eq!(sweep.stats.jobs_cached, cached, "{run}");
            assert_eq!(sweep.stats.jobs_total(), cells, "{run}");
            assert!(sweep.stats.wall_ns > 0, "{run}: the sweep clock ran");
        }
    }

    #[test]
    fn duplicate_config_labels_resolve_to_their_first_occurrence() {
        // axes are expected label-unique, but a duplicated label must not
        // corrupt the matrix: both columns compile, and labeled lookup
        // resolves to the first occurrence in spec order — on the config
        // axis, and on the unit axis, whose labels resolve through an index
        let nodes = suite_prefix(2);
        let spec = SweepSpec::new()
            .nodes(&nodes)
            .unit(SweepUnit::from_source(
                nodes[0].name(),
                nodes[1].to_minic(),
                nodes[1].step_name(),
            ))
            .config("hot", &PassConfig::for_level(OptLevel::PatternO0))
            .config("hot", &PassConfig::for_level(OptLevel::OptFull));
        let sweep = Pipeline::in_memory().run_sweep(&spec).expect("sweep");
        assert_eq!(sweep.cell_count(), 6);
        assert_eq!(sweep.config_labels(), ["hot".to_owned(), "hot".to_owned()]);
        assert_eq!(sweep.unit_labels()[2], nodes[0].name());
        for c in 0..2 {
            // the relabeled unit genuinely compiled the other body...
            assert_ne!(
                sweep[(0, c, 0)].outcome.artifact.output_digest(),
                sweep[(2, c, 0)].outcome.artifact.output_digest(),
                "duplicate unit label collapsed two distinct units"
            );
        }
        // ...yet its label still resolves to the first unit
        assert_eq!(
            sweep
                .get(nodes[0].name(), "hot", "default")
                .expect("cell")
                .outcome
                .artifact
                .output_digest(),
            sweep[(0, 0, 0)].outcome.artifact.output_digest(),
            "labeled lookup must resolve to the first unit occurrence"
        );

        for (ui, node) in nodes.iter().enumerate() {
            let first = &sweep[(ui, 0, 0)];
            let second = &sweep[(ui, 1, 0)];
            // both columns genuinely ran their own config
            assert_ne!(
                first.outcome.artifact.output_digest(),
                second.outcome.artifact.output_digest(),
                "{}: duplicate label collapsed two distinct configs",
                node.name()
            );
            let by_label = sweep.get(node.name(), "hot", "default").expect("cell");
            assert_eq!(
                by_label.outcome.artifact.output_digest(),
                first.outcome.artifact.output_digest(),
                "{}: labeled lookup must resolve to the first occurrence",
                node.name()
            );
        }
    }

    #[test]
    fn units_render_once_on_first_use_and_clones_share_it() {
        let node = &suite_prefix(1)[0];
        let ast = node.to_minic();
        let text = program_to_c(&ast);
        let digest = source_digest(&text);
        let parsed = SweepUnit::from_parsed(
            node.name(),
            Arc::new(vericomp_minic::parse::parse(&text).expect("parses")),
            node.step_name(),
            Arc::new(text.clone()),
            digest,
        );
        let built = [
            SweepUnit::from_source(node.name(), ast, node.step_name()),
            SweepUnit::from_node(node),
            parsed,
        ];
        for unit in built {
            // a clone taken before the first render shares the memo too
            let early = unit.clone();
            assert_eq!(**unit.canonical(), text);
            assert_eq!(unit.source_digest(), digest);
            assert_eq!(program_to_c(&unit.source), text);
            let late = unit.clone();
            for clone in [&early, &late] {
                assert!(Arc::ptr_eq(clone.canonical(), unit.canonical()));
                assert_eq!(clone.source_digest(), digest);
            }
        }
    }

    #[test]
    fn zero_config_spec_compiles_the_verified_preset() {
        // an empty config axis is not an error: it defaults to exactly the
        // verified preset, bit-for-bit
        let nodes = suite_prefix(2);
        let pipeline = Pipeline::in_memory();
        let defaulted = pipeline
            .run_sweep(&SweepSpec::new().nodes(&nodes))
            .expect("defaulted sweep");
        let explicit = pipeline
            .run_sweep(&SweepSpec::new().nodes(&nodes).level(OptLevel::Verified))
            .expect("explicit sweep");
        assert_eq!(defaulted.config_labels(), explicit.config_labels());
        assert_eq!(defaulted.digest(), explicit.digest());
        // same key space too: the second sweep replayed every cell
        assert_eq!(explicit.stats.jobs_cached, 2);
    }

    #[test]
    fn absent_triples_return_none_and_indexing_them_panics() {
        let nodes = suite_prefix(1);
        let spec = SweepSpec::new()
            .nodes(&nodes)
            .level(OptLevel::Verified)
            .machine("mpc755", &MachineConfig::mpc755());
        let sweep = Pipeline::in_memory().run_sweep(&spec).expect("sweep");

        // get(): a miss on any single axis is None, not a panic
        assert!(sweep.get("no_such_node", "verified", "mpc755").is_none());
        assert!(sweep.get(nodes[0].name(), "opt-full", "mpc755").is_none());
        assert!(sweep
            .get(nodes[0].name(), "verified", "tiny-caches")
            .is_none());
        assert!(sweep.cell_at(0, 0, 1).is_none());

        // indexing the same absent triples panics with the lookup contract
        let by_label = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sweep[(nodes[0].name(), "opt-full", "mpc755")].wcet()
        }));
        assert!(
            by_label.is_err(),
            "labeled index of absent triple must panic"
        );
        let by_pos =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sweep[(0, 0, 1)].wcet()));
        assert!(by_pos.is_err(), "positional index out of range must panic");
    }

    #[test]
    fn empty_axes_default_and_empty_units_yield_empty_result() {
        let nodes = suite_prefix(1);
        let sweep = Pipeline::in_memory()
            .run_sweep(&SweepSpec::new().nodes(&nodes))
            .expect("defaulted sweep");
        assert_eq!(sweep.config_labels(), ["verified".to_owned()]);
        assert_eq!(sweep.machine_labels(), ["default".to_owned()]);
        assert_eq!(sweep.cell_count(), 1);

        let empty = Pipeline::in_memory()
            .run_sweep(&SweepSpec::new())
            .expect("empty sweep");
        assert_eq!(empty.cell_count(), 0);
        assert_eq!(empty.stats.jobs_total(), 0);
    }
}
