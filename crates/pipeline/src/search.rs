//! WCET-guided search over the `PassConfig` lattice.
//!
//! The paper's §4 sketches WCET-driven compilation after the WCC compiler
//! of Falk et al. — *"optimizations are evaluated using a WCET analysis
//! tool and only applied when shown to be beneficial"*. The first cut of
//! that driver probed five hand-picked candidates; with warm cache hits at
//! ~1 ms per cell, walking the lattice itself becomes affordable. This
//! module turns per-node candidate selection into a **deterministic
//! frontier search** over the ~2^9 lattice of tunable pass flags:
//!
//! * **Seeds.** The search starts from a caller-supplied seed frontier
//!   (default: the `verified` baseline and the validated full optimizer).
//!   Every seed — and every probe after it — has `validators: true`
//!   pinned, so the search can never trade correctness for time.
//! * **Expansion.** Each generation expands every frontier config by
//!   flipping one pass flag at a time; a neighbor joins the next frontier
//!   only when its analyzed bound strictly improves on its parent's, so
//!   the search floods downhill from the seeds and terminates.
//! * **Dominance pruning.** After each generation the search scans every
//!   probed pair `(c, c|F)`: if enabling flag `F` never reduced the WCET
//!   bound in any probed context (and at least two contexts were seen),
//!   expansions through enabling `F` stop. Every pruning decision is
//!   recorded in the result ([`NodeSearch::pruned`]) so it is auditable.
//! * **Batched probes.** Each frontier generation is one [`SweepSpec`]
//!   submitted to [`Pipeline::run_sweep`], so probes overlap on the
//!   worker pool and land in the content-addressed
//!   [`ArtifactStore`](crate::store::ArtifactStore) — re-searching after a
//!   node edit replays every unchanged probe from cache.
//!
//! The search is bit-deterministic: probe order, winner, pruning
//! decisions and [`SearchResult::digest`] depend only on the spec and the
//! (pure) compile/analyze functions, never on scheduling. Cache hit rates
//! are reported but excluded from the digest.
//!
//! ```
//! use vericomp_dataflow::fleet;
//! use vericomp_pipeline::{Pipeline, SearchSpec};
//!
//! let nodes = fleet::named_suite();
//! let spec = SearchSpec::new().nodes(&nodes[..2]);
//! let result = Pipeline::in_memory().search_wcet(&spec)?;
//! for node in &result.nodes {
//!     assert!(node.winner.passes.validators);
//!     assert!(node.winner.wcet <= node.probed[0].wcet); // never worse than a seed
//! }
//! # Ok::<(), vericomp_pipeline::PipelineError>(())
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use vericomp_arch::MachineConfig;
use vericomp_core::{OptLevel, PassConfig};
use vericomp_dataflow::{Application, ApplicationError, Node};

use crate::hash::{Digest, Hasher};
use crate::service::{Pipeline, PipelineError};
use crate::stats::{saturating_nanos, PipelineStats};
use crate::store::Artifact;
use crate::sweep::{SweepSpec, SweepUnit};
use crate::trace::{RunTrace, Span};

/// The tunable pass flags of the lattice, in canonical bit order: the
/// first nine of [`PassConfig::flags`]. `validators`, the last flag, is
/// **not** part of the lattice — it is pinned `true` on every probe.
pub const LATTICE_FLAGS: [&str; 9] = [
    "mem2reg",
    "constprop",
    "cse",
    "dce",
    "tunnel",
    "strength",
    "schedule",
    "sda",
    "full-palette",
];

/// Size of the search lattice (every combination of the nine tunable
/// flags; `validators` is pinned).
pub const LATTICE_SIZE: usize = 1 << LATTICE_FLAGS.len();

/// The lattice coordinates of a pass selection: one bit per
/// [`LATTICE_FLAGS`] entry. `validators` does not participate.
#[must_use]
pub fn config_bits(passes: &PassConfig) -> u16 {
    passes.flags()[..LATTICE_FLAGS.len()]
        .iter()
        .enumerate()
        .fold(0u16, |acc, (i, &on)| acc | (u16::from(on) << i))
}

/// The pass selection at some lattice coordinates, with `validators`
/// pinned `true` (the search invariant).
#[must_use]
pub fn bits_config(bits: u16) -> PassConfig {
    PassConfig::from_flags(std::array::from_fn(|i| {
        i >= LATTICE_FLAGS.len() || bits & (1 << i) != 0
    }))
}

/// A human-readable label for lattice coordinates, relative to the nearer
/// of the two preset anchors: `verified`, `opt-full`, or e.g.
/// `verified+strength`, `opt-full-schedule-sda`. Injective over bits.
#[must_use]
pub fn describe_bits(bits: u16) -> String {
    let verified = config_bits(&PassConfig::for_level(OptLevel::Verified));
    let full = config_bits(&PassConfig::for_level(OptLevel::OptFull));
    if bits == verified {
        return "verified".to_owned();
    }
    if bits == full {
        return "opt-full".to_owned();
    }
    let (base, name) = if (bits ^ verified).count_ones() <= (bits ^ full).count_ones() {
        (verified, "verified")
    } else {
        (full, "opt-full")
    };
    let mut label = name.to_owned();
    for (i, flag) in LATTICE_FLAGS.iter().enumerate() {
        if bits & (1 << i) != 0 && base & (1 << i) == 0 {
            label.push('+');
            label.push_str(flag);
        }
    }
    for (i, flag) in LATTICE_FLAGS.iter().enumerate() {
        if bits & (1 << i) == 0 && base & (1 << i) != 0 {
            label.push('-');
            label.push_str(flag);
        }
    }
    label
}

/// The candidate pass selections the WCET-driven drivers evaluate —
/// and, since the lattice search, the drivers' **seed frontier**: the
/// verified baseline, each full-optimizer extra probed in isolation
/// (`tunnel` included — the verified preset already enables it, so its
/// single-extra candidate shares the baseline's lattice point and is
/// reported at the baseline's bound), and the validated full
/// optimizer.
#[must_use]
pub fn wcet_driven_candidates() -> [(&'static str, PassConfig); 6] {
    let verified = PassConfig::for_level(OptLevel::Verified);
    let full = PassConfig::for_level(OptLevel::OptFull);
    [
        ("verified", verified),
        (
            "verified+tunnel",
            PassConfig {
                tunnel: true,
                validators: true,
                ..verified
            },
        ),
        (
            "verified+sda",
            PassConfig {
                sda: true,
                validators: true,
                ..verified
            },
        ),
        (
            "verified+sched",
            PassConfig {
                schedule: true,
                validators: true,
                ..verified
            },
        ),
        (
            "verified+strength",
            PassConfig {
                strength: true,
                validators: true,
                ..verified
            },
        ),
        (
            "opt-full(validated)",
            PassConfig {
                validators: true,
                ..full
            },
        ),
    ]
}

/// Minimum number of probed `(c, c|F)` contexts before flag `F` may be
/// dominance-pruned.
const PRUNE_TRIALS: u32 = 2;

/// The search request: which units to optimize, from which seed frontier,
/// on which machine.
#[derive(Debug, Clone, Default)]
pub struct SearchSpec {
    units: Vec<SweepUnit>,
    seeds: Vec<(String, PassConfig)>,
    machine: Option<(String, MachineConfig)>,
}

impl SearchSpec {
    /// An empty spec: no units, default seeds
    /// ([`SearchSpec::default_seeds`]) and the MPC755 machine.
    #[must_use]
    pub fn new() -> SearchSpec {
        SearchSpec::default()
    }

    /// The default seed frontier when none is given: the `verified`
    /// baseline and the validated full optimizer — the two anchors the
    /// search expands between.
    #[must_use]
    pub fn default_seeds() -> Vec<(String, PassConfig)> {
        let full = PassConfig {
            validators: true,
            ..PassConfig::for_level(OptLevel::OptFull)
        };
        vec![
            (
                "verified".to_owned(),
                PassConfig::for_level(OptLevel::Verified),
            ),
            ("opt-full(validated)".to_owned(), full),
        ]
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

    /// Appends a labeled seed to the seed frontier. `validators` is
    /// forced `true` at probe time regardless of the passed value.
    #[must_use]
    pub fn seed(mut self, label: &str, passes: &PassConfig) -> Self {
        self.seeds.push((label.to_owned(), *passes));
        self
    }

    /// The single target machine of the search (defaults to
    /// [`MachineConfig::mpc755`], labeled `default`).
    #[must_use]
    pub fn machine(mut self, label: &str, machine: &MachineConfig) -> Self {
        self.machine = Some((label.to_owned(), machine.clone()));
        self
    }

    /// The unit axis.
    #[must_use]
    pub fn units(&self) -> &[SweepUnit] {
        &self.units
    }

    /// The seed frontier (empty means [`SearchSpec::default_seeds`]).
    #[must_use]
    pub fn seeds(&self) -> &[(String, PassConfig)] {
        &self.seeds
    }
}

/// One probed lattice point of a node's search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbedConfig {
    /// Display label (a seed's given label, or the canonical
    /// [`describe_bits`] name for expanded configs).
    pub label: String,
    /// Lattice coordinates ([`config_bits`]).
    pub bits: u16,
    /// The probed pass selection (`validators` always `true`).
    pub passes: PassConfig,
    /// The analyzed WCET bound, in cycles.
    pub wcet: u64,
    /// The frontier generation that probed it (0 = seed).
    pub generation: u32,
    /// Label of the frontier config this probe was expanded from
    /// (`None` for seeds).
    pub parent: Option<String>,
}

/// One auditable dominance-pruning decision: after `generation`, enabling
/// `flag` had been observed in `trials` probed contexts without ever
/// reducing the WCET bound, so expansions enabling it stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrunedFlag {
    /// The pruned flag, one of [`LATTICE_FLAGS`].
    pub flag: &'static str,
    /// Number of probed `(c, c|flag)` contexts behind the decision.
    pub trials: u32,
    /// Generation after which the decision fired.
    pub generation: u32,
}

/// The completed search of one unit.
#[derive(Debug, Clone)]
pub struct NodeSearch {
    /// Unit name.
    pub unit: String,
    /// The winning probe: smallest WCET bound, earliest probe wins ties
    /// (seeds probe first, so a tie with a seed resolves to the seed).
    pub winner: ProbedConfig,
    /// The winning artifact (binary + replayable verdict + WCET report).
    pub artifact: Arc<Artifact>,
    /// Every probed lattice point, in probe order (seeds first).
    pub probed: Vec<ProbedConfig>,
    /// Dominance-pruning decisions, in the order they fired.
    pub pruned: Vec<PrunedFlag>,
    /// Frontier generations probed (1 = seeds only).
    pub generations: u32,
    /// Pipeline metrics of this unit's probe sweeps:
    /// [`PipelineStats::from_spans`] of their spans, with `wall_ns` the
    /// summed wall time of its sequential generations.
    pub stats: PipelineStats,
}

impl NodeSearch {
    /// Number of distinct lattice points probed.
    #[must_use]
    pub fn probes(&self) -> u64 {
        self.probed.len() as u64
    }

    /// The probed WCET bound at a pass selection's lattice point
    /// (`validators` is pinned, so selections differing only in it look
    /// up the same probe), or `None` if the search never probed it.
    #[must_use]
    pub fn wcet_of(&self, passes: &PassConfig) -> Option<u64> {
        let bits = config_bits(passes);
        self.probed.iter().find(|p| p.bits == bits).map(|p| p.wcet)
    }
}

/// Result of [`Pipeline::search_wcet`]: one [`NodeSearch`] per unit, in
/// spec order, plus aggregate metrics.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Per-unit searches, in unit order.
    pub nodes: Vec<NodeSearch>,
    /// Aggregate pipeline metrics over every probe sweep of the search:
    /// [`PipelineStats::from_spans`] of the whole trace, with `wall_ns`
    /// the summed wall time of the sequential generations.
    pub stats: PipelineStats,
    trace: RunTrace,
}

impl SearchResult {
    /// The search's span trace on one continuous timeline: every
    /// generation's stage and per-pass spans, plus the probe-provenance
    /// events (`search:generation`, `search:probe`, `search:admitted`,
    /// `search:pruned-flag`).
    #[must_use]
    pub fn trace(&self) -> &RunTrace {
        &self.trace
    }

    /// Total probes across all units.
    #[must_use]
    pub fn total_probes(&self) -> u64 {
        self.nodes.iter().map(NodeSearch::probes).sum()
    }

    /// Total pruning decisions across all units.
    #[must_use]
    pub fn total_pruned(&self) -> u64 {
        self.nodes.iter().map(|n| n.pruned.len() as u64).sum()
    }

    /// A digest of the full search trace — per unit: winner, every probed
    /// lattice point with its bound and generation, and every pruning
    /// decision. Equal digests mean the searches took identical paths to
    /// identical winners. Cache hit rates and timings are deliberately
    /// excluded: they vary with cache state, the trace must not.
    #[must_use]
    pub fn digest(&self) -> Digest {
        let mut h = Hasher::new();
        for node in &self.nodes {
            h.str(&node.unit)
                .str(&node.winner.label)
                .u32(u32::from(node.winner.bits))
                .u64(node.winner.wcet)
                .u32(node.generations);
            h.u32(node.probed.len() as u32);
            for p in &node.probed {
                h.str(&p.label)
                    .u32(u32::from(p.bits))
                    .u64(p.wcet)
                    .u32(p.generation);
            }
            h.u32(node.pruned.len() as u32);
            for d in &node.pruned {
                h.str(d.flag).u32(d.trials).u32(d.generation);
            }
        }
        Digest(h.finish())
    }
}

impl fmt::Display for SearchResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "search {} units: {} probes, {} pruned flags, {:.1}% cache hits",
            self.nodes.len(),
            self.total_probes(),
            self.total_pruned(),
            self.stats.hit_rate() * 100.0,
        )
    }
}

/// The per-unit search state while generations run.
struct UnitSearch {
    /// Probes in probe order.
    probed: Vec<ProbedConfig>,
    /// bits → index into `probed`.
    index: BTreeMap<u16, usize>,
    /// label → bits, to keep labels injective.
    labels: BTreeMap<String, u16>,
    /// Winner index into `probed` (first strict minimum).
    winner: usize,
    /// The winner's artifact.
    artifact: Option<Arc<Artifact>>,
    /// Frontier of the *next* expansion: bits, in probe order.
    frontier: Vec<u16>,
    /// Per-flag pruned marker.
    flag_pruned: [bool; LATTICE_FLAGS.len()],
    /// Pruning decisions, in firing order.
    pruned: Vec<PrunedFlag>,
    generations: u32,
}

impl UnitSearch {
    fn new() -> UnitSearch {
        UnitSearch {
            probed: Vec::new(),
            index: BTreeMap::new(),
            labels: BTreeMap::new(),
            winner: 0,
            artifact: None,
            frontier: Vec::new(),
            flag_pruned: [false; LATTICE_FLAGS.len()],
            pruned: Vec::new(),
            generations: 0,
        }
    }

    /// A unique display label for `bits` (canonical name, de-collided
    /// against seed labels if necessary).
    fn label_for(&self, bits: u16) -> String {
        let canonical = describe_bits(bits);
        match self.labels.get(&canonical) {
            Some(&taken) if taken != bits => format!("{canonical}#{bits:03x}"),
            _ => canonical,
        }
    }

    /// Records one probe's result; updates the winner (strictly-less
    /// scan: the first minimum wins ties).
    fn record(
        &mut self,
        label: String,
        bits: u16,
        wcet: u64,
        generation: u32,
        parent: Option<String>,
        artifact: &Arc<Artifact>,
    ) {
        let idx = self.probed.len();
        self.labels.insert(label.clone(), bits);
        self.index.insert(bits, idx);
        self.probed.push(ProbedConfig {
            label,
            bits,
            passes: bits_config(bits),
            wcet,
            generation,
            parent,
        });
        if self.artifact.is_none() || wcet < self.probed[self.winner].wcet {
            self.winner = idx;
            self.artifact = Some(Arc::clone(artifact));
        }
    }

    /// Scans every probed `(c, c|F)` pair and prunes flags that never
    /// helped across at least [`PRUNE_TRIALS`] contexts.
    fn update_pruning(&mut self, generation: u32) {
        for (i, flag) in LATTICE_FLAGS.iter().enumerate() {
            if self.flag_pruned[i] {
                continue;
            }
            let mask = 1u16 << i;
            let mut trials = 0u32;
            let mut helped = false;
            for (&bits, &without) in &self.index {
                if bits & mask != 0 {
                    continue;
                }
                if let Some(&with) = self.index.get(&(bits | mask)) {
                    trials += 1;
                    if self.probed[with].wcet < self.probed[without].wcet {
                        helped = true;
                        break;
                    }
                }
            }
            if trials >= PRUNE_TRIALS && !helped {
                self.flag_pruned[i] = true;
                self.pruned.push(PrunedFlag {
                    flag,
                    trials,
                    generation,
                });
            }
        }
    }

    /// The next generation's probe list: every frontier config expanded
    /// by one flag flip, skipping probed points, duplicate schedules and
    /// flips that *enable* a pruned flag.
    fn expansions(&self) -> Vec<(u16, u16)> {
        let mut scheduled: Vec<(u16, u16)> = Vec::new();
        let mut seen: BTreeMap<u16, ()> = BTreeMap::new();
        for &from in &self.frontier {
            for (i, _) in LATTICE_FLAGS.iter().enumerate() {
                let mask = 1u16 << i;
                let to = from ^ mask;
                let enabling = to & mask != 0;
                if enabling && self.flag_pruned[i] {
                    continue;
                }
                if self.index.contains_key(&to) || seen.contains_key(&to) {
                    continue;
                }
                seen.insert(to, ());
                scheduled.push((to, from));
            }
        }
        scheduled
    }

    fn finish(mut self, unit: String, stats: PipelineStats) -> NodeSearch {
        let winner = self.probed[self.winner].clone();
        NodeSearch {
            unit,
            winner,
            artifact: self.artifact.take().expect("at least one probe"),
            probed: self.probed,
            pruned: self.pruned,
            generations: self.generations,
            stats,
        }
    }
}

impl Pipeline {
    /// Runs the WCET-guided lattice search of a [`SearchSpec`]: per unit,
    /// a deterministic frontier search from the seed configs, one batched
    /// probe sweep per generation, dominance pruning recorded in the
    /// result. Every probe keeps `validators: true`.
    ///
    /// # Errors
    ///
    /// The first [`PipelineError`] any probe hit.
    pub fn search_wcet(&self, spec: &SearchSpec) -> Result<SearchResult, PipelineError> {
        let seeds = if spec.seeds.is_empty() {
            SearchSpec::default_seeds()
        } else {
            spec.seeds.clone()
        };
        let machine = spec
            .machine
            .clone()
            .unwrap_or_else(|| ("default".to_owned(), MachineConfig::mpc755()));

        // one epoch for the whole search: every generation's spans land on
        // a single timeline
        let epoch = Instant::now();
        let mut trace = RunTrace::new();
        let mut nodes = Vec::with_capacity(spec.units.len());
        for unit in &spec.units {
            nodes.push(self.search_unit(unit, &seeds, &machine, epoch, &mut trace)?);
        }
        // units search sequentially: the search's wall is their sum
        let stats = PipelineStats {
            wall_ns: nodes
                .iter()
                .map(|n| n.stats.wall_ns)
                .fold(0, u64::saturating_add),
            ..PipelineStats::from_spans(trace.spans())
        };
        Ok(SearchResult {
            nodes,
            stats,
            trace,
        })
    }

    /// One unit's frontier search. Sweep spans and provenance events
    /// append to `trace`, timestamped against the search-wide `epoch`.
    fn search_unit(
        &self,
        unit: &SweepUnit,
        seeds: &[(String, PassConfig)],
        machine: &(String, MachineConfig),
        epoch: Instant,
        trace: &mut RunTrace,
    ) -> Result<NodeSearch, PipelineError> {
        let now_ns = || saturating_nanos(Instant::now().saturating_duration_since(epoch));
        let first_span = trace.spans().len();
        let mut state = UnitSearch::new();

        // Generation 0: the seed frontier. Seeds sharing lattice
        // coordinates (duplicate bit patterns under different labels)
        // probe once and report under the first label.
        let mut seed_batch: Vec<(String, u16)> = Vec::new();
        for (label, passes) in seeds {
            let bits = config_bits(passes);
            if !seed_batch.iter().any(|(_, b)| *b == bits) {
                seed_batch.push((label.clone(), bits));
            }
        }
        trace.push(Span::event(
            "search:generation",
            0,
            now_ns(),
            &format!("unit={} gen=0 probes={}", unit.name, seed_batch.len()),
        ));
        let results = self.probe_batch(unit, machine, &seed_batch, epoch)?;
        let mut wall_sum = results.wall_ns;
        trace.merge(results.trace);
        for ((label, bits), (wcet, artifact)) in seed_batch.iter().zip(&results.cells) {
            state.record(label.clone(), *bits, *wcet, 0, None, artifact);
            state.frontier.push(*bits);
        }
        state.generations = 1;

        // Expansion generations: flood downhill until the frontier dries up.
        loop {
            let pruned_before = state.pruned.len();
            state.update_pruning(state.generations - 1);
            for d in &state.pruned[pruned_before..] {
                trace.push(Span::event(
                    "search:pruned-flag",
                    0,
                    now_ns(),
                    &format!(
                        "unit={} flag={} trials={} gen={}",
                        unit.name, d.flag, d.trials, d.generation
                    ),
                ));
            }
            let scheduled = state.expansions();
            if scheduled.is_empty() {
                break;
            }
            let generation = state.generations;
            let batch: Vec<(String, u16)> = scheduled
                .iter()
                .map(|&(bits, _)| (state.label_for(bits), bits))
                .collect();
            trace.push(Span::event(
                "search:generation",
                0,
                now_ns(),
                &format!("unit={} gen={generation} probes={}", unit.name, batch.len()),
            ));
            let results = self.probe_batch(unit, machine, &batch, epoch)?;
            wall_sum = wall_sum.saturating_add(results.wall_ns);
            trace.merge(results.trace);
            let mut next_frontier = Vec::new();
            for (((label, bits), &(_, parent)), (wcet, artifact)) in
                batch.iter().zip(&scheduled).zip(&results.cells)
            {
                let parent_idx = state.index[&parent];
                let parent_label = state.probed[parent_idx].label.clone();
                let parent_wcet = state.probed[parent_idx].wcet;
                let flipped = LATTICE_FLAGS[(bits ^ parent).trailing_zeros() as usize];
                trace.push(Span::event(
                    "search:probe",
                    0,
                    now_ns(),
                    &format!("unit={} config={label} flipped={flipped}", unit.name),
                ));
                state.record(
                    label.clone(),
                    *bits,
                    *wcet,
                    generation,
                    Some(parent_label),
                    artifact,
                );
                if *wcet < parent_wcet {
                    trace.push(Span::event(
                        "search:admitted",
                        0,
                        now_ns(),
                        &format!("unit={} config={label}", unit.name),
                    ));
                    next_frontier.push(*bits);
                }
            }
            state.frontier = next_frontier;
            state.generations += 1;
        }
        // the generations ran sequentially, so the unit's wall is the sum
        // of their sweeps' clocks
        let stats = PipelineStats {
            wall_ns: wall_sum,
            ..PipelineStats::from_spans(&trace.spans()[first_span..])
        };
        Ok(state.finish(unit.name.clone(), stats))
    }

    /// Probes one batch of lattice points as a single sweep (1 unit × k
    /// configs × 1 machine) and returns `(wcet, artifact)` per point, in
    /// batch order.
    fn probe_batch(
        &self,
        unit: &SweepUnit,
        machine: &(String, MachineConfig),
        batch: &[(String, u16)],
        epoch: Instant,
    ) -> Result<ProbeBatch, PipelineError> {
        let mut sweep = SweepSpec::new()
            .unit(unit.clone())
            .machine(&machine.0, &machine.1);
        for (label, bits) in batch {
            sweep = sweep.config(label, &bits_config(*bits));
        }
        let mut result = self.run_sweep_at(&sweep, epoch)?;
        Ok(ProbeBatch {
            cells: result
                .cells()
                .iter()
                .map(|c| (c.wcet(), Arc::clone(&c.outcome.artifact)))
                .collect(),
            trace: result.take_trace(),
            wall_ns: result.stats.wall_ns,
        })
    }
}

/// One generation's probe results, in batch order, with the spans and
/// the wall clock of their sweep.
struct ProbeBatch {
    cells: Vec<(u64, Arc<Artifact>)>,
    trace: RunTrace,
    wall_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vericomp_dataflow::fleet;

    #[test]
    fn bits_roundtrip_and_labels() {
        let verified = PassConfig::for_level(OptLevel::Verified);
        let full = PassConfig::for_level(OptLevel::OptFull);
        assert_eq!(bits_config(config_bits(&verified)), verified);
        assert_eq!(bits_config(config_bits(&full)), full);
        // validators is not a lattice coordinate
        let unvalidated = PassConfig {
            validators: false,
            ..full
        };
        assert_eq!(config_bits(&unvalidated), config_bits(&full));
        // every lattice point round-trips and has validators pinned
        for bits in 0..LATTICE_SIZE as u16 {
            let p = bits_config(bits);
            assert!(p.validators);
            assert_eq!(config_bits(&p), bits);
        }
        assert_eq!(describe_bits(config_bits(&verified)), "verified");
        assert_eq!(describe_bits(config_bits(&full)), "opt-full");
        assert_eq!(
            describe_bits(config_bits(&PassConfig {
                strength: true,
                ..verified
            })),
            "verified+strength"
        );
        assert_eq!(
            describe_bits(config_bits(&PassConfig { sda: false, ..full })),
            "opt-full-sda"
        );
        // opt-full minus schedule+sda IS verified+strength: the nearer
        // anchor names it
        assert_eq!(
            describe_bits(config_bits(&PassConfig {
                schedule: false,
                sda: false,
                ..full
            })),
            "verified+strength"
        );
        // labels are injective: distinct bits never share a label
        let mut seen = std::collections::BTreeMap::new();
        for bits in 0..LATTICE_SIZE as u16 {
            let label = describe_bits(bits);
            assert!(
                seen.insert(label.clone(), bits).is_none(),
                "label `{label}` names two lattice points"
            );
        }
    }

    #[test]
    fn search_beats_or_matches_every_seed_and_pins_validators() {
        let nodes: Vec<_> = fleet::named_suite().into_iter().take(3).collect();
        let spec = SearchSpec::new().nodes(&nodes);
        let result = Pipeline::in_memory().search_wcet(&spec).expect("search");
        assert_eq!(result.nodes.len(), 3);
        for node in &result.nodes {
            // winner never worse than any probe, in particular any seed
            for p in &node.probed {
                assert!(node.winner.wcet <= p.wcet, "{}: winner beaten", node.unit);
                assert!(p.passes.validators, "{}: unvalidated probe", node.unit);
            }
            // seeds probe first
            assert_eq!(node.probed[0].label, "verified");
            assert_eq!(node.probed[0].generation, 0);
            assert!(node.generations >= 1);
            // the winner artifact matches the winner's recorded bound
            assert_eq!(node.artifact.report.wcet, node.winner.wcet);
            assert!(node.artifact.verdict.allocation_checked);
        }
    }

    #[test]
    fn duplicate_seed_bits_probe_once_under_the_first_label() {
        let nodes: Vec<_> = fleet::named_suite().into_iter().take(1).collect();
        let verified = PassConfig::for_level(OptLevel::Verified);
        let spec = SearchSpec::new()
            .nodes(&nodes)
            .seed("verified", &verified)
            .seed("verified-again", &verified);
        let result = Pipeline::in_memory().search_wcet(&spec).expect("search");
        let node = &result.nodes[0];
        let seeds: Vec<_> = node.probed.iter().filter(|p| p.generation == 0).collect();
        assert_eq!(seeds.len(), 1, "duplicate seed bits probed twice");
        assert_eq!(seeds[0].label, "verified");
        assert!(node.probed.iter().all(|p| p.label != "verified-again"));
        assert_eq!(node.wcet_of(&verified), Some(seeds[0].wcet));
    }

    #[test]
    fn warm_research_replays_every_probe_and_keeps_the_digest() {
        let nodes: Vec<_> = fleet::named_suite().into_iter().take(2).collect();
        let spec = SearchSpec::new().nodes(&nodes);
        let pipeline = Pipeline::in_memory();
        let cold = pipeline.search_wcet(&spec).expect("cold search");
        let warm = pipeline.search_wcet(&spec).expect("warm search");
        assert_eq!(cold.digest(), warm.digest(), "search trace diverged");
        assert_eq!(warm.stats.jobs_run, 0);
        assert_eq!(warm.stats.jobs_cached, cold.stats.jobs_total());
        assert!(warm.stats.hit_rate() > 0.99);
        // hit rates differ between the runs, the digest must not care
        assert!(cold.stats.hit_rate() < warm.stats.hit_rate());
        // the aggregates are the figures of the spans: the whole trace's
        // for the search, with the units' summed walls, and each unit's
        // own share of it
        for result in [&cold, &warm] {
            let expected = PipelineStats {
                wall_ns: result.nodes.iter().map(|n| n.stats.wall_ns).sum(),
                ..PipelineStats::from_spans(result.trace().spans())
            };
            assert_eq!(result.stats, expected);
            let unit_jobs: u64 = result.nodes.iter().map(|n| n.stats.jobs_total()).sum();
            assert_eq!(unit_jobs, result.stats.jobs_total());
        }
    }

    #[test]
    fn one_node_edit_researches_only_that_node() {
        let suite = fleet::named_suite();
        let pipeline = Pipeline::in_memory();
        let cold = pipeline
            .search_wcet(&SearchSpec::new().nodes(&suite[..3]))
            .expect("cold search");
        let mut edited = suite[..3].to_vec();
        edited[0] = suite[3].clone();
        let warm = pipeline
            .search_wcet(&SearchSpec::new().nodes(&edited))
            .expect("re-search");
        assert_eq!(warm.nodes[0].stats.jobs_cached, 0, "the new node hit");
        for (old, new) in cold.nodes[1..].iter().zip(&warm.nodes[1..]) {
            assert_eq!(new.stats.jobs_run, 0, "{}: clean node compiled", new.unit);
            assert_eq!(new.winner, old.winner, "{}: winner moved", new.unit);
            assert_eq!(new.probed, old.probed, "{}: probes moved", new.unit);
        }
    }

    #[test]
    fn pruning_decisions_are_recorded_and_audited() {
        // search enough nodes that at least one flag gets pruned on at
        // least one node (schedule/sda typically never help the bound)
        let nodes: Vec<_> = fleet::named_suite().into_iter().take(4).collect();
        let spec = SearchSpec::new().nodes(&nodes);
        let result = Pipeline::in_memory().search_wcet(&spec).expect("search");
        assert!(
            result.total_pruned() > 0,
            "dominance pruning never fired across {} nodes",
            result.nodes.len()
        );
        for node in &result.nodes {
            for d in &node.pruned {
                assert!(LATTICE_FLAGS.contains(&d.flag));
                assert!(d.trials >= 2, "pruned below the trial floor");
                // audit: re-derive the decision from the probe trace —
                // enabling the flag must never have reduced the bound
                // among pairs probed at decision time
                let i = LATTICE_FLAGS.iter().position(|f| *f == d.flag).unwrap();
                let mask = 1u16 << i;
                let at_decision: Vec<_> = node
                    .probed
                    .iter()
                    .filter(|p| p.generation <= d.generation)
                    .collect();
                for p in &at_decision {
                    if p.bits & mask != 0 {
                        continue;
                    }
                    if let Some(with) = at_decision.iter().find(|q| q.bits == p.bits | mask) {
                        assert!(
                            with.wcet >= p.wcet,
                            "{}: {} was pruned but helped ({} < {})",
                            node.unit,
                            d.flag,
                            with.wcet,
                            p.wcet
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_units_yield_empty_result() {
        let result = Pipeline::in_memory()
            .search_wcet(&SearchSpec::new())
            .expect("empty search");
        assert!(result.nodes.is_empty());
        assert_eq!(result.total_probes(), 0);
        assert_eq!(result.stats.jobs_total(), 0);
    }
}
