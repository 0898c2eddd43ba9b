//! Configuration optimization per method (Problem 1) and the 17-method
//! sweep behind Table VII.
//!
//! Each `run_*` function fine-tunes one technique on one dataset view with
//! respect to the recall target through the [`er::core::optimize`] driver,
//! then re-executes the winning configuration to obtain honest run-time
//! phase breakdowns. Stochastic methods (MinHash/HP/CP-LSH, DeepBlocker)
//! are additionally averaged over `reps` seeds, as the paper averages 10
//! repetitions.

use er::blocking::{comparison_propagation, BlockingWorkflow, ComparisonCleaning, WorkflowKind};
use er::core::artifacts::{ArtifactCache, ArtifactKey};
use er::core::dataset::GroundTruth;
use er::core::filter::Prepared;
use er::core::guard::{self, FailReason, Limits, RunOutcome};
use er::core::metrics::{evaluate, Effectiveness};
use er::core::optimize::{GridResolution, OptimizationOutcome, Optimizer};
use er::core::parallel::{self, Threads};
use er::core::schema::TextView;
use er::core::timing::PhaseBreakdown;
use er::core::{faults, Filter, QueryRankings};
use er::dense::{
    grid as dense_grid, CrossPolytopeLsh, DeepBlocker, DeepBlockerConfig, EmbeddingConfig, FlatKnn,
    HyperplaneLsh, MinHashLsh, PartitionedKnn,
};
use er::sparse::{
    dknn_baseline, epsilon_grid, knn_grid, EpsilonJoin, KnnJoin, ScanCountScratch,
    SimilarityMeasure, TokenSetsArtifact,
};
use std::time::Duration;

/// Shared per-(dataset, schema-setting) evaluation context.
pub struct Context<'a> {
    /// The extracted per-entity texts.
    pub view: &'a TextView,
    /// The duplicate pairs.
    pub gt: &'a GroundTruth,
    /// The Problem 1 optimizer (recall target + guard limits).
    pub optimizer: Optimizer,
    /// Grid resolution.
    pub resolution: GridResolution,
    /// Embedding configuration for the dense methods.
    pub embedding: EmbeddingConfig,
    /// Base seed.
    pub seed: u64,
    /// Stochastic-method repetitions.
    pub reps: usize,
    /// Column label (e.g. `"Da2"`); keys fault-injection sites and
    /// checkpoint records for this (dataset, schema-setting).
    pub label: String,
    /// The shared prepare-stage artifact cache: grid points with equal
    /// representation keys on this dataset share one preparation.
    pub cache: &'a ArtifactCache,
    /// The dataset fingerprint half of every artifact key.
    pub dataset_fp: u64,
}

impl<'a> Context<'a> {
    /// A context with default sweep parameters; callers override fields
    /// via struct update syntax (`Context { seed: 7, ..Context::new(..) }`).
    pub fn new(view: &'a TextView, gt: &'a GroundTruth, cache: &'a ArtifactCache) -> Context<'a> {
        Context {
            view,
            gt,
            optimizer: Optimizer::default(),
            resolution: GridResolution::Quick,
            embedding: EmbeddingConfig::default(),
            seed: 0,
            reps: 1,
            label: String::new(),
            cache,
            dataset_fp: view.fingerprint(),
        }
    }

    /// The per-grid-point guard limits of the sweep.
    pub fn limits(&self) -> Limits {
        self.optimizer.limits
    }

    fn target(&self) -> f64 {
        self.optimizer.target.0
    }

    fn eval(&self, filter: &dyn Filter) -> (Effectiveness, PhaseBreakdown) {
        let out = er::core::filter::run_hooked(filter, self.view);
        (evaluate(&out.candidates, self.gt), out.breakdown)
    }

    /// Query-stage evaluation against a shared prepare artifact.
    fn eval_query(
        &self,
        filter: &dyn Filter,
        prepared: &Prepared,
    ) -> (Effectiveness, PhaseBreakdown) {
        let out = filter.query(self.view, prepared);
        (evaluate(&out.candidates, self.gt), out.breakdown)
    }

    /// Runs a filter's prepare stage, firing the `prepare/<repr>`
    /// fault-injection site first so sweeps can be tested against
    /// prepare-time crashes.
    fn prepare(&self, filter: &dyn Filter) -> Prepared {
        if faults::enabled() {
            faults::fire(&format!("prepare/{}", filter.repr_key()));
        }
        filter.prepare(self.view)
    }

    /// The prepare artifact shared by `group` (configurations with one
    /// representation key), fetched through the shared cache by
    /// [`Optimizer::fetch_prepared`]; `None` once the whole group is
    /// recorded as failed.
    fn fetch<C: Filter + Clone>(
        &self,
        group: &[C],
        out: &mut OptimizationOutcome<C>,
    ) -> Option<Prepared> {
        let probe = &group[0];
        let key = ArtifactKey::new(self.dataset_fp, probe.repr_key());
        self.optimizer
            .fetch_prepared(self.cache, key, || self.prepare(probe), group, out)
    }
}

/// The optimized result of one method on one dataset view.
#[derive(Debug, Clone)]
pub struct MethodOutcome {
    /// Method name as printed in Table VII.
    pub method: String,
    /// Pair completeness of the reported configuration.
    pub pc: f64,
    /// Pairs quality.
    pub pq: f64,
    /// Candidate count `|C|` (averaged for stochastic methods).
    pub candidates: f64,
    /// Overall run-time of the reported configuration.
    pub runtime: Duration,
    /// Phase breakdown of the reported configuration.
    pub breakdown: PhaseBreakdown,
    /// True if the recall target was met.
    pub feasible: bool,
    /// One-line description of the winning configuration.
    pub config: String,
    /// Number of configurations evaluated during optimization.
    pub evaluated: usize,
    /// `Some(reason)` if this grid point failed (panic, timeout or budget)
    /// instead of producing a measurement; the measures are then zero and
    /// `runtime` holds the elapsed time until the failure.
    pub error: Option<String>,
}

impl MethodOutcome {
    /// A structured failure row: the grid point was attempted but did not
    /// produce a measurement.
    pub fn failed(method: &str, reason: &FailReason, elapsed: Duration) -> MethodOutcome {
        MethodOutcome {
            method: method.to_owned(),
            pc: 0.0,
            pq: 0.0,
            candidates: 0.0,
            runtime: elapsed,
            breakdown: PhaseBreakdown::new(),
            feasible: false,
            config: "-".to_owned(),
            evaluated: 0,
            error: Some(reason.to_string()),
        }
    }

    /// True if this row carries a measurement (no failure recorded).
    pub fn is_measured(&self) -> bool {
        self.error.is_none()
    }
}

/// Folds a sweep whose configurations *all* failed under guards into one
/// failure row carrying the first failure's reason and the total elapsed
/// time spent attempting.
fn all_failed<C>(method: &str, opt: &OptimizationOutcome<C>) -> MethodOutcome {
    let elapsed = opt.failures.iter().map(|f| f.elapsed).sum();
    match opt.failures.first() {
        Some(f) => MethodOutcome::failed(method, &f.reason, elapsed),
        None => MethodOutcome::failed(
            method,
            &FailReason::Panicked("no configuration evaluated".to_owned()),
            elapsed,
        ),
    }
}

/// The measured row of a reported configuration: `measure(seed)` runs it
/// once per repetition seed (`reps` of them) and the measures are
/// averaged. `feasible` is the sweep's verdict; `None` judges the averaged
/// PC instead.
fn measured(
    ctx: &Context<'_>,
    method: &str,
    config: String,
    evaluated: usize,
    feasible: Option<bool>,
    reps: usize,
    measure: impl Fn(u64) -> (Effectiveness, PhaseBreakdown),
) -> MethodOutcome {
    let (mut pc, mut pq, mut candidates) = (0.0, 0.0, 0.0);
    let mut runtime = Duration::ZERO;
    let mut breakdown = PhaseBreakdown::new();
    for rep in 0..reps {
        let (eff, bd) = measure(ctx.seed.wrapping_add(rep as u64));
        pc += eff.pc;
        pq += eff.pq;
        candidates += eff.candidates as f64;
        runtime += bd.total();
        breakdown.merge(&bd);
    }
    let n = reps as f64;
    MethodOutcome {
        method: method.to_owned(),
        pc: pc / n,
        pq: pq / n,
        candidates: candidates / n,
        runtime: runtime / reps as u32,
        breakdown,
        feasible: feasible.unwrap_or(pc / n >= ctx.target()),
        config,
        evaluated,
        error: None,
    }
}

/// A deterministic method's row: its champion, re-run once.
fn tuned<C: Filter>(
    ctx: &Context<'_>,
    method: &str,
    opt: &OptimizationOutcome<C>,
    describe: impl Fn(&C) -> String,
) -> MethodOutcome {
    let Some(best) = opt.best() else {
        return all_failed(method, opt);
    };
    let feasible = Some(opt.is_feasible());
    measured(
        ctx,
        method,
        describe(&best.config),
        opt.evaluated,
        feasible,
        1,
        |_| ctx.eval(&best.config),
    )
}

/// A stochastic method's row: its champion averaged over `reps` seeds.
fn stochastic<C: Filter>(
    ctx: &Context<'_>,
    method: &str,
    opt: &OptimizationOutcome<C>,
    describe: impl Fn(&C) -> String,
    with_seed: impl Fn(&C, u64) -> C,
) -> MethodOutcome {
    let Some(best) = opt.best() else {
        return all_failed(method, opt);
    };
    measured(
        ctx,
        method,
        describe(&best.config),
        opt.evaluated,
        None,
        ctx.reps,
        |seed| ctx.eval(&with_seed(&best.config, seed)),
    )
}

/// A baseline's row: its fixed configuration, measured once.
fn fixed(ctx: &Context<'_>, method: &str, f: &dyn Filter, config: String) -> MethodOutcome {
    measured(ctx, method, config, 1, None, 1, |_| ctx.eval(f))
}

/// The first-feasible sweep over ordered groups of configurations that
/// share one prepare artifact each: a group's artifact comes through the
/// cache (a failing prepare fails the whole group), `derive` turns it into
/// the group's state once (a histogram, rankings, or the artifact itself),
/// and the group's sweep stops at its first feasible configuration.
fn first_feasible_groups<C: Filter + Clone + Sync, S: Sync>(
    ctx: &Context<'_>,
    threads: usize,
    groups: impl IntoIterator<Item = Vec<C>>,
    derive: impl Fn(&[C], &Prepared) -> S,
    eval: impl Fn(&S, &C) -> (Effectiveness, PhaseBreakdown) + Sync,
) -> OptimizationOutcome<C> {
    let mut outcome = OptimizationOutcome::default();
    for group in groups {
        guard::checkpoint();
        let Some(prepared) = ctx.fetch(&group, &mut outcome) else {
            continue;
        };
        let state = derive(&group, &prepared);
        let eval = |cfg: &C| eval(&state, cfg);
        ctx.optimizer
            .first_feasible(threads, group, eval, &mut outcome);
    }
    outcome
}

// ---------------------------------------------------------------------------
// Blocking workflows
// ---------------------------------------------------------------------------

/// Fine-tunes one blocking workflow family (SBW/QBW/EQBW/SABW/ESABW).
///
/// Raw block building — the representation-dependent step — goes through
/// the shared artifact cache once per run of configurations with one
/// builder (the artifact key is the builder's), so every purge / filter /
/// cleaning combination over one builder shares one collection, as does a
/// later warm sweep. The cleaned collection, the blocking graph and the
/// weighted edges remain local caches matching the grid's loop nesting.
pub fn run_blocking_family(ctx: &Context<'_>, kind: WorkflowKind) -> MethodOutcome {
    use er::blocking::{
        block_filtering, block_purging, BlockCollection, BlockingGraph, WeightingScheme,
    };
    let grid = kind.grid(ctx.resolution);
    let mut outcome = OptimizationOutcome::default();
    let mut rest = &grid[..];
    while let Some(first) = rest.first() {
        let run = rest.iter().take_while(|wf| wf.builder == first.builder);
        let (group, tail) = rest.split_at(run.count());
        rest = tail;
        guard::checkpoint();
        let Some(prepared) = ctx.fetch(group, &mut outcome) else {
            continue;
        };
        let raw_blocks = prepared.downcast::<BlockCollection>();
        // Cleaned blocks per (purge, ratio); the blocking graph per cleaned
        // blocks; weighted edges per (graph, scheme).
        let mut cleaned: Option<(&BlockingWorkflow, Option<BlockCollection>)> = None;
        let mut graph_cache: Option<BlockingGraph> = None;
        let mut edges_cache: Option<(WeightingScheme, Vec<er::blocking::metablocking::Edge>)> =
            None;
        for wf in group {
            // Cooperative deadline check once per configuration: an armed
            // method-level guard can time the sweep out between grid points.
            guard::checkpoint();
            let prefix_matches = cleaned.as_ref().is_some_and(|(prev, _)| {
                prev.purge == wf.purge && prev.filter_ratio == wf.filter_ratio
            });
            if !prefix_matches {
                let mut b: Option<BlockCollection> = None;
                if wf.purge {
                    b = Some(block_purging(raw_blocks));
                }
                if let Some(r) = wf.filter_ratio {
                    if r < 1.0 {
                        b = Some(block_filtering(b.as_ref().unwrap_or(raw_blocks), r));
                    }
                }
                cleaned = Some((wf, b));
                graph_cache = None;
                edges_cache = None;
            }
            let (_, cleaned_blocks) = cleaned.as_ref().expect("cache just refreshed");
            let blocks = cleaned_blocks.as_ref().unwrap_or(raw_blocks);
            let candidates = match &wf.cleaning {
                ComparisonCleaning::Propagation => comparison_propagation(blocks),
                ComparisonCleaning::Meta(mb) => {
                    let graph = graph_cache.get_or_insert_with(|| BlockingGraph::build(blocks));
                    let reuse = edges_cache
                        .as_ref()
                        .is_some_and(|(scheme, _)| *scheme == mb.scheme);
                    if !reuse {
                        edges_cache = Some((mb.scheme, graph.weighted_edges(mb.scheme)));
                    }
                    let (_, edges) = edges_cache.as_ref().expect("edges just refreshed");
                    graph.prune(edges, mb.pruning)
                }
            };
            let eff = evaluate(&candidates, ctx.gt);
            let result = RunOutcome::Ok((eff, PhaseBreakdown::new()));
            outcome.record(wf.clone(), result, ctx.target());
        }
    }
    tuned(ctx, kind.acronym(), &outcome, BlockingWorkflow::describe)
}

/// The Parameter-free Blocking Workflow baseline.
pub fn run_pbw(ctx: &Context<'_>) -> MethodOutcome {
    let wf = BlockingWorkflow::pbw();
    fixed(ctx, "PBW", &wf, wf.describe())
}

/// The Default Blocking Workflow baseline.
pub fn run_dbw(ctx: &Context<'_>) -> MethodOutcome {
    let wf = BlockingWorkflow::dbw();
    fixed(ctx, "DBW", &wf, wf.describe())
}

// ---------------------------------------------------------------------------
// Sparse NN methods
// ---------------------------------------------------------------------------

/// Similarity histogram bins used for the ε-Join threshold sweep.
pub const SIM_BINS: usize = 1000;

/// Fine-tunes the ε-Join.
///
/// For each `(CL, SM, RM)` combination one ScanCount pass histograms every
/// overlapping pair's similarity into [`SIM_BINS`] bins split by
/// duplicate/non-duplicate; each threshold of the descending sweep is then
/// a suffix sum — the whole sweep costs one join instead of one per
/// threshold. Tokenization and the ScanCount index come from the shared
/// artifact cache: every similarity measure (and the kNN-Join) over the
/// same (CL, RM) reuses one preparation.
pub fn run_epsilon(ctx: &Context<'_>) -> MethodOutcome {
    let total_dups = ctx.gt.len().max(1) as f64;
    // A threshold costs one suffix-sum lookup: one thread is plenty.
    let outcome = first_feasible_groups(
        ctx,
        1,
        epsilon_grid(ctx.resolution),
        |group, prepared| similarity_suffix_sums(ctx, group[0].measure, prepared.downcast()),
        |(totals, dups), cfg| {
            let bin = ((cfg.threshold * SIM_BINS as f64) - 1e-9).ceil().max(0.0) as usize;
            let bin = bin.min(SIM_BINS);
            let candidates = totals[bin] as usize;
            let found = dups[bin] as usize;
            let eff = Effectiveness {
                pc: found as f64 / total_dups,
                pq: if candidates == 0 {
                    0.0
                } else {
                    found as f64 / candidates as f64
                },
                candidates,
                duplicates_found: found,
            };
            (eff, PhaseBreakdown::new())
        },
    );
    tuned(ctx, "e-Join", &outcome, EpsilonJoin::describe)
}

/// Candidates and duplicates with similarity at or above each of the
/// [`SIM_BINS`] bin boundaries under `measure`. Each worker chunk
/// accumulates its own partial histogram; the `u64` partials merge in
/// chunk order (addition is exact, so the result is thread-count-invariant
/// either way).
fn similarity_suffix_sums(
    ctx: &Context<'_>,
    measure: SimilarityMeasure,
    art: &TokenSetsArtifact,
) -> (Vec<u64>, Vec<u64>) {
    let index = &art.index;
    let chunk = parallel::query_chunk_len(art.query_sets.len());
    let partials = parallel::par_map_chunks_with(
        Threads::get(),
        art.query_sets.set_sizes(),
        chunk,
        |offset, part| {
            let mut scratch = ScanCountScratch::default();
            let mut hits: Vec<(u32, u32)> = Vec::new();
            let mut totals = vec![0u64; SIM_BINS + 1];
            let mut dups = vec![0u64; SIM_BINS + 1];
            for (local, &size) in part.iter().enumerate() {
                let j = (offset + local) as u32;
                let qlen = size as usize;
                index.query_row_with(&mut scratch, &art.query_sets, j as usize, &mut hits);
                for &(i, overlap) in &hits {
                    let sim = measure.compute(overlap as usize, index.set_size(i), qlen);
                    let bin = ((sim * SIM_BINS as f64).floor() as usize).min(SIM_BINS);
                    totals[bin] += 1;
                    if ctx.gt.contains(er::core::Pair::new(i, j)) {
                        dups[bin] += 1;
                    }
                }
            }
            (totals, dups)
        },
    );
    let mut totals = vec![0u64; SIM_BINS + 1];
    let mut dups = vec![0u64; SIM_BINS + 1];
    for (t, d) in partials {
        for b in 0..=SIM_BINS {
            totals[b] += t[b];
            dups[b] += d[b];
        }
    }
    for b in (0..SIM_BINS).rev() {
        totals[b] += totals[b + 1];
        dups[b] += dups[b + 1];
    }
    (totals, dups)
}

/// Fine-tunes the kNN-Join.
///
/// Rankings per `(CL, SM, RM, RVS)` combination are computed once over the
/// cached token-set artifact; the ascending K sweep reads prefixes
/// (distinct-similarity semantics).
pub fn run_knn(ctx: &Context<'_>) -> MethodOutcome {
    let outcome = first_feasible_groups(
        ctx,
        1,
        knn_grid(ctx.resolution),
        |group, prepared| {
            let k_cap = group.last().expect("non-empty K group").k;
            group[0].rankings_from(prepared.downcast(), (k_cap * 2).max(k_cap + 16))
        },
        |rankings, cfg| effectiveness(ctx, rankings.candidates_top_k_distinct(cfg.k)),
    );
    tuned(ctx, "kNN-Join", &outcome, KnnJoin::describe)
}

/// PC/PQ of a candidate set read off shared rankings; the read has no
/// run-time breakdown of its own.
fn effectiveness(
    ctx: &Context<'_>,
    candidates: er::core::CandidateSet,
) -> (Effectiveness, PhaseBreakdown) {
    (evaluate(&candidates, ctx.gt), PhaseBreakdown::new())
}

/// The Default kNN-Join baseline.
pub fn run_dknn(ctx: &Context<'_>) -> MethodOutcome {
    let cfg = dknn_baseline(ctx.view.e1.len(), ctx.view.e2.len());
    fixed(ctx, "DkNN", &cfg, cfg.describe())
}

// ---------------------------------------------------------------------------
// Dense NN methods
// ---------------------------------------------------------------------------

/// Fine-tunes MinHash LSH (grouped grid over `CL × bands/rows × k`). The
/// MinHash representation key spans every parameter, so the grouped sweep
/// degenerates to one prepare per grid point — which still makes a warm
/// re-sweep over the same dataset prepare-free.
pub fn run_minhash(ctx: &Context<'_>) -> MethodOutcome {
    let opt = ctx.optimizer.grid_grouped(
        Threads::get(),
        ctx.cache,
        ctx.dataset_fp,
        dense_grid::minhash_grid(ctx.resolution, ctx.seed),
        |cfg: &MinHashLsh| cfg.repr_key(),
        |cfg| ctx.prepare(cfg),
        |cfg, prepared| ctx.eval_query(cfg, prepared),
    );
    stochastic(ctx, "MH-LSH", &opt, MinHashLsh::describe, |cfg, seed| {
        MinHashLsh { seed, ..*cfg }
    })
}

/// Fine-tunes a probe-swept LSH family (Hyperplane, Cross-Polytope): the
/// representation key excludes the probe count, so each ascending probe
/// sweep shares one set of hash tables.
fn run_probe_lsh<C: Filter + Clone + Sync>(
    ctx: &Context<'_>,
    method: &str,
    groups: Vec<Vec<C>>,
    describe: impl Fn(&C) -> String,
    with_seed: impl Fn(&C, u64) -> C,
) -> MethodOutcome {
    let outcome = first_feasible_groups(
        ctx,
        Threads::get(),
        groups,
        |_, prepared| prepared.clone(),
        |prepared, cfg| ctx.eval_query(cfg, prepared),
    );
    stochastic(ctx, method, &outcome, describe, with_seed)
}

/// Fine-tunes Hyperplane LSH.
pub fn run_hyperplane(ctx: &Context<'_>) -> MethodOutcome {
    let groups = dense_grid::hyperplane_grid(ctx.resolution, ctx.embedding, ctx.seed);
    run_probe_lsh(
        ctx,
        "HP-LSH",
        groups,
        HyperplaneLsh::describe,
        |cfg, seed| HyperplaneLsh { seed, ..*cfg },
    )
}

/// Fine-tunes Cross-Polytope LSH.
pub fn run_crosspolytope(ctx: &Context<'_>) -> MethodOutcome {
    let groups = dense_grid::crosspolytope_grid(ctx.resolution, ctx.embedding, ctx.seed);
    run_probe_lsh(
        ctx,
        "CP-LSH",
        groups,
        CrossPolytopeLsh::describe,
        |cfg, seed| CrossPolytopeLsh { seed, ..*cfg },
    )
}

/// The cardinality-based dense methods: rankings per combination over the
/// cached prepare artifact, then the ascending-K prefix sweep. A failed
/// prepare fails the combination's whole K sweep as structured rows.
fn run_cardinality_dense<C: Filter + Clone + Sync>(
    ctx: &Context<'_>,
    combos: Vec<C>,
    with_k: impl Fn(&C, usize) -> C,
    k_of: impl Fn(&C) -> usize + Sync,
    rankings_of: impl Fn(&C, &Prepared, usize) -> QueryRankings,
) -> OptimizationOutcome<C> {
    let ks = dense_grid::k_sweep(ctx.resolution);
    let k_cap = *ks.last().expect("non-empty sweep");
    let groups = combos
        .iter()
        .map(|c| ks.iter().map(|&k| with_k(c, k)).collect());
    first_feasible_groups(
        ctx,
        1,
        groups,
        |group, prepared| rankings_of(&group[0], prepared, k_cap),
        |rankings, cfg| effectiveness(ctx, rankings.candidates_top_k(k_of(cfg))),
    )
}

/// Fine-tunes the FAISS-equivalent flat kNN.
pub fn run_faiss(ctx: &Context<'_>) -> MethodOutcome {
    let opt = run_cardinality_dense(
        ctx,
        dense_grid::flat_combos(ctx.resolution, ctx.embedding),
        |c, k| FlatKnn { k, ..*c },
        |c| c.k,
        |c, prepared, k_cap| c.rankings_from(prepared.downcast(), k_cap),
    );
    tuned(ctx, "FAISS", &opt, FlatKnn::describe)
}

/// Fine-tunes the SCANN-equivalent partitioned kNN.
pub fn run_scann(ctx: &Context<'_>) -> MethodOutcome {
    let opt = run_cardinality_dense(
        ctx,
        dense_grid::scann_combos(ctx.resolution, ctx.embedding, ctx.seed),
        |c, k| PartitionedKnn { k, ..*c },
        |c| c.k,
        |c, prepared, k_cap| c.rankings_from(prepared.downcast(), k_cap),
    );
    tuned(ctx, "SCANN", &opt, PartitionedKnn::describe)
}

/// Fine-tunes DeepBlocker.
pub fn run_deepblocker(ctx: &Context<'_>) -> MethodOutcome {
    let opt = run_cardinality_dense(
        ctx,
        dense_grid::deepblocker_combos(ctx.resolution, ctx.embedding, ctx.seed),
        |c, k| DeepBlocker::new(DeepBlockerConfig { k, ..c.config }),
        |c| c.config.k,
        |c, prepared, k_cap| c.rankings_from(prepared.downcast(), k_cap),
    );
    stochastic(
        ctx,
        "DeepBlocker",
        &opt,
        DeepBlocker::describe,
        |c, seed| DeepBlocker::new(DeepBlockerConfig { seed, ..c.config }),
    )
}

/// The Default DeepBlocker baseline, averaged over `reps` seeds.
pub fn run_ddb(ctx: &Context<'_>) -> MethodOutcome {
    let cfg = dense_grid::ddb_baseline(
        ctx.view.e1.len(),
        ctx.view.e2.len(),
        ctx.embedding,
        ctx.seed,
    );
    measured(ctx, "DDB", cfg.describe(), 1, None, ctx.reps, |seed| {
        ctx.eval(&DeepBlocker::new(DeepBlockerConfig { seed, ..cfg.config }))
    })
}

// ---------------------------------------------------------------------------
// The full Table VII sweep
// ---------------------------------------------------------------------------

/// One of the 17 methods of the Table VII sweep, in table order.
///
/// A `(column, MethodId)` pair is the sweep's unit of fault isolation and
/// checkpointing: each runs under its own guard, fails independently, and
/// is recorded as one checkpoint line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodId {
    /// Standard Blocking workflow.
    Sbw,
    /// Q-Grams Blocking workflow.
    Qbw,
    /// Extended Q-Grams Blocking workflow.
    Eqbw,
    /// Suffix Arrays Blocking workflow.
    Sabw,
    /// Extended Suffix Arrays Blocking workflow.
    Esabw,
    /// Parameter-free Blocking Workflow baseline.
    Pbw,
    /// Default Blocking Workflow baseline.
    Dbw,
    /// ε-Join.
    Epsilon,
    /// kNN-Join.
    Knn,
    /// Default kNN-Join baseline.
    Dknn,
    /// MinHash LSH.
    MinHash,
    /// Cross-Polytope LSH.
    CrossPolytope,
    /// Hyperplane LSH.
    Hyperplane,
    /// FAISS-equivalent flat kNN.
    Faiss,
    /// SCANN-equivalent partitioned kNN.
    Scann,
    /// DeepBlocker.
    DeepBlocker,
    /// Default DeepBlocker baseline.
    Ddb,
}

impl MethodId {
    /// All methods in the paper's table order.
    pub const ALL: [MethodId; 17] = [
        MethodId::Sbw,
        MethodId::Qbw,
        MethodId::Eqbw,
        MethodId::Sabw,
        MethodId::Esabw,
        MethodId::Pbw,
        MethodId::Dbw,
        MethodId::Epsilon,
        MethodId::Knn,
        MethodId::Dknn,
        MethodId::MinHash,
        MethodId::CrossPolytope,
        MethodId::Hyperplane,
        MethodId::Faiss,
        MethodId::Scann,
        MethodId::DeepBlocker,
        MethodId::Ddb,
    ];

    /// The method name as printed in Table VII (also the checkpoint key).
    pub fn name(self) -> &'static str {
        match self {
            MethodId::Sbw => "SBW",
            MethodId::Qbw => "QBW",
            MethodId::Eqbw => "EQBW",
            MethodId::Sabw => "SABW",
            MethodId::Esabw => "ESABW",
            MethodId::Pbw => "PBW",
            MethodId::Dbw => "DBW",
            MethodId::Epsilon => "e-Join",
            MethodId::Knn => "kNN-Join",
            MethodId::Dknn => "DkNN",
            MethodId::MinHash => "MH-LSH",
            MethodId::CrossPolytope => "CP-LSH",
            MethodId::Hyperplane => "HP-LSH",
            MethodId::Faiss => "FAISS",
            MethodId::Scann => "SCANN",
            MethodId::DeepBlocker => "DeepBlocker",
            MethodId::Ddb => "DDB",
        }
    }

    /// Looks a method up by its Table VII name.
    pub fn parse(name: &str) -> Option<MethodId> {
        MethodId::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Runs this method's full fine-tuning sweep on one context,
    /// unguarded: panics propagate. Use [`run_method`] in sweeps.
    pub fn run(self, ctx: &Context<'_>) -> MethodOutcome {
        match self {
            MethodId::Sbw => run_blocking_family(ctx, WorkflowKind::Sbw),
            MethodId::Qbw => run_blocking_family(ctx, WorkflowKind::Qbw),
            MethodId::Eqbw => run_blocking_family(ctx, WorkflowKind::Eqbw),
            MethodId::Sabw => run_blocking_family(ctx, WorkflowKind::Sabw),
            MethodId::Esabw => run_blocking_family(ctx, WorkflowKind::Esabw),
            MethodId::Pbw => run_pbw(ctx),
            MethodId::Dbw => run_dbw(ctx),
            MethodId::Epsilon => run_epsilon(ctx),
            MethodId::Knn => run_knn(ctx),
            MethodId::Dknn => run_dknn(ctx),
            MethodId::MinHash => run_minhash(ctx),
            MethodId::CrossPolytope => run_crosspolytope(ctx),
            MethodId::Hyperplane => run_hyperplane(ctx),
            MethodId::Faiss => run_faiss(ctx),
            MethodId::Scann => run_scann(ctx),
            MethodId::DeepBlocker => run_deepblocker(ctx),
            MethodId::Ddb => run_ddb(ctx),
        }
    }
}

/// Runs one method under the context's guard limits. A panic, blown
/// deadline or candidate budget becomes a structured failure row (see
/// [`MethodOutcome::failed`]) instead of tearing the sweep down; the
/// fault-injection site for this grid point is `<label>/<method>`.
///
/// When the limits are disabled this is exactly `id.run(ctx)` — panics
/// propagate as before.
pub fn run_method(ctx: &Context<'_>, id: MethodId) -> MethodOutcome {
    let run = || {
        if faults::enabled() {
            faults::fire(&format!("{}/{}", ctx.label, id.name()));
        }
        id.run(ctx)
    };
    match guard::run_guarded(ctx.limits(), run) {
        RunOutcome::Ok(outcome) => outcome,
        RunOutcome::Failed { reason, elapsed } => {
            MethodOutcome::failed(id.name(), &reason, elapsed)
        }
    }
}

/// Runs all 17 methods (5 + 2 blocking, 2 + 1 sparse, 5 + 1 dense) on one
/// view, in the paper's table order, each under the context's guard
/// limits. Each method's *optimization* wall time is reported through
/// `on_done` (the per-run RT lives in the outcome).
pub fn run_all_methods_with(
    ctx: &Context<'_>,
    mut on_done: impl FnMut(&MethodOutcome, Duration),
) -> Vec<MethodOutcome> {
    let mut out: Vec<MethodOutcome> = Vec::with_capacity(MethodId::ALL.len());
    for id in MethodId::ALL {
        let sw = er::core::Stopwatch::start();
        let o = run_method(ctx, id);
        on_done(&o, sw.elapsed());
        out.push(o);
    }
    out
}

/// [`run_all_methods_with`] without the progress callback.
pub fn run_all_methods(ctx: &Context<'_>) -> Vec<MethodOutcome> {
    run_all_methods_with(ctx, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use er::core::schema::{text_view, SchemaMode};
    use er::datagen::profiles::profile;

    fn quick_ctx<'a>(
        view: &'a TextView,
        gt: &'a GroundTruth,
        cache: &'a ArtifactCache,
    ) -> Context<'a> {
        Context {
            optimizer: Optimizer::new(0.9),
            embedding: EmbeddingConfig {
                dim: 48,
                ..Default::default()
            },
            seed: 11,
            label: "test".to_owned(),
            ..Context::new(view, gt, cache)
        }
    }

    #[test]
    fn blocking_optimization_beats_or_ties_pbw_precision() {
        let ds = er::datagen::generate(profile("D2").expect("D2"), 0.05, 3);
        let view = text_view(&ds, &SchemaMode::Agnostic);
        let cache = ArtifactCache::new();
        let ctx = quick_ctx(&view, &ds.groundtruth, &cache);
        let sbw = run_blocking_family(&ctx, WorkflowKind::Sbw);
        let pbw = run_pbw(&ctx);
        assert!(sbw.pc >= 0.9, "SBW pc {}", sbw.pc);
        assert!(
            sbw.pq >= pbw.pq,
            "fine-tuned {} < baseline {}",
            sbw.pq,
            pbw.pq
        );
    }

    #[test]
    fn sparse_methods_reach_target_on_clean_data() {
        let ds = er::datagen::generate(profile("D4").expect("D4"), 0.05, 5);
        let view = text_view(&ds, &SchemaMode::Agnostic);
        let cache = ArtifactCache::new();
        let ctx = quick_ctx(&view, &ds.groundtruth, &cache);
        let eps = run_epsilon(&ctx);
        let knn = run_knn(&ctx);
        assert!(eps.feasible, "e-Join infeasible: pc {}", eps.pc);
        assert!(knn.feasible, "kNN infeasible: pc {}", knn.pc);
        assert!(knn.pq > 0.1, "kNN pq {}", knn.pq);
    }

    #[test]
    fn cardinality_dense_methods_run() {
        let ds = er::datagen::generate(profile("D1").expect("D1"), 0.1, 5);
        let view = text_view(&ds, &SchemaMode::Agnostic);
        let cache = ArtifactCache::new();
        let ctx = quick_ctx(&view, &ds.groundtruth, &cache);
        let faiss = run_faiss(&ctx);
        assert!(faiss.pc > 0.5, "FAISS pc {}", faiss.pc);
        assert!(faiss.candidates > 0.0);
        let scann = run_scann(&ctx);
        assert!(scann.pc > 0.5, "SCANN pc {}", scann.pc);
    }

    #[test]
    fn epsilon_histogram_sweep_matches_direct_run() {
        // The binned sweep's winner, re-run directly, must report the same
        // candidate counts (within histogram-boundary tolerance).
        let ds = er::datagen::generate(profile("D2").expect("D2"), 0.05, 9);
        let view = text_view(&ds, &SchemaMode::Agnostic);
        let cache = ArtifactCache::new();
        let ctx = quick_ctx(&view, &ds.groundtruth, &cache);
        let eps = run_epsilon(&ctx);
        // `tuned` re-runs the winner; pc/pq in the outcome are thus
        // ground truth. The sweep only picks the config; verify coherence.
        assert!(eps.pc >= 0.0 && eps.pq >= 0.0);
        assert!(eps.evaluated >= 1);
    }

    #[test]
    fn minhash_runs_and_averages() {
        let ds = er::datagen::generate(profile("D1").expect("D1"), 0.1, 13);
        let view = text_view(&ds, &SchemaMode::Agnostic);
        let cache = ArtifactCache::new();
        let mut ctx = quick_ctx(&view, &ds.groundtruth, &cache);
        ctx.reps = 2;
        let mh = run_minhash(&ctx);
        assert!(mh.candidates >= 0.0);
        assert!(mh.evaluated >= 2);
    }

    #[test]
    fn sparse_artifacts_are_shared_across_methods_and_sweeps() {
        let ds = er::datagen::generate(profile("D4").expect("D4"), 0.05, 5);
        let view = text_view(&ds, &SchemaMode::Agnostic);
        let cache = ArtifactCache::new();
        let ctx = quick_ctx(&view, &ds.groundtruth, &cache);

        let cold = run_epsilon(&ctx);
        let cold_misses = cache.stats().misses;
        assert!(cold_misses > 0, "cold sweep prepares artifacts");

        // The kNN-Join's non-reversed combinations reuse the ε-Join's
        // token-set artifacts.
        let _ = run_knn(&ctx);
        assert!(
            cache.stats().hits > 0,
            "kNN reuses the e-Join's token-set artifacts"
        );

        // A warm re-sweep prepares nothing new and reports identically.
        let misses_before = cache.stats().misses;
        let warm = run_epsilon(&ctx);
        assert_eq!(
            cache.stats().misses,
            misses_before,
            "warm sweep adds no misses"
        );
        assert_eq!(warm.pc, cold.pc);
        assert_eq!(warm.pq, cold.pq);
        assert_eq!(warm.candidates, cold.candidates);
        assert_eq!(warm.config, cold.config);
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;
    use er::core::schema::{text_view, SchemaMode};
    use er::datagen::profiles::profile;
    use er::sparse::ScanCountIndex;

    /// The binned ε-Join sweep must agree with direct runs at every grid
    /// threshold: same candidate counts and duplicate counts.
    #[test]
    fn epsilon_histogram_matches_direct_runs_exactly() {
        let ds = er::datagen::generate(profile("D2").expect("D2"), 0.05, 77);
        let view = text_view(&ds, &SchemaMode::Agnostic);
        let model = er::sparse::RepresentationModel::parse("T1G").expect("T1G");
        let measure = er::sparse::SimilarityMeasure::Jaccard;

        // Build the same histogram run_epsilon builds.
        let cleaner = er::text::Cleaner::off();
        let sets1: Vec<Vec<u64>> = view
            .e1
            .iter()
            .map(|t| model.token_set(t, &cleaner))
            .collect();
        let sets2: Vec<Vec<u64>> = view
            .e2
            .iter()
            .map(|t| model.token_set(t, &cleaner))
            .collect();
        let index = ScanCountIndex::build(&sets1);
        let mut scratch = er::sparse::ScanCountScratch::default();
        let mut totals = vec![0u64; SIM_BINS + 1];
        let mut dups = vec![0u64; SIM_BINS + 1];
        let mut hits: Vec<(u32, u32)> = Vec::new();
        for (j, query) in sets2.iter().enumerate() {
            let qlen = query.len();
            index.query_with(&mut scratch, query, &mut hits);
            for &(i, overlap) in &hits {
                let sim = measure.compute(overlap as usize, index.set_size(i), qlen);
                let bin = ((sim * SIM_BINS as f64).floor() as usize).min(SIM_BINS);
                totals[bin] += 1;
                if ds.groundtruth.contains(er::core::Pair::new(i, j as u32)) {
                    dups[bin] += 1;
                }
            }
        }
        for b in (0..SIM_BINS).rev() {
            totals[b] += totals[b + 1];
            dups[b] += dups[b + 1];
        }

        // Compare against direct runs at the grid's threshold step (0.05).
        for i in 0..=20u32 {
            let threshold = f64::from(i) / 20.0;
            let join = er::sparse::EpsilonJoin {
                cleaning: false,
                model,
                measure,
                threshold,
            };
            let direct = join.run(&view);
            let found = ds.groundtruth.duplicates_in(&direct.candidates);
            let bin = ((threshold * SIM_BINS as f64) - 1e-9).ceil().max(0.0) as usize;
            let bin = bin.min(SIM_BINS);
            // At threshold 0 the direct join still requires >= 1 shared
            // token, same as the histogram (only overlapping pairs binned).
            assert_eq!(
                totals[bin] as usize,
                direct.candidates.len(),
                "candidate mismatch at t={threshold}"
            );
            assert_eq!(
                dups[bin] as usize, found,
                "duplicate mismatch at t={threshold}"
            );
        }
    }
}
