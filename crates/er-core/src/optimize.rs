//! The configuration-optimization driver of Problem 1 (paper §III):
//! given a filter method and a recall threshold τ, fine-tune its parameters
//! so the resulting candidate set maximizes PQ subject to PC ≥ τ.
//!
//! The driver is holistic (all parameters of a workflow are swept jointly,
//! §II) and has one implementation of each step every Table VII method
//! shares:
//!
//! * [`Optimizer::fetch_prepared`] — the one path from a configuration
//!   group to its prepare-stage artifact through the shared
//!   [`ArtifactCache`]: a failing prepare poisons the entry and fails the
//!   whole group, a poisoned hit replays that failure;
//! * [`OptimizationOutcome::record`] — the one way a guarded evaluation
//!   (or failure) enters an outcome;
//! * [`Optimizer::grid`] — exhaustive sweep keeping the PQ-best feasible
//!   configuration (and, as a fallback, the PC-best infeasible one, which
//!   the paper reports in red for the baselines);
//! * [`Optimizer::first_feasible`] — ordered sweep that stops at the first
//!   configuration meeting τ; correct whenever the order enumerates
//!   *increasing candidate volume* (kNN-Join's K, FAISS/SCANN's K, ε-Join's
//!   descending threshold), because under that monotonicity the first
//!   feasible configuration is also the PQ-best feasible one.
//!
//! Both sweeps take a worker count and accumulate into the caller's
//! outcome, so a method sweeping many groups keeps one outcome and one
//! `evaluated` count. [`Optimizer::grid_grouped`] composes the pieces for
//! grids whose groups are not known up front.
//!
//! Every evaluation runs **guarded** (see [`crate::guard`]): when the
//! optimizer carries non-trivial [`Limits`], each configuration runs under
//! `catch_unwind` with a cooperative deadline and candidate budget, and a
//! failing grid point becomes a structured [`Failure`] row instead of
//! aborting the sweep. Failed configurations are treated as infeasible and
//! never become champions. With default (disabled) limits the guard is a
//! plain call — panics propagate.

use crate::artifacts::{ArtifactCache, ArtifactKey};
use crate::filter::Prepared;
use crate::guard::{self, FailReason, Limits, RunOutcome};
use crate::hash::FastMap;
use crate::metrics::Effectiveness;
use crate::parallel;
use crate::timing::PhaseBreakdown;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Grid resolution shared by every method's configuration space: the
/// paper's exhaustive grids, a representative pruned subset for
/// laptop-scale sweeps, or a minimal smoke grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GridResolution {
    /// The exact paper domains (Tables III–V; thousands of configurations).
    Full,
    /// A representative subset (tens to hundreds of configurations).
    Pruned,
    /// A minimal smoke grid (a handful of configurations).
    Quick,
}

/// The recall target τ of Problem 1. The paper uses τ = 0.9 throughout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TargetRecall(pub f64);

impl Default for TargetRecall {
    fn default() -> Self {
        Self(0.9)
    }
}

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct Evaluated<C> {
    /// The configuration.
    pub config: C,
    /// Its PC/PQ outcome.
    pub eff: Effectiveness,
    /// Its phase timings.
    pub breakdown: PhaseBreakdown,
}

/// One grid point that failed under guard (panicked, timed out, or blew
/// its candidate budget). Recorded in configuration order, so the list is
/// identical for every thread count.
#[derive(Debug, Clone)]
pub struct Failure<C> {
    /// The failing configuration.
    pub config: C,
    /// Why it failed.
    pub reason: FailReason,
    /// Wall-clock time spent before the failure.
    pub elapsed: Duration,
}

/// Result of an optimization sweep.
#[derive(Debug, Clone)]
pub struct OptimizationOutcome<C> {
    /// PQ-best configuration with PC ≥ τ, if any.
    pub best_feasible: Option<Evaluated<C>>,
    /// PC-best configuration overall — reported when nothing reaches τ
    /// (the paper marks such entries in red).
    pub best_fallback: Option<Evaluated<C>>,
    /// Number of configurations evaluated successfully.
    pub evaluated: usize,
    /// Grid points that failed under guard, in configuration order.
    pub failures: Vec<Failure<C>>,
}

impl<C> Default for OptimizationOutcome<C> {
    fn default() -> Self {
        Self {
            best_feasible: None,
            best_fallback: None,
            evaluated: 0,
            failures: Vec::new(),
        }
    }
}

impl<C> OptimizationOutcome<C> {
    /// The configuration to report: feasible if one exists, else fallback.
    pub fn best(&self) -> Option<&Evaluated<C>> {
        self.best_feasible.as_ref().or(self.best_fallback.as_ref())
    }

    /// True if some configuration met the recall target.
    pub fn is_feasible(&self) -> bool {
        self.best_feasible.is_some()
    }

    /// Records one guarded evaluation of `config`: a success competes for
    /// the champions, a failure becomes a [`Failure`] row. Returns true if
    /// the configuration met `target`.
    pub fn record(
        &mut self,
        config: C,
        result: RunOutcome<(Effectiveness, PhaseBreakdown)>,
        target: f64,
    ) -> bool
    where
        C: Clone,
    {
        match result {
            RunOutcome::Ok((eff, breakdown)) => {
                let feasible = eff.pc >= target;
                self.consider(
                    Evaluated {
                        config,
                        eff,
                        breakdown,
                    },
                    target,
                );
                feasible
            }
            RunOutcome::Failed { reason, elapsed } => {
                self.failures.push(Failure {
                    config,
                    reason,
                    elapsed,
                });
                false
            }
        }
    }

    /// Accounts one evaluated configuration, updating the feasible and
    /// fallback champions.
    fn consider(&mut self, cand: Evaluated<C>, target: f64)
    where
        C: Clone,
    {
        self.evaluated += 1;
        if cand.eff.pc >= target {
            let better = match &self.best_feasible {
                None => true,
                Some(cur) => {
                    cand.eff.pq > cur.eff.pq
                        || (cand.eff.pq == cur.eff.pq && cand.eff.candidates < cur.eff.candidates)
                }
            };
            if better {
                self.best_feasible = Some(cand.clone());
            }
        }
        let better_fallback = match &self.best_fallback {
            None => true,
            Some(cur) => {
                cand.eff.pc > cur.eff.pc || (cand.eff.pc == cur.eff.pc && cand.eff.pq > cur.eff.pq)
            }
        };
        if better_fallback {
            self.best_fallback = Some(cand);
        }
    }
}

/// The optimization driver: the recall target and the per-configuration
/// fault-isolation limits.
#[derive(Debug, Clone, Copy, Default)]
pub struct Optimizer {
    /// Recall target τ.
    pub target: TargetRecall,
    /// Per-configuration guard limits (disabled by default: evaluations
    /// run unguarded and panics propagate).
    pub limits: Limits,
}

impl Optimizer {
    /// Creates an optimizer with target τ.
    pub fn new(target_pc: f64) -> Self {
        Self {
            target: TargetRecall(target_pc),
            ..Default::default()
        }
    }

    /// Sets the per-configuration guard limits.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Fetches the prepare-stage artifact under `key` through `cache`.
    ///
    /// A hit returns the shared artifact. A miss runs `prepare` under the
    /// guard limits and inserts the result; a failing prepare poisons the
    /// key, so no later sweep re-runs a prepare known to fail. On failure
    /// every configuration of `group` (the configurations sharing this
    /// artifact) is recorded into `out`: the first with the original
    /// reason and elapsed time, the rest as zero-cost
    /// [`FailReason::Poisoned`] rows; a poisoned hit replays its reason
    /// for every member. Returns `None` then.
    pub fn fetch_prepared<C: Clone>(
        &self,
        cache: &ArtifactCache,
        key: ArtifactKey,
        prepare: impl FnOnce() -> Prepared,
        group: &[C],
        out: &mut OptimizationOutcome<C>,
    ) -> Option<Prepared> {
        let (reason, elapsed) = match cache.lookup(&key) {
            Some(Ok(prepared)) => return Some(prepared),
            Some(Err(reason)) => (
                FailReason::Poisoned {
                    repr: key.repr.clone(),
                    reason,
                },
                Duration::ZERO,
            ),
            None => match guard::run_guarded(self.limits, prepare) {
                RunOutcome::Ok(prepared) => {
                    cache.insert(key, prepared.clone());
                    return Some(prepared);
                }
                RunOutcome::Failed { reason, elapsed } => {
                    cache.poison(key.clone(), reason.to_string());
                    (reason, elapsed)
                }
            },
        };
        let poisoned = match &reason {
            FailReason::Poisoned { .. } => reason.clone(),
            fresh => FailReason::Poisoned {
                repr: key.repr,
                reason: fresh.to_string(),
            },
        };
        let mut first = Some(RunOutcome::Failed { reason, elapsed });
        for config in group {
            let failed = first.take().unwrap_or_else(|| RunOutcome::Failed {
                reason: poisoned.clone(),
                elapsed: Duration::ZERO,
            });
            out.record(config.clone(), failed, self.target.0);
        }
        None
    }

    /// Exhaustive sweep: evaluates every configuration on `threads`
    /// workers and records each into `out` in configuration order, so the
    /// champions, every tie-break and `evaluated` are identical for any
    /// worker count. `eval` must be a pure function of the configuration;
    /// it may run on any worker thread.
    pub fn grid<C: Clone + Sync>(
        &self,
        threads: usize,
        configs: impl IntoIterator<Item = C>,
        eval: impl Fn(&C) -> (Effectiveness, PhaseBreakdown) + Sync,
        out: &mut OptimizationOutcome<C>,
    ) {
        let configs: Vec<C> = configs.into_iter().collect();
        let results = self.evaluate(threads, &configs, &eval);
        for (config, result) in configs.into_iter().zip(results) {
            out.record(config, result, self.target.0);
        }
    }

    /// Ordered sweep stopping at the first feasible configuration.
    ///
    /// `configs` must be ordered by non-decreasing candidate volume (e.g.
    /// ascending K, descending similarity threshold): PC is then
    /// non-decreasing along the sweep and the first feasible configuration
    /// maximizes PQ among the feasible ones. A failed configuration is
    /// infeasible: it is recorded and the sweep goes on.
    ///
    /// One thread evaluates one configuration at a time, so nothing past
    /// the stopping point runs. More threads evaluate speculative waves of
    /// `threads × 2` and record only the in-order prefix up to the first
    /// feasible configuration, so `out` ends up identical for any
    /// `threads`.
    pub fn first_feasible<C: Clone + Sync>(
        &self,
        threads: usize,
        configs: impl IntoIterator<Item = C>,
        eval: impl Fn(&C) -> (Effectiveness, PhaseBreakdown) + Sync,
        out: &mut OptimizationOutcome<C>,
    ) {
        let wave = if threads <= 1 { 1 } else { threads * 2 };
        let mut configs = configs.into_iter();
        loop {
            let batch: Vec<C> = configs.by_ref().take(wave).collect();
            if batch.is_empty() {
                return;
            }
            let results = self.evaluate(threads, &batch, &eval);
            for (config, result) in batch.into_iter().zip(results) {
                if out.record(config, result, self.target.0) {
                    return;
                }
            }
        }
    }

    /// Guarded evaluations of `configs`, one configuration per chunk (an
    /// evaluation dominates scheduling overhead), in configuration order.
    /// The guard frame is installed on the worker that runs it.
    fn evaluate<C: Sync>(
        &self,
        threads: usize,
        configs: &[C],
        eval: &(impl Fn(&C) -> (Effectiveness, PhaseBreakdown) + Sync),
    ) -> Vec<RunOutcome<(Effectiveness, PhaseBreakdown)>> {
        parallel::par_map_chunks_with(threads, configs, 1, |_, c| {
            guard::run_guarded(self.limits, || eval(&c[0]))
        })
    }

    /// Exhaustive sweep grouped by representation key behind a shared
    /// [`ArtifactCache`].
    ///
    /// Configurations are grouped by `repr_of`; each group's artifact is
    /// fetched through [`Optimizer::fetch_prepared`] (built **exactly
    /// once**, or taken from an earlier sweep over the same dataset) and
    /// every member is evaluated against it by [`Optimizer::grid`]. Groups
    /// run in first-occurrence order and members in configuration order,
    /// so for a repr-major grid the champion, tie-breaks and failure rows
    /// are identical to an ungrouped sweep. Cache mutations stay on the
    /// calling thread; only the query-stage evaluations fan out.
    ///
    /// Each evaluated row's breakdown is the prepare breakdown merged with
    /// the query breakdown, with the amortized prepare share
    /// (`prepare_total / group size`) recorded via
    /// [`PhaseBreakdown::set_amortized_prepare`].
    // Three closures mirror the three Filter stages (repr_key / prepare /
    // query); folding them into a trait object would cost more than the
    // argument count saves.
    #[allow(clippy::too_many_arguments)]
    pub fn grid_grouped<C: Clone + Sync>(
        &self,
        threads: usize,
        cache: &ArtifactCache,
        dataset_fp: u64,
        configs: impl IntoIterator<Item = C>,
        repr_of: impl Fn(&C) -> String,
        prepare: impl Fn(&C) -> Prepared,
        eval: impl Fn(&C, &Prepared) -> (Effectiveness, PhaseBreakdown) + Sync,
    ) -> OptimizationOutcome<C> {
        let mut groups: Vec<(String, Vec<C>)> = Vec::new();
        let mut slot_of: FastMap<String, usize> = FastMap::default();
        for config in configs {
            let repr = repr_of(&config);
            let slot = *slot_of.entry(repr.clone()).or_insert_with(|| {
                groups.push((repr, Vec::new()));
                groups.len() - 1
            });
            groups[slot].1.push(config);
        }

        let mut out = OptimizationOutcome::default();
        for (repr, members) in groups {
            let key = ArtifactKey::new(dataset_fp, repr);
            let fetched =
                self.fetch_prepared(cache, key, || prepare(&members[0]), &members, &mut out);
            let Some(prepared) = fetched else {
                continue;
            };
            let amortized = prepared.breakdown().prepare_total() / members.len() as u32;
            let eval = |c: &C| {
                let (eff, query) = eval(c, &prepared);
                let mut breakdown = prepared.breakdown().clone();
                breakdown.merge(&query);
                breakdown.set_amortized_prepare(amortized);
                (eff, breakdown)
            };
            self.grid(threads, members, eval, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn eff(pc: f64, pq: f64, candidates: usize) -> Effectiveness {
        Effectiveness {
            pc,
            pq,
            candidates,
            duplicates_found: 0,
        }
    }

    /// A fresh outcome of one exhaustive sweep.
    fn grid<C: Clone + Sync>(
        opt: &Optimizer,
        threads: usize,
        configs: impl IntoIterator<Item = C>,
        eval: impl Fn(&C) -> (Effectiveness, PhaseBreakdown) + Sync,
    ) -> OptimizationOutcome<C> {
        let mut out = OptimizationOutcome::default();
        opt.grid(threads, configs, eval, &mut out);
        out
    }

    /// A fresh outcome of one first-feasible sweep.
    fn first_feasible<C: Clone + Sync>(
        opt: &Optimizer,
        threads: usize,
        configs: impl IntoIterator<Item = C>,
        eval: impl Fn(&C) -> (Effectiveness, PhaseBreakdown) + Sync,
    ) -> OptimizationOutcome<C> {
        let mut out = OptimizationOutcome::default();
        opt.first_feasible(threads, configs, eval, &mut out);
        out
    }

    #[test]
    fn grid_picks_pq_best_feasible() {
        let opt = Optimizer::new(0.9);
        let outcomes = [
            (0.95, 0.10, 100),
            (0.92, 0.30, 50),
            (0.70, 0.90, 5),
            (0.91, 0.25, 60),
        ];
        let out = grid(&opt, 1, 0..outcomes.len(), |&i| {
            (
                eff(outcomes[i].0, outcomes[i].1, outcomes[i].2),
                PhaseBreakdown::new(),
            )
        });
        let best = out.best().expect("has best");
        assert_eq!(best.config, 1, "0.92/0.30 should win");
        assert!(out.is_feasible());
        assert_eq!(out.evaluated, 4);
    }

    #[test]
    fn grid_falls_back_to_max_pc() {
        let opt = Optimizer::new(0.9);
        let outcomes = [(0.5, 0.9), (0.8, 0.2), (0.6, 0.8)];
        let out = grid(&opt, 1, 0..3usize, |&i| {
            (eff(outcomes[i].0, outcomes[i].1, 10), PhaseBreakdown::new())
        });
        assert!(!out.is_feasible());
        assert_eq!(out.best().expect("fallback").config, 1, "max PC wins");
    }

    #[test]
    fn grid_tie_breaks_on_fewer_candidates() {
        let opt = Optimizer::new(0.9);
        let outcomes = [(0.95, 0.3, 100), (0.95, 0.3, 40)];
        let out = grid(&opt, 1, 0..2usize, |&i| {
            (
                eff(outcomes[i].0, outcomes[i].1, outcomes[i].2),
                PhaseBreakdown::new(),
            )
        });
        assert_eq!(out.best().expect("best").config, 1);
    }

    #[test]
    fn first_feasible_stops_early() {
        let opt = Optimizer::new(0.75);
        let calls = AtomicUsize::new(0);
        let out = first_feasible(&opt, 1, 1..=100usize, |&k| {
            calls.fetch_add(1, Ordering::SeqCst);
            // PC grows with k (binary-exact steps): feasible from k = 3.
            (
                eff(0.25 * k as f64, 1.0 / k as f64, k),
                PhaseBreakdown::new(),
            )
        });
        assert_eq!(
            calls.load(Ordering::SeqCst),
            3,
            "one thread never speculates"
        );
        assert_eq!(out.best().expect("best").config, 3);
        assert!(out.is_feasible());
    }

    #[test]
    fn first_feasible_exhausts_when_infeasible() {
        let opt = Optimizer::new(0.9);
        let out = first_feasible(&opt, 1, 1..=5usize, |&k| {
            (eff(0.1, 0.5, k), PhaseBreakdown::new())
        });
        assert_eq!(out.evaluated, 5);
        assert!(!out.is_feasible());
        assert!(out.best().is_some());
    }

    #[test]
    fn first_feasible_accumulates_across_groups() {
        // Two ordered groups into one outcome: each stops at its own first
        // feasible point, `evaluated` sums both, and the champion is the
        // PQ-best feasible point of either group.
        let opt = Optimizer::new(0.5);
        let mut out = OptimizationOutcome::default();
        let eval = |&(g, k): &(usize, usize)| {
            let pq = if g == 0 { 0.2 } else { 0.4 };
            (eff(0.25 * k as f64, pq, k), PhaseBreakdown::new())
        };
        opt.first_feasible(1, (1..=9).map(|k| (0, k)), eval, &mut out);
        opt.first_feasible(1, (1..=9).map(|k| (1, k)), eval, &mut out);
        assert_eq!(out.evaluated, 4, "both groups stop at k = 2");
        assert_eq!(out.best().expect("best").config, (1, 2));
    }

    /// Pseudo-random but pure configuration outcomes, exercising feasible
    /// and infeasible regions plus exact PQ ties.
    fn synth_eval(&i: &usize) -> (Effectiveness, PhaseBreakdown) {
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let pc = (h % 1000) as f64 / 999.0;
        let pq = ((h >> 10) % 8) as f64 / 8.0; // coarse → ties happen
        (eff(pc, pq, (h % 77) as usize), PhaseBreakdown::new())
    }

    fn assert_outcome_eq(a: &OptimizationOutcome<usize>, b: &OptimizationOutcome<usize>) {
        assert_eq!(a.evaluated, b.evaluated);
        for (x, y) in [
            (&a.best_feasible, &b.best_feasible),
            (&a.best_fallback, &b.best_fallback),
        ] {
            match (x, y) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.config, y.config);
                    assert_eq!(x.eff.pc.to_bits(), y.eff.pc.to_bits());
                    assert_eq!(x.eff.pq.to_bits(), y.eff.pq.to_bits());
                    assert_eq!(x.eff.candidates, y.eff.candidates);
                }
                _ => panic!("feasible/fallback presence differs"),
            }
        }
    }

    #[test]
    fn grid_is_serial_identical_across_threads() {
        for target in [0.5, 0.9, 1.1] {
            let opt = Optimizer::new(target);
            let serial = grid(&opt, 1, 0..100usize, synth_eval);
            for threads in [2, 3, 8] {
                let par = grid(&opt, threads, 0..100usize, synth_eval);
                assert_outcome_eq(&par, &serial);
            }
        }
    }

    #[test]
    fn first_feasible_par_is_serial_identical() {
        // Monotone PC sweep: feasibility boundary lands mid-wave for some
        // thread counts, exactly on a wave boundary for others.
        for boundary in [1usize, 4, 7, 16, 31, 200] {
            let eval = move |&k: &usize| {
                let pc = (k as f64 / boundary as f64).min(1.0);
                (eff(pc, 1.0 / k as f64, k), PhaseBreakdown::new())
            };
            let opt = Optimizer::new(0.999);
            let serial = first_feasible(&opt, 1, 1..=100usize, eval);
            for threads in [2, 3, 8] {
                let par = first_feasible(&opt, threads, 1..=100usize, eval);
                assert_outcome_eq(&par, &serial);
            }
        }
    }

    /// Eval that panics on configs divisible by 10 (pure, thread-safe).
    fn faulty_eval(&i: &usize) -> (Effectiveness, PhaseBreakdown) {
        if i % 10 == 0 {
            panic!("config {i} exploded");
        }
        synth_eval(&i)
    }

    #[test]
    fn guarded_grid_records_failures_and_continues() {
        let opt = Optimizer::new(0.5).with_limits(Limits::catching());
        let out = grid(&opt, 1, 0..30usize, faulty_eval);
        assert_eq!(out.evaluated, 27);
        assert_eq!(out.failures.len(), 3);
        assert_eq!(
            out.failures.iter().map(|f| f.config).collect::<Vec<_>>(),
            vec![0, 10, 20]
        );
        for f in &out.failures {
            match &f.reason {
                FailReason::Panicked(msg) => assert!(msg.contains("exploded"), "{msg}"),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(out.best().is_some(), "surviving configs still optimized");
    }

    #[test]
    #[should_panic(expected = "exploded")]
    fn unguarded_grid_still_propagates_panics() {
        let opt = Optimizer::new(0.5);
        let _ = grid(&opt, 1, 0..30usize, faulty_eval);
    }

    #[test]
    fn guarded_grid_par_matches_guarded_serial() {
        let opt = Optimizer::new(0.9).with_limits(Limits::catching());
        let serial = grid(&opt, 1, 0..60usize, faulty_eval);
        for threads in [2, 3, 8] {
            let par = grid(&opt, threads, 0..60usize, faulty_eval);
            assert_outcome_eq(&par, &serial);
            assert_eq!(
                par.failures.iter().map(|f| f.config).collect::<Vec<_>>(),
                serial.failures.iter().map(|f| f.config).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn guarded_first_feasible_skips_failed_points() {
        // PC reaches the target at config 12, but 10 panics first; the
        // sweep must record the failure and still stop at 12.
        let eval = |&k: &usize| {
            if k == 10 {
                panic!("boom at 10");
            }
            (
                eff(k as f64 / 12.0, 1.0 / (k + 1) as f64, k),
                PhaseBreakdown::new(),
            )
        };
        let opt = Optimizer::new(0.999).with_limits(Limits::catching());
        let serial = first_feasible(&opt, 1, 0..100usize, eval);
        assert_eq!(serial.failures.len(), 1);
        assert_eq!(serial.best().expect("best").config, 12);
        for threads in [2, 8] {
            let par = first_feasible(&opt, threads, 0..100usize, eval);
            assert_outcome_eq(&par, &serial);
            assert_eq!(par.failures.len(), 1);
            assert_eq!(par.failures[0].config, 10);
        }
    }

    // ---- grouped sweeps behind the artifact cache -----------------------

    use crate::timing::Stage;

    /// Repr-major grid: 4 representation groups × 5 query params each.
    fn grouped_configs() -> Vec<(usize, usize)> {
        (0..4usize)
            .flat_map(|g| (0..5usize).map(move |p| (g, p)))
            .collect()
    }

    fn grouped_repr(c: &(usize, usize)) -> String {
        format!("g{}", c.0)
    }

    /// Prepare builds an artifact carrying the group id; the counter
    /// observes how many times it actually runs.
    fn grouped_prepare(c: &(usize, usize), calls: &AtomicUsize) -> Prepared {
        calls.fetch_add(1, Ordering::SeqCst);
        let mut breakdown = PhaseBreakdown::new();
        let artifact = breakdown.time_in(Stage::Prepare, "build", || c.0 * 1000);
        Prepared::new(artifact, 64, breakdown)
    }

    fn grouped_eval(c: &(usize, usize), prepared: &Prepared) -> (Effectiveness, PhaseBreakdown) {
        let base = *prepared.downcast::<usize>();
        synth_eval(&(base + c.1))
    }

    /// The grouped sweep must select exactly the champion an ungrouped
    /// sweep over the same (group, param) outcomes selects.
    fn ungrouped_reference(opt: &Optimizer) -> OptimizationOutcome<(usize, usize)> {
        grid(opt, 1, grouped_configs(), |c| {
            synth_eval(&(c.0 * 1000 + c.1))
        })
    }

    #[test]
    fn grouped_prepares_exactly_once_per_repr() {
        let cache = ArtifactCache::new();
        let calls = AtomicUsize::new(0);
        let opt = Optimizer::new(0.5);
        let out = opt.grid_grouped(
            1,
            &cache,
            7,
            grouped_configs(),
            grouped_repr,
            |c| grouped_prepare(c, &calls),
            grouped_eval,
        );
        assert_eq!(out.evaluated, 20);
        assert_eq!(calls.load(Ordering::SeqCst), 4, "one prepare per group");
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().hits, 0);

        // A second sweep over the same dataset reuses every artifact.
        let again = opt.grid_grouped(
            1,
            &cache,
            7,
            grouped_configs(),
            grouped_repr,
            |c| grouped_prepare(c, &calls),
            grouped_eval,
        );
        assert_eq!(
            calls.load(Ordering::SeqCst),
            4,
            "warm sweep prepares nothing"
        );
        assert_eq!(cache.stats().hits, 4);
        assert_outcome_eq_pairs(&again, &out);
    }

    fn assert_outcome_eq_pairs(
        a: &OptimizationOutcome<(usize, usize)>,
        b: &OptimizationOutcome<(usize, usize)>,
    ) {
        assert_eq!(a.evaluated, b.evaluated);
        assert_eq!(a.failures.len(), b.failures.len());
        for (x, y) in a.failures.iter().zip(&b.failures) {
            assert_eq!(x.config, y.config);
        }
        for (x, y) in [
            (&a.best_feasible, &b.best_feasible),
            (&a.best_fallback, &b.best_fallback),
        ] {
            match (x, y) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.config, y.config);
                    assert_eq!(x.eff.pc.to_bits(), y.eff.pc.to_bits());
                    assert_eq!(x.eff.pq.to_bits(), y.eff.pq.to_bits());
                    assert_eq!(x.eff.candidates, y.eff.candidates);
                }
                _ => panic!("feasible/fallback presence differs"),
            }
        }
    }

    #[test]
    fn grouped_matches_ungrouped_grid() {
        for target in [0.5, 0.9, 1.1] {
            let opt = Optimizer::new(target);
            let reference = ungrouped_reference(&opt);
            let cache = ArtifactCache::new();
            let calls = AtomicUsize::new(0);
            let grouped = opt.grid_grouped(
                1,
                &cache,
                3,
                grouped_configs(),
                grouped_repr,
                |c| grouped_prepare(c, &calls),
                grouped_eval,
            );
            assert_outcome_eq_pairs(&grouped, &reference);
        }
    }

    #[test]
    fn grouped_is_serial_identical_across_threads() {
        let opt = Optimizer::new(0.9);
        let serial_cache = ArtifactCache::new();
        let calls = AtomicUsize::new(0);
        let serial = opt.grid_grouped(
            1,
            &serial_cache,
            11,
            grouped_configs(),
            grouped_repr,
            |c| grouped_prepare(c, &calls),
            grouped_eval,
        );
        for threads in [2, 3, 8] {
            let cache = ArtifactCache::new();
            let par = opt.grid_grouped(
                threads,
                &cache,
                11,
                grouped_configs(),
                grouped_repr,
                |c| grouped_prepare(c, &calls),
                grouped_eval,
            );
            assert_outcome_eq_pairs(&par, &serial);
            assert_eq!(cache.stats().misses, 4, "threads={threads}");
        }
    }

    #[test]
    fn grouped_poisons_failed_prepare_and_replays_it() {
        let cache = ArtifactCache::new();
        let calls = AtomicUsize::new(0);
        let opt = Optimizer::new(0.5).with_limits(Limits::catching());
        let prepare = |c: &(usize, usize)| {
            if c.0 == 1 {
                panic!("prepare of group 1 exploded");
            }
            grouped_prepare(c, &calls)
        };
        let out = opt.grid_grouped(
            1,
            &cache,
            5,
            grouped_configs(),
            grouped_repr,
            prepare,
            grouped_eval,
        );
        assert_eq!(out.evaluated, 15, "three healthy groups evaluate fully");
        assert_eq!(out.failures.len(), 5, "all five members of group 1 fail");
        match &out.failures[0].reason {
            FailReason::Panicked(msg) => assert!(msg.contains("exploded"), "{msg}"),
            other => panic!("first member carries the original reason, got {other:?}"),
        }
        for f in &out.failures[1..] {
            match &f.reason {
                FailReason::Poisoned { repr, reason } => {
                    assert_eq!(repr, "g1");
                    assert!(reason.contains("exploded"), "{reason}");
                }
                other => panic!("unexpected {other:?}"),
            }
            assert_eq!(f.elapsed, Duration::ZERO);
        }
        assert_eq!(cache.stats().poisoned, 1);

        // A later sweep hits the poisoned entry: the prepare never re-runs
        // and every member replays a structured Poisoned failure.
        let before = calls.load(Ordering::SeqCst);
        let replay = opt.grid_grouped(
            1,
            &cache,
            5,
            grouped_configs(),
            grouped_repr,
            prepare,
            grouped_eval,
        );
        assert_eq!(
            calls.load(Ordering::SeqCst),
            before,
            "no healthy re-prepare"
        );
        assert_eq!(replay.failures.len(), 5);
        for f in &replay.failures {
            assert!(matches!(&f.reason, FailReason::Poisoned { repr, .. } if repr == "g1"));
        }
    }

    #[test]
    fn grouped_rows_carry_amortized_prepare() {
        let cache = ArtifactCache::new();
        let calls = AtomicUsize::new(0);
        let opt = Optimizer::new(0.0);
        let out = opt.grid_grouped(
            1,
            &cache,
            13,
            grouped_configs(),
            grouped_repr,
            |c| grouped_prepare(c, &calls),
            grouped_eval,
        );
        let best = out.best().expect("has best");
        let amortized = best
            .breakdown
            .amortized_prepare()
            .expect("grouped rows record the amortized share");
        assert!(amortized <= best.breakdown.prepare_total());
    }
}
