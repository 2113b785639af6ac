//! Speculative density prefetching for the independence-chain samplers.
//!
//! Every MH iteration costs one SPD pass for the *proposed* source (§4.1),
//! and the paper's proposal is an independence chain (`q(·|x) = 1/n`,
//! §4.2): the proposal at step `t` does not depend on the chain's state, so
//! the entire proposal sequence is a pure function of the seed. This module
//! exploits that: worker threads replay the chain's proposal stream (a
//! [`StreamSplit`] replica), evaluate the upcoming proposals' densities
//! into a [`SharedProbeOracle`] ahead of time, and the chain thread
//! consumes accept/reject decisions in order, almost always hitting the
//! warmed cache.
//!
//! ## Determinism guarantee
//!
//! The pipelined run is **bit-identical** to the sequential sampler, by
//! construction rather than by tolerance:
//!
//! - the accept/reject RNG stream never leaves the chain thread (see
//!   [`mhbc_mcmc::MetropolisHastings`]'s split streams);
//! - workers only *warm* the cache — dependency rows are a deterministic
//!   function of the evaluation view and the source's row key (graph and
//!   source directly; with a reduction active, the reduced CSR and the
//!   source's equivalence class), so a warmed value equals the value the
//!   chain would have computed itself;
//! - the chain thread runs the exact same accumulation code
//!   (`SingleAccumulator` / `JointAccumulator`) in the exact same order as
//!   the sequential sampler; and
//! - the reported `spd_passes` is the number of *distinct* sources
//!   evaluated (`SharedProbeOracle::cached_sources`), which equals the
//!   sequential miss count because the proposal set is identical.
//!
//! Hence `bc`, `bc_corrected`, acceptance counts, and `spd_passes` agree
//! exactly across `threads = 1, 2, 8, …` — the property the
//! `prefetch_determinism` integration tests pin down. Only the cache
//! hit/miss *split* (an implementation statistic) may vary with timing.
//!
//! ## Speculation window and fallback
//!
//! Workers run at most [`PrefetchConfig::depth`] proposals ahead of the
//! chain (a courtesy bound on cache growth ahead of consumption), yielding
//! when the window is full. If the chain outpaces its workers it computes
//! the density itself — nobody ever blocks on a slow worker. Proposals that
//! are *state-dependent* (the F8 degree-walk ablation) cannot be replayed
//! ahead of time; [`mhbc_mcmc::Proposal::propose_iid`] returns `None` for
//! them and the entry points here fall back to the sequential samplers, as
//! they also do for `threads <= 1`.

use crate::checkpoint::CheckpointKind;
use crate::engine::{
    open_checkpoint, AdaptiveReport, CheckpointDriver, EngineConfig, EngineDriver, EstimationEngine,
};
use crate::joint::{self, JointAccumulator, JointProposal, JointState};
use crate::oracle::SharedProbeOracle;
use crate::single::{self, SingleAccumulator, SingleSpaceConfig, SingleSpaceEstimate};
use crate::{
    CoreError, JointSpaceConfig, JointSpaceEstimate, JointSpaceSampler, SingleSpaceSampler,
};
use mhbc_graph::{CsrGraph, Vertex};
use mhbc_mcmc::{
    fn_target, FnTarget, MetropolisHastings, Proposal, RngSnapshot, StreamSplit, UniformProposal,
};
use mhbc_spd::{SpdView, SpdWorkspacePool};
use rand::{rngs::SmallRng, RngExt, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Threading knobs for the speculative pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Total density-evaluation threads, chain thread included: `threads`
    /// of 0 or 1 runs the plain sequential sampler; `t >= 2` spawns
    /// `t - 1` prefetch workers alongside the chain thread.
    pub threads: usize,
    /// How many proposals ahead of the chain the workers may speculate
    /// (clamped to at least the worker count). Larger windows tolerate
    /// burstier schedulers; the cache holds at most `depth` rows beyond
    /// what the chain has consumed.
    pub depth: u64,
}

impl PrefetchConfig {
    /// Default speculation depth.
    pub const DEFAULT_DEPTH: u64 = 1024;

    /// Sequential execution (no workers).
    pub fn sequential() -> Self {
        PrefetchConfig { threads: 1, depth: Self::DEFAULT_DEPTH }
    }

    /// `threads` total evaluation threads with the default window.
    pub fn with_threads(threads: usize) -> Self {
        PrefetchConfig { threads, depth: Self::DEFAULT_DEPTH }
    }

    /// Overrides the speculation window.
    pub fn with_depth(mut self, depth: u64) -> Self {
        self.depth = depth;
        self
    }

    /// Whether this configuration actually spawns workers.
    pub fn is_parallel(&self) -> bool {
        self.threads >= 2
    }
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        Self::sequential()
    }
}

/// Validates a single-space configuration, returning `n` (the *original*
/// vertex count — the sampler state space, whatever the view's reduction).
pub(crate) fn validate_single(
    view: &SpdView<'_>,
    r: Vertex,
    config: &SingleSpaceConfig,
) -> Result<usize, CoreError> {
    let n = view.num_vertices();
    if n < 3 {
        return Err(CoreError::GraphTooSmall { num_vertices: n });
    }
    if r as usize >= n {
        return Err(CoreError::ProbeOutOfRange { probe: r, num_vertices: n });
    }
    if !view.is_retained(r) {
        return Err(CoreError::PrunedProbe { probe: r });
    }
    if let Some(v0) = config.initial {
        if v0 as usize >= n {
            return Err(CoreError::ProbeOutOfRange { probe: v0, num_vertices: n });
        }
    }
    Ok(n)
}

/// Derives a single-space chain's `(initial state, proposal stream,
/// acceptance stream)` from its seed — the one canonical derivation used by
/// the sequential sampler, the pipelined chain thread, *and* the workers'
/// stream replicas, so all three agree draw for draw.
pub(crate) fn derive_streams(
    seed: u64,
    initial: Option<Vertex>,
    n: usize,
) -> (Vertex, SmallRng, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let initial = initial.unwrap_or_else(|| rng.random_range(0..n as Vertex));
    let accept_rng = rng.split_stream();
    (initial, rng, accept_rng)
}

/// Joint-space analogue of [`derive_streams`].
pub(crate) fn derive_joint_streams(
    seed: u64,
    initial: Option<(usize, Vertex)>,
    k: usize,
    n: usize,
) -> (JointState, SmallRng, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let initial: JointState = match initial {
        Some((i, v)) => (i as u32, v),
        None => (rng.random_range(0..k as u32), rng.random_range(0..n as Vertex)),
    };
    let accept_rng = rng.split_stream();
    (initial, rng, accept_rng)
}

/// [`EngineDriver`] for the chain thread of the speculative single-space
/// pipeline: the same accumulation code as the sequential sampler, reading
/// densities through the shared pre-warmed cache, with segment boundaries
/// publishing the committed iteration bound to the workers.
struct PipelineSingleDriver<'a, 'g, F: FnMut(&Vertex) -> f64> {
    chain: MetropolisHastings<FnTarget<Vertex, F>, UniformProposal, SmallRng>,
    acc: SingleAccumulator,
    burn_in: u64,
    n: usize,
    pacing: &'a Pacing,
    proposal_sum: f64,
    max_proposed: f64,
    // Checkpoint context (header + payload identity).
    oracle: &'a SharedProbeOracle<'g>,
    config: &'a SingleSpaceConfig,
    r: Vertex,
}

impl<F: FnMut(&Vertex) -> f64> EngineDriver for PipelineSingleDriver<'_, '_, F> {
    type Output = (SingleAccumulator, f64);

    fn prime(&mut self, out: &mut Vec<f64>) {
        if self.acc.iteration() == 0 && self.acc.counted() == 1 {
            out.push(self.chain.current_density());
        }
    }

    fn run_segment(&mut self, iters: u64, out: &mut Vec<f64>) {
        let start = self.acc.iteration();
        // Monotone raise (fixed-budget runs pre-commit everything; never
        // lower the bound back to a segment edge).
        self.pacing.committed.fetch_max(start + iters, Ordering::AcqRel);
        for t in start + 1..=start + iters {
            self.pacing.progress.store(t, Ordering::Release);
            let o = self.chain.step();
            self.acc.absorb(&o);
            self.proposal_sum += o.proposed_density;
            if o.proposed_density > self.max_proposed {
                self.max_proposed = o.proposed_density;
            }
            if self.acc.iteration() > self.burn_in {
                out.push(o.density);
            }
        }
    }

    fn iterations(&self) -> u64 {
        self.acc.iteration()
    }

    fn rejected_by_chance(&self) -> bool {
        self.acc.rejected_by_chance(self.chain.stats())
    }

    fn scale(&self) -> f64 {
        self.n as f64 - 1.0
    }

    fn observed_mu(&self) -> Option<f64> {
        let t = self.acc.iteration();
        if t == 0 || self.proposal_sum <= 0.0 {
            return None;
        }
        Some(self.max_proposed / (self.proposal_sum / t as f64))
    }

    fn finish(self) -> (SingleAccumulator, f64) {
        (self.acc, self.chain.stats().acceptance_rate())
    }
}

impl<F: FnMut(&Vertex) -> f64> CheckpointDriver for PipelineSingleDriver<'_, '_, F> {
    fn kind(&self) -> CheckpointKind {
        CheckpointKind::Single
    }

    fn view(&self) -> SpdView<'_> {
        self.oracle.view()
    }

    fn save(&self, w: &mut crate::checkpoint::Writer) {
        // Same payload as the sequential driver; at a segment boundary the
        // shared cache deterministically holds the rows of every consumed
        // proposal (see [`Pacing`]), so `cached_sources` plays the role of
        // the sequential `spd_passes`.
        single::save_single_payload(
            w,
            self.r,
            self.config,
            &self.chain.snapshot(),
            &self.acc,
            self.proposal_sum,
            self.max_proposed,
            self.oracle.cached_sources() as u64,
            self.oracle.stats(),
            self.oracle.snapshot_rows(),
        );
    }
}

/// Shared pacing state between the chain thread and its prefetch workers.
///
/// `progress` is how far the chain has consumed; `committed` is how far the
/// engine has *guaranteed* execution (raised segment by segment); `done`
/// flips when no further iterations will ever be committed. Workers warm
/// only proposals with `t ≤ committed` — under adaptive stopping the total
/// iteration count is unknown upfront, and a worker that warmed past an
/// early stop would inflate the cache (and with it the deterministic
/// `spd_passes` figure) relative to the sequential run. At every segment
/// boundary the cache therefore holds *exactly* the rows of the proposals
/// consumed so far, whatever the thread count.
pub(crate) struct Pacing {
    pub(crate) progress: AtomicU64,
    pub(crate) committed: AtomicU64,
    pub(crate) done: AtomicBool,
}

impl Pacing {
    /// Pacing with `committed` pre-set (fixed-budget runs commit the whole
    /// budget upfront, reproducing the pre-adaptive protocol exactly).
    pub(crate) fn committed_to(limit: u64) -> Self {
        Pacing {
            progress: AtomicU64::new(0),
            committed: AtomicU64::new(limit),
            done: AtomicBool::new(false),
        }
    }
}

/// Releases prefetch workers on drop (normal completion *or* panic): no
/// further iterations will be committed, so workers waiting past
/// `committed` exit instead of spinning forever.
pub(crate) struct PacingGuard<'a>(pub(crate) &'a Pacing);

impl Drop for PacingGuard<'_> {
    fn drop(&mut self) {
        self.0.done.store(true, Ordering::Release);
        // Also release the depth window (mirrors the old Progress drop).
        self.0.progress.store(u64::MAX, Ordering::Release);
    }
}

/// A worker's view of the speculation window: which strided share of the
/// proposal stream it owns and how far past the chain it may run.
pub(crate) struct Lane<'a> {
    pub(crate) lane: u64,
    pub(crate) lanes: u64,
    pub(crate) depth: u64,
    pub(crate) pacing: &'a Pacing,
}

/// One prefetch worker: replays the proposal stream from iteration `start`
/// to at most `max`, warming its strided share
/// `{t : (t - 1) ≡ lane (mod lanes)}` of the upcoming proposals, never
/// speculating more than `depth` past the chain's progress nor past the
/// committed iteration bound (see [`Pacing`]). The one copy of the
/// speculation-window protocol — `run_single`, `run_joint`, and the
/// ensemble's per-chain squads all spawn exactly this.
pub(crate) fn prefetch_lane<P, S>(
    mut proposal: P,
    mut rng: SmallRng,
    start: u64,
    max: u64,
    window: Lane<'_>,
    mut warm: impl FnMut(S),
) where
    P: Proposal<S>,
{
    for t in start..=max {
        let Some(state) = proposal.propose_iid(&mut rng) else {
            return; // state-dependent proposal: nothing to speculate on
        };
        if (t - 1) % window.lanes == window.lane {
            loop {
                let committed = window.committed();
                if t <= committed && t <= window.window_edge() {
                    break;
                }
                if t > committed && window.pacing.done.load(Ordering::Acquire) {
                    return; // the run stopped before iteration t
                }
                std::thread::yield_now();
            }
            warm(state);
        }
    }
}

impl Lane<'_> {
    fn committed(&self) -> u64 {
        self.pacing.committed.load(Ordering::Acquire)
    }

    fn window_edge(&self) -> u64 {
        self.pacing.progress.load(Ordering::Acquire).saturating_add(self.depth)
    }
}

/// A consumer of checkpoint file images, called at every segment boundary
/// (the CLI writes them to disk).
pub type CheckpointSink<'x> = dyn FnMut(Vec<u8>) -> Result<(), CoreError> + 'x;

/// Runs a checkpointable engine to completion, feeding every segment
/// boundary's checkpoint to `sink` when one is given.
fn drive<D: CheckpointDriver>(
    engine: EstimationEngine<D>,
    sink: Option<&mut CheckpointSink<'_>>,
) -> Result<(D::Output, AdaptiveReport), CoreError> {
    match sink {
        None => Ok(engine.run()),
        Some(f) => engine.run_with(|e| f(e.checkpoint())),
    }
}

/// Runs the single-space sampler (§4.2) with `prefetch.threads` evaluation
/// threads. Bit-identical to `SingleSpaceSampler::run` for every thread
/// count — see the module docs for why — and falls back to the sequential
/// sampler when `threads <= 1`.
pub fn run_single(
    g: &CsrGraph,
    r: Vertex,
    config: &SingleSpaceConfig,
    prefetch: &PrefetchConfig,
) -> Result<SingleSpaceEstimate, CoreError> {
    run_single_view(SpdView::direct(g), r, config, prefetch)
}

/// [`run_single`] evaluating densities through `view` — the preprocessing
/// entry point. The chain, its proposal stream, and the estimator all live
/// in **original** vertex ids; see [`SingleSpaceSampler::for_view`] for why
/// the stationary distribution needs no correction. Output is bit-identical
/// across thread counts for a fixed view.
pub fn run_single_view(
    view: SpdView<'_>,
    r: Vertex,
    config: &SingleSpaceConfig,
    prefetch: &PrefetchConfig,
) -> Result<SingleSpaceEstimate, CoreError> {
    run_single_view_adaptive(view, r, config, EngineConfig::fixed(), prefetch, None)
        .map(|(est, _)| est)
}

/// The adaptive entry point of the single-space pipeline: executes through
/// a segmented [`EstimationEngine`] (so a [`mhbc_mcmc::StoppingRule`] can
/// end the run early), optionally writing a checkpoint at every segment
/// boundary, with `prefetch.threads` evaluation threads.
///
/// Bit-identity holds in both directions: a `FixedIterations` run equals
/// the pre-engine pipeline exactly, and an adaptive run's estimates,
/// stopping point, and `spd_passes` agree across all thread counts —
/// stopping decisions are pure functions of the observation series, and
/// workers never warm past the committed iteration bound (the pacing
/// protocol),
/// so the cache holds exactly the consumed proposals' rows at every
/// boundary.
pub fn run_single_view_adaptive(
    view: SpdView<'_>,
    r: Vertex,
    config: &SingleSpaceConfig,
    engine_cfg: EngineConfig,
    prefetch: &PrefetchConfig,
    sink: Option<&mut CheckpointSink<'_>>,
) -> Result<(SingleSpaceEstimate, AdaptiveReport), CoreError> {
    let n = validate_single(&view, r, config)?;
    if !prefetch.is_parallel() {
        let engine = SingleSpaceSampler::for_view(view, r, config.clone())?.into_engine(engine_cfg);
        return drive(engine, sink);
    }
    let (initial, prop_rng, acc_rng) = derive_streams(config.seed, config.initial, n);
    let oracle = SharedProbeOracle::for_view(view, &[r]);
    parallel_single(
        view, r, config, engine_cfg, prefetch, sink, &oracle, None, initial, prop_rng, acc_rng, n,
    )
}

/// Resumes a checkpointed single-space run against `view` (same graph,
/// same preprocess level — validated; any kernel mode) with
/// `prefetch.threads` evaluation threads. The resumed run is bit-identical
/// to an uninterrupted one whatever the thread counts on either side of
/// the checkpoint.
pub fn resume_single_view(
    view: SpdView<'_>,
    bytes: &[u8],
    prefetch: &PrefetchConfig,
    sink: Option<&mut CheckpointSink<'_>>,
) -> Result<(SingleSpaceEstimate, AdaptiveReport), CoreError> {
    if !prefetch.is_parallel() {
        let engine = crate::engine::resume_single(view, bytes)?;
        return drive(engine, sink);
    }
    let (state, mut rdr) = open_checkpoint(&view, bytes, CheckpointKind::Single)?;
    let mut parts = single::decode_single_parts(&view, &mut rdr)?;
    let oracle = SharedProbeOracle::for_view(view, &[parts.r]);
    // Hand the decoded rows over without duplicating them (a checkpointed
    // cache can hold thousands of length-k rows).
    oracle.restore_cache(std::mem::take(&mut parts.rows), parts.stats);
    let prop_rng = SmallRng::restore_state(parts.snap.proposal_rng);
    let acc_rng = SmallRng::restore_state(parts.snap.accept_rng);
    parallel_single(
        view,
        parts.r,
        &parts.config.clone(),
        state.config,
        prefetch,
        sink,
        &oracle,
        Some((parts, state.monitor, state.segments, state.budget)),
        0,
        prop_rng,
        acc_rng,
        view.num_vertices(),
    )
}

/// The shared parallel body of [`run_single_view_adaptive`] and
/// [`resume_single_view`]: spawns the prefetch squad, then runs the chain
/// thread through the segmented engine.
#[allow(clippy::too_many_arguments)]
fn parallel_single(
    view: SpdView<'_>,
    r: Vertex,
    config: &SingleSpaceConfig,
    engine_cfg: EngineConfig,
    prefetch: &PrefetchConfig,
    sink: Option<&mut CheckpointSink<'_>>,
    oracle: &SharedProbeOracle<'_>,
    resume: Option<(single::SingleResumeParts, mhbc_mcmc::DiagnosticsMonitor, u64, u64)>,
    initial: Vertex,
    prop_rng: SmallRng,
    acc_rng: SmallRng,
    n: usize,
) -> Result<(SingleSpaceEstimate, AdaptiveReport), CoreError> {
    let workers = (prefetch.threads - 1) as u64;
    let depth = prefetch.depth.max(workers);
    let budget = match &resume {
        None => config.iterations,
        Some((_, _, _, budget)) => *budget,
    };
    let start = resume.as_ref().map_or(1, |(parts, _, _, _)| parts.acc.iteration() + 1);
    // Fixed-budget runs commit everything upfront (the historical
    // behaviour); adaptive runs commit segment by segment.
    let committed0 = match engine_cfg.stopping {
        mhbc_mcmc::StoppingRule::FixedIterations => budget,
        _ => start.saturating_sub(1),
    };
    let pacing = Pacing::committed_to(committed0);
    let pool = SpdWorkspacePool::for_view_workers(view, prefetch.threads);
    // Workers replay the proposal stream from the chain's current position.
    let worker_rng = prop_rng.clone();

    let out = crossbeam::thread::scope(|scope| {
        for lane in 0..workers {
            let wrng = worker_rng.clone();
            let (pool, pacing) = (&pool, &pacing);
            scope.spawn(move |_| {
                let mut calc = pool.checkout();
                prefetch_lane(
                    UniformProposal::new(n),
                    wrng,
                    start,
                    budget,
                    Lane { lane, lanes: workers, depth, pacing },
                    |v: Vertex| {
                        oracle.warm(v, &mut calc);
                    },
                );
            });
        }

        // The chain thread: identical code path to the sequential sampler,
        // reading densities through the shared (pre-warmed) cache.
        let mut calc = pool.checkout();
        let target = fn_target(|v: &Vertex| oracle.dep(*v, 0, &mut calc));
        let guard = PacingGuard(&pacing);
        let (engine, run_config);
        match resume {
            None => {
                let chain = MetropolisHastings::with_streams(
                    target,
                    UniformProposal::new(n),
                    initial,
                    prop_rng,
                    acc_rng,
                );
                let mut acc = SingleAccumulator::new(config, n);
                acc.absorb_initial(chain.current_density());
                run_config = config.clone();
                let driver = PipelineSingleDriver {
                    chain,
                    acc,
                    burn_in: run_config.burn_in,
                    n,
                    pacing: &pacing,
                    proposal_sum: 0.0,
                    max_proposed: 0.0,
                    oracle,
                    config: &run_config,
                    r,
                };
                engine = EstimationEngine::new(driver, budget, engine_cfg);
            }
            Some((parts, monitor, segments, _)) => {
                let chain =
                    MetropolisHastings::restore(target, UniformProposal::new(n), parts.snap);
                run_config = parts.config;
                let driver = PipelineSingleDriver {
                    chain,
                    acc: parts.acc,
                    burn_in: run_config.burn_in,
                    n,
                    pacing: &pacing,
                    proposal_sum: parts.proposal_sum,
                    max_proposed: parts.max_proposed,
                    oracle,
                    config: &run_config,
                    r,
                };
                engine =
                    EstimationEngine::with_state(driver, budget, engine_cfg, monitor, segments);
            }
        }
        let out = drive(engine, sink);
        drop(guard);
        out
    })
    .expect("pipeline threads joined");

    let ((acc, acceptance_rate), report) = out?;
    Ok((acc.finish(r, acceptance_rate, oracle.cached_sources() as u64, oracle.stats()), report))
}

/// Runs the joint-space sampler (§4.3) with `prefetch.threads` evaluation
/// threads; bit-identical to `JointSpaceSampler::run`, with sequential
/// fallback for `threads <= 1`.
pub fn run_joint(
    g: &CsrGraph,
    probes: &[Vertex],
    config: &JointSpaceConfig,
    prefetch: &PrefetchConfig,
) -> Result<JointSpaceEstimate, CoreError> {
    run_joint_view(SpdView::direct(g), probes, config, prefetch)
}

/// [`run_joint`] evaluating densities through `view`; every probe must
/// survive the reduction ([`CoreError::PrunedProbe`] otherwise).
///
/// The threaded joint pipeline runs the full fixed budget (adaptive
/// stopping for probe sets goes through the per-probe
/// [`crate::schedule::ProbeScheduler`][sched] instead, and the sequential
/// joint engine — [`JointSpaceSampler::into_engine`] — supports adaptive
/// rules and checkpointing directly).
///
/// [sched]: crate::schedule::run_probe_schedule
pub fn run_joint_view(
    view: SpdView<'_>,
    probes: &[Vertex],
    config: &JointSpaceConfig,
    prefetch: &PrefetchConfig,
) -> Result<JointSpaceEstimate, CoreError> {
    let (n, k) = joint::validate_joint(&view, probes, config)?;
    if !prefetch.is_parallel() {
        return Ok(JointSpaceSampler::for_view(view, probes, config.clone())?.run());
    }
    let workers = (prefetch.threads - 1) as u64;
    let depth = prefetch.depth.max(workers);
    let (initial, prop_rng, acc_rng) = derive_joint_streams(config.seed, config.initial, k, n);
    let oracle = SharedProbeOracle::for_view(view, probes);
    let pool = SpdWorkspacePool::for_view_workers(view, prefetch.threads + 1);
    let iterations = config.iterations;
    let pacing = Pacing::committed_to(iterations);

    let (acc, acceptance_rate) = crossbeam::thread::scope(|scope| {
        for lane in 0..workers {
            let wrng = prop_rng.clone();
            let (oracle, pool, pacing) = (&oracle, &pool, &pacing);
            scope.spawn(move |_| {
                let mut calc = pool.checkout();
                prefetch_lane(
                    JointProposal { k: k as u32, n: n as u32 },
                    wrng,
                    1,
                    iterations,
                    Lane { lane, lanes: workers, depth, pacing },
                    |(_, v): JointState| {
                        oracle.warm(v, &mut calc);
                    },
                );
            });
        }

        let mut calc = pool.checkout();
        let mut absorb_calc = pool.checkout();
        let oracle_ref = &oracle;
        let target = fn_target(|s: &JointState| oracle_ref.dep(s.1, s.0 as usize, &mut calc));
        let mut chain = MetropolisHastings::with_streams(
            target,
            JointProposal { k: k as u32, n: n as u32 },
            initial,
            prop_rng,
            acc_rng,
        );
        let mut acc = JointAccumulator::new(k, config.trace_pair);
        let mut absorb = |chain_state: JointState, acc: &mut JointAccumulator| {
            let (j, v) = chain_state;
            oracle_ref.with_deps(v, &mut absorb_calc, |row| acc.absorb(j as usize, row));
        };
        absorb(*chain.state(), &mut acc);
        let guard = PacingGuard(&pacing);
        for t in 1..=iterations {
            guard.0.progress.store(t, Ordering::Release);
            chain.step();
            absorb(*chain.state(), &mut acc);
        }
        (acc, chain.stats().acceptance_rate())
    })
    .expect("pipeline threads joined");

    Ok(acc.finish(
        probes.to_vec(),
        iterations,
        acceptance_rate,
        oracle.cached_sources() as u64,
        oracle.stats(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_graph::generators;

    fn fingerprint(e: &SingleSpaceEstimate) -> (u64, u64, u64, u64) {
        (e.bc.to_bits(), e.bc_corrected.to_bits(), e.acceptance_rate.to_bits(), e.spd_passes)
    }

    #[test]
    fn pipelined_single_matches_sequential_bitwise() {
        let g = generators::barbell(6, 2);
        let config = SingleSpaceConfig::new(2_500, 97);
        let seq = SingleSpaceSampler::new(&g, 6, config.clone()).unwrap().run();
        for threads in [2usize, 3, 5] {
            let par = run_single(&g, 6, &config, &PrefetchConfig::with_threads(threads)).unwrap();
            assert_eq!(fingerprint(&seq), fingerprint(&par), "threads {threads}");
        }
    }

    #[test]
    fn pipelined_joint_matches_sequential_bitwise() {
        let g = generators::barbell(5, 3);
        let probes = [5u32, 6, 7];
        let config = JointSpaceConfig::new(2_000, 41).with_trace_pair(0, 1);
        let seq = JointSpaceSampler::new(&g, &probes, config.clone()).unwrap().run();
        let par = run_joint(&g, &probes, &config, &PrefetchConfig::with_threads(3)).unwrap();
        assert_eq!(seq.counts, par.counts);
        assert_eq!(seq.spd_passes, par.spd_passes);
        assert_eq!(seq.acceptance_rate.to_bits(), par.acceptance_rate.to_bits());
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(seq.relative[i][j].to_bits(), par.relative[i][j].to_bits(), "({i},{j})");
            }
        }
        assert_eq!(seq.trace.as_ref().map(|t| t.len()), par.trace.as_ref().map(|t| t.len()));
    }

    #[test]
    fn sequential_fallback_for_thread_counts_below_two() {
        let g = generators::barbell(4, 1);
        let config = SingleSpaceConfig::new(300, 5);
        let seq = SingleSpaceSampler::new(&g, 4, config.clone()).unwrap().run();
        for threads in [0usize, 1] {
            let fb = run_single(&g, 4, &config, &PrefetchConfig::with_threads(threads)).unwrap();
            assert_eq!(fingerprint(&seq), fingerprint(&fb));
        }
    }

    #[test]
    fn tiny_speculation_window_still_exact() {
        let g = generators::lollipop(5, 3);
        let config = SingleSpaceConfig::new(800, 13).with_trace();
        let seq = SingleSpaceSampler::new(&g, 5, config.clone()).unwrap().run();
        let par =
            run_single(&g, 5, &config, &PrefetchConfig::with_threads(3).with_depth(1)).unwrap();
        assert_eq!(fingerprint(&seq), fingerprint(&par));
        assert_eq!(seq.trace.unwrap(), par.trace.unwrap());
        assert_eq!(seq.density_series.unwrap(), par.density_series.unwrap());
    }

    #[test]
    fn pipelined_reduced_single_matches_sequential_bitwise() {
        use mhbc_graph::reduce::{reduce, ReduceLevel};
        let g = generators::lollipop(6, 3);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        let view = SpdView::preprocessed(&g, &red);
        let config = SingleSpaceConfig::new(1_500, 77);
        let seq = run_single_view(view, 0, &config, &PrefetchConfig::sequential()).unwrap();
        for threads in [2usize, 4] {
            let par =
                run_single_view(view, 0, &config, &PrefetchConfig::with_threads(threads)).unwrap();
            assert_eq!(fingerprint(&seq), fingerprint(&par), "threads {threads}");
        }
    }

    #[test]
    fn pipelined_reduced_run_rejects_pruned_probes() {
        use mhbc_graph::reduce::{reduce, ReduceLevel};
        let g = generators::lollipop(6, 3);
        let red = reduce(&g, ReduceLevel::Prune).unwrap();
        let view = SpdView::preprocessed(&g, &red);
        assert!(matches!(
            run_single_view(view, 8, &SingleSpaceConfig::new(10, 0), &PrefetchConfig::sequential()),
            Err(CoreError::PrunedProbe { probe: 8 })
        ));
    }

    #[test]
    fn adaptive_pipeline_bit_identical_across_thread_counts() {
        use mhbc_mcmc::StoppingRule;
        let g = generators::lollipop(8, 4);
        let view = SpdView::direct(&g);
        let config = SingleSpaceConfig::new(200_000, 5);
        let engine_cfg =
            EngineConfig::adaptive(StoppingRule::TargetStderr { epsilon: 0.01, delta: 0.05 })
                .with_segment(512);
        let (seq, seq_report) = run_single_view_adaptive(
            view,
            9,
            &config,
            engine_cfg,
            &PrefetchConfig::sequential(),
            None,
        )
        .unwrap();
        assert_eq!(seq_report.reason, crate::engine::StopReason::TargetReached);
        assert!(seq_report.iterations < 200_000);
        for threads in [2usize, 4] {
            let (par, par_report) = run_single_view_adaptive(
                view,
                9,
                &config,
                engine_cfg,
                &PrefetchConfig::with_threads(threads),
                None,
            )
            .unwrap();
            // Same stopping point, same estimates, same distinct SPD
            // passes: workers never warm past the committed bound, so the
            // early stop cannot inflate the cache.
            assert_eq!(seq_report.iterations, par_report.iterations, "threads {threads}");
            assert_eq!(fingerprint(&seq), fingerprint(&par), "threads {threads}");
            assert_eq!(seq_report.stderr.to_bits(), par_report.stderr.to_bits());
        }
    }

    #[test]
    fn parallel_resume_matches_uninterrupted_bitwise() {
        let g = generators::lollipop(8, 4);
        let view = SpdView::direct(&g);
        let config = SingleSpaceConfig::new(2_500, 17).with_trace();
        let seq = SingleSpaceSampler::for_view(view, 9, config.clone()).unwrap().run();

        // Checkpoint mid-run from a *parallel* execution…
        let engine_cfg = EngineConfig::fixed().with_segment(250);
        let mut saved: Option<Vec<u8>> = None;
        let mut count = 0;
        let mut sink = |bytes: Vec<u8>| {
            count += 1;
            if count == 4 {
                saved = Some(bytes);
            }
            Ok(())
        };
        let _ = run_single_view_adaptive(
            view,
            9,
            &config,
            engine_cfg,
            &PrefetchConfig::with_threads(3),
            Some(&mut sink),
        )
        .unwrap();
        let bytes = saved.expect("checkpoint captured");

        // …and resume it sequentially and in parallel: all bit-identical.
        for threads in [1usize, 2, 8] {
            let (resumed, _) =
                resume_single_view(view, &bytes, &PrefetchConfig::with_threads(threads), None)
                    .unwrap();
            assert_eq!(fingerprint(&seq), fingerprint(&resumed), "threads {threads}");
            assert_eq!(seq.trace, resumed.trace, "threads {threads}");
        }
    }

    #[test]
    fn pipeline_validates_like_the_sampler() {
        let g = generators::path(10);
        assert!(matches!(
            run_single(&g, 99, &SingleSpaceConfig::new(10, 0), &PrefetchConfig::with_threads(2)),
            Err(CoreError::ProbeOutOfRange { .. })
        ));
        let tiny = generators::path(2);
        assert!(matches!(
            run_single(&tiny, 0, &SingleSpaceConfig::new(10, 0), &PrefetchConfig::with_threads(2)),
            Err(CoreError::GraphTooSmall { .. })
        ));
    }
}
