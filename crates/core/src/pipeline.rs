//! Speculative density prefetching for the independence-chain samplers.
//!
//! Every MH iteration costs one SPD pass for the *proposed* source (§4.1),
//! and the paper's proposal is an independence chain (`q(·|x) = 1/n`,
//! §4.2): the proposal at step `t` does not depend on the chain's state, so
//! the entire proposal sequence is a pure function of the seed. Prefetching
//! is therefore cache warming beside an unchanged chain: [`drive`] runs the
//! ordinary single- or joint-space engine, fresh or resumed, and with
//! `threads >= 2` adds worker threads that replay the chain's proposal
//! stream and [`ProbeOracle::warm`] the upcoming proposals' rows in the
//! engine's own oracle.
//!
//! The proposal stream is split into `threads` strided lanes, and the
//! chain owns lane 0: it computes the rows of its own lane's misses, while
//! worker `i` warms lane `i`. With the oracle's in-flight claims every
//! row is computed once, by whichever thread reaches it first, so `threads`
//! threads share the SPD passes instead of repeating them.
//!
//! ## Determinism guarantee
//!
//! The prefetched run is **bit-identical** to the sequential one, by
//! construction rather than by tolerance:
//!
//! - the chain, its accumulators and its checkpoints are the sequential
//!   engine's own, untouched; the accept/reject RNG stream never leaves the
//!   chain thread (see [`mhbc_mcmc::MetropolisHastings`]'s split streams);
//! - workers only *warm* the cache — dependency rows are a deterministic
//!   function of the evaluation view and the source's row key, so a warmed
//!   value equals the value the chain would have computed itself; and
//! - an SPD pass is charged to whichever lookup or warm *inserted* its row,
//!   so the reported `spd_passes` is the number of distinct rows — the
//!   sequential miss count, because the proposal set is identical.
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
//! when the window is full, and never past the iteration bound the engine
//! has committed to (see [`Pacing`]). Every run commits segment by segment,
//! so at each segment boundary the cache, and hence the checkpoint image,
//! holds exactly the rows the chain has consumed, at every thread count.
//! If the chain outpaces its workers it computes the density itself; the
//! chain blocks only on a row already in flight on another thread.
//! Proposals that are *state-dependent* (the F8 degree-walk ablation)
//! cannot be replayed ahead of time; [`mhbc_mcmc::Proposal::propose_iid`]
//! returns `None` for them and the workers stop at once. `threads <= 1`
//! runs the engine alone.

use crate::engine::{AdaptiveReport, CheckpointDriver, EngineConfig, EstimationEngine};
use crate::oracle::ProbeOracle;
use crate::single::{SingleSpaceConfig, SingleSpaceEstimate};
use crate::{
    CoreError, JointSpaceConfig, JointSpaceEstimate, JointSpaceSampler, SingleSpaceSampler,
};
use mhbc_graph::{CsrGraph, Vertex};
use mhbc_mcmc::Proposal;
use mhbc_spd::SpdView;
use rand::rngs::SmallRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Threading knobs for the speculative pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Total density-evaluation threads, chain thread included: `threads`
    /// of 0 or 1 runs the plain sequential sampler; `t >= 2` spawns
    /// `t - 1` prefetch workers alongside the chain thread, which owns one
    /// of the `t` lanes itself.
    pub threads: usize,
    /// How many proposals ahead of the chain the workers may speculate
    /// (clamped to at least the worker count, so every worker can compute
    /// a row while the chain computes its own). Larger windows tolerate
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

/// Progress bounds a chain publishes to its prefetch workers.
///
/// `progress` is how far the chain has consumed; `committed` is how far the
/// engine has *guaranteed* execution (raised segment by segment); `done`
/// flips when no further iterations will ever be committed. Workers warm
/// only proposals with `t ≤ committed` — under adaptive stopping the total
/// iteration count is unknown upfront, and a worker that warmed past an
/// early stop would insert rows (and charge SPD passes) the sequential run
/// never computes. At every segment boundary the cache therefore holds
/// *exactly* the rows of the proposals consumed so far, whatever the thread
/// count.
pub struct Pacing {
    progress: AtomicU64,
    committed: AtomicU64,
    done: AtomicBool,
}

impl Pacing {
    /// Pacing with `committed` pre-set (an ensemble segment commits the
    /// whole segment upfront).
    pub(crate) fn committed_to(limit: u64) -> Self {
        Pacing {
            progress: AtomicU64::new(0),
            committed: AtomicU64::new(limit),
            done: AtomicBool::new(false),
        }
    }

    /// Guarantees execution up to iteration `limit` (a monotone raise).
    pub(crate) fn commit(&self, limit: u64) {
        self.committed.fetch_max(limit, Ordering::AcqRel);
    }

    /// Records that the chain is about to run iteration `t`.
    pub(crate) fn reach(&self, t: u64) {
        self.progress.store(t, Ordering::Release);
    }
}

/// Stops prefetch workers on drop (normal completion, an aborted run *or*
/// a panic): the chain reads no further rows, so workers exit instead of
/// warming the rest of the budget or spinning forever.
pub(crate) struct PacingGuard<'a>(pub(crate) &'a Pacing);

impl Drop for PacingGuard<'_> {
    fn drop(&mut self) {
        self.0.done.store(true, Ordering::Release);
    }
}

/// A worker's view of the speculation window: which strided share of the
/// proposal stream it owns and how far past the chain it may run. The
/// chain owns lane 0 of `lanes`, so workers take lanes `1..lanes`.
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
/// speculation-window protocol — [`drive`] and the ensemble's per-chain
/// squads both spawn exactly this.
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
                if window.pacing.done.load(Ordering::Acquire) {
                    return; // the chain has stopped reading rows
                }
                if t <= window.committed() && t <= window.window_edge() {
                    break;
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

/// What prefetch workers need to replay a chain: the oracle it reads, its
/// independence proposal, and a copy of its proposal stream at the chain's
/// current position.
pub struct Replay<'g, P> {
    pub(crate) oracle: Arc<ProbeOracle<'g>>,
    pub(crate) proposal: P,
    pub(crate) rng: SmallRng,
    /// The oracle column the chain reads (single-space chains).
    pub(crate) column: usize,
}

/// An engine driver whose upcoming proposals prefetch workers can replay:
/// the single- and joint-space drivers.
pub trait Prefetch<'g>: CheckpointDriver {
    /// A chain state.
    type State;
    /// The chain's independence proposal.
    type Proposal: Proposal<Self::State> + Clone + Send;

    /// The chain's oracle, proposal and proposal stream, as of now.
    fn replay(&self) -> Replay<'g, Self::Proposal>;

    /// Warms the row the chain reads for `state`, charging the column the
    /// chain's own lookup of it would charge (`column` is
    /// [`Replay`]'s).
    fn warm(oracle: &ProbeOracle<'g>, state: Self::State, column: usize);

    /// Publishes the driver's progress to `pacing` from now on.
    fn attach(&mut self, pacing: Arc<Pacing>);
}

/// A consumer of checkpoint file images, called at every segment boundary
/// (the CLI writes them to disk).
pub type CheckpointSink<'x> = dyn FnMut(Vec<u8>) -> Result<(), CoreError> + 'x;

/// Runs a single- or joint-space engine — fresh, or resumed with
/// [`crate::resume_single`] / [`crate::resume_joint`] — to completion with
/// `prefetch.threads` evaluation threads, feeding every segment boundary's
/// checkpoint to `sink` when one is given. Bit-identical to
/// [`EstimationEngine::run`] at every thread count (module docs).
pub fn drive<'g, D: Prefetch<'g>>(
    mut engine: EstimationEngine<D>,
    prefetch: &PrefetchConfig,
    sink: Option<&mut CheckpointSink<'_>>,
) -> Result<(D::Output, AdaptiveReport), CoreError> {
    if !prefetch.is_parallel() {
        return run(engine, sink);
    }
    let lanes = prefetch.threads as u64;
    let depth = prefetch.depth.max(lanes - 1);
    let start = engine.iterations() + 1;
    let budget = engine.budget();
    // The driver commits segment by segment (see `Pacing`).
    let pacing = Arc::new(Pacing::committed_to(start - 1));
    let replay = engine.driver().replay();
    engine.driver_mut().attach(Arc::clone(&pacing));

    crossbeam::thread::scope(|scope| {
        // Lane 0 is the chain's own.
        for lane in 1..lanes {
            let (proposal, rng) = (replay.proposal.clone(), replay.rng.clone());
            let (oracle, pacing, column) = (&*replay.oracle, &*pacing, replay.column);
            scope.spawn(move |_| {
                prefetch_lane(
                    proposal,
                    rng,
                    start,
                    budget,
                    Lane { lane, lanes, depth, pacing },
                    |s| D::warm(oracle, s, column),
                );
            });
        }
        let _release = PacingGuard(&pacing);
        run(engine, sink)
    })
    .expect("pipeline threads joined")
}

/// Runs a checkpointable engine to completion, feeding every segment
/// boundary's checkpoint to `sink` when one is given.
fn run<D: CheckpointDriver>(
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
/// count — see the module docs for why.
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
/// the stationary distribution needs no correction.
pub fn run_single_view(
    view: SpdView<'_>,
    r: Vertex,
    config: &SingleSpaceConfig,
    prefetch: &PrefetchConfig,
) -> Result<SingleSpaceEstimate, CoreError> {
    run_single_view_adaptive(view, r, config, EngineConfig::fixed(), prefetch, None)
        .map(|(est, _)| est)
}

/// [`run_single_view`] under `engine_cfg` (so a
/// [`StoppingRule`](mhbc_mcmc::StoppingRule) can end
/// the run early), optionally writing a checkpoint at every segment
/// boundary: [`drive`] over [`SingleSpaceSampler::into_engine`]. An
/// adaptive run's estimates, stopping point, and `spd_passes` agree across
/// all thread counts — stopping decisions are pure functions of the
/// observation series, and workers never warm past the committed bound.
pub fn run_single_view_adaptive(
    view: SpdView<'_>,
    r: Vertex,
    config: &SingleSpaceConfig,
    engine_cfg: EngineConfig,
    prefetch: &PrefetchConfig,
    sink: Option<&mut CheckpointSink<'_>>,
) -> Result<(SingleSpaceEstimate, AdaptiveReport), CoreError> {
    let engine = SingleSpaceSampler::for_view(view, r, config.clone())?.into_engine(engine_cfg);
    drive(engine, prefetch, sink)
}

/// Resumes a checkpointed single-space run against `view` (same graph,
/// same preprocess level — validated; any kernel mode) with
/// `prefetch.threads` evaluation threads: [`drive`] over
/// [`crate::resume_single`]. The resumed run is bit-identical to an
/// uninterrupted one whatever the thread counts on either side of the
/// checkpoint.
pub fn resume_single_view(
    view: SpdView<'_>,
    bytes: &[u8],
    prefetch: &PrefetchConfig,
    sink: Option<&mut CheckpointSink<'_>>,
) -> Result<(SingleSpaceEstimate, AdaptiveReport), CoreError> {
    drive(crate::engine::resume_single(view, bytes)?, prefetch, sink)
}

/// Runs the joint-space sampler (§4.3) with `prefetch.threads` evaluation
/// threads; bit-identical to `JointSpaceSampler::run`.
pub fn run_joint(
    g: &CsrGraph,
    probes: &[Vertex],
    config: &JointSpaceConfig,
    prefetch: &PrefetchConfig,
) -> Result<JointSpaceEstimate, CoreError> {
    run_joint_view(SpdView::direct(g), probes, config, prefetch)
}

/// [`run_joint`] evaluating densities through `view`; every probe must
/// survive the reduction ([`CoreError::PrunedProbe`] otherwise). Runs the
/// full fixed budget; for adaptive stopping or checkpoints, [`drive`] a
/// [`JointSpaceSampler::into_engine`] engine instead.
pub fn run_joint_view(
    view: SpdView<'_>,
    probes: &[Vertex],
    config: &JointSpaceConfig,
    prefetch: &PrefetchConfig,
) -> Result<JointSpaceEstimate, CoreError> {
    let engine = JointSpaceSampler::for_view(view, probes, config.clone())?
        .into_engine(EngineConfig::fixed());
    drive(engine, prefetch, None).map(|(est, _)| est)
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
    fn checkpoint_images_are_identical_across_thread_counts() {
        // Every segment boundary's image, for single, joint and ensemble
        // runs: rows, passes and lookup counts are all independent of how
        // the rows were split between the chain and its workers.
        let mut rng = <SmallRng as rand::SeedableRng>::seed_from_u64(11);
        let g = generators::barabasi_albert(500, 3, &mut rng);
        let view = SpdView::direct(&g);
        let engine_cfg = EngineConfig::fixed().with_segment(300);
        let images = |threads: usize| -> [Vec<Vec<u8>>; 3] {
            let prefetch = PrefetchConfig::with_threads(threads);
            let (mut single, mut joint, mut ensemble) = (Vec::new(), Vec::new(), Vec::new());
            let config = SingleSpaceConfig::new(2_000, 5);
            let mut sink = |b: Vec<u8>| {
                single.push(b);
                Ok(())
            };
            run_single_view_adaptive(view, 0, &config, engine_cfg, &prefetch, Some(&mut sink))
                .unwrap();
            let engine =
                JointSpaceSampler::for_view(view, &[0, 1, 2], JointSpaceConfig::new(2_000, 6))
                    .unwrap()
                    .into_engine(engine_cfg);
            let mut sink = |b: Vec<u8>| {
                joint.push(b);
                Ok(())
            };
            drive(engine, &prefetch, Some(&mut sink)).unwrap();
            let config = crate::EnsembleConfig::new(3, 1_000, 7).with_prefetch(prefetch);
            let mut sink = |b: Vec<u8>| {
                ensemble.push(b);
                Ok(())
            };
            crate::ensemble::run_ensemble_view_adaptive(
                view,
                0,
                &config,
                engine_cfg,
                Some(&mut sink),
            )
            .unwrap();
            [single, joint, ensemble]
        };
        let seq = images(1);
        assert_eq!(seq.each_ref().map(Vec::len), [6, 6, 3]);
        for threads in [2usize, 8] {
            assert!(images(threads) == seq, "threads {threads}: checkpoint images differ");
        }
    }

    #[test]
    fn workers_stop_when_the_run_is_aborted() {
        // A checkpoint sink aborts the run at its first boundary; the stop
        // signal ends the workers instead of leaving them waiting for a
        // commit that never comes.
        use mhbc_mcmc::StoppingRule;
        let mut rng = <SmallRng as rand::SeedableRng>::seed_from_u64(3);
        let g = mhbc_graph::generators::barabasi_albert(400, 3, &mut rng);
        let oracle = Arc::new(ProbeOracle::new(&g, &[0]));
        let sampler = SingleSpaceSampler::with_oracle(
            Arc::clone(&oracle),
            0,
            SingleSpaceConfig::new(1 << 20, 7),
        );
        let engine = sampler.into_engine(EngineConfig::fixed().with_segment(50));
        assert_eq!(engine.config().stopping, StoppingRule::FixedIterations);
        let mut abort = |_: Vec<u8>| Err(CoreError::Checkpoint { reason: "disk full".into() });
        let prefetch = PrefetchConfig::with_threads(2).with_depth(1);
        assert!(drive(engine, &prefetch, Some(&mut abort)).is_err());
        // The chain read 51 rows; workers run at most one proposal ahead.
        let cached = oracle.cached_sources();
        assert!(cached <= 53, "{cached} rows cached after the abort");
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
