//! Multi-probe budget scheduling: many single-space estimations sharing one
//! iteration budget, allocated where the uncertainty is.
//!
//! The `rank` workload asks for estimates of many probes at once. A fixed
//! split gives every probe `budget / k` iterations — wasteful, because
//! confidence shrinks at very different rates across probes (high-`µ(r)`
//! probes mix slowly; zero-betweenness probes converge instantly). The
//! probe scheduler ([`run_probe_schedule`]) instead runs the probes'
//! [`EstimationEngine`]s
//! **round-robin by segment**: one warm-up sweep gives every probe a first
//! confidence interval, after which each segment of the remaining budget
//! goes to the probe with the **widest interval** among those that have not
//! yet reached their target. Probes that hit the per-probe
//! [`StoppingRule`] drop out of the rotation, so their share of the budget
//! flows to the hard cases.
//!
//! The schedule is deterministic: interval widths are pure functions of the
//! per-probe seeds, and ties break toward the lowest probe index.
//!
//! All probes' chains read one [`ProbeOracle`] over the whole probe set,
//! each its own column. One SPD pass from a source yields `δ_{s•}(x)` for
//! every vertex `x` (Eq 4), so a run costs one pass per distinct source
//! (row key) across *all* probes — never more than the vertex count — and
//! every probe's estimate is bit-identical to a standalone sampler with
//! seed `seed + i` stepped through the same segments.

use crate::engine::{AdaptiveReport, EngineConfig, EstimationEngine, StopReason};
use crate::oracle::{OracleStats, ProbeOracle};
use crate::single::{
    validate_single, SingleDriver, SingleSpaceConfig, SingleSpaceEstimate, SingleSpaceSampler,
};
use crate::CoreError;
use mhbc_graph::Vertex;
use mhbc_mcmc::monitor::normal_upper_quantile;
use mhbc_mcmc::StoppingRule;
use mhbc_spd::SpdView;
use std::sync::Arc;

/// Configuration for [`run_probe_schedule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleConfig {
    /// Total iteration budget shared by all probes (respected up to one
    /// segment of overshoot — the scheduler never splits a segment).
    pub budget: u64,
    /// Scheduling granularity: iterations per slice.
    pub segment: u64,
    /// Per-probe stopping target. With [`StoppingRule::FixedIterations`]
    /// no probe ever "finishes" early and the schedule degenerates to an
    /// even round-robin split — the fixed-budget baseline.
    pub target: StoppingRule,
    /// Base seed; probe `i` runs with `seed + i`.
    pub seed: u64,
}

impl ScheduleConfig {
    /// Adaptive schedule targeting a per-probe standard error.
    pub fn target_stderr(budget: u64, epsilon: f64, delta: f64, seed: u64) -> Self {
        ScheduleConfig {
            budget,
            segment: EngineConfig::DEFAULT_SEGMENT,
            target: StoppingRule::TargetStderr { epsilon, delta },
            seed,
        }
    }

    /// Overrides the scheduling segment (clamped to ≥ 1).
    pub fn with_segment(mut self, segment: u64) -> Self {
        self.segment = segment.max(1);
        self
    }
}

/// Per-probe outcome of a scheduled run.
#[derive(Debug, Clone)]
pub struct ProbeOutcome {
    /// The probe vertex.
    pub probe: Vertex,
    /// Iterations this probe received.
    pub allocated: u64,
    /// Whether the per-probe target was reached (always `false` under
    /// `FixedIterations`).
    pub reached: bool,
    /// The `(1−δ)` confidence half-width at the end (`inf` when the probe
    /// never completed two observation batches or its chain never showed
    /// its spread; see [`EstimationEngine::estimate_stderr`]).
    pub ci_halfwidth: f64,
    /// The probe's finished estimate.
    pub estimate: SingleSpaceEstimate,
    /// The probe's engine report.
    pub report: AdaptiveReport,
}

/// Result of [`run_probe_schedule`].
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// Per-probe outcomes, in input order.
    pub probes: Vec<ProbeOutcome>,
    /// Total iterations spent across all probes.
    pub spent: u64,
    /// Scheduling decisions taken (segments granted).
    pub rounds: u64,
    /// SPD passes of the shared oracle: the sum of the probes'
    /// `estimate.spd_passes`.
    pub spd_passes: u64,
    /// Lookups of the shared oracle: the sum of the probes'
    /// `estimate.oracle_stats`.
    pub oracle_stats: OracleStats,
}

impl ScheduleOutcome {
    /// Whether every probe reached its target within the budget.
    pub fn all_reached(&self) -> bool {
        self.probes.iter().all(|p| p.reached)
    }
}

/// One probe's engine and its scheduling state.
struct Lane<'g> {
    engine: EstimationEngine<SingleDriver<'g>>,
    /// Set once the engine stops (target reached or budget exhausted).
    finished: Option<StopReason>,
    allocated: u64,
}

impl Lane<'_> {
    /// Runs one segment; returns the iterations it took.
    fn grant(&mut self) -> u64 {
        let before = self.engine.iterations();
        self.finished = self.engine.step_segment();
        let taken = self.engine.iterations() - before;
        self.allocated += taken;
        taken
    }
}

/// The confidence z-multiplier for a stopping rule's interval reporting
/// (δ from the rule when it has one; 95% otherwise).
fn ci_z(rule: StoppingRule) -> f64 {
    match rule {
        StoppingRule::TargetStderr { delta, .. } => normal_upper_quantile(delta / 2.0),
        _ => normal_upper_quantile(0.025),
    }
}

/// Runs single-space estimations for every probe in `probes`, sharing
/// `config.budget` iterations via widest-interval-first scheduling (module
/// docs). Probes must be distinct, in range, and retained by the view's
/// reduction.
pub fn run_probe_schedule(
    view: SpdView<'_>,
    probes: &[Vertex],
    config: ScheduleConfig,
) -> Result<ScheduleOutcome, CoreError> {
    if probes.is_empty() {
        return Err(CoreError::ProbeSetTooSmall { len: 0 });
    }
    for (i, &p) in probes.iter().enumerate() {
        if probes[..i].contains(&p) {
            return Err(CoreError::DuplicateProbe { probe: p });
        }
    }
    let sampler_cfg =
        |i: usize| SingleSpaceConfig::new(config.budget, config.seed.wrapping_add(i as u64));
    // Validate before building the oracle, which panics on bad probes.
    for &p in probes {
        validate_single(&view, p, None)?;
    }
    let z = ci_z(config.target);
    let engine_cfg = EngineConfig::adaptive(config.target).with_segment(config.segment);

    // One engine per probe, all reading one oracle; each may in principle
    // consume the whole budget.
    let oracle = Arc::new(ProbeOracle::for_view(view, probes));
    let mut lanes: Vec<Lane<'_>> = (0..probes.len())
        .map(|i| Lane {
            engine: SingleSpaceSampler::with_oracle(Arc::clone(&oracle), i, sampler_cfg(i))
                .into_engine(engine_cfg),
            finished: None,
            allocated: 0,
        })
        .collect();
    let mut spent = 0u64;
    let mut rounds = 0u64;

    let width = |e: &EstimationEngine<SingleDriver<'_>>| -> f64 {
        let se = e.estimate_stderr();
        if se.is_finite() {
            z * se
        } else {
            f64::INFINITY
        }
    };

    // Warm-up sweep: every probe gets one segment (and with it a first
    // interval), in input order.
    for lane in &mut lanes {
        if spent >= config.budget {
            break;
        }
        spent += lane.grant();
        rounds += 1;
    }

    // Reallocation: widest interval first among unfinished probes.
    while spent < config.budget {
        let mut pick: Option<(usize, f64)> = None;
        for (i, lane) in lanes.iter().enumerate() {
            if lane.finished.is_some() {
                continue;
            }
            let w = width(&lane.engine);
            // Strict > keeps ties on the lowest index (deterministic).
            if pick.is_none_or(|(_, best)| w > best) {
                pick = Some((i, w));
            }
        }
        let Some((i, _)) = pick else { break }; // all probes reached their target
        spent += lanes[i].grant();
        rounds += 1;
    }

    let outcomes = lanes
        .into_iter()
        .zip(probes)
        .map(|(lane, &probe)| {
            let ci = width(&lane.engine);
            let reached = matches!(lane.finished, Some(StopReason::TargetReached));
            let reason = lane.finished.unwrap_or(StopReason::BudgetExhausted);
            let (estimate, report) = lane.engine.finalize(reason);
            ProbeOutcome {
                probe,
                allocated: lane.allocated,
                reached,
                ci_halfwidth: ci,
                estimate,
                report,
            }
        })
        .collect();

    Ok(ScheduleOutcome {
        probes: outcomes,
        spent,
        rounds,
        spd_passes: oracle.spd_passes(),
        oracle_stats: oracle.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_graph::generators;

    #[test]
    fn budget_flows_to_the_uncertain_probe() {
        // Probe 11 (the lollipop's path tail) has zero betweenness — an
        // identically-zero series that reaches any stderr target after one
        // segment. Probe 9 (mid-path) has a genuinely varying series, so
        // the reallocation loop should hand it the lion's share.
        let g = generators::lollipop(8, 4);
        let cfg = ScheduleConfig::target_stderr(4_000, 1e-6, 0.05, 7).with_segment(128);
        let out = run_probe_schedule(mhbc_spd::SpdView::direct(&g), &[9, 11], cfg).unwrap();
        let hard = &out.probes[0];
        let tail = &out.probes[1];
        assert_eq!(tail.allocated, 128, "zero-BC probe converges after one segment");
        assert!(tail.reached);
        assert_eq!(tail.estimate.bc, 0.0);
        assert!(
            hard.allocated > tail.allocated * 8,
            "hard probe got {} vs tail {}",
            hard.allocated,
            tail.allocated
        );
        assert!(out.spent >= 4_000, "budget exhausted chasing the tight target");
        assert!(out.rounds >= 2);
    }

    #[test]
    fn loose_targets_stop_everyone_early() {
        let g = generators::barbell(6, 3);
        let probes = [6u32, 7, 8];
        let cfg = ScheduleConfig::target_stderr(600_000, 0.25, 0.05, 3).with_segment(256);
        let out = run_probe_schedule(mhbc_spd::SpdView::direct(&g), &probes, cfg).unwrap();
        assert!(out.all_reached());
        assert!(out.spent < 600_000, "spent {} of a huge budget", out.spent);
        for p in &out.probes {
            assert!(p.reached);
            assert!(p.ci_halfwidth <= 0.25);
            assert!(p.estimate.bc > 0.0);
        }
    }

    #[test]
    fn fixed_rule_degenerates_to_even_round_robin() {
        let g = generators::barbell(5, 2);
        let probes = [5u32, 6];
        let cfg = ScheduleConfig {
            budget: 2_048,
            segment: 256,
            target: StoppingRule::FixedIterations,
            seed: 1,
        };
        let out = run_probe_schedule(mhbc_spd::SpdView::direct(&g), &probes, cfg).unwrap();
        // No probe ever finishes early; allocation differs by at most one
        // segment (the alternation is interval-driven but symmetric here).
        let a = out.probes[0].allocated;
        let b = out.probes[1].allocated;
        assert_eq!(a + b, out.spent);
        assert!(out.spent >= 2_048);
        assert!(!out.all_reached());
        assert!(a.abs_diff(b) <= 512, "allocations {a} vs {b}");
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::lollipop(6, 3);
        let cfg = ScheduleConfig::target_stderr(3_000, 0.02, 0.05, 9).with_segment(200);
        let run = || {
            run_probe_schedule(mhbc_spd::SpdView::direct(&g), &[0, 7], cfg)
                .unwrap()
                .probes
                .iter()
                .map(|p| (p.allocated, p.estimate.bc.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shared_oracle_reproduces_standalone_samplers_bit_for_bit() {
        use mhbc_graph::reduce::{reduce, ReduceLevel};
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let g = generators::preferential_attachment_mixed(200, 1, 2, 0.5, &mut rng);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        for view in [SpdView::direct(&g), SpdView::preprocessed(&g, &red)] {
            let probes: Vec<Vertex> =
                (0..g.num_vertices() as Vertex).filter(|&v| view.is_retained(v)).take(8).collect();
            let cfg = ScheduleConfig::target_stderr(8 * 600, 0.02, 0.05, 11).with_segment(100);
            let out = run_probe_schedule(view, &probes, cfg).unwrap();
            let z = ci_z(cfg.target);
            for (i, o) in out.probes.iter().enumerate() {
                let sampler_cfg = SingleSpaceConfig::new(cfg.budget, cfg.seed + i as u64);
                let mut alone = SingleSpaceSampler::for_view(view, o.probe, sampler_cfg)
                    .unwrap()
                    .into_engine(EngineConfig::adaptive(cfg.target).with_segment(cfg.segment));
                let mut reason = None;
                for _ in 0..o.allocated / cfg.segment {
                    reason = alone.step_segment();
                }
                assert_eq!(alone.iterations(), o.allocated);
                let ci = z * alone.estimate_stderr();
                let (est, _) = alone.finalize(reason.unwrap_or(StopReason::BudgetExhausted));
                assert_eq!(est.bc.to_bits(), o.estimate.bc.to_bits(), "probe {}", o.probe);
                assert_eq!(est.bc_corrected.to_bits(), o.estimate.bc_corrected.to_bits());
                assert_eq!(ci.to_bits(), o.ci_halfwidth.to_bits(), "probe {}", o.probe);
                assert_eq!(est.acceptance_rate.to_bits(), o.estimate.acceptance_rate.to_bits());
            }
            // Per-probe charges add up to the shared oracle's totals, which
            // never exceed one pass per distinct row key.
            let sum = |f: &dyn Fn(&ProbeOutcome) -> u64| out.probes.iter().map(f).sum::<u64>();
            assert_eq!(sum(&|o| o.estimate.spd_passes), out.spd_passes);
            assert_eq!(sum(&|o| o.estimate.oracle_stats.hits), out.oracle_stats.hits);
            assert_eq!(sum(&|o| o.estimate.oracle_stats.misses), out.oracle_stats.misses);
            let keys: std::collections::HashSet<u64> = (0..g.num_vertices() as Vertex)
                .map(|v| view.row_key(v, probes.contains(&v)))
                .collect();
            assert!(out.spd_passes > 0 && out.spd_passes <= keys.len() as u64, "{view:?}");
            assert!(keys.len() <= g.num_vertices());
        }
    }

    #[test]
    fn validation_errors() {
        let g = generators::path(10);
        let cfg = ScheduleConfig::target_stderr(100, 0.1, 0.05, 0);
        assert!(matches!(
            run_probe_schedule(mhbc_spd::SpdView::direct(&g), &[], cfg),
            Err(CoreError::ProbeSetTooSmall { len: 0 })
        ));
        assert!(matches!(
            run_probe_schedule(mhbc_spd::SpdView::direct(&g), &[1, 1], cfg),
            Err(CoreError::DuplicateProbe { probe: 1 })
        ));
        assert!(matches!(
            run_probe_schedule(mhbc_spd::SpdView::direct(&g), &[99], cfg),
            Err(CoreError::ProbeOutOfRange { .. })
        ));
    }

    #[test]
    fn chains_still_by_chance_stay_in_rotation_with_real_intervals() {
        // Two base seeds whose 64-iteration warm-up leaves one probe's
        // series repeating one value by chance (batch spread exactly 0): at
        // 1142546, probe 42 (index 11) rejects every proposal; at 1633524,
        // probe 59 (index 10) only moves between states of one density.
        // Neither may count as reached after its warm-up.
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let g = generators::barabasi_albert(400, 4, &mut rng);
        let probes = [5, 7, 9, 11, 14, 18, 8, 17, 33, 86, 59, 42, 71, 294, 314, 312];
        for (seed, still) in [(1_142_546, 11), (1_633_524, 10)] {
            let cfg = ScheduleConfig::target_stderr(4_800, 0.01, 0.05, seed).with_segment(64);
            let out = run_probe_schedule(mhbc_spd::SpdView::direct(&g), &probes, cfg).unwrap();
            let o = &out.probes[still];
            assert!(o.allocated > 64, "seed {seed}: probe {} got {}", o.probe, o.allocated);
            for o in &out.probes {
                let hw = o.ci_halfwidth;
                assert!(hw > 0.0 && hw.is_finite(), "seed {seed}: probe {}: {hw}", o.probe);
            }
        }
    }
}
