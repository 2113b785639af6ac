//! The traced run: `trace <spans.jsonl> <mhbc argv> [--then <mhbc argv>]...`
//! repeats the CLI invocations through the same public calls that
//! `cli::load_graph` and `cli::execute` make, with a span around each
//! call. Spans (name, start, end, parent, run id, process CPU, counters)
//! are kept in memory and written to `spans.jsonl` when the run ends; the
//! per-layer figures are printed as one JSON object.
//!
//! Spans live only in the benchmark's files: the program is not
//! instrumented, so a layer whose work happens inside one public call
//! (the probe scheduler, the prefetch pipeline) gets one span for the
//! whole call and its counters from the call's result.

use crate::json::Obj;
use crate::{command_path, invocations};
use mhbc_suite::cli::{self, PreprocessChoice};
use mhbc_suite::core::checkpoint::{self, CheckpointKind};
use mhbc_suite::core::schedule::{run_probe_schedule, ScheduleConfig};
use mhbc_suite::core::{
    pipeline, resume_joint, EngineConfig, JointSpaceConfig, JointSpaceSampler, PrefetchConfig,
    SingleSpaceConfig, SingleSpaceSampler, StoppingRule,
};
use mhbc_suite::graph::reduce::{reduce, ReduceLevel, ReducedGraph};
use mhbc_suite::graph::{algo, io, CsrGraph, Vertex};
use mhbc_suite::spd::{SpdView, ViewCalculator};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::fs::File;
use std::io::{BufReader, Write};
use std::time::Instant;

/// `--preprocess auto` keeps a reduction at or above this work ratio
/// (mirrors the CLI's private threshold; `run.py` checks the traced keep
/// decision against the CLI's printed one).
const AUTO_MIN_WORK_RATIO: f64 = 1.05;
/// Calculator passes timed for `kernel.ns_per_edge`.
const KERNEL_SAMPLE_PASSES: usize = 40;

/// CPU time of the whole process (all threads), in seconds.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is the
    // Linux constant for process CPU time; the call writes only `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

struct Span {
    name: &'static str,
    run: u64,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
    cpu_s: f64,
    counters: Vec<(&'static str, f64)>,
}

impl Span {
    fn wall_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    run: u64,
}

impl Tracer {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens the root span of a new run (one CLI invocation).
    fn open_run(&mut self, name: &'static str) -> usize {
        self.run += 1;
        let (start_s, cpu_s) = (self.now(), process_cpu_s());
        let run = self.run;
        self.spans.push(Span {
            name,
            run,
            parent: None,
            start_s,
            end_s: start_s,
            cpu_s,
            counters: vec![],
        });
        self.spans.len() - 1
    }

    fn close(&mut self, idx: usize) {
        let (end, cpu) = (self.now(), process_cpu_s());
        let s = &mut self.spans[idx];
        s.end_s = end;
        s.cpu_s = cpu - s.cpu_s;
    }

    /// Runs `f` inside a span named `name` under `parent`.
    fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let (start_s, cpu_s) = (self.now(), process_cpu_s());
        let run = self.run;
        self.spans.push(Span {
            name,
            run,
            parent: Some(parent),
            start_s,
            end_s: start_s,
            cpu_s,
            counters: vec![],
        });
        let idx = self.spans.len() - 1;
        let out = f();
        self.close(idx);
        out
    }

    fn last(&self) -> &Span {
        self.spans.last().expect("a span was recorded")
    }

    fn count(&mut self, key: &'static str, value: f64) {
        self.spans.last_mut().expect("a span was recorded").counters.push((key, value));
    }

    fn write(&self, path: &str) -> Result<(), String> {
        let err = |e: std::io::Error| format!("cannot write {path}: {e}");
        let mut w = std::io::BufWriter::new(File::create(path).map_err(err)?);
        for (i, s) in self.spans.iter().enumerate() {
            let mut counters = Obj::new();
            for &(k, v) in &s.counters {
                counters = counters.num(k, v);
            }
            let mut o = Obj::new().int("id", i as u64).str("name", s.name).int("run", s.run);
            if let Some(p) = s.parent {
                o = o.int("parent", p as u64);
            }
            let o = o
                .num("start_s", s.start_s)
                .num("end_s", s.end_s)
                .num("cpu_s", s.cpu_s)
                .obj("counters", &counters);
            writeln!(w, "{o}").map_err(err)?;
        }
        w.flush().map_err(err)
    }
}

/// Per-layer figures accumulated over the traced invocations. Oracle and
/// pass counters come from the first invocation (a resumed run restores
/// them from its checkpoint).
#[derive(Default)]
struct Layers {
    parse_s: f64,
    lcc_s: f64,
    reduce_build_s: f64,
    work_ratio: f64,
    reduce_kept: bool,
    vertices: usize,
    passes: u64,
    hits: u64,
    misses: u64,
    sched_spent: u64,
    sched_rounds: u64,
    sched_reached: u64,
    segments: u64,
    segment_ms: Vec<f64>,
    iterations: u64,
    sampling_wall_s: f64,
    sampling_cpu_s: f64,
    ckpt_bytes: Vec<f64>,
    ckpt_encode_ms: Vec<f64>,
    ckpt_write_ms: Vec<f64>,
    ckpt_resume_ms: f64,
    pass_ms: f64,
    ns_per_edge: f64,
    counted: bool,
}

impl Layers {
    /// Adds the last span's time to the sampling totals.
    fn sampled(&mut self, t: &Tracer) {
        self.sampling_wall_s += t.last().wall_s();
        self.sampling_cpu_s += t.last().cpu_s;
    }

    /// Records the first invocation's pass and oracle counters.
    fn counters(&mut self, passes: u64, hits: u64, misses: u64) {
        if !self.counted {
            (self.passes, self.hits, self.misses, self.counted) = (passes, hits, misses, true);
        }
    }

    fn metrics(&self, wall_s: f64) -> Obj {
        let ms_total = |xs: &[f64]| xs.iter().sum::<f64>();
        let ckpt_ms =
            ms_total(&self.ckpt_encode_ms) + ms_total(&self.ckpt_write_ms) + self.ckpt_resume_ms;
        let pass_s = self.pass_ms * 1e-3;
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let (p50, tail_pct, tail) = segment_percentiles(&self.segment_ms);
        Obj::new()
            .num("io.parse_s", self.parse_s)
            .num("graph.lcc_s", self.lcc_s)
            .num("reduce.build_s", self.reduce_build_s)
            .num("reduce.work_ratio", self.work_ratio)
            .num("reduce.kept", if self.reduce_kept { 1.0 } else { 0.0 })
            .num("kernel.ns_per_edge", self.ns_per_edge)
            .num("kernel.pass_ms", self.pass_ms)
            .num("kernel.passes", self.passes as f64)
            .num("oracle.hits", self.hits as f64)
            .num("oracle.misses", self.misses as f64)
            .num("oracle.hit_rate", per(self.hits as f64, (self.hits + self.misses) as f64))
            .num("oracle.passes_per_vertex", per(self.passes as f64, self.vertices as f64))
            .num("schedule.iters_spent", self.sched_spent as f64)
            .num("schedule.rounds", self.sched_rounds as f64)
            .num("schedule.probes_reached", self.sched_reached as f64)
            .num("engine.segments", self.segments as f64)
            .num("engine.segment_ms_p50", p50)
            .num("engine.segment_ms_tail", tail)
            .num("engine.segment_tail_pct", tail_pct)
            .num(
                "chain.ns_per_iter",
                per(
                    (self.sampling_wall_s - self.passes as f64 * pass_s) * 1e9,
                    self.iterations as f64,
                ),
            )
            .num("pipeline.cpu_per_pass_ms", per(self.sampling_cpu_s * 1e3, self.passes as f64))
            .num("pipeline.dup_ratio", per(self.sampling_cpu_s, self.passes as f64 * pass_s))
            .num("ckpt.count", self.ckpt_write_ms.len() as f64)
            .num("ckpt.bytes", median(&self.ckpt_bytes))
            .num("ckpt.encode_ms", median(&self.ckpt_encode_ms))
            .num("ckpt.write_ms", median(&self.ckpt_write_ms))
            .num("ckpt.resume_ms", self.ckpt_resume_ms)
            .num("ckpt.share", per(ckpt_ms * 1e-3, wall_s))
    }
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Median segment time, and the highest of the 99.9th/99th/90th/50th
/// percentiles with at least ten samples beyond it (`(p50, pct, value)`;
/// zeros when no segment span was recorded).
fn segment_percentiles(ms: &[f64]) -> (f64, f64, f64) {
    if ms.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut v = ms.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let pct = [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    let idx = ((pct / 100.0 * n).ceil() as usize).clamp(1, v.len()) - 1;
    (median(ms), pct, v[idx])
}

fn stopping(adaptive: &cli::AdaptiveArgs) -> StoppingRule {
    match adaptive.target_se {
        None => StoppingRule::FixedIterations,
        Some(epsilon) => StoppingRule::TargetStderr { epsilon, delta: adaptive.target_delta },
    }
}

/// The reduction `cli::execute` builds for `choice`, and whether it keeps
/// it for sampling.
fn traced_reduce(
    t: &mut Tracer,
    layers: &mut Layers,
    root: usize,
    g: &CsrGraph,
    choice: PreprocessChoice,
) -> Result<Option<(ReducedGraph, bool)>, String> {
    let (level, auto) = match choice {
        PreprocessChoice::Level(ReduceLevel::Off) => return Ok(None),
        PreprocessChoice::Level(level) => (level, false),
        PreprocessChoice::Auto if g.is_weighted() => (ReduceLevel::Prune, true),
        PreprocessChoice::Auto => (ReduceLevel::Full, true),
    };
    let red = t.span("graph.reduce", root, || reduce(g, level)).map_err(|e| e.to_string())?;
    let ratio = red.stats().work_ratio();
    let keep = !auto || ratio >= AUTO_MIN_WORK_RATIO;
    t.count("work_ratio", ratio);
    layers.reduce_build_s += t.last().wall_s();
    layers.work_ratio = ratio;
    layers.reduce_kept = keep;
    Ok(Some((red, keep)))
}

/// Writes a checkpoint image the way the CLI's sink does (temp + rename).
fn write_checkpoint(path: &str, bytes: &[u8]) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, bytes).map_err(|e| format!("cannot write checkpoint {path}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot replace checkpoint {path}: {e}"))
}

/// Times `KERNEL_SAMPLE_PASSES` dependency passes from seed-drawn sources
/// on `view` (outside every span).
fn sample_kernel(layers: &mut Layers, view: SpdView<'_>, probe: Vertex, seed: u64) {
    if layers.pass_ms > 0.0 {
        return;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut calc = ViewCalculator::new(view);
    let n = view.num_vertices() as Vertex;
    let times: Vec<f64> = (0..KERNEL_SAMPLE_PASSES)
        .map(|_| {
            let s = rng.random_range(0..n);
            let started = Instant::now();
            std::hint::black_box(calc.dependency_on(s, probe));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let edges = view.reduced().map_or(view.graph().num_edges(), |r| r.csr().num_edges());
    layers.pass_ms = median(&times);
    layers.ns_per_edge = layers.pass_ms * 1e6 / edges.max(1) as f64;
}

/// Steps an engine to its end, one span per segment; `checkpoint` writes an
/// image after every segment that does not end the run (as the CLI's
/// `run_with` observer does).
fn traced_segments<D: mhbc_suite::core::engine::CheckpointDriver>(
    t: &mut Tracer,
    layers: &mut Layers,
    root: usize,
    mut engine: mhbc_suite::core::EstimationEngine<D>,
    checkpoint_path: Option<&str>,
) -> Result<D::Output, String> {
    let before = engine.iterations();
    let reason = loop {
        let step = t.span("engine.step_segment", root, || engine.step_segment());
        t.count("iterations", engine.iterations() as f64);
        layers.sampled(t);
        layers.segments += 1;
        layers.segment_ms.push(t.last().wall_s() * 1e3);
        if let Some(reason) = step {
            break reason;
        }
        if let Some(path) = checkpoint_path {
            let bytes = t.span("ckpt.encode", root, || engine.checkpoint());
            t.count("bytes", bytes.len() as f64);
            layers.ckpt_encode_ms.push(t.last().wall_s() * 1e3);
            layers.ckpt_bytes.push(bytes.len() as f64);
            t.span("ckpt.write", root, || write_checkpoint(path, &bytes))?;
            layers.ckpt_write_ms.push(t.last().wall_s() * 1e3);
        }
    };
    layers.iterations += engine.iterations() - before;
    Ok(engine.finalize(reason).0)
}

/// One traced CLI invocation; returns its answer for `run.py` to compare
/// with the untraced CLI output.
fn traced_invocation(
    t: &mut Tracer,
    layers: &mut Layers,
    cmd: &cli::Command,
) -> Result<Obj, String> {
    let root = t.open_run(match cmd {
        cli::Command::Estimate { .. } => "cli.estimate",
        cli::Command::Rank { .. } => "cli.rank",
        cli::Command::Plan { .. } => "cli.plan",
        cli::Command::Resume { .. } => "cli.resume",
    });
    let path = command_path(cmd);
    let raw = t.span("io.read_edge_list", root, || {
        let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        io::read_edge_list(BufReader::new(file)).map_err(|e| e.to_string())
    })?;
    layers.parse_s += t.last().wall_s();
    // `cli::load_graph` drops the raw graph before returning.
    let (g, map) = t.span("graph.largest_component", root, move || algo::largest_component(&raw));
    layers.lcc_s += t.last().wall_s();
    if layers.vertices == 0 {
        layers.vertices = g.num_vertices();
    }
    let internal = |input: Vertex| -> Result<Vertex, String> {
        map.iter()
            .position(|&old| old == input)
            .map(|i| i as Vertex)
            .ok_or_else(|| format!("vertex {input} is not in the largest component"))
    };
    let external = |r: Vertex| map[r as usize] as u64;

    let answer = match cmd {
        cli::Command::Estimate {
            vertex,
            iterations,
            seed,
            threads,
            prefetch_depth,
            preprocess,
            kernel,
            adaptive,
            ..
        } => {
            if adaptive.checkpoint.is_some() {
                return Err("trace: checkpointed estimate is not traced".into());
            }
            let r = internal(*vertex)?;
            let prep = traced_reduce(t, layers, root, &g, *preprocess)?;
            if prep.as_ref().is_some_and(|(red, _)| red.exact_pruned_bc(r).is_some()) {
                return Err("trace: probe is pruned (answered in closed form, no sampling)".into());
            }
            let kept = prep.as_ref().filter(|(_, keep)| *keep).map(|(red, _)| red);
            let view = SpdView::from_option(&g, kept).with_kernel(*kernel);
            let config = SingleSpaceConfig::new(*iterations, *seed);
            let engine_cfg =
                EngineConfig::adaptive(stopping(adaptive)).with_segment(adaptive.segment);
            let est = if *threads <= 1 {
                let engine = t
                    .span("core.sampler_new", root, || {
                        SingleSpaceSampler::for_view(view, r, config)
                            .map(|s| s.into_engine(engine_cfg))
                    })
                    .map_err(|e| e.to_string())?;
                layers.sampled(t);
                traced_segments(t, layers, root, engine, None)?
            } else {
                let prefetch = PrefetchConfig::with_threads(*threads).with_depth(*prefetch_depth);
                let (est, report) = t
                    .span("pipeline.run_single_view_adaptive", root, || {
                        pipeline::run_single_view_adaptive(
                            view, r, &config, engine_cfg, &prefetch, None,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                t.count("segments", report.segments as f64);
                layers.sampled(t);
                layers.segments += report.segments;
                layers.iterations += est.iterations;
                est
            };
            t.spans[root].counters.push(("spd_passes", est.spd_passes as f64));
            layers.counters(est.spd_passes, est.oracle_stats.hits, est.oracle_stats.misses);
            t.close(root);
            sample_kernel(layers, view, r, *seed);
            Obj::new()
                .str("kind", "estimate")
                .num("bc", est.bc)
                .num("bc_corrected", est.bc_corrected)
                .int("iterations", est.iterations)
                .int("spd_passes", est.spd_passes)
                .num("reduce_kept", if layers.reduce_kept { 1.0 } else { 0.0 })
        }
        cli::Command::Rank {
            vertices,
            iterations,
            seed,
            threads,
            preprocess,
            kernel,
            adaptive,
            ..
        } => {
            if *threads > 1 {
                return Err("trace: only sequential rank is traced".into());
            }
            let probes = vertices.iter().map(|&v| internal(v)).collect::<Result<Vec<_>, _>>()?;
            let prep = traced_reduce(t, layers, root, &g, *preprocess)?;
            let kept = prep.as_ref().filter(|(_, keep)| *keep).map(|(red, _)| red);
            if kept.is_some_and(|red| probes.iter().any(|&p| !red.is_retained(p))) {
                return Err("trace: a rank probe was pruned".into());
            }
            let view = SpdView::from_option(&g, kept).with_kernel(*kernel);
            let inputs: Vec<u64> = vertices.iter().map(|&v| v as u64).collect();
            let answer = if let Some(epsilon) = adaptive.target_se {
                let cfg = ScheduleConfig {
                    budget: iterations.saturating_mul(probes.len() as u64),
                    segment: adaptive.segment,
                    target: StoppingRule::TargetStderr { epsilon, delta: adaptive.target_delta },
                    seed: *seed,
                };
                let sched = t
                    .span("schedule.run_probe_schedule", root, || {
                        run_probe_schedule(view, &probes, cfg)
                    })
                    .map_err(|e| e.to_string())?;
                layers.sampled(t);
                let sum = |f: &dyn Fn(&mhbc_suite::core::schedule::ProbeOutcome) -> u64| {
                    sched.probes.iter().map(f).sum::<u64>()
                };
                let passes = sum(&|o| o.estimate.spd_passes);
                t.count("spd_passes", passes as f64);
                t.count("rounds", sched.rounds as f64);
                layers.counters(
                    passes,
                    sum(&|o| o.estimate.oracle_stats.hits),
                    sum(&|o| o.estimate.oracle_stats.misses),
                );
                layers.sched_spent += sched.spent;
                layers.sched_rounds += sched.rounds;
                layers.sched_reached += sched.probes.iter().filter(|o| o.reached).count() as u64;
                layers.segments += sum(&|o| o.report.segments);
                layers.iterations += sched.spent;
                let field = |f: &dyn Fn(&mhbc_suite::core::schedule::ProbeOutcome) -> f64| {
                    sched.probes.iter().map(f).collect::<Vec<f64>>()
                };
                Obj::new()
                    .str("kind", "rank-adaptive")
                    .ints("probes", &inputs)
                    .nums("bc_corrected", &field(&|o| o.estimate.bc_corrected))
                    .nums("halfwidth", &field(&|o| o.ci_halfwidth))
                    .ints(
                        "allocated",
                        &sched.probes.iter().map(|o| o.allocated).collect::<Vec<_>>(),
                    )
                    .int("spent", sched.spent)
            } else {
                let config = JointSpaceConfig::new(*iterations, *seed);
                let Some(path) = &adaptive.checkpoint else {
                    return Err("trace: only checkpointed joint rank is traced".into());
                };
                let engine_cfg =
                    EngineConfig::adaptive(stopping(adaptive)).with_segment(adaptive.segment);
                let engine = t
                    .span("core.sampler_new", root, || {
                        JointSpaceSampler::for_view(view, &probes, config)
                            .map(|s| s.into_engine(engine_cfg))
                    })
                    .map_err(|e| e.to_string())?;
                layers.sampled(t);
                let est = traced_segments(t, layers, root, engine, Some(path))?;
                layers.counters(est.spd_passes, est.oracle_stats.hits, est.oracle_stats.misses);
                let ratios: Vec<f64> = (0..probes.len()).map(|i| est.ratio(i, 0)).collect();
                Obj::new().str("kind", "rank-joint").ints("probes", &inputs).nums("ratios", &ratios)
            };
            t.spans[root].counters.push(("passes", layers.passes as f64));
            t.close(root);
            sample_kernel(layers, view, probes[0], *seed);
            answer
        }
        cli::Command::Resume { checkpoint_path, threads, kernel, checkpoint, .. } => {
            if *threads > 1 {
                return Err("trace: only sequential resume is traced".into());
            }
            let (bytes, info) = t.span("ckpt.read", root, || {
                let bytes = std::fs::read(checkpoint_path)
                    .map_err(|e| format!("cannot read checkpoint {checkpoint_path}: {e}"))?;
                let info = checkpoint::peek(&bytes).map_err(|e| e.to_string())?;
                Ok::<_, String>((bytes, info))
            })?;
            layers.ckpt_resume_ms += t.last().wall_s() * 1e3;
            if info.kind != CheckpointKind::Joint || info.preprocess != ReduceLevel::Off {
                return Err("trace: only joint checkpoints without preprocessing are traced".into());
            }
            let view = SpdView::direct(&g).with_kernel(*kernel);
            let engine = t
                .span("core.resume_joint", root, || resume_joint(view, &bytes))
                .map_err(|e| e.to_string())?;
            layers.ckpt_resume_ms += t.last().wall_s() * 1e3;
            let sink = checkpoint.as_deref().unwrap_or(checkpoint_path);
            let est = traced_segments(t, layers, root, engine, Some(sink))?;
            t.close(root);
            let inputs: Vec<u64> = est.probes.iter().map(|&p| external(p)).collect();
            let ratios: Vec<f64> = (0..est.probes.len()).map(|i| est.ratio(i, 0)).collect();
            Obj::new().str("kind", "rank-joint").ints("probes", &inputs).nums("ratios", &ratios)
        }
        cli::Command::Plan { .. } => return Err("trace: plan is not traced".into()),
    };
    Ok(answer)
}

pub fn main(args: &[String]) -> Result<String, String> {
    let [spans_path, rest @ ..] = args else {
        return Err(
            "usage: perfbench trace <spans.jsonl> <mhbc argv> [--then <mhbc argv>]...".into()
        );
    };
    let mut t = Tracer { origin: Instant::now(), spans: Vec::new(), run: 0 };
    let mut layers = Layers::default();
    let mut answers = Vec::new();
    for argv in invocations(rest) {
        let cmd = cli::parse(&argv)?;
        answers.push(traced_invocation(&mut t, &mut layers, &cmd)?);
    }
    t.write(spans_path)?;
    let roots = t.spans.iter().filter(|s| s.parent.is_none());
    let wall_s: f64 = roots.map(Span::wall_s).sum();
    let covered_s: f64 = t
        .spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| t.spans[p].parent.is_none()))
        .map(Span::wall_s)
        .sum();
    Ok(Obj::new()
        .num("wall_s", wall_s)
        .num("covered_s", covered_s)
        .int("spans", t.spans.len() as u64)
        .obj("metrics", &layers.metrics(wall_s))
        .objs("answers", &answers)
        .to_string())
}
