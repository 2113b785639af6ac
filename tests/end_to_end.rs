//! End-to-end integration tests spanning all crates: the (ε, δ) guarantee,
//! determinism, and cross-estimator agreement on nontrivial graphs.

use mhbc_core::planner::{plan_single, MuSource};
use mhbc_core::{
    optimal, JointSpaceConfig, JointSpaceSampler, SingleSpaceConfig, SingleSpaceSampler,
};
use mhbc_graph::{algo, generators};
use mhbc_spd::{exact_betweenness_of, exact_betweenness_par};
use rand::{rngs::SmallRng, SeedableRng};

/// Theorem 1 + Theorem 2 end to end: plan a budget from the Theorem 2
/// µ-bound on a balanced-separator graph, run repeatedly, and check the
/// empirical failure rate respects δ (with conservative slack: the bound
/// over-provisions).
#[test]
fn planned_epsilon_delta_coverage_on_separator_family() {
    let mut rng = SmallRng::seed_from_u64(1);
    let hs = generators::hub_separator(3, 60, 0.05, 2, &mut rng);
    let (g, hub) = (&hs.graph, hs.hub);
    let (eps, delta) = (0.06, 0.2);
    let plan = plan_single(g, hub, eps, delta, MuSource::TheoremTwo).expect("hub separates");
    let exact = exact_betweenness_of(g, hub);

    let runs = 12;
    let mut failures = 0;
    for seed in 0..runs {
        let est = SingleSpaceSampler::new(g, hub, SingleSpaceConfig::new(plan.iterations, seed))
            .expect("valid config")
            .run();
        if (est.bc - exact).abs() > eps {
            failures += 1;
        }
    }
    assert!(
        failures <= 2,
        "{failures}/{runs} runs missed eps = {eps} with planned T = {}",
        plan.iterations
    );
}

/// The full pipeline is deterministic: same seed, same graph, same result,
/// across every crate boundary.
#[test]
fn full_pipeline_determinism() {
    let build = || {
        let mut rng = SmallRng::seed_from_u64(99);
        generators::barabasi_albert(800, 3, &mut rng)
    };
    let g1 = build();
    let g2 = build();
    assert_eq!(g1.num_edges(), g2.num_edges());

    let run = |g: &mhbc_graph::CsrGraph| {
        SingleSpaceSampler::new(g, 0, SingleSpaceConfig::new(2_000, 5)).expect("valid config").run()
    };
    let (a, b) = (run(&g1), run(&g2));
    assert_eq!(a.bc, b.bc);
    assert_eq!(a.bc_corrected, b.bc_corrected);
    assert_eq!(a.spd_passes, b.spd_passes);
}

/// Theorem 3 end to end on a generated community graph: the joint sampler's
/// ratio matches exact Brandes ratios within sampling error.
#[test]
fn joint_ratios_match_exact_brandes_on_communities() {
    let mut rng = SmallRng::seed_from_u64(3);
    let g = generators::planted_partition(4, 60, 0.25, 0.01, &mut rng);
    let exact = exact_betweenness_par(&g, 0);

    // Probes: the max-degree vertex of each block (community cores).
    let probes: Vec<u32> = (0..4)
        .map(|b| {
            ((b * 60) as u32..((b + 1) * 60) as u32)
                .max_by_key(|&v| g.degree(v))
                .expect("non-empty block")
        })
        .collect();

    let est = JointSpaceSampler::new(&g, &probes, JointSpaceConfig::new(120_000, 17))
        .expect("valid probes")
        .run();

    for i in 0..probes.len() {
        for j in 0..probes.len() {
            if i == j {
                continue;
            }
            let truth = exact[probes[i] as usize] / exact[probes[j] as usize];
            let got = est.ratio(i, j);
            assert!((got - truth).abs() / truth < 0.25, "ratio({i},{j}) = {got} vs exact {truth}");
        }
    }
}

/// The corrected estimator agrees with exact BC across graph families —
/// including ones with skewed profiles where Eq 7 is visibly biased.
#[test]
fn corrected_estimator_tracks_exact_across_families() {
    let cases: Vec<(mhbc_graph::CsrGraph, u32)> = vec![
        (generators::lollipop(12, 6), 12),
        (generators::barbell(10, 3), 11),
        (generators::grid(12, 12, false), 66),
        (generators::wheel(40), 0),
    ];
    for (g, r) in cases {
        let exact = exact_betweenness_of(&g, r);
        let est = SingleSpaceSampler::new(&g, r, SingleSpaceConfig::new(60_000, 13))
            .expect("valid config")
            .run();
        assert!(
            (est.bc_corrected - exact).abs() < 0.05_f64.max(exact * 0.15),
            "graph {g}, probe {r}: corrected {} vs exact {exact}",
            est.bc_corrected
        );
    }
}

/// Eq 7's structural bias, end to end: on a skewed profile the Eq 7
/// estimate converges *above* BC(r), by exactly the predicted gap.
#[test]
fn eq7_bias_matches_prediction() {
    let g = generators::lollipop(15, 8);
    let r = 16; // mid-path vertex: skewed dependency profile
    let profile = mhbc_spd::dependency_profile_par(&g, r, 0);
    let limit = optimal::eq7_limit(&profile);
    let exact = profile.betweenness();
    assert!(limit > exact + 0.02, "premise: visible bias");

    let est = SingleSpaceSampler::new(&g, r, SingleSpaceConfig::new(80_000, 23))
        .expect("valid config")
        .run();
    assert!(
        (est.bc - limit).abs() < 0.02,
        "Eq 7 estimate {} should sit at its limit {limit}, not at BC {exact}",
        est.bc
    );
}

/// Weighted pipeline: generators -> Dijkstra kernel -> sampler -> exact
/// weighted Brandes.
#[test]
fn weighted_end_to_end() {
    let mut rng = SmallRng::seed_from_u64(7);
    let base = generators::grid(10, 10, false);
    let g = generators::assign_uniform_weights(&base, 1.0, 4.0, &mut rng);
    let centre = 55u32;
    let exact = exact_betweenness_par(&g, 0)[centre as usize];
    let est = SingleSpaceSampler::new(&g, centre, SingleSpaceConfig::new(30_000, 2))
        .expect("valid config")
        .run();
    assert!(
        (est.bc_corrected - exact).abs() < 0.03,
        "corrected {} vs exact {exact}",
        est.bc_corrected
    );
}

/// Largest-component preprocessing composes with the samplers.
#[test]
fn disconnected_input_pipeline() {
    let mut rng = SmallRng::seed_from_u64(11);
    let g = generators::erdos_renyi_gnp(400, 0.004, &mut rng); // likely disconnected
    let (sub, _map) = algo::largest_component(&g);
    assert!(algo::is_connected(&sub));
    if sub.num_vertices() >= 3 {
        let est = SingleSpaceSampler::new(&sub, 0, SingleSpaceConfig::new(500, 1))
            .expect("valid config")
            .run();
        assert!(est.bc.is_finite());
    }
}

/// A tiny edge list naming vertex 3,000,000,000 is refused with a message
/// and a non-zero exit, not by aborting on a multi-gigabyte allocation.
#[test]
fn huge_vertex_id_is_a_clean_cli_error() {
    let dir = std::env::temp_dir().join(format!("mhbc_huge_id_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("huge.txt");
    std::fs::write(&path, "0 1\n1 2\n2 3000000000\n3000000000 0\n").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mhbc"))
        .args(["estimate", path.to_str().unwrap(), "1", "--iters", "10"])
        .output()
        .expect("mhbc runs");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: vertex id 3000000000 is too sparse"), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// A checkpoint whose last cached row was cut to length 0 and re-signed is
/// refused by `mhbc resume` with an error line and exit code 1.
#[test]
fn resume_of_a_cut_checkpoint_row_is_a_clean_cli_error() {
    let dir = std::env::temp_dir().join(format!("mhbc_cut_row_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("lollipop.txt");
    let ckpt = dir.join("run.ckpt");
    let text: String =
        generators::lollipop(8, 4).edges().map(|(u, v, _)| format!("{u} {v}\n")).collect();
    std::fs::write(&graph, text).unwrap();
    let (graph, ckpt_path) = (graph.to_str().unwrap(), ckpt.to_str().unwrap());
    let mhbc = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_mhbc")).args(args).output().unwrap()
    };
    let written = mhbc(&[
        "estimate",
        graph,
        "9",
        "--iters",
        "2000",
        "--segment",
        "500",
        "--checkpoint",
        ckpt_path,
    ]);
    assert!(written.status.success(), "{written:?}");

    // The payload ends with the last one-entry row: cut its length to 0,
    // drop its value, and recompute the FNV-1a checksum.
    let bytes = std::fs::read(&ckpt).unwrap();
    let body = &bytes[..bytes.len() - 8];
    let len_at = body.len() - 16;
    assert_eq!(body[len_at..len_at + 8], 1u64.to_le_bytes());
    let mut cut = body[..len_at].to_vec();
    cut.extend_from_slice(&0u64.to_le_bytes());
    let sum = cut
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3));
    cut.extend_from_slice(&sum.to_le_bytes());
    std::fs::write(&ckpt, cut).unwrap();

    let out = mhbc(&["resume", graph, ckpt_path]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: checkpoint: "), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// `estimate --checkpoint` and `rank --checkpoint` write the same bytes at
/// `--threads 1` and `--threads 2`: the image holds the rows consumed so
/// far and counts that do not depend on which thread computed a row.
#[test]
fn checkpoint_files_do_not_depend_on_the_thread_count() {
    let dir = std::env::temp_dir().join(format!("mhbc_ckpt_threads_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("ba.txt");
    let mut rng = SmallRng::seed_from_u64(31);
    let text: String = generators::barabasi_albert(800, 3, &mut rng)
        .edges()
        .map(|(u, v, _)| format!("{u} {v}\n"))
        .collect();
    std::fs::write(&graph, text).unwrap();
    let graph = graph.to_str().unwrap();
    let written = |command: &str, probes: &str, threads: &str| {
        let ckpt = dir.join(format!("{command}-{threads}.ckpt"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_mhbc"))
            .args([command, graph, probes, "--iters", "3000", "--segment", "500"])
            .args(["--threads", threads, "--checkpoint", ckpt.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        std::fs::read(&ckpt).unwrap()
    };
    let estimate = (written("estimate", "0", "1"), written("estimate", "0", "2"));
    let rank = (written("rank", "0,1,2", "1"), written("rank", "0,1,2", "2"));
    std::fs::remove_dir_all(&dir).ok();
    assert!(estimate.0 == estimate.1, "estimate checkpoints differ across thread counts");
    assert!(rank.0 == rank.1, "rank checkpoints differ across thread counts");
}
