//! Input generation: `gen <workload> <seed> <dir> [--smoke]` writes the
//! workload's graph as an edge list (`graph.txt`) and its probes with their
//! exact Brandes betweenness (`meta.json`). Runs before any timing; the
//! program under test only ever sees the files.

use crate::json::Obj;
use mhbc_suite::graph::{generators, io, CsrGraph, Vertex};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::{BufWriter, Write};

/// Vertex count of the off-cache estimate graph (≈530k edges, ≈6 MB of
/// edge list: CSR and SPD workspace far exceed the host's caches).
const OFFCACHE_VERTICES: usize = 200_000;
/// Vertex count of the in-cache rank graphs.
const INCACHE_VERTICES: usize = 4_000;
/// Probes of the adaptive rank workload.
const ADAPTIVE_PROBES: usize = 16;
/// Positions (in descending exact-BC order) of the joint rank's probes:
/// the top decile of a 4k-vertex graph, so every ratio is well above the
/// 4-decimal print precision.
const JOINT_POSITIONS: [usize; 8] = [0, 1, 3, 7, 15, 31, 63, 127];

pub fn main(args: &[String]) -> Result<String, String> {
    let [workload, seed, dir, rest @ ..] = args else {
        return Err("usage: perfbench gen <workload> <seed> <dir> [--smoke]".into());
    };
    let seed: u64 = seed.parse().map_err(|_| format!("invalid seed `{seed}`"))?;
    let smoke = rest.iter().any(|a| a == "--smoke");
    let scale = |full: usize| if smoke { full / 10 } else { full };
    let mut rng = SmallRng::seed_from_u64(seed);

    let (g, probes, exact) = match workload.as_str() {
        "estimate-offcache" | "estimate-offcache-2t" => {
            // Pendant-rich preferential attachment: 45% of arrivals attach
            // once, so `--preprocess auto` has degree-1 trees to prune.
            let g = generators::preferential_attachment_mixed(
                scale(OFFCACHE_VERTICES),
                1,
                4,
                0.45,
                &mut rng,
            );
            // The hub: retained by every reduction, highest betweenness.
            let hub = (0..g.num_vertices() as Vertex)
                .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)))
                .expect("non-empty graph");
            // No exact reference: Brandes on this graph takes n passes.
            (g, vec![hub], vec![])
        }
        "rank-adaptive" | "rank-joint-ckpt" => {
            let g = generators::barabasi_albert(scale(INCACHE_VERTICES), 4, &mut rng);
            let bc = mhbc_suite::spd::exact_betweenness(&g);
            let mut order: Vec<Vertex> = (0..g.num_vertices() as Vertex).collect();
            order.sort_by(|&a, &b| bc[b as usize].total_cmp(&bc[a as usize]).then(a.cmp(&b)));
            let positions: Vec<usize> = if workload == "rank-adaptive" {
                // Geometric spread from the top vertex to the 90th
                // percentile: high, mid and low betweenness alike.
                let last = (order.len() * 9 / 10) as f64;
                (0..ADAPTIVE_PROBES)
                    .map(|i| last.powf(i as f64 / (ADAPTIVE_PROBES - 1) as f64).round() as usize)
                    .scan(0usize, |next, p| {
                        // Strictly increasing positions (distinct probes).
                        let p = p.max(*next);
                        *next = p + 1;
                        Some(p)
                    })
                    .collect()
            } else {
                JOINT_POSITIONS.to_vec()
            };
            let probes: Vec<Vertex> = positions.iter().map(|&i| order[i]).collect();
            let exact = probes.iter().map(|&p| bc[p as usize]).collect();
            (g, probes, exact)
        }
        other => return Err(format!("unknown workload `{other}`")),
    };

    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    write_graph(&g, &format!("{dir}/graph.txt"))?;
    let meta = Obj::new()
        .str("workload", workload)
        .int("seed", seed)
        .int("vertices", g.num_vertices() as u64)
        .int("edges", g.num_edges() as u64)
        .ints("probes", &probes.iter().map(|&p| p as u64).collect::<Vec<_>>())
        .nums("exact_bc", &exact);
    std::fs::write(format!("{dir}/meta.json"), meta.to_string())
        .map_err(|e| format!("cannot write meta.json: {e}"))?;
    Ok(meta.to_string())
}

fn write_graph(g: &CsrGraph, path: &str) -> Result<(), String> {
    let err = |e: std::io::Error| format!("cannot write {path}: {e}");
    let mut w = BufWriter::new(File::create(path).map_err(err)?);
    io::write_edge_list(g, &mut w).map_err(err)?;
    w.flush().map_err(err)
}
