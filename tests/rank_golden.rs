//! Golden output of the adaptive `rank` command (`--target-se`).
//!
//! The multi-probe scheduler's chains share one dependency oracle, which
//! must not change a single estimate: every probe's chain is a pure
//! function of its seed and the densities it reads, and a row's entries do
//! not depend on which chain computed it. These lines were captured from the
//! scheduler that gave every probe an oracle of its own; the output must
//! stay byte-identical, except for the SPD-pass count the header gained.
//!
//! The `full` input is pendant-rich preferential attachment: a third of its
//! vertices are pruned, and probes 24 and 104 are twins, so sources that are
//! themselves probes take the row-key probe exception.

use mhbc_suite::cli::{execute, load_graph, parse};
use mhbc_suite::graph::{generators, CsrGraph};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::Cursor;

fn rank(g: &CsrGraph, probes: &str, preprocess: &str) -> Vec<String> {
    let args: Vec<String> = [
        "rank",
        "input.txt",
        probes,
        "--iters",
        "1000",
        "--segment",
        "128",
        "--target-se",
        "0.03",
        "--seed",
        "5",
        "--preprocess",
        preprocess,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let cmd = parse(&args).expect("valid arguments");
    let text: String = g.edges().map(|(u, v, _)| format!("{u} {v}\n")).collect();
    let (lcc, map) = load_graph(Cursor::new(text)).expect("valid edge list");
    execute(&cmd, &lcc, &map).expect("rank succeeds")
}

/// Checks `out` against the golden header counters and probe lines. The
/// header must keep `spent S, R scheduling rounds` verbatim and append the
/// SPD-pass count, which may not exceed the vertex count.
fn assert_golden(out: &[String], notes: &[&str], header: &str, lines: &[&str], n: u64) {
    assert_eq!(out.len(), notes.len() + 1 + lines.len(), "{out:#?}");
    assert_eq!(&out[..notes.len()], notes);
    let head = &out[notes.len()];
    let prefix = format!("adaptive ranking by estimated BC (target se 0.03, {header}, ");
    let passes: u64 = head
        .strip_prefix(&prefix)
        .and_then(|rest| rest.strip_suffix(" SPD passes):"))
        .and_then(|p| p.parse().ok())
        .unwrap_or_else(|| panic!("header `{head}` does not extend `{prefix}`"));
    assert!(passes > 0 && passes <= n, "{passes} SPD passes on {n} vertices");
    assert_eq!(&out[notes.len() + 1..], lines);
}

const MIXED_PROBES: &str = "0,1,2,3,5,6,7,8,9,10,24,104,185";

const MIXED_LINES: [&str; 13] = [
    "         3  BC ~ 0.366757 +- 0.063093  (640 iters, budget cut)",
    "         1  BC ~ 0.312177 +- 0.059862  (640 iters, budget cut)",
    "         6  BC ~ 0.147175 +- 0.061245  (1408 iters, budget cut)",
    "         5  BC ~ 0.125983 +- 0.058811  (640 iters, budget cut)",
    "         8  BC ~ 0.123833 +- 0.059699  (1792 iters, budget cut)",
    "         2  BC ~ 0.106950 +- 0.062454  (3072 iters, budget cut)",
    "         0  BC ~ 0.083778 +- 0.058677  (128 iters, budget cut)",
    "         7  BC ~ 0.013745 +- 0.074292  (4096 iters, budget cut)",
    "         9  BC ~ 0.005830 +- 0.003775  (128 iters)",
    "        10  BC ~ 0.004431 +- 0.035519  (128 iters, budget cut)",
    "       104  BC ~ 0.003206 +- 0.011486  (128 iters)",
    "        24  BC ~ 0.002535 +- 0.011454  (128 iters)",
    "       185  BC ~ 0.000000 +- 0.000000  (128 iters)",
];

const MIXED_HEADER: &str = "budget 13000, spent 13056, 102 scheduling rounds";

fn mixed_graph() -> CsrGraph {
    generators::preferential_attachment_mixed(300, 1, 2, 0.5, &mut SmallRng::seed_from_u64(11))
}

#[test]
fn adaptive_rank_matches_golden_output_without_preprocessing() {
    let g = generators::barabasi_albert(300, 3, &mut SmallRng::seed_from_u64(11));
    let out = rank(&g, "0,1,2,3,5,8,13,21,34,55,89,144,233", "off");
    let lines = [
        "         2  BC ~ 0.174592 +- 0.040576  (1280 iters, budget cut)",
        "         0  BC ~ 0.115486 +- 0.042242  (1024 iters, budget cut)",
        "         5  BC ~ 0.108017 +- 0.038923  (256 iters, budget cut)",
        "        13  BC ~ 0.052952 +- 0.041461  (2048 iters, budget cut)",
        "        21  BC ~ 0.052301 +- 0.040145  (1536 iters, budget cut)",
        "         8  BC ~ 0.041709 +- 0.039355  (640 iters, budget cut)",
        "         3  BC ~ 0.018085 +- 0.041597  (3840 iters, budget cut)",
        "        34  BC ~ 0.012468 +- 0.040627  (384 iters, budget cut)",
        "        89  BC ~ 0.009307 +- 0.042074  (384 iters, budget cut)",
        "        55  BC ~ 0.006417 +- 0.042438  (1280 iters, budget cut)",
        "       233  BC ~ 0.001938 +- 0.007769  (128 iters)",
        "       144  BC ~ 0.000767 +- 0.006128  (128 iters)",
        "         1  BC ~ 0.000222 +- 0.004428  (128 iters)",
    ];
    assert_golden(&out, &[], "budget 13000, spent 13056, 102 scheduling rounds", &lines, 300);
}

#[test]
fn adaptive_rank_matches_golden_output_on_a_pendant_rich_graph() {
    let g = mixed_graph();
    let out = rank(&g, MIXED_PROBES, "off");
    assert_golden(&out, &[], MIXED_HEADER, &MIXED_LINES, 300);
    let out = rank(&g, MIXED_PROBES, "full");
    assert_golden(&out, &[], MIXED_HEADER, &MIXED_LINES, 300);
    let out = rank(&g, MIXED_PROBES, "auto");
    let kept = "preprocess auto: kept full (work ratio 1.50x >= 1.05x)";
    assert_golden(&out, &[kept], MIXED_HEADER, &MIXED_LINES, 300);
}

#[test]
fn preprocessing_shares_passes_across_equivalent_sources() {
    // `full` keys pendant and twin sources by class, so the same chains
    // cost strictly fewer passes than under `off`.
    let g = mixed_graph();
    let passes = |level| {
        let out = rank(&g, MIXED_PROBES, level);
        let head = out.iter().find(|l| l.starts_with("adaptive ranking")).expect("header");
        head.rsplit_once(", ")
            .and_then(|(_, t)| t.strip_suffix(" SPD passes):"))
            .and_then(|p| p.parse::<u64>().ok())
            .expect("pass count")
    };
    let (full, off) = (passes("full"), passes("off"));
    assert!(full < off, "full {full} vs off {off}");
}
