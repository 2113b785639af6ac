//! `perfbench` — the measuring half of the mhbc benchmark. `run.py` drives
//! it; each subcommand runs in a fresh process:
//!
//! ```text
//! perfbench gen <workload> <seed> <dir> [--smoke]   write graph.txt + meta.json
//! perfbench run <mhbc argv> [--then <mhbc argv>]... untraced CLI invocations
//! perfbench load <edge-list>                        one `cli::load_graph`
//! perfbench trace <spans.jsonl> <mhbc argv> [--then <mhbc argv>]...
//! ```
//!
//! `run` does exactly what `src/bin/mhbc.rs` does — `cli::parse`, open,
//! `cli::load_graph`, `cli::execute` — and reports the time spent in
//! load (`setup_s`) and in the whole invocation (`wall_s`) with the printed
//! lines. `trace` repeats the same invocations through the layers' public
//! functions with a span around each call (see `trace.rs`).

mod gen;
mod json;
mod trace;

use json::Obj;
use mhbc_suite::cli;
use std::fs::File;
use std::io::BufReader;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => gen::main(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("load") => load(&args[1..]),
        Some("trace") => trace::main(&args[1..]),
        _ => Err("usage: perfbench gen|run|load|trace ... (see src/main.rs)".to_string()),
    };
    match result {
        Ok(out) => println!("{out}"),
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            println!("{}", Obj::new().str("error", &msg));
            std::process::exit(1);
        }
    }
}

/// Splits `a --then b --then c` into the invocations' argument vectors.
pub fn invocations(args: &[String]) -> Vec<Vec<String>> {
    args.split(|a| a == "--then").map(<[String]>::to_vec).collect()
}

/// The input path of a parsed command.
pub fn command_path(cmd: &cli::Command) -> &str {
    match cmd {
        cli::Command::Estimate { path, .. }
        | cli::Command::Rank { path, .. }
        | cli::Command::Plan { path, .. }
        | cli::Command::Resume { path, .. } => path,
    }
}

/// Runs each invocation the way the `mhbc` binary does.
fn run(args: &[String]) -> Result<String, String> {
    let mut out = Vec::new();
    for argv in invocations(args) {
        let started = Instant::now();
        let cmd = cli::parse(&argv)?;
        let path = command_path(&cmd);
        let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        let load_started = Instant::now();
        let loaded = cli::load_graph(BufReader::new(file));
        let setup_s = load_started.elapsed().as_secs_f64();
        let lines = loaded.and_then(|(g, map)| cli::execute(&cmd, &g, &map))?;
        let wall_s = started.elapsed().as_secs_f64();
        out.push(Obj::new().num("setup_s", setup_s).num("wall_s", wall_s).strs("lines", &lines));
    }
    Ok(Obj::new().objs("invocations", &out).to_string())
}

/// Times one `cli::load_graph` of `path`: the set-up every invocation pays.
fn load(args: &[String]) -> Result<String, String> {
    let [path] = args else {
        return Err("usage: perfbench load <edge-list>".into());
    };
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let started = Instant::now();
    let (g, _) = cli::load_graph(BufReader::new(file))?;
    let setup_s = started.elapsed().as_secs_f64();
    Ok(Obj::new().num("setup_s", setup_s).int("vertices", g.num_vertices() as u64).to_string())
}
