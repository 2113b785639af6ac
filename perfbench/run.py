#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `mhbc` CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root. Builds `perfbench/` (a package of its own,
into $CARGO_TARGET_DIR, default `.bench_build`), writes the workload's
inputs from the seed into `.bench_work/`, then runs the workload's CLI
invocations in fresh processes for `--seconds` seconds and checks every
answer. With `--trace 0` the last stdout line holds the end-to-end metrics
(medians over the timed repetitions); with `--trace 1` it holds the
per-layer metrics of traced runs (see README.md). Exits 1 when a check
fails or the build fails. `--smoke` runs every workload at a tenth of its
size and asserts that every metric of BENCHMARK.json is emitted with its
unit and that a tampered answer fails its check.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")
# A hung invocation is killed well before a whole run would time out.
PROCESS_TIMEOUT_S = 120.0
# Nominal coverage of the adaptive rank's intervals (--target-delta 0.05).
NOMINAL_COVERAGE = 0.95
# Timed repetitions of a run, whatever its measuring time.
MIN_REPS = 3
# `setup_s` is the median over this many graph loads: the repetitions' own
# loads, topped up by load-only processes for at most SETUP_TOP_UP_S. A
# 4k-vertex graph loads in about 3 ms, too short for a median of 5 to hold.
SETUP_SAMPLES = 25
SETUP_TOP_UP_S = 2.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Workloads: how each repetition invokes the CLI.


def estimate_argv(threads):
    def argv(d, meta, chain_seed, smoke):
        return [["estimate", d["graph"], str(meta["probes"][0]),
                 "--iters", "40" if smoke else "250", "--seed", str(chain_seed),
                 "--preprocess", "auto", "--threads", str(threads)]]
    return argv


def rank_adaptive_argv(d, meta, chain_seed, smoke):
    return [["rank", d["graph"], ",".join(map(str, meta["probes"])),
             "--iters", "300" if smoke else "1000", "--segment", "64" if smoke else "256",
             "--target-se", "0.01", "--preprocess", "off", "--seed", str(chain_seed)]]


def rank_joint_argv(d, meta, chain_seed, smoke):
    ckpt = os.path.join(d["dir"], "run.ckpt")
    return [["rank", d["graph"], ",".join(map(str, meta["probes"])),
             "--iters", "200000" if smoke else "3000000", "--segment", "8192",
             "--seed", str(chain_seed), "--checkpoint", ckpt],
            ["resume", d["graph"], ckpt]]


WORKLOADS = {
    # name: (argv of one repetition, argv of the untimed reference run that
    #        opens the run, or None)
    "estimate-offcache": (estimate_argv(1), estimate_argv(2)),
    "estimate-offcache-2t": (estimate_argv(2), estimate_argv(1)),
    "rank-adaptive": (rank_adaptive_argv, None),
    "rank-joint-ckpt": (rank_joint_argv, None),
}


# --------------------------------------------------------------------------
# Parsing and checking the CLI's printed answers.

NUM = r"([-+0-9.eE]+|NaN|inf)"


class CheckError(Exception):
    pass


def need(cond, msg):
    if not cond:
        raise CheckError(msg)


def parse_estimate(lines):
    text = "\n".join(lines)
    m = re.search(r"BC\((\d+)\) ~ " + NUM + r" \(Eq 7\) \| " + NUM, text)
    it = re.search(r"iterations (\d+) \| acceptance " + NUM + r" \| SPD passes (\d+)", text)
    need(m and it, "estimate output lacks the estimate or iteration line")
    keep = re.search(r"preprocess auto: (kept|discarded)", text)
    return {"vertex": int(m.group(1)), "bc": float(m.group(2)), "bc_corrected": float(m.group(3)),
            "bc_text": (m.group(2), m.group(3)), "iterations": int(it.group(1)),
            "spd_passes": int(it.group(3)), "kept": keep.group(1) == "kept" if keep else None}


def parse_adaptive(lines):
    text = "\n".join(lines)
    h = re.search(r"budget (\d+), spent (\d+), (\d+) scheduling rounds", text)
    need(h, "adaptive rank output lacks its header")
    rows = [re.match(r"\s*(\d+)\s+BC ~ " + NUM + r" \+- " + NUM + r"\s+\((\d+) iters(, budget cut)?\)", l)
            for l in lines]
    rows = [{"vertex": int(r.group(1)), "bc": float(r.group(2)), "hw": float(r.group(3)),
             "iters": int(r.group(4)), "cut": bool(r.group(5))} for r in rows if r]
    return {"budget": int(h.group(1)), "spent": int(h.group(2)), "rounds": int(h.group(3)), "rows": rows}


def parse_joint(lines):
    text = "\n".join(lines)
    h = re.search(r"ranking by betweenness ratio vs vertex (\d+) \((\d+) iterations\)", text)
    need(h, "joint rank output lacks its ranking header")
    start = next(i for i, l in enumerate(lines) if l.startswith("ranking by betweenness ratio"))
    rows = [re.match(r"\s*(\d+)\s+ratio " + NUM + r"\s*$", l) for l in lines[start + 1:]]
    need(all(rows), "joint rank ranking has a malformed line")
    resumed = re.search(r"resumed joint-space run at iteration (\d+) of budget (\d+)", text)
    return {"base": int(h.group(1)), "iterations": int(h.group(2)),
            "ranking": lines[start:],
            "rows": [{"vertex": int(r.group(1)), "ratio": float(r.group(2))} for r in rows],
            "resumed_from": int(resumed.group(1)) if resumed else None}


def median_rel_err(pairs):
    return statistics.median(abs(est - ex) / ex for est, ex in pairs)


def check_estimate(invs, meta, expect_iters):
    e = parse_estimate(invs[0]["lines"])
    need(e["vertex"] == meta["probes"][0], "estimate is for the wrong vertex")
    need(0.0 <= e["bc"] <= 1.0 and 0.0 <= e["bc_corrected"] <= 1.0, "estimate outside [0, 1]")
    need(e["iterations"] == expect_iters, "estimate ran %d iterations, asked %d" % (e["iterations"], expect_iters))
    need(1 <= e["spd_passes"] <= e["iterations"] + 1, "SPD pass count out of range")
    return e, {"iterations": e["iterations"]}


def check_adaptive(invs, meta, _):
    a = parse_adaptive(invs[0]["lines"])
    exact = dict(zip(meta["probes"], meta["exact_bc"]))
    rows = a["rows"]
    need(sorted(r["vertex"] for r in rows) == sorted(exact), "adaptive rank lists the wrong probes")
    need(all(rows[i]["bc"] >= rows[i + 1]["bc"] for i in range(len(rows) - 1)), "ranking is not sorted")
    need(all(0.0 <= r["bc"] <= 1.0 for r in rows), "estimate outside [0, 1]")
    need(all(0.0 < r["hw"] < float("inf") for r in rows), "interval half-width not finite and positive")
    need(sum(r["iters"] for r in rows) == a["spent"], "per-probe iterations do not sum to the spent budget")
    need(a["spent"] >= a["budget"] or all(not r["cut"] for r in rows), "budget left over with probes cut")
    covered = sum(abs(r["bc"] - exact[r["vertex"]]) <= r["hw"] for r in rows) / len(rows)
    rel = median_rel_err((r["bc"], exact[r["vertex"]]) for r in rows)
    # Limits well outside what the estimator achieves (coverage >= 0.875 and
    # median relative error <= 0.4 over 20 chain seeds at full size; 0.625
    # and 0.52 at smoke size); an answer off by 2x or more fails.
    need(covered >= 0.5, "only %.2f of the intervals cover exact Brandes BC" % covered)
    need(rel <= 1.0, "median relative error %.3f against exact Brandes BC" % rel)
    return a, {"iterations": a["spent"], "ci_coverage": min(covered, NOMINAL_COVERAGE), "rel_err": rel}


def check_joint(invs, meta, _):
    first, resumed = parse_joint(invs[0]["lines"]), parse_joint(invs[1]["lines"])
    exact = dict(zip(meta["probes"], meta["exact_bc"]))
    base = meta["probes"][0]
    need(first["base"] == base, "ratios are not relative to the first probe")
    need(sorted(r["vertex"] for r in first["rows"]) == sorted(exact), "joint rank lists the wrong probes")
    need(all(0.0 < r["ratio"] < float("inf") for r in first["rows"]), "ratio not finite and positive")
    need(resumed["resumed_from"] is not None, "resume did not report its starting iteration")
    need(resumed["ranking"] == first["ranking"], "resumed ranking differs from the uninterrupted one")
    rel = median_rel_err((r["ratio"], exact[r["vertex"]] / exact[base])
                         for r in first["rows"] if r["vertex"] != base)
    need(rel <= 0.1, "median relative error %.3f of ratios against exact Brandes" % rel)
    iters = first["iterations"] + first["iterations"] - resumed["resumed_from"]
    return first, {"iterations": iters, "rel_err": rel}


CHECKS = {
    "estimate-offcache": check_estimate,
    "estimate-offcache-2t": check_estimate,
    "rank-adaptive": check_adaptive,
    "rank-joint-ckpt": check_joint,
}


def check_same_estimate(a, b):
    """The determinism contract: equal output at 1 and 2 threads."""
    need(a["bc_text"] == b["bc_text"] and a["spd_passes"] == b["spd_passes"],
         "estimate or SPD passes differ between thread counts: %s/%d vs %s/%d"
         % (a["bc_text"], a["spd_passes"], b["bc_text"], b["spd_passes"]))


def check_trace_answer(workload, answers, invs):
    """The traced run must reproduce the untraced CLI answer (same seed)."""
    if workload.startswith("estimate"):
        e, t = parse_estimate(invs[0]["lines"]), answers[0]
        need(abs(e["bc"] - t["bc"]) <= 5e-7 and abs(e["bc_corrected"] - t["bc_corrected"]) <= 5e-7
             and e["spd_passes"] == t["spd_passes"], "traced estimate differs from the CLI's")
        need(e["kept"] == (t["reduce_kept"] == 1.0), "traced reduction decision differs from the CLI's")
    elif workload == "rank-adaptive":
        a, t = parse_adaptive(invs[0]["lines"]), answers[0]
        got = {v: (bc, hw) for v, bc, hw in zip(t["probes"], t["bc_corrected"], t["halfwidth"])}
        need(all(abs(got[r["vertex"]][0] - r["bc"]) <= 5e-7 and abs(got[r["vertex"]][1] - r["hw"]) <= 5e-7
                 for r in a["rows"]), "traced schedule differs from the CLI's")
    else:
        for inv, t in zip(invs, answers):
            rows = parse_joint(inv["lines"])["rows"]
            got = dict(zip(t["probes"], t["ratios"]))
            need(all(abs(got[r["vertex"]] - r["ratio"]) <= 5e-5 for r in rows),
                 "traced joint ranking differs from the CLI's")


def tamper(workload, invs):
    """Corrupts one answer the way a broken program might."""
    if workload.startswith("estimate"):
        lines = invs[0]["lines"]
        i = next(i for i, l in enumerate(lines) if l.startswith("BC("))
        lines[i] = re.sub(r"\| " + NUM, "| 1.500000", lines[i])
    elif workload == "rank-adaptive":
        invs[0]["lines"] = [re.sub(r"BC ~ " + NUM, lambda m: "BC ~ %.6f" % (3 * float(m.group(1))), l)
                            for l in invs[0]["lines"]]
    else:
        last = invs[1]["lines"][-1]
        invs[1]["lines"][-1] = re.sub(NUM + r"\s*$", "0.0001", last)


# --------------------------------------------------------------------------
# Processes.


# The child process running now, stopped if this script is terminated.
CHILD = None


def stop_child(*_):
    if CHILD is not None and CHILD.poll() is None:
        CHILD.kill()
        CHILD.wait()
    sys.exit(1)


def run_process(argv, out_path):
    """Runs argv with stdout to out_path; returns (json of its last line, rusage)."""
    global CHILD
    with open(out_path, "wb") as out:
        proc = CHILD = subprocess.Popen(argv, stdout=out, cwd=ROOT)
    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise RuntimeError("%s timed out" % argv[1])
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        lines = f.read().strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"error": "no output"}
    if proc.returncode != 0 and "error" not in result:
        result = {"error": "exit code %d" % proc.returncode}
    return result, rusage


def flatten(invocations):
    out = []
    for i, argv in enumerate(invocations):
        if i:
            out.append("--then")
        out.extend(argv)
    return out


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    r = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
                       cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        raise SystemExit("perfbench: build failed")
    target = env["CARGO_TARGET_DIR"]
    return os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target), "release", "perfbench")


# --------------------------------------------------------------------------
# Host context.


def source_identity():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = r.stdout.strip() if r.returncode == 0 else None
    except OSError:
        commit = None
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(dp, f) for dp, dns, fs in os.walk(path) for f in fs)
        for f in files:
            if os.path.isfile(f):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return commit or "unknown (not a git checkout)", h.hexdigest()[:16]


def filesystem_of(path):
    best, fstype = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            parts = line.split()
            mnt = parts[1]
            if path == mnt or path.startswith(mnt.rstrip("/") + "/"):
                if len(mnt) >= len(best):
                    best, fstype = mnt, parts[2]
    return fstype


def host_context(workload, seed, work_dir):
    commit, src = source_identity()
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    fs = filesystem_of(os.path.realpath(work_dir))
    return {"host_cores": len(os.sched_getaffinity(0)), "cpu_model": model, "git_commit": commit,
            "source_sha256_16": src, "workload": workload, "seed": seed,
            "checkpoint_fs": fs, "checkpoint_on_tmpfs": fs == "tmpfs"}


# --------------------------------------------------------------------------
# One benchmark run.


def chain_seed(seed, rep):
    return (seed * 1_000_003 + rep * 7_919 + 1) % (1 << 63)


def units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def bench(args):
    e2e_units, layer_units = units()
    binary = build()
    os.makedirs(RESULTS, exist_ok=True)
    d = {"dir": os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))}
    d["graph"] = os.path.join(d["dir"], "graph.txt")
    shutil.rmtree(d["dir"], ignore_errors=True)
    os.makedirs(d["dir"])
    try:
        gen = [binary, "gen", args.workload, str(args.seed), d["dir"]] + (["--smoke"] if args.smoke else [])
        meta, _ = run_process(gen, os.path.join(d["dir"], "gen.out"))
        if "error" in meta:
            raise SystemExit("perfbench: input generation failed: %s" % meta["error"])
        return measure(args, binary, d, meta, e2e_units, layer_units)
    finally:
        shutil.rmtree(d["dir"], ignore_errors=True)


def measure(args, binary, d, meta, e2e_units, layer_units):
    argv_of, reference_of = WORKLOADS[args.workload]
    check = CHECKS[args.workload]
    sample = argv_of(d, meta, 0, args.smoke)[0]
    expect_iters = int(sample[sample.index("--iters") + 1])
    attempted = failed = 0
    failures = []
    out_path = os.path.join(d["dir"], "run.out")

    def cli_run(invocations, tampered=False):
        """One repetition: (result json, rusage, parsed answer, derived values) or None on failure."""
        nonlocal attempted, failed
        attempted += len(invocations)
        res, ru = run_process([binary, "run"] + flatten(invocations), out_path)
        try:
            need("error" not in res, "CLI error: %s" % res.get("error"))
            invs = res["invocations"]
            if tampered:
                tamper(args.workload, invs)
            answer, derived = check(invs, meta, expect_iters)
            return res, ru, answer, derived
        except CheckError as e:
            failed += len(invocations)
            failures.append(str(e))
            return None

    # The estimate workloads open with an untimed run at the other thread
    # count, for the determinism check.
    reference = None
    if reference_of:
        reference = cli_run(reference_of(d, meta, chain_seed(args.seed, 0), args.smoke))

    # Timed repetitions, each with its own chain seed, until the next one
    # would overrun the measuring time (half of it in a traced run).
    reps, traced, durations = [], [], []
    budget = args.seconds / 2.0 if args.trace else args.seconds
    started = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - started + statistics.median(durations) <= budget:
        t0 = time.monotonic()
        seed = chain_seed(args.seed, len(reps))
        reps.append((seed, cli_run(argv_of(d, meta, seed, args.smoke), tampered=args.tamper and not reps)))
        durations.append(time.monotonic() - t0)
    if reference and reps[0][1]:
        try:
            check_same_estimate(reference[2], reps[0][1][2])
        except CheckError as e:
            failed += 2
            failures.append(str(e))

    ok_reps = [r for _, r in reps if r]
    if args.trace:
        started = time.monotonic()
        while not traced or (time.monotonic() - started + statistics.median(durations) <= budget
                             and len(traced) < len(reps)):
            seed, untraced = reps[len(traced)]
            spans = os.path.join(RESULTS, "%s-%d-trace%d.spans.jsonl" % (args.workload, args.seed, len(traced)))
            attempted += len(argv_of(d, meta, seed, args.smoke))
            res, _ = run_process([binary, "trace", spans] + flatten(argv_of(d, meta, seed, args.smoke)), out_path)
            try:
                need("error" not in res, "traced run error: %s" % res.get("error"))
                need(untraced is not None, "untraced repetition failed")
                check_trace_answer(args.workload, res["answers"], untraced[0]["invocations"])
                traced.append((res, untraced))
            except CheckError as e:
                failed += len(argv_of(d, meta, seed, args.smoke))
                failures.append(str(e))
                break

    def med(values):
        return statistics.median(values) if values else 0.0

    if args.trace:
        names = list(layer_units)
        layer = {k: med([t["metrics"][k] for t, _ in traced]) for k in names if k in traced[0][0]["metrics"]} if traced else {}
        layer["trace.coverage"] = med([t["covered_s"] / sum(i["wall_s"] for i in u[0]["invocations"]) for t, u in traced])
        layer["trace.overhead"] = med([t["wall_s"] / sum(i["wall_s"] for i in u[0]["invocations"]) - 1.0 for t, u in traced])
        quality = [r[3] for r in ok_reps]
        layer["answer.rel_err"] = med([q["rel_err"] for q in quality if "rel_err" in q])
        layer["answer.ci_coverage"] = med([q["ci_coverage"] for q in quality if "ci_coverage" in q])
        values, wanted = layer, layer_units
        per_rep = [t["metrics"] for t, _ in traced]
    else:
        loads = [i["setup_s"] for res, _, _, _ in ok_reps for i in res["invocations"]]
        started = time.monotonic()
        while ok_reps and len(loads) < SETUP_SAMPLES and time.monotonic() - started < SETUP_TOP_UP_S:
            attempted += 1
            res, _ = run_process([binary, "load", d["graph"]], out_path)
            if "error" in res:
                failed += 1
                failures.append("load error: %s" % res["error"])
                break
            loads.append(res["setup_s"])
        rows = []
        for res, ru, _, derived in ok_reps:
            invs = res["invocations"]
            setup = sum(i["setup_s"] for i in invs)
            wall = sum(i["wall_s"] for i in invs)
            rows.append({"setup_s": setup, "wall_s": wall, "iters_per_s": derived["iterations"] / (wall - setup),
                         "cpu_s": ru.ru_utime + ru.ru_stime, "peak_rss_mb": ru.ru_maxrss / 1024.0})
        values = {k: med([r[k] for r in rows]) for k in e2e_units}
        values["setup_s"] = med(loads)
        wanted = e2e_units
        per_rep = rows

    correct = failed == 0
    metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in wanted.items()}
    context = host_context(args.workload, args.seed, d["dir"])
    context.update({"timed_reps": len(reps), "traced_reps": len(traced), "run_seconds": args.seconds,
                    "failures": failures})
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(RESULTS, "%s-%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"context": context, "result": result, "repetitions": per_rep}, f, indent=1)
    for msg in failures:
        log("check failed: " + msg)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if correct else 1


# --------------------------------------------------------------------------
# Smoke mode.


def smoke():
    e2e_units, layer_units = units()
    me = [sys.executable, os.path.abspath(__file__)]
    problems = []
    for w in WORKLOADS:
        for trace, wanted in ((0, e2e_units), (1, layer_units)):
            for tampered in (False, True):
                if tampered and trace:
                    continue
                argv = me + ["--workload", w, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke-size"]
                if tampered:
                    argv.append("--tamper")
                r = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
                lines = r.stdout.strip().splitlines()
                res = json.loads(lines[-1]) if lines else {}
                tag = "%s trace=%d%s" % (w, trace, " tampered" if tampered else "")
                if tampered:
                    if r.returncode == 0 or res.get("correct") is not False or not res.get("failed"):
                        problems.append(tag + ": tampered answer passed the check")
                    continue
                if r.returncode != 0 or res.get("correct") is not True:
                    problems.append(tag + ": run failed: " + r.stderr.strip()[-400:])
                    continue
                got = res["metrics"]
                for name, unit in wanted.items():
                    if got.get(name, {}).get("unit") != unit or not isinstance(got[name].get("value"), (int, float)):
                        problems.append("%s: metric %s missing or without unit %s" % (tag, name, unit))
                if set(got) != set(wanted):
                    problems.append("%s: unexpected metrics %s" % (tag, sorted(set(got) - set(wanted))))
                log("smoke %s: ok (%d metrics)" % (tag, len(got)))
    for p in problems:
        log("smoke: " + p)
    log("smoke: %s" % ("FAILED" if problems else "all workloads passed"))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="self-test every workload at reduced size")
    p.add_argument("--smoke-size", dest="smoke_size", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--tamper", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.smoke:
        return smoke()
    if not args.workload:
        p.error("--workload is required")
    args.smoke = args.smoke_size
    signal.signal(signal.SIGTERM, stop_child)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
