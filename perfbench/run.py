#!/usr/bin/env python3
"""Benchmark of the flash-cache simulator: end-to-end host metrics per
workload, or per-layer metrics from a traced run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` binary from source (release profile, into
$CARGO_TARGET_DIR or `.bench_build`), runs one workload for about S
seconds of timed passes, checks the simulated outputs, appends the result
to `perfbench/history.jsonl`, prints a table, and prints one JSON object
as the last line: `{"correct", "attempted", "failed", "metrics"}`. With
`--trace 0` the metrics are BENCHMARK.json's `end_to_end` list, with
`--trace 1` its `per_layer` list.

End-to-end metrics: a pass runs every job of the workload once through
its public entry point (`Scenario::run`, `Sweep::run`, or
`Fleet::run_worker` + `merge_parts` + the fleet fold) and is timed as a
whole; `ops_per_s` (measured ops / pass wall time) and `cpu_ns_per_op`
(process CPU over the pass / measured ops) are medians over the run's
passes; `peak_rss_mib` is VmHWM after setup and the first pass;
`setup_s` is the median of the run's setups, three made before every
pass. `job_fail_frac` (failed / attempted jobs) is printed in the table;
it is 0 on a correct run, so it travels as `attempted` and `failed`.

Other modes:

    python3 perfbench/run.py --self-check       # every workload, short runs:
                                                # digest seed + a held-out seed
    python3 perfbench/run.py --record-digests   # re-record perfbench/digests.json

Workloads, the layers each one loads, and the map from layer metrics to
the end-to-end metrics they should move are in perfbench/layers.json.
"""

import argparse
import datetime
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HISTORY = os.path.join(HERE, "history.jsonl")
DIGESTS = os.path.join(HERE, "digests.json")
# Seed used only by --self-check, never while tuning the benchmark.
HELD_OUT_SEED = 4242
# Wall-clock limit for one binary run (the timed budget plus setup).
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"{path}: {e}", 2)


def build():
    """Builds the benchmark binary; returns its path and its work directory."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("simulator sources not found next to perfbench/ (crates/core is missing)", 2)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench"), os.path.join(target, "perfbench-work")


def run_binary(binary, work, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", work, "--digests", DIGESTS]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{workload}: perfbench exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: perfbench printed no result")


def source_digest():
    """Content hash of the simulator and benchmark sources, so history
    entries name the code they measured even outside a git checkout."""
    h = hashlib.sha256()
    tops = [os.path.join(ROOT, p) for p in ("Cargo.toml", "Cargo.lock", "crates", "perfbench")]
    files = []
    for top in tops:
        if os.path.isfile(top):
            files.append(top)
        for dirpath, dirnames, names in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, n) for n in names
                         if n.endswith((".rs", ".toml", ".lock", ".py", ".json"))
                         and n != "history.jsonl")
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return "src:" + h.hexdigest()[:12]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def append_history(entry):
    try:
        with open(HISTORY, "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
    except OSError as e:
        print(f"perfbench: history not written: {e}", file=sys.stderr)


def measure(args, bench):
    binary, work = build()
    result = run_binary(binary, work, args.workload, args.seed, args.seconds, args.trace)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    raw = result["metrics"]
    missing = [m["name"] for m in specs if m["name"] not in raw]
    metrics = {m["name"]: {"value": raw.get(m["name"], 0.0), "unit": m["unit"]} for m in specs}

    print(f"# workload {args.workload}  seed {args.seed}  threads {result['threads']}"
          f"  passes {result['passes']}  timed {result['timed_s']:.1f} s"
          f"  digest checked {result['digest_checked']}")
    for m in specs:
        v = metrics[m["name"]]
        print(f"{m['name']:34s} {v['value']:>16.6g} {v['unit']}")
    print(f"{'job_fail_frac':34s} {raw.get('job_fail_frac', 1.0):>16.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} jobs failed)")
    for f in result["failures"]:
        print(f"# check failed: {f}")
    for name in missing:
        print(f"# metric missing: {name}")

    tree = source_digest()
    append_history({
        "rev": git_rev() or tree,
        "tree": tree,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "threads": result["threads"],
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": raw,
    })
    print(json.dumps({
        "correct": result["failed"] == 0 and not missing,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


def self_check(bench):
    """Short runs of every workload: untraced and traced at the digest
    seed (digests checked), untraced at a held-out seed (conservation
    only)."""
    binary, work = build()
    with open(DIGESTS) as f:
        seed = json.load(f)["seed"]
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        for s, trace in ((seed, 0), (seed, 1), (HELD_OUT_SEED, 0)):
            r = run_binary(binary, work, w, s, 1, trace)
            good = r["failed"] == 0 and r["digest_checked"] == (s == seed)
            ok &= good
            print(f"{w:20s} seed {s:<6d} trace {trace}  {'ok' if good else 'FAILED'}"
                  f"  ({r['failed']} of {r['attempted']} jobs failed)")
            for msg in r["failures"]:
                print(f"    {msg}")
    sys.exit(0 if ok else 1)


def record_digests(bench):
    """Re-records the digest of every job of every workload at the digest
    seed. Only for a change that means to alter simulated results."""
    binary, work = build()
    with open(DIGESTS) as f:
        doc = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        r = run_binary(binary, work, w, doc["seed"], 1, 0)
        doc["workloads"][w] = r["digests"]
        print(f"{w}: {len(r['digests'])} digests")
    with open(DIGESTS, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args()
    bench = load_benchmark()
    if args.self_check:
        self_check(bench)
    elif args.record_digests:
        record_digests(bench)
    else:
        if None in (args.workload, args.seed, args.seconds, args.trace):
            p.error("--workload, --seed, --seconds and --trace are required")
        if args.workload not in [w["name"] for w in bench["workloads"]]:
            p.error(f"unknown workload {args.workload!r}")
        measure(args, bench)


if __name__ == "__main__":
    main()
