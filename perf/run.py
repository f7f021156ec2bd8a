#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perf/README.md).

  python3 perf/run.py --workload W --seed N --seconds S --trace 0|1 [...]
      Build the benchmark from source with dune, then run it. The last
      line of standard output is the run's JSON result.

  python3 perf/run.py collect DIR [--runs N] [--seconds S] [--workloads a,b]
      Run each workload N times (default 10) with seeds 1..N, appending
      each result line to DIR/<workload>.jsonl.

  python3 perf/run.py compare A B
      For two collections (A the baseline), print each end-to-end
      metric's median and quartiles per workload and a verdict against
      the bounds in BENCHMARK.json. Exits 1 if any metric got worse.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perf", "main.exe")


def build():
    # Keep every file the build writes inside the checkout: no shared
    # dune cache, compiler temporaries under _build.
    tmp = os.path.join(ROOT, "_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perf/main.exe"],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
        )
    except OSError as e:
        sys.exit("perf: cannot run dune: %s" % e)
    if done.returncode != 0:
        sys.exit("perf: build failed")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(args):
    out = args[0]
    opts = dict(zip(args[1::2], args[2::2]))
    spec = benchmark_spec()
    runs = int(opts.get("--runs", "10"))
    seconds = opts.get("--seconds", str(spec["run_seconds"]))
    names = [w["name"] for w in spec["workloads"]]
    if "--workloads" in opts:
        names = opts["--workloads"].split(",")
    build()
    os.makedirs(out, exist_ok=True)
    for name in names:
        for seed in range(1, runs + 1):
            done = subprocess.run(
                [EXE, "--workload", name, "--seed", str(seed),
                 "--seconds", seconds, "--trace", "0"],
                stdout=subprocess.PIPE,
                text=True,
            )
            line = done.stdout.strip().splitlines()[-1]
            with open(os.path.join(out, name + ".jsonl"), "a") as f:
                f.write(line + "\n")
            print("%s seed %d: exit %d" % (name, seed, done.returncode),
                  file=sys.stderr)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def compare(a_dir, b_dir):
    spec = benchmark_spec()
    worse = False
    for w in spec["workloads"]:
        name = w["name"] + ".jsonl"
        if not (os.path.exists(os.path.join(a_dir, name))
                and os.path.exists(os.path.join(b_dir, name))):
            continue
        a, b = load(os.path.join(a_dir, name)), load(os.path.join(b_dir, name))
        print("%s: %d vs %d runs, failed %d vs %d, all correct: %s vs %s" % (
            w["name"], len(a), len(b), sum(r["failed"] for r in a),
            sum(r["failed"] for r in b), all(r["correct"] for r in a),
            all(r["correct"] for r in b)))
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a]
            vb = [r["metrics"][m["name"]]["value"] for r in b]
            ma, qa1, qa3, sa = summary(va)
            mb, qb1, qb3, sb = summary(vb)
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (mb - ma) / ma if ma else 0.0
            b_wins = (max(vb) < min(va)) if sign == 1 else (min(vb) > max(va))
            if max(sa, sb) > m["bound"] and not b_wins:
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict, worse = "WORSE", True
            elif -change > sa:
                verdict = "better"
            else:
                verdict = "same"
            print("  %-16s %14.6g [%.6g, %.6g] -> %14.6g [%.6g, %.6g]"
                  "  %+7.2f%% worse (bound %g%%)  %s" % (
                      m["name"], ma, qa1, qa3, mb, qb1, qb3, 100 * change,
                      100 * m["bound"], verdict))
    sys.exit(1 if worse else 0)


def main():
    args = sys.argv[1:]
    if args[:1] == ["collect"] and len(args) >= 2:
        collect(args[1:])
    elif args[:1] == ["compare"] and len(args) == 3:
        compare(args[1], args[2])
    else:
        build()
        os.execv(EXE, [EXE] + args)


if __name__ == "__main__":
    main()
