#!/usr/bin/env python3
"""Runs the benchmark over a set of seeds, and compares two run sets.

    python3 perfbench/compare.py run --workload pa_fresh --seeds 1-10 --out parent.jsonl
    python3 perfbench/compare.py compare parent.jsonl change.jsonl

`run` executes the command in BENCHMARK.json once per seed (tracing
off) from the repository root and appends one line per run:
{"workload": ..., "seed": ..., "result": <the benchmark's result line>}.

`compare` reads two such files and, for every workload they share and
every end-to-end metric, reports the parent's and the change's median
and the parent's spread (distance between the first and third quartile,
as a share of the median). A metric regresses when the change's median
is worse than the parent's by more than the metric's bound from
BENCHMARK.json; it is unresolved when the parent's own spread is wider
than the bound. The exit status is 1 when anything regressed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path) as f:
        return json.load(f)


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                runs.setdefault(row["workload"], []).append(row["result"])
    return runs


def spread(values):
    """Quartile distance over the median (0 for fewer than two values)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def compare(spec, parent, change):
    """Rows of (workload, metric, parent median, change median, parent
    spread, verdict), verdict one of ok / regressed / unresolved."""
    rows = []
    for workload in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in parent[workload]]
            c = [r["metrics"][name]["value"] for r in change[workload]]
            pm, cm = statistics.median(p), statistics.median(c)
            worse = (cm - pm) if m["better"] == "lower" else (pm - cm)
            share = worse / abs(pm) if pm else (0.0 if worse <= 0 else float("inf"))
            sp = spread(p)
            if share > m["bound"]:
                verdict = "regressed"
            elif sp > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append((workload, name, pm, cm, sp, verdict))
    return rows


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(spec, workload, seed_list, out):
    with open(out, "a") as f:
        for seed in seed_list:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            f.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
            f.flush()
            print(f"{workload} seed {seed}: correct={result['correct']}", file=sys.stderr)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, type=seeds)
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.cmd == "run":
        run(spec, args.workload, args.seeds, args.out)
        return 0
    rows = compare(spec, load_runs(args.parent), load_runs(args.change))
    for workload, name, pm, cm, sp, verdict in rows:
        print(f"{workload:18} {name:20} parent {pm:14.4f} change {cm:14.4f} spread {sp:6.3f}  {verdict}")
    return 1 if any(row[5] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
