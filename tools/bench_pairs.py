"""Paired benchmark runs of two qpr checkouts.

    python3 tools/bench_pairs.py --parent <other checkout> --workload witness-scan \
        --pairs 5 --seconds 20 [--seed 1]
    python3 tools/bench_pairs.py --parent <other checkout> --workload all --pairs 10
    python3 tools/bench_pairs.py --parent <other checkout> --workload witness-scan \
        --save BENCH_witness_scan.json

Runs each checkout's own ``perfbench/run.py --trace 0`` as a subprocess,
pair k being the parent's k-th run and the change's k-th run; the parent
runs first in odd pairs and the change first in even ones.  For every pair
it prints the end-to-end metrics that BENCHMARK.json declares, with each
run's attempted and failed operation counts; then, per metric, both sides'
medians and quartiles, the median over pairs of the relative change
(change/parent - 1) and the number of pairs the change wins (ties count for
neither side).  Each metric's line closes with two verdicts:

* gain shown: at least ten pairs ran, the change wins at least nine tenths
  of them, and the medians differ, in its favour, by more than the parent's
  interquartile range;
* worse beyond bound: the change's median is worse than the parent's by more
  than the metric's BENCHMARK.json bound, a fraction of the parent's median.

With ``--workload all`` it does this for every workload that BENCHMARK.json
lists, in file order, and closes with one line per workload and metric: the
median relative change, the wins and whether the change is worse beyond the
bound, so one command shows whether any metric got worse on any workload.

``--save FILE`` also writes the runs as JSON: the Python version, machine
and CPU count, then per workload the seed, the number of pairs, the
seconds, every pair's runs (metrics and attempted/failed counts of each
side, and which side ran first) in pair order, and per metric the summary
line printed above.

The runs write only their own ``perfbench/results/`` (git-ignored), and
bytecode is not cached, so neither tree gains a file.  Exits 1 if a run
fails or reports a failed operation, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one run of tree's perfbench/run.py."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run in {tree} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _spread(values: list[float]) -> str:
    q1, q2, q3 = _quartiles(values)
    return f"{q2:.4g}" if len(values) < 2 else f"{q2:.4g} (quartiles {q1:.4g}-{q3:.4g})"


def verdicts(parent: list[float], change: list[float], lower_is_better: bool,
             bound: float) -> tuple[int, bool, bool]:
    """(pairs the change wins, gain shown, worse beyond bound) for one
    metric's paired runs."""
    sign = 1.0 if lower_is_better else -1.0
    p1, p_med, p3 = _quartiles(parent)
    c_med = _quartiles(change)[1]
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    gain = (len(parent) >= 10 and 10 * wins >= 9 * len(parent)
            and sign * (p_med - c_med) > p3 - p1)
    worse = sign * (c_med - p_med) > bound * abs(p_med)
    return wins, gain, worse


def run_pairs(parent: str, workload: str, pairs: int, seed: int, seconds: float,
              declared: list[dict]) -> tuple[list[tuple], int, dict]:
    """Run and report one workload's pairs; return (name, relative change,
    wins, worse) per declared metric, the number of failed operations and
    the record that --save writes."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    record = {"seed": seed, "pairs": pairs, "seconds": seconds, "runs": [], "summary": {}}
    for k in range(1, pairs + 1):
        order = (("parent", parent), ("change", ROOT))
        for side, tree in order if k % 2 else order[::-1]:
            runs[side].append(run_once(tree, workload, seed, seconds))
        entry = {"pair": k, "first": "parent" if k % 2 else "change"}
        cells = []
        for side in ("parent", "change"):
            r = runs[side][-1]
            entry[side] = {key: r[key] for key in ("metrics", "attempted", "failed")}
            values = " ".join(f"{m['name']} {r['metrics'][m['name']]['value']:.4g}"
                              for m in declared)
            cells.append(f"{side}: {values}, failed {r['failed']}/{r['attempted']}")
        print(f"pair {k}: " + "; ".join(cells), flush=True)
        record["runs"].append(entry)

    print(f"{workload}, seed {seed}, {pairs} pairs at --seconds {seconds:g}")
    summary = []
    for m in declared:
        name = m["name"]
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        rel = statistics.median(b / a - 1.0 for a, b in zip(p, c))
        wins, gain, worse = verdicts(p, c, m["better"] == "lower", m["bound"])
        line = (f"{name} ({m['unit']}, {m['better']} is better): parent {_spread(p)}; "
                f"change {_spread(c)}; median relative change {100 * rel:+.1f} %; "
                f"change wins {wins} of {pairs}; gain shown: {'yes' if gain else 'no'}; "
                f"worse beyond bound {m['bound']:g}: {'yes' if worse else 'no'}")
        print(line, flush=True)
        record["summary"][name] = line
        summary.append((name, rel, wins, worse))
    return summary, sum(r["failed"] for side in runs.values() for r in side), record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="root of the checkout to compare against")
    ap.add_argument("--workload", required=True, help="a BENCHMARK.json workload, or all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--save", metavar="FILE", help="also write the runs as JSON to FILE")
    args = ap.parse_args()
    parent = os.path.abspath(args.parent)
    if not os.path.isfile(os.path.join(parent, "perfbench", "run.py")):
        ap.error(f"no perfbench/run.py under {parent}")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = bench["end_to_end"]
    workloads = ([w["name"] for w in bench["workloads"]] if args.workload == "all"
                 else [args.workload])

    failed, closing = 0, []
    saved = {"python": platform.python_version(), "machine": platform.machine(),
             "cpus": os.cpu_count(), "workloads": {}}
    for workload in workloads:
        summary, n_failed, record = run_pairs(parent, workload, args.pairs, args.seed,
                                              args.seconds, declared)
        failed += n_failed
        closing += [(workload, *row) for row in summary]
        saved["workloads"][workload] = record
    if len(workloads) > 1:
        print(f"all workloads, seed {args.seed}, {args.pairs} pairs each")
        for workload, name, rel, wins, worse in closing:
            print(f"{workload} {name}: median relative change {100 * rel:+.1f} %; "
                  f"change wins {wins} of {args.pairs}; "
                  f"worse beyond bound: {'yes' if worse else 'no'}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(saved, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
