"""Byte comparison of two qpr source trees on the benchmark's round 0.

    python3 tools/compare_rounds.py --parent <other checkout>/src

Replays round 0 of every perfbench workload for seeds 0-31 once with the
qpr under ./src and once with the qpr under the --parent directory, each
side in its own process, and prints every operation whose exit code or
stdout differs (with the first differing stdout line).  Every ``verify``,
``witness`` and ``sweep`` operation is replayed a second time in the other
``--format``, so both writers see every workload's rows (aq-line and
theta-strip draw no JSON operation).  Exits 0 when every operation
matches, 1 otherwise.  Operations are generated by
perfbench/workloads.py, which is imported and not changed; as in
perfbench/run.py, each operation is one in-process ``qpr.cli.main(argv)``
call and a failed parse counts by its SystemExit code.  Use it for
byte-identity checks of a change that must not alter output.  It also
prints the line count of the qpr package in both trees (as ``wc -l``
counts them) and each module's lines and tokens (counted by ``tokenize``
as tests/test_module_size.py counts them, against its 4096 step), so size
figures come from the same run as the byte check; and, per workload and
tree, the number of ``numerics.sum_rescaled`` calls and of the terms they
summed over the replayed operations, counted by perfbench/tracer.py (also
imported and not changed), so a change that must feed the summation kernel
the same terms shows it in the same run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SEEDS = range(32)
ROW_KINDS = ("verify", "witness", "sweep")  # the subcommands that write rows


def _runs(op: dict) -> list[list[str]]:
    """op's argv, then for a row-writing op the same argv in the other
    format (argparse takes the last --format given)."""
    argv = op["argv"]
    if op["kind"] not in ROW_KINDS:
        return [argv]
    return [argv, argv + ["--format", "csv" if op["fmt"] == "json" else "json"]]


def replay(src: str, out_path: str) -> None:
    """Run round 0 of every workload and seed with the qpr under src; write
    one JSON line per operation (workload, seed, index, argv, code, stdout),
    and to out_path + ".sums.json" each workload's [calls, terms] of
    sum_rescaled."""
    sys.path[:0] = [src, PERFBENCH]
    from qpr.cli import main
    import tracer
    import workloads

    traced = tracer.Tracer()
    traced.install()
    kernel = traced.leaf_acc["numerics.sum_rescaled"]  # calls, seconds, terms
    sums = {}
    with open(out_path, "w", encoding="utf-8") as fh:
        for name in workloads.WORKLOADS:
            calls, terms = kernel[0], kernel[2]
            for seed in SEEDS:
                for i, op in enumerate(workloads.round_ops(name, seed, 0)):
                    for argv in _runs(op):
                        out = io.StringIO()
                        with contextlib.redirect_stdout(out), \
                                contextlib.redirect_stderr(io.StringIO()):
                            try:
                                code = main(argv)
                            except SystemExit as exc:
                                code = f"SystemExit({exc.code})"
                            except Exception as exc:  # an escaped exception is an outcome
                                code = f"{type(exc).__name__}: {exc}"
                        fh.write(json.dumps([name, seed, i, argv, code, out.getvalue()]))
                        fh.write("\n")
            sums[name] = [kernel[0] - calls, kernel[2] - terms]
    traced.uninstall()
    with open(out_path + ".sums.json", "w", encoding="utf-8") as fh:
        json.dump(sums, fh)


TOKEN_STEP = 4096  # tests/test_module_size.py: every module stays below it


def module_sizes(src: str) -> dict[str, tuple[int, int]]:
    """Lines (newlines) and tokenize tokens of each .py file of the qpr
    package under src."""
    pkg = os.path.join(src, "qpr")
    sizes = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                lines = fh.read().count(b"\n")
                fh.seek(0)
                sizes[name] = lines, sum(1 for _ in tokenize.tokenize(fh.readline))
    return sizes


def _first_diff(a: str, b: str) -> str:
    for k, (la, lb) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if la != lb:
            return f"line {k}:\n    parent: {la}\n    change: {lb}"
    return f"line counts {a.count(chr(10))} (parent) and {b.count(chr(10))} (change)"


def compare(parent_src: str) -> int:
    if not os.path.isfile(os.path.join(parent_src, "qpr", "cli.py")):
        sys.exit(f"no qpr sources under {parent_src}")
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "parent.jsonl"), os.path.join(tmp, "change.jsonl")]
        procs = [subprocess.Popen([sys.executable, os.path.abspath(__file__),
                                   "--replay", src, "--out", path])
                 for src, path in zip((os.path.abspath(parent_src),
                                       os.path.join(ROOT, "src")), paths)]
        if any(p.wait() != 0 for p in procs):
            sys.exit("a replay process failed")
        ops = replays = differ = 0
        last = None
        with open(paths[0], encoding="utf-8") as fa, open(paths[1], encoding="utf-8") as fb:
            for line_a, line_b in zip(fa, fb):
                ops += 1
                name, seed, i, argv, code_a, out_a = json.loads(line_a)
                replays += (name, seed, i) == last  # an op's other-format replay
                last = (name, seed, i)
                code_b, out_b = json.loads(line_b)[4:]
                if code_a != code_b or out_a != out_b:
                    differ += 1
                    print(f"{name} seed {seed} op {i}: {' '.join(argv)}")
                    if code_a != code_b:
                        print(f"  exit code: parent {code_a!r}, change {code_b!r}")
                    if out_a != out_b:
                        print(f"  stdout differs at {_first_diff(out_a, out_b)}")
        sums = []
        for path in paths:
            with open(path + ".sums.json", encoding="utf-8") as fh:
                sums.append(json.load(fh))
    print(f"{ops} operations ({replays} of them other-format replays), {differ} differ")
    print("sum_rescaled calls and summed terms over them, parent -> change:")
    for name in sums[0]:
        (ca, ta), (cb, tb) = sums[0][name], sums[1][name]
        print(f"  {name:16} {ca:7} -> {cb:7} calls  {ta:9} -> {tb:9} terms")
    parent, change = module_sizes(parent_src), module_sizes(os.path.join(ROOT, "src"))
    print(f"src/qpr lines: parent {sum(v[0] for v in parent.values())}, "
          f"change {sum(v[0] for v in change.values())}")
    print(f"lines and tokens (below {TOKEN_STEP}) per module, parent -> change:")
    for name in sorted(parent.keys() | change.keys()):
        (la, ta), (lb, tb) = parent.get(name, (0, 0)), change.get(name, (0, 0))
        print(f"  {name:16} {la:5} -> {lb:5} lines  {ta:5} -> {tb:5} tokens")
    return 1 if differ else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="src directory of the tree to compare against")
    ap.add_argument("--replay", help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.replay:
        replay(args.replay, args.out)
        return 0
    if not args.parent:
        ap.error("--parent is required")
    return compare(args.parent)


if __name__ == "__main__":
    sys.exit(main())
