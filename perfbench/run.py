"""qpr benchmark: seeded workloads of in-process ``qpr.cli.main(argv)`` calls.

    python3 perfbench/run.py --workload aq-line --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --regen-digests

Run from the repository root (qpr is imported from ./src).  One run sets up
(imports qpr afresh and draws round 0 from the seed, several times), then
runs whole rounds of operations for --seconds, checks every operation's
output (see checks.py), and prints as its last line a JSON object with
"correct", "attempted", "failed" and "metrics".  With --trace 0 the metrics
are the end-to-end ones (setup_s, work_s, peak_rss_mb); with --trace 1 the
run alternates traced and untraced rounds and reports the per-layer ones.
All times are reference-adjusted (refclock.py).  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")
DIGESTS = os.path.join(HERE, "digests.json")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import refclock  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
# rows are compared with mpmath in round 0 and every DEEP_EVERY-th round after
# it; the exact and contract checks run on every operation of every round
DEEP_EVERY = 4
# consecutive operations are timed together until the interval reaches this,
# so that short operations are not swamped by the reference slices' overhead
MIN_INTERVAL_S = 0.01
DIGEST_SEEDS = range(32)


def import_qpr():
    """A fresh import of qpr.cli from ./src (earlier imports are dropped)."""
    if not os.path.isfile(os.path.join(SRC, "qpr", "cli.py")):
        raise FileNotFoundError(f"qpr sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [k for k in sys.modules if k == "qpr" or k.startswith("qpr.")]:
        del sys.modules[name]
    return importlib.import_module("qpr.cli")


def run_op(main, op: dict):
    """One operation: (exit code or exception text, stdout); stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(op["argv"])
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:  # an escaped exception is a result to check
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def digest_op(h, op: dict, code, out: str) -> None:
    h.update(("\x1f".join(op["argv"]) + f"\nexit {code}\n").encode())
    h.update(out.encode())


def middle_mean(values: list[float]) -> float:
    """Mean of the middle half of the values (the interquartile mean)."""
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k:len(v) - k])


def setup(workload: str, seed: int):
    """Import qpr and draw round 0, SETUP_REPEATS times; adjusted seconds each."""
    adjusted, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli = import_qpr()
        ops = workloads.round_ops(workload, seed, 0)
        dt = time.perf_counter() - t0
        raw.append(dt)
        adjusted.append(refclock.adjust(dt))
    return cli, ops, adjusted, raw


class Run:
    def __init__(self, args, cli, ops0) -> None:
        self.args = args
        self.cli = cli
        self.ops0 = ops0
        self.attempted = 0
        self.failures: dict[int, tuple[dict, list[str]]] = {}
        self.samples: list[tuple[int, dict, dict]] = []
        self.digest = hashlib.sha256()
        self.rounds: list[dict] = []
        self.tracer = tracer.Tracer() if args.trace else None
        self.layer = {"self": {n: 0.0 for n in tracer.SELF_METRICS}, "unattributed": 0.0}
        self.round0: dict = {}
        self.peak_rss_mb = 0.0

    def _finish_interval(self, pending, interval, rnd, totals) -> None:
        totals[0] += interval
        totals[1] += refclock.adjust(interval)
        for op, code, out in pending:
            idx = self.attempted
            self.attempted += 1
            if rnd == 0:
                digest_op(self.digest, op, code, out)
            res = checks.quick(op, code, out)
            if res.reasons:
                self.failures[idx] = (op, res.reasons)
            if rnd % DEEP_EVERY == 0:
                self.samples.extend((idx, op, s) for s in res.samples)

    def one_round(self, rnd: int, traced: bool) -> None:
        ops = self.ops0 if rnd == 0 else workloads.round_ops(
            self.args.workload, self.args.seed, rnd)
        tr = self.tracer if traced else None
        cache = sys.modules["qpr.qseries"].poch_table
        if tr:
            tr.install()
            tr.recording = rnd == 0
            before, cache_before = tr.snapshot(), cache.cache_info()
        gc.collect()
        totals = [0.0, 0.0]  # raw, adjusted
        pending, interval = [], 0.0
        main = self.cli.main
        for i, op in enumerate(ops):
            if tr:
                tr.op_id = self.attempted + len(pending)
            t0 = time.perf_counter()
            code, out = run_op(main, op)
            interval += time.perf_counter() - t0
            pending.append((op, code, out))
            if interval >= MIN_INTERVAL_S or i == len(ops) - 1:
                self._finish_interval(pending, interval, rnd, totals)
                pending, interval = [], 0.0
        if tr:
            tr.uninstall()
            after, cache_after = tr.snapshot(), cache.cache_info()
            factor = totals[1] / totals[0]
            for name in tracer.SELF_METRICS:
                self.layer["self"][name] += (after["self"][name] - before["self"][name]) * factor
            self.layer["unattributed"] += (totals[0] - (after["root"] - before["root"])) * factor
            if rnd == 0:
                self.round0 = {
                    "calls": {k: after["calls"][k] - before["calls"][k] for k in after["calls"]},
                    "counters": {k: after["counters"][k] - before["counters"][k]
                                 for k in after["counters"]},
                    "misses": cache_after.misses - cache_before.misses,
                    "hits": cache_after.hits - cache_before.hits,
                }
        self.rounds.append({"raw": totals[0], "adj": totals[1], "traced": traced})

    def measure(self) -> None:
        deadline = time.perf_counter() + self.args.seconds
        rnd = 0
        # a traced run needs at least one traced and one untraced round
        while rnd < (2 if self.tracer else 1) or time.perf_counter() < deadline:
            self.one_round(rnd, traced=self.tracer is not None and rnd % 2 == 0)
            if rnd == 0:
                # read after the seed's own round, so that it does not depend
                # on how many rounds fit in the run (qpr's table cache keeps
                # up to 256 tables across operations)
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rnd += 1

    def check_samples(self) -> None:
        for idx, op, sample in self.samples:
            reason = checks.deferred(sample)
            if reason:
                self.failures.setdefault(idx, (op, []))[1].append(reason)

    def layer_metrics(self) -> dict:
        traced = [r["adj"] for r in self.rounds if r["traced"]]
        plain = [r["adj"] for r in self.rounds if not r["traced"]]
        k = len(traced)
        m = {}
        for name in tracer.SELF_METRICS:
            m[f"{name}.self_s"] = (self.layer["self"][name] / k, "s")
        for name in tracer.CALL_METRICS:
            m[f"{name}.calls"] = (self.round0["calls"][name], "count")
        c = self.round0["counters"]
        m["numerics.sum_rescaled.terms"] = (c["sum_rescaled_terms"], "count")
        looked = self.round0["hits"] + self.round0["misses"]
        m["qseries.poch_table.misses"] = (self.round0["misses"], "count")
        m["qseries.poch_table.hit_ratio"] = (self.round0["hits"] / looked if looked else 0.0,
                                             "ratio")
        m["diophantine.degrees_per_witness"] = (c["degrees"] / max(1, c["witnesses"]), "ratio")
        m["trace.unattributed_s"] = (self.layer["unattributed"] / k, "s")
        m["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain) - 1.0,
                                     "ratio")
        return m


def load_digests() -> dict:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def regen_digests() -> int:
    """Write digests.json: round-0 output digests for DIGEST_SEEDS."""
    cli = import_qpr()
    table = {}
    for wl in workloads.WORKLOADS:
        table[wl] = {}
        for seed in DIGEST_SEEDS:
            h = hashlib.sha256()
            for op in workloads.round_ops(wl, seed, 0):
                code, out = run_op(cli.main, op)
                digest_op(h, op, code, out)
            table[wl][str(seed)] = h.hexdigest()
        print(f"{wl}: {len(table[wl])} digests", flush=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-digests", action="store_true",
                    help=f"rewrite digests.json for seeds {DIGEST_SEEDS.start}.."
                         f"{DIGEST_SEEDS.stop - 1} of every workload and exit")
    args = ap.parse_args(argv)
    try:
        if args.regen_digests:
            return regen_digests()
        if not args.workload:
            ap.error("--workload is required")
        cli, ops0, setup_adj, setup_raw = setup(args.workload, args.seed)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    run = Run(args, cli, ops0)
    run.measure()
    run.check_samples()

    unexpected = {i: f for i, f in run.failures.items() if "fault" not in f[0]}
    raw = [r["raw"] for r in run.rounds if not r["traced"]] or [r["raw"] for r in run.rounds]
    adj = [r["adj"] for r in run.rounds if not r["traced"]] or [r["adj"] for r in run.rounds]
    digest = run.digest.hexdigest()
    ref = load_digests().get(args.workload, {}).get(str(args.seed))
    status = "none stored" if ref is None else ("match" if ref == digest else "MISMATCH")
    print(f"{args.workload} seed {args.seed}: {len(run.rounds)} rounds, "
          f"{run.attempted} operations, {len(run.failures)} failed "
          f"({len(unexpected)} outside the known faults)")
    print(f"raw seconds: setup median {statistics.median(setup_raw):.4f}, "
          f"work per round median {statistics.median(raw):.4f}; "
          f"adjustment factor {statistics.median(a / r for a, r in zip(adj, raw)):.3f}")
    print(f"round-0 output sha256 {digest} (reference: {status})")
    for i, (op, reasons) in sorted(run.failures.items())[:8]:
        tag = "known fault" if "fault" in op else "FAILED"
        print(f"  {tag} op {i}: {' '.join(op['argv'])}: {reasons[0]}")

    if args.trace:
        metrics = run.layer_metrics()
    else:
        metrics = {"setup_s": (statistics.median(setup_adj), "s"),
                   "work_s": (middle_mean(adj), "s"),
                   "peak_rss_mb": (run.peak_rss_mb, "MB")}
    result = {"correct": not unexpected, "attempted": run.attempted,
              "failed": len(run.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**result, "rounds": run.rounds, "setup_raw_s": setup_raw,
                   "setup_adjusted_s": setup_adj, "digest": digest, "digest_reference": status,
                   "failures": {i: [" ".join(op["argv"]), r] for i, (op, r) in run.failures.items()}},
                  fh, indent=1)
    if run.tracer:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "name", "start", "end", "parent"],
                       "spans": run.tracer.records}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
