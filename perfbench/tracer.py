"""Per-layer tracing from outside qpr: wraps public functions of each module.

Spans nest on one stack.  A span's self time is its duration minus the
durations of the traced calls made inside it.  Leaf functions that run up to
about 10^6 times per round (``LEAVES``) get a lighter wrapper that only adds
to aggregate totals (a leaf raising an exception loses that one call's
time); the others also keep a span record (operation, name, start, end,
parent) while ``recording`` is set.
"""

from __future__ import annotations

import sys
import time

SPANS = {
    "cli": ("main",),
    "asymptotics": ("run_verify", "eval_case1", "eval_case_aq", "eval_case_theta"),
    "qseries": ("ramanujan_a", "b_function", "theta_lp"),
    "qlaguerre": ("normalized_laguerre_lp", "split_sums"),
    "diophantine": ("witness_search", "joint_witness_search"),
}
LEAVES = {
    "qseries": ("pochhammer",),
    "numerics": ("sum_rescaled",),
    "diophantine": ("RealValue.mul_floor_frac",),
}
# leaves called about 10^6 times per round: sampling period of their timing
SAMPLED = {"diophantine.mul_floor_frac": 16}
SELF_METRICS = [f"{m}.{f.split('.')[-1]}" for group in (SPANS, LEAVES)
                for m, fs in group.items() for f in fs]
CALL_METRICS = ["qseries.pochhammer", "qseries.ramanujan_a", "qseries.b_function",
                "qseries.theta_lp", "qlaguerre.normalized_laguerre_lp",
                "qlaguerre.split_sums", "numerics.sum_rescaled", "diophantine.mul_floor_frac"]
COUNTERS = ("sum_rescaled_terms", "degrees", "witnesses")


class Tracer:
    def __init__(self) -> None:
        self.calls = {name: 0 for name in SELF_METRICS}
        self.self_time = {name: 0.0 for name in SELF_METRICS}
        self.counters = {name: 0 for name in COUNTERS}
        self.root = ["<root>", 0.0, -1]   # name, child time, record index
        self.stack = [self.root]
        self.records: list[tuple] = []
        self.recording = False
        self.op_id = 0
        self.leaf_acc: dict[str, list] = {}
        self._patches: list[tuple] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn):
        clock = time.perf_counter
        stack = self.stack
        calls, self_time, counters, records = (self.calls, self.self_time,
                                               self.counters, self.records)
        searches = name in ("diophantine.witness_search", "diophantine.joint_witness_search")
        leaf_acc = self.leaf_acc

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, -1]
            rec = None
            if self.recording:
                rec = [self.op_id, name, 0.0, 0.0, parent[2]]
                frame[2] = len(records)
                records.append(rec)
            stack.append(frame)
            if searches:
                examined = leaf_acc["diophantine.mul_floor_frac"][0]
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                self_time[name] += dt - frame[1]
                parent[1] += dt
                if rec is not None:
                    rec[2], rec[3] = t0, t0 + dt
            if searches:
                # degrees examined: reductions of n*theta made by this search
                counters["degrees"] += leaf_acc["diophantine.mul_floor_frac"][0] - examined
                counters["witnesses"] += len(out)
            return out
        return wrapper

    def _leaf(self, name: str, fn):
        # kept as lean as possible: at 10^6 calls per round every operation
        # here shows in the tracing overhead
        clock = time.perf_counter
        stack = self.stack
        acc = self.leaf_acc.setdefault(name, [0, 0.0, 0])  # calls, seconds, terms

        if name == "numerics.sum_rescaled":
            def wrapper(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                dt = clock() - t0
                acc[0] += 1
                acc[1] += dt
                acc[2] += out.term_count
                stack[-1][1] += dt
                return out
        elif name in SAMPLED:
            # timed on every k-th call only, each timing standing for k calls
            k = SAMPLED[name]

            def wrapper(*args, **kwargs):
                acc[0] += 1
                if acc[0] % k:
                    return fn(*args, **kwargs)
                t0 = clock()
                out = fn(*args, **kwargs)
                dt = (clock() - t0) * k
                acc[1] += dt
                stack[-1][1] += dt
                return out
        else:
            def wrapper(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                dt = clock() - t0
                acc[0] += 1
                acc[1] += dt
                stack[-1][1] += dt
                return out
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Replace each traced function wherever a qpr module binds it."""
        mods = {k: v for k, v in sys.modules.items() if k == "qpr" or k.startswith("qpr.")}
        for group, make in ((SPANS, self._span), (LEAVES, self._leaf)):
            for mod_name, names in group.items():
                mod = mods[f"qpr.{mod_name}"]
                for dotted in names:
                    if "." in dotted:  # a method
                        cls_name, attr = dotted.split(".")
                        cls = getattr(mod, cls_name)
                        orig = cls.__dict__[attr]
                        self._patches.append((cls, attr, orig))
                        setattr(cls, attr, make(f"{mod_name}.{attr}", orig))
                        continue
                    orig = getattr(mod, dotted)
                    wrapped = make(f"{mod_name}.{dotted}", orig)
                    for m in mods.values():
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                self._patches.append((m, attr, orig))
                                setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def snapshot(self) -> dict:
        calls, self_time = dict(self.calls), dict(self.self_time)
        counters = dict(self.counters)
        for name, (n, seconds, terms) in self.leaf_acc.items():
            calls[name] += n
            self_time[name] += seconds
            if name == "numerics.sum_rescaled":
                counters["sum_rescaled_terms"] += terms
        return {"calls": calls, "self": self_time, "counters": counters,
                "root": self.root[1]}
