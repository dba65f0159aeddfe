"""The names the benchmark reads from qpr resolve.

perfbench/tracer.py wraps each name of its SPANS and LEAVES tables, looked
up in the matching qpr module (a dotted name is a method, read from its
class's __dict__) with no default, and perfbench/run.py reads
qpr.qseries.poch_table's cache_info.  A name that moves or goes would make
every traced run fail, so this test pins them.  The tracer is loaded from
its file and only read.  A row times under its span only if run_verify
reaches it through the traced name, which the last test checks.
"""

import importlib
import pathlib
import types
from collections import Counter

import pytest

from qpr.asymptotics import run_verify
from qpr.qlaguerre import ScalingParameter
from qpr.qseries import QContext
from qpr.reals import parse_real

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    # compiled from its text, so no bytecode file is written next to it
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(module))
    return module


_T = _tracer()
NAMES = [(mod, name) for group in (_T.SPANS, _T.LEAVES)
         for mod, names in group.items() for name in names]


@pytest.mark.parametrize("mod, name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_traced_name_resolves(mod, name):
    module = importlib.import_module(f"qpr.{mod}")
    if "." in name:
        cls, attr = name.split(".")
        assert callable(vars(getattr(module, cls))[attr])
    else:
        assert callable(getattr(module, name))


def test_traced_real_class_is_the_one_every_module_uses():
    # the leaf patch on diophantine.RealValue times every reduction of n*x,
    # those of qlaguerre and asymptotics as well as those of the scans, only
    # while the class it reaches is the one qpr.reals defines
    import qpr.diophantine
    import qpr.reals
    assert qpr.diophantine.RealValue is qpr.reals.RealValue


def test_pochhammer_table_cache_is_readable():
    from qpr.qseries import poch_table
    assert callable(poch_table.cache_info)


@pytest.mark.parametrize("case_id, tau, theta, kw, span", [
    (1, "1", "1/3", {"n_values": range(2, 12)}, "eval_case1"),
    (2, "0", "1/3", {"n_values": range(2, 12)}, "eval_case_aq"),
    (4, "-1", "1/4", {"n_values": range(1, 12)}, "eval_case_theta"),
    (5, "-3/4", "sqrt2", {"rho": 0.5, "n_max": 200}, "eval_case_theta"),
], ids=["case1", "case2", "case4", "case5"])
def test_every_row_passes_through_a_traced_name(monkeypatch, case_id, tau, theta, kw, span):
    # the tracer times a row only when run_verify reaches it through a name
    # of SPANS: one call of the case's row function per row, none of another
    import qpr.asymptotics as asy
    assert span in _T.SPANS["asymptotics"]
    calls = Counter()
    for name in ("eval_case1", "eval_case_aq", "eval_case_theta"):
        real = getattr(asy, name)
        monkeypatch.setattr(asy, name, lambda *a, _n=name, _f=real: (
            calls.update([_n]), _f(*a))[1])
    sp = ScalingParameter(parse_real(tau), parse_real(theta))
    rows = run_verify(QContext(0.5, 0.0, 1.0), sp, case_id=case_id, **kw)
    assert rows and calls == Counter({span: len(rows)})
