"""The names the benchmark reads from qpr resolve.

perfbench/tracer.py wraps each name of its SPANS and LEAVES tables, looked
up in the matching qpr module (a dotted name is a method, read from its
class's __dict__) with no default, and perfbench/run.py reads
qpr.qseries.poch_table's cache_info.  A name that moves or goes would make
every traced run fail, so this test pins them.  The tracer is loaded from
its file and only read.
"""

import importlib
import pathlib
import types

import pytest

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


def test_pochhammer_table_cache_is_readable():
    from qpr.qseries import poch_table
    assert callable(poch_table.cache_info)
