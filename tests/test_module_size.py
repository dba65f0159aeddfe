"""Every module of the package stays under 4096 tokens.

With PYTHONDONTWRITEBYTECODE=1 each fresh import compiles the sources, and
CPython's parser grows its token buffer at 4096 tokens, so a module past
that step raises the benchmark's set-up peak_rss_mb with no change in what
qpr holds (ROADMAP item 8).  This interim rule goes once item 8 reads
peak_rss_mb relative to the level after set-up.  Tokens are counted by
tokenize, comments and non-logical newlines included.
"""

import pathlib
import tokenize

import pytest

import qpr

MODULES = sorted(pathlib.Path(qpr.__file__).parent.glob("*.py"))
TOKEN_STEP = 4096


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_below_parser_token_step(path):
    with path.open("rb") as fh:
        count = sum(1 for _ in tokenize.tokenize(fh.readline))
    assert count < TOKEN_STEP, f"{path.name} has {count} tokens"
