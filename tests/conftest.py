import collections
import functools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def solve_lp_calls(monkeypatch):
    """Instances passed to `lp.solve_lp`, under both names it is called by."""
    from giplab import bnb, lp

    calls = []
    solve_lp = lp.solve_lp

    def counted(instance, **kwargs):
        calls.append(instance)
        return solve_lp(instance, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counted)
    monkeypatch.setattr(bnb, "solve_lp", counted)
    return calls


@pytest.fixture
def classify_calls(monkeypatch):
    """How often the support is classified: "_fractional" counts calls of
    `lp._fractional` and "n0" the computations of `LpSolution.n0`."""
    from giplab import lp

    calls = collections.Counter()
    fractional, n0 = lp._fractional, lp.LpSolution.n0.func

    def counted_n0(sol):
        calls.update(["n0"])
        return n0(sol)

    kept = functools.cached_property(counted_n0)
    kept.__set_name__(lp.LpSolution, "n0")
    monkeypatch.setattr(lp, "_fractional", lambda x: calls.update(["_fractional"]) or fractional(x))
    monkeypatch.setattr(lp.LpSolution, "n0", kept)
    return calls
