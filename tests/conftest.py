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
