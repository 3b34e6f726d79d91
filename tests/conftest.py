import sys
from pathlib import Path

import pytest
import scipy.sparse.linalg as spla

sys.path.insert(0, str(Path(__file__).parent))  # makes `import oracles` work

from chemofv import LinearSolver, build_uniform_rect_mesh


@pytest.fixture
def solver():
    return LinearSolver()


@pytest.fixture
def splu_calls(monkeypatch):
    """List that gets one entry per LU factorization made by the solver:
    the matrix and the column ordering it was factorized with."""
    calls = []
    splu = spla.splu

    def counting_splu(a, **kwargs):
        calls.append((a, kwargs.get("permc_spec")))
        assert kwargs.get("permc_spec") == "MMD_AT_PLUS_A"
        return splu(a, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    return calls


@pytest.fixture
def mesh_2cell():
    # two unit-measure cells sharing one edge with tau = 1
    return build_uniform_rect_mesh((0.0, 2.0), (0.0, 1.0), 2, 1)


@pytest.fixture
def mesh_small():
    return build_uniform_rect_mesh((0.0, 1.0), (0.0, 1.0), 4, 4)
