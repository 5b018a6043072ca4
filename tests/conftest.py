import pytest

from ncderham import solvers
from ncderham.assembly import q_weights
from oracles import solve_saddle_lu


@pytest.fixture
def lu_saddle(monkeypatch):
    """Route the saddle stage of ``decoupled_solve``, which looks
    ``solvers.solve_saddle`` up at call time, through the monolithic LU
    oracle ``solve_saddle_lu``."""

    def solve(A, C, rhs_phi, level):
        D = level["div_coupling"]
        return solve_saddle_lu(A, C, D, q_weights(level.mesh), rhs_phi)

    monkeypatch.setattr(solvers, "solve_saddle", solve)
