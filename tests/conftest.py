import pytest

from ncderham import solvers
from ncderham.assembly import q_weights
from oracles import solve_saddle_lu


@pytest.fixture
def lu_saddle(monkeypatch):
    """Route the saddle stage of ``decoupled_solve``, which looks
    ``solvers.solve_saddle`` up at call time, through the monolithic LU
    oracle ``solve_saddle_lu``.  The oracle takes the quadrature coupling
    forms, so its solves cross-check the couplings that ``solve_saddle``
    applies as products of the complex's operators."""

    def solve(A, rhs_phi, level):
        C, D = level["curl_coupling"], level["div_coupling"]
        return solve_saddle_lu(A, C, D, q_weights(level.mesh), rhs_phi)

    monkeypatch.setattr(solvers, "solve_saddle", solve)
