import pytest

from ncderham import solvers
from ncderham.assembly import Q, q_weights
from oracles import solve_saddle_lu


@pytest.fixture
def lu_saddle(monkeypatch):
    """Route the saddle stage of ``decoupled_solve``, which looks
    ``solvers.solve_saddle`` up at call time, through the monolithic LU
    oracle ``solve_saddle_lu``."""

    def solve(A, C, D, rhs_phi, config, dofmaps, forms=None):
        vols = q_weights(dofmaps[Q].mesh)
        return solve_saddle_lu(A, C, D, vols, rhs_phi, config)

    monkeypatch.setattr(solvers, "solve_saddle", solve)
