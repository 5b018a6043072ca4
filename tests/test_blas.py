import dataclasses

from ncderham import blas, errors, solvers
from ncderham.blas import one_blas_thread
from ncderham.fields import smooth_case_fields
from ncderham.mesh import build_unit_cube_mesh
from ncderham.solvers import SolverConfig, build_spaces, decoupled_solve

MISSING = "numpy's OpenBLAS thread calls were not found; one_blas_thread is a no-op"


def test_one_blas_thread_sets_one_thread_and_restores_the_count():
    assert blas.OPENBLAS is not None, MISSING
    get, set_ = blas.OPENBLAS
    before = get()
    set_(2)
    try:
        with one_blas_thread():
            assert get() == 1
            with one_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == 2
    finally:
        set_(before)


def test_solves_and_error_norms_run_on_one_blas_thread(monkeypatch):
    """Every SPD solve of a decoupled solve and every exact-field call of
    an error pass sees one OpenBLAS thread."""
    assert blas.OPENBLAS is not None, MISSING
    threads = blas.OPENBLAS[0]
    seen = []
    solve_spd = solvers.solve_spd

    def spy_solve(*args, **kwargs):
        seen.append(("solve", threads()))
        return solve_spd(*args, **kwargs)

    monkeypatch.setattr(solvers, "solve_spd", spy_solve)
    mesh = build_unit_cube_mesh(2)
    data = smooth_case_fields(1.0)
    sol = decoupled_solve(data["f"], mesh, SolverConfig(), build_spaces(mesh))

    def spy_value(X):
        seen.append(("error", threads()))
        return data["u"].value(X)

    errors.compute_error("l2_scalar", sol.u_h, dataclasses.replace(data["u"], value=spy_value))
    assert {kind for kind, _ in seen} == {"solve", "error"}
    assert {n for _, n in seen} == {1}
