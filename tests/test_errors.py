import dataclasses
import math
import sys

import numpy as np
import pytest

from ncderham import assembly as asm
from ncderham import errors
from ncderham.assembly import ND, P2, PHI, Q, RT, W
from ncderham.errors import (
    CSV_HEADER,
    ConvergenceReport,
    ErrorCapability,
    StudyRow,
    compute_error,
    convergence_rates,
    err_phi,
    err_phi_plain,
)
from ncderham.fields import AnalyticField, layer_case_fields, smooth_case_fields
from ncderham.interpolate import FeFunction, canonical_interpolate
from ncderham.mesh import build_unit_cube_mesh
from test_fields import _jittered_cube


@pytest.fixture(scope="module")
def mesh2():
    return build_unit_cube_mesh(2)


@pytest.fixture(scope="module")
def maps2(mesh2):
    return {s: asm.build_dof_map(s, mesh2) for s in (P2, ND, RT, Q, PHI, W)}


class KuhnPointEvaluator:
    """Evaluate a discrete function at arbitrary points of the unit cube by
    locating each point's subcube and path tetrahedron analytically."""

    def __init__(self, fe, n):
        from itertools import permutations

        self.fe = fe
        self.n = n
        self.perms = list(permutations(range(3)))

    def value(self, X):
        from ncderham.interpolate import fe_values
        from ncderham.mesh import mesh_geometry

        n = self.n
        mesh = self.fe.dofmap.mesh
        geom = mesh_geometry(mesh)
        cube = np.minimum((X * n).astype(int), n - 1)
        t = X * n - cube
        order = np.argsort(-t, axis=1, kind="stable")
        out = np.empty(X.shape[0])
        for p, perm in enumerate(self.perms):
            sel = np.all(order == np.array(perm), axis=1)
            if not sel.any():
                continue
            tids = p + 6 * (
                cube[sel, 0] + n * cube[sel, 1] + n * n * cube[sel, 2]
            )
            # barycentric coordinates from affine geometry (robust to the
            # orientation swap applied during mesh construction)
            lam = np.zeros((tids.size, 4))
            for i in range(4):
                lam[:, i] = 1.0 + np.einsum(
                    "tk,tk->t", geom.grad_lambda[tids, i],
                    X[sel] - geom.vertices[tids, i],
                )
            vals = fe_values(self.fe, lam[:, None, :], tids=tids)
            out[sel] = vals[:, 0]
        return out


def test_interpolant_of_space_member_reproduces(mesh2, maps2):
    """Canonical interpolation of a member of the space, measured in L2
    against point evaluation of that member, vanishes to quadrature noise."""
    rng = np.random.default_rng(5)
    fe = FeFunction(maps2[P2], rng.standard_normal(maps2[P2].dim))
    field = AnalyticField("member", 1, KuhnPointEvaluator(fe, 2).value)
    reinterp = canonical_interpolate(maps2[P2], field)
    assert np.abs(reinterp.coeffs - fe.coeffs).max() < 1e-12
    err = compute_error("l2_scalar", reinterp, field)
    assert err < 1e-10


def test_l2_norm_of_triple_sine(mesh2, maps2):
    data = layer_case_fields()
    zero = FeFunction(maps2[P2], np.zeros(maps2[P2].dim))
    e = compute_error("l2_scalar", zero, data["u0"])
    assert abs(e - math.sqrt(1.0 / 8.0)) < 1e-10


def test_err_phi_triangle_inequality(mesh2, maps2):
    data = smooth_case_fields(0.5)
    rng = np.random.default_rng(9)
    fe = FeFunction(maps2[PHI], rng.standard_normal(maps2[PHI].dim))
    eps = 0.5
    combo = err_phi(fe, data["phi"], eps)
    h1 = compute_error("broken_h1semi_vector", fe, data["phi"])
    l2 = compute_error("l2_vs_ind", fe, data["phi"])
    assert combo >= eps * h1 - 1e-14
    assert combo >= l2 - 1e-14
    combo0 = err_phi_plain(fe, data["phi"], eps)
    l2p = compute_error("l2_vector", fe, data["phi"])
    assert combo0 >= l2p - 1e-14


# name -> (mesh, error quadrature degree); the jittered mesh evaluates tet
# by tet, so it takes a smaller rule: the chunk sums do not depend on it
MULTI_CHUNK_MESHES = {
    "kuhn6": (lambda: build_unit_cube_mesh(6), 8),  # 1,296 tets: three chunks
    "jittered5": (lambda: _jittered_cube(5), 4),  # 750 tets: 512 + 238
}


@pytest.fixture(scope="module", ids="-".join, params=[
    (m, c) for m in MULTI_CHUNK_MESHES for c in ("smooth", "layer")])
def separate_phi_norms(request):
    """A random Phi function on a mesh of more than one 512-tet chunk, its
    exact field, the rule degree, and the three parts of err_phi, each from
    its own call."""
    mesh_name, case = request.param
    build, degree = MULTI_CHUNK_MESHES[mesh_name]
    pmap = asm.build_dof_map(PHI, build())
    fe = FeFunction(pmap, np.random.default_rng(13).standard_normal(pmap.dim))
    # phi = grad u does not depend on eps
    exact = smooth_case_fields(1.0)["phi"] if case == "smooth" else layer_case_fields()["phi0"]
    parts = [compute_error(kind, fe, exact, degree)
             for kind in ("broken_h1semi_vector", "l2_vs_ind", "l2_vector")]
    return fe, exact, degree, parts


@pytest.mark.parametrize("eps", [1.0, 1e-4])
def test_err_phi_one_pass_matches_separate_norms(separate_phi_norms, eps):
    """err_phi and err_phi_plain measure both parts in one chunk loop; each
    part keeps the chunk-ordered sum of its own compute_error call."""
    fe, exact, degree, (h1, l2, l2p) = separate_phi_norms
    assert err_phi(fe, exact, eps, degree) == math.sqrt((eps * h1) ** 2 + l2**2)
    assert err_phi_plain(fe, exact, eps, degree) == math.sqrt((eps * h1) ** 2 + l2p**2)


def _every_norm(mesh, case, degree):
    """Every compute_error kind and both combined errors of random P2 and
    Phi functions on ``mesh``."""
    rng = np.random.default_rng(17)
    p2, phi = (FeFunction(m, rng.standard_normal(m.dim))
               for m in (asm.build_dof_map(s, mesh) for s in (P2, PHI)))
    data = smooth_case_fields(1e-4) if case == "smooth" else layer_case_fields()
    u, exact = (data["u"], data["phi"]) if case == "smooth" else (data["u0"], data["phi0"])
    return (
        [compute_error(k, p2, u, degree) for k in ("l2_scalar", "h1semi_scalar")]
        + [compute_error(k, phi, exact, degree)
           for k in ("l2_vector", "broken_h1semi_vector", "l2_vs_ind")]
        + [f(phi, exact, 1e-4, degree) for f in (err_phi, err_phi_plain)]
    )


# the per-tet path of the jittered mesh is slow and reads its caches as
# the Kuhn mesh's class path does, so it takes one field
@pytest.mark.parametrize("mesh_name, case", [
    ("kuhn6", "smooth"), ("kuhn6", "layer"), ("jittered5", "smooth")])
def test_the_helper_thread_keeps_every_error_bit(mesh_name, case, monkeypatch):
    """With the size rule lowered to every mesh, half the chunks go to the
    helper thread and every error keeps the serial pass's bits.  Each pass
    runs on a fresh mesh, so the threaded one starts on empty caches, and
    the threads switch every microsecond to shake out shared-cache races."""
    build, degree = MULTI_CHUNK_MESHES[mesh_name]
    serial = _every_norm(build(), case, degree)
    submitted = []

    class CountingPool(errors.ThreadPoolExecutor):
        def submit(self, fn, *args):
            submitted.append(args)
            return super().submit(fn, *args)

    monkeypatch.setattr(errors, "_HELPER_TETS", 0)
    monkeypatch.setattr(errors, "ThreadPoolExecutor", CountingPool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _every_norm(build(), case, degree)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert len(submitted) == 7  # one hand-off in each of the seven passes


def test_l2_vs_ind_is_l2_of_the_nd_interpolant(mesh2, maps2):
    """The edge-interpolated L2 error is the plain L2 error of the ND
    companion, bit for bit."""
    from ncderham.interpolate import nd_interpolant

    data = smooth_case_fields(1e-4)
    rng = np.random.default_rng(31)
    fe = FeFunction(maps2[PHI], rng.standard_normal(maps2[PHI].dim))
    nd = nd_interpolant(fe)
    assert compute_error("l2_vs_ind", fe, data["phi"]) == compute_error(
        "l2_vector", nd, data["phi"]
    )


def test_quadrature_stability_of_error_norms():
    """Raising the error quadrature degree from 8 to 10 moves results < 0.1%."""
    from ncderham.solvers import SolverConfig, build_spaces, decoupled_solve

    mesh = build_unit_cube_mesh(4)
    maps = build_spaces(mesh)
    data = smooth_case_fields(1e-4)
    sol = decoupled_solve(data["f"], mesh, SolverConfig(eps=1e-4), maps)
    for kind, fe, exact in (
        ("l2_scalar", sol.u_h, data["u"]),
        ("h1semi_scalar", sol.u_h, data["u"]),
        ("l2_vs_ind", sol.phi_h, data["phi"]),
        ("broken_h1semi_vector", sol.phi_h, data["phi"]),
    ):
        e8 = compute_error(kind, fe, exact, quad_degree=8)
        e10 = compute_error(kind, fe, exact, quad_degree=10)
        assert abs(e8 - e10) / e10 < 1e-3, kind


def test_convergence_rates_basic():
    rates = convergence_rates([4e-2, 1e-2])
    assert rates[0] is None
    assert rates[1] == pytest.approx(2.0)


def test_report_writers(tmp_path):
    rows = [
        StudyRow("smooth", "interp", 1e-4, 4, 0.25, 100, 200, 1.0, None, 0.1,
                 None, 0.5, None, None),
        StudyRow("smooth", "interp", 1e-4, 8, 0.125, 800, 1600, 0.25, 2.0,
                 0.0125, 3.0, 0.125, 2.0, 1.25),
    ]
    rep = ConvergenceReport(rows)
    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1].endswith(",")  # empty rate and timing fields
    assert len(lines) == 3
    md = rep.to_markdown()
    assert md.count("|") > 10
    js = rep.to_json()
    import json

    parsed = json.loads(js)
    assert parsed[1]["rate_phi"] == 2.0


def test_missing_derivative_raises(mesh2, maps2):
    bare = AnalyticField("bare", 1, lambda X: np.zeros(X.shape[0]))
    fe = FeFunction(maps2[P2], np.zeros(maps2[P2].dim))
    with pytest.raises(ErrorCapability):
        compute_error("h1semi_scalar", fe, bare)
    with pytest.raises(ErrorCapability):
        compute_error("nonsense", fe, bare)
    # err_phi's one pass needs both parts' data
    phi_fe = FeFunction(maps2[PHI], np.zeros(maps2[PHI].dim))
    phi = smooth_case_fields(1.0)["phi"]
    for missing in ("jacobian", "value"):
        bad = dataclasses.replace(phi, **{missing: None})
        for combined in (err_phi, err_phi_plain):
            with pytest.raises(ErrorCapability, match=missing):
                combined(phi_fe, bad, 1.0)
