import dataclasses

import numpy as np
import pytest

from ncderham import assembly as asm
from ncderham import fields
from ncderham.errors import compute_error
from ncderham.fields import (
    AnalyticField,
    layer_case_fields,
    smooth_case_fields,
)
from ncderham.interpolate import FeFunction
from ncderham.mesh import build_mesh_from_tets, build_unit_cube_mesh, mesh_geometry
from ncderham.quadrature import TET, get_rule
from ncderham.verify import _bubble_compatible_fields, _monomial
from oracles import SOURCE_ORACLE_TOL, fd_source_residual, fd_validate


def test_smooth_case_point_values():
    data = smooth_case_fields(1.0)
    center = np.array([[0.5, 0.5, 0.5]])
    assert data["u"].value(center)[0] == pytest.approx(1.0)
    assert np.abs(data["u"].gradient(center)).max() < 1e-14
    assert np.abs(data["phi"].value(center)).max() < 1e-14


def test_smooth_case_clamped_compatibility():
    data = smooth_case_fields(0.5)
    rng = np.random.default_rng(0)
    side = rng.random((40, 2))
    for axis in range(3):
        for val in (0.0, 1.0):
            X = np.insert(side, axis, val, axis=1)
            assert np.abs(data["u"].value(X)).max() < 1e-12
            assert np.abs(data["u"].gradient(X)).max() < 1e-12


def test_layer_case_point_values():
    data = layer_case_fields()
    center = np.array([[0.5, 0.5, 0.5]])
    assert data["f"].value(center)[0] == pytest.approx(3 * np.pi**2)
    assert np.abs(data["phi0"].value(center)).max() < 1e-14
    rng = np.random.default_rng(1)
    side = rng.random((20, 2))
    X = np.insert(side, 0, 0.0, axis=1)
    assert np.abs(data["u0"].value(X)).max() < 1e-14


@pytest.mark.parametrize("eps", [1.0, 1e-4])
def test_fd_validate_smooth(eps):
    data = smooth_case_fields(eps)
    rep = fd_validate(data["u"])
    assert rep["passed"], rep
    rep_phi = fd_validate(data["phi"])
    assert rep_phi["passed"], rep_phi


def test_fd_validate_layer_laplacian_identity():
    data = layer_case_fields()
    rep = fd_validate(data["u0"])
    assert rep["passed"], rep
    assert "bilaplacian" in rep["checks"]
    # analytic identity: Lap u0 = -3 pi^2 u0
    X = np.random.default_rng(5).random((30, 3))
    assert np.allclose(
        data["u0"].laplacian(X), -3 * np.pi**2 * data["u0"].value(X), rtol=1e-13
    )


@pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-6])
def test_source_matches_fd_oracle(eps):
    data = smooth_case_fields(eps)
    assert fd_source_residual(data["u"], data["f"], eps) < SOURCE_ORACLE_TOL


def test_source_oracle_checks_a_vanishing_source_at_roundoff_level():
    """u = xyz has eps^2 Lap^2 u - Lap u = 0: the right source passes
    and a wrong one fails."""
    u = _monomial((1, 1, 1))
    zero = AnalyticField("zero", 1, lambda X: np.zeros(X.shape[0]))
    assert fd_source_residual(u, zero, 1e-2) < SOURCE_ORACLE_TOL
    wrong = AnalyticField("wrong", 1, lambda X: np.full(X.shape[0], 1e-3))
    assert fd_source_residual(u, wrong, 1e-2) > SOURCE_ORACLE_TOL


def test_fd_oracle_detects_corruption():
    data = smooth_case_fields(1.0)
    u = data["u"]
    bad = AnalyticField(
        "bad", 1, u.value,
        gradient=lambda X: u.gradient(X) * np.array([1.0, -1.0, 1.0]),
        laplacian=u.laplacian,
    )
    rep = fd_validate(bad)
    assert not rep["passed"]
    assert not rep["checks"]["gradient"]["passed"]


def test_fd_validate_polynomial_product_fields():
    scalar, grad, vec, _ = _bubble_compatible_fields()
    for fld in (scalar, grad, vec):
        rep = fd_validate(fld)
        assert rep["passed"], rep
    # the bilaplacian of x^2 y and the Laplacian of xyz vanish identically;
    # they are checked against the stencil's roundoff level
    for alpha in ((2, 1, 0), (1, 1, 1)):
        rep = fd_validate(_monomial(alpha))
        assert rep["passed"] and len(rep["checks"]) == 4, rep
    # a wrong value of a vanishing derivative still fails
    mono = _monomial((2, 1, 0))
    wrong = dataclasses.replace(mono, bilaplacian=lambda X: np.ones(X.shape[0]))
    assert not fd_validate(wrong)["checks"]["bilaplacian"]["passed"]


@pytest.mark.parametrize("eps", [1.0, 1e-4])
def test_smooth_source_is_eps2_bilaplacian_minus_laplacian(eps):
    data = smooth_case_fields(eps)
    u = data["u"]
    X = np.random.default_rng(3).random((200, 3))
    expect = eps**2 * u.bilaplacian(X) - u.laplacian(X)
    assert np.allclose(data["f"].value(X), expect, rtol=1e-13, atol=0.0)


def test_layer_source_is_minus_laplacian():
    data = layer_case_fields()
    X = np.random.default_rng(4).random((200, 3))
    expect = -data["u0"].laplacian(X)
    assert np.allclose(data["f"].value(X), expect, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "factor, build",
    [("sin2_factor", lambda: smooth_case_fields(0.5)), ("sin_factor", layer_case_fields)],
)
def test_each_factor_is_evaluated_once_per_axis(monkeypatch, factor, build):
    calls = []
    inner = getattr(fields, factor)

    def counted(t, orders):
        calls.append(orders)
        return inner(t, orders)

    monkeypatch.setattr(fields, factor, counted)
    data = build()
    X = np.random.default_rng(6).random((10, 3))
    for fld in data.values():
        for attr in ("value", "gradient", "hessian", "laplacian", "bilaplacian", "jacobian"):
            fn = getattr(fld, attr)
            if fn is None:
                continue
            calls.clear()
            fn(X)
            assert len(calls) == 3, (fld.tag, attr, calls)


def _jittered_cube(n=2, seed=0):
    """The Kuhn cube with every vertex coordinate strictly inside (0, 1)
    moved at random: the interior vertices move freely and boundary
    vertices stay on their faces, so no two tets are translates."""
    mesh = build_unit_cube_mesh(n)
    vertices = mesh.vertices.copy()
    inside = (vertices > 0) & (vertices < 1)
    rng = np.random.default_rng(seed)
    vertices[inside] += rng.uniform(-0.1, 0.1, inside.sum()) / n
    return build_mesh_from_tets(vertices, mesh.tets)


MESHES = {
    "kuhn2": lambda: build_unit_cube_mesh(2),
    "kuhn4": lambda: build_unit_cube_mesh(4),
    "kuhn8": lambda: build_unit_cube_mesh(8),
    "jittered2": _jittered_cube,
}


@pytest.fixture(scope="module", params=list(MESHES))
def any_mesh(request):
    return MESHES[request.param]()


def _field_callables():
    for data in (smooth_case_fields(1e-4), layer_case_fields()):
        for fld in data.values():
            for attr in ("value", "gradient", "hessian", "laplacian", "bilaplacian",
                         "jacobian"):
                if getattr(fld, attr) is not None:
                    yield f"{fld.tag}.{attr}", getattr(fld, attr)


@pytest.mark.parametrize("degree", [8, 10])
def test_point_set_is_the_per_chunk_matmul_bit_for_bit(any_mesh, degree):
    geom = mesh_geometry(any_mesh)
    pts = get_rule(TET, degree).points
    points = fields.quadrature_points(geom, pts)
    assert fields.quadrature_points(geom, pts) is points
    for lo in range(0, any_mesh.num_tets, 512):
        tids = np.arange(lo, min(lo + 512, any_mesh.num_tets))
        X = points.take(tids)
        assert np.array_equal(X, np.matmul(pts, geom.vertices[tids]).reshape(-1, 3))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_kuhn_point_set_has_4n_keys_per_axis(n):
    """The table, and the memo of factor values on it, is O(n * P)."""
    pts = get_rule(TET, 8).points
    points = fields.quadrature_points(mesh_geometry(build_unit_cube_mesh(n)), pts)
    for keys, coords in zip(points.keys, points.coords):
        assert np.unique(keys).size == 4 * n
        assert coords.shape == (4 * n, pts.shape[0])


def test_unstructured_point_set_falls_back_to_about_one_key_per_tet():
    mesh = _jittered_cube()
    geom = mesh_geometry(mesh)
    assert geom.rep_geometry is None
    points = fields.quadrature_points(geom, get_rule(TET, 8).points)
    for keys in points.keys:
        assert np.unique(keys).size > 0.8 * mesh.num_tets


@pytest.mark.parametrize("degree", [8, 10])
def test_field_callables_give_the_same_bits_on_a_point_set(any_mesh, degree):
    geom = mesh_geometry(any_mesh)
    points = fields.quadrature_points(geom, get_rule(TET, degree).points)
    X = points.take(np.arange(0, any_mesh.num_tets, 5))
    plain = np.array(X)
    assert type(plain) is np.ndarray
    for name, fn in _field_callables():
        assert np.array_equal(fn(X), fn(plain)), name


def test_arrays_derived_from_a_point_set_evaluate_directly():
    """Stencils such as fd_validate's build shifted copies of their points;
    those must not read the table of the points they came from."""
    points = fields.quadrature_points(
        mesh_geometry(build_unit_cube_mesh(2)), get_rule(TET, 8).points
    )
    X = points.take(np.arange(6))
    step = 1e-3
    shifted = X.copy()
    shifted[:, 1] += step
    for derived in (X + step, X.copy(), X[:, 0], X[:10], shifted):
        assert getattr(derived, "table", None) is None
    for name, fn in _field_callables():
        assert np.array_equal(fn(X + step), fn(np.array(X) + step)), name
        assert np.array_equal(fn(shifted), fn(np.array(shifted))), name


@pytest.mark.parametrize("degree", [8, 10])
def test_errors_and_load_match_a_direct_evaluation(monkeypatch, any_mesh, degree):
    maps = {s: asm.build_dof_map(s, any_mesh) for s in (asm.P2, asm.PHI)}
    rng = np.random.default_rng(degree)
    u = FeFunction(maps[asm.P2], rng.standard_normal(maps[asm.P2].dim))
    phi = FeFunction(maps[asm.PHI], rng.standard_normal(maps[asm.PHI].dim))
    smooth, layer = smooth_case_fields(1e-4), layer_case_fields()

    def measure():
        out = [
            compute_error(kind, fe, exact, quad_degree=degree)
            for kind, fe, exact in (
                ("l2_scalar", u, smooth["u"]), ("h1semi_scalar", u, smooth["u"]),
                ("l2_vs_ind", phi, smooth["phi"]),
                ("broken_h1semi_vector", phi, smooth["phi"]),
                ("l2_scalar", u, layer["u0"]), ("l2_vector", phi, layer["phi0"]),
            )
        ]
        out += [asm.assemble_load("f_vs_p2", maps, data["f"])
                for data in (smooth, layer)]
        return out

    tabulated = measure()
    take = fields.QuadraturePoints.take
    monkeypatch.setattr(fields.QuadraturePoints, "take",
                        lambda self, tids: np.array(take(self, tids)))
    direct = measure()
    for a, b in zip(tabulated, direct):
        assert np.array_equal(a, b)
