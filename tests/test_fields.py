import dataclasses

import numpy as np
import pytest

from ncderham import fields
from ncderham.fields import (
    AnalyticField,
    SOURCE_ORACLE_TOL,
    fd_source_residual,
    fd_validate,
    layer_case_fields,
    smooth_case_fields,
)
from ncderham.verify import _bubble_compatible_fields, _monomial


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
