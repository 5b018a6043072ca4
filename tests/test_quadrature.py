import itertools

import numpy as np
import pytest

from ncderham.quadrature import (
    EDGE,
    TET,
    TRIANGLE,
    QuadratureCapabilityError,
    _gauss_jacobi_01,
    get_rule,
)
from oracles import barycentric_monomial_mean


def _monomials(nbary, degree):
    for alpha in itertools.product(range(degree + 1), repeat=nbary):
        if sum(alpha) <= degree:
            yield alpha


@pytest.mark.parametrize("kind,nbary,maxdeg", [(EDGE, 2, 9), (TRIANGLE, 3, 10), (TET, 4, 12)])
def test_monomial_exactness_exhaustive(kind, nbary, maxdeg):
    for degree in range(maxdeg + 1):
        rule = get_rule(kind, degree)
        assert rule.degree >= degree
        assert abs(rule.weights.sum() - 1.0) < 1e-14
        for alpha in _monomials(nbary, degree):
            approx = rule.weights @ np.prod(rule.points ** np.array(alpha), axis=1)
            exact = barycentric_monomial_mean(alpha)
            assert abs(approx - exact) <= 1e-12 * max(abs(exact), 1e-30), (
                kind,
                degree,
                alpha,
            )


def test_tet_degree2_example():
    # mean of lambda0*lambda1 is 1/20, i.e. integral is |T|/20
    rule = get_rule(TET, 2)
    val = rule.weights @ (rule.points[:, 0] * rule.points[:, 1])
    assert abs(val - 1.0 / 20.0) < 1e-14


def test_triangle_degree4_example():
    # mean of lambda0^4 is 1/15
    rule = get_rule(TRIANGLE, 4)
    val = rule.weights @ rule.points[:, 0] ** 4
    assert abs(val - 1.0 / 15.0) < 1e-14


def test_edge_three_point_gauss_degree5():
    rule = get_rule(EDGE, 5)
    assert rule.npoints == 3
    for k in range(6):
        val = rule.weights @ rule.points[:, 1] ** k
        assert abs(val - 1.0 / (k + 1)) < 1e-14


def test_rules_are_deterministic_and_capability_errors():
    r1 = get_rule(TET, 8)
    r2 = get_rule(TET, 8)
    assert r1 is r2
    with pytest.raises(QuadratureCapabilityError, match="12"):
        get_rule(TET, 13)
    with pytest.raises(QuadratureCapabilityError, match="10"):
        get_rule(TRIANGLE, 11)


def _reference_rule(kind, degree):
    """Per-dimension conical products written out with repeat and tile."""
    m = max(1, (degree + 2) // 2)
    if kind == EDGE:
        u, w = _gauss_jacobi_01(m, 0)
        return np.column_stack([1.0 - u, u]), w / w.sum(), 2 * m - 1
    if kind == TRIANGLE:
        u1, w1 = _gauss_jacobi_01(m, 1)
        u2, w2 = _gauss_jacobi_01(m, 0)
        l1 = np.repeat(u1, m)
        l2 = np.tile(u2, m) * (1.0 - l1)
        w = np.repeat(w1, m) * np.tile(w2, m)
        return np.column_stack([1.0 - l1 - l2, l1, l2]), w / w.sum(), 2 * m - 1
    u1, w1 = _gauss_jacobi_01(m, 2)
    u2, w2 = _gauss_jacobi_01(m, 1)
    u3, w3 = _gauss_jacobi_01(m, 0)
    l1 = np.repeat(u1, m * m)
    l2 = np.tile(np.repeat(u2, m), m) * (1.0 - l1)
    l3 = np.tile(u3, m * m) * (1.0 - l1 - l2)
    w = np.repeat(w1, m * m) * np.tile(np.repeat(w2, m), m) * np.tile(w3, m * m)
    pts = np.column_stack([1.0 - l1 - l2 - l3, l1, l2, l3])
    return pts, w / w.sum(), 2 * m - 1


@pytest.mark.parametrize("kind,maxdeg", [(EDGE, 24), (TRIANGLE, 10), (TET, 12)])
def test_rules_equal_the_per_dimension_reference_bit_for_bit(kind, maxdeg):
    for degree in range(maxdeg + 1):
        rule = get_rule(kind, degree)
        pts, w, deg = _reference_rule(kind, degree)
        assert np.array_equal(rule.points, pts), (kind, degree)
        assert np.array_equal(rule.weights, w), (kind, degree)
        assert rule.degree == deg and rule.kind == kind


def test_capability_messages():
    for kind, degree, message in (
        (TRIANGLE, 11, "triangle rules support degree <= 10, got 11"),
        (TET, 13, "tet rules support degree <= 12, got 13"),
        (EDGE, -1, "degree must be nonnegative, got -1"),
        ("prism", 2, "unknown entity kind 'prism'"),
    ):
        with pytest.raises(QuadratureCapabilityError) as info:
            get_rule(kind, degree)
        assert str(info.value) == message
