"""Closed-form data for the two convergence experiments, built as products
of 1-D factors, and per-axis tables of quadrature points on which the
factors are evaluated once."""

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np
from numpy.polynomial import polynomial as P

from .mesh import _unique_rows


@dataclass
class AnalyticField:
    """Closed-form field with whatever derivative evaluators it supports.

    Scalar fields: ``value (M,) , gradient (M,3), hessian (M,3,3),
    laplacian (M,), bilaplacian (M,)``.  Vector fields: ``value (M,3),
    jacobian (M,3,3)``.
    """

    tag: str
    arity: int
    value: callable
    gradient: callable = None
    hessian: callable = None
    laplacian: callable = None
    bilaplacian: callable = None
    jacobian: callable = None


# A 1-D factor maps ``(t, orders)``, with ``orders`` a set of derivative
# orders, to ``{k: f^(k)(t) for k in orders}``; each transcendental it needs
# is evaluated once per call.


def sin2_factor(t, orders):
    """sin^2(pi t) and its derivatives up to order 4."""
    pi = np.pi
    s = np.sin(2 * pi * t) if orders & {1, 3} else None
    c = np.cos(2 * pi * t) if orders & {2, 4} else None
    derivatives = {
        0: lambda: np.sin(pi * t) ** 2, 1: lambda: pi * s, 2: lambda: 2 * pi**2 * c,
        3: lambda: -4 * pi**3 * s, 4: lambda: -8 * pi**4 * c,
    }
    return {k: derivatives[k]() for k in orders}


def sin_factor(t, orders):
    """sin(pi t) and its derivatives up to order 4."""
    pi = np.pi
    s = np.sin(pi * t) if orders & {0, 2, 4} else None
    c = np.cos(pi * t) if orders & {1, 3} else None
    derivatives = {
        0: lambda: s, 1: lambda: pi * c, 2: lambda: -(pi**2) * s,
        3: lambda: -(pi**3) * c, 4: lambda: pi**4 * s,
    }
    return {k: derivatives[k]() for k in orders}


def polynomial_factor(coef):
    """Factor of the polynomial with coefficients ``coef``, lowest first."""
    def factor(t, orders):
        return {k: P.polyval(t, P.polyder(coef, k)) for k in orders}

    return factor


def _index(*axes):
    """Multi-index that differentiates once along each listed axis."""
    return tuple(axes.count(a) for a in range(3))


class PointSet(np.ndarray):
    """(M, 3) points taken from a ``QuadraturePoints`` table: a plain
    ndarray that also knows which table row each of its tets reads.

    Only the array ``QuadraturePoints.take`` returns carries the table;
    arrays derived from it (copies, slices, arithmetic) do not, so a
    callable that moves its points evaluates them directly.
    """

    def __array_finalize__(self, obj):
        self.table = None
        self.keys = None  # per axis, (T,) table row of each tet


class QuadraturePoints:
    """A rule's physical points on every tet of a mesh, tabulated per axis.

    Along axis a the points of a tet depend only on its vertices'
    a-coordinates, so tets whose rows of ``vertices[:, :, a]`` agree bit
    for bit share them.  Those rows are the axis's keys: 4n on a Kuhn mesh,
    at most one per tet on any mesh.  Each key's points are computed once,
    with the same matmul a per-tet evaluation does, so they are
    bit-identical to it.  Factors of product fields are evaluated once per
    table entry and kept in a memo shared by every chunk and every norm.
    """

    def __init__(self, vertices, bary):
        self.keys = []  # per axis, (nT,) key of each tet
        self.coords = []  # per axis, (n_keys, P) coordinates
        for a in range(3):
            bits = np.ascontiguousarray(vertices[:, :, a]).view(np.int64)
            reps, keys = _unique_rows(bits)
            self.keys.append(keys)
            coords = np.matmul(bary, vertices[reps])[..., a]
            self.coords.append(np.ascontiguousarray(coords))
        self.memo = {}  # (axis, factor) -> {order: values on coords[axis]}

    def take(self, tids):
        """The points of tets ``tids``, tet-major, as a (T * P, 3) PointSet.

        Each axis is gathered into a contiguous row of a (3, T * P) array,
        whose transpose is the PointSet: one column per axis, no strided
        writes."""
        keys = [k[tids] for k in self.keys]
        columns = np.empty((3, tids.size, self.coords[0].shape[1]))
        for a, (c, k) in enumerate(zip(self.coords, keys)):
            # keys are in range; "clip" writes straight into ``out``
            np.take(c, k, axis=0, out=columns[a], mode="clip")
        X = columns.reshape(3, -1).T.view(PointSet)
        X.table, X.keys = self, keys
        return X

    def factor_values(self, a, factor, orders, keys):
        """``factor``'s derivatives of the given orders at the points of
        table rows ``keys`` along axis ``a``, flattened tet-major."""
        memo = self.memo.setdefault((a, factor), {})
        missing = orders - memo.keys()
        if missing:
            memo.update(factor(self.coords[a], missing))
        return {k: memo[k][keys].reshape(-1) for k in orders}


def quadrature_points(geom, bary):
    """The ``QuadraturePoints`` of barycentric points ``bary`` on a mesh
    geometry, built once and cached on it."""
    cache = getattr(geom, "_quadrature_points", None)
    if cache is None:
        cache = {}
        geom._quadrature_points = cache
    key = (bary.shape, bary.tobytes())
    if key not in cache:
        cache[key] = QuadraturePoints(geom.vertices, bary)
    return cache[key]


def _table(factors, X, orders):
    """table[a][k] = k-th derivative of the a-th factor at x_a."""
    if getattr(X, "table", None) is not None:
        return [X.table.factor_values(a, factor, orders, X.keys[a])
                for a, factor in enumerate(factors)]
    X = np.asarray(X)
    return [factor(X[:, a], orders) for a, factor in enumerate(factors)]


def _term(table, alpha):
    return table[0][alpha[0]] * table[1][alpha[1]] * table[2][alpha[2]]


def _laplacian(table):
    return reduce(add, (_term(table, _index(a, a)) for a in range(3)))


def _bilaplacian(table):
    # Lap^2 = sum_a d_a^4 + 2 sum_{a<b} d_a^2 d_b^2
    quartic = reduce(add, (_term(table, _index(a, a, a, a)) for a in range(3)))
    pairs = ((0, 1), (0, 2), (1, 2))
    mixed = reduce(add, (_term(table, _index(a, a, b, b)) for a, b in pairs))
    return quartic + 2 * mixed


def product_field(tag, factors):
    """Scalar field ``prod_a factors[a](x_a)``; each derivative is a sum of
    products over multi-indices, and each call asks every factor only for
    the orders it needs."""
    def value(X):
        return _term(_table(factors, X, {0}), (0, 0, 0))

    def gradient(X):
        table = _table(factors, X, {0, 1})
        out = np.empty((X.shape[0], 3))
        for a in range(3):
            out[:, a] = _term(table, _index(a))
        return out

    def hessian(X):
        table = _table(factors, X, {0, 1, 2})
        # entries are written contiguously and returned as an (M, 3, 3)
        # view, which is cheaper than nine strided writes or a transposing copy
        H = np.empty((3, 3, X.shape[0]))
        for a in range(3):
            for b in range(a, 3):
                H[a, b] = H[b, a] = _term(table, _index(a, b))
        return np.moveaxis(H, 2, 0)

    def laplacian(X):
        return _laplacian(_table(factors, X, {0, 2}))

    def bilaplacian(X):
        return _bilaplacian(_table(factors, X, {0, 2, 4}))

    return AnalyticField(tag, 1, value, gradient, hessian, laplacian, bilaplacian)


def gradient_field(u):
    """grad u as a vector field whose Jacobian is the Hessian of u."""
    return AnalyticField("grad_" + u.tag, 3, u.gradient, jacobian=u.hessian)


def vector_field(u, c):
    """The vector field c * u for a constant vector c."""
    c = np.asarray(c, dtype=float)

    def value(X):
        return u.value(X)[:, None] * c

    def jacobian(X):
        return c[None, :, None] * u.gradient(X)[:, None, :]

    return AnalyticField(f"{u.tag}_vec", 3, value, jacobian=jacobian)


def curl_field(v):
    """curl of a vector field that has a Jacobian."""
    def curl(X):
        J = v.jacobian(X)
        return np.stack(
            [J[:, 2, 1] - J[:, 1, 2], J[:, 0, 2] - J[:, 2, 0], J[:, 1, 0] - J[:, 0, 1]],
            axis=1,
        )

    return AnalyticField("curl_" + v.tag, 3, curl)


def smooth_case_fields(eps):
    """Exact data for the clamped test without boundary layer.

    u = sin^2(pi x) sin^2(pi y) sin^2(pi z) and f = eps^2 Lap^2 u - Lap u.
    Both u and its normal derivative vanish on the boundary of the unit cube.
    """
    factors = (sin2_factor,) * 3
    u = product_field("u_smooth", factors)

    def source(X):
        table = _table(factors, X, {0, 2, 4})
        return eps**2 * _bilaplacian(table) - _laplacian(table)

    f = AnalyticField(f"f_smooth_eps{eps:g}", 1, source)
    return {"u": u, "phi": gradient_field(u), "f": f}


def layer_case_fields():
    """Data for the boundary-layer test: the limit solution of the Poisson
    problem, u0 = sin(pi x) sin(pi y) sin(pi z), with f = -Lap u0, which
    is 3 pi^2 u0 because u0 is a Laplacian eigenfunction."""
    u0 = product_field("u0_layer", (sin_factor,) * 3)

    def source(X):
        return 3 * np.pi**2 * u0.value(X)

    f = AnalyticField("f_layer", 1, source)
    return {"u0": u0, "phi0": gradient_field(u0), "f": f}
