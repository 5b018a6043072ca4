"""Quadrature rules on edges, triangles and tetrahedra in barycentric form.

Rules are stored normalized: points are barycentric coordinates on the
reference entity and weights sum to one, so a physical integral is
``measure * sum(w_k * f(x_k))``.  Construction uses conical (collapsed
Gauss-Jacobi) products, which are deterministic and exact for all
polynomials up to the advertised degree.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

EDGE = "edge"
TRIANGLE = "triangle"
TET = "tet"

DIMENSION = {EDGE: 1, TRIANGLE: 2, TET: 3}
MAX_DEGREE = {TRIANGLE: 10, TET: 12}


class QuadratureCapabilityError(ValueError):
    """Requested degree exceeds what the rule factory supports."""


@dataclass(frozen=True)
class QuadratureRule:
    kind: str
    points: np.ndarray  # (nq, nbary) barycentric coordinates
    weights: np.ndarray  # (nq,), sum to 1
    degree: int

    @property
    def npoints(self):
        return self.points.shape[0]


def _gauss_jacobi_01(m, alpha):
    """Nodes/weights on [0,1] for weight (1-u)**alpha."""
    if alpha == 0:
        x, w = np.polynomial.legendre.leggauss(m)
    else:
        x, w = roots_jacobi(m, alpha, 0.0)
    u = 0.5 * (x + 1.0)
    w = w / 2.0 ** (alpha + 1)
    return u, w


def _simplex_rule(d, degree):
    """Conical product on the d-simplex.

    lambda_k = u_k * (1 - lambda_1 - ... - lambda_{k-1}) for k = 1..d, with
    u_k the Gauss-Jacobi nodes of weight (1-u)**(d-k), and lambda_0 the
    remainder; the first node varies slowest.
    """
    m = max(1, (degree + 2) // 2)
    rest, w, lams = 1.0, 1.0, []
    for k, i in enumerate(np.indices((m,) * d).reshape(d, -1), start=1):
        u, wk = _gauss_jacobi_01(m, d - k)
        lams.append(u[i] * rest)
        rest = rest - lams[-1]
        w = w * wk[i]
    pts = np.column_stack([rest] + lams)
    return pts, w / w.sum(), 2 * m - 1


@lru_cache(maxsize=None)
def get_rule(kind, degree):
    """Return a QuadratureRule of exactness >= ``degree`` on the entity kind."""
    if degree < 0:
        raise QuadratureCapabilityError(f"degree must be nonnegative, got {degree}")
    if kind not in DIMENSION:
        raise QuadratureCapabilityError(f"unknown entity kind {kind!r}")
    if kind in MAX_DEGREE and degree > MAX_DEGREE[kind]:
        raise QuadratureCapabilityError(
            f"{kind} rules support degree <= {MAX_DEGREE[kind]}, got {degree}"
        )
    pts, w, deg = _simplex_rule(DIMENSION[kind], degree)
    pts.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(kind, pts, w, deg)
