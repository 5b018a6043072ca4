"""Test-only oracles: independent references that no production path
calls.

- ``solve_saddle_lu``: the saddle block system factored whole by a sparse
  LU, the small-mesh reference for the certified reduction
  ``solvers.solve_saddle``.
- ``fd_validate`` and ``fd_source_residual``: finite-difference
  cross-checks of every derivative an analytic field provides, and of a
  source against eps^2 Lap^2 u - Lap u.
- ``barycentric_monomial_mean``: the closed-form mean of a barycentric
  monomial over a simplex, against which quadrature rules are checked.
"""

import time
from math import factorial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ncderham.solvers import SADDLE_TOL, SolverFailure


def _equilibrate(K):
    """Symmetric diagonal scaling by inverse square roots of row maxima."""
    absK = abs(K)
    rowmax = np.asarray(absK.max(axis=1).todense()).ravel()
    rowmax[rowmax == 0] = 1.0
    s = 1.0 / np.sqrt(rowmax)
    S = sp.diags(s)
    return (S @ K @ S).tocsc(), s


def solve_saddle_lu(A, C, D, cell_measures, rhs_phi):
    """The block system of ``solve_saddle``, with e = ``cell_measures``,
    factored whole: sparse LU with symmetric equilibration and up to three
    steps of iterative refinement.  Its fill grows prohibitively on larger
    3D meshes, so it serves only as the tests' small-mesh oracle.  Returns
    the same tuple, with ``info["mode"] == "direct"``.
    """
    nphi, nrt = C.shape
    nq = D.shape[0]
    e = sp.csr_matrix(cell_measures.reshape(-1, 1))
    K = sp.bmat(
        [
            [A, None, C, None],
            [None, None, -D, e],
            [C.T, -D.T, None, None],
            [None, e.T, None, None],
        ],
        format="csr",
    )
    b = np.zeros(K.shape[0])
    b[:nphi] = rhs_phi

    Ks, s = _equilibrate(K)
    t0 = time.perf_counter()
    try:
        lu = spla.splu(Ks.tocsc(), permc_spec="COLAMD")
    except RuntimeError as exc:
        raise SolverFailure(f"saddle factorization failed: {exc}") from exc
    factor_seconds = time.perf_counter() - t0

    x = s * lu.solve(s * b)
    bnorm = np.linalg.norm(b)
    residuals = []
    for refinements in range(4):
        r = b - K @ x
        res = float(np.linalg.norm(r) / (1.0 + bnorm))
        residuals.append(res)
        if res <= SADDLE_TOL:
            break
        if refinements == 3:
            raise SolverFailure(
                f"saddle refinement stalled at residual {res:.3e}", residuals
            )
        x = x + s * lu.solve(s * r)
    info = {
        "mode": "direct",
        "factor_seconds": factor_seconds,
        "residuals": residuals,
        "fill_nnz": int(lu.nnz),
        "dim": K.shape[0],
        "krylov": [],
    }
    phi = x[:nphi]
    lam = x[nphi : nphi + nq]
    p = x[nphi + nq : nphi + nq + nrt]
    nu = float(x[-1])
    return phi, lam, p, nu, info


def _sample_points(npoints, rng, margin=0.05):
    return margin + (1 - 2 * margin) * rng.random((npoints, 3))


def _fd_gradient(fn, X, step):
    out = np.empty((X.shape[0], 3) + np.asarray(fn(X[:1])).shape[1:])
    for k in range(3):
        Xp, Xm = X.copy(), X.copy()
        Xp[:, k] += step
        Xm[:, k] -= step
        out[:, k] = (np.asarray(fn(Xp)) - np.asarray(fn(Xm))) / (2 * step)
    return out


def _fd_laplacian(fn, X, step):
    center = -6.0 * np.asarray(fn(X))
    for k in range(3):
        Xp, Xm = X.copy(), X.copy()
        Xp[:, k] += step
        Xm[:, k] -= step
        center = center + np.asarray(fn(Xp)) + np.asarray(fn(Xm))
    return center / step**2


def fd_validate(field, npoints=50, seed=0, step=1e-4, rtol=1e-6):
    """Cross-check every provided derivative against central differences.

    Deviations are measured relative to the sampled magnitude of the exact
    quantity.  The nested bi-Laplacian check uses a wider step and a
    looser 1e-5 threshold (two stacked second-difference stencils).  A
    stencil with weights w applied to f carries a roundoff of about
    eps_machine * ||w||_1 * max|f| even on exact data, so the scale is
    floored where that roundoff reaches the threshold: a derivative that
    vanishes is checked to the stencil's roundoff level.
    """
    rng = np.random.default_rng(seed)
    X = _sample_points(npoints, rng)
    checks = {}

    def record(name, fd, exact, tol, f, stencil_l1):
        roundoff = np.finfo(float).eps * stencil_l1 * np.abs(f).max()
        scale = max(np.abs(exact).max(), roundoff / tol, np.finfo(float).tiny)
        dev = float(np.abs(fd - exact).max() / scale)
        checks[name] = {"max_rel_dev": dev, "tol": tol, "passed": dev <= tol}

    wide = 1e-3
    # l1 norms of the central-difference and 7-point Laplacian stencils
    diff_w, lap_w = 1 / step, 12 / wide**2
    if field.arity == 1:
        u = field.value(X)
        if field.gradient is not None:
            record("gradient", _fd_gradient(field.value, X, step), field.gradient(X),
                   rtol, u, diff_w)
        if field.hessian is not None and field.gradient is not None:
            fd = _fd_gradient(field.gradient, X, step)
            record("hessian", np.swapaxes(fd, 1, 2), field.hessian(X), rtol,
                   field.gradient(X), diff_w)
        if field.laplacian is not None:
            record("laplacian", _fd_laplacian(field.value, X, wide),
                   field.laplacian(X), 1e-5, u, lap_w)
        if field.bilaplacian is not None:
            fd = _fd_laplacian(lambda Y: _fd_laplacian(field.value, Y, wide), X, wide)
            record("bilaplacian", fd, field.bilaplacian(X), 1e-5, u, lap_w**2)
    else:
        if field.jacobian is not None:
            fd = _fd_gradient(field.value, X, step)  # fd[:, b, a] = d v_a / d x_b
            record("jacobian", np.swapaxes(fd, 1, 2), field.jacobian(X), rtol,
                   field.value(X), diff_w)

    passed = all(c["passed"] for c in checks.values())
    return {"tag": field.tag, "passed": passed, "checks": checks}


SOURCE_ORACLE_TOL = 1e-5  # what fd_source_residual of a correct source stays below


def fd_source_residual(u_field, f_field, eps, npoints=50, seed=0, step=1e-3):
    """Max relative deviation of f from the nested finite-difference
    eps^2 * Lap(Lap u) - Lap u, over random interior points.

    As in ``fd_validate``, the scale is floored where the stencils'
    roundoff on exact data reaches ``SOURCE_ORACLE_TOL``, so a source that
    vanishes is checked to that roundoff level.
    """
    rng = np.random.default_rng(seed)
    X = _sample_points(npoints, rng)
    lap = _fd_laplacian(u_field.value, X, step)
    bilap = _fd_laplacian(lambda Y: _fd_laplacian(u_field.value, Y, step), X, step)
    fd = eps**2 * bilap - lap
    exact = f_field.value(X)
    lap_w = 12 / step**2  # l1 norm of the 7-point Laplacian stencil
    stencil_l1 = eps**2 * lap_w**2 + lap_w
    roundoff = np.finfo(float).eps * stencil_l1 * np.abs(u_field.value(X)).max()
    scale = max(np.abs(exact).max(), roundoff / SOURCE_ORACLE_TOL, np.finfo(float).tiny)
    return float(np.abs(fd - exact).max() / scale)


def barycentric_monomial_mean(alpha):
    """Exact mean value of prod(lambda_i**alpha_i) over the entity.

    Uses the closed form  d! * prod(alpha_i!) / (|alpha| + d)!  for a
    d-simplex, where the number of barycentric coordinates is d + 1.
    """
    alpha = tuple(int(a) for a in alpha)
    d = len(alpha) - 1
    num = factorial(d)
    for a in alpha:
        num *= factorial(a)
    return num / factorial(sum(alpha) + d)
