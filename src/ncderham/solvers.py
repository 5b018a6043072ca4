"""Linear solvers and the end-to-end decoupled methods.

The generalized Stokes-type stage is a symmetric indefinite block system
with one extra Lagrange multiplier enforcing the zero mean of the
piecewise-constant unknown.  Every production run solves it by an exact
reduction through the discrete complex — one SPD solve for the scalar
potential of the curl-free vector unknown and one consistent curl-curl
solve for the flux — whose result is certified against the residual of
the full block system.  A monolithic sparse LU (symmetric diagonal
equilibration and iterative refinement) remains as a small-mesh oracle.
Both stay robust as the perturbation parameter approaches zero.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly as asm
from .assembly import ND, P2, PHI, Q, RT, W
from .fields import AnalyticField
from .interpolate import FeFunction, diff_operator_matrix


class SolverFailure(Exception):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or []


@dataclass
class SolverConfig:
    eps: float = 1.0
    method: str = "interp"  # "interp" or "nointerp"
    spd_tol: float = 1e-12
    spd_maxiter: int = 60000
    saddle_tol: float = 1e-10
    saddle_mode: str = "reduced"  # "reduced", or "direct" for the LU oracle

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
        if self.method not in ("interp", "nointerp"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.saddle_mode not in ("reduced", "direct"):
            raise ValueError(f"unknown saddle mode {self.saddle_mode!r}")
        for tol in (self.spd_tol, self.saddle_tol):
            if not 0 < tol < 1:
                raise ValueError(f"tolerances must lie in (0, 1), got {tol}")


@dataclass
class ReductionOperators:
    """Exact operator matrices the structure-exploiting saddle solve uses:
    the gradient (scalar-to-vector), the curl on the tangential space, the
    nodal gradient into the tangential space, and the flux-space mass."""

    grad: object  # (n_phi, n_w)
    curl_nd: object  # (n_rt, n_nd)
    grad_nd: object  # (n_nd, n_p2)
    rt_mass: object  # (n_rt, n_rt)


@dataclass
class DecoupledSolution:
    w_h: FeFunction
    phi_h: FeFunction
    p_h: FeFunction
    lambda_h: FeFunction
    u_h: FeFunction
    eps: float
    method: str
    diagnostics: dict = field(default_factory=dict)


def _jacobi_cg(matrix, rhs, config, M, atol):
    """Preconditioned CG stopped at ``max(atol, spd_tol * ||rhs||)``.

    Returns the iterate and the solve's record: ``iterations``, the true
    residual ``||rhs - matrix x||``, the stopping ``target`` and the stop
    ``reason``: ``converged``, ``maxiter``, ``zero_rhs``, or ``drifted`` when
    CG's recursive residual met the target but the true residual did not.
    """
    target = float(max(atol, config.spd_tol * np.linalg.norm(rhs)))
    if not np.any(rhs):
        record = {"iterations": 0, "residual": 0.0, "target": target,
                  "reason": "zero_rhs"}
        return np.zeros_like(rhs), record
    count = [0]

    def cb(xk):
        count[0] += 1

    x, info = spla.cg(
        matrix, rhs, rtol=config.spd_tol, atol=atol,
        maxiter=config.spd_maxiter, M=M, callback=cb,
    )
    residual = float(np.linalg.norm(rhs - matrix @ x))
    if info != 0:
        reason = "maxiter"
    elif residual > target:
        reason = "drifted"
    else:
        reason = "converged"
    record = {"iterations": count[0], "residual": residual, "target": target,
              "reason": reason}
    return x, record


def solve_spd(matrix, rhs, config=None, stats=None, atol=0.0):
    """Solve an SPD system by Jacobi-preconditioned CG.

    CG stops once the residual norm falls below ``max(atol, spd_tol *
    ||rhs||)``.  ``stats``, when given a dict, receives the solve's record
    (see ``_jacobi_cg``).  A solve stopped at ``spd_maxiter`` raises; a
    drifted one does not.
    """
    config = config or SolverConfig()
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim != 1 or matrix.shape[0] != rhs.size:
        raise ValueError("rhs does not match the matrix")
    diag = matrix.diagonal()
    if np.any(diag <= 0):
        raise SolverFailure("matrix has nonpositive diagonal; not SPD")
    x, record = _jacobi_cg(matrix, rhs, config, sp.diags(1.0 / diag), atol)
    if stats is not None:
        stats.update(record)
    if record["reason"] == "maxiter":
        raise SolverFailure(
            f"CG did not reach rtol {config.spd_tol} in {config.spd_maxiter} iterations",
            residuals=[record["residual"]],
        )
    return x


def _equilibrate(K):
    """Symmetric diagonal scaling by inverse square roots of row maxima."""
    absK = abs(K)
    rowmax = np.asarray(absK.max(axis=1).todense()).ravel()
    rowmax[rowmax == 0] = 1.0
    s = 1.0 / np.sqrt(rowmax)
    S = sp.diags(s)
    return (S @ K @ S).tocsc(), s


def solve_saddle(A, C, D, cell_measures, rhs_phi, config=None, reduction=None):
    """Solve the symmetric indefinite block system

        [ A    0   C   0 ] [phi]   [rhs_phi]
        [ 0    0  -D   e ] [lam] = [0]
        [ C^T -D^T 0   0 ] [p  ]   [0]
        [ 0   e^T  0   0 ] [nu ]   [0]

    where e holds the cell measures (zero-mean constraint on lam).
    Returns (phi, lam, p, nu, info).

    ``reduced``, the production route, exploits the exactness of the
    discrete complex (the kernel of the coupling is the gradient range): it
    solves one SPD system for the curl-free part and one consistent
    semidefinite system for the flux, then certifies the candidate by
    measuring the residual of the full block system, so correctness never
    rests on the reduction argument alone.  ``direct`` factors the
    assembled block matrix (sparse LU with symmetric equilibration and
    iterative refinement); its fill grows prohibitively on larger 3D
    meshes, so it serves only as a small-mesh oracle.
    """
    config = config or SolverConfig()
    if config.saddle_mode == "reduced":
        if reduction is None:
            raise SolverFailure("reduced saddle mode needs reduction operators")
        return _solve_saddle_reduced(A, C, D, cell_measures, rhs_phi, config, reduction)
    return _solve_saddle_direct(A, C, D, cell_measures, rhs_phi, config)


def _solve_saddle_direct(A, C, D, cell_measures, rhs_phi, config):
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
    for _ in range(3):
        r = b - K @ x
        res = float(np.linalg.norm(r) / (1.0 + bnorm))
        residuals.append(res)
        if res <= config.saddle_tol:
            break
        x = x + s * lu.solve(s * r)
    else:
        r = b - K @ x
        res = float(np.linalg.norm(r) / (1.0 + bnorm))
        residuals.append(res)
        if res > config.saddle_tol:
            raise SolverFailure(
                f"saddle refinement stalled at residual {res:.3e}", residuals
            )
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


def _solve_saddle_reduced(A, C, D, cell_measures, rhs_phi, config, red):
    """Complex-based exact reduction with a full-system residual certificate.

    The multiplier block vanishes for the exact solution, the flux is
    solenoidal, and the vector unknown is a discrete gradient, so the
    system splits into (a) an SPD problem for the scalar potential of the
    vector unknown and (b) a consistent curl-curl problem for the flux.
    """
    t0 = time.perf_counter()
    G = red.grad
    Knd = red.curl_nd
    nd_dim = Knd.shape[1]
    nphi = A.shape[0]
    nq = D.shape[0]

    Ared = (G.T @ (A @ G)).tocsr()
    Ared = ((Ared + Ared.T) * 0.5).tocsr()
    Z = (Knd.T @ (red.rt_mass @ Knd)).tocsr()
    Z = ((Z + Z.T) * 0.5).tocsr()
    Gnd = red.grad_nd
    L = (Gnd.T @ Gnd).tocsr()  # graph Laplacian of the gradient range

    phi = np.zeros(nphi)
    p = np.zeros(C.shape[1])
    bnorm = np.linalg.norm(rhs_phi)
    # every inner solve stops at the outer problem's scale as well as
    # relative to its own right-hand side
    atol = config.spd_tol * (1.0 + bnorm)
    residuals = []
    krylov = []
    for sweep in range(1, 5):
        r_phi = rhs_phi - A @ phi - C @ p
        res = float(np.linalg.norm(r_phi) / (1.0 + bnorm))
        residuals.append(res)
        if res <= config.saddle_tol:
            break
        potential, projection = {}, {}
        w = solve_spd(Ared, G.T @ r_phi, config, stats=potential, atol=atol)
        dphi = G @ w
        r_e = (r_phi - A @ dphi)[:nd_dim]
        # the solver tolerance of the potential step leaves a tiny component
        # in the gradient directions; remove it so the flux system is
        # consistent for CG
        z = solve_spd(L, Gnd.T @ r_e, config, stats=projection, atol=atol)
        r_e = r_e - Gnd @ z
        y, flux = _solve_consistent(Z, r_e, config, atol)
        for stage, record in (
            ("potential", potential), ("projection", projection), ("flux", flux)
        ):
            krylov.append({"stage": stage, "sweep": sweep, **record})
        phi = phi + dphi
        p = p + Knd @ y
    else:
        raise SolverFailure(
            f"reduced saddle refinement stalled at residual {residuals[-1]:.3e}"
            + _maxiter_note(krylov),
            residuals,
        )

    # certify against the full block system, not just the phi rows
    lam = np.zeros(nq)
    r_lam = D @ p - 0.0  # nu = 0
    r_p = C.T @ phi - D.T @ lam
    full_res = float(
        np.sqrt(
            np.linalg.norm(rhs_phi - A @ phi - C @ p) ** 2
            + np.linalg.norm(r_lam) ** 2
            + np.linalg.norm(r_p) ** 2
        )
        / (1.0 + bnorm)
    )
    if full_res > 10 * config.saddle_tol:
        raise SolverFailure(
            f"reduced saddle certificate failed: residual {full_res:.3e}"
            + _maxiter_note(krylov),
            residuals + [full_res],
        )
    info = {
        "mode": "reduced",
        "factor_seconds": time.perf_counter() - t0,
        "residuals": residuals + [full_res],
        "dim": nphi + nq + C.shape[1] + 1,
        "krylov": krylov,
    }
    return phi, lam, p, 0.0, info


def _maxiter_note(krylov):
    hits = [f"{r['stage']} (sweep {r['sweep']})" for r in krylov
            if r["reason"] == "maxiter"]
    return f"; inner solves stopped at maxiter: {', '.join(hits)}" if hits else ""


def _solve_consistent(Z, b, config, atol):
    """CG for a consistent positive-semidefinite system (flux curl-curl).

    A solve that hits ``spd_maxiter`` is returned with reason ``maxiter``;
    the full-block certificate of the saddle stage decides on it.
    """
    diag = Z.diagonal()
    M = sp.diags(np.where(diag > 0, 1.0 / np.maximum(diag, 1e-300), 1.0))
    return _jacobi_cg(Z, b, config, M, atol)


def build_spaces(mesh):
    """All six DofMaps on one mesh."""
    return {s: asm.build_dof_map(s, mesh) for s in (P2, ND, RT, Q, PHI, W)}


def _level_matrix(kind, mesh, dofmaps, cache):
    """Matrix of a bilinear form or an exact operator on one level, built
    once per ``cache`` dict (keyed by form or operator kind)."""
    if kind not in cache:
        if kind in asm.FORM_KINDS:
            cache[kind] = asm.assemble_bilinear(kind, mesh, dofmaps)
        else:
            cache[kind] = diff_operator_matrix(kind, dofmaps)
    return cache[kind].matrix


def decoupled_solve(f_field, mesh, config, dofmaps=None, forms=None):
    """Run the four decoupled stages for source ``f_field``.

    Stage 1 and 4 are quadratic-Lagrange Poisson solves sharing one
    stiffness matrix; stage 2/3 is the saddle system for the vector
    unknown, the multiplier and the flux.  With ``method='interp'`` the
    mass and coupling terms pass the vector argument through the local
    edge interpolation onto the linear tangential element.
    """
    if not isinstance(f_field, AnalyticField):
        raise TypeError("f_field must be an AnalyticField")
    t_start = time.perf_counter()
    dofmaps = dofmaps or build_spaces(mesh)
    forms = forms if forms is not None else {}

    S = _level_matrix("poisson_p2", mesh, dofmaps, forms)
    b_f = asm.assemble_load("f_vs_p2", mesh, dofmaps, f_field)
    poisson_w = {}
    t0 = time.perf_counter()
    try:
        w = solve_spd(S, b_f, config, stats=poisson_w)
    except SolverFailure as exc:
        raise SolverFailure(f"stage 1 (poisson w): {exc}", exc.residuals) from exc
    t_w = time.perf_counter() - t0
    w_h = FeFunction(dofmaps[P2], w)

    interp = config.method == "interp"
    stiff = _level_matrix("phi_stiffness", mesh, dofmaps, forms)
    mass = _level_matrix("ind_mass" if interp else "phi_mass", mesh, dofmaps, forms)
    A = (config.eps**2) * stiff + mass
    C = _level_matrix(
        "curl_coupling" if interp else "curl_coupling_plain", mesh, dofmaps, forms
    )
    D = _level_matrix("div_coupling", mesh, dofmaps, forms)
    rhs_phi = asm.assemble_load(
        "gradw_vs_indphi" if interp else "gradw_vs_phi", mesh, dofmaps, w_h
    )
    vols = asm.q_weights(mesh)
    reduction = ReductionOperators(
        grad=_level_matrix("grad", mesh, dofmaps, forms),
        curl_nd=_level_matrix("curl_nd", mesh, dofmaps, forms),
        grad_nd=_level_matrix("grad_nd", mesh, dofmaps, forms),
        rt_mass=_level_matrix("rt_mass", mesh, dofmaps, forms),
    )
    t0 = time.perf_counter()
    try:
        phi, lam, p, nu, saddle_info = solve_saddle(
            A, C, D, vols, rhs_phi, config, reduction=reduction
        )
    except SolverFailure as exc:
        raise SolverFailure(f"stage 2 (saddle): {exc}", exc.residuals) from exc
    t_saddle = time.perf_counter() - t0
    phi_h = FeFunction(dofmaps[PHI], phi)
    lambda_h = FeFunction(dofmaps[Q], lam)
    p_h = FeFunction(dofmaps[RT], p)

    b_u = asm.assemble_load(
        "indphi_vs_gradp2" if interp else "phi_vs_gradp2", mesh, dofmaps, phi_h
    )
    poisson_u = {}
    t0 = time.perf_counter()
    try:
        u = solve_spd(S, b_u, config, stats=poisson_u)
    except SolverFailure as exc:
        raise SolverFailure(f"stage 4 (poisson u): {exc}", exc.residuals) from exc
    t_u = time.perf_counter() - t0
    u_h = FeFunction(dofmaps[P2], u)

    sol = DecoupledSolution(
        w_h=w_h, phi_h=phi_h, p_h=p_h, lambda_h=lambda_h, u_h=u_h,
        eps=config.eps, method=config.method,
    )
    sol.diagnostics = {
        "stage_seconds": {"w": t_w, "saddle": t_saddle, "u": t_u},
        "total_seconds": time.perf_counter() - t_start,
        "saddle": saddle_info,
        "krylov": [
            {"stage": "poisson_w", "sweep": None, **poisson_w},
            *saddle_info["krylov"],
            {"stage": "poisson_u", "sweep": None, **poisson_u},
        ],
        "multiplier_nu": nu,
        "dims": {s: dofmaps[s].dim for s in dofmaps},
    }
    sol.diagnostics["identities"] = solution_identity_norms(sol, dofmaps, forms)
    return sol


def solution_identity_norms(sol, dofmaps, forms=None):
    """L2-type norms of the algebraic identities the solution must satisfy.

    Returns absolute norms together with the data scale used by checks:
    with the interpolated method the multiplier vanishes, the flux is
    solenoidal, the edge interpolant of the vector unknown is the gradient
    of the scalar solve, and the vector unknown is curl-free.  ``forms`` is
    the level cache of ``decoupled_solve``; without it every matrix is
    built afresh.
    """
    mesh = sol.w_h.dofmap.mesh
    forms = forms if forms is not None else {}
    vols = asm.q_weights(mesh)

    lam_norm = float(np.sqrt(vols @ sol.lambda_h.coeffs**2))
    divp = _level_matrix("div", mesh, dofmaps, forms) @ sol.p_h.coeffs
    divp_norm = float(np.sqrt(vols @ divp**2))

    curlphi = _level_matrix("curl", mesh, dofmaps, forms) @ sol.phi_h.coeffs
    Mrt = _level_matrix("rt_mass", mesh, dofmaps, forms)
    curl_norm = float(np.sqrt(curlphi @ (Mrt @ curlphi)))

    grad_nd = _level_matrix("grad_nd", mesh, dofmaps, forms)
    delta = sol.phi_h.coeffs[: dofmaps[ND].dim] - grad_nd @ sol.u_h.coeffs
    Mnd = _level_matrix("ind_mass", mesh, dofmaps, forms)
    lifted = np.zeros(dofmaps[PHI].dim)
    lifted[: delta.size] = delta
    ind_grad_norm = float(np.sqrt(lifted @ (Mnd @ lifted)))

    scale = float(
        max(
            np.linalg.norm(sol.phi_h.coeffs) if sol.phi_h.coeffs.size else 0.0,
            np.linalg.norm(sol.w_h.coeffs) if sol.w_h.coeffs.size else 0.0,
            np.linalg.norm(sol.u_h.coeffs) if sol.u_h.coeffs.size else 0.0,
            1e-30,
        )
    )
    return {
        "lambda_l2": lam_norm,
        "div_p_l2": divp_norm,
        "curl_phi_l2": curl_norm,
        "ind_phi_minus_grad_u_l2": ind_grad_norm,
        "scale": scale,
    }
