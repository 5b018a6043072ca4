"""Linear solvers and the end-to-end decoupled methods.

The generalized Stokes-type stage is a symmetric indefinite block system
with one extra Lagrange multiplier enforcing the zero mean of the
piecewise-constant unknown.  Every production run solves it by an exact
reduction through the discrete complex — one SPD solve for the scalar
potential of the curl-free vector unknown and one consistent curl-curl
solve for the flux — whose result is certified against the residual of
the full block system.  It stays robust as the perturbation parameter
approaches zero.
"""

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
import scipy.sparse.linalg as spla

from . import assembly as asm
from .assembly import ND, P2, PHI, Q, RT, W
from .blas import one_blas_thread
from .fields import AnalyticField
from .interpolate import (
    FeFunction, diff_operator_matrix, nd_interpolant, p1_kuhn_prolongation,
    vertex_interpolant,
)


class SolverFailure(Exception):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or []


SPD_TOL = 1e-12  # CG stops at max(atol, SPD_TOL * ||rhs||)
SPD_MAXITER = 60000
SADDLE_TOL = 1e-10  # of the saddle refinement; its certificate allows ten times it


@dataclass
class SolverConfig:
    """The problem of one table row: eps and the method."""

    eps: float = 1.0
    method: str = "interp"  # "interp" or "nointerp"
    saddle_tol: ClassVar[float] = SADDLE_TOL  # not a field; the benchmark reads it

    def __post_init__(self):
        if isinstance(self.eps, bool) or not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        if self.method not in ("interp", "nointerp"):
            raise ValueError(f"unknown method {self.method!r}")


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


def _pcg(matrix, rhs, atol, M=None):
    """Preconditioned CG stopped at ``max(atol, SPD_TOL * ||rhs||)``.

    ``M`` is a ``VCycle``; without one the solve is Jacobi-preconditioned,
    and a zero diagonal entry of a semidefinite matrix (the flux curl-curl)
    is scaled by one.  CG applies the matrix and the Jacobi scaling as
    plain matvecs.  Returns the iterate and the solve's record: the
    ``preconditioner`` (with a V-cycle's ``VCycle.record``), ``iterations``,
    the true residual ``||rhs - matrix x||``, the stopping ``target`` and the
    stop ``reason``: ``converged``, ``maxiter``, ``zero_rhs``, or ``drifted``
    when CG's recursive residual met the target but the true residual did
    not.
    """
    if M is None:
        diag = matrix.diagonal()
        dinv = np.where(diag > 0, 1.0 / np.maximum(diag, 1e-300), 1.0)
        M = spla.LinearOperator(matrix.shape, matvec=lambda r: dinv * r, dtype=float)
        info = {"preconditioner": "jacobi"}
    else:
        info = M.record()
    target = float(max(atol, SPD_TOL * np.linalg.norm(rhs)))
    if not np.any(rhs):
        record = {**info, "iterations": 0, "residual": 0.0, "target": target,
                  "reason": "zero_rhs"}
        return np.zeros_like(rhs), record
    count = [0]

    def cb(xk):
        count[0] += 1

    x, status = spla.cg(
        spla.LinearOperator(matrix.shape, matvec=matrix.dot, dtype=float), rhs,
        rtol=SPD_TOL, atol=atol, maxiter=SPD_MAXITER, M=M,
        callback=cb,
    )
    residual = float(np.linalg.norm(rhs - matrix @ x))
    if status != 0:
        reason = "maxiter"
    elif residual > target:
        reason = "drifted"
    else:
        reason = "converged"
    record = {**info, "iterations": count[0], "residual": residual,
              "target": target, "reason": reason}
    return x, record


def solve_spd(matrix, rhs, stats=None, atol=0.0, M=None):
    """Solve an SPD system by preconditioned CG.

    CG stops once the residual norm falls below ``max(atol, SPD_TOL *
    ||rhs||)``.  ``M`` is a ``VCycle`` preconditioner; without one the solve
    is Jacobi-preconditioned.  ``stats``, when given a dict, receives the
    solve's record (see ``_pcg``), with a multigrid preconditioner's
    ``levels``, ``coarse_dims`` (the dimension of every level, finest first)
    and ``setup_s``.  A solve stopped at ``SPD_MAXITER`` raises; a drifted
    one does not.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim != 1 or matrix.shape[0] != rhs.size:
        raise ValueError("rhs does not match the matrix")
    if M is None and np.any(matrix.diagonal() <= 0):
        raise SolverFailure("matrix has nonpositive diagonal; not SPD")
    x, record = _pcg(matrix, rhs, atol, M)
    if stats is not None:
        stats.update(record)
    if record["reason"] == "maxiter":
        raise SolverFailure(
            f"CG did not reach rtol {SPD_TOL} in {SPD_MAXITER} iterations",
            residuals=[record["residual"]],
        )
    return x


class VCycle(spla.LinearOperator):
    """Symmetric multigrid V-cycle for an SPD matrix.

    The coarse operators are Galerkin products ``P^T A P`` of the
    transfers, finest first, so the cycle needs no coarse discretization
    and stays robust in eps.  A transfer need not come from a nested mesh:
    the first one of the W potential's and the P2 Poisson cycles maps an
    auxiliary space (the P1 vertex space of the same mesh) into W or P2.
    Each level but the coarsest smooths with
    ``SMOOTHING_STEPS`` Chebyshev steps on the Jacobi-scaled operator before
    and after its coarse correction, over ``[lmax / 30, 1.1 lmax]`` with
    ``lmax`` estimated by Lanczos; the coarsest level is solved by sparse LU.
    Pre- and post-smoothing apply the same polynomial, so the cycle is
    symmetric.  It calls no Krylov solver of its own.
    """

    SMOOTHING_STEPS = 3

    def __init__(self, matrix, transfers):
        t0 = time.perf_counter()
        super().__init__(float, matrix.shape)
        self.transfers = list(transfers)
        self.restrictions = [P.T.tocsr() for P in self.transfers]
        self.ops = [_without_roundoff(matrix)]
        for P, R in zip(self.transfers, self.restrictions):
            coarse = R @ (self.ops[-1] @ P)
            self.ops.append(_without_roundoff(_symmetric_part(coarse)))
        self.inv_diag = [1.0 / A.diagonal() for A in self.ops[:-1]]
        self.bounds = []
        for A, dinv in zip(self.ops[:-1], self.inv_diag):
            lmax = _lanczos_max(A, dinv)
            self.bounds.append((lmax / 30.0, 1.1 * lmax))
        self.coarse_lu = spla.splu(self.ops[-1].tocsc())
        self.info = {"preconditioner": "multigrid", "levels": len(self.ops),
                     "coarse_dims": [A.shape[0] for A in self.ops],
                     "setup_s": time.perf_counter() - t0}

    def record(self):
        """``info`` for one solve.  The set-up time counts once, on the first
        solve that uses the cycle; solves that reuse a cached cycle read
        ``setup_s`` 0.0."""
        info = dict(self.info)
        self.info["setup_s"] = 0.0
        return info

    def _matvec(self, b):
        return self._cycle(0, np.ravel(b))

    def _cycle(self, level, b):
        if level == len(self.transfers):
            return self.coarse_lu.solve(b)
        x, r = self._smooth(level, b, np.zeros_like(b), b.copy())
        x += self.transfers[level] @ self._cycle(level + 1, self.restrictions[level] @ r)
        x, _ = self._smooth(level, b, x, None)
        return x

    def _smooth(self, level, b, x, r):
        """Chebyshev steps from ``x`` with residual ``r`` (computed when
        None); returns the iterate and, for the pre-smoother, its residual."""
        A, dinv = self.ops[level], self.inv_diag[level]
        lo, hi = self.bounds[level]
        pre = r is not None
        if not pre:
            r = b - A @ x
        theta, delta = (hi + lo) / 2, (hi - lo) / 2
        rho = delta / theta
        d = dinv * r / theta
        for step in range(self.SMOOTHING_STEPS):
            x += d
            if step == self.SMOOTHING_STEPS - 1:
                break
            r -= A @ d
            rho_next = 1.0 / (2 * theta / delta - rho)
            d = rho_next * rho * d + (2 * rho_next / delta) * (dinv * r)
            rho = rho_next
        if pre:
            r -= A @ d
        return x, r


def _without_roundoff(A):
    """``A`` without the entries below 1e-12 of ``sqrt(a_ii a_jj)``: sparse
    products of the complex's operators leave cancelled couplings as
    roundoff (a seventh of the W potential's entries at n=16), which only
    slow the cycle's products."""
    A = A.tocsr()
    d = np.sqrt(np.abs(A.diagonal()))
    # at most two entry-sized temporaries at a time besides A: the W
    # potential's matrix has 2.3 M entries at n=16
    scale = np.repeat(1e-12 * d, np.diff(A.indptr))
    scale *= d[A.indices]
    drop = np.abs(A.data) < scale
    del scale
    A = A.copy()
    A.data[drop] = 0.0
    A.eliminate_zeros()
    return A


LANCZOS_STEPS = 15  # per level of the V-cycle, for its Chebyshev bounds


def _lanczos_max(A, inv_diag):
    """Largest eigenvalue of the Jacobi-scaled ``A`` by ``LANCZOS_STEPS``
    Lanczos steps from a fixed start vector (a lower estimate, close at the
    top)."""
    scale = np.sqrt(inv_diag)
    v = np.random.default_rng(0).standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    v_prev, beta = np.zeros_like(v), 0.0
    alphas, betas = [], []
    for _ in range(min(LANCZOS_STEPS, A.shape[0])):
        w = scale * (A @ (scale * v)) - beta * v_prev
        alpha = w @ v
        w -= alpha * v
        beta = np.linalg.norm(w)
        alphas.append(alpha)
        betas.append(beta)
        if beta == 0.0:
            break
        v_prev, v = v, w / beta
    T = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
    return float(np.linalg.eigvalsh(T)[-1])


def solve_saddle(A, rhs_phi, level):
    """Solve the symmetric indefinite block system

        [ A    0   C   0 ] [phi]   [rhs_phi]
        [ 0    0  -D   e ] [lam] = [0]
        [ C^T -D^T 0   0 ] [p  ]   [0]
        [ 0   e^T  0   0 ] [nu ]   [0]

    where C = K^T M_rt for both methods (K the level's ``curl``; the edge
    interpolant keeps the edge DoFs that fix the curl), D = diag(|T|) div
    and e = |T| (zero-mean constraint on lam), applied as products of the
    complex's operators, never formed.  Returns (phi, lam, p, nu, info).

    The solve is an exact reduction through the discrete complex (the
    kernel of the coupling is the gradient range).  The multiplier block
    vanishes for the exact solution, the flux is solenoidal and the vector
    unknown is a discrete gradient, so the system splits into one SPD
    problem for the scalar potential of the vector unknown and one
    consistent curl-curl problem for the flux.  The candidate is certified
    by the residual of the full block system, so correctness never rests on
    the reduction argument alone.

    Every operator that does not depend on eps -- the RT mass, the complex's
    operators, their transposes, the flux curl-curl, the projection Laplacian
    and, where ``_takes_multigrid``, the potential's V-cycle transfers -- is
    read from ``level`` (``build_spaces``), so the solves of a level form
    them once.  Only the potential matrix ``G^T A G`` depends on eps.  The
    refinement measures at most four residuals, after three corrections.
    """
    t0 = time.perf_counter()
    G, Gt = level["grad"], level["grad_t"]
    Ared = _symmetric_part(_sorted(Gt @ (A @ G)))
    # the other operators after Ared: on a level's first solve the products
    # that form Z then do not overlap those of Ared (the n=32 peak)
    K, Mrt, div, Knd, Gnd, Gnd_t, Z, L = (
        level[kind]
        for kind in ("curl", "rt_mass", "div", "curl_nd", "grad_nd", "grad_nd_t",
                     "flux_curl_curl", "projection_laplacian")
    )
    vols = asm.q_weights(level.mesh)
    multigrid = _takes_multigrid(level.mesh)  # else Jacobi
    nd_dim = Knd.shape[1]
    nphi, nrt, nq = A.shape[0], Mrt.shape[0], vols.size

    phi = np.zeros(nphi)
    p = np.zeros(nrt)
    M = None
    bnorm = np.linalg.norm(rhs_phi)
    # every inner solve stops at the outer problem's scale as well as
    # relative to its own right-hand side
    atol = SPD_TOL * (1.0 + bnorm)
    residuals = []
    krylov = []
    for sweep in range(1, 5):
        r_phi = rhs_phi - A @ phi - K.T @ (Mrt @ p)
        res = float(np.linalg.norm(r_phi) / (1.0 + bnorm))
        residuals.append(res)
        if res <= SADDLE_TOL:
            break
        if sweep == 4:
            raise SolverFailure(
                f"reduced saddle refinement stalled at residual {res:.3e}"
                + _maxiter_note(krylov),
                residuals,
            )
        potential, projection = {}, {}
        if M is None and multigrid:
            M = VCycle(Ared, level["w_transfers"])
        w = solve_spd(Ared, Gt @ r_phi, stats=potential, atol=atol, M=M)
        dphi = G @ w
        r_e = (r_phi - A @ dphi)[:nd_dim]
        # the solver tolerance of the potential step leaves a tiny component
        # in the gradient directions; remove it so the flux system is
        # consistent for CG
        z = solve_spd(L, Gnd_t @ r_e, stats=projection, atol=atol)
        r_e = r_e - Gnd @ z
        # a flux solve stopped at maxiter does not raise: the certificate
        # decides on it
        y, flux = _pcg(Z, r_e, atol)
        for stage, record in (
            ("potential", potential), ("projection", projection), ("flux", flux)
        ):
            krylov.append({"stage": stage, "sweep": sweep, **record})
        phi = phi + dphi
        p = p + Knd @ y

    # certify against the full block system, not just the phi rows: with
    # lam = 0 and nu = 0 the other rows' residuals are D p and C^T phi
    lam = np.zeros(nq)
    full_res = float(
        np.sqrt(
            np.linalg.norm(r_phi) ** 2
            + np.linalg.norm(vols * (div @ p)) ** 2
            + np.linalg.norm(Mrt @ (K @ phi)) ** 2
        )
        / (1.0 + bnorm)
    )
    if full_res > 10 * SADDLE_TOL:
        raise SolverFailure(
            f"reduced saddle certificate failed: residual {full_res:.3e}"
            + _maxiter_note(krylov),
            residuals + [full_res],
        )
    info = {
        "mode": "reduced",
        "factor_seconds": time.perf_counter() - t0,
        "residuals": residuals + [full_res],
        "dim": nphi + nq + nrt + 1,
        "krylov": krylov,
    }
    return phi, lam, p, 0.0, info


def _sorted(M):
    """``M`` (a CSR product) with its column indices sorted in place: the
    order a CSC -> CSR conversion leaves, on which the bits of every later
    product with ``M`` depend."""
    M.sort_indices()
    return M


def _symmetric_part(M):
    """``(M + M.T) / 2`` in arrays of its own size: a scipy sum keeps the
    buffers it allocates for ``nnz(M) + nnz(M.T)`` entries, twice what a
    matrix with a symmetric pattern needs."""
    M = M + M.T
    M.data *= 0.5
    return M.copy()


def _maxiter_note(krylov):
    hits = [f"{r['stage']} (sweep {r['sweep']})" for r in krylov
            if r["reason"] == "maxiter"]
    return f"; inner solves stopped at maxiter: {', '.join(hits)}" if hits else ""


SPACES = (P2, ND, RT, Q, PHI, W)


class Level(dict):
    """One mesh level: its six DofMaps by space tag, and every eps-free
    object of the level, built on its first lookup and kept under its kind:
    a form (``assemble_bilinear``), an operator of the complex
    (``diff_operator_matrix``) or one of the ``_LEVEL_KINDS``."""

    def __init__(self, mesh):
        super().__init__((s, asm.build_dof_map(s, mesh)) for s in SPACES)
        self.mesh = mesh

    def __missing__(self, kind):
        if kind in asm.FORM_KINDS:
            found = asm.assemble_bilinear(kind, self.mesh, self).matrix
        elif kind in _LEVEL_KINDS:
            found = _LEVEL_KINDS[kind](self)
        else:
            found = diff_operator_matrix(kind, self)
        self[kind] = found
        return found


def build_spaces(mesh):
    """The ``Level`` of ``mesh``: all six DofMaps, and its eps-free objects
    on demand."""
    return Level(mesh)


# eps-free objects of a level besides its forms and the complex's operators:
# kind -> its build from the level ``lv``
_LEVEL_KINDS = {
    "grad_t": lambda lv: lv["grad"].T.tocsr(),
    # the blocks on the Nedelec space ND: ND numbers the edge DoFs of Phi,
    # which come first, and P2 the vertex and edge DoFs of W, which come
    # first too (build_dof_map)
    "grad_nd": lambda lv: lv["grad"][: lv[ND].dim, : lv[P2].dim],
    "curl_nd": lambda lv: lv["curl"][:, : lv[ND].dim],
    "grad_nd_t": lambda lv: lv["grad_nd"].T.tocsr(),
    # the flux curl-curl K_nd^T M_rt K_nd; K_nd^T serves only here, so the
    # level does not keep it (28 MB at n=32)
    "flux_curl_curl": lambda lv: _symmetric_part(
        _sorted(lv["curl_nd"].T.tocsr() @ (lv["rt_mass"] @ lv["curl_nd"]))
    ),
    # the graph Laplacian G_nd^T G_nd of the gradient range
    "projection_laplacian": lambda lv: _sorted(lv["grad_nd_t"] @ lv["grad_nd"]),
    # the V-cycles' transfers on a Kuhn cube, finest first: from the P1 vertex
    # space of the same mesh (an auxiliary space that carries the W
    # potential's slowest modes and is the exact P1 subspace of P2), then one
    # chain of P1 prolongations down the Kuhn hierarchy that both cycles share
    "p1_prolongations": lambda lv: tuple(
        p1_kuhn_prolongation(n) for n in _kuhn_levels(lv.mesh.kuhn_n)[:-1]
    ),
    "w_transfers": lambda lv: (vertex_interpolant(lv[W]),) + lv["p1_prolongations"],
    "p2_transfers": lambda lv: (vertex_interpolant(lv[P2]),) + lv["p1_prolongations"],
    # the P2 Poisson matrix depends on neither eps nor the method, so both
    # Poisson stages of every solve on the level share one cycle
    "p2_cycle": lambda lv: VCycle(lv["poisson_p2"], lv["p2_transfers"]),
}


def _kuhn_levels(n):
    """The Kuhn hierarchy n, n/2, ..., halving while n is even and above 2."""
    levels = [n]
    while levels[-1] % 2 == 0 and levels[-1] > 2:
        levels.append(levels[-1] // 2)
    return levels


def _takes_multigrid(mesh):
    """Whether the P2 Poisson and W potential solves on ``mesh`` are
    preconditioned by their V-cycles: on a Kuhn cube with n >= 16, for every
    eps (README, "Determinism and performance").  Below that size the
    cycles gain little, and a cold single solve such as the n=8 layer case
    lost with the W cycle forced, because it pays the set-up for one solve.
    """
    n = mesh.kuhn_n
    return n is not None and n >= 16


def _stage(label, t0, solve, *args, **kwargs):
    """``solve(*args, **kwargs)`` and the seconds since ``t0``; a
    ``SolverFailure`` is raised again with ``label`` in front."""
    try:
        result = solve(*args, **kwargs)
    except SolverFailure as exc:
        raise SolverFailure(f"{label}: {exc}", exc.residuals) from exc
    return result, time.perf_counter() - t0


@one_blas_thread()
def decoupled_solve(f_field, mesh, config, level, forms=None):
    """Run the four decoupled stages for source ``f_field``, on one BLAS
    thread, so that the solution does not depend on the thread count.

    Stage 1 and 4 are quadratic-Lagrange Poisson solves sharing one
    stiffness matrix; stage 2/3 is the saddle system for the vector
    unknown, the multiplier and the flux.  With ``method='interp'`` the
    mass term and the loads pass the vector argument through the local edge
    interpolation onto the linear tangential element (the coupling is the
    same for both methods).  ``level`` is the ``build_spaces`` of ``mesh``,
    shared by the solves on it; ``forms`` maps form kinds to forms a caller
    assembled up front, which the level adopts where it has none of its own.
    """
    if not isinstance(f_field, AnalyticField):
        raise TypeError("f_field must be an AnalyticField")
    if level.mesh is not mesh:
        raise asm.AssemblyError("the level is built on a different mesh")
    t_start = time.perf_counter()
    for kind, form in (forms or {}).items():
        level.setdefault(kind, form.matrix)

    S = level["poisson_p2"]
    b_f = asm.assemble_load("f_vs_p2", level, f_field)
    poisson_w = {}
    t0 = time.perf_counter()
    S_cycle = level["p2_cycle"] if _takes_multigrid(mesh) else None
    w, t_w = _stage("stage 1 (poisson w)", t0, solve_spd, S, b_f,
                    stats=poisson_w, M=S_cycle)
    w_h = FeFunction(level[P2], w)

    interp = config.method == "interp"
    stiff = level["phi_stiffness"]
    mass = level["ind_mass" if interp else "phi_mass"]
    # copied so that it holds only its own entries (see _symmetric_part)
    A = ((config.eps**2) * stiff + mass).copy()
    rhs_phi = asm.assemble_load(
        "gradw_vs_indphi" if interp else "gradw_vs_phi", level, w_h
    )
    (phi, lam, p, nu, saddle_info), t_saddle = _stage(
        "stage 2 (saddle)", time.perf_counter(), solve_saddle, A, rhs_phi, level,
    )
    phi_h = FeFunction(level[PHI], phi)
    lambda_h = FeFunction(level[Q], lam)
    p_h = FeFunction(level[RT], p)

    b_u = asm.assemble_load(
        "indphi_vs_gradp2" if interp else "phi_vs_gradp2", level, phi_h
    )
    poisson_u = {}
    u, t_u = _stage("stage 4 (poisson u)", time.perf_counter(), solve_spd, S, b_u,
                    stats=poisson_u, M=S_cycle)
    u_h = FeFunction(level[P2], u)

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
        "dims": {s: level[s].dim for s in SPACES},
    }
    sol.diagnostics["identities"] = solution_identity_norms(sol, level)
    return sol


def solution_identity_norms(sol, level):
    """L2-type norms of the algebraic identities the solution must satisfy.

    Returns absolute norms together with the data scale used by checks:
    with the interpolated method the multiplier vanishes, the flux is
    solenoidal, the edge interpolant of the vector unknown is the gradient
    of the scalar solve, and the vector unknown is curl-free.  The
    operators and forms come from ``level``, the solve's ``build_spaces``.
    """
    vols = asm.q_weights(level.mesh)

    lam_norm = float(np.sqrt(vols @ sol.lambda_h.coeffs**2))
    divp = level["div"] @ sol.p_h.coeffs
    divp_norm = float(np.sqrt(vols @ divp**2))

    curlphi = level["curl"] @ sol.phi_h.coeffs
    Mrt = level["rt_mass"]
    curl_norm = float(np.sqrt(curlphi @ (Mrt @ curlphi)))

    grad_nd = level["grad_nd"]
    delta = nd_interpolant(sol.phi_h).coeffs - grad_nd @ sol.u_h.coeffs
    Mnd = level["ind_mass"]
    lifted = np.zeros(level[PHI].dim)
    lifted[: delta.size] = delta
    ind_grad_norm = float(np.sqrt(lifted @ (Mnd @ lifted)))

    coeff_norms = [np.linalg.norm(fe.coeffs) for fe in (sol.phi_h, sol.w_h, sol.u_h)]
    scale = float(max(*coeff_norms, 1e-30))
    return {
        "lambda_l2": lam_norm,
        "div_p_l2": divp_norm,
        "curl_phi_l2": curl_norm,
        "ind_phi_minus_grad_u_l2": ind_grad_norm,
        "scale": scale,
    }


def gradient_range_residual(phi, level):
    """How far the Phi coefficients ``phi`` lie from the range of the W
    gradient: the least-squares residual ``||grad w - phi|| / (1 + ||phi||)``.
    The operators come from ``level``, as in ``solution_identity_norms``."""
    grad, grad_t = level["grad"], level["grad_t"]
    gram = (grad_t @ grad).tocsc()
    w = spla.spsolve(gram, grad_t @ phi)
    return float(np.linalg.norm(grad @ w - phi) / (1.0 + np.linalg.norm(phi)))
