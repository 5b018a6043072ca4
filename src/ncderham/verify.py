"""Numerical certification of the structural properties of the discrete
complex: composition-zero and rank identities, commuting interpolation,
weak continuity across faces, unisolvence, an optional inf-sup constant,
and the algebraic identities of solved systems.  A check of one mesh takes
its level, ``solvers.build_spaces``, and reads the mesh from it."""

import itertools
import json
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.linalg

from . import assembly as asm
from . import elements as el
from . import fields as fl
from . import interpolate as itp
from .assembly import ND, PHI, Q, RT, W
from .interpolate import FeFunction, fe_values
from .mesh import build_mesh_from_tets, mesh_geometry
from .quadrature import TRIANGLE, get_rule
from .solvers import gradient_range_residual, solution_identity_norms

RANK_TOL = 1e-8  # singular values below RANK_TOL * the largest count as zero
COMMUTING_TOL = 1e-10
WEAK_CONTINUITY_TOL = 1e-10
COND_LIMIT = 1e9  # largest condition number of an element's DoF matrix
INFSUP_EPS = (1.0, 1e-3, 1e-6)  # the perturbation parameters of the inf-sup tier
INFSUP_FLOOR = 1e-8  # an inf-sup constant at or below it counts as zero
IDENTITY_RTOL = 1e-8  # of a solved system's identities, relative to its scale
WEAK_CONTINUITY_SAMPLES = 20  # random coefficient vectors per mesh
UNISOLVENCE_TETS = 100  # random shape-regular tets


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: value={self.value:.3e} tol={self.tolerance:.1e} {self.detail}"


@dataclass
class CertificationReport:
    checks: list = field(default_factory=list)
    seconds: float = None  # wall time; None when timings are suppressed

    def add(self, name, passed, value, tolerance, detail=""):
        self.checks.append(
            CheckResult(name, bool(passed), float(value), float(tolerance), detail)
        )

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_text(self):
        lines = [c.line() for c in self.checks]
        verdict = "ALL CHECKS PASSED" if self.passed else "CHECK FAILURES PRESENT"
        timing = "" if self.seconds is None else f", {self.seconds:.2f}s"
        lines.append(f"{verdict} ({len(self.checks)} checks{timing})")
        return "\n".join(lines) + "\n"

    def to_json(self):
        payload = {
            "passed": self.passed,
            "seconds": self.seconds,
            "checks": [asdict(c) for c in self.checks],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def face_jump_means(fe):
    """Integral of the jump of a piecewise field over each interior face.

    Returns (n_interior_faces, arity) integrals computed with triangle
    quadrature from both adjacent elements.
    """
    mesh = fe.dofmap.mesh
    ids = np.flatnonzero(~mesh.boundary_face)
    rule = get_rule(TRIANGLE, 6)
    tri = mesh.vertices[mesh.faces[ids]]
    areas = 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1
    )

    sides = []
    for s in range(2):
        tids = mesh.face_to_tets[ids, s]
        lf = np.argmax(mesh.tet_to_faces[tids] == ids[:, None], axis=1)
        fverts = mesh.tet_face_vertices[tids, lf]  # (nf, 3) local indices
        bary = el.embed_rule(rule, fverts[:, None])[:, 0]
        vals = fe_values(fe, bary, tids)
        sides.append(np.einsum("q,tq...->t...", rule.weights, vals))
    return (sides[0] - sides[1]) * areas.reshape((-1,) + (1,) * (sides[0].ndim - 1))


def check_complex(level, report=None):
    """Composition-zero, injectivity/rank and exactness counts (dense)."""
    report = report if report is not None else CertificationReport()
    if level[PHI].dim > 2000:
        raise MemoryError(
            "dense rank checks are limited to small meshes (n <= 2); "
            "use a coarser level"
        )
    grad, curl, div = (level[k] for k in ("grad", "curl", "div"))

    cg = abs(curl @ grad).max() if grad.shape[1] else 0.0
    dc = abs(div @ curl).max() if curl.shape[1] else 0.0
    report.add("complex.curl_grad_zero", cg <= 1e-12, float(cg), 1e-12)
    report.add("complex.div_curl_zero", dc <= 1e-12, float(dc), 1e-12)

    nv, ne, nf = level.mesh.interior_counts()

    def rank(mat):
        if min(mat.shape) == 0:
            return 0
        sv = np.linalg.svd(mat.toarray(), compute_uv=False)
        return int(np.sum(sv > RANK_TOL * sv[0]))

    r_grad = rank(grad)
    report.add(
        "complex.grad_injective",
        r_grad == level[W].dim,
        float(r_grad),
        float(level[W].dim),
        detail=f"rank(grad)={r_grad}, dim W_h={level[W].dim}",
    )
    r_curl = rank(curl)
    expected_curl = ne - nv
    report.add(
        "complex.rank_curl_euler",
        r_curl == expected_curl,
        float(r_curl),
        float(expected_curl),
        detail=f"rank(curl)={r_curl}, |E_int|-|V_int|={expected_curl}",
    )
    r_div = rank(div)
    report.add(
        "complex.div_onto_zero_mean",
        r_div == level[Q].dim - 1,
        float(r_div),
        float(level[Q].dim - 1),
    )
    nullity_div = level[RT].dim - r_div
    report.add(
        "complex.exactness_at_rt",
        nullity_div == r_curl,
        float(nullity_div),
        float(r_curl),
        detail=f"nullity(div)={nullity_div}, rank(curl)={r_curl}",
    )
    return report


def _monomial(alpha):
    """Global polynomial x^a y^b z^c for alpha = (a, b, c)."""
    return fl.product_field(
        "mono", [fl.polynomial_factor([0] * a + [1]) for a in alpha]
    )


def _p3_alphas():
    return [alpha for alpha in itertools.product(range(4), repeat=3) if sum(alpha) <= 3]


def _rel_dev(lhs, rhs):
    """Largest deviation of lhs from rhs relative to max(|rhs|, 1)."""
    return float(np.abs(lhs - rhs).max() / max(np.abs(rhs).max(), 1.0))


def check_commuting(level, report=None):
    """Per-element DoF identities for a basis of cubic test fields.

    grad route: the Phi DoFs of the gradient of the locally interpolated
    scalar equal the Phi DoFs of the analytic gradient.  curl route: the
    RT DoFs of the curl of the locally interpolated vector equal the RT
    DoFs of the analytic curl.  The edge restriction of the interpolant
    coincides with the canonical tangential interpolant.
    """
    report = report if report is not None else CertificationReport()
    tol = COMMUTING_TOL
    geom = mesh_geometry(level.mesh)
    Cw = el.nodal_coefficients(el.W_NC, geom)
    Cphi = el.nodal_coefficients(el.PHI_NC, geom)

    # Phi DoFs applied to gradients of the W shape monomials (exact degrees)
    B = el.dof_values(
        el.PHI_NC, geom, lambda bary: el.shape_gradients(el.W_NC, geom, bary)
    )  # (T, 16, 14)

    worst_grad = 0.0
    for alpha in _p3_alphas():
        fld = _monomial(alpha)
        wdofs = el.apply_dofs(el.W_NC, geom, fld)
        lhs = np.einsum("tij,tjk,tk->ti", B, Cw, wdofs)
        rhs = el.apply_dofs(el.PHI_NC, geom, fl.gradient_field(fld))
        worst_grad = max(worst_grad, _rel_dev(lhs, rhs))
    report.add(
        "commuting.grad_route_p3", worst_grad <= tol, worst_grad, tol,
        detail="Phi DoFs of grad(I_W v) vs Phi DoFs of grad v",
    )

    # RT DoFs of curl of the Phi monomials: constant curls against face data
    curls = el.shape_curls(el.PHI_NC, geom)  # (T, 16, 3)
    K = np.einsum(
        "tfk,tik->tfi", geom.face_normals * geom.face_areas[:, :, None], curls
    )  # (T, 4, 16)
    worst_curl = 0.0
    worst_ind = 0.0
    for alpha in _p3_alphas():
        for comp in range(3):
            fld = fl.vector_field(_monomial(alpha), np.eye(3)[comp])
            pdofs = el.apply_dofs(el.PHI_NC, geom, fld)
            lhs = np.einsum("tfi,tij,tj->tf", K, Cphi, pdofs)
            rhs = el.apply_dofs(el.RT0, geom, fl.curl_field(fld))
            worst_curl = max(worst_curl, _rel_dev(lhs, rhs))
            nddofs = el.apply_dofs(el.NEDELEC2, geom, fld)
            worst_ind = max(worst_ind, _rel_dev(pdofs[:, :12], nddofs))
    report.add(
        "commuting.curl_route_p3", worst_curl <= tol, worst_curl, tol,
        detail="RT DoFs of curl(I_Phi v) vs RT DoFs of curl v",
    )
    report.add(
        "commuting.edge_restriction_is_canonical", worst_ind <= tol, worst_ind, tol,
        detail="edge DoFs of the enriched interpolant match the tangential interpolant",
    )
    _check_commuting_global(level, report, tol)
    return report


def _bubble_compatible_fields():
    """Boundary-compatible polynomial test fields on the unit cube.

    The scalar prod_a x_a (1 - x_a)(x_a - 1/2) and the face integrals of
    its normal derivative vanish on the boundary; the vector field, a
    constant vector times prod_a x_a (1 - x_a), vanishes on the boundary.
    Degrees stay within the exactness of the interpolation quadratures.
    """
    scalar = fl.product_field(
        "bubble_scalar", [fl.polynomial_factor([0, -0.5, 1.5, -1])] * 3
    )
    bubble = fl.product_field("bubble", [fl.polynomial_factor([0, 1, -1])] * 3)
    vec = fl.vector_field(bubble, [0.3, -0.7, 0.55])
    return scalar, fl.gradient_field(scalar), vec, fl.curl_field(vec)


def _check_commuting_global(level, report, tol):
    """Global interior-DoF identities for boundary-compatible fields."""
    scalar, grad_field, vec, curl = _bubble_compatible_fields()

    iw = itp.canonical_interpolate(level[W], scalar)
    iphi_grad = itp.canonical_interpolate(level[PHI], grad_field)
    dev = _rel_dev(level["grad"] @ iw.coeffs, iphi_grad.coeffs)
    report.add(
        "commuting.grad_route_global", dev <= tol, dev, tol,
        detail="grad(I_W v) = I_Phi(grad v) on interior DoFs",
    )

    iphi = itp.canonical_interpolate(level[PHI], vec)
    irt = itp.canonical_interpolate(level[RT], curl)
    dev = _rel_dev(level["curl"] @ iphi.coeffs, irt.coeffs)
    report.add(
        "commuting.curl_route_global", dev <= tol, dev, tol,
        detail="curl(I_Phi v) = I_RT(curl v) on interior DoFs",
    )

    ind_nd = itp.canonical_interpolate(level[ND], vec)
    dev = _rel_dev(itp.nd_interpolant(iphi).coeffs, ind_nd.coeffs)
    report.add(
        "commuting.edge_restriction_global", dev <= tol, dev, tol,
        detail="edge restriction of I_Phi equals the tangential interpolant",
    )


def check_weak_continuity(level, report=None, seed=1234):
    """Face means of jumps vanish for random members of the vector space."""
    report = report if report is not None else CertificationReport()
    dofmap = level[PHI]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(WEAK_CONTINUITY_SAMPLES):
        c = rng.standard_normal(dofmap.dim)
        fe = FeFunction(dofmap, c)
        jumps = face_jump_means(fe)
        worst = max(worst, float(np.abs(jumps).max() / max(1.0, np.abs(c).max())))
    report.add(
        "weak_continuity.face_jump_means", worst <= WEAK_CONTINUITY_TOL, worst,
        WEAK_CONTINUITY_TOL,
        detail=f"{WEAK_CONTINUITY_SAMPLES} random coefficient vectors",
    )
    return report


def check_unisolvence(report=None, seed=4321):
    """DoF matrices stay invertible on random shape-regular tets."""
    report = report if report is not None else CertificationReport()
    rng = np.random.default_rng(seed)
    worst = {el.PHI_NC: 0.0, el.W_NC: 0.0}
    count = 0
    while count < UNISOLVENCE_TETS:
        verts = rng.uniform(-1.0, 1.0, size=(4, 3))
        e = verts[1:] - verts[0]
        det = np.linalg.det(e)
        if det < 0:
            verts = verts[[0, 1, 3, 2]]
            det = -det
        diam = max(
            np.linalg.norm(verts[i] - verts[j]) for i in range(4) for j in range(i)
        )
        if det / diam**3 <= 0.05:
            continue
        count += 1
        m = build_mesh_from_tets(verts, [[0, 1, 2, 3]])
        geom = mesh_geometry(m)
        for kind in worst:
            worst[kind] = max(worst[kind], float(el.unisolvence_check(kind, geom)[0]))
    for kind, val in worst.items():
        report.add(
            f"unisolvence.{kind}", np.isfinite(val) and val < COND_LIMIT, val,
            COND_LIMIT,
            detail=f"max condition number over {UNISOLVENCE_TETS} random tets",
        )
    return report


def check_infsup(level, report=None):
    """Dense smallest generalized singular value of the coupling form.

    There is no reference value; the testable claims are positivity and
    mesh stability, reported for each perturbation parameter in ``INFSUP_EPS``.
    """
    report = report if report is not None else CertificationReport()
    if level[PHI].dim > 2000:
        raise MemoryError("inf-sup check is dense; use n <= 2")
    S, Mnd, Mrt, Ccoup, Kop, Dop = (
        level[kind].toarray()
        for kind in ("phi_stiffness", "ind_mass", "rt_mass", "curl_coupling",
                     "curl", "div")
    )
    vols = asm.q_weights(level.mesh)
    Kc = Kop.T @ Mrt @ Kop
    D = vols[:, None] * Dop  # (mu_k, div q_j) = |T_k| (div q_j)|_k
    Y = Mrt + Dop.T @ (vols[:, None] * Dop)

    for eps in INFSUP_EPS:
        X = scipy.linalg.block_diag(
            eps**2 * S + Kc + Mnd, np.diag(vols)
        )
        B = np.vstack([Ccoup, -D])
        Xinv_B = np.linalg.solve(X, B)
        G = B.T @ Xinv_B
        evals = scipy.linalg.eigh(G, Y, eigvals_only=True)
        beta = float(np.sqrt(max(evals.min(), 0.0)))
        report.add(
            f"infsup.beta_eps{eps:g}", beta > INFSUP_FLOOR, beta, INFSUP_FLOOR,
            detail="smallest generalized singular value of the coupling form",
        )
    return report


def check_solution_identities(sol, level, report=None):
    """Algebraic identities of a solved decoupled system on ``level``, the
    ``build_spaces`` of its solve."""
    report = report if report is not None else CertificationReport()
    norms = solution_identity_norms(sol, level)
    tol = IDENTITY_RTOL * norms["scale"]
    prefix = f"identities.{sol.method}_eps{sol.eps:g}"
    checks = [
        ("lambda_zero", "lambda_l2"),
        ("div_p_zero", "div_p_l2"),
        ("curl_phi_zero", "curl_phi_l2"),
    ]
    if sol.method == "interp":
        checks.append(("ind_phi_equals_grad_u", "ind_phi_minus_grad_u_l2"))
    for check, key in checks:
        report.add(f"{prefix}.{check}", norms[key] <= tol, norms[key], tol)
    if sol.method == "interp":
        res = gradient_range_residual(sol.phi_h.coeffs, level)
        report.add(
            f"{prefix}.phi_in_grad_w", res <= IDENTITY_RTOL, res, IDENTITY_RTOL,
            detail="least-squares residual of grad w = phi",
        )
    return report
