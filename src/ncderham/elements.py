"""Local finite elements on tetrahedra.

Six element kinds are provided: quadratic Lagrange, lowest-order Nedelec of
the second kind, lowest-order Raviart-Thomas, piecewise constants, the
enriched tangential-continuity vector element (P1 vectors plus gradients of
quartic-bubble times linears), and the continuous scalar element with shape
space P2 plus bubble times linears.

All bases are built directly on the physical element in barycentric form.
Degrees of freedom use the mesh-global entity orientations carried by the
geometry bundle (ascending-id tangents and normals), so shared DoFs are
single-valued across elements without sign tables.  Functions are batched
over tets: ``bary`` arguments have shape (P, 4) for shared points or
(nT, P, 4) for per-tet points.
"""

import numpy as np

from .quadrature import EDGE, TET, TRIANGLE, get_rule

LAGRANGE_P2 = "lagrange_p2"
NEDELEC2 = "nedelec2"
RT0 = "rt0"
P0 = "p0"
PHI_NC = "phi_nc"
W_NC = "w_nc"

#: per-kind: shape dimension, value arity, DoFs per (vertex, edge, face, cell)
KIND_INFO = {
    LAGRANGE_P2: dict(dim=10, arity=1, layout=(1, 1, 0, 0)),
    NEDELEC2: dict(dim=12, arity=3, layout=(0, 2, 0, 0)),
    RT0: dict(dim=4, arity=3, layout=(0, 0, 1, 0)),
    P0: dict(dim=1, arity=1, layout=(0, 0, 0, 1)),
    PHI_NC: dict(dim=16, arity=3, layout=(0, 2, 1, 0)),
    W_NC: dict(dim=14, arity=1, layout=(1, 1, 1, 0)),
}

EDGE_DOF_DEGREE = 5
FACE_DOF_DEGREE = 4

_ALPHA1 = np.eye(4, dtype=np.int64)
_ALPHA2 = np.array(
    [
        (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2),
        (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
        (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1),
    ],
    dtype=np.int64,
)
# quintics b_T * lambda_i with b_T = lambda0*lambda1*lambda2*lambda3
_QUINTIC = np.ones((4, 4), dtype=np.int64) + _ALPHA1


class CapabilityError(Exception):
    """Requested quantity is not defined for this element kind."""


class UnisolvenceError(Exception):
    """The DoF matrix of an element is numerically singular."""

    def __init__(self, kind, cond):
        self.kind = kind
        self.cond = cond
        super().__init__(f"{kind}: DoF matrix singular (cond estimate {cond:.3e})")


def _as_batched(geom, bary):
    bary = np.asarray(bary, dtype=float)
    if bary.ndim == 2:
        bary = np.broadcast_to(bary, (geom.num_tets,) + bary.shape)
    return bary


def mono_values(bary, alpha):
    """prod(lambda**alpha) for each exponent row; bary (..., 4) -> (..., nm)."""
    return np.prod(bary[..., None, :] ** alpha, axis=-1)


def mono_gradients(bary, alpha, grad_lambda):
    """Gradients of barycentric monomials, (T, P, nm, 3)."""
    T, P = bary.shape[:2]
    nm = alpha.shape[0]
    out = np.zeros((T, P, nm, 3))
    for i in range(4):
        ai = alpha[:, i]
        if not ai.any():
            continue
        am = alpha.copy()
        am[:, i] = np.maximum(ai - 1, 0)
        coeff = ai * mono_values(bary, am)
        out += coeff[..., None] * grad_lambda[:, None, None, i, :]
    return out


def mono_hessians(bary, alpha, grad_lambda):
    """Hessians of barycentric monomials, (T, P, nm, 3, 3)."""
    T, P = bary.shape[:2]
    nm = alpha.shape[0]
    out = np.zeros((T, P, nm, 3, 3))
    for i in range(4):
        ai = alpha[:, i]
        if not ai.any():
            continue
        ami = alpha.copy()
        ami[:, i] = np.maximum(ai - 1, 0)
        for j in range(4):
            aj = ami[:, j] * (ai > 0)
            if not aj.any():
                continue
            amij = ami.copy()
            amij[:, j] = np.maximum(amij[:, j] - 1, 0)
            coeff = ai * ami[:, j] * mono_values(bary, amij)
            gij = grad_lambda[:, i, :, None] * grad_lambda[:, j, None, :]
            out += coeff[..., None, None] * gij[:, None, None, :, :]
    return out


def _p1_vector_values(bary):
    """P1 vector monomials lambda_i * e_k, index m = 3*i + k."""
    lead = bary.shape[:-1]
    vals = bary[..., :, None, None] * np.eye(3)
    return vals.reshape(lead + (12, 3))


def shape_values(kind, geom, bary):
    """Shape-space monomial values; (T, P, nd) scalar or (T, P, nd, 3)."""
    bary = _as_batched(geom, bary)
    if kind == LAGRANGE_P2:
        return mono_values(bary, _ALPHA2)
    if kind == P0:
        return np.ones(bary.shape[:2] + (1,))
    if kind == W_NC:
        return np.concatenate(
            [mono_values(bary, _ALPHA2), mono_values(bary, _QUINTIC)], axis=-1
        )
    if kind == NEDELEC2:
        return _p1_vector_values(bary)
    if kind == PHI_NC:
        p1 = _p1_vector_values(bary)
        enr = mono_gradients(bary, _QUINTIC, geom.grad_lambda)
        return np.concatenate([p1, enr], axis=-2)
    if kind == RT0:
        T, P = bary.shape[:2]
        out = np.zeros((T, P, 4, 3))
        out[:, :, 0, 0] = 1.0
        out[:, :, 1, 1] = 1.0
        out[:, :, 2, 2] = 1.0
        x = np.einsum("tpi,tij->tpj", bary, geom.vertices)
        out[:, :, 3, :] = x - geom.vertices.mean(axis=1)[:, None, :]
        return out
    raise CapabilityError(f"unknown element kind {kind!r}")


def shape_gradients(kind, geom, bary):
    """Gradients (scalar kinds) or Jacobians J[a,b]=d v_a/d x_b (vector)."""
    bary = _as_batched(geom, bary)
    T, P = bary.shape[:2]
    if kind == LAGRANGE_P2:
        return mono_gradients(bary, _ALPHA2, geom.grad_lambda)
    if kind == P0:
        return np.zeros((T, P, 1, 3))
    if kind == W_NC:
        return np.concatenate(
            [
                mono_gradients(bary, _ALPHA2, geom.grad_lambda),
                mono_gradients(bary, _QUINTIC, geom.grad_lambda),
            ],
            axis=-2,
        )
    if kind == NEDELEC2:
        out = np.zeros((T, P, 12, 3, 3))
        for k in range(3):
            out[:, :, k::3, k, :] = geom.grad_lambda[:, None, :, :]
        return out
    if kind == PHI_NC:
        p1 = np.zeros((T, P, 12, 3, 3))
        for k in range(3):
            p1[:, :, k::3, k, :] = geom.grad_lambda[:, None, :, :]
        enr = mono_hessians(bary, _QUINTIC, geom.grad_lambda)
        return np.concatenate([p1, enr], axis=-3)
    if kind == RT0:
        out = np.zeros((T, P, 4, 3, 3))
        out[:, :, 3] = np.eye(3)
        return out
    raise CapabilityError(f"unknown element kind {kind!r}")


def shape_curls(kind, geom):
    """Curls of the shape monomials; constant per tet, (T, nd, 3)."""
    if kind not in (NEDELEC2, PHI_NC, RT0):
        raise CapabilityError(f"curl undefined for element kind {kind!r}")
    T = geom.grad_lambda.shape[0]
    if kind == RT0:
        return np.zeros((T, 4, 3))
    eye = np.eye(3)
    curls = np.cross(geom.grad_lambda[:, :, None, :], eye[None, None, :, :])
    curls = curls.reshape(T, 12, 3)
    if kind == NEDELEC2:
        return curls
    return np.concatenate([curls, np.zeros((T, 4, 3))], axis=1)


def rt_divergences(geom):
    """Divergences of the RT0 shape monomials, (T, 4)."""
    T = geom.grad_lambda.shape[0]
    div = np.zeros((T, 4))
    div[:, 3] = 3.0
    return div


def edge_quad_bary(geom, degree=EDGE_DOF_DEGREE):
    """Edge-rule points embedded in tet barycentric coords, (T, 6, q, 4)."""
    rule = get_rule(EDGE, degree)
    T = geom.edge_vertices.shape[0]
    q = rule.npoints
    bary = np.zeros((T, 6, q, 4))
    for c in range(2):
        idx = np.broadcast_to(geom.edge_vertices[:, :, c, None, None], (T, 6, q, 1))
        np.put_along_axis(bary, idx, rule.points[None, None, :, c, None], axis=3)
    return bary, rule


def face_quad_bary(geom, degree=FACE_DOF_DEGREE):
    """Face-rule points embedded in tet barycentric coords, (T, 4, q, 4)."""
    rule = get_rule(TRIANGLE, degree)
    T = geom.face_vertices.shape[0]
    q = rule.npoints
    bary = np.zeros((T, 4, q, 4))
    for c in range(3):
        idx = np.broadcast_to(geom.face_vertices[:, :, c, None, None], (T, 4, q, 1))
        np.put_along_axis(bary, idx, rule.points[None, None, :, c, None], axis=3)
    return bary, rule


def _edge_moments(geom, values, rule):
    """Edge moments of tangential components against the two ascending
    barycentric weights; values (T, 6, q, nd, 3) -> (T, 12, nd)."""
    tang = geom.edge_tangents  # (T, 6, 3)
    vt = np.einsum("tequk,tek->tequ", values, tang)
    w = rule.weights
    qa = rule.points[:, 0]
    qb = rule.points[:, 1]
    ma = np.einsum("q,tequ->teu", w * qa, vt) * geom.edge_lengths[:, :, None]
    mb = np.einsum("q,tequ->teu", w * qb, vt) * geom.edge_lengths[:, :, None]
    T, _, _, nd, _ = values.shape
    out = np.empty((T, 12, nd))
    out[:, 0::2, :] = ma
    out[:, 1::2, :] = mb
    return out


def _face_normal_integrals(geom, values, rule):
    """Face integrals of normal components; values (T, 4, q, nd, 3) -> (T, 4, nd)."""
    vn = np.einsum("tfquk,tfk->tfqu", values, geom.face_normals)
    return np.einsum("q,tfqu->tfu", rule.weights, vn) * geom.face_areas[:, :, None]


def _edge_integrals(geom, values, rule):
    """Plain edge integrals of scalars; values (T, 6, q, nd) -> (T, 6, nd)."""
    return np.einsum("q,tequ->teu", rule.weights, values) * geom.edge_lengths[:, :, None]


_VERTEX_BARY = np.eye(4)


def dof_matrix(kind, geom, edge_degree=EDGE_DOF_DEGREE, tri_degree=FACE_DOF_DEGREE):
    """Generalized Vandermonde V[i, j] = DoF_i(shape monomial j), (T, nd, nd)."""
    T = geom.grad_lambda.shape[0]
    if kind == P0:
        return np.ones((T, 1, 1))

    blocks = []
    layout = KIND_INFO[kind]["layout"]
    if layout[0]:
        vals = shape_values(kind, geom, _VERTEX_BARY)  # (T, 4, nd)
        blocks.append(vals)
    if layout[1]:
        ebary, erule = edge_quad_bary(geom, edge_degree)
        q = erule.npoints
        flat = ebary.reshape(T, 6 * q, 4)
        vals = shape_values(kind, geom, flat)
        if KIND_INFO[kind]["arity"] == 3:
            vals = vals.reshape(T, 6, q, -1, 3)
            blocks.append(_edge_moments(geom, vals, erule))
        else:
            vals = vals.reshape(T, 6, q, -1)
            blocks.append(_edge_integrals(geom, vals, erule))
    if layout[2]:
        fbary, frule = face_quad_bary(geom, tri_degree)
        q = frule.npoints
        flat = fbary.reshape(T, 4 * q, 4)
        if kind == W_NC:
            grads = shape_gradients(kind, geom, flat).reshape(T, 4, q, -1, 3)
            blocks.append(_face_normal_integrals(geom, grads, frule))
        else:
            vals = shape_values(kind, geom, flat).reshape(T, 4, q, -1, 3)
            blocks.append(_face_normal_integrals(geom, vals, frule))
    return np.concatenate(blocks, axis=1)


def _via_reps(geom, compute, shared_points=True):
    """Run a per-tet pure-geometry computation on one representative per
    translation class and broadcast; falls back to the direct path."""
    rep = getattr(geom, "rep_geometry", None)
    if shared_points and rep is not None and rep.num_tets < geom.num_tets:
        return compute(rep)[geom.classes]
    return compute(geom)


def nodal_coefficients(kind, geom, chunk=4096):
    """Coefficient matrices C with DoF_i(sum_j C[j,k] mono_j) = delta_ik.

    Cached on the geometry bundle; on translation-structured meshes only
    one matrix per class is inverted.
    """
    rep = getattr(geom, "rep_geometry", None)
    if rep is not None and rep.num_tets < geom.num_tets:
        return nodal_coefficients(kind, rep, chunk)[geom.classes]
    cache = getattr(geom, "_nodal_cache", None)
    if cache is None:
        cache = {}
        geom._nodal_cache = cache
    if kind in cache:
        return cache[kind]
    T = geom.grad_lambda.shape[0]
    nd = KIND_INFO[kind]["dim"]
    C = np.empty((T, nd, nd))
    for lo in range(0, T, chunk):
        sl = slice(lo, min(lo + chunk, T))
        V = dof_matrix(kind, geom.take(np.arange(sl.start, sl.stop)))
        try:
            C[sl] = np.linalg.inv(V)
        except np.linalg.LinAlgError:
            conds = np.linalg.cond(V)
            raise UnisolvenceError(kind, float(np.max(conds))) from None
    cache[kind] = C
    return C


def nodal_values(kind, geom, bary):
    """Nodal basis values, (T, P, nd[, 3])."""
    shared = np.asarray(bary).ndim == 2

    def compute(g):
        C = nodal_coefficients(kind, g)
        vals = shape_values(kind, g, bary)
        if KIND_INFO[kind]["arity"] == 3:
            return np.einsum("tpja,tjk->tpka", vals, C)
        return np.einsum("tpj,tjk->tpk", vals, C)

    return _via_reps(geom, compute, shared)


def nodal_gradients(kind, geom, bary):
    """Nodal basis gradients/Jacobians, (T, P, nd, 3) or (T, P, nd, 3, 3)."""
    shared = np.asarray(bary).ndim == 2

    def compute(g):
        C = nodal_coefficients(kind, g)
        grads = shape_gradients(kind, g, bary)
        if KIND_INFO[kind]["arity"] == 3:
            return np.einsum("tpjab,tjk->tpkab", grads, C)
        return np.einsum("tpja,tjk->tpka", grads, C)

    return _via_reps(geom, compute, shared)


def nodal_curls(kind, geom):
    """Nodal basis curls (constant per tet), (T, nd, 3)."""

    def compute(g):
        C = nodal_coefficients(kind, g)
        return np.einsum("tja,tjk->tka", shape_curls(kind, g), C)

    return _via_reps(geom, compute)


def rt_nodal_divergences(geom):
    """Divergences of the RT0 nodal basis (constant per tet), (T, 4)."""

    def compute(g):
        C = nodal_coefficients(RT0, g)
        return np.einsum("tj,tjk->tk", rt_divergences(g), C)

    return _via_reps(geom, compute)


def apply_dofs(kind, geom, field, edge_degree=None, tri_degree=None, tet_degree=6):
    """Apply the element's DoF functionals to an analytic field, (T, nd).

    ``field`` provides ``value(points)`` (and ``gradient(points)`` for the
    normal-derivative DoFs of the continuous scalar element).
    """
    T = geom.grad_lambda.shape[0]
    arity = KIND_INFO[kind]["arity"]
    layout = KIND_INFO[kind]["layout"]
    edge_degree = EDGE_DOF_DEGREE if edge_degree is None else edge_degree
    tri_degree = FACE_DOF_DEGREE if tri_degree is None else tri_degree

    def field_at(bary, fn):
        pts = np.einsum("tpi,tij->tpj", bary, geom.vertices)
        flat = fn(pts.reshape(-1, 3))
        return np.asarray(flat).reshape(bary.shape[:2] + ((3,) if arity == 3 else ()))

    if kind == P0:
        rule = get_rule(TET, tet_degree)
        bary = np.broadcast_to(rule.points, (T,) + rule.points.shape)
        vals = field_at(bary, field.value)
        return np.einsum("q,tq->t", rule.weights, vals)[:, None]

    blocks = []
    if layout[0]:
        bary = np.broadcast_to(_VERTEX_BARY, (T, 4, 4))
        blocks.append(field_at(bary, field.value))
    if layout[1]:
        ebary, erule = edge_quad_bary(geom, edge_degree)
        q = erule.npoints
        vals = field_at(ebary.reshape(T, 6 * q, 4), field.value)
        if arity == 3:
            vals = vals.reshape(T, 6, q, 1, 3)
            blocks.append(_edge_moments(geom, vals, erule)[:, :, 0])
        else:
            vals = vals.reshape(T, 6, q, 1)
            blocks.append(_edge_integrals(geom, vals, erule)[:, :, 0])
    if layout[2]:
        fbary, frule = face_quad_bary(geom, tri_degree)
        q = frule.npoints
        if kind == W_NC:
            grad_fn = getattr(field, "gradient", None)
            if grad_fn is None:
                raise CapabilityError(
                    "normal-derivative DoFs need field.gradient"
                )
            pts = np.einsum("tfqi,tij->tfqj", fbary, geom.vertices)
            g = np.asarray(grad_fn(pts.reshape(-1, 3))).reshape(T, 4, q, 1, 3)
            blocks.append(_face_normal_integrals(geom, g, frule)[:, :, 0])
        else:
            vals = field_at(fbary.reshape(T, 4 * q, 4), field.value)
            vals = vals.reshape(T, 4, q, 1, 3)
            blocks.append(_face_normal_integrals(geom, vals, frule)[:, :, 0])
    return np.concatenate(blocks, axis=1)


def unisolvence_check(kind, geom):
    """Condition numbers of the DoF matrices, (T,)."""
    V = dof_matrix(kind, geom)
    return np.linalg.cond(V)
