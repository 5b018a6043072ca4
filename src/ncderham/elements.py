"""Local finite elements on tetrahedra.

Six element kinds are provided: quadratic Lagrange, lowest-order Nedelec of
the second kind, lowest-order Raviart-Thomas, piecewise constants, the
enriched tangential-continuity vector element (P1 vectors plus gradients of
quartic-bubble times linears), and the continuous scalar element with shape
space P2 plus bubble times linears.

All bases are built directly on the physical element in barycentric form.
Degrees of freedom use the mesh-global entity orientations carried by the
geometry bundle (ascending-id tangents and normals), so shared DoFs are
single-valued across elements without sign tables.  One routine,
``dof_values``, applies them: to shape monomials for the nodal bases, to
the vertex hats for the multigrid's auxiliary transfer, and to analytic
fields for canonical interpolation.
Functions are batched over tets: ``bary`` arguments have shape (P, 4) for
shared points or (nT, P, 4) for per-tet points.
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
        enr = mono_hessians(bary, _QUINTIC, geom.grad_lambda)
        return np.concatenate([shape_gradients(NEDELEC2, geom, bary), enr], axis=-3)
    if kind == RT0:
        out = np.zeros((T, P, 4, 3, 3))
        out[:, :, 3] = np.eye(3)
        return out
    raise CapabilityError(f"unknown element kind {kind!r}")


def shape_curls(kind, geom):
    """Curls of the shape monomials; constant per tet, (T, nd, 3)."""
    if kind not in (NEDELEC2, PHI_NC):
        raise CapabilityError(f"curl undefined for element kind {kind!r}")
    T = geom.grad_lambda.shape[0]
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


def embed_rule(rule, local_vertices):
    """Points of an edge or triangle rule in tet barycentric coordinates.

    ``local_vertices`` (..., c) lists, for each entity, the local tet
    vertices that carry the rule's c barycentric coordinates; returns
    (..., q, 4).
    """
    lead = local_vertices.shape[:-1]
    q = rule.npoints
    bary = np.zeros(lead + (q, 4))
    for c in range(local_vertices.shape[-1]):
        idx = np.broadcast_to(local_vertices[..., c, None, None], lead + (q, 1))
        np.put_along_axis(bary, idx, rule.points[:, c, None], axis=-1)
    return bary


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


def dof_values(kind, geom, values, gradients=None, edge_degree=EDGE_DOF_DEGREE,
               tri_degree=FACE_DOF_DEGREE, tet_degree=6):
    """Apply the element's DoF functionals to m functions, (T, nd, m).

    ``values(bary)`` maps per-tet barycentric points (T, P, 4) of ``geom``
    to the functions there, (T, P, m) for scalar kinds or (T, P, m, 3) for
    vector kinds; ``gradients(bary)``, (T, P, m, 3), feeds the
    normal-derivative face DoFs of the continuous scalar element.  The DoFs
    come in layout order: vertex values, edge integrals (scalar kinds) or
    edge moments (vector kinds), face normal integrals, the cell mean.
    """
    T = geom.num_tets
    vector = KIND_INFO[kind]["arity"] == 3
    layout = KIND_INFO[kind]["layout"]
    blocks = []
    if layout[0]:
        blocks.append(values(np.broadcast_to(_VERTEX_BARY, (T, 4, 4))))
    if layout[1]:
        rule = get_rule(EDGE, edge_degree)
        q = rule.npoints
        vals = values(embed_rule(rule, geom.edge_vertices).reshape(T, 6 * q, 4))
        vals = vals.reshape((T, 6, q, -1) + (3,) * vector)
        blocks.append((_edge_moments if vector else _edge_integrals)(geom, vals, rule))
    if layout[2]:
        rule = get_rule(TRIANGLE, tri_degree)
        q = rule.npoints
        bary = embed_rule(rule, geom.face_vertices).reshape(T, 4 * q, 4)
        if kind != W_NC:
            vals = values(bary)
        elif gradients is None:
            raise CapabilityError("normal-derivative DoFs need gradients")
        else:
            vals = gradients(bary)
        blocks.append(_face_normal_integrals(geom, vals.reshape(T, 4, q, -1, 3), rule))
    if layout[3]:
        rule = get_rule(TET, tet_degree)
        vals = values(np.broadcast_to(rule.points, (T,) + rule.points.shape))
        blocks.append(np.einsum("q,tqu->tu", rule.weights, vals)[:, None])
    return np.concatenate(blocks, axis=1)


def dof_matrix(kind, geom):
    """Generalized Vandermonde V[i, j] = DoF_i(shape monomial j), (T, nd, nd)."""
    # the one-point rule (weight exactly 1) keeps P0's matrix exactly one
    return dof_values(
        kind, geom, lambda bary: shape_values(kind, geom, bary),
        lambda bary: shape_gradients(kind, geom, bary), tet_degree=0,
    )


# tets per batched inversion of the DoF matrices
_INVERT_CHUNK = 4096


def nodal_coefficients(kind, geom):
    """Coefficient matrices C with DoF_i(sum_j C[j,k] mono_j) = delta_ik.

    Cached on the geometry bundle; on translation-structured meshes only
    one matrix per class is inverted.
    """
    rep = getattr(geom, "rep_geometry", None)
    if rep is not None and rep.num_tets < geom.num_tets:
        return nodal_coefficients(kind, rep)[geom.classes]
    cache = getattr(geom, "_nodal_cache", None)
    if cache is None:
        cache = {}
        geom._nodal_cache = cache
    if kind in cache:
        return cache[kind]
    T = geom.grad_lambda.shape[0]
    nd = KIND_INFO[kind]["dim"]
    C = np.empty((T, nd, nd))
    for lo in range(0, T, _INVERT_CHUNK):
        sl = slice(lo, min(lo + _INVERT_CHUNK, T))
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
    C = nodal_coefficients(kind, geom)
    vals = shape_values(kind, geom, bary)
    if KIND_INFO[kind]["arity"] == 3:
        return np.einsum("tpja,tjk->tpka", vals, C)
    return np.einsum("tpj,tjk->tpk", vals, C)


def nodal_gradients(kind, geom, bary):
    """Nodal basis gradients/Jacobians, (T, P, nd, 3) or (T, P, nd, 3, 3)."""
    C = nodal_coefficients(kind, geom)
    grads = shape_gradients(kind, geom, bary)
    if KIND_INFO[kind]["arity"] == 3:
        return np.einsum("tpjab,tjk->tpkab", grads, C)
    return np.einsum("tpja,tjk->tpka", grads, C)


def nodal_curls(kind, geom):
    """Nodal basis curls (constant per tet), (T, nd, 3)."""
    C = nodal_coefficients(kind, geom)
    return np.einsum("tja,tjk->tka", shape_curls(kind, geom), C)


def rt_nodal_divergences(geom):
    """Divergences of the RT0 nodal basis (constant per tet), (T, 4)."""
    C = nodal_coefficients(RT0, geom)
    return np.einsum("tj,tjk->tk", rt_divergences(geom), C)


def class_table(kind, rep, bary, gradients=False):
    """Nodal basis values (or gradients) at the shared points ``bary`` on
    each class representative, laid out for one GEMM per class:
    (n_classes, nd, P * value size).

    Every tet of a translation class has the same nodal basis at shared
    barycentric points, so the table is evaluated once per (kind,
    derivative, point set) and cached on the representative geometry.
    """
    cache = getattr(rep, "_class_tables", None)
    if cache is None:
        cache = {}
        rep._class_tables = cache
    bary = np.asarray(bary, dtype=float)
    key = (kind, gradients, bary.shape, bary.tobytes())
    if key not in cache:
        evaluate = nodal_gradients if gradients else nodal_values
        B = evaluate(kind, rep, bary)  # (nc, P, nd, ...)
        nc, _, nd = B.shape[:3]
        cache[key] = np.ascontiguousarray(np.moveaxis(B, 2, 1)).reshape(nc, nd, -1)
    return cache[key]


def class_matmul(classes, lhs, tables):
    """Row-wise ``lhs[t] @ tables[classes[t]]`` with one GEMM per class;
    (T, k) and (n_classes, k, m) -> (T, m)."""
    out = np.empty((lhs.shape[0], tables.shape[2]))
    for c in range(tables.shape[0]):
        idx = np.flatnonzero(classes == c)
        if idx.size:
            out[idx] = lhs[idx] @ tables[c]
    return out


def apply_dofs(kind, geom, field, edge_degree=EDGE_DOF_DEGREE,
               tri_degree=FACE_DOF_DEGREE, tet_degree=6):
    """Apply the element's DoF functionals to an analytic field, (T, nd).

    ``field`` provides ``value(points)`` (and ``gradient(points)`` for the
    normal-derivative DoFs of the continuous scalar element).
    """
    def at_points(fn, tail):
        def evaluate(bary):
            pts = np.einsum("tpi,tij->tpj", bary, geom.vertices)
            return np.asarray(fn(pts.reshape(-1, 3))).reshape(bary.shape[:2] + tail)
        return evaluate

    gradient = getattr(field, "gradient", None)
    values = at_points(field.value, (1, 3) if KIND_INFO[kind]["arity"] == 3 else (1,))
    gradients = None if gradient is None else at_points(gradient, (1, 3))
    return dof_values(
        kind, geom, values, gradients, edge_degree, tri_degree, tet_degree
    )[:, :, 0]


def unisolvence_check(kind, geom):
    """Condition numbers of the DoF matrices, (T,)."""
    V = dof_matrix(kind, geom)
    return np.linalg.cond(V)
