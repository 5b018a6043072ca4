"""Canonical interpolation into the global spaces, evaluation of discrete
fields, and the sparse operator matrices linking the spaces (gradient,
curl, divergence, edge-DoF interpolation).

Interpolation applies the element DoFs tet by tet; the local DoFs carry
the global orientation conventions of the mesh, so shared DoFs are
single-valued.  The operator matrices are exact: they are built from DoF
identities (integration by parts along edges, Stokes on faces, the
divergence theorem per cell) and carry rational entries, not quadrature
approximations.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import elements as el
from .assembly import (
    ND, PHI, Q, RT, W, AssemblyError, DofMap, _accumulate, gather_coefficients,
)
from .mesh import _find_rows, mesh_geometry


@dataclass
class FeFunction:
    """A discrete field: coefficients over the interior DoFs of one space."""

    dofmap: DofMap
    coeffs: np.ndarray

    @property
    def space(self):
        return self.dofmap.space


def _edge_data(mesh):
    ids = np.flatnonzero(~mesh.boundary_edge)
    va = mesh.vertices[mesh.edges[ids, 0]]
    vb = mesh.vertices[mesh.edges[ids, 1]]
    lengths = np.linalg.norm(vb - va, axis=1)
    return ids, lengths


# degrees of the edge, triangle and tet rules of canonical interpolation's DoFs
DOF_DEGREES = (11, 8, 8)


def canonical_interpolate(dofmap, field):
    """Interpolate an analytic field by evaluating the canonical DoFs.

    The element DoFs are applied on every tet and scattered through the
    cell table; local DoFs follow the global orientation conventions, so a
    DoF shared by several tets receives the same value from each.  For the
    piecewise-constant space the result is the elementwise mean, shifted to
    zero global mean.
    """
    geom = mesh_geometry(dofmap.mesh)
    local = el.apply_dofs(dofmap.element, geom, field, *DOF_DEGREES)
    table = dofmap.cell_table
    keep = table >= 0
    coeffs = np.zeros(dofmap.dim)
    coeffs[table[keep]] = local[keep]
    if dofmap.space == Q:
        coeffs -= (coeffs @ geom.volume) / geom.volume.sum()
    return FeFunction(dofmap, coeffs)


def vertex_interpolant(wmap):
    """Averaged canonical interpolant of the P1 hat of every interior vertex
    into the space of ``wmap``, (wmap.dim, interior vertices): the
    auxiliary-space transfer of the multigrid cycles.  For W, P1 lies in W
    element by element and has no broken Hessian, so it carries the
    potential's slowest modes; for the conforming P2 it is the exact
    embedding of P1.

    A DoF shared by several tets takes the average of their values; for W
    only the normal-derivative face DoFs differ between tets, for P2 none
    do.  The local matrix depends only on a tet's translation class, so it
    is computed once per class (six on a Kuhn cube).
    """
    geom = mesh_geometry(wmap.mesh)
    rep, classes = geom.rep_geometry, geom.classes
    if rep is None:  # no translation structure: one class per tet
        rep, classes = geom, np.arange(geom.num_tets)
    hats = el.dof_values(
        wmap.element, rep, lambda bary: bary,
        lambda bary: np.broadcast_to(
            rep.grad_lambda[:, None], bary.shape[:2] + (4, 3)),
    )
    # a P1 hat is numbered as the W DoF of its vertex value
    nvi = int(np.count_nonzero(wmap.vertex_dofs >= 0))
    summed = _accumulate(
        wmap.cell_table, wmap.vertex_dofs[wmap.mesh.tets], hats, classes,
        (wmap.dim, nvi),
    )
    rows = wmap.cell_table[wmap.cell_table >= 0]
    P = (sp.diags(1.0 / np.bincount(rows, minlength=wmap.dim)) @ summed).tocsr()
    # entries that vanish exactly come out of the quadrature as roundoff
    # (a sixth of them at n=6); kept, they would widen the Galerkin product
    P.data[np.abs(P.data) < 1e-12 * np.abs(P.data).max()] = 0.0
    P.eliminate_zeros()
    return P


def p1_kuhn_prolongation(n):
    """P1 prolongation from the interior vertices of the Kuhn cube with n/2
    subdivisions to those of its refinement, (n-1)^3 by (n/2-1)^3.

    Refinement is nested, and every fine vertex is a coarse vertex (weight
    1) or the midpoint of a coarse Kuhn edge (weight 1/2 from each end).
    Interior vertices are numbered x fastest, as ``build_unit_cube_mesh``
    numbers all vertices.
    """
    m = n // 2
    fine = np.stack(np.meshgrid(*[np.arange(1, n)] * 3, indexing="ij"))[::-1]
    fine = fine.reshape(3, -1)  # (x, y, z) of the fine vertices, x fastest
    rows, cols = [], []
    # the ends of the coarse edge a fine vertex bisects; a coarse vertex is
    # both ends of its own zero-length edge, so its two halves sum to 1
    for end in (fine // 2, (fine + 1) // 2):
        interior = ((end > 0) & (end < m)).all(axis=0)
        rows.append(np.flatnonzero(interior))
        cols.append((end[:, interior] - 1).T @ np.array([1, m - 1, (m - 1) ** 2]))
    vals = [np.full(r.size, 0.5) for r in rows]
    return _triplets(rows, cols, vals, ((n - 1) ** 3, (m - 1) ** 3))


def fe_values(fe, bary, tids=None):
    """Values of a discrete function at barycentric points, (nT, P[, 3]).

    ``bary`` is (P, 4) for points shared by all tets or (nT, P, 4) per tet;
    ``tids`` restricts the evaluation to those tets.  Every evaluation of a
    discrete field goes through this function or ``fe_gradients``.
    """
    return _evaluate(fe, bary, tids, gradients=False)


def fe_gradients(fe, bary, tids=None):
    """Gradients/Jacobians of a discrete function, (nT, P, 3[, 3])."""
    return _evaluate(fe, bary, tids, gradients=True)


def _evaluate(fe, bary, tids, gradients):
    """Shared points on a translation-structured mesh take one GEMM per
    class against the class's basis table; other cases go tet by tet."""
    dofmap = fe.dofmap
    kind = dofmap.element
    geom = mesh_geometry(dofmap.mesh)
    local = gather_coefficients(dofmap, fe.coeffs, tids)
    bary = np.asarray(bary, dtype=float)
    if bary.ndim == 2 and geom.rep_geometry is not None:
        table = el.class_table(kind, geom.rep_geometry, bary, gradients)
        classes = geom.classes if tids is None else geom.classes[tids]
        vals = el.class_matmul(classes, local, table)
        tail = (3,) * ((el.KIND_INFO[kind]["arity"] == 3) + gradients)
        return vals.reshape((local.shape[0], bary.shape[0]) + tail)
    if tids is not None:
        geom = geom.take(tids)
    evaluate = el.nodal_gradients if gradients else el.nodal_values
    return np.einsum("tj,tqj...->tq...", local, evaluate(kind, geom, bary))


def _edge_gradient_rows(mesh, edge_dofs, vertex_dofs, scalar_edge_dofs):
    """Triplets realizing edge moments of a gradient through scalar DoFs.

    For an edge (a, b) with ascending global ids and length L:
      moment against lambda_a:  -v(a) + (1/L) * int_e v
      moment against lambda_b:  +v(b) - (1/L) * int_e v
    """
    ids, lengths = _edge_data(mesh)
    rows, cols, vals = [], [], []
    for which, sign in ((0, -1.0), (1, 1.0)):
        vid = mesh.edges[ids, which]
        vdof = vertex_dofs[vid]
        keep = vdof >= 0
        rows.append(edge_dofs[ids, which][keep])
        cols.append(vdof[keep])
        vals.append(np.full(keep.sum(), sign))
        edof = scalar_edge_dofs[ids, 0]
        rows.append(edge_dofs[ids, which])
        cols.append(edof)
        vals.append(-sign / lengths)
    return rows, cols, vals


def _circulation_rows(mesh, face_dofs, edge_dofs):
    """Triplets realizing face fluxes of a curl through edge moments.

    Stokes on the ascending-id oriented face (f0, f1, f2): the flux of the
    curl equals the circulation  +(e01) + (e12) - (e02)  where each edge
    term is the plain tangential integral, i.e. the sum of its two moments.
    """
    ids = np.flatnonzero(~mesh.boundary_face)
    tri = mesh.faces[ids]  # ascending triples
    pairs = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -1.0)]
    rows, cols, vals = [], [], []
    for i, j, sign in pairs:
        eid = _find_rows(mesh.edges, tri[:, [i, j]])
        for m in range(2):
            dof = edge_dofs[eid, m]
            keep = dof >= 0
            rows.append(face_dofs[ids][keep])
            cols.append(dof[keep])
            vals.append(np.full(int(keep.sum()), sign))
    return rows, cols, vals


def diff_operator_matrix(kind, dofmaps):
    """Exact sparse operator between spaces, as a CSR matrix.

    Kinds: ``grad`` (w -> phi), ``curl`` (phi -> rt) and ``div`` (rt -> q),
    from ``dofmaps``, the DofMaps of one mesh (a ``build_spaces`` level).
    """
    if kind == "grad":
        wmap, pmap = dofmaps[W], dofmaps[PHI]
        mesh = wmap.mesh
        rows, cols, vals = _edge_gradient_rows(
            mesh, pmap.edge_dofs, wmap.vertex_dofs, wmap.edge_dofs
        )
        ids = np.flatnonzero(~mesh.boundary_face)
        rows.append(pmap.face_dofs[ids])
        cols.append(wmap.face_dofs[ids])
        vals.append(np.ones(ids.size))
        return _triplets(rows, cols, vals, (pmap.dim, wmap.dim))

    if kind == "curl":
        pmap, rmap = dofmaps[PHI], dofmaps[RT]
        rows, cols, vals = _circulation_rows(
            pmap.mesh, rmap.face_dofs, pmap.edge_dofs
        )
        return _triplets(rows, cols, vals, (rmap.dim, pmap.dim))

    if kind == "div":
        rmap, qmap = dofmaps[RT], dofmaps[Q]
        mesh = rmap.mesh
        geom = mesh_geometry(mesh)
        # divergence theorem per cell: div = sum_f sign_f * flux_f / |T|
        rows, cols, vals = [], [], []
        for lf in range(4):
            dof = rmap.face_dofs[mesh.tet_to_faces[:, lf]]
            keep = dof >= 0
            rows.append(qmap.cell_dofs[keep])
            cols.append(dof[keep])
            vals.append(
                (geom.face_outward_sign[:, lf] / geom.volume)[keep]
            )
        return _triplets(rows, cols, vals, (qmap.dim, rmap.dim))

    raise AssemblyError(f"unknown operator kind {kind!r}")


def _triplets(rows, cols, vals, shape):
    r = np.concatenate([np.asarray(x, dtype=np.int64) for x in rows])
    c = np.concatenate([np.asarray(x, dtype=np.int64) for x in cols])
    v = np.concatenate([np.asarray(x, dtype=float) for x in vals])
    return sp.coo_matrix((v, (r, c)), shape=shape).tocsr()


def nd_interpolant(phi_fe):
    """The edge-interpolated P1 companion of a Phi function: its ND
    coefficients are the Phi edge DoFs, which Phi numbers first, on a view
    of the Phi map (the edge table and the 12 leading cell slots)."""
    if phi_fe.space != PHI:
        raise AssemblyError("nd_interpolant expects a phi function")
    pmap = phi_fe.dofmap
    ndim = int(np.count_nonzero(pmap.edge_dofs >= 0))
    nmap = DofMap(
        ND, pmap.mesh, ndim, None, pmap.edge_dofs, None, None,
        pmap.cell_table[:, : el.KIND_INFO[el.NEDELEC2]["dim"]],
    )
    return FeFunction(nmap, phi_fe.coeffs[:ndim].copy())
