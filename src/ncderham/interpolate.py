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
from .assembly import ND, P2, PHI, Q, RT, W, AssemblyError, DofMap, gather_coefficients
from .mesh import mesh_geometry


@dataclass
class FeFunction:
    """A discrete field: coefficients over the interior DoFs of one space."""

    dofmap: DofMap
    coeffs: np.ndarray

    @property
    def space(self):
        return self.dofmap.space

    def copy(self):
        return FeFunction(self.dofmap, self.coeffs.copy())


@dataclass
class OperatorMatrix:
    matrix: sp.csr_matrix
    domain: str
    codomain: str
    kind: str


def _edge_data(mesh):
    ids = np.flatnonzero(~mesh.boundary_edge)
    va = mesh.vertices[mesh.edges[ids, 0]]
    vb = mesh.vertices[mesh.edges[ids, 1]]
    lengths = np.linalg.norm(vb - va, axis=1)
    return ids, lengths


def canonical_interpolate(
    dofmap, field, edge_degree=11, tri_degree=8, tet_degree=8, zero_mean=True
):
    """Interpolate an analytic field by evaluating the canonical DoFs.

    The element DoFs are applied on every tet and scattered through the
    cell table; local DoFs follow the global orientation conventions, so a
    DoF shared by several tets receives the same value from each.  For the
    piecewise-constant space the result is the elementwise mean, shifted to
    zero global mean unless ``zero_mean`` is False.
    """
    geom = mesh_geometry(dofmap.mesh)
    local = el.apply_dofs(
        dofmap.element, geom, field, edge_degree, tri_degree, tet_degree
    )
    table = dofmap.cell_table
    keep = table >= 0
    coeffs = np.zeros(dofmap.dim)
    coeffs[table[keep]] = local[keep]
    if dofmap.space == Q and zero_mean:
        coeffs -= (coeffs @ geom.volume) / geom.volume.sum()
    return FeFunction(dofmap, coeffs)


def fe_values(fe, bary, tids=None):
    """Values of a discrete function at barycentric points, (nT, P[, 3]).

    ``bary`` is (P, 4) for points shared by all tets or (nT, P, 4) per tet;
    ``tids`` restricts the evaluation to those tets.  Every evaluation of a
    discrete field goes through this function or ``fe_gradients``.
    """
    dofmap = fe.dofmap
    geom = mesh_geometry(dofmap.mesh)
    if tids is not None:
        geom = geom.take(tids)
    local = gather_coefficients(dofmap, fe.coeffs, tids)
    basis = el.nodal_values(dofmap.element, geom, bary)
    if basis.ndim == 4:
        return np.einsum("tj,tqja->tqa", local, basis)
    return np.einsum("tj,tqj->tq", local, basis)


def fe_gradients(fe, bary, tids=None):
    """Gradients/Jacobians of a discrete function, (nT, P, 3[, 3])."""
    dofmap = fe.dofmap
    geom = mesh_geometry(dofmap.mesh)
    if tids is not None:
        geom = geom.take(tids)
    local = gather_coefficients(dofmap, fe.coeffs, tids)
    basis = el.nodal_gradients(dofmap.element, geom, bary)
    if basis.ndim == 5:
        return np.einsum("tj,tqjab->tqab", local, basis)
    return np.einsum("tj,tqja->tqa", local, basis)


def _require(dofmaps, *spaces):
    for s in spaces:
        if s not in dofmaps:
            raise AssemblyError(f"operator needs a DofMap for space {s!r}")
    meshes = {id(dofmaps[s].mesh) for s in spaces}
    if len(meshes) != 1:
        raise AssemblyError("operator DofMaps built on different meshes")


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
    nv = mesh.num_vertices
    ekey = mesh.edges[:, 0].astype(np.int64) * nv + mesh.edges[:, 1]
    rows, cols, vals = [], [], []
    for i, j, sign in pairs:
        key = tri[:, i].astype(np.int64) * nv + tri[:, j]
        eid = np.searchsorted(ekey, key)
        for m in range(2):
            dof = edge_dofs[eid, m]
            keep = dof >= 0
            rows.append(face_dofs[ids][keep])
            cols.append(dof[keep])
            vals.append(np.full(int(keep.sum()), sign))
    return rows, cols, vals


def diff_operator_matrix(kind, dofmaps):
    """Exact sparse operator between spaces.

    Kinds: ``grad`` (w -> phi), ``curl`` (phi -> rt), ``div`` (rt -> q),
    ``ind`` (phi -> nd, edge-DoF selection), ``grad_nd`` (p2 -> nd),
    ``curl_nd`` (nd -> rt).
    """
    if kind == "grad":
        _require(dofmaps, W, PHI)
        wmap, pmap = dofmaps[W], dofmaps[PHI]
        mesh = wmap.mesh
        rows, cols, vals = _edge_gradient_rows(
            mesh, pmap.edge_dofs, wmap.vertex_dofs, wmap.edge_dofs
        )
        ids = np.flatnonzero(~mesh.boundary_face)
        rows.append(pmap.face_dofs[ids])
        cols.append(wmap.face_dofs[ids])
        vals.append(np.ones(ids.size))
        mat = _triplets(rows, cols, vals, (pmap.dim, wmap.dim))
        return OperatorMatrix(mat, W, PHI, kind)

    if kind == "grad_nd":
        _require(dofmaps, P2, ND)
        pmap, nmap = dofmaps[P2], dofmaps[ND]
        rows, cols, vals = _edge_gradient_rows(
            pmap.mesh, nmap.edge_dofs, pmap.vertex_dofs, pmap.edge_dofs
        )
        mat = _triplets(rows, cols, vals, (nmap.dim, pmap.dim))
        return OperatorMatrix(mat, P2, ND, kind)

    if kind in ("curl", "curl_nd"):
        domain = PHI if kind == "curl" else ND
        _require(dofmaps, domain, RT)
        dmap, rmap = dofmaps[domain], dofmaps[RT]
        rows, cols, vals = _circulation_rows(
            dmap.mesh, rmap.face_dofs, dmap.edge_dofs
        )
        mat = _triplets(rows, cols, vals, (rmap.dim, dmap.dim))
        return OperatorMatrix(mat, domain, RT, kind)

    if kind == "div":
        _require(dofmaps, RT, Q)
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
        mat = _triplets(rows, cols, vals, (qmap.dim, rmap.dim))
        return OperatorMatrix(mat, RT, Q, kind)

    if kind == "ind":
        _require(dofmaps, PHI, ND)
        pmap, nmap = dofmaps[PHI], dofmaps[ND]
        eye = sp.eye(nmap.dim, format="csr")
        pad = sp.csr_matrix((nmap.dim, pmap.dim - nmap.dim))
        mat = sp.hstack([eye, pad]).tocsr()
        return OperatorMatrix(mat, PHI, ND, kind)

    raise AssemblyError(f"unknown operator kind {kind!r}")


def _triplets(rows, cols, vals, shape):
    r = np.concatenate([np.asarray(x, dtype=np.int64) for x in rows])
    c = np.concatenate([np.asarray(x, dtype=np.int64) for x in cols])
    v = np.concatenate([np.asarray(x, dtype=float) for x in vals])
    return sp.coo_matrix((v, (r, c)), shape=shape).tocsr()


def nd_interpolant(phi_fe, nd_dofmap):
    """The edge-interpolated P1 companion of a Phi function."""
    if phi_fe.space != PHI:
        raise AssemblyError("nd_interpolant expects a phi function")
    return FeFunction(nd_dofmap, phi_fe.coeffs[: nd_dofmap.dim].copy())
