"""Global DoF numbering and assembly of the discrete bilinear forms.

Homogeneous boundary conditions are imposed structurally: only interior
entities carry global DoFs, and local DoFs on boundary entities map to -1
in the cell tables.  Numbering is entity-major with ascending entity ids,
so assembly is deterministic.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import elements as el
from .fields import quadrature_points
from .mesh import mesh_geometry
from .quadrature import TET, get_rule

P2 = "p2"
ND = "nd"
RT = "rt"
Q = "q"
PHI = "phi"
W = "w"

SPACE_ELEMENT = {
    P2: el.LAGRANGE_P2,
    ND: el.NEDELEC2,
    RT: el.RT0,
    Q: el.P0,
    PHI: el.PHI_NC,
    W: el.W_NC,
}

_CHUNK = 1024


class AssemblyError(Exception):
    """Space/mesh mismatch or invalid assembly arguments."""


@dataclass
class DofMap:
    """Interior-only global numbering for one space on one mesh."""

    space: str
    mesh: object
    dim: int
    vertex_dofs: np.ndarray  # (nV,) or None
    edge_dofs: np.ndarray  # (nE, k) or None
    face_dofs: np.ndarray  # (nF,) or None
    cell_dofs: np.ndarray  # (nT,) or None
    cell_table: np.ndarray  # (nT, nd_local), -1 where eliminated

    @property
    def element(self):
        return SPACE_ELEMENT[self.space]


def build_dof_map(space, mesh):
    """Entity-major numbering of the interior DoFs.

    The element layout gives k DoFs per vertex, edge, face and cell; each
    entity type with k > 0 takes the next block of k * (interior count)
    numbers, in layout order, k consecutive per interior entity in
    ascending id.  ND is thus the edge prefix of Phi, and P2 and W number
    the interior vertices first.
    """
    if space not in SPACE_ELEMENT:
        raise AssemblyError(f"unknown space tag {space!r}")
    nT = mesh.num_tets
    entities = (  # (boundary flags, tet incidence) per entity type
        (mesh.boundary_vertex, mesh.tets),
        (mesh.boundary_edge, mesh.tet_to_edges),
        (mesh.boundary_face, mesh.tet_to_faces),
        (np.zeros(nT, dtype=bool), np.arange(nT)[:, None]),
    )
    layout = el.KIND_INFO[SPACE_ELEMENT[space]]["layout"]
    dofs, blocks, dim = [None] * 4, [], 0
    for i, (k, (boundary, incidence)) in enumerate(zip(layout, entities)):
        if k:
            interior = np.flatnonzero(~boundary)
            ids = np.full((boundary.size, k), -1, dtype=np.int64)
            ids[interior] = dim + k * np.arange(interior.size)[:, None] + np.arange(k)
            dim += k * interior.size
            blocks.append(ids[incidence].reshape(nT, -1))
            dofs[i] = ids if i == 1 else ids[:, 0]  # only edges keep (n, k)
    return DofMap(space, mesh, dim, *dofs, np.concatenate(blocks, axis=1))


@dataclass
class AssembledForm:
    """The sparse matrix of a bilinear form (``assemble_bilinear``); callers
    read ``.matrix``."""

    matrix: sp.csr_matrix


def gather_coefficients(dofmap, coeffs, tids=None):
    """Local coefficient arrays with zeros on eliminated boundary DoFs."""
    table = dofmap.cell_table if tids is None else dofmap.cell_table[tids]
    out = np.where(table >= 0, np.asarray(coeffs)[np.clip(table, 0, None)], 0.0)
    return out


def _accumulate(row_table, col_table, blocks, classes, shape, symmetric=False):
    """One COO pass of per-class (nc, a, b) local blocks into a csr matrix;
    tet t takes the block of its class ``classes[t]``.

    The tables' leading a and b columns number the block's rows and
    columns; entries on eliminated DoFs are dropped, and so are the zeros
    the summed entries leave.  A symmetric form (one table for rows and
    columns) averages each block with its transpose and scatters only the
    entries with row <= column; that triangle plus its transpose, with the
    diagonal halved first, holds the diagonal and a copy of each M[i, j]
    in M[j, i], both exactly.
    """
    _, a, b = blocks.shape
    if symmetric:
        blocks = (blocks + blocks.transpose(0, 2, 1)) * 0.5
    shape3 = (classes.size, a, b)
    rows = np.broadcast_to(row_table[:, :a, None].astype(np.int32), shape3)
    cols = np.broadcast_to(col_table[:, None, :b].astype(np.int32), shape3)
    keep = (rows >= 0) & (cols >= 0)
    if symmetric:
        keep &= rows <= cols
    # per-tet blocks are gathered a chunk of tets at a time, never all at once
    data = np.empty(np.count_nonzero(keep))
    end = 0
    for lo in range(0, classes.size, _CHUNK):
        part = blocks[classes[lo : lo + _CHUNK]][keep[lo : lo + _CHUNK]]
        data[end : end + part.size] = part
        end += part.size
    rows, cols = rows[keep], cols[keep]
    del keep
    coo = sp.coo_matrix((data, (rows, cols)), shape=shape)
    del data, rows, cols
    mat = coo.tocsr()
    del coo
    mat.eliminate_zeros()
    if symmetric:
        mat.setdiag(mat.diagonal() * 0.5)
        mat = mat + mat.T
    return mat


def _pairs_contract(weights, vol, A, B):
    """sum_q w_q A[t,q,i,...] B[t,q,j,...] * vol[t] -> (t, i, j)."""
    nT, nq, ni = A.shape[:3]
    nj = B.shape[2]
    Af = np.moveaxis(A, 2, 1).reshape(nT, ni, -1)
    wB = B * weights.reshape((1, -1) + (1,) * (B.ndim - 2))
    Bf = np.moveaxis(wB, 2, 1).reshape(nT, nj, -1)
    return np.matmul(Af, Bf.transpose(0, 2, 1)) * vol[:, None, None]


# kind -> (row space, column space, quadrature degree, symmetric, pair):
# ``pair`` is (element, gradients) for a form that pairs one element's nodal
# values, or gradients, with themselves, and None for the couplings
_FORMS = {
    "poisson_p2": (P2, P2, 2, True, (el.LAGRANGE_P2, True)),
    "phi_stiffness": (PHI, PHI, 8, True, (el.PHI_NC, True)),
    "phi_mass": (PHI, PHI, 8, True, (el.PHI_NC, False)),
    "ind_mass": (PHI, PHI, 2, True, (el.NEDELEC2, False)),
    "curl_coupling": (PHI, RT, 2, False, None),
    "curl_coupling_plain": (PHI, RT, 2, False, None),
    "div_coupling": (Q, RT, 2, False, None),
    "rt_mass": (RT, RT, 2, True, (el.RT0, False)),
}

FORM_KINDS = tuple(_FORMS)


def assemble_bilinear(kind, mesh, dofmaps):
    """Assemble one of the discrete bilinear forms as a sparse matrix.

    ``dofmaps`` maps space tags to DofMap objects (must share ``mesh``).
    The vector-unknown form of the saddle stage is the sum
    ``eps**2 * phi_stiffness + ind_mass`` (``phi_mass`` without the edge
    interpolation); callers build it from the two parts.
    """
    if kind not in _FORMS:
        raise AssemblyError(f"unknown form kind {kind!r}")
    rs, cs, degree, symmetric, _ = _FORMS[kind]
    for s in (rs, cs):
        if s not in dofmaps:
            raise AssemblyError(f"missing DofMap for space {s!r}")
        if dofmaps[s].mesh is not mesh:
            raise AssemblyError(f"DofMap for {s!r} built on a different mesh")
    rmap, cmap = dofmaps[rs], dofmaps[cs]
    geom = mesh_geometry(mesh)

    # local matrices once per translation class, then scatter per tet
    rep, classes = geom.rep_geometry, geom.classes
    if rep is None:  # no translation structure: one class per tet
        rep, classes = geom, np.arange(mesh.num_tets)
    pieces = []
    for lo in range(0, rep.num_tets, _CHUNK):
        tids = np.arange(lo, min(lo + _CHUNK, rep.num_tets))
        pieces.append(_local_form(kind, rep.take(tids), degree))
    blocks = np.concatenate(pieces, axis=0)
    del pieces
    mat = _accumulate(
        rmap.cell_table, cmap.cell_table, blocks, classes,
        (rmap.dim, cmap.dim), symmetric,
    )
    return AssembledForm(mat)


def _local_form(kind, g, degree):
    rule = get_rule(TET, degree)
    w, pts = rule.weights, rule.points
    pair = _FORMS[kind][4]
    if pair is not None:
        element, gradients = pair
        evaluate = el.nodal_gradients if gradients else el.nodal_values
        v = evaluate(element, g, pts)
        return _pairs_contract(w, g.volume, v, v)
    if kind in ("curl_coupling", "curl_coupling_plain"):
        vrt = el.nodal_values(el.RT0, g, pts)
        rt_int = np.einsum("q,tqja->tja", w, vrt) * g.volume[:, None, None]
        element = el.NEDELEC2 if kind == "curl_coupling" else el.PHI_NC
        return np.einsum("tia,tja->tij", el.nodal_curls(element, g), rt_int)
    # div_coupling
    div = el.rt_nodal_divergences(g)
    return (div * g.volume[:, None])[:, None, :]


# kind -> (target space, space of the discrete data or None for an analytic
# source, quadrature degree, test element, whether its gradients are tested)
_LOADS = {
    "f_vs_p2": (P2, None, 10, el.LAGRANGE_P2, False),
    "gradw_vs_indphi": (PHI, P2, 2, el.NEDELEC2, False),
    "indphi_vs_gradp2": (P2, PHI, 2, el.LAGRANGE_P2, True),
    "gradw_vs_phi": (PHI, P2, 5, el.PHI_NC, False),
    "phi_vs_gradp2": (P2, PHI, 5, el.LAGRANGE_P2, True),
}


def assemble_load(kind, dofmaps, data):
    """Assemble a load vector on the mesh of its target DofMap in ``dofmaps``.

    ``data`` is an analytic scalar field for ``f_vs_p2`` and a discrete
    function (object with ``dofmap`` and ``coeffs``) otherwise.
    """
    if kind not in _LOADS:
        raise AssemblyError(f"unknown load kind {kind!r}")
    space, source, degree, test, gradients = _LOADS[kind]
    if space not in dofmaps:
        raise AssemblyError(f"missing DofMap for space {space!r}")
    target = dofmaps[space]
    mesh = target.mesh
    rule = get_rule(TET, degree)
    w, pts = rule.weights, rule.points

    if source is not None:
        # deferred: interpolate builds on this module
        from .interpolate import fe_gradients, fe_values, nd_interpolant

        src = data.dofmap
        if src.space != source:
            raise AssemblyError(
                f"{kind} expects a {source!r} function, got {src.space!r}"
            )
        if src.mesh is not mesh:
            raise AssemblyError("data function lives on a different mesh")

    if kind == "indphi_vs_gradp2":
        data = nd_interpolant(data)

    geom = mesh_geometry(mesh)
    if source is None:
        points = quadrature_points(geom, pts)
    if geom.rep_geometry is not None:
        # weighted test basis per class, (nc, P * value size, nd): one GEMM
        # per class contracts the data values against it
        basis = el.class_table(test, geom.rep_geometry, pts, gradients)
        nc, nd = basis.shape[:2]
        weighted = basis.reshape(nc, nd, w.size, -1) * w[:, None]
        weighted = np.ascontiguousarray(weighted.reshape(nc, nd, -1).transpose(0, 2, 1))
    out = np.zeros(target.dim)
    nT = mesh.num_tets
    for lo in range(0, nT, _CHUNK):
        tids = np.arange(lo, min(lo + _CHUNK, nT))
        if source is None:
            vals = np.asarray(data.value(points.take(tids))).reshape(tids.size, w.size)
        elif source == P2:  # a P2 datum enters through its gradient
            vals = fe_gradients(data, pts, tids)
        else:
            vals = fe_values(data, pts, tids)
        if geom.rep_geometry is not None:
            flat = vals.reshape(tids.size, -1)
            local = el.class_matmul(geom.classes[tids], flat, weighted)
        else:
            evaluate = el.nodal_gradients if gradients else el.nodal_values
            basis = evaluate(test, geom.take(tids), pts)
            spec = "q,tq,tqi->ti" if vals.ndim == 2 else "q,tqa,tqia->ti"
            local = np.einsum(spec, w, vals, basis)
        local *= geom.volume[tids, None]
        # an ND test basis covers the 12 edge slots that lead a Phi cell row
        table = target.cell_table[tids][:, : local.shape[1]]
        keep = table >= 0
        np.add.at(out, table[keep], local[keep])
    return out


def q_weights(mesh):
    """Cell measures, i.e. the L2 inner product weights of the constants."""
    return mesh_geometry(mesh).volume.copy()
