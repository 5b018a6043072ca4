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


def _interior_ranks(flags):
    ranks = np.full(flags.shape[0], -1, dtype=np.int64)
    ids = np.flatnonzero(~flags)
    ranks[ids] = np.arange(ids.size)
    return ranks, ids.size


def build_dof_map(space, mesh):
    """Deterministic entity-major numbering of the interior DoFs."""
    if space not in SPACE_ELEMENT:
        raise AssemblyError(f"unknown space tag {space!r}")
    vrank, nvi = _interior_ranks(mesh.boundary_vertex)
    erank, nei = _interior_ranks(mesh.boundary_edge)
    frank, nfi = _interior_ranks(mesh.boundary_face)

    vertex_dofs = edge_dofs = face_dofs = cell_dofs = None
    if space == P2:
        vertex_dofs = np.where(vrank >= 0, vrank, -1)
        edge_dofs = np.where(erank >= 0, nvi + erank, -1)[:, None]
        dim = nvi + nei
    elif space == W:
        vertex_dofs = np.where(vrank >= 0, vrank, -1)
        edge_dofs = np.where(erank >= 0, nvi + erank, -1)[:, None]
        face_dofs = np.where(frank >= 0, nvi + nei + frank, -1)
        dim = nvi + nei + nfi
    elif space == ND:
        edge_dofs = np.where(
            erank[:, None] >= 0, 2 * erank[:, None] + np.arange(2), -1
        )
        dim = 2 * nei
    elif space == PHI:
        edge_dofs = np.where(
            erank[:, None] >= 0, 2 * erank[:, None] + np.arange(2), -1
        )
        face_dofs = np.where(frank >= 0, 2 * nei + frank, -1)
        dim = 2 * nei + nfi
    elif space == RT:
        face_dofs = np.where(frank >= 0, frank, -1)
        dim = nfi
    elif space == Q:
        cell_dofs = np.arange(mesh.num_tets)
        dim = mesh.num_tets

    layout = el.KIND_INFO[SPACE_ELEMENT[space]]["layout"]
    cols = []
    if layout[0]:
        cols.append(vertex_dofs[mesh.tets])
    if layout[1]:
        ge = edge_dofs[mesh.tet_to_edges]  # (nT, 6, k)
        cols.append(ge.reshape(mesh.num_tets, -1))
    if layout[2]:
        cols.append(face_dofs[mesh.tet_to_faces])
    if layout[3]:
        cols.append(cell_dofs[:, None])
    cell_table = np.concatenate(cols, axis=1)

    return DofMap(
        space=space,
        mesh=mesh,
        dim=dim,
        vertex_dofs=vertex_dofs,
        edge_dofs=edge_dofs,
        face_dofs=face_dofs,
        cell_dofs=cell_dofs,
        cell_table=cell_table,
    )


@dataclass
class AssembledForm:
    matrix: sp.csr_matrix
    row_space: str
    col_space: str
    kind: str


def gather_coefficients(dofmap, coeffs, tids=None):
    """Local coefficient arrays with zeros on eliminated boundary DoFs."""
    table = dofmap.cell_table if tids is None else dofmap.cell_table[tids]
    out = np.where(table >= 0, np.asarray(coeffs)[np.clip(table, 0, None)], 0.0)
    return out


def _accumulate(row_table, col_table, local, shape):
    """COO accumulation of (nT, a, b) local blocks into a csr matrix."""
    nT, a, b = local.shape
    rows = np.repeat(row_table[:, :, None], b, axis=2).reshape(-1)
    cols = np.repeat(col_table[:, None, :], a, axis=1).reshape(-1)
    vals = local.reshape(-1)
    keep = (rows >= 0) & (cols >= 0)
    mat = sp.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=shape
    )
    return mat.tocsr()


def _pairs_contract(weights, vol, A, B):
    """sum_q w_q A[t,q,i,...] B[t,q,j,...] * vol[t] -> (t, i, j)."""
    nT, nq, ni = A.shape[:3]
    nj = B.shape[2]
    Af = np.moveaxis(A, 2, 1).reshape(nT, ni, -1)
    wB = B * weights.reshape((1, -1) + (1,) * (B.ndim - 2))
    Bf = np.moveaxis(wB, 2, 1).reshape(nT, nj, -1)
    return np.matmul(Af, Bf.transpose(0, 2, 1)) * vol[:, None, None]


_FORM_SPACES = {
    "poisson_p2": (P2, P2),
    "phi_stiffness": (PHI, PHI),
    "phi_mass": (PHI, PHI),
    "ind_mass": (PHI, PHI),
    "curl_coupling": (PHI, RT),
    "curl_coupling_plain": (PHI, RT),
    "div_coupling": (Q, RT),
    "rt_mass": (RT, RT),
}

FORM_KINDS = tuple(_FORM_SPACES)

_SYMMETRIC_KINDS = {
    "poisson_p2",
    "phi_stiffness",
    "phi_mass",
    "ind_mass",
    "rt_mass",
}

_DEFAULT_DEGREE = {
    "poisson_p2": 2,
    "phi_stiffness": 8,
    "phi_mass": 8,
    "ind_mass": 2,
    "curl_coupling": 2,
    "curl_coupling_plain": 2,
    "rt_mass": 2,
}


def assemble_bilinear(kind, mesh, dofmaps, quad_degree=None, chunk=_CHUNK):
    """Assemble one of the discrete bilinear forms as a sparse matrix.

    ``dofmaps`` maps space tags to DofMap objects (must share ``mesh``).
    The vector-unknown form of the saddle stage is the sum
    ``eps**2 * phi_stiffness + ind_mass`` (``phi_mass`` without the edge
    interpolation); callers build it from the two parts.
    """
    if kind not in _FORM_SPACES:
        raise AssemblyError(f"unknown form kind {kind!r}")
    rs, cs = _FORM_SPACES[kind]
    for s in (rs, cs):
        if s not in dofmaps:
            raise AssemblyError(f"missing DofMap for space {s!r}")
        if dofmaps[s].mesh is not mesh:
            raise AssemblyError(f"DofMap for {s!r} built on a different mesh")
    rmap, cmap = dofmaps[rs], dofmaps[cs]
    geom = mesh_geometry(mesh)
    degree = _DEFAULT_DEGREE.get(kind, 2) if quad_degree is None else quad_degree

    # local matrices once per translation class, then scatter per tet
    rep = geom.rep_geometry if geom.rep_geometry is not None else geom
    pieces = []
    for lo in range(0, rep.num_tets, chunk):
        tids = np.arange(lo, min(lo + chunk, rep.num_tets))
        pieces.append(_local_form(kind, rep.take(tids), degree))
    local_reps = np.concatenate(pieces, axis=0)
    local = (
        local_reps[geom.classes]
        if local_reps.shape[0] < mesh.num_tets
        else local_reps
    )

    nT = mesh.num_tets
    blocks = []
    scatter_chunk = max(chunk, 8192)
    for lo in range(0, nT, scatter_chunk):
        tids = np.arange(lo, min(lo + scatter_chunk, nT))
        blocks.append(
            _accumulate(
                rmap.cell_table[tids], cmap.cell_table[tids], local[tids],
                (rmap.dim, cmap.dim),
            )
        )
    mat = blocks[0]
    for b in blocks[1:]:
        mat = mat + b
    if kind in _SYMMETRIC_KINDS:
        mat = (mat + mat.T) * 0.5
    return AssembledForm(mat.tocsr(), rs, cs, kind)


def _local_form(kind, g, degree):
    rule = get_rule(TET, degree)
    w, pts = rule.weights, rule.points
    if kind == "poisson_p2":
        grads = el.nodal_gradients(el.LAGRANGE_P2, g, pts)
        return _pairs_contract(w, g.volume, grads, grads)
    if kind == "phi_stiffness":
        J = el.nodal_gradients(el.PHI_NC, g, pts)
        nT, nq = J.shape[:2]
        J = J.reshape(nT, nq, 16, 9)
        return _pairs_contract(w, g.volume, J, J)
    if kind == "phi_mass":
        v = el.nodal_values(el.PHI_NC, g, pts)
        return _pairs_contract(w, g.volume, v, v)
    if kind == "ind_mass":
        vnd = el.nodal_values(el.NEDELEC2, g, pts)
        m12 = _pairs_contract(w, g.volume, vnd, vnd)
        local = np.zeros((m12.shape[0], 16, 16))
        local[:, :12, :12] = m12
        return local
    if kind in ("curl_coupling", "curl_coupling_plain"):
        vrt = el.nodal_values(el.RT0, g, pts)
        rt_int = np.einsum("q,tqja->tja", w, vrt) * g.volume[:, None, None]
        if kind == "curl_coupling":
            curls = el.nodal_curls(el.NEDELEC2, g)
            local = np.zeros((curls.shape[0], 16, 4))
            local[:, :12, :] = np.einsum("tia,tja->tij", curls, rt_int)
        else:
            curls = el.nodal_curls(el.PHI_NC, g)
            local = np.einsum("tia,tja->tij", curls, rt_int)
        return local
    if kind == "div_coupling":
        div = el.rt_nodal_divergences(g)
        return (div * g.volume[:, None])[:, None, :]
    if kind == "rt_mass":
        v = el.nodal_values(el.RT0, g, pts)
        return _pairs_contract(w, g.volume, v, v)
    raise AssemblyError(f"unknown form kind {kind!r}")


_LOAD_SPACES = {
    "f_vs_p2": P2,
    "gradw_vs_indphi": PHI,
    "indphi_vs_gradp2": P2,
    "gradw_vs_phi": PHI,
    "phi_vs_gradp2": P2,
}

_LOAD_DEGREE = {
    "f_vs_p2": 10,
    "gradw_vs_indphi": 2,
    "indphi_vs_gradp2": 2,
    "gradw_vs_phi": 5,
    "phi_vs_gradp2": 5,
}


def assemble_load(kind, mesh, dofmaps, data, quad_degree=None, chunk=_CHUNK):
    """Assemble a load vector.

    ``data`` is an analytic scalar field for ``f_vs_p2`` and a discrete
    function (object with ``dofmap`` and ``coeffs``) otherwise.
    """
    if kind not in _LOAD_SPACES:
        raise AssemblyError(f"unknown load kind {kind!r}")
    space = _LOAD_SPACES[kind]
    if space not in dofmaps or dofmaps[space].mesh is not mesh:
        raise AssemblyError(f"missing or mismatched DofMap for space {space!r}")
    target = dofmaps[space]
    degree = _LOAD_DEGREE[kind] if quad_degree is None else quad_degree
    rule = get_rule(TET, degree)
    w, pts = rule.weights, rule.points

    if kind != "f_vs_p2":
        # deferred: interpolate builds on this module
        from .interpolate import fe_gradients, fe_values, nd_interpolant

        src = data.dofmap
        expected = {"gradw_vs_indphi": P2, "indphi_vs_gradp2": PHI,
                    "gradw_vs_phi": P2, "phi_vs_gradp2": PHI}[kind]
        if src.space != expected:
            raise AssemblyError(
                f"{kind} expects a {expected!r} function, got {src.space!r}"
            )
        if src.mesh is not mesh:
            raise AssemblyError("data function lives on a different mesh")

    if kind == "indphi_vs_gradp2":
        data = nd_interpolant(data, build_dof_map(ND, mesh))

    geom = mesh_geometry(mesh)
    out = np.zeros(target.dim)
    nT = mesh.num_tets
    for lo in range(0, nT, chunk):
        tids = np.arange(lo, min(lo + chunk, nT))
        g = geom.take(tids)
        if kind == "f_vs_p2":
            phys = np.einsum("qi,tij->tqj", pts, g.vertices)
            fvals = np.asarray(data.value(phys.reshape(-1, 3))).reshape(phys.shape[:2])
            basis = el.nodal_values(el.LAGRANGE_P2, g, pts)
            local = np.einsum("q,tq,tqi->ti", w, fvals, basis) * g.volume[:, None]
        else:
            if kind in ("gradw_vs_indphi", "gradw_vs_phi"):
                vals = fe_gradients(data, pts, tids)
                test = el.NEDELEC2 if kind == "gradw_vs_indphi" else el.PHI_NC
                basis = el.nodal_values(test, g, pts)
            else:
                vals = fe_values(data, pts, tids)
                basis = el.nodal_gradients(el.LAGRANGE_P2, g, pts)
            local = np.einsum("q,tqa,tqia->ti", w, vals, basis) * g.volume[:, None]
        # an ND test basis covers the 12 edge slots that lead a Phi cell row
        table = target.cell_table[tids][:, : local.shape[1]]
        keep = table >= 0
        np.add.at(out, table[keep], local[keep])
    return out


def q_weights(mesh):
    """Cell measures, i.e. the L2 inner product weights of the constants."""
    return mesh_geometry(mesh).volume.copy()
