"""Tetrahedral meshes of the unit cube with oriented subsimplex enumeration.

The mesh stores a single global orientation per entity: an edge tangent
points from the smaller to the larger global vertex id, and a face normal
comes from the cross product of the ascending-id vertex triple.  Every
element references entities through these global conventions, which makes
shared degrees of freedom single-valued without per-element sign tables.
"""

from dataclasses import dataclass, field

import numpy as np

# local subsimplices of a tet, by local vertex index
LOCAL_EDGES = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
LOCAL_FACES = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])


class MeshIntegrityError(Exception):
    """Mesh connectivity violates manifold/conformity assumptions."""


class DegenerateGeometryError(Exception):
    """A tetrahedron has zero or negative volume."""


@dataclass
class SimplicialMesh:
    vertices: np.ndarray  # (nV, 3)
    tets: np.ndarray  # (nT, 4) vertex ids, positive volume order
    edges: np.ndarray  # (nE, 2) ascending vertex ids, lexsorted
    faces: np.ndarray  # (nF, 3) ascending vertex ids, lexsorted
    tet_to_edges: np.ndarray  # (nT, 6) global edge ids per LOCAL_EDGES
    tet_to_faces: np.ndarray  # (nT, 4) global face ids per LOCAL_FACES
    face_to_tets: np.ndarray  # (nF, 2) adjacent tet ids, -1 padding
    # local vertex indices reordered so global ids ascend
    tet_edge_vertices: np.ndarray  # (nT, 6, 2)
    tet_face_vertices: np.ndarray  # (nT, 4, 3)
    boundary_vertex: np.ndarray = field(default=None)
    boundary_edge: np.ndarray = field(default=None)
    boundary_face: np.ndarray = field(default=None)
    h: float = 0.0

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    @property
    def num_faces(self):
        return self.faces.shape[0]

    @property
    def num_tets(self):
        return self.tets.shape[0]

    def interior_counts(self):
        """Counts of interior vertices, edges and faces."""
        return (
            int(np.count_nonzero(~self.boundary_vertex)),
            int(np.count_nonzero(~self.boundary_edge)),
            int(np.count_nonzero(~self.boundary_face)),
        )

    def euler_characteristic(self):
        return self.num_vertices - self.num_edges + self.num_faces - self.num_tets


@dataclass
class MeshGeometry:
    """Batched affine geometry for all tets of a mesh (arrays over tets)."""

    vertices: np.ndarray  # (nT, 4, 3)
    volume: np.ndarray  # (nT,)
    grad_lambda: np.ndarray  # (nT, 4, 3)
    edge_tangents: np.ndarray  # (nT, 6, 3)
    edge_lengths: np.ndarray  # (nT, 6)
    face_normals: np.ndarray  # (nT, 4, 3)
    face_areas: np.ndarray  # (nT, 4)
    face_outward_sign: np.ndarray  # (nT, 4)
    diameter: np.ndarray  # (nT,)
    edge_vertices: np.ndarray = None  # (nT, 6, 2) local ids, ascending global
    face_vertices: np.ndarray = None  # (nT, 4, 3) local ids, ascending global
    # tets grouped by exact translation class: structured meshes repeat a
    # handful of shapes, so per-element work runs on one representative each
    classes: np.ndarray = None  # (nT,) class index per tet
    rep_geometry: object = None  # MeshGeometry of one representative per class

    @property
    def num_tets(self):
        return self.vertices.shape[0]

    def take(self, tids):
        return MeshGeometry(
            self.vertices[tids],
            self.volume[tids],
            self.grad_lambda[tids],
            self.edge_tangents[tids],
            self.edge_lengths[tids],
            self.face_normals[tids],
            self.face_areas[tids],
            self.face_outward_sign[tids],
            self.diameter[tids],
            self.edge_vertices[tids],
            self.face_vertices[tids],
            self.classes[tids] if self.classes is not None else None,
            self.rep_geometry,
        )


def _unique_rows(rows):
    """Sorted unique rows and the inverse map, deterministic."""
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    return uniq, inverse.reshape(-1)


def build_mesh_from_tets(vertices, tets):
    """Derive edges, faces, incidence and orientation tables from tet list."""
    vertices = np.asarray(vertices, dtype=float)
    tets = np.asarray(tets, dtype=np.int64)
    if tets.ndim != 2 or tets.shape[1] != 4:
        raise MeshIntegrityError("tets must be an (nT, 4) integer array")
    nT = tets.shape[0]

    edge_pairs = np.sort(tets[:, LOCAL_EDGES], axis=2).reshape(-1, 2)
    edges, edge_inv = _unique_rows(edge_pairs)
    tet_to_edges = edge_inv.reshape(nT, 6)

    face_triples = np.sort(tets[:, LOCAL_FACES], axis=2).reshape(-1, 3)
    faces, face_inv = _unique_rows(face_triples)
    tet_to_faces = face_inv.reshape(nT, 4)

    nF = faces.shape[0]
    face_to_tets = np.full((nF, 2), -1, dtype=np.int64)
    face_count = np.zeros(nF, dtype=np.int64)
    order = np.argsort(tet_to_faces.reshape(-1), kind="stable")
    flat_faces = tet_to_faces.reshape(-1)[order]
    flat_tets = np.repeat(np.arange(nT), 4)[order]
    for f, t in zip(flat_faces, flat_tets):
        c = face_count[f]
        if c >= 2:
            raise MeshIntegrityError(f"face {f} incident to more than 2 tets")
        face_to_tets[f, c] = t
        face_count[f] = c + 1

    # ascending-global-id local orderings
    gids = tets[:, LOCAL_EDGES]  # (nT, 6, 2)
    swap = gids[:, :, 0] > gids[:, :, 1]
    tet_edge_vertices = np.broadcast_to(LOCAL_EDGES, (nT, 6, 2)).copy()
    tet_edge_vertices[swap] = tet_edge_vertices[swap][:, ::-1]

    gidf = tets[:, LOCAL_FACES]  # (nT, 4, 3)
    perm = np.argsort(gidf, axis=2)
    tet_face_vertices = np.take_along_axis(
        np.broadcast_to(LOCAL_FACES, (nT, 4, 3)), perm, axis=2
    )

    mesh = SimplicialMesh(
        vertices=vertices,
        tets=tets,
        edges=edges,
        faces=faces,
        tet_to_edges=tet_to_edges,
        tet_to_faces=tet_to_faces,
        face_to_tets=face_to_tets,
        tet_edge_vertices=tet_edge_vertices,
        tet_face_vertices=tet_face_vertices,
    )
    classify_boundary(mesh)
    X = vertices[tets]
    diff = X[:, :, None, :] - X[:, None, :, :]
    mesh.h = float(np.sqrt((diff**2).sum(-1).max()))
    return mesh


def classify_boundary(mesh):
    """Fill boundary flags: face by incidence, edge/vertex by containment."""
    nF = mesh.num_faces
    counts = (mesh.face_to_tets >= 0).sum(axis=1)
    if np.any(counts == 0) or np.any(counts > 2):
        raise MeshIntegrityError("non-manifold face incidence")
    boundary_face = counts == 1

    boundary_edge = np.zeros(mesh.num_edges, dtype=bool)
    bfaces = mesh.faces[boundary_face]
    if bfaces.size:
        face_edges = np.sort(
            bfaces[:, np.array([(0, 1), (0, 2), (1, 2)])], axis=2
        ).reshape(-1, 2)
        idx = _find_rows(mesh.edges, face_edges)
        boundary_edge[idx] = True

    boundary_vertex = np.zeros(mesh.num_vertices, dtype=bool)
    boundary_vertex[mesh.edges[boundary_edge].reshape(-1)] = True

    mesh.boundary_face = boundary_face
    mesh.boundary_edge = boundary_edge
    mesh.boundary_vertex = boundary_vertex
    return mesh


def _find_rows(table, queries):
    """Indices of query rows inside a lexsorted unique row table."""
    nv = int(table.max()) + 2 if table.size else 1
    key = table[:, 0].astype(np.int64)
    qkey = queries[:, 0].astype(np.int64)
    for c in range(1, table.shape[1]):
        key = key * nv + table[:, c]
        qkey = qkey * nv + queries[:, c]
    pos = np.searchsorted(key, qkey)
    if np.any(pos >= key.size) or np.any(key[pos] != qkey):
        raise MeshIntegrityError("query rows not present in entity table")
    return pos


def build_unit_cube_mesh(n):
    """Uniform 6-tets-per-subcube (Kuhn) triangulation of the unit cube.

    Produces (n+1)^3 lattice vertices and 6*n^3 tets; all subcube
    diagonals run parallel to (1,1,1).
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"subdivision count must be a positive integer, got {n!r}")
    if 6 * n**3 > 2**31:
        raise ValueError(f"entity counts overflow for n={n}")

    n = int(n)
    k = n + 1
    grid = np.arange(k)
    # vertex id = x + (n+1)*y + (n+1)^2*z
    xs = np.tile(grid, k * k)
    ys = np.tile(np.repeat(grid, k), k)
    zs = np.repeat(grid, k * k)
    vertices = np.column_stack([xs, ys, zs]).astype(float) / n

    def vid(x, y, z):
        return x + k * y + k * k * z

    from itertools import permutations

    perms = list(permutations(range(3)))
    cubes = np.array(
        [(x, y, z) for z in range(n) for y in range(n) for x in range(n)],
        dtype=np.int64,
    )
    tets = np.empty((6 * n**3, 4), dtype=np.int64)
    axes = np.eye(3, dtype=np.int64)
    for p, perm in enumerate(perms):
        corners = np.zeros((4, 3), dtype=np.int64)
        for step in range(3):
            corners[step + 1] = corners[step] + axes[perm[step]]
        # even permutations give det > 0; swap last two otherwise
        parity = _perm_parity(perm)
        if parity < 0:
            corners[[2, 3]] = corners[[3, 2]]
        offs = cubes[:, None, :] + corners[None, :, :]  # (ncubes, 4, 3)
        ids = vid(offs[..., 0], offs[..., 1], offs[..., 2])
        tets[p::6] = ids
    return build_mesh_from_tets(vertices, tets)


def _perm_parity(perm):
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def mesh_geometry(mesh, check=True):
    """Batched affine geometry for all tets; cached on the mesh object."""
    cached = getattr(mesh, "_geometry", None)
    if cached is not None:
        return cached
    X = mesh.vertices[mesh.tets]  # (nT, 4, 3)
    E = X[:, 1:4, :] - X[:, 0:1, :]  # (nT, 3, 3) rows are edge vectors
    det = np.linalg.det(E)
    if check and np.any(det <= 0):
        bad = int(np.argmin(det))
        raise DegenerateGeometryError(
            f"tet {bad} has nonpositive volume {det[bad] / 6.0:g}"
        )
    vol = det / 6.0
    inv = np.linalg.inv(E)
    grad_lambda = np.empty((mesh.num_tets, 4, 3))
    grad_lambda[:, 1:4, :] = inv.transpose(0, 2, 1)
    grad_lambda[:, 0, :] = -grad_lambda[:, 1:4, :].sum(axis=1)

    av = np.take_along_axis(X, mesh.tet_edge_vertices[:, :, 0, None], axis=1)
    bv = np.take_along_axis(X, mesh.tet_edge_vertices[:, :, 1, None], axis=1)
    tvec = bv - av
    elen = np.linalg.norm(tvec, axis=2)
    tang = tvec / elen[:, :, None]

    p = np.take_along_axis(
        X[:, None, :, :].repeat(4, axis=1),
        mesh.tet_face_vertices[:, :, :, None],
        axis=2,
    )  # (nT, 4, 3verts, 3)
    cr = np.cross(p[:, :, 1] - p[:, :, 0], p[:, :, 2] - p[:, :, 0])
    area2 = np.linalg.norm(cr, axis=2)
    normals = cr / area2[:, :, None]
    areas = 0.5 * area2
    # outward normal on face i is -grad_lambda_i / |grad_lambda_i|
    out = -grad_lambda / np.linalg.norm(grad_lambda, axis=2)[:, :, None]
    sign = np.sign(np.einsum("tfk,tfk->tf", out, normals))

    diff = X[:, :, None, :] - X[:, None, :, :]
    diam = np.sqrt((diff**2).sum(-1).max(axis=(1, 2)))

    geom = MeshGeometry(
        vertices=X,
        volume=vol,
        grad_lambda=grad_lambda,
        edge_tangents=tang,
        edge_lengths=elen,
        face_normals=normals,
        face_areas=areas,
        face_outward_sign=sign,
        diameter=diam,
        edge_vertices=mesh.tet_edge_vertices,
        face_vertices=mesh.tet_face_vertices,
    )
    geom.classes, reps = _translation_classes(mesh, X)
    if reps.size < mesh.num_tets:
        geom.rep_geometry = geom.take(reps)
        geom.rep_geometry.rep_geometry = None
    mesh._geometry = geom
    return geom


def _translation_classes(mesh, X):
    """Group tets whose vertex offsets and orientation tables agree exactly.

    Grouping is by bitwise equality, so it never merges tets that differ;
    unstructured meshes simply fall back to one class per tet.
    """
    offs = X - X[:, 0:1, :]
    key = np.concatenate(
        [
            offs.reshape(mesh.num_tets, -1),
            mesh.tet_edge_vertices.reshape(mesh.num_tets, -1).astype(float),
            mesh.tet_face_vertices.reshape(mesh.num_tets, -1).astype(float),
        ],
        axis=1,
    )
    _, reps, classes = np.unique(key, axis=0, return_index=True, return_inverse=True)
    return classes.reshape(-1), reps


def tet_geometry(mesh, tid):
    """Batched geometry of the single tet ``tid`` (arrays over one tet)."""
    if tid < 0 or tid >= mesh.num_tets:
        raise IndexError(f"tet id {tid} out of range")
    return mesh_geometry(mesh).take([tid])
