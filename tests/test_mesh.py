import numpy as np
import pytest

from ncderham.mesh import (
    LOCAL_EDGES,
    KUHN_PERMS,
    LOCAL_FACES,
    DegenerateGeometryError,
    MeshIntegrityError,
    build_mesh_from_tets,
    build_unit_cube_mesh,
    mesh_geometry,
)
from ncderham.mesh import _translation_classes
from test_fields import _jittered_cube



def test_counts_n1():
    mesh = build_unit_cube_mesh(1)
    assert mesh.num_vertices == 8
    assert mesh.num_tets == 6
    assert mesh.num_edges == 19
    assert mesh.num_faces == 18
    nv, ne, nf = mesh.interior_counts()
    assert nv == 0
    assert ne == 1  # the main diagonal
    assert nf == 6
    # the single interior edge really is the cube diagonal
    eid = int(np.flatnonzero(~mesh.boundary_edge)[0])
    a, b = mesh.edges[eid]
    assert np.allclose(mesh.vertices[a], (0, 0, 0))
    assert np.allclose(mesh.vertices[b], (1, 1, 1))


def test_counts_n2():
    mesh = build_unit_cube_mesh(2)
    assert mesh.num_vertices == 27
    assert mesh.num_tets == 48
    assert mesh.interior_counts()[0] == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_euler_identity_and_boundary_faces(n):
    mesh = build_unit_cube_mesh(n)
    euler = mesh.num_vertices - mesh.num_edges + mesh.num_faces - mesh.num_tets
    assert euler == 1
    assert int(mesh.boundary_face.sum()) == 12 * n**2
    assert mesh.num_tets == 6 * n**3
    # the longest tet edge is a subcube diagonal
    X = mesh.vertices[mesh.tets]
    h = np.sqrt(((X[:, :, None] - X[:, None]) ** 2).sum(-1).max())
    assert abs(h - np.sqrt(3.0) / n) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conformity_and_orientation(n):
    mesh = build_unit_cube_mesh(n)
    geom = mesh_geometry(mesh)
    assert np.all(geom.volume > 0)
    assert abs(geom.volume.sum() - 1.0) < 1e-12
    # every face of every tet appears in the global table exactly once,
    # and interior faces see opposite outward signs from their two tets
    sign_record = {}
    for t in range(mesh.num_tets):
        for lf in range(4):
            f = int(mesh.tet_to_faces[t, lf])
            s = float(geom.face_outward_sign[t, lf])
            assert abs(abs(s) - 1.0) < 1e-12
            sign_record.setdefault(f, []).append(s)
    for f, signs in sign_record.items():
        if mesh.boundary_face[f]:
            assert len(signs) == 1
        else:
            assert len(signs) == 2
            assert signs[0] == -signs[1]


def test_barycentric_gradients():
    mesh = build_unit_cube_mesh(2)
    geom = mesh_geometry(mesh)
    assert np.abs(geom.grad_lambda.sum(axis=1)).max() < 1e-13
    # lambda_i(v_j) = delta_ij: check via affine reconstruction
    X = geom.vertices
    for i in range(4):
        # lambda_i(v_j) = 1 + grad_lambda_i . (v_j - v_i)
        lam = 1.0 + np.einsum("tk,tjk->tj", geom.grad_lambda[:, i], X - X[:, i : i + 1])
        expected = np.zeros_like(lam)
        expected[:, i] = 1.0
        assert np.abs(lam - expected).max() < 1e-13


def test_reference_tet_geometry():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]])
    mesh = build_mesh_from_tets(verts, [[0, 1, 2, 3]])
    g = mesh_geometry(mesh).take([0])
    assert abs(g.volume[0] - 1.0 / 6.0) < 1e-15
    diameter = max(np.linalg.norm(a - b) for a in verts for b in verts)
    assert diameter == pytest.approx(np.sqrt(2.0))
    assert np.all(mesh.boundary_face)


def test_degenerate_tet_raises():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]])
    mesh = build_mesh_from_tets(verts, [[0, 1, 2, 3]])
    with pytest.raises(DegenerateGeometryError):
        mesh_geometry(mesh)


def test_nonmanifold_face_raises():
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1.0]]
    )
    tets = [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]]
    with pytest.raises(MeshIntegrityError, match="incident to more than 2 tets"):
        build_mesh_from_tets(verts, tets)


def _relabelled_cube(n, seed):
    """The Kuhn cube with its vertex ids randomly permuted: ascending-id
    orderings then differ from tet to tet, unlike the lattice numbering."""
    mesh = build_unit_cube_mesh(n)
    perm = np.random.default_rng(seed).permutation(mesh.num_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[perm] = mesh.vertices
    return build_mesh_from_tets(vertices, perm[mesh.tets])


def test_entity_tables_match_a_row_unique_reference():
    """Edges, faces, their incidence and the ascending local orderings equal
    the tables built with ``np.unique(axis=0)``, a per-face loop and a
    per-entity sort of ``tets[t, local]``, array for array, on the lattice
    numbering and on randomly relabelled vertex ids."""
    for mesh in (build_unit_cube_mesh(3), _relabelled_cube(3, seed=11)):
        tets, nT = mesh.tets, mesh.num_tets
        edges, einv = np.unique(
            np.sort(tets[:, LOCAL_EDGES], axis=2).reshape(-1, 2), axis=0,
            return_inverse=True,
        )
        faces, finv = np.unique(
            np.sort(tets[:, LOCAL_FACES], axis=2).reshape(-1, 3), axis=0,
            return_inverse=True,
        )
        face_to_tets = np.full((faces.shape[0], 2), -1)
        count = np.zeros(faces.shape[0], dtype=int)
        for f, t in zip(finv.reshape(-1), np.repeat(np.arange(nT), 4)):
            face_to_tets[f, count[f]] = t
            count[f] += 1
        edge_vertices, face_vertices = (
            np.array([[sorted(loc, key=lambda i: tets[t, i]) for loc in local]
                      for t in range(nT)])
            for local in (LOCAL_EDGES, LOCAL_FACES)
        )
        for name, ref in (
            ("edges", edges), ("faces", faces), ("tet_to_edges", einv.reshape(nT, 6)),
            ("tet_to_faces", finv.reshape(nT, 4)), ("face_to_tets", face_to_tets),
            ("tet_edge_vertices", edge_vertices), ("tet_face_vertices", face_vertices),
        ):
            found = getattr(mesh, name)
            assert found.dtype == np.int64 and np.array_equal(found, ref), name
    # the relabelled ids do reorder some local entities
    assert not np.array_equal(mesh.tet_edge_vertices,
                              np.broadcast_to(LOCAL_EDGES, (nT, 6, 2)))


@pytest.mark.parametrize("name", ["kuhn2", "kuhn3", "kuhn12", "jittered2"])
def test_translation_classes_match_a_row_unique_reference(name):
    """Class ids and representatives equal those of ``np.unique(axis=0)`` on
    the class key: vertex offsets rounded to 12 decimals, then the edge and
    face vertex tables.  The rounding snaps the inexact lattice offsets of
    n = 3 and 12 together, so every Kuhn cube has the six Kuhn
    permutations; a jittered mesh has one class per tet."""
    mesh = _jittered_cube() if name == "jittered2" else build_unit_cube_mesh(int(name[4:]))
    X = mesh.vertices[mesh.tets]
    nT = mesh.num_tets
    key = np.concatenate([
        np.round(X - X[:, :1], 12).reshape(nT, -1),
        mesh.tet_edge_vertices.reshape(nT, -1),
        mesh.tet_face_vertices.reshape(nT, -1),
    ], axis=1)
    _, ref_reps, ref_classes = np.unique(
        key, axis=0, return_index=True, return_inverse=True)
    classes, reps = _translation_classes(mesh, X)
    assert np.array_equal(classes, ref_classes.reshape(-1))
    assert np.array_equal(reps, ref_reps)
    expected = {"kuhn2": 6, "kuhn3": 6, "kuhn12": 6, "jittered2": nT}
    assert reps.size == expected[name]


@pytest.mark.parametrize("n", [1, 2])
def test_kuhn_refinement_is_nested(n):
    """Every fine tet lies in the coarse tet holding its centroid, and every
    coarse tet holds eight fine ones (Bey 1995), so coarse P1 functions are
    P1 on the fine mesh."""
    coarse, fine = build_unit_cube_mesh(n), build_unit_cube_mesh(2 * n)
    centroid = fine.vertices[fine.tets].mean(axis=1) * n
    cube = np.floor(centroid).astype(np.int64)
    # tet 6 * cube + p of build_unit_cube_mesh is Kuhn tet p of its cube,
    # the one whose points have descending coordinates along KUHN_PERMS[p]
    order = np.argsort(-(centroid - cube), axis=1)
    kuhn = np.array([KUHN_PERMS.index(tuple(o)) for o in order])
    parents = 6 * (cube @ np.array([1, n, n * n])) + kuhn
    cgeom = mesh_geometry(coarse)
    X = fine.vertices[fine.tets] - cgeom.vertices[parents][:, None, 0]
    lam = np.einsum("tpj,tij->tpi", X, cgeom.grad_lambda[parents])
    lam[..., 0] += 1.0
    assert lam.min() >= -1e-14
    assert np.array_equal(np.bincount(parents), np.full(coarse.num_tets, 8))
    assert fine.kuhn_n == 2 * n
    assert build_mesh_from_tets(fine.vertices, fine.tets).kuhn_n is None


def test_invalid_n():
    with pytest.raises(ValueError):
        build_unit_cube_mesh(0)
