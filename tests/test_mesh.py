import numpy as np
import pytest

from ncderham.mesh import (
    DegenerateGeometryError,
    MeshIntegrityError,
    build_mesh_from_tets,
    build_unit_cube_mesh,
    mesh_geometry,
    tet_geometry,
)


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
    assert mesh.euler_characteristic() == 1
    assert int(mesh.boundary_face.sum()) == 12 * n**2
    assert mesh.num_tets == 6 * n**3
    assert abs(mesh.h - np.sqrt(3.0) / n) < 1e-14


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
    g = tet_geometry(mesh, 0)
    assert abs(g.volume[0] - 1.0 / 6.0) < 1e-15
    assert g.diameter[0] == pytest.approx(np.sqrt(2.0))
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
    with pytest.raises(MeshIntegrityError):
        build_mesh_from_tets(verts, tets)


def test_invalid_n():
    with pytest.raises(ValueError):
        build_unit_cube_mesh(0)
