import numpy as np
import pytest

from ncderham import elements as el
from ncderham.fields import AnalyticField
from ncderham.mesh import build_mesh_from_tets, mesh_geometry
from ncderham.quadrature import TRIANGLE, get_rule

ALL_KINDS = [el.LAGRANGE_P2, el.NEDELEC2, el.RT0, el.P0, el.PHI_NC, el.W_NC]

REF_VERTS = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]])


def single_tet_mesh(verts):
    verts = np.asarray(verts, dtype=float)
    e = verts[1:] - verts[0]
    if np.linalg.det(e) < 0:
        verts = verts[[0, 1, 3, 2]]
    return build_mesh_from_tets(verts, [[0, 1, 2, 3]])


def random_shape_regular_tet(rng):
    while True:
        verts = rng.uniform(-1.0, 1.0, size=(4, 3))
        e = verts[1:] - verts[0]
        det = abs(np.linalg.det(e))
        diam = max(
            np.linalg.norm(verts[i] - verts[j]) for i in range(4) for j in range(i)
        )
        if det / diam**3 > 0.05:
            return single_tet_mesh(verts)


class AffineBary:
    """Barycentric coordinates of physical points on a single tet."""

    def __init__(self, mesh):
        g = mesh_geometry(mesh).take([0])
        self.gl = g.grad_lambda[0]
        self.verts = g.vertices[0]

    def __call__(self, X):
        return 1.0 + np.einsum(
            "ik,pik->pi", self.gl, X[:, None, :] - self.verts[None, :, :]
        )


class ConstantVector:
    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    def value(self, X):
        return np.broadcast_to(self.c, (X.shape[0], 3)).copy()


class ConstantScalar:
    def __init__(self, c):
        self.c = float(c)

    def value(self, X):
        return np.full(X.shape[0], self.c)

    def gradient(self, X):
        return np.zeros((X.shape[0], 3))


class EnrichmentField:
    """grad(b_T * p) for p = sum c_i lambda_i on one tet."""

    def __init__(self, mesh, c):
        self.bary = AffineBary(mesh)
        self.geom = mesh_geometry(mesh)
        self.c = np.asarray(c, dtype=float)

    def value(self, X):
        lam = self.bary(X)[None, :, :]  # (1, P, 4)
        g = el.mono_gradients(lam, el._QUINTIC, self.geom.grad_lambda)
        return np.einsum("pjk,j->pk", g[0], self.c)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_shape_dimensions_and_kronecker(kind):
    mesh = single_tet_mesh(REF_VERTS)
    geom = mesh_geometry(mesh)
    info = el.KIND_INFO[kind]
    V = el.dof_matrix(kind, geom)[0]
    assert V.shape == (info["dim"], info["dim"])
    C = el.nodal_coefficients(kind, geom)[0]
    assert np.abs(V @ C - np.eye(info["dim"])).max() < 1e-10


def test_dim_counts_match_layout():
    assert el.KIND_INFO[el.PHI_NC]["dim"] == 2 * 6 + 4 == 16
    assert el.KIND_INFO[el.W_NC]["dim"] == 4 + 6 + 4 == 14
    assert el.KIND_INFO[el.LAGRANGE_P2]["dim"] == 10
    assert el.KIND_INFO[el.NEDELEC2]["dim"] == 12


def test_phi_enrichment_value_at_barycenter():
    mesh = single_tet_mesh(REF_VERTS)
    geom = mesh_geometry(mesh)
    g = mesh_geometry(mesh).take([0])
    vals = el.shape_values(el.PHI_NC, g, np.full((1, 4), 0.25))[0, 0]
    # grad(b_T lambda_0) at the barycenter equals grad(lambda_0)/256
    assert np.abs(vals[12] - g.grad_lambda[0, 0] / 256.0).max() < 1e-14


def test_p0_basis_and_scalar_curl_error():
    mesh = single_tet_mesh(REF_VERTS)
    g = mesh_geometry(mesh).take([0])
    assert el.shape_values(el.P0, g, np.array([[0.4, 0.3, 0.2, 0.1]]))[0, 0, 0] == 1.0
    with pytest.raises(el.CapabilityError):
        el.shape_curls(el.W_NC, g)


def test_phi_curls_constant_and_consistent():
    rng = np.random.default_rng(7)
    mesh = random_shape_regular_tet(rng)
    geom = mesh_geometry(mesh)
    curls = el.shape_curls(el.PHI_NC, geom)[0]
    # enrichment functions are gradients: curl-free
    assert np.abs(curls[12:]).max() < 1e-13
    # finite-difference cross-check of the P1 block at a point
    bary = np.array([[0.3, 0.3, 0.2, 0.2]])
    gl = geom.grad_lambda[0]
    delta = 1e-6
    J_fd = np.zeros((16, 3, 3))
    for b in range(3):
        d = np.eye(3)[b]
        bp = bary + delta * (gl @ d)
        bm = bary - delta * (gl @ d)
        vp = el.shape_values(el.PHI_NC, geom, bp[None])[0, 0]
        vm = el.shape_values(el.PHI_NC, geom, bm[None])[0, 0]
        J_fd[:, :, b] = (vp - vm) / (2 * delta)
    J = el.shape_gradients(el.PHI_NC, geom, bary[None])[0, 0]
    assert np.abs(J - J_fd).max() < 1e-6
    curl_fd = np.stack(
        [
            J_fd[:, 2, 1] - J_fd[:, 1, 2],
            J_fd[:, 0, 2] - J_fd[:, 2, 0],
            J_fd[:, 1, 0] - J_fd[:, 0, 1],
        ],
        axis=1,
    )
    assert np.abs(curl_fd - curls).max() < 1e-5


def test_face_dof_of_constant_field():
    rng = np.random.default_rng(11)
    mesh = random_shape_regular_tet(rng)
    geom = mesh_geometry(mesh)
    c = np.array([0.3, -1.2, 0.7])
    dofs = el.apply_dofs(el.RT0, geom, ConstantVector(c))[0]
    expected = np.einsum("fk,k->f", geom.face_normals[0], c) * geom.face_areas[0]
    assert np.abs(dofs - expected).max() < 1e-13


def test_wnc_dofs_of_one():
    rng = np.random.default_rng(13)
    mesh = random_shape_regular_tet(rng)
    geom = mesh_geometry(mesh)
    dofs = el.apply_dofs(el.W_NC, geom, ConstantScalar(1.0))[0]
    assert np.abs(dofs[:4] - 1.0).max() < 1e-13
    assert np.abs(dofs[4:10] - geom.edge_lengths[0]).max() < 1e-13
    assert np.abs(dofs[10:]).max() < 1e-13


def test_edge_moments_of_enrichment_vanish():
    rng = np.random.default_rng(17)
    mesh = random_shape_regular_tet(rng)
    geom = mesh_geometry(mesh)
    field = EnrichmentField(mesh, [0.9, -0.4, 0.25, 1.1])
    dofs = el.apply_dofs(el.PHI_NC, geom, field)[0]
    assert np.abs(dofs[:12]).max() < 1e-12


def test_shape_space_member_reproduced_through_dofs():
    rng = np.random.default_rng(19)
    for kind in ALL_KINDS:
        mesh = random_shape_regular_tet(rng)
        geom = mesh_geometry(mesh)
        nd = el.KIND_INFO[kind]["dim"]
        c = rng.standard_normal(nd)
        V = el.dof_matrix(kind, geom)[0]
        dofs = V @ c
        recovered = el.nodal_coefficients(kind, geom)[0] @ dofs
        assert np.abs(recovered - c).max() < 1e-10 * max(1.0, np.abs(c).max())


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_dofs_of_nodal_basis_through_field_adapter(kind):
    """The DoFs of each nodal basis function, passed as an analytic field at
    physical points, form its unit vector: the field adapter of apply_dofs
    agrees with the shape-monomial route that built the basis."""
    mesh = random_shape_regular_tet(np.random.default_rng(31))
    geom = mesh_geometry(mesh)
    bary = AffineBary(mesh)
    nd = el.KIND_INFO[kind]["dim"]
    for j in range(nd):
        field = AnalyticField(
            "basis", el.KIND_INFO[kind]["arity"],
            lambda X, j=j: el.nodal_values(kind, geom, bary(X)[None])[0, :, j],
            gradient=lambda X, j=j: el.nodal_gradients(kind, geom, bary(X)[None])[0, :, j],
        )
        dofs = el.apply_dofs(kind, geom, field)[0]
        assert np.abs(dofs - np.eye(nd)[j]).max() < 1e-10


def test_unisolvence_on_random_tets():
    rng = np.random.default_rng(23)
    conds_phi, conds_w = [], []
    for _ in range(100):
        mesh = random_shape_regular_tet(rng)
        geom = mesh_geometry(mesh)
        conds_phi.append(el.unisolvence_check(el.PHI_NC, geom)[0])
        conds_w.append(el.unisolvence_check(el.W_NC, geom)[0])
    assert np.isfinite(conds_phi).all() and np.isfinite(conds_w).all()
    assert max(conds_phi) < 1e9
    assert max(conds_w) < 1e9


def test_reference_tet_condition_regression():
    mesh = single_tet_mesh(REF_VERTS)
    geom = mesh_geometry(mesh)
    assert el.unisolvence_check(el.PHI_NC, geom)[0] < 1e6
    assert el.unisolvence_check(el.RT0, geom)[0] < 1e3


def test_unisolvence_proof_moment_matrix():
    # face moments of the bubble against linears: int_F b_F lambda_j dS
    # vanish for all four faces only for the zero linear.
    rng = np.random.default_rng(29)
    mesh = random_shape_regular_tet(rng)
    geom = mesh_geometry(mesh)
    frule = get_rule(TRIANGLE, 4)
    fbary = el.embed_rule(frule, geom.face_vertices)
    M = np.zeros((4, 4))
    for i in range(4):
        lam = fbary[0, i]  # (q, 4), coordinate i vanishes on face i
        others = [k for k in range(4) if k != i]
        b_face = np.prod(lam[:, others], axis=1)
        for j in range(4):
            M[i, j] = frule.weights @ (b_face * lam[:, j]) * geom.face_areas[0, i]
    assert np.linalg.matrix_rank(M, tol=1e-12 * np.abs(M).max()) == 4


def test_degenerate_tet_errors_before_dofs():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 0.0]])
    mesh = build_mesh_from_tets(verts, [[0, 1, 2, 3]])
    from ncderham.mesh import DegenerateGeometryError

    with pytest.raises(DegenerateGeometryError):
        el.unisolvence_check(el.PHI_NC, mesh_geometry(mesh))
