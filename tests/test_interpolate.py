import numpy as np
import pytest

from ncderham import assembly as asm
from ncderham import elements as el
from ncderham.assembly import ND, P2, PHI, Q, RT, W
from ncderham.fields import AnalyticField
from ncderham.interpolate import (
    FeFunction,
    canonical_interpolate,
    diff_operator_matrix,
    fe_gradients,
    fe_values,
    nd_interpolant,
    prolongation,
)
from ncderham.mesh import build_unit_cube_mesh, kuhn_parents, mesh_geometry
from ncderham.quadrature import EDGE, TET, TRIANGLE, get_rule


@pytest.fixture(scope="module")
def mesh2():
    return build_unit_cube_mesh(2)


@pytest.fixture(scope="module")
def maps2(mesh2):
    return {s: asm.build_dof_map(s, mesh2) for s in (P2, ND, RT, Q, PHI, W)}


def constant_vector(c):
    c = np.asarray(c, dtype=float)
    return AnalyticField(
        "const", 3, lambda X: np.broadcast_to(c, (X.shape[0], 3)).copy()
    )


@pytest.mark.parametrize("space", [P2, ND, RT, Q, PHI, W])
def test_class_batched_evaluation_matches_per_tet_path(mesh2, maps2, space):
    """Values and gradients from one GEMM per translation class agree with
    the per-tet evaluation, on all tets and on a subset."""
    coeffs = np.random.default_rng(8).standard_normal(maps2[space].dim)
    fe = FeFunction(maps2[space], coeffs)
    pts = get_rule(TET, 5).points
    tids = np.arange(3, mesh2.num_tets, 5)
    geom = mesh_geometry(mesh2)
    calls = [(fn, t) for fn in (fe_values, fe_gradients) for t in (None, tids)]
    batched = [fn(fe, pts, t) for fn, t in calls]
    saved = geom.rep_geometry
    geom.rep_geometry = None
    try:
        direct = [fn(fe, pts, t) for fn, t in calls]
    finally:
        geom.rep_geometry = saved
    for b, d in zip(batched, direct):
        assert b.shape == d.shape
        assert np.abs(b - d).max() <= 1e-13 * max(np.abs(d).max(), 1e-300)


def test_rt_interpolation_of_constant(mesh2, maps2):
    field = constant_vector([0.4, -0.2, 1.3])
    fe = canonical_interpolate(maps2[RT], field)
    geom = mesh_geometry(mesh2)
    per_elem = el.apply_dofs(el.RT0, geom, field)
    table = maps2[RT].cell_table
    keep = table >= 0
    assert np.abs(fe.coeffs[table[keep]] - per_elem[keep]).max() < 1e-13
    # the interpolant reproduces the constant pointwise
    bary = np.array([[0.1, 0.2, 0.3, 0.4]])
    vals = fe_values(fe, bary)
    interior = ~np.any(
        mesh2.boundary_face[mesh2.tet_to_faces], axis=1
    )
    if interior.any():
        assert np.abs(vals[interior] - field.value(np.zeros((1, 3)))).max() < 1e-12


def test_q_projection_of_constant(mesh2, maps2):
    field = AnalyticField("c", 1, lambda X: np.full(X.shape[0], 2.5))
    fe = canonical_interpolate(maps2[Q], field, zero_mean=False)
    assert np.abs(fe.coeffs - 2.5).max() < 1e-13
    fe0 = canonical_interpolate(maps2[Q], field, zero_mean=True)
    assert np.abs(fe0.coeffs).max() < 1e-13


def test_phi_reproduces_p1_field_on_interior_tets():
    mesh = build_unit_cube_mesh(3)
    maps = {s: asm.build_dof_map(s, mesh) for s in (PHI, ND)}
    B = np.array([[0.2, -0.5, 0.1], [0.7, 0.3, -0.4], [0.0, 1.1, 0.6]])
    a = np.array([0.3, -0.2, 0.5])
    field = AnalyticField("p1", 3, lambda X: a + X @ B.T)
    fe = canonical_interpolate(maps[PHI], field)
    # tets with every DoF interior reproduce the field exactly
    table = maps[PHI].cell_table
    full = np.all(table >= 0, axis=1)
    assert full.any()
    bary = np.array([[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]])
    geom = mesh_geometry(mesh)
    tids = np.flatnonzero(full)
    vals = fe_values(fe, bary, tids=tids)
    pts = np.einsum("qi,tij->tqj", bary, geom.vertices[tids])
    exact = field.value(pts.reshape(-1, 3)).reshape(vals.shape)
    assert np.abs(vals - exact).max() < 1e-10


def test_complex_products_vanish_exactly(maps2):
    grad = diff_operator_matrix("grad", maps2).matrix
    curl = diff_operator_matrix("curl", maps2).matrix
    div = diff_operator_matrix("div", maps2).matrix
    assert abs(curl @ grad).max() <= 1e-12
    assert abs(div @ curl).max() <= 1e-12
    grad_nd = diff_operator_matrix("grad_nd", maps2).matrix
    curl_nd = diff_operator_matrix("curl_nd", maps2).matrix
    assert abs(curl_nd @ grad_nd).max() <= 1e-12


def test_ind_is_edge_selection(maps2):
    ind = diff_operator_matrix("ind", maps2).matrix.toarray()
    nd_dim = maps2[ND].dim
    assert np.array_equal(ind[:, :nd_dim], np.eye(nd_dim))
    assert np.abs(ind[:, nd_dim:]).max() == 0.0


def test_ind_matches_quadrature_edge_moments(mesh2, maps2):
    # edge moments of the Phi nodal basis computed by quadrature equal the
    # 0/1 selection realized by the operator matrix
    rng = np.random.default_rng(5)
    c = rng.standard_normal(maps2[PHI].dim)
    fe = FeFunction(maps2[PHI], c)
    geom = mesh_geometry(mesh2)
    erule = get_rule(EDGE, el.EDGE_DOF_DEGREE)
    ebary = el.embed_rule(erule, geom.edge_vertices)
    T = mesh2.num_tets
    q = erule.npoints
    vals = np.einsum(
        "tj,tpja->tpa",
        asm.gather_coefficients(maps2[PHI], c),
        el.nodal_values(el.PHI_NC, geom, ebary.reshape(T, 6 * q, 4)),
    ).reshape(T, 6, q, 1, 3)
    moments = el._edge_moments(geom, vals, erule)[:, :, 0]
    ind = diff_operator_matrix("ind", maps2).matrix
    nd_coeffs = ind @ c
    table_nd = maps2[ND].cell_table
    keep = table_nd >= 0
    # phi edge DoFs occupy the first 12 local slots in the same order
    assert np.abs(moments[keep] - nd_coeffs[table_nd[keep]]).max() < 1e-12


def test_curl_of_nd_interpolant_equals_curl(maps2):
    curl_phi = diff_operator_matrix("curl", maps2).matrix
    curl_nd = diff_operator_matrix("curl_nd", maps2).matrix
    ind = diff_operator_matrix("ind", maps2).matrix
    prod = curl_nd @ ind
    assert abs(prod - curl_phi).max() <= 1e-12


def test_grad_matrix_matches_quadrature(mesh2, maps2):
    """Phi DoFs of gradients of W nodal functions: exact relations vs
    direct quadrature of the gradient field."""
    rng = np.random.default_rng(11)
    c = rng.standard_normal(maps2[W].dim)
    w_fe = FeFunction(maps2[W], c)
    grad = diff_operator_matrix("grad", maps2).matrix
    expected = grad @ c

    geom = mesh_geometry(mesh2)
    local_w = asm.gather_coefficients(maps2[W], c)
    # edge moments of grad w by quadrature
    erule = get_rule(EDGE, el.EDGE_DOF_DEGREE)
    ebary = el.embed_rule(erule, geom.edge_vertices)
    T = mesh2.num_tets
    q = erule.npoints
    gw = np.einsum(
        "tj,tpja->tpa",
        local_w,
        el.nodal_gradients(el.W_NC, geom, ebary.reshape(T, 6 * q, 4)),
    ).reshape(T, 6, q, 1, 3)
    moments = el._edge_moments(geom, gw, erule)[:, :, 0]
    frule = get_rule(TRIANGLE, el.FACE_DOF_DEGREE)
    fbary = el.embed_rule(frule, geom.face_vertices)
    qf = frule.npoints
    gwf = np.einsum(
        "tj,tpja->tpa",
        local_w,
        el.nodal_gradients(el.W_NC, geom, fbary.reshape(T, 4 * qf, 4)),
    ).reshape(T, 4, qf, 1, 3)
    fluxes = el._face_normal_integrals(geom, gwf, frule)[:, :, 0]
    per_elem = np.concatenate([moments, fluxes], axis=1)
    table = maps2[PHI].cell_table
    keep = table >= 0
    assert np.abs(per_elem[keep] - expected[table[keep]]).max() < 1e-12


def test_weak_continuity_of_random_phi_functions(mesh2, maps2):
    """Face means of the jump vanish for members of the global space."""
    from ncderham.verify import face_jump_means

    rng = np.random.default_rng(23)
    for _ in range(20):
        c = rng.standard_normal(maps2[PHI].dim)
        fe = FeFunction(maps2[PHI], c)
        jumps = face_jump_means(fe)
        assert np.abs(jumps).max() < 1e-10 * max(1.0, np.abs(c).max())


def test_nd_interpolant_helper(maps2):
    rng = np.random.default_rng(2)
    c = rng.standard_normal(maps2[PHI].dim)
    fe = FeFunction(maps2[PHI], c)
    nd = nd_interpolant(fe, maps2[ND])
    assert np.array_equal(nd.coeffs, c[: maps2[ND].dim])


def _parent_points(fine, coarse, bary):
    """Barycentric coordinates, in each fine tet's parent, of the points
    ``bary`` of the fine tet; and the parents."""
    parents, _ = kuhn_parents(fine, coarse)
    fgeom, cgeom = mesh_geometry(fine), mesh_geometry(coarse)
    x = np.einsum("pi,tij->tpj", bary, fgeom.vertices) - cgeom.vertices[parents][:, None, 0]
    lam = np.einsum("tpj,tij->tpi", x, cgeom.grad_lambda[parents])
    lam[..., 0] += 1.0
    return lam, parents


def test_p2_prolongation_is_exact_at_fine_quadrature_points():
    """P2 spaces are nested, so the prolongated coarse function equals the
    coarse function itself."""
    coarse, fine = build_unit_cube_mesh(2), build_unit_cube_mesh(4)
    cmap, fmap = asm.build_dof_map(P2, coarse), asm.build_dof_map(P2, fine)
    x = np.random.default_rng(0).standard_normal(cmap.dim)
    pts = get_rule(TET, 4).points
    fine_vals = fe_values(FeFunction(fmap, prolongation(cmap, fmap) @ x), pts)
    lam, parents = _parent_points(fine, coarse, pts)
    coarse_vals = np.concatenate([
        fe_values(FeFunction(cmap, x), lam[t:t + 1], [parents[t]])
        for t in range(fine.num_tets)
    ])
    assert np.abs(fine_vals - coarse_vals).max() <= 1e-13 * np.abs(coarse_vals).max()


def test_w_prolongation_averages_the_per_tet_canonical_interpolants():
    """Each fine DoF of a prolongated W function is the mean, over the fine
    tets sharing it, of the DoF applied to the coarse function on the tet's
    parent (the element DoFs applied tet by tet, as a reference)."""
    coarse, fine = build_unit_cube_mesh(2), build_unit_cube_mesh(4)
    cmap, fmap = asm.build_dof_map(W, coarse), asm.build_dof_map(W, fine)
    x = np.random.default_rng(1).standard_normal(cmap.dim)
    parents, _ = kuhn_parents(fine, coarse)
    cgeom, fgeom = mesh_geometry(coarse), mesh_geometry(fine)
    coarse_fe = FeFunction(cmap, x)
    total, count = np.zeros(fmap.dim), np.zeros(fmap.dim)
    for t in range(fine.num_tets):
        T = parents[t]

        def parent_bary(X, T=T):
            lam = (X - cgeom.vertices[T, 0]) @ cgeom.grad_lambda[T].T
            lam[:, 0] += 1.0
            return lam[None]

        field = AnalyticField(
            "coarse", 1,
            lambda X, f=parent_bary, T=T: fe_values(coarse_fe, f(X), [T])[0],
            gradient=lambda X, f=parent_bary, T=T: fe_gradients(coarse_fe, f(X), [T])[0],
        )
        local = el.apply_dofs(el.W_NC, fgeom.take([t]), field)[0]
        dofs = fmap.cell_table[t]
        keep = dofs >= 0
        np.add.at(total, dofs[keep], local[keep])
        np.add.at(count, dofs[keep], 1.0)
    reference = total / count
    found = prolongation(cmap, fmap) @ x
    assert np.abs(found - reference).max() <= 1e-12 * np.abs(reference).max()
