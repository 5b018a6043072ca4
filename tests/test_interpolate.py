import numpy as np
import pytest

from ncderham import assembly as asm
from ncderham import elements as el
from ncderham.assembly import ND, P2, PHI, Q, RT, W
from ncderham.fields import AnalyticField
from ncderham.interpolate import (
    FeFunction,
    _circulation_rows,
    _edge_gradient_rows,
    _triplets,
    canonical_interpolate,
    diff_operator_matrix,
    fe_gradients,
    fe_values,
    nd_interpolant,
    p1_kuhn_prolongation,
    vertex_interpolant,
)
from ncderham.mesh import build_unit_cube_mesh, mesh_geometry
from ncderham.quadrature import EDGE, TET, TRIANGLE, get_rule
from ncderham.solvers import build_spaces
from test_fields import _jittered_cube


@pytest.fixture(scope="module")
def mesh2():
    return build_unit_cube_mesh(2)


@pytest.fixture(scope="module")
def maps2(mesh2):
    return build_spaces(mesh2)


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
    """Q is the zero-mean space: a constant interpolates to zero, and a
    linear field to each cell's mean (its centroid value) minus the
    volume-weighted global mean."""
    field = AnalyticField("c", 1, lambda X: np.full(X.shape[0], 2.5))
    assert np.abs(canonical_interpolate(maps2[Q], field).coeffs).max() < 1e-13
    a = np.array([0.7, -1.3, 0.4])
    linear = AnalyticField("lin", 1, lambda X: 0.2 + X @ a)
    fe = canonical_interpolate(maps2[Q], linear)
    means = 0.2 + mesh2.vertices[mesh2.tets].mean(axis=1) @ a
    vol = mesh_geometry(mesh2).volume
    expected = means - (vol @ means) / vol.sum()
    assert np.abs(fe.coeffs[maps2[Q].cell_table[:, 0]] - expected).max() < 1e-13


def test_phi_reproduces_p1_field_on_interior_tets():
    mesh = build_unit_cube_mesh(3)
    maps = {PHI: asm.build_dof_map(PHI, mesh)}
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
    grad = diff_operator_matrix("grad", maps2)
    curl = diff_operator_matrix("curl", maps2)
    div = diff_operator_matrix("div", maps2)
    assert abs(curl @ grad).max() <= 1e-12
    assert abs(div @ curl).max() <= 1e-12
    grad_nd, curl_nd = maps2["grad_nd"], maps2["curl_nd"]
    assert abs(curl_nd @ grad_nd).max() <= 1e-12


@pytest.mark.parametrize("name", ["kuhn2", "kuhn3", "jittered2"])
def test_nd_blocks_match_the_per_map_construction(name):
    """The level's grad_nd and curl_nd, blocks of grad and curl, equal bit
    for bit the operators built from the ND and P2 maps' own DoF tables."""
    mesh = _jittered_cube() if name == "jittered2" else build_unit_cube_mesh(int(name[4:]))
    maps = build_spaces(mesh)
    nmap, pmap, rmap = maps[ND], maps[P2], maps[RT]
    references = {
        "grad_nd": _triplets(
            *_edge_gradient_rows(mesh, nmap.edge_dofs, pmap.vertex_dofs, pmap.edge_dofs),
            (nmap.dim, pmap.dim),
        ),
        "curl_nd": _triplets(
            *_circulation_rows(mesh, rmap.face_dofs, nmap.edge_dofs), (rmap.dim, nmap.dim)
        ),
    }
    for kind, ref in references.items():
        block = maps[kind]
        assert block.shape == ref.shape, kind
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(block, attr), getattr(ref, attr)), (kind, attr)


def test_ind_is_edge_selection(maps2):
    """The ND companion of a Phi function lives on the ND map: Phi's edge
    DoFs and the 12 leading slots of its cell rows."""
    fe = FeFunction(maps2[PHI], np.zeros(maps2[PHI].dim))
    view, nmap = nd_interpolant(fe).dofmap, maps2[ND]
    assert view.space == ND and view.mesh is nmap.mesh and view.dim == nmap.dim
    assert np.array_equal(view.edge_dofs, nmap.edge_dofs)
    assert np.array_equal(view.cell_table, nmap.cell_table)
    assert view.vertex_dofs is view.face_dofs is view.cell_dofs is None


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
    nd = nd_interpolant(fe)
    table_nd = nd.dofmap.cell_table
    keep = table_nd >= 0
    # phi edge DoFs occupy the first 12 local slots in the same order
    assert np.abs(moments[keep] - nd.coeffs[table_nd[keep]]).max() < 1e-12


def test_curl_of_nd_interpolant_equals_curl(maps2):
    """The curl of a Phi function is that of its ND companion: no face
    enrichment enters it."""
    curl_phi = diff_operator_matrix("curl", maps2)
    curl_nd = maps2["curl_nd"]
    assert curl_phi[:, maps2[ND].dim :].nnz == 0
    fe = FeFunction(maps2[PHI], np.random.default_rng(4).standard_normal(maps2[PHI].dim))
    diff = curl_nd @ nd_interpolant(fe).coeffs - curl_phi @ fe.coeffs
    assert np.abs(diff).max() <= 1e-12


def test_grad_matrix_matches_quadrature(mesh2, maps2):
    """Phi DoFs of gradients of W nodal functions: exact relations vs
    direct quadrature of the gradient field."""
    rng = np.random.default_rng(11)
    c = rng.standard_normal(maps2[W].dim)
    w_fe = FeFunction(maps2[W], c)
    grad = diff_operator_matrix("grad", maps2)
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
    nd = nd_interpolant(fe)
    assert np.array_equal(nd.coeffs, c[: maps2[ND].dim])


def _kuhn_p1(values, n, X):
    """The P1 function on the Kuhn cube with n subdivisions and the given
    vertex values (x fastest), at the points X: in the subcube with corner c
    and local coordinates f sorted as f[p0] >= f[p1] >= f[p2], the Kuhn tet
    walks c, c + e_p0, c + e_p0 + e_p1, c + 1 with barycentric weights
    1 - f[p0], f[p0] - f[p1], f[p1] - f[p2], f[p2] (Freudenthal)."""
    k = n + 1
    corner = np.minimum(np.floor(X * n), n - 1).astype(np.int64)
    f = X * n - corner
    order = np.argsort(-f, axis=1, kind="stable")
    ends = np.ones((len(X), 1)), np.take_along_axis(f, order, axis=1), np.zeros((len(X), 1))
    weights = -np.diff(np.concatenate(ends, axis=1), axis=1)
    out = weights[:, 0] * values[corner @ [1, k, k * k]]
    for step in range(3):
        corner[np.arange(len(X)), order[:, step]] += 1
        out += weights[:, step + 1] * values[corner @ [1, k, k * k]]
    return out


@pytest.mark.parametrize("n", [4, 8])
def test_p1_kuhn_prolongation_reproduces_coarse_p1_functions(n):
    """Kuhn refinement is nested, so the prolongated coarse P1 function
    equals the coarse function at every fine vertex."""
    m = n // 2
    coarse, fine = build_unit_cube_mesh(m), build_unit_cube_mesh(n)
    interior = ~coarse.boundary_vertex
    x = np.random.default_rng(3).standard_normal(int(interior.sum()))
    values = np.zeros(coarse.num_vertices)
    values[interior] = x
    expected = _kuhn_p1(values, m, fine.vertices[~fine.boundary_vertex])
    found = p1_kuhn_prolongation(n) @ x
    assert np.abs(found - expected).max() <= 1e-14 * np.abs(expected).max()


def test_vertex_interpolant_keeps_a_hats_vertex_values_and_edge_integrals():
    mesh = build_unit_cube_mesh(3)
    wmap = asm.build_dof_map(W, mesh)
    v = int(np.flatnonzero(~mesh.boundary_vertex)[3])
    hat = vertex_interpolant(wmap)[:, wmap.vertex_dofs[v]].toarray().ravel()
    values = hat[wmap.vertex_dofs[~mesh.boundary_vertex]]
    assert np.array_equal(values, (wmap.vertex_dofs[~mesh.boundary_vertex] ==
                                   wmap.vertex_dofs[v]).astype(float))
    edges = np.flatnonzero(~mesh.boundary_edge)
    lengths = np.linalg.norm(np.diff(mesh.vertices[mesh.edges[edges]], axis=1), axis=2)[:, 0]
    incident = (mesh.edges[edges] == v).any(axis=1)
    found = hat[wmap.edge_dofs[edges, 0]]
    assert np.allclose(found, np.where(incident, lengths / 2, 0.0), rtol=1e-14, atol=1e-15)


def test_w_prolongation_averages_the_per_tet_canonical_interpolants():
    """Each W DoF of the vertex interpolant of a P1 function is the mean,
    over the tets sharing it, of the DoF applied to the function on each
    tet (the element DoFs applied tet by tet, as a reference)."""
    mesh = build_unit_cube_mesh(3)
    wmap = asm.build_dof_map(W, mesh)
    geom = mesh_geometry(mesh)
    x = np.random.default_rng(1).standard_normal(int((~mesh.boundary_vertex).sum()))
    values = np.zeros(mesh.num_vertices)
    values[~mesh.boundary_vertex] = x
    total, count = np.zeros(wmap.dim), np.zeros(wmap.dim)
    for t in range(mesh.num_tets):
        local_values = values[mesh.tets[t]]

        def bary(X, t=t):
            lam = (X - geom.vertices[t, 0]) @ geom.grad_lambda[t].T
            lam[:, 0] += 1.0
            return lam

        field = AnalyticField(
            "p1", 1,
            lambda X, f=bary, c=local_values: f(X) @ c,
            gradient=lambda X, t=t, c=local_values: np.broadcast_to(
                c @ geom.grad_lambda[t], (len(X), 3)),
        )
        local = el.apply_dofs(el.W_NC, geom.take([t]), field)[0]
        dofs = wmap.cell_table[t]
        keep = dofs >= 0
        np.add.at(total, dofs[keep], local[keep])
        np.add.at(count, dofs[keep], 1.0)
    reference = total / count
    found = vertex_interpolant(wmap) @ x
    assert np.abs(found - reference).max() <= 1e-12 * np.abs(reference).max()


def test_vertex_interpolant_embeds_p1_in_p2():
    """On the conforming P2 space the vertex interpolant is the exact
    embedding of P1: the P2 function of ``P @ x`` is linear on each tet, with
    the vertex values x."""
    mesh = build_unit_cube_mesh(3)
    p2map = asm.build_dof_map(P2, mesh)
    x = np.random.default_rng(2).standard_normal(int((~mesh.boundary_vertex).sum()))
    values = np.zeros(mesh.num_vertices)
    values[~mesh.boundary_vertex] = x
    bary = get_rule(TET, 3).points
    found = fe_values(FeFunction(p2map, vertex_interpolant(p2map) @ x), bary)
    expected = values[mesh.tets] @ bary.T
    assert np.abs(found - expected).max() <= 1e-13 * np.abs(expected).max()
