import tracemalloc

import numpy as np
import pytest

from ncderham import assembly as asm
from ncderham import elements as el
from ncderham.assembly import ND, P2, PHI, Q, RT, W
from ncderham.fields import AnalyticField, smooth_case_fields
from ncderham.interpolate import FeFunction, canonical_interpolate
from ncderham.mesh import build_mesh_from_tets, build_unit_cube_mesh, mesh_geometry
from ncderham.quadrature import TET, get_rule
from oracles import barycentric_monomial_mean
from test_fields import _jittered_cube


@pytest.fixture(scope="module")
def mesh1():
    return build_unit_cube_mesh(1)


@pytest.fixture(scope="module")
def mesh2():
    return build_unit_cube_mesh(2)


@pytest.fixture(scope="module")
def maps2(mesh2):
    return {s: asm.build_dof_map(s, mesh2) for s in (P2, ND, RT, Q, PHI, W)}


def test_dofmap_dims_n1(mesh1):
    dims = {s: asm.build_dof_map(s, mesh1).dim for s in (P2, ND, RT, Q, PHI, W)}
    assert dims[PHI] == 2 * 1 + 6 == 8
    assert dims[W] == 0 + 1 + 6 == 7
    assert dims[Q] == 6
    assert dims[RT] == 6
    assert dims[ND] == 2
    assert dims[P2] == 1


def test_dofmap_dims_formula(mesh2, maps2):
    nv, ne, nf = mesh2.interior_counts()
    assert maps2[PHI].dim == 2 * ne + nf
    assert maps2[W].dim == nv + ne + nf
    assert maps2[ND].dim == 2 * ne
    assert maps2[P2].dim == nv + ne
    assert maps2[RT].dim == nf
    assert maps2[Q].dim == mesh2.num_tets


def test_cell_table_boundary_elimination(mesh2, maps2):
    for s, m in maps2.items():
        table = m.cell_table
        assert table.shape[0] == mesh2.num_tets
        used = np.unique(table[table >= 0])
        assert used.size == m.dim
        assert used.min() == 0 and used.max() == m.dim - 1


def _numbering_mesh(name):
    if name == "tet":
        vertices = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        return build_mesh_from_tets(vertices, np.array([[0, 1, 2, 3]]))
    return build_unit_cube_mesh(int(name[1:]))


@pytest.mark.parametrize("name", ["n1", "n2", "n3", "tet"])
def test_numbering_follows_the_element_layout(name):
    """Each entity type with k DoFs per entity takes one contiguous block,
    in layout order (vertices, edges, faces, cells): k consecutive numbers
    per interior entity in ascending id, -1 on the boundary.  The cell
    table gathers the blocks in the same order."""
    mesh = _numbering_mesh(name)
    nT = mesh.num_tets
    entities = (
        (mesh.boundary_vertex, mesh.tets),
        (mesh.boundary_edge, mesh.tet_to_edges),
        (mesh.boundary_face, mesh.tet_to_faces),
        (np.zeros(nT, dtype=bool), np.arange(nT)[:, None]),
    )
    maps = {s: asm.build_dof_map(s, mesh) for s in (P2, ND, RT, Q, PHI, W)}
    for space, m in maps.items():
        layout = el.KIND_INFO[m.element]["layout"]
        arrays = (m.vertex_dofs, m.edge_dofs, m.face_dofs, m.cell_dofs)
        offset, blocks = 0, []
        for i, (k, dofs, (boundary, incidence)) in enumerate(zip(layout, arrays, entities)):
            if not k:
                assert dofs is None, space
                continue
            assert dofs.shape == ((boundary.size, k) if i == 1 else (boundary.size,))
            dofs = dofs.reshape(boundary.size, k)
            assert np.all(dofs[boundary] == -1), space
            count = int(np.count_nonzero(~boundary))
            expected = offset + np.arange(k * count).reshape(count, k)
            assert np.array_equal(dofs[~boundary], expected), space
            offset += k * count
            blocks.append(dofs[incidence].reshape(nT, -1))
        assert m.dim == offset, space
        assert np.array_equal(m.cell_table, np.concatenate(blocks, axis=1)), space
        table = m.cell_table
        assert np.array_equal(np.unique(table[table >= 0]), np.arange(m.dim)), space

    # ND is the edge prefix of Phi
    assert np.array_equal(maps[ND].edge_dofs, maps[PHI].edge_dofs)
    assert np.array_equal(maps[ND].cell_table, maps[PHI].cell_table[:, :12])
    # P2 is the vertex-edge prefix of W (grad_nd is the block grad[:nd, :p2])
    assert np.array_equal(maps[P2].vertex_dofs, maps[W].vertex_dofs)
    assert np.array_equal(maps[P2].edge_dofs, maps[W].edge_dofs)
    assert np.array_equal(maps[P2].cell_table, maps[W].cell_table[:, :10])
    # P2 and W number the interior vertices first, in vertex-id order
    nvi = int(np.count_nonzero(~mesh.boundary_vertex))
    for space in (P2, W):
        vdofs = maps[space].vertex_dofs
        assert np.array_equal(vdofs[~mesh.boundary_vertex], np.arange(nvi))


def test_poisson_p2_spd(mesh2, maps2):
    form = asm.assemble_bilinear("poisson_p2", mesh2, maps2)
    A = form.matrix.toarray()
    assert np.abs(A - A.T).max() < 1e-12
    evals = np.linalg.eigvalsh(A)
    assert evals.min() > 0


def test_phi_stiffness_symmetric_relative(mesh2, maps2):
    form = asm.assemble_bilinear("phi_stiffness", mesh2, maps2)
    A = form.matrix
    asym = abs(A - A.T).max() / abs(A).max()
    assert asym < 1e-12


def test_ind_mass_psd_kernel(mesh2, maps2):
    form = asm.assemble_bilinear("ind_mass", mesh2, maps2)
    M = form.matrix.toarray()
    assert np.abs(M - M.T).max() < 1e-14
    evals = np.linalg.eigvalsh(M)
    assert evals.min() > -1e-14
    nd_dim = maps2[ND].dim
    # kernel = coefficient vectors supported on the face (enrichment) block
    nullity = int(np.sum(evals < 1e-12 * evals.max()))
    assert nullity == maps2[PHI].dim - nd_dim


def test_curl_coupling_with_and_without_interpolation(mesh2, maps2):
    with_map = asm.assemble_bilinear("curl_coupling", mesh2, maps2).matrix
    plain = asm.assemble_bilinear("curl_coupling_plain", mesh2, maps2).matrix
    scale = max(abs(with_map).max(), 1e-30)
    assert abs(with_map - plain).max() / scale < 1e-12


def test_curl_coupling_equals_rtmass_times_curl_matrix(mesh2, maps2):
    from ncderham.interpolate import diff_operator_matrix

    C = asm.assemble_bilinear("curl_coupling", mesh2, maps2).matrix
    Mrt = asm.assemble_bilinear("rt_mass", mesh2, maps2).matrix
    K = diff_operator_matrix("curl", maps2)
    alt = K.T @ Mrt  # (curl psi_i, q_j) = sum_m K[m,i] (q_m, q_j)
    scale = max(abs(C).max(), 1e-30)
    assert abs(C - alt).max() / scale < 1e-12


def _all_maps(mesh):
    return {s: asm.build_dof_map(s, mesh) for s in (P2, ND, RT, Q, PHI, W)}


@pytest.mark.parametrize("n", [2, 4, 12])
def test_forms_store_no_explicit_zeros(n):
    """Entries that sum to zero are not stored, so a form's nnz counts its
    nonzeros on every mesh size."""
    mesh = build_unit_cube_mesh(n)
    maps = _all_maps(mesh)
    for kind in asm.FORM_KINDS:
        A = asm.assemble_bilinear(kind, mesh, maps).matrix
        assert np.count_nonzero(A.data == 0) == 0, kind


def _dense_reference(kind, mesh, maps):
    """The local forms of every tet, from its own geometry rather than its
    class representative, scattered tet by tet with ``np.add.at`` into a
    dense matrix; a spare last row and column take the eliminated DoFs."""
    rs, cs, degree, symmetric, _ = asm._FORMS[kind]
    own = mesh_geometry(mesh).take(np.arange(mesh.num_tets))
    own.rep_geometry = None
    local = asm._local_form(kind, own, degree)
    rows = maps[rs].cell_table[:, : local.shape[1]]
    cols = maps[cs].cell_table[:, : local.shape[2]]
    A = np.zeros((maps[rs].dim + 1, maps[cs].dim + 1))
    for t in range(mesh.num_tets):
        np.add.at(A, (rows[t][:, None], cols[t][None, :]), local[t])
    A = A[:-1, :-1]
    return (A + A.T) * 0.5 if symmetric else A


@pytest.mark.parametrize("name", ["kuhn2", "kuhn3", "jittered2"])
def test_one_pass_scatter_matches_a_dense_reference(name):
    """Kuhn n=3 has inexact lattice offsets, so its six classes hold tets
    whose own geometry differs from the representative's in the last bits."""
    mesh = _jittered_cube() if name == "jittered2" else build_unit_cube_mesh(int(name[4:]))
    assert (mesh_geometry(mesh).rep_geometry is None) == (name == "jittered2")
    maps = _all_maps(mesh)
    for kind in asm.FORM_KINDS:
        A = asm.assemble_bilinear(kind, mesh, maps).matrix
        ref = _dense_reference(kind, mesh, maps)
        assert np.abs(A.toarray() - ref).max() <= 1e-14 * np.abs(ref).max(), kind
        if asm._FORMS[kind][3]:
            assert (A != A.T).nnz == 0, kind


def test_symmetric_forms_scatter_within_a_small_multiple_of_their_size():
    """A symmetric form scatters only its upper triangle and frees the
    per-tet blocks before the csr conversion, so the transient memory of
    an assembly stays within 4.5 times the bytes of the matrix it returns
    (numpy and scipy allocations, as tracemalloc sees them)."""
    mesh = build_unit_cube_mesh(8)
    maps = _all_maps(mesh)
    for kind in asm.FORM_KINDS:
        if not asm._FORMS[kind][3]:
            continue
        asm.assemble_bilinear(kind, mesh, maps)  # warm the geometry caches
        tracemalloc.start()
        try:
            A = asm.assemble_bilinear(kind, mesh, maps).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        assert peak <= 4.5 * size, (kind, peak / size)


def test_load_constant_matches_exact_integrals(mesh2, maps2):
    const = AnalyticField("one", 1, lambda X: np.ones(X.shape[0]))
    load = asm.assemble_load("f_vs_p2", maps2, const)
    # oracle: integral of each nodal basis function from exact monomial means
    geom = mesh_geometry(mesh2)
    C = el.nodal_coefficients(el.LAGRANGE_P2, geom)
    means = np.array([barycentric_monomial_mean(a) for a in el._ALPHA2])
    per_tet = np.einsum("j,tjk->tk", means, C) * geom.volume[:, None]
    expected = np.zeros(maps2[P2].dim)
    table = maps2[P2].cell_table
    keep = table >= 0
    np.add.at(expected, table[keep], per_tet[keep])
    assert np.abs(load - expected).max() < 1e-13


def test_load_zero_function_and_enrichment_annihilation(mesh2, maps2):
    w0 = FeFunction(maps2[P2], np.zeros(maps2[P2].dim))
    load = asm.assemble_load("gradw_vs_indphi", maps2, w0)
    assert np.abs(load).max() == 0.0
    # pure-enrichment phi (edge block zero) gives a zero rhs through the
    # edge interpolation
    phi = FeFunction(maps2[PHI], np.zeros(maps2[PHI].dim))
    phi.coeffs[maps2[ND].dim :] = 1.7
    load2 = asm.assemble_load("indphi_vs_gradp2", maps2, phi)
    assert np.abs(load2).max() == 0.0


def test_indphi_load_is_the_nd_route(mesh2, maps2):
    """The edge-interpolated load sees only the Phi function's edge
    coefficients, and it matches an independent ND-basis quadrature."""
    rng = np.random.default_rng(37)
    phi = FeFunction(maps2[PHI], rng.standard_normal(maps2[PHI].dim))
    load = asm.assemble_load("indphi_vs_gradp2", maps2, phi)
    edges_only = FeFunction(maps2[PHI], phi.coeffs.copy())
    edges_only.coeffs[maps2[ND].dim :] = 0.0
    assert np.array_equal(
        load, asm.assemble_load("indphi_vs_gradp2", maps2, edges_only)
    )

    geom = mesh_geometry(mesh2)
    rule = get_rule(TET, 2)
    local_phi = asm.gather_coefficients(maps2[PHI], phi.coeffs)
    vals = np.einsum(
        "tj,tqja->tqa",
        local_phi[:, :12],
        el.nodal_values(el.NEDELEC2, geom, rule.points),
    )
    gp2 = el.nodal_gradients(el.LAGRANGE_P2, geom, rule.points)
    local = np.einsum("q,tqa,tqia->ti", rule.weights, vals, gp2) * geom.volume[:, None]
    expected = np.zeros(maps2[P2].dim)
    table = maps2[P2].cell_table
    keep = table >= 0
    np.add.at(expected, table[keep], local[keep])
    assert np.abs(load - expected).max() <= 1e-13 * np.abs(expected).max()


# load kind -> space of its discrete data (None: an analytic source)
_LOAD_DATA = {"f_vs_p2": None, "gradw_vs_indphi": P2, "indphi_vs_gradp2": PHI,
              "gradw_vs_phi": P2, "phi_vs_gradp2": PHI}


@pytest.mark.parametrize("kind", sorted(_LOAD_DATA))
def test_class_batched_load_matches_per_tet_path(mesh2, maps2, kind):
    """One GEMM per translation class reproduces the per-tet load."""
    space = _LOAD_DATA[kind]
    if space is None:
        data = smooth_case_fields(1e-4)["f"]
    else:
        coeffs = np.random.default_rng(3).standard_normal(maps2[space].dim)
        data = FeFunction(maps2[space], coeffs)
    geom = mesh_geometry(mesh2)
    batched = asm.assemble_load(kind, maps2, data)
    saved = geom.rep_geometry
    geom.rep_geometry = None
    try:
        direct = asm.assemble_load(kind, maps2, data)
    finally:
        geom.rep_geometry = saved
    assert np.abs(batched - direct).max() <= 1e-13 * np.abs(direct).max()


@pytest.mark.parametrize("source", ["phi_function", "p2_on_another_mesh"])
def test_space_tag_mismatch_raises(mesh2, maps2, source):
    """A load takes its mesh from its target map, and rejects data of the
    wrong space or from another mesh."""
    if source == "phi_function":
        data = FeFunction(maps2[PHI], np.zeros(maps2[PHI].dim))
    else:
        other = asm.build_dof_map(P2, build_unit_cube_mesh(2))
        data = FeFunction(other, np.zeros(other.dim))
    with pytest.raises(asm.AssemblyError):
        asm.assemble_load("gradw_vs_indphi", maps2, data)


def test_dof_single_valuedness(mesh2, maps2):
    """Elementwise DoFs of a smooth global field agree across elements."""
    from ncderham.fields import smooth_case_fields

    fields = smooth_case_fields(1.0)
    geom = mesh_geometry(mesh2)
    for space, field in ((PHI, fields["phi"]), (W, fields["u"]), (RT, fields["phi"])):
        dofmap = maps2[space]
        per_elem = el.apply_dofs(dofmap.element, geom, field)
        table = dofmap.cell_table
        seen = {}
        for t in range(mesh2.num_tets):
            for k, dof in enumerate(table[t]):
                if dof < 0:
                    continue
                if dof in seen:
                    assert abs(seen[dof] - per_elem[t, k]) < 1e-12, (space, dof)
                else:
                    seen[dof] = per_elem[t, k]


def test_elementwise_equals_canonical_interpolation(mesh2, maps2):
    from ncderham.fields import smooth_case_fields

    fields = smooth_case_fields(1.0)
    geom = mesh_geometry(mesh2)
    fe = canonical_interpolate(maps2[PHI], fields["phi"])
    per_elem = el.apply_dofs(el.PHI_NC, geom, fields["phi"], 11, 8, 8)
    table = maps2[PHI].cell_table
    keep = table >= 0
    assert np.abs(fe.coeffs[table[keep]] - per_elem[keep]).max() < 1e-12


def test_class_deduplication_matches_direct_path(mesh2, maps2):
    """Translation-class shortcut reproduces the per-element assembly."""
    from ncderham.mesh import mesh_geometry

    geom = mesh_geometry(mesh2)
    assert geom.rep_geometry is not None
    assert geom.rep_geometry.num_tets == 6
    fast = asm.assemble_bilinear("phi_stiffness", mesh2, maps2).matrix
    # disable the shortcut and reassemble
    saved = geom.rep_geometry
    geom.rep_geometry = None
    try:
        direct = asm.assemble_bilinear("phi_stiffness", mesh2, maps2).matrix
    finally:
        geom.rep_geometry = saved
    assert abs(fast - direct).max() < 1e-13 * abs(direct).max()
