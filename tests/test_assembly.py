import numpy as np
import pytest

from ncderham import assembly as asm
from ncderham import elements as el
from ncderham.assembly import ND, P2, PHI, Q, RT, W
from ncderham.fields import AnalyticField
from ncderham.interpolate import FeFunction, canonical_interpolate
from ncderham.mesh import build_unit_cube_mesh, mesh_geometry
from ncderham.quadrature import TET, barycentric_monomial_mean, get_rule


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
    K = diff_operator_matrix("curl", maps2).matrix
    alt = K.T @ Mrt  # (curl psi_i, q_j) = sum_m K[m,i] (q_m, q_j)
    scale = max(abs(C).max(), 1e-30)
    assert abs(C - alt).max() / scale < 1e-12


def test_load_constant_matches_exact_integrals(mesh2, maps2):
    const = AnalyticField("one", 1, lambda X: np.ones(X.shape[0]))
    load = asm.assemble_load("f_vs_p2", mesh2, maps2, const, quad_degree=4)
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
    load = asm.assemble_load("gradw_vs_indphi", mesh2, maps2, w0)
    assert np.abs(load).max() == 0.0
    # pure-enrichment phi (edge block zero) gives a zero rhs through the
    # edge interpolation
    phi = FeFunction(maps2[PHI], np.zeros(maps2[PHI].dim))
    phi.coeffs[maps2[ND].dim :] = 1.7
    load2 = asm.assemble_load("indphi_vs_gradp2", mesh2, maps2, phi)
    assert np.abs(load2).max() == 0.0


def test_indphi_load_is_the_nd_route(mesh2, maps2):
    """The edge-interpolated load equals the load of the Phi function's edge
    coefficients against the ND basis, bit for bit."""
    rng = np.random.default_rng(37)
    phi = FeFunction(maps2[PHI], rng.standard_normal(maps2[PHI].dim))
    load = asm.assemble_load("indphi_vs_gradp2", mesh2, maps2, phi)

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
    assert np.array_equal(load, expected)


def test_space_tag_mismatch_raises(mesh2, maps2):
    phi = FeFunction(maps2[PHI], np.zeros(maps2[PHI].dim))
    with pytest.raises(asm.AssemblyError):
        asm.assemble_load("gradw_vs_indphi", mesh2, maps2, phi)


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
    fe = canonical_interpolate(maps2[PHI], fields["phi"], edge_degree=5, tri_degree=4)
    per_elem = el.apply_dofs(el.PHI_NC, geom, fields["phi"])
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
