import numpy as np
import pytest
import scipy.sparse as sp

from ncderham import assembly as asm
from ncderham.assembly import ND, PHI, W
from ncderham.fields import smooth_case_fields
from ncderham.interpolate import diff_operator_matrix
from ncderham.mesh import build_unit_cube_mesh
from ncderham.solvers import (
    SolverConfig,
    SolverFailure,
    build_spaces,
    decoupled_solve,
    solve_saddle,
    solve_spd,
)


@pytest.fixture(scope="module")
def setup2():
    mesh = build_unit_cube_mesh(2)
    return mesh, build_spaces(mesh)


def vector_form(mesh, maps, eps, mass="ind_mass"):
    """The saddle stage's vector-unknown matrix, eps^2 * stiffness + mass."""
    stiff = asm.assemble_bilinear("phi_stiffness", mesh, maps).matrix
    return (eps**2) * stiff + asm.assemble_bilinear(mass, mesh, maps).matrix


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(method="magic")
    with pytest.raises(ValueError):
        SolverConfig(spd_tol=2.0)
    with pytest.raises(ValueError):
        SolverConfig(spd_solver="LU")


def test_solve_spd_identity_and_tridiagonal():
    cfg = SolverConfig()
    I = sp.eye(5, format="csr")
    b = np.arange(5.0)
    assert np.allclose(solve_spd(I, b, cfg), b)
    T = sp.csr_matrix(
        np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    )
    x = solve_spd(T, np.ones(3), cfg)
    assert np.allclose(x, [1.5, 2.0, 1.5], atol=1e-10)
    xd = solve_spd(T, np.ones(3), SolverConfig(spd_solver="direct"))
    assert np.allclose(xd, [1.5, 2.0, 1.5], atol=1e-12)
    stats = {}
    solve_spd(T, np.ones(3), cfg, stats=stats)
    assert stats["iterations"] >= 1


def test_solve_spd_contract_residual(setup2):
    mesh, maps = setup2
    cfg = SolverConfig()
    S = asm.assemble_bilinear("poisson_p2", mesh, maps).matrix
    data = smooth_case_fields(1.0)
    # f = 3 pi^2 sin sin sin corresponds to the layer source; any smooth rhs works
    b = asm.assemble_load("f_vs_p2", mesh, maps, data["f"], quad_degree=10)
    x = solve_spd(S, b, cfg)
    assert np.linalg.norm(b - S @ x) <= 1e-12 * np.linalg.norm(b) * 10


def test_solve_spd_failure_reports_history():
    cfg = SolverConfig(spd_maxiter=2)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((40, 40))
    A = sp.csr_matrix(A @ A.T + 40 * np.eye(40))
    b = rng.standard_normal(40)
    with pytest.raises(SolverFailure) as exc:
        solve_spd(A, b, cfg)
    assert len(exc.value.residuals) >= 1


def test_saddle_zero_rhs(setup2):
    mesh, maps = setup2
    cfg = SolverConfig(eps=0.5)
    A = vector_form(mesh, maps, 0.5)
    C = asm.assemble_bilinear("curl_coupling", mesh, maps).matrix
    D = asm.assemble_bilinear("div_coupling", mesh, maps).matrix
    vols = asm.q_weights(mesh)
    phi, lam, p, nu, info = solve_saddle(A, C, D, vols, np.zeros(maps[PHI].dim), cfg)
    assert np.abs(phi).max() == 0.0
    assert np.abs(lam).max() == 0.0
    assert np.abs(p).max() == 0.0
    assert nu == 0.0


def test_saddle_manufactured_curl_free(setup2):
    """Matrix-vector oracle: plant the interpolant of a gradient field and
    recover it from the consistent right-hand side."""
    mesh, maps = setup2
    cfg = SolverConfig(eps=0.7)
    A = vector_form(mesh, maps, 0.7)
    C = asm.assemble_bilinear("curl_coupling", mesh, maps).matrix
    D = asm.assemble_bilinear("div_coupling", mesh, maps).matrix
    vols = asm.q_weights(mesh)
    rng = np.random.default_rng(42)
    wstar = rng.standard_normal(maps[W].dim)
    grad = diff_operator_matrix("grad", maps).matrix
    phistar = grad @ wstar  # curl-free member of the vector space
    rhs_phi = A @ phistar
    phi, lam, p, nu, info = solve_saddle(A, C, D, vols, rhs_phi, cfg)
    scale = np.abs(phistar).max()
    assert np.abs(phi - phistar).max() <= 1e-8 * scale
    assert np.abs(lam).max() <= 1e-8 * scale
    assert np.abs(p).max() <= 1e-8 * scale


def test_saddle_tiny_eps_robustness(setup2):
    mesh, maps = setup2
    eps = 1e-10
    cfg = SolverConfig(eps=eps)
    A = vector_form(mesh, maps, eps)
    C = asm.assemble_bilinear("curl_coupling", mesh, maps).matrix
    D = asm.assemble_bilinear("div_coupling", mesh, maps).matrix
    vols = asm.q_weights(mesh)
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(maps[PHI].dim) * 1e-2
    phi, lam, p, nu, info = solve_saddle(A, C, D, vols, rhs, cfg)
    assert info["residuals"][-1] <= 1e-10


@pytest.mark.parametrize("eps", [1.0, 1e-4, 1e-8])
def test_decoupled_identities_interp(setup2, eps):
    mesh, maps = setup2
    data = smooth_case_fields(eps)
    cfg = SolverConfig(eps=eps, method="interp")
    sol = decoupled_solve(data["f"], mesh, cfg, maps)
    ids = sol.diagnostics["identities"]
    scale = ids["scale"]
    assert ids["lambda_l2"] <= 1e-8 * scale
    assert ids["div_p_l2"] <= 1e-8 * scale
    assert ids["ind_phi_minus_grad_u_l2"] <= 1e-8 * scale
    assert ids["curl_phi_l2"] <= 1e-8 * scale


def test_decoupled_identities_nointerp(setup2):
    mesh, maps = setup2
    data = smooth_case_fields(1e-6)
    cfg = SolverConfig(eps=1e-6, method="nointerp")
    sol = decoupled_solve(data["f"], mesh, cfg, maps)
    ids = sol.diagnostics["identities"]
    scale = ids["scale"]
    assert ids["lambda_l2"] <= 1e-8 * scale
    assert ids["curl_phi_l2"] <= 1e-8 * scale


def test_reduced_mode_matches_direct(setup2):
    """The complex-based reduction reproduces the monolithic factorization."""
    from ncderham.interpolate import diff_operator_matrix
    from ncderham.solvers import ReductionOperators

    mesh, maps = setup2
    red = ReductionOperators(
        grad=diff_operator_matrix("grad", maps).matrix,
        curl_nd=diff_operator_matrix("curl_nd", maps).matrix,
        grad_nd=diff_operator_matrix("grad_nd", maps).matrix,
        rt_mass=asm.assemble_bilinear("rt_mass", mesh, maps).matrix,
    )
    rng = np.random.default_rng(7)
    for eps, mass in ((0.6, "ind_mass"), (1e-6, "ind_mass"), (0.3, "phi_mass")):
        A = vector_form(mesh, maps, eps, mass)
        C = asm.assemble_bilinear("curl_coupling", mesh, maps).matrix
        D = asm.assemble_bilinear("div_coupling", mesh, maps).matrix
        vols = asm.q_weights(mesh)
        # consistent rhs: the image of a random curl-free state
        grad = red.grad
        phistar = grad @ rng.standard_normal(maps[W].dim)
        pstar = red.curl_nd @ rng.standard_normal(maps[ND].dim)
        rhs = A @ phistar + C @ pstar
        cfg_d = SolverConfig(eps=eps, saddle_mode="direct")
        cfg_r = SolverConfig(eps=eps, saddle_mode="reduced")
        phi_d, lam_d, p_d, nu_d, _ = solve_saddle(A, C, D, vols, rhs, cfg_d)
        phi_r, lam_r, p_r, nu_r, info = solve_saddle(
            A, C, D, vols, rhs, cfg_r, reduction=red
        )
        assert info["mode"] == "reduced"
        scale = max(1.0, np.abs(phi_d).max())
        assert np.abs(phi_r - phi_d).max() <= 1e-7 * scale
        assert np.abs(p_r - p_d).max() <= 1e-6 * max(1.0, np.abs(p_d).max())
        assert np.abs(lam_d).max() <= 1e-8
        assert np.abs(lam_r).max() == 0.0
        assert abs(nu_d) <= 1e-8 and nu_r == 0.0


def test_stage_matrices_shared(setup2):
    mesh, maps = setup2
    data = smooth_case_fields(1.0)
    cfg = SolverConfig(eps=1.0)
    forms = {}
    decoupled_solve(data["f"], mesh, cfg, maps, forms)
    # one stiffness serves stages one and four
    assert "poisson_p2" in forms
    n_before = len(forms)
    decoupled_solve(data["f"], mesh, cfg, maps, forms)
    assert len(forms) == n_before
