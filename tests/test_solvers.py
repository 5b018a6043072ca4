import numpy as np
import pytest
import scipy.sparse as sp

from ncderham import assembly as asm
from ncderham import solvers
from ncderham.assembly import ND, PHI, W
from ncderham.fields import layer_case_fields, smooth_case_fields
from ncderham.interpolate import diff_operator_matrix
from ncderham.mesh import build_unit_cube_mesh
from ncderham.solvers import (
    ReductionOperators,
    SolverConfig,
    SolverFailure,
    build_spaces,
    decoupled_solve,
    solve_saddle,
    solve_spd,
)

SADDLE_STAGES = ("potential", "projection", "flux")


@pytest.fixture(scope="module")
def setup2():
    mesh = build_unit_cube_mesh(2)
    return mesh, build_spaces(mesh)


@pytest.fixture(scope="module")
def setup4():
    mesh = build_unit_cube_mesh(4)
    return mesh, build_spaces(mesh)


def vector_form(mesh, maps, eps, mass="ind_mass"):
    """The saddle stage's vector-unknown matrix, eps^2 * stiffness + mass."""
    stiff = asm.assemble_bilinear("phi_stiffness", mesh, maps).matrix
    return (eps**2) * stiff + asm.assemble_bilinear(mass, mesh, maps).matrix


def reduction_operators(mesh, maps):
    """The exact operators the production (reduced) saddle route needs."""
    return ReductionOperators(
        grad=diff_operator_matrix("grad", maps).matrix,
        curl_nd=diff_operator_matrix("curl_nd", maps).matrix,
        grad_nd=diff_operator_matrix("grad_nd", maps).matrix,
        rt_mass=asm.assemble_bilinear("rt_mass", mesh, maps).matrix,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(method="magic")
    with pytest.raises(ValueError):
        SolverConfig(spd_tol=2.0)
    with pytest.raises(ValueError):
        SolverConfig(saddle_mode="auto")


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


def test_solve_spd_records_a_drifted_true_residual(monkeypatch):
    """CG that reports convergence on its recursive residual while the true
    residual misses the target is recorded as drifted, and not raised."""
    cg = solvers.spla.cg

    def perturbed_cg(*args, **kwargs):
        x, _ = cg(*args, **kwargs)
        return x + 1e-3, 0

    monkeypatch.setattr(solvers.spla, "cg", perturbed_cg)
    T = sp.csr_matrix(
        np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    )
    stats = {}
    x = solve_spd(T, np.ones(3), SolverConfig(), stats=stats)
    assert np.allclose(x, [1.5 + 1e-3, 2.0 + 1e-3, 1.5 + 1e-3])
    assert stats["reason"] == "drifted"
    assert stats["residual"] > stats["target"]


def test_saddle_zero_rhs(setup2):
    mesh, maps = setup2
    cfg = SolverConfig(eps=0.5)
    A = vector_form(mesh, maps, 0.5)
    C = asm.assemble_bilinear("curl_coupling", mesh, maps).matrix
    D = asm.assemble_bilinear("div_coupling", mesh, maps).matrix
    vols = asm.q_weights(mesh)
    phi, lam, p, nu, info = solve_saddle(
        A, C, D, vols, np.zeros(maps[PHI].dim), cfg,
        reduction=reduction_operators(mesh, maps),
    )
    assert info["mode"] == "reduced"
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
    phi, lam, p, nu, info = solve_saddle(
        A, C, D, vols, rhs_phi, cfg, reduction=reduction_operators(mesh, maps)
    )
    assert info["mode"] == "reduced"
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
    phi, lam, p, nu, info = solve_saddle(
        A, C, D, vols, rhs, cfg, reduction=reduction_operators(mesh, maps)
    )
    assert info["mode"] == "reduced"
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
    mesh, maps = setup2
    red = reduction_operators(mesh, maps)
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


def test_inner_stops_end_the_small_eps_flux_stall(setup4):
    """At eps=1e-8 the flux right-hand side lies below the outer problem's
    scale, so the flux solve stops at once instead of running to maxiter."""
    mesh, maps = setup4
    cfg = SolverConfig(eps=1e-8, saddle_mode="reduced")
    sol = decoupled_solve(layer_case_fields()["f"], mesh, cfg, maps)
    saddle = sol.diagnostics["saddle"]
    assert saddle["mode"] == "reduced"
    assert saddle["krylov"]
    assert all(r["reason"] == "converged" for r in saddle["krylov"])
    assert [r["iterations"] for r in saddle["krylov"] if r["stage"] == "flux"] == [0]
    assert saddle["residuals"][-1] <= cfg.saddle_tol


def test_inner_stops_are_certificate_scaled(setup4):
    """Every inner solve of the reduced saddle stops at spd_tol times the
    saddle's data scale, unless its own relative stop is the looser one
    (the first potential solve, whose right-hand side is the data itself)."""
    mesh, maps = setup4
    cfg = SolverConfig(eps=1.0, saddle_mode="reduced")
    sol = decoupled_solve(smooth_case_fields(1.0)["f"], mesh, cfg, maps)
    rhs_phi = asm.assemble_load("gradw_vs_indphi", mesh, maps, sol.w_h)
    atol = cfg.spd_tol * (1.0 + np.linalg.norm(rhs_phi))
    grad = diff_operator_matrix("grad", maps).matrix
    first_potential = max(atol, cfg.spd_tol * np.linalg.norm(grad.T @ rhs_phi))

    records = sol.diagnostics["krylov"]
    assert records[0]["stage"] == "poisson_w"
    assert records[-1]["stage"] == "poisson_u"
    saddle = records[1:-1]
    assert saddle == sol.diagnostics["saddle"]["krylov"]
    assert [r["stage"] for r in saddle] == list(SADDLE_STAGES) * (len(saddle) // 3)
    assert "poisson_cg_iterations" not in sol.diagnostics
    for r in saddle:
        assert r["reason"] == "converged"
        assert r["residual"] <= r["target"]
        if r["stage"] == "potential" and r["sweep"] == 1:
            assert r["target"] == pytest.approx(first_potential, rel=1e-12)
        else:
            assert r["target"] == atol


def test_flux_solve_at_maxiter_is_left_to_the_certificate(setup2):
    """A flux solve that hits maxiter is not judged by a floor of its own:
    the refinement and the certificate decide, and the failure names it."""
    mesh, maps = setup2
    red = reduction_operators(mesh, maps)
    A = vector_form(mesh, maps, 0.6)
    C = asm.assemble_bilinear("curl_coupling", mesh, maps).matrix
    D = asm.assemble_bilinear("div_coupling", mesh, maps).matrix
    # a pure flux right-hand side: the potential solves take no iterations
    pstar = red.curl_nd @ np.random.default_rng(5).standard_normal(maps[ND].dim)
    cfg = SolverConfig(eps=0.6, saddle_mode="reduced", spd_maxiter=5)
    with pytest.raises(SolverFailure) as exc:
        solve_saddle(A, C, D, asm.q_weights(mesh), C @ pstar, cfg, reduction=red)
    assert "stopped at maxiter: flux (sweep 1)" in str(exc.value)
    assert exc.value.residuals


def test_inner_solve_failure_names_its_stage(setup4):
    mesh, maps = setup4
    cfg = SolverConfig(eps=1.0, saddle_mode="reduced", spd_maxiter=3)
    with pytest.raises(SolverFailure) as exc:
        decoupled_solve(smooth_case_fields(1.0)["f"], mesh, cfg, maps)
    assert str(exc.value).startswith("stage 1 (poisson w): ")
    assert exc.value.residuals
