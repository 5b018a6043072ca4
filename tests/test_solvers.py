import types

import numpy as np
import pytest
import scipy.sparse as sp

from ncderham import assembly as asm
from ncderham import solvers
from ncderham.assembly import ND, P2, PHI, W
from ncderham.fields import layer_case_fields, smooth_case_fields
from ncderham.interpolate import diff_operator_matrix
from ncderham.errors import compute_error, err_phi
from ncderham.mesh import build_unit_cube_mesh
from oracles import solve_saddle_lu
from test_fields import _jittered_cube
from ncderham.solvers import (
    SADDLE_TOL,
    SPACES,
    SPD_TOL,
    Level,
    SolverConfig,
    SolverFailure,
    VCycle,
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


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(method="magic")


def test_build_spaces_returns_a_level_of_the_six_maps(setup2):
    """A level maps each space tag to its DofMap on the level's mesh, and
    an unknown kind raises instead of building anything."""
    mesh, _ = setup2
    level = build_spaces(mesh)
    assert isinstance(level, Level) and level.mesh is mesh
    assert list(level) == list(SPACES)
    for s in SPACES:
        assert isinstance(level[s], asm.DofMap)
        assert level[s].space == s and level[s].mesh is mesh
    with pytest.raises(asm.AssemblyError):
        level["no_such_kind"]
    assert list(level) == list(SPACES)


def test_a_level_of_another_mesh_raises(setup2):
    """``decoupled_solve`` checks once that its level is built on its mesh."""
    mesh, _ = setup2
    other = build_spaces(build_unit_cube_mesh(2))
    with pytest.raises(asm.AssemblyError):
        decoupled_solve(smooth_case_fields(1.0)["f"], mesh, SolverConfig(), other)


def test_solve_spd_identity_and_tridiagonal():
    I = sp.eye(5, format="csr")
    b = np.arange(5.0)
    assert np.allclose(solve_spd(I, b), b)
    T = sp.csr_matrix(
        np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    )
    x = solve_spd(T, np.ones(3))
    assert np.allclose(x, [1.5, 2.0, 1.5], atol=1e-10)
    stats = {}
    solve_spd(T, np.ones(3), stats=stats)
    assert stats["iterations"] >= 1


def test_solve_spd_contract_residual(setup2):
    mesh, maps = setup2
    S = asm.assemble_bilinear("poisson_p2", mesh, maps).matrix
    data = smooth_case_fields(1.0)
    # f = 3 pi^2 sin sin sin corresponds to the layer source; any smooth rhs works
    b = asm.assemble_load("f_vs_p2", maps, data["f"])
    x = solve_spd(S, b)
    assert np.linalg.norm(b - S @ x) <= 1e-12 * np.linalg.norm(b) * 10


def test_solve_spd_failure_reports_history(monkeypatch):
    monkeypatch.setattr(solvers, "SPD_MAXITER", 2)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((40, 40))
    A = sp.csr_matrix(A @ A.T + 40 * np.eye(40))
    b = rng.standard_normal(40)
    with pytest.raises(SolverFailure) as exc:
        solve_spd(A, b)
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
    x = solve_spd(T, np.ones(3), stats=stats)
    assert np.allclose(x, [1.5 + 1e-3, 2.0 + 1e-3, 1.5 + 1e-3])
    assert stats["reason"] == "drifted"
    assert stats["residual"] > stats["target"]


def test_saddle_zero_rhs(setup2):
    mesh, maps = setup2
    A = vector_form(mesh, maps, 0.5)
    C = asm.assemble_bilinear("curl_coupling", mesh, maps).matrix
    phi, lam, p, nu, info = solve_saddle(A, C, np.zeros(maps[PHI].dim), maps)
    assert info["mode"] == "reduced"
    assert np.abs(phi).max() == 0.0
    assert np.abs(lam).max() == 0.0
    assert np.abs(p).max() == 0.0
    assert nu == 0.0


def test_saddle_manufactured_curl_free(setup2):
    """Matrix-vector oracle: plant the interpolant of a gradient field and
    recover it from the consistent right-hand side."""
    mesh, maps = setup2
    A = vector_form(mesh, maps, 0.7)
    C = asm.assemble_bilinear("curl_coupling", mesh, maps).matrix
    rng = np.random.default_rng(42)
    wstar = rng.standard_normal(maps[W].dim)
    grad = diff_operator_matrix("grad", maps)
    phistar = grad @ wstar  # curl-free member of the vector space
    rhs_phi = A @ phistar
    phi, lam, p, nu, info = solve_saddle(A, C, rhs_phi, maps)
    assert info["mode"] == "reduced"
    scale = np.abs(phistar).max()
    assert np.abs(phi - phistar).max() <= 1e-8 * scale
    assert np.abs(lam).max() <= 1e-8 * scale
    assert np.abs(p).max() <= 1e-8 * scale


def test_saddle_tiny_eps_robustness(setup2):
    mesh, maps = setup2
    eps = 1e-10
    A = vector_form(mesh, maps, eps)
    C = asm.assemble_bilinear("curl_coupling", mesh, maps).matrix
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(maps[PHI].dim) * 1e-2
    phi, lam, p, nu, info = solve_saddle(A, C, rhs, maps)
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
    grad = diff_operator_matrix("grad", maps)
    curl_nd = maps["curl_nd"]
    rng = np.random.default_rng(7)
    for eps, mass in ((0.6, "ind_mass"), (1e-6, "ind_mass"), (0.3, "phi_mass")):
        A = vector_form(mesh, maps, eps, mass)
        C = asm.assemble_bilinear("curl_coupling", mesh, maps).matrix
        D = asm.assemble_bilinear("div_coupling", mesh, maps).matrix
        vols = asm.q_weights(mesh)
        # consistent rhs: the image of a random curl-free state
        phistar = grad @ rng.standard_normal(maps[W].dim)
        pstar = curl_nd @ rng.standard_normal(maps[ND].dim)
        rhs = A @ phistar + C @ pstar
        phi_d, lam_d, p_d, nu_d, info_d = solve_saddle_lu(A, C, D, vols, rhs)
        phi_r, lam_r, p_r, nu_r, info = solve_saddle(A, C, rhs, maps)
        assert info_d["mode"] == "direct" and info["mode"] == "reduced"
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
    level = build_spaces(mesh)
    decoupled_solve(data["f"], mesh, cfg, level)
    # one stiffness serves stages one and four
    assert "poisson_p2" in level
    n_before = len(level)
    decoupled_solve(data["f"], mesh, cfg, level)
    assert len(level) == n_before


def _same_csr(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("data", "indices", "indptr"))


@pytest.mark.parametrize("name", ["kuhn2", "kuhn3", "jittered2"])
def test_saddle_operators_keep_the_bits_of_the_product_chains(name, monkeypatch):
    """The level's CSR transposes, flux curl-curl and projection Laplacian,
    and the potential matrix the saddle stage forms from the cached
    transpose, carry the data, indices and indptr of the products through
    scipy's CSC transposes that they replace; the transposes apply as the
    ``.T`` products did."""
    mesh = _jittered_cube() if name == "jittered2" else build_unit_cube_mesh(int(name[4:]))
    maps = build_spaces(mesh)
    G, Knd, Gnd, Mrt = (maps[k] for k in ("grad", "curl_nd", "grad_nd", "rt_mass"))
    A = vector_form(mesh, maps, 0.3).copy()
    reference = {
        "flux_curl_curl": solvers._symmetric_part((Knd.T @ (Mrt @ Knd)).tocsr()),
        "projection_laplacian": (Gnd.T @ Gnd).tocsr(),
    }
    for kind, ref in reference.items():
        assert _same_csr(maps[kind], ref), kind
    rng = np.random.default_rng(5)
    for kind, op in (("grad_t", G), ("grad_nd_t", Gnd)):
        Ot = maps[kind]
        assert _same_csr(Ot, op.T.tocsr()), kind
        v = rng.standard_normal(op.shape[0])
        assert np.array_equal(Ot @ v, op.T @ v), kind

    matrices = []

    def recording_solve_spd(matrix, *args, **kwargs):
        matrices.append(matrix)
        return solve_spd(matrix, *args, **kwargs)

    monkeypatch.setattr(solvers, "solve_spd", recording_solve_spd)
    C = asm.assemble_bilinear("curl_coupling", mesh, maps).matrix
    rhs = A @ (G @ rng.standard_normal(maps[W].dim))
    solve_saddle(A, C, rhs, maps)
    potential, projection = matrices[:2]
    assert _same_csr(potential, solvers._symmetric_part((G.T @ (A @ G)).tocsr()))
    assert projection is maps["projection_laplacian"]


@pytest.fixture(scope="module")
def level_reuse():
    """Smooth n=4 solves at eps=1, then eps=1e-4, on one level, with both
    V-cycles forced on and every build of a form, an operator of the
    complex, a transfer or a kind of the level table counted."""
    mesh = build_unit_cube_mesh(4)
    level = build_spaces(mesh)
    built, cycles = [], []

    def counting(label, build):
        def wrapper(*args, **kwargs):
            built.append(label)
            return build(*args, **kwargs)
        return wrapper

    class RecordingVCycle(VCycle):
        def __init__(self, *args):
            super().__init__(*args)
            cycles.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_takes_multigrid", lambda mesh: True)
        mp.setattr(solvers, "VCycle", RecordingVCycle)
        mp.setattr(asm, "assemble_bilinear", counting("form", asm.assemble_bilinear))
        for name in ("diff_operator_matrix", "vertex_interpolant", "p1_kuhn_prolongation"):
            mp.setattr(solvers, name, counting(name, getattr(solvers, name)))
        mp.setattr(solvers, "_LEVEL_KINDS", {
            k: counting(k, b) for k, b in solvers._LEVEL_KINDS.items()})
        first = decoupled_solve(smooth_case_fields(1.0)["f"], mesh,
                                SolverConfig(eps=1.0), level)
        cached, count = dict(level), len(built)
        second = decoupled_solve(smooth_case_fields(1e-4)["f"], mesh,
                                 SolverConfig(eps=1e-4), level)
        built_again = built[count:]
        fresh = decoupled_solve(smooth_case_fields(1e-4)["f"], mesh,
                                SolverConfig(eps=1e-4), build_spaces(mesh))
    return {"level": level, "cached": cached,
            "built": built[:count], "built_again": built_again, "cycles": cycles,
            "solves": (first, second, fresh)}


def test_a_second_solve_on_a_level_forms_nothing_eps_free_again(level_reuse):
    """Every kind of the level table is built on the level's first solve,
    and each operator of the complex once; the second solve forms none of
    them, nor any form or transfer, and finds the same objects in the level.
    The W potential's cycle is rebuilt (its matrix depends on eps) from the
    level's transfers."""
    r = level_reuse
    assert set(solvers._LEVEL_KINDS) <= set(r["built"])
    # grad, curl and div, once each: the ND blocks are slices of grad and curl
    assert r["built"].count("diff_operator_matrix") == 3
    assert r["built_again"] == []
    assert r["level"].keys() == r["cached"].keys()
    assert all(r["level"][k] is v for k, v in r["cached"].items())
    w_dim = r["level"][W].dim
    w_cycles = [c for c in r["cycles"] if c.shape[0] == w_dim]
    assert len(w_cycles) == 3  # one per saddle solve
    first, second = w_cycles[:2]
    assert all(a is b for a, b in zip(first.transfers, second.transfers, strict=True))


def test_a_shared_level_solves_as_a_fresh_one(level_reuse):
    """eps=1e-4 after eps=1 on one level gives the bits of eps=1e-4 on a
    fresh level: the same phi_h and u_h and the same Krylov records, set-up
    seconds aside."""
    _, shared, fresh = level_reuse["solves"]
    for key in ("w_h", "phi_h", "p_h", "u_h"):
        assert np.array_equal(getattr(shared, key).coeffs, getattr(fresh, key).coeffs), key

    def records(sol):
        return [{k: v for k, v in r.items() if k != "setup_s"}
                for r in sol.diagnostics["krylov"]]

    assert records(shared) == records(fresh)
    assert shared.diagnostics["saddle"]["residuals"] == fresh.diagnostics["saddle"]["residuals"]


# the forms of the interp method that a caller may assemble up front, as the
# benchmark does for every level
INTERP_FORMS = ("poisson_p2", "phi_stiffness", "ind_mass", "curl_coupling",
                "div_coupling", "rt_mass")


@pytest.fixture(scope="module")
def prefilled_level():
    """A Kuhn n=4 level solved once with the interp forms assembled up
    front, as ``assemble_bilinear`` returns them, both V-cycles forced on
    and every call of ``assemble_bilinear`` counted."""
    mesh = build_unit_cube_mesh(4)
    level = build_spaces(mesh)
    forms = {k: asm.assemble_bilinear(k, mesh, level) for k in INTERP_FORMS}
    prefilled = dict(forms)
    assembled = []

    def counting(kind, *args):
        assembled.append(kind)
        return prefilled[kind]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_takes_multigrid", lambda mesh: True)
        mp.setattr(asm, "assemble_bilinear", counting)
        decoupled_solve(smooth_case_fields(1.0)["f"], mesh, SolverConfig(eps=1.0),
                        level, forms)
    return level, forms, prefilled, assembled


def test_a_prefilled_level_cache_is_used_as_it_is(prefilled_level):
    """``decoupled_solve`` adopts the forms a caller assembled up front:
    it assembles none of them again, leaves the caller's dict as it was,
    and the level keeps each one's matrix."""
    level, forms, prefilled, assembled = prefilled_level
    assert assembled == []
    for kind, form in prefilled.items():
        assert forms[kind] is form
        assert level[kind] is form.matrix


def test_every_level_kind_builds_once(prefilled_level):
    """With multigrid forced on, one solve builds every kind of the level
    table and every operator of the complex; a second lookup returns the
    identical object."""
    level, _, _, _ = prefilled_level
    kinds = (*solvers._LEVEL_KINDS, "grad", "curl", "div")
    assert set(kinds) <= set(level)
    for kind in kinds:
        found = level[kind]
        assert found is dict.__getitem__(level, kind) and level[kind] is found
    assert isinstance(level["p2_cycle"], VCycle)
    assert all(a is b for a, b in zip(level["p2_cycle"].transfers[1:],
                                      level["p1_prolongations"], strict=True))
    assert level["grad_nd"].shape == (level[ND].dim, level[P2].dim)
    assert level["curl_nd"].shape == (level["curl"].shape[0], level[ND].dim)


def test_inner_stops_end_the_small_eps_flux_stall(setup4):
    """At eps=1e-8 the flux right-hand side lies below the outer problem's
    scale, so the flux solve stops at once instead of running to maxiter."""
    mesh, maps = setup4
    cfg = SolverConfig(eps=1e-8)
    sol = decoupled_solve(layer_case_fields()["f"], mesh, cfg, maps)
    saddle = sol.diagnostics["saddle"]
    assert saddle["mode"] == "reduced"
    assert saddle["krylov"]
    assert all(r["reason"] == "converged" for r in saddle["krylov"])
    assert [r["iterations"] for r in saddle["krylov"] if r["stage"] == "flux"] == [0]
    assert saddle["residuals"][-1] <= SADDLE_TOL


def test_inner_stops_are_certificate_scaled(setup4):
    """Every inner solve of the reduced saddle stops at SPD_TOL times the
    saddle's data scale, unless its own relative stop is the looser one
    (the first potential solve, whose right-hand side is the data itself)."""
    mesh, maps = setup4
    cfg = SolverConfig(eps=1.0)
    sol = decoupled_solve(smooth_case_fields(1.0)["f"], mesh, cfg, maps)
    rhs_phi = asm.assemble_load("gradw_vs_indphi", maps, sol.w_h)
    atol = SPD_TOL * (1.0 + np.linalg.norm(rhs_phi))
    grad = diff_operator_matrix("grad", maps)
    first_potential = max(atol, SPD_TOL * np.linalg.norm(grad.T @ rhs_phi))

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


def test_flux_solve_at_maxiter_is_left_to_the_certificate(setup2, monkeypatch):
    """A flux solve that hits maxiter is not judged by a floor of its own:
    the refinement and the certificate decide, and the failure names it."""
    mesh, maps = setup2
    curl_nd = maps["curl_nd"]
    A = vector_form(mesh, maps, 0.6)
    C = asm.assemble_bilinear("curl_coupling", mesh, maps).matrix
    # a pure flux right-hand side: the potential solves take no iterations
    pstar = curl_nd @ np.random.default_rng(5).standard_normal(maps[ND].dim)
    monkeypatch.setattr(solvers, "SPD_MAXITER", 5)
    with pytest.raises(SolverFailure) as exc:
        solve_saddle(A, C, C @ pstar, maps)
    assert "stopped at maxiter: flux (sweep 1)" in str(exc.value)
    # the refinement stops at its fourth residual: three corrections, and no
    # fourth that nothing would measure
    assert len(exc.value.residuals) == 4
    assert "sweep 4" not in str(exc.value)


def test_inner_solve_failure_names_its_stage(setup4, monkeypatch):
    mesh, maps = setup4
    monkeypatch.setattr(solvers, "SPD_MAXITER", 3)
    with pytest.raises(SolverFailure) as exc:
        decoupled_solve(smooth_case_fields(1.0)["f"], mesh, SolverConfig(eps=1.0), maps)
    assert str(exc.value).startswith("stage 1 (poisson w): ")
    assert exc.value.residuals


def potential_matrix(mesh, maps, eps):
    """The saddle stage's W potential matrix G^T (eps^2 stiffness + mass) G."""
    G = diff_operator_matrix("grad", maps)
    return (G.T @ (vector_form(mesh, maps, eps) @ G)).tocsr()


def w_transfers(mesh):
    """The V-cycle's transfers on ``mesh``: W from the P1 vertex space, then
    P1 down the Kuhn hierarchy."""
    return build_spaces(mesh)["w_transfers"]


def assert_symmetric_and_positive(B, rng):
    for _ in range(5):
        x, y = rng.standard_normal((2, B.shape[0]))
        Bx, By = B @ x, B @ y
        assert abs(Bx @ y - x @ By) <= 1e-12 * np.linalg.norm(Bx) * np.linalg.norm(y)
        assert x @ Bx > 0


def test_vcycle_is_symmetric_and_positive(setup4):
    mesh, maps = setup4
    A = potential_matrix(mesh, maps, 1.0)
    transfers = w_transfers(mesh)
    assert [P.shape for P in transfers] == [(maps[W].dim, 27), (27, 1)]
    B = VCycle(A, transfers)
    assert B.info["preconditioner"] == "multigrid" and B.info["levels"] == 3
    assert B.info["coarse_dims"] == [maps[W].dim, 27, 1]
    assert_symmetric_and_positive(B, np.random.default_rng(11))


def test_p2_cycle_is_symmetric_and_shares_the_p1_chain(setup4):
    """The P2 Poisson cycle starts from the P1 vertex space as the W one
    does; both cycles of a level share one P1 prolongation chain, and the
    set-up time goes to the first record only."""
    mesh, _ = setup4
    level = build_spaces(mesh)
    B = level["p2_cycle"]
    assert level["p2_cycle"] is B
    assert [P.shape for P in B.transfers] == [(level[P2].dim, 27), (27, 1)]
    w_chain = level["w_transfers"][1:]
    assert all(a is b for a, b in zip(B.transfers[1:], w_chain, strict=True))
    assert_symmetric_and_positive(B, np.random.default_rng(13))
    first, second = B.record(), B.record()
    assert first["setup_s"] > 0 and second["setup_s"] == 0.0
    assert first["coarse_dims"] == second["coarse_dims"] == [level[P2].dim, 27, 1]


def test_symmetric_part_and_roundoff_filter_keep_their_references_bits(setup4):
    """``_symmetric_part`` gives the bits of ``(M + M.T) * 0.5`` in arrays of
    its own; ``_without_roundoff`` keeps exactly the entries of the plain
    mask ``|a_ij| >= 1e-12 sqrt(a_ii a_jj)``."""
    mesh, maps = setup4
    M = potential_matrix(mesh, maps, 1.0)
    S = solvers._symmetric_part(M)
    ref = ((M + M.T) * 0.5).tocsr()
    for k in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(S, k), getattr(ref, k))
    for stored in (S.data, S.indices):  # a plain sum keeps 2 nnz of each
        assert (stored if stored.base is None else stored.base).size == S.nnz
    d = np.sqrt(S.diagonal())
    rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
    keep = np.abs(S.data) >= 1e-12 * d[rows] * d[S.indices]
    F = solvers._without_roundoff(S)
    assert 0 < np.count_nonzero(~keep) and F.nnz == np.count_nonzero(keep)
    assert np.array_equal(F.data, S.data[keep]) and np.array_equal(F.indices, S.indices[keep])


def test_vcycle_on_one_level_is_the_direct_solve(setup2):
    """Without transfers the cycle is the coarse LU alone.  At n=2 there is
    no P1 level below the vertex space, which has one vertex."""
    mesh, maps = setup2
    A = potential_matrix(mesh, maps, 1.0)
    assert [P.shape for P in w_transfers(mesh)] == [(maps[W].dim, 1)]
    b = np.random.default_rng(12).standard_normal(A.shape[0])
    B = VCycle(A, ())
    assert B.info["levels"] == 1 and B.info["coarse_dims"] == [A.shape[0]]
    x = B @ b
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)


@pytest.fixture(scope="module")
def stiff_n8():
    """The n=8, eps=1 smooth case with the P2 Poisson and W potential solves
    forced onto the multigrid route (n=8 is below the selection's size line,
    so production solves take Jacobi there)."""
    mesh = build_unit_cube_mesh(8)
    maps = build_spaces(mesh)
    data = smooth_case_fields(1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_takes_multigrid", lambda mesh: True)
        sol = decoupled_solve(data["f"], mesh, SolverConfig(eps=1.0), maps)
    return mesh, data, sol


def _errors(sol, data, eps):
    return np.array([
        err_phi(sol.phi_h, data["phi"], eps),
        compute_error("l2_scalar", sol.u_h, data["u"]),
        compute_error("h1semi_scalar", sol.u_h, data["u"]),
    ])


def test_multigrid_and_jacobi_routes_agree(stiff_n8):
    """Left to the selection, n=8 takes Jacobi; both routes give the same
    errors."""
    mesh, data, sol = stiff_n8
    jac = decoupled_solve(data["f"], mesh, SolverConfig(eps=1.0), build_spaces(mesh))
    potentials = [r for r in jac.diagnostics["krylov"] if r["stage"] == "potential"]
    assert {r["preconditioner"] for r in potentials} == {"jacobi"}
    mg, ref = _errors(sol, data, 1.0), _errors(jac, data, 1.0)
    assert np.all(np.abs(mg - ref) <= 1e-9 * np.abs(ref))


def test_multigrid_potential_takes_one_sweep(stiff_n8):
    """At n=8, eps=1 the potential needs at most 100 MG-PCG iterations and
    the saddle one sweep.  Its first record may read drifted: rounding the
    solution to double already leaves a residual of about 1e-9, above the
    1.8e-10 target of SPD_TOL * ||rhs||."""
    _, _, sol = stiff_n8
    potentials = [r for r in sol.diagnostics["krylov"] if r["stage"] == "potential"]
    assert [r["sweep"] for r in potentials] == [1]
    for r in potentials:
        assert r["preconditioner"] == "multigrid"
        assert r["levels"] == 4 and r["setup_s"] > 0
        assert r["coarse_dims"] == [sol.diagnostics["dims"][W], 7**3, 3**3, 1]
        assert 1 <= r["iterations"] <= 100
    saddle = sol.diagnostics["saddle"]
    assert saddle["residuals"][-1] <= SADDLE_TOL
    poisson = [r for r in sol.diagnostics["krylov"] if r["stage"].startswith("poisson")]
    assert [r["preconditioner"] for r in poisson] == ["multigrid"] * 2
    assert all(r["coarse_dims"] == [sol.diagnostics["dims"][P2], 7**3, 3**3, 1]
               for r in poisson)
    others = [r for r in sol.diagnostics["krylov"] if r["stage"] in ("projection", "flux")]
    assert {r["preconditioner"] for r in others} == {"jacobi"}
    assert all("setup_s" not in r for r in others)


@pytest.mark.parametrize("n, eps, expected", [
    (16, 1.0, True),    # P1 levels 16 -> 8 -> 4 -> 2
    (24, 1.0, True),    # 24 -> 12 -> 6 -> 3
    (32, 1e-2, True),   # eps / h = 0.18
    (16, 1e-2, True),   # eps / h = 0.09: eps does not enter the rule
    (16, 1e-8, True),   # the layer test's smallest eps
    (8, 1.0, False),    # below the size line
    (18, 1.0, True),    # 18 -> 9: the coarse P1 LU has 512 unknowns
    (20, 1.0, True),    # 20 -> 10 -> 5
    (17, 1.0, True),    # no halving: the P1 LU has 4096 unknowns
    (None, 1.0, False),  # not a Kuhn cube (build_mesh_from_tets)
])
def test_multigrid_selection(n, eps, expected):
    """Both V-cycles run on Kuhn cubes with n >= 16, whatever eps (the rows
    span eps/h from 1e-7 to 9); decided from the mesh alone, without
    building a level."""
    mesh = types.SimpleNamespace(kuhn_n=n)
    assert solvers._takes_multigrid(mesh) == expected


def test_n8_keeps_jacobi_on_every_stage():
    mesh = build_unit_cube_mesh(8)
    sol = decoupled_solve(
        smooth_case_fields(1e-4)["f"], mesh, SolverConfig(eps=1e-4), build_spaces(mesh)
    )
    stages = [r["stage"] for r in sol.diagnostics["krylov"]]
    assert stages[0] == "poisson_w" and stages[-1] == "poisson_u" and "potential" in stages
    assert {r["preconditioner"] for r in sol.diagnostics["krylov"]} == {"jacobi"}


@pytest.fixture(scope="module")
def smooth_n16():
    """Two n=16, eps=1e-4 smooth solves on one level."""
    mesh = build_unit_cube_mesh(16)
    level = build_spaces(mesh)
    f = smooth_case_fields(1e-4)["f"]
    config = SolverConfig(eps=1e-4)
    first = decoupled_solve(f, mesh, config, level)
    cycle = level["p2_cycle"]
    second = decoupled_solve(f, mesh, config, level)
    return first, second, cycle, level


def test_p2_poisson_takes_the_multigrid_cycle_at_n16(smooth_n16):
    first, second, _, _ = smooth_n16
    dims = first.diagnostics["dims"]
    for sol in (first, second):
        records = {r["stage"]: r for r in sol.diagnostics["krylov"]}
        for stage in ("poisson_w", "potential", "poisson_u"):
            r = records[stage]
            assert r["preconditioner"] == "multigrid" and r["reason"] == "converged"
            assert 1 <= r["iterations"] <= 20
        for stage in ("poisson_w", "poisson_u"):
            assert records[stage]["coarse_dims"] == [dims[P2], 15**3, 7**3, 3**3, 1]
    assert np.array_equal(first.u_h.coeffs, second.u_h.coeffs)


def test_p2_cycle_is_built_once_per_level(smooth_n16):
    """The second solve on the level reuses the first one's cycle, so its
    Poisson records show no set-up; so does the first solve's poisson_u."""
    first, second, cycle, level = smooth_n16
    assert level["p2_cycle"] is cycle
    setups = [[r["setup_s"] for r in sol.diagnostics["krylov"]
               if r["stage"].startswith("poisson")] for sol in (first, second)]
    assert setups[0][0] > 0
    assert setups[0][1:] + setups[1] == [0.0] * 3
