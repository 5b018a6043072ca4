import json
from pathlib import Path

import pytest

from ncderham import assembly as asm
from ncderham import cli
from ncderham.cli import StudyConfig, main, run_verify
from ncderham.fields import smooth_case_fields
from ncderham.mesh import build_unit_cube_mesh
from ncderham.solvers import SPACES, SolverConfig, build_spaces, decoupled_solve
from ncderham.verify import (
    check_commuting,
    check_complex,
    check_infsup,
    check_solution_identities,
    check_unisolvence,
    check_weak_continuity,
)
from test_solvers import COUPLING_KINDS


@pytest.fixture(scope="module")
def level1():
    return build_spaces(build_unit_cube_mesh(1))


@pytest.fixture(scope="module")
def level2():
    return build_spaces(build_unit_cube_mesh(2))


def test_check_complex_n1(level1):
    rep = check_complex(level1)
    assert rep.passed, rep.to_text()
    by_name = {c.name: c for c in rep.checks}
    # rank(curl) = |E_int| - |V_int| = 1 - 0 = 1
    assert by_name["complex.rank_curl_euler"].value == 1.0


def test_check_complex_n2(level2):
    rep = check_complex(level2)
    assert rep.passed, rep.to_text()
    by_name = {c.name: c for c in rep.checks}
    assert by_name["complex.exactness_at_rt"].passed


def test_check_complex_rejects_large_mesh():
    level = build_spaces(build_unit_cube_mesh(6))
    with pytest.raises(MemoryError):
        check_complex(level)


@pytest.mark.parametrize("n", [1, 2])
def test_check_commuting(n):
    rep = check_commuting(build_spaces(build_unit_cube_mesh(n)))
    assert rep.passed, rep.to_text()


def test_check_weak_continuity(level2):
    rep = check_weak_continuity(level2)
    assert rep.passed, rep.to_text()


def test_weak_continuity_detects_orientation_corruption(level2):
    """Flipping one entry of the ascending-order table breaks the global
    single-valuedness and the check must notice."""
    mesh2 = level2.mesh
    saved = mesh2.tet_edge_vertices.copy()
    geom_saved = getattr(mesh2, "_geometry", None)
    try:
        mesh2.tet_edge_vertices[3, 2] = mesh2.tet_edge_vertices[3, 2][::-1]
        mesh2._geometry = None
        rep = check_weak_continuity(level2)
        assert not rep.passed
    finally:
        mesh2.tet_edge_vertices[:] = saved
        mesh2._geometry = geom_saved


def test_check_unisolvence_small():
    rep = check_unisolvence()
    assert rep.passed, rep.to_text()


def test_check_infsup():
    """The inf-sup betas are positive, and the coupling comes from the
    complex's operators: the check assembles no coupling form."""
    level = build_spaces(build_unit_cube_mesh(1))
    rep = check_infsup(level)
    assert rep.passed, rep.to_text()
    betas = [c.value for c in rep.checks]
    assert all(b > 0 for b in betas)
    assert not set(COUPLING_KINDS) & set(level)


def test_infsup_mesh_stability(level1, level2):
    b1 = {c.name: c.value for c in check_infsup(level1).checks}
    b2 = {c.name: c.value for c in check_infsup(level2).checks}
    for name in b1:
        assert abs(b1[name] - b2[name]) < 0.5 * max(b1[name], b2[name])


@pytest.mark.parametrize("eps", [1.0, 1e-8])
def test_solution_identities_via_direct_solve(level2, eps, lu_saddle):
    data = smooth_case_fields(eps)
    cfg = SolverConfig(eps=eps)
    sol = decoupled_solve(data["f"], level2.mesh, cfg, level2)
    assert sol.diagnostics["saddle"]["mode"] == "direct"
    rep = check_solution_identities(sol, level2)
    assert rep.passed, rep.to_text()


def test_solution_identities_nointerp(level2, lu_saddle):
    data = smooth_case_fields(1e-6)
    cfg = SolverConfig(eps=1e-6, method="nointerp")
    sol = decoupled_solve(data["f"], level2.mesh, cfg, level2)
    assert sol.diagnostics["saddle"]["mode"] == "direct"
    rep = check_solution_identities(sol, level2)
    assert rep.passed, rep.to_text()
    names = [c.name for c in rep.checks]
    assert any("curl_phi_zero" in n for n in names)
    assert not any("ind_phi_equals_grad_u" in n for n in names)


def test_report_serialization(level1):
    rep = check_complex(level1)
    text = rep.to_text()
    assert "PASS" in text
    payload = json.loads(rep.to_json())
    assert payload["passed"] is True
    assert len(payload["checks"]) == len(rep.checks)


def test_serial_verify_json_matches_the_recorded_report(tmp_path):
    """The ``--verify --serial`` report is pinned byte for byte: its four
    solves and their identity checks share one level cache, and no check
    value may move by a bit against the per-call matrices it replaced."""
    out = tmp_path / "v"
    assert main(["--verify", "--serial", "--out", str(out)]) == 0
    recorded = Path(__file__).parent / "data" / "verify_serial.json"
    assert (out / "verify.json").read_bytes() == recorded.read_bytes()


def test_run_verify_builds_each_verify_level_once(monkeypatch):
    """The checks of a verify n share one level, and the four identity
    solves run on the largest one: two levels of six DoF maps each.  No
    check or solve assembles a coupling form on them."""
    calls, levels = [], []
    build = asm.build_dof_map

    def counting(space, mesh):
        calls.append(space)
        return build(space, mesh)

    def recording(mesh):
        levels.append(build_spaces(mesh))
        return levels[-1]

    monkeypatch.setattr(asm, "build_dof_map", counting)
    monkeypatch.setattr(cli, "build_spaces", recording)
    report = run_verify(StudyConfig(verify=True, infsup=True, serial=True))
    assert report.passed, report.to_text()
    assert len(calls) == 2 * len(SPACES)
    assert len(levels) == 2
    assert not any(set(COUPLING_KINDS) & set(level) for level in levels)
